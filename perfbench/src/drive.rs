//! Running a workload end to end: the service under test, set-up, the
//! timed passes, the correctness gate and the end-to-end metrics.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use sit_obs::clock::MonotonicClock;
use sit_server::server::{PersistOptions, Server, ServerConfig, ServerHandle};
use sit_server::wire::Json;
use sit_server::{DirStorage, FsyncPolicy, PersistConfig, Service, Storage, StoreConfig};

use crate::gen::{Check, Inputs, Op, Pair};
use crate::stats::{self, quantile, Digest};

/// The service a workload drives: in-process through
/// [`Service::handle_line`], or over one loopback TCP connection to a
/// [`Server`].
pub enum Target {
    /// In-process calls.
    InProc(Service),
    /// One client connection to an in-process server.
    Tcp {
        /// The running server.
        handle: ServerHandle,
        /// Request side of the connection.
        writer: TcpStream,
        /// Response side of the connection.
        reader: BufReader<TcpStream>,
    },
}

/// Store limits: room for every idle and live session, so nothing is
/// evicted, and no idle expiry.
fn store_config(inputs: &Inputs) -> StoreConfig {
    StoreConfig {
        max_sessions: inputs.size.idle + inputs.size.sessions + 16,
        ttl: None,
    }
}

/// The workload's durable service over data directory `dir`,
/// recovering whatever it holds.
pub fn build_service(inputs: &Inputs, dir: &Path, persist: PersistConfig) -> io::Result<Service> {
    Service::with_persistence(
        store_config(inputs),
        Arc::new(MonotonicClock::new()),
        Arc::new(DirStorage::open(dir)?) as Arc<dyn Storage>,
        persist,
    )
}

impl Target {
    /// The workload's service, in-process.
    fn in_process(inputs: &Inputs, dir: &Path, persist: PersistConfig) -> io::Result<Target> {
        Ok(Target::InProc(build_service(inputs, dir, persist)?))
    }

    /// The workload's service behind a loopback TCP server with at most
    /// as many workers as there are CPUs (and at most 2), and one client
    /// connection to it.
    pub fn tcp(inputs: &Inputs, dir: &Path, persist: PersistConfig) -> io::Result<Target> {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let config = ServerConfig {
            threads: cpus.min(2),
            queue_cap: 64,
            store: store_config(inputs),
            persist: Some(PersistOptions {
                data_dir: dir.to_path_buf(),
                config: persist,
            }),
        };
        let handle = Server::bind("127.0.0.1:0", config)?.spawn()?;
        let writer = TcpStream::connect(handle.addr())?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Target::Tcp {
            handle,
            writer,
            reader,
        })
    }

    /// The workload's own target, journaling per [`persist_config`],
    /// with the service's tracer switched off once it is built: the
    /// end-to-end runs measure the program untraced, and the traced run
    /// measures what tracing costs.
    fn for_workload(inputs: &Inputs, dir: &Path) -> io::Result<Target> {
        let target = if inputs.workload.tcp() {
            Target::tcp(inputs, dir, persist_config())?
        } else {
            Target::in_process(inputs, dir, persist_config())?
        };
        match &target {
            Target::InProc(service) => service.tracer().set_enabled(false),
            Target::Tcp { handle, .. } => handle.service().tracer().set_enabled(false),
        }
        Ok(target)
    }

    /// Send one frame and wait for its response frame.
    pub fn call(&mut self, frame: &str) -> io::Result<String> {
        match self {
            Target::InProc(service) => Ok(service.handle_line(frame).frame),
            Target::Tcp { writer, reader, .. } => {
                let mut line = Vec::with_capacity(frame.len() + 1);
                line.extend_from_slice(frame.as_bytes());
                line.push(b'\n');
                writer.write_all(&line)?;
                let mut response = String::new();
                if reader.read_line(&mut response)? == 0 {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server hung up",
                    ));
                }
                if response.ends_with('\n') {
                    response.pop();
                }
                Ok(response)
            }
        }
    }

    /// The server's service, for a TCP target.
    pub fn server_service(&self) -> Option<Arc<Service>> {
        match self {
            Target::InProc(_) => None,
            Target::Tcp { handle, .. } => Some(handle.service()),
        }
    }

    /// Stop the service: hang up and drain the server, joining its
    /// threads.
    pub fn close(self) -> io::Result<()> {
        match self {
            Target::InProc(_) => Ok(()),
            Target::Tcp {
                handle,
                writer,
                reader,
            } => {
                drop(reader);
                writer.shutdown(std::net::Shutdown::Both)?;
                drop(writer);
                handle.shutdown()
            }
        }
    }
}

/// One request position of a pass, with the lowest latency any
/// repeat of it took.
struct Position {
    verb: &'static str,
    mutating: bool,
    slot: usize,
    best_ns: u64,
}

/// Latencies, counts and checks of the requests a phase sent.
///
/// A phase repeats an identical pass of requests (the same frames up to
/// session ids). Each request position keeps the lowest latency of its
/// repeats: the host this runs on slows down by up to a third for
/// seconds at a time under other tenants' memory traffic, and a
/// request's fastest repeat is what stays put from run to run.
/// Percentiles are then taken over the distinct requests of the pass,
/// and a session's time is the sum of its requests' best latencies.
#[derive(Default)]
pub struct Recorder {
    positions: Vec<Position>,
    repeats: usize,
    /// Requests sent.
    pub attempted: u64,
    /// Requests that were not `ok:true` or failed a check.
    pub failed: u64,
    /// Digest of every response frame.
    pub digest: Digest,
    /// The first few failures, for the report.
    pub mismatches: Vec<String>,
}

impl Recorder {
    /// Count a failure, keeping the first few descriptions.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.mismatches.len() < 5 {
            self.mismatches.push(what);
        }
    }

    /// Check one response; returns whether it passed.
    pub fn check(&mut self, op: &Op, response: &str, pairs: &[Pair]) -> bool {
        self.attempted += 1;
        self.digest.add(response);
        if !response.starts_with(r#"{"ok":true"#) {
            let shown: String = response.chars().take(200).collect();
            self.fail(format!("{} -> {shown}", op.request.op()));
            return false;
        }
        let problem = match &op.check {
            Check::None => None,
            Check::Open(id) => check_open(response, *id),
            Check::Matrix(slot) => check_matrix(response, &pairs[*slot]),
        };
        match problem {
            Some(problem) => {
                self.fail(problem);
                false
            }
            None => true,
        }
    }

    /// Record the latency of the request at `position` of the pass.
    pub fn time(&mut self, position: usize, op: &Op, ns: u64) {
        if position == self.positions.len() {
            self.positions.push(Position {
                verb: op.request.op(),
                mutating: op.request.is_mutating(),
                slot: op.slot,
                best_ns: ns,
            });
            return;
        }
        let p = &mut self.positions[position];
        assert_eq!(
            p.verb,
            op.request.op(),
            "passes must repeat the same requests"
        );
        p.best_ns = p.best_ns.min(ns);
    }

    /// Close a pass: the next request is position 0 again.
    pub fn end_pass(&mut self) {
        self.repeats += 1;
    }

    /// Best latencies of one kind, ns: one per request position, or one
    /// per session.
    fn best(&self, samples: Samples) -> Vec<u64> {
        if let Samples::Sessions = samples {
            let mut totals: BTreeMap<usize, u64> = BTreeMap::new();
            for p in &self.positions {
                *totals.entry(p.slot).or_default() += p.best_ns;
            }
            return totals.into_values().collect();
        }
        self.positions
            .iter()
            .filter(|p| match samples {
                Samples::Reads => !p.mutating,
                Samples::Writes => p.mutating,
                Samples::Verb(v) => p.verb == v,
                Samples::Sessions => unreachable!("handled above"),
            })
            .map(|p| p.best_ns)
            .collect()
    }

    /// The `q`-quantile of the best latencies of one kind, ns, and the
    /// number of timed requests (or sessions) behind it.
    fn quantile(&self, samples: Samples, q: f64) -> (f64, usize) {
        let best = self.best(samples);
        let value = quantile(&best, q).map_or(f64::NAN, |ns| ns as f64);
        (value, best.len() * self.repeats)
    }

    /// One line per verb: best-repeat p50 and p90 with sample counts.
    fn verb_table(&self) -> Vec<String> {
        let verbs: BTreeSet<&'static str> = self.positions.iter().map(|p| p.verb).collect();
        verbs
            .into_iter()
            .map(|v| {
                let (p50, n) = self.quantile(Samples::Verb(v), 0.5);
                let (p90, _) = self.quantile(Samples::Verb(v), 0.9);
                format!(
                    "verb {v:<14} p50 {:>10.1} us  p90 {:>10.1} us  (n={n})",
                    p50 / 1e3,
                    p90 / 1e3
                )
            })
            .collect()
    }

    /// Requests per second of busy time, from the best latency of every
    /// request position.
    pub fn rate(&self) -> f64 {
        let busy: u64 = self.positions.iter().map(|p| p.best_ns).sum();
        self.positions.len() as f64 / (busy.max(1) as f64 / 1e9)
    }
}

/// Which latencies a metric reads.
#[derive(Clone, Copy, Debug)]
enum Samples {
    /// Whole-session totals.
    Sessions,
    /// Non-mutating requests.
    Reads,
    /// Mutating requests.
    Writes,
    /// One verb.
    Verb(&'static str),
}

fn check_open(response: &str, id: u64) -> Option<String> {
    let got = Json::parse(response)
        .ok()
        .and_then(|v| v.get("session").and_then(Json::as_str).map(str::to_owned));
    (got.as_deref() != Some(id.to_string().as_str()))
        .then(|| format!("open: expected session {id}, got {got:?}"))
}

/// Every true pair's cell of the assertion matrix must hold the ground
/// truth's assertion.
fn check_matrix(response: &str, pair: &Pair) -> Option<String> {
    let v = Json::parse(response).ok()?;
    let names = |key: &str| -> Vec<String> {
        v.get(key)
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter_map(|s| s.as_str().map(str::to_owned))
            .collect()
    };
    let (rows, cols) = (names("rows"), names("cols"));
    let cells = v.get("cells").and_then(Json::as_arr).unwrap_or(&[]);
    for t in &pair.truth.assertions {
        let (a, b) = (format!("{}.{}", pair.a, t.a), format!("{}.{}", pair.b, t.b));
        let cell = rows
            .iter()
            .position(|r| *r == a)
            .zip(cols.iter().position(|c| *c == b))
            .and_then(|(i, j)| cells.get(i)?.as_arr()?.get(j))
            .and_then(Json::as_str);
        let want = sit_core::script::keyword(t.assertion);
        if cell != Some(want) {
            return Some(format!("matrix {a} x {b}: expected {want}, got {cell:?}"));
        }
    }
    None
}

/// Send one pass of `ops` in order, timing each round trip, and record
/// them.
pub fn run_ops(
    target: &mut Target,
    ops: &[Op],
    pairs: &[Pair],
    rec: &mut Recorder,
) -> io::Result<()> {
    for (position, op) in ops.iter().enumerate() {
        let started = Instant::now();
        let response = target.call(&op.frame)?;
        let ns = started.elapsed().as_nanos() as u64;
        rec.check(op, &response, pairs);
        rec.time(position, op, ns);
    }
    rec.end_pass();
    Ok(())
}

/// Journal the idle sessions into `dir` through a throw-away service.
/// This is input generation, outside every timed phase.
pub fn prepare_idle(inputs: &Inputs, dir: &Path) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    if inputs.size.idle == 0 {
        return Ok(());
    }
    let mut target = Target::in_process(inputs, dir, persist_config())?;
    let mut rec = Recorder::default();
    let ops = inputs.fill(&inputs.idle_pairs, 1);
    run_ops(&mut target, &ops, &inputs.idle_pairs, &mut rec)?;
    if rec.failed > 0 {
        return Err(io::Error::other(format!(
            "idle sessions failed to journal: {:?}",
            rec.mismatches
        )));
    }
    Ok(())
}

/// The warm-up pass: the first `size.warmup` sessions of the set, with
/// ids after the idle sessions'.
pub fn warmup_ops(inputs: &Inputs) -> Vec<Op> {
    inputs.lifecycles(0..inputs.size.warmup, inputs.size.idle as u64 + 1)
}

/// First session id the timed passes get after set-up.
pub fn first_timed_id(inputs: &Inputs) -> u64 {
    (inputs.size.idle + inputs.size.warmup) as u64 + 1
}

/// One set-up: build the service (recovering the idle sessions), then
/// the warm-up pass. Returns the target and the seconds it took.
fn set_up(inputs: &Inputs, dir: &Path, warm: &mut Recorder) -> io::Result<(Target, f64)> {
    let started = Instant::now();
    let mut target = Target::for_workload(inputs, dir)?;
    run_ops(&mut target, &warmup_ops(inputs), &inputs.pairs, warm)?;
    Ok((target, started.elapsed().as_secs_f64()))
}

/// The timed passes. Each pass's frames are built before the pass
/// starts; timing covers only the round trips.
fn timed_passes(
    inputs: &Inputs,
    target: &mut Target,
    passes: usize,
    first_id: u64,
    rec: &mut Recorder,
) -> io::Result<()> {
    let n = inputs.size.sessions;
    for pass in 0..passes {
        let ops = inputs.lifecycles(0..n, first_id + (pass * n) as u64);
        run_ops(target, &ops, &inputs.pairs, rec)?;
    }
    Ok(())
}

/// One named metric value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind it (0 for a single measurement).
    pub samples: usize,
}

/// What a run prints.
#[derive(Default)]
pub struct Outcome {
    /// No request failed and every check held.
    pub correct: bool,
    /// Requests sent.
    pub attempted: u64,
    /// Requests failed (not `ok:true`, or a failed check).
    pub failed: u64,
    /// The metrics of this mode.
    pub metrics: Vec<Metric>,
    /// Digest of every response frame of the timed passes.
    pub digest: Option<u64>,
    /// The first failures.
    pub failures: Vec<String>,
    /// Other report lines (drift reference, per-verb or per-span tables).
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let entry = vec![("value", Json::Num(m.value)), ("unit", Json::str(m.unit))];
                (m.name, Json::obj(entry))
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::num(self.attempted)),
            ("failed", Json::num(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .encode()
    }

    /// Fold the counts and failures of a phase's recorder in.
    pub fn absorb(&mut self, phase: &str, rec: &Recorder) {
        self.attempted += rec.attempted;
        self.failed += rec.failed;
        self.correct &= rec.failed == 0;
        for m in &rec.mismatches {
            self.failures.push(format!("in {phase}: {m}"));
        }
    }

    /// The report line for `error_rate`.
    pub fn error_rate_note(&self) -> String {
        format!(
            "error_rate {:.6} ({} failed of {} attempted)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        )
    }
}

/// One process's share of an end-to-end run, as it reports it to the
/// parent on one JSON line.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Part {
    /// Requests sent.
    pub attempted: u64,
    /// Requests failed.
    pub failed: u64,
    /// The first failures.
    pub failures: Vec<String>,
    /// Set-up time, seconds.
    pub setup_s: f64,
    /// Peak resident set of the process, MiB.
    pub peak_rss_mb: f64,
    /// Timed passes.
    pub passes: usize,
    /// Lowest latency of each request of a pass over the timed passes,
    /// ns, in pass order.
    pub best_ns: Vec<u64>,
    /// Digest of every response frame of the timed passes.
    pub digest: u64,
    /// Report lines (drift reference, CPU).
    pub notes: Vec<String>,
}

fn strings(v: &Json, key: &str) -> Option<Vec<String>> {
    v.get(key)?
        .as_arr()?
        .iter()
        .map(|s| s.as_str().map(str::to_owned))
        .collect()
}

impl Part {
    /// The part as one JSON line.
    pub fn to_line(&self) -> String {
        let lines = |v: &[String]| Json::Arr(v.iter().map(|s| Json::str(s.as_str())).collect());
        Json::obj(vec![
            ("attempted", Json::num(self.attempted)),
            ("failed", Json::num(self.failed)),
            ("failures", lines(&self.failures)),
            ("setup_s", Json::Num(self.setup_s)),
            ("peak_rss_mb", Json::Num(self.peak_rss_mb)),
            ("passes", Json::num(self.passes as u64)),
            (
                "best_ns",
                Json::Arr(self.best_ns.iter().map(|&ns| Json::num(ns)).collect()),
            ),
            // Hex: a digest does not fit a JSON number exactly.
            ("digest", Json::str(format!("{:016x}", self.digest))),
            ("notes", lines(&self.notes)),
        ])
        .encode()
    }

    /// Parse a [`Part::to_line`] back.
    pub fn from_line(line: &str) -> Option<Part> {
        let v = Json::parse(line).ok()?;
        let num = |key: &str| v.get(key).and_then(Json::as_num);
        Some(Part {
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            failures: strings(&v, "failures")?,
            setup_s: num("setup_s")?,
            peak_rss_mb: num("peak_rss_mb").unwrap_or(f64::NAN),
            passes: num("passes")? as usize,
            best_ns: v
                .get("best_ns")?
                .as_arr()?
                .iter()
                .map(|n| n.as_num().map(|n| n as u64))
                .collect::<Option<_>>()?,
            digest: u64::from_str_radix(v.get("digest")?.as_str()?, 16).ok()?,
            notes: strings(&v, "notes")?,
        })
    }
}

/// A fresh, empty scratch directory for this run.
pub fn fresh_dir(root: &Path) -> io::Result<()> {
    if root.exists() {
        std::fs::remove_dir_all(root)?;
    }
    std::fs::create_dir_all(root)
}

/// The requests of one timed pass, in order.
fn timed_pass(inputs: &Inputs) -> Vec<Op> {
    inputs.lifecycles(0..inputs.size.sessions, first_timed_id(inputs))
}

/// One process's share of the end-to-end run (`--trace 0`): one set-up,
/// then the timed passes.
pub fn run(inputs: &Inputs, root: &Path) -> io::Result<Part> {
    fresh_dir(root)?;
    let dir = root.join("data");
    prepare_idle(inputs, &dir)?;

    let mut warm = Recorder::default();
    let (mut target, setup_s) = set_up(inputs, &dir, &mut warm)?;
    let drift_before = stats::reference_loop_ms();
    let mut timed = Recorder::default();
    timed_passes(
        inputs,
        &mut target,
        inputs.size.passes,
        first_timed_id(inputs),
        &mut timed,
    )?;
    let drift_after = stats::reference_loop_ms();
    target.close()?;
    std::fs::remove_dir_all(root)?;

    let failures = [("warm-up", &warm), ("timed passes", &timed)]
        .into_iter()
        .flat_map(|(phase, rec)| {
            rec.mismatches
                .iter()
                .map(move |m| format!("in {phase}: {m}"))
        })
        .collect();
    Ok(Part {
        attempted: warm.attempted + timed.attempted,
        failed: warm.failed + timed.failed,
        failures,
        setup_s,
        peak_rss_mb: stats::peak_rss_mb().unwrap_or(f64::NAN),
        passes: inputs.size.passes,
        best_ns: timed.positions.iter().map(|p| p.best_ns).collect(),
        digest: timed.digest.value(),
        notes: vec![format!(
            "drift reference loop: {drift_before:.1} ms before, {drift_after:.1} ms after (context only)"
        )],
    })
}

/// The end-to-end result of the parts of one run. Each request keeps
/// its lowest latency over every part's passes; `setup_s` is the lowest
/// part's, `peak_rss_mb` the median. The parts must agree on the
/// response digest.
pub fn combine(inputs: &Inputs, parts: &[Part]) -> Outcome {
    let mut out = Outcome::default();
    for (i, p) in parts.iter().enumerate() {
        out.attempted += p.attempted;
        out.failed += p.failed;
        out.failures
            .extend(p.failures.iter().map(|f| format!("part {i}: {f}")));
        out.notes
            .extend(p.notes.iter().map(|n| format!("part {i}: {n}")));
    }
    let ops = timed_pass(inputs);
    let mut timed = Recorder::default();
    if parts.iter().all(|p| p.best_ns.len() == ops.len()) {
        for (position, op) in ops.iter().enumerate() {
            let best = parts.iter().map(|p| p.best_ns[position]).min();
            timed.time(position, op, best.unwrap_or(0));
        }
        timed.repeats = parts.iter().map(|p| p.passes).sum();
        timed.attempted = (ops.len() * timed.repeats) as u64;
    } else {
        out.failures
            .push("a part timed another number of requests".into());
    }
    out.digest = parts.first().map(|p| p.digest);
    if parts.iter().any(|p| Some(p.digest) != out.digest) {
        out.failures
            .push("processes disagree on the response digest".into());
    }
    out.correct = out.failed == 0 && out.failures.is_empty();
    let setup_s = parts.iter().map(|p| p.setup_s).fold(f64::NAN, f64::min);
    let rss: Vec<f64> = parts.iter().map(|p| p.peak_rss_mb).collect();
    out.metrics = end_to_end(&timed, setup_s, stats::median_f64(&rss));
    let verbs = timed.verb_table();
    out.notes.splice(0..0, verbs);
    out
}

/// The end-to-end metrics, from the best repeat of every request of
/// the timed passes.
fn end_to_end(timed: &Recorder, setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    let metric = |name: &'static str, unit: &'static str, scale: f64, samples: Samples, q: f64| {
        let (value, samples) = timed.quantile(samples, q);
        Metric {
            name,
            value: value / scale,
            unit,
            samples,
        }
    };
    let us = |name: &'static str, samples: Samples, q: f64| metric(name, "us", 1e3, samples, q);
    vec![
        Metric {
            name: "requests_per_s",
            value: timed.rate(),
            unit: "1/s",
            samples: timed.attempted as usize,
        },
        metric("session_p50_ms", "ms", 1e6, Samples::Sessions, 0.5),
        metric("session_p90_ms", "ms", 1e6, Samples::Sessions, 0.9),
        us("read_p50_us", Samples::Reads, 0.5),
        us("write_p50_us", Samples::Writes, 0.5),
        us("add_schema_p50_us", Samples::Verb("add_schema"), 0.5),
        us("equiv_p50_us", Samples::Verb("equiv"), 0.5),
        us("candidates_p50_us", Samples::Verb("candidates"), 0.5),
        us("assert_p50_us", Samples::Verb("assert"), 0.5),
        us("assert_p90_us", Samples::Verb("assert"), 0.9),
        us("integrate_p50_us", Samples::Verb("integrate"), 0.5),
        us("save_p50_us", Samples::Verb("save"), 0.5),
        Metric {
            name: "setup_s",
            value: setup_s,
            unit: "s",
            samples: 0,
        },
        Metric {
            name: "peak_rss_mb",
            value: peak_rss_mb,
            unit: "MB",
            samples: 0,
        },
    ]
}

/// Journal policy of the end-to-end runs: the default snapshot cadence,
/// but no explicit fsync. The journal lives under the working
/// directory, on whatever disk that is; there an fsync costs 80-150 us
/// and swings with other tenants' I/O, which would be most of every
/// write and hide the program. This matches the cost profile of
/// journaling to tmpfs, where an fsync costs almost nothing.
pub fn persist_config() -> PersistConfig {
    PersistConfig {
        fsync: FsyncPolicy::Never,
        ..PersistConfig::default()
    }
}
