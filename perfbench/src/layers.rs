//! The traced run (`--trace 1`): per-layer metrics.
//!
//! The run sets the workload up as the end-to-end run does and sends
//! every request, in order, to two services of the same configuration:
//! an in-process [`Service`] and a loopback TCP server. Both journal with
//! fsync `always` and snapshot every 8 records, so the
//! sync and snapshot paths run; the end-to-end runs fsync never, and
//! their snapshot cadence of 64 is more than a lifecycle's writes.
//!
//! Layer times come from the program's own spans. Around each request of
//! the traced pass the benchmark clears the in-process service's tracer
//! and takes what it recorded: `request`, `parse`, `dispatch`, `encode`,
//! `persist.append`, `persist.fsync`, `persist.snapshot`,
//! `session.add_schema`, `acs.declare_equivalent`, `ocs.ranked_pairs`,
//! `closure.assert` and `integrate`; `recover.session` comes from
//! building the service over the idle sessions' journals. A span's self
//! time is its duration minus its children's. The TCP server's own
//! `request` span gives the server overhead: round trip minus the
//! service's time on the same frame.
//!
//! Layers the program has no span for are timed by calling their public
//! function on the same input, or on the session state the service left,
//! right after the request: `Request::from_json`, `SessionStore::get`,
//! `ddl::parse_many`, `Session::assertion_matrix`, `Mappings::new`,
//! `render::render` and `script::save`. For each `assert` the session is
//! cloned first; the clone makes the same assertion (for its allocation
//! count, checked against the service's response) and then retracts it
//! (`closure.retract_us`). Allocation counts come from the counting
//! allocator and are exact: every counted call runs on the benchmark's
//! thread.
//!
//! Tracing overhead is what the service's tracer, on by default and
//! switched off in the end-to-end runs, costs: on a third service, in
//! process and configured as in the end-to-end runs, passes with the
//! tracer off alternate with passes with it on.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::{Arc, MutexGuard};
use std::time::Instant;

use sit_core::integrate::IntegrationOptions;
use sit_core::mapping::Mappings;
use sit_core::{script, Session};
use sit_ecr::render;
use sit_obs::trace::{chrome_json, Phase, TraceEvent};
use sit_server::proto::Request;
use sit_server::wire::Json;
use sit_server::{FsyncPolicy, PersistConfig, Service};

use crate::alloc;
use crate::drive::{self, Metric, Outcome, Recorder, Target};
use crate::gen::{Inputs, Op};
use crate::stats;

/// Snapshot cadence of the traced run's services: a lifecycle makes
/// about 25 writes, so each session is snapshotted a few times.
const SNAPSHOT_EVERY: u64 = 8;

/// Passes with the service's tracer off, and as many with it on, for
/// `trace.overhead_pct`.
const OVERHEAD_PASSES: usize = 12;

/// Journal policy of the traced run: every write synced.
fn traced_persist_config() -> PersistConfig {
    PersistConfig {
        fsync: FsyncPolicy::Always,
        snapshot_every: SNAPSHOT_EVERY,
    }
}

/// Exact counts from the traced pass.
#[derive(Default)]
struct Counts {
    requests: u64,
    handle_allocs: u64,
    parse_allocs: u64,
    decode_allocs: u64,
    frame_bytes: u64,
    schemas: u64,
    seed_facts: u64,
    ranks: u64,
    rank_pairs: u64,
    asserts: u64,
    assert_allocs: u64,
    derived: u64,
    saves: u64,
    save_bytes: u64,
}

/// Run `f`, adding the allocations it made on this thread to `counter`.
fn counted<T>(counter: &mut u64, f: impl FnOnce() -> T) -> T {
    let before = alloc::count();
    let out = f();
    *counter += alloc::count() - before;
    out
}

/// Run `f`, adding its duration in microseconds to `samples[name]`.
fn timed<T>(
    samples: &mut BTreeMap<&'static str, Vec<f64>>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let started = Instant::now();
    let out = black_box(f());
    let us = started.elapsed().as_secs_f64() * 1e6;
    samples.entry(name).or_default().push(us);
    out
}

fn facts(s: &Session) -> u64 {
    (s.object_engine().fact_count() + s.rel_engine().fact_count()) as u64
}

fn schema_id(s: &Session, name: &str) -> Result<sit_ecr::SchemaId, String> {
    s.catalog()
        .by_name(name)
        .ok_or_else(|| format!("unknown schema `{name}`"))
}

fn object(s: &Session, path: &str) -> Result<sit_core::catalog::GObj, String> {
    let (schema, object) = path
        .split_once('.')
        .ok_or_else(|| format!("bad object path `{path}`"))?;
    s.object_named(schema, object).map_err(|e| e.to_string())
}

/// Length of the array under `key` in a response.
fn array_len(response: &Json, key: &str) -> u64 {
    response
        .get(key)
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len) as u64
}

/// The two services every request goes to.
struct Services {
    inproc: Service,
    tcp: Target,
    server: Arc<Service>,
}

impl Services {
    /// The live session `id` of the in-process service.
    fn session(&self, id: &str) -> Result<sit_server::store::SharedSession, String> {
        self.inproc
            .store()
            .get(id)
            .ok_or_else(|| format!("no session {id}"))
    }

    /// Send `op` to both services without tracing it; check the
    /// in-process response and that the TCP one is byte-identical.
    /// Returns the in-process latency in ns.
    fn call(&mut self, op: &Op, inputs: &Inputs, rec: &mut Recorder) -> io::Result<u64> {
        let started = Instant::now();
        let response = self.inproc.handle_line(&op.frame).frame;
        let ns = started.elapsed().as_nanos() as u64;
        let over_tcp = self.tcp.call(&op.frame)?;
        verify(op, &response, &over_tcp, inputs, rec);
        Ok(ns)
    }

    /// One pass of `ops` through [`Services::call`], timed into `rec`.
    fn pass(&mut self, ops: &[Op], inputs: &Inputs, rec: &mut Recorder) -> io::Result<()> {
        for (position, op) in ops.iter().enumerate() {
            let ns = self.call(op, inputs, rec)?;
            rec.time(position, op, ns);
        }
        rec.end_pass();
        Ok(())
    }
}

fn verify(op: &Op, response: &str, over_tcp: &str, inputs: &Inputs, rec: &mut Recorder) {
    if rec.check(op, response, &inputs.pairs) && response != over_tcp {
        rec.fail(format!(
            "{}: TCP response differs from in-process",
            op.request.op()
        ));
    }
}

fn lock(session: &sit_server::store::SharedSession) -> MutexGuard<'_, Session> {
    session
        .lock()
        .expect("no service thread panics while it holds a session")
}

/// What the traced pass collects.
#[derive(Default)]
struct Traced {
    /// The in-process service's spans of every traced request.
    events: Vec<TraceEvent>,
    /// Direct calls and derived times, µs, by metric name.
    samples: BTreeMap<&'static str, Vec<f64>>,
    counts: Counts,
}

impl Traced {
    /// One request of the traced pass.
    fn request(
        &mut self,
        services: &mut Services,
        op: &Op,
        inputs: &Inputs,
        rec: &mut Recorder,
    ) -> Result<(), String> {
        let c = &mut self.counts;
        let id = op.request.session_id().map(str::to_owned);
        let session = match (&id, &op.request) {
            (_, Request::Close { .. }) | (None, _) => None,
            (Some(id), _) => Some(services.session(id)?),
        };
        // State the request starts from, for the checks made after it.
        let before = session.as_ref().map(|s| {
            let s = lock(s);
            let clone = matches!(op.request, Request::Assert { .. }).then(|| s.clone());
            (facts(&s), clone)
        });

        services.inproc.tracer().clear();
        services.server.tracer().clear();
        let response = counted(&mut c.handle_allocs, || {
            services.inproc.handle_line(&op.frame).frame
        });
        self.events.extend(services.inproc.tracer().snapshot());
        let started = Instant::now();
        let over_tcp = services.tcp.call(&op.frame).map_err(|e| e.to_string())?;
        let round_trip_us = started.elapsed().as_secs_f64() * 1e6;
        let served_ns = services
            .server
            .tracer()
            .snapshot()
            .iter()
            .find(|e| e.name == "request")
            .map(|e| e.dur_ns)
            .ok_or("the server recorded no request span")?;
        verify(op, &response, &over_tcp, inputs, rec);
        let samples = &mut self.samples;
        samples
            .entry("server.round_trip_us")
            .or_default()
            .push(round_trip_us);
        samples
            .entry("server.overhead_us")
            .or_default()
            .push(round_trip_us - served_ns as f64 / 1e3);
        c.requests += 1;
        c.frame_bytes += (op.frame.len() + response.len()) as u64;

        // The same frame through the decoding layers, called directly.
        let value =
            counted(&mut c.parse_allocs, || Json::parse(&op.frame)).map_err(|e| e.to_string())?;
        timed(samples, "proto.decode_us", || {
            counted(&mut c.decode_allocs, || Request::from_json(&value))
        })
        .map_err(|e| e.to_string())?;
        let (Some(id), Some(session), Some((facts_before, clone))) = (id, session, before) else {
            return Ok(());
        };
        timed(samples, "store.get_us", || services.inproc.store().get(&id));

        let response = Json::parse(&response).map_err(|e| e.to_string())?;
        let s = lock(&session);
        match &op.request {
            Request::AddSchema { ddl, .. } => {
                let parsed = timed(samples, "ddl.parse_us", || sit_ecr::ddl::parse_many(ddl))
                    .map_err(|e| e.to_string())?;
                c.schemas += parsed.len() as u64;
                c.seed_facts += facts(&s) - facts_before;
            }
            Request::Candidates { .. } => {
                c.ranks += 1;
                c.rank_pairs += array_len(&response, "pairs");
            }
            Request::Assert {
                a, b, assertion, ..
            } => {
                let mut clone = clone.ok_or("no session clone for an assert")?;
                let (ga, gb) = (object(&clone, a)?, object(&clone, b)?);
                let derived = counted(&mut c.assert_allocs, || {
                    clone.assert_objects(ga, gb, *assertion)
                })
                .map_err(|e| e.to_string())?;
                let reported = array_len(&response, "derived");
                if derived.len() as u64 != reported {
                    return Err(format!(
                        "assert derived {} on a clone, the service reported {reported}",
                        derived.len()
                    ));
                }
                c.asserts += 1;
                c.derived += reported;
                if !timed(samples, "closure.retract_us", || {
                    clone.retract_objects(ga, gb)
                }) {
                    return Err("nothing to retract after an assert".into());
                }
            }
            Request::Matrix { a, b, .. } => {
                let (sa, sb) = (schema_id(&s, a)?, schema_id(&s, b)?);
                timed(samples, "closure.matrix_us", || s.assertion_matrix(sa, sb));
            }
            Request::Integrate { a, b, pull_up, .. } => {
                let (sa, sb) = (schema_id(&s, a)?, schema_id(&s, b)?);
                let options = IntegrationOptions {
                    pull_up_common_attrs: *pull_up,
                    ..Default::default()
                };
                let integrated = s.integrate(sa, sb, &options).map_err(|e| e.to_string())?;
                timed(samples, "mapping.build_us", || {
                    Mappings::new(s.catalog(), &integrated)
                });
                timed(samples, "render.render_us", || {
                    render::render(&integrated.schema)
                });
            }
            Request::Save { .. } => {
                let text = timed(samples, "script.save_us", || script::save(&s));
                c.saves += 1;
                c.save_bytes += text.len() as u64;
            }
            _ => {}
        }
        Ok(())
    }
}

/// What the service's tracer costs, in percent: the end-to-end
/// configuration in process, passes alternating with the tracer off and
/// on, the sum of every request's best latency with it on over the sum
/// with it off. The passes' checks go into `out`.
fn tracing_overhead_pct(inputs: &Inputs, dir: &Path, out: &mut Outcome) -> io::Result<f64> {
    drive::prepare_idle(inputs, dir)?;
    let service = drive::build_service(inputs, dir, drive::persist_config())?;
    let tracer = service.tracer().clone();
    let mut target = Target::InProc(service);
    let (mut warm, mut off, mut on) = (
        Recorder::default(),
        Recorder::default(),
        Recorder::default(),
    );
    drive::run_ops(
        &mut target,
        &drive::warmup_ops(inputs),
        &inputs.pairs,
        &mut warm,
    )?;
    let n = inputs.size.sessions;
    let mut next_id = drive::first_timed_id(inputs);
    for _ in 0..OVERHEAD_PASSES {
        for (enabled, rec) in [(false, &mut off), (true, &mut on)] {
            tracer.set_enabled(enabled);
            let ops = inputs.lifecycles(0..n, next_id);
            drive::run_ops(&mut target, &ops, &inputs.pairs, rec)?;
            next_id += n as u64;
        }
    }
    for (phase, rec) in [
        ("overhead warm-up", &warm),
        ("tracer off", &off),
        ("tracer on", &on),
    ] {
        out.absorb(phase, rec);
    }
    Ok((off.rate() / on.rate() - 1.0) * 100.0)
}

/// The traced run (`--trace 1`).
pub fn run(inputs: &Inputs, root: &Path) -> io::Result<Outcome> {
    drive::fresh_dir(root)?;
    let mut out = Outcome {
        correct: true,
        ..Outcome::default()
    };
    let overhead_pct = tracing_overhead_pct(inputs, &root.join("overhead"), &mut out)?;
    let (dir_in, dir_tcp) = (root.join("inproc"), root.join("tcp"));
    drive::prepare_idle(inputs, &dir_in)?;
    drive::prepare_idle(inputs, &dir_tcp)?;

    let inproc = drive::build_service(inputs, &dir_in, traced_persist_config())?;
    let recovered: Vec<f64> = inproc
        .tracer()
        .snapshot()
        .iter()
        .filter(|e| e.name == "recover.session")
        .map(|e| e.dur_ns as f64 / 1e3)
        .collect();
    let tcp = Target::tcp(inputs, &dir_tcp, traced_persist_config())?;
    let server = tcp.server_service().expect("a TCP target has a server");
    let mut services = Services {
        inproc,
        tcp,
        server,
    };
    let mut rec = Recorder::default();
    let mut warm = Recorder::default();
    services.pass(&drive::warmup_ops(inputs), inputs, &mut warm)?;

    // The traced pass.
    let journal = |s: &Service| {
        let m = s.persistence().expect("the service is durable").metrics();
        (
            m.journal_records.get(),
            m.journal_bytes.get(),
            m.fsyncs.get(),
        )
    };
    let journal_before = journal(&services.inproc);
    let mut traced = Traced::default();
    let first = drive::first_timed_id(inputs);
    for op in &inputs.lifecycles(0..inputs.size.sessions, first) {
        if let Err(e) = traced.request(&mut services, op, inputs, &mut rec) {
            rec.fail(format!("{}: {e}", op.request.op()));
        }
    }
    let journal_after = journal(&services.inproc);
    services.tcp.close()?;

    let trace_path = root
        .parent()
        .unwrap_or(root)
        .join(format!("trace_{}.json", inputs.workload.name()));
    std::fs::write(&trace_path, chrome_json(&traced.events))?;
    std::fs::remove_dir_all(root)?;

    out.absorb("warm-up", &warm);
    out.absorb("traced pass", &rec);
    out.digest = Some(rec.digest.value());
    let spans = Spans::new(&traced.events);
    out.metrics = metrics(
        &traced,
        &spans,
        journal_before,
        journal_after,
        &recovered,
        overhead_pct,
    );
    out.notes.extend(spans.self_table());
    out.notes.push(format!(
        "trace: {} events of the traced pass written to {}",
        traced.events.len(),
        trace_path.display(),
    ));
    Ok(out)
}

/// The per-layer metrics, in `BENCHMARK.json`'s order.
fn metrics(
    traced: &Traced,
    spans: &Spans,
    journal_before: (u64, u64, u64),
    journal_after: (u64, u64, u64),
    recovered_us: &[f64],
    overhead_pct: f64,
) -> Vec<Metric> {
    let c = &traced.counts;
    let per = |n: u64, d: u64| n as f64 / d.max(1) as f64;
    let (records, bytes, fsyncs) = (
        journal_after.0 - journal_before.0,
        journal_after.1 - journal_before.1,
        journal_after.2 - journal_before.2,
    );
    let us = |name: &'static str, v: &[f64]| Metric {
        name,
        value: stats::median_f64(v),
        unit: "us",
        samples: v.len(),
    };
    let span = |name: &'static str, span: &str| us(name, &spans.durations(span));
    let own = |name: &'static str, span: &str| us(name, &spans.self_times(span));
    let direct = |name: &'static str| {
        us(
            name,
            traced.samples.get(name).map_or(&[][..], Vec::as_slice),
        )
    };
    let count = |name: &'static str, value: f64, unit: &'static str| Metric {
        name,
        value,
        unit,
        samples: 0,
    };
    vec![
        span("wire.parse_us", "parse"),
        span("wire.encode_us", "encode"),
        count(
            "wire.parse_allocs",
            per(c.parse_allocs, c.requests),
            "count",
        ),
        count("wire.frame_bytes", per(c.frame_bytes, c.requests), "bytes"),
        direct("proto.decode_us"),
        count(
            "proto.decode_allocs",
            per(c.decode_allocs, c.requests),
            "count",
        ),
        span("service.handle_us", "request"),
        own("service.self_us", "request"),
        own("service.dispatch_self_us", "dispatch"),
        count(
            "service.allocs_per_request",
            per(c.handle_allocs, c.requests),
            "count",
        ),
        direct("store.get_us"),
        span("persist.append_us", "persist.append"),
        span("persist.fsync_us", "persist.fsync"),
        span("persist.snapshot_us", "persist.snapshot"),
        count(
            "persist.journal_bytes_per_write",
            per(bytes, records),
            "bytes",
        ),
        count("persist.fsyncs_per_write", per(fsyncs, records), "count"),
        us("persist.recover_us", recovered_us),
        direct("server.round_trip_us"),
        direct("server.overhead_us"),
        direct("ddl.parse_us"),
        span("session.add_schema_us", "session.add_schema"),
        count("closure.seed_facts", per(c.seed_facts, c.schemas), "count"),
        span("equivalence.declare_us", "acs.declare_equivalent"),
        span("resemblance.rank_us", "ocs.ranked_pairs"),
        count("resemblance.pairs", per(c.rank_pairs, c.ranks), "count"),
        span("closure.assert_us", "closure.assert"),
        count(
            "closure.assert_allocs",
            per(c.assert_allocs, c.asserts),
            "count",
        ),
        count(
            "closure.derived_per_assert",
            per(c.derived, c.asserts),
            "count",
        ),
        direct("closure.retract_us"),
        direct("closure.matrix_us"),
        span("integrate.build_us", "integrate"),
        direct("mapping.build_us"),
        direct("render.render_us"),
        direct("script.save_us"),
        count("script.save_bytes", per(c.save_bytes, c.saves), "bytes"),
        count("trace.overhead_pct", overhead_pct, "%"),
    ]
}

/// The recorded spans: duration and self time of each, by name.
struct Spans {
    by_name: BTreeMap<&'static str, Vec<(f64, f64)>>,
}

impl Spans {
    fn new(events: &[TraceEvent]) -> Spans {
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        let complete = || events.iter().filter(|e| e.phase == Phase::Complete);
        for e in complete() {
            if let Some(p) = e.parent {
                *child_ns.entry(p).or_default() += e.dur_ns;
            }
        }
        let mut by_name: BTreeMap<&'static str, Vec<(f64, f64)>> = BTreeMap::new();
        for e in complete() {
            let own = e
                .dur_ns
                .saturating_sub(child_ns.get(&e.id).copied().unwrap_or(0));
            by_name
                .entry(e.name)
                .or_default()
                .push((e.dur_ns as f64 / 1e3, own as f64 / 1e3));
        }
        Spans { by_name }
    }

    /// Durations of every span called `name`, µs.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.by_name
            .get(name)
            .map_or(Vec::new(), |v| v.iter().map(|&(d, _)| d).collect())
    }

    /// Self times of every span called `name`, µs.
    fn self_times(&self, name: &str) -> Vec<f64> {
        self.by_name
            .get(name)
            .map_or(Vec::new(), |v| v.iter().map(|&(_, s)| s).collect())
    }

    /// One line per span name: count, median duration and self time.
    fn self_table(&self) -> Vec<String> {
        self.by_name
            .keys()
            .map(|name| {
                format!(
                    "span {name:<24} n={:<6} median {:>10.2} us  self {:>10.2} us",
                    self.durations(name).len(),
                    stats::median_f64(&self.durations(name)),
                    stats::median_f64(&self.self_times(name))
                )
            })
            .collect()
    }
}
