//! Workload inputs. Everything a run sends is derived here from the
//! seed: `sit-datagen` schema pairs with their ground truth, turned into
//! the request frames a designer's client would send. The program never
//! sees the seed, only these frames.

use std::ops::Range;

use sit_datagen::{GeneratorConfig, GroundTruth};
use sit_ecr::ddl;
use sit_prng::Xoshiro256pp;
use sit_server::proto::Request;

/// The workloads. `README.md` beside this crate says why each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Paper-scale sessions, 32 live at once, durable, in-process.
    PaperSessions,
    /// `PaperSessions` over loopback TCP on one connection.
    WireSessions,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 2] = [Workload::PaperSessions, Workload::WireSessions];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSessions => "paper_sessions",
            Workload::WireSessions => "wire_sessions",
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether requests go over loopback TCP rather than in-process.
    pub fn tcp(self) -> bool {
        self == Workload::WireSessions
    }
}

/// How much work one run does. Fixed per workload and `--seconds`, so
/// a run never stops on a clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Size {
    /// Distinct schema pairs (sessions) in the seeded set.
    pub sessions: usize,
    /// Sessions advanced round-robin at once.
    pub live: usize,
    /// Idle journaled sessions already in the data directory.
    pub idle: usize,
    /// Sessions of the set the warm-up pass runs.
    pub warmup: usize,
    /// Timed passes over the set (per process).
    pub passes: usize,
}

/// Processes an end-to-end run is split into, one after another. Each
/// sets up and times its share of the passes on its own; each request
/// then keeps its lowest latency over all of them, set-up time is the
/// lowest process's and memory the median. On the host this was built
/// on, whole processes ran up to 10 % apart on identical work while the
/// two halves of one process agreed within 3 %, and the host's slow
/// spells last seconds to tens of seconds.
pub const PROCESSES: usize = 8;

/// Timed passes per second of `--seconds`, over all processes, measured
/// on a 2-vCPU x86-64 VM so that a run takes about as long as asked.
fn passes_per_second(w: Workload) -> f64 {
    match w {
        Workload::PaperSessions => 6.5,
        Workload::WireSessions => 4.5,
    }
}

impl Size {
    /// One process's share of a run of `seconds`.
    pub fn for_run(w: Workload, seconds: u64) -> Size {
        let passes = (seconds as f64 * passes_per_second(w) / PROCESSES as f64)
            .round()
            .max(1.0) as usize;
        Size {
            sessions: 128,
            live: 32,
            idle: 64,
            warmup: 32,
            passes,
        }
    }

    /// A minimal run, for the benchmark's own tests.
    pub fn tiny() -> Size {
        Size {
            sessions: 3,
            live: 3,
            idle: 2,
            warmup: 1,
            passes: 1,
        }
    }
}

/// One schema pair as its session sees it.
#[derive(Clone, Debug)]
pub struct Pair {
    /// First schema's name.
    pub a: String,
    /// Second schema's name.
    pub b: String,
    /// First schema as DDL.
    pub ddl_a: String,
    /// Second schema as DDL.
    pub ddl_b: String,
    /// What truly corresponds: the independent reference for checks.
    pub truth: GroundTruth,
}

impl Pair {
    fn attr_paths(&self) -> impl Iterator<Item = (String, String)> + '_ {
        self.truth.attr_pairs.iter().map(|(oa, aa, ob, ab)| {
            (
                format!("{}.{oa}.{aa}", self.a),
                format!("{}.{ob}.{ab}", self.b),
            )
        })
    }
}

/// What a run checks on a response besides `ok:true`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Check {
    /// Nothing more.
    None,
    /// An `open` that must hand out this session id.
    Open(u64),
    /// A `matrix` whose cells for every true pair must equal the ground
    /// truth of this pair index.
    Matrix(usize),
}

/// One request of a run, encoded before timing starts.
#[derive(Clone, Debug)]
pub struct Op {
    /// The request.
    pub request: Request,
    /// Its wire frame (no newline).
    pub frame: String,
    /// Session slot within the pass (for per-session totals).
    pub slot: usize,
    /// Extra correctness check.
    pub check: Check,
}

impl Op {
    fn new(request: Request, slot: usize, check: Check) -> Op {
        let frame = request.to_json().encode();
        Op {
            request,
            frame,
            slot,
            check,
        }
    }
}

/// Every seeded input of one run.
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// Its size.
    pub size: Size,
    /// The seeded session set.
    pub pairs: Vec<Pair>,
    /// Pairs of the idle sessions pre-journaled in the data directory.
    pub idle_pairs: Vec<Pair>,
}

/// Paper-scale pairs: 6 objects and 2 relationships per schema.
fn pair_config(seed: u64) -> GeneratorConfig {
    GeneratorConfig {
        seed,
        objects_per_schema: 6,
        relationships_per_schema: 2,
        ..Default::default()
    }
}

fn make_pair(config: &GeneratorConfig) -> Pair {
    let p = config.generate_pair();
    Pair {
        a: p.a.name().to_owned(),
        b: p.b.name().to_owned(),
        ddl_a: ddl::print(&p.a),
        ddl_b: ddl::print(&p.b),
        truth: p.truth,
    }
}

/// Per-pair seeds drawn from the run seed, so pairs never collide
/// across the set and the idle sessions.
fn pair_seeds(seed: u64, n: usize, stream: u64) -> Vec<u64> {
    let mut rng = Xoshiro256pp::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..n).map(|_| rng.next_u64()).collect()
}

impl Inputs {
    /// Generate every input of a run from `seed`.
    pub fn generate(workload: Workload, size: Size, seed: u64) -> Inputs {
        let pairs: Vec<Pair> = pair_seeds(seed, size.sessions, 1)
            .into_iter()
            .map(|s| make_pair(&pair_config(s)))
            .collect();
        let idle_pairs = pair_seeds(seed, size.idle, 2)
            .into_iter()
            .map(|s| make_pair(&pair_config(s)))
            .collect();
        Inputs {
            workload,
            size,
            pairs,
            idle_pairs,
        }
    }

    /// Lifecycles of `pairs[range]`, session ids from `first_id` in
    /// slot order, advanced `size.live` at a time round-robin.
    pub fn lifecycles(&self, range: Range<usize>, first_id: u64) -> Vec<Op> {
        let start = range.start;
        let scripts: Vec<Vec<Op>> = range
            .map(|slot| {
                lifecycle(
                    &self.pairs[slot],
                    slot,
                    first_id + (slot - start) as u64,
                    true,
                )
            })
            .collect();
        interleave(scripts, self.size.live)
    }

    /// Sessions over `pairs`, ids from `first_id`, opened, loaded,
    /// declared and asserted, and left open: the idle sessions a
    /// service's data directory holds before set-up.
    pub fn fill(&self, pairs: &[Pair], first_id: u64) -> Vec<Op> {
        let scripts: Vec<Vec<Op>> = pairs
            .iter()
            .enumerate()
            .map(|(slot, pair)| lifecycle(pair, slot, first_id + slot as u64, false))
            .collect();
        interleave(scripts, pairs.len().max(1))
    }
}

/// Round-robin over groups of `live` scripts: each group advances one
/// request per session in turn until every script in it is done.
fn interleave(scripts: Vec<Vec<Op>>, live: usize) -> Vec<Op> {
    let mut out = Vec::new();
    for group in scripts.chunks(live.max(1)) {
        let longest = group.iter().map(Vec::len).max().unwrap_or(0);
        for step in 0..longest {
            for script in group {
                if let Some(op) = script.get(step) {
                    out.push(op.clone());
                }
            }
        }
    }
    out
}

/// A designer's session over one pair: open, both schemas, the schema
/// list, every true attribute equivalence, the ranked candidates, every
/// true assertion, the assertion matrix (checked against the truth)
/// and, when `complete`, integration with mappings, save and close.
///
/// That makes seven reads per complete session. With an even count the
/// read median would sit exactly on the edge between two verbs whose
/// latencies differ several-fold (`save` and `open`), and jump between
/// them with the seed.
fn lifecycle(pair: &Pair, slot: usize, id: u64, complete: bool) -> Vec<Op> {
    let session = id.to_string();
    let s = || session.clone();
    let mut ops = vec![Op::new(Request::Open, slot, Check::Open(id))];
    for ddl in [&pair.ddl_a, &pair.ddl_b] {
        ops.push(Op::new(
            Request::AddSchema {
                session: s(),
                ddl: ddl.clone(),
            },
            slot,
            Check::None,
        ));
    }
    ops.push(Op::new(
        Request::ListSchemas { session: s() },
        slot,
        Check::None,
    ));
    for (a, b) in pair.attr_paths() {
        ops.push(Op::new(
            Request::Equiv { session: s(), a, b },
            slot,
            Check::None,
        ));
    }
    ops.push(Op::new(
        Request::Candidates {
            session: s(),
            a: pair.a.clone(),
            b: pair.b.clone(),
        },
        slot,
        Check::None,
    ));
    for t in &pair.truth.assertions {
        ops.push(Op::new(
            Request::Assert {
                session: s(),
                a: format!("{}.{}", pair.a, t.a),
                b: format!("{}.{}", pair.b, t.b),
                assertion: t.assertion,
            },
            slot,
            Check::None,
        ));
    }
    ops.push(Op::new(
        Request::Matrix {
            session: s(),
            a: pair.a.clone(),
            b: pair.b.clone(),
        },
        slot,
        Check::Matrix(slot),
    ));
    if complete {
        ops.push(Op::new(
            Request::Integrate {
                session: s(),
                a: pair.a.clone(),
                b: pair.b.clone(),
                pull_up: false,
                mappings: true,
            },
            slot,
            Check::None,
        ));
        ops.push(Op::new(Request::Save { session: s() }, slot, Check::None));
        ops.push(Op::new(Request::Close { session: s() }, slot, Check::None));
    }
    ops
}
