//! Derivation provenance pinned byte for byte, one hash per case.
//!
//! Provenance — the input facts a pinned pair rests on — is what Screen 9
//! cites and what `AssertionEngine::support` reports. How the engine
//! stores it is free to change; what it answers is not. Each line of the
//! golden file is the FNV-1a 64-bit hash of one case's every answer that
//! carries provenance: each step's derived facts with their support, each
//! conflict report (its `Debug` form and its Screen-9 text), and
//! `pinned()` with every pair's support. The pairs are hashed through a
//! local `DerivedFact` carrying a `roots` field, the form in which the
//! file was first written.
//!
//! Two families of cases:
//!
//! * `closure` — the 2,000 random assertion scripts of
//!   `closure_determinism.rs` (8 nodes, 10 assertions, the same seeds);
//! * `forest` — random category forests in the style of
//!   `seed_structure.rs`, with a chain 20–80 deep in half of them, seeded
//!   in one pass or fact by fact, then contradicted on their deepest
//!   pinned pair, asserted across schemas (some asserts rejected through
//!   propagation), extended by a later schema, retracted and re-asserted.
//!
//! If a change to this output is intended, regenerate the file with
//! `SIT_BLESS=1 cargo test -p sit-core --test provenance_golden` and
//! review the diff.

use std::fmt::{self, Write as _};

use sit_core::assertion::{Assertion, Rel5};
use sit_core::closure::{self, AssertionEngine, FactId};
use sit_prng::{prop, SplitMix64, Xoshiro256pp};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/provenance.txt");

type Engine = AssertionEngine<u32>;

fn name(n: u32) -> String {
    format!("n{n}")
}

/// FNV-1a, 64-bit, fed through `write!` so no case text is buffered.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// A pinned pair with its support, hashed in this `Debug` form.
#[derive(Debug)]
#[allow(dead_code)] // read through `Debug` only
struct DerivedFact {
    a: u32,
    b: u32,
    rel: Rel5,
    roots: Vec<FactId>,
}

fn with_support(engine: &Engine, pairs: Vec<closure::DerivedFact<u32>>) -> Vec<DerivedFact> {
    pairs
        .into_iter()
        .map(|d| DerivedFact {
            roots: engine.support(d.a, d.b),
            a: d.a,
            b: d.b,
            rel: d.rel,
        })
        .collect()
}

/// Hash one assert's outcome; returns whether it was accepted.
fn outcome(h: &mut Fnv, engine: &mut Engine, (a, b, assertion): (u32, u32, Assertion)) -> bool {
    match engine.assert(a, b, assertion, name) {
        Ok(derived) => {
            writeln!(h, "ok {:?}", with_support(engine, derived)).unwrap();
            true
        }
        Err(report) => {
            writeln!(h, "conflict {report:?}\n{report}").unwrap();
            false
        }
    }
}

fn pinned(h: &mut Fnv, engine: &Engine) {
    writeln!(h, "pinned {:?}", with_support(engine, engine.pinned())).unwrap();
}

/// The per-case seeds `prop::check_cases` derives.
fn case_rngs(cases: u64) -> impl Iterator<Item = Xoshiro256pp> {
    let mut seeds = SplitMix64::new(prop::DEFAULT_BASE_SEED);
    (0..cases).map(move |_| Xoshiro256pp::seed_from_u64(seeds.next_u64()))
}

/// `closure_determinism.rs`'s script: 10 random assertions over 8 nodes.
fn closure_case(rng: &mut Xoshiro256pp) -> u64 {
    const NODES: u32 = 8;
    let steps: Vec<(u32, u32, Assertion)> = (0..10)
        .map(|_| {
            let a = rng.gen_range(0..NODES);
            let b = (a + rng.gen_range(1..NODES)) % NODES;
            let assertion = Assertion::MENU[rng.gen_range(0..Assertion::MENU.len())];
            (a, b, assertion)
        })
        .collect();
    let (mut h, mut engine) = (Fnv::new(), Engine::new());
    for step in steps {
        outcome(&mut h, &mut engine, step);
    }
    pinned(&mut h, &engine);
    h.0
}

/// One schema's structure over the next ids of `ids`.
struct Structure {
    nodes: Vec<u32>,
    edges: Vec<(u32, u32)>,
    roots: Vec<u32>,
}

/// 1–8 roots; a chain under the first, 20–80 deep in half the cases and
/// 3 deep otherwise; 0–11 more categories over one or two earlier
/// objects (those over two seed no edge); edges sometimes shuffled.
fn forest(rng: &mut Xoshiro256pp, ids: &mut impl Iterator<Item = u32>) -> Structure {
    let roots = rng.gen_range(1usize..9);
    let chain = if rng.gen_bool(0.5) {
        rng.gen_range(20usize..81)
    } else {
        3
    };
    let others = rng.gen_range(0usize..12);
    let mut parents: Vec<Vec<usize>> = vec![Vec::new(); roots];
    for c in 0..chain + others {
        let o = parents.len();
        let ps = if c < chain {
            vec![if c == 0 { 0 } else { o - 1 }]
        } else if rng.gen_bool(0.25) && o >= 2 {
            let a = rng.gen_range(0..o);
            vec![a, (a + rng.gen_range(1..o)) % o]
        } else {
            vec![rng.gen_range(0..o)]
        };
        parents.push(ps);
    }
    let nodes: Vec<u32> = parents.iter().map(|_| ids.next().unwrap()).collect();
    let mut edges: Vec<(u32, u32)> = parents
        .iter()
        .enumerate()
        .filter_map(|(o, ps)| match ps[..] {
            [p] => Some((nodes[o], nodes[p])),
            _ => None,
        })
        .collect();
    if rng.gen_bool(0.5) {
        rng.shuffle(&mut edges);
    }
    let roots = nodes[..roots].to_vec();
    Structure {
        nodes,
        edges,
        roots,
    }
}

/// A schema's relationship sets: 0–5 pairwise-disjoint nodes.
fn rels(rng: &mut Xoshiro256pp, ids: &mut impl Iterator<Item = u32>) -> Structure {
    let roots: Vec<u32> = (0..rng.gen_range(0usize..6))
        .map(|_| ids.next().unwrap())
        .collect();
    Structure {
        nodes: roots.clone(),
        edges: Vec::new(),
        roots,
    }
}

/// Seed `s` in one pass, or (a quarter of the time) fact by fact.
fn seed(rng: &mut Xoshiro256pp, engine: &mut Engine, s: &Structure) {
    if rng.gen_bool(0.25) {
        for &(child, parent) in &s.edges {
            engine.seed(child, parent, Rel5::Pp, name).unwrap();
        }
        for (i, &a) in s.roots.iter().enumerate() {
            for &b in &s.roots[i + 1..] {
                engine.seed(a, b, Rel5::Dr, name).unwrap();
            }
        }
    } else {
        engine.seed_structure(&s.edges, &s.roots);
    }
}

fn forest_case(rng: &mut Xoshiro256pp) -> u64 {
    let (mut h, mut engine) = (Fnv::new(), Engine::new());
    let mut pool: Vec<u32> = (0..400).collect();
    rng.shuffle(&mut pool);
    let mut ids = pool.into_iter();
    let earlier = forest(rng, &mut ids);
    let earlier_rels = rels(rng, &mut ids);
    let this = forest(rng, &mut ids);
    let later = forest(rng, &mut ids);
    seed(rng, &mut engine, &earlier);
    seed(rng, &mut engine, &earlier_rels);
    seed(rng, &mut engine, &this);
    pinned(&mut h, &engine);

    // Contradict the seeded pair with the longest provenance.
    let deepest = engine
        .pinned()
        .into_iter()
        .filter(|d| this.nodes.contains(&d.a))
        .max_by_key(|d| engine.support(d.a, d.b).len());
    if let Some(d) = deepest {
        let contradicting = match d.rel {
            Rel5::Dr => Assertion::Equal,
            _ => Assertion::DisjointNonIntegrable,
        };
        outcome(&mut h, &mut engine, (d.a, d.b, contradicting));
    }

    let pick = |rng: &mut Xoshiro256pp, s: &Structure| s.nodes[rng.gen_range(0..s.nodes.len())];
    let mut asserted = Vec::new();
    for _ in 0..rng.gen_range(1usize..6) {
        let step = (
            pick(rng, &earlier),
            pick(rng, &this),
            Assertion::MENU[rng.gen_range(0..Assertion::MENU.len())],
        );
        if outcome(&mut h, &mut engine, step) {
            asserted.push(step);
        }
    }
    seed(rng, &mut engine, &later);
    let step = (
        pick(rng, &later),
        pick(rng, &this),
        Assertion::MENU[rng.gen_range(0..Assertion::MENU.len())],
    );
    if outcome(&mut h, &mut engine, step) {
        asserted.push(step);
    }
    pinned(&mut h, &engine);

    if let Some(&(a, b, assertion)) = asserted.first() {
        writeln!(h, "retract {}", engine.retract(a, b)).unwrap();
        pinned(&mut h, &engine);
        outcome(&mut h, &mut engine, (a, b, assertion));
        pinned(&mut h, &engine);
    }
    h.0
}

fn corpus() -> String {
    let mut out = String::new();
    for (case, mut rng) in case_rngs(2000).enumerate() {
        writeln!(out, "closure {case} {:016x}", closure_case(&mut rng)).unwrap();
    }
    let mut seeds = SplitMix64::new(prop::DEFAULT_BASE_SEED ^ 0xF0_2E57);
    for case in 0..64 {
        let mut rng = Xoshiro256pp::seed_from_u64(seeds.next_u64());
        writeln!(out, "forest {case} {:016x}", forest_case(&mut rng)).unwrap();
    }
    out
}

#[test]
fn provenance_matches_golden() {
    let got = corpus();
    if std::env::var_os("SIT_BLESS").is_some() {
        std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden")).unwrap();
        std::fs::write(GOLDEN_PATH, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(GOLDEN_PATH).expect("golden file present");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "first difference at line {}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "line count");
}
