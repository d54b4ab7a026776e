//! Allocation guard for replies written straight into their frame.
//!
//! A paper-scale session (a `sit-datagen` pair of 6 object classes and
//! 2 relationship sets per schema, as the benchmark sends) is built
//! through an in-memory [`Service::handle_line`]; then the allocations
//! of one `assert`, `candidates` and `matrix` request are counted end to
//! end: frame decode, dispatch, the engine's work and the reply. Counts
//! are exact and the same in every process: the counter is per thread
//! and the input is fixed.
//!
//! While replies were built as a `Json` tree and encoded after, every
//! key, name and matrix cell was a `String` of its own: the first
//! `assert` below made 137 allocations, `candidates` 66 and `matrix` 95,
//! and the request cost around the engine grew by about ten per derived
//! fact (126, 106 and 86 for 10, 8 and 6 facts). Written into the
//! frame, they make 30, 29 and 27, and 19 around the engine for every
//! `assert` of the pair.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sit_datagen::{GeneratedPair, GeneratorConfig};
use sit_server::proto::Request;
use sit_server::service::Service;
use sit_server::store::StoreConfig;

thread_local! {
    // Const-initialized and without a destructor: reading it never
    // allocates, so the allocator may use it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`] plus a per-thread count of `alloc`, `alloc_zeroed` and
/// `realloc` calls.
struct Counting;

// SAFETY: every method forwards to `System` unchanged; the bookkeeping
// only touches a thread-local counter, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The reply to `request` and the allocations `handle_line` made for it.
fn counted(service: &Service, request: Request) -> (String, u64) {
    let frame = request.to_json().encode();
    let before = ALLOCATIONS.with(Cell::get);
    let reply = service.handle_line(&frame).frame;
    let count = ALLOCATIONS.with(Cell::get) - before;
    assert!(reply.starts_with(r#"{"ok":true,"#), "{reply}");
    (reply, count)
}

fn paper_pair() -> GeneratedPair {
    GeneratorConfig {
        seed: 1,
        objects_per_schema: 6,
        relationships_per_schema: 2,
        ..Default::default()
    }
    .generate_pair()
}

/// A service with session `1` holding `pair`'s schemas and its true
/// attribute equivalences.
fn session_of(pair: &GeneratedPair) -> Service {
    let service = Service::new(StoreConfig::default());
    assert!(service
        .handle_line(r#"{"op":"open"}"#)
        .frame
        .ends_with(r#""session":"1"}"#));
    let (a, b) = (pair.a.name(), pair.b.name());
    let mut requests: Vec<Request> = [&pair.a, &pair.b]
        .into_iter()
        .map(|schema| Request::AddSchema {
            session: "1".into(),
            ddl: sit_ecr::ddl::print(schema),
        })
        .collect();
    requests.extend(
        pair.truth
            .attr_pairs
            .iter()
            .map(|(oa, aa, ob, ab)| Request::Equiv {
                session: "1".into(),
                a: format!("{a}.{oa}.{aa}"),
                b: format!("{b}.{ob}.{ab}"),
            }),
    );
    for request in requests {
        counted(&service, request);
    }
    service
}

#[test]
fn paper_scale_replies_allocate_nothing_per_name() {
    let pair = paper_pair();
    // Two services in the same state: one answers each `assert` over
    // the wire, the other applies it to its session directly, so the
    // difference of their counts is what the request costs around the
    // engine.
    let (service, direct) = (session_of(&pair), session_of(&pair));
    let (a, b) = (pair.a.name().to_owned(), pair.b.name().to_owned());
    let mut asserts = Vec::new();
    for t in &pair.truth.assertions {
        let engine = {
            let shared = direct.store().get("1").expect("session 1 is open");
            let mut session = shared.lock().unwrap();
            let ga = session.object_named(&a, &t.a).unwrap();
            let gb = session.object_named(&b, &t.b).unwrap();
            let before = ALLOCATIONS.with(Cell::get);
            session.assert_objects(ga, gb, t.assertion).unwrap();
            ALLOCATIONS.with(Cell::get) - before
        };
        let (reply, count) = counted(
            &service,
            Request::Assert {
                session: "1".into(),
                a: format!("{a}.{}", t.a),
                b: format!("{b}.{}", t.b),
                assertion: t.assertion,
            },
        );
        let derived = reply.matches(r#""rel":"#).count();
        asserts.push((derived, count, count - engine));
    }
    let derived: Vec<usize> = asserts.iter().map(|&(d, _, _)| d).collect();
    assert_eq!(derived, [10, 8, 6], "the pair's asserts, as pinned below");
    // The request around the engine costs the same whatever the engine
    // derived: names are written into the frame, not allocated.
    let around = asserts[0].2;
    assert!(
        asserts.iter().all(|&(_, _, n)| n == around),
        "allocations around the engine differ between asserts (derived, total, around): {asserts:?}"
    );
    const AROUND: u64 = 19;
    assert!(
        around <= AROUND,
        "{around} allocations around the engine for an assert, budget {AROUND}: {asserts:?}"
    );
    const ASSERT: u64 = 30;
    assert!(
        asserts[0].1 <= ASSERT,
        "{} allocations for an assert deriving 10 facts, budget {ASSERT}",
        asserts[0].1
    );

    let (_, candidates) = counted(
        &service,
        Request::Candidates {
            session: "1".into(),
            a: a.clone(),
            b: b.clone(),
        },
    );
    const CANDIDATES: u64 = 29;
    assert!(
        candidates <= CANDIDATES,
        "{candidates} allocations for candidates, budget {CANDIDATES}"
    );
    let (_, matrix) = counted(
        &service,
        Request::Matrix {
            session: "1".into(),
            a,
            b,
        },
    );
    const MATRIX: u64 = 27;
    assert!(
        matrix <= MATRIX,
        "{matrix} allocations for matrix, budget {MATRIX}"
    );
}
