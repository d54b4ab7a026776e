//! Allocation guard for phase 4: integrating a schema pair, building its
//! mappings, describing them and rendering the integrated schema must
//! stay within a fixed allocation budget.
//!
//! Phase 4 works on interned ids in flat buffers and produces names only
//! when output is written, so nearly all of its allocations are the
//! integrated schema's own names and vectors and the provenance kept
//! beside them. Counts are exact and the same in every process: the
//! counter is per thread and the input is fixed.
//!
//! The university pair's integrate + mappings + describe took 548
//! allocations without pull-up and 567 with it before phase 4 ran on
//! ids, then 207 and 211 with a list per attribute slot, a hash map per
//! node's attribute names and a sort of name tuples in `describe`; on
//! flat buffers it takes 107 and 102. For the benchmark-shaped pair
//! below, integrate alone went from 376 allocations to 158, and with
//! mappings, describe and render from 405 to 164. Validating the
//! integrated schema without a materialized IS-A graph, and keeping the
//! clusters in one buffer, took these to 81 and 82 (university) and 146
//! and 152 (benchmark-shaped).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sit_core::integrate::IntegrationOptions;
use sit_core::mapping::Mappings;
use sit_core::{script, Session};
use sit_datagen::GeneratorConfig;
use sit_ecr::{ddl, render, SchemaId};

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

/// Allocations of integrate, mappings and describe on the university
/// pair.
fn allocations(pull_up: bool) -> u64 {
    let session = script::load(include_str!("../../../examples/data/university.sit")).unwrap();
    let (sa, sb) = (SchemaId::new(0), SchemaId::new(1));
    let options = IntegrationOptions {
        pull_up_common_attrs: pull_up,
        ..Default::default()
    };
    let before = ALLOCATIONS.with(Cell::get);
    let integrated = session.integrate(sa, sb, &options).unwrap();
    let dictionary = Mappings::new(session.catalog(), &integrated).describe();
    let count = ALLOCATIONS.with(Cell::get) - before;
    assert!(dictionary.contains("E_Stud_Majo"), "{dictionary}");
    count
}

#[test]
fn integrate_mappings_describe_allocation_budget() {
    for (pull_up, budget) in [(false, 81), (true, 82)] {
        let count = allocations(pull_up);
        assert!(
            count <= budget,
            "pull_up={pull_up}: {count} allocations, budget {budget}"
        );
    }
}

/// A pair shaped like the benchmark's: 6 object classes and 2
/// relationship sets per schema, registered from DDL and driven through
/// phases 2–3 from its ground truth.
fn benchmark_shaped_session() -> (Session, SchemaId, SchemaId) {
    let pair = GeneratorConfig {
        seed: 1,
        objects_per_schema: 6,
        relationships_per_schema: 2,
        ..Default::default()
    }
    .generate_pair();
    let mut s = Session::new();
    let sa = s
        .add_schema(ddl::parse(&ddl::print(&pair.a)).unwrap())
        .unwrap();
    let sb = s
        .add_schema(ddl::parse(&ddl::print(&pair.b)).unwrap())
        .unwrap();
    let (a, b) = (pair.a.name(), pair.b.name());
    for (oa, aa, ob, ab) in &pair.truth.attr_pairs {
        s.declare_equivalent_named(a, oa, aa, b, ob, ab).unwrap();
    }
    for t in &pair.truth.assertions {
        let x = s.object_named(a, &t.a).unwrap();
        let y = s.object_named(b, &t.b).unwrap();
        s.assert(x, y, t.assertion).unwrap();
    }
    (s, sa, sb)
}

#[test]
fn benchmark_shaped_integrate_allocation_budget() {
    let (session, sa, sb) = benchmark_shaped_session();
    let options = IntegrationOptions::default();
    let before = ALLOCATIONS.with(Cell::get);
    let integrated = session.integrate(sa, sb, &options).unwrap();
    let integrate = ALLOCATIONS.with(Cell::get) - before;
    let dictionary = Mappings::new(session.catalog(), &integrated).describe();
    let text = render::render(&integrated.schema);
    let total = ALLOCATIONS.with(Cell::get) - before;
    assert!(dictionary.contains(" -> "), "{dictionary}");
    assert!(text.contains("relationship sets:"), "{text}");
    for (what, count, budget) in [("integrate", integrate, 146), ("the verb", total, 152)] {
        assert!(
            count <= budget,
            "{what}: {count} allocations, budget {budget}"
        );
    }
}
