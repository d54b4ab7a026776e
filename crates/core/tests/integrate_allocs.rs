//! Allocation guard for phase 4: integrating the university pair,
//! building its mappings and describing them must stay within a fixed
//! allocation budget.
//!
//! Phase 4 works on interned ids and produces names only when output is
//! written, so most of its allocations are the integrated schema's own
//! names and vectors. Counts are exact and the same in every process:
//! the counter is per thread and the input is fixed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sit_core::integrate::IntegrationOptions;
use sit_core::mapping::Mappings;
use sit_core::script;
use sit_ecr::SchemaId;

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
    // Before phase 4 ran on ids: 548 without pull-up, 567 with it.
    for (pull_up, budget) in [(false, 274), (true, 283)] {
        let count = allocations(pull_up);
        assert!(
            count <= budget,
            "pull_up={pull_up}: {count} allocations, budget {budget}"
        );
    }
}
