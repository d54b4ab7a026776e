//! Allocation guard for `assert`: closing the middle link of a
//! containment chain pins thousands of pairs in one call, and the call
//! must allocate far less than once per pinned pair.
//!
//! An accepted `assert` returns the pairs it pinned and records their
//! support in the log; it walks no provenance. Reading it is
//! `AssertionEngine::support`'s job. Counts are exact and the same in
//! every process: the counter is per thread and the input is fixed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sit_core::assertion::{Assertion, Rel5};
use sit_core::closure::AssertionEngine;

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

#[test]
fn closing_a_chain_allocates_far_less_than_once_per_pinned_pair() {
    const N: u32 = 100;
    let name = |n: u32| format!("n{n}");
    let mut engine = AssertionEngine::<u32>::new();
    // Two chains 0 ⊆ … ⊆ 49 and 50 ⊆ … ⊆ 99, each closed already.
    let middle = N / 2 - 1;
    for i in (0..N - 1).filter(|&i| i != middle) {
        engine
            .assert(i, i + 1, Assertion::ContainedIn, name)
            .unwrap();
    }
    // Joining them pins every node of the first chain `PP` every node of
    // the second.
    let before = ALLOCATIONS.with(Cell::get);
    let derived = engine
        .assert(middle, middle + 1, Assertion::ContainedIn, name)
        .unwrap();
    let count = ALLOCATIONS.with(Cell::get) - before;
    let pinned = derived.len() as u64 + 1;
    assert_eq!(pinned, u64::from(N / 2 * N / 2));
    assert!(derived.iter().all(|d| d.rel == Rel5::Pp));
    // Growing the worklist, the pinned list and the log takes 35
    // allocations; walking each pinned pair's provenance took 14,953.
    let budget = pinned / 25;
    assert!(
        count <= budget,
        "{count} allocations for {pinned} pinned pairs, budget {budget}"
    );
}
