//! Allocation guard for schema validation, which runs on every
//! `SchemaBuilder::build`: validating a valid schema must take a fixed
//! number of allocations, however deep its IS-A graph and however many
//! attributes its categories declare.
//!
//! Because a category's parents precede it, validation needs no graph of
//! its own: it walks each category's ancestors through the parent lists
//! the objects hold, with visit marks and a walk buffer allocated once.
//! Materializing the IS-A graph and running a breadth-first ancestor
//! search per category attribute took 19,687 allocations on the schema
//! below; the walk takes 2. Counts are exact and the same in every
//! process: the counter is per thread and the input is fixed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sit_ecr::{validate, Domain, ObjectId, Schema, SchemaBuilder, Violation};

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

/// Add a category over `parents` with 4 attributes of its own.
fn category(b: &mut SchemaBuilder, name: String, parents: Vec<ObjectId>) -> ObjectId {
    let mut ob = b.category(name.clone(), parents);
    for k in 0..4 {
        ob = ob.attr(format!("{name}_{k}"), Domain::Int);
    }
    ob.finish()
}

/// A 500-deep single-parent chain under one entity set, and five
/// diamonds: categories over two links of the chain, which share every
/// ancestor above the upper link.
fn deep_schema() -> Schema {
    let mut b = SchemaBuilder::new("deep");
    let mut chain = vec![b.entity_set("E").attr_key("id", Domain::Int).finish()];
    for i in 1..=500 {
        let parent = chain[i - 1];
        chain.push(category(&mut b, format!("C{i}"), vec![parent]));
    }
    for k in 0..5 {
        let parents = vec![chain[100 * k + 10], chain[100 * k + 60]];
        category(&mut b, format!("D{k}"), parents);
    }
    b.build().unwrap()
}

#[test]
fn validation_allocates_a_fixed_amount() {
    let schema = deep_schema();
    let before = ALLOCATIONS.with(Cell::get);
    let violations = validate(&schema);
    let count = ALLOCATIONS.with(Cell::get) - before;
    assert!(violations.is_empty(), "{violations:?}");
    assert!(count <= 2, "{count} allocations, budget 2");
}

#[test]
fn an_attribute_shadowed_by_two_ancestors_is_reported_twice() {
    // `when` is a date in P and in its category Q; C, under Q, makes it
    // a bool, against both.
    let mut b = SchemaBuilder::new("sh");
    let p = b.entity_set("P").attr("when", Domain::Date).finish();
    let q = b.category("Q", vec![p]).attr("when", Domain::Date).finish();
    b.category("C", vec![q]).attr("when", Domain::Bool).finish();
    let shadow = Violation::SuspiciousShadow {
        object: "C".to_owned(),
        attr: "when".to_owned(),
    };
    assert_eq!(
        b.build(),
        Err(sit_ecr::EcrError::Invalid(vec![shadow.clone(), shadow]))
    );
}
