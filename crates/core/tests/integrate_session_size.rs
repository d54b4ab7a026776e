//! Phase 4's cost follows the pair, not the session: integrating one
//! schema pair allocates the same bytes, and renders the same schema,
//! whether or not hundreds of unrelated schemas were registered first.
//!
//! Every registered attribute has an equivalence class number, so a
//! temporary indexed by class number grows with the whole session. An
//! n-ary fold adds each intermediate result back to its session and
//! integrates again, so such a temporary would be paid at every step.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sit_core::integrate::IntegrationOptions;
use sit_core::mapping::Mappings;
use sit_core::Session;
use sit_datagen::GeneratorConfig;
use sit_ecr::{render, Schema};

thread_local! {
    // Const-initialized and without a destructor: reading it never
    // allocates, so the allocator may use it.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// [`System`] plus a per-thread sum of the bytes `alloc`, `alloc_zeroed`
/// and `realloc` ask for.
struct Counting;

// SAFETY: every method forwards to `System` unchanged; the bookkeeping
// only touches a thread-local counter, which does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.with(|n| n.set(n.get() + layout.size() as u64));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        BYTES.with(|n| n.set(n.get() + layout.size() as u64));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.with(|n| n.set(n.get() + new_size as u64));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Schemas with no correspondence to the pair, each under its own name.
fn unrelated(count: u64) -> Vec<Schema> {
    (0..count)
        .map(|k| {
            let pair = GeneratorConfig {
                seed: 1_000 + k,
                objects_per_schema: 6,
                relationships_per_schema: 2,
                ..Default::default()
            }
            .generate_pair();
            let (_, objects, rels) = pair.a.into_parts();
            Schema::from_parts(format!("unrelated_{k}"), objects, rels).unwrap()
        })
        .collect()
}

/// A session holding `fillers` and then one paper-scale pair driven
/// from its ground truth; the pair's integrated schema rendered with its
/// mapping dictionary, and the bytes `integrate` allocated.
fn integrate_after(fillers: Vec<Schema>) -> (String, u64) {
    let pair = GeneratorConfig {
        seed: 7,
        objects_per_schema: 6,
        relationships_per_schema: 2,
        ..Default::default()
    }
    .generate_pair();
    let mut s = Session::new();
    for schema in fillers {
        s.add_schema(schema).unwrap();
    }
    let (a, b) = (pair.a.name().to_owned(), pair.b.name().to_owned());
    let sa = s.add_schema(pair.a).unwrap();
    let sb = s.add_schema(pair.b).unwrap();
    for (oa, aa, ob, ab) in &pair.truth.attr_pairs {
        s.declare_equivalent_named(&a, oa, aa, &b, ob, ab).unwrap();
    }
    for t in &pair.truth.assertions {
        let x = s.object_named(&a, &t.a).unwrap();
        let y = s.object_named(&b, &t.b).unwrap();
        s.assert(x, y, t.assertion).unwrap();
    }
    let options = IntegrationOptions::default();
    let before = BYTES.with(Cell::get);
    let integrated = s.integrate(sa, sb, &options).unwrap();
    let bytes = BYTES.with(Cell::get) - before;
    let mut text = render::render(&integrated.schema);
    text.push_str(&Mappings::new(s.catalog(), &integrated).describe());
    (text, bytes)
}

#[test]
fn integrate_allocates_the_same_bytes_in_a_larger_session() {
    let (alone, alone_bytes) = integrate_after(Vec::new());
    let (crowded, crowded_bytes) = integrate_after(unrelated(300));
    assert_eq!(alone, crowded, "the same pair integrates the same way");
    assert!(alone.contains("-> "), "{alone}");
    assert_eq!(
        alone_bytes, crowded_bytes,
        "integrate allocated {alone_bytes} bytes alone and {crowded_bytes} after 300 \
         unrelated schemas"
    );
}
