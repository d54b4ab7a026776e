//! Allocation guard for `add_schema` of a text the service has seen:
//! the service-wide schema table hands the session the parsed schemas
//! it already holds, so the request lexes, parses and validates nothing.
//!
//! The schema is paper-scale (a `sit-datagen` schema of 6 object classes
//! and 2 relationship sets, as the benchmark sends), registered by one
//! session and then by a second, whose request is counted end to end
//! through an in-memory [`Service::handle_line`]: frame decode,
//! dispatch, registration, reply. Counts are exact and the same in
//! every process: the counter is per thread and the input is fixed.
//!
//! The repeated request made 82 allocations while structural seeding
//! first copied and sorted its input to check its shape; it makes 80
//! now that the one-pass seeder trusts the shape validation guarantees.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sit_datagen::GeneratorConfig;
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

/// Open a session and `add_schema` `ddl` to it; the allocations of the
/// `add_schema` request.
fn add_to_a_new_session(service: &Service, ddl: &str) -> u64 {
    let opened = service.handle_line(r#"{"op":"open"}"#).frame;
    let session = opened
        .strip_prefix(r#"{"ok":true,"session":""#)
        .and_then(|rest| rest.strip_suffix(r#""}"#))
        .expect("open answers a session id")
        .to_owned();
    let frame = Request::AddSchema {
        session,
        ddl: ddl.to_owned(),
    }
    .to_json()
    .encode();
    let before = ALLOCATIONS.with(Cell::get);
    let reply = service.handle_line(&frame).frame;
    let count = ALLOCATIONS.with(Cell::get) - before;
    assert!(reply.starts_with(r#"{"ok":true,"schemas":["#), "{reply}");
    count
}

#[test]
fn a_repeated_paper_scale_add_schema_parses_nothing() {
    let pair = GeneratorConfig {
        seed: 1,
        objects_per_schema: 6,
        relationships_per_schema: 2,
        ..Default::default()
    }
    .generate_pair();
    let ddl = sit_ecr::ddl::print(&pair.a);
    let service = Service::new(StoreConfig::default());
    let first = add_to_a_new_session(&service, &ddl);
    let repeated = add_to_a_new_session(&service, &ddl);
    assert_eq!(service.schemas().hits(), 1);
    // When every request parsed its text, the repeated request made
    // 132 allocations, as many as the first; the table's hit lexes,
    // parses and validates nothing.
    const BUDGET: u64 = 80;
    assert!(
        repeated <= BUDGET,
        "{repeated} allocations for a repeated add_schema (the first took {first}), budget {BUDGET}"
    );
}
