//! The repository benchmark for `sit-server` and the engine beneath it.
//!
//! A run drives the program only through public functions, one closed-
//! loop client waiting on every reply as a designer waits on each
//! screen. Work is fixed per workload and `--seconds`: whole passes over
//! a seeded set of sessions, inputs generated before timing, a warm-up
//! pass first, split over [`gen::PROCESSES`] processes (see [`drive`]).
//! `--trace 1` sends the same stream once more and reads each layer's
//! time from the program's own spans (see [`layers`]). `README.md`
//! beside this crate maps every metric to its layer.

pub mod alloc;
pub mod cpu;
pub mod drive;
pub mod gen;
pub mod layers;
pub mod stats;

/// Counts every allocation in this process; read by [`alloc::count`].
#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;
