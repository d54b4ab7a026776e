//! The `figures` binary's whole output — Figures 2a–2e and 5, Screens 1
//! and 7–12 — pinned byte for byte. Phase 4 output is otherwise checked
//! only by substring tests, so any change to integration, naming,
//! rendering or the screens shows up here as a line diff.
//!
//! If a change to that output is intended, regenerate the golden file
//! with `cargo run -p sit-bench --bin figures > crates/bench/tests/golden/figures.txt`
//! and review the diff.

use std::process::Command;

const GOLDEN: &str = include_str!("golden/figures.txt");

#[test]
fn figures_output_matches_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .output()
        .expect("figures binary runs");
    assert!(out.status.success(), "figures exited with {}", out.status);
    let got = String::from_utf8(out.stdout).expect("figures prints UTF-8");
    for (i, (g, want)) in got.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(g, want, "first difference at line {}", i + 1);
    }
    assert_eq!(got.lines().count(), GOLDEN.lines().count(), "line count");
    assert_eq!(got, GOLDEN);
}
