//! # snapify-bench — the one record every bench ends in
//!
//! Each bench under `benches/` (custom harnesses — run with `cargo
//! bench`) ends in [`report::Report::finish`], the only code that holds
//! a fresh run against its `BENCH_*.json` and the only thing a bench
//! prints: its rows as one markdown table. `paper` regenerates the
//! paper's evaluation; the others measure what this reproduction adds.

#![warn(missing_docs, unreachable_pub)]

pub mod report;

/// Whether this run was asked for the fast smoke sizes CI uses:
/// `--quick` on the command line.
pub fn quick() -> bool {
    std::env::args().any(|a| a == "--quick")
}
