//! # setcorr-bench
//!
//! The experiment harness regenerating every table and figure of §8, plus
//! shared fixtures for the Criterion micro-benchmarks.
//!
//! The `experiments` binary (`cargo run -p setcorr-bench --release --bin
//! experiments -- <target>`) drives [`harness`]; each figure renderer
//! prints the same rows/series the paper plots, and the binary writes them
//! plus the grid's machine-readable JSON under `--out` (default
//! `results/`) and nowhere else.
//!
//! Throughput, latency and allocation measurements are not here: they are
//! the repo benchmark's (`benchmark/`, declared in `BENCHMARK.json`). The
//! Criterion targets under `benches/` cover only what no benchmark layer
//! metric does (`union_find`, `partitioning`, `ablation_merge`,
//! `approx_jaccard`, `migration`).

pub mod fixtures;
pub mod harness;
