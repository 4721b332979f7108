//! # setcorr-bench
//!
//! The experiment harness regenerating every table and figure of §8.
//!
//! The `experiments` binary (`cargo run -p setcorr-bench --release --bin
//! experiments -- <target>`) drives [`harness`]; each figure renderer
//! prints the same rows/series the paper plots, and the binary writes them
//! plus the grid's machine-readable JSON under `--out` (default
//! `results/`) and nowhere else.
//!
//! Throughput, latency and allocation measurements are not here: they are
//! the repo benchmark's (`benchmark/`, declared in `BENCHMARK.json`).

pub mod harness;
