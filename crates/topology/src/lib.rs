//! # setcorr-topology
//!
//! The complete distributed application of the paper (Figure 2), wiring the
//! `setcorr-core` operator state machines onto the Storm-like
//! `setcorr-engine`:
//!
//! ```text
//! source → parser → { disseminator, partitioner×P }
//! partitioner → merger → disseminator → calculator×k → tracker
//! ```
//!
//! with feedback control edges for repartition requests (§7.2) and Single
//! Additions (§7.1), and an experiment [`driver`] producing one
//! [`RunReport`] per configuration of the §8.1 parameter grid. The
//! centralized exact computation the accuracy comparison scores a run
//! against (§8.2.3) is no part of the topology: [`ExactRun`] computes it
//! from the same stream, cutting the same rounds as the Parser.

#![warn(missing_docs)]

pub mod connectivity;
pub mod driver;
pub mod messages;
pub mod operators;
pub mod oracle;
pub mod recorder;
pub mod report;

pub use connectivity::{connectivity, ConnectivitySummary};
pub use driver::{
    batch_policy, bootstrap_partitions, build_topology, run, run_docs, spawn_served, BackendKind,
    ExperimentConfig, Fault, LiveRun, PinnedPartitions, RunMode, Supervision, THREADED_BATCH,
};
pub use messages::Msg;
pub use oracle::ExactRun;
pub use recorder::{RunRecorder, SharedRecorder};
pub use report::{RunReport, BASELINE_MIN_SIGHTINGS, WARMUP_ROUNDS};
pub use setcorr_serve::{QueryHandle, Snapshot};
