//! # setcorr
//!
//! A Rust reproduction of **Alvanaki & Michel, "Tracking Set Correlations at
//! Large Scale" (SIGMOD 2014)**: continuous, distributed computation of
//! Jaccard coefficients between all co-occurring tags of a social-media
//! stream, by partitioning the tag universe over `k` Calculator nodes.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`model`] — tags, tagsets, documents, event time, sliding windows,
//! * [`core`] — the partitioning algorithms (DS / SCC / SCL / SCI) and the
//!   operator state machines (Calculator, Disseminator, Merger, Tracker),
//! * [`approx`] — the approximate correlation backend (MinHash signatures +
//!   Count-Min heavy-pair detection), pluggable behind
//!   [`core::CorrelationBackend`],
//! * [`engine`] — the Storm-like stream-processing substrate,
//! * [`topology`] — the full Figure 2 application and experiment driver,
//! * [`serve`] — the live serving layer: epoch-stamped snapshots published
//!   per report round, queried concurrently through [`serve::QueryHandle`],
//! * [`workload`] — the synthetic Twitter-like stream generator,
//! * [`theory`] — the §5 analytic models,
//! * [`metrics`] — Gini / dispersion / accuracy measurement.
//!
//! ## Quickstart
//!
//! ```
//! use setcorr::prelude::*;
//!
//! // A small synthetic stream...
//! let docs: Vec<Document> = Generator::new(WorkloadConfig::with_seed(7))
//!     .take(20_000)
//!     .collect();
//!
//! // ...run through the distributed topology with the DS algorithm:
//! let config = ExperimentConfig::for_algorithm(AlgorithmKind::Ds);
//! let report = run_docs(&config, docs, RunMode::Sim);
//!
//! assert!(report.avg_communication >= 1.0);
//! assert_eq!(report.k, 10);
//! ```

pub use setcorr_approx as approx;
pub use setcorr_core as core;
pub use setcorr_engine as engine;
pub use setcorr_metrics as metrics;
pub use setcorr_model as model;
pub use setcorr_serve as serve;
pub use setcorr_sketch as sketch;
pub use setcorr_theory as theory;
pub use setcorr_topology as topology;
pub use setcorr_workload as workload;

/// The names most programs need.
pub mod prelude {
    pub use setcorr_approx::{
        ApproxCalculator, ApproxParams, EmergingPair, HeavyPair, HeavyPairs, MinHashSignature,
        SignatureStore,
    };
    pub use setcorr_core::{
        best_partition_for_addition, partition, AlgorithmKind, Calculator, CoefficientReport,
        CorrelationBackend, Disseminator, DisseminatorConfig, Merger, PartitionInput, PartitionSet,
        QualityReference, RepartitionCause, TrackedCoefficient, Tracker,
    };
    pub use setcorr_engine::RunError;
    pub use setcorr_metrics::{gini, ErrorStats, Running};
    pub use setcorr_model::{
        Document, Tag, TagInterner, TagSet, TagSetStat, TagSetWindow, TimeDelta, Timestamp,
        WindowKind,
    };
    pub use setcorr_serve::{DegradeFlag, QueryHandle, Snapshot};
    pub use setcorr_theory::{expected_communication, WindowScenario};
    pub use setcorr_topology::{
        bootstrap_partitions, connectivity, run, run_docs, spawn_served, BackendKind,
        ConnectivitySummary, ExactRun, ExperimentConfig, Fault, LiveRun, PinnedPartitions, RunMode,
        RunReport, Supervision,
    };
    pub use setcorr_workload::{Generator, WorkloadConfig};
}
