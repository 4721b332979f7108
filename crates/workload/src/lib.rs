//! # setcorr-workload
//!
//! Synthetic Twitter-like workload for the `setcorr` experiments.
//!
//! The paper evaluates on 6 hours of live Twitter data (Sep 5, 2013), which
//! we cannot redistribute; [`Generator`] instead produces a stream from the
//! *generative model the paper itself measures in §5.1*: Zipf(s = 0.25)
//! tags-per-tweet, topic-specific vocabularies with Zipfian popularity,
//! cross-topic mixing with probability 1 − α, and continuous topic birth
//! (content drift).
//!
//! [`dataset`] provides an on-disk format to replay streams from,
//! mirroring the paper's file-replay mode "for repeatability of
//! experiments" (§6.2).

#![warn(missing_docs)]

pub mod config;
pub mod dataset;
pub mod generator;
pub mod zipf;

pub use config::WorkloadConfig;
pub use dataset::{write_dataset, DatasetReader};
pub use generator::Generator;
pub use zipf::ZipfSampler;
