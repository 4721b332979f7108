//! # setcorr-model
//!
//! Shared data model for the `setcorr` workspace — the Rust reproduction of
//! *Alvanaki & Michel, "Tracking Set Correlations at Large Scale"* (SIGMOD
//! 2014).
//!
//! This crate defines the vocabulary every other crate speaks:
//!
//! * [`Tag`] / [`TagInterner`] — dense interned hashtag ids,
//! * [`TagSet`] — the sorted co-occurrence set annotating one document,
//! * [`Document`] — one stream element `(id, timestamp, s_i)`,
//! * [`Timestamp`] / [`TimeDelta`] — event time,
//! * [`TagSetWindow`] — the Partitioner's sliding window, a FIFO of live
//!   documents aggregated into distinct tagsets on demand,
//! * [`FxHashMap`] / [`FxHashSet`] — deterministic fast hashing used across
//!   all hot paths.

#![warn(missing_docs)]

pub mod doc;
pub mod fx;
pub mod tag;
pub mod tagset;
pub mod time;
pub mod window;

pub use doc::Document;
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use tag::{Tag, TagInterner};
pub use tagset::{TagSet, INLINE_TAGS, MAX_TAGS_PER_SET};
pub use time::{TimeDelta, Timestamp};
pub use window::{TagSetStat, TagSetWindow, WindowKind};
