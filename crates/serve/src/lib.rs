//! Live serving layer: epoch-stamped snapshots and concurrent queries over
//! the Tracker's per-round output (the ROADMAP serving-layer item; the
//! motivating workload is XRay-style differential correlation — many users
//! querying associations against a continuously-updating stream).
//!
//! Design: an immutable [`Snapshot`] per closed report round, published by
//! the single writer ([`Publisher`], driven by the Tracker on round close)
//! with one pointer swap, and acquired by any number of concurrent readers
//! through cloneable [`QueryHandle`]s. Readers never block the writer for
//! more than one pending `Arc` clone, and a snapshot, once acquired, answers
//! queries lock-free forever: reads must never stall ingest.
//!
//! Each snapshot carries the round id, a strictly monotone publication
//! sequence (the staleness clock), and three indexes built at publish time:
//! the global top-k by Jaccard, a per-tag inverted neighborhood index and a
//! hash table for exact lookups.

#![warn(missing_docs)]

mod snapshot;
mod store;

pub use snapshot::Snapshot;
pub use store::{store, DegradeFlag, Publisher, QueryHandle};
