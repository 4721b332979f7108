//! The snapshot store: a publishing writer half and a cloneable,
//! `Send + Sync` query half.
//!
//! Publish/acquire protocol:
//!
//! 1. the writer builds the next [`Snapshot`] entirely off to the side
//!    (sorting, index construction — no lock held),
//! 2. publication is one `Arc` pointer store under a write lock,
//! 3. readers clone the current `Arc` under a shared read lock and then
//!    query the immutable snapshot lock-free for as long as they like.
//!
//! Writes happen once per report round (seconds apart) and hold the lock
//! for a single pointer store, so readers never block the writer for longer
//! than one pending `Arc` clone — reads must never stall ingest.
//!
//! The writer keeps the snapshot it swapped out. At the next publication,
//! when no reader still holds it, the new snapshot is built in its index
//! vectors; else in fresh ones, and the last reader frees the old.

use crate::snapshot::{Buffers, Snapshot};
use parking_lot::{Mutex, RwLock};
use setcorr_core::TrackedCoefficient;
use setcorr_model::{Tag, TagSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Shared state behind both halves.
struct Store {
    current: RwLock<Arc<Snapshot>>,
    /// Latest published sequence number, readable without the lock — the
    /// staleness fast path.
    latest_seq: AtomicU64,
    /// Latest published round (`u64::MAX` = none yet), same fast path.
    latest_round: AtomicU64,
    /// Snapshots published.
    published: AtomicU64,
    /// Reader `snapshot()` acquisitions.
    acquisitions: AtomicU64,
    /// Cumulative snapshot build + swap time, nanoseconds.
    build_nanos: AtomicU64,
    /// Count of pipeline tasks the supervised runtime degraded while
    /// feeding this store. Non-zero = published snapshots are
    /// partial-but-honest (some evidence was lost with a dead task).
    degraded: AtomicU64,
}

const NO_ROUND: u64 = u64::MAX;

/// Create a connected publisher/query pair over one fresh store.
///
/// The [`Publisher`] goes to the Tracker (one writer); [`QueryHandle`]s are
/// cloned freely to any number of reader threads.
pub fn store() -> (Publisher, QueryHandle) {
    let store = Arc::new(Store {
        current: RwLock::new(Arc::new(Snapshot::empty())),
        latest_seq: AtomicU64::new(0),
        latest_round: AtomicU64::new(NO_ROUND),
        published: AtomicU64::new(0),
        acquisitions: AtomicU64::new(0),
        build_nanos: AtomicU64::new(0),
        degraded: AtomicU64::new(0),
    });
    let publisher = Publisher {
        store: store.clone(),
        spare: Mutex::default(),
    };
    (publisher, QueryHandle(store))
}

/// The writer half: publishes one immutable snapshot per closed round.
pub struct Publisher {
    store: Arc<Store>,
    /// What the next build reuses: behind a lock only because `publish`
    /// takes `&self`; one writer never contends for it.
    spare: Mutex<Spare>,
}

/// The snapshot the last publication swapped out, and the build buffers.
#[derive(Default)]
struct Spare {
    kept: Option<Arc<Snapshot>>,
    buffers: Buffers,
}

impl Publisher {
    /// Build and publish the snapshot of `round` over its deduplicated
    /// coefficients (sorted by tagset, shared storage — not copied).
    ///
    /// Returns the published snapshot. Index construction happens before
    /// the lock is taken, in the index vectors of the snapshot the last
    /// publication swapped out when no reader still holds it; the swap is
    /// one pointer store. The snapshot swapped out now is kept for the next
    /// publication, so nothing is freed between the swap and the
    /// sequence-number store that announces it.
    pub fn publish(&self, round: u64, coefficients: Arc<Vec<TrackedCoefficient>>) -> Arc<Snapshot> {
        let start = Instant::now();
        let store = &self.store;
        let seq = store.latest_seq.load(Ordering::Relaxed) + 1;
        let mut spare = self.spare.lock();
        let Spare { kept, buffers } = &mut *spare;
        if let Some(old) = kept.take().and_then(|kept| Arc::try_unwrap(kept).ok()) {
            old.recycle(buffers);
        }
        let next = Arc::new(Snapshot::build_in(buffers, round, seq, coefficients));
        *kept = Some(std::mem::replace(&mut *store.current.write(), next.clone()));
        // Ordering: the fast-path counters trail the swap, so a reader that
        // observes the new seq is guaranteed to acquire (at least) the new
        // snapshot; a reader racing ahead sees a fresher snapshot than the
        // counter promised, which staleness semantics allow.
        store.latest_seq.store(seq, Ordering::Release);
        store.latest_round.store(round, Ordering::Release);
        store.published.fetch_add(1, Ordering::Relaxed);
        store
            .build_nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        next
    }

    /// A query handle onto the same store.
    pub fn subscribe(&self) -> QueryHandle {
        QueryHandle(self.store.clone())
    }

    /// A degradation beacon onto the same store, for the supervised
    /// runtime's on-degrade hook: each [`DegradeFlag::set`] marks every
    /// snapshot published from here on as built from a pipeline that lost
    /// a task. Cheap, clone-freely, callable from any thread.
    pub fn degrade_flag(&self) -> DegradeFlag {
        DegradeFlag(self.store.clone())
    }
}

/// Marks the store's feed as degraded (see [`Publisher::degrade_flag`]).
#[derive(Clone)]
pub struct DegradeFlag(Arc<Store>);

impl DegradeFlag {
    /// Record one degraded pipeline task.
    pub fn set(&self) {
        self.0.degraded.fetch_add(1, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for DegradeFlag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DegradeFlag")
            .field("degraded", &self.0.degraded.load(Ordering::Relaxed))
            .finish()
    }
}

/// The reader half: `Clone + Send + Sync`, hand it to as many concurrent
/// readers as the workload has users.
#[derive(Clone)]
pub struct QueryHandle(Arc<Store>);

impl QueryHandle {
    /// Acquire the current snapshot: one read-locked `Arc` clone, then the
    /// returned snapshot answers queries lock-free and never changes.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.0.acquisitions.fetch_add(1, Ordering::Relaxed);
        self.0.current.read().clone()
    }

    /// Latest published report round, without acquiring a snapshot
    /// (`None` before the first publication).
    pub fn round(&self) -> Option<u64> {
        match self.0.latest_round.load(Ordering::Acquire) {
            NO_ROUND => None,
            round => Some(round),
        }
    }

    /// Latest published sequence number (0 before the first publication).
    pub fn latest_seq(&self) -> u64 {
        self.0.latest_seq.load(Ordering::Acquire)
    }

    /// How many publications behind the store `snapshot` is — 0 means it
    /// is (or was, an instant ago) the freshest view.
    pub fn staleness(&self, snapshot: &Snapshot) -> u64 {
        self.latest_seq().saturating_sub(snapshot.seq())
    }

    /// Convenience: the `k` most correlated tagsets of the current
    /// snapshot, cloned out. Acquire [`QueryHandle::snapshot`] instead when
    /// issuing several queries against one consistent view.
    pub fn top_k(&self, k: usize) -> Vec<TrackedCoefficient> {
        self.snapshot().top_k(k).cloned().collect()
    }

    /// Convenience: the `k` most correlated tagsets containing `tag` in
    /// the current snapshot, cloned out.
    pub fn neighbors(&self, tag: Tag, k: usize) -> Vec<TrackedCoefficient> {
        self.snapshot().neighbors(tag, k).cloned().collect()
    }

    /// Convenience: the current snapshot's coefficient for exactly `tags`.
    pub fn coefficient(&self, tags: &TagSet) -> Option<TrackedCoefficient> {
        self.snapshot().coefficient(tags).cloned()
    }

    /// Snapshots published so far.
    pub fn snapshots_published(&self) -> u64 {
        self.0.published.load(Ordering::Relaxed)
    }

    /// Reader snapshot acquisitions so far (including this handle's own).
    pub fn reader_acquisitions(&self) -> u64 {
        self.0.acquisitions.load(Ordering::Relaxed)
    }

    /// Cumulative seconds spent building and swapping snapshots.
    pub fn build_seconds(&self) -> f64 {
        self.0.build_nanos.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// True when the pipeline feeding this store degraded at least one
    /// task: current and future snapshots are partial-but-honest. Readers
    /// that must not act on partial correlations check this before trusting
    /// a snapshot.
    pub fn ingest_degraded(&self) -> bool {
        self.degraded_tasks() > 0
    }

    /// Number of degraded-task reports the feed has made.
    pub fn degraded_tasks(&self) -> u64 {
        self.0.degraded.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for QueryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryHandle")
            .field("latest_seq", &self.latest_seq())
            .field("round", &self.round())
            .field("snapshots_published", &self.snapshots_published())
            .finish()
    }
}

impl std::fmt::Debug for Publisher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Publisher")
            .field("latest_seq", &self.store.latest_seq.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coeff(ids: &[u32], jaccard: f64) -> TrackedCoefficient {
        TrackedCoefficient {
            tags: TagSet::from_ids(ids),
            jaccard,
            counter: 1,
            reporters: 1,
        }
    }

    #[test]
    fn fresh_store_serves_the_empty_snapshot() {
        let (_publisher, handle) = store();
        assert_eq!(handle.round(), None);
        assert_eq!(handle.latest_seq(), 0);
        let snap = handle.snapshot();
        assert!(snap.is_empty());
        assert_eq!(handle.staleness(&snap), 0);
        assert_eq!(handle.reader_acquisitions(), 1);
        assert_eq!(handle.snapshots_published(), 0);
    }

    #[test]
    fn publish_swaps_and_stamps() {
        let (publisher, handle) = store();
        publisher.publish(0, Arc::new(vec![coeff(&[1, 2], 0.5)]));
        publisher.publish(1, Arc::new(vec![coeff(&[1, 2], 0.75), coeff(&[2, 3], 0.2)]));
        assert_eq!(handle.round(), Some(1));
        assert_eq!(handle.latest_seq(), 2);
        assert_eq!(handle.snapshots_published(), 2);
        let snap = handle.snapshot();
        assert_eq!(snap.round(), Some(1));
        assert_eq!(snap.len(), 2);
        assert_eq!(
            handle
                .coefficient(&TagSet::from_ids(&[1, 2]))
                .unwrap()
                .jaccard,
            0.75
        );
        assert!(handle.build_seconds() > 0.0);
    }

    #[test]
    fn old_snapshots_stay_valid_and_report_staleness() {
        let (publisher, handle) = store();
        publisher.publish(0, Arc::new(vec![coeff(&[1, 2], 0.5)]));
        let old = handle.snapshot();
        publisher.publish(1, Arc::new(vec![coeff(&[1, 2], 0.9)]));
        // the old acquisition is immutable and still answers
        assert_eq!(
            old.coefficient(&TagSet::from_ids(&[1, 2])).unwrap().jaccard,
            0.5
        );
        assert_eq!(handle.staleness(&old), 1);
        assert_eq!(handle.staleness(&handle.snapshot()), 0);
    }

    #[test]
    fn concurrent_readers_never_tear_while_publishing() {
        let (publisher, handle) = store();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let handle = handle.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let mut last_seq = 0;
                    while !stop.load(Ordering::Relaxed) {
                        let snap = handle.snapshot();
                        assert!(snap.seq() >= last_seq, "publication order violated");
                        last_seq = snap.seq();
                        // internal consistency: every index entry resolves,
                        // and the stamped round matches the payload below
                        if let Some(round) = snap.round() {
                            for c in snap.top_k(usize::MAX) {
                                assert_eq!(c.counter, round, "torn snapshot");
                            }
                        }
                    }
                })
            })
            .collect();
        for round in 0..200u64 {
            // every coefficient of a round carries the round id in its
            // counter, so a mixed view is detectable
            let coeffs: Vec<TrackedCoefficient> = (0..8)
                .map(|i| TrackedCoefficient {
                    tags: TagSet::from_ids(&[i, i + 1]),
                    jaccard: 0.5,
                    counter: round,
                    reporters: 1,
                })
                .collect();
            publisher.publish(round, Arc::new(coeffs));
        }
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            r.join().unwrap();
        }
        assert_eq!(handle.snapshots_published(), 200);
    }

    #[test]
    fn handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<QueryHandle>();
        assert_send_sync::<Publisher>();
        assert_send_sync::<Snapshot>();
        assert_send_sync::<DegradeFlag>();
    }

    #[test]
    fn degrade_flag_marks_the_feed_without_touching_snapshots() {
        let (publisher, handle) = store();
        publisher.publish(0, Arc::new(vec![coeff(&[1, 2], 0.5)]));
        assert!(!handle.ingest_degraded());
        let flag = publisher.degrade_flag();
        let flag2 = flag.clone();
        std::thread::spawn(move || flag2.set()).join().unwrap();
        assert!(handle.ingest_degraded());
        assert_eq!(handle.degraded_tasks(), 1);
        flag.set();
        assert_eq!(handle.degraded_tasks(), 2);
        // published data itself is untouched — only the honesty marker moves
        assert_eq!(
            handle
                .coefficient(&TagSet::from_ids(&[1, 2]))
                .unwrap()
                .jaccard,
            0.5
        );
    }
}
