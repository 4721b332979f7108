//! Sliding windows over the tagset stream.
//!
//! Partitioners "maintain a sliding window of size W over the incoming
//! tagsets … conceptually time-based (e.g. capturing 5 minutes of tweets) or
//! count-based (e.g. 10000 tweets)" (§6.2). [`TagSetWindow`] implements both
//! flavours as a plain FIFO of the live documents' tagsets: an insert is a
//! push, an eviction a pop, and nothing is counted per tagset on the way.
//! The distinct tagsets with occurrence counts — the input shape the
//! partitioning algorithms need (`S` with per-tagset loads) — are
//! aggregated on demand, in O(live documents), when a repartition asks.

use crate::fx::FxHashMap;
use crate::tagset::TagSet;
use crate::time::{TimeDelta, Timestamp};
use std::collections::VecDeque;

/// Window extent: event-time span or document count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// Keep documents whose timestamp is within the last `W` of event time.
    Time(TimeDelta),
    /// Keep the most recent `n` documents.
    Count(usize),
}

/// One distinct tagset currently in the window together with its occurrence
/// count (`|{d | s annotates d}|` restricted to the window).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TagSetStat {
    /// The distinct tagset.
    pub tags: TagSet,
    /// How many window documents carry exactly this tagset.
    pub count: u64,
}

/// Sliding window over `(Timestamp, TagSet)` insertions: a FIFO of the live
/// documents, oldest first.
///
/// Eviction is driven by [`TagSetWindow::insert`]'s timestamps (event time);
/// there is no wall-clock dependency. Inserting and evicting touch only the
/// FIFO's ends; the per-tagset views ([`distinct_tagsets`](Self::distinct_tagsets),
/// [`count_of`](Self::count_of), [`iter_stats`](Self::iter_stats),
/// [`snapshot`](Self::snapshot)) walk the live documents when called.
#[derive(Debug)]
pub struct TagSetWindow {
    kind: WindowKind,
    /// The live documents as (arrival, tagset).
    entries: VecDeque<(Timestamp, TagSet)>,
    /// Total documents ever inserted.
    total_docs: u64,
    /// Bumped on every content change (insert, eviction, clear), so
    /// derived structures (e.g. per-tag MinHash signatures in
    /// `setcorr-approx`) can cheaply detect staleness.
    version: u64,
}

impl TagSetWindow {
    /// Create an empty window of the given extent.
    pub fn new(kind: WindowKind) -> Self {
        TagSetWindow {
            kind,
            entries: VecDeque::new(),
            total_docs: 0,
            version: 0,
        }
    }

    /// Convenience: time-based window.
    pub fn time(span: TimeDelta) -> Self {
        Self::new(WindowKind::Time(span))
    }

    /// Convenience: count-based window.
    pub fn count(n: usize) -> Self {
        Self::new(WindowKind::Count(n))
    }

    /// The configured extent.
    pub fn kind(&self) -> WindowKind {
        self.kind
    }

    /// Insert one document's tagset arriving at `at`, then evict everything
    /// that fell out of the window. Timestamps must be non-decreasing.
    pub fn insert(&mut self, tags: TagSet, at: Timestamp) {
        self.entries.push_back((at, tags));
        self.total_docs += 1;
        self.version += 1;
        self.evict(at);
    }

    /// Evict expired entries given the current event time.
    pub fn evict(&mut self, now: Timestamp) {
        while let Some(&(t, _)) = self.entries.front() {
            let expired = match self.kind {
                // A document at time t stays while now − t < span.
                WindowKind::Time(span) => now.since(t) >= span,
                WindowKind::Count(n) => self.entries.len() > n,
            };
            if !expired {
                break;
            }
            self.entries.pop_front();
            self.version += 1;
        }
    }

    /// Documents currently inside the window.
    pub fn live_docs(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Documents ever inserted.
    pub fn total_docs(&self) -> u64 {
        self.total_docs
    }

    /// The live documents' tagsets, oldest first, one per document.
    pub fn live_tagsets(&self) -> impl Iterator<Item = &TagSet> {
        self.entries.iter().map(|(_, tags)| tags)
    }

    /// Number of distinct tagsets currently inside the window. Counted on
    /// demand, in O(live documents).
    pub fn distinct_tagsets(&self) -> usize {
        self.counts().len()
    }

    /// Occurrence count of a specific tagset in the window. One pass over
    /// the live documents.
    pub fn count_of(&self, tags: &TagSet) -> u64 {
        self.live_tagsets().filter(|t| *t == tags).count() as u64
    }

    /// Monotone content-change counter: two calls return the same value iff
    /// no insert/eviction/clear happened in between. Lets derived window
    /// structures (approximate signature stores, caches) detect staleness
    /// without diffing contents.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Iterate the live distinct tagsets with their occurrence counts,
    /// aggregated on demand in O(live documents). Order is unspecified
    /// (hash order); use [`TagSetWindow::snapshot`] when determinism
    /// matters.
    pub fn iter_stats(&self) -> impl Iterator<Item = (&TagSet, u64)> {
        self.counts().into_iter()
    }

    /// Materialise the distinct tagsets and counts, sorted by tagset for
    /// deterministic downstream processing. Aggregated on demand, in
    /// O(live documents).
    pub fn snapshot(&self) -> Vec<TagSetStat> {
        let mut out: Vec<TagSetStat> = self
            .iter_stats()
            .map(|(tags, count)| TagSetStat {
                tags: tags.clone(),
                count,
            })
            .collect();
        out.sort_unstable_by(|a, b| a.tags.cmp(&b.tags));
        out
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.version += 1;
    }

    /// Occurrences of each live distinct tagset.
    fn counts(&self) -> FxHashMap<&TagSet, u64> {
        let mut counts = FxHashMap::default();
        for tags in self.live_tagsets() {
            *counts.entry(tags).or_insert(0) += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(ids: &[u32]) -> TagSet {
        TagSet::from_ids(ids)
    }

    #[test]
    fn count_window_evicts_oldest() {
        let mut w = TagSetWindow::count(2);
        w.insert(ts(&[1]), Timestamp(0));
        w.insert(ts(&[2]), Timestamp(1));
        w.insert(ts(&[3]), Timestamp(2));
        assert_eq!(w.live_docs(), 2);
        assert_eq!(w.count_of(&ts(&[1])), 0);
        assert_eq!(w.count_of(&ts(&[2])), 1);
        assert_eq!(w.count_of(&ts(&[3])), 1);
    }

    #[test]
    fn time_window_evicts_by_span() {
        let mut w = TagSetWindow::time(TimeDelta::from_secs(10));
        w.insert(ts(&[1]), Timestamp(0));
        w.insert(ts(&[2]), Timestamp(5_000));
        w.insert(ts(&[3]), Timestamp(9_999));
        assert_eq!(w.live_docs(), 3);
        // at t=10s the t=0 doc has age exactly 10s and must leave
        w.insert(ts(&[4]), Timestamp(10_000));
        assert_eq!(w.count_of(&ts(&[1])), 0);
        assert_eq!(w.live_docs(), 3);
    }

    #[test]
    fn duplicate_tagsets_aggregate() {
        let mut w = TagSetWindow::count(10);
        for i in 0..4 {
            w.insert(ts(&[7, 8]), Timestamp(i));
        }
        w.insert(ts(&[9]), Timestamp(4));
        assert_eq!(w.distinct_tagsets(), 2);
        assert_eq!(w.count_of(&ts(&[7, 8])), 4);
        let snap = w.snapshot();
        assert_eq!(snap.len(), 2);
        let total: u64 = snap.iter().map(|s| s.count).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn fifo_holds_only_live_documents() {
        // one live document at a time, however many distinct tagsets pass
        let mut w = TagSetWindow::count(1);
        for i in 0..100u32 {
            w.insert(ts(&[i]), Timestamp(i as u64));
            assert_eq!(w.entries.len(), 1);
        }
        assert_eq!(w.distinct_tagsets(), 1);
        // a 10 ms span over one document a millisecond, then a gap that
        // empties the window down to the document that closes it
        let mut w = TagSetWindow::time(TimeDelta::from_millis(10));
        for i in 0..50u64 {
            w.insert(ts(&[1, 2]), Timestamp(i));
            assert_eq!(w.entries.len() as u64, (i + 1).min(10));
        }
        w.insert(ts(&[3]), Timestamp(1_000));
        assert_eq!(w.entries.len(), 1);
        assert_eq!(
            w.snapshot(),
            vec![TagSetStat {
                tags: ts(&[3]),
                count: 1
            }]
        );
    }

    #[test]
    fn snapshot_is_sorted_and_live_only() {
        let mut w = TagSetWindow::count(3);
        w.insert(ts(&[5]), Timestamp(0));
        w.insert(ts(&[1]), Timestamp(1));
        w.insert(ts(&[3]), Timestamp(2));
        w.insert(ts(&[2]), Timestamp(3)); // evicts {5}
        let snap = w.snapshot();
        let sets: Vec<TagSet> = snap.into_iter().map(|s| s.tags).collect();
        assert_eq!(sets, vec![ts(&[1]), ts(&[2]), ts(&[3])]);
    }

    #[test]
    fn version_tracks_every_content_change() {
        let mut w = TagSetWindow::count(2);
        let v0 = w.version();
        w.insert(ts(&[1]), Timestamp(0));
        let v1 = w.version();
        assert!(v1 > v0, "insert must bump the version");
        w.insert(ts(&[2]), Timestamp(1));
        let v2 = w.version();
        w.insert(ts(&[3]), Timestamp(2)); // insert + eviction of {1}
        let v3 = w.version();
        assert!(v3 > v2 + 1, "eviction bumps on top of the insert");
        w.clear();
        assert!(w.version() > v3);
    }

    #[test]
    fn iter_stats_matches_snapshot() {
        let mut w = TagSetWindow::count(10);
        for i in 0..4 {
            w.insert(ts(&[7, 8]), Timestamp(i));
        }
        w.insert(ts(&[9]), Timestamp(4));
        let mut via_iter: Vec<(TagSet, u64)> = w
            .iter_stats()
            .map(|(tags, count)| (tags.clone(), count))
            .collect();
        via_iter.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let via_snapshot: Vec<(TagSet, u64)> = w
            .snapshot()
            .into_iter()
            .map(|s| (s.tags, s.count))
            .collect();
        assert_eq!(via_iter, via_snapshot);
    }

    #[test]
    fn totals_track_inserts() {
        let mut w = TagSetWindow::count(2);
        for i in 0..5 {
            w.insert(ts(&[1]), Timestamp(i));
        }
        assert_eq!(w.total_docs(), 5);
        assert_eq!(w.live_docs(), 2);
        w.clear();
        assert_eq!(w.live_docs(), 0);
        assert_eq!(w.distinct_tagsets(), 0);
    }
}
