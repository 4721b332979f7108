//! The Tracker operator (§6.2).
//!
//! When tags are replicated, several Calculators may report a coefficient for
//! the *same* tagset in the same report round. The Tracker keeps, per tagset,
//! the coefficient backed by the largest counter `CN` — "the coefficient
//! computed over data tracked for a longer period" — which guarantees that
//! tagsets assigned at partition-creation time beat coefficients that started
//! accumulating only after a partition evolved.
//!
//! Every Calculator's per-round report arrives as one run strictly ascending
//! by tagset, so deduplication is a merge, not a hash join: reports are
//! buffered in arrival order and [`Tracker::finish_round`] k-way merges the
//! runs it finds in the buffer. Nothing depends on the senders' order for
//! correctness — a shuffled feed merely splits into more, shorter runs.

use crate::calculator::CoefficientReport;
use setcorr_model::{FxHashMap, TagSet};
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::mem;

/// One deduplicated coefficient as the Tracker publishes it downstream.
#[derive(Debug, Clone, PartialEq)]
pub struct TrackedCoefficient {
    /// The tagset.
    pub tags: TagSet,
    /// The winning Jaccard coefficient.
    pub jaccard: f64,
    /// The winning counter value.
    pub counter: u64,
    /// How many Calculators reported this tagset this round.
    pub reporters: u32,
}

/// Per-round deduplication state.
#[derive(Debug, Default)]
pub struct Tracker {
    /// The reports of every open round, in arrival order.
    rounds: FxHashMap<u64, Vec<TrackedCoefficient>>,
    published: u64,
}

impl Tracker {
    /// Fresh tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest one Calculator report for report-round `round`: the
    /// one-element case of [`Tracker::observe_run`].
    pub fn observe(&mut self, round: u64, report: &CoefficientReport) {
        self.observe_run(round, std::slice::from_ref(report));
    }

    /// Ingest a run of reports for report-round `round` — typically one
    /// Calculator's whole round, which is sorted by tagset.
    ///
    /// Takes the reports by reference (they fan out from shared, `Arc`-held
    /// per-round vectors) and copies each once into the round's buffer,
    /// which grows by the run's length up front; arbitration waits for
    /// [`Tracker::finish_round`]. An empty run does not open its round.
    pub fn observe_run(&mut self, round: u64, reports: &[CoefficientReport]) {
        if reports.is_empty() {
            return;
        }
        let buffer = self.rounds.entry(round).or_default();
        buffer.extend(reports.iter().map(|report| TrackedCoefficient {
            tags: report.tags.clone(),
            jaccard: report.jaccard,
            counter: report.counter,
            reporters: 1,
        }));
    }

    /// Number of rounds currently buffered.
    pub fn open_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Ids of the rounds currently buffered (ascending).
    pub fn open_round_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self.rounds.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Total coefficients published so far.
    pub fn published(&self) -> u64 {
        self.published
    }

    /// Close `round` and emit its deduplicated coefficients, sorted by
    /// tagset. Returns an empty vector for unknown rounds.
    ///
    /// The buffer's maximal strictly-ascending runs are merged through a
    /// heap of one cursor per run, `O(n log r)` for `n` reports in `r`
    /// runs. Per tagset the max-`CN` report wins; ties break toward the
    /// larger Jaccard value so the winner does not depend on the order
    /// reports drained from the per-Calculator channels — the serving layer
    /// pins threaded runs against the sim oracle.
    pub fn finish_round(&mut self, round: u64) -> Vec<TrackedCoefficient> {
        let Some(mut buffer) = self.rounds.remove(&round) else {
            return Vec::new();
        };
        let mut runs: Vec<(usize, usize)> = Vec::new();
        for end in 1..=buffer.len() {
            if end == buffer.len() || buffer[end - 1].tags >= buffer[end].tags {
                runs.push((runs.last().map_or(0, |run| run.1), end));
            }
        }
        let cursor = |buffer: &mut [TrackedCoefficient], pos: usize, end: usize| {
            let tags = mem::replace(&mut buffer[pos].tags, TagSet::empty());
            Reverse(Cursor { tags, pos, end })
        };
        let mut heads: BinaryHeap<_> = runs
            .into_iter()
            .map(|(pos, end)| cursor(&mut buffer, pos, end))
            .collect();
        let mut out: Vec<TrackedCoefficient> = Vec::with_capacity(buffer.len());
        while let Some(mut head) = heads.peek_mut() {
            // step the least cursor along its run, or retire it at the end
            let (next, end) = (head.0.pos + 1, head.0.end);
            let Reverse(Cursor { tags, pos, .. }) = if next < end {
                mem::replace(&mut *head, cursor(&mut buffer, next, end))
            } else {
                PeekMut::pop(head)
            };
            let report = &buffer[pos];
            match out.last_mut() {
                Some(kept) if kept.tags == tags => {
                    kept.reporters += 1;
                    if (report.counter, report.jaccard) > (kept.counter, kept.jaccard) {
                        (kept.counter, kept.jaccard) = (report.counter, report.jaccard);
                    }
                }
                _ => out.push(TrackedCoefficient { tags, ..*report }),
            }
        }
        out.shrink_to_fit(); // a no-op unless duplicates were folded
        self.published += out.len() as u64;
        out
    }
}

/// The next unmerged report of one run, ordered by its tagset — which the
/// cursor owns (moved out of the buffer), so the heap compares in place.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Cursor {
    tags: TagSet,
    pos: usize,
    end: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(ids: &[u32], jaccard: f64, counter: u64) -> CoefficientReport {
        CoefficientReport {
            tags: TagSet::from_ids(ids),
            jaccard,
            counter,
        }
    }

    #[test]
    fn keeps_max_counter_report() {
        let mut t = Tracker::new();
        t.observe(0, &report(&[1, 2], 0.4, 10));
        t.observe(0, &report(&[1, 2], 0.9, 3)); // younger duplicate loses
        t.observe(0, &report(&[1, 2], 0.5, 12)); // older data wins
        let out = t.finish_round(0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].jaccard, 0.5);
        assert_eq!(out[0].counter, 12);
        assert_eq!(out[0].reporters, 3);
    }

    #[test]
    fn rounds_are_independent() {
        let mut t = Tracker::new();
        t.observe(0, &report(&[1, 2], 0.4, 10));
        t.observe(1, &report(&[1, 2], 0.8, 2));
        assert_eq!(t.open_rounds(), 2);
        let r0 = t.finish_round(0);
        assert_eq!(r0[0].jaccard, 0.4);
        let r1 = t.finish_round(1);
        assert_eq!(r1[0].jaccard, 0.8);
        assert_eq!(t.open_rounds(), 0);
        assert_eq!(t.published(), 2);
    }

    #[test]
    fn unknown_round_is_empty() {
        let mut t = Tracker::new();
        assert!(t.finish_round(7).is_empty());
    }

    #[test]
    fn output_is_sorted() {
        let mut t = Tracker::new();
        t.observe(0, &report(&[5, 6], 0.1, 1));
        t.observe(0, &report(&[1, 2], 0.2, 1));
        t.observe(0, &report(&[3, 4], 0.3, 1));
        let out = t.finish_round(0);
        let sets: Vec<TagSet> = out.into_iter().map(|c| c.tags).collect();
        assert_eq!(
            sets,
            vec![
                TagSet::from_ids(&[1, 2]),
                TagSet::from_ids(&[3, 4]),
                TagSet::from_ids(&[5, 6])
            ]
        );
    }

    #[test]
    fn equal_counters_break_toward_larger_jaccard() {
        let mut t = Tracker::new();
        t.observe(0, &report(&[1, 2], 0.4, 5));
        t.observe(0, &report(&[1, 2], 0.6, 5));
        let out = t.finish_round(0);
        assert_eq!(out[0].jaccard, 0.6, "tie-break must not depend on order");
        // and the same reports in the opposite order pick the same winner
        let mut t = Tracker::new();
        t.observe(0, &report(&[1, 2], 0.6, 5));
        t.observe(0, &report(&[1, 2], 0.4, 5));
        assert_eq!(t.finish_round(0)[0].jaccard, 0.6);
    }
}
