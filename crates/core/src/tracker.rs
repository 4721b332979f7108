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
//! by tagset, so deduplication is a merge, not a hash join: a round keeps the
//! Calculators' own vectors ([`Tracker::observe_shared`]) beside one staging
//! vector for reports that came by reference, and [`Tracker::finish_round`]
//! merges the ascending runs it finds in them, streak by streak. Nothing
//! depends on the senders' order for correctness — a shuffled feed merely
//! splits into more, shorter runs.

use crate::calculator::CoefficientReport;
use setcorr_model::{FxHashMap, TagSet};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

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
    rounds: FxHashMap<u64, OpenRound>,
    published: u64,
}

/// The reports of one open round.
#[derive(Debug, Default)]
struct OpenRound {
    /// Whole per-round vectors, still owned by whoever else holds them.
    shared: Vec<Arc<Vec<CoefficientReport>>>,
    /// Reports that came by reference, copied once, in arrival order.
    staged: Vec<CoefficientReport>,
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

    /// Ingest a run of reports for report-round `round` by reference: each
    /// is copied once onto the round's staging vector. Consecutive calls
    /// whose tagsets keep ascending stage one run, however they were cut.
    /// An empty run does not open its round.
    pub fn observe_run(&mut self, round: u64, reports: &[CoefficientReport]) {
        if !reports.is_empty() {
            let open = self.rounds.entry(round).or_default();
            open.staged.extend_from_slice(reports);
        }
    }

    /// Ingest one Calculator's whole round as the `Arc` its `CalcReport`
    /// carries: the vector is kept and merged where it lies, nothing is
    /// copied on arrival. An empty run does not open its round.
    pub fn observe_shared(&mut self, round: u64, reports: Arc<Vec<CoefficientReport>>) {
        if !reports.is_empty() {
            self.rounds.entry(round).or_default().shared.push(reports);
        }
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
    /// Shared vectors and the staging vector are cut at their descents into
    /// strictly-ascending runs, one borrowing cursor each in a heap. The
    /// least run gives up its *streak* — all it holds strictly below the
    /// next run's head, found by exponential search, and at least its own
    /// head — in one `extend`: `O(s log r + n)` for `n` reports in `r` runs
    /// that interleave in `s` streaks. Only a streak's head can repeat the
    /// tagset before it; then the max-`CN` report wins and ties break
    /// toward the larger Jaccard value, whatever order the reports drained
    /// from the per-Calculator channels in — the serving layer pins
    /// threaded runs against the sim oracle.
    pub fn finish_round(&mut self, round: u64) -> Vec<TrackedCoefficient> {
        let Some(open) = self.rounds.remove(&round) else {
            return Vec::new();
        };
        let slices = open.shared.len() + 1; // the staging vector comes last
        let slice = |idx: usize| match open.shared.get(idx) {
            Some(run) => &run[..],
            None => &open.staged[..],
        };
        let mut heads: BinaryHeap<Reverse<Cursor>> = BinaryHeap::with_capacity(slices);
        let mut total = 0;
        for idx in 0..slices {
            let mut pos = 0;
            for run in ascending_runs(slice(idx)) {
                heads.push(Reverse((&run[0].tags, idx, pos, pos + run.len())));
                pos += run.len();
            }
            total += pos;
        }
        let tracked = |report: &CoefficientReport| TrackedCoefficient {
            tags: report.tags.clone(),
            jaccard: report.jaccard,
            counter: report.counter,
            reporters: 1,
        };
        let mut out: Vec<TrackedCoefficient> = Vec::with_capacity(total);
        while let Some(Reverse((_, idx, pos, end))) = heads.pop() {
            let run = &slice(idx)[pos..end];
            let bound = heads.peek().map(|Reverse(next)| next.0);
            let len = bound.map_or(run.len(), |bound| streak_len(run, bound));
            let head = &run[0];
            match out.last_mut() {
                Some(kept) if kept.tags == head.tags => {
                    kept.reporters += 1;
                    if (head.counter, head.jaccard) > (kept.counter, kept.jaccard) {
                        (kept.counter, kept.jaccard) = (head.counter, head.jaccard);
                    }
                }
                _ => out.push(tracked(head)),
            }
            out.extend(run[1..len].iter().map(tracked));
            if len < run.len() {
                heads.push(Reverse((&run[len].tags, idx, pos + len, end)));
            }
        }
        out.shrink_to_fit(); // a no-op unless duplicates were folded
        self.published += out.len() as u64;
        out
    }
}

/// The unmerged rest of one strictly-ascending run, `[pos, end)` of slice
/// `idx` of its round, behind the tagset it merges next: the heap compares
/// cursors through that borrow, and arrival order settles ties.
type Cursor<'a> = (&'a TagSet, usize, usize, usize);

/// `slice` cut at its descents into maximal strictly-ascending runs.
fn ascending_runs(slice: &[CoefficientReport]) -> impl Iterator<Item = &[CoefficientReport]> {
    slice.chunk_by(|a, b| a.tags < b.tags)
}

/// How many leading reports of `run` lie strictly below `bound`, the head
/// counted regardless: exponential probes, then a binary search of the gap.
fn streak_len(run: &[CoefficientReport], bound: &TagSet) -> usize {
    let below = |report: &CoefficientReport| report.tags < *bound;
    let mut probe = 1;
    while probe < run.len() && below(&run[probe]) {
        probe *= 2;
    }
    // `run[probe / 2]` is in (the head, or probed below), `run[probe]` is not
    let known = probe / 2 + 1;
    known + run[known..probe.min(run.len())].partition_point(below)
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
    fn a_streaks_first_report_folds_and_its_tail_extends() {
        let long: Vec<CoefficientReport> = (1..=40).map(|i| report(&[i, i + 1], 0.5, 2)).collect();
        let bound = |i: u32| TagSet::from_ids(&[i, i + 1]);
        // the head counts even when it is not below the bound; a bound
        // inside, between two probes, on a probe and past the end
        assert_eq!(streak_len(&long, &bound(1)), 1);
        assert_eq!(streak_len(&long, &bound(2)), 1);
        assert_eq!(streak_len(&long, &bound(7)), 6);
        assert_eq!(streak_len(&long, &bound(9)), 8);
        assert_eq!(streak_len(&long, &bound(40)), 39);
        assert_eq!(streak_len(&long, &bound(99)), 40);
        assert_eq!(streak_len(&long[..1], &bound(99)), 1);

        // {1,2}…{40,41} against a run that repeats {20,21} and ends past it:
        // the second streak of `long` opens on the repeated tagset
        let mut t = Tracker::new();
        t.observe_shared(0, Arc::new(long.clone()));
        t.observe_shared(
            0,
            Arc::new(vec![report(&[20, 21], 0.9, 7), report(&[50, 51], 0.1, 2)]),
        );
        let out = t.finish_round(0);
        assert_eq!(out.len(), 41);
        assert!(out.windows(2).all(|w| w[0].tags < w[1].tags));
        for kept in &out {
            let folded = kept.tags == bound(20);
            assert_eq!(
                kept.reporters,
                if folded { 2 } else { 1 },
                "{:?}",
                kept.tags
            );
            assert_eq!(kept.counter, if folded { 7 } else { 2 });
        }
        assert_eq!(
            out[19].jaccard, 0.9,
            "the larger counter's coefficient wins"
        );
    }

    #[test]
    fn single_observes_in_ascending_order_stage_one_run() {
        let mut t = Tracker::new();
        for i in 1..=100 {
            t.observe(3, &report(&[i, i + 1], 0.5, 1));
        }
        t.observe_shared(3, Arc::new(Vec::new()));
        let staged = &t.rounds[&3].staged;
        assert_eq!(ascending_runs(staged).count(), 1);
        assert!(t.rounds[&3].shared.is_empty(), "an empty run is not kept");
        // a repeat and a descent each open a run
        t.observe(3, &report(&[100, 101], 0.5, 1));
        t.observe(3, &report(&[7, 8], 0.5, 1));
        assert_eq!(ascending_runs(&t.rounds[&3].staged).count(), 3);
        assert_eq!(t.finish_round(3).len(), 100);
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
