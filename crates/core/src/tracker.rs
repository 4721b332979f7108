//! The Tracker operator (§6.2).
//!
//! When tags are replicated, several Calculators may report a coefficient for
//! the *same* tagset in the same report round. The Tracker keeps, per tagset,
//! the coefficient backed by the largest counter `CN` — "the coefficient
//! computed over data tracked for a longer period" — which guarantees that
//! tagsets assigned at partition-creation time beat coefficients that started
//! accumulating only after a partition evolved.

use crate::calculator::CoefficientReport;
use setcorr_model::{FxHashMap, TagSet};

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
    rounds: FxHashMap<u64, FxHashMap<TagSet, (f64, u64, u32)>>,
    published: u64,
}

impl Tracker {
    /// Fresh tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest one Calculator report for report-round `round`.
    ///
    /// Takes the report by reference: reports fan out from shared
    /// (`Arc`-held) per-round vectors, and deduplication only needs to
    /// *read* them — the tagset key is cloned once, for the first reporter
    /// of a round, instead of copying every report.
    pub fn observe(&mut self, round: u64, report: &CoefficientReport) {
        let entries = self.rounds.entry(round).or_default();
        match entries.get_mut(&report.tags) {
            Some(entry) => {
                entry.2 += 1;
                // Keep the max-CN coefficient. Ties break toward the larger
                // Jaccard value so the winner does not depend on the order
                // reports drained from the per-Calculator channels — the
                // serving layer pins threaded runs against the sim oracle.
                if report.counter > entry.1
                    || (report.counter == entry.1 && report.jaccard > entry.0)
                {
                    entry.0 = report.jaccard;
                    entry.1 = report.counter;
                }
            }
            None => {
                entries.insert(report.tags.clone(), (report.jaccard, report.counter, 1));
            }
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
    pub fn finish_round(&mut self, round: u64) -> Vec<TrackedCoefficient> {
        let Some(entries) = self.rounds.remove(&round) else {
            return Vec::new();
        };
        let mut out: Vec<TrackedCoefficient> = entries
            .into_iter()
            .map(|(tags, (jaccard, counter, reporters))| TrackedCoefficient {
                tags,
                jaccard,
                counter,
                reporters,
            })
            .collect();
        out.sort_unstable_by(|a, b| a.tags.cmp(&b.tags));
        self.published += out.len() as u64;
        out
    }
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
