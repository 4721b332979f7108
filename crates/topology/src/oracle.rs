//! The centralized exact computation the paper scores the distributed
//! coefficients against (§8.2.3), as a function of the document stream.

use crate::operators::RoundCut;
use setcorr_core::{Calculator, CoefficientReport};
use setcorr_model::{Document, FxHashMap, TagSet, TimeDelta};
use std::borrow::Borrow;

/// The exact answer for one stream: one Calculator seeing every tagset,
/// over the rounds the Parser cuts from the same event time.
///
/// Per round it holds the exact Jaccard coefficient of every *input tagset*
/// (full document annotation set) of ≥ 2 tags observed in the round, and
/// across the run each such tagset's occurrence count — §8.2.3 evaluates
/// coverage and error over the tagsets "seen more than 3 times in the input"
/// (these are the tagsets the Single-Addition mechanism is responsible for).
/// [`RunReport::score`](crate::RunReport::score) compares a run against it.
#[derive(Debug, Clone, Default)]
pub struct ExactRun {
    pub(crate) rounds: Vec<(u64, Vec<CoefficientReport>)>,
    pub(crate) occurrences: FxHashMap<TagSet, u64>,
}

impl ExactRun {
    /// The exact rounds of `docs` (in stream order) for report period `y`.
    pub fn of<D: Borrow<Document>>(
        docs: impl IntoIterator<Item = D>,
        report_period: TimeDelta,
    ) -> Self {
        let mut cut = RoundCut::new(report_period);
        let mut calc = Calculator::new();
        // occurrences of each full input tagset this round
        let mut round: FxHashMap<TagSet, u64> = FxHashMap::default();
        let mut exact = ExactRun::default();
        for doc in docs {
            let doc = doc.borrow();
            while let Some((id, _)) = cut.reached(doc.timestamp) {
                exact.close(id, &mut calc, &mut round);
            }
            if doc.tags.is_empty() {
                continue;
            }
            if doc.tags.len() >= 2 {
                *round.entry(doc.tags.clone()).or_insert(0) += 1;
                *exact.occurrences.entry(doc.tags.clone()).or_insert(0) += 1;
            }
            calc.observe(&doc.tags);
        }
        let (id, _) = cut.close();
        exact.close(id, &mut calc, &mut round);
        exact
    }

    fn close(&mut self, id: u64, calc: &mut Calculator, round: &mut FxHashMap<TagSet, u64>) {
        let mut reports: Vec<CoefficientReport> = round
            .drain()
            .map(|(tags, counter)| {
                let jaccard = calc
                    .jaccard(&tags)
                    .expect("observed tagsets have coefficients");
                CoefficientReport {
                    tags,
                    jaccard,
                    counter,
                }
            })
            .collect();
        reports.sort_unstable_by(|a, b| a.tags.cmp(&b.tags));
        // the round's coefficients were just queried directly — clear the
        // counters without deriving a report for every tracked subset only
        // to discard it
        calc.reset();
        self.rounds.push((id, reports));
    }

    /// `(round, reports)` for every round, ids ascending and dense (a round
    /// without tagsets is present and empty); each round's reports ascend by
    /// tagset and count the tagset's occurrences in the round.
    pub fn rounds(&self) -> &[(u64, Vec<CoefficientReport>)] {
        &self.rounds
    }

    /// Whole-run occurrence count of each input tagset of ≥ 2 tags.
    pub fn occurrences(&self) -> &FxHashMap<TagSet, u64> {
        &self.occurrences
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setcorr_model::Timestamp;

    fn ts(ids: &[u32]) -> TagSet {
        TagSet::from_ids(ids)
    }

    fn doc(t: u64, ids: &[u32]) -> Document {
        Document::new(0, Timestamp(t), ts(ids))
    }

    const PERIOD: TimeDelta = TimeDelta(10);

    /// One `"round: tagset×counter …"` line per round of `docs`.
    fn shape(docs: &[Document]) -> Vec<String> {
        let rounds = ExactRun::of(docs, PERIOD).rounds;
        let line = |(id, reports): (u64, Vec<CoefficientReport>)| {
            let reports: Vec<String> = reports
                .iter()
                .map(|r| format!("{}×{}", r.tags, r.counter))
                .collect();
            format!("{id}: {}", reports.join(" "))
        };
        rounds.into_iter().map(line).collect()
    }

    #[test]
    fn exact_run_reports_rounds_and_run_occurrences() {
        // {1,2} seen 4 times; singleton {9} skipped (no Jaccard for 1 tag)
        let mut docs = vec![doc(0, &[1, 2]); 4];
        docs.extend(vec![doc(0, &[9]); 9]);
        // round state cleared, run occurrences persist
        docs.push(doc(11, &[1, 2]));
        let exact = ExactRun::of(&docs, PERIOD);
        let (id, round) = &exact.rounds()[0];
        assert_eq!(*id, 0);
        assert_eq!(round.len(), 1);
        assert_eq!(round[0].tags, ts(&[1, 2]));
        assert_eq!(round[0].counter, 4);
        assert_eq!(round[0].jaccard, 1.0);
        assert_eq!(exact.rounds()[1].1[0].counter, 1);
        assert_eq!(exact.occurrences().get(&ts(&[1, 2])), Some(&5));
    }

    #[test]
    fn rounds_are_cut_by_the_parsers_rule() {
        // a document at exactly a round's end opens the next round
        let at_end = shape(&[doc(9, &[1, 2]), doc(10, &[1, 2])]);
        assert_eq!(at_end, ["0: {t1,t2}×1", "1: {t1,t2}×1"]);
        // a gap in event time yields empty rounds that keep their ids
        let gap = shape(&[doc(0, &[1, 2]), doc(35, &[3, 4])]);
        assert_eq!(gap, ["0: {t1,t2}×1", "1: ", "2: ", "3: {t3,t4}×1"]);
        // untagged documents close rounds but report nothing
        let untagged = shape(&[doc(0, &[1, 2]), doc(25, &[])]);
        assert_eq!(untagged, ["0: {t1,t2}×1", "1: ", "2: "]);
        // the final partial round is closed, even of an empty stream
        assert_eq!(
            shape(&[doc(0, &[1, 2]), doc(14, &[1, 2])])[1],
            "1: {t1,t2}×1"
        );
        assert_eq!(shape(&[]), ["0: "]);
    }

    #[test]
    fn singletons_widen_unions_but_are_not_reported() {
        let exact = ExactRun::of(&[doc(0, &[1, 2]), doc(1, &[1]), doc(2, &[1])], PERIOD);
        let reports = &exact.rounds()[0].1;
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].jaccard, 1.0 / 3.0, "{{1,2}} over a union of 3");
        assert!(!exact.occurrences().contains_key(&ts(&[1])));
    }
}
