//! The centralized exact baseline the paper compares against (§8.2.3).

use crate::messages::Msg;
use crate::recorder::SharedRecorder;
use setcorr_core::{Calculator, CoefficientReport};
use setcorr_engine::{Bolt, Emitter};
use setcorr_model::{FxHashMap, TagSet};

/// The centralized exact computation the paper compares against (§8.2.3):
/// one Calculator seeing every tagset.
///
/// Per round it reports the exact Jaccard coefficient of every *input
/// tagset* (full document annotation set) of ≥ 2 tags observed in the round,
/// and accumulates whole-run occurrence counts — §8.2.3 evaluates coverage
/// and error over the tagsets "seen more than 3 times in the input" (these
/// are the tagsets the Single-Addition mechanism is responsible for).
pub struct BaselineBolt {
    calc: Calculator,
    /// Occurrences of each *full* input tagset this round.
    round_occurrences: FxHashMap<TagSet, u64>,
    /// Occurrences across the whole run (≥ 2 tags only).
    run_occurrences: FxHashMap<TagSet, u64>,
    recorder: SharedRecorder,
}

impl BaselineBolt {
    /// Baseline writing exact rounds into `recorder`.
    pub fn new(recorder: SharedRecorder) -> Self {
        BaselineBolt {
            calc: Calculator::new(),
            round_occurrences: FxHashMap::default(),
            run_occurrences: FxHashMap::default(),
            recorder,
        }
    }

    fn observe_tagset(&mut self, tags: TagSet) {
        if tags.len() >= 2 {
            *self.round_occurrences.entry(tags.clone()).or_insert(0) += 1;
            *self.run_occurrences.entry(tags.clone()).or_insert(0) += 1;
        }
        self.calc.observe(&tags);
    }

    /// Report and reset the round's exact coefficients.
    fn close_round(&mut self, round: u64) {
        let mut reports: Vec<CoefficientReport> = Vec::new();
        for (tags, &n) in &self.round_occurrences {
            let jaccard = self
                .calc
                .jaccard(tags)
                .expect("observed tagsets have coefficients");
            reports.push(CoefficientReport {
                tags: tags.clone(),
                jaccard,
                counter: n,
            });
        }
        reports.sort_unstable_by(|a, b| a.tags.cmp(&b.tags));
        self.recorder.lock().baseline_rounds.insert(round, reports);
        // the round's coefficients were just queried directly —
        // clear the counters without deriving a report for every
        // tracked subset only to discard it
        self.calc.reset();
        self.round_occurrences.clear();
    }
}

impl Bolt<Msg> for BaselineBolt {
    fn on_message(&mut self, msg: Msg, _out: &mut dyn Emitter<Msg>) {
        match msg {
            Msg::TagSet { tags, .. } => self.observe_tagset(tags),
            Msg::Tick { round, .. } => self.close_round(round),
            _ => {}
        }
    }

    fn on_flush(&mut self, _out: &mut dyn Emitter<Msg>) {
        let mut rec = self.recorder.lock();
        for (tags, n) in self.run_occurrences.drain() {
            *rec.baseline_occurrences.entry(tags).or_insert(0) += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::test_support::{ts, Capture};
    use crate::recorder::RunRecorder;
    use setcorr_model::Timestamp;

    #[test]
    fn baseline_reports_rounds_and_run_occurrences() {
        let recorder = RunRecorder::shared(1);
        let mut b = BaselineBolt::new(recorder.clone());
        let mut cap = Capture::default();
        // {1,2} seen 4 times; singleton {9} skipped (no Jaccard for 1 tag)
        for _ in 0..4 {
            b.on_message(
                Msg::TagSet {
                    time: Timestamp(0),
                    tags: ts(&[1, 2]),
                },
                &mut cap,
            );
        }
        for _ in 0..9 {
            b.on_message(
                Msg::TagSet {
                    time: Timestamp(0),
                    tags: ts(&[9]),
                },
                &mut cap,
            );
        }
        b.on_message(
            Msg::Tick {
                round: 0,
                time: Timestamp(10),
            },
            &mut cap,
        );
        {
            let rec = recorder.lock();
            let round = rec.baseline_rounds.get(&0).unwrap();
            assert_eq!(round.len(), 1);
            assert_eq!(round[0].tags, ts(&[1, 2]));
            assert_eq!(round[0].counter, 4);
            assert_eq!(round[0].jaccard, 1.0);
        }
        // round state cleared, run occurrences persist until flush
        b.on_message(
            Msg::TagSet {
                time: Timestamp(11),
                tags: ts(&[1, 2]),
            },
            &mut cap,
        );
        b.on_message(
            Msg::Tick {
                round: 1,
                time: Timestamp(20),
            },
            &mut cap,
        );
        assert_eq!(
            recorder.lock().baseline_rounds.get(&1).unwrap()[0].counter,
            1
        );
        b.on_flush(&mut cap);
        assert_eq!(
            recorder.lock().baseline_occurrences.get(&ts(&[1, 2])),
            Some(&5)
        );
    }
}
