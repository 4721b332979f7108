//! The Tracker: per-round deduplication and publication (§6.2).

use crate::messages::Msg;
use crate::recorder::SharedRecorder;
use setcorr_core::Tracker;
use setcorr_engine::{Bolt, Emitter};
use setcorr_model::FxHashMap;
use setcorr_serve::Publisher;
use std::sync::Arc;

/// Deduplicates replicated coefficients per round (§6.2), writes closed
/// rounds into the recorder, and — when a serving [`Publisher`] is attached
/// — publishes each closed round as a live snapshot.
///
/// Publication happens only at `finalize`, i.e. once all `k` Calculators
/// reported the round (per-Calculator channels are FIFO, so round `r`
/// completes before `r + 1` starts arriving) — a half-round can never
/// become visible, including rounds closed across a migration fence.
pub struct TrackerBolt {
    tracker: Tracker,
    k: usize,
    received: FxHashMap<u64, usize>,
    recorder: SharedRecorder,
    publisher: Option<Publisher>,
}

impl TrackerBolt {
    /// Tracker expecting reports from `k` Calculators per round.
    pub fn new(k: usize, recorder: SharedRecorder) -> Self {
        TrackerBolt {
            tracker: Tracker::new(),
            k,
            received: FxHashMap::default(),
            recorder,
            publisher: None,
        }
    }

    /// This tracker, publishing every closed round to the serving layer.
    pub fn with_publisher(mut self, publisher: Publisher) -> Self {
        self.publisher = Some(publisher);
        self
    }

    fn finalize(&mut self, round: u64) {
        let coeffs = Arc::new(self.tracker.finish_round(round));
        if let Some(publisher) = &self.publisher {
            publisher.publish(round, coeffs.clone());
        }
        self.recorder.lock().tracked_rounds.insert(round, coeffs);
    }
}

impl Bolt<Msg> for TrackerBolt {
    fn on_message(&mut self, msg: Msg, _out: &mut dyn Emitter<Msg>) {
        let Msg::CalcReport { round, reports, .. } = msg else {
            return;
        };
        // one Calculator's round is one sorted run: the Tracker keeps the
        // vector itself and merges the k runs when the round closes
        self.tracker.observe_shared(round, reports);
        let seen = self.received.entry(round).or_insert(0);
        *seen += 1;
        if *seen == self.k {
            self.received.remove(&round);
            self.finalize(round);
        }
    }

    fn on_flush(&mut self, _out: &mut dyn Emitter<Msg>) {
        for round in self.tracker.open_round_keys() {
            self.finalize(round);
        }
        self.received.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::test_support::{ts, Capture};
    use crate::recorder::RunRecorder;
    use setcorr_core::CoefficientReport;

    #[test]
    fn tracker_finalizes_when_all_calcs_reported() {
        let recorder = RunRecorder::shared(2);
        let mut t = TrackerBolt::new(2, recorder.clone());
        let mut cap = Capture::default();
        let report = |calc: usize, j: f64, cn: u64| Msg::CalcReport {
            round: 0,
            calc,
            reports: Arc::new(vec![CoefficientReport {
                tags: ts(&[1, 2]),
                jaccard: j,
                counter: cn,
            }]),
        };
        t.on_message(report(0, 0.5, 10), &mut cap);
        assert!(recorder.lock().tracked_rounds.is_empty());
        t.on_message(report(1, 0.7, 3), &mut cap);
        let rec = recorder.lock();
        let round = rec.tracked_rounds.get(&0).unwrap();
        assert_eq!(round.len(), 1);
        assert_eq!(round[0].jaccard, 0.5, "max-CN wins");
        assert_eq!(round[0].reporters, 2);
    }
}
