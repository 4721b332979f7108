//! The Parser: tagset extraction and round cuts (§6.2).

use crate::messages::Msg;
use setcorr_engine::{Bolt, Emitter};
use setcorr_model::{TimeDelta, Timestamp};

/// Extracts tagsets from documents and cuts report-period boundaries
/// ("ticks") from event time (§6.2: the Parser stamps `(timestamp_i, s_i)`).
pub struct ParserBolt {
    report_period: TimeDelta,
    round: u64,
}

impl ParserBolt {
    /// Parser with report period `y`.
    pub fn new(report_period: TimeDelta) -> Self {
        ParserBolt {
            report_period,
            round: 0,
        }
    }

    /// Event time, in milliseconds, at which the current round ends.
    fn round_end(&self) -> u64 {
        (self.round + 1) * self.report_period.millis()
    }

    /// Emit the tick that closes the current round and open the next.
    fn close_round(&mut self, out: &mut dyn Emitter<Msg>) {
        let time = Timestamp(self.round_end());
        out.emit(
            "ticks",
            Msg::Tick {
                round: self.round,
                time,
            },
        );
        self.round += 1;
    }
}

impl Bolt<Msg> for ParserBolt {
    fn on_message(&mut self, msg: Msg, out: &mut dyn Emitter<Msg>) {
        let Msg::Doc(doc) = msg else { return };
        // Close any rounds the document's timestamp has passed.
        while doc.timestamp.millis() >= self.round_end() {
            self.close_round(out);
        }
        if !doc.tags.is_empty() {
            out.emit(
                "tagsets",
                Msg::TagSet {
                    time: doc.timestamp,
                    tags: doc.tags,
                },
            );
        }
    }

    /// Vectorized path: one `emit_batch` of tagsets per document batch.
    /// Ticks are rare (one per report period); when one cuts the batch, the
    /// tagsets gathered so far flush *first* so the tick keeps its FIFO
    /// position behind the round it closes.
    fn on_batch(&mut self, mut msgs: Vec<Msg>, out: &mut dyn Emitter<Msg>) {
        let mut tagsets: Vec<Msg> = Vec::with_capacity(msgs.len());
        for msg in msgs.drain(..) {
            let Msg::Doc(doc) = msg else { continue };
            while doc.timestamp.millis() >= self.round_end() {
                if !tagsets.is_empty() {
                    out.emit_batch("tagsets", std::mem::take(&mut tagsets));
                }
                self.close_round(out);
            }
            if !doc.tags.is_empty() {
                tagsets.push(Msg::TagSet {
                    time: doc.timestamp,
                    tags: doc.tags,
                });
            }
        }
        if !tagsets.is_empty() {
            out.emit_batch("tagsets", tagsets);
        }
        out.recycle(msgs);
    }

    fn on_flush(&mut self, out: &mut dyn Emitter<Msg>) {
        // Close the final partial round.
        self.close_round(out);
    }

    /// The Parser's only state is the next round boundary, and it changes
    /// exactly when a tick is emitted — which is when the supervisor
    /// captures checkpoints. A restored Parser therefore resumes with the
    /// round counter every already-processed document observed.
    fn checkpoint(&self) -> Option<Box<dyn std::any::Any + Send>> {
        Some(Box::new(self.round))
    }

    fn restore(&mut self, cp: &dyn std::any::Any) {
        if let Some(round) = cp.downcast_ref::<u64>() {
            self.round = *round;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::test_support::{ts, Capture};
    use setcorr_model::{Document, TagSet};

    #[test]
    fn parser_cuts_rounds_and_extracts_tagsets() {
        let mut parser = ParserBolt::new(TimeDelta::from_secs(10));
        let mut cap = Capture::default();
        parser.on_message(Msg::Doc(Document::new(0, Timestamp(0), ts(&[1]))), &mut cap);
        parser.on_message(
            Msg::Doc(Document::new(1, Timestamp(25_000), TagSet::empty())),
            &mut cap,
        );
        // two rounds closed by the jump to 25 s, tagset emitted only for doc 0
        let ticks: Vec<u64> = cap
            .emitted
            .iter()
            .filter_map(|(s, m)| match m {
                Msg::Tick { round, .. } if *s == "ticks" => Some(*round),
                _ => None,
            })
            .collect();
        assert_eq!(ticks, vec![0, 1]);
        let tagsets = cap.emitted.iter().filter(|(s, _)| *s == "tagsets").count();
        assert_eq!(tagsets, 1);
        parser.on_flush(&mut cap);
        let ticks = cap
            .emitted
            .iter()
            .filter(|(s, m)| *s == "ticks" && matches!(m, Msg::Tick { round: 2, .. }))
            .count();
        assert_eq!(ticks, 1, "flush closes the partial round");
    }

    #[test]
    fn parser_on_batch_matches_per_message_across_round_cuts() {
        // A batch of documents straddling two round boundaries: the
        // vectorized parser must emit exactly the per-message stream —
        // every tick in its FIFO position behind the tagsets of the round
        // it closes (Capture's default emit_batch unrolls, so the logs
        // compare 1:1).
        let docs: Vec<Msg> = [
            (1_000, &[1, 2][..]),
            (5_000, &[3]),
            (12_000, &[][..]),
            (25_000, &[4, 5]),
            (26_000, &[6]),
        ]
        .iter()
        .enumerate()
        .map(|(i, &(t, ids))| Msg::Doc(Document::new(i as u64, Timestamp(t), ts(ids))))
        .collect();
        let mut per_msg = ParserBolt::new(TimeDelta::from_secs(10));
        let mut cap_msg = Capture::default();
        for d in docs.clone() {
            per_msg.on_message(d, &mut cap_msg);
        }
        let mut batched = ParserBolt::new(TimeDelta::from_secs(10));
        let mut cap_batch = Capture::default();
        batched.on_batch(docs, &mut cap_batch);
        assert_eq!(
            format!("{:?}", cap_msg.emitted),
            format!("{:?}", cap_batch.emitted)
        );
    }
}
