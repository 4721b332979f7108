//! The round cut and the Parser (§6.2).
//!
//! Rounds are cut at the source: the driver's spout runs the document
//! stream through [`RoundCut::cut`], which puts a tick ahead of the first
//! document past each round's end and one more at the end of the stream. A
//! tick is a flush barrier, so the document that closes a round never waits
//! in a partial batch behind it. The Parser forwards ticks and extracts
//! tagsets, and holds no state.

use crate::messages::Msg;
use setcorr_engine::{Bolt, Emitter};
use setcorr_model::{Document, TimeDelta, Timestamp};
use std::borrow::Borrow;

/// The round cut, shared by the driver's source and the exact oracle
/// ([`crate::ExactRun`]), so that both cut the very same rounds: a document
/// first closes every round whose end its timestamp has reached, and the
/// last partial round closes at the end of the stream.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RoundCut {
    period: TimeDelta,
    round: u64,
}

impl RoundCut {
    /// Round 0 open, rounds `period` long.
    pub(crate) fn new(period: TimeDelta) -> Self {
        RoundCut { period, round: 0 }
    }

    /// `docs` (in stream order) with their rounds cut.
    pub(crate) fn cut<I: Iterator>(self, docs: I) -> Rounds<I> {
        Rounds {
            docs,
            cut: Some(self),
            held: None,
        }
    }

    /// Close the open round if event time `t` has reached its end, returning
    /// the closed round's id and end time.
    fn reached(&mut self, t: Timestamp) -> Option<(u64, Timestamp)> {
        (t.millis() >= self.end()).then(|| self.close())
    }

    /// Close the open round whatever the time and open the next.
    fn close(&mut self) -> (u64, Timestamp) {
        let closed = (self.round, Timestamp(self.end()));
        self.round += 1;
        closed
    }

    /// Event time, in milliseconds, at which the open round ends.
    fn end(&self) -> u64 {
        (self.round + 1) * self.period.millis()
    }
}

/// One item of a document stream cut into rounds.
#[derive(Debug)]
pub(crate) enum Cut<D> {
    /// The next document.
    Doc(D),
    /// The close of round `.0`, which ended at event time `.1`.
    Tick(u64, Timestamp),
}

impl From<Cut<Document>> for Msg {
    fn from(item: Cut<Document>) -> Msg {
        match item {
            Cut::Doc(doc) => Msg::Doc(doc),
            Cut::Tick(round, time) => Msg::Tick { round, time },
        }
    }
}

/// A document stream with its rounds cut ([`RoundCut::cut`]).
pub(crate) struct Rounds<I: Iterator> {
    docs: I,
    /// `None` once the end of the stream closed the last round.
    cut: Option<RoundCut>,
    /// The document whose timestamp closed a round, handed out next.
    held: Option<I::Item>,
}

impl<I, D> Iterator for Rounds<I>
where
    I: Iterator<Item = D>,
    D: Borrow<Document>,
{
    type Item = Cut<D>;

    fn next(&mut self) -> Option<Cut<D>> {
        let cut = self.cut.as_mut()?;
        let Some(doc) = self.held.take().or_else(|| self.docs.next()) else {
            let (round, time) = cut.close();
            self.cut = None;
            return Some(Cut::Tick(round, time));
        };
        match cut.reached(doc.borrow().timestamp) {
            Some((round, time)) => {
                self.held = Some(doc);
                Some(Cut::Tick(round, time))
            }
            None => Some(Cut::Doc(doc)),
        }
    }
}

/// Extracts tagsets from documents and forwards the source's round cuts
/// ("ticks"): §6.2's Parser, which stamps `(timestamp_i, s_i)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ParserBolt;

impl Bolt<Msg> for ParserBolt {
    fn on_message(&mut self, msg: Msg, out: &mut dyn Emitter<Msg>) {
        match msg {
            Msg::Doc(doc) if !doc.tags.is_empty() => out.emit(
                "tagsets",
                Msg::TagSet {
                    time: doc.timestamp,
                    tags: doc.tags,
                },
            ),
            Msg::Tick { .. } => out.emit("ticks", msg),
            _ => {}
        }
    }

    /// Vectorized path: one `emit_batch` of tagsets per document batch. A
    /// tick travels unbatched, but should one cut a batch, the tagsets
    /// gathered so far flush *first* so the tick keeps its FIFO position
    /// behind the round it closes.
    fn on_batch(&mut self, mut msgs: Vec<Msg>, out: &mut dyn Emitter<Msg>) {
        let mut tagsets: Vec<Msg> = Vec::with_capacity(msgs.len());
        for msg in msgs.drain(..) {
            match msg {
                Msg::Doc(doc) if !doc.tags.is_empty() => tagsets.push(Msg::TagSet {
                    time: doc.timestamp,
                    tags: doc.tags,
                }),
                Msg::Tick { .. } => {
                    if !tagsets.is_empty() {
                        out.emit_batch("tagsets", std::mem::take(&mut tagsets));
                    }
                    out.emit("ticks", msg);
                }
                _ => {}
            }
        }
        if !tagsets.is_empty() {
            out.emit_batch("tagsets", tagsets);
        }
        out.recycle(msgs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::test_support::{ts, Capture};
    use setcorr_model::{Document, TagSet};

    /// The source's stream: `docs` cut into rounds of 10 s.
    fn cut(docs: Vec<Document>) -> Vec<Msg> {
        RoundCut::new(TimeDelta::from_secs(10))
            .cut(docs.into_iter())
            .map(Msg::from)
            .collect()
    }

    /// `(stream, round)` of each tick and `(stream, doc time)` of each
    /// tagset, in emission order.
    fn log(cap: &Capture) -> Vec<(&'static str, u64)> {
        cap.emitted
            .iter()
            .map(|(stream, msg)| match msg {
                Msg::Tick { round, .. } => (*stream, *round),
                Msg::TagSet { time, .. } => (*stream, time.millis()),
                other => panic!("the Parser emitted {other:?}"),
            })
            .collect()
    }

    #[test]
    fn parser_cuts_rounds_and_extracts_tagsets() {
        let stream = cut(vec![
            Document::new(0, Timestamp(0), ts(&[1])),
            Document::new(1, Timestamp(25_000), TagSet::empty()),
        ]);
        // the jump to 25 s closes rounds 0 and 1 ahead of doc 1, and the
        // end of the stream closes the partial round 2
        let order: Vec<String> = stream
            .iter()
            .map(|msg| match msg {
                Msg::Doc(doc) => format!("doc {}", doc.id),
                Msg::Tick { round, time } => format!("tick {round} at {}", time.millis()),
                other => panic!("the source emitted {other:?}"),
            })
            .collect();
        assert_eq!(
            order,
            [
                "doc 0",
                "tick 0 at 10000",
                "tick 1 at 20000",
                "doc 1",
                "tick 2 at 30000"
            ]
        );
        let mut parser = ParserBolt;
        let mut cap = Capture::default();
        for msg in stream {
            parser.on_message(msg, &mut cap);
        }
        // ticks forwarded in place, a tagset only for the tagged doc 0
        assert_eq!(
            log(&cap),
            [("tagsets", 0), ("ticks", 0), ("ticks", 1), ("ticks", 2)]
        );
    }

    #[test]
    fn parser_on_batch_matches_per_message_across_round_cuts() {
        // A batch of documents straddling two round boundaries, ticks in
        // it: the vectorized parser must emit exactly the per-message
        // stream — every tick in its FIFO position behind the tagsets of
        // the round it closes (Capture's default emit_batch unrolls, so the
        // logs compare 1:1).
        let docs: Vec<Document> = [
            (1_000, &[1, 2][..]),
            (5_000, &[3]),
            (12_000, &[][..]),
            (25_000, &[4, 5]),
            (26_000, &[6]),
        ]
        .iter()
        .enumerate()
        .map(|(i, &(t, ids))| Document::new(i as u64, Timestamp(t), ts(ids)))
        .collect();
        let stream = cut(docs);
        let mut per_msg = Capture::default();
        for msg in stream.clone() {
            ParserBolt.on_message(msg, &mut per_msg);
        }
        let mut batched = Capture::default();
        ParserBolt.on_batch(stream, &mut batched);
        assert_eq!(
            format!("{:?}", per_msg.emitted),
            format!("{:?}", batched.emitted)
        );
        assert_eq!(
            log(&per_msg),
            [
                ("tagsets", 1_000),
                ("tagsets", 5_000),
                ("ticks", 0),
                ("ticks", 1),
                ("tagsets", 25_000),
                ("tagsets", 26_000),
                ("ticks", 2)
            ]
        );
    }
}
