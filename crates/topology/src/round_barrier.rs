//! The tick fan-in barrier of a data-parallel front.
//!
//! With `N` Parser instances every Parser emits its own tick per round
//! boundary, so a bolt consuming their output closes round `r` only after
//! all `N` ticks for `r` arrived, and tagsets of later rounds wait in a
//! per-round buffer behind the barrier. Per-parser FIFO order guarantees a
//! round-`r` tagset always precedes that parser's tick `r`, so a complete
//! fan-in implies the round's evidence is complete — exactly the degree-1
//! round semantics, for any `N`.

use setcorr_model::{FxHashMap, TagSet, TimeDelta, Timestamp};
use std::collections::BTreeMap;

/// One step of a round transition, in the order the owning bolt must apply
/// it.
#[derive(Debug, PartialEq)]
pub(crate) enum RoundEvent {
    /// Round `round` is complete: close it (its period ended at `time`).
    Close {
        /// The round to close.
        round: u64,
        /// The round's closing period boundary.
        time: Timestamp,
    },
    /// A tagset held for the round that just opened: process it now.
    Held(TagSet),
}

/// Tick fan-in state of one consumer of `n_parsers` Parser instances. At
/// `n_parsers == 1` nothing is ever buffered or counted: tagsets pass
/// through and every tick closes its round immediately — bit-for-bit the
/// single-parser protocol.
pub(crate) struct RoundBarrier {
    n_parsers: usize,
    /// Report period `y`, for deriving a tagset's round from its event
    /// timestamp.
    report_period: TimeDelta,
    /// Next round to close = rounds whose fan-in completed.
    relay_round: u64,
    /// Tick arrivals per not-yet-closed round.
    ticks_seen: FxHashMap<u64, usize>,
    /// Tagsets of rounds beyond `relay_round`, held (in arrival order) until
    /// every intervening round closes — no evidence may cross a round
    /// barrier.
    round_buffer: BTreeMap<u64, Vec<TagSet>>,
}

impl RoundBarrier {
    /// Barrier behind `n_parsers` Parsers cutting rounds every
    /// `report_period`.
    pub(crate) fn new(n_parsers: usize, report_period: TimeDelta) -> Self {
        RoundBarrier {
            n_parsers: n_parsers.max(1),
            report_period,
            relay_round: 0,
            ticks_seen: FxHashMap::default(),
            round_buffer: BTreeMap::new(),
        }
    }

    /// Admit a tagset stamped `time`: handed back when its round is open
    /// (process it now), or held (`None`) while its round still waits on
    /// ticks from slower Parser instances.
    pub(crate) fn admit(&mut self, time: Timestamp, tags: TagSet) -> Option<TagSet> {
        if self.n_parsers > 1 {
            let round = time.millis() / self.report_period.millis();
            if round > self.relay_round {
                self.round_buffer.entry(round).or_default().push(tags);
                return None;
            }
        }
        Some(tags)
    }

    /// One Parser's tick for `round`. Each round closes once, when its
    /// `n_parsers`th tick arrives, and the next round's held tagsets are
    /// released right after. Per-parser FIFO order means a complete fan-in
    /// implies every tagset of the round was already admitted — the barrier
    /// can never close early.
    pub(crate) fn tick(&mut self, round: u64, time: Timestamp) -> Vec<RoundEvent> {
        if self.n_parsers == 1 {
            return vec![RoundEvent::Close { round, time }];
        }
        let mut events = Vec::new();
        if round < self.relay_round {
            return events; // round already force-closed (possible only at shutdown)
        }
        *self.ticks_seen.entry(round).or_insert(0) += 1;
        while self
            .ticks_seen
            .get(&self.relay_round)
            .is_some_and(|&n| n >= self.n_parsers)
        {
            self.advance(&mut events);
        }
        events
    }

    /// End of stream: shards end at different max rounds, so the last
    /// rounds never complete their fan-in. Close them in ascending round
    /// order — a round's held tagsets are released first, then it closes —
    /// preserving the degree-1 round/evidence order exactly.
    pub(crate) fn force_close(&mut self) -> Vec<RoundEvent> {
        let mut events = Vec::new();
        while !self.ticks_seen.is_empty() || !self.round_buffer.is_empty() {
            self.advance(&mut events);
        }
        events
    }

    /// Step past `relay_round`: close it if any tick for it arrived, then
    /// release the tagsets held for the round that opens.
    fn advance(&mut self, events: &mut Vec<RoundEvent>) {
        let round = self.relay_round;
        if self.ticks_seen.remove(&round).is_some() {
            let time = Timestamp((round + 1) * self.report_period.millis());
            events.push(RoundEvent::Close { round, time });
        }
        self.relay_round = round + 1;
        if let Some(held) = self.round_buffer.remove(&self.relay_round) {
            events.extend(held.into_iter().map(RoundEvent::Held));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PERIOD_MS: u64 = 10_000;

    fn barrier(n: usize) -> RoundBarrier {
        RoundBarrier::new(n, TimeDelta::from_secs(10))
    }

    fn ts(ids: &[u32]) -> TagSet {
        TagSet::from_ids(ids)
    }

    /// A timestamp inside `round`.
    fn at(round: u64) -> Timestamp {
        Timestamp(round * PERIOD_MS + 1)
    }

    fn close(round: u64) -> RoundEvent {
        RoundEvent::Close {
            round,
            time: Timestamp((round + 1) * PERIOD_MS),
        }
    }

    #[test]
    fn one_parser_relays_immediately_and_never_holds() {
        let mut b = barrier(1);
        // any round, any order, the tick's own time: passed straight through
        assert_eq!(b.admit(at(7), ts(&[1])), Some(ts(&[1])));
        assert_eq!(
            b.tick(3, Timestamp(42)),
            vec![RoundEvent::Close {
                round: 3,
                time: Timestamp(42)
            }]
        );
        assert_eq!(b.tick(0, at(0)).len(), 1, "no ordering imposed at n = 1");
        assert_eq!(b.admit(at(0), ts(&[2])), Some(ts(&[2])));
        assert!(b.force_close().is_empty());
    }

    #[test]
    fn rounds_close_in_order_whatever_order_the_ticks_arrive_in() {
        let mut b = barrier(3);
        // two parsers race a round ahead before the third ticks at all
        assert!(b.tick(0, at(0)).is_empty());
        assert!(b.tick(1, at(1)).is_empty());
        assert!(b.tick(0, at(0)).is_empty());
        assert!(b.tick(1, at(1)).is_empty());
        // round 1 reaching its full count first cannot close anything while
        // round 0 is still open
        assert!(b.tick(1, at(1)).is_empty());
        // the last round-0 tick closes round 0, and round 1 with it
        assert_eq!(b.tick(0, at(0)), vec![close(0), close(1)]);
        // round 2 needs all three again
        assert!(b.tick(2, at(2)).is_empty());
        assert!(b.tick(2, at(2)).is_empty());
        assert_eq!(b.tick(2, at(2)), vec![close(2)]);
    }

    #[test]
    fn held_tagsets_drain_in_arrival_order_when_their_round_opens() {
        let mut b = barrier(2);
        assert_eq!(b.admit(at(0), ts(&[1])), Some(ts(&[1])), "round 0 is open");
        // a fast parser is already in rounds 1 and 2
        assert_eq!(b.admit(at(1), ts(&[5])), None);
        assert_eq!(b.admit(at(2), ts(&[9])), None);
        assert_eq!(b.admit(at(1), ts(&[3])), None);
        assert_eq!(b.admit(at(1), ts(&[4])), None);
        assert!(b.tick(0, at(0)).is_empty());
        assert_eq!(
            b.tick(0, at(0)),
            vec![
                close(0),
                RoundEvent::Held(ts(&[5])),
                RoundEvent::Held(ts(&[3])),
                RoundEvent::Held(ts(&[4])),
            ],
            "round 1's tagsets, in arrival order; round 2's stay held"
        );
        assert_eq!(b.admit(at(1), ts(&[6])), Some(ts(&[6])), "round 1 now open");
        assert!(b.tick(1, at(1)).is_empty());
        assert_eq!(b.tick(1, at(1)), vec![close(1), RoundEvent::Held(ts(&[9]))]);
    }

    #[test]
    fn force_close_walks_the_open_rounds_in_ascending_order() {
        let mut b = barrier(2);
        // shard A ends in round 3, shard B in round 0: rounds 1..=3 never
        // complete their fan-in
        for round in 0..=3 {
            b.tick(round, at(round));
        }
        assert_eq!(b.tick(0, at(0)), vec![close(0)]);
        assert_eq!(b.admit(at(2), ts(&[2])), None);
        assert_eq!(b.admit(at(3), ts(&[3])), None);
        assert_eq!(
            b.admit(at(5), ts(&[5])),
            None,
            "no tick ever reaches round 5"
        );
        assert_eq!(
            b.force_close(),
            vec![
                close(1),
                RoundEvent::Held(ts(&[2])),
                close(2),
                RoundEvent::Held(ts(&[3])),
                close(3),
                // round 4 saw neither tick nor tagset: stepped over, not closed
                RoundEvent::Held(ts(&[5])),
            ]
        );
        assert!(b.force_close().is_empty(), "nothing left to close");
    }

    #[test]
    fn late_tick_for_a_closed_round_is_ignored() {
        let mut b = barrier(2);
        b.tick(0, at(0));
        b.tick(1, at(1));
        assert_eq!(b.force_close(), vec![close(0), close(1)]);
        // the slower parser's ticks arrive after the forced close
        assert!(b.tick(0, at(0)).is_empty());
        assert!(b.tick(1, at(1)).is_empty());
        assert!(b.force_close().is_empty(), "ignored ticks leave no state");
    }
}
