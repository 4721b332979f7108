//! The bolts of Figure 2's topology, wiring the `setcorr-core` state
//! machines onto the `setcorr-engine` runtime, one module per bolt.
//!
//! Stream map (producer → `stream` → consumer, grouping):
//!
//! ```text
//! source      → "docs"       → parser        (global: documents and ticks)
//! parser      → "tagsets"    → disseminator  (shuffle)
//!                            → partitioner   (fields: whole tagset)
//! parser      → "ticks"      → disseminator  (all)
//! partitioner → "parts"      → merger        (global)
//! merger      → "partitions" → disseminator  (all)
//! merger      → "additions"  → disseminator  (all)
//! disseminator→ "notifs"     → calculator    (direct)
//!             → "calcticks"  → calculator    (all)
//!             → "fence"      → calculator    (all)
//!             → "repart"     → partitioner   (all, feedback)
//!             → "addreq"     → merger        (global, feedback)
//! calculator  → "adopt"      → calculator    (direct, feedback)
//!             → "coeffs"     → tracker       (global)
//! ```
//!
//! Ticks originate at the source, which cuts rounds from event time (the
//! Parser forwards them), and reach Calculators *through* the Disseminator
//! so that, on both runtimes, every notification of a round is delivered
//! before the tick that closes it (single FIFO channel per Disseminator →
//! Calculator pair).

mod calculator;
mod disseminator;
mod merger;
mod parser;
mod partitioner;
mod tracker;

pub use calculator::CalculatorBolt;
pub use disseminator::DisseminatorBolt;
pub use merger::MergerBolt;
pub use parser::ParserBolt;
pub(crate) use parser::{Cut, RoundCut};
pub use partitioner::PartitionerBolt;
pub use tracker::TrackerBolt;

#[cfg(test)]
mod test_support {
    use crate::messages::Msg;
    use setcorr_engine::{ComponentId, Emitter};
    use setcorr_model::TagSet;

    /// Minimal emitter capturing emissions for bolt unit tests.
    #[derive(Default)]
    pub(super) struct Capture {
        pub(super) emitted: Vec<(&'static str, Msg)>,
        pub(super) direct: Vec<(&'static str, ComponentId, usize, Msg)>,
    }

    impl Emitter<Msg> for Capture {
        fn emit(&mut self, stream: &'static str, msg: Msg) {
            self.emitted.push((stream, msg));
        }
        fn emit_direct(&mut self, stream: &'static str, to: ComponentId, task: usize, msg: Msg) {
            self.direct.push((stream, to, task, msg));
        }
    }

    pub(super) fn ts(ids: &[u32]) -> TagSet {
        TagSet::from_ids(ids)
    }
}
