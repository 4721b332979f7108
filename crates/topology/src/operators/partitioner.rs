//! The Partitioner: sliding window and partitions on request (§3.2, §6.2).

use crate::messages::Msg;
use setcorr_core::{AlgorithmKind, PartitionInput, PartitionerOutput};
use setcorr_engine::{Bolt, Emitter};
use setcorr_model::{TagSetWindow, WindowKind};
use std::sync::Arc;

/// Maintains the sliding window and produces partitions on request (§3.2,
/// §6.2). DS Partitioners emit raw disjoint sets; SC* Partitioners run the
/// full algorithm.
pub struct PartitionerBolt {
    task: usize,
    algorithm: AlgorithmKind,
    k: usize,
    seed: u64,
    window: TagSetWindow,
}

impl PartitionerBolt {
    /// Partitioner task `task` with the given algorithm, target partition
    /// count, window extent and SCI seed.
    pub fn new(
        task: usize,
        algorithm: AlgorithmKind,
        k: usize,
        window: WindowKind,
        seed: u64,
    ) -> Self {
        PartitionerBolt {
            task,
            algorithm,
            k,
            seed,
            window: TagSetWindow::new(window),
        }
    }
}

impl Bolt<Msg> for PartitionerBolt {
    fn on_message(&mut self, msg: Msg, out: &mut dyn Emitter<Msg>) {
        match msg {
            Msg::TagSet { time, tags } => {
                self.window.insert(tags, time);
            }
            Msg::RepartitionRequest { epoch, .. } => {
                // One pass over the live window statistics: the input's
                // sorted distinct-tagset stats double as the snapshot the
                // Merger evaluates reference quality against.
                let input = PartitionInput::from_window(&self.window);
                let snapshot = input.stats.clone();
                let output =
                    PartitionerOutput::compute(self.algorithm, &input, self.k, self.seed ^ epoch);
                out.emit(
                    "parts",
                    Msg::PartitionerParts {
                        epoch,
                        partitioner: self.task,
                        output: Arc::new(output),
                        snapshot: Arc::new(snapshot),
                    },
                );
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::test_support::{ts, Capture};
    use setcorr_model::Timestamp;

    #[test]
    fn partitioner_answers_repartition_requests() {
        let mut p = PartitionerBolt::new(0, AlgorithmKind::Ds, 2, WindowKind::Count(100), 7);
        let mut cap = Capture::default();
        p.on_message(
            Msg::TagSet {
                time: Timestamp(0),
                tags: ts(&[1, 2]),
            },
            &mut cap,
        );
        p.on_message(
            Msg::RepartitionRequest {
                epoch: 3,
                cause: None,
            },
            &mut cap,
        );
        assert_eq!(cap.emitted.len(), 1);
        match &cap.emitted[0] {
            (
                "parts",
                Msg::PartitionerParts {
                    epoch,
                    output,
                    snapshot,
                    ..
                },
            ) => {
                assert_eq!(*epoch, 3);
                assert_eq!(snapshot.len(), 1);
                match &**output {
                    PartitionerOutput::DisjointSets(sets) => assert_eq!(sets.len(), 1),
                    _ => panic!("DS must emit disjoint sets"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
