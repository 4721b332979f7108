//! The Merger: one partition map per epoch and Single Additions (§6.2, §7.1).

use crate::messages::Msg;
use crate::recorder::SharedRecorder;
use setcorr_core::{AlgorithmKind, Merger, PartitionInput, PartitionerOutput};
use setcorr_engine::{Bolt, Emitter};
use setcorr_model::{FxHashMap, TagSetStat};
use std::sync::Arc;

/// One Partitioner's contribution to an epoch: its output and its window
/// snapshot (for reference-quality evaluation).
type PartitionerContribution = (Arc<PartitionerOutput>, Arc<Vec<TagSetStat>>);

/// Combines `P` Partitioner outputs per epoch and answers Single Additions
/// (§6.2, §7.1).
pub struct MergerBolt {
    merger: Merger,
    expected: usize,
    sn_load_hint: u64,
    /// §7.3 elastic scaling: target window documents per active Calculator
    /// (`None` = always use all `k`).
    elastic_docs_per_calc: Option<u64>,
    pending: FxHashMap<u64, Vec<PartitionerContribution>>,
    merged_epochs: u64,
    recorder: SharedRecorder,
}

impl MergerBolt {
    /// Merger expecting `expected` Partitioner contributions per epoch.
    pub fn new(
        algorithm: AlgorithmKind,
        k: usize,
        expected: usize,
        sn_load_hint: u64,
        recorder: SharedRecorder,
    ) -> Self {
        MergerBolt {
            merger: Merger::new(algorithm, k),
            expected,
            sn_load_hint,
            elastic_docs_per_calc: None,
            pending: FxHashMap::default(),
            merged_epochs: 0,
            recorder,
        }
    }

    /// Enable §7.3 elastic scaling: size the active partition count to
    /// roughly `docs` window documents per Calculator.
    pub fn with_elastic(mut self, docs: Option<u64>) -> Self {
        self.elastic_docs_per_calc = docs;
        self
    }
}

impl Bolt<Msg> for MergerBolt {
    fn on_message(&mut self, msg: Msg, out: &mut dyn Emitter<Msg>) {
        match msg {
            Msg::PartitionerParts {
                epoch,
                output,
                snapshot,
                ..
            } => {
                let batch = self.pending.entry(epoch).or_default();
                batch.push((output, snapshot));
                if batch.len() < self.expected {
                    return;
                }
                let batch = self.pending.remove(&epoch).expect("just inserted");
                let mut stats: Vec<TagSetStat> = Vec::new();
                let mut outputs: Vec<PartitionerOutput> = Vec::with_capacity(batch.len());
                for (output, snapshot) in batch {
                    stats.extend(snapshot.iter().cloned());
                    outputs.push((*output).clone());
                }
                let window = PartitionInput::from_stats(stats);
                let outcome = match self.elastic_docs_per_calc {
                    Some(target) if target > 0 => {
                        let k_active = window.total_docs.div_ceil(target).max(1) as usize;
                        self.merger.merge_with_k(outputs, &window, k_active)
                    }
                    _ => self.merger.merge(outputs, &window),
                };
                self.merged_epochs += 1;
                let mut partitions = outcome.partitions;
                // Graceful degradation: a permanently failed Calculator must
                // never be assigned tags again — clear its partition so the
                // Disseminator's coverage check routes its tagsets elsewhere
                // (or honestly counts them unrouted when nobody else covers
                // them), instead of notifying a tombstone.
                let dead = {
                    let mut rec = self.recorder.lock();
                    rec.merges += 1;
                    rec.degraded_calcs().clone()
                };
                for task in dead {
                    if let Some(part) = partitions.parts.get_mut(task) {
                        part.tags.clear();
                        part.load = 0;
                    }
                }
                out.emit(
                    "partitions",
                    Msg::NewPartitions {
                        epoch,
                        partitions: Arc::new(partitions),
                        reference: outcome.reference,
                    },
                );
            }
            Msg::AdditionRequest { tags } => {
                if let Some(calc) = self.merger.single_addition(&tags, self.sn_load_hint) {
                    self.recorder.lock().single_additions += 1;
                    out.emit("additions", Msg::AdditionResponse { tags, calc });
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::test_support::{ts, Capture};
    use crate::recorder::RunRecorder;
    use setcorr_core::WeightedTagList;
    use setcorr_model::Tag;

    #[test]
    fn merger_waits_for_all_partitioners() {
        let recorder = RunRecorder::shared(2);
        let mut m = MergerBolt::new(AlgorithmKind::Ds, 2, 2, 3, recorder.clone());
        let mut cap = Capture::default();
        let part = |task: usize, ids: &[u32]| Msg::PartitionerParts {
            epoch: 0,
            partitioner: task,
            output: Arc::new(PartitionerOutput::DisjointSets(vec![WeightedTagList {
                tags: ids.iter().map(|&i| Tag(i)).collect(),
                load: 1,
            }])),
            snapshot: Arc::new(vec![TagSetStat {
                tags: ts(ids),
                count: 1,
            }]),
        };
        m.on_message(part(0, &[1, 2]), &mut cap);
        assert!(cap.emitted.is_empty(), "must wait for P outputs");
        m.on_message(part(1, &[3]), &mut cap);
        assert_eq!(cap.emitted.len(), 1);
        assert!(matches!(
            cap.emitted[0].1,
            Msg::NewPartitions { epoch: 0, .. }
        ));
        assert_eq!(recorder.lock().merges, 1);
    }

    #[test]
    fn merger_strips_exactly_the_degraded_calculators_partition_beyond_task_63() {
        // 66 disjoint singleton sets over k = 66: every partition gets one.
        let k = 66;
        let recorder = RunRecorder::shared(k);
        recorder.lock().mark_degraded(65);
        let mut m = MergerBolt::new(AlgorithmKind::Ds, k, 1, 3, recorder);
        let mut cap = Capture::default();
        let ids: Vec<u32> = (1..=k as u32).collect();
        m.on_message(
            Msg::PartitionerParts {
                epoch: 0,
                partitioner: 0,
                output: Arc::new(PartitionerOutput::DisjointSets(
                    ids.iter()
                        .map(|&i| WeightedTagList {
                            tags: vec![Tag(i)],
                            load: 1,
                        })
                        .collect(),
                )),
                snapshot: Arc::new(
                    ids.iter()
                        .map(|&i| TagSetStat {
                            tags: ts(&[i]),
                            count: 1,
                        })
                        .collect(),
                ),
            },
            &mut cap,
        );
        let Msg::NewPartitions { partitions, .. } = &cap.emitted[0].1 else {
            panic!("expected NewPartitions");
        };
        assert!(partitions.parts[65].tags.is_empty(), "dead task stripped");
        assert_eq!(partitions.parts[65].load, 0);
        for live in (0..k).filter(|&i| i != 65) {
            assert!(
                !partitions.parts[live].tags.is_empty(),
                "live calculator {live} must keep its partition"
            );
        }
    }
}
