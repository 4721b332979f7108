//! The Merger operator (§6.2, §7.1).
//!
//! With `P` parallel Partitioners, each produces partitions (or, for DS, raw
//! disjoint sets) over its share of the window; the Merger combines them into
//! the final `k` partitions:
//!
//! * **DS**: Partitioners run only phase 1; the Merger re-unions sets that
//!   share tags across Partitioners (tagsets are field-grouped, so the same
//!   *tag* can appear at several Partitioners) and packs the merged sets
//!   LPT-style — preserving the disjointness invariant.
//! * **SC\***: the Merger treats each incoming partition as one weighted tag
//!   group and re-runs the same greedy: heaviest `k` groups seed the bins,
//!   the rest join per the variant's criterion. (The paper says the Merger
//!   "creates the final partitions using the same algorithm the Partitioners
//!   use"; partitions can exceed the per-document tagset size cap, so this
//!   runs on raw tag lists rather than `TagSet`s.)
//!
//! The Merger also computes the reference quality (`avgCom`, `maxLoad`) on
//! the combined window snapshot — the values the Disseminators monitor
//! against (§7.2) — and answers Single Addition requests (§7.1).

use crate::algorithms::{
    best_partition_for_addition_among, disjoint_sets, partition, partition_setcover_groups,
    AlgorithmKind, SetCoverVariant, WeightedTagList,
};
use crate::input::PartitionInput;
use crate::partition::{CalcId, PartitionQuality, PartitionSet};
use crate::quality::QualityReference;
use crate::union_find::UnionFind;
use setcorr_model::{FxHashMap, Tag, TagSet};

/// What one Partitioner hands to the Merger.
#[derive(Debug, Clone)]
pub enum PartitionerOutput {
    /// DS phase-1 output: raw disjoint sets with loads.
    DisjointSets(Vec<WeightedTagList>),
    /// SC* output: `k` partitions (converted to weighted tag groups here).
    Partitions(PartitionSet),
}

impl PartitionerOutput {
    /// Run one Partitioner's share of the §6.2 protocol over `input`: DS
    /// stops after phase 1 and ships the raw disjoint sets, SC* partitions
    /// fully into `k` (`seed` as in [`partition`]).
    pub fn compute(kind: AlgorithmKind, input: &PartitionInput, k: usize, seed: u64) -> Self {
        match kind {
            AlgorithmKind::Ds => PartitionerOutput::DisjointSets(disjoint_sets(input)),
            _ => PartitionerOutput::Partitions(partition(kind, input, k, seed)),
        }
    }
}

/// The Merger's result: final partitions plus their reference quality.
#[derive(Debug, Clone)]
pub struct MergeOutcome {
    /// The final `k` partitions.
    pub partitions: PartitionSet,
    /// Reference `avgCom`/`maxLoad` for the Disseminators (§7.2).
    pub reference: QualityReference,
    /// Full quality evaluation on the combined window (for metrics).
    pub quality: PartitionQuality,
}

/// Merger state.
#[derive(Debug)]
pub struct Merger {
    kind: AlgorithmKind,
    k: usize,
    current: Option<PartitionSet>,
    /// Populated partition count of the last merge (§7.3 elastic scaling);
    /// Single Additions are restricted to these.
    active_k: usize,
    merges_performed: u64,
    additions_performed: u64,
}

impl Merger {
    /// A Merger producing `k` final partitions with algorithm `kind`.
    pub fn new(kind: AlgorithmKind, k: usize) -> Self {
        assert!(k >= 1);
        Merger {
            kind,
            k,
            current: None,
            active_k: k,
            merges_performed: 0,
            additions_performed: 0,
        }
    }

    /// The algorithm in use.
    pub fn kind(&self) -> AlgorithmKind {
        self.kind
    }

    /// The currently installed partitions, if any.
    pub fn current(&self) -> Option<&PartitionSet> {
        self.current.as_ref()
    }

    /// `(merges, single additions)` performed so far.
    pub fn counters(&self) -> (u64, u64) {
        (self.merges_performed, self.additions_performed)
    }

    /// Merge Partitioner outputs into the final `k` partitions, evaluating
    /// reference quality against `window` (the combined snapshot of all
    /// Partitioner windows).
    ///
    /// DS re-unions sets sharing tags and LPT-packs; the SC variants re-run
    /// *the same set-cover algorithm* over the incoming partitions treated
    /// as (weighted) tagsets, exactly as §6.2 prescribes.
    pub fn merge(
        &mut self,
        outputs: Vec<PartitionerOutput>,
        window: &PartitionInput,
    ) -> MergeOutcome {
        let k = self.k;
        self.merge_with_k(outputs, window, k)
    }

    /// Like [`Merger::merge`], but produce only `k_active ≤ k` *populated*
    /// partitions, padding with empty ones up to `k` — §7.3's topology
    /// scaling: "Only Calculators that are assigned a partition are indexed
    /// by the Disseminators, receive documents and compute Jaccard
    /// coefficients."
    pub fn merge_with_k(
        &mut self,
        outputs: Vec<PartitionerOutput>,
        window: &PartitionInput,
        k_active: usize,
    ) -> MergeOutcome {
        let k_active = k_active.clamp(1, self.k);
        let groups = collect_groups(outputs);
        let mut partitions = match self.kind {
            AlgorithmKind::Ds => merge_ds(groups, k_active),
            AlgorithmKind::Scl => partition_setcover_groups(
                groups,
                k_active,
                SetCoverVariant::Load,
                self.merges_performed,
            ),
            AlgorithmKind::Scc => partition_setcover_groups(
                groups,
                k_active,
                SetCoverVariant::Communication,
                self.merges_performed,
            ),
            AlgorithmKind::Sci => partition_setcover_groups(
                groups,
                k_active,
                SetCoverVariant::Independent,
                self.merges_performed,
            ),
        };
        self.active_k = partitions.parts.len().max(1);
        while partitions.parts.len() < self.k {
            partitions.parts.push(crate::partition::Partition::new());
        }
        let quality = partitions.evaluate(window);
        let reference = QualityReference {
            avg_com: quality.avg_communication,
            max_load: quality.max_load_share,
        };
        self.current = Some(partitions.clone());
        self.merges_performed += 1;
        MergeOutcome {
            partitions,
            reference,
            quality,
        }
    }

    /// Decide the partition for a Single Addition (§7.1) and record it.
    /// `load_hint` is the observed occurrence weight of the tagset (the
    /// Disseminator saw it `sn` times); it keeps the load bookkeeping of the
    /// SCL rule meaningful between repartitions.
    ///
    /// Returns `None` when no partitions have been installed yet.
    pub fn single_addition(&mut self, ts: &TagSet, load_hint: u64) -> Option<CalcId> {
        let active = self.active_k;
        let parts = self.current.as_mut()?;
        let candidates = &parts.parts[..active.min(parts.parts.len())];
        let calc = best_partition_for_addition_among(self.kind, ts, candidates);
        parts.parts[calc].absorb(ts, load_hint);
        self.additions_performed += 1;
        Some(calc)
    }
}

/// Flatten Partitioner outputs into weighted tag groups.
fn collect_groups(outputs: Vec<PartitionerOutput>) -> Vec<WeightedTagList> {
    let mut groups = Vec::new();
    for output in outputs {
        match output {
            PartitionerOutput::DisjointSets(sets) => groups.extend(sets),
            PartitionerOutput::Partitions(ps) => {
                for p in ps.parts {
                    if p.tags.is_empty() {
                        continue;
                    }
                    let mut tags: Vec<Tag> = p.tags.into_iter().collect();
                    tags.sort_unstable();
                    groups.push(WeightedTagList { tags, load: p.load });
                }
            }
        }
    }
    groups
}

/// DS merge: union groups sharing tags, then LPT-pack (§6.2).
fn merge_ds(groups: Vec<WeightedTagList>, k: usize) -> PartitionSet {
    // Dense-map all tags, union-find across groups.
    let mut tag_idx: FxHashMap<Tag, u32> = FxHashMap::default();
    let mut n_tags = 0u32;
    let mut dense: Vec<Vec<u32>> = Vec::with_capacity(groups.len());
    for g in &groups {
        let ids: Vec<u32> = g
            .tags
            .iter()
            .map(|&t| {
                *tag_idx.entry(t).or_insert_with(|| {
                    let id = n_tags;
                    n_tags += 1;
                    id
                })
            })
            .collect();
        dense.push(ids);
    }
    let mut uf = UnionFind::new(n_tags as usize);
    for ids in &dense {
        for w in ids.windows(2) {
            uf.union(w[0], w[1]);
        }
        if ids.len() >= 2 {
            uf.union(ids[0], *ids.last().expect("non-empty"));
        }
    }
    // Re-group by root; loads add up exactly because each document lives in
    // exactly one input group.
    let mut merged: FxHashMap<u32, WeightedTagList> = FxHashMap::default();
    let mut tag_of_dense: Vec<Tag> = vec![Tag(0); n_tags as usize];
    for (&t, &d) in &tag_idx {
        tag_of_dense[d as usize] = t;
    }
    let mut tag_seen: Vec<bool> = vec![false; n_tags as usize];
    for (g, ids) in groups.into_iter().zip(dense) {
        let Some(&first) = ids.first() else { continue };
        let root = uf.find(first);
        let entry = merged.entry(root).or_insert_with(|| WeightedTagList {
            tags: Vec::new(),
            load: 0,
        });
        entry.load += g.load;
        for id in ids {
            if !tag_seen[id as usize] {
                tag_seen[id as usize] = true;
                entry.tags.push(tag_of_dense[id as usize]);
            }
        }
    }
    let mut sets: Vec<WeightedTagList> = merged.into_values().collect();
    for s in &mut sets {
        s.tags.sort_unstable();
    }
    crate::algorithms::pack_sets(sets, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use setcorr_model::TagSetStat;

    fn wtl(ids: &[u32], load: u64) -> WeightedTagList {
        WeightedTagList {
            tags: ids.iter().map(|&i| Tag(i)).collect(),
            load,
        }
    }

    fn window(specs: &[(&[u32], u64)]) -> PartitionInput {
        PartitionInput::from_stats(
            specs
                .iter()
                .map(|(ids, c)| TagSetStat {
                    tags: TagSet::from_ids(ids),
                    count: *c,
                })
                .collect(),
        )
    }

    #[test]
    fn ds_merge_unions_overlapping_sets_across_partitioners() {
        // Partitioner A saw {1,2}; partitioner B saw {2,3}: they share tag 2
        // and must merge into one disjoint set.
        let mut m = Merger::new(AlgorithmKind::Ds, 2);
        let outcome = m.merge(
            vec![
                PartitionerOutput::DisjointSets(vec![wtl(&[1, 2], 5), wtl(&[7], 1)]),
                PartitionerOutput::DisjointSets(vec![wtl(&[2, 3], 4), wtl(&[8], 2)]),
            ],
            &window(&[(&[1, 2], 5), (&[2, 3], 4), (&[7], 1), (&[8], 2)]),
        );
        let ps = &outcome.partitions;
        assert!(
            (ps.replication_factor() - 1.0).abs() < 1e-12,
            "DS stays disjoint"
        );
        // merged {1,2,3} (load 9) alone; {7},{8} together (load 3)
        let mut loads: Vec<u64> = ps.parts.iter().map(|p| p.load).collect();
        loads.sort_unstable();
        assert_eq!(loads, vec![3, 9]);
        assert!(ps.covers(&TagSet::from_ids(&[1, 2])));
        assert!(ps.covers(&TagSet::from_ids(&[2, 3])));
    }

    #[test]
    fn sc_merge_produces_k_partitions_covering_inputs() {
        let mut ps1 = PartitionSet::empty(2);
        ps1.parts[0].absorb(&TagSet::from_ids(&[1, 2]), 6);
        ps1.parts[1].absorb(&TagSet::from_ids(&[3, 4]), 2);
        let mut ps2 = PartitionSet::empty(2);
        ps2.parts[0].absorb(&TagSet::from_ids(&[1, 5]), 3);
        ps2.parts[1].absorb(&TagSet::from_ids(&[6]), 1);
        let win = window(&[(&[1, 2], 3), (&[3, 4], 2), (&[1, 5], 3), (&[6], 1)]);
        for kind in [AlgorithmKind::Scc, AlgorithmKind::Scl, AlgorithmKind::Sci] {
            let mut m = Merger::new(kind, 2);
            let outcome = m.merge(
                vec![
                    PartitionerOutput::Partitions(ps1.clone()),
                    PartitionerOutput::Partitions(ps2.clone()),
                ],
                &win,
            );
            assert_eq!(outcome.partitions.k(), 2);
            assert_eq!(
                outcome.quality.uncovered_tagsets, 0,
                "{kind}: merged partitions must still cover the window"
            );
        }
    }

    #[test]
    fn scc_merge_prefers_overlap() {
        // Groups: heavy {1,2} (seed 0), heavy {8,9} (seed 1), then {2,3}
        // should join partition 0 (overlap), not the lighter one.
        let mut m = Merger::new(AlgorithmKind::Scc, 2);
        let outcome = m.merge(
            vec![PartitionerOutput::DisjointSets(vec![
                wtl(&[1, 2], 10),
                wtl(&[8, 9], 9),
                wtl(&[2, 3], 1),
            ])],
            &window(&[(&[1, 2], 10), (&[8, 9], 9), (&[2, 3], 1)]),
        );
        let owner = outcome
            .partitions
            .covering_partition(&TagSet::from_ids(&[2, 3]))
            .unwrap();
        assert!(outcome.partitions.parts[owner].covers(&TagSet::from_ids(&[1, 2])));
    }

    #[test]
    fn scl_merge_prefers_least_load() {
        // Same groups, SCL: {2,3} joins the lighter {8,9} partition.
        let mut m = Merger::new(AlgorithmKind::Scl, 2);
        let outcome = m.merge(
            vec![PartitionerOutput::DisjointSets(vec![
                wtl(&[1, 2], 10),
                wtl(&[8, 9], 5),
                wtl(&[2, 3], 1),
            ])],
            &window(&[(&[1, 2], 10), (&[8, 9], 5), (&[2, 3], 1)]),
        );
        let owner = outcome
            .partitions
            .covering_partition(&TagSet::from_ids(&[2, 3]))
            .unwrap();
        assert!(outcome.partitions.parts[owner].covers(&TagSet::from_ids(&[8, 9])));
    }

    #[test]
    fn reference_matches_evaluation() {
        let mut m = Merger::new(AlgorithmKind::Ds, 2);
        let win = window(&[(&[1, 2], 5), (&[3], 5)]);
        let outcome = m.merge(
            vec![PartitionerOutput::DisjointSets(vec![
                wtl(&[1, 2], 5),
                wtl(&[3], 5),
            ])],
            &win,
        );
        assert!((outcome.reference.avg_com - outcome.quality.avg_communication).abs() < 1e-12);
        assert!((outcome.reference.max_load - outcome.quality.max_load_share).abs() < 1e-12);
        assert!((outcome.reference.avg_com - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_addition_respects_algorithm_rule() {
        let win = window(&[(&[1, 2], 8), (&[5], 1)]);
        let outputs = || {
            vec![PartitionerOutput::DisjointSets(vec![
                wtl(&[1, 2], 8),
                wtl(&[5], 1),
            ])]
        };
        // DS-style: join max-overlap partition
        let mut m = Merger::new(AlgorithmKind::Ds, 2);
        m.merge(outputs(), &win);
        let c = m.single_addition(&TagSet::from_ids(&[2, 9]), 3).unwrap();
        assert!(m.current().unwrap().parts[c].covers(&TagSet::from_ids(&[1, 2])));
        assert!(m.current().unwrap().covers(&TagSet::from_ids(&[2, 9])));
        // SCL: join least-loaded partition
        let mut m = Merger::new(AlgorithmKind::Scl, 2);
        m.merge(outputs(), &win);
        let c = m.single_addition(&TagSet::from_ids(&[2, 9]), 3).unwrap();
        assert!(m.current().unwrap().parts[c].covers(&TagSet::from_ids(&[5])));
        assert_eq!(m.counters(), (1, 1));
    }

    #[test]
    fn single_addition_before_merge_is_none() {
        let mut m = Merger::new(AlgorithmKind::Ds, 2);
        assert_eq!(m.single_addition(&TagSet::from_ids(&[1]), 1), None);
    }

    #[test]
    fn ds_merge_chain_across_three_partitioners() {
        // {1,2} + {2,3} + {3,4} must collapse into a single set
        let mut m = Merger::new(AlgorithmKind::Ds, 3);
        let outcome = m.merge(
            vec![
                PartitionerOutput::DisjointSets(vec![wtl(&[1, 2], 1)]),
                PartitionerOutput::DisjointSets(vec![wtl(&[2, 3], 1)]),
                PartitionerOutput::DisjointSets(vec![wtl(&[3, 4], 1)]),
            ],
            &window(&[(&[1, 2], 1), (&[2, 3], 1), (&[3, 4], 1)]),
        );
        let non_empty: Vec<_> = outcome
            .partitions
            .parts
            .iter()
            .filter(|p| !p.tags.is_empty())
            .collect();
        assert_eq!(non_empty.len(), 1);
        assert_eq!(non_empty[0].tags.len(), 4);
        assert_eq!(non_empty[0].load, 3);
    }
}
