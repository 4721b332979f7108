//! Partitioning input: the window contents in the shape the algorithms need.
//!
//! All four algorithms of §4 consume the same information: the distinct
//! tagsets `S` currently in the window, their occurrence counts, and the
//! per-tagset *load* `l_j = |⋃_{t_i ∈ s_j} T_i|` — the number of window
//! documents annotated with **any** tag of `s_j`. Because every document
//! carries exactly one tagset, a document is in `⋃ T_i` iff its tagset shares
//! a tag with `s_j`, so loads are computable from distinct-tagset counts and
//! a tag → tagset postings index without storing documents.

use setcorr_model::{FxHashMap, Tag, TagSet, TagSetStat, TagSetWindow};

/// Dense index of a distinct tagset within a [`PartitionInput`].
pub type TagSetIdx = u32;

/// The input to one partitioning run.
#[derive(Debug, Clone)]
pub struct PartitionInput {
    /// Distinct tagsets with their window occurrence counts, sorted by
    /// tagset for determinism.
    pub stats: Vec<TagSetStat>,
    /// `loads[j] = l_j`: window documents annotated with any tag of
    /// `stats[j].tags`.
    pub loads: Vec<u64>,
    /// tag → indices (into `stats`) of the tagsets containing it.
    pub postings: FxHashMap<Tag, Vec<TagSetIdx>>,
    /// Total window documents (Σ counts), including untagged-set duplicates.
    pub total_docs: u64,
}

impl PartitionInput {
    /// Build from a window snapshot. Empty tagsets are dropped (untagged
    /// documents never reach the Partitioner).
    pub fn from_stats(mut stats: Vec<TagSetStat>) -> Self {
        stats.retain(|s| !s.tags.is_empty());
        stats.sort_unstable_by(|a, b| a.tags.cmp(&b.tags));
        stats.dedup_by(|dup, keep| {
            if dup.tags == keep.tags {
                keep.count += dup.count;
                true
            } else {
                false
            }
        });

        let mut postings: FxHashMap<Tag, Vec<TagSetIdx>> = FxHashMap::default();
        let mut total_docs = 0u64;
        for (j, stat) in stats.iter().enumerate() {
            total_docs += stat.count;
            for t in &stat.tags {
                postings.entry(t).or_default().push(j as TagSetIdx);
            }
        }

        // loads[j]: union over tags of s_j of the posting lists, deduplicated
        // with a visit-stamp array (tagsets sharing several tags with s_j are
        // counted once).
        let mut loads = vec![0u64; stats.len()];
        let mut stamp = vec![u32::MAX; stats.len()];
        for (j, stat) in stats.iter().enumerate() {
            let mut load = 0u64;
            for t in &stat.tags {
                for &other in &postings[&t] {
                    if stamp[other as usize] != j as u32 {
                        stamp[other as usize] = j as u32;
                        load += stats[other as usize].count;
                    }
                }
            }
            loads[j] = load;
        }

        PartitionInput {
            stats,
            loads,
            postings,
            total_docs,
        }
    }

    /// Build directly from a live [`TagSetWindow`] — the Partitioner's path
    /// when answering a live repartition request. Each live document
    /// enters as one `count: 1` stat, and [`from_stats`](Self::from_stats)'s
    /// sort-and-merge aggregates them: one pass and one sort. The resulting
    /// sorted [`stats`](Self::stats) can double as the window snapshot for
    /// downstream consumers, instead of sorting a separate
    /// [`snapshot`](TagSetWindow::snapshot) a second time.
    pub fn from_window(window: &TagSetWindow) -> Self {
        Self::from_stats(
            window
                .live_tagsets()
                .map(|tags| TagSetStat {
                    tags: tags.clone(),
                    count: 1,
                })
                .collect(),
        )
    }

    /// Number of distinct tagsets.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// True when the window was empty.
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// Number of distinct tags in the window (`|TG|` restricted to it).
    pub fn distinct_tags(&self) -> usize {
        self.postings.len()
    }

    /// The tagset at index `j`.
    pub fn tagset(&self, j: TagSetIdx) -> &TagSet {
        &self.stats[j as usize].tags
    }

    /// The occurrence count of tagset `j`.
    pub fn count(&self, j: TagSetIdx) -> u64 {
        self.stats[j as usize].count
    }

    /// The load `l_j` of tagset `j`.
    pub fn load(&self, j: TagSetIdx) -> u64 {
        self.loads[j as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(ids: &[u32], count: u64) -> TagSetStat {
        TagSetStat {
            tags: TagSet::from_ids(ids),
            count,
        }
    }

    #[test]
    fn dedup_and_totals() {
        let input = PartitionInput::from_stats(vec![
            stat(&[1, 2], 3),
            stat(&[2, 1], 2), // same set, different order
            stat(&[3], 5),
            stat(&[], 7), // untagged dropped
        ]);
        assert_eq!(input.len(), 2);
        assert_eq!(input.total_docs, 10);
        assert_eq!(input.count(0), 5);
        assert_eq!(input.distinct_tags(), 3);
    }

    #[test]
    fn loads_count_intersecting_documents_once() {
        // {1,2}×3 docs, {2,3}×2 docs, {4}×10 docs
        let input =
            PartitionInput::from_stats(vec![stat(&[1, 2], 3), stat(&[2, 3], 2), stat(&[4], 10)]);
        let idx = |ids: &[u32]| {
            input
                .stats
                .iter()
                .position(|s| s.tags == TagSet::from_ids(ids))
                .unwrap() as TagSetIdx
        };
        // l({1,2}) = docs containing 1 or 2 = 3 + 2
        assert_eq!(input.load(idx(&[1, 2])), 5);
        // l({2,3}) = docs containing 2 or 3 = 3 + 2 (the {1,2} docs via tag 2)
        assert_eq!(input.load(idx(&[2, 3])), 5);
        // l({4}) = 10
        assert_eq!(input.load(idx(&[4])), 10);
    }

    #[test]
    fn paper_figure1_example_loads() {
        // Figure 1: {munich,beer,soccer}×10, {beer,pizza}×4, {munich,
        // oktoberfest}×3, {bavaria,soccer}×1, {beach,sunny}×2, {friday,
        // sunny}×1. Tags: munich=0 beer=1 soccer=2 pizza=3 oktoberfest=4
        // bavaria=5 beach=6 sunny=7 friday=8.
        let input = PartitionInput::from_stats(vec![
            stat(&[0, 1, 2], 10),
            stat(&[1, 3], 4),
            stat(&[0, 4], 3),
            stat(&[5, 2], 1),
            stat(&[6, 7], 2),
            stat(&[8, 7], 1),
        ]);
        assert_eq!(input.total_docs, 21);
        let idx = |ids: &[u32]| {
            input
                .stats
                .iter()
                .position(|s| s.tags == TagSet::from_ids(ids))
                .unwrap() as TagSetIdx
        };
        // The big component {munich,beer,soccer,pizza,oktoberfest,bavaria}
        // carries 18 of 21 docs (~86 % as the paper says).
        assert_eq!(input.load(idx(&[0, 1, 2])), 10 + 4 + 3 + 1);
        assert_eq!(input.load(idx(&[6, 7])), 2 + 1);
        assert_eq!(input.load(idx(&[7, 8])), 2 + 1);
        assert_eq!(input.load(idx(&[1, 3])), 10 + 4);
    }

    #[test]
    fn postings_cover_every_member() {
        let input = PartitionInput::from_stats(vec![stat(&[1, 2], 1), stat(&[2, 3], 1)]);
        assert_eq!(input.postings[&Tag(2)].len(), 2);
        assert_eq!(input.postings[&Tag(1)].len(), 1);
    }

    #[test]
    fn empty_input() {
        let input = PartitionInput::from_stats(vec![]);
        assert!(input.is_empty());
        assert_eq!(input.total_docs, 0);
        assert_eq!(input.distinct_tags(), 0);
    }
}
