//! Immutable, epoch-stamped views over one report round's deduplicated
//! coefficients, with the two query indexes built once at publish time: the
//! descending-Jaccard order and one flat array of every tag's neighbour row.

use setcorr_core::TrackedCoefficient;
use setcorr_model::{FxHashMap, Tag, TagSet};
use std::sync::Arc;

/// One published view of the Tracker's output: everything the round's
/// deduplicated coefficients can answer, frozen.
///
/// A snapshot is built *off to the side* by the publisher and becomes
/// visible atomically, so every field is consistent with every other —
/// readers can never observe a half-built index. The coefficient storage is
/// shared (`Arc`) with the run recorder: publishing does not copy the
/// round's reports, only indexes them.
///
/// Index layout: `coefficients` is sorted by tagset (the Tracker's output
/// order), `by_jaccard` and the per-tag neighbourhood rows hold `u32`
/// positions into it, ordered by descending Jaccard (ties broken by tagset,
/// ascending, so the ordering is total and runs are comparable
/// byte-for-byte).
#[derive(Debug)]
pub struct Snapshot {
    /// Report round this snapshot publishes, `None` only for the initial
    /// empty snapshot that exists before the first round closes.
    round: Option<u64>,
    /// Publication sequence number: 0 for the initial empty snapshot, then
    /// 1, 2, … — strictly monotone, the staleness clock.
    seq: u64,
    /// The round's deduplicated coefficients, sorted by tagset.
    coefficients: Arc<Vec<TrackedCoefficient>>,
    /// All coefficient positions, ordered by descending Jaccard.
    by_jaccard: Vec<u32>,
    /// Per-tag inverted neighbourhood index, every row in one array: for
    /// tag `t`, the positions of every tracked tagset containing `t`,
    /// ordered by descending Jaccard.
    positions: Vec<u32>,
    /// Where each tag's row lies in `positions`: `(start, len)`, in the map
    /// value itself so a query pays one dependent miss, not two.
    rows: FxHashMap<Tag, (u32, u32)>,
}

impl Snapshot {
    /// The empty pre-publication snapshot (sequence 0, no round).
    pub fn empty() -> Self {
        Snapshot {
            round: None,
            seq: 0,
            coefficients: Arc::new(Vec::new()),
            by_jaccard: Vec::new(),
            positions: Vec::new(),
            rows: FxHashMap::default(),
        }
    }

    /// Build the snapshot for `round` over `coefficients` (the Tracker's
    /// per-round output: sorted by tagset, one entry per tagset).
    ///
    /// `seq` is the publication sequence the store assigns. Building is the
    /// only O(n log n) work of a publication (one sort of flat keys); the
    /// neighbour index is counted in one pass — a map probe per coefficient
    /// and tag — and placed in a second that hashes nothing, into rows that
    /// never grow. The swap itself is one pointer store.
    pub fn build(round: u64, seq: u64, coefficients: Arc<Vec<TrackedCoefficient>>) -> Self {
        debug_assert!(
            coefficients.windows(2).all(|w| w[0].tags < w[1].tags),
            "tracker output must be strictly sorted by tagset"
        );
        debug_assert!(
            coefficients
                .iter()
                .all(|c| c.jaccard.is_finite() && c.jaccard.is_sign_positive()),
            "a published Jaccard is finite and not negative: its bits order like its value"
        );
        // Descending Jaccard on flat keys: for non-negative floats the
        // complemented bit pattern ascends as the value descends, so the
        // sort never touches `coefficients`. Keys compare equal only for
        // equal coefficients, and the position tie-break (ascending
        // position == ascending tagset) keeps the order total and
        // deterministic.
        let mut keyed: Vec<(u64, u32)> = coefficients
            .iter()
            .zip(0u32..)
            .map(|(c, pos)| (!c.jaccard.to_bits(), pos))
            .collect();
        keyed.sort_unstable();
        let by_jaccard: Vec<u32> = keyed.into_iter().map(|(_, pos)| pos).collect();
        // Count: each (coefficient, tag) probes the map once, lengthens its
        // row and notes the row's id — rows are numbered as first seen, the
        // id waits where the row's start will go — among its coefficient's,
        // `row_ids[first[pos]..first[pos + 1]]`.
        let mut rows: FxHashMap<Tag, (u32, u32)> = FxHashMap::default();
        let mut row_ids: Vec<u32> = Vec::with_capacity(2 * coefficients.len());
        let mut first: Vec<usize> = Vec::with_capacity(coefficients.len() + 1);
        for coefficient in coefficients.iter() {
            first.push(row_ids.len());
            for tag in coefficient.tags.iter() {
                let fresh = rows.len() as u32;
                let row = rows.entry(tag).or_insert((fresh, 0));
                row.1 += 1;
                row_ids.push(row.0);
            }
        }
        first.push(row_ids.len());
        assert!(row_ids.len() <= u32::MAX as usize, "rows are u32-addressed");
        // Place: a cursor per row, starting where the rows before it end;
        // by_jaccard order fills every row in descending Jaccard unhashed.
        let mut cursors = vec![0u32; rows.len()];
        for &(id, len) in rows.values() {
            cursors[id as usize] = len;
        }
        let mut start = 0;
        for cursor in &mut cursors {
            start += std::mem::replace(cursor, start);
        }
        let mut positions = vec![0u32; row_ids.len()];
        for &pos in &by_jaccard {
            for &id in &row_ids[first[pos as usize]..first[pos as usize + 1]] {
                positions[cursors[id as usize] as usize] = pos;
                cursors[id as usize] += 1;
            }
        }
        for row in rows.values_mut() {
            row.0 = cursors[row.0 as usize] - row.1;
        }
        Snapshot {
            round: Some(round),
            seq,
            coefficients,
            by_jaccard,
            positions,
            rows,
        }
    }

    /// The report round this snapshot publishes (`None` before the first
    /// publication).
    pub fn round(&self) -> Option<u64> {
        self.round
    }

    /// Publication sequence number (0 = the initial empty snapshot).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Number of tracked tagsets in this round.
    pub fn len(&self) -> usize {
        self.coefficients.len()
    }

    /// True when the snapshot tracks nothing (including pre-publication).
    pub fn is_empty(&self) -> bool {
        self.coefficients.is_empty()
    }

    /// The round's deduplicated coefficients, sorted by tagset — the same
    /// storage the run recorder holds (shared, never copied at publish).
    pub fn coefficients(&self) -> &Arc<Vec<TrackedCoefficient>> {
        &self.coefficients
    }

    /// The `k` most correlated tagsets of the round, best first.
    pub fn top_k(&self, k: usize) -> impl Iterator<Item = &TrackedCoefficient> {
        self.by_jaccard
            .iter()
            .take(k)
            .map(|&pos| &self.coefficients[pos as usize])
    }

    /// The `k` most correlated tagsets *containing `tag`*, best first —
    /// one map probe for the tag's row, then a slice of it: no scan.
    pub fn neighbors(&self, tag: Tag, k: usize) -> impl Iterator<Item = &TrackedCoefficient> {
        let (start, len) = self.rows.get(&tag).copied().unwrap_or((0, 0));
        self.positions[start as usize..][..k.min(len as usize)]
            .iter()
            .map(|&pos| &self.coefficients[pos as usize])
    }

    /// Number of tracked tagsets containing `tag`.
    pub fn neighbor_count(&self, tag: Tag) -> usize {
        self.rows.get(&tag).map_or(0, |row| row.1 as usize)
    }

    /// This round's coefficient for exactly `tags` (binary search over the
    /// tagset-sorted storage).
    pub fn coefficient(&self, tags: &TagSet) -> Option<&TrackedCoefficient> {
        self.coefficients
            .binary_search_by(|c| c.tags.cmp(tags))
            .ok()
            .map(|pos| &self.coefficients[pos])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coeff(ids: &[u32], jaccard: f64) -> TrackedCoefficient {
        TrackedCoefficient {
            tags: TagSet::from_ids(ids),
            jaccard,
            counter: 1,
            reporters: 1,
        }
    }

    fn sample() -> Snapshot {
        // sorted by tagset, as the Tracker emits
        let coeffs = Arc::new(vec![
            coeff(&[1, 2], 0.5),
            coeff(&[1, 3], 0.9),
            coeff(&[2, 3], 0.9),
            coeff(&[4, 5], 0.1),
        ]);
        Snapshot::build(7, 1, coeffs)
    }

    #[test]
    fn empty_snapshot_answers_nothing() {
        let s = Snapshot::empty();
        assert_eq!(s.round(), None);
        assert_eq!(s.seq(), 0);
        assert!(s.is_empty());
        assert_eq!(s.top_k(5).count(), 0);
        assert_eq!(s.neighbors(Tag(1), 5).count(), 0);
        assert!(s.coefficient(&TagSet::from_ids(&[1, 2])).is_none());
    }

    #[test]
    fn top_k_orders_by_jaccard_with_tagset_tiebreak() {
        let s = sample();
        let top: Vec<&TrackedCoefficient> = s.top_k(3).collect();
        // 0.9 ties break by tagset order: {1,3} before {2,3}
        assert_eq!(top[0].tags, TagSet::from_ids(&[1, 3]));
        assert_eq!(top[1].tags, TagSet::from_ids(&[2, 3]));
        assert_eq!(top[2].tags, TagSet::from_ids(&[1, 2]));
        assert_eq!(s.top_k(100).count(), 4, "k beyond len is clamped");
    }

    #[test]
    fn neighbors_answer_per_tag_without_scan() {
        let s = sample();
        let n3: Vec<&TrackedCoefficient> = s.neighbors(Tag(3), 10).collect();
        assert_eq!(n3.len(), 2);
        assert!(n3.iter().all(|c| c.tags.iter().any(|t| t == Tag(3))));
        assert_eq!(n3[0].tags, TagSet::from_ids(&[1, 3]), "best first");
        assert_eq!(s.neighbors(Tag(1), 1).count(), 1, "k truncates");
        assert_eq!(s.neighbor_count(Tag(2)), 2);
        assert_eq!(s.neighbors(Tag(99), 10).count(), 0, "unknown tag");
    }

    #[test]
    fn coefficient_lookup_is_exact() {
        let s = sample();
        let c = s.coefficient(&TagSet::from_ids(&[2, 3])).unwrap();
        assert_eq!(c.jaccard, 0.9);
        assert!(s.coefficient(&TagSet::from_ids(&[1, 2, 3])).is_none());
        assert_eq!(s.round(), Some(7));
        assert_eq!(s.seq(), 1);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn publishing_shares_the_coefficient_storage() {
        let coeffs = Arc::new(vec![coeff(&[1, 2], 0.5)]);
        let s = Snapshot::build(0, 1, coeffs.clone());
        assert!(Arc::ptr_eq(s.coefficients(), &coeffs), "no copy at publish");
    }

    /// 10 k coefficients dense in exact ties: small-integer ratios, a
    /// quarter of them 1.0, and some 0.0 (an approximate backend's estimate
    /// when no signature slot matches).
    fn tied_fixture() -> Vec<TrackedCoefficient> {
        let mut state = 0x5EED_u64;
        let mut rnd = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let coeffs: Vec<TrackedCoefficient> = (0..142u32)
            .flat_map(|a| (a + 1..142).map(move |b| [a, b]))
            .take(10_000)
            .map(|pair| {
                let den = 1 + rnd(8);
                let num = if rnd(4) == 0 { den } else { rnd(den + 1) };
                coeff(&pair, num as f64 / den as f64)
            })
            .collect();
        assert_eq!(coeffs.len(), 10_000);
        coeffs
    }

    #[test]
    fn flat_key_sort_orders_like_the_float_comparator() {
        let coeffs = tied_fixture();
        // the comparator `build` used before it sorted flat keys
        let mut expected: Vec<usize> = (0..coeffs.len()).collect();
        expected.sort_by(|&a, &b| {
            coeffs[b]
                .jaccard
                .partial_cmp(&coeffs[a].jaccard)
                .unwrap()
                .then(a.cmp(&b))
        });
        let snapshot = Snapshot::build(0, 1, Arc::new(coeffs.clone()));
        let got: Vec<&TagSet> = snapshot.top_k(usize::MAX).map(|c| &c.tags).collect();
        let expected: Vec<&TagSet> = expected.iter().map(|&pos| &coeffs[pos].tags).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn every_neighbour_row_is_the_brute_force_filter_in_jaccard_order() {
        let coeffs = tied_fixture();
        let snapshot = Snapshot::build(0, 1, Arc::new(coeffs.clone()));
        // the rows tile `positions`: none overlaps, none is left out
        let mut rows: Vec<(u32, u32)> = snapshot.rows.values().copied().collect();
        rows.sort_unstable();
        assert_eq!(rows.len(), 142);
        assert_eq!(rows[0].0, 0);
        assert!(rows.windows(2).all(|w| w[0].0 + w[0].1 == w[1].0));
        let (start, len) = rows[rows.len() - 1];
        assert_eq!((start + len) as usize, snapshot.positions.len());
        assert_eq!(snapshot.positions.len(), 2 * coeffs.len());
        // every tag, the first row (tag 0) and the last (tag 141) among them
        for tag in (0..142).map(Tag) {
            let mut expected: Vec<&TrackedCoefficient> =
                coeffs.iter().filter(|c| c.tags.contains(tag)).collect();
            expected.sort_by(|a, b| {
                b.jaccard
                    .partial_cmp(&a.jaccard)
                    .unwrap()
                    .then_with(|| a.tags.cmp(&b.tags))
            });
            let got: Vec<&TrackedCoefficient> = snapshot.neighbors(tag, usize::MAX).collect();
            assert_eq!(got, expected, "row of {tag:?}");
            assert_eq!(snapshot.neighbor_count(tag), expected.len());
            let best: Vec<&TrackedCoefficient> = snapshot.neighbors(tag, 3).collect();
            assert_eq!(
                best,
                expected[..3.min(expected.len())],
                "k truncates {tag:?}"
            );
        }
        assert_eq!(
            snapshot.rows[&Tag(0)].0,
            0,
            "rows are numbered as first seen"
        );
        assert_eq!(snapshot.rows[&Tag(141)], (start, len));
        assert_eq!(snapshot.neighbors(Tag(142), usize::MAX).count(), 0);
        assert_eq!(snapshot.neighbor_count(Tag(142)), 0);
    }
}
