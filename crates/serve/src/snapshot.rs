//! Immutable, epoch-stamped views over one report round's deduplicated
//! coefficients, with the three query indexes built once at publish time:
//! the descending-Jaccard order, one flat array of every tag's neighbour row
//! with an open-addressed table of where each row lies, and an
//! open-addressed table of every tagset's position.

use setcorr_core::TrackedCoefficient;
use setcorr_model::{fx, FxHashMap, Tag, TagSet};
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
/// order); the three publish-time indexes hold `u32` positions into it.
/// `by_jaccard` and the per-tag neighbourhood rows are ordered by descending
/// Jaccard (ties broken by tagset, ascending, so the ordering is total and
/// runs are comparable byte-for-byte); `rows` finds a tag's row, and
/// `slots` a tagset's position, in one probe.
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
    /// Where each tag's row lies in `positions`: a power-of-two number of
    /// [`Row`]s, at least two per tag, each empty or the row of a tag that
    /// hashes there or, by linear probing, to a slot before it.
    rows: Vec<Row>,
    /// The exact-lookup table: a power-of-two number of slots, at least two
    /// per coefficient, each 0 (empty) or `pos + 1` of a coefficient whose
    /// tagset hashes there or, by linear probing, to a slot before it.
    slots: Vec<u32>,
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
            rows: vec![Row::EMPTY],
            slots: vec![0],
        }
    }

    /// Build the snapshot for `round` over `coefficients` (the Tracker's
    /// per-round output: sorted by tagset, one entry per tagset).
    ///
    /// `seq` is the publication sequence the store assigns. Building sorts
    /// nothing but the round's distinct Jaccard values: the order is a
    /// counting sort over them; the neighbour index is counted in one pass —
    /// a probe of the flat row table per coefficient and tag — and placed
    /// in a second that hashes nothing, into rows that never grow; the
    /// lookup table hashes each tagset once. The swap itself is one pointer
    /// store.
    ///
    /// This is the publisher's build run over empty [`Buffers`].
    pub fn build(round: u64, seq: u64, coefficients: Arc<Vec<TrackedCoefficient>>) -> Self {
        Self::build_in(&mut Buffers::default(), round, seq, coefficients)
    }

    /// [`Snapshot::build`] in `buffers`: the snapshot takes their index
    /// vectors, and the scratch stays behind for the next build. Every
    /// vector is cleared and sized once, before it is filled, so buffers
    /// that served a round as large allocate nothing.
    pub(crate) fn build_in(
        buffers: &mut Buffers,
        round: u64,
        seq: u64,
        coefficients: Arc<Vec<TrackedCoefficient>>,
    ) -> Self {
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
        let Buffers {
            by_jaccard,
            positions,
            rows,
            slots,
            buckets,
            keys,
            row_ids,
            first,
            tags,
        } = buffers;
        jaccard_order(&coefficients, buckets, keys, by_jaccard);
        // Count: each (coefficient, tag) probes the row table once,
        // lengthens its row and notes the row's slot among its
        // coefficient's, `row_ids[first[pos]..first[pos + 1]]`. A round
        // holds about one tag per dozen coefficients, so the table starts
        // with two slots per eighth of a coefficient, or two per tag of the
        // last build if that is more, and a real round never grows it; one
        // with more tags doubles it whenever it would pass half full, and
        // moves the slots noted so far along.
        let table = (coefficients.len() / 4).max(2 * (*tags + 1)).next_power_of_two();
        clear_for(rows, table);
        rows.resize(table, Row::EMPTY);
        *tags = 0;
        clear_for(row_ids, coefficients.iter().map(|c| c.tags.len()).sum());
        clear_for(first, coefficients.len() + 1);
        for coefficient in coefficients.iter() {
            first.push(row_ids.len() as u32);
            for tag in coefficient.tags.iter() {
                let mut at = row_slot(rows, tag);
                if rows[at].len == 0 {
                    if 2 * (*tags + 1) > rows.len() {
                        let grown = doubled(rows);
                        for id in row_ids.iter_mut() {
                            *id = row_slot(&grown, rows[*id as usize].tag) as u32;
                        }
                        *rows = grown;
                        at = row_slot(rows, tag);
                    }
                    rows[at].tag = tag;
                    *tags += 1;
                }
                rows[at].len += 1;
                row_ids.push(at as u32);
            }
        }
        assert!(row_ids.len() <= u32::MAX as usize, "rows are u32-addressed");
        first.push(row_ids.len() as u32);
        // Place: rows tile `positions` in slot order. Each row's start is
        // first its end, and a cursor that the reverse Jaccard order walks
        // down through the noted slots, hashing nothing, so that every row
        // fills in descending Jaccard.
        let mut end = 0;
        for row in rows.iter_mut() {
            end += row.len;
            row.start = end;
        }
        clear_for(positions, row_ids.len());
        positions.resize(row_ids.len(), 0);
        for &pos in by_jaccard.iter().rev() {
            let ids = first[pos as usize] as usize..first[pos as usize + 1] as usize;
            for &at in &row_ids[ids] {
                let row = &mut rows[at as usize];
                row.start -= 1;
                positions[row.start as usize] = pos;
            }
        }
        lookup_table(&coefficients, slots);
        Snapshot {
            round: Some(round),
            seq,
            coefficients,
            by_jaccard: std::mem::take(by_jaccard),
            positions: std::mem::take(positions),
            rows: std::mem::take(rows),
            slots: std::mem::take(slots),
        }
    }

    /// Hand this snapshot's index vectors back to `buffers` for the next
    /// build, letting go of its coefficients.
    pub(crate) fn recycle(self, buffers: &mut Buffers) {
        buffers.by_jaccard = self.by_jaccard;
        buffers.positions = self.positions;
        buffers.rows = self.rows;
        buffers.slots = self.slots;
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
    /// one probe for the tag's row, then a slice of it: no scan.
    pub fn neighbors(&self, tag: Tag, k: usize) -> impl Iterator<Item = &TrackedCoefficient> {
        let row = self.rows[row_slot(&self.rows, tag)];
        self.positions[row.start as usize..][..k.min(row.len as usize)]
            .iter()
            .map(|&pos| &self.coefficients[pos as usize])
    }

    /// Number of tracked tagsets containing `tag`.
    pub fn neighbor_count(&self, tag: Tag) -> usize {
        self.rows[row_slot(&self.rows, tag)].len as usize
    }

    /// This round's coefficient for exactly `tags`: one hash, then a probe
    /// of the lookup table from the slot it names to the first empty one,
    /// comparing the tagset of each coefficient met on the way.
    pub fn coefficient(&self, tags: &TagSet) -> Option<&TrackedCoefficient> {
        let mask = self.slots.len() - 1;
        let mut at = fx::hash_one(tags) as usize & mask;
        loop {
            let coefficient = &self.coefficients[self.slots[at].checked_sub(1)? as usize];
            if coefficient.tags == *tags {
                return Some(coefficient);
            }
            at = (at + 1) & mask;
        }
    }
}

/// Empty `buf` with room for `len` items, so that nothing grows while it
/// fills. A buffer too small, or more than twice that size (left behind by
/// a far larger round), is replaced by one of exactly that size.
fn clear_for<T>(buf: &mut Vec<T>, len: usize) {
    buf.clear();
    if buf.capacity() < len || buf.capacity() > 2 * len {
        *buf = Vec::with_capacity(len);
    }
}

/// The vectors a build fills: a snapshot's four indexes, which the
/// snapshot takes, and the scratch that builds them, which stays. A
/// publisher keeps one set and hands back the indexes of the snapshot no
/// reader holds any more, so a warm build allocates none of them.
#[derive(Debug, Default)]
pub(crate) struct Buffers {
    by_jaccard: Vec<u32>,
    positions: Vec<u32>,
    rows: Vec<Row>,
    slots: Vec<u32>,
    /// Per distinct Jaccard key, its count, then its bucket's cursor.
    buckets: FxHashMap<u64, u32>,
    /// The distinct Jaccard keys, ascending.
    keys: Vec<u64>,
    /// Per (coefficient, tag), the slot of the tag's row.
    row_ids: Vec<u32>,
    /// Per coefficient, where its row slots start in `row_ids`.
    first: Vec<u32>,
    /// Distinct tags of the last build, which sizes the next row table.
    tags: usize,
}

/// Where one tag's neighbour row lies in `positions`; `len == 0` marks an
/// empty slot of the row table, since every tag present has a row.
#[derive(Debug, Clone, Copy)]
struct Row {
    tag: Tag,
    start: u32,
    len: u32,
}

impl Row {
    const EMPTY: Row = Row {
        tag: Tag(0),
        start: 0,
        len: 0,
    };
}

/// The slot of `tag`'s row in `rows`, or the empty slot where it would go:
/// linear probing from the slot its hash names.
#[inline]
fn row_slot(rows: &[Row], tag: Tag) -> usize {
    let mask = rows.len() - 1;
    let mut at = fx::hash_one(&tag) as usize & mask;
    while rows[at].len != 0 && rows[at].tag != tag {
        at = (at + 1) & mask;
    }
    at
}

/// `rows` rebuilt at twice the size, each row in the slot its tag probes to.
fn doubled(rows: &[Row]) -> Vec<Row> {
    let mut grown = vec![Row::EMPTY; 2 * rows.len()];
    for row in rows.iter().filter(|row| row.len != 0) {
        let at = row_slot(&grown, row.tag);
        grown[at] = *row;
    }
    grown
}

/// Every position of `coefficients` into `order`, by descending Jaccard,
/// ties in ascending position: a counting sort over the round's distinct
/// keys, counted in `buckets` and sorted in `keys`.
///
/// For a non-negative float the complemented bit pattern ascends as the
/// value descends, so the key `!jaccard.to_bits()` orders like the value
/// and compares equal only for equal coefficients. Only the distinct keys
/// are sorted — a round holds far fewer distinct values than coefficients —
/// and the positions are scattered in ascending order, so each key's bucket
/// keeps them ascending: ascending position is ascending tagset.
fn jaccard_order(
    coefficients: &[TrackedCoefficient],
    buckets: &mut FxHashMap<u64, u32>,
    keys: &mut Vec<u64>,
    order: &mut Vec<u32>,
) {
    let key = |c: &TrackedCoefficient| !c.jaccard.to_bits();
    // Per distinct key, its count, then where its next position goes. A
    // `steady` round holds about one distinct value per dozen coefficients.
    buckets.clear();
    buckets.reserve(coefficients.len() / 8);
    for coefficient in coefficients {
        *buckets.entry(key(coefficient)).or_insert(0) += 1;
    }
    clear_for(keys, buckets.len());
    keys.extend(buckets.keys());
    keys.sort_unstable();
    let mut start = 0;
    for bits in keys.iter() {
        let cursor = buckets.get_mut(bits).expect("a counted key");
        start += std::mem::replace(cursor, start);
    }
    clear_for(order, coefficients.len());
    order.resize(coefficients.len(), 0);
    for (coefficient, pos) in coefficients.iter().zip(0u32..) {
        let cursor = buckets.get_mut(&key(coefficient)).expect("a counted key");
        order[*cursor as usize] = pos;
        *cursor += 1;
    }
}

/// The lookup table over `coefficients`, into `slots`:
/// `(2n).next_power_of_two()` slots, so the load stays at most ½ and a
/// probe for an absent tagset ends at an empty slot after a couple of
/// steps; each coefficient's `pos + 1` sits in the first empty slot from
/// its tagset's hash on.
fn lookup_table(coefficients: &[TrackedCoefficient], slots: &mut Vec<u32>) {
    assert!(
        coefficients.len() < u32::MAX as usize,
        "positions are u32, and slot 0 means empty"
    );
    let size = (2 * coefficients.len()).next_power_of_two();
    clear_for(slots, size);
    slots.resize(size, 0);
    let mask = slots.len() - 1;
    for (coefficient, pos) in coefficients.iter().zip(1u32..) {
        let mut at = fx::hash_one(&coefficient.tags) as usize & mask;
        while slots[at] != 0 {
            at = (at + 1) & mask;
        }
        slots[at] = pos;
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

    /// The flat-key comparison sort `build` ran before its counting sort.
    fn flat_key_sort(coeffs: &[TrackedCoefficient]) -> Vec<u32> {
        let mut keyed: Vec<(u64, u32)> = coeffs
            .iter()
            .zip(0u32..)
            .map(|(c, pos)| (!c.jaccard.to_bits(), pos))
            .collect();
        keyed.sort_unstable();
        keyed.into_iter().map(|(_, pos)| pos).collect()
    }

    #[test]
    fn counting_sort_orders_like_the_flat_key_sort_on_ties_and_on_distinct_values() {
        // the counting sort's worst case: every value its own bucket
        let distinct: Vec<TrackedCoefficient> = (0..10_000u32)
            .map(|i| coeff(&[i, 10_000 + i], (i * 7_919 % 10_007 + 1) as f64 / 10_008.0))
            .collect();
        for coeffs in [
            tied_fixture(),
            distinct,
            Vec::new(),
            vec![coeff(&[1, 2], 0.0)],
        ] {
            let snapshot = Snapshot::build(0, 1, Arc::new(coeffs.clone()));
            assert_eq!(snapshot.by_jaccard, flat_key_sort(&coeffs));
        }
    }

    #[test]
    fn lookup_agrees_with_a_binary_search_of_the_sorted_storage() {
        let mut state = 0x7AB1E_u64;
        let mut rnd = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        // ids from both ends of u32, never from the middle: a query built
        // from the middle is disjoint from everything present
        let mut tag = || {
            let low = rnd(48) as u32;
            if rnd(2) == 0 {
                low
            } else {
                u32::MAX - low
            }
        };
        for len in [0, 1, 2, 3, 255, 257, 1_023, 1_025, 4_095, 4_097] {
            // `len` distinct three-tag sets, sorted like the Tracker's output
            let mut sets = std::collections::BTreeSet::new();
            while sets.len() < len {
                let (a, b, c) = (tag(), tag(), tag());
                if a != b && b != c && a != c {
                    sets.insert(TagSet::from_ids(&[a, b, c]));
                }
            }
            let coeffs: Vec<TrackedCoefficient> = sets
                .into_iter()
                .map(|tags| TrackedCoefficient {
                    tags,
                    jaccard: 1.0,
                    counter: 1,
                    reporters: 1,
                })
                .collect();
            let snapshot = Snapshot::build(0, 1, Arc::new(coeffs.clone()));
            assert!(snapshot.slots.len().is_power_of_two());
            assert!(snapshot.slots.len() >= 2 * len, "load at most one half");
            let reference = |tags: &TagSet| {
                coeffs
                    .binary_search_by(|c| c.tags.cmp(tags))
                    .ok()
                    .map(|pos| &coeffs[pos])
            };
            let lookup = |tags: &TagSet| {
                let got = snapshot.coefficient(tags);
                let want = reference(tags);
                assert_eq!(got, want, "{tags:?} among {len}");
                got.is_some()
            };
            for (pos, c) in coeffs.iter().enumerate() {
                let found = snapshot.coefficient(&c.tags).expect("present");
                assert!(std::ptr::eq(found, &snapshot.coefficients()[pos]));
                let ids: Vec<u32> = c.tags.iter().map(|t| t.0).collect();
                for skip in 0..3 {
                    let mut subset = ids.clone();
                    subset.remove(skip);
                    assert!(!lookup(&TagSet::from_ids(&subset)), "a subset");
                }
                let mut superset = ids.clone();
                superset.push(1 << 31);
                assert!(!lookup(&TagSet::from_ids(&superset)), "a superset");
                let disjoint: Vec<u32> = ids.iter().map(|id| id / 2 + (1 << 20)).collect();
                assert!(!lookup(&TagSet::from_ids(&disjoint)), "a disjoint set");
            }
            // and random three-tag sets, present or not
            for _ in 0..len.max(64) {
                lookup(&TagSet::from_ids(&[tag(), tag(), tag()]));
            }
        }
    }

    #[test]
    fn every_neighbour_row_is_the_brute_force_filter_in_jaccard_order() {
        // 142 tags dense in ties, and 3 000 tags of disjoint triples: three
        // tags per coefficient, far past the row table's starting size
        let triples: Vec<TrackedCoefficient> = (0..1_000u32)
            .map(|i| coeff(&[3 * i, 3 * i + 1, 3 * i + 2], (i % 7) as f64 / 7.0))
            .collect();
        for (coeffs, tags, per_coefficient) in [(tied_fixture(), 142, 2), (triples, 3_000, 3)] {
            let snapshot = Snapshot::build(0, 1, Arc::new(coeffs.clone()));
            // the rows tile `positions`: none overlaps, none is left out
            let mut rows: Vec<(u32, u32)> = snapshot
                .rows
                .iter()
                .filter(|row| row.len != 0)
                .map(|row| (row.start, row.len))
                .collect();
            rows.sort_unstable();
            assert_eq!(rows.len(), tags as usize);
            assert!(2 * rows.len() <= snapshot.rows.len(), "at most half full");
            assert_eq!(rows[0].0, 0);
            assert!(rows.windows(2).all(|w| w[0].0 + w[0].1 == w[1].0));
            let (start, len) = rows[rows.len() - 1];
            assert_eq!((start + len) as usize, snapshot.positions.len());
            assert_eq!(snapshot.positions.len(), per_coefficient * coeffs.len());
            // every tag, the first and the last among them
            for tag in (0..tags).map(Tag) {
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
            assert_eq!(snapshot.neighbors(Tag(tags), usize::MAX).count(), 0);
            assert_eq!(snapshot.neighbor_count(Tag(tags)), 0);
        }
    }
}
