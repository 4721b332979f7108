//! The Calculator operator's counting state (§3.1, §6.2).
//!
//! A Calculator receives notification tagsets (the subset of a document's
//! tags it has been assigned) and maintains one occurrence counter per
//! non-empty subset of every received tagset: `count[T]` = number of received
//! documents annotated with *all* tags of `T`, i.e. `|⋂_{t∈T} T_t|`.
//!
//! Every report period it emits, for each tracked tagset of ≥ 2 tags, the
//! Jaccard coefficient (Eq. 1)
//!
//! `J(s) = |⋂ T_t| / |⋃ T_t|`
//!
//! where the union cardinality comes from inclusion–exclusion (Eq. 2) over
//! the subset counters, then clears all counters.
//!
//! # Hot-path organisation
//!
//! Three structural optimisations keep the per-tuple and per-report costs
//! proportional to *distinct* work instead of raw volume; all are exact —
//! every observable result is identical to the naive §3.1 procedure:
//!
//! * **Deduplicated subset expansion.** `observe` only bumps a per-round
//!   count of the full notification set (one map update per tuple); the
//!   `2^m − 1` subset counters are materialised lazily, once per *distinct*
//!   set per period, weighted by its occurrence count. Tag streams are
//!   Zipfian, so popular sets pay the exponential expansion once instead of
//!   once per sighting.
//! * **Batch union computation.** The report-time inclusion–exclusion is a
//!   signed subset-sum: for each distinct notification set of `m` tags, the
//!   unions of *all* its `2^m − 1` subsets are computed together by a
//!   sum-over-subsets transform — `2^m` counter reads plus `m·2^m` adds,
//!   instead of the `3^m` probes of per-subset inclusion–exclusion.
//! * **One hash per subset instance.** Counters live in a flat vector; the
//!   map only resolves a subset to its slot. Expansion records, per distinct
//!   set, the slots of its subsets in mask order, so the report reads every
//!   counter by index instead of hashing each subset a second time.

use setcorr_model::{FxHashMap, FxHashSet, Tag, TagSet, MAX_TAGS_PER_SET};
use std::cell::RefCell;

/// One reported coefficient: `(s_i, J(s_i), CN(s_i))` as emitted to the
/// Tracker (§6.2). `CN` is the raw intersection counter, used by the Tracker
/// to arbitrate duplicates.
#[derive(Debug, Clone, PartialEq)]
pub struct CoefficientReport {
    /// The co-occurring tagset.
    pub tags: TagSet,
    /// Its Jaccard coefficient, in `(0, 1]`.
    pub jaccard: f64,
    /// The counter value `CN(s_i)` (documents containing all tags).
    pub counter: u64,
}

/// The maps behind one Calculator, behind one [`RefCell`] so the read-only
/// query surface (`counter`, `jaccard`, `tracked`, state export) can
/// trigger the lazy subset expansion.
#[derive(Debug, Default, Clone)]
struct CalcState {
    /// Every tracked subset `T` → its slot in `values`.
    index: FxHashMap<TagSet, u32>,
    /// Expanded subset counters by slot: `CN(T)`.
    values: Vec<u64>,
    /// Distinct notification sets observed since the last expansion, with
    /// their occurrence counts — the unexpanded delta.
    pending: FxHashMap<TagSet, u64>,
    /// The expanded notification sets of the current report period — the
    /// roots of the report-time batch union computation — each with the
    /// start of its run in `root_slots`. A set expanded twice in one period
    /// is listed twice; the report skips the covered copy.
    roots: Vec<(TagSet, usize)>,
    /// Per root, the slots of its `2^m − 1` subsets in mask order.
    root_slots: Vec<u32>,
}

/// Counting state of one Calculator.
#[derive(Debug, Default, Clone)]
pub struct Calculator {
    state: RefCell<CalcState>,
    /// Notifications received in the current report period.
    received: u64,
}

impl Calculator {
    /// Fresh, empty calculator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest one notification.
    ///
    /// Costs one map update: the `2^m − 1` subset counters (§3.1) are
    /// materialised lazily (`CalcState::expand`), once per *distinct*
    /// notification set per report period — repeated sightings of a popular
    /// set collapse into a count. `m` is small by the data's nature
    /// (< 10 tags/tweet) and bounded by [`MAX_TAGS_PER_SET`]; subset keys
    /// are stored inline (see [`setcorr_model::INLINE_TAGS`]), so the whole
    /// path is allocation-free for realistic notifications.
    pub fn observe(&mut self, notification: &TagSet) {
        self.observe_n(notification, 1);
    }

    /// Ingest `n` identical notifications at once — the count-weighted
    /// [`Calculator::observe`] behind vectorized (batch-at-a-time) operator
    /// execution. Because the per-round state is the *distinct*-set count
    /// map, `n` sightings cost exactly one map update, and every observable
    /// result equals `n` separate `observe` calls.
    pub fn observe_n(&mut self, notification: &TagSet, n: u64) {
        if notification.is_empty() || n == 0 {
            return;
        }
        self.received += n;
        let state = self.state.get_mut();
        if let Some(c) = state.pending.get_mut(notification) {
            *c += n;
        } else {
            state.pending.insert(notification.clone(), n);
        }
    }

    /// Clear all round state *without* computing coefficients — the cheap
    /// alternative to [`Calculator::report_and_reset`] for callers that
    /// already queried what they need (e.g. the centralized baseline, which
    /// reports only the round's input tagsets: deriving a report for every
    /// tracked subset just to throw it away cost more than the queries).
    pub fn reset(&mut self) {
        self.received = 0;
        let state = self.state.get_mut();
        state.pending.clear();
        // capacity stays for the next period
        state.index.clear();
        state.values.clear();
        state.roots.clear();
        state.root_slots.clear();
    }

    /// Number of distinct subset counters currently tracked.
    pub fn tracked(&self) -> usize {
        let mut state = self.state.borrow_mut();
        state.expand();
        state.index.len()
    }

    /// Notifications received this report period.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Raw counter for `ts` (0 if never seen).
    pub fn counter(&self, ts: &TagSet) -> u64 {
        let mut state = self.state.borrow_mut();
        state.expand();
        state.counter(ts)
    }

    /// `|⋃_{t ∈ ts} T_t|` by inclusion–exclusion over the subset counters.
    ///
    /// Exact as long as this Calculator received every document containing
    /// any tag of `ts` — guaranteed when `ts` lies inside its partition.
    /// During a live migration the counter table can be *transiently*
    /// inconsistent (bundles from different senders may straddle a report
    /// boundary, leaving a superset counter without its singletons), which
    /// can drive the alternating sum negative; it is clamped here and the
    /// coefficient paths below additionally clamp the union to at least
    /// the intersection, keeping every reported `J` in `(0, 1]`.
    pub fn union_count(&self, ts: &TagSet) -> u64 {
        let mut state = self.state.borrow_mut();
        state.expand();
        let mut union: i64 = 0;
        for mask in ts.subset_masks() {
            let sub = ts.subset(mask);
            let c = state.counter(&sub) as i64;
            if mask.count_ones() % 2 == 1 {
                union += c;
            } else {
                union -= c;
            }
        }
        union.max(0) as u64
    }

    /// The Jaccard coefficient of `ts`, or `None` if `ts` was never observed
    /// (or is trivial: fewer than 2 tags).
    pub fn jaccard(&self, ts: &TagSet) -> Option<f64> {
        if ts.len() < 2 {
            return None;
        }
        let inter = self.counter(ts);
        if inter == 0 {
            return None;
        }
        // `max(inter)` guards against transiently inconsistent counters
        // mid-migration (see `union_count`); for consistent state it is a
        // no-op since the union always contains the intersection.
        let union = self.union_count(ts).max(inter);
        Some(inter as f64 / union as f64)
    }

    /// Export every subset counter, sorted by tagset, for a live-migration
    /// handoff (the `counters` field of a
    /// [`crate::migration::MigrationBundle`]).
    pub fn export_counters(&self) -> Vec<(TagSet, u64)> {
        let mut state = self.state.borrow_mut();
        state.expand();
        let mut out: Vec<(TagSet, u64)> = state
            .index
            .iter()
            .map(|(ts, &slot)| (ts.clone(), state.values[slot as usize]))
            .collect();
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Drop every counter whose tagset is not fully covered by `keep` — the
    /// Calculator's tag ownership after a repartition. Counters it no
    /// longer owns have been handed to the new owners first.
    pub fn retain_covered(&mut self, keep: &FxHashSet<Tag>) {
        let state = self.state.get_mut();
        state.expand();
        // a dropped subset's slot stays behind unreferenced: every subset of
        // a surviving root survives with it
        state.index.retain(|ts, _| ts.is_covered_by(keep));
        // departed roots' surviving subsets are handled by the report's
        // leftover sweep, so roots can be filtered to owned ones
        state.roots.retain(|(ts, _)| ts.is_covered_by(keep));
    }

    /// Merge migrated counters additively. The migration protocol
    /// guarantees each counter arrives from exactly one sender and covers a
    /// disjoint slice of the stream, so `+` reassembles the single-owner
    /// count exactly.
    pub fn absorb_counters(&mut self, counters: &[(TagSet, u64)]) {
        let state = self.state.get_mut();
        for (ts, n) in counters {
            let slot = slot_of(&mut state.index, &mut state.values, ts.clone());
            state.values[slot as usize] += n;
        }
    }

    /// Emit coefficients for every tracked tagset with ≥ 2 tags and clear all
    /// counters (the "every y time units" step of §6.2). Output is strictly
    /// ascending by tagset — the Tracker merges it as one sorted run.
    ///
    /// Union cardinalities are computed in batch: every distinct
    /// notification set of the period roots one signed sum-over-subsets
    /// transform that yields the unions of *all* its subsets at once (see
    /// `sos_emit`), reading the counters through the slots recorded at
    /// expansion; counters that no root covers — possible only for state
    /// adopted mid-migration — fall back to sweeps rooted at the leftover
    /// sets themselves, which look their slots up once.
    pub fn report_and_reset(&mut self) -> Vec<CoefficientReport> {
        let state = self.state.get_mut();
        state.expand();
        // Batch union computation + emission, rooted at the period's
        // distinct notification sets. Every emitted counter is tombstoned
        // (high bit) so overlapping roots emit each subset exactly once; a
        // root wholly contained in an already-processed root is skipped on
        // the tombstone of its own counter, the last slot of its run.
        let mut scratch = SosScratch::default();
        scratch.out.reserve(state.index.len());
        for (root, start) in &state.roots {
            let slots = &state.root_slots[*start..][..(1 << root.len()) - 1];
            if state.values[slots[slots.len() - 1] as usize] & EMITTED == 0 {
                sos_emit(root.tags(), slots, &mut state.values, &mut scratch);
            }
        }
        // Leftover sweep — counters no local root covers, possible only for
        // state adopted mid-migration: largest-first, so one sweep rooted at
        // a leftover also covers all its subsets. A leftover looks its
        // subsets up once; the untracked ones read a spare zero counter.
        let zero = new_slot(&mut state.values);
        let mut leftovers: Vec<(&TagSet, u32)> = state
            .index
            .iter()
            .filter(|(ts, &slot)| ts.len() >= 2 && state.values[slot as usize] & EMITTED == 0)
            .map(|(ts, &slot)| (ts, slot))
            .collect();
        leftovers.sort_unstable_by_key(|(ts, _)| std::cmp::Reverse(ts.len()));
        let mut slots: Vec<u32> = Vec::new();
        for (root, slot) in leftovers {
            if state.values[slot as usize] & EMITTED == 0 {
                slots.clear();
                slots.extend(root.subset_masks().map(|mask| {
                    let subset = root.subset(mask);
                    state.index.get(&subset).copied().unwrap_or(zero)
                }));
                sos_emit(root.tags(), &slots, &mut state.values, &mut scratch);
            }
        }
        self.reset();
        // Deterministic output order, via the cached two-tag prefix so
        // almost every comparison is one integer compare.
        let mut out = scratch.out;
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.tags.cmp(&b.1.tags)));
        out.into_iter().map(|(_, report)| report).collect()
    }
}

impl CalcState {
    /// Materialise the pending notification sets into subset counters:
    /// `2^m − 1` weighted updates per *distinct* pending set — the only time
    /// its subsets are hashed — after which the set becomes a union root
    /// holding the slots it touched.
    fn expand(&mut self) {
        for (ts, c) in self.pending.drain() {
            let start = self.root_slots.len();
            for mask in ts.subset_masks() {
                let slot = slot_of(&mut self.index, &mut self.values, ts.subset(mask));
                self.values[slot as usize] += c;
                self.root_slots.push(slot);
            }
            self.roots.push((ts, start));
        }
    }

    /// Raw counter for `ts` (0 if untracked).
    fn counter(&self, ts: &TagSet) -> u64 {
        self.index
            .get(ts)
            .map_or(0, |&slot| self.values[slot as usize])
    }
}

/// A fresh slot, its counter at zero.
fn new_slot(values: &mut Vec<u64>) -> u32 {
    values.push(0);
    u32::try_from(values.len() - 1).expect("fewer than 2^32 subsets tracked per period")
}

/// The slot of `ts`'s counter, allocated on first sight.
fn slot_of(index: &mut FxHashMap<TagSet, u32>, values: &mut Vec<u64>, ts: TagSet) -> u32 {
    *index.entry(ts).or_insert_with(|| new_slot(values))
}

/// Tombstone bit marking a counter whose coefficient has been emitted in
/// the current report pass (counts never reach this magnitude).
const EMITTED: u64 = 1 << 63;

/// Output and reusable buffers of [`sos_emit`] (the buffers sized `2^m` for
/// the largest root seen, capped by [`MAX_TAGS_PER_SET`]).
#[derive(Default)]
struct SosScratch {
    /// The emitted reports, each with its [`sort_prefix`].
    out: Vec<(u64, CoefficientReport)>,
    /// Per-mask signed counter values, transformed in place into unions.
    acc: Vec<i64>,
    /// Per-mask raw counter value; `-1` for untracked or already-emitted
    /// subsets (nothing to emit).
    cn: Vec<i64>,
}

/// Compute `|⋃_{t ∈ T} T_t|` for **every** subset `T` of `root` in one
/// pass over its counters, and emit the coefficient of each not-yet-
/// emitted subset of ≥ 2 tags (tombstoning its counter).
///
/// The inclusion–exclusion of Eq. 2, `U(T) = Σ_{∅≠R⊆T} (−1)^{|R|+1} CN(R)`,
/// is a subset-sum of the signed counters `g(R) = (−1)^{|R|+1} CN(R)`: one
/// sum-over-subsets (zeta) transform computes it for all `2^m` subsets
/// simultaneously with `2^m` counter reads plus `m·2^{m−1}` additions —
/// per-subset inclusion–exclusion over the same lattice would cost `3^m`
/// probes instead. `slots[mask − 1]` is the slot of the subset `mask`
/// selects, so no subset is hashed here; emission order is irrelevant
/// because the caller sorts.
fn sos_emit(root_tags: &[Tag], slots: &[u32], values: &mut [u64], scratch: &mut SosScratch) {
    let m = root_tags.len();
    debug_assert!(m <= MAX_TAGS_PER_SET);
    let full = 1usize << m;
    debug_assert_eq!(slots.len(), full - 1);
    scratch.acc.clear();
    scratch.acc.resize(full, 0);
    scratch.cn.clear();
    scratch.cn.resize(full, -1);
    // Gather: one read per subset of the root. Fresh subsets of ≥ 2 tags
    // are claimed for emission (tombstoned) right here; a zero counter is an
    // untracked subset.
    for (mask, &slot) in (1..full).zip(slots) {
        let raw = &mut values[slot as usize];
        let cn = (*raw & !EMITTED) as i64;
        let size = mask.count_ones();
        // the union transform needs every counter; emission only the
        // fresh (untombstoned) ones of ≥ 2 tags
        if *raw & EMITTED == 0 && size >= 2 && cn > 0 {
            scratch.cn[mask] = cn;
            *raw |= EMITTED;
        }
        scratch.acc[mask] = if size % 2 == 1 { cn } else { -cn };
    }
    // Sum over subsets: acc[mask] becomes Σ_{R ⊆ mask} g(R) = U(mask).
    for bit in 0..m {
        let step = 1usize << bit;
        for mask in 0..full {
            if mask & step != 0 {
                scratch.acc[mask] += scratch.acc[mask ^ step];
            }
        }
    }
    // Emit the subsets claimed above.
    let mut buf = [Tag(0); MAX_TAGS_PER_SET];
    for mask in 1..full {
        let inter = scratch.cn[mask];
        if inter < 0 {
            continue;
        }
        let mut n = 0;
        let mut rest = mask;
        while rest != 0 {
            buf[n] = root_tags[rest.trailing_zeros() as usize];
            n += 1;
            rest &= rest - 1;
        }
        let tags = TagSet::from_sorted_slice(&buf[..n]);
        let inter = inter as u64;
        // clamp as in `union_count`/`jaccard`: transiently inconsistent
        // mid-migration counters must not produce J > 1 or ∞
        let union = (scratch.acc[mask].max(0) as u64).max(inter);
        scratch.out.push((
            sort_prefix(&tags),
            CoefficientReport {
                tags,
                jaccard: inter as f64 / union as f64,
                counter: inter,
            },
        ));
    }
}

/// Packed first-two-tags sort key: orders like the lexicographic tagset
/// compare for every pair of sets differing within their first two tags
/// (the `+ 1` offsets make "no tag" sort before every real tag, so prefixes
/// order before their extensions).
#[inline]
fn sort_prefix(ts: &TagSet) -> u64 {
    let tags = ts.tags();
    let hi = tags.first().map_or(0, |t| t.0 as u64 + 1);
    let lo = tags.get(1).map_or(0, |t| t.0 as u64 + 1);
    hi << 32 | lo
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(ids: &[u32]) -> TagSet {
        TagSet::from_ids(ids)
    }

    /// Brute-force Jaccard from explicit document tagsets.
    fn brute_jaccard(docs: &[&[u32]], query: &[u32]) -> Option<f64> {
        let q: Vec<u32> = query.to_vec();
        let inter = docs
            .iter()
            .filter(|d| q.iter().all(|t| d.contains(t)))
            .count();
        let union = docs
            .iter()
            .filter(|d| q.iter().any(|t| d.contains(t)))
            .count();
        (inter > 0).then(|| inter as f64 / union as f64)
    }

    #[test]
    fn paper_example_subsets_are_counted() {
        // §6.2: receiving ({a,b,c}) must create counters for {a,b,c},{b,c},
        // {a,b},{a,c} and the singletons.
        let mut c = Calculator::new();
        c.observe(&ts(&[1, 2, 3]));
        assert_eq!(c.tracked(), 7);
        for sub in [&[1][..], &[2], &[3], &[1, 2], &[1, 3], &[2, 3], &[1, 2, 3]] {
            assert_eq!(c.counter(&ts(sub)), 1, "{sub:?}");
        }
    }

    #[test]
    fn jaccard_matches_brute_force() {
        let docs: &[&[u32]] = &[
            &[1, 2],
            &[1, 2, 3],
            &[2, 3],
            &[1],
            &[3],
            &[1, 2],
            &[4],
            &[1, 4],
        ];
        let mut c = Calculator::new();
        for d in docs {
            c.observe(&ts(d));
        }
        for query in [&[1, 2][..], &[2, 3], &[1, 3], &[1, 2, 3], &[1, 4]] {
            let expected = brute_jaccard(docs, query).unwrap();
            let got = c.jaccard(&ts(query)).unwrap();
            assert!(
                (got - expected).abs() < 1e-12,
                "{query:?}: got {got}, want {expected}"
            );
        }
    }

    #[test]
    fn jaccard_of_unseen_or_trivial_is_none() {
        let mut c = Calculator::new();
        c.observe(&ts(&[1, 2]));
        assert_eq!(c.jaccard(&ts(&[1])), None, "singletons are trivial");
        assert_eq!(c.jaccard(&ts(&[8, 9])), None, "never seen");
        assert_eq!(c.jaccard(&ts(&[1, 3])), None, "tags never co-occurred");
    }

    #[test]
    fn perfect_correlation_is_one() {
        let mut c = Calculator::new();
        for _ in 0..5 {
            c.observe(&ts(&[1, 2]));
        }
        assert_eq!(c.jaccard(&ts(&[1, 2])), Some(1.0));
    }

    #[test]
    fn union_via_inclusion_exclusion_three_way() {
        // docs: {a,b,c} ×2, {a} ×1, {b,c} ×3 → |a∪b∪c| = 6
        let mut c = Calculator::new();
        c.observe(&ts(&[1, 2, 3]));
        c.observe(&ts(&[1, 2, 3]));
        c.observe(&ts(&[1]));
        c.observe(&ts(&[2, 3]));
        c.observe(&ts(&[2, 3]));
        c.observe(&ts(&[2, 3]));
        assert_eq!(c.union_count(&ts(&[1, 2, 3])), 6);
        assert_eq!(c.counter(&ts(&[1, 2, 3])), 2);
        assert_eq!(c.jaccard(&ts(&[1, 2, 3])), Some(2.0 / 6.0));
    }

    #[test]
    fn report_emits_pairs_and_larger_then_clears() {
        let mut c = Calculator::new();
        c.observe(&ts(&[1, 2, 3]));
        c.observe(&ts(&[4]));
        let reports = c.report_and_reset();
        // subsets of size ≥2: {1,2},{1,3},{2,3},{1,2,3}
        assert_eq!(reports.len(), 4);
        assert!(reports.iter().all(|r| r.tags.len() >= 2));
        assert!(reports.iter().all(|r| r.jaccard > 0.0 && r.jaccard <= 1.0));
        assert_eq!(c.tracked(), 0);
        assert_eq!(c.received(), 0);
        assert!(c.report_and_reset().is_empty());
    }

    #[test]
    fn report_is_sorted_and_carries_counters() {
        let mut c = Calculator::new();
        c.observe(&ts(&[5, 6]));
        c.observe(&ts(&[5, 6]));
        c.observe(&ts(&[1, 2]));
        let reports = c.report_and_reset();
        assert_eq!(reports[0].tags, ts(&[1, 2]));
        assert_eq!(reports[0].counter, 1);
        assert_eq!(reports[1].tags, ts(&[5, 6]));
        assert_eq!(reports[1].counter, 2);
    }

    #[test]
    fn transiently_inconsistent_counters_stay_bounded() {
        // Mid-migration a superset counter can land before its singletons
        // (adoptions from different senders straddling a tick). Inclusion–
        // exclusion would go negative; the coefficient must stay in (0, 1]
        // instead of diverging.
        let mut c = Calculator::new();
        c.absorb_counters(&[(ts(&[1, 2]), 5)]);
        assert_eq!(c.union_count(&ts(&[1, 2])), 0, "clamped, not negative");
        assert_eq!(c.jaccard(&ts(&[1, 2])), Some(1.0), "union >= intersection");
        let reports = c.report_and_reset();
        assert_eq!(reports.len(), 1);
        assert!(reports[0].jaccard.is_finite() && reports[0].jaccard <= 1.0);
    }

    #[test]
    fn empty_notifications_are_ignored() {
        let mut c = Calculator::new();
        c.observe(&TagSet::empty());
        assert_eq!(c.tracked(), 0);
        assert_eq!(c.received(), 0);
    }

    #[test]
    fn randomised_against_brute_force() {
        // deterministic pseudo-random doc mix over 6 tags
        let mut state = 0xC0FFEEu64;
        let mut rnd = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut docs: Vec<Vec<u32>> = Vec::new();
        for _ in 0..200 {
            let mut d: Vec<u32> = Vec::new();
            for t in 0..6u32 {
                if rnd() % 3 == 0 {
                    d.push(t);
                }
            }
            if !d.is_empty() {
                docs.push(d);
            }
        }
        let mut c = Calculator::new();
        for d in &docs {
            c.observe(&ts(d));
        }
        let doc_refs: Vec<&[u32]> = docs.iter().map(|d| d.as_slice()).collect();
        for a in 0..6u32 {
            for b in (a + 1)..6 {
                let expected = brute_jaccard(&doc_refs, &[a, b]);
                let got = c.jaccard(&ts(&[a, b]));
                match (expected, got) {
                    (None, None) => {}
                    (Some(e), Some(g)) => {
                        assert!((e - g).abs() < 1e-12, "({a},{b}): {g} vs {e}")
                    }
                    other => panic!("({a},{b}): mismatch {other:?}"),
                }
            }
        }
    }
}
