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
//! Four structural optimisations keep the per-tuple and per-report costs
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
//! * **One word-sized probe per subset instance.** Subsets live in a
//!   hash-consed trie (`SubsetTrie`): `{t1 < … < tn}` is the node reached
//!   from the root along `t1 … tn`, a node is a slot into flat vectors, an
//!   edge the one word `(parent slot) << 32 | tag`. A subset hangs, along
//!   its largest tag, below the subset without it — the smaller mask — so
//!   expansion resolves each with one 8-byte-key probe (`subset_slots`),
//!   builds, hashes and compares no tagset, and records per distinct set
//!   the slots of its subsets in mask order: the report reads by index.
//! * **A report that leaves sorted without a sort of tagsets.** A counting
//!   sort by parent slot stands each node's children together, a sort of
//!   each sibling group puts them in tag order, and a pre-order walk of
//!   that is ascending tagset order.

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

/// Slot of the trie's root, the empty set. Nothing counts it: `values[ROOT]`
/// stays zero.
const ROOT: u32 = 0;

/// What a lookup returns for a subset with no node. No edge leaves it, so a
/// lookup below it is absent again, and its counter reads zero.
const ABSENT: u32 = u32::MAX;

/// The subset counters of one report period, in a hash-consed trie.
///
/// A zero counter *is* an untracked subset: interior nodes of a path that
/// nothing counted, and counters [`Calculator::retain_covered`] dropped,
/// look the same and are neither reported nor exported.
#[derive(Debug, Clone)]
struct SubsetTrie {
    /// Edge word `(parent slot) << 32 | tag` → child slot.
    children: FxHashMap<u64, u32>,
    /// Per slot, the edge that leads to it (nothing leads to the root). A
    /// parent's slot is smaller than its children's.
    edges: Vec<u64>,
    /// Per slot, the counter `CN(T)`.
    values: Vec<u64>,
}

impl Default for SubsetTrie {
    fn default() -> Self {
        SubsetTrie {
            children: FxHashMap::default(),
            edges: vec![0],
            values: vec![0],
        }
    }
}

impl SubsetTrie {
    /// The child of `parent` along `tag`, created on first sight.
    #[inline]
    fn child(&mut self, parent: u32, tag: Tag) -> u32 {
        let edge = (parent as u64) << 32 | tag.0 as u64;
        *self.children.entry(edge).or_insert_with(|| {
            let slot = self.edges.len();
            assert!(slot < ABSENT as usize, "too many subsets in one period");
            self.edges.push(edge);
            self.values.push(0);
            slot as u32
        })
    }

    /// The child of `parent` along `tag`, or [`ABSENT`].
    #[inline]
    fn find(&self, parent: u32, tag: Tag) -> u32 {
        let edge = (parent as u64) << 32 | tag.0 as u64;
        self.children.get(&edge).copied().unwrap_or(ABSENT)
    }

    /// The counter at `slot`; zero at [`ABSENT`].
    #[inline]
    fn value(&self, slot: u32) -> u64 {
        self.values.get(slot as usize).copied().unwrap_or(0)
    }

    /// The number of non-zero counters, in one pass.
    fn tracked(&self) -> usize {
        self.values.iter().filter(|&&cn| cn != 0).count()
    }

    /// The tags on the path from the root to `slot`, ascending, written to
    /// the tail of `buf`.
    fn path<'a>(&self, mut slot: u32, buf: &'a mut [Tag; MAX_TAGS_PER_SET]) -> &'a [Tag] {
        let mut at = buf.len();
        while slot != ROOT {
            let edge = self.edges[slot as usize];
            at -= 1;
            buf[at] = Tag(edge as u32);
            slot = (edge >> 32) as u32;
        }
        &buf[at..]
    }

    /// Visit every node but the root in strictly ascending `TagSet::cmp`
    /// order of its subset, as `(tags, slot)`.
    ///
    /// Slots are dense, so a counting sort buckets the nodes by parent slot;
    /// only each sibling group is sorted, on `tag << 32 | slot` words. A pre-order walk that takes each
    /// node's children from its bucket in tag order is the lexicographic
    /// order of the paths, a prefix before its extensions.
    fn walk_sorted(&self, mut visit: impl FnMut(&[Tag], usize)) {
        let n = self.edges.len();
        // the children of slot `p` are `order[first[p]..first[p + 1]]`:
        // count each parent's at `p + 2`, sum, then scatter through `p + 1`
        let mut first = vec![0u32; n + 2];
        for &edge in &self.edges[1..] {
            first[(edge >> 32) as usize + 2] += 1;
        }
        for p in 2..n + 2 {
            first[p] += first[p - 1];
        }
        let mut order = vec![0u64; n - 1];
        for (slot, &edge) in (1u64..).zip(&self.edges[1..]) {
            let cursor = &mut first[(edge >> 32) as usize + 1];
            // the shift drops the parent: `tag << 32 | slot`
            order[*cursor as usize] = edge << 32 | slot;
            *cursor += 1;
        }
        for p in 0..n {
            order[first[p] as usize..first[p + 1] as usize].sort_unstable();
        }
        let mut path = [Tag(0); MAX_TAGS_PER_SET];
        // per depth, the next child to visit and the end of its group
        let mut open = [(0u32, 0u32); MAX_TAGS_PER_SET + 1];
        open[0] = (first[ROOT as usize], first[ROOT as usize + 1]);
        let mut depth = 0;
        loop {
            let (next, end) = &mut open[depth];
            if next < end {
                let word = order[*next as usize];
                *next += 1;
                let slot = word as u32 as usize;
                path[depth] = Tag((word >> 32) as u32);
                depth += 1;
                visit(&path[..depth], slot);
                open[depth] = (first[slot], first[slot + 1]);
            } else if depth == 0 {
                return;
            } else {
                depth -= 1;
            }
        }
    }
}

/// Append to `out` the slots of the `2^m − 1` non-empty subsets of `tags`
/// in mask order (`out[start + mask − 1]`, LSB = smallest tag), one `child`
/// step each: the subset `mask` selects hangs, along the tag of its top
/// bit, below the subset `mask` selects without that bit — already resolved,
/// since it is the smaller mask.
#[inline]
fn subset_slots(tags: &[Tag], out: &mut Vec<u32>, mut child: impl FnMut(u32, Tag) -> u32) {
    let start = out.len();
    out.reserve((1 << tags.len()) - 1);
    for (bit, &tag) in tags.iter().enumerate() {
        out.push(child(ROOT, tag));
        for rest in 0..(1usize << bit) - 1 {
            let parent = out[start + rest];
            out.push(child(parent, tag));
        }
    }
}

/// The state behind one Calculator, behind one [`RefCell`] so the read-only
/// query surface (`counter`, `jaccard`, `tracked`, state export) can
/// trigger the lazy subset expansion.
#[derive(Debug, Default, Clone)]
struct CalcState {
    /// Every expanded or adopted subset counter.
    trie: SubsetTrie,
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
    /// (< 10 tags/tweet) and bounded by [`MAX_TAGS_PER_SET`]. A pending
    /// key of up to [`setcorr_model::INLINE_TAGS`] tags is stored inline; a
    /// longer one (28 % of the generator's documents carry 6–8 tags, and a
    /// notification is whatever part of a document one Calculator owns)
    /// shares the notification's spilled slice, so a first sighting costs
    /// no allocation either way beyond the map's own growth.
    pub fn observe(&mut self, notification: &TagSet) {
        self.observe_n(notification, 1);
    }

    /// Ingest `n` identical notifications at once — the count-weighted
    /// [`Calculator::observe`], for callers that already hold a count of
    /// identical sets. Because the per-round state is the *distinct*-set
    /// count map, `n` sightings cost exactly one map update, and every
    /// observable result equals `n` separate `observe` calls.
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
    /// already queried what they need (e.g. the exact computation
    /// `setcorr_topology::ExactRun`, which reports only the round's input
    /// tagsets: deriving a report for every tracked subset just to throw it
    /// away cost more than the queries).
    pub fn reset(&mut self) {
        self.received = 0;
        let state = self.state.get_mut();
        // capacity stays for the next period; the trie keeps its root
        state.pending.clear();
        state.trie.children.clear();
        state.trie.edges.truncate(1);
        state.trie.values.truncate(1);
        state.roots.clear();
        state.root_slots.clear();
    }

    /// Number of distinct subset counters currently tracked: the non-zero
    /// ones, counted in one pass over the slots.
    pub fn tracked(&self) -> usize {
        let mut state = self.state.borrow_mut();
        state.expand();
        state.trie.tracked()
    }

    /// Notifications received this report period.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Raw counter for `ts` (0 if never seen): one probe per tag.
    pub fn counter(&self, ts: &TagSet) -> u64 {
        let mut state = self.state.borrow_mut();
        state.expand();
        let trie = &state.trie;
        trie.value(ts.iter().fold(ROOT, |slot, tag| trie.find(slot, tag)))
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
        let trie = &state.trie;
        let mut slots = Vec::new();
        subset_slots(ts.tags(), &mut slots, |parent, tag| trie.find(parent, tag));
        let union: i64 = (1u32..)
            .zip(&slots)
            .map(|(mask, &slot)| signed(mask.count_ones(), trie.value(slot)))
            .sum();
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

    /// Export every tracked (non-zero) subset counter, strictly ascending by
    /// tagset, for a live-migration handoff (the `counters` field of a
    /// [`crate::migration::MigrationBundle`]). Shares the report's sorted
    /// walk, so no tagset is compared.
    pub fn export_counters(&self) -> Vec<(TagSet, u64)> {
        let mut state = self.state.borrow_mut();
        state.expand();
        let trie = &state.trie;
        let mut out = Vec::with_capacity(trie.tracked());
        trie.walk_sorted(|tags, slot| {
            if trie.values[slot] != 0 {
                out.push((TagSet::from_sorted_slice(tags), trie.values[slot]));
            }
        });
        out
    }

    /// Drop every counter whose tagset is not fully covered by `keep` — the
    /// Calculator's tag ownership after a repartition. Counters it no
    /// longer owns have been handed to the new owners first.
    ///
    /// Dropping is zeroing, in one pass in slot order: a parent precedes its
    /// children, so each slot extends its parent's verdict by one tag. A
    /// dropped subset observed again counts from zero.
    pub fn retain_covered(&mut self, keep: &FxHashSet<Tag>) {
        let state = self.state.get_mut();
        state.expand();
        let trie = &mut state.trie;
        let mut covered = vec![true; trie.edges.len()];
        for slot in 1..trie.edges.len() {
            let edge = trie.edges[slot];
            covered[slot] = covered[(edge >> 32) as usize] && keep.contains(&Tag(edge as u32));
            if !covered[slot] {
                trie.values[slot] = 0;
            }
        }
        // departed roots' surviving subsets are handled by the report's
        // leftover sweep, so roots can be filtered to owned ones
        state.roots.retain(|(ts, _)| ts.is_covered_by(keep));
    }

    /// Merge migrated counters additively. The migration protocol
    /// guarantees each counter arrives from exactly one sender and covers a
    /// disjoint slice of the stream, so `+` reassembles the single-owner
    /// count exactly.
    pub fn absorb_counters(&mut self, counters: &[(TagSet, u64)]) {
        let trie = &mut self.state.get_mut().trie;
        for (ts, n) in counters.iter().filter(|(ts, _)| !ts.is_empty()) {
            let slot = ts.iter().fold(ROOT, |slot, tag| trie.child(slot, tag));
            trie.values[slot as usize] += n;
        }
    }

    /// Emit coefficients for every tracked tagset with ≥ 2 tags and clear all
    /// counters (the "every y time units" step of §6.2). Output is strictly
    /// ascending by tagset — the Tracker merges it as one sorted run — and
    /// comes out of the trie's sorted walk in that order: no tagset is
    /// compared, and one is built only for each coefficient emitted.
    ///
    /// Union cardinalities are computed in batch: every distinct
    /// notification set of the period roots one signed sum-over-subsets
    /// transform that yields the unions of *all* its subsets at once (see
    /// `sos_claim`), reading the counters through the slots recorded at
    /// expansion; counters that no root covers — possible only for state
    /// adopted mid-migration — fall back to sweeps rooted at the leftover
    /// sets themselves, which look their slots up once.
    pub fn report_and_reset(&mut self) -> Vec<CoefficientReport> {
        let state = self.state.get_mut();
        state.expand();
        let trie = &state.trie;
        // Per slot, the union cardinality claimed for its coefficient — at
        // least its counter, so zero is "unclaimed".
        let mut unions = vec![0u64; trie.values.len()];
        let mut acc = Vec::new();
        // Batch union computation, rooted at the period's distinct
        // notification sets. A subset's union is claimed by the first root
        // to reach it; a root wholly contained in an already-processed root
        // is skipped on the claim of its own counter, the last slot of its
        // run. A single tag has no coefficient to claim.
        for (root, start) in &state.roots {
            let slots = &state.root_slots[*start..][..(1 << root.len()) - 1];
            if root.len() >= 2 && unions[slots[slots.len() - 1] as usize] == 0 {
                sos_claim(slots, trie, &mut unions, &mut acc);
            }
        }
        // Leftover sweep — counters no local root covers, possible only for
        // state adopted mid-migration: largest-first, so one sweep rooted at
        // a leftover also covers all its subsets. A leftover looks its
        // subsets up once; the absent ones read zero.
        let mut path = [Tag(0); MAX_TAGS_PER_SET];
        let mut leftovers: Vec<(usize, u32)> = (1..trie.values.len())
            .filter(|&slot| {
                trie.values[slot] != 0 && unions[slot] == 0 && trie.edges[slot] >> 32 != 0
            })
            .map(|slot| (trie.path(slot as u32, &mut path).len(), slot as u32))
            .collect();
        leftovers.sort_unstable_by_key(|&(len, _)| std::cmp::Reverse(len));
        let mut slots: Vec<u32> = Vec::new();
        for (_, slot) in leftovers {
            if unions[slot as usize] == 0 {
                slots.clear();
                let tags = trie.path(slot, &mut path);
                subset_slots(tags, &mut slots, |parent, tag| trie.find(parent, tag));
                sos_claim(&slots, trie, &mut unions, &mut acc);
            }
        }
        let mut out = Vec::with_capacity(unions.iter().filter(|&&union| union != 0).count());
        trie.walk_sorted(|tags, slot| {
            if unions[slot] != 0 {
                let counter = trie.values[slot];
                out.push(CoefficientReport {
                    tags: TagSet::from_sorted_slice(tags),
                    jaccard: counter as f64 / unions[slot] as f64,
                    counter,
                });
            }
        });
        self.reset();
        out
    }
}

impl CalcState {
    /// Materialise the pending notification sets into subset counters:
    /// `2^m − 1` weighted updates per *distinct* pending set, one trie step
    /// each, after which the set becomes a union root holding the slots it
    /// touched.
    fn expand(&mut self) {
        let trie = &mut self.trie;
        for (ts, c) in self.pending.drain() {
            let start = self.root_slots.len();
            subset_slots(ts.tags(), &mut self.root_slots, |parent, tag| {
                let slot = trie.child(parent, tag);
                trie.values[slot as usize] += c;
                slot
            });
            self.roots.push((ts, start));
        }
    }
}

/// `g(R) = (−1)^{|R|+1} CN(R)`, the signed counter of Eq. 2.
#[inline]
fn signed(size: u32, cn: u64) -> i64 {
    if size % 2 == 1 {
        cn as i64
    } else {
        -(cn as i64)
    }
}

/// Compute `|⋃_{t ∈ T} T_t|` for **every** subset `T` of a root in one pass
/// over its counters, and claim in `unions` that of each tracked, not yet
/// claimed subset of ≥ 2 tags — the report emits exactly the claimed slots.
/// `acc` is a reusable buffer (`2^m` words).
///
/// The inclusion–exclusion of Eq. 2, `U(T) = Σ_{∅≠R⊆T} (−1)^{|R|+1} CN(R)`,
/// is a subset-sum of the signed counters `g(R) = (−1)^{|R|+1} CN(R)`: one
/// sum-over-subsets (zeta) transform computes it for all `2^m` subsets
/// simultaneously with `2^m` counter reads plus `m·2^{m−1}` additions —
/// per-subset inclusion–exclusion over the same lattice would cost `3^m`
/// probes instead. `slots[mask − 1]` is the slot of the subset `mask`
/// selects, so nothing is hashed here, and no tagset is built: the sorted
/// walk names what it emits.
fn sos_claim(slots: &[u32], trie: &SubsetTrie, unions: &mut [u64], acc: &mut Vec<i64>) {
    let full = slots.len() + 1;
    debug_assert!(full.is_power_of_two() && full <= 1 << MAX_TAGS_PER_SET);
    // Gather: one read per subset of the root, signed for the transform.
    acc.clear();
    acc.push(0);
    acc.extend(
        (1u32..)
            .zip(slots)
            .map(|(mask, &slot)| signed(mask.count_ones(), trie.value(slot))),
    );
    // Sum over subsets: acc[mask] becomes Σ_{R ⊆ mask} g(R) = U(mask).
    let mut step = 1;
    while step < full {
        for block in acc.chunks_exact_mut(2 * step) {
            let (without, with) = block.split_at_mut(step);
            for (sum, part) in with.iter_mut().zip(without) {
                *sum += *part;
            }
        }
        step *= 2;
    }
    for (mask, &slot) in (1..full).zip(slots) {
        let inter = trie.value(slot);
        if mask & (mask - 1) != 0 && inter != 0 && unions[slot as usize] == 0 {
            // clamp as in `union_count`/`jaccard`: transiently inconsistent
            // mid-migration counters must not produce J > 1 or ∞
            unions[slot as usize] = (acc[mask].max(0) as u64).max(inter);
        }
    }
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
    fn interior_path_nodes_are_not_counters() {
        // the path to {1,2,3} runs through the nodes of {1} and {1,2};
        // nothing counted them, so they are not tracked
        let mut c = Calculator::new();
        c.absorb_counters(&[(ts(&[1, 2, 3]), 5)]);
        assert_eq!(c.tracked(), 1);
        assert_eq!(c.export_counters(), vec![(ts(&[1, 2, 3]), 5)]);
        assert_eq!(c.counter(&ts(&[1, 2])), 0);
        assert_eq!(c.counter(&ts(&[1, 2, 3])), 5);
        let reports = c.report_and_reset();
        assert_eq!(reports.len(), 1);
        assert_eq!((&reports[0].tags, reports[0].counter), (&ts(&[1, 2, 3]), 5));
    }

    #[test]
    fn a_dropped_subset_counts_from_zero_when_observed_again() {
        let mut c = Calculator::new();
        c.observe_n(&ts(&[1, 2, 3]), 4);
        c.retain_covered(&[Tag(1), Tag(2)].into_iter().collect());
        assert_eq!(c.tracked(), 3, "{{1}}, {{2}}, {{1,2}} stay");
        assert_eq!(c.counter(&ts(&[1, 3])), 0);
        c.observe(&ts(&[1, 3]));
        assert_eq!(c.counter(&ts(&[1, 3])), 1, "not 5");
        assert_eq!(c.counter(&ts(&[3])), 1);
        assert_eq!(c.counter(&ts(&[1])), 5);
        let reports = c.report_and_reset();
        let tags: Vec<&TagSet> = reports.iter().map(|r| &r.tags).collect();
        assert_eq!(tags, [&ts(&[1, 2]), &ts(&[1, 3])], "each once, in order");
        assert_eq!(reports[0].counter, 4);
        assert_eq!((reports[1].counter, reports[1].jaccard), (1, 1.0 / 5.0));
    }

    #[test]
    fn a_dropped_set_never_seen_again_is_neither_reported_nor_exported() {
        let mut c = Calculator::new();
        c.observe(&ts(&[1, 2]));
        c.observe(&ts(&[7, 8]));
        c.retain_covered(&[Tag(1), Tag(2)].into_iter().collect());
        let exported: Vec<TagSet> = c.export_counters().into_iter().map(|(t, _)| t).collect();
        assert_eq!(exported, [ts(&[1]), ts(&[1, 2]), ts(&[2])]);
        let reports = c.report_and_reset();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].tags, ts(&[1, 2]));
    }

    #[test]
    fn a_set_with_an_untracked_prefix_reads_zero() {
        let mut c = Calculator::new();
        c.observe(&ts(&[2, 3]));
        // {1} has no node at all; {2,9} leaves the trie after a tracked node
        for unseen in [&[1, 2, 3][..], &[1, 2], &[2, 9], &[0]] {
            assert_eq!(c.counter(&ts(unseen)), 0, "{unseen:?}");
            assert_eq!(c.jaccard(&ts(unseen)), None, "{unseen:?}");
        }
        assert_eq!(c.union_count(&ts(&[1, 9])), 0);
        assert_eq!(c.union_count(&ts(&[1, 2, 3])), 1, "the documents of 2 or 3");
        assert_eq!(c.tracked(), 3, "queries create nothing");
    }

    #[test]
    fn empty_notifications_are_ignored() {
        let mut c = Calculator::new();
        c.observe(&TagSet::empty());
        assert_eq!(c.tracked(), 0);
        assert_eq!(c.received(), 0);
    }

    #[test]
    fn a_wide_root_bucket_beside_a_full_root_walks_in_order() {
        // 2 000 singletons stand in the root's bucket together with the 16
        // singletons of one MAX_TAGS_PER_SET-tag set, observed in an order
        // unrelated to their tags; u32::MAX is among both
        let big: Vec<u32> = (1..MAX_TAGS_PER_SET as u32)
            .map(|i| i * 131)
            .chain([u32::MAX])
            .collect();
        let mut docs: Vec<Vec<u32>> = (0..2_000u32)
            .map(|i| vec![i * 1_009 % 2_003])
            .chain([vec![u32::MAX], vec![131], vec![131]])
            .collect();
        docs.insert(700, big.clone());
        docs.insert(1_400, big.clone());
        let mut c = Calculator::new();
        for d in &docs {
            c.observe(&ts(d));
        }
        // brute force: every subset of every document counted, and per
        // subset of `big`, the documents meeting it found through the mask
        // of `big`'s tags each document holds
        let mut expected: std::collections::BTreeMap<TagSet, u64> = Default::default();
        let mut docs_by_mask: FxHashMap<u32, u64> = FxHashMap::default();
        for d in &docs {
            for mask in 1..1u32 << d.len() {
                let sub: Vec<u32> = (0..d.len())
                    .filter(|&i| mask >> i & 1 == 1)
                    .map(|i| d[i])
                    .collect();
                *expected.entry(ts(&sub)).or_default() += 1;
            }
            let in_big = (0..big.len())
                .filter(|&i| d.contains(&big[i]))
                .fold(0, |mask, i| mask | 1 << i);
            *docs_by_mask.entry(in_big).or_default() += 1;
        }
        let union = |tags: &TagSet| -> u64 {
            let mask = tags
                .iter()
                .map(|t| big.iter().position(|&b| b == t.0).unwrap())
                .fold(0u32, |mask, i| mask | 1 << i);
            docs_by_mask
                .iter()
                .filter(|&(&held, _)| held & mask != 0)
                .map(|(_, n)| n)
                .sum()
        };
        let exported = c.export_counters();
        assert!(exported.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(expected.len() > (1 << MAX_TAGS_PER_SET) + 1_000);
        let brute: Vec<(TagSet, u64)> = expected.iter().map(|(t, &n)| (t.clone(), n)).collect();
        assert_eq!(exported, brute);
        let reported = c.report_and_reset();
        assert!(reported.windows(2).all(|w| w[0].tags < w[1].tags));
        let brute: Vec<CoefficientReport> = expected
            .into_iter()
            .filter(|(tags, _)| tags.len() >= 2)
            .map(|(tags, counter)| CoefficientReport {
                jaccard: counter as f64 / union(&tags) as f64,
                tags,
                counter,
            })
            .collect();
        assert_eq!(brute.len(), (1 << MAX_TAGS_PER_SET) - 1 - MAX_TAGS_PER_SET);
        assert_eq!(reported, brute);
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
