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
//! * **Hash-consed notification sets.** The first sighting of a distinct
//!   notification set in a period resolves the slots of its `2^m − 1`
//!   subset counters and keeps them with the set, its *root*; every later
//!   sighting only adds to the root's count (one map update per tuple).
//!   The counts reach the counters when the round closes, or a query needs
//!   them, by adding each root's count along its recorded slots — nothing
//!   is hashed then. Tag streams are Zipfian, so popular sets pay the
//!   exponential expansion once instead of once per sighting, and the
//!   probes are paid as sets arrive, not on the round-close path.
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
//!   a first sighting resolves each with one 8-byte-key probe
//!   (`subset_slots`) of a flat table of 4-byte slot ids, builds, hashes
//!   and compares no tagset, and records the slots of its subsets in mask
//!   order: the report reads by index.
//! * **A report that leaves sorted without a sort of tagsets.** A counting
//!   sort by parent slot stands each node's children together, a sort of
//!   each sibling group puts them in tag order, and a pre-order walk of
//!   that is ascending tagset order. The tags of every emitted set too long
//!   to store inline go into one buffer per report, which each such
//!   coefficient shares: a report allocates its tags once, not once per
//!   long set.

use setcorr_model::{fx, FxHashMap, FxHashSet, Tag, TagSet, INLINE_TAGS, MAX_TAGS_PER_SET};
use std::cell::RefCell;
use std::sync::Arc;

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

/// Buckets of a fresh trie's child index.
const MIN_BUCKETS: usize = 16;

/// The subset counters of one report period, in a hash-consed trie.
///
/// A zero counter *is* an untracked subset: interior nodes of a path that
/// nothing counted, and counters [`Calculator::retain_covered`] dropped,
/// look the same and are neither reported nor exported.
#[derive(Debug, Clone)]
struct SubsetTrie {
    /// The child index: a power-of-two number of buckets, at most half
    /// full, each 0 (empty: the root is nobody's child) or the slot of a
    /// node whose edge hashes there or, by linear probing, to a bucket
    /// before it. A probe compares `edges[slot]`, so a bucket is 4 bytes.
    index: Vec<u32>,
    /// Per slot, the edge word `(parent slot) << 32 | tag` that leads to it
    /// (nothing leads to the root). A parent's slot is smaller than its
    /// children's.
    edges: Vec<u64>,
    /// Per slot, the counter `CN(T)`.
    values: Vec<u64>,
}

impl Default for SubsetTrie {
    fn default() -> Self {
        SubsetTrie {
            index: vec![0; MIN_BUCKETS],
            edges: vec![0],
            values: vec![0],
        }
    }
}

impl SubsetTrie {
    /// The bucket of `edge` in the child index and the slot there: the
    /// edge's node, or 0 at the empty bucket where it would go.
    #[inline]
    fn probe(&self, edge: u64) -> (usize, u32) {
        let mask = self.index.len() - 1;
        let mut at = fx::hash_u64(edge) as usize & mask;
        loop {
            let slot = self.index[at];
            if slot == 0 || self.edges[slot as usize] == edge {
                return (at, slot);
            }
            at = (at + 1) & mask;
        }
    }

    /// The child of `parent` along `tag`, created on first sight.
    #[inline]
    fn child(&mut self, parent: u32, tag: Tag) -> u32 {
        let edge = (parent as u64) << 32 | tag.0 as u64;
        let (at, found) = self.probe(edge);
        if found != 0 {
            return found;
        }
        let slot = self.edges.len();
        assert!(slot < ABSENT as usize, "too many subsets in one period");
        self.edges.push(edge);
        self.values.push(0);
        self.index[at] = slot as u32;
        if 2 * slot > self.index.len() {
            self.grow();
        }
        slot as u32
    }

    /// Double the child index and re-place every node, in slot order.
    fn grow(&mut self) {
        let buckets = 2 * self.index.len();
        self.index.clear();
        self.index.resize(buckets, 0);
        let mask = buckets - 1;
        for (slot, &edge) in (1u32..).zip(&self.edges[1..]) {
            let mut at = fx::hash_u64(edge) as usize & mask;
            while self.index[at] != 0 {
                at = (at + 1) & mask;
            }
            self.index[at] = slot;
        }
    }

    /// The child of `parent` along `tag`, or [`ABSENT`].
    #[inline]
    fn find(&self, parent: u32, tag: Tag) -> u32 {
        let edge = (parent as u64) << 32 | tag.0 as u64;
        match self.probe(edge) {
            (_, 0) => ABSENT,
            (_, slot) => slot,
        }
    }

    /// Drop every node but the root; the index keeps its buckets.
    fn clear(&mut self) {
        self.index.fill(0);
        self.edges.truncate(1);
        self.values.truncate(1);
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
    /// order of the paths, a prefix before its extensions. `scratch` holds
    /// the buckets; it is reused from walk to walk.
    fn walk_sorted(&self, scratch: &mut WalkScratch, mut visit: impl FnMut(&[Tag], usize)) {
        let n = self.edges.len();
        let WalkScratch { first, order } = scratch;
        // the children of slot `p` are `order[first[p]..first[p + 1]]`:
        // count each parent's at `p + 2`, sum, then scatter through `p + 1`
        first.clear();
        first.resize(n + 2, 0);
        for &edge in &self.edges[1..] {
            first[(edge >> 32) as usize + 2] += 1;
        }
        for p in 2..n + 2 {
            first[p] += first[p - 1];
        }
        order.clear();
        order.resize(n - 1, 0);
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

/// Where the long sets of one report go: their tags, back to back, and per
/// set its position in the report and where its tags start. Kept between
/// reports.
#[derive(Debug, Default, Clone)]
struct Spill {
    tags: Vec<Tag>,
    sets: Vec<(usize, usize)>,
}

/// The buckets of [`SubsetTrie::walk_sorted`], kept between walks.
#[derive(Debug, Default, Clone)]
struct WalkScratch {
    /// Per parent slot, where its children start in `order`.
    first: Vec<u32>,
    /// `tag << 32 | slot` of every node but the root, bucketed by parent.
    order: Vec<u64>,
}

/// One distinct notification set of the period, hash-consed at its first
/// sighting.
#[derive(Debug, Clone, Copy)]
struct Root {
    /// Where the slots of its `2^m − 1` subsets start in `root_slots`.
    start: usize,
    /// Sightings not yet added along those slots.
    unapplied: u64,
}

/// The state behind one Calculator, behind one [`RefCell`] so the read-only
/// query surface (`counter`, `jaccard`, `tracked`, state export) can apply
/// the roots' counts to the counters first.
#[derive(Debug, Default, Clone)]
struct CalcState {
    /// Every applied or adopted subset counter.
    trie: SubsetTrie,
    /// The distinct notification sets of the current report period — the
    /// roots of the report-time batch union computation — each once.
    roots: FxHashMap<TagSet, Root>,
    /// Per root, the slots of its `2^m − 1` subsets in mask order.
    root_slots: Vec<u32>,
    /// Some root holds sightings not yet applied.
    unapplied: bool,
    /// Counters were adopted this period, so some may lie outside every
    /// root: the report sweeps for them.
    adopted: bool,
    /// The report's per-slot union claims, kept between reports.
    unions: Vec<u64>,
    /// The sum-over-subsets accumulator, kept between reports.
    acc: Vec<i64>,
    /// The sorted walk's buckets, kept between walks.
    walk: WalkScratch,
    /// The report's long sets, kept between reports.
    spill: Spill,
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
    /// A repeat sighting of a set already seen this period costs one map
    /// update: it adds to the set's count. The first sighting also resolves
    /// the slots of its `2^m − 1` subset counters (§3.1), one trie probe
    /// each, and keeps them with the set; the counts reach the counters
    /// when they are next read (`CalcState::expand`). `m` is small by the
    /// data's nature (< 10 tags/tweet) and bounded by [`MAX_TAGS_PER_SET`].
    /// A key of up to [`setcorr_model::INLINE_TAGS`] tags is stored inline;
    /// a longer one (28 % of the generator's documents carry 6–8 tags, and a
    /// notification is whatever part of a document one Calculator owns)
    /// shares the notification's spilled slice, so a first sighting costs
    /// no allocation either way beyond the growth of the period's tables.
    pub fn observe(&mut self, notification: &TagSet) {
        self.observe_n(notification, 1);
    }

    /// Ingest `n` identical notifications at once — the count-weighted
    /// [`Calculator::observe`], for callers that already hold a count of
    /// identical sets. `n` sightings cost what one does, and every
    /// observable result equals `n` separate `observe` calls.
    pub fn observe_n(&mut self, notification: &TagSet, n: u64) {
        if notification.is_empty() || n == 0 {
            return;
        }
        self.received += n;
        let state = self.state.get_mut();
        state.unapplied = true;
        if let Some(root) = state.roots.get_mut(notification) {
            root.unapplied += n;
            return;
        }
        let start = state.root_slots.len();
        let trie = &mut state.trie;
        subset_slots(notification.tags(), &mut state.root_slots, |parent, tag| {
            trie.child(parent, tag)
        });
        state.roots.insert(
            notification.clone(),
            Root {
                start,
                unapplied: n,
            },
        );
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
        state.trie.clear();
        state.roots.clear();
        state.root_slots.clear();
        state.unapplied = false;
        state.adopted = false;
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
        let CalcState { trie, walk, .. } = &mut *state;
        let mut out = Vec::with_capacity(trie.tracked());
        trie.walk_sorted(walk, |tags, slot| {
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
    ///
    /// Every root stays one, departed or not: the union a root claims for a
    /// subset reads only the counters of that subset's own subsets, which
    /// are owned whenever the subset is, so a departed root claims for its
    /// surviving subsets exactly what a sweep rooted at them would.
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
    }

    /// Merge migrated counters additively. The migration protocol
    /// guarantees each counter arrives from exactly one sender and covers a
    /// disjoint slice of the stream, so `+` reassembles the single-owner
    /// count exactly.
    pub fn absorb_counters(&mut self, counters: &[(TagSet, u64)]) {
        let state = self.state.get_mut();
        state.adopted |= !counters.is_empty();
        let trie = &mut state.trie;
        for (ts, n) in counters.iter().filter(|(ts, _)| !ts.is_empty()) {
            let slot = ts.iter().fold(ROOT, |slot, tag| trie.child(slot, tag));
            trie.values[slot as usize] += n;
        }
    }

    /// Emit coefficients for every tracked tagset with ≥ 2 tags and clear all
    /// counters (the "every y time units" step of §6.2): the
    /// [`Calculator::report_into`] of a fresh vector.
    pub fn report_and_reset(&mut self) -> Vec<CoefficientReport> {
        let mut out = Vec::new();
        self.report_into(&mut out);
        out
    }

    /// Append to `out` the coefficient of every tracked tagset with ≥ 2
    /// tags, and clear all counters. What this appends is strictly
    /// ascending by tagset — the Tracker merges it as one sorted run — and
    /// comes out of the trie's sorted walk in that order: no tagset is
    /// compared, and one is built only for each coefficient emitted.
    ///
    /// A set of up to [`INLINE_TAGS`] tags is built inline. The tags of the
    /// longer ones are written back to back as the walk meets them, and
    /// frozen into one buffer that each of their tagsets views
    /// ([`TagSet::from_shared`]) once the walk ends: with `out`'s capacity
    /// and the scratch kept from the last report, that buffer is the one
    /// allocation a report makes.
    ///
    /// Union cardinalities are computed in batch: every distinct
    /// notification set of the period roots one signed sum-over-subsets
    /// transform that yields the unions of *all* its subsets at once (see
    /// `sos_claim`), reading the counters through the slots recorded at its
    /// first sighting; counters that no root covers — possible only for state
    /// adopted mid-migration — fall back to sweeps rooted at the leftover
    /// sets themselves, which look their slots up once.
    pub fn report_into(&mut self, out: &mut Vec<CoefficientReport>) {
        let state = self.state.get_mut();
        state.expand();
        let CalcState {
            trie,
            roots,
            root_slots,
            adopted,
            unions,
            acc,
            walk,
            spill,
            ..
        } = state;
        // Per slot, the union cardinality claimed for its coefficient — at
        // least its counter, so zero is "unclaimed".
        unions.clear();
        unions.resize(trie.values.len(), 0);
        // Batch union computation, rooted at the period's distinct
        // notification sets. A subset's union is claimed by the first root
        // to reach it; a root wholly contained in an already-processed root
        // is skipped on the claim of its own counter, the last slot of its
        // run. A single tag has no coefficient to claim.
        for (set, root) in roots.iter() {
            let slots = &root_slots[root.start..][..(1 << set.len()) - 1];
            if set.len() >= 2 && unions[slots[slots.len() - 1] as usize] == 0 {
                sos_claim(slots, trie, unions, acc);
            }
        }
        // Leftover sweep — counters no local root covers, possible only for
        // state adopted mid-migration: largest-first, so one sweep rooted at
        // a leftover also covers all its subsets. A leftover looks its
        // subsets up once; the absent ones read zero.
        if *adopted {
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
                    sos_claim(&slots, trie, unions, acc);
                }
            }
        }
        // room for exactly this report; a vector more than twice its size,
        // left behind by a far larger round, is cut down first
        let len = out.len() + unions.iter().filter(|&&union| union != 0).count();
        if out.capacity() > 2 * len {
            out.shrink_to(len);
        }
        out.reserve_exact(len - out.len());
        spill.tags.clear();
        spill.sets.clear();
        trie.walk_sorted(walk, |tags, slot| {
            if unions[slot] != 0 {
                let counter = trie.values[slot];
                let tags = if tags.len() > INLINE_TAGS {
                    // a placeholder until the buffer it will view exists
                    spill.sets.push((out.len(), spill.tags.len()));
                    spill.tags.extend_from_slice(tags);
                    TagSet::empty()
                } else {
                    TagSet::from_sorted_slice(tags)
                };
                out.push(CoefficientReport {
                    tags,
                    jaccard: counter as f64 / unions[slot] as f64,
                    counter,
                });
            }
        });
        if !spill.sets.is_empty() {
            let buf: Arc<[Tag]> = spill.tags.as_slice().into();
            let ends = spill.sets[1..].iter().map(|&(_, start)| start);
            for (&(pos, start), end) in spill.sets.iter().zip(ends.chain([buf.len()])) {
                out[pos].tags = TagSet::from_shared(&buf, start..end);
            }
        }
        self.reset();
    }
}

impl CalcState {
    /// Apply the sightings the roots hold to the subset counters: each
    /// root's count added along its recorded slots, nothing hashed.
    fn expand(&mut self) {
        if !std::mem::take(&mut self.unapplied) {
            return;
        }
        for (set, root) in self.roots.iter_mut() {
            let n = std::mem::take(&mut root.unapplied);
            if n != 0 {
                for &slot in &self.root_slots[root.start..][..(1 << set.len()) - 1] {
                    self.trie.values[slot as usize] += n;
                }
            }
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
    fn a_set_queried_between_sightings_is_one_root() {
        let set = ts(&[1, 2, 3]);
        let mut queried = Calculator::new();
        let mut quiet = Calculator::new();
        queried.observe(&set);
        quiet.observe(&set);
        assert_eq!(queried.tracked(), 7);
        assert_eq!(queried.counter(&ts(&[2, 3])), 1);
        queried.observe_n(&set, 2);
        quiet.observe_n(&set, 2);
        assert_eq!(
            queried.state.borrow().roots.len(),
            1,
            "a root once per period"
        );
        assert_eq!(
            queried.counter(&ts(&[2, 3])),
            3,
            "the later sightings count"
        );
        assert_eq!(queried.report_and_reset(), quiet.report_and_reset());
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
    fn the_child_index_doubles_many_times_and_finds_every_subset() {
        // ~1 200 distinct sets of 1–7 sparse tags: tens of thousands of
        // nodes, so the 16-bucket index doubles about a dozen times
        let mut state = 0x7A1E_u64;
        let mut rnd = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let docs: Vec<Vec<u32>> = (0..1_200)
            .map(|_| {
                let len = 1 + rnd(7) as usize;
                let mut d: Vec<u32> = (0..len).map(|_| rnd(300) as u32 * 14_327_753).collect();
                d.sort_unstable();
                d.dedup();
                d
            })
            .collect();
        let mut c = Calculator::new();
        let mut expected: std::collections::BTreeMap<TagSet, u64> = Default::default();
        for d in &docs {
            c.observe(&ts(d));
            for mask in 1..1u32 << d.len() {
                *expected.entry(ts(d).subset(mask)).or_default() += 1;
            }
        }
        assert_eq!(c.tracked(), expected.len());
        {
            let state = c.state.borrow();
            let (index, nodes) = (&state.trie.index, state.trie.edges.len() - 1);
            assert!(index.len().is_power_of_two() && 2 * nodes <= index.len());
            assert!(index.len() >= MIN_BUCKETS << 10, "{} buckets", index.len());
            assert_eq!(index.iter().filter(|&&slot| slot != 0).count(), nodes);
        }
        for (tags, &n) in &expected {
            assert_eq!(c.counter(tags), n, "{tags:?}");
            // one tag past the largest is never a node
            let mut longer: Vec<u32> = tags.iter().map(|t| t.0).collect();
            longer.push(u32::MAX);
            assert_eq!(c.counter(&ts(&longer)), 0, "{longer:?}");
        }
        let brute: Vec<(TagSet, u64)> = expected.into_iter().collect();
        assert_eq!(c.export_counters(), brute);
        c.reset();
        assert_eq!((c.tracked(), c.counter(&brute[0].0)), (0, 0));
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
