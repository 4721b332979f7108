//! Sets of co-occurring tags.
//!
//! A [`TagSet`] is the annotation set `s_i = {t_1, …, t_k}` of one document.
//! Tweets carry few tags (the paper measures a Zipf(s = 0.25) distribution
//! with < 10 tags in practice), so tagsets are stored as short sorted arrays:
//! membership is a binary search over at most a cache line, and
//! intersection/union are linear merges.
//!
//! # Memory layout
//!
//! Because the Calculator materialises `2^m − 1` subset keys per
//! notification (§3.1) and the Disseminator builds one owned-subset tagset
//! per notified Calculator (§3.3), tagset construction sits on the per-tuple
//! hot path of the whole system. Sets of up to [`INLINE_TAGS`] tags are
//! therefore stored *inline* (a fixed array + length, no heap pointer).
//! That is most sets, not all: Zipf `s = 0.25` over ranks 1…`mmax + 1` with
//! `mmax = 8` is nearly flat, so 52 % of the generator's documents carry
//! ≤ 3 tags and 28 % carry 6–8 and spill, as do 11 % of the coefficients of
//! a benchmark `steady` round. Longer sets (up to [`MAX_TAGS_PER_SET`])
//! spill to a *shared* slice: one allocation where the set is built, none
//! where it is cloned — at the spout, on the fan-out to Partitioners and
//! Disseminator, into whole-set notifications, pending keys, the Tracker's
//! output and readers' answers.
//!
//! A spilled set is a view `buf[start..start + len]` of an `Arc<[Tag]>`,
//! 24 bytes like the inline form. A set built on its own owns its whole
//! buffer (`start = 0`, `len = buf.len()`); sets built together can share
//! one ([`TagSet::from_shared`]): a Calculator writes every spilled
//! coefficient of one report into one buffer, so a report of thousands of
//! long sets allocates their tags once, and the Tracker's output and the
//! recorder keep those sets at 24 bytes each plus their tags. The
//! representations are observably identical: `Eq`, `Ord`, and `Hash` are
//! implemented over the logical tag slice, never over the representation.

use crate::fx::{hash_tags, FxHashSet};
use crate::tag::Tag;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Maximum number of tags a single tagset may carry.
///
/// The Calculator enumerates all `2^m − 1` non-empty subsets of a received
/// tagset (§3.1), so `m` must stay small; the paper relies on the empirical
/// bound of < 10 tags per tweet. Parsers must truncate anything longer.
pub const MAX_TAGS_PER_SET: usize = 16;

/// Sets of at most this many tags are stored inline (no heap allocation).
///
/// Five tags fill the 24 bytes a spilled set's pointer and length occupy
/// anyway; 72 % of the generator's documents and 89 % of `steady`'s
/// coefficients fit. Seven would take in most of the rest, at 32 bytes for
/// *every* set (`peak_heap_mb` 205 → 233 on `steady`); sharing the spilled
/// slice removes the same allocations for a 16-byte header per spilled set.
pub const INLINE_TAGS: usize = 5;

/// Small-set-optimised storage: short sets live in a fixed inline array,
/// long ones in a slice of a shared buffer (neither clone allocates). Never
/// exposed; all observable behaviour goes through the logical `tags()`
/// slice.
#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        tags: [Tag; INLINE_TAGS],
    },
    /// `buf[start..start + len]`: the whole of an owned buffer, or one
    /// set's slice of a buffer several sets share.
    Heap {
        buf: Arc<[Tag]>,
        start: u32,
        len: u8,
    },
}

// Sharing a buffer costs no width: the view's offset and length fit beside
// the fat pointer, as the inline array does.
const _: () = assert!(std::mem::size_of::<TagSet>() == 24);

impl Repr {
    /// The whole of `buf` as a spilled set.
    fn owned(buf: Arc<[Tag]>) -> Self {
        Repr::Heap {
            len: buf.len() as u8,
            start: 0,
            buf,
        }
    }
}

/// An immutable, sorted, duplicate-free set of tags.
///
/// Ordering: `TagSet`s compare lexicographically by their sorted tag ids,
/// which gives a deterministic total order used for reproducible tie-breaking
/// in the partitioning algorithms.
#[derive(Clone)]
pub struct TagSet {
    repr: Repr,
}

impl TagSet {
    /// Build a tagset from arbitrary tags: sorts, deduplicates, truncates to
    /// [`MAX_TAGS_PER_SET`].
    pub fn new(mut tags: Vec<Tag>) -> Self {
        tags.sort_unstable();
        tags.dedup();
        tags.truncate(MAX_TAGS_PER_SET);
        Self::from_sorted_unchecked(tags)
    }

    /// Build from a slice of raw tag ids (test/bench convenience).
    pub fn from_ids(ids: &[u32]) -> Self {
        Self::new(ids.iter().map(|&i| Tag(i)).collect())
    }

    /// Build from tags that are already sorted, unique, and within the size
    /// cap. Validated in debug builds.
    pub fn from_sorted_unchecked(tags: Vec<Tag>) -> Self {
        if tags.len() <= INLINE_TAGS {
            Self::from_sorted_slice(&tags)
        } else {
            debug_assert!(tags.len() <= MAX_TAGS_PER_SET);
            debug_assert!(
                tags.windows(2).all(|w| w[0] < w[1]),
                "must be sorted+unique"
            );
            TagSet {
                repr: Repr::owned(tags.into()),
            }
        }
    }

    /// Build from a *borrowed* slice of sorted, unique tags without
    /// consuming a `Vec` — the zero-allocation entry point used by scratch
    /// buffers on the routing and counting hot paths. Validated in debug
    /// builds.
    #[inline]
    pub fn from_sorted_slice(tags: &[Tag]) -> Self {
        debug_assert!(tags.len() <= MAX_TAGS_PER_SET);
        debug_assert!(
            tags.windows(2).all(|w| w[0] < w[1]),
            "must be sorted+unique"
        );
        if tags.len() <= INLINE_TAGS {
            let mut inline = [Tag(0); INLINE_TAGS];
            inline[..tags.len()].copy_from_slice(tags);
            TagSet {
                repr: Repr::Inline {
                    len: tags.len() as u8,
                    tags: inline,
                },
            }
        } else {
            TagSet {
                repr: Repr::owned(tags.into()),
            }
        }
    }

    /// The set of the sorted, unique tags `buf[range]`, sharing `buf` when
    /// it spills: the spilled set is a view that keeps `buf` alive, and
    /// costs no allocation. A set of up to [`INLINE_TAGS`] tags is copied
    /// inline as [`TagSet::from_sorted_slice`] would, so the representation
    /// stays a function of the length. Validated in debug builds.
    pub fn from_shared(buf: &Arc<[Tag]>, range: std::ops::Range<usize>) -> Self {
        let tags = &buf[range.clone()];
        if tags.len() <= INLINE_TAGS {
            return Self::from_sorted_slice(tags);
        }
        debug_assert!(tags.len() <= MAX_TAGS_PER_SET);
        debug_assert!(
            tags.windows(2).all(|w| w[0] < w[1]),
            "must be sorted+unique"
        );
        assert!(range.start <= u32::MAX as usize, "views are u32-addressed");
        TagSet {
            repr: Repr::Heap {
                buf: buf.clone(),
                start: range.start as u32,
                len: tags.len() as u8,
            },
        }
    }

    /// The empty tagset (documents without hashtags).
    pub fn empty() -> Self {
        Self::from_sorted_slice(&[])
    }

    /// True iff this set is stored in the inline (allocation-free)
    /// representation. Diagnostic only — the representations are observably
    /// identical; the ingest benchmarks use this to count avoided
    /// allocations.
    #[inline]
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline { .. })
    }

    /// Rebuild this set in the heap representation regardless of length.
    ///
    /// Exists so property tests can pit the two representations against
    /// each other; production code never needs it (the representation is a
    /// pure function of the length).
    #[doc(hidden)]
    pub fn with_forced_heap_repr(&self) -> Self {
        TagSet {
            repr: Repr::owned(self.tags().into()),
        }
    }

    /// Number of tags.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } | Repr::Heap { len, .. } => *len as usize,
        }
    }

    /// True for documents without tags.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sorted tags as a slice.
    #[inline]
    pub fn tags(&self) -> &[Tag] {
        match &self.repr {
            Repr::Inline { len, tags } => &tags[..*len as usize],
            Repr::Heap { buf, start, len } => &buf[*start as usize..][..*len as usize],
        }
    }

    /// Iterate tags in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = Tag> + '_ {
        self.tags().iter().copied()
    }

    /// Membership test (binary search; sets are tiny).
    #[inline]
    pub fn contains(&self, tag: Tag) -> bool {
        self.tags().binary_search(&tag).is_ok()
    }

    /// `|self ∩ other|` via linear merge.
    pub fn intersection_len(&self, other: &TagSet) -> usize {
        let (a, b) = (self.tags(), other.tags());
        let (mut i, mut j, mut n) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    /// `|self ∪ other|`.
    pub fn union_len(&self, other: &TagSet) -> usize {
        self.len() + other.len() - self.intersection_len(other)
    }

    /// True iff the sets share at least one tag (i.e. there is an edge
    /// between their vertices in the tagset graph of §4).
    pub fn intersects(&self, other: &TagSet) -> bool {
        let (a, b) = (self.tags(), other.tags());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => return true,
            }
        }
        false
    }

    /// True iff every tag of `self` appears in `other`.
    pub fn is_subset_of(&self, other: &TagSet) -> bool {
        if self.len() > other.len() {
            return false;
        }
        let (a, b) = (self.tags(), other.tags());
        let (mut i, mut j) = (0, 0);
        while i < a.len() {
            if j >= b.len() {
                return false;
            }
            match a[i].cmp(&b[j]) {
                Ordering::Less => return false,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        true
    }

    /// True iff every tag of `self` is a member of the hash set `cover`.
    /// Used for the coverage test `s_i ⊆ pr_j` against partition tag sets.
    pub fn is_covered_by(&self, cover: &FxHashSet<Tag>) -> bool {
        self.tags().iter().all(|t| cover.contains(t))
    }

    /// Number of tags of `self` already present in `cover` (`|s_j ∩ CV|`).
    pub fn covered_count(&self, cover: &FxHashSet<Tag>) -> usize {
        self.tags().iter().filter(|t| cover.contains(t)).count()
    }

    /// Number of tags of `self` *not* present in `cover` (`|s_j \ CV|`).
    pub fn uncovered_count(&self, cover: &FxHashSet<Tag>) -> usize {
        self.len() - self.covered_count(cover)
    }

    /// `self ∩ other` as a new tagset.
    pub fn intersection(&self, other: &TagSet) -> TagSet {
        let mut buf = [Tag(0); MAX_TAGS_PER_SET];
        let mut n = 0;
        let (a, b) = (self.tags(), other.tags());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => {
                    buf[n] = a[i];
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        TagSet::from_sorted_slice(&buf[..n])
    }

    /// `self ∪ other` as a new tagset (truncated to the size cap).
    pub fn union(&self, other: &TagSet) -> TagSet {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (a, b) = (self.tags(), other.tags());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        TagSet::new(out)
    }

    /// The subset of `self` whose tags satisfy `keep` (e.g. "tags assigned to
    /// Calculator j" when the Disseminator builds notification payloads).
    pub fn filter(&self, mut keep: impl FnMut(Tag) -> bool) -> TagSet {
        let mut buf = [Tag(0); MAX_TAGS_PER_SET];
        let mut n = 0;
        for &t in self.tags() {
            if keep(t) {
                buf[n] = t;
                n += 1;
            }
        }
        TagSet::from_sorted_slice(&buf[..n])
    }

    /// Enumerate all non-empty subsets of this tagset as bitmasks over
    /// `self.tags()` (LSB = smallest tag). The Calculator maintains one
    /// counter per subset (§3.1).
    ///
    /// The iterator yields `2^len − 1` masks; `len` is capped by
    /// [`MAX_TAGS_PER_SET`].
    pub fn subset_masks(&self) -> impl Iterator<Item = u32> {
        let n = self.len() as u32;
        1..(1u32 << n)
    }

    /// Materialise the subset encoded by `mask` (as produced by
    /// [`TagSet::subset_masks`]).
    ///
    /// Allocation-free for results of up to [`INLINE_TAGS`] tags: the subset
    /// is gathered straight into the inline representation. This is the
    /// §3.1 counting hot path — `2^m − 1` calls per notification.
    #[inline]
    pub fn subset(&self, mask: u32) -> TagSet {
        let tags = self.tags();
        if mask.count_ones() as usize <= INLINE_TAGS {
            let mut inline = [Tag(0); INLINE_TAGS];
            let mut n = 0u8;
            // iterate set bits only: subsets are mostly far smaller than
            // the set itself
            let mut m = mask;
            while m != 0 {
                let i = m.trailing_zeros() as usize;
                if i >= tags.len() {
                    break;
                }
                inline[n as usize] = tags[i];
                n += 1;
                m &= m - 1;
            }
            TagSet {
                repr: Repr::Inline {
                    len: n,
                    tags: inline,
                },
            }
        } else {
            let mut buf = [Tag(0); MAX_TAGS_PER_SET];
            let mut n = 0;
            let mut m = mask;
            while m != 0 {
                let i = m.trailing_zeros() as usize;
                if i >= tags.len() {
                    break;
                }
                buf[n] = tags[i];
                n += 1;
                m &= m - 1;
            }
            TagSet::from_sorted_slice(&buf[..n])
        }
    }
}

impl PartialEq for TagSet {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.tags() == other.tags()
    }
}

impl Eq for TagSet {}

impl PartialOrd for TagSet {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TagSet {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.tags().cmp(other.tags())
    }
}

impl Hash for TagSet {
    /// Hashes the logical tag slice (representation-independent) through the
    /// word-packed fast path of [`crate::fx::hash_tags`]: counter-map probes
    /// consume 8 bytes per hasher round instead of 4.
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        let tags = self.tags();
        state.write_usize(tags.len());
        hash_tags(tags, state);
    }
}

fn fmt_tagset(tags: &[Tag], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "{{")?;
    for (i, t) in tags.iter().enumerate() {
        if i > 0 {
            write!(f, ",")?;
        }
        write!(f, "{}", t)?;
    }
    write!(f, "}}")
}

impl fmt::Debug for TagSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_tagset(self.tags(), f)
    }
}

impl fmt::Display for TagSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_tagset(self.tags(), f)
    }
}

impl<'a> IntoIterator for &'a TagSet {
    type Item = Tag;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Tag>>;
    fn into_iter(self) -> Self::IntoIter {
        self.tags().iter().copied()
    }
}

impl FromIterator<Tag> for TagSet {
    fn from_iter<I: IntoIterator<Item = Tag>>(iter: I) -> Self {
        TagSet::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(ids: &[u32]) -> TagSet {
        TagSet::from_ids(ids)
    }

    #[test]
    fn new_sorts_and_dedups() {
        let s = ts(&[3, 1, 3, 2, 1]);
        assert_eq!(s.tags(), &[Tag(1), Tag(2), Tag(3)]);
    }

    #[test]
    fn truncates_to_cap() {
        let ids: Vec<u32> = (0..40).collect();
        let s = TagSet::from_ids(&ids);
        assert_eq!(s.len(), MAX_TAGS_PER_SET);
    }

    #[test]
    fn membership_and_len() {
        let s = ts(&[5, 9, 2]);
        assert!(s.contains(Tag(5)));
        assert!(!s.contains(Tag(4)));
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert!(TagSet::empty().is_empty());
    }

    #[test]
    fn small_sets_are_inline_large_sets_spill() {
        let small: Vec<u32> = (0..INLINE_TAGS as u32).collect();
        assert!(TagSet::from_ids(&small).is_inline());
        let large: Vec<u32> = (0..INLINE_TAGS as u32 + 1).collect();
        assert!(!TagSet::from_ids(&large).is_inline());
        assert!(TagSet::empty().is_inline());
    }

    #[test]
    fn forced_heap_repr_is_observably_identical() {
        let a = ts(&[1, 2, 3]);
        let b = a.with_forced_heap_repr();
        assert!(a.is_inline() && !b.is_inline());
        assert_eq!(a, b);
        assert_eq!(a.cmp(&b), Ordering::Equal);
        assert_eq!(crate::fx::hash_one(&a), crate::fx::hash_one(&b));
    }

    #[test]
    fn a_view_of_a_shared_buffer_is_the_set_it_names() {
        let buf: Arc<[Tag]> = (0..20).map(Tag).collect();
        let view = TagSet::from_shared(&buf, 3..11);
        let owned = TagSet::from_ids(&(3..11).collect::<Vec<u32>>());
        assert!(!view.is_inline());
        assert_eq!(view.tags(), owned.tags());
        assert_eq!((view.len(), view.cmp(&owned)), (8, Ordering::Equal));
        assert_eq!(crate::fx::hash_one(&view), crate::fx::hash_one(&owned));
        assert_eq!(Arc::strong_count(&buf), 2, "the view shares the buffer");
        let short = TagSet::from_shared(&buf, 18..20);
        assert!(short.is_inline(), "a short view is copied inline");
        assert_eq!(short, ts(&[18, 19]));
        assert!(view < short && TagSet::from_shared(&buf, 3..9) < view);
    }

    #[test]
    fn intersection_union_lengths() {
        let a = ts(&[1, 2, 3, 4]);
        let b = ts(&[3, 4, 5]);
        assert_eq!(a.intersection_len(&b), 2);
        assert_eq!(a.union_len(&b), 5);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&ts(&[9])));
    }

    #[test]
    fn subset_relation() {
        let a = ts(&[2, 4]);
        let b = ts(&[1, 2, 3, 4]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(ts(&[]).is_subset_of(&a));
        assert!(a.is_subset_of(&a));
        assert!(!ts(&[2, 5]).is_subset_of(&b));
    }

    #[test]
    fn cover_counting() {
        let mut cv = FxHashSet::default();
        cv.insert(Tag(1));
        cv.insert(Tag(3));
        let s = ts(&[1, 2, 3, 4]);
        assert_eq!(s.covered_count(&cv), 2);
        assert_eq!(s.uncovered_count(&cv), 2);
        assert!(!s.is_covered_by(&cv));
        cv.insert(Tag(2));
        cv.insert(Tag(4));
        assert!(s.is_covered_by(&cv));
    }

    #[test]
    fn set_algebra() {
        let a = ts(&[1, 2, 3]);
        let b = ts(&[2, 3, 4]);
        assert_eq!(a.intersection(&b), ts(&[2, 3]));
        assert_eq!(a.union(&b), ts(&[1, 2, 3, 4]));
    }

    #[test]
    fn set_algebra_across_the_inline_boundary() {
        let big: Vec<u32> = (0..12).collect();
        let a = TagSet::from_ids(&big);
        assert!(!a.is_inline());
        let b = ts(&[0, 1, 2, 20]);
        assert_eq!(a.intersection(&b), ts(&[0, 1, 2]));
        assert!(a.intersection(&b).is_inline());
        let u = a.union(&b);
        assert_eq!(u.len(), 13);
        assert!(!u.is_inline());
    }

    #[test]
    fn filter_projects_assigned_tags() {
        let s = ts(&[1, 2, 3, 4]);
        let owned = s.filter(|t| t.0 % 2 == 0);
        assert_eq!(owned, ts(&[2, 4]));
    }

    #[test]
    fn subset_masks_enumerate_powerset() {
        let s = ts(&[10, 20, 30]);
        let subsets: Vec<TagSet> = s.subset_masks().map(|m| s.subset(m)).collect();
        assert_eq!(subsets.len(), 7);
        assert!(subsets.contains(&ts(&[10])));
        assert!(subsets.contains(&ts(&[20, 30])));
        assert!(subsets.contains(&ts(&[10, 20, 30])));
        // all distinct
        let uniq: std::collections::BTreeSet<_> = subsets.iter().cloned().collect();
        assert_eq!(uniq.len(), 7);
    }

    #[test]
    fn subsets_of_a_heap_set_work_and_stay_inline_when_small() {
        let ids: Vec<u32> = (0..12).collect();
        let s = TagSet::from_ids(&ids);
        assert!(!s.is_inline());
        let sub = s.subset(0b101);
        assert_eq!(sub, ts(&[0, 2]));
        assert!(sub.is_inline());
        let full = s.subset((1u32 << 12) - 1);
        assert_eq!(full, s);
        assert!(!full.is_inline());
    }

    #[test]
    fn deterministic_ordering() {
        let a = ts(&[1, 2]);
        let b = ts(&[1, 3]);
        assert!(a < b);
    }
}
