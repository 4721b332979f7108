//! Property tests: the inline and heap `TagSet` representations are
//! observably identical.
//!
//! The small-set optimisation (`INLINE_TAGS`) must never leak into
//! behaviour: `Eq`/`Ord`/`Hash` agree across representation boundaries,
//! set algebra and subset enumeration round-trip, and the boundary sizes
//! (`INLINE_TAGS − 1`, `INLINE_TAGS`, `INLINE_TAGS + 1`) behave exactly
//! like their neighbours. A deterministic xorshift generator stands in for
//! a property-testing framework (the workspace builds offline).

use setcorr_model::{fx, Tag, TagSet, INLINE_TAGS, MAX_TAGS_PER_SET};
use std::cmp::Ordering;
use std::collections::BTreeSet;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Random sorted-unique tag vector of the exact requested length.
fn random_ids(rng: &mut Rng, len: usize, universe: u32) -> Vec<u32> {
    let mut set = BTreeSet::new();
    while set.len() < len {
        set.insert((rng.next() % universe as u64) as u32);
    }
    set.into_iter().collect()
}

/// Both representations of the same logical set.
fn both_reprs(ids: &[u32]) -> (TagSet, TagSet) {
    let natural = TagSet::from_ids(ids);
    let heaped = natural.with_forced_heap_repr();
    assert!(!heaped.is_inline());
    (natural, heaped)
}

#[test]
fn representation_is_a_pure_function_of_length() {
    for len in 0..=MAX_TAGS_PER_SET {
        let ids: Vec<u32> = (0..len as u32).collect();
        let ts = TagSet::from_ids(&ids);
        assert_eq!(ts.is_inline(), len <= INLINE_TAGS, "len {len}");
        assert_eq!(ts.len(), len);
    }
}

#[test]
fn eq_ord_hash_agree_across_reprs() {
    let mut rng = Rng(0xDECAF);
    for round in 0..500 {
        let len = (rng.next() % (MAX_TAGS_PER_SET as u64 + 1)) as usize;
        let ids = random_ids(&mut rng, len, 300);
        let (a, b) = both_reprs(&ids);
        assert_eq!(a, b, "round {round}");
        assert_eq!(a.cmp(&b), Ordering::Equal);
        assert_eq!(fx::hash_one(&a), fx::hash_one(&b), "hash must ignore repr");
        assert_eq!(a.tags(), b.tags());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}

#[test]
fn ordering_is_consistent_across_repr_boundaries() {
    // Compare pairs where one side is inline and the other heap: the order
    // must match the plain lexicographic order of the id slices.
    let mut rng = Rng(0xBEE);
    for _ in 0..500 {
        let la = (rng.next() % (MAX_TAGS_PER_SET as u64 + 1)) as usize;
        let lb = (rng.next() % (MAX_TAGS_PER_SET as u64 + 1)) as usize;
        let ia = random_ids(&mut rng, la, 50);
        let ib = random_ids(&mut rng, lb, 50);
        let (a_inline, a_heap) = both_reprs(&ia);
        let (b_inline, b_heap) = both_reprs(&ib);
        let expected = ia
            .iter()
            .map(|&i| Tag(i))
            .collect::<Vec<_>>()
            .cmp(&ib.iter().map(|&i| Tag(i)).collect::<Vec<_>>());
        for a in [&a_inline, &a_heap] {
            for b in [&b_inline, &b_heap] {
                assert_eq!(a.cmp(b), expected, "{ia:?} vs {ib:?}");
            }
        }
    }
}

#[test]
fn hash_map_lookups_cross_the_repr_boundary() {
    // A map keyed with one representation must answer probes made with the
    // other — this is what the Calculator relies on when migrated (heap)
    // keys meet locally built (inline) probes.
    let mut rng = Rng(0xF00D);
    let mut map = setcorr_model::FxHashMap::default();
    let mut keys = Vec::new();
    let mut used: BTreeSet<Vec<u32>> = BTreeSet::new();
    for i in 0..200u64 {
        let len = (rng.next() % (MAX_TAGS_PER_SET as u64 + 1)) as usize;
        let ids = random_ids(&mut rng, len, 400);
        if !used.insert(ids.clone()) {
            continue; // logical duplicate would just overwrite
        }
        let (natural, heaped) = both_reprs(&ids);
        map.insert(heaped, i);
        keys.push((natural, i));
    }
    for (probe, i) in keys {
        assert_eq!(map.get(&probe), Some(&i), "{probe:?}");
    }
}

#[test]
fn subset_masks_round_trip_on_both_reprs() {
    let mut rng = Rng(0xAB);
    for _ in 0..50 {
        // keep subset enumeration tractable: up to 10 tags = 1023 subsets
        let len = 1 + (rng.next() % 10) as usize;
        let ids = random_ids(&mut rng, len, 100);
        let (natural, heaped) = both_reprs(&ids);
        let subs_a: Vec<TagSet> = natural.subset_masks().map(|m| natural.subset(m)).collect();
        let subs_b: Vec<TagSet> = heaped.subset_masks().map(|m| heaped.subset(m)).collect();
        assert_eq!(subs_a.len(), (1 << len) - 1);
        assert_eq!(subs_a, subs_b);
        // every subset is a subset, and the full mask reproduces the set
        for s in &subs_a {
            assert!(s.is_subset_of(&natural));
            assert!(s.is_subset_of(&heaped));
        }
        assert_eq!(subs_a.last().unwrap(), &natural, "full mask = whole set");
        // all subsets distinct
        let uniq: BTreeSet<_> = subs_a.iter().cloned().collect();
        assert_eq!(uniq.len(), subs_a.len());
    }
}

#[test]
fn set_algebra_agrees_across_reprs() {
    let mut rng = Rng(0x5EED);
    for _ in 0..300 {
        let la = (rng.next() % (MAX_TAGS_PER_SET as u64 + 1)) as usize;
        let lb = (rng.next() % (MAX_TAGS_PER_SET as u64 + 1)) as usize;
        let ia = random_ids(&mut rng, la, 40);
        let ib = random_ids(&mut rng, lb, 40);
        let (a_inline, a_heap) = both_reprs(&ia);
        let (b_inline, b_heap) = both_reprs(&ib);
        assert_eq!(
            a_inline.intersection(&b_inline),
            a_heap.intersection(&b_heap)
        );
        assert_eq!(a_inline.union(&b_inline), a_heap.union(&b_heap));
        assert_eq!(
            a_inline.intersection_len(&b_heap),
            a_heap.intersection_len(&b_inline)
        );
        assert_eq!(a_inline.intersects(&b_heap), a_heap.intersects(&b_inline));
        assert_eq!(
            a_inline.is_subset_of(&b_heap),
            a_heap.is_subset_of(&b_inline)
        );
    }
}

#[test]
fn boundary_lengths_behave_identically() {
    // N−1, N, N+1 around the inline boundary: construction, equality,
    // hashing, subset enumeration, and membership must be seamless.
    for len in [INLINE_TAGS - 1, INLINE_TAGS, INLINE_TAGS + 1] {
        let ids: Vec<u32> = (0..len as u32).map(|i| i * 3 + 1).collect();
        let (natural, heaped) = both_reprs(&ids);
        assert_eq!(natural.len(), len);
        assert_eq!(natural, heaped);
        assert_eq!(fx::hash_one(&natural), fx::hash_one(&heaped));
        for &id in &ids {
            assert!(natural.contains(Tag(id)));
            assert!(heaped.contains(Tag(id)));
        }
        assert!(!natural.contains(Tag(2)));
        // dropping one tag crosses (or stays within) the boundary cleanly
        let shorter: TagSet = natural.filter(|t| t != Tag(1));
        assert_eq!(shorter.len(), len - 1);
        assert!(shorter.is_subset_of(&natural));
        // growing by one tag crosses upward cleanly
        let mut grown: Vec<Tag> = natural.iter().collect();
        grown.push(Tag(9999));
        let grown = TagSet::new(grown);
        assert_eq!(grown.len(), len + 1);
        assert!(natural.is_subset_of(&grown));
    }
}

#[test]
fn a_cloned_spilled_set_and_every_spilling_constructor_agree() {
    // A spilled set shares its tags with its clones, so the clone has to be
    // indistinguishable from a set built afresh by any constructor.
    let mut rng = Rng(0xC10E);
    for _ in 0..200 {
        let len = INLINE_TAGS + 1 + (rng.next() % (MAX_TAGS_PER_SET - INLINE_TAGS) as u64) as usize;
        let tags: Vec<Tag> = random_ids(&mut rng, len, 500)
            .into_iter()
            .map(Tag)
            .collect();
        let owned = TagSet::from_sorted_unchecked(tags.clone());
        let clone = owned.clone();
        let variants = [
            clone.clone(),
            TagSet::from_sorted_slice(&tags),
            owned.with_forced_heap_repr(),
            TagSet::new(tags.iter().rev().copied().collect()),
        ];
        drop(owned); // the clones outlive the set they were taken from
        let smaller = TagSet::from_sorted_slice(&tags[..len - 1]);
        for variant in &variants {
            assert!(!variant.is_inline());
            assert_eq!(variant, &clone);
            assert_eq!(variant.cmp(&clone), Ordering::Equal);
            assert_eq!(variant.cmp(&smaller), Ordering::Greater);
            assert_eq!(fx::hash_one(variant), fx::hash_one(&clone));
            assert_eq!(variant.tags(), &tags[..]);
        }
    }
}
