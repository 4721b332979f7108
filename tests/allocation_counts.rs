//! The allocation counts the data path is designed around, read from a
//! counting allocator of this test binary's own: the snapshot index is a
//! handful of vectors however many tags it serves, and none once a
//! publisher builds in the buffers of the snapshot it swapped out; the
//! Tracker's merge allocates its output and its cursor heap and nothing per
//! report; a Calculator's report allocates one tag buffer for all its long
//! sets; a tagset too long for the inline representation clones for free;
//! and routing, windowing and counting a set already seen this period
//! allocate nothing per tagset once warm.

use setcorr::core::{
    Calculator, CoefficientReport, Disseminator, DisseminatorConfig, PartitionSet,
    QualityReference, RouteResult, TrackedCoefficient, Tracker,
};
use setcorr::model::{Tag, TagSet, TagSetWindow, Timestamp, INLINE_TAGS};
use setcorr::serve::{store, Snapshot};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// Allocator calls made by this thread (tests run on threads of their own).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// `const`-initialised thread-local `Cell` without a destructor, so touching
// it allocates nothing and cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls (`alloc` + `realloc`) this thread makes inside `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (ALLOCATIONS.with(Cell::get) - before, result)
}

#[test]
fn a_snapshot_over_ten_thousand_tags_is_a_handful_of_allocations() {
    // 5 000 disjoint pairs: every tag has a neighbour row of its own
    let coefficients: Vec<TrackedCoefficient> = (0..5_000u32)
        .map(|i| TrackedCoefficient {
            tags: TagSet::from_ids(&[2 * i, 2 * i + 1]),
            jaccard: (i % 97) as f64 / 97.0,
            counter: 1,
            reporters: 1,
        })
        .collect();
    let coefficients = Arc::new(coefficients);
    let (count, snapshot) = allocations(|| Snapshot::build(0, 1, coefficients.clone()));
    assert_eq!(snapshot.neighbor_count(setcorr::model::Tag(9_999)), 1);
    // eight arrays — the Jaccard order's key map, keys and order, the row
    // table, each instance's row and each coefficient's first instance, the
    // rows' positions and the lookup table — and four doublings of the row
    // table, sized for a round's usual one tag per eight coefficients, not
    // this one's two tags per coefficient; a vector per tag would be at
    // least 10 000
    assert!(count <= 12, "Snapshot::build allocated {count} times");
}

#[test]
fn closing_a_round_of_shared_runs_allocates_the_output_and_the_cursor_heap() {
    const K: u32 = 5;
    let mut tracker = Tracker::new();
    for calc in 0..K {
        // disjoint runs of inline tagsets that interleave report by report
        let run: Vec<CoefficientReport> = (0..2_000u32)
            .map(|i| CoefficientReport {
                tags: TagSet::from_ids(&[i, 3_000 + calc]),
                jaccard: 0.5,
                counter: 1,
            })
            .collect();
        tracker.observe_shared(0, Arc::new(run));
    }
    let (count, out) = allocations(|| tracker.finish_round(0));
    assert_eq!(out.len() as u32, K * 2_000);
    assert!(out.windows(2).all(|w| w[0].tags < w[1].tags));
    // the output vector and the heap of K cursors: nothing per report
    assert_eq!(count, 2, "finish_round allocated {count} times");
}

#[test]
fn cloning_a_spilled_tagset_does_not_allocate() {
    let ids: Vec<u32> = (0..INLINE_TAGS as u32 + 1).collect();
    let spilled = TagSet::from_ids(&ids);
    assert!(!spilled.is_inline());
    let (count, clones) = allocations(|| [spilled.clone(), spilled.clone(), spilled.clone()]);
    assert!(clones.iter().all(|clone| *clone == spilled));
    assert_eq!(count, 0, "a clone of a 6-tag set called the allocator");
}

#[test]
fn routing_uncovered_tagsets_with_single_additions_off_does_not_allocate() {
    // calculator 0 owns tags 0…9 999; tag 100 000 + i belongs to nobody, so
    // {i, 100 000 + i} is routed to calculator 0 and covered by no one
    let mut parts = PartitionSet::empty(2);
    let owned: Vec<Tag> = (0..10_000).map(Tag).collect();
    parts.parts[0].absorb_tags(&owned, 1);
    parts.parts[1].absorb_tags(&[Tag(50_000)], 1);
    let config = DisseminatorConfig {
        sn: u32::MAX,
        z: 1_000,
        thr: 1_000.0,
    };
    let mut dissem = Disseminator::new(2, config);
    dissem.install_partitions(
        &parts,
        QualityReference {
            avg_com: 1.0,
            max_load: 1.0,
        },
    );
    let mut result = RouteResult::default();
    dissem.route_into(&TagSet::from_ids(&[0, 100_000]), &mut result); // warm
    let (count, uncovered) = allocations(|| {
        let mut uncovered = 0;
        for i in 0..10_000u32 {
            let tags = TagSet::from_sorted_slice(&[Tag(i), Tag(100_000 + i)]);
            dissem.route_into(&tags, &mut result);
            uncovered += usize::from(!result.covered && result.notifications.len() == 1);
        }
        uncovered
    });
    assert_eq!(uncovered, 10_000);
    assert_eq!(
        count, 0,
        "routing 10 000 uncovered tagsets allocated {count} times"
    );
}

#[test]
fn a_warm_window_insert_does_not_allocate() {
    let mut window = TagSetWindow::count(100);
    let long: Vec<u32> = (0..INLINE_TAGS as u32 + 3).collect();
    let tagset = |i: u32| match i % 3 {
        0 => TagSet::from_ids(&[i]),
        1 => TagSet::from_ids(&[i, i + 1, i + 2]),
        _ => TagSet::from_ids(&long),
    };
    let sets: Vec<TagSet> = (0..1_000).map(tagset).collect();
    let (warm, measured) = sets.split_at(200);
    for (i, tags) in (0u64..).zip(warm) {
        window.insert(tags.clone(), Timestamp(i));
    }
    let (count, ()) = allocations(|| {
        for (i, tags) in (200u64..).zip(measured) {
            window.insert(tags.clone(), Timestamp(i));
        }
    });
    assert_eq!(window.live_docs(), 100);
    assert_eq!(count, 0, "800 warm window inserts allocated {count} times");
}

#[test]
fn repeat_sightings_of_a_hash_consed_set_do_not_allocate() {
    let long: Vec<u32> = (0..INLINE_TAGS as u32 + 2).collect();
    let sets = [TagSet::from_ids(&[1, 2, 3]), TagSet::from_ids(&long)];
    let mut calc = Calculator::new();
    // the first sightings resolve the sets' subset slots
    for tags in &sets {
        calc.observe(tags);
    }
    let (count, ()) = allocations(|| {
        for _ in 0..1_000 {
            for tags in &sets {
                calc.observe(tags);
            }
        }
    });
    assert_eq!(calc.counter(&sets[1]), 1_001);
    assert_eq!(count, 0, "2 000 repeat sightings allocated {count} times");
}

/// 200 disjoint sets of eight tags, whose 200 · 37 subsets of six tags or
/// more spill: 7 400 long coefficients in a report of 49 400.
fn observe_long_sets(calc: &mut Calculator) {
    for i in 0..200u32 {
        let ids: Vec<u32> = (8 * i..8 * i + 8).collect();
        calc.observe(&TagSet::from_ids(&ids));
    }
}

/// How many coefficients of `reports` spill, checked against their count.
fn spilled(reports: &[CoefficientReport]) -> usize {
    assert_eq!(reports.len(), 200 * (256 - 1 - 8));
    assert!(reports.windows(2).all(|w| w[0].tags < w[1].tags));
    let spilled = reports.iter().filter(|r| !r.tags.is_inline()).count();
    assert_eq!(spilled, 200 * (28 + 8 + 1));
    spilled
}

#[test]
fn a_report_of_thousands_of_long_sets_allocates_its_vector_and_one_tag_buffer() {
    let mut calc = Calculator::new();
    // the first report sizes the scratch the next ones reuse
    observe_long_sets(&mut calc);
    let first = calc.report_and_reset();
    observe_long_sets(&mut calc);
    let (count, reports) = allocations(|| calc.report_and_reset());
    assert_eq!(reports, first, "the same round reports the same");
    assert!(spilled(&reports) > 1_000);
    assert_eq!(
        count, 2,
        "a report of 7 400 long sets allocated {count} times"
    );
}

#[test]
fn a_report_into_a_reused_vector_allocates_only_its_tag_buffer() {
    let mut calc = Calculator::new();
    let mut reports = Vec::new();
    observe_long_sets(&mut calc);
    calc.report_into(&mut reports);
    let first = reports.clone();
    observe_long_sets(&mut calc);
    let (count, ()) = allocations(|| {
        reports.clear();
        calc.report_into(&mut reports);
    });
    assert_eq!(reports, first);
    spilled(&reports);
    assert_eq!(
        count, 1,
        "a report into a reused vector allocated {count} times"
    );
}

/// Round `round`'s coefficients: the same 3 000 sets of two or three tags
/// every round, their coefficients moving from round to round.
fn round_of(round: u64) -> Arc<Vec<TrackedCoefficient>> {
    let coefficients = (0..3_000u32)
        .map(|i| TrackedCoefficient {
            tags: match i % 2 {
                0 => TagSet::from_ids(&[i, i + 1]),
                _ => TagSet::from_ids(&[i, i + 1, i + 2]),
            },
            jaccard: ((u64::from(i) + round) % 89 + 1) as f64 / 90.0,
            counter: round + 1,
            reporters: 1,
        })
        .collect();
    Arc::new(coefficients)
}

#[test]
fn a_publish_over_a_released_snapshot_allocates_no_index_vector() {
    let (publisher, handle) = store();
    // the third publication is the first to find a kept snapshot it can
    // build in: rounds 0 and 1 warm the scratch and the kept indexes
    for round in 0..3 {
        publisher.publish(round, round_of(round));
    }
    let coefficients = round_of(3);
    let (count, published) = allocations(|| publisher.publish(3, coefficients.clone()));
    assert_eq!(
        count, 1,
        "publish allocated {count} times, not just the Arc"
    );
    let fresh = Snapshot::build(3, 4, coefficients);
    let answers = |snapshot: &Snapshot| -> Vec<TrackedCoefficient> {
        (snapshot.top_k(50))
            .chain(snapshot.neighbors(Tag(1_000), 10))
            .chain(snapshot.coefficient(&TagSet::from_ids(&[7, 8, 9])))
            .cloned()
            .collect()
    };
    assert_eq!(answers(&published), answers(&fresh));
    assert!(Arc::ptr_eq(&published, &handle.snapshot()));
}

#[test]
fn a_reader_holding_the_kept_snapshot_keeps_its_answers_and_the_build_goes_fresh() {
    let (publisher, handle) = store();
    let answers = |snapshot: &Snapshot| -> Vec<TrackedCoefficient> {
        (snapshot.top_k(usize::MAX))
            .chain((0..3_003).flat_map(|tag| snapshot.neighbors(Tag(tag), usize::MAX)))
            .chain((0..3_000).filter_map(|i| snapshot.coefficient(&TagSet::from_ids(&[i, i + 1]))))
            .cloned()
            .collect()
    };
    publisher.publish(0, round_of(0));
    publisher.publish(1, round_of(1));
    let held = handle.snapshot();
    let before = answers(&held);
    // round 2 swaps out the held snapshot and keeps it; round 3 finds it
    // still held, so builds in fresh vectors and leaves it alone
    publisher.publish(2, round_of(2));
    let (held_count, _) = allocations(|| publisher.publish(3, round_of(3)));
    assert!(held_count > 1, "a held snapshot's buffers were taken");
    assert_eq!(answers(&held), before, "the held snapshot changed");
    assert_eq!(held.round(), Some(1));
    assert_eq!(
        answers(&handle.snapshot()),
        answers(&Snapshot::build(3, 4, round_of(3)))
    );
    // once the reader lets go, building in kept buffers resumes
    drop(held);
    publisher.publish(4, round_of(4));
    let coefficients = round_of(5);
    let (count, _) = allocations(|| publisher.publish(5, coefficients.clone()));
    assert_eq!(
        count, 1,
        "publish allocated {count} times after the reader left"
    );
}
