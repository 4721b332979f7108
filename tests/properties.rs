//! Randomised invariant tests across the workspace.
//!
//! Formerly written against proptest; the offline build has no registry
//! access, so each property is now exercised over a few hundred seeded
//! random cases (deterministic per run — failures reproduce immediately).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use setcorr::core::{
    connected_components, partition, AlgorithmKind, Calculator, CoefficientReport, Disseminator,
    DisseminatorConfig, Merger, PartitionInput, PartitionSet, PartitionerOutput, QualityReference,
    RouteResult, TrackedCoefficient, Tracker, UnionFind,
};
use setcorr::metrics::{gini, lorenz_curve};
use setcorr::model::{
    fx, Document, FxHashSet, Tag, TagSet, TagSetStat, TagSetWindow, TimeDelta, Timestamp,
    WindowKind, MAX_TAGS_PER_SET,
};
use setcorr::topology::ExactRun;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// A window of small random tagsets with counts (mirrors the old
/// `tagset_window()` proptest strategy).
fn random_specs(rng: &mut StdRng) -> Vec<(Vec<u32>, u64)> {
    let n = rng.gen_range(1usize..60);
    (0..n)
        .map(|_| {
            let len = rng.gen_range(1usize..6);
            let ids: Vec<u32> = (0..len).map(|_| rng.gen_range(0u32..40)).collect();
            (ids, rng.gen_range(1u64..20))
        })
        .collect()
}

fn random_docs(rng: &mut StdRng, max_tag: u32, max_docs: usize) -> Vec<Vec<u32>> {
    let n = rng.gen_range(1usize..max_docs);
    (0..n)
        .map(|_| {
            let len = rng.gen_range(1usize..5);
            (0..len).map(|_| rng.gen_range(0u32..max_tag)).collect()
        })
        .collect()
}

fn build_input(specs: &[(Vec<u32>, u64)]) -> PartitionInput {
    PartitionInput::from_stats(
        specs
            .iter()
            .map(|(ids, count)| TagSetStat {
                tags: TagSet::from_ids(ids),
                count: *count,
            })
            .collect(),
    )
}

/// §1.1 requirement 1: every algorithm must cover every input tagset.
#[test]
fn all_algorithms_cover_every_tagset() {
    let mut rng = StdRng::seed_from_u64(101);
    for case in 0..60 {
        let specs = random_specs(&mut rng);
        let input = build_input(&specs);
        let k = rng.gen_range(1usize..8);
        let seed: u64 = rng.gen();
        for algorithm in AlgorithmKind::ALL {
            let parts = partition(algorithm, &input, k, seed);
            assert_eq!(parts.k(), k);
            for stat in &input.stats {
                assert!(
                    parts.covers(&stat.tags),
                    "case {case}: {algorithm} k={k} left {:?} uncovered",
                    stat.tags
                );
            }
        }
    }
}

/// §6.2: with `P` Partitioners, each sees only its field-grouped share of
/// the window, and the Merger must still cover every tagset of the whole.
#[test]
fn merged_partitioner_shares_cover_every_tagset() {
    let mut rng = StdRng::seed_from_u64(116);
    let mut uncovered = Vec::new();
    for case in 0..200 {
        let specs = random_specs(&mut rng);
        let input = build_input(&specs);
        let k = rng.gen_range(1usize..8);
        let seed: u64 = rng.gen();
        for p in [1usize, 3, 5, 10] {
            // split as the topology's Fields grouping does
            let mut shares = vec![Vec::new(); p];
            for stat in &input.stats {
                shares[(fx::hash_one(&stat.tags) % p as u64) as usize].push(stat.clone());
            }
            for algorithm in AlgorithmKind::ALL {
                let outputs: Vec<PartitionerOutput> = shares
                    .iter()
                    .map(|share| {
                        let share = PartitionInput::from_stats(share.clone());
                        PartitionerOutput::compute(algorithm, &share, k, seed)
                    })
                    .collect();
                let merged = Merger::new(algorithm, k).merge(outputs, &input).partitions;
                uncovered.extend(
                    input
                        .stats
                        .iter()
                        .filter(|stat| !merged.covers(&stat.tags))
                        .map(|stat| (case, p, algorithm, stat.tags.clone())),
                );
            }
        }
    }
    assert!(
        uncovered.is_empty(),
        "{} tagsets left uncovered, first (case, P, algorithm, tagset): {:?}",
        uncovered.len(),
        uncovered.first()
    );
}

/// DS never replicates a tag (its defining structural property).
#[test]
fn ds_is_replication_free() {
    let mut rng = StdRng::seed_from_u64(102);
    for case in 0..100 {
        let specs = random_specs(&mut rng);
        let input = build_input(&specs);
        let k = rng.gen_range(1usize..8);
        let parts = partition(AlgorithmKind::Ds, &input, k, 0);
        let mut seen = HashSet::new();
        for p in &parts.parts {
            for &t in &p.tags {
                assert!(seen.insert(t), "case {case}: tag {t} in two DS partitions");
            }
        }
        assert!((parts.replication_factor() - 1.0).abs() < 1e-12);
    }
}

/// Partition loads are conserved by the set-cover algorithms: the sum of
/// partition bookkeeping loads equals the sum of tagset loads.
#[test]
fn setcover_load_bookkeeping_is_conserved() {
    let mut rng = StdRng::seed_from_u64(103);
    for case in 0..60 {
        let specs = random_specs(&mut rng);
        let input = build_input(&specs);
        let k = rng.gen_range(1usize..6);
        let expected: u64 = input.loads.iter().sum();
        for algorithm in [AlgorithmKind::Scc, AlgorithmKind::Scl, AlgorithmKind::Sci] {
            let parts = partition(algorithm, &input, k, 1);
            let got: u64 = parts.parts.iter().map(|p| p.load).sum();
            assert_eq!(got, expected, "case {case}: {algorithm}");
        }
    }
}

/// The tagset-graph components partition both the tags and the documents.
#[test]
fn components_partition_tags_and_docs() {
    let mut rng = StdRng::seed_from_u64(104);
    for case in 0..100 {
        let specs = random_specs(&mut rng);
        let input = build_input(&specs);
        let comps = connected_components(&input);
        let total_docs: u64 = comps.components.iter().map(|c| c.docs).sum();
        assert_eq!(total_docs, input.total_docs, "case {case}");
        let mut tags = HashSet::new();
        for c in &comps.components {
            for &t in &c.tags {
                assert!(tags.insert(t), "case {case}: tag in two components");
            }
        }
        assert_eq!(tags.len(), input.distinct_tags());
        // every tagset's tags land in exactly one component
        for stat in &input.stats {
            let owners = comps
                .components
                .iter()
                .filter(|c| stat.tags.iter().any(|t| c.tags.contains(&t)))
                .count();
            assert_eq!(owners, 1, "case {case}");
        }
    }
}

/// Union-find agrees with a naive label-propagation reference.
#[test]
fn union_find_matches_naive() {
    let mut rng = StdRng::seed_from_u64(105);
    for case in 0..100 {
        let n_edges = rng.gen_range(0usize..60);
        let edges: Vec<(u32, u32)> = (0..n_edges)
            .map(|_| (rng.gen_range(0u32..30), rng.gen_range(0u32..30)))
            .collect();
        let mut uf = UnionFind::new(30);
        let mut labels: Vec<u32> = (0..30).collect();
        for &(a, b) in &edges {
            uf.union(a, b);
            let (la, lb) = (labels[a as usize], labels[b as usize]);
            if la != lb {
                for l in labels.iter_mut() {
                    if *l == lb {
                        *l = la;
                    }
                }
            }
        }
        for i in 0..30u32 {
            for j in 0..30u32 {
                assert_eq!(
                    uf.connected(i, j),
                    labels[i as usize] == labels[j as usize],
                    "case {case}: ({i},{j})"
                );
            }
        }
        let distinct: HashSet<u32> = labels.iter().copied().collect();
        assert_eq!(uf.set_count(), distinct.len(), "case {case}");
    }
}

/// Inclusion–exclusion in the Calculator equals brute-force set algebra.
#[test]
fn calculator_matches_brute_force() {
    let mut rng = StdRng::seed_from_u64(106);
    for case in 0..40 {
        let docs = random_docs(&mut rng, 8, 60);
        let mut calc = Calculator::new();
        for d in &docs {
            calc.observe(&TagSet::from_ids(d));
        }
        let universe: BTreeSet<u32> = docs.iter().flatten().copied().collect();
        let tags: Vec<u32> = universe.into_iter().collect();
        for (i, &a) in tags.iter().enumerate() {
            for &b in &tags[i + 1..] {
                let inter = docs
                    .iter()
                    .filter(|d| d.contains(&a) && d.contains(&b))
                    .count();
                let union = docs
                    .iter()
                    .filter(|d| d.contains(&a) || d.contains(&b))
                    .count();
                let expected = (inter > 0).then(|| inter as f64 / union as f64);
                let got = calc.jaccard(&TagSet::from_ids(&[a, b]));
                match (expected, got) {
                    (None, None) => {}
                    (Some(e), Some(g)) => {
                        assert!((e - g).abs() < 1e-12, "case {case}: ({a},{b})")
                    }
                    other => panic!("case {case}: mismatch {other:?}"),
                }
            }
        }
    }
}

/// What a whole report must be: every subset of ≥ 2 tags of `universe` with
/// a non-zero intersection in `docs`, ascending by tagset, with its
/// brute-force counter and Jaccard coefficient.
fn brute_force_report(docs: &[Vec<u32>], universe: &[u32]) -> Vec<CoefficientReport> {
    let mut expected = Vec::new();
    for mask in 1u32..1 << universe.len() {
        let subset: Vec<u32> = (0..universe.len())
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| universe[i])
            .collect();
        let inter = docs
            .iter()
            .filter(|d| subset.iter().all(|t| d.contains(t)))
            .count();
        let union = docs
            .iter()
            .filter(|d| subset.iter().any(|t| d.contains(t)))
            .count();
        if subset.len() >= 2 && inter > 0 {
            expected.push(CoefficientReport {
                tags: TagSet::from_ids(&subset),
                jaccard: inter as f64 / union as f64,
                counter: inter as u64,
            });
        }
    }
    expected.sort_by(|a, b| a.tags.cmp(&b.tags));
    expected
}

/// `reports` is exactly `expected` — each tagset once — in the strictly
/// ascending `TagSet::cmp` order the Tracker's run merge relies on.
fn assert_report_is(reports: &[CoefficientReport], expected: &[CoefficientReport], context: &str) {
    assert!(
        reports.windows(2).all(|w| w[0].tags < w[1].tags),
        "{context}: report not strictly ascending by tagset"
    );
    assert_eq!(reports, expected, "{context}");
}

fn universe_of(docs: &[Vec<u32>]) -> Vec<u32> {
    let universe: BTreeSet<u32> = docs.iter().flatten().copied().collect();
    universe.into_iter().collect()
}

/// A whole `report_and_reset()` equals brute force, also when a mid-round
/// query expands the same distinct sets twice, and the round after a report
/// starts from nothing.
#[test]
fn whole_report_matches_brute_force() {
    let mut rng = StdRng::seed_from_u64(112);
    for case in 0..40 {
        let docs = random_docs(&mut rng, 8, 60);
        let universe = universe_of(&docs);
        let mut calc = Calculator::new();
        for d in &docs {
            calc.observe(&TagSet::from_ids(d));
        }
        assert_report_is(
            &calc.report_and_reset(),
            &brute_force_report(&docs, &universe),
            &format!("case {case}"),
        );

        // the same sets observed on both sides of an expansion: every root
        // is expanded twice and must still be reported once
        for d in &docs {
            calc.observe(&TagSet::from_ids(d));
        }
        let probe = TagSet::from_ids(&docs[0]);
        assert!(calc.tracked() > 0 && calc.counter(&probe) > 0);
        for d in &docs {
            calc.observe(&TagSet::from_ids(d));
        }
        let twice: Vec<Vec<u32>> = docs.iter().chain(&docs).cloned().collect();
        assert_report_is(
            &calc.report_and_reset(),
            &brute_force_report(&twice, &universe),
            &format!("case {case}, expanded twice"),
        );
        assert!(calc.report_and_reset().is_empty(), "case {case}: not reset");
    }
}

/// The exact computation equals brute force on every round of seeded
/// streams spanning several rounds, gaps and untagged documents included:
/// each input tagset of ≥ 2 tags is reported with its brute-force Jaccard
/// coefficient, bit for bit, and its count of exact matches in the round;
/// the run-level occurrences are the whole-run counts.
#[test]
fn exact_run_matches_brute_force() {
    let mut rng = StdRng::seed_from_u64(120);
    for case in 0..40 {
        // 0–3 ms between documents, now and then a gap of rounds; every
        // tenth document untagged
        let (mut t, mut rounds) = (0, BTreeMap::<u64, Vec<Vec<u32>>>::new());
        let mut stream = Vec::new();
        for d in random_docs(&mut rng, 8, 120) {
            t += if rng.gen_range(0u32..20) == 0 {
                25
            } else {
                rng.gen_range(0..4)
            };
            let d = if rng.gen_range(0u32..10) == 0 {
                Vec::new()
            } else {
                d
            };
            stream.push(Document::new(0, Timestamp(t), TagSet::from_ids(&d)));
            rounds.entry(t / 10).or_default().push(d);
        }
        let exact = ExactRun::of(&stream, TimeDelta(10));
        let ids: Vec<u64> = exact.rounds().iter().map(|(r, _)| *r).collect();
        assert_eq!(ids, (0..=t / 10).collect::<Vec<_>>(), "case {case}");
        let mut whole: BTreeMap<TagSet, u64> = BTreeMap::new();
        for (round, reports) in exact.rounds() {
            let docs = rounds.remove(round).unwrap_or_default();
            let brute = brute_force_report(&docs, &universe_of(&docs));
            let mut counts: BTreeMap<TagSet, u64> = BTreeMap::new();
            for tags in docs.iter().map(|d| TagSet::from_ids(d)) {
                if tags.len() >= 2 {
                    *counts.entry(tags.clone()).or_insert(0) += 1;
                    *whole.entry(tags).or_insert(0) += 1;
                }
            }
            let got: Vec<_> = reports
                .iter()
                .map(|r| (&r.tags, r.jaccard.to_bits(), r.counter))
                .collect();
            let expected: Vec<_> = counts
                .iter()
                .map(|(tags, &n)| {
                    let b = brute.iter().find(|b| b.tags == *tags).expect("observed");
                    (tags, b.jaccard.to_bits(), n)
                })
                .collect();
            assert_eq!(got, expected, "case {case}, round {round}");
        }
        let occurrences: BTreeMap<TagSet, u64> = exact.occurrences().clone().into_iter().collect();
        assert_eq!(occurrences, whole, "case {case}");
    }
}

/// The state handoff of a repartition keeps whole reports exact: the old
/// owner reports what it kept (partly through the leftover sweep — the
/// surviving subsets of departed roots), the new owner what it adopted plus
/// what it observed before and after.
#[test]
fn whole_report_matches_brute_force_across_a_handoff() {
    let mut rng = StdRng::seed_from_u64(113);
    for case in 0..40 {
        let before = random_docs(&mut rng, 8, 60);
        let mut old_owner = Calculator::new();
        for d in &before {
            old_owner.observe(&TagSet::from_ids(d));
        }
        // tags 0..4 stay, tags 4..8 move to a Calculator that has already
        // seen documents over them and sees more afterwards
        let stays: FxHashSet<Tag> = (0..4).map(Tag).collect();
        let moves: FxHashSet<Tag> = (4..8).map(Tag).collect();
        let moving_docs = |rng: &mut StdRng| -> Vec<Vec<u32>> {
            random_docs(rng, 4, 20)
                .into_iter()
                .map(|d| d.into_iter().map(|t| t + 4).collect())
                .collect()
        };
        let (early, late) = (moving_docs(&mut rng), moving_docs(&mut rng));
        let mut new_owner = Calculator::new();
        for d in &early {
            new_owner.observe(&TagSet::from_ids(d));
        }
        let handed: Vec<(TagSet, u64)> = old_owner
            .export_counters()
            .into_iter()
            .filter(|(ts, _)| ts.is_covered_by(&moves))
            .collect();
        old_owner.retain_covered(&stays);
        new_owner.absorb_counters(&handed);
        for d in &late {
            new_owner.observe(&TagSet::from_ids(d));
        }

        assert_report_is(
            &old_owner.report_and_reset(),
            &brute_force_report(&before, &[0, 1, 2, 3]),
            &format!("case {case}, old owner"),
        );
        let seen: Vec<Vec<u32>> = [&before, &early, &late]
            .into_iter()
            .flatten()
            .cloned()
            .collect();
        assert_report_is(
            &new_owner.report_and_reset(),
            &brute_force_report(&seen, &[4, 5, 6, 7]),
            &format!("case {case}, new owner"),
        );
    }
}

/// Counters adopted without the subsets their unions need (bundles from
/// different senders straddling a report boundary) are still reported once
/// each, in order, with coefficients clamped into (0, 1].
#[test]
fn inconsistent_adopted_counters_report_clamped() {
    let mut rng = StdRng::seed_from_u64(114);
    for case in 0..40 {
        let docs = random_docs(&mut rng, 8, 40);
        let mut donor = Calculator::new();
        for d in &docs {
            donor.observe(&TagSet::from_ids(d));
        }
        // drop a random half of the counters on the way
        let adopted: Vec<(TagSet, u64)> = donor
            .export_counters()
            .into_iter()
            .filter(|_| rng.gen_range(0u32..2) == 0)
            .collect();
        let mut calc = Calculator::new();
        calc.absorb_counters(&adopted);
        let reports = calc.report_and_reset();
        let expected: Vec<&(TagSet, u64)> =
            adopted.iter().filter(|(ts, _)| ts.len() >= 2).collect();
        assert_eq!(reports.len(), expected.len(), "case {case}");
        for (report, (tags, counter)) in reports.iter().zip(expected) {
            assert_eq!(
                (&report.tags, report.counter),
                (tags, *counter),
                "case {case}"
            );
            assert!(report.jaccard > 0.0 && report.jaccard <= 1.0, "case {case}");
        }
    }
}

/// The naive §3.1 Calculator over one small universe of tags: a dense
/// counter per subset of the universe, indexed by bitmask (bit `i` selects
/// `universe[i]`), every subset of a notification bumped one by one, and
/// Eq. 2 evaluated subset by subset.
struct BruteCalculator {
    /// Ascending.
    universe: Vec<Tag>,
    counters: Vec<u64>,
}

/// Every non-empty submask of `mask`.
fn submasks(mask: usize) -> impl Iterator<Item = usize> {
    let non_empty = |sub: &usize| *sub != 0;
    std::iter::successors(Some(mask).filter(non_empty), move |&sub| {
        Some((sub - 1) & mask).filter(non_empty)
    })
}

impl BruteCalculator {
    fn new(universe: &[Tag]) -> Self {
        BruteCalculator {
            universe: universe.to_vec(),
            counters: vec![0; 1 << universe.len()],
        }
    }

    fn tagset(&self, mask: usize) -> TagSet {
        (0..self.universe.len())
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| self.universe[i])
            .collect()
    }

    fn observe_n(&mut self, mask: usize, n: u64) {
        for sub in submasks(mask) {
            self.counters[sub] += n;
        }
    }

    fn union_count(&self, mask: usize) -> u64 {
        let union: i64 = submasks(mask)
            .map(|sub| match sub.count_ones() % 2 {
                1 => self.counters[sub] as i64,
                _ => -(self.counters[sub] as i64),
            })
            .sum();
        union.max(0) as u64
    }

    fn jaccard(&self, mask: usize) -> Option<f64> {
        let inter = self.counters[mask];
        (mask.count_ones() >= 2 && inter > 0)
            .then(|| inter as f64 / self.union_count(mask).max(inter) as f64)
    }

    fn tracked(&self) -> usize {
        self.counters.iter().filter(|&&cn| cn != 0).count()
    }

    /// Every non-zero counter as `(mask, tagset, counter)`, ascending by
    /// tagset.
    fn export(&self) -> Vec<(usize, TagSet, u64)> {
        let mut out: Vec<(usize, TagSet, u64)> = (1..self.counters.len())
            .filter(|&mask| self.counters[mask] != 0)
            .map(|mask| (mask, self.tagset(mask), self.counters[mask]))
            .collect();
        out.sort_by(|a, b| a.1.cmp(&b.1));
        out
    }

    fn retain_covered(&mut self, keep: usize) {
        for mask in 1..self.counters.len() {
            if mask & !keep != 0 {
                self.counters[mask] = 0;
            }
        }
    }

    fn report_and_reset(&mut self) -> Vec<CoefficientReport> {
        let reports = self
            .export()
            .into_iter()
            .filter_map(|(mask, tags, counter)| {
                self.jaccard(mask).map(|jaccard| CoefficientReport {
                    tags,
                    jaccard,
                    counter,
                })
            })
            .collect();
        self.counters.fill(0);
        reports
    }
}

/// Tag ids from both ends of the id space and the middle: a packed or
/// offset sort key that holds for dense small ids breaks here.
fn sparse_universe(rng: &mut StdRng, size: usize) -> Vec<Tag> {
    let mut ids = BTreeSet::new();
    while ids.len() < size {
        ids.insert(match rng.gen_range(0u32..3) {
            0 => rng.gen_range(0u32..4),
            1 => u32::MAX - rng.gen_range(0u32..4),
            _ => rng.gen_range(0u32..1 << 20),
        });
    }
    ids.into_iter().map(Tag).collect()
}

/// Whole reports, exports and mid-round queries equal the naive procedure
/// bit for bit, and leave strictly ascending, on sparse tag ids — through
/// weighted observes, sets on both sides of `INLINE_TAGS`, expansions forced
/// mid-round, full and partial handoffs between two Calculators, and resets.
#[test]
fn sparse_id_calculators_match_brute_force_through_handoffs() {
    let mut rng = StdRng::seed_from_u64(116);
    for case in 0..1_200 {
        let size = rng.gen_range(2usize..15);
        let universe = sparse_universe(&mut rng, size);
        let everything = (1usize << universe.len()) - 1;
        let mut calcs = [Calculator::new(), Calculator::new()];
        let mut brutes = [
            BruteCalculator::new(&universe),
            BruteCalculator::new(&universe),
        ];
        let mut last_observed = everything;
        let check_report = |calc: &mut Calculator, brute: &mut BruteCalculator, what: &str| {
            assert_report_is(
                &calc.report_and_reset(),
                &brute.report_and_reset(),
                &format!("case {case}, {what}"),
            );
        };
        for step in 0..rng.gen_range(4usize..24) {
            let who = rng.gen_range(0usize..2);
            let context = format!("case {case}, step {step}");
            match rng.gen_range(0u32..12) {
                0..=5 => {
                    let len = match rng.gen_range(0u32..10) {
                        0..=5 => rng.gen_range(1usize..5),
                        6..=7 => rng.gen_range(5usize..7),
                        _ => rng.gen_range(7usize..13),
                    };
                    let mut mask = 0usize;
                    while mask.count_ones() < len.min(universe.len()) as u32 {
                        mask |= 1 << rng.gen_range(0usize..universe.len());
                    }
                    let n = match rng.gen_range(0u32..4) {
                        0 => 1,
                        1 => rng.gen_range(1u64..1 << 40),
                        _ => rng.gen_range(2u64..20),
                    };
                    let notification = brutes[who].tagset(mask);
                    if n == 1 {
                        calcs[who].observe(&notification);
                    } else {
                        calcs[who].observe_n(&notification, n);
                    }
                    brutes[who].observe_n(mask, n);
                    last_observed = mask;
                }
                6..=7 => {
                    // a subset of something observed, or anything at all
                    let mask = rng.gen_range(1usize..=everything)
                        & if rng.gen_bool(0.7) {
                            last_observed
                        } else {
                            everything
                        };
                    let (calc, brute) = (&calcs[who], &brutes[who]);
                    let ts = brute.tagset(mask);
                    assert_eq!(calc.counter(&ts), brute.counters[mask], "{context}");
                    assert_eq!(calc.union_count(&ts), brute.union_count(mask), "{context}");
                    assert_eq!(
                        calc.jaccard(&ts).map(f64::to_bits),
                        brute.jaccard(mask).map(f64::to_bits),
                        "{context}"
                    );
                    assert_eq!(calc.tracked(), brute.tracked(), "{context}");
                }
                8..=9 => {
                    // `who` keeps the tags of `keep` and hands the counters it
                    // no longer covers to the other Calculator — all of them,
                    // or (a bundle straddling a report boundary) only some
                    let partial = rng.gen_bool(0.5);
                    let keep = rng.gen_range(0usize..=everything);
                    let exported = calcs[who].export_counters();
                    let expected = brutes[who].export();
                    assert!(
                        exported.windows(2).all(|w| w[0].0 < w[1].0),
                        "{context}: export not strictly ascending by tagset"
                    );
                    assert!(
                        exported
                            .iter()
                            .map(|(ts, cn)| (ts, cn))
                            .eq(expected.iter().map(|(_, ts, cn)| (ts, cn))),
                        "{context}: exported {exported:?}, expected {expected:?}"
                    );
                    let mut handed = Vec::new();
                    for (mask, ts, cn) in expected {
                        if mask & !keep != 0 && !(partial && rng.gen_bool(0.3)) {
                            brutes[1 - who].counters[mask] += cn;
                            handed.push((ts, cn));
                        }
                    }
                    let keep_tags: FxHashSet<Tag> = brutes[who].tagset(keep).iter().collect();
                    calcs[who].retain_covered(&keep_tags);
                    brutes[who].retain_covered(keep);
                    calcs[1 - who].absorb_counters(&handed);
                }
                10 => {
                    calcs[who].reset();
                    brutes[who].counters.fill(0);
                    assert_eq!(calcs[who].tracked(), 0, "{context}");
                    assert_eq!(calcs[who].received(), 0, "{context}");
                }
                _ => check_report(&mut calcs[who], &mut brutes[who], &context),
            }
        }
        for (calc, brute) in calcs.iter_mut().zip(&mut brutes) {
            check_report(calc, brute, "end");
            assert!(calc.report_and_reset().is_empty(), "case {case}: not reset");
            assert_eq!(calc.tracked(), 0, "case {case}");
        }
    }
}

/// One root of `MAX_TAGS_PER_SET` tags: the widest expansion, the deepest
/// paths, every subset of ≥ 2 tags reported once with `J = 1`, in order.
#[test]
fn a_full_size_root_reports_every_subset_in_order() {
    let ids: Vec<u32> = (0..4)
        .chain([77, 1 << 10, 1 << 19, 1 << 31])
        .chain(u32::MAX - 7..=u32::MAX)
        .collect();
    let root = TagSet::from_ids(&ids);
    assert_eq!(root.len(), MAX_TAGS_PER_SET);
    let mut calc = Calculator::new();
    calc.observe_n(&root, 3);
    assert_eq!(calc.tracked(), (1 << MAX_TAGS_PER_SET) - 1);
    let reports = calc.report_and_reset();
    assert_eq!(
        reports.len(),
        (1 << MAX_TAGS_PER_SET) - 1 - MAX_TAGS_PER_SET
    );
    assert!(reports.windows(2).all(|w| w[0].tags < w[1].tags));
    assert!(reports
        .iter()
        .all(|r| r.jaccard == 1.0 && r.counter == 3 && r.tags.is_subset_of(&root)));
}

/// Jaccard coefficients are always within (0, 1].
#[test]
fn reported_coefficients_are_probabilities() {
    let mut rng = StdRng::seed_from_u64(107);
    for _ in 0..60 {
        let docs = random_docs(&mut rng, 10, 50);
        let mut calc = Calculator::new();
        for d in &docs {
            calc.observe(&TagSet::from_ids(d));
        }
        for report in calc.report_and_reset() {
            assert!(report.jaccard > 0.0 && report.jaccard <= 1.0);
            assert!(report.counter >= 1);
        }
    }
}

/// The Tracker's streak merge equals the hash-map deduplication it replaced
/// (kept here as the reference): per round and tagset the max-`CN` report
/// wins, ties go to the larger Jaccard, reporters are counted, output is
/// sorted by tagset. Every case is fed three ways — every run shared, every
/// run staged by reference, and a mix within one round.
#[test]
fn tracker_merge_matches_hash_dedup() {
    /// `(round, run)` in arrival order.
    type Run = (u64, Vec<CoefficientReport>);
    type Feed = [Run];
    fn reference(feed: &Feed, round: u64) -> Vec<TrackedCoefficient> {
        let mut entries: HashMap<TagSet, (f64, u64, u32)> = HashMap::new();
        let runs = feed.iter().filter(|(r, _)| *r == round);
        for report in runs.flat_map(|(_, run)| run) {
            match entries.get_mut(&report.tags) {
                Some(entry) => {
                    entry.2 += 1;
                    if report.counter > entry.1
                        || (report.counter == entry.1 && report.jaccard > entry.0)
                    {
                        entry.0 = report.jaccard;
                        entry.1 = report.counter;
                    }
                }
                None => {
                    entries.insert(report.tags.clone(), (report.jaccard, report.counter, 1));
                }
            }
        }
        let mut out: Vec<TrackedCoefficient> = entries
            .into_iter()
            .map(|(tags, (jaccard, counter, reporters))| TrackedCoefficient {
                tags,
                jaccard,
                counter,
                reporters,
            })
            .collect();
        out.sort_unstable_by(|a, b| a.tags.cmp(&b.tags));
        out
    }
    // a sorted run over a small tagset universe, so runs overlap heavily;
    // counters and coefficients from small ranges, so ties are common
    fn random_run(rng: &mut StdRng) -> Vec<CoefficientReport> {
        let sets: BTreeSet<TagSet> = (0..rng.gen_range(0usize..40))
            .map(|_| {
                let len = rng.gen_range(2usize..4);
                let ids: Vec<u32> = (0..len).map(|_| rng.gen_range(0u32..7)).collect();
                TagSet::from_ids(&ids)
            })
            .filter(|ts| ts.len() >= 2)
            .collect();
        sets.into_iter()
            .map(|tags| CoefficientReport {
                tags,
                jaccard: rng.gen_range(1u32..4) as f64 / 4.0,
                counter: rng.gen_range(1u64..4),
            })
            .collect()
    }
    // feed `feed` in order — a shared run as its `Arc`, a staged one whole
    // or one report at a time — then close every round against the reference
    fn check(feed: &Feed, rng: &mut StdRng, context: &str) {
        for mode in ["shared", "staged", "mixed"] {
            let mut tracker = Tracker::new();
            for (round, run) in feed {
                let shared = mode == "shared" || (mode == "mixed" && rng.gen_range(0u32..2) == 0);
                if shared {
                    tracker.observe_shared(*round, Arc::new(run.clone()));
                } else if rng.gen_range(0u32..2) == 0 {
                    tracker.observe_run(*round, run);
                } else {
                    for report in run {
                        tracker.observe(*round, report);
                    }
                }
            }
            let open: BTreeSet<u64> = feed
                .iter()
                .filter(|(_, run)| !run.is_empty())
                .map(|(round, _)| *round)
                .collect();
            assert_eq!(
                tracker.open_round_keys(),
                open.iter().copied().collect::<Vec<u64>>(),
                "{context}, {mode}: an empty run must not open its round"
            );
            let mut published = 0;
            for &round in open.iter().rev() {
                let expected = reference(feed, round);
                published += expected.len() as u64;
                assert_eq!(
                    tracker.finish_round(round),
                    expected,
                    "{context}, {mode}, round {round}"
                );
            }
            assert_eq!(tracker.published(), published, "{context}, {mode}");
            assert_eq!(tracker.open_rounds(), 0, "{context}, {mode}");
        }
    }

    let mut rng = StdRng::seed_from_u64(115);
    let run = |specs: &[(&[u32], u32, u64)]| -> Vec<CoefficientReport> {
        specs
            .iter()
            .map(|&(ids, quarters, counter)| CoefficientReport {
                tags: TagSet::from_ids(ids),
                jaccard: quarters as f64 / 4.0,
                counter,
            })
            .collect()
    };
    let pinned: [(&str, Vec<Run>); 5] = [
        (
            "one head in four runs",
            vec![
                (0, run(&[(&[1, 2], 1, 2), (&[1, 3], 2, 1), (&[2, 3], 1, 1)])),
                (0, run(&[(&[1, 2], 3, 2), (&[2, 3], 3, 1)])),
                (0, run(&[(&[1, 2], 2, 3)])),
                (0, run(&[(&[1, 2], 1, 3), (&[1, 3], 2, 2), (&[3, 4], 1, 1)])),
            ],
        ),
        (
            "a run that is a strict prefix of another",
            vec![
                (0, run(&[(&[1, 2], 1, 1), (&[1, 3], 1, 1)])),
                (
                    0,
                    run(&[
                        (&[1, 2], 2, 1),
                        (&[1, 3], 1, 2),
                        (&[1, 4], 1, 1),
                        (&[2, 5], 3, 1),
                    ]),
                ),
            ],
        ),
        (
            "a run that descends in the middle",
            vec![
                (
                    0,
                    run(&[
                        (&[2, 3], 1, 1),
                        (&[4, 5], 1, 1),
                        (&[1, 2], 1, 1),
                        (&[4, 5], 2, 1),
                        (&[5, 6], 1, 1),
                    ]),
                ),
                (0, run(&[(&[1, 2], 3, 1), (&[5, 6], 1, 4)])),
            ],
        ),
        (
            "empty runs beside full ones and alone in a round",
            vec![
                (0, Vec::new()),
                (0, run(&[(&[1, 2], 1, 1)])),
                (0, Vec::new()),
                (7, Vec::new()),
            ],
        ),
        (
            "two interleaved rounds sharing every tagset",
            vec![
                (0, run(&[(&[1, 2], 1, 1), (&[2, 3], 1, 1)])),
                (1, run(&[(&[1, 2], 2, 1), (&[2, 3], 2, 1)])),
                (0, run(&[(&[1, 2], 3, 1), (&[2, 3], 1, 2)])),
                (1, run(&[(&[2, 3], 3, 1)])),
            ],
        ),
    ];
    for (context, feed) in &pinned {
        check(feed, &mut rng, context);
    }
    for case in 0..200 {
        // two rounds fed interleaved, run by run
        let mut feed: Vec<Run> = Vec::new();
        for _ in 0..rng.gen_range(1usize..8) {
            for round in [0u64, 1] {
                let mut run = random_run(&mut rng);
                match rng.gen_range(0u32..4) {
                    // the same tagset twice in a row
                    0 if !run.is_empty() => {
                        let at = rng.gen_range(0usize..run.len());
                        let mut twin = run[at].clone();
                        twin.counter = rng.gen_range(1u64..4);
                        run.insert(at, twin);
                    }
                    // fully descending: every report its own run
                    1 => run.reverse(),
                    _ => {}
                }
                feed.push((round, run));
            }
        }
        check(&feed, &mut rng, &format!("case {case}"));
    }
}

/// Gini is in [0, 1), zero for uniform, and scale invariant.
#[test]
fn gini_bounds_and_invariance() {
    let mut rng = StdRng::seed_from_u64(108);
    for case in 0..100 {
        let n = rng.gen_range(1usize..40);
        let loads: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * 1000.0).collect();
        let scale = 0.1 + rng.gen::<f64>() * 99.9;
        let g = gini(&loads);
        assert!((0.0..1.0).contains(&g), "case {case}: gini {g}");
        let scaled: Vec<f64> = loads.iter().map(|&x| x * scale).collect();
        assert!((gini(&scaled) - g).abs() < 1e-9, "case {case}");
        let uniform = vec![3.5; loads.len()];
        assert!(gini(&uniform).abs() < 1e-12);
        // Lorenz curve stays under the diagonal
        for (x, y) in lorenz_curve(&loads) {
            assert!(y <= x + 1e-9, "case {case}");
        }
    }
}

/// TagSet operations agree with BTreeSet reference semantics.
#[test]
fn tagset_ops_match_btreeset() {
    let mut rng = StdRng::seed_from_u64(109);
    for case in 0..300 {
        let len_a = rng.gen_range(0usize..10);
        let len_b = rng.gen_range(0usize..10);
        let a: Vec<u32> = (0..len_a).map(|_| rng.gen_range(0u32..50)).collect();
        let b: Vec<u32> = (0..len_b).map(|_| rng.gen_range(0u32..50)).collect();
        let ts_a = TagSet::from_ids(&a);
        let ts_b = TagSet::from_ids(&b);
        let set_a: BTreeSet<u32> = a.iter().copied().collect();
        let set_b: BTreeSet<u32> = b.iter().copied().collect();
        assert_eq!(ts_a.len(), set_a.len(), "case {case}");
        assert_eq!(
            ts_a.intersection_len(&ts_b),
            set_a.intersection(&set_b).count(),
            "case {case}"
        );
        assert_eq!(ts_a.union_len(&ts_b), set_a.union(&set_b).count());
        assert_eq!(ts_a.intersects(&ts_b), !set_a.is_disjoint(&set_b));
        assert_eq!(ts_a.is_subset_of(&ts_b), set_a.is_subset(&set_b));
    }
}

/// Count windows never hold more than their capacity and keep exact
/// aggregate counts.
#[test]
fn count_window_capacity_and_counts() {
    let mut rng = StdRng::seed_from_u64(110);
    for case in 0..100 {
        let n = rng.gen_range(1usize..80);
        let inserts: Vec<Vec<u32>> = (0..n)
            .map(|_| {
                let len = rng.gen_range(0usize..4);
                (0..len).map(|_| rng.gen_range(0u32..10)).collect()
            })
            .collect();
        let cap = rng.gen_range(1usize..30);
        let mut w = TagSetWindow::count(cap);
        for (i, ids) in inserts.iter().enumerate() {
            w.insert(TagSet::from_ids(ids), Timestamp(i as u64));
        }
        assert!(w.live_docs() as usize <= cap, "case {case}");
        // reference: last `cap` tagsets
        let start = inserts.len().saturating_sub(cap);
        let mut reference: HashMap<TagSet, u64> = HashMap::new();
        for ids in &inserts[start..] {
            *reference.entry(TagSet::from_ids(ids)).or_insert(0) += 1;
        }
        assert_eq!(w.distinct_tagsets(), reference.len(), "case {case}");
        for (ts, count) in reference {
            assert_eq!(w.count_of(&ts), count, "case {case}");
        }
    }
}

/// The FIFO window's on-demand views and `PartitionInput::from_window` agree
/// with a brute-force count of the live documents fed to `from_stats`, over
/// time and count windows drawing from a few tagsets (heavy duplicates,
/// empty sets included).
#[test]
fn window_views_and_partition_input_match_brute_force_count() {
    let mut rng = StdRng::seed_from_u64(112);
    for case in 0..600 {
        let universe: Vec<TagSet> = (0..rng.gen_range(1usize..12))
            .map(|_| {
                let len = rng.gen_range(0usize..8);
                let ids: Vec<u32> = (0..len).map(|_| rng.gen_range(0u32..12)).collect();
                TagSet::from_ids(&ids)
            })
            .collect();
        let mut window = if case % 2 == 0 {
            TagSetWindow::time(TimeDelta::from_millis(rng.gen_range(1u64..40)))
        } else {
            TagSetWindow::count(rng.gen_range(1usize..60))
        };
        let mut docs: Vec<(u64, TagSet)> = Vec::new();
        let mut now = 0u64;
        for _ in 0..rng.gen_range(1usize..200) {
            now += rng.gen_range(0u64..4);
            let tags = universe[rng.gen_range(0..universe.len())].clone();
            window.insert(tags.clone(), Timestamp(now));
            docs.push((now, tags));
        }
        let live: Vec<&TagSet> = match window.kind() {
            WindowKind::Time(span) => docs
                .iter()
                .filter(|(t, _)| now - t < span.millis())
                .map(|(_, tags)| tags)
                .collect(),
            WindowKind::Count(cap) => docs.iter().rev().take(cap).map(|(_, tags)| tags).collect(),
        };
        let mut counts: BTreeMap<TagSet, u64> = BTreeMap::new();
        for tags in &live {
            *counts.entry((*tags).clone()).or_insert(0) += 1;
        }
        let brute_stats: Vec<TagSetStat> = counts
            .iter()
            .map(|(tags, &count)| TagSetStat {
                tags: tags.clone(),
                count,
            })
            .collect();

        assert_eq!(window.live_docs(), live.len() as u64, "case {case}");
        assert_eq!(window.distinct_tagsets(), counts.len(), "case {case}");
        for (tags, &count) in &counts {
            assert_eq!(window.count_of(tags), count, "case {case}");
        }
        assert_eq!(window.snapshot(), brute_stats, "case {case}");
        let mut via_iter: Vec<(TagSet, u64)> = window
            .iter_stats()
            .map(|(tags, count)| (tags.clone(), count))
            .collect();
        via_iter.sort();
        assert!(via_iter.into_iter().eq(counts.clone()), "case {case}");

        let input = PartitionInput::from_window(&window);
        let brute = PartitionInput::from_stats(brute_stats);
        assert_eq!(input.stats, brute.stats, "case {case}");
        assert_eq!(input.loads, brute.loads, "case {case}");
        assert_eq!(input.postings, brute.postings, "case {case}");
        assert_eq!(input.total_docs, brute.total_docs, "case {case}");
    }
}

/// Turning the sightings table off changes no route: an `sn = u32::MAX`
/// router (Single Additions off, nothing recorded) and an `sn = u32::MAX −
/// 1` router (every uncovered sighting counted) give identical results over
/// a seeded stream, repartition requests included.
#[test]
fn routing_without_sightings_matches_routing_with_them() {
    let mut rng = StdRng::seed_from_u64(113);
    for case in 0..30 {
        let k = rng.gen_range(1usize..6);
        let mut parts = PartitionSet::empty(k);
        for tag in 0..40u32 {
            // some tags unowned, some replicated
            for _ in 0..rng.gen_range(0usize..3) {
                parts.parts[rng.gen_range(0..k)].absorb(&TagSet::from_ids(&[tag]), 1);
            }
        }
        let reference = QualityReference {
            avg_com: 1.2,
            max_load: 0.6,
        };
        let router = |sn| {
            let mut d = Disseminator::new(
                k,
                DisseminatorConfig {
                    sn,
                    z: 50,
                    thr: 0.5,
                },
            );
            d.install_partitions(&parts, reference);
            d
        };
        let (mut never, mut counting) = (router(u32::MAX), router(u32::MAX - 1));
        let (mut a, mut b) = (RouteResult::default(), RouteResult::default());
        for step in 0..2_000 {
            let len = rng.gen_range(0usize..7);
            let ids: Vec<u32> = (0..len).map(|_| rng.gen_range(0u32..45)).collect();
            let tags = TagSet::from_ids(&ids);
            never.route_into(&tags, &mut a);
            counting.route_into(&tags, &mut b);
            assert_eq!(a.notifications, b.notifications, "case {case} step {step}");
            assert_eq!(a.covered, b.covered, "case {case} step {step}");
            assert_eq!(a.actions, b.actions, "case {case} step {step}");
        }
        assert_eq!(never.totals(), counting.totals(), "case {case}");
    }
}

/// Tagset loads are consistent: `l_j` ≥ own count, ≤ total docs, and
/// equals the brute-force count of intersecting documents.
#[test]
fn input_loads_match_brute_force() {
    let mut rng = StdRng::seed_from_u64(111);
    for case in 0..60 {
        let specs = random_specs(&mut rng);
        let input = build_input(&specs);
        for (j, stat) in input.stats.iter().enumerate() {
            let brute: u64 = input
                .stats
                .iter()
                .filter(|other| other.tags.intersects(&stat.tags))
                .map(|other| other.count)
                .sum();
            assert_eq!(input.loads[j], brute, "case {case}");
            assert!(input.loads[j] >= stat.count);
            assert!(input.loads[j] <= input.total_docs);
        }
    }
}
