//! Parallel-runtime equivalence: threaded runs pinned byte-identical to the
//! sim oracle at the Tracker.
//!
//! What the suite pins, and why the config pins the partition map:
//!
//! * **Data plane** — tagset order, round attribution, routing — is
//!   runtime-invariant (exact backend), so the Tracker output must match
//!   the oracle byte for byte.
//! * **Control plane** — the bootstrap repartition request — is *not*:
//!   on the threaded runtime it lands at an interleaving-dependent point
//!   in the Partitioners' input. The suite therefore pins the bootstrap
//!   map via [`bootstrap_partitions`] — a deterministic function of the
//!   stream alone — freezes drift (`thr = 1000`) and disables Single
//!   Additions (`sn = u32::MAX`), leaving exactly the data plane under
//!   test.

use setcorr::prelude::*;

fn stream(seed: u64, n: usize) -> Vec<Document> {
    Generator::new(WorkloadConfig::with_seed(seed))
        .take(n)
        .collect()
}

/// Frozen-control-plane config with the partition map pinned from the
/// stream prefix.
fn pinned_config(docs: &[Document]) -> ExperimentConfig {
    let config = ExperimentConfig {
        algorithm: AlgorithmKind::Ds,
        k: 5,
        partitioners: 3,
        thr: 1_000.0, // drift can never trigger a repartition
        sn: u32::MAX, // Single Additions can never fire
        bootstrap_after: 1500,
        report_period: TimeDelta::from_secs(10),
        window: WindowKind::Time(TimeDelta::from_secs(10)),
        ..ExperimentConfig::for_algorithm(AlgorithmKind::Ds)
    };
    let pinned = bootstrap_partitions(&config, docs);
    config.with_pinned_partitions(pinned)
}

const SEEDS: [u64; 3] = [3, 11, 1999];
const DOCS: usize = 30_000;

/// Threaded runs agree with the sim oracle byte for byte at the Tracker,
/// for every seed: channel interleaving across Partitioner and Calculator
/// tasks must not change round attribution, routing, or coefficients.
#[test]
fn threaded_front_matches_the_sim_oracle_at_the_tracker() {
    for seed in SEEDS {
        let docs = stream(seed, DOCS);
        let config = pinned_config(&docs);
        let oracle = run_docs(&config, docs.clone(), RunMode::Sim);
        assert!(
            oracle.tracked_rounds.len() >= 3,
            "seed {seed}: need several rounds, got {}",
            oracle.tracked_rounds.len()
        );
        assert!(
            oracle.routed_tagsets > 0,
            "seed {seed}: pinned map must route"
        );
        let threaded = run_docs(&config, docs.clone(), RunMode::Threaded);
        assert_eq!(
            format!("{:?}", threaded.tracked_rounds),
            format!("{:?}", oracle.tracked_rounds),
            "seed {seed}: threaded Tracker feed diverged from the sim oracle"
        );
        // every round is finalized exactly once, in ascending order
        let rounds: Vec<u64> = threaded.tracked_rounds.iter().map(|&(r, _)| r).collect();
        assert!(
            rounds.windows(2).all(|w| w[0] < w[1]),
            "seed {seed}: rounds must be finalized once each, strictly ascending"
        );
        // conservation invariants hold exactly, not just in a band: every
        // tagset reaches the Disseminator exactly once
        assert_eq!(
            (threaded.routed_tagsets, threaded.unrouted_tagsets),
            (oracle.routed_tagsets, oracle.unrouted_tagsets),
            "seed {seed}: routed/unrouted totals diverged"
        );
        let tagged = docs.iter().filter(|d| !d.tags.is_empty()).count() as u64;
        assert_eq!(
            threaded.routed_tagsets + threaded.unrouted_tagsets,
            tagged,
            "seed {seed}: routed + unrouted must equal the tagged documents"
        );
        // per-instance attribution: one entry per component, `k` tasks on
        // the Calculators, and the per-component total is the sum of its
        // per-task seconds
        let tasks: std::collections::HashMap<&str, usize> = threaded
            .operator_task_seconds
            .iter()
            .map(|(name, t)| (name.as_str(), t.len()))
            .collect();
        assert_eq!(tasks["calculator"], config.k);
        for ((name, total), (_, per_task)) in threaded
            .operator_seconds
            .iter()
            .zip(&threaded.operator_task_seconds)
        {
            let sum: f64 = per_task.iter().sum();
            assert!(
                (total - sum).abs() < 1e-9,
                "{name}: component total {total} != per-task sum {sum}"
            );
        }
    }
}
