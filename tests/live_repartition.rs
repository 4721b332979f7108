//! Live repartitioning end-to-end: quality-driven partition swaps land
//! *mid-stream* on the threaded runtime, Calculators hand their tracking
//! state to the new owners across the epoch fence, and the final
//! correlation report stays consistent with a fixed-partition sim run.

use setcorr::prelude::*;

fn stream(seed: u64, n: usize) -> Vec<Document> {
    Generator::new(WorkloadConfig::with_seed(seed))
        .take(n)
        .collect()
}

/// Aggressive threshold so quality drift triggers repartitions mid-stream.
fn live_config(algorithm: AlgorithmKind) -> ExperimentConfig {
    ExperimentConfig {
        algorithm,
        k: 5,
        partitioners: 3,
        thr: 0.1,
        bootstrap_after: 3000,
        report_period: TimeDelta::from_secs(10),
        window: WindowKind::Time(TimeDelta::from_secs(10)),
        ..ExperimentConfig::for_algorithm(algorithm)
    }
}

/// The same system with repartitioning effectively frozen after bootstrap:
/// the reference "fixed-partition" run.
fn fixed_config(algorithm: AlgorithmKind) -> ExperimentConfig {
    ExperimentConfig {
        thr: 1_000.0, // drift can never exceed the tolerance
        ..live_config(algorithm)
    }
}

#[test]
fn threaded_live_repartition_matches_fixed_partition_sim() {
    let docs = stream(11, 60_000);

    // Reference: fixed partitions, deterministic sim.
    let fixed = run_docs(&fixed_config(AlgorithmKind::Ds), docs.clone(), RunMode::Sim);
    assert_eq!(
        fixed.repartitions_total(),
        0,
        "reference must not repartition"
    );

    // System under test: threaded runtime, quality-driven live migration.
    let live = run_docs(&live_config(AlgorithmKind::Ds), docs, RunMode::Threaded);
    assert!(
        live.repartitions_total() >= 1,
        "thr=0.1 must trigger at least one quality-driven repartition"
    );
    assert!(
        live.live_repartitions >= 1,
        "repartitions must install live (mid-stream), not just be requested"
    );
    assert!(
        live.migrated_units > 0,
        "a mid-round install must migrate tracking state"
    );
    assert_eq!(live.documents, fixed.documents);

    // No lost or double-counted tuples across the epoch fence: coverage
    // and accuracy against the exact centralized baseline must hold up to
    // the approx-backend error budget of the acceptance bar (the exact
    // backend underneath is tighter still).
    assert!(
        live.coverage > 0.85,
        "live coverage {} vs fixed {}",
        live.coverage,
        fixed.coverage
    );
    assert!(
        live.mean_abs_error < fixed.mean_abs_error + 0.05,
        "live error {} vs fixed {}",
        live.mean_abs_error,
        fixed.mean_abs_error
    );
    assert!(live.mean_abs_error < 0.1, "error {}", live.mean_abs_error);
}

#[test]
fn approx_backend_survives_live_migration() {
    let docs = stream(13, 60_000);
    let config = live_config(AlgorithmKind::Scl).with_backend(BackendKind::approx());
    let live = run_docs(&config, docs.clone(), RunMode::Threaded);
    assert!(
        live.repartitions_total() >= 1,
        "thr=0.1 must trigger repartitions"
    );
    assert!(live.live_repartitions >= 1);
    // The approx backend reports only its top-k heaviest pairs per round,
    // so absolute coverage is inherently partial (see approx_accuracy.rs);
    // what matters here is that migrating signatures and pair counts does
    // not degrade it versus the same run with state left stranded…
    let offline = run_docs(
        &config.clone().with_live_migration(false),
        docs,
        RunMode::Threaded,
    );
    assert!(
        live.coverage >= offline.coverage - 0.05,
        "live coverage {} vs stranded-state coverage {}",
        live.coverage,
        offline.coverage
    );
    // …and that what *is* reported stays within MinHash error bounds
    // (k = 256 → σ ≈ 0.031 per estimate; CMS counters are one-sided).
    assert!(live.compared_tagsets > 0);
    assert!(live.mean_abs_error < 0.1, "error {}", live.mean_abs_error);
}

#[test]
fn sim_live_migration_is_deterministic_and_not_worse_than_offline() {
    let docs = stream(17, 50_000);
    let config = live_config(AlgorithmKind::Ds);
    let a = run_docs(&config, docs.clone(), RunMode::Sim);
    let b = run_docs(&config, docs.clone(), RunMode::Sim);
    assert_eq!(
        a.mean_abs_error, b.mean_abs_error,
        "sim stays deterministic"
    );
    assert_eq!(a.migrated_units, b.migrated_units);
    assert_eq!(a.live_repartitions, b.live_repartitions);

    // With migration switched off, repartitions strand mid-round state at
    // the old owners; live migration must not be less accurate.
    let offline = run_docs(
        &config.clone().with_live_migration(false),
        docs,
        RunMode::Sim,
    );
    assert_eq!(offline.live_repartitions, 0);
    assert_eq!(offline.migrated_units, 0);
    assert!(
        a.mean_abs_error <= offline.mean_abs_error + 1e-9,
        "live {} vs offline {}",
        a.mean_abs_error,
        offline.mean_abs_error
    );
}

#[test]
fn elastic_scaling_migrates_state_when_the_pool_grows() {
    // §7.3: the Merger sizes the active Calculator pool from window volume.
    // When a repartition widens the pool, state must follow the partitions.
    let mut workload = WorkloadConfig::with_seed(19);
    workload.tps = 600;
    let docs: Vec<Document> = Generator::new(workload).take(50_000).collect();
    let config = ExperimentConfig {
        algorithm: AlgorithmKind::Scl,
        k: 10,
        partitioners: 3,
        thr: 0.1,
        bootstrap_after: 1500,
        report_period: TimeDelta::from_secs(10),
        window: WindowKind::Time(TimeDelta::from_secs(10)),
        elastic_docs_per_calc: Some(1_000),
        ..ExperimentConfig::for_algorithm(AlgorithmKind::Scl)
    };
    let report = run_docs(&config, docs, RunMode::Threaded);
    assert!(report.merges >= 1);
    // a sparse synthetic stream can leave the eligibility filter empty
    // (coverage degenerates to 1.0 with no error samples) — only assert
    // accuracy when the baseline actually compared something
    if report.compared_tagsets > 0 {
        assert!(report.coverage > 0.80, "coverage {}", report.coverage);
        if report.live_repartitions > 0 {
            assert!(
                report.mean_abs_error < 0.1,
                "error {}",
                report.mean_abs_error
            );
        }
    }
}
