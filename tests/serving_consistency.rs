//! Serving-layer consistency: reader threads polling a live run never
//! observe a torn snapshot.
//!
//! Two oracles, because of what the runtimes can promise:
//!
//! * **Sim oracle, byte-for-byte** — the sim runtime is deterministic, so a
//!   live sim-mode run (publication and concurrent readers are real threads
//!   either way; only ingest is single-threaded) must publish exactly the
//!   rounds a plain sim run records. Every reader-visible snapshot is pinned
//!   byte-identical to the oracle's output for its round.
//! * **Threaded runtime, self-oracle** — threaded partition *content* is
//!   scheduling-dependent (each Partitioner's window at
//!   repartition-request time depends on channel interleaving, starting
//!   with the bootstrap request), so no fixed byte-oracle exists across
//!   runs. What the serving layer does promise — and what these tests pin —
//!   is atomic publication: a visible snapshot is always a *finalized*
//!   round (all `k` Calculators reported), never a partial state, including
//!   across a live repartition fence. Every reader-visible round is
//!   compared byte-for-byte against the same run's finalized output.

use setcorr::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn stream(seed: u64, n: usize) -> Vec<Document> {
    Generator::new(WorkloadConfig::with_seed(seed))
        .take(n)
        .collect()
}

fn config(thr: f64) -> ExperimentConfig {
    ExperimentConfig {
        algorithm: AlgorithmKind::Ds,
        k: 5,
        partitioners: 3,
        thr,
        bootstrap_after: 3000,
        report_period: TimeDelta::from_secs(10),
        window: WindowKind::Time(TimeDelta::from_secs(10)),
        ..ExperimentConfig::for_algorithm(AlgorithmKind::Ds)
    }
}

/// Everything one polling reader observed: each distinct published
/// snapshot, in acquisition order.
fn poll_until_stopped(
    handle: QueryHandle,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<Vec<Arc<Snapshot>>> {
    std::thread::spawn(move || {
        let mut seen: Vec<Arc<Snapshot>> = Vec::new();
        let mut last_seq = 0u64;
        loop {
            let done = stop.load(Ordering::Relaxed);
            let snap = handle.snapshot();
            assert!(
                snap.seq() >= last_seq,
                "snapshot sequence went backwards: {} after {}",
                snap.seq(),
                last_seq
            );
            if snap.seq() > last_seq {
                last_seq = snap.seq();
                seen.push(snap);
            }
            if done {
                // one final acquisition after the run ended caught the last
                // published round above
                return seen;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    })
}

/// A snapshot's indexes must all resolve against its own storage — a torn
/// publication (index from one round, storage from another) cannot pass.
fn assert_internally_consistent(snap: &Snapshot) {
    assert_eq!(snap.top_k(usize::MAX).count(), snap.len());
    for c in snap.top_k(usize::MAX) {
        let found = snap
            .coefficient(&c.tags)
            .expect("every indexed tagset resolves by exact lookup");
        assert_eq!(found, c);
    }
    if let Some(best) = snap.top_k(1).next() {
        let tag = best.tags.iter().next().expect("tagsets are non-empty");
        assert!(
            snap.neighbors(tag, usize::MAX).any(|c| c == best),
            "the global best must appear in its own tags' neighborhoods"
        );
    }
}

#[test]
fn readers_polling_a_live_sim_run_see_the_sim_oracle_byte_for_byte() {
    let docs = stream(11, 50_000);
    // frozen after bootstrap: deterministic
    let config = config(1_000.0);

    // oracle: the same configuration, plain sim run
    let oracle = run_docs(&config, docs.clone(), RunMode::Sim);
    assert!(
        oracle.tracked_rounds.len() >= 3,
        "need several rounds to make polling meaningful, got {}",
        oracle.tracked_rounds.len()
    );

    let live = spawn_served(&config, Box::new(docs.into_iter()), RunMode::Sim);
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|_| poll_until_stopped(live.query_handle(), stop.clone()))
        .collect();
    let handle = live.query_handle();
    let report = live.finish();
    stop.store(true, Ordering::Relaxed);

    assert_eq!(
        report.snapshots_published,
        oracle.tracked_rounds.len() as u64
    );
    for reader in readers {
        let seen = reader.join().expect("reader panicked");
        assert!(!seen.is_empty(), "reader observed at least one snapshot");
        for snap in &seen {
            let round = snap.round().expect("published snapshots carry a round");
            let (_, expected) = oracle
                .tracked_rounds
                .iter()
                .find(|(r, _)| *r == round)
                .expect("every visible round exists in the oracle");
            assert_eq!(
                snap.coefficients().as_ref(),
                expected,
                "round {round} visible to a reader differs from the sim oracle"
            );
            assert_internally_consistent(snap);
        }
    }

    // the handle keeps serving the last round after the run ended
    let final_snap = handle.snapshot();
    let (last_round, last_coeffs) = oracle.tracked_rounds.last().unwrap();
    assert_eq!(final_snap.round(), Some(*last_round));
    assert_eq!(final_snap.coefficients().as_ref(), last_coeffs);
    assert_eq!(handle.staleness(&final_snap), 0);
}

#[test]
fn threaded_run_with_live_fences_never_shows_a_torn_snapshot() {
    let docs = stream(11, 60_000);
    let config = config(0.1); // aggressive: repartition fences mid-stream

    let live = spawn_served(&config, Box::new(docs.into_iter()), RunMode::Threaded);
    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..3)
        .map(|_| poll_until_stopped(live.query_handle(), stop.clone()))
        .collect();
    let report = live.finish();
    stop.store(true, Ordering::Relaxed);

    assert!(
        report.live_repartitions >= 1,
        "thr=0.1 must install at least one partition map mid-stream"
    );
    assert!(report.snapshots_published >= 3);

    for reader in readers {
        let seen = reader.join().expect("reader panicked");
        assert!(!seen.is_empty());
        let mut last_round = None;
        for snap in &seen {
            let round = snap.round().expect("published snapshots carry a round");
            assert!(
                last_round.is_none_or(|r| round > r),
                "rounds must advance monotonically at the readers"
            );
            last_round = Some(round);
            // a visible snapshot is a finalized round of this very run —
            // never a partial state caught mid-fence
            let (_, finalized) = report
                .tracked_rounds
                .iter()
                .find(|(r, _)| *r == round)
                .expect("every visible round was finalized");
            assert_eq!(
                snap.coefficients().as_ref(),
                finalized,
                "round {round} visible to a reader differs from its finalized output"
            );
            assert_internally_consistent(snap);
        }
    }
}
