//! Fault injection and recovery: the supervised threaded runtime under the
//! deterministic fault matrix (kill-parser / kill-calculator / drop-adopt /
//! poison-lock).
//!
//! The central claim (ISSUE 8 acceptance): a task killed mid-stream that
//! recovers *within its restart budget* produces a closed-round Tracker
//! feed **byte-identical** to the fault-free sim oracle — recovery that
//! stays within budget is indistinguishable from never having failed. The
//! suite reuses the pinned-control-plane idiom of
//! `tests/parallel_equivalence.rs` (pinned bootstrap map, frozen drift,
//! disabled Single Additions) so the only variable left is the fault.
//!
//! Beyond the happy recovery path, the suite pins the degradation ladder:
//!
//! * retries exhausted → the task tombstones, the run still terminates,
//!   and the report discloses `degraded_components ≥ 1`,
//! * a dropped `Adopt` wedges a Calculator's migration barrier → the
//!   starvation detector degrades it instead of hanging the drain,
//! * a panic *while holding the recorder lock* is absorbed by the lock
//!   shim and recovered like any other fault.
//!
//! Every supervised run executes under an in-process watchdog: a hang is a
//! test failure, never a CI timeout mystery.

use setcorr::prelude::*;
use std::sync::mpsc::RecvTimeoutError;
use std::time::Duration;

fn stream(seed: u64, n: usize) -> Vec<Document> {
    Generator::new(WorkloadConfig::with_seed(seed))
        .take(n)
        .collect()
}

/// Frozen-control-plane config (see module docs): with the bootstrap map
/// pinned, drift frozen and Single Additions off, a threaded run with the
/// exact backend is byte-comparable to the sim oracle at the Tracker.
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

/// Run `f` on a helper thread and fail loudly if it neither finishes nor
/// panics within `secs` — the anti-deadlock harness every supervised run
/// here executes under.
fn with_watchdog<T: Send + 'static>(
    label: String,
    secs: u64,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::Builder::new()
        .name(format!("watchdog-{label}"))
        .spawn(move || {
            let _ = tx.send(f());
        })
        .expect("spawn watchdogged run");
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(value) => {
            let _ = worker.join();
            value
        }
        Err(RecvTimeoutError::Disconnected) => {
            // the run panicked before sending: surface the original panic
            match worker.join() {
                Err(panic) => std::panic::resume_unwind(panic),
                Ok(()) => unreachable!("worker exited without sending or panicking"),
            }
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("{label}: watchdog expired after {secs}s — supervised run deadlocked")
        }
    }
}

fn supervised_run(label: String, config: ExperimentConfig, docs: Vec<Document>) -> RunReport {
    with_watchdog(label, 240, move || {
        run_docs(&config, docs, RunMode::Threaded)
    })
}

const SEEDS: [u64; 3] = [3, 11, 1999];
const DOCS: usize = 30_000;

/// Assert the supervised run's Tracker feed matches the fault-free sim
/// oracle byte for byte, plus the conservation invariants the pinned
/// control plane makes exact.
fn assert_byte_identical(oracle: &RunReport, faulted: &RunReport, label: &str) {
    assert!(
        oracle.tracked_rounds.len() >= 3,
        "{label}: oracle needs several rounds, got {}",
        oracle.tracked_rounds.len()
    );
    assert_eq!(
        format!("{:?}", faulted.tracked_rounds),
        format!("{:?}", oracle.tracked_rounds),
        "{label}: recovered Tracker feed diverged from the fault-free oracle"
    );
    assert_eq!(
        (faulted.routed_tagsets, faulted.unrouted_tagsets),
        (oracle.routed_tagsets, oracle.unrouted_tagsets),
        "{label}: routed/unrouted totals diverged"
    );
    assert_eq!(
        faulted.documents, oracle.documents,
        "{label}: document count diverged"
    );
}

/// Kill a Calculator mid-stream: the supervisor rebuilds it from its last
/// round-fence checkpoint and replays the held messages; the Tracker feed
/// must match the fault-free oracle byte for byte, with zero degradations.
#[test]
fn killed_calculator_recovers_byte_identically_to_the_oracle() {
    for seed in SEEDS {
        let docs = stream(seed, DOCS);
        let config = pinned_config(&docs);
        let oracle = run_docs(&config, docs.clone(), RunMode::Sim);
        let supervision = Supervision {
            faults: vec![Fault::KillCalculator {
                task: 1,
                after_messages: 10,
            }],
            ..Supervision::default()
        };
        let faulted = supervised_run(
            format!("kill-calculator-{seed}"),
            config.with_supervision(supervision),
            docs,
        );
        assert_eq!(faulted.faults_injected, 1, "seed {seed}: kill must fire");
        assert!(
            faulted.tasks_restarted >= 1,
            "seed {seed}: the killed Calculator must restart"
        );
        assert!(
            faulted.rounds_replayed >= 1,
            "seed {seed}: recovery must replay the held messages"
        );
        assert_eq!(
            faulted.degraded_components, 0,
            "seed {seed}: recovery within budget must not degrade"
        );
        assert_byte_identical(&oracle, &faulted, &format!("seed {seed} kill-calculator"));
    }
}

/// Kill the Parser mid-stream: its only state (the round counter) restores
/// from the last tick checkpoint and the interrupted envelope is
/// redelivered — byte-identical output again.
#[test]
fn killed_parser_recovers_byte_identically_to_the_oracle() {
    for seed in SEEDS {
        let docs = stream(seed, DOCS);
        let config = pinned_config(&docs);
        let oracle = run_docs(&config, docs.clone(), RunMode::Sim);
        let supervision = Supervision {
            faults: vec![Fault::KillParser { after_messages: 25 }],
            ..Supervision::default()
        };
        let faulted = supervised_run(
            format!("kill-parser-{seed}"),
            config.with_supervision(supervision),
            docs,
        );
        assert_eq!(faulted.faults_injected, 1, "seed {seed}: kill must fire");
        assert!(
            faulted.tasks_restarted >= 1,
            "seed {seed}: the killed Parser must restart"
        );
        assert_eq!(
            faulted.degraded_components, 0,
            "seed {seed}: no degradation"
        );
        assert_byte_identical(&oracle, &faulted, &format!("seed {seed} kill-parser"));
    }
}

/// A Calculator panics *while holding the recorder lock*: the parking-lot
/// shim absorbs the poison (readers keep seeing coherent state), the
/// supervisor recovers the task like any other panic, and the output stays
/// byte-identical. Every seed runs with live migration on, and one more
/// with it off: the Calculator holds the recorder either way, so the fault
/// poisons the lock in both modes.
#[test]
fn poisoned_lock_is_absorbed_and_the_run_recovers_byte_identically() {
    let runs = SEEDS.map(|seed| (seed, true)).into_iter();
    for (seed, live) in runs.chain([(SEEDS[0], false)]) {
        let docs = stream(seed, DOCS);
        let config = pinned_config(&docs).with_live_migration(live);
        let oracle = run_docs(&config, docs.clone(), RunMode::Sim);
        let supervision = Supervision {
            faults: vec![Fault::PoisonLock {
                calculator: 0,
                after_notifications: 500,
            }],
            ..Supervision::default()
        };
        let faulted = supervised_run(
            format!("poison-lock-{seed}-live-{live}"),
            config.with_supervision(supervision),
            docs,
        );
        assert_eq!(faulted.faults_injected, 1, "seed {seed}: poison must fire");
        assert!(
            faulted.tasks_restarted >= 1,
            "seed {seed}: the poisoned Calculator must restart"
        );
        assert_eq!(
            faulted.degraded_components, 0,
            "seed {seed}: no degradation"
        );
        // the poisoned recorder stayed usable: every measurement is present
        assert!(
            faulted.routed_tagsets > 0,
            "seed {seed}: recorder unusable after poison"
        );
        assert_byte_identical(&oracle, &faulted, &format!("seed {seed} poison-lock"));
    }
}

/// Retries exhausted: with a zero restart budget the killed Calculator
/// degrades to a tombstone. The run must still terminate (tombstones keep
/// the Tracker fan-in and the peers' migration barriers closing), and the
/// report must disclose the degradation instead of pretending the results
/// are complete.
#[test]
fn exhausted_retries_degrade_gracefully_and_terminate() {
    let seed = SEEDS[0];
    let docs = stream(seed, DOCS);
    let config = pinned_config(&docs);
    let supervision = Supervision {
        max_restarts: 0, // first failure degrades immediately
        faults: vec![Fault::KillCalculator {
            task: 2,
            after_messages: 20,
        }],
        ..Supervision::default()
    };
    let report = supervised_run(
        "exhausted-retries".to_string(),
        config.with_supervision(supervision),
        docs,
    );
    assert_eq!(report.faults_injected, 1, "kill must fire");
    assert_eq!(
        report.tasks_restarted, 0,
        "budget of zero allows no restart"
    );
    assert!(
        report.degraded_components >= 1,
        "the dead Calculator must be disclosed as degraded"
    );
    assert_eq!(report.documents, DOCS as u64, "ingest must still complete");
    assert!(
        !report.tracked_rounds.is_empty(),
        "surviving Calculators must still close rounds through the Tracker"
    );
}

/// Drop a migration `Adopt` on the floor: the victim Calculator's barrier
/// can never close, which without supervision wedges the shutdown drain
/// forever. The starvation detector must degrade it and the run must
/// terminate with the loss disclosed.
#[test]
fn dropped_adopt_starves_then_degrades_instead_of_hanging() {
    let seed = SEEDS[1];
    let docs = stream(seed, 20_000);
    // live control plane on purpose: bootstrap install emits a fence, every
    // Calculator owes every peer one (empty) Adopt for it
    let config = ExperimentConfig {
        algorithm: AlgorithmKind::Ds,
        k: 5,
        partitioners: 3,
        bootstrap_after: 500,
        report_period: TimeDelta::from_secs(10),
        window: WindowKind::Time(TimeDelta::from_secs(10)),
        ..ExperimentConfig::for_algorithm(AlgorithmKind::Ds)
    };
    let supervision = Supervision {
        drain_patience: Duration::from_millis(100), // of starvation before degrading
        faults: vec![Fault::DropAdopt {
            calculator: 3,
            nth: 1,
        }],
        ..Supervision::default()
    };
    let report = supervised_run(
        "drop-adopt".to_string(),
        config.with_supervision(supervision),
        docs,
    );
    assert_eq!(report.faults_injected, 1, "exactly one Adopt dropped");
    assert!(
        report.degraded_components >= 1,
        "the wedged Calculator must be degraded, not waited on forever"
    );
    assert_eq!(report.documents, 20_000, "ingest must still complete");
    assert!(
        !report.tracked_rounds.is_empty(),
        "the surviving pipeline must still produce rounds"
    );
}

/// The same lost `Adopt`, with drift repartitions forced (`thr: 0`) so that
/// later fences queue *behind* the victim's wedged barrier. The victim has
/// consumed those fences but cannot answer them, so every peer ends up
/// waiting on an `Adopt` only the victim could send: unless its tombstone
/// answers what the victim left stalled, no round after the wedge closes
/// (the default-`thr` test above hits this only when the scheduler lets a
/// drift repartition land before the first round does).
#[test]
fn dropped_adopt_with_fences_queued_behind_the_wedge_still_closes_rounds() {
    let config = ExperimentConfig {
        algorithm: AlgorithmKind::Ds,
        k: 5,
        partitioners: 3,
        thr: 0.0,
        bootstrap_after: 500,
        report_period: TimeDelta::from_secs(10),
        window: WindowKind::Time(TimeDelta::from_secs(10)),
        ..ExperimentConfig::for_algorithm(AlgorithmKind::Ds)
    };
    let supervision = Supervision {
        drain_patience: Duration::from_millis(100),
        faults: vec![Fault::DropAdopt {
            calculator: 3,
            nth: 1,
        }],
        ..Supervision::default()
    };
    let report = supervised_run(
        "drop-adopt-queued-fence".to_string(),
        config.with_supervision(supervision),
        stream(SEEDS[1], 20_000),
    );
    assert_eq!(report.faults_injected, 1, "exactly one Adopt dropped");
    assert!(
        report.degraded_components >= 1,
        "the wedged Calculator must be degraded, not waited on forever"
    );
    assert_eq!(report.documents, 20_000, "ingest must still complete");
    assert!(
        !report.tracked_rounds.is_empty(),
        "the peers must get their Adopts from the tombstone and close rounds"
    );
}

/// Fault-free supervised run: the supervision wrappers alone must not
/// change a single byte of output relative to the sim oracle, and every
/// fault counter must read zero.
#[test]
fn fault_free_supervised_run_is_byte_identical_with_zero_counters() {
    let seed = SEEDS[2];
    let docs = stream(seed, DOCS);
    let config = pinned_config(&docs);
    let oracle = run_docs(&config, docs.clone(), RunMode::Sim);
    let report = supervised_run(
        "fault-free".to_string(),
        config.with_supervision(Supervision::default()),
        docs,
    );
    assert_eq!(
        (
            report.faults_injected,
            report.tasks_restarted,
            report.rounds_replayed,
            report.degraded_components,
        ),
        (0, 0, 0, 0),
        "fault-free run must report all-zero fault counters"
    );
    assert_byte_identical(&oracle, &report, "fault-free supervised");
}
