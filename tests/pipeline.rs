//! End-to-end integration tests: the full Figure 2 topology over synthetic
//! streams, in both runtimes.

use setcorr::prelude::*;

fn stream(seed: u64, n: usize) -> Vec<Document> {
    Generator::new(WorkloadConfig::with_seed(seed))
        .take(n)
        .collect()
}

fn small_config(algorithm: AlgorithmKind) -> ExperimentConfig {
    ExperimentConfig {
        algorithm,
        k: 5,
        partitioners: 3,
        bootstrap_after: 3000,
        // small stream → 10-second report periods and windows, so several
        // post-warm-up rounds fit into tens of seconds of event time
        report_period: TimeDelta::from_secs(10),
        window: WindowKind::Time(TimeDelta::from_secs(10)),
        ..ExperimentConfig::for_algorithm(algorithm)
    }
}

#[test]
fn pipeline_runs_end_to_end_for_every_algorithm() {
    let docs = stream(1, 40_000);
    let period = small_config(AlgorithmKind::Ds).report_period;
    let exact_rounds: Vec<u64> = ExactRun::of(&docs, period)
        .rounds()
        .iter()
        .map(|(round, _)| *round)
        .collect();
    for algorithm in AlgorithmKind::ALL {
        let report = run_docs(&small_config(algorithm), docs.clone(), RunMode::Sim);
        assert_eq!(report.documents, 40_000, "{algorithm}");
        let tracked_rounds: Vec<u64> = report.tracked_rounds.iter().map(|(r, _)| *r).collect();
        assert_eq!(
            tracked_rounds, exact_rounds,
            "{algorithm}: the Parser and the exact computation cut different rounds"
        );
        assert!(
            report.merges >= 1,
            "{algorithm}: no partitions were installed"
        );
        assert!(
            report.routed_tagsets > 0,
            "{algorithm}: nothing was ever routed"
        );
        assert!(
            report.avg_communication >= 1.0,
            "{algorithm}: impossible communication {}",
            report.avg_communication
        );
        assert!(
            report.avg_communication <= 5.0,
            "{algorithm}: absurd communication {}",
            report.avg_communication
        );
        assert!(
            report.compared_tagsets > 50,
            "{algorithm}: baseline comparison too small ({})",
            report.compared_tagsets
        );
    }
}

#[test]
fn coverage_is_high_for_every_algorithm() {
    // §8.2.3: "all algorithms manage to compute a Jaccard coefficient for
    // more than 97% of the tagsets seen more than 3 times". Bootstrap losses
    // make the very beginning lossy, so we allow a slightly wider margin on
    // this laptop-scale stream.
    let docs = stream(2, 60_000);
    for algorithm in AlgorithmKind::ALL {
        let report = run_docs(&small_config(algorithm), docs.clone(), RunMode::Sim);
        assert!(
            report.coverage > 0.90,
            "{algorithm}: coverage {} (compared {})",
            report.coverage,
            report.compared_tagsets
        );
        assert!(
            report.mean_abs_error < 0.2,
            "{algorithm}: error {}",
            report.mean_abs_error
        );
    }
}

#[test]
fn ds_has_lowest_communication_scl_best_balance() {
    // The headline qualitative result (Figs. 3 and 4): DS wins
    // communication, SCL wins load balance among the set-cover algorithms.
    let docs = stream(3, 60_000);
    let mut comm = std::collections::HashMap::new();
    let mut gini_of = std::collections::HashMap::new();
    for algorithm in AlgorithmKind::ALL {
        let report = run_docs(&small_config(algorithm), docs.clone(), RunMode::Sim);
        comm.insert(algorithm.name(), report.avg_communication);
        gini_of.insert(algorithm.name(), report.load_gini);
    }
    assert!(
        comm["DS"] <= comm["SCL"] + 1e-9,
        "DS {} vs SCL {}",
        comm["DS"],
        comm["SCL"]
    );
    assert!(
        comm["DS"] <= comm["SCI"] + 1e-9,
        "DS {} vs SCI {}",
        comm["DS"],
        comm["SCI"]
    );
    assert!(
        gini_of["SCL"] <= gini_of["DS"] + 0.05,
        "SCL {} vs DS {}",
        gini_of["SCL"],
        gini_of["DS"]
    );
}

#[test]
fn repartitions_fire_and_are_recorded() {
    let docs = stream(4, 60_000);
    let mut config = small_config(AlgorithmKind::Ds);
    config.thr = 0.1; // aggressive threshold → repartitions must happen
    let report = run_docs(&config, docs, RunMode::Sim);
    assert!(
        report.repartitions_total() >= 1,
        "no repartitions with thr=0.1"
    );
    assert_eq!(
        report.repartition_marks.len() as u64,
        report.repartitions_total()
    );
    assert!(report.merges as u64 >= report.repartitions_total());
}

#[test]
fn single_additions_happen_under_drift() {
    let mut wconfig = WorkloadConfig::with_seed(5);
    wconfig.new_topic_every = Some(2_000); // fast drift → unseen tagsets
    let docs: Vec<Document> = Generator::new(wconfig).take(40_000).collect();
    let report = run_docs(&small_config(AlgorithmKind::Ds), docs, RunMode::Sim);
    assert!(
        report.single_additions > 0,
        "drifting stream must trigger single additions"
    );
}

#[test]
fn sim_runs_are_deterministic() {
    let docs = stream(6, 30_000);
    let a = run_docs(
        &small_config(AlgorithmKind::Scc),
        docs.clone(),
        RunMode::Sim,
    );
    let b = run_docs(&small_config(AlgorithmKind::Scc), docs, RunMode::Sim);
    assert_eq!(a.avg_communication, b.avg_communication);
    assert_eq!(a.load_shares, b.load_shares);
    assert_eq!(a.repartitions_total(), b.repartitions_total());
    assert_eq!(a.single_additions, b.single_additions);
    assert_eq!(a.mean_abs_error, b.mean_abs_error);
}

#[test]
fn threaded_runtime_agrees_on_stream_invariants() {
    let docs = stream(7, 30_000);
    let config = small_config(AlgorithmKind::Ds);
    let sim = run_docs(&config, docs.clone(), RunMode::Sim);
    let threaded = run_docs(&config, docs.clone(), RunMode::Threaded);
    assert_eq!(sim.documents, threaded.documents);
    // Interleaving differs, but the pipeline must still function end to end:
    assert!(threaded.merges >= 1);
    assert!(threaded.routed_tagsets > 0);
    assert!(threaded.avg_communication >= 1.0);
    assert!(threaded.coverage > 0.80, "coverage {}", threaded.coverage);
    // Routed volume should be in the same ballpark: the Disseminator holds
    // the stream between the bootstrap request and the first install
    // (bounded buffer, replayed in FIFO order), so the control round-trip
    // costs latency, not routed volume — on either runtime.
    let ratio = threaded.routed_tagsets as f64 / sim.routed_tagsets as f64;
    assert!(
        (0.5..=1.5).contains(&ratio),
        "routed volume diverged: sim {} vs threaded {}",
        sim.routed_tagsets,
        threaded.routed_tagsets
    );
    // Conservation: every ≥1-tag tagset reaches the Disseminator exactly
    // once, routed or not — including the ones held through bootstrap.
    let tagged = docs.iter().filter(|d| !d.tags.is_empty()).count() as u64;
    assert_eq!(
        threaded.routed_tagsets + threaded.unrouted_tagsets,
        tagged,
        "the front lost or duplicated tagsets"
    );
}

#[test]
fn higher_threshold_means_fewer_or_equal_repartitions() {
    let docs = stream(8, 60_000);
    let mut tight = small_config(AlgorithmKind::Scc);
    tight.thr = 0.2;
    let mut loose = small_config(AlgorithmKind::Scc);
    loose.thr = 0.8;
    let tight_report = run_docs(&tight, docs.clone(), RunMode::Sim);
    let loose_report = run_docs(&loose, docs, RunMode::Sim);
    assert!(
        loose_report.repartitions_total() <= tight_report.repartitions_total(),
        "loose {} > tight {}",
        loose_report.repartitions_total(),
        tight_report.repartitions_total()
    );
}
