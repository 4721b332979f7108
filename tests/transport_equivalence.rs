//! High-contention transport equivalence: threaded runs with the bolt
//! inboxes forced down to one or two envelopes must still match the sim
//! oracle byte for byte at the Tracker.
//!
//! The point of forcing tiny capacities is to keep every data channel
//! *saturated*: producers block on full queues, consumers drain in
//! bursts, and the park-and-wake path (not the fast path) carries most
//! envelopes. Any transport-level race that could reorder a round —
//! a message handed to two consumers, a burst overlapping a concurrent
//! pop, a lost wakeup sending a consumer back to sleep with data
//! pending — surfaces here as an equivalence failure instead of a
//! silent corruption in a benchmark. The Calculators → Tracker inbox is
//! multi-producer (`k` senders), so contended multi-producer sends are
//! exercised too.
//!
//! Control-plane pinning mirrors `parallel_equivalence.rs`: the partition
//! map comes from [`bootstrap_partitions`], drift is frozen and Single
//! Additions disabled, so exactly the data plane (and under it, the
//! transport) is what's under test.

use setcorr::prelude::*;

fn stream(seed: u64, n: usize) -> Vec<Document> {
    Generator::new(WorkloadConfig::with_seed(seed))
        .take(n)
        .collect()
}

/// Frozen-control-plane config with the inbox capacity forced to
/// `capacity` messages.
fn contended_config(capacity: usize, docs: &[Document]) -> ExperimentConfig {
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
    config
        .with_pinned_partitions(pinned)
        .with_inbox_capacity(capacity)
}

const DOCS: usize = 30_000;

/// With `max_batch = 128` messages per envelope, a 128-message inbox is a
/// single envelope and a 256-message inbox is two — the smallest bounded
/// channels the batched runtime can run on.
const CAPACITIES: [usize; 2] = [128, 256];

/// Byte-identical Tracker feed and conservation totals under permanent
/// backpressure, for the tightest channel capacities the runtime supports.
#[test]
fn saturated_channels_preserve_the_oracle_byte_for_byte() {
    let docs = stream(13, DOCS);
    let oracle = {
        let config = contended_config(1024, &docs);
        run_docs(&config, docs.clone(), RunMode::Sim)
    };
    assert!(
        oracle.tracked_rounds.len() >= 3,
        "need several rounds, got {}",
        oracle.tracked_rounds.len()
    );
    let oracle_rounds = format!("{:?}", oracle.tracked_rounds);
    for capacity in CAPACITIES {
        let config = contended_config(capacity, &docs);
        let threaded = run_docs(&config, docs.clone(), RunMode::Threaded);
        assert_eq!(
            format!("{:?}", threaded.tracked_rounds),
            oracle_rounds,
            "capacity {capacity}: threaded Tracker feed diverged under contention"
        );
        assert_eq!(
            (threaded.routed_tagsets, threaded.unrouted_tagsets),
            (oracle.routed_tagsets, oracle.unrouted_tagsets),
            "capacity {capacity}: routed/unrouted totals diverged"
        );
    }
}

/// The per-channel wait counters land in the report: one entry per
/// component, and a saturated run actually *records* waits — a run under
/// permanent backpressure with all-zero counters would mean the
/// instrumentation is disconnected. The `k` Calculators contend for the
/// Tracker's inbox, so its send waits must be non-zero too.
#[test]
fn wait_counters_surface_in_the_report_under_contention() {
    let docs = stream(29, DOCS);
    let config = contended_config(CAPACITIES[0], &docs);
    let report = run_docs(&config, docs.clone(), RunMode::Threaded);

    let names: Vec<&str> = report
        .channel_waits
        .iter()
        .map(|(name, _, _)| name.as_str())
        .collect();
    assert_eq!(
        names.len(),
        report.operator_seconds.len(),
        "one channel_waits entry per component"
    );
    let total: u64 = report
        .channel_waits
        .iter()
        .map(|&(_, send, recv)| send + recv)
        .sum();
    assert!(
        total > 0,
        "a single-slot-channel run must record blocking waits, got all zeros"
    );
    let (_, tracker_send_waits, _) = report
        .channel_waits
        .iter()
        .find(|(name, _, _)| name == "tracker")
        .expect("the tracker has a channel_waits entry");
    assert!(
        *tracker_send_waits > 0,
        "the multi-producer Calculators → Tracker inbox must record send waits"
    );
    let json = report.to_json();
    assert!(
        json.contains("\"channel_waits\":{"),
        "RunReport::to_json must carry the channel_waits object"
    );
    assert!(
        json.contains("\"send\":") && json.contains("\"recv\":"),
        "channel_waits entries must split send vs recv waits"
    );

    // Sim runs have no channels, so the report must not invent counters.
    let sim = run_docs(&contended_config(1024, &docs), docs, RunMode::Sim);
    assert!(
        sim.channel_waits.is_empty(),
        "sim runs must report no channel waits"
    );
}
