//! Vectorized execution must be invisible: delivering batches through
//! `Bolt::on_batch` (with the specialized operator overrides) has to produce
//! exactly the results of per-tuple `on_message` delivery.
//!
//! Three layers of evidence:
//!
//! * the full Figure 2 topology under the *sim* runtime, per-tuple vs
//!   batched delivery at several depths — byte-identical `RunReport`s
//!   (sim-batched coalesces only already-adjacent messages, so delivery
//!   order is unchanged and any divergence is an `on_batch` bug);
//! * a deterministic chain on the *threaded* runtime (single producer per
//!   consumer ⇒ FIFO order is total) with barrier messages landing
//!   mid-stream, vectorized `on_batch`/`emit_batch` overrides, and a
//!   fields-grouped fan-out stage — byte-identical sequences vs the sim
//!   oracle across batch depths and seeds;
//! * `tests/live_repartition.rs` (unchanged) keeps the fence/migration
//!   protocol green under the vectorized threaded runtime.

use setcorr::prelude::*;
use setcorr_engine::{
    run_sim, run_sim_batched, run_threaded_batched, BatchPolicy, Bolt, Emitter, Grouping,
    ThreadedConfig, TopologyBuilder,
};
use setcorr_topology::{build_topology, Msg, RunRecorder, RunReport};
use std::sync::{Arc, Mutex};

fn stream(seed: u64, n: usize) -> Vec<Document> {
    Generator::new(WorkloadConfig::with_seed(seed))
        .take(n)
        .collect()
}

fn config() -> ExperimentConfig {
    ExperimentConfig {
        k: 5,
        partitioners: 3,
        bootstrap_after: 1_500,
        report_period: TimeDelta::from_secs(15),
        window: WindowKind::Time(TimeDelta::from_secs(15)),
        ..ExperimentConfig::for_algorithm(AlgorithmKind::Ds)
    }
}

/// Run the full topology on the sim runtime, per-tuple or batched, and
/// aggregate the complete observable outcome (scalar report + every
/// tracked round).
fn sim_outcome(docs: Vec<Document>, depth: Option<usize>) -> (String, String) {
    let cfg = config();
    let documents = docs.len();
    let recorder = RunRecorder::shared(cfg.k);
    let topology = build_topology(&cfg, Box::new(docs.into_iter()), recorder.clone());
    match depth {
        None => run_sim(topology),
        Some(d) => run_sim_batched(topology, BatchPolicy::new(d, |m: &Msg| !m.is_batchable())),
    };
    let rec = recorder.lock();
    let report = RunReport::from_recorder("DS", cfg.k, cfg.partitioners, cfg.thr, cfg.tps, &rec);
    assert_eq!(report.documents, documents as u64);
    (report.to_json(), format!("{:?}", report.tracked_rounds))
}

#[test]
fn sim_batched_is_byte_identical_to_per_tuple_sim() {
    let docs = stream(101, 20_000);
    let (json_tuple, rounds_tuple) = sim_outcome(docs.clone(), None);
    for depth in [1usize, 8, 128] {
        let (json_batch, rounds_batch) = sim_outcome(docs.clone(), Some(depth));
        assert_eq!(
            json_tuple, json_batch,
            "scalar report diverged at depth {depth}"
        );
        assert_eq!(
            rounds_tuple, rounds_batch,
            "tracked rounds diverged at depth {depth}"
        );
    }
}

// ---------------------------------------------------------------------------
// Deterministic chain: threaded-batched vs per-tuple sim, byte-identical
// ---------------------------------------------------------------------------

/// Stateful transform with a genuinely vectorized `on_batch`: it must fold
/// its running state exactly like the per-message path, and it re-emits
/// through `emit_batch` (exercising the single-destination bypass and the
/// fields-grouping per-message fallback downstream).
struct VecTransform {
    acc: u64,
}

impl VecTransform {
    fn step(&mut self, m: u64) -> u64 {
        self.acc = self.acc.wrapping_mul(31).wrapping_add(m);
        m.wrapping_mul(3) ^ (self.acc & 0xff)
    }
}

impl Bolt<u64> for VecTransform {
    fn on_message(&mut self, m: u64, out: &mut dyn Emitter<u64>) {
        let v = self.step(m);
        out.emit("fwd", v);
    }

    fn on_batch(&mut self, msgs: Vec<u64>, out: &mut dyn Emitter<u64>) {
        let transformed: Vec<u64> = msgs.into_iter().map(|m| self.step(m)).collect();
        out.emit_batch("fwd", transformed);
    }
}

struct Rec {
    task: usize,
    log: Arc<Mutex<Vec<Vec<u64>>>>,
}

impl Bolt<u64> for Rec {
    fn on_message(&mut self, m: u64, _out: &mut dyn Emitter<u64>) {
        self.log.lock().unwrap()[self.task].push(m);
    }
}

/// One barrier roughly every `gap` messages (value-determined so both
/// runtimes agree on which messages are barriers).
fn chain_topology(
    seed: u64,
    n: u64,
    log: Arc<Mutex<Vec<Vec<u64>>>>,
) -> setcorr_engine::Topology<u64> {
    let mut tb: TopologyBuilder<u64> = TopologyBuilder::new();
    let src = tb.add_spout("src", 1, move |_| {
        // xorshift stream: deterministic, value-dependent barriers
        let mut state = seed | 1;
        Box::new((0..n).map(move |_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }))
    });
    let mid = tb.add_bolt("mid", 1, |_| {
        Box::new(VecTransform { acc: 7 }) as Box<dyn Bolt<u64>>
    });
    let sink = {
        let log = log.clone();
        tb.add_bolt("sink", 3, move |task| {
            Box::new(Rec {
                task,
                log: log.clone(),
            }) as Box<dyn Bolt<u64>>
        })
    };
    tb.connect(src, "out", mid, Grouping::Shuffle);
    tb.connect(
        mid,
        "fwd",
        sink,
        Grouping::Fields(std::sync::Arc::new(|m: &u64| *m >> 3)),
    );
    tb.build()
}

#[test]
fn threaded_batched_chain_is_byte_identical_to_per_tuple_sim() {
    for seed in [3u64, 1999, 0xDEAD] {
        let reference = {
            let log = Arc::new(Mutex::new(vec![Vec::new(); 3]));
            run_sim(chain_topology(seed, 5_000, log.clone()));
            let out = log.lock().unwrap().clone();
            out
        };
        assert_eq!(
            reference.iter().map(Vec::len).sum::<usize>(),
            5_000,
            "oracle saw everything"
        );
        for depth in [1usize, 7, 32, 128, 512] {
            // every ~16th value is a barrier: flushes land mid-stream and
            // the barrier message itself must keep its FIFO position
            let policy = BatchPolicy::new(depth, |m: &u64| m.is_multiple_of(16));
            let log = Arc::new(Mutex::new(vec![Vec::new(); 3]));
            run_threaded_batched(
                chain_topology(seed, 5_000, log.clone()),
                ThreadedConfig::default(),
                policy,
            );
            let got = log.lock().unwrap().clone();
            assert_eq!(reference, got, "seed {seed} depth {depth}");
        }
    }
}

#[test]
fn threaded_full_topology_stays_in_the_oracle_quality_band() {
    // The full topology is scheduling-sensitive (repartition timing), so
    // threaded runs are compared on the quality envelope, not bytes, with
    // the vectorized operator path underneath.
    //
    // Coverage is counted over the eligible tagsets of the single round
    // after warm-up and races the live control plane: a run that completes
    // one live repartition where most complete two reads 0.82–0.85 instead
    // of 0.90–0.98, about one run in twenty. The envelope is therefore
    // asserted on the median of five runs, which both modes clear unless
    // the low one becomes the usual one.
    const RUNS: usize = 5;
    let docs = stream(103, 30_000);
    let sim = run_docs(&config(), docs.clone(), RunMode::Sim);
    let runs: Vec<RunReport> = (0..RUNS)
        .map(|_| run_docs(&config(), docs.clone(), RunMode::Threaded))
        .collect();
    let median = |of: fn(&RunReport) -> f64| {
        let mut values: Vec<f64> = runs.iter().map(of).collect();
        values.sort_by(f64::total_cmp);
        values[RUNS / 2]
    };
    let each: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "coverage {:.3} error {:.4} live_repartitions {}",
                r.coverage, r.mean_abs_error, r.live_repartitions
            )
        })
        .collect();
    let coverage = median(|r| r.coverage);
    assert!(coverage > 0.85, "median coverage {coverage} of {each:?}");
    let error = median(|r| r.mean_abs_error);
    assert!(
        error < sim.mean_abs_error + 0.02,
        "median error {error} vs sim {} of {each:?}",
        sim.mean_abs_error
    );
    for threaded in &runs {
        assert_eq!(sim.documents, threaded.documents);
        assert_eq!(
            sim.routed_tagsets + sim.unrouted_tagsets,
            threaded.routed_tagsets + threaded.unrouted_tagsets,
            "every tagset reaches the Disseminator"
        );
        // the vectorized threaded run carries the per-operator breakdown
        assert_eq!(
            threaded.operator_seconds.len(),
            7,
            "one entry per component"
        );
        assert!(threaded
            .operator_seconds
            .iter()
            .any(|(name, secs)| name == "parser" && *secs > 0.0));
    }
    assert!(sim.operator_seconds.is_empty(), "sim has no operator clock");
}
