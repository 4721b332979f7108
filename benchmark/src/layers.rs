//! Per-layer metrics: the traced replay's spans and counts, a few
//! micro-measurements of the transport and the runtimes, and the counters
//! the end-to-end run's public `RunReport` already carries.

use crate::host::{self, Placement};
use crate::run::{E2e, Metric};
use crate::stats;
use crate::trace::{self, Tracer};
use crate::workloads::{Load, Workload};
use setcorr_engine::{
    run_sim_batched, run_threaded_batched, BatchPolicy, Bolt, Emitter, Grouping, ThreadedConfig,
    TopologyBuilder,
};
use setcorr_metrics::gini_counts;
use setcorr_model::Document;
use setcorr_topology::{run_docs, ExperimentConfig, RunMode, Supervision, THREADED_BATCH};
use std::time::Instant;

/// Messages through each transport and runtime micro-measurement.
const MICRO_MESSAGES: u64 = 400_000;

/// The pipeline's operators, in topology order.
const OPERATORS: [&str; 7] = [
    "source",
    "parser",
    "partitioner",
    "merger",
    "disseminator",
    "calculator",
    "tracker",
];

/// Run `work` on a fresh thread confined to `cpus` (threads it spawns
/// inherit the mask) and hand back its result.
fn on_cpus<R: Send>(cpus: &[usize], work: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                host::pin_current_thread(cpus);
                work()
            })
            .join()
            .expect("pinned measurement panicked")
    })
}

/// One producer, one consumer, both on the calling thread's CPUs: wall
/// nanoseconds per message through a bounded ring, `burst` per operation.
fn hop_ns_per_msg(burst: usize) -> f64 {
    let (tx, rx) = crossbeam::channel::bounded::<u64>(1024);
    let start = Instant::now();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut next = 0u64;
            while next < MICRO_MESSAGES {
                if burst == 1 {
                    tx.send(next).expect("consumer alive");
                    next += 1;
                } else {
                    let batch: Vec<u64> = (next..next + burst as u64).collect();
                    next += burst as u64;
                    tx.send_many(batch).expect("consumer alive");
                }
            }
        });
        let mut seen = 0u64;
        let mut drained = Vec::with_capacity(burst);
        while seen < MICRO_MESSAGES {
            if burst == 1 {
                std::hint::black_box(rx.recv().expect("producer alive"));
                seen += 1;
            } else {
                std::hint::black_box(rx.recv().expect("producer alive"));
                seen += 1 + rx.recv_drain(&mut drained, burst) as u64;
                drained.clear();
            }
        }
    });
    start.elapsed().as_nanos() as f64 / MICRO_MESSAGES as f64
}

struct Forward;

impl Bolt<u64> for Forward {
    fn on_message(&mut self, msg: u64, out: &mut dyn Emitter<u64>) {
        out.emit("out", msg);
    }
}

struct Sink;

impl Bolt<u64> for Sink {
    fn on_message(&mut self, msg: u64, _out: &mut dyn Emitter<u64>) {
        std::hint::black_box(msg);
    }
}

/// Wall nanoseconds per message of a do-nothing spout → bolt → sink chain:
/// what a runtime costs with no operator work in it.
fn runtime_ns_per_msg(threaded: bool) -> f64 {
    let mut tb: TopologyBuilder<u64> = TopologyBuilder::new();
    let spout = tb.add_spout("spout", 1, |_| Box::new(0..MICRO_MESSAGES));
    let forward = tb.add_bolt("forward", 1, |_| Box::new(Forward) as Box<dyn Bolt<u64>>);
    let sink = tb.add_bolt("sink", 1, |_| Box::new(Sink) as Box<dyn Bolt<u64>>);
    tb.connect(spout, "out", forward, Grouping::Shuffle);
    tb.connect(forward, "out", sink, Grouping::Shuffle);
    let policy = BatchPolicy::new(THREADED_BATCH, |_: &u64| false);
    let start = Instant::now();
    if threaded {
        run_threaded_batched(tb.build(), ThreadedConfig::default(), policy);
    } else {
        run_sim_batched(tb.build(), policy);
    }
    // every message crosses two edges
    start.elapsed().as_nanos() as f64 / (2 * MICRO_MESSAGES) as f64
}

/// Wall seconds of a plain threaded run of `docs`.
fn threaded_wall_s(config: &ExperimentConfig, docs: &[Document]) -> f64 {
    let start = Instant::now();
    std::hint::black_box(run_docs(config, docs.to_vec(), RunMode::Threaded));
    start.elapsed().as_secs_f64()
}

/// Everything `--trace 1` reports for one workload. Writes the span file
/// next to the run records.
pub fn layer_metrics(
    workload: &Workload,
    seed: u64,
    e2e: &E2e,
    placement: &Placement,
    results_dir: &std::path::Path,
) -> std::io::Result<Vec<Metric>> {
    let config = &e2e.outcome.config;
    let docs: &[Document] = &e2e.stream.prefix;
    let warm_end = docs.partition_point(|d| {
        d.timestamp.millis() < workload.warmup_rounds * workload.period().millis()
    });
    let warm = &docs[..warm_end];

    // the same replay on the program CPU, untraced and traced; the first
    // pass runs cold and is only there to warm the other two
    let (untraced, traced, tracer) = on_cpus(&placement.program, || {
        trace::replay(config, docs, &mut Tracer::new(false));
        let untraced = trace::replay(config, docs, &mut Tracer::new(false));
        let mut tracer = Tracer::new(true);
        let traced = trace::replay(config, docs, &mut tracer);
        (untraced, traced, tracer)
    });
    std::fs::create_dir_all(results_dir)?;
    tracer.write_jsonl(&results_dir.join(format!("trace-{}-seed{seed}.jsonl", workload.name)))?;
    let (span_ns, unattributed) = tracer.totals();
    let c = &traced.counts;

    // supervision wrappers armed, no fault injected: the pair is short, so
    // each side is the faster of two runs
    let supervised = config.clone().with_supervision(Supervision::default());
    let paired = |config: &ExperimentConfig, docs: &[Document]| {
        threaded_wall_s(config, docs).min(threaded_wall_s(config, docs))
    };
    let (hop_b1, hop_b128, threaded_ns, sim_ns, plain_s, supervised_s) =
        on_cpus(&placement.program, || {
            (
                hop_ns_per_msg(1),
                hop_ns_per_msg(THREADED_BATCH),
                runtime_ns_per_msg(true),
                runtime_ns_per_msg(false),
                paired(config, warm),
                paired(&supervised, warm),
            )
        });
    let unpinned_s = on_cpus(&placement.all, || threaded_wall_s(config, warm));

    let total = |name: &str| span_ns.get(name).copied().unwrap_or(0) as f64;
    let per = |ns: f64, n: u64| ns / n.max(1) as f64;
    let layer_names = [
        "topology.parse",
        "model.window_insert",
        "core.disseminator.route",
        "core.calculator.observe",
        "core.calculator.report",
        "core.tracker.dedup",
        "serve.publish",
    ];
    // what the data plane costs per document, one layer after the other,
    // against what the pinned pipeline took per document end to end
    let budget_ns_per_doc = layer_names.iter().map(|n| total(n)).sum::<f64>() / c.docs as f64;
    let e2e_ns_per_doc = e2e.window_s * 1e9 / e2e.outcome.feed.measured_docs.max(1) as f64;

    let report = &e2e.outcome.report;
    let run_s = e2e.run_s;
    let busy = |name: &str| {
        report
            .operator_seconds
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, s)| *s)
    };
    let calc_tasks: Vec<f64> = report
        .operator_task_seconds
        .iter()
        .find(|(n, _)| n == "calculator")
        .map(|(_, t)| t.clone())
        .unwrap_or_default();
    let calc_mean = calc_tasks.iter().sum::<f64>() / calc_tasks.len().max(1) as f64;
    let calc_max = calc_tasks.iter().copied().fold(0.0, f64::max);
    let (send_waits, recv_waits) = report
        .channel_waits
        .iter()
        .fold((0, 0), |(s, r), (_, ws, wr)| (s + ws, r + wr));

    let m = |name: &str, unit: &'static str, value: f64| Metric::plain(name, unit, value);
    let passes = c.partition_passes.max(1) as f64;
    let mut out = vec![
        m(
            "workload.generate_ns_per_doc",
            "ns",
            e2e.stream.generate_ns_per_doc,
        ),
        m("workload.docs", "count", e2e.stream.docs as f64),
        m(
            "workload.tagged_share",
            "share",
            e2e.stream.tagged as f64 / e2e.stream.docs as f64,
        ),
        m(
            "workload.stream_mb",
            "MB",
            (e2e.stream.docs * std::mem::size_of::<Document>()) as f64 / 1e6,
        ),
        m(
            "workload.source_lag_p99_ms",
            "ms",
            match workload.load {
                Load::Closed => 0.0, // no schedule to fall behind
                Load::Open { .. } => {
                    stats::percentile(&e2e.outcome.feed.lag_ms, 99.0).unwrap_or(f64::NAN)
                }
            },
        ),
        m(
            "topology.parse_ns_per_doc",
            "ns",
            per(total("topology.parse"), c.docs),
        ),
        m(
            "model.window_insert_ns_per_tagset",
            "ns",
            per(total("model.window_insert"), c.tagsets),
        ),
        m(
            "model.window_distinct_tagsets",
            "count",
            c.window_distinct as f64,
        ),
        m(
            "core.disseminator.route_ns_per_tagset",
            "ns",
            per(total("core.disseminator.route"), c.tagsets),
        ),
        m(
            "core.disseminator.notifications_per_tagset",
            "count",
            per(c.notifications as f64, c.routed),
        ),
        m(
            "core.disseminator.routed_share",
            "share",
            per(c.routed as f64, c.tagsets),
        ),
        m(
            "core.disseminator.load_gini",
            "share",
            gini_counts(&c.per_calc),
        ),
        m(
            "core.calculator.observe_ns_per_notification",
            "ns",
            per(total("core.calculator.observe"), c.notifications),
        ),
        m(
            "core.calculator.report_ns_per_coefficient",
            "ns",
            per(total("core.calculator.report"), c.reported),
        ),
        m(
            "core.calculator.coefficients_per_round",
            "count",
            per(c.reported as f64, c.rounds),
        ),
        m(
            "core.tracker.dedup_ns_per_report",
            "ns",
            per(total("core.tracker.dedup"), c.reported),
        ),
        m(
            "core.tracker.kept_over_reported",
            "share",
            per(c.kept as f64, c.reported),
        ),
        m(
            "serve.snapshot_build_ms_p50",
            "ms",
            stats::median(&c.build_ms),
        ),
        m(
            "serve.snapshot_coefficients",
            "count",
            per(c.kept as f64, c.rounds),
        ),
        m("serve.publish_us", "us", stats::median(&c.publish_us)),
        m(
            "core.partition.input_ms",
            "ms",
            total("core.partition.input") / 1e6 / passes,
        ),
        m(
            "core.partition.algo_ms",
            "ms",
            total("core.partition.algo") / 1e6 / passes,
        ),
        m(
            "core.partition.requests",
            "count",
            c.partition_requests as f64,
        ),
        m(
            "core.merger.merge_ms",
            "ms",
            total("core.merger.merge") / 1e6 / passes,
        ),
        m(
            "core.merger.single_addition_us",
            "us",
            per(total("core.merger.single_addition") / 1e3, c.addition_calls),
        ),
        m(
            "core.merger.single_additions",
            "count",
            c.single_additions as f64,
        ),
        m(
            "core.disseminator.install_ms",
            "ms",
            total("core.disseminator.install") / 1e6 / passes,
        ),
        m(
            "core.migration.plan_ms",
            "ms",
            total("core.migration.plan") / 1e6 / passes,
        ),
        m(
            "core.migration.adopt_ms",
            "ms",
            total("core.migration.adopt") / 1e6 / passes,
        ),
        m(
            "core.migration.migrated_units",
            "count",
            report.migrated_units as f64,
        ),
        m(
            "core.migration.stalled_tuples",
            "count",
            report.stalled_tuples as f64,
        ),
        m(
            "topology.repartitions",
            "count",
            report.repartitions_total() as f64,
        ),
        m("serve.top_k_ns", "ns", per(total("serve.top_k"), c.lookups)),
        m(
            "serve.neighbors_ns",
            "ns",
            per(total("serve.neighbors"), c.lookups),
        ),
        m(
            "serve.coefficient_ns",
            "ns",
            per(total("serve.coefficient"), c.lookups),
        ),
        m(
            "serve.lookup_hit_share",
            "share",
            per(c.lookup_hits as f64, c.lookups),
        ),
        m(
            "serve.reader_acquisitions",
            "count",
            report.reader_acquisitions as f64,
        ),
        m(
            "serve.query_burst_p95_us",
            "us",
            stats::percentile(&e2e.outcome.burst_us, 95.0).unwrap_or(f64::NAN),
        ),
        m("crossbeam.hop_ns_per_msg_b1", "ns", hop_b1),
        m("crossbeam.hop_ns_per_msg_b128", "ns", hop_b128),
        m("crossbeam.send_waits", "count", send_waits as f64),
        m("crossbeam.recv_waits", "count", recv_waits as f64),
        m("engine.threaded_ns_per_msg", "ns", threaded_ns),
        m("engine.sim_ns_per_msg", "ns", sim_ns),
        m(
            "engine.supervised_overhead_share",
            "share",
            supervised_s / plain_s - 1.0,
        ),
    ];
    for op in OPERATORS {
        out.push(m(
            &format!("engine.{op}_busy_share"),
            "share",
            busy(op) / run_s,
        ));
    }
    // the highest percentile of freshness the run's rounds support, and
    // which one that is (p90 needs a hundred rounds; `churn` has thirty)
    let (tail_pct, tail_ms) =
        stats::highest_supported_percentile(&e2e.freshness_ms).unwrap_or((f64::NAN, f64::NAN));
    out.extend([
        m(
            "engine.calculator_busy_max_over_mean",
            "ratio",
            calc_max / calc_mean,
        ),
        m(
            "engine.unpinned_docs_per_s",
            "1/s",
            warm.len() as f64 / unpinned_s,
        ),
        m(
            "approx.observe_ns_per_notification",
            "ns",
            per(total("approx.observe"), c.approx_notifications),
        ),
        m(
            "approx.report_ms_per_round",
            "ms",
            per(total("approx.report") / 1e6, c.approx_rounds),
        ),
        m(
            "serve.freshness_tail_ms",
            "ms",
            tail_ms / e2e.yard.speed_factor(),
        ),
        m("serve.freshness_tail_pct", "%", tail_pct),
        m(
            "serve.freshness_samples",
            "count",
            e2e.freshness_ms.len() as f64,
        ),
        m(
            "topology.replay_docs_per_s",
            "1/s",
            c.docs as f64 / traced.wall_s,
        ),
        m("topology.rounds", "count", c.rounds as f64),
        m("topology.unattributed_share", "share", unattributed),
        m(
            "topology.budget_over_e2e",
            "share",
            budget_ns_per_doc / e2e_ns_per_doc,
        ),
        m(
            "trace.overhead_share",
            "share",
            traced.wall_s / untraced.wall_s - 1.0,
        ),
        m("host.cpus", "count", placement.all.len() as f64),
        m("host.yardstick_core_ms_p50", "ms", e2e.yard.core_ms),
        m("host.yardstick_memory_ms_p50", "ms", e2e.yard.memory_ms),
        m("host.yardstick_samples", "count", e2e.yard.samples as f64),
        m("host.speed_factor", "ratio", e2e.yard.speed_factor()),
        m("host.steal_share", "share", e2e.steal_share),
        m("host.peak_rss_mb", "MB", host::peak_rss_mb()),
    ]);
    Ok(out)
}
