//! One benchmark run of one workload: materialise the stream, set the
//! pipeline up [`SETUPS`] times, measure the window on the last, derive the
//! end-to-end metrics, then validate the outputs.

use crate::alloc;
use crate::e2e::{self, Outcome, Stamp};
use crate::host::{Placement, YardSummary, Yardstick};
use crate::stats;
use crate::validate;
use crate::workloads::{Load, Workload};
use setcorr_model::Document;
use setcorr_topology::{run_docs, RunMode};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median. The first ones feed only the
/// warm-up rounds and are torn down.
pub const SETUPS: usize = 3;

/// Offered and achieved rate of an open loop may differ by this share
/// before the run is marked `unsustained`.
const SUSTAINED_WITHIN: f64 = 0.02;

/// An open loop whose feeder ran later than this (p99) measured the feeder:
/// the run is marked `generator starved`.
pub const STARVED_LAG_MS: f64 = 10.0;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
    /// Read off a clock (against counted): subject to the host's noise.
    pub clock: bool,
}

pub const END_TO_END: [Spec; 8] = [
    Spec {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        clock: true,
    },
    Spec {
        name: "ingest_docs_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        clock: true,
    },
    Spec {
        name: "cpu_us_per_doc",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        clock: true,
    },
    Spec {
        name: "freshness_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        clock: true,
    },
    Spec {
        name: "query_burst_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        clock: true,
    },
    Spec {
        name: "peak_heap_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
        clock: false,
    },
    Spec {
        name: "allocs_per_doc",
        unit: "count",
        better: Better::Lower,
        bound: 0.25,
        clock: false,
    },
    Spec {
        name: "alloc_kb_per_doc",
        unit: "KB",
        better: Better::Lower,
        bound: 0.25,
        clock: false,
    },
];

/// A reported number. `raw` is the reading before it was brought to
/// reference host speed, for the metrics that are.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub raw: Option<f64>,
}

impl Metric {
    pub fn plain(name: &str, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.to_string(),
            unit,
            value,
            raw: None,
        }
    }
}

/// The result of one end-to-end run, kept whole for the trace pass and the
/// run record.
pub struct E2e {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// Why `failed` or `correct` are what they are, one line each.
    pub problems: Vec<String>,
    /// What the host did to the measurement (`unsustained`, `generator
    /// starved`, too few rounds), one line each. The program did every
    /// operation it was asked, so these are reported and not counted as
    /// failures: whether they happen depends on the host's minute, not on the
    /// code, and the run's readings still enter the medians.
    pub disturbances: Vec<String>,
    pub outcome: Outcome,
    pub yard: YardSummary,
    /// Share of the window the hypervisor withheld the program CPU.
    pub steal_share: f64,
    pub window_s: f64,
    pub run_s: f64,
    pub measured_rounds: u64,
    pub freshness_ms: Vec<f64>,
    /// `churn` only: sampled coefficients equal to their exact
    /// recomputation, and how many were sampled.
    pub recomputed: Option<(u64, u64)>,
    pub stream: StreamFacts,
}

/// What the run's input looked like.
pub struct StreamFacts {
    pub generate_ns_per_doc: f64,
    pub docs: usize,
    pub tagged: usize,
    /// The documents up to the end of the oracle rounds.
    pub prefix: Arc<Vec<Document>>,
}

/// Documents before the first one stamped at or after `round × period`,
/// plus that one (it closes the previous round).
fn through_round(docs: &[Document], workload: &Workload, round: u64) -> usize {
    let edge = round * workload.period().millis();
    (docs.partition_point(|d| d.timestamp.millis() < edge) + 1).min(docs.len())
}

/// Run `workload` over a stream of `n` documents; a closed loop's measured
/// window ends after `window` (or with the stream).
pub fn run_e2e(
    workload: &Workload,
    seed: u64,
    n: usize,
    window: Duration,
    placement: &Placement,
) -> E2e {
    alloc::release_freed_memory();
    let t0 = Instant::now();
    let stream = workload.generate(seed, n);
    let generate_ns_per_doc = t0.elapsed().as_nanos() as f64 / n as f64;
    let oracle_end = workload.warmup_rounds + validate::ORACLE_ROUNDS;
    let prefix = Arc::new(stream[..through_round(&stream, workload, oracle_end)].to_vec());
    let facts = StreamFacts {
        generate_ns_per_doc,
        docs: n,
        tagged: stream.iter().filter(|d| d.is_tagged()).count(),
        prefix: prefix.clone(),
    };
    let warm = &stream[..through_round(&stream, workload, workload.warmup_rounds)];
    let warm_copies: Vec<Vec<Document>> = (1..SETUPS).map(|_| warm.to_vec()).collect();

    let yard = Yardstick::start(&placement.program);
    let mut setups: Vec<(f64, f64)> = Vec::new(); // (raw seconds, speed factor)
    let mut note_setup = |outcome: &Outcome, yard: &Yardstick| {
        let opened = outcome.feed.opened_at.unwrap_or_else(Instant::now);
        let speed = yard.between(outcome.started, opened);
        setups.push((outcome.setup.as_secs_f64(), speed.speed_factor()));
    };
    for copy in warm_copies {
        let outcome = e2e::run_pipeline(
            workload,
            seed,
            prefix.clone(),
            copy.into_iter(),
            Duration::ZERO,
            None,
            placement,
        );
        note_setup(&outcome, &yard);
    }
    let outcome = e2e::run_pipeline(
        workload,
        seed,
        prefix.clone(),
        stream.into_iter(),
        window,
        Some(workload.readers),
        placement,
    );
    note_setup(&outcome, &yard);
    let run_s = outcome.started.elapsed().as_secs_f64();
    let mut e2e = derive(workload, outcome, &yard, &setups, run_s, facts);
    yard.stop();
    check_outputs(workload, seed, &mut e2e);
    e2e
}

/// The measured window, seen from the output side: from the moment the
/// last warm-up round became visible to the moment the last measured round
/// did. Counted from the input side, the window would be charged for
/// draining the warm-up's backlog.
fn window_edges(outcome: &Outcome, first: u64, last: u64) -> Option<(Stamp, Stamp)> {
    let from = outcome.visible.get(first.checked_sub(1)? as usize)?;
    let to = outcome.visible.get(last as usize)?;
    Some((*from, *to))
}

/// Turn the raw outcome into the declared metrics and failure counts.
fn derive(
    workload: &Workload,
    outcome: Outcome,
    yardstick: &Yardstick,
    setups: &[(f64, f64)],
    run_s: f64,
    stream: StreamFacts,
) -> E2e {
    let mut problems = Vec::new();
    let mut disturbances = Vec::new();
    let mut failed = 0u64;
    let docs = outcome.feed.measured_docs as f64;
    let first = workload.warmup_rounds;
    let last = outcome.last_round;
    let edges = window_edges(&outcome, first, last);
    if edges.is_none() {
        problems.push("the measured rounds were not all published".to_string());
        failed += 1;
    }
    let yard = match edges {
        Some((from, to)) => yardstick.between(from.at, to.at),
        None => yardstick.between(outcome.started, Instant::now()),
    };
    let factor = yard.speed_factor();
    let closed = workload.load == Load::Closed;
    // the benchmark's own CPU inside the window: the yardstick kernels that
    // ran in it, and the client threads (stamped at the window's input
    // edges; their use is even, so the shift does not matter)
    let own_cpu_ns = yard.total_ms * 1e6 + outcome.client_cpu_ns as f64;
    let between = |f: fn(&Stamp) -> u64| edges.map_or(f64::NAN, |(a, b)| (f(&b) - f(&a)) as f64);
    let window_s = edges.map_or(f64::NAN, |(a, b)| (b.at - a.at).as_secs_f64());
    let (allocs, alloc_bytes) = (between(|s| s.allocs), between(|s| s.alloc_bytes));
    let steal_share = edges.map_or(f64::NAN, |(a, b)| (b.steal_s - a.steal_s) / window_s);
    let rate_raw = docs / window_s;
    let cpu_raw = (between(|s| s.process_cpu_ns) - own_cpu_ns) / 1e3 / docs;
    let measured_rounds = (last + 1).saturating_sub(first);
    if measured_rounds < workload.min_rounds {
        disturbances.push(format!(
            "only {measured_rounds} measured rounds, the workload wants {}",
            workload.min_rounds
        ));
    }

    // set-up: median over the set-ups, each at its own interval's speed
    // (an open loop's set-up is spent waiting on the schedule: not scaled)
    let setup_raw = stats::median(&setups.iter().map(|s| s.0).collect::<Vec<_>>());
    let setup_s = if closed {
        stats::median(&setups.iter().map(|s| s.0 / s.1).collect::<Vec<_>>())
    } else {
        setup_raw
    };

    let rate = if closed { rate_raw * factor } else { rate_raw };
    let cpu = cpu_raw / factor;
    if let Load::Open { docs_per_s } = workload.load {
        // sustained = rounds become visible as fast as they are offered
        if (rate_raw / docs_per_s as f64 - 1.0).abs() > SUSTAINED_WITHIN {
            disturbances.push(format!(
                "unsustained: offered {docs_per_s} docs/s, published at {rate_raw:.0}"
            ));
        }
        if let Some(lag) = stats::percentile(&outcome.feed.lag_ms, 99.0) {
            if lag > STARVED_LAG_MS {
                disturbances.push(format!("generator starved: source lag p99 {lag:.1} ms"));
            }
        }
    }

    let freshness_ms: Vec<f64> = (first..=last)
        .filter_map(|r| {
            let (due, seen) = (
                outcome.feed.round_due.get(r as usize)?,
                outcome.visible.get(r as usize)?,
            );
            Some(seen.at.saturating_duration_since(*due).as_secs_f64() * 1e3)
        })
        .collect();
    if (freshness_ms.len() as u64) < measured_rounds {
        problems.push(format!(
            "{} of {measured_rounds} measured rounds never became visible",
            measured_rounds - freshness_ms.len() as u64
        ));
        failed += measured_rounds - freshness_ms.len() as u64;
    }
    let fresh_raw = stats::median(&freshness_ms);

    let burst = stats::median(&outcome.burst_us);
    if outcome.burst_us.is_empty() {
        problems.push("no query burst was measured".to_string());
        failed += 1;
    }
    failed += outcome.broken_bursts;
    if outcome.broken_bursts > 0 {
        problems.push(format!(
            "{} query bursts broke an invariant",
            outcome.broken_bursts
        ));
    }

    let peak_heap_mb = match outcome.heap_peak_bytes {
        Some(peak) => peak.saturating_sub(outcome.heap_base_bytes) as f64 / 1e6,
        None => {
            problems.push(format!(
                "measured round {} (where peak heap is read) was never reached",
                workload.heap_round
            ));
            failed += 1;
            f64::NAN
        }
    };

    let handed = outcome.feed.handed;
    if outcome.report.documents != handed {
        problems.push(format!(
            "documents offered {handed}, ingested {}",
            outcome.report.documents
        ));
        failed += handed.abs_diff(outcome.report.documents);
    }

    let normalised = |name: &str, unit, value: f64, raw: f64| Metric {
        name: name.to_string(),
        unit,
        value,
        raw: Some(raw),
    };
    let metrics = vec![
        normalised("setup_s", "s", setup_s, setup_raw),
        normalised("ingest_docs_per_s", "1/s", rate, rate_raw),
        normalised("cpu_us_per_doc", "us", cpu, cpu_raw),
        normalised("freshness_p50_ms", "ms", fresh_raw / factor, fresh_raw),
        normalised("query_burst_p50_us", "us", burst / factor, burst),
        Metric::plain("peak_heap_mb", "MB", peak_heap_mb),
        Metric::plain("allocs_per_doc", "count", allocs / docs),
        Metric::plain("alloc_kb_per_doc", "KB", alloc_bytes / 1024.0 / docs),
    ];
    for m in &metrics {
        if !m.value.is_finite() || m.value <= 0.0 {
            problems.push(format!("{} has no valid reading ({})", m.name, m.value));
            failed += 1;
        }
    }

    let attempted = handed + (last + 2) + outcome.burst_us.len() as u64;
    E2e {
        metrics,
        attempted,
        failed,
        correct: true,
        problems,
        disturbances,
        outcome,
        yard,
        steal_share,
        window_s,
        run_s,
        measured_rounds,
        freshness_ms,
        recomputed: None,
        stream,
    }
}

/// Validate what the run published. Any finding makes the run incorrect.
fn check_outputs(workload: &Workload, seed: u64, e2e: &mut E2e) {
    let rounds = &e2e.outcome.report.tracked_rounds;
    let first = workload.warmup_rounds;
    // rounds 0..=last are whole; last + 1 holds only the closing document
    let mut findings =
        validate::check_rounds(rounds, e2e.outcome.last_round + 1, e2e.outcome.config.k);
    if e2e.outcome.report.snapshots_published != rounds.len() as u64 {
        findings.push(format!(
            "{} rounds tracked but {} snapshots published",
            rounds.len(),
            e2e.outcome.report.snapshots_published
        ));
    }
    if workload.pinned {
        let oracle = run_docs(
            &e2e.outcome.config,
            e2e.stream.prefix.to_vec(),
            RunMode::Sim,
        );
        findings.extend(validate::compare_with_oracle(
            rounds,
            &oracle.tracked_rounds,
            first,
        ));
    } else {
        let (matching, sampled) = validate::recompute(
            rounds,
            &e2e.stream.prefix,
            workload.period().millis(),
            first,
            seed,
        );
        e2e.recomputed = Some((matching, sampled));
        let share = matching as f64 / sampled.max(1) as f64;
        if sampled == 0 || share < validate::RECOMPUTED_SHARE_FLOOR {
            findings.push(format!(
                "{matching} of {sampled} sampled coefficients equal their exact recomputation, floor {}",
                validate::RECOMPUTED_SHARE_FLOOR
            ));
        }
    }
    e2e.failed += findings.len() as u64;
    e2e.correct = findings.is_empty();
    e2e.problems.extend(findings);
}
