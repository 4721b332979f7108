//! `--self-test`: checks of the harness, not of the program. Each check
//! prints one line; any failure makes the exit code non-zero.

use crate::e2e::{self, Pace, XorShift};
use crate::host::{self, Placement};
use crate::run;
use crate::stats;
use crate::validate;
use crate::workloads::{self, Load, Workload, MINIATURE_DOCS, WORKLOADS};
use setcorr_topology::{run_docs, RunMode};
use std::sync::Arc;
use std::time::{Duration, Instant};

const STALL: Duration = Duration::from_millis(50);

struct Checks {
    failed: u32,
}

impl Checks {
    fn check(&mut self, name: &str, verdict: Result<String, String>) {
        match verdict {
            Ok(detail) => println!("ok    {name}: {detail}"),
            Err(why) => {
                self.failed += 1;
                println!("FAIL  {name}: {why}");
            }
        }
    }
}

fn require(condition: bool, detail: String) -> Result<String, String> {
    if condition {
        Ok(detail)
    } else {
        Err(detail)
    }
}

/// The pacer hands no document before it is due, and waits asleep.
fn pacer() -> Result<String, String> {
    let mut pace = Pace::new(10_000);
    // the schedule starts at the first wait, which is after `start`
    let (start, cpu) = (Instant::now(), host::thread_cpu_ns());
    for doc in 0..3_000 {
        pace.wait(doc);
        if Instant::now() < start + pace.due_offset(doc) {
            return Err(format!("document {doc} was handed before it was due"));
        }
    }
    let (wall, cpu) = (
        start.elapsed(),
        Duration::from_nanos(host::thread_cpu_ns() - cpu),
    );
    require(
        cpu < wall / 5,
        format!("3000 documents over {wall:.0?}, none early, {cpu:.0?} of CPU"),
    )
}

fn thin_tails() -> Result<String, String> {
    let samples: Vec<f64> = (0..99).map(f64::from).collect();
    let (thin, enough) = (
        stats::percentile(&samples, 90.0),
        stats::percentile(&samples[..], 89.0),
    );
    let hundred: Vec<f64> = (0..100).map(f64::from).collect();
    require(
        thin.is_none()
            && enough.is_some()
            && stats::percentile(&hundred, 90.0).is_some()
            && stats::percentile(&samples[..19], 50.0).is_none()
            && stats::highest_supported_percentile(&samples[..30]).is_some_and(|(p, _)| p < 70.0),
        "p90 refused below 100 samples, granted at 100; 30 samples support at most p66".to_string(),
    )
}

/// An open-loop miniature whose feeder stalls on the last document of a
/// measured round: the stall must show as source lag and as freshness.
fn stall_shows(placement: &Placement) -> Result<String, String> {
    let mini = workloads::by_name("paced")
        .expect("paced exists")
        .miniature();
    let docs = mini.generate(7, MINIATURE_DOCS);
    let round = mini.warmup_rounds + 4;
    let edge = (round + 1) * mini.period().millis();
    let stall_at = docs.partition_point(|d| d.timestamp.millis() < edge) as u64 - 1;
    let prefix = Arc::new(docs.clone());
    let stalling = docs.into_iter().inspect(move |d| {
        if d.id == stall_at {
            std::thread::sleep(STALL);
        }
    });
    let outcome = e2e::run_pipeline(
        &mini,
        7,
        prefix,
        stalling,
        Duration::MAX,
        Some(mini.readers),
        placement,
    );
    let lag = outcome.feed.lag_ms.iter().copied().fold(0.0, f64::max);
    let fresh = match (
        outcome.visible.get(round as usize),
        outcome.feed.round_due.get(round as usize),
    ) {
        (Some(seen), Some(due)) => seen.at.saturating_duration_since(*due),
        _ => return Err(format!("round {round} was not published")),
    };
    require(
        lag >= 45.0 && fresh >= STALL - Duration::from_millis(5),
        format!("50 ms stall: source lag {lag:.1} ms, freshness of its round {fresh:.1?}"),
    )
}

/// The oracle comparison and the round invariants notice the smallest
/// possible damage.
fn validation_bites(placement: &Placement) -> Result<String, String> {
    let mini = workloads::by_name("steady")
        .expect("steady exists")
        .miniature();
    let e2e = run::run_e2e(&mini, 11, MINIATURE_DOCS, Duration::MAX, placement);
    if !e2e.correct || e2e.failed > 0 {
        return Err(format!(
            "the undamaged run is not clean: {:?}",
            e2e.problems
        ));
    }
    let rounds = &e2e.outcome.report.tracked_rounds;
    let oracle = run_docs(
        &e2e.outcome.config,
        e2e.stream.prefix.to_vec(),
        RunMode::Sim,
    );
    let first = mini.warmup_rounds;

    let mut flipped = rounds.clone();
    let c = flipped[first as usize + 2]
        .1
        .first_mut()
        .ok_or("a measured round is empty")?;
    c.jaccard = f64::from_bits(c.jaccard.to_bits() ^ 1);
    let ulp = validate::compare_with_oracle(&flipped, &oracle.tracked_rounds, first);

    let mut dropped = rounds.clone();
    dropped.remove(first as usize + 1);
    let gap = validate::check_rounds(&dropped, e2e.outcome.last_round + 1, e2e.outcome.config.k);

    require(
        ulp.len() == 1 && !gap.is_empty(),
        format!(
            "one ulp on one coefficient: {} finding; one round dropped: {} finding(s)",
            ulp.len(),
            gap.len()
        ),
    )
}

fn reader_is_seeded(placement: &Placement) -> Result<String, String> {
    let mini = workloads::by_name("steady")
        .expect("steady exists")
        .miniature();
    let docs = Arc::new(mini.generate(3, MINIATURE_DOCS));
    let outcome = e2e::run_pipeline(
        &mini,
        3,
        docs.clone(),
        Vec::clone(&docs).into_iter(),
        Duration::MAX,
        None,
        placement,
    );
    let (_, coefficients) = outcome
        .report
        .tracked_rounds
        .iter()
        .rev()
        .find(|(_, c)| c.len() > 100)
        .ok_or("no round with coefficients")?;
    let snap = setcorr_serve::Snapshot::build(0, 1, Arc::new(coefficients.clone()));
    let burst = |seed| e2e::query_burst(&snap, &mut XorShift(seed));
    let (a, again, other) = (burst(41), burst(41), burst(43));
    require(
        a == again && a.0 != other.0 && a.1 && other.1,
        "same seed, same targets; another seed, other targets; every answer valid".to_string(),
    )
}

/// While a pipeline runs: its threads on the program CPU, the benchmark's
/// on the client CPUs, read back from `/proc`.
fn affinity_is_split(placement: &Placement) -> Result<String, String> {
    if placement.program == placement.clients {
        return Ok("one CPU allowed: nothing to split".to_string());
    }
    let mini = workloads::by_name("paced")
        .expect("paced exists")
        .miniature();
    let docs = Arc::new(mini.generate(5, MINIATURE_DOCS));
    let yard = host::Yardstick::start(&placement.program);
    let seen = std::thread::scope(|scope| {
        let driver = std::thread::Builder::new()
            .name("bench-driver".into())
            .spawn_scoped(scope, || {
                e2e::run_pipeline(
                    &mini,
                    5,
                    docs.clone(),
                    Vec::clone(&docs).into_iter(),
                    Duration::MAX,
                    Some(mini.readers),
                    placement,
                )
            })
            .expect("spawn driver");
        std::thread::sleep(Duration::from_millis(150));
        let seen = host::thread_affinities();
        driver.join().expect("driver panicked");
        seen
    });
    yard.stop();
    let (program, clients) = (
        Placement::describe(&placement.program),
        Placement::describe(&placement.clients),
    );
    let mut pipeline_threads = 0;
    for (name, cpus) in &seen {
        // pipeline threads carry the name of the served-run thread that
        // created them, truncated by the kernel to 15 bytes
        let expected = if name.starts_with("setcorr-served") {
            pipeline_threads += 1;
            &program
        } else if name == "bench-yardstick" || name == "bench-spawner" {
            &program
        } else {
            &clients
        };
        if cpus != expected {
            return Err(format!(
                "thread {name} may run on {cpus}, expected {expected}"
            ));
        }
    }
    require(
        pipeline_threads >= 10,
        format!("{pipeline_threads} pipeline threads on CPU {program}, clients on {clients}"),
    )
}

fn miniature_is_clean(workload: &Workload, placement: &Placement) -> Result<String, String> {
    let mini = workload.miniature();
    let window = match mini.load {
        Load::Closed => Duration::MAX,
        Load::Open { docs_per_s } => {
            Duration::from_millis(1000 * MINIATURE_DOCS as u64 / docs_per_s)
        }
    };
    let e2e = run::run_e2e(&mini, 21, MINIATURE_DOCS, window, placement);
    require(
        e2e.correct && e2e.failed == 0,
        format!(
            "{} measured rounds, {} attempted, {} failed {:?} {:?}",
            e2e.measured_rounds, e2e.attempted, e2e.failed, e2e.problems, e2e.disturbances
        ),
    )
}

pub fn run(placement: &Placement) -> i32 {
    let mut checks = Checks { failed: 0 };
    checks.check("pacer is never early and never spins", pacer());
    checks.check("percentile helper refuses thin tails", thin_tails());
    checks.check(
        "a feeder stall counts against freshness",
        stall_shows(placement),
    );
    checks.check(
        "validation notices one ulp and one missing round",
        validation_bites(placement),
    );
    checks.check(
        "the reader seed fixes the queries",
        reader_is_seeded(placement),
    );
    checks.check("affinity is split", affinity_is_split(placement));
    for workload in &WORKLOADS {
        checks.check(
            &format!("{} runs clean on a miniature", workload.name),
            miniature_is_clean(workload, placement),
        );
    }
    if checks.failed > 0 {
        println!("{} check(s) failed", checks.failed);
    }
    i32::from(checks.failed > 0)
}
