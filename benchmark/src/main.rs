//! `setcorr-benchmark`: the repo benchmark.
//!
//! ```text
//! setcorr-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run; the last line of stdout is the result as JSON (end-to-end
//!     metrics with --trace 0, per-layer metrics with --trace 1)
//! setcorr-benchmark [--runs N] [--seed n] [--seconds s] [--trace 1]
//!     a set: N runs of every workload, round-robin, medians reported
//! setcorr-benchmark --aa [N]      two interleaved sets of the same build
//! setcorr-benchmark --self-test   checks of the harness itself
//! ```

mod alloc;
mod e2e;
mod host;
mod layers;
mod record;
mod run;
mod selftest;
mod stats;
mod trace;
mod validate;
mod workloads;

use host::Placement;
use run::{Better, E2e, Metric, END_TO_END};
use std::time::Duration;
use workloads::{Workload, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const DEFAULT_SECONDS: u64 = 10;
const DEFAULT_RUNS: usize = 5;
const DEFAULT_SEED: u64 = 1;

fn results_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    runs: usize,
    aa: bool,
    self_test: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("setcorr-benchmark: {problem}");
    eprintln!(
        "usage: setcorr-benchmark [--workload steady|churn|paced|readmix] [--seed N] \
         [--seconds 1..60] [--trace 0|1] [--runs N] [--aa [N]] [--self-test]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: DEFAULT_RUNS,
        aa: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    let number = |flag: &str, value: Option<String>| -> u64 {
        value
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage(&format!("{flag} needs a whole number")))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    it.next()
                        .unwrap_or_else(|| usage("--workload needs a name")),
                )
            }
            "--seed" => args.seed = number("--seed", it.next()),
            "--seconds" => args.seconds = number("--seconds", it.next()),
            "--trace" => args.trace = number("--trace", it.next()) != 0,
            "--runs" => args.runs = number("--runs", it.next()) as usize,
            "--aa" => {
                args.aa = true;
                if it.peek().is_some_and(|v| !v.starts_with("--")) {
                    args.runs = number("--aa", it.next()) as usize;
                }
            }
            "--self-test" => args.self_test = true,
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if !(1..=60).contains(&args.seconds) {
        usage("--seconds must be between 1 and 60");
    }
    if args.runs == 0 {
        usage("--runs must be at least 1");
    }
    args
}

/// One run of one workload, recorded under `results/`.
fn one_run(
    workload: &Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    placement: &Placement,
) -> (E2e, Option<Vec<Metric>>) {
    let e2e = run::run_e2e(
        workload,
        seed,
        workload.stream_docs(seconds),
        Duration::from_secs(seconds),
        placement,
    );
    let dir = results_dir();
    let layers = trace.then(|| {
        layers::layer_metrics(workload, seed, &e2e, placement, &dir)
            .unwrap_or_else(|e| panic!("writing the trace under {}: {e}", dir.display()))
    });
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let path = dir.join(format!("run-{}-seed{seed}-{stamp}.json", workload.name));
    let record = record::run_record(
        workload.name,
        seed,
        seconds,
        &e2e,
        layers.as_deref(),
        placement,
    );
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, record + "\n"))
    {
        eprintln!("warning: run record {} not written: {e}", path.display());
    }
    (e2e, layers)
}

fn describe(workload: &str, seed: u64, e2e: &E2e) -> String {
    let mut line = format!(
        "{workload:8} seed {seed:<4} window {:5.2}s rounds {:3} speed {:.3}{}",
        e2e.window_s,
        e2e.measured_rounds,
        e2e.yard.speed_factor(),
        if e2e.yard.disturbed() {
            " disturbed"
        } else {
            ""
        },
    );
    for m in &e2e.metrics {
        line.push_str(&format!("  {}={:.4}", m.name, m.value));
    }
    if !e2e.correct {
        line.push_str("  INCORRECT");
    }
    for p in &e2e.problems {
        line.push_str(&format!("\n    ! {p}"));
    }
    for d in &e2e.disturbances {
        line.push_str(&format!("\n    ~ {d}"));
    }
    line
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    eprintln!("{title}");
    for m in metrics {
        match m.raw {
            Some(raw) => eprintln!(
                "  {:44} {:>16.4} {:6} (raw {raw:.4})",
                m.name, m.value, m.unit
            ),
            None => eprintln!("  {:44} {:>16.4} {}", m.name, m.value, m.unit),
        }
    }
}

/// Driver mode. Human-readable output goes to stderr; stdout ends with the
/// result line.
fn single(args: &Args, name: &str, placement: &Placement) -> i32 {
    let Some(workload) = workloads::by_name(name) else {
        usage(&format!("unknown workload {name}"));
    };
    let (e2e, layers) = one_run(workload, args.seed, args.seconds, args.trace, placement);
    eprintln!("{}", describe(workload.name, args.seed, &e2e));
    if let Some(layers) = &layers {
        print_metrics("per-layer metrics", layers);
    }
    if !e2e.correct {
        eprintln!("INCORRECT");
    }
    println!(
        "{}",
        record::result_line(&e2e, layers.as_deref().unwrap_or(&e2e.metrics))
    );
    i32::from(!e2e.correct)
}

/// `runs` rounds over all workloads, round-robin, so a slow phase of the
/// host lands on every workload. Returns the values per workload × metric.
type Readings = Vec<Vec<Vec<f64>>>;

fn collect(
    rounds: usize,
    seed_of: impl Fn(usize) -> u64,
    seconds: u64,
    placement: &Placement,
) -> (Readings, Readings, bool) {
    let empty: Readings = vec![vec![Vec::new(); END_TO_END.len()]; WORKLOADS.len()];
    let (mut values, mut raws, mut clean) = (empty.clone(), empty, true);
    for round in 0..rounds {
        for (w, workload) in WORKLOADS.iter().enumerate() {
            let seed = seed_of(round);
            let (e2e, _) = one_run(workload, seed, seconds, false, placement);
            println!(
                "run {:2} {}",
                round + 1,
                describe(workload.name, seed, &e2e)
            );
            clean &= e2e.correct && e2e.failed == 0;
            for (i, spec) in END_TO_END.iter().enumerate() {
                let m = e2e
                    .metrics
                    .iter()
                    .find(|m| m.name == spec.name)
                    .expect("declared metric");
                values[w][i].push(m.value);
                raws[w][i].push(m.raw.unwrap_or(m.value));
            }
        }
    }
    (values, raws, clean)
}

fn set(args: &Args, placement: &Placement) -> i32 {
    let (values, _, clean) = collect(
        args.runs,
        |round| args.seed + round as u64,
        args.seconds,
        placement,
    );
    println!(
        "\nmedian of {} runs, (max-min)/median in brackets",
        args.runs
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        println!("{}", workload.name);
        for (i, spec) in END_TO_END.iter().enumerate() {
            println!(
                "  {:22} {:>14.4} {:6} [{:5.1}%]",
                spec.name,
                stats::median(&values[w][i]),
                spec.unit,
                100.0 * stats::range_over_median(&values[w][i]),
            );
        }
    }
    if args.trace {
        for workload in &WORKLOADS {
            let (e2e, layers) = one_run(workload, args.seed, args.seconds, true, placement);
            println!("\ntraced {}", describe(workload.name, args.seed, &e2e));
            for m in layers.iter().flatten() {
                println!("  {:44} {:>16.4} {}", m.name, m.value, m.unit);
            }
        }
    }
    i32::from(!clean)
}

/// Two sets of the same build, interleaved A1 B1 A2 B2 …: what two sets of
/// *different* builds would show if the builds were equal.
fn aa(args: &Args, placement: &Placement) -> i32 {
    let (values, raws, clean) = collect(
        2 * args.runs,
        |round| args.seed + (round / 2) as u64,
        args.seconds,
        placement,
    );
    let split = |v: &[f64]| -> (Vec<f64>, Vec<f64>) {
        (
            v.iter().step_by(2).copied().collect(),
            v.iter().skip(1).step_by(2).copied().collect(),
        )
    };
    let mut drifted = false;
    println!(
        "\n{:9} {:20} {:>12} {:>12} {:>7} {:>7} {:>7} {:>6}",
        "workload", "metric", "median A", "median B", "drift", "spread", "raw", "bound"
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (i, spec) in END_TO_END.iter().enumerate() {
            let (a, b) = split(&values[w][i]);
            let (ra, rb) = split(&raws[w][i]);
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            // positive drift = B reads worse than A
            let drift = match spec.better {
                Better::Lower => (mb - ma) / ma,
                Better::Higher => (ma - mb) / ma,
            };
            let spread = stats::range_over_median(&a).max(stats::range_over_median(&b));
            let raw_spread = stats::range_over_median(&ra).max(stats::range_over_median(&rb));
            let verdict = if drift.abs() > spec.bound {
                "DRIFT"
            } else {
                "ok"
            };
            drifted |= drift.abs() > spec.bound;
            println!(
                "{:9} {:20} {:>12.4} {:>12.4} {:>6.1}% {:>6.1}% {:>6.1}% {:>5.0}% {verdict}{}",
                workload.name,
                spec.name,
                ma,
                mb,
                100.0 * drift,
                100.0 * spread,
                100.0 * raw_spread,
                100.0 * spec.bound,
                if spec.clock && spread > spec.bound {
                    "  (spread above bound)"
                } else {
                    ""
                },
            );
        }
    }
    i32::from(drifted || !clean)
}

fn main() {
    let args = parse_args();
    // the main thread is a client: it generates, validates and waits
    alloc::mark_client_thread();
    let placement = Placement::detect();
    host::pin_current_thread(&placement.clients);
    let code = if args.self_test {
        selftest::run(&placement)
    } else if args.aa {
        aa(&args, &placement)
    } else if let Some(name) = &args.workload {
        single(&args, name, &placement)
    } else {
        set(&args, &placement)
    };
    std::process::exit(code);
}
