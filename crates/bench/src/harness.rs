//! The §8 experiment grid and figure renderers.
//!
//! Figures 3–6 share one parameter sweep (thr / P / k / tps, one varied at a
//! time around the defaults P=10, k=10, thr=0.5, tps=1300); Figures 8–9 use
//! the default configuration's over-time recordings; Figure 7 is a pure
//! connectivity measurement; `theory` evaluates the §5 models.
//!
//! Scale: the paper processes a 6-hour live stream on a 26-node cluster with
//! 5-minute windows. The laptop-scale default keeps every *ratio* intact
//! (several report rounds per run, windows of tens of thousands of
//! documents, z = 1000, sn = 3) while shrinking event time.

use setcorr_core::AlgorithmKind;
use setcorr_model::{Document, FxHashMap, TimeDelta, WindowKind};
use setcorr_sketch::{OverheadReport, SketchCooccurrence};
use setcorr_topology::{connectivity, run, ExactRun, ExperimentConfig, RunMode, RunReport};
use setcorr_workload::{Generator, WorkloadConfig};
use std::fmt::Write as _;

/// Scale knobs of one harness invocation.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Event-time length of each run, seconds (docs = duration × tps, like
    /// the paper's fixed 6-hour wall window).
    pub duration_secs: u64,
    /// Report period `y` and Partitioner window `W`, seconds.
    pub period_secs: u64,
    /// Workload seed.
    pub seed: u64,
    /// Runtime to use.
    pub mode: RunMode,
    /// Minutes of stream for the Fig. 7 connectivity measurement.
    pub fig7_minutes: u64,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            duration_secs: 240,
            period_secs: 20,
            seed: 42,
            mode: RunMode::Sim,
            fig7_minutes: 30,
        }
    }
}

/// One grid point: the §8.1 parameters that identify a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// Algorithm.
    pub algorithm: AlgorithmKind,
    /// Partitions / Calculators.
    pub k: usize,
    /// Partitioners.
    pub partitioners: usize,
    /// Repartition threshold.
    pub thr: f64,
    /// Tweets per second.
    pub tps: u64,
}

/// §8.2 defaults: P=10, k=10, thr=0.5, tps=1300.
pub fn default_point(algorithm: AlgorithmKind) -> GridPoint {
    GridPoint {
        algorithm,
        k: 10,
        partitioners: 10,
        thr: 0.5,
        tps: 1300,
    }
}

/// The distinct grid points needed by Figures 3–6 (panels a–d share the
/// default point).
pub fn grid_points() -> Vec<GridPoint> {
    let mut points = Vec::new();
    for algorithm in AlgorithmKind::ALL {
        let base = default_point(algorithm);
        points.push(base); // thr=0.5, P=10, k=10, tps=1300
        points.push(GridPoint { thr: 0.2, ..base });
        points.push(GridPoint {
            partitioners: 3,
            ..base
        });
        points.push(GridPoint {
            partitioners: 5,
            ..base
        });
        points.push(GridPoint { k: 5, ..base });
        points.push(GridPoint { k: 20, ..base });
        points.push(GridPoint { tps: 2600, ..base });
    }
    points
}

fn key(p: &GridPoint) -> String {
    format!(
        "{}-k{}-P{}-thr{}-tps{}",
        p.algorithm, p.k, p.partitioners, p.thr, p.tps
    )
}

/// Execute one grid point at the given scale over `docs`, its stream, and
/// score it against `exact`, the stream's exact computation.
pub fn run_point(
    point: &GridPoint,
    scale: &Scale,
    docs: Vec<Document>,
    exact: &ExactRun,
) -> RunReport {
    let config = ExperimentConfig {
        algorithm: point.algorithm,
        k: point.k,
        partitioners: point.partitioners,
        thr: point.thr,
        tps: point.tps,
        report_period: TimeDelta::from_secs(scale.period_secs),
        window: WindowKind::Time(TimeDelta::from_secs(scale.period_secs)),
        bootstrap_after: 3000,
        sample_every: 2000,
        seed: scale.seed,
        ..ExperimentConfig::default()
    }
    .with_baseline(false);
    let mut report = run(&config, Box::new(docs.into_iter()), scale.mode);
    report.score(exact);
    report
}

/// Grid cache: every figure pulls from the same set of runs.
pub struct Grid {
    reports: FxHashMap<String, RunReport>,
    scale: Scale,
}

impl Grid {
    /// Run (or reuse) the full Figures 3–6 grid.
    pub fn compute(scale: Scale, progress: bool) -> Grid {
        let mut reports = FxHashMap::default();
        // the points share one stream per rate: generate it and compute its
        // exact rounds once
        let mut streams: FxHashMap<u64, (Vec<Document>, ExactRun)> = FxHashMap::default();
        let points = grid_points();
        for (i, point) in points.iter().enumerate() {
            if progress {
                eprintln!("[{:2}/{}] {}", i + 1, points.len(), key(point));
            }
            let (docs, exact) = streams.entry(point.tps).or_insert_with(|| {
                let mut wconfig = WorkloadConfig::with_seed(scale.seed);
                wconfig.tps = point.tps;
                let n = (scale.duration_secs * point.tps) as usize;
                let docs: Vec<Document> = Generator::new(wconfig).take(n).collect();
                let exact = ExactRun::of(&docs, TimeDelta::from_secs(scale.period_secs));
                (docs, exact)
            });
            let report = run_point(point, &scale, docs.clone(), exact);
            reports.insert(key(point), report);
        }
        Grid { reports, scale }
    }

    /// The report for a grid point.
    pub fn get(&self, point: &GridPoint) -> &RunReport {
        &self.reports[&key(point)]
    }

    /// All reports (for JSON dumps).
    pub fn reports(&self) -> Vec<&RunReport> {
        let mut v: Vec<&RunReport> = self.reports.values().collect();
        v.sort_by(|a, b| {
            (&a.algorithm, a.k, a.partitioners, a.tps)
                .partial_cmp(&(&b.algorithm, b.k, b.partitioners, b.tps))
                .unwrap()
                .then(a.thr.partial_cmp(&b.thr).unwrap())
        });
        v
    }

    /// The scale this grid was computed at.
    pub fn scale(&self) -> &Scale {
        &self.scale
    }
}

/// The four panel families of Figs. 3–6.
const PANELS: &[(&str, &str)] = &[
    ("a", "varying threshold (thr = 0.2, 0.5)"),
    ("b", "varying Partitioners (P = 3, 5, 10)"),
    ("c", "varying partitions (k = 5, 10, 20)"),
    ("d", "varying tweet rate (tps = 1300, 2600)"),
];

fn panel_points(panel: &str, algorithm: AlgorithmKind) -> Vec<(String, GridPoint)> {
    let base = default_point(algorithm);
    match panel {
        "a" => vec![
            ("thr=0.2".into(), GridPoint { thr: 0.2, ..base }),
            ("thr=0.5".into(), base),
        ],
        "b" => vec![
            (
                "P=3".into(),
                GridPoint {
                    partitioners: 3,
                    ..base
                },
            ),
            (
                "P=5".into(),
                GridPoint {
                    partitioners: 5,
                    ..base
                },
            ),
            ("P=10".into(), base),
        ],
        "c" => vec![
            ("k=5".into(), GridPoint { k: 5, ..base }),
            ("k=10".into(), base),
            ("k=20".into(), GridPoint { k: 20, ..base }),
        ],
        "d" => vec![
            ("tps=1300".into(), base),
            ("tps=2600".into(), GridPoint { tps: 2600, ..base }),
        ],
        _ => unreachable!("unknown panel"),
    }
}

/// Render one of Figures 3–6 as grouped bar tables (rows = x-axis values,
/// columns = algorithms), `metric` selecting the figure's y value.
fn render_bar_figure(grid: &Grid, title: &str, metric: impl Fn(&RunReport) -> String) -> String {
    let mut out = String::new();
    writeln!(out, "==== {title} ====").unwrap();
    for (panel, caption) in PANELS {
        writeln!(out, "\n({panel}) {caption}").unwrap();
        write!(out, "{:>10}", "").unwrap();
        for algorithm in AlgorithmKind::ALL {
            write!(out, " {:>12}", algorithm.name()).unwrap();
        }
        writeln!(out).unwrap();
        let n_rows = panel_points(panel, AlgorithmKind::Ds).len();
        for row in 0..n_rows {
            let label = panel_points(panel, AlgorithmKind::Ds)[row].0.clone();
            write!(out, "{label:>10}").unwrap();
            for algorithm in AlgorithmKind::ALL {
                let (_, point) = panel_points(panel, algorithm)[row].clone();
                write!(out, " {:>12}", metric(grid.get(&point))).unwrap();
            }
            writeln!(out).unwrap();
        }
    }
    out
}

/// Figure 3: average communication.
pub fn fig3(grid: &Grid) -> String {
    render_bar_figure(grid, "Figure 3: Communication (avg)", |r| {
        format!("{:.3}", r.avg_communication)
    })
}

/// Figure 4: load dispersion (Gini).
pub fn fig4(grid: &Grid) -> String {
    render_bar_figure(grid, "Figure 4: Processing Load (Gini)", |r| {
        format!("{:.3}", r.load_gini)
    })
}

/// Figure 5: mean absolute Jaccard error (plus the §8.2.3 coverage claim).
pub fn fig5(grid: &Grid) -> String {
    let mut out = render_bar_figure(
        grid,
        "Figure 5: Error for tagsets seen more than 3 times",
        |r| format!("{:.4}", r.mean_abs_error),
    );
    writeln!(out, "\ncoverage (paper: > 97% for all algorithms):").unwrap();
    for algorithm in AlgorithmKind::ALL {
        let r = grid.get(&default_point(algorithm));
        writeln!(
            out,
            "  {:>4}: {:.1}% of {} eligible tagsets",
            algorithm.name(),
            r.coverage * 100.0,
            r.compared_tagsets
        )
        .unwrap();
    }
    out
}

/// Figure 6: number of repartitions split by cause.
pub fn fig6(grid: &Grid) -> String {
    let mut out = String::new();
    writeln!(out, "==== Figure 6: Number of Repartitions ====").unwrap();
    for (panel, caption) in PANELS {
        writeln!(out, "\n({panel}) {caption}").unwrap();
        writeln!(
            out,
            "{:>10} {:>5} {:>14} {:>6} {:>6} {:>7}",
            "", "algo", "Communication", "Both", "Load", "Total"
        )
        .unwrap();
        let n_rows = panel_points(panel, AlgorithmKind::Ds).len();
        for row in 0..n_rows {
            for algorithm in AlgorithmKind::ALL {
                let (label, point) = panel_points(panel, algorithm)[row].clone();
                let r = grid.get(&point);
                writeln!(
                    out,
                    "{label:>10} {:>5} {:>14} {:>6} {:>6} {:>7}",
                    algorithm.name(),
                    r.repartitions_communication,
                    r.repartitions_both,
                    r.repartitions_load,
                    r.repartitions_total()
                )
                .unwrap();
            }
        }
    }
    out
}

/// Figures 8 and 9: communication / per-Calculator load over time for the
/// default configuration, with repartition markers.
pub fn fig8_fig9(grid: &Grid) -> (String, String) {
    let mut fig8 = String::new();
    let mut fig9 = String::new();
    writeln!(fig8, "==== Figure 8: Communication over Time ====").unwrap();
    writeln!(fig9, "==== Figure 9: Processing Load over Time ====").unwrap();
    for algorithm in AlgorithmKind::ALL {
        let r = grid.get(&default_point(algorithm));
        let mut comm_chart = setcorr_metrics::Chart::new(format!(
            "({}) {} Communication — P=10 k=10 thr=0.5 tps=1300",
            algorithm.name().to_lowercase(),
            algorithm.name()
        ));
        comm_chart.series.push(r.comm_series.clone());
        for (x, cause) in &r.repartition_marks {
            comm_chart.mark(*x, cause.clone());
        }
        writeln!(fig8, "\n{}", comm_chart.render_table()).unwrap();

        // Fig 9: sorted per-calculator load lines, as in the paper ("one
        // line has always the load of the most loaded Calculator").
        let mut load_chart = r.load_chart.clone();
        load_chart.title = format!(
            "({}) {} Load — P=10 k=10 thr=0.5 tps=1300",
            algorithm.name().to_lowercase(),
            algorithm.name()
        );
        sort_rows_desc(&mut load_chart);
        for (x, cause) in &r.repartition_marks {
            load_chart.mark(*x, cause.clone());
        }
        writeln!(fig9, "\n{}", load_chart.render_table()).unwrap();
    }
    (fig8, fig9)
}

/// Re-label per-sample values so series i holds the i-th largest load at
/// every x (the paper sorts the load lines).
fn sort_rows_desc(chart: &mut setcorr_metrics::Chart) {
    if chart.series.is_empty() {
        return;
    }
    let rows = chart.series.iter().map(|s| s.points.len()).max().unwrap();
    for row in 0..rows {
        let mut vals: Vec<f64> = chart
            .series
            .iter()
            .filter_map(|s| s.points.get(row).map(|&(_, y)| y))
            .collect();
        vals.sort_by(|a, b| b.partial_cmp(a).unwrap());
        for (i, v) in vals.into_iter().enumerate() {
            if let Some(p) = chart.series[i].points.get_mut(row) {
                p.1 = v;
            }
        }
    }
    for (i, s) in chart.series.iter_mut().enumerate() {
        s.name = format!("rank-{i}");
    }
}

/// Figure 7: connectivity of tagsets over non-overlapping windows.
///
/// The paper measures windows of 2/5/10/20 minutes *on its data*; window
/// regime is determined by documents-per-window, and our calibrated stream
/// reaches the paper's 5-minute regime at ~20 seconds.
/// The ladder below therefore scales the paper's window sizes 1:15 and
/// labels rows with both.
pub fn fig7(scale: &Scale) -> String {
    let mut out = String::new();
    writeln!(out, "==== Figure 7: Tagsets connectivity and load ====").unwrap();
    writeln!(
        out,
        "{:>16} {:>8} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "window (paper)",
        "rounds",
        "tags%(exp)",
        "tags%(max)",
        "docs%(exp)",
        "docs%(max)",
        "sets(exp)",
        "sets(max)"
    )
    .unwrap();
    let docs = (scale.fig7_minutes * 60 * 1300) as usize;
    let mut wconfig = WorkloadConfig::with_seed(scale.seed);
    wconfig.tps = 1300;
    let stream: Vec<setcorr_model::Document> = Generator::new(wconfig).take(docs).collect();
    for (secs, paper_minutes) in [(8u64, 2u64), (20, 5), (40, 10), (80, 20)] {
        let summary = connectivity(&stream, TimeDelta::from_secs(secs));
        writeln!(
            out,
            "{:>10}s ({paper_minutes:>2}m) {:>8} {:>12.2} {:>12.2} {:>12.2} {:>12.2} {:>10.1} {:>10}",
            secs,
            summary.rounds,
            summary.expected_tag_share * 100.0,
            summary.max_tag_share * 100.0,
            summary.expected_doc_share * 100.0,
            summary.max_doc_share * 100.0,
            summary.expected_components,
            summary.max_components
        )
        .unwrap();
    }
    writeln!(
        out,
        "
paper (Fig. 7): doc share of the heaviest component grows ~5% → ~35%
         from the smallest to the largest window; component count grows with
         window size. The same growth must appear across this ladder."
    )
    .unwrap();
    out
}

/// Ablation (§8.3 "Lessons Learned"): DS vs the DS+SCL hybrid vs SCL on
/// windows of growing size. Small windows are subcritical (DS is optimal and
/// the hybrid matches it exactly); large windows grow a giant component that
/// wrecks DS's balance — the hybrid splits it and recovers balance at a
/// small communication cost.
pub fn ablation(scale: &Scale) -> String {
    use setcorr_core::{connected_components, partition, partition_ds_scl, PartitionInput};
    use setcorr_model::TagSetStat;
    let mut out = String::new();
    writeln!(
        out,
        "==== Ablation: splitting large disjoint sets (DS vs DS+SCL vs SCL) ===="
    )
    .unwrap();
    writeln!(
        out,
        "{:>12} {:>10} | {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9}",
        "window",
        "giant doc%",
        "DS comm",
        "DS gini",
        "hyb comm",
        "hyb gini",
        "SCL comm",
        "SCL gini"
    )
    .unwrap();
    let k = 10;
    for tagged_docs in [1_500usize, 5_000, 13_000, 30_000, 60_000] {
        let mut wconfig = WorkloadConfig::with_seed(scale.seed);
        wconfig.tps = 1300;
        let stats: Vec<TagSetStat> = Generator::new(wconfig)
            .filter(|d| d.is_tagged())
            .take(tagged_docs)
            .map(|d| TagSetStat {
                tags: d.tags,
                count: 1,
            })
            .collect();
        let input = PartitionInput::from_stats(stats);
        let giant = connected_components(&input).report().max_doc_share;
        let ds = partition(AlgorithmKind::Ds, &input, k, scale.seed).evaluate(&input);
        let hybrid = partition_ds_scl(&input, k, 1.0 / k as f64, scale.seed).evaluate(&input);
        let scl = partition(AlgorithmKind::Scl, &input, k, scale.seed).evaluate(&input);
        writeln!(
            out,
            "{:>12} {:>9.1}% | {:>9.3} {:>9.3} | {:>9.3} {:>9.3} | {:>9.3} {:>9.3}",
            format!("{tagged_docs} docs"),
            giant * 100.0,
            ds.avg_communication,
            ds.load_gini,
            hybrid.avg_communication,
            hybrid.load_gini,
            scl.avg_communication,
            scl.load_gini
        )
        .unwrap();
    }
    writeln!(
        out,
        "
the hybrid equals DS while windows stay subcritical, then caps the load
         imbalance once a giant component emerges — at a fraction of SCL's
         communication cost (the paper's §8.3 recommendation, implemented)."
    )
    .unwrap();
    out
}

/// Bits per document the §2 sketch argument is measured at.
pub const SKETCH_BITS_PER_DOC: [usize; 3] = [4, 8, 16];

/// §2's sketch argument, measured: the spurious-pair overhead of a
/// Bloom-filter-based co-occurrence design over one default window of
/// tagged documents. Returns the window's document count and one report
/// per [`SKETCH_BITS_PER_DOC`] budget.
pub fn measure_sketch_overhead(scale: &Scale) -> (usize, Vec<OverheadReport>) {
    let mut wconfig = WorkloadConfig::with_seed(scale.seed);
    wconfig.tps = 1300;
    let docs: Vec<setcorr_model::Document> = Generator::new(wconfig)
        .take(26_000) // one default window
        .filter(|d| d.is_tagged())
        .collect();
    let reports = SKETCH_BITS_PER_DOC
        .iter()
        .map(|&bits| {
            let mut sketch = SketchCooccurrence::new(64, bits);
            for d in &docs {
                sketch.observe(d.id, &d.tags);
            }
            sketch.measure(20_000)
        })
        .collect();
    (docs.len(), reports)
}

/// §2's sketch argument, quantified and rendered as a table (see
/// [`measure_sketch_overhead`]).
pub fn sketch_overhead(scale: &Scale) -> String {
    let (docs, reports) = measure_sketch_overhead(scale);
    let mut out = String::new();
    writeln!(
        out,
        "==== Section 2: why sketches are the wrong tool here ===="
    )
    .unwrap();
    writeln!(
        out,
        "window: {docs} tagged documents; testing per-tag Bloom filters of the
         documents annotated with each tag (the design §2 considers)
"
    )
    .unwrap();
    writeln!(
        out,
        "{:>12} {:>10} {:>12} {:>14} {:>18} {:>10}",
        "bits/doc", "tags", "true pairs", "false-flag %", "spurious pairs", "overhead"
    )
    .unwrap();
    for report in reports {
        writeln!(
            out,
            "{:>12} {:>10} {:>12} {:>13.1}% {:>18.0} {:>9.0}x",
            report.bits_per_doc,
            report.tags,
            report.true_pairs,
            report.false_flag_rate() * 100.0,
            report.estimated_spurious_pairs,
            report.overhead_factor()
        )
        .unwrap();
    }
    writeln!(
        out,
        "
every spurious pair would become a tracked tagset at some Calculator —
         the overhead factor is how many phantom tagsets each real one drags in.
         Exact counting (this system) pays nothing: co-occurrence is observed,
         not estimated."
    )
    .unwrap();
    out
}

/// §5 theory: the np table, the expected-communication sweep, and the
/// giant-component model.
pub fn theory() -> String {
    use setcorr_theory::*;
    let mut out = String::new();
    writeln!(
        out,
        "==== Section 5.1: Erdős–Rényi regime of the tag graph ===="
    )
    .unwrap();
    writeln!(
        out,
        "{:>10} {:>6} {:>14} {:>8} {:>14}",
        "window", "mmax", "E[M] (edges)", "np", "regime"
    )
    .unwrap();
    for (minutes, mmax, paper_np) in [(5.0, 8, 0.76), (10.0, 8, 1.52), (10.0, 6, 0.85)] {
        let s = WindowScenario::paper(minutes, mmax);
        writeln!(
            out,
            "{:>9}m {:>6} {:>14.0} {:>8.2} {:>14} (paper: {paper_np})",
            minutes,
            mmax,
            s.expected_edges(),
            s.np(),
            format!("{:?}", s.regime()),
        )
        .unwrap();
    }
    writeln!(
        out,
        "measured pairs cross-check: 34,000 pairs / 10 min → np = {:.2} (paper: 0.11)",
        np_from_measured_pairs(600_000.0, 34_000.0)
    )
    .unwrap();
    writeln!(
        out,
        "\ngiant component fraction ζ(c): c=1.1 → {:.3}, c=1.5 → {:.3}, c=2 → {:.3}, c=3 → {:.3}",
        giant_component_fraction(1.1),
        giant_component_fraction(1.5),
        giant_component_fraction(2.0),
        giant_component_fraction(3.0)
    )
    .unwrap();

    writeln!(
        out,
        "\n==== Section 5.2: expected communication of random equal partitions ===="
    )
    .unwrap();
    writeln!(
        out,
        "{:>10} {:>8} {:>4} {:>4} {:>10}",
        "vocab v", "tweets n", "k", "m", "E[comm]"
    )
    .unwrap();
    for (v, n, k, m) in [
        (600_000u64, 390_000u64, 10u64, 2u64),
        (600_000, 390_000, 10, 4),
        (600_000, 390_000, 10, 8),
        (600_000, 390_000, 20, 4),
        (10_000, 390_000, 10, 4),
        (100, 390_000, 10, 4),
    ] {
        writeln!(
            out,
            "{v:>10} {n:>8} {k:>4} {m:>4} {:>10.3}",
            expected_communication(v, n, k, m)
        )
        .unwrap();
    }
    writeln!(
        out,
        "\nsmall vocabulary + many tags/tweet → every tweet reaches (almost) all k\n\
         partitions (the paper's 'knockout blow'); Twitter-scale vocabularies stay\n\
         tractable."
    )
    .unwrap();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_has_28_points() {
        assert_eq!(grid_points().len(), 28);
    }

    #[test]
    fn panel_points_cover_the_paper_values() {
        let a = panel_points("a", AlgorithmKind::Ds);
        assert_eq!(a.len(), 2);
        let c = panel_points("c", AlgorithmKind::Scl);
        assert_eq!(c.len(), 3);
        assert_eq!(c[0].1.k, 5);
        assert_eq!(c[2].1.k, 20);
    }

    #[test]
    fn theory_output_contains_paper_numbers() {
        let t = theory();
        assert!(t.contains("0.76"));
        assert!(t.contains("1.52"));
        assert!(t.contains("0.85"));
        assert!(t.contains("0.11"));
    }

    #[test]
    fn sort_rows_desc_orders_each_row() {
        let mut chart = setcorr_metrics::Chart::new("t");
        chart.record("a", 0, 0.1);
        chart.record("b", 0, 0.9);
        chart.record("a", 1, 0.8);
        chart.record("b", 1, 0.2);
        sort_rows_desc(&mut chart);
        assert_eq!(chart.series[0].points[0].1, 0.9);
        assert_eq!(chart.series[0].points[1].1, 0.8);
        assert_eq!(chart.series[1].points[0].1, 0.1);
        assert_eq!(chart.series[1].points[1].1, 0.2);
    }
}
