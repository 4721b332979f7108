//! Post-run aggregation: one [`RunReport`] per experiment configuration.

use crate::oracle::ExactRun;
use crate::recorder::RunRecorder;
use setcorr_core::TrackedCoefficient;
use setcorr_metrics::{gini, Chart, ErrorStats, Series};
use setcorr_model::{FxHashMap, TagSet};

/// Everything a figure needs from one run, serialisable to JSON (via
/// [`RunReport::to_json`]; the build environment has no serde, so
/// serialisation is hand-rolled).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Algorithm name (DS/SCC/SCL/SCI).
    pub algorithm: String,
    /// Correlation backend the Calculators ran ("exact" or "approx").
    pub backend: String,
    /// Number of partitions / Calculators.
    pub k: usize,
    /// Number of Partitioners `P`.
    pub partitioners: usize,
    /// Repartition threshold `thr`.
    pub thr: f64,
    /// Arrival rate in tweets/second.
    pub tps: u64,
    /// Documents fed into the topology.
    pub documents: u64,
    /// Average notifications per routed tagset (Fig. 3 metric).
    pub avg_communication: f64,
    /// Per-Calculator share of notifications (Fig. 9 metric).
    pub load_shares: Vec<f64>,
    /// Gini of `load_shares` (Fig. 4 metric).
    pub load_gini: f64,
    /// Largest load share.
    pub max_load_share: f64,
    /// Repartitions triggered by communication drift (Fig. 6).
    pub repartitions_communication: u64,
    /// Repartitions triggered by both drifts at once (Fig. 6).
    pub repartitions_both: u64,
    /// Repartitions triggered by load drift (Fig. 6).
    pub repartitions_load: u64,
    /// Single Additions performed (§7.1).
    pub single_additions: u64,
    /// Partition installations (merges).
    pub merges: u64,
    /// Partition maps installed *live*, with Calculator state migrated
    /// mid-stream (every install after the first when live repartitioning
    /// is on; 0 when it is off or no repartition fired).
    pub live_repartitions: u64,
    /// Units of tracking state (exact counters + signatures + pair counts)
    /// handed between Calculators across all live repartitions.
    pub migrated_units: u64,
    /// Tuples buffered behind migration barriers (stalled, not dropped):
    /// the stream-time cost of all live repartitions combined.
    pub stalled_tuples: u64,
    /// Fraction of eligible exact tagsets (seen > 3 times) that received
    /// some coefficient (§8.2.3 reports > 97 %); 1.0 until
    /// [`RunReport::score`] runs.
    pub coverage: f64,
    /// Mean absolute Jaccard error vs the centralized exact computation
    /// (Fig. 5); 0 until [`RunReport::score`] runs.
    pub mean_abs_error: f64,
    /// Number of eligible exact tagsets compared; 0 until
    /// [`RunReport::score`] runs.
    pub compared_tagsets: u64,
    /// Tagsets routed to at least one Calculator.
    pub routed_tagsets: u64,
    /// Tagged tagsets that could not be routed (bootstrap / unknown tags).
    pub unrouted_tagsets: u64,
    /// Communication-over-time samples (Fig. 8), skipped in JSON.
    pub comm_series: Series,
    /// Per-Calculator load-over-time samples (Fig. 9), skipped in JSON.
    pub load_chart: Chart,
    /// Repartition markers `(x, cause)` for the over-time plots.
    pub repartition_marks: Vec<(u64, String)>,
    /// Per-operator wall-time attribution `(component, seconds)` in
    /// declaration order — seconds spent inside each component's operator
    /// callbacks (threaded runs only; empty for sim, which has no
    /// meaningful per-operator clock). Lets the e2e bench say *where* a
    /// run's time went instead of only how long it took.
    pub operator_seconds: Vec<(String, f64)>,
    /// Per-instance breakdown behind [`RunReport::operator_seconds`]:
    /// `(component, seconds per task)` in declaration order (threaded runs
    /// only); each component's `operator_seconds` entry is the sum of its
    /// per-task entries.
    pub operator_task_seconds: Vec<(String, Vec<f64>)>,
    /// Deduplicated coefficients per report round (round id ascending),
    /// skipped in JSON — the downstream-analytics feed (§6.2's Tracker
    /// output; what enBlogue-style trend detection consumes).
    pub tracked_rounds: Vec<(u64, Vec<TrackedCoefficient>)>,
    /// Serving layer: snapshots published over the run (0 when the run had
    /// no serving store attached).
    pub snapshots_published: u64,
    /// Serving layer: reader snapshot acquisitions observed by the end of
    /// the run (including post-run reads that happened before aggregation).
    pub reader_acquisitions: u64,
    /// Serving layer: total seconds spent building + swapping snapshots
    /// (on the Tracker's round-close path).
    pub snapshot_build_seconds: f64,
    /// Supervised runtime: deterministic faults the configured fault plan
    /// actually fired during the run (0 for fault-free runs).
    pub faults_injected: u64,
    /// Supervised runtime: task restarts the supervisor performed
    /// (checkpoint-restore recoveries).
    pub tasks_restarted: u64,
    /// Supervised runtime: recoveries that replayed held messages from the
    /// hold-and-replay buffer.
    pub rounds_replayed: u64,
    /// Supervised runtime: distinct *components* with at least one task
    /// degraded to a tombstone after exhausting its restart budget. A
    /// non-zero value marks the run's results as partial-but-honest.
    pub degraded_components: u64,
    /// Per-component channel wait counters `(component, send_waits,
    /// recv_waits)` in declaration order (threaded runs only; empty for
    /// sim). `send_waits` counts blocking waits on the component's
    /// *outbound* sends (backpressure from full downstream inboxes);
    /// `recv_waits` counts parks on its own inboxes (idle waiting for
    /// input). Together they say which side of each channel was the
    /// bottleneck during the run.
    pub channel_waits: Vec<(String, u64, u64)>,
}

/// Sightings filter for the accuracy comparison: the exact computation
/// "considers only tagsets appearing more than 3 times" (§8.2.3).
pub const BASELINE_MIN_SIGHTINGS: u64 = 3;

/// Report rounds excluded from the accuracy comparison. Round 0 contains
/// the cold start (no partitions exist until the bootstrap repartition
/// completes); the paper measures a warmed-up system, so comparing the
/// bootstrap round would only measure an artifact of finite-stream runs.
pub const WARMUP_ROUNDS: u64 = 1;

impl RunReport {
    /// Aggregate a finished run, unscored (see [`RunReport::score`]).
    ///
    /// `meta` fields identify the configuration; the recorder holds the
    /// stream length the source produced.
    pub fn from_recorder(
        algorithm: &str,
        k: usize,
        partitioners: usize,
        thr: f64,
        tps: u64,
        recorder: &RunRecorder,
    ) -> Self {
        let shares = recorder.load_shares();
        let (rep_comm, rep_both, rep_load) = recorder.repartitions_by_cause();
        RunReport {
            algorithm: algorithm.to_string(),
            backend: "exact".to_string(),
            k,
            partitioners,
            thr,
            tps,
            documents: recorder.documents,
            avg_communication: recorder.avg_communication(),
            load_gini: gini(&shares),
            max_load_share: shares.iter().copied().fold(0.0, f64::max),
            load_shares: shares,
            repartitions_communication: rep_comm,
            repartitions_both: rep_both,
            repartitions_load: rep_load,
            single_additions: recorder.single_additions,
            merges: recorder.merges,
            live_repartitions: recorder.live_repartitions,
            migrated_units: recorder.migrated_units,
            stalled_tuples: recorder.stalled_tuples,
            coverage: 1.0,
            mean_abs_error: 0.0,
            compared_tagsets: 0,
            routed_tagsets: recorder.routed_tagsets,
            unrouted_tagsets: recorder.unrouted_tagsets,
            comm_series: recorder.comm_series.clone(),
            load_chart: recorder.load_chart.clone(),
            repartition_marks: recorder
                .repartitions
                .iter()
                .map(|&(x, cause)| (x, cause.to_string()))
                .collect(),
            operator_seconds: Vec::new(),
            operator_task_seconds: Vec::new(),
            tracked_rounds: {
                let mut rounds: Vec<(u64, Vec<TrackedCoefficient>)> = recorder
                    .tracked_rounds
                    .iter()
                    .map(|(&r, coeffs)| (r, coeffs.as_ref().clone()))
                    .collect();
                rounds.sort_by_key(|&(r, _)| r);
                rounds
            },
            snapshots_published: 0,
            reader_acquisitions: 0,
            snapshot_build_seconds: 0.0,
            faults_injected: 0,
            tasks_restarted: 0,
            rounds_replayed: 0,
            degraded_components: 0,
            channel_waits: Vec::new(),
        }
    }

    /// Score the run against the exact computation over its stream
    /// (Fig. 5 / §8.2.3), filling `coverage`, `mean_abs_error` and
    /// `compared_tagsets`. Two measurements over the *eligible*
    /// population — input tagsets of ≥ 2 tags seen more than
    /// [`BASELINE_MIN_SIGHTINGS`] times across the run:
    ///
    /// * **coverage**: the fraction of eligible tagsets (appearing in some
    ///   post-warm-up round) for which the distributed pipeline reported at
    ///   least one coefficient in a round where the exact computation saw the
    ///   tagset too ("all algorithms manage to compute a Jaccard coefficient
    ///   for more than 97% of the tagsets seen more than 3 times"),
    /// * **error**: mean `|J_dist − J_exact|` over all post-warm-up
    ///   `(round, tagset)` pairs where both sides reported, visited in
    ///   ascending round order.
    pub fn score(&mut self, exact: &ExactRun) {
        let mut stats = ErrorStats::new();
        let eligible = |tags: &TagSet| {
            exact
                .occurrences
                .get(tags)
                .is_some_and(|&n| n > BASELINE_MIN_SIGHTINGS)
        };
        let mut covered: FxHashMap<&TagSet, bool> = FxHashMap::default();
        for (round, reports) in &exact.rounds {
            if *round < WARMUP_ROUNDS {
                continue;
            }
            // both sides ascend by round and, within a round, by tagset
            let tracked: &[TrackedCoefficient] = self
                .tracked_rounds
                .binary_search_by_key(round, |(r, _)| *r)
                .map_or(&[], |i| &self.tracked_rounds[i].1);
            for report in reports {
                if !eligible(&report.tags) {
                    continue;
                }
                let got = tracked
                    .binary_search_by(|c| c.tags.cmp(&report.tags))
                    .ok()
                    .map(|i| tracked[i].jaccard);
                let slot = covered.entry(&report.tags).or_insert(false);
                *slot |= got.is_some();
                if let Some(est) = got {
                    stats.observe_error_only(est, report.jaccard);
                }
            }
        }
        for (_, was_covered) in covered {
            stats.observe_coverage(was_covered);
        }
        self.coverage = stats.coverage();
        self.mean_abs_error = stats.mean_abs_error();
        self.compared_tagsets = stats.baseline_tagsets();
    }

    /// Total repartitions.
    pub fn repartitions_total(&self) -> u64 {
        self.repartitions_communication + self.repartitions_both + self.repartitions_load
    }

    /// Serialise the scalar fields to one JSON object (the over-time series
    /// and per-round coefficient feeds are deliberately skipped, as the
    /// former serde annotation did).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push('{');
        json_str(&mut out, "algorithm", &self.algorithm);
        out.push(',');
        json_str(&mut out, "backend", &self.backend);
        out.push(',');
        json_u64(&mut out, "k", self.k as u64);
        out.push(',');
        json_u64(&mut out, "partitioners", self.partitioners as u64);
        out.push(',');
        json_f64(&mut out, "thr", self.thr);
        out.push(',');
        json_u64(&mut out, "tps", self.tps);
        out.push(',');
        json_u64(&mut out, "documents", self.documents);
        out.push(',');
        json_f64(&mut out, "avg_communication", self.avg_communication);
        out.push(',');
        out.push_str("\"load_shares\":[");
        for (i, &s) in self.load_shares.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_f64(&mut out, s);
        }
        out.push(']');
        out.push(',');
        json_f64(&mut out, "load_gini", self.load_gini);
        out.push(',');
        json_f64(&mut out, "max_load_share", self.max_load_share);
        out.push(',');
        json_u64(
            &mut out,
            "repartitions_communication",
            self.repartitions_communication,
        );
        out.push(',');
        json_u64(&mut out, "repartitions_both", self.repartitions_both);
        out.push(',');
        json_u64(&mut out, "repartitions_load", self.repartitions_load);
        out.push(',');
        json_u64(&mut out, "single_additions", self.single_additions);
        out.push(',');
        json_u64(&mut out, "merges", self.merges);
        out.push(',');
        json_u64(&mut out, "live_repartitions", self.live_repartitions);
        out.push(',');
        json_u64(&mut out, "migrated_units", self.migrated_units);
        out.push(',');
        json_u64(&mut out, "stalled_tuples", self.stalled_tuples);
        out.push(',');
        json_f64(&mut out, "coverage", self.coverage);
        out.push(',');
        json_f64(&mut out, "mean_abs_error", self.mean_abs_error);
        out.push(',');
        json_u64(&mut out, "compared_tagsets", self.compared_tagsets);
        out.push(',');
        json_u64(&mut out, "routed_tagsets", self.routed_tagsets);
        out.push(',');
        json_u64(&mut out, "unrouted_tagsets", self.unrouted_tagsets);
        out.push(',');
        out.push_str("\"repartition_marks\":[");
        for (i, (x, cause)) in self.repartition_marks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            out.push_str(&x.to_string());
            out.push(',');
            push_json_string(&mut out, cause);
            out.push(']');
        }
        out.push(']');
        out.push(',');
        json_u64(&mut out, "snapshots_published", self.snapshots_published);
        out.push(',');
        json_u64(&mut out, "reader_acquisitions", self.reader_acquisitions);
        out.push(',');
        json_f64(
            &mut out,
            "snapshot_build_seconds",
            self.snapshot_build_seconds,
        );
        out.push(',');
        json_u64(&mut out, "faults_injected", self.faults_injected);
        out.push(',');
        json_u64(&mut out, "tasks_restarted", self.tasks_restarted);
        out.push(',');
        json_u64(&mut out, "rounds_replayed", self.rounds_replayed);
        out.push(',');
        json_u64(&mut out, "degraded_components", self.degraded_components);
        out.push(',');
        out.push_str("\"operator_seconds\":{");
        for (i, (name, secs)) in self.operator_seconds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, name);
            out.push(':');
            out.push_str(&format!("{secs:.4}"));
        }
        out.push('}');
        out.push(',');
        out.push_str("\"operator_task_seconds\":{");
        for (i, (name, tasks)) in self.operator_task_seconds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, name);
            out.push_str(":[");
            for (j, secs) in tasks.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{secs:.4}"));
            }
            out.push(']');
        }
        out.push('}');
        out.push(',');
        out.push_str("\"channel_waits\":{");
        for (i, (name, send_waits, recv_waits)) in self.channel_waits.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_string(&mut out, name);
            out.push_str(":{\"send\":");
            out.push_str(&send_waits.to_string());
            out.push_str(",\"recv\":");
            out.push_str(&recv_waits.to_string());
            out.push('}');
        }
        out.push('}');
        out.push('}');
        out
    }
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let formatted = format!("{v}");
        let integral = !formatted.contains('.');
        out.push_str(&formatted);
        if integral {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

fn json_str(out: &mut String, key: &str, value: &str) {
    push_json_string(out, key);
    out.push(':');
    push_json_string(out, value);
}

fn json_u64(out: &mut String, key: &str, value: u64) {
    push_json_string(out, key);
    out.push(':');
    out.push_str(&value.to_string());
}

fn json_f64(out: &mut String, key: &str, value: f64) {
    push_json_string(out, key);
    out.push(':');
    push_f64(out, value);
}

#[cfg(test)]
mod tests {
    use super::*;
    use setcorr_core::CoefficientReport;

    fn ts(ids: &[u32]) -> TagSet {
        TagSet::from_ids(ids)
    }

    fn exact(ids: &[u32], j: f64, cn: u64) -> CoefficientReport {
        CoefficientReport {
            tags: ts(ids),
            jaccard: j,
            counter: cn,
        }
    }

    fn tracked(ids: &[u32], j: f64) -> TrackedCoefficient {
        TrackedCoefficient {
            tags: ts(ids),
            jaccard: j,
            counter: 1,
            reporters: 1,
        }
    }

    /// An unscored report over `tracked`, scored against exact `rounds`
    /// with run-level `occurrences`.
    fn scored(
        tracked: Vec<(u64, Vec<TrackedCoefficient>)>,
        rounds: Vec<(u64, Vec<CoefficientReport>)>,
        occurrences: &[(&[u32], u64)],
    ) -> RunReport {
        let mut report = RunReport::from_recorder("DS", 2, 1, 0.5, 1300, &RunRecorder::new(2));
        report.tracked_rounds = tracked;
        report.score(&ExactRun {
            rounds,
            occurrences: occurrences.iter().map(|&(ids, n)| (ts(ids), n)).collect(),
        });
        report
    }

    #[test]
    fn accuracy_uses_run_level_eligibility() {
        let report = scored(
            vec![(1, vec![tracked(&[1, 2], 0.6), tracked(&[9, 10], 0.1)])],
            vec![(
                1,
                vec![
                    exact(&[1, 2], 0.5, 4), // eligible, tracked → error sample
                    exact(&[3, 4], 0.9, 2), // ineligible
                    exact(&[5, 6], 0.4, 3), // eligible, never tracked
                ],
            )],
            // run-level occurrence counts: {1,2} and {5,6} eligible (> 3),
            // {3,4} not
            &[(&[1, 2], 10), (&[3, 4], 2), (&[5, 6], 7)],
        );
        assert_eq!(report.compared_tagsets, 2, "two eligible tagsets");
        assert!((report.coverage - 0.5).abs() < 1e-12);
        assert!(
            (report.mean_abs_error - 0.1).abs() < 1e-12,
            "{}",
            report.mean_abs_error
        );
    }

    #[test]
    fn coverage_counts_distinct_tagsets_across_rounds() {
        // appears in two rounds, covered only in the second → still covered
        let report = scored(
            vec![(2, vec![tracked(&[1, 2], 0.5)])],
            vec![
                (1, vec![exact(&[1, 2], 0.5, 4)]),
                (2, vec![exact(&[1, 2], 0.5, 5)]),
            ],
            &[(&[1, 2], 9)],
        );
        assert_eq!(report.compared_tagsets, 1);
        assert!((report.coverage - 1.0).abs() < 1e-12);
        assert_eq!(report.mean_abs_error, 0.0);
    }

    #[test]
    fn warmup_round_is_excluded_from_accuracy() {
        let report = scored(
            Vec::new(),
            vec![(0, vec![exact(&[1, 2], 0.5, 10)])],
            &[(&[1, 2], 10)],
        );
        assert_eq!(report.compared_tagsets, 0);
        assert_eq!(report.coverage, 1.0);
    }

    #[test]
    fn report_serialises_to_json() {
        let mut rec = RunRecorder::new(2);
        rec.documents = 10;
        let report = RunReport::from_recorder("SCC", 2, 3, 0.2, 2600, &rec);
        let unscored = (
            report.coverage,
            report.mean_abs_error,
            report.compared_tagsets,
        );
        assert_eq!(unscored, (1.0, 0.0, 0));
        let json = report.to_json();
        assert!(json.contains("\"algorithm\":\"SCC\""));
        assert!(json.contains("\"backend\":\"exact\""));
        assert!(json.contains("\"tps\":2600"));
        assert!(json.contains("\"documents\":10"));
        assert!(json.contains("\"thr\":0.2"));
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn repartition_totals() {
        let mut rec = RunRecorder::new(1);
        rec.repartitions
            .push((1, setcorr_core::RepartitionCause::Load));
        rec.repartitions
            .push((2, setcorr_core::RepartitionCause::Communication));
        let report = RunReport::from_recorder("DS", 1, 1, 0.5, 1300, &rec);
        assert_eq!(report.repartitions_total(), 2);
        assert_eq!(report.repartition_marks.len(), 2);
    }
}
