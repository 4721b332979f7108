//! Shared run-time measurement sink.
//!
//! Bolts live on runtime threads; results and measurements flow into one
//! `Arc<Mutex<RunRecorder>>` that the driver reads after the run. Bolts
//! batch locally and touch the recorder only at sample boundaries, keeping
//! the lock out of the per-document hot path.

use parking_lot::Mutex;
use setcorr_core::{RepartitionCause, TrackedCoefficient};
use setcorr_metrics::{Chart, Series};
use setcorr_model::FxHashMap;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Everything measured during one experiment run.
#[derive(Debug, Default)]
pub struct RunRecorder {
    /// Documents the source emitted.
    pub documents: u64,
    /// Average communication per sample window, x = routed tagsets.
    pub comm_series: Series,
    /// Per-Calculator load share per sample window (sorted at render time).
    pub load_chart: Chart,
    /// Repartition events: `(x = routed tagsets, cause)`.
    pub repartitions: Vec<(u64, RepartitionCause)>,
    /// Single Additions applied.
    pub single_additions: u64,
    /// Merges performed (= partitions installed).
    pub merges: u64,
    /// Partition maps installed *live* — while tracking state existed and
    /// had to migrate between Calculators (every install after the first).
    pub live_repartitions: u64,
    /// Units of state (counters + signatures + pairs) handed between
    /// Calculators across all live repartitions.
    pub migrated_units: u64,
    /// Data messages (notifications/ticks) buffered behind a migration
    /// barrier across all live repartitions — the per-migration stall the
    /// repo benchmark records as `core.migration.stalled_tuples`.
    pub stalled_tuples: u64,
    /// Lifetime notification total.
    pub total_notifications: u64,
    /// Lifetime routed (≥ 1 notification) tagset total.
    pub routed_tagsets: u64,
    /// Tagged tagsets that could not be routed at all.
    pub unrouted_tagsets: u64,
    /// Lifetime per-Calculator notification counts.
    pub per_calc_notifications: Vec<u64>,
    /// Deduplicated per-round coefficients from the distributed pipeline.
    /// `Arc`-held: the same storage backs the serving layer's published
    /// snapshots, so recording a round never copies it.
    pub tracked_rounds: FxHashMap<u64, Arc<Vec<TrackedCoefficient>>>,
    /// Calculator tasks the supervised runtime has permanently degraded
    /// (see [`Self::mark_degraded`]).
    degraded_calcs: BTreeSet<usize>,
}

impl RunRecorder {
    /// Recorder for `k` Calculators.
    pub fn new(k: usize) -> Self {
        RunRecorder {
            per_calc_notifications: vec![0; k],
            load_chart: Chart::new("load"),
            comm_series: Series::new("communication"),
            ..Default::default()
        }
    }

    /// Wrap in the shared handle the bolts take.
    pub fn shared(k: usize) -> SharedRecorder {
        Arc::new(Mutex::new(Self::new(k)))
    }

    /// Record Calculator `task` as permanently degraded (the supervisor's
    /// on-degrade hook). The set grows only — a degraded task never comes
    /// back — so a change in [`Self::degraded_count`] always means new dead
    /// tasks: the Disseminator polls the count at round boundaries to
    /// trigger a route-around repartition, and the Merger strips
    /// [`Self::degraded_calcs`]' partitions from every map it emits.
    pub fn mark_degraded(&mut self, task: usize) {
        self.degraded_calcs.insert(task);
    }

    /// The degraded Calculator tasks, ascending.
    pub fn degraded_calcs(&self) -> &BTreeSet<usize> {
        &self.degraded_calcs
    }

    /// How many Calculator tasks are degraded (monotone over a run).
    pub fn degraded_count(&self) -> usize {
        self.degraded_calcs.len()
    }

    /// Lifetime average communication (notifications per routed tagset).
    pub fn avg_communication(&self) -> f64 {
        if self.routed_tagsets == 0 {
            0.0
        } else {
            self.total_notifications as f64 / self.routed_tagsets as f64
        }
    }

    /// Lifetime per-Calculator load shares.
    pub fn load_shares(&self) -> Vec<f64> {
        if self.total_notifications == 0 {
            return vec![0.0; self.per_calc_notifications.len()];
        }
        self.per_calc_notifications
            .iter()
            .map(|&c| c as f64 / self.total_notifications as f64)
            .collect()
    }

    /// Repartition counts by cause: `(communication, both, load)`.
    pub fn repartitions_by_cause(&self) -> (u64, u64, u64) {
        let mut c = (0, 0, 0);
        for &(_, cause) in &self.repartitions {
            match cause {
                RepartitionCause::Communication => c.0 += 1,
                RepartitionCause::Both => c.1 += 1,
                RepartitionCause::Load => c.2 += 1,
            }
        }
        c
    }
}

/// The handle bolts hold.
pub type SharedRecorder = Arc<Mutex<RunRecorder>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_from_counters() {
        let mut r = RunRecorder::new(2);
        r.total_notifications = 30;
        r.routed_tagsets = 20;
        r.per_calc_notifications = vec![10, 20];
        assert!((r.avg_communication() - 1.5).abs() < 1e-12);
        let shares = r.load_shares();
        assert!((shares[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((shares[1] - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_recorder_is_safe() {
        let r = RunRecorder::new(3);
        assert_eq!(r.avg_communication(), 0.0);
        assert_eq!(r.load_shares(), vec![0.0; 3]);
        assert_eq!(r.repartitions_by_cause(), (0, 0, 0));
    }

    #[test]
    fn repartition_cause_split() {
        let mut r = RunRecorder::new(1);
        r.repartitions.push((10, RepartitionCause::Communication));
        r.repartitions.push((20, RepartitionCause::Load));
        r.repartitions.push((30, RepartitionCause::Load));
        r.repartitions.push((40, RepartitionCause::Both));
        assert_eq!(r.repartitions_by_cause(), (1, 1, 2));
    }
}
