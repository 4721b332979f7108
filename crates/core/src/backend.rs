//! The pluggable correlation-computation interface.
//!
//! The paper's Calculator (§3.1) computes *exact* Jaccard coefficients by
//! subset counting and inclusion–exclusion. [`CorrelationBackend`] extracts
//! that contract so other implementations — notably the MinHash/Count-Min
//! approximate backend in `setcorr-approx` — can slot into the same operator
//! position of the Figure 2 topology. A backend owns the per-report-period
//! correlation state of one Calculator task:
//!
//! * it ingests notification tagsets (the subset of a document's tags this
//!   Calculator was assigned),
//! * it answers point Jaccard queries between rounds,
//! * every report period it emits [`CoefficientReport`]s and clears its
//!   round state.
//!
//! The exact [`Calculator`] is the reference implementation; its answers are
//! ground truth for any approximate backend's accuracy evaluation.

use crate::calculator::{Calculator, CoefficientReport};
use crate::migration::MigrationBundle;
use setcorr_model::{FxHashSet, Tag, TagSet};

/// One Calculator task's correlation state, exact or approximate.
///
/// Implementations must be `Send`: backends run inside bolts on the
/// threaded runtime.
///
/// ```
/// use setcorr_core::{Calculator, CorrelationBackend};
/// use setcorr_model::TagSet;
///
/// // Any backend slots into the Calculator position of the topology; the
/// // exact subset-counting Calculator is the reference implementation.
/// let mut backend: Box<dyn CorrelationBackend> = Box::new(Calculator::new());
/// backend.observe(&TagSet::from_ids(&[1, 2]));
/// backend.observe(&TagSet::from_ids(&[1]));
/// assert_eq!(backend.jaccard(&TagSet::from_ids(&[1, 2])), Some(0.5));
///
/// let reports = backend.report_and_reset();
/// assert_eq!(reports.len(), 1, "one co-occurring tagset this period");
/// assert_eq!(backend.tracked(), 0, "round state cleared");
/// ```
pub trait CorrelationBackend: Send {
    /// Short stable identifier ("exact", "approx"), used in run reports.
    fn name(&self) -> &'static str;

    /// Ingest one notification tagset. Each call is one document's worth of
    /// assigned tags; empty notifications are ignored.
    fn observe(&mut self, notification: &TagSet);

    /// Ingest one notification carrying a globally unique document id.
    ///
    /// Backends whose state must stay mergeable across Calculators during
    /// live repartitioning (e.g. MinHash signatures, whose slots only agree
    /// when the *same* document hashes identically everywhere) should
    /// override this and fold `doc_id` instead of a task-local counter.
    /// The default ignores the id and delegates to
    /// [`CorrelationBackend::observe`].
    fn observe_doc(&mut self, doc_id: u64, notification: &TagSet) {
        let _ = doc_id;
        self.observe(notification);
    }

    /// The Jaccard coefficient of `ts`, or `None` if `ts` is trivial
    /// (< 2 tags) or was never observed co-occurring. Approximate backends
    /// return estimates.
    fn jaccard(&self, ts: &TagSet) -> Option<f64>;

    /// Append the coefficients of the closing report period to `out`,
    /// sorted by tagset, and clear all round state (§6.2's "every y time
    /// units" step). `out` may be a cleared vector an earlier report
    /// filled: its capacity is reused.
    fn report_into(&mut self, out: &mut Vec<CoefficientReport>);

    /// [`CorrelationBackend::report_into`] a fresh vector.
    fn report_and_reset(&mut self) -> Vec<CoefficientReport> {
        let mut out = Vec::new();
        self.report_into(&mut out);
        out
    }

    /// Distinct units of counting state currently held (subset counters for
    /// the exact backend; signatures + tracked pairs for approximate ones).
    /// Used by the runtime to decide whether a final flush is needed.
    fn tracked(&self) -> usize;

    /// Notifications received in the current report period.
    fn received(&self) -> u64;

    /// Export every piece of per-tag tracking state that could migrate to
    /// another Calculator during a live repartition (see
    /// [`crate::migration`]). The default exports nothing — such a backend
    /// simply rebuilds from the post-fence stream after a migration.
    fn export_state(&self) -> MigrationBundle {
        MigrationBundle::default()
    }

    /// Drop all state involving tags outside `keep` — called after a
    /// repartition with the Calculator's *new* tag ownership, once departing
    /// state has been exported. The default keeps everything.
    fn retain_tags(&mut self, keep: &FxHashSet<Tag>) {
        let _ = keep;
    }

    /// Merge migrated state from another Calculator into this one, using
    /// the per-field semantics documented on [`MigrationBundle`]. The
    /// default ignores the bundle.
    fn adopt_state(&mut self, bundle: &MigrationBundle) {
        let _ = bundle;
    }
}

impl CorrelationBackend for Calculator {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn observe(&mut self, notification: &TagSet) {
        Calculator::observe(self, notification);
    }

    fn jaccard(&self, ts: &TagSet) -> Option<f64> {
        Calculator::jaccard(self, ts)
    }

    fn report_into(&mut self, out: &mut Vec<CoefficientReport>) {
        Calculator::report_into(self, out);
    }

    fn tracked(&self) -> usize {
        Calculator::tracked(self)
    }

    fn received(&self) -> u64 {
        Calculator::received(self)
    }

    fn export_state(&self) -> MigrationBundle {
        MigrationBundle {
            counters: Calculator::export_counters(self),
            ..Default::default()
        }
    }

    fn retain_tags(&mut self, keep: &FxHashSet<Tag>) {
        Calculator::retain_covered(self, keep);
    }

    fn adopt_state(&mut self, bundle: &MigrationBundle) {
        Calculator::absorb_counters(self, &bundle.counters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(ids: &[u32]) -> TagSet {
        TagSet::from_ids(ids)
    }

    /// The trait object path must behave exactly like the concrete type.
    #[test]
    fn exact_backend_round_trips_through_the_trait() {
        let mut backend: Box<dyn CorrelationBackend> = Box::new(Calculator::new());
        assert_eq!(backend.name(), "exact");
        backend.observe(&ts(&[1, 2]));
        backend.observe(&ts(&[1, 2]));
        backend.observe(&ts(&[1]));
        assert_eq!(backend.received(), 3);
        assert_eq!(backend.jaccard(&ts(&[1, 2])), Some(2.0 / 3.0));
        assert_eq!(backend.jaccard(&ts(&[1])), None, "trivial");
        let reports = backend.report_and_reset();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].tags, ts(&[1, 2]));
        assert_eq!(backend.tracked(), 0);
        assert_eq!(backend.received(), 0);
    }
}
