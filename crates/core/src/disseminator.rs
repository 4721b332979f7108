//! The Disseminator operator's routing state (§3.3, §6.2, §7).
//!
//! The Disseminator holds the global tag → Calculators inverted index (the
//! paper follows Helmer & Moerkotte's finding that an inverted index is the
//! right structure for set-valued lookups). For every incoming tagset it
//! notifies each Calculator owning at least one of the tags, sending exactly
//! the owned subset. It also:
//!
//! * detects tagsets not fully contained in any partition and, after `sn`
//!   sightings, asks the Merger for a **Single Addition** (§7.1) — unless
//!   `sn = u32::MAX`, which turns them off and the sightings with them;
//! * maintains live quality statistics and requests **repartitions** when
//!   quality drifts beyond `thr` (§7.2) — see [`QualityMonitor`].

use crate::partition::{CalcId, PartitionSet};
use crate::quality::{QualityMonitor, QualityReference, RepartitionCause};
use setcorr_model::{FxHashMap, FxHashSet, Tag, TagSet};

/// Tunables of the Disseminator (§8.1/§8.2 defaults).
#[derive(Debug, Clone, Copy)]
pub struct DisseminatorConfig {
    /// Sightings of an unassigned tagset before a Single Addition is
    /// requested (paper: 3). `u32::MAX` means never: Single Additions are
    /// off and routing records no sightings at all.
    pub sn: u32,
    /// Routed tagsets per quality-statistics batch (paper: 1000).
    pub z: u64,
    /// Allowed relative quality degradation (paper: 0.2 / 0.5).
    pub thr: f64,
}

impl Default for DisseminatorConfig {
    fn default() -> Self {
        DisseminatorConfig {
            sn: 3,
            z: 1000,
            thr: 0.5,
        }
    }
}

/// Side effects the surrounding topology must carry out after a route.
#[derive(Debug, Clone, PartialEq)]
pub enum DisseminatorAction {
    /// Ask the Merger to place this tagset into some partition (§7.1).
    RequestSingleAddition(TagSet),
    /// Ask the Partitioners for fresh partitions (§7.2).
    RequestRepartition(RepartitionCause),
}

/// Outcome of routing one tagset.
///
/// Designed for reuse across calls: [`Disseminator::route_into`] writes into
/// an existing instance, so the per-tuple notification and action vectors
/// keep their capacity instead of being reallocated per document.
#[derive(Debug, Clone, Default)]
pub struct RouteResult {
    /// `(Calculator, owned subset)` notifications to deliver via direct
    /// grouping.
    pub notifications: Vec<(CalcId, TagSet)>,
    /// True iff some Calculator received the *whole* tagset (its Jaccard
    /// coefficient is computable there).
    pub covered: bool,
    /// Follow-up requests (at most one Single Addition and one repartition).
    pub actions: Vec<DisseminatorAction>,
}

impl RouteResult {
    /// Clear the outcome for reuse, keeping the vectors' capacity.
    pub fn reset(&mut self) {
        self.notifications.clear();
        self.actions.clear();
        self.covered = false;
    }
}

/// Routing state of the Disseminator.
#[derive(Debug)]
pub struct Disseminator {
    config: DisseminatorConfig,
    n_calcs: usize,
    /// tag → Calculators owning it (sorted, deduplicated).
    index: FxHashMap<Tag, Vec<CalcId>>,
    monitor: QualityMonitor,
    /// Sightings of tagsets that no Calculator fully owns.
    unassigned_seen: FxHashMap<TagSet, u32>,
    /// Tagsets whose Single Addition was requested but not yet applied.
    pending_additions: FxHashSet<TagSet>,
    /// Suppress duplicate repartition requests until new partitions arrive.
    repartition_inflight: bool,
    /// Scratch: per-Calculator tag buffers reused across routes.
    scratch: Vec<Vec<Tag>>,
    touched: Vec<CalcId>,
    /// Lifetime counters (metrics).
    routed_tagsets: u64,
    sent_notifications: u64,
}

impl Disseminator {
    /// A Disseminator for `n_calcs` Calculators. No routing happens until
    /// [`Disseminator::install_partitions`] is called.
    pub fn new(n_calcs: usize, config: DisseminatorConfig) -> Self {
        Disseminator {
            config,
            n_calcs,
            index: FxHashMap::default(),
            monitor: QualityMonitor::new(n_calcs, config.z, config.thr),
            unassigned_seen: FxHashMap::default(),
            pending_additions: FxHashSet::default(),
            repartition_inflight: false,
            scratch: (0..n_calcs).map(|_| Vec::new()).collect(),
            touched: Vec::new(),
            routed_tagsets: 0,
            sent_notifications: 0,
        }
    }

    /// True once partitions have been installed.
    pub fn has_partitions(&self) -> bool {
        !self.index.is_empty()
    }

    /// Number of Calculators.
    pub fn n_calcs(&self) -> usize {
        self.n_calcs
    }

    /// Lifetime `(routed tagsets, sent notifications)` counters.
    pub fn totals(&self) -> (u64, u64) {
        (self.routed_tagsets, self.sent_notifications)
    }

    /// Install freshly merged partitions with their reference quality,
    /// rebuilding the index and clearing all drift state (§7.2).
    pub fn install_partitions(&mut self, parts: &PartitionSet, reference: QualityReference) {
        assert_eq!(parts.k(), self.n_calcs, "partition count mismatch");
        self.index.clear();
        for (calc, p) in parts.parts.iter().enumerate() {
            for &t in &p.tags {
                self.index.entry(t).or_default().push(calc);
            }
        }
        for v in self.index.values_mut() {
            v.sort_unstable();
            v.dedup();
        }
        self.monitor.set_reference(reference);
        self.unassigned_seen.clear();
        self.pending_additions.clear();
        self.repartition_inflight = false;
    }

    /// Apply a Single Addition decided by the Merger: Calculator `calc` now
    /// owns every tag of `ts`. All Disseminator instances receive this
    /// message, whether they asked or not (§7.1).
    pub fn apply_single_addition(&mut self, ts: &TagSet, calc: CalcId) {
        debug_assert!(calc < self.n_calcs);
        for t in ts {
            let owners = self.index.entry(t).or_default();
            if let Err(pos) = owners.binary_search(&calc) {
                owners.insert(pos, calc);
            }
        }
        self.pending_additions.remove(ts);
        self.unassigned_seen.remove(ts);
    }

    /// Route one tagset, allocating a fresh [`RouteResult`]. Convenience
    /// wrapper over [`Disseminator::route_into`] — per-tuple callers should
    /// hold a `RouteResult` and reuse it instead.
    pub fn route(&mut self, ts: &TagSet) -> RouteResult {
        let mut result = RouteResult::default();
        self.route_into(ts, &mut result);
        result
    }

    /// Route one tagset into a reused `result`: compute notifications,
    /// update drift statistics, and surface any follow-up actions.
    ///
    /// This is the §3.3 per-tuple hot path: the per-Calculator scratch
    /// buffers, the touched list, and `result`'s vectors are all reused
    /// across calls, and the notification tagsets are built through the
    /// inline representation — steady-state routing performs no heap
    /// allocation while Single Additions are off. With `sn` live, the first
    /// sighting of an uncovered tagset is a new key in the sightings table.
    pub fn route_into(&mut self, ts: &TagSet, result: &mut RouteResult) {
        result.reset();
        if ts.is_empty() {
            return;
        }

        // Gather per-Calculator owned subsets using reusable buffers.
        for t in ts {
            if let Some(owners) = self.index.get(&t) {
                for &c in owners {
                    if self.scratch[c].is_empty() {
                        self.touched.push(c);
                    }
                    self.scratch[c].push(t);
                }
            }
        }
        self.touched.sort_unstable();

        let mut covered = false;
        for &c in &self.touched {
            let tags = &mut self.scratch[c];
            if tags.len() == ts.len() {
                covered = true;
            }
            result
                .notifications
                .push((c, TagSet::from_sorted_slice(tags)));
            tags.clear();
        }
        result.covered = covered;

        // Quality statistics — only routed tagsets count (§7.2).
        if !self.touched.is_empty() {
            self.routed_tagsets += 1;
            self.sent_notifications += self.touched.len() as u64;
            if let Some(cause) = self.monitor.record(&self.touched) {
                if !self.repartition_inflight {
                    self.repartition_inflight = true;
                    result
                        .actions
                        .push(DisseminatorAction::RequestRepartition(cause));
                }
            }
        }
        self.touched.clear();

        // Single-Addition bookkeeping for uncovered tagsets (§7.1), skipped
        // whole while Single Additions are off.
        if self.config.sn != u32::MAX
            && !covered
            && self.has_partitions()
            && !self.pending_additions.contains(ts)
        {
            let seen = self.unassigned_seen.entry(ts.clone()).or_insert(0);
            *seen += 1;
            if *seen >= self.config.sn {
                self.unassigned_seen.remove(ts);
                self.pending_additions.insert(ts.clone());
                result
                    .actions
                    .push(DisseminatorAction::RequestSingleAddition(ts.clone()));
            }
        }
    }

    /// Calculators currently owning `tag` (for tests/inspection).
    pub fn owners(&self, tag: Tag) -> &[CalcId] {
        self.index.get(&tag).map(|v| v.as_slice()).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partition;

    fn ts(ids: &[u32]) -> TagSet {
        TagSet::from_ids(ids)
    }

    fn parts(spec: &[&[u32]]) -> PartitionSet {
        PartitionSet {
            parts: spec
                .iter()
                .map(|ids| {
                    let mut p = Partition::new();
                    p.absorb(&ts(ids), 0);
                    p
                })
                .collect(),
        }
    }

    fn reference() -> QualityReference {
        QualityReference {
            avg_com: 10.0,
            max_load: 1.0,
        }
    }

    fn config(sn: u32, z: u64, thr: f64) -> DisseminatorConfig {
        DisseminatorConfig { sn, z, thr }
    }

    #[test]
    fn paper_notification_example() {
        // §6.2: si = {a,b,c}; Calc 1 owns a,b,c; Calc 2 owns a,c →
        // notifications ({a,b,c}) → C1 and ({a,c}) → C2.
        let mut d = Disseminator::new(2, config(3, 1000, 0.5));
        d.install_partitions(&parts(&[&[1, 2, 3], &[1, 3]]), reference());
        let r = d.route(&ts(&[1, 2, 3]));
        assert_eq!(r.notifications.len(), 2);
        assert_eq!(r.notifications[0], (0, ts(&[1, 2, 3])));
        assert_eq!(r.notifications[1], (1, ts(&[1, 3])));
        assert!(r.covered);
        assert!(r.actions.is_empty());
    }

    #[test]
    fn untouched_calculators_get_nothing() {
        let mut d = Disseminator::new(3, config(3, 1000, 0.5));
        d.install_partitions(&parts(&[&[1, 2], &[3], &[9]]), reference());
        let r = d.route(&ts(&[1, 2]));
        assert_eq!(r.notifications.len(), 1);
        assert_eq!(r.notifications[0].0, 0);
    }

    #[test]
    fn uncovered_tagset_requests_single_addition_after_sn() {
        let mut d = Disseminator::new(2, config(3, 1000, 0.5));
        d.install_partitions(&parts(&[&[1], &[2]]), reference());
        let t = ts(&[1, 2]); // both tags owned, but by different calcs
        for _ in 0..2 {
            let r = d.route(&t);
            assert!(!r.covered);
            assert!(r.actions.is_empty());
        }
        let r = d.route(&t);
        assert_eq!(
            r.actions,
            vec![DisseminatorAction::RequestSingleAddition(t.clone())]
        );
        // further sightings stay silent while the addition is pending
        assert!(d.route(&t).actions.is_empty());
        // the Merger answers: calc 1 takes the tagset
        d.apply_single_addition(&t, 1);
        let r = d.route(&t);
        assert!(r.covered);
        assert_eq!(d.owners(Tag(1)), &[0, 1]);
    }

    #[test]
    fn quality_drift_requests_repartition_once() {
        let mut d = Disseminator::new(2, config(99, 2, 0.5));
        d.install_partitions(
            &parts(&[&[1, 2], &[2, 3]]),
            QualityReference {
                avg_com: 1.0,
                max_load: 0.9,
            },
        );
        // tag 2 is shared → every {2}-routed tagset notifies both calcs,
        // avgCom' = 2.0 > 1.0 × 1.5
        assert!(d.route(&ts(&[2])).actions.is_empty());
        let r = d.route(&ts(&[2]));
        assert_eq!(
            r.actions,
            vec![DisseminatorAction::RequestRepartition(
                RepartitionCause::Communication
            )]
        );
        // in-flight suppression
        for _ in 0..4 {
            assert!(d.route(&ts(&[2])).actions.is_empty());
        }
        // new partitions clear the in-flight flag
        d.install_partitions(
            &parts(&[&[1, 2], &[2, 3]]),
            QualityReference {
                avg_com: 1.0,
                max_load: 0.9,
            },
        );
        d.route(&ts(&[2]));
        let r = d.route(&ts(&[2]));
        assert_eq!(r.actions.len(), 1);
    }

    #[test]
    fn unknown_tags_route_nowhere() {
        let mut d = Disseminator::new(1, config(2, 1000, 0.5));
        d.install_partitions(&parts(&[&[1]]), reference());
        let r = d.route(&ts(&[42]));
        assert!(r.notifications.is_empty());
        assert!(!r.covered);
        // still counted towards single addition
        let r = d.route(&ts(&[42]));
        assert_eq!(r.actions.len(), 1);
    }

    #[test]
    fn empty_tagset_is_noop() {
        let mut d = Disseminator::new(1, config(1, 1, 0.0));
        d.install_partitions(&parts(&[&[1]]), reference());
        let r = d.route(&TagSet::empty());
        assert!(r.notifications.is_empty() && r.actions.is_empty());
    }

    #[test]
    fn totals_accumulate() {
        let mut d = Disseminator::new(2, config(9, 1000, 0.5));
        d.install_partitions(&parts(&[&[1, 2], &[2]]), reference());
        d.route(&ts(&[1])); // 1 notification
        d.route(&ts(&[2])); // 2 notifications
        d.route(&ts(&[7])); // unrouted — not counted
        assert_eq!(d.totals(), (2, 3));
    }

    #[test]
    fn install_resets_pending_state() {
        let mut d = Disseminator::new(2, config(2, 1000, 0.5));
        d.install_partitions(&parts(&[&[1], &[2]]), reference());
        d.route(&ts(&[1, 2]));
        d.route(&ts(&[1, 2])); // triggers request, pending now
        d.install_partitions(&parts(&[&[1, 2], &[2]]), reference());
        let r = d.route(&ts(&[1, 2]));
        assert!(r.covered);
        assert!(r.actions.is_empty());
    }
}
