//! The approximate drop-in for the exact Calculator.
//!
//! [`ApproxCalculator`] implements [`CorrelationBackend`] by combining the
//! two sketch structures of this crate:
//!
//! * a [`SignatureStore`] estimating Jaccard coefficients in `O(k)` per
//!   query, independent of document-set sizes,
//! * a [`HeavyPairs`] detector surfacing the top co-occurring pairs without
//!   enumerating the pair space, with epoch-over-epoch emergence scoring.
//!
//! Memory is `O(tags × k + cms + top_k)` per report period, versus the
//! exact Calculator's one counter per distinct observed subset. The price
//! is bounded error: Jaccard estimates carry standard error
//! `sqrt(J(1−J)/hashes)` and reported counters are Count-Min over-estimates.

use crate::heavy::{EmergingPair, HeavyPairs};
use crate::store::SignatureStore;
use setcorr_core::{CoefficientReport, CorrelationBackend, MigrationBundle};
use setcorr_model::{FxHashSet, Tag, TagSet};

/// Tuning knobs of the approximate backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApproxParams {
    /// MinHash permutations per signature (`k`). 256 gives ≤ ~0.031
    /// standard error on any coefficient.
    pub hashes: usize,
    /// Count-Min sketch width (columns per row).
    pub cms_width: usize,
    /// Count-Min sketch depth (rows).
    pub cms_depth: usize,
    /// Heavy pairs reported per report period.
    pub top_k: usize,
    /// Seed of the signature hash family.
    pub seed: u64,
}

impl Default for ApproxParams {
    fn default() -> Self {
        ApproxParams {
            hashes: 256,
            cms_width: 4096,
            cms_depth: 4,
            top_k: 256,
            seed: 0x5E7C_0FFE,
        }
    }
}

impl ApproxParams {
    /// Params with a specific signature count, everything else default.
    pub fn with_hashes(hashes: usize) -> Self {
        ApproxParams {
            hashes,
            ..Default::default()
        }
    }
}

/// MinHash + Count-Min correlation state for one Calculator task.
#[derive(Debug, Clone)]
pub struct ApproxCalculator {
    params: ApproxParams,
    store: SignatureStore,
    heavy: HeavyPairs,
    /// Internal per-period document counter, used as the MinHash element id
    /// (each `observe` call is one document's notification).
    next_doc: u64,
    received: u64,
    /// Emerging pairs computed at the last report boundary.
    last_emerging: Vec<EmergingPair>,
}

impl ApproxCalculator {
    /// Backend with the given tuning.
    pub fn new(params: ApproxParams) -> Self {
        ApproxCalculator {
            store: SignatureStore::new(params.hashes, params.seed),
            heavy: HeavyPairs::new(params.top_k, params.cms_width, params.cms_depth),
            params,
            next_doc: 0,
            received: 0,
            last_emerging: Vec::new(),
        }
    }

    /// Backend with default tuning.
    pub fn with_defaults() -> Self {
        Self::new(ApproxParams::default())
    }

    /// The tuning this backend runs with.
    pub fn params(&self) -> &ApproxParams {
        &self.params
    }

    /// The signature store (for inspection and direct queries).
    pub fn store(&self) -> &SignatureStore {
        &self.store
    }

    /// The heavy-pair detector (for inspection and direct queries).
    pub fn heavy(&self) -> &HeavyPairs {
        &self.heavy
    }

    /// The emerging pairs scored at the last report boundary, growth-first
    /// (empty before the first report).
    pub fn emerging(&self) -> &[EmergingPair] {
        &self.last_emerging
    }
}

impl CorrelationBackend for ApproxCalculator {
    fn name(&self) -> &'static str {
        "approx"
    }

    fn observe(&mut self, notification: &TagSet) {
        // standalone use: a task-local counter serves as the document id
        let doc_id = self.next_doc;
        if !notification.is_empty() {
            self.next_doc += 1;
        }
        self.observe_doc(doc_id, notification);
    }

    fn observe_doc(&mut self, doc_id: u64, notification: &TagSet) {
        // Fold the *global* document id so that signatures of replicated
        // tags are bit-identical across Calculators — the property live
        // migration's min-merge relies on.
        if notification.is_empty() {
            return;
        }
        self.received += 1;
        self.store.observe(doc_id, notification);
        self.heavy.observe(notification);
    }

    fn jaccard(&self, ts: &TagSet) -> Option<f64> {
        if ts.len() < 2 {
            return None;
        }
        // Count-Min never under-counts: a zero estimate for any pair proves
        // those two tags never co-occurred this period, matching the exact
        // backend's `None` for never-co-occurring tagsets.
        let tags = ts.tags();
        for (i, &a) in tags.iter().enumerate() {
            for &b in &tags[i + 1..] {
                if self.heavy.estimate(a, b) == 0 {
                    return None;
                }
            }
        }
        self.store.jaccard_set(ts)
    }

    fn report_into(&mut self, out: &mut Vec<CoefficientReport>) {
        let first = out.len();
        for pair in self.heavy.top() {
            let tags = pair.tagset();
            let Some(jaccard) = self.store.jaccard_set(&tags) else {
                continue;
            };
            out.push(CoefficientReport {
                tags,
                jaccard,
                counter: pair.count,
            });
        }
        out[first..].sort_unstable_by(|a, b| a.tags.cmp(&b.tags));
        self.last_emerging = self.heavy.roll_epoch();
        self.store.reset();
        self.next_doc = 0;
        self.received = 0;
    }

    fn tracked(&self) -> usize {
        self.store.len() + self.heavy.candidates()
    }

    fn received(&self) -> u64 {
        self.received
    }

    fn export_state(&self) -> MigrationBundle {
        MigrationBundle {
            counters: Vec::new(),
            signatures: self.store.export_signatures(),
            pairs: self.heavy.export_pairs(),
        }
    }

    fn retain_tags(&mut self, keep: &FxHashSet<Tag>) {
        self.store.retain_tags(keep);
        self.heavy.retain_tags(keep);
    }

    fn adopt_state(&mut self, bundle: &MigrationBundle) {
        for (tag, slots, items) in &bundle.signatures {
            self.store.adopt_signature(*tag, slots, *items);
        }
        for &(a, b, n) in &bundle.pairs {
            self.heavy.adopt_pair(a, b, n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use setcorr_core::Calculator;

    fn ts(ids: &[u32]) -> TagSet {
        TagSet::from_ids(ids)
    }

    #[test]
    fn estimates_track_the_exact_backend() {
        let mut exact = Calculator::new();
        let mut approx = ApproxCalculator::with_defaults();
        // 300 × {1,2}, 150 × {1}, 150 × {2}, 100 × {3,4}
        let stream: Vec<TagSet> = std::iter::repeat_n(ts(&[1, 2]), 300)
            .chain(std::iter::repeat_n(ts(&[1]), 150))
            .chain(std::iter::repeat_n(ts(&[2]), 150))
            .chain(std::iter::repeat_n(ts(&[3, 4]), 100))
            .collect();
        for t in &stream {
            CorrelationBackend::observe(&mut exact, t);
            approx.observe(t);
        }
        for pair in [ts(&[1, 2]), ts(&[3, 4])] {
            let truth = CorrelationBackend::jaccard(&exact, &pair).unwrap();
            let est = approx.jaccard(&pair).unwrap();
            // k = 256 → σ ≤ 0.031 per estimate; 0.08 ≈ 2.5σ
            assert!(
                (est - truth).abs() < 0.08,
                "{pair:?}: {est} vs exact {truth}"
            );
        }
        assert_eq!(
            approx.jaccard(&ts(&[1, 3])),
            None,
            "never co-occurring pairs are provably None via CMS"
        );
    }

    #[test]
    fn report_emits_heavy_pairs_sorted_and_resets() {
        let mut approx = ApproxCalculator::new(ApproxParams {
            top_k: 8,
            ..Default::default()
        });
        for _ in 0..40 {
            approx.observe(&ts(&[5, 6]));
        }
        for _ in 0..20 {
            approx.observe(&ts(&[1, 2]));
        }
        assert_eq!(approx.received(), 60);
        let reports = approx.report_and_reset();
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].tags, ts(&[1, 2]), "sorted by tagset");
        assert!(reports[0].counter >= 20);
        assert!((reports[0].jaccard - 1.0).abs() < 1e-9);
        assert_eq!(approx.tracked(), 0, "reset clears state");
        assert_eq!(approx.received(), 0);
        assert!(approx.report_and_reset().is_empty());
        assert_eq!(approx.emerging().len(), 0, "second epoch saw nothing");
    }

    #[test]
    fn emerging_pairs_survive_the_report_boundary() {
        let mut approx = ApproxCalculator::with_defaults();
        for _ in 0..30 {
            approx.observe(&ts(&[1, 2]));
        }
        approx.report_and_reset();
        assert_eq!(approx.emerging().len(), 1);
        // epoch 2: steady pair + a burst
        for _ in 0..30 {
            approx.observe(&ts(&[1, 2]));
        }
        for _ in 0..25 {
            approx.observe(&ts(&[7, 8]));
        }
        approx.report_and_reset();
        let emerging = approx.emerging();
        assert_eq!(emerging.len(), 2);
        assert_eq!(
            emerging[0].pair.tagset(),
            ts(&[7, 8]),
            "the burst leads on growth"
        );
        assert!(emerging[1].growth < 2.0);
    }

    #[test]
    fn migrated_state_reassembles_split_streams() {
        // Pre-fence docs at the donor, post-fence docs at the heir (global
        // doc ids, shared hash family): after adoption the heir's estimate
        // must match a single backend that saw the whole stream.
        let params = ApproxParams::default();
        let mut whole = ApproxCalculator::new(params);
        let mut donor = ApproxCalculator::new(params);
        let mut heir = ApproxCalculator::new(params);
        for doc in 0u64..600 {
            let tags = if doc % 3 == 0 { ts(&[1, 2]) } else { ts(&[1]) };
            whole.observe_doc(doc, &tags);
            if doc < 400 {
                donor.observe_doc(doc, &tags);
            } else {
                heir.observe_doc(doc, &tags);
            }
        }
        heir.adopt_state(&donor.export_state());
        let truth = whole.jaccard(&ts(&[1, 2])).unwrap();
        let merged = heir.jaccard(&ts(&[1, 2])).unwrap();
        assert!(
            (merged - truth).abs() < 1e-9,
            "identical evidence must give identical estimates: {merged} vs {truth}"
        );
    }

    #[test]
    fn retain_tags_drops_departed_state() {
        let mut calc = ApproxCalculator::with_defaults();
        for doc in 0u64..50 {
            calc.observe_doc(doc, &ts(&[1, 2]));
            calc.observe_doc(1_000 + doc, &ts(&[3, 4]));
        }
        let keep: FxHashSet<Tag> = [Tag(1), Tag(2)].into_iter().collect();
        calc.retain_tags(&keep);
        assert!(calc.jaccard(&ts(&[1, 2])).is_some(), "kept pair survives");
        assert_eq!(calc.store().signature(Tag(3)), None, "departed tag gone");
        let state = calc.export_state();
        assert_eq!(state.signatures.len(), 2);
        assert!(state
            .pairs
            .iter()
            .all(|&(a, b, _)| keep.contains(&a) && keep.contains(&b)));
    }

    #[test]
    fn trivial_and_empty_inputs() {
        let mut approx = ApproxCalculator::with_defaults();
        approx.observe(&TagSet::empty());
        assert_eq!(approx.received(), 0);
        approx.observe(&ts(&[1]));
        assert_eq!(approx.jaccard(&ts(&[1])), None);
        assert_eq!(approx.jaccard(&ts(&[1, 2])), None);
    }
}
