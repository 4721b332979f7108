//! The bolts of Figure 2's topology, wiring the `setcorr-core` state
//! machines onto the `setcorr-engine` runtime.
//!
//! Stream map (producer → `stream` → consumer, grouping):
//!
//! ```text
//! source      → "docs"       → parser        (global)
//! parser      → "tagsets"    → disseminator  (shuffle)
//!                            → partitioner   (fields: whole tagset)
//!                            → baseline      (global)
//! parser      → "ticks"      → disseminator  (all)
//!                            → baseline      (global)
//! partitioner → "parts"      → merger        (global)
//! merger      → "partitions" → disseminator  (all)
//! merger      → "additions"  → disseminator  (all)
//! disseminator→ "notifs"     → calculator    (direct)
//!             → "calcticks"  → calculator    (all)
//!             → "fence"      → calculator    (all)
//!             → "repart"     → partitioner   (all, feedback)
//!             → "addreq"     → merger        (global, feedback)
//! calculator  → "adopt"      → calculator    (direct, feedback)
//!             → "coeffs"     → tracker       (global)
//! ```
//!
//! Ticks reach Calculators *through* the Disseminator so that, on both
//! runtimes, every notification of a round is delivered before the tick that
//! closes it (single FIFO channel per Disseminator → Calculator pair).

use crate::messages::Msg;
use crate::recorder::SharedRecorder;
use setcorr_core::{
    plan_handoff, AlgorithmKind, Calculator, CorrelationBackend, Disseminator, DisseminatorAction,
    DisseminatorConfig, Merger, MigrationBundle, PartitionInput, PartitionSet, PartitionerOutput,
    QualityReference, Tracker,
};
use setcorr_engine::{Bolt, ComponentId, Emitter};
use setcorr_model::{
    FxHashMap, TagSet, TagSetStat, TagSetWindow, TimeDelta, Timestamp, WindowKind,
};
use setcorr_serve::Publisher;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Extracts tagsets from documents and cuts report-period boundaries
/// ("ticks") from event time (§6.2: the Parser stamps `(timestamp_i, s_i)`).
pub struct ParserBolt {
    report_period: TimeDelta,
    round: u64,
}

impl ParserBolt {
    /// Parser with report period `y`.
    pub fn new(report_period: TimeDelta) -> Self {
        ParserBolt {
            report_period,
            round: 0,
        }
    }
}

impl Bolt<Msg> for ParserBolt {
    fn on_message(&mut self, msg: Msg, out: &mut dyn Emitter<Msg>) {
        let Msg::Doc(doc) = msg else { return };
        // Close any rounds the document's timestamp has passed.
        while doc.timestamp.millis() >= (self.round + 1) * self.report_period.millis() {
            out.emit(
                "ticks",
                Msg::Tick {
                    round: self.round,
                    time: Timestamp((self.round + 1) * self.report_period.millis()),
                },
            );
            self.round += 1;
        }
        if !doc.tags.is_empty() {
            out.emit(
                "tagsets",
                Msg::TagSet {
                    time: doc.timestamp,
                    tags: doc.tags,
                },
            );
        }
    }

    /// Vectorized path: one `emit_batch` of tagsets per document batch.
    /// Ticks are rare (one per report period); when one cuts the batch, the
    /// tagsets gathered so far flush *first* so the tick keeps its FIFO
    /// position behind the round it closes.
    fn on_batch(&mut self, mut msgs: Vec<Msg>, out: &mut dyn Emitter<Msg>) {
        let mut tagsets: Vec<Msg> = Vec::with_capacity(msgs.len());
        for msg in msgs.drain(..) {
            let Msg::Doc(doc) = msg else { continue };
            while doc.timestamp.millis() >= (self.round + 1) * self.report_period.millis() {
                if !tagsets.is_empty() {
                    out.emit_batch("tagsets", std::mem::take(&mut tagsets));
                }
                out.emit(
                    "ticks",
                    Msg::Tick {
                        round: self.round,
                        time: Timestamp((self.round + 1) * self.report_period.millis()),
                    },
                );
                self.round += 1;
            }
            if !doc.tags.is_empty() {
                tagsets.push(Msg::TagSet {
                    time: doc.timestamp,
                    tags: doc.tags,
                });
            }
        }
        if !tagsets.is_empty() {
            out.emit_batch("tagsets", tagsets);
        }
        out.recycle(msgs);
    }

    fn on_flush(&mut self, out: &mut dyn Emitter<Msg>) {
        // Close the final partial round.
        out.emit(
            "ticks",
            Msg::Tick {
                round: self.round,
                time: Timestamp((self.round + 1) * self.report_period.millis()),
            },
        );
        self.round += 1;
    }

    /// The Parser's only state is the next round boundary, and it changes
    /// exactly when a tick is emitted — which is when the supervisor
    /// captures checkpoints. A restored Parser therefore resumes with the
    /// round counter every already-processed document observed.
    fn checkpoint(&self) -> Option<Box<dyn std::any::Any + Send>> {
        Some(Box::new(self.round))
    }

    fn restore(&mut self, cp: &dyn std::any::Any) {
        if let Some(round) = cp.downcast_ref::<u64>() {
            self.round = *round;
        }
    }
}

// ---------------------------------------------------------------------------
// Partitioner
// ---------------------------------------------------------------------------

/// Maintains the sliding window and produces partitions on request (§3.2,
/// §6.2). DS Partitioners emit raw disjoint sets; SC* Partitioners run the
/// full algorithm.
pub struct PartitionerBolt {
    task: usize,
    algorithm: AlgorithmKind,
    k: usize,
    seed: u64,
    window: TagSetWindow,
}

impl PartitionerBolt {
    /// Partitioner task `task` with the given algorithm, target partition
    /// count, window extent and SCI seed.
    pub fn new(
        task: usize,
        algorithm: AlgorithmKind,
        k: usize,
        window: WindowKind,
        seed: u64,
    ) -> Self {
        PartitionerBolt {
            task,
            algorithm,
            k,
            seed,
            window: TagSetWindow::new(window),
        }
    }
}

impl Bolt<Msg> for PartitionerBolt {
    fn on_message(&mut self, msg: Msg, out: &mut dyn Emitter<Msg>) {
        match msg {
            Msg::TagSet { time, tags } => {
                self.window.insert(tags, time);
            }
            Msg::RepartitionRequest { epoch, .. } => {
                // One pass over the live window statistics: the input's
                // sorted distinct-tagset stats double as the snapshot the
                // Merger evaluates reference quality against.
                let input = PartitionInput::from_window(&self.window);
                let snapshot = input.stats.clone();
                let output =
                    PartitionerOutput::compute(self.algorithm, &input, self.k, self.seed ^ epoch);
                out.emit(
                    "parts",
                    Msg::PartitionerParts {
                        epoch,
                        partitioner: self.task,
                        output: Arc::new(output),
                        snapshot: Arc::new(snapshot),
                    },
                );
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Merger
// ---------------------------------------------------------------------------

/// One Partitioner's contribution to an epoch: its output and its window
/// snapshot (for reference-quality evaluation).
type PartitionerContribution = (Arc<PartitionerOutput>, Arc<Vec<TagSetStat>>);

/// Combines `P` Partitioner outputs per epoch and answers Single Additions
/// (§6.2, §7.1).
pub struct MergerBolt {
    merger: Merger,
    expected: usize,
    sn_load_hint: u64,
    /// §7.3 elastic scaling: target window documents per active Calculator
    /// (`None` = always use all `k`).
    elastic_docs_per_calc: Option<u64>,
    pending: FxHashMap<u64, Vec<PartitionerContribution>>,
    merged_epochs: u64,
    recorder: SharedRecorder,
}

impl MergerBolt {
    /// Merger expecting `expected` Partitioner contributions per epoch.
    pub fn new(
        algorithm: AlgorithmKind,
        k: usize,
        expected: usize,
        sn_load_hint: u64,
        recorder: SharedRecorder,
    ) -> Self {
        MergerBolt {
            merger: Merger::new(algorithm, k),
            expected,
            sn_load_hint,
            elastic_docs_per_calc: None,
            pending: FxHashMap::default(),
            merged_epochs: 0,
            recorder,
        }
    }

    /// Enable §7.3 elastic scaling: size the active partition count to
    /// roughly `docs` window documents per Calculator.
    pub fn with_elastic(mut self, docs: Option<u64>) -> Self {
        self.elastic_docs_per_calc = docs;
        self
    }
}

impl Bolt<Msg> for MergerBolt {
    fn on_message(&mut self, msg: Msg, out: &mut dyn Emitter<Msg>) {
        match msg {
            Msg::PartitionerParts {
                epoch,
                output,
                snapshot,
                ..
            } => {
                let batch = self.pending.entry(epoch).or_default();
                batch.push((output, snapshot));
                if batch.len() < self.expected {
                    return;
                }
                let batch = self.pending.remove(&epoch).expect("just inserted");
                let mut stats: Vec<TagSetStat> = Vec::new();
                let mut outputs: Vec<PartitionerOutput> = Vec::with_capacity(batch.len());
                for (output, snapshot) in batch {
                    stats.extend(snapshot.iter().cloned());
                    outputs.push((*output).clone());
                }
                let window = PartitionInput::from_stats(stats);
                let outcome = match self.elastic_docs_per_calc {
                    Some(target) if target > 0 => {
                        let k_active = window.total_docs.div_ceil(target).max(1) as usize;
                        self.merger.merge_with_k(outputs, &window, k_active)
                    }
                    _ => self.merger.merge(outputs, &window),
                };
                self.merged_epochs += 1;
                let mut partitions = outcome.partitions;
                // Graceful degradation: a permanently failed Calculator must
                // never be assigned tags again — clear its partition so the
                // Disseminator's coverage check routes its tagsets elsewhere
                // (or honestly counts them unrouted when nobody else covers
                // them), instead of notifying a tombstone.
                let dead = {
                    let mut rec = self.recorder.lock();
                    rec.merges += 1;
                    rec.degraded_calcs().clone()
                };
                for task in dead {
                    if let Some(part) = partitions.parts.get_mut(task) {
                        part.tags.clear();
                        part.load = 0;
                    }
                }
                out.emit(
                    "partitions",
                    Msg::NewPartitions {
                        epoch,
                        partitions: Arc::new(partitions),
                        reference: outcome.reference,
                    },
                );
            }
            Msg::AdditionRequest { tags } => {
                if let Some(calc) = self.merger.single_addition(&tags, self.sn_load_hint) {
                    self.recorder.lock().single_additions += 1;
                    out.emit("additions", Msg::AdditionResponse { tags, calc });
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Disseminator
// ---------------------------------------------------------------------------

/// Local (unlocked) measurement accumulation; flushed at sample boundaries.
#[derive(Default)]
struct Sample {
    notifications: u64,
    routed: u64,
    per_calc: Vec<u64>,
}

/// Routes tagsets to Calculators, monitors quality, drives repartitions and
/// Single Additions (§3.3, §7).
pub struct DisseminatorBolt {
    dissem: Disseminator,
    calc_component: ComponentId,
    /// Next repartition epoch to stamp.
    epoch: u64,
    installed_epoch: Option<u64>,
    bootstrap_after: u64,
    bootstrap_requested: bool,
    seen_tagsets: u64,
    lifetime_routed: u64,
    /// Global document sequence number stamped on notifications.
    doc_seq: u64,
    /// Relay epoch fences to the Calculators on partition installs, so
    /// they hand tracking state to the new owners (live repartitioning).
    live_migration: bool,
    sample_every: u64,
    sample: Sample,
    unrouted: u64,
    /// Stream messages held between the bootstrap repartition request and
    /// the first partition install, replayed in FIFO order once routing is
    /// possible — the control round-trip costs latency, not coverage.
    /// Admission of tagsets stops at [`BOOTSTRAP_BUFFER_CAP`] buffered
    /// messages (further arrivals count as unrouted, the pre-buffering
    /// behaviour); ticks are always admitted so their order relative to
    /// the held tagsets is preserved.
    bootstrap_buffer: std::collections::VecDeque<Msg>,
    /// Per-tuple routing outcome, reused across calls so the notification
    /// and action vectors keep their capacity (zero-allocation hot path).
    route_scratch: setcorr_core::RouteResult,
    /// Per-Calculator notification buffers of the vectorized path: one
    /// whole incoming batch routes into these, then leaves as one
    /// `emit_direct_batch` per touched Calculator.
    notif_batch: Vec<Vec<Msg>>,
    /// How many degraded Calculator tasks this bolt has already reacted to
    /// — the last [`crate::recorder::RunRecorder::degraded_count`] it saw.
    /// Compared at every round close; growth triggers the route-around
    /// repartition (see [`Self::relay_tick`]).
    known_degraded: usize,
    recorder: SharedRecorder,
}

/// Most stream messages the Disseminator will hold while the bootstrap
/// partitions are being computed (the §6.2 control round-trip).
const BOOTSTRAP_BUFFER_CAP: usize = 65_536;

impl DisseminatorBolt {
    /// Disseminator for `k` Calculators living at component `calc_component`.
    ///
    /// `bootstrap_after`: tagsets to observe before requesting the initial
    /// partitions; `sample_every`: routed tagsets per chart sample.
    pub fn new(
        k: usize,
        config: DisseminatorConfig,
        calc_component: ComponentId,
        bootstrap_after: u64,
        sample_every: u64,
        recorder: SharedRecorder,
    ) -> Self {
        DisseminatorBolt {
            dissem: Disseminator::new(k, config),
            calc_component,
            epoch: 1,
            installed_epoch: None,
            bootstrap_after,
            bootstrap_requested: false,
            seen_tagsets: 0,
            lifetime_routed: 0,
            doc_seq: 0,
            live_migration: false,
            sample_every: sample_every.max(1),
            sample: Sample {
                per_calc: vec![0; k],
                ..Default::default()
            },
            unrouted: 0,
            bootstrap_buffer: std::collections::VecDeque::new(),
            route_scratch: setcorr_core::RouteResult::default(),
            notif_batch: (0..k).map(|_| Vec::new()).collect(),
            known_degraded: 0,
            recorder,
        }
    }

    /// Enable live repartitioning: every partition install after the first
    /// is fenced to the Calculators so they migrate state to the new
    /// owners instead of stranding it.
    pub fn with_live_migration(mut self, on: bool) -> Self {
        self.live_migration = on;
        self
    }

    /// Install a partition map before the stream starts, skipping the
    /// bootstrap request/hold/replay phase entirely. With the map pinned
    /// (and `thr` high enough that drift never triggers), routing becomes a
    /// pure function of each tagset — the deterministic anchor the parallel
    /// equivalence suite compares threaded runs against.
    pub fn with_initial_partitions(
        mut self,
        partitions: &PartitionSet,
        reference: QualityReference,
    ) -> Self {
        self.dissem.install_partitions(partitions, reference);
        self.installed_epoch = Some(0);
        self
    }

    fn flush_sample(&mut self) {
        if self.sample.routed == 0 && self.unrouted == 0 {
            return;
        }
        let mut rec = self.recorder.lock();
        rec.total_notifications += self.sample.notifications;
        rec.routed_tagsets += self.sample.routed;
        rec.unrouted_tagsets += self.unrouted;
        for (i, &c) in self.sample.per_calc.iter().enumerate() {
            rec.per_calc_notifications[i] += c;
        }
        if self.sample.routed > 0 {
            let avg = self.sample.notifications as f64 / self.sample.routed as f64;
            rec.comm_series.record(self.lifetime_routed, avg);
            for (i, &c) in self.sample.per_calc.iter().enumerate() {
                let share = c as f64 / self.sample.notifications as f64;
                rec.load_chart
                    .record(&format!("calc-{i}"), self.lifetime_routed, share);
            }
        }
        drop(rec);
        self.sample.notifications = 0;
        self.sample.routed = 0;
        self.sample.per_calc.iter_mut().for_each(|c| *c = 0);
        self.unrouted = 0;
    }
}

impl Bolt<Msg> for DisseminatorBolt {
    fn on_message(&mut self, msg: Msg, out: &mut dyn Emitter<Msg>) {
        match msg {
            Msg::TagSet { time, tags } => {
                self.seen_tagsets += 1;
                if !self.dissem.has_partitions() {
                    if !self.bootstrap_requested && self.seen_tagsets >= self.bootstrap_after {
                        self.bootstrap_requested = true;
                        out.emit(
                            "repart",
                            Msg::RepartitionRequest {
                                epoch: 0,
                                cause: None,
                            },
                        );
                    }
                    // Between the bootstrap request and the first install,
                    // hold the stream instead of wasting it: the control
                    // round-trip costs latency, not coverage. (Pre-request
                    // traffic stays unrouted: there is nothing to wait for.)
                    if self.bootstrap_requested
                        && self.bootstrap_buffer.len() < BOOTSTRAP_BUFFER_CAP
                    {
                        self.bootstrap_buffer.push_back(Msg::TagSet { time, tags });
                    } else {
                        self.unrouted += 1;
                    }
                    return;
                }
                self.route_tagset(tags, out);
            }
            Msg::Tick { round, time } => {
                if self.bootstrap_requested && !self.dissem.has_partitions() {
                    // keep FIFO order with the buffered tagsets (ticks are
                    // rare; the cap applies to tagsets only)
                    self.bootstrap_buffer.push_back(Msg::Tick { round, time });
                    return;
                }
                self.relay_tick(round, time, out);
            }
            Msg::NewPartitions {
                epoch,
                partitions,
                reference,
            } => {
                if self.installed_epoch.is_some_and(|cur| epoch < cur) {
                    return; // stale
                }
                let live = self.installed_epoch.is_some();
                self.installed_epoch = Some(epoch);
                self.dissem.install_partitions(&partitions, reference);
                if self.live_migration {
                    // The fence travels on the same FIFO channels as the
                    // notifications: each Calculator sees exactly the
                    // old-map/new-map split this install applied, and
                    // migrates its per-tag state to the new owners.
                    if live {
                        self.recorder.lock().live_repartitions += 1;
                    }
                    out.emit(
                        "fence",
                        Msg::Fence {
                            epoch,
                            partitions: partitions.clone(),
                        },
                    );
                }
                // Replay the stream held during bootstrap, in FIFO order,
                // under the freshly installed map.
                while let Some(held) = self.bootstrap_buffer.pop_front() {
                    match held {
                        Msg::TagSet { tags, .. } => self.route_tagset(tags, out),
                        Msg::Tick { round, time } => self.relay_tick(round, time, out),
                        _ => unreachable!("only stream messages are buffered"),
                    }
                }
            }
            Msg::AdditionResponse { tags, calc } => {
                self.dissem.apply_single_addition(&tags, calc);
            }
            _ => {}
        }
    }

    /// Vectorized path: a whole batch routes with the reused
    /// [`setcorr_core::RouteResult`], its notifications group per
    /// destination Calculator, and each group leaves as one
    /// [`Emitter::emit_direct_batch`] envelope. Non-tagset messages
    /// (possible only in hand-built batches — the runtimes treat them as
    /// barriers) first flush the groups, so per-Calculator order is
    /// identical to per-tuple delivery.
    fn on_batch(&mut self, mut msgs: Vec<Msg>, out: &mut dyn Emitter<Msg>) {
        for msg in msgs.drain(..) {
            match msg {
                Msg::TagSet { time, tags } => {
                    if self.dissem.has_partitions() {
                        self.route_tagset_inner(tags, out, true);
                    } else {
                        // bootstrap: the per-message path owns the hold/replay
                        self.on_message(Msg::TagSet { time, tags }, out);
                    }
                }
                other => {
                    self.flush_notif_batch(out);
                    self.on_message(other, out);
                }
            }
        }
        self.flush_notif_batch(out);
        out.recycle(msgs);
    }

    fn on_flush(&mut self, out: &mut dyn Emitter<Msg>) {
        // Stream ended before the bootstrap answer: degrade the held
        // tagsets to unrouted and let the held ticks close their rounds.
        while let Some(held) = self.bootstrap_buffer.pop_front() {
            match held {
                Msg::TagSet { .. } => self.unrouted += 1,
                Msg::Tick { round, time } => self.relay_tick(round, time, out),
                _ => {}
            }
        }
        self.flush_sample();
    }
}

impl DisseminatorBolt {
    /// Route one live tagset: the §3.3 per-tuple hot path.
    fn route_tagset(&mut self, tags: TagSet, out: &mut dyn Emitter<Msg>) {
        self.route_tagset_inner(tags, out, false);
    }

    /// Route one tagset, delivering notifications either directly
    /// (`batched = false`) or into the per-Calculator batch buffers
    /// (`batched = true`; [`Self::flush_notif_batch`] sends them). Both
    /// modes produce identical per-Calculator message sequences — only the
    /// envelope granularity differs.
    fn route_tagset_inner(&mut self, tags: TagSet, out: &mut dyn Emitter<Msg>, batched: bool) {
        {
            let doc = self.doc_seq;
            self.doc_seq += 1;
            let result = &mut self.route_scratch;
            self.dissem.route_into(&tags, result);
            if result.notifications.is_empty() {
                self.unrouted += 1;
            } else {
                self.lifetime_routed += 1;
                self.sample.routed += 1;
                self.sample.notifications += result.notifications.len() as u64;
                for (calc, subset) in result.notifications.drain(..) {
                    self.sample.per_calc[calc] += 1;
                    let msg = Msg::Notification { doc, tags: subset };
                    if batched {
                        self.notif_batch[calc].push(msg);
                    } else {
                        out.emit_direct("notifs", self.calc_component, calc, msg);
                    }
                }
                if self.sample.routed >= self.sample_every {
                    self.flush_sample();
                }
            }
            for action in self.route_scratch.actions.drain(..) {
                match action {
                    DisseminatorAction::RequestSingleAddition(ts) => {
                        out.emit("addreq", Msg::AdditionRequest { tags: ts });
                    }
                    DisseminatorAction::RequestRepartition(cause) => {
                        self.recorder
                            .lock()
                            .repartitions
                            .push((self.lifetime_routed, cause));
                        let epoch = self.epoch;
                        self.epoch += 1;
                        out.emit(
                            "repart",
                            Msg::RepartitionRequest {
                                epoch,
                                cause: Some(cause),
                            },
                        );
                    }
                }
            }
        }
    }

    /// Send every non-empty per-Calculator buffer as one batch envelope.
    /// Called at the end of a vectorized batch, and before any non-tagset
    /// message is handled mid-batch, so per-Calculator FIFO order matches
    /// per-tuple delivery exactly.
    fn flush_notif_batch(&mut self, out: &mut dyn Emitter<Msg>) {
        for calc in 0..self.notif_batch.len() {
            if !self.notif_batch[calc].is_empty() {
                let batch = std::mem::take(&mut self.notif_batch[calc]);
                out.emit_direct_batch("notifs", self.calc_component, calc, batch);
            }
        }
    }

    /// Close a report period: flush chart samples and relay the tick
    /// through our Calculator channels so every notification of the round
    /// is delivered first.
    fn relay_tick(&mut self, round: u64, time: Timestamp, out: &mut dyn Emitter<Msg>) {
        self.flush_sample();
        self.check_degraded(out);
        out.emit("calcticks", Msg::Tick { round, time });
    }

    /// Route around Calculators the supervised runtime has permanently
    /// degraded: when the recorder's degraded set shows tasks this bolt has
    /// not reacted to yet, request a fresh repartition. The Merger strips
    /// the dead tasks' partitions from the new map, and the install's fence
    /// migrates the surviving state to live owners via the normal handoff
    /// protocol. Polled at round boundaries — ticks are rare, so the lock
    /// stays off the per-document hot path.
    fn check_degraded(&mut self, out: &mut dyn Emitter<Msg>) {
        let degraded = self.recorder.lock().degraded_count();
        if degraded == self.known_degraded {
            return;
        }
        self.known_degraded = degraded;
        if self.installed_epoch.is_none() {
            return; // bootstrap still in flight; the install will use a fresh set
        }
        let epoch = self.epoch;
        self.epoch += 1;
        out.emit("repart", Msg::RepartitionRequest { epoch, cause: None });
    }
}

// ---------------------------------------------------------------------------
// Calculator
// ---------------------------------------------------------------------------

/// Computes and reports Jaccard coefficients every round (§3.1, §6.2),
/// through a pluggable [`CorrelationBackend`]: the exact subset-counting
/// Calculator or the MinHash/Count-Min approximate backend. Batched and
/// per-message delivery take the same path: each notification goes to the
/// backend as it arrives.
///
/// With live migration enabled, the bolt also speaks the repartition
/// handoff protocol: on each [`Msg::Fence`] it exports its per-tag state,
/// sends each departing piece to the canonical new owner
/// ([`setcorr_core::plan_handoff`]), drops what it no longer owns, and
/// adopts incoming [`Msg::Adopt`] bundles from its peers. One `Adopt` per
/// peer per fence (empty or not) doubles as the barrier marker that lets
/// the threaded runtime drain migrations cleanly at shutdown
/// ([`setcorr_engine::Bolt::drained`]).
pub struct CalculatorBolt {
    id: usize,
    calc: Box<dyn CorrelationBackend>,
    round: u64,
    /// This component's id (peer-to-peer adopt routing) and task count.
    component: ComponentId,
    k: usize,
    live_migration: bool,
    /// The partition map of the last fence (`None` before the first).
    partitions: Option<Arc<PartitionSet>>,
    /// Epoch of the last fence processed (fences arrive in epoch order).
    fenced_epoch: Option<u64>,
    fences: u64,
    /// Adopts applied and counted toward the barrier — only ever adopts
    /// for epochs this task has fenced.
    adopts: u64,
    /// Adopts that raced ahead of their fence on the control channel
    /// (`epoch` > [`Self::fenced_epoch`]): applying them early would merge
    /// another epoch's pre-fence state into the current round and let the
    /// barrier close on the wrong epoch's markers, so they wait here until
    /// their fence arrives.
    early_adopts: Vec<(u64, Arc<MigrationBundle>)>,
    /// Data messages buffered while the migration barrier is open (adopts
    /// owed for a processed fence have not all arrived yet). Processing
    /// them only after the barrier closes keeps every round's evidence
    /// complete — the migrated pre-fence state lands before the tick that
    /// reports it.
    pending: std::collections::VecDeque<Msg>,
    recorder: Option<SharedRecorder>,
    /// Deterministic poison-lock faults `(after, fired)`: after observing
    /// `after` notifications, take the recorder lock and panic while
    /// holding it (exercising the lock shim's poison absorption end to
    /// end). `fired` is a one-shot latch shared across incarnations: the
    /// bolt factory re-applies [`Self::with_poison`] with the same flag on
    /// restart, so each fault fires once per run, not once per rebuilt
    /// instance.
    poisons: Vec<(u64, Arc<std::sync::atomic::AtomicBool>)>,
    /// Notifications observed by *this* incarnation (poison trigger clock).
    notifications_seen: u64,
}

impl CalculatorBolt {
    /// Calculator task `id` with the exact backend (no live migration).
    pub fn new(id: usize) -> Self {
        Self::with_backend(id, Box::new(Calculator::new()))
    }

    /// Calculator task `id` running an arbitrary correlation backend.
    pub fn with_backend(id: usize, backend: Box<dyn CorrelationBackend>) -> Self {
        CalculatorBolt {
            id,
            calc: backend,
            round: 0,
            component: 0,
            k: 1,
            live_migration: false,
            partitions: None,
            fenced_epoch: None,
            fences: 0,
            adopts: 0,
            early_adopts: Vec::new(),
            pending: std::collections::VecDeque::new(),
            recorder: None,
            poisons: Vec::new(),
            notifications_seen: 0,
        }
    }

    /// Enable the live-migration protocol: this task lives at `component`
    /// among `k` Calculator tasks, and reports migrated state volume into
    /// `recorder`.
    pub fn with_migration(
        mut self,
        component: ComponentId,
        k: usize,
        recorder: SharedRecorder,
    ) -> Self {
        self.component = component;
        self.k = k;
        self.live_migration = true;
        self.recorder = Some(recorder);
        self
    }

    /// Deterministic fault injection: after `after_notifications` observed
    /// notifications, this task takes the recorder lock and panics while
    /// holding it — the "poison a lock mid-update" fault of the supervision
    /// test matrix. `fired` is the run-wide one-shot latch; pass the same
    /// `Arc` from the bolt factory on every (re)build. Each call arms one
    /// more fault.
    pub fn with_poison(
        mut self,
        after_notifications: u64,
        fired: Arc<std::sync::atomic::AtomicBool>,
    ) -> Self {
        self.poisons.push((after_notifications, fired));
        self
    }

    /// Poison-trigger clock: counts an observed notification and, when an
    /// armed fault is due and has not fired in any incarnation, panics
    /// *while holding the recorder lock*. Fires before the notification
    /// reaches the backend, so the checkpoint-and-replay recovery
    /// re-observes it exactly once.
    fn note_notification(&mut self) {
        self.notifications_seen += 1;
        for (after, fired) in &self.poisons {
            if self.notifications_seen >= *after
                && !fired.swap(true, std::sync::atomic::Ordering::SeqCst)
            {
                let _guard = self.recorder.as_ref().map(|r| r.lock());
                std::panic::panic_any(format!(
                    "injected fault: poison-lock (calculator {})",
                    self.id
                ));
            }
        }
    }

    /// Handle one epoch fence: hand departing state to its new owners,
    /// then drop it locally. Every peer gets exactly one `Adopt` (empty
    /// bundles included) so the barrier accounting stays exact.
    fn on_fence(&mut self, epoch: u64, new: Arc<PartitionSet>, out: &mut dyn Emitter<Msg>) {
        if !self.live_migration {
            self.partitions = Some(new);
            return;
        }
        self.fences += 1;
        // first install: nothing was ever routed to us, nothing to move
        let plan = match self.partitions.as_deref() {
            Some(old) => plan_handoff(self.id, old, &new, &self.calc.export_state()),
            None => Vec::new(),
        };
        let mut per_peer: Vec<Option<MigrationBundle>> = (0..self.k).map(|_| None).collect();
        for (target, bundle) in plan {
            per_peer[target] = Some(bundle);
        }
        // peers owed no state still get an (empty, shared) barrier marker
        let empty = Arc::new(MigrationBundle::default());
        let mut moved = 0u64;
        for (peer, slot) in per_peer.into_iter().enumerate() {
            if peer == self.id {
                continue;
            }
            let bundle = match slot {
                Some(b) => Arc::new(b),
                None => empty.clone(),
            };
            moved += bundle.units();
            out.emit_direct(
                "adopt",
                self.component,
                peer,
                Msg::Adopt {
                    epoch,
                    from: self.id,
                    bundle,
                },
            );
        }
        if moved > 0 {
            if let Some(recorder) = &self.recorder {
                recorder.lock().migrated_units += moved;
            }
        }
        let keep = new
            .parts
            .get(self.id)
            .map(|p| p.tags.clone())
            .unwrap_or_default();
        self.calc.retain_tags(&keep);
        self.partitions = Some(new);
        self.fenced_epoch = Some(epoch);
        // Adopts that raced ahead of this fence become applicable now.
        let mut i = 0;
        while i < self.early_adopts.len() {
            if self.early_adopts[i].0 <= epoch {
                let (_, bundle) = self.early_adopts.swap_remove(i);
                self.adopts += 1;
                self.calc.adopt_state(&bundle);
            } else {
                i += 1;
            }
        }
    }

    /// True while this task owes its barrier incoming `Adopt`s for a fence
    /// it has processed — data messages are buffered until then.
    fn awaiting_adopts(&self) -> bool {
        self.adopts < self.fences * self.k.saturating_sub(1) as u64
    }

    /// Process one data-stream message (notification, tick, or fence).
    fn handle_data(&mut self, msg: Msg, out: &mut dyn Emitter<Msg>) {
        match msg {
            Msg::Notification { doc, tags } => {
                self.note_notification();
                self.calc.observe_doc(doc, &tags)
            }
            Msg::Fence { epoch, partitions } => self.on_fence(epoch, partitions, out),
            Msg::Tick { round, .. } => {
                let reports = self.calc.report_and_reset();
                out.emit(
                    "coeffs",
                    Msg::CalcReport {
                        round,
                        calc: self.id,
                        reports: Arc::new(reports),
                    },
                );
                self.round = round + 1;
            }
            _ => {}
        }
    }

    /// Replay buffered data messages until another fence re-opens the
    /// barrier (or the buffer empties).
    fn drain_pending(&mut self, out: &mut dyn Emitter<Msg>) {
        while !self.awaiting_adopts() {
            let Some(msg) = self.pending.pop_front() else {
                return;
            };
            self.handle_data(msg, out);
        }
    }
}

/// A Calculator's round-fence checkpoint: the migration-bundle export of
/// its backend (the same wire format live repartitioning hands between
/// peers) plus the protocol counters that position it in the fence/adopt
/// barrier. Captured by the supervised runtime after every barrier message
/// (ticks, fences, adopts); restoring is `adopt_state` into a fresh backend
/// — additive counters, min-merged signatures — plus a field-for-field
/// counter restore.
struct CalcCheckpoint {
    state: MigrationBundle,
    round: u64,
    partitions: Option<Arc<PartitionSet>>,
    fenced_epoch: Option<u64>,
    fences: u64,
    adopts: u64,
    early_adopts: Vec<(u64, Arc<MigrationBundle>)>,
    pending: std::collections::VecDeque<Msg>,
}

impl Bolt<Msg> for CalculatorBolt {
    fn on_message(&mut self, msg: Msg, out: &mut dyn Emitter<Msg>) {
        match msg {
            Msg::Adopt { epoch, bundle, .. } => {
                if self.fenced_epoch.is_some_and(|fenced| epoch <= fenced) {
                    self.adopts += 1;
                    self.calc.adopt_state(&bundle);
                    self.drain_pending(out);
                } else {
                    // ahead of our own fence for that epoch — hold it
                    self.early_adopts.push((epoch, bundle));
                }
            }
            data => {
                if self.awaiting_adopts() {
                    // the migration barrier: hold the stream until every
                    // peer's pre-fence state has arrived, so no round is
                    // reported with half its evidence
                    if let Some(recorder) = &self.recorder {
                        recorder.lock().stalled_tuples += 1;
                    }
                    self.pending.push_back(data);
                } else {
                    self.handle_data(data, out);
                }
            }
        }
    }

    fn on_flush(&mut self, out: &mut dyn Emitter<Msg>) {
        // Safety net: anything the final tick did not flush.
        if self.calc.tracked() > 0 {
            let reports = self.calc.report_and_reset();
            out.emit(
                "coeffs",
                Msg::CalcReport {
                    round: self.round,
                    calc: self.id,
                    reports: Arc::new(reports),
                },
            );
        }
    }

    fn drained(&self) -> bool {
        // One Adopt per peer per fence: every fence precedes our Eos on the
        // data channel, and every peer processes its copy of that fence
        // before its own Eos, so the owed messages are always in flight.
        // When the barrier closes, `drain_pending` has already replayed
        // every buffered message, so a drained task has nothing pending.
        !self.awaiting_adopts()
    }

    fn checkpoint(&self) -> Option<Box<dyn std::any::Any + Send>> {
        Some(Box::new(CalcCheckpoint {
            state: self.calc.export_state(),
            round: self.round,
            partitions: self.partitions.clone(),
            fenced_epoch: self.fenced_epoch,
            fences: self.fences,
            adopts: self.adopts,
            early_adopts: self.early_adopts.clone(),
            pending: self.pending.clone(),
        }))
    }

    fn restore(&mut self, cp: &dyn std::any::Any) {
        let Some(cp) = cp.downcast_ref::<CalcCheckpoint>() else {
            return;
        };
        // The factory built this instance fresh, so adopting into the empty
        // backend reproduces the checkpointed state exactly (counters are
        // additive, signatures min-merge idempotently).
        self.calc.adopt_state(&cp.state);
        self.round = cp.round;
        self.partitions = cp.partitions.clone();
        self.fenced_epoch = cp.fenced_epoch;
        self.fences = cp.fences;
        self.adopts = cp.adopts;
        self.early_adopts = cp.early_adopts.clone();
        self.pending = cp.pending.clone();
    }

    /// Calculators emit only at barriers (reports at ticks, adopts at
    /// fences) and checkpoints are captured right after each barrier, so
    /// replaying the messages since the last checkpoint re-emits nothing
    /// already sent — the definition of replay-safety.
    fn replayable(&self) -> bool {
        true
    }

    fn tombstone(&self) -> Option<Box<dyn Bolt<Msg>>> {
        Some(Box::new(DegradedCalculator {
            id: self.id,
            component: self.component,
            k: self.k,
            live_migration: self.live_migration,
            // Ticks and fences this task took off its inbox but never
            // answered (stalled behind a barrier that will not close now):
            // the Tracker and the peers are still waiting on each of them.
            unanswered: self
                .pending
                .iter()
                .filter(|m| matches!(m, Msg::Tick { .. } | Msg::Fence { .. }))
                .cloned()
                .collect(),
        }))
    }
}

/// Stand-in the supervised runtime installs when a Calculator exhausts its
/// restart budget (graceful degradation). It tracks nothing, but keeps both
/// cross-task protocols live so the rest of the topology finishes
/// partial-but-honest instead of wedging:
///
/// * every tick still produces an (empty) [`Msg::CalcReport`], so the
///   Tracker's `k`-way fan-in keeps closing rounds,
/// * every fence still sends one empty [`Msg::Adopt`] per peer, so the
///   surviving Calculators' migration barriers keep closing.
///
/// That includes the ticks and fences the dead task had already consumed
/// and left stalled behind its migration barrier (`unanswered`): they are
/// answered first, at the stand-in's next callback or final flush. Without
/// that, a fence queued behind a barrier wedged by a lost `Adopt` would
/// never be answered, every peer would starve on it in turn, and no round
/// after it would close.
///
/// Notifications and incoming adopts are dropped — their evidence is lost,
/// which the run report discloses via its degraded-component counters.
struct DegradedCalculator {
    id: usize,
    component: ComponentId,
    k: usize,
    live_migration: bool,
    unanswered: Vec<Msg>,
}

impl DegradedCalculator {
    fn answer_unanswered(&mut self, out: &mut dyn Emitter<Msg>) {
        for msg in std::mem::take(&mut self.unanswered) {
            self.answer(msg, out);
        }
    }

    fn answer(&mut self, msg: Msg, out: &mut dyn Emitter<Msg>) {
        match msg {
            Msg::Tick { round, .. } => out.emit(
                "coeffs",
                Msg::CalcReport {
                    round,
                    calc: self.id,
                    reports: Arc::new(Vec::new()),
                },
            ),
            Msg::Fence { epoch, .. } if self.live_migration => {
                let empty = Arc::new(MigrationBundle::default());
                for peer in 0..self.k {
                    if peer == self.id {
                        continue;
                    }
                    out.emit_direct(
                        "adopt",
                        self.component,
                        peer,
                        Msg::Adopt {
                            epoch,
                            from: self.id,
                            bundle: empty.clone(),
                        },
                    );
                }
            }
            _ => {}
        }
    }
}

impl Bolt<Msg> for DegradedCalculator {
    fn on_message(&mut self, msg: Msg, out: &mut dyn Emitter<Msg>) {
        self.answer_unanswered(out);
        self.answer(msg, out);
    }

    fn on_flush(&mut self, out: &mut dyn Emitter<Msg>) {
        self.answer_unanswered(out);
    }
}

// ---------------------------------------------------------------------------
// Tracker
// ---------------------------------------------------------------------------

/// Deduplicates replicated coefficients per round (§6.2), writes closed
/// rounds into the recorder, and — when a serving [`Publisher`] is attached
/// — publishes each closed round as a live snapshot.
///
/// Publication happens only at `finalize`, i.e. once all `k` Calculators
/// reported the round (per-Calculator channels are FIFO, so round `r`
/// completes before `r + 1` starts arriving) — a half-round can never
/// become visible, including rounds closed across a migration fence.
pub struct TrackerBolt {
    tracker: Tracker,
    k: usize,
    received: FxHashMap<u64, usize>,
    recorder: SharedRecorder,
    publisher: Option<Publisher>,
}

impl TrackerBolt {
    /// Tracker expecting reports from `k` Calculators per round.
    pub fn new(k: usize, recorder: SharedRecorder) -> Self {
        TrackerBolt {
            tracker: Tracker::new(),
            k,
            received: FxHashMap::default(),
            recorder,
            publisher: None,
        }
    }

    /// This tracker, publishing every closed round to the serving layer.
    pub fn with_publisher(mut self, publisher: Publisher) -> Self {
        self.publisher = Some(publisher);
        self
    }

    fn finalize(&mut self, round: u64) {
        let coeffs = Arc::new(self.tracker.finish_round(round));
        if let Some(publisher) = &self.publisher {
            publisher.publish(round, coeffs.clone());
        }
        self.recorder.lock().tracked_rounds.insert(round, coeffs);
    }
}

impl Bolt<Msg> for TrackerBolt {
    fn on_message(&mut self, msg: Msg, _out: &mut dyn Emitter<Msg>) {
        let Msg::CalcReport { round, reports, .. } = msg else {
            return;
        };
        // one Calculator's round is one sorted run: the Tracker keeps the
        // vector itself and merges the k runs when the round closes
        self.tracker.observe_shared(round, reports);
        let seen = self.received.entry(round).or_insert(0);
        *seen += 1;
        if *seen == self.k {
            self.received.remove(&round);
            self.finalize(round);
        }
    }

    fn on_flush(&mut self, _out: &mut dyn Emitter<Msg>) {
        for round in self.tracker.open_round_keys() {
            self.finalize(round);
        }
        self.received.clear();
    }
}

// ---------------------------------------------------------------------------
// Centralized baseline
// ---------------------------------------------------------------------------

/// The centralized exact computation the paper compares against (§8.2.3):
/// one Calculator seeing every tagset.
///
/// Per round it reports the exact Jaccard coefficient of every *input
/// tagset* (full document annotation set) of ≥ 2 tags observed in the round,
/// and accumulates whole-run occurrence counts — §8.2.3 evaluates coverage
/// and error over the tagsets "seen more than 3 times in the input" (these
/// are the tagsets the Single-Addition mechanism is responsible for).
pub struct BaselineBolt {
    calc: Calculator,
    /// Occurrences of each *full* input tagset this round.
    round_occurrences: FxHashMap<TagSet, u64>,
    /// Occurrences across the whole run (≥ 2 tags only).
    run_occurrences: FxHashMap<TagSet, u64>,
    recorder: SharedRecorder,
}

impl BaselineBolt {
    /// Baseline writing exact rounds into `recorder`.
    pub fn new(recorder: SharedRecorder) -> Self {
        BaselineBolt {
            calc: Calculator::new(),
            round_occurrences: FxHashMap::default(),
            run_occurrences: FxHashMap::default(),
            recorder,
        }
    }

    fn observe_tagset(&mut self, tags: TagSet) {
        if tags.len() >= 2 {
            *self.round_occurrences.entry(tags.clone()).or_insert(0) += 1;
            *self.run_occurrences.entry(tags.clone()).or_insert(0) += 1;
        }
        self.calc.observe(&tags);
    }

    /// Report and reset the round's exact coefficients.
    fn close_round(&mut self, round: u64) {
        let mut reports: Vec<setcorr_core::CoefficientReport> = Vec::new();
        for (tags, &n) in &self.round_occurrences {
            let jaccard = self
                .calc
                .jaccard(tags)
                .expect("observed tagsets have coefficients");
            reports.push(setcorr_core::CoefficientReport {
                tags: tags.clone(),
                jaccard,
                counter: n,
            });
        }
        reports.sort_unstable_by(|a, b| a.tags.cmp(&b.tags));
        self.recorder.lock().baseline_rounds.insert(round, reports);
        // the round's coefficients were just queried directly —
        // clear the counters without deriving a report for every
        // tracked subset only to discard it
        self.calc.reset();
        self.round_occurrences.clear();
    }
}

impl Bolt<Msg> for BaselineBolt {
    fn on_message(&mut self, msg: Msg, _out: &mut dyn Emitter<Msg>) {
        match msg {
            Msg::TagSet { tags, .. } => self.observe_tagset(tags),
            Msg::Tick { round, .. } => self.close_round(round),
            _ => {}
        }
    }

    fn on_flush(&mut self, _out: &mut dyn Emitter<Msg>) {
        let mut rec = self.recorder.lock();
        for (tags, n) in self.run_occurrences.drain() {
            *rec.baseline_occurrences.entry(tags).or_insert(0) += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::RunRecorder;
    use setcorr_model::TagSet;

    /// Minimal emitter capturing emissions for bolt unit tests.
    #[derive(Default)]
    struct Capture {
        emitted: Vec<(&'static str, Msg)>,
        direct: Vec<(&'static str, ComponentId, usize, Msg)>,
    }

    impl Emitter<Msg> for Capture {
        fn emit(&mut self, stream: &'static str, msg: Msg) {
            self.emitted.push((stream, msg));
        }
        fn emit_direct(&mut self, stream: &'static str, to: ComponentId, task: usize, msg: Msg) {
            self.direct.push((stream, to, task, msg));
        }
    }

    fn ts(ids: &[u32]) -> TagSet {
        TagSet::from_ids(ids)
    }

    #[test]
    fn parser_cuts_rounds_and_extracts_tagsets() {
        let mut parser = ParserBolt::new(TimeDelta::from_secs(10));
        let mut cap = Capture::default();
        parser.on_message(
            Msg::Doc(setcorr_model::Document::new(0, Timestamp(0), ts(&[1]))),
            &mut cap,
        );
        parser.on_message(
            Msg::Doc(setcorr_model::Document::new(
                1,
                Timestamp(25_000),
                TagSet::empty(),
            )),
            &mut cap,
        );
        // two rounds closed by the jump to 25 s, tagset emitted only for doc 0
        let ticks: Vec<u64> = cap
            .emitted
            .iter()
            .filter_map(|(s, m)| match m {
                Msg::Tick { round, .. } if *s == "ticks" => Some(*round),
                _ => None,
            })
            .collect();
        assert_eq!(ticks, vec![0, 1]);
        let tagsets = cap.emitted.iter().filter(|(s, _)| *s == "tagsets").count();
        assert_eq!(tagsets, 1);
        parser.on_flush(&mut cap);
        let ticks = cap
            .emitted
            .iter()
            .filter(|(s, m)| *s == "ticks" && matches!(m, Msg::Tick { round: 2, .. }))
            .count();
        assert_eq!(ticks, 1, "flush closes the partial round");
    }

    #[test]
    fn partitioner_answers_repartition_requests() {
        let mut p = PartitionerBolt::new(0, AlgorithmKind::Ds, 2, WindowKind::Count(100), 7);
        let mut cap = Capture::default();
        p.on_message(
            Msg::TagSet {
                time: Timestamp(0),
                tags: ts(&[1, 2]),
            },
            &mut cap,
        );
        p.on_message(
            Msg::RepartitionRequest {
                epoch: 3,
                cause: None,
            },
            &mut cap,
        );
        assert_eq!(cap.emitted.len(), 1);
        match &cap.emitted[0] {
            (
                "parts",
                Msg::PartitionerParts {
                    epoch,
                    output,
                    snapshot,
                    ..
                },
            ) => {
                assert_eq!(*epoch, 3);
                assert_eq!(snapshot.len(), 1);
                match &**output {
                    PartitionerOutput::DisjointSets(sets) => assert_eq!(sets.len(), 1),
                    _ => panic!("DS must emit disjoint sets"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn merger_waits_for_all_partitioners() {
        let recorder = RunRecorder::shared(2);
        let mut m = MergerBolt::new(AlgorithmKind::Ds, 2, 2, 3, recorder.clone());
        let mut cap = Capture::default();
        let part = |task: usize, ids: &[u32]| Msg::PartitionerParts {
            epoch: 0,
            partitioner: task,
            output: Arc::new(PartitionerOutput::DisjointSets(vec![
                setcorr_core::WeightedTagList {
                    tags: ids.iter().map(|&i| setcorr_model::Tag(i)).collect(),
                    load: 1,
                },
            ])),
            snapshot: Arc::new(vec![TagSetStat {
                tags: ts(ids),
                count: 1,
            }]),
        };
        m.on_message(part(0, &[1, 2]), &mut cap);
        assert!(cap.emitted.is_empty(), "must wait for P outputs");
        m.on_message(part(1, &[3]), &mut cap);
        assert_eq!(cap.emitted.len(), 1);
        assert!(matches!(
            cap.emitted[0].1,
            Msg::NewPartitions { epoch: 0, .. }
        ));
        assert_eq!(recorder.lock().merges, 1);
    }

    #[test]
    fn merger_strips_exactly_the_degraded_calculators_partition_beyond_task_63() {
        // 66 disjoint singleton sets over k = 66: every partition gets one.
        let k = 66;
        let recorder = RunRecorder::shared(k);
        recorder.lock().mark_degraded(65);
        let mut m = MergerBolt::new(AlgorithmKind::Ds, k, 1, 3, recorder);
        let mut cap = Capture::default();
        let ids: Vec<u32> = (1..=k as u32).collect();
        m.on_message(
            Msg::PartitionerParts {
                epoch: 0,
                partitioner: 0,
                output: Arc::new(PartitionerOutput::DisjointSets(
                    ids.iter()
                        .map(|&i| setcorr_core::WeightedTagList {
                            tags: vec![setcorr_model::Tag(i)],
                            load: 1,
                        })
                        .collect(),
                )),
                snapshot: Arc::new(
                    ids.iter()
                        .map(|&i| TagSetStat {
                            tags: ts(&[i]),
                            count: 1,
                        })
                        .collect(),
                ),
            },
            &mut cap,
        );
        let Msg::NewPartitions { partitions, .. } = &cap.emitted[0].1 else {
            panic!("expected NewPartitions");
        };
        assert!(partitions.parts[65].tags.is_empty(), "dead task stripped");
        assert_eq!(partitions.parts[65].load, 0);
        for live in (0..k).filter(|&i| i != 65) {
            assert!(
                !partitions.parts[live].tags.is_empty(),
                "live calculator {live} must keep its partition"
            );
        }
    }

    #[test]
    fn disseminator_bootstraps_and_routes() {
        let recorder = RunRecorder::shared(2);
        let mut d = DisseminatorBolt::new(
            2,
            DisseminatorConfig::default(),
            9, // calc component id
            2, // bootstrap after 2 tagsets
            1_000,
            recorder.clone(),
        );
        let mut cap = Capture::default();
        let send = |d: &mut DisseminatorBolt, cap: &mut Capture, ids: &[u32]| {
            d.on_message(
                Msg::TagSet {
                    time: Timestamp(0),
                    tags: ts(ids),
                },
                cap,
            );
        };
        send(&mut d, &mut cap, &[1, 2]);
        assert!(cap.emitted.is_empty(), "below bootstrap threshold");
        send(&mut d, &mut cap, &[1, 2]);
        assert!(
            matches!(cap.emitted[0].1, Msg::RepartitionRequest { epoch: 0, .. }),
            "bootstrap request"
        );
        assert!(
            cap.direct.is_empty(),
            "the requesting tagset is held, not routed"
        );
        // install partitions: calc0 ← {1,2}, calc1 ← {3}
        let mut ps = setcorr_core::PartitionSet::empty(2);
        ps.parts[0].absorb(&ts(&[1, 2]), 1);
        ps.parts[1].absorb(&ts(&[3]), 1);
        d.on_message(
            Msg::NewPartitions {
                epoch: 0,
                partitions: Arc::new(ps),
                reference: setcorr_core::QualityReference {
                    avg_com: 1.0,
                    max_load: 1.0,
                },
            },
            &mut cap,
        );
        // the install replays the held tagset under the fresh map
        assert_eq!(cap.direct.len(), 1, "held tagset routed at install");
        send(&mut d, &mut cap, &[1, 2]);
        assert_eq!(cap.direct.len(), 2);
        for (stream, to, task, msg) in &cap.direct {
            assert_eq!((*stream, *to, *task), ("notifs", 9, 0));
            assert!(matches!(msg, Msg::Notification { .. }));
        }
        d.on_flush(&mut cap);
        assert_eq!(recorder.lock().routed_tagsets, 2);
        assert_eq!(
            recorder.lock().unrouted_tagsets,
            1,
            "only pre-request traffic is wasted"
        );
    }

    #[test]
    fn calculator_reports_on_tick() {
        let mut c = CalculatorBolt::new(1);
        let mut cap = Capture::default();
        c.on_message(
            Msg::Notification {
                doc: 0,
                tags: ts(&[1, 2]),
            },
            &mut cap,
        );
        c.on_message(
            Msg::Tick {
                round: 0,
                time: Timestamp(1000),
            },
            &mut cap,
        );
        assert_eq!(cap.emitted.len(), 1);
        match &cap.emitted[0].1 {
            Msg::CalcReport {
                round,
                calc,
                reports,
            } => {
                assert_eq!((*round, *calc), (0, 1));
                assert_eq!(reports.len(), 1);
                assert_eq!(reports[0].jaccard, 1.0);
            }
            other => panic!("unexpected {other:?}"),
        }
        // counters cleared: flush emits nothing
        c.on_flush(&mut cap);
        assert_eq!(cap.emitted.len(), 1);
    }

    #[test]
    fn every_poison_armed_on_one_calculator_fires_once() {
        // Rebuilt after each panic with the same latches, as the bolt
        // factory does on a restart: both faults fire, neither twice.
        let latches: [Arc<std::sync::atomic::AtomicBool>; 2] = Default::default();
        let incarnations_that_panicked = (0..4)
            .filter(|_| {
                let mut calc = CalculatorBolt::new(0)
                    .with_poison(3, latches[0].clone())
                    .with_poison(5, latches[1].clone());
                let feed = || {
                    for doc in 0..10 {
                        let msg = Msg::Notification {
                            doc,
                            tags: ts(&[1, 2]),
                        };
                        calc.on_message(msg, &mut Capture::default());
                    }
                };
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(feed)).is_err()
            })
            .count();
        assert_eq!(incarnations_that_panicked, 2);
    }

    #[test]
    fn calculator_fence_hands_state_to_the_new_owner() {
        let recorder = RunRecorder::shared(2);
        let mut donor = CalculatorBolt::new(0).with_migration(9, 2, recorder.clone());
        let mut heir = CalculatorBolt::new(1).with_migration(9, 2, recorder.clone());
        let mut cap = Capture::default();

        let map = |spec: &[&[u32]]| {
            let mut ps = setcorr_core::PartitionSet::empty(2);
            for (i, ids) in spec.iter().enumerate() {
                ps.parts[i].absorb(&ts(ids), 0);
            }
            Arc::new(ps)
        };
        let fence = |epoch, ps: &Arc<setcorr_core::PartitionSet>| Msg::Fence {
            epoch,
            partitions: ps.clone(),
        };

        // epoch 0: donor owns {1,2}; nothing to migrate on the first map
        let first = map(&[&[1, 2], &[3]]);
        donor.on_message(fence(0, &first), &mut cap);
        heir.on_message(fence(0, &first), &mut cap);
        // both sent one (empty) Adopt to their single peer, and each still
        // owes its barrier one incoming Adopt
        assert_eq!(cap.direct.len(), 2);
        assert!(!donor.drained() && !heir.drained());
        let inflight: Vec<(&'static str, ComponentId, usize, Msg)> = cap.direct.drain(..).collect();
        for (_, _, task, msg) in inflight {
            if task == 0 {
                donor.on_message(msg, &mut cap);
            } else {
                heir.on_message(msg, &mut cap);
            }
        }
        assert!(donor.drained() && heir.drained());

        // three documents routed to the donor under the old map
        for doc in 0..3u64 {
            donor.on_message(
                Msg::Notification {
                    doc,
                    tags: ts(&[1, 2]),
                },
                &mut cap,
            );
        }

        // epoch 1: ownership of {1,2} moves to the heir
        cap.direct.clear();
        let second = map(&[&[3], &[1, 2]]);
        donor.on_message(fence(1, &second), &mut cap);
        let (stream, to, task, msg) = cap.direct.remove(0);
        assert_eq!((stream, to, task), ("adopt", 9, 1));
        let Msg::Adopt {
            epoch,
            from,
            bundle,
        } = msg
        else {
            panic!("expected Adopt");
        };
        assert_eq!((epoch, from), (1, 0));
        assert_eq!(bundle.counters.len(), 3, "{{1}}, {{2}}, {{1,2}}");
        assert!(recorder.lock().migrated_units >= 3);

        // the heir adopts, then reports the migrated coefficient at a tick;
        // its own fence answer (an empty Adopt back to the donor) closes
        // the donor's barrier
        heir.on_message(fence(1, &second), &mut cap);
        let heir_reply = cap.direct.pop().expect("heir answers the fence").3;
        heir.on_message(
            Msg::Adopt {
                epoch,
                from,
                bundle,
            },
            &mut cap,
        );
        assert!(heir.drained(), "one adopt per fence received");
        assert!(!donor.drained(), "donor still owes its barrier an adopt");
        donor.on_message(heir_reply, &mut cap);
        assert!(donor.drained());
        cap.emitted.clear();
        heir.on_message(
            Msg::Tick {
                round: 0,
                time: Timestamp(1),
            },
            &mut cap,
        );
        let Msg::CalcReport { reports, .. } = &cap.emitted[0].1 else {
            panic!("expected CalcReport");
        };
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].tags, ts(&[1, 2]));
        assert_eq!(reports[0].counter, 3, "migrated counts intact");

        // the donor no longer holds (or reports) the departed state
        cap.emitted.clear();
        donor.on_message(
            Msg::Tick {
                round: 0,
                time: Timestamp(1),
            },
            &mut cap,
        );
        let Msg::CalcReport { reports, .. } = &cap.emitted[0].1 else {
            panic!("expected CalcReport");
        };
        assert!(reports.is_empty(), "no double reporting after handoff");
    }

    #[test]
    fn adopts_racing_ahead_of_their_fence_wait_for_it() {
        // An Adopt can overtake its fence on the control channel. Applying
        // it early would merge another epoch's pre-fence state into the
        // current round (and let the barrier close on the wrong epoch's
        // markers), so it must be held until this task processes the fence.
        let recorder = RunRecorder::shared(2);
        let mut calc = CalculatorBolt::new(1).with_migration(9, 2, recorder.clone());
        let mut cap = Capture::default();
        calc.on_message(
            Msg::Adopt {
                epoch: 0,
                from: 0,
                bundle: Arc::new(setcorr_core::MigrationBundle {
                    counters: vec![(ts(&[1]), 4), (ts(&[2]), 4), (ts(&[1, 2]), 4)],
                    ..Default::default()
                }),
            },
            &mut cap,
        );
        // not applied yet: a tick now reports nothing from the stash
        calc.on_message(
            Msg::Tick {
                round: 0,
                time: Timestamp(1),
            },
            &mut cap,
        );
        let Msg::CalcReport { reports, .. } = &cap.emitted[0].1 else {
            panic!("expected CalcReport");
        };
        assert!(reports.is_empty(), "stashed state must not leak early");
        // the fence arrives: the stashed adopt applies and closes the barrier
        let mut ps = setcorr_core::PartitionSet::empty(2);
        ps.parts[1].absorb(&ts(&[1, 2]), 0);
        calc.on_message(
            Msg::Fence {
                epoch: 0,
                partitions: Arc::new(ps),
            },
            &mut cap,
        );
        assert!(calc.drained(), "stashed adopt counted once fenced");
        cap.emitted.clear();
        calc.on_message(
            Msg::Tick {
                round: 1,
                time: Timestamp(2),
            },
            &mut cap,
        );
        let Msg::CalcReport { reports, .. } = &cap.emitted[0].1 else {
            panic!("expected CalcReport");
        };
        assert_eq!(reports[0].counter, 4, "adopted after the fence, intact");
    }

    #[test]
    fn migration_barrier_stalls_and_replays_the_stream_in_order() {
        // Between a fence and the owed Adopts, notifications and ticks are
        // buffered (stalled), then replayed in order once the barrier
        // closes — so a round is never reported with half its evidence.
        let recorder = RunRecorder::shared(2);
        let mut calc = CalculatorBolt::new(1).with_migration(9, 2, recorder.clone());
        let mut cap = Capture::default();
        let mut ps = setcorr_core::PartitionSet::empty(2);
        ps.parts[1].absorb(&ts(&[1, 2]), 0);
        calc.on_message(
            Msg::Fence {
                epoch: 0,
                partitions: Arc::new(ps),
            },
            &mut cap,
        );
        // barrier open: stream messages stall
        calc.on_message(
            Msg::Notification {
                doc: 0,
                tags: ts(&[1, 2]),
            },
            &mut cap,
        );
        calc.on_message(
            Msg::Tick {
                round: 0,
                time: Timestamp(1),
            },
            &mut cap,
        );
        assert!(cap.emitted.is_empty(), "tick must wait behind the barrier");
        assert_eq!(recorder.lock().stalled_tuples, 2);
        // peer state arrives: 2 pre-fence sightings of {1,2}
        calc.on_message(
            Msg::Adopt {
                epoch: 0,
                from: 0,
                bundle: Arc::new(setcorr_core::MigrationBundle {
                    counters: vec![(ts(&[1]), 2), (ts(&[2]), 2), (ts(&[1, 2]), 2)],
                    ..Default::default()
                }),
            },
            &mut cap,
        );
        // barrier closed: the stalled notification and tick replayed, and
        // the round reports migrated + live evidence together
        let Msg::CalcReport { reports, .. } = &cap.emitted[0].1 else {
            panic!("expected CalcReport");
        };
        assert_eq!(
            reports[0].counter, 3,
            "2 migrated + 1 stalled-then-replayed"
        );
    }

    #[test]
    fn tombstone_answers_the_ticks_and_fences_stalled_behind_a_wedged_barrier() {
        // The owed Adopt for fence 0 never arrives (lost), so a tick and a
        // second fence stall behind the barrier. When the starvation
        // detector degrades the task, the Tracker still waits on that tick
        // and both peers on that fence's Adopt: the stand-in must answer
        // them — in stream order, before anything new — or the peers starve
        // in turn.
        let recorder = RunRecorder::shared(3);
        let mut calc = CalculatorBolt::new(1).with_migration(9, 3, recorder);
        let mut cap = Capture::default();
        let fence = |epoch| Msg::Fence {
            epoch,
            partitions: Arc::new(setcorr_core::PartitionSet::empty(3)),
        };
        let tick = |round| Msg::Tick {
            round,
            time: Timestamp(1),
        };
        calc.on_message(fence(0), &mut cap);
        cap.direct.clear(); // this task's own answer to fence 0
        calc.on_message(
            Msg::Notification {
                doc: 0,
                tags: ts(&[1, 2]),
            },
            &mut cap,
        );
        calc.on_message(tick(0), &mut cap);
        calc.on_message(fence(1), &mut cap);
        assert!(!calc.drained() && cap.emitted.is_empty() && cap.direct.is_empty());

        let mut stand_in = calc.tombstone().expect("calculators have a tombstone");
        assert!(stand_in.drained(), "the stand-in owes its barrier nothing");
        stand_in.on_message(tick(1), &mut cap);
        stand_in.on_flush(&mut cap);
        let rounds: Vec<u64> = cap
            .emitted
            .iter()
            .map(|(_, m)| match m {
                Msg::CalcReport { round, reports, .. } if reports.is_empty() => *round,
                other => panic!("expected an empty CalcReport, got {other:?}"),
            })
            .collect();
        assert_eq!(
            rounds,
            [0, 1],
            "stalled tick first, then the live one, once"
        );
        let adopts: Vec<(usize, u64)> = cap
            .direct
            .iter()
            .map(|(_, _, peer, m)| match m {
                Msg::Adopt { epoch, from: 1, .. } => (*peer, *epoch),
                other => panic!("expected an Adopt from task 1, got {other:?}"),
            })
            .collect();
        assert_eq!(adopts, [(0, 1), (2, 1)], "one Adopt per peer for fence 1");
    }

    #[test]
    fn parser_on_batch_matches_per_message_across_round_cuts() {
        // A batch of documents straddling two round boundaries: the
        // vectorized parser must emit exactly the per-message stream —
        // every tick in its FIFO position behind the tagsets of the round
        // it closes (Capture's default emit_batch unrolls, so the logs
        // compare 1:1).
        let docs: Vec<Msg> = [
            (1_000, &[1, 2][..]),
            (5_000, &[3]),
            (12_000, &[][..]),
            (25_000, &[4, 5]),
            (26_000, &[6]),
        ]
        .iter()
        .enumerate()
        .map(|(i, &(t, ids))| {
            Msg::Doc(setcorr_model::Document::new(
                i as u64,
                Timestamp(t),
                ts(&ids.iter().map(|&x| x as u32).collect::<Vec<_>>()),
            ))
        })
        .collect();
        let mut per_msg = ParserBolt::new(TimeDelta::from_secs(10));
        let mut cap_msg = Capture::default();
        for d in docs.clone() {
            per_msg.on_message(d, &mut cap_msg);
        }
        let mut batched = ParserBolt::new(TimeDelta::from_secs(10));
        let mut cap_batch = Capture::default();
        batched.on_batch(docs, &mut cap_batch);
        assert_eq!(
            format!("{:?}", cap_msg.emitted),
            format!("{:?}", cap_batch.emitted)
        );
    }

    #[test]
    fn disseminator_on_batch_matches_per_message() {
        let build = || {
            let recorder = RunRecorder::shared(2);
            let mut d = DisseminatorBolt::new(
                2,
                DisseminatorConfig::default(),
                9,
                1,
                1_000,
                recorder.clone(),
            );
            let mut cap = Capture::default();
            let mut ps = setcorr_core::PartitionSet::empty(2);
            ps.parts[0].absorb(&ts(&[1, 2]), 1);
            ps.parts[1].absorb(&ts(&[2, 3]), 1);
            d.on_message(
                Msg::TagSet {
                    time: Timestamp(0),
                    tags: ts(&[1]),
                },
                &mut cap,
            );
            d.on_message(
                Msg::NewPartitions {
                    epoch: 0,
                    partitions: Arc::new(ps),
                    reference: setcorr_core::QualityReference {
                        avg_com: 1.5,
                        max_load: 0.9,
                    },
                },
                &mut cap,
            );
            (d, cap, recorder)
        };
        let tagsets: Vec<Msg> = [&[1, 2][..], &[2], &[3], &[1, 2, 3], &[2, 3], &[9], &[1]]
            .iter()
            .cycle()
            .take(40)
            .map(|ids| Msg::TagSet {
                time: Timestamp(1),
                tags: ts(ids),
            })
            .collect();
        let (mut per_msg, mut cap_msg, rec_msg) = build();
        for m in tagsets.clone() {
            per_msg.on_message(m, &mut cap_msg);
        }
        per_msg.on_flush(&mut cap_msg);
        let (mut batched, mut cap_batch, rec_batch) = build();
        for chunk in tagsets.chunks(7) {
            batched.on_batch(chunk.to_vec(), &mut cap_batch);
        }
        batched.on_flush(&mut cap_batch);
        // per-destination notification sequences are identical (the batch
        // path groups per Calculator; Capture unrolls emit_direct_batch in
        // order, and every tagset routes before the next batch, so even the
        // interleaved log lines up within each destination)
        for calc in 0..2usize {
            let per_dest = |cap: &Capture| -> Vec<String> {
                cap.direct
                    .iter()
                    .filter(|(_, _, task, _)| *task == calc)
                    .map(|(s, to, _, m)| format!("{s}:{to}:{m:?}"))
                    .collect()
            };
            assert_eq!(per_dest(&cap_msg), per_dest(&cap_batch), "calc {calc}");
        }
        assert_eq!(
            format!("{:?}", cap_msg.emitted),
            format!("{:?}", cap_batch.emitted)
        );
        assert_eq!(
            rec_msg.lock().routed_tagsets,
            rec_batch.lock().routed_tagsets
        );
        assert_eq!(
            rec_msg.lock().unrouted_tagsets,
            rec_batch.lock().unrouted_tagsets
        );
        assert_eq!(
            rec_msg.lock().total_notifications,
            rec_batch.lock().total_notifications
        );
    }

    #[test]
    fn calculator_on_batch_with_mid_batch_fence_and_tick_matches_per_message() {
        // Hand-built batch with a fence and a tick landing mid-batch (the
        // runtimes never batch barriers, but on_batch must stay equivalent
        // anyway): reports and barrier accounting must match per-message
        // delivery byte for byte.
        let build = || {
            let recorder = RunRecorder::shared(2);
            CalculatorBolt::new(1).with_migration(9, 2, recorder)
        };
        let mut ps = setcorr_core::PartitionSet::empty(2);
        ps.parts[1].absorb(&ts(&[1, 2]), 0);
        let ps = Arc::new(ps);
        let notif = |doc: u64, ids: &[u32]| Msg::Notification { doc, tags: ts(ids) };
        let msgs = vec![
            notif(0, &[1, 2]),
            notif(1, &[1, 2]),
            notif(2, &[2]),
            Msg::Fence {
                epoch: 0,
                partitions: ps.clone(),
            },
            // barrier now open: these stall until the adopt arrives
            notif(3, &[1, 2]),
            Msg::Tick {
                round: 0,
                time: Timestamp(1),
            },
            notif(4, &[1, 2]),
        ];
        let adopt = Msg::Adopt {
            epoch: 0,
            from: 0,
            bundle: Arc::new(setcorr_core::MigrationBundle {
                counters: vec![(ts(&[1]), 2), (ts(&[2]), 2), (ts(&[1, 2]), 2)],
                ..Default::default()
            }),
        };
        let mut per_msg = build();
        let mut cap_msg = Capture::default();
        for m in msgs.clone() {
            per_msg.on_message(m, &mut cap_msg);
        }
        per_msg.on_message(adopt.clone(), &mut cap_msg);
        let mut batched = build();
        let mut cap_batch = Capture::default();
        batched.on_batch(msgs, &mut cap_batch);
        batched.on_message(adopt, &mut cap_batch);
        assert_eq!(per_msg.drained(), batched.drained());
        assert_eq!(
            format!("{:?}", cap_msg.emitted),
            format!("{:?}", cap_batch.emitted)
        );
        assert_eq!(
            format!("{:?}", cap_msg.direct),
            format!("{:?}", cap_batch.direct)
        );
        // the tick replayed after the barrier closed, with full evidence
        let report = cap_batch
            .emitted
            .iter()
            .find_map(|(s, m)| match m {
                Msg::CalcReport { reports, .. } if *s == "coeffs" => Some(reports.clone()),
                _ => None,
            })
            .expect("tick reported");
        assert_eq!(report[0].counter, 5, "2 migrated + 3 observed before tick");
    }

    #[test]
    fn calculator_on_batch_matches_per_message_for_both_backends() {
        // 6 notifications, 2 distinct tagsets, then a tick: batched and
        // per-message delivery report the same, exact and approximate alike
        let backends: [fn() -> Box<dyn CorrelationBackend>; 2] = [
            || Box::new(Calculator::new()),
            || Box::new(setcorr_approx::ApproxCalculator::new(Default::default())),
        ];
        let batch: Vec<Msg> = (0..6)
            .map(|i| Msg::Notification {
                doc: i,
                tags: if i % 2 == 0 { ts(&[1, 2]) } else { ts(&[3, 4]) },
            })
            .collect();
        let tick = Msg::Tick {
            round: 0,
            time: Timestamp(1),
        };
        for backend in backends {
            let mut per_msg = CalculatorBolt::with_backend(0, backend());
            let mut cap_msg = Capture::default();
            for m in batch.clone() {
                per_msg.on_message(m, &mut cap_msg);
            }
            let mut batched = CalculatorBolt::with_backend(0, backend());
            let mut cap_batch = Capture::default();
            batched.on_batch(batch.clone(), &mut cap_batch);
            assert_eq!(batched.calc.received(), 6);
            assert_eq!(per_msg.calc.received(), 6);
            per_msg.on_message(tick.clone(), &mut cap_msg);
            batched.on_message(tick.clone(), &mut cap_batch);
            assert_eq!(
                format!("{:?}", cap_msg.emitted),
                format!("{:?}", cap_batch.emitted),
                "{}",
                batched.calc.name()
            );
            let Msg::CalcReport { reports, .. } = &cap_batch.emitted[0].1 else {
                panic!("expected CalcReport");
            };
            if batched.calc.name() == "exact" {
                assert_eq!(reports.len(), 2);
                assert!(reports.iter().all(|r| r.counter == 3));
            }
        }
    }

    #[test]
    fn tracker_finalizes_when_all_calcs_reported() {
        let recorder = RunRecorder::shared(2);
        let mut t = TrackerBolt::new(2, recorder.clone());
        let mut cap = Capture::default();
        let report = |calc: usize, j: f64, cn: u64| Msg::CalcReport {
            round: 0,
            calc,
            reports: Arc::new(vec![setcorr_core::CoefficientReport {
                tags: ts(&[1, 2]),
                jaccard: j,
                counter: cn,
            }]),
        };
        t.on_message(report(0, 0.5, 10), &mut cap);
        assert!(recorder.lock().tracked_rounds.is_empty());
        t.on_message(report(1, 0.7, 3), &mut cap);
        let rec = recorder.lock();
        let round = rec.tracked_rounds.get(&0).unwrap();
        assert_eq!(round.len(), 1);
        assert_eq!(round[0].jaccard, 0.5, "max-CN wins");
        assert_eq!(round[0].reporters, 2);
    }

    #[test]
    fn baseline_reports_rounds_and_run_occurrences() {
        let recorder = RunRecorder::shared(1);
        let mut b = BaselineBolt::new(recorder.clone());
        let mut cap = Capture::default();
        // {1,2} seen 4 times; singleton {9} skipped (no Jaccard for 1 tag)
        for _ in 0..4 {
            b.on_message(
                Msg::TagSet {
                    time: Timestamp(0),
                    tags: ts(&[1, 2]),
                },
                &mut cap,
            );
        }
        for _ in 0..9 {
            b.on_message(
                Msg::TagSet {
                    time: Timestamp(0),
                    tags: ts(&[9]),
                },
                &mut cap,
            );
        }
        b.on_message(
            Msg::Tick {
                round: 0,
                time: Timestamp(10),
            },
            &mut cap,
        );
        {
            let rec = recorder.lock();
            let round = rec.baseline_rounds.get(&0).unwrap();
            assert_eq!(round.len(), 1);
            assert_eq!(round[0].tags, ts(&[1, 2]));
            assert_eq!(round[0].counter, 4);
            assert_eq!(round[0].jaccard, 1.0);
        }
        // round state cleared, run occurrences persist until flush
        b.on_message(
            Msg::TagSet {
                time: Timestamp(11),
                tags: ts(&[1, 2]),
            },
            &mut cap,
        );
        b.on_message(
            Msg::Tick {
                round: 1,
                time: Timestamp(20),
            },
            &mut cap,
        );
        assert_eq!(
            recorder.lock().baseline_rounds.get(&1).unwrap()[0].counter,
            1
        );
        b.on_flush(&mut cap);
        assert_eq!(
            recorder.lock().baseline_occurrences.get(&ts(&[1, 2])),
            Some(&5)
        );
    }
}
