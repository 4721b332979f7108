//! The Disseminator: routing, quality monitoring and the control plane's
//! triggers (§3.3, §7).

use crate::messages::Msg;
use crate::recorder::SharedRecorder;
use setcorr_core::{
    Disseminator, DisseminatorAction, DisseminatorConfig, PartitionSet, QualityReference,
    RouteResult,
};
use setcorr_engine::{Bolt, ComponentId, Emitter};
use setcorr_model::{TagSet, Timestamp};
use std::collections::VecDeque;

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
    /// The one place the live-versus-offline decision is made: Calculators
    /// always speak the handoff protocol, and without fences it never
    /// starts.
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
    bootstrap_buffer: VecDeque<Msg>,
    /// Per-tuple routing outcome, reused across calls so the notification
    /// and action vectors keep their capacity (zero-allocation hot path).
    route_scratch: RouteResult,
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
            bootstrap_buffer: VecDeque::new(),
            route_scratch: RouteResult::default(),
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
    /// [`RouteResult`], its notifications group per destination
    /// Calculator, and each group leaves as one
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::test_support::{ts, Capture};
    use crate::recorder::RunRecorder;
    use std::sync::Arc;

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
        let mut ps = PartitionSet::empty(2);
        ps.parts[0].absorb(&ts(&[1, 2]), 1);
        ps.parts[1].absorb(&ts(&[3]), 1);
        d.on_message(
            Msg::NewPartitions {
                epoch: 0,
                partitions: Arc::new(ps),
                reference: QualityReference {
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
            let mut ps = PartitionSet::empty(2);
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
                    reference: QualityReference {
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
}
