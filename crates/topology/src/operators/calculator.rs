//! The Calculator (§3.1, §6.2), its round-fence checkpoint and the
//! tombstone that stands in for it once it is degraded.

use crate::messages::Msg;
use crate::recorder::SharedRecorder;
use setcorr_core::{
    plan_handoff, CoefficientReport, CorrelationBackend, MigrationBundle, PartitionSet,
};
use setcorr_engine::{Bolt, ComponentId, Emitter};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Computes and reports Jaccard coefficients every round (§3.1, §6.2),
/// through a pluggable [`CorrelationBackend`]: the exact subset-counting
/// Calculator or the MinHash/Count-Min approximate backend. Batched and
/// per-message delivery take the same path: each notification goes to the
/// backend as it arrives.
///
/// The bolt always speaks the repartition handoff protocol: on each
/// [`Msg::Fence`] it exports its per-tag state, sends each departing piece
/// to the canonical new owner ([`setcorr_core::plan_handoff`]), drops what
/// it no longer owns, and adopts incoming [`Msg::Adopt`] bundles from its
/// peers. One `Adopt` per peer per fence (empty or not) doubles as the
/// barrier marker that lets the threaded runtime drain migrations cleanly
/// at shutdown ([`setcorr_engine::Bolt::drained`]). Whether fences are sent
/// at all is the decision of the [`super::DisseminatorBolt`] alone.
pub struct CalculatorBolt {
    id: usize,
    calc: Box<dyn CorrelationBackend>,
    round: u64,
    /// This component's id (peer-to-peer adopt routing) and task count.
    component: ComponentId,
    k: usize,
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
    pending: VecDeque<Msg>,
    recorder: SharedRecorder,
    /// Deterministic poison-lock faults `(after, fired)`: after observing
    /// `after` notifications, take the recorder lock and panic while
    /// holding it (exercising the lock shim's poison absorption end to
    /// end). `fired` is a one-shot latch shared across incarnations: the
    /// bolt factory re-applies [`Self::with_poison`] with the same flag on
    /// restart, so each fault fires once per run, not once per rebuilt
    /// instance.
    poisons: Vec<(u64, Arc<AtomicBool>)>,
    /// Notifications observed by *this* incarnation (poison trigger clock).
    notifications_seen: u64,
    /// The report vector this task last sent. The Tracker drops its clone
    /// when the round closes, so by the next tick the vector is normally
    /// this task's alone again and is refilled where it lies.
    last_report: Option<Arc<Vec<CoefficientReport>>>,
}

impl CalculatorBolt {
    /// Calculator task `id` of the `k` tasks living at `component`, running
    /// `backend` and reporting migrated state volume into `recorder`.
    pub fn new(
        id: usize,
        component: ComponentId,
        k: usize,
        backend: Box<dyn CorrelationBackend>,
        recorder: SharedRecorder,
    ) -> Self {
        CalculatorBolt {
            id,
            calc: backend,
            round: 0,
            component,
            k,
            partitions: None,
            fenced_epoch: None,
            fences: 0,
            adopts: 0,
            early_adopts: Vec::new(),
            pending: VecDeque::new(),
            recorder,
            poisons: Vec::new(),
            notifications_seen: 0,
            last_report: None,
        }
    }

    /// Deterministic fault injection: after `after_notifications` observed
    /// notifications, this task takes the recorder lock and panics while
    /// holding it — the "poison a lock mid-update" fault of the supervision
    /// test matrix. `fired` is the run-wide one-shot latch; pass the same
    /// `Arc` from the bolt factory on every (re)build. Each call arms one
    /// more fault.
    pub fn with_poison(mut self, after_notifications: u64, fired: Arc<AtomicBool>) -> Self {
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
            if self.notifications_seen >= *after && !fired.swap(true, Ordering::SeqCst) {
                let _guard = self.recorder.lock();
                std::panic::panic_any(format!(
                    "injected fault: poison-lock (calculator {})",
                    self.id
                ));
            }
        }
    }

    /// Emit this task's coefficients of `round` and reset its counters:
    /// into the vector of the last report when nobody else still holds it,
    /// so its capacity and its `Arc` serve again, else into a fresh one.
    fn report(&mut self, round: u64, out: &mut dyn Emitter<Msg>) {
        let mut reports = self
            .last_report
            .take()
            .filter(|last| Arc::strong_count(last) == 1)
            .unwrap_or_default();
        let vec = Arc::get_mut(&mut reports).expect("held by this task alone");
        vec.clear();
        self.calc.report_into(vec);
        out.emit(
            "coeffs",
            Msg::CalcReport {
                round,
                calc: self.id,
                reports: reports.clone(),
            },
        );
        self.last_report = Some(reports);
    }

    /// Handle one epoch fence: hand departing state to its new owners,
    /// then drop it locally. Every peer gets exactly one `Adopt` (empty
    /// bundles included) so the barrier accounting stays exact.
    fn on_fence(&mut self, epoch: u64, new: Arc<PartitionSet>, out: &mut dyn Emitter<Msg>) {
        self.fences += 1;
        // first install: nothing was ever routed to us, nothing to move
        let plan = match self.partitions.as_deref() {
            Some(old) => plan_handoff(self.id, old, &new, &self.calc.export_state()),
            None => Vec::new(),
        };
        let moved = send_adopts(self.component, self.id, self.k, epoch, plan, out);
        if moved > 0 {
            self.recorder.lock().migrated_units += moved;
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
                self.report(round, out);
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

/// Send task `from`'s `Adopt` for `epoch` to each of its peers among the
/// `k` tasks at `component`: the peer's bundle from `plan`, or an empty,
/// shared barrier marker when it is owed no state. Returns the state units
/// sent.
fn send_adopts(
    component: ComponentId,
    from: usize,
    k: usize,
    epoch: u64,
    plan: Vec<(usize, MigrationBundle)>,
    out: &mut dyn Emitter<Msg>,
) -> u64 {
    let mut per_peer: Vec<Option<MigrationBundle>> = (0..k).map(|_| None).collect();
    for (target, bundle) in plan {
        per_peer[target] = Some(bundle);
    }
    let empty = Arc::new(MigrationBundle::default());
    let mut moved = 0u64;
    for (peer, slot) in per_peer.into_iter().enumerate() {
        if peer == from {
            continue;
        }
        let bundle = slot.map_or_else(|| empty.clone(), Arc::new);
        moved += bundle.units();
        out.emit_direct(
            "adopt",
            component,
            peer,
            Msg::Adopt {
                epoch,
                from,
                bundle,
            },
        );
    }
    moved
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
    pending: VecDeque<Msg>,
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
                    self.recorder.lock().stalled_tuples += 1;
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
            self.report(self.round, out);
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

    /// Calculators emit only at barriers (reports at ticks, adopts at
    /// fences) and checkpoints are captured right after each barrier, so
    /// replaying the messages since the last checkpoint re-emits nothing
    /// already sent.
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

    fn tombstone(&self) -> Option<Box<dyn Bolt<Msg>>> {
        Some(Box::new(DegradedCalculator {
            id: self.id,
            component: self.component,
            k: self.k,
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
            Msg::Fence { epoch, .. } => {
                send_adopts(self.component, self.id, self.k, epoch, Vec::new(), out);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::test_support::{ts, Capture};
    use crate::recorder::RunRecorder;
    use setcorr_core::Calculator;
    use setcorr_model::Timestamp;

    /// Exact-backend Calculator task `id` of `k` at component 9.
    fn exact(id: usize, k: usize, recorder: SharedRecorder) -> CalculatorBolt {
        CalculatorBolt::new(id, 9, k, Box::new(Calculator::new()), recorder)
    }

    #[test]
    fn calculator_reports_on_tick() {
        let mut c = exact(1, 2, RunRecorder::shared(2));
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
        let latches: [Arc<AtomicBool>; 2] = Default::default();
        let recorder = RunRecorder::shared(1);
        let incarnations_that_panicked = (0..4)
            .filter(|_| {
                let mut calc = exact(0, 1, recorder.clone())
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
        let mut donor = exact(0, 2, recorder.clone());
        let mut heir = exact(1, 2, recorder.clone());
        let mut cap = Capture::default();

        let map = |spec: &[&[u32]]| {
            let mut ps = PartitionSet::empty(2);
            for (i, ids) in spec.iter().enumerate() {
                ps.parts[i].absorb(&ts(ids), 0);
            }
            Arc::new(ps)
        };
        let fence = |epoch, ps: &Arc<PartitionSet>| Msg::Fence {
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
        let mut calc = exact(1, 2, RunRecorder::shared(2));
        let mut cap = Capture::default();
        calc.on_message(
            Msg::Adopt {
                epoch: 0,
                from: 0,
                bundle: Arc::new(MigrationBundle {
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
        let mut ps = PartitionSet::empty(2);
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
        let mut calc = exact(1, 2, recorder.clone());
        let mut cap = Capture::default();
        let mut ps = PartitionSet::empty(2);
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
                bundle: Arc::new(MigrationBundle {
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
        let mut calc = exact(1, 3, RunRecorder::shared(3));
        let mut cap = Capture::default();
        let fence = |epoch| Msg::Fence {
            epoch,
            partitions: Arc::new(PartitionSet::empty(3)),
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
}
