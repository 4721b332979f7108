//! Supervision of either runtime: fault injection, checkpointed recovery,
//! graceful degradation.
//!
//! Unsupervised, a runtime treats a panicking task as fatal: the run fails
//! with a [`RunError`](crate::RunError). With a [`SuperviseConfig`] (from
//! [`ThreadedConfig::supervision`](crate::ThreadedConfig::supervision), or
//! [`try_run_sim_batched`](crate::try_run_sim_batched)'s argument), the
//! bolt step routes every envelope through a per-task supervisor, which
//! wraps the operator callback in `catch_unwind`:
//!
//! 1. **Detect** — a panic inside `on_message`/`on_batch` is caught; the
//!    message loop, channels and emitter survive.
//! 2. **Decide** — [`SuperviseConfig::max_restarts`] grants bounded retries
//!    with exponential backoff. Backoff is measured in *processed-message
//!    counts*, not wall clock, so recovery decisions replay deterministically
//!    under test.
//! 3. **Recover** — the bolt is rebuilt from its component factory and
//!    restored from the latest *checkpoint* ([`crate::topology::Bolt::checkpoint`] /
//!    [`crate::topology::Bolt::restore`]), captured after every barrier message (round
//!    ticks, fences — the protocol's consistent cut points). For bolts
//!    that checkpoint, the supervisor also keeps a *replay buffer* of every
//!    envelope since the last checkpoint and re-feeds it, so the open
//!    round's work is redone byte-for-byte.
//! 4. **Degrade** — when retries are exhausted the task is *tombstoned*:
//!    [`crate::topology::Bolt::tombstone`] installs a stand-in that keeps the control
//!    protocols live (fences answered, round barriers forwarded) while doing
//!    no real work, so the run finishes with a partial-but-honest report
//!    instead of wedging the topology. A run with zero live instances of an
//!    operator still terminates.
//!
//! Supervision state is task-local: each task counts its own faults,
//! restarts and replays and hands them back when it finishes, and the run
//! sums them into [`ThreadStats`](crate::ThreadStats). The only thing
//! tasks share is the [`SuperviseConfig`], whose
//! [`on_degrade`](SuperviseConfig::on_degrade) hook fires live, as a task
//! degrades.
//!
//! A *starvation detector* backstops the post-end-of-stream drain: if a task
//! is owed a control message that will never arrive (its sender died, or a
//! fault plan dropped the message), the drain would otherwise wait forever.
//! Supervised, that wait has a deadline: after
//! [`SuperviseConfig::drain_patience`] of silence the task force-degrades
//! and the run completes. The sim needs no clock for it: once nothing is
//! left to deliver, a starved task degrades at once.
//!
//! # Deterministic fault injection
//!
//! [`FaultSpec`] describes *when* to hurt a task in terms of its own message
//! counts — "kill calculator task 2 after its 1000th message", "drop the
//! 1st control envelope into task 0". Counts, not timers: the same plan on
//! the same input produces the same fault at the same point in the stream,
//! every run. Injected panics carry an `"injected fault"` payload prefix so
//! [`ThreadStats::faults_injected`](crate::ThreadStats::faults_injected) can
//! tell them apart from genuine bugs surfacing mid-test.

use crate::threaded::{decode_panic, feed, Envelope, Port, TaskEmitter};
use crate::topology::{Bolt, BoltFactory, ComponentId, Emitter};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Backoff unit, in processed messages: after the `k`-th consecutive
/// failure a task must process `BACKOFF_BASE << (k-1)` messages without
/// failing before its failure count resets. No wall clock is consulted
/// anywhere in the restart decision.
const BACKOFF_BASE: u64 = 64;

/// One deterministic fault, scheduled against a task's own message counts.
#[derive(Debug, Clone)]
pub enum FaultSpec {
    /// Panic inside the task's callback just before it would process the
    /// message after its `after_messages`-th. Fires once; several kills of
    /// one task fire in ascending order.
    KillTask {
        /// Component to hurt.
        component: ComponentId,
        /// Task (instance) index within the component.
        task: usize,
        /// Processed-message count at which the kill fires.
        after_messages: u64,
    },
    /// Silently discard the `nth` (1-indexed) control-lane envelope bound
    /// for the task — a lost migration bundle. The starvation detector is
    /// what recovers the topology afterwards.
    DropControl {
        /// Component to hurt.
        component: ComponentId,
        /// Task (instance) index within the component.
        task: usize,
        /// 1-indexed control-envelope ordinal to drop.
        nth: u64,
    },
}

/// Max envelopes held for replay between checkpoints; beyond it the buffer
/// is abandoned for the current checkpoint interval (recovery then restores
/// state without redoing the open round's tail).
const REPLAY_CAP: usize = 65_536;

/// Configuration of supervised execution
/// ([`ThreadedConfig::supervision`](crate::ThreadedConfig::supervision)).
#[derive(Clone)]
pub struct SuperviseConfig {
    /// Consecutive restarts granted to every task before it degrades. `0`
    /// means a single failure tombstones the task immediately.
    pub max_restarts: u32,
    /// Deterministic fault schedule (empty = supervise only).
    pub faults: Vec<FaultSpec>,
    /// Silence tolerated in the post-Eos drain while the bolt still
    /// reports un-drained, before force-degrading it (the lost control
    /// message is never coming). Default 3 s; the sim never waits.
    pub drain_patience: Duration,
    /// Invoked (component, task) whenever a task degrades, before the run
    /// finishes — lets the embedding route around the dead operator while
    /// the topology is still live.
    pub on_degrade: Option<Arc<dyn Fn(ComponentId, usize) + Send + Sync>>,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        SuperviseConfig {
            max_restarts: 2,
            faults: Vec::new(),
            drain_patience: Duration::from_secs(3),
            on_degrade: None,
        }
    }
}

impl std::fmt::Debug for SuperviseConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SuperviseConfig")
            .field("max_restarts", &self.max_restarts)
            .field("faults", &self.faults)
            .field("drain_patience", &self.drain_patience)
            .field("on_degrade", &self.on_degrade.as_ref().map(|_| ".."))
            .finish()
    }
}

impl SuperviseConfig {
    /// The fault schedule of (component, task): its kill thresholds,
    /// ascending, and the control-envelope ordinals it drops.
    pub(crate) fn schedule_for(&self, component: ComponentId, task: usize) -> (Vec<u64>, Vec<u64>) {
        let (mut kills, mut drops) = (Vec::new(), Vec::new());
        for fault in &self.faults {
            match *fault {
                FaultSpec::KillTask {
                    component: c,
                    task: t,
                    after_messages,
                } if (c, t) == (component, task) => kills.push(after_messages),
                FaultSpec::DropControl {
                    component: c,
                    task: t,
                    nth,
                } if (c, t) == (component, task) => drops.push(nth),
                _ => {}
            }
        }
        kills.sort_unstable();
        (kills, drops)
    }
}

/// What supervision did to one task over the run. Each task keeps its own
/// and returns it when it finishes; the join path sums them into
/// [`ThreadStats`](crate::ThreadStats). Unsupervised tasks report zeroes.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TaskFaults {
    /// Scheduled faults that fired, plus caught panics whose payload
    /// carries the `"injected fault"` prefix.
    pub(crate) faults_injected: u64,
    /// Successful restarts (rebuild + restore).
    pub(crate) tasks_restarted: u64,
    /// Restarts that re-fed a replay buffer.
    pub(crate) rounds_replayed: u64,
    /// Whether the task ended tombstoned (or lost its stream or flush).
    pub(crate) degraded: bool,
}

impl TaskFaults {
    /// Count one caught panic if it was a scheduled fault.
    pub(crate) fn note_panic(&mut self, payload: &(dyn std::any::Any + Send)) {
        if decode_panic(payload).1.starts_with("injected fault") {
            self.faults_injected += 1;
        }
    }

    /// Mark (component, task) degraded and tell the embedding.
    pub(crate) fn note_degraded(
        &mut self,
        config: &SuperviseConfig,
        component: ComponentId,
        task: usize,
    ) {
        self.degraded = true;
        if let Some(cb) = &config.on_degrade {
            cb(component, task);
        }
    }
}

/// Default tombstone: drops every message, emits nothing, always drained.
struct Blackhole;

impl<M> Bolt<M> for Blackhole {
    fn on_message(&mut self, _msg: M, _out: &mut dyn Emitter<M>) {}
    fn on_batch(&mut self, _msgs: Vec<M>, _out: &mut dyn Emitter<M>) {}
}

/// Per-task supervisor state for one bolt task. The task loop owns the
/// bolt and the redelivery queue; this owns everything recovery needs.
pub(crate) struct TaskSupervisor<M> {
    pub(crate) config: Arc<SuperviseConfig>,
    component: ComponentId,
    task: usize,
    factory: Arc<Mutex<BoltFactory<M>>>,
    /// The batching policy's barrier predicate: a barrier message marks a
    /// checkpointable cut.
    barrier: Arc<dyn Fn(&M) -> bool + Send + Sync>,
    /// Latest barrier checkpoint (None until the bolt produces one).
    checkpoint: Option<Box<dyn std::any::Any + Send>>,
    /// Envelopes since the last checkpoint, for bolts that checkpoint.
    replay: Vec<Envelope<M>>,
    replay_overflow: bool,
    can_replay: bool,
    /// Messages successfully processed (drives kill scheduling + backoff).
    msgs_seen: u64,
    consecutive_failures: u32,
    cooldown: u64,
    /// Kill thresholds still scheduled, ascending.
    kill_ats: Vec<u64>,
    /// Control-envelope ordinals still scheduled to be dropped.
    drop_nths: Vec<u64>,
    ctl_seen: u64,
    /// What supervision did to this task so far.
    pub(crate) faults: TaskFaults,
}

impl<M: Clone + 'static> TaskSupervisor<M> {
    pub(crate) fn new(
        config: Arc<SuperviseConfig>,
        component: ComponentId,
        task: usize,
        factory: Arc<Mutex<BoltFactory<M>>>,
        bolt: &dyn Bolt<M>,
        barrier: Arc<dyn Fn(&M) -> bool + Send + Sync>,
    ) -> Self {
        let checkpoint = bolt.checkpoint();
        let (kill_ats, drop_nths) = config.schedule_for(component, task);
        TaskSupervisor {
            kill_ats,
            drop_nths,
            config,
            component,
            task,
            factory,
            barrier,
            can_replay: checkpoint.is_some(),
            checkpoint,
            replay: Vec::new(),
            replay_overflow: false,
            msgs_seen: 0,
            consecutive_failures: 0,
            cooldown: 0,
            ctl_seen: 0,
            faults: TaskFaults::default(),
        }
    }

    /// Count one control-lane envelope; true when the fault schedule says
    /// to swallow it (the scheduled lost message — the starvation detector
    /// is what digs the topology out of the resulting wedge).
    pub(crate) fn drops_control(&mut self) -> bool {
        self.ctl_seen += 1;
        let Some(pos) = self.drop_nths.iter().position(|&nth| nth == self.ctl_seen) else {
            return false;
        };
        self.drop_nths.swap_remove(pos);
        self.faults.faults_injected += 1;
        true
    }

    /// Install the tombstone stand-in; the message loop keeps running so
    /// the control protocols (fences, barriers) stay live downstream.
    pub(crate) fn degrade(&mut self, bolt: &mut Box<dyn Bolt<M>>) {
        if self.faults.degraded {
            return;
        }
        *bolt = bolt.tombstone().unwrap_or_else(|| Box::new(Blackhole));
        self.checkpoint = None;
        self.replay.clear();
        self.can_replay = false;
        self.kill_ats.clear();
        self.faults
            .note_degraded(&self.config, self.component, self.task);
    }

    /// Handle one panic out of a callback: count it, then restart (rebuild
    /// + restore + queue the replay buffer) or degrade per policy.
    fn recover(
        &mut self,
        bolt: &mut Box<dyn Bolt<M>>,
        payload: Box<dyn std::any::Any + Send>,
        pending: &mut VecDeque<Envelope<M>>,
    ) {
        self.faults.note_panic(&*payload);
        self.consecutive_failures += 1;
        if self.consecutive_failures > self.config.max_restarts {
            self.degrade(bolt);
            return;
        }
        self.faults.tasks_restarted += 1;
        // A backoff of `2^64` messages just means "never resets within
        // this run".
        self.cooldown = BACKOFF_BASE
            .checked_shl(self.consecutive_failures - 1)
            .unwrap_or(u64::MAX);
        // Rebuild from the factory, rewind to the latest barrier cut...
        *bolt = (self.factory.lock().expect("factory lock"))(self.task);
        if let Some(cp) = &self.checkpoint {
            bolt.restore(&**cp);
        }
        // ...and re-feed everything since it. The buffer includes the
        // envelope whose processing just failed (pushed before delivery),
        // so nothing is lost; it re-accumulates as the queue drains, which
        // keeps a second failure mid-replay recoverable too.
        if self.can_replay && !self.replay_overflow {
            let buffered = std::mem::take(&mut self.replay);
            if !buffered.is_empty() {
                self.faults.rounds_replayed += 1;
                for env in buffered.into_iter().rev() {
                    pending.push_front(env);
                }
            }
        } else {
            self.replay.clear();
            self.replay_overflow = false;
        }
    }

    /// Process one envelope under supervision. Returns the number of
    /// messages successfully processed (0 if the callback panicked, in
    /// which case any redeliveries were queued onto `pending`).
    pub(crate) fn process<P: Port<M>>(
        &mut self,
        bolt: &mut Box<dyn Bolt<M>>,
        env: Envelope<M>,
        emitter: &mut TaskEmitter<M, P>,
        pending: &mut VecDeque<Envelope<M>>,
    ) -> u64 {
        if matches!(env, Envelope::Eos) {
            return 0;
        }
        let barrier = matches!(&env, Envelope::Data(m) if (self.barrier)(m));
        let inject = self
            .kill_ats
            .first()
            .is_some_and(|&at| self.msgs_seen >= at);
        if inject {
            self.kill_ats.remove(0);
        }
        // Bolts that checkpoint buffer the envelope *before* processing: a
        // panic mid-callback then redoes it from the checkpoint,
        // byte-for-byte. Other bolts get clone-once redelivery only for
        // injected kills, which fire before the callback touches anything.
        let mut redeliver: Option<Envelope<M>> = None;
        if self.can_replay {
            if self.replay.len() >= REPLAY_CAP {
                self.replay_overflow = true;
                self.replay.clear();
            } else {
                self.replay.push(env.clone());
            }
        } else if inject {
            redeliver = Some(env.clone());
        }
        let result = catch_unwind(AssertUnwindSafe(|| {
            if inject {
                std::panic::panic_any("injected fault: kill-task".to_string());
            }
            feed(&mut **bolt, env, emitter)
        }));
        match result {
            Ok(n) => {
                self.msgs_seen += n;
                if self.cooldown > 0 {
                    self.cooldown = self.cooldown.saturating_sub(n);
                    if self.cooldown == 0 {
                        self.consecutive_failures = 0;
                    }
                }
                if (barrier || emitter.barrier_emitted) && !self.faults.degraded {
                    emitter.barrier_emitted = false;
                    if let Some(cp) = bolt.checkpoint() {
                        self.checkpoint = Some(cp);
                        self.replay.clear();
                        self.replay_overflow = false;
                    }
                }
                n
            }
            Err(payload) => {
                self.recover(bolt, payload, pending);
                if let Some(env) = redeliver {
                    pending.push_front(env);
                }
                0
            }
        }
    }

    /// The final flush under supervision: a panic here can no longer be
    /// retried, so it is counted and the task disclosed as degraded.
    pub(crate) fn flush(&mut self, bolt: &mut dyn Bolt<M>, emitter: &mut dyn Emitter<M>) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| bolt.on_flush(emitter))) {
            self.faults.note_panic(&*payload);
            self.faults
                .note_degraded(&self.config, self.component, self.task);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::tests::{taps, Log};
    use crate::sim::try_run_sim_batched;
    use crate::threaded::{
        try_run_threaded_batched, BatchPolicy, ThreadStats, ThreadedConfig, DRAIN_BURST,
    };
    use crate::topology::{Grouping, TopologyBuilder};
    use std::sync::mpsc;
    use std::sync::Mutex as StdMutex;

    /// Closed once the spout has emitted its whole stream; see [`Acc`].
    type Gate = Arc<StdMutex<mpsc::Receiver<()>>>;

    /// A checkpointable accumulator: folds values into an
    /// *order-sensitive* running hash, emits it on each barrier (multiples
    /// of 100), and can be killed. Any reordering or loss of its input
    /// changes every later emission.
    ///
    /// Each instance holds its first message until the gate closes, so the
    /// whole stream is queued in its inbox before anything is processed:
    /// every receive then drains a full burst, whatever the scheduler does.
    struct Acc {
        sum: u64,
        gate: Option<Gate>,
    }

    impl Bolt<u64> for Acc {
        fn on_message(&mut self, m: u64, out: &mut dyn Emitter<u64>) {
            if let Some(gate) = self.gate.take() {
                // Err = sender dropped = stream fully emitted
                let _ = gate.lock().unwrap().recv();
            }
            if m.is_multiple_of(100) {
                out.emit("totals", self.sum);
            } else {
                self.sum = self.sum.wrapping_mul(31).wrapping_add(m);
            }
        }
        fn checkpoint(&self) -> Option<Box<dyn std::any::Any + Send>> {
            Some(Box::new(self.sum))
        }
        fn restore(&mut self, cp: &dyn std::any::Any) {
            if let Some(sum) = cp.downcast_ref::<u64>() {
                self.sum = *sum;
            }
        }
    }

    /// The messages `seen` logged, in order.
    fn messages(seen: &Log) -> Vec<u64> {
        seen.lock().unwrap().iter().map(|&(_, m)| m).collect()
    }

    /// The barrier-emitting totals an unfaulted run produces for 1..=500.
    fn oracle_totals() -> Vec<u64> {
        let mut acc = 0u64;
        let mut out = Vec::new();
        for m in 1..=500u64 {
            if m.is_multiple_of(100) {
                out.push(acc);
            } else {
                acc = acc.wrapping_mul(31).wrapping_add(m);
            }
        }
        out
    }

    /// src (1..=500) → acc → sink at batch depth `depth`; returns what the
    /// sink saw, in order, and the run's stats.
    fn acc_run(depth: usize, supervision: Option<SuperviseConfig>) -> (Vec<u64>, ThreadStats) {
        let seen = Log::default();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let gate: Gate = Arc::new(StdMutex::new(gate_rx));
        let mut tb = TopologyBuilder::new();
        let mut gate_tx = Some(gate_tx);
        let src = tb.add_spout("src", 1, move |_| {
            // Pulling past the last message closes the gate. 500 is a
            // barrier, so by then every message has left the emitter's
            // buffers for acc's inbox.
            let mut gate_tx = gate_tx.take();
            Box::new((1u64..).take_while(move |&m| {
                if m > 500 {
                    gate_tx.take();
                }
                m <= 500
            }))
        });
        let acc = tb.add_bolt("acc", 1, move |_| {
            Box::new(Acc {
                sum: 0,
                gate: Some(gate.clone()),
            }) as Box<dyn Bolt<u64>>
        });
        let sink = taps(&mut tb, 1, &seen);
        assert_eq!(acc, 1);
        tb.connect(src, "out", acc, Grouping::Shuffle);
        tb.connect(acc, "totals", sink, Grouping::Global);
        let stats = try_run_threaded_batched(
            tb.build(),
            ThreadedConfig {
                supervision,
                ..ThreadedConfig::default()
            },
            BatchPolicy::new(depth, |m: &u64| m.is_multiple_of(100)),
        )
        .expect("run");
        let totals = messages(&seen);
        (totals, stats)
    }

    fn kill(component: ComponentId, task: usize, after_messages: u64) -> FaultSpec {
        FaultSpec::KillTask {
            component,
            task,
            after_messages,
        }
    }

    fn kill_acc_after(after_messages: u64) -> Option<SuperviseConfig> {
        Some(SuperviseConfig {
            faults: vec![kill(1, 0, after_messages)],
            ..SuperviseConfig::default()
        })
    }

    #[test]
    fn kill_recovers_from_checkpoint_and_replay_byte_identically() {
        let (totals, stats) = acc_run(8, kill_acc_after(250));
        assert_eq!(totals, oracle_totals(), "replayed run must match oracle");
        assert_eq!(stats.faults_injected, 1);
        assert_eq!(stats.tasks_restarted, 1);
        assert!(stats.rounds_replayed >= 1);
        assert!(stats.degraded_tasks.is_empty());
    }

    #[test]
    fn every_scheduled_kill_of_one_task_fires() {
        let (totals, stats) = acc_run(
            8,
            Some(SuperviseConfig {
                faults: vec![kill(1, 0, 150), kill(1, 0, 350)],
                ..SuperviseConfig::default()
            }),
        );
        assert_eq!(
            totals,
            oracle_totals(),
            "twice-replayed run must match oracle"
        );
        assert_eq!((stats.faults_injected, stats.tasks_restarted), (2, 2));
        assert!(stats.degraded_tasks.is_empty());
    }

    #[test]
    fn fault_counts_of_every_task_sum_at_join() {
        // Faults in three tasks of two components: spout task 1 dies (and
        // degrades), work task 0 restarts once, and work task 1 is killed
        // twice inside its backoff, so its second failure exhausts
        // `max_restarts = 1` and degrades it. The plan lists task 1's kills
        // out of order; they still fire in ascending order.
        struct Nop;
        impl Bolt<u64> for Nop {
            fn on_message(&mut self, _m: u64, _o: &mut dyn Emitter<u64>) {}
        }
        let mut tb = TopologyBuilder::new();
        let src = tb.add_spout("src", 2, |_| Box::new(0u64..200));
        let work = tb.add_bolt("work", 2, |_| Box::new(Nop) as Box<dyn Bolt<u64>>);
        tb.connect(src, "out", work, Grouping::Shuffle);
        let stats = try_run_threaded_batched(
            tb.build(),
            ThreadedConfig {
                supervision: Some(SuperviseConfig {
                    max_restarts: 1,
                    faults: vec![
                        kill(work, 1, 11),
                        kill(src, 1, 50),
                        kill(work, 1, 10),
                        kill(work, 0, 20),
                    ],
                    ..SuperviseConfig::default()
                }),
                ..ThreadedConfig::default()
            },
            BatchPolicy::new(1, |_| false),
        )
        .expect("supervised run");
        assert_eq!(stats.faults_injected, 4);
        assert_eq!(stats.tasks_restarted, 2);
        assert_eq!(stats.degraded_tasks, vec![(src, 1), (work, 1)]);
        // every envelope is processed once: killed ones are redelivered,
        // to the rebuilt bolt or to the tombstone
        assert_eq!(stats.processed, vec![250, 250]);
    }

    #[test]
    fn kill_anywhere_in_a_drained_burst_preserves_fifo_order() {
        // The whole stream sits in acc's inbox before it processes anything
        // (see `Acc`), so each receive drains a full burst and a kill
        // position swept over one burst window lands mid-burst: the restart
        // queues the replay, and the rest of the burst must park *behind*
        // it. Processing it first would reorder acc's input, which the
        // order-sensitive hash shows in every later total.
        let kills = 201..=200 + DRAIN_BURST as u64;
        assert_eq!(kills.clone().count(), DRAIN_BURST);
        for depth in [1usize, 8, 32] {
            for after in kills.clone() {
                let (totals, stats) = acc_run(depth, kill_acc_after(after));
                assert_eq!(
                    totals,
                    oracle_totals(),
                    "depth {depth}, kill after {after}: sink sequence diverged"
                );
                assert_eq!((stats.faults_injected, stats.tasks_restarted), (1, 1));
            }
        }
    }

    #[test]
    fn sim_kill_anywhere_in_a_coalesced_batch_preserves_fifo_order() {
        // The sim twin: `Burst` turns input n into acc's inputs
        // 10n+1..=10n+10, queued back to back, so acc takes them as one
        // coalesced batch per burst (at depth 8, a batch of 8 and one of 2)
        // and a kill swept over a burst lands inside a batch.
        struct Burst;
        impl Bolt<u64> for Burst {
            fn on_message(&mut self, n: u64, out: &mut dyn Emitter<u64>) {
                (10 * n + 1..=10 * n + 10).for_each(|m| out.emit("acc", m));
            }
        }
        for depth in [1usize, 8, 32] {
            for after in 201..=210 {
                let seen = Log::default();
                let mut tb = TopologyBuilder::new();
                let src = tb.add_spout("src", 1, |_| Box::new(0u64..50));
                let acc = tb.add_bolt("acc", 1, |_| {
                    Box::new(Acc { sum: 0, gate: None }) as Box<dyn Bolt<u64>>
                });
                let burst = tb.add_bolt("burst", 1, |_| Box::new(Burst) as Box<dyn Bolt<u64>>);
                let sink = taps(&mut tb, 1, &seen);
                tb.connect(src, "out", burst, Grouping::Shuffle);
                tb.connect(burst, "acc", acc, Grouping::Shuffle);
                tb.connect(acc, "totals", sink, Grouping::Global);
                let policy = BatchPolicy::new(depth, |m: &u64| m.is_multiple_of(100));
                let stats = try_run_sim_batched(tb.build(), policy, kill_acc_after(after));
                let stats = stats.expect("supervised run");
                let label = format!("depth {depth}, kill after {after}");
                assert_eq!(messages(&seen), oracle_totals(), "{label}");
                assert_eq!((stats.faults_injected, stats.tasks_restarted), (1, 1));
            }
        }
    }

    #[test]
    fn exhausted_retries_degrade_and_the_run_still_terminates() {
        // Bolt panics on every message: with max_restarts = 1 it degrades
        // after the second failure, and the run must still complete.
        struct Always;
        impl Bolt<u64> for Always {
            fn on_message(&mut self, _m: u64, _o: &mut dyn Emitter<u64>) {
                panic!("genuine bug");
            }
        }
        let mut tb = TopologyBuilder::new();
        let src = tb.add_spout("src", 1, |_| Box::new(0u64..50));
        let bad = tb.add_bolt("bad", 1, |_| Box::new(Always) as Box<dyn Bolt<u64>>);
        tb.connect(src, "out", bad, Grouping::Shuffle);
        let stats = try_run_threaded_batched(
            tb.build(),
            ThreadedConfig {
                supervision: Some(SuperviseConfig {
                    max_restarts: 1,
                    ..SuperviseConfig::default()
                }),
                ..ThreadedConfig::default()
            },
            BatchPolicy::new(1, |_| false),
        )
        .expect("supervised run");
        assert_eq!(stats.degraded_tasks, vec![(bad, 0)]);
        assert_eq!(stats.tasks_restarted, 1);
        assert_eq!(stats.faults_injected, 0, "a genuine bug is not injected");
    }

    #[test]
    fn dropped_control_message_starves_then_degrades_instead_of_hanging() {
        // `waiter` expects one feedback reply per fence it forwards; the
        // fault plan swallows that reply, so the post-Eos drain can never
        // satisfy `drained()`. The starvation detector must degrade it.
        struct Waiter {
            owed: u64,
            got: u64,
        }
        impl Bolt<u64> for Waiter {
            fn on_message(&mut self, m: u64, out: &mut dyn Emitter<u64>) {
                if m == 42 {
                    self.owed += 1;
                    out.emit("ask", m);
                } else if m >= 1000 {
                    self.got += 1;
                }
            }
            fn drained(&self) -> bool {
                self.got >= self.owed
            }
        }
        struct Replier;
        impl Bolt<u64> for Replier {
            fn on_message(&mut self, m: u64, out: &mut dyn Emitter<u64>) {
                out.emit("reply", m + 1000);
            }
        }
        let mut tb = TopologyBuilder::new();
        let src = tb.add_spout("src", 1, |_| Box::new(40u64..45));
        let waiter = tb.add_bolt("waiter", 1, |_| {
            Box::new(Waiter { owed: 0, got: 0 }) as Box<dyn Bolt<u64>>
        });
        let replier = tb.add_bolt("replier", 1, |_| Box::new(Replier) as Box<dyn Bolt<u64>>);
        tb.connect(src, "out", waiter, Grouping::Shuffle);
        tb.connect(waiter, "ask", replier, Grouping::Shuffle);
        tb.connect_feedback(replier, "reply", waiter, Grouping::Shuffle);
        let stats = try_run_threaded_batched(
            tb.build(),
            ThreadedConfig {
                supervision: Some(SuperviseConfig {
                    faults: vec![FaultSpec::DropControl {
                        component: waiter,
                        task: 0,
                        nth: 1,
                    }],
                    drain_patience: Duration::from_millis(10), // keeps the test fast
                    ..SuperviseConfig::default()
                }),
                ..ThreadedConfig::default()
            },
            BatchPolicy::new(1, |_| false),
        )
        .expect("supervised run");
        assert_eq!(stats.faults_injected, 1);
        assert_eq!(stats.degraded_tasks, vec![(waiter, 0)]);
    }

    #[test]
    fn fault_free_supervised_run_matches_the_bare_runtime() {
        let (bare_totals, bare) = acc_run(8, None);
        let (totals, supervised) = acc_run(8, Some(SuperviseConfig::default()));
        assert_eq!(bare_totals, oracle_totals());
        assert_eq!(totals, oracle_totals());
        assert_eq!(supervised.processed, vec![500, 500, 5]);
        for stats in [&bare, &supervised] {
            assert_eq!(stats.processed, bare.processed);
            assert_eq!(stats.emitted, bare.emitted);
            assert_eq!(
                (
                    stats.faults_injected,
                    stats.tasks_restarted,
                    stats.rounds_replayed,
                ),
                (0, 0, 0)
            );
            assert!(stats.degraded_tasks.is_empty());
        }
    }

    /// A spout kill truncates the stream but the run still terminates with
    /// the spout marked degraded.
    #[test]
    fn spout_kill_truncates_but_terminates() {
        let seen = Log::default();
        let mut tb = TopologyBuilder::new();
        let src = tb.add_spout("src", 1, |_| Box::new(1u64..=500));
        let sink = taps(&mut tb, 1, &seen);
        tb.connect(src, "out", sink, Grouping::Shuffle);
        let stats = try_run_threaded_batched(
            tb.build(),
            ThreadedConfig {
                supervision: Some(SuperviseConfig {
                    faults: vec![FaultSpec::KillTask {
                        component: src,
                        task: 0,
                        after_messages: 100,
                    }],
                    ..SuperviseConfig::default()
                }),
                ..ThreadedConfig::default()
            },
            BatchPolicy::new(8, |_| false),
        )
        .expect("supervised run");
        assert_eq!(stats.faults_injected, 1);
        assert_eq!(stats.degraded_tasks, vec![(src, 0)]);
        assert_eq!(seen.lock().unwrap().len(), 100);
    }
}
