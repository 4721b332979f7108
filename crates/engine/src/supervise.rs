//! Supervision of the threaded runtime: fault injection, checkpointed
//! recovery, graceful degradation.
//!
//! Unsupervised, the runtime treats a panicking task as fatal: the panic
//! propagates out of the join path and the run is lost. With
//! [`ThreadedConfig::supervision`](crate::ThreadedConfig::supervision) set,
//! the task loop routes every envelope through a per-task supervisor, which
//! wraps the operator callback in `catch_unwind`:
//!
//! 1. **Detect** — a panic inside `on_message`/`on_batch` is caught; the
//!    message loop, channels and emitter survive.
//! 2. **Decide** — a per-component [`RestartPolicy`] grants bounded retries
//!    with exponential backoff. Backoff is measured in *processed-message
//!    counts*, not wall clock, so recovery decisions replay deterministically
//!    under test.
//! 3. **Recover** — the bolt is rebuilt from its component factory and
//!    restored from the latest *checkpoint* ([`crate::topology::Bolt::checkpoint`] /
//!    [`crate::topology::Bolt::restore`]), captured after every barrier message (round
//!    ticks, fences — the protocol's consistent cut points). For
//!    [`crate::topology::Bolt::replayable`] bolts the supervisor also keeps a *replay
//!    buffer* of every envelope since the last checkpoint and re-feeds it,
//!    so the open round's work is redone byte-for-byte.
//! 4. **Degrade** — when retries are exhausted the task is *tombstoned*:
//!    [`crate::topology::Bolt::tombstone`] installs a stand-in that keeps the control
//!    protocols live (fences answered, round barriers forwarded) while doing
//!    no real work, so the run finishes with a partial-but-honest report
//!    instead of wedging the topology. A run with zero live instances of an
//!    operator still terminates.
//!
//! A *starvation detector* backstops the post-end-of-stream drain: if a task
//! is owed a control message that will never arrive (its sender died, or a
//! fault plan dropped the message), the drain would otherwise spin forever.
//! After [`SuperviseConfig::drain_patience`] consecutive empty polls in that
//! state, the task force-degrades and the run completes.
//!
//! # Deterministic fault injection
//!
//! [`FaultSpec`] describes *when* to hurt a task in terms of its own message
//! counts — "kill calculator task 2 after its 1000th message", "drop the
//! 1st control envelope into task 0". Counts, not timers: the same plan on
//! the same input produces the same fault at the same point in the stream,
//! every run. Injected panics carry an `"injected fault"` payload prefix so
//! [`ThreadStats::faults_injected`] can tell them apart from genuine bugs
//! surfacing mid-test.

use crate::threaded::{decode_panic, feed, Envelope, RunError, ThreadStats, ThreadedEmitter};
use crate::topology::{Bolt, BoltFactory, ComponentId, Emitter};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How often a failing task may be restarted, and how long it must behave
/// before its failure count resets.
#[derive(Debug, Clone, Copy)]
pub struct RestartPolicy {
    /// Consecutive restarts granted before the task degrades. `0` means a
    /// single failure tombstones the task immediately.
    pub max_restarts: u32,
    /// Backoff unit, in processed messages: after the `k`-th consecutive
    /// failure the task must process `backoff_base << (k-1)` messages
    /// without failing before its failure count resets. No wall clock is
    /// consulted anywhere in the restart decision.
    pub backoff_base: u64,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy {
            max_restarts: 2,
            backoff_base: 64,
        }
    }
}

/// One deterministic fault, scheduled against a task's own message counts.
#[derive(Debug, Clone)]
pub enum FaultSpec {
    /// Panic inside the task's callback just before it would process the
    /// message after its `after_messages`-th. Fires once.
    KillTask {
        /// Component to hurt.
        component: ComponentId,
        /// Task (instance) index within the component.
        task: usize,
        /// Processed-message count at which the kill fires.
        after_messages: u64,
    },
    /// Silently discard the `nth` (1-indexed) control-inbox envelope bound
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
    /// Restart policy applied to every component.
    pub restart: RestartPolicy,
    /// Deterministic fault schedule (empty = supervise only).
    pub faults: Vec<FaultSpec>,
    /// Consecutive empty polls tolerated in the post-Eos drain while the
    /// bolt still reports un-drained, before force-degrading it (the lost
    /// control message is never coming). Polls park ~50µs, so the default
    /// ≈ 3s of silence.
    pub drain_patience: u64,
    /// Invoked (component, task) whenever a task degrades, before the run
    /// finishes — lets the embedding route around the dead operator while
    /// the topology is still live.
    pub on_degrade: Option<Arc<dyn Fn(ComponentId, usize) + Send + Sync>>,
}

impl Default for SuperviseConfig {
    fn default() -> Self {
        SuperviseConfig {
            restart: RestartPolicy::default(),
            faults: Vec::new(),
            drain_patience: 60_000,
            on_degrade: None,
        }
    }
}

impl std::fmt::Debug for SuperviseConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SuperviseConfig")
            .field("restart", &self.restart)
            .field("faults", &self.faults)
            .field("drain_patience", &self.drain_patience)
            .field("on_degrade", &self.on_degrade.as_ref().map(|_| ".."))
            .finish()
    }
}

/// Default tombstone: drops every message, emits nothing, always drained.
struct Blackhole;

impl<M: Send> Bolt<M> for Blackhole {
    fn on_message(&mut self, _msg: M, _out: &mut dyn Emitter<M>) {}
    fn on_batch(&mut self, _msgs: Vec<M>, _out: &mut dyn Emitter<M>) {}
}

/// Shared counters the task supervisors report into.
#[derive(Default)]
struct Ledger {
    faults_injected: AtomicU64,
    tasks_restarted: AtomicU64,
    rounds_replayed: AtomicU64,
    send_timeouts: AtomicU64,
    degraded: Mutex<Vec<(ComponentId, usize)>>,
}

/// Run-wide supervision state: the configuration every task consults and
/// the ledger they report into.
pub(crate) struct Supervisor {
    config: SuperviseConfig,
    ledger: Ledger,
}

impl Supervisor {
    pub(crate) fn new(config: SuperviseConfig) -> Arc<Self> {
        Arc::new(Supervisor {
            config,
            ledger: Ledger::default(),
        })
    }

    /// The kill threshold scheduled for (component, task), if any.
    pub(crate) fn kill_for(&self, component: ComponentId, task: usize) -> Option<u64> {
        self.config.faults.iter().find_map(|f| match f {
            FaultSpec::KillTask {
                component: fc,
                task: ft,
                after_messages,
            } if *fc == component && *ft == task => Some(*after_messages),
            _ => None,
        })
    }

    /// The control-envelope ordinals scheduled to be dropped for
    /// (component, task).
    fn drops_for(&self, component: ComponentId, task: usize) -> Vec<u64> {
        self.config
            .faults
            .iter()
            .filter_map(|f| match f {
                FaultSpec::DropControl {
                    component: fc,
                    task: ft,
                    nth,
                } if *fc == component && *ft == task => Some(*nth),
                _ => None,
            })
            .collect()
    }

    /// Count one caught panic by kind: a scheduled fault (payload prefixed
    /// `"injected fault"`), a send timeout, or neither.
    fn note_panic(&self, payload: &(dyn std::any::Any + Send)) {
        let (structured, message) = decode_panic(payload);
        if message.starts_with("injected fault") {
            self.ledger.faults_injected.fetch_add(1, Ordering::Relaxed);
        }
        if matches!(structured, Some(RunError::SendTimeout { .. })) {
            self.ledger.send_timeouts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record (component, task) as degraded and tell the embedding.
    fn note_degraded(&self, component: ComponentId, task: usize) {
        self.ledger
            .degraded
            .lock()
            .expect("ledger lock")
            .push((component, task));
        if let Some(cb) = &self.config.on_degrade {
            cb(component, task);
        }
    }

    /// A panic nothing can retry (a spout's stream, a bolt's final flush):
    /// count it and disclose the task as degraded.
    pub(crate) fn task_lost(
        &self,
        component: ComponentId,
        task: usize,
        payload: &(dyn std::any::Any + Send),
    ) {
        self.note_panic(payload);
        self.note_degraded(component, task);
    }

    /// Fold the ledger into the run's stats (after every task joined).
    pub(crate) fn fold_into(&self, stats: &mut ThreadStats) {
        stats.faults_injected = self.ledger.faults_injected.load(Ordering::Relaxed);
        stats.tasks_restarted = self.ledger.tasks_restarted.load(Ordering::Relaxed);
        stats.rounds_replayed = self.ledger.rounds_replayed.load(Ordering::Relaxed);
        stats.send_timeouts = self.ledger.send_timeouts.load(Ordering::Relaxed);
        let mut degraded = self.ledger.degraded.lock().expect("ledger lock").clone();
        degraded.sort_unstable();
        degraded.dedup();
        stats.degraded_tasks = degraded;
    }
}

/// Per-task supervisor state for one bolt task. The task loop owns the
/// bolt and the redelivery queue; this owns everything recovery needs.
pub(crate) struct TaskSupervisor<M> {
    run: Arc<Supervisor>,
    component: ComponentId,
    task: usize,
    factory: Arc<Mutex<BoltFactory<M>>>,
    /// The batching policy's barrier predicate: a barrier message marks a
    /// checkpointable cut.
    barrier: Arc<dyn Fn(&M) -> bool + Send + Sync>,
    /// Latest barrier checkpoint (None until the bolt produces one).
    checkpoint: Option<Box<dyn std::any::Any + Send>>,
    /// Envelopes since the last checkpoint, for replayable bolts.
    replay: Vec<Envelope<M>>,
    replay_overflow: bool,
    can_replay: bool,
    /// Messages successfully processed (drives kill scheduling + backoff).
    msgs_seen: u64,
    consecutive_failures: u32,
    cooldown: u64,
    kill_at: Option<u64>,
    /// Control-envelope ordinals still scheduled to be dropped.
    drop_nths: Vec<u64>,
    ctl_seen: u64,
    degraded: bool,
}

impl<M: Clone + Send + 'static> TaskSupervisor<M> {
    pub(crate) fn new(
        run: Arc<Supervisor>,
        component: ComponentId,
        task: usize,
        factory: Arc<Mutex<BoltFactory<M>>>,
        bolt: &dyn Bolt<M>,
        barrier: Arc<dyn Fn(&M) -> bool + Send + Sync>,
    ) -> Self {
        let checkpoint = bolt.checkpoint();
        TaskSupervisor {
            kill_at: run.kill_for(component, task),
            drop_nths: run.drops_for(component, task),
            run,
            component,
            task,
            factory,
            barrier,
            can_replay: bolt.replayable() && checkpoint.is_some(),
            checkpoint,
            replay: Vec::new(),
            replay_overflow: false,
            msgs_seen: 0,
            consecutive_failures: 0,
            cooldown: 0,
            ctl_seen: 0,
            degraded: false,
        }
    }

    /// Empty polls the post-Eos drain tolerates before force-degrading.
    pub(crate) fn drain_patience(&self) -> u64 {
        self.run.config.drain_patience
    }

    /// Count one control-inbox envelope; true when the fault schedule says
    /// to swallow it (the scheduled lost message — the starvation detector
    /// is what digs the topology out of the resulting wedge).
    pub(crate) fn drops_control(&mut self) -> bool {
        self.ctl_seen += 1;
        let Some(pos) = self.drop_nths.iter().position(|&nth| nth == self.ctl_seen) else {
            return false;
        };
        self.drop_nths.swap_remove(pos);
        self.run
            .ledger
            .faults_injected
            .fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Install the tombstone stand-in; the message loop keeps running so
    /// the control protocols (fences, barriers) stay live downstream.
    pub(crate) fn degrade(&mut self, bolt: &mut Box<dyn Bolt<M>>) {
        if self.degraded {
            return;
        }
        self.degraded = true;
        *bolt = bolt.tombstone().unwrap_or_else(|| Box::new(Blackhole));
        self.checkpoint = None;
        self.replay.clear();
        self.can_replay = false;
        self.kill_at = None;
        self.run.note_degraded(self.component, self.task);
    }

    /// Handle one panic out of a callback: count it, then restart (rebuild
    /// + restore + queue the replay buffer) or degrade per policy.
    fn recover(
        &mut self,
        bolt: &mut Box<dyn Bolt<M>>,
        payload: Box<dyn std::any::Any + Send>,
        pending: &mut VecDeque<Envelope<M>>,
    ) {
        self.run.note_panic(&*payload);
        let policy = self.run.config.restart;
        self.consecutive_failures += 1;
        if self.consecutive_failures > policy.max_restarts {
            self.degrade(bolt);
            return;
        }
        self.run
            .ledger
            .tasks_restarted
            .fetch_add(1, Ordering::Relaxed);
        // A backoff of `2^64` messages just means "never resets within
        // this run".
        self.cooldown = policy
            .backoff_base
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
                self.run
                    .ledger
                    .rounds_replayed
                    .fetch_add(1, Ordering::Relaxed);
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
    pub(crate) fn process(
        &mut self,
        bolt: &mut Box<dyn Bolt<M>>,
        env: Envelope<M>,
        emitter: &mut ThreadedEmitter<M>,
        pending: &mut VecDeque<Envelope<M>>,
    ) -> u64 {
        if matches!(env, Envelope::Eos) {
            return 0;
        }
        let barrier = matches!(&env, Envelope::Data(m) if (self.barrier)(m));
        let inject = !self.degraded && self.kill_at.is_some_and(|at| self.msgs_seen >= at);
        if inject {
            self.kill_at = None;
        }
        // Replayable bolts buffer the envelope *before* processing: a panic
        // mid-callback then redoes it from the checkpoint, byte-for-byte.
        // Non-replayable bolts get clone-once redelivery only for injected
        // kills, which fire before the callback touches anything.
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
                if (barrier || emitter.barrier_emitted) && !self.degraded {
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
    pub(crate) fn flush(&self, bolt: &mut dyn Bolt<M>, emitter: &mut ThreadedEmitter<M>) {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| bolt.on_flush(emitter))) {
            self.run.task_lost(self.component, self.task, &*payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::threaded::{try_run_threaded_batched, BatchPolicy, ThreadedConfig, DRAIN_BURST};
    use crate::topology::{Grouping, TopologyBuilder};
    use std::sync::mpsc;
    use std::sync::Mutex as StdMutex;

    /// Closed once the spout has emitted its whole stream; see [`Acc`].
    type Gate = Arc<StdMutex<mpsc::Receiver<()>>>;

    /// A checkpointable, replayable accumulator: folds values into an
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
        fn replayable(&self) -> bool {
            true
        }
    }

    struct Collect {
        seen: Arc<StdMutex<Vec<u64>>>,
    }

    impl Bolt<u64> for Collect {
        fn on_message(&mut self, m: u64, _o: &mut dyn Emitter<u64>) {
            self.seen.lock().unwrap().push(m);
        }
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
        let seen: Arc<StdMutex<Vec<u64>>> = Arc::new(StdMutex::new(Vec::new()));
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
        let sink = {
            let seen = seen.clone();
            tb.add_bolt("sink", 1, move |_| {
                Box::new(Collect { seen: seen.clone() }) as Box<dyn Bolt<u64>>
            })
        };
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
        let totals = seen.lock().unwrap().clone();
        (totals, stats)
    }

    fn kill_acc_after(after_messages: u64) -> Option<SuperviseConfig> {
        Some(SuperviseConfig {
            faults: vec![FaultSpec::KillTask {
                component: 1,
                task: 0,
                after_messages,
            }],
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
                    restart: RestartPolicy {
                        max_restarts: 1,
                        backoff_base: 4,
                    },
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
                    drain_patience: 200, // ≈10ms of silence, keeps the test fast
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
                    stats.send_timeouts,
                ),
                (0, 0, 0, 0)
            );
            assert!(stats.degraded_tasks.is_empty());
        }
    }

    /// A spout kill truncates the stream but the run still terminates with
    /// the spout marked degraded.
    #[test]
    fn spout_kill_truncates_but_terminates() {
        let seen: Arc<StdMutex<Vec<u64>>> = Arc::new(StdMutex::new(Vec::new()));
        let mut tb = TopologyBuilder::new();
        let src = tb.add_spout("src", 1, |_| Box::new(1u64..=500));
        let sink = {
            let seen = seen.clone();
            tb.add_bolt("sink", 1, move |_| {
                Box::new(Collect { seen: seen.clone() }) as Box<dyn Bolt<u64>>
            })
        };
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
