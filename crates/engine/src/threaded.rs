//! Multi-threaded runtime: one OS thread per task, crossbeam channels — and
//! the task code both runtimes run.
//!
//! This is the "real" execution mode, demonstrating that the operator state
//! machines tolerate genuine parallelism. The tasks (`SpoutTask`,
//! `BoltTask`), their emitter and its grouping logic (`route_one`) are
//! generic over where an envelope goes (`Port`): a channel sender here, the
//! executor's queue in the [sim](crate::sim), which steps the very same
//! tasks one delivery at a time. Only the interleaving differs (and
//! therefore anything order-sensitive, exactly as on a Storm cluster).
//!
//! Every bolt task consumes one inbox with two lanes: a bounded data lane
//! (backpressure) and an unbounded control lane that the feedback edges
//! send into. The task parks in one place, a receive on both lanes that
//! serves data first, and hands what it receives to `BoltTask::step`.
//!
//! Shutdown protocol: every producer task, once exhausted (spout) or fully
//! flushed (bolt), broadcasts one `Eos` marker over each *non-feedback*
//! outgoing edge. A bolt task flushes after collecting `Eos` from every
//! upstream producer task — then keeps draining its control lane until
//! [`Bolt::drained`] holds, so in-flight peer-to-peer control exchanges
//! (live state migrations) finish before the flush. Feedback edges never
//! carry `Eos` (they'd form a cycle) — messages arriving on them after a
//! task finally shuts down are dropped, mirroring a Storm worker ignoring
//! tuples for a dead executor.
//!
//! # Channel batching
//!
//! Every run carries a [`BatchPolicy`] (see [`run_threaded_batched`]):
//! high-volume data messages are accumulated into per-destination batch
//! envelopes instead of paying one channel send per message (depth 1 sends
//! one message per envelope). Correctness is preserved by the flush rules:
//!
//! * all edges from one producer task to one consumer task share a single
//!   batch buffer (they already share the consumer's FIFO inbox), so batching
//!   can never reorder messages between a producer/consumer pair;
//! * a *barrier* message (the policy's predicate — ticks, fences, partition
//!   and migration control traffic) first flushes every buffer the emitter
//!   holds, then travels unbatched, so nothing it must causally follow is
//!   still sitting in a buffer;
//! * `Eos` flushes everything, so shutdown sees the complete stream;
//! * feedback edges never batch — they carry low-volume control messages
//!   whose latency bounds the repartition/migration protocols.
//!
//! # Supervision
//!
//! There is one bolt step (`BoltTask::step`). With
//! [`ThreadedConfig::supervision`] unset it calls the operator callbacks
//! directly and a panic unwinds to the join path, failing the run with a
//! [`RunError`]. With it set, the same step routes every envelope through a
//! per-task supervisor (`catch_unwind`, checkpointed restarts, replay,
//! degradation — see [`crate::supervise`]).

use crate::supervise::{SuperviseConfig, TaskFaults, TaskSupervisor};
use crate::topology::{Bolt, ComponentId, ComponentKind, Emitter, Grouping, Spout, Topology};
use crossbeam::channel::{bounded, inbox, Lane, Received, Receiver, Sender};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Structured failure of a threaded run — *which* operator died and why,
/// instead of a bare panic message out of a `join().expect(..)`.
///
/// Returned by [`try_run_threaded_batched`]; [`run_threaded_batched`]
/// panics with the `Display` rendering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// A task thread panicked (and no supervisor absorbed it).
    TaskPanicked {
        /// Component name (declaration name in the topology).
        component: String,
        /// Component id.
        id: ComponentId,
        /// Task (instance) index within the component.
        task: usize,
        /// The panic payload, rendered.
        message: String,
    },
    /// An `emit_direct`/`emit_direct_batch` call named an edge that was
    /// never declared.
    UndeclaredDirectEdge {
        /// Stream name used by the emit call.
        stream: &'static str,
        /// Consumer component the call named.
        to: ComponentId,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::TaskPanicked {
                component,
                id,
                task,
                message,
            } => write!(
                f,
                "task {component}[{task}] (component {id}) panicked: {message}"
            ),
            RunError::UndeclaredDirectEdge { stream, to } => {
                write!(f, "emit_direct on undeclared Direct edge :{stream} -> {to}")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Render a panic payload: a [`RunError`] thrown via `panic_any` surfaces
/// as itself; `String`/`&str` payloads render verbatim.
pub(crate) fn decode_panic(payload: &(dyn std::any::Any + Send)) -> (Option<RunError>, String) {
    if let Some(e) = payload.downcast_ref::<RunError>() {
        return (Some(e.clone()), e.to_string());
    }
    if let Some(s) = payload.downcast_ref::<String>() {
        return (None, s.clone());
    }
    if let Some(s) = payload.downcast_ref::<&str>() {
        return (None, (*s).to_string());
    }
    (None, "opaque panic payload".to_string())
}

/// What task `task` of component `c` (named in `names`) dying with
/// `payload` fails the run with.
pub(crate) fn task_error(
    payload: &(dyn std::any::Any + Send),
    names: &[String],
    c: ComponentId,
    task: usize,
) -> RunError {
    let (structured, message) = decode_panic(payload);
    structured.unwrap_or(RunError::TaskPanicked {
        component: names[c].clone(),
        id: c,
        task,
        message,
    })
}

/// Per-run statistics of an execution, threaded or sim (whose runs leave
/// the wall-clock and channel fields zero).
#[derive(Debug, Clone, Default)]
pub struct ThreadStats {
    /// Data messages processed per component.
    pub processed: Vec<u64>,
    /// Data messages emitted per component.
    pub emitted: Vec<u64>,
    /// Wall-clock seconds spent inside operator callbacks
    /// (`on_message`/`on_batch`/`on_flush`, spout production loops): one
    /// inner vector per component, one entry per task (instance), so "one
    /// hot instance" and "N evenly-loaded instances" stay distinguishable.
    /// Includes time blocked on downstream backpressure inside an emit —
    /// this is *attribution* of wall time, not pure CPU time, so the
    /// per-operator shares of a run sum to roughly `tasks × elapsed` on an
    /// idle machine.
    pub task_busy_seconds: Vec<Vec<f64>>,
    /// Transport contention, per component: how many times a *producer*
    /// parked because this component's inboxes were full (backpressure
    /// stalls). Spouts have no inbox and report zero. Summed over the
    /// component's tasks; only the data lane ever fills.
    pub channel_send_waits: Vec<u64>,
    /// Transport contention, per component: how many times this component's
    /// tasks parked waiting for input (empty inboxes), summed over its
    /// tasks. A park waits on both lanes of the inbox and counts once.
    pub channel_recv_waits: Vec<u64>,
    /// Faults fired by the [`FaultSpec`](crate::FaultSpec) schedule (kills,
    /// drops) plus any topology-level injected panics (payload prefixed
    /// `"injected fault"`). This and the three counters below stay zero
    /// (empty) when [`ThreadedConfig::supervision`] is unset. Each task
    /// counts its own; the run sums them when it joins the task.
    pub faults_injected: u64,
    /// Successful restarts (rebuild + restore) performed.
    pub tasks_restarted: u64,
    /// Recoveries that re-fed a replay buffer (one open round's tail each).
    pub rounds_replayed: u64,
    /// Tasks that exhausted their restart budget (or starved in the drain)
    /// and were tombstoned, in (component, task) order.
    pub degraded_tasks: Vec<(ComponentId, usize)>,
}

impl ThreadStats {
    /// Zeroed stats shaped for `topology`.
    pub(crate) fn new<M>(topology: &Topology<M>) -> Self {
        let specs = &topology.components;
        let zeros = vec![0; specs.len()];
        ThreadStats {
            processed: zeros.clone(),
            emitted: zeros.clone(),
            task_busy_seconds: specs.iter().map(|s| vec![0.0; s.parallelism]).collect(),
            channel_send_waits: zeros.clone(),
            channel_recv_waits: zeros,
            ..ThreadStats::default()
        }
    }

    /// Fold in the result of task `t` of component `c`.
    pub(crate) fn add(&mut self, c: ComponentId, t: usize, result: TaskResult) {
        self.processed[c] += result.processed;
        self.emitted[c] += result.emitted;
        self.task_busy_seconds[c][t] = result.busy.as_secs_f64();
        let faults = result.faults;
        self.faults_injected += faults.faults_injected;
        self.tasks_restarted += faults.tasks_restarted;
        self.rounds_replayed += faults.rounds_replayed;
        if faults.degraded {
            self.degraded_tasks.push((c, t));
        }
    }
}

/// Tunables of the threaded runtime.
#[derive(Debug, Clone)]
pub struct ThreadedConfig {
    /// Capacity of each bolt task's inbox data lane. Bounded inboxes give
    /// *backpressure*: fast producers block until consumers catch up, like a
    /// paced (tps-limited) source on a real cluster. Feedback edges bypass
    /// the bound through the unbounded control lane (they are control
    /// messages flowing against the data direction; blocking on them could
    /// deadlock the cycle).
    pub inbox_capacity: usize,
    /// `Some` runs every task under supervision: callbacks in
    /// `catch_unwind`, bounded restarts from barrier checkpoints, graceful
    /// degradation, and the config's deterministic fault schedule. `None`
    /// (the default) calls the callbacks bare — a panicking task fails the
    /// run with a [`RunError`].
    pub supervision: Option<SuperviseConfig>,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            inbox_capacity: 1024,
            supervision: None,
        }
    }
}

#[derive(Clone)]
pub(crate) enum Envelope<M> {
    Data(M),
    /// Several data messages in emission order, sent as one channel
    /// operation (see the module docs' batching rules).
    Batch(Vec<M>),
    Eos,
}

/// Batching tunables for [`run_threaded_batched`].
///
/// `barrier` classifies messages that *must not* be batched and that flush
/// every pending buffer of the emitting task before being sent — round
/// ticks, epoch fences, repartition/addition control traffic: anything
/// whose FIFO position relative to earlier data messages is load-bearing,
/// or whose latency bounds a control loop.
pub struct BatchPolicy<M> {
    /// Messages accumulated per destination before a flush (≥ 1).
    pub max_batch: usize,
    /// True for messages that act as flush barriers and travel unbatched.
    pub barrier: Arc<dyn Fn(&M) -> bool + Send + Sync>,
}

impl<M> Clone for BatchPolicy<M> {
    fn clone(&self) -> Self {
        BatchPolicy {
            max_batch: self.max_batch,
            barrier: self.barrier.clone(),
        }
    }
}

impl<M> BatchPolicy<M> {
    /// Policy batching up to `max_batch` messages, with `barrier` marking
    /// the messages that flush and bypass the buffers.
    pub fn new(max_batch: usize, barrier: impl Fn(&M) -> bool + Send + Sync + 'static) -> Self {
        BatchPolicy {
            max_batch: max_batch.max(1),
            barrier: Arc::new(barrier),
        }
    }
}

/// Recycles batch `Vec<M>` allocations through the topology: emitters draw
/// flush buffers from here instead of allocating one per flush, and
/// consumers hand spent batch vectors back via
/// [`Emitter::recycle`](crate::topology::Emitter::recycle). Backed by a
/// bounded channel (the same mutex-guarded queue as the data edges), so a
/// get/put is one short critical section; an empty pool falls back to a
/// fresh allocation and a full pool lets the returned vector drop.
struct BatchPool<M> {
    tx: Sender<Vec<M>>,
    rx: Receiver<Vec<M>>,
    max_batch: usize,
}

impl<M> BatchPool<M> {
    /// Buffers retained across the whole topology; beyond this, returned
    /// vectors are simply freed.
    const POOL_SLOTS: usize = 256;

    fn new(max_batch: usize) -> Arc<Self> {
        let (tx, rx) = bounded(Self::POOL_SLOTS);
        Arc::new(BatchPool { tx, rx, max_batch })
    }

    fn get(&self) -> Vec<M> {
        self.rx
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(self.max_batch))
    }

    /// Keep `spent` for reuse if it can hold a whole batch; a smaller
    /// vector would only regrow as a flush buffer, so it drops instead.
    fn put(&self, mut spent: Vec<M>) {
        if spent.capacity() < self.max_batch {
            return;
        }
        spent.clear();
        let _ = self.tx.try_send(spent);
    }
}

/// Where a task's envelopes to one lane of one consumer task go: a channel
/// sender on the threaded runtime, the executor's queue on the sim.
pub(crate) trait Port<M>: Clone {
    /// True for the threaded runtime: destinations batch per consumer task
    /// and callbacks are timed. The sim port does neither, so a sim emitter
    /// holds nothing back and no sim step reads a clock.
    const THREADED: bool;

    /// Deliver one envelope. A send into a consumer that already shut down
    /// (possible only on feedback paths) is dropped silently, mirroring a
    /// Storm worker ignoring tuples for a dead executor.
    fn send(&self, env: Envelope<M>);

    /// Deliver a burst of envelopes, in order.
    fn send_many(&self, envs: Vec<Envelope<M>>) {
        envs.into_iter().for_each(|env| self.send(env));
    }
}

impl<M> Port<M> for Sender<Envelope<M>> {
    const THREADED: bool = true;

    fn send(&self, env: Envelope<M>) {
        let _ = Sender::send(self, env);
    }

    fn send_many(&self, envs: Vec<Envelope<M>>) {
        let _ = Sender::send_many(self, envs);
    }
}

struct EdgeRt<M, P> {
    stream: &'static str,
    to: ComponentId,
    grouping: Grouping<M>,
    feedback: bool,
    /// One port per consumer task.
    senders: Vec<P>,
}

/// One producer component's routing table, shared across its tasks.
type Routes<M, P> = Arc<Vec<EdgeRt<M, P>>>;

/// One destination's (consumer task's) outgoing batch accumulator.
struct BatchBuf<M, P> {
    sender: P,
    buf: Vec<M>,
}

/// Slot marker for destinations that never batch (feedback edges, and
/// every destination of a sim task).
const UNBATCHED: usize = usize::MAX;

/// A task's outgoing side: one batch buffer per *distinct* non-feedback
/// destination task (shared by every edge pointing at it) and the count of
/// messages sent. Threaded sends block while the consumer's inbox is full
/// (backpressure).
struct Outbox<M, P> {
    max_batch: usize,
    barrier: Arc<dyn Fn(&M) -> bool + Send + Sync>,
    bufs: Vec<BatchBuf<M, P>>,
    /// Topology-wide recycler the flush paths draw replacement buffers
    /// from, fed by consumers returning spent batch vectors.
    pool: Arc<BatchPool<M>>,
    /// Data messages sent (buffered or delivered).
    emitted: u64,
}

impl<M, P: Port<M>> Outbox<M, P> {
    /// Send buffer `slot` as one batch envelope.
    fn flush(&mut self, slot: usize) {
        let dest = &mut self.bufs[slot];
        let batch = std::mem::replace(&mut dest.buf, self.pool.get());
        dest.sender.send(Envelope::Batch(batch));
    }

    /// Flush every pending batch buffer (barrier messages and Eos call this).
    fn flush_all(&mut self) {
        for slot in 0..self.bufs.len() {
            if !self.bufs[slot].buf.is_empty() {
                self.flush(slot);
            }
        }
    }

    /// Send `msg` to one destination: buffered when batching applies to this
    /// destination (`slot`), directly otherwise.
    fn send(&mut self, slot: usize, sender: &P, msg: M, batch_this: bool) {
        self.emitted += 1;
        if batch_this && slot != UNBATCHED {
            let buf = &mut self.bufs[slot].buf;
            buf.push(msg);
            if buf.len() >= self.max_batch {
                self.flush(slot);
            }
        } else {
            sender.send(Envelope::Data(msg));
        }
    }

    /// Send a whole batch to one destination: full batches bypass the
    /// buffer as one envelope; partial ones append to it (one `extend`, no
    /// per-message dispatch), flushing first if they would overflow it.
    /// Keeps the channel-operation count of the buffered path while
    /// skipping its per-message barrier checks and pushes.
    fn send_batch(&mut self, slot: usize, sender: &P, mut msgs: Vec<M>) {
        self.emitted += msgs.len() as u64;
        if slot == UNBATCHED {
            sender.send(Envelope::Batch(msgs));
            return;
        }
        let pending = self.bufs[slot].buf.len();
        if pending > 0 && pending + msgs.len() > self.max_batch {
            self.flush(slot);
        }
        if msgs.len() >= self.max_batch {
            deliver_chunked(sender, msgs, self.max_batch);
        } else {
            let buf = &mut self.bufs[slot].buf;
            buf.append(&mut msgs);
            self.pool.put(msgs);
            if buf.len() >= self.max_batch {
                self.flush(slot);
            }
        }
    }
}

/// Deliver an oversized batch as a burst of `max_batch`-sized envelopes
/// pushed with a single [`Port::send_many`] call — one synchronisation
/// point for the whole burst — keeping the inbox's capacity denomination
/// (messages per slot) honest instead of smuggling an arbitrarily large
/// batch through one queue slot. A disconnect mid-burst means the consumer
/// shut down: dropped silently, like a single envelope.
fn deliver_chunked<M, P: Port<M>>(sender: &P, msgs: Vec<M>, max_batch: usize) {
    if msgs.len() <= max_batch {
        sender.send(Envelope::Batch(msgs));
        return;
    }
    let mut iter = msgs.into_iter();
    let mut envs: Vec<Envelope<M>> = Vec::with_capacity(iter.len() / max_batch + 1);
    loop {
        let chunk: Vec<M> = iter.by_ref().take(max_batch).collect();
        if chunk.is_empty() {
            break;
        }
        envs.push(Envelope::Batch(chunk));
    }
    sender.send_many(envs);
}

/// Route one message over one non-direct edge, honouring per-destination
/// batching — the shared per-message path of [`Emitter::emit`] and the
/// spread-grouping arm of [`Emitter::emit_batch`], and the one copy of the
/// grouping logic both runtimes run.
fn route_one<M: Clone, P: Port<M>>(
    e: &EdgeRt<M, P>,
    edge_slots: &[usize],
    counter: &mut usize,
    outbox: &mut Outbox<M, P>,
    msg: &M,
    barrier: bool,
) {
    let p = e.senders.len();
    let task = match &e.grouping {
        Grouping::Shuffle => {
            let t = *counter % p;
            *counter += 1;
            t
        }
        Grouping::Global => 0,
        Grouping::Fields(f) => (f(msg) % p as u64) as usize,
        Grouping::All => {
            for (s, &slot) in e.senders.iter().zip(edge_slots) {
                outbox.send(slot, s, msg.clone(), !barrier);
            }
            return;
        }
        Grouping::Direct => unreachable!("filtered by callers"),
    };
    let (slot, sender) = (edge_slots[task], &e.senders[task]);
    outbox.send(slot, sender, msg.clone(), !barrier);
}

/// Envelopes a bolt task drains from its data lane per receive beyond the
/// one the receive returned: enough to empty a whole inbox of batch slots
/// in one claim, small enough that the control lane is never starved for
/// long (the next receive serves it once the data lane is empty).
pub(crate) const DRAIN_BURST: usize = 32;

/// A task's [`Emitter`], on either runtime.
pub(crate) struct TaskEmitter<M, P> {
    edges: Routes<M, P>,
    /// Per-edge, per-consumer-task batch buffer index ([`UNBATCHED`] for
    /// feedback edges and for sim ports).
    slots: Vec<Vec<usize>>,
    outbox: Outbox<M, P>,
    /// Per-edge round-robin counters (task-local; seeded by task index so
    /// parallel producers interleave over consumers).
    shuffle_counters: Vec<usize>,
    /// Set whenever this emitter sends a barrier message (per the batching
    /// policy); the supervisor reads-and-clears it to learn that the bolt
    /// just completed a checkpointable unit of progress (e.g. a parser
    /// emitting a round tick).
    pub(crate) barrier_emitted: bool,
}

impl<M, P: Port<M>> TaskEmitter<M, P> {
    fn new(
        edges: Routes<M, P>,
        task: usize,
        policy: &BatchPolicy<M>,
        pool: Arc<BatchPool<M>>,
    ) -> Self {
        let n_edges = edges.len();
        let mut slots: Vec<Vec<usize>> = Vec::with_capacity(n_edges);
        let mut bufs: Vec<BatchBuf<M, P>> = Vec::new();
        let mut slot_of: std::collections::HashMap<(ComponentId, usize), usize> =
            std::collections::HashMap::new();
        for e in edges.iter() {
            let mut edge_slots = Vec::with_capacity(e.senders.len());
            for (t, s) in e.senders.iter().enumerate() {
                if e.feedback || !P::THREADED {
                    edge_slots.push(UNBATCHED);
                    continue;
                }
                let slot = *slot_of.entry((e.to, t)).or_insert_with(|| {
                    bufs.push(BatchBuf {
                        sender: s.clone(),
                        buf: pool.get(),
                    });
                    bufs.len() - 1
                });
                edge_slots.push(slot);
            }
            slots.push(edge_slots);
        }
        TaskEmitter {
            edges,
            slots,
            outbox: Outbox {
                max_batch: policy.max_batch,
                barrier: policy.barrier.clone(),
                bufs,
                pool,
                emitted: 0,
            },
            shuffle_counters: vec![task; n_edges],
            barrier_emitted: false,
        }
    }

    /// True for a barrier message, which first flushes every buffer this
    /// emitter holds (so nothing it must causally follow is left behind)
    /// and then travels unbatched.
    fn flush_if_barrier(&mut self, msg: &M) -> bool {
        let barrier = (self.outbox.barrier)(msg);
        if barrier {
            self.barrier_emitted = true;
            self.outbox.flush_all();
        }
        barrier
    }

    /// Index of the declared Direct edge `stream` → `to`; an undeclared one
    /// fails the task with [`RunError::UndeclaredDirectEdge`].
    fn direct_edge(&self, stream: &'static str, to: ComponentId) -> usize {
        self.edges
            .iter()
            .position(|e| {
                e.stream == stream && e.to == to && matches!(e.grouping, Grouping::Direct)
            })
            .unwrap_or_else(|| std::panic::panic_any(RunError::UndeclaredDirectEdge { stream, to }))
    }

    /// Flush pending batches, then broadcast `Eos` over all non-feedback
    /// edges; returns the number of data messages this emitter sent.
    fn send_eos(mut self) -> u64 {
        self.outbox.flush_all();
        for e in self.edges.iter().filter(|e| !e.feedback) {
            for s in &e.senders {
                s.send(Envelope::Eos);
            }
        }
        self.outbox.emitted
    }
}

impl<M: Clone, P: Port<M>> Emitter<M> for TaskEmitter<M, P> {
    fn recycle(&mut self, spent: Vec<M>) {
        self.outbox.pool.put(spent);
    }

    fn emit(&mut self, stream: &'static str, msg: M) {
        let barrier = self.flush_if_barrier(&msg);
        let TaskEmitter {
            edges,
            slots,
            outbox,
            shuffle_counters,
            ..
        } = self;
        for (i, e) in edges.iter().enumerate() {
            if e.stream == stream && !matches!(e.grouping, Grouping::Direct) {
                route_one(
                    e,
                    &slots[i],
                    &mut shuffle_counters[i],
                    outbox,
                    &msg,
                    barrier,
                );
            }
        }
    }

    fn emit_batch(&mut self, stream: &'static str, msgs: Vec<M>) {
        if msgs.is_empty() {
            return;
        }
        // The fast path requires every message to be batchable; callers
        // only pass per-tuple data, but fall back rather than trust them.
        if msgs.iter().any(|m| (self.outbox.barrier)(m)) {
            for m in msgs {
                self.emit(stream, m);
            }
            return;
        }
        let TaskEmitter {
            edges,
            slots,
            outbox,
            shuffle_counters,
            ..
        } = self;
        let matching: Vec<usize> = edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.stream == stream && !matches!(e.grouping, Grouping::Direct))
            .map(|(i, _)| i)
            .collect();
        let mut remaining = Some(msgs);
        for (pos, &i) in matching.iter().enumerate() {
            let e = &edges[i];
            let last = pos + 1 == matching.len();
            // Destinations resolving to one consumer task take the whole
            // batch without per-message re-buffering; spread groupings
            // (fields, all, parallel shuffle) dispatch per message.
            let single = matches!(e.grouping, Grouping::Global)
                || (matches!(e.grouping, Grouping::Shuffle) && e.senders.len() == 1);
            if single {
                let batch = if last {
                    remaining.take().expect("taken only for the last edge")
                } else {
                    remaining.as_ref().expect("present until last").clone()
                };
                if matches!(e.grouping, Grouping::Shuffle) {
                    shuffle_counters[i] += batch.len();
                }
                outbox.send_batch(slots[i][0], &e.senders[0], batch);
            } else {
                for m in remaining.as_ref().expect("present until last").iter() {
                    route_one(e, &slots[i], &mut shuffle_counters[i], outbox, m, false);
                }
                if last {
                    remaining = None;
                }
            }
        }
    }

    fn emit_direct_batch(
        &mut self,
        stream: &'static str,
        to: ComponentId,
        task: usize,
        msgs: Vec<M>,
    ) {
        if msgs.is_empty() {
            return;
        }
        if msgs.iter().any(|m| (self.outbox.barrier)(m)) {
            for m in msgs {
                self.emit_direct(stream, to, task, m);
            }
            return;
        }
        let edge = self.direct_edge(stream, to);
        let (slot, sender) = (self.slots[edge][task], &self.edges[edge].senders[task]);
        self.outbox.send_batch(slot, sender, msgs);
    }

    fn emit_direct(&mut self, stream: &'static str, to: ComponentId, task: usize, msg: M) {
        let edge = self.direct_edge(stream, to);
        let barrier = self.flush_if_barrier(&msg);
        let (slot, sender) = (self.slots[edge][task], &self.edges[edge].senders[task]);
        self.outbox.send(slot, sender, msg, !barrier);
    }
}

/// One task of a topology, as [`build_tasks`] builds it.
pub(crate) enum Task<M, P> {
    Spout(SpoutTask<M, P>),
    Bolt(BoltTask<M, P>),
}

/// Build every task of `topology`, in (component, task) order, each with
/// its emitter: `port(index, lane)` is where an edge reaches the consumer
/// task at `index` in that order. Both runtimes start here.
pub(crate) fn build_tasks<M: Clone + 'static, P: Port<M>>(
    mut topology: Topology<M>,
    policy: &BatchPolicy<M>,
    supervision: Option<SuperviseConfig>,
    mut port: impl FnMut(usize, Lane) -> P,
) -> Vec<(ComponentId, usize, Task<M, P>)> {
    let components = &topology.components;
    // Expected Eos per bolt task = Σ over non-feedback in-edges of the
    // producer's parallelism.
    let mut quota = vec![0usize; components.len()];
    let mut routes: Vec<Vec<EdgeRt<M, P>>> = components.iter().map(|_| Vec::new()).collect();
    for e in topology.edges.drain(..) {
        let lane = if e.feedback {
            Lane::Control
        } else {
            quota[e.to] += components[e.from].parallelism;
            Lane::Data
        };
        // consumer tasks are indexed after every task declared before them
        let first: usize = components[..e.to].iter().map(|s| s.parallelism).sum();
        let consumers = first..first + components[e.to].parallelism;
        routes[e.from].push(EdgeRt {
            stream: e.stream,
            to: e.to,
            senders: consumers.map(|i| port(i, lane)).collect(),
            grouping: e.grouping,
            feedback: e.feedback,
        });
    }
    // One topology-wide recycler: spent batch vectors returned by consumers
    // become the producers' next flush buffers.
    let pool = BatchPool::new(policy.max_batch);
    let supervision = supervision.map(Arc::new);
    let mut tasks = Vec::new();
    for (c, (spec, routes)) in topology.components.into_iter().zip(routes).enumerate() {
        let routes = Arc::new(routes);
        let emitter = |t| TaskEmitter::new(routes.clone(), t, policy, pool.clone());
        match spec.kind {
            ComponentKind::Spout(mut factory) => {
                let stream = routes.first().map(|e| e.stream);
                assert!(
                    routes.iter().all(|e| Some(e.stream) == stream),
                    "spouts must use a single stream (wrap routing logic in a bolt)"
                );
                for t in 0..spec.parallelism {
                    let spout = SpoutTask {
                        id: (c, t),
                        spout: factory(t),
                        emitter: emitter(t),
                        kill_at: supervision
                            .as_ref()
                            .and_then(|s| s.schedule_for(c, t).0.first().copied()),
                        supervision: supervision.clone(),
                        produced: 0,
                        faults: TaskFaults::default(),
                    };
                    tasks.push((c, t, Task::Spout(spout)));
                }
            }
            ComponentKind::Bolt(factory) => {
                // Shared with the task supervisors, which rebuild a failed
                // task's bolt from it.
                let factory = Arc::new(Mutex::new(factory));
                for t in 0..spec.parallelism {
                    let bolt = (factory.lock().expect("factory lock"))(t);
                    let supervisor = supervision.as_ref().map(|s| {
                        let barrier = policy.barrier.clone();
                        TaskSupervisor::new(s.clone(), c, t, factory.clone(), &*bolt, barrier)
                    });
                    let bolt = BoltTask {
                        bolt,
                        emitter: emitter(t),
                        supervisor,
                        pending: VecDeque::new(),
                        quota: quota[c],
                        eos_seen: 0,
                        open: [true; 2],
                        processed: 0,
                        busy: Duration::ZERO,
                    };
                    tasks.push((c, t, Task::Bolt(bolt)));
                }
            }
        }
    }
    tasks
}

/// Run `topology` to completion with one thread per task and
/// per-destination channel batching: data messages accumulate into batch
/// envelopes, flushed on size (`policy.max_batch`), on every barrier
/// message (`policy.barrier` — ticks, fences, control traffic), and at
/// end-of-stream. See the module docs for why this cannot reorder a
/// producer→consumer FIFO. Panics with the [`RunError`] rendering if a
/// task dies unabsorbed.
pub fn run_threaded_batched<M: Clone + Send + 'static>(
    topology: Topology<M>,
    config: ThreadedConfig,
    policy: BatchPolicy<M>,
) -> ThreadStats {
    match try_run_threaded_batched(topology, config, policy) {
        Ok(stats) => stats,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`run_threaded_batched`]: a dead task surfaces as [`RunError`]
/// naming the operator instead of a bare panic out of the join path. Under
/// [`ThreadedConfig::supervision`] every *supervised* outcome — including
/// runs that degraded operators — is `Ok`.
///
/// This is the runtime: wire the topology, spawn one thread per task, join
/// them all, and sum the per-task results (supervision counts included) and
/// the channel counters into one [`ThreadStats`].
pub fn try_run_threaded_batched<M: Clone + Send + 'static>(
    topology: Topology<M>,
    config: ThreadedConfig,
    policy: BatchPolicy<M>,
) -> Result<ThreadStats, RunError> {
    // `inbox_capacity` is denominated in *messages*: each bounded-channel
    // slot can carry up to `max_batch` of them, so the slot count shrinks
    // accordingly. Otherwise batching would multiply the in-flight volume
    // by the batch depth and control responses (partition installs,
    // addition verdicts) would queue behind tens of thousands of buffered
    // tuples instead of ~one inbox's worth.
    let capacity = (config.inbox_capacity / policy.max_batch).max(1);
    let mut stats = ThreadStats::new(&topology);
    let names: Vec<String> = topology.components.iter().map(|s| s.name.clone()).collect();
    // One inbox per task (a spout's goes unused): a bounded data lane
    // (backpressure) and an unbounded control lane, which the feedback
    // edges send into.
    let (senders, inboxes): (Vec<_>, Vec<_>) = (0..topology.total_tasks())
        .map(|_| {
            let (data, control, rx) = inbox(capacity);
            ([data, control], rx)
        })
        .unzip();
    let tasks = build_tasks(topology, &policy, config.supervision, |i, lane| {
        senders[i][lane as usize].clone()
    });
    // Only the tasks hold senders now, so after a task dies without sending
    // Eos its consumers still terminate by observing disconnection.
    drop(senders);

    // (component, task, thread) per spawned task, and the contention
    // counters of every inbox by component: Arc'd snapshots of the
    // channels' own counters, readable after every endpoint is dropped,
    // which is how the run folds transport contention into the stats.
    let mut handles = Vec::new();
    let mut counters = Vec::new();
    for ((c, t, task), inbox) in tasks.into_iter().zip(inboxes) {
        let handle = match task {
            Task::Spout(spout) => thread::spawn(move || spout.run()),
            Task::Bolt(bolt) => {
                counters.push((c, inbox.counters()));
                thread::spawn(move || bolt.run(inbox))
            }
        };
        handles.push((c, t, handle));
    }

    // Join every handle (so no thread is leaked) before reporting the first
    // failure, structured with the identity of the operator that died.
    // Handles join in (component, task) order, which is the order
    // `degraded_tasks` lists them in.
    let mut first_error: Option<RunError> = None;
    for (c, t, handle) in handles {
        match handle.join() {
            Ok(result) => stats.add(c, t, result),
            Err(payload) => {
                first_error.get_or_insert_with(|| task_error(&*payload, &names, c, t));
            }
        }
    }
    if let Some(e) = first_error {
        return Err(e);
    }
    for (c, inbox) in &counters {
        stats.channel_send_waits[*c] += inbox.send_waits();
        stats.channel_recv_waits[*c] += inbox.recv_waits();
    }
    Ok(stats)
}

/// What each task reports back when it finishes.
pub(crate) struct TaskResult {
    processed: u64,
    emitted: u64,
    busy: Duration,
    faults: TaskFaults,
}

/// One spout task: the spout, its emitter and its fault schedule. A spout
/// has no upstream to replay it, so its supervision is detect-and-degrade:
/// a panic (or an injected kill) truncates the stream, Eos still goes out,
/// and the run finishes partial-but-honest. Unsupervised, the panic unwinds
/// out of the runtime.
pub(crate) struct SpoutTask<M, P> {
    id: (ComponentId, usize),
    spout: Box<dyn Spout<M>>,
    emitter: TaskEmitter<M, P>,
    supervision: Option<Arc<SuperviseConfig>>,
    /// The first scheduled kill: it ends the stream, so later ones never
    /// fire.
    kill_at: Option<u64>,
    produced: u64,
    faults: TaskFaults,
}

impl<M: Clone, P: Port<M>> SpoutTask<M, P> {
    /// Pull one message and emit it on the spout's one stream; false once
    /// the spout is exhausted.
    pub(crate) fn step(&mut self) -> bool {
        let Some(msg) = self.spout.next() else {
            return false;
        };
        if self.kill_at.is_some_and(|at| self.produced >= at) {
            std::panic::panic_any("injected fault: kill-task".to_string());
        }
        self.produced += 1;
        let stream = self.emitter.edges.first().map_or("out", |e| e.stream);
        self.emitter.emit(stream, msg);
        true
    }

    /// Run `pump` (some of [`SpoutTask::step`]) bare, or under supervision,
    /// where a panic ends the stream. Returns whether the stream goes on.
    pub(crate) fn pump(&mut self, pump: impl FnOnce(&mut Self) -> bool) -> bool {
        let Some(config) = self.supervision.clone() else {
            return pump(self);
        };
        catch_unwind(AssertUnwindSafe(|| pump(self))).unwrap_or_else(|payload| {
            self.faults.note_panic(&*payload);
            self.faults.note_degraded(&config, self.id.0, self.id.1);
            false
        })
    }

    /// Broadcast `Eos`, ending the task.
    pub(crate) fn finish(self, busy: Duration) -> TaskResult {
        TaskResult {
            processed: self.produced,
            emitted: self.emitter.send_eos(),
            busy,
            faults: self.faults,
        }
    }

    /// The threaded spout: pull the stream dry, then end.
    fn run(mut self) -> TaskResult {
        let start = Instant::now();
        self.pump(|spout| {
            while spout.step() {}
            false
        });
        let busy = start.elapsed();
        self.finish(busy)
    }
}

/// Hand one envelope to the bolt; returns the number of messages it
/// carried.
pub(crate) fn feed<M>(bolt: &mut dyn Bolt<M>, env: Envelope<M>, out: &mut dyn Emitter<M>) -> u64 {
    match env {
        Envelope::Data(msg) => {
            bolt.on_message(msg, out);
            1
        }
        Envelope::Batch(msgs) => {
            let n = msgs.len() as u64;
            bolt.on_batch(msgs, out);
            n
        }
        Envelope::Eos => 0,
    }
}

/// One bolt task: the operator, its emitter, and the message loop state.
pub(crate) struct BoltTask<M, P> {
    bolt: Box<dyn Bolt<M>>,
    emitter: TaskEmitter<M, P>,
    /// `None` runs the callbacks bare: no envelope clone, no checkpoint,
    /// no starvation clock, and a panic unwinds out of the step.
    supervisor: Option<TaskSupervisor<M>>,
    /// Envelopes awaiting (re)delivery. Only a supervisor's recovery ever
    /// fills it (the replay after a restart), and every step runs it dry.
    pending: VecDeque<Envelope<M>>,
    /// `Eos` markers that end the data side: one per upstream producer task
    /// and non-feedback edge.
    quota: usize,
    eos_seen: usize,
    /// Whether each lane (indexed by `Lane`) is still open.
    open: [bool; 2],
    processed: u64,
    busy: Duration,
}

impl<M: Clone + 'static, P: Port<M>> BoltTask<M, P> {
    /// Run one envelope through the operator — directly, or under the
    /// supervisor when there is one (which may queue redeliveries into
    /// `pending` instead of counting the envelope processed).
    fn handle(&mut self, env: Envelope<M>) {
        let t0 = P::THREADED.then(Instant::now);
        self.processed += match &mut self.supervisor {
            None => feed(&mut *self.bolt, env, &mut self.emitter),
            Some(sup) => sup.process(&mut self.bolt, env, &mut self.emitter, &mut self.pending),
        };
        if let Some(t0) = t0 {
            self.busy += t0.elapsed();
        }
    }

    /// Whether the data side is over: every upstream producer sent `Eos`,
    /// or the data lane closed.
    pub(crate) fn data_done(&self) -> bool {
        self.eos_seen >= self.quota || !self.open[Lane::Data as usize]
    }

    /// Whether the message loop is over. After the data side finishes, the
    /// task keeps taking feedback messages until the bolt reports
    /// `drained()` — the migration barrier: a peer bolt that owes us
    /// control messages cannot itself terminate before sending them (they
    /// are triggered by data messages preceding its own Eos), so
    /// unsupervised this wait always ends; supervised, a control message
    /// can be lost to a fault, so that wait has a deadline and silence past
    /// it degrades the task instead.
    pub(crate) fn finished(&self) -> bool {
        self.data_done() && (!self.open[Lane::Control as usize] || self.bolt.drained())
    }

    /// Take one delivery: a data envelope (`Eos` counts toward the quota),
    /// a control envelope (unless the fault plan swallows it), a lane's
    /// closure, or the drain deadline. Redeliveries a panic queued run
    /// before the step returns, so they precede everything received after
    /// them: the task's FIFO order survives a restart mid-burst.
    pub(crate) fn step(&mut self, got: Received<Envelope<M>>) {
        match got {
            Received::Msg(Lane::Data, Envelope::Eos) => self.eos_seen += 1,
            Received::Msg(Lane::Data, env) => self.handle(env),
            Received::Msg(Lane::Control, env) => {
                if !self.supervisor.as_mut().is_some_and(|s| s.drops_control()) {
                    self.handle(env);
                }
            }
            Received::Closed(lane) => self.open[lane as usize] = false,
            // Drain starvation: the owed control message was lost (dropped
            // by the fault plan, or its sender died). Waiting longer cannot
            // help — degrade so the run ends.
            Received::TimedOut => self
                .supervisor
                .as_mut()
                .expect("only a supervised drain has a deadline")
                .degrade(&mut self.bolt),
        }
        while let Some(env) = self.pending.pop_front() {
            self.handle(env);
        }
    }

    /// Flush the bolt (supervised, a panic here degrades the task), then
    /// broadcast `Eos`, ending the task.
    pub(crate) fn finish(mut self) -> TaskResult {
        let t0 = P::THREADED.then(Instant::now);
        match &mut self.supervisor {
            None => self.bolt.on_flush(&mut self.emitter),
            Some(sup) => sup.flush(&mut *self.bolt, &mut self.emitter),
        }
        if let Some(t0) = t0 {
            self.busy += t0.elapsed();
        }
        TaskResult {
            processed: self.processed,
            emitted: self.emitter.send_eos(),
            busy: self.busy,
            faults: self.supervisor.map(|s| s.faults).unwrap_or_default(),
        }
    }

    /// The threaded park: one receive on both lanes of the inbox (with the
    /// starvation deadline once a supervised task's data side is over),
    /// then the rest of a queued data burst pulled with one synchronisation
    /// point.
    fn run(mut self, inbox: Receiver<Envelope<M>>) -> TaskResult {
        // Reused drain buffer.
        let mut burst: Vec<Envelope<M>> = Vec::new();
        while !self.finished() {
            let deadline = match &self.supervisor {
                Some(sup) if self.data_done() => Some(Instant::now() + sup.config.drain_patience),
                _ => None,
            };
            let got = inbox.recv_lanes(self.open, deadline);
            let data = matches!(got, Received::Msg(Lane::Data, _));
            self.step(got);
            if data && inbox.recv_drain(&mut burst, DRAIN_BURST) > 0 {
                for env in burst.drain(..) {
                    self.step(Received::Msg(Lane::Data, env));
                }
            }
        }
        drop(inbox);
        self.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::tests::{direct_topology, taps, CountOnFlush, Log};
    use crate::topology::{Bolt, Emitter, TopologyBuilder};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc as StdArc, Mutex};

    /// Batch depths the per-message suites run at: 1 (one message per
    /// envelope) and 8.
    const DEPTHS: [usize; 2] = [1, 8];

    #[test]
    fn batch_pool_hands_out_only_whole_batch_buffers() {
        let pool = BatchPool::<u64>::new(8);
        // what a Disseminator's per-Calculator buffers look like after a
        // batch: a handful of entries, most of them short of a full batch
        for capacity in [0, 1, 3, 7, 8, 14] {
            let mut spent = Vec::with_capacity(capacity);
            spent.extend(0..capacity as u64);
            pool.put(spent);
        }
        for _ in 0..4 {
            let buf = pool.get();
            assert!(buf.is_empty());
            assert!(buf.capacity() >= 8, "got capacity {}", buf.capacity());
        }
    }

    /// Run through the one entry point at batch depth `depth`, with no
    /// message acting as a barrier.
    fn run(
        topology: Topology<u64>,
        config: ThreadedConfig,
        depth: usize,
    ) -> Result<ThreadStats, RunError> {
        try_run_threaded_batched(topology, config, BatchPolicy::new(depth, |_| false))
    }

    struct Summer {
        total: StdArc<AtomicU64>,
        local: u64,
    }

    impl Bolt<u64> for Summer {
        fn on_message(&mut self, msg: u64, _out: &mut dyn Emitter<u64>) {
            self.local += msg;
        }
        fn on_flush(&mut self, _out: &mut dyn Emitter<u64>) {
            self.total.fetch_add(self.local, Ordering::SeqCst);
        }
    }

    /// `spouts` spout tasks of `each` messages, shuffled onto 4 summing
    /// tasks at batch depth `depth`: every message arrives exactly once.
    fn check_all_delivered(spouts: usize, each: u64, depth: usize) {
        let total = StdArc::new(AtomicU64::new(0));
        let mut tb = TopologyBuilder::new();
        let src = tb.add_spout("src", spouts, move |task| {
            let base = task as u64 * each;
            Box::new(base..base + each)
        });
        let sink = {
            let total = total.clone();
            tb.add_bolt("sink", 4, move |_| {
                Box::new(Summer {
                    total: total.clone(),
                    local: 0,
                }) as Box<dyn Bolt<u64>>
            })
        };
        tb.connect(src, "out", sink, Grouping::Shuffle);
        let stats = run(tb.build(), ThreadedConfig::default(), depth).unwrap();
        let sent = spouts as u64 * each;
        assert_eq!(total.load(Ordering::SeqCst), (0..sent).sum::<u64>());
        assert_eq!(stats.processed[sink], sent);
    }

    #[test]
    fn all_messages_are_delivered() {
        for depth in DEPTHS {
            check_all_delivered(2, 100, depth);
        }
    }

    #[test]
    fn batching_delivers_everything_across_parallel_tasks() {
        // batches fill on parallel tasks on both sides of the edge
        check_all_delivered(3, 1_000, 16);
    }

    #[test]
    fn fields_grouping_is_sticky_threaded() {
        for depth in DEPTHS {
            let seen = Log::default();
            let mut tb = TopologyBuilder::new();
            let src = tb.add_spout("src", 2, |_| Box::new((0..100u64).map(|i| i % 10)));
            let sink = taps(&mut tb, 3, &seen);
            tb.connect(src, "out", sink, Grouping::Fields(Arc::new(|m: &u64| *m)));
            run(tb.build(), ThreadedConfig::default(), depth).unwrap();
            let seen = seen.lock().unwrap();
            let mut owner = std::collections::HashMap::new();
            for &(t, m) in seen.iter() {
                if let Some(prev) = owner.insert(m, t) {
                    assert_eq!(prev, t, "key {m} moved tasks");
                }
            }
            assert_eq!(seen.len(), 200);
        }
    }

    #[test]
    fn flush_happens_after_all_upstream_eos() {
        for depth in DEPTHS {
            // two-stage pipeline: counter flush-emits its count, recorder sums.
            let total = StdArc::new(AtomicU64::new(0));
            let mut tb = TopologyBuilder::new();
            let src = tb.add_spout("src", 3, |_| Box::new(0u64..50));
            let mid = tb.add_bolt("mid", 2, |_| {
                Box::new(CountOnFlush(0)) as Box<dyn Bolt<u64>>
            });
            let sink = {
                let total = total.clone();
                tb.add_bolt("sink", 1, move |_| {
                    Box::new(Summer {
                        total: total.clone(),
                        local: 0,
                    }) as Box<dyn Bolt<u64>>
                })
            };
            tb.connect(src, "out", mid, Grouping::Shuffle);
            tb.connect(mid, "count", sink, Grouping::Global);
            run(tb.build(), ThreadedConfig::default(), depth).unwrap();
            // 3 spouts × 50 messages counted across the two mid tasks
            assert_eq!(total.load(Ordering::SeqCst), 150);
        }
    }

    #[test]
    fn feedback_cycles_do_not_deadlock() {
        for depth in DEPTHS {
            struct Echo;
            impl Bolt<u64> for Echo {
                fn on_message(&mut self, m: u64, out: &mut dyn Emitter<u64>) {
                    out.emit("fwd", m);
                }
            }
            struct Replier {
                sent: bool,
            }
            impl Bolt<u64> for Replier {
                fn on_message(&mut self, m: u64, out: &mut dyn Emitter<u64>) {
                    if !self.sent && m < 100 {
                        self.sent = true;
                        out.emit("back", m + 100);
                    }
                }
            }
            let mut tb = TopologyBuilder::new();
            let src = tb.add_spout("src", 1, |_| Box::new(0u64..10));
            let a = tb.add_bolt("a", 1, |_| Box::new(Echo) as Box<dyn Bolt<u64>>);
            let b = tb.add_bolt("b", 1, |_| {
                Box::new(Replier { sent: false }) as Box<dyn Bolt<u64>>
            });
            tb.connect(src, "out", a, Grouping::Shuffle);
            tb.connect(a, "fwd", b, Grouping::Shuffle);
            tb.connect_feedback(b, "back", a, Grouping::Shuffle);
            // must terminate
            let stats = run(tb.build(), ThreadedConfig::default(), depth).unwrap();
            assert!(stats.processed[a] >= 10);
        }
    }

    /// Two peer tasks of one component exchange one handoff message each
    /// when a "fence" arrives as the very last data message before Eos.
    /// One task can reach its Eos quota before the other has sent; the
    /// post-Eos control drain (gated on `Bolt::drained`) must still deliver
    /// both handoffs before either task flushes.
    fn check_migration_during_drain(depth: usize, barrier: fn(&u64) -> bool) {
        let got: StdArc<Mutex<Vec<(usize, u64)>>> = StdArc::new(Mutex::new(Vec::new()));
        struct Peer {
            task: usize,
            component: ComponentId,
            expected: u64,
            received: u64,
            got: StdArc<Mutex<Vec<(usize, u64)>>>,
        }
        impl Bolt<u64> for Peer {
            fn on_message(&mut self, m: u64, out: &mut dyn Emitter<u64>) {
                if m == 1 {
                    // the fence: owe one handoff to the other task
                    self.expected += 1;
                    out.emit_direct(
                        "hand",
                        self.component,
                        1 - self.task,
                        100 + self.task as u64,
                    );
                } else {
                    self.received += 1;
                    self.got.lock().unwrap().push((self.task, m));
                }
            }
            fn drained(&self) -> bool {
                self.received >= self.expected
            }
        }
        for _ in 0..20 {
            // scheduling-sensitive: repeat to exercise different interleavings
            let got = got.clone();
            got.lock().unwrap().clear();
            let mut tb = TopologyBuilder::new();
            let src = tb.add_spout("src", 1, |_| Box::new(std::iter::once(1u64)));
            let peers = {
                let got = got.clone();
                tb.add_bolt("peers", 2, move |task| {
                    Box::new(Peer {
                        task,
                        component: 1, // own component id
                        expected: 0,
                        received: 0,
                        got: got.clone(),
                    }) as Box<dyn Bolt<u64>>
                })
            };
            assert_eq!(peers, 1);
            tb.connect(src, "out", peers, Grouping::All);
            tb.connect_feedback(peers, "hand", peers, Grouping::Direct);
            let policy = BatchPolicy::new(depth, barrier);
            try_run_threaded_batched(tb.build(), ThreadedConfig::default(), policy).unwrap();
            let mut seen = got.lock().unwrap().clone();
            seen.sort_unstable();
            assert_eq!(
                seen,
                vec![(0, 101), (1, 100)],
                "both handoffs must land before shutdown"
            );
        }
    }

    #[test]
    fn migration_during_drain_completes_cleanly() {
        for depth in DEPTHS {
            check_migration_during_drain(depth, |_| false);
        }
    }

    #[test]
    fn batched_migration_during_drain_still_completes() {
        // the fence is a barrier while the feedback handoffs bypass the buffers
        check_migration_during_drain(8, |m| *m == 1);
    }

    #[test]
    fn feedback_after_consumer_shutdown_is_dropped_without_deadlock() {
        for depth in DEPTHS {
            // `late` replies on a feedback edge only at flush time — after the
            // upstream `early` bolt has terminated. The send hits a closed
            // inbox and is dropped silently; the run must still terminate.
            struct Early;
            impl Bolt<u64> for Early {
                fn on_message(&mut self, m: u64, out: &mut dyn Emitter<u64>) {
                    out.emit("fwd", m);
                }
            }
            struct Late {
                n: u64,
            }
            impl Bolt<u64> for Late {
                fn on_message(&mut self, _m: u64, _out: &mut dyn Emitter<u64>) {
                    self.n += 1;
                }
                fn on_flush(&mut self, out: &mut dyn Emitter<u64>) {
                    // early has flushed and exited by now (its Eos preceded ours)
                    out.emit("back", self.n);
                }
            }
            let mut tb = TopologyBuilder::new();
            let src = tb.add_spout("src", 1, |_| Box::new(0u64..25));
            let early = tb.add_bolt("early", 1, |_| Box::new(Early) as Box<dyn Bolt<u64>>);
            let late = tb.add_bolt("late", 1, |_| Box::new(Late { n: 0 }) as Box<dyn Bolt<u64>>);
            tb.connect(src, "out", early, Grouping::Shuffle);
            tb.connect(early, "fwd", late, Grouping::Shuffle);
            tb.connect_feedback(late, "back", early, Grouping::Shuffle);
            let stats = run(tb.build(), ThreadedConfig::default(), depth).unwrap();
            assert_eq!(stats.processed[late], 25);
            // the flush-time reply was emitted into the void, not processed
            assert_eq!(stats.processed[early], 25);
        }
    }

    /// One producer, one consumer task, messages `from..to` at batch depth
    /// `depth`: with batching on, the consumer must still see the exact
    /// emission order, across batch boundaries, barriers and the mixed
    /// emit/emit_direct paths.
    fn check_fifo_order(from: u64, to: u64, depth: usize, barrier: fn(&u64) -> bool) {
        let seen = Log::default();
        let mut tb = TopologyBuilder::new();
        let src = tb.add_spout("src", 1, move |_| Box::new(from..to));
        let sink = taps(&mut tb, 1, &seen);
        tb.connect(src, "out", sink, Grouping::Shuffle);
        let policy = BatchPolicy::new(depth, barrier);
        let stats = run_threaded_batched(tb.build(), ThreadedConfig::default(), policy);
        assert_eq!(stats.processed[sink], to - from);
        let seen: Vec<u64> = seen.lock().unwrap().iter().map(|&(_, m)| m).collect();
        assert_eq!(seen, (from..to).collect::<Vec<u64>>());
    }

    #[test]
    fn batching_preserves_per_consumer_fifo_order() {
        check_fifo_order(0, 1_000, 7, |_| false);
    }

    #[test]
    fn barrier_messages_flush_buffers_and_keep_their_position() {
        // Multiples of 100 are barriers: they must not overtake the batched
        // messages emitted before them (the tick-behind-notifications
        // invariant of the Figure 2 topology, in miniature).
        check_fifo_order(1, 501, 64, |m| m % 100 == 0);
    }

    #[test]
    fn direct_emission_reaches_exact_task() {
        for depth in DEPTHS {
            let seen = Log::default();
            run(direct_topology(9, &seen), ThreadedConfig::default(), depth).unwrap();
            for &(t, m) in seen.lock().unwrap().iter() {
                assert_eq!(t as u64, m % 3);
            }
        }
    }

    #[test]
    fn task_panic_surfaces_as_structured_run_error() {
        for depth in DEPTHS {
            struct Bomb;
            impl Bolt<u64> for Bomb {
                fn on_message(&mut self, m: u64, _o: &mut dyn Emitter<u64>) {
                    if m == 7 {
                        panic!("boom at {m}");
                    }
                }
            }
            let mut tb = TopologyBuilder::new();
            let src = tb.add_spout("src", 1, |_| Box::new(0u64..20));
            let bomb = tb.add_bolt("bomb", 1, |_| Box::new(Bomb) as Box<dyn Bolt<u64>>);
            tb.connect(src, "out", bomb, Grouping::Shuffle);
            let err = run(tb.build(), ThreadedConfig::default(), depth).unwrap_err();
            match err {
                RunError::TaskPanicked {
                    component,
                    id,
                    task,
                    message,
                } => {
                    assert_eq!(component, "bomb");
                    assert_eq!(id, bomb);
                    assert_eq!(task, 0);
                    assert!(message.contains("boom at 7"), "message was {message:?}");
                }
                other => panic!("expected TaskPanicked, got {other:?}"),
            }
        }
    }

    #[test]
    fn undeclared_direct_edge_is_a_structured_error() {
        for depth in DEPTHS {
            struct BadRouter;
            impl Bolt<u64> for BadRouter {
                fn on_message(&mut self, m: u64, out: &mut dyn Emitter<u64>) {
                    out.emit_direct("nope", 9, 0, m);
                }
            }
            let mut tb = TopologyBuilder::new();
            let src = tb.add_spout("src", 1, |_| Box::new(0u64..3));
            let bad = tb.add_bolt("bad", 1, |_| Box::new(BadRouter) as Box<dyn Bolt<u64>>);
            tb.connect(src, "out", bad, Grouping::Shuffle);
            let err = run(tb.build(), ThreadedConfig::default(), depth).unwrap_err();
            assert_eq!(
                err,
                RunError::UndeclaredDirectEdge {
                    stream: "nope",
                    to: 9
                }
            );
        }
    }
}
