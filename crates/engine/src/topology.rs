//! Topology description: spouts, bolts, streams, groupings.
//!
//! Mirrors the Storm concepts the paper builds on (§6.1): a topology is a
//! graph of *spouts* (stream sources) and *bolts* (operators), each running
//! as one or more parallel *tasks*. Bolts subscribe to named output streams
//! of other components, and a *grouping* dictates how tuples spread over the
//! consumer's tasks:
//!
//! * [`Grouping::Shuffle`] — round-robin / random spread,
//! * [`Grouping::All`] — broadcast to every task,
//! * [`Grouping::Fields`] — by hash of a key extracted from the message,
//! * [`Grouping::Global`] — everything to task 0,
//! * [`Grouping::Direct`] — the producer names the consumer task explicitly.
//!
//! (Storm's "local grouping" is a locality optimisation of shuffle; both of
//! our runtimes are single-process, so shuffle covers it.)
//!
//! Unlike Storm, topologies here run over *finite* streams for repeatable
//! experiments: when every upstream producer of a task is exhausted the
//! engine calls [`Bolt::on_flush`], letting operators emit final results.
//! Cyclic control edges (e.g. Disseminator → Partitioner repartition
//! requests) must be declared with [`TopologyBuilder::connect_feedback`] so
//! that shutdown tracking stays acyclic.

use std::sync::Arc;

/// Index of a component (spout or bolt) within its topology.
pub type ComponentId = usize;

/// A source of messages. `next` is pulled until it returns `None`.
pub trait Spout<M>: Send {
    /// Produce the next message, or `None` when the stream is exhausted.
    fn next(&mut self) -> Option<M>;
}

/// Blanket impl: any iterator can act as a spout.
impl<M, I> Spout<M> for I
where
    I: Iterator<Item = M> + Send,
{
    fn next(&mut self) -> Option<M> {
        Iterator::next(self)
    }
}

/// A stream operator. One instance exists per task.
pub trait Bolt<M>: Send {
    /// Handle one incoming message, emitting any number of messages.
    fn on_message(&mut self, msg: M, out: &mut dyn Emitter<M>);

    /// Handle a batch of incoming messages as one unit (vectorized
    /// execution). Both runtimes deliver batch envelopes through this hook;
    /// the default drains the batch through [`Bolt::on_message`] and hands
    /// the spent vector back via [`Emitter::recycle`]. Overriding it is an
    /// optimisation, never a semantic choice: an override **must** be
    /// observably equivalent to the per-message loop, for any mix of
    /// messages (the runtimes only batch per-tuple data, but tests may
    /// deliver control messages mid-batch).
    fn on_batch(&mut self, mut msgs: Vec<M>, out: &mut dyn Emitter<M>) {
        for msg in msgs.drain(..) {
            self.on_message(msg, out);
        }
        out.recycle(msgs);
    }

    /// Called once when every (non-feedback) upstream producer has finished;
    /// a chance to emit final results. Default: nothing.
    fn on_flush(&mut self, out: &mut dyn Emitter<M>) {
        let _ = out;
    }

    /// True when this bolt is not waiting for any in-flight *feedback*
    /// message. Both runtimes keep draining a task's control lane after
    /// end-of-stream until `drained()` holds, so peer-to-peer control
    /// protocols (e.g. live state migration between Calculators) complete
    /// cleanly even when a repartition lands right at shutdown. Bolts that
    /// track an expectation (messages owed = messages received) override
    /// this; the default — no expectations — ends the task as soon as every
    /// upstream finished.
    ///
    /// Liveness contract for overriders: every message you are waiting for
    /// must be guaranteed to be sent by a peer *before* that peer's own
    /// shutdown (e.g. triggered by a data-channel message that precedes its
    /// `Eos`), or the threaded runtime hangs at drain time (the sim stops,
    /// naming the waiting task).
    fn drained(&self) -> bool {
        true
    }

    /// Export this bolt's durable state as an opaque checkpoint. The
    /// supervised runtime calls it after every *barrier* message (round
    /// ticks, fences — the checkpoint-consistent points of the protocol);
    /// after a panic, a fresh instance built from the component factory is
    /// fed the latest checkpoint through [`Bolt::restore`], then the
    /// messages received since it are replayed. A bolt that checkpoints
    /// must therefore make its emissions a pure function of checkpointed
    /// state plus the messages since, emitting only at barriers, so the
    /// replay reproduces the lost work byte-for-byte without re-emitting
    /// anything downstream already saw. `None` (the default) means
    /// "stateless as far as recovery is concerned": restarts begin from the
    /// factory's initial state and nothing is replayed.
    fn checkpoint(&self) -> Option<Box<dyn std::any::Any + Send>> {
        None
    }

    /// Restore state captured by [`Bolt::checkpoint`] into this (freshly
    /// rebuilt) instance. Implementations downcast `cp` to their own
    /// checkpoint type; a mismatched payload should be ignored (the
    /// supervisor only ever hands back this component's own checkpoints).
    fn restore(&mut self, cp: &dyn std::any::Any) {
        let _ = cp;
    }

    /// A degraded stand-in installed when this bolt exhausts its restart
    /// budget: it must keep the topology's control protocols live (answer
    /// fences, feed round barriers downstream) while doing no real work, so
    /// the run finishes with a partial-but-honest report instead of
    /// deadlocking. `None` (the default) installs a generic black hole that
    /// drops everything.
    fn tombstone(&self) -> Option<Box<dyn Bolt<M>>> {
        None
    }
}

/// Emission interface handed to bolts (and used by the engine for spouts).
pub trait Emitter<M> {
    /// Emit onto this component's named output `stream`; the engine routes
    /// one copy per subscribed (non-direct) edge according to its grouping.
    fn emit(&mut self, stream: &'static str, msg: M);

    /// Emit to one specific task of `to`, over a [`Grouping::Direct`] edge on
    /// `stream`. Panics if no such edge was declared.
    fn emit_direct(&mut self, stream: &'static str, to: ComponentId, task: usize, msg: M);

    /// Emit a batch of messages onto `stream` as one unit. Semantically
    /// identical to emitting each message in order; runtimes override it to
    /// skip per-message re-buffering where the destination resolves to a
    /// single consumer task. Callers should only pass per-tuple data
    /// messages (no barriers) — a runtime that cannot prove that falls back
    /// to the per-message path.
    fn emit_batch(&mut self, stream: &'static str, msgs: Vec<M>) {
        for msg in msgs {
            self.emit(stream, msg);
        }
    }

    /// Emit a batch of messages to one specific task of `to` over a
    /// [`Grouping::Direct`] edge — the vectorized [`Emitter::emit_direct`].
    /// Order within the batch is preserved, as is the FIFO position of the
    /// batch relative to everything emitted before it.
    fn emit_direct_batch(
        &mut self,
        stream: &'static str,
        to: ComponentId,
        task: usize,
        msgs: Vec<M>,
    ) {
        for msg in msgs {
            self.emit_direct(stream, to, task, msg);
        }
    }

    /// Hand a drained batch `Vec` back to the runtime for reuse. The default
    /// [`Bolt::on_batch`](crate::topology::Bolt) does, and so should an
    /// override that consumes its batch, so the allocation cycles back into
    /// the runtime's envelope pool. The default is a no-op; runtimes
    /// without a pool simply let the vector drop.
    fn recycle(&mut self, spent: Vec<M>) {
        let _ = spent;
    }
}

/// How tuples of one edge spread over the consumer's tasks.
#[derive(Clone)]
pub enum Grouping<M> {
    /// Round-robin over consumer tasks (Storm distributes randomly but
    /// evenly; round-robin is its deterministic equivalent).
    Shuffle,
    /// Broadcast: every consumer task receives every message.
    All,
    /// Everything goes to task 0.
    Global,
    /// Route by `hash(msg) % parallelism`; equal keys always reach the same
    /// task (Storm's fields grouping).
    Fields(Arc<dyn Fn(&M) -> u64 + Send + Sync>),
    /// Only explicit [`Emitter::emit_direct`] calls traverse this edge.
    Direct,
}

impl<M> std::fmt::Debug for Grouping<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Grouping::Shuffle => "Shuffle",
            Grouping::All => "All",
            Grouping::Global => "Global",
            Grouping::Fields(_) => "Fields",
            Grouping::Direct => "Direct",
        })
    }
}

/// Factory producing the per-task instance (argument: task index).
pub type SpoutFactory<M> = Box<dyn FnMut(usize) -> Box<dyn Spout<M>> + Send>;
/// Factory producing the per-task bolt instance (argument: task index).
pub type BoltFactory<M> = Box<dyn FnMut(usize) -> Box<dyn Bolt<M>> + Send>;

pub(crate) enum ComponentKind<M> {
    Spout(SpoutFactory<M>),
    Bolt(BoltFactory<M>),
}

pub(crate) struct ComponentSpec<M> {
    pub(crate) name: String,
    pub(crate) parallelism: usize,
    pub(crate) kind: ComponentKind<M>,
}

/// One subscription edge.
pub(crate) struct Edge<M> {
    pub(crate) from: ComponentId,
    pub(crate) stream: &'static str,
    pub(crate) to: ComponentId,
    pub(crate) grouping: Grouping<M>,
    /// Feedback edges are excluded from end-of-stream tracking.
    pub(crate) feedback: bool,
}

/// A validated topology, ready to run on either runtime.
pub struct Topology<M> {
    pub(crate) components: Vec<ComponentSpec<M>>,
    pub(crate) edges: Vec<Edge<M>>,
}

impl<M> Topology<M> {
    /// Component names in declaration order (for reports).
    pub fn component_names(&self) -> Vec<&str> {
        self.components.iter().map(|c| c.name.as_str()).collect()
    }

    /// Parallelism of a component.
    pub fn parallelism(&self, c: ComponentId) -> usize {
        self.components[c].parallelism
    }

    /// Total number of tasks.
    pub fn total_tasks(&self) -> usize {
        self.components.iter().map(|c| c.parallelism).sum()
    }
}

/// Builder for [`Topology`].
///
/// ```
/// use setcorr_engine::{run_sim, Bolt, Emitter, Grouping, TopologyBuilder};
///
/// /// Doubles everything it receives onto its "doubled" stream.
/// struct Doubler;
/// impl Bolt<u64> for Doubler {
///     fn on_message(&mut self, msg: u64, out: &mut dyn Emitter<u64>) {
///         out.emit("doubled", msg * 2);
///     }
/// }
///
/// let mut tb = TopologyBuilder::new();
/// let spout = tb.add_spout("numbers", 1, |_| Box::new(0u64..100));
/// let doubler = tb.add_bolt("doubler", 2, |_| Box::new(Doubler) as Box<dyn Bolt<u64>>);
/// let sink = tb.add_bolt("sink", 1, |_| Box::new(Doubler) as Box<dyn Bolt<u64>>);
/// tb.connect(spout, "out", doubler, Grouping::Shuffle);
/// tb.connect(doubler, "doubled", sink, Grouping::Global);
///
/// let topology = tb.build(); // validates: rejects unmarked cycles
/// assert_eq!(topology.total_tasks(), 4);
/// let stats = run_sim(topology);
/// assert_eq!(stats.processed[doubler], 100);
/// assert_eq!(stats.processed[sink], 100);
/// ```
pub struct TopologyBuilder<M> {
    components: Vec<ComponentSpec<M>>,
    edges: Vec<Edge<M>>,
}

impl<M> Default for TopologyBuilder<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> TopologyBuilder<M> {
    /// Empty builder.
    pub fn new() -> Self {
        TopologyBuilder {
            components: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Add a spout with `parallelism` tasks; `factory(task)` builds each one.
    pub fn add_spout<F>(&mut self, name: &str, parallelism: usize, factory: F) -> ComponentId
    where
        F: FnMut(usize) -> Box<dyn Spout<M>> + Send + 'static,
    {
        assert!(parallelism >= 1, "{name}: parallelism must be >= 1");
        self.components.push(ComponentSpec {
            name: name.to_string(),
            parallelism,
            kind: ComponentKind::Spout(Box::new(factory)),
        });
        self.components.len() - 1
    }

    /// Add a bolt with `parallelism` tasks; `factory(task)` builds each one.
    pub fn add_bolt<F>(&mut self, name: &str, parallelism: usize, factory: F) -> ComponentId
    where
        F: FnMut(usize) -> Box<dyn Bolt<M>> + Send + 'static,
    {
        assert!(parallelism >= 1, "{name}: parallelism must be >= 1");
        self.components.push(ComponentSpec {
            name: name.to_string(),
            parallelism,
            kind: ComponentKind::Bolt(Box::new(factory)),
        });
        self.components.len() - 1
    }

    /// Subscribe `to` to the `stream` output of `from` with `grouping`.
    pub fn connect(
        &mut self,
        from: ComponentId,
        stream: &'static str,
        to: ComponentId,
        grouping: Grouping<M>,
    ) {
        self.push_edge(from, stream, to, grouping, false);
    }

    /// Like [`TopologyBuilder::connect`], but marks the edge as *feedback*:
    /// it carries control messages against the main flow and is excluded
    /// from end-of-stream tracking (required for cyclic topologies).
    pub fn connect_feedback(
        &mut self,
        from: ComponentId,
        stream: &'static str,
        to: ComponentId,
        grouping: Grouping<M>,
    ) {
        self.push_edge(from, stream, to, grouping, true);
    }

    fn push_edge(
        &mut self,
        from: ComponentId,
        stream: &'static str,
        to: ComponentId,
        grouping: Grouping<M>,
        feedback: bool,
    ) {
        assert!(from < self.components.len(), "unknown producer {from}");
        assert!(to < self.components.len(), "unknown consumer {to}");
        assert!(
            matches!(self.components[to].kind, ComponentKind::Bolt(_)),
            "spouts cannot consume"
        );
        assert!(
            !self
                .edges
                .iter()
                .any(|e| e.from == from && e.to == to && e.stream == stream),
            "duplicate edge {from}:{stream} -> {to}"
        );
        self.edges.push(Edge {
            from,
            stream,
            to,
            grouping,
            feedback,
        });
    }

    /// Validate and freeze. Panics on an ill-formed topology:
    /// non-feedback cycles would deadlock shutdown and are rejected.
    pub fn build(self) -> Topology<M> {
        // Kahn's algorithm over non-feedback edges.
        let n = self.components.len();
        let mut indegree = vec![0usize; n];
        for e in self.edges.iter().filter(|e| !e.feedback) {
            indegree[e.to] += 1;
        }
        let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut seen = 0;
        while let Some(c) = queue.pop() {
            seen += 1;
            for e in self.edges.iter().filter(|e| !e.feedback && e.from == c) {
                indegree[e.to] -= 1;
                if indegree[e.to] == 0 {
                    queue.push(e.to);
                }
            }
        }
        assert_eq!(
            seen, n,
            "topology has a cycle through non-feedback edges; declare control \
             back-edges with connect_feedback"
        );
        Topology {
            components: self.components,
            edges: self.edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl Bolt<u32> for Nop {
        fn on_message(&mut self, _msg: u32, _out: &mut dyn Emitter<u32>) {}
    }

    fn two_node_builder() -> (TopologyBuilder<u32>, ComponentId, ComponentId) {
        let mut tb = TopologyBuilder::new();
        let s = tb.add_spout("src", 1, |_| Box::new(std::iter::empty::<u32>()));
        let b = tb.add_bolt("sink", 2, |_| Box::new(Nop) as Box<dyn Bolt<u32>>);
        (tb, s, b)
    }

    #[test]
    fn builds_simple_chain() {
        let (mut tb, s, b) = two_node_builder();
        tb.connect(s, "out", b, Grouping::Shuffle);
        let t = tb.build();
        assert_eq!(t.component_names(), vec!["src", "sink"]);
        assert_eq!(t.parallelism(b), 2);
        assert_eq!(t.total_tasks(), 3);
    }

    #[test]
    #[should_panic(expected = "spouts cannot consume")]
    fn rejects_edges_into_spouts() {
        let (mut tb, s, b) = two_node_builder();
        tb.connect(b, "back", s, Grouping::Shuffle);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn rejects_duplicate_edges() {
        let (mut tb, s, b) = two_node_builder();
        tb.connect(s, "out", b, Grouping::Shuffle);
        tb.connect(s, "out", b, Grouping::All);
    }

    #[test]
    #[should_panic(expected = "cycle")]
    fn rejects_unmarked_cycles() {
        let mut tb: TopologyBuilder<u32> = TopologyBuilder::new();
        let a = tb.add_bolt("a", 1, |_| Box::new(Nop) as Box<dyn Bolt<u32>>);
        let b = tb.add_bolt("b", 1, |_| Box::new(Nop) as Box<dyn Bolt<u32>>);
        tb.connect(a, "x", b, Grouping::Shuffle);
        tb.connect(b, "y", a, Grouping::Shuffle);
        tb.build();
    }

    #[test]
    fn feedback_edges_permit_cycles() {
        let mut tb: TopologyBuilder<u32> = TopologyBuilder::new();
        let a = tb.add_bolt("a", 1, |_| Box::new(Nop) as Box<dyn Bolt<u32>>);
        let b = tb.add_bolt("b", 1, |_| Box::new(Nop) as Box<dyn Bolt<u32>>);
        tb.connect(a, "x", b, Grouping::Shuffle);
        tb.connect_feedback(b, "y", a, Grouping::Shuffle);
        let t = tb.build();
        assert_eq!(t.edges.len(), 2);
    }

    #[test]
    #[should_panic(expected = "parallelism")]
    fn rejects_zero_parallelism() {
        let mut tb: TopologyBuilder<u32> = TopologyBuilder::new();
        tb.add_bolt("a", 0, |_| Box::new(Nop) as Box<dyn Bolt<u32>>);
    }
}
