//! Deterministic single-threaded runtime: the threaded runtime's task code,
//! stepped by one executor.
//!
//! The sim builds the tasks [`run_threaded_batched`](crate::run_threaded_batched)
//! runs — the same `BoltTask`s, emitter and grouping code — but their ports
//! append to one global FIFO queue of `(task, lane, envelope)`. The
//! executor pops the head and steps that task; spouts are pumped
//! round-robin, one message each, and the queue drains to empty between
//! pumps, so control cycles complete between documents. Shutdown is driven
//! by `Eos`, as on the threaded runtime. A lane closes once every task
//! holding a sender to it finished, and a message for a finished task is
//! dropped. Grouping is deterministic (shuffle = round-robin per producer
//! task, seeded by its index) and no step reads a clock, so a run is
//! exactly reproducible — the mode of the experiment harness and the tests.
//!
//! A sim emitter never buffers: every message is its own queue entry.
//! [`run_sim_batched`] coalesces *consecutive* data entries for one task
//! into one [`Bolt::on_batch`](crate::Bolt::on_batch) call (up to a barrier
//! message or `max_batch`), so the oracle runs the vectorized operator path
//! too. Only adjacent messages group, so delivery order, and with `on_batch`
//! overrides equivalent to the per-message loop (the trait contract) every
//! result, is exactly that of [`run_sim`].
//!
//! [`try_run_sim_batched`] runs the threaded runtime's supervisor and fault
//! plan. Once the queue is empty and every spout is done, a task still
//! waiting on [`Bolt::drained`](crate::Bolt::drained) can never be
//! answered, so it times out at once, with no wall-clock wait; unsupervised,
//! that state panics, naming the waiting tasks.

use crate::supervise::SuperviseConfig;
use crate::threaded::{
    build_tasks, task_error, BatchPolicy, BoltTask, Envelope, Port, RunError, SpoutTask, Task,
    ThreadStats,
};
use crate::topology::{ComponentId, Topology};
use crossbeam::channel::{Lane, Received};
use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Duration;

/// The executor's queue: deliveries, each to one task by its index in
/// (component, task) order.
type Queue<M> = Rc<RefCell<VecDeque<(usize, Received<Envelope<M>>)>>>;

/// One lane of one task. Every port into the lane shares it, and it closes
/// the lane when the last of them drops, as a channel lane closes with its
/// last sender: the closure queues behind everything sent before it.
struct SimLane<M> {
    queue: Queue<M>,
    task: usize,
    lane: Lane,
}

impl<M> SimLane<M> {
    #[inline]
    fn push(&self, got: Received<Envelope<M>>) {
        self.queue.borrow_mut().push_back((self.task, got));
    }
}

impl<M> Drop for SimLane<M> {
    fn drop(&mut self) {
        self.push(Received::Closed(self.lane));
    }
}

/// Where a sim task sends: one lane of one task.
type SimPort<M> = Rc<SimLane<M>>;

impl<M: Clone> Port<M> for SimPort<M> {
    const THREADED: bool = false;

    /// One entry per message: a batch envelope splits, so batch boundaries
    /// are the executor's to draw.
    #[inline]
    fn send(&self, env: Envelope<M>) {
        match env {
            Envelope::Batch(msgs) => msgs
                .into_iter()
                .for_each(|m| self.push(Received::Msg(self.lane, Envelope::Data(m)))),
            env => self.push(Received::Msg(self.lane, env)),
        }
    }
}

/// Run `topology` to completion in simulation mode with per-tuple delivery:
/// every message goes to [`Bolt::on_message`](crate::Bolt::on_message).
pub fn run_sim<M: Clone + 'static>(topology: Topology<M>) -> ThreadStats {
    // every message a barrier: nothing coalesces
    run_sim_batched(topology, BatchPolicy::new(1, |_| true))
}

/// Run `topology` in simulation mode with batched delivery: consecutive
/// same-destination messages the `policy` marks batchable are handed to the
/// bolt as one [`Bolt::on_batch`](crate::Bolt::on_batch) call (see the
/// module docs — delivery order, and therefore every result, is identical
/// to [`run_sim`]). Panics with the [`RunError`] rendering if a task dies.
pub fn run_sim_batched<M: Clone + 'static>(
    topology: Topology<M>,
    policy: BatchPolicy<M>,
) -> ThreadStats {
    try_run_sim_batched(topology, policy, None).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`run_sim_batched`], optionally supervised: the sim twin of
/// [`try_run_threaded_batched`](crate::try_run_threaded_batched), whose
/// stats it returns with the wall-clock and channel fields left zero.
/// Panics, naming them, if unsupervised tasks wait on control messages
/// nobody can send any more (the threaded runtime would hang there).
pub fn try_run_sim_batched<M: Clone + 'static>(
    topology: Topology<M>,
    policy: BatchPolicy<M>,
    supervision: Option<SuperviseConfig>,
) -> Result<ThreadStats, RunError> {
    let mut sim = Sim::new(topology, policy, supervision);
    match catch_unwind(AssertUnwindSafe(|| sim.run())) {
        Ok(Ok(())) => {
            sim.stats.degraded_tasks.sort_unstable();
            Ok(sim.stats)
        }
        Ok(Err(waiting)) => panic!("sim stalled: {waiting} wait on control nobody can send"),
        Err(payload) => {
            let (c, t, _) = sim.tasks[sim.current];
            Err(task_error(&*payload, &sim.names, c, t))
        }
    }
}

/// One task: its component, its number there, and — until it finishes —
/// the bolt task (spouts keep `None`).
type Slot<M> = (ComponentId, usize, Option<BoltTask<M, SimPort<M>>>);

/// The executor: the queue and every task.
struct Sim<M> {
    queue: Queue<M>,
    policy: BatchPolicy<M>,
    names: Vec<String>,
    /// Every task by index.
    tasks: Vec<Slot<M>>,
    /// Spout tasks still producing, with their indices.
    spouts: Vec<(usize, SpoutTask<M, SimPort<M>>)>,
    supervised: bool,
    stats: ThreadStats,
    /// The task being stepped: the one a panic names.
    current: usize,
}

impl<M: Clone + 'static> Sim<M> {
    fn new(
        topology: Topology<M>,
        policy: BatchPolicy<M>,
        supervision: Option<SuperviseConfig>,
    ) -> Self {
        let names = topology.components.iter().map(|s| s.name.clone()).collect();
        let (queue, stats) = (Queue::default(), ThreadStats::new(&topology));
        // Both lanes of every task, held only by the ports once the tasks
        // are built: a lane nobody sends into closes at once.
        let lanes: Vec<[SimPort<M>; 2]> = (0..topology.total_tasks())
            .map(|task| {
                let queue = &queue;
                [Lane::Data, Lane::Control].map(|lane| {
                    let queue = queue.clone();
                    Rc::new(SimLane { queue, task, lane })
                })
            })
            .collect();
        let supervised = supervision.is_some();
        let port = |i: usize, lane| lanes[i][lane as usize].clone();
        let (mut tasks, mut spouts) = (Vec::new(), Vec::new());
        for (c, t, task) in build_tasks(topology, &policy, supervision, port) {
            let bolt = match task {
                Task::Spout(spout) => {
                    spouts.push((tasks.len(), spout));
                    None
                }
                Task::Bolt(bolt) => Some(bolt),
            };
            tasks.push((c, t, bolt));
        }
        drop(lanes);
        Sim {
            queue,
            policy,
            names,
            tasks,
            spouts,
            supervised,
            stats,
            current: 0,
        }
    }

    /// Pump the spouts dry, draining the queue between pumps, then settle
    /// the tasks still waiting.
    fn run(&mut self) -> Result<(), String> {
        while !self.spouts.is_empty() {
            let mut i = 0;
            while i < self.spouts.len() {
                self.current = self.spouts[i].0;
                if self.spouts[i].1.pump(SpoutTask::step) {
                    i += 1;
                } else {
                    let (index, spout) = self.spouts.remove(i);
                    let (c, t, _) = self.tasks[index];
                    self.stats.add(c, t, spout.finish(Duration::ZERO));
                }
            }
            self.drain();
        }
        self.settle()
    }

    fn drain(&mut self) {
        loop {
            let head = self.coalesce();
            let Some((task, got)) = head else {
                return;
            };
            self.step(task, got);
        }
    }

    /// Pop the head of the queue. A batchable data message absorbs the
    /// batchable data messages for the same task queued right behind it, up
    /// to `max_batch`, into one batch.
    fn coalesce(&self) -> Option<(usize, Received<Envelope<M>>)> {
        let batchable = |m: &M| !(self.policy.barrier)(m);
        let mut queue = self.queue.borrow_mut();
        let (task, msg) = match queue.pop_front()? {
            (t, Received::Msg(Lane::Data, Envelope::Data(m))) if batchable(&m) => (t, m),
            head => return Some(head),
        };
        let joins = |head: Option<&(usize, Received<Envelope<M>>)>| {
            matches!(head, Some((t, Received::Msg(Lane::Data, Envelope::Data(m))))
                if *t == task && batchable(m))
        };
        let mut batch = vec![msg];
        while batch.len() < self.policy.max_batch && joins(queue.front()) {
            if let Some((_, Received::Msg(_, Envelope::Data(m)))) = queue.pop_front() {
                batch.push(m);
            }
        }
        Some((task, Received::Msg(Lane::Data, Envelope::Batch(batch))))
    }

    /// Hand `got` to the task at `index` (dropped if the task finished),
    /// and end the task if that finished it.
    fn step(&mut self, index: usize, got: Received<Envelope<M>>) {
        self.current = index;
        let (c, t, Some(bolt)) = &mut self.tasks[index] else {
            return;
        };
        bolt.step(got);
        if bolt.finished() {
            let (c, t) = (*c, *t);
            let bolt = self.tasks[index].2.take().expect("stepped above");
            self.stats.add(c, t, bolt.finish());
        }
    }

    /// Every spout is done and the queue is empty, so a task still running
    /// with its data side over waits for a control message nobody can send
    /// any more. Supervised, the first such task times out and degrades,
    /// which may answer the others; unsupervised, the run stalls.
    fn settle(&mut self) -> Result<(), String> {
        loop {
            let waiting: Vec<usize> = (0..self.tasks.len())
                .filter(|&i| self.tasks[i].2.as_ref().is_some_and(BoltTask::data_done))
                .collect();
            let Some(&first) = waiting.first() else {
                return Ok(());
            };
            if !self.supervised {
                let name =
                    |&i: &usize| format!("{}[{}]", self.names[self.tasks[i].0], self.tasks[i].1);
                return Err(waiting.iter().map(name).collect::<Vec<_>>().join(", "));
            }
            self.step(first, Received::TimedOut);
            self.drain();
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::threaded::{run_threaded_batched, ThreadedConfig};
    use crate::topology::{Bolt, Emitter, Grouping, TopologyBuilder};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    /// What taps saw: (task, message) in delivery order.
    pub(crate) type Log = Arc<Mutex<Vec<(usize, u64)>>>;

    /// Bolt that records what it sees.
    pub(crate) struct Tap {
        seen: Log,
        task: usize,
    }

    impl Bolt<u64> for Tap {
        fn on_message(&mut self, msg: u64, _out: &mut dyn Emitter<u64>) {
            self.seen.lock().unwrap().push((self.task, msg));
        }
    }

    /// Add a `parallelism`-task component of taps recording into `seen`.
    pub(crate) fn taps(tb: &mut TopologyBuilder<u64>, parallelism: usize, seen: &Log) -> usize {
        let seen = seen.clone();
        tb.add_bolt("sink", parallelism, move |task| {
            let seen = seen.clone();
            Box::new(Tap { seen, task }) as Box<dyn Bolt<u64>>
        })
    }

    /// `spouts` spout tasks, task `t` emitting `msgs` offset by `100 t`,
    /// over `grouping` onto `sinks` taps (component 1).
    fn fan_out(
        spouts: usize,
        msgs: &'static [u64],
        grouping: Grouping<u64>,
        sinks: usize,
        seen: &Log,
    ) -> Topology<u64> {
        let mut tb = TopologyBuilder::new();
        let src = tb.add_spout("src", spouts, move |t| {
            Box::new(msgs.iter().map(move |m| m + 100 * t as u64))
        });
        let sink = taps(&mut tb, sinks, seen);
        tb.connect(src, "out", sink, grouping);
        tb.build()
    }

    #[test]
    fn shuffle_round_robins_across_tasks() {
        let seen = Log::default();
        let stats = run_sim(fan_out(1, &[0, 1, 2, 3, 4, 5], Grouping::Shuffle, 3, &seen));
        assert_eq!(stats.processed[1], 6);
        let mut per_task = [0u64; 3];
        for &(t, _) in seen.lock().unwrap().iter() {
            per_task[t] += 1;
        }
        assert_eq!(per_task, [2, 2, 2], "round-robin must balance exactly");
    }

    #[test]
    fn parallel_spouts_shuffle_alike_on_both_runtimes() {
        // each spout task keeps its own round-robin, seeded by its task
        // index, so every sink task receives the same multiset on both
        const MSGS: &[u64] = &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9];
        let received = |seen: Log| {
            let mut seen = seen.lock().unwrap().clone();
            seen.sort_unstable();
            seen
        };
        let sim = Log::default();
        run_sim(fan_out(2, MSGS, Grouping::Shuffle, 3, &sim));
        for depth in [1, 8] {
            let threaded = Log::default();
            let topology = fan_out(2, MSGS, Grouping::Shuffle, 3, &threaded);
            let policy = BatchPolicy::new(depth, |_| false);
            run_threaded_batched(topology, ThreadedConfig::default(), policy);
            assert_eq!(received(threaded), received(sim.clone()), "depth {depth}");
        }
    }

    #[test]
    fn all_grouping_broadcasts() {
        let stats = run_sim(fan_out(1, &[0, 1, 2, 3], Grouping::All, 3, &Log::default()));
        assert_eq!(stats.processed[1], 12);
        assert_eq!(stats.emitted[0], 12);
    }

    #[test]
    fn fields_grouping_is_sticky() {
        let seen = Log::default();
        let key = Grouping::Fields(Arc::new(|m: &u64| *m));
        run_sim(fan_out(1, &[3, 7, 3, 7, 3, 11], key, 4, &seen));
        let mut task_of = std::collections::HashMap::new();
        for &(t, m) in seen.lock().unwrap().iter() {
            if let Some(p) = task_of.insert(m, t) {
                assert_eq!(p, t, "key {m} moved between tasks");
            }
        }
    }

    #[test]
    fn global_grouping_hits_task_zero() {
        let seen = Log::default();
        run_sim(fan_out(1, &[0, 1, 2, 3, 4], Grouping::Global, 3, &seen));
        assert!(seen.lock().unwrap().iter().all(|&(t, _)| t == 0));
    }

    /// Bolt that direct-emits each message `m` to task `m % 3` of
    /// component 2.
    struct DirectRouter;

    impl Bolt<u64> for DirectRouter {
        fn on_message(&mut self, msg: u64, out: &mut dyn Emitter<u64>) {
            out.emit_direct("routed", 2, (msg % 3) as usize, msg);
        }
    }

    /// A spout of `0..n` → a router → three taps (component 2, declared
    /// after the router that names it) over a Direct edge.
    pub(crate) fn direct_topology(n: u64, seen: &Log) -> Topology<u64> {
        let mut tb = TopologyBuilder::new();
        let src = tb.add_spout("src", 1, move |_| Box::new(0..n));
        let router = tb.add_bolt("router", 1, |_| {
            Box::new(DirectRouter) as Box<dyn Bolt<u64>>
        });
        let sink = taps(&mut tb, 3, seen);
        assert_eq!(sink, 2);
        tb.connect(src, "out", router, Grouping::Shuffle);
        tb.connect(router, "routed", sink, Grouping::Direct);
        tb.build()
    }

    #[test]
    fn direct_grouping_addresses_tasks() {
        let seen = Log::default();
        run_sim(direct_topology(6, &seen));
        for &(t, m) in seen.lock().unwrap().iter() {
            assert_eq!(t as u64, m % 3);
        }
    }

    /// Bolt that counts messages and emits the count on flush.
    pub(crate) struct CountOnFlush(pub(crate) u64);

    impl Bolt<u64> for CountOnFlush {
        fn on_message(&mut self, _msg: u64, _out: &mut dyn Emitter<u64>) {
            self.0 += 1;
        }
        fn on_flush(&mut self, out: &mut dyn Emitter<u64>) {
            out.emit("count", self.0);
        }
    }

    #[test]
    fn flush_cascades_downstream_after_upstream_eos() {
        static FINAL: AtomicU64 = AtomicU64::new(u64::MAX);
        struct Recorder;
        impl Bolt<u64> for Recorder {
            fn on_message(&mut self, msg: u64, _out: &mut dyn Emitter<u64>) {
                FINAL.store(msg, Ordering::SeqCst);
            }
        }
        let mut tb = TopologyBuilder::new();
        let src = tb.add_spout("src", 1, |_| Box::new(0u64..10));
        let counter = tb.add_bolt("counter", 1, |_| {
            Box::new(CountOnFlush(0)) as Box<dyn Bolt<u64>>
        });
        let rec = tb.add_bolt("rec", 1, |_| Box::new(Recorder) as Box<dyn Bolt<u64>>);
        tb.connect(src, "out", counter, Grouping::Shuffle);
        tb.connect(counter, "count", rec, Grouping::Global);
        run_sim(tb.build());
        assert_eq!(FINAL.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn feedback_edges_deliver_in_sim() {
        // a → b (forward), b → a (feedback): b echoes one follow-up per even
        // input; a tap beside b records everything b sees.
        struct A;
        impl Bolt<u64> for A {
            fn on_message(&mut self, msg: u64, out: &mut dyn Emitter<u64>) {
                out.emit("fwd", msg);
            }
        }
        struct B;
        impl Bolt<u64> for B {
            fn on_message(&mut self, msg: u64, out: &mut dyn Emitter<u64>) {
                if msg.is_multiple_of(2) && msg < 100 {
                    out.emit("back", msg + 100);
                }
            }
        }
        let seen = Log::default();
        let mut tb = TopologyBuilder::new();
        let src = tb.add_spout("src", 1, |_| Box::new(0u64..4));
        let a = tb.add_bolt("a", 1, |_| Box::new(A) as Box<dyn Bolt<u64>>);
        let b = tb.add_bolt("b", 1, |_| Box::new(B) as Box<dyn Bolt<u64>>);
        let tap = taps(&mut tb, 1, &seen);
        tb.connect(src, "out", a, Grouping::Shuffle);
        tb.connect(a, "fwd", b, Grouping::Shuffle);
        tb.connect(a, "fwd", tap, Grouping::Shuffle);
        tb.connect_feedback(b, "back", a, Grouping::Shuffle);
        run_sim(tb.build());
        let seen: Vec<u64> = seen.lock().unwrap().iter().map(|&(_, m)| m).collect();
        // originals 0..4 plus echoes 100,102 re-forwarded through a
        assert_eq!(seen.len(), 6);
        assert!(seen.contains(&100) && seen.contains(&102));
    }

    #[test]
    #[should_panic(expected = "sim stalled: waiter[0]")]
    fn a_task_waiting_on_control_nobody_can_send_stalls_the_sim_by_name() {
        // `waiter` owes itself a feedback message it never sends, and its
        // own feedback sender keeps its control lane open
        struct Waiter;
        impl Bolt<u64> for Waiter {
            fn on_message(&mut self, _msg: u64, _out: &mut dyn Emitter<u64>) {}
            fn drained(&self) -> bool {
                false
            }
        }
        let mut tb = TopologyBuilder::new();
        let src = tb.add_spout("src", 1, |_| Box::new(0u64..3));
        let waiter = tb.add_bolt("waiter", 1, |_| Box::new(Waiter) as Box<dyn Bolt<u64>>);
        tb.connect(src, "out", waiter, Grouping::Shuffle);
        tb.connect_feedback(waiter, "owed", waiter, Grouping::Shuffle);
        run_sim(tb.build());
    }

    #[test]
    fn determinism_across_runs() {
        let build = |sink_log: &Log| {
            let mut tb = TopologyBuilder::new();
            let src = tb.add_spout("src", 1, |_| Box::new(0u64..50));
            let mid = tb.add_bolt("mid", 2, |_| {
                struct Fwd;
                impl Bolt<u64> for Fwd {
                    fn on_message(&mut self, m: u64, out: &mut dyn Emitter<u64>) {
                        out.emit("x", m * 3);
                    }
                }
                Box::new(Fwd) as Box<dyn Bolt<u64>>
            });
            let sink = taps(&mut tb, 3, sink_log);
            tb.connect(src, "out", mid, Grouping::Shuffle);
            tb.connect(mid, "x", sink, Grouping::Shuffle);
            tb.build()
        };
        let (log1, log2) = (Log::default(), Log::default());
        run_sim(build(&log1));
        run_sim(build(&log2));
        assert_eq!(*log1.lock().unwrap(), *log2.lock().unwrap());
    }
}
