//! Offline stand-in for the `crossbeam::channel` surface the threaded engine
//! runtime uses: `bounded` / `unbounded` MPMC channels, and the two-lane
//! [`channel::inbox`] every bolt task receives from.
//!
//! The build environment has no registry access, so this crate provides the
//! same semantics the runtime depends on:
//!
//! * bounded `send` blocks when the queue is full (backpressure) and fails
//!   once every receiver is gone,
//! * `recv`/`try_recv` report `Disconnected` only after the queue drains and
//!   every sender is gone.
//!
//! Every channel has two lanes under one lock: a *data* lane, bounded or
//! not, and an unbounded *control* lane. A plain channel ([`channel::bounded`],
//! [`channel::unbounded`]) sends on its data lane only. An inbox hands out a
//! sender for each lane, and its receiver parks on both at once
//! ([`channel::Receiver::recv_lanes`]): data is served first, a control send
//! never blocks however full the data lane is, and each lane reports its
//! own closure once its senders are gone and it has drained.
//!
//! Internally every channel is one mutex around its whole state: the two
//! lanes' `VecDeque`s (a bounded lane's pre-sized, so a push never
//! allocates), the endpoint counts and the numbers of parked threads, plus
//! two condvars, one for space and one for messages. The engine sends batch
//! envelopes of up to 128 messages, so a channel operation is rare per
//! message and a lock is cheap next to everything else a message costs.
//! Batch endpoints ([`channel::Sender::send_many`],
//! [`channel::Receiver::recv_drain`]) move a whole run of messages under one
//! lock acquisition. A blocked endpoint checks readiness and counts itself
//! as a waiter under the same lock that every push, pop and disconnect
//! takes, so a wakeup cannot fall between the check and the park; an
//! operation signals a condvar only when a waiter is counted, and only once
//! it has released the lock. A park ends on a wakeup, or at the deadline a
//! receiver may give. Per-channel wait counters
//! ([`channel::ChannelCounters`]) record how often a thread parked so the
//! engine can report transport contention.

#![forbid(unsafe_code)]

pub mod channel {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
    use std::time::Instant;

    /// Error returned by [`Sender::send`] when every receiver is gone.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] on a drained, disconnected
    /// channel.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Sender::try_send`], handing the message back.
    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The channel is at capacity right now.
        Full(T),
        /// Every receiver is gone.
        Disconnected(T),
    }

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message is currently queued.
        Empty,
        /// The channel is drained and every sender is gone.
        Disconnected,
    }

    /// One of a channel's two lanes; indexes the `open` flags of
    /// [`Receiver::recv_lanes`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Lane {
        /// Bounded in an inbox, and served first.
        Data = 0,
        /// Unbounded: a send into it never blocks.
        Control = 1,
    }

    const LANES: [Lane; 2] = [Lane::Data, Lane::Control];

    /// What [`Receiver::recv_lanes`] hands back.
    #[derive(Debug, PartialEq, Eq)]
    pub enum Received<T> {
        /// A message, and the lane it came in on.
        Msg(Lane, T),
        /// Every sender of the lane is gone and the lane has drained.
        Closed(Lane),
        /// The deadline passed with nothing to deliver.
        TimedOut,
    }

    // ------------------------------------------------------------------
    // Wait counters
    // ------------------------------------------------------------------

    /// Which end of a channel a thread parks on: senders wait for space,
    /// receivers for a message.
    #[derive(Clone, Copy)]
    enum Side {
        Send,
        Recv,
    }

    #[derive(Default)]
    struct CountersInner {
        send_waits: AtomicU64,
        recv_waits: AtomicU64,
    }

    /// Shared handle onto a channel's contention counters: how many times a
    /// sender parked because the channel was full (`send_waits`) and how
    /// many times a receiver parked because it was empty (`recv_waits`).
    /// Cheap to clone; stays readable after the channel endpoints are
    /// dropped.
    #[derive(Clone, Default)]
    pub struct ChannelCounters {
        inner: Arc<CountersInner>,
    }

    impl ChannelCounters {
        /// Times a sender blocked on a full channel.
        pub fn send_waits(&self) -> u64 {
            self.inner.send_waits.load(Ordering::Relaxed)
        }

        /// Times a receiver blocked on an empty channel: one per park,
        /// however many lanes it waited on.
        pub fn recv_waits(&self) -> u64 {
            self.inner.recv_waits.load(Ordering::Relaxed)
        }

        fn record(&self, side: Side) {
            let waits = match side {
                Side::Send => &self.inner.send_waits,
                Side::Recv => &self.inner.recv_waits,
            };
            waits.fetch_add(1, Ordering::Relaxed);
        }
    }

    impl std::fmt::Debug for ChannelCounters {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("ChannelCounters")
                .field("send_waits", &self.send_waits())
                .field("recv_waits", &self.recv_waits())
                .finish()
        }
    }

    // ------------------------------------------------------------------
    // Channel core
    // ------------------------------------------------------------------

    struct Queue<T> {
        items: VecDeque<T>,
        /// `None` for an unbounded lane.
        cap: Option<usize>,
        senders: usize,
    }

    impl<T> Queue<T> {
        fn new(cap: Option<usize>, senders: usize) -> Self {
            Queue {
                items: cap.map_or_else(VecDeque::new, VecDeque::with_capacity),
                cap,
                senders,
            }
        }

        fn room(&self) -> usize {
            self.cap
                .map_or(usize::MAX, |cap| cap.saturating_sub(self.items.len()))
        }
    }

    struct State<T> {
        /// Indexed by [`Lane`].
        lanes: [Queue<T>; 2],
        receivers: usize,
        /// Threads parked for space in the data lane.
        send_waiting: usize,
        /// Threads parked for a message.
        recv_waiting: usize,
    }

    impl<T> State<T> {
        fn waiting(&mut self, side: Side) -> &mut usize {
            match side {
                Side::Send => &mut self.send_waiting,
                Side::Recv => &mut self.recv_waiting,
            }
        }

        /// The next delivery for a receiver that still counts the lanes
        /// flagged in `open` as open: a message, data lane first, else the
        /// closure of such a lane.
        fn take(&mut self, open: [bool; 2]) -> Option<Received<T>> {
            for lane in LANES {
                if let Some(msg) = self.lanes[lane as usize].items.pop_front() {
                    return Some(Received::Msg(lane, msg));
                }
            }
            LANES
                .into_iter()
                .find(|&lane| open[lane as usize] && self.lanes[lane as usize].senders == 0)
                .map(Received::Closed)
        }
    }

    type Guard<'a, T> = MutexGuard<'a, State<T>>;

    struct Chan<T> {
        state: Mutex<State<T>>,
        /// Senders wait here for space in the data lane; the control lane
        /// never fills.
        space: Condvar,
        /// Receivers wait here for a message or a closure.
        msgs: Condvar,
        counters: ChannelCounters,
    }

    impl<T> Chan<T> {
        /// A channel whose data lane holds `cap` messages (`None`:
        /// unbounded), with one data sender, `control` control senders and
        /// one receiver.
        fn new(cap: Option<usize>, control: usize) -> Arc<Self> {
            Arc::new(Chan {
                state: Mutex::new(State {
                    lanes: [Queue::new(cap, 1), Queue::new(None, control)],
                    receivers: 1,
                    send_waiting: 0,
                    recv_waiting: 0,
                }),
                space: Condvar::new(),
                msgs: Condvar::new(),
                counters: ChannelCounters::default(),
            })
        }

        fn lock(&self) -> Guard<'_, T> {
            // No code outside this module runs under the lock and every
            // critical section leaves the state consistent, so a poisoned
            // lock still guards a valid state.
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }

        fn condvar(&self, side: Side) -> &Condvar {
            match side {
                Side::Send => &self.space,
                Side::Recv => &self.msgs,
            }
        }

        /// Park on `side` until woken or until `deadline`, then retake the
        /// lock. The caller found the channel not ready under the lock it
        /// hands over, and the waiter is counted before that lock is
        /// released, so no push, pop or disconnect can slip between the
        /// check and the park. A wakeup may be spurious or meant for
        /// another waiter: the caller re-checks under the returned lock.
        fn wait<'a>(
            &'a self,
            mut state: Guard<'a, T>,
            side: Side,
            deadline: Option<Instant>,
        ) -> Guard<'a, T> {
            *state.waiting(side) += 1;
            self.counters.record(side);
            let cv = self.condvar(side);
            let mut state = match deadline {
                None => cv.wait(state).unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    let woken = cv.wait_timeout(state, left);
                    woken.unwrap_or_else(PoisonError::into_inner).0
                }
            };
            *state.waiting(side) -= 1;
            state
        }

        /// Release the lock, then wake the threads parked on `side` for
        /// `events` new messages or freed slots: none, one, or all when
        /// there is more than one. A condvar is signalled only while a
        /// waiter is counted, so the steady path makes no futex call, and
        /// only after the unlock: a thread woken while the waker still
        /// holds the lock would only block on it, and with the pipeline's
        /// threads sharing one CPU the waker is often preempted right at
        /// the wakeup.
        fn release(&self, mut state: Guard<'_, T>, side: Side, events: usize) {
            let waiting = *state.waiting(side) > 0;
            drop(state);
            if waiting {
                match events {
                    0 => {}
                    1 => self.condvar(side).notify_one(),
                    _ => self.condvar(side).notify_all(),
                }
            }
        }
    }

    /// The sending half of a channel, bound to one of its lanes.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
        lane: Lane,
    }

    /// The receiving half of a channel.
    pub struct Receiver<T> {
        chan: Arc<Chan<T>>,
    }

    impl<T> Sender<T> {
        /// Lock the channel once this sender's lane has room, parking while
        /// it is full; `None` once every receiver is gone.
        fn lock_room(&self) -> Option<Guard<'_, T>> {
            let mut state = self.chan.lock();
            loop {
                if state.receivers == 0 {
                    return None;
                }
                if state.lanes[self.lane as usize].room() > 0 {
                    return Some(state);
                }
                state = self.chan.wait(state, Side::Send, None);
            }
        }

        /// Queue `msg`, blocking while a bounded lane is at capacity.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let Some(mut state) = self.lock_room() else {
                return Err(SendError(msg));
            };
            state.lanes[self.lane as usize].items.push_back(msg);
            self.chan.release(state, Side::Recv, 1);
            Ok(())
        }

        /// Queue `msg` without blocking: fails with [`TrySendError::Full`]
        /// when a bounded lane is at capacity (the caller keeps the message
        /// and decides whether to retry), and with
        /// [`TrySendError::Disconnected`] once every receiver is gone.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let mut state = self.chan.lock();
            if state.receivers == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            let queue = &mut state.lanes[self.lane as usize];
            if queue.room() == 0 {
                return Err(TrySendError::Full(msg));
            }
            queue.items.push_back(msg);
            self.chan.release(state, Side::Recv, 1);
            Ok(())
        }

        /// Send every message in `batch`, blocking for space as needed.
        /// Each run that fits is queued under one lock acquisition, so a
        /// burst costs one synchronisation point instead of one per
        /// message. On disconnect the unsent tail comes back in the error.
        pub fn send_many(&self, batch: Vec<T>) -> Result<(), SendError<Vec<T>>> {
            let mut iter = batch.into_iter();
            while iter.len() > 0 {
                let Some(mut state) = self.lock_room() else {
                    return Err(SendError(iter.collect()));
                };
                let queue = &mut state.lanes[self.lane as usize];
                let n = queue.room().min(iter.len());
                queue.items.extend(iter.by_ref().take(n));
                self.chan.release(state, Side::Recv, n);
            }
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan.lock().lanes[self.lane as usize].senders += 1;
            Sender {
                chan: self.chan.clone(),
                lane: self.lane,
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.chan.lock();
            let queue = &mut state.lanes[self.lane as usize];
            queue.senders -= 1;
            // The lane's last sender: wake every parked receiver so it
            // observes the closure (after draining what remains).
            let closed = if queue.senders == 0 { usize::MAX } else { 0 };
            self.chan.release(state, Side::Recv, closed);
        }
    }

    impl<T> Receiver<T> {
        /// Take the next delivery for `open` (see [`Receiver::recv_lanes`])
        /// and release the lock, waking a sender when a data slot freed;
        /// hands the lock back when nothing is ready.
        fn poll<'a>(
            &'a self,
            mut state: Guard<'a, T>,
            open: [bool; 2],
        ) -> Result<Received<T>, Guard<'a, T>> {
            let Some(got) = state.take(open) else {
                return Err(state);
            };
            let freed = usize::from(matches!(got, Received::Msg(Lane::Data, _)));
            self.chan.release(state, Side::Send, freed);
            Ok(got)
        }

        /// Block until either lane has a message (data first), a lane the
        /// caller still flags in `open` (indexed by [`Lane`]) closes, or
        /// `deadline` passes. The caller clears a lane's flag once it has
        /// seen that lane's closure, so the closure is not reported again
        /// while the other lane stays open. A caller with both flags clear
        /// and nothing queued waits for its deadline, forever without one.
        pub fn recv_lanes(&self, open: [bool; 2], deadline: Option<Instant>) -> Received<T> {
            let mut state = self.chan.lock();
            loop {
                state = match self.poll(state, open) {
                    Ok(got) => return got,
                    Err(state) => state,
                };
                if deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                    return Received::TimedOut;
                }
                state = self.chan.wait(state, Side::Recv, deadline);
            }
        }

        /// Block until a message arrives or the data lane closes.
        pub fn recv(&self) -> Result<T, RecvError> {
            match self.recv_lanes([true, false], None) {
                Received::Msg(_, msg) => Ok(msg),
                Received::Closed(_) | Received::TimedOut => Err(RecvError),
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            match self.poll(self.chan.lock(), [true, false]) {
                Ok(Received::Msg(_, msg)) => Ok(msg),
                Ok(_) => Err(TryRecvError::Disconnected),
                Err(_) => Err(TryRecvError::Empty),
            }
        }

        /// Pop up to `max` ready data-lane messages under one lock
        /// acquisition, appending them to `out`. Returns how many were
        /// moved; never blocks and never reports closure.
        pub fn recv_drain(&self, out: &mut Vec<T>, max: usize) -> usize {
            let mut state = self.chan.lock();
            let data = &mut state.lanes[Lane::Data as usize].items;
            let n = max.min(data.len());
            out.extend(data.drain(..n));
            self.chan.release(state, Side::Send, n);
            n
        }

        /// Contention counters for this channel.
        pub fn counters(&self) -> ChannelCounters {
            self.chan.counters.clone()
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.chan.lock().receivers += 1;
            Receiver {
                chan: self.chan.clone(),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.chan.lock();
            state.receivers -= 1;
            // The last receiver: unblock senders so they observe the
            // disconnect.
            let gone = if state.receivers == 0 { usize::MAX } else { 0 };
            self.chan.release(state, Side::Send, gone);
        }
    }

    fn plain<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let chan = Chan::new(cap, 0);
        let tx = Sender {
            chan: chan.clone(),
            lane: Lane::Data,
        };
        (tx, Receiver { chan })
    }

    /// A channel whose `send` blocks once `cap` messages are queued.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        plain(Some(cap.max(1)))
    }

    /// A channel with an unbounded queue.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        plain(None)
    }

    /// A bolt task's inbox: a data lane holding `cap` messages and an
    /// unbounded control lane, as (data sender, control sender, receiver).
    pub fn inbox<T>(cap: usize) -> (Sender<T>, Sender<T>, Receiver<T>) {
        let chan = Chan::new(Some(cap.max(1)), 1);
        let data = Sender {
            chan: chan.clone(),
            lane: Lane::Data,
        };
        let control = Sender {
            chan: chan.clone(),
            lane: Lane::Control,
        };
        (data, control, Receiver { chan })
    }
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, inbox, unbounded, Lane, Received, TryRecvError, TrySendError};
    use std::thread;
    use std::time::Duration;

    #[test]
    fn try_send_reports_full_and_disconnected_without_blocking() {
        let (tx, rx) = bounded(1);
        assert_eq!(tx.try_send(1), Ok(()));
        assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)), "at capacity");
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(tx.try_send(3), Ok(()), "slot freed");
        drop(rx);
        assert_eq!(tx.try_send(4), Err(TrySendError::Disconnected(4)));
    }

    #[test]
    fn unbounded_roundtrip_and_disconnect() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert!(rx.recv().is_err());
    }

    #[test]
    fn bounded_blocks_until_drained() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let producer = thread::spawn(move || {
            tx.send(3).unwrap(); // must block until a recv frees a slot
            "done"
        });
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(producer.join().unwrap(), "done");
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn send_fails_without_receivers() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert!(tx.send(9).is_err());
    }

    #[test]
    fn batch_endpoints_roundtrip() {
        // send_many pushes a 100-element burst through a 4-slot channel
        // while a consumer drains; order and content must survive, and the
        // producer must block (not fail) whenever the channel is full.
        let (tx, rx) = bounded(4);
        let consumer = thread::spawn(move || {
            let mut got = Vec::new();
            loop {
                if rx.recv_drain(&mut got, 64) == 0 {
                    match rx.try_recv() {
                        Ok(v) => got.push(v),
                        Err(TryRecvError::Disconnected) => break,
                        Err(TryRecvError::Empty) => thread::sleep(Duration::from_micros(20)),
                    }
                }
            }
            got
        });
        tx.send_many((0..100).collect()).unwrap();
        drop(tx);
        assert_eq!(consumer.join().unwrap(), (0..100).collect::<Vec<i32>>());
    }

    #[test]
    fn send_many_reports_disconnect_with_the_unsent_tail() {
        let (tx, rx) = bounded::<i32>(4);
        drop(rx);
        match tx.send_many(vec![1, 2, 3]) {
            Err(super::channel::SendError(tail)) => assert_eq!(tail, vec![1, 2, 3]),
            Ok(()) => panic!("send_many must fail with no receivers"),
        }
    }

    #[test]
    fn inbox_serves_data_before_control() {
        let (data, control, rx) = inbox::<u32>(4);
        control.send(10).unwrap();
        data.send(1).unwrap();
        control.send(11).unwrap();
        data.send(2).unwrap();
        let got: Vec<Received<u32>> = (0..4).map(|_| rx.recv_lanes([true; 2], None)).collect();
        assert_eq!(
            got,
            vec![
                Received::Msg(Lane::Data, 1),
                Received::Msg(Lane::Data, 2),
                Received::Msg(Lane::Control, 10),
                Received::Msg(Lane::Control, 11),
            ]
        );
    }

    #[test]
    fn inbox_reports_each_lane_closed_once_drained() {
        let (data, control, rx) = inbox::<u32>(4);
        data.send(1).unwrap();
        control.send(2).unwrap();
        drop(data);
        // the data lane is closed but not drained: its message comes first
        assert_eq!(rx.recv_lanes([true; 2], None), Received::Msg(Lane::Data, 1));
        assert_eq!(
            rx.recv_lanes([true; 2], None),
            Received::Msg(Lane::Control, 2)
        );
        assert_eq!(rx.recv_lanes([true; 2], None), Received::Closed(Lane::Data));
        // with the data closure seen, the open control lane is waited on
        assert_eq!(
            rx.recv_lanes([false, true], Some(std::time::Instant::now())),
            Received::TimedOut
        );
        control.send(3).unwrap();
        drop(control);
        assert_eq!(
            rx.recv_lanes([false, true], None),
            Received::Msg(Lane::Control, 3)
        );
        assert_eq!(
            rx.recv_lanes([false, true], None),
            Received::Closed(Lane::Control)
        );
    }

    #[test]
    fn mpmc_under_threads() {
        let (tx, rx) = bounded::<u64>(8);
        let mut producers = Vec::new();
        for p in 0..4u64 {
            let tx = tx.clone();
            producers.push(thread::spawn(move || {
                for i in 0..100 {
                    tx.send(p * 1000 + i).unwrap();
                }
            }));
        }
        drop(tx);
        let mut consumers = Vec::new();
        for _ in 0..2 {
            let rx = rx.clone();
            consumers.push(thread::spawn(move || {
                let mut n = 0u64;
                while rx.recv().is_ok() {
                    n += 1;
                }
                n
            }));
        }
        drop(rx);
        for p in producers {
            p.join().unwrap();
        }
        let total: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, 400);
    }
}
