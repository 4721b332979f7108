//! Offline stand-in for the `crossbeam::channel` surface the threaded engine
//! runtime uses: `bounded` / `unbounded` MPMC channels, `never`, and an
//! event-driven `select!` macro.
//!
//! The build environment has no registry access, so this crate provides the
//! same semantics the runtime depends on:
//!
//! * bounded `send` blocks when the queue is full (backpressure) and fails
//!   once every receiver is gone,
//! * `recv`/`try_recv` report `Disconnected` only after the queue drains and
//!   every sender is gone,
//! * `select!` fires an arm when its channel has a message *or* is
//!   disconnected (matching crossbeam), sleeping on a registered wakeup —
//!   not a poll loop — while no arm is ready.
//!
//! Internally every channel is one mutex around its whole state: a
//! `VecDeque` (pre-sized for bounded channels, so a push never allocates),
//! an optional capacity, the endpoint counts and the two lists of parked
//! threads. Bounded and unbounded channels are the same type. The engine
//! sends batch envelopes of up to 128 messages, so a channel operation is
//! rare per message and a lock is cheap next to everything else a message
//! costs. Batch endpoints ([`channel::Sender::send_many`],
//! [`channel::Receiver::recv_drain`]) move a whole run of messages under one
//! lock acquisition. A blocked endpoint checks readiness and registers its
//! wakeup under the same lock that every push, pop and disconnect takes, so
//! a wakeup cannot fall between the check and the park; the waiters an
//! operation claims are signalled once it has released the lock. A park
//! ends only on a wakeup: there is no timed wait.
//! Per-channel wait counters ([`channel::ChannelCounters`]) record how
//! often a thread parked so the engine can report transport contention.

#![forbid(unsafe_code)]

pub mod channel {
    use std::cell::RefCell;
    use std::collections::VecDeque;
    use std::ops::{Deref, DerefMut};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
    use std::time::Duration;

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

        /// Times a receiver blocked on an empty channel (including `select!`
        /// parks that observed this channel).
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
    // Registered wakeups
    // ------------------------------------------------------------------

    /// One thread's parking token: a boolean under a mutex plus a condvar.
    /// Reused across waits via a thread-local, so parking costs no
    /// allocation on the steady path.
    struct WakeSlot {
        signalled: Mutex<bool>,
        cv: Condvar,
    }

    impl WakeSlot {
        fn new() -> Arc<Self> {
            Arc::new(WakeSlot {
                signalled: Mutex::new(false),
                cv: Condvar::new(),
            })
        }

        fn prepare(&self) {
            *self.signalled.lock().expect("wake slot poisoned") = false;
        }

        fn signal(&self) {
            let mut s = self.signalled.lock().expect("wake slot poisoned");
            *s = true;
            // Notify while holding the lock: the waiter re-checks the flag
            // under the same lock, so the wakeup cannot fall in the gap
            // between its check and its sleep.
            self.cv.notify_one();
        }

        /// Sleep until signalled.
        fn wait(&self) {
            let mut s = self.signalled.lock().expect("wake slot poisoned");
            while !*s {
                s = self.cv.wait(s).expect("wake slot poisoned");
            }
        }
    }

    thread_local! {
        static LOCAL_SLOT: Arc<WakeSlot> = WakeSlot::new();
        /// Waiters this thread claimed under a channel lock, signalled once
        /// the lock is released (see [`Locked`]).
        static CLAIMED: RefCell<Vec<Arc<WakeSlot>>> = const { RefCell::new(Vec::new()) };
    }

    fn local_slot() -> Arc<WakeSlot> {
        LOCAL_SLOT.with(Arc::clone)
    }

    /// The threads parked on one channel event (space freed, or message
    /// arrived), oldest first. Lives inside the channel state, so it is
    /// only ever touched under the channel lock.
    #[derive(Default)]
    struct Waiters(VecDeque<Arc<WakeSlot>>);

    impl Waiters {
        fn register(&mut self, slot: &Arc<WakeSlot>) {
            self.0.push_back(slot.clone());
        }

        /// Take `slot` off the list. Returns `false` when a waker already
        /// claimed it (it is no longer listed).
        fn remove(&mut self, slot: &Arc<WakeSlot>) -> bool {
            match self.0.iter().position(|s| Arc::ptr_eq(s, slot)) {
                Some(i) => {
                    self.0.remove(i);
                    true
                }
                None => false,
            }
        }

        /// Claim up to `n` waiters, oldest first. They are signalled when
        /// the channel lock is released.
        fn wake(&mut self, n: usize) {
            let n = n.min(self.0.len());
            if CLAIMED
                .try_with(|c| c.borrow_mut().extend(self.0.drain(..n)))
                .is_err()
            {
                // During thread teardown the list is gone: signal now.
                self.0.drain(..n).for_each(|slot| slot.signal());
            }
        }
    }

    // ------------------------------------------------------------------
    // Channel core
    // ------------------------------------------------------------------

    struct State<T> {
        queue: VecDeque<T>,
        /// `None` for an unbounded channel.
        cap: Option<usize>,
        senders: usize,
        receivers: usize,
        recv_waiters: Waiters,
        send_waiters: Waiters,
    }

    impl<T> State<T> {
        fn room(&self) -> usize {
            self.cap
                .map_or(usize::MAX, |cap| cap.saturating_sub(self.queue.len()))
        }

        fn waiters(&mut self, side: Side) -> &mut Waiters {
            match side {
                Side::Send => &mut self.send_waiters,
                Side::Recv => &mut self.recv_waiters,
            }
        }

        fn try_push(&mut self, msg: T) -> Result<(), TrySendError<T>> {
            if self.receivers == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            if self.room() == 0 {
                return Err(TrySendError::Full(msg));
            }
            self.queue.push_back(msg);
            self.recv_waiters.wake(1);
            Ok(())
        }

        fn try_pop(&mut self) -> Result<T, TryRecvError> {
            match self.queue.pop_front() {
                Some(v) => {
                    self.send_waiters.wake(1);
                    Ok(v)
                }
                None if self.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }
    }

    /// A held channel lock. Fields drop in declaration order, so dropping
    /// it releases the lock *before* signalling the waiters claimed under
    /// it: a thread woken while the waker still holds the lock would only
    /// block on it, and with the pipeline's threads sharing one CPU the
    /// waker is often preempted right at the wakeup. A late signal can
    /// reach a thread that has moved on to a later park; that park wakes
    /// spuriously and retries, as every park's caller does.
    struct Locked<'a, T> {
        state: MutexGuard<'a, State<T>>,
        _signal: SignalClaimed,
    }

    struct SignalClaimed;

    impl Drop for SignalClaimed {
        fn drop(&mut self) {
            let _ = CLAIMED.try_with(|c| c.borrow_mut().drain(..).for_each(|slot| slot.signal()));
        }
    }

    impl<T> Deref for Locked<'_, T> {
        type Target = State<T>;

        fn deref(&self) -> &State<T> {
            &self.state
        }
    }

    impl<T> DerefMut for Locked<'_, T> {
        fn deref_mut(&mut self) -> &mut State<T> {
            &mut self.state
        }
    }

    struct Chan<T> {
        state: Mutex<State<T>>,
        counters: ChannelCounters,
    }

    impl<T> Chan<T> {
        fn lock(&self) -> Locked<'_, T> {
            Locked {
                // No code outside this module runs under the lock and every
                // critical section leaves the state consistent, so a
                // poisoned lock still guards a valid state.
                state: self.state.lock().unwrap_or_else(PoisonError::into_inner),
                _signal: SignalClaimed,
            }
        }

        /// Park on `side` until woken, then retake the lock. The caller
        /// found the channel not ready under the lock it hands over, and
        /// the wakeup is registered before that lock is released, so no
        /// push, pop or disconnect can slip between the check and the park.
        /// The caller retries under the returned lock, so a wakeup it was
        /// handed is always used or found stale.
        fn park<'a>(&'a self, mut state: Locked<'a, T>, side: Side) -> Locked<'a, T> {
            let slot = local_slot();
            slot.prepare();
            state.waiters(side).register(&slot);
            drop(state);
            self.counters.record(side);
            slot.wait();
            let mut state = self.lock();
            state.waiters(side).remove(&slot);
            state
        }
    }

    /// The sending half of a channel.
    pub struct Sender<T> {
        chan: Arc<Chan<T>>,
    }

    /// The receiving half of a channel (or the never-ready channel).
    pub struct Receiver<T> {
        chan: Option<Arc<Chan<T>>>,
    }

    impl<T> Sender<T> {
        /// Queue `msg`, blocking while a bounded channel is at capacity.
        pub fn send(&self, mut msg: T) -> Result<(), SendError<T>> {
            let mut state = self.chan.lock();
            loop {
                match state.try_push(msg) {
                    Ok(()) => return Ok(()),
                    Err(TrySendError::Full(v)) => {
                        msg = v;
                        state = self.chan.park(state, Side::Send);
                    }
                    Err(TrySendError::Disconnected(v)) => return Err(SendError(v)),
                }
            }
        }

        /// Queue `msg` without blocking: fails with [`TrySendError::Full`]
        /// when a bounded channel is at capacity (the caller keeps the
        /// message and decides whether to retry), and with
        /// [`TrySendError::Disconnected`] once every receiver is gone.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            self.chan.lock().try_push(msg)
        }

        /// Send every message in `batch`, blocking for space as needed.
        /// Each run that fits is queued under one lock acquisition, so a
        /// burst costs one synchronisation point instead of one per
        /// message. On disconnect the unsent tail comes back in the error.
        pub fn send_many(&self, batch: Vec<T>) -> Result<(), SendError<Vec<T>>> {
            let mut iter = batch.into_iter();
            let mut state = self.chan.lock();
            while iter.len() > 0 {
                if state.receivers == 0 {
                    return Err(SendError(iter.collect()));
                }
                let n = state.room().min(iter.len());
                if n == 0 {
                    state = self.chan.park(state, Side::Send);
                    continue;
                }
                state.queue.extend(iter.by_ref().take(n));
                state.recv_waiters.wake(n);
            }
            Ok(())
        }

        /// Contention counters for this channel.
        pub fn counters(&self) -> ChannelCounters {
            self.chan.counters.clone()
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.chan.lock().senders += 1;
            Sender {
                chan: self.chan.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.chan.lock();
            state.senders -= 1;
            if state.senders == 0 {
                // Last sender: wake every parked receiver so it observes
                // the disconnect (after draining what remains).
                state.recv_waiters.wake(usize::MAX);
            }
        }
    }

    impl<T> Receiver<T> {
        /// Block until a message arrives or the channel disconnects.
        pub fn recv(&self) -> Result<T, RecvError> {
            let chan = self.chan.as_ref().ok_or(RecvError)?;
            let mut state = chan.lock();
            loop {
                match state.try_pop() {
                    Ok(v) => return Ok(v),
                    Err(TryRecvError::Disconnected) => return Err(RecvError),
                    Err(TryRecvError::Empty) => state = chan.park(state, Side::Recv),
                }
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            match &self.chan {
                Some(chan) => chan.lock().try_pop(),
                // `never()` is permanently pending, not disconnected
                None => Err(TryRecvError::Empty),
            }
        }

        /// Pop up to `max` ready messages under one lock acquisition,
        /// appending them to `out`. Returns how many were moved; never
        /// blocks and never reports disconnection (pair with
        /// [`Receiver::try_recv`] / `select!` for that).
        pub fn recv_drain(&self, out: &mut Vec<T>, max: usize) -> usize {
            let Some(chan) = &self.chan else {
                return 0;
            };
            let mut state = chan.lock();
            let n = max.min(state.queue.len());
            out.extend(state.queue.drain(..n));
            state.send_waiters.wake(n);
            n
        }

        /// Contention counters for this channel (zeroes for `never()`).
        pub fn counters(&self) -> ChannelCounters {
            match &self.chan {
                Some(chan) => chan.counters.clone(),
                None => ChannelCounters::default(),
            }
        }

        /// This receiver as a `select!` arm; `never()` yields an arm that
        /// is never registered.
        #[doc(hidden)]
        pub fn select_arm(&self) -> SelectArm<'_> {
            SelectArm(self.chan.as_deref().map(|chan| chan as &dyn Arm))
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            if let Some(chan) = &self.chan {
                chan.lock().receivers += 1;
            }
            Receiver {
                chan: self.chan.clone(),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            if let Some(chan) = &self.chan {
                let mut state = chan.lock();
                state.receivers -= 1;
                if state.receivers == 0 {
                    // Last receiver: unblock senders so they observe the
                    // disconnect.
                    state.send_waiters.wake(usize::MAX);
                }
            }
        }
    }

    fn with_capacity<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            state: Mutex::new(State {
                queue: cap.map_or_else(VecDeque::new, VecDeque::with_capacity),
                cap,
                senders: 1,
                receivers: 1,
                recv_waiters: Waiters::default(),
                send_waiters: Waiters::default(),
            }),
            counters: ChannelCounters::default(),
        });
        (Sender { chan: chan.clone() }, Receiver { chan: Some(chan) })
    }

    /// A channel whose `send` blocks once `cap` messages are queued.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(Some(cap.max(1)))
    }

    /// A channel with an unbounded queue.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// A receiver that is never ready (used to park a `select!` arm).
    pub fn never<T>() -> Receiver<T> {
        Receiver { chan: None }
    }

    /// The receive side of a channel as `select!` sees it, with the message
    /// type erased so arms of different types share one array.
    trait Arm {
        /// Register `slot` as a receive waiter unless a message is queued
        /// or every sender is gone. Returns whether it registered.
        fn register_unless_ready(&self, slot: &Arc<WakeSlot>) -> bool;
        /// Take `slot` off the receive waiters, handing a claimed wakeup on.
        fn cancel(&self, slot: &Arc<WakeSlot>);
        fn record_wait(&self);
    }

    impl<T> Arm for Chan<T> {
        fn register_unless_ready(&self, slot: &Arc<WakeSlot>) -> bool {
            let mut state = self.lock();
            if !state.queue.is_empty() || state.senders == 0 {
                return false;
            }
            state.recv_waiters.register(slot);
            true
        }

        fn cancel(&self, slot: &Arc<WakeSlot>) {
            let mut state = self.lock();
            // A waker claimed the slot for a message here, but the selector
            // may take another arm's message instead: pass the wakeup to the
            // next receiver so the message is not left beside a parked one.
            if !state.recv_waiters.remove(slot) && !state.queue.is_empty() {
                state.recv_waiters.wake(1);
            }
        }

        fn record_wait(&self) {
            self.counters.record(Side::Recv);
        }
    }

    /// One `select!` arm, from [`Receiver::select_arm`].
    #[doc(hidden)]
    pub struct SelectArm<'a>(Option<&'a dyn Arm>);

    /// Park until some arm may be ready. Registers one wake slot on each
    /// arm, re-checking that arm's readiness under its lock (a message or
    /// disconnect landing after the caller's poll is caught here), sleeps
    /// only if every arm is still pending, then cancels every registration.
    #[doc(hidden)]
    pub fn select_wait(arms: &[SelectArm<'_>]) {
        let live = || arms.iter().filter_map(|arm| arm.0);
        if live().next().is_none() {
            // Every arm is `never()`: no event can ever wake us, so yield
            // briefly in case the caller loops on external state.
            std::thread::sleep(Duration::from_micros(50));
            return;
        }
        let slot = local_slot();
        slot.prepare();
        let mut registered = 0;
        // Stops registering at the first ready arm.
        let pending = live().all(|arm| {
            let parked = arm.register_unless_ready(&slot);
            registered += usize::from(parked);
            parked
        });
        if pending {
            live().for_each(|arm| arm.record_wait());
            slot.wait();
        }
        live().take(registered).for_each(|arm| arm.cancel(&slot));
    }

    /// Typed `Err(RecvError)` constructor for the `select!` expansion (ties
    /// the message type to the receiver so inference never dangles).
    #[doc(hidden)]
    pub fn recv_err_of<T>(_rx: &Receiver<T>) -> Result<T, RecvError> {
        Err(RecvError)
    }

    pub use crate::select;
}

/// Event-driven `select!` over `recv(rx) -> msg => body` arms.
///
/// An arm fires when its channel yields a message (`msg` = `Ok(v)`) or is
/// disconnected (`msg` = `Err(RecvError)`), matching crossbeam's semantics.
/// `never()` receivers are permanently pending. While no arm is ready the
/// calling thread parks on a wake slot registered with every arm's channel
/// and is woken by the next send or disconnect — there is no polling loop.
#[macro_export]
macro_rules! select {
    ($(recv($rx:expr) -> $msg:pat => $body:expr),+ $(,)?) => {{
        'select: loop {
            $(
                match $rx.try_recv() {
                    Ok(__v) => {
                        #[allow(unreachable_code)]
                        {
                            let $msg = ::core::result::Result::<
                                _,
                                $crate::channel::RecvError,
                            >::Ok(__v);
                            $body;
                            break 'select;
                        }
                    }
                    Err($crate::channel::TryRecvError::Disconnected) => {
                        #[allow(unreachable_code)]
                        {
                            let $msg = $crate::channel::recv_err_of(&$rx);
                            $body;
                            break 'select;
                        }
                    }
                    Err($crate::channel::TryRecvError::Empty) => {}
                }
            )+
            $crate::channel::select_wait(&[$( $rx.select_arm() ),+]);
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::channel::{bounded, never, unbounded, TryRecvError, TrySendError};
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
    fn select_prefers_ready_channel_and_sees_disconnects() {
        let (tx_a, rx_a) = unbounded::<u32>();
        let (tx_b, rx_b) = unbounded::<u32>();
        tx_b.send(7).unwrap();
        #[allow(unused_assignments)]
        let mut got = None;
        crate::select! {
            recv(rx_a) -> m => got = Some(("a", m.is_ok())),
            recv(rx_b) -> m => got = Some(("b", m.is_ok())),
        }
        assert_eq!(got, Some(("b", true)));
        drop(tx_a);
        crate::select! {
            recv(rx_a) -> m => got = Some(("a", m.is_ok())),
        }
        assert_eq!(got, Some(("a", false)), "disconnect fires the arm");
        drop(tx_b);
    }

    #[test]
    fn never_is_permanently_pending() {
        let rx = never::<u32>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        let (tx, data) = unbounded::<u32>();
        tx.send(5).unwrap();
        #[allow(unused_assignments)]
        let mut got = 0;
        crate::select! {
            recv(data) -> m => got = m.unwrap(),
            recv(rx) -> _m => unreachable!("never() must not fire"),
        }
        assert_eq!(got, 5);
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
