//! Stress suite for the mutex-guarded channel core: the semantics every
//! engine runtime leans on, pinned under deliberately hostile schedules —
//! tiny capacities, many threads, bursts racing single messages.
//!
//! The unit tests in `src/lib.rs` pin each primitive in isolation; this
//! suite pins the *combinations* that only misbehave under contention:
//! a message handed to two consumers, a burst overlapping a concurrent
//! pop, a wakeup lost between a consumer's last poll and its park, or one
//! claimed by a selector that then takes another arm's message.

use crossbeam::channel::{bounded, never, unbounded, ChannelCounters, RecvError, TryRecvError};
use crossbeam::select;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Backpressure: a bounded sender parks at capacity and resumes only when
/// the consumer actually frees a slot — it must not busy-complete early
/// and must not stay parked after the drain (lost wakeup).
#[test]
fn send_blocks_at_capacity_and_resumes_on_drain() {
    for cap in [1usize, 2, 128] {
        let (tx, rx) = bounded::<u64>(cap);
        for i in 0..cap as u64 {
            tx.send(i).unwrap();
        }
        let parked = Arc::new(AtomicBool::new(true));
        let sender = {
            let tx = tx.clone();
            let parked = parked.clone();
            thread::spawn(move || {
                tx.send(u64::MAX).unwrap(); // must block: channel is full
                parked.store(false, Ordering::SeqCst);
            })
        };
        thread::sleep(Duration::from_millis(50));
        assert!(
            parked.load(Ordering::SeqCst),
            "cap {cap}: send returned while the channel was full"
        );
        for i in 0..cap as u64 {
            assert_eq!(rx.recv(), Ok(i), "cap {cap}: FIFO order broken");
        }
        assert_eq!(rx.recv(), Ok(u64::MAX), "cap {cap}: parked send lost");
        sender.join().unwrap();
        assert!(!parked.load(Ordering::SeqCst));
    }
}

/// Disconnect ordering: every queued message drains before `Disconnected`
/// surfaces, in exact FIFO order, even when the senders are long gone by
/// the time the consumer starts.
#[test]
fn queued_messages_drain_before_disconnected() {
    for cap in [2usize, 128] {
        let (tx, rx) = bounded::<u64>(cap);
        let producer = thread::spawn(move || {
            for i in 0..10_000u64 {
                tx.send(i).unwrap();
            }
            // tx drops here: the consumer may still be mid-queue
        });
        let mut expected = 0u64;
        while let Ok(v) = rx.recv() {
            assert_eq!(v, expected, "cap {cap}: reordered during drain");
            expected += 1;
        }
        assert_eq!(expected, 10_000, "cap {cap}: messages lost at disconnect");
        producer.join().unwrap();
        // and try_recv agrees the channel is gone, not just empty
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }
}

/// MPMC conservation at the capacities the engine actually runs (a
/// batched bolt inbox is 1–8 slots): many producers, many consumers,
/// every message delivered exactly once, per-producer FIFO preserved
/// within each consumer's observations.
#[test]
fn mpmc_delivers_exactly_once_at_tiny_capacities() {
    const PRODUCERS: u64 = 8;
    const CONSUMERS: usize = 8;
    const PER_PRODUCER: u64 = 5_000;
    for cap in [1usize, 2, 128] {
        let (tx, rx) = bounded::<u64>(cap);
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        tx.send(p * PER_PRODUCER + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = (0..CONSUMERS)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || {
                    let mut seen: Vec<u64> = Vec::new();
                    while let Ok(v) = rx.recv() {
                        seen.push(v);
                    }
                    seen
                })
            })
            .collect();
        drop(rx);
        for p in producers {
            p.join().unwrap();
        }
        let mut all: Vec<u64> = Vec::new();
        for c in consumers {
            let seen = c.join().unwrap();
            // within one consumer, any one producer's messages are FIFO
            let mut last: Vec<Option<u64>> = vec![None; PRODUCERS as usize];
            for &v in &seen {
                let p = (v / PER_PRODUCER) as usize;
                if let Some(prev) = last[p] {
                    assert!(prev < v, "cap {cap}: producer {p} reordered");
                }
                last[p] = Some(v);
            }
            all.extend(seen);
        }
        all.sort_unstable();
        let expected: Vec<u64> = (0..PRODUCERS * PER_PRODUCER).collect();
        assert_eq!(
            all, expected,
            "cap {cap}: messages lost or duplicated under MPMC"
        );
    }
}

/// Burst endpoints racing single-message endpoints on one channel: the
/// room arithmetic must hold when `send_many`/`recv_drain` interleave
/// with plain `send`/`recv` at capacity 2.
#[test]
fn bursts_and_singles_interleave_without_loss() {
    const N: u64 = 20_000;
    let (tx, rx) = bounded::<u64>(2);
    let bursty = {
        let tx = tx.clone();
        thread::spawn(move || {
            let mut i = 0u64;
            while i < N / 2 {
                let take = 64.min(N / 2 - i);
                tx.send_many((i..i + take).collect()).unwrap();
                i += take;
            }
        })
    };
    let single = thread::spawn(move || {
        for i in N / 2..N {
            tx.send(i).unwrap();
        }
    });
    let mut all: Vec<u64> = Vec::new();
    let mut buf: Vec<u64> = Vec::new();
    while let Ok(v) = rx.recv() {
        all.push(v);
        rx.recv_drain(&mut buf, 64);
        all.append(&mut buf);
    }
    bursty.join().unwrap();
    single.join().unwrap();
    all.sort_unstable();
    let expected: Vec<u64> = (0..N).collect();
    assert_eq!(all, expected, "burst/single interleaving lost messages");
}

/// `select!` parks on registered wakeups now — a disconnect on one arm
/// must wake the parked selector promptly, not leave it sleeping until a
/// poll cadence that no longer exists.
#[test]
fn select_wakes_promptly_on_disconnect() {
    let (tx, rx) = bounded::<u64>(4);
    let (_ctl_tx, ctl_rx) = unbounded::<u64>();
    let dropper = thread::spawn(move || {
        thread::sleep(Duration::from_millis(100));
        drop(tx);
    });
    let start = Instant::now();
    let mut disconnected = false;
    while !disconnected {
        select! {
            recv(rx) -> msg => match msg {
                Ok(_) => {}
                Err(RecvError) => disconnected = true,
            },
            recv(ctl_rx) -> _msg => unreachable!("control arm never fires"),
        }
    }
    let waited = start.elapsed();
    dropper.join().unwrap();
    // generous bound: the point is "woken by the disconnect", not "woke
    // after some multiple of a 50µs poll loop that kept the CPU warm"
    assert!(
        waited < Duration::from_secs(5),
        "selector failed to wake on disconnect within 5s (waited {waited:?})"
    );
}

/// `select!` over a data arm and a `never()` arm: a message sent *after*
/// the selector has parked must wake it — the poll-then-park window must
/// be closed by the readiness re-check under each arm's lock.
#[test]
fn select_wakes_on_a_message_sent_after_it_parked() {
    let (tx, rx) = bounded::<u64>(4);
    let nv = never::<u64>();
    let received = Arc::new(AtomicU64::new(0));
    let selector = {
        let received = received.clone();
        thread::spawn(move || {
            // `select!` bodies run inside the macro's own loop, so loop
            // exit is signalled by flag (the engine's bolt loops do the
            // same).
            let mut open = true;
            while open {
                select! {
                    recv(rx) -> msg => match msg {
                        Ok(v) => { received.fetch_add(v, Ordering::SeqCst); },
                        Err(RecvError) => open = false,
                    },
                    recv(nv) -> _msg => unreachable!("never() fired"),
                }
            }
        })
    };
    // let the selector reach its park before each send
    for round in 1..=5u64 {
        thread::sleep(Duration::from_millis(30));
        tx.send(round).unwrap();
    }
    drop(tx);
    selector.join().unwrap();
    assert_eq!(received.load(Ordering::SeqCst), 1 + 2 + 3 + 4 + 5);
}

/// High-thread-count churn on one capacity-1 channel: the tightest queue
/// under the widest thread set, with producers and consumers appearing
/// and disappearing (clone + drop) mid-stream.
#[test]
fn capacity_one_survives_thread_churn() {
    const THREADS: u64 = 16;
    const PER_THREAD: u64 = 2_000;
    let (tx, rx) = bounded::<u64>(1);
    let produced = Arc::new(AtomicU64::new(0));
    let consumed = Arc::new(AtomicU64::new(0));
    let producers: Vec<_> = (0..THREADS)
        .map(|_| {
            let tx = tx.clone();
            let produced = produced.clone();
            thread::spawn(move || {
                for i in 0..PER_THREAD {
                    let tx2 = tx.clone(); // churn: clone/drop per message
                    tx2.send(i).unwrap();
                    produced.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    drop(tx);
    let consumers: Vec<_> = (0..THREADS)
        .map(|_| {
            let rx = rx.clone();
            let consumed = consumed.clone();
            thread::spawn(move || {
                while rx.recv().is_ok() {
                    consumed.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    drop(rx);
    for p in producers {
        p.join().unwrap();
    }
    for c in consumers {
        c.join().unwrap();
    }
    assert_eq!(produced.load(Ordering::Relaxed), THREADS * PER_THREAD);
    assert_eq!(
        consumed.load(Ordering::Relaxed),
        THREADS * PER_THREAD,
        "capacity-1 channel lost messages under churn"
    );
}

/// The wait counters move: a saturated channel records send-side waits, a
/// starved one records recv-side waits, and the counters survive the
/// endpoints (they are read after the run, engine-style).
#[test]
fn wait_counters_count_real_waits() {
    let (tx, rx) = bounded::<u64>(1);
    let counters = rx.counters();
    let consumer = thread::spawn(move || {
        let mut n = 0u64;
        while rx.recv().is_ok() {
            n += 1;
            thread::sleep(Duration::from_micros(200)); // force send-side parks
        }
        n
    });
    for i in 0..500u64 {
        tx.send(i).unwrap();
    }
    drop(tx);
    assert_eq!(consumer.join().unwrap(), 500);
    assert!(
        counters.send_waits() > 0,
        "a slow consumer on a 1-slot channel must park senders"
    );

    let (tx, rx) = bounded::<u64>(4);
    let counters = rx.counters();
    let producer = thread::spawn(move || {
        for i in 0..20u64 {
            thread::sleep(Duration::from_millis(5)); // force recv-side parks
            tx.send(i).unwrap();
        }
    });
    let mut n = 0u64;
    while rx.recv().is_ok() {
        n += 1;
    }
    producer.join().unwrap();
    assert_eq!(n, 20);
    assert!(
        counters.recv_waits() > 0,
        "a slow producer must park the receiver"
    );
}

/// Spin until `counters` shows more than `seen` receive parks: the thread
/// it tracks has registered its wakeup.
fn await_recv_park(counters: &ChannelCounters, seen: u64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while counters.recv_waits() <= seen {
        assert!(Instant::now() < deadline, "receiver never parked");
        thread::yield_now();
    }
}

/// Which receiver took a message, and through which arm.
enum Took {
    SelectA(u64),
    SelectB(u64),
    Recv(u64),
}

/// A `select!` over B and A shares A's waiters with a plain `recv` on A.
/// The selector registers on A first, so a send to A claims the selector's
/// wakeup; if a send to B lands before the selector runs, it takes B's
/// message (B is its first arm) and must pass A's wakeup on to the parked
/// `recv`, or A's message sits beside a sleeping receiver. Each round
/// sends one message to each channel (plus a replacement on A whenever the
/// selector takes A's); every message must arrive exactly once and both
/// receivers must finish the round within the watchdog bound.
#[test]
fn select_hands_a_claimed_wakeup_to_a_parked_recv() {
    const ROUNDS: u64 = 300;
    let (tx_a, rx_a) = unbounded::<u64>();
    let (tx_b, rx_b) = unbounded::<u64>();
    let (a_counters, b_counters) = (rx_a.counters(), rx_b.counters());
    let (took_tx, took) = mpsc::channel::<Took>();
    let (select_go, select_rounds) = mpsc::channel::<()>();
    let (recv_go, recv_rounds) = mpsc::channel::<()>();
    let selector = {
        let rx_a = rx_a.clone();
        let took_tx = took_tx.clone();
        thread::spawn(move || {
            while select_rounds.recv().is_ok() {
                let mut got_b = false;
                while !got_b {
                    select! {
                        recv(rx_b) -> m => {
                            took_tx.send(Took::SelectB(m.unwrap())).unwrap();
                            got_b = true;
                        },
                        recv(rx_a) -> m => took_tx.send(Took::SelectA(m.unwrap())).unwrap(),
                    }
                }
            }
        })
    };
    let receiver = thread::spawn(move || {
        while recv_rounds.recv().is_ok() {
            took_tx.send(Took::Recv(rx_a.recv().unwrap())).unwrap();
        }
    });
    let mut next = 0u64;
    let mut seen: Vec<u64> = Vec::new();
    for round in 0..ROUNDS {
        let (a0, b0) = (a_counters.recv_waits(), b_counters.recv_waits());
        select_go.send(()).unwrap();
        // the selector's park counts once on each arm
        await_recv_park(&b_counters, b0);
        recv_go.send(()).unwrap();
        await_recv_park(&a_counters, a0 + 1);
        tx_a.send(next).unwrap();
        tx_b.send(next + 1).unwrap();
        next += 2;
        let deadline = Instant::now() + Duration::from_secs(5);
        let (mut select_done, mut recv_done) = (false, false);
        while !(select_done && recv_done) {
            let left = deadline.saturating_duration_since(Instant::now());
            match took.recv_timeout(left) {
                Ok(Took::SelectB(v)) => {
                    seen.push(v);
                    select_done = true;
                }
                Ok(Took::SelectA(v)) => {
                    // the plain `recv` still needs a message this round
                    seen.push(v);
                    tx_a.send(next).unwrap();
                    next += 1;
                }
                Ok(Took::Recv(v)) => {
                    seen.push(v);
                    recv_done = true;
                }
                Err(_) => panic!(
                    "round {round}: a receiver stayed parked for 5s \
                     (selector done: {select_done}, recv done: {recv_done})"
                ),
            }
        }
    }
    drop((select_go, recv_go));
    selector.join().unwrap();
    receiver.join().unwrap();
    seen.sort_unstable();
    assert_eq!(
        seen,
        (0..next).collect::<Vec<u64>>(),
        "messages lost or duplicated"
    );
}
