//! Stress suite for the mutex-guarded channel core: the semantics every
//! engine runtime leans on, pinned under deliberately hostile schedules —
//! tiny capacities, many threads, bursts racing single messages.
//!
//! The unit tests in `src/lib.rs` pin each primitive in isolation; this
//! suite pins the *combinations* that only misbehave under contention:
//! a message handed to two consumers, a burst overlapping a concurrent
//! pop, or a wakeup lost between a consumer's last check and its park.

use crossbeam::channel::{
    bounded, inbox, ChannelCounters, Lane, Received, TryRecvError, TrySendError,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
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

/// A parked inbox receiver must wake promptly when its data lane closes,
/// while its control lane stays open and silent.
#[test]
fn inbox_wakes_promptly_on_disconnect() {
    let (data, _control, rx) = inbox::<u64>(4);
    let dropper = thread::spawn(move || {
        thread::sleep(Duration::from_millis(100));
        drop(data);
    });
    let start = Instant::now();
    assert_eq!(
        rx.recv_lanes([true; 2], None),
        Received::Closed(Lane::Data),
        "only the data lane's closure can arrive"
    );
    let waited = start.elapsed();
    dropper.join().unwrap();
    // generous bound: the point is "woken by the disconnect", not "woke
    // after some multiple of a poll cadence"
    assert!(
        waited < Duration::from_secs(5),
        "receiver failed to wake on disconnect within 5s (waited {waited:?})"
    );
}

/// A message sent *after* the receiver has parked must wake it: the
/// check-then-park window is closed by counting the waiter under the lock.
#[test]
fn inbox_wakes_on_a_message_sent_after_it_parked() {
    let (data, _control, rx) = inbox::<u64>(4);
    let counters = rx.counters();
    let receiver = thread::spawn(move || {
        let mut received = 0;
        let mut open = [true; 2];
        while open[Lane::Data as usize] {
            match rx.recv_lanes(open, None) {
                Received::Msg(Lane::Data, v) => received += v,
                Received::Closed(lane) => open[lane as usize] = false,
                other => panic!("unexpected {other:?}"),
            }
        }
        received
    });
    for round in 1..=5u64 {
        await_recv_park(&counters, round - 1);
        data.send(round).unwrap();
    }
    drop(data);
    assert_eq!(receiver.join().unwrap(), 1 + 2 + 3 + 4 + 5);
}

/// A control send returns at once into an inbox whose data lane is full,
/// and wakes a receiver parked on the inbox.
#[test]
fn control_send_never_blocks_and_wakes_a_parked_receiver() {
    let (data, control, rx) = inbox::<u64>(2);
    data.send(1).unwrap();
    data.send(2).unwrap();
    assert_eq!(
        data.try_send(3),
        Err(TrySendError::Full(3)),
        "data lane full"
    );
    for i in 0..1_000 {
        control.send(100 + i).unwrap(); // returns at once: never blocks
    }
    for expected in [1, 2] {
        assert_eq!(
            rx.recv_lanes([true; 2], None),
            Received::Msg(Lane::Data, expected)
        );
    }
    for i in 0..1_000 {
        assert_eq!(
            rx.recv_lanes([true; 2], None),
            Received::Msg(Lane::Control, 100 + i)
        );
    }
    let counters = rx.counters();
    let receiver = thread::spawn(move || rx.recv_lanes([true; 2], None));
    await_recv_park(&counters, 0);
    control.send(7).unwrap();
    assert_eq!(receiver.join().unwrap(), Received::Msg(Lane::Control, 7));
    assert_eq!(counters.send_waits(), 0, "no send ever parked");
}

/// A deadline receive returns `TimedOut` once its deadline passes with
/// nothing queued, and a message sent after it parked ends the wait early.
#[test]
fn deadline_receive_times_out_or_wakes_on_a_late_message() {
    let (_data, _control, rx) = inbox::<u64>(4);
    let patience = Duration::from_millis(50);
    let start = Instant::now();
    assert_eq!(
        rx.recv_lanes([true; 2], Some(start + patience)),
        Received::TimedOut
    );
    assert!(start.elapsed() >= patience, "returned before its deadline");

    let (data, _control, rx) = inbox::<u64>(4);
    let counters = rx.counters();
    let receiver = thread::spawn(move || {
        let start = Instant::now();
        let got = rx.recv_lanes([true; 2], Some(start + Duration::from_secs(30)));
        (got, start.elapsed())
    });
    await_recv_park(&counters, 0);
    data.send(9).unwrap();
    let (got, waited) = receiver.join().unwrap();
    assert_eq!(got, Received::Msg(Lane::Data, 9));
    assert!(
        waited < Duration::from_secs(5),
        "slept through the message: {waited:?}"
    );
}

/// A receiver parked on both lanes of an inbox counts one receive wait per
/// park, not one per lane.
#[test]
fn one_receive_wait_is_counted_per_park() {
    let (data, control, rx) = inbox::<u64>(4);
    let counters = rx.counters();
    let receiver = thread::spawn(move || {
        (0..4)
            .map(|_| rx.recv_lanes([true; 2], None))
            .collect::<Vec<_>>()
    });
    for park in 0..4u64 {
        await_recv_park(&counters, park);
        assert_eq!(counters.recv_waits(), park + 1, "park {park} counted twice");
        if park % 2 == 0 {
            data.send(park).unwrap();
        } else {
            control.send(park).unwrap();
        }
    }
    let got = receiver.join().unwrap();
    assert_eq!(got.len(), 4);
    assert_eq!(counters.send_waits(), 0);
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
