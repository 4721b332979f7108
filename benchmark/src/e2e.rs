//! One end-to-end run: the served threaded pipeline on the program CPU,
//! driven and observed from the client CPUs through the public driver API
//! (`spawn_served` + `QueryHandle`).
//!
//! Threads: the feeder is the iterator the pipeline's spout pulls (so it
//! runs *on* the spout thread); the watcher polls `latest_seq()` to stamp
//! when each round becomes visible; readers issue query bursts; the
//! yardstick samples the program CPU's speed.

use crate::alloc;
use crate::host::{self, Placement};
use crate::workloads::{Load, Readers, Workload};
use setcorr_model::Document;
use setcorr_serve::{QueryHandle, Snapshot};
use setcorr_topology::{spawn_served, ExperimentConfig, RunMode, RunReport};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SETUP: u8 = 0;
const MEASURING: u8 = 1;
const CLOSED: u8 = 2;

/// Watcher poll interval: the resolution of every freshness sample.
const WATCH_EVERY: Duration = Duration::from_micros(100);

/// Open-loop release grid: documents become due in groups, once per tick,
/// like packets arriving — and the feeder wakes a thousand times a second
/// instead of once per document.
const PACE_TICK: Duration = Duration::from_millis(1);

/// Queries in one reader burst.
pub const BURST_QUERIES: usize = 16;

/// The clocks and counters a window edge is read from, stamped by the
/// watcher when a round becomes visible.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    pub at: Instant,
    pub process_cpu_ns: u64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Stolen time of the program CPU so far.
    pub steal_s: f64,
}

impl Stamp {
    fn now(program_cpu: usize) -> Self {
        let (allocs, alloc_bytes) = alloc::program_allocs();
        Stamp {
            at: Instant::now(),
            process_cpu_ns: host::process_cpu_ns(),
            allocs,
            alloc_bytes,
            steal_s: host::steal_s(program_cpu),
        }
    }
}

/// State shared between the feeder, the watcher and the readers.
struct Shared {
    phase: AtomicU8,
    /// Last measured round; `u64::MAX` until the feeder has decided it.
    last_round: AtomicU64,
    /// The pipeline has been joined: client threads exit.
    finished: AtomicBool,
}

/// What the feeder saw. Written once per round, under a lock nobody else
/// takes before the run is over.
#[derive(Debug, Default)]
pub struct FeedLog {
    /// `round_due[r]`: when the last document of round `r` was due (open
    /// loop: its scheduled release; closed loop: when the spout came back
    /// for the next one).
    pub round_due: Vec<Instant>,
    /// When the first measured document was handed to the spout.
    pub opened_at: Option<Instant>,
    /// Documents handed to the spout in total.
    pub handed: u64,
    /// Documents of the measured rounds.
    pub measured_docs: u64,
    /// Open loop only, one sample per wake-up: how far behind its schedule
    /// the feeder released the oldest due document, in ms.
    pub lag_ms: Vec<f64>,
}

/// The document source handed to `spawn_served`.
pub struct Feeder<I> {
    docs: I,
    period_ms: u64,
    boundary_ms: u64,
    round: u64,
    warmup_rounds: u64,
    window: Duration,
    pace: Option<Pace>,
    handed: u64,
    round_first_doc: u64,
    window_first_doc: u64,
    opened_at: Option<Instant>,
    done: bool,
    shared: Arc<Shared>,
    log: Arc<Mutex<FeedLog>>,
}

/// Open-loop schedule: document `i` is due at `t0 + tick(i)`, `t0` being
/// the first time the pipeline asked for a document.
pub struct Pace {
    docs_per_s: u64,
    t0: Option<Instant>,
    /// Documents below this index were due at the last clock reading.
    released: u64,
}

impl Pace {
    pub fn new(docs_per_s: u64) -> Self {
        Pace {
            docs_per_s,
            t0: None,
            released: 0,
        }
    }

    /// When document `doc` is due, relative to the start of the schedule.
    pub fn due_offset(&self, doc: u64) -> Duration {
        let ticks = (doc * 1000).div_ceil(self.docs_per_s);
        PACE_TICK * ticks as u32
    }

    /// Block until document `doc` is due. Sleeps, never spins, and never
    /// returns early; returns the lag if it had to read the clock.
    pub fn wait(&mut self, doc: u64) -> Option<f64> {
        if doc < self.released {
            return None;
        }
        let t0 = *self.t0.get_or_insert_with(Instant::now);
        let due = t0 + self.due_offset(doc);
        loop {
            let now = Instant::now();
            if now >= due {
                let ticks = (now - t0).as_millis() as u64;
                self.released = ticks * self.docs_per_s / 1000 + 1;
                return Some((now - due).as_secs_f64() * 1e3);
            }
            std::thread::sleep(due - now);
        }
    }
}

impl<I: Iterator<Item = Document>> Feeder<I> {
    /// Document `next_doc` is the first of a new round.
    fn round_closed(&mut self, next_doc: u64) {
        let due = match &self.pace {
            Some(pace) => {
                pace.t0.expect("paced document was handed") + pace.due_offset(next_doc - 1)
            }
            None => Instant::now(),
        };
        self.log.lock().expect("feed log").round_due.push(due);
        self.round += 1;
        self.round_first_doc = next_doc;
        self.boundary_ms += self.period_ms;
        if self.round == self.warmup_rounds {
            // the measured window opens with this document
            self.opened_at = Some(Instant::now());
            self.window_first_doc = next_doc;
            self.log.lock().expect("feed log").opened_at = self.opened_at;
            self.shared.phase.store(MEASURING, Ordering::SeqCst);
        }
        if self
            .opened_at
            .is_some_and(|opened| opened.elapsed() >= self.window)
        {
            self.finish();
        }
    }

    /// Stop handing documents: the last whole round is the last measured
    /// one, and the document that closed it the last one handed.
    fn finish(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        if self.opened_at.is_some() {
            self.log.lock().expect("feed log").measured_docs =
                self.round_first_doc - self.window_first_doc;
        }
        // SeqCst pairs with the watcher's load: the round can not become
        // visible before its closing document is handed, which is after this.
        self.shared
            .last_round
            .store(self.round.wrapping_sub(1), Ordering::SeqCst);
    }
}

impl<I: Iterator<Item = Document>> Iterator for Feeder<I> {
    type Item = Document;

    fn next(&mut self) -> Option<Document> {
        let doc = if self.done { None } else { self.docs.next() };
        let Some(doc) = doc else {
            // a trailing partial round is not measured
            self.finish();
            self.log.lock().expect("feed log").handed = self.handed;
            return None;
        };
        if let Some(pace) = &mut self.pace {
            if let Some(lag) = pace.wait(self.handed) {
                self.log.lock().expect("feed log").lag_ms.push(lag);
            }
        }
        while doc.timestamp.millis() >= self.boundary_ms && !self.done {
            self.round_closed(self.handed);
        }
        self.handed += 1;
        Some(doc)
    }
}

/// A client thread's CPU use inside the measured window, sampled on its own
/// thread clock when it notices the window open and close.
#[derive(Default)]
struct ClientCpu {
    at_open: Option<u64>,
    at_close: Option<u64>,
}

impl ClientCpu {
    fn poll(&mut self, shared: &Shared) {
        let phase = shared.phase.load(Ordering::Relaxed);
        if phase >= MEASURING && self.at_open.is_none() {
            self.at_open = Some(host::thread_cpu_ns());
        }
        if phase >= CLOSED && self.at_close.is_none() {
            self.at_close = Some(host::thread_cpu_ns());
        }
    }

    fn used_ns(mut self) -> u64 {
        let end = self.at_close.take().unwrap_or_else(host::thread_cpu_ns);
        self.at_open.map_or(0, |open| end.saturating_sub(open))
    }
}

struct WatchLog {
    /// `visible[r]`: stamped when the snapshot of round `r` was first seen.
    visible: Vec<Stamp>,
    /// Peak live heap when the workload's `heap_round` became visible.
    heap_peak_bytes: Option<u64>,
    cpu_ns: u64,
}

fn watch(
    handle: QueryHandle,
    shared: Arc<Shared>,
    heap_at_seq: u64,
    program_cpu: usize,
) -> WatchLog {
    let mut log = WatchLog {
        visible: Vec::new(),
        heap_peak_bytes: None,
        cpu_ns: 0,
    };
    let mut cpu = ClientCpu::default();
    loop {
        let finished = shared.finished.load(Ordering::SeqCst);
        let seq = handle.latest_seq();
        if seq as usize > log.visible.len() {
            log.visible.resize(seq as usize, Stamp::now(program_cpu));
            if log.heap_peak_bytes.is_none() && seq >= heap_at_seq {
                log.heap_peak_bytes = Some(alloc::peak_bytes());
            }
        }
        let last = shared.last_round.load(Ordering::SeqCst);
        if last != u64::MAX && seq > last && shared.phase.load(Ordering::SeqCst) == MEASURING {
            shared.phase.store(CLOSED, Ordering::SeqCst);
        }
        cpu.poll(&shared);
        if finished {
            break;
        }
        std::thread::sleep(WATCH_EVERY);
    }
    log.cpu_ns = cpu.used_ns();
    log
}

/// xorshift64: the readers' target picker.
pub struct XorShift(pub u64);

impl XorShift {
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// One burst against the snapshot in hand: [`BURST_QUERIES`] queries cycling
/// `top_k(10)`, `neighbors(tag, 10)`, `coefficient(tagset)` on targets drawn
/// from the snapshot itself, results cloned out as a client would. Returns
/// `(fingerprint of the targets, every answer satisfied its invariant)`.
pub fn query_burst(snap: &Snapshot, rng: &mut XorShift) -> (u64, bool) {
    let coefficients = snap.coefficients();
    let (mut fingerprint, mut ok) = (0u64, true);
    for q in 0..BURST_QUERIES {
        let pick = (rng.next() % coefficients.len() as u64) as usize;
        fingerprint = fingerprint.rotate_left(7) ^ pick as u64;
        let target = &coefficients[pick];
        match q % 3 {
            0 => {
                let top: Vec<_> = snap.top_k(10).cloned().collect();
                ok &= top.len() == coefficients.len().min(10)
                    && top.windows(2).all(|w| w[0].jaccard >= w[1].jaccard);
                std::hint::black_box(top);
            }
            1 => {
                let tag = target.tags.tags()[pick % target.tags.len()];
                let near: Vec<_> = snap.neighbors(tag, 10).cloned().collect();
                ok &= !near.is_empty()
                    && near.iter().all(|c| c.tags.contains(tag))
                    && near.windows(2).all(|w| w[0].jaccard >= w[1].jaccard);
                std::hint::black_box(near);
            }
            _ => {
                let hit = snap.coefficient(&target.tags).cloned();
                ok &= hit.as_ref() == Some(target);
                std::hint::black_box(hit);
            }
        }
    }
    (fingerprint, ok)
}

struct ReadLog {
    /// Wall time of each measured burst (snapshot acquisition included), µs.
    burst_us: Vec<f64>,
    broken: u64,
    cpu_ns: u64,
}

fn read(handle: QueryHandle, shared: Arc<Shared>, every: Duration, seed: u64) -> ReadLog {
    let mut log = ReadLog {
        burst_us: Vec::new(),
        broken: 0,
        cpu_ns: 0,
    };
    let mut rng = XorShift(seed | 1);
    let mut cpu = ClientCpu::default();
    while !shared.finished.load(Ordering::SeqCst) {
        std::thread::sleep(every);
        cpu.poll(&shared);
        if shared.phase.load(Ordering::Relaxed) != MEASURING {
            continue;
        }
        let start = Instant::now();
        let snap = handle.snapshot();
        if snap.is_empty() {
            continue;
        }
        let (_, ok) = query_burst(&snap, &mut rng);
        log.burst_us.push(start.elapsed().as_secs_f64() * 1e6);
        log.broken += u64::from(!ok);
    }
    cpu.poll(&shared);
    log.cpu_ns = cpu.used_ns();
    log
}

/// Everything one pipeline run produced, before any metric is derived.
pub struct Outcome {
    pub config: ExperimentConfig,
    pub report: RunReport,
    /// From "stream in memory" to the first measured document handed.
    pub setup: Duration,
    pub started: Instant,
    pub feed: FeedLog,
    /// `visible[r]`: stamped when round `r` was first seen published.
    pub visible: Vec<Stamp>,
    pub heap_peak_bytes: Option<u64>,
    pub heap_base_bytes: u64,
    pub burst_us: Vec<f64>,
    pub broken_bursts: u64,
    /// CPU the benchmark's own threads used inside the window.
    pub client_cpu_ns: u64,
    pub last_round: u64,
}

/// Run `docs` through the served pipeline. `window` bounds the measured
/// window of a closed loop; `readers` is `None` for set-up-only runs.
pub fn run_pipeline<I>(
    workload: &Workload,
    seed: u64,
    bootstrap_docs: Arc<Vec<Document>>,
    docs: I,
    window: Duration,
    readers: Option<Readers>,
    placement: &Placement,
) -> Outcome
where
    I: Iterator<Item = Document> + Send + 'static,
{
    let shared = Arc::new(Shared {
        phase: AtomicU8::new(SETUP),
        last_round: AtomicU64::new(u64::MAX),
        finished: AtomicBool::new(false),
    });
    let feed = Arc::new(Mutex::new(FeedLog::default()));
    let feeder = Feeder {
        docs,
        period_ms: workload.period().millis(),
        boundary_ms: workload.period().millis(),
        round: 0,
        warmup_rounds: workload.warmup_rounds,
        window,
        pace: match workload.load {
            Load::Closed => None,
            Load::Open { docs_per_s } => Some(Pace::new(docs_per_s)),
        },
        handed: 0,
        round_first_doc: 0,
        window_first_doc: 0,
        opened_at: None,
        done: false,
        shared: shared.clone(),
        log: feed.clone(),
    };

    alloc::reset_peak();
    let heap_base_bytes = alloc::live_bytes();
    let started = Instant::now();
    // Configure and spawn from a thread confined to the program CPU: every
    // pipeline thread inherits the mask, and the set-up work (the partition
    // bootstrap) runs where the program runs.
    let (run, config) = {
        let (workload, program) = (*workload, placement.program.clone());
        std::thread::Builder::new()
            .name("bench-spawner".into())
            .spawn(move || {
                host::pin_current_thread(&program);
                let config = workload.experiment_config(seed, &bootstrap_docs);
                let run = spawn_served(&config, Box::new(feeder), RunMode::Threaded);
                (run, config)
            })
            .expect("spawn the spawner")
            .join()
            .expect("spawner panicked")
    };

    let heap_at_seq = workload.warmup_rounds + workload.heap_round;
    let watcher = {
        let (handle, shared, program_cpu) =
            (run.query_handle(), shared.clone(), placement.program[0]);
        host::spawn_own_thread("bench-watcher", &placement.clients, move || {
            watch(handle, shared, heap_at_seq, program_cpu)
        })
    };
    let reader_threads: Vec<_> = readers
        .iter()
        .flat_map(|r| (0..r.threads as u64).map(|i| (r.every, seed.wrapping_add(i * 7919))))
        .map(|(every, reader_seed)| {
            let (handle, shared) = (run.query_handle(), shared.clone());
            host::spawn_own_thread("bench-reader", &placement.clients, move || {
                read(handle, shared, every, reader_seed)
            })
        })
        .collect();

    let report = run.finish();
    shared.finished.store(true, Ordering::SeqCst);
    let watched = watcher.join().expect("watcher panicked");
    let mut client_cpu_ns = watched.cpu_ns;
    let (mut burst_us, mut broken_bursts) = (Vec::new(), 0);
    for reader in reader_threads {
        let log = reader.join().expect("reader panicked");
        burst_us.extend(log.burst_us);
        broken_bursts += log.broken;
        client_cpu_ns += log.cpu_ns;
    }

    let feed = std::mem::take(&mut *feed.lock().expect("feed log"));
    Outcome {
        config,
        report,
        setup: feed.opened_at.map_or(Duration::ZERO, |at| at - started),
        started,
        feed,
        visible: watched.visible,
        heap_peak_bytes: watched.heap_peak_bytes,
        heap_base_bytes,
        burst_us,
        broken_bursts,
        client_cpu_ns,
        last_round: shared.last_round.load(Ordering::SeqCst),
    }
}
