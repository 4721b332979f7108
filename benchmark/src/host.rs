//! The host under the benchmark: CPU placement, CPU clocks and the in-run
//! yardstick that turns clock readings into reference-speed readings.
//!
//! Linux only (raw `sched_*affinity` / `clock_gettime` FFI, `/proc`).

use crate::alloc;
use crate::stats;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Kernel cpu-set size this benchmark handles (1024 CPUs).
const MASK_WORDS: usize = 16;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call and both clock ids exist on every Linux this runs on.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by the whole process, nanosecond resolution.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread: time it was pre-empted or
/// asleep does not count.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: the buffer is `MASK_WORDS * 8` bytes, as declared.
    let rc = unsafe { sched_getaffinity(0, MASK_WORDS * 8, mask.as_mut_ptr()) };
    assert_eq!(rc, 0, "sched_getaffinity failed");
    (0..MASK_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Restrict the calling thread (and every thread it spawns afterwards) to
/// `cpus`.
pub fn pin_current_thread(cpus: &[usize]) {
    let mut mask = [0u64; MASK_WORDS];
    for &cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: the buffer is `MASK_WORDS * 8` bytes, as declared; pid 0 is
    // the calling thread.
    let rc = unsafe { sched_setaffinity(0, MASK_WORDS * 8, mask.as_ptr()) };
    assert_eq!(rc, 0, "sched_setaffinity({cpus:?}) failed");
}

/// Spawn one of the benchmark's own threads: confined to `cpus`, and its
/// allocations kept out of the program's counts.
pub fn spawn_own_thread<T: Send + 'static>(
    name: &str,
    cpus: &[usize],
    work: impl FnOnce() -> T + Send + 'static,
) -> std::thread::JoinHandle<T> {
    let cpus = cpus.to_vec();
    std::thread::Builder::new()
        .name(name.into())
        .spawn(move || {
            alloc::mark_client_thread();
            pin_current_thread(&cpus);
            work()
        })
        .unwrap_or_else(|e| panic!("spawn {name}: {e}"))
}

/// Where the program and the benchmark's own threads run.
#[derive(Debug, Clone)]
pub struct Placement {
    /// The one CPU every pipeline thread is confined to: the last allowed.
    pub program: Vec<usize>,
    /// The remaining CPUs, for the feeder clock, watcher and readers. On a
    /// one-CPU host this is the same CPU and every clock metric is suspect.
    pub clients: Vec<usize>,
    /// All CPUs allowed at start-up (what an unpinned run gets).
    pub all: Vec<usize>,
}

impl Placement {
    pub fn detect() -> Self {
        let all = allowed_cpus();
        let (last, rest) = all.split_last().expect("no CPU allowed");
        Placement {
            program: vec![*last],
            clients: if rest.is_empty() {
                vec![*last]
            } else {
                rest.to_vec()
            },
            all,
        }
    }

    /// `Cpus_allowed_list`-style rendering for the run record.
    pub fn describe(cpus: &[usize]) -> String {
        cpus.iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// `(thread name, Cpus_allowed_list)` of every live thread of this process.
/// A thread that was not given a name carries its creator's.
pub fn thread_affinities() -> Vec<(String, String)> {
    let mut out = Vec::new();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for task in tasks.flatten() {
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
            continue; // thread exited between readdir and read
        };
        let field = |key: &str| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(key))
                .map(|v| v.trim().to_string())
                .unwrap_or_default()
        };
        out.push((field("Name:"), field("Cpus_allowed_list:")));
    }
    out
}

/// Time the hypervisor ran something else while `cpu` had work to do, in
/// seconds since boot (`steal` of `/proc/stat`; 0 where it is not reported).
pub fn steal_s(cpu: usize) -> f64 {
    const USER_HZ: f64 = 100.0;
    let label = format!("cpu{cpu}");
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().find(|l| l.split(' ').next() == Some(&label))?;
            line.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / USER_HZ)
}

/// Peak resident set of the process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------------
// Yardstick
// ---------------------------------------------------------------------------

/// One yardstick kernel: xorshift-indexed increments over a table.
struct Kernel {
    table_bytes: usize,
    steps: u32,
    /// Thread-CPU milliseconds it took on the reference host when the first
    /// baseline was recorded. Changing it rescales every normalised metric,
    /// so it changes only together with a fresh baseline.
    ref_ms: f64,
}

/// The table fits the core's private cache: this kernel slows with the core
/// (frequency, a busy sibling thread) and with little else.
const CORE: Kernel = Kernel {
    table_bytes: 1 << 20,
    steps: 200_000,
    ref_ms: 0.80,
};

/// The table is far larger than the private caches: this kernel slows when
/// a neighbour contends for the shared cache and for memory, which is where
/// the pipeline's working set (hundreds of MB of hash maps) lives.
const MEMORY: Kernel = Kernel {
    table_bytes: 16 << 20,
    steps: 100_000,
    ref_ms: 1.35,
};

/// Weight of the memory kernel in the speed factor. Neither kernel alone
/// tracks the pipeline: over repeated runs of one seed the core kernel left
/// 16 % of spread in the normalised rate in a contended phase of the host
/// where the memory kernel left 6 %, and the memory kernel over-corrected by
/// 10 % in a phase where the core kernel was right; in a calm phase every
/// weight from 0 to 1 left the same 5–6 %. The pipeline is part arithmetic,
/// part cache misses; so is the factor.
const MEMORY_WEIGHT: f64 = 0.5;

const YARD_EVERY: Duration = Duration::from_millis(100);

impl Kernel {
    fn table(&self) -> Vec<u32> {
        vec![0u32; self.table_bytes / 4]
    }

    /// Run once over `table`; returns the thread-CPU milliseconds it took.
    fn run(&self, table: &mut [u32], state: &mut u64) -> f64 {
        let t0 = thread_cpu_ns();
        let mask = table.len() - 1;
        let mut x = *state;
        for _ in 0..self.steps {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut table[x as usize & mask];
            *slot = slot.wrapping_add(x as u32);
        }
        *state = x;
        std::hint::black_box(&table[0]);
        (thread_cpu_ns() - t0) as f64 / 1e6
    }
}

/// A sample: when it finished and what the two kernels took.
#[derive(Debug, Clone, Copy)]
struct YardSample {
    at: Instant,
    core_ms: f64,
    memory_ms: f64,
}

impl YardSample {
    /// Above 1 when the host is slower than the reference.
    fn factor(&self) -> f64 {
        (1.0 - MEMORY_WEIGHT) * self.core_ms / CORE.ref_ms
            + MEMORY_WEIGHT * self.memory_ms / MEMORY.ref_ms
    }
}

/// The yardstick thread: runs on the *program's* CPU, so it shares the
/// pipeline's core speed, cache pressure and throttling, and times itself
/// on its own thread-CPU clock, so being pre-empted by the pipeline does not
/// count. A wall-clock yardstick and a yardstick on another CPU were both
/// tried and tracked the program's speed worse than no correction.
pub struct Yardstick {
    stop: Arc<AtomicBool>,
    samples: Arc<Mutex<Vec<YardSample>>>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl Yardstick {
    pub fn start(program_cpus: &[usize]) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let samples = Arc::new(Mutex::new(Vec::new()));
        let (stop_t, samples_t) = (stop.clone(), samples.clone());
        let join = spawn_own_thread("bench-yardstick", program_cpus, move || {
            let (mut core, mut memory) = (CORE.table(), MEMORY.table());
            let mut state = 0x9E37_79B9_7F4A_7C15u64;
            // fault the tables in
            CORE.run(&mut core, &mut state);
            MEMORY.run(&mut memory, &mut state);
            while !stop_t.load(Ordering::Relaxed) {
                let sample = YardSample {
                    core_ms: CORE.run(&mut core, &mut state),
                    memory_ms: MEMORY.run(&mut memory, &mut state),
                    at: Instant::now(),
                };
                samples_t
                    .lock()
                    .expect("yardstick samples lock")
                    .push(sample);
                std::thread::sleep(YARD_EVERY);
            }
        });
        Yardstick {
            stop,
            samples,
            join: Some(join),
        }
    }

    /// Summary of the samples that finished inside `[from, to]`.
    pub fn between(&self, from: Instant, to: Instant) -> YardSummary {
        let samples = self.samples.lock().expect("yardstick samples lock");
        let inside: Vec<YardSample> = samples
            .iter()
            .filter(|s| s.at >= from && s.at <= to)
            .copied()
            .collect();
        YardSummary::of(&inside)
    }

    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.join
            .take()
            .expect("yardstick joined once")
            .join()
            .expect("yardstick thread panicked")
    }
}

/// The host's speed over one interval, from the yardstick samples in it.
#[derive(Debug, Clone, Copy)]
pub struct YardSummary {
    pub samples: usize,
    /// Thread CPU the kernels in the interval consumed, in ms.
    pub total_ms: f64,
    /// Quartiles of the per-sample speed factor.
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    /// Median kernel times, for the record.
    pub core_ms: f64,
    pub memory_ms: f64,
}

impl YardSummary {
    fn of(samples: &[YardSample]) -> Self {
        if samples.is_empty() {
            // no sample landed in the interval: report reference speed
            return YardSummary {
                samples: 0,
                total_ms: 0.0,
                q1: 1.0,
                median: 1.0,
                q3: 1.0,
                core_ms: CORE.ref_ms,
                memory_ms: MEMORY.ref_ms,
            };
        }
        let column = |f: fn(&YardSample) -> f64| {
            let mut v: Vec<f64> = samples.iter().map(f).collect();
            v.sort_by(f64::total_cmp);
            v
        };
        let factor = column(YardSample::factor);
        YardSummary {
            samples: samples.len(),
            total_ms: samples.iter().map(|s| s.core_ms + s.memory_ms).sum(),
            q1: stats::quantile_sorted(&factor, 0.25),
            median: stats::quantile_sorted(&factor, 0.5),
            q3: stats::quantile_sorted(&factor, 0.75),
            core_ms: stats::quantile_sorted(&column(|s| s.core_ms), 0.5),
            memory_ms: stats::quantile_sorted(&column(|s| s.memory_ms), 0.5),
        }
    }

    /// Above 1 on a host slower than the reference. Rates are multiplied by
    /// it and durations divided by it.
    pub fn speed_factor(&self) -> f64 {
        self.median
    }

    /// The host changed speed under the run: quartiles more than 25 % apart.
    pub fn disturbed(&self) -> bool {
        (self.q3 - self.q1) / self.median > 0.25
    }
}

/// The reference kernel times, for the run record.
pub fn yard_ref_ms() -> (f64, f64) {
    (CORE.ref_ms, MEMORY.ref_ms)
}
