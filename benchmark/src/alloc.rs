//! Counting global allocator: the benchmark's count-backed metrics.
//!
//! Live bytes and their peak are process-wide (a block allocated on one
//! thread may be freed on another). Allocation *counts* are taken only on
//! threads that did not mark themselves as benchmark clients, so the
//! reader, watcher and yardstick threads do not show up in the program's
//! `allocs_per_doc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

pub struct Counting;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // const-initialised and without a destructor, so reading it inside the
    // allocator neither allocates nor registers a TLS destructor
    static CLIENT: Cell<bool> = const { Cell::new(false) };
}

/// Exclude the calling thread's allocations from the program's counts.
pub fn mark_client_thread() {
    CLIENT.with(|c| c.set(true));
}

fn on_alloc(size: usize) {
    let size = size as u64;
    // Relaxed everywhere: these are statistics and publish no other data.
    let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
    PEAK.fetch_max(live, Ordering::Relaxed);
    if !CLIENT.with(|c| c.get()) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged; the counters beside it never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as ours, forwarded verbatim.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same contract as ours, forwarded verbatim.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: same contract as ours, forwarded verbatim.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            on_alloc(new_size);
        }
        p
    }
}

/// Bytes currently allocated, process-wide.
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// Highest [`live_bytes`] seen since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Restart peak tracking from the current live size.
pub fn reset_peak() {
    PEAK.store(live_bytes(), Ordering::Relaxed);
}

/// `(allocations, bytes)` made so far by non-client threads.
pub fn program_allocs() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// Hand freed heap pages back to the kernel. A set makes dozens of runs in
/// one process; without this the freed streams and round records of earlier
/// runs stay resident (2.1 GB after 24 runs against 1.3 GB for one).
pub fn release_freed_memory() {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` only releases memory the allocator holds
        // free; it takes no pointer and is safe to call at any time.
        unsafe { malloc_trim(0) };
    }
}
