//! Live queries against a running topology.
//!
//! Spawns the full distributed topology on its own thread
//! (`spawn_served`), then polls the serving layer from the main thread
//! while documents are still streaming in: global top-k by Jaccard,
//! per-tag neighborhoods, exact coefficient lookups, and snapshot
//! staleness. Every visible snapshot is a whole finalized round — the
//! serving layer never exposes a round mid-fence.
//!
//! ```sh
//! cargo run --release --example live_query
//! ```

use setcorr::prelude::*;
use std::time::Duration;

fn main() {
    // A deterministic synthetic stream: ~90 seconds of tweets at 1300/s.
    let workload = WorkloadConfig::with_seed(7);
    let docs = Generator::new(workload).take(120_000);

    let config = ExperimentConfig {
        algorithm: AlgorithmKind::Ds,
        k: 5,
        partitioners: 3,
        report_period: TimeDelta::from_secs(20),
        window: WindowKind::Time(TimeDelta::from_secs(20)),
        bootstrap_after: 2000,
        ..ExperimentConfig::for_algorithm(AlgorithmKind::Ds)
    };

    // Run on the threaded runtime, keeping a handle into the snapshot store.
    let live = spawn_served(&config, Box::new(docs), RunMode::Threaded);
    let handle: QueryHandle = live.query_handle();

    // Poll while the run is in flight. Each `snapshot()` is an Arc clone
    // under a read lock — it never blocks the Tracker's publications.
    let mut last_seq = 0;
    while !live.is_finished() {
        std::thread::sleep(Duration::from_millis(50));
        let snap = handle.snapshot();
        if snap.seq() == last_seq || snap.is_empty() {
            continue; // nothing new published since the last poll
        }
        last_seq = snap.seq();

        let round = snap.round().expect("non-empty snapshots carry a round");
        println!(
            "\nround {round} (publication #{}, {} tracked tagsets, {} behind head):",
            snap.seq(),
            snap.len(),
            handle.staleness(&snap)
        );
        for c in snap.top_k(5) {
            println!(
                "  {}  jaccard {:.3}  count {}",
                c.tags, c.jaccard, c.counter
            );
        }

        // Drill into the strongest correlation's neighborhood: every other
        // tracked tagset sharing a tag with it, strongest first.
        if let Some(best) = snap.top_k(1).next() {
            let tag = best.tags.iter().next().expect("tagsets are non-empty");
            let around = snap.neighbor_count(tag);
            println!("  neighborhood of tag {tag} ({around} tagsets):");
            for c in snap.neighbors(tag, 3) {
                println!("    {}  jaccard {:.3}", c.tags, c.jaccard);
            }
            // Exact lookup round-trips through the snapshot's hash table.
            let exact = snap.coefficient(&best.tags).expect("best is tracked");
            assert_eq!(exact, best);
        };
    }

    let report = live.finish();
    println!(
        "\nrun complete: {} rounds published, {} reader acquisitions, \
         {:.1} ms total snapshot build time",
        report.snapshots_published,
        report.reader_acquisitions,
        report.snapshot_build_seconds * 1e3
    );
}
