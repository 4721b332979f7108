//! Run the full Figure 2 topology on the *threaded* runtime: one OS thread
//! per operator task (1 source + 1 parser + P partitioners + 1 merger +
//! 1 disseminator + k calculators + 1 tracker), communicating over bounded
//! channels with backpressure — the closest local equivalent of the paper's
//! 26-node Storm cluster. One more thread beside the topology computes the
//! exact answer the run is scored against.
//!
//! ```sh
//! cargo run --release --example distributed_pipeline
//! ```

use setcorr::prelude::*;
use std::time::Instant;

fn main() {
    let docs: Vec<Document> = Generator::new(WorkloadConfig::with_seed(3))
        .take(200_000)
        .collect();
    let n_docs = docs.len();

    let config = ExperimentConfig {
        algorithm: AlgorithmKind::Scl, // the load-balancing specialist
        k: 10,
        partitioners: 5,
        report_period: TimeDelta::from_secs(20),
        window: WindowKind::Time(TimeDelta::from_secs(20)),
        bootstrap_after: 3000,
        ..ExperimentConfig::for_algorithm(AlgorithmKind::Scl)
    };
    println!(
        "topology: 1 source + 1 parser + {} partitioners + 1 merger + 1 disseminator \
         + {} calculators + 1 tracker = {} threads (+ 1 scoring thread)",
        config.partitioners,
        config.k,
        5 + config.partitioners + config.k
    );

    let t0 = Instant::now();
    let report = run_docs(&config, docs, RunMode::Threaded);
    let elapsed = t0.elapsed();

    println!(
        "\nprocessed {} documents in {:.2?} ({:.0} docs/s wall)",
        n_docs,
        elapsed,
        n_docs as f64 / elapsed.as_secs_f64()
    );
    println!(
        "communication: {:.3} notifications per routed tagset",
        report.avg_communication
    );
    print!("load shares per calculator:");
    for share in &report.load_shares {
        print!(" {:.3}", share);
    }
    println!(
        "\nload gini: {:.3} (SCL keeps this near zero)",
        report.load_gini
    );
    println!(
        "repartitions: {} ({} communication / {} both / {} load)",
        report.repartitions_total(),
        report.repartitions_communication,
        report.repartitions_both,
        report.repartitions_load
    );
    println!(
        "accuracy: {:.1}% coverage, {:.4} mean abs error over {} eligible tagsets",
        report.coverage * 100.0,
        report.mean_abs_error,
        report.compared_tagsets
    );
}
