//! The four workloads: what stream, what configuration, what load.

use setcorr_core::AlgorithmKind;
use setcorr_model::{Document, TimeDelta, WindowKind};
use setcorr_topology::{bootstrap_partitions, ExperimentConfig};
use setcorr_workload::{Generator, WorkloadConfig};
use std::time::Duration;

/// Event-time arrival rate of every generated stream (documents per stream
/// second): with the report period it fixes the documents per round.
pub const STREAM_TPS: u64 = 1300;

/// Tagsets the pinned partition map is bootstrapped from: the value the
/// repo's recorded ingest benchmark has always used. The map covers about
/// two thirds of the later tagsets; the rest is parsed and dropped at the
/// Disseminator (`core.disseminator.routed_share` reports it).
const PINNED_BOOTSTRAP: u64 = 2_000;

/// How documents are offered to the pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// One feeder; the spout pulls the next document as fast as it can, so a
    /// slower pipeline is offered less.
    Closed,
    /// The feeder releases documents on a wall-clock schedule and never
    /// slows with the pipeline.
    Open { docs_per_s: u64 },
}

/// Concurrent query load beside the ingest.
#[derive(Debug, Clone, Copy)]
pub struct Readers {
    pub threads: usize,
    /// Pause between two bursts of one reader.
    pub every: Duration,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub load: Load,
    /// Report period = Partitioner window, in stream seconds.
    pub period_s: u64,
    /// Stationary stream and pinned control plane (byte-comparable to the
    /// sim oracle) against drifting stream and live control plane.
    pub pinned: bool,
    /// Rounds fed before the measured window opens; they belong to set-up.
    pub warmup_rounds: u64,
    /// `peak_heap_mb` is read when this measured round becomes visible, so
    /// it covers the same documents however fast the run went.
    pub heap_round: u64,
    /// Measured rounds a run must publish to count as sustained.
    pub min_rounds: u64,
    /// Closed-loop throughput on the reference host; sizes the stream.
    pub docs_per_s_hint: u64,
    pub readers: Readers,
}

/// Every workload is queried while it ingests; all but `readmix` lightly.
const LIGHT_READERS: Readers = Readers {
    threads: 1,
    every: Duration::from_millis(5),
};

pub const WORKLOADS: [Workload; 4] = [
    // The hot-path workload: parse, route, observe, report, track, publish
    // and the transport do all the work, the control plane none.
    Workload {
        name: "steady",
        load: Load::Closed,
        period_s: 20,
        pinned: true,
        warmup_rounds: 10,
        heap_round: 30,
        min_rounds: 30,
        docs_per_s_hint: 200_000,
        readers: LIGHT_READERS,
    },
    // Drifting, bursty stream under the live control plane: partitioning,
    // merging, single additions, fences and state migration set the
    // difference to `steady`.
    Workload {
        name: "churn",
        load: Load::Closed,
        period_s: 20,
        pinned: false,
        warmup_rounds: 10,
        heap_round: 12,
        min_rounds: 12,
        docs_per_s_hint: 100_000,
        readers: LIGHT_READERS,
    },
    // A fifth of saturation in short rounds: freshness is the round-close
    // path, not queueing; throughput work bypasses it.
    Workload {
        name: "paced",
        load: Load::Open { docs_per_s: 50_000 },
        period_s: 3,
        pinned: true,
        warmup_rounds: 20,
        heap_round: 60,
        min_rounds: 100,
        docs_per_s_hint: 50_000,
        readers: LIGHT_READERS,
    },
    // `steady`'s ingest beside a thousand query bursts a second per reader:
    // a publish-versus-query trade shows here and nowhere else.
    Workload {
        name: "readmix",
        load: Load::Closed,
        period_s: 20,
        pinned: true,
        warmup_rounds: 10,
        heap_round: 30,
        min_rounds: 30,
        docs_per_s_hint: 200_000,
        readers: Readers {
            threads: 2,
            every: Duration::from_millis(1),
        },
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Documents in a [`Workload::miniature`] stream.
pub const MINIATURE_DOCS: usize = 20_000;

impl Workload {
    /// The same workload shrunk to [`MINIATURE_DOCS`] documents: one-second
    /// rounds, three of them warm-up, so that the oracle rounds still fit.
    /// An open loop is slowed to 10k docs/s, or its window would be too short
    /// to tell a sustained rate. For the self-test; its numbers mean nothing.
    pub fn miniature(&self) -> Workload {
        Workload {
            load: match self.load {
                Load::Closed => Load::Closed,
                Load::Open { .. } => Load::Open { docs_per_s: 10_000 },
            },
            period_s: 1,
            warmup_rounds: 3,
            heap_round: 3,
            min_rounds: 12,
            readers: Readers {
                threads: self.readers.threads,
                every: Duration::from_millis(1),
            },
            ..*self
        }
    }

    pub fn docs_per_round(&self) -> u64 {
        STREAM_TPS * self.period_s
    }

    pub fn period(&self) -> TimeDelta {
        TimeDelta::from_secs(self.period_s)
    }

    /// Documents to materialise for a `seconds`-long window: the warm-up,
    /// then what the reference host ingests in the window with 30 % head
    /// room (a faster build or host ends its window early rather than
    /// running dry mid-round). Open loops offer exactly `rate × seconds`.
    pub fn stream_docs(&self, seconds: u64) -> usize {
        let measured = match self.load {
            Load::Closed => self.docs_per_s_hint * seconds * 13 / 10,
            Load::Open { docs_per_s } => docs_per_s * seconds,
        };
        // whole rounds, plus one document that closes the last of them
        let rounds = self.warmup_rounds + measured.div_ceil(self.docs_per_round());
        (rounds * self.docs_per_round() + 1) as usize
    }

    /// The generator settings: stationary for the pinned workloads (no
    /// topic drift, no trends, no bursts), the generator's defaults for
    /// `churn`.
    pub fn stream_config(&self, seed: u64) -> WorkloadConfig {
        let mut config = WorkloadConfig::with_seed(seed);
        config.tps = STREAM_TPS;
        if self.pinned {
            config.new_topic_every = None;
            config.trend_every = None;
            config.burst_every = None;
        }
        config
    }

    /// Materialise the stream for `seed`.
    pub fn generate(&self, seed: u64, docs: usize) -> Vec<Document> {
        Generator::new(self.stream_config(seed))
            .take(docs)
            .collect()
    }

    /// The pipeline configuration. `docs` is the stream the partitions are
    /// bootstrapped from when the control plane is pinned.
    pub fn experiment_config(&self, seed: u64, docs: &[Document]) -> ExperimentConfig {
        let config = ExperimentConfig {
            algorithm: AlgorithmKind::Ds,
            k: 5,
            partitioners: 3,
            tps: STREAM_TPS,
            report_period: self.period(),
            window: WindowKind::Time(self.period()),
            seed,
            ..ExperimentConfig::default()
        }
        .with_baseline(false);
        if !self.pinned {
            return config; // thr 0.5, sn 3, live migration, live bootstrap
        }
        // A partition map bootstrapped offline and never changed: drift can
        // not trigger (thr) and single additions never fire (sn), so routing
        // is a pure function of the tagset and a threaded run is
        // byte-identical to the sim oracle.
        let config = ExperimentConfig {
            thr: 1000.0,
            sn: u32::MAX,
            bootstrap_after: PINNED_BOOTSTRAP,
            ..config
        };
        let pinned = bootstrap_partitions(&config, docs);
        config.with_pinned_partitions(pinned)
    }
}
