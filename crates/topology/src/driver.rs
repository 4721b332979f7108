//! Experiment driver: builds the Figure 2 topology for a configuration and
//! runs it over a document stream on either runtime.

use crate::messages::Msg;
use crate::operators::{
    CalculatorBolt, Cut, DisseminatorBolt, MergerBolt, ParserBolt, PartitionerBolt, RoundCut,
    TrackerBolt,
};
use crate::oracle::ExactRun;
use crate::recorder::{RunRecorder, SharedRecorder};
use crate::report::RunReport;
use setcorr_approx::{ApproxCalculator, ApproxParams};
use setcorr_core::{
    AlgorithmKind, Calculator, CorrelationBackend, DisseminatorConfig, Merger, PartitionInput,
    PartitionSet, PartitionerOutput, QualityReference,
};
use setcorr_engine::{
    run_threaded_batched, try_run_sim_batched, BatchPolicy, Bolt, FaultSpec, Grouping, Spout,
    SuperviseConfig, ThreadedConfig, Topology, TopologyBuilder,
};
use setcorr_model::{fx, Document, TagSetWindow, TimeDelta, WindowKind};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Which correlation backend the Calculators run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Exact subset counting + inclusion–exclusion (§3.1).
    Exact,
    /// MinHash signatures + Count-Min heavy pairs (`setcorr-approx`):
    /// bounded memory and `O(k)` estimates at bounded Jaccard error.
    Approx(ApproxParams),
}

impl BackendKind {
    /// Approximate backend with default tuning.
    pub fn approx() -> Self {
        BackendKind::Approx(ApproxParams::default())
    }

    /// Stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::Exact => "exact",
            BackendKind::Approx(_) => "approx",
        }
    }

    fn build(&self) -> Box<dyn CorrelationBackend> {
        match *self {
            BackendKind::Exact => Box::new(Calculator::new()),
            // All Calculator tasks share one hash family: MinHash slots
            // only min-merge correctly across tasks when the same document
            // hashes identically everywhere, which live migration (and
            // replica agreement in general) depends on. Per-task error is
            // unaffected — only cross-task error correlation increases.
            BackendKind::Approx(params) => Box::new(ApproxCalculator::new(params)),
        }
    }
}

/// Deterministic component ids of the Figure 2 topology (declaration
/// order). The fault plan addresses components through these; they are
/// asserted at build time.
const PARSER_COMPONENT: usize = 1;
const CALCULATOR_COMPONENT: usize = 5;

/// One deterministic fault of a [`Supervision`] plan, addressed in topology
/// terms (which operator, which task, when) and translated to runtime
/// [`FaultSpec`]s — or armed directly inside the target bolt for faults the
/// runtime cannot express, like panicking while holding a lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Kill the Parser after it processed `after_messages` inbox envelopes
    /// (panic injected before the next one is handled).
    KillParser {
        /// Envelopes processed before the kill fires.
        after_messages: u64,
    },
    /// Kill Calculator task `task` after `after_messages` inbox envelopes.
    KillCalculator {
        /// Calculator task index.
        task: usize,
        /// Envelopes processed before the kill fires.
        after_messages: u64,
    },
    /// Swallow the `nth` (1-indexed) control-lane envelope bound for
    /// Calculator `calculator` — in the live topology that is an `Adopt`,
    /// which wedges the victim's migration barrier until the supervisor's
    /// starvation detector degrades it.
    DropAdopt {
        /// Victim Calculator task index.
        calculator: usize,
        /// Which control envelope to drop (1 = the first).
        nth: u64,
    },
    /// Calculator `calculator` panics *while holding the recorder lock*
    /// after observing `after_notifications` notifications — the poisoned
    /// lock must be absorbed (readers keep seeing coherent state) and the
    /// task recovered like any other panic.
    PoisonLock {
        /// Faulting Calculator task index.
        calculator: usize,
        /// Notifications observed before the panic fires.
        after_notifications: u64,
    },
}

/// Supervised execution: restart budget, deterministic fault plan, and
/// liveness knobs. Attach with [`ExperimentConfig::with_supervision`]; both
/// runtimes read it, and the fault plan fires at the same message counts on
/// either. A recovery that stays within budget is byte-indistinguishable
/// from never having failed, which is exactly what the fault-recovery suite
/// asserts against the unsupervised sim. The sim never waits out
/// `drain_patience`: once nothing is left to deliver, a starved task
/// degrades at once.
#[derive(Debug, Clone)]
pub struct Supervision {
    /// Restarts allowed per task before it degrades to a tombstone.
    pub max_restarts: u32,
    /// The deterministic fault plan (empty = supervision wrappers only).
    pub faults: Vec<Fault>,
    /// Silence a finished-input bolt may wait through for owed control
    /// traffic before the supervisor declares it starved and degrades it —
    /// the anti-deadlock backstop for lost control messages.
    pub drain_patience: Duration,
}

/// The runtime's defaults ([`SuperviseConfig::default`]), with no faults.
impl Default for Supervision {
    fn default() -> Self {
        let defaults = SuperviseConfig::default();
        Supervision {
            max_restarts: defaults.max_restarts,
            faults: Vec::new(),
            drain_patience: defaults.drain_patience,
        }
    }
}

/// One experiment configuration (§8.1 parameter grid).
///
/// ```
/// use setcorr_topology::{BackendKind, ExperimentConfig};
/// use setcorr_core::AlgorithmKind;
///
/// // The paper's defaults: DS partitioning, k = 10 Calculators, P = 10
/// // Partitioners, thr = 0.5, exact backend, live repartitioning on.
/// let config = ExperimentConfig::for_algorithm(AlgorithmKind::Ds);
/// assert_eq!((config.k, config.partitioners, config.thr), (10, 10, 0.5));
/// assert!(config.live_migration);
///
/// // Approximate backend, offline repartitioning — for comparison runs.
/// let variant = config
///     .clone()
///     .with_backend(BackendKind::approx())
///     .with_live_migration(false);
/// assert_eq!(variant.backend.name(), "approx");
/// assert!(!variant.live_migration);
/// ```
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Partitioning algorithm.
    pub algorithm: AlgorithmKind,
    /// Partitions = Calculators (`k`: 5 / 10 / 20).
    pub k: usize,
    /// Parallel Partitioners (`P`: 3 / 5 / 10).
    pub partitioners: usize,
    /// Repartition threshold (`thr`: 0.2 / 0.5).
    pub thr: f64,
    /// Arrival rate label, used for reporting (the stream itself encodes the
    /// spacing).
    pub tps: u64,
    /// Single-Addition sighting threshold (`sn`, paper: 3). `u32::MAX`
    /// means never: Single Additions are off and the Disseminator records
    /// no sightings.
    pub sn: u32,
    /// Quality-statistics batch (`z`, paper: 1000 routed tagsets).
    pub z: u64,
    /// Report period `y` (paper: 5 minutes).
    pub report_period: TimeDelta,
    /// Partitioner window `W` (paper: tweets of the previous 5 minutes).
    pub window: WindowKind,
    /// Tagsets observed before the bootstrap repartition request.
    pub bootstrap_after: u64,
    /// Routed tagsets per over-time chart sample.
    pub sample_every: u64,
    /// Seed for the (SCI) partitioner randomness.
    pub seed: u64,
    /// §7.3 elastic scaling: target window documents per active Calculator
    /// (`None` disables; all `k` Calculators get partitions).
    pub elastic_docs_per_calc: Option<u64>,
    /// Correlation backend the Calculators run (exact or approximate).
    pub backend: BackendKind,
    /// Live repartitioning (default on): partition installs are fenced to
    /// the Calculators, which hand per-tag tracking state to the new
    /// owners mid-stream instead of stranding it until the next round.
    /// Disable to reproduce the offline behaviour (new maps affect future
    /// routing only) for comparison runs.
    pub live_migration: bool,
    /// Score the run against the centralized exact computation (default
    /// on): a thread beside the run computes [`ExactRun::of`] the documents
    /// the source reads, and the driver [`RunReport::score`]s the report
    /// with it. Off, the report keeps coverage 1.0, error 0 and no compared
    /// tagsets — what throughput benchmarks run.
    ///
    /// The exact computation is the slowest reader of the stream, and its
    /// bounded queue paces a scored threaded run by it (it takes about a
    /// third of e2e wall time). Computed before the run instead, the
    /// threaded data plane outruns the control plane: repartition round
    /// trips and Single-Addition answers land several report periods of
    /// event time late, and threaded coverage falls from about 0.9 to
    /// 0.55–0.7 on the suites' streams.
    pub baseline: bool,
    /// Partition map installed at the Disseminator before the stream
    /// starts, skipping the bootstrap control round-trip. This removes the
    /// one scheduling-dependent input of a threaded run — which tagsets
    /// each Partitioner's window held when the bootstrap request arrived —
    /// making threaded runs with the exact backend byte-comparable to the
    /// sim oracle at the Tracker (see [`bootstrap_partitions`]).
    pub pinned_partitions: Option<Arc<PinnedPartitions>>,
    /// Supervised execution (either runtime): fault injection plan,
    /// restart policy, starvation patience. `None` (the default) runs the
    /// bare runtime with no supervision wrappers at all.
    pub supervision: Option<Supervision>,
    /// Bolt inbox capacity override in messages (threaded mode only;
    /// `None` keeps [`ThreadedConfig::default`]'s 1024). Small values force
    /// constant backpressure through the transport's queues — the
    /// high-contention equivalence suites pin determinism under exactly
    /// that regime. Sim runs ignore it.
    pub inbox_capacity: Option<usize>,
}

/// A partition map (with its §7.2 reference quality) pinned at Disseminator
/// construction time. Produced by [`bootstrap_partitions`].
#[derive(Debug, Clone)]
pub struct PinnedPartitions {
    /// The `k` partitions.
    pub partitions: PartitionSet,
    /// Reference `avgCom`/`maxLoad` for the drift monitor.
    pub reference: QualityReference,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            algorithm: AlgorithmKind::Ds,
            k: 10,
            partitioners: 10,
            thr: 0.5,
            tps: 1300,
            sn: 3,
            z: 1000,
            report_period: TimeDelta::from_minutes(5),
            window: WindowKind::Time(TimeDelta::from_minutes(5)),
            bootstrap_after: 1000,
            sample_every: 1000,
            seed: 42,
            elastic_docs_per_calc: None,
            backend: BackendKind::Exact,
            live_migration: true,
            baseline: true,
            pinned_partitions: None,
            supervision: None,
            inbox_capacity: None,
        }
    }
}

impl ExperimentConfig {
    /// Config for one algorithm, other parameters default (§8.2: P=10,
    /// k=10, thr=0.5, tps=1300).
    pub fn for_algorithm(algorithm: AlgorithmKind) -> Self {
        ExperimentConfig {
            algorithm,
            ..Default::default()
        }
    }

    /// This config with a different correlation backend.
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// This config with live repartitioning switched on or off.
    pub fn with_live_migration(mut self, on: bool) -> Self {
        self.live_migration = on;
        self
    }

    /// This config with scoring against the exact computation switched on
    /// or off. Without it the run reports no coverage/error figures.
    pub fn with_baseline(mut self, on: bool) -> Self {
        self.baseline = on;
        self
    }

    /// This config with a pre-installed partition map (skips bootstrap).
    pub fn with_pinned_partitions(mut self, pinned: PinnedPartitions) -> Self {
        self.pinned_partitions = Some(Arc::new(pinned));
        self
    }

    /// This config with a forced bolt inbox capacity (threaded mode only).
    /// Small capacities keep every data channel saturated, turning any
    /// transport-level reordering race into an equivalence failure.
    pub fn with_inbox_capacity(mut self, capacity: usize) -> Self {
        self.inbox_capacity = Some(capacity);
        self
    }

    /// This config under supervised execution (restart policy +
    /// deterministic fault plan), on either runtime.
    pub fn with_supervision(mut self, supervision: Supervision) -> Self {
        self.supervision = Some(supervision);
        self
    }
}

/// The partition map one offline Partitioner + Merger pass produces over
/// the first `config.bootstrap_after` non-empty tagsets of `docs` — a
/// deterministic function of the document stream alone, independent of
/// runtime scheduling.
///
/// Pin it with [`ExperimentConfig::with_pinned_partitions`] to remove the
/// bootstrap control round-trip: with the map fixed (and `thr` high enough
/// that drift never repartitions, `sn = u32::MAX` so that Single Additions
/// never fire), routing is a pure per-tagset function and a threaded run
/// with the exact backend produces byte-identical Tracker output to the sim
/// oracle — the anchor of `tests/parallel_equivalence.rs`.
pub fn bootstrap_partitions(config: &ExperimentConfig, docs: &[Document]) -> PinnedPartitions {
    let mut window = TagSetWindow::new(config.window);
    let mut seen = 0u64;
    for doc in docs {
        if doc.tags.is_empty() {
            continue;
        }
        window.insert(doc.tags.clone(), doc.timestamp);
        seen += 1;
        if seen >= config.bootstrap_after {
            break;
        }
    }
    let input = PartitionInput::from_window(&window);
    let output = PartitionerOutput::compute(config.algorithm, &input, config.k, config.seed);
    let outcome = Merger::new(config.algorithm, config.k).merge(vec![output], &input);
    PinnedPartitions {
        partitions: outcome.partitions,
        reference: outcome.reference,
    }
}

/// Which runtime executes the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Deterministic single-threaded simulation.
    Sim,
    /// One thread per task (Storm-like parallel execution).
    Threaded,
}

/// Build the full Figure 2 topology for `config` over `docs`.
pub fn build_topology(
    config: &ExperimentConfig,
    docs: Box<dyn Iterator<Item = Document> + Send>,
    recorder: SharedRecorder,
) -> Topology<Msg> {
    build_served_topology(config, docs, recorder, None)
}

/// [`build_topology`], optionally attaching a serving-layer [`Publisher`](setcorr_serve::Publisher)
/// to the Tracker so every closed round becomes a queryable snapshot.
fn build_served_topology(
    config: &ExperimentConfig,
    docs: Box<dyn Iterator<Item = Document> + Send>,
    recorder: SharedRecorder,
    publisher: Option<setcorr_serve::Publisher>,
) -> Topology<Msg> {
    let mut tb: TopologyBuilder<Msg> = TopologyBuilder::new();

    // The paper's experiments use one source, one Parser and one
    // Disseminator (§8.2); the stream is never materialised. The source
    // cuts the rounds: a tick leaves it ahead of the first document past
    // its round, flushing the partial batch behind it.
    let mut docs_slot = Some(docs);
    let cut = RoundCut::new(config.report_period);
    // It also counts the documents into the recorder, a round at a time:
    // the stream ends with a tick, so every document is counted by the
    // time the source is exhausted.
    let source = {
        let recorder = recorder.clone();
        tb.add_spout("source", 1, move |_| {
            let docs = docs_slot.take().expect("single source task");
            let recorder = recorder.clone();
            let mut documents = 0u64;
            let stream = cut.cut(docs).map(move |item| {
                match item {
                    Cut::Doc(_) => documents += 1,
                    Cut::Tick(..) => recorder.lock().documents += std::mem::take(&mut documents),
                }
                Msg::from(item)
            });
            Box::new(stream) as Box<dyn Spout<Msg>>
        })
    };

    let parser = tb.add_bolt("parser", 1, |_| Box::new(ParserBolt) as Box<dyn Bolt<Msg>>);
    assert_eq!(parser, PARSER_COMPONENT);

    let algo = config.algorithm;
    let (k, window, seed) = (config.k, config.window, config.seed);
    let partitioner = tb.add_bolt("partitioner", config.partitioners, move |task| {
        Box::new(PartitionerBolt::new(task, algo, k, window, seed)) as Box<dyn Bolt<Msg>>
    });

    let merger = {
        let recorder = recorder.clone();
        let (p, sn) = (config.partitioners, config.sn as u64);
        let elastic = config.elastic_docs_per_calc;
        tb.add_bolt("merger", 1, move |_| {
            Box::new(MergerBolt::new(algo, k, p, sn, recorder.clone()).with_elastic(elastic))
                as Box<dyn Bolt<Msg>>
        })
    };

    // Calculators are declared after the Disseminator in Figure 2, but the
    // Disseminator needs their component id for direct grouping — ids are
    // deterministic (declaration order), so precompute it.
    let disseminator_id = merger + 1;
    let calculator_id = disseminator_id + 1;

    let disseminator = {
        let recorder = recorder.clone();
        let dconf = DisseminatorConfig {
            sn: config.sn,
            z: config.z,
            thr: config.thr,
        };
        let (bootstrap, sample) = (config.bootstrap_after, config.sample_every);
        let live = config.live_migration;
        let pinned = config.pinned_partitions.clone();
        tb.add_bolt("disseminator", 1, move |_| {
            let bolt =
                DisseminatorBolt::new(k, dconf, calculator_id, bootstrap, sample, recorder.clone())
                    .with_live_migration(live);
            let bolt = match &pinned {
                Some(p) => bolt.with_initial_partitions(&p.partitions, p.reference),
                None => bolt,
            };
            Box::new(bolt) as Box<dyn Bolt<Msg>>
        })
    };
    assert_eq!(disseminator, disseminator_id);

    let backend = config.backend;
    let calculator = {
        let recorder = recorder.clone();
        // Poison-lock faults fire inside the bolt (the runtime cannot
        // panic-while-holding-a-lock on a task's behalf). Each one has its
        // own latch, shared across incarnations, so a restarted task never
        // re-fires it.
        let poisons: Vec<(usize, u64, Arc<AtomicBool>)> = config
            .supervision
            .iter()
            .flat_map(|s| &s.faults)
            .filter_map(|f| match *f {
                Fault::PoisonLock {
                    calculator,
                    after_notifications,
                } => Some((calculator, after_notifications, Arc::default())),
                _ => None,
            })
            .collect();
        tb.add_bolt("calculator", config.k, move |task| {
            let bolt =
                CalculatorBolt::new(task, calculator_id, k, backend.build(), recorder.clone());
            let bolt = poisons
                .iter()
                .filter(|(victim, ..)| *victim == task)
                .fold(bolt, |bolt, (_, after, fired)| {
                    bolt.with_poison(*after, fired.clone())
                });
            Box::new(bolt) as Box<dyn Bolt<Msg>>
        })
    };
    assert_eq!(calculator, calculator_id);

    let tracker = {
        let recorder = recorder.clone();
        let mut publisher_slot = publisher;
        tb.add_bolt("tracker", 1, move |_| {
            let bolt = TrackerBolt::new(k, recorder.clone());
            let bolt = match publisher_slot.take() {
                Some(publisher) => bolt.with_publisher(publisher),
                None => bolt,
            };
            Box::new(bolt) as Box<dyn Bolt<Msg>>
        })
    };

    // Wiring (see module docs of `operators` for the full map).
    tb.connect(source, "docs", parser, Grouping::Global);
    tb.connect(parser, "tagsets", disseminator, Grouping::Shuffle);
    tb.connect(
        parser,
        "tagsets",
        partitioner,
        // fields grouping on the whole tagset s_i (§6.2)
        Grouping::Fields(Arc::new(|m: &Msg| match m {
            Msg::TagSet { tags, .. } => fx::hash_one(tags),
            _ => 0,
        })),
    );
    tb.connect(parser, "ticks", disseminator, Grouping::All);
    tb.connect(partitioner, "parts", merger, Grouping::Global);
    tb.connect(merger, "partitions", disseminator, Grouping::All);
    tb.connect(merger, "additions", disseminator, Grouping::All);
    tb.connect(disseminator, "notifs", calculator, Grouping::Direct);
    tb.connect(disseminator, "calcticks", calculator, Grouping::All);
    // Epoch fences ride the same FIFO channels as notifications and ticks.
    tb.connect(disseminator, "fence", calculator, Grouping::All);
    tb.connect_feedback(disseminator, "repart", partitioner, Grouping::All);
    tb.connect_feedback(disseminator, "addreq", merger, Grouping::Global);
    // Peer-to-peer state handoff: a control self-loop, excluded from
    // end-of-stream tracking (the `drained` barrier covers it instead).
    tb.connect_feedback(calculator, "adopt", calculator, Grouping::Direct);
    tb.connect(calculator, "coeffs", tracker, Grouping::Global);

    tb.build()
}

/// Documents the scoring thread may fall behind the source by: the
/// threaded runtime's default inbox capacity, so the exact computation
/// paces a scored run as one more consumer of the stream would.
const SCORER_QUEUE: usize = 1024;

/// Messages accumulated per channel batch on the threaded runtime — also
/// the unit of vectorized operator execution, since each batch envelope is
/// one [`setcorr_engine::Bolt::on_batch`] call. Chosen below the inbox
/// capacity so backpressure still engages (the bounded inbox holds
/// `1024 / THREADED_BATCH` envelopes); raised from 32 with the vectorized
/// operators, where deeper batches amortize both the channel operation and
/// the per-batch operator dispatch (measured knee at 64–128 on the ingest
/// e2e; 256 regresses as the coarser backpressure lets rounds pile up).
pub const THREADED_BATCH: usize = 128;

/// The channel-batching policy the experiment driver runs the threaded
/// runtime with: per-tuple traffic ([`Msg::is_batchable`]) batches up to
/// [`THREADED_BATCH`] deep; ticks, fences and all control traffic act as
/// flush barriers, preserving round completeness and the §7.2 fence /
/// migration-barrier semantics.
pub fn batch_policy() -> BatchPolicy<Msg> {
    BatchPolicy::new(THREADED_BATCH, |m: &Msg| !m.is_batchable())
}

/// Run one experiment over a boxed document stream.
///
/// Both modes execute batch-at-a-time: the sim oracle coalesces adjacent
/// same-destination messages so the vectorized `on_batch` operator paths
/// run under deterministic delivery too, and the threaded runtime carries
/// the per-operator wall-time breakdown into
/// [`RunReport::operator_seconds`].
pub fn run(
    config: &ExperimentConfig,
    docs: Box<dyn Iterator<Item = Document> + Send>,
    mode: RunMode,
) -> RunReport {
    run_with_publisher(config, docs, mode, None)
}

fn run_with_publisher(
    config: &ExperimentConfig,
    docs: Box<dyn Iterator<Item = Document> + Send>,
    mode: RunMode,
    publisher: Option<setcorr_serve::Publisher>,
) -> RunReport {
    let serve_counters = publisher.as_ref().map(|p| p.subscribe());
    let degrade_flag = publisher.as_ref().map(|p| p.degrade_flag());
    // Scoring computes the exact rounds beside the run, from the documents
    // as the source reads them, through a bounded queue (see
    // `ExperimentConfig::baseline` for why not before the run).
    let (docs, scorer) = if config.baseline {
        let (tx, rx) = std::sync::mpsc::sync_channel::<Document>(SCORER_QUEUE);
        let period = config.report_period;
        let scorer = std::thread::spawn(move || ExactRun::of(rx, period));
        let docs = docs.inspect(move |doc| {
            let _ = tx.send(doc.clone());
        });
        (Box::new(docs) as Box<_>, Some(scorer))
    } else {
        (docs, None)
    };
    let recorder = RunRecorder::shared(config.k);
    let topology = build_served_topology(config, docs, recorder.clone(), publisher);
    let names: Vec<String> = topology
        .component_names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let supervision = config
        .supervision
        .as_ref()
        .map(|s| supervise_config(s, &recorder, degrade_flag));
    let stats = match mode {
        RunMode::Sim => try_run_sim_batched(topology, batch_policy(), supervision)
            .unwrap_or_else(|e| panic!("{e}")),
        RunMode::Threaded => {
            let defaults = ThreadedConfig::default();
            let threaded = ThreadedConfig {
                inbox_capacity: config.inbox_capacity.unwrap_or(defaults.inbox_capacity),
                supervision,
            };
            run_threaded_batched(topology, threaded, batch_policy())
        }
    };
    let rec = recorder.lock();
    let mut report = RunReport::from_recorder(
        config.algorithm.name(),
        config.k,
        config.partitioners,
        config.thr,
        config.tps,
        &rec,
    );
    report.backend = config.backend.name().to_string();
    if let Some(scorer) = scorer {
        report.score(&scorer.join().expect("scorer panicked"));
    }
    report.faults_injected = stats.faults_injected;
    report.tasks_restarted = stats.tasks_restarted;
    report.rounds_replayed = stats.rounds_replayed;
    // degraded_tasks is in (component, task) order → distinct components
    let mut components: Vec<usize> = stats.degraded_tasks.iter().map(|&(c, _)| c).collect();
    components.dedup();
    report.degraded_components = components.len() as u64;
    // Wall-clock attribution exists only on the threaded runtime: a sim
    // report stays a function of the stream and the fault plan.
    if mode == RunMode::Threaded {
        report.channel_waits = names
            .iter()
            .cloned()
            .zip(
                stats
                    .channel_send_waits
                    .into_iter()
                    .zip(stats.channel_recv_waits),
            )
            .map(|(name, (s, r))| (name, s, r))
            .collect();
        // per-instance attribution aggregates into the per-component total:
        // `operator_seconds[c]` is the sum of `operator_task_seconds[c]`,
        // added in task order
        let component_seconds = stats
            .task_busy_seconds
            .iter()
            .map(|tasks| tasks.iter().sum());
        report.operator_seconds = names.iter().cloned().zip(component_seconds).collect();
        report.operator_task_seconds = names.into_iter().zip(stats.task_busy_seconds).collect();
    }
    if let Some(counters) = serve_counters {
        report.snapshots_published = counters.snapshots_published();
        report.reader_acquisitions = counters.reader_acquisitions();
        report.snapshot_build_seconds = counters.build_seconds();
    }
    report
}

/// Translate a [`Supervision`] plan into the runtime's terms.
fn supervise_config(
    sup: &Supervision,
    recorder: &SharedRecorder,
    degrade_flag: Option<setcorr_serve::DegradeFlag>,
) -> SuperviseConfig {
    // Runtime-level faults; PoisonLock is armed inside the bolt (see
    // `build_served_topology`) and surfaces to the supervisor as an
    // injected panic like the others.
    let faults = sup
        .faults
        .iter()
        .filter_map(|f| match *f {
            Fault::KillParser { after_messages } => Some(FaultSpec::KillTask {
                component: PARSER_COMPONENT,
                task: 0,
                after_messages,
            }),
            Fault::KillCalculator {
                task,
                after_messages,
            } => Some(FaultSpec::KillTask {
                component: CALCULATOR_COMPONENT,
                task,
                after_messages,
            }),
            Fault::DropAdopt { calculator, nth } => Some(FaultSpec::DropControl {
                component: CALCULATOR_COMPONENT,
                task: calculator,
                nth,
            }),
            Fault::PoisonLock { .. } => None,
        })
        .collect();
    // Degradations fan out to the route-around machinery: the recorder's
    // degraded set (Disseminator repartitions around the dead Calculator,
    // the Merger stops assigning it tags) and the serving store's honesty
    // marker.
    let recorder = recorder.clone();
    let on_degrade = move |component: usize, task: usize| {
        if component == CALCULATOR_COMPONENT {
            recorder.lock().mark_degraded(task);
        }
        if let Some(flag) = &degrade_flag {
            flag.set();
        }
    };
    SuperviseConfig {
        max_restarts: sup.max_restarts,
        faults,
        drain_patience: sup.drain_patience,
        on_degrade: Some(Arc::new(on_degrade)),
    }
}

/// Convenience: run over a vector of documents.
pub fn run_docs(config: &ExperimentConfig, docs: Vec<Document>, mode: RunMode) -> RunReport {
    run(config, Box::new(docs.into_iter()), mode)
}

/// A served experiment running on a background thread: the query handle is
/// live *during* ingest — the XRay-style workload of concurrent correlation
/// queries against a continuously-updating stream.
pub struct LiveRun {
    handle: setcorr_serve::QueryHandle,
    join: std::thread::JoinHandle<RunReport>,
}

impl LiveRun {
    /// The serving-layer query handle (clone it into reader threads).
    pub fn query_handle(&self) -> setcorr_serve::QueryHandle {
        self.handle.clone()
    }

    /// Whether the run has finished ingesting.
    pub fn is_finished(&self) -> bool {
        self.join.is_finished()
    }

    /// Wait for the stream to drain and collect the report. The query
    /// handle (and any clone of it) keeps answering from the last published
    /// snapshot afterwards.
    pub fn finish(self) -> RunReport {
        self.join.join().expect("served run panicked")
    }
}

/// Start a served run on a background thread and hand back the live
/// [`LiveRun`] immediately; queries work mid-run.
pub fn spawn_served(
    config: &ExperimentConfig,
    docs: Box<dyn Iterator<Item = Document> + Send + 'static>,
    mode: RunMode,
) -> LiveRun {
    let (publisher, handle) = setcorr_serve::store();
    let config = config.clone();
    let join = std::thread::Builder::new()
        .name("setcorr-served-run".into())
        .spawn(move || run_with_publisher(&config, docs, mode, Some(publisher)))
        .expect("spawn served run");
    LiveRun { handle, join }
}
