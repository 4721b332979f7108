//! The traced run: replay the workload's own stream through each layer's
//! public functions, single-threaded, with a span around every call.
//!
//! The replay walks the same path a document takes through the topology —
//! parse, window insert, route, observe per batch; report, dedup, snapshot
//! build, publish, query per round; partition, merge, install, migrate when
//! the Disseminator asks (and on a fixed drill every few rounds, against
//! scratch state, so the control plane's cost is on record for every
//! workload). Spans come from this file, around the calls; nothing inside
//! the program is instrumented.

use setcorr_approx::{ApproxCalculator, ApproxParams};
use setcorr_core::{
    disjoint_sets, plan_handoff, Calculator, CorrelationBackend, Disseminator, DisseminatorAction,
    DisseminatorConfig, Merger, PartitionInput, PartitionSet, PartitionerOutput, RouteResult,
    TrackedCoefficient, Tracker,
};
use setcorr_model::{fx, Document, FxHashMap, TagSet, TagSetStat, TagSetWindow};
use setcorr_serve::Snapshot;
use setcorr_topology::{ExperimentConfig, THREADED_BATCH};
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// Rounds between two control-plane drills.
const DRILL_EVERY: u64 = 4;
/// Tagsets offered to the scratch Merger as single additions per drill.
const DRILL_ADDITIONS: usize = 32;
/// Queries of each kind issued against every published snapshot.
const QUERIES_PER_KIND: usize = 64;
/// Rounds whose notifications are replayed into the approximate backend.
const APPROX_ROUNDS: usize = 3;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Id of the enclosing span; the root has none.
    pub parent: Option<u32>,
    pub round: u64,
}

/// In-memory span recorder. Disabled, it records nothing and reads no
/// clock: the untraced replay that `trace.overhead_share` compares against.
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    round: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            round: self.round,
        });
        self.open.push(id);
    }

    fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let id = self.open.pop().expect("exit without enter");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Time `work` as a leaf span.
    fn leaf<R>(&mut self, name: &'static str, work: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = work();
        self.exit();
        out
    }

    /// Total duration per span name, and the share of the root span's
    /// duration that no leaf accounts for (self time of the inner nodes).
    pub fn totals(&self) -> (FxHashMap<&'static str, u64>, f64) {
        let mut by_name: FxHashMap<&'static str, u64> = FxHashMap::default();
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            *by_name.entry(s.name).or_insert(0) += s.end_ns - s.start_ns;
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        // a span with children is structure ("replay", "round"): its self
        // time is time inside no layer
        let inner_self: u64 = self
            .spans
            .iter()
            .zip(&child_ns)
            .filter(|(_, &c)| c > 0)
            .map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .sum();
        let root = self.spans.first().map_or(1, |s| s.end_ns - s.start_ns);
        (by_name, inner_self as f64 / root.max(1) as f64)
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"round\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, parent, s.round
            )?;
        }
        out.flush()
    }
}

/// Work counted at the layer boundaries of one replay.
#[derive(Debug, Default)]
pub struct Counts {
    pub docs: u64,
    pub tagsets: u64,
    pub routed: u64,
    pub notifications: u64,
    pub per_calc: Vec<u64>,
    pub window_distinct: u64,
    pub reported: u64,
    pub kept: u64,
    pub rounds: u64,
    pub partition_requests: u64,
    pub partition_passes: u64,
    pub single_additions: u64,
    pub addition_calls: u64,
    pub migrated_units: u64,
    pub build_ms: Vec<f64>,
    pub publish_us: Vec<f64>,
    pub lookups: u64,
    pub lookup_hits: u64,
    pub approx_notifications: u64,
    pub approx_rounds: u64,
}

/// The single-threaded stand-in for the topology.
struct Replay<'a> {
    config: &'a ExperimentConfig,
    tracer: &'a mut Tracer,
    counts: Counts,
    windows: Vec<TagSetWindow>,
    merger: Merger,
    dissem: Disseminator,
    partitions: Option<Arc<PartitionSet>>,
    calcs: Vec<Calculator>,
    batch_counts: FxHashMap<TagSet, u64>,
    tracker: Tracker,
    publisher: setcorr_serve::Publisher,
    route: RouteResult,
    tagsets: Vec<(setcorr_model::Timestamp, TagSet)>,
    notifs: Vec<Vec<TagSet>>,
    seen_tagsets: u64,
    /// Per-Calculator notifications of the first [`APPROX_ROUNDS`] rounds.
    approx_sample: Vec<Vec<Vec<TagSet>>>,
}

impl<'a> Replay<'a> {
    fn new(config: &'a ExperimentConfig, tracer: &'a mut Tracer) -> Self {
        let k = config.k;
        let mut dissem = Disseminator::new(
            k,
            DisseminatorConfig {
                sn: config.sn,
                z: config.z,
                thr: config.thr,
            },
        );
        let mut partitions = None;
        if let Some(pinned) = &config.pinned_partitions {
            dissem.install_partitions(&pinned.partitions, pinned.reference);
            partitions = Some(Arc::new(pinned.partitions.clone()));
        }
        let (publisher, _handle) = setcorr_serve::store();
        Replay {
            config,
            tracer,
            counts: Counts {
                per_calc: vec![0; k],
                ..Counts::default()
            },
            windows: (0..config.partitioners)
                .map(|_| TagSetWindow::new(config.window))
                .collect(),
            merger: Merger::new(config.algorithm, k),
            dissem,
            partitions,
            calcs: (0..k).map(|_| Calculator::new()).collect(),
            batch_counts: FxHashMap::default(),
            tracker: Tracker::new(),
            publisher,
            route: RouteResult::default(),
            tagsets: Vec::with_capacity(THREADED_BATCH),
            notifs: (0..k).map(|_| Vec::new()).collect(),
            seen_tagsets: 0,
            approx_sample: vec![vec![Vec::new(); k]; APPROX_ROUNDS],
        }
    }

    /// One batch of documents, as one envelope travels the data plane.
    fn batch(&mut self, docs: &[Document]) {
        self.counts.docs += docs.len() as u64;
        let tagsets = &mut self.tagsets;
        self.tracer.leaf("topology.parse", || {
            tagsets.clear();
            tagsets.extend(
                docs.iter()
                    .filter(|d| !d.tags.is_empty())
                    .map(|d| (d.timestamp, d.tags.clone())),
            );
        });
        self.counts.tagsets += self.tagsets.len() as u64;

        let (windows, tagsets) = (&mut self.windows, &self.tagsets);
        self.tracer.leaf("model.window_insert", || {
            for (time, tags) in tagsets {
                // fields grouping on the whole tagset, as the topology wires it
                let slot = (fx::hash_one(tags) % windows.len() as u64) as usize;
                windows[slot].insert(tags.clone(), *time);
            }
        });

        self.tracer.enter("core.disseminator.route");
        let mut actions = Vec::new();
        for (_, tags) in &self.tagsets {
            self.seen_tagsets += 1;
            if !self.dissem.has_partitions() {
                continue; // unrouted until the bootstrap partitions install
            }
            self.dissem.route_into(tags, &mut self.route);
            if !self.route.notifications.is_empty() {
                self.counts.routed += 1;
            }
            for (calc, subset) in self.route.notifications.drain(..) {
                self.counts.notifications += 1;
                self.counts.per_calc[calc] += 1;
                self.notifs[calc].push(subset);
            }
            actions.append(&mut self.route.actions);
        }
        self.tracer.exit();

        if let Some(round) = self.approx_sample.get_mut(self.counts.rounds as usize) {
            for (calc, notifs) in self.notifs.iter().enumerate() {
                round[calc].extend(notifs.iter().cloned());
            }
        }

        let (calcs, notifs, batch_counts) =
            (&mut self.calcs, &mut self.notifs, &mut self.batch_counts);
        self.tracer.leaf("core.calculator.observe", || {
            // the Calculator bolt's vectorized path: identical tagsets of a
            // batch fold into one count-weighted observe
            for (calc, notifs) in calcs.iter_mut().zip(notifs.iter_mut()) {
                for tags in notifs.drain(..) {
                    *batch_counts.entry(tags).or_insert(0) += 1;
                }
                for (tags, n) in batch_counts.drain() {
                    calc.observe_n(&tags, n);
                }
            }
        });

        if !self.dissem.has_partitions() && self.seen_tagsets >= self.config.bootstrap_after {
            self.repartition(true);
        }
        for action in actions {
            match action {
                DisseminatorAction::RequestRepartition(_) => {
                    self.counts.partition_requests += 1;
                    self.repartition(true);
                }
                DisseminatorAction::RequestSingleAddition(tags) => {
                    let (merger, sn) = (&mut self.merger, self.config.sn as u64);
                    let calc = self.tracer.leaf("core.merger.single_addition", || {
                        merger.single_addition(&tags, sn)
                    });
                    self.counts.addition_calls += 1;
                    if let Some(calc) = calc {
                        self.counts.single_additions += 1;
                        self.dissem.apply_single_addition(&tags, calc);
                    }
                }
            }
        }
    }

    /// The control plane, end to end: Partitioners → Merger → Disseminator
    /// install → Calculator state handoff. `install = false` is the drill:
    /// the same calls against scratch state, leaving the replay untouched.
    fn repartition(&mut self, install: bool) {
        self.counts.partition_passes += 1;
        let windows = &self.windows;
        let inputs: Vec<PartitionInput> = self.tracer.leaf("core.partition.input", || {
            windows.iter().map(PartitionInput::from_window).collect()
        });
        let outputs: Vec<PartitionerOutput> = self.tracer.leaf("core.partition.algo", || {
            inputs
                .iter()
                .map(|input| PartitionerOutput::DisjointSets(disjoint_sets(input)))
                .collect()
        });
        let stats: Vec<TagSetStat> = inputs.iter().flat_map(|i| i.stats.clone()).collect();
        let mut scratch_merger = Merger::new(self.config.algorithm, self.config.k);
        let merger = if install {
            &mut self.merger
        } else {
            &mut scratch_merger
        };
        let outcome = self.tracer.leaf("core.merger.merge", || {
            merger.merge(outputs, &PartitionInput::from_stats(stats))
        });
        if !install {
            let sample: Vec<TagSet> = self
                .tagsets
                .iter()
                .take(DRILL_ADDITIONS)
                .map(|(_, t)| t.clone())
                .collect();
            self.counts.addition_calls += sample.len() as u64;
            let sn = self.config.sn.min(3) as u64;
            self.tracer.leaf("core.merger.single_addition", || {
                for tags in &sample {
                    std::hint::black_box(scratch_merger.single_addition(tags, sn));
                }
            });
        }

        let dconf = DisseminatorConfig {
            sn: self.config.sn,
            z: self.config.z,
            thr: self.config.thr,
        };
        let mut scratch_dissem = Disseminator::new(self.config.k, dconf);
        let dissem = if install {
            &mut self.dissem
        } else {
            &mut scratch_dissem
        };
        self.tracer.leaf("core.disseminator.install", || {
            dissem.install_partitions(&outcome.partitions, outcome.reference)
        });

        let new = Arc::new(outcome.partitions);
        if let Some(old) = self.partitions.clone() {
            let calcs = &self.calcs;
            let plans: Vec<_> = self.tracer.leaf("core.migration.plan", || {
                calcs
                    .iter()
                    .enumerate()
                    .map(|(id, calc)| plan_handoff(id, &old, &new, &calc.export_state()))
                    .collect()
            });
            let mut scratch: Vec<Calculator> = Vec::new();
            let targets = if install {
                &mut self.calcs
            } else {
                scratch.extend((0..self.config.k).map(|_| Calculator::new()));
                &mut scratch
            };
            let counts = &mut self.counts;
            self.tracer.leaf("core.migration.adopt", || {
                if install {
                    for (id, calc) in targets.iter_mut().enumerate() {
                        calc.retain_tags(&new.parts[id].tags);
                    }
                }
                for (target, bundle) in plans.iter().flatten() {
                    counts.migrated_units += bundle.units();
                    targets[*target].adopt_state(bundle);
                }
            });
        }
        if install {
            self.partitions = Some(new);
        }
    }

    /// Close `round`: every Calculator reports, the Tracker deduplicates,
    /// the serving layer indexes and publishes, readers query.
    fn close_round(&mut self, round: u64) {
        let calcs = &mut self.calcs;
        let reports: Vec<_> = self.tracer.leaf("core.calculator.report", || {
            calcs.iter_mut().map(|c| c.report_and_reset()).collect()
        });
        self.counts.reported += reports.iter().map(|r| r.len() as u64).sum::<u64>();

        let tracker = &mut self.tracker;
        let kept: Vec<TrackedCoefficient> = self.tracer.leaf("core.tracker.dedup", || {
            for report in reports.iter().flatten() {
                tracker.observe(round, report);
            }
            tracker.finish_round(round)
        });
        self.counts.kept += kept.len() as u64;
        let kept = Arc::new(kept);

        // the standalone build is what `serve.snapshot_build_ms_p50` reads;
        // the publish that follows builds again, as the Tracker's does
        let t = Instant::now();
        let built = self.tracer.leaf("serve.snapshot_build", || {
            Snapshot::build(round, 0, kept.clone())
        });
        self.counts.build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        drop(built);
        let t = Instant::now();
        let publisher = &self.publisher;
        let snap = self
            .tracer
            .leaf("serve.publish", || publisher.publish(round, kept.clone()));
        self.counts.publish_us.push(t.elapsed().as_secs_f64() * 1e6);

        if !snap.is_empty() {
            self.query(&snap, round);
        }
        self.counts.rounds += 1;
        if (round + 1).is_multiple_of(DRILL_EVERY) {
            self.repartition(false);
        }
    }

    fn query(&mut self, snap: &Snapshot, round: u64) {
        let coefficients = snap.coefficients().clone();
        let mut rng = crate::e2e::XorShift(round.wrapping_mul(0x9E37_79B9) | 1);
        let targets: Vec<&TrackedCoefficient> = (0..QUERIES_PER_KIND)
            .map(|_| &coefficients[(rng.next() % coefficients.len() as u64) as usize])
            .collect();
        self.tracer.leaf("serve.top_k", || {
            for _ in 0..QUERIES_PER_KIND {
                std::hint::black_box(snap.top_k(10).cloned().collect::<Vec<_>>());
            }
        });
        self.tracer.leaf("serve.neighbors", || {
            for t in &targets {
                let tag = t.tags.tags()[0];
                std::hint::black_box(snap.neighbors(tag, 10).cloned().collect::<Vec<_>>());
            }
        });
        // every other lookup asks for a tagset the round does not track
        let probes: Vec<TagSet> = targets
            .iter()
            .enumerate()
            .map(|(i, t)| match i % 2 {
                0 => t.tags.clone(),
                _ => t.tags.union(&TagSet::from_ids(&[u32::MAX - i as u32])),
            })
            .collect();
        let hits = self.tracer.leaf("serve.coefficient", || {
            probes
                .iter()
                .filter(|p| std::hint::black_box(snap.coefficient(p).cloned()).is_some())
                .count()
        });
        self.counts.lookups += probes.len() as u64;
        self.counts.lookup_hits += hits as u64;
    }

    /// The approximate backend over the first rounds' notifications: kept
    /// so its cost is on record, though no workload runs it end to end.
    fn approx(&mut self) {
        let sample = std::mem::take(&mut self.approx_sample);
        let k = self.config.k;
        let mut calcs: Vec<ApproxCalculator> = (0..k)
            .map(|_| ApproxCalculator::new(ApproxParams::default()))
            .collect();
        let mut doc_id = 0u64;
        for round in &sample {
            self.counts.approx_notifications += round.iter().map(|n| n.len() as u64).sum::<u64>();
            self.tracer.leaf("approx.observe", || {
                for (calc, notifs) in calcs.iter_mut().zip(round) {
                    for tags in notifs {
                        calc.observe_doc(doc_id, tags);
                        doc_id += 1;
                    }
                }
            });
            self.tracer.leaf("approx.report", || {
                for calc in calcs.iter_mut() {
                    std::hint::black_box(calc.report_and_reset());
                }
            });
            self.counts.approx_rounds += 1;
        }
    }
}

/// What one replay produced.
pub struct Replayed {
    pub counts: Counts,
    /// Wall time of the data-plane replay (the "replay" root span).
    pub wall_s: f64,
}

/// Replay `docs` under `config`, recording into `tracer`.
pub fn replay(config: &ExperimentConfig, docs: &[Document], tracer: &mut Tracer) -> Replayed {
    let period_ms = config.report_period.millis();
    let mut replay = Replay::new(config, tracer);
    let start = Instant::now();
    replay.tracer.enter("replay");
    replay.tracer.enter("round");
    let mut round = 0u64;
    for batch in docs.chunks(THREADED_BATCH) {
        // a batch never straddles a round: ticks are flush barriers
        let mut rest = batch;
        while let Some(cut) = rest
            .iter()
            .position(|d| d.timestamp.millis() >= (round + 1) * period_ms)
        {
            replay.batch(&rest[..cut]);
            replay.close_round(round);
            replay.tracer.exit();
            round += 1;
            replay.tracer.round = round;
            replay.tracer.enter("round");
            rest = &rest[cut..];
        }
        replay.batch(rest);
    }
    replay.tracer.exit(); // the trailing partial round stays open-ended
    replay.tracer.exit();
    let wall_s = start.elapsed().as_secs_f64();
    replay.counts.window_distinct = replay
        .windows
        .iter()
        .map(|w| w.distinct_tagsets() as u64)
        .sum();
    replay.approx();
    Replayed {
        counts: replay.counts,
        wall_s,
    }
}
