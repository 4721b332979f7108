//! A closing round leaves the source at once: the round's tick must not
//! wait for the source's next document, nor for its partial batch to fill.
//!
//! The source below hands out the first document of round 1 and then
//! blocks until the serving layer shows round 0. Round 0 can only close
//! from what already left the source, so a tick held back anywhere behind
//! the source (in a partial batch, or until a later document arrives)
//! keeps round 0 unpublished. The wait is bounded: on timeout the source
//! resumes, the run finishes and the test fails.

use setcorr::prelude::*;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::{Duration, Instant};

/// How long the blocked source waits for round 0 to be published.
const PATIENCE: Duration = Duration::from_secs(30);

const PERIOD_MS: u64 = 10_000;

/// Documents per round: 1 001 documents (round 0 and the first of round 1)
/// leave the last 128-deep batch partial.
const PER_ROUND: u64 = 1_000;

fn docs() -> Vec<Document> {
    (0..2 * PER_ROUND)
        .map(|i| {
            let time = Timestamp(i * PERIOD_MS / PER_ROUND);
            let tags = TagSet::from_ids(&[(i % 5) as u32, 5 + (i % 3) as u32]);
            Document::new(i, time, tags)
        })
        .collect()
}

/// The documents, blocking after the first of round 1 until the handle it
/// receives shows round 0; it reports whether it did.
struct BlockingSource {
    docs: std::vec::IntoIter<Document>,
    handed: u64,
    handle: Receiver<QueryHandle>,
    verdict: Option<Sender<bool>>,
}

impl Iterator for BlockingSource {
    type Item = Document;

    fn next(&mut self) -> Option<Document> {
        if self.handed == PER_ROUND + 1 {
            if let Some(verdict) = self.verdict.take() {
                let deadline = Instant::now() + PATIENCE;
                let shown = self.handle.recv_timeout(PATIENCE).is_ok_and(|handle| loop {
                    if handle.round().is_some() {
                        break true;
                    }
                    if Instant::now() > deadline {
                        break false;
                    }
                    std::thread::sleep(Duration::from_millis(1));
                });
                verdict.send(shown).expect("the test awaits the verdict");
            }
        }
        self.handed += 1;
        self.docs.next()
    }
}

#[test]
fn a_closing_round_leaves_the_source_at_once() {
    let docs = docs();
    let mut config = ExperimentConfig {
        k: 2,
        partitioners: 1,
        thr: 1_000.0,
        sn: u32::MAX,
        bootstrap_after: 500,
        report_period: TimeDelta(PERIOD_MS),
        window: WindowKind::Time(TimeDelta(PERIOD_MS)),
        ..ExperimentConfig::for_algorithm(AlgorithmKind::Ds)
    }
    .with_baseline(false);
    config = config
        .clone()
        .with_pinned_partitions(bootstrap_partitions(&config, &docs));
    let (send_handle, handle) = channel();
    let (send_verdict, verdict) = channel();
    let source = BlockingSource {
        docs: docs.into_iter(),
        handed: 0,
        handle,
        verdict: Some(send_verdict),
    };
    let run = spawn_served(&config, Box::new(source), RunMode::Threaded);
    send_handle
        .send(run.query_handle())
        .expect("the source holds the receiver until the run ends");
    let shown = verdict
        .recv_timeout(2 * PATIENCE)
        .expect("the source reaches round 1");
    let report = run.finish();
    assert_eq!(report.documents, 2 * PER_ROUND);
    assert!(
        shown,
        "round 0 was not published within {PATIENCE:?} of its last document leaving the source"
    );
}
