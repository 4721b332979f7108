//! Run records and the result line, as hand-rolled JSON (the workspace has
//! no serde).

use crate::host::{self, Placement};
use crate::run::{E2e, Metric};

pub fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// All digits of a finite number; `null` for a reading that does not exist.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn strings(items: &[String]) -> String {
    let body: Vec<String> = items.iter().map(|s| string(s)).collect();
    format!("[{}]", body.join(","))
}

pub fn object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", string(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn metrics_object(metrics: &[Metric], with_raw: bool) -> String {
    let fields: Vec<(&str, String)> = metrics
        .iter()
        .map(|m| {
            let mut f = vec![("value", number(m.value)), ("unit", string(m.unit))];
            if let (true, Some(raw)) = (with_raw, m.raw) {
                f.push(("raw", number(raw)));
            }
            (m.name.as_str(), object(&f))
        })
        .collect();
    object(&fields)
}

/// The line the acceptance driver reads: exactly `correct`, `attempted`,
/// `failed`, `metrics`. A reading that does not exist is printed as 0 — the
/// run that lacks it has `failed > 0`.
pub fn result_line(e2e: &E2e, metrics: &[Metric]) -> String {
    let printable: Vec<Metric> = metrics
        .iter()
        .map(|m| Metric {
            value: if m.value.is_finite() { m.value } else { 0.0 },
            raw: None,
            ..m.clone()
        })
        .collect();
    object(&[
        ("correct", e2e.correct.to_string()),
        ("attempted", e2e.attempted.to_string()),
        ("failed", e2e.failed.to_string()),
        ("metrics", metrics_object(&printable, false)),
    ])
}

fn command_line(program: &str, args: &[&str], dir: &std::path::Path) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Everything needed to judge a run later: what ran, where, at what host
/// speed, and every raw reading behind a normalised metric.
pub fn run_record(
    workload: &str,
    seed: u64,
    seconds: u64,
    e2e: &E2e,
    layers: Option<&[Metric]>,
    placement: &Placement,
) -> String {
    let here = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let yard = &e2e.yard;
    let mut fields = vec![
        ("workload", string(workload)),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        (
            "git_rev",
            string(&command_line(
                "git",
                &["rev-parse", "--short", "HEAD"],
                here,
            )),
        ),
        (
            "rustc",
            string(&command_line("rustc", &["--version"], here)),
        ),
        (
            "host",
            object(&[
                ("cpus", placement.all.len().to_string()),
                (
                    "program_cpus",
                    string(&Placement::describe(&placement.program)),
                ),
                (
                    "client_cpus",
                    string(&Placement::describe(&placement.clients)),
                ),
                ("yard_ref_core_ms", number(host::yard_ref_ms().0)),
                ("yard_ref_memory_ms", number(host::yard_ref_ms().1)),
                ("yard_samples", yard.samples.to_string()),
                ("yard_core_ms", number(yard.core_ms)),
                ("yard_memory_ms", number(yard.memory_ms)),
                ("speed_factor_q1", number(yard.q1)),
                ("speed_factor", number(yard.speed_factor())),
                ("speed_factor_q3", number(yard.q3)),
                ("disturbed", yard.disturbed().to_string()),
                ("steal_share", number(e2e.steal_share)),
                ("peak_rss_mb", number(host::peak_rss_mb())),
            ]),
        ),
        (
            "docs",
            object(&[
                ("stream", e2e.stream.docs.to_string()),
                ("offered", e2e.outcome.feed.handed.to_string()),
                ("ingested", e2e.outcome.report.documents.to_string()),
                ("measured", e2e.outcome.feed.measured_docs.to_string()),
            ]),
        ),
        ("measured_rounds", e2e.measured_rounds.to_string()),
        ("window_s", number(e2e.window_s)),
        ("query_bursts", e2e.outcome.burst_us.len().to_string()),
        ("attempted", e2e.attempted.to_string()),
        ("failed", e2e.failed.to_string()),
        ("correct", e2e.correct.to_string()),
        ("problems", strings(&e2e.problems)),
        ("disturbances", strings(&e2e.disturbances)),
        ("metrics", metrics_object(&e2e.metrics, true)),
    ];
    if let Some((matching, sampled)) = e2e.recomputed {
        fields.push((
            "recomputed",
            object(&[
                ("matching", matching.to_string()),
                ("sampled", sampled.to_string()),
            ]),
        ));
    }
    if let Some(layers) = layers {
        fields.push(("layers", metrics_object(layers, false)));
    }
    object(&fields)
}
