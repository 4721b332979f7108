//! The `experiments` command-line contract: which targets exist, what a
//! wrong invocation prints, and that a refused invocation leaves nothing
//! behind in the working directory.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The target list, exactly as the usage line and the unknown-target
/// error print it.
const TARGETS: &str = "figs|fig3..fig9|theory|ablation|sketch|all";

/// A fresh, empty working directory for one test.
fn workdir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("cli-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test working directory");
    dir
}

fn experiments(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run experiments")
}

fn assert_no_files(dir: &Path) {
    let left: Vec<_> = std::fs::read_dir(dir)
        .expect("read working directory")
        .map(|e| e.expect("directory entry").file_name())
        .collect();
    assert!(
        left.is_empty(),
        "left behind in the working directory: {left:?}"
    );
}

/// `args` must be refused: exit code 2, the target list on stderr, nothing
/// on stdout, no file created.
fn assert_refused_with_targets(name: &str, args: &[&str]) {
    let dir = workdir(name);
    let out = experiments(&dir, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(TARGETS), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
    assert_no_files(&dir);
}

#[test]
fn theory_prints_the_section_5_table() {
    let dir = workdir("theory");
    let out = experiments(&dir, &["theory", "--no-out"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Section 5.1"), "{stdout}");
    assert!(stdout.contains("E[M] (edges)"), "{stdout}");
    assert_no_files(&dir);
}

#[test]
fn no_arguments_prints_usage_with_every_target() {
    assert_refused_with_targets("no-args", &[]);
}

#[test]
fn unknown_target_lists_the_targets() {
    assert_refused_with_targets("unknown", &["fig10"]);
}

#[test]
fn retired_measurement_targets_are_refused() {
    for target in ["ingest", "serve", "channel"] {
        assert_refused_with_targets(target, &[target]);
        assert_refused_with_targets(target, &[target, "--quick", "--no-out"]);
    }
}

#[test]
fn missing_option_value_names_the_option() {
    let dir = workdir("missing-value");
    let out = experiments(&dir, &["theory", "--duration"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--duration"), "{stderr}");
    assert_no_files(&dir);
}
