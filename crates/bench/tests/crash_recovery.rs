//! Kill-and-resume integration test for the `repro` binary.
//!
//! The crash-resilience contract: a characterization run journaling
//! into `--checkpoint-dir` can be SIGKILLed at any instant and resumed
//! with `--resume`, and the resumed run's stdout — every figure table,
//! both scoreboards — is byte-identical to an uninterrupted run of the
//! same arguments. This test exercises the real binary end to end: it
//! records a golden uninterrupted run, starts a checkpointed run,
//! SIGKILLs it once a few sweep journals exist on disk, resumes, and
//! diffs. Both the fault-free path and `--faults quick` (which adds
//! the fleet-coverage footer) are covered, plus the metrics document's
//! scoreboard section.

#![cfg(unix)]

mod common;

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use common::{assert_untouched, backdate};

/// Scratch directory under the system temp dir, fresh per call.
fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("simra-crash-recovery-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn stdout_of(args: &[&str]) -> String {
    let out = repro(args);
    assert!(
        out.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("repro stdout is UTF-8")
}

/// Sweep journals in a checkpoint directory (0 if it does not exist).
fn journal_count(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter(|e| e.path().extension().is_some_and(|x| x == "journal"))
                .count()
        })
        .unwrap_or(0)
}

/// Starts a checkpointed run, SIGKILLs it once `min_journals` sweep
/// journals exist, and returns how many existed at the kill.
fn start_and_kill(args: &[&str], dir: &Path, min_journals: usize) -> usize {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn repro");
    let deadline = Instant::now() + Duration::from_secs(120);
    let journals = loop {
        let n = journal_count(dir);
        if n >= min_journals {
            break n;
        }
        if child.try_wait().expect("poll child").is_some() {
            // The run finished before we got to kill it; resume will
            // then replay everything, which still validates the
            // byte-identity contract (just less adversarially).
            break n;
        }
        assert!(
            Instant::now() < deadline,
            "no journals appeared within the deadline"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    // SIGKILL: no destructors, no flushing — the journal's fsynced
    // prefix is all the resumed run gets.
    let _ = child.kill();
    let _ = child.wait();
    journals
}

/// The `"scoreboard"` section of a metrics JSON document. Telemetry
/// counters legitimately differ between a resumed and an uninterrupted
/// run (the resumed one skips work and ticks checkpoint counters); the
/// scientific verdicts must not.
fn scoreboard_of(path: &Path) -> String {
    let doc = std::fs::read_to_string(path).expect("read metrics JSON");
    let start = doc
        .find("\"scoreboard\":")
        .expect("metrics document has a scoreboard section");
    doc[start..].to_string()
}

#[test]
fn killed_run_resumes_byte_identical() {
    let golden = stdout_of(&["quick"]);
    assert!(
        golden.contains("18/18 observations reproduced"),
        "golden run must hold the full scoreboard"
    );
    let dir = scratch("plain");
    let dir_s = dir.to_str().expect("scratch path is UTF-8");
    let n = start_and_kill(&["quick", "--checkpoint-dir", dir_s], &dir, 3);
    let resumed = stdout_of(&["quick", "--checkpoint-dir", dir_s, "--resume"]);
    assert_eq!(
        resumed, golden,
        "resume after SIGKILL ({n} journals on disk) must be byte-identical"
    );
    // Each figure sweep runs once per campaign (the scoreboard reads the
    // printed tables), so a quick campaign journals 11 sweeps.
    assert_eq!(journal_count(&dir), 11);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_faulted_run_resumes_byte_identical_with_scoreboard() {
    let golden = stdout_of(&["quick", "--faults", "quick"]);
    assert!(golden.contains("=== Fleet coverage under fault injection ==="));
    let dir = scratch("faults");
    let golden_metrics = dir.join("golden-metrics.json");
    let golden_metrics_s = golden_metrics.to_str().expect("path is UTF-8");
    let golden_doc = stdout_of(&[
        "quick",
        "--faults",
        "quick",
        "--metrics-out",
        golden_metrics_s,
    ]);
    assert_eq!(golden_doc, golden, "metrics flags must not perturb stdout");
    let ckpt = scratch("faults-ckpt");
    let ckpt_s = ckpt.to_str().expect("scratch path is UTF-8");
    start_and_kill(
        &["quick", "--faults", "quick", "--checkpoint-dir", ckpt_s],
        &ckpt,
        3,
    );
    let resumed_metrics = dir.join("resumed-metrics.json");
    let resumed_metrics_s = resumed_metrics.to_str().expect("path is UTF-8");
    let resumed = stdout_of(&[
        "quick",
        "--faults",
        "quick",
        "--checkpoint-dir",
        ckpt_s,
        "--resume",
        "--metrics-out",
        resumed_metrics_s,
    ]);
    assert_eq!(resumed, golden, "faulted resume must be byte-identical");
    assert_eq!(
        scoreboard_of(&resumed_metrics),
        scoreboard_of(&golden_metrics),
        "resumed scoreboard must match the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&ckpt);
}

#[test]
fn resuming_a_complete_directory_writes_nothing() {
    let dir = scratch("complete");
    let dir_s = dir.to_str().expect("scratch path is UTF-8");
    let first = stdout_of(&["quick", "--checkpoint-dir", dir_s]);
    // Every journal is complete and compacted: the resume replays it and
    // its compaction finds the canonical bytes already on disk.
    let before = backdate(&dir);
    let resumed = stdout_of(&["quick", "--checkpoint-dir", dir_s, "--resume"]);
    assert_eq!(resumed, first);
    assert_untouched(&dir, &before);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_refuses_mismatched_arguments() {
    let dir = scratch("mismatch");
    let dir_s = dir.to_str().expect("scratch path is UTF-8");
    start_and_kill(&["quick", "--checkpoint-dir", dir_s], &dir, 1);
    // Same directory, different scale: the session manifest must refuse.
    let out = repro(&["reduced", "--checkpoint-dir", dir_s, "--resume"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("mismatch"),
        "expected a manifest mismatch diagnostic, got: {stderr}"
    );
    // A fresh session must refuse a directory that already holds one.
    let out = repro(&["quick", "--checkpoint-dir", dir_s]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("already exists"),
        "expected a dir-in-use diagnostic, got: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
