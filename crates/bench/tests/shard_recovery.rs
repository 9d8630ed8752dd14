//! Multi-process sharding integration tests for the `repro` binary.
//!
//! The distributed-sweep contract: `repro --shards N` splits every
//! sweep grid across N worker processes, merges their journals, and
//! replays — and its stdout (every figure table, both scoreboards) is
//! byte-identical to a single-process run of the same arguments. The
//! contract composes with crash resilience: a SIGKILLed worker resumes
//! from its own journal when the coordinator is rerun, still
//! byte-identical. These tests exercise the real binary end to end.

#![cfg(unix)]

mod common;

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use common::{assert_untouched, backdate};

/// Scratch directory under the system temp dir, fresh per call.
fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("simra-shard-recovery-{}-{tag}", std::process::id()));
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

/// Starts a lone shard worker, SIGKILLs it once `min_journals` sweep
/// journals exist in its checkpoint directory, and returns how many
/// existed at the kill.
fn start_worker_and_kill(args: &[&str], dir: &Path, min_journals: usize) -> usize {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn repro shard worker");
    let deadline = Instant::now() + Duration::from_secs(120);
    let journals = loop {
        let n = std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "journal"))
                    .count()
            })
            .unwrap_or(0);
        if n >= min_journals {
            break n;
        }
        if child.try_wait().expect("poll child").is_some() {
            // The worker finished before we got to kill it; the
            // coordinator will then replay its journal, which still
            // validates the byte-identity contract.
            break n;
        }
        assert!(
            Instant::now() < deadline,
            "no journals appeared within the deadline"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    let _ = child.kill();
    let _ = child.wait();
    journals
}

/// The `"scoreboard"` section of a metrics JSON document. Telemetry
/// counters legitimately differ between a sharded replay and a
/// single-process run (replay skips trials and ticks checkpoint
/// counters); the scientific verdicts must not.
fn scoreboard_of(path: &Path) -> String {
    let doc = std::fs::read_to_string(path).expect("read metrics JSON");
    let start = doc
        .find("\"scoreboard\":")
        .expect("metrics document has a scoreboard section");
    doc[start..].to_string()
}

#[test]
fn sharded_run_is_byte_identical_to_single_process() {
    let dir = scratch("plain");
    let golden_metrics = dir.join("golden-metrics.json");
    let golden_metrics_s = golden_metrics.to_str().expect("path is UTF-8");
    let golden = stdout_of(&["quick", "--metrics-out", golden_metrics_s]);
    assert!(
        golden.contains("18/18 observations reproduced"),
        "golden run must hold the full scoreboard"
    );
    let root = scratch("plain-shards");
    let root_s = root.to_str().expect("scratch path is UTF-8");
    let sharded_metrics = dir.join("sharded-metrics.json");
    let sharded_metrics_s = sharded_metrics.to_str().expect("path is UTF-8");
    let sharded = stdout_of(&[
        "quick",
        "--shards",
        "4",
        "--checkpoint-dir",
        root_s,
        "--metrics-out",
        sharded_metrics_s,
    ]);
    assert_eq!(
        sharded, golden,
        "a 4-way sharded run must be byte-identical to single-process"
    );
    assert_eq!(
        scoreboard_of(&sharded_metrics),
        scoreboard_of(&golden_metrics),
        "the sharded metrics scoreboard must match the single-process run"
    );
    // The coordinator leaves the merged journals and worker telemetry
    // behind for inspection.
    assert!(root.join("merged").join("sweep-0000.journal").exists());
    assert!(root.join("telemetry-merged.json").exists());
    for shard in 0..4 {
        assert!(root
            .join(format!("shard-{shard}"))
            .join("session.json")
            .exists());
    }
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn killed_worker_resumes_under_the_coordinator_byte_identical() {
    let golden = stdout_of(&["quick"]);
    let root = scratch("kill");
    let root_s = root.to_str().expect("scratch path is UTF-8");
    // Run shard 1's worker alone — exactly as the coordinator would
    // spawn it — and SIGKILL it once it has journaled some sweeps.
    let shard_dir = root.join("shard-1");
    let shard_dir_s = shard_dir.to_str().expect("path is UTF-8");
    let n = start_worker_and_kill(
        &[
            "quick",
            "--shard-worker",
            "1/4",
            "--checkpoint-dir",
            shard_dir_s,
        ],
        &shard_dir,
        2,
    );
    // The coordinator finds the half-written shard, resumes it (its
    // session manifest already exists), runs the other three workers
    // fresh, merges, and replays.
    let sharded = stdout_of(&["quick", "--shards", "4", "--checkpoint-dir", root_s]);
    assert_eq!(
        sharded, golden,
        "resume after SIGKILL of a worker ({n} journals on disk) must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn rerunning_a_completed_coordinator_replays_byte_identical() {
    let root = scratch("rerun");
    let root_s = root.to_str().expect("scratch path is UTF-8");
    let first = stdout_of(&["quick", "--shards", "2", "--checkpoint-dir", root_s]);
    // Everything — workers and the merged session — is already on
    // disk: the rerun spawns no worker, so no log grows, and the merge
    // and the replay find every journal and the merged telemetry
    // already holding their bytes, so they write nothing.
    let before = backdate(&root);
    let second = stdout_of(&["quick", "--shards", "2", "--checkpoint-dir", root_s]);
    assert_eq!(second, first);
    assert_untouched(&root, &before);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_root_from_another_run_is_refused_before_any_worker_spawns() {
    let completed = |tag: &str, shards: &str| {
        let root = scratch(tag);
        let root_s = root.to_str().expect("scratch path is UTF-8").to_string();
        stdout_of(&["quick", "--shards", shards, "--checkpoint-dir", &root_s]);
        (root, root_s)
    };
    let (two, two_s) = completed("refuse-2", "2");
    let (four, four_s) = completed("refuse-4", "4");
    for (root, args) in [
        (
            &two,
            ["--shards", "4", "--checkpoint-dir", &two_s].as_slice(),
        ),
        (&four, &["--shards", "2", "--checkpoint-dir", &four_s]),
        (
            &two,
            &[
                "--shards",
                "2",
                "--checkpoint-dir",
                &two_s,
                "--backend",
                "surrogate",
            ],
        ),
    ] {
        let before = backdate(root);
        let out = repro(&[&["quick"], args].concat());
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "repro quick {args:?} must be refused: {stderr}"
        );
        assert!(
            !stderr.contains(" workers under "),
            "repro quick {args:?} announced workers it never starts: {stderr}"
        );
        // No shard directory, worker log or merged file is new or touched.
        assert_untouched(root, &before);
    }
    let _ = std::fs::remove_dir_all(&two);
    let _ = std::fs::remove_dir_all(&four);
}

#[test]
fn shard_cli_validation_exits_2_with_usage() {
    for args in [
        &["quick", "--shards", "0"][..],
        &["quick", "--shards", "four"],
        &["quick", "--shards"],
        &["quick", "--shard-worker", "4/4", "--checkpoint-dir", "d"],
        &["quick", "--shard-worker", "0/2"],
        &[
            "quick",
            "--shards",
            "2",
            "--checkpoint-dir",
            "d",
            "--resume",
        ],
        &[
            "quick",
            "--shards",
            "2",
            "--shard-worker",
            "0/2",
            "--checkpoint-dir",
            "d",
        ],
    ] {
        let out = repro(args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "repro {args:?} must be rejected"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("usage: repro"),
            "diagnostic for {args:?} must include usage, got: {stderr}"
        );
    }
}

#[test]
fn worker_refuses_a_mismatched_shard_spec_on_resume() {
    let root = scratch("respec");
    let shard_dir = root.join("shard-0");
    let shard_dir_s = shard_dir.to_str().expect("path is UTF-8");
    start_worker_and_kill(
        &[
            "quick",
            "--shard-worker",
            "0/4",
            "--checkpoint-dir",
            shard_dir_s,
        ],
        &shard_dir,
        1,
    );
    // Same directory, different spec: the session manifest must refuse
    // with the coordinator's fail-fast exit code.
    let out = repro(&[
        "quick",
        "--shard-worker",
        "1/4",
        "--checkpoint-dir",
        shard_dir_s,
        "--resume",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("mismatch"),
        "expected a manifest mismatch diagnostic, got: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&root);
}
