//! Determinism contract of the adaptive hybrid backend, end to end.
//!
//! The hybrid backend escalates to the analog path *adaptively* — how
//! many analog trials a point gets depends on the Wilson interval of
//! what was observed so far. The contract is that none of this
//! adaptivity leaks into the output: same-seed runs are byte-identical
//! no matter how many worker threads execute the sweeps, whether the
//! run was SIGKILLed and resumed from its checkpoint journal, or
//! whether the grid was split across shard worker processes. These
//! tests exercise the real `repro` binary over every value of the
//! topology knobs (worker counts, kill timing).

#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Scratch directory under the system temp dir, fresh per call.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "simra-hybrid-determinism-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs `repro` with `args`, optionally pinning the worker-thread count.
fn repro(args: &[&str], threads: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    cmd.args(args);
    if let Some(t) = threads {
        cmd.env("SIMRA_THREADS", t);
    }
    cmd.output().expect("spawn repro")
}

fn stdout_of(args: &[&str], threads: Option<&str>) -> String {
    let out = repro(args, threads);
    assert!(
        out.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("repro stdout is UTF-8")
}

/// The quick-scale hybrid reference output, computed once per process.
/// Every topology variation must reproduce these exact bytes.
fn golden() -> &'static str {
    static GOLDEN: OnceLock<String> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        let out = stdout_of(&["quick", "--backend", "hybrid"], None);
        assert!(
            out.contains("18/18 observations reproduced"),
            "the hybrid reference run must hold the full scoreboard"
        );
        out
    })
}

/// Starts a checkpointed run, SIGKILLs it once `min_journals` sweep
/// journals exist (or it finishes first), and returns the count at the
/// kill.
fn start_and_kill(args: &[&str], dir: &Path, min_journals: usize) -> usize {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn repro");
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

/// The number of worker threads must not show through: the escalation
/// state is owned by the session's hybrid backend, kept per worker
/// thread and reset whenever that thread's trials move to a new rig
/// mount (a slot), so any thread interleaving replays the same
/// decisions. Quick scale has one module, so only the four per-die rows
/// reach helper threads here; CI's `hybrid-smoke` job diffs reduced
/// scale at 1 and 4 threads.
#[test]
fn hybrid_stdout_is_worker_count_invariant() {
    for threads in ["1", "2", "4"] {
        let out = stdout_of(&["quick", "--backend", "hybrid"], Some(threads));
        assert_eq!(out, golden(), "SIMRA_THREADS={threads} diverged");
    }
}

/// SIGKILL once 1, 2, 3 or 4 sweep journals exist, then resume: the
/// journaled prefix plus recomputed suffix must reproduce the
/// uninterrupted bytes — escalation decisions replay identically on
/// resume.
#[test]
fn hybrid_kill_and_resume_is_byte_identical() {
    for min_journals in 1usize..5 {
        let dir = scratch(&format!("kill-{min_journals}"));
        let dir_s = dir.to_str().expect("scratch path is UTF-8");
        let n = start_and_kill(
            &["quick", "--backend", "hybrid", "--checkpoint-dir", dir_s],
            &dir,
            min_journals,
        );
        let resumed = stdout_of(
            &[
                "quick",
                "--backend",
                "hybrid",
                "--checkpoint-dir",
                dir_s,
                "--resume",
            ],
            None,
        );
        assert_eq!(
            resumed,
            golden(),
            "kill at {min_journals} journals: resume after SIGKILL ({n} journals on disk) diverged"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn hybrid_sharded_run_is_byte_identical() {
    let dir = scratch("shards");
    let dir_s = dir.to_str().expect("scratch path is UTF-8");
    let sharded = stdout_of(
        &[
            "quick",
            "--backend",
            "hybrid",
            "--shards",
            "2",
            "--checkpoint-dir",
            dir_s,
        ],
        None,
    );
    assert_eq!(
        sharded,
        golden(),
        "2-way sharded hybrid run diverged from the single-process run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
