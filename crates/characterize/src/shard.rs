//! Multi-process sharded sweep execution: the coordinator side.
//!
//! A sharded campaign splits every sweep's (module × point) grid across
//! `N` worker *processes*. Each worker is the `repro` binary re-invoked
//! in its hidden `--shard-worker i/N` mode: it runs every figure sweep
//! in campaign order — so its sweep numbering matches every other
//! process — but each sweep schedules and journals only the slots
//! [`slot_shard`] assigns to shard `i`,
//! into the worker's own checkpoint directory (`<root>/shard-i`). After
//! the last sweep has compacted it writes its telemetry snapshot there
//! ([`write_worker_telemetry`]) and exits; the stages after the sweeps
//! journal nothing, so only the coordinator runs them. The
//! [`ShardCoordinator`] spawns a worker for every shard directory that
//! lacks that snapshot (so rerunning a completed root spawns none),
//! respawns crashed ones with the fleet's charged-backoff policy (a
//! killed worker resumes from its own journal, exactly like a
//! single-process kill), then merges the
//! per-shard journals with [`merge_sweep_journals`]
//! into `<root>/merged` — journals byte-identical to an unsharded run's
//! — and merges the workers' telemetry snapshots into
//! `<root>/telemetry-merged.json`.
//!
//! The caller (the `repro` binary's `--shards N` mode) finishes by
//! arming `<root>/merged` as an ordinary checkpoint session and running
//! the campaign in-process: every sweep replays instantly from the
//! merged journals, so the coordinator's stdout and metrics scoreboard
//! are byte-identical to a single-process run.
//!
//! # Worker exit-code contract
//!
//! * `0` — the shard's slots are all journaled and compacted; done.
//! * `2` — configuration or manifest error (CLI rejection, checkpoint
//!   mismatch, corrupt journal). Deterministic, so the coordinator
//!   fails fast instead of retrying.
//! * anything else (including death by signal) — transient; the
//!   coordinator respawns the worker, up to the policy's
//!   `max_attempts`, sleeping the fleet's charged backoff between
//!   attempts. The respawn passes `--resume` iff the shard directory
//!   already holds a session, so first-attempt crashes before arming
//!   restart cleanly.

use std::fs::{self, OpenOptions};
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};
use std::time::Duration;

use simra_exec::ShardSpec;
use simra_telemetry::Snapshot;

use crate::checkpoint::{atomic_rewrite, check_session, merge_sweep_journals, CheckpointError};
use crate::config::ExperimentConfig;
use crate::fleet::{backoff_charge_ms, FleetPolicy};

pub use crate::checkpoint::slot_shard;

/// The telemetry snapshot a finished worker leaves in its shard
/// directory. The coordinator takes its presence to mean the shard is
/// done.
const WORKER_TELEMETRY: &str = "telemetry.json";

/// Writes a worker's telemetry `snapshot` into its shard directory
/// `dir`, once its last figure sweep has compacted. It goes through the
/// journals' atomic rewrite, so the file exists only whole, and only
/// for a worker that is done.
///
/// # Errors
///
/// [`CheckpointError::Io`] if the tmp file cannot be written, synced
/// or renamed into place.
pub fn write_worker_telemetry(dir: &Path, snapshot: &Snapshot) -> Result<(), CheckpointError> {
    atomic_rewrite(&dir.join(WORKER_TELEMETRY), &[snapshot.to_json()])
}

/// Why a sharded campaign could not complete.
#[derive(Debug)]
pub enum ShardError {
    /// A worker process could not be spawned at all.
    Spawn {
        /// The shard whose worker failed to spawn.
        shard: u32,
        /// The underlying error.
        source: io::Error,
    },
    /// A worker kept failing transiently until its attempts ran out.
    WorkerFailed {
        /// The shard whose worker failed.
        shard: u32,
        /// Attempts consumed.
        attempts: u32,
        /// Rendering of the final exit status.
        status: String,
    },
    /// A worker exited with code 2: a configuration or manifest error
    /// that a retry cannot fix (see its `worker.log`).
    WorkerRejected {
        /// The shard whose worker refused to run.
        shard: u32,
        /// The worker's stderr log path.
        log: PathBuf,
    },
    /// A shard directory is missing a journal that other shards have —
    /// the shard sets must be identical before merging.
    MissingJournal {
        /// The shard missing (or holding an extra) journal.
        shard: u32,
        /// The journal file name involved.
        name: String,
    },
    /// No journals were found to merge.
    NoJournals {
        /// The (first) shard directory that was scanned.
        dir: PathBuf,
    },
    /// Journal loading, validation, or merging failed.
    Checkpoint(CheckpointError),
    /// A filesystem operation failed.
    Io {
        /// What was being attempted.
        context: String,
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// A worker's telemetry snapshot could not be parsed.
    Telemetry {
        /// The shard whose snapshot is bad.
        shard: u32,
        /// What is wrong with it.
        detail: String,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Spawn { shard, source } => {
                write!(f, "spawning shard {shard} worker: {source}")
            }
            ShardError::WorkerFailed {
                shard,
                attempts,
                status,
            } => write!(
                f,
                "shard {shard} worker failed after {attempts} attempt(s) ({status})"
            ),
            ShardError::WorkerRejected { shard, log } => write!(
                f,
                "shard {shard} worker exited with a configuration error (exit 2); \
                 see {}",
                log.display()
            ),
            ShardError::MissingJournal { shard, name } => write!(
                f,
                "shard {shard} disagrees with shard 0 about journal {name}; \
                 all shards must run the identical campaign"
            ),
            ShardError::NoJournals { dir } => {
                write!(f, "no sweep journals found under {}", dir.display())
            }
            ShardError::Checkpoint(e) => write!(f, "{e}"),
            ShardError::Io {
                context,
                path,
                source,
            } => write!(f, "{context} {}: {source}", path.display()),
            ShardError::Telemetry { shard, detail } => {
                write!(f, "shard {shard} telemetry snapshot: {detail}")
            }
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Spawn { source, .. } | ShardError::Io { source, .. } => Some(source),
            ShardError::Checkpoint(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for ShardError {
    fn from(e: CheckpointError) -> Self {
        ShardError::Checkpoint(e)
    }
}

fn io_err(context: &str, path: &Path, source: io::Error) -> ShardError {
    ShardError::Io {
        context: context.to_string(),
        path: path.to_path_buf(),
        source,
    }
}

fn describe_status(status: &ExitStatus) -> String {
    match status.code() {
        Some(code) => format!("exit code {code}"),
        None => format!("{status}"), // killed by signal; Display names it
    }
}

/// What a completed merge produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeReport {
    /// Number of sweeps merged.
    pub sweeps: usize,
    /// Total records across all merged journals.
    pub records: usize,
    /// Where the merged worker telemetry landed, when any worker wrote
    /// a snapshot.
    pub telemetry: Option<PathBuf>,
}

/// Spawns, supervises, and merges a fleet of shard-worker processes.
/// See the module docs for the protocol.
#[derive(Debug)]
pub struct ShardCoordinator {
    exe: PathBuf,
    base_args: Vec<String>,
    root: PathBuf,
    shards: u32,
    policy: FleetPolicy,
}

impl ShardCoordinator {
    /// A coordinator that re-invokes `exe` (the current binary) with
    /// `base_args` (scale/backend/faults flags) plus the shard-worker
    /// flags, journaling under `root`, with the default retry policy.
    pub fn new(exe: PathBuf, base_args: Vec<String>, root: PathBuf, shards: u32) -> Self {
        assert!(shards > 0, "a sharded run needs at least one shard");
        ShardCoordinator {
            exe,
            base_args,
            root,
            shards,
            policy: FleetPolicy::default(),
        }
    }

    /// Overrides the respawn policy (`max_attempts` bounds worker
    /// respawns, `backoff_base_ms` seeds the inter-attempt sleep).
    pub fn with_policy(mut self, policy: FleetPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Shard `i`'s private checkpoint directory.
    pub fn shard_dir(&self, shard: u32) -> PathBuf {
        self.root.join(format!("shard-{shard}"))
    }

    /// Where the merged journals land; arm this as an ordinary
    /// checkpoint session to replay the full campaign in-process.
    pub fn merged_dir(&self) -> PathBuf {
        self.root.join("merged")
    }

    /// Where the merged worker telemetry snapshot lands.
    pub fn telemetry_path(&self) -> PathBuf {
        self.root.join("telemetry-merged.json")
    }

    /// Checks the root against a run of `config`, reading only: a
    /// `shard-k` with `k` at or above the shard count, or a shard's or
    /// the merged session manifest that differs from this run's, is
    /// refused before any worker spawns instead of at the merge.
    fn check_root(&self, config: &ExperimentConfig) -> Result<(), ShardError> {
        let count = self.shards;
        for entry in fs::read_dir(&self.root).into_iter().flatten().flatten() {
            let name = entry.file_name();
            let index = name
                .to_str()
                .and_then(|n| n.strip_prefix("shard-")?.parse().ok());
            if index.is_some_and(|index: u32| index >= count) {
                return Err(ShardError::Checkpoint(CheckpointError::Mismatch {
                    field: "shard",
                    on_disk: name.to_string_lossy().into_owned(),
                    current: format!("{count} shards"),
                }));
            }
        }
        for index in 0..count {
            let spec = ShardSpec { index, count };
            check_session(&self.shard_dir(index), config, Some(spec))?;
        }
        check_session(&self.merged_dir(), config, None)?;
        Ok(())
    }

    /// Runs all workers to completion (one supervisor thread each),
    /// respawning transient failures per the policy. Returns the first
    /// shard's error if any shard ultimately fails.
    pub fn run_workers(&self) -> Result<(), ShardError> {
        std::thread::scope(|scope| {
            let monitors: Vec<_> = (0..self.shards)
                .map(|shard| scope.spawn(move || self.run_worker(shard)))
                .collect();
            monitors
                .into_iter()
                .map(|m| m.join().expect("shard monitor thread panicked"))
                .collect::<Result<Vec<()>, ShardError>>()
                .map(|_| ())
        })
    }

    /// Supervises one shard's worker process through its attempts; a
    /// shard whose worker already finished spawns nothing.
    fn run_worker(&self, shard: u32) -> Result<(), ShardError> {
        let dir = self.shard_dir(shard);
        if dir.join(WORKER_TELEMETRY).exists() {
            return Ok(());
        }
        fs::create_dir_all(&dir).map_err(|e| io_err("creating shard dir", &dir, e))?;
        let log_path = dir.join("worker.log");
        let max_attempts = self.policy.max_attempts.max(1);
        for attempt in 1..=max_attempts {
            // Auto-detect resume: a crash before the session file became
            // durable restarts fresh; anything later resumes.
            let resume = dir.join("session.json").exists();
            let log = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&log_path)
                .map_err(|e| io_err("opening worker log", &log_path, e))?;
            let mut cmd = Command::new(&self.exe);
            cmd.args(&self.base_args)
                .arg("--shard-worker")
                .arg(format!("{shard}/{}", self.shards))
                .arg("--checkpoint-dir")
                .arg(&dir)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::from(log));
            if resume {
                cmd.arg("--resume");
            }
            let status = cmd
                .status()
                .map_err(|e| ShardError::Spawn { shard, source: e })?;
            match status.code() {
                Some(0) => return Ok(()),
                Some(2) => {
                    return Err(ShardError::WorkerRejected {
                        shard,
                        log: log_path,
                    })
                }
                _ => {
                    if attempt == max_attempts {
                        return Err(ShardError::WorkerFailed {
                            shard,
                            attempts: attempt,
                            status: describe_status(&status),
                        });
                    }
                    let charge = backoff_charge_ms(self.policy.backoff_base_ms, attempt + 1);
                    std::thread::sleep(Duration::from_millis(charge as u64));
                }
            }
        }
        unreachable!("the attempt loop returns on success, rejection, or exhaustion")
    }

    /// Merges the per-shard journals into [`ShardCoordinator::merged_dir`]
    /// and the workers' telemetry snapshots into
    /// [`ShardCoordinator::telemetry_path`]. All shards must hold the
    /// identical set of sweep journals, each complete for its slots.
    pub fn merge(&self) -> Result<MergeReport, ShardError> {
        let reference = sweep_journal_names(&self.shard_dir(0))?;
        if reference.is_empty() {
            return Err(ShardError::NoJournals {
                dir: self.shard_dir(0),
            });
        }
        for shard in 1..self.shards {
            let names = sweep_journal_names(&self.shard_dir(shard))?;
            if names != reference {
                let name = reference
                    .iter()
                    .find(|n| !names.contains(n))
                    .or_else(|| names.iter().find(|n| !reference.contains(n)))
                    .expect("unequal sorted sets differ in at least one element")
                    .clone();
                return Err(ShardError::MissingJournal { shard, name });
            }
        }
        let merged_dir = self.merged_dir();
        let mut records = 0usize;
        for name in &reference {
            let inputs: Vec<PathBuf> = (0..self.shards)
                .map(|shard| self.shard_dir(shard).join(name))
                .collect();
            records += merge_sweep_journals(&inputs, &merged_dir.join(name))?;
        }
        let mut snapshots = Vec::new();
        for shard in 0..self.shards {
            let path = self.shard_dir(shard).join(WORKER_TELEMETRY);
            if !path.exists() {
                continue;
            }
            let text =
                fs::read_to_string(&path).map_err(|e| io_err("reading telemetry", &path, e))?;
            snapshots.push(
                Snapshot::parse(text.trim()).map_err(|e| ShardError::Telemetry {
                    shard,
                    detail: e.to_string(),
                })?,
            );
        }
        let telemetry = if snapshots.is_empty() {
            None
        } else {
            let path = self.telemetry_path();
            atomic_rewrite(&path, &[Snapshot::merge_all(&snapshots).to_json()])?;
            Some(path)
        };
        Ok(MergeReport {
            sweeps: reference.len(),
            records,
            telemetry,
        })
    }

    /// Checks the root, calls `announce`, runs the workers, then merges:
    /// the whole coordinator lifecycle short of the final in-process
    /// replay (which needs the campaign closure and so lives with the
    /// caller). A root that another run wrote fails before anything is
    /// created, announced or spawned.
    pub fn execute(
        &self,
        config: &ExperimentConfig,
        announce: impl FnOnce(),
    ) -> Result<MergeReport, ShardError> {
        self.check_root(config)?;
        announce();
        self.run_workers()?;
        self.merge()
    }
}

/// Sorted `*.journal` file names under a shard directory. Lexicographic
/// order is sweep order because ids are zero-padded (`sweep-0007`).
fn sweep_journal_names(dir: &Path) -> Result<Vec<String>, ShardError> {
    let entries = fs::read_dir(dir).map_err(|e| io_err("reading shard dir", dir, e))?;
    let mut names: Vec<String> = entries
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            name.ends_with(".journal").then_some(name)
        })
        .collect();
    names.sort();
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointSession;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn scratch(tag: &str) -> PathBuf {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "simra-shard-{}-{}-{tag}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    #[test]
    fn slot_shard_partitions_the_grid_completely_and_evenly() {
        for (modules, points, count) in [(1usize, 1usize, 1u32), (2, 4, 4), (3, 5, 4), (4, 7, 16)] {
            let mut per_shard = vec![0usize; count as usize];
            for module in 0..modules {
                for point in 0..points {
                    let shard = slot_shard(module, point, points, count);
                    assert!(shard < count);
                    per_shard[shard as usize] += 1;
                }
            }
            assert_eq!(per_shard.iter().sum::<usize>(), modules * points);
            let (lo, hi) = (
                per_shard.iter().min().unwrap(),
                per_shard.iter().max().unwrap(),
            );
            assert!(hi - lo <= 1, "balanced to within one slot: {per_shard:?}");
        }
    }

    #[test]
    fn merge_refuses_an_empty_shard_directory() {
        let dir = scratch("empty");
        let coord = ShardCoordinator::new(PathBuf::from("/bin/true"), vec![], dir.clone(), 2);
        fs::create_dir_all(coord.shard_dir(0)).unwrap();
        fs::create_dir_all(coord.shard_dir(1)).unwrap();
        assert!(matches!(coord.merge(), Err(ShardError::NoJournals { .. })));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_refuses_disagreeing_journal_sets() {
        let dir = scratch("disagree");
        let coord = ShardCoordinator::new(PathBuf::from("/bin/true"), vec![], dir.clone(), 2);
        fs::create_dir_all(coord.shard_dir(0)).unwrap();
        fs::create_dir_all(coord.shard_dir(1)).unwrap();
        fs::write(coord.shard_dir(0).join("sweep-0000.journal"), b"").unwrap();
        match coord.merge() {
            Err(ShardError::MissingJournal { shard: 1, name }) => {
                assert_eq!(name, "sweep-0000.journal");
            }
            other => panic!("expected MissingJournal, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_root_from_another_run_is_refused_before_anything_is_written() {
        let root = scratch("foreign");
        let config = ExperimentConfig::quick();
        // A worker that cannot spawn: reaching it fails with `Spawn`.
        let coordinator = |shards| {
            ShardCoordinator::new(PathBuf::from("/nonexistent"), vec![], root.clone(), shards)
        };
        let two = coordinator(2);
        two.check_root(&config)
            .expect("a missing root belongs to any run");
        for index in 0..2 {
            let spec = ShardSpec { index, count: 2 };
            CheckpointSession::arm(&two.shard_dir(index), &config, false, Some(spec)).unwrap();
        }
        two.check_root(&config).expect("the root's own run passes");
        let listing = || {
            let mut names: Vec<_> = fs::read_dir(&root)
                .unwrap()
                .map(|entry| entry.unwrap().file_name())
                .collect();
            names.sort();
            names
        };
        let before = listing();
        let refusal = |shards, config: &ExperimentConfig| {
            let mut announced = false;
            let outcome = coordinator(shards).execute(config, || announced = true);
            assert!(!announced, "a refused run announces no workers");
            match outcome {
                Err(ShardError::Checkpoint(CheckpointError::Mismatch { field, .. })) => field,
                other => panic!("expected a manifest mismatch, got {other:?}"),
            }
        };
        assert_eq!(refusal(4, &config), "shard");
        let mut other = config.clone();
        other.seed ^= 1;
        assert_eq!(refusal(2, &other), "seed");
        assert_eq!(listing(), before, "a refused run creates nothing");
        // A shard beyond the count is refused even without a session.
        fs::create_dir_all(two.shard_dir(2)).unwrap();
        assert_eq!(refusal(2, &config), "shard");
        fs::remove_dir(two.shard_dir(2)).unwrap();
        // The merged session is checked like a shard's.
        CheckpointSession::arm(&two.merged_dir(), &other, false, None).unwrap();
        assert_eq!(refusal(2, &config), "seed");
        let _ = fs::remove_dir_all(&root);
    }

    #[cfg(unix)]
    mod process {
        use super::*;
        use std::os::unix::fs::PermissionsExt;

        /// Writes an executable shell script that logs each invocation
        /// (its args, one line per run) to `<dir>/calls` and exits with
        /// `code`.
        fn fake_worker(dir: &Path, code: i32) -> PathBuf {
            let path = dir.join("fake-worker.sh");
            let calls = dir.join("calls");
            fs::write(
                &path,
                format!(
                    "#!/bin/sh\necho \"$@\" >> {}\nexit {code}\n",
                    calls.display()
                ),
            )
            .unwrap();
            fs::set_permissions(&path, fs::Permissions::from_mode(0o755)).unwrap();
            path
        }

        fn call_count(dir: &Path) -> usize {
            fs::read_to_string(dir.join("calls"))
                .map(|s| s.lines().count())
                .unwrap_or(0)
        }

        #[test]
        fn transient_failures_are_retried_to_exhaustion() {
            let dir = scratch("retry");
            let exe = fake_worker(&dir, 7);
            let policy = FleetPolicy {
                max_attempts: 3,
                backoff_base_ms: 0.0,
                ..FleetPolicy::default()
            };
            let coord = ShardCoordinator::new(exe, vec!["quick".into()], dir.clone(), 1)
                .with_policy(policy);
            match coord.run_workers() {
                Err(ShardError::WorkerFailed {
                    shard: 0,
                    attempts: 3,
                    status,
                }) => assert!(status.contains("7"), "{status}"),
                other => panic!("expected WorkerFailed after 3 attempts, got {other:?}"),
            }
            assert_eq!(call_count(&dir), 3, "one spawn per attempt");
            let _ = fs::remove_dir_all(&dir);
        }

        #[test]
        fn config_errors_fail_fast_without_retry() {
            let dir = scratch("reject");
            let exe = fake_worker(&dir, 2);
            let coord = ShardCoordinator::new(exe, vec![], dir.clone(), 1);
            match coord.run_workers() {
                Err(ShardError::WorkerRejected { shard: 0, log }) => {
                    assert!(log.ends_with("worker.log"));
                }
                other => panic!("expected WorkerRejected, got {other:?}"),
            }
            assert_eq!(call_count(&dir), 1, "exit 2 must not be retried");
            let _ = fs::remove_dir_all(&dir);
        }

        #[test]
        fn successful_workers_receive_the_shard_protocol_args() {
            let dir = scratch("protocol");
            let exe = fake_worker(&dir, 0);
            let coord = ShardCoordinator::new(
                exe,
                vec!["quick".into(), "--backend".into(), "surrogate".into()],
                dir.clone(),
                2,
            );
            coord.run_workers().expect("exit 0 workers succeed");
            let calls = fs::read_to_string(dir.join("calls")).unwrap();
            let mut lines: Vec<&str> = calls.lines().collect();
            lines.sort();
            assert_eq!(lines.len(), 2);
            for (shard, line) in lines.iter().enumerate() {
                assert!(
                    line.starts_with("quick --backend surrogate --shard-worker"),
                    "{line}"
                );
                assert!(
                    line.contains(&format!("--shard-worker {shard}/2")),
                    "{line}"
                );
                assert!(
                    line.contains(&format!(
                        "--checkpoint-dir {}",
                        coord.shard_dir(shard as u32).display()
                    )),
                    "{line}"
                );
                assert!(
                    !line.contains("--resume"),
                    "no session yet, so no --resume: {line}"
                );
            }
            let _ = fs::remove_dir_all(&dir);
        }

        #[test]
        fn a_shard_that_left_its_telemetry_spawns_no_worker() {
            let dir = scratch("done");
            let exe = fake_worker(&dir, 0);
            let coord = ShardCoordinator::new(exe, vec![], dir.clone(), 2);
            let snapshot = simra_telemetry::Recorder::new().snapshot();
            fs::create_dir_all(coord.shard_dir(0)).unwrap();
            write_worker_telemetry(&coord.shard_dir(0), &snapshot).unwrap();
            // A tmp file a killed worker left behind does not count.
            fs::create_dir_all(coord.shard_dir(1)).unwrap();
            fs::write(coord.shard_dir(1).join("telemetry.json.tmp"), "{").unwrap();
            coord.run_workers().expect("exit 0 workers succeed");
            let calls = fs::read_to_string(dir.join("calls")).unwrap();
            let lines: Vec<&str> = calls.lines().collect();
            assert_eq!(lines.len(), 1, "{calls}");
            assert!(lines[0].contains("--shard-worker 1/2"), "{}", lines[0]);
            assert!(!coord.shard_dir(0).join("worker.log").exists());
            let _ = fs::remove_dir_all(&dir);
        }

        #[test]
        fn respawn_resumes_once_a_session_exists() {
            let dir = scratch("respawn");
            // The fake worker "arms" its session by creating
            // session.json, then crashes — the second attempt must pass
            // --resume.
            let path = dir.join("fake-worker.sh");
            let calls = dir.join("calls");
            fs::write(
                &path,
                format!(
                    "#!/bin/sh\necho \"$@\" >> {}\nwhile [ $# -gt 1 ]; do\n  if [ \"$1\" = \"--checkpoint-dir\" ]; then touch \"$2/session.json\"; fi\n  shift\ndone\nexit 9\n",
                    calls.display()
                ),
            )
            .unwrap();
            fs::set_permissions(&path, fs::Permissions::from_mode(0o755)).unwrap();
            let policy = FleetPolicy {
                max_attempts: 2,
                backoff_base_ms: 0.0,
                ..FleetPolicy::default()
            };
            let coord = ShardCoordinator::new(path, vec![], dir.clone(), 1).with_policy(policy);
            assert!(matches!(
                coord.run_workers(),
                Err(ShardError::WorkerFailed { attempts: 2, .. })
            ));
            let calls = fs::read_to_string(dir.join("calls")).unwrap();
            let lines: Vec<&str> = calls.lines().collect();
            assert_eq!(lines.len(), 2);
            assert!(!lines[0].contains("--resume"), "{}", lines[0]);
            assert!(lines[1].contains("--resume"), "{}", lines[1]);
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
