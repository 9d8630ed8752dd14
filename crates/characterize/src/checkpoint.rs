//! Crash-resilient sweeps: write-ahead checkpoint journals and
//! kill-and-resume.
//!
//! A characterization campaign is a serial sequence of [`run_sweep`]
//! calls. When its [`crate::session::Session`] has a checkpoint
//! session armed ([`crate::session::Session::arm_checkpoints`]), every
//! sweep keeps a *journal* in the checkpoint directory: one CRC-guarded
//! line per completed (module, point) task, appended and fsynced the
//! moment the task's result exists. A run killed at any instant —
//! including mid-write — can then be resumed: the journal's intact
//! prefix is replayed into the sweep's result slots and only the
//! remaining (module, point) tasks are scheduled.
//!
//! This module is the journal I/O only: framing, records, loading and
//! validation, appends, compaction, merging, and session arming. The
//! sweep itself runs in [`run_sweep_on`], which opens each sweep's
//! journal with `CheckpointSession::open_sweep` (getting back the
//! replayed slots), runs the slots still owed, hands each fresh result
//! to `SweepJournal::append` as it lands, and ends with
//! `SweepJournal::compact`.
//!
//! # File format
//!
//! One journal per sweep, `sweep-NNNN.journal`, of CRC-framed JSON
//! lines `CCCCCCCC <payload>\n` (8 hex digits of IEEE CRC-32 over the
//! payload bytes, a space, the payload, a newline):
//!
//! * line 1 — the sweep's [`SweepManifest`] (schema-versioned; seed,
//!   backend, canonical fault-plan JSON, config digest, ordered point
//!   list);
//! * lines 2.. — result records, flat JSON objects with `module`,
//!   `point`, `status`, and the completed samples or the typed failure
//!   cause.
//!
//! A torn tail (no newline, bad CRC, malformed JSON) marks the journal
//! *truncated*: the damaged suffix is cut off and never trusted, the
//! `checkpoint/journal_truncated` counter ticks, and the affected
//! tasks simply re-run. A journal with no trusted manifest prefix at
//! all — empty, or a single torn line, the footprint of a kill before
//! the manifest fsync — restarts fresh, as if it never existed. A
//! *complete* manifest line that fails its CRC, by contrast, is a
//! typed error — it claims to prove what the journal belongs to but
//! cannot be trusted, and resuming would be a silent guess. So is an
//! intact record that addresses a slot outside the sweep's grid, or one
//! its shard does not own ([`CheckpointError::Corrupt`]).
//!
//! # Determinism
//!
//! Resume is byte-identical to an uninterrupted run because per-point
//! results are order-independent: each (module, point) task seeds its
//! own RNG stream from `module_stream_seed(config, module, index, n)`,
//! a pure function of the slot that involves no other point. Replaying
//! a journaled result is therefore indistinguishable from re-running
//! the task; scheduling only the remaining slots perturbs nothing.
//! Compaction writes exactly the records the journal replayed or
//! appended, so a slot the sweep never finished (a chain lost to a
//! panic) stays out of the journal and re-runs on resume.
//!
//! # Fingerprint rules
//!
//! On resume, each journal's manifest must match the manifest of the
//! sweep about to run: same seed, backend, fault-plan JSON, config
//! digest (FNV-1a over the full `ExperimentConfig` `Debug` rendering —
//! covering fleet composition and every scale knob), module count,
//! ordered `(n, params_digest)` point list, and shard spec. Any
//! mismatch is a typed [`CheckpointError::Mismatch`] naming the first
//! differing field — never a silent resume of the wrong campaign.
//!
//! # Sharding
//!
//! The same journals are the hand-off medium for multi-process sweeps
//! (see [`crate::shard`]). A *shard worker* session
//! ([`crate::session::Session::arm_sharded_checkpoints`]) opens every
//! sweep's journal pinned to its shard: the journal owns only the
//! `(module, point)` slots [`slot_shard`] assigns to the worker, so
//! only those are scheduled and journaled, and the manifest records the
//! shard spec. The coordinator then fuses the per-shard
//! journals with [`merge_sweep_journals`] — producing a journal
//! byte-identical to an unsharded run's, because every record is a pure
//! function of its slot — and replays the merged directory in-process
//! for the final, byte-identical campaign output. A killed worker
//! resumes from its own journal exactly like a single-process run.
//!
//! [`run_sweep`]: crate::fleet::run_sweep
//! [`run_sweep_on`]: crate::fleet::run_sweep_on

use std::fmt::Debug;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use simra_exec::{stable_digest, ManifestError, PointDigest, ShardSpec, SweepManifest};
use simra_faults::FaultPlan;
use simra_telemetry::json::{self, Value};
use simra_telemetry::{Counter, Recorder};

use crate::config::ExperimentConfig;
use crate::fleet::{FailureCause, ModuleResult, SweepPoint};

/// Schema version of the journal *record* lines (the manifest line
/// carries its own version, `SWEEP_MANIFEST_SCHEMA_VERSION`).
pub const JOURNAL_SCHEMA_VERSION: u32 = 1;

/// Why a checkpointed sweep could not run or resume.
#[derive(Debug)]
pub enum CheckpointError {
    /// A filesystem operation failed.
    Io {
        /// What was being attempted.
        context: String,
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A manifest document was malformed or of an unknown schema
    /// version.
    Manifest(ManifestError),
    /// The journal on disk belongs to a different sweep than the one
    /// about to run (changed config, seed, scale, backend, faults, or
    /// point list).
    Mismatch {
        /// First differing manifest field.
        field: &'static str,
        /// The value recorded on disk.
        on_disk: String,
        /// The value of the run attempting to resume.
        current: String,
    },
    /// The journal is damaged in a way that cannot be repaired by
    /// truncation (e.g. its manifest line fails its CRC).
    Corrupt {
        /// The journal path.
        path: PathBuf,
        /// What is wrong with it.
        detail: String,
    },
    /// A fresh (non-resume) session was pointed at a directory that
    /// already holds a session.
    DirInUse {
        /// The session file that already exists.
        path: PathBuf,
    },
    /// `--resume` was requested but the directory holds no session.
    SessionMissing {
        /// The session file that was expected.
        path: PathBuf,
    },
    /// A checkpoint session was already armed on this session.
    AlreadyArmed,
    /// A shard journal offered for merging does not cover every slot
    /// its shard owns — the worker was killed and never resumed to
    /// completion.
    ShardIncomplete {
        /// The journal path.
        path: PathBuf,
        /// The shard the journal belongs to.
        shard: u32,
        /// First missing slot's module index.
        module: usize,
        /// First missing slot's point index.
        point: usize,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io {
                context,
                path,
                source,
            } => write!(f, "{context} {}: {source}", path.display()),
            CheckpointError::Manifest(e) => write!(f, "{e}"),
            CheckpointError::Mismatch {
                field,
                on_disk,
                current,
            } => write!(
                f,
                "checkpoint manifest mismatch on '{field}': journal has {on_disk}, \
                 this run has {current} — resume requires the identical configuration"
            ),
            CheckpointError::Corrupt { path, detail } => {
                write!(f, "corrupt journal {}: {detail}", path.display())
            }
            CheckpointError::DirInUse { path } => write!(
                f,
                "checkpoint session {} already exists; pass --resume to continue it \
                 or point --checkpoint-dir at a fresh directory",
                path.display()
            ),
            CheckpointError::SessionMissing { path } => write!(
                f,
                "--resume requested but {} does not exist; run once with \
                 --checkpoint-dir (without --resume) to start a session",
                path.display()
            ),
            CheckpointError::AlreadyArmed => {
                write!(f, "a checkpoint session is already armed on this session")
            }
            CheckpointError::ShardIncomplete {
                path,
                shard,
                module,
                point,
            } => write!(
                f,
                "shard {shard} journal {} is missing its result for (module {module}, \
                 point {point}); resume the sharded run so the worker can finish before merging",
                path.display()
            ),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io { source, .. } => Some(source),
            CheckpointError::Manifest(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ManifestError> for CheckpointError {
    fn from(e: ManifestError) -> Self {
        CheckpointError::Manifest(e)
    }
}

fn io_err(context: &str, path: &Path, source: std::io::Error) -> CheckpointError {
    CheckpointError::Io {
        context: context.to_string(),
        path: path.to_path_buf(),
        source,
    }
}

/// A typed [`CheckpointError::Mismatch`] naming the first field where
/// the manifest on disk differs from the current one.
fn check_manifest(on_disk: &SweepManifest, current: &SweepManifest) -> Result<(), CheckpointError> {
    match on_disk.mismatch(current) {
        Some((field, on_disk, current)) => Err(CheckpointError::Mismatch {
            field,
            on_disk,
            current,
        }),
        None => Ok(()),
    }
}

/// IEEE CRC-32 (the zlib/PNG polynomial), bitwise. The journal writes
/// a handful of lines per sweep; table-free simplicity beats speed.
fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Frames a payload as a CRC-guarded journal line (without newline).
fn frame(payload: &str) -> String {
    format!("{:08x} {payload}", crc32(payload.as_bytes()))
}

/// Unframes a journal line: checks the CRC and returns the payload.
/// `None` means the line cannot be trusted (torn, flipped, malformed).
fn unframe(line: &[u8]) -> Option<&str> {
    if line.len() < 10 || line[8] != b' ' {
        return None;
    }
    let crc = u32::from_str_radix(std::str::from_utf8(&line[..8]).ok()?, 16).ok()?;
    let payload = &line[9..];
    if crc32(payload) != crc {
        return None;
    }
    std::str::from_utf8(payload).ok()
}

/// One journaled result: which (module, point) slot, and its outcome.
#[derive(Debug, Clone, PartialEq)]
struct JournalRecord {
    module: usize,
    point: usize,
    result: ModuleResult,
}

/// The framed journal line of `(module, point)`'s result.
fn record_line(module: usize, point: usize, result: &ModuleResult) -> String {
    frame(&render_record(module, point, result))
}

fn render_record(module: usize, point: usize, result: &ModuleResult) -> String {
    match result {
        ModuleResult::Completed { samples, attempts } => format!(
            "{{\"schema_version\":{JOURNAL_SCHEMA_VERSION},\"module\":{module},\
             \"point\":{point},\"status\":\"completed\",\"attempts\":{attempts},\
             \"samples\":{}}}",
            json::array(samples.iter().map(|s| json::number(*s))),
        ),
        ModuleResult::Failed { attempts, cause } => {
            let cause = match cause {
                FailureCause::Panic(msg) => {
                    format!("{{\"type\":\"panic\",\"message\":{}}}", json::quote(msg))
                }
                FailureCause::Dropout { at_group } => {
                    format!("{{\"type\":\"dropout\",\"at_group\":{at_group}}}")
                }
                FailureCause::DeadlineExceeded {
                    budget_ms,
                    spent_ms,
                } => format!(
                    "{{\"type\":\"deadline\",\"budget_ms\":{},\"spent_ms\":{}}}",
                    json::number(*budget_ms),
                    json::number(*spent_ms)
                ),
            };
            format!(
                "{{\"schema_version\":{JOURNAL_SCHEMA_VERSION},\"module\":{module},\
                 \"point\":{point},\"status\":\"failed\",\"attempts\":{attempts},\
                 \"cause\":{cause}}}"
            )
        }
    }
}

/// Parses one record payload. `None` means the payload is not a valid
/// record of this schema version — the journal loader treats that the
/// same as a CRC failure (truncate, don't trust).
fn parse_record(payload: &str) -> Option<JournalRecord> {
    let doc = Value::parse(payload).ok()?;
    if doc.get("schema_version")?.as_u32()? != JOURNAL_SCHEMA_VERSION {
        return None;
    }
    let module = doc.get("module")?.as_usize()?;
    let point = doc.get("point")?.as_usize()?;
    let attempts = doc.get("attempts")?.as_u32()?;
    let result = match doc.get("status")?.as_str()? {
        "completed" => ModuleResult::Completed {
            samples: doc
                .get("samples")?
                .as_array()?
                .iter()
                .map(Value::as_f64)
                .collect::<Option<Vec<f64>>>()?,
            attempts,
        },
        "failed" => {
            let cause = doc.get("cause")?;
            let cause = match cause.get("type")?.as_str()? {
                "panic" => FailureCause::Panic(cause.get("message")?.as_str()?.to_string()),
                "dropout" => FailureCause::Dropout {
                    at_group: cause.get("at_group")?.as_usize()?,
                },
                "deadline" => FailureCause::DeadlineExceeded {
                    budget_ms: cause.get("budget_ms")?.as_f64()?,
                    spent_ms: cause.get("spent_ms")?.as_f64()?,
                },
                _ => return None,
            };
            ModuleResult::Failed { attempts, cause }
        }
        _ => return None,
    };
    Some(JournalRecord {
        module,
        point,
        result,
    })
}

/// A loaded journal: its manifest, the records of its intact prefix,
/// and — when a damaged tail was found — the byte length of that
/// prefix so the caller can cut the damage off.
struct LoadedJournal {
    manifest: SweepManifest,
    records: Vec<JournalRecord>,
    /// `Some(len)` when the file has a damaged tail that must be
    /// truncated to `len` bytes before appending resumes.
    truncate_to: Option<u64>,
}

/// Outcome of inspecting a journal file that exists on disk.
enum JournalState {
    /// The file holds no trusted manifest prefix — it is empty, or its
    /// only content is a torn (newline-less) first line, exactly what a
    /// kill between `create_new` and the manifest fsync leaves behind.
    /// Nothing was ever proven by this journal, so it restarts fresh.
    Fresh {
        /// Whether a torn first line was discarded (ticks the
        /// `journal_truncated` counter).
        had_bytes: bool,
    },
    /// A trusted manifest line exists; resume from the intact prefix.
    Loaded(LoadedJournal),
}

/// Loads a journal, validating CRCs line by line. The first damaged
/// *record* line ends the trusted prefix (write-ahead semantics: a
/// suffix after damage proves nothing). A *complete* manifest line that
/// fails its CRC or does not parse is unrepairable — typed error — but
/// a file with no complete first line at all is merely
/// [`JournalState::Fresh`].
fn load_journal(path: &Path) -> Result<JournalState, CheckpointError> {
    let data = fs::read(path).map_err(|e| io_err("reading journal", path, e))?;
    let mut offset = 0usize;
    let mut manifest: Option<SweepManifest> = None;
    let mut records = Vec::new();
    let mut truncate_to = None;
    while offset < data.len() {
        let line_start = offset;
        let Some(nl) = data[offset..].iter().position(|b| *b == b'\n') else {
            // Torn final line: the write was interrupted mid-append.
            truncate_to = Some(line_start as u64);
            break;
        };
        let line = &data[offset..offset + nl];
        offset += nl + 1;
        let payload = unframe(line);
        if manifest.is_none() {
            let payload = payload.ok_or_else(|| CheckpointError::Corrupt {
                path: path.to_path_buf(),
                detail: "manifest line fails its CRC".into(),
            })?;
            manifest = Some(SweepManifest::from_json(payload)?);
            continue;
        }
        match payload.and_then(parse_record) {
            Some(record) => records.push(record),
            None => {
                truncate_to = Some(line_start as u64);
                break;
            }
        }
    }
    let Some(manifest) = manifest else {
        // Empty file or a single torn line: a crash before the manifest
        // line became durable. No prefix to trust, nothing to resume.
        return Ok(JournalState::Fresh {
            had_bytes: !data.is_empty(),
        });
    };
    Ok(JournalState::Loaded(LoadedJournal {
        manifest,
        records,
        truncate_to,
    }))
}

/// Append-only journal writer. Every append is flushed and fsynced
/// before it returns — the record is on disk before the sweep moves
/// on, which is what makes the journal *write-ahead*.
struct JournalWriter {
    path: PathBuf,
    file: File,
}

impl JournalWriter {
    /// Creates a fresh journal and durably writes its framed manifest
    /// line.
    fn create(path: &Path, manifest_line: &str) -> Result<Self, CheckpointError> {
        let file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)
            .map_err(|e| io_err("creating journal", path, e))?;
        let mut writer = JournalWriter {
            path: path.to_path_buf(),
            file,
        };
        writer.append_line(manifest_line)?;
        Ok(writer)
    }

    /// Opens an existing journal for appending, first truncating it to
    /// `keep_len` bytes when a damaged tail was detected. The file is
    /// always opened with `O_APPEND`: each write lands at the *current*
    /// EOF, so appends stay correct after `set_len` shrinks the file —
    /// without it the cursor would sit at offset 0 and overwrite the
    /// intact prefix.
    fn open_append(path: &Path, keep_len: Option<u64>) -> Result<Self, CheckpointError> {
        let file = OpenOptions::new()
            .append(true)
            .open(path)
            .map_err(|e| io_err("opening journal", path, e))?;
        if let Some(len) = keep_len {
            file.set_len(len)
                .map_err(|e| io_err("truncating damaged journal tail of", path, e))?;
            file.sync_data()
                .map_err(|e| io_err("syncing journal", path, e))?;
        }
        Ok(JournalWriter {
            path: path.to_path_buf(),
            file,
        })
    }

    fn append_line(&mut self, line: &str) -> Result<(), CheckpointError> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.file
            .write_all(&bytes)
            .and_then(|()| self.file.sync_data())
            .map_err(|e| io_err("appending to journal", &self.path, e))
    }
}

/// Atomically rewrites `path` with the given lines: write a sibling
/// tmp file (`path` plus `.tmp`), fsync it, rename it over the original.
/// Used for snapshot compaction — the journal is replaced by its
/// canonical form (records sorted by (module, point)) in one step that
/// either fully happens or leaves the old journal intact — for the shard
/// merge, and for the session manifest and the telemetry files, which
/// must exist only whole. Bytes already on disk are not rewritten; the
/// check compares contents, since a journal just appended to can have
/// the canonical length with its records in another order.
pub(crate) fn atomic_rewrite(path: &Path, lines: &[String]) -> Result<(), CheckpointError> {
    let buf: String = lines.iter().flat_map(|line| [line, "\n"]).collect();
    if fs::read(path).is_ok_and(|on_disk| on_disk == buf.as_bytes()) {
        return Ok(());
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut file = File::create(&tmp).map_err(|e| io_err("creating tmp file", &tmp, e))?;
        file.write_all(buf.as_bytes())
            .and_then(|()| file.sync_all())
            .map_err(|e| io_err("writing tmp file", &tmp, e))?;
    }
    fs::rename(&tmp, path).map_err(|e| io_err("renaming tmp file over", path, e))?;
    // Make the rename itself durable where the platform allows it.
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Which shard of a `count`-way split owns the `(module, point)` slot
/// of an `n_points`-wide grid: the flattened slot index modulo `count`.
/// A pure function of the slot, so coordinator, workers, and the merge
/// all agree on the partition without communicating — and the shards
/// are balanced to within one slot.
pub fn slot_shard(module: usize, point: usize, n_points: usize, count: u32) -> u32 {
    ((module * n_points + point) % count as usize) as u32
}

/// Builds the manifest of the sweep `(config, points)` under the given
/// id. Point parameters are digested from their `Debug` rendering —
/// deterministic for every parameter type the figure runners use.
fn manifest_for<P: Debug>(
    config: &ExperimentConfig,
    sweep_id: &str,
    points: &[SweepPoint<P>],
    shard: Option<ShardSpec>,
) -> SweepManifest {
    let empty = FaultPlan::default();
    let plan = config.faults.as_ref().unwrap_or(&empty);
    SweepManifest {
        schema_version: simra_exec::SWEEP_MANIFEST_SCHEMA_VERSION,
        sweep_id: sweep_id.to_string(),
        seed: config.seed,
        backend: config.backend.to_string(),
        faults: plan.to_json(),
        config_digest: stable_digest(&format!("{config:?}")),
        modules: config.modules.len(),
        points: points
            .iter()
            .map(|p| PointDigest {
                n: p.n,
                params_digest: stable_digest(&format!("{:?}", p.params)),
            })
            .collect(),
        shard,
    }
}

/// A sweep's result slots, `[module][point]`.
pub(crate) type SlotGrid = Vec<Vec<Option<ModuleResult>>>;

/// Files the records of the journal at `path` into `grid`, the
/// `[module][point]` slots of an `n_points`-wide sweep: the one record
/// validator of resume and merge. A record must address a slot inside
/// the grid that `shard` owns per [`slot_shard`] (any slot when `None`);
/// anything else is [`CheckpointError::Corrupt`], since its CRC held and
/// the journal is therefore wrong, not torn. A later record of a slot
/// replaces an earlier one: duplicates only arise from a crash between
/// a write and its bookkeeping, and are identical by determinism anyway.
fn file_records(
    path: &Path,
    records: Vec<JournalRecord>,
    grid: &mut SlotGrid,
    n_points: usize,
    shard: Option<ShardSpec>,
) -> Result<(), CheckpointError> {
    let corrupt = |detail: String| CheckpointError::Corrupt {
        path: path.to_path_buf(),
        detail,
    };
    let modules = grid.len();
    for JournalRecord {
        module,
        point,
        result,
    } in records
    {
        if module >= modules || point >= n_points {
            return Err(corrupt(format!(
                "record addresses slot (module {module}, point {point}) outside the \
                 {modules}×{n_points} grid"
            )));
        }
        if let Some(ShardSpec { index, count }) = shard {
            let owner = slot_shard(module, point, n_points, count);
            if owner != index {
                return Err(corrupt(format!(
                    "record for slot (module {module}, point {point}) found in shard {index}'s \
                     journal, but shard {owner} owns it"
                )));
            }
        }
        grid[module][point] = Some(result);
    }
    Ok(())
}

/// One sweep's open journal, from [`CheckpointSession::open_sweep`] to
/// [`SweepJournal::compact`]. It keeps the framed line of every record
/// it replayed or appended: exactly what compaction writes.
pub(crate) struct SweepJournal {
    sweep_id: String,
    path: PathBuf,
    manifest_line: String,
    n_points: usize,
    shard: Option<ShardSpec>,
    records_written: Counter,
    appender: Mutex<Appender>,
}

/// The half of a [`SweepJournal`] the sweep's chains share.
struct Appender {
    writer: JournalWriter,
    /// The record line of each journaled slot, at `module · n_points +
    /// point`: (module, point) order, the compacted order.
    lines: Vec<Option<String>>,
    /// The first failed append. Later appends are dropped, and
    /// [`SweepJournal::compact`] reports it instead of compacting.
    failure: Option<CheckpointError>,
}

impl SweepJournal {
    /// The sweep's id, `sweep-NNNN`.
    pub(crate) fn sweep_id(&self) -> &str {
        &self.sweep_id
    }

    /// Whether this process runs and journals the `(module, point)`
    /// slot: every slot, unless the session is a shard worker, which
    /// owns the slots [`slot_shard`] assigns to its shard.
    pub(crate) fn owns(&self, module: usize, point: usize) -> bool {
        self.shard
            .is_none_or(|s| slot_shard(module, point, self.n_points, s.count) == s.index)
    }

    /// Appends a fresh result and fsyncs it before returning: the
    /// record is on disk before the sweep moves on, which is what makes
    /// the journal *write-ahead*. Chains call this concurrently.
    pub(crate) fn append(&self, module: usize, point: usize, result: &ModuleResult) {
        let line = record_line(module, point, result);
        // Every step below leaves the appender whole: a poisoned lock
        // cannot hide a half-made update.
        let mut appender = self.appender.lock().unwrap_or_else(PoisonError::into_inner);
        if appender.failure.is_some() {
            return;
        }
        match appender.writer.append_line(&line) {
            Ok(()) => {
                self.records_written.incr();
                appender.lines[module * self.n_points + point] = Some(line);
            }
            Err(e) => appender.failure = Some(e),
        }
    }

    /// Snapshot compaction: replaces the append-order journal with its
    /// canonical form — the manifest line plus every record replayed or
    /// appended, sorted by (module, point) — via atomic tmp-file +
    /// rename. A kill during compaction leaves either the old journal
    /// or the new one, both complete. Fails with the first failed
    /// append instead, if any: the sweep's results are then not durably
    /// journaled, and returning them would break the resume contract.
    pub(crate) fn compact(self) -> Result<(), CheckpointError> {
        let appender = self
            .appender
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(e) = appender.failure {
            return Err(e);
        }
        let mut lines = vec![self.manifest_line];
        lines.extend(appender.lines.into_iter().flatten());
        atomic_rewrite(&self.path, &lines)
    }
}

/// Merges completed per-shard journals of one sweep into a single
/// journal at `output`, byte-identical to the compacted journal an
/// unsharded run of the same sweep would have written.
///
/// `inputs[i]` must be shard `i`'s journal (its manifest must record
/// shard `i/inputs.len()`); all manifests must agree on every other
/// field. Every shard must cover exactly the slots [`slot_shard`]
/// assigns it — a missing slot is [`CheckpointError::ShardIncomplete`]
/// (resume that worker first), a record outside the grid or the shard's
/// ownership is [`CheckpointError::Corrupt`]. On success the merged
/// journal holds the stripped (unsharded) manifest plus all records
/// sorted by `(module, point)`, written atomically; returns the record
/// count.
///
/// The byte-identity argument: every record is a pure function of
/// `(config, module, point)` — per-slot RNG streams involve no other
/// slot — so the union of shard records *is* the unsharded record set,
/// and compaction ordering makes the rendering canonical.
pub fn merge_sweep_journals(inputs: &[PathBuf], output: &Path) -> Result<usize, CheckpointError> {
    let count = u32::try_from(inputs.len()).map_err(|_| CheckpointError::Corrupt {
        path: output.to_path_buf(),
        detail: "shard count exceeds u32".into(),
    })?;
    if count == 0 {
        return Err(CheckpointError::Corrupt {
            path: output.to_path_buf(),
            detail: "no shard journals to merge".into(),
        });
    }
    let mut base: Option<SweepManifest> = None;
    let mut slots: SlotGrid = Vec::new();
    for (index, path) in (0..count).zip(inputs) {
        let shard = ShardSpec { index, count };
        let JournalState::Loaded(loaded) = load_journal(path)? else {
            return Err(CheckpointError::Corrupt {
                path: path.clone(),
                detail: "shard journal holds no trusted manifest".into(),
            });
        };
        let mut manifest = loaded.manifest;
        match manifest.shard.take() {
            Some(spec) if spec == shard => {}
            on_disk => {
                return Err(CheckpointError::Mismatch {
                    field: "shard",
                    on_disk: on_disk.map_or_else(|| "unsharded".into(), |s| s.to_string()),
                    current: shard.to_string(),
                });
            }
        }
        // `manifest` is now shard-stripped: exactly what an unsharded
        // run of the same sweep would have written.
        match &base {
            None => {
                slots = vec![vec![None; manifest.points.len()]; manifest.modules];
                base = Some(manifest);
            }
            Some(b) => check_manifest(b, &manifest)?,
        }
        let n_points = base.as_ref().expect("base manifest just set").points.len();
        file_records(path, loaded.records, &mut slots, n_points, Some(shard))?;
    }
    let base = base.expect("count > 0 guarantees a base manifest");
    let n_points = base.points.len();
    let mut lines = vec![frame(&base.to_json())];
    for (module, row) in slots.into_iter().enumerate() {
        for (point, slot) in row.into_iter().enumerate() {
            let Some(result) = slot else {
                let shard = slot_shard(module, point, n_points, count);
                return Err(CheckpointError::ShardIncomplete {
                    path: inputs[shard as usize].clone(),
                    shard,
                    module,
                    point,
                });
            };
            lines.push(record_line(module, point, &result));
        }
    }
    if let Some(dir) = output.parent() {
        fs::create_dir_all(dir).map_err(|e| io_err("creating merge output dir", dir, e))?;
    }
    atomic_rewrite(output, &lines)?;
    Ok(lines.len() - 1)
}

/// Checks the session manifest in `dir`, if any, against a run of
/// `config` pinned to `shard`, writing nothing. Returns whether `dir`
/// holds a session.
pub(crate) fn check_session(
    dir: &Path,
    config: &ExperimentConfig,
    shard: Option<ShardSpec>,
) -> Result<bool, CheckpointError> {
    let path = dir.join(SESSION_FILE);
    if !path.exists() {
        return Ok(false);
    }
    let text =
        fs::read_to_string(&path).map_err(|e| io_err("reading session manifest", &path, e))?;
    let current = manifest_for::<()>(config, "session", &[], shard);
    check_manifest(&SweepManifest::from_json(text.trim())?, &current)?;
    Ok(true)
}

/// One armed checkpoint session, owned by a
/// [`crate::session::Session`]. Sweeps are numbered in issue order,
/// which is deterministic because campaigns run their figures serially.
pub struct CheckpointSession {
    dir: PathBuf,
    next: AtomicUsize,
    /// `Some` when this session is a shard worker: every sweep's
    /// journal owns only the shard's slots.
    shard: Option<ShardSpec>,
}

/// File that marks a directory as a checkpoint session and pins the
/// configuration it was started with.
const SESSION_FILE: &str = "session.json";

impl CheckpointSession {
    /// Arms checkpointing over `dir` for a campaign running `config`:
    /// every sweep issued through the returned session journals into
    /// `dir`. Pass `shard` to arm a *shard-worker* session whose sweep
    /// journals own only the slots [`slot_shard`] assigns to the shard;
    /// the session manifest records the spec, so resuming a shard
    /// directory with a different spec (or unsharded) is a typed
    /// mismatch.
    ///
    /// A fresh session (`resume = false`) refuses a directory that
    /// already holds one ([`CheckpointError::DirInUse`]) and records
    /// the session manifest; a resumed session (`resume = true`)
    /// requires that manifest to exist and to match the current
    /// configuration exactly ([`CheckpointError::Mismatch`] names the
    /// first differing field — seed, backend, faults, config digest,
    /// module count, or shard).
    pub fn arm(
        dir: &Path,
        config: &ExperimentConfig,
        resume: bool,
        shard: Option<ShardSpec>,
    ) -> Result<CheckpointSession, CheckpointError> {
        fs::create_dir_all(dir).map_err(|e| io_err("creating checkpoint dir", dir, e))?;
        let session_path = dir.join(SESSION_FILE);
        if resume {
            if !check_session(dir, config, shard)? {
                return Err(CheckpointError::SessionMissing { path: session_path });
            }
        } else {
            if session_path.exists() {
                return Err(CheckpointError::DirInUse { path: session_path });
            }
            let manifest = manifest_for::<()>(config, "session", &[], shard);
            atomic_rewrite(&session_path, &[manifest.to_json()])?;
        }
        Ok(CheckpointSession {
            dir: dir.to_path_buf(),
            next: AtomicUsize::new(0),
            shard,
        })
    }

    /// The shard this session is pinned to, if it is a worker session.
    pub fn shard(&self) -> Option<ShardSpec> {
        self.shard
    }

    /// Id of the next sweep issued through this session, `sweep-NNNN`
    /// in issue order.
    pub(crate) fn next_sweep_id(&self) -> String {
        format!("sweep-{:04}", self.next.fetch_add(1, Ordering::SeqCst))
    }

    /// Opens the journal of the sweep `(config, points)` at
    /// `<dir>/<sweep_id>.journal`, ready for appends. A new journal is
    /// created with its manifest line. An existing one must carry this
    /// sweep's manifest ([`CheckpointError::Mismatch`] otherwise); its
    /// damaged tail is cut off, and its records are validated and
    /// returned as the replayed `[module][point]` slots.
    pub(crate) fn open_sweep<P: Debug>(
        &self,
        sweep_id: String,
        config: &ExperimentConfig,
        recorder: &Recorder,
        points: &[SweepPoint<P>],
    ) -> Result<(SweepJournal, SlotGrid), CheckpointError> {
        let records_written = recorder.counter("checkpoint", "checkpoint_records_written");
        let resume_points_skipped = recorder.counter("checkpoint", "resume_points_skipped");
        let journal_truncated = recorder.counter("checkpoint", "journal_truncated");
        let manifest = manifest_for(config, &sweep_id, points, self.shard);
        let manifest_line = frame(&manifest.to_json());
        let path = self.dir.join(format!("{sweep_id}.journal"));
        let (modules, n_points) = (config.modules.len(), points.len());
        let mut replayed = vec![vec![None; n_points]; modules];
        let writer = if path.exists() {
            match load_journal(&path)? {
                JournalState::Fresh { had_bytes } => {
                    // Nothing trustworthy on disk — a crash before the
                    // manifest line became durable. Restart this journal
                    // as if it never existed.
                    if had_bytes {
                        journal_truncated.incr();
                    }
                    fs::remove_file(&path)
                        .map_err(|e| io_err("removing manifest-less journal", &path, e))?;
                    JournalWriter::create(&path, &manifest_line)?
                }
                JournalState::Loaded(loaded) => {
                    check_manifest(&loaded.manifest, &manifest)?;
                    if loaded.truncate_to.is_some() {
                        journal_truncated.incr();
                    }
                    file_records(&path, loaded.records, &mut replayed, n_points, self.shard)?;
                    JournalWriter::open_append(&path, loaded.truncate_to)?
                }
            }
        } else {
            fs::create_dir_all(&self.dir)
                .map_err(|e| io_err("creating checkpoint dir", &self.dir, e))?;
            JournalWriter::create(&path, &manifest_line)?
        };
        let mut lines = Vec::with_capacity(modules * n_points);
        for (module, row) in replayed.iter().enumerate() {
            for (point, slot) in row.iter().enumerate() {
                lines.push(
                    slot.as_ref()
                        .map(|result| record_line(module, point, result)),
                );
            }
        }
        let skipped = lines.iter().flatten().count();
        resume_points_skipped.add(skipped as u64);
        let journal = SweepJournal {
            sweep_id,
            path,
            manifest_line,
            n_points,
            shard: self.shard,
            records_written,
            appender: Mutex::new(Appender {
                writer,
                lines,
                failure: None,
            }),
        };
        Ok((journal, replayed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{self, FleetOutcome};
    use crate::session::Session;
    use simra_dram::Rng;
    use std::sync::atomic::AtomicU32;

    /// A per-test scratch directory under the system temp dir; no
    /// tempfile dependency needed.
    fn scratch(tag: &str) -> PathBuf {
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "simra-checkpoint-{}-{}-{tag}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create scratch dir");
        dir
    }

    fn two_module_config() -> ExperimentConfig {
        let mut config = ExperimentConfig::quick();
        config.modules.push(crate::config::ModuleUnderTest {
            profile: simra_dram::VendorProfile::mfr_m_e_die(),
            seed: 21,
        });
        config
    }

    fn points() -> Vec<SweepPoint<f64>> {
        [2u32, 4, 8, 4]
            .iter()
            .map(|&n| SweepPoint::new(n, f64::from(n) * 0.5))
            .collect()
    }

    /// The test sweep on `session`, through the one sweep body: an op
    /// that consumes the stream and reads the group, the module and the
    /// point, so any stream, slot or parameter mix-up shows.
    fn sweep(session: &Session) -> Vec<FleetOutcome> {
        fleet::run_sweep(session, &points(), |scale, setup, g, rng| {
            let seed = setup.module().seed() as f64;
            Some((g.local_rows[0] as f64 + rng.gen::<f64>() + seed * 1e-6) * scale)
        })
    }

    /// Runs the test sweep on `session` armed over `dir` — fresh, or
    /// resuming when `dir` already holds a session — pinned to `shard`
    /// when given.
    fn run_armed_in(session: &Session, dir: &Path, shard: Option<ShardSpec>) -> Vec<FleetOutcome> {
        let resume = dir.join(SESSION_FILE).exists();
        match shard {
            Some(shard) => session.arm_sharded_checkpoints(dir, resume, shard),
            None => session.arm_checkpoints(dir, resume),
        }
        .expect("arm the checkpoint session");
        sweep(session)
    }

    fn run_armed(config: &ExperimentConfig, dir: &Path) -> Vec<FleetOutcome> {
        run_armed_in(&Session::new(config.clone()), dir, None)
    }

    fn reference(config: &ExperimentConfig) -> Vec<FleetOutcome> {
        sweep(&Session::new(config.clone()))
    }

    /// A checkpoint context over `dir` that numbers its first sweep
    /// `sweep-0000`, built without `session.json` so a test can drive
    /// the journal layer alone.
    fn checkpoint_at(dir: &Path, shard: Option<ShardSpec>) -> CheckpointSession {
        CheckpointSession {
            dir: dir.to_path_buf(),
            next: AtomicUsize::new(0),
            shard,
        }
    }

    /// Opens the test sweep's journal in `dir` as the first sweep of a
    /// session pinned to `shard`, as `run_sweep_on` does before it
    /// schedules anything, and returns the replayed slots.
    fn open(
        config: &ExperimentConfig,
        dir: &Path,
        shard: Option<ShardSpec>,
    ) -> Result<SlotGrid, CheckpointError> {
        let recorder = Recorder::new();
        let opened =
            checkpoint_at(dir, shard).open_sweep("sweep-0000".into(), config, &recorder, &points());
        opened.map(|(_, replayed)| replayed)
    }

    /// Sum of one counter across a recorder's snapshot (0 if never
    /// registered).
    fn counter(recorder: &Recorder, module: &str, name: &str) -> u64 {
        recorder
            .snapshot()
            .counters
            .iter()
            .filter(|c| c.module == module && c.name == name)
            .map(|c| c.value)
            .sum()
    }

    fn journal_path(dir: &Path) -> PathBuf {
        dir.join("sweep-0000.journal")
    }

    /// Byte ranges of every line in the journal, newline included.
    fn line_spans(data: &[u8]) -> Vec<(usize, usize)> {
        let mut spans = Vec::new();
        let mut start = 0;
        for (i, b) in data.iter().enumerate() {
            if *b == b'\n' {
                spans.push((start, i + 1));
                start = i + 1;
            }
        }
        spans
    }

    #[test]
    fn fresh_run_matches_uncheckpointed_reference() {
        let config = two_module_config();
        let dir = scratch("fresh");
        let outcomes = run_armed(&config, &dir);
        assert_eq!(outcomes, reference(&config));
        assert!(journal_path(&dir).exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn completed_journal_replays_without_rerunning() {
        let config = two_module_config();
        let dir = scratch("replay");
        let first = run_armed(&config, &dir);
        let journal =
            fs::read(journal_path(&dir)).expect("an armed sweep writes sweep-0000.journal");
        // A resumed session fast-forwards entirely through the journal:
        // no fleet series is even registered, every one of the 2 × 4
        // slots is counted as skipped, and compaction rewrites the same
        // bytes.
        let recorder = Recorder::new();
        recorder.enable();
        let session = Session::recorded_by(config.clone(), recorder.clone());
        let second = run_armed_in(&session, &dir, None);
        assert_eq!(first, second);
        let snapshot = recorder.snapshot();
        assert!(snapshot.counters.iter().all(|c| c.module != "fleet"));
        assert!(snapshot.histograms.iter().all(|h| h.module != "fleet"));
        assert_eq!(counter(&recorder, "checkpoint", "resume_points_skipped"), 8);
        assert_eq!(fs::read(journal_path(&dir)).unwrap(), journal);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_journal_resumes_to_identical_results() {
        let config = two_module_config();
        let dir = scratch("partial");
        let full = run_armed(&config, &dir);
        let path = journal_path(&dir);
        let data = fs::read(&path).unwrap();
        let spans = line_spans(&data);
        assert!(spans.len() > 3, "manifest + 8 records expected");
        // Keep the manifest and the first two records — as if the run
        // was killed early — then resume.
        for keep in [1usize, 2, 3, spans.len() - 1] {
            fs::write(&path, &data[..spans[keep - 1].1]).unwrap();
            let resumed = run_armed(&config, &dir);
            assert_eq!(resumed, full, "keep={keep}");
            // Resume compacted the journal back to its full form.
            assert_eq!(fs::read(&path).unwrap(), data, "keep={keep}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_record_is_truncated_not_trusted() {
        let config = two_module_config();
        let dir = scratch("torn");
        let full = run_armed(&config, &dir);
        let path = journal_path(&dir);
        let data = fs::read(&path).unwrap();
        let spans = line_spans(&data);
        // Keep two intact records, then a half-written third: a real
        // SIGKILL mid-append.
        let keep = spans[2].1;
        let mut torn = data[..keep].to_vec();
        torn.extend_from_slice(&data[spans[3].0..spans[3].0 + 17]);
        fs::write(&path, &torn).unwrap();
        let resumed = run_armed(&config, &dir);
        assert_eq!(resumed, full);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_journals_resume_identically_or_fail_as_corrupt() {
        // One to three raw byte edits anywhere in a completed journal:
        // resume re-runs whatever the damage cost and lands on the
        // uninterrupted outcome, or — damage to the manifest line —
        // refuses with a typed `Corrupt`. It never panics or guesses.
        let config = two_module_config();
        let dir = scratch("damaged");
        let full = run_armed(&config, &dir);
        let path = journal_path(&dir);
        let data = fs::read(&path).unwrap();
        let (mut resumed, mut corrupt) = (0, 0);
        for case in 0..512 {
            let mut rng = Rng::seed_from_u64(case);
            let mut bytes = data.clone();
            for _ in 0..rng.gen_range(1..=3usize) {
                let at = rng.gen_range(0..bytes.len());
                let byte = rng.gen::<u64>() as u8;
                match rng.gen_range(0..3u32) {
                    0 => bytes[at] = byte,
                    1 => {
                        bytes.remove(at);
                    }
                    _ => bytes.insert(at, byte),
                }
            }
            fs::write(&path, &bytes).unwrap();
            match open(&config, &dir, None) {
                Ok(_) => {
                    assert_eq!(run_armed(&config, &dir), full, "case {case}");
                    resumed += 1;
                }
                Err(CheckpointError::Corrupt { .. }) => corrupt += 1,
                Err(other) => panic!("case {case}: {other}"),
            }
        }
        assert!(
            resumed > 0 && corrupt > 0,
            "{resumed} resumed, {corrupt} corrupt"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_or_torn_manifest_journal_restarts_fresh() {
        let config = two_module_config();
        let dir = scratch("freshagain");
        let full = run_armed(&config, &dir);
        let path = journal_path(&dir);
        // A kill between journal creation and the manifest line's fsync
        // leaves an empty file; resume must restart the journal as
        // fresh, not fail with a typed error.
        fs::write(&path, b"").unwrap();
        assert_eq!(run_armed(&config, &dir), full);
        // ... or a torn, newline-less manifest prefix — same recovery.
        let data = fs::read(&path).unwrap();
        fs::write(&path, &data[..20]).unwrap();
        assert_eq!(run_armed(&config, &dir), full);
        // Both recoveries recreated and compacted the full journal.
        assert_eq!(fs::read(&path).unwrap(), data);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_resume_appends_at_eof_and_survives_second_kill() {
        let config = two_module_config();
        let dir = scratch("doublekill");
        let full = run_armed(&config, &dir);
        let path = journal_path(&dir);
        let data = fs::read(&path).unwrap();
        let spans = line_spans(&data);
        // Keep manifest + two records, then a half-written third: a
        // SIGKILL mid-append.
        let keep = spans[2].1;
        let mut torn = data[..keep].to_vec();
        torn.extend_from_slice(&data[spans[3].0..spans[3].0 + 17]);
        fs::write(&path, &torn).unwrap();
        // Replay the resume's journal writes by hand: truncate the
        // damaged tail, append one completed record, then "crash"
        // before compaction by dropping the writer.
        let JournalState::Loaded(loaded) = load_journal(&path).unwrap() else {
            panic!("journal with an intact manifest must load");
        };
        assert_eq!(loaded.truncate_to, Some(keep as u64));
        {
            let mut writer = JournalWriter::open_append(&path, loaded.truncate_to).unwrap();
            let replay_line = std::str::from_utf8(&data[spans[3].0..spans[3].1 - 1]).unwrap();
            writer.append_line(replay_line).unwrap();
        }
        // The append landed at EOF: intact prefix untouched, the new
        // record after it — not overwriting the manifest at byte 0.
        let mid_run = fs::read(&path).unwrap();
        assert_eq!(&mid_run[..keep], &data[..keep], "prefix must stay intact");
        assert_eq!(&mid_run[keep..], &data[spans[3].0..spans[3].1]);
        // The second kill struck before compaction; a second resume
        // must load this journal and finish byte-identical.
        let resumed = run_armed(&config, &dir);
        assert_eq!(resumed, full);
        assert_eq!(fs::read(&path).unwrap(), data);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn flipped_crc_byte_fails_safe() {
        let config = two_module_config();
        let dir = scratch("crcflip");
        let full = run_armed(&config, &dir);
        let path = journal_path(&dir);
        let mut data = fs::read(&path).unwrap();
        let spans = line_spans(&data);
        // Flip one payload byte inside the third record; its CRC no
        // longer matches, so that record and everything after it must
        // be dropped and re-run — never trusted.
        let (start, end) = spans[3];
        let mid = (start + end) / 2;
        data[mid] ^= 0x01;
        fs::write(&path, &data).unwrap();
        let resumed = run_armed(&config, &dir);
        assert_eq!(resumed, full);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_schema_version_is_a_typed_error() {
        let config = two_module_config();
        let dir = scratch("stale");
        run_armed(&config, &dir);
        let path = journal_path(&dir);
        let data = fs::read(&path).unwrap();
        let spans = line_spans(&data);
        // Rewrite the manifest line as a (validly CRC-framed) document
        // of a future schema version: the loader must refuse with a
        // typed error, not guess.
        let manifest_payload = std::str::from_utf8(&data[9..spans[0].1 - 1])
            .unwrap()
            .replacen("\"schema_version\":1", "\"schema_version\":99", 1);
        let mut rewritten = frame(&manifest_payload).into_bytes();
        rewritten.push(b'\n');
        rewritten.extend_from_slice(&data[spans[0].1..]);
        fs::write(&path, &rewritten).unwrap();
        match open(&config, &dir, None) {
            Err(CheckpointError::Manifest(ManifestError::SchemaVersion {
                found: 99,
                expected: 1,
            })) => {}
            other => panic!("expected a schema-version error, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_manifest_line_is_a_typed_error() {
        let config = two_module_config();
        let dir = scratch("badmanifest");
        run_armed(&config, &dir);
        let path = journal_path(&dir);
        let mut data = fs::read(&path).unwrap();
        data[2] ^= 0xFF; // damage the manifest line's CRC field
        fs::write(&path, &data).unwrap();
        match open(&config, &dir, None) {
            Err(CheckpointError::Corrupt { detail, .. }) => {
                assert!(detail.contains("manifest"), "{detail}");
            }
            other => panic!("expected a corrupt-journal error, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_seed_refuses_resume() {
        let config = two_module_config();
        let dir = scratch("mismatch");
        run_armed(&config, &dir);
        let mut other = config.clone();
        other.seed ^= 1;
        match open(&other, &dir, None) {
            Err(CheckpointError::Mismatch { field, .. }) => assert_eq!(field, "seed"),
            other => panic!("expected a manifest mismatch, got {other:?}"),
        }
        // A scale change is caught by the config digest.
        let mut other = config.clone();
        other.groups_per_subarray += 1;
        match open(&other, &dir, None) {
            Err(CheckpointError::Mismatch { field, .. }) => assert_eq!(field, "config_digest"),
            other => panic!("expected a manifest mismatch, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
        // A fault plan one ulp away is caught by the plan's rendering,
        // the manifest's only fingerprint of the faults.
        let mut faulted = config.clone();
        faulted.faults = Some(FaultPlan {
            cells: Some(simra_faults::CellFaultSpec {
                seed: 7,
                stuck_per_million: 50.0,
                sense_offset_shift: 0.0,
            }),
            ..FaultPlan::default()
        });
        let dir = scratch("mismatch-faults");
        run_armed(&faulted, &dir);
        let mut other = faulted.clone();
        let cells = other.faults.as_mut().and_then(|p| p.cells.as_mut());
        let cells = cells.expect("the plan has cells");
        cells.stuck_per_million = cells.stuck_per_million.next_up();
        match open(&other, &dir, None) {
            Err(CheckpointError::Mismatch { field, .. }) => assert_eq!(field, "faults"),
            other => panic!("expected a manifest mismatch, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulted_sweeps_checkpoint_too() {
        // Failed slots (a permanent dropout) journal and replay like
        // completed ones.
        let mut config = two_module_config();
        config.faults = Some(FaultPlan {
            modules: vec![simra_faults::ModuleFault {
                module_index: 1,
                kind: simra_faults::ModuleFaultKind::Dropout {
                    at_group: 0,
                    recover_after_attempts: None,
                },
            }],
            ..FaultPlan::default()
        });
        let dir = scratch("faulted");
        let full = run_armed(&config, &dir);
        assert!(full
            .iter()
            .any(|o| matches!(o.slots[1], ModuleResult::Failed { .. })));
        let replayed = run_armed(&config, &dir);
        assert_eq!(replayed, full);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_lines_round_trip() {
        let records = [
            JournalRecord {
                module: 1,
                point: 3,
                result: ModuleResult::Completed {
                    samples: vec![0.25, 1.0 / 3.0, f64::NAN],
                    attempts: 2,
                },
            },
            JournalRecord {
                module: 0,
                point: 0,
                result: ModuleResult::Failed {
                    attempts: 3,
                    cause: FailureCause::Panic("boom \"quoted\"".into()),
                },
            },
            JournalRecord {
                module: 2,
                point: 1,
                result: ModuleResult::Failed {
                    attempts: 1,
                    cause: FailureCause::DeadlineExceeded {
                        budget_ms: 5.0,
                        spent_ms: 10.5,
                    },
                },
            },
            JournalRecord {
                module: 0,
                point: 2,
                result: ModuleResult::Failed {
                    attempts: 3,
                    cause: FailureCause::Dropout { at_group: 4 },
                },
            },
        ];
        for record in &records {
            let line = record_line(record.module, record.point, &record.result);
            let payload = unframe(line.as_bytes()).expect("own frame must verify");
            let parsed = parse_record(payload).expect("own record must parse");
            assert_eq!(parsed.module, record.module);
            assert_eq!(parsed.point, record.point);
            // NaN-bearing samples compare by bits, not PartialEq.
            match (&parsed.result, &record.result) {
                (
                    ModuleResult::Completed {
                        samples: a,
                        attempts: x,
                    },
                    ModuleResult::Completed {
                        samples: b,
                        attempts: y,
                    },
                ) => {
                    assert_eq!(x, y);
                    assert_eq!(a.len(), b.len());
                    for (s, t) in a.iter().zip(b) {
                        assert!(
                            s.to_bits() == t.to_bits() || (s.is_nan() && t.is_nan()),
                            "{s} vs {t}"
                        );
                    }
                }
                (a, b) => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 check value ("123456789" → 0xCBF43926).
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    fn run_sharded(config: &ExperimentConfig, dir: &Path, shard: ShardSpec) -> Vec<FleetOutcome> {
        run_armed_in(&Session::new(config.clone()), dir, Some(shard))
    }

    #[test]
    fn sharded_journals_merge_byte_identical_to_an_unsharded_run() {
        let config = two_module_config();
        let unsharded = scratch("shard-ref");
        let full = run_armed(&config, &unsharded);
        let golden = fs::read(journal_path(&unsharded)).unwrap();
        let n_points = points().len();
        for count in [1u32, 2, 3, 5] {
            let root = scratch(&format!("shard-x{count}"));
            let mut inputs = Vec::new();
            for index in 0..count {
                let dir = root.join(format!("shard-{index}"));
                let outcomes = run_sharded(&config, &dir, ShardSpec { index, count });
                for (point, outcome) in outcomes.iter().enumerate() {
                    for (module, slot) in outcome.slots.iter().enumerate() {
                        if slot_shard(module, point, n_points, count) == index {
                            assert_eq!(
                                slot, &full[point].slots[module],
                                "owned slot ({module},{point}) of shard {index}/{count}"
                            );
                        } else {
                            assert!(
                                matches!(slot, ModuleResult::Completed { attempts: 0, .. }),
                                "unowned slot ({module},{point}) must be a placeholder"
                            );
                        }
                    }
                }
                inputs.push(journal_path(&dir));
            }
            let merged = root.join("merged").join("sweep-0000.journal");
            let records = merge_sweep_journals(&inputs, &merged).unwrap();
            assert_eq!(records, 2 * n_points);
            assert_eq!(
                fs::read(&merged).unwrap(),
                golden,
                "merged journal must be byte-identical to the unsharded one (count={count})"
            );
            let _ = fs::remove_dir_all(&root);
        }
        let _ = fs::remove_dir_all(&unsharded);
    }

    #[test]
    fn a_killed_shard_worker_resumes_and_merges_identically() {
        let config = two_module_config();
        let unsharded = scratch("shard-kill-ref");
        run_armed(&config, &unsharded);
        let golden = fs::read(journal_path(&unsharded)).unwrap();
        let root = scratch("shard-kill");
        let dirs: Vec<PathBuf> = (0..2).map(|i| root.join(format!("shard-{i}"))).collect();
        run_sharded(&config, &dirs[0], ShardSpec { index: 0, count: 2 });
        run_sharded(&config, &dirs[1], ShardSpec { index: 1, count: 2 });
        // "Kill" shard 1 after its first record: truncate the journal to
        // the manifest plus one intact record, then resume it.
        let path = journal_path(&dirs[1]);
        let data = fs::read(&path).unwrap();
        let spans = line_spans(&data);
        fs::write(&path, &data[..spans[1].1]).unwrap();
        run_sharded(&config, &dirs[1], ShardSpec { index: 1, count: 2 });
        let inputs: Vec<PathBuf> = dirs.iter().map(|d| journal_path(d)).collect();
        let merged = root.join("merged").join("sweep-0000.journal");
        merge_sweep_journals(&inputs, &merged).unwrap();
        assert_eq!(fs::read(&merged).unwrap(), golden);
        let _ = fs::remove_dir_all(&root);
        let _ = fs::remove_dir_all(&unsharded);
    }

    #[test]
    fn a_rewrite_whose_bytes_are_on_disk_writes_nothing() {
        let dir = scratch("rewrite");
        let path = dir.join("sweep-0000.journal");
        let lines = |order: [&str; 2]| order.map(String::from).to_vec();
        atomic_rewrite(&path, &lines(["a", "b"])).unwrap();
        let backdated = std::time::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000_000);
        let mtime = || fs::metadata(&path).unwrap().modified().unwrap();
        let file = OpenOptions::new().write(true).open(&path).unwrap();
        file.set_modified(backdated).unwrap();
        atomic_rewrite(&path, &lines(["a", "b"])).unwrap();
        assert_eq!(mtime(), backdated, "the same bytes are not rewritten");
        // Same length, other order, as a journal appended out of order.
        atomic_rewrite(&path, &lines(["b", "a"])).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"b\na\n");
        assert_ne!(mtime(), backdated);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_requires_every_shard_slot() {
        let config = two_module_config();
        let root = scratch("shard-hole");
        let dirs: Vec<PathBuf> = (0..2).map(|i| root.join(format!("shard-{i}"))).collect();
        run_sharded(&config, &dirs[0], ShardSpec { index: 0, count: 2 });
        run_sharded(&config, &dirs[1], ShardSpec { index: 1, count: 2 });
        // Drop shard 1's final record (an intact truncation, as if the
        // worker never got to that slot).
        let path = journal_path(&dirs[1]);
        let data = fs::read(&path).unwrap();
        let spans = line_spans(&data);
        fs::write(&path, &data[..spans[spans.len() - 2].1]).unwrap();
        let inputs: Vec<PathBuf> = dirs.iter().map(|d| journal_path(d)).collect();
        let merged = root.join("merged").join("sweep-0000.journal");
        match merge_sweep_journals(&inputs, &merged) {
            Err(CheckpointError::ShardIncomplete { shard: 1, path, .. }) => {
                assert_eq!(path, inputs[1]);
            }
            other => panic!("expected ShardIncomplete for shard 1, got {other:?}"),
        }
        assert!(!merged.exists(), "a failed merge must not leave output");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn merge_rejects_wrong_or_unsharded_specs() {
        let config = two_module_config();
        let root = scratch("shard-spec");
        // An unsharded journal offered as shard 0.
        let unsharded = root.join("unsharded");
        run_armed(&config, &unsharded);
        let merged = root.join("merged").join("sweep-0000.journal");
        match merge_sweep_journals(&[journal_path(&unsharded)], &merged) {
            Err(CheckpointError::Mismatch {
                field: "shard",
                on_disk,
                ..
            }) => assert_eq!(on_disk, "unsharded"),
            other => panic!("expected a shard mismatch, got {other:?}"),
        }
        // Shard 0's journal offered in shard 1's position.
        let shard0 = root.join("shard-0");
        run_sharded(&config, &shard0, ShardSpec { index: 0, count: 2 });
        match merge_sweep_journals(&[journal_path(&shard0), journal_path(&shard0)], &merged) {
            Err(CheckpointError::Mismatch {
                field: "shard",
                on_disk,
                current,
            }) => {
                assert_eq!(on_disk, "0/2");
                assert_eq!(current, "1/2");
            }
            other => panic!("expected a shard mismatch, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn sharded_session_refuses_a_different_spec_on_resume() {
        let config = two_module_config();
        let dir = scratch("shard-respec");
        run_sharded(&config, &dir, ShardSpec { index: 0, count: 2 });
        match open(&config, &dir, Some(ShardSpec { index: 1, count: 2 })) {
            Err(CheckpointError::Mismatch { field: "shard", .. }) => {}
            other => panic!("expected a shard mismatch, got {other:?}"),
        }
        match open(&config, &dir, None) {
            Err(CheckpointError::Mismatch { field: "shard", .. }) => {}
            other => panic!("expected a shard mismatch, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Builds one synthetic journal file: a manifest line plus the given
    /// records, framed exactly as the journal writer would.
    fn write_synthetic_journal(
        path: &Path,
        config: &ExperimentConfig,
        pts: &[SweepPoint<f64>],
        shard: Option<ShardSpec>,
        records: &[JournalRecord],
    ) {
        let manifest = manifest_for(config, "sweep-0000", pts, shard);
        let mut lines = vec![frame(&manifest.to_json())];
        lines.extend(
            records
                .iter()
                .map(|r| record_line(r.module, r.point, &r.result)),
        );
        let mut buf = String::new();
        for line in &lines {
            buf.push_str(line);
            buf.push('\n');
        }
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, buf).unwrap();
    }

    /// Deterministic synthetic result for a slot: the shard-merge test below
    /// only needs *distinct, round-trippable* results, not real sweeps.
    fn synthetic_result(module: usize, point: usize, salt: u64) -> ModuleResult {
        let tag = salt
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((module * 31 + point) as u64);
        if tag.is_multiple_of(4) {
            ModuleResult::Failed {
                attempts: (tag % 3 + 1) as u32,
                cause: FailureCause::Panic(format!("synthetic panic {tag}")),
            }
        } else {
            ModuleResult::Completed {
                samples: vec![(tag % 1000) as f64 * 0.25, (tag % 777) as f64 * 0.5],
                attempts: 1,
            }
        }
    }

    /// For every grid shape and shard count up to five, and seeded
    /// record contents, merging the per-shard journals reconstructs
    /// exactly the unsharded record set — byte-identical journals.
    #[test]
    fn merged_shard_journals_reconstruct_the_unsharded_record_set() {
        for (case, (count, n_points)) in (1u32..6)
            .flat_map(|count| (1usize..6).map(move |n_points| (count, n_points)))
            .enumerate()
        {
            let salt = Rng::seed_from_u64(case as u64).gen_range(0u64..1_000_000);
            let config = two_module_config();
            let modules = config.modules.len();
            let pts: Vec<SweepPoint<f64>> = (0..n_points)
                .map(|i| SweepPoint::new(i as u32 + 2, i as f64 * 0.5))
                .collect();
            let root = scratch(&format!("shard-merge-{count}-{n_points}-{salt}"));
            // The unsharded golden: all records, module-major.
            let mut all = Vec::new();
            for module in 0..modules {
                for point in 0..n_points {
                    all.push(JournalRecord {
                        module,
                        point,
                        result: synthetic_result(module, point, salt),
                    });
                }
            }
            let golden_path = root.join("unsharded.journal");
            write_synthetic_journal(&golden_path, &config, &pts, None, &all);
            // Per-shard journals: each holds exactly its owned records.
            let mut inputs = Vec::new();
            for index in 0..count {
                let owned: Vec<JournalRecord> = all
                    .iter()
                    .filter(|r| slot_shard(r.module, r.point, n_points, count) == index)
                    .cloned()
                    .collect();
                let path = root.join(format!("shard-{index}.journal"));
                write_synthetic_journal(
                    &path,
                    &config,
                    &pts,
                    Some(ShardSpec { index, count }),
                    &owned,
                );
                inputs.push(path);
            }
            let merged = root.join("merged.journal");
            let records = merge_sweep_journals(&inputs, &merged).unwrap();
            let at = format!("case {case}: {count} shards, {n_points} points, salt {salt}");
            assert_eq!(records, modules * n_points, "{at}");
            assert_eq!(
                fs::read(&merged).unwrap(),
                fs::read(&golden_path).unwrap(),
                "{at}"
            );
            let _ = fs::remove_dir_all(&root);
        }
    }

    /// Every record of the test sweep's 2 × 4 grid that `shard` owns.
    fn owned_records(shard: ShardSpec) -> Vec<JournalRecord> {
        let n_points = points().len();
        (0..2)
            .flat_map(|module| (0..n_points).map(move |point| (module, point)))
            .filter(|&(module, point)| {
                slot_shard(module, point, n_points, shard.count) == shard.index
            })
            .map(|(module, point)| JournalRecord {
                module,
                point,
                result: synthetic_result(module, point, 7),
            })
            .collect()
    }

    /// Resumes the test sweep over `dir`, keeping only the verdict.
    fn resume_verdict(
        config: &ExperimentConfig,
        dir: &Path,
        shard: Option<ShardSpec>,
    ) -> Result<(), CheckpointError> {
        open(config, dir, shard).map(|_| ())
    }

    /// Builds shard journals of the test sweep under `root` (shard 0
    /// gets `extra` on top of its own records) and merges them.
    fn merge_with_extra(root: &Path, extra: JournalRecord) -> Result<usize, CheckpointError> {
        let config = two_module_config();
        let inputs: Vec<PathBuf> = (0..2u32)
            .map(|index| {
                let shard = ShardSpec { index, count: 2 };
                let mut records = owned_records(shard);
                if index == 0 {
                    records.push(extra.clone());
                }
                let path = root.join(format!("shard-{index}.journal"));
                write_synthetic_journal(&path, &config, &points(), Some(shard), &records);
                path
            })
            .collect();
        merge_sweep_journals(&inputs, &root.join("merged.journal"))
    }

    #[test]
    fn a_record_outside_the_grid_is_corrupt_on_resume_and_in_merge() {
        // Shard 0 of 2 would own both slots (2 · 4 + 0 and 4 are even),
        // so only the grid check can refuse them.
        let config = two_module_config();
        for (module, point) in [(2usize, 0usize), (0, 4)] {
            let stray = JournalRecord {
                module,
                point,
                result: synthetic_result(module, point, 7),
            };
            let dir = scratch("stray-resume");
            let records = [
                owned_records(ShardSpec { index: 0, count: 1 }),
                vec![stray.clone()],
            ];
            write_synthetic_journal(
                &journal_path(&dir),
                &config,
                &points(),
                None,
                &records.concat(),
            );
            match resume_verdict(&config, &dir, None) {
                Err(CheckpointError::Corrupt { detail, .. }) => {
                    assert!(detail.contains("grid"), "{detail}")
                }
                other => {
                    panic!("slot ({module}, {point}) must be corrupt on resume, got {other:?}")
                }
            }
            let root = scratch("stray-merge");
            match merge_with_extra(&root, stray) {
                Err(CheckpointError::Corrupt { detail, .. }) => {
                    assert!(detail.contains("grid"), "{detail}")
                }
                other => {
                    panic!("slot ({module}, {point}) must be corrupt in a merge, got {other:?}")
                }
            }
            let _ = fs::remove_dir_all(&dir);
            let _ = fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn a_record_its_shard_does_not_own_is_corrupt_on_resume_and_in_merge() {
        // Slot (0, 1) is flattened slot 1: shard 1 of 2 owns it.
        let config = two_module_config();
        let shard = ShardSpec { index: 0, count: 2 };
        let foreign = JournalRecord {
            module: 0,
            point: 1,
            result: synthetic_result(0, 1, 7),
        };
        let dir = scratch("foreign-resume");
        let records = [owned_records(shard), vec![foreign.clone()]];
        write_synthetic_journal(
            &journal_path(&dir),
            &config,
            &points(),
            Some(shard),
            &records.concat(),
        );
        match resume_verdict(&config, &dir, Some(shard)) {
            Err(CheckpointError::Corrupt { detail, .. }) => {
                assert!(detail.contains("own"), "{detail}")
            }
            other => panic!("a foreign slot must be corrupt on resume, got {other:?}"),
        }
        let root = scratch("foreign-merge");
        match merge_with_extra(&root, foreign) {
            Err(CheckpointError::Corrupt { detail, .. }) => {
                assert!(detail.contains("own"), "{detail}")
            }
            other => panic!("a foreign slot must be corrupt in a merge, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&root);
    }
}
