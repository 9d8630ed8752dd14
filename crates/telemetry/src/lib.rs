//! # simra-telemetry
//!
//! Zero-cost-when-disabled observability for the SiMRA stack: counters,
//! histograms, and monotonic-timed spans, aggregated by a thread-safe
//! [`Recorder`] into per-`(module, name)` series.
//!
//! The paper's credibility rests on knowing exactly what every module did
//! under which timings; the fleet executor retries, backs off, injects
//! faults, and trips deadlines — none of which used to be observable from
//! outside. This crate makes the whole stack report what it did without
//! ever changing *what it computes*:
//!
//! * **Disabled by default, zero cost when disabled.** Every recording
//!   call first reads one relaxed [`AtomicBool`]; when telemetry is off,
//!   that single load-and-branch is the entire cost — no clock reads, no
//!   locks, no allocation. Scientific output (figure tables, scoreboard)
//!   is byte-identical whether telemetry is enabled, disabled, or absent,
//!   because instruments only ever *observe* the computation.
//! * **Deterministic aggregation.** Series live in `BTreeMap`s keyed by
//!   `(module, name)`, so snapshots enumerate in one stable order, and
//!   counter values depend only on the work performed — not on worker
//!   count or scheduling (asserted by `crates/characterize/tests/
//!   telemetry.rs` across 1/2/4 workers).
//! * **Versioned export.** [`Snapshot::to_json`] hand-renders the
//!   aggregate as schema-versioned JSON (no external dependencies), and
//!   [`Snapshot::summary`] renders a human table for `--metrics`.
//!
//! # Example
//!
//! ```
//! use simra_telemetry as telemetry;
//!
//! let recorder = telemetry::Recorder::new();
//! recorder.enable();
//! let ops = recorder.counter("engine", "sense_ops");
//! ops.add(3);
//! {
//!     let _span = recorder.span("figure", "fig3");
//!     // ... timed work ...
//! }
//! let snap = recorder.snapshot();
//! assert_eq!(snap.counters[0].value, 3);
//! assert_eq!(snap.spans[0].count, 1);
//! ```

#![forbid(unsafe_code)]

pub mod json;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Version stamp embedded in every serialized snapshot; bump when the
/// JSON layout changes shape.
pub const SCHEMA_VERSION: u32 = 1;

/// Series key: the emitting module (e.g. `"fleet"`, `"engine"`,
/// `"figure"`) and the series name within it.
type Key = (String, String);

#[derive(Debug, Clone, Copy)]
struct HistData {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for HistData {
    fn default() -> Self {
        HistData {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl HistData {
    fn observe(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct SpanData {
    count: u64,
    total_ms: f64,
    min_ms: f64,
    max_ms: f64,
}

impl SpanData {
    fn observe(&mut self, elapsed_ms: f64) {
        if self.count == 0 {
            self.min_ms = elapsed_ms;
            self.max_ms = elapsed_ms;
        } else {
            self.min_ms = self.min_ms.min(elapsed_ms);
            self.max_ms = self.max_ms.max(elapsed_ms);
        }
        self.count += 1;
        self.total_ms += elapsed_ms;
    }
}

#[derive(Default)]
struct RecorderInner {
    enabled: AtomicBool,
    counters: Mutex<BTreeMap<Key, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<Key, Arc<Mutex<HistData>>>>,
    spans: Mutex<BTreeMap<Key, Arc<Mutex<SpanData>>>>,
}

/// A thread-safe telemetry aggregator. Cloning is cheap (shared state).
/// Each campaign owns one (the `repro` binary builds its own and hands
/// it to its session); default constructors across the stack bind to a
/// fresh, disabled [`Recorder::new`].
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Arc<RecorderInner>,
}

impl Recorder {
    /// A fresh, disabled recorder with no registered series.
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Turns recording on.
    pub fn enable(&self) {
        self.inner.enabled.store(true, Ordering::Relaxed);
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Registers (or retrieves) the counter `module/name` and returns a
    /// handle. Registration is idempotent: every handle for the same key
    /// shares one cell. Registering while disabled is fine — the series
    /// appears in snapshots with value 0.
    pub fn counter(&self, module: &str, name: &str) -> Counter {
        let mut map = self.inner.counters.lock().expect("telemetry counters");
        let cell = map
            .entry((module.to_string(), name.to_string()))
            .or_default()
            .clone();
        Counter {
            recorder: self.inner.clone(),
            cell,
        }
    }

    /// Registers (or retrieves) the histogram `module/name`.
    pub fn histogram(&self, module: &str, name: &str) -> Histogram {
        let mut map = self.inner.histograms.lock().expect("telemetry histograms");
        let cell = map
            .entry((module.to_string(), name.to_string()))
            .or_default()
            .clone();
        Histogram {
            recorder: self.inner.clone(),
            cell,
        }
    }

    /// Starts a span over `module/name`. The returned guard measures
    /// monotonic wall-clock from now until drop and folds the elapsed
    /// time into the span's series. When the recorder is disabled the
    /// guard is inert: no clock is read and nothing is recorded at drop.
    pub fn span(&self, module: &str, name: &str) -> Span {
        if !self.is_enabled() {
            return Span { live: None };
        }
        let cell = {
            let mut map = self.inner.spans.lock().expect("telemetry spans");
            map.entry((module.to_string(), name.to_string()))
                .or_default()
                .clone()
        };
        Span {
            live: Some((cell, Instant::now())),
        }
    }

    /// Resets every registered series to its empty state (counters to 0,
    /// histograms and spans to no observations). Registrations survive,
    /// so snapshot shape is stable across resets.
    pub fn reset(&self) {
        for cell in self
            .inner
            .counters
            .lock()
            .expect("telemetry counters")
            .values()
        {
            cell.store(0, Ordering::Relaxed);
        }
        for cell in self
            .inner
            .histograms
            .lock()
            .expect("telemetry histograms")
            .values()
        {
            *cell.lock().expect("telemetry histogram cell") = HistData::default();
        }
        for cell in self.inner.spans.lock().expect("telemetry spans").values() {
            *cell.lock().expect("telemetry span cell") = SpanData::default();
        }
    }

    /// A point-in-time copy of every registered series, deterministically
    /// ordered by `(module, name)`.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .expect("telemetry counters")
            .iter()
            .map(|((module, name), cell)| CounterSnapshot {
                module: module.clone(),
                name: name.clone(),
                value: cell.load(Ordering::Relaxed),
            })
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .expect("telemetry histograms")
            .iter()
            .map(|((module, name), cell)| {
                let d = *cell.lock().expect("telemetry histogram cell");
                HistogramSnapshot {
                    module: module.clone(),
                    name: name.clone(),
                    count: d.count,
                    sum: d.sum,
                    min: d.min,
                    max: d.max,
                }
            })
            .collect();
        let spans = self
            .inner
            .spans
            .lock()
            .expect("telemetry spans")
            .iter()
            .map(|((module, name), cell)| {
                let d = *cell.lock().expect("telemetry span cell");
                SpanSnapshot {
                    module: module.clone(),
                    name: name.clone(),
                    count: d.count,
                    total_ms: d.total_ms,
                    min_ms: d.min_ms,
                    max_ms: d.max_ms,
                }
            })
            .collect();
        Snapshot {
            schema_version: SCHEMA_VERSION,
            enabled: self.is_enabled(),
            counters,
            histograms,
            spans,
        }
    }
}

/// Handle to one monotonically increasing counter series.
#[derive(Clone)]
pub struct Counter {
    recorder: Arc<RecorderInner>,
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `n` when the owning recorder is enabled; a single relaxed
    /// atomic load otherwise.
    pub fn add(&self, n: u64) {
        if self.recorder.enabled.load(Ordering::Relaxed) {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increments by one (see [`Counter::add`]).
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Handle to one histogram series (count / sum / min / max).
#[derive(Clone)]
pub struct Histogram {
    recorder: Arc<RecorderInner>,
    cell: Arc<Mutex<HistData>>,
}

impl Histogram {
    /// Folds `value` in when the owning recorder is enabled.
    pub fn observe(&self, value: f64) {
        if self.recorder.enabled.load(Ordering::Relaxed) {
            self.cell
                .lock()
                .expect("telemetry histogram cell")
                .observe(value);
        }
    }
}

/// RAII guard for one timed span; records on drop. Inert (no clock read,
/// nothing recorded) when the recorder was disabled at creation.
pub struct Span {
    live: Option<(Arc<Mutex<SpanData>>, Instant)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((cell, started)) = self.live.take() {
            let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
            cell.lock()
                .expect("telemetry span cell")
                .observe(elapsed_ms);
        }
    }
}

/// One counter series in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSnapshot {
    /// Emitting module.
    pub module: String,
    /// Series name.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// One histogram series in a snapshot. `min`/`max` are meaningless (and
/// serialized as `null`) while `count` is 0.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Emitting module.
    pub module: String,
    /// Series name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observed value (`+inf` when empty).
    pub min: f64,
    /// Largest observed value (`-inf` when empty).
    pub max: f64,
}

/// One span series in a snapshot (milliseconds of monotonic wall-clock).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSnapshot {
    /// Emitting module.
    pub module: String,
    /// Series name.
    pub name: String,
    /// Number of completed spans.
    pub count: u64,
    /// Total elapsed across all spans (ms).
    pub total_ms: f64,
    /// Shortest span (ms); 0 when `count` is 0.
    pub min_ms: f64,
    /// Longest span (ms); 0 when `count` is 0.
    pub max_ms: f64,
}

/// Why a snapshot document was rejected by [`Snapshot::parse`].
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The input is not well-formed JSON.
    Json(json::ParseError),
    /// The document's schema version is not the one this build writes.
    SchemaVersion {
        /// Version found in the document.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// A required member is missing or has the wrong type.
    Field {
        /// Name of the offending member.
        field: String,
        /// What was expected.
        detail: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Json(e) => write!(f, "telemetry snapshot: {e}"),
            SnapshotError::SchemaVersion { found, expected } => write!(
                f,
                "telemetry snapshot schema version {found} (this build reads version {expected})"
            ),
            SnapshotError::Field { field, detail } => {
                write!(f, "telemetry snapshot field '{field}': {detail}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<json::ParseError> for SnapshotError {
    fn from(e: json::ParseError) -> Self {
        SnapshotError::Json(e)
    }
}

fn snapshot_field_error(field: &str, detail: &str) -> SnapshotError {
    SnapshotError::Field {
        field: field.into(),
        detail: detail.into(),
    }
}

/// A deterministic point-in-time copy of a recorder's series.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Value of [`SCHEMA_VERSION`] at capture.
    pub schema_version: u32,
    /// Whether the recorder was enabled at capture.
    pub enabled: bool,
    /// All counter series, ordered by `(module, name)`.
    pub counters: Vec<CounterSnapshot>,
    /// All histogram series, ordered by `(module, name)`.
    pub histograms: Vec<HistogramSnapshot>,
    /// All span series, ordered by `(module, name)`.
    pub spans: Vec<SpanSnapshot>,
}

impl Snapshot {
    /// Renders the snapshot as schema-versioned JSON. Non-finite floats
    /// (empty-histogram min/max) become `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(&format!(
            "{{\"schema_version\":{},\"enabled\":{},\"counters\":[",
            self.schema_version, self.enabled
        ));
        for (i, c) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"module\":{},\"name\":{},\"value\":{}}}",
                json::quote(&c.module),
                json::quote(&c.name),
                c.value
            ));
        }
        out.push_str("],\"histograms\":[");
        for (i, h) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"module\":{},\"name\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{}}}",
                json::quote(&h.module),
                json::quote(&h.name),
                h.count,
                json::number(h.sum),
                json::number(h.min),
                json::number(h.max)
            ));
        }
        out.push_str("],\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"module\":{},\"name\":{},\"count\":{},\"total_ms\":{},\"min_ms\":{},\"max_ms\":{}}}",
                json::quote(&s.module),
                json::quote(&s.name),
                s.count,
                json::number(s.total_ms),
                json::number(s.min_ms),
                json::number(s.max_ms)
            ));
        }
        out.push_str("]}");
        out
    }

    /// Parses a snapshot rendered by [`Snapshot::to_json`]. `null`
    /// histogram bounds (the empty-series rendering) are restored to the
    /// in-memory `+inf`/`-inf` neutral elements, so parse∘render is the
    /// identity on snapshots this build writes. Unknown schema versions
    /// and malformed members are typed errors, never panics.
    pub fn parse(input: &str) -> Result<Snapshot, SnapshotError> {
        let doc = json::Value::parse(input)?;
        let version = doc
            .get("schema_version")
            .and_then(json::Value::as_u32)
            .ok_or_else(|| snapshot_field_error("schema_version", "expected a u32"))?;
        if version != SCHEMA_VERSION {
            return Err(SnapshotError::SchemaVersion {
                found: version,
                expected: SCHEMA_VERSION,
            });
        }
        let enabled = doc
            .get("enabled")
            .and_then(json::Value::as_bool)
            .ok_or_else(|| snapshot_field_error("enabled", "expected a bool"))?;
        let series = |node: &json::Value, member: &str| -> Result<String, SnapshotError> {
            node.get(member)
                .and_then(json::Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| snapshot_field_error(member, "expected a string"))
        };
        let count_of = |node: &json::Value| -> Result<u64, SnapshotError> {
            node.get("count")
                .and_then(json::Value::as_u64)
                .ok_or_else(|| snapshot_field_error("count", "expected a u64"))
        };
        // `null` (non-finite at render time) maps back to the stated
        // neutral element; anything else must be a number.
        let float_or =
            |node: &json::Value, member: &str, empty: f64| -> Result<f64, SnapshotError> {
                match node.get(member) {
                    Some(json::Value::Null) => Ok(empty),
                    Some(v) => v
                        .as_f64()
                        .ok_or_else(|| snapshot_field_error(member, "expected a number or null")),
                    None => Err(snapshot_field_error(member, "expected a number or null")),
                }
            };
        let list = |member: &str| -> Result<&[json::Value], SnapshotError> {
            doc.get(member)
                .and_then(json::Value::as_array)
                .ok_or_else(|| snapshot_field_error(member, "expected an array"))
        };
        let counters = list("counters")?
            .iter()
            .map(|c| {
                Ok(CounterSnapshot {
                    module: series(c, "module")?,
                    name: series(c, "name")?,
                    value: c
                        .get("value")
                        .and_then(json::Value::as_u64)
                        .ok_or_else(|| snapshot_field_error("value", "expected a u64"))?,
                })
            })
            .collect::<Result<Vec<_>, SnapshotError>>()?;
        let histograms = list("histograms")?
            .iter()
            .map(|h| {
                Ok(HistogramSnapshot {
                    module: series(h, "module")?,
                    name: series(h, "name")?,
                    count: count_of(h)?,
                    sum: float_or(h, "sum", 0.0)?,
                    min: float_or(h, "min", f64::INFINITY)?,
                    max: float_or(h, "max", f64::NEG_INFINITY)?,
                })
            })
            .collect::<Result<Vec<_>, SnapshotError>>()?;
        let spans = list("spans")?
            .iter()
            .map(|s| {
                Ok(SpanSnapshot {
                    module: series(s, "module")?,
                    name: series(s, "name")?,
                    count: count_of(s)?,
                    total_ms: float_or(s, "total_ms", 0.0)?,
                    min_ms: float_or(s, "min_ms", 0.0)?,
                    max_ms: float_or(s, "max_ms", 0.0)?,
                })
            })
            .collect::<Result<Vec<_>, SnapshotError>>()?;
        Ok(Snapshot {
            schema_version: version,
            enabled,
            counters,
            histograms,
            spans,
        })
    }

    /// Merges snapshots from independent processes (e.g. shard workers)
    /// into one, as if a single recorder had observed all the work:
    /// counters sum, histogram bounds take the min/max across inputs
    /// (with the `±inf` neutral elements for empty series), spans sum
    /// counts and totals while ignoring the `0` min/max placeholders of
    /// never-observed series. Series are keyed by `(module, name)`
    /// through `BTreeMap`s, so the output ordering is deterministic and
    /// independent of input order — merging the same set of snapshots in
    /// any order renders byte-identical JSON. `enabled` is the OR of the
    /// inputs; the schema version is this build's.
    pub fn merge_all(snapshots: &[Snapshot]) -> Snapshot {
        let mut counters: BTreeMap<(String, String), u64> = BTreeMap::new();
        let mut histograms: BTreeMap<(String, String), HistData> = BTreeMap::new();
        let mut spans: BTreeMap<(String, String), SpanData> = BTreeMap::new();
        let mut enabled = false;
        for snap in snapshots {
            enabled |= snap.enabled;
            for c in &snap.counters {
                *counters
                    .entry((c.module.clone(), c.name.clone()))
                    .or_insert(0) += c.value;
            }
            for h in &snap.histograms {
                let cell = histograms
                    .entry((h.module.clone(), h.name.clone()))
                    .or_default();
                cell.count += h.count;
                cell.sum += h.sum;
                cell.min = cell.min.min(h.min);
                cell.max = cell.max.max(h.max);
            }
            for s in &snap.spans {
                let cell = spans.entry((s.module.clone(), s.name.clone())).or_default();
                if s.count > 0 {
                    // A zero-count span's min/max are 0 placeholders,
                    // not observations — fold in only observed spans.
                    cell.min_ms = if cell.count == 0 {
                        s.min_ms
                    } else {
                        cell.min_ms.min(s.min_ms)
                    };
                    cell.max_ms = cell.max_ms.max(s.max_ms);
                    cell.count += s.count;
                    cell.total_ms += s.total_ms;
                }
            }
        }
        Snapshot {
            schema_version: SCHEMA_VERSION,
            enabled,
            counters: counters
                .into_iter()
                .map(|((module, name), value)| CounterSnapshot {
                    module,
                    name,
                    value,
                })
                .collect(),
            histograms: histograms
                .into_iter()
                .map(|((module, name), h)| HistogramSnapshot {
                    module,
                    name,
                    count: h.count,
                    sum: h.sum,
                    min: h.min,
                    max: h.max,
                })
                .collect(),
            spans: spans
                .into_iter()
                .map(|((module, name), s)| SpanSnapshot {
                    module,
                    name,
                    count: s.count,
                    total_ms: s.total_ms,
                    min_ms: s.min_ms,
                    max_ms: s.max_ms,
                })
                .collect(),
        }
    }

    /// Renders a human summary table (the `--metrics` stderr output).
    pub fn summary(&self) -> String {
        let mut out = format!(
            "== telemetry summary (schema v{}) ==\n",
            self.schema_version
        );
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for c in &self.counters {
                out.push_str(&format!(
                    "  {:<40} {:>12}\n",
                    format!("{}/{}", c.module, c.name),
                    c.value
                ));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for h in &self.histograms {
                if h.count == 0 {
                    out.push_str(&format!(
                        "  {:<40} {:>12}\n",
                        format!("{}/{}", h.module, h.name),
                        "empty"
                    ));
                } else {
                    out.push_str(&format!(
                        "  {:<40} count {:>6}  sum {:.3}  min {:.3}  max {:.3}\n",
                        format!("{}/{}", h.module, h.name),
                        h.count,
                        h.sum,
                        h.min,
                        h.max
                    ));
                }
            }
        }
        if !self.spans.is_empty() {
            out.push_str("spans:\n");
            for s in &self.spans {
                out.push_str(&format!(
                    "  {:<40} count {:>6}  total {:.3} ms  (min {:.3}, max {:.3})\n",
                    format!("{}/{}", s.module, s.name),
                    s.count,
                    s.total_ms,
                    s.min_ms,
                    s.max_ms
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::new();
        let c = r.counter("m", "c");
        c.add(5);
        let h = r.histogram("m", "h");
        h.observe(1.0);
        drop(r.span("m", "s"));
        let snap = r.snapshot();
        assert!(!snap.enabled);
        assert_eq!(snap.counters[0].value, 0);
        assert_eq!(snap.histograms[0].count, 0);
        assert_eq!(snap.spans.len(), 0, "disabled spans do not even register");
    }

    #[test]
    fn enabled_recorder_aggregates() {
        let r = Recorder::new();
        r.enable();
        let c = r.counter("m", "c");
        c.add(2);
        c.incr();
        assert_eq!(c.get(), 3);
        let h = r.histogram("m", "h");
        h.observe(10.0);
        h.observe(40.0);
        drop(r.span("m", "s"));
        let snap = r.snapshot();
        assert!(snap.enabled);
        assert_eq!(snap.counters[0].value, 3);
        assert_eq!(snap.histograms[0].count, 2);
        assert_eq!(snap.histograms[0].sum, 50.0);
        assert_eq!(snap.histograms[0].min, 10.0);
        assert_eq!(snap.histograms[0].max, 40.0);
        assert_eq!(snap.spans[0].count, 1);
        assert!(snap.spans[0].total_ms >= 0.0);
    }

    #[test]
    fn handles_share_one_cell_and_reset_preserves_registration() {
        let r = Recorder::new();
        r.enable();
        let a = r.counter("m", "c");
        let b = r.counter("m", "c");
        a.add(1);
        b.add(1);
        assert_eq!(a.get(), 2);
        r.reset();
        assert_eq!(a.get(), 0);
        let snap = r.snapshot();
        assert_eq!(snap.counters.len(), 1, "registration survives reset");
    }

    #[test]
    fn snapshot_order_is_deterministic() {
        let r = Recorder::new();
        r.enable();
        r.counter("z", "last").incr();
        r.counter("a", "first").incr();
        r.counter("a", "second").incr();
        let keys: Vec<String> = r
            .snapshot()
            .counters
            .iter()
            .map(|c| format!("{}/{}", c.module, c.name))
            .collect();
        assert_eq!(keys, vec!["a/first", "a/second", "z/last"]);
    }

    #[test]
    fn counters_sum_across_threads() {
        let r = Recorder::new();
        r.enable();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = r.counter("m", "c");
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(r.counter("m", "c").get(), 4000);
    }

    #[test]
    fn json_is_versioned_and_null_safe() {
        let r = Recorder::new();
        r.enable();
        r.counter("fleet", "task_started").add(7);
        r.histogram("fleet", "backoff_ms"); // registered, never observed
        let js = r.snapshot().to_json();
        assert!(js.starts_with("{\"schema_version\":1,\"enabled\":true"));
        assert!(js.contains("\"value\":7"));
        assert!(
            js.contains("\"min\":null"),
            "empty histogram min must serialize as null: {js}"
        );
        assert!(!js.contains("inf"), "no non-finite literals in JSON: {js}");
    }

    #[test]
    fn summary_lists_every_series() {
        let r = Recorder::new();
        r.enable();
        r.counter("engine", "sense_ops").add(9);
        r.histogram("fleet", "backoff_ms").observe(10.0);
        drop(r.span("figure", "fig3"));
        let s = r.snapshot().summary();
        assert!(s.contains("engine/sense_ops"));
        assert!(s.contains("fleet/backoff_ms"));
        assert!(s.contains("figure/fig3"));
    }

    fn busy_snapshot() -> Snapshot {
        let r = Recorder::new();
        r.enable();
        r.counter("fleet", "task_completed").add(7);
        r.counter("engine", "sense_ops").add(3);
        r.histogram("fleet", "backoff_ms").observe(10.0);
        r.histogram("fleet", "backoff_ms").observe(40.0);
        r.histogram("fleet", "attempts"); // registered, stays empty
        drop(r.span("figure", "fig3"));
        r.snapshot()
    }

    #[test]
    fn snapshot_json_round_trips() {
        let snap = busy_snapshot();
        let parsed = Snapshot::parse(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap, "parse ∘ render is the identity");
        assert_eq!(parsed.to_json(), snap.to_json(), "render is canonical");
    }

    #[test]
    fn empty_histogram_bounds_survive_the_null_rendering() {
        let r = Recorder::new();
        r.enable();
        r.histogram("fleet", "attempts");
        let snap = r.snapshot();
        let json = snap.to_json();
        assert!(json.contains("\"min\":null,\"max\":null"), "{json}");
        let parsed = Snapshot::parse(&json).unwrap();
        assert_eq!(parsed.histograms[0].min, f64::INFINITY);
        assert_eq!(parsed.histograms[0].max, f64::NEG_INFINITY);
    }

    #[test]
    fn parse_rejects_malformed_documents_with_typed_errors() {
        assert!(matches!(Snapshot::parse("{]"), Err(SnapshotError::Json(_))));
        assert!(matches!(
            Snapshot::parse("{\"schema_version\":99,\"enabled\":true,\"counters\":[],\"histograms\":[],\"spans\":[]}"),
            Err(SnapshotError::SchemaVersion { found: 99, .. })
        ));
        assert!(matches!(
            Snapshot::parse("{\"schema_version\":1,\"enabled\":true}"),
            Err(SnapshotError::Field { .. })
        ));
    }

    #[test]
    fn merge_sums_counters_and_folds_bounds() {
        let a = Recorder::new();
        a.enable();
        a.counter("fleet", "task_completed").add(2);
        a.histogram("fleet", "backoff_ms").observe(10.0);
        drop(a.span("figure", "fig3"));
        let b = Recorder::new();
        b.enable();
        b.counter("fleet", "task_completed").add(5);
        b.counter("fleet", "task_failed").add(1);
        b.histogram("fleet", "backoff_ms").observe(40.0);
        b.histogram("fleet", "attempts"); // registered, stays empty
        let mut snap_b = b.snapshot();
        // A registered-but-never-observed span: count 0 with the 0.0
        // min/max placeholders.
        snap_b.spans.push(SpanSnapshot {
            module: "figure".into(),
            name: "fig3".into(),
            count: 0,
            total_ms: 0.0,
            min_ms: 0.0,
            max_ms: 0.0,
        });
        let merged = Snapshot::merge_all(&[a.snapshot(), snap_b]);
        let counter = |name: &str| {
            merged
                .counters
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.value)
        };
        assert_eq!(counter("task_completed"), Some(7));
        assert_eq!(counter("task_failed"), Some(1));
        let h = merged
            .histograms
            .iter()
            .find(|h| h.name == "backoff_ms")
            .unwrap();
        assert_eq!((h.count, h.sum, h.min, h.max), (2, 50.0, 10.0, 40.0));
        let empty = merged
            .histograms
            .iter()
            .find(|h| h.name == "attempts")
            .unwrap();
        assert_eq!(empty.count, 0);
        assert_eq!(empty.min, f64::INFINITY);
        let span = merged.spans.iter().find(|s| s.name == "fig3").unwrap();
        assert_eq!(span.count, 1, "zero-count span contributes nothing");
        assert!(span.min_ms >= 0.0 && span.max_ms >= span.min_ms);
        assert!(merged.enabled);
    }

    #[test]
    fn merge_output_is_independent_of_input_order() {
        let a = busy_snapshot();
        let mut b = busy_snapshot();
        b.counters.retain(|c| c.module == "fleet");
        let ab = Snapshot::merge_all(&[a.clone(), b.clone()]);
        let ba = Snapshot::merge_all(&[b, a]);
        assert_eq!(ab, ba);
        assert_eq!(ab.to_json(), ba.to_json(), "deterministic rendering");
        let keys: Vec<_> = ab
            .counters
            .iter()
            .map(|c| (c.module.clone(), c.name.clone()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "BTreeMap ordering preserved");
    }
}
