//! Serializable sweep manifests.
//!
//! A [`SweepManifest`] pins down everything that determines a sweep's
//! results — the experiment seed, the backend, the exact fault plan
//! (embedded as its canonical JSON), a digest of the full experiment
//! configuration, and the ordered point list — so a checkpointed run
//! can later *prove* it is resuming the same sweep and refuse anything
//! else with a typed error. It lives here, next to [`TrialSpec`],
//! because it describes execution inputs, not the characterize crate's
//! scheduling machinery.
//!
//! The JSON schema is versioned ([`SWEEP_MANIFEST_SCHEMA_VERSION`]) and
//! follows the `simra-telemetry` conventions: shortest round-trip
//! floats, `u64` values as plain integers, deterministic member order.
//!
//! [`TrialSpec`]: crate::TrialSpec

use simra_telemetry::json::{self, Value};

/// Schema version written and required by [`SweepManifest`].
pub const SWEEP_MANIFEST_SCHEMA_VERSION: u32 = 1;

/// FNV-1a 64-bit digest of a string. Stable across runs of the same
/// build (the checkpoint layer digests `Debug` renderings, which are
/// deterministic), cheap, and dependency-free. Not cryptographic — it
/// guards against *accidental* mismatches, not adversaries.
pub fn stable_digest(s: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in s.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// One sweep point as the manifest records it: the row count plus a
/// digest of the point's figure-specific parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointDigest {
    /// Rows activated simultaneously at this point.
    pub n: u32,
    /// [`stable_digest`] of the parameters' `Debug` rendering.
    pub params_digest: u64,
}

/// Which shard of a multi-process sweep a journal belongs to. A shard
/// worker owns every `(module, point)` slot whose flattened index is
/// congruent to `index` modulo `count`; the coordinator merges the
/// `count` per-shard journals back into one. Absent (`None` on
/// [`SweepManifest::shard`]) for single-process sweeps — the field is
/// then omitted from the JSON, so unsharded manifests render exactly as
/// they did before sharding existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This shard's index in `0..count`.
    pub index: u32,
    /// Total number of shards the grid was split into.
    pub count: u32,
}

impl std::fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Everything that determines a sweep's results, in serializable form.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepManifest {
    /// Schema version of this document.
    pub schema_version: u32,
    /// Identifier of the sweep within its checkpoint session (sweeps
    /// are numbered in issue order, which is deterministic).
    pub sweep_id: String,
    /// Experiment RNG seed.
    pub seed: u64,
    /// Backend name (`"analog"` / `"surrogate"`).
    pub backend: String,
    /// The fault plan's canonical JSON (`FaultPlan::to_json`; the empty
    /// plan for fault-free runs).
    pub faults: String,
    /// [`stable_digest`] of the full experiment configuration's `Debug`
    /// rendering — covers module fleet, scale knobs, and anything a
    /// future config field adds.
    pub config_digest: u64,
    /// Number of modules in the fleet.
    pub modules: usize,
    /// The ordered point list.
    pub points: Vec<PointDigest>,
    /// Which shard of a multi-process run this manifest describes;
    /// `None` for single-process sweeps (and omitted from the JSON, so
    /// unsharded documents are unchanged from schema v1 as first
    /// shipped).
    pub shard: Option<ShardSpec>,
}

/// Why a manifest document was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ManifestError {
    /// The input is not well-formed JSON.
    Json(json::ParseError),
    /// The document's schema version is not the one this build writes.
    SchemaVersion {
        /// Version found in the document.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// A required field is missing or has the wrong type.
    Field {
        /// Name of the offending field.
        field: String,
        /// What was expected.
        detail: String,
    },
}

impl std::fmt::Display for ManifestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManifestError::Json(e) => write!(f, "sweep manifest: {e}"),
            ManifestError::SchemaVersion { found, expected } => write!(
                f,
                "sweep manifest schema version {found} (this build reads version {expected})"
            ),
            ManifestError::Field { field, detail } => {
                write!(f, "sweep manifest field '{field}': {detail}")
            }
        }
    }
}

impl std::error::Error for ManifestError {}

impl From<json::ParseError> for ManifestError {
    fn from(e: json::ParseError) -> Self {
        ManifestError::Json(e)
    }
}

fn field_error(field: &str, detail: &str) -> ManifestError {
    ManifestError::Field {
        field: field.into(),
        detail: detail.into(),
    }
}

impl SweepManifest {
    /// Renders the manifest as one-line JSON.
    pub fn to_json(&self) -> String {
        let points = json::array(
            self.points
                .iter()
                .map(|p| format!("{{\"n\":{},\"params_digest\":{}}}", p.n, p.params_digest)),
        );
        let shard = match self.shard {
            None => String::new(),
            Some(s) => format!(",\"shard\":{{\"index\":{},\"count\":{}}}", s.index, s.count),
        };
        format!(
            "{{\"schema_version\":{},\"sweep_id\":{},\"seed\":{},\"backend\":{},\
             \"faults\":{},\"config_digest\":{},\"modules\":{},\"points\":{}{}}}",
            self.schema_version,
            json::quote(&self.sweep_id),
            self.seed,
            json::quote(&self.backend),
            json::quote(&self.faults),
            self.config_digest,
            self.modules,
            points,
            shard,
        )
    }

    /// Parses a manifest rendered by [`SweepManifest::to_json`].
    /// Unknown schema versions and malformed fields are typed errors,
    /// never panics.
    pub fn from_json(input: &str) -> Result<SweepManifest, ManifestError> {
        let doc = Value::parse(input)?;
        let version = doc
            .get("schema_version")
            .and_then(Value::as_u32)
            .ok_or_else(|| field_error("schema_version", "expected an unsigned integer"))?;
        if version != SWEEP_MANIFEST_SCHEMA_VERSION {
            return Err(ManifestError::SchemaVersion {
                found: version,
                expected: SWEEP_MANIFEST_SCHEMA_VERSION,
            });
        }
        let str_field = |field: &str| -> Result<String, ManifestError> {
            doc.get(field)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| field_error(field, "expected a string"))
        };
        let u64_field = |field: &str| -> Result<u64, ManifestError> {
            doc.get(field)
                .and_then(Value::as_u64)
                .ok_or_else(|| field_error(field, "expected an unsigned integer"))
        };
        let points =
            doc.get("points")
                .and_then(Value::as_array)
                .ok_or_else(|| field_error("points", "expected an array"))?
                .iter()
                .map(|p| {
                    Ok(PointDigest {
                        n: p.get("n")
                            .and_then(Value::as_u32)
                            .ok_or_else(|| field_error("points[].n", "expected a u32"))?,
                        params_digest: p.get("params_digest").and_then(Value::as_u64).ok_or_else(
                            || field_error("points[].params_digest", "expected a u64"),
                        )?,
                    })
                })
                .collect::<Result<Vec<_>, ManifestError>>()?;
        let shard = match doc.get("shard") {
            None => None,
            Some(node) => {
                let index = node
                    .get("index")
                    .and_then(Value::as_u32)
                    .ok_or_else(|| field_error("shard.index", "expected a u32"))?;
                let count = node
                    .get("count")
                    .and_then(Value::as_u32)
                    .ok_or_else(|| field_error("shard.count", "expected a u32"))?;
                if count == 0 || index >= count {
                    return Err(field_error("shard", "expected index < count and count > 0"));
                }
                Some(ShardSpec { index, count })
            }
        };
        Ok(SweepManifest {
            schema_version: version,
            sweep_id: str_field("sweep_id")?,
            seed: u64_field("seed")?,
            backend: str_field("backend")?,
            faults: str_field("faults")?,
            config_digest: u64_field("config_digest")?,
            modules: doc
                .get("modules")
                .and_then(Value::as_usize)
                .ok_or_else(|| field_error("modules", "expected an unsigned integer"))?,
            points,
            shard,
        })
    }

    /// The first field on which `self` (the manifest on disk) differs
    /// from `current` (the manifest of the sweep about to run), with
    /// both renderings — `None` when they match. Schema version is
    /// checked at parse time; this compares the execution inputs. Point
    /// lists of different lengths render as their counts; equal-length
    /// lists render the first differing point on both sides.
    pub fn mismatch(&self, current: &SweepManifest) -> Option<(&'static str, String, String)> {
        if self.sweep_id != current.sweep_id {
            return Some(("sweep_id", self.sweep_id.clone(), current.sweep_id.clone()));
        }
        if self.seed != current.seed {
            return Some(("seed", self.seed.to_string(), current.seed.to_string()));
        }
        if self.backend != current.backend {
            return Some(("backend", self.backend.clone(), current.backend.clone()));
        }
        if self.faults != current.faults {
            return Some(("faults", self.faults.clone(), current.faults.clone()));
        }
        if self.config_digest != current.config_digest {
            return Some((
                "config_digest",
                format!("{:#018x}", self.config_digest),
                format!("{:#018x}", current.config_digest),
            ));
        }
        if self.modules != current.modules {
            return Some((
                "modules",
                self.modules.to_string(),
                current.modules.to_string(),
            ));
        }
        if self.points.len() != current.points.len() {
            return Some((
                "points",
                format!("{} point(s)", self.points.len()),
                format!("{} point(s)", current.points.len()),
            ));
        }
        let differing = self
            .points
            .iter()
            .zip(&current.points)
            .position(|(a, b)| a != b);
        if let Some(i) = differing {
            let render = |p: PointDigest| {
                format!(
                    "point {i} (n={}, params_digest={:#018x})",
                    p.n, p.params_digest
                )
            };
            return Some(("points", render(self.points[i]), render(current.points[i])));
        }
        if self.shard != current.shard {
            let render =
                |s: Option<ShardSpec>| s.map_or_else(|| "unsharded".into(), |s| s.to_string());
            return Some(("shard", render(self.shard), render(current.shard)));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SweepManifest {
        SweepManifest {
            schema_version: SWEEP_MANIFEST_SCHEMA_VERSION,
            sweep_id: "sweep-0004".into(),
            seed: 0xD5A,
            backend: "analog".into(),
            faults: "{\"schema_version\":1,\"seed\":0}".into(),
            config_digest: stable_digest("config"),
            modules: 4,
            points: vec![
                PointDigest {
                    n: 2,
                    params_digest: stable_digest("a"),
                },
                PointDigest {
                    n: 64,
                    params_digest: stable_digest("b"),
                },
            ],
            shard: None,
        }
    }

    #[test]
    fn manifest_round_trips() {
        let m = sample();
        let parsed = SweepManifest::from_json(&m.to_json()).unwrap();
        assert_eq!(parsed, m);
        assert_eq!(parsed.to_json(), m.to_json(), "render is canonical");
        assert_eq!(m.mismatch(&parsed), None);
    }

    #[test]
    fn digest_is_stable_and_spreads() {
        assert_eq!(stable_digest("abc"), stable_digest("abc"));
        assert_ne!(stable_digest("abc"), stable_digest("abd"));
        assert_ne!(stable_digest(""), stable_digest("\0"));
    }

    #[test]
    fn mismatches_name_the_first_differing_field() {
        let m = sample();
        let mut other = m.clone();
        other.seed ^= 1;
        assert_eq!(m.mismatch(&other).unwrap().0, "seed");
        let mut other = m.clone();
        other.backend = "surrogate".into();
        assert_eq!(m.mismatch(&other).unwrap().0, "backend");
        let mut other = m.clone();
        other.points.pop();
        assert_eq!(m.mismatch(&other).unwrap().0, "points");
    }

    #[test]
    fn point_mismatches_name_the_differing_point() {
        let m = sample();
        let mut shorter = m.clone();
        shorter.points.pop();
        let (_, on_disk, current) = m.mismatch(&shorter).unwrap();
        assert_eq!(
            (on_disk.as_str(), current.as_str()),
            ("2 point(s)", "1 point(s)")
        );

        let mut other = m.clone();
        other.points[1].params_digest ^= 0xFF;
        let (field, on_disk, current) = m.mismatch(&other).unwrap();
        assert_eq!(field, "points");
        assert_ne!(on_disk, current, "equal-length lists must not render alike");
        for side in [&on_disk, &current] {
            assert!(
                side.starts_with("point 1 (n=64, params_digest=0x"),
                "{side}"
            );
        }
    }

    #[test]
    fn unsharded_render_omits_the_shard_member() {
        let json = sample().to_json();
        assert!(!json.contains("shard"), "unsharded JSON unchanged: {json}");
    }

    #[test]
    fn sharded_manifest_round_trips() {
        let mut m = sample();
        m.shard = Some(ShardSpec { index: 1, count: 4 });
        let json = m.to_json();
        assert!(
            json.ends_with(",\"shard\":{\"index\":1,\"count\":4}}"),
            "{json}"
        );
        let parsed = SweepManifest::from_json(&json).unwrap();
        assert_eq!(parsed, m);
        assert_eq!(parsed.to_json(), json, "render is canonical");
    }

    #[test]
    fn shard_mismatch_is_diagnosed() {
        let unsharded = sample();
        let mut sharded = sample();
        sharded.shard = Some(ShardSpec { index: 2, count: 4 });
        let (field, on_disk, current) = unsharded.mismatch(&sharded).unwrap();
        assert_eq!(field, "shard");
        assert_eq!(on_disk, "unsharded");
        assert_eq!(current, "2/4");
        let mut other = sharded.clone();
        other.shard = Some(ShardSpec { index: 3, count: 4 });
        assert_eq!(sharded.mismatch(&other).unwrap().0, "shard");
        assert_eq!(sharded.mismatch(&sharded.clone()), None);
    }

    #[test]
    fn degenerate_shard_specs_are_rejected() {
        let mut m = sample();
        m.shard = Some(ShardSpec { index: 4, count: 4 });
        assert!(matches!(
            SweepManifest::from_json(&m.to_json()),
            Err(ManifestError::Field { .. })
        ));
        m.shard = Some(ShardSpec { index: 0, count: 0 });
        assert!(matches!(
            SweepManifest::from_json(&m.to_json()),
            Err(ManifestError::Field { .. })
        ));
    }

    #[test]
    fn stale_schema_version_is_a_typed_error() {
        let doc = sample()
            .to_json()
            .replacen("\"schema_version\":1", "\"schema_version\":99", 1);
        assert!(matches!(
            SweepManifest::from_json(&doc),
            Err(ManifestError::SchemaVersion {
                found: 99,
                expected: SWEEP_MANIFEST_SCHEMA_VERSION
            })
        ));
        assert!(matches!(
            SweepManifest::from_json("{]"),
            Err(ManifestError::Json(_))
        ));
        assert!(matches!(
            SweepManifest::from_json("{\"schema_version\":1}"),
            Err(ManifestError::Field { .. })
        ));
    }
}
