//! # simra-faults
//!
//! Deterministic, seed-driven fault plans for the characterization
//! fleet. A [`FaultPlan`] bundles everything that can go wrong during a
//! sweep:
//!
//! * **cell-level defects** ([`CellFaultSpec`], re-exported from
//!   `simra_dram::faults`) — stuck-at-0/1 cells, weak cells with elevated
//!   retention leakage, per-subarray sense-amplifier offset drift;
//! * **module-level events** ([`ModuleFault`]) — a module that drops out,
//!   panics the harness, or hangs at a chosen task index;
//! * **supply events** ([`VppDroop`]) — the wordline supply sagging over
//!   a window of row groups;
//! * **a per-task deadline** — the wall-clock budget the hardened fleet
//!   executor enforces between groups.
//!
//! Everything is a pure function of the plan (plus, for cell defects,
//! each subarray's silicon seed): fault draws come from a dedicated RNG
//! stream, so an *empty* plan leaves every experiment byte-identical to
//! the fault-free baseline — the executor's golden tests rely on it.
//!
//! Plans serialize to versioned JSON ([`FaultPlan::to_json`] /
//! [`FaultPlan::from_json`], schema [`FAULT_PLAN_SCHEMA_VERSION`])
//! following the `simra-telemetry` JSON conventions, so a sweep
//! checkpoint manifest can embed the exact plan it ran under and a
//! resumed run can prove it is applying byte-identical faults.

#![forbid(unsafe_code)]

use simra_telemetry::json::{self, Value};

pub use simra_dram::faults::{CellFaultSpec, SubarrayFaults};

/// What a module-level fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModuleFaultKind {
    /// The module stops responding at the given group index. With
    /// `recover_after_attempts: Some(k)`, retries after the `k`-th
    /// attempt succeed (a transient seating/contact fault); with `None`
    /// the dropout is permanent and the executor eventually gives the
    /// slot up as failed.
    Dropout {
        /// Group index at which the module goes silent.
        at_group: usize,
        /// Number of attempts after which the fault heals (`None` =
        /// permanent).
        recover_after_attempts: Option<u32>,
    },
    /// The harness thread panics at the given group index on the first
    /// attempt only — exercises the executor's panic isolation and its
    /// retry path (the retry completes normally).
    PanicAt {
        /// Group index at which the panic fires.
        at_group: usize,
    },
    /// The module stalls for `stall_ms` at the given group index, on
    /// every attempt. The stall is *charged* against the task's deadline
    /// budget rather than slept, so hang handling stays deterministic
    /// across machines and thread counts.
    Hang {
        /// Group index at which the stall occurs.
        at_group: usize,
        /// Stall duration charged to the deadline budget (ms).
        stall_ms: f64,
    },
}

/// A module-level fault bound to one fleet slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModuleFault {
    /// Index of the module in `ExperimentConfig::modules`.
    pub module_index: usize,
    /// What happens.
    pub kind: ModuleFaultKind,
}

/// A V_PP droop episode: the wordline supply sags by `delta_v` volts
/// while groups in `[from_group, to_group)` execute, recovering to
/// nominal outside the window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VppDroop {
    /// Sag below nominal V_PP (volts, positive).
    pub delta_v: f64,
    /// First group index inside the droop window.
    pub from_group: usize,
    /// First group index past the droop window.
    pub to_group: usize,
}

/// A complete, deterministic fault-injection plan.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Base seed of the plan (folded into every cell-defect stream).
    pub seed: u64,
    /// Cell-level defect densities, applied to every module.
    pub cells: Option<CellFaultSpec>,
    /// Module-level fault events.
    pub modules: Vec<ModuleFault>,
    /// Optional supply droop episode.
    pub vpp_droop: Option<VppDroop>,
    /// Per-module-task wall-clock budget (ms), enforced between groups.
    pub deadline_ms: Option<f64>,
}

impl FaultPlan {
    /// The plan that injects nothing.
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.cell_spec().is_none()
            && self.modules.is_empty()
            && self.vpp_droop.is_none()
            && self.deadline_ms.is_none()
    }

    /// The cell-defect spec, `None` when absent *or* empty (so callers
    /// can skip installing a no-op overlay).
    pub fn cell_spec(&self) -> Option<CellFaultSpec> {
        self.cells.filter(|c| !c.is_empty())
    }

    /// The module-level faults aimed at one fleet slot.
    pub fn module_faults(&self, module_index: usize) -> Vec<ModuleFaultKind> {
        self.modules
            .iter()
            .filter(|f| f.module_index == module_index)
            .map(|f| f.kind)
            .collect()
    }

    /// One-line human summary for run headers.
    pub fn describe(&self) -> String {
        if self.is_empty() {
            return "no faults".into();
        }
        let mut parts = Vec::new();
        if let Some(c) = self.cell_spec() {
            parts.push(format!(
                "cells: ~{} stuck + ~{} weak per million, sense shift {:+}",
                c.stuck_per_million, c.weak_per_million, c.sense_offset_shift
            ));
        }
        if !self.modules.is_empty() {
            parts.push(format!("{} module fault(s)", self.modules.len()));
        }
        if let Some(d) = self.vpp_droop {
            parts.push(format!(
                "V_PP droop {:.2} V over groups {}..{}",
                d.delta_v, d.from_group, d.to_group
            ));
        }
        if let Some(ms) = self.deadline_ms {
            parts.push(format!("deadline {ms} ms/task"));
        }
        parts.join("; ")
    }

    /// Named presets for `repro --faults <preset>`. `module_count` sizes
    /// the module-level events to the fleet actually configured.
    ///
    /// * `"quick"` — mild cell defects only; the scoreboard should stay
    ///   at (or within a whisker of) the pristine bar.
    /// * `"dropout"` — mild cells plus one permanently dropped module
    ///   and one first-attempt panic that heals on retry.
    /// * `"chaos"` — denser defects, a dropout, a panic, a hang, a V_PP
    ///   droop, and a deadline: the full degradation path.
    pub fn preset(name: &str, module_count: usize) -> Option<FaultPlan> {
        let last = module_count.saturating_sub(1);
        match name {
            "quick" => Some(FaultPlan {
                seed: 0xFA01,
                cells: Some(CellFaultSpec {
                    seed: 0xFA01,
                    stuck_per_million: 2.0,
                    weak_per_million: 10.0,
                    weak_leak_multiplier: 6.0,
                    sense_offset_shift: 0.0,
                }),
                ..FaultPlan::default()
            }),
            "dropout" => Some(FaultPlan {
                seed: 0xFA02,
                cells: Some(CellFaultSpec {
                    seed: 0xFA02,
                    stuck_per_million: 5.0,
                    weak_per_million: 20.0,
                    weak_leak_multiplier: 8.0,
                    sense_offset_shift: 0.0002,
                }),
                modules: vec![
                    ModuleFault {
                        module_index: last,
                        kind: ModuleFaultKind::Dropout {
                            at_group: 0,
                            recover_after_attempts: None,
                        },
                    },
                    ModuleFault {
                        module_index: 0,
                        kind: ModuleFaultKind::PanicAt { at_group: 0 },
                    },
                ],
                ..FaultPlan::default()
            }),
            "chaos" => Some(FaultPlan {
                seed: 0xFA03,
                cells: Some(CellFaultSpec {
                    seed: 0xFA03,
                    stuck_per_million: 40.0,
                    weak_per_million: 80.0,
                    weak_leak_multiplier: 10.0,
                    sense_offset_shift: 0.001,
                }),
                modules: vec![
                    ModuleFault {
                        module_index: last,
                        kind: ModuleFaultKind::Dropout {
                            at_group: 1,
                            recover_after_attempts: None,
                        },
                    },
                    ModuleFault {
                        module_index: 0,
                        kind: ModuleFaultKind::PanicAt { at_group: 0 },
                    },
                    ModuleFault {
                        module_index: last / 2,
                        kind: ModuleFaultKind::Hang {
                            at_group: 0,
                            stall_ms: 600.0,
                        },
                    },
                ],
                vpp_droop: Some(VppDroop {
                    delta_v: 0.2,
                    from_group: 0,
                    to_group: 2,
                }),
                deadline_ms: Some(500.0),
            }),
            _ => None,
        }
    }

    /// Renders the plan as one-line versioned JSON. Fields that inject
    /// nothing (absent options, no module events) are omitted, floats
    /// use shortest round-trip formatting, and the
    /// `u64` seeds are written as plain integers — so
    /// [`FaultPlan::from_json`] reconstructs a plan that compares equal
    /// and applies byte-identical faults.
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            format!("\"schema_version\":{FAULT_PLAN_SCHEMA_VERSION}"),
            format!("\"seed\":{}", self.seed),
        ];
        if let Some(c) = self.cells {
            fields.push(format!(
                "\"cells\":{{\"seed\":{},\"stuck_per_million\":{},\"weak_per_million\":{},\
                 \"weak_leak_multiplier\":{},\"sense_offset_shift\":{}}}",
                c.seed,
                json::number(c.stuck_per_million),
                json::number(c.weak_per_million),
                json::number(c.weak_leak_multiplier),
                json::number(f64::from(c.sense_offset_shift)),
            ));
        }
        if !self.modules.is_empty() {
            let rendered = self.modules.iter().map(|m| {
                let kind = match m.kind {
                    ModuleFaultKind::Dropout {
                        at_group,
                        recover_after_attempts,
                    } => match recover_after_attempts {
                        Some(k) => format!(
                            "{{\"type\":\"dropout\",\"at_group\":{at_group},\
                             \"recover_after_attempts\":{k}}}"
                        ),
                        None => format!("{{\"type\":\"dropout\",\"at_group\":{at_group}}}"),
                    },
                    ModuleFaultKind::PanicAt { at_group } => {
                        format!("{{\"type\":\"panic_at\",\"at_group\":{at_group}}}")
                    }
                    ModuleFaultKind::Hang { at_group, stall_ms } => format!(
                        "{{\"type\":\"hang\",\"at_group\":{at_group},\"stall_ms\":{}}}",
                        json::number(stall_ms)
                    ),
                };
                format!("{{\"module_index\":{},\"kind\":{kind}}}", m.module_index)
            });
            fields.push(format!("\"modules\":{}", json::array(rendered)));
        }
        if let Some(d) = self.vpp_droop {
            fields.push(format!(
                "\"vpp_droop\":{{\"delta_v\":{},\"from_group\":{},\"to_group\":{}}}",
                json::number(d.delta_v),
                d.from_group,
                d.to_group
            ));
        }
        if let Some(ms) = self.deadline_ms {
            fields.push(format!("\"deadline_ms\":{}", json::number(ms)));
        }
        format!("{{{}}}", fields.join(","))
    }

    /// Parses a plan rendered by [`FaultPlan::to_json`]. Unknown schema
    /// versions and malformed or missing fields are typed errors, never
    /// panics.
    pub fn from_json(input: &str) -> Result<FaultPlan, PlanParseError> {
        let doc = Value::parse(input)?;
        let version = require_u32(&doc, "schema_version")?;
        if version != FAULT_PLAN_SCHEMA_VERSION {
            return Err(PlanParseError::SchemaVersion {
                found: version,
                expected: FAULT_PLAN_SCHEMA_VERSION,
            });
        }
        let seed = require_u64(&doc, "seed")?;
        let cells = match doc.get("cells") {
            None | Some(Value::Null) => None,
            Some(c) => Some(CellFaultSpec {
                seed: require_u64(c, "seed")?,
                stuck_per_million: require_f64(c, "stuck_per_million")?,
                weak_per_million: require_f64(c, "weak_per_million")?,
                weak_leak_multiplier: require_f64(c, "weak_leak_multiplier")?,
                sense_offset_shift: require_f64(c, "sense_offset_shift")? as f32,
            }),
        };
        let modules = match doc.get("modules") {
            None | Some(Value::Null) => Vec::new(),
            Some(list) => {
                let items = list.as_array().ok_or_else(|| PlanParseError::Field {
                    field: "modules".into(),
                    detail: "expected an array".into(),
                })?;
                items
                    .iter()
                    .map(parse_module_fault)
                    .collect::<Result<Vec<_>, _>>()?
            }
        };
        let vpp_droop = match doc.get("vpp_droop") {
            None | Some(Value::Null) => None,
            Some(d) => {
                let delta_v = require_f64(d, "delta_v")?;
                if delta_v < 0.0 {
                    return Err(field_error(
                        "vpp_droop.delta_v",
                        "expected a non-negative sag in volts",
                    ));
                }
                Some(VppDroop {
                    delta_v,
                    from_group: require_usize(d, "from_group")?,
                    to_group: require_usize(d, "to_group")?,
                })
            }
        };
        let deadline_ms = match doc.get("deadline_ms") {
            None | Some(Value::Null) => None,
            Some(v) => Some(v.as_f64().ok_or_else(|| PlanParseError::Field {
                field: "deadline_ms".into(),
                detail: "expected a number".into(),
            })?),
        };
        Ok(FaultPlan {
            seed,
            cells,
            modules,
            vpp_droop,
            deadline_ms,
        })
    }
}

/// Schema version written by [`FaultPlan::to_json`] and required by
/// [`FaultPlan::from_json`].
pub const FAULT_PLAN_SCHEMA_VERSION: u32 = 1;

/// Why [`FaultPlan::from_json`] rejected a document.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanParseError {
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
        /// Dotted path of the offending field.
        field: String,
        /// What was expected.
        detail: String,
    },
}

impl std::fmt::Display for PlanParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanParseError::Json(e) => write!(f, "fault plan: {e}"),
            PlanParseError::SchemaVersion { found, expected } => write!(
                f,
                "fault plan schema version {found} (this build reads version {expected})"
            ),
            PlanParseError::Field { field, detail } => {
                write!(f, "fault plan field '{field}': {detail}")
            }
        }
    }
}

impl std::error::Error for PlanParseError {}

impl From<json::ParseError> for PlanParseError {
    fn from(e: json::ParseError) -> Self {
        PlanParseError::Json(e)
    }
}

fn field_error(field: &str, detail: &str) -> PlanParseError {
    PlanParseError::Field {
        field: field.into(),
        detail: detail.into(),
    }
}

fn require_u64(doc: &Value, field: &str) -> Result<u64, PlanParseError> {
    doc.get(field)
        .and_then(Value::as_u64)
        .ok_or_else(|| field_error(field, "expected an unsigned integer"))
}

fn require_u32(doc: &Value, field: &str) -> Result<u32, PlanParseError> {
    doc.get(field)
        .and_then(Value::as_u32)
        .ok_or_else(|| field_error(field, "expected an unsigned 32-bit integer"))
}

fn require_usize(doc: &Value, field: &str) -> Result<usize, PlanParseError> {
    doc.get(field)
        .and_then(Value::as_usize)
        .ok_or_else(|| field_error(field, "expected an unsigned integer"))
}

fn require_f64(doc: &Value, field: &str) -> Result<f64, PlanParseError> {
    doc.get(field)
        .and_then(Value::as_f64)
        .ok_or_else(|| field_error(field, "expected a number"))
}

fn parse_module_fault(item: &Value) -> Result<ModuleFault, PlanParseError> {
    let module_index = require_usize(item, "module_index")?;
    let kind = item
        .get("kind")
        .ok_or_else(|| field_error("modules[].kind", "missing"))?;
    let tag = kind
        .get("type")
        .and_then(Value::as_str)
        .ok_or_else(|| field_error("modules[].kind.type", "expected a string tag"))?;
    let kind = match tag {
        "dropout" => ModuleFaultKind::Dropout {
            at_group: require_usize(kind, "at_group")?,
            recover_after_attempts: match kind.get("recover_after_attempts") {
                None | Some(Value::Null) => None,
                Some(v) => Some(v.as_u32().ok_or_else(|| {
                    field_error(
                        "modules[].kind.recover_after_attempts",
                        "expected an unsigned 32-bit integer",
                    )
                })?),
            },
        },
        "panic_at" => ModuleFaultKind::PanicAt {
            at_group: require_usize(kind, "at_group")?,
        },
        "hang" => ModuleFaultKind::Hang {
            at_group: require_usize(kind, "at_group")?,
            stall_ms: require_f64(kind, "stall_ms")?,
        },
        other => {
            return Err(field_error(
                "modules[].kind.type",
                &format!("unknown fault kind '{other}'"),
            ))
        }
    };
    Ok(ModuleFault { module_index, kind })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        let p = FaultPlan::empty();
        assert!(p.is_empty());
        assert!(p.cell_spec().is_none());
        assert!(p.module_faults(0).is_empty());
        assert_eq!(p.describe(), "no faults");
    }

    #[test]
    fn empty_cell_spec_is_filtered() {
        let p = FaultPlan {
            cells: Some(CellFaultSpec::default()),
            ..FaultPlan::default()
        };
        assert!(p.cell_spec().is_none(), "a no-op spec must not install");
        assert!(p.is_empty());
    }

    #[test]
    fn module_faults_filter_by_slot() {
        let p = FaultPlan::preset("dropout", 4).unwrap();
        assert_eq!(p.module_faults(3).len(), 1);
        assert!(matches!(
            p.module_faults(3)[0],
            ModuleFaultKind::Dropout { at_group: 0, .. }
        ));
        assert!(matches!(
            p.module_faults(0)[0],
            ModuleFaultKind::PanicAt { at_group: 0 }
        ));
        assert!(p.module_faults(1).is_empty());
    }

    #[test]
    fn presets_exist_and_describe() {
        for name in ["quick", "dropout", "chaos"] {
            let p = FaultPlan::preset(name, 18).unwrap();
            assert!(!p.is_empty(), "{name} must inject something");
            assert_ne!(p.describe(), "no faults");
        }
        assert!(FaultPlan::preset("nope", 18).is_none());
    }

    #[test]
    fn single_module_fleet_presets_target_slot_zero() {
        let p = FaultPlan::preset("dropout", 1).unwrap();
        // With one module, both the dropout and the panic land on slot 0.
        assert_eq!(p.module_faults(0).len(), 2);
    }

    #[test]
    fn chaos_sets_a_deadline() {
        let p = FaultPlan::preset("chaos", 4).unwrap();
        assert!(p.deadline_ms.is_some());
        assert!(p.vpp_droop.is_some());
    }

    #[test]
    fn presets_round_trip_through_json() {
        for name in ["quick", "dropout", "chaos"] {
            for module_count in [1usize, 4, 18] {
                let plan = FaultPlan::preset(name, module_count).unwrap();
                let parsed = FaultPlan::from_json(&plan.to_json()).unwrap();
                assert_eq!(parsed, plan, "{name}/{module_count}");
                // Render is canonical: a second round trip is byte-stable.
                assert_eq!(parsed.to_json(), plan.to_json());
            }
        }
    }

    #[test]
    fn empty_plan_round_trips_minimal_document() {
        let plan = FaultPlan::empty();
        let doc = plan.to_json();
        assert_eq!(doc, "{\"schema_version\":1,\"seed\":0}");
        assert_eq!(FaultPlan::from_json(&doc).unwrap(), plan);
    }

    #[test]
    fn every_fault_kind_round_trips() {
        let plan = FaultPlan {
            seed: u64::MAX - 1,
            cells: Some(CellFaultSpec {
                seed: 7,
                stuck_per_million: 0.1,
                weak_per_million: 1.0 / 3.0,
                weak_leak_multiplier: 2.5,
                sense_offset_shift: -0.000_12,
            }),
            modules: vec![
                ModuleFault {
                    module_index: 3,
                    kind: ModuleFaultKind::Dropout {
                        at_group: 2,
                        recover_after_attempts: Some(4),
                    },
                },
                ModuleFault {
                    module_index: 0,
                    kind: ModuleFaultKind::Dropout {
                        at_group: 0,
                        recover_after_attempts: None,
                    },
                },
                ModuleFault {
                    module_index: 1,
                    kind: ModuleFaultKind::PanicAt { at_group: 1 },
                },
                ModuleFault {
                    module_index: 2,
                    kind: ModuleFaultKind::Hang {
                        at_group: 5,
                        stall_ms: 12.75,
                    },
                },
            ],
            vpp_droop: Some(VppDroop {
                delta_v: 0.2,
                from_group: 1,
                to_group: 3,
            }),
            deadline_ms: Some(500.5),
        };
        let parsed = FaultPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(parsed, plan);
        // Float fields must round-trip bit for bit, not just compare
        // equal — resume determinism depends on byte-identical faults.
        let c = parsed.cells.unwrap();
        assert_eq!(
            c.sense_offset_shift.to_bits(),
            plan.cells.unwrap().sense_offset_shift.to_bits()
        );
    }

    #[test]
    fn malformed_plan_documents_are_typed_errors() {
        assert!(matches!(
            FaultPlan::from_json("not json"),
            Err(PlanParseError::Json(_))
        ));
        assert!(matches!(
            FaultPlan::from_json("{\"schema_version\":99,\"seed\":0}"),
            Err(PlanParseError::SchemaVersion {
                found: 99,
                expected: FAULT_PLAN_SCHEMA_VERSION
            })
        ));
        assert!(matches!(
            FaultPlan::from_json("{\"schema_version\":1}"),
            Err(PlanParseError::Field { .. })
        ));
        let bad_kind = "{\"schema_version\":1,\"seed\":0,\
             \"modules\":[{\"module_index\":0,\"kind\":{\"type\":\"gremlin\"}}]}";
        let err = FaultPlan::from_json(bad_kind).unwrap_err();
        assert!(err.to_string().contains("gremlin"), "{err}");
    }

    #[test]
    fn a_negative_droop_is_a_field_error() {
        let surge = "{\"schema_version\":1,\"seed\":0,\
             \"vpp_droop\":{\"delta_v\":-0.1,\"from_group\":0,\"to_group\":2}}";
        match FaultPlan::from_json(surge) {
            Err(PlanParseError::Field { field, .. }) => assert_eq!(field, "vpp_droop.delta_v"),
            other => panic!("expected a field error, got {other:?}"),
        }
    }
}
