//! # simra-faults
//!
//! Deterministic, seed-driven fault plans for the characterization
//! fleet. A [`FaultPlan`] bundles everything that can go wrong during a
//! sweep:
//!
//! * **cell-level defects** ([`CellFaultSpec`], re-exported from
//!   `simra_dram::faults`) — stuck-at-0/1 cells and per-subarray
//!   sense-amplifier offset drift;
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
//! Plans render to versioned JSON ([`FaultPlan::to_json`], schema
//! [`FAULT_PLAN_SCHEMA_VERSION`]) following the `simra-telemetry` JSON
//! conventions. A sweep checkpoint manifest stores that rendering as the
//! fingerprint of the plan it ran under, and a resume compares it
//! byte for byte, so a run never resumes under different faults.

#![forbid(unsafe_code)]

use simra_telemetry::json;

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

    /// The cell-defect spec, `None` when absent *or* empty (so a rig
    /// built from the plan carries no no-op overlay).
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
                "cells: ~{} stuck per million, sense shift {:+}",
                c.stuck_per_million, c.sense_offset_shift
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
                    sense_offset_shift: 0.0,
                }),
                ..FaultPlan::default()
            }),
            "dropout" => Some(FaultPlan {
                seed: 0xFA02,
                cells: Some(CellFaultSpec {
                    seed: 0xFA02,
                    stuck_per_million: 5.0,
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

    /// Renders the plan as one-line versioned JSON: the plan's
    /// fingerprint in a checkpoint manifest. Fields that inject nothing
    /// (absent options, no module events) are omitted, finite floats use
    /// shortest round-trip formatting, and the `u64` seeds are written as
    /// plain integers — so plans that differ in any field render
    /// differently, down to one ulp of a float.
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            format!("\"schema_version\":{FAULT_PLAN_SCHEMA_VERSION}"),
            format!("\"seed\":{}", self.seed),
        ];
        if let Some(c) = self.cells {
            fields.push(format!(
                "\"cells\":{{\"seed\":{},\"stuck_per_million\":{},\"sense_offset_shift\":{}}}",
                c.seed,
                json::number(c.stuck_per_million),
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
}

/// Schema version written by [`FaultPlan::to_json`].
pub const FAULT_PLAN_SCHEMA_VERSION: u32 = 1;

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
    fn empty_plan_renders_the_minimal_document() {
        // Fault-free checkpoint directories store exactly this string.
        assert_eq!(
            FaultPlan::empty().to_json(),
            "{\"schema_version\":1,\"seed\":0}"
        );
    }
}
