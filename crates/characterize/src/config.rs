//! Experiment scale configuration.

use simra_dram::vendor::{paper_fleet, VendorProfile};
use simra_exec::BackendChoice;
use simra_faults::FaultPlan;

/// One module to mount in the (virtual) rig.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleUnderTest {
    /// Vendor profile of the module.
    pub profile: VendorProfile,
    /// Seed stamping its silicon (distinct seeds = distinct modules).
    pub seed: u64,
}

/// Scale knobs for every characterization runner.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentConfig {
    /// Modules to test.
    pub modules: Vec<ModuleUnderTest>,
    /// Banks tested per module (paper: 16).
    pub banks: u16,
    /// Randomly chosen subarrays per bank (paper: 3).
    pub subarrays_per_bank: u16,
    /// Random row groups per subarray per N (paper: 100).
    pub groups_per_subarray: usize,
    /// Experiment RNG seed.
    pub seed: u64,
    /// Optional fault-injection plan. `None` (the default) runs pristine
    /// silicon on the fault-free executor path — byte-identical to builds
    /// that predate fault injection.
    pub faults: Option<FaultPlan>,
    /// Execution backend every figure runner dispatches trials through.
    /// [`BackendChoice::Analog`] (the default) is the reference path —
    /// byte-identical to builds that predate the backend layer;
    /// [`BackendChoice::Surrogate`] swaps in the calibrated fast model.
    pub backend: BackendChoice,
}

impl ExperimentConfig {
    /// The default scale: one module per vendor profile in Table 1 and a
    /// reduced group population — large enough for stable means, small
    /// enough that the full figure set regenerates in minutes.
    pub fn reduced() -> Self {
        let modules = paper_fleet()
            .into_iter()
            .enumerate()
            .map(|(i, e)| ModuleUnderTest {
                profile: e.profile,
                seed: 1000 + i as u64,
            })
            .collect();
        ExperimentConfig {
            modules,
            banks: 2,
            subarrays_per_bank: 2,
            groups_per_subarray: 4,
            seed: 0xD5A,
            faults: None,
            backend: BackendChoice::Analog,
        }
    }

    /// A minimal configuration for tests and benches: one Mfr. H module,
    /// one bank, a handful of groups.
    pub fn quick() -> Self {
        ExperimentConfig {
            modules: vec![ModuleUnderTest {
                profile: VendorProfile::mfr_h_m_die(),
                seed: 7,
            }],
            banks: 1,
            subarrays_per_bank: 1,
            groups_per_subarray: 3,
            seed: 0xD5A,
            faults: None,
            backend: BackendChoice::Analog,
        }
    }

    /// The paper's full population: every module of Table 2 (18 modules),
    /// 16 banks × 3 subarrays × 100 groups. On the analog backend one
    /// unscaled run took 1 556.6 s wall and 1 661 MB peak RSS on a
    /// 2-vCPU host.
    pub fn paper_scale() -> Self {
        let mut modules = Vec::new();
        let mut seed = 2000u64;
        for entry in paper_fleet() {
            for _ in 0..entry.modules {
                modules.push(ModuleUnderTest {
                    profile: entry.profile.clone(),
                    seed,
                });
                seed += 1;
            }
        }
        ExperimentConfig {
            modules,
            banks: 16,
            subarrays_per_bank: 3,
            groups_per_subarray: 100,
            seed: 0xD5A,
            faults: None,
            backend: BackendChoice::Analog,
        }
    }

    /// Groups tested per (module, N) point.
    pub fn groups_per_module(&self) -> usize {
        self.banks as usize * self.subarrays_per_bank as usize * self.groups_per_subarray
    }

    /// Human-readable scale statement, including the reduction relative to
    /// the paper's 16 × 3 × 100 population (no silent truncation).
    pub fn describe_scale(&self) -> String {
        let per_module = self.groups_per_module();
        let paper_per_module = 16 * 3 * 100;
        let mut s = format!(
            "{} module(s), {} groups per (module, N) point ({}x reduction vs the paper's {} groups over 18 modules)",
            self.modules.len(),
            per_module,
            paper_per_module / per_module.max(1),
            paper_per_module,
        );
        if let Some(plan) = self.faults.as_ref().filter(|p| !p.is_empty()) {
            s.push_str("; faults: ");
            s.push_str(&plan.describe());
        }
        s
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig::reduced()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_covers_all_vendor_profiles() {
        let c = ExperimentConfig::default();
        assert_eq!(c.modules.len(), 4);
        let mut labels: Vec<String> = c.modules.iter().map(|m| m.profile.label()).collect();
        labels.dedup();
        assert_eq!(labels.len(), 4, "one module per Table 1 profile");
    }

    #[test]
    fn paper_scale_has_18_modules() {
        let c = ExperimentConfig::paper_scale();
        assert_eq!(c.modules.len(), 18);
        assert_eq!(c.groups_per_module(), 4800);
    }

    #[test]
    fn scale_description_reports_reduction() {
        let c = ExperimentConfig::quick();
        let s = c.describe_scale();
        assert!(s.contains("reduction"), "{s}");
    }

    #[test]
    fn scale_description_mentions_faults_only_when_present() {
        let mut c = ExperimentConfig::quick();
        assert!(!c.describe_scale().contains("faults"));
        c.faults = Some(FaultPlan::default());
        assert!(
            !c.describe_scale().contains("faults"),
            "an empty plan is not worth announcing"
        );
        c.faults = FaultPlan::preset("quick", c.modules.len());
        assert!(c.describe_scale().contains("faults"));
    }

    #[test]
    fn distinct_module_seeds() {
        let c = ExperimentConfig::paper_scale();
        let mut seeds: Vec<u64> = c.modules.iter().map(|m| m.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 18);
    }
}
