//! Latency and throughput of PUD operations, as the paper measures them
//! with DRAM Bender and folds in empirical success rates (§8.1).

use simra_dram::Rng;

use simra_analog::EngineCounters;
use simra_bender::{BenderProgram, TestSetup};
use simra_core::rowgroup::sample_groups;
use simra_dram::{
    ApaTiming, BankId, DataPattern, DramModule, RowAddr, TimingParams, VendorProfile,
};
use simra_exec::{AnalogBackend, PudBackend, TrialSpec};

/// Measured latency of each primitive PUD operation (ns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpLatencies {
    /// One MAJX APA operation (ACT→PRE→ACT + settle).
    pub majx_apa_ns: f64,
    /// One RowClone (consecutive-activation copy).
    pub rowclone_ns: f64,
    /// One Multi-RowCopy APA.
    pub multirowcopy_ns: f64,
    /// One Frac operation (ACT→PRE with violated tRAS).
    pub frac_ns: f64,
    /// One nominal row write.
    pub write_row_ns: f64,
}

impl OpLatencies {
    /// Schedules each operation as a Bender program against the module's
    /// timing parameters and reads off the latency.
    pub fn measure(timing: &TimingParams) -> Self {
        let bank = BankId::new(0);
        let r0 = RowAddr::new(0);
        let r1 = RowAddr::new(1);
        let majx =
            BenderProgram::apa(bank, r0, r1, ApaTiming::best_for_majx(), timing).latency_ns();
        let rowclone =
            BenderProgram::apa(bank, r0, r1, ApaTiming::row_clone(), timing).latency_ns();
        let mrc = BenderProgram::apa(bank, r0, r1, ApaTiming::best_for_multi_row_copy(), timing)
            .latency_ns();
        // Frac: ACT → (t < tRAS) → PRE, no second ACT; about half a row
        // cycle.
        let frac = {
            let mut p = BenderProgram::new();
            p.command(simra_dram::Command::Activate { bank, row: r0 })
                .wait_ns(9.0)
                .command(simra_dram::Command::Precharge { bank })
                .wait_ns(timing.t_rp_ns);
            p.latency_ns()
        };
        let write = BenderProgram::write_row(bank, r0, timing).latency_ns();
        OpLatencies {
            majx_apa_ns: majx,
            rowclone_ns: rowclone,
            multirowcopy_ns: mrc,
            frac_ns: frac,
            write_row_ns: write,
        }
    }
}

/// Throughput point for one MAJX configuration on one module: latency of
/// a full MAJX operation (input staging + APA) and the *best* empirical
/// success rate across sampled groups (the paper selects the
/// highest-throughput group).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MajThroughput {
    /// Operand count.
    pub x: usize,
    /// Rows simultaneously activated.
    pub n_rows: u32,
    /// Latency of one MAJX operation including input replication (ns).
    pub op_latency_ns: f64,
    /// Best success rate across sampled groups (0–1).
    pub success: f64,
}

impl MajThroughput {
    /// Expected time per *correct* MAJX operation: retries are modelled as
    /// geometric in the success rate (Fig. 16's MAJ9 degradation).
    pub fn effective_ns(&self) -> f64 {
        self.op_latency_ns / self.success.max(1e-3)
    }
}

/// Measures MAJX throughput on a module through the reference analog
/// backend: staging = X RowClones (copy the operands in) + X
/// Multi-RowCopies (replicate to N rows, §8.1), plus the APA itself.
pub fn measure_majx_throughput(
    profile: &VendorProfile,
    x: usize,
    n_rows: u32,
    groups: usize,
    seed: u64,
) -> MajThroughput {
    measure_majx_throughput_on(
        &AnalogBackend,
        &EngineCounters::default(),
        profile,
        x,
        n_rows,
        groups,
        seed,
    )
}

/// [`measure_majx_throughput`] with the success rate measured by an
/// explicit [`PudBackend`], on a rig whose engine ops report to
/// `engine_counters`.
pub fn measure_majx_throughput_on(
    backend: &dyn PudBackend,
    engine_counters: &EngineCounters,
    profile: &VendorProfile,
    x: usize,
    n_rows: u32,
    groups: usize,
    seed: u64,
) -> MajThroughput {
    let lat = OpLatencies::measure(&profile.timing);
    // Steady-state staging per operation: one RowClone places the newly
    // produced operand, and — when each operand gets ≥ 2 copies — one
    // Multi-RowCopy refreshes the replicas. (Initial operand loading is
    // amortised over the microbenchmark's thousands of operations.)
    let staging = if n_rows as usize / x >= 2 {
        lat.rowclone_ns + lat.multirowcopy_ns
    } else {
        lat.rowclone_ns
    };
    let op_latency_ns = staging + lat.majx_apa_ns;

    // Each measurement mounts its own rig, with its own backend state:
    // stateful backends (hybrid) start clean here, and the result does
    // not depend on what ran earlier on this thread.
    let mut setup = TestSetup::with_module(DramModule::new(profile.clone(), seed));
    setup.set_engine_counters(engine_counters.clone());
    let mut rng = Rng::seed_from_u64(seed ^ 0xC0FFEE);
    let picks = sample_groups(
        setup.module().geometry(),
        n_rows,
        2,
        2,
        groups.max(1),
        &mut rng,
    );
    let spec = TrialSpec::majx(x, ApaTiming::best_for_majx(), DataPattern::Random);
    let mut samples = Vec::with_capacity(picks.len());
    backend.run_trials(&spec, &mut setup, &picks, &mut rng, &mut samples);
    MajThroughput {
        x,
        n_rows,
        op_latency_ns,
        success: samples.into_iter().fold(0.0, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latencies_are_ordered_sensibly() {
        let lat = OpLatencies::measure(&TimingParams::ddr4_2666());
        // Multi-RowCopy waits out tRAS before the PRE; MAJX does not.
        assert!(lat.multirowcopy_ns > lat.majx_apa_ns);
        assert!(lat.rowclone_ns > lat.majx_apa_ns);
        assert!(lat.frac_ns < lat.rowclone_ns);
        assert!(lat.write_row_ns > 0.0);
    }

    #[test]
    fn effective_time_penalises_low_success() {
        let good = MajThroughput {
            x: 3,
            n_rows: 32,
            op_latency_ns: 100.0,
            success: 0.99,
        };
        let bad = MajThroughput {
            x: 9,
            n_rows: 32,
            op_latency_ns: 100.0,
            success: 0.06,
        };
        assert!(bad.effective_ns() > 10.0 * good.effective_ns());
    }

    #[test]
    fn measured_throughput_has_positive_success_for_maj3() {
        let t = measure_majx_throughput(&VendorProfile::mfr_h_m_die(), 3, 32, 3, 9);
        assert!(t.success > 0.9, "MAJ3@32 best-group success {}", t.success);
        assert!(t.op_latency_ns > 0.0);
    }

    #[test]
    fn no_replication_skips_multirowcopy_staging() {
        let base = measure_majx_throughput(&VendorProfile::mfr_h_m_die(), 3, 4, 2, 9);
        let repl = measure_majx_throughput(&VendorProfile::mfr_h_m_die(), 3, 32, 2, 9);
        assert!(base.op_latency_ns < repl.op_latency_ns);
    }
}
