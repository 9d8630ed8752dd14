//! JEDEC DDR4 timing parameters and the tester's 1.5 ns issue grid.
//!
//! The paper's infrastructure (DRAM Bender on an Alveo U200) can issue
//! DRAM commands at intervals that are multiples of 1.5 ns; every timing
//! delay it sweeps (t1 between ACT and PRE, t2 between PRE and ACT) sits on
//! that grid. [`IssueGrid`] encodes the constraint so experiment configs
//! cannot request delays the hardware could not produce (§9 Limitation 2).

/// The command-issue granularity of the modelled tester, in nanoseconds.
pub const ISSUE_GRID_NS: f64 = 1.5;

/// Manufacturer-recommended DDR4 timing parameters (JESD79-4C) in ns.
///
/// Only the parameters relevant to the paper's experiments are modelled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingParams {
    /// ACT→PRE minimum: sensing plus full charge restoration.
    pub t_ras_ns: f64,
    /// PRE→ACT minimum: wordline de-assertion plus bitline precharge.
    pub t_rp_ns: f64,
    /// ACT→RD/WR minimum.
    pub t_rcd_ns: f64,
    /// Write recovery time.
    pub t_wr_ns: f64,
    /// Refresh cycle time (per REF command).
    pub t_rfc_ns: f64,
    /// Average refresh interval.
    pub t_refi_ns: f64,
    /// Clock period (derived from the speed bin).
    pub t_ck_ns: f64,
}

impl TimingParams {
    /// DDR4-2666 speed-bin values (the TimeTec/Micron 2666 MT/s modules).
    pub const fn ddr4_2666() -> Self {
        TimingParams {
            t_ras_ns: 32.0,
            t_rp_ns: 13.5,
            t_rcd_ns: 13.5,
            t_wr_ns: 15.0,
            t_rfc_ns: 350.0,
            t_refi_ns: 7800.0,
            t_ck_ns: 0.75,
        }
    }

    /// DDR4-2133 speed-bin values (the TeamGroup modules).
    pub const fn ddr4_2133() -> Self {
        TimingParams {
            t_ras_ns: 33.0,
            t_rp_ns: 14.06,
            t_rcd_ns: 14.06,
            t_wr_ns: 15.0,
            t_rfc_ns: 350.0,
            t_refi_ns: 7800.0,
            t_ck_ns: 0.938,
        }
    }

    /// DDR4-3200 speed-bin values (the Micron 3200 MT/s modules).
    pub const fn ddr4_3200() -> Self {
        TimingParams {
            t_ras_ns: 32.0,
            t_rp_ns: 13.75,
            t_rcd_ns: 13.75,
            t_wr_ns: 15.0,
            t_rfc_ns: 350.0,
            t_refi_ns: 7800.0,
            t_ck_ns: 0.625,
        }
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        TimingParams::ddr4_2666()
    }
}

/// The tester's command-issue grid.
///
/// All experiment timing delays are expressed as grid steps; the paper
/// sweeps t1, t2 ∈ {1.5 ns, 3 ns, 6 ns, …, 36 ns}.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IssueGrid {
    steps: u32,
}

impl IssueGrid {
    /// Snaps a nanosecond delay onto the grid, rounding to the nearest
    /// step (at least one).
    ///
    /// Mirrors what the real infrastructure does with a requested delay:
    /// it can only issue on 1.5 ns boundaries. The nearest step, not the
    /// next one up: an APA's t1 and t2 are deliberate violations that
    /// name the paper's own grid points, so a delay means the point
    /// closest to it. SoftMC's `ceil(ns / 1.5015)` turns a delay into
    /// controller cycles that must never undershoot it, and would move
    /// 14.0 ns to 15.0 ns; here it stays at 13.5 ns (DESIGN.md §2).
    pub fn from_ns(ns: f64) -> Self {
        let steps = (ns / ISSUE_GRID_NS).round().max(1.0) as u32;
        IssueGrid { steps }
    }

    /// Delay in nanoseconds.
    pub fn as_ns(self) -> f64 {
        self.steps as f64 * ISSUE_GRID_NS
    }

    /// Delay in grid steps.
    pub const fn steps(self) -> u32 {
        self.steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_snaps_to_multiples_of_1_5() {
        assert_eq!(IssueGrid::from_ns(1.5).as_ns(), 1.5);
        assert_eq!(IssueGrid::from_ns(3.0).as_ns(), 3.0);
        // The rounding rule's pins: nearest step, where SoftMC's
        // `ceil(ns / 1.5015)` would round 2.0 ns up to 3.0 ns and, near
        // tRCD, 14.0 ns up to 15.0 ns.
        assert_eq!(IssueGrid::from_ns(2.0).as_ns(), 1.5);
        assert_eq!(IssueGrid::from_ns(14.0).as_ns(), 13.5);
        assert_eq!(IssueGrid::from_ns(2.3).as_ns(), 3.0);
        assert_eq!(IssueGrid::from_ns(36.0).as_ns(), 36.0);
    }

    #[test]
    fn grid_never_returns_zero_delay() {
        assert_eq!(IssueGrid::from_ns(0.0).as_ns(), 1.5);
        assert_eq!(IssueGrid::from_ns(0.2).as_ns(), 1.5);
    }

    #[test]
    fn speed_bins_are_distinct_and_sane() {
        let b2133 = TimingParams::ddr4_2133();
        let b2666 = TimingParams::ddr4_2666();
        let b3200 = TimingParams::ddr4_3200();
        assert!(b2133.t_ck_ns > b2666.t_ck_ns);
        assert!(b2666.t_ck_ns > b3200.t_ck_ns);
        for b in [b2133, b2666, b3200] {
            assert!(b.t_ras_ns > b.t_rp_ns);
            assert!(b.t_refi_ns > b.t_rfc_ns);
        }
    }

    #[test]
    fn violated_t1_t2_of_the_paper_sit_on_grid() {
        // The paper's swept values must be representable exactly.
        for ns in [1.5, 3.0, 6.0, 36.0] {
            let g = IssueGrid::from_ns(ns);
            assert!((g.as_ns() - ns).abs() < 1e-9);
        }
    }
}
