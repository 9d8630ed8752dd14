//! Circuit constants, operating conditions, and the timing-derived
//! strength/weight model.
//!
//! Everything the calibration can turn is here, in one place, with the
//! paper observation each constant is tuned against. Two distinct
//! timing-dependent strengths matter:
//!
//! * **assertion strength** — how completely the (many) wordlines rise
//!   during the charge-sharing window; scales the *sensing* margins.
//!   Degrades only when `t2` is at the 1.5 ns grid minimum (the decoder's
//!   intermediate signals cannot assert — Obs. 7 hypothesis 2).
//! * **restore strength** — how hard the sense amps / write drivers can
//!   overdrive the open cells afterwards; this is what the WR-overdrive
//!   *activation* experiments and Multi-RowCopy stress. Degrades when
//!   `t1` or `t2` sit at the grid minimum (Obs. 2, Obs. 15).
//!
//! This split is why MAJX *prefers* `t1 = 1.5 ns` (less first-row
//! over-share, sensing unharmed) while the activation test prefers
//! `t1 = 3 ns` (restore unharmed) — exactly the asymmetry in Figs. 3 vs 6.

use simra_dram::ApaTiming;

/// Nominal wordline voltage of DDR4 (V).
pub const NOMINAL_VPP: f64 = 2.5;
/// Nominal chip temperature for all experiments unless swept (°C).
pub const NOMINAL_TEMPERATURE_C: f64 = 50.0;

/// Temperature and wordline-voltage operating point of the test rig
/// (the paper's rubber heaters + TTi PL068-P supply).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingConditions {
    /// Chip temperature in °C (paper sweeps 50–90).
    pub temperature_c: f64,
    /// Wordline voltage V_PP in volts (paper sweeps 2.5 down to 2.1).
    pub vpp_v: f64,
}

impl OperatingConditions {
    /// The paper's default operating point: 50 °C, 2.5 V.
    pub fn nominal() -> Self {
        OperatingConditions {
            temperature_c: NOMINAL_TEMPERATURE_C,
            vpp_v: NOMINAL_VPP,
        }
    }

    /// Nominal temperature with a specific V_PP.
    pub fn with_vpp(vpp_v: f64) -> Self {
        OperatingConditions {
            vpp_v,
            ..Self::nominal()
        }
    }

    /// Nominal V_PP with a specific temperature.
    pub fn with_temperature(temperature_c: f64) -> Self {
        OperatingConditions {
            temperature_c,
            ..Self::nominal()
        }
    }
}

impl Default for OperatingConditions {
    fn default() -> Self {
        OperatingConditions::nominal()
    }
}

/// All calibration constants of the analog model.
///
/// The defaults ([`CircuitParams::calibrated`]) are fitted so that the
/// characterization runners land in-band on the paper's headline numbers;
/// each field's doc comment names the observation it is tuned against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircuitParams {
    /// Bitline-to-cell capacitance ratio `C_b / C_c`.
    pub beta: f64,
    /// Amplification of the per-cell access-strength spread during PUD
    /// (violated-timing) charge sharing *at 32-row activation*: the
    /// violated window never settles and the shared wordline boost droops
    /// with every extra open row, so the per-cell transfer factor inherits
    /// a variation that grows with N. The effective amplification is
    /// `pud_transfer_amp · N / 32` (see [`CircuitParams::transfer_amp`]).
    /// Multiplies `(strength_factor − 1)`. Tuned against the MAJ3
    /// 4-row vs 32-row gap (Obs. 6) jointly with MAJ9@32 (Obs. 8).
    pub pud_transfer_amp: f64,
    /// Sense-amplifier dead zone: the systematic margin (normalized volts)
    /// a bitline must clear for reliable same-direction resolution.
    /// Tuned against MAJ3@32 = 99.0 % (Obs. 7).
    pub sense_deadzone: f64,
    /// Per-trial sensing noise sigma, normalized volts.
    pub trial_noise_sigma: f64,
    /// Number of trials a cell must survive (the paper runs 10⁴).
    pub effective_trials: u32,
    /// Sigma of the residual |V − VDD/2| of a cell parked by Frac
    /// (neutral rows are not perfectly neutral; footnote 4).
    pub frac_residual_sigma: f64,
    /// Assertion strength at t2 = 1.5 ns (vs 1.0 at ≥ 3 ns).
    pub weak_t2_assertion: f64,
    /// Restore-strength factor when t1 = 1.5 ns (Obs. 2).
    pub weak_t1_restore: f64,
    /// Restore-strength factor when t2 = 1.5 ns (Obs. 2).
    pub weak_t2_restore: f64,
    /// First-row over-share per nanosecond of ACT→ACT delay beyond the
    /// 4.5 ns minimum (Obs. 7 hypothesis 1; drives the 45.5 % MAJ3 gap
    /// between (1.5, 3) and (3, 3)).
    pub overshare_per_ns: f64,
    /// Sense-amp latch quality for the Multi-RowCopy source phase at
    /// t1 = 1.5 ns (Obs. 15).
    pub mrc_latch_q_1_5: f64,
    /// Same, at t1 = 3 ns.
    pub mrc_latch_q_3: f64,
    /// Same, at t1 = 6 ns (≥ tRCD saturates at 1.0).
    pub mrc_latch_q_6: f64,
    /// Minimum cell drive (restore strength × cell strength factor) for a
    /// full rail restore during commit. Tuned against ≥ 99.85 %
    /// activation at best timing (Obs. 1) given the 0.05 cell-strength
    /// sigma: z = (1 − threshold) / 0.05 ≈ 3.76.
    pub restore_threshold: f64,
    /// Per-open-row droop of the restore drive when writing a logical 1
    /// (V_PP headroom shared by N wordlines): tuned against the all-1s
    /// Multi-RowCopy dip at 31 destinations (Obs. 16).
    pub restore_one_droop_per_row: f64,
    /// Sigma of the multiplicative group-to-group margin spread: row
    /// groups sit at different distances from the local wordline drivers
    /// and sense-amp stripes, so whole groups are systematically stronger
    /// or weaker. This is what makes the paper's box plots wide (huge
    /// IQRs for MAJ7/MAJ9) and lets best-group selection (§8.1) find
    /// outliers far above the mean.
    pub group_spread_sigma: f64,
    /// Fractional transistor-drive gain per °C above 50 °C (Obs. 11).
    pub temp_strength_per_c: f64,
    /// Fractional WR-driver quality loss per °C above 50 °C (the tiny
    /// *negative* temperature slope of the activation test, Obs. 3).
    pub temp_write_penalty_per_c: f64,
    /// Fractional transistor-drive loss per volt of V_PP underscale
    /// (Obs. 4 / 13 / 18).
    pub vpp_strength_per_v: f64,
}

impl CircuitParams {
    /// The calibrated constants used by every experiment.
    pub fn calibrated() -> Self {
        CircuitParams {
            beta: 2.5,
            pud_transfer_amp: 4.6,
            sense_deadzone: 0.0344,
            trial_noise_sigma: 0.0045,
            effective_trials: 10_000,
            frac_residual_sigma: 0.12,
            weak_t2_assertion: 0.90,
            weak_t1_restore: 0.96,
            weak_t2_restore: 0.875,
            overshare_per_ns: 4.0,
            mrc_latch_q_1_5: 0.50,
            mrc_latch_q_3: 0.965,
            mrc_latch_q_6: 0.995,
            restore_threshold: 0.812,
            restore_one_droop_per_row: 0.0015,
            group_spread_sigma: 0.22,
            temp_strength_per_c: 0.0006,
            temp_write_penalty_per_c: 0.00002,
            vpp_strength_per_v: 0.012,
        }
    }

    /// Effective per-cell transfer-variation amplification for an
    /// `n_rows`-row activation: grows linearly with the open-row count
    /// (wordline-boost droop), anchored at `pud_transfer_amp` for 32 rows.
    pub fn transfer_amp(&self, n_rows: usize) -> f64 {
        // A floor of 30 % keeps small-N activations noticeably noisy (the
        // violated window itself), with the droop term growing toward the
        // full amplification at 32 rows.
        self.pud_transfer_amp * (0.3 + 0.7 * n_rows as f64 / 32.0)
    }

    /// Assertion (charge-sharing) strength for an APA's simultaneously
    /// activated rows, scaling every sensing margin.
    pub fn assertion_strength(&self, timing: ApaTiming, cond: OperatingConditions) -> f64 {
        let mut s = 1.0;
        if timing.t2.as_ns() < 3.0 - 1e-9 {
            s *= self.weak_t2_assertion;
        }
        s * self.env_strength(cond)
    }

    /// Restore (overdrive) strength after an APA: how hard the amps /
    /// write drivers can rewrite the open cells.
    pub fn restore_strength(&self, timing: ApaTiming, cond: OperatingConditions) -> f64 {
        let mut s = 1.0;
        if timing.t1.as_ns() < 3.0 - 1e-9 {
            s *= self.weak_t1_restore;
        }
        if timing.t2.as_ns() < 3.0 - 1e-9 {
            s *= self.weak_t2_restore;
        }
        s * self.env_strength(cond)
    }

    /// The temperature/V_PP multiplier on transistor drive.
    pub fn env_strength(&self, cond: OperatingConditions) -> f64 {
        let temp = 1.0 + self.temp_strength_per_c * (cond.temperature_c - NOMINAL_TEMPERATURE_C);
        let vpp = 1.0 - self.vpp_strength_per_v * (NOMINAL_VPP - cond.vpp_v);
        (temp * vpp).max(0.0)
    }

    /// WR-driver quality (the tiny negative temperature slope of the
    /// WR-overdrive activation experiments, Obs. 3).
    pub fn write_quality(&self, cond: OperatingConditions) -> f64 {
        (1.0 - self.temp_write_penalty_per_c * (cond.temperature_c - NOMINAL_TEMPERATURE_C))
            .clamp(0.0, 1.0)
    }

    /// Per-row charge-share weights for a simultaneous activation where
    /// `first_index` is the position of `R_F` in the open-row list.
    ///
    /// `R_F`'s wordline has been asserted since the first ACT, so it keeps
    /// sharing charge for the whole `t1 + t2` window while the others only
    /// join at the second ACT: its weight grows with the ACT→ACT delay.
    pub fn share_weights(&self, n_rows: usize, first_index: usize, timing: ApaTiming) -> Vec<f64> {
        let mut w = vec![1.0; n_rows];
        if n_rows > 1 {
            w[first_index] = self.first_row_weight(n_rows, timing);
        }
        w
    }

    /// `R_F`'s charge-share weight alone (1.0 for every other row, and for
    /// single-row activations): the non-allocating form of
    /// [`CircuitParams::share_weights`] used by the sense hot path.
    pub fn first_row_weight(&self, n_rows: usize, timing: ApaTiming) -> f64 {
        if n_rows <= 1 {
            return 1.0;
        }
        let extra_ns = (timing.act_to_act_ns() - 4.5).max(0.0);
        1.0 + self.overshare_per_ns * extra_ns
    }

    /// Sense-amp latch quality for the Multi-RowCopy source phase as a
    /// function of t1 (Obs. 14/15): ≥ tRCD fully latches, shorter t1
    /// leaves the bitlines only partially driven.
    pub fn mrc_latch_quality(&self, t1_ns: f64) -> f64 {
        if t1_ns < 3.0 - 1e-9 {
            self.mrc_latch_q_1_5
        } else if t1_ns < 6.0 - 1e-9 {
            self.mrc_latch_q_3
        } else if t1_ns < 13.5 - 1e-9 {
            self.mrc_latch_q_6
        } else {
            1.0
        }
    }

    /// Restore drive multiplier when committing a logical `bit` to one of
    /// `n_open` simultaneously open rows while `frac_ones` of the row
    /// image is 1s.
    ///
    /// Restoring a 1 pulls on the V_PP-boosted wordline headroom; the
    /// droop scales with the *total* 1-restore load (open rows × fraction
    /// of 1s in the data), which is why copying all-1s to 31 rows dips
    /// while random data barely moves (Obs. 16).
    pub fn restore_drive(&self, bit: bool, n_open: usize, frac_ones: f64) -> f64 {
        if bit {
            (1.0 - self.restore_one_droop_per_row * n_open as f64 * frac_ones.clamp(0.0, 1.0))
                .max(0.0)
        } else {
            1.0
        }
    }
}

impl Default for CircuitParams {
    fn default() -> Self {
        CircuitParams::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_conditions() {
        let c = OperatingConditions::nominal();
        assert_eq!(c.temperature_c, 50.0);
        assert_eq!(c.vpp_v, 2.5);
    }

    #[test]
    fn assertion_strength_only_penalises_weak_t2() {
        let p = CircuitParams::calibrated();
        let nom = OperatingConditions::nominal();
        assert_eq!(p.assertion_strength(ApaTiming::from_ns(1.5, 3.0), nom), 1.0);
        assert!(p.assertion_strength(ApaTiming::from_ns(3.0, 1.5), nom) < 1.0);
    }

    #[test]
    fn restore_strength_penalises_both_grid_minimums() {
        let p = CircuitParams::calibrated();
        let nom = OperatingConditions::nominal();
        let best = p.restore_strength(ApaTiming::from_ns(3.0, 3.0), nom);
        let weak_t1 = p.restore_strength(ApaTiming::from_ns(1.5, 3.0), nom);
        let weak_t2 = p.restore_strength(ApaTiming::from_ns(3.0, 1.5), nom);
        let weak_both = p.restore_strength(ApaTiming::from_ns(1.5, 1.5), nom);
        assert_eq!(best, 1.0);
        assert!(weak_t1 < best && weak_t2 < weak_t1);
        assert!(weak_both < weak_t2);
    }

    #[test]
    fn env_strength_monotone_in_temp_and_vpp() {
        let p = CircuitParams::calibrated();
        let hot = p.env_strength(OperatingConditions::with_temperature(90.0));
        let cold = p.env_strength(OperatingConditions::with_temperature(50.0));
        assert!(hot > cold);
        let low_v = p.env_strength(OperatingConditions::with_vpp(2.1));
        let high_v = p.env_strength(OperatingConditions::with_vpp(2.5));
        assert!(low_v < high_v);
        // Both effects are small (a few percent at the extremes).
        assert!((hot / cold - 1.0).abs() < 0.05);
        assert!((1.0 - low_v / high_v).abs() < 0.05);
    }

    #[test]
    fn first_row_overshares_with_long_act_to_act() {
        let p = CircuitParams::calibrated();
        let tight = p.share_weights(4, 0, ApaTiming::from_ns(1.5, 3.0));
        let loose = p.share_weights(4, 0, ApaTiming::from_ns(3.0, 3.0));
        assert_eq!(tight[0], 1.0, "minimum ACT→ACT has equal shares");
        assert!(loose[0] > 1.0);
        assert_eq!(loose[1], 1.0);
        assert_eq!(
            p.share_weights(1, 0, ApaTiming::from_ns(36.0, 6.0)),
            vec![1.0]
        );
    }

    #[test]
    fn first_row_weight_agrees_with_share_weights() {
        let p = CircuitParams::calibrated();
        for (n, first) in [(1usize, 0usize), (2, 1), (8, 3), (32, 0)] {
            for t in [ApaTiming::from_ns(1.5, 3.0), ApaTiming::from_ns(3.0, 3.0)] {
                let w = p.share_weights(n, first, t);
                assert_eq!(w[first], p.first_row_weight(n, t));
                assert!(w.iter().enumerate().all(|(i, &x)| i == first || x == 1.0));
            }
        }
    }

    #[test]
    fn mrc_latch_quality_ordering() {
        let p = CircuitParams::calibrated();
        let q15 = p.mrc_latch_quality(1.5);
        let q3 = p.mrc_latch_quality(3.0);
        let q6 = p.mrc_latch_quality(6.0);
        let q36 = p.mrc_latch_quality(36.0);
        assert!(q15 < q3 && q3 < q6 && q6 < q36);
        assert_eq!(q36, 1.0);
    }

    #[test]
    fn restore_drive_droops_for_ones_at_high_n() {
        let p = CircuitParams::calibrated();
        assert_eq!(p.restore_drive(false, 32, 1.0), 1.0);
        assert!(p.restore_drive(true, 32, 1.0) < p.restore_drive(true, 2, 1.0));
        // Droop scales with the 1-fraction of the image.
        assert!(p.restore_drive(true, 32, 1.0) < p.restore_drive(true, 32, 0.5));
        assert_eq!(p.restore_drive(true, 32, 0.0), 1.0);
    }
}
