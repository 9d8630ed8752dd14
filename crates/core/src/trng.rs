//! True-random-number generation from simultaneous many-row activation —
//! the extension the paper points at (§10.1: "Our observations … could
//! also be leveraged to generate true random numbers", after QUAC-TRNG).
//!
//! Mechanism, following QUAC-TRNG's two phases:
//!
//! 1. **Identification**: initialise a 2^d-row group half with 1s and
//!    half with 0s and find the *TRNG columns* — bitlines whose
//!    charge-sharing tie lands within the sense amplifier's thermal-noise
//!    band. Most columns resolve deterministically (process variation
//!    skews their tie); only the metastable ones are entropy sources.
//! 2. **Harvest**: repeat the balanced activation and read the TRNG
//!    columns; a von Neumann corrector removes residual per-column bias.

use simra_bender::TestSetup;
use simra_dram::{ApaTiming, BitRow, Rng};

use crate::error::PudError;
use crate::rowgroup::{expect_simultaneous, GroupSpec};

/// The APA timing for TRNG: the minimum ACT→ACT delay, so the first row
/// does not over-share and skew the tie (same reasoning as MAJX, Obs. 7).
fn trng_timing() -> ApaTiming {
    ApaTiming::best_for_majx()
}

/// Prepares the balanced (half-1s / half-0s) initialisation and returns
/// the group's open rows.
fn prepare_balanced(setup: &mut TestSetup, group: &GroupSpec) -> Result<Vec<u32>, PudError> {
    let timing = trng_timing();
    let rows = expect_simultaneous(setup, group, timing)?;
    if rows.len() < 2 || rows.len() % 2 != 0 {
        return Err(PudError::GroupTooSmall {
            rows: rows.len(),
            required: 2,
        });
    }
    let geometry = *setup.module().geometry();
    let cols = geometry.cols_per_row as usize;
    for (i, &local) in rows.iter().enumerate() {
        let img = if i < rows.len() / 2 {
            BitRow::ones(cols)
        } else {
            BitRow::zeros(cols)
        };
        setup.init_row(group.bank, geometry.join_row(group.subarray, local), &img)?;
    }
    Ok(rows)
}

/// Identification phase: the columns whose balanced-activation tie falls
/// within `noise_band` sense-noise sigmas — the usable entropy sources.
///
/// # Errors
///
/// Group/sequencer validation errors.
pub fn find_trng_columns(
    setup: &mut TestSetup,
    group: &GroupSpec,
    noise_band: f64,
) -> Result<Vec<u32>, PudError> {
    let rows = prepare_balanced(setup, group)?;
    let geometry = *setup.module().geometry();
    let engine = setup.engine();
    let local_r_f = group.local_r_f(&geometry);
    let timing = trng_timing();
    let threshold = noise_band * engine.params().trial_noise_sigma;
    let subarray = setup
        .module_mut()
        .bank_mut(group.bank)?
        .subarray(group.subarray);
    let sense = engine.sense(subarray, &rows, local_r_f, timing);
    Ok((0..subarray.cols())
        .filter(|&c| (sense.deltas[c as usize] + subarray.sense_offset(c) as f64).abs() < threshold)
        .collect())
}

/// Harvest phase: one balanced activation, sampled with thermal noise,
/// read out on the given TRNG columns (one raw bit per column).
///
/// # Errors
///
/// Group/sequencer validation errors.
pub fn harvest_raw(
    setup: &mut TestSetup,
    group: &GroupSpec,
    columns: &[u32],
    rng: &mut Rng,
) -> Result<Vec<bool>, PudError> {
    let rows = prepare_balanced(setup, group)?;
    let geometry = *setup.module().geometry();
    let engine = setup.engine();
    let local_r_f = group.local_r_f(&geometry);
    let timing = trng_timing();
    let subarray = setup
        .module_mut()
        .bank_mut(group.bank)?
        .subarray(group.subarray);
    let sense = engine.sense_sampled(subarray, &rows, local_r_f, timing, rng);
    Ok(columns
        .iter()
        .map(|&c| sense.resolved.get(c as usize))
        .collect())
}

/// Von Neumann debiasing: `01 → 0`, `10 → 1`, equal pairs discarded.
pub fn von_neumann(raw_pairs: &[(bool, bool)]) -> Vec<bool> {
    raw_pairs
        .iter()
        .filter_map(|&(a, b)| if a != b { Some(a) } else { None })
        .collect()
}

/// Generates at least `min_bits` debiased random bits from repeated
/// balanced activations of `group` (or as many as a bounded number of
/// rounds yields — starvation means the group has too few TRNG columns).
///
/// # Errors
///
/// Propagates identification/harvest errors;
/// [`PudError::GroupTooSmall`] if the group exposes no TRNG columns.
pub fn generate_bits(
    setup: &mut TestSetup,
    group: &GroupSpec,
    min_bits: usize,
    rng: &mut Rng,
) -> Result<Vec<bool>, PudError> {
    let columns = find_trng_columns(setup, group, 1.5)?;
    if columns.is_empty() {
        return Err(PudError::GroupTooSmall {
            rows: 0,
            required: 1,
        });
    }
    let mut out = Vec::with_capacity(min_bits);
    let max_rounds = (8 * min_bits / columns.len().max(1)).max(16);
    for _ in 0..max_rounds {
        let first = harvest_raw(setup, group, &columns, rng)?;
        let second = harvest_raw(setup, group, &columns, rng)?;
        let pairs: Vec<(bool, bool)> = first.into_iter().zip(second).collect();
        out.extend(von_neumann(&pairs));
        if out.len() >= min_bits {
            out.truncate(min_bits);
            break;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rowgroup::random_group;
    use simra_dram::{BankId, SubarrayId, VendorProfile};

    fn env() -> (TestSetup, GroupSpec, Rng) {
        let setup = TestSetup::new(VendorProfile::mfr_h_m_die(), 4);
        let mut rng = Rng::seed_from_u64(8);
        let group = random_group(
            setup.module().geometry(),
            BankId::new(0),
            SubarrayId::new(0),
            16,
            &mut rng,
        )
        .unwrap();
        (setup, group, rng)
    }

    #[test]
    fn identification_finds_a_metastable_subset() {
        let (mut setup, group, _) = env();
        let cols = find_trng_columns(&mut setup, &group, 1.5).unwrap();
        let total = setup.module().geometry().cols_per_row as usize;
        assert!(!cols.is_empty(), "some columns must be metastable");
        assert!(cols.len() < total, "not every column is metastable");
        // Identification is deterministic.
        assert_eq!(cols, find_trng_columns(&mut setup, &group, 1.5).unwrap());
        // A wider band admits at least as many columns.
        let wide = find_trng_columns(&mut setup, &group, 3.0).unwrap();
        assert!(wide.len() >= cols.len());
    }

    #[test]
    fn harvests_on_trng_columns_are_noisy() {
        let (mut setup, group, mut rng) = env();
        let cols = find_trng_columns(&mut setup, &group, 1.5).unwrap();
        let a = harvest_raw(&mut setup, &group, &cols, &mut rng).unwrap();
        let b = harvest_raw(&mut setup, &group, &cols, &mut rng).unwrap();
        let differing = a.iter().zip(&b).filter(|(x, y)| x != y).count();
        assert!(differing > 0, "TRNG columns must flip between harvests");
    }

    #[test]
    fn von_neumann_removes_pairs() {
        let pairs = [(true, false), (false, true), (true, true), (false, false)];
        assert_eq!(von_neumann(&pairs), vec![true, false]);
    }

    #[test]
    fn generated_bits_are_roughly_balanced() {
        let (mut setup, group, mut rng) = env();
        let bits = generate_bits(&mut setup, &group, 500, &mut rng).unwrap();
        assert!(bits.len() >= 100, "harvest starved: {}", bits.len());
        let ones = bits.iter().filter(|b| **b).count() as f64 / bits.len() as f64;
        assert!(
            (0.35..=0.65).contains(&ones),
            "debiased stream should be near-fair: {ones}"
        );
    }

    #[test]
    fn successive_streams_differ() {
        let (mut setup, group, mut rng) = env();
        let a = generate_bits(&mut setup, &group, 64, &mut rng).unwrap();
        let b = generate_bits(&mut setup, &group, 64, &mut rng).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn odd_sized_groups_rejected() {
        let (mut setup, mut group, _) = env();
        group.local_rows = vec![group.local_rows[0]];
        group.r_s = group.r_f;
        let err = find_trng_columns(&mut setup, &group, 1.5).unwrap_err();
        assert!(matches!(
            err,
            PudError::GroupTooSmall { .. } | PudError::UnexpectedActivation { .. }
        ));
    }
}
