//! Calibration probe: prints headline numbers vs paper targets.
use simra_bender::TestSetup;
use simra_core::act::activation_success;
use simra_core::maj::{majx_success, MajConfig};
use simra_core::multirowcopy::multirowcopy_success;
use simra_core::rowgroup::{sample_groups, GroupSpec};
use simra_dram::{ApaTiming, DataPattern, Geometry, Rng, VendorProfile};

/// [`sample_groups`]' population, resolved to the rows each group opens.
fn sample(geom: &Geometry, n: u32, per_subarray: usize, rng: &mut Rng) -> Vec<GroupSpec> {
    sample_groups(geom, n, 2, 2, per_subarray, rng)
        .iter()
        .map(|pick| pick.resolve(geom))
        .collect()
}

fn main() {
    let mut rng = Rng::seed_from_u64(42);
    let mut setup = TestSetup::new(VendorProfile::mfr_h_m_die(), 7);
    let geom = *setup.module().geometry();
    let cfg = MajConfig::default();
    let t = ApaTiming::best_for_majx();

    for n in [4u32, 8, 16, 32] {
        let groups = sample(&geom, n, 5, &mut rng);
        let mut s3 = vec![];
        for g in &groups {
            s3.push(
                majx_success(&mut setup, g, 3, t, DataPattern::Random, &cfg, &mut rng)
                    .expect("fault-free MAJX probe always yields a sample"),
            );
        }
        println!(
            "MAJ3@{n}: {:.2}%",
            100.0 * s3.iter().sum::<f64>() / s3.len() as f64
        );
    }
    let groups = sample(&geom, 32, 5, &mut rng);
    for x in [5usize, 7, 9] {
        let mut s = vec![];
        for g in &groups {
            s.push(
                majx_success(&mut setup, g, x, t, DataPattern::Random, &cfg, &mut rng)
                    .expect("fault-free MAJX probe always yields a sample"),
            );
        }
        println!(
            "MAJ{x}@32: {:.2}% (paper: {})",
            100.0 * s.iter().sum::<f64>() / s.len() as f64,
            match x {
                5 => "79.64",
                7 => "33.87",
                _ => "5.91",
            }
        );
    }
    let mut s33 = vec![];
    for g in &groups {
        s33.push(
            majx_success(
                &mut setup,
                g,
                3,
                ApaTiming::from_ns(3.0, 3.0),
                DataPattern::Random,
                &cfg,
                &mut rng,
            )
            .expect("fault-free MAJX probe always yields a sample"),
        );
    }
    println!(
        "MAJ3@32 (3,3): {:.2}% (paper ~53.5)",
        100.0 * s33.iter().sum::<f64>() / s33.len() as f64
    );
    for x in [3usize, 5, 7, 9] {
        let mut s = vec![];
        for g in &groups {
            s.push(
                majx_success(&mut setup, g, x, t, DataPattern::Solid, &cfg, &mut rng)
                    .expect("fault-free MAJX probe always yields a sample"),
            );
        }
        println!(
            "MAJ{x}@32 solid: {:.2}%",
            100.0 * s.iter().sum::<f64>() / s.len() as f64
        );
    }
    for n in [2u32, 4, 8, 16, 32] {
        let groups = sample(&geom, n, 3, &mut rng);
        let mut s = vec![];
        for g in &groups {
            s.push(
                activation_success(
                    &mut setup,
                    g,
                    ApaTiming::best_for_activation(),
                    DataPattern::Random,
                    &mut rng,
                )
                .expect("fault-free activation probe always yields a sample"),
            );
        }
        println!(
            "ACT@{n}: {:.3}% (paper 99.85-99.99)",
            100.0 * s.iter().sum::<f64>() / s.len() as f64
        );
    }
    let cols = geom.cols_per_row as usize;
    for n in [2u32, 4, 8, 16, 32] {
        let groups = sample(&geom, n, 3, &mut rng);
        let mut s = vec![];
        for g in &groups {
            let img = DataPattern::Random.row_image(0, cols, &mut rng);
            s.push(
                multirowcopy_success(&mut setup, g, ApaTiming::best_for_multi_row_copy(), &img)
                    .expect("fault-free multi-row-copy probe always yields a sample"),
            );
        }
        println!(
            "MRC@{}dests: {:.3}% (paper 99.98+)",
            n - 1,
            100.0 * s.iter().sum::<f64>() / s.len() as f64
        );
    }
    let mut setup_m = TestSetup::new(VendorProfile::mfr_m_e_die(), 7);
    let geom_m = *setup_m.module().geometry();
    let groups_m = sample(&geom_m, 32, 5, &mut rng);
    for x in [3usize, 5, 7, 9] {
        let mut s = vec![];
        for g in &groups_m {
            s.push(
                majx_success(&mut setup_m, g, x, t, DataPattern::Random, &cfg, &mut rng)
                    .expect("fault-free MAJX probe always yields a sample"),
            );
        }
        println!(
            "MfrM MAJ{x}@32: {:.2}%",
            100.0 * s.iter().sum::<f64>() / s.len() as f64
        );
    }
}
