//! Property tests on the core data structures and invariants.
//!
//! Each property runs 256 cases; case `k` draws its inputs from
//! `Rng::seed_from_u64(k)`, and every failure message names the case.
//! Properties over a small finite domain enumerate all of it instead.
//! (The decoder's APA law is enumerated pair by pair in `simra-decoder`.)

use simra::dram::timing::IssueGrid;
use simra::dram::{ApaTiming, BitRow, Geometry, Rng};
use simra::pud::metrics::BoxStats;
use simra::pud::rowgroup::tile_groups;

/// Cases per sampled property.
const CASES: u64 = 256;

/// BitRow set/get round-trips at any index.
#[test]
fn bitrow_set_get_roundtrip() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let bits: Vec<bool> = (0..rng.gen_range(1usize..500)).map(|_| rng.gen()).collect();
        let mut row = BitRow::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            row.set(i, b);
        }
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(row.get(i), b, "case {case}: bit {i}");
        }
        let ones = bits.iter().filter(|&&b| b).count();
        assert_eq!(row.count_ones(), ones, "case {case}");
    }
}

/// Complement is an involution and flips every bit.
#[test]
fn bitrow_complement_involution() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let len = rng.gen_range(1usize..300);
        let row = BitRow::random(&mut rng, len);
        let comp = row.complement();
        assert_eq!(row.hamming(&comp), len, "case {case}: {len} bits");
        assert_eq!(comp.complement(), row, "case {case}: {len} bits");
    }
}

/// Hamming distance is a metric: symmetric, zero iff equal, triangle
/// inequality.
#[test]
fn bitrow_hamming_is_a_metric() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let len = rng.gen_range(1usize..200);
        let a = BitRow::random(&mut rng, len);
        let b = BitRow::random(&mut rng, len);
        let c = BitRow::random(&mut rng, len);
        let at = format!("case {case}: {len} bits");
        assert_eq!(a.hamming(&b), b.hamming(&a), "{at}");
        assert_eq!(a.hamming(&a), 0, "{at}");
        assert!(a.hamming(&c) <= a.hamming(&b) + b.hamming(&c), "{at}");
        assert_eq!(a.matches(&b) + a.hamming(&b), len, "{at}");
    }
}

/// Subarray tiling is a perfect partition for every modelled size.
#[test]
fn tiling_partitions_any_subarray() {
    for rows in [64u32, 128, 256, 512, 640, 1024] {
        let geometry = Geometry {
            rows_per_subarray: rows,
            ..Geometry::default()
        };
        let groups = tile_groups(
            &geometry,
            simra::dram::BankId::new(0),
            simra::dram::SubarrayId::new(0),
        );
        let mut covered = vec![0u32; rows as usize];
        for g in &groups {
            for &r in &g.local_rows {
                covered[r as usize] += 1;
            }
        }
        assert!(covered.iter().all(|c| *c == 1), "{rows}-row subarray");
    }
}

/// Issue-grid snapping always lands on a positive multiple of 1.5 ns
/// within half a step of the request.
#[test]
fn issue_grid_snapping() {
    for case in 0..CASES {
        let ns = Rng::seed_from_u64(case).gen_range(0.0..100.0);
        let snapped = IssueGrid::from_ns(ns).as_ns();
        let at = format!("case {case}: {ns} ns → {snapped} ns");
        assert!(snapped >= 1.5 - 1e-12, "{at}");
        let steps = snapped / 1.5;
        assert!((steps - steps.round()).abs() < 1e-9, "{at}");
        if ns >= 1.5 {
            assert!((snapped - ns).abs() <= 0.75 + 1e-9, "{at}");
        }
    }
}

/// ApaTiming::act_to_act is the sum of its parts and grid-consistent.
#[test]
fn apa_timing_sums() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let (t1, t2) = (rng.gen_range(1.0..40.0), rng.gen_range(1.0..40.0));
        let t = ApaTiming::from_ns(t1, t2);
        let sum = t.t1.as_ns() + t.t2.as_ns();
        assert!(
            (t.act_to_act_ns() - sum).abs() < 1e-9,
            "case {case}: t1 {t1}, t2 {t2}"
        );
    }
}

/// BoxStats quartiles are ordered and bounded by min/max; the mean lies
/// within [min, max].
#[test]
fn box_stats_invariants() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let samples: Vec<f64> = (0..rng.gen_range(1usize..100)).map(|_| rng.gen()).collect();
        let s = BoxStats::from_samples(&samples);
        let at = format!("case {case}: {s:?}");
        assert!(s.min <= s.q1 && s.q1 <= s.median, "{at}");
        assert!(s.median <= s.q3 && s.q3 <= s.max, "{at}");
        assert!(s.mean >= s.min - 1e-12 && s.mean <= s.max + 1e-12, "{at}");
        assert!(s.iqr() >= 0.0, "{at}");
        assert_eq!(s.count, samples.len(), "{at}");
    }
}

/// The normal CDF is monotone, symmetric, and bounded.
#[test]
fn phi_properties() {
    let phi = simra::analog::math::phi;
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let (x, dx) = (rng.gen_range(-6.0..6.0), rng.gen_range(0.001..2.0));
        let at = format!("case {case}: x {x}, dx {dx}");
        assert!(phi(x) > 0.0 && phi(x) < 1.0, "{at}");
        assert!(phi(x + dx) >= phi(x), "{at}");
        assert!((phi(x) + phi(-x) - 1.0).abs() < 1e-6, "{at}");
    }
}

/// Survival probability is monotone in margin and anti-monotone in
/// trial count.
#[test]
fn survival_monotonicity() {
    let f = |margin: f64, trials: u32| {
        simra::analog::sense::survival_probability(margin, 0.03, 0.0045, trials)
    };
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let (m, dm) = (rng.gen_range(-0.1..0.2), rng.gen_range(0.0001..0.05));
        let at = format!("case {case}: margin {m}, step {dm}");
        assert!(f(m + dm, 10_000) >= f(m, 10_000), "{at}");
        assert!(f(m, 1_000) >= f(m, 10_000), "{at}");
        assert!((0.0..=1.0).contains(&f(m, 10_000)), "{at}");
    }
}

/// `majority` agrees with a per-column counting reference for any odd
/// operand count.
#[test]
fn majority_matches_reference() {
    let cols = 96;
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let x = [1usize, 3, 5, 7, 9][rng.gen_range(0..5usize)];
        let ops: Vec<BitRow> = (0..x).map(|_| BitRow::random(&mut rng, cols)).collect();
        let got = simra::pud::maj::majority(&ops);
        for c in 0..cols {
            let ones = ops.iter().filter(|o| o.get(c)).count();
            assert_eq!(got.get(c), 2 * ones > x, "case {case}: MAJ{x}, column {c}");
        }
    }
}

/// MAJX layouts partition the group: X·r operand rows + (N mod X)
/// neutral rows, all disjoint, all from the group. The cases cycle
/// through every (N, X) with N ≥ X.
#[test]
fn maj_layout_partitions_the_group() {
    let shapes: Vec<(u32, usize)> = [4u32, 8, 16, 32]
        .into_iter()
        .flat_map(|n| [3usize, 5, 7, 9].map(|x| (n, x)))
        .filter(|&(n, x)| n as usize >= x)
        .collect();
    let geometry = Geometry::default();
    for case in 0..CASES {
        let (n, x) = shapes[case as usize % shapes.len()];
        let at = format!("case {case}: N {n}, MAJ{x}");
        let group = simra::pud::rowgroup::random_group(
            &geometry,
            simra::dram::BankId::new(0),
            simra::dram::SubarrayId::new(0),
            n,
            &mut Rng::seed_from_u64(case),
        )
        .expect("512-row subarrays host all power-of-two groups");
        let layout = simra::pud::maj::plan_layout(&group, x).expect("n >= x");
        let r = n as usize / x;
        assert_eq!(layout.replication(), r, "{at}");
        assert_eq!(layout.neutral_rows.len(), n as usize % x, "{at}");
        let mut seen = std::collections::BTreeSet::new();
        for rows in &layout.operand_rows {
            assert_eq!(rows.len(), r, "{at}");
            for row in rows {
                assert!(group.local_rows.contains(row), "{at}: row {row}");
                assert!(seen.insert(*row), "{at}: rows must be disjoint");
            }
        }
        for row in &layout.neutral_rows {
            assert!(seen.insert(*row), "{at}: neutral rows must be disjoint too");
        }
        assert_eq!(seen.len(), n as usize, "{at}");
    }
}

/// Random groups always sit inside their subarray and contain both APA
/// targets.
#[test]
fn random_groups_are_well_formed() {
    let geometry = Geometry::default();
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let n = [2u32, 4, 8, 16, 32][rng.gen_range(0..5usize)];
        let sa = rng.gen_range(0u16..8);
        let at = format!("case {case}: N {n}, subarray {sa}");
        if let Some(g) = simra::pud::rowgroup::random_group(
            &geometry,
            simra::dram::BankId::new(3),
            simra::dram::SubarrayId::new(sa),
            n,
            &mut rng,
        ) {
            assert_eq!(g.n_rows(), n as usize, "{at}");
            let (sa_f, lf) = geometry.split_row(g.r_f).unwrap();
            let (sa_s, ls) = geometry.split_row(g.r_s).unwrap();
            assert_eq!(sa_f.raw(), sa, "{at}");
            assert_eq!(sa_s.raw(), sa, "{at}");
            assert!(g.local_rows.contains(&lf), "{at}");
            assert!(g.local_rows.contains(&ls), "{at}");
            assert!(
                g.local_rows.iter().all(|r| *r < geometry.rows_per_subarray),
                "{at}"
            );
        }
    }
}

/// Power grows monotonically with the activation count and a wipe never
/// gets slower with a bigger fan-out, for every fan-out up to 32.
#[test]
fn power_and_wipe_monotonicity() {
    let power = simra::bender::PowerModel::ddr4();
    let timing = simra::dram::TimingParams::ddr4_2666();
    let wipe = |k: u32| {
        simra::casestudy::coldboot::wipe_time_ns(
            simra::casestudy::coldboot::WipeStrategy::MultiRowCopy { n: k },
            65_536,
            512,
            &timing,
        )
    };
    for n in 2u32..=31 {
        assert!(
            power.many_row_activation_mw(n + 1) > power.many_row_activation_mw(n),
            "power at N = {n}"
        );
        assert!(wipe(n + 1) <= wipe(n), "wipe at N = {n}");
    }
}

/// BitRow operators respect De Morgan's laws.
#[test]
fn bitrow_de_morgan() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let len = rng.gen_range(1usize..200);
        let a = BitRow::random(&mut rng, len);
        let b = BitRow::random(&mut rng, len);
        let at = format!("case {case}: {len} bits");
        assert_eq!(!&(&a & &b), &(!&a) | &(!&b), "{at}");
        assert_eq!(!&(&a | &b), &(!&a) & &(!&b), "{at}");
        assert_eq!(&(&a ^ &b) ^ &b, a, "{at}");
    }
}

/// A FaultPlan's JSON is its fingerprint in a checkpoint manifest, so
/// rendering must be a function of the plan and must tell every field
/// apart: the same plan renders the same document twice, and changing
/// any single field — one ulp of a float, one seed bit, one module
/// event, the droop, the deadline — renders a different one.
#[test]
fn fault_plan_rendering_is_stable_and_tells_fields_apart() {
    use simra::faults::{CellFaultSpec, FaultPlan, ModuleFault, ModuleFaultKind, VppDroop};
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(case);
        let seed = rng.next_u64();
        let choices: Vec<u8> = (0..3).map(|_| rng.next_u64() as u8).collect();
        let groups: Vec<usize> = (0..3).map(|_| rng.gen_range(0..6usize)).collect();
        let stall = rng.gen_range(0.0..50.0);
        let with_cells = rng.gen::<bool>();
        let with_droop = rng.gen::<bool>();
        let with_deadline = rng.gen::<bool>();
        let shift_milli = rng.next_u64() as u8;
        let modules: Vec<ModuleFault> = choices
            .iter()
            .zip(&groups)
            .enumerate()
            .filter_map(|(i, (&c, &g))| {
                let kind = match c % 4 {
                    0 => return None,
                    1 => ModuleFaultKind::Dropout {
                        at_group: g,
                        recover_after_attempts: (c >= 128).then_some(u32::from(c) % 3),
                    },
                    2 => ModuleFaultKind::PanicAt { at_group: g },
                    _ => ModuleFaultKind::Hang {
                        at_group: g,
                        stall_ms: stall,
                    },
                };
                Some(ModuleFault {
                    module_index: i,
                    kind,
                })
            })
            .collect();
        let cells = CellFaultSpec {
            seed: seed ^ 0x5EED,
            stuck_per_million: 50.0 + stall,
            sense_offset_shift: (f32::from(shift_milli) - 128.0) / 1000.0,
        };
        let droop = VppDroop {
            delta_v: 0.4 + stall * 1e-3,
            from_group: groups[0],
            to_group: groups[0] + groups[1] + 1,
        };
        let plan = FaultPlan {
            seed,
            cells: with_cells.then_some(cells),
            modules,
            vpp_droop: with_droop.then_some(droop),
            deadline_ms: with_deadline.then_some(stall + 5.0),
        };
        let at = format!("case {case}: {plan:?}");
        let rendered = plan.to_json();
        assert_eq!(
            plan.clone().to_json(),
            rendered,
            "{at}: rendering must be stable"
        );

        let differs = |what: &str, change: &dyn Fn(&mut FaultPlan)| {
            let mut variant = plan.clone();
            change(&mut variant);
            assert_ne!(variant, plan, "{at}: {what} left the plan unchanged");
            assert_ne!(
                variant.to_json(),
                rendered,
                "{at}: changing {what} left the rendering unchanged"
            );
        };
        fn cells_of(p: &mut FaultPlan) -> &mut CellFaultSpec {
            p.cells.as_mut().expect("the plan has cells")
        }
        fn droop_of(p: &mut FaultPlan) -> &mut VppDroop {
            p.vpp_droop.as_mut().expect("the plan has a droop")
        }
        fn up(x: &mut f64) {
            *x = x.next_up();
        }
        differs("seed", &|p| p.seed ^= 1);
        match plan.cells {
            Some(_) => {
                differs("cells.seed", &|p| cells_of(p).seed ^= 1);
                differs("cells.stuck_per_million", &|p| {
                    up(&mut cells_of(p).stuck_per_million)
                });
                differs("cells.sense_offset_shift", &|p| {
                    let shift = &mut cells_of(p).sense_offset_shift;
                    *shift = shift.next_up();
                });
                differs("cells removed", &|p| p.cells = None);
            }
            None => differs("cells added", &|p| p.cells = Some(cells)),
        }
        for (i, event) in plan.modules.iter().enumerate() {
            let mut kinds = vec![("at_group", event.kind)];
            match &mut kinds[0].1 {
                ModuleFaultKind::Dropout { at_group, .. }
                | ModuleFaultKind::PanicAt { at_group }
                | ModuleFaultKind::Hang { at_group, .. } => *at_group += 1,
            }
            match event.kind {
                ModuleFaultKind::Dropout {
                    at_group,
                    recover_after_attempts,
                } => kinds.push((
                    "recover_after_attempts",
                    ModuleFaultKind::Dropout {
                        at_group,
                        recover_after_attempts: match recover_after_attempts {
                            Some(k) => (k == 0).then_some(1),
                            None => Some(0),
                        },
                    },
                )),
                ModuleFaultKind::Hang { at_group, stall_ms } => kinds.push((
                    "stall_ms",
                    ModuleFaultKind::Hang {
                        at_group,
                        stall_ms: stall_ms.next_up(),
                    },
                )),
                ModuleFaultKind::PanicAt { .. } => {}
            }
            for (field, kind) in kinds {
                differs(&format!("modules[{i}].{field}"), &|p| {
                    p.modules[i].kind = kind
                });
            }
            differs(&format!("modules[{i}].module_index"), &|p| {
                p.modules[i].module_index += 1
            });
            differs(&format!("modules[{i}] removed"), &|p| {
                p.modules.remove(i);
            });
        }
        match plan.vpp_droop {
            Some(_) => {
                differs("vpp_droop.delta_v", &|p| up(&mut droop_of(p).delta_v));
                differs("vpp_droop.from_group", &|p| droop_of(p).from_group += 1);
                differs("vpp_droop.to_group", &|p| droop_of(p).to_group += 1);
                differs("vpp_droop removed", &|p| p.vpp_droop = None);
            }
            None => differs("vpp_droop added", &|p| p.vpp_droop = Some(droop)),
        }
        match plan.deadline_ms {
            Some(_) => {
                differs("deadline_ms", &|p| up(p.deadline_ms.as_mut().unwrap()));
                differs("deadline_ms removed", &|p| p.deadline_ms = None);
            }
            None => differs("deadline_ms added", &|p| p.deadline_ms = Some(stall + 5.0)),
        }
    }
}
