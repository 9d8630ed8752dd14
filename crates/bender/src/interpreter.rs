//! The program interpreter: executes a [`BenderProgram`] against the
//! mounted module, command by command, with a running clock.
//!
//! This is the closest analogue to what the real DRAM Bender FPGA does:
//! the host hands it a timed command stream and the hardware replays it
//! exactly. The interpreter
//!
//! * feeds every command through the [`ProtocolChecker`] so the run
//!   reports exactly which JEDEC rules it (deliberately) violated,
//! * resolves `ACT → PRE → ACT` pairs through the row decoder with the
//!   *actual elapsed* t1/t2 of the stream — so the same program text
//!   performs MAJX, RowClone, or Multi-RowCopy purely depending on its
//!   timing, exactly as on silicon,
//! * applies sense/restore semantics through the analog engine, and
//! * collects `RD` read-outs.

use simra_decoder::{ApaOutcome, RowDecoder};
use simra_dram::protocol::{ProtocolChecker, Violation};
use simra_dram::{ApaTiming, BitRow, Command, RowAddr, SubarrayId};

use crate::program::{BenderInstr, BenderProgram};
use crate::sequencer::SequencerError;
use crate::setup::TestSetup;

/// Outcome of executing one program.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgramRun {
    /// Total program latency (ns).
    pub latency_ns: f64,
    /// Commands issued.
    pub commands: usize,
    /// Timing violations the stream performed (the PUD mechanism!).
    pub violations: Vec<Violation>,
    /// State-machine errors (e.g. RD on a precharged bank).
    pub state_errors: usize,
    /// Images returned by `RD` commands, in issue order.
    pub reads: Vec<BitRow>,
}

/// Per-bank interpreter state.
#[derive(Debug, Clone)]
struct BankRun {
    /// Last ACT: (bank-level row, issue time).
    last_act: Option<(RowAddr, f64)>,
    /// Last PRE issue time.
    last_pre: Option<f64>,
    /// Currently open local rows and their subarray.
    open: Option<(SubarrayId, Vec<u32>)>,
    /// What the sense amplifiers currently drive.
    latched: Option<BitRow>,
    /// Restore strength of the in-flight activation (for WR commits).
    restore: f64,
}

impl BankRun {
    fn new() -> Self {
        BankRun {
            last_act: None,
            last_pre: None,
            open: None,
            latched: None,
            restore: 1.0,
        }
    }
}

impl TestSetup {
    /// Executes `program`, applying device semantics and recording
    /// protocol violations. `write_image` is the data payload every `WR`
    /// command drives (the real tester programs its write buffers
    /// up-front the same way).
    ///
    /// # Errors
    ///
    /// Device errors (bad addresses, a `WR` image of the wrong width),
    /// cross-subarray APA targets, and a wait that is negative, NaN or
    /// infinite.
    pub fn run_program(
        &mut self,
        program: &BenderProgram,
        write_image: Option<&BitRow>,
    ) -> Result<ProgramRun, SequencerError> {
        let geometry = *self.module().geometry();
        let timing = self.module().profile().timing;
        let mut checker = ProtocolChecker::new(timing, geometry.banks);
        let mut banks: Vec<BankRun> = (0..geometry.banks).map(|_| BankRun::new()).collect();
        let mut clock_ns = 0.0f64;
        let mut commands = 0usize;
        let mut reads = Vec::new();

        for instr in program.instrs() {
            match instr {
                BenderInstr::WaitNs(ns) => {
                    // A NaN or infinite clock would make every later
                    // ACT → PRE → ACT read as a plain activation.
                    if !(ns.is_finite() && *ns >= 0.0) {
                        return Err(SequencerError::InvalidWait { ns: *ns });
                    }
                    clock_ns += ns;
                }
                BenderInstr::Command(cmd) => {
                    // Validate the bank before the checker sees the
                    // command: the checker's bookkeeping is indexed by
                    // bank and treats an out-of-range id as a harness
                    // bug, not a device error.
                    self.module().bank(cmd.bank())?;
                    checker.observe(clock_ns, *cmd);
                    commands += 1;
                    // Commands are instantaneous on the clock; the 1.5 ns
                    // issue slot only contributes to the program's total
                    // latency accounting, not to inter-command timing.
                    self.apply_command(
                        *cmd,
                        clock_ns,
                        &geometry,
                        &mut banks,
                        write_image,
                        &mut reads,
                    )?;
                }
            }
        }
        Ok(ProgramRun {
            latency_ns: program.latency_ns(),
            commands,
            violations: checker.violations().to_vec(),
            state_errors: checker.state_errors().len(),
            reads,
        })
    }

    fn apply_command(
        &mut self,
        cmd: Command,
        at_ns: f64,
        geometry: &simra_dram::Geometry,
        banks: &mut [BankRun],
        write_image: Option<&BitRow>,
        reads: &mut Vec<BitRow>,
    ) -> Result<(), SequencerError> {
        let bank_id = cmd.bank();
        self.module().bank(bank_id)?;
        let idx = bank_id.raw() as usize;
        match cmd {
            Command::Activate { row, .. } => {
                let (sa, local) = geometry.split_row(row)?;
                let apa = match (&banks[idx].last_act, &banks[idx].last_pre) {
                    (Some((prev_row, act_t)), Some(pre_t))
                        if pre_t > act_t && at_ns - pre_t < timing_trp(self) =>
                    {
                        // A PRE is still in flight: this is the second ACT
                        // of an APA pair with measured t1/t2.
                        Some((*prev_row, ApaTiming::from_ns(pre_t - act_t, at_ns - pre_t)))
                    }
                    _ => None,
                };
                match apa {
                    None => {
                        // Plain activation: open one row, latch its image.
                        let image = self.module_mut().bank_mut(bank_id)?.read_row_nominal(row)?;
                        banks[idx].open = Some((sa, vec![local]));
                        banks[idx].latched = Some(image);
                        banks[idx].restore = 1.0;
                    }
                    Some((prev_row, apa_timing)) => {
                        let (sa_f, local_f) = geometry.split_row(prev_row)?;
                        if sa_f != sa {
                            return Err(SequencerError::CrossSubarray {
                                first: sa_f,
                                second: sa,
                            });
                        }
                        self.apply_apa(bank_id, sa, local_f, local, apa_timing, &mut banks[idx])?;
                    }
                }
                banks[idx].last_act = Some((row, at_ns));
            }
            Command::Precharge { .. } => {
                banks[idx].last_pre = Some(at_ns);
                // The wordlines only actually de-assert if no violating
                // ACT interrupts; that is decided when the next ACT
                // arrives. Closing the "open" bookkeeping happens lazily.
                if let Some((_, t)) = banks[idx].last_act {
                    if at_ns - t >= self.module().profile().timing.t_ras_ns {
                        banks[idx].open = None;
                        banks[idx].latched = None;
                    }
                }
            }
            Command::Write { .. } => {
                if let (Some((sa, rows)), Some(img)) = (&banks[idx].open, write_image) {
                    let engine = self.engine();
                    let restore = banks[idx].restore;
                    let rows = rows.clone();
                    let sa = *sa;
                    if img.len() != geometry.cols_per_row as usize {
                        return Err(SequencerError::Dram(simra_dram::DramError::WidthMismatch {
                            got: img.len(),
                            expected: geometry.cols_per_row as usize,
                        }));
                    }
                    let subarray = self.module_mut().bank_mut(bank_id)?.subarray(sa);
                    engine.commit(subarray, &rows, img, restore);
                    banks[idx].latched = Some(img.clone());
                }
            }
            Command::Read { .. } => {
                if let Some(img) = &banks[idx].latched {
                    reads.push(img.clone());
                }
            }
            Command::Refresh { .. } => {
                // Refresh needs a precharged bank (the checker flags
                // anything else); device state is unchanged at this
                // abstraction level.
            }
        }
        Ok(())
    }

    fn apply_apa(
        &mut self,
        bank_id: simra_dram::BankId,
        sa: SubarrayId,
        local_f: u32,
        local_s: u32,
        apa_timing: ApaTiming,
        bank: &mut BankRun,
    ) -> Result<(), SequencerError> {
        let geometry = *self.module().geometry();
        let guard = self.module().profile().apa_guard;
        // simra-decoder is the one authority on APA row resolution —
        // the interpreter must agree with the sequencer by construction.
        let outcome = RowDecoder::resolve_in_subarray(
            geometry.rows_per_subarray,
            local_f,
            local_s,
            apa_timing,
            guard,
        );
        let engine = self.engine();
        let restore = engine
            .params()
            .restore_strength(apa_timing, self.conditions());
        bank.restore = restore;
        match outcome {
            ApaOutcome::Simultaneous { rows } => {
                let t1 = apa_timing.t1.as_ns();
                if t1 >= self.module().profile().timing.t_rcd_ns {
                    // Multi-RowCopy regime: the amps latched R_F before
                    // the interrupted precharge; they overwrite every
                    // open row with it.
                    let src = geometry.join_row(sa, local_f);
                    let image = self.module_mut().bank_mut(bank_id)?.read_row_nominal(src)?;
                    let subarray = self.module_mut().bank_mut(bank_id)?.subarray(sa);
                    engine.commit(subarray, &rows, &image, restore);
                    bank.latched = Some(image);
                } else {
                    // Charge-sharing regime: the amps resolve the
                    // many-row tie (MAJ semantics) and restore it.
                    let subarray = self.module_mut().bank_mut(bank_id)?.subarray(sa);
                    let sense = engine.sense(subarray, &rows, local_f, apa_timing);
                    engine.commit(subarray, &rows, &sense.resolved, restore);
                    bank.latched = Some(sense.resolved);
                }
                bank.open = Some((sa, rows));
            }
            ApaOutcome::Consecutive { first, second } => {
                // RowClone: the latched source overwrites the destination.
                let src = geometry.join_row(sa, first);
                let image = self.module_mut().bank_mut(bank_id)?.read_row_nominal(src)?;
                let subarray = self.module_mut().bank_mut(bank_id)?.subarray(sa);
                engine.commit(subarray, &[second], &image, restore);
                bank.latched = Some(image);
                bank.open = Some((sa, vec![second]));
            }
            ApaOutcome::GuardedSingle { row } => {
                let addr = geometry.join_row(sa, row);
                let image = self
                    .module_mut()
                    .bank_mut(bank_id)?
                    .read_row_nominal(addr)?;
                bank.latched = Some(image);
                bank.open = Some((sa, vec![row]));
            }
        }
        Ok(())
    }
}

fn timing_trp(setup: &TestSetup) -> f64 {
    setup.module().profile().timing.t_rp_ns
}

#[cfg(test)]
mod tests {
    use super::*;
    use simra_dram::{BankId, DataPattern, VendorProfile};

    fn setup() -> TestSetup {
        TestSetup::new(VendorProfile::mfr_h_m_die(), 64)
    }

    /// APA(0, 7) with `t1`/`t2` ns, then `WR`: the §3.2 activation test
    /// as a program, on a rig whose rows 0..8 of `bank` hold zeros.
    fn apa_write_program(s: &mut TestSetup, bank: BankId, t1: f64, t2: f64) -> BenderProgram {
        let cols = s.module().geometry().cols_per_row as usize;
        for r in 0..8u32 {
            s.init_row(bank, RowAddr::new(r), &BitRow::zeros(cols))
                .unwrap();
        }
        let timing = s.module().profile().timing;
        let mut p = BenderProgram::new();
        p.command(Command::Activate {
            bank,
            row: RowAddr::new(0),
        })
        .wait_ns(t1)
        .command(Command::Precharge { bank })
        .wait_ns(t2)
        .command(Command::Activate {
            bank,
            row: RowAddr::new(7),
        })
        .wait_ns(timing.t_rcd_ns)
        .command(Command::Write { bank })
        .wait_ns(timing.t_wr_ns)
        .command(Command::Precharge { bank })
        .wait_ns(timing.t_rp_ns);
        p
    }

    #[test]
    fn apa_program_reports_its_violations_and_wipes() {
        let mut s = setup();
        let cols = s.module().geometry().cols_per_row as usize;
        let bank = BankId::new(0);
        let p = apa_write_program(&mut s, bank, 3.0, 3.0);
        let ones = BitRow::ones(cols);
        let run = s.run_program(&p, Some(&ones)).unwrap();
        assert_eq!(run.commands, 5);
        // tRAS and tRP were both violated on purpose.
        let rules: Vec<String> = run.violations.iter().map(|v| v.rule.to_string()).collect();
        assert!(
            rules.contains(&"tRAS".into()) && rules.contains(&"tRP".into()),
            "{rules:?}"
        );
        // Rows 0, 1, 6, 7 were simultaneously open and took the write.
        for r in [0u32, 1, 6, 7] {
            let img = s.read_row(bank, RowAddr::new(r)).unwrap();
            assert!(img.count_ones() as f64 / cols as f64 > 0.99, "row {r}");
        }
        let untouched = s.read_row(bank, RowAddr::new(2)).unwrap();
        assert_eq!(untouched.count_ones(), 0);
    }

    #[test]
    fn weak_timing_write_fails_many_cells() {
        let mut s = setup();
        let cols = s.module().geometry().cols_per_row as usize;
        let bank = BankId::new(0);
        let p = apa_write_program(&mut s, bank, 1.5, 1.5);
        s.run_program(&p, Some(&BitRow::ones(cols))).unwrap();
        let stored: usize = [0u32, 1, 6, 7]
            .iter()
            .map(|&r| s.read_row(bank, RowAddr::new(r)).unwrap().count_ones())
            .sum();
        let frac = stored as f64 / (4 * cols) as f64;
        assert!(
            frac < 0.95,
            "grid-minimum timing should visibly fail: {frac}"
        );
    }

    #[test]
    fn write_image_of_the_wrong_width_is_a_typed_error() {
        let mut s = setup();
        let p = BenderProgram::write_row(
            BankId::new(0),
            RowAddr::new(0),
            &s.module().profile().timing,
        );
        let err = s.run_program(&p, Some(&BitRow::ones(8))).unwrap_err();
        assert!(
            matches!(
                err,
                SequencerError::Dram(simra_dram::DramError::WidthMismatch { got: 8, .. })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn rowclone_program_copies_by_timing_alone() {
        let mut s = setup();
        let cols = s.module().geometry().cols_per_row as usize;
        let bank = BankId::new(1);
        let mut rng = simra_dram::Rng::seed_from_u64(5);
        let img = DataPattern::Random.row_image(0, cols, &mut rng);
        s.init_row(bank, RowAddr::new(3), &img).unwrap();
        s.init_row(bank, RowAddr::new(9), &BitRow::zeros(cols))
            .unwrap();
        // Same program shape as APA, but t1 = tRAS and t2 = 6 ns:
        // consecutive activation ⇒ RowClone.
        let p = BenderProgram::apa(
            bank,
            RowAddr::new(3),
            RowAddr::new(9),
            ApaTiming::row_clone(),
            &s.module().profile().timing,
        );
        let run = s.run_program(&p, None).unwrap();
        // tRAS was honoured; only the precharge was interrupted.
        let rules: Vec<String> = run.violations.iter().map(|v| v.rule.to_string()).collect();
        assert_eq!(rules, vec!["tRP"]);
        assert_eq!(s.read_row(bank, RowAddr::new(9)).unwrap(), img);
        assert_eq!(s.read_row(bank, RowAddr::new(3)).unwrap(), img);
    }

    #[test]
    fn multirowcopy_program_fans_out_by_timing_alone() {
        let mut s = setup();
        let cols = s.module().geometry().cols_per_row as usize;
        let bank = BankId::new(2);
        s.init_row(bank, RowAddr::new(0), &BitRow::ones(cols))
            .unwrap();
        for r in 1..8u32 {
            s.init_row(bank, RowAddr::new(r), &BitRow::zeros(cols))
                .unwrap();
        }
        // t1 = 36 ns ≥ tRCD, t2 = 3 ns: Multi-RowCopy of row 0 over the
        // {0,1,6,7} group — wait, ACT 0 → ACT 7 opens {0,1,6,7}.
        let p = BenderProgram::apa(
            bank,
            RowAddr::new(0),
            RowAddr::new(7),
            ApaTiming::best_for_multi_row_copy(),
            &s.module().profile().timing,
        );
        s.run_program(&p, None).unwrap();
        for r in [1u32, 6, 7] {
            let img = s.read_row(bank, RowAddr::new(r)).unwrap();
            assert!(img.count_ones() as f64 / cols as f64 > 0.99, "row {r}");
        }
        // Rows outside the group still zero.
        assert_eq!(s.read_row(bank, RowAddr::new(2)).unwrap().count_ones(), 0);
    }

    #[test]
    fn reads_return_the_latched_image() {
        let mut s = setup();
        let cols = s.module().geometry().cols_per_row as usize;
        let bank = BankId::new(3);
        let img = BitRow::ones(cols);
        s.init_row(bank, RowAddr::new(4), &img).unwrap();
        let p = BenderProgram::read_row(bank, RowAddr::new(4), &s.module().profile().timing);
        let run = s.run_program(&p, None).unwrap();
        assert!(run.violations.is_empty() && run.state_errors == 0);
        assert_eq!(run.reads, vec![img]);
    }

    #[test]
    fn negative_wait_is_a_typed_error() {
        // NaN and +∞ as well: either would stop the clock from measuring
        // t1/t2, so a later APA would pass as two plain activations.
        for bad in [-5.0, f64::NAN, f64::INFINITY] {
            let mut s = setup();
            let mut p = BenderProgram::new();
            p.command(Command::Activate {
                bank: BankId::new(0),
                row: RowAddr::new(0),
            })
            .wait_ns(bad)
            .command(Command::Precharge {
                bank: BankId::new(0),
            });
            let err = s.run_program(&p, None).unwrap_err();
            assert!(
                matches!(err, SequencerError::InvalidWait { ns } if ns.to_bits() == bad.to_bits()),
                "{bad}: {err:?}"
            );
        }
    }

    #[test]
    fn out_of_range_bank_is_a_typed_error() {
        let mut s = setup();
        let mut p = BenderProgram::new();
        p.command(Command::Activate {
            bank: BankId::new(99),
            row: RowAddr::new(0),
        });
        let err = s.run_program(&p, None).unwrap_err();
        assert!(matches!(err, SequencerError::Dram(_)), "{err:?}");
    }

    #[test]
    fn legal_programs_are_violation_free() {
        let mut s = setup();
        let bank = BankId::new(0);
        let p = BenderProgram::write_row(bank, RowAddr::new(0), &s.module().profile().timing);
        let cols = s.module().geometry().cols_per_row as usize;
        let run = s.run_program(&p, Some(&BitRow::ones(cols))).unwrap();
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        assert_eq!(run.state_errors, 0);
    }
}
