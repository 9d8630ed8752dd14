//! A JEDEC protocol checker: the memory-controller-side bank state
//! machine plus timing-rule enforcement.
//!
//! The paper's whole premise is *deliberate* timing violation — so the
//! model needs a component that knows what the rules are and can say
//! precisely which rule a command stream breaks and by how much. The
//! checker validates a timed command stream against a [`TimingParams`]
//! set and reports every violation; the tester (simra-bender) runs with
//! the checker in "observe" mode, a normal memory controller would run
//! it in "enforce" mode.

use crate::command::Command;
use crate::geometry::BankId;
use crate::timing::TimingParams;

/// The timing rule a command pair is subject to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimingRule {
    /// ACT → PRE minimum (row restore).
    TRas,
    /// PRE → ACT minimum (precharge).
    TRp,
    /// ACT → RD/WR minimum (column access).
    TRcd,
    /// WR → PRE minimum (write recovery).
    TWr,
    /// REF → any minimum (refresh cycle).
    TRfc,
}

impl std::fmt::Display for TimingRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            TimingRule::TRas => "tRAS",
            TimingRule::TRp => "tRP",
            TimingRule::TRcd => "tRCD",
            TimingRule::TWr => "tWR",
            TimingRule::TRfc => "tRFC",
        };
        f.write_str(s)
    }
}

/// One detected violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The rule broken.
    pub rule: TimingRule,
    /// Bank the pair addressed.
    pub bank: BankId,
    /// Actual elapsed time between the commands (ns).
    pub actual_ns: f64,
    /// The rule's minimum (ns).
    pub required_ns: f64,
    /// Issue time of the offending (second) command (ns).
    pub at_ns: f64,
}

impl Violation {
    /// How far below the minimum the pair was (ns).
    pub fn shortfall_ns(&self) -> f64 {
        self.required_ns - self.actual_ns
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} violated on {} at t={:.1} ns: {:.1} < {:.1} ns",
            self.rule, self.bank, self.at_ns, self.actual_ns, self.required_ns
        )
    }
}

/// Illegal command for the bank's current state (independent of timing).
#[derive(Debug, Clone, PartialEq)]
pub struct StateError {
    /// The offending command.
    pub command: Command,
    /// Issue time (ns).
    pub at_ns: f64,
    /// What the bank state machine expected.
    pub expected: String,
}

/// Per-bank protocol state.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BankTrack {
    /// Whether a row is open.
    open: bool,
    /// Time of the last ACT (ns).
    last_act_ns: f64,
    /// Time of the last PRE (ns).
    last_pre_ns: f64,
    /// Time of the last WR (ns).
    last_wr_ns: f64,
    /// Time of the last REF (ns).
    last_ref_ns: f64,
}

impl BankTrack {
    fn new() -> Self {
        let long_ago = -1e12;
        BankTrack {
            open: false,
            last_act_ns: long_ago,
            last_pre_ns: long_ago,
            last_wr_ns: long_ago,
            last_ref_ns: long_ago,
        }
    }
}

/// The protocol checker: feed it `(time, command)` pairs in issue order.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolChecker {
    timing: TimingParams,
    banks: Vec<BankTrack>,
    violations: Vec<Violation>,
    state_errors: Vec<StateError>,
    last_time_ns: f64,
}

impl ProtocolChecker {
    /// A checker for a module with `banks` banks under `timing`.
    pub fn new(timing: TimingParams, banks: u16) -> Self {
        ProtocolChecker {
            timing,
            banks: vec![BankTrack::new(); banks as usize],
            violations: Vec::new(),
            state_errors: Vec::new(),
            last_time_ns: f64::NEG_INFINITY,
        }
    }

    /// Observes one command at absolute time `at_ns`.
    ///
    /// A checker observes; it never brings the rig down. Commands that
    /// arrive out of time order or address a bank the checker was not
    /// configured for are recorded as [`StateError`]s (the stream is no
    /// longer [`ProtocolChecker::is_clean`]) and observation continues:
    /// an out-of-order command is still checked against the bank state,
    /// while an out-of-range bank cannot be tracked and is skipped.
    pub fn observe(&mut self, at_ns: f64, command: Command) {
        if at_ns < self.last_time_ns {
            self.state_errors.push(StateError {
                command,
                at_ns,
                expected: format!(
                    "commands in time order (previous command at t={:.1} ns)",
                    self.last_time_ns
                ),
            });
        } else {
            self.last_time_ns = at_ns;
        }
        let bank_id = command.bank();
        let idx = bank_id.raw() as usize;
        if idx >= self.banks.len() {
            self.state_errors.push(StateError {
                command,
                at_ns,
                expected: format!("a configured bank (have {})", self.banks.len()),
            });
            return;
        }

        // Refresh recovery applies to every command on the bank.
        let trfc_ago = at_ns - self.banks[idx].last_ref_ns;
        if trfc_ago < self.timing.t_rfc_ns {
            self.violations.push(Violation {
                rule: TimingRule::TRfc,
                bank: bank_id,
                actual_ns: trfc_ago,
                required_ns: self.timing.t_rfc_ns,
                at_ns,
            });
        }

        let bank = &mut self.banks[idx];
        match command {
            Command::Activate { .. } => {
                if bank.open {
                    self.state_errors.push(StateError {
                        command,
                        at_ns,
                        expected: "precharged bank before ACT".into(),
                    });
                }
                let since_pre = at_ns - bank.last_pre_ns;
                if since_pre < self.timing.t_rp_ns {
                    self.violations.push(Violation {
                        rule: TimingRule::TRp,
                        bank: bank_id,
                        actual_ns: since_pre,
                        required_ns: self.timing.t_rp_ns,
                        at_ns,
                    });
                }
                bank.open = true;
                bank.last_act_ns = at_ns;
            }
            Command::Precharge { .. } => {
                let since_act = at_ns - bank.last_act_ns;
                if bank.open && since_act < self.timing.t_ras_ns {
                    self.violations.push(Violation {
                        rule: TimingRule::TRas,
                        bank: bank_id,
                        actual_ns: since_act,
                        required_ns: self.timing.t_ras_ns,
                        at_ns,
                    });
                }
                let since_wr = at_ns - bank.last_wr_ns;
                if since_wr < self.timing.t_wr_ns {
                    self.violations.push(Violation {
                        rule: TimingRule::TWr,
                        bank: bank_id,
                        actual_ns: since_wr,
                        required_ns: self.timing.t_wr_ns,
                        at_ns,
                    });
                }
                bank.open = false;
                bank.last_pre_ns = at_ns;
            }
            Command::Read { .. } | Command::Write { .. } => {
                if !bank.open {
                    self.state_errors.push(StateError {
                        command,
                        at_ns,
                        expected: "an open row before RD/WR".into(),
                    });
                }
                let since_act = at_ns - bank.last_act_ns;
                if bank.open && since_act < self.timing.t_rcd_ns {
                    self.violations.push(Violation {
                        rule: TimingRule::TRcd,
                        bank: bank_id,
                        actual_ns: since_act,
                        required_ns: self.timing.t_rcd_ns,
                        at_ns,
                    });
                }
                if matches!(command, Command::Write { .. }) {
                    bank.last_wr_ns = at_ns;
                }
            }
            Command::Refresh { .. } => {
                if bank.open {
                    self.state_errors.push(StateError {
                        command,
                        at_ns,
                        expected: "precharged bank before REF".into(),
                    });
                }
                bank.last_ref_ns = at_ns;
            }
        }
    }

    /// All timing violations seen so far.
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// All state-machine errors seen so far.
    pub fn state_errors(&self) -> &[StateError] {
        &self.state_errors
    }

    /// Whether the observed stream was fully JEDEC-legal.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.state_errors.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::RowAddr;

    fn checker() -> ProtocolChecker {
        ProtocolChecker::new(TimingParams::ddr4_2666(), 16)
    }

    fn act(bank: u16, row: u32) -> Command {
        Command::Activate {
            bank: BankId::new(bank),
            row: RowAddr::new(row),
        }
    }

    fn pre(bank: u16) -> Command {
        Command::Precharge {
            bank: BankId::new(bank),
        }
    }

    #[test]
    fn legal_stream_is_clean() {
        let mut c = checker();
        c.observe(0.0, act(0, 5));
        c.observe(
            14.0,
            Command::Read {
                bank: BankId::new(0),
            },
        );
        c.observe(40.0, pre(0));
        c.observe(60.0, act(0, 6));
        assert!(c.is_clean(), "{:?}", c.violations());
    }

    #[test]
    fn the_apa_sequence_violates_tras_and_trp() {
        // The paper's PUD primitive: ACT → 1.5 ns → PRE → 3 ns → ACT.
        let mut c = checker();
        c.observe(0.0, act(0, 0));
        c.observe(1.5, pre(0));
        c.observe(4.5, act(0, 7));
        let rules: Vec<TimingRule> = c.violations().iter().map(|v| v.rule).collect();
        assert_eq!(rules, vec![TimingRule::TRas, TimingRule::TRp]);
        // Shortfalls are what the tester deliberately engineers.
        assert!((c.violations()[0].shortfall_ns() - (32.0 - 1.5)).abs() < 1e-9);
        assert!((c.violations()[1].shortfall_ns() - (13.5 - 3.0)).abs() < 1e-9);
    }

    #[test]
    fn rd_on_precharged_bank_is_a_state_error() {
        let mut c = checker();
        c.observe(
            0.0,
            Command::Read {
                bank: BankId::new(3),
            },
        );
        assert_eq!(c.state_errors().len(), 1);
        assert!(c.state_errors()[0].expected.contains("open row"));
    }

    #[test]
    fn early_read_violates_trcd() {
        let mut c = checker();
        c.observe(0.0, act(1, 0));
        c.observe(
            5.0,
            Command::Read {
                bank: BankId::new(1),
            },
        );
        assert_eq!(c.violations().len(), 1);
        assert_eq!(c.violations()[0].rule, TimingRule::TRcd);
    }

    #[test]
    fn write_recovery_enforced() {
        let mut c = checker();
        c.observe(0.0, act(0, 0));
        c.observe(
            14.0,
            Command::Write {
                bank: BankId::new(0),
            },
        );
        c.observe(20.0, pre(0)); // 6 ns after WR < tWR = 15 ns (and < tRAS)
        let rules: Vec<TimingRule> = c.violations().iter().map(|v| v.rule).collect();
        assert!(rules.contains(&TimingRule::TWr));
    }

    #[test]
    fn refresh_recovery_enforced() {
        let mut c = checker();
        c.observe(
            0.0,
            Command::Refresh {
                bank: BankId::new(0),
            },
        );
        c.observe(100.0, act(0, 0));
        assert_eq!(c.violations()[0].rule, TimingRule::TRfc);
        // A properly spaced ACT after tRFC is fine.
        let mut c2 = checker();
        c2.observe(
            0.0,
            Command::Refresh {
                bank: BankId::new(0),
            },
        );
        c2.observe(400.0, act(0, 0));
        assert!(c2.is_clean());
    }

    #[test]
    fn banks_are_tracked_independently() {
        let mut c = checker();
        c.observe(0.0, act(0, 0));
        c.observe(1.0, act(1, 0)); // different bank: no tRP/tRAS coupling
        assert!(c.is_clean(), "{:?}", c.violations());
    }

    #[test]
    fn double_activate_is_a_state_error() {
        let mut c = checker();
        c.observe(0.0, act(0, 0));
        c.observe(50.0, act(0, 1));
        assert_eq!(c.state_errors().len(), 1);
    }

    #[test]
    fn out_of_order_commands_record_a_state_error() {
        let mut c = checker();
        c.observe(10.0, act(0, 0));
        c.observe(5.0, pre(0));
        assert!(!c.is_clean());
        assert_eq!(c.state_errors().len(), 1);
        let err = &c.state_errors()[0];
        assert!(err.expected.contains("time order"), "{}", err.expected);
        assert_eq!(err.at_ns, 5.0);
        // The checker keeps observing afterwards — and the out-of-order
        // PRE was still state-checked (it closed the row).
        c.observe(60.0, act(0, 1));
        assert_eq!(c.state_errors().len(), 1, "ACT on closed bank is legal");
    }

    #[test]
    fn out_of_range_bank_records_a_state_error() {
        let mut c = checker();
        c.observe(0.0, act(99, 0));
        assert_eq!(c.state_errors().len(), 1);
        assert!(c.state_errors()[0].expected.contains("configured bank"));
        // Subsequent legal traffic is still tracked.
        c.observe(10.0, act(0, 0));
        assert_eq!(c.state_errors().len(), 1);
    }

    #[test]
    fn violation_display_is_informative() {
        let mut c = checker();
        c.observe(0.0, act(0, 0));
        c.observe(1.5, pre(0));
        let s = c.violations()[0].to_string();
        assert!(s.contains("tRAS") && s.contains("B0"));
    }
}
