//! The command sequencer: resolves APA command sequences against the
//! mounted module, through the row decoder and the analog engine.

use simra_decoder::{ApaOutcome, RowDecoder};
use simra_dram::{ApaTiming, BankId, BitRow, DramError, RowAddr, SubarrayId};

use crate::setup::TestSetup;

/// Errors from scheduling command sequences.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SequencerError {
    /// The two APA target rows live in different subarrays; intra-subarray
    /// PUD operations require shared bitlines (§3.1).
    CrossSubarray {
        /// Subarray of `R_F`.
        first: SubarrayId,
        /// Subarray of `R_S`.
        second: SubarrayId,
    },
    /// A program asked to wait a negative, NaN or infinite duration; the
    /// interpreter's clock (and the protocol checker behind it) only runs
    /// forwards, by finite steps.
    InvalidWait {
        /// The offending wait (ns).
        ns: f64,
    },
    /// Underlying device error.
    Dram(DramError),
}

impl std::fmt::Display for SequencerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SequencerError::CrossSubarray { first, second } => {
                write!(f, "APA targets span subarrays {first} and {second}")
            }
            SequencerError::InvalidWait { ns } => {
                write!(
                    f,
                    "invalid wait of {ns} ns (a wait must be finite and at least 0 ns)"
                )
            }
            SequencerError::Dram(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for SequencerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SequencerError::Dram(e) => Some(e),
            SequencerError::CrossSubarray { .. } | SequencerError::InvalidWait { .. } => None,
        }
    }
}

impl From<DramError> for SequencerError {
    fn from(e: DramError) -> Self {
        SequencerError::Dram(e)
    }
}

impl TestSetup {
    /// Resolves an `ACT R_F → PRE → ACT R_S` sequence structurally:
    /// which local wordlines end up asserted, in which subarray.
    ///
    /// # Errors
    ///
    /// [`SequencerError::CrossSubarray`] if the rows do not share a
    /// subarray, or a device error for bad addresses.
    pub fn resolve_apa(
        &self,
        bank: BankId,
        r_f: RowAddr,
        r_s: RowAddr,
        timing: ApaTiming,
    ) -> Result<(SubarrayId, ApaOutcome), SequencerError> {
        let geometry = *self.module().geometry();
        // Validate the bank id eagerly.
        self.module().bank(bank)?;
        let (sa_f, local_f) = geometry.split_row(r_f)?;
        let (sa_s, local_s) = geometry.split_row(r_s)?;
        if sa_f != sa_s {
            return Err(SequencerError::CrossSubarray {
                first: sa_f,
                second: sa_s,
            });
        }
        let guard = self.module().profile().apa_guard;
        // simra-decoder is the one authority on APA row resolution.
        Ok((
            sa_f,
            RowDecoder::resolve_in_subarray(
                geometry.rows_per_subarray,
                local_f,
                local_s,
                timing,
                guard,
            ),
        ))
    }

    /// Initialises a row with nominal timings (test setup step).
    ///
    /// # Errors
    ///
    /// Device errors for bad addresses or image widths.
    pub fn init_row(
        &mut self,
        bank: BankId,
        row: RowAddr,
        image: &BitRow,
    ) -> Result<(), SequencerError> {
        Ok(self
            .module_mut()
            .bank_mut(bank)?
            .write_row_nominal(row, image)?)
    }

    /// Reads a row back with nominal timings (test read-out step).
    ///
    /// # Errors
    ///
    /// Device errors for bad addresses.
    pub fn read_row(&mut self, bank: BankId, row: RowAddr) -> Result<BitRow, SequencerError> {
        Ok(self.module_mut().bank_mut(bank)?.read_row_nominal(row)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simra_dram::VendorProfile;

    fn setup() -> TestSetup {
        TestSetup::new(VendorProfile::mfr_h_m_die(), 42)
    }

    #[test]
    fn apa_within_subarray_resolves() {
        let s = setup();
        let (sa, out) = s
            .resolve_apa(
                BankId::new(0),
                RowAddr::new(0),
                RowAddr::new(7),
                ApaTiming::from_ns(3.0, 3.0),
            )
            .unwrap();
        assert_eq!(sa.raw(), 0);
        assert_eq!(out.open_row_count(), 4);
    }

    #[test]
    fn cross_subarray_rejected() {
        let s = setup();
        // Rows 0 and 600 are in different 512-row subarrays.
        let err = s
            .resolve_apa(
                BankId::new(0),
                RowAddr::new(0),
                RowAddr::new(600),
                ApaTiming::from_ns(3.0, 3.0),
            )
            .unwrap_err();
        assert!(matches!(err, SequencerError::CrossSubarray { .. }));
    }

    #[test]
    fn bad_bank_propagates_device_error() {
        let s = setup();
        let err = s
            .resolve_apa(
                BankId::new(99),
                RowAddr::new(0),
                RowAddr::new(1),
                ApaTiming::from_ns(3.0, 3.0),
            )
            .unwrap_err();
        assert!(matches!(err, SequencerError::Dram(_)));
    }

    #[test]
    fn error_display_is_lowercase_and_concise() {
        // Mirrors the style checks in simra_dram::error: every variant
        // renders a short lowercase message a CLI can print verbatim.
        let errors: Vec<SequencerError> = vec![
            SequencerError::CrossSubarray {
                first: SubarrayId::new(0),
                second: SubarrayId::new(1),
            },
            SequencerError::InvalidWait { ns: -3.0 },
            SequencerError::InvalidWait { ns: f64::NAN },
            SequencerError::Dram(DramError::WidthMismatch {
                got: 8,
                expected: 256,
            }),
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty() && msg.len() < 120, "{msg}");
            assert!(!msg.ends_with('.'), "{msg}");
        }
        // A NaN wait is not negative; the message must not say it is.
        let nan = SequencerError::InvalidWait { ns: f64::NAN }.to_string();
        assert!(nan.starts_with("invalid wait of NaN ns"), "{nan}");
        assert!(!nan.contains("negative"), "{nan}");
    }

    #[test]
    fn error_source_chain_reaches_device_errors() {
        use std::error::Error;
        let e = SequencerError::Dram(DramError::WidthMismatch {
            got: 8,
            expected: 256,
        });
        assert!(e.source().is_some());
        assert!(SequencerError::InvalidWait { ns: -1.0 }.source().is_none());
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SequencerError>();
    }

    #[test]
    fn samsung_guard_blocks_multi_activation() {
        let s = TestSetup::new(VendorProfile::mfr_s(), 42);
        let (_, out) = s
            .resolve_apa(
                BankId::new(0),
                RowAddr::new(0),
                RowAddr::new(7),
                ApaTiming::from_ns(3.0, 3.0),
            )
            .unwrap();
        assert_eq!(out.open_row_count(), 1);
    }
}
