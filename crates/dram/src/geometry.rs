//! Typed addresses and device geometry.
//!
//! Newtypes (C-NEWTYPE) keep row addresses, bank ids, column addresses and
//! subarray indices statically distinct: the characterization code juggles
//! all four at once and mixing them up is the classic bug in this domain.

use std::fmt;

/// A DRAM row address within a bank.
///
/// The low bits index a row inside a subarray; the high bits select the
/// subarray (the split is defined by [`Geometry`], mirroring §7.1 of the
/// paper where RA\[0:8\] indexes within a 512-row subarray and RA\[9:15\]
/// selects one of 128 subarrays).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowAddr(u32);

impl RowAddr {
    /// Creates a row address from its raw integer value.
    pub const fn new(raw: u32) -> Self {
        RowAddr(raw)
    }

    /// Raw integer value of the address.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for RowAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

impl From<u32> for RowAddr {
    fn from(raw: u32) -> Self {
        RowAddr(raw)
    }
}

/// A bank id within a module (DDR4 modules tested in the paper have 16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BankId(u16);

impl BankId {
    /// Creates a bank id.
    pub const fn new(raw: u16) -> Self {
        BankId(raw)
    }

    /// Raw integer value.
    pub const fn raw(self) -> u16 {
        self.0
    }
}

impl fmt::Display for BankId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// A column (bitline) index within a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ColAddr(u32);

impl ColAddr {
    /// Creates a column address.
    pub const fn new(raw: u32) -> Self {
        ColAddr(raw)
    }

    /// Raw integer value.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ColAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// A subarray index within a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubarrayId(u16);

impl SubarrayId {
    /// Creates a subarray id.
    pub const fn new(raw: u16) -> Self {
        SubarrayId(raw)
    }

    /// Raw integer value.
    pub const fn raw(self) -> u16 {
        self.0
    }
}

impl fmt::Display for SubarrayId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SA{}", self.0)
    }
}

/// Chip data-bus organisation (Table 1: x8 for Mfr. H, x16 for Mfr. M).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Organization {
    /// 8 DQ pins per chip.
    X8,
    /// 16 DQ pins per chip.
    X16,
}

impl Organization {
    /// Number of DQ pins.
    pub const fn dq_pins(self) -> u32 {
        match self {
            Organization::X8 => 8,
            Organization::X16 => 16,
        }
    }
}

impl fmt::Display for Organization {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.dq_pins())
    }
}

/// Static geometry of a modelled DRAM device.
///
/// The defaults model a full bank's row space but a reduced number of
/// bitlines per row (`cols_per_row`) — success-rate statistics converge
/// long before the 8192 bitlines a real x8 chip row has, and the reduction
/// keeps a 48-subarray experiment in a few hundred MB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    /// Banks per module (rank-collapsed; the paper tests per-bank).
    pub banks: u16,
    /// Rows per subarray (512 or 640 for Mfr. H dies, 1024 for Mfr. M).
    pub rows_per_subarray: u32,
    /// Subarrays per bank.
    pub subarrays_per_bank: u16,
    /// Modelled bitlines (columns) per row.
    pub cols_per_row: u32,
    /// Chip data-bus organisation.
    pub organization: Organization,
}

impl Geometry {
    /// Total rows in one bank.
    pub const fn rows_per_bank(&self) -> u32 {
        self.rows_per_subarray * self.subarrays_per_bank as u32
    }

    /// Splits a bank-level row address into (subarray, in-subarray row).
    ///
    /// # Errors
    ///
    /// Returns [`crate::DramError::RowOutOfRange`] if `row` exceeds the bank.
    pub fn split_row(&self, row: RowAddr) -> Result<(SubarrayId, u32), crate::DramError> {
        if row.raw() >= self.rows_per_bank() {
            return Err(crate::DramError::RowOutOfRange {
                row,
                rows_in_bank: self.rows_per_bank(),
            });
        }
        let sa = row.raw() / self.rows_per_subarray;
        let local = row.raw() % self.rows_per_subarray;
        Ok((SubarrayId::new(sa as u16), local))
    }

    /// Combines a subarray id and an in-subarray row into a bank-level address.
    pub fn join_row(&self, sa: SubarrayId, local: u32) -> RowAddr {
        RowAddr::new(sa.raw() as u32 * self.rows_per_subarray + local)
    }
}

impl Default for Geometry {
    fn default() -> Self {
        // SK Hynix M-die-like defaults (Table 1), reduced column count.
        Geometry {
            banks: 16,
            rows_per_subarray: 512,
            subarrays_per_bank: 8,
            cols_per_row: 256,
            organization: Organization::X8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_and_join_roundtrip() {
        let g = Geometry::default();
        for raw in [0u32, 1, 511, 512, 513, 4095] {
            let row = RowAddr::new(raw);
            let (sa, local) = g.split_row(row).unwrap();
            assert_eq!(g.join_row(sa, local), row);
        }
    }

    #[test]
    fn split_rejects_out_of_range() {
        let g = Geometry::default();
        let too_big = RowAddr::new(g.rows_per_bank());
        assert!(g.split_row(too_big).is_err());
    }

    #[test]
    fn display_formats_are_compact() {
        assert_eq!(RowAddr::new(7).to_string(), "R7");
        assert_eq!(BankId::new(3).to_string(), "B3");
        assert_eq!(SubarrayId::new(2).to_string(), "SA2");
        assert_eq!(Organization::X16.to_string(), "x16");
    }

    #[test]
    fn organization_pins() {
        assert_eq!(Organization::X8.dq_pins(), 8);
        assert_eq!(Organization::X16.dq_pins(), 16);
    }
}
