//! Case study 2 (§8.2, Fig. 17): content-destruction-based cold-boot
//! attack prevention.
//!
//! Three ways to destroy a bank's contents:
//!
//! * **RowClone-based**: write a predetermined pattern to one row, then
//!   RowClone it over every other row — one copy per row.
//! * **Frac-based**: Frac every row to VDD/2 — one (shorter) operation per
//!   row, but no fan-out.
//! * **Multi-RowCopy-based**: write once, then wipe N − 1 rows per APA;
//!   fan-out grows with the activation count.

use simra_dram::TimingParams;

use crate::throughput::OpLatencies;
use simra_characterize::report::Table;

/// A content-destruction strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WipeStrategy {
    /// RowClone row-by-row.
    RowClone,
    /// Frac row-by-row.
    Frac,
    /// Multi-RowCopy with `n`-row activation (wipes n − 1 rows per op).
    MultiRowCopy {
        /// Simultaneously activated rows per operation (2–32).
        n: u32,
    },
}

impl std::fmt::Display for WipeStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WipeStrategy::RowClone => f.write_str("RowClone"),
            WipeStrategy::Frac => f.write_str("Frac"),
            WipeStrategy::MultiRowCopy { n } => write!(f, "MRC {n}-row"),
        }
    }
}

/// Total time (ns) to destroy the contents of a bank with `rows` rows
/// organised in `rows_per_subarray`-row subarrays. RowClone and
/// Multi-RowCopy only fan out within a subarray, so each subarray needs
/// its own seed-row write.
pub fn wipe_time_ns(
    strategy: WipeStrategy,
    rows: u64,
    rows_per_subarray: u64,
    timing: &TimingParams,
) -> f64 {
    assert!(rows_per_subarray > 1, "subarrays have many rows");
    let lat = OpLatencies::measure(timing);
    let subarrays = rows.div_ceil(rows_per_subarray);
    let rows_in_sa = rows_per_subarray.min(rows);
    match strategy {
        WipeStrategy::RowClone => {
            subarrays as f64 * (lat.write_row_ns + (rows_in_sa - 1) as f64 * lat.rowclone_ns)
        }
        WipeStrategy::Frac => rows as f64 * lat.frac_ns,
        WipeStrategy::MultiRowCopy { n } => {
            assert!(n >= 2, "Multi-RowCopy needs at least one destination");
            // Each APA wipes n − 1 destinations (the source row is the
            // already-clean seed row of its group).
            let ops = (rows_in_sa - 1).div_ceil((n - 1) as u64);
            subarrays as f64 * (lat.write_row_ns + ops as f64 * lat.multirowcopy_ns)
        }
    }
}

/// Fig. 17: wipe speedup over RowClone-based destruction for a 65 536-row
/// bank (one speedup column; rows are strategies).
pub fn fig17_coldboot() -> Table {
    let timing = TimingParams::ddr4_2666();
    let rows = 65_536u64;
    let rows_per_subarray = 512u64;
    let base = wipe_time_ns(WipeStrategy::RowClone, rows, rows_per_subarray, &timing);
    let mut table = Table::new(
        "Fig. 17: content-destruction speedup over RowClone-based wipe",
        format!("{rows}-row bank, 512-row subarrays, DDR4-2666 timings"),
        vec!["time_ms".into(), "speedup".into()],
    );
    let mut strategies = vec![WipeStrategy::RowClone, WipeStrategy::Frac];
    for n in [2u32, 4, 8, 16, 32] {
        strategies.push(WipeStrategy::MultiRowCopy { n });
    }
    for s in strategies {
        let t = wipe_time_ns(s, rows, rows_per_subarray, &timing);
        table.push_row(s.to_string(), vec![t / 1e6, base / t]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig17_mrc_beats_rowclone_and_frac() {
        let t = fig17_coldboot();
        let mrc32 = t.get("MRC 32-row", "speedup").unwrap();
        let frac = t.get("Frac", "speedup").unwrap();
        assert!(
            mrc32 > 10.0,
            "paper: up to 20.87× over RowClone, got {mrc32}"
        );
        assert!(mrc32 < 40.0, "same ballpark as the paper");
        assert!(
            mrc32 / frac > 3.0,
            "paper: up to 7.55× over Frac, got {}",
            mrc32 / frac
        );
        assert_eq!(t.get("RowClone", "speedup").unwrap(), 1.0);
    }

    #[test]
    fn speedup_grows_with_activation_count() {
        let t = fig17_coldboot();
        let mut last = 0.0;
        for n in [2, 4, 8, 16, 32] {
            let s = t.get(&format!("MRC {n}-row"), "speedup").unwrap();
            assert!(s > last, "MRC {n}-row: {s} vs {last}");
            last = s;
        }
    }

    #[test]
    fn wipe_time_accounting() {
        let timing = TimingParams::ddr4_2666();
        // Wiping 33 rows with 32-row activation: seed write + 2 APAs
        // (31 + 1 destinations).
        let lat = OpLatencies::measure(&timing);
        let t = wipe_time_ns(WipeStrategy::MultiRowCopy { n: 32 }, 33, 512, &timing);
        let expected = lat.write_row_ns + 2.0 * lat.multirowcopy_ns;
        assert!((t - expected).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one destination")]
    fn single_row_mrc_rejected() {
        wipe_time_ns(
            WipeStrategy::MultiRowCopy { n: 1 },
            10,
            512,
            &TimingParams::ddr4_2666(),
        );
    }
}
