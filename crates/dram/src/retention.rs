//! Charge retention.
//!
//! DRAM cells leak: without refresh, a cell's stored voltage drifts
//! toward the precharge midpoint and the data eventually becomes
//! unreadable. *Cold-boot attacks* (§8.2) exist because retention is
//! seconds-to-minutes at low temperature: leakage roughly doubles every
//! ~10 °C, so chilling a module stretches the window in which an
//! attacker can hot-swap it and read the remanent data.
//!
//! The model is a first-order exponential decay of the cell's deviation
//! from VDD/2 with a temperature-dependent time constant; the cold-boot
//! case study reads that constant to size the remanence window.

/// Retention model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetentionParams {
    /// Decay time constant at the reference temperature (ms). With the
    /// default 8 s, a cell retains a readable value for tens of seconds
    /// at 20 °C — matching the cold-boot literature's observations.
    pub tau_ms_at_ref: f64,
    /// Reference temperature for `tau_ms_at_ref` (°C).
    pub ref_temperature_c: f64,
    /// Leakage doubles every this many °C.
    pub doubling_c: f64,
}

impl RetentionParams {
    /// Defaults matching the cold-boot literature's qualitative numbers.
    pub fn typical() -> Self {
        RetentionParams {
            tau_ms_at_ref: 8_000.0,
            ref_temperature_c: 45.0,
            doubling_c: 10.0,
        }
    }

    /// Decay time constant at `temperature_c` (ms).
    pub fn tau_ms(&self, temperature_c: f64) -> f64 {
        let octaves = (temperature_c - self.ref_temperature_c) / self.doubling_c;
        self.tau_ms_at_ref / 2f64.powf(octaves)
    }
}

impl Default for RetentionParams {
    fn default() -> Self {
        RetentionParams::typical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leakage_doubles_per_decade() {
        let p = RetentionParams::typical();
        let tau45 = p.tau_ms(45.0);
        let tau55 = p.tau_ms(55.0);
        let tau85 = p.tau_ms(85.0);
        assert!((tau45 / tau55 - 2.0).abs() < 1e-9);
        assert!((tau45 / tau85 - 16.0).abs() < 1e-6);
    }
}
