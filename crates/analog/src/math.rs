//! Small numeric helpers: the error function and the standard normal
//! CDF. Normal draws live with the generator, in `simra_dram::rng`.

/// Error function, Abramowitz–Stegun 7.1.26 (max error ≈ 1.5e-7).
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Standard normal cumulative distribution function.
pub fn phi(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phi_known_values() {
        assert!((phi(0.0) - 0.5).abs() < 1e-7);
        assert!((phi(1.0) - 0.8413447).abs() < 1e-5);
        assert!((phi(-1.0) - 0.1586553).abs() < 1e-5);
        assert!((phi(2.33) - 0.99010).abs() < 1e-4);
        assert!(phi(8.0) > 0.9999999);
    }

    #[test]
    fn erf_is_odd() {
        for x in [0.1, 0.5, 1.0, 2.0] {
            assert!((erf(x) + erf(-x)).abs() < 1e-12);
        }
    }
}
