//! Small numeric helpers: the standard normal CDF and its inverse. Normal
//! draws live with the generator, in `simra_dram::rng`.

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

/// Inverse standard normal CDF (Acklam's rational approximation,
/// relative error < 1.2e-9 over (0, 1)).
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)`.
pub fn phi_inv(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "phi_inv requires p in (0,1), got {p}");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    let p_low = 0.02425;
    if p < p_low {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - p_low {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
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
    fn phi_inv_roundtrip() {
        for p in [0.001, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999] {
            let x = phi_inv(p);
            assert!((phi(x) - p).abs() < 1e-5, "p={p} x={x} phi={}", phi(x));
        }
    }

    #[test]
    fn erf_is_odd() {
        for x in [0.1, 0.5, 1.0, 2.0] {
            assert!((erf(x) + erf(-x)).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "phi_inv requires")]
    fn phi_inv_rejects_bounds() {
        phi_inv(0.0);
    }
}
