//! Dense vector kernels used throughout the simulator.
//!
//! All kernels operate on `&[f64]` / `&mut [f64]` so callers keep full control
//! over allocation (buffers are reused heavily in the Newton loop).

/// Returns the infinity norm `max_i |x_i|` of `x` (0.0 for an empty slice).
///
/// The fold is `f64::max`, which drops NaN: a NaN entry beside finite ones
/// does not show in the result, so a finiteness check of the norm only ever
/// catches ±inf. Ask [`all_finite`] of the entries where NaN matters.
///
/// ```
/// assert_eq!(wavepipe_sparse::vector::norm_inf(&[1.0, -3.0, 2.0]), 3.0);
/// ```
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
}

/// Returns `true` if every entry of `x` is finite.
pub fn all_finite(x: &[f64]) -> bool {
    x.iter().all(|v| v.is_finite())
}

/// Weighted root-mean-square norm used by LTE control:
/// `sqrt( mean_i ( x_i / (abstol + reltol * |ref_i|) )^2 )`.
///
/// This is the classic SPICE/ODE-solver error norm: a value of 1.0 means the
/// error is exactly at tolerance.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn wrms_norm(x: &[f64], reference: &[f64], reltol: f64, abstol: f64) -> f64 {
    assert_eq!(x.len(), reference.len(), "wrms_norm: length mismatch");
    if x.is_empty() {
        return 0.0;
    }
    let sum: f64 = x
        .iter()
        .zip(reference)
        .map(|(&e, &r)| {
            let w = abstol + reltol * r.abs();
            let s = e / w;
            s * s
        })
        .sum();
    (sum / x.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms_of_empty_are_zero() {
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn norm_inf_ignores_sign() {
        assert_eq!(norm_inf(&[-7.0, 2.0]), 7.0);
    }

    #[test]
    fn wrms_norm_is_one_at_tolerance() {
        // error exactly abstol with zero reference => ratio 1 per entry.
        let e = [1e-9, -1e-9];
        let r = [0.0, 0.0];
        let n = wrms_norm(&e, &r, 1e-3, 1e-9);
        assert!((n - 1.0).abs() < 1e-12, "n = {n}");
    }

    #[test]
    fn wrms_norm_scales_with_reference() {
        let e = [1e-3];
        let r = [1.0];
        // weight = 1e-9 + 1e-3*1 ~= 1e-3 so ratio ~= 1.
        let n = wrms_norm(&e, &r, 1e-3, 1e-9);
        assert!((n - 1.0).abs() < 1e-5, "n = {n}");
    }

    #[test]
    fn all_finite_detects_nan_and_inf() {
        assert!(all_finite(&[1.0, 2.0]));
        assert!(!all_finite(&[1.0, f64::NAN]));
        assert!(!all_finite(&[f64::INFINITY]));
    }
}
