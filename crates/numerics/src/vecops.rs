//! Allocation-free vector kernels.
//!
//! All functions operate on slices and panic on dimension mismatch (these
//! are programmer errors on hot paths; checked variants are not worth the
//! branch in inner loops). Callers that need fallibility should validate
//! dimensions once at construction time.

/// `y ← a*x + y`.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// Dot product `xᵀy`.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Euclidean norm `‖x‖₂`.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Infinity norm `‖x‖_∞ = max_i |x_i|`. Returns 0 for empty input.
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
}

/// `‖x − y‖_∞`.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn max_abs_diff(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "max_abs_diff: length mismatch");
    x.iter()
        .zip(y)
        .fold(0.0_f64, |m, (a, b)| m.max((a - b).abs()))
}

/// `‖x − y‖₂²`.
///
/// # Panics
/// Panics if `x.len() != y.len()`.
#[inline]
pub fn dist2_sq(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dist2_sq: length mismatch");
    x.iter().zip(y).map(|(a, b)| (a - b) * (a - b)).sum()
}

/// `‖x − y‖₂`.
#[inline]
pub fn dist2(x: &[f64], y: &[f64]) -> f64 {
    dist2_sq(x, y).sqrt()
}

/// `out ← x − y`.
///
/// # Panics
/// Panics on any length mismatch.
#[inline]
pub fn sub(x: &[f64], y: &[f64], out: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    assert_eq!(x.len(), out.len(), "sub: output length mismatch");
    for ((o, a), b) in out.iter_mut().zip(x).zip(y) {
        *o = a - b;
    }
}

/// `x ← c*x`.
#[inline]
pub fn scale(x: &mut [f64], c: f64) {
    for v in x {
        *v *= c;
    }
}

/// Copies `src` into `dst`.
///
/// # Panics
/// Panics if lengths differ.
#[inline]
pub fn copy(src: &[f64], dst: &mut [f64]) {
    dst.copy_from_slice(src);
}

/// Sum of all entries.
#[inline]
pub fn sum(x: &[f64]) -> f64 {
    x.iter().sum()
}

/// Index and value of the entry with the largest absolute value.
/// Returns `None` for empty input.
pub fn argmax_abs(x: &[f64]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &v) in x.iter().enumerate() {
        match best {
            Some((_, b)) if v.abs() <= b.abs() => {}
            _ => best = Some((i, v)),
        }
    }
    best
}

/// Componentwise clamp of `x` into `[lo_i, hi_i]`.
///
/// # Panics
/// Panics on any length mismatch.
pub fn clamp_into(x: &mut [f64], lo: &[f64], hi: &[f64]) {
    assert_eq!(x.len(), lo.len(), "clamp_into: lo length mismatch");
    assert_eq!(x.len(), hi.len(), "clamp_into: hi length mismatch");
    for ((v, &l), &h) in x.iter_mut().zip(lo).zip(hi) {
        *v = v.clamp(l, h);
    }
}

/// True when every entry of `x` is finite.
#[inline]
pub fn all_finite(x: &[f64]) -> bool {
    x.iter().all(|v| v.is_finite())
}

/// Linear interpolation `out ← (1−t)·x + t·y`.
///
/// # Panics
/// Panics on any length mismatch.
pub fn lerp(x: &[f64], y: &[f64], t: f64, out: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "lerp: length mismatch");
    assert_eq!(x.len(), out.len(), "lerp: output length mismatch");
    for ((o, a), b) in out.iter_mut().zip(x).zip(y) {
        *o = (1.0 - t) * a + t * b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn dot_matches_hand_computation() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn norm2_is_pythagorean() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn norm_inf_ignores_sign() {
        assert_eq!(norm_inf(&[1.0, -7.0, 3.0]), 7.0);
    }

    #[test]
    fn norm_inf_empty_is_zero() {
        assert_eq!(norm_inf(&[]), 0.0);
    }

    #[test]
    fn max_abs_diff_basic() {
        assert_eq!(max_abs_diff(&[1.0, 5.0], &[2.0, 2.0]), 3.0);
    }

    #[test]
    fn sub_into_out() {
        let mut out = [0.0; 2];
        sub(&[5.0, 1.0], &[2.0, 3.0], &mut out);
        assert_eq!(out, [3.0, -2.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut x = [1.0, -2.0];
        scale(&mut x, -3.0);
        assert_eq!(x, [-3.0, 6.0]);
    }

    #[test]
    fn argmax_abs_picks_largest_magnitude() {
        assert_eq!(argmax_abs(&[1.0, -9.0, 3.0]), Some((1, -9.0)));
        assert_eq!(argmax_abs(&[]), None);
    }

    #[test]
    fn argmax_abs_prefers_first_on_tie() {
        assert_eq!(argmax_abs(&[2.0, -2.0]), Some((0, 2.0)));
    }

    #[test]
    fn clamp_into_projects() {
        let mut x = [-1.0, 0.5, 9.0];
        clamp_into(&mut x, &[0.0, 0.0, 0.0], &[1.0, 1.0, 1.0]);
        assert_eq!(x, [0.0, 0.5, 1.0]);
    }

    #[test]
    fn all_finite_detects_nan_and_inf() {
        assert!(all_finite(&[1.0, 2.0]));
        assert!(!all_finite(&[1.0, f64::NAN]));
        assert!(!all_finite(&[f64::INFINITY]));
    }

    #[test]
    fn lerp_endpoints() {
        let x = [0.0, 10.0];
        let y = [1.0, 20.0];
        let mut out = [0.0; 2];
        lerp(&x, &y, 0.0, &mut out);
        assert_eq!(out, x);
        lerp(&x, &y, 1.0, &mut out);
        assert_eq!(out, y);
        lerp(&x, &y, 0.5, &mut out);
        assert_eq!(out, [0.5, 15.0]);
    }

    #[test]
    #[should_panic(expected = "dot: length mismatch")]
    fn dot_panics_on_mismatch() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn dist2_matches_norm_of_difference() {
        let x = [1.0, 2.0, 3.0];
        let y = [4.0, 6.0, 3.0];
        assert!((dist2(&x, &y) - 5.0).abs() < 1e-15);
        assert!((dist2_sq(&x, &y) - 25.0).abs() < 1e-12);
    }
}
