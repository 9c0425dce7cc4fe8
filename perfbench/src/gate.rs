//! Correctness gates. Each returns `Err(reason)` on a mismatch; the
//! workloads count every `Err` as one failed operation.
//!
//! Two kinds of gate, on purpose:
//! * floating-point results whose summation order may legitimately change
//!   (MTTKRP, fits, results across task counts) are compared within a
//!   relative tolerance, never bit for bit;
//! * results the system promises to reproduce exactly (served answers
//!   against the query kernels, a merged tensor against a one-shot merge)
//!   are compared by bit pattern.

use splatt::dense::Matrix;
use std::fmt::Debug;

/// `got` matches `expect` within `rel` of `expect`'s largest magnitude
/// (a norm-wise bound: entries near zero carry no relative meaning).
pub fn matrix_close(got: &Matrix, expect: &Matrix, rel: f64) -> Result<(), String> {
    if got.shape() != expect.shape() {
        return Err(format!("shape {:?} != {:?}", got.shape(), expect.shape()));
    }
    let scale = expect
        .as_slice()
        .iter()
        .fold(0.0f64, |m, v| m.max(v.abs()))
        .max(f64::MIN_POSITIVE);
    // element by element: `Matrix::max_abs_diff` folds with `f64::max`,
    // which skips NaN
    let tol = rel * scale;
    for (i, (a, b)) in got.as_slice().iter().zip(expect.as_slice()).enumerate() {
        let diff = (a - b).abs();
        if diff.is_nan() || diff > tol {
            return Err(format!(
                "element {i}: |{a:e} - {b:e}| = {diff:.3e} exceeds {rel:.0e} x max |ref| {scale:.3e}"
            ));
        }
    }
    Ok(())
}

/// `|a - b| <= tol`.
pub fn abs_close(what: &str, a: f64, b: f64, tol: f64) -> Result<(), String> {
    let diff = (a - b).abs();
    if diff.is_nan() || diff > tol {
        return Err(format!(
            "{what}: {a:e} vs {b:e} differ by more than {tol:e}"
        ));
    }
    Ok(())
}

/// `|a - b| <= rel * max(|a|, |b|)`.
pub fn rel_close(what: &str, a: f64, b: f64, rel: f64) -> Result<(), String> {
    let diff = (a - b).abs();
    if diff.is_nan() || diff > rel * a.abs().max(b.abs()) {
        return Err(format!(
            "{what}: {a:e} vs {b:e} differ by more than {rel:e} relative"
        ));
    }
    Ok(())
}

/// ALS never lowers the fit; allow `slack` for rounding in the fit formula.
pub fn fits_nondecreasing(fits: &[f64], slack: f64) -> Result<(), String> {
    for (i, w) in fits.windows(2).enumerate() {
        let fall = w[0] - w[1];
        if fall.is_nan() || fall > slack {
            return Err(format!(
                "fit fell from {:e} to {:e} at iteration {}",
                w[0],
                w[1],
                i + 1
            ));
        }
    }
    Ok(())
}

/// Bit-for-bit equality of two value vectors.
pub fn bits_equal(got: &[f64], expect: &[f64]) -> Result<(), String> {
    if got.len() != expect.len() {
        return Err(format!("{} values, expected {}", got.len(), expect.len()));
    }
    match got
        .iter()
        .zip(expect)
        .position(|(a, b)| a.to_bits() != b.to_bits())
    {
        Some(i) => Err(format!("value {i}: {:e} != {:e}", got[i], expect[i])),
        None => Ok(()),
    }
}

/// Keyed answers (top-k `(index, score)`, canonical `(coordinates,
/// value)`): same keys in the same order, values by bit pattern.
pub fn keyed_bits_equal<K: PartialEq + Debug>(
    got: &[(K, f64)],
    expect: &[(K, f64)],
) -> Result<(), String> {
    if got.len() != expect.len() {
        return Err(format!("{} items, expected {}", got.len(), expect.len()));
    }
    for (i, (g, e)) in got.iter().zip(expect).enumerate() {
        if g.0 != e.0 || g.1.to_bits() != e.1.to_bits() {
            return Err(format!("item {i}: {g:?} != {e:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flip_low_bit(x: f64) -> f64 {
        f64::from_bits(x.to_bits() ^ 1)
    }

    #[test]
    fn matrix_gate_tolerates_reordering_but_not_a_wrong_entry() {
        let a = Matrix::from_fn(4, 3, |i, j| (i * 3 + j) as f64 + 0.25);
        let mut reordered = a.clone();
        reordered.as_mut_slice()[5] = flip_low_bit(reordered.as_slice()[5]);
        assert!(matrix_close(&reordered, &a, 1e-9).is_ok());
        let mut wrong = a.clone();
        wrong.as_mut_slice()[5] *= 1.0 + 1e-6;
        assert!(matrix_close(&wrong, &a, 1e-9).is_err());
        wrong.as_mut_slice()[5] = f64::NAN;
        assert!(matrix_close(&wrong, &a, 1e-9).is_err());
    }

    #[test]
    fn bit_gates_catch_one_flipped_bit() {
        let v = vec![1.5, -2.25, 3.0e-7];
        let mut bad = v.clone();
        bad[2] = flip_low_bit(bad[2]);
        assert!(bits_equal(&v, &v).is_ok());
        assert!(bits_equal(&bad, &v).is_err());

        let t = vec![(4u32, 0.5), (9, 0.25)];
        let mut bad = t.clone();
        bad[1].1 = flip_low_bit(bad[1].1);
        assert!(keyed_bits_equal(&t, &t).is_ok());
        assert!(keyed_bits_equal(&bad, &t).is_err());
        let mut swapped = t.clone();
        swapped.swap(0, 1);
        assert!(keyed_bits_equal(&swapped, &t).is_err());

        let e = vec![(vec![0u32, 1, 2], 1.0), (vec![3, 4, 5], 2.0)];
        let mut bad = e.clone();
        bad[0].1 = flip_low_bit(bad[0].1);
        assert!(keyed_bits_equal(&e, &e).is_ok());
        assert!(keyed_bits_equal(&bad, &e).is_err());
    }

    #[test]
    fn scalar_gates() {
        assert!(fits_nondecreasing(&[0.1, 0.2, 0.2 - 1e-13], 1e-9).is_ok());
        assert!(fits_nondecreasing(&[0.1, 0.2, 0.19], 1e-9).is_err());
        assert!(rel_close("fit", 7.0e-3, 7.0e-3 * (1.0 + 1e-12), 1e-9).is_ok());
        assert!(rel_close("fit", 7.0e-3, 7.1e-3, 1e-9).is_err());
        assert!(abs_close("fit", 0.5, 0.5 + 1e-13, 1e-12).is_ok());
        assert!(abs_close("fit", 0.5, f64::NAN, 1e-12).is_err());
    }
}
