//! Small dense linear-algebra routines for the statistical models:
//! Gaussian-elimination solves and ordinary least squares with ridge
//! fallback. Kept local to `forecast` — the neural crate deliberately has
//! no solver dependency.

use crate::model::ForecastError;

/// Solves `A x = b` for square `A` (row-major, `n×n`) by Gaussian
/// elimination with partial pivoting.
fn solve(a: &[f64], b: &[f64], n: usize) -> Result<Vec<f64>, ForecastError> {
    assert_eq!(a.len(), n * n, "A must be n×n");
    assert_eq!(b.len(), n, "b must be length n");
    let mut m = a.to_vec();
    let mut rhs = b.to_vec();
    for col in 0..n {
        // Pivot.
        let mut pivot = col;
        for r in col + 1..n {
            if m[r * n + col].abs() > m[pivot * n + col].abs() {
                pivot = r;
            }
        }
        if m[pivot * n + col].abs() < 1e-12 {
            return Err(ForecastError::Numerical(format!("singular at column {col}")));
        }
        if pivot != col {
            for c in 0..n {
                m.swap(col * n + c, pivot * n + c);
            }
            rhs.swap(col, pivot);
        }
        // Eliminate below.
        for r in col + 1..n {
            let f = m[r * n + col] / m[col * n + col];
            if f == 0.0 {
                continue;
            }
            for c in col..n {
                m[r * n + c] -= f * m[col * n + c];
            }
            rhs[r] -= f * rhs[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for r in (0..n).rev() {
        let mut s = rhs[r];
        for c in r + 1..n {
            s -= m[r * n + c] * x[c];
        }
        x[r] = s / m[r * n + r];
    }
    Ok(x)
}

/// Ordinary least squares: finds `beta` minimizing `||X beta - y||²` via the
/// normal equations with a tiny ridge term for conditioning.
///
/// `x` is row-major `rows × cols`.
pub fn lstsq(x: &[f64], y: &[f64], rows: usize, cols: usize) -> Result<Vec<f64>, ForecastError> {
    assert_eq!(x.len(), rows * cols, "X shape mismatch");
    assert_eq!(y.len(), rows, "y length mismatch");
    if rows < cols {
        return Err(ForecastError::Numerical(format!(
            "underdetermined system: {rows} rows, {cols} cols"
        )));
    }
    // Normal equations: (XᵀX + λI) beta = Xᵀ y.
    let mut xtx = vec![0.0; cols * cols];
    let mut xty = vec![0.0; cols];
    for r in 0..rows {
        let row = &x[r * cols..(r + 1) * cols];
        for i in 0..cols {
            xty[i] += row[i] * y[r];
            for j in i..cols {
                xtx[i * cols + j] += row[i] * row[j];
            }
        }
    }
    // Mirror the upper triangle and regularize.
    let lambda = 1e-12 * (0..cols).map(|i| xtx[i * cols + i]).fold(0.0f64, f64::max).max(1.0);
    for i in 0..cols {
        for j in 0..i {
            xtx[i * cols + j] = xtx[j * cols + i];
        }
        xtx[i * cols + i] += lambda;
    }
    solve(&xtx, &xty, cols)
}

/// OLS with coefficient standard errors, for the paper's Table 3 regression
/// (`CR = θ1·TE + θ0`). Returns `(beta, se)`.
pub fn lstsq_with_se(
    x: &[f64],
    y: &[f64],
    rows: usize,
    cols: usize,
) -> Result<(Vec<f64>, Vec<f64>), ForecastError> {
    let beta = lstsq(x, y, rows, cols)?;
    if rows <= cols {
        return Ok((beta.clone(), vec![f64::INFINITY; cols]));
    }
    // Residual variance.
    let mut sse = 0.0;
    for r in 0..rows {
        let mut pred = 0.0;
        for c in 0..cols {
            pred += x[r * cols + c] * beta[c];
        }
        sse += (y[r] - pred) * (y[r] - pred);
    }
    let sigma2 = sse / (rows - cols) as f64;
    // SE_j = sqrt(sigma² · [(XᵀX)⁻¹]_jj), via solving for each basis vector.
    let mut xtx = vec![0.0; cols * cols];
    for r in 0..rows {
        let row = &x[r * cols..(r + 1) * cols];
        for i in 0..cols {
            for j in 0..cols {
                xtx[i * cols + j] += row[i] * row[j];
            }
        }
    }
    let mut se = vec![0.0; cols];
    for j in 0..cols {
        let mut e = vec![0.0; cols];
        e[j] = 1.0;
        let col_inv = solve(&xtx, &e, cols)?;
        se[j] = (sigma2 * col_inv[j]).max(0.0).sqrt();
    }
    Ok((beta, se))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_identity() {
        let a = [1.0, 0.0, 0.0, 1.0];
        let b = [3.0, -4.0];
        assert_eq!(solve(&a, &b, 2).unwrap(), vec![3.0, -4.0]);
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5; x - y = 1 -> x = 2, y = 1
        let a = [2.0, 1.0, 1.0, -1.0];
        let b = [5.0, 1.0];
        let x = solve(&a, &b, 2).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn solve_needs_pivoting() {
        // Leading zero forces a row swap.
        let a = [0.0, 1.0, 1.0, 0.0];
        let b = [2.0, 3.0];
        let x = solve(&a, &b, 2).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = [1.0, 2.0, 2.0, 4.0];
        assert!(solve(&a, &[1.0, 2.0], 2).is_err());
    }

    #[test]
    fn lstsq_exact_line() {
        // y = 3 + 2t fit with design [1, t].
        let ts = [0.0, 1.0, 2.0, 3.0, 4.0];
        let x: Vec<f64> = ts.iter().flat_map(|&t| [1.0, t]).collect();
        let y: Vec<f64> = ts.iter().map(|&t| 3.0 + 2.0 * t).collect();
        let beta = lstsq(&x, &y, 5, 2).unwrap();
        assert!((beta[0] - 3.0).abs() < 1e-6);
        assert!((beta[1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn lstsq_overdetermined_noisy() {
        let n = 200;
        let x: Vec<f64> = (0..n).flat_map(|i| [1.0, i as f64 / n as f64]).collect();
        let y: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                1.0 - 0.5 * t + if i % 2 == 0 { 0.01 } else { -0.01 }
            })
            .collect();
        let beta = lstsq(&x, &y, n, 2).unwrap();
        assert!((beta[0] - 1.0).abs() < 0.02);
        assert!((beta[1] + 0.5).abs() < 0.05);
    }

    #[test]
    fn lstsq_underdetermined_rejected() {
        assert!(lstsq(&[1.0, 2.0], &[1.0], 1, 2).is_err());
    }

    #[test]
    fn standard_errors_shrink_with_samples() {
        let make = |n: usize| {
            let x: Vec<f64> = (0..n).flat_map(|i| [1.0, (i % 17) as f64]).collect();
            let y: Vec<f64> = (0..n)
                .map(|i| 2.0 + 0.3 * (i % 17) as f64 + ((i * 31 % 7) as f64 - 3.0) * 0.1)
                .collect();
            lstsq_with_se(&x, &y, n, 2).unwrap().1
        };
        let se_small = make(30);
        let se_big = make(3000);
        assert!(se_big[0] < se_small[0]);
        assert!(se_big[1] < se_small[1]);
    }

    #[test]
    fn se_on_perfect_fit_is_zero() {
        let x: Vec<f64> = (0..10).flat_map(|i| [1.0, i as f64]).collect();
        let y: Vec<f64> = (0..10).map(|i| 4.0 + 0.5 * i as f64).collect();
        let (beta, se) = lstsq_with_se(&x, &y, 10, 2).unwrap();
        assert!((beta[1] - 0.5).abs() < 1e-6);
        assert!(se[0] < 1e-5 && se[1] < 1e-5);
    }
}
