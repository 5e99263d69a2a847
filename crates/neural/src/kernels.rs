//! Cache-blocked matrix micro-kernels behind [`crate::tensor::Tensor`].
//!
//! All kernels operate on raw row-major `f64` slices so they can be reused
//! by allocation-free `_into` tensor methods. Design notes:
//!
//! * **Blocking.** The GEMM kernels tile the shared dimension (`KC`) so
//!   the active panel of `B` stays in L1/L2 across the row sweep, and
//!   process four rows of `A`/`C` per pass so every loaded `B` row is
//!   reused four times.
//! * **Unrolling.** Inner loops are written 4-wide over independent
//!   accumulators; with `f64` this is the shape LLVM autovectorizes into
//!   2×-unrolled AVX/NEON without any intrinsics or `unsafe`.
//! * **Layout-aware variants.** `matmul_nt` (`A·Bᵀ`) and `matmul_tn`
//!   (`Aᵀ·B`) pack the transposed operand into a thread-local scratch
//!   panel and reuse the blocked kernel, so the autodiff backward pass
//!   never allocates a transpose tensor. For narrow outputs the plain
//!   kernel packs a transposed `B` panel and switches to a dot-product
//!   kernel, which beats streaming when `C` rows are too short to
//!   vectorize well.
//!
//! Accumulation (`*_acc`) variants add into `out` instead of overwriting,
//! letting gradient accumulation fuse with the product.

use std::cell::RefCell;

/// Tile size over the shared (`k`) dimension: 256 f64 = 2 KiB per row
/// panel, comfortably inside L1 alongside four `C` rows.
const KC: usize = 256;

/// Register-tile width: 8 f64 accumulators per C row fit in two AVX (or
/// four SSE) registers, times four rows = the whole tile stays enregistered.
const TJ: usize = 8;

/// Below this output width the streaming kernel's inner loop is too short
/// to vectorize; pack `Bᵀ` and use dot products instead.
const NARROW_N: usize = 8;

thread_local! {
    /// Scratch for the packed transposed-`B` panel (reused across calls).
    static PACK_BUF: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
    /// Scratch for the transposed operand in `matmul_nt` / `matmul_tn`.
    /// Separate from `PACK_BUF` because the blocked kernel may borrow
    /// that one while a transposed panel is alive.
    static TRANS_BUF: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// 4-wide unrolled dot product.
#[inline]
pub(crate) fn dot(x: &[f64], y: &[f64]) -> f64 {
    let n = x.len();
    assert_eq!(n, y.len(), "dot length mismatch");
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    let quads = n / 4;
    for q in 0..quads {
        let i = q * 4;
        s0 += x[i] * y[i];
        s1 += x[i + 1] * y[i + 1];
        s2 += x[i + 2] * y[i + 2];
        s3 += x[i + 3] * y[i + 3];
    }
    for i in quads * 4..n {
        s0 += x[i] * y[i];
    }
    (s0 + s1) + (s2 + s3)
}

/// `y += alpha * x`.
#[inline]
pub(crate) fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `out = A·B` for row-major `A[m×k]`, `B[k×n]`, `out[m×n]`.
pub fn matmul(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    out.fill(0.0);
    matmul_acc(a, b, out, m, k, n);
}

/// `out += A·B`; the blocked/unrolled workhorse behind every `N·N` product.
fn matmul_acc(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A buffer size");
    assert_eq!(b.len(), k * n, "B buffer size");
    assert_eq!(out.len(), m * n, "C buffer size");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    if n < NARROW_N && k >= 2 * NARROW_N {
        return matmul_acc_packed(a, b, out, m, k, n);
    }

    let mut k0 = 0;
    while k0 < k {
        let kb = KC.min(k - k0);
        let mut i = 0;
        // 4×8 register tile: C values live in `acc` (which LLVM keeps in
        // vector registers) for the whole k-block, so the inner loop does
        // 32 FMAs against 8 B-loads and 4 A-loads with no C traffic.
        while i + 4 <= m {
            let a0 = &a[i * k + k0..i * k + k0 + kb];
            let a1 = &a[(i + 1) * k + k0..(i + 1) * k + k0 + kb];
            let a2 = &a[(i + 2) * k + k0..(i + 2) * k + k0 + kb];
            let a3 = &a[(i + 3) * k + k0..(i + 3) * k + k0 + kb];
            let mut j0 = 0;
            while j0 + TJ <= n {
                let mut acc = [[0.0f64; TJ]; 4];
                for kk in 0..kb {
                    let (x0, x1, x2, x3) = (a0[kk], a1[kk], a2[kk], a3[kk]);
                    let brow = &b[(k0 + kk) * n + j0..(k0 + kk) * n + j0 + TJ];
                    for jj in 0..TJ {
                        let bv = brow[jj];
                        acc[0][jj] += x0 * bv;
                        acc[1][jj] += x1 * bv;
                        acc[2][jj] += x2 * bv;
                        acc[3][jj] += x3 * bv;
                    }
                }
                for (r, acc_row) in acc.iter().enumerate() {
                    let crow = &mut out[(i + r) * n + j0..(i + r) * n + j0 + TJ];
                    for jj in 0..TJ {
                        crow[jj] += acc_row[jj];
                    }
                }
                j0 += TJ;
            }
            // Column remainder (n % 8): stream one row at a time.
            if j0 < n {
                for (r, arow) in [a0, a1, a2, a3].into_iter().enumerate() {
                    let crow = &mut out[(i + r) * n + j0..(i + r) * n + n];
                    for (kk, &x) in arow.iter().enumerate() {
                        let brow = &b[(k0 + kk) * n + j0..(k0 + kk) * n + n];
                        axpy(x, brow, crow);
                    }
                }
            }
            i += 4;
        }
        // Row remainder (m % 4), one row at a time.
        while i < m {
            let arow = &a[i * k + k0..i * k + k0 + kb];
            let crow = &mut out[i * n..(i + 1) * n];
            for (kk, &x) in arow.iter().enumerate() {
                let brow = &b[(k0 + kk) * n..(k0 + kk) * n + n];
                axpy(x, brow, crow);
            }
            i += 1;
        }
        k0 += kb;
    }
}

/// Narrow-output path: packs `Bᵀ` into a thread-local panel so each
/// `C[i][j]` becomes one contiguous dot product.
fn matmul_acc_packed(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    PACK_BUF.with(|buf| {
        let mut bt = buf.borrow_mut();
        bt.clear();
        bt.resize(n * k, 0.0);
        for kk in 0..k {
            let brow = &b[kk * n..(kk + 1) * n];
            for j in 0..n {
                bt[j * k + kk] = brow[j];
            }
        }
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let crow = &mut out[i * n..(i + 1) * n];
            for j in 0..n {
                crow[j] += dot(arow, &bt[j * k..(j + 1) * k]);
            }
        }
    });
}

/// `out = A·Bᵀ` for row-major `A[m×k]`, `B[n×k]`, `out[m×n]`.
///
/// The transpose is packed into a thread-local scratch panel (no
/// allocation after warmup) so the blocked kernel runs at full speed;
/// dot-product and rank-1 formulations that avoid the pack measure 2-4×
/// slower because their inner loops defeat vectorization.
pub(crate) fn matmul_nt(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    out.fill(0.0);
    matmul_nt_acc(a, b, out, m, k, n);
}

/// `out += A·Bᵀ` (see [`matmul_nt`]).
fn matmul_nt_acc(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A buffer size");
    assert_eq!(b.len(), n * k, "B buffer size");
    assert_eq!(out.len(), m * n, "C buffer size");
    TRANS_BUF.with(|buf| {
        let mut bt = buf.borrow_mut();
        bt.clear();
        bt.resize(k * n, 0.0);
        transpose(b, &mut bt, n, k);
        matmul_acc(a, &bt, out, m, k, n);
    });
}

/// `out = Aᵀ·B` for row-major `A[k×m]`, `B[k×n]`, `out[m×n]`.
///
/// Same pack-then-multiply scheme as [`matmul_nt`].
pub(crate) fn matmul_tn(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    out.fill(0.0);
    matmul_tn_acc(a, b, out, m, k, n);
}

/// `out += Aᵀ·B` (see [`matmul_tn`]).
fn matmul_tn_acc(a: &[f64], b: &[f64], out: &mut [f64], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), k * m, "A buffer size");
    assert_eq!(b.len(), k * n, "B buffer size");
    assert_eq!(out.len(), m * n, "C buffer size");
    TRANS_BUF.with(|buf| {
        let mut at = buf.borrow_mut();
        at.clear();
        at.resize(m * k, 0.0);
        transpose(a, &mut at, k, m);
        matmul_acc(&at, b, out, m, k, n);
    });
}

/// Tiled out-of-place transpose: `dst[c][r] = src[r][c]` for row-major
/// `src[rows×cols]`. Tiling keeps both the read and write streams within
/// a cache-line-sized window.
pub(crate) fn transpose(src: &[f64], dst: &mut [f64], rows: usize, cols: usize) {
    assert_eq!(src.len(), rows * cols, "src buffer size");
    assert_eq!(dst.len(), rows * cols, "dst buffer size");
    const TILE: usize = 32;
    let mut r0 = 0;
    while r0 < rows {
        let rb = TILE.min(rows - r0);
        let mut c0 = 0;
        while c0 < cols {
            let cb = TILE.min(cols - c0);
            for r in r0..r0 + rb {
                let src_row = &src[r * cols + c0..r * cols + c0 + cb];
                for (dc, &v) in src_row.iter().enumerate() {
                    dst[(c0 + dc) * rows + r] = v;
                }
            }
            c0 += cb;
        }
        r0 += rb;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                for kk in 0..k {
                    c[i * n + j] += a[i * k + kk] * b[kk * n + j];
                }
            }
        }
        c
    }

    fn fill(len: usize, seed: u64) -> Vec<f64> {
        // Small deterministic pseudo-random values in [-1, 1).
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 52) as f64 - 1.0
            })
            .collect()
    }

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() <= 1e-12 * (1.0 + x.abs().max(y.abs())), "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_matches_naive_across_shapes() {
        // Covers 4-row blocks, remainders, k-tiling, and the packed
        // narrow-n path (n < 8 with large k).
        for &(m, k, n) in
            &[(1, 1, 1), (4, 4, 4), (5, 7, 3), (9, 300, 2), (6, 513, 11), (13, 17, 19)]
        {
            let a = fill(m * k, 1);
            let b = fill(k * n, 2);
            let mut c = vec![0.0; m * n];
            matmul(&a, &b, &mut c, m, k, n);
            assert_close(&c, &naive(&a, &b, m, k, n));
        }
    }

    #[test]
    fn acc_adds_instead_of_overwriting() {
        let a = fill(6, 3);
        let b = fill(6, 4);
        let mut c = vec![1.0; 4];
        matmul_acc(&a, &b, &mut c, 2, 3, 2);
        let mut expected = naive(&a, &b, 2, 3, 2);
        for e in &mut expected {
            *e += 1.0;
        }
        assert_close(&c, &expected);
    }

    #[test]
    fn nt_and_tn_match_explicit_transposes() {
        let (m, k, n) = (5, 9, 6);
        let a = fill(m * k, 5);
        let bt = fill(n * k, 6); // logical B is bt transposed
        let mut b = vec![0.0; k * n];
        transpose(&bt, &mut b, n, k);
        let mut c_nt = vec![0.0; m * n];
        matmul_nt(&a, &bt, &mut c_nt, m, k, n);
        assert_close(&c_nt, &naive(&a, &b, m, k, n));

        let at = fill(k * m, 7); // logical A is at transposed
        let mut a2 = vec![0.0; m * k];
        transpose(&at, &mut a2, k, m);
        let b2 = fill(k * n, 8);
        let mut c_tn = vec![0.0; m * n];
        matmul_tn(&at, &b2, &mut c_tn, m, k, n);
        assert_close(&c_tn, &naive(&a2, &b2, m, k, n));
    }

    #[test]
    fn transpose_tiled_roundtrip() {
        for &(r, c) in &[(1, 1), (3, 5), (33, 65), (64, 64)] {
            let src = fill(r * c, 9);
            let mut t = vec![0.0; r * c];
            let mut back = vec![0.0; r * c];
            transpose(&src, &mut t, r, c);
            transpose(&t, &mut back, c, r);
            assert_eq!(src, back);
        }
    }

    #[test]
    fn dot_and_axpy() {
        let x = fill(101, 10);
        let y = fill(101, 11);
        let expected: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        assert!((dot(&x, &y) - expected).abs() < 1e-12);

        let mut acc = y.clone();
        axpy(2.5, &x, &mut acc);
        for i in 0..x.len() {
            assert!((acc[i] - (y[i] + 2.5 * x[i])).abs() < 1e-15);
        }
    }
}
