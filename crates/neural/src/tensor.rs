//! A minimal dense 2-D tensor (row-major `f64`).
//!
//! Everything the forecasting models need — dense layers, GRU cells,
//! attention — is expressible with 2-D matrices plus per-sample loops, so
//! the tensor type stays deliberately simple: a shape `(rows, cols)` and a
//! flat buffer. Higher-rank batching is handled in the layer code.

use std::fmt;

use crate::kernels;

/// A row-major 2-D matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Tensor {
    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn new(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "tensor buffer/shape mismatch");
        Tensor { rows, cols, data }
    }

    /// All-zero tensor.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Tensor filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        Tensor { rows, cols, data: vec![value; rows * cols] }
    }

    /// A `1×n` row vector.
    pub fn row(values: &[f64]) -> Self {
        Tensor { rows: 1, cols: values.len(), data: values.to_vec() }
    }

    /// An `n×1` column vector.
    pub fn col(values: &[f64]) -> Self {
        Tensor { rows: values.len(), cols: 1, data: values.to_vec() }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub(crate) fn len(&self) -> usize {
        self.data.len()
    }

    /// Immutable flat buffer.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat buffer.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element assignment.
    #[inline]
    pub(crate) fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Matrix product `self · other`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// Allocation-free matrix product: `out = self · other`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch or if `out` is not
    /// `self.rows × other.cols`.
    pub fn matmul_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols, other.rows,
            "matmul {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(out.shape(), (self.rows, other.cols), "matmul_into output shape");
        kernels::matmul(&self.data, &other.data, &mut out.data, self.rows, self.cols, other.cols);
    }

    /// `self · otherᵀ` without materializing the transpose.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.rows, other.rows);
        self.matmul_nt_into(other, &mut out);
        out
    }

    /// Allocation-free `out = self · otherᵀ`.
    fn matmul_nt_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.cols, other.cols,
            "matmul_nt {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(out.shape(), (self.rows, other.rows), "matmul_nt_into output shape");
        kernels::matmul_nt(
            &self.data,
            &other.data,
            &mut out.data,
            self.rows,
            self.cols,
            other.rows,
        );
    }

    /// `selfᵀ · other` without materializing the transpose.
    pub fn matmul_tn(&self, other: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.cols, other.cols);
        self.matmul_tn_into(other, &mut out);
        out
    }

    /// Allocation-free `out = selfᵀ · other`.
    fn matmul_tn_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(
            self.rows, other.rows,
            "matmul_tn ({}x{})ᵀ · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(out.shape(), (self.cols, other.cols), "matmul_tn_into output shape");
        kernels::matmul_tn(
            &self.data,
            &other.data,
            &mut out.data,
            self.cols,
            self.rows,
            other.cols,
        );
    }

    /// The pre-optimization scalar matmul (ikj order with a zero-skip
    /// branch). Kept as the correctness oracle for property tests and as
    /// the baseline the kernel benchmarks compare against.
    pub fn reference_matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Tensor::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.data[i * self.cols + k];
                if a == 0.0 {
                    continue;
                }
                let orow = &other.data[k * other.cols..(k + 1) * other.cols];
                let out_row = &mut out.data[i * other.cols..(i + 1) * other.cols];
                for (o, &b) in out_row.iter_mut().zip(orow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Allocation-free transpose: `out = selfᵀ`.
    fn transpose_into(&self, out: &mut Tensor) {
        assert_eq!(out.shape(), (self.cols, self.rows), "transpose_into output shape");
        kernels::transpose(&self.data, &mut out.data, self.rows, self.cols);
    }

    /// Elementwise map into a new tensor.
    pub(crate) fn map(&self, f: impl Fn(f64) -> f64) -> Tensor {
        Tensor { rows: self.rows, cols: self.cols, data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// Elementwise combination with an equal-shaped tensor.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub(crate) fn zip(&self, other: &Tensor, f: impl Fn(f64, f64) -> f64) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "zip shape mismatch");
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().zip(&other.data).map(|(&a, &b)| f(a, b)).collect(),
        }
    }

    /// In-place `self += other`.
    pub(crate) fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place scaling.
    pub(crate) fn scale_assign(&mut self, k: f64) {
        for a in self.data.iter_mut() {
            *a *= k;
        }
    }

    /// Extracts rows `start..end` as a new tensor.
    pub(crate) fn slice_rows(&self, start: usize, end: usize) -> Tensor {
        assert!(start <= end && end <= self.rows, "row slice out of range");
        Tensor {
            rows: end - start,
            cols: self.cols,
            data: self.data[start * self.cols..end * self.cols].to_vec(),
        }
    }

    /// Extracts columns `start..end` as a new tensor.
    pub(crate) fn slice_cols(&self, start: usize, end: usize) -> Tensor {
        assert!(start <= end && end <= self.cols, "col slice out of range");
        let mut out = Tensor::zeros(self.rows, end - start);
        for r in 0..self.rows {
            let src = &self.data[r * self.cols + start..r * self.cols + end];
            out.data[r * (end - start)..(r + 1) * (end - start)].copy_from_slice(src);
        }
        out
    }

    /// Stacks `self` above `other` (same column count).
    pub(crate) fn vstack(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.cols, other.cols, "vstack column mismatch");
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Tensor { rows: self.rows + other.rows, cols: self.cols, data }
    }

    /// Concatenates `other`'s columns to the right of `self`'s.
    pub(crate) fn hstack(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.rows, other.rows, "hstack row mismatch");
        let cols = self.cols + other.cols;
        let mut out = Tensor::zeros(self.rows, cols);
        for r in 0..self.rows {
            out.data[r * cols..r * cols + self.cols]
                .copy_from_slice(&self.data[r * self.cols..(r + 1) * self.cols]);
            out.data[r * cols + self.cols..(r + 1) * cols]
                .copy_from_slice(&other.data[r * other.cols..(r + 1) * other.cols]);
        }
        out
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(6) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:>10.4} ", self.get(r, c))?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 6 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let t = Tensor::new(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.get(0, 2), 3.0);
        assert_eq!(t.get(1, 0), 4.0);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn bad_shape_panics() {
        Tensor::new(2, 2, vec![1.0]);
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::new(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::new(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::new(2, 2, vec![3.0, -1.0, 2.0, 5.0]);
        let i = Tensor::new(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::new(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let t = a.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn map_zip_and_assign() {
        let a = Tensor::new(1, 3, vec![1.0, 2.0, 3.0]);
        let b = Tensor::new(1, 3, vec![10.0, 20.0, 30.0]);
        assert_eq!(a.map(|v| v * 2.0).data(), &[2.0, 4.0, 6.0]);
        assert_eq!(a.zip(&b, |x, y| y - x).data(), &[9.0, 18.0, 27.0]);
        let mut c = a.clone();
        c.add_assign(&b);
        assert_eq!(c.data(), &[11.0, 22.0, 33.0]);
        c.scale_assign(0.5);
        assert_eq!(c.data(), &[5.5, 11.0, 16.5]);
    }

    #[test]
    fn slices_and_stacks() {
        let a = Tensor::new(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.slice_rows(1, 3).data(), &[3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.slice_cols(1, 2).data(), &[2.0, 4.0, 6.0]);
        let b = Tensor::new(1, 2, vec![7.0, 8.0]);
        assert_eq!(a.vstack(&b).rows(), 4);
        let c = Tensor::new(3, 1, vec![9.0, 9.0, 9.0]);
        let h = a.hstack(&c);
        assert_eq!(h.shape(), (3, 3));
        assert_eq!(h.get(0, 2), 9.0);
        assert_eq!(h.get(2, 0), 5.0);
    }

    #[test]
    fn matmul_matches_reference() {
        let a = Tensor::new(3, 4, (0..12).map(|v| v as f64 * 0.25 - 1.0).collect());
        let b = Tensor::new(4, 5, (0..20).map(|v| 2.0 - v as f64 * 0.17).collect());
        let fast = a.matmul(&b);
        let slow = a.reference_matmul(&b);
        assert_eq!(fast.shape(), slow.shape());
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn layout_aware_variants_match_explicit_transpose() {
        // Different kernels sum in different orders, so compare with a
        // tolerance rather than bitwise.
        fn assert_close(a: &Tensor, b: &Tensor) {
            assert_eq!(a.shape(), b.shape());
            for (x, y) in a.data().iter().zip(b.data()) {
                assert!((x - y).abs() < 1e-12, "{x} vs {y}");
            }
        }
        let a = Tensor::new(3, 4, (0..12).map(|v| (v as f64).sin()).collect());
        let b = Tensor::new(5, 4, (0..20).map(|v| (v as f64).cos()).collect());
        assert_close(&a.matmul_nt(&b), &a.matmul(&b.transpose()));
        let c = Tensor::new(3, 5, (0..15).map(|v| v as f64 - 7.0).collect());
        assert_close(&a.matmul_tn(&c), &a.transpose().matmul(&c));
    }

    #[test]
    fn into_variants_match_allocating_ops() {
        let a = Tensor::new(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Tensor::new(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let mut out = Tensor::zeros(2, 2);
        a.matmul_into(&b, &mut out);
        assert_eq!(out.data(), &[58.0, 64.0, 139.0, 154.0]);

        let mut t = Tensor::zeros(3, 2);
        a.transpose_into(&mut t);
        assert_eq!(t, a.transpose());
    }
}
