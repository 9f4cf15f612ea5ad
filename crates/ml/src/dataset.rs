//! Dense row-major matrices for features and multi-output targets.

use crate::error::MlError;
use serde::{Deserialize, Serialize};

/// A dense row-major `f64` matrix.
///
/// Rows are observations, columns are features (or outputs). The layout is
/// a single contiguous allocation, so row access is a cheap slice.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Builds a matrix from row vectors.
    ///
    /// # Errors
    /// [`MlError::EmptyDataset`] for no rows / no columns,
    /// [`MlError::RaggedRows`] if rows disagree on length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, MlError> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(MlError::EmptyDataset);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != cols {
                return Err(MlError::RaggedRows {
                    expected: cols,
                    found: r.len(),
                    row: i,
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// A `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Number of rows (observations).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (features / outputs).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Element `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Column `c` as an owned vector.
    pub fn column(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_rows_round_trips() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 2);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.get(1, 1), 4.0);
        assert_eq!(m.column(1), vec![2.0, 4.0]);
    }

    #[test]
    fn ragged_rows_are_rejected() {
        let err = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).unwrap_err();
        assert!(matches!(err, MlError::RaggedRows { row: 1, .. }));
    }

    #[test]
    fn empty_is_rejected() {
        assert!(matches!(Matrix::from_rows(&[]), Err(MlError::EmptyDataset)));
        assert!(matches!(
            Matrix::from_rows(&[vec![]]),
            Err(MlError::EmptyDataset)
        ));
    }

    #[test]
    fn row_mut_writes_through() {
        let mut m = Matrix::zeros(2, 2);
        m.row_mut(1)[0] = 9.0;
        assert_eq!(m.get(1, 0), 9.0);
        assert_eq!(m.row(0), &[0.0, 0.0]);
    }
}
