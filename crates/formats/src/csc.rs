//! Compressed Sparse Column format (paper §II-A, Figure 1.c).

use crate::{Coo, Csr, FormatError, Index, Value};

/// A sparse matrix in Compressed Sparse Column form.
///
/// CSC mirrors [`Csr`] with rows and columns swapped: `col_ptr` locates each
/// column in `row_idx`/`data`. The paper's inner-product SpMM (Algorithm 3)
/// compresses the right-hand matrix `B` in CSC so its columns can be
/// streamed against rows of `A`.
///
/// # Example
///
/// ```
/// use via_formats::{Coo, Csc};
///
/// let coo = Coo::from_triplets(2, 2, [(0, 0, 1.0), (1, 0, 2.0), (1, 1, 3.0)])?;
/// let csc = Csc::from_coo(&coo);
/// let (rows, vals) = csc.col(0);
/// assert_eq!(rows, &[0, 1]);
/// assert_eq!(vals, &[1.0, 2.0]);
/// # Ok::<(), via_formats::FormatError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csc {
    rows: usize,
    cols: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<Index>,
    data: Vec<Value>,
}

impl Csc {
    /// Builds a CSC matrix from a COO matrix.
    pub fn from_coo(coo: &Coo) -> Self {
        // Column-major sort = canonical order of the transpose.
        let t = coo.transpose();
        let mut col_ptr = vec![0usize; coo.cols() + 1];
        for &(c, _, _) in t.entries() {
            col_ptr[c as usize + 1] += 1;
        }
        for i in 0..coo.cols() {
            col_ptr[i + 1] += col_ptr[i];
        }
        let mut row_idx = Vec::with_capacity(t.nnz());
        let mut data = Vec::with_capacity(t.nnz());
        for &(_, r, v) in t.entries() {
            row_idx.push(r);
            data.push(v);
        }
        Csc {
            rows: coo.rows(),
            cols: coo.cols(),
            col_ptr,
            row_idx,
            data,
        }
    }

    /// The CSC form of `csr` ([`Csr::to_csc`]) without intermediate
    /// copies: the arrays are reserved fallibly, then filled by a counting
    /// sort over `csr`'s column indices, so rows stay ascending within
    /// each column.
    ///
    /// # Errors
    ///
    /// [`FormatError::TooLarge`] if the CSC arrays cannot be allocated.
    pub fn try_from_csr(csr: &Csr) -> Result<Self, FormatError> {
        let (rows, cols, nnz) = (csr.rows(), csr.cols(), csr.nnz());
        let too_large = |_| FormatError::TooLarge { rows, cols };
        let mut col_ptr = Vec::new();
        col_ptr.try_reserve_exact(cols + 1).map_err(too_large)?;
        let mut row_idx = Vec::new();
        row_idx.try_reserve_exact(nnz).map_err(too_large)?;
        let mut data = Vec::new();
        data.try_reserve_exact(nnz).map_err(too_large)?;
        col_ptr.resize(cols + 1, 0usize);
        for &c in csr.col_idx() {
            col_ptr[c as usize + 1] += 1;
        }
        for j in 0..cols {
            col_ptr[j + 1] += col_ptr[j];
        }
        row_idx.resize(nnz, 0);
        data.resize(nnz, 0.0);
        // While scattering, `col_ptr[c]` is column `c`'s next free slot; it
        // ends at column `c + 1`'s start, so one shift restores the starts.
        for r in 0..rows {
            let (cs, vs) = csr.row(r);
            for (&c, &v) in cs.iter().zip(vs) {
                let slot = &mut col_ptr[c as usize];
                row_idx[*slot] = r as Index;
                data[*slot] = v;
                *slot += 1;
            }
        }
        col_ptr.copy_within(0..cols, 1);
        col_ptr[0] = 0;
        Ok(Csc {
            rows,
            cols,
            col_ptr,
            row_idx,
            data,
        })
    }

    /// Builds a CSC matrix directly from its raw arrays.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::InvalidStructure`] under the same conditions as
    /// [`Csr::from_raw`], with rows and columns swapped.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        col_ptr: Vec<usize>,
        row_idx: Vec<Index>,
        data: Vec<Value>,
    ) -> Result<Self, FormatError> {
        // Validate by borrowing CSR's checker on the transposed view.
        let csr = Csr::from_raw(cols, rows, col_ptr, row_idx, data)?;
        // Steal the validated arrays back.
        let (col_ptr, row_idx, data) = (
            csr.row_ptr().to_vec(),
            csr.col_idx().to_vec(),
            csr.data().to_vec(),
        );
        Ok(Csc {
            rows,
            cols,
            col_ptr,
            row_idx,
            data,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of structural non-zeros.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// The column pointer array (`cols + 1` entries).
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// The row index array.
    pub fn row_idx(&self) -> &[Index] {
        &self.row_idx
    }

    /// The value array.
    pub fn data(&self) -> &[Value] {
        &self.data
    }

    /// The row indices and values of column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col(&self, j: usize) -> (&[Index], &[Value]) {
        let lo = self.col_ptr[j];
        let hi = self.col_ptr[j + 1];
        (&self.row_idx[lo..hi], &self.data[lo..hi])
    }

    /// Number of non-zeros in column `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col_nnz(&self, j: usize) -> usize {
        self.col_ptr[j + 1] - self.col_ptr[j]
    }

    /// Looks up the value at `(row, col)`, if structurally present.
    pub fn get(&self, row: usize, col: usize) -> Option<Value> {
        if col >= self.cols {
            return None;
        }
        let (rows, vals) = self.col(col);
        rows.binary_search(&(row as Index))
            .ok()
            .map(|pos| vals[pos])
    }

    /// Converts back to canonical COO form.
    pub fn to_coo(&self) -> Coo {
        let mut coo = Coo::new(self.rows, self.cols);
        for j in 0..self.cols {
            let (rows, vals) = self.col(j);
            for (r, v) in rows.iter().zip(vals) {
                coo.push(*r as usize, j, *v);
            }
        }
        coo.into_canonical()
    }

    /// Converts to CSR form.
    pub fn to_csr(&self) -> Csr {
        Csr::from_coo(&self.to_coo())
    }

    /// Memory footprint of the compressed representation in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.data.len() * 8 + self.row_idx.len() * 4 + self.col_ptr.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csc {
        // [1 0 2]
        // [0 0 3]
        // [4 5 0]
        let coo = Coo::from_triplets(
            3,
            3,
            [
                (0, 0, 1.0),
                (0, 2, 2.0),
                (1, 2, 3.0),
                (2, 0, 4.0),
                (2, 1, 5.0),
            ],
        )
        .unwrap();
        Csc::from_coo(&coo)
    }

    #[test]
    fn from_coo_builds_expected_arrays() {
        let m = sample();
        assert_eq!(m.col_ptr(), &[0, 2, 3, 5]);
        assert_eq!(m.row_idx(), &[0, 2, 2, 0, 1]);
        assert_eq!(m.data(), &[1.0, 4.0, 5.0, 2.0, 3.0]);
    }

    #[test]
    fn col_slices_are_sorted_by_row() {
        let m = sample();
        let (rows, vals) = m.col(2);
        assert_eq!(rows, &[0, 1]);
        assert_eq!(vals, &[2.0, 3.0]);
    }

    #[test]
    fn get_matches_csr_view() {
        let m = sample();
        let csr = m.to_csr();
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(m.get(r, c), csr.get(r, c), "mismatch at ({r},{c})");
            }
        }
    }

    #[test]
    fn csr_csc_round_trip() {
        let m = sample();
        assert_eq!(m.to_csr().to_csc(), m);
    }

    #[test]
    fn from_raw_validates() {
        assert!(Csc::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        let ok = Csc::from_raw(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0, 2.0]).unwrap();
        assert_eq!(ok.get(1, 0), Some(1.0));
    }

    #[test]
    fn col_nnz_counts() {
        let m = sample();
        assert_eq!(m.col_nnz(0), 2);
        assert_eq!(m.col_nnz(1), 1);
        assert_eq!(m.col_nnz(2), 2);
    }
}
