//! Compressed Sparse Row format (paper §II-A, Figure 1.a).

use crate::{Coo, Csc, FormatError, Index, Value};

/// A sparse matrix in Compressed Sparse Row form.
///
/// CSR uses three arrays (paper §II-A): `row_ptr` (the start of each row in
/// the other two arrays), `col_idx` (the column of each non-zero), and
/// `data` (the non-zero values). It is the baseline format of the Eigen
/// kernels the paper compares against for SpMV, SpMA and SpMM.
///
/// # Example
///
/// ```
/// use via_formats::{Coo, Csr};
///
/// let coo = Coo::from_triplets(2, 3, [(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0)])?;
/// let csr = Csr::from_coo(&coo);
/// assert_eq!(csr.row_ptr(), &[0, 2, 3]);
/// assert_eq!(csr.col_idx(), &[0, 2, 1]);
/// assert_eq!(csr.data(), &[1.0, 2.0, 3.0]);
/// # Ok::<(), via_formats::FormatError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Csr {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<Index>,
    data: Vec<Value>,
}

impl Csr {
    /// Builds a CSR matrix from a COO matrix (a canonical copy is made if
    /// needed).
    ///
    /// # Panics
    ///
    /// Panics if the row pointers cannot be allocated
    /// ([`Csr::try_from_coo`] returns that as an error).
    pub fn from_coo(coo: &Coo) -> Self {
        Csr::try_from_coo(coo).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Csr::from_coo`] with the `rows + 1` row pointers and the entry
    /// arrays reserved fallibly, so a matrix that declares more rows than
    /// memory holds (a Matrix Market header may declare up to 2^32) is an
    /// error instead of an allocation abort.
    ///
    /// # Errors
    ///
    /// [`FormatError::TooLarge`] if the arrays cannot be allocated.
    pub fn try_from_coo(coo: &Coo) -> Result<Self, FormatError> {
        let canonical;
        let coo = if coo.is_canonical() {
            coo
        } else {
            canonical = coo.clone().into_canonical();
            &canonical
        };
        Ok(Csr::try_reserve(coo.rows(), coo.cols(), coo.nnz())?.filled(coo))
    }

    /// An empty `rows x cols` matrix with its row pointers and room for
    /// `nnz` entries reserved fallibly; [`Csr::filled`] completes it.
    pub(crate) fn try_reserve(rows: usize, cols: usize, nnz: usize) -> Result<Self, FormatError> {
        let too_large = |_| FormatError::TooLarge { rows, cols };
        let mut row_ptr = Vec::new();
        row_ptr.try_reserve_exact(rows + 1).map_err(too_large)?;
        let mut col_idx = Vec::new();
        col_idx.try_reserve_exact(nnz).map_err(too_large)?;
        let mut data = Vec::new();
        data.try_reserve_exact(nnz).map_err(too_large)?;
        Ok(Csr {
            rows,
            cols,
            row_ptr,
            col_idx,
            data,
        })
    }

    /// Fills a [`Csr::try_reserve`]d matrix with the entries of the
    /// canonical `coo`, within the reserved room, and returns the room
    /// they did not take.
    pub(crate) fn filled(mut self, coo: &Coo) -> Self {
        debug_assert!(coo.is_canonical() && self.row_ptr.is_empty());
        self.row_ptr.resize(self.rows + 1, 0);
        for &(r, c, v) in coo.entries() {
            self.row_ptr[r as usize + 1] += 1;
            self.col_idx.push(c);
            self.data.push(v);
        }
        for i in 0..self.rows {
            self.row_ptr[i + 1] += self.row_ptr[i];
        }
        self.col_idx.shrink_to_fit();
        self.data.shrink_to_fit();
        self
    }

    /// Builds a CSR matrix directly from its raw arrays.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::InvalidStructure`] if the arrays are
    /// inconsistent: `row_ptr` must have `rows + 1` monotonically
    /// non-decreasing entries ending at `col_idx.len()`, `col_idx` and
    /// `data` must have equal length, column indices must be strictly
    /// increasing within each row and within bounds.
    pub fn from_raw(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<Index>,
        data: Vec<Value>,
    ) -> Result<Self, FormatError> {
        if row_ptr.len() != rows + 1 {
            return Err(FormatError::InvalidStructure(format!(
                "row_ptr has {} entries, expected {}",
                row_ptr.len(),
                rows + 1
            )));
        }
        if col_idx.len() != data.len() {
            return Err(FormatError::InvalidStructure(format!(
                "col_idx ({}) and data ({}) lengths differ",
                col_idx.len(),
                data.len()
            )));
        }
        if row_ptr[0] != 0 || *row_ptr.last().unwrap() != col_idx.len() {
            return Err(FormatError::InvalidStructure(
                "row_ptr must start at 0 and end at nnz".into(),
            ));
        }
        for r in 0..rows {
            if row_ptr[r] > row_ptr[r + 1] {
                return Err(FormatError::InvalidStructure(format!(
                    "row_ptr decreases at row {r}"
                )));
            }
            let slice = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            for pair in slice.windows(2) {
                if pair[0] >= pair[1] {
                    return Err(FormatError::InvalidStructure(format!(
                        "columns not strictly increasing in row {r}"
                    )));
                }
            }
            if let Some(&last) = slice.last() {
                if last as usize >= cols {
                    return Err(FormatError::InvalidStructure(format!(
                        "column {last} out of bounds in row {r}"
                    )));
                }
            }
        }
        Ok(Csr {
            rows,
            cols,
            row_ptr,
            col_idx,
            data,
        })
    }

    /// Creates an empty `rows` x `cols` matrix.
    pub fn zero(rows: usize, cols: usize) -> Self {
        Csr {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            data: Vec::new(),
        }
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
        self.col_idx.len()
    }

    /// The row pointer array (`rows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The column index array.
    pub fn col_idx(&self) -> &[Index] {
        &self.col_idx
    }

    /// The value array.
    pub fn data(&self) -> &[Value] {
        &self.data
    }

    /// The column indices and values of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> (&[Index], &[Value]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.data[lo..hi])
    }

    /// Number of non-zeros in row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// Looks up the value at `(row, col)`, if structurally present.
    pub fn get(&self, row: usize, col: usize) -> Option<Value> {
        if row >= self.rows {
            return None;
        }
        let (cols, vals) = self.row(row);
        cols.binary_search(&(col as Index))
            .ok()
            .map(|pos| vals[pos])
    }

    /// Converts back to canonical COO form.
    pub fn to_coo(&self) -> Coo {
        let mut coo = Coo::new(self.rows, self.cols);
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (c, v) in cols.iter().zip(vals) {
                coo.push(r, *c as usize, *v);
            }
        }
        coo
    }

    /// Converts to CSC form (column-major compression of the same matrix).
    ///
    /// # Panics
    ///
    /// Panics if the CSC arrays do not fit in memory
    /// ([`Csc::try_from_csr`] returns that as an error).
    pub fn to_csc(&self) -> Csc {
        Csc::try_from_csr(self).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Returns the transpose as a CSR matrix.
    pub fn transpose(&self) -> Csr {
        Csr::from_coo(&self.to_coo().transpose())
    }

    /// Iterates over `(row, col, value)` triplets in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, Value)> + '_ {
        (0..self.rows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter()
                .zip(vals)
                .map(move |(c, v)| (r, *c as usize, *v))
        })
    }

    /// Density of the matrix.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
    }

    /// Memory footprint of the compressed representation in bytes
    /// (8-byte values, 4-byte column indices, 8-byte row pointers), used by
    /// the memory-traffic accounting in the simulator.
    pub fn footprint_bytes(&self) -> usize {
        self.data.len() * 8 + self.col_idx.len() * 4 + self.row_ptr.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unallocatable_row_pointers_are_an_error_naming_the_dimensions() {
        // 2^60 row pointers overflow any allocation request.
        let err = Csr::try_from_coo(&Coo::new(1 << 60, 4)).unwrap_err();
        assert_eq!(err.kind(), "too_large");
        assert_eq!(
            err.to_string(),
            "a 1152921504606846976x4 matrix does not fit in memory"
        );
    }

    fn sample() -> Csr {
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
        Csr::from_coo(&coo)
    }

    #[test]
    fn from_coo_builds_expected_arrays() {
        let m = sample();
        assert_eq!(m.row_ptr(), &[0, 2, 3, 5]);
        assert_eq!(m.col_idx(), &[0, 2, 2, 0, 1]);
        assert_eq!(m.data(), &[1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn rows_are_sliced_correctly() {
        let m = sample();
        let (cols, vals) = m.row(2);
        assert_eq!(cols, &[0, 1]);
        assert_eq!(vals, &[4.0, 5.0]);
        assert_eq!(m.row_nnz(1), 1);
    }

    #[test]
    fn get_finds_present_and_absent() {
        let m = sample();
        assert_eq!(m.get(0, 2), Some(2.0));
        assert_eq!(m.get(1, 0), None);
        assert_eq!(m.get(9, 0), None);
    }

    #[test]
    fn coo_round_trip() {
        let m = sample();
        let back = Csr::from_coo(&m.to_coo());
        assert_eq!(m, back);
    }

    #[test]
    fn transpose_twice_is_identity() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_moves_entries() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.get(2, 0), Some(2.0));
        assert_eq!(t.get(0, 2), Some(4.0));
    }

    #[test]
    fn from_raw_validates_row_ptr_length() {
        let err = Csr::from_raw(2, 2, vec![0, 1], vec![0], vec![1.0]);
        assert!(err.is_err());
    }

    #[test]
    fn from_raw_validates_monotonicity() {
        let err = Csr::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]);
        assert!(err.is_err());
    }

    #[test]
    fn from_raw_validates_sorted_columns() {
        let err = Csr::from_raw(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 2.0]);
        assert!(err.is_err());
    }

    #[test]
    fn from_raw_validates_column_bounds() {
        let err = Csr::from_raw(1, 2, vec![0, 1], vec![5], vec![1.0]);
        assert!(err.is_err());
    }

    #[test]
    fn from_raw_accepts_valid_input() {
        let m = Csr::from_raw(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0, 2.0]).unwrap();
        assert_eq!(m.get(0, 1), Some(1.0));
        assert_eq!(m.get(1, 0), Some(2.0));
    }

    #[test]
    fn iter_yields_row_major_triplets() {
        let m = sample();
        let trips: Vec<_> = m.iter().collect();
        assert_eq!(trips[0], (0, 0, 1.0));
        assert_eq!(trips.len(), 5);
        assert!(trips
            .windows(2)
            .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
    }

    #[test]
    fn zero_matrix_has_no_entries() {
        let z = Csr::zero(4, 4);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.row_ptr(), &[0, 0, 0, 0, 0]);
    }

    #[test]
    fn footprint_counts_all_arrays() {
        let m = sample();
        assert_eq!(m.footprint_bytes(), 5 * 8 + 5 * 4 + 4 * 8);
    }
}
