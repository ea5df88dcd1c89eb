//! Coordinate (triplet) sparse matrix format.

use crate::{FormatError, Index, Value};

/// A sparse matrix in coordinate (COO / triplet) form.
///
/// COO is the construction and interchange format: every other format in this
/// crate converts to and from it. Entries may be pushed in any order;
/// [`Coo::canonicalize`] sorts them row-major and merges duplicates, which the
/// compressed-format constructors require (they call it implicitly through
/// [`Coo::into_canonical`]).
///
/// # Example
///
/// ```
/// use via_formats::Coo;
///
/// let mut m = Coo::new(2, 2);
/// m.push(0, 0, 1.0);
/// m.push(1, 1, 2.0);
/// m.push(0, 0, 3.0); // duplicate: summed by canonicalize
/// let m = m.into_canonical();
/// assert_eq!(m.nnz(), 2);
/// assert_eq!(m.entries()[0], (0, 0, 4.0));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Coo {
    rows: usize,
    cols: usize,
    entries: Vec<(Index, Index, Value)>,
    canonical: bool,
}

impl Coo {
    /// Creates an empty `rows` x `cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        Coo {
            rows,
            cols,
            entries: Vec::new(),
            canonical: true,
        }
    }

    /// An empty `rows` x `cols` matrix with room for `capacity` entries,
    /// reserved fallibly.
    ///
    /// # Errors
    ///
    /// [`FormatError::TooLarge`] if the entries cannot be allocated.
    pub fn try_with_capacity(
        rows: usize,
        cols: usize,
        capacity: usize,
    ) -> Result<Self, FormatError> {
        let mut coo = Coo::new(rows, cols);
        coo.entries
            .try_reserve_exact(capacity)
            .map_err(|_| FormatError::TooLarge { rows, cols })?;
        Ok(coo)
    }

    /// Creates a matrix from raw triplets.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::IndexOutOfBounds`] if any triplet lies outside
    /// the given dimensions.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, Value)>,
    ) -> Result<Self, FormatError> {
        let mut coo = Coo::new(rows, cols);
        for (r, c, v) in triplets {
            coo.try_push(r, c, v)?;
        }
        Ok(coo)
    }

    /// Appends an entry, panicking on out-of-bounds indices.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()` or `col >= self.cols()`.
    pub fn push(&mut self, row: usize, col: usize, value: Value) {
        self.try_push(row, col, value)
            .expect("coo entry out of bounds");
    }

    /// Appends an entry, returning an error on out-of-bounds indices.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError::IndexOutOfBounds`] when the entry does not fit
    /// the matrix dimensions, and [`FormatError::InvalidStructure`] when it
    /// does but an index does not fit [`Index`].
    pub fn try_push(&mut self, row: usize, col: usize, value: Value) -> Result<(), FormatError> {
        if row >= self.rows || col >= self.cols {
            return Err(FormatError::IndexOutOfBounds {
                row,
                col,
                rows: self.rows,
                cols: self.cols,
            });
        }
        let (Ok(r), Ok(c)) = (Index::try_from(row), Index::try_from(col)) else {
            return Err(FormatError::InvalidStructure(format!(
                "entry ({row}, {col}) does not fit the 32-bit index type"
            )));
        };
        if let Some(&(lr, lc, _)) = self.entries.last() {
            if (r, c) <= (lr, lc) {
                self.canonical = false;
            }
        }
        self.entries.push((r, c, value));
        Ok(())
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries (after canonicalization this equals the
    /// number of structurally non-zero positions).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// The stored triplets as `(row, col, value)`.
    pub fn entries(&self) -> &[(Index, Index, Value)] {
        &self.entries
    }

    /// Whether the entries are sorted row-major with no duplicate positions.
    pub fn is_canonical(&self) -> bool {
        self.canonical
    }

    /// Sorts entries row-major and sums duplicates (left to right) in
    /// place, without a second entry buffer.
    ///
    /// Entries that sum to exactly `0.0` are kept: the *structure* of a
    /// sparse matrix is meaningful to the kernels independent of value (the
    /// paper's index-matching experiments depend on structural nonzeros).
    pub fn canonicalize(&mut self) {
        if self.canonical {
            return;
        }
        self.entries
            .sort_unstable_by_key(|&(r, c, _)| ((r as u64) << 32) | c as u64);
        self.entries.dedup_by(|next, kept| {
            let same = (next.0, next.1) == (kept.0, kept.1);
            if same {
                kept.2 += next.2;
            }
            same
        });
        self.canonical = true;
    }

    /// The stored values, in entry order, for rewriting in place (the
    /// structure stays as it is).
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut Value> {
        self.entries.iter_mut().map(|(_, _, v)| v)
    }

    /// Consumes `self` and returns the canonical (sorted, deduplicated) form.
    pub fn into_canonical(mut self) -> Self {
        self.canonicalize();
        self
    }

    /// Returns the transpose as a canonical COO matrix.
    pub fn transpose(&self) -> Coo {
        let mut t = Coo::new(self.cols, self.rows);
        for &(r, c, v) in &self.entries {
            t.entries.push((c, r, v));
        }
        t.canonical = false;
        t.into_canonical()
    }

    /// Removes entries whose value is exactly zero (optional cleanup used by
    /// the generators).
    pub fn drop_zeros(&mut self) {
        self.entries.retain(|&(_, _, v)| v != 0.0);
    }

    /// Density of the matrix: `nnz / (rows * cols)`. Returns 0 for an empty
    /// shape.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
    }
}

impl Extend<(usize, usize, Value)> for Coo {
    fn extend<T: IntoIterator<Item = (usize, usize, Value)>>(&mut self, iter: T) {
        for (r, c, v) in iter {
            self.push(r, c, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_matrix_is_empty_and_canonical() {
        let m = Coo::new(4, 5);
        assert_eq!(m.rows(), 4);
        assert_eq!(m.cols(), 5);
        assert_eq!(m.nnz(), 0);
        assert!(m.is_canonical());
        assert_eq!(m.density(), 0.0);
    }

    #[test]
    fn push_out_of_bounds_errors() {
        let mut m = Coo::new(2, 2);
        assert!(m.try_push(2, 0, 1.0).is_err());
        assert!(m.try_push(0, 2, 1.0).is_err());
        assert!(m.try_push(1, 1, 1.0).is_ok());
    }

    #[test]
    fn push_refuses_indices_wider_than_index() {
        let mut m = Coo::new(5_000_000_000, 4);
        let err = m.try_push(4_294_967_297, 0, 1.0).unwrap_err();
        assert!(err.to_string().contains("32-bit index"), "{err}");
        assert_eq!(m.nnz(), 0, "nothing wraps onto a low row");
        assert!(m.try_push(4_294_967_295, 3, 1.0).is_ok());
        assert_eq!(m.entries(), &[(u32::MAX, 3, 1.0)]);
    }

    #[test]
    fn canonicalize_sorts_and_merges() {
        let mut m = Coo::new(3, 3);
        m.push(2, 2, 1.0);
        m.push(0, 1, 2.0);
        m.push(2, 2, 3.0);
        m.push(0, 0, 4.0);
        assert!(!m.is_canonical());
        m.canonicalize();
        assert!(m.is_canonical());
        assert_eq!(m.entries(), &[(0, 0, 4.0), (0, 1, 2.0), (2, 2, 4.0)]);
    }

    #[test]
    fn canonicalize_sums_duplicates_left_to_right() {
        // 2^53 + 1 rounds back to 2^53, so only the left-to-right sum is 0.
        let big = (1u64 << 53) as f64;
        let mut m = Coo::from_triplets(1, 2, [(0, 0, big), (0, 0, 1.0), (0, 0, -big)]).unwrap();
        m.push(0, 1, 1.0);
        m.canonicalize();
        assert_eq!(m.entries(), &[(0, 0, 0.0), (0, 1, 1.0)]);
    }

    #[test]
    fn in_order_pushes_stay_canonical() {
        let mut m = Coo::new(3, 3);
        m.push(0, 0, 1.0);
        m.push(0, 2, 1.0);
        m.push(1, 1, 1.0);
        assert!(m.is_canonical());
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let m = Coo::from_triplets(2, 3, [(0, 2, 5.0), (1, 0, 7.0)]).unwrap();
        let t = m.transpose();
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.entries(), &[(0, 1, 7.0), (2, 0, 5.0)]);
    }

    #[test]
    fn zero_sum_duplicates_keep_structure() {
        let mut m = Coo::new(1, 1);
        m.push(0, 0, 1.0);
        m.push(0, 0, -1.0);
        m.canonicalize();
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.entries()[0].2, 0.0);
    }

    #[test]
    fn drop_zeros_removes_explicit_zeros() {
        let mut m = Coo::from_triplets(2, 2, [(0, 0, 0.0), (1, 1, 2.0)]).unwrap();
        m.drop_zeros();
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn extend_accepts_iterators() {
        let mut m = Coo::new(2, 2);
        m.extend(vec![(0, 0, 1.0), (1, 1, 2.0)]);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn density_counts_fraction() {
        let m = Coo::from_triplets(10, 10, [(0, 0, 1.0), (5, 5, 1.0)]).unwrap();
        assert!((m.density() - 0.02).abs() < 1e-12);
    }
}
