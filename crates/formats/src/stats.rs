//! Category bucketing and speedup averaging.
//!
//! The paper sorts its 1,024-matrix suite into four categories — by CSB
//! block density for Figure 10 and by non-zero count for Figure 11 — and
//! reports one bar per category. This module performs the same even
//! four-way split and averages speedups by geometric mean.

/// Sorts items by a key and splits them evenly into `n` categories
/// (quantile buckets), returning for each category the item indices and the
/// median key — exactly how the paper buckets Figures 10 and 11.
///
/// The remainder of an uneven split goes to the earlier categories, so
/// category sizes differ by at most one.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn split_categories<T>(items: &[T], n: usize, mut key: impl FnMut(&T) -> f64) -> Vec<Category> {
    assert!(n > 0, "need at least one category");
    let mut order: Vec<(usize, f64)> = items.iter().enumerate().map(|(i, t)| (i, key(t))).collect();
    order.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    let len = order.len();
    let base = len / n;
    let extra = len % n;
    let mut cats = Vec::with_capacity(n);
    let mut cursor = 0usize;
    for k in 0..n {
        let take = base + usize::from(k < extra);
        let slice = &order[cursor..cursor + take];
        cursor += take;
        let median = if slice.is_empty() {
            f64::NAN
        } else {
            slice[slice.len() / 2].1
        };
        cats.push(Category {
            indices: slice.iter().map(|&(i, _)| i).collect(),
            median_key: median,
        });
    }
    cats
}

/// One quantile bucket produced by [`split_categories`].
#[derive(Debug, Clone, PartialEq)]
pub struct Category {
    /// Indices (into the original slice) of the items in this category.
    pub indices: Vec<usize>,
    /// Median of the sort key within the category (NaN when empty).
    pub median_key: f64,
}

/// Geometric mean of a slice of positive ratios — the correct way to average
/// speedups across matrices.
///
/// Returns `NaN` for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_four_even() {
        let items: Vec<f64> = (0..8).map(|v| v as f64).collect();
        let cats = split_categories(&items, 4, |&v| v);
        assert_eq!(cats.len(), 4);
        for c in &cats {
            assert_eq!(c.indices.len(), 2);
        }
        // Sorted order: first category holds smallest keys.
        assert!(cats[0].median_key < cats[3].median_key);
    }

    #[test]
    fn split_uneven_distributes_remainder() {
        let items: Vec<f64> = (0..10).map(|v| v as f64).collect();
        let cats = split_categories(&items, 4, |&v| v);
        let sizes: Vec<_> = cats.iter().map(|c| c.indices.len()).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
        let total: usize = sizes.iter().sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn split_preserves_all_indices() {
        let items: Vec<f64> = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        let cats = split_categories(&items, 2, |&v| v);
        let mut all: Vec<usize> = cats.iter().flat_map(|c| c.indices.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3, 4]);
        // Low category should contain the indices of the small values.
        assert!(cats[0].indices.contains(&1));
        assert!(cats[1].indices.contains(&0));
    }

    #[test]
    fn geomean_of_constant_is_constant() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_mixes_correctly() {
        // geomean(1, 4) = 2
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }
}
