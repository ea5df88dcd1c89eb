//! Deterministic synthetic sparse matrix generators.
//!
//! The VIA paper evaluates over 1,024 SuiteSparse matrices chosen to be
//! square, real-valued, with ≤ 20,000 rows and 0.01–2.6 % non-zeros (paper
//! §V-B). That collection is not redistributable here, so this module
//! generates a *structurally equivalent* suite: the paper's experiment
//! categories are defined purely by structure statistics (CSB block density
//! for Figure 10, nnz for Figure 11), and the generator families below cover
//! the same structural spectrum — banded systems (PDE meshes), clustered
//! blocks (FEM), power-law graphs (social/web), perturbed diagonals
//! (circuits), and uniform scatter. Real Matrix Market files can be
//! substituted via [`crate::mm`].
//!
//! All generators are deterministic in their seed.

use crate::{Coo, Csr, FormatError, Value};
use via_rng::StdRng;

/// The structural family of a generated matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Family {
    /// Uniformly scattered non-zeros.
    Uniform,
    /// Non-zeros within a diagonal band.
    Banded,
    /// Clustered dense-ish sub-blocks (FEM-like).
    Blocked,
    /// Power-law degree distribution (RMAT-like graph adjacency).
    PowerLaw,
    /// Main diagonal plus a few perturbed off-diagonals (circuit-like).
    Diagonal,
}

impl Family {
    /// All families, in a fixed order.
    pub const ALL: [Family; 5] = [
        Family::Uniform,
        Family::Banded,
        Family::Blocked,
        Family::PowerLaw,
        Family::Diagonal,
    ];
}

impl std::fmt::Display for Family {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Family::Uniform => "uniform",
            Family::Banded => "banded",
            Family::Blocked => "blocked",
            Family::PowerLaw => "powerlaw",
            Family::Diagonal => "diagonal",
        };
        f.write_str(name)
    }
}

/// A generated matrix together with its provenance metadata.
#[derive(Debug, Clone)]
pub struct GenMatrix {
    /// Stable name, e.g. `"blocked_0042"`.
    pub name: String,
    /// Structural family.
    pub family: Family,
    /// Seed this matrix was generated from.
    pub seed: u64,
    /// The matrix in CSR form.
    pub csr: Csr,
}

fn random_value(rng: &mut StdRng) -> Value {
    // Values in [-1, 1) excluding exact zero so structure is never lost.
    loop {
        let v: f64 = rng.random_range(-1.0..1.0);
        if v != 0.0 {
            return v;
        }
    }
}

/// Uniformly scattered matrix with approximately `density` non-zeros.
///
/// # Panics
///
/// Panics if `density` is not in `(0, 1]`, or if the matrix does not fit
/// in memory ([`try_uniform`] returns that as an error).
pub fn uniform(rows: usize, cols: usize, density: f64, seed: u64) -> Csr {
    try_uniform(rows, cols, density, seed).unwrap_or_else(|e| panic!("{e}"))
}

/// [`uniform`] with every buffer it needs (the samples and the matrix's
/// arrays) reserved fallibly before the first sample is drawn, and the
/// samples canonicalized and re-randomized in place, so a shape that does
/// not fit is an error within milliseconds instead of an allocation abort.
///
/// # Errors
///
/// [`FormatError::TooLarge`] if `rows * cols` overflows or the samples or
/// the matrix cannot be allocated.
///
/// # Panics
///
/// Panics if `density` is not in `(0, 1]`.
pub fn try_uniform(rows: usize, cols: usize, density: f64, seed: u64) -> Result<Csr, FormatError> {
    assert!(density > 0.0 && density <= 1.0, "density must be in (0, 1]");
    let cells = rows
        .checked_mul(cols)
        .ok_or(FormatError::TooLarge { rows, cols })?;
    let mut rng = StdRng::seed_from_u64(seed);
    let target = (cells as f64 * density).round().max(1.0) as usize;
    // Sample with replacement; canonicalization dedups. Oversample slightly
    // to land near the target.
    let oversample = target + target / 8 + 4;
    let mut coo = Coo::try_with_capacity(rows, cols, oversample)?;
    let csr = Csr::try_reserve(rows, cols, oversample)?;
    for _ in 0..oversample {
        let r = rng.random_range(0..rows);
        let c = rng.random_range(0..cols);
        coo.push(r, c, random_value(&mut rng));
    }
    coo.canonicalize();
    // Re-randomize merged duplicate values so magnitudes stay in [-1,1].
    for v in coo.values_mut() {
        *v = random_value(&mut rng);
    }
    Ok(csr.filled(&coo))
}

/// Banded matrix: each row has up to `band_fill` non-zeros within
/// `bandwidth` of the diagonal.
///
/// # Panics
///
/// Panics if `bandwidth == 0`.
pub fn banded(rows: usize, bandwidth: usize, band_fill: usize, seed: u64) -> Csr {
    assert!(bandwidth > 0, "bandwidth must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = Coo::new(rows, rows);
    for r in 0..rows {
        let lo = r.saturating_sub(bandwidth);
        let hi = (r + bandwidth + 1).min(rows);
        coo.push(r, r, random_value(&mut rng));
        for _ in 0..band_fill.saturating_sub(1) {
            let c = rng.random_range(lo..hi);
            coo.push(r, c, random_value(&mut rng));
        }
    }
    Csr::from_coo(&coo.into_canonical())
}

/// Block-clustered matrix: `nclusters` dense-ish `cluster_size` x
/// `cluster_size` sub-blocks filled to `in_block_density`, placed at random
/// aligned positions. This family favors CSB (high block density), like FEM
/// matrices in SuiteSparse.
///
/// # Panics
///
/// Panics if `cluster_size == 0` or `cluster_size > rows`.
pub fn blocked(
    rows: usize,
    cluster_size: usize,
    nclusters: usize,
    in_block_density: f64,
    seed: u64,
) -> Csr {
    assert!(cluster_size > 0 && cluster_size <= rows);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = Coo::new(rows, rows);
    let positions = rows / cluster_size;
    for _ in 0..nclusters {
        let br = rng.random_range(0..positions) * cluster_size;
        let bc = rng.random_range(0..positions) * cluster_size;
        let fill = ((cluster_size * cluster_size) as f64 * in_block_density)
            .round()
            .max(1.0) as usize;
        for _ in 0..fill {
            let r = br + rng.random_range(0..cluster_size);
            let c = bc + rng.random_range(0..cluster_size);
            coo.push(r, c, random_value(&mut rng));
        }
    }
    Csr::from_coo(&coo.into_canonical())
}

/// Power-law (RMAT-like) adjacency matrix of `rows` vertices and about
/// `edges` edges, using the standard recursive quadrant probabilities
/// (a=0.57, b=0.19, c=0.19, d=0.05).
///
/// # Panics
///
/// Panics if `rows == 0`.
pub fn rmat(rows: usize, edges: usize, seed: u64) -> Csr {
    assert!(rows > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let scale = (usize::BITS - (rows - 1).leading_zeros().min(usize::BITS - 1)) as usize;
    let scale = scale.max(1);
    let mut coo = Coo::new(rows, rows);
    for _ in 0..edges {
        let (mut r, mut c) = (0usize, 0usize);
        for _ in 0..scale {
            let p: f64 = rng.random_range(0.0..1.0);
            let (dr, dc) = if p < 0.57 {
                (0, 0)
            } else if p < 0.76 {
                (0, 1)
            } else if p < 0.95 {
                (1, 0)
            } else {
                (1, 1)
            };
            r = (r << 1) | dr;
            c = (c << 1) | dc;
        }
        if r < rows && c < rows {
            coo.push(r, c, random_value(&mut rng));
        }
    }
    Csr::from_coo(&coo.into_canonical())
}

/// Diagonal-dominant matrix: the main diagonal plus `ndiags` random
/// off-diagonals, each kept with probability `keep`.
///
/// # Panics
///
/// Panics if `rows == 0`.
pub fn diagonal_perturbed(rows: usize, ndiags: usize, keep: f64, seed: u64) -> Csr {
    assert!(rows > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = Coo::new(rows, rows);
    let mut offsets = vec![0isize];
    for _ in 0..ndiags {
        let mag = rng.random_range(1..rows.max(2)) as isize;
        offsets.push(if rng.random_range(0..2) == 0 {
            mag
        } else {
            -mag
        });
    }
    for &off in &offsets {
        for r in 0..rows {
            let c = r as isize + off;
            if c < 0 || c >= rows as isize {
                continue;
            }
            if off == 0 || rng.random_range(0.0..1.0) < keep {
                coo.push(r, c as usize, random_value(&mut rng));
            }
        }
    }
    Csr::from_coo(&coo.into_canonical())
}

/// A 2-D five-point Laplacian on an `n` x `n` grid (the classic PDE/HPCG
/// system matrix): 4 on the diagonal, -1 to each grid neighbour. The
/// result is symmetric positive definite — suitable for conjugate
/// gradients.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn laplacian_2d(n: usize) -> Csr {
    assert!(n > 0, "grid side must be positive");
    let dim = n * n;
    let mut coo = Coo::new(dim, dim);
    for y in 0..n {
        for x in 0..n {
            let i = y * n + x;
            coo.push(i, i, 4.0);
            if x > 0 {
                coo.push(i, i - 1, -1.0);
            }
            if x + 1 < n {
                coo.push(i, i + 1, -1.0);
            }
            if y > 0 {
                coo.push(i, i - n, -1.0);
            }
            if y + 1 < n {
                coo.push(i, i + n, -1.0);
            }
        }
    }
    Csr::from_coo(&coo.into_canonical())
}

/// A 3-D seven-point Laplacian on an `n`^3 grid (the HPCG benchmark's
/// 27-point stencil's little sibling): 6 on the diagonal, -1 to each of
/// the six axis neighbours. Symmetric positive definite.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn laplacian_3d(n: usize) -> Csr {
    assert!(n > 0, "grid side must be positive");
    let dim = n * n * n;
    let mut coo = Coo::new(dim, dim);
    for z in 0..n {
        for y in 0..n {
            for x in 0..n {
                let i = (z * n + y) * n + x;
                coo.push(i, i, 6.0);
                if x > 0 {
                    coo.push(i, i - 1, -1.0);
                }
                if x + 1 < n {
                    coo.push(i, i + 1, -1.0);
                }
                if y > 0 {
                    coo.push(i, i - n, -1.0);
                }
                if y + 1 < n {
                    coo.push(i, i + n, -1.0);
                }
                if z > 0 {
                    coo.push(i, i - n * n, -1.0);
                }
                if z + 1 < n {
                    coo.push(i, i + n * n, -1.0);
                }
            }
        }
    }
    Csr::from_coo(&coo.into_canonical())
}

/// Configuration for [`suite`].
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Number of matrices to generate.
    pub count: usize,
    /// Minimum matrix dimension.
    pub min_rows: usize,
    /// Maximum matrix dimension (the paper caps at 20,000; the default here
    /// is smaller to keep cycle-level simulation tractable — see DESIGN.md).
    pub max_rows: usize,
    /// Density range sampled per matrix; the paper's selection spans
    /// 0.01 %–2.6 %.
    pub density_range: (f64, f64),
    /// Master seed.
    pub seed: u64,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig {
            count: 64,
            min_rows: 256,
            max_rows: 4096,
            density_range: (0.0001, 0.026),
            seed: 0x01A5_EED5,
        }
    }
}

/// Generates a deterministic mixed-family suite standing in for the paper's
/// 1,024-matrix SuiteSparse selection.
pub fn suite(config: &SuiteConfig) -> Vec<GenMatrix> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut out = Vec::with_capacity(config.count);
    for i in 0..config.count {
        let family = Family::ALL[i % Family::ALL.len()];
        let seed = rng.random::<u64>();
        let rows = {
            // Log-uniform in [min_rows, max_rows].
            let lo = (config.min_rows as f64).ln();
            let hi = (config.max_rows as f64).ln();
            rng.random_range(lo..=hi).exp().round() as usize
        };
        let density = rng.random_range(config.density_range.0..=config.density_range.1);
        let csr = build_family(family, rows, density, seed);
        out.push(GenMatrix {
            name: format!("{family}_{i:04}"),
            family,
            seed,
            csr,
        });
    }
    out
}

/// A deferred recipe for one synthetic matrix: everything needed to
/// regenerate it deterministically, without holding the materialized CSR.
///
/// The campaign orchestrator in `via-bench` schedules thousands of these and
/// materializes each one inside the worker that simulates it, so a
/// 1,024-matrix sweep never holds more than `threads` matrices in memory.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixSpec {
    /// Stable name, e.g. `"s0173_blocked_r1024"`.
    pub name: String,
    /// Structural family.
    pub family: Family,
    /// Per-matrix seed (derived from the corpus master seed).
    pub seed: u64,
    /// Matrix dimension (square).
    pub rows: usize,
    /// Target non-zero density.
    pub density: f64,
}

impl MatrixSpec {
    /// Materializes the matrix this spec describes. Deterministic: the same
    /// spec always builds the same [`GenMatrix`].
    pub fn build(&self) -> GenMatrix {
        let csr = build_family(self.family, self.rows, self.density, self.seed);
        GenMatrix {
            name: self.name.clone(),
            family: self.family,
            seed: self.seed,
            csr,
        }
    }

    /// A stable content fingerprint of the spec (not of the materialized
    /// matrix): campaigns key their result manifest on this, so completed
    /// work can be skipped without regenerating the matrix.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a offset basis
        for b in self
            .name
            .bytes()
            .chain(self.seed.to_le_bytes())
            .chain((self.rows as u64).to_le_bytes())
            .chain(self.density.to_bits().to_le_bytes())
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

fn build_family(family: Family, rows: usize, density: f64, seed: u64) -> Csr {
    let target_nnz = ((rows * rows) as f64 * density).max(1.0) as usize;
    match family {
        Family::Uniform => uniform(rows, rows, density, seed),
        Family::Banded => {
            let per_row = (target_nnz / rows).clamp(1, rows);
            let bw = (per_row * 4).clamp(1, rows / 2 + 1);
            banded(rows, bw, per_row.max(1), seed)
        }
        Family::Blocked => {
            let cluster = 16usize.min(rows);
            let per_cluster = (cluster * cluster) / 2;
            let nclusters = (target_nnz / per_cluster.max(1)).max(1);
            blocked(rows, cluster, nclusters, 0.5, seed)
        }
        Family::PowerLaw => rmat(rows, target_nnz, seed),
        Family::Diagonal => {
            let ndiags = (target_nnz / rows).clamp(1, 16);
            diagonal_perturbed(rows, ndiags, 0.8, seed)
        }
    }
}

/// Configuration for [`stratified_specs`]: a corpus stratified over size,
/// density, and structural family, standing in for the paper's 1,024-matrix
/// SuiteSparse population (§V-B; the Fig. 8 scatter spans 0.01–2.6 %
/// density and up to 20,000 rows).
#[derive(Debug, Clone, PartialEq)]
pub struct StratifiedConfig {
    /// Number of matrices (the paper uses 1,024).
    pub count: usize,
    /// Smallest matrix dimension.
    pub min_rows: usize,
    /// Largest matrix dimension.
    pub max_rows: usize,
    /// Density range covered by the density strata.
    pub density_range: (f64, f64),
    /// Number of log-spaced size strata.
    pub size_strata: usize,
    /// Number of log-spaced density strata.
    pub density_strata: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for StratifiedConfig {
    fn default() -> Self {
        StratifiedConfig {
            count: 1024,
            min_rows: 256,
            max_rows: 8192,
            density_range: (0.0001, 0.026),
            size_strata: 8,
            density_strata: 4,
            seed: 0x0C0_4B05,
        }
    }
}

/// Generates `count` deferred matrix specs stratified over the
/// `size_strata × density_strata × family` grid: every cell of the grid is
/// visited round-robin before any cell repeats, so even small prefixes of
/// the corpus cover the full structural spectrum (and the full corpus is a
/// near-uniform population over the grid, like the paper's Fig. 8 scatter).
///
/// Within a cell, the exact size/density are jittered log-uniformly inside
/// the cell bounds. Deterministic in `config.seed`; spec `i` of a larger
/// corpus equals spec `i` of a smaller one with the same config except
/// `count` — a campaign can be widened without invalidating earlier work.
///
/// # Panics
///
/// Panics if `count == 0`, a stratum count is zero, or the size/density
/// ranges are empty or non-positive.
pub fn stratified_specs(config: &StratifiedConfig) -> Vec<MatrixSpec> {
    assert!(config.count > 0, "corpus must be non-empty");
    assert!(config.size_strata > 0 && config.density_strata > 0);
    assert!(
        config.min_rows >= 2 && config.max_rows >= config.min_rows,
        "bad size range"
    );
    assert!(
        config.density_range.0 > 0.0 && config.density_range.1 >= config.density_range.0,
        "bad density range"
    );
    let mut seed_state = config.seed;
    let (lo_r, hi_r) = ((config.min_rows as f64).ln(), (config.max_rows as f64).ln());
    let (lo_d, hi_d) = (config.density_range.0.ln(), config.density_range.1.ln());
    let cells = config.size_strata * config.density_strata * Family::ALL.len();
    let mut out = Vec::with_capacity(config.count);
    for i in 0..config.count {
        let cell = i % cells;
        let fam = Family::ALL[cell % Family::ALL.len()];
        let rest = cell / Family::ALL.len();
        let s_stratum = rest % config.size_strata;
        let d_stratum = rest / config.size_strata;
        // Each spec gets its own rng so spec i is independent of count.
        let mut h = config.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = StdRng::seed_from_u64(via_rng::splitmix64(&mut h));
        let stratum_span = (hi_r - lo_r) / config.size_strata as f64;
        let r_lo = lo_r + s_stratum as f64 * stratum_span;
        let rows = rng
            .random_range(r_lo..=r_lo + stratum_span)
            .exp()
            .round()
            .clamp(config.min_rows as f64, config.max_rows as f64) as usize;
        let d_span = (hi_d - lo_d) / config.density_strata as f64;
        let d_lo = lo_d + d_stratum as f64 * d_span;
        let density = rng.random_range(d_lo..=d_lo + d_span).exp();
        let seed = via_rng::splitmix64(&mut seed_state) ^ rng.random::<u64>();
        out.push(MatrixSpec {
            name: format!("s{i:04}_{fam}_r{rows}"),
            family: fam,
            seed,
            rows,
            density,
        });
    }
    out
}

/// Generates a dense vector of length `n` with values in `[-1, 1)`.
pub fn dense_vector(n: usize, seed: u64) -> Vec<Value> {
    try_dense_vector(n, seed).unwrap_or_else(|e| panic!("{e}"))
}

/// [`dense_vector`] with its `n` values reserved fallibly.
///
/// # Errors
///
/// [`FormatError::TooLarge`] (naming an `n`x1 operand) if the values
/// cannot be allocated.
pub fn try_dense_vector(n: usize, seed: u64) -> Result<Vec<Value>, FormatError> {
    let mut x = Vec::new();
    x.try_reserve_exact(n)
        .map_err(|_| FormatError::TooLarge { rows: n, cols: 1 })?;
    let mut rng = StdRng::seed_from_u64(seed);
    x.extend((0..n).map(|_| rng.random_range(-1.0..1.0)));
    Ok(x)
}

/// Perturbs the structure of `a`: keeps each entry with probability `keep`
/// and adds about `add_fraction * nnz` new random entries. Used to build the
/// second operand of SpMA/SpMM experiments so the pair shares structure the
/// way consecutive iterates of a solver do.
pub fn perturb_structure(a: &Csr, keep: f64, add_fraction: f64, seed: u64) -> Csr {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = Coo::new(a.rows(), a.cols());
    for (r, c, _) in a.iter() {
        if rng.random_range(0.0..1.0) < keep {
            coo.push(r, c, random_value(&mut rng));
        }
    }
    let additions = (a.nnz() as f64 * add_fraction) as usize;
    for _ in 0..additions {
        let r = rng.random_range(0..a.rows());
        let c = rng.random_range(0..a.cols());
        coo.push(r, c, random_value(&mut rng));
    }
    Csr::from_coo(&coo.into_canonical())
}

/// Random lower-triangular matrix for SpTRSV: approximately `density` of
/// the strict lower triangle is populated and every diagonal entry is set
/// to `1 + Σ|row off-diagonals|`, making the solve well-conditioned.
///
/// # Panics
///
/// Panics if `density` is not in `(0, 1]`.
pub fn lower_triangular(rows: usize, density: f64, seed: u64) -> Csr {
    make_lower_triangular(&uniform(rows, rows, density, seed))
}

/// Projects `a` onto a solvable lower-triangular factor: keeps the strict
/// lower triangle and replaces the diagonal with `1 + Σ|row off-diagonals|`
/// (diagonal dominance). Deterministic in `a`, so any corpus matrix can
/// serve as an SpTRSV input without a dedicated triangular family.
pub fn make_lower_triangular(a: &Csr) -> Csr {
    let n = a.rows().max(a.cols());
    let mut coo = Coo::new(n, n);
    let mut diag = vec![1.0; n];
    for (r, c, v) in a.iter() {
        if c < r {
            coo.push(r, c, v);
            diag[r] += v.abs();
        }
    }
    for (r, &d) in diag.iter().enumerate() {
        coo.push(r, r, d);
    }
    Csr::from_coo(&coo.into_canonical())
}

/// Projects `a` onto a diagonally dominant square matrix for SymGS: keeps
/// every off-diagonal entry and replaces the diagonal with
/// `1 + Σ|row off-diagonals|`, so symmetric Gauss–Seidel sweeps are
/// well-defined (non-zero diagonal) and convergent. Deterministic in `a`.
pub fn make_diagonally_dominant(a: &Csr) -> Csr {
    let n = a.rows().max(a.cols());
    let mut coo = Coo::new(n, n);
    let mut diag = vec![1.0; n];
    for (r, c, v) in a.iter() {
        if c != r {
            coo.push(r, c, v);
            diag[r] += v.abs();
        }
    }
    for (r, &d) in diag.iter().enumerate() {
        coo.push(r, r, d);
    }
    Csr::from_coo(&coo.into_canonical())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_deterministic() {
        let a = uniform(64, 64, 0.05, 7);
        let b = uniform(64, 64, 0.05, 7);
        assert_eq!(a, b);
        let c = uniform(64, 64, 0.05, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_density_near_target() {
        let m = uniform(128, 128, 0.05, 1);
        let d = m.density();
        assert!(d > 0.02 && d < 0.08, "density {d} far from 0.05");
    }

    #[test]
    fn banded_stays_in_band() {
        let m = banded(100, 5, 4, 3);
        for (r, c, _) in m.iter() {
            assert!((r as isize - c as isize).unsigned_abs() <= 5);
        }
        // Diagonal always present.
        for r in 0..100 {
            assert!(m.get(r, r).is_some());
        }
    }

    #[test]
    fn blocked_clusters_have_high_block_density() {
        let m = blocked(256, 16, 8, 0.5, 11);
        let csb = crate::Csb::from_csr(&m, 16).unwrap();
        assert!(
            csb.mean_block_density() > 16.0,
            "blocked family should cluster: {}",
            csb.mean_block_density()
        );
    }

    #[test]
    fn lower_triangular_is_solvable() {
        let l = lower_triangular(96, 0.05, 9);
        assert_eq!(l.rows(), 96);
        for (r, c, _) in l.iter() {
            assert!(c <= r, "entry ({r}, {c}) above the diagonal");
        }
        let b = dense_vector(96, 10);
        let x = crate::reference::sptrsv(&l, &b);
        // Residual check: L x == b.
        let back = crate::reference::spmv(&l, &x);
        assert!(crate::vec_approx_eq(&back, &b, 1e-9));
    }

    #[test]
    fn make_diagonally_dominant_supports_symgs() {
        let a = make_diagonally_dominant(&uniform(64, 64, 0.06, 13));
        let truth = dense_vector(64, 14);
        let b = crate::reference::spmv(&a, &truth);
        let mut x = vec![0.0; 64];
        for _ in 0..80 {
            crate::reference::symgs(&a, &b, &mut x);
        }
        assert!(crate::vec_approx_eq(&x, &truth, 1e-8));
    }

    #[test]
    fn triangular_projections_are_deterministic() {
        let a = uniform(64, 64, 0.06, 21);
        assert_eq!(make_lower_triangular(&a), make_lower_triangular(&a));
        assert_eq!(make_diagonally_dominant(&a), make_diagonally_dominant(&a));
    }

    #[test]
    fn rmat_degrees_are_skewed() {
        let m = rmat(256, 2048, 5);
        let mut degrees: Vec<usize> = (0..m.rows()).map(|r| m.row_nnz(r)).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let top = degrees[..m.rows() / 10].iter().sum::<usize>() as f64;
        let total = degrees.iter().sum::<usize>() as f64;
        assert!(top / total > 0.2, "top-10% rows should hold >20% of edges");
    }

    #[test]
    fn diagonal_has_full_diagonal() {
        let m = diagonal_perturbed(64, 3, 0.5, 9);
        for r in 0..64 {
            assert!(m.get(r, r).is_some());
        }
    }

    #[test]
    fn suite_is_deterministic_and_in_spec() {
        let config = SuiteConfig {
            count: 10,
            min_rows: 64,
            max_rows: 256,
            ..SuiteConfig::default()
        };
        let s1 = suite(&config);
        let s2 = suite(&config);
        assert_eq!(s1.len(), 10);
        for (a, b) in s1.iter().zip(&s2) {
            assert_eq!(a.csr, b.csr);
            assert!(a.csr.rows() >= 64 && a.csr.rows() <= 256);
            assert!(a.csr.nnz() > 0);
        }
        // All families represented.
        let fams: std::collections::HashSet<_> = s1.iter().map(|m| m.family).collect();
        assert_eq!(fams.len(), Family::ALL.len());
    }

    #[test]
    fn laplacian_2d_is_symmetric_and_diagonally_dominant() {
        let m = laplacian_2d(6);
        assert_eq!(m.rows(), 36);
        assert_eq!(m, m.transpose());
        for r in 0..m.rows() {
            let (cols, vals) = m.row(r);
            let diag = m.get(r, r).unwrap();
            let off: f64 = cols
                .iter()
                .zip(vals)
                .filter(|(&c, _)| c as usize != r)
                .map(|(_, v)| v.abs())
                .sum();
            assert!(diag >= off, "row {r} not diagonally dominant");
        }
        // Interior rows have 5 entries.
        let interior = 2 * 6 + 2; // row (2,2)
        assert_eq!(m.row_nnz(interior + 6), 5);
    }

    #[test]
    fn laplacian_3d_shape() {
        let m = laplacian_3d(4);
        assert_eq!(m.rows(), 64);
        assert_eq!(m, m.transpose());
        // Center voxel has 7 entries.
        let center = (2 * 4 + 2) * 4 + 2;
        assert_eq!(m.row_nnz(center), 7);
    }

    #[test]
    fn stratified_specs_cover_grid_and_are_deterministic() {
        let config = StratifiedConfig {
            count: 80,
            min_rows: 64,
            max_rows: 512,
            size_strata: 2,
            density_strata: 2,
            ..StratifiedConfig::default()
        };
        let a = stratified_specs(&config);
        let b = stratified_specs(&config);
        assert_eq!(a, b);
        assert_eq!(a.len(), 80);
        // All families appear in any prefix of one grid pass (2*2*5 = 20).
        let fams: std::collections::HashSet<_> = a[..20].iter().map(|s| s.family).collect();
        assert_eq!(fams.len(), Family::ALL.len());
        // Sizes and densities stay inside the configured ranges.
        for s in &a {
            assert!(s.rows >= 64 && s.rows <= 512, "{}", s.rows);
            assert!(
                s.density >= config.density_range.0 * 0.999
                    && s.density <= config.density_range.1 * 1.001,
                "{}",
                s.density
            );
        }
        // Both size strata are populated.
        assert!(a.iter().any(|s| s.rows < 181)); // below sqrt(64*512)
        assert!(a.iter().any(|s| s.rows >= 181));
    }

    #[test]
    fn stratified_prefix_is_stable_under_count_growth() {
        let small = StratifiedConfig {
            count: 16,
            min_rows: 64,
            max_rows: 256,
            ..StratifiedConfig::default()
        };
        let large = StratifiedConfig {
            count: 48,
            ..small.clone()
        };
        let a = stratified_specs(&small);
        let b = stratified_specs(&large);
        assert_eq!(a[..], b[..16]);
    }

    #[test]
    fn matrix_spec_build_is_deterministic_and_fingerprinted() {
        let spec = MatrixSpec {
            name: "t_banded".into(),
            family: Family::Banded,
            seed: 99,
            rows: 128,
            density: 0.01,
        };
        let m1 = spec.build();
        let m2 = spec.build();
        assert_eq!(m1.csr, m2.csr);
        assert_eq!(m1.name, "t_banded");
        let mut other = spec.clone();
        other.seed = 100;
        assert_ne!(spec.fingerprint(), other.fingerprint());
    }

    #[test]
    fn unallocatable_operands_are_errors_naming_their_shape() {
        // 2^61 values and a 2^64-cell matrix overflow any allocation request.
        assert_eq!(
            try_dense_vector(1 << 61, 1).unwrap_err().to_string(),
            "a 2305843009213693952x1 matrix does not fit in memory"
        );
        let err = try_uniform(1 << 32, 1 << 32, 1e-9, 1).unwrap_err();
        assert_eq!(
            err.to_string(),
            "a 4294967296x4294967296 matrix does not fit in memory"
        );
    }

    #[test]
    fn dense_vector_deterministic() {
        assert_eq!(dense_vector(16, 3), dense_vector(16, 3));
        assert_ne!(dense_vector(16, 3), dense_vector(16, 4));
    }

    #[test]
    fn perturb_structure_shares_and_differs() {
        let a = uniform(128, 128, 0.03, 21);
        let b = perturb_structure(&a, 0.7, 0.3, 22);
        let shared = b.iter().filter(|&(r, c, _)| a.get(r, c).is_some()).count();
        assert!(shared > 0, "should share structure with a");
        assert!(b.nnz() > 0);
    }
}
