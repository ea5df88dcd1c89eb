//! The paper's six baseline/VIA kernel pairs, each defined once.
//!
//! The evaluation (§V-B, §VII-A–C) is one procedure: run each pair over a
//! matrix suite, then bucket the speedups into four categories by the
//! pair's key (Figure 10: CSB block density; Figure 11: non-zeros). A
//! [`Pair`] is one [`KernelKind`] bound to the operands it derives from
//! `(matrix, seed, SimContext)`: it runs the baseline, VIA and SSR legs
//! and carries the key; [`check`] compares the legs' outputs and
//! [`buckets`] does the bucketing. The figure runners, the campaign,
//! `stall_report` and `verify_programs` all run the pairs from here.

use via_formats::gen::{self, GenMatrix};
use via_formats::stats::{geomean, split_categories};
use via_formats::{vec_approx_eq, Csb, Csc, Csr, FormatError, SellCSigma, Spc5};
use via_gen::GenOutput;
use via_kernels::{spma, spmm, spmv, ssr, KernelRun, SimContext};

/// The kernel×format pairs of the paper's evaluation. Each runs a
/// software baseline and its VIA counterpart; the campaign verifies the
/// functional outputs agree before a row is logged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum KernelKind {
    /// SpMV, vectorized CSR baseline vs VIA-CSR (Fig. 10 first group).
    SpmvCsr,
    /// SpMV, SPC5 baseline vs VIA-SPC5.
    SpmvSpc5,
    /// SpMV, Sell-C-σ baseline vs VIA-Sell.
    SpmvSell,
    /// SpMV, software CSB vs VIA-CSB (`vldxblkmult`; the paper's 4.22×).
    SpmvCsb,
    /// SpMA, scalar two-pointer merge vs CAM merge (Fig. 11).
    Spma,
    /// SpMM, inner-product index matching vs CAM matching (§VII-C).
    /// Quadratic in matrix size — budget accordingly.
    Spmm,
}

impl KernelKind {
    /// Every kernel, in a fixed order.
    pub const ALL: [KernelKind; 6] = [
        KernelKind::SpmvCsr,
        KernelKind::SpmvSpc5,
        KernelKind::SpmvSell,
        KernelKind::SpmvCsb,
        KernelKind::Spma,
        KernelKind::Spmm,
    ];

    /// The four SpMV pairs, in Figure 10's format order.
    pub const SPMV: [KernelKind; 4] = [
        KernelKind::SpmvCsr,
        KernelKind::SpmvSpc5,
        KernelKind::SpmvSell,
        KernelKind::SpmvCsb,
    ];

    /// Stable machine name (used in logs and `--kernels`).
    pub fn name(&self) -> &'static str {
        match self {
            KernelKind::SpmvCsr => "spmv_csr",
            KernelKind::SpmvSpc5 => "spmv_spc5",
            KernelKind::SpmvSell => "spmv_sell",
            KernelKind::SpmvCsb => "spmv_csb",
            KernelKind::Spma => "spma",
            KernelKind::Spmm => "spmm",
        }
    }

    /// Parses a machine name back into a kernel.
    pub fn parse(name: &str) -> Option<KernelKind> {
        KernelKind::ALL.iter().copied().find(|k| k.name() == name)
    }

    /// The `(baseline, VIA)` leg labels, e.g. `spmv/csr_vec` and
    /// `spmv/via_csr`.
    pub fn labels(&self) -> (&'static str, &'static str) {
        match self {
            KernelKind::SpmvCsr => ("spmv/csr_vec", "spmv/via_csr"),
            KernelKind::SpmvSpc5 => ("spmv/spc5", "spmv/via_spc5"),
            KernelKind::SpmvSell => ("spmv/sell", "spmv/via_sell"),
            KernelKind::SpmvCsb => ("spmv/csb_software", "spmv/via_csb"),
            KernelKind::Spma => ("spma/merge_csr", "spma/via_cam"),
            KernelKind::Spmm => ("spmm/inner_product", "spmm/via_cam"),
        }
    }

    /// Binds the pair to the operands it derives from `a`, `seed` and
    /// `ctx`: SpMV's dense `x` from `seed` and the pair's format (CSB at
    /// `ctx`'s block size; SPC5 and Sell-C-σ at its vector length C, with
    /// σ = min(8C, max(rows, C)), or σ = C if that fails); SpMA's `B` as
    /// `A`'s structure perturbed with `seed ^ 1`; SpMM's `B` uniform at
    /// `A`'s density with `seed ^ 2`. Every leg runs under `ctx`.
    ///
    /// # Errors
    ///
    /// [`FormatError::TooLarge`] when SpMV's dense `x` or SpMM's
    /// `cols x cols` `B` (or its CSC form) does not fit in memory (every
    /// buffer of `x` and `B` is reserved fallibly, so a declared width far
    /// beyond memory is not an allocation abort), or
    /// the [`FormatError`] of a format conversion that fails (the CSB
    /// conversion the SpMV key needs is tried first).
    pub fn pair<'a>(
        self,
        a: &'a Csr,
        seed: u64,
        ctx: &'a SimContext,
    ) -> Result<Pair<'a>, FormatError> {
        let (key, operands) = match self {
            KernelKind::Spma => (
                a.nnz() as f64,
                Operands::Spma(gen::perturb_structure(a, 0.6, 0.5, seed ^ 1)),
            ),
            KernelKind::Spmm => {
                let b = gen::try_uniform(a.cols(), a.cols(), a.density(), seed ^ 2)?;
                let b_csc = Csc::try_from_csr(&b)?;
                (
                    a.nnz() as f64 / a.rows().max(1) as f64,
                    Operands::Spmm(b, b_csc),
                )
            }
            spmv_kind => {
                let x = gen::try_dense_vector(a.cols(), seed)?;
                let csb = Csb::from_csr(a, ctx.via.csb_block_size())?;
                let key = csb.mean_block_density();
                let vl = ctx.vl();
                let format = match spmv_kind {
                    KernelKind::SpmvCsr => SpmvFormat::Csr,
                    KernelKind::SpmvSpc5 => SpmvFormat::Spc5(Spc5::from_csr(a, vl)?),
                    KernelKind::SpmvSell => {
                        let sigma = (vl * 8).min(a.rows().max(vl));
                        SpmvFormat::Sell(
                            SellCSigma::from_csr(a, vl, sigma)
                                .or_else(|_| SellCSigma::from_csr(a, vl, vl))?,
                        )
                    }
                    _ => SpmvFormat::Csb(csb),
                };
                (key, Operands::Spmv(x, format))
            }
        };
        Ok(Pair {
            key,
            a,
            ctx,
            operands,
        })
    }

    /// [`KernelKind::pair`] on a generated suite matrix (with its own
    /// seed), whose format conversions all succeed.
    pub fn on<'a>(self, m: &'a GenMatrix, ctx: &'a SimContext) -> Pair<'a> {
        self.pair(&m.csr, m.seed, ctx)
            .expect("generated matrices convert to every format")
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The operands a pair derives from its matrix.
#[derive(Debug)]
enum Operands {
    /// SpMV: the dense `x` and the matrix in the pair's format.
    Spmv(Vec<f64>, SpmvFormat),
    /// SpMA: the second addend.
    Spma(Csr),
    /// SpMM: the right-hand matrix, as CSR (SSR Gustavson) and CSC.
    Spmm(Csr, Csc),
}

/// The storage format an SpMV pair runs on (`A` itself for CSR).
#[derive(Debug)]
enum SpmvFormat {
    Csr,
    Spc5(Spc5),
    Sell(SellCSigma),
    Csb(Csb),
}

/// The pairs' output check, run on the baseline's output: `Ok` when
/// `other` (the VIA or SSR leg's) agrees within 1e-6.
///
/// # Errors
///
/// The mismatch message when the outputs disagree.
pub fn check(base: &GenOutput, other: &GenOutput) -> Result<(), &'static str> {
    const TOL: f64 = 1e-6;
    match (base, other) {
        (GenOutput::Vector(a), GenOutput::Vector(b)) if vec_approx_eq(a, b, TOL) => Ok(()),
        (GenOutput::Matrix(a), GenOutput::Matrix(b)) if csr_approx_eq(a, b, TOL) => Ok(()),
        (GenOutput::Vector(_), _) => Err("baseline and VIA outputs disagree beyond 1e-6"),
        (GenOutput::Matrix(_), _) => Err("baseline and VIA sparse outputs disagree beyond 1e-6"),
    }
}

/// Structural + approximate-value equality for two canonical CSR results.
fn csr_approx_eq(a: &Csr, b: &Csr, tol: f64) -> bool {
    if a.rows() != b.rows() || a.cols() != b.cols() || a.nnz() != b.nnz() {
        return false;
    }
    a.iter()
        .zip(b.iter())
        .all(|((ra, ca, va), (rb, cb, vb))| ra == rb && ca == cb && (va - vb).abs() <= tol)
}

/// One kernel pair bound to its operands ([`KernelKind::pair`]).
#[derive(Debug)]
pub struct Pair<'a> {
    /// The bucketing key: CSB block density for SpMV (Figure 10),
    /// non-zeros for SpMA (Figure 11), non-zeros per row for SpMM.
    pub key: f64,
    a: &'a Csr,
    ctx: &'a SimContext,
    operands: Operands,
}

impl Pair<'_> {
    /// Runs the software baseline.
    pub fn baseline(&self) -> KernelRun<GenOutput> {
        let (a, ctx) = (self.a, self.ctx);
        match &self.operands {
            Operands::Spmv(x, format) => match format {
                SpmvFormat::Csr => spmv::csr_vec(a, x, ctx),
                SpmvFormat::Spc5(m) => spmv::spc5(m, x, ctx),
                SpmvFormat::Sell(m) => spmv::sell(m, x, ctx),
                SpmvFormat::Csb(m) => spmv::csb_software(m, x, ctx),
            }
            .map(GenOutput::Vector),
            Operands::Spma(b) => spma::merge_csr(a, b, ctx).map(GenOutput::Matrix),
            Operands::Spmm(_, b) => spmm::inner_product(a, b, ctx).map(GenOutput::Matrix),
        }
    }

    /// Runs the VIA counterpart.
    pub fn via(&self) -> KernelRun<GenOutput> {
        let (a, ctx) = (self.a, self.ctx);
        match &self.operands {
            Operands::Spmv(x, format) => match format {
                SpmvFormat::Csr => spmv::via_csr(a, x, ctx),
                SpmvFormat::Spc5(m) => spmv::via_spc5(m, x, ctx),
                SpmvFormat::Sell(m) => spmv::via_sell(m, x, ctx),
                SpmvFormat::Csb(m) => spmv::via_csb(m, x, ctx),
            }
            .map(GenOutput::Vector),
            Operands::Spma(b) => spma::via_cam(a, b, ctx).map(GenOutput::Matrix),
            Operands::Spmm(_, b) => spmm::via_cam(a, b, ctx).map(GenOutput::Matrix),
        }
    }

    /// Runs the SSR rival backend's kernel, where one exists: SpMV streams
    /// the CSR whatever the pair's format (the rival architecture has no
    /// SPC5/Sell/CSB variants), SpMM streams Gustavson, and SpMA has no
    /// SSR model (`None`).
    pub fn ssr(&self) -> Option<KernelRun<GenOutput>> {
        let (a, ctx) = (self.a, self.ctx);
        match &self.operands {
            Operands::Spmv(x, _) => Some(ssr::spmv_csr(a, x, ctx).map(GenOutput::Vector)),
            Operands::Spma(_) => None,
            Operands::Spmm(b, _) => Some(ssr::spmm_gustavson(a, b, ctx).map(GenOutput::Matrix)),
        }
    }
}

/// One category of a Figure 10/11 bucketing ([`buckets`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CategoryRow {
    /// Category label (median sort-key value).
    pub median_key: f64,
    /// Points (matrices) in this category.
    pub matrices: usize,
    /// Geomean speedup in this category.
    pub speedup: f64,
}

/// Baseline cycles over VIA cycles.
pub fn speedup<T, U>(base: &KernelRun<T>, via: &KernelRun<U>) -> f64 {
    base.cycles() as f64 / via.cycles() as f64
}

/// Buckets `(key, speedup)` points into the four Figure 10/11 categories
/// (even quantile buckets of the key) and returns each category's geomean
/// speedup with the geomean over every point.
pub fn buckets(points: &[(f64, f64)]) -> (Vec<CategoryRow>, f64) {
    let speedup_of = |i: &usize| points[*i].1;
    let rows = split_categories(points, 4, |p| p.0)
        .iter()
        .map(|c| CategoryRow {
            median_key: c.median_key,
            matrices: c.indices.len(),
            speedup: geomean(&c.indices.iter().map(speedup_of).collect::<Vec<_>>()),
        })
        .collect();
    let all: Vec<f64> = points.iter().map(|p| p.1).collect();
    (rows, geomean(&all))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_split_four_ways_and_take_geomeans() {
        // Keys 9..1 with speedups 2^0..2^8; the remainder goes first.
        let points: Vec<(f64, f64)> = (0..9).map(|i| (f64::from(9 - i), 2f64.powi(i))).collect();
        let (rows, overall) = buckets(&points);
        let sizes: Vec<usize> = rows.iter().map(|r| r.matrices).collect();
        assert_eq!((sizes, rows[0].median_key), (vec![3, 2, 2, 2], 2.0));
        assert!((rows[0].speedup - 128.0).abs() < 1e-9 && (overall - 16.0).abs() < 1e-9);
    }

    #[test]
    fn checks_name_the_mismatch() {
        let v = GenOutput::Vector(vec![1.0, 2.0]);
        assert_eq!(check(&v, &GenOutput::Vector(vec![1.0, 2.0 + 1e-9])), Ok(()));
        assert!(check(&v, &GenOutput::Vector(vec![1.0, 2.1])).is_err());
        let m = GenOutput::Matrix(gen::uniform(8, 8, 0.3, 1));
        assert_eq!(check(&m, &m.clone()), Ok(()));
        assert_eq!(
            check(&m, &GenOutput::Matrix(gen::uniform(8, 8, 0.3, 2))),
            Err("baseline and VIA sparse outputs disagree beyond 1e-6")
        );
    }
}
