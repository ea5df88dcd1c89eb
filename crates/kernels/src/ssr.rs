//! SSR-backend kernels: stream-semantic-register SpMV and SpMM.
//!
//! These are the rival-architecture variants for the backend bake-off
//! (see `docs/BACKENDS.md`). They move every byte the baseline kernels
//! move, through the baseline's own gather and SPA code, and change only
//! what the SSR hardware actually changes:
//!
//! * per row, the loop's address streams are *configured once*
//!   ([`via_core::SsrStreams::configure`], a pipelined custom op) instead
//!   of being advanced by per-iteration scalar induction instructions;
//! * `x` gathers run at the indirection-stream rate
//!   ([`via_core::SsrStreams::GATHER_OVERHEAD`] cycles/element) because
//!   [`SimContext::ssr_engine`] shapes the core that way;
//! * everything the SSR has no answer for — the SpMM sparse-accumulator
//!   read-modify-write traffic, compaction, sorting — is the SPA of
//!   [`crate::spmm::gustavson`]. That asymmetry (VIA absorbs output
//!   indexing in the SSPM, SSR only accelerates input streaming) is the
//!   comparison the bake-off is designed to surface.

use crate::context::{KernelRun, SimContext};
use crate::layout::CsrLayout;
use crate::spmm::spa_rows;
use crate::spmv::csr_row_loop;
use via_core::SsrStreams;
use via_formats::Csr;

/// SSR CSR SpMV: `y = y + A*x` with three streams per row (column
/// indices, matrix values, and the `x` indirection stream).
///
/// Functionally identical to [`crate::spmv::csr_vec`]; the instruction
/// stream drops the per-chunk induction ops and gathers at the stream
/// rate.
///
/// # Panics
///
/// Panics if `x.len() != a.cols()`.
pub fn spmv_csr(a: &Csr, x: &[f64], ctx: &SimContext) -> KernelRun<Vec<f64>> {
    assert_eq!(x.len(), a.cols(), "x length must equal matrix columns");
    csr_row_loop(a, x, ctx.ssr_engine(), Some(SsrStreams::default()))
}

/// SSR Gustavson SpMM: `C = A*B` with streams over `A`'s row and each
/// `B` row into the dense sparse accumulator (SPA) of
/// [`crate::spmm::gustavson`] — SSR streams inputs, it does not absorb
/// output read-modify-writes the way VIA's SSPM does.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn spmm_gustavson(a: &Csr, b: &Csr, ctx: &SimContext) -> KernelRun<Csr> {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let mut e = ctx.ssr_engine();
    let mut ssr = SsrStreams::default();
    let la = CsrLayout::new(e.alloc_mut(), a);
    let lb = CsrLayout::new(e.alloc_mut(), b);
    let out = via_formats::reference::spmm_gustavson(a, b).expect("shapes checked");
    let lc = CsrLayout::new(e.alloc_mut(), &out);
    spa_rows(&mut e, a.rows(), b.cols(), &lc, |e, spa, i| {
        let pa = a.row_ptr()[i];
        let rp = e.load(la.row_ptr.addr_of(i + 1), 8);
        // One stream setup covers A's row; each B row streamed inside gets
        // its own (the bound comes from B's row_ptr).
        let row_live = ssr.configure(e, &[rp]);
        for (p, &k) in a.row(i).0.iter().enumerate() {
            let ka = e.load_dep(la.col_idx.addr_of(pa + p), 4, &[row_live]);
            let va = e.load_dep(la.data.addr_of(pa + p), 8, &[row_live]);
            let brp = e.load_dep(lb.row_ptr.addr_of(k as usize + 1), 8, &[ka]);
            let b_live = ssr.configure(e, &[brp]);
            let pb = b.row_ptr()[k as usize];
            for (q, &c) in b.row(k as usize).0.iter().enumerate() {
                let cb = e.load_dep(lb.col_idx.addr_of(pb + q), 4, &[b_live]);
                let vb = e.load_dep(lb.data.addr_of(pb + q), 8, &[b_live]);
                spa.update(e, c, cb, va, vb);
            }
        }
    });
    KernelRun::finish_baseline(out, e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use via_formats::reference;
    use via_formats::{vec_approx_eq, Coo};

    fn sample() -> Csr {
        let t = [
            (0usize, 0usize, 2.0),
            (0, 3, 1.0),
            (1, 1, 3.0),
            (2, 0, 1.0),
            (2, 2, 4.0),
            (2, 3, 5.0),
            (3, 1, 6.0),
        ];
        Csr::from_coo(&Coo::from_triplets(4, 4, t).unwrap())
    }

    #[test]
    fn spmv_matches_reference() {
        let a = sample();
        let x = [1.0, 2.0, 3.0, 4.0];
        let ctx = SimContext::default();
        let run = spmv_csr(&a, &x, &ctx);
        let expect = reference::spmv(&a, &x);
        assert!(vec_approx_eq(&run.output, &expect, 1e-12));
        assert!(run.stats.cycles > 0);
        assert!(run.stats.custom_ops > 0, "stream configs are custom ops");
    }

    #[test]
    fn spmv_beats_baseline_on_gather_bound_rows() {
        // Long rows amortize the per-row stream setup and expose the cheap
        // indirection-stream gathers. (On very short rows the setup op can
        // lose to the baseline — that trade-off is the point of the model.)
        let cols = 512usize;
        let mut coo = Coo::new(4, cols);
        for i in 0..4 {
            for j in (0..cols).step_by(3) {
                coo.push(i, j, (i + j + 1) as f64);
            }
        }
        let a = Csr::from_coo(&coo);
        let x = vec![1.0; cols];
        let ctx = SimContext::default();
        let ssr = spmv_csr(&a, &x, &ctx).cycles();
        let base = crate::spmv::csr_vec(&a, &x, &ctx).cycles();
        assert!(ssr < base, "ssr {ssr} !< baseline {base}");
    }

    #[test]
    fn spmm_matches_reference() {
        let a = sample();
        let b = sample();
        let ctx = SimContext::default();
        let run = spmm_gustavson(&a, &b, &ctx);
        let expect = reference::spmm_gustavson(&a, &b).unwrap();
        assert_eq!(run.output.row_ptr(), expect.row_ptr());
        assert_eq!(run.output.col_idx(), expect.col_idx());
        assert!(vec_approx_eq(run.output.data(), expect.data(), 1e-12));
        assert!(run.stats.custom_ops > 0);
    }
}
