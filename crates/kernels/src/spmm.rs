//! SpMM kernels: `C = A * B` with `A` in CSR and `B` in CSC (paper
//! Algorithm 3, §VII-C).
//!
//! The inner-product formulation pairs every row of `A` with every column
//! of `B` and *index-matches* the row's column indices against the
//! column's row indices — the paper identifies this matching as the
//! dominant cost of sparse × sparse multiplication.
//!
//! * [`inner_product`] — the baseline: a scalar two-pointer match per
//!   (row, column) pair, as a tuned CSR×CSC library kernel executes it.
//! * [`via_cam`] — the VIA kernel (paper Figure 4): the row of `A` is
//!   loaded once into the CAM index table, then every column of `B`
//!   streams through `vldxmult.c`, whose per-lane CAM search performs the
//!   index matching in hardware; matched products are reduced in the VFU
//!   and only non-zero results are written out.
//!
//! Rows wider than the CAM are processed in k-range segments with partial
//! results accumulated in a software panel (the same segmentation the SpMA
//! kernel uses).
//!
//! [`gustavson`] is an *extension* beyond the paper: the modern row-wise
//! SPA (sparse accumulator) formulation, included so VIA can also be
//! compared against the strongest software SpMM organization rather than
//! only the paper's Algorithm 3.

use crate::context::{KernelRun, SimContext};
use crate::layout::CsrLayout;
use crate::readout::{insert_cam, read_direct};
use std::collections::HashMap;
use via_core::ViaUnit;
use via_formats::{Coo, Csc, Csr};
use via_sim::{AluKind, Engine, Reg, Region};

/// Branch-site ids (index the engine's per-site predictor counters).
const SITE_MATCH_DIR: u32 = 0x53_01;
const SITE_EMIT: u32 = 0x53_02;

/// Byte layout of a CSC matrix (mirror of [`CsrLayout`]).
struct CscLayout {
    col_ptr: via_sim::Region,
    row_idx: via_sim::Region,
    data: via_sim::Region,
}

impl CscLayout {
    fn new(alloc: &mut via_sim::AddressSpace, m: &Csc) -> Self {
        CscLayout {
            col_ptr: alloc.alloc_u64(m.cols() + 1),
            row_idx: alloc.alloc_u32(m.nnz().max(1)),
            data: alloc.alloc_f64(m.nnz().max(1)),
        }
    }
}

/// Scalar inner-product SpMM baseline (paper Algorithm 3 with a two-pointer
/// index match).
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn inner_product(a: &Csr, b: &Csc, ctx: &SimContext) -> KernelRun<Csr> {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let mut e = ctx.baseline_engine();
    let la = CsrLayout::new(e.alloc_mut(), a);
    let lb = CscLayout::new(e.alloc_mut(), b);
    let out = via_formats::reference::spmm(a, b).expect("shapes checked");
    let lc = CsrLayout::new(e.alloc_mut(), &out);

    let mut out_pos = 0usize;
    e.region("row loop");
    for i in 0..a.rows() {
        let (ac, av) = a.row(i);
        let pa = a.row_ptr()[i];
        e.load(la.row_ptr.addr_of(i + 1), 8);
        if ac.is_empty() {
            let rp = e.scalar_op(AluKind::Int, &[]);
            e.store(lc.row_ptr.addr_of(i + 1), 8, &[rp]);
            continue;
        }
        for j in 0..b.cols() {
            let (br, bv) = b.col(j);
            let pb = b.col_ptr()[j];
            // Column bounds load + emptiness test.
            let cp = e.load(lb.col_ptr.addr_of(j + 1), 8);
            e.scalar_op(AluKind::Int, &[cp]);
            if br.is_empty() {
                continue;
            }
            // Two-pointer index matching. The advance direction is a
            // data-dependent branch — the control-flow cost that makes
            // index matching the SpMM bottleneck (paper §III-A).
            let (mut p, mut q) = (0usize, 0usize);
            let mut acc = 0.0;
            let mut acc_reg = e.scalar_op(AluKind::Int, &[]);
            let mut hit = false;
            while p < ac.len() && q < br.len() {
                let ia = e.load(la.col_idx.addr_of(pa + p), 4);
                let ib = e.load(lb.row_idx.addr_of(pb + q), 4);
                let cmp = e.scalar_op(AluKind::Int, &[ia, ib]);
                let advance_a = ac[p] <= br[q];
                e.branch(advance_a, SITE_MATCH_DIR, &[cmp]);
                match ac[p].cmp(&br[q]) {
                    std::cmp::Ordering::Less => p += 1,
                    std::cmp::Ordering::Greater => q += 1,
                    std::cmp::Ordering::Equal => {
                        let va = e.load(la.data.addr_of(pa + p), 8);
                        let vb = e.load(lb.data.addr_of(pb + q), 8);
                        let prod = e.scalar_op(AluKind::FpMul, &[va, vb]);
                        acc_reg = e.scalar_op(AluKind::FpAdd, &[prod, acc_reg, cmp]);
                        acc += av[p] * bv[q];
                        hit = true;
                        p += 1;
                        q += 1;
                    }
                }
            }
            e.branch(hit, SITE_EMIT, &[acc_reg]);
            if hit {
                let col = e.scalar_op(AluKind::Int, &[]);
                e.store(lc.col_idx.addr_of(out_pos), 4, &[col]);
                e.store(lc.data.addr_of(out_pos), 8, &[acc_reg]);
                out_pos += 1;
                let _ = acc;
            }
        }
        let rp = e.scalar_op(AluKind::Int, &[]);
        e.store(lc.row_ptr.addr_of(i + 1), 8, &[rp]);
    }
    e.region_end();
    KernelRun::finish_baseline(out, e)
}

/// Row-wise Gustavson SpMM baseline with a dense sparse-accumulator (SPA)
/// workspace — the organization modern libraries use instead of the
/// paper's inner product. Per row of `A`: every product scatters into a
/// dense workspace (load, FMA, store, with same-column updates chaining
/// through memory); touched columns are then compacted into the output.
///
/// This is an extension beyond the paper's evaluation: it bounds how much
/// of VIA's SpMM win comes from the inner-product baseline being weak.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn gustavson(a: &Csr, b: &Csr, ctx: &SimContext) -> KernelRun<Csr> {
    spa_rows(ctx.baseline_engine(), a, b, |e, spa, (la, lb), i| {
        let pa = a.row_ptr()[i];
        e.load(la.row_ptr.addr_of(i + 1), 8);
        for (p, &k) in a.row(i).0.iter().enumerate() {
            let ka = e.load(la.col_idx.addr_of(pa + p), 4);
            let va = e.load(la.data.addr_of(pa + p), 8);
            let rp = e.load(lb.row_ptr.addr_of(k as usize + 1), 8);
            e.scalar_op(AluKind::Int, &[ka, rp]);
            let pb = b.row_ptr()[k as usize];
            for (q, &c) in b.row(k as usize).0.iter().enumerate() {
                let cb = e.load(lb.col_idx.addr_of(pb + q), 4);
                let vb = e.load(lb.data.addr_of(pb + q), 8);
                spa.update(e, c, cb, va, vb);
            }
        }
    })
}

/// Gustavson SpMM `C = A*B` on `e`: places `A`, `B` and `C` (the
/// reference product), then runs the row loop over one SPA: `update_row`
/// feeds row `i`'s products into the SPA, given the placements of `A` and
/// `B`, then the row is compacted into `C` and its row pointer stored.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub(crate) fn spa_rows(
    mut e: Engine,
    a: &Csr,
    b: &Csr,
    mut update_row: impl FnMut(&mut Engine, &mut Spa, (&CsrLayout, &CsrLayout), usize),
) -> KernelRun<Csr> {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let la = CsrLayout::new(e.alloc_mut(), a);
    let lb = CsrLayout::new(e.alloc_mut(), b);
    let out = via_formats::reference::spmm_gustavson(a, b).expect("shapes checked");
    let lc = CsrLayout::new(e.alloc_mut(), &out);
    let mut spa = Spa::new(&mut e, b.cols());
    for i in 0..a.rows() {
        e.region("spa update");
        update_row(&mut e, &mut spa, (&la, &lb), i);
        e.region_end();
        e.region("compact");
        spa.compact(&mut e, &lc.col_idx, &lc.data, true);
        let rp = e.scalar_op(AluKind::Int, &[]);
        e.store(lc.row_ptr.addr_of(i + 1), 8, &[rp]);
        e.region_end();
    }
    KernelRun::finish_baseline(out, e)
}

/// A dense sparse accumulator (SPA): a value workspace and an occupancy
/// flag per output index. Gustavson SpMM (baseline and SSR) and the
/// SpMSpV baseline share it; they differ only in how they load operands.
pub(crate) struct Spa {
    ws: Region,
    flags: Region,
    /// Last workspace store per touched index (memory dependence).
    last_store: HashMap<u32, Reg>,
    touched: Vec<u32>,
    out_pos: usize,
}

impl Spa {
    /// Allocates the workspace and flags for `len` output indices.
    pub(crate) fn new(e: &mut Engine, len: usize) -> Self {
        Spa {
            ws: e.alloc_mut().alloc_f64(len.max(1)),
            flags: e.alloc_mut().alloc_u32(len.max(1)),
            last_store: HashMap::new(),
            touched: Vec::new(),
            out_pos: 0,
        }
    }

    /// Adds the product of `va` and `vb` at index `c`, which `cb` holds.
    #[inline(always)]
    pub(crate) fn update(&mut self, e: &mut Engine, c: u32, cb: Reg, va: Reg, vb: Reg) {
        // Occupancy check + first-touch bookkeeping.
        let flag = e.load_dep(self.flags.addr_of(c as usize), 4, &[cb]);
        e.scalar_op(AluKind::Int, &[flag]);
        let prev = self.last_store.get(&c).copied();
        if prev.is_none() {
            self.touched.push(c);
            let set = e.scalar_op(AluKind::Int, &[flag]);
            e.store(self.flags.addr_of(c as usize), 4, &[set]);
        }
        // Workspace update: load, FMA, store (chained per index).
        let old = match prev {
            Some(prev) => e.load_dep(self.ws.addr_of(c as usize), 8, &[cb, prev]),
            None => e.load_dep(self.ws.addr_of(c as usize), 8, &[cb]),
        };
        let new = e.scalar_op(AluKind::FpFma, &[va, vb, old]);
        e.store(self.ws.addr_of(c as usize), 8, &[new]);
        self.last_store.insert(c, new);
    }

    /// Compacts the touched indices, sorted, into `idx`/`val` from the
    /// next output position on (library code sorts them; model the sort
    /// as ~log n passes of compare ops), then forgets them. With
    /// `reset_flags`, each occupancy flag is cleared for the next row.
    pub(crate) fn compact(
        &mut self,
        e: &mut Engine,
        idx: &Region,
        val: &Region,
        reset_flags: bool,
    ) {
        // Taken, not cleared: keeping the widest row's capacity for the
        // rest of the run raised the socket sweep's peak RSS.
        let mut touched = std::mem::take(&mut self.touched);
        let last_store = std::mem::take(&mut self.last_store);
        touched.sort_unstable();
        let n = touched.len() as u32;
        let sort_ops = n * (32 - n.max(1).leading_zeros());
        for _ in 0..sort_ops {
            e.scalar_op(AluKind::Int, &[]);
        }
        for c in touched {
            let v = e.load_dep(self.ws.addr_of(c as usize), 8, &[last_store[&c]]);
            let col = e.scalar_op(AluKind::Int, &[]);
            e.store(idx.addr_of(self.out_pos), 4, &[col]);
            e.store(val.addr_of(self.out_pos), 8, &[v]);
            if reset_flags {
                let zero = e.scalar_op(AluKind::Int, &[]);
                e.store(self.flags.addr_of(c as usize), 4, &[zero]);
            }
            self.out_pos += 1;
        }
    }
}

/// VIA CAM SpMM (paper Figure 4): per row of `A`, load the row into the
/// CAM once, stream every non-empty column of `B` through the fused
/// CAM-match multiply-reduce, and *accumulate each column's result in the
/// SSPM's direct region* (Figure 4 step 5) so back-to-back VIA
/// instructions pipeline through the FIVU without younger consumers on
/// the commit path. The finished output row is read out once per column
/// chunk.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn via_cam(a: &Csr, b: &Csc, ctx: &SimContext) -> KernelRun<Csr> {
    via_cam_with(a, b, ctx, 0)
}

/// [`via_cam`] with an explicit `col_tile` knob — the generator's entry
/// point. `col_tile` bounds how many columns of `B` are processed per
/// output chunk (0 = the whole SSPM output region, the default): smaller
/// tiles re-insert `A`'s row into the CAM more often but flush hotter
/// output slots. `via_cam_with(a, b, ctx, 0)` is bit-identical to
/// [`via_cam`].
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn via_cam_with(a: &Csr, b: &Csc, ctx: &SimContext, col_tile: usize) -> KernelRun<Csr> {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let vl = ctx.vl();
    let cam_cap = ctx.via.cam_entries();
    let entries = ctx.via.entries();
    // Output accumulators live in the SRAM above the CAM-owned slots.
    let acc_base = cam_cap;
    let out_region = entries - acc_base;
    assert!(out_region > 0, "SSPM must have room above the index table");
    let chunk_cols = if col_tile == 0 {
        out_region
    } else {
        col_tile.min(out_region)
    };
    let mut e = ctx.via_engine();
    let mut via = ViaUnit::new(ctx.via);
    let la = CsrLayout::new(e.alloc_mut(), a);
    let lb = CscLayout::new(e.alloc_mut(), b);
    // Output arrays, appended at a globally monotonic position exactly
    // like the real kernel growing its CSR output — every store is
    // eventually live (no staging-slot reuse, which the PR 7 analyzer
    // flagged as provably dead stores).
    let lc_col = e.alloc_mut().alloc_u32((a.rows() * b.cols()).max(1));
    let lc_val = e.alloc_mut().alloc_f64((a.rows() * b.cols()).max(1));

    let mut out_pos = 0usize;
    let mut coo = Coo::new(a.rows(), b.cols());
    for i in 0..a.rows() {
        let ac = a.row(i).0;
        e.load(la.row_ptr.addr_of(i + 1), 8);
        if ac.is_empty() {
            e.scalar_op(AluKind::Int, &[]);
            continue;
        }
        // Column chunks sized to the output region (or the col_tile knob).
        let mut j_lo = 0usize;
        while j_lo < b.cols() {
            let j_hi = (j_lo + chunk_cols).min(b.cols());
            via.vldx_clear(&mut e);
            // Segment A's row so it fits the CAM (step 1 in Figure 4).
            let mut seg = 0usize;
            while seg < ac.len() {
                let seg_end = (seg + cam_cap).min(ac.len());
                // Reset only the CAM region: output accumulators persist
                // across segments (vldxclear segment mode).
                if seg > 0 {
                    via.vldx_clear_segment(&mut e, 0, acc_base);
                }
                e.region("cam insert");
                insert_cam(&mut e, &mut via, a, &la, i, seg..seg_end);
                e.region_end();
                let k_lo = ac[seg];
                let k_hi = ac[seg_end - 1];
                // Stream B's columns (steps 2-5 in Figure 4).
                e.region("column stream");
                for j in j_lo..j_hi {
                    let (br, bv) = b.col(j);
                    let pb = b.col_ptr()[j];
                    let cp = e.load(lb.col_ptr.addr_of(j + 1), 8);
                    e.scalar_op(AluKind::Int, &[cp]);
                    if br.is_empty() {
                        continue;
                    }
                    // Only the part of the column within this k-range can
                    // match.
                    let lo = br.partition_point(|&r| r < k_lo);
                    let hi = br.partition_point(|&r| r <= k_hi);
                    if lo == hi {
                        continue;
                    }
                    let acc_pos = (acc_base + (j - j_lo)) as u32;
                    let mut k = lo;
                    while k < hi {
                        let len = vl.min(hi - k);
                        let idx_reg = e.load(lb.row_idx.addr_of(pb + k), (4 * len) as u32);
                        let val_reg = e.load(lb.data.addr_of(pb + k), (8 * len) as u32);
                        // Fused CAM-match multiply-reduce, accumulated into
                        // the SSPM output slot (Figure 4 steps 4-5).
                        via.vldx_dot_acc_c(
                            &mut e,
                            &br[k..k + len],
                            &bv[k..k + len],
                            acc_pos,
                            &[idx_reg, val_reg],
                        );
                        k += len;
                    }
                }
                e.region_end();
                seg = seg_end;
            }
            // Flush the finished column chunk: batched SSPM reads first
            // (they pipeline), then the compare/store consumers.
            e.region("flush");
            let base = acc_base as u32;
            read_direct(
                &mut e,
                &mut via,
                base,
                j_hi - j_lo,
                usize::MAX,
                |e, p, reg, vals| {
                    for (l, &v) in vals.iter().enumerate() {
                        let j = j_lo + p + l;
                        let (br, _) = b.col(j);
                        let matched =
                            !br.is_empty() && ac.iter().any(|c| br.binary_search(c).is_ok());
                        e.branch(matched, SITE_EMIT, &[reg]);
                        if matched {
                            let col = e.scalar_op(AluKind::Int, &[]);
                            e.store(lc_col.addr_of(out_pos), 4, &[col]);
                            e.store(lc_val.addr_of(out_pos), 8, &[reg]);
                            coo.push(i, j, v);
                            out_pos += 1;
                        }
                    }
                },
            );
            e.region_end();
            j_lo = j_hi;
        }
        e.scalar_op(AluKind::Int, &[]);
    }
    let out = Csr::from_coo(&coo.into_canonical());
    let events = via.events();
    KernelRun::finish_via(out, e, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use via_formats::{gen, reference, DenseMatrix};

    fn ctx() -> SimContext {
        SimContext::default()
    }

    fn pair(seed: u64) -> (Csr, Csc) {
        let a = gen::uniform(48, 48, 0.08, seed);
        let b = gen::uniform(48, 48, 0.08, seed + 1).to_csc();
        (a, b)
    }

    #[test]
    fn inner_product_matches_reference() {
        let (a, b) = pair(21);
        let run = inner_product(&a, &b, &ctx());
        let expected = reference::spmm(&a, &b).unwrap();
        assert_eq!(run.output, expected);
    }

    #[test]
    fn via_cam_matches_reference() {
        let (a, b) = pair(23);
        let run = via_cam(&a, &b, &ctx());
        let expected = reference::spmm(&a, &b).unwrap();
        assert!(
            DenseMatrix::from_csr(&run.output).approx_eq(&DenseMatrix::from_csr(&expected), 1e-9)
        );
        let ev = run.sspm_events.unwrap();
        assert!(ev.cam_searches > 0, "index matching must use the CAM");
    }

    #[test]
    fn via_cam_segments_wide_rows() {
        // Row of A wider than the 4 KB config's 128-entry CAM.
        let small = SimContext::with_via(via_core::ViaConfig::new(4, 2));
        let a = gen::banded(300, 150, 160, 31);
        let b = gen::uniform(300, 64, 0.05, 32).to_csc();
        let run = via_cam(&a, &b, &small);
        let expected = reference::spmm(&a, &b).unwrap();
        assert!(
            DenseMatrix::from_csr(&run.output).approx_eq(&DenseMatrix::from_csr(&expected), 1e-9)
        );
    }

    #[test]
    fn gustavson_matches_reference() {
        let a = gen::uniform(48, 48, 0.08, 61);
        let b = gen::uniform(48, 48, 0.08, 62);
        let run = gustavson(&a, &b, &ctx());
        let expected = reference::spmm_gustavson(&a, &b).unwrap();
        assert_eq!(run.output, expected);
        assert!(run.stats.cycles > 0);
    }

    #[test]
    fn gustavson_is_stronger_than_inner_product() {
        // The modern organization should beat Algorithm 3 on sparse inputs
        // (no empty (row, col) pair visits).
        let a = gen::uniform(96, 96, 0.03, 63);
        let b = gen::uniform(96, 96, 0.03, 64);
        let gus = gustavson(&a, &b, &ctx());
        let inner = inner_product(&a, &b.to_csc(), &ctx());
        assert!(
            gus.cycles() < inner.cycles(),
            "Gustavson ({}) should beat inner product ({})",
            gus.cycles(),
            inner.cycles()
        );
    }

    #[test]
    fn via_beats_baseline() {
        let (a, b) = pair(29);
        let base = inner_product(&a, &b, &ctx());
        let via = via_cam(&a, &b, &ctx());
        assert!(
            via.cycles() < base.cycles(),
            "VIA SpMM ({}) should beat the scalar inner product ({})",
            via.cycles(),
            base.cycles()
        );
    }

    #[test]
    fn empty_operands_give_empty_product() {
        let a = Csr::zero(4, 4);
        let b = Csr::zero(4, 4).to_csc();
        assert_eq!(inner_product(&a, &b, &ctx()).output.nnz(), 0);
        assert_eq!(via_cam(&a, &b, &ctx()).output.nnz(), 0);
    }

    #[test]
    fn identity_times_identity() {
        let mut coo = Coo::new(5, 5);
        for i in 0..5 {
            coo.push(i, i, 1.0);
        }
        let id = Csr::from_coo(&coo.into_canonical());
        let idc = id.to_csc();
        for run in [inner_product(&id, &idc, &ctx()), via_cam(&id, &idc, &ctx())] {
            assert_eq!(run.output, id);
        }
    }

    #[test]
    fn rectangular_shapes() {
        let a = gen::uniform(20, 32, 0.1, 41);
        let b = gen::uniform(32, 12, 0.1, 42).to_csc();
        let run = via_cam(&a, &b, &ctx());
        let expected = reference::spmm(&a, &b).unwrap();
        assert!(
            DenseMatrix::from_csr(&run.output).approx_eq(&DenseMatrix::from_csr(&expected), 1e-9)
        );
        assert_eq!(run.output.rows(), 20);
        assert_eq!(run.output.cols(), 12);
    }

    #[test]
    fn emitted_streams_verify_clean() {
        use via_sim::verify;
        let _guard = verify::capture_guard();
        let (a, b) = pair(25);
        inner_product(&a, &b, &ctx());
        via_cam(&a, &b, &ctx());
        let b2 = gen::uniform(48, 48, 0.08, 26);
        gustavson(&a, &b2, &ctx());
        let reports = verify::drain_captured();
        assert!(reports.len() >= 3, "one report per kernel engine");
        for r in &reports {
            assert!(r.is_clean(), "{}", r.render());
        }
    }
}
