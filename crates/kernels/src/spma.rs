//! SpMA kernels: `C = A + B` with sparse CSR operands (paper Algorithm 2,
//! §VII-B).
//!
//! * [`merge_csr`] — the Eigen-style baseline: a two-pointer merge of each
//!   row pair. Every step loads both candidate column indices, compares,
//!   and branches — the index-matching control flow that resists
//!   vectorization (paper §III-A challenge 2).
//! * [`via_cam`] — the VIA kernel: the row of `A` is inserted into the
//!   SSPM's CAM index table (`vldxload.c`), the row of `B` is merged with
//!   one `vldxadd.c` per vector chunk (hit ⇒ in-place sum, miss ⇒ in-order
//!   insert), and the result row is read out with
//!   `vldxcount`/`vldxloadidx`/`vldxmov.d`.
//!
//! The VIA result rows come out in *insertion order* (A's columns, then
//! B-only columns in B order), exactly as the hardware would store them;
//! the functional result is canonicalized through COO before comparison,
//! and the store traffic of writing the row is fully modeled. The paper's
//! kernel does the same (the merged row is written back as produced).

use crate::context::{KernelRun, SimContext};
use crate::layout::{CsrLayout, VecLayout};
use crate::readout::{insert_cam, read_cam};
use via_core::{AluOp, Dest, ViaUnit};
use via_formats::{Coo, Csr};
use via_sim::AluKind;

/// Branch-site id for the merge-direction branch.
const SITE_MERGE_DIR: u32 = 0x5A_01;

/// Scalar two-pointer merge SpMA (Eigen-style baseline).
///
/// # Panics
///
/// Panics if the operand shapes differ.
pub fn merge_csr(a: &Csr, b: &Csr, ctx: &SimContext) -> KernelRun<Csr> {
    assert_eq!(
        (a.rows(), a.cols()),
        (b.rows(), b.cols()),
        "SpMA operands must have equal shapes"
    );
    let mut e = ctx.baseline_engine();
    let la = CsrLayout::new(e.alloc_mut(), a);
    let lb = CsrLayout::new(e.alloc_mut(), b);
    let out = via_formats::reference::spma(a, b).expect("shapes checked");
    let lc = CsrLayout::new(e.alloc_mut(), &out);

    let mut out_pos = 0usize;
    e.region("row loop");
    for i in 0..a.rows() {
        // Row bounds for both operands.
        let rpa = e.load(la.row_ptr.addr_of(i + 1), 8);
        let rpb = e.load(lb.row_ptr.addr_of(i + 1), 8);
        let bound = e.scalar_op(AluKind::Int, &[rpa, rpb]);
        let (ac, _) = a.row(i);
        let (bc, _) = b.row(i);
        let (pa, pb) = (a.row_ptr()[i], b.row_ptr()[i]);
        let (mut p, mut q) = (0usize, 0usize);
        while p < ac.len() || q < bc.len() {
            // Load the candidate indices (whichever sides remain).
            let mut idx_regs = Vec::with_capacity(2);
            if p < ac.len() {
                idx_regs.push(e.load(la.col_idx.addr_of(pa + p), 4));
            }
            if q < bc.len() {
                idx_regs.push(e.load(lb.col_idx.addr_of(pb + q), 4));
            }
            // Compare + data-dependent branch on the merge direction — the
            // mispredict-prone control flow of index matching (§III-A).
            let cmp = e.scalar_op(AluKind::Int, &idx_regs);
            let take_a = q >= bc.len() || (p < ac.len() && ac[p] <= bc[q]);
            let take_b = p >= ac.len() || (q < bc.len() && bc[q] <= ac[p]);
            e.branch(take_a, SITE_MERGE_DIR, &[cmp]);
            let mut val_regs = Vec::with_capacity(2);
            if take_a {
                val_regs.push(e.load(la.data.addr_of(pa + p), 8));
                p += 1;
            }
            if take_b {
                val_regs.push(e.load(lb.data.addr_of(pb + q), 8));
                q += 1;
            }
            let val = if val_regs.len() == 2 {
                e.scalar_op(AluKind::FpAdd, &val_regs)
            } else {
                val_regs[0]
            };
            // Store the output column and value (Eigen's insertBack:
            // capacity check + cursor increment + the stores).
            let col = e.scalar_op(AluKind::Int, &[cmp]);
            e.scalar_op(AluKind::Int, &[]); // capacity check
            e.scalar_op(AluKind::Int, &[]); // cursor increment
            e.store(lc.col_idx.addr_of(out_pos), 4, &[col]);
            e.store(lc.data.addr_of(out_pos), 8, &[val]);
            out_pos += 1;
            e.scalar_op(AluKind::Int, &[bound]); // induction + branch
        }
        // Row epilogue: startVec bookkeeping + row_ptr store.
        let rp = e.scalar_op(AluKind::Int, &[]);
        e.scalar_op(AluKind::Int, &[rp]);
        e.scalar_op(AluKind::Int, &[]);
        e.store(lc.row_ptr.addr_of(i + 1), 8, &[rp]);
    }
    e.region_end();
    KernelRun::finish_baseline(out, e)
}

/// VIA CAM-merge SpMA (paper Figure 4's machinery applied to addition).
///
/// Rows longer than the CAM index table are processed in column-range
/// segments: each segment is merged in the CAM, flushed, and the next
/// range started — the same software segmentation real VIA code would
/// need.
///
/// # Panics
///
/// Panics if the operand shapes differ.
pub fn via_cam(a: &Csr, b: &Csr, ctx: &SimContext) -> KernelRun<Csr> {
    assert_eq!(
        (a.rows(), a.cols()),
        (b.rows(), b.cols()),
        "SpMA operands must have equal shapes"
    );
    let vl = ctx.vl();
    let cam_cap = ctx.via.cam_entries();
    let mut e = ctx.via_engine();
    let mut via = ViaUnit::new(ctx.via);
    let la = CsrLayout::new(e.alloc_mut(), a);
    let lb = CsrLayout::new(e.alloc_mut(), b);
    // Output arrays sized for the worst case (nnz(A) + nnz(B)).
    let out_cap = (a.nnz() + b.nnz()).max(1);
    let lc_row_ptr = VecLayout::new(e.alloc_mut(), a.rows() + 1);
    let lc_col = e.alloc_mut().alloc_u32(out_cap);
    let lc_val = e.alloc_mut().alloc_f64(out_cap);

    let mut coo = Coo::new(a.rows(), a.cols());
    let mut out_pos = 0usize;
    for i in 0..a.rows() {
        let rpa = e.load(la.row_ptr.addr_of(i + 1), 8);
        let rpb = e.load(lb.row_ptr.addr_of(i + 1), 8);
        e.scalar_op(AluKind::Int, &[rpa, rpb]);
        let ac = a.row(i).0;
        let (bc, bv) = b.row(i);
        let pb = b.row_ptr()[i];

        // Segment the row pair so the CAM never overflows: each segment
        // covers a column range small enough that |A seg| + |B seg| fits.
        let mut seg_a = 0usize; // consumed from A's row
        let mut seg_b = 0usize;
        while seg_a < ac.len() || seg_b < bc.len() {
            via.vldx_clear(&mut e);
            // Candidate cutoffs taking up to cam_cap/2 from each side; the
            // actual cutoff column keeps matching pairs together.
            let take_a_max = (seg_a + cam_cap / 2).min(ac.len());
            let take_b_max = (seg_b + cam_cap / 2).min(bc.len());
            let cut_a = ac.get(take_a_max).copied().unwrap_or(u32::MAX);
            let cut_b = bc.get(take_b_max).copied().unwrap_or(u32::MAX);
            let cutoff = cut_a.min(cut_b);
            let end_a = if cutoff == u32::MAX {
                ac.len()
            } else {
                ac[..].partition_point(|&c| c < cutoff)
            };
            let end_b = if cutoff == u32::MAX {
                bc.len()
            } else {
                bc[..].partition_point(|&c| c < cutoff)
            };
            // Guaranteed progress: the cutoff is beyond at least one
            // remaining element on the side that set it.
            assert!(
                end_a > seg_a || end_b > seg_b,
                "segmentation must make progress"
            );

            // Insert A's segment (vldxload.c), chunked by VL.
            e.region("cam insert");
            insert_cam(&mut e, &mut via, a, &la, i, seg_a..end_a);
            e.region_end();
            // Merge B's segment (vldxadd.c → SSPM).
            e.region("cam merge");
            let mut k = seg_b;
            while k < end_b {
                let len = vl.min(end_b - k);
                let col_reg = e.load(lb.col_idx.addr_of(pb + k), (4 * len) as u32);
                let val_reg = e.load(lb.data.addr_of(pb + k), (8 * len) as u32);
                via.vldx_alu_c(
                    &mut e,
                    AluOp::Add,
                    &bc[k..k + len],
                    &bv[k..k + len],
                    Dest::Sspm { offset: 0 },
                    &[col_reg, val_reg],
                );
                k += len;
            }
            e.region_end();
            // Read the merged segment out: count, indices, values. The
            // index-table and SRAM reads are batched in register-bounded
            // groups so the VIA reads pipeline ahead of the stores.
            e.region("flush");
            read_cam(&mut e, &mut via, |e, idx_reg, cols, val_reg, vals| {
                for (&c, &v) in cols.iter().zip(vals) {
                    coo.push(i, c as usize, v);
                }
                e.store(lc_col.addr_of(out_pos), (4 * cols.len()) as u32, &[idx_reg]);
                e.store(lc_val.addr_of(out_pos), (8 * cols.len()) as u32, &[val_reg]);
                out_pos += cols.len();
            });
            e.region_end();
            seg_a = end_a;
            seg_b = end_b;
        }
        let rp = e.scalar_op(AluKind::Int, &[]);
        e.store(lc_row_ptr.data.addr_of(i + 1), 8, &[rp]);
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

    fn pair(seed: u64) -> (Csr, Csr) {
        let a = gen::uniform(80, 80, 0.06, seed);
        let b = gen::perturb_structure(&a, 0.6, 0.5, seed + 1);
        (a, b)
    }

    #[test]
    fn merge_csr_matches_reference() {
        let (a, b) = pair(11);
        let run = merge_csr(&a, &b, &ctx());
        let expected = reference::spma(&a, &b).unwrap();
        assert_eq!(run.output, expected);
        assert!(run.stats.cycles > 0);
    }

    #[test]
    fn via_cam_matches_reference_values() {
        let (a, b) = pair(13);
        let run = via_cam(&a, &b, &ctx());
        let expected = reference::spma(&a, &b).unwrap();
        assert!(
            DenseMatrix::from_csr(&run.output).approx_eq(&DenseMatrix::from_csr(&expected), 1e-9)
        );
        assert!(run.sspm_events.unwrap().cam_inserts > 0);
    }

    #[test]
    fn via_cam_handles_rows_longer_than_cam() {
        // A dense-ish row far longer than the 4 KB config's 128-entry CAM.
        let small = SimContext::with_via(via_core::ViaConfig::new(4, 2));
        let mut coo_a = via_formats::Coo::new(2, 600);
        let mut coo_b = via_formats::Coo::new(2, 600);
        for c in 0..600 {
            if c % 2 == 0 {
                coo_a.push(0, c, c as f64);
            }
            if c % 3 == 0 {
                coo_b.push(0, c, 1.0);
            }
        }
        let a = Csr::from_coo(&coo_a.into_canonical());
        let b = Csr::from_coo(&coo_b.into_canonical());
        let run = via_cam(&a, &b, &small);
        let expected = reference::spma(&a, &b).unwrap();
        assert!(
            DenseMatrix::from_csr(&run.output).approx_eq(&DenseMatrix::from_csr(&expected), 1e-9)
        );
    }

    #[test]
    fn via_beats_scalar_merge() {
        let (a, b) = pair(17);
        let base = merge_csr(&a, &b, &ctx());
        let via = via_cam(&a, &b, &ctx());
        assert!(
            via.cycles() < base.cycles(),
            "VIA SpMA ({}) should beat the scalar merge ({})",
            via.cycles(),
            base.cycles()
        );
    }

    #[test]
    fn disjoint_structures_concatenate() {
        let a = Csr::from_coo(
            &via_formats::Coo::from_triplets(2, 4, [(0, 0, 1.0), (1, 2, 2.0)]).unwrap(),
        );
        let b = Csr::from_coo(
            &via_formats::Coo::from_triplets(2, 4, [(0, 3, 3.0), (1, 1, 4.0)]).unwrap(),
        );
        for run in [merge_csr(&a, &b, &ctx()), via_cam(&a, &b, &ctx())] {
            assert_eq!(run.output.nnz(), 4);
        }
    }

    #[test]
    fn empty_plus_empty_is_empty() {
        let a = Csr::zero(4, 4);
        let b = Csr::zero(4, 4);
        assert_eq!(merge_csr(&a, &b, &ctx()).output.nnz(), 0);
        assert_eq!(via_cam(&a, &b, &ctx()).output.nnz(), 0);
    }

    #[test]
    fn overlapping_values_sum() {
        let a = Csr::from_coo(&via_formats::Coo::from_triplets(1, 3, [(0, 1, 2.0)]).unwrap());
        let b = Csr::from_coo(&via_formats::Coo::from_triplets(1, 3, [(0, 1, 5.0)]).unwrap());
        for run in [merge_csr(&a, &b, &ctx()), via_cam(&a, &b, &ctx())] {
            assert_eq!(run.output.get(0, 1), Some(7.0));
            assert_eq!(run.output.nnz(), 1);
        }
    }

    #[test]
    fn emitted_streams_verify_clean() {
        use via_sim::verify;
        let _guard = verify::capture_guard();
        let (a, b) = pair(19);
        merge_csr(&a, &b, &ctx());
        via_cam(&a, &b, &ctx());
        let reports = verify::drain_captured();
        assert!(reports.len() >= 2, "one report per kernel engine");
        for r in &reports {
            assert!(r.is_clean(), "{}", r.render());
        }
    }
}
