//! SpMSpV: sparse-matrix × sparse-vector, `y = A * x` with both `A` and
//! `x` sparse — the workhorse of frontier-based graph algorithms (BFS,
//! SSSP) and the paper's conclusion claim that VIA "is applicable to other
//! application domains such as graph computing".
//!
//! This kernel is an *extension beyond the paper's evaluation*: it
//! exercises the CAM merge machinery (`vldxadd.c` with SSPM destination)
//! on the accumulation pattern graph frameworks call the "sparse
//! accumulator problem".
//!
//! * [`spa_dense`] — the baseline: column-driven accumulation into a dense
//!   workspace with occupancy flags (what GraphBLAS implementations do on
//!   CPUs), then compaction of the touched entries.
//! * [`via_cam`] — the VIA kernel: each active column's entries merge into
//!   the CAM index table; the result frontier reads out with
//!   `vldxcount`/`vldxloadidx`/`vldxmov.d`. Output frontiers larger than
//!   the CAM are handled by row-range segmentation.

use crate::context::{KernelRun, SimContext};
use crate::readout::read_cam;
use crate::spmm::Spa;
use via_core::{AluOp, Dest, ViaUnit};
use via_formats::{Csc, Index, Value};
use via_sim::AluKind;

/// A sparse vector as parallel index/value arrays (indices strictly
/// increasing).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseVector {
    /// Element indices, strictly increasing.
    pub indices: Vec<Index>,
    /// Element values, aligned with `indices`.
    pub values: Vec<Value>,
}

impl SparseVector {
    /// Builds a sparse vector from `(index, value)` pairs (sorted and
    /// deduplicated by summing).
    pub fn from_pairs(pairs: impl IntoIterator<Item = (usize, Value)>) -> Self {
        let mut v: Vec<(usize, Value)> = pairs.into_iter().collect();
        v.sort_by_key(|&(i, _)| i);
        let mut out = SparseVector::default();
        for (i, val) in v {
            if out.indices.last() == Some(&(i as Index)) {
                *out.values.last_mut().expect("parallel arrays") += val;
            } else {
                out.indices.push(i as Index);
                out.values.push(val);
            }
        }
        out
    }

    /// Number of stored elements.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }
}

/// Golden model: `y = A * x` with sparse `x`.
///
/// # Panics
///
/// Panics if any index of `x` is out of bounds for `a`'s columns.
pub fn reference(a: &Csc, x: &SparseVector) -> SparseVector {
    let mut acc: std::collections::BTreeMap<Index, Value> = std::collections::BTreeMap::new();
    for (&j, &xv) in x.indices.iter().zip(&x.values) {
        let (rows, vals) = a.col(j as usize);
        for (&i, &av) in rows.iter().zip(vals) {
            *acc.entry(i).or_insert(0.0) += av * xv;
        }
    }
    SparseVector {
        indices: acc.keys().copied().collect(),
        values: acc.values().copied().collect(),
    }
}

/// Byte layout of a CSC matrix plus a sparse vector.
struct Layout {
    col_ptr: via_sim::Region,
    row_idx: via_sim::Region,
    data: via_sim::Region,
    x_idx: via_sim::Region,
    x_val: via_sim::Region,
    y_idx: via_sim::Region,
    y_val: via_sim::Region,
}

fn layout(e: &mut via_sim::Engine, a: &Csc, x: &SparseVector) -> Layout {
    let alloc = e.alloc_mut();
    Layout {
        col_ptr: alloc.alloc_u64(a.cols() + 1),
        row_idx: alloc.alloc_u32(a.nnz().max(1)),
        data: alloc.alloc_f64(a.nnz().max(1)),
        x_idx: alloc.alloc_u32(x.nnz().max(1)),
        x_val: alloc.alloc_f64(x.nnz().max(1)),
        y_idx: alloc.alloc_u32(a.rows().max(1)),
        y_val: alloc.alloc_f64(a.rows().max(1)),
    }
}

/// Dense-workspace SPA baseline (column-driven scatter-accumulate with
/// occupancy flags, then compaction) — the standard CPU organization.
///
/// # Panics
///
/// Panics if any `x` index exceeds `a.cols()`.
pub fn spa_dense(a: &Csc, x: &SparseVector, ctx: &SimContext) -> KernelRun<SparseVector> {
    let mut e = ctx.baseline_engine();
    let lay = layout(&mut e, a, x);
    let mut spa = Spa::new(&mut e, a.rows());
    let out = reference(a, x);
    e.region("spa update");
    for (t, (&j, _)) in x.indices.iter().zip(&x.values).enumerate() {
        assert!((j as usize) < a.cols(), "x index {j} out of bounds");
        let xi = e.load(lay.x_idx.addr_of(t), 4);
        let xv = e.load(lay.x_val.addr_of(t), 8);
        let cp = e.load(lay.col_ptr.addr_of(j as usize + 1), 8);
        e.scalar_op(AluKind::Int, &[xi, cp]);
        let pb = a.col_ptr()[j as usize];
        for (q, &i) in a.col(j as usize).0.iter().enumerate() {
            let ri = e.load(lay.row_idx.addr_of(pb + q), 4);
            let av = e.load(lay.data.addr_of(pb + q), 8);
            spa.update(&mut e, i, ri, av, xv);
        }
    }
    e.region_end();
    // No flag reset: this kernel runs once per stream, so clearing the
    // occupancy flags after their last (only) use would be dead stores
    // (the analyzer's VIA102).
    e.region("compact");
    spa.compact(&mut e, &lay.y_idx, &lay.y_val, false);
    e.region_end();
    KernelRun::finish_baseline(out, e)
}

/// VIA CAM SpMSpV: active columns' entries merge into the CAM
/// (`vldxadd.c` → SSPM), the result frontier reads out in insertion order
/// and is canonicalized in software. Row-range segmentation bounds the
/// live accumulator set by the CAM capacity.
///
/// # Panics
///
/// Panics if any `x` index exceeds `a.cols()`.
pub fn via_cam(a: &Csc, x: &SparseVector, ctx: &SimContext) -> KernelRun<SparseVector> {
    let vl = ctx.vl();
    let cam_cap = ctx.via.cam_entries();
    let mut e = ctx.via_engine();
    let mut via = ViaUnit::new(ctx.via);
    let lay = layout(&mut e, a, x);

    let out = reference(a, x);
    let mut pairs: Vec<(usize, Value)> = Vec::new();
    let mut out_pos = 0usize;
    // Row-range segments: within each range, the number of distinct rows
    // (upper-bounded by the range width) fits the CAM.
    let mut range_lo = 0usize;
    while range_lo < a.rows() {
        let range_hi = (range_lo + cam_cap).min(a.rows());
        via.vldx_clear(&mut e);
        e.region("cam merge");
        let mut any = false;
        for (t, (&j, &xv)) in x.indices.iter().zip(&x.values).enumerate() {
            assert!((j as usize) < a.cols(), "x index {j} out of bounds");
            let (rows, vals) = a.col(j as usize);
            let pb = a.col_ptr()[j as usize];
            // The slice of this column within the row range.
            let lo = rows.partition_point(|&r| (r as usize) < range_lo);
            let hi = rows.partition_point(|&r| (r as usize) < range_hi);
            if lo == hi {
                continue;
            }
            any = true;
            let xi = e.load(lay.x_idx.addr_of(t), 4);
            let xv_reg = e.load(lay.x_val.addr_of(t), 8);
            let mut k = lo;
            while k < hi {
                let len = vl.min(hi - k);
                let ri = e.load(lay.row_idx.addr_of(pb + k), (4 * len) as u32);
                let av = e.load(lay.data.addr_of(pb + k), (8 * len) as u32);
                // products = A[:, j] * x_j in the VFU...
                let prod = e.vec_op(via_sim::VecOpKind::Mul, &[av, xv_reg]);
                // ...merged into the CAM accumulator (vldxadd.c → SSPM).
                let idx: Vec<u32> = rows[k..k + len]
                    .iter()
                    .map(|&r| r - range_lo as u32)
                    .collect();
                let data: Vec<f64> = vals[k..k + len].iter().map(|&v| v * xv).collect();
                via.vldx_alu_c(
                    &mut e,
                    AluOp::Add,
                    &idx,
                    &data,
                    Dest::Sspm { offset: 0 },
                    &[ri, prod, xi],
                );
                k += len;
            }
        }
        e.region_end();
        if any {
            // Read the merged frontier segment out.
            e.region("flush");
            read_cam(&mut e, &mut via, |e, idx_reg, idxs, val_reg, vals| {
                for (&i, &v) in idxs.iter().zip(vals) {
                    pairs.push((range_lo + i as usize, v));
                }
                let n = idxs.len();
                e.store(lay.y_idx.addr_of(out_pos), (4 * n) as u32, &[idx_reg]);
                e.store(lay.y_val.addr_of(out_pos), (8 * n) as u32, &[val_reg]);
                out_pos += n;
            });
            e.region_end();
        }
        range_lo = range_hi;
    }
    let computed = SparseVector::from_pairs(pairs);
    debug_assert_eq!(computed.indices, out.indices);
    let events = via.events();
    KernelRun::finish_via(computed, e, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use via_formats::gen;

    fn ctx() -> SimContext {
        SimContext::default()
    }

    fn graph(n: usize, seed: u64) -> Csc {
        gen::rmat(n, n * 6, seed).to_csc()
    }

    fn frontier(n: usize, k: usize, seed: u64) -> SparseVector {
        SparseVector::from_pairs((0..k).map(|i| {
            let idx = ((i as u64 * 2654435761 + seed) % n as u64) as usize;
            (idx, 1.0)
        }))
    }

    #[test]
    fn sparse_vector_from_pairs_sorts_and_sums() {
        let v = SparseVector::from_pairs([(5, 1.0), (2, 2.0), (5, 3.0)]);
        assert_eq!(v.indices, vec![2, 5]);
        assert_eq!(v.values, vec![2.0, 4.0]);
        assert_eq!(v.nnz(), 2);
    }

    #[test]
    fn spa_dense_matches_reference() {
        let a = graph(200, 1);
        let x = frontier(200, 12, 2);
        let run = spa_dense(&a, &x, &ctx());
        assert_eq!(run.output, reference(&a, &x));
    }

    #[test]
    fn via_cam_matches_reference() {
        let a = graph(200, 3);
        let x = frontier(200, 12, 4);
        let run = via_cam(&a, &x, &ctx());
        assert_eq!(run.output, reference(&a, &x));
        assert!(run.sspm_events.unwrap().cam_searches > 0);
    }

    #[test]
    fn via_cam_segments_when_frontier_exceeds_cam() {
        // 4 KB config: 128 CAM entries; a hub-heavy graph easily produces
        // larger output frontiers.
        let small = SimContext::with_via(via_core::ViaConfig::new(4, 2));
        let a = graph(600, 5);
        let x = frontier(600, 40, 6);
        let run = via_cam(&a, &x, &small);
        assert_eq!(run.output, reference(&a, &x));
    }

    #[test]
    fn empty_frontier_gives_empty_result() {
        let a = graph(64, 7);
        let x = SparseVector::default();
        assert!(spa_dense(&a, &x, &ctx()).output.is_empty());
        assert!(via_cam(&a, &x, &ctx()).output.is_empty());
    }

    #[test]
    fn via_beats_spa_on_hub_frontiers() {
        let a = graph(512, 9);
        let x = frontier(512, 48, 10);
        let base = spa_dense(&a, &x, &ctx());
        let via = via_cam(&a, &x, &ctx());
        assert!(
            via.cycles() < base.cycles(),
            "VIA SpMSpV ({}) should beat the SPA baseline ({})",
            via.cycles(),
            base.cycles()
        );
    }

    #[test]
    fn emitted_streams_verify_clean() {
        use via_sim::verify;
        let _guard = verify::capture_guard();
        let a = graph(200, 31);
        let x = frontier(200, 12, 32);
        spa_dense(&a, &x, &ctx());
        via_cam(&a, &x, &ctx());
        let reports = verify::drain_captured();
        assert!(reports.len() >= 2, "one report per kernel engine");
        for r in &reports {
            assert!(r.is_clean(), "{}", r.render());
        }
    }
}
