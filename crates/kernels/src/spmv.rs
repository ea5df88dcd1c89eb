//! SpMV kernels: `y = y + A*x` (paper Algorithm 1, §VII-A).
//!
//! Baselines (one per evaluated format, §V-B):
//!
//! * [`scalar_csr`] — the plain scalar loop of Algorithm 1;
//! * [`csr_vec`] — Eigen-style vectorized CSR: per row, vector loads of
//!   `col_idx`/`data` plus an **x-gather** (the pointer-chasing cost of
//!   Figure 2);
//! * [`spc5`] — SPC5 row-block kernel: broadcast `x[col]`, mask-expand the
//!   packed values, FMA into per-block accumulators;
//! * [`sell`] — Sell-C-σ: chunk-column-major FMAs with x-gathers, padding
//!   lanes included (the ALU-utilization loss of §II-C);
//! * [`csb_software`] — Buluç-style software CSB, scalar within blocks,
//!   with `y` read-modify-written through memory (same-row chains);
//! * [`csb_software_vec`] — ablation: a vectorized software CSB that
//!   gathers `x` and **gather/modify/scatters `y`** with the loop-carried
//!   store-load forwarding dependence §II-C describes.
//!
//! VIA variants (§IV, §VII-A):
//!
//! * [`via_csb`] — Algorithm 4: the input-vector chunk lives in the SSPM,
//!   `vldxblkmult` multiply-accumulates straight into the scratchpad;
//! * [`via_csr`] / [`via_spc5`] / [`via_sell`] — the SSPM works "as an
//!   accumulator for the output vector" (the paper's description of VIA
//!   under non-blocked formats): row sums still need memory gathers for
//!   `x`, but `y` updates stay in the scratchpad.

use crate::context::{KernelRun, SimContext};
use crate::gather::{indices, Drain, Gather};
use crate::layout::{CsbLayout, CsrLayout, SellLayout, Spc5Layout, VecLayout};
use crate::readout::read_direct;
use via_core::{AluOp, Dest, ViaUnit};
use via_formats::{Csb, Csr, SellCSigma, Spc5};
use via_sim::{AluKind, Engine, Reg, VecOpKind};

/// Scalar CSR SpMV (paper Algorithm 1).
///
/// # Panics
///
/// Panics if `x.len() != a.cols()`.
pub fn scalar_csr(a: &Csr, x: &[f64], ctx: &SimContext) -> KernelRun<Vec<f64>> {
    assert_eq!(x.len(), a.cols(), "x length must equal matrix columns");
    let mut e = ctx.baseline_engine();
    let lay = CsrLayout::new(e.alloc_mut(), a);
    let xl = VecLayout::new(e.alloc_mut(), a.cols().max(1));
    let yl = VecLayout::new(e.alloc_mut(), a.rows().max(1));

    let mut y = vec![0.0; a.rows()];
    e.region("row loop");
    let mut rp = e.load(lay.row_ptr.addr_of(0), 8);
    for (i, yi) in y.iter_mut().enumerate() {
        let rp_next = e.load(lay.row_ptr.addr_of(i + 1), 8);
        // Loop bound computation.
        let bound = e.scalar_op(AluKind::Int, &[rp, rp_next]);
        // y[i] accumulator starts from memory (y += A*x).
        let mut acc_reg = e.load(yl.data.addr_of(i), 8);
        let (cols, vals) = a.row(i);
        let base = a.row_ptr()[i];
        let mut acc = 0.0;
        for (k, (&c, &v)) in cols.iter().zip(vals).enumerate() {
            let j = base + k;
            let col_reg = e.load(lay.col_idx.addr_of(j), 4);
            let val_reg = e.load(lay.data.addr_of(j), 8);
            // Pointer chasing: the x load's address depends on the column.
            let x_reg = e.load_dep(xl.data.addr_of(c as usize), 8, &[col_reg]);
            acc_reg = e.scalar_op(AluKind::FpFma, &[val_reg, x_reg, acc_reg]);
            e.scalar_op(AluKind::Int, &[bound]); // induction + branch
            acc += v * x[c as usize];
        }
        e.store(yl.data.addr_of(i), 8, &[acc_reg]);
        *yi = acc;
        rp = rp_next;
    }
    e.region_end();
    KernelRun::finish_baseline(y, e)
}

/// Vectorized CSR SpMV with x-gathers (Eigen-style; paper Figure 2).
///
/// # Panics
///
/// Panics if `x.len() != a.cols()`.
pub fn csr_vec(a: &Csr, x: &[f64], ctx: &SimContext) -> KernelRun<Vec<f64>> {
    assert_eq!(x.len(), a.cols(), "x length must equal matrix columns");
    let vl = ctx.vl();
    let mut e = ctx.baseline_engine();
    let lay = CsrLayout::new(e.alloc_mut(), a);
    let xl = VecLayout::new(e.alloc_mut(), a.cols().max(1));
    let yl = VecLayout::new(e.alloc_mut(), a.rows().max(1));

    let mut y = vec![0.0; a.rows()];
    let mut xg = Gather::with_capacity(vl);
    e.region("row loop");
    let mut rp = e.load(lay.row_ptr.addr_of(0), 8);
    for (i, yi) in y.iter_mut().enumerate() {
        let rp_next = e.load(lay.row_ptr.addr_of(i + 1), 8);
        let bound = e.scalar_op(AluKind::Int, &[rp, rp_next]);
        let (cols, vals) = a.row(i);
        let base = a.row_ptr()[i];
        let mut vacc = e.vec_op(VecOpKind::Add, &[]); // zeroed accumulator
        let mut acc = 0.0;
        let mut k = 0;
        while k < cols.len() {
            let len = vl.min(cols.len() - k);
            let j = base + k;
            let col_reg = e.load(lay.col_idx.addr_of(j), (4 * len) as u32);
            let val_reg = e.load(lay.data.addr_of(j), (8 * len) as u32);
            let x_reg = xg.load(&mut e, &xl.data, indices(&cols[k..k + len]), &[col_reg]);
            vacc = e.vec_op(VecOpKind::Fma, &[val_reg, x_reg, vacc]);
            e.scalar_op(AluKind::Int, &[bound]);
            for (&c, &v) in cols[k..k + len].iter().zip(&vals[k..k + len]) {
                acc += v * x[c as usize];
            }
            k += len;
        }
        let yold = e.load(yl.data.addr_of(i), 8);
        let sum = e.vec_op(VecOpKind::Reduce, &[vacc, yold]);
        e.store(yl.data.addr_of(i), 8, &[sum]);
        *yi = acc;
        rp = rp_next;
    }
    e.region_end();
    KernelRun::finish_baseline(y, e)
}

/// SPC5 SpMV baseline: per segment, broadcast `x[col]`, expand the packed
/// values through the row mask, FMA into the block accumulator.
///
/// # Panics
///
/// Panics if `x.len() != m.cols()`.
pub fn spc5(m: &Spc5, x: &[f64], ctx: &SimContext) -> KernelRun<Vec<f64>> {
    assert_eq!(x.len(), m.cols(), "x length must equal matrix columns");
    let mut e = ctx.baseline_engine();
    let lay = Spc5Layout::new(e.alloc_mut(), m);
    let xl = VecLayout::new(e.alloc_mut(), m.cols().max(1));
    let yl = VecLayout::new(e.alloc_mut(), m.rows().max(1));

    let y = m.spmv(x);
    let h = m.block_height();
    let mut seg_index = 0usize;
    e.region("block loop");
    for b in 0..m.num_blocks() {
        let bp = e.load(lay.block_ptr.addr_of(b), 8);
        let rows_here = h.min(m.rows() - b * h);
        // Block accumulator(s): ceil(height / vl) vector registers; we model
        // one register per vl lanes.
        let nacc = rows_here.div_ceil(ctx.vl());
        let mut vaccs: Vec<Reg> = (0..nacc).map(|_| e.vec_op(VecOpKind::Add, &[])).collect();
        for seg in m.block_segments(b) {
            let seg_reg = e.load(lay.segments.addr_of(seg_index), 8);
            seg_index += 1;
            // Broadcast x[col]: a scalar load dependent on the segment record.
            let xv = e.load_dep(xl.data.addr_of(seg.col as usize), 8, &[seg_reg]);
            let vals_reg = e.load(
                lay.data.addr_of(seg.val_offset),
                (8 * seg.len().max(1)) as u32,
            );
            // vexpand: move the mask to a k-register, then place packed
            // values into their row lanes.
            let kmask = e.scalar_op(AluKind::Int, &[seg_reg]);
            let expanded = e.vec_op(VecOpKind::Permute, &[vals_reg, kmask]);
            for vacc in vaccs.iter_mut() {
                *vacc = e.vec_op(VecOpKind::Fma, &[expanded, xv, *vacc]);
            }
            e.scalar_op(AluKind::Int, &[bp]);
        }
        // y[block rows] += acc (vector read-modify-write).
        let mut r = 0usize;
        for vacc in vaccs {
            let len = ctx.vl().min(rows_here - r);
            let yold = e.load(yl.data.addr_of(b * h + r), (8 * len) as u32);
            let ynew = e.vec_op(VecOpKind::Add, &[vacc, yold]);
            e.store(yl.data.addr_of(b * h + r), (8 * len) as u32, &[ynew]);
            r += len;
        }
    }
    e.region_end();
    KernelRun::finish_baseline(y, e)
}

/// Sell-C-σ SpMV baseline: chunk-column-major FMAs with x-gathers; padding
/// lanes execute like real lanes (the zero-padding cost of §II-C).
///
/// # Panics
///
/// Panics if `x.len() != m.cols()`.
pub fn sell(m: &SellCSigma, x: &[f64], ctx: &SimContext) -> KernelRun<Vec<f64>> {
    assert_eq!(x.len(), m.cols(), "x length must equal matrix columns");
    let mut e = ctx.baseline_engine();
    let lay = SellLayout::new(e.alloc_mut(), m);
    let xl = VecLayout::new(e.alloc_mut(), m.cols().max(1));
    let yl = VecLayout::new(e.alloc_mut(), m.rows().max(1));

    let y = m.spmv(x);
    let c = m.chunk_height();
    let mut xg = Gather::with_capacity(c);
    let mut yg = Drain::with_capacity(c);
    e.region("chunk loop");
    for k in 0..m.num_chunks() {
        let cp = e.load(lay.chunk_ptr.addr_of(k), 8);
        let cw = e.load(lay.chunk_width.addr_of(k), 8);
        let bound = e.scalar_op(AluKind::Int, &[cp, cw]);
        let mut vacc = e.vec_op(VecOpKind::Add, &[]);
        let base = m.chunk_offset(k);
        for w in 0..m.chunk_width(k) {
            let pos = base + w * c;
            let col_reg = e.load(lay.col_idx.addr_of(pos), (4 * c) as u32);
            let val_reg = e.load(lay.data.addr_of(pos), (8 * c) as u32);
            let x_reg = xg.load(
                &mut e,
                &xl.data,
                indices(&m.col_idx()[pos..pos + c]),
                &[col_reg],
            );
            vacc = e.vec_op(VecOpKind::Fma, &[val_reg, x_reg, vacc]);
            e.scalar_op(AluKind::Int, &[bound]);
        }
        // y[perm[chunk rows]] += acc: gather/add/scatter through the
        // permutation, with the gather stalled behind the previous
        // chunk's scatter drain when their line sets overlap.
        let rows_here = c.min(m.rows() - k * c);
        if rows_here > 0 {
            let perm_reg = e.load(lay.perm.addr_of(k * c), (4 * rows_here) as u32);
            let rows = indices(&m.perm()[k * c..k * c + rows_here]);
            let yold = yg.gather(&mut e, &yl.data, rows, perm_reg);
            let ynew = e.vec_op(VecOpKind::Add, &[vacc, yold]);
            yg.scatter(&mut e, &[ynew, perm_reg]);
        }
    }
    e.region_end();
    KernelRun::finish_baseline(y, e)
}

/// Software CSB SpMV baseline, scalar within blocks as in Buluç's
/// reference implementation: per element, split the merged index, load
/// `x[block_col + c]`, and read-modify-write `y[block_row + r]` through
/// memory — consecutive elements of the same row chain through the y
/// update (the partial-result store-load forwarding of §II-C). This is
/// the CSB implementation Figure 10 compares against; the paper notes
/// BBF software suffers "poor utilization of the vector ALUs".
///
/// # Panics
///
/// Panics if `x.len() != m.cols()`.
pub fn csb_software(m: &Csb, x: &[f64], ctx: &SimContext) -> KernelRun<Vec<f64>> {
    assert_eq!(x.len(), m.cols(), "x length must equal matrix columns");
    let mut e = ctx.baseline_engine();
    let lay = CsbLayout::new(e.alloc_mut(), m);
    let xl = VecLayout::new(e.alloc_mut(), m.cols().max(1));
    let yl = VecLayout::new(e.alloc_mut(), m.rows().max(1));

    let y = via_formats::reference::spmv(&m.to_csr(), x);
    let bs = m.block_size();
    let (nbr, nbc) = m.grid();
    e.region("block loop");
    for br in 0..nbr {
        // Last y-store register per row of this block row: a reload of the
        // same y element must wait for it (memory dependence).
        let mut last_store: Vec<Option<Reg>> = vec![None; bs];
        for bc in 0..nbc {
            let blk = m.block(br, bc);
            if blk.idx.is_empty() {
                continue;
            }
            let bp = e.load(lay.block_ptr.addr_of(br * nbc + bc), 8);
            let elem_base = m.block_ptr()[br * nbc + bc];
            for (k, &mi) in blk.idx.iter().enumerate() {
                let (r, c) = blk.split(mi);
                let idx_reg = e.load(lay.idx.addr_of(elem_base + k), 4);
                let split_reg = e.scalar_op(AluKind::Int, &[idx_reg]);
                let val_reg = e.load(lay.data.addr_of(elem_base + k), 8);
                let x_reg = e.load_dep(xl.data.addr_of(bc * bs + c), 8, &[split_reg]);
                let y_addr = yl.data.addr_of(br * bs + r);
                let mut deps = [split_reg, split_reg];
                let mut ndeps = 1;
                if let Some(prev) = last_store[r] {
                    deps[1] = prev;
                    ndeps = 2;
                }
                let y_old = e.load_dep(y_addr, 8, &deps[..ndeps]);
                let y_new = e.scalar_op(AluKind::FpFma, &[val_reg, x_reg, y_old]);
                e.store(y_addr, 8, &[y_new]);
                last_store[r] = Some(y_new);
                e.scalar_op(AluKind::Int, &[bp]);
            }
        }
    }
    e.region_end();
    KernelRun::finish_baseline(y, e)
}

/// Vectorized software CSB SpMV (ablation variant): split merged indices in
/// vector registers, gather `x`, then gather-modify-scatter `y` with the
/// store-load forwarding chain of §II-C. Used to quantify how much of
/// VIA's CSB gain comes from replacing indexed memory ops versus replacing
/// the scalar reference implementation.
///
/// # Panics
///
/// Panics if `x.len() != m.cols()`.
pub fn csb_software_vec(m: &Csb, x: &[f64], ctx: &SimContext) -> KernelRun<Vec<f64>> {
    assert_eq!(x.len(), m.cols(), "x length must equal matrix columns");
    let vl = ctx.vl();
    let mut e = ctx.baseline_engine();
    let lay = CsbLayout::new(e.alloc_mut(), m);
    let xl = VecLayout::new(e.alloc_mut(), m.cols().max(1));
    let yl = VecLayout::new(e.alloc_mut(), m.rows().max(1));

    let y = via_formats::reference::spmv(&m.to_csr(), x);
    let bs = m.block_size();
    let (nbr, nbc) = m.grid();
    let mut xg = Gather::with_capacity(vl);
    let mut yg = Gather::with_capacity(vl);
    let mut elem_base = 0usize;
    e.region("block loop");
    for br in 0..nbr {
        // The y-RMW chain: scatters to the same block row must order.
        let mut y_chain: Option<Reg> = None;
        for bc in 0..nbc {
            let blk = m.block(br, bc);
            if blk.idx.is_empty() {
                elem_base += blk.idx.len();
                continue;
            }
            let bp = e.load(lay.block_ptr.addr_of(br * nbc + bc), 8);
            let mut k = 0usize;
            while k < blk.idx.len() {
                let len = vl.min(blk.idx.len() - k);
                let j = elem_base + k;
                let idx_reg = e.load(lay.idx.addr_of(j), (4 * len) as u32);
                let val_reg = e.load(lay.data.addr_of(j), (8 * len) as u32);
                // Split merged indices: mask (AND) + shift.
                let col_v = e.vec_op(VecOpKind::Permute, &[idx_reg]);
                let row_v = e.vec_op(VecOpKind::Permute, &[idx_reg]);
                let idx = &blk.idx[k..k + len];
                let x_cols = idx.iter().map(|&mi| bc * bs + blk.split(mi).1);
                let x_reg = xg.load(&mut e, &xl.data, x_cols, &[col_v]);
                let prod = e.vec_op(VecOpKind::Mul, &[val_reg, x_reg]);
                let y_rows = idx.iter().map(|&mi| br * bs + blk.split(mi).0);
                let mut deps = [row_v, row_v];
                let mut ndeps = 1;
                if let Some(chain) = y_chain {
                    deps[1] = chain;
                    ndeps = 2;
                }
                let yold = yg.load(&mut e, &yl.data, y_rows, &deps[..ndeps]);
                let ynew = e.vec_op(VecOpKind::Add, &[prod, yold]);
                yg.scatter(&mut e, &[ynew, row_v]);
                y_chain = Some(ynew);
                e.scalar_op(AluKind::Int, &[bp]);
                k += len;
            }
            elem_base += blk.idx.len();
        }
    }
    e.region_end();
    KernelRun::finish_baseline(y, e)
}

/// VIA CSB SpMV (paper Algorithm 4): the input-vector chunk is loaded into
/// the SSPM once per block and `vldxblkmult` multiply-accumulates the block
/// elements into the output chunk held in the scratchpad's upper half.
///
/// # Panics
///
/// Panics if `x.len() != m.cols()` or if `2 * m.block_size()` exceeds the
/// SSPM capacity (the CSB block size must be tuned to half the scratchpad,
/// paper §V-B — use [`via_core::ViaConfig::csb_block_size`]).
pub fn via_csb(m: &Csb, x: &[f64], ctx: &SimContext) -> KernelRun<Vec<f64>> {
    via_csb_with(m, x, ctx, 8, 1)
}

/// [`via_csb`] with explicit tuning knobs — the generator's entry point.
///
/// * `flush_group` — how many SSPM reads are batched ahead of their stores
///   in the flush phase (architectural-register pressure vs. pipelining of
///   the commit-serialized VIA reads);
/// * `unroll` — element-stream unroll factor: the scalar induction op is
///   emitted once per `unroll` chunks instead of every chunk.
///
/// `via_csb_with(m, x, ctx, 8, 1)` is bit-identical to [`via_csb`].
///
/// # Panics
///
/// Panics as [`via_csb`], or if `flush_group == 0` or `unroll == 0`.
pub fn via_csb_with(
    m: &Csb,
    x: &[f64],
    ctx: &SimContext,
    flush_group: usize,
    unroll: usize,
) -> KernelRun<Vec<f64>> {
    assert_eq!(x.len(), m.cols(), "x length must equal matrix columns");
    assert!(flush_group > 0, "flush_group must be positive");
    assert!(unroll > 0, "unroll must be positive");
    let vl = ctx.vl();
    let mut e = ctx.via_engine();
    let mut via = ViaUnit::new(ctx.via);
    let bs = m.block_size();
    assert!(
        2 * bs <= ctx.via.entries(),
        "CSB block size {bs} must fit half the SSPM ({} entries)",
        ctx.via.entries()
    );
    let lay = CsbLayout::new(e.alloc_mut(), m);
    let xl = VecLayout::new(e.alloc_mut(), m.cols().max(1));
    let yl = VecLayout::new(e.alloc_mut(), m.rows().max(1));

    let mut y = vec![0.0; m.rows()];
    let offset = bs as u32;
    let idx_bits = m.idx_bits();
    let (nbr, nbc) = m.grid();
    via.vldx_clear(&mut e);
    for br in 0..nbr {
        let row_base = br * bs;
        let rows_here = bs.min(m.rows() - row_base);
        // Preload the y chunk into the SSPM upper half (y += A*x).
        e.region("y preload");
        let mut r = 0usize;
        while r < rows_here {
            let len = vl.min(rows_here - r);
            let yreg = e.load(yl.data.addr_of(row_base + r), (8 * len) as u32);
            let idx: Vec<u32> = (0..len).map(|l| offset + (r + l) as u32).collect();
            // y starts at zero in this kernel; the load models the y+=
            // traffic.
            via.vldx_load_d(&mut e, &idx, &vec![0.0; len], &[yreg]);
            r += len;
        }
        e.region_end();
        e.region("accumulate");
        for bc in 0..nbc {
            let blk = m.block(br, bc);
            if blk.idx.is_empty() {
                continue;
            }
            let col_base = bc * bs;
            let cols_here = bs.min(m.cols() - col_base);
            // Load the input-vector chunk for this block (Algorithm 4
            // lines 4-8).
            let mut c = 0usize;
            while c < cols_here {
                let len = vl.min(cols_here - c);
                let xreg = e.load(xl.data.addr_of(col_base + c), (8 * len) as u32);
                let idx: Vec<u32> = (0..len).map(|l| (c + l) as u32).collect();
                via.vldx_load_d(&mut e, &idx, &x[col_base + c..col_base + c + len], &[xreg]);
                c += len;
            }
            // Stream the block elements (Algorithm 4 lines 11-15). With
            // `unroll > 1` the loop body is unrolled: the scalar induction
            // op amortizes over `unroll` chunks.
            let elem_base = m.block_ptr()[br * nbc + bc];
            let mut k = 0usize;
            let mut chunks = 0usize;
            while k < blk.idx.len() {
                let len = vl.min(blk.idx.len() - k);
                let j = elem_base + k;
                let idx_reg = e.load(lay.idx.addr_of(j), (4 * len) as u32);
                let val_reg = e.load(lay.data.addr_of(j), (8 * len) as u32);
                via.vldx_blk_mult_d(
                    &mut e,
                    &blk.idx[k..k + len],
                    &blk.data[k..k + len],
                    idx_bits,
                    offset,
                    &[idx_reg, val_reg],
                );
                chunks += 1;
                if chunks.is_multiple_of(unroll) {
                    e.scalar_op(AluKind::Int, &[]);
                }
                k += len;
            }
            if !chunks.is_multiple_of(unroll) {
                e.scalar_op(AluKind::Int, &[]);
            }
        }
        e.region_end();
        e.region("flush");
        // Extract the finished y chunk. SSPM reads are batched in groups
        // (bounded by the architectural vector registers) so the
        // commit-serialized VIA reads pipeline; the stores drain after
        // each group.
        read_direct(
            &mut e,
            &mut via,
            offset,
            rows_here,
            flush_group,
            |e, r, reg, vals| {
                let at = row_base + r;
                y[at..at + vals.len()].copy_from_slice(vals);
                e.store(yl.data.addr_of(at), (8 * vals.len()) as u32, &[reg]);
            },
        );
        // Reset the y segment's accumulators for the next block row.
        via.vldx_clear_segment(&mut e, bs, rows_here);
        e.region_end();
    }
    let events = via.events();
    KernelRun::finish_via(y, e, events)
}

/// Shared implementation of "SSPM as output accumulator": row sums are
/// produced by `row_body` (format-specific, gathers and all), buffered
/// `vl` rows at a time, and accumulated into the SSPM with `vldxadd.d`;
/// finished segments are extracted with `vldxmov.d`.
fn accumulate_rows_via<F>(
    rows: usize,
    ctx: &SimContext,
    e: &mut Engine,
    via: &mut ViaUnit,
    yl: &VecLayout,
    flush_group: usize,
    mut row_body: F,
) -> Vec<f64>
where
    F: FnMut(&mut Engine, usize) -> (Reg, f64),
{
    let vl = ctx.vl();
    let seg_len = ctx.via.entries();
    let mut y = vec![0.0; rows];
    let mut seg_start = 0usize;
    while seg_start < rows {
        let seg_rows = seg_len.min(rows - seg_start);
        via.vldx_clear(e);
        e.region("accumulate");
        let mut buf_idx: Vec<u32> = Vec::with_capacity(vl);
        let mut buf_val: Vec<f64> = Vec::with_capacity(vl);
        let mut buf_regs: Vec<Reg> = Vec::with_capacity(vl);
        for i in seg_start..seg_start + seg_rows {
            let (sum_reg, sum) = row_body(e, i);
            // Insert the row sum into the staging vector register.
            let ins = e.vec_op(VecOpKind::Blend, &[sum_reg]);
            buf_idx.push((i - seg_start) as u32);
            buf_val.push(sum);
            buf_regs.push(ins);
            if buf_idx.len() == vl {
                via.vldx_alu_d(
                    e,
                    AluOp::Add,
                    &buf_idx,
                    &buf_val,
                    Dest::Sspm { offset: 0 },
                    &buf_regs,
                );
                buf_idx.clear();
                buf_val.clear();
                buf_regs.clear();
            }
        }
        if !buf_idx.is_empty() {
            via.vldx_alu_d(
                e,
                AluOp::Add,
                &buf_idx,
                &buf_val,
                Dest::Sspm { offset: 0 },
                &buf_regs,
            );
        }
        e.region_end();
        // Extract the segment, batching SSPM reads ahead of the stores.
        e.region("flush");
        read_direct(e, via, 0, seg_rows, flush_group, |e, r, reg, vals| {
            let at = seg_start + r;
            y[at..at + vals.len()].copy_from_slice(vals);
            e.store(yl.data.addr_of(at), (8 * vals.len()) as u32, &[reg]);
        });
        e.region_end();
        seg_start += seg_rows;
    }
    y
}

/// VIA CSR SpMV: gathers for `x` remain, but the SSPM accumulates `y`
/// (the paper's "accumulator for the output vector" mode).
///
/// # Panics
///
/// Panics if `x.len() != a.cols()`.
pub fn via_csr(a: &Csr, x: &[f64], ctx: &SimContext) -> KernelRun<Vec<f64>> {
    via_csr_with(a, x, ctx, 8)
}

/// [`via_csr`] with an explicit `flush_group` knob (see [`via_csb_with`]);
/// `via_csr_with(a, x, ctx, 8)` is bit-identical to [`via_csr`].
///
/// # Panics
///
/// Panics as [`via_csr`], or if `flush_group == 0`.
pub fn via_csr_with(
    a: &Csr,
    x: &[f64],
    ctx: &SimContext,
    flush_group: usize,
) -> KernelRun<Vec<f64>> {
    assert_eq!(x.len(), a.cols(), "x length must equal matrix columns");
    assert!(flush_group > 0, "flush_group must be positive");
    let vl = ctx.vl();
    let mut e = ctx.via_engine();
    let mut via = ViaUnit::new(ctx.via);
    let lay = CsrLayout::new(e.alloc_mut(), a);
    let xl = VecLayout::new(e.alloc_mut(), a.cols().max(1));
    let yl = VecLayout::new(e.alloc_mut(), a.rows().max(1));

    let mut xg = Gather::with_capacity(vl);
    let y = accumulate_rows_via(a.rows(), ctx, &mut e, &mut via, &yl, flush_group, |e, i| {
        let (cols, vals) = a.row(i);
        let base = a.row_ptr()[i];
        let mut vacc = e.vec_op(VecOpKind::Add, &[]);
        let mut acc = 0.0;
        let mut k = 0usize;
        while k < cols.len() {
            let len = vl.min(cols.len() - k);
            let j = base + k;
            let col_reg = e.load(lay.col_idx.addr_of(j), (4 * len) as u32);
            let val_reg = e.load(lay.data.addr_of(j), (8 * len) as u32);
            let x_reg = xg.load(e, &xl.data, indices(&cols[k..k + len]), &[col_reg]);
            vacc = e.vec_op(VecOpKind::Fma, &[val_reg, x_reg, vacc]);
            e.scalar_op(AluKind::Int, &[]);
            for (&c, &v) in cols[k..k + len].iter().zip(&vals[k..k + len]) {
                acc += v * x[c as usize];
            }
            k += len;
        }
        let sum = e.vec_op(VecOpKind::Reduce, &[vacc]);
        (sum, acc)
    });
    let events = via.events();
    KernelRun::finish_via(y, e, events)
}

/// VIA SPC5 SpMV: segment processing as in [`spc5`], block results
/// accumulated into the SSPM.
///
/// # Panics
///
/// Panics if `x.len() != m.cols()`.
pub fn via_spc5(m: &Spc5, x: &[f64], ctx: &SimContext) -> KernelRun<Vec<f64>> {
    assert_eq!(x.len(), m.cols(), "x length must equal matrix columns");
    let vl = ctx.vl();
    let mut e = ctx.via_engine();
    let mut via = ViaUnit::new(ctx.via);
    let lay = Spc5Layout::new(e.alloc_mut(), m);
    let xl = VecLayout::new(e.alloc_mut(), m.cols().max(1));
    let yl = VecLayout::new(e.alloc_mut(), m.rows().max(1));

    let h = m.block_height();
    let seg_len = ctx.via.entries();
    let y_full = m.spmv(x);
    let mut y = vec![0.0; m.rows()];
    let mut seg_start = 0usize;
    let mut seg_index = 0usize;
    while seg_start < m.rows() {
        let seg_rows = seg_len.min(m.rows() - seg_start);
        via.vldx_clear(&mut e);
        e.region("accumulate");
        let first_block = seg_start / h;
        let last_block = (seg_start + seg_rows).div_ceil(h).min(m.num_blocks());
        for b in first_block..last_block {
            let bp = e.load(lay.block_ptr.addr_of(b), 8);
            let rows_here = h.min(m.rows() - b * h);
            let nacc = rows_here.div_ceil(vl);
            let mut vaccs: Vec<Reg> = (0..nacc).map(|_| e.vec_op(VecOpKind::Add, &[])).collect();
            let mut sums = vec![0.0; rows_here];
            for seg in m.block_segments(b) {
                let seg_reg = e.load(lay.segments.addr_of(seg_index), 8);
                seg_index += 1;
                let xv = e.load_dep(xl.data.addr_of(seg.col as usize), 8, &[seg_reg]);
                let vals_reg = e.load(
                    lay.data.addr_of(seg.val_offset),
                    (8 * seg.len().max(1)) as u32,
                );
                let kmask = e.scalar_op(AluKind::Int, &[seg_reg]);
                let expanded = e.vec_op(VecOpKind::Permute, &[vals_reg, kmask]);
                for vacc in vaccs.iter_mut() {
                    *vacc = e.vec_op(VecOpKind::Fma, &[expanded, xv, *vacc]);
                }
                e.scalar_op(AluKind::Int, &[bp]);
                let mut off = seg.val_offset;
                for (lane, sum) in sums.iter_mut().enumerate().take(rows_here) {
                    if seg.mask & (1 << lane) != 0 {
                        *sum += m.data()[off] * x[seg.col as usize];
                        off += 1;
                    }
                }
            }
            // Accumulate the block's rows into the SSPM.
            let mut r = 0usize;
            for vacc in vaccs {
                let len = vl.min(rows_here - r);
                let idx: Vec<u32> = (0..len)
                    .map(|l| (b * h + r + l - seg_start) as u32)
                    .collect();
                via.vldx_alu_d(
                    &mut e,
                    AluOp::Add,
                    &idx,
                    &sums[r..r + len],
                    Dest::Sspm { offset: 0 },
                    &[vacc],
                );
                r += len;
            }
        }
        e.region_end();
        // Extract, batching SSPM reads ahead of the stores.
        e.region("flush");
        read_direct(&mut e, &mut via, 0, seg_rows, 8, |e, r, reg, vals| {
            let at = seg_start + r;
            y[at..at + vals.len()].copy_from_slice(vals);
            e.store(yl.data.addr_of(at), (8 * vals.len()) as u32, &[reg]);
        });
        e.region_end();
        seg_start += seg_rows;
    }
    debug_assert!(via_formats::vec_approx_eq(&y, &y_full, 1e-9));
    let events = via.events();
    KernelRun::finish_via(y, e, events)
}

/// VIA Sell-C-σ SpMV: chunk FMAs as in [`sell`], accumulation into the SSPM
/// at packed-row positions instead of the gather/scatter y-update.
///
/// # Panics
///
/// Panics if `x.len() != m.cols()`.
pub fn via_sell(m: &SellCSigma, x: &[f64], ctx: &SimContext) -> KernelRun<Vec<f64>> {
    assert_eq!(x.len(), m.cols(), "x length must equal matrix columns");
    let c = m.chunk_height();
    let mut e = ctx.via_engine();
    let mut via = ViaUnit::new(ctx.via);
    let lay = SellLayout::new(e.alloc_mut(), m);
    let xl = VecLayout::new(e.alloc_mut(), m.cols().max(1));
    let yl = VecLayout::new(e.alloc_mut(), m.rows().max(1));

    let seg_len = ctx.via.entries();
    let mut y = vec![0.0; m.rows()];
    let mut xg = Gather::with_capacity(c);
    let mut yg = Gather::with_capacity(ctx.vl());
    let mut idx = Vec::with_capacity(c);
    let mut sums = Vec::with_capacity(c);
    let mut seg_start = 0usize; // in packed-row space
    while seg_start < m.rows() {
        let seg_rows = seg_len.min(m.rows() - seg_start);
        via.vldx_clear(&mut e);
        e.region("accumulate");
        let first_chunk = seg_start / c;
        let last_chunk = (seg_start + seg_rows).div_ceil(c).min(m.num_chunks());
        for k in first_chunk..last_chunk {
            let cp = e.load(lay.chunk_ptr.addr_of(k), 8);
            let cw = e.load(lay.chunk_width.addr_of(k), 8);
            let bound = e.scalar_op(AluKind::Int, &[cp, cw]);
            let mut vacc = e.vec_op(VecOpKind::Add, &[]);
            let base = m.chunk_offset(k);
            let rows_here = c.min(m.rows() - k * c);
            sums.clear();
            sums.resize(rows_here, 0.0);
            for w in 0..m.chunk_width(k) {
                let pos = base + w * c;
                let col_reg = e.load(lay.col_idx.addr_of(pos), (4 * c) as u32);
                let val_reg = e.load(lay.data.addr_of(pos), (8 * c) as u32);
                let x_reg = xg.load(
                    &mut e,
                    &xl.data,
                    indices(&m.col_idx()[pos..pos + c]),
                    &[col_reg],
                );
                vacc = e.vec_op(VecOpKind::Fma, &[val_reg, x_reg, vacc]);
                e.scalar_op(AluKind::Int, &[bound]);
                for lane in 0..rows_here {
                    sums[lane] += m.data()[pos + lane] * x[m.col_idx()[pos + lane] as usize];
                }
            }
            // Accumulate at packed-row positions in the SSPM.
            idx.clear();
            idx.extend((0..rows_here).map(|lane| (k * c + lane - seg_start) as u32));
            via.vldx_alu_d(
                &mut e,
                AluOp::Add,
                &idx,
                &sums,
                Dest::Sspm { offset: 0 },
                &[vacc],
            );
        }
        e.region_end();
        // Extract: batched SSPM reads of packed rows, then scatters to
        // y[perm[...]].
        e.region("flush");
        read_direct(&mut e, &mut via, 0, seg_rows, 8, |e, r, reg, vals| {
            let rows = &m.perm()[seg_start + r..][..vals.len()];
            for (&row, &v) in rows.iter().zip(vals) {
                y[row as usize] = v;
            }
            yg.store(e, &yl.data, indices(rows), &[reg]);
        });
        e.region_end();
        seg_start += seg_rows;
    }
    let events = via.events();
    KernelRun::finish_via(y, e, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use via_formats::gen;
    use via_formats::reference;

    fn ctx() -> SimContext {
        SimContext::default()
    }

    fn small_ctx() -> SimContext {
        // A small SSPM (4 KB) exercises the segmentation paths.
        SimContext::with_via(via_core::ViaConfig::new(4, 2))
    }

    fn test_matrix() -> Csr {
        gen::uniform(96, 96, 0.08, 42)
    }

    fn xvec(n: usize) -> Vec<f64> {
        gen::dense_vector(n, 7)
    }

    #[test]
    fn scalar_csr_matches_reference() {
        let a = test_matrix();
        let x = xvec(a.cols());
        let run = scalar_csr(&a, &x, &ctx());
        assert!(via_formats::vec_approx_eq(
            &run.output,
            &reference::spmv(&a, &x),
            1e-9
        ));
        assert!(run.stats.cycles > 0);
    }

    #[test]
    fn csr_vec_matches_reference_and_gathers() {
        let a = test_matrix();
        let x = xvec(a.cols());
        let run = csr_vec(&a, &x, &ctx());
        assert!(via_formats::vec_approx_eq(
            &run.output,
            &reference::spmv(&a, &x),
            1e-9
        ));
        assert!(run.stats.gathers > 0, "vectorized CSR must gather x");
    }

    #[test]
    fn spc5_matches_reference() {
        let a = test_matrix();
        let x = xvec(a.cols());
        let m = Spc5::from_csr(&a, 4).unwrap();
        let run = spc5(&m, &x, &ctx());
        assert!(via_formats::vec_approx_eq(
            &run.output,
            &reference::spmv(&a, &x),
            1e-9
        ));
    }

    #[test]
    fn sell_matches_reference() {
        let a = test_matrix();
        let x = xvec(a.cols());
        let m = SellCSigma::from_csr(&a, 4, 16).unwrap();
        let run = sell(&m, &x, &ctx());
        assert!(via_formats::vec_approx_eq(
            &run.output,
            &reference::spmv(&a, &x),
            1e-9
        ));
    }

    #[test]
    fn csb_software_matches_reference() {
        let a = test_matrix();
        let x = xvec(a.cols());
        let m = Csb::from_csr(&a, 32).unwrap();
        let run = csb_software(&m, &x, &ctx());
        assert!(via_formats::vec_approx_eq(
            &run.output,
            &reference::spmv(&a, &x),
            1e-9
        ));
    }

    #[test]
    fn via_csb_matches_reference() {
        let a = test_matrix();
        let x = xvec(a.cols());
        for c in [ctx(), small_ctx()] {
            let bs = c.via.csb_block_size().min(64);
            let m = Csb::from_csr(&a, bs).unwrap();
            let run = via_csb(&m, &x, &c);
            assert!(
                via_formats::vec_approx_eq(&run.output, &reference::spmv(&a, &x), 1e-9),
                "via_csb wrong for {}",
                c.via.name()
            );
            assert!(run.sspm_events.is_some());
            assert!(run.stats.custom_ops > 0);
            assert_eq!(run.stats.gathers, 0, "VIA CSB must not gather");
        }
    }

    #[test]
    fn via_csr_matches_reference() {
        let a = test_matrix();
        let x = xvec(a.cols());
        for c in [ctx(), small_ctx()] {
            let run = via_csr(&a, &x, &c);
            assert!(via_formats::vec_approx_eq(
                &run.output,
                &reference::spmv(&a, &x),
                1e-9
            ));
        }
    }

    #[test]
    fn via_spc5_matches_reference() {
        let a = test_matrix();
        let x = xvec(a.cols());
        let m = Spc5::from_csr(&a, 4).unwrap();
        for c in [ctx(), small_ctx()] {
            let run = via_spc5(&m, &x, &c);
            assert!(via_formats::vec_approx_eq(
                &run.output,
                &reference::spmv(&a, &x),
                1e-9
            ));
        }
    }

    #[test]
    fn via_sell_matches_reference() {
        let a = test_matrix();
        let x = xvec(a.cols());
        let m = SellCSigma::from_csr(&a, 4, 16).unwrap();
        for c in [ctx(), small_ctx()] {
            let run = via_sell(&m, &x, &c);
            assert!(via_formats::vec_approx_eq(
                &run.output,
                &reference::spmv(&a, &x),
                1e-9
            ));
        }
    }

    #[test]
    fn via_csb_beats_software_csb_on_blocked_matrix() {
        // The paper's headline case: clustered matrices + CSB.
        let a = gen::blocked(256, 16, 24, 0.5, 3);
        let x = xvec(a.cols());
        let c = ctx();
        let bs = c.via.csb_block_size().min(128);
        let m = Csb::from_csr(&a, bs).unwrap();
        let soft = csb_software(&m, &x, &c);
        let via = via_csb(&m, &x, &c);
        assert!(
            via.cycles() < soft.cycles(),
            "VIA ({}) should beat software CSB ({})",
            via.cycles(),
            soft.cycles()
        );
    }

    #[test]
    fn vectorized_csr_beats_scalar() {
        let a = test_matrix();
        let x = xvec(a.cols());
        let s = scalar_csr(&a, &x, &ctx());
        let v = csr_vec(&a, &x, &ctx());
        assert!(v.cycles() < s.cycles());
    }

    #[test]
    fn empty_matrix_runs() {
        let a = Csr::zero(8, 8);
        let x = vec![0.0; 8];
        let run = scalar_csr(&a, &x, &ctx());
        assert_eq!(run.output, vec![0.0; 8]);
        let run = via_csr(&a, &x, &ctx());
        assert_eq!(run.output, vec![0.0; 8]);
    }

    #[test]
    fn single_element_matrix() {
        let a = Csr::from_coo(&via_formats::Coo::from_triplets(1, 1, [(0, 0, 2.0)]).unwrap());
        let x = vec![3.0];
        for run in [
            scalar_csr(&a, &x, &ctx()),
            csr_vec(&a, &x, &ctx()),
            via_csr(&a, &x, &ctx()),
        ] {
            assert_eq!(run.output, vec![6.0]);
        }
    }

    #[test]
    fn emitted_streams_verify_clean() {
        use via_sim::verify;
        // Capture every engine's via-verify report instead of panicking, so
        // this asserts cleanliness in release builds too.
        let _guard = verify::capture_guard();
        let a = test_matrix();
        let x = xvec(a.cols());
        scalar_csr(&a, &x, &ctx());
        csr_vec(&a, &x, &ctx());
        spc5(&Spc5::from_csr(&a, 4).unwrap(), &x, &ctx());
        sell(&SellCSigma::from_csr(&a, 4, 16).unwrap(), &x, &ctx());
        let m = Csb::from_csr(&a, 32).unwrap();
        csb_software(&m, &x, &ctx());
        csb_software_vec(&m, &x, &ctx());
        via_csb(&m, &x, &ctx());
        via_csr(&a, &x, &ctx());
        via_spc5(&Spc5::from_csr(&a, 4).unwrap(), &x, &ctx());
        via_sell(&SellCSigma::from_csr(&a, 4, 16).unwrap(), &x, &ctx());
        let reports = verify::drain_captured();
        assert!(reports.len() >= 10, "one report per kernel engine");
        for r in &reports {
            assert!(r.is_clean(), "{}", r.render());
        }
    }
}
