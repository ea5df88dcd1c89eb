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

use std::ops::Range;

use crate::context::{KernelRun, SimContext};
use crate::gather::{indices, Drain, Gather};
use crate::layout::{CsbLayout, CsrLayout, SellLayout, Spc5Layout, VecLayout};
use crate::readout::{copy_and_store, read_direct, stage_direct};
use via_core::{AluOp, Dest, SsrStreams, ViaUnit};
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
    csr_row_loop(a, x, ctx.baseline_engine(), None)
}

/// The row loop of [`csr_vec`] and [`crate::ssr::spmv_csr`] on `e`: per
/// row, the bound from `row_ptr`, the row's chunks, then `y[i] += sum`
/// through memory. The chunks advance by induction ops behind the bound,
/// or, given `ssr`, behind one stream configuration per row.
pub(crate) fn csr_row_loop(
    a: &Csr,
    x: &[f64],
    mut e: Engine,
    mut ssr: Option<SsrStreams>,
) -> KernelRun<Vec<f64>> {
    let mut rows = CsrRows::new(&mut e, a, x);
    let yl = VecLayout::new(e.alloc_mut(), a.rows().max(1));
    let mut y = vec![0.0; a.rows()];
    e.region("row loop");
    let mut rp = e.load(rows.lay.row_ptr.addr_of(0), 8);
    for (i, yi) in y.iter_mut().enumerate() {
        let rp_next = e.load(rows.lay.row_ptr.addr_of(i + 1), 8);
        let bound = e.scalar_op(AluKind::Int, &[rp, rp_next]);
        let advance = match &mut ssr {
            // One setup for the row's three streams (column indices,
            // values, x): same traffic as the loads, no induction ops.
            Some(ssr) => Advance::Streams(ssr.configure(&mut e, &[bound])),
            None => Advance::Induction(Some(bound)),
        };
        let (vacc, sum) = rows.row(&mut e, i, advance);
        let yold = e.load(yl.data.addr_of(i), 8);
        let ynew = e.vec_op(VecOpKind::Reduce, &[vacc, yold]);
        e.store(yl.data.addr_of(i), 8, &[ynew]);
        *yi = sum;
        rp = rp_next;
    }
    e.region_end();
    KernelRun::finish_baseline(y, e)
}

/// How a vectorized CSR row advances from one chunk to the next.
#[derive(Clone, Copy)]
enum Advance {
    /// One scalar induction op per chunk, behind the row bound if given.
    Induction(Option<Reg>),
    /// SSR streams: the chunk loads wait on the live stream configuration
    /// and no induction op is needed.
    Streams(Reg),
}

/// A CSR matrix and `x` placed in an engine's memory, with the gather
/// buffer their vectorized row chunks reuse.
struct CsrRows<'a> {
    a: &'a Csr,
    x: &'a [f64],
    lay: CsrLayout,
    xl: VecLayout,
    xg: Gather,
    vl: usize,
}

impl<'a> CsrRows<'a> {
    /// Places `a`, then `x`.
    fn new(e: &mut Engine, a: &'a Csr, x: &'a [f64]) -> Self {
        let vl = e.core_config().vl as usize;
        CsrRows {
            a,
            x,
            lay: CsrLayout::new(e.alloc_mut(), a),
            xl: VecLayout::new(e.alloc_mut(), a.cols().max(1)),
            xg: Gather::with_capacity(vl),
            vl,
        }
    }

    /// Row `i` in chunks of `vl` non-zeros: per chunk, vector loads of the
    /// column indices and values, an x-gather and an FMA into the row's
    /// zeroed accumulator. Returns the accumulator and the row's sum.
    #[inline(always)]
    fn row(&mut self, e: &mut Engine, i: usize, advance: Advance) -> (Reg, f64) {
        let (cols, vals) = self.a.row(i);
        let base = self.a.row_ptr()[i];
        let live = match &advance {
            Advance::Streams(live) => std::slice::from_ref(live),
            Advance::Induction(_) => &[],
        };
        let mut vacc = e.vec_op(VecOpKind::Add, &[]); // zeroed accumulator
        let mut sum = 0.0;
        for k in (0..cols.len()).step_by(self.vl) {
            let len = self.vl.min(cols.len() - k);
            let j = base + k;
            let col_reg = e.load_dep(self.lay.col_idx.addr_of(j), (4 * len) as u32, live);
            let val_reg = e.load_dep(self.lay.data.addr_of(j), (8 * len) as u32, live);
            let xs = indices(&cols[k..k + len]);
            let x_reg = self.xg.load(e, &self.xl.data, xs, &[col_reg]);
            vacc = e.vec_op(VecOpKind::Fma, &[val_reg, x_reg, vacc]);
            if let Advance::Induction(bound) = advance {
                e.scalar_op(AluKind::Int, bound.as_slice());
            }
            for (&c, &v) in cols[k..k + len].iter().zip(&vals[k..k + len]) {
                sum += v * self.x[c as usize];
            }
        }
        (vacc, sum)
    }
}

/// SPC5 SpMV baseline: per segment, broadcast `x[col]`, expand the packed
/// values through the row mask, FMA into the block accumulator.
///
/// # Panics
///
/// Panics if `x.len() != m.cols()`.
pub fn spc5(m: &Spc5, x: &[f64], ctx: &SimContext) -> KernelRun<Vec<f64>> {
    assert_eq!(x.len(), m.cols(), "x length must equal matrix columns");
    let (vl, h) = (ctx.vl(), m.block_height());
    let mut e = ctx.baseline_engine();
    let mut blocks = Spc5Blocks::new(&mut e, m, x);
    let yl = VecLayout::new(e.alloc_mut(), m.rows().max(1));

    let mut y = vec![0.0; m.rows()];
    e.region("block loop");
    for b in 0..m.num_blocks() {
        blocks.block(&mut e, b);
        // y[block rows] += acc (vector read-modify-write).
        for (r, (sums, &vacc)) in blocks.sums.chunks(vl).zip(&blocks.vaccs).enumerate() {
            let at = yl.data.addr_of(b * h + r * vl);
            let yold = e.load(at, (8 * sums.len()) as u32);
            let ynew = e.vec_op(VecOpKind::Add, &[vacc, yold]);
            e.store(at, (8 * sums.len()) as u32, &[ynew]);
        }
        y[b * h..][..blocks.sums.len()].copy_from_slice(&blocks.sums);
    }
    e.region_end();
    KernelRun::finish_baseline(y, e)
}

/// An SPC5 matrix and `x` placed in an engine's memory, with the block
/// accumulators and row sums of its block loop.
struct Spc5Blocks<'a> {
    m: &'a Spc5,
    x: &'a [f64],
    lay: Spc5Layout,
    xl: VecLayout,
    vl: usize,
    /// The next segment record (blocks run in order).
    next_seg: usize,
    /// The block's accumulators, one per `vl` rows.
    vaccs: Vec<Reg>,
    /// The block's row sums.
    sums: Vec<f64>,
}

impl<'a> Spc5Blocks<'a> {
    /// Places `m`, then `x`.
    fn new(e: &mut Engine, m: &'a Spc5, x: &'a [f64]) -> Self {
        Spc5Blocks {
            m,
            x,
            lay: Spc5Layout::new(e.alloc_mut(), m),
            xl: VecLayout::new(e.alloc_mut(), m.cols().max(1)),
            vl: e.core_config().vl as usize,
            next_seg: 0,
            vaccs: Vec::new(),
            sums: Vec::new(),
        }
    }

    /// Block `b`, the one after the last block run: per segment,
    /// broadcast `x[col]`, expand the packed values through the row mask
    /// and FMA into every accumulator of the block.
    #[inline(always)]
    fn block(&mut self, e: &mut Engine, b: usize) {
        let (m, h) = (self.m, self.m.block_height());
        let bp = e.load(self.lay.block_ptr.addr_of(b), 8);
        let rows_here = h.min(m.rows() - b * h);
        self.vaccs.clear();
        self.vaccs
            .extend((0..rows_here.div_ceil(self.vl)).map(|_| e.vec_op(VecOpKind::Add, &[])));
        self.sums.clear();
        self.sums.resize(rows_here, 0.0);
        for seg in m.block_segments(b) {
            let seg_reg = e.load(self.lay.segments.addr_of(self.next_seg), 8);
            self.next_seg += 1;
            // Broadcast x[col]: a scalar load dependent on the segment record.
            let xv = e.load_dep(self.xl.data.addr_of(seg.col as usize), 8, &[seg_reg]);
            let vals_reg = e.load(
                self.lay.data.addr_of(seg.val_offset),
                (8 * seg.len().max(1)) as u32,
            );
            // vexpand: move the mask to a k-register, then place packed
            // values into their row lanes.
            let kmask = e.scalar_op(AluKind::Int, &[seg_reg]);
            let expanded = e.vec_op(VecOpKind::Permute, &[vals_reg, kmask]);
            for vacc in self.vaccs.iter_mut() {
                *vacc = e.vec_op(VecOpKind::Fma, &[expanded, xv, *vacc]);
            }
            e.scalar_op(AluKind::Int, &[bp]);
            let mut off = seg.val_offset;
            for (lane, sum) in self.sums.iter_mut().enumerate() {
                if seg.mask & (1 << lane) != 0 {
                    *sum += m.data()[off] * self.x[seg.col as usize];
                    off += 1;
                }
            }
        }
    }
}

/// Sell-C-σ SpMV baseline: chunk-column-major FMAs with x-gathers; padding
/// lanes execute like real lanes (the zero-padding cost of §II-C).
///
/// # Panics
///
/// Panics if `x.len() != m.cols()`.
pub fn sell(m: &SellCSigma, x: &[f64], ctx: &SimContext) -> KernelRun<Vec<f64>> {
    assert_eq!(x.len(), m.cols(), "x length must equal matrix columns");
    let c = m.chunk_height();
    let mut e = ctx.baseline_engine();
    let mut chunks = SellChunks::new(&mut e, m, x);
    let yl = VecLayout::new(e.alloc_mut(), m.rows().max(1));

    let mut y = vec![0.0; m.rows()];
    let mut yg = Drain::with_capacity(c);
    e.region("chunk loop");
    for k in 0..m.num_chunks() {
        let vacc = chunks.chunk(&mut e, k);
        // y[perm[chunk rows]] += acc: gather/add/scatter through the
        // permutation, with the gather stalled behind the previous
        // chunk's scatter drain when their line sets overlap.
        let rows = &m.perm()[k * c..][..chunks.sums.len()];
        let perm_reg = e.load(chunks.lay.perm.addr_of(k * c), (4 * rows.len()) as u32);
        let yold = yg.gather(&mut e, &yl.data, indices(rows), perm_reg);
        let ynew = e.vec_op(VecOpKind::Add, &[vacc, yold]);
        yg.scatter(&mut e, &[ynew, perm_reg]);
        for (&row, &sum) in rows.iter().zip(&chunks.sums) {
            y[row as usize] = sum;
        }
    }
    e.region_end();
    KernelRun::finish_baseline(y, e)
}

/// A Sell-C-σ matrix and `x` placed in an engine's memory, with the
/// buffers its chunk loop reuses.
struct SellChunks<'a> {
    m: &'a SellCSigma,
    x: &'a [f64],
    lay: SellLayout,
    xl: VecLayout,
    xg: Gather,
    /// The chunk's row sums, in packed order.
    sums: Vec<f64>,
}

impl<'a> SellChunks<'a> {
    /// Places `m`, then `x`.
    fn new(e: &mut Engine, m: &'a SellCSigma, x: &'a [f64]) -> Self {
        let c = m.chunk_height();
        SellChunks {
            m,
            x,
            lay: SellLayout::new(e.alloc_mut(), m),
            xl: VecLayout::new(e.alloc_mut(), m.cols().max(1)),
            xg: Gather::with_capacity(c),
            sums: Vec::with_capacity(c),
        }
    }

    /// Chunk `k`: per padded column, vector loads of the column indices
    /// and values, an x-gather and an FMA into the chunk's accumulator,
    /// padding lanes included. Returns the accumulator.
    #[inline(always)]
    fn chunk(&mut self, e: &mut Engine, k: usize) -> Reg {
        let (m, c) = (self.m, self.m.chunk_height());
        let cp = e.load(self.lay.chunk_ptr.addr_of(k), 8);
        let cw = e.load(self.lay.chunk_width.addr_of(k), 8);
        let bound = e.scalar_op(AluKind::Int, &[cp, cw]);
        let mut vacc = e.vec_op(VecOpKind::Add, &[]);
        self.sums.clear();
        self.sums.resize(c.min(m.rows() - k * c), 0.0);
        for w in 0..m.chunk_width(k) {
            let pos = m.chunk_offset(k) + w * c;
            let cols = &m.col_idx()[pos..pos + c];
            let col_reg = e.load(self.lay.col_idx.addr_of(pos), (4 * c) as u32);
            let val_reg = e.load(self.lay.data.addr_of(pos), (8 * c) as u32);
            let x_reg = self.xg.load(e, &self.xl.data, indices(cols), &[col_reg]);
            vacc = e.vec_op(VecOpKind::Fma, &[val_reg, x_reg, vacc]);
            e.scalar_op(AluKind::Int, &[bound]);
            for (lane, sum) in self.sums.iter_mut().enumerate() {
                *sum += m.data()[pos + lane] * self.x[cols[lane] as usize];
            }
        }
        vacc
    }
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
    let zeros = vec![0.0; bs];
    let offset = bs as u32;
    let idx_bits = m.idx_bits();
    let (nbr, nbc) = m.grid();
    via.vldx_clear(&mut e);
    for br in 0..nbr {
        let row_base = br * bs;
        let rows_here = bs.min(m.rows() - row_base);
        let y_chunk = yl.data.slice(row_base, rows_here);
        // Preload the y chunk into the SSPM upper half (y += A*x). y
        // starts at zero in this kernel; the loads model the y+= traffic.
        e.region("y preload");
        stage_direct(&mut e, &mut via, offset, y_chunk, &zeros[..rows_here], &[]);
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
            let x_chunk = xl.data.slice(col_base, cols_here);
            let xs = &x[col_base..col_base + cols_here];
            stage_direct(&mut e, &mut via, 0, x_chunk, xs, &[]);
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
        let store = copy_and_store(&mut y[row_base..], y_chunk);
        read_direct(&mut e, &mut via, offset, rows_here, flush_group, store);
        // Reset the y segment's accumulators for the next block row.
        via.vldx_clear_segment(&mut e, bs, rows_here);
        e.region_end();
    }
    let events = via.events();
    KernelRun::finish_via(y, e, events)
}

/// The SSPM as an accumulator for the output vector, the segment loop of
/// [`via_csr`], [`via_spc5`] and [`via_sell`]. The output rows are cut
/// into segments of whole blocks of `height` rows, as many as the SSPM
/// holds, so no block straddles two segments.
struct SspmAccumulator {
    via: ViaUnit,
    seg_len: usize,
    group: usize,
    /// The current segment's first row.
    start: usize,
    /// The index run of one `vldxadd.d`.
    idx: Vec<u32>,
}

impl SspmAccumulator {
    /// Segments of whole blocks of `height` rows, each read out `group`
    /// reads ahead of the stores.
    ///
    /// # Panics
    ///
    /// Panics if a block of `height` rows does not fit the SSPM.
    fn new(ctx: &SimContext, height: usize, group: usize) -> Self {
        let entries = ctx.via.entries();
        assert!(
            height <= entries,
            "a block of {height} rows must fit the SSPM ({entries} entries)"
        );
        SspmAccumulator {
            via: ViaUnit::new(ctx.via),
            seg_len: entries / height * height,
            group,
            start: 0,
            idx: Vec::new(),
        }
    }

    /// Per segment of `0..rows`: clears the SSPM, has `accumulate` add the
    /// segment's rows in with [`SspmAccumulator::add`], then reads the
    /// segment out to `consume`, with each vector's first row.
    #[inline(always)]
    fn run(
        &mut self,
        e: &mut Engine,
        rows: usize,
        mut accumulate: impl FnMut(&mut Engine, &mut Self, Range<usize>),
        mut consume: impl FnMut(&mut Engine, usize, Reg, &[f64]),
    ) {
        for start in (0..rows).step_by(self.seg_len) {
            let end = rows.min(start + self.seg_len);
            self.start = start;
            self.via.vldx_clear(e);
            e.region("accumulate");
            accumulate(e, self, start..end);
            e.region_end();
            // Extract the segment, batching SSPM reads ahead of the stores.
            e.region("flush");
            let (via, group) = (&mut self.via, self.group);
            read_direct(e, via, 0, end - start, group, |e, r, reg, vals| {
                consume(e, start + r, reg, vals)
            });
            e.region_end();
        }
    }

    /// `vldxadd.d`: adds `sums` to the SSPM entries of the rows from `row`
    /// on, behind `deps`.
    #[inline]
    fn add(&mut self, e: &mut Engine, row: usize, sums: &[f64], deps: &[Reg]) {
        let at = row - self.start;
        self.idx.clear();
        self.idx.extend((at..at + sums.len()).map(|p| p as u32));
        let dest = Dest::Sspm { offset: 0 };
        self.via
            .vldx_alu_d(e, AluOp::Add, &self.idx, sums, dest, deps);
    }
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
    let mut out = SspmAccumulator::new(ctx, 1, flush_group);
    let mut rows = CsrRows::new(&mut e, a, x);
    let yl = VecLayout::new(e.alloc_mut(), a.rows().max(1));

    let mut y = vec![0.0; a.rows()];
    let mut sums = Vec::with_capacity(vl);
    let mut staged = Vec::with_capacity(vl);
    let accumulate = |e: &mut Engine, out: &mut SspmAccumulator, seg: Range<usize>| {
        // Each row sum goes into a staging vector register; `vl` of them
        // accumulate into the SSPM with one `vldxadd.d`.
        for first in seg.clone().step_by(vl) {
            sums.clear();
            staged.clear();
            for i in first..seg.end.min(first + vl) {
                let (vacc, sum) = rows.row(e, i, Advance::Induction(None));
                let sum_reg = e.vec_op(VecOpKind::Reduce, &[vacc]);
                staged.push(e.vec_op(VecOpKind::Blend, &[sum_reg]));
                sums.push(sum);
            }
            out.add(e, first, &sums, &staged);
        }
    };
    let store = copy_and_store(&mut y, yl.data);
    out.run(&mut e, a.rows(), accumulate, store);
    KernelRun::finish_via(y, e, out.via.events())
}

/// VIA SPC5 SpMV: segment processing as in [`spc5`], block results
/// accumulated into the SSPM.
///
/// # Panics
///
/// Panics if `x.len() != m.cols()`, or if a block has more rows than the
/// SSPM has entries.
pub fn via_spc5(m: &Spc5, x: &[f64], ctx: &SimContext) -> KernelRun<Vec<f64>> {
    assert_eq!(x.len(), m.cols(), "x length must equal matrix columns");
    let (vl, h) = (ctx.vl(), m.block_height());
    let mut e = ctx.via_engine();
    let mut out = SspmAccumulator::new(ctx, h, 8);
    let mut blocks = Spc5Blocks::new(&mut e, m, x);
    let yl = VecLayout::new(e.alloc_mut(), m.rows().max(1));

    let mut y = vec![0.0; m.rows()];
    let accumulate = |e: &mut Engine, out: &mut SspmAccumulator, seg: Range<usize>| {
        for b in seg.start / h..seg.end.div_ceil(h) {
            blocks.block(e, b);
            for (r, (sums, &vacc)) in blocks.sums.chunks(vl).zip(&blocks.vaccs).enumerate() {
                out.add(e, b * h + r * vl, sums, &[vacc]);
            }
        }
    };
    let store = copy_and_store(&mut y, yl.data);
    out.run(&mut e, m.rows(), accumulate, store);
    debug_assert!(via_formats::vec_approx_eq(&y, &m.spmv(x), 1e-9));
    KernelRun::finish_via(y, e, out.via.events())
}

/// VIA Sell-C-σ SpMV: chunk FMAs as in [`sell`], accumulation into the SSPM
/// at packed-row positions instead of the gather/scatter y-update.
///
/// # Panics
///
/// Panics if `x.len() != m.cols()`, or if a chunk has more rows than the
/// SSPM has entries.
pub fn via_sell(m: &SellCSigma, x: &[f64], ctx: &SimContext) -> KernelRun<Vec<f64>> {
    assert_eq!(x.len(), m.cols(), "x length must equal matrix columns");
    let c = m.chunk_height();
    let mut e = ctx.via_engine();
    let mut out = SspmAccumulator::new(ctx, c, 8);
    let mut chunks = SellChunks::new(&mut e, m, x);
    let yl = VecLayout::new(e.alloc_mut(), m.rows().max(1));

    let mut y = vec![0.0; m.rows()];
    let mut yg = Gather::with_capacity(ctx.vl());
    let accumulate = |e: &mut Engine, out: &mut SspmAccumulator, seg: Range<usize>| {
        for k in seg.start / c..seg.end.div_ceil(c) {
            let vacc = chunks.chunk(e, k);
            out.add(e, k * c, &chunks.sums, &[vacc]);
        }
    };
    // The SSPM holds packed rows; each vector read out scatters to
    // y[perm[...]].
    let scatter = |e: &mut Engine, p: usize, reg: Reg, vals: &[f64]| {
        let rows = &m.perm()[p..][..vals.len()];
        for (&row, &v) in rows.iter().zip(vals) {
            y[row as usize] = v;
        }
        yg.store(e, &yl.data, indices(rows), &[reg]);
    };
    out.run(&mut e, m.rows(), accumulate, scatter);
    KernelRun::finish_via(y, e, out.via.events())
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

    /// 600 rows in blocks of 3 under a 512-entry SSPM: no segment of 512
    /// rows ends on a block boundary.
    fn straddling_matrix() -> Csr {
        gen::uniform(600, 600, 0.01, 42)
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
        let a = straddling_matrix();
        let x = xvec(a.cols());
        let m = Spc5::from_csr(&a, 3).unwrap();
        let run = via_spc5(&m, &x, &small_ctx());
        assert_eq!(run.output, spc5(&m, &x, &ctx()).output);
        assert!(via_formats::vec_approx_eq(
            &run.output,
            &reference::spmv(&a, &x),
            1e-9
        ));
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
        let a = straddling_matrix();
        let x = xvec(a.cols());
        let m = SellCSigma::from_csr(&a, 3, 12).unwrap();
        let run = via_sell(&m, &x, &small_ctx());
        assert_eq!(run.output, sell(&m, &x, &ctx()).output);
        assert!(via_formats::vec_approx_eq(
            &run.output,
            &reference::spmv(&a, &x),
            1e-9
        ));
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
