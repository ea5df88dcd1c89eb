//! Staging dense data into the SSPM, and reading a finished SSPM segment
//! out.
//!
//! VIA instructions execute at commit yet still pipeline back to back
//! through the FIVU (paper §IV-E), so every VIA kernel reads a finished
//! scratchpad segment out as a batch of reads issued ahead of the stores
//! that consume them: `vldxmov.d` in direct mode, `vldxcount` then
//! `vldxloadidx`/`vldxmov.d` pairs in CAM mode. The batch size bounds the
//! vector registers the reads hold live. Data goes in the other way, one
//! vector load (a pair, for a CSR row's indices and values) and one
//! `vldxload.d` (`vldxload.c`) per machine vector.

use std::ops::Range;

use crate::layout::CsrLayout;
use via_core::ViaUnit;
use via_formats::Csr;
use via_sim::{Engine, Reg, Region};

/// Direct mode: writes `values`, the elements of `at`, into the SSPM from
/// index `base` on: per machine vector, a vector load of `at` behind
/// `deps`, then a `vldxload.d` behind the load.
pub(crate) fn stage_direct(
    e: &mut Engine,
    via: &mut ViaUnit,
    base: u32,
    at: Region,
    values: &[f64],
    deps: &[Reg],
) {
    let vl = e.core_config().vl as usize;
    let mut idx = Vec::with_capacity(vl);
    for (r, vals) in (0..).step_by(vl).zip(values.chunks(vl)) {
        let reg = e.load_dep(at.addr_of(r), (8 * vals.len()) as u32, deps);
        idx.clear();
        idx.extend((r..r + vals.len()).map(|p| base + p as u32));
        via.vldx_load_d(e, &idx, vals, &[reg]);
    }
}

/// CAM mode: inserts the non-zeros `range` of row `i` of `m`, placed at
/// `lay`, into the index table: per machine vector, vector loads of the
/// column indices and values, then a `vldxload.c` behind both.
pub(crate) fn insert_cam(
    e: &mut Engine,
    via: &mut ViaUnit,
    m: &Csr,
    lay: &CsrLayout,
    i: usize,
    range: Range<usize>,
) {
    let vl = e.core_config().vl as usize;
    let (cols, vals) = m.row(i);
    let base = m.row_ptr()[i];
    let end = range.end;
    for k in range.step_by(vl) {
        let len = vl.min(end - k);
        let col_reg = e.load(lay.col_idx.addr_of(base + k), (4 * len) as u32);
        let val_reg = e.load(lay.data.addr_of(base + k), (8 * len) as u32);
        via.vldx_load_c(e, &cols[k..k + len], &vals[k..k + len], &[col_reg, val_reg]);
    }
}

/// Direct mode: reads the `len` entries from SSPM index `base` on, one
/// `vldxmov.d` per machine vector, at most `group` reads ahead of their
/// consumers. Each vector then goes, in order, to `consume` with its
/// offset in `0..len`, its register and its values.
pub(crate) fn read_direct(
    e: &mut Engine,
    via: &mut ViaUnit,
    base: u32,
    len: usize,
    group: usize,
    mut consume: impl FnMut(&mut Engine, usize, Reg, &[f64]),
) {
    let vl = e.core_config().vl as usize;
    let (mut idx, mut regs, mut vals) = (Vec::with_capacity(vl), Vec::new(), Vec::new());
    for batch in batches(len, group, vl) {
        vals.clear();
        vals.resize(batch.len(), 0.0);
        for (r, out) in batch.clone().step_by(vl).zip(vals.chunks_mut(vl)) {
            idx.clear();
            idx.extend((r..r + out.len()).map(|p| base + p as u32));
            regs.push(via.vldx_mov_d(e, &idx, &[], out));
        }
        for ((r, reg), values) in batch.step_by(vl).zip(regs.drain(..)).zip(vals.chunks(vl)) {
            consume(e, r, reg, values);
        }
    }
}

/// A [`read_direct`] consumer that copies each vector into `out` and
/// stores it to `at`, both from the vector's offset on.
pub(crate) fn copy_and_store(
    out: &mut [f64],
    at: Region,
) -> impl FnMut(&mut Engine, usize, Reg, &[f64]) + '_ {
    move |e, r, reg, vals| {
        out[r..r + vals.len()].copy_from_slice(vals);
        e.store(at.addr_of(r), (8 * vals.len()) as u32, &[reg]);
    }
}

/// CAM mode: reads every tracked entry out, `vldxcount` first, then a
/// `vldxloadidx` + `vldxmov.d` pair per machine vector, at most four pairs
/// ahead of their consumers. Each pair then goes, in insertion order, to
/// `consume` with its index register, indices, value register and values.
pub(crate) fn read_cam(
    e: &mut Engine,
    via: &mut ViaUnit,
    mut consume: impl FnMut(&mut Engine, Reg, &[u32], Reg, &[f64]),
) {
    let vl = e.core_config().vl as usize;
    let (_, count) = via.vldx_count(e);
    let (mut positions, mut regs) = (Vec::with_capacity(vl), Vec::new());
    let (mut idxs, mut vals) = (Vec::new(), Vec::new());
    for batch in batches(count, 4, vl) {
        idxs.clear();
        idxs.resize(batch.len(), 0);
        vals.clear();
        vals.resize(batch.len(), 0.0);
        let outs = idxs.chunks_mut(vl).zip(vals.chunks_mut(vl));
        for (r, (idx_out, val_out)) in batch.step_by(vl).zip(outs) {
            let idx_reg = via.vldx_load_idx(e, r, idx_out);
            positions.clear();
            positions.extend((r..r + val_out.len()).map(|p| p as u32));
            regs.push((idx_reg, via.vldx_mov_d(e, &positions, &[], val_out)));
        }
        let outs = idxs.chunks(vl).zip(vals.chunks(vl));
        for ((idx_reg, val_reg), (cols, values)) in regs.drain(..).zip(outs) {
            consume(e, idx_reg, cols, val_reg, values);
        }
    }
}

/// `0..len` cut into batches of at most `group` machine vectors of `vl`
/// entries: a batch's reads all issue before its first consumer, and one
/// buffer holds the batch's values.
fn batches(len: usize, group: usize, vl: usize) -> impl Iterator<Item = Range<usize>> {
    let step = group.saturating_mul(vl);
    (0..len)
        .step_by(step)
        .map(move |start| start..len.min(start.saturating_add(step)))
}
