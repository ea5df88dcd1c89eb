//! Staging dense data into the SSPM, and reading a finished SSPM segment
//! out.
//!
//! VIA instructions execute at commit yet still pipeline back to back
//! through the FIVU (paper §IV-E), so every VIA kernel reads a finished
//! scratchpad segment out as a batch of reads issued ahead of the stores
//! that consume them: `vldxmov.d` in direct mode, `vldxcount` then
//! `vldxloadidx`/`vldxmov.d` pairs in CAM mode. The batch size bounds the
//! vector registers the reads hold live. Dense data goes in the other way,
//! one vector load and one `vldxload.d` per machine vector.

use via_core::ViaUnit;
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
    let mut idx = Vec::new();
    let read = |e: &mut Engine, r: usize, n: usize| {
        idx.clear();
        idx.extend((r..r + n).map(|p| base + p as u32));
        let (reg, vals) = via.vldx_mov_d(e, &idx, &[]);
        (r, reg, vals)
    };
    batched(e, len, group, read, |e, (r, reg, vals)| {
        consume(e, r, reg, &vals)
    });
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
    let (_, count) = via.vldx_count(e);
    let mut positions = Vec::new();
    let read = |e: &mut Engine, r: usize, n: usize| {
        let (idx_reg, idxs) = via.vldx_load_idx(e, r, n);
        positions.clear();
        positions.extend((r..r + n).map(|p| p as u32));
        let (val_reg, vals) = via.vldx_mov_d(e, &positions, &[]);
        (idx_reg, idxs, val_reg, vals)
    };
    batched(e, count, 4, read, |e, (idx_reg, idxs, val_reg, vals)| {
        consume(e, idx_reg, &idxs, val_reg, &vals)
    });
}

/// Calls `read(r, n)` for each machine vector `r..r + n` of `0..len`, at
/// most `group` vectors ahead of `consume`, which takes the results in
/// order.
fn batched<T>(
    e: &mut Engine,
    len: usize,
    group: usize,
    mut read: impl FnMut(&mut Engine, usize, usize) -> T,
    mut consume: impl FnMut(&mut Engine, T),
) {
    let vl = e.core_config().vl as usize;
    let mut batch = Vec::with_capacity(group.min(len.div_ceil(vl)));
    let mut r = 0;
    while r < len {
        while batch.len() < group && r < len {
            let n = vl.min(len - r);
            batch.push(read(e, r, n));
            r += n;
        }
        for chunk in batch.drain(..) {
            consume(e, chunk);
        }
    }
}
