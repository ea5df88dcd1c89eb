//! Stencil kernels: a 4×4 Gaussian convolution filter (paper §IV-F2,
//! Algorithm 6; evaluated in §VII-D, Figure 12.b).
//!
//! * [`scalar`] — the classic scalar implementation ("a classic
//!   implementation of a 4×4 Gaussian filter"): per output pixel, 16
//!   load+FMA pairs through the FP-latency accumulation chain.
//! * [`vector`] — a vectorized implementation computing `VL` output pixels
//!   per step: per filter tap, one (mostly L1-resident) image vector load
//!   and one FMA.
//! * [`via`] — Algorithm 6: the image segment is staged in the SSPM once;
//!   each tap's operands come from the scratchpad via `vldxmult.d`
//!   (multiplying with the filter coefficient broadcast in the VRF) so the
//!   inner loop issues no cache accesses at all, and results accumulate in
//!   the SSPM.
//!
//! The default filter is the 4×4 Gaussian kernel; borders are zero-padded
//! as in [`via_formats::reference::convolve2d`].

use crate::context::{KernelRun, SimContext};
use crate::readout::{read_direct, stage_direct};
use via_core::ViaUnit;
use via_sim::{AluKind, Engine, Reg, Region, VecOpKind};

/// The 4×4 Gaussian filter used by the paper's evaluation (binomial
/// weights, normalized).
pub fn gaussian4() -> Vec<f64> {
    let w = [1.0, 3.0, 3.0, 1.0];
    let mut f = Vec::with_capacity(16);
    for fy in 0..4 {
        for fx in 0..4 {
            f.push(w[fy] * w[fx] / 64.0);
        }
    }
    f
}

/// What every stencil leg places and precomputes: the image and output
/// regions, the reference output, and the 16 filter coefficients loaded
/// once into registers.
struct Operands {
    il: Region,
    ol: Region,
    out: Vec<f64>,
    coeffs: Vec<Reg>,
}

impl Operands {
    /// Places the image, the filter and the output, in that order, and
    /// loads the coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `image.len() != width * height` or `filter.len() != 16`.
    fn new(e: &mut Engine, image: &[f64], width: usize, height: usize, filter: &[f64]) -> Self {
        assert_eq!(image.len(), width * height, "image dimensions mismatch");
        assert_eq!(filter.len(), 16, "filter must be 4x4");
        let il = e.alloc_mut().alloc_f64(image.len().max(1));
        let fl = e.alloc_mut().alloc_f64(16);
        let ol = e.alloc_mut().alloc_f64(image.len().max(1));
        Operands {
            il,
            ol,
            out: via_formats::reference::convolve2d(image, width, height, filter, 4),
            coeffs: (0..16).map(|t| e.load(fl.addr_of(t), 8)).collect(),
        }
    }
}

/// Scalar 4×4 convolution baseline.
///
/// # Panics
///
/// Panics if `image.len() != width * height` or `filter.len() != 16`.
pub fn scalar(
    image: &[f64],
    width: usize,
    height: usize,
    filter: &[f64],
    ctx: &SimContext,
) -> KernelRun<Vec<f64>> {
    let mut e = ctx.baseline_engine();
    let ops = Operands::new(&mut e, image, width, height, filter);
    e.region("pixel loop");
    for y in 0..height {
        for x in 0..width {
            let mut acc = e.scalar_op(AluKind::Int, &[]);
            for fy in 0..4usize {
                for fx in 0..4usize {
                    let iy = y as isize + fy as isize - 2;
                    let ix = x as isize + fx as isize - 2;
                    if iy < 0 || iy >= height as isize || ix < 0 || ix >= width as isize {
                        continue;
                    }
                    let pix = e.load(ops.il.addr_of(iy as usize * width + ix as usize), 8);
                    acc = e.scalar_op(AluKind::FpFma, &[pix, ops.coeffs[fy * 4 + fx], acc]);
                }
            }
            e.store(ops.ol.addr_of(y * width + x), 8, &[acc]);
            e.scalar_op(AluKind::Int, &[]);
        }
    }
    e.region_end();
    KernelRun::finish_baseline(ops.out, e)
}

/// Vectorized 4×4 convolution baseline (`VL` output pixels per step).
///
/// # Panics
///
/// Panics if `image.len() != width * height` or `filter.len() != 16`.
pub fn vector(
    image: &[f64],
    width: usize,
    height: usize,
    filter: &[f64],
    ctx: &SimContext,
) -> KernelRun<Vec<f64>> {
    let vl = ctx.vl();
    let mut e = ctx.baseline_engine();
    let ops = Operands::new(&mut e, image, width, height, filter);
    e.region("pixel loop");
    for y in 0..height {
        let mut x = 0usize;
        while x < width {
            let len = vl.min(width - x);
            let mut acc = e.vec_op(VecOpKind::Add, &[]);
            for fy in 0..4usize {
                let iy = y as isize + fy as isize - 2;
                if iy < 0 || iy >= height as isize {
                    continue;
                }
                for fx in 0..4usize {
                    let ix0 = x as isize + fx as isize - 2;
                    // Unaligned vector load of the image row slice
                    // (clamped to the row; borders handled by masking).
                    let lo = ix0.max(0) as usize;
                    let pix = e.load(
                        ops.il.addr_of(iy as usize * width + lo.min(width - 1)),
                        (8 * len) as u32,
                    );
                    acc = e.vec_op(VecOpKind::Fma, &[pix, ops.coeffs[fy * 4 + fx], acc]);
                }
            }
            e.store(ops.ol.addr_of(y * width + x), (8 * len) as u32, &[acc]);
            e.scalar_op(AluKind::Int, &[]);
            x += len;
        }
    }
    e.region_end();
    KernelRun::finish_baseline(ops.out, e)
}

/// VIA stencil (paper Algorithm 6): image segments staged in the SSPM,
/// per-tap operands read from the scratchpad (`vldxmult.d` with the
/// coefficient broadcast from the VRF), results accumulated in the SSPM
/// and flushed per segment.
///
/// The SSPM is split into an input region (rows of the image segment plus
/// 3 halo rows) and an output region, like the CSB SpMV split.
///
/// # Panics
///
/// Panics if `image.len() != width * height`, `filter.len() != 16`, or one
/// image row plus halo cannot fit half the SSPM.
pub fn via(
    image: &[f64],
    width: usize,
    height: usize,
    filter: &[f64],
    ctx: &SimContext,
) -> KernelRun<Vec<f64>> {
    let vl = ctx.vl();
    let entries = ctx.via.entries();
    let half = entries / 2;
    // Segment geometry: `seg_rows` output rows need `seg_rows + 3` input
    // rows resident.
    let max_rows = half / width.max(1);
    assert!(
        max_rows >= 4,
        "an image row plus halo must fit half the SSPM ({} entries, width {width})",
        entries
    );
    let seg_rows = max_rows - 3;
    let mut e = ctx.via_engine();
    let mut via = ViaUnit::new(ctx.via);
    let ops = Operands::new(&mut e, image, width, height, filter);
    let out_base = half as u32;

    let mut y0 = 0usize;
    while y0 < height {
        let rows_here = seg_rows.min(height - y0);
        via.vldx_clear(&mut e);
        // Stage the input rows [y0-2, y0+rows_here+1] (clamped) in the SSPM.
        e.region("stage");
        let in_lo = y0.saturating_sub(2);
        let in_hi = (y0 + rows_here).min(height - 1);
        for iy in in_lo..=in_hi {
            let row = iy * width;
            let base = ((iy - in_lo) * width) as u32;
            let pixels = &image[row..row + width];
            stage_direct(
                &mut e,
                &mut via,
                base,
                ops.il.slice(row, width),
                pixels,
                &[],
            );
        }
        // Convolve: one fused `vldxblkmult.d` per tap per VL pixels. The
        // merged index packs (output position << idx_bits) | input
        // position, the coefficient is broadcast as the data operand, and
        // the instruction reads the input pixel, multiplies, and
        // accumulates into the output region — exactly the CSB datapath
        // re-targeted at the stencil access pattern (Algorithm 6's "read
        // the operand data from the SSPM... reduce and accumulate results
        // in SSPM").
        e.region_end();
        e.region("convolve");
        let idx_bits = (usize::BITS - (half - 1).leading_zeros()).max(1);
        for dy in 0..rows_here {
            let y = y0 + dy;
            let mut x = 0usize;
            while x < width {
                let len = vl.min(width - x);
                for fy in 0..4usize {
                    let iy = y as isize + fy as isize - 2;
                    if iy < (in_lo as isize) || iy > (in_hi as isize) {
                        continue;
                    }
                    let sspm_row = (iy as usize - in_lo) * width;
                    for fx in 0..4usize {
                        // Per-lane merged (out, in) indices; border lanes
                        // are dropped (zero-padding).
                        let mut idx = Vec::with_capacity(len);
                        for l in 0..len {
                            let ix = (x + l) as isize + fx as isize - 2;
                            if ix < 0 || ix >= width as isize {
                                continue;
                            }
                            let in_pos = (sspm_row + ix as usize) as u32;
                            let out_pos = (dy * width + x + l) as u32;
                            idx.push((out_pos << idx_bits) | in_pos);
                        }
                        if idx.is_empty() {
                            continue;
                        }
                        let coeff = filter[fy * 4 + fx];
                        via.vldx_blk_mult_d(
                            &mut e,
                            &idx,
                            &vec![coeff; idx.len()],
                            idx_bits,
                            out_base,
                            &[ops.coeffs[fy * 4 + fx]],
                        );
                    }
                }
                e.scalar_op(AluKind::Int, &[]);
                x += len;
            }
        }
        e.region_end();
        // Flush the output segment, batching SSPM reads ahead of stores.
        e.region("flush");
        for dy in 0..rows_here {
            let row_base = out_base + (dy * width) as u32;
            read_direct(&mut e, &mut via, row_base, width, 8, |e, x, reg, vals| {
                let at = (y0 + dy) * width + x;
                for (l, &v) in vals.iter().enumerate() {
                    debug_assert!(
                        (v - ops.out[at + l]).abs() < 1e-9,
                        "SSPM convolution mismatch at ({}, {})",
                        y0 + dy,
                        x + l
                    );
                }
                e.store(ops.ol.addr_of(at), (8 * vals.len()) as u32, &[reg]);
            });
        }
        e.region_end();
        y0 += rows_here;
    }
    let events = via.events();
    KernelRun::finish_via(ops.out, e, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use via_formats::reference;

    fn ctx() -> SimContext {
        SimContext::default()
    }

    fn image(w: usize, h: usize, seed: u64) -> Vec<f64> {
        via_formats::gen::dense_vector(w * h, seed)
            .into_iter()
            .map(|v| v.abs())
            .collect()
    }

    #[test]
    fn gaussian_filter_is_normalized() {
        let f = gaussian4();
        assert_eq!(f.len(), 16);
        let sum: f64 = f.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn scalar_matches_reference() {
        let (w, h) = (16, 12);
        let img = image(w, h, 1);
        let f = gaussian4();
        let run = scalar(&img, w, h, &f, &ctx());
        let expected = reference::convolve2d(&img, w, h, &f, 4);
        assert!(via_formats::vec_approx_eq(&run.output, &expected, 1e-9));
    }

    #[test]
    fn vector_matches_reference() {
        let (w, h) = (16, 12);
        let img = image(w, h, 2);
        let f = gaussian4();
        let run = vector(&img, w, h, &f, &ctx());
        let expected = reference::convolve2d(&img, w, h, &f, 4);
        assert!(via_formats::vec_approx_eq(&run.output, &expected, 1e-9));
    }

    #[test]
    fn via_matches_reference_and_uses_sspm() {
        let (w, h) = (16, 12);
        let img = image(w, h, 3);
        let f = gaussian4();
        let run = via(&img, w, h, &f, &ctx());
        let expected = reference::convolve2d(&img, w, h, &f, 4);
        assert!(via_formats::vec_approx_eq(&run.output, &expected, 1e-9));
        assert!(run.stats.custom_ops > 0);
        let ev = run.sspm_events.unwrap();
        assert!(ev.sram_reads > 0 && ev.sram_writes > 0);
    }

    #[test]
    fn via_segments_tall_images() {
        // 4 KB SSPM: 512 entries, half = 256; width 32 ⇒ 8 rows per half,
        // 5 output rows per segment on a 20-row image ⇒ 4 segments.
        let small = SimContext::with_via(via_core::ViaConfig::new(4, 2));
        let (w, h) = (32, 20);
        let img = image(w, h, 4);
        let f = gaussian4();
        let run = via(&img, w, h, &f, &small);
        let expected = reference::convolve2d(&img, w, h, &f, 4);
        assert!(via_formats::vec_approx_eq(&run.output, &expected, 1e-9));
    }

    #[test]
    fn via_beats_scalar() {
        let (w, h) = (32, 32);
        let img = image(w, h, 5);
        let f = gaussian4();
        let s = scalar(&img, w, h, &f, &ctx());
        let v = via(&img, w, h, &f, &ctx());
        assert!(
            v.cycles() < s.cycles(),
            "VIA stencil ({}) should beat scalar ({})",
            v.cycles(),
            s.cycles()
        );
    }

    #[test]
    #[should_panic(expected = "image row plus halo")]
    fn via_rejects_too_wide_images() {
        let small = SimContext::with_via(via_core::ViaConfig::new(4, 2));
        let img = vec![0.0; 1024 * 2];
        via(&img, 1024, 2, &gaussian4(), &small);
    }

    #[test]
    fn constant_image_gives_constant_interior() {
        let (w, h) = (12, 12);
        let img = vec![1.0; w * h];
        let f = gaussian4();
        let run = via(&img, w, h, &f, &ctx());
        // Interior pixels (away from the zero-padded border) should be ~1.
        assert!((run.output[5 * w + 5] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn emitted_streams_verify_clean() {
        use via_sim::verify;
        let _guard = verify::capture_guard();
        let (w, h) = (16, 12);
        let img = image(w, h, 9);
        let f = gaussian4();
        scalar(&img, w, h, &f, &ctx());
        vector(&img, w, h, &f, &ctx());
        via(&img, w, h, &f, &ctx());
        let reports = verify::drain_captured();
        assert!(reports.len() >= 3, "one report per kernel engine");
        for r in &reports {
            assert!(r.is_clean(), "{}", r.render());
        }
    }
}
