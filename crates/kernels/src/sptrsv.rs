//! SpTRSV kernels: solve `L x = b` by forward substitution (extension —
//! the dependency-carried kernel family the VIA paper's conclusion points
//! at for future work).
//!
//! Unlike SpMV, the output feeds back into the input: row `i` reads `x[j]`
//! for every strict-lower non-zero `j`, so rows chain through memory. Two
//! schedules are provided (and exposed to the auto-tuner as a knob):
//!
//! * [`Schedule::RowSerial`] — sequential row order. The column-indexed
//!   `x` loads cannot be disambiguated against the in-flight `x` stores
//!   until their indices arrive, so each row's reads conservatively wait
//!   for the previous row's update (the §II-C store-to-load ordering the
//!   Sell-C-σ baseline also models) — the whole solve serializes.
//! * [`Schedule::Levels`] — level scheduling (Saltz): rows are issued in
//!   dependency wavefronts ([`LevelSchedule`]), so reads only wait for the
//!   previous *level*'s join and independent rows overlap.
//!
//! Baseline [`scalar`] chases `x` through memory; [`via_sspm`] keeps the
//! solved prefix of `x` in the SSPM and reads it back with `vldxmult.d`
//! (`Dest::Vrf` — `sspm[idx[i]] * data[i]` per lane), segmenting when the
//! matrix outgrows the scratchpad. It is [`crate::symgs::via_sspm`]'s
//! forward sweep, solving from zero instead of staging a current `x`.

use crate::context::{KernelRun, SimContext};
use crate::gather::{indices, Gather};
use crate::layout::{CsrLayout, VecLayout};
use crate::readout::{copy_and_store, read_direct, stage_direct};
use via_core::{AluOp, Dest, ViaUnit};
use via_formats::{Csr, LevelSchedule};
use via_sim::{AluKind, Engine, Reg, VecOpKind};

/// Row-processing order for dependency-carried sweeps (SpTRSV, SymGS).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Schedule {
    /// Sequential row order with conservative store-to-load ordering:
    /// every row's indexed reads wait for the previous row's update.
    RowSerial,
    /// Level-scheduled wavefronts: reads wait only for the previous
    /// level's join; rows inside a level issue independently.
    Levels,
}

impl Schedule {
    /// Stable lowercase name (used by variant descriptors and reports).
    pub fn name(self) -> &'static str {
        match self {
            Schedule::RowSerial => "row_serial",
            Schedule::Levels => "levels",
        }
    }
}

/// Extra cycles an FP divide costs beyond an FP multiply. The engine has
/// no divide ALU kind, so the per-row `acc / diag` is modeled as a
/// multiply plus this non-pipelined latency (a typical double-precision
/// divider: ~20 cycles total).
pub(crate) const DIV_EXTRA_CYCLES: u32 = 16;

/// Folds a group's completion tokens (plus the previous barrier, keeping
/// the chain monotone) into a single join register — the software barrier
/// at the end of a wavefront, one integer op per few rows.
pub(crate) fn fold_tokens(e: &mut Engine, prev: Option<Reg>, tokens: &[Reg]) -> Option<Reg> {
    let mut all: Vec<Reg> = Vec::with_capacity(tokens.len() + 1);
    all.extend_from_slice(tokens);
    if let Some(g) = prev {
        all.push(g);
    }
    let (&first, rest) = all.split_first()?;
    let mut bar = first;
    for chunk in rest.chunks(3) {
        let mut deps = Vec::with_capacity(4);
        deps.push(bar);
        deps.extend_from_slice(chunk);
        bar = e.scalar_op(AluKind::Int, &deps);
    }
    Some(bar)
}

/// Row groups for one sweep over `[lo, hi)` in processing order:
/// `RowSerial` yields one row per group (reversed for backward sweeps),
/// `Levels` yields the schedule's wavefronts restricted to the range.
pub(crate) fn row_groups(
    schedule: Schedule,
    levels: Option<&LevelSchedule>,
    lo: usize,
    hi: usize,
    backward: bool,
) -> Vec<Vec<usize>> {
    match schedule {
        Schedule::RowSerial => {
            let rows = lo..hi;
            if backward {
                rows.rev().map(|i| vec![i]).collect()
            } else {
                rows.map(|i| vec![i]).collect()
            }
        }
        Schedule::Levels => levels
            .expect("Schedule::Levels requires a LevelSchedule")
            .levels()
            .iter()
            .map(|lvl| {
                lvl.iter()
                    .map(|&r| r as usize)
                    .filter(|&r| lo <= r && r < hi)
                    .collect::<Vec<_>>()
            })
            .filter(|g| !g.is_empty())
            .collect(),
    }
}

/// Scalar forward substitution in row-serial order (the conservative
/// sequential baseline). Equivalent to
/// [`scalar_with`]`(l, b, ctx, Schedule::RowSerial)`.
///
/// # Panics
///
/// Panics if `l` is not square lower-triangular with a full non-zero
/// diagonal, or if `b.len() != l.rows()`.
pub fn scalar(l: &Csr, b: &[f64], ctx: &SimContext) -> KernelRun<Vec<f64>> {
    scalar_with(l, b, ctx, Schedule::RowSerial)
}

/// Scalar forward substitution with an explicit [`Schedule`] knob. Both
/// schedules compute identical values (level order respects every true
/// dependency); only the emitted ordering constraints differ.
///
/// # Panics
///
/// Panics as [`scalar`].
pub fn scalar_with(
    l: &Csr,
    b: &[f64],
    ctx: &SimContext,
    schedule: Schedule,
) -> KernelRun<Vec<f64>> {
    assert_eq!(l.rows(), l.cols(), "L must be square");
    assert_eq!(b.len(), l.rows(), "b length must equal matrix rows");
    let n = l.rows();
    let mut e = ctx.baseline_engine();
    let lay = CsrLayout::new(e.alloc_mut(), l);
    let bl = VecLayout::new(e.alloc_mut(), n.max(1));
    let xl = VecLayout::new(e.alloc_mut(), n.max(1));

    let mut x = vec![0.0; n];
    let sched = (schedule == Schedule::Levels).then(|| LevelSchedule::from_lower(l));
    let mut guard: Option<Reg> = None;
    e.region("substitution");
    for group in row_groups(schedule, sched.as_ref(), 0, n, false) {
        let mut tokens: Vec<Reg> = Vec::with_capacity(group.len());
        for i in group {
            let (cols, vals) = l.row(i);
            let base = l.row_ptr()[i];
            let rp = e.load(lay.row_ptr.addr_of(i), 8);
            let rp_next = e.load(lay.row_ptr.addr_of(i + 1), 8);
            let bound = e.scalar_op(AluKind::Int, &[rp, rp_next]);
            let mut acc_reg = e.load(bl.data.addr_of(i), 8);
            let mut acc = b[i];
            let mut diag = 0.0;
            let mut diag_reg = acc_reg;
            for (k, (&c, &v)) in cols.iter().zip(vals).enumerate() {
                let j = base + k;
                let col_reg = e.load(lay.col_idx.addr_of(j), 4);
                let val_reg = e.load(lay.data.addr_of(j), 8);
                let c = c as usize;
                match c.cmp(&i) {
                    std::cmp::Ordering::Less => {
                        // Pointer-chasing x read, ordered behind the
                        // schedule's barrier.
                        let mut deps = [col_reg, col_reg];
                        let mut nd = 1;
                        if let Some(g) = guard {
                            deps[1] = g;
                            nd = 2;
                        }
                        let x_reg = e.load_dep(xl.data.addr_of(c), 8, &deps[..nd]);
                        acc_reg = e.scalar_op(AluKind::FpFma, &[val_reg, x_reg, acc_reg]);
                        acc -= v * x[c];
                    }
                    std::cmp::Ordering::Equal => {
                        diag = v;
                        diag_reg = val_reg;
                    }
                    std::cmp::Ordering::Greater => {
                        panic!("L has an entry above the diagonal at ({i}, {c})")
                    }
                }
                e.scalar_op(AluKind::Int, &[bound]);
            }
            assert!(diag != 0.0, "L has a zero/missing diagonal at row {i}");
            let q = e.scalar_op(AluKind::FpMul, &[acc_reg, diag_reg]);
            let q = e.delay(DIV_EXTRA_CYCLES, &[q]);
            x[i] = acc / diag;
            e.store(xl.data.addr_of(i), 8, &[q]);
            tokens.push(q);
        }
        guard = fold_tokens(&mut e, guard, &tokens);
    }
    e.region_end();
    KernelRun::finish_baseline(x, e)
}

/// VIA forward substitution in row-serial order with the default flush
/// group. Equivalent to
/// [`via_sspm_with`]`(l, b, ctx, Schedule::RowSerial, 8)`.
///
/// # Panics
///
/// Panics as [`scalar`].
pub fn via_sspm(l: &Csr, b: &[f64], ctx: &SimContext) -> KernelRun<Vec<f64>> {
    via_sspm_with(l, b, ctx, Schedule::RowSerial, 8)
}

/// VIA forward substitution: the solved segment of `x` lives in the SSPM,
/// so in-segment products `L[i][c] * x[c]` come from a single
/// `vldxmult.d` (`Dest::Vrf`) per chunk instead of per-element memory
/// chasing; references to already-flushed segments fall back to gathers.
/// `schedule` orders rows inside a segment; `flush_group` batches the
/// SSPM reads of the segment flush ahead of their stores (see
/// [`crate::spmv::via_csb_with`]).
///
/// # Panics
///
/// Panics as [`scalar`], or if `flush_group == 0`.
pub fn via_sspm_with(
    l: &Csr,
    b: &[f64],
    ctx: &SimContext,
    schedule: Schedule,
    flush_group: usize,
) -> KernelRun<Vec<f64>> {
    assert_eq!(l.rows(), l.cols(), "L must be square");
    assert_eq!(b.len(), l.rows(), "b length must equal matrix rows");
    assert!(flush_group > 0, "flush_group must be positive");
    for i in 0..l.rows() {
        let (cols, vals) = l.row(i);
        let n_lower = cols.iter().take_while(|&&c| (c as usize) < i).count();
        assert!(
            n_lower + 1 == cols.len() && cols[n_lower] as usize == i && vals[n_lower] != 0.0,
            "L must be lower-triangular with a non-zero diagonal (row {i})"
        );
    }
    let mut solve = ViaSolve::new(l, b, vec![0.0; l.rows()], ctx, schedule, flush_group);
    solve.sweep(false, "substitution", false);
    solve.finish()
}

/// A dependency-carried solve on the VIA engine (SpTRSV, SymGS): the
/// matrix, `b` and the live `x` with their placements, and the barrier
/// that orders each read behind the writes it depends on.
pub(crate) struct ViaSolve<'a> {
    e: Engine,
    via: ViaUnit,
    a: &'a Csr,
    b: &'a [f64],
    lay: CsrLayout,
    bl: VecLayout,
    xl: VecLayout,
    x: Vec<f64>,
    schedule: Schedule,
    flush_group: usize,
    guard: Option<Reg>,
}

impl<'a> ViaSolve<'a> {
    /// Places `a`, `b` and `x`, which holds the starting values.
    pub(crate) fn new(
        a: &'a Csr,
        b: &'a [f64],
        x: Vec<f64>,
        ctx: &SimContext,
        schedule: Schedule,
        flush_group: usize,
    ) -> Self {
        let n = a.rows();
        let mut e = ctx.via_engine();
        let via = ViaUnit::new(ctx.via);
        let lay = CsrLayout::new(e.alloc_mut(), a);
        let bl = VecLayout::new(e.alloc_mut(), n.max(1));
        let xl = VecLayout::new(e.alloc_mut(), n.max(1));
        ViaSolve {
            e,
            via,
            a,
            b,
            lay,
            bl,
            xl,
            x,
            schedule,
            flush_group,
            guard: None,
        }
    }

    /// One relaxation sweep, `x[i] = (b[i] - Σ_{j≠i} a[i][j]·x[j]) /
    /// a[i][i]`, one SSPM-sized segment of rows at a time (the last
    /// segment first when `backward`). With `stage`, the segment's current
    /// `x` is loaded into the SSPM first. Rows run in the schedule's order
    /// (level wavefronts of the triangle the sweep reads new values from)
    /// inside the region `region`: reads of the segment's new side come
    /// from `vldxmult.d`, every other read gathers `x` from memory, and
    /// each result goes to the SSPM only. Memory therefore keeps the
    /// pre-segment values until the segment is flushed.
    pub(crate) fn sweep(&mut self, backward: bool, region: &'static str, stage: bool) {
        let (e, via, a, x) = (&mut self.e, &mut self.via, self.a, &mut self.x);
        let levels = (self.schedule == Schedule::Levels).then(|| {
            if backward {
                LevelSchedule::from_upper(a)
            } else {
                LevelSchedule::from_lower(a)
            }
        });
        let (lay, bl, xl) = (&self.lay, &self.bl, &self.xl);
        let n = a.rows();
        let vl = e.core_config().vl as usize;
        let seg_len = via.config().entries();
        let num_segs = n.div_ceil(seg_len);
        let mut xg = Gather::with_capacity(vl);
        for s in 0..num_segs {
            let s = if backward { num_segs - 1 - s } else { s };
            let seg_start = s * seg_len;
            let seg_end = (seg_start + seg_len).min(n);
            let seg_rows = seg_end - seg_start;
            via.vldx_clear(e);
            let x_seg = xl.data.slice(seg_start, seg_rows);
            if stage {
                e.region("stage");
                let xs = &x[seg_start..seg_end];
                stage_direct(e, via, 0, x_seg, xs, self.guard.as_slice());
                e.region_end();
            }
            e.region(region);
            for group in row_groups(self.schedule, levels.as_ref(), seg_start, seg_end, backward) {
                let mut tokens: Vec<Reg> = Vec::with_capacity(group.len());
                for i in group {
                    let (cols, vals) = a.row(i);
                    let base = a.row_ptr()[i];
                    let gdeps = self.guard.as_slice();
                    let rp = e.load(lay.row_ptr.addr_of(i), 8);
                    let rp_next = e.load(lay.row_ptr.addr_of(i + 1), 8);
                    let bound = e.scalar_op(AluKind::Int, &[rp, rp_next]);
                    let mut acc_reg = e.load_dep(bl.data.addr_of(i), 8, gdeps);
                    let mut acc = self.b[i];
                    let pos_diag = cols
                        .iter()
                        .position(|&c| c as usize == i)
                        .unwrap_or_else(|| panic!("A has a missing diagonal at row {i}"));
                    let diag = vals[pos_diag];
                    assert!(diag != 0.0, "A has a zero diagonal at row {i}");
                    // The new-side in-segment range reads the SSPM;
                    // everything else (old-side, and new-side already
                    // flushed to memory) loads x from DRAM. All three ranges
                    // are contiguous in the sorted row.
                    let (sspm_lo, sspm_hi) = if backward {
                        // c > i and c < seg_end.
                        let hi = cols.partition_point(|&c| (c as usize) < seg_end);
                        (pos_diag + 1, hi)
                    } else {
                        // c < i and c >= seg_start.
                        let lo = cols.partition_point(|&c| (c as usize) < seg_start);
                        (lo, pos_diag)
                    };
                    // Neither memory range contains the diagonal, so they
                    // chunk without carve-outs.
                    let mem_ranges = [
                        (0, sspm_lo.min(pos_diag)),
                        (sspm_hi.max(pos_diag + 1), cols.len()),
                    ];
                    for (mut k, hi) in mem_ranges {
                        while k < hi {
                            let len = vl.min(hi - k);
                            let j = base + k;
                            let col_reg =
                                e.load_dep(lay.col_idx.addr_of(j), (4 * len) as u32, gdeps);
                            let val_reg = e.load(lay.data.addr_of(j), (8 * len) as u32);
                            let x_reg =
                                xg.load(e, &xl.data, indices(&cols[k..k + len]), &[col_reg]);
                            let prod = e.vec_op(VecOpKind::Mul, &[val_reg, x_reg]);
                            let red = e.vec_op(VecOpKind::Reduce, &[prod]);
                            acc_reg = e.scalar_op(AluKind::FpAdd, &[acc_reg, red]);
                            for (&c, &v) in cols[k..k + len].iter().zip(&vals[k..k + len]) {
                                acc -= v * x[c as usize];
                            }
                            e.scalar_op(AluKind::Int, &[bound]);
                            k += len;
                        }
                    }
                    let mut k = sspm_lo;
                    while k < sspm_hi {
                        let len = vl.min(sspm_hi - k);
                        let j = base + k;
                        let col_reg = e.load_dep(lay.col_idx.addr_of(j), (4 * len) as u32, gdeps);
                        let val_reg = e.load(lay.data.addr_of(j), (8 * len) as u32);
                        let idx: Vec<u32> = cols[k..k + len]
                            .iter()
                            .map(|&c| c - seg_start as u32)
                            .collect();
                        let (preg, prods) = via.vldx_alu_d(
                            e,
                            AluOp::Mult,
                            &idx,
                            &vals[k..k + len],
                            Dest::Vrf,
                            &[col_reg, val_reg],
                        );
                        let red = e.vec_op(VecOpKind::Reduce, &[preg]);
                        acc_reg = e.scalar_op(AluKind::FpAdd, &[acc_reg, red]);
                        for p in prods.expect("Dest::Vrf returns values") {
                            acc -= p;
                        }
                        e.scalar_op(AluKind::Int, &[bound]);
                        k += len;
                    }
                    let diag_reg = e.load(lay.data.addr_of(base + pos_diag), 8);
                    let q = e.scalar_op(AluKind::FpMul, &[acc_reg, diag_reg]);
                    let q = e.delay(DIV_EXTRA_CYCLES, &[q]);
                    let xi = acc / diag;
                    tokens.push(via.vldx_load_d(e, &[(i - seg_start) as u32], &[xi], &[q]));
                }
                self.guard = fold_tokens(e, self.guard, &tokens);
            }
            e.region_end();
            // Publish the segment back to memory, batching SSPM reads ahead
            // of the stores.
            e.region("flush");
            let mut flush_tokens: Vec<Reg> = Vec::new();
            let mut store = copy_and_store(&mut x[seg_start..], x_seg);
            read_direct(e, via, 0, seg_rows, self.flush_group, |e, r, reg, vals| {
                store(e, r, reg, vals);
                flush_tokens.push(reg);
            });
            self.guard = fold_tokens(e, self.guard, &flush_tokens);
            e.region_end();
        }
    }

    /// The solved `x` and the run's statistics.
    pub(crate) fn finish(self) -> KernelRun<Vec<f64>> {
        let events = self.via.events();
        KernelRun::finish_via(self.x, self.e, events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use via_formats::gen;
    use via_formats::reference;

    fn ctx() -> SimContext {
        SimContext::default()
    }

    fn tiny_ctx() -> SimContext {
        // 128 SSPM entries: a 300-row solve needs three segments.
        SimContext::with_via(via_core::ViaConfig::new(1, 2))
    }

    fn system(rows: usize, seed: u64) -> (Csr, Vec<f64>) {
        let l = gen::lower_triangular(rows, 0.06, seed);
        let b = gen::dense_vector(rows, seed + 1);
        (l, b)
    }

    #[test]
    fn scalar_matches_reference_under_both_schedules() {
        let (l, b) = system(96, 42);
        let want = reference::sptrsv(&l, &b);
        for schedule in [Schedule::RowSerial, Schedule::Levels] {
            let run = scalar_with(&l, &b, &ctx(), schedule);
            assert!(
                via_formats::vec_approx_eq(&run.output, &want, 1e-9),
                "scalar {} wrong",
                schedule.name()
            );
            assert!(run.stats.cycles > 0);
        }
    }

    #[test]
    fn via_matches_reference_under_both_schedules() {
        let (l, b) = system(300, 42);
        let want = reference::sptrsv(&l, &b);
        for c in [ctx(), tiny_ctx()] {
            for schedule in [Schedule::RowSerial, Schedule::Levels] {
                let run = via_sspm_with(&l, &b, &c, schedule, 8);
                assert!(
                    via_formats::vec_approx_eq(&run.output, &want, 1e-9),
                    "via {} wrong for {}",
                    schedule.name(),
                    c.via.name()
                );
                assert!(run.stats.custom_ops > 0);
            }
        }
    }

    #[test]
    fn both_schedules_compute_identical_values() {
        // Level order respects every true dependency, so the floating-point
        // result is bitwise identical, not just close.
        let (l, b) = system(128, 7);
        let serial = scalar_with(&l, &b, &ctx(), Schedule::RowSerial);
        let levels = scalar_with(&l, &b, &ctx(), Schedule::Levels);
        assert_eq!(serial.output, levels.output);
        let serial = via_sspm_with(&l, &b, &ctx(), Schedule::RowSerial, 8);
        let levels = via_sspm_with(&l, &b, &ctx(), Schedule::Levels, 8);
        assert_eq!(serial.output, levels.output);
    }

    #[test]
    fn level_scheduling_beats_row_serial() {
        // A random lower-triangular matrix has far fewer levels than rows,
        // so the wavefront schedule must beat the serialized sweep.
        let (l, b) = system(192, 3);
        let sched = via_formats::LevelSchedule::from_lower(&l);
        assert!(sched.avg_parallelism() > 2.0, "test matrix too serial");
        let serial = scalar_with(&l, &b, &ctx(), Schedule::RowSerial);
        let levels = scalar_with(&l, &b, &ctx(), Schedule::Levels);
        assert!(
            levels.cycles() < serial.cycles(),
            "levels ({}) should beat row-serial ({})",
            levels.cycles(),
            serial.cycles()
        );
    }

    #[test]
    fn default_wrappers_match_the_knobbed_entry_points() {
        let (l, b) = system(96, 11);
        let c = ctx().with_recording();
        let hash =
            |run: &KernelRun<Vec<f64>>| run.compiled.as_ref().expect("recording").stream_hash();
        assert_eq!(
            hash(&scalar(&l, &b, &c)),
            hash(&scalar_with(&l, &b, &c, Schedule::RowSerial))
        );
        assert_eq!(
            hash(&via_sspm(&l, &b, &c)),
            hash(&via_sspm_with(&l, &b, &c, Schedule::RowSerial, 8))
        );
    }

    #[test]
    fn rejects_non_triangular_input() {
        let a = gen::uniform(16, 16, 0.2, 5);
        let b = gen::dense_vector(16, 6);
        let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| scalar(&a, &b, &ctx())));
        assert!(got.is_err(), "upper entries must be rejected");
    }

    #[test]
    fn emitted_streams_verify_clean() {
        use via_sim::verify;
        let _guard = verify::capture_guard();
        let (l, b) = system(96, 42);
        for schedule in [Schedule::RowSerial, Schedule::Levels] {
            scalar_with(&l, &b, &ctx(), schedule);
            via_sspm_with(&l, &b, &ctx(), schedule, 8);
            via_sspm_with(&l, &b, &tiny_ctx(), schedule, 4);
        }
        let reports = verify::drain_captured();
        assert!(reports.len() >= 6, "one report per engine");
        for r in &reports {
            assert!(r.is_clean(), "{}", r.render());
        }
    }
}
