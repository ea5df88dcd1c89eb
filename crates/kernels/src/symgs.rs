//! SymGS kernels: one symmetric Gauss–Seidel sweep (forward then backward)
//! of `A x ≈ b` — the smoother at the heart of HPCG and multigrid
//! preconditioners, and the second dependency-carried kernel family next
//! to [`crate::sptrsv`].
//!
//! A forward sweep relaxes `x[i] = (b[i] - Σ_{j≠i} A[i][j]·x[j]) / A[i][i]`
//! in row order: reads below the diagonal see *this* sweep's values, reads
//! above it see the *previous* state. The backward sweep mirrors that. The
//! new-side reads are the SpTRSV dependency chain, so the same
//! [`Schedule`] knob applies:
//!
//! * [`Schedule::RowSerial`] — sequential rows; indexed reads wait
//!   conservatively on the previous row's update (store-to-load ordering).
//! * [`Schedule::Levels`] — wavefronts from the strict lower
//!   ([`LevelSchedule::from_lower`]) / upper ([`LevelSchedule::from_upper`])
//!   triangle. To keep old-side reads order-independent, the sweep first
//!   snapshots `x` and serves them from the copy — extra traffic that the
//!   wavefront overlap has to pay for (a real tuning trade-off).
//!
//! [`via_sspm`] keeps the active `x` segment in the SSPM: new-side
//! in-segment products come from `vldxmult.d`, while *memory* doubles as
//! the old-value snapshot for free — the segment flush only publishes new
//! values after the whole segment is relaxed, so old-side reads just load
//! `x` from DRAM regardless of schedule. Its forward sweep is
//! [`crate::sptrsv::via_sspm`]'s, staging each segment's `x` first.

use crate::context::{KernelRun, SimContext};
use crate::layout::{CsrLayout, VecLayout};
use crate::sptrsv::{fold_tokens, row_groups, Schedule, ViaSolve, DIV_EXTRA_CYCLES};
use via_formats::{Csr, LevelSchedule};
use via_sim::{AluKind, Engine, Reg};

fn check_inputs(a: &Csr, b: &[f64], x0: &[f64]) {
    assert_eq!(a.rows(), a.cols(), "A must be square");
    assert_eq!(b.len(), a.rows(), "b length must equal matrix rows");
    assert_eq!(x0.len(), a.rows(), "x0 length must equal matrix rows");
}

/// One scalar symmetric Gauss–Seidel sweep in row-serial order.
/// Equivalent to [`scalar_with`]`(a, b, x0, ctx, Schedule::RowSerial)`.
///
/// # Panics
///
/// Panics if `a` is not square with a full non-zero diagonal, or on a
/// `b`/`x0` length mismatch.
pub fn scalar(a: &Csr, b: &[f64], x0: &[f64], ctx: &SimContext) -> KernelRun<Vec<f64>> {
    scalar_with(a, b, x0, ctx, Schedule::RowSerial)
}

/// One scalar symmetric Gauss–Seidel sweep with an explicit [`Schedule`]
/// knob. Both schedules compute bitwise-identical values (the level
/// variant reads old-side values from a snapshot, so reordering cannot
/// observe a partially updated `x`).
///
/// # Panics
///
/// Panics as [`scalar`].
pub fn scalar_with(
    a: &Csr,
    b: &[f64],
    x0: &[f64],
    ctx: &SimContext,
    schedule: Schedule,
) -> KernelRun<Vec<f64>> {
    check_inputs(a, b, x0);
    let n = a.rows();
    let mut e = ctx.baseline_engine();
    let lay = CsrLayout::new(e.alloc_mut(), a);
    let bl = VecLayout::new(e.alloc_mut(), n.max(1));
    let xl = VecLayout::new(e.alloc_mut(), n.max(1));
    // Old-value snapshot, used by the level schedule only.
    let sl = VecLayout::new(e.alloc_mut(), n.max(1));

    let mut x = x0.to_vec();
    let fwd_sched = (schedule == Schedule::Levels).then(|| LevelSchedule::from_lower(a));
    let bwd_sched = (schedule == Schedule::Levels).then(|| LevelSchedule::from_upper(a));
    let mut guard: Option<Reg> = None;
    scalar_sweep(
        &mut e,
        a,
        b,
        &lay,
        &bl,
        &xl,
        &sl,
        &mut x,
        schedule,
        fwd_sched.as_ref(),
        false,
        &mut guard,
        ctx.vl(),
    );
    scalar_sweep(
        &mut e,
        a,
        b,
        &lay,
        &bl,
        &xl,
        &sl,
        &mut x,
        schedule,
        bwd_sched.as_ref(),
        true,
        &mut guard,
        ctx.vl(),
    );
    KernelRun::finish_baseline(x, e)
}

#[allow(clippy::too_many_arguments)]
fn scalar_sweep(
    e: &mut Engine,
    a: &Csr,
    b: &[f64],
    lay: &CsrLayout,
    bl: &VecLayout,
    xl: &VecLayout,
    sl: &VecLayout,
    x: &mut [f64],
    schedule: Schedule,
    levels: Option<&LevelSchedule>,
    backward: bool,
    guard: &mut Option<Reg>,
    vl: usize,
) {
    let n = a.rows();
    // Functional old-side values: what x held when the sweep began. Under
    // either schedule an old-side read must see the pre-sweep value, which
    // the live array no longer guarantees once rows are reordered.
    let x_old: Vec<f64> = x.to_vec();
    // Forward store elision: a forward x[i] update is only ever read
    // through memory by rows j > i whose row carries an entry in column i
    // (forward new-side reads, backward old-side reads, and the backward
    // snapshot's copied chunks all reduce to that same set). Rows without
    // such a reader keep their update in a register and skip the store —
    // the backward sweep rewrites x[i] before anyone could observe it.
    let read_later: Option<Vec<bool>> = (!backward).then(|| {
        let mut read = vec![false; n];
        for i in 0..n {
            for &c in a.row(i).0 {
                if (c as usize) < i {
                    read[c as usize] = true;
                }
            }
        }
        read
    });
    // Level mode: snapshot x so old-side reads are order-independent. Only
    // chunks that contain at least one old-side-read element are copied —
    // the rest would be overwritten by the next sweep's snapshot unread.
    let snap_bar = if schedule == Schedule::Levels {
        let mut old_read = vec![false; n];
        for i in 0..n {
            for &c in a.row(i).0 {
                let c = c as usize;
                if if backward { c < i } else { c > i } {
                    old_read[c] = true;
                }
            }
        }
        e.region(if backward {
            "snapshot (backward)"
        } else {
            "snapshot (forward)"
        });
        let mut tokens: Vec<Reg> = Vec::new();
        let mut r = 0usize;
        while r < n {
            let len = vl.min(n - r);
            if old_read[r..r + len].iter().any(|&b| b) {
                let gdeps: &[Reg] = match guard {
                    Some(g) => std::slice::from_ref(g),
                    None => &[],
                };
                let ld = e.load_dep(xl.data.addr_of(r), (8 * len) as u32, gdeps);
                e.store(sl.data.addr_of(r), (8 * len) as u32, &[ld]);
                tokens.push(ld);
            }
            r += len;
        }
        e.region_end();
        fold_tokens(e, *guard, &tokens)
    } else {
        None
    };
    e.region(if backward {
        "backward sweep"
    } else {
        "forward sweep"
    });
    for group in row_groups(schedule, levels, 0, n, backward) {
        let mut tokens: Vec<Reg> = Vec::with_capacity(group.len());
        for i in group {
            let (cols, vals) = a.row(i);
            let base = a.row_ptr()[i];
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
                if c == i {
                    diag = v;
                    diag_reg = val_reg;
                } else {
                    let new_side = if backward { c > i } else { c < i };
                    let x_reg = if new_side || schedule == Schedule::RowSerial {
                        // New-side read (or any indexed read under the
                        // conservative row-serial ordering): behind the
                        // schedule's barrier.
                        let mut deps = [col_reg, col_reg];
                        let mut nd = 1;
                        if let Some(g) = *guard {
                            deps[1] = g;
                            nd = 2;
                        }
                        e.load_dep(xl.data.addr_of(c), 8, &deps[..nd])
                    } else {
                        // Old-side read under the level schedule: from the
                        // snapshot, behind the copy barrier only.
                        let mut deps = [col_reg, col_reg];
                        let mut nd = 1;
                        if let Some(sb) = snap_bar {
                            deps[1] = sb;
                            nd = 2;
                        }
                        e.load_dep(sl.data.addr_of(c), 8, &deps[..nd])
                    };
                    acc_reg = e.scalar_op(AluKind::FpFma, &[val_reg, x_reg, acc_reg]);
                    acc -= v * if new_side { x[c] } else { x_old[c] };
                }
                e.scalar_op(AluKind::Int, &[bound]);
            }
            assert!(diag != 0.0, "A has a zero/missing diagonal at row {i}");
            let q = e.scalar_op(AluKind::FpMul, &[acc_reg, diag_reg]);
            let q = e.delay(DIV_EXTRA_CYCLES, &[q]);
            x[i] = acc / diag;
            if read_later.as_ref().is_none_or(|r| r[i]) {
                e.store(xl.data.addr_of(i), 8, &[q]);
            }
            tokens.push(q);
        }
        *guard = fold_tokens(e, *guard, &tokens);
    }
    e.region_end();
}

/// One VIA symmetric Gauss–Seidel sweep in row-serial order with the
/// default flush group. Equivalent to
/// [`via_sspm_with`]`(a, b, x0, ctx, Schedule::RowSerial, 8)`.
///
/// # Panics
///
/// Panics as [`scalar`].
pub fn via_sspm(a: &Csr, b: &[f64], x0: &[f64], ctx: &SimContext) -> KernelRun<Vec<f64>> {
    via_sspm_with(a, b, x0, ctx, Schedule::RowSerial, 8)
}

/// One VIA symmetric Gauss–Seidel sweep: the active `x` segment lives in
/// the SSPM; new-side in-segment products come from `vldxmult.d`
/// (`Dest::Vrf`), every other read loads `x` from memory — which still
/// holds the pre-segment values, so memory *is* the old-value snapshot
/// and both schedules compute identical results without extra copies.
///
/// # Panics
///
/// Panics as [`scalar`], or if `flush_group == 0`.
pub fn via_sspm_with(
    a: &Csr,
    b: &[f64],
    x0: &[f64],
    ctx: &SimContext,
    schedule: Schedule,
    flush_group: usize,
) -> KernelRun<Vec<f64>> {
    check_inputs(a, b, x0);
    assert!(flush_group > 0, "flush_group must be positive");
    let mut solve = ViaSolve::new(a, b, x0.to_vec(), ctx, schedule, flush_group);
    solve.sweep(false, "forward sweep", true);
    solve.sweep(true, "backward sweep", true);
    solve.finish()
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
        // 128 SSPM entries: a 300-row sweep needs three segments.
        SimContext::with_via(via_core::ViaConfig::new(1, 2))
    }

    fn system(rows: usize, seed: u64) -> (Csr, Vec<f64>, Vec<f64>) {
        let a = gen::make_diagonally_dominant(&gen::uniform(rows, rows, 0.05, seed));
        let b = gen::dense_vector(rows, seed + 1);
        let x0 = gen::dense_vector(rows, seed + 2);
        (a, b, x0)
    }

    fn want(a: &Csr, b: &[f64], x0: &[f64]) -> Vec<f64> {
        let mut x = x0.to_vec();
        reference::symgs(a, b, &mut x);
        x
    }

    #[test]
    fn scalar_matches_reference_under_both_schedules() {
        let (a, b, x0) = system(96, 42);
        let want = want(&a, &b, &x0);
        for schedule in [Schedule::RowSerial, Schedule::Levels] {
            let run = scalar_with(&a, &b, &x0, &ctx(), schedule);
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
        let (a, b, x0) = system(300, 42);
        let want = want(&a, &b, &x0);
        for c in [ctx(), tiny_ctx()] {
            for schedule in [Schedule::RowSerial, Schedule::Levels] {
                let run = via_sspm_with(&a, &b, &x0, &c, schedule, 8);
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
        // The snapshot (scalar) / memory-as-snapshot (VIA) old-side reads
        // make the result schedule-independent — bitwise, not just close.
        let (a, b, x0) = system(128, 7);
        let serial = scalar_with(&a, &b, &x0, &ctx(), Schedule::RowSerial);
        let levels = scalar_with(&a, &b, &x0, &ctx(), Schedule::Levels);
        assert_eq!(serial.output, levels.output);
        let serial = via_sspm_with(&a, &b, &x0, &ctx(), Schedule::RowSerial, 8);
        let levels = via_sspm_with(&a, &b, &x0, &ctx(), Schedule::Levels, 8);
        assert_eq!(serial.output, levels.output);
    }

    #[test]
    fn a_sweep_reduces_the_residual() {
        let (a, b, x0) = system(96, 5);
        let run = scalar(&a, &b, &x0, &ctx());
        let norm = |x: &[f64]| {
            let ax = reference::spmv(&a, x);
            ax.iter()
                .zip(&b)
                .map(|(y, bi)| (y - bi) * (y - bi))
                .sum::<f64>()
                .sqrt()
        };
        assert!(
            norm(&run.output) < 0.5 * norm(&x0),
            "one symmetric sweep should shrink the residual substantially"
        );
    }

    #[test]
    fn default_wrappers_match_the_knobbed_entry_points() {
        let (a, b, x0) = system(96, 11);
        let c = ctx().with_recording();
        let hash =
            |run: &KernelRun<Vec<f64>>| run.compiled.as_ref().expect("recording").stream_hash();
        assert_eq!(
            hash(&scalar(&a, &b, &x0, &c)),
            hash(&scalar_with(&a, &b, &x0, &c, Schedule::RowSerial))
        );
        assert_eq!(
            hash(&via_sspm(&a, &b, &x0, &c)),
            hash(&via_sspm_with(&a, &b, &x0, &c, Schedule::RowSerial, 8))
        );
    }

    #[test]
    fn emitted_streams_verify_clean() {
        use via_sim::verify;
        let _guard = verify::capture_guard();
        let (a, b, x0) = system(96, 42);
        for schedule in [Schedule::RowSerial, Schedule::Levels] {
            scalar_with(&a, &b, &x0, &ctx(), schedule);
            via_sspm_with(&a, &b, &x0, &ctx(), schedule, 8);
            via_sspm_with(&a, &b, &x0, &tiny_ctx(), schedule, 4);
        }
        let reports = verify::drain_captured();
        assert!(reports.len() >= 6, "one report per engine");
        for r in &reports {
            assert!(r.is_clean(), "{}", r.render());
        }
    }
}
