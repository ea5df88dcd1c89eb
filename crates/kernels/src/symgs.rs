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
//! `x` from DRAM regardless of schedule.
//!
//! Each kernel's forward sweep is the matching [`crate::sptrsv`] kernel's
//! substitution: [`scalar`] adds the snapshot and the forward sweep's
//! store elision, [`via_sspm`] stages each segment's `x` first.
//!
//! [`LevelSchedule::from_lower`]: via_formats::LevelSchedule::from_lower
//! [`LevelSchedule::from_upper`]: via_formats::LevelSchedule::from_upper

use crate::context::{KernelRun, SimContext};
use crate::sptrsv::{ScalarSolve, Schedule, ViaSolve};
use via_formats::Csr;

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
    let mut solve = ScalarSolve::new(a, b, x0.to_vec(), ctx, schedule);
    solve.sweep(false, "forward sweep", true);
    solve.sweep(true, "backward sweep", true);
    solve.finish()
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
