//! Static analysis over every shipped kernel: the cycle lower bound must
//! hold against the simulated run, every finding must survive its
//! brute-force oracle (zero false positives against the replay trace), and
//! the emitted streams must be free of dead register writes and unordered
//! must-alias conflicts. Dead stores are pinned to zero for *every* kernel:
//! the two oracle-confirmed offenders from the PR 7 audit (`spmm::via_cam`
//! overwriting staged output rows, `spmspv::spa_dense` resetting occupancy
//! flags nothing reads again) have been fixed at the source, so a nonzero
//! count anywhere is a regression.

use via_formats::{gen, Csb};
use via_kernels::{histogram, spma, spmm, spmspv, spmv, sptrsv, stencil, symgs};
use via_kernels::{KernelRun, Schedule, SimContext};
use via_rng::StdRng;
use via_sim::analyze;
use via_sim::CoreConfig;

/// Analyzes a recorded kernel run and asserts every *soundness* property:
/// the static bound never exceeds the simulated cycles, every finding
/// (with the exemplar cap lifted, so **all** of them) survives its
/// brute-force oracle, no dead register writes, and no unordered
/// must-alias conflicts. Returns the report so callers can pin the
/// kernel-specific expectations (e.g. known dead-store patterns).
fn assert_analyzes_sound<T>(
    name: &str,
    ctx: &SimContext,
    run: &KernelRun<T>,
) -> via_sim::AnalysisReport {
    let stream = run.compiled.as_ref().expect("recording context compiles");
    let is_via = run.sspm_events.is_some();
    let mut cfg = ctx.analyze_config(run);
    cfg.max_exemplars = usize::MAX; // validate every finding, not a sample
    let report = analyze::analyze(stream, &cfg);

    assert!(
        report.bound.lower_cycles <= run.stats.cycles,
        "{name}: static bound {} exceeds simulated {} (terms: {:?})",
        report.bound.lower_cycles,
        run.stats.cycles,
        report.bound
    );
    assert!(report.bound.lower_cycles > 0, "{name}: vacuous bound");
    analyze::validate(stream, &report).unwrap_or_else(|e| panic!("{name}: refuted finding: {e}"));

    assert_eq!(report.dead_writes, 0, "{name}: dead register writes");
    assert_eq!(report.alias_conflicts, 0, "{name}: must-alias conflicts");
    assert!(run.stats.l1.accesses() > 0, "{name}: no memory traffic");
    if is_via {
        assert!(
            report.cam.proven_no_overflow.is_some(),
            "{name}: VIA run must carry a CAM verdict"
        );
    }
    report
}

/// Like [`assert_analyzes_sound`], additionally requiring zero dead
/// stores — the expectation for kernels without a store-overwrite
/// accumulation pattern.
fn assert_analyzes_clean<T>(name: &str, ctx: &SimContext, run: KernelRun<T>) {
    let report = assert_analyzes_sound(name, ctx, &run);
    assert_eq!(report.dead_stores, 0, "{name}: dead stores");
}

#[test]
fn spmv_streams_analyze_clean() {
    let ctx = SimContext::default().with_recording();
    let a = gen::uniform(96, 96, 0.04, 11);
    let x: Vec<f64> = (0..a.cols())
        .map(|i| ((i % 13) as f64) * 0.25 - 1.5)
        .collect();
    assert_analyzes_clean("spmv::csr_vec", &ctx, spmv::csr_vec(&a, &x, &ctx));
    let csb = Csb::from_csr(&a, ctx.via.csb_block_size()).unwrap();
    assert_analyzes_clean("spmv::via_csb", &ctx, spmv::via_csb(&csb, &x, &ctx));
}

#[test]
fn spma_streams_analyze_clean() {
    let ctx = SimContext::default().with_recording();
    let a = gen::uniform(96, 96, 0.04, 11);
    let b = gen::uniform(96, 96, 0.04, 12);
    assert_analyzes_clean("spma::merge_csr", &ctx, spma::merge_csr(&a, &b, &ctx));
    assert_analyzes_clean("spma::via_cam", &ctx, spma::via_cam(&a, &b, &ctx));
}

#[test]
fn spmm_streams_analyze_clean() {
    let ctx = SimContext::default().with_recording();
    let a = gen::uniform(48, 48, 0.06, 21);
    let b = gen::uniform(48, 48, 0.06, 22).to_csc();
    assert_analyzes_clean(
        "spmm::inner_product",
        &ctx,
        spmm::inner_product(&a, &b, &ctx),
    );
    // via_cam now appends flushed tiles at a globally monotonic output
    // cursor, so no staged row is ever overwritten: the PR 7 dead stores
    // are gone and the stream must analyze clean.
    assert_analyzes_clean("spmm::via_cam", &ctx, spmm::via_cam(&a, &b, &ctx));
}

#[test]
fn spmspv_streams_analyze_clean() {
    let ctx = SimContext::default().with_recording();
    let a = gen::uniform(96, 96, 0.05, 31).to_csc();
    let x = spmspv::SparseVector::from_pairs((0..12).map(|i| (i * 7 % 96, 1.0 + i as f64)));
    // spa_dense no longer resets its occupancy flags after the compact
    // phase (nothing read the resets, which in turn killed the set-stores
    // of once-touched rows), so the stream must analyze clean.
    assert_analyzes_clean("spmspv::spa_dense", &ctx, spmspv::spa_dense(&a, &x, &ctx));
    assert_analyzes_clean("spmspv::via_cam", &ctx, spmspv::via_cam(&a, &x, &ctx));
}

#[test]
fn sptrsv_streams_analyze_clean() {
    let ctx = SimContext::default().with_recording();
    let l = gen::lower_triangular(96, 0.06, 11);
    let b = gen::dense_vector(96, 12);
    for schedule in [Schedule::RowSerial, Schedule::Levels] {
        assert_analyzes_clean(
            &format!("sptrsv::scalar[{}]", schedule.name()),
            &ctx,
            sptrsv::scalar_with(&l, &b, &ctx, schedule),
        );
        assert_analyzes_clean(
            &format!("sptrsv::via_sspm[{}]", schedule.name()),
            &ctx,
            sptrsv::via_sspm_with(&l, &b, &ctx, schedule, 8),
        );
    }
}

#[test]
fn symgs_streams_analyze_clean() {
    let ctx = SimContext::default().with_recording();
    let a = gen::make_diagonally_dominant(&gen::uniform(96, 96, 0.05, 11));
    let b = gen::dense_vector(96, 12);
    let x0 = gen::dense_vector(96, 13);
    for schedule in [Schedule::RowSerial, Schedule::Levels] {
        assert_analyzes_clean(
            &format!("symgs::scalar[{}]", schedule.name()),
            &ctx,
            symgs::scalar_with(&a, &b, &x0, &ctx, schedule),
        );
        assert_analyzes_clean(
            &format!("symgs::via_sspm[{}]", schedule.name()),
            &ctx,
            symgs::via_sspm_with(&a, &b, &x0, &ctx, schedule, 8),
        );
    }
}

#[test]
fn histogram_streams_analyze_clean() {
    let ctx = SimContext::default().with_recording();
    let mut rng = StdRng::seed_from_u64(0xC0);
    let keys: Vec<u32> = (0..1000).map(|_| rng.random_range(0u32..256)).collect();
    assert_analyzes_clean(
        "histogram::vector_cd",
        &ctx,
        histogram::vector_cd(&keys, 256, &ctx),
    );
    assert_analyzes_clean("histogram::via", &ctx, histogram::via(&keys, 256, &ctx));
}

#[test]
fn stencil_streams_analyze_clean() {
    let ctx = SimContext::default().with_recording();
    let side = 20;
    let image: Vec<f64> = (0..side * side).map(|i| ((i % 17) as f64) * 0.5).collect();
    let filter = stencil::gaussian4();
    assert_analyzes_clean(
        "stencil::vector",
        &ctx,
        stencil::vector(&image, side, side, &filter, &ctx),
    );
    assert_analyzes_clean(
        "stencil::via",
        &ctx,
        stencil::via(&image, side, side, &filter, &ctx),
    );
}

/// The wide-vector configuration exercises a different machine shape
/// (vl = 8); the bound must hold there too.
#[test]
fn wide_vector_bound_holds() {
    let ctx = SimContext {
        core: CoreConfig::default().wide_vectors(),
        ..SimContext::default()
    }
    .with_recording();
    let a = gen::uniform(64, 64, 0.05, 7);
    let x: Vec<f64> = (0..a.cols()).map(|i| i as f64 * 0.5).collect();
    assert_analyzes_clean("spmv::csr_vec[wide]", &ctx, spmv::csr_vec(&a, &x, &ctx));
}
