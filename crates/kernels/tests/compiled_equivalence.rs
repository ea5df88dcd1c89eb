//! Compiled-path equivalence: for every kernel family, the recorded
//! (compile) run and the replay of its [`CompiledStream`] must be
//! bit-identical to the plain interpreted run — same cycles and full
//! [`RunStats`], same stall-cause breakdown, and same captured verify
//! diagnostics (the replay re-verifies every instruction it replays).
//! The compile/replay split is a pure performance transformation; any
//! divergence here means it changed what is simulated or checked.

use via_formats::{gen, Csb};
use via_kernels::{histogram, spma, spmm, spmspv, spmv, sptrsv, ssr, stencil, symgs};
use via_kernels::{KernelRun, Schedule, SimContext, TraceOptions};
use via_rng::StdRng;
use via_sim::verify;
use via_sim::Engine;

/// Runs `run_kernel` interpreted, then recorded (compile), then replays
/// the compiled stream on a fresh engine from `replay_engine`, asserting
/// every observable — output, statistics, stall attribution, captured
/// verify reports — is bit-identical across the three paths, and that a
/// second compile reproduces the stream (and its hash) exactly.
fn assert_equivalent<T: PartialEq + std::fmt::Debug>(
    name: &str,
    run_kernel: impl Fn(&SimContext) -> KernelRun<T>,
    replay_engine: impl Fn(&SimContext) -> Engine,
) {
    let ctx = SimContext::default().with_trace(TraceOptions::accounting());

    let guard = verify::capture_guard();
    let interp = run_kernel(&ctx);
    let interp_reports = verify::drain_captured();
    drop(guard);
    assert_eq!(interp_reports.len(), 1, "{name}: one engine, one report");

    let guard = verify::capture_guard();
    let rec = run_kernel(&ctx.clone().with_recording());
    let rec_reports = verify::drain_captured();
    drop(guard);
    let stream = rec.compiled.expect("recording context must compile");

    assert!(
        interp.compiled.is_none(),
        "{name}: plain run must not record"
    );
    assert_eq!(rec.output, interp.output, "{name}: outputs diverged");
    assert_eq!(rec.stats, interp.stats, "{name}: recording changed stats");
    assert_eq!(rec.stall, interp.stall, "{name}: recording changed stalls");
    assert_eq!(
        rec.sspm_events, interp.sspm_events,
        "{name}: recording changed SSPM events"
    );
    assert_eq!(
        rec_reports, interp_reports,
        "{name}: recording changed verify reports"
    );
    assert_eq!(stream.len() as u64, interp.stats.instructions);

    let guard = verify::capture_guard();
    let mut e = replay_engine(&ctx);
    e.replay(&stream);
    let stall = e.stall_report();
    let stats = e.finish();
    let replay_reports = verify::drain_captured();
    drop(guard);

    assert_eq!(stats, interp.stats, "{name}: replay stats diverged");
    assert_eq!(
        stall, interp.stall,
        "{name}: replay stall breakdown diverged"
    );
    assert_eq!(
        replay_reports, interp_reports,
        "{name}: replay verify reports diverged"
    );
    let rec2 = run_kernel(&ctx.clone().with_recording());
    let stream2 = rec2.compiled.expect("recording context must compile");
    assert_eq!(
        stream2, stream,
        "{name}: recording must be deterministic (instructions, events, \
         and stream hash all equal across compiles)"
    );
}

fn xvec(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i % 13) as f64) * 0.25 - 1.5).collect()
}

#[test]
fn spmv_compiled_paths_are_equivalent() {
    let a = gen::uniform(96, 96, 0.04, 11);
    let x = xvec(a.cols());
    assert_equivalent(
        "spmv::csr_vec",
        |ctx| spmv::csr_vec(&a, &x, ctx),
        SimContext::baseline_engine,
    );
    let csb = Csb::from_csr(&a, SimContext::default().via.csb_block_size()).unwrap();
    assert_equivalent(
        "spmv::via_csb",
        |ctx| spmv::via_csb(&csb, &x, ctx),
        SimContext::via_engine,
    );
}

#[test]
fn spma_compiled_paths_are_equivalent() {
    let a = gen::uniform(96, 96, 0.04, 11);
    let b = gen::uniform(96, 96, 0.04, 12);
    assert_equivalent(
        "spma::merge_csr",
        |ctx| spma::merge_csr(&a, &b, ctx),
        SimContext::baseline_engine,
    );
    assert_equivalent(
        "spma::via_cam",
        |ctx| spma::via_cam(&a, &b, ctx),
        SimContext::via_engine,
    );
}

#[test]
fn spmm_compiled_paths_are_equivalent() {
    let a = gen::uniform(48, 48, 0.06, 21);
    let b = gen::uniform(48, 48, 0.06, 22).to_csc();
    assert_equivalent(
        "spmm::inner_product",
        |ctx| spmm::inner_product(&a, &b, ctx),
        SimContext::baseline_engine,
    );
    assert_equivalent(
        "spmm::via_cam",
        |ctx| spmm::via_cam(&a, &b, ctx),
        SimContext::via_engine,
    );
}

#[test]
fn spmspv_compiled_paths_are_equivalent() {
    let a = gen::uniform(96, 96, 0.05, 31).to_csc();
    let x = spmspv::SparseVector::from_pairs((0..12).map(|i| (i * 7 % 96, 1.0 + i as f64)));
    assert_equivalent(
        "spmspv::spa_dense",
        |ctx| spmspv::spa_dense(&a, &x, ctx),
        SimContext::baseline_engine,
    );
    assert_equivalent(
        "spmspv::via_cam",
        |ctx| spmspv::via_cam(&a, &x, ctx),
        SimContext::via_engine,
    );
}

#[test]
fn sptrsv_compiled_paths_are_equivalent() {
    let l = gen::lower_triangular(96, 0.06, 11);
    let b = gen::dense_vector(96, 12);
    assert_equivalent(
        "sptrsv::scalar[levels]",
        |ctx| sptrsv::scalar_with(&l, &b, ctx, Schedule::Levels),
        SimContext::baseline_engine,
    );
    assert_equivalent(
        "sptrsv::via_sspm[levels]",
        |ctx| sptrsv::via_sspm_with(&l, &b, ctx, Schedule::Levels, 8),
        SimContext::via_engine,
    );
}

#[test]
fn symgs_compiled_paths_are_equivalent() {
    let a = gen::make_diagonally_dominant(&gen::uniform(96, 96, 0.05, 11));
    let b = gen::dense_vector(96, 12);
    let x0 = gen::dense_vector(96, 13);
    assert_equivalent(
        "symgs::scalar[row_serial]",
        |ctx| symgs::scalar(&a, &b, &x0, ctx),
        SimContext::baseline_engine,
    );
    assert_equivalent(
        "symgs::via_sspm[levels]",
        |ctx| symgs::via_sspm_with(&a, &b, &x0, ctx, Schedule::Levels, 8),
        SimContext::via_engine,
    );
}

#[test]
fn histogram_compiled_paths_are_equivalent() {
    let mut rng = StdRng::seed_from_u64(0xC0);
    let keys: Vec<u32> = (0..1000).map(|_| rng.random_range(0u32..256)).collect();
    assert_equivalent(
        "histogram::vector_cd",
        |ctx| histogram::vector_cd(&keys, 256, ctx),
        SimContext::baseline_engine,
    );
    assert_equivalent(
        "histogram::via",
        |ctx| histogram::via(&keys, 256, ctx),
        SimContext::via_engine,
    );
}

#[test]
fn ssr_compiled_paths_are_equivalent() {
    let a = gen::uniform(96, 96, 0.04, 11);
    let x = xvec(a.cols());
    assert_equivalent(
        "ssr::spmv_csr",
        |ctx| ssr::spmv_csr(&a, &x, ctx),
        SimContext::ssr_engine,
    );
    let a2 = gen::uniform(48, 48, 0.06, 21);
    let b = gen::uniform(48, 48, 0.06, 22);
    assert_equivalent(
        "ssr::spmm_gustavson",
        |ctx| ssr::spmm_gustavson(&a2, &b, ctx),
        SimContext::ssr_engine,
    );
}

#[test]
fn stencil_compiled_paths_are_equivalent() {
    let side = 20;
    let image: Vec<f64> = (0..side * side).map(|i| ((i % 17) as f64) * 0.5).collect();
    let filter = stencil::gaussian4();
    assert_equivalent(
        "stencil::vector",
        |ctx| stencil::vector(&image, side, side, &filter, ctx),
        SimContext::baseline_engine,
    );
    assert_equivalent(
        "stencil::via",
        |ctx| stencil::via(&image, side, side, &filter, ctx),
        SimContext::via_engine,
    );
}
