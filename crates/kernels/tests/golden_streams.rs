//! Golden stream snapshots for every VIA kernel that reads its SSPM out,
//! and for the baseline and SSR kernels that share their idioms.
//!
//! Each VIA kernel ends a segment by reading the scratchpad back with
//! batched `vldxmov.d` reads (in CAM mode, `vldxcount` then
//! `vldxloadidx`/`vldxmov.d` pairs) ahead of the stores that consume them.
//! The first pin covers every such read-out: each kernel runs on small
//! fixed inputs under the default 16 KB SSPM and under a 4 KB SSPM (where
//! a segment is read out more than once), and the tunable flush groups run
//! at 1 and 3 as well as 8, so a batch boundary that moves shows up. The
//! second pin covers the baseline and SSR kernels (x gathers, the
//! Sell-C-σ and AVX-512CD store-buffer drain, Gustavson's sparse
//! accumulator, the scalar SpTRSV and SymGS sweeps) under the default
//! machine. Every run is recorded, and one FNV-1a over the `{:?}` of every
//! run's `(stream_hash, cycles)` is pinned per test: a changed
//! instruction, order, register, region or cycle count anywhere moves it.
//!
//! If a change is *meant* to alter an emitted stream, update the pin in
//! the same commit and say so; an unexplained diff here is a regression.

use via_core::ViaConfig;
use via_formats::{gen, Csb, Csr, SellCSigma, Spc5};
use via_kernels::spmspv::SparseVector;
use via_kernels::{histogram, spma, spmm, spmspv, spmv, sptrsv, ssr, stencil, symgs};
use via_kernels::{KernelRun, Schedule, SimContext};
use via_rng::StdRng;
use via_sim::fnv1a64;

/// The recorded stream's hash and the run's cycle count.
fn pin<T>(run: KernelRun<T>) -> (u64, u64) {
    let stream = run.compiled.as_ref().expect("recording context compiles");
    (stream.stream_hash(), run.cycles())
}

fn xvec(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i % 13) as f64) * 0.25 - 1.5).collect()
}

fn frontier(n: usize, k: usize, seed: u64) -> SparseVector {
    SparseVector::from_pairs((0..k).map(|i| {
        let idx = ((i as u64 * 2_654_435_761 + seed) % n as u64) as usize;
        (idx, 1.0 + i as f64 * 0.125)
    }))
}

/// Every read-out kernel under `ctx`, as `(name, (stream_hash, cycles))`.
fn runs(ctx: &SimContext) -> Vec<(String, (u64, u64))> {
    let ctx = &ctx.clone().with_recording();
    let vl = ctx.vl();
    let mut out: Vec<(String, (u64, u64))> = Vec::new();

    // SpMV: 600 rows outgrow a 4 KB SSPM's 512 entries.
    let a: Csr = gen::uniform(600, 600, 0.01, 42);
    let x = xvec(a.cols());
    let csb = Csb::from_csr(&a, ctx.via.csb_block_size()).unwrap();
    for group in [8, 1, 3] {
        out.push((
            format!("spmv::via_csb_with/{group}"),
            pin(spmv::via_csb_with(&csb, &x, ctx, group, 1)),
        ));
        out.push((
            format!("spmv::via_csr_with/{group}"),
            pin(spmv::via_csr_with(&a, &x, ctx, group)),
        ));
    }
    let spc5 = Spc5::from_csr(&a, vl).unwrap();
    out.push(("spmv::via_spc5".into(), pin(spmv::via_spc5(&spc5, &x, ctx))));
    let sell = SellCSigma::from_csr(&a, vl, 8 * vl).unwrap();
    out.push(("spmv::via_sell".into(), pin(spmv::via_sell(&sell, &x, ctx))));

    // Histogram: 700 bins take two passes on a 4 KB SSPM.
    let mut rng = StdRng::seed_from_u64(0xC1);
    let keys: Vec<u32> = (0..3000).map(|_| rng.random_range(0u32..700)).collect();
    out.push((
        "histogram::via".into(),
        pin(histogram::via(&keys, 700, ctx)),
    ));

    // Stencil: 40-pixel rows, 3 output rows per segment on a 4 KB SSPM.
    let image: Vec<f64> = gen::dense_vector(40 * 30, 5)
        .into_iter()
        .map(f64::abs)
        .collect();
    let filter = stencil::gaussian4();
    out.push((
        "stencil::via".into(),
        pin(stencil::via(&image, 40, 30, &filter, ctx)),
    ));

    // SpTRSV and SymGS: both schedules, three flush groups each.
    let l = gen::lower_triangular(600, 0.01, 42);
    let b = gen::dense_vector(600, 43);
    let s = gen::make_diagonally_dominant(&gen::uniform(600, 600, 0.01, 44));
    let x0 = gen::dense_vector(600, 45);
    for schedule in [Schedule::RowSerial, Schedule::Levels] {
        for group in [8, 1, 3] {
            out.push((
                format!("sptrsv::via_sspm_with/{schedule:?}/{group}"),
                pin(sptrsv::via_sspm_with(&l, &b, ctx, schedule, group)),
            ));
            out.push((
                format!("symgs::via_sspm_with/{schedule:?}/{group}"),
                pin(symgs::via_sspm_with(&s, &b, &x0, ctx, schedule, group)),
            ));
        }
    }

    // SpMA: ~250 merged entries per row outgrow a 4 KB CAM's 128.
    let ma = gen::uniform(24, 2000, 0.08, 46);
    let mb = gen::perturb_structure(&ma, 0.6, 0.5, 47);
    out.push(("spma::via_cam".into(), pin(spma::via_cam(&ma, &mb, ctx))));

    // SpMSpV: a hub-heavy graph whose frontier outgrows a 4 KB CAM.
    let g = gen::rmat(600, 3600, 5).to_csc();
    let f = frontier(600, 40, 6);
    out.push(("spmspv::via_cam".into(), pin(spmspv::via_cam(&g, &f, ctx))));

    // SpMM: 600 output columns span more than one chunk on a 4 KB SSPM.
    let pa = gen::uniform(24, 64, 0.1, 48);
    let pb = gen::uniform(64, 600, 0.05, 49).to_csc();
    out.push(("spmm::via_cam".into(), pin(spmm::via_cam(&pa, &pb, ctx))));
    out
}

#[test]
fn read_out_streams_are_pinned() {
    let mut all = runs(&SimContext::default());
    all.extend(runs(&SimContext::with_via(ViaConfig::new(4, 2))));
    assert_eq!(all.len(), 2 * 25, "every read-out run is pinned");
    let pairs: Vec<(u64, u64)> = all.iter().map(|(_, p)| *p).collect();
    let hash = fnv1a64(format!("{pairs:?}").bytes());
    assert_eq!(
        hash, 0xD9A2_E568_4287_5F36,
        "VIA read-out streams moved; the runs were:\n{all:#?}"
    );
}

/// The baseline and SSR kernels that share the SPA, store-buffer drain and
/// gather idioms with the VIA kernels, as `(name, (stream_hash, cycles))`.
fn baseline_and_ssr_runs(ctx: &SimContext) -> Vec<(String, (u64, u64))> {
    let ctx = &ctx.clone().with_recording();
    let vl = ctx.vl();
    let mut out: Vec<(String, (u64, u64))> = Vec::new();

    // SpMV: the x gathers, Sell-C-sigma's drained y gather/scatter, and
    // SPC5's broadcast-and-expand block loop.
    let a: Csr = gen::uniform(600, 600, 0.01, 42);
    let x = xvec(a.cols());
    out.push(("spmv::csr_vec".into(), pin(spmv::csr_vec(&a, &x, ctx))));
    let sell = SellCSigma::from_csr(&a, vl, 8 * vl).unwrap();
    out.push(("spmv::sell".into(), pin(spmv::sell(&sell, &x, ctx))));
    let spc5 = Spc5::from_csr(&a, vl).unwrap();
    out.push(("spmv::spc5".into(), pin(spmv::spc5(&spc5, &x, ctx))));
    let csb = Csb::from_csr(&a, 64).unwrap();
    out.push((
        "spmv::csb_software_vec".into(),
        pin(spmv::csb_software_vec(&csb, &x, ctx)),
    ));
    out.push(("ssr::spmv_csr".into(), pin(ssr::spmv_csr(&a, &x, ctx))));

    // Gustavson SpMM: the baseline and SSR legs around one SPA.
    let ga = gen::uniform(48, 64, 0.1, 50);
    let gb = gen::uniform(64, 300, 0.05, 51);
    out.push((
        "spmm::gustavson".into(),
        pin(spmm::gustavson(&ga, &gb, ctx)),
    ));
    out.push((
        "ssr::spmm_gustavson".into(),
        pin(ssr::spmm_gustavson(&ga, &gb, ctx)),
    ));

    // AVX-512CD histogram: uniform keys, and keys skewed into a few hot
    // lines so most gathers wait for the previous scatter to drain.
    let mut rng = StdRng::seed_from_u64(0xC2);
    let uniform: Vec<u32> = (0..3000).map(|_| rng.random_range(0u32..700)).collect();
    let skewed: Vec<u32> = (0..3000)
        .map(|_| {
            let u: f64 = rng.random_range(0.0..1.0);
            (u * u * u * 700.0) as u32
        })
        .collect();
    out.push((
        "histogram::vector_cd/uniform".into(),
        pin(histogram::vector_cd(&uniform, 700, ctx)),
    ));
    out.push((
        "histogram::vector_cd/skewed".into(),
        pin(histogram::vector_cd(&skewed, 700, ctx)),
    ));

    // The scalar SpTRSV and SymGS sweeps under both schedules.
    let l = gen::lower_triangular(600, 0.01, 42);
    let b = gen::dense_vector(600, 43);
    let s = gen::make_diagonally_dominant(&gen::uniform(600, 600, 0.01, 44));
    let x0 = gen::dense_vector(600, 45);
    for schedule in [Schedule::RowSerial, Schedule::Levels] {
        out.push((
            format!("sptrsv::scalar_with/{schedule:?}"),
            pin(sptrsv::scalar_with(&l, &b, ctx, schedule)),
        ));
        out.push((
            format!("symgs::scalar_with/{schedule:?}"),
            pin(symgs::scalar_with(&s, &b, &x0, ctx, schedule)),
        ));
    }
    out
}

#[test]
fn baseline_and_ssr_streams_are_pinned() {
    let all = baseline_and_ssr_runs(&SimContext::default());
    assert_eq!(all.len(), 13, "every baseline and SSR run is pinned");
    let pairs: Vec<(u64, u64)> = all.iter().map(|(_, p)| *p).collect();
    let hash = fnv1a64(format!("{pairs:?}").bytes());
    assert_eq!(
        hash, 0x2067_74DB_0BC5_E240,
        "baseline and SSR streams moved; the runs were:\n{all:#?}"
    );
}
