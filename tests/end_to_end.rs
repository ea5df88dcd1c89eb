//! End-to-end integration tests: every kernel, baseline and VIA, computes
//! the exact same answers as the dense golden models, across the synthetic
//! suite and all SSPM configurations.

use via::core::ViaConfig;
use via::formats::{gen, reference, Csb, DenseMatrix, SellCSigma, Spc5};
use via::kernels::{histogram, spma, spmm, spmv, stencil, SimContext};

fn small_suite() -> Vec<via::formats::gen::GenMatrix> {
    gen::suite(&gen::SuiteConfig {
        count: 10,
        min_rows: 64,
        max_rows: 320,
        seed: 0xE2E,
        ..gen::SuiteConfig::default()
    })
}

#[test]
fn spmv_all_variants_agree_with_reference_across_suite() {
    let ctx = SimContext::default();
    let vl = ctx.vl();
    for m in small_suite() {
        let x = gen::dense_vector(m.csr.cols(), m.seed);
        let expected = reference::spmv(&m.csr, &x);
        let csb = Csb::from_csr(&m.csr, ctx.via.csb_block_size()).unwrap();
        let spc5 = Spc5::from_csr(&m.csr, vl).unwrap();
        let sell = SellCSigma::from_csr(&m.csr, vl, vl * 4).unwrap();
        let outputs = [
            ("scalar", spmv::scalar_csr(&m.csr, &x, &ctx).output),
            ("csr_vec", spmv::csr_vec(&m.csr, &x, &ctx).output),
            ("spc5", spmv::spc5(&spc5, &x, &ctx).output),
            ("sell", spmv::sell(&sell, &x, &ctx).output),
            ("csb_soft", spmv::csb_software(&csb, &x, &ctx).output),
            (
                "csb_soft_vec",
                spmv::csb_software_vec(&csb, &x, &ctx).output,
            ),
            ("via_csr", spmv::via_csr(&m.csr, &x, &ctx).output),
            ("via_spc5", spmv::via_spc5(&spc5, &x, &ctx).output),
            ("via_sell", spmv::via_sell(&sell, &x, &ctx).output),
            ("via_csb", spmv::via_csb(&csb, &x, &ctx).output),
        ];
        for (name, out) in outputs {
            assert!(
                via::formats::vec_approx_eq(&out, &expected, 1e-9),
                "{name} wrong on {}",
                m.name
            );
        }
    }
}

#[test]
fn spma_and_spmm_agree_with_reference_across_suite() {
    let ctx = SimContext::default();
    for m in small_suite().into_iter().take(6) {
        let b = gen::perturb_structure(&m.csr, 0.6, 0.5, m.seed ^ 1);
        let expected = reference::spma(&m.csr, &b).unwrap();
        let base = spma::merge_csr(&m.csr, &b, &ctx);
        assert_eq!(base.output, expected, "merge wrong on {}", m.name);
        let via_run = spma::via_cam(&m.csr, &b, &ctx);
        assert!(
            DenseMatrix::from_csr(&via_run.output)
                .approx_eq(&DenseMatrix::from_csr(&expected), 1e-9),
            "via spma wrong on {}",
            m.name
        );

        if m.csr.rows() <= 200 {
            let bc = b.to_csc();
            let expected = reference::spmm(&m.csr, &bc).unwrap();
            let base = spmm::inner_product(&m.csr, &bc, &ctx);
            assert_eq!(base.output, expected, "inner product wrong on {}", m.name);
            let via_run = spmm::via_cam(&m.csr, &bc, &ctx);
            assert!(
                DenseMatrix::from_csr(&via_run.output)
                    .approx_eq(&DenseMatrix::from_csr(&expected), 1e-9),
                "via spmm wrong on {}",
                m.name
            );
        }
    }
}

#[test]
fn all_sspm_configurations_compute_identically() {
    // The SSPM geometry must never change results — only timing.
    let a = gen::uniform(128, 128, 0.05, 99);
    let x = gen::dense_vector(a.cols(), 98);
    let expected = reference::spmv(&a, &x);
    for config in ViaConfig::all_synthesized_points() {
        let ctx = SimContext::with_via(config);
        let csb = Csb::from_csr(&a, config.csb_block_size()).unwrap();
        let run = spmv::via_csb(&csb, &x, &ctx);
        assert!(
            via::formats::vec_approx_eq(&run.output, &expected, 1e-9),
            "wrong result at {}",
            config.name()
        );
        let run = spmv::via_csr(&a, &x, &ctx);
        assert!(
            via::formats::vec_approx_eq(&run.output, &expected, 1e-9),
            "via_csr wrong at {}",
            config.name()
        );
    }
}

#[test]
fn simulation_is_deterministic() {
    let a = gen::uniform(160, 160, 0.04, 5);
    let x = gen::dense_vector(a.cols(), 6);
    let ctx = SimContext::default();
    let csb = Csb::from_csr(&a, ctx.via.csb_block_size()).unwrap();
    let r1 = spmv::via_csb(&csb, &x, &ctx);
    let r2 = spmv::via_csb(&csb, &x, &ctx);
    assert_eq!(r1.stats, r2.stats);
    assert_eq!(r1.output, r2.output);
    assert_eq!(r1.sspm_events, r2.sspm_events);
}

#[test]
fn histogram_and_stencil_match_golden_models() {
    let ctx = SimContext::default();
    let keys: Vec<u32> = (0..3000u32).map(|i| (i * i * 31) % 512).collect();
    let expected = reference::histogram(&keys, 512);
    assert_eq!(histogram::scalar(&keys, 512, &ctx).output, expected);
    assert_eq!(histogram::vector_cd(&keys, 512, &ctx).output, expected);
    assert_eq!(histogram::via(&keys, 512, &ctx).output, expected);

    let (w, h) = (40, 24);
    let image: Vec<f64> = gen::dense_vector(w * h, 77)
        .iter()
        .map(|v| v.abs())
        .collect();
    let filter = stencil::gaussian4();
    let expected = reference::convolve2d(&image, w, h, &filter, 4);
    for out in [
        stencil::scalar(&image, w, h, &filter, &ctx).output,
        stencil::vector(&image, w, h, &filter, &ctx).output,
        stencil::via(&image, w, h, &filter, &ctx).output,
    ] {
        assert!(via::formats::vec_approx_eq(&out, &expected, 1e-9));
    }
}

#[test]
fn umbrella_crate_reexports_work_together() {
    // Exercise the full public API path through the `via` umbrella crate.
    let mut coo = via::formats::Coo::new(4, 4);
    coo.push(0, 0, 2.0);
    coo.push(3, 3, 4.0);
    let csr = via::formats::Csr::from_coo(&coo);
    let mut engine = via::sim::Engine::new(
        via::sim::CoreConfig::default().with_custom_unit(),
        via::sim::MemConfig::default(),
    );
    let mut unit = via::core::ViaUnit::new(via::core::ViaConfig::default());
    unit.vldx_load_d(&mut engine, &[0, 1], &[1.0, 2.0], &[]);
    let mut vals = [0.0; 2];
    unit.vldx_mov_d(&mut engine, &[0, 1], &[], &mut vals);
    assert_eq!(vals, [1.0, 2.0]);
    let stats = engine.finish();
    let energy = via::energy::EnergyModel::default().energy(
        &stats,
        Some(&unit.events()),
        Some(unit.config()),
    );
    assert!(energy.total_pj() > 0.0);
    assert_eq!(csr.nnz(), 2);
}
