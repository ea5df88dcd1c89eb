//! Golden stall-accounting snapshots.
//!
//! Stall attribution rides the same determinism guarantee as the cycle
//! counts in `golden_cycles.rs`: the per-cause breakdown of a fixed kernel
//! on a fixed matrix is pinned exactly, and the conservation invariant
//! (every simulated cycle attributed to exactly one cause) is asserted for
//! every kernel in the golden suite. The numbers are identical in debug
//! and release builds — the timing model is integer-exact.

use via_formats::{gen, Csb, Csr};
use via_kernels::{histogram, spma, spmv, SimContext, TraceOptions};
use via_rng::StdRng;
use via_sim::{StallCause, StallReport};

fn ctx() -> SimContext {
    SimContext::default().with_trace(TraceOptions::accounting())
}

fn golden_a() -> Csr {
    gen::uniform(256, 256, 0.02, 42)
}

fn xvec(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i % 13) as f64) * 0.25 - 1.5).collect()
}

/// One golden kernel run: (name, traced cycles + report, untraced cycles).
type GoldenRun = (&'static str, (u64, Option<StallReport>), u64);

fn assert_conserved(name: &str, report: &StallReport, cycles: u64) {
    assert_eq!(
        report.attributed(),
        cycles,
        "{name}: attributed {} != total cycles {cycles}",
        report.attributed()
    );
    assert_eq!(report.total_cycles, cycles, "{name}: total_cycles mismatch");
    let region_sum: u64 = report.regions.iter().flat_map(|r| r.cycles.iter()).sum();
    assert_eq!(region_sum, cycles, "{name}: regions do not partition total");
}

#[test]
fn conservation_holds_for_every_golden_kernel() {
    let tctx = ctx();
    let plain = SimContext::default();
    let a = golden_a();
    let b = gen::uniform(256, 256, 0.02, 43);
    let x = xvec(a.cols());
    let csb = Csb::from_csr(&a, tctx.via.csb_block_size()).unwrap();
    let mut rng = StdRng::seed_from_u64(0xC0);
    let keys: Vec<u32> = (0..4000).map(|_| rng.random_range(0u32..256)).collect();

    let runs: Vec<GoldenRun> = vec![
        (
            "spmv::scalar_csr",
            {
                let r = spmv::scalar_csr(&a, &x, &tctx);
                (r.cycles(), r.stall)
            },
            spmv::scalar_csr(&a, &x, &plain).cycles(),
        ),
        (
            "spmv::csr_vec",
            {
                let r = spmv::csr_vec(&a, &x, &tctx);
                (r.cycles(), r.stall)
            },
            spmv::csr_vec(&a, &x, &plain).cycles(),
        ),
        (
            "spmv::via_csr",
            {
                let r = spmv::via_csr(&a, &x, &tctx);
                (r.cycles(), r.stall)
            },
            spmv::via_csr(&a, &x, &plain).cycles(),
        ),
        (
            "spmv::via_csb",
            {
                let r = spmv::via_csb(&csb, &x, &tctx);
                (r.cycles(), r.stall)
            },
            spmv::via_csb(&csb, &x, &plain).cycles(),
        ),
        (
            "spma::merge_csr",
            {
                let r = spma::merge_csr(&a, &b, &tctx);
                (r.cycles(), r.stall)
            },
            spma::merge_csr(&a, &b, &plain).cycles(),
        ),
        (
            "spma::via_cam",
            {
                let r = spma::via_cam(&a, &b, &tctx);
                (r.cycles(), r.stall)
            },
            spma::via_cam(&a, &b, &plain).cycles(),
        ),
        (
            "histogram::scalar",
            {
                let r = histogram::scalar(&keys, 256, &tctx);
                (r.cycles(), r.stall)
            },
            histogram::scalar(&keys, 256, &plain).cycles(),
        ),
        (
            "histogram::vector_cd",
            {
                let r = histogram::vector_cd(&keys, 256, &tctx);
                (r.cycles(), r.stall)
            },
            histogram::vector_cd(&keys, 256, &plain).cycles(),
        ),
        (
            "histogram::via",
            {
                let r = histogram::via(&keys, 256, &tctx);
                (r.cycles(), r.stall)
            },
            histogram::via(&keys, 256, &plain).cycles(),
        ),
    ];

    for (name, (cycles, stall), plain_cycles) in runs {
        assert_eq!(
            cycles, plain_cycles,
            "{name}: accounting must be timing-transparent"
        );
        let report = stall.unwrap_or_else(|| panic!("{name}: stall report missing"));
        assert_conserved(name, &report, cycles);
    }
}

#[test]
fn csr_vec_stall_breakdown_is_pinned() {
    let a = golden_a();
    let x = xvec(a.cols());
    let run = spmv::csr_vec(&a, &x, &ctx());
    let report = run.stall.expect("accounting enabled");
    let got: Vec<u64> = StallCause::ALL
        .iter()
        .map(|&c| report.cause_total(c))
        .collect();
    // Pinned per-cause cycle totals, in StallCause::ALL order. These are
    // bit-identical across debug/release; an unexplained diff means the
    // timing model (not just the accounting) changed.
    // rob_full, branch_redirect, fetch_width, dependency, fu_slot,
    // load_port, store_port, sb_drain, dram_bw, commit_gate, commit_width,
    // active.
    let expected: Vec<u64> = vec![0, 0, 0, 0, 0, 161, 0, 0, 174, 0, 721, 5099];
    assert_eq!(
        got,
        expected,
        "csr_vec stall breakdown moved:\n{}",
        report.render(12)
    );
    assert_conserved("spmv::csr_vec", &report, run.stats.cycles);
}

#[test]
fn gather_and_dram_stalls_dominate_csr_and_shrink_under_via() {
    // The acceptance story of paper §VI: the CSR baseline's cycles go to
    // indexed-access ports and DRAM; VIA-CSB removes the gathers, so those
    // causes shrink both absolutely and as a share.
    let tctx = ctx();
    let a = golden_a();
    let x = xvec(a.cols());
    let base = spmv::csr_vec(&a, &x, &tctx).stall.unwrap();
    let csb = Csb::from_csr(&a, tctx.via.csb_block_size()).unwrap();
    let via = spmv::via_csb(&csb, &x, &tctx).stall.unwrap();

    let mem_stalls = |r: &StallReport| {
        r.cause_total(StallCause::LoadPort)
            + r.cause_total(StallCause::StorePort)
            + r.cause_total(StallCause::DramBandwidth)
    };
    let base_mem = mem_stalls(&base);
    let via_mem = mem_stalls(&via);
    // Among genuine resource stalls (pipeline-width pacing excluded — that
    // is the drain artifact of a width-limited commit stage, not a hazard),
    // the indexed-access ports and DRAM must dominate the CSR baseline.
    let pacing = base.cause_total(StallCause::FetchWidth)
        + base.cause_total(StallCause::CommitGate)
        + base.cause_total(StallCause::CommitWidth);
    let other = base.stalled() - pacing - base_mem;
    assert!(
        base_mem > other,
        "gather/scatter + DRAM should dominate CSR baseline hazards: {} vs {}\n{}",
        base_mem,
        other,
        base.render(12)
    );
    assert!(
        via_mem < base_mem,
        "VIA should shrink memory-indexing stalls: {via_mem} vs {base_mem}"
    );
}

#[test]
fn kernel_regions_are_labeled() {
    let tctx = ctx();
    let a = golden_a();
    let x = xvec(a.cols());
    let base = spmv::csr_vec(&a, &x, &tctx).stall.unwrap();
    let names: Vec<&str> = base.regions.iter().map(|r| r.name.as_str()).collect();
    assert!(names.contains(&"row loop"), "{names:?}");

    let csb = Csb::from_csr(&a, tctx.via.csb_block_size()).unwrap();
    let via = spmv::via_csb(&csb, &x, &tctx).stall.unwrap();
    let names: Vec<&str> = via.regions.iter().map(|r| r.name.as_str()).collect();
    for want in ["y preload", "accumulate", "flush"] {
        assert!(names.contains(&want), "missing {want:?} in {names:?}");
    }
}
