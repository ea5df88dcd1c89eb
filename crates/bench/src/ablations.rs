//! Ablation studies for the design decisions DESIGN.md calls out.
//!
//! These go beyond the paper's published experiments: each ablation turns
//! one modeling or design choice off (or sweeps it) and quantifies its
//! contribution, on fixed representative inputs.

use crate::suite::ExperimentScale;
use via_core::ViaConfig;
use via_formats::{gen, Csb, Csr};
use via_kernels::{spmm, spmv, SimContext};

/// A single named measurement within an ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationPoint {
    /// Value of the swept knob.
    pub knob: String,
    /// Cycles measured.
    pub cycles: u64,
    /// Cycles relative to the first (reference) point.
    pub relative: f64,
}

/// A complete ablation: a named knob and its sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Ablation {
    /// What is being ablated.
    pub name: String,
    /// What the sweep shows (one line for the report).
    pub conclusion: String,
    /// The measured points (first = reference).
    pub points: Vec<AblationPoint>,
}

fn relativize(name: &str, conclusion: &str, raw: Vec<(String, u64)>) -> Ablation {
    let base = raw.first().map(|r| r.1).unwrap_or(1).max(1);
    Ablation {
        name: name.to_string(),
        conclusion: conclusion.to_string(),
        points: raw
            .into_iter()
            .map(|(knob, cycles)| AblationPoint {
                knob,
                cycles,
                relative: cycles as f64 / base as f64,
            })
            .collect(),
    }
}

fn reference_matrix(scale: &ExperimentScale) -> Csr {
    gen::blocked(
        scale.max_rows.min(1024),
        16,
        scale.max_rows.min(1024) / 8,
        0.5,
        77,
    )
}

/// Commit-time execution cost (paper §IV-E): VIA instructions wait for all
/// older instructions to complete. How much performance does that
/// integration decision give up versus a hypothetical speculative VIA?
pub fn commit_serialization(scale: &ExperimentScale) -> Ablation {
    let a = reference_matrix(scale);
    let x = gen::dense_vector(a.cols(), 1);
    let mut raw = Vec::new();
    for (label, serialized) in [("at-commit (paper)", true), ("speculative", false)] {
        let via = ViaConfig {
            commit_serialized: serialized,
            ..Default::default()
        };
        let ctx = SimContext::with_via(via);
        let csb = Csb::from_csr(&a, via.csb_block_size()).expect("block");
        let spmv_c = spmv::via_csb(&csb, &x, &ctx).cycles();
        let b = gen::uniform(160, 160, 0.05, 3);
        let bc = gen::uniform(160, 160, 0.05, 4).to_csc();
        let spmm_c = spmm::via_cam(&b, &bc, &ctx).cycles();
        raw.push((format!("{label} / SpMV"), spmv_c));
        raw.push((format!("{label} / SpMM"), spmm_c));
    }
    relativize(
        "commit-time VIA execution (§IV-E)",
        "commit serialization costs a few percent — cheap insurance for \
         keeping SSPM state non-speculative",
        raw,
    )
}

/// CSB block size sweep: the paper tunes the block to half the SSPM
/// (§V-B). Blocks beyond half capacity cannot fit (input + output chunks);
/// smaller blocks reload the x chunk more often.
pub fn csb_block_size(scale: &ExperimentScale) -> Ablation {
    let a = reference_matrix(scale);
    let x = gen::dense_vector(a.cols(), 2);
    let ctx = SimContext::default();
    let half = ctx.via.csb_block_size();
    let mut raw = Vec::new();
    let mut bs = half;
    while bs >= 64 {
        let csb = Csb::from_csr(&a, bs).expect("block");
        raw.push((
            format!(
                "block {}{}",
                bs,
                if bs == half { " (paper tuning)" } else { "" }
            ),
            spmv::via_csb(&csb, &x, &ctx).cycles(),
        ));
        bs /= 4;
    }
    relativize(
        "CSB block size (paper: half the SSPM)",
        "smaller blocks reload the x chunk more often; half-capacity is the \
         sweet spot the hardware admits",
        raw,
    )
}

/// Gather overhead sensitivity: the paper quotes ≥ 22 cycles for an
/// all-L1-hit AVX2 gather. How much of the baseline's pain is that fixed
/// overhead?
pub fn gather_overhead(scale: &ExperimentScale) -> Ablation {
    let a = reference_matrix(scale);
    let x = gen::dense_vector(a.cols(), 3);
    let mut raw = Vec::new();
    for overhead in [18u32, 8, 0] {
        let mut ctx = SimContext::default();
        ctx.core.gather_overhead = overhead;
        raw.push((
            format!("gather overhead {overhead} cycles"),
            spmv::csr_vec(&a, &x, &ctx).cycles(),
        ));
    }
    relativize(
        "baseline gather overhead (paper §III-A: ≥22 cycles best case)",
        "even a hypothetical zero-overhead gather leaves the baseline \
         paying per-element cache accesses",
        raw,
    )
}

/// SSPM port width: how many lanes one port serves per cycle (the model's
/// reading of the 4-byte-block SRAM organization).
pub fn sspm_port_width(scale: &ExperimentScale) -> Ablation {
    let a = reference_matrix(scale);
    let x = gen::dense_vector(a.cols(), 4);
    let mut raw = Vec::new();
    for width in [2u32, 1, 4] {
        let via = ViaConfig {
            port_width: width,
            ..Default::default()
        };
        let ctx = SimContext::with_via(via);
        let csb = Csb::from_csr(&a, via.csb_block_size()).expect("block");
        raw.push((
            format!(
                "{} lane(s)/port{}",
                width,
                if width == 2 { " (default)" } else { "" }
            ),
            spmv::via_csb(&csb, &x, &ctx).cycles(),
        ));
    }
    relativize(
        "SSPM port width (lanes per port per cycle)",
        "vldxblkmult is the port-hungriest op (3 accesses/lane); width \
         drives its occupancy directly",
        raw,
    )
}

/// Stream prefetching: does VIA's advantage survive a next-line L2
/// prefetcher that helps the streaming baselines?
pub fn prefetching(scale: &ExperimentScale) -> Ablation {
    let a = reference_matrix(scale);
    let x = gen::dense_vector(a.cols(), 5);
    let mut raw = Vec::new();
    for degree in [0u32, 2, 4] {
        let mut ctx = SimContext::default();
        ctx.mem.prefetch_degree = degree;
        let csb = Csb::from_csr(&a, ctx.via.csb_block_size()).expect("block");
        let base = spmv::csr_vec(&a, &x, &ctx).cycles();
        let via = spmv::via_csb(&csb, &x, &ctx).cycles();
        raw.push((format!("degree {degree} / baseline CSR"), base));
        raw.push((format!("degree {degree} / VIA CSB"), via));
    }
    relativize(
        "L2 next-line prefetching (both sides)",
        "prefetching helps both sides' streaming reads; the gather and \
         index-matching costs VIA removes are latency/occupancy, not \
         stream misses, so the advantage persists",
        raw,
    )
}

/// Software-CSB baseline choice: Buluç-style scalar-within-blocks (the
/// Figure 10 reference) versus a gather/scatter vectorization.
pub fn csb_baseline_style(scale: &ExperimentScale) -> Ablation {
    let a = reference_matrix(scale);
    let x = gen::dense_vector(a.cols(), 6);
    let ctx = SimContext::default();
    let csb = Csb::from_csr(&a, ctx.via.csb_block_size()).expect("block");
    let raw = vec![
        (
            "scalar-in-block (Buluç, Fig.10 ref)".to_string(),
            spmv::csb_software(&csb, &x, &ctx).cycles(),
        ),
        (
            "gather/scatter vectorized".to_string(),
            spmv::csb_software_vec(&csb, &x, &ctx).cycles(),
        ),
        (
            "VIA CSB".to_string(),
            spmv::via_csb(&csb, &x, &ctx).cycles(),
        ),
    ];
    relativize(
        "software CSB baseline style",
        "the gather/scatter vectorization is not obviously better than the \
         scalar reference — indexed y-RMW serializes either way; VIA beats \
         both",
        raw,
    )
}

/// Vector length: AVX2-class (VL=4) versus AVX-512-class (VL=8) machines,
/// for both the gathered baseline and VIA.
pub fn vector_length(scale: &ExperimentScale) -> Ablation {
    let a = reference_matrix(scale);
    let x = gen::dense_vector(a.cols(), 7);
    let mut raw = Vec::new();
    for vl in [4u32, 8] {
        let mut ctx = SimContext::default();
        ctx.core.vl = vl;
        let csb = Csb::from_csr(&a, ctx.via.csb_block_size()).expect("block");
        raw.push((
            format!("VL={vl} / baseline CSR"),
            spmv::csr_vec(&a, &x, &ctx).cycles(),
        ));
        raw.push((
            format!("VL={vl} / VIA CSB"),
            spmv::via_csb(&csb, &x, &ctx).cycles(),
        ));
    }
    relativize(
        "vector length (AVX2 vs AVX-512 class)",
        "wider vectors help both sides; the per-element gather cost keeps          the baseline from scaling as well as the SSPM path",
        raw,
    )
}

/// Sell-C-σ sorting-window sweep: larger σ reduces padding, which shrinks
/// the wasted ALU lanes the paper attributes to zero-padding (§II-C).
pub fn sell_sigma(scale: &ExperimentScale) -> Ablation {
    // A power-law matrix: wildly uneven row lengths make σ matter.
    let a = gen::rmat(scale.max_rows.min(1024), scale.max_rows.min(1024) * 8, 78);
    let x = gen::dense_vector(a.cols(), 8);
    let ctx = SimContext::default();
    let c = ctx.vl();
    let mut raw = Vec::new();
    for (label, sigma) in [
        ("sigma = C (no sorting)", c),
        ("sigma = 8C", 8 * c),
        ("sigma = 64C", 64 * c),
    ] {
        let sell = via_formats::SellCSigma::from_csr(&a, c, sigma).expect("valid");
        raw.push((
            format!("{label} (padding {:.0}%)", sell.padding_ratio() * 100.0),
            spmv::sell(&sell, &x, &ctx).cycles(),
        ));
    }
    relativize(
        "Sell-C-sigma sorting window (baseline padding cost, §II-C)",
        "sigma-sorting removes padded lanes and speeds the baseline — the          zero-padding waste the paper describes",
        raw,
    )
}

/// SpMM baseline strength: the paper compares VIA against the
/// inner-product formulation (Algorithm 3); how does VIA fare against the
/// modern row-wise Gustavson/SPA organization?
pub fn spmm_baseline_strength(scale: &ExperimentScale) -> Ablation {
    let n = scale.max_rows.min(192);
    let a = gen::uniform(n, n, 0.04, 79);
    let b = gen::uniform(n, n, 0.04, 80);
    let ctx = SimContext::default();
    let raw = vec![
        (
            "inner product (paper Algorithm 3)".to_string(),
            spmm::inner_product(&a, &b.to_csc(), &ctx).cycles(),
        ),
        (
            "Gustavson SPA (modern)".to_string(),
            spmm::gustavson(&a, &b, &ctx).cycles(),
        ),
        (
            "VIA CAM".to_string(),
            spmm::via_cam(&a, &b.to_csc(), &ctx).cycles(),
        ),
    ];
    relativize(
        "SpMM baseline strength (extension)",
        "Gustavson narrows the gap substantially — part of the paper's 6x          comes from the inner-product baseline; VIA's CAM still wins or          ties against the stronger organization on sparse inputs",
        raw,
    )
}

/// Runs every ablation.
pub fn all(scale: &ExperimentScale) -> Vec<Ablation> {
    vec![
        commit_serialization(scale),
        csb_block_size(scale),
        gather_overhead(scale),
        sspm_port_width(scale),
        prefetching(scale),
        csb_baseline_style(scale),
        vector_length(scale),
        sell_sigma(scale),
        spmm_baseline_strength(scale),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentScale {
        ExperimentScale {
            matrices: 1,
            min_rows: 128,
            max_rows: 256,
            density_range: (0.005, 0.02),
            seed: 1,
            threads: 1,
        }
    }

    #[test]
    fn commit_serialization_costs_something_nonnegative() {
        let ab = commit_serialization(&tiny());
        // Speculative SpMV must not be slower than at-commit SpMV.
        let at_commit = ab.points[0].cycles;
        let speculative = ab.points[2].cycles;
        assert!(speculative <= at_commit);
    }

    #[test]
    fn half_capacity_block_is_best_or_close() {
        let ab = csb_block_size(&tiny());
        let best = ab.points.iter().map(|p| p.cycles).min().unwrap();
        assert!(
            ab.points[0].cycles as f64 <= best as f64 * 1.1,
            "paper tuning should be within 10% of the sweep's best"
        );
    }

    #[test]
    fn lower_gather_overhead_helps_baseline() {
        let ab = gather_overhead(&tiny());
        assert!(ab.points.last().unwrap().cycles <= ab.points[0].cycles);
    }

    #[test]
    fn wider_ports_never_hurt() {
        let ab = sspm_port_width(&tiny());
        let w1 = ab.points.iter().find(|p| p.knob.starts_with("1 ")).unwrap();
        let w4 = ab.points.iter().find(|p| p.knob.starts_with("4 ")).unwrap();
        assert!(w4.cycles <= w1.cycles);
    }

    #[test]
    fn prefetching_helps_the_baseline() {
        let ab = prefetching(&tiny());
        let base_d0 = ab.points[0].cycles;
        let base_d4 = ab.points[4].cycles;
        assert!(
            base_d4 <= base_d0,
            "prefetching should help streaming reads"
        );
        // And VIA still wins at max prefetch degree.
        let via_d4 = ab.points[5].cycles;
        assert!(via_d4 < base_d4, "VIA must keep winning under prefetch");
    }

    #[test]
    fn sigma_sorting_reduces_padding_and_cycles() {
        let ab = sell_sigma(&tiny());
        let unsorted = ab.points[0].cycles;
        let sorted = ab.points.last().unwrap().cycles;
        assert!(sorted <= unsorted, "sorting should not slow the baseline");
    }

    #[test]
    fn all_runs_every_ablation() {
        let all = all(&tiny());
        assert_eq!(all.len(), 9);
        for ab in &all {
            assert!(!ab.points.is_empty(), "{} empty", ab.name);
            assert!((ab.points[0].relative - 1.0).abs() < 1e-12);
        }
    }
}
