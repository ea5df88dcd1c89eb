//! Figure 9: design-space exploration of SSPM size and ports.

use via_bench::report::{banner, render_table, speedup};
use via_bench::{fig9_dse, ExperimentScale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The DSE suite by default; explicit scale flags override it.
    let scale = ExperimentScale::default().dse().from_args(&args);
    print!(
        "{}",
        banner(
            "Figure 9 — SSPM size/ports design-space exploration",
            "vs 4_2p: SpMV +2%/+26%/+33%, SpMA +4%/+16%/+20%, SpMM +8%/+5%/+11% \
             for 4_4p/16_2p/16_4p (paper §VI-A)",
        )
    );
    eprintln!(
        "suite: {} matrices, {}..{} rows, density {:.1}%..{:.1}%, seed {}",
        scale.matrices,
        scale.min_rows,
        scale.max_rows,
        scale.density_range.0 * 100.0,
        scale.density_range.1 * 100.0,
        scale.seed
    );
    let before = via_sim::telemetry::snapshot();
    let (rows, audit) = fig9_dse(&scale);
    let header: Vec<String> = ["config", "SpMV (CSB)", "SpMA", "SpMM"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let paper: std::collections::HashMap<&str, [f64; 3]> = [
        ("4_2p", [1.0, 1.0, 1.0]),
        ("4_4p", [1.02, 1.04, 1.08]),
        ("16_2p", [1.26, 1.16, 1.05]),
        ("16_4p", [1.33, 1.20, 1.11]),
    ]
    .into_iter()
    .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let p = paper[r.config.as_str()];
            vec![
                r.config.clone(),
                format!("{} (paper {})", speedup(r.spmv), speedup(p[0])),
                format!("{} (paper {})", speedup(r.spma), speedup(p[1])),
                format!("{} (paper {})", speedup(r.spmm), speedup(p[2])),
            ]
        })
        .collect();
    print!("{}", render_table(&header, &table));

    // Static-bound audit of the same sweep points: how tight the
    // analyzer's cycle lower bound is per kernel, and how many points a
    // sweep could prune before simulation because their lower bound
    // already exceeds the per-matrix winner's measured cycles.
    let audit_header: Vec<String> = ["kernel", "points", "bound tightness", "prunable", "unsound"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let audit_table: Vec<Vec<String>> = audit
        .iter()
        .map(|r| {
            vec![
                r.kernel.clone(),
                r.points.to_string(),
                format!("{:.3}x", r.tightness()),
                format!("{}/{}", r.prunable, r.points),
                r.violations.to_string(),
            ]
        })
        .collect();
    println!("\nstatic-bound audit (pre-simulation pruning filter):");
    print!("{}", render_table(&audit_header, &audit_table));
    if audit.iter().any(|r| r.violations > 0) {
        eprintln!("fig9_dse: static bound exceeded simulated cycles — model unsound");
        std::process::exit(1);
    }

    // Every point is recorded once for its bound and its stream dropped
    // straight away; the counters below show the compiled streams in CI
    // logs.
    println!("{}", via_sim::telemetry::snapshot().since(&before).render());
}
