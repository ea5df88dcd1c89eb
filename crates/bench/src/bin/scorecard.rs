//! One-shot reproduction scorecard: runs every headline experiment and
//! scores the measured numbers against the paper's published claims.
//!
//! ```sh
//! cargo run --release -p via-bench --bin scorecard [-- --matrices N ...]
//! ```

use via_bench::paper::{claim, verdict, Verdict};
use via_bench::report::{banner, render_table, stall_table};
use via_bench::{
    cli_args, experiments, fig10_spmv, fig11_spma, fig11_spmm, fig12a_histogram, fig12b_stencil,
    flag_arg, stall_sweep, ExperimentScale, SCALE_FLAGS,
};
use via_core::ViaConfig;
use via_energy::AreaModel;
use via_formats::stats::geomean;

fn main() {
    let args = cli_args(&[SCALE_FLAGS, &["--tuned"]].concat(), &["--backends"]);
    let scale = ExperimentScale::default().from_args(&args);
    let tuned_dir: Option<String> = flag_arg(&args, "--tuned");
    print!(
        "{}",
        banner(
            "Reproduction scorecard",
            "all headline claims, measured in one run and scored against the paper",
        )
    );
    eprintln!(
        "suite: {} matrices, {}..{} rows, seed {}, {} threads (this takes a \
         minute or two)",
        scale.matrices, scale.min_rows, scale.max_rows, scale.seed, scale.threads
    );
    let started = std::time::Instant::now();
    let telemetry_start = via_sim::telemetry::snapshot();

    let mut measured: Vec<(&'static str, f64)> = Vec::new();

    let spmv = fig10_spmv(&scale);
    for row in &spmv.rows {
        let id = match row.format.as_str() {
            "CSR" => "fig10/csr",
            "SPC5" => "fig10/spc5",
            "Sell-C-sigma" => "fig10/sell",
            "CSB" => "fig10/csb",
            other => panic!("unknown format {other}"),
        };
        measured.push((id, row.mean));
    }
    measured.push(("via/energy", spmv.energy_ratio));
    measured.push(("via/bandwidth", spmv.bandwidth_ratio));

    let (_, spma_mean) = fig11_spma(&scale);
    measured.push(("fig11/spma", spma_mean));
    let (_, spmm_mean) = fig11_spmm(&scale);
    measured.push(("spmm", spmm_mean));

    let hist = fig12a_histogram(12_000, 0x5c0);
    measured.push((
        "fig12a/scalar",
        geomean(&hist.iter().map(|r| r.vs_scalar()).collect::<Vec<_>>()),
    ));
    measured.push((
        "fig12a/vector",
        geomean(&hist.iter().map(|r| r.vs_vector()).collect::<Vec<_>>()),
    ));

    let stencil = fig12b_stencil(&[128], 0x5c0);
    measured.push((
        "fig12b/stencil",
        geomean(&stencil.iter().map(|r| r.vs_scalar()).collect::<Vec<_>>()),
    ));

    let model = AreaModel::new();
    let cfg = ViaConfig::new(16, 2);
    measured.push(("table2/area-16_2p", model.area_mm2(&cfg)));
    measured.push(("table2/leak-16_2p", model.leakage_mw(&cfg)));

    let header: Vec<String> = ["claim", "source", "paper", "measured", "verdict"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut rows = Vec::new();
    let (mut reproduced, mut shape, mut failed) = (0, 0, 0);
    for (id, value) in &measured {
        let c = claim(id);
        let v = verdict(c, *value);
        match v {
            Verdict::Reproduced => reproduced += 1,
            Verdict::ShapeOnly => shape += 1,
            Verdict::NotReproduced => failed += 1,
        }
        rows.push(vec![
            c.description.to_string(),
            c.source.to_string(),
            format!("{:.3}", c.paper),
            format!("{value:.3}"),
            match v {
                Verdict::Reproduced => "REPRODUCED".to_string(),
                Verdict::ShapeOnly => "shape only".to_string(),
                Verdict::NotReproduced => "NOT reproduced".to_string(),
            },
        ]);
    }
    print!("{}", render_table(&header, &rows));

    // Where the cycles behind those claims go: per-kernel stall columns
    // (smaller sub-suite — the shares converge quickly with suite size).
    let stall_scale = ExperimentScale {
        matrices: scale.matrices.min(12),
        ..scale.clone()
    };
    println!("\nstall attribution ({} matrices):", stall_scale.matrices);
    print!("{}", stall_table(&stall_sweep(&stall_scale)));

    // Static-analysis sharpness: the analyzer's cycle lower bound against
    // one representative recorded run per kernel (closer to 1.0 = the
    // dataflow/port model explains more of the measured time).
    let tightness = experiments::kernel_bound_tightness(scale.seed);
    let t_header: Vec<String> = [
        "kernel",
        "static bound",
        "simulated",
        "tightness",
        "dead stores",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let t_rows: Vec<Vec<String>> = tightness
        .iter()
        .map(|r| {
            vec![
                r.kernel.clone(),
                r.bound_cycles.to_string(),
                r.simulated_cycles.to_string(),
                format!("{:.3}x", r.tightness()),
                r.dead_stores.to_string(),
            ]
        })
        .collect();
    println!("\nstatic cycle lower bound (per-kernel tightness):");
    print!("{}", render_table(&t_header, &t_rows));

    // Auto-tuned winners, when a tuned.jsonl store is supplied: how much
    // per-matrix scheduling headroom the tuner found on top of the
    // hand-written kernels the claims above were measured with.
    if let Some(dir) = tuned_dir {
        let rows = via_bench::load_tuned(std::path::Path::new(&dir)).expect("readable tuned store");
        if rows.is_empty() {
            println!("\nno tuned winners in {dir} (run `campaign tune --dir {dir}` first)");
        } else {
            let tuned = via_bench::TuneOutcome {
                rows,
                ..Default::default()
            };
            let k_header: Vec<String> =
                ["kernel", "tuned speedup (geomean)", "non-default winners"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect();
            let k_rows: Vec<Vec<String>> = tuned
                .kernel_speedups()
                .into_iter()
                .map(|(kernel, speedup)| {
                    let (wins, total) = tuned
                        .rows
                        .iter()
                        .filter(|r| r.kernel == kernel)
                        .fold((0usize, 0usize), |(w, t), r| {
                            (w + r.non_default_winner() as usize, t + 1)
                        });
                    vec![kernel, format!("{speedup:.2}x"), format!("{wins}/{total}")]
                })
                .collect();
            println!(
                "\nauto-tuned winners ({}, {} rows, {:.2}x overall geomean):",
                dir,
                tuned.rows.len(),
                tuned.geomean_speedup()
            );
            print!("{}", render_table(&k_header, &k_rows));
        }
    }

    // Rival-backend columns, when requested: single-core baseline/VIA/SSR
    // cycles per kernel plus the core-scaling grid (the same measurement
    // the `multicore` binary records in BENCH_multicore.json). Runs at the
    // quick scale — the scale flags still apply if passed explicitly.
    if args.iter().any(|a| a == "--backends") {
        let mc_scale = ExperimentScale::quick().from_args(&args);
        println!(
            "\nbackend bake-off ({} matrices, nnz-balanced row bands):",
            mc_scale.matrices
        );
        print!("{}", via_bench::multicore_sweep(&mc_scale).render());
    }

    println!(
        "{reproduced} reproduced, {shape} shape-only, {failed} not reproduced \
         (of {})",
        measured.len()
    );
    let delta = via_sim::telemetry::snapshot().since(&telemetry_start);
    let secs = started.elapsed().as_secs_f64();
    println!(
        "simulated {:.1}M instructions in {secs:.1}s — {:.2} MIPS simulated",
        delta.instructions as f64 / 1e6,
        delta.instructions as f64 / secs.max(1e-9) / 1e6,
    );
    println!("{}", delta.render());
}
