//! Figure 11: VIA SpMA speedup over the Eigen-style merge.

use via_bench::report::{banner, render_table, speedup};
use via_bench::{cli_args, fig11_spma, ExperimentScale, SCALE_FLAGS};

fn main() {
    let args = cli_args(SCALE_FLAGS, &[]);
    let scale = ExperimentScale::default().from_args(&args);
    print!(
        "{}",
        banner(
            "Figure 11 — SpMA performance",
            "VIA-CSR-SpMA average speedup 6.14x over the Eigen CSR implementation (paper §VII-B)",
        )
    );
    eprintln!(
        "suite: {} matrices, {}..{} rows, seed {}",
        scale.matrices, scale.min_rows, scale.max_rows, scale.seed
    );
    let (rows, mean) = fig11_spma(&scale);
    let header: Vec<String> = ["category (median nnz)", "speedup"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![format!("{:.0}", r.median_key), speedup(r.speedup)])
        .collect();
    print!("{}", render_table(&header, &table));
    println!("mean speedup: {} (paper 6.14x)", speedup(mean));
}
