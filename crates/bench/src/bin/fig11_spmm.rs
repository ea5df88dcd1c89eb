//! SpMM evaluation (paper §VII-C): VIA vs the inner-product baseline.

use via_bench::report::{banner, render_table, speedup};
use via_bench::{cli_args, fig11_spmm, ExperimentScale, SCALE_FLAGS};

fn main() {
    let args = cli_args(SCALE_FLAGS, &[]);
    let scale = ExperimentScale::default().from_args(&args);
    print!(
        "{}",
        banner(
            "SpMM performance (paper §VII-C)",
            "VIA-SpMM average speedup 6.00x over the CSRxCSC inner-product kernel",
        )
    );
    let eff = scale.spmm();
    eprintln!(
        "suite: {} matrices, {}..{} rows, seed {} (SpMM-capped)",
        eff.matrices, eff.min_rows, eff.max_rows, eff.seed
    );
    let (rows, mean) = fig11_spmm(&scale);
    let header: Vec<String> = ["category (median nnz/row)", "speedup"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![format!("{:.2}", r.median_key), speedup(r.speedup)])
        .collect();
    print!("{}", render_table(&header, &table));
    println!("mean speedup: {} (paper 6.00x)", speedup(mean));
}
