//! Figure 10: VIA-SpMV speedups per format and CSB block-density category.

use via_bench::report::{banner, render_table, speedup};
use via_bench::{cli_args, fig10_spmv, ExperimentScale, SCALE_FLAGS};

fn main() {
    let args = cli_args(SCALE_FLAGS, &[]);
    let scale = ExperimentScale::default().from_args(&args);
    print!(
        "{}",
        banner(
            "Figure 10 — SpMV performance",
            "VIA speedup: 4.22x with CSB; 1.25x/1.24x/1.31x over CSR/SPC5/Sell-C-sigma; \
             energy -3.8x, bandwidth +2.5x for VIA-CSB (paper §VII-A)",
        )
    );
    eprintln!(
        "suite: {} matrices, {}..{} rows, seed {}",
        scale.matrices, scale.min_rows, scale.max_rows, scale.seed
    );
    let result = fig10_spmv(&scale);
    let mut header: Vec<String> = vec!["format".into()];
    for m in &result.category_medians {
        header.push(format!("cat (median bd {m:.1})"));
    }
    header.push("mean".into());
    header.push("paper mean".into());
    let rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| {
            let mut row = vec![r.format.clone()];
            row.extend(r.categories.iter().map(|&v| speedup(v)));
            row.push(speedup(r.mean));
            row.push(speedup(r.paper_mean));
            row
        })
        .collect();
    print!("{}", render_table(&header, &rows));
    println!(
        "VIA-CSB energy reduction: {} (paper 3.8x); achieved-bandwidth increase: {} (paper 2.5x)",
        speedup(result.energy_ratio),
        speedup(result.bandwidth_ratio)
    );
}
