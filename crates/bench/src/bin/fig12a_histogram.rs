//! Figure 12.a: histogram speedups.

use via_bench::report::{banner, render_table, speedup};
use via_bench::{check_nonzero, cli_args, fig12a_histogram, flag_arg};
use via_formats::stats::geomean;

fn main() {
    let args = cli_args(&["--keys"], &[]);
    let keys = flag_arg(&args, "--keys").unwrap_or(20_000);
    check_nonzero("--keys", keys, "key");
    print!(
        "{}",
        banner(
            "Figure 12.a — histogram",
            "VIA outperforms Intel scalar by 5.49x and vector by 4.51x (paper §VII-D)",
        )
    );
    eprintln!("keys per workload: {keys}");
    let rows = fig12a_histogram(keys, 0x12a);
    let header: Vec<String> = [
        "workload",
        "scalar cyc",
        "vector cyc",
        "VIA cyc",
        "vs scalar",
        "vs vector",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workload.clone(),
                r.scalar_cycles.to_string(),
                r.vector_cycles.to_string(),
                r.via_cycles.to_string(),
                speedup(r.vs_scalar()),
                speedup(r.vs_vector()),
            ]
        })
        .collect();
    print!("{}", render_table(&header, &table));
    println!(
        "mean: vs scalar {} (paper 5.49x), vs vector {} (paper 4.51x)",
        speedup(geomean(
            &rows.iter().map(|r| r.vs_scalar()).collect::<Vec<_>>()
        )),
        speedup(geomean(
            &rows.iter().map(|r| r.vs_vector()).collect::<Vec<_>>()
        ))
    );
}
