//! Figure 12.b: 4x4 Gaussian filter stencil speedups.

use via_bench::report::{banner, render_table, speedup};
use via_bench::{cli_args, fig12b_stencil};
use via_formats::stats::geomean;

fn main() {
    let args = cli_args(&[], &["--full"]);
    let full = args.iter().any(|a| a == "--full");
    // The paper evaluates 128/256/512-pixel images; 512 px simulates ~40M
    // instructions, so the default skips it (enable with --full).
    let sides: &[usize] = if full { &[128, 256, 512] } else { &[128, 256] };
    print!(
        "{}",
        banner(
            "Figure 12.b — stencil (4x4 Gaussian filter)",
            "VIA outperforms the baseline by 3.39x over 128/256/512 px images (paper §VII-D)",
        )
    );
    let rows = fig12b_stencil(sides, 0x12b);
    let header: Vec<String> = [
        "image",
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
                format!("{0}x{0}", r.side),
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
        "mean vs scalar baseline: {} (paper 3.39x vs its VIA-oblivious baseline)",
        speedup(geomean(
            &rows.iter().map(|r| r.vs_scalar()).collect::<Vec<_>>()
        ))
    );
}
