//! Where do the cycles go? Suite-wide stall-cause attribution for the
//! kernel pairs the paper evaluates, as a CPI-stack table plus per-kernel
//! top-N stall breakdowns.
//!
//! ```sh
//! cargo run --release -p via-bench --bin stall_report [-- --matrices N \
//!     --top N --chrome trace.json ...]
//! ```
//!
//! `--chrome <path>` additionally writes a Chrome trace-event JSON file of
//! one representative VIA-CSB SpMV run (open in Perfetto or
//! `chrome://tracing`).

use via_bench::experiments::stall_sweep;
use via_bench::report::{banner, stall_table};
use via_bench::{
    cli_args, flag_arg, writable_or_exit, write_or_exit, ExperimentScale, KernelKind, Suite,
    SCALE_FLAGS,
};
use via_kernels::{SimContext, TraceOptions};

fn main() {
    let args = cli_args(&[SCALE_FLAGS, &["--top", "--chrome"]].concat(), &[]);
    let scale = ExperimentScale::default().from_args(&args);
    let top = flag_arg(&args, "--top").unwrap_or(8);
    let chrome_path = flag_arg(&args, "--chrome").map(writable_or_exit);

    print!(
        "{}",
        banner(
            "stall attribution",
            "paper §VI: baseline SpMV cycles go to indexed accesses and DRAM",
        )
    );
    eprintln!(
        "suite: {} matrices, {}..{} rows, seed {}, {} threads",
        scale.matrices, scale.min_rows, scale.max_rows, scale.seed, scale.threads
    );

    let before = via_sim::telemetry::snapshot();
    let rows = stall_sweep(&scale);

    // Summary CPI-stack table across all kernels.
    print!("{}", stall_table(&rows));

    // Per-kernel top-N breakdowns.
    for r in &rows {
        println!("\n-- {} --", r.kernel);
        print!("{}", r.report.render(top));
    }

    // Static cycle lower bound on one representative recorded via_csb run:
    // the fraction of the measured time the dataflow/port model already
    // explains — the rest is what the stall columns above attribute.
    print_static_bound(&scale);

    // Compile/replay pipeline counters for the sweep (all zero when the
    // sweep ran fully interpreted, as stall_sweep does today).
    println!(
        "\n{}",
        via_sim::telemetry::snapshot().since(&before).render()
    );

    if let Some(path) = chrome_path {
        write_chrome_trace(&scale, &path);
    }
}

/// Computes the static cycle lower bound of one representative recorded
/// VIA-CSB run (the first matrix of the suite) and prints it next to the
/// simulated count.
fn print_static_bound(scale: &ExperimentScale) {
    let suite = Suite::generate(scale);
    let m = suite.matrices.first().expect("non-empty suite");
    let ctx = SimContext::default().with_recording();
    let run = KernelKind::SpmvCsb.on(m, &ctx).via();
    let stream = run.compiled.as_ref().expect("recording context compiles");
    let bound = via_sim::analyze::static_bound(stream.insts(), &ctx.analyze_config(&run));
    println!(
        "\nstatic bound (spmv/via_csb, {}x{}, {} nnz): {} of {} simulated \
         cycles ({:.3}x tight; replica {}, dram term {})",
        m.csr.rows(),
        m.csr.cols(),
        m.csr.nnz(),
        bound.lower_cycles,
        run.stats.cycles,
        bound.tightness(run.stats.cycles),
        bound.replica_cycles,
        bound.dram_term,
    );
}

/// Writes a Chrome trace of one representative VIA-CSB run (the first
/// matrix of the suite) with full event capture enabled.
fn write_chrome_trace(scale: &ExperimentScale, path: &str) {
    let suite = Suite::generate(scale);
    let m = suite.matrices.first().expect("non-empty suite");
    let ctx = SimContext::default().with_trace(TraceOptions::full(1 << 18));
    let run = KernelKind::SpmvCsb.on(m, &ctx).via();
    let json = run.chrome.expect("event capture enabled");
    write_or_exit(path, &json);
    eprintln!(
        "chrome trace for spmv/via_csb on {}x{} ({} nnz) written to {path}",
        m.csr.rows(),
        m.csr.cols(),
        m.csr.nnz()
    );
}
