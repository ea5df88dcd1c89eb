//! Multi-core socket scaling sweep + backend bake-off.
//!
//! Runs the N ∈ {1, 2, 4, 8} core-scaling grid for every backend
//! (baseline / VIA / SSR) over the row-partitioned SpMV and SpMM kernels,
//! prints the bake-off and scaling tables, and records the whole grid in
//! `BENCH_multicore.json`. The run fails if the 4-core geomean speedup on
//! the partitioned kernels drops under the 1.7x acceptance floor.
//!
//! ```sh
//! cargo run --release -p via-bench --bin multicore \
//!     [-- --matrices N --max-rows N --seed S --threads N --out path.json]
//! ```

use via_bench::report::banner;
use via_bench::{
    cli_args, flag_arg, multicore_sweep, writable_or_exit, write_or_exit, ExperimentScale,
    SCALE_FLAGS,
};

/// Acceptance floor: geomean speedup at 4 cores across the partitioned
/// kernels and backends (nnz-balanced bands over a shared LLC).
const FOUR_CORE_FLOOR: f64 = 1.7;

fn main() {
    let args = cli_args(&[SCALE_FLAGS, &["--out"]].concat(), &[]);
    let out_path =
        writable_or_exit(flag_arg(&args, "--out").unwrap_or_else(|| "BENCH_multicore.json".into()));
    let scale = ExperimentScale::quick().from_args(&args);

    print!(
        "{}",
        banner(
            "Multi-core socket sweep",
            "baseline / VIA / SSR backends at 1, 2, 4, 8 cores over one shared LLC",
        )
    );
    eprintln!(
        "suite: {} matrices, {}..{} rows, seed {}, {} threads",
        scale.matrices, scale.min_rows, scale.max_rows, scale.seed, scale.threads
    );

    let out = multicore_sweep(&scale);
    print!("{}", out.render());

    let four = out.partitioned_geomean(4);
    println!("\n4-core geomean speedup {four:.2}x (floor {FOUR_CORE_FLOOR}x)");
    write_or_exit(&out_path, &out.to_json(&scale));
    eprintln!("-> {out_path}");
    if four < FOUR_CORE_FLOOR {
        eprintln!("4-core geomean {four:.3}x under the {FOUR_CORE_FLOOR}x acceptance floor");
        std::process::exit(1);
    }
}
