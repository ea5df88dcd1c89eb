//! Serial-vs-parallel determinism: the sweep harness must produce
//! bit-identical simulation results regardless of worker-thread count.
//!
//! The whole reproduction leans on this — the golden cycle snapshots and
//! the paper scorecard are only meaningful if `--threads 8` answers
//! exactly what `--threads 1` answers. `parallel_map` distributes items
//! dynamically (a claim counter), so any hidden cross-run state in the
//! simulator would show up here as a thread-count-dependent result.

use via_bench::{parallel_map, ExperimentScale, Suite};
use via_formats::gen;
use via_kernels::{spmv, SimContext};
use via_sim::RunStats;

fn sweep(threads: usize) -> Vec<(RunStats, RunStats)> {
    let scale = ExperimentScale {
        matrices: 6,
        min_rows: 64,
        max_rows: 160,
        density_range: (0.002, 0.03),
        seed: 0xD3,
        threads,
    };
    let suite = Suite::generate(&scale);
    parallel_map(&suite.matrices, threads, |m| {
        let ctx = SimContext::default();
        let x = gen::dense_vector(m.csr.cols(), m.seed);
        let scalar = spmv::scalar_csr(&m.csr, &x, &ctx);
        let via = spmv::via_csr(&m.csr, &x, &ctx);
        (scalar.stats, via.stats)
    })
}

#[test]
fn kernel_sweep_is_identical_across_thread_counts() {
    let serial = sweep(1);
    assert_eq!(serial.len(), 6);
    for threads in [2, 8] {
        let parallel = sweep(threads);
        assert_eq!(
            serial, parallel,
            "RunStats diverged between 1 and {threads} threads"
        );
    }
    // Sanity: the serial sweep itself is reproducible.
    assert_eq!(serial, sweep(1));
}
