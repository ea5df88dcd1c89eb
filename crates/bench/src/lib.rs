//! Experiment harness reproducing every table and figure of the VIA paper.
//!
//! One module per experiment; each `cargo run -p via-bench --release --bin
//! <exp>` binary prints the same rows/series the paper reports next to the
//! paper's published numbers. Scale knobs:
//!
//! * `--matrices <N>` — suite size (default: a CI-friendly subset; the
//!   paper uses 1,024),
//! * `--max-rows <N>` — largest matrix dimension (default 1,024–2,048 per
//!   experiment; the paper caps at 20,000),
//! * `--seed <S>` — suite seed.
//!
//! The expectation is *shape* reproduction: who wins, by roughly what
//! factor, and how the trend moves across categories — not absolute cycle
//! counts (see EXPERIMENTS.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
mod argv;
pub mod campaign;
pub mod experiments;
pub mod multicore;
pub mod pair;
pub mod paper;
pub mod report;
pub mod suite;
pub mod tune;

pub use campaign::{
    aggregate_report, aggregate_report_dirs, merge_stores, run_campaign, CampaignConfig,
    CampaignOutcome, Corpus, CycleRow, KernelKind, MergeSummary, Mode, QuarantineRow, ResultRow,
    ShardSpec, StoreMeta,
};
pub use experiments::{
    fig10_spmv, fig11_spma, fig11_spmm, fig12a_histogram, fig12b_stencil, fig9_dse,
    kernel_bound_tightness, point_key, stall_sweep, table2_area, BoundAuditRow, CompiledRun,
    DseRow, HistogramRow, SpmvFormatRow, StallRow, StencilRow, SweepMemo, TightnessRow,
};
pub use multicore::{multicore_sweep, BakeoffRow, MulticoreOutcome, ScalingPoint, CORE_COUNTS};
pub use pair::CategoryRow;
pub use suite::{
    check_nonzero, check_suite_size, cli_args, default_threads, flag_arg, next_flag_value,
    parallel_map, writable_or_exit, write_or_exit, ExperimentScale, Suite, SCALE_FLAGS,
};
pub use tune::{load_tuned, tune, tuned_path, write_tuned, TuneConfig, TuneOutcome, TunedRow};
