//! `via-campaign`: resumable, fault-isolated, **shardable** sweep
//! orchestration.
//!
//! The paper's headline evaluation sweeps **1,024 SuiteSparse matrices**
//! (§V-B). A sweep of that size is a *campaign*, not a function call: it
//! runs for hours, individual inputs may be corrupt, individual jobs may
//! panic or stall, and the machine may die halfway. This module turns the
//! one-shot experiment runners into a durable orchestrator:
//!
//! * **Append-only JSONL result log** — every completed job appends one
//!   self-describing JSON row to `results.jsonl`, carrying a content hash
//!   over the row body. Torn rows from a killed writer are detected and
//!   dropped on reload, so the log is crash-safe without any write barrier
//!   beyond line-buffered appends (see [`store`]).
//! * **Resume manifest** — the log doubles as the manifest: rows are keyed
//!   by `(matrix fingerprint, kernel, config)`. [`Mode::Resume`] skips any
//!   job whose key is already present, so a killed campaign re-run with
//!   `--resume` is byte-equivalent (after canonical sort) to an
//!   uninterrupted run and never re-executes completed work. The store's
//!   `manifest.json` additionally records the shard spec; a resume under a
//!   *different* spec is refused instead of silently mixing partitions.
//! * **Deterministic sharding** — `--shard i/n` partitions the corpus by
//!   content hash of each job's identity (see [`shard`]); N independent
//!   processes produce stores whose canonical merge ([`merge_stores`]) is
//!   byte-identical to a solo run's canonicalized store.
//! * **Fault isolation** — each job runs on its own thread under
//!   `catch_unwind` with a wall-clock budget. Panics, timeouts, malformed
//!   inputs, and verification mismatches land in `quarantine.jsonl` with a
//!   structured error chain instead of aborting the sweep;
//!   [`Mode::RetryQuarantined`] re-attempts exactly those jobs.
//! * **Persistent cycle memo** — every simulated job also appends a
//!   `(stream-hash, config-hash)`-tagged row to `cycles.jsonl`. A later
//!   campaign (resume, overlap, or a fresh directory seeded with the
//!   memo) that meets the same `(matrix, kernel, config)` under the same
//!   timing configuration rebuilds its result row from the memo and skips
//!   the simulator entirely. This is the campaign's only memo: it keeps
//!   no in-process stream cache, and each job drops its recorded streams
//!   once their hashes are taken.
//! * **Work-stealing queue** — workers claim job indices from a shared
//!   atomic counter (the same contention-free scheme as
//!   [`parallel_map`](crate::suite::parallel_map)) with per-worker progress
//!   telemetry.
//! * **Corpus layer** — a campaign consumes either the deterministic
//!   size/density-stratified synthetic corpus
//!   ([`via_formats::gen::stratified_specs`], scaling to the paper's 1,024)
//!   or a manifest of local SuiteSparse `.mtx` downloads; matrices are
//!   materialized *inside* the worker that simulates them, so memory stays
//!   bounded by the thread count.
//!
//! [`aggregate_report`] regenerates Figure-10/11-style geomean tables from
//! the JSONL store alone; [`aggregate_report_dirs`] renders the same view
//! **over any subset of shard stores** (see [`live`]), so a partial fleet
//! run always has a consistent report.

pub mod live;
pub mod shard;
pub mod store;

pub use live::aggregate_report_dirs;
pub use shard::{canonical_sort, merge_stores, shard_key, MergeSummary, ShardSpec};
pub use store::{
    cycles_path, load_cycles, load_meta, load_quarantine, load_results, manifest_path,
    quarantine_path, results_path, write_meta, CycleRow, QuarantineRow, ResultRow, StoreMeta,
};

use crate::report::{render_table, speedup};
use crate::suite::default_threads;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Duration;
use store::{rewrite_jsonl, Appender};
use via_core::ViaConfig;
use via_formats::gen::{self, MatrixSpec, StratifiedConfig};
use via_formats::{Csb, Csr, FormatError, SellCSigma, Spc5};
use via_kernels::{spma, spmm, spmv, ssr, SimContext};

/// FNV-1a over a byte stream: the stable 64-bit content hash used for
/// matrix fingerprints, per-row integrity hashes, and shard keys.
/// Delegates to the simulator's [`via_sim::fnv1a64`] so the store's
/// fingerprints and the compile/replay pipeline's stream/config hashes
/// share one definition.
pub fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    via_sim::fnv1a64(bytes)
}

// ---------------------------------------------------------------------------
// Kernels and jobs
// ---------------------------------------------------------------------------

/// The kernel×format pairs a campaign can sweep. Each runs a software
/// baseline and its VIA counterpart and verifies the functional outputs
/// agree before a row is logged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum KernelKind {
    /// SpMV, vectorized CSR baseline vs VIA-CSR (Fig. 10 first group).
    SpmvCsr,
    /// SpMV, SPC5 baseline vs VIA-SPC5.
    SpmvSpc5,
    /// SpMV, Sell-C-σ baseline vs VIA-Sell.
    SpmvSell,
    /// SpMV, software CSB vs VIA-CSB (`vldxblkmult`; the paper's 4.22×).
    SpmvCsb,
    /// SpMA, scalar two-pointer merge vs CAM merge (Fig. 11).
    Spma,
    /// SpMM, inner-product index matching vs CAM matching (§VII-C).
    /// Quadratic in matrix size — budget accordingly.
    Spmm,
}

impl KernelKind {
    /// Every kernel, in a fixed order.
    pub const ALL: [KernelKind; 6] = [
        KernelKind::SpmvCsr,
        KernelKind::SpmvSpc5,
        KernelKind::SpmvSell,
        KernelKind::SpmvCsb,
        KernelKind::Spma,
        KernelKind::Spmm,
    ];

    /// Stable machine name (used in logs and `--kernels`).
    pub fn name(&self) -> &'static str {
        match self {
            KernelKind::SpmvCsr => "spmv_csr",
            KernelKind::SpmvSpc5 => "spmv_spc5",
            KernelKind::SpmvSell => "spmv_sell",
            KernelKind::SpmvCsb => "spmv_csb",
            KernelKind::Spma => "spma",
            KernelKind::Spmm => "spmm",
        }
    }

    /// Parses a machine name back into a kernel.
    pub fn parse(name: &str) -> Option<KernelKind> {
        KernelKind::ALL.iter().copied().find(|k| k.name() == name)
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Where a job's matrix comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSource {
    /// A deferred synthetic matrix (materialized inside the worker).
    Synthetic(MatrixSpec),
    /// A Matrix Market file on disk (e.g. a SuiteSparse download).
    File(PathBuf),
}

impl JobSource {
    /// Stable display name: the spec name or the file path.
    pub fn name(&self) -> String {
        match self {
            JobSource::Synthetic(spec) => spec.name.clone(),
            JobSource::File(path) => path.display().to_string(),
        }
    }

    /// The matrix content fingerprint: spec fingerprint for synthetic
    /// matrices, FNV-1a over the raw file bytes for files (no parse
    /// needed, so completed work is skippable without re-reading the
    /// matrix into a format).
    pub fn fingerprint(&self) -> Result<u64, std::io::Error> {
        match self {
            JobSource::Synthetic(spec) => Ok(spec.fingerprint()),
            JobSource::File(path) => {
                let bytes = std::fs::read(path)?;
                Ok(fnv1a64(bytes))
            }
        }
    }
}

/// One schedulable unit of work: a matrix × kernel pair (the VIA config is
/// campaign-wide).
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// The matrix to run on.
    pub source: JobSource,
    /// The kernel pair to run.
    pub kernel: KernelKind,
}

/// The matrix corpus a campaign sweeps.
#[derive(Debug, Clone, PartialEq)]
pub enum Corpus {
    /// The deterministic stratified synthetic corpus (paper-population
    /// stand-in; scales to 1,024 and beyond).
    Synthetic(StratifiedConfig),
    /// Explicit Matrix Market files (local SuiteSparse downloads).
    Files(Vec<PathBuf>),
}

impl Corpus {
    /// Reads a corpus manifest: one `.mtx` path per line, `#` comments and
    /// blank lines ignored, relative paths resolved against the manifest's
    /// directory.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error from reading the manifest.
    pub fn from_manifest(path: impl AsRef<Path>) -> std::io::Result<Corpus> {
        let path = path.as_ref();
        let base = path.parent().unwrap_or(Path::new("."));
        let text = std::fs::read_to_string(path)?;
        let mut files = Vec::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let p = PathBuf::from(line);
            files.push(if p.is_absolute() { p } else { base.join(p) });
        }
        Ok(Corpus::Files(files))
    }

    /// Expands the corpus × kernel grid into the campaign's job list,
    /// deduplicated by `(name, kernel)`.
    pub fn jobs(&self, kernels: &[KernelKind]) -> Vec<Job> {
        let sources: Vec<JobSource> = match self {
            Corpus::Synthetic(cfg) => gen::stratified_specs(cfg)
                .into_iter()
                .map(JobSource::Synthetic)
                .collect(),
            Corpus::Files(paths) => paths.iter().cloned().map(JobSource::File).collect(),
        };
        let mut seen = HashSet::new();
        let mut jobs = Vec::with_capacity(sources.len() * kernels.len());
        for source in &sources {
            for &kernel in kernels {
                if seen.insert((source.name(), kernel)) {
                    jobs.push(Job {
                        source: source.clone(),
                        kernel,
                    });
                }
            }
        }
        jobs
    }
}

/// Why a job was quarantined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailureKind {
    /// The input could not be parsed/constructed (`via_formats` error).
    Format(&'static str),
    /// The matrix was empty (no rows or no non-zeros).
    Empty,
    /// The job panicked.
    Panic,
    /// The job exceeded its wall-clock budget.
    Timeout,
    /// Baseline and VIA outputs disagreed.
    VerifyMismatch,
    /// I/O failure before the job could start (unreadable file).
    Io,
}

impl FailureKind {
    /// Stable machine name written to the quarantine log.
    pub fn name(&self) -> &'static str {
        match self {
            FailureKind::Format(kind) => kind,
            FailureKind::Empty => "empty",
            FailureKind::Panic => "panic",
            FailureKind::Timeout => "timeout",
            FailureKind::VerifyMismatch => "verify_mismatch",
            FailureKind::Io => "io",
        }
    }
}

/// A failed job: the structured error that landed it in quarantine.
#[derive(Debug, Clone, PartialEq)]
pub struct JobFailure {
    /// Failure category.
    pub kind: FailureKind,
    /// Human-readable error chain, outermost first (e.g. the
    /// [`FormatError`] display plus each `source()` below it).
    pub chain: Vec<String>,
}

impl JobFailure {
    /// Wraps a [`FormatError`] as a quarantinable failure, flattening its
    /// `source()` chain into human-readable lines (outermost first).
    pub fn from_format(err: FormatError) -> JobFailure {
        let mut chain = vec![err.to_string()];
        let mut src: Option<&(dyn std::error::Error + 'static)> = std::error::Error::source(&err);
        while let Some(e) = src {
            chain.push(e.to_string());
            src = e.source();
        }
        JobFailure {
            kind: FailureKind::Format(err.kind()),
            chain,
        }
    }
}

// ---------------------------------------------------------------------------
// Budgeted, panic-isolated execution
// ---------------------------------------------------------------------------

/// Runs `f` on a dedicated thread under `catch_unwind` with a wall-clock
/// budget. On timeout the runaway thread is *abandoned* (it keeps running
/// detached until its own completion — the simulator has no preemption
/// points) and the job is reported as [`FailureKind::Timeout`].
pub fn run_with_budget<T: Send + 'static>(
    budget: Duration,
    label: &str,
    f: impl FnOnce() -> T + Send + 'static,
) -> Result<T, JobFailure> {
    let (tx, rx) = mpsc::channel();
    let spawned = std::thread::Builder::new()
        .name(format!("via-job-{label}"))
        .spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            let _ = tx.send(result);
        });
    let handle = match spawned {
        Ok(h) => h,
        Err(e) => {
            return Err(JobFailure {
                kind: FailureKind::Io,
                chain: vec![format!("failed to spawn job thread: {e}")],
            })
        }
    };
    match rx.recv_timeout(budget) {
        Ok(Ok(v)) => {
            let _ = handle.join();
            Ok(v)
        }
        Ok(Err(panic)) => {
            let _ = handle.join();
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "panic payload of unknown type".to_string());
            Err(JobFailure {
                kind: FailureKind::Panic,
                chain: vec![format!("job panicked: {msg}")],
            })
        }
        Err(mpsc::RecvTimeoutError::Timeout) => Err(JobFailure {
            kind: FailureKind::Timeout,
            chain: vec![format!(
                "job exceeded its wall-clock budget of {} ms (thread abandoned)",
                budget.as_millis()
            )],
        }),
        Err(mpsc::RecvTimeoutError::Disconnected) => Err(JobFailure {
            kind: FailureKind::Panic,
            chain: vec!["job thread vanished without reporting".into()],
        }),
    }
}

/// Structural + approximate-value equality for two canonical CSR results.
fn csr_approx_eq(a: &Csr, b: &Csr, tol: f64) -> bool {
    if a.rows() != b.rows() || a.cols() != b.cols() || a.nnz() != b.nnz() {
        return false;
    }
    a.iter()
        .zip(b.iter())
        .all(|((ra, ca, va), (rb, cb, vb))| ra == rb && ca == cb && (va - vb).abs() <= tol)
}

/// `(cycles, instructions, stream hash)` of one finished kernel run — the
/// slice of a [`via_kernels::KernelRun`] the cycle memo records.
fn run_meta<T>(run: &via_kernels::KernelRun<T>) -> (u64, u64, u64) {
    (
        run.stats.cycles,
        run.stats.instructions,
        run.compiled.as_ref().map_or(0, |s| s.stream_hash()),
    )
}

/// Executes one job end to end: materialize the matrix, run the
/// baseline/VIA kernel pair under stream recording (the compile phase),
/// verify functional agreement, build the result row and its cycle-memo
/// row. Pure function of its inputs — the determinism the resume and
/// shard contracts lean on.
///
/// With `backends`, the SSR rival kernel runs as a third leg where one
/// exists (SpMV streams the CSR regardless of the baseline's format; SpMM
/// streams Gustavson) and its cycles land in the rows' optional SSR
/// fields; SpMA has no SSR variant and records nothing extra.
fn execute_job(
    source: JobSource,
    kernel: KernelKind,
    via: ViaConfig,
    fingerprint: u64,
    config_hash: u64,
    backends: bool,
) -> Result<(ResultRow, CycleRow), JobFailure> {
    const TOL: f64 = 1e-6;
    let (name, csr, seed) = match &source {
        JobSource::Synthetic(spec) => {
            let m = spec.build();
            (m.name, m.csr, spec.seed)
        }
        JobSource::File(path) => {
            let coo =
                via_formats::mm::read_matrix_market_file(path).map_err(JobFailure::from_format)?;
            (path.display().to_string(), Csr::from_coo(&coo), fingerprint)
        }
    };
    if csr.rows() == 0 || csr.cols() == 0 || csr.nnz() == 0 {
        return Err(JobFailure {
            kind: FailureKind::Empty,
            chain: vec![format!(
                "matrix is empty: {}x{} with {} non-zeros",
                csr.rows(),
                csr.cols(),
                csr.nnz()
            )],
        });
    }
    let ctx = SimContext::with_via(via).with_recording();
    let config = ctx.via.name();
    let verify_vec = |base: &[f64], via_out: &[f64]| -> Result<(), JobFailure> {
        if via_formats::vec_approx_eq(base, via_out, TOL) {
            Ok(())
        } else {
            Err(JobFailure {
                kind: FailureKind::VerifyMismatch,
                chain: vec!["baseline and VIA outputs disagree beyond 1e-6".into()],
            })
        }
    };
    let verify_csr = |base: &Csr, via_out: &Csr| -> Result<(), JobFailure> {
        if csr_approx_eq(base, via_out, TOL) {
            Ok(())
        } else {
            Err(JobFailure {
                kind: FailureKind::VerifyMismatch,
                chain: vec!["baseline and VIA sparse outputs disagree beyond 1e-6".into()],
            })
        }
    };
    let (key, base_meta, via_meta, ssr_meta) = match kernel {
        KernelKind::SpmvCsr | KernelKind::SpmvSpc5 | KernelKind::SpmvSell | KernelKind::SpmvCsb => {
            let x = gen::dense_vector(csr.cols(), seed);
            let bs = ctx.via.csb_block_size();
            let csb = Csb::from_csr(&csr, bs).map_err(JobFailure::from_format)?;
            let key = csb.mean_block_density();
            let (base, via_run) = match kernel {
                KernelKind::SpmvCsr => {
                    (spmv::csr_vec(&csr, &x, &ctx), spmv::via_csr(&csr, &x, &ctx))
                }
                KernelKind::SpmvSpc5 => {
                    let m = Spc5::from_csr(&csr, ctx.vl()).map_err(JobFailure::from_format)?;
                    (spmv::spc5(&m, &x, &ctx), spmv::via_spc5(&m, &x, &ctx))
                }
                KernelKind::SpmvSell => {
                    let vl = ctx.vl();
                    let sigma = (vl * 8).min(csr.rows().max(vl));
                    let m = SellCSigma::from_csr(&csr, vl, sigma)
                        .or_else(|_| SellCSigma::from_csr(&csr, vl, vl))
                        .map_err(JobFailure::from_format)?;
                    (spmv::sell(&m, &x, &ctx), spmv::via_sell(&m, &x, &ctx))
                }
                KernelKind::SpmvCsb => (
                    spmv::csb_software(&csb, &x, &ctx),
                    spmv::via_csb(&csb, &x, &ctx),
                ),
                _ => unreachable!(),
            };
            verify_vec(&base.output, &via_run.output)?;
            // The SSR backend streams the CSR whatever the baseline's
            // format — the rival architecture has no SPC5/Sell/CSB
            // variants, so every SpMV kind gets the same third column.
            let ssr_meta = if backends {
                let ssr_run = ssr::spmv_csr(&csr, &x, &ctx);
                verify_vec(&base.output, &ssr_run.output)?;
                Some(run_meta(&ssr_run))
            } else {
                None
            };
            (key, run_meta(&base), run_meta(&via_run), ssr_meta)
        }
        KernelKind::Spma => {
            let b = gen::perturb_structure(&csr, 0.6, 0.5, seed ^ 1);
            let base = spma::merge_csr(&csr, &b, &ctx);
            let via_run = spma::via_cam(&csr, &b, &ctx);
            verify_csr(&base.output, &via_run.output)?;
            // No SSR SpMA model — the column stays empty for this kernel.
            (csr.nnz() as f64, run_meta(&base), run_meta(&via_run), None)
        }
        KernelKind::Spmm => {
            let b_csr = gen::uniform(csr.cols(), csr.cols(), csr.density(), seed ^ 2);
            let b = b_csr.to_csc();
            let base = spmm::inner_product(&csr, &b, &ctx);
            let via_run = spmm::via_cam(&csr, &b, &ctx);
            verify_csr(&base.output, &via_run.output)?;
            let ssr_meta = if backends {
                let ssr_run = ssr::spmm_gustavson(&csr, &b_csr, &ctx);
                verify_csr(&base.output, &ssr_run.output)?;
                Some(run_meta(&ssr_run))
            } else {
                None
            };
            (
                csr.nnz() as f64 / csr.rows().max(1) as f64,
                run_meta(&base),
                run_meta(&via_run),
                ssr_meta,
            )
        }
    };
    let (base_cycles, base_instructions, base_stream) = base_meta;
    let (via_cycles, via_instructions, via_stream) = via_meta;
    let ssr_cycles = ssr_meta.map(|m| m.0);
    let ssr_instructions = ssr_meta.map(|m| m.1);
    let result = ResultRow {
        matrix: name,
        fingerprint,
        kernel: kernel.name().to_string(),
        config: config.clone(),
        rows: csr.rows(),
        cols: csr.cols(),
        nnz: csr.nnz(),
        key,
        base_cycles,
        via_cycles,
        ssr_cycles,
    };
    let memo = CycleRow {
        matrix: result.matrix.clone(),
        fingerprint,
        kernel: result.kernel.clone(),
        config,
        config_hash,
        base_stream,
        via_stream,
        rows: result.rows,
        cols: result.cols,
        nnz: result.nnz,
        key,
        base_cycles,
        via_cycles,
        base_instructions,
        via_instructions,
        ssr_cycles,
        ssr_instructions,
    };
    Ok((result, memo))
}

// ---------------------------------------------------------------------------
// Campaign driver
// ---------------------------------------------------------------------------

/// How a campaign treats pre-existing state in its directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Refuse to run if the directory already holds results (anti-clobber
    /// guard for fat-fingered re-launches).
    Fresh,
    /// Skip every job whose manifest key is already in `results.jsonl` or
    /// whose `(matrix, kernel)` is quarantined; run the rest.
    Resume,
    /// Re-attempt *only* the quarantined jobs; completed work stays
    /// skipped, successes leave quarantine, new failures replace their
    /// old quarantine rows.
    RetryQuarantined,
}

/// Campaign-wide knobs.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Durable store directory (`results.jsonl`, `quarantine.jsonl`).
    pub dir: PathBuf,
    /// Kernel pairs to sweep per matrix.
    pub kernels: Vec<KernelKind>,
    /// VIA hardware configuration for the sweep.
    pub via: ViaConfig,
    /// Worker threads.
    pub threads: usize,
    /// Per-job wall-clock budget in milliseconds.
    pub budget_ms: u64,
    /// Stop claiming new jobs once this many have *completed this run*
    /// (simulates a mid-sweep kill for the resume tests; `None` = run to
    /// the end).
    pub max_jobs: Option<usize>,
    /// The slice of the corpus this process owns (default
    /// [`ShardSpec::SOLO`]: everything). Jobs whose [`shard_key`] this
    /// shard does not own are counted as
    /// [`CampaignOutcome::foreign`] and never executed.
    pub shard: ShardSpec,
    /// Print one line per finished job.
    pub progress: bool,
    /// Run the SSR rival-backend leg per job and record its cycles in the
    /// rows' optional SSR fields (`campaign --backends`). Off by default:
    /// plain campaigns produce byte-identical stores to the pre-backend
    /// format. Memo entries without SSR data are treated as misses when
    /// this is on, so resumed backend campaigns re-simulate exactly the
    /// jobs that lack the third column.
    pub backends: bool,
}

impl CampaignConfig {
    /// A config with defaults (VIA `16_2p`, all cores, 120 s budget,
    /// VIA-CSB SpMV kernel, solo shard) writing to `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CampaignConfig {
            dir: dir.into(),
            kernels: vec![KernelKind::SpmvCsb],
            via: ViaConfig::default(),
            threads: default_threads(),
            budget_ms: 120_000,
            max_jobs: None,
            shard: ShardSpec::SOLO,
            progress: false,
            backends: false,
        }
    }
}

/// What a campaign run did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignOutcome {
    /// Jobs that completed and were logged *this run*.
    pub completed: usize,
    /// Jobs skipped because the manifest already had them.
    pub skipped: usize,
    /// Jobs belonging to other shards (never executed, never logged).
    pub foreign: usize,
    /// Jobs quarantined this run.
    pub quarantined: usize,
    /// Whether the run stopped early because [`CampaignConfig::max_jobs`]
    /// was reached.
    pub aborted: bool,
    /// Jobs completed per worker (work-stealing telemetry).
    pub per_worker: Vec<u64>,
    /// Total simulated cycles (baseline + VIA) this run. Memo hits
    /// contribute nothing here — they never touch the simulator.
    pub simulated_cycles: u64,
    /// Jobs completed from the persistent cycle memo (`cycles.jsonl`)
    /// without simulating anything.
    pub cycle_cache_hits: usize,
}

/// Errors a campaign can fail with before any job runs.
#[derive(Debug)]
pub enum CampaignError {
    /// [`Mode::Fresh`] on a directory that already holds results.
    WouldClobber(PathBuf),
    /// The store's `manifest.json` records a different shard spec than
    /// the one this run was launched with — resuming would silently mix
    /// rows from incompatible corpus partitions.
    ShardMismatch {
        /// The store directory that refused the run.
        dir: PathBuf,
        /// The shard spec recorded in the store manifest.
        stored: ShardSpec,
        /// The shard spec this run was launched with.
        requested: ShardSpec,
    },
    /// Underlying I/O failure on the durable store.
    Io(std::io::Error),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::WouldClobber(p) => write!(
                f,
                "campaign directory {} already holds results; pass --resume to continue it \
                 or point --dir at a fresh directory",
                p.display()
            ),
            CampaignError::ShardMismatch {
                dir,
                stored,
                requested,
            } => write!(
                f,
                "store {} was produced as shard {stored} but this run asked for shard \
                 {requested}; mixing shard partitions in one store would corrupt the merge \
                 contract — resume with --shard {stored} or use a fresh directory",
                dir.display()
            ),
            CampaignError::Io(e) => write!(f, "campaign store i/o error: {e}"),
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CampaignError {
    fn from(e: std::io::Error) -> Self {
        CampaignError::Io(e)
    }
}

/// Runs (or resumes, or retries) a campaign over `corpus`.
///
/// See the module docs for the durability contract. Returns the run's
/// telemetry; the durable outputs are `results.jsonl` / `quarantine.jsonl`
/// / `cycles.jsonl` / `manifest.json` in `cfg.dir`.
///
/// # Errors
///
/// [`CampaignError::WouldClobber`] for [`Mode::Fresh`] on a non-empty
/// store, [`CampaignError::ShardMismatch`] when the store manifest records
/// a different shard spec, [`CampaignError::Io`] for store I/O failures.
pub fn run_campaign(
    cfg: &CampaignConfig,
    corpus: &Corpus,
    mode: Mode,
) -> Result<CampaignOutcome, CampaignError> {
    std::fs::create_dir_all(&cfg.dir)?;
    let existing = load_results(&cfg.dir)?;
    if mode == Mode::Fresh && !existing.is_empty() {
        return Err(CampaignError::WouldClobber(cfg.dir.clone()));
    }
    // Shard-spec guard: a store records the spec it was produced under;
    // continuing it under a different spec is refused (the rows of two
    // different partitions would be indistinguishable after the fact).
    // Legacy stores without a manifest are grandfathered in, and an empty
    // store (no result rows yet) may be re-purposed freely.
    if let Some(meta) = load_meta(&cfg.dir)? {
        if meta.shard != cfg.shard && !existing.is_empty() {
            return Err(CampaignError::ShardMismatch {
                dir: cfg.dir.clone(),
                stored: meta.shard,
                requested: cfg.shard,
            });
        }
    }
    write_meta(
        &cfg.dir,
        &StoreMeta {
            shard: cfg.shard,
            config: cfg.via.name(),
        },
    )?;
    let old_quarantine = load_quarantine(&cfg.dir)?;
    let old_cycles = load_cycles(&cfg.dir)?;

    // Compact the logs (drops torn lines from a killed writer) so the
    // final merged log is clean regardless of where the previous run died.
    rewrite_jsonl(
        &results_path(&cfg.dir),
        existing.iter().map(|r| r.to_jsonl()),
    )?;
    rewrite_jsonl(
        &cycles_path(&cfg.dir),
        old_cycles.iter().map(|r| r.to_jsonl()),
    )?;

    let manifest: HashSet<(u64, String, String)> =
        existing.iter().map(|r| r.manifest_key()).collect();
    // The persistent cycle memo (level two of the compile/replay
    // pipeline's memoization): jobs whose timing is already known under
    // the current timing config skip the simulator entirely.
    let timing_hash = {
        let ctx = SimContext::default();
        via_sim::config_hash(&ctx.core, &ctx.mem)
    };
    let cycle_memo: std::collections::HashMap<(u64, String, String), &CycleRow> =
        old_cycles.iter().map(|r| (r.memo_key(), r)).collect();
    let quarantined_keys: HashSet<(String, String, String)> =
        old_quarantine.iter().map(QuarantineRow::job_key).collect();

    let all_jobs = corpus.jobs(&cfg.kernels);
    let config_name = cfg.via.name();
    let jobs: Vec<Job> = match mode {
        Mode::RetryQuarantined => all_jobs
            .into_iter()
            .filter(|j| {
                quarantined_keys.contains(&(
                    j.source.name(),
                    j.kernel.name().to_string(),
                    config_name.clone(),
                ))
            })
            .collect(),
        _ => all_jobs,
    };

    // In retry mode the retried jobs' old quarantine rows are dropped up
    // front and only fresh failures are re-recorded; rows for jobs no
    // longer in the corpus are preserved verbatim.
    if mode == Mode::RetryQuarantined {
        let retried: HashSet<(String, String)> = jobs
            .iter()
            .map(|j| (j.source.name(), j.kernel.name().to_string()))
            .collect();
        rewrite_jsonl(
            &quarantine_path(&cfg.dir),
            old_quarantine
                .iter()
                .filter(|q| !retried.contains(&(q.matrix.clone(), q.kernel.clone())))
                .map(|q| q.to_jsonl()),
        )?;
    } else {
        rewrite_jsonl(
            &quarantine_path(&cfg.dir),
            old_quarantine.iter().map(|q| q.to_jsonl()),
        )?;
    }

    let results_log = Appender::open(&results_path(&cfg.dir))?;
    let quarantine_log = Appender::open(&quarantine_path(&cfg.dir))?;
    let cycles_log = Appender::open(&cycles_path(&cfg.dir))?;

    let threads = cfg.threads.max(1).min(jobs.len().max(1));
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let completed = AtomicUsize::new(0);
    let skipped = AtomicUsize::new(0);
    let foreign = AtomicUsize::new(0);
    let quarantined = AtomicUsize::new(0);
    let cycle_hits = AtomicUsize::new(0);
    let simulated_cycles = AtomicU64::new(0);
    let per_worker: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
    let io_error: Mutex<Option<std::io::Error>> = Mutex::new(None);
    let budget = Duration::from_millis(cfg.budget_ms.max(1));
    let total = jobs.len();

    let record_io_err = |e: std::io::Error| {
        stop.store(true, Ordering::Relaxed);
        let mut slot = io_error.lock().expect("io_error poisoned");
        slot.get_or_insert(e);
    };

    std::thread::scope(|scope| {
        for w in 0..threads {
            let jobs = &jobs;
            let manifest = &manifest;
            let quarantined_keys = &quarantined_keys;
            let cycle_memo = &cycle_memo;
            let results_log = &results_log;
            let quarantine_log = &quarantine_log;
            let cycles_log = &cycles_log;
            let next = &next;
            let stop = &stop;
            let completed = &completed;
            let skipped = &skipped;
            let foreign = &foreign;
            let quarantined = &quarantined;
            let cycle_hits = &cycle_hits;
            let simulated_cycles = &simulated_cycles;
            let per_worker = &per_worker;
            let record_io_err = &record_io_err;
            let config_name = config_name.clone();
            let via = cfg.via;
            let shard = cfg.shard;
            let skip_quarantined = mode != Mode::RetryQuarantined;
            let (progress, max_jobs) = (cfg.progress, cfg.max_jobs);
            let backends = cfg.backends;
            scope.spawn(move || loop {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                let job = &jobs[i];
                let name = job.source.name();
                let kernel = job.kernel;
                // Previously quarantined jobs are only re-attempted in
                // retry mode (where the schedule contains nothing else);
                // a plain resume leaves them quarantined rather than
                // re-burning their budget on every restart.
                if skip_quarantined
                    && quarantined_keys.contains(&(
                        name.clone(),
                        kernel.name().to_string(),
                        config_name.clone(),
                    ))
                {
                    skipped.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                let fingerprint = match job.source.fingerprint() {
                    Ok(fp) => fp,
                    Err(e) => {
                        let row = QuarantineRow {
                            matrix: name.clone(),
                            kernel: kernel.name().to_string(),
                            config: config_name.clone(),
                            kind: FailureKind::Io.name().to_string(),
                            chain: vec![format!("cannot read input: {e}")],
                        };
                        if let Err(e) = quarantine_log.append(&row.to_jsonl()) {
                            record_io_err(e);
                        }
                        quarantined.fetch_add(1, Ordering::Relaxed);
                        if progress {
                            println!("[{i}/{total}] {name} x {kernel}: quarantined (io)");
                        }
                        continue;
                    }
                };
                // Shard partition: a job whose content key this shard does
                // not own is someone else's work — never executed, never
                // logged here. Pure function of the job identity, so the
                // partition is stable across worker counts and kills.
                if !shard.owns(shard_key(fingerprint, kernel.name(), &config_name)) {
                    foreign.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                if manifest.contains(&(fingerprint, kernel.name().to_string(), config_name.clone()))
                {
                    skipped.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                // Level-two memo: a prior campaign already simulated this
                // (matrix, kernel, config) under the same timing config —
                // rebuild the result row from `cycles.jsonl` and skip the
                // simulator entirely.
                let memo_hit = cycle_memo
                    .get(&(fingerprint, kernel.name().to_string(), config_name.clone()))
                    .filter(|c| c.config_hash == timing_hash)
                    // A backends run needs the SSR column; memo rows from
                    // plain campaigns lack it (except SpMA, which has no
                    // SSR leg) and fall through to the simulator.
                    .filter(|c| !backends || c.ssr_cycles.is_some() || kernel == KernelKind::Spma);
                via_sim::telemetry::record_cycle_cache(memo_hit.is_some());
                if let Some(c) = memo_hit {
                    via_sim::telemetry::record_skipped_instructions(
                        c.base_instructions + c.via_instructions + c.ssr_instructions.unwrap_or(0),
                    );
                    let row = c.to_result_row();
                    if let Err(e) = results_log.append(&row.to_jsonl()) {
                        record_io_err(e);
                    }
                    per_worker[w].fetch_add(1, Ordering::Relaxed);
                    cycle_hits.fetch_add(1, Ordering::Relaxed);
                    let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
                    if progress {
                        println!(
                            "[{done}/{total}] {name} x {kernel}: {} (memo hit, base {} / via {})",
                            speedup(row.speedup()),
                            row.base_cycles,
                            row.via_cycles
                        );
                    }
                    if let Some(limit) = max_jobs {
                        if done >= limit {
                            stop.store(true, Ordering::Relaxed);
                        }
                    }
                    continue;
                }
                let source = job.source.clone();
                let outcome = run_with_budget(budget, &name, move || {
                    execute_job(source, kernel, via, fingerprint, timing_hash, backends)
                })
                .and_then(|inner| inner);
                match outcome {
                    Ok((row, memo)) => {
                        simulated_cycles.fetch_add(
                            row.base_cycles + row.via_cycles + row.ssr_cycles.unwrap_or(0),
                            Ordering::Relaxed,
                        );
                        if let Err(e) = results_log.append(&row.to_jsonl()) {
                            record_io_err(e);
                        }
                        if let Err(e) = cycles_log.append(&memo.to_jsonl()) {
                            record_io_err(e);
                        }
                        per_worker[w].fetch_add(1, Ordering::Relaxed);
                        let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
                        if progress {
                            println!(
                                "[{done}/{total}] {name} x {kernel}: {} (base {} / via {})",
                                speedup(row.speedup()),
                                row.base_cycles,
                                row.via_cycles
                            );
                        }
                        if let Some(limit) = max_jobs {
                            if done >= limit {
                                stop.store(true, Ordering::Relaxed);
                            }
                        }
                    }
                    Err(fail) => {
                        let row = QuarantineRow {
                            matrix: name.clone(),
                            kernel: kernel.name().to_string(),
                            config: config_name.clone(),
                            kind: fail.kind.name().to_string(),
                            chain: fail.chain,
                        };
                        if let Err(e) = quarantine_log.append(&row.to_jsonl()) {
                            record_io_err(e);
                        }
                        quarantined.fetch_add(1, Ordering::Relaxed);
                        if progress {
                            println!(
                                "[{i}/{total}] {name} x {kernel}: quarantined ({})",
                                row.kind
                            );
                        }
                    }
                }
            });
        }
    });

    if let Some(e) = io_error.into_inner().expect("io_error poisoned") {
        return Err(CampaignError::Io(e));
    }
    Ok(CampaignOutcome {
        completed: completed.into_inner(),
        skipped: skipped.into_inner(),
        foreign: foreign.into_inner(),
        quarantined: quarantined.into_inner(),
        aborted: stop.into_inner() && cfg.max_jobs.is_some(),
        per_worker: per_worker.into_iter().map(|a| a.into_inner()).collect(),
        simulated_cycles: simulated_cycles.into_inner(),
        cycle_cache_hits: cycle_hits.into_inner(),
    })
}

// ---------------------------------------------------------------------------
// Aggregate report
// ---------------------------------------------------------------------------

/// Regenerates Figure-10/11-style geomean tables from one JSONL store
/// ([`aggregate_report_dirs`] is the multi-shard live view).
///
/// # Errors
///
/// Returns I/O errors from reading the store.
pub fn aggregate_report(dir: &Path) -> std::io::Result<String> {
    aggregate_report_dirs(std::slice::from_ref(&dir.to_path_buf()))
}

/// Renders the quarantine log as a summary table (printed by
/// `campaign run`).
pub fn quarantine_table(rows: &[QuarantineRow]) -> String {
    let header: Vec<String> = ["matrix", "kernel", "kind", "error"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|q| {
            vec![
                q.matrix.clone(),
                q.kernel.clone(),
                q.kind.clone(),
                q.chain.first().cloned().unwrap_or_default(),
            ]
        })
        .collect();
    render_table(&header, &table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_isolates_panics() {
        let err = run_with_budget(Duration::from_secs(5), "t", || -> u32 {
            panic!("boom {}", 7)
        })
        .unwrap_err();
        assert_eq!(err.kind, FailureKind::Panic);
        assert!(err.chain[0].contains("boom 7"));
    }

    #[test]
    fn budget_times_out_runaway_jobs() {
        let err = run_with_budget(Duration::from_millis(20), "t", || {
            std::thread::sleep(Duration::from_millis(400));
            1u32
        })
        .unwrap_err();
        assert_eq!(err.kind, FailureKind::Timeout);
    }

    #[test]
    fn budget_returns_results() {
        assert_eq!(
            run_with_budget(Duration::from_secs(5), "t", || 41 + 1).unwrap(),
            42
        );
    }

    #[test]
    fn kernel_names_round_trip() {
        for k in KernelKind::ALL {
            assert_eq!(KernelKind::parse(k.name()), Some(k));
        }
        assert_eq!(KernelKind::parse("nope"), None);
    }

    #[test]
    fn corpus_jobs_dedupe() {
        let corpus = Corpus::Files(vec![PathBuf::from("a.mtx"), PathBuf::from("a.mtx")]);
        let jobs = corpus.jobs(&[KernelKind::SpmvCsb, KernelKind::Spma]);
        assert_eq!(jobs.len(), 2);
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned: the store format depends on this constant staying put.
        assert_eq!(fnv1a64(*b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(*b"via"), fnv1a64(*b"via"));
        assert_ne!(fnv1a64(*b"via"), fnv1a64(*b"vib"));
    }
}
