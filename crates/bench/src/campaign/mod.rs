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
//!   no in-process stream cache, and no job records a stream — each leg's
//!   stream hash is taken as its instructions are pushed
//!   ([`via_sim::compile::capture_stream_hashes`]).
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

pub use crate::pair::KernelKind;

use crate::pair::check;
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
use via_formats::{Csr, FormatError};
use via_kernels::SimContext;

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

/// Executes one job end to end: materialize the matrix, run the
/// baseline/VIA kernel pair under stream-hash capture (each leg's stream
/// is hashed as it is pushed and never recorded), verify functional
/// agreement, and build the job's cycle-memo row (its result row is
/// [`CycleRow::to_result_row`], exactly as for a memo hit). Pure function
/// of its inputs — the determinism the resume and shard contracts lean
/// on.
///
/// With `backends`, the pair's SSR leg runs as a third leg where one exists
/// and its cycles land in the rows' optional SSR fields; SpMA has no SSR
/// leg and records nothing extra.
fn execute_job(
    source: JobSource,
    kernel: KernelKind,
    fingerprint: u64,
    config_hash: u64,
    backends: bool,
) -> Result<CycleRow, JobFailure> {
    let (name, csr, seed) = match &source {
        JobSource::Synthetic(spec) => {
            let m = spec.build();
            (m.name, m.csr, spec.seed)
        }
        JobSource::File(path) => {
            let coo =
                via_formats::mm::read_matrix_market_file(path).map_err(JobFailure::from_format)?;
            let csr = Csr::try_from_coo(&coo).map_err(JobFailure::from_format)?;
            (path.display().to_string(), csr, fingerprint)
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
    let ctx = SimContext::default();
    let pair = kernel
        .pair(&csr, seed, &ctx)
        .map_err(JobFailure::from_format)?;
    let mismatch = |message: &str| JobFailure {
        kind: FailureKind::VerifyMismatch,
        chain: vec![message.to_string()],
    };
    let capture = via_sim::compile::capture_stream_hashes();
    let base = pair.baseline();
    let via_run = pair.via();
    let [base_stream, via_stream] = capture.take()[..] else {
        unreachable!("each leg runs one engine");
    };
    drop(capture);
    check(&base.output, &via_run.output).map_err(mismatch)?;
    let ssr = match backends.then(|| pair.ssr()).flatten() {
        Some(ssr_run) => {
            check(&base.output, &ssr_run.output).map_err(mismatch)?;
            Some(ssr_run.stats)
        }
        None => None,
    };
    Ok(CycleRow {
        matrix: name,
        fingerprint,
        kernel: kernel.name().to_string(),
        config: ctx.via.name(),
        config_hash,
        base_stream,
        via_stream,
        rows: csr.rows(),
        cols: csr.cols(),
        nnz: csr.nnz(),
        key: pair.key,
        base_cycles: base.stats.cycles,
        via_cycles: via_run.stats.cycles,
        base_instructions: base.stats.instructions,
        via_instructions: via_run.stats.instructions,
        ssr_cycles: ssr.as_ref().map(|s| s.cycles),
        ssr_instructions: ssr.as_ref().map(|s| s.instructions),
    })
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
    /// Kernel pairs to sweep per matrix (on the default VIA machine,
    /// `16_2p`).
    pub kernels: Vec<KernelKind>,
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
    let config_name = ViaConfig::default().name();
    write_meta(
        &cfg.dir,
        &StoreMeta {
            shard: cfg.shard,
            config: config_name.clone(),
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
    // Numbers the progress lines: jobs completed or quarantined so far.
    let finished = AtomicUsize::new(0);
    let skipped = AtomicUsize::new(0);
    let foreign = AtomicUsize::new(0);
    let quarantined = AtomicUsize::new(0);
    let cycle_hits = AtomicUsize::new(0);
    let simulated_cycles = AtomicU64::new(0);
    let per_worker: Vec<AtomicU64> = (0..threads).map(|_| AtomicU64::new(0)).collect();
    let io_error: Mutex<Option<std::io::Error>> = Mutex::new(None);
    let budget = Duration::from_millis(cfg.budget_ms.max(1));
    let total = jobs.len();

    // A failed append stops the run; the first error is returned.
    let append = |log: &Appender, line: String| {
        if let Err(e) = log.append(&line) {
            stop.store(true, Ordering::Relaxed);
            io_error.lock().expect("io_error poisoned").get_or_insert(e);
        }
    };
    let skip_quarantined = mode != Mode::RetryQuarantined;

    // What one claimed job comes to: `None` when it is skipped or belongs
    // to another shard, else quarantined, or done with its cycle-memo row
    // and whether it was simulated (`false`: answered by the memo).
    let resolve = |job: &Job| -> Option<Result<(CycleRow, bool), JobFailure>> {
        let (kernel_name, config) = (job.kernel.name().to_string(), config_name.clone());
        // Previously quarantined jobs are only re-attempted in retry mode
        // (where the schedule contains nothing else); a plain resume
        // leaves them quarantined rather than re-burning their budget on
        // every restart.
        if skip_quarantined
            && quarantined_keys.contains(&(job.source.name(), kernel_name.clone(), config.clone()))
        {
            skipped.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let fingerprint = match job.source.fingerprint() {
            Ok(fp) => fp,
            Err(e) => {
                return Some(Err(JobFailure {
                    kind: FailureKind::Io,
                    chain: vec![format!("cannot read input: {e}")],
                }))
            }
        };
        // Shard partition: a job whose content key this shard does not
        // own is someone else's work — never executed, never logged here.
        // Pure function of the job identity, so the partition is stable
        // across worker counts and kills.
        if !cfg
            .shard
            .owns(shard_key(fingerprint, &kernel_name, &config))
        {
            foreign.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let key = (fingerprint, kernel_name, config);
        if manifest.contains(&key) {
            skipped.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        // Level-two memo: a prior campaign already simulated this (matrix,
        // kernel, config) under the same timing config — rebuild the
        // result row from `cycles.jsonl` and skip the simulator entirely.
        let memo_hit = cycle_memo
            .get(&key)
            .filter(|c| c.config_hash == timing_hash)
            // A backends run needs the SSR column; memo rows from plain
            // campaigns lack it (except SpMA, which has no SSR leg) and
            // fall through to the simulator.
            .filter(|c| !cfg.backends || c.ssr_cycles.is_some() || job.kernel == KernelKind::Spma);
        via_sim::telemetry::record_cycle_cache(memo_hit.is_some());
        if let Some(c) = memo_hit {
            via_sim::telemetry::record_skipped_instructions(
                c.base_instructions + c.via_instructions + c.ssr_instructions.unwrap_or(0),
            );
            return Some(Ok(((*c).clone(), false)));
        }
        let (source, kernel, backends) = (job.source.clone(), job.kernel, cfg.backends);
        let simulated = run_with_budget(budget, &job.source.name(), move || {
            execute_job(source, kernel, fingerprint, timing_hash, backends)
        });
        Some(simulated.and_then(|inner| inner).map(|memo| (memo, true)))
    };

    let worker = |w: usize| loop {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(job) = jobs.get(i) else { break };
        let (name, kernel) = (job.source.name(), job.kernel);
        match resolve(job) {
            None => {}
            Some(Ok((memo, simulated))) => {
                let row = memo.to_result_row();
                append(&results_log, row.to_jsonl());
                if simulated {
                    simulated_cycles.fetch_add(
                        row.base_cycles + row.via_cycles + row.ssr_cycles.unwrap_or(0),
                        Ordering::Relaxed,
                    );
                    append(&cycles_log, memo.to_jsonl());
                } else {
                    cycle_hits.fetch_add(1, Ordering::Relaxed);
                }
                per_worker[w].fetch_add(1, Ordering::Relaxed);
                let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
                let n = finished.fetch_add(1, Ordering::Relaxed) + 1;
                if cfg.progress {
                    println!(
                        "[{n}/{total}] {name} x {kernel}: {} ({}base {} / via {})",
                        speedup(row.speedup()),
                        if simulated { "" } else { "memo hit, " },
                        row.base_cycles,
                        row.via_cycles
                    );
                }
                if cfg.max_jobs.is_some_and(|limit| done >= limit) {
                    stop.store(true, Ordering::Relaxed);
                }
            }
            Some(Err(fail)) => {
                let row = QuarantineRow {
                    matrix: name.clone(),
                    kernel: kernel.name().to_string(),
                    config: config_name.clone(),
                    kind: fail.kind.name().to_string(),
                    chain: fail.chain,
                };
                append(&quarantine_log, row.to_jsonl());
                quarantined.fetch_add(1, Ordering::Relaxed);
                let n = finished.fetch_add(1, Ordering::Relaxed) + 1;
                if cfg.progress {
                    println!(
                        "[{n}/{total}] {name} x {kernel}: quarantined ({})",
                        row.kind
                    );
                }
            }
        }
    };
    std::thread::scope(|scope| {
        for w in 0..threads {
            scope.spawn(move || worker(w));
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
