//! `via-campaign`: resumable, fault-isolated, distributable sweep
//! campaigns over a matrix corpus (toward the paper's 1,024-matrix
//! evaluation, §V-B).
//!
//! ```sh
//! # Fresh 1,024-matrix synthetic sweep of the VIA-CSB SpMV kernel:
//! cargo run --release -p via-bench --bin campaign -- \
//!     run --dir campaign_out --synthetic 1024
//!
//! # Killed halfway? Pick up where it died (completed work is skipped):
//! cargo run --release -p via-bench --bin campaign -- \
//!     run --dir campaign_out --synthetic 1024 --resume
//!
//! # Shard 0 of a 3-process distributed run (see `merge` below):
//! cargo run --release -p via-bench --bin campaign -- \
//!     run --dir shard0 --synthetic 1024 --shard 0/3
//!
//! # Fold shard stores into one canonical store (byte-identical to a
//! # canonicalized solo run):
//! cargo run --release -p via-bench --bin campaign -- \
//!     merge merged shard0 shard1 shard2
//!
//! # Report over one store, or a live view over any subset of shard stores:
//! cargo run --release -p via-bench --bin campaign -- report campaign_out
//! cargo run --release -p via-bench --bin campaign -- report shard0 shard2
//! ```

#[path = "../argv.rs"]
mod argv;

use std::path::PathBuf;
use via_bench::campaign::{
    aggregate_report, aggregate_report_dirs, load_quarantine, merge_stores, quarantine_table,
    run_campaign, CampaignConfig, Corpus, KernelKind, Mode, ShardSpec,
};
use via_bench::report::banner;
use via_bench::tune::{tune, tuned_path, write_tuned, TuneConfig};
use via_bench::{check_nonzero, check_suite_size, next_flag_value, SweepMemo, SCALE_FLAGS};
use via_formats::gen::StratifiedConfig;

struct Cli {
    dir: PathBuf,
    corpus: Corpus,
    mode: Mode,
    kernels: Vec<KernelKind>,
    threads: Option<usize>,
    budget_ms: u64,
    max_jobs: Option<usize>,
    shard: ShardSpec,
    quiet: bool,
    backends: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: campaign run --dir <store> [corpus] [options]\n\
         \x20      campaign tune --dir <store> [tune options]\n\
         \x20      campaign merge <out-store> <in-store>...\n\
         \x20      campaign report <store>...\n\
         \n\
         corpus (pick one; default --synthetic 64):\n\
         \x20 --synthetic <N>        N-matrix stratified synthetic corpus (paper uses 1024)\n\
         \x20 --corpus <manifest>    text file listing local .mtx paths (# comments ok)\n\
         \n\
         run options:\n\
         \x20 --resume               skip work already in results.jsonl, run the rest\n\
         \x20 --retry-quarantined    re-attempt only the quarantined jobs\n\
         \x20 --shard <i/n>          own only the 1/n slice of jobs hashed to index i\n\
         \x20 --kernels <a,b,..>     kernel pairs to sweep (default spmv_csb; `all` for all):\n\
         \x20                        spmv_csr spmv_spc5 spmv_sell spmv_csb spma spmm\n\
         \x20 --threads <N>          worker threads (default: all cores; at most one per job)\n\
         \x20 --budget-ms <N>        per-job wall-clock budget (default 120000)\n\
         \x20 --max-jobs <N>         stop after N completions this run (kill simulation)\n\
         \x20 --seed <S>             synthetic corpus master seed (not with --corpus)\n\
         \x20 --min-rows/--max-rows  synthetic matrix size range (default 256..8192;\n\
         \x20                        not with --corpus)\n\
         \x20 --backends             also run the SSR rival backend per job (adds the\n\
         \x20                        SSR column to rows and the report's bake-off table)\n\
         \x20 --quiet                suppress per-job progress lines\n\
         \n\
         tune options (per-matrix auto-tuner over via-gen variant spaces):\n\
         \x20 --quick | --full       corpus scale (default --quick: 8 small matrices)\n\
         \x20 --kernels <a,b,..>     tunable kernels (default all): spmv spmm sptrsv symgs\n\
         \x20 --expect-geomean <X>   exit 1 unless the tuned-over-default geomean is >= X\n\
         \x20 --matrices/--min-rows/--max-rows/--seed/--threads  corpus overrides"
    );
    std::process::exit(2);
}

fn need(it: &mut std::slice::Iter<'_, String>, flag: &str) -> String {
    it.next()
        .unwrap_or_else(|| {
            eprintln!("{flag} needs a value");
            usage()
        })
        .clone()
}

fn parse_run_cli(args: &[String]) -> Cli {
    let mut dir: Option<PathBuf> = None;
    let mut synthetic: Option<usize> = None;
    let mut manifest: Option<PathBuf> = None;
    let mut mode = Mode::Fresh;
    let mut kernels = vec![KernelKind::SpmvCsb];
    let mut threads = None;
    let mut budget_ms = 120_000u64;
    let mut max_jobs = None;
    let mut shard = ShardSpec::SOLO;
    let mut quiet = false;
    let mut backends = false;
    let mut strat = StratifiedConfig::default();
    // The last flag given that only a synthetic corpus reads.
    let mut synthetic_only: Option<&str> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--dir" => dir = Some(PathBuf::from(need(&mut it, "--dir"))),
            "--synthetic" => synthetic = Some(next_flag_value(&mut it, "--synthetic")),
            "--corpus" => manifest = Some(PathBuf::from(need(&mut it, "--corpus"))),
            "--resume" => mode = Mode::Resume,
            "--retry-quarantined" => mode = Mode::RetryQuarantined,
            "--shard" => {
                let spec = need(&mut it, "--shard");
                shard = ShardSpec::parse(&spec).unwrap_or_else(|| {
                    eprintln!("--shard wants i/n with i < n (e.g. 0/3), got {spec:?}");
                    usage()
                });
            }
            "--kernels" => {
                let spec = need(&mut it, "--kernels");
                kernels = if spec == "all" {
                    KernelKind::ALL.to_vec()
                } else {
                    spec.split(',')
                        .map(|name| {
                            KernelKind::parse(name.trim()).unwrap_or_else(|| {
                                eprintln!("unknown kernel {name:?}");
                                usage()
                            })
                        })
                        .collect()
                };
            }
            "--threads" => threads = Some(next_flag_value(&mut it, "--threads")),
            "--budget-ms" => budget_ms = next_flag_value(&mut it, "--budget-ms"),
            "--max-jobs" => {
                let n = next_flag_value(&mut it, "--max-jobs");
                check_nonzero("--max-jobs", n, "job");
                max_jobs = Some(n);
            }
            "--seed" => {
                strat.seed = next_flag_value(&mut it, "--seed");
                synthetic_only = Some("--seed");
            }
            "--min-rows" => {
                strat.min_rows = next_flag_value(&mut it, "--min-rows");
                synthetic_only = Some("--min-rows");
            }
            "--max-rows" => {
                strat.max_rows = next_flag_value(&mut it, "--max-rows");
                synthetic_only = Some("--max-rows");
            }
            "--quiet" => quiet = true,
            "--backends" => backends = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument {other:?}");
                usage()
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("--dir is required");
        usage()
    };
    if synthetic.is_some() && manifest.is_some() {
        eprintln!("--synthetic and --corpus are mutually exclusive");
        usage();
    }
    if let (Some(flag), Some(_)) = (synthetic_only, &manifest) {
        eprintln!("{flag} sets the synthetic corpus and cannot be combined with --corpus");
        usage();
    }
    let corpus = match manifest {
        Some(path) => Corpus::from_manifest(&path).unwrap_or_else(|e| {
            eprintln!("cannot read corpus manifest {}: {e}", path.display());
            std::process::exit(2);
        }),
        None => {
            strat.count = synthetic.unwrap_or(64);
            check_suite_size("--synthetic", strat.count, strat.min_rows, strat.max_rows);
            Corpus::Synthetic(strat)
        }
    };
    Cli {
        dir,
        corpus,
        mode,
        kernels,
        threads,
        budget_ms,
        max_jobs,
        shard,
        quiet,
        backends,
    }
}

fn cmd_run(args: &[String]) {
    let cli = parse_run_cli(args);
    print!(
        "{}",
        banner(
            "via-campaign",
            "resumable, fault-isolated corpus sweep (paper sweeps 1,024 SuiteSparse \
             matrices in §V-B)",
        )
    );

    let mut cfg = CampaignConfig::new(&cli.dir);
    cfg.kernels = cli.kernels;
    cfg.budget_ms = cli.budget_ms;
    cfg.max_jobs = cli.max_jobs;
    cfg.shard = cli.shard;
    cfg.progress = !cli.quiet;
    cfg.backends = cli.backends;
    if let Some(t) = cli.threads {
        cfg.threads = t;
    }
    eprintln!(
        "store {} | {} kernels | budget {} ms | shard {} | mode {:?}",
        cli.dir.display(),
        cfg.kernels.len(),
        cfg.budget_ms,
        cfg.shard,
        cli.mode,
    );

    let telemetry_start = via_sim::telemetry::snapshot();
    let outcome = match run_campaign(&cfg, &cli.corpus, cli.mode) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("campaign failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "run: {} completed ({} from the cycle memo), {} skipped (already done), \
         {} foreign (other shards), {} quarantined{}",
        outcome.completed,
        outcome.cycle_cache_hits,
        outcome.skipped,
        outcome.foreign,
        outcome.quarantined,
        if outcome.aborted {
            " — stopped early at --max-jobs"
        } else {
            ""
        }
    );
    // The campaign starts at most one worker per job, whatever --threads
    // asked for.
    let workers = outcome.per_worker.len();
    println!(
        "{workers} worker{}: {:?} jobs each | {} simulated cycles this run",
        if workers == 1 { "" } else { "s" },
        outcome.per_worker,
        outcome.simulated_cycles
    );
    println!(
        "{}",
        via_sim::telemetry::snapshot()
            .since(&telemetry_start)
            .render()
    );

    let quarantine = load_quarantine(&cli.dir).unwrap_or_default();
    if !quarantine.is_empty() {
        println!("\nquarantine ({} jobs):", quarantine.len());
        print!("{}", quarantine_table(&quarantine));
        println!("re-attempt with --retry-quarantined");
    }

    if !outcome.aborted {
        match aggregate_report(&cli.dir) {
            Ok(report) => print!("\n{report}"),
            Err(e) => eprintln!("report failed: {e}"),
        }
    }
    if outcome.completed == 0 && outcome.skipped == 0 && outcome.foreign == 0 {
        // Nothing ran, nothing was already done, and nothing belonged to
        // another shard: the corpus produced no usable work (all
        // quarantined or empty) — signal failure.
        std::process::exit(1);
    }
}

fn cmd_merge(args: &[String]) {
    if args.len() < 2 || args.iter().any(|a| a.starts_with("--")) {
        eprintln!("merge wants: campaign merge <out-store> <in-store>...");
        usage();
    }
    let out = PathBuf::from(&args[0]);
    let inputs = store_dirs("merge", &args[1..]);
    match merge_stores(&out, &inputs) {
        Ok(s) => {
            println!(
                "merged {} stores into {}: {} results, {} cycle-memo rows, {} quarantined \
                 | {} duplicate rows dropped, {} conflicts",
                s.inputs,
                out.display(),
                s.results,
                s.cycles,
                s.quarantined,
                s.duplicates,
                s.conflicts,
            );
            if s.conflicts > 0 {
                eprintln!(
                    "warning: {} conflicting rows (same job, different bytes) — the inputs \
                     were not produced by one deterministic sweep",
                    s.conflicts
                );
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("merge failed: {e}");
            std::process::exit(1);
        }
    }
}

/// The store directories a `merge` or `report` reads. A path that is not
/// a directory exits 2 naming it, before anything is read or written; an
/// existing directory without store files reads as an empty store.
fn store_dirs(cmd: &str, args: &[String]) -> Vec<PathBuf> {
    let dirs: Vec<PathBuf> = args.iter().map(PathBuf::from).collect();
    if let Some(missing) = dirs.iter().find(|d| !d.is_dir()) {
        eprintln!(
            "campaign {cmd}: no store directory at {}",
            missing.display()
        );
        std::process::exit(2);
    }
    dirs
}

fn cmd_report(args: &[String]) {
    if args.is_empty() || args.iter().any(|a| a.starts_with("--")) {
        eprintln!("report wants: campaign report <store>...");
        usage();
    }
    let dirs = store_dirs("report", args);
    match aggregate_report_dirs(&dirs) {
        Ok(report) => print!("{report}"),
        Err(e) => {
            eprintln!("report failed: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_tune(args: &[String]) {
    let mut cfg = TuneConfig::quick();
    let mut dir: Option<PathBuf> = None;
    let mut expect_geomean: Option<f64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--dir" => dir = Some(PathBuf::from(need(&mut it, "--dir"))),
            "--quick" => cfg.scale = via_bench::ExperimentScale::quick(),
            "--full" => cfg.scale = via_bench::ExperimentScale::default(),
            "--kernels" => {
                let list = need(&mut it, "--kernels");
                cfg.kernels = list
                    .split(',')
                    .map(|s| {
                        via_gen::Kernel::parse(s.trim()).unwrap_or_else(|| {
                            eprintln!("unknown tunable kernel {s:?}");
                            usage()
                        })
                    })
                    .collect();
            }
            "--expect-geomean" => {
                let v = need(&mut it, "--expect-geomean");
                expect_geomean = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("--expect-geomean wants a number, got {v:?}");
                    usage()
                }))
            }
            "--help" | "-h" => usage(),
            // Corpus-scale flags: their values are parsed below.
            flag if SCALE_FLAGS.contains(&flag) => {
                it.next();
            }
            other => {
                eprintln!("unknown argument {other:?}");
                usage()
            }
        }
    }
    let Some(dir) = dir else {
        eprintln!("tune needs --dir");
        usage()
    };
    cfg.scale = cfg.scale.from_args(args);
    eprintln!(
        "tune: {} matrices x {} kernels | {} threads",
        cfg.scale.matrices,
        cfg.kernels.len(),
        cfg.scale.threads,
    );
    let start = std::time::Instant::now();
    let memo = SweepMemo::new();
    let outcome = tune(&cfg, &memo);
    if let Err(e) = write_tuned(&dir, &outcome.rows) {
        eprintln!("writing {} failed: {e}", tuned_path(&dir).display());
        std::process::exit(1);
    }
    print!("{}", outcome.render());
    println!(
        "memo: {} compiles, {} replays, {} cycle hits, {} stall scores | wrote {} rows to {} in {:.1}s",
        memo.compiles(),
        memo.replays(),
        memo.cycle_hits(),
        memo.stall_scores(),
        outcome.rows.len(),
        tuned_path(&dir).display(),
        start.elapsed().as_secs_f64(),
    );
    if !outcome.is_sound() {
        eprintln!(
            "tune: UNSOUND — {} bound violations, {} unsound prunes",
            outcome.bound_violations, outcome.unsound_prunes,
        );
        std::process::exit(1);
    }
    let geomean = outcome.geomean_speedup();
    if let Some(floor) = expect_geomean.filter(|&floor| geomean < floor) {
        eprintln!("tune: tuned-over-default geomean {geomean:.3}x is under the {floor}x floor");
        std::process::exit(1);
    }
}

fn main() {
    let args = argv::args();
    match args.first().map(String::as_str) {
        Some("tune") => cmd_tune(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        _ => usage(),
    }
}
