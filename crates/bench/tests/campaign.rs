//! Integration tests for the campaign orchestrator: the resume-determinism
//! and quarantine contracts from the durable-store design, and the
//! multi-store report over them.

use std::path::PathBuf;
use via_bench::campaign::{
    aggregate_report, aggregate_report_dirs, canonical_sort, cycles_path, load_cycles, load_meta,
    load_quarantine, load_results, merge_stores, quarantine_path, results_path, run_campaign,
    CampaignConfig, CampaignError, Corpus, KernelKind, Mode, ShardSpec,
};
use via_formats::gen::StratifiedConfig;

/// A self-cleaning unique scratch directory (the workspace is
/// dependency-free, so no `tempfile`).
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("via_campaign_{tag}_{}_{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self) -> &std::path::Path {
        &self.0
    }

    fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A small, fast synthetic corpus (same shape as the 1,024-matrix sweep,
/// scaled down for CI).
fn small_corpus() -> Corpus {
    Corpus::Synthetic(StratifiedConfig {
        count: 10,
        min_rows: 48,
        max_rows: 128,
        density_range: (0.01, 0.1),
        size_strata: 2,
        density_strata: 2,
        seed: 0xCA4_41F2,
    })
}

fn config(dir: &std::path::Path) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(dir);
    cfg.kernels = vec![KernelKind::SpmvCsb, KernelKind::Spma];
    cfg.threads = 2;
    cfg.budget_ms = 60_000;
    cfg
}

/// Canonically sorted serialized store contents (the byte-level view the
/// resume contract is stated over).
fn canonical_store(dir: &std::path::Path) -> String {
    let mut rows = load_results(dir).expect("load results");
    canonical_sort(&mut rows);
    rows.iter()
        .map(|r| r.to_jsonl())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn killed_campaign_resumes_to_byte_identical_store() {
    let corpus = small_corpus();
    let total = corpus.jobs(&[KernelKind::SpmvCsb, KernelKind::Spma]).len();
    assert_eq!(total, 20);

    // Reference: one uninterrupted run.
    let straight = Scratch::new("straight");
    let outcome = run_campaign(&config(straight.path()), &corpus, Mode::Fresh).expect("run");
    assert_eq!(outcome.completed, total);
    assert_eq!(outcome.quarantined, 0);
    assert!(!outcome.aborted);

    // Killed run: stop after ~30 % of the jobs...
    let resumed = Scratch::new("resumed");
    let mut cfg = config(resumed.path());
    cfg.max_jobs = Some(6);
    let first = run_campaign(&cfg, &corpus, Mode::Fresh).expect("first leg");
    assert!(first.aborted, "max_jobs should abort the run");
    assert!(
        first.completed >= 6 && first.completed < total,
        "kill must land mid-sweep, got {}",
        first.completed
    );

    // ...simulate the torn trailing line of a writer killed mid-append...
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(results_path(resumed.path()))
            .unwrap();
        write!(f, "{{\"schema\":1,\"matrix\":\"torn").unwrap();
    }

    // ...and resume. No completed job may re-execute.
    cfg.max_jobs = None;
    let second = run_campaign(&cfg, &corpus, Mode::Resume).expect("resume leg");
    assert_eq!(
        second.skipped, first.completed,
        "completed work must be skipped"
    );
    assert_eq!(second.completed, total - first.completed);
    assert!(!second.aborted);

    // The merged store is byte-identical (after canonical sort) to the
    // uninterrupted run's.
    let merged = canonical_store(resumed.path());
    let reference = canonical_store(straight.path());
    assert!(!merged.is_empty());
    assert_eq!(merged, reference);

    // And every job appears exactly once (no duplicate rows).
    let rows = load_results(resumed.path()).unwrap();
    let mut keys: Vec<_> = rows.iter().map(|r| r.manifest_key()).collect();
    keys.sort();
    let before = keys.len();
    keys.dedup();
    assert_eq!(keys.len(), before, "no job may be recorded twice");
    assert_eq!(before, total);

    // A third resume is a no-op.
    let third = run_campaign(&cfg, &corpus, Mode::Resume).expect("idempotent resume");
    assert_eq!(third.completed, 0);
    assert_eq!(third.skipped, total);
    assert_eq!(canonical_store(resumed.path()), reference);
}

#[test]
fn warm_cycle_memo_resumes_without_simulating() {
    let corpus = small_corpus();
    let total = 20;
    let dir = Scratch::new("warm");
    let cfg = config(dir.path());
    let fresh = run_campaign(&cfg, &corpus, Mode::Fresh).expect("fresh run");
    assert_eq!(fresh.completed, total);
    assert!(fresh.simulated_cycles > 0);
    assert_eq!(fresh.cycle_cache_hits, 0, "a cold store has nothing to hit");

    let reference = canonical_store(dir.path());
    let memo = load_cycles(dir.path()).expect("load cycles");
    assert_eq!(
        memo.len(),
        total,
        "every simulated job must leave a memo row"
    );

    // Blow away the result log but keep the cycle memo: the resume must
    // rebuild every row from `cycles.jsonl` without simulating anything.
    std::fs::remove_file(results_path(dir.path())).expect("drop results");
    let warm = run_campaign(&cfg, &corpus, Mode::Resume).expect("warm resume");
    assert_eq!(warm.completed, total);
    assert_eq!(warm.cycle_cache_hits, total, "every job must be a memo hit");
    assert_eq!(warm.simulated_cycles, 0, "a warm resume must not simulate");
    assert_eq!(warm.skipped, 0);
    assert_eq!(
        canonical_store(dir.path()),
        reference,
        "memo-rebuilt rows must be byte-identical to simulated ones"
    );

    // Memo hits must not grow the memo itself.
    assert_eq!(load_cycles(dir.path()).expect("reload cycles").len(), total);
}

#[test]
fn backends_campaign_records_ssr_and_rejects_plain_memo() {
    let corpus = Corpus::Synthetic(StratifiedConfig {
        count: 4,
        min_rows: 48,
        max_rows: 96,
        density_range: (0.02, 0.1),
        size_strata: 2,
        density_strata: 2,
        seed: 0xB4CE,
    });
    let dir = Scratch::new("backends");
    let mut cfg = CampaignConfig::new(dir.path());
    cfg.kernels = vec![KernelKind::SpmvCsr, KernelKind::Spma, KernelKind::Spmm];
    cfg.threads = 2;

    // Plain run: no SSR columns anywhere in the store.
    let plain = run_campaign(&cfg, &corpus, Mode::Fresh).expect("plain run");
    assert_eq!(plain.completed, 12);
    assert!(load_results(dir.path())
        .expect("load")
        .iter()
        .all(|r| r.ssr_cycles.is_none()));

    // Backends resume against the plain memo: SpMA rows still answer from
    // the memo (no SSR leg exists for them), but SpMV/SpMM memo rows lack
    // the column and must re-simulate with the third leg.
    std::fs::remove_file(results_path(dir.path())).expect("drop results");
    cfg.backends = true;
    let upgraded = run_campaign(&cfg, &corpus, Mode::Resume).expect("backends resume");
    assert_eq!(upgraded.completed, 12);
    assert_eq!(
        upgraded.cycle_cache_hits, 4,
        "only the SpMA rows may hit the plain memo"
    );
    for r in load_results(dir.path()).expect("load") {
        if r.kernel == "spma" {
            assert_eq!(r.ssr_cycles, None, "SpMA has no SSR leg");
            assert_eq!(r.ssr_speedup(), None);
        } else {
            let ssr = r.ssr_cycles.expect("backends rows carry SSR cycles");
            assert!(ssr > 0, "{}: empty SSR cycle count", r.matrix);
            assert!(r.ssr_speedup().expect("speedup") > 0.0);
        }
    }

    // The re-simulated jobs appended upgraded memo rows (later rows win on
    // load), so a second backends resume is all memo hits.
    std::fs::remove_file(results_path(dir.path())).expect("drop results");
    let warm = run_campaign(&cfg, &corpus, Mode::Resume).expect("warm backends resume");
    assert_eq!(warm.completed, 12);
    assert_eq!(
        warm.cycle_cache_hits, 12,
        "upgraded memo answers everything"
    );
    assert_eq!(warm.simulated_cycles, 0);
}

#[test]
fn fresh_mode_refuses_to_clobber() {
    let dir = Scratch::new("clobber");
    let corpus = Corpus::Synthetic(StratifiedConfig {
        count: 1,
        min_rows: 48,
        max_rows: 64,
        density_range: (0.05, 0.1),
        size_strata: 1,
        density_strata: 1,
        seed: 1,
    });
    let mut cfg = config(dir.path());
    cfg.kernels = vec![KernelKind::SpmvCsb];
    run_campaign(&cfg, &corpus, Mode::Fresh).expect("first run");
    match run_campaign(&cfg, &corpus, Mode::Fresh) {
        Err(CampaignError::WouldClobber(p)) => assert_eq!(p, dir.path()),
        other => panic!("expected WouldClobber, got {other:?}"),
    }
}

/// The five corrupt inputs the quarantine acceptance test salts the corpus
/// with, plus the error they must surface.
fn corrupt_files(dir: &Scratch) -> Vec<(PathBuf, &'static str, &'static str)> {
    let specs: [(&str, &str, &str, &str); 5] = [
        (
            "truncated_header.mtx",
            "%%MatrixMarket matrix\n",
            "parse",
            "truncated %%MatrixMarket header",
        ),
        (
            "bad_coordinates.mtx",
            "%%MatrixMarket matrix coordinate real general\n3 3 1\nx 2 1.0\n",
            "parse",
            "row index",
        ),
        (
            "nan_value.mtx",
            "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 nan\n2 2 1.0\n",
            "parse",
            "non-finite",
        ),
        (
            "out_of_bounds.mtx",
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n9 1 1.0\n",
            "index_out_of_bounds",
            "outside a 2x2 matrix",
        ),
        ("empty.mtx", "", "parse", "empty input"),
    ];
    specs
        .iter()
        .map(|(name, content, kind, needle)| {
            let path = dir.join(name);
            std::fs::write(&path, content).unwrap();
            (path, *kind, *needle)
        })
        .collect()
}

fn good_file(dir: &Scratch, name: &str) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(
        &path,
        "%%MatrixMarket matrix coordinate real general\n\
         4 4 6\n1 1 2.0\n1 3 -1.0\n2 2 4.0\n3 3 1.5\n4 1 0.5\n4 4 3.0\n",
    )
    .unwrap();
    path
}

#[test]
fn corrupt_corpus_is_quarantined_and_retried_exactly() {
    let files = Scratch::new("corrupt_files");
    let store = Scratch::new("corrupt_store");
    let corrupt = corrupt_files(&files);
    let good = [
        good_file(&files, "good_a.mtx"),
        good_file(&files, "good_b.mtx"),
    ];

    let mut paths: Vec<PathBuf> = corrupt.iter().map(|(p, _, _)| p.clone()).collect();
    paths.extend(good.iter().cloned());
    let corpus = Corpus::Files(paths);

    let mut cfg = config(store.path());
    cfg.kernels = vec![KernelKind::SpmvCsb];

    // The sweep completes despite the salt: good inputs land in results,
    // exactly the 5 corrupt ones in quarantine.
    let outcome = run_campaign(&cfg, &corpus, Mode::Fresh).expect("salted sweep");
    assert_eq!(outcome.completed, 2);
    assert_eq!(outcome.quarantined, 5);

    let rows = load_quarantine(store.path()).expect("load quarantine");
    assert_eq!(rows.len(), 5);
    for (path, kind, needle) in &corrupt {
        let row = rows
            .iter()
            .find(|r| r.matrix == path.display().to_string())
            .unwrap_or_else(|| panic!("{} missing from quarantine", path.display()));
        assert_eq!(&row.kind, kind, "{}", path.display());
        assert!(
            row.chain.iter().any(|line| line.contains(needle)),
            "{}: error chain {:?} should mention {needle:?}",
            path.display(),
            row.chain
        );
    }
    // The five structured errors are pairwise distinct.
    let mut chains: Vec<_> = rows.iter().map(|r| r.chain.join(" | ")).collect();
    chains.sort();
    chains.dedup();
    assert_eq!(chains.len(), 5, "quarantine errors must be distinct");

    // Fix one corrupt input, then --retry-quarantined: only the 5
    // quarantined jobs re-run (the 2 good ones are untouched), the fixed
    // one graduates to results, the other 4 stay quarantined.
    std::fs::write(
        files.join("empty.mtx"),
        "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 2.0\n",
    )
    .unwrap();
    let retry = run_campaign(&cfg, &corpus, Mode::RetryQuarantined).expect("retry");
    assert_eq!(retry.completed, 1, "only the fixed input may succeed");
    assert_eq!(retry.quarantined, 4);
    assert_eq!(retry.skipped, 0, "completed work is not even scheduled");

    let rows = load_quarantine(store.path()).expect("reload quarantine");
    assert_eq!(rows.len(), 4);
    assert!(rows.iter().all(|r| !r.matrix.ends_with("empty.mtx")));
    let results = load_results(store.path()).expect("reload results");
    assert_eq!(results.len(), 3);

    // A store listed twice reports each quarantined job once, like each
    // result row: the same tables and footer, plus the live-view line.
    let once = aggregate_report(store.path()).expect("report");
    assert!(once.contains(", 4 quarantined\n"), "{once}");
    let dir = store.path().to_path_buf();
    let twice = aggregate_report_dirs(&[dir.clone(), dir]).expect("live report");
    let live = twice
        .strip_prefix(once.as_str())
        .unwrap_or_else(|| panic!("listing the store twice changed the report:\n{twice}"));
    assert!(live.starts_with("live view: 2 shard stores"), "{live}");
}

#[test]
fn retry_quarantined_schedules_nothing_when_quarantine_is_empty() {
    let files = Scratch::new("noq_files");
    let store = Scratch::new("noq_store");
    let corpus = Corpus::Files(vec![good_file(&files, "fine.mtx")]);
    let mut cfg = config(store.path());
    cfg.kernels = vec![KernelKind::SpmvCsb];
    run_campaign(&cfg, &corpus, Mode::Fresh).expect("fresh");
    let retry = run_campaign(&cfg, &corpus, Mode::RetryQuarantined).expect("retry");
    assert_eq!(
        (retry.completed, retry.skipped, retry.quarantined),
        (0, 0, 0)
    );
    assert!(quarantine_path(store.path()).exists());
}

/// A one-kernel corpus for the shard tests (10 jobs — sharding doubles
/// the number of campaign runs, so keep each cheap).
fn shard_corpus() -> Corpus {
    Corpus::Synthetic(StratifiedConfig {
        count: 10,
        min_rows: 48,
        max_rows: 96,
        density_range: (0.02, 0.08),
        size_strata: 2,
        density_strata: 2,
        seed: 0x5AAD_0001,
    })
}

fn shard_config(dir: &std::path::Path, shard: ShardSpec) -> CampaignConfig {
    let mut cfg = config(dir);
    cfg.kernels = vec![KernelKind::SpmvCsb];
    cfg.shard = shard;
    cfg
}

/// The exact bytes of a store file (for `cmp`-grade comparisons).
fn file_bytes(path: &std::path::Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_default()
}

#[test]
fn sharded_runs_partition_the_corpus_exactly() {
    let corpus = shard_corpus();
    let total = corpus.jobs(&[KernelKind::SpmvCsb]).len();
    let scratches: Vec<Scratch> = (0..3).map(|i| Scratch::new(&format!("part{i}"))).collect();
    let mut all_keys = Vec::new();
    let mut completed = 0;
    for (i, dir) in scratches.iter().enumerate() {
        let cfg = shard_config(dir.path(), ShardSpec::new(i as u32, 3).unwrap());
        let outcome = run_campaign(&cfg, &corpus, Mode::Fresh).expect("shard run");
        assert_eq!(
            outcome.completed + outcome.foreign,
            total,
            "every job is either owned or foreign"
        );
        assert_eq!(outcome.quarantined, 0);
        completed += outcome.completed;
        all_keys.extend(
            load_results(dir.path())
                .unwrap()
                .iter()
                .map(|r| r.manifest_key()),
        );
        // The store remembers which shard produced it.
        let meta = load_meta(dir.path()).unwrap().expect("manifest written");
        assert_eq!(meta.shard, ShardSpec::new(i as u32, 3).unwrap());
    }
    // Exactly one shard owned each job: the union covers the corpus with
    // no overlap.
    assert_eq!(completed, total);
    let before = all_keys.len();
    all_keys.sort();
    all_keys.dedup();
    assert_eq!(all_keys.len(), before, "no job may land in two shards");
    assert_eq!(all_keys.len(), total);
}

#[test]
fn shard_assignment_is_stable_across_worker_counts_and_kills() {
    let corpus = shard_corpus();
    let spec = ShardSpec::new(1, 2).unwrap();

    let serial = Scratch::new("stable_serial");
    let mut cfg = shard_config(serial.path(), spec);
    cfg.threads = 1;
    run_campaign(&cfg, &corpus, Mode::Fresh).expect("serial run");

    // Same shard, more workers, killed after 2 completions and resumed:
    // the owned set must be identical.
    let killed = Scratch::new("stable_killed");
    let mut cfg = shard_config(killed.path(), spec);
    cfg.threads = 3;
    cfg.max_jobs = Some(2);
    run_campaign(&cfg, &corpus, Mode::Fresh).expect("killed leg");
    cfg.max_jobs = None;
    run_campaign(&cfg, &corpus, Mode::Resume).expect("resume leg");

    assert_eq!(
        canonical_store(serial.path()),
        canonical_store(killed.path()),
        "shard ownership must be a pure function of job content"
    );
}

#[test]
fn three_shard_kill_resume_merge_is_byte_identical_to_solo() {
    let corpus = shard_corpus();

    // Reference: solo run, canonicalized through the same merge path the
    // CI job uses (a single-store merge canonicalizes in place).
    let solo = Scratch::new("m_solo");
    run_campaign(
        &shard_config(solo.path(), ShardSpec::SOLO),
        &corpus,
        Mode::Fresh,
    )
    .expect("solo");
    let solo_canon = Scratch::new("m_solo_canon");
    merge_stores(solo_canon.path(), &[solo.path().to_path_buf()]).expect("canonicalize solo");

    // Three shards; shard 1 is killed ~30 % in and resumed.
    let shards: Vec<Scratch> = (0..3)
        .map(|i| Scratch::new(&format!("m_shard{i}")))
        .collect();
    for (i, dir) in shards.iter().enumerate() {
        let mut cfg = shard_config(dir.path(), ShardSpec::new(i as u32, 3).unwrap());
        if i == 1 {
            cfg.max_jobs = Some(1);
            let first = run_campaign(&cfg, &corpus, Mode::Fresh).expect("killed shard leg");
            assert!(first.aborted);
            cfg.max_jobs = None;
            run_campaign(&cfg, &corpus, Mode::Resume).expect("resumed shard leg");
        } else {
            run_campaign(&cfg, &corpus, Mode::Fresh).expect("shard run");
        }
    }

    // Merge in any input order: identical bytes, identical to solo.
    let dirs: Vec<PathBuf> = shards.iter().map(|s| s.path().to_path_buf()).collect();
    let orders: [[usize; 3]; 6] = [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ];
    let mut merged_bytes: Option<(Vec<u8>, Vec<u8>)> = None;
    for order in orders {
        let out = Scratch::new("m_merge");
        let inputs: Vec<PathBuf> = order.iter().map(|&i| dirs[i].clone()).collect();
        let summary = merge_stores(out.path(), &inputs).expect("merge");
        assert_eq!(summary.conflicts, 0, "deterministic shards cannot conflict");
        let bytes = (
            file_bytes(&results_path(out.path())),
            file_bytes(&cycles_path(out.path())),
        );
        match &merged_bytes {
            None => merged_bytes = Some(bytes),
            Some(first) => assert_eq!(
                first, &bytes,
                "merge order {order:?} produced different bytes"
            ),
        }
    }
    let (results, cycles) = merged_bytes.unwrap();
    assert!(!results.is_empty());
    assert_eq!(
        results,
        file_bytes(&results_path(solo_canon.path())),
        "3-shard merge must be byte-identical to the canonicalized solo store"
    );
    assert_eq!(
        cycles,
        file_bytes(&cycles_path(solo_canon.path())),
        "cycle memos must merge to the solo store too"
    );
    // The merged store is a normal solo store.
    let meta = load_meta(solo_canon.path()).unwrap().expect("manifest");
    assert!(meta.shard.is_solo());

    // The live view over the three shards plus the solo store reports what
    // the merged store does: every solo row overlaps a shard row.
    let merged = Scratch::new("m_report");
    merge_stores(merged.path(), &dirs).expect("merge");
    let solo_rows =
        load_results(solo.path()).unwrap().len() + load_quarantine(solo.path()).unwrap().len();
    let mut live = dirs;
    live.push(solo.path().to_path_buf());
    assert_eq!(
        aggregate_report_dirs(&live).expect("live report"),
        format!(
            "{}live view: 4 shard stores, {solo_rows} overlapping rows deduplicated\n",
            aggregate_report(merged.path()).expect("merged report"),
        ),
    );
}

#[test]
fn resume_refuses_a_store_from_a_different_shard_spec() {
    let corpus = shard_corpus();
    let dir = Scratch::new("respec");
    let spec = ShardSpec::new(0, 3).unwrap();
    let outcome =
        run_campaign(&shard_config(dir.path(), spec), &corpus, Mode::Fresh).expect("shard run");
    assert!(
        outcome.completed > 0,
        "the spec only pins once rows exist — corpus seed must give shard 0/3 work"
    );

    // Resuming under any other spec must be refused...
    for other in [ShardSpec::SOLO, ShardSpec::new(1, 3).unwrap()] {
        match run_campaign(&shard_config(dir.path(), other), &corpus, Mode::Resume) {
            Err(CampaignError::ShardMismatch {
                stored, requested, ..
            }) => {
                assert_eq!(stored, spec);
                assert_eq!(requested, other);
            }
            other => panic!("expected ShardMismatch, got {other:?}"),
        }
    }
    // ...while the recorded spec itself resumes fine.
    let again = run_campaign(&shard_config(dir.path(), spec), &corpus, Mode::Resume).expect("ok");
    assert_eq!(again.completed, 0, "nothing left to do");

    // An empty store may be re-specced: only result rows pin the spec.
    let empty = Scratch::new("respec_empty");
    let none = Corpus::Files(Vec::new());
    run_campaign(&shard_config(empty.path(), spec), &none, Mode::Fresh).expect("empty run");
    run_campaign(
        &shard_config(empty.path(), ShardSpec::SOLO),
        &none,
        Mode::Resume,
    )
    .expect("empty store accepts a new spec");
}

#[test]
fn corpus_manifest_resolves_relative_paths() {
    let files = Scratch::new("manifest");
    good_file(&files, "rel.mtx");
    let manifest = files.join("corpus.txt");
    std::fs::write(&manifest, "# local corpus\n\nrel.mtx\n").unwrap();
    let corpus = Corpus::from_manifest(&manifest).expect("manifest");
    match &corpus {
        Corpus::Files(paths) => {
            assert_eq!(paths.len(), 1);
            assert_eq!(paths[0], files.join("rel.mtx"));
        }
        other => panic!("expected files corpus, got {other:?}"),
    }
}
