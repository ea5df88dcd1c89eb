//! The command lines of the built binaries: `campaign run` exit codes and
//! progress lines for usable, partly usable and unusable `.mtx` corpora,
//! and for matrices whose rows or operands are too large to allocate; exit
//! 2 naming the flag or path for bad, conflicting, degenerate, do-nothing
//! or unknown arguments (`campaign tune`, `fig9_dse`, `fig10_spmv`,
//! `fig12a_histogram`, `multicore` and `verify_programs` included); and
//! exit 1 naming the path when an output file cannot be written (before
//! any work when its directory is missing); exit 2 naming an argument that
//! is not valid UTF-8; exit 0, 1 or 2, never a panic, abort or hang, for
//! deterministically mutated `campaign run` argument vectors; a run
//! summary that names the workers actually started; and a campaign of
//! 384-row SpMM jobs that completes under a 256 MiB address-space cap.

use std::ffi::OsStr;
use std::os::unix::ffi::OsStrExt;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use via_bench::campaign::{load_cycles, load_quarantine, load_results};
use via_bench::KernelKind;
use via_rng::{cases, mutate};

/// A unique scratch directory, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("via_cli_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    /// Writes `files` (name, contents) and a manifest listing them.
    fn corpus(&self, files: &[(&str, &str)]) -> PathBuf {
        let mut manifest = String::new();
        for (name, contents) in files {
            std::fs::write(self.0.join(name), contents).unwrap();
            manifest.push_str(&format!("{name}\n"));
        }
        let path = self.0.join("corpus.txt");
        std::fs::write(&path, manifest).unwrap();
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const VALID: (&str, &str) = (
    "valid.mtx",
    "%%MatrixMarket matrix coordinate real general\n\
     4 4 6\n1 1 2.0\n1 3 -1.0\n2 2 4.0\n3 3 1.5\n4 1 0.5\n4 4 3.0\n",
);
const CORRUPT: (&str, &str) = ("corrupt.mtx", "%%MatrixMarket matrix\n");

fn campaign_run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_campaign"))
        .arg("run")
        .args(args)
        .output()
        .expect("run the campaign binary")
}

fn run_corpus(store: &Path, manifest: &Path) -> Output {
    campaign_run(&[
        "--dir",
        store.to_str().unwrap(),
        "--corpus",
        manifest.to_str().unwrap(),
        "--threads",
        "1",
        "--quiet",
    ])
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The address-space cap (`ulimit -v`, in KB) of the runs that must
/// survive a 4 GB machine.
const CAP_4GB: u32 = 4_000_000;

/// Runs the campaign binary with `args` from `dir`, under an address-space
/// cap of `cap_kb` KB and a 60-second timeout (which exits 124).
fn capped<A: AsRef<OsStr>>(dir: &Path, cap_kb: u32, args: impl IntoIterator<Item = A>) -> Output {
    Command::new("sh")
        .args([
            "-c",
            &format!("ulimit -v {cap_kb}; exec timeout 60 \"$0\" \"$@\""),
        ])
        .arg(env!("CARGO_BIN_EXE_campaign"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run the campaign binary under an address-space cap")
}

#[test]
fn a_corrupt_file_beside_a_valid_one_is_quarantined_and_the_run_succeeds() {
    let scratch = Scratch::new("mixed");
    let manifest = scratch.corpus(&[VALID, CORRUPT]);
    let store = scratch.0.join("store");
    let out = run_corpus(&store, &manifest);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let quarantine = load_quarantine(&store).expect("load quarantine");
    assert_eq!(quarantine.len(), 1, "{quarantine:?}");
    assert!(quarantine[0].matrix.ends_with("corrupt.mtx"));
}

#[test]
fn an_oversized_matrix_is_quarantined_while_the_rest_completes() {
    let scratch = Scratch::new("oversized");
    // 2^32 rows, the most the reader accepts: the row pointers alone need
    // 32 GiB, more than the campaign's address space is capped at below.
    let oversized = (
        "oversized.mtx",
        "%%MatrixMarket matrix coordinate real general\n4294967296 4 1\n1 1 1.0\n",
    );
    // 2^32 columns: the matrix itself is small, but SpMV's dense x and
    // SpMM's cols x cols B are not.
    let wide = (
        "wide.mtx",
        "%%MatrixMarket matrix coordinate real general\n4 4294967296 1\n1 1 1.0\n",
    );
    let manifest = scratch.corpus(&[oversized, wide, VALID]);
    let store = scratch.0.join("store");
    let out = capped(
        &scratch.0,
        CAP_4GB,
        [
            "run",
            "--dir",
            store.to_str().unwrap(),
            "--corpus",
            manifest.to_str().unwrap(),
            "--kernels",
            "all",
            "--threads",
            "1",
            "--quiet",
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let quarantine = load_quarantine(&store).expect("load quarantine");
    let results = load_results(&store).expect("load results");
    let rows_of = |file: &str| {
        let done: Vec<&str> = results
            .iter()
            .filter(|r| r.matrix.ends_with(file))
            .map(|r| r.kernel.as_str())
            .collect();
        let failed: Vec<_> = quarantine
            .iter()
            .filter(|q| q.matrix.ends_with(file))
            .collect();
        (done, failed)
    };
    let all: Vec<&str> = KernelKind::ALL.iter().map(|k| k.name()).collect();
    let (done, failed) = rows_of("valid.mtx");
    assert_eq!((&done, failed.len()), (&all, 0), "{quarantine:?}");
    let (done, failed) = rows_of("oversized.mtx");
    assert!(done.is_empty(), "{done:?}");
    assert_eq!(failed.len(), 6, "{failed:?}");
    for q in failed {
        assert_eq!(q.kind, "too_large");
        assert_eq!(q.chain, ["a 4294967296x4 matrix does not fit in memory"]);
    }
    // Every job on the wide matrix completes or is quarantined as too
    // large; none aborts the run or panics.
    let (done, failed) = rows_of("wide.mtx");
    assert_eq!(done.len() + failed.len(), 6, "{done:?} {failed:?}");
    for q in failed {
        assert_eq!(q.kind, "too_large", "{q:?}");
    }
}

#[test]
fn a_spmm_operand_too_wide_for_memory_is_quarantined_in_milliseconds() {
    let scratch = Scratch::new("wide_spmm");
    // 2^28 and 2^29 columns: SpMM's cols x cols B at A's density needs
    // 1.2 or 2.4 GB of samples plus 2 or 4 GiB of row pointers, which the
    // 4 GB cap cannot hold together. Every buffer of B is reserved before
    // a sample is drawn, so each job fails at once.
    let header = "%%MatrixMarket matrix coordinate real general\n";
    let w28 = format!("{header}4 268435456 1\n1 1 1.0\n");
    let w29 = format!("{header}4 536870912 1\n1 1 1.0\n");
    let manifest = scratch.corpus(&[VALID, ("w28.mtx", &w28), ("w29.mtx", &w29)]);
    let store = scratch.0.join("store");
    let (store_arg, manifest_arg) = (store.to_str().unwrap(), manifest.to_str().unwrap());
    let out = capped(
        &scratch.0,
        CAP_4GB,
        [
            "run",
            "--dir",
            store_arg,
            "--corpus",
            manifest_arg,
            "--kernels",
            "spmm",
            "--threads",
            "1",
            "--quiet",
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let results = load_results(&store).expect("load results");
    let done: Vec<(&str, &str)> = results
        .iter()
        .map(|r| (r.matrix.rsplit('/').next().unwrap(), r.kernel.as_str()))
        .collect();
    assert_eq!(done, [("valid.mtx", "spmm")]);
    let quarantine = load_quarantine(&store).expect("load quarantine");
    let failed: Vec<(&str, &str, &[String])> = quarantine
        .iter()
        .map(|q| {
            let file = q.matrix.rsplit('/').next().unwrap();
            (file, q.kind.as_str(), q.chain.as_slice())
        })
        .collect();
    let too_large = |n: u64| vec![format!("a {n}x{n} matrix does not fit in memory")];
    assert_eq!(
        failed,
        [
            ("w28.mtx", "too_large", &too_large(1 << 28)[..]),
            ("w29.mtx", "too_large", &too_large(1 << 29)[..]),
        ]
    );
}

#[test]
fn a_campaign_of_spmm_jobs_fits_in_256_mib() {
    // A job that held its legs' streams (112 bytes per instruction)
    // aborts under this cap; jobs hash their streams as they push and
    // keep none.
    let scratch = Scratch::new("spmm_256m");
    let store = scratch.0.join("store");
    let out = capped(
        &scratch.0,
        262_144,
        [
            "run",
            "--dir",
            store.to_str().unwrap(),
            "--synthetic",
            "8",
            "--min-rows",
            "384",
            "--max-rows",
            "384",
            "--kernels",
            "spmm",
            "--threads",
            "1",
            "--quiet",
        ],
    );
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(load_results(&store).expect("load results").len(), 8);
    assert_eq!(load_cycles(&store).expect("load cycles").len(), 8);
}

#[test]
fn a_non_utf8_argument_exits_2_naming_it() {
    let scratch = Scratch::new("utf8");
    for (bin, args, shown) in [
        (
            env!("CARGO_BIN_EXE_campaign"),
            &[&b"run"[..], b"\xff"][..],
            "\u{fffd}",
        ),
        (
            env!("CARGO_BIN_EXE_fig10_spmv"),
            &[&b"--matrices"[..], b"1\xff"],
            "1\u{fffd}",
        ),
        (
            env!("CARGO_BIN_EXE_verify_programs"),
            &[&b"--qu\xffick"[..]],
            "--qu\u{fffd}ick",
        ),
    ] {
        let out = Command::new(bin)
            .args(args.iter().map(|a| OsStr::from_bytes(a)))
            .current_dir(&scratch.0)
            .output()
            .expect("run the binary");
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{shown}: {err}");
        assert_eq!(err, format!("argument \"{shown}\" is not valid UTF-8\n"));
        assert_eq!(String::from_utf8_lossy(&out.stdout), "", "{shown}");
        let written: Vec<_> = std::fs::read_dir(&scratch.0).unwrap().collect();
        assert!(written.is_empty(), "{shown}: wrote {written:?}");
    }
}

#[test]
fn mutated_run_arguments_exit_0_1_or_2() {
    let scratch = Scratch::new("argv_fuzz");
    // The store and the corpus stay out of the mutated part: a mutant
    // without `--corpus` would start the default 64-matrix sweep.
    let manifest = scratch.corpus(&[VALID]);
    let options = [
        "--kernels",
        "spmv_csr",
        "--threads",
        "1",
        "--budget-ms",
        "60000",
        "--max-jobs",
        "4",
        "--quiet",
    ];
    // Runs one mutant of the option list; its exit code.
    let run = |case: String, mutant: Vec<Vec<u8>>| -> Option<i32> {
        let store = scratch.0.join(format!("store{case}"));
        let mut argv = vec![
            OsStr::new("run"),
            OsStr::new("--dir"),
            store.as_os_str(),
            OsStr::new("--corpus"),
            manifest.as_os_str(),
        ];
        argv.extend(mutant.iter().map(|arg| OsStr::from_bytes(arg)));
        let out = capped(&scratch.0, CAP_4GB, &argv);
        assert!(
            matches!(out.status.code(), Some(0..=2)),
            "case {case}: {argv:?} ended with {:?}: {}",
            out.status,
            stderr(&out)
        );
        out.status.code()
    };
    // The whole list, joined with NUL and split back after the edits, so
    // a mutant can merge, split or drop arguments and carry invalid UTF-8.
    let joined = options.join("\0");
    cases(200, 0xA76F, |case, rng| {
        let mutant = mutate(joined.as_bytes(), rng);
        run(
            format!("{case}"),
            mutant.split(|&b| b == 0).map(<[u8]>::to_vec).collect(),
        );
    });
    // One option value at a time, every other argument intact: a value
    // that still parses starts the run, which the whole-list mutants
    // above almost never do.
    let mut reached = 0;
    cases(200, 0x7A1E, |case, rng| {
        let mut mutant: Vec<Vec<u8>> = options.iter().map(|o| o.as_bytes().to_vec()).collect();
        let value = [1, 3, 5, 7][case as usize % 4];
        mutant[value] = mutate(&mutant[value], rng);
        if matches!(run(format!("v{case}"), mutant), Some(0 | 1)) {
            reached += 1;
        }
    });
    assert!(
        reached >= 20,
        "only {reached} of 200 value mutants reached the run"
    );
}

#[test]
fn the_summary_names_the_workers_actually_started() {
    // One job: `--threads 64` starts one worker, and no line claims 64.
    let scratch = Scratch::new("workers");
    let manifest = scratch.corpus(&[VALID]);
    let store = scratch.0.join("store");
    let out = campaign_run(&[
        "--dir",
        store.to_str().unwrap(),
        "--corpus",
        manifest.to_str().unwrap(),
        "--kernels",
        "spmv_csr",
        "--threads",
        "64",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(
        !stdout.contains("64 threads") && !stderr(&out).contains("64 threads"),
        "{stdout}{}",
        stderr(&out)
    );
    assert!(stdout.contains("1 worker: [1] jobs each"), "{stdout}");
}

#[test]
fn progress_lines_number_every_finished_job_once() {
    let scratch = Scratch::new("progress");
    let manifest = scratch.corpus(&[VALID, CORRUPT]);
    let mut listed = std::fs::read_to_string(&manifest).unwrap();
    listed.push_str("missing.mtx\n");
    std::fs::write(&manifest, listed).unwrap();
    let store = scratch.0.join("store");
    let out = campaign_run(&[
        "--dir",
        store.to_str().unwrap(),
        "--corpus",
        manifest.to_str().unwrap(),
        "--kernels",
        "all",
        "--threads",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Completed and quarantined jobs share one count: 6 results for the
    // valid file, 12 quarantined jobs for the corrupt and missing ones.
    let numbers: Vec<String> = stdout
        .lines()
        .filter_map(|line| line.strip_prefix('[')?.split_once(']'))
        .map(|(n, _)| n.to_string())
        .collect();
    let expected: Vec<String> = (1..=18).map(|n| format!("{n}/18")).collect();
    assert_eq!(numbers, expected, "{stdout}");
}

#[test]
fn a_corpus_with_no_usable_file_exits_1() {
    let scratch = Scratch::new("unusable");
    let manifest = scratch.corpus(&[CORRUPT]);
    let out = run_corpus(&scratch.0.join("store"), &manifest);
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
}

#[test]
fn a_bad_flag_value_or_an_unknown_argument_exits_2_naming_it() {
    let out = campaign_run(&["--dir", "unused", "--threads", "banana"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("--threads wants a non-negative integer, got \"banana\""),
        "{}",
        stderr(&out)
    );
    let out = campaign_run(&["--dir", "unused", "--expect-geomeen", "1.1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).contains("unknown argument \"--expect-geomeen\""),
        "{}",
        stderr(&out)
    );
}

#[test]
fn an_unknown_argument_exits_2_before_any_work_or_output() {
    let scratch = Scratch::new("unknown");
    let tiny = "--matrices 1 --min-rows 48 --max-rows 48";
    for (bin, args, unknown) in [
        (
            env!("CARGO_BIN_EXE_fig10_spmv"),
            format!("{tiny} --bogus 7"),
            "--bogus",
        ),
        (
            env!("CARGO_BIN_EXE_verify_programs"),
            "--qiuck".into(),
            "--qiuck",
        ),
        (
            env!("CARGO_BIN_EXE_multicore"),
            format!("{tiny} --ot y.json"),
            "--ot",
        ),
    ] {
        let out = Command::new(bin)
            .args(args.split(' '))
            .current_dir(&scratch.0)
            .output()
            .expect("run the binary");
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args}: {err}");
        assert_eq!(err, format!("unknown argument \"{unknown}\"\n"), "{args}");
        assert_eq!(String::from_utf8_lossy(&out.stdout), "", "{args}");
        // Neither the default report (VERIFY_programs.json,
        // BENCH_multicore.json) nor the misspelled output is written.
        let written: Vec<_> = std::fs::read_dir(&scratch.0).unwrap().collect();
        assert!(written.is_empty(), "{args}: wrote {written:?}");
    }
}

#[test]
fn a_synthetic_corpus_flag_with_corpus_exits_2() {
    let scratch = Scratch::new("seed");
    let manifest = scratch.corpus(&[VALID]);
    let store = scratch.0.join("store");
    let out = campaign_run(&[
        "--dir",
        store.to_str().unwrap(),
        "--corpus",
        manifest.to_str().unwrap(),
        "--seed",
        "7",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("--seed"), "{}", stderr(&out));
    assert!(
        !store.exists(),
        "a rejected command line must not start a run"
    );
}

#[test]
fn a_degenerate_suite_size_exits_2_naming_its_flags() {
    let scratch = Scratch::new("degenerate");
    let store = scratch.0.join("store");
    let campaign = env!("CARGO_BIN_EXE_campaign");
    for (bin, args, error) in [
        (
            campaign,
            "run --synthetic 2 --min-rows 600 --max-rows 300",
            "--min-rows 600 exceeds --max-rows 300",
        ),
        (
            campaign,
            "run --synthetic 2 --min-rows 1",
            "--min-rows wants at least 2 rows, got 1",
        ),
        (
            campaign,
            "run --synthetic 0",
            "--synthetic wants at least 1 matrix, got 0",
        ),
        (
            campaign,
            "tune --min-rows 600 --max-rows 300",
            "--min-rows 600 exceeds --max-rows 300",
        ),
        (
            campaign,
            "tune --matrices 0",
            "--matrices wants at least 1 matrix, got 0",
        ),
        // Figure 9's suite starts at 2,048 rows, so a lower cap is rejected.
        (
            env!("CARGO_BIN_EXE_fig9_dse"),
            "--max-rows 1024",
            "--min-rows 2048 exceeds --max-rows 1024",
        ),
        // Counts that would make a run do nothing.
        (
            env!("CARGO_BIN_EXE_fig12a_histogram"),
            "--keys 0",
            "--keys wants at least 1 key, got 0",
        ),
        (
            campaign,
            "run --max-jobs 0",
            "--max-jobs wants at least 1 job, got 0",
        ),
    ] {
        let mut cmd = Command::new(bin);
        cmd.args(args.split(' '));
        if bin == campaign {
            cmd.arg("--dir").arg(&store);
        }
        let out = cmd.output().expect("run the binary");
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args}: {err}");
        assert!(
            err.contains(error) && !err.contains("panicked"),
            "{args}: {err}"
        );
    }
    assert!(
        !store.exists(),
        "a rejected command line must not start a run"
    );
}

/// Runs `bin` with the space-separated `args`.
fn run(bin: &str, args: &str) -> Output {
    Command::new(bin)
        .args(args.split(' '))
        .output()
        .expect("run the binary")
}

#[test]
fn report_and_merge_exit_2_on_a_path_that_is_not_a_directory() {
    let scratch = Scratch::new("paths");
    let [missing, merged, empty] =
        ["missing", "merged", "empty"].map(|d| scratch.0.join(d).display().to_string());
    let campaign = env!("CARGO_BIN_EXE_campaign");
    for (cmd, rest) in [
        ("report", missing.clone()),
        ("merge", format!("{merged} {missing}")),
    ] {
        let out = run(campaign, &format!("{cmd} {rest}"));
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {err}");
        assert!(err.contains(&format!("campaign {cmd}: no store directory at {missing}")));
    }
    assert!(!Path::new(&merged).exists(), "nothing may be written");
    // An existing directory without store files still reads as empty.
    std::fs::create_dir_all(&empty).unwrap();
    for args in [format!("report {empty}"), format!("merge {merged} {empty}")] {
        assert_eq!(run(campaign, &args).status.code(), Some(0), "{args}");
    }
}

#[test]
fn an_unwritable_output_or_a_missed_floor_exits_1() {
    let scratch = Scratch::new("exit1");
    let [missing, written] =
        ["missing/out.json", "multicore.json"].map(|f| scratch.0.join(f).display().to_string());
    let (report, multicore) = (
        env!("CARGO_BIN_EXE_stall_report"),
        env!("CARGO_BIN_EXE_multicore"),
    );
    let cannot = format!("cannot write {missing}: ");
    for (bin, out, error, before_any_output) in [
        (report, format!("--chrome {missing}"), cannot.as_str(), true),
        (multicore, format!("--out {missing}"), &cannot, true),
        // At this scale 4 cores miss the floor; the grid is written first.
        (
            multicore,
            format!("--out {written}"),
            "under the 1.7x acceptance floor",
            false,
        ),
    ] {
        let tiny = format!("--matrices 1 --min-rows 48 --max-rows 48 {out}");
        let output = run(bin, &tiny);
        let err = stderr(&output);
        assert_eq!(output.status.code(), Some(1), "{out}: {err}");
        assert!(
            err.contains(error) && !err.contains("panicked"),
            "{out}: {err}"
        );
        // A missing directory is found when the flag is parsed: nothing
        // runs and nothing prints, not even the banner.
        if before_any_output {
            assert_eq!(
                String::from_utf8_lossy(&output.stdout),
                "",
                "{out}: ran before failing"
            );
        }
    }
    assert!(Path::new(&written).exists());
    // `verify_programs` prints its banner on stderr; the path error must
    // be all there is.
    let output = run(
        env!("CARGO_BIN_EXE_verify_programs"),
        &format!("--quick --out {missing}"),
    );
    let err = stderr(&output);
    assert_eq!(output.status.code(), Some(1), "{err}");
    assert!(
        err.starts_with(&cannot) && err.lines().count() == 1,
        "{err}"
    );
}
