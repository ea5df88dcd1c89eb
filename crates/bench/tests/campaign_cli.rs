//! The command lines of the built binaries: `campaign run` exit codes for
//! usable, partly usable and unusable `.mtx` corpora, and for one too large
//! to allocate; exit 2 naming the flag or path for bad, conflicting,
//! degenerate or do-nothing arguments (`campaign tune`, `fig9_dse` and
//! `fig12a_histogram` included); and exit 1 naming the path when an output
//! file cannot be written (before any work when its directory is missing).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use via_bench::campaign::{load_quarantine, load_results};

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
    let manifest = scratch.corpus(&[oversized, VALID]);
    let store = scratch.0.join("store");
    let out = Command::new("sh")
        .args(["-c", "ulimit -v 4000000; exec \"$0\" \"$@\""])
        .arg(env!("CARGO_BIN_EXE_campaign"))
        .args(["run", "--dir", store.to_str().unwrap()])
        .args([
            "--corpus",
            manifest.to_str().unwrap(),
            "--threads",
            "1",
            "--quiet",
        ])
        .output()
        .expect("run the campaign binary under an address-space cap");
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let quarantine = load_quarantine(&store).expect("load quarantine");
    assert_eq!(quarantine.len(), 1, "{quarantine:?}");
    assert!(quarantine[0].matrix.ends_with("oversized.mtx"));
    assert_eq!(quarantine[0].kind, "too_large");
    assert_eq!(
        quarantine[0].chain,
        ["a 4294967296x4 matrix does not fit in memory"]
    );
    let results = load_results(&store).expect("load results");
    assert_eq!(results.len(), 1, "{results:?}");
    assert!(results[0].matrix.ends_with("valid.mtx"));
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
