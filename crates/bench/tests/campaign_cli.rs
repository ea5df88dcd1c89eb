//! The `campaign run` command line, driven through the built binary: exit
//! codes for usable, partly usable and unusable `.mtx` corpora, and exit 2
//! naming the flag for bad, conflicting or degenerate arguments
//! (`campaign tune` and `fig9_dse` share the suite-size check).

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use via_bench::campaign::load_quarantine;

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
