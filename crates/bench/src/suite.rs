//! Experiment input suites and scaling knobs.

use std::sync::atomic::{AtomicUsize, Ordering};

use via_formats::gen::{self, GenMatrix, SuiteConfig};

/// How large an experiment to run. The paper's full evaluation uses 1,024
/// SuiteSparse matrices up to 20,000 rows; cycle-level simulation of that
/// sweep takes hours, so the default scales down while preserving the
/// density range and structural mix (see DESIGN.md).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentScale {
    /// Number of matrices in the suite.
    pub matrices: usize,
    /// Smallest matrix dimension.
    pub min_rows: usize,
    /// Largest matrix dimension.
    pub max_rows: usize,
    /// Density range sampled per matrix (the paper's selection spans
    /// 0.01%–2.6%; scaled-down matrices sometimes need the upper part of
    /// the range to reach the paper's per-row non-zero counts).
    pub density_range: (f64, f64),
    /// Suite seed.
    pub seed: u64,
    /// Worker threads for the per-matrix sweep (results are identical for
    /// any thread count; see `parallel_map`).
    pub threads: usize,
}

impl Default for ExperimentScale {
    fn default() -> Self {
        ExperimentScale {
            matrices: 40,
            min_rows: 256,
            max_rows: 2048,
            density_range: (0.0001, 0.026),
            seed: 0x1A5,
            threads: default_threads(),
        }
    }
}

impl ExperimentScale {
    /// A quick smoke-test scale (used by the quick tune, `multicore` and
    /// CI).
    pub fn quick() -> Self {
        ExperimentScale {
            matrices: 8,
            min_rows: 128,
            max_rows: 512,
            density_range: (0.001, 0.026),
            seed: 7,
            threads: default_threads(),
        }
    }

    /// A scale suitable for the quadratic-cost SpMM sweep.
    pub fn spmm(&self) -> Self {
        ExperimentScale {
            matrices: self.matrices.min(24),
            min_rows: self.min_rows.min(128),
            max_rows: self.max_rows.min(384),
            density_range: self.density_range,
            seed: self.seed,
            threads: self.threads,
        }
    }

    /// The scale the Figure 9 design-space exploration needs: matrices
    /// large and dense enough that SSPM capacity matters (x-chunk reuse
    /// for SpMV; rows longer than the 4 KB CAM for SpMA).
    pub fn dse(&self) -> Self {
        ExperimentScale {
            matrices: self.matrices.min(8),
            min_rows: self.min_rows.max(2048),
            max_rows: self.max_rows.max(3072),
            density_range: (0.01, 0.08),
            seed: self.seed,
            threads: self.threads,
        }
    }

    /// Parses `--matrices`, `--max-rows`, `--min-rows`, `--seed`, and
    /// `--threads` from CLI arguments, starting from `self` as defaults;
    /// other arguments are left to the caller. A missing or unparsable
    /// value, or a suite [`check_suite_size`] rejects, prints the flag and
    /// the value and exits with status 2.
    pub fn from_args(self, args: &[String]) -> Self {
        or_exit(self.try_from_args(args))
    }

    fn try_from_args(mut self, args: &[String]) -> Result<Self, String> {
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let field = match flag.as_str() {
                "--matrices" => &mut self.matrices,
                "--max-rows" => &mut self.max_rows,
                "--min-rows" => &mut self.min_rows,
                "--threads" => &mut self.threads,
                "--seed" => {
                    self.seed = flag_value(flag, it.next())?;
                    continue;
                }
                _ => continue,
            };
            *field = flag_value(flag, it.next())?;
        }
        self.threads = self.threads.max(1);
        suite_size("--matrices", self.matrices, self.min_rows, self.max_rows)?;
        Ok(self)
    }
}

/// The flags [`ExperimentScale::from_args`] reads, each followed by its
/// value.
pub const SCALE_FLAGS: &[&str] = &[
    "--matrices",
    "--max-rows",
    "--min-rows",
    "--threads",
    "--seed",
];

/// A binary's command line, checked against the flags it declares before
/// it does any work or prints anything: each of `flags` takes a value (the
/// next argument) and each of `switches` stands alone. Any other argument
/// prints `unknown argument "<arg>"` and exits with status 2.
pub fn cli_args(flags: &[&str], switches: &[&str]) -> Vec<String> {
    let args = crate::argv::args();
    or_exit(known_args(&args, flags, switches));
    args
}

fn known_args(args: &[String], flags: &[&str], switches: &[&str]) -> Result<(), String> {
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if flags.contains(&arg.as_str()) {
            it.next();
        } else if !switches.contains(&arg.as_str()) {
            return Err(format!("unknown argument {arg:?}"));
        }
    }
    Ok(())
}

/// Checks the size flags of a generated suite: `count` matrices (set by
/// `count_flag`) with rows in `min_rows..=max_rows`. An empty suite, fewer
/// than 2 rows, or an inverted range prints the flag(s) and value(s) and
/// exits with status 2, before any generator can panic on them.
pub fn check_suite_size(count_flag: &str, count: usize, min_rows: usize, max_rows: usize) {
    or_exit(suite_size(count_flag, count, min_rows, max_rows))
}

fn suite_size(
    count_flag: &str,
    count: usize,
    min_rows: usize,
    max_rows: usize,
) -> Result<(), String> {
    nonzero(count_flag, count, "matrix")?;
    if min_rows < 2 {
        Err(format!("--min-rows wants at least 2 rows, got {min_rows}"))
    } else if min_rows > max_rows {
        Err(format!(
            "--min-rows {min_rows} exceeds --max-rows {max_rows}"
        ))
    } else {
        Ok(())
    }
}

/// Checks a count flag that would make a run do nothing at 0: a `count`
/// of 0 prints `<flag> wants at least 1 <unit>, got 0` and exits with
/// status 2.
pub fn check_nonzero(flag: &str, count: usize, unit: &str) {
    or_exit(nonzero(flag, count, unit))
}

fn nonzero(flag: &str, count: usize, unit: &str) -> Result<(), String> {
    if count == 0 {
        Err(format!("{flag} wants at least 1 {unit}, got 0"))
    } else {
        Ok(())
    }
}

/// The parsed value that follows `flag` in `args`, or `None` when the flag
/// is absent. A missing or unparsable value prints the flag and the value
/// and exits with status 2, as [`ExperimentScale::from_args`] does. Only
/// integer values can fail to parse (a string or path never fails), so
/// the error names the value as an integer.
pub fn flag_arg<T: std::str::FromStr>(args: &[String], flag: &str) -> Option<T> {
    or_exit(try_flag_arg(args, flag))
}

fn try_flag_arg<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match args.iter().position(|a| a == flag) {
        Some(i) => flag_value(flag, args.get(i + 1)).map(Some),
        None => Ok(None),
    }
}

/// Parses the next argument as the value of `flag`, for parsers that walk
/// the arguments in order (`campaign run`). A missing or unparsable value
/// prints the flag and the value and exits with status 2, as
/// [`flag_arg`] does.
pub fn next_flag_value<'a, T: std::str::FromStr>(
    args: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> T {
    or_exit(flag_value(flag, args.next()))
}

/// Parses the value that follows `flag`, or says which flag and value
/// were wrong.
fn flag_value<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag} wants a non-negative integer, got {value:?}"))
}

/// Unwraps a CLI parse, or prints its error and exits with status 2.
fn or_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    })
}

/// Checks an output path when its flag is parsed, before any work runs:
/// its parent must be an existing directory. Otherwise prints
/// `cannot write <path>: <error>` and exits with status 1, so a mistyped
/// path does not throw a finished sweep away. [`write_or_exit`] still
/// reports a failure at write time.
pub fn writable_or_exit(path: String) -> String {
    let parent = std::path::Path::new(&path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
        .unwrap_or(std::path::Path::new("."));
    let error = match std::fs::metadata(parent) {
        Ok(meta) if meta.is_dir() => return path,
        Ok(_) => format!("{} is not a directory", parent.display()),
        Err(e) => e.to_string(),
    };
    eprintln!("cannot write {path}: {error}");
    std::process::exit(1);
}

/// Writes a binary's output file, or prints `cannot write <path>: <error>`
/// and exits with status 1.
pub fn write_or_exit(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// A generated matrix suite.
#[derive(Debug, Clone)]
pub struct Suite {
    /// The matrices with provenance metadata.
    pub matrices: Vec<GenMatrix>,
}

impl Suite {
    /// Generates the suite for a scale.
    pub fn generate(scale: &ExperimentScale) -> Self {
        let config = SuiteConfig {
            count: scale.matrices,
            min_rows: scale.min_rows,
            max_rows: scale.max_rows,
            density_range: scale.density_range,
            seed: scale.seed,
        };
        Suite {
            matrices: gen::suite(&config),
        }
    }

    /// Number of matrices.
    pub fn len(&self) -> usize {
        self.matrices.len()
    }

    /// Whether the suite is empty.
    pub fn is_empty(&self) -> bool {
        self.matrices.is_empty()
    }
}

/// Maps `f` over `items` on up to `threads` OS threads, preserving order.
/// The engine is single-threaded per run; experiments parallelize across
/// matrices. Results are identical for every thread count — only the
/// schedule changes.
///
/// Workers claim item indices from a shared counter (dynamic load
/// balancing: simulated matrices vary widely in cost) and each returns its
/// `(index, result)` pairs; the caller sorts them by index once the scope
/// joins, so completion needs no lock and a worker panic propagates as
/// itself.
///
/// # Panics
///
/// Re-raises any panic from `f` after all workers have been joined.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let (next, f) = (&next, &f);
    let claimed: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            return done;
                        }
                        done.push((i, f(&items[i])));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    let mut results: Vec<(usize, R)> = claimed.into_iter().flatten().collect();
    results.sort_unstable_by_key(|&(i, _)| i);
    results.into_iter().map(|(_, r)| r).collect()
}

/// Default worker-thread count for sweeps.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_args_parses() {
        let parse = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            ExperimentScale::default().try_from_args(&args)
        };
        let s = parse(&["--matrices", "5", "--max-rows", "300", "--seed", "9"]).expect("valid");
        assert_eq!(s.matrices, 5);
        assert_eq!(s.max_rows, 300);
        assert_eq!(s.seed, 9);

        assert_eq!(
            parse(&["--threads", "banana"]),
            Err("--threads wants a non-negative integer, got \"banana\"".to_string())
        );
        assert_eq!(
            parse(&["--seed", "-1"]),
            Err("--seed wants a non-negative integer, got \"-1\"".to_string())
        );
        assert_eq!(
            parse(&["--max-rows", "300", "--matrices"]),
            Err("--matrices needs a value".to_string())
        );
    }

    #[test]
    fn scale_from_args_rejects_degenerate_suites() {
        let parse = |scale: ExperimentScale, args: &str| {
            let args: Vec<String> = args.split_whitespace().map(String::from).collect();
            let s = scale.try_from_args(&args)?;
            Ok::<_, String>((s.matrices, s.min_rows, s.max_rows))
        };
        let default = ExperimentScale::default;
        for (args, error) in [
            ("--matrices 0", "--matrices wants at least 1 matrix, got 0"),
            ("--min-rows 0", "--min-rows wants at least 2 rows, got 0"),
            ("--min-rows 1", "--min-rows wants at least 2 rows, got 1"),
            (
                "--min-rows 600 --max-rows 300",
                "--min-rows 600 exceeds --max-rows 300",
            ),
            // The range is checked after every flag, so defaults count too.
            ("--max-rows 100", "--min-rows 256 exceeds --max-rows 100"),
        ] {
            assert_eq!(parse(default(), args), Err(error.to_string()));
        }
        let smallest = "--matrices 1 --min-rows 2 --max-rows 2";
        assert_eq!(parse(default(), smallest), Ok((1, 2, 2)));
        // Figure 9 starts from the DSE suite; explicit flags override it.
        let dse = |args| parse(default().dse(), args);
        assert_eq!(dse(""), Ok((8, 2048, 3072)));
        assert_eq!(dse("--matrices 16"), Ok((16, 2048, 3072)));
        let error = "--min-rows 2048 exceeds --max-rows 1024";
        assert_eq!(dse("--max-rows 1024"), Err(error.to_string()));
    }

    #[test]
    fn undeclared_arguments_are_named() {
        let args = |a: &str| -> Vec<String> { a.split_whitespace().map(String::from).collect() };
        let check = |a: &str| known_args(&args(a), &["--out", "--seed"], &["--quick"]);
        assert_eq!(check(""), Ok(()));
        // A flag's value is never taken for an argument of its own.
        assert_eq!(check("--quick --out --bogus --seed 3"), Ok(()));
        assert_eq!(check("--out"), Ok(()));
        for (line, unknown) in [
            ("--qiuck", "--qiuck"),
            ("--out x.json --ot y.json", "--ot"),
            ("--seed 3 7", "7"),
        ] {
            assert_eq!(check(line), Err(format!("unknown argument \"{unknown}\"")));
        }
        // `from_args` reads every scale flag, each with a value.
        for flag in SCALE_FLAGS {
            let error = ExperimentScale::default()
                .try_from_args(&args(&format!("{flag} banana")))
                .unwrap_err();
            assert!(error.starts_with(flag), "{error}");
        }
    }

    #[test]
    fn flag_arg_parses_and_names_bad_values() {
        let args = |args: &[&str]| -> Vec<String> { args.iter().map(|s| s.to_string()).collect() };
        let keys = |a: &[&str]| try_flag_arg::<usize>(&args(a), "--keys");
        assert_eq!(keys(&["--keys", "500"]), Ok(Some(500)));
        assert_eq!(keys(&["--quick"]), Ok(None));
        assert_eq!(
            keys(&["--keys", "banana"]),
            Err("--keys wants a non-negative integer, got \"banana\"".to_string())
        );
        assert_eq!(
            try_flag_arg::<usize>(&args(&["--top", "-3"]), "--top"),
            Err("--top wants a non-negative integer, got \"-3\"".to_string())
        );
        let out = |a: &[&str]| try_flag_arg::<String>(&args(a), "--out");
        assert_eq!(out(&["--out", "v.json"]), Ok(Some("v.json".to_string())));
        assert_eq!(
            out(&["--quick", "--out"]),
            Err("--out needs a value".to_string())
        );
    }

    #[test]
    fn suite_generation_is_deterministic() {
        let scale = ExperimentScale::quick();
        let a = Suite::generate(&scale);
        let b = Suite::generate(&scale);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.matrices.iter().zip(&b.matrices) {
            assert_eq!(x.csr, y.csr);
        }
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..50).collect();
        let out = parallel_map(&items, 8, |&i| i * 2);
        assert_eq!(out, (0..50).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty() {
        let items: Vec<usize> = vec![];
        let out: Vec<usize> = parallel_map(&items, 4, |&i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_map_propagates_worker_panics() {
        let items: Vec<usize> = (0..16).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            parallel_map(&items, 4, |&i| {
                if i == 7 {
                    panic!("worker failure");
                }
                i
            })
        }));
        assert!(
            result.is_err(),
            "a panic in a worker must reach the caller, not vanish or \
             surface as lock poisoning"
        );
    }

    #[test]
    fn parallel_map_is_thread_count_invariant() {
        let items: Vec<usize> = (0..37).collect();
        let serial = parallel_map(&items, 1, |&i| i * i + 1);
        for threads in [2, 3, 8] {
            assert_eq!(parallel_map(&items, threads, |&i| i * i + 1), serial);
        }
    }

    #[test]
    fn threads_flag_is_parsed_and_clamped() {
        let args: Vec<String> = ["--threads", "3"].iter().map(|s| s.to_string()).collect();
        assert_eq!(ExperimentScale::default().from_args(&args).threads, 3);
        let zero: Vec<String> = ["--threads", "0"].iter().map(|s| s.to_string()).collect();
        assert_eq!(ExperimentScale::default().from_args(&zero).threads, 1);
    }

    #[test]
    fn spmm_scale_is_bounded() {
        let s = ExperimentScale::default().spmm();
        assert!(s.max_rows <= 384);
        assert!(s.matrices <= 24);
    }

    #[test]
    fn dse_scale_is_large_and_dense() {
        let s = ExperimentScale::default().dse();
        assert!(s.min_rows >= 2048);
        assert!(s.density_range.0 >= 0.01);
    }
}
