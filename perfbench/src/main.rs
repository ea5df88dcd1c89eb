//! `perfbench`: the repository benchmark.
//!
//! One process runs one workload (`tune`, `campaign` or `scorecard`) in
//! repetitions of a *cold* pass (empty memos and stores) followed by *warm*
//! passes (reusing what the cold pass left), for at least `--seconds`
//! seconds, and prints the end-to-end metrics as medians over the
//! repetitions, with times in host-normalized seconds (see [`calib`] for
//! why). With `--trace 1` it instead alternates untraced repetitions with
//! traced ones, which drive the same steps through the layers' public
//! functions inside spans, and prints the per-layer metrics. Every pass's
//! outputs are checked: warm against cold, traced against untraced, and
//! each workload's own correctness checks.
//!
//! ```sh
//! perfbench --workload tune --seed 7 --seconds 20 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod calib;
mod campaign;
mod scorecard;
mod span;
mod tune;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use span::Trace;

/// What one pass produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Pass {
    /// Points attempted (tuned rows, campaign jobs, scorecard checks).
    pub points: u64,
    /// Points that failed: quarantined jobs, reference mismatches, tuner
    /// bound violations and unsound prunes.
    pub failed: u64,
    /// Canonical rendering of the pass's outputs, compared across passes.
    pub digest: String,
}

/// One untraced repetition: a cold pass and its warm passes.
pub struct Rep {
    /// Wall time of the cold pass.
    pub cold_s: f64,
    /// Wall time of each warm pass.
    pub warm_s: Vec<f64>,
    /// The cold pass's outputs.
    pub cold: Pass,
    /// Each warm pass's outputs.
    pub warm: Vec<Pass>,
    /// Per-layer counts and `model.*` outputs this repetition measured.
    pub layer: BTreeMap<&'static str, f64>,
}

/// One traced repetition.
pub struct TracedRep {
    /// Outputs of the traced cold pass.
    pub cold: Pass,
    /// Outputs of each traced warm pass.
    pub warm: Vec<Pass>,
    /// Wall time of the traced cold and warm passes together.
    pub wall_s: f64,
    /// Per-layer metrics derived from the trace.
    pub layer: BTreeMap<&'static str, f64>,
}

/// A benchmark workload.
pub trait Workload {
    /// Inputs the set-up step builds and the passes check against.
    type Inputs;
    /// Corpus scale and seeds, as a JSON object (provenance).
    fn scale_json(&self) -> String;
    /// Worker threads the passes run on.
    fn threads(&self) -> usize;
    /// The set-up step: corpus generation, operand derivation, store
    /// directories.
    fn setup(&self) -> Self::Inputs;
    /// Points one pass attempts (used to charge a panicking pass).
    fn points(&self, inputs: &Self::Inputs) -> u64;
    /// One cold pass plus the warm passes.
    fn rep(&self, inputs: &Self::Inputs) -> Rep;
    /// The same passes, traced; `untraced` is the repetition just before.
    fn traced_rep(&self, inputs: &Self::Inputs, trace: &Trace, untraced: &Rep) -> TracedRep;
}

/// Every per-layer metric, with its unit. Printed on every workload; a
/// layer a workload does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("analyze.s", "s"),
    ("analyze.streams", "count"),
    ("analyze.prune_rate", "fraction"),
    ("emit.s", "s"),
    ("emit.instructions", "count"),
    ("compile.record_s", "s"),
    ("compile.streams", "count"),
    ("compile.instructions", "count"),
    ("compile.stream_mb", "MB"),
    ("verify.program_s", "s"),
    ("engine.replay_s", "s"),
    ("engine.replay_mips", "MIPS"),
    ("engine.interpret_s", "s"),
    ("engine.interpret_mips", "MIPS"),
    ("engine.instructions", "count"),
    ("trace.accounting_s", "s"),
    ("trace.stall_sweep_s", "s"),
    ("socket.s", "s"),
    ("socket.cores8_s", "s"),
    ("socket.llc_accesses", "count"),
    ("memo.probe_s", "s"),
    ("memo.stream_hit_rate", "fraction"),
    ("memo.cycle_hit_rate", "fraction"),
    ("memo.skipped_instructions", "count"),
    ("store.load_s", "s"),
    ("store.write_s", "s"),
    ("store.rows", "count"),
    ("store.mb", "MB"),
    ("campaign.jobs", "count"),
    ("campaign.quarantined", "count"),
    ("campaign.overhead_s", "s"),
    ("formats.generate_s", "s"),
    ("formats.reference_s", "s"),
    ("model.sim_cycles", "count"),
    ("model.sim_instructions", "count"),
    ("model.tuned_geomean", "x"),
    ("model.claims_reproduced", "count"),
    ("model.socket_eff8", "fraction"),
    ("bench.trace_overhead", "x"),
];

/// Command-line arguments.
struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => {
                let v = value()?;
                args.seed = Some(parse_u64(&v).ok_or(format!("bad --seed {v}"))?);
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v.parse().map_err(|_| format!("bad --seconds {v}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("bad --trace {v} (0 or 1)")),
                }
            }
            "--scale" => {
                args.tiny = match value()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    v => return Err(format!("bad --scale {v} (full or tiny)")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// Worker threads of the `tune` and `campaign` workloads: the host's
/// parallelism, capped at 2 so the run's shape does not change with the
/// host. Each workload records its count in its provenance scale.
fn worker_threads() -> usize {
    via_bench::default_threads().clamp(1, 2)
}

/// Returns the allocator's free memory to the system, then resets the
/// process's peak resident set to its current resident set, so the next
/// [`peak_rss_mb`] covers what one repetition holds rather than what
/// earlier repetitions left cached in the allocator.
fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` has no preconditions; it only releases
        // free heap pages and never touches live allocations.
        unsafe {
            malloc_trim(0);
        }
    }
    // Best effort: without the reset the reading covers the whole run.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process since start or the last
/// [`reset_peak_rss`], in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic payload of unknown type".into())
}

/// Tallies of one run: points, failures, and why the run is incorrect.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn pass(&mut self, label: &str, p: &Pass, reference: Option<&Pass>) {
        self.attempted += p.points;
        self.failed += p.failed;
        if p.failed > 0 {
            self.problems.push(format!(
                "{label}: {} of {} points failed",
                p.failed, p.points
            ));
        }
        if let Some(r) = reference {
            if r.digest != p.digest {
                // An output that differs from the reference pass fails
                // every point of the pass.
                self.failed += p.points.saturating_sub(p.failed);
                self.problems
                    .push(format!("{label}: outputs differ from the cold pass"));
            }
        }
    }

    fn panicked(&mut self, label: &str, points: u64, msg: String) {
        self.attempted += points;
        self.failed += points;
        self.problems.push(format!("{label} panicked: {msg}"));
    }
}

fn run<W: Workload>(w: &W, args: &Args) -> i32 {
    let mut tally = Tally::default();
    let mut reference: Option<Pass> = None;
    let measure_start = Instant::now();
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();

    if !args.trace {
        let mut calibration = calib::Calibration::new(w.threads());
        // Wall times, and the calibration loop's time around each
        // repetition.
        let (mut setup, mut cold, mut warm, mut rss, mut loops) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        // The same times in host-normalized seconds.
        let (mut setup_n, mut cold_n, mut warm_n) = (Vec::new(), Vec::new(), Vec::new());
        loop {
            let loop_before = calibration.measure();
            reset_peak_rss();
            // Every repetition sets up afresh, as a new process does before
            // its first pass.
            let t = Instant::now();
            let inputs = w.setup();
            let setup_s = t.elapsed().as_secs_f64();
            let points = w.points(&inputs);
            match catch_unwind(AssertUnwindSafe(|| w.rep(&inputs))) {
                Ok(rep) => {
                    let peak = peak_rss_mb();
                    let loop_s = (loop_before + calibration.measure()) / 2.0;
                    let first = reference.is_none();
                    let r = reference.get_or_insert_with(|| rep.cold.clone()).clone();
                    tally.pass("cold pass", &rep.cold, Some(&r));
                    for p in &rep.warm {
                        tally.pass("warm pass", p, Some(&r));
                    }
                    // The first repetition warms the process up (allocator
                    // growth, lazy initialisation); it is checked but not
                    // timed.
                    if !first {
                        let scale = calib::scale(loop_s);
                        setup.push(setup_s);
                        cold.push(rep.cold_s);
                        warm.extend(&rep.warm_s);
                        setup_n.push(setup_s * scale);
                        cold_n.push(rep.cold_s * scale);
                        warm_n.extend(rep.warm_s.iter().map(|s| s * scale));
                        rss.push(peak);
                        loops.push(loop_s);
                    }
                }
                Err(p) => {
                    tally.panicked("pass", 2 * points, panic_message(&*p));
                    break;
                }
            }
            if measure_start.elapsed().as_secs_f64() >= args.seconds && !cold.is_empty() {
                break;
            }
        }
        eprintln!("perfbench: {} timed repetitions", cold.len());
        eprintln!("perfbench: wall cold_s samples {cold:?}");
        eprintln!("perfbench: wall warm_s samples {warm:?}");
        eprintln!("perfbench: wall setup_s samples {setup:?}");
        eprintln!("perfbench: calibration loop samples {loops:?}");
        eprintln!("perfbench: peak_rss_mb samples {rss:?}");
        eprintln!(
            "perfbench: wall medians: cold_s {}, warm_s {}, setup_s {}; calibration loop {}",
            median(&cold),
            median(&warm),
            median(&setup),
            median(&loops)
        );
        metrics.push(("cold_s", median(&cold_n), "s"));
        metrics.push(("warm_s", median(&warm_n), "s"));
        metrics.push(("setup_s", median(&setup_n), "s"));
        // The median over repetitions of each repetition's peak.
        metrics.push(("peak_rss_mb", median(&rss), "MB"));
        let error_rate = tally.failed as f64 / tally.attempted.max(1) as f64;
        println!(
            "error_rate {error_rate} fraction (attempted {}, failed {})",
            tally.attempted, tally.failed
        );
    } else {
        let inputs = w.setup();
        let points = w.points(&inputs);
        let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let mut spans = String::new();
        loop {
            let before = via_sim::telemetry::snapshot();
            let rep = match catch_unwind(AssertUnwindSafe(|| w.rep(&inputs))) {
                Ok(rep) => rep,
                Err(p) => {
                    tally.panicked("untraced pass", 2 * points, panic_message(&*p));
                    break;
                }
            };
            let delta = via_sim::telemetry::snapshot().since(&before);
            let r = reference.get_or_insert_with(|| rep.cold.clone()).clone();
            tally.pass("cold pass", &rep.cold, Some(&r));
            for p in &rep.warm {
                tally.pass("warm pass", p, Some(&r));
            }
            let trace = Trace::new();
            let traced =
                match catch_unwind(AssertUnwindSafe(|| w.traced_rep(&inputs, &trace, &rep))) {
                    Ok(t) => t,
                    Err(p) => {
                        tally.panicked("traced pass", 2 * points, panic_message(&*p));
                        break;
                    }
                };
            tally.pass("traced cold pass", &traced.cold, Some(&r));
            for p in &traced.warm {
                tally.pass("traced warm pass", p, Some(&r));
            }
            let untraced_wall = rep.cold_s + rep.warm_s.iter().sum::<f64>();
            let mut layer = telemetry_layers(&delta);
            layer.extend(rep.layer);
            layer.extend(traced.layer);
            layer.insert(
                "bench.trace_overhead",
                traced.wall_s / untraced_wall.max(1e-9),
            );
            spans = trace.render();
            for (k, v) in layer {
                samples.entry(k).or_default().push(v);
            }
            if measure_start.elapsed().as_secs_f64() >= args.seconds {
                break;
            }
        }
        // The spans of the last traced repetition, written once it ends.
        eprint!("perfbench: spans of the last traced repetition\n{spans}");
        for &(name, unit) in PER_LAYER {
            let v = samples.get(name).map_or(0.0, |s| median(s));
            metrics.push((name, v, unit));
        }
    }

    for p in &tally.problems {
        eprintln!("perfbench: FAILED: {p}");
    }
    print_result(w, args, &tally, &metrics)
}

/// Per-layer counts read from the process-wide telemetry over one
/// untraced repetition.
fn telemetry_layers(d: &via_sim::TelemetrySnapshot) -> BTreeMap<&'static str, f64> {
    let rate = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    let inst_bytes = std::mem::size_of::<via_sim::Inst>() as f64;
    BTreeMap::from([
        ("analyze.streams", d.analyzed_streams as f64),
        ("compile.streams", d.compiled_streams as f64),
        ("compile.instructions", d.compiled_instructions as f64),
        (
            "compile.stream_mb",
            d.compiled_instructions as f64 * inst_bytes / (1024.0 * 1024.0),
        ),
        ("engine.instructions", d.instructions as f64),
        (
            "memo.stream_hit_rate",
            rate(d.stream_cache_hits, d.stream_cache_misses),
        ),
        (
            "memo.cycle_hit_rate",
            rate(d.cycle_cache_hits, d.cycle_cache_misses),
        ),
        ("memo.skipped_instructions", d.skipped_instructions as f64),
    ])
}

fn print_result<W: Workload>(
    w: &W,
    args: &Args,
    tally: &Tally,
    metrics: &[(&str, f64, &str)],
) -> i32 {
    let ctx = via_kernels::SimContext::default();
    println!(
        "{{\"provenance\": {{\"git_rev\": \"{}\", \"nproc\": {}, \
         \"config_hash\": \"{:016x}\", \"workload\": \"{}\", \"trace\": {}, \"scale\": {}}}}}",
        std::env::var("VIA_GIT_REV").unwrap_or_else(|_| "unknown".into()),
        via_bench::default_threads(),
        via_sim::config_hash(&ctx.core, &ctx.mem),
        args.workload,
        u8::from(args.trace),
        w.scale_json(),
    );
    for (name, v, unit) in metrics {
        println!("{name:<28} {v:>16.6} {unit}");
    }
    let correct = tally.failed == 0 && tally.problems.is_empty() && tally.attempted > 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    );
    if correct {
        0
    } else {
        1
    }
}

/// Scratch directory for this process's stores, inside the working
/// directory (the checkout the benchmark runs from).
fn work_dir(workload: &str) -> PathBuf {
    PathBuf::from(".perfbench_work").join(format!("{workload}-{}", std::process::id()))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload tune|campaign|scorecard [--seed N] \
                 [--seconds S] [--trace 0|1] [--scale full|tiny]"
            );
            std::process::exit(2);
        }
    };
    let dir = work_dir(&args.workload);
    let threads = worker_threads();
    let code = match args.workload.as_str() {
        "tune" => run(
            &tune::TuneWorkload::new(args.seed, args.tiny, threads, &dir),
            &args,
        ),
        "campaign" => run(
            &campaign::CampaignWorkload::new(args.seed, args.tiny, threads, &dir),
            &args,
        ),
        "scorecard" => run(
            &scorecard::ScorecardWorkload::new(args.seed, args.tiny),
            &args,
        ),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (tune, campaign, scorecard)");
            2
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    if let Ok(mut rest) = std::fs::read_dir(".perfbench_work") {
        if rest.next().is_none() {
            let _ = std::fs::remove_dir(".perfbench_work");
        }
    }
    std::process::exit(code);
}
