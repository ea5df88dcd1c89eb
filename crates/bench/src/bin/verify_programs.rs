//! `via-verify` static sweep over every shipped kernel × format × scale.
//!
//! Each target runs its kernels on a generated suite with thread-local
//! report capture enabled, so every engine the kernels construct verifies
//! its instruction stream (def-before-use, structural lints, gather/scatter
//! ordering) and the `ViaUnit` mode checker validates the SSPM direct/CAM
//! interleaving. Every run is recorded and its [`via_sim::CompiledStream`] is fed
//! through the whole-stream analyzer (`via_sim::analyze`): the static
//! cycle lower bound is asserted against the simulated cycle count, every
//! liveness/alias finding is re-proved by its brute-force oracle, and the
//! per-target analysis summary (dead writes/stores, bound tightness, CAM
//! index-table occupancy) lands in the JSON next to the verifier counts.
//! Diagnostics are printed rustc-style on stderr and the machine-readable
//! summary (per-target counts plus every violation with its instruction
//! index) is written as JSON.
//!
//! ```sh
//! cargo run --release -p via-bench --bin verify_programs [-- --quick] [--out path.json]
//! ```
//!
//! Exit status is 1 if any error-severity diagnostic is produced, if any
//! static bound exceeds its simulated cycle count, or if any analyzer
//! finding is refuted by its oracle — the tier-1 gate runs this with
//! `--quick`.

use via_bench::experiments::{skewed_keys, uniform_keys};
use via_bench::{
    cli_args, flag_arg, writable_or_exit, write_or_exit, ExperimentScale, KernelKind, Suite,
};
use via_core::ViaConfig;
use via_formats::gen::{self, GenMatrix};
use via_formats::Csb;
use via_gen::{GenInputs, Kernel, KernelVariant};
use via_kernels::spmspv::SparseVector;
use via_kernels::{
    histogram, spmm, spmspv, spmv, sptrsv, stencil, symgs, KernelRun, Schedule, SimContext,
};
use via_sim::trace::json_string;
use via_sim::verify::{self, Diag, Severity};
use via_sim::{analyze, AnalysisCache};

/// Aggregated static-analysis outcome over one target's recorded streams.
#[derive(Default)]
struct AnalysisStats {
    streams: usize,
    instructions: u64,
    dead_writes: u64,
    dead_stores: u64,
    dead_store_bytes: u64,
    alias_conflicts: u64,
    alias_dropped: u64,
    cam_runs: usize,
    cam_proven: usize,
    cam_insert_upper_max: u64,
    bound_sum: u64,
    cycles_sum: u64,
    /// Bound violations or oracle refutations — any entry fails the sweep.
    failures: Vec<String>,
}

impl AnalysisStats {
    /// Mean bound tightness: static lower bound as a fraction of the
    /// simulated cycles, summed over the target's runs (1.0 = exact).
    fn tightness(&self) -> f64 {
        if self.cycles_sum == 0 {
            0.0
        } else {
            self.bound_sum as f64 / self.cycles_sum as f64
        }
    }
}

/// Runs the analyzer (through the shared memo cache) over one recorded
/// kernel run and folds the report into per-target statistics.
struct Analyzer<'a> {
    cache: &'a AnalysisCache,
    ctx: &'a SimContext,
    stats: AnalysisStats,
}

impl Analyzer<'_> {
    fn run<T>(&mut self, name: &str, run: &KernelRun<T>) {
        let stream = run
            .compiled
            .as_ref()
            .expect("verify_programs contexts record every run");
        let is_via = run.sspm_events.is_some();
        let cfg = self.ctx.analyze_config(run);
        let report = self.cache.get_or_analyze(stream, &cfg);

        let s = &mut self.stats;
        s.streams += 1;
        s.instructions += report.instructions;
        s.dead_writes += report.dead_writes;
        s.dead_stores += report.dead_stores;
        s.dead_store_bytes += report.dead_store_bytes;
        s.alias_conflicts += report.alias_conflicts;
        s.alias_dropped += report.alias_dropped;
        if is_via {
            s.cam_runs += 1;
            s.cam_insert_upper_max = s.cam_insert_upper_max.max(report.cam.insert_upper);
            if report.cam.proven_no_overflow == Some(true) {
                s.cam_proven += 1;
            }
        }
        s.bound_sum += report.bound.lower_cycles;
        s.cycles_sum += run.stats.cycles;
        if report.bound.lower_cycles > run.stats.cycles {
            s.failures.push(format!(
                "{name}: static bound {} > simulated {} (terms: {:?})",
                report.bound.lower_cycles, run.stats.cycles, report.bound
            ));
        }
        if let Err(e) = analyze::validate(stream, &report) {
            s.failures.push(format!("{name}: {e}"));
        }
    }

    /// Runs both legs of `kind`'s pair on a suite matrix, named like the
    /// other targets' kernels (`spmv::csr_vec`).
    fn pair(&mut self, kind: KernelKind, m: &GenMatrix) {
        let pair = kind.on(m, self.ctx);
        let (base, via) = kind.labels();
        self.run(&base.replace('/', "::"), &pair.baseline());
        self.run(&via.replace('/', "::"), &pair.via());
    }
}

/// Aggregated verification outcome of one kernel-family target.
struct TargetOutcome {
    name: String,
    engines: usize,
    instructions: u64,
    diags: Vec<Diag>,
    analysis: AnalysisStats,
}

impl TargetOutcome {
    fn errors(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .count()
    }

    fn warnings(&self) -> usize {
        self.diags.len() - self.errors()
    }
}

/// Runs `run` with report capture on and folds every engine's report into
/// one labeled outcome. Kernels must run on this thread — capture is
/// thread-local by design (parallel sweeps would interleave reports). The
/// closure receives an [`Analyzer`] so every recorded run is pushed
/// through the static-analysis passes as it completes.
fn check(
    name: &str,
    outcomes: &mut Vec<TargetOutcome>,
    cache: &AnalysisCache,
    ctx: &SimContext,
    run: impl FnOnce(&mut Analyzer),
) {
    let guard = verify::capture_guard();
    let mut analyzer = Analyzer {
        cache,
        ctx,
        stats: AnalysisStats::default(),
    };
    run(&mut analyzer);
    let reports = verify::drain_captured();
    drop(guard);
    let mut outcome = TargetOutcome {
        name: name.to_string(),
        engines: reports.len(),
        instructions: 0,
        diags: Vec::new(),
        analysis: analyzer.stats,
    };
    for report in reports {
        outcome.instructions += report.instructions;
        outcome.diags.extend(report.diags);
    }
    eprintln!(
        "  {:<22} {:>4} engines  {:>9} instructions  {} errors, {} warnings  \
         | bound {:.3}x, {} dead stores, {} alias drops",
        outcome.name,
        outcome.engines,
        outcome.instructions,
        outcome.errors(),
        outcome.warnings(),
        outcome.analysis.tightness(),
        outcome.analysis.dead_stores,
        outcome.analysis.alias_dropped,
    );
    for diag in &outcome.diags {
        eprintln!("{}", diag.render());
    }
    for failure in &outcome.analysis.failures {
        eprintln!("analysis failure: {failure}");
    }
    outcomes.push(outcome);
}

fn frontier(n: usize, k: usize, seed: u64) -> SparseVector {
    SparseVector::from_pairs((0..k).map(|i| {
        let idx = ((i as u64 * 2654435761 + seed) % n as u64) as usize;
        (idx, 1.0 + i as f64)
    }))
}

fn main() {
    let args = cli_args(&["--out"], &["--quick"]);
    let quick = args.iter().any(|a| a == "--quick");
    let out_path =
        writable_or_exit(flag_arg(&args, "--out").unwrap_or_else(|| "VERIFY_programs.json".into()));

    let scale = if quick {
        ExperimentScale {
            matrices: 4,
            min_rows: 96,
            max_rows: 256,
            density_range: (0.001, 0.026),
            seed: 3,
            threads: 1,
        }
    } else {
        ExperimentScale {
            matrices: 10,
            min_rows: 128,
            max_rows: 768,
            density_range: (0.0005, 0.026),
            seed: 0x51A,
            threads: 1,
        }
    };
    let suite = Suite::generate(&scale);
    // Two SSPM geometries: the paper's default 16 KB point, and the small
    // 4 KB point that forces the kernels' segmentation/multi-pass paths.
    // Both record, so every stream is also statically analyzed.
    let ctxs = [
        ("16k2p", SimContext::default().with_recording()),
        (
            "4k2p",
            SimContext::with_via(ViaConfig::new(4, 2)).with_recording(),
        ),
    ];
    eprintln!(
        "verify_programs: {} matrices (rows {}..{}), {} SSPM geometries{}",
        suite.len(),
        scale.min_rows,
        scale.max_rows,
        ctxs.len(),
        if quick { " [--quick]" } else { "" }
    );

    let mut outcomes: Vec<TargetOutcome> = Vec::new();
    // Shared across targets and geometries: baseline kernels produce the
    // same stream under both SSPM geometries, so the memo collapses them.
    let cache = AnalysisCache::default();

    for (cfg_name, ctx) in &ctxs {
        check(
            &format!("spmv/{cfg_name}"),
            &mut outcomes,
            &cache,
            ctx,
            |an| {
                for m in &suite.matrices {
                    for kind in KernelKind::SPMV {
                        an.pair(kind, m);
                    }
                    // Two SpMV kernels outside the pairs, on the pairs' `x`.
                    let x = gen::dense_vector(m.csr.cols(), m.seed);
                    let csb = Csb::from_csr(&m.csr, ctx.via.csb_block_size())
                        .expect("power-of-two block");
                    an.run("spmv::scalar_csr", &spmv::scalar_csr(&m.csr, &x, ctx));
                    an.run(
                        "spmv::csb_software_vec",
                        &spmv::csb_software_vec(&csb, &x, ctx),
                    );
                }
            },
        );
        check(
            &format!("spma/{cfg_name}"),
            &mut outcomes,
            &cache,
            ctx,
            |an| {
                for m in &suite.matrices {
                    an.pair(KernelKind::Spma, m);
                }
            },
        );
        check(
            &format!("spmm/{cfg_name}"),
            &mut outcomes,
            &cache,
            ctx,
            |an| {
                // SpMM cost is quadratic in rows — cap like ExperimentScale::spmm.
                for m in suite.matrices.iter().filter(|m| m.csr.rows() <= 384) {
                    an.pair(KernelKind::Spmm, m);
                    let b2 = gen::uniform(m.csr.cols(), m.csr.cols(), m.csr.density(), m.seed ^ 3);
                    an.run("spmm::gustavson", &spmm::gustavson(&m.csr, &b2, ctx));
                }
            },
        );
        check(
            &format!("spmspv/{cfg_name}"),
            &mut outcomes,
            &cache,
            ctx,
            |an| {
                for (n, seed) in [(200usize, 31u64), (600, 33)] {
                    let a = gen::rmat(n, n * 6, seed).to_csc();
                    let x = frontier(n, n / 12, seed ^ 1);
                    an.run("spmspv::spa_dense", &spmspv::spa_dense(&a, &x, ctx));
                    an.run("spmspv::via_cam", &spmspv::via_cam(&a, &x, ctx));
                }
            },
        );
        check(
            &format!("sptrsv/{cfg_name}"),
            &mut outcomes,
            &cache,
            ctx,
            |an| {
                for m in &suite.matrices {
                    let l = gen::make_lower_triangular(&m.csr);
                    let b = gen::dense_vector(l.rows(), m.seed ^ 4);
                    an.run("sptrsv::scalar", &sptrsv::scalar(&l, &b, ctx));
                    an.run("sptrsv::via_sspm", &sptrsv::via_sspm(&l, &b, ctx));
                    an.run(
                        "sptrsv::via_levels",
                        &sptrsv::via_sspm_with(&l, &b, ctx, Schedule::Levels, 8),
                    );
                }
            },
        );
        check(
            &format!("symgs/{cfg_name}"),
            &mut outcomes,
            &cache,
            ctx,
            |an| {
                for m in &suite.matrices {
                    let a = gen::make_diagonally_dominant(&m.csr);
                    let b = gen::dense_vector(a.rows(), m.seed ^ 5);
                    let x0 = gen::dense_vector(a.rows(), m.seed ^ 6);
                    an.run("symgs::scalar", &symgs::scalar(&a, &b, &x0, ctx));
                    an.run("symgs::via_sspm", &symgs::via_sspm(&a, &b, &x0, ctx));
                    an.run(
                        "symgs::via_levels",
                        &symgs::via_sspm_with(&a, &b, &x0, ctx, Schedule::Levels, 8),
                    );
                }
            },
        );
        check(
            &format!("gen/{cfg_name}"),
            &mut outcomes,
            &cache,
            ctx,
            |an| {
                // Generated-variant sample: the full via-gen knob space of
                // every kernel on the two smallest corpus matrices (SpMM
                // variants only where its quadratic cost stays bounded).
                let mut sample: Vec<_> = suite.matrices.iter().collect();
                sample.sort_by_key(|m| (m.csr.rows(), m.name.clone()));
                for m in sample.into_iter().take(2) {
                    let inputs = GenInputs::from_matrix(&m.name, &m.csr, m.seed);
                    for kernel in Kernel::ALL {
                        if kernel == Kernel::Spmm && m.csr.rows() > 384 {
                            continue;
                        }
                        for v in KernelVariant::space(kernel) {
                            an.run(&v.name(), &v.emit(&inputs, ctx));
                        }
                    }
                }
            },
        );
        check(
            &format!("histogram/{cfg_name}"),
            &mut outcomes,
            &cache,
            ctx,
            |an| {
                let n = if quick { 400 } else { 1500 };
                for (keys, nbins) in [
                    (uniform_keys(n, 256, 5), 256usize),
                    (uniform_keys(n, 2048, 6), 2048),
                    (skewed_keys(n, 256, 7), 256),
                ] {
                    an.run("histogram::scalar", &histogram::scalar(&keys, nbins, ctx));
                    an.run(
                        "histogram::vector_cd",
                        &histogram::vector_cd(&keys, nbins, ctx),
                    );
                    an.run("histogram::via", &histogram::via(&keys, nbins, ctx));
                }
            },
        );
        check(
            &format!("stencil/{cfg_name}"),
            &mut outcomes,
            &cache,
            ctx,
            |an| {
                let filter = stencil::gaussian4();
                let sides: &[usize] = if quick { &[32] } else { &[32, 64] };
                for &side in sides {
                    let image: Vec<f64> = gen::dense_vector(side * side, side as u64)
                        .into_iter()
                        .map(f64::abs)
                        .collect();
                    an.run(
                        "stencil::scalar",
                        &stencil::scalar(&image, side, side, &filter, ctx),
                    );
                    an.run(
                        "stencil::vector",
                        &stencil::vector(&image, side, side, &filter, ctx),
                    );
                    an.run(
                        "stencil::via",
                        &stencil::via(&image, side, side, &filter, ctx),
                    );
                }
            },
        );
    }

    let total_instructions: u64 = outcomes.iter().map(|o| o.instructions).sum();
    let errors: usize = outcomes.iter().map(TargetOutcome::errors).sum();
    let warnings: usize = outcomes.iter().map(TargetOutcome::warnings).sum();
    let analysis_failures: usize = outcomes.iter().map(|o| o.analysis.failures.len()).sum();
    let analyzed_streams: usize = outcomes.iter().map(|o| o.analysis.streams).sum();
    let bound_sum: u64 = outcomes.iter().map(|o| o.analysis.bound_sum).sum();
    let cycles_sum: u64 = outcomes.iter().map(|o| o.analysis.cycles_sum).sum();

    let mut targets = String::new();
    for (i, o) in outcomes.iter().enumerate() {
        if i > 0 {
            targets.push_str(",\n");
        }
        let a = &o.analysis;
        targets.push_str(&format!(
            "    {{\"name\": \"{}\", \"engines\": {}, \"instructions\": {}, \
             \"errors\": {}, \"warnings\": {}, \"analysis\": {{\
             \"streams\": {}, \"dead_writes\": {}, \"dead_stores\": {}, \
             \"dead_store_bytes\": {}, \"alias_conflicts\": {}, \
             \"alias_dropped\": {}, \"bound_cycles\": {}, \
             \"simulated_cycles\": {}, \"tightness\": {:.4}, \
             \"cam_runs\": {}, \"cam_proven\": {}, \
             \"cam_insert_upper_max\": {}, \"failures\": {}}}}}",
            o.name,
            o.engines,
            o.instructions,
            o.errors(),
            o.warnings(),
            a.streams,
            a.dead_writes,
            a.dead_stores,
            a.dead_store_bytes,
            a.alias_conflicts,
            a.alias_dropped,
            a.bound_sum,
            a.cycles_sum,
            a.tightness(),
            a.cam_runs,
            a.cam_proven,
            a.cam_insert_upper_max,
            a.failures.len(),
        ));
    }
    let mut violations = String::new();
    let mut first = true;
    for o in &outcomes {
        for d in &o.diags {
            if !first {
                violations.push_str(",\n");
            }
            first = false;
            let severity = match d.severity() {
                Severity::Error => "error",
                Severity::Warning => "warning",
                Severity::Analysis => "analysis",
            };
            violations.push_str(&format!(
                "    {{\"target\": \"{}\", \"code\": \"{}\", \"severity\": \
                 \"{severity}\", \"inst_index\": {}, \"tag\": {}, \
                 \"message\": {}}}",
                o.name,
                d.code.code(),
                d.index,
                json_string(d.tag),
                json_string(&d.message)
            ));
        }
        for f in &o.analysis.failures {
            if !first {
                violations.push_str(",\n");
            }
            first = false;
            violations.push_str(&format!(
                "    {{\"target\": \"{}\", \"code\": \"analysis\", \"severity\": \
                 \"error\", \"inst_index\": 0, \"tag\": \"bound\", \
                 \"message\": {}}}",
                o.name,
                json_string(f)
            ));
        }
    }
    let overall_tightness = if cycles_sum == 0 {
        0.0
    } else {
        bound_sum as f64 / cycles_sum as f64
    };
    let json = format!(
        "{{\n  \"quick\": {quick},\n  \"targets\": [\n{targets}\n  ],\n  \
         \"violations\": [\n{violations}\n  ],\n  \
         \"total_instructions\": {total_instructions},\n  \
         \"errors\": {errors},\n  \"warnings\": {warnings},\n  \
         \"analyzed_streams\": {analyzed_streams},\n  \
         \"analysis_memo_hits\": {},\n  \"analysis_memo_misses\": {},\n  \
         \"bound_tightness\": {overall_tightness:.4},\n  \
         \"analysis_failures\": {analysis_failures},\n  \
         \"clean\": {}\n}}\n",
        cache.hits(),
        cache.misses(),
        errors == 0 && analysis_failures == 0
    );
    write_or_exit(&out_path, &json);
    eprintln!(
        "verify_programs: {total_instructions} instructions across {} targets \
         -> {errors} errors, {warnings} warnings; analyzed {analyzed_streams} \
         streams (bound {overall_tightness:.3}x, memo {}/{} hits, {} failures) \
         ({out_path})",
        outcomes.len(),
        cache.hits(),
        cache.hits() + cache.misses(),
        analysis_failures,
    );
    if errors > 0 || analysis_failures > 0 {
        std::process::exit(1);
    }
}
