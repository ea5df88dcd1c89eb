//! The `tune` workload: `via_bench::tune` then `write_tuned`.
//!
//! The cold pass tunes through a fresh `SweepMemo`; the warm pass repeats
//! the identical call through the same memo. The traced pass re-drives the
//! tuner's steps (emit, analyze, memo probe, replay, stall tie-break,
//! audit, store) through their public functions and must produce the same
//! sealed `tuned.jsonl`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use via_bench::tune::matrix_fingerprint;
use via_bench::{
    load_tuned, parallel_map, point_key, tune, tuned_path, write_tuned, CompiledRun,
    ExperimentScale, Suite, SweepMemo, TuneConfig, TuneOutcome, TunedRow,
};
use via_gen::{GenInputs, GenOutput, KernelVariant};
use via_kernels::{SimContext, TraceOptions};
use via_sim::verify::{verify_program, Program, VerifyConfig};
use via_sim::{AnalysisCache, CompiledStream, StallCause};

use crate::span::Trace;
use crate::{Pass, Rep, TracedRep, Workload};

/// Default corpus seed (the quick-tune seed).
pub const DEFAULT_SEED: u64 = 7;

/// The tune workload at one scale and seed.
pub struct TuneWorkload {
    cfg: TuneConfig,
    dir: PathBuf,
}

/// What the set-up step builds: the corpus and every kernel's reference
/// output, plus the store directory.
pub struct TuneInputs {
    suite: Suite,
    expected: Vec<Vec<GenOutput>>,
}

impl TuneWorkload {
    /// `tiny` selects the self-test scale.
    pub fn new(seed: Option<u64>, tiny: bool, threads: usize, dir: &Path) -> Self {
        let mut cfg = TuneConfig::quick();
        cfg.scale = ExperimentScale {
            matrices: if tiny { 2 } else { 15 },
            min_rows: if tiny { 64 } else { 144 },
            max_rows: if tiny { 64 } else { 144 },
            density_range: (0.012, 0.012),
            seed: seed.unwrap_or(DEFAULT_SEED),
            threads,
        };
        TuneWorkload {
            cfg,
            dir: dir.to_path_buf(),
        }
    }

    fn store(&self, label: &str) -> PathBuf {
        self.dir.join(label)
    }
}

/// Output equality with the tuner's tolerance (every variant reassociates
/// reductions).
fn output_matches(got: &GenOutput, want: &GenOutput) -> bool {
    match (got, want) {
        (GenOutput::Vector(g), GenOutput::Vector(w)) => via_formats::vec_approx_eq(g, w, 1e-9),
        (GenOutput::Matrix(g), GenOutput::Matrix(w)) => via_formats::DenseMatrix::from_csr(g)
            .approx_eq(&via_formats::DenseMatrix::from_csr(w), 1e-9),
        _ => false,
    }
}

/// Writes the winners, reads them back, and renders the pass's outputs.
fn seal(dir: &Path, out: &TuneOutcome, trace: Option<&Trace>) -> Pass {
    let write = || write_tuned(dir, &out.rows).expect("tuned store writable");
    let load = || load_tuned(dir).expect("tuned store readable");
    let loaded = match trace {
        Some(t) => {
            t.span("store.write", write);
            t.span("store.load", load)
        }
        None => {
            write();
            load()
        }
    };
    let bytes = std::fs::read(tuned_path(dir)).expect("tuned store readable");
    // A row whose winner is slower than the default, a bound violation or
    // an unsound prune is a failed point; a store that does not read back
    // fails every point.
    let mut failed = out
        .rows
        .iter()
        .filter(|r| r.best_cycles > r.default_cycles)
        .count() as u64
        + out.bound_violations
        + out.unsound_prunes;
    if loaded != out.rows {
        failed = out.rows.len() as u64;
    }
    Pass {
        points: out.rows.len() as u64,
        failed: failed.min(out.rows.len() as u64),
        digest: String::from_utf8_lossy(&bytes).into_owned(),
    }
}

impl Workload for TuneWorkload {
    type Inputs = TuneInputs;

    fn scale_json(&self) -> String {
        let s = &self.cfg.scale;
        format!(
            "{{\"matrices\": {}, \"min_rows\": {}, \"max_rows\": {}, \"density\": [{}, {}], \
             \"seed\": {}, \"kernels\": {}, \"audit\": {}, \"threads\": {}}}",
            s.matrices,
            s.min_rows,
            s.max_rows,
            s.density_range.0,
            s.density_range.1,
            s.seed,
            self.cfg.kernels.len(),
            self.cfg.audit,
            s.threads
        )
    }

    fn threads(&self) -> usize {
        self.cfg.scale.threads
    }

    fn setup(&self) -> TuneInputs {
        let suite = Suite::generate(&self.cfg.scale);
        let expected = suite
            .matrices
            .iter()
            .map(|m| {
                let inputs = GenInputs::from_matrix(&m.name, &m.csr, m.seed);
                self.cfg
                    .kernels
                    .iter()
                    .map(|&k| inputs.expected(k))
                    .collect()
            })
            .collect();
        std::fs::create_dir_all(&self.dir).expect("work directory writable");
        TuneInputs { suite, expected }
    }

    fn points(&self, inputs: &TuneInputs) -> u64 {
        (inputs.suite.len() * self.cfg.kernels.len()) as u64
    }

    fn rep(&self, _inputs: &TuneInputs) -> Rep {
        let memo = SweepMemo::new();
        let before = via_sim::telemetry::snapshot();
        let t = Instant::now();
        let cold = tune(&self.cfg, &memo);
        write_tuned(&self.store("cold"), &cold.rows).expect("tuned store writable");
        let cold_s = t.elapsed().as_secs_f64();
        let cold_delta = via_sim::telemetry::snapshot().since(&before);

        let t = Instant::now();
        let warm = tune(&self.cfg, &memo);
        write_tuned(&self.store("warm"), &warm.rows).expect("tuned store writable");
        let warm_s = t.elapsed().as_secs_f64();

        let cold_pass = seal(&self.store("cold"), &cold, None);
        let warm_pass = seal(&self.store("warm"), &warm, None);
        let store_bytes = cold_pass.digest.len() as f64;
        let layer = BTreeMap::from([
            ("analyze.prune_rate", cold.prune_rate()),
            ("store.rows", cold.rows.len() as f64),
            ("store.mb", store_bytes / (1024.0 * 1024.0)),
            ("model.sim_cycles", sim_cycles(&cold.rows)),
            ("model.sim_instructions", cold_delta.instructions as f64),
            ("model.tuned_geomean", cold.geomean_speedup()),
        ]);
        Rep {
            cold_s,
            warm_s: vec![warm_s],
            cold: cold_pass,
            warm: vec![warm_pass],
            layer,
        }
    }

    fn traced_rep(&self, inputs: &TuneInputs, trace: &Trace, _untraced: &Rep) -> TracedRep {
        let memo = SweepMemo::new();
        let t = Instant::now();
        let cold = traced_tune(&self.cfg, inputs, &memo, trace);
        let cold_pass = seal(&self.store("traced_cold"), &cold, Some(trace));
        let warm = traced_tune(&self.cfg, inputs, &memo, trace);
        let warm_pass = seal(&self.store("traced_warm"), &warm, Some(trace));
        let wall_s = t.elapsed().as_secs_f64();

        let st = trace.self_times();
        let get = |k: &str| st.get(k).copied().unwrap_or(0.0);
        let replay_s = get("engine.replay") + trace.sum("engine.replay_s");
        let interpret_s = trace.sum("engine.interpret_s");
        let layer = BTreeMap::from([
            ("analyze.s", get("analyze")),
            ("emit.s", get("emit")),
            ("emit.instructions", trace.sum("emit.instructions")),
            ("compile.record_s", trace.sum("compile.record_s")),
            ("verify.program_s", get("verify.program")),
            ("engine.replay_s", replay_s),
            (
                "engine.replay_mips",
                trace.sum("engine.replay_instructions") / replay_s.max(1e-9) / 1e6,
            ),
            ("engine.interpret_s", interpret_s),
            (
                "engine.interpret_mips",
                trace.sum("engine.interpret_instructions") / interpret_s.max(1e-9) / 1e6,
            ),
            ("trace.accounting_s", trace.sum("trace.accounting_s")),
            ("memo.probe_s", get("memo.probe")),
            ("store.load_s", get("store.load")),
            ("store.write_s", get("store.write")),
            ("formats.generate_s", get("formats.generate")),
            ("formats.reference_s", get("formats.reference")),
        ]);
        TracedRep {
            cold: cold_pass,
            warm: vec![warm_pass],
            wall_s,
            layer,
        }
    }
}

fn sim_cycles(rows: &[TunedRow]) -> f64 {
    rows.iter()
        .map(|r| (r.default_cycles + r.best_cycles) as f64)
        .sum()
}

/// The tuner's walk (`via_bench::tune`), step by step, with a span around
/// each public call. Emission runs are split by differencing contexts on
/// the same inputs: emit-only unrecorded (`emit`), timed unrecorded, and
/// the recorded run the tuner itself makes.
fn traced_tune(cfg: &TuneConfig, inputs: &TuneInputs, memo: &SweepMemo, t: &Trace) -> TuneOutcome {
    let suite = t.span("formats.generate", || Suite::generate(&cfg.scale));
    let ctx = SimContext::with_via(cfg.via);
    let core = ctx.core.clone().with_custom_unit();
    let cfg_hash = via_sim::config_hash(&core, &ctx.mem);
    let acfg = via_sim::AnalyzeConfig::from_machine(&core, &ctx.mem)
        .with_cam_entries(ctx.via.cam_entries() as u64);
    let vcfg = VerifyConfig::from_core(&core);
    let analysis = AnalysisCache::default();
    let config_name = cfg.via.name();
    let rec = ctx.clone().with_recording();
    let emit = ctx.clone().with_emit_only();
    let emit_plain = SimContext {
        record: false,
        ..emit.clone()
    };

    let verify = |stream: &CompiledStream| {
        let prog: Program = stream.insts().iter().cloned().collect();
        t.span("verify.program", || verify_program(&prog, &vcfg));
    };
    let replay = |ctx: &SimContext, stream: &CompiledStream| {
        let mut e = ctx.via_engine();
        t.span("engine.replay", || e.replay(stream));
        let stats = e.finish();
        t.add("engine.replay_instructions", stats.instructions as f64);
        stats
    };
    // The tie-break score, plus a plain replay of the same stream so the
    // cost of stall accounting is its difference.
    let stall_score = |stream: &CompiledStream| {
        let (score, with) = t.timed("trace.accounting", || {
            let mut e = ctx
                .clone()
                .with_trace(TraceOptions::accounting())
                .via_engine();
            e.replay(stream);
            let report = e.stall_report().expect("accounting enabled");
            e.finish();
            report.attributed() - report.cause_total(StallCause::Active)
        });
        let (_, without) = t.timed("trace.accounting_baseline", || {
            let mut e = ctx.via_engine();
            e.replay(stream);
            e.finish()
        });
        t.add("trace.accounting_s", with - without);
        t.add("engine.replay_s", without);
        score
    };

    let indices: Vec<usize> = (0..suite.len()).collect();
    let per_matrix = parallel_map(&indices, cfg.scale.threads, |&mi| {
        let m = &suite.matrices[mi];
        let gin = t.span("formats.reference", || {
            GenInputs::from_matrix(&m.name, &m.csr, m.seed)
        });
        let mut rows = Vec::new();
        let mut tally = TuneOutcome::default();
        for (ki, &kernel) in cfg.kernels.iter().enumerate() {
            let expected = t.span("formats.reference", || gin.expected(kernel));
            assert!(
                output_matches(&expected, &inputs.expected[mi][ki]),
                "{}: reference differs from set-up",
                m.name
            );
            let space = KernelVariant::space(kernel);
            let default = space[0];
            let dkey = point_key(&default.name(), &config_name, &m.name, m.seed);
            let default_cycles = t.span("memo.probe", || {
                memo.cycles_for(
                    dkey,
                    cfg_hash,
                    || {
                        let (_, e) = t.timed("emit", || default.emit(&gin, &emit_plain));
                        let (timed, i) = t.timed("engine.interpret", || default.emit(&gin, &ctx));
                        let (run, r) = t.timed("compile.record", || default.emit(&gin, &rec));
                        t.add("engine.interpret_s", i - e);
                        t.add("compile.record_s", r - i);
                        t.add(
                            "engine.interpret_instructions",
                            timed.stats.instructions as f64,
                        );
                        assert!(output_matches(&run.output, &expected), "default diverged");
                        verify(run.compiled.as_ref().expect("recording context compiles"));
                        CompiledRun::from_run(run)
                    },
                    || ctx.via_engine(),
                )
            });

            let mut best = (default_cycles, default, dkey);
            let mut pruned: Vec<(KernelVariant, CompiledStream, u64)> = Vec::new();
            let mut pruned_count = 0u64;
            for &v in &space[1..] {
                tally.candidates += 1;
                let (_, e) = t.timed("emit", || v.emit(&gin, &emit_plain));
                let (run, r) = t.timed("compile.record", || v.emit(&gin, &emit));
                t.add("compile.record_s", r - e);
                assert!(output_matches(&run.output, &expected), "variant diverged");
                let stream = run.compiled.expect("emit-only context compiles");
                t.add("emit.instructions", stream.len() as f64);
                verify(&stream);
                let bound = t
                    .span("analyze", || analysis.get_or_analyze(&stream, &acfg))
                    .bound
                    .lower_cycles;
                if bound > best.0 {
                    tally.pruned += 1;
                    pruned_count += 1;
                    if cfg.audit {
                        pruned.push((v, stream, bound));
                    }
                    continue;
                }
                let key = point_key(&v.name(), &config_name, &m.name, m.seed);
                let cycles = t.span("memo.probe", || {
                    memo.cycles_for(
                        key,
                        cfg_hash,
                        || {
                            let stats = replay(&ctx, &stream);
                            CompiledRun {
                                stream: stream.clone(),
                                cycles: stats.cycles,
                                instructions: stats.instructions,
                            }
                        },
                        || ctx.via_engine(),
                    )
                });
                tally.replayed += 1;
                if bound > cycles {
                    tally.bound_violations += 1;
                }
                let wins = cycles < best.0 || {
                    cycles == best.0 && {
                        let incumbent = memo
                            .streams()
                            .get(best.2)
                            .expect("incumbent stream cached by cycles_for");
                        tally.stall_tiebreaks += 1;
                        stall_score(&stream) < stall_score(&incumbent)
                    }
                };
                if wins {
                    best = (cycles, v, key);
                }
            }
            for (_, stream, bound) in pruned {
                tally.audited += 1;
                let true_cycles = replay(&ctx, &stream).cycles;
                if bound > true_cycles {
                    tally.bound_violations += 1;
                }
                if true_cycles < best.0 {
                    tally.unsound_prunes += 1;
                }
            }
            rows.push(TunedRow {
                matrix: m.name.clone(),
                fingerprint: matrix_fingerprint(&m.name, m.seed),
                kernel: kernel.name().to_string(),
                config: config_name.clone(),
                variant: best.1.name(),
                variant_hash: best.1.content_hash(),
                default_cycles,
                best_cycles: best.0,
                candidates: space.len() as u64,
                pruned: pruned_count,
            });
        }
        (rows, tally)
    });

    let mut out = TuneOutcome::default();
    for (rows, tally) in per_matrix {
        out.rows.extend(rows);
        out.candidates += tally.candidates;
        out.replayed += tally.replayed;
        out.pruned += tally.pruned;
        out.stall_tiebreaks += tally.stall_tiebreaks;
        out.bound_violations += tally.bound_violations;
        out.unsound_prunes += tally.unsound_prunes;
        out.audited += tally.audited;
    }
    out
}
