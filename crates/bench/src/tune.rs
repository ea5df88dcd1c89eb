//! Per-matrix auto-tuner over the `via-gen` kernel-variant spaces.
//!
//! For every `(matrix, kernel)` pair the tuner walks
//! [`KernelVariant::space`] and picks the variant with the fewest cycles:
//!
//! 1. the **default** variant (bit-identical to the hand-written kernel)
//!    is simulated first and becomes the incumbent;
//! 2. every other variant is compiled **emit-only**
//!    ([`SimContext::with_emit_only`]) — the stream is recorded but no
//!    timing is simulated — and only its static cycle **lower bound**
//!    ([`via_sim::analyze::static_bound`]) is computed; a
//!    candidate whose bound already exceeds the incumbent's measured
//!    cycles is pruned without ever touching the simulator (sound: the
//!    bound never exceeds the true cycle count, which `--audit` re-proves
//!    by replaying every pruned stream);
//! 3. survivors are replayed through the shared [`SweepMemo`], so a
//!    re-tune over the same corpus costs cache probes, not simulations;
//! 4. cycle ties break on the stall breakdown (fewer attributed
//!    non-active stall cycles wins; remaining ties keep the
//!    earlier-enumerated variant).
//!
//! The memo answers every point from keys (point key → stream hash →
//! cycles, and `(stream hash, config hash)` → stall score) and retains no
//! stream. A walk over one `(matrix, kernel)` variant space holds only
//! the incumbent's stream, for tie-breaks, and the pruned streams, for the
//! audit, and drops them when it ends.
//!
//! Winners are sealed into `tuned.jsonl` — same hash-chained row format
//! as the campaign store, rewritten atomically in canonical order, so two
//! tuner runs over the same corpus (any thread count) produce
//! byte-identical files.

use std::path::{Path, PathBuf};

use via_gen::{GenInputs, GenOutput, Kernel, KernelVariant};
use via_kernels::{SimContext, TraceOptions};
use via_sim::analyze::static_bound;
use via_sim::trace::json_string;
use via_sim::{fnv1a64, CompiledStream, StallCause};

use crate::campaign::store::{
    hex_field, load_rows, num_field, rewrite_jsonl, seal_row, str_field, unseal,
};
use crate::experiments::{point_key, SweepMemo};
use crate::suite::{parallel_map, ExperimentScale, Suite};

/// Everything one tuning run needs.
#[derive(Debug, Clone)]
pub struct TuneConfig {
    /// VIA hardware configuration the variants are tuned for.
    pub via: via_core::ViaConfig,
    /// Corpus scale (matrix count, size range, seed, threads).
    pub scale: ExperimentScale,
    /// Kernels to tune (variant spaces come from `via-gen`).
    pub kernels: Vec<Kernel>,
    /// Re-simulate every pruned variant and prove no prune was unsound
    /// (the `fig9_dse` bound-audit discipline, applied online).
    pub audit: bool,
}

impl TuneConfig {
    /// The quick-tune smoke configuration: the 8-matrix
    /// [`ExperimentScale::quick`] corpus, every kernel, audit on.
    pub fn quick() -> Self {
        TuneConfig {
            via: via_core::ViaConfig::default(),
            scale: ExperimentScale::quick(),
            kernels: Kernel::ALL.to_vec(),
            audit: true,
        }
    }
}

/// One `(matrix, kernel)` winner in `tuned.jsonl`.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedRow {
    /// Corpus matrix name.
    pub matrix: String,
    /// Corpus identity: `fnv1a64("name|seed")` (generator matrices carry
    /// no content fingerprint; name+seed *is* their identity).
    pub fingerprint: u64,
    /// Kernel name ([`Kernel::name`]).
    pub kernel: String,
    /// VIA configuration name the winner was tuned for.
    pub config: String,
    /// Winning variant name ([`KernelVariant::name`]).
    pub variant: String,
    /// Winning variant content hash ([`KernelVariant::content_hash`]).
    pub variant_hash: u64,
    /// Cycles of the default variant (the hand-written kernel).
    pub default_cycles: u64,
    /// Cycles of the winner (`<= default_cycles` always).
    pub best_cycles: u64,
    /// Variants in the space (default included).
    pub candidates: u64,
    /// Variants pruned by the static bound (never simulated).
    pub pruned: u64,
}

impl TunedRow {
    /// Default-over-winner cycle ratio (`>= 1.0`).
    pub fn speedup(&self) -> f64 {
        self.default_cycles as f64 / self.best_cycles as f64
    }

    /// True when tuning found a variant beating the hand-written default.
    pub fn non_default_winner(&self) -> bool {
        KernelVariant::parse(&self.variant).is_some_and(|v| !v.is_default())
    }

    /// Serializes to one sealed JSONL line.
    pub fn to_jsonl(&self) -> String {
        let body = format!(
            "{{\"schema\":1,\"matrix\":{},\"fingerprint\":\"{:016x}\",\"kernel\":{},\
             \"config\":{},\"variant\":{},\"variant_hash\":\"{:016x}\",\
             \"default_cycles\":{},\"best_cycles\":{},\"candidates\":{},\"pruned\":{}",
            json_string(&self.matrix),
            self.fingerprint,
            json_string(&self.kernel),
            json_string(&self.config),
            json_string(&self.variant),
            self.variant_hash,
            self.default_cycles,
            self.best_cycles,
            self.candidates,
            self.pruned,
        );
        seal_row(body)
    }

    /// Parses one JSONL line, validating the integrity hash. `None` for
    /// torn or foreign lines.
    pub fn from_jsonl(line: &str) -> Option<TunedRow> {
        let fields = unseal(line)?;
        Some(TunedRow {
            matrix: str_field(&fields, "matrix")?,
            fingerprint: hex_field(&fields, "fingerprint")?,
            kernel: str_field(&fields, "kernel")?,
            config: str_field(&fields, "config")?,
            variant: str_field(&fields, "variant")?,
            variant_hash: hex_field(&fields, "variant_hash")?,
            default_cycles: num_field(&fields, "default_cycles")?,
            best_cycles: num_field(&fields, "best_cycles")?,
            candidates: num_field(&fields, "candidates")?,
            pruned: num_field(&fields, "pruned")?,
        })
    }
}

/// `<dir>/tuned.jsonl`.
pub fn tuned_path(dir: &Path) -> PathBuf {
    dir.join("tuned.jsonl")
}

/// Atomically (re)writes the sealed winner store in canonical order.
pub fn write_tuned(dir: &Path, rows: &[TunedRow]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    rewrite_jsonl(&tuned_path(dir), rows.iter().map(TunedRow::to_jsonl))
}

/// Loads the winner store (empty if absent; torn lines dropped).
pub fn load_tuned(dir: &Path) -> std::io::Result<Vec<TunedRow>> {
    load_rows(&tuned_path(dir), TunedRow::from_jsonl)
}

/// The outcome of one [`tune`] run.
#[derive(Debug, Clone, Default)]
pub struct TuneOutcome {
    /// One winner per `(matrix, kernel)`, in canonical corpus order.
    pub rows: Vec<TunedRow>,
    /// Non-default variants considered across all rows.
    pub candidates: u64,
    /// Candidates resolved by timed simulation or the sweep memo.
    pub replayed: u64,
    /// Candidates pruned by the static bound (never simulated).
    pub pruned: u64,
    /// Cycle ties resolved by the stall breakdown.
    pub stall_tiebreaks: u64,
    /// Static bounds that exceeded their own measured cycles (must be 0;
    /// checked on every simulated candidate, and on pruned ones under
    /// audit).
    pub bound_violations: u64,
    /// Pruned variants that would have beaten the winner (must be 0;
    /// audit mode only).
    pub unsound_prunes: u64,
    /// Pruned variants re-simulated by the audit.
    pub audited: u64,
}

impl TuneOutcome {
    /// Rows whose winner is not the hand-written default.
    pub fn non_default_winners(&self) -> usize {
        self.rows.iter().filter(|r| r.non_default_winner()).count()
    }

    /// Fraction of non-default candidates the static bound pruned.
    pub fn prune_rate(&self) -> f64 {
        if self.candidates == 0 {
            return 0.0;
        }
        self.pruned as f64 / self.candidates as f64
    }

    /// Geometric-mean default-over-winner speedup per kernel, in kernel
    /// name order of first appearance.
    pub fn kernel_speedups(&self) -> Vec<(String, f64)> {
        let mut order: Vec<String> = Vec::new();
        for r in &self.rows {
            if !order.contains(&r.kernel) {
                order.push(r.kernel.clone());
            }
        }
        order
            .into_iter()
            .map(|k| {
                let s = geomean(
                    self.rows
                        .iter()
                        .filter(|r| r.kernel == k)
                        .map(TunedRow::speedup),
                );
                (k, s)
            })
            .collect()
    }

    /// Geometric-mean speedup across every tuned row.
    pub fn geomean_speedup(&self) -> f64 {
        geomean(self.rows.iter().map(TunedRow::speedup))
    }

    /// Human-readable summary table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(
            "matrix            kernel  winner                default     tuned  speedup\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{:<16}  {:<6}  {:<20}  {:>7}  {:>8}  {:>6.2}x\n",
                r.matrix,
                r.kernel,
                r.variant,
                r.default_cycles,
                r.best_cycles,
                r.speedup()
            ));
        }
        out.push_str(&format!(
            "\n{} rows | {} candidates, {} pruned by the static bound ({:.0}%), {} replayed, \
             {} stall tie-breaks\n",
            self.rows.len(),
            self.candidates,
            self.pruned,
            100.0 * self.prune_rate(),
            self.replayed,
            self.stall_tiebreaks,
        ));
        for (k, s) in self.kernel_speedups() {
            out.push_str(&format!("  {k}: {s:.2}x geomean tuned speedup\n"));
        }
        out.push_str(&format!(
            "  overall: {:.2}x geomean | {} non-default winners | {} bound violations | \
             {} unsound prunes ({} audited)\n",
            self.geomean_speedup(),
            self.non_default_winners(),
            self.bound_violations,
            self.unsound_prunes,
            self.audited,
        ));
        out
    }

    /// True when every soundness check passed (no static bound overshot a
    /// measured cycle count, no pruned variant could have won).
    pub fn is_sound(&self) -> bool {
        self.bound_violations == 0 && self.unsound_prunes == 0
    }
}

fn geomean(it: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0f64, 0u32);
    for x in it {
        sum += x.ln();
        n += 1;
    }
    if n == 0 {
        1.0
    } else {
        (sum / n as f64).exp()
    }
}

/// Corpus identity of a generated matrix (name+seed; generator matrices
/// carry no content fingerprint).
pub fn matrix_fingerprint(name: &str, seed: u64) -> u64 {
    fnv1a64(format!("{name}|{seed}").bytes())
}

fn output_matches(got: &GenOutput, want: &GenOutput) -> bool {
    // Every VIA variant reassociates accumulations (chunked reductions,
    // CSB blocks, CAM merge order), so compare against the sequential
    // reference with a tolerance, like the kernels' own test suites.
    match (got, want) {
        (GenOutput::Vector(g), GenOutput::Vector(w)) => via_formats::vec_approx_eq(g, w, 1e-9),
        (GenOutput::Matrix(g), GenOutput::Matrix(w)) => via_formats::DenseMatrix::from_csr(g)
            .approx_eq(&via_formats::DenseMatrix::from_csr(w), 1e-9),
        _ => false,
    }
}

/// Attributed stall cycles that are *not* active work — the tie-break
/// score (fewer wins).
fn stall_score(ctx: &SimContext, stream: &CompiledStream) -> u64 {
    let mut e = ctx
        .clone()
        .with_trace(TraceOptions::accounting())
        .via_engine();
    e.replay(stream);
    let report = e.stall_report().expect("accounting enabled");
    e.finish();
    report.attributed() - report.cause_total(StallCause::Active)
}

/// The best variant of a walk so far. Its stream is held only when the
/// walk compiled it: a default the memo answered by key comes without one.
struct Incumbent {
    variant: KernelVariant,
    cycles: u64,
    stream_hash: u64,
    stream: Option<CompiledStream>,
}

/// The incumbent's stall score through `memo`: scored from its stream if
/// the walk holds it, else from an emit-only re-emission of its variant.
fn incumbent_score(
    memo: &SweepMemo,
    cfg_hash: u64,
    ctx: &SimContext,
    inputs: &GenInputs,
    best: &Incumbent,
) -> u64 {
    memo.stall_score(best.stream_hash, cfg_hash, || match &best.stream {
        Some(stream) => stall_score(ctx, stream),
        None => {
            let run = best.variant.emit(inputs, &ctx.clone().with_emit_only());
            let stream = run.compiled.expect("emit-only context compiles");
            assert_eq!(
                stream.stream_hash(),
                best.stream_hash,
                "{}: re-emitted stream differs from the memoized one",
                best.variant.name()
            );
            stall_score(ctx, &stream)
        }
    })
}

/// Tunes every `(matrix, kernel)` pair of the configured corpus through
/// `memo`. Deterministic in `(cfg, corpus)` for any thread count: matrices
/// tune in parallel but each is a sequential walk of its variant space,
/// and `parallel_map` preserves corpus order.
pub fn tune(cfg: &TuneConfig, memo: &SweepMemo) -> TuneOutcome {
    let suite = Suite::generate(&cfg.scale);
    let ctx = SimContext::with_via(cfg.via);
    let core = ctx.core.clone().with_custom_unit();
    let cfg_hash = via_sim::config_hash(&core, &ctx.mem);
    let acfg = via_sim::AnalyzeConfig::from_machine(&core, &ctx.mem)
        .with_cam_entries(ctx.via.cam_entries() as u64);
    let config_name = cfg.via.name();

    let per_matrix = parallel_map(&suite.matrices, cfg.scale.threads, |m| {
        let inputs = GenInputs::from_matrix(&m.name, &m.csr, m.seed);
        let rec = ctx.clone().with_recording();
        let emit = ctx.clone().with_emit_only();
        let mut rows = Vec::new();
        let mut tally = TuneOutcome::default();

        for &kernel in &cfg.kernels {
            let expected = inputs.expected(kernel);
            let space = KernelVariant::space(kernel);
            let default = space[0];
            assert!(default.is_default(), "space enumerates the default first");

            let dkey = point_key(&default.name(), &config_name, &m.name, m.seed);
            let mut default_stream = None;
            let (default_hash, default_cycles) = memo.resolve_point(dkey, None, cfg_hash, || {
                let run = default.emit(&inputs, &rec);
                assert!(
                    output_matches(&run.output, &expected),
                    "{}/{}: default variant diverged from the reference model",
                    m.name,
                    default.name()
                );
                let stream = run.compiled.expect("recording context compiles");
                let hash = stream.stream_hash();
                default_stream = Some(stream);
                (hash, run.stats)
            });

            let mut best = Incumbent {
                variant: default,
                cycles: default_cycles,
                stream_hash: default_hash,
                stream: default_stream,
            };
            let mut pruned: Vec<(KernelVariant, CompiledStream, u64)> = Vec::new();
            let mut pruned_count = 0u64;

            for &v in &space[1..] {
                tally.candidates += 1;
                // Emit-only compile: the stream is recorded (bit-identical
                // to a timed run's) but no timing model runs; the
                // functional output still computes, so every
                // candidate is checked against the reference before it is
                // allowed to rank.
                let run = v.emit(&inputs, &emit);
                assert!(
                    output_matches(&run.output, &expected),
                    "{}/{}: variant diverged from the reference model",
                    m.name,
                    v.name()
                );
                let stream = run.compiled.expect("emit-only context compiles");
                let bound = static_bound(stream.insts(), &acfg).lower_cycles;
                if bound > best.cycles {
                    // Provably loses: its true cycle count is >= the
                    // bound, which already exceeds the incumbent.
                    tally.pruned += 1;
                    pruned_count += 1;
                    if cfg.audit {
                        pruned.push((v, stream, bound));
                    }
                    continue;
                }
                let key = point_key(&v.name(), &config_name, &m.name, m.seed);
                let hash = stream.stream_hash();
                let (_, cycles) = memo.resolve_point(key, Some(hash), cfg_hash, || {
                    let mut e = ctx.via_engine();
                    e.replay(&stream);
                    (hash, e.finish())
                });
                tally.replayed += 1;
                if bound > cycles {
                    tally.bound_violations += 1;
                }
                let wins = cycles < best.cycles || {
                    cycles == best.cycles && {
                        tally.stall_tiebreaks += 1;
                        memo.stall_score(hash, cfg_hash, || stall_score(&ctx, &stream))
                            < incumbent_score(memo, cfg_hash, &ctx, &inputs, &best)
                    }
                };
                if wins {
                    best = Incumbent {
                        variant: v,
                        cycles,
                        stream_hash: hash,
                        stream: Some(stream),
                    };
                }
            }

            // Audit: re-simulate every pruned stream and prove (a) the
            // bound held and (b) the prune could not have changed the
            // winner — the same soundness argument `fig9_dse`'s bound
            // audit makes for the DSE sweep.
            for (v, stream, bound) in pruned {
                tally.audited += 1;
                let mut e = ctx.via_engine();
                e.replay(&stream);
                let true_cycles = e.finish().cycles;
                if bound > true_cycles {
                    tally.bound_violations += 1;
                }
                if true_cycles < best.cycles {
                    tally.unsound_prunes += 1;
                    eprintln!(
                        "UNSOUND PRUNE {}/{}: true {} cycles beats winner {}",
                        m.name,
                        v.name(),
                        true_cycles,
                        best.cycles
                    );
                }
            }

            rows.push(TunedRow {
                matrix: m.name.clone(),
                fingerprint: matrix_fingerprint(&m.name, m.seed),
                kernel: kernel.name().to_string(),
                config: config_name.clone(),
                variant: best.variant.name(),
                variant_hash: best.variant.content_hash(),
                default_cycles,
                best_cycles: best.cycles,
                candidates: space.len() as u64,
                pruned: pruned_count,
            });
        }
        (rows, tally)
    });

    let mut outcome = TuneOutcome::default();
    for (rows, tally) in per_matrix {
        outcome.rows.extend(rows);
        outcome.candidates += tally.candidates;
        outcome.replayed += tally.replayed;
        outcome.pruned += tally.pruned;
        outcome.stall_tiebreaks += tally.stall_tiebreaks;
        outcome.bound_violations += tally.bound_violations;
        outcome.unsound_prunes += tally.unsound_prunes;
        outcome.audited += tally.audited;
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config(threads: usize) -> TuneConfig {
        let mut cfg = TuneConfig::quick();
        cfg.scale.matrices = 3;
        cfg.scale.min_rows = 48;
        cfg.scale.max_rows = 96;
        cfg.scale.threads = threads;
        cfg
    }

    #[test]
    fn tuned_rows_roundtrip_and_reject_tampering() {
        let row = TunedRow {
            matrix: "banded_0".into(),
            fingerprint: 0xDEAD,
            kernel: "sptrsv".into(),
            config: "16_2p".into(),
            variant: "sptrsv/levels/fg8".into(),
            variant_hash: 0xBEEF,
            default_cycles: 1000,
            best_cycles: 400,
            candidates: 6,
            pruned: 2,
        };
        let line = row.to_jsonl();
        assert_eq!(TunedRow::from_jsonl(&line), Some(row.clone()));
        assert!((row.speedup() - 2.5).abs() < 1e-12);
        assert!(row.non_default_winner());
        let tampered = line.replace("\"best_cycles\":400", "\"best_cycles\":1");
        assert_eq!(TunedRow::from_jsonl(&tampered), None);
    }

    #[test]
    fn tuning_is_sound_and_finds_non_default_winners() {
        let cfg = tiny_config(2);
        let memo = SweepMemo::new();
        let outcome = tune(&cfg, &memo);
        assert_eq!(outcome.rows.len(), cfg.scale.matrices * cfg.kernels.len());
        assert!(outcome.is_sound(), "{}", outcome.render());
        // Level-scheduled SpTRSV/SymGS beat the row-serial defaults on
        // every corpus matrix — the tuner must find at least those.
        assert!(
            outcome.non_default_winners() >= cfg.scale.matrices,
            "{}",
            outcome.render()
        );
        for r in &outcome.rows {
            assert!(r.best_cycles <= r.default_cycles, "{}", outcome.render());
        }
        assert_eq!(outcome.audited, outcome.pruned, "audit covers every prune");
    }

    #[test]
    fn tuning_is_deterministic_across_thread_counts_and_memo_reuse() {
        let dir_a = std::env::temp_dir().join(format!("via_tune_a_{}", std::process::id()));
        let dir_b = std::env::temp_dir().join(format!("via_tune_b_{}", std::process::id()));
        let memo = SweepMemo::new();
        let first = tune(&tiny_config(1), &memo);
        write_tuned(&dir_a, &first.rows).unwrap();
        // Second run shares the memo: every point resolves from cache,
        // yet the winners (and the sealed store) are byte-identical.
        let again = tune(&tiny_config(4), &memo);
        write_tuned(&dir_b, &again.rows).unwrap();
        let a = std::fs::read(tuned_path(&dir_a)).unwrap();
        let b = std::fs::read(tuned_path(&dir_b)).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b, "tuned.jsonl must not depend on threads or memo state");
        assert_eq!(load_tuned(&dir_a).unwrap(), first.rows);
        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }

    #[test]
    fn tuning_retains_no_streams_and_a_warm_retune_simulates_nothing() {
        let cfg = tiny_config(2);
        let memo = SweepMemo::new();
        let cold = tune(&cfg, &memo);
        assert!(memo.streams().is_empty(), "the tuner retains no streams");
        assert!(cold.stall_tiebreaks > 0, "the corpus must exercise ties");
        let resolved = cold.rows.len() as u64 + cold.replayed;
        assert_eq!(memo.compiles() + memo.cycle_hits(), resolved);
        assert_eq!(memo.replays(), 0);
        let (compiles, hits, scores) = (memo.compiles(), memo.cycle_hits(), memo.stall_scores());
        assert!(scores > 0);

        let warm = tune(&cfg, &memo);
        assert_eq!(warm.rows, cold.rows);
        assert_eq!(
            (warm.replayed, warm.stall_tiebreaks, warm.audited),
            (cold.replayed, cold.stall_tiebreaks, cold.audited)
        );
        assert_eq!(memo.compiles(), compiles, "a warm re-tune compiles nothing");
        assert_eq!(memo.replays(), 0, "a warm re-tune replays nothing");
        assert_eq!(
            memo.stall_scores(),
            scores,
            "every tie reads the score memo"
        );
        assert_eq!(memo.cycle_hits(), hits + resolved, "every point is a hit");
        assert!(memo.streams().is_empty());
    }

    #[test]
    fn a_missing_incumbent_score_is_scored_from_a_re_emission() {
        let cfg = tiny_config(1);
        let m = &Suite::generate(&cfg.scale).matrices[0];
        let inputs = GenInputs::from_matrix(&m.name, &m.csr, m.seed);
        let ctx = SimContext::with_via(cfg.via);
        let cfg_hash = via_sim::config_hash(&ctx.core.clone().with_custom_unit(), &ctx.mem);
        let default = KernelVariant::space(Kernel::Sptrsv)[0];
        let run = default.emit(&inputs, &ctx.clone().with_recording());
        let stream = run.compiled.expect("recording context compiles");
        let held = Incumbent {
            variant: default,
            cycles: run.stats.cycles,
            stream_hash: stream.stream_hash(),
            stream: Some(stream),
        };
        let want = incumbent_score(&SweepMemo::new(), cfg_hash, &ctx, &inputs, &held);

        // A default the memo answered by key comes without its stream.
        let by_key = Incumbent {
            stream: None,
            ..held
        };
        let memo = SweepMemo::new();
        assert_eq!(
            incumbent_score(&memo, cfg_hash, &ctx, &inputs, &by_key),
            want
        );
        assert_eq!(memo.stall_scores(), 1);
        assert_eq!(
            incumbent_score(&memo, cfg_hash, &ctx, &inputs, &by_key),
            want
        );
        assert_eq!(memo.stall_scores(), 1, "the re-emitted score is memoized");
    }
}
