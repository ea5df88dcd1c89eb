//! The `campaign` workload: `run_campaign` over the stratified synthetic
//! corpus with all six kernel pairs.
//!
//! The cold pass runs into an empty store. Each warm pass runs into a fresh
//! store that holds only the cold pass's `cycles.jsonl`, so every job is
//! answered from the persistent cycle memo. The traced pass re-drives each
//! job's steps (matrix generation, the baseline/VIA kernel pair under
//! recording, output check, row sealing) and the warm pass's memo probes
//! through public functions, and must reproduce the canonical store.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::Instant;

use via_bench::campaign::{canonical_sort, cycles_path, load_cycles, load_results, results_path};
use via_bench::campaign::{Job, JobSource};
use via_bench::{
    parallel_map, run_campaign, CampaignConfig, Corpus, CycleRow, KernelKind, Mode, ResultRow,
};
use via_core::ViaConfig;
use via_formats::gen::{self, StratifiedConfig};
use via_formats::{Csb, Csr, SellCSigma, Spc5};
use via_kernels::{spma, spmm, spmv, KernelRun, SimContext};

use crate::span::{split, Contexts, Trace};
use crate::{Pass, Rep, TracedRep, Workload};

/// Default corpus seed (the stratified corpus default).
pub const DEFAULT_SEED: u64 = 0x0C0_4B05;

/// Warm passes per repetition (each into its own fresh store).
const WARM_PASSES: usize = 5;

/// The campaign workload at one scale and seed.
pub struct CampaignWorkload {
    corpus: StratifiedConfig,
    threads: usize,
    dir: PathBuf,
}

/// What the set-up step builds: the job list (every job's matrix is
/// materialized once and dropped).
pub struct CampaignInputs {
    jobs: Vec<Job>,
}

impl CampaignWorkload {
    /// `tiny` selects the self-test scale.
    pub fn new(seed: Option<u64>, tiny: bool, threads: usize, dir: &Path) -> Self {
        let corpus = StratifiedConfig {
            count: if tiny { 5 } else { 100 },
            min_rows: if tiny { 48 } else { 112 },
            max_rows: if tiny { 48 } else { 112 },
            density_range: (0.012, 0.012),
            size_strata: 4,
            density_strata: 2,
            seed: seed.unwrap_or(DEFAULT_SEED),
        };
        CampaignWorkload {
            corpus,
            threads,
            dir: dir.to_path_buf(),
        }
    }

    fn config(&self, dir: &Path) -> CampaignConfig {
        let mut cfg = CampaignConfig::new(dir);
        cfg.kernels = KernelKind::ALL.to_vec();
        cfg.threads = self.threads;
        cfg
    }

    fn corpus(&self) -> Corpus {
        Corpus::Synthetic(self.corpus.clone())
    }

    /// A fresh, empty store directory.
    fn fresh(&self, label: &str) -> PathBuf {
        let dir = self.dir.join(label);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("work directory writable");
        dir
    }
}

/// The canonical store contents: sorted result rows plus the number of
/// quarantined jobs.
fn digest(dir: &Path, quarantined: usize) -> String {
    let mut rows = load_results(dir).expect("store readable");
    canonical_sort(&mut rows);
    let mut out: String = rows.iter().map(|r| r.to_jsonl() + "\n").collect();
    out.push_str(&format!("quarantined {quarantined}\n"));
    out
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

fn write_lines(path: &Path, lines: impl Iterator<Item = String>) {
    let body: String = lines.map(|l| l + "\n").collect();
    std::fs::write(path, body).expect("store writable");
}

impl Workload for CampaignWorkload {
    type Inputs = CampaignInputs;

    fn scale_json(&self) -> String {
        let c = &self.corpus;
        format!(
            "{{\"matrices\": {}, \"min_rows\": {}, \"max_rows\": {}, \"density\": [{}, {}], \
             \"size_strata\": {}, \"density_strata\": {}, \"seed\": {}, \"kernels\": {}, \
             \"warm_passes\": {WARM_PASSES}, \"threads\": {}}}",
            c.count,
            c.min_rows,
            c.max_rows,
            c.density_range.0,
            c.density_range.1,
            c.size_strata,
            c.density_strata,
            c.seed,
            KernelKind::ALL.len(),
            self.threads
        )
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn setup(&self) -> CampaignInputs {
        let jobs = self.corpus().jobs(&KernelKind::ALL);
        // Materialize every matrix once, as the workers will, so a corpus
        // that cannot be built fails here rather than inside a pass.
        for job in jobs.iter().step_by(KernelKind::ALL.len()) {
            if let JobSource::Synthetic(spec) = &job.source {
                std::hint::black_box(spec.build());
            }
        }
        std::fs::create_dir_all(&self.dir).expect("work directory writable");
        CampaignInputs { jobs }
    }

    fn points(&self, inputs: &CampaignInputs) -> u64 {
        inputs.jobs.len() as u64
    }

    fn rep(&self, inputs: &CampaignInputs) -> Rep {
        let corpus = self.corpus();
        let cold_dir = self.fresh("cold");
        let before = via_sim::telemetry::snapshot();
        let t = Instant::now();
        let cold = run_campaign(&self.config(&cold_dir), &corpus, Mode::Fresh)
            .expect("cold campaign runs");
        let cold_s = t.elapsed().as_secs_f64();
        let cold_delta = via_sim::telemetry::snapshot().since(&before);
        let jobs = inputs.jobs.len() as u64;
        let cold_pass = Pass {
            points: jobs,
            failed: (cold.quarantined as u64).max(jobs.saturating_sub(cold.completed as u64)),
            digest: digest(&cold_dir, cold.quarantined),
        };

        let (mut warm_s, mut warm) = (Vec::new(), Vec::new());
        for i in 0..WARM_PASSES {
            let dir = self.fresh(&format!("warm{i}"));
            std::fs::copy(cycles_path(&cold_dir), cycles_path(&dir)).expect("memo copyable");
            let t = Instant::now();
            let out =
                run_campaign(&self.config(&dir), &corpus, Mode::Fresh).expect("warm campaign runs");
            warm_s.push(t.elapsed().as_secs_f64());
            warm.push(Pass {
                points: jobs,
                failed: (out.quarantined as u64).max(jobs.saturating_sub(out.completed as u64)),
                digest: digest(&dir, out.quarantined),
            });
            let _ = std::fs::remove_dir_all(&dir);
        }

        let store_bytes = file_len(&results_path(&cold_dir)) + file_len(&cycles_path(&cold_dir));
        let layer = BTreeMap::from([
            ("campaign.jobs", jobs as f64),
            ("campaign.quarantined", cold.quarantined as f64),
            ("store.rows", 2.0 * cold.completed as f64),
            ("store.mb", store_bytes as f64 / (1024.0 * 1024.0)),
            ("model.sim_cycles", cold.simulated_cycles as f64),
            ("model.sim_instructions", cold_delta.instructions as f64),
        ]);
        let _ = std::fs::remove_dir_all(&cold_dir);
        Rep {
            cold_s,
            warm_s,
            cold: cold_pass,
            warm,
            layer,
        }
    }

    fn traced_rep(&self, inputs: &CampaignInputs, t: &Trace, untraced: &Rep) -> TracedRep {
        let via = ViaConfig::default();
        let timing_hash = {
            let ctx = SimContext::default();
            via_sim::config_hash(&ctx.core, &ctx.mem)
        };
        let config_name = via.name();
        let start = Instant::now();

        // Cold: every job simulated, rows sealed into a fresh store.
        let cold_dir = self.fresh("traced_cold");
        let cold: Vec<Option<(ResultRow, CycleRow)>> =
            parallel_map(&inputs.jobs, self.threads, |job| {
                traced_job(job, via, timing_hash, t)
            });
        let cold_quarantined = cold.iter().filter(|r| r.is_none()).count();
        t.span("store.write", || {
            write_lines(
                &results_path(&cold_dir),
                cold.iter().flatten().map(|(r, _)| r.to_jsonl()),
            );
            write_lines(
                &cycles_path(&cold_dir),
                cold.iter().flatten().map(|(_, c)| c.to_jsonl()),
            );
        });

        // Warm: load the memo, probe it per job, re-simulate only misses.
        let warm_dir = self.fresh("traced_warm");
        let memo = t.span("store.load", || {
            load_cycles(&cold_dir).expect("memo readable")
        });
        let probed: Vec<(usize, Option<ResultRow>)> = t.span("memo.probe", || {
            let map: HashMap<(u64, String, String), &CycleRow> =
                memo.iter().map(|r| (r.memo_key(), r)).collect();
            inputs
                .jobs
                .iter()
                .enumerate()
                .map(|(i, job)| {
                    let fp = match &job.source {
                        JobSource::Synthetic(spec) => spec.fingerprint(),
                        JobSource::File(_) => unreachable!("synthetic corpus"),
                    };
                    let key = (fp, job.kernel.name().to_string(), config_name.clone());
                    let hit = map
                        .get(&key)
                        .filter(|c| c.config_hash == timing_hash)
                        .map(|c| c.to_result_row());
                    (i, hit)
                })
                .collect()
        });
        let mut warm_rows = Vec::new();
        let mut warm_quarantined = 0;
        for (i, hit) in probed {
            match hit {
                Some(row) => warm_rows.push(row),
                None => match traced_job(&inputs.jobs[i], via, timing_hash, t) {
                    Some((row, _)) => warm_rows.push(row),
                    None => warm_quarantined += 1,
                },
            }
        }
        t.span("store.write", || {
            write_lines(
                &results_path(&warm_dir),
                warm_rows.iter().map(ResultRow::to_jsonl),
            )
        });
        let wall_s = start.elapsed().as_secs_f64();

        let jobs = inputs.jobs.len() as u64;
        let pass = |dir: &Path, q: usize| Pass {
            points: jobs,
            failed: q as u64,
            digest: digest(dir, q),
        };
        let cold_pass = pass(&cold_dir, cold_quarantined);
        let warm_pass = pass(&warm_dir, warm_quarantined);
        let _ = std::fs::remove_dir_all(&cold_dir);
        let _ = std::fs::remove_dir_all(&warm_dir);

        let st = t.self_times();
        let get = |k: &str| st.get(k).copied().unwrap_or(0.0);
        let interpret_s = t.sum("engine.interpret_s");
        // Per-job work the orchestration wraps: the recorded kernel pair,
        // matrix generation and the output check, spread over the workers.
        let job_work =
            t.sum("kernel.recorded_s") + get("formats.generate") + get("formats.reference");
        let layer = BTreeMap::from([
            ("emit.s", get("emit")),
            ("emit.instructions", t.sum("emit.instructions")),
            ("compile.record_s", t.sum("compile.record_s")),
            ("verify.program_s", get("verify.program")),
            ("engine.interpret_s", interpret_s),
            (
                "engine.interpret_mips",
                t.sum("engine.interpret_instructions") / interpret_s.max(1e-9) / 1e6,
            ),
            ("memo.probe_s", get("memo.probe")),
            ("store.load_s", get("store.load")),
            ("store.write_s", get("store.write")),
            (
                "campaign.overhead_s",
                untraced.cold_s - job_work / self.threads as f64,
            ),
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

fn csr_approx_eq(a: &Csr, b: &Csr, tol: f64) -> bool {
    a.rows() == b.rows()
        && a.cols() == b.cols()
        && a.nnz() == b.nnz()
        && a.iter()
            .zip(b.iter())
            .all(|((ra, ca, va), (rb, cb, vb))| ra == rb && ca == cb && (va - vb).abs() <= tol)
}

/// `(cycles, instructions, stream hash)` of a recorded run.
fn meta<T>(run: &KernelRun<T>) -> (u64, u64, u64) {
    (
        run.stats.cycles,
        run.stats.instructions,
        run.compiled.as_ref().map_or(0, |s| s.stream_hash()),
    )
}

/// One campaign job, step by step. `None` where the campaign would
/// quarantine the job (empty matrix or baseline/VIA mismatch).
fn traced_job(
    job: &Job,
    via: ViaConfig,
    timing_hash: u64,
    t: &Trace,
) -> Option<(ResultRow, CycleRow)> {
    const TOL: f64 = 1e-6;
    let spec = match &job.source {
        JobSource::Synthetic(spec) => spec,
        JobSource::File(_) => unreachable!("synthetic corpus"),
    };
    let m = t.span("formats.generate", || spec.build());
    let (name, csr, seed) = (m.name, m.csr, spec.seed);
    if csr.rows() == 0 || csr.cols() == 0 || csr.nnz() == 0 {
        return None;
    }
    let fingerprint = spec.fingerprint();
    let c = Contexts::new(via);
    let config = c.rec.via.name();
    let kernel = job.kernel;
    let (key, base, via_run) = match kernel {
        KernelKind::SpmvCsr | KernelKind::SpmvSpc5 | KernelKind::SpmvSell | KernelKind::SpmvCsb => {
            let (x, csb) = t.span("formats.generate", || {
                let csb = Csb::from_csr(&csr, c.rec.via.csb_block_size()).expect("CSB converts");
                (gen::dense_vector(csr.cols(), seed), csb)
            });
            let key = csb.mean_block_density();
            let (base, via_run) = match kernel {
                KernelKind::SpmvCsr => (
                    split(t, &c, |ctx| spmv::csr_vec(&csr, &x, ctx)),
                    split(t, &c, |ctx| spmv::via_csr(&csr, &x, ctx)),
                ),
                KernelKind::SpmvSpc5 => {
                    let m = t.span("formats.generate", || {
                        Spc5::from_csr(&csr, c.rec.vl()).expect("SPC5 converts")
                    });
                    (
                        split(t, &c, |ctx| spmv::spc5(&m, &x, ctx)),
                        split(t, &c, |ctx| spmv::via_spc5(&m, &x, ctx)),
                    )
                }
                KernelKind::SpmvSell => {
                    let m = t.span("formats.generate", || {
                        let vl = c.rec.vl();
                        let sigma = (vl * 8).min(csr.rows().max(vl));
                        SellCSigma::from_csr(&csr, vl, sigma)
                            .or_else(|_| SellCSigma::from_csr(&csr, vl, vl))
                            .expect("Sell-C-sigma converts")
                    });
                    (
                        split(t, &c, |ctx| spmv::sell(&m, &x, ctx)),
                        split(t, &c, |ctx| spmv::via_sell(&m, &x, ctx)),
                    )
                }
                _ => (
                    split(t, &c, |ctx| spmv::csb_software(&csb, &x, ctx)),
                    split(t, &c, |ctx| spmv::via_csb(&csb, &x, ctx)),
                ),
            };
            let ok = t.span("formats.reference", || {
                via_formats::vec_approx_eq(&base.output, &via_run.output, TOL)
            });
            if !ok {
                return None;
            }
            (key, meta(&base), meta(&via_run))
        }
        KernelKind::Spma => {
            let b = t.span("formats.generate", || {
                gen::perturb_structure(&csr, 0.6, 0.5, seed ^ 1)
            });
            let base = split(t, &c, |ctx| spma::merge_csr(&csr, &b, ctx));
            let via_run = split(t, &c, |ctx| spma::via_cam(&csr, &b, ctx));
            if !t.span("formats.reference", || {
                csr_approx_eq(&base.output, &via_run.output, TOL)
            }) {
                return None;
            }
            (csr.nnz() as f64, meta(&base), meta(&via_run))
        }
        KernelKind::Spmm => {
            let b = t.span("formats.generate", || {
                gen::uniform(csr.cols(), csr.cols(), csr.density(), seed ^ 2).to_csc()
            });
            let base = split(t, &c, |ctx| spmm::inner_product(&csr, &b, ctx));
            let via_run = split(t, &c, |ctx| spmm::via_cam(&csr, &b, ctx));
            if !t.span("formats.reference", || {
                csr_approx_eq(&base.output, &via_run.output, TOL)
            }) {
                return None;
            }
            (
                csr.nnz() as f64 / csr.rows().max(1) as f64,
                meta(&base),
                meta(&via_run),
            )
        }
        other => unreachable!("kernel {other} is not in the campaign's set"),
    };
    let (base_cycles, base_instructions, base_stream) = base;
    let (via_cycles, via_instructions, via_stream) = via_run;
    let result = ResultRow {
        matrix: name,
        fingerprint,
        kernel: kernel.name().to_string(),
        config: config.clone(),
        rows: csr.rows(),
        cols: csr.cols(),
        nnz: csr.nnz(),
        key,
        base_cycles,
        via_cycles,
        ssr_cycles: None,
    };
    let memo = CycleRow {
        matrix: result.matrix.clone(),
        fingerprint,
        kernel: result.kernel.clone(),
        config,
        config_hash: timing_hash,
        base_stream,
        via_stream,
        rows: result.rows,
        cols: result.cols,
        nnz: result.nnz,
        key,
        base_cycles,
        via_cycles,
        base_instructions,
        via_instructions,
        ssr_cycles: None,
        ssr_instructions: None,
    };
    Some((result, memo))
}
