//! The `scorecard` workload: the `scorecard --backends` pass.
//!
//! One pass runs Fig. 10 SpMV formats, Fig. 11 SpMA/SpMM, Fig. 12
//! histogram/stencil, Table II, the stall sweep, the static-bound
//! tightness table and the multi-core socket sweep, then scores the paper
//! claims. Nothing is memoized, so the warm pass repeats the cold one. The
//! traced pass times the figure functions as whole spans and re-drives the
//! stall sweep, the tightness table and the socket sweep through their
//! public kernel functions, which must reproduce the untraced outputs.

use std::collections::BTreeMap;
use std::time::Instant;

use via_bench::paper::{claim, verdict, Verdict};
use via_bench::{
    fig10_spmv, fig11_spma, fig11_spmm, fig12a_histogram, fig12b_stencil, kernel_bound_tightness,
    multicore_sweep, parallel_map, stall_sweep, BakeoffRow, ExperimentScale, MulticoreOutcome,
    ScalingPoint, StallRow, Suite, TightnessRow, CORE_COUNTS,
};
use via_core::{BackendKind, ViaConfig};
use via_energy::AreaModel;
use via_formats::stats::geomean;
use via_formats::{gen, reference, vec_approx_eq, Csb};
use via_kernels::spmspv::{self, SparseVector};
use via_kernels::{
    histogram, spma, spmm, spmv, stencil, KernelRun, Partition, SimContext, Socket, TraceOptions,
};
use via_sim::StallReport;

use crate::span::{split, Contexts, Trace};
use crate::{Pass, Rep, TracedRep, Workload};

/// Default suite seed (the scorecard's `ExperimentScale` default).
pub const DEFAULT_SEED: u64 = 0x1A5;
/// Default histogram/stencil seed, `DEFAULT_SEED ^ FIG12_SEED_MASK`.
const FIG12_SEED_MASK: u64 = 0x1A5 ^ 0x5c0;

/// Worker threads of the scorecard pass. The pass holds only ~30 MB, and
/// with two workers the allocator's per-thread arenas moved its peak
/// resident set between two levels ~25% apart from run to run; with one
/// worker it repeats within ~1%.
const WORKERS: usize = 1;

/// The scorecard workload at one scale and seed.
pub struct ScorecardWorkload {
    scale: ExperimentScale,
    socket_scale: ExperimentScale,
    fig12_seed: u64,
    hist_keys: usize,
    stencil_side: usize,
}

/// Everything one pass produces.
#[derive(Debug, PartialEq)]
struct Outcome {
    measured: Vec<(&'static str, f64)>,
    verdicts: Vec<Verdict>,
    stall: Vec<StallRow>,
    tightness: Vec<TightnessRow>,
    socket: MulticoreOutcome,
    cycles: u64,
}

impl Outcome {
    fn pass(&self) -> Pass {
        let points =
            (self.measured.len() + self.tightness.len() + self.socket.scaling.len()) as u64;
        let failed = self
            .tightness
            .iter()
            .filter(|r| r.bound_cycles > r.simulated_cycles)
            .count() as u64;
        Pass {
            points,
            failed,
            digest: format!("{self:?}"),
        }
    }

    fn reproduced(&self) -> usize {
        self.verdicts
            .iter()
            .filter(|v| **v == Verdict::Reproduced)
            .count()
    }
}

impl ScorecardWorkload {
    /// `tiny` selects the self-test scale.
    pub fn new(seed: Option<u64>, tiny: bool) -> Self {
        let seed = seed.unwrap_or(DEFAULT_SEED);
        let scale = ExperimentScale {
            matrices: if tiny { 2 } else { 15 },
            min_rows: if tiny { 64 } else { 160 },
            max_rows: if tiny { 64 } else { 160 },
            density_range: (0.012, 0.012),
            seed,
            threads: WORKERS,
        };
        let socket_scale = ExperimentScale {
            matrices: if tiny { 2 } else { 10 },
            ..scale.clone()
        };
        ScorecardWorkload {
            scale,
            socket_scale,
            fig12_seed: seed ^ FIG12_SEED_MASK,
            hist_keys: if tiny { 2_000 } else { 12_000 },
            stencil_side: if tiny { 32 } else { 128 },
        }
    }

    /// The stall sweep's sub-suite (the scorecard caps it at 12 matrices).
    fn stall_scale(&self) -> ExperimentScale {
        ExperimentScale {
            matrices: self.scale.matrices.min(12),
            ..self.scale.clone()
        }
    }

    /// One scorecard pass. With a trace, the figure functions run inside
    /// spans and the stall sweep, tightness table and socket sweep are
    /// re-driven step by step.
    fn run(&self, t: Option<&Trace>) -> Outcome {
        let span = |name: &'static str, f: &mut dyn FnMut()| match t {
            Some(t) => t.span(name, f),
            None => f(),
        };
        let mut spmv_out = None;
        let (mut spma_mean, mut spmm_mean) = (0.0, 0.0);
        let (mut hist, mut sten) = (Vec::new(), Vec::new());
        span("figures", &mut || {
            spmv_out = Some(fig10_spmv(&self.scale));
            spma_mean = fig11_spma(&self.scale).1;
            spmm_mean = fig11_spmm(&self.scale).1;
            hist = fig12a_histogram(self.hist_keys, self.fig12_seed);
            sten = fig12b_stencil(&[self.stencil_side], self.fig12_seed);
        });
        let spmv_out = spmv_out.expect("figures ran");
        let mut measured: Vec<(&'static str, f64)> = Vec::new();
        for row in &spmv_out.rows {
            let id = match row.format.as_str() {
                "CSR" => "fig10/csr",
                "SPC5" => "fig10/spc5",
                "Sell-C-sigma" => "fig10/sell",
                "CSB" => "fig10/csb",
                other => panic!("unknown format {other}"),
            };
            measured.push((id, row.mean));
        }
        measured.push(("via/energy", spmv_out.energy_ratio));
        measured.push(("via/bandwidth", spmv_out.bandwidth_ratio));
        measured.push(("fig11/spma", spma_mean));
        measured.push(("spmm", spmm_mean));
        measured.push((
            "fig12a/scalar",
            geomean(&hist.iter().map(|r| r.vs_scalar()).collect::<Vec<_>>()),
        ));
        measured.push((
            "fig12a/vector",
            geomean(&hist.iter().map(|r| r.vs_vector()).collect::<Vec<_>>()),
        ));
        measured.push((
            "fig12b/stencil",
            geomean(&sten.iter().map(|r| r.vs_scalar()).collect::<Vec<_>>()),
        ));
        let model = AreaModel::new();
        let cfg = ViaConfig::new(16, 2);
        measured.push(("table2/area-16_2p", model.area_mm2(&cfg)));
        measured.push(("table2/leak-16_2p", model.leakage_mw(&cfg)));
        let verdicts = measured
            .iter()
            .map(|(id, v)| verdict(claim(id), *v))
            .collect();

        let (stall, tightness, socket) = match t {
            None => (
                stall_sweep(&self.stall_scale()),
                kernel_bound_tightness(self.scale.seed),
                multicore_sweep(&self.socket_scale),
            ),
            Some(t) => (
                traced_stall_sweep(&self.stall_scale(), t),
                traced_tightness(self.scale.seed, t),
                traced_multicore(&self.socket_scale, t),
            ),
        };
        let cycles = hist
            .iter()
            .map(|r| r.scalar_cycles + r.vector_cycles + r.via_cycles)
            .chain(
                sten.iter()
                    .map(|r| r.scalar_cycles + r.vector_cycles + r.via_cycles),
            )
            .chain(tightness.iter().map(|r| r.simulated_cycles))
            .chain(socket.bakeoff.iter().map(|r| r.baseline + r.via + r.ssr))
            .sum();
        Outcome {
            measured,
            verdicts,
            stall,
            tightness,
            socket,
            cycles,
        }
    }
}

impl Workload for ScorecardWorkload {
    type Inputs = Vec<Suite>;

    fn scale_json(&self) -> String {
        let s = &self.scale;
        format!(
            "{{\"matrices\": {}, \"min_rows\": {}, \"max_rows\": {}, \"density\": [{}, {}], \
             \"seed\": {}, \"fig12_seed\": {}, \"histogram_keys\": {}, \"stencil_side\": {}, \
             \"socket_matrices\": {}, \"socket_cores\": {:?}, \"threads\": {}}}",
            s.matrices,
            s.min_rows,
            s.max_rows,
            s.density_range.0,
            s.density_range.1,
            s.seed,
            self.fig12_seed,
            self.hist_keys,
            self.stencil_side,
            self.socket_scale.matrices,
            CORE_COUNTS,
            s.threads
        )
    }

    fn threads(&self) -> usize {
        self.scale.threads
    }

    /// The suites every experiment of the pass draws from.
    fn setup(&self) -> Vec<Suite> {
        vec![
            Suite::generate(&self.scale),
            Suite::generate(&self.scale.spmm()),
            Suite::generate(&self.socket_scale),
        ]
    }

    fn points(&self, _inputs: &Vec<Suite>) -> u64 {
        // 13 claims, 6 tightness rows, 2 kernels x 3 backends x 4 core counts.
        13 + 6 + 24
    }

    fn rep(&self, _inputs: &Vec<Suite>) -> Rep {
        let before = via_sim::telemetry::snapshot();
        let t = Instant::now();
        let cold = self.run(None);
        let cold_s = t.elapsed().as_secs_f64();
        let cold_delta = via_sim::telemetry::snapshot().since(&before);
        let t = Instant::now();
        let warm = self.run(None);
        let warm_s = t.elapsed().as_secs_f64();
        let layer = BTreeMap::from([
            ("model.sim_cycles", cold.cycles as f64),
            ("model.sim_instructions", cold_delta.instructions as f64),
            ("model.claims_reproduced", cold.reproduced() as f64),
            (
                "model.socket_eff8",
                cold.socket.partitioned_geomean(8) / 8.0,
            ),
        ]);
        Rep {
            cold_s,
            warm_s: vec![warm_s],
            cold: cold.pass(),
            warm: vec![warm.pass()],
            layer,
        }
    }

    fn traced_rep(&self, _inputs: &Vec<Suite>, t: &Trace, _untraced: &Rep) -> TracedRep {
        let start = Instant::now();
        let before = via_sim::telemetry::snapshot();
        let cold = self.run(Some(t));
        let warm = self.run(Some(t));
        let wall_s = start.elapsed().as_secs_f64();
        // The figure functions only run kernels on the interpreted path;
        // their spans count as interpretation (emission included).
        let figures_instructions = 0.0_f64.max(
            via_sim::telemetry::snapshot().since(&before).instructions as f64
                - t.sum("traced.instructions"),
        );
        let st = t.self_times();
        let get = |k: &str| st.get(k).copied().unwrap_or(0.0);
        let interpret_s = t.sum("engine.interpret_s") + get("figures");
        let layer = BTreeMap::from([
            ("analyze.s", get("analyze")),
            ("emit.s", get("emit")),
            ("emit.instructions", t.sum("emit.instructions")),
            ("compile.record_s", t.sum("compile.record_s")),
            ("verify.program_s", get("verify.program")),
            ("engine.interpret_s", interpret_s),
            (
                "engine.interpret_mips",
                (t.sum("engine.interpret_instructions") + figures_instructions)
                    / interpret_s.max(1e-9)
                    / 1e6,
            ),
            ("trace.accounting_s", t.sum("trace.accounting_s")),
            ("trace.stall_sweep_s", get("trace.stall_sweep")),
            ("socket.s", get("socket") + get("socket.cores8")),
            ("socket.cores8_s", get("socket.cores8")),
            ("socket.llc_accesses", t.sum("socket.llc_accesses")),
            ("formats.generate_s", get("formats.generate")),
            ("formats.reference_s", get("formats.reference")),
        ]);
        TracedRep {
            cold: cold.pass(),
            warm: vec![warm.pass()],
            wall_s,
            layer,
        }
    }
}

/// Counts simulated instructions of re-driven runs, so the figure spans'
/// share of the process-wide counter can be told apart ([`split`] counts
/// its own runs).
fn count<T>(t: &Trace, run: &KernelRun<T>) {
    t.add("traced.instructions", run.stats.instructions as f64);
}

/// `stall_sweep`, step by step: each kernel call runs with stall
/// accounting (the sweep itself) and once more without it, so the cost of
/// accounting is their difference.
fn traced_stall_sweep(scale: &ExperimentScale, t: &Trace) -> Vec<StallRow> {
    let suite = t.span("formats.generate", || Suite::generate(scale));
    let acc = SimContext::default().with_trace(TraceOptions::accounting());
    let plain = SimContext::default();
    let bs = acc.via.csb_block_size();
    fn accounted<R>(
        t: &Trace,
        acc: &SimContext,
        plain: &SimContext,
        f: impl Fn(&SimContext) -> KernelRun<R>,
    ) -> StallReport {
        let (run, with) = t.timed("trace.stall_sweep", || f(acc));
        let (base, without) = t.timed("trace.accounting_baseline", || f(plain));
        t.add("trace.accounting_s", with - without);
        count(t, &run);
        count(t, &base);
        run.stall.expect("accounting on")
    }
    let row = |kernel: &str, reports: Vec<StallReport>| {
        let mut it = reports.into_iter();
        let mut merged = it.next().expect("non-empty sweep");
        for r in it {
            merged.merge(&r);
        }
        StallRow {
            kernel: kernel.to_string(),
            report: merged,
        }
    };
    let per_matrix = |f: &(dyn Fn(&via_formats::gen::GenMatrix) -> StallReport + Sync)| {
        parallel_map(&suite.matrices, scale.threads, f)
    };
    let mut rows = vec![
        row(
            "spmv/csr_vec",
            per_matrix(&|m| {
                let x = gen::dense_vector(m.csr.cols(), m.seed);
                accounted(t, &acc, &plain, |c| spmv::csr_vec(&m.csr, &x, c))
            }),
        ),
        row(
            "spmv/via_csb",
            per_matrix(&|m| {
                let x = gen::dense_vector(m.csr.cols(), m.seed);
                let csb = Csb::from_csr(&m.csr, bs).expect("power-of-two block");
                accounted(t, &acc, &plain, |c| spmv::via_csb(&csb, &x, c))
            }),
        ),
        row(
            "spma/merge_csr",
            per_matrix(&|m| {
                let b = gen::perturb_structure(&m.csr, 0.6, 0.5, m.seed ^ 1);
                accounted(t, &acc, &plain, |c| spma::merge_csr(&m.csr, &b, c))
            }),
        ),
        row(
            "spma/via_cam",
            per_matrix(&|m| {
                let b = gen::perturb_structure(&m.csr, 0.6, 0.5, m.seed ^ 1);
                accounted(t, &acc, &plain, |c| spma::via_cam(&m.csr, &b, c))
            }),
        ),
    ];
    let keys = uniform_keys(8_000, 256, scale.seed ^ 0x57A11);
    rows.push(row(
        "histogram/vector_cd",
        vec![accounted(t, &acc, &plain, |c| {
            histogram::vector_cd(&keys, 256, c)
        })],
    ));
    rows.push(row(
        "histogram/via",
        vec![accounted(t, &acc, &plain, |c| {
            histogram::via(&keys, 256, c)
        })],
    ));
    rows
}

/// Uniform histogram keys, drawn as the experiments draw them.
fn uniform_keys(n: usize, nbins: usize, seed: u64) -> Vec<u32> {
    let mut rng = via_rng::StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.random_range(0..nbins as u32)).collect()
}

/// `kernel_bound_tightness`, step by step: each VIA kernel's recorded run
/// is split into emission, interpretation and recording, then analyzed.
fn traced_tightness(seed: u64, t: &Trace) -> Vec<TightnessRow> {
    let c = Contexts::new(ViaConfig::default());
    let row =
        |kernel: &str, run: KernelRun<_>| -> TightnessRow { tightness_row(t, &c, kernel, &run) };
    let (a, x, csb, b, small, small_b, a_csc, frontier, keys, image) =
        t.span("formats.generate", || {
            let a = gen::uniform(192, 192, 0.02, seed);
            let x = gen::dense_vector(a.cols(), seed);
            let csb = Csb::from_csr(&a, c.rec.via.csb_block_size()).expect("power-of-two block");
            let b = gen::perturb_structure(&a, 0.6, 0.5, seed ^ 1);
            let small = gen::uniform(96, 96, 0.04, seed ^ 2);
            let small_b = gen::uniform(96, 96, 0.04, seed ^ 3).to_csc();
            let a_csc = gen::rmat(200, 1200, seed ^ 4).to_csc();
            let frontier =
                SparseVector::from_pairs((0..16).map(|i| (i * 11 % 200, 1.0 + i as f64)));
            let keys = uniform_keys(4_000, 256, seed ^ 5);
            let image: Vec<f64> = gen::dense_vector(48 * 48, seed ^ 6)
                .into_iter()
                .map(f64::abs)
                .collect();
            (a, x, csb, b, small, small_b, a_csc, frontier, keys, image)
        });
    let filter = stencil::gaussian4();
    let side = 48;
    vec![
        row(
            "spmv/via_csb",
            split(t, &c, |ctx| spmv::via_csb(&csb, &x, ctx)).map_output(),
        ),
        row(
            "spma/via_cam",
            split(t, &c, |ctx| spma::via_cam(&a, &b, ctx)).map_output(),
        ),
        row(
            "spmm/via_cam",
            split(t, &c, |ctx| spmm::via_cam(&small, &small_b, ctx)).map_output(),
        ),
        row(
            "spmspv/via_cam",
            split(t, &c, |ctx| spmspv::via_cam(&a_csc, &frontier, ctx)).map_output(),
        ),
        row(
            "histogram/via",
            split(t, &c, |ctx| histogram::via(&keys, 256, ctx)).map_output(),
        ),
        row(
            "stencil/via",
            split(t, &c, |ctx| stencil::via(&image, side, side, &filter, ctx)).map_output(),
        ),
    ]
}

/// Drops a run's functional output (the tightness table only reads its
/// statistics, stream and SSPM events).
trait MapOutput {
    fn map_output(self) -> KernelRun<()>;
}

impl<T> MapOutput for KernelRun<T> {
    fn map_output(self) -> KernelRun<()> {
        KernelRun {
            output: (),
            stats: self.stats,
            sspm_events: self.sspm_events,
            stall: self.stall,
            chrome: self.chrome,
            compiled: self.compiled,
        }
    }
}

fn tightness_row(t: &Trace, c: &Contexts, kernel: &str, run: &KernelRun<()>) -> TightnessRow {
    let stream = run.compiled.as_ref().expect("recording context compiles");
    let report = t.span("analyze", || {
        via_sim::analyze(stream, &c.rec.analyze_config(run))
    });
    TightnessRow {
        kernel: kernel.to_string(),
        bound_cycles: report.bound.lower_cycles,
        simulated_cycles: run.stats.cycles,
        dead_stores: report.dead_stores,
    }
}

/// `multicore_sweep`, step by step: every socket run is its own span, the
/// 8-core ones under `socket.cores8`.
fn traced_multicore(scale: &ExperimentScale, t: &Trace) -> MulticoreOutcome {
    let policy = Partition::NnzBalanced;
    let cores: Vec<usize> = CORE_COUNTS.to_vec();
    let ctx = SimContext::default();
    let socket_span = |n: usize| if n == 8 { "socket.cores8" } else { "socket" };
    let llc = |t: &Trace, runs: &[KernelRun<_>]| {
        for r in runs {
            count(t, r);
            t.add(
                "socket.llc_accesses",
                (r.stats.l3.hits + r.stats.l3.misses) as f64,
            );
        }
    };
    fn llc_csr(t: &Trace, runs: &[KernelRun<via_formats::Csr>]) {
        for r in runs {
            count(t, r);
            t.add(
                "socket.llc_accesses",
                (r.stats.l3.hits + r.stats.l3.misses) as f64,
            );
        }
    }

    let suite = t.span("formats.generate", || Suite::generate(scale));
    let spmv_grids = parallel_map(&suite.matrices, scale.threads, |m| {
        let x: Vec<f64> = (0..m.csr.cols()).map(|i| ((i % 7) + 1) as f64).collect();
        let expect = t.span("formats.reference", || reference::spmv(&m.csr, &x));
        BackendKind::ALL
            .iter()
            .map(|&backend| {
                cores
                    .iter()
                    .map(|&n| {
                        let run = t.span(socket_span(n), || {
                            Socket::new(ctx.clone(), n).spmv(&m.csr, &x, backend, policy)
                        });
                        llc(t, &run.runs);
                        let ok = t.span("formats.reference", || {
                            vec_approx_eq(&run.concat_output(), &expect, 1e-9)
                        });
                        assert!(ok, "{}: socket SpMV diverged", m.name);
                        run.makespan()
                    })
                    .collect::<Vec<u64>>()
            })
            .collect::<Vec<_>>()
    });
    let spmm_scale = scale.spmm();
    let spmm_suite = t.span("formats.generate", || {
        Suite::generate(&ExperimentScale {
            matrices: spmm_scale.matrices.min(6),
            ..spmm_scale.clone()
        })
    });
    let spmm_grids = parallel_map(&spmm_suite.matrices, spmm_scale.threads, |m| {
        let expect = t.span("formats.reference", || {
            reference::spmm_gustavson(&m.csr, &m.csr).expect("square")
        });
        BackendKind::ALL
            .iter()
            .map(|&backend| {
                cores
                    .iter()
                    .map(|&n| {
                        let run = t.span(socket_span(n), || {
                            Socket::new(ctx.clone(), n).spmm(&m.csr, &m.csr, backend, policy)
                        });
                        llc_csr(t, &run.runs);
                        let ok = t.span("formats.reference", || {
                            let c = run.concat_output();
                            c.row_ptr() == expect.row_ptr()
                                && vec_approx_eq(c.data(), expect.data(), 1e-9)
                        });
                        assert!(ok, "{}: socket SpMM diverged", m.name);
                        run.makespan()
                    })
                    .collect::<Vec<u64>>()
            })
            .collect::<Vec<_>>()
    });

    let mut bakeoff = Vec::new();
    let mut scaling = Vec::new();
    for (kernel, suite, grids) in [
        ("spmv", &suite, &spmv_grids),
        ("spmm", &spmm_suite, &spmm_grids),
    ] {
        for (m, grid) in suite.matrices.iter().zip(grids.iter()) {
            bakeoff.push(BakeoffRow {
                kernel,
                matrix: m.name.clone(),
                rows: m.csr.rows(),
                nnz: m.csr.nnz(),
                baseline: grid[0][0],
                via: grid[1][0],
                ssr: grid[2][0],
            });
        }
        for (b, backend) in BackendKind::ALL.into_iter().enumerate() {
            for (ci, &n) in cores.iter().enumerate() {
                let speedups: Vec<f64> = grids
                    .iter()
                    .map(|g| g[b][0] as f64 / g[b][ci].max(1) as f64)
                    .collect();
                let g = geomean(&speedups);
                scaling.push(ScalingPoint {
                    kernel,
                    backend,
                    cores: n,
                    geomean_speedup: g,
                    efficiency: g / n as f64,
                });
            }
        }
    }
    MulticoreOutcome {
        policy,
        cores,
        bakeoff,
        scaling,
    }
}
