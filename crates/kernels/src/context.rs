//! Shared simulation context and kernel result types.

use std::sync::Arc;
use via_core::{BackendKind, SspmEvents, ViaConfig};
use via_sim::{CompiledStream, CoreConfig, Engine, MemConfig, RunStats, SharedLlc, StallReport};

/// Observability switches applied to every engine a [`SimContext`] builds.
///
/// The default (everything off) is the zero-cost path: engines built from a
/// default context produce bit-identical cycle counts to the pre-trace
/// simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceOptions {
    /// Attribute every simulated cycle to a [`via_sim::StallCause`];
    /// [`KernelRun::stall`] is populated when set.
    pub stall_accounting: bool,
    /// Capacity of the structured event ring (0 disables event capture).
    /// Enables Chrome-trace export via [`Engine::chrome_trace`].
    pub events_capacity: usize,
}

impl TraceOptions {
    /// Stall accounting on, event capture off — the cheap sweep-friendly
    /// configuration used by `via-bench`'s stall columns.
    pub fn accounting() -> Self {
        TraceOptions {
            stall_accounting: true,
            events_capacity: 0,
        }
    }

    /// Full observability: accounting plus an event ring of `capacity`.
    pub fn full(capacity: usize) -> Self {
        TraceOptions {
            stall_accounting: true,
            events_capacity: capacity,
        }
    }
}

/// Everything needed to instantiate a simulated machine for one kernel run.
#[derive(Debug, Clone, Default)]
pub struct SimContext {
    /// Core parameters.
    pub core: CoreConfig,
    /// Memory hierarchy parameters.
    pub mem: MemConfig,
    /// VIA hardware configuration (only used by VIA kernels).
    pub via: ViaConfig,
    /// Observability switches (off by default; timing-transparent).
    pub trace: TraceOptions,
    /// Socket-shared last-level cache + DRAM calendar, attached to every
    /// engine this context builds (`None` = private LLC, the single-core
    /// default — timing is bit-identical either way for one core).
    pub shared_llc: Option<Arc<SharedLlc>>,
    /// Base address for this context's engines' allocators (`0` = the
    /// default base). Sockets give each core a disjoint base so per-core
    /// working sets never alias in the shared LLC.
    pub alloc_base: u64,
    /// Record the emitted instruction stream so the run doubles as the
    /// *compile* phase of the compile/replay pipeline:
    /// [`KernelRun::compiled`] then carries the [`CompiledStream`] for
    /// later [`Engine::replay`]s. Timing-transparent (off by default).
    pub record: bool,
    /// Skip the timing model entirely ([`Engine::enable_emit_only`]):
    /// pushes still run the engine's verify step (debug builds and report
    /// capture only) and (with [`SimContext::record`]) are captured, but
    /// complete at cycle 0 — the recorded stream is still bit-identical to
    /// a timed run's. The auto-tuner's cheap compile path; cycle
    /// statistics of such a run are meaningless.
    pub emit_only: bool,
}

impl PartialEq for SimContext {
    fn eq(&self, other: &Self) -> bool {
        let llc_eq = match (&self.shared_llc, &other.shared_llc) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        };
        llc_eq
            && self.core == other.core
            && self.mem == other.mem
            && self.via == other.via
            && self.trace == other.trace
            && self.alloc_base == other.alloc_base
            && self.record == other.record
            && self.emit_only == other.emit_only
    }
}

impl SimContext {
    /// A context with the given VIA configuration (core/memory defaults).
    pub fn with_via(via: ViaConfig) -> Self {
        SimContext {
            via,
            ..SimContext::default()
        }
    }

    /// This context with the given observability switches.
    pub fn with_trace(mut self, trace: TraceOptions) -> Self {
        self.trace = trace;
        self
    }

    /// This context with stream recording on (the emit-once entry point:
    /// one recorded run compiles the kernel for any number of replays).
    pub fn with_recording(mut self) -> Self {
        self.record = true;
        self
    }

    /// This context with recording on and the timing model off — the
    /// cheapest way to obtain a kernel's [`CompiledStream`] (for static
    /// analysis or later replay) without paying for a simulation.
    pub fn with_emit_only(mut self) -> Self {
        self.record = true;
        self.emit_only = true;
        self
    }

    /// This context sharing the given socket LLC/DRAM calendar and
    /// allocating from `alloc_base` (a socket core's view of the machine).
    pub fn for_socket_core(mut self, shared: Arc<SharedLlc>, alloc_base: u64) -> Self {
        self.shared_llc = Some(shared);
        self.alloc_base = alloc_base;
        self
    }

    fn apply_trace(&self, mut e: Engine) -> Engine {
        if let Some(shared) = &self.shared_llc {
            e.attach_shared_llc(Arc::clone(shared));
        }
        if self.alloc_base != 0 {
            e.set_alloc_base(self.alloc_base);
        }
        if self.trace.stall_accounting {
            e.enable_stall_accounting();
        }
        if self.trace.events_capacity > 0 {
            e.enable_trace_events(self.trace.events_capacity);
        }
        if self.record {
            e.enable_recording();
        }
        if self.emit_only {
            e.enable_emit_only();
        }
        e
    }

    /// An engine for a baseline kernel (no FIVU).
    pub fn baseline_engine(&self) -> Engine {
        self.apply_trace(Engine::new(self.core.clone(), self.mem.clone()))
    }

    /// An engine for a VIA kernel (FIVU attached).
    pub fn via_engine(&self) -> Engine {
        self.apply_trace(Engine::new(
            self.core.clone().with_custom_unit(),
            self.mem.clone(),
        ))
    }

    /// An engine for an SSR kernel (stream unit attached, cheap gathers).
    pub fn ssr_engine(&self) -> Engine {
        self.apply_trace(Engine::new(
            BackendKind::Ssr.shape_core(self.core.clone()),
            self.mem.clone(),
        ))
    }

    /// The machine vector length in 64-bit lanes.
    pub fn vl(&self) -> usize {
        self.core.vl as usize
    }

    /// The [`via_sim::AnalyzeConfig`] matching the engine this context
    /// built for `run`: baseline runs analyze against the baseline core,
    /// VIA runs (detected by their SSPM events) against the
    /// custom-unit core with this context's CAM index-table capacity —
    /// so the static cycle bound and the CAM occupancy verdict line up
    /// with the machine that actually simulated the stream.
    pub fn analyze_config<T>(&self, run: &KernelRun<T>) -> via_sim::AnalyzeConfig {
        let is_via = run.sspm_events.is_some();
        let core = if is_via {
            self.core.clone().with_custom_unit()
        } else {
            self.core.clone()
        };
        let cfg = via_sim::AnalyzeConfig::from_machine(&core, &self.mem);
        if is_via {
            cfg.with_cam_entries(self.via.cam_entries() as u64)
        } else {
            cfg
        }
    }
}

/// The outcome of one simulated kernel run: the functional output plus the
/// timing statistics (and, for VIA kernels, the SSPM event counters feeding
/// the energy model).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRun<T> {
    /// The kernel's computed result (validated against golden models in
    /// tests).
    pub output: T,
    /// Timing and memory statistics.
    pub stats: RunStats,
    /// SSPM events (VIA kernels only).
    pub sspm_events: Option<SspmEvents>,
    /// Per-cause stall attribution ([`TraceOptions::stall_accounting`] only).
    pub stall: Option<StallReport>,
    /// Chrome trace-event JSON ([`TraceOptions::events_capacity`] > 0 only).
    pub chrome: Option<String>,
    /// The recorded instruction stream compiled for replay
    /// ([`SimContext::with_recording`] only).
    pub compiled: Option<CompiledStream>,
}

impl<T> KernelRun<T> {
    /// Finishes a baseline engine, harvesting the stall report, Chrome
    /// trace, and compiled stream (whichever switches were enabled)
    /// alongside the run statistics.
    pub fn finish_baseline(output: T, e: Engine) -> Self {
        Self::finish(output, e, None)
    }

    /// Finishes a VIA engine: stall report, Chrome trace, and compiled
    /// stream (if enabled), run statistics, and the SSPM event counters.
    pub fn finish_via(output: T, e: Engine, events: SspmEvents) -> Self {
        Self::finish(output, e, Some(events))
    }

    /// Finishes `e` with the SSPM event counters of a VIA engine.
    fn finish(output: T, mut e: Engine, sspm_events: Option<SspmEvents>) -> Self {
        let stall = e.stall_report();
        let chrome = e.chrome_trace();
        let compiled = e.take_compiled();
        KernelRun {
            output,
            stats: e.finish(),
            sspm_events,
            stall,
            chrome,
            compiled,
        }
    }

    /// Cycles taken.
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// The same run with its output passed through `f`.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> KernelRun<U> {
        KernelRun {
            output: f(self.output),
            stats: self.stats,
            sspm_events: self.sspm_events,
            stall: self.stall,
            chrome: self.chrome,
            compiled: self.compiled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_context_has_paper_config() {
        let ctx = SimContext::default();
        assert_eq!(ctx.via.name(), "16_2p");
        assert_eq!(ctx.vl(), 4);
    }

    #[test]
    fn engines_differ_in_custom_units() {
        let ctx = SimContext::default();
        assert_eq!(ctx.baseline_engine().core_config().custom_units, 0);
        assert_eq!(ctx.via_engine().core_config().custom_units, 1);
    }

    #[test]
    fn recording_context_compiles_the_run() {
        let ctx = SimContext::default().with_recording();
        let mut e = ctx.baseline_engine();
        assert!(e.recording_enabled());
        e.scalar_op(via_sim::AluKind::Int, &[]);
        let run = KernelRun::finish_baseline((), e);
        let stream = run.compiled.expect("recording context compiles");
        assert_eq!(stream.len(), 1);
        // A default context stays on the plain path.
        let plain = KernelRun::finish_baseline((), SimContext::default().baseline_engine());
        assert!(plain.compiled.is_none());
    }

    #[test]
    fn kernel_run_accessors() {
        let mut e = SimContext::default().baseline_engine();
        e.scalar_op(via_sim::AluKind::Int, &[]);
        let run = KernelRun::finish_baseline(vec![1.0], e);
        assert_eq!(run.cycles(), run.stats.cycles);
        assert!(run.cycles() > 0);
        assert!(run.sspm_events.is_none());
    }
}
