//! In-memory span recorder for the traced run.
//!
//! Every call into a layer's public function is wrapped in a span (name,
//! start, end, parent). Spans stay in memory until the run ends; a layer's
//! self time is its spans' durations minus the part their child spans
//! cover. Where one public call spans two layers, the workload modules
//! split it by differencing two contexts on the same inputs and record the
//! difference with [`Trace::add`].

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use via_core::ViaConfig;
use via_kernels::{KernelRun, SimContext};
use via_sim::verify::{verify_program, Program, VerifyConfig};

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call name, e.g. `analyze` or `store.write`.
    pub name: &'static str,
    /// Seconds since the trace began.
    pub start: f64,
    /// Seconds since the trace began.
    pub end: f64,
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the enclosing span on the same thread, 0 for a root.
    pub parent: u64,
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Spans plus additive per-layer quantities of one traced pass.
pub struct Trace {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    sums: Mutex<BTreeMap<&'static str, f64>>,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            sums: Mutex::new(BTreeMap::new()),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.timed(name, f).0
    }

    /// Runs `f` inside a span named `name` and also returns its duration
    /// in seconds (for differencing two runs of one call).
    pub fn timed<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|o| {
            let mut o = o.borrow_mut();
            let parent = o.last().copied().unwrap_or(0);
            o.push(id);
            parent
        });
        let start = self.epoch.elapsed().as_secs_f64();
        let out = f();
        let end = self.epoch.elapsed().as_secs_f64();
        OPEN.with(|o| o.borrow_mut().pop());
        self.spans
            .lock()
            .expect("span list poisoned by a panicking worker")
            .push(Span {
                name,
                start,
                end,
                id,
                parent,
            });
        (out, end - start)
    }

    /// Adds `v` to the additive quantity `key`.
    pub fn add(&self, key: &'static str, v: f64) {
        *self
            .sums
            .lock()
            .expect("sum map poisoned by a panicking worker")
            .entry(key)
            .or_insert(0.0) += v;
    }

    /// The additive quantity `key` (0 if never added).
    pub fn sum(&self, key: &str) -> f64 {
        self.sums
            .lock()
            .expect("sum map poisoned by a panicking worker")
            .get(key)
            .copied()
            .unwrap_or(0.0)
    }

    /// Self time per span name, summed over threads: each span's duration
    /// minus the durations of its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut child: BTreeMap<u64, f64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child.entry(s.parent).or_insert(0.0) += s.end - s.start;
        }
        let mut out = BTreeMap::new();
        for s in spans.iter() {
            let own = (s.end - s.start) - child.get(&s.id).copied().unwrap_or(0.0);
            *out.entry(s.name).or_insert(0.0) += own;
        }
        out
    }

    /// One line per span name: count, total and self time, in seconds.
    pub fn render(&self) -> String {
        let own = self.self_times();
        let mut total: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for s in self.spans.lock().expect("span list poisoned").iter() {
            let e = total.entry(s.name).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += s.end - s.start;
        }
        let mut out = format!(
            "{:<28} {:>8} {:>12} {:>12}\n",
            "span", "count", "total_s", "self_s"
        );
        for (name, (n, t)) in total {
            out.push_str(&format!(
                "{name:<28} {n:>8} {t:>12.6} {:>12.6}\n",
                own.get(name).copied().unwrap_or(0.0)
            ));
        }
        out
    }
}

/// The three contexts one kernel call is split across.
pub struct Contexts {
    emit: SimContext,
    plain: SimContext,
    /// The recording context: the run the workload itself makes.
    pub rec: SimContext,
}

impl Contexts {
    /// Emit-only unrecorded, timed unrecorded and timed recorded contexts
    /// for the given VIA configuration.
    pub fn new(via: ViaConfig) -> Self {
        let plain = SimContext::with_via(via);
        Contexts {
            emit: SimContext {
                emit_only: true,
                ..plain.clone()
            },
            rec: plain.clone().with_recording(),
            plain,
        }
    }
}

/// Runs one kernel call three times on the same inputs — emit-only
/// unrecorded, timed unrecorded, timed recorded — and attributes the
/// differences to emission (`emit` spans), interpretation
/// (`engine.interpret_s`) and recording (`compile.record_s`), then times
/// `verify_program` over the recorded stream. Returns the recorded run.
pub fn split<T>(t: &Trace, c: &Contexts, f: impl Fn(&SimContext) -> KernelRun<T>) -> KernelRun<T> {
    let (emitted, e) = t.timed("emit", || f(&c.emit));
    let (timed, i) = t.timed("engine.interpret", || f(&c.plain));
    let (run, r) = t.timed("compile.record", || f(&c.rec));
    t.add("engine.interpret_s", i - e);
    t.add("compile.record_s", r - i);
    t.add("kernel.recorded_s", r);
    t.add(
        "traced.instructions",
        (emitted.stats.instructions + timed.stats.instructions + run.stats.instructions) as f64,
    );
    t.add(
        "engine.interpret_instructions",
        timed.stats.instructions as f64,
    );
    let stream = run.compiled.as_ref().expect("recording context compiles");
    t.add("emit.instructions", stream.len() as f64);
    let core = if run.sspm_events.is_some() {
        c.plain.core.clone().with_custom_unit()
    } else {
        c.plain.core.clone()
    };
    let prog: Program = stream.insts().iter().cloned().collect();
    t.span("verify.program", || {
        verify_program(&prog, &VerifyConfig::from_core(&core))
    });
    run
}
