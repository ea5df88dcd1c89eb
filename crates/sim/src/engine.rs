//! The out-of-order timing engine.
//!
//! The engine is *streaming*: kernels push dynamic instructions one at a
//! time and the engine computes fetch/issue/complete/commit times in O(1)
//! per instruction (an interval-style analytical OoO model). The modeled
//! constraints are:
//!
//! * **fetch width** — at most `fetch_width` instructions enter per cycle;
//! * **ROB occupancy** — an instruction cannot enter until the instruction
//!   `rob_size` positions ahead of it has committed;
//! * **data dependences** — an instruction issues only after all source
//!   registers' producers complete (capture-at-entry = perfect renaming);
//! * **structural hazards** — each op class draws from a finite unit pool
//!   (scalar ALUs, vector ALUs, load/store ports, custom units);
//! * **memory** — every load/store walks the cache [`Hierarchy`]; gathers
//!   and scatters pay one cache access *and* one port slot per element plus
//!   a fixed overhead (paper §III-A);
//! * **commit** — in order, `commit_width` per cycle; *commit-serialized*
//!   custom ops (VIA instructions, paper §IV-E) issue only once every older
//!   non-custom instruction has completed, while still pipelining among
//!   themselves through the custom unit.

use std::sync::Arc;

use crate::alloc::AddressSpace;
use crate::analyze::{self, AnalysisReport, AnalyzeConfig};
use crate::calendar::Calendar;
use crate::compile::{CompiledStream, StreamEvent};
use crate::config::{CoreConfig, MemConfig};
use crate::mem::Hierarchy;
use crate::prog::{AluKind, Inst, Op, Reg, VecOpKind};
use crate::stats::RunStats;
use crate::trace::{
    self, EventRing, MemLevel, OpClass, RegionStalls, StallCause, StallReport, TraceEvent,
    TraceState,
};
use crate::verify::{self, Severity, Verifier, VerifyConfig};

/// Monotone lifecycle boundaries of one pushed instruction, handed to the
/// stall-attribution pass (`fetch ≤ ready ≤ gate ≤ issue ≤ complete ≤
/// commit`, with `front_gate ≤ fetch`).
struct TracePoints {
    prev_commit: u64,
    front_gate: u64,
    fence_dominates: bool,
    fetch: u64,
    ready: u64,
    gate: u64,
    issue: u64,
    complete: u64,
    commit: u64,
}

/// An in-progress stream recording (see [`Engine::enable_recording`]).
#[derive(Debug, Default)]
struct Recording {
    insts: Vec<Inst>,
    events: Vec<(usize, StreamEvent)>,
}

/// The streaming out-of-order timing engine.
///
/// See the [module docs](self) for the model. Construct with
/// [`Engine::new`], feed instructions with [`Engine::push`], and obtain
/// [`RunStats`] with [`Engine::finish`].
#[derive(Debug)]
pub struct Engine {
    core: CoreConfig,
    hier: Hierarchy,
    alloc: AddressSpace,
    next_reg: Reg,
    /// Completion cycle of each register's producer.
    ready: Vec<u64>,
    fetch_cycle: u64,
    fetch_in_cycle: u32,
    commit_cycle: u64,
    commit_in_cycle: u32,
    last_commit: u64,
    /// Commit times of the most recent `rob_size` instructions, as a ring:
    /// `rob_window[rob_head]` is the oldest entry once the ring is full
    /// (`rob_filled == rob_size`). A flat ring beats a `VecDeque` here —
    /// this is touched on every single push.
    rob_window: Vec<u64>,
    rob_head: usize,
    rob_filled: usize,
    /// Max completion time over all instructions so far.
    all_complete_max: u64,
    /// Max completion time over all *non-custom* instructions so far.
    noncustom_complete_max: u64,
    /// Instructions may not fetch before this (set by fences).
    fence_until: u64,
    scalar_units: Calendar,
    vector_units: Calendar,
    load_ports: Calendar,
    store_ports: Calendar,
    /// The custom (FIVU) units keep a monotonic next-free model: custom ops
    /// are commit-gated, so their ready times are already monotone.
    custom_units: Vec<u64>,
    /// 2-bit saturating counters per data-dependent branch site, indexed by
    /// site id (kernels use small dense ids, so a flat table beats hashing
    /// on the per-branch hot path). Entries start at 2 (weakly taken);
    /// the table grows lazily to the highest site seen.
    predictor: Vec<u8>,
    pushes_since_prune: u32,
    /// Stall-cause accounting and event-trace state (`via-trace`). Always
    /// present; disabled it costs one branch per push and never perturbs
    /// timing, so golden cycle counts are identical with tracing on or off.
    trace: TraceState,
    /// Streaming program verifier (`via-verify`). Always attached in debug
    /// builds (every debug simulation is checked, errors panic at the
    /// offending push); in release builds attached only while thread-local
    /// report capture is enabled, so the hot path pays one `Option` check.
    verifier: Option<Box<Verifier>>,
    /// Whether the attached verifier should flush its reports to the
    /// thread-local capture sink (instead of panicking in debug builds).
    verify_capture: bool,
    /// When recording ([`Engine::enable_recording`]), every pushed
    /// instruction — and every region/marker call, positionally — is also
    /// appended here, to be harvested as a [`CompiledStream`] by
    /// [`Engine::take_compiled`].
    recording: Option<Recording>,
    /// The compile-time verify report of a stream fed through
    /// [`Engine::replay`]; flushed to the capture sink instead of the (then
    /// empty) streaming verifier's report, so captured diagnostics are
    /// bit-identical between the interpreted and compiled paths.
    replayed_report: Option<verify::Report>,
    /// The static-analysis report attached by [`Engine::analyze_compiled`]
    /// for the stream most recently analyzed on this engine. Cleared by
    /// [`Engine::reset`] so a reused engine cannot leak a stale report.
    analysis: Option<Arc<AnalysisReport>>,
    /// Emit-only mode ([`Engine::enable_emit_only`]): pushes skip the
    /// timing model entirely — only verification and stream recording run.
    /// Instruction content never depends on timing (kernels read data, not
    /// cycle counts), so an emit-only recording is bit-identical to a timed
    /// one; the auto-tuner uses this to compile candidate streams cheaply
    /// and prune on the static cycle bound before paying for a replay.
    emit_only: bool,
    stats: RunStats,
}

impl Engine {
    /// Creates an engine with the given core and memory configuration.
    pub fn new(core: CoreConfig, mem: MemConfig) -> Self {
        let verify_capture = verify::capture_enabled();
        let verifier = if verify_capture || cfg!(debug_assertions) {
            Some(Box::new(Verifier::new(VerifyConfig::from_core(&core))))
        } else {
            None
        };
        Engine {
            hier: Hierarchy::new(mem),
            alloc: AddressSpace::new(),
            next_reg: 0,
            ready: Vec::new(),
            fetch_cycle: 0,
            fetch_in_cycle: 0,
            commit_cycle: 0,
            commit_in_cycle: 0,
            last_commit: 0,
            rob_window: vec![0; core.rob_size.max(1)],
            rob_head: 0,
            rob_filled: 0,
            all_complete_max: 0,
            noncustom_complete_max: 0,
            fence_until: 0,
            scalar_units: Calendar::new(core.scalar_alus),
            vector_units: Calendar::new(core.vector_alus),
            load_ports: Calendar::new(core.load_ports),
            store_ports: Calendar::new(core.store_ports),
            custom_units: vec![0; core.custom_units as usize],
            predictor: Vec::new(),
            pushes_since_prune: 0,
            trace: TraceState::default(),
            verifier,
            verify_capture,
            recording: None,
            replayed_report: None,
            analysis: None,
            emit_only: false,
            core,
            stats: RunStats::default(),
        }
    }

    /// The core configuration.
    pub fn core_config(&self) -> &CoreConfig {
        &self.core
    }

    /// The memory configuration.
    pub fn mem_config(&self) -> &MemConfig {
        self.hier.config()
    }

    /// The simulated address space (for allocating kernel arrays).
    pub fn alloc_mut(&mut self) -> &mut AddressSpace {
        &mut self.alloc
    }

    /// Attaches a socket-shared LLC ([`crate::mem::SharedLlc`]): this
    /// engine's L2 misses then walk the shared L3 and book the shared DRAM
    /// calendar, contending with every other attached engine. Call before
    /// pushing any instruction.
    pub fn attach_shared_llc(&mut self, shared: Arc<crate::mem::SharedLlc>) {
        self.hier.attach_shared(shared);
    }

    /// Rebases the simulated address space so this engine's allocations
    /// start at `base` (clamped up to [`AddressSpace::BASE`]). A socket
    /// gives each core a disjoint base so working sets never alias in the
    /// shared LLC. Call before any allocation.
    pub fn set_alloc_base(&mut self, base: u64) {
        self.alloc = AddressSpace::with_base(base);
    }

    /// Allocates a fresh virtual register.
    pub fn fresh_reg(&mut self) -> Reg {
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }

    fn reg_ready(&self, r: Reg) -> u64 {
        self.ready.get(r as usize).copied().unwrap_or(0)
    }

    fn set_ready(&mut self, r: Reg, t: u64) {
        let idx = r as usize;
        if idx >= self.ready.len() {
            self.ready.resize(idx + 1, 0);
        }
        self.ready[idx] = t;
    }

    /// Earliest-available custom unit (monotonic model); reserves it for
    /// `occupancy` cycles starting no earlier than `t`. Returns the start.
    fn acquire_custom(pool: &mut [u64], t: u64, occupancy: u64) -> u64 {
        let (idx, &free) = pool
            .iter()
            .enumerate()
            .min_by_key(|&(_, &f)| f)
            .expect("unit pool must not be empty");
        let start = t.max(free);
        pool[idx] = start + occupancy;
        start
    }

    /// Pushes one instruction through the model and returns its completion
    /// cycle.
    ///
    /// # Panics
    ///
    /// Panics if a [`Op::Custom`] instruction is pushed on a core configured
    /// with `custom_units == 0` (the baseline has no FIVU).
    pub fn push(&mut self, inst: Inst) -> u64 {
        // --- via-verify: streaming static checks -------------------------
        // `None` in release builds unless report capture is on, so the
        // cost there is a single branch.
        if let Some(v) = self.verifier.as_deref_mut() {
            let fresh = v.check(&inst);
            if cfg!(debug_assertions) && !self.verify_capture {
                if let Some(d) = fresh.iter().find(|d| d.severity() == Severity::Error) {
                    panic!(
                        "via-verify rejected the instruction stream:\n{}",
                        d.render()
                    );
                }
            }
        }
        let complete = if self.emit_only {
            // Emit-only: count the instruction (so `stream.len() ==
            // stats.instructions` holds on recordings) but skip the timing
            // model. Completion cycle 0 is fine — kernels thread register
            // deps, never completion times, through their emission.
            self.stats.instructions += 1;
            0
        } else {
            self.push_core(&inst)
        };
        if let Some(rec) = &mut self.recording {
            rec.insts.push(inst);
        }
        complete
    }

    /// The timing model proper: everything [`Engine::push`] does after the
    /// verifier check. [`Engine::replay`] drives this directly for every
    /// pre-decoded instruction of a [`CompiledStream`], so interpreted and
    /// replayed runs share one code path and produce bit-identical cycles,
    /// stall attribution, and statistics.
    fn push_core(&mut self, inst: &Inst) -> u64 {
        // --- via-trace: pre-push snapshots ------------------------------
        // One branch when tracing is off; none of this feeds timing.
        let tracing = self.trace.enabled();
        let prev_commit = self.last_commit;

        // --- fetch: width and ROB admission ----------------------------
        let rob_ready = if self.rob_filled == self.core.rob_size {
            self.rob_window[self.rob_head]
        } else {
            0
        };
        let fence_dominates = self.fence_until >= rob_ready;
        let earliest_fetch = rob_ready.max(self.fence_until);
        if self.fetch_cycle < earliest_fetch {
            self.fetch_cycle = earliest_fetch;
            self.fetch_in_cycle = 0;
        }
        if self.fetch_in_cycle >= self.core.fetch_width {
            self.fetch_cycle += 1;
            self.fetch_in_cycle = 0;
        }
        self.fetch_in_cycle += 1;
        let fetch_t = self.fetch_cycle;

        // Periodically discard calendar history below the fetch frontier
        // (no later instruction can issue before its fetch time).
        self.pushes_since_prune += 1;
        if self.pushes_since_prune >= 4096 {
            self.pushes_since_prune = 0;
            self.scalar_units.prune_below(fetch_t);
            self.vector_units.prune_below(fetch_t);
            self.load_ports.prune_below(fetch_t);
            self.store_ports.prune_below(fetch_t);
            self.hier.prune_below(fetch_t);
        }

        // --- dependences ------------------------------------------------
        let mut dep_t = 0u64;
        for &r in inst.srcs.as_slice() {
            dep_t = dep_t.max(self.reg_ready(r));
        }
        let ready_t = fetch_t.max(dep_t);

        // --- issue + execute --------------------------------------------
        let front_gate = earliest_fetch.min(fetch_t);
        let (dram_wait0, port_wait0) = if tracing {
            self.hier.clear_level_mark();
            (self.hier.dram_wait_cycles(), self.hier.port_wait_cycles())
        } else {
            (0, 0)
        };
        // Issue time (unit acquired) and the at-commit gate, captured for
        // attribution; plain u64 stores, free enough to keep unconditional.
        let mut tr_issue = ready_t;
        let mut tr_gate = ready_t;
        let complete = match &inst.op {
            Op::Scalar { kind } => {
                self.stats.scalar_ops += 1;
                let lat = match kind {
                    AluKind::Int => self.core.scalar_latency,
                    AluKind::FpAdd | AluKind::FpMul => self.core.vec_alu_latency,
                    AluKind::FpFma => self.core.vec_fma_latency,
                } as u64;
                let start = self.scalar_units.book(ready_t);
                tr_issue = start;
                start + lat
            }
            Op::Vec { kind } => {
                self.stats.vector_ops += 1;
                let lat = match kind {
                    VecOpKind::Add | VecOpKind::Mul => self.core.vec_alu_latency,
                    VecOpKind::Fma => self.core.vec_fma_latency,
                    VecOpKind::Reduce => self.core.vec_reduce_latency,
                    VecOpKind::Permute | VecOpKind::Blend => self.core.vec_permute_latency,
                    VecOpKind::Compare => self.core.vec_alu_latency,
                    VecOpKind::ConflictDetect => self.core.vec_conflict_latency,
                } as u64;
                let start = self.vector_units.book(ready_t);
                tr_issue = start;
                start + lat
            }
            Op::Load { addr, bytes } => {
                self.stats.loads += 1;
                self.mem_access(*addr, *bytes, false, ready_t)
            }
            Op::Store { addr, bytes } => {
                self.stats.stores += 1;
                self.mem_access(*addr, *bytes, true, ready_t)
            }
            Op::Gather { addrs, elem_bytes } => {
                self.stats.gathers += 1;
                self.indexed_access(addrs.as_slice(), *elem_bytes, false, ready_t)
            }
            Op::Scatter { addrs, elem_bytes } => {
                self.stats.scatters += 1;
                self.indexed_access(addrs.as_slice(), *elem_bytes, true, ready_t)
            }
            Op::Custom {
                occupancy,
                latency,
                at_commit,
            } => {
                assert!(
                    !self.custom_units.is_empty(),
                    "custom op pushed on a core with no custom unit (baseline \
                     cores have no FIVU)"
                );
                self.stats.custom_ops += 1;
                let gate = if *at_commit {
                    // Commit-time execution (paper §IV-E): all older
                    // non-custom instructions must have completed. Older
                    // custom ops gate through unit occupancy, which lets
                    // back-to-back VIA instructions pipeline.
                    ready_t.max(self.noncustom_complete_max)
                } else {
                    ready_t
                };
                let occ = (*occupancy).max(1) as u64;
                let start = Self::acquire_custom(&mut self.custom_units, gate, occ);
                tr_gate = gate;
                tr_issue = start;
                self.stats.custom_busy_cycles += occ;
                start + (*latency).max(1) as u64
            }
            Op::Branch { taken, site } => {
                self.stats.branches += 1;
                // 2-bit saturating counter, initialized weakly taken.
                let idx = *site as usize;
                if idx >= self.predictor.len() {
                    self.predictor.resize(idx + 1, 2);
                }
                let counter = &mut self.predictor[idx];
                let predicted = *counter >= 2;
                if *taken {
                    *counter = (*counter + 1).min(3);
                } else {
                    *counter = counter.saturating_sub(1);
                }
                // The branch resolves one cycle after its sources are ready
                // (compare + redirect decision).
                let start = self.scalar_units.book(ready_t);
                tr_issue = start;
                let resolve = start + self.core.scalar_latency as u64;
                if predicted != *taken {
                    self.stats.mispredicts += 1;
                    // Redirect: younger instructions fetch only after the
                    // resolve plus the front-end refill penalty.
                    self.fence_until = self
                        .fence_until
                        .max(resolve + self.core.mispredict_penalty as u64);
                }
                resolve
            }
            Op::Delay { cycles } => ready_t + *cycles as u64,
            Op::Fence => {
                self.fence_until = self.all_complete_max.max(fetch_t);
                fetch_t.max(self.all_complete_max)
            }
        };

        // --- bookkeeping --------------------------------------------------
        if let Some(dst) = inst.dst {
            self.set_ready(dst, complete);
        }
        self.all_complete_max = self.all_complete_max.max(complete);
        if !matches!(inst.op, Op::Custom { .. }) {
            self.noncustom_complete_max = self.noncustom_complete_max.max(complete);
        }

        // --- commit: in order, width-limited -----------------------------
        let mut commit_t = complete.max(self.last_commit);
        if commit_t > self.commit_cycle {
            self.commit_cycle = commit_t;
            self.commit_in_cycle = 0;
        }
        if self.commit_in_cycle >= self.core.commit_width {
            self.commit_cycle += 1;
            self.commit_in_cycle = 0;
            commit_t = self.commit_cycle;
        }
        self.commit_in_cycle += 1;
        commit_t = commit_t.max(self.commit_cycle);
        self.last_commit = commit_t;
        // Overwrite the oldest ring entry (which `rob_ready` above already
        // consumed this push) and advance.
        self.rob_window[self.rob_head] = commit_t;
        self.rob_head += 1;
        if self.rob_head == self.core.rob_size {
            self.rob_head = 0;
        }
        if self.rob_filled < self.core.rob_size {
            self.rob_filled += 1;
        }
        if tracing {
            self.record_trace(
                &inst.op,
                TracePoints {
                    prev_commit,
                    front_gate,
                    fence_dominates,
                    fetch: fetch_t,
                    ready: ready_t,
                    gate: tr_gate,
                    issue: tr_issue,
                    complete,
                    commit: commit_t,
                },
                dram_wait0,
                port_wait0,
            );
        }
        self.stats.instructions += 1;
        complete
    }

    /// Attributes this push's commit-frontier delta to stall causes and
    /// records the lifecycle event. `points` carries the instruction's
    /// monotone lifecycle boundaries; each adjacent pair, clipped to
    /// `(prev_commit, commit]`, is charged to exactly one cause, so the
    /// attribution tiles the frontier delta exactly (the conservation
    /// invariant).
    fn record_trace(&mut self, op: &Op, points: TracePoints, dram_wait0: u64, port_wait0: u64) {
        let class = OpClass::of(op);
        let TracePoints {
            prev_commit,
            front_gate,
            fence_dominates,
            fetch,
            ready,
            gate,
            issue,
            complete,
            commit,
        } = points;
        if self.trace.accounting {
            let dram_delta = self.hier.dram_wait_cycles() - dram_wait0;
            let port_delta = self.hier.port_wait_cycles() - port_wait0;
            // Length of a lifecycle segment clipped to the frontier delta
            // `(prev_commit, commit]` (charging 0 cycles is harmless).
            let clip = |lo: u64, hi: u64| hi.min(commit).saturating_sub(lo.max(prev_commit));
            let tr = &mut self.trace;
            // Frontend: waiting on the ROB / a redirect, then fetch-width
            // serialization up to the fetch cycle.
            let front_cause = if fence_dominates {
                StallCause::BranchRedirect
            } else {
                StallCause::RobFull
            };
            tr.charge(class, front_cause, clip(prev_commit, front_gate));
            tr.charge(class, StallCause::FetchWidth, clip(front_gate, fetch));
            // Operand wait.
            tr.charge(class, StallCause::Dependency, clip(fetch, ready));
            // Execution window (ready → complete), split per op class.
            match class {
                OpClass::Load | OpClass::Store | OpClass::Gather | OpClass::Scatter => {
                    // Split the memory window between DRAM-channel queuing,
                    // port serialization, and transfer time, using the
                    // hierarchy's wait-counter deltas clipped to the window.
                    let w = clip(ready, complete);
                    let dram = dram_delta.min(w);
                    let port = port_delta.min(w - dram);
                    let port_cause = if matches!(class, OpClass::Store | OpClass::Scatter) {
                        StallCause::StorePort
                    } else {
                        StallCause::LoadPort
                    };
                    tr.charge(class, StallCause::DramBandwidth, dram);
                    tr.charge(class, port_cause, port);
                    tr.charge(class, StallCause::Active, w - dram - port);
                }
                OpClass::Custom => {
                    tr.charge(class, StallCause::CommitGate, clip(ready, gate));
                    tr.charge(class, StallCause::FuSlot, clip(gate, issue));
                    tr.charge(class, StallCause::Active, clip(issue, complete));
                }
                OpClass::Delay => {
                    tr.charge(class, StallCause::StoreBufferDrain, clip(ready, complete));
                }
                OpClass::Fence => {
                    tr.charge(class, StallCause::Dependency, clip(ready, complete));
                }
                _ => {
                    tr.charge(class, StallCause::FuSlot, clip(ready, issue));
                    tr.charge(class, StallCause::Active, clip(issue, complete));
                }
            }
            // In-order commit behind the frontier and commit-width limits.
            tr.charge(class, StallCause::CommitWidth, clip(complete, commit));
        }
        if self.trace.events.is_some() {
            let level = match class {
                OpClass::Load | OpClass::Store | OpClass::Gather | OpClass::Scatter => {
                    MemLevel::from_mark(self.hier.level_mark().max(1))
                }
                _ => MemLevel::None,
            };
            let index = self.stats.instructions;
            let region = self.trace.current;
            if let Some(ring) = &mut self.trace.events {
                ring.record(TraceEvent::Inst {
                    index,
                    class,
                    region,
                    fetch,
                    issue,
                    complete,
                    commit,
                    level,
                });
            }
        }
    }

    fn mem_access(&mut self, addr: u64, bytes: u32, write: bool, t: u64) -> u64 {
        let ports = if write {
            &mut self.store_ports
        } else {
            &mut self.load_ports
        };
        self.hier.access_span(addr, bytes, write, t, ports)
    }

    fn indexed_access(&mut self, addrs: &[u64], elem_bytes: u32, write: bool, t: u64) -> u64 {
        self.stats.indexed_elems += addrs.len() as u64;
        let sb_latency = self.hier.config().l1.latency as u64;
        let mut done = t;
        for &addr in addrs {
            let start = if write {
                self.store_ports.book(t)
            } else {
                self.load_ports.book(t)
            };
            self.hier.note_port_wait(start.saturating_sub(t));
            let lat = self.hier.access(addr, write, start);
            let effective = if write { sb_latency } else { lat };
            done = done.max(start + effective);
            let _ = elem_bytes;
        }
        done + self.core.gather_overhead as u64
    }

    // ---- via-trace: stall accounting and event traces ------------------

    /// Turns on stall-cause accounting: from now on every commit-frontier
    /// cycle is attributed to one [`StallCause`] per opcode class and per
    /// kernel region. Never perturbs timing; read the result with
    /// [`Engine::stall_report`].
    pub fn enable_stall_accounting(&mut self) {
        self.trace.accounting = true;
        self.trace.ensure_root();
    }

    /// Whether stall-cause accounting is on.
    pub fn stall_accounting_enabled(&self) -> bool {
        self.trace.accounting
    }

    /// Turns on event tracing: the most recent `capacity` instruction
    /// lifecycles (plus region and marker events) are kept in a ring and
    /// can be exported with [`Engine::chrome_trace`].
    pub fn enable_trace_events(&mut self, capacity: usize) {
        self.trace.events = Some(EventRing::new(capacity));
        self.trace.ensure_root();
        self.hier.clear_level_mark();
    }

    /// The recorded event ring, if [`Engine::enable_trace_events`] was
    /// called.
    pub fn trace_events(&self) -> Option<&EventRing> {
        self.trace.events.as_ref()
    }

    /// Enters a named kernel region (row loop, accumulate, flush, …);
    /// subsequent attribution is filed under it until the matching
    /// [`Engine::region_end`]. Regions nest; a no-op while tracing is off,
    /// so kernels label phases unconditionally.
    pub fn region(&mut self, name: &'static str) {
        if let Some(rec) = &mut self.recording {
            rec.events
                .push((rec.insts.len(), StreamEvent::RegionBegin(name)));
        }
        if !self.trace.enabled() {
            return;
        }
        let id = self.trace.intern(name);
        self.trace.stack.push(self.trace.current);
        self.trace.current = id;
        let at = self.last_commit;
        if let Some(ring) = &mut self.trace.events {
            ring.record(TraceEvent::RegionBegin { region: id, at });
        }
    }

    /// Leaves the innermost open region (no-op at top level or while
    /// tracing is off).
    pub fn region_end(&mut self) {
        if let Some(rec) = &mut self.recording {
            rec.events.push((rec.insts.len(), StreamEvent::RegionEnd));
        }
        if !self.trace.enabled() {
            return;
        }
        if let Some(prev) = self.trace.stack.pop() {
            let at = self.last_commit;
            let current = self.trace.current;
            if let Some(ring) = &mut self.trace.events {
                ring.record(TraceEvent::RegionEnd {
                    region: current,
                    at,
                });
            }
            self.trace.current = prev;
        }
    }

    /// Records an instant marker (e.g. an SSPM mode transition) at the
    /// current commit frontier; a no-op unless event tracing is on.
    pub fn trace_marker(&mut self, name: &'static str) {
        if let Some(rec) = &mut self.recording {
            rec.events
                .push((rec.insts.len(), StreamEvent::Marker(name)));
        }
        let at = self.last_commit;
        if let Some(ring) = &mut self.trace.events {
            ring.record(TraceEvent::Marker { name, at });
        }
    }

    /// A snapshot of the stall-cause accounting so far, or `None` unless
    /// [`Engine::enable_stall_accounting`] was called. The report's
    /// [`attributed`](StallReport::attributed) total equals its
    /// `total_cycles` exactly (conservation).
    pub fn stall_report(&self) -> Option<StallReport> {
        if !self.trace.accounting {
            return None;
        }
        Some(StallReport {
            total_cycles: self.last_commit.max(self.all_complete_max),
            by_class: self.trace.by_class,
            regions: self
                .trace
                .regions
                .iter()
                .map(|r| RegionStalls {
                    name: r.name.to_string(),
                    cycles: r.cycles,
                })
                .collect(),
        })
    }

    /// The recorded event ring serialized as Chrome trace-event JSON
    /// (loadable in Perfetto), or `None` unless
    /// [`Engine::enable_trace_events`] was called.
    pub fn chrome_trace(&self) -> Option<String> {
        self.trace
            .events
            .as_ref()
            .map(|ring| trace::chrome_trace_json(ring, |id| self.trace.region_name(id)))
    }

    /// Whether a verifier is attached (always true in debug builds; true in
    /// release only while [`verify::capture_guard`] is active). `via-core`
    /// uses this to skip building diagnostics that would be dropped.
    pub fn verify_active(&self) -> bool {
        self.verifier.is_some()
    }

    /// The verifier's report so far, if a verifier is attached.
    pub fn verify_report(&self) -> Option<&verify::Report> {
        self.verifier.as_deref().map(Verifier::report)
    }

    /// Routes an externally produced diagnostic (e.g. `via-core`'s SSPM
    /// mode checker) into the attached verifier, stamped with the current
    /// instruction index. In debug builds (without capture) an
    /// error-severity diagnostic panics, mirroring [`Engine::push`].
    pub fn report_diag(&mut self, diag: verify::Diag) {
        if cfg!(debug_assertions) && !self.verify_capture && diag.severity() == Severity::Error {
            panic!(
                "via-verify rejected the instruction stream:\n{}",
                diag.render()
            );
        }
        if let Some(v) = self.verifier.as_deref_mut() {
            v.push_external(diag);
        }
    }

    // ---- compile / replay (via-sim::compile) ---------------------------

    /// Starts recording the pushed instruction stream so it can be
    /// harvested with [`Engine::take_compiled`]. Also attaches a verifier
    /// if none is present (release builds without capture), so the
    /// compiled stream's one-shot verify report carries the same
    /// diagnostics — including externally routed ones like `via-core`'s
    /// SSPM checks — that a debug interpreted run would see.
    pub fn enable_recording(&mut self) {
        if self.verifier.is_none() {
            self.verifier = Some(Box::new(Verifier::new(VerifyConfig::from_core(&self.core))));
        }
        self.recording = Some(Recording::default());
    }

    /// Whether the engine is recording for [`Engine::take_compiled`].
    pub fn recording_enabled(&self) -> bool {
        self.recording.is_some()
    }

    /// Puts the engine in *emit-only* mode: subsequent pushes are verified
    /// and (if recording) captured, but the timing model is skipped and
    /// every push reports completion cycle 0. Because kernels construct
    /// instructions from data only — completion cycles feed nothing but
    /// timing — the recorded stream is bit-identical to a timed run's.
    ///
    /// This is the auto-tuner's fast compile path: emit a candidate
    /// variant's stream without cache/calendar work, take its static
    /// cycle lower bound from [`analyze`], and only replay (full timing)
    /// the candidates the bound cannot rule out. Statistics other than
    /// the instruction count are meaningless on an emit-only run.
    /// Cleared by [`Engine::reset`].
    pub fn enable_emit_only(&mut self) {
        self.emit_only = true;
    }

    /// Whether emit-only mode is on.
    pub fn emit_only_enabled(&self) -> bool {
        self.emit_only
    }

    /// Harvests the recorded stream as a [`CompiledStream`] (turning
    /// recording off), or `None` if [`Engine::enable_recording`] was never
    /// called. Call before [`Engine::finish`]/[`Engine::reset`]. The
    /// verify report is *cloned*, not taken: a capturing recorded run
    /// still flushes its own report exactly like an interpreted one.
    pub fn take_compiled(&mut self) -> Option<CompiledStream> {
        let rec = self.recording.take()?;
        let report = self
            .verifier
            .as_deref()
            .map(|v| v.report().clone())
            .unwrap_or_default();
        Some(CompiledStream::from_recording(
            rec.insts, rec.events, report,
        ))
    }

    /// Runs the static analyzer over a compiled stream with this engine's
    /// machine configuration and attaches the report to the engine (read
    /// it back with [`Engine::analysis_report`]). The attachment is
    /// per-run state: [`Engine::reset`] clears it, so a reused engine can
    /// never serve a stale report for a different stream.
    pub fn analyze_compiled(&mut self, stream: &CompiledStream) -> Arc<AnalysisReport> {
        let cfg = AnalyzeConfig::from_machine(&self.core, self.hier.config());
        let report = Arc::new(analyze::analyze(stream, &cfg));
        self.analysis = Some(report.clone());
        report
    }

    /// The report attached by the most recent [`Engine::analyze_compiled`]
    /// on this run, if any.
    pub fn analysis_report(&self) -> Option<&Arc<AnalysisReport>> {
        self.analysis.as_ref()
    }

    /// Replays a compiled stream through the timing model: a tight loop
    /// over the pre-decoded instructions with no verifier work (the stream
    /// was verified once at compile). Returns the last instruction's
    /// completion cycle (0 for an empty stream). Cycles, stall attribution
    /// and statistics are bit-identical to pushing the same instructions.
    ///
    /// The stream's compile-time verify report stands in for the streaming
    /// verifier's: under capture it is flushed verbatim at
    /// [`Engine::finish`]/[`Engine::reset`], and in debug builds without
    /// capture an error-carrying stream panics here, mirroring
    /// [`Engine::push`]. One stream per run — reset between replays.
    ///
    /// # Panics
    ///
    /// Panics in debug builds (without capture) if `stream`'s verify
    /// report contains an error-severity diagnostic.
    pub fn replay(&mut self, stream: &CompiledStream) -> u64 {
        if cfg!(debug_assertions) && !self.verify_capture {
            if let Some(d) = stream
                .verify()
                .diags
                .iter()
                .find(|d| d.severity() == Severity::Error)
            {
                panic!("via-verify rejected the compiled stream:\n{}", d.render());
            }
        }
        self.replayed_report = Some(stream.verify().clone());
        let mut last = 0;
        let mut events = stream.events().iter().peekable();
        for (i, inst) in stream.insts().iter().enumerate() {
            while let Some(&&(pos, event)) = events.peek() {
                if pos > i {
                    break;
                }
                events.next();
                self.apply_stream_event(event);
            }
            last = self.push_core(inst);
        }
        for &(_, event) in events {
            self.apply_stream_event(event);
        }
        crate::telemetry::record_replayed(stream.len() as u64);
        last
    }

    /// Re-issues a recorded region/marker call at its stream position, so
    /// replayed stall attribution and event traces carry the same region
    /// structure as the interpreted run.
    fn apply_stream_event(&mut self, event: StreamEvent) {
        match event {
            StreamEvent::RegionBegin(name) => self.region(name),
            StreamEvent::RegionEnd => self.region_end(),
            StreamEvent::Marker(name) => self.trace_marker(name),
        }
    }

    /// Flushes the run's verify report to the thread-local capture sink
    /// (when capture is on) and clears the streaming state. A replayed
    /// run's report is its stream's compile-time report; otherwise it is
    /// whatever the attached verifier accumulated.
    fn flush_verifier(&mut self) {
        let replayed = self.replayed_report.take();
        if self.verify_capture {
            if let Some(report) = replayed {
                verify::submit_report(report);
            } else if let Some(v) = self.verifier.as_deref_mut() {
                verify::submit_report(v.take_report());
            }
        }
        if let Some(v) = self.verifier.as_deref_mut() {
            v.reset();
        }
    }

    /// Returns the engine to its just-constructed state while keeping its
    /// internal allocations (register-ready table, ROB window, cache set
    /// storage), so a sweep can reuse one engine across many runs instead
    /// of reconstructing per run. Stream recording is turned off.
    pub fn reset(&mut self) {
        crate::telemetry::record_instructions(self.stats.instructions);
        self.flush_verifier();
        self.hier.reset();
        self.alloc.reset();
        self.next_reg = 0;
        self.ready.clear();
        self.fetch_cycle = 0;
        self.fetch_in_cycle = 0;
        self.commit_cycle = 0;
        self.commit_in_cycle = 0;
        self.last_commit = 0;
        self.rob_head = 0;
        self.rob_filled = 0;
        self.all_complete_max = 0;
        self.noncustom_complete_max = 0;
        self.fence_until = 0;
        self.scalar_units.reset();
        self.vector_units.reset();
        self.load_ports.reset();
        self.store_ports.reset();
        self.custom_units.iter_mut().for_each(|t| *t = 0);
        self.predictor.clear();
        self.pushes_since_prune = 0;
        self.recording = None;
        self.analysis = None;
        self.emit_only = false;
        // Trace state must not leak between back-to-back runs: zero the
        // accumulators, empty the ring, and unwind the region stack, while
        // keeping the enabled flags so a reused engine keeps tracing.
        self.trace.clear();
        self.stats = RunStats::default();
    }

    /// Finalizes the run: drains the pipeline and returns the statistics.
    pub fn finish(mut self) -> RunStats {
        crate::telemetry::record_instructions(self.stats.instructions);
        self.flush_verifier();
        self.stats.cycles = self.last_commit.max(self.all_complete_max);
        self.hier.fill_stats(&mut self.stats);
        self.stats
    }

    /// A snapshot of the statistics so far (cycles = committed so far).
    pub fn stats_so_far(&self) -> RunStats {
        let mut stats = self.stats.clone();
        stats.cycles = self.last_commit.max(self.all_complete_max);
        self.hier.fill_stats(&mut stats);
        stats
    }

    // ---- convenience builders used by the kernel crates ----------------

    /// Pushes a scalar op and returns its destination register.
    pub fn scalar_op(&mut self, kind: AluKind, srcs: &[Reg]) -> Reg {
        let dst = self.fresh_reg();
        self.push(Inst::scalar(kind, srcs, Some(dst)));
        dst
    }

    /// Pushes a unit-stride load and returns its destination register.
    pub fn load(&mut self, addr: u64, bytes: u32) -> Reg {
        let dst = self.fresh_reg();
        self.push(Inst::load(addr, bytes, dst));
        dst
    }

    /// Pushes a load that additionally depends on `deps` (pointer chasing /
    /// store-to-load ordering).
    pub fn load_dep(&mut self, addr: u64, bytes: u32, deps: &[Reg]) -> Reg {
        let dst = self.fresh_reg();
        self.push(Inst::load_dep(addr, bytes, deps, dst));
        dst
    }

    /// Pushes a unit-stride store of `srcs`.
    pub fn store(&mut self, addr: u64, bytes: u32, srcs: &[Reg]) {
        self.push(Inst::store(addr, bytes, srcs));
    }

    /// Pushes a gather dependent on `deps` and returns its destination.
    /// Addresses are borrowed — kernels can reuse one scratch buffer across
    /// the whole sweep instead of allocating per instruction.
    pub fn gather(&mut self, addrs: &[u64], elem_bytes: u32, deps: &[Reg]) -> Reg {
        let dst = self.fresh_reg();
        self.push(Inst::gather(addrs, elem_bytes, deps, dst));
        dst
    }

    /// Pushes a scatter of `srcs` to `addrs` (addresses borrowed, as with
    /// [`Engine::gather`]).
    pub fn scatter(&mut self, addrs: &[u64], elem_bytes: u32, srcs: &[Reg]) {
        self.push(Inst::scatter(addrs, elem_bytes, srcs));
    }

    /// Pushes a vector op and returns its destination register.
    pub fn vec_op(&mut self, kind: VecOpKind, srcs: &[Reg]) -> Reg {
        let dst = self.fresh_reg();
        self.push(Inst::vec(kind, srcs, Some(dst)));
        dst
    }

    /// Pushes a custom-unit op and returns its destination register.
    pub fn custom_op(
        &mut self,
        occupancy: u32,
        latency: u32,
        at_commit: bool,
        srcs: &[Reg],
    ) -> Reg {
        let dst = self.fresh_reg();
        self.push(Inst::custom(occupancy, latency, at_commit, srcs, Some(dst)));
        dst
    }

    /// Pushes a data-dependent branch whose outcome depends on `deps`.
    pub fn branch(&mut self, taken: bool, site: u32, deps: &[Reg]) {
        self.push(Inst::branch(taken, site, deps));
    }

    /// Pushes a pure timing delay dependent on `deps`; returns a register
    /// that becomes ready `cycles` after the deps complete.
    pub fn delay(&mut self, cycles: u32, deps: &[Reg]) -> Reg {
        let dst = self.fresh_reg();
        self.push(Inst::delay(cycles, deps, dst));
        dst
    }

    /// Pushes a full serialization fence.
    pub fn fence(&mut self) {
        self.push(Inst::fence());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        Engine::new(CoreConfig::default(), MemConfig::default())
    }

    fn engine_with_custom() -> Engine {
        Engine::new(
            CoreConfig::default().with_custom_unit(),
            MemConfig::default(),
        )
    }

    #[test]
    fn independent_scalars_overlap() {
        let mut e = engine();
        // 100 independent single-cycle ops on 4 ALUs at fetch width 4
        // should take ~25-30 cycles, not 100.
        for _ in 0..100 {
            e.scalar_op(AluKind::Int, &[]);
        }
        let stats = e.finish();
        assert!(stats.cycles < 60, "cycles = {}", stats.cycles);
        assert!(stats.ipc() > 1.5, "ipc = {}", stats.ipc());
    }

    #[test]
    fn dependent_chain_serializes() {
        let mut e = engine();
        let mut r = e.scalar_op(AluKind::Int, &[]);
        for _ in 0..99 {
            r = e.scalar_op(AluKind::Int, &[r]);
        }
        let stats = e.finish();
        assert!(stats.cycles >= 100, "cycles = {}", stats.cycles);
    }

    #[test]
    fn fp_chain_pays_fp_latency() {
        let mut e = engine();
        let mut r = e.scalar_op(AluKind::FpAdd, &[]);
        for _ in 0..9 {
            r = e.scalar_op(AluKind::FpAdd, &[r]);
        }
        let stats = e.finish();
        // 10 x 3-cycle dependent adds ≥ 30 cycles.
        assert!(stats.cycles >= 30, "cycles = {}", stats.cycles);
    }

    #[test]
    fn rob_limits_runahead() {
        let small_rob = CoreConfig {
            rob_size: 8,
            ..CoreConfig::default()
        };
        let mut slow = Engine::new(small_rob, MemConfig::default());
        let mut fast = engine();
        // Long-latency cold loads interleaved with cheap ops: a small ROB
        // cannot run ahead.
        for i in 0..64u64 {
            slow.load(0x10_0000 + i * 4096, 8);
            for _ in 0..3 {
                slow.scalar_op(AluKind::Int, &[]);
            }
        }
        for i in 0..64u64 {
            fast.load(0x10_0000 + i * 4096, 8);
            for _ in 0..3 {
                fast.scalar_op(AluKind::Int, &[]);
            }
        }
        let (s, f) = (slow.finish(), fast.finish());
        assert!(
            s.cycles > f.cycles,
            "small ROB {} should be slower than large {}",
            s.cycles,
            f.cycles
        );
    }

    #[test]
    fn warm_loads_are_fast() {
        let mut e = engine();
        e.load(0x1000, 8);
        e.fence();
        let before = e.stats_so_far().cycles;
        for _ in 0..10 {
            e.load(0x1000, 8);
        }
        let stats = e.finish();
        // All hits: a handful of cycles beyond the fence point.
        assert!(stats.cycles - before < 30, "warm loads too slow");
        assert_eq!(stats.l1.hits, 10);
    }

    #[test]
    fn gather_costs_at_least_paper_floor() {
        let mut e = engine();
        // Warm the lines first.
        for i in 0..4u64 {
            e.load(0x2000 + i * 8, 8);
        }
        e.fence();
        let t0 = e.stats_so_far().cycles;
        let addrs: Vec<u64> = (0..4u64).map(|i| 0x2000 + i * 8).collect();
        let done = e.push(Inst::gather(addrs, 8, &[], 0));
        // All-hit AVX2 gather ≥ 22 cycles (paper §III-A).
        assert!(done - t0 >= 22, "gather latency {} < 22", done - t0);
    }

    #[test]
    fn gather_is_slower_than_vector_load() {
        let mut e1 = engine();
        let addrs: Vec<u64> = (0..4u64).map(|i| 0x3000 + i * 8).collect();
        e1.push(Inst::gather(addrs, 8, &[], 0));
        let g = e1.finish();

        let mut e2 = engine();
        e2.load(0x3000, 32);
        let l = e2.finish();
        assert!(g.cycles > l.cycles);
    }

    #[test]
    fn custom_op_requires_custom_unit() {
        let mut e = engine_with_custom();
        let done = e.custom_op(1, 3, false, &[]);
        let _ = done;
        let stats = e.finish();
        assert_eq!(stats.custom_ops, 1);
    }

    #[test]
    #[should_panic(expected = "no custom unit")]
    fn custom_op_panics_on_baseline() {
        let mut e = engine();
        e.custom_op(1, 3, false, &[]);
    }

    #[test]
    fn at_commit_waits_for_older_noncustom() {
        let mut e = engine_with_custom();
        // A slow cold load...
        e.load(0xdead000, 8);
        // ...blocks the commit-serialized custom op even without a register
        // dependence.
        let done = e.push(Inst::custom(1, 1, true, &[], None));
        assert!(
            done > MemConfig::default().dram_latency as u64,
            "at_commit op finished at {done}, before the cold load"
        );
    }

    #[test]
    fn at_commit_custom_ops_pipeline_among_themselves() {
        let mut e = engine_with_custom();
        // Many commit-serialized custom ops with occupancy 1, latency 10:
        // they pipeline (1/cycle), so 50 ops take ~60 cycles, not 500.
        for _ in 0..50 {
            e.push(Inst::custom(1, 10, true, &[], None));
        }
        let stats = e.finish();
        assert!(stats.cycles < 150, "cycles = {}", stats.cycles);
    }

    #[test]
    fn non_commit_custom_issues_early() {
        // A non-at_commit custom op should not wait for an older slow load.
        let mut e = engine_with_custom();
        e.load(0xbeef000, 8);
        let done = e.push(Inst::custom(1, 1, false, &[], None));
        assert!(done < MemConfig::default().dram_latency as u64);
    }

    #[test]
    fn fence_serializes() {
        let mut e = engine();
        e.load(0x8000000, 8); // cold: slow
        e.fence();
        let r = e.scalar_op(AluKind::Int, &[]);
        let _ = r;
        let stats = e.finish();
        let dram = MemConfig::default().dram_latency as u64;
        assert!(stats.cycles > dram, "post-fence work started too early");
    }

    #[test]
    fn store_load_dependency_through_registers() {
        let mut e = engine();
        let v = e.load(0x100, 8);
        e.store(0x200, 8, &[v]);
        // Model store-to-load forwarding delay by passing the stored value
        // register as a dep of the reload.
        let reload = e.load_dep(0x200, 8, &[v]);
        let _ = reload;
        let stats = e.finish();
        assert!(stats.cycles > 0);
        assert_eq!(stats.loads, 2);
        assert_eq!(stats.stores, 1);
    }

    #[test]
    fn multi_line_vector_load_touches_two_lines() {
        let mut e = engine();
        e.load(0x1000 - 8, 32); // crosses a 64B boundary
        let stats = e.finish();
        assert_eq!(stats.l1.misses, 2);
    }

    #[test]
    fn stats_count_op_classes() {
        let mut e = engine_with_custom();
        e.scalar_op(AluKind::Int, &[]);
        e.vec_op(VecOpKind::Fma, &[]);
        e.load(0x100, 8);
        e.store(0x200, 8, &[]);
        e.push(Inst::gather(vec![0x300, 0x400], 8, &[], 1));
        e.push(Inst::scatter(vec![0x500], 8, &[]));
        e.custom_op(1, 1, false, &[]);
        let stats = e.finish();
        assert_eq!(stats.scalar_ops, 1);
        assert_eq!(stats.vector_ops, 1);
        assert_eq!(stats.loads, 1);
        assert_eq!(stats.stores, 1);
        assert_eq!(stats.gathers, 1);
        assert_eq!(stats.scatters, 1);
        assert_eq!(stats.indexed_elems, 3);
        assert_eq!(stats.custom_ops, 1);
        assert_eq!(stats.instructions, 7);
    }

    #[test]
    fn commit_width_bounds_ipc() {
        let mut e = engine();
        for _ in 0..1000 {
            e.scalar_op(AluKind::Int, &[]);
        }
        let stats = e.finish();
        assert!(stats.ipc() <= CoreConfig::default().commit_width as f64 + 0.1);
    }

    #[test]
    fn predictable_branches_are_cheap() {
        // Always-taken branch: the 2-bit counter locks on after warmup.
        let mut e = engine();
        for _ in 0..200 {
            let r = e.scalar_op(AluKind::Int, &[]);
            e.branch(true, 7, &[r]);
        }
        let stats = e.finish();
        assert!(
            stats.mispredicts <= 1,
            "mispredicts = {}",
            stats.mispredicts
        );
        assert!(stats.cycles < 200, "cycles = {}", stats.cycles);
    }

    #[test]
    fn alternating_branches_pay_penalties() {
        let mut e = engine();
        for i in 0..200 {
            let r = e.scalar_op(AluKind::Int, &[]);
            e.branch(i % 2 == 0, 9, &[r]);
        }
        let stats = e.finish();
        assert!(
            stats.mispredicts > 50,
            "alternating pattern should mispredict often: {}",
            stats.mispredicts
        );
        // Each mispredict costs ~resolve + penalty.
        assert!(stats.cycles > 200 * 5, "cycles = {}", stats.cycles);
    }

    #[test]
    fn mispredict_cost_includes_late_resolve() {
        // A branch depending on a cold load resolves late; the redirect
        // pushes fetch past the miss latency.
        let mut e = engine();
        let r = e.load(0x900_0000, 8);
        e.branch(false, 11, &[r]); // counter starts weakly-taken → mispredict
        e.scalar_op(AluKind::Int, &[]);
        let stats = e.finish();
        assert!(
            stats.cycles > MemConfig::default().dram_latency as u64,
            "cycles = {}",
            stats.cycles
        );
        assert_eq!(stats.mispredicts, 1);
    }

    #[test]
    fn delay_adds_latency_to_dependents() {
        let mut e = engine();
        let r = e.scalar_op(AluKind::Int, &[]);
        let d = e.delay(50, &[r]);
        let done = e.push(Inst::scalar(AluKind::Int, &[d], None));
        assert!(done >= 51, "dependent completed at {done}");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "VIA001")]
    fn debug_hook_panics_on_undefined_register() {
        let mut e = engine();
        // Register 42 has no producer: silently treated as ready-at-0 by
        // the timing model, which is exactly the corruption class the
        // debug-build verifier hook must catch.
        e.push(Inst::scalar(AluKind::Int, &[42], None));
    }

    #[test]
    fn capture_collects_reports_instead_of_panicking() {
        let _guard = verify::capture_guard();
        let mut e = engine();
        e.push(Inst::scalar(AluKind::Int, &[42], None));
        let stats = e.finish();
        assert_eq!(stats.instructions, 1);
        let reports = verify::drain_captured();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].error_count(), 1);
        assert_eq!(
            reports[0]
                .with_code(verify::DiagCode::UndefinedRegister)
                .len(),
            1
        );
    }

    #[test]
    fn capture_flushes_one_report_per_reset() {
        let _guard = verify::capture_guard();
        let mut e = engine();
        e.scalar_op(AluKind::Int, &[]);
        e.reset();
        e.scalar_op(AluKind::Int, &[]);
        let _ = e.finish();
        let reports = verify::drain_captured();
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(verify::Report::is_clean));
    }

    #[test]
    fn report_diag_reaches_captured_report() {
        let _guard = verify::capture_guard();
        let mut e = engine();
        e.scalar_op(AluKind::Int, &[]);
        e.report_diag(verify::Diag::new(
            verify::DiagCode::SspmCamOverflowRisk,
            "test",
            "synthetic warning".to_string(),
        ));
        let _ = e.finish();
        let reports = verify::drain_captured();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].warning_count(), 1);
        assert!(reports[0].is_clean(), "warnings are not violations");
    }

    fn mixed_workload(e: &mut Engine) {
        for i in 0..200u64 {
            let r = e.load(0x1000 + (i * 192) % 4096, 8);
            let s = e.scalar_op(AluKind::FpAdd, &[r]);
            e.vec_op(VecOpKind::Fma, &[s]);
            e.branch(i % 7 != 0, 3, &[s]);
            if i % 16 == 0 {
                let addrs: Vec<u64> = (0..4).map(|k| 0x8000 + ((i + k) * 72) % 2048).collect();
                let dst = e.fresh_reg();
                e.push(Inst::gather(addrs, 8, &[s], dst));
            }
        }
    }

    #[test]
    fn recording_does_not_perturb_timing() {
        let mut plain = engine();
        mixed_workload(&mut plain);
        let mut recorded = engine();
        recorded.enable_recording();
        assert!(recorded.recording_enabled());
        mixed_workload(&mut recorded);
        let stream = recorded.take_compiled().expect("recording was on");
        assert!(!recorded.recording_enabled());
        assert_eq!(stream.len() as u64, 200 * 4 + 13);
        assert_eq!(plain.finish(), recorded.finish());
    }

    #[test]
    fn emit_only_records_the_same_stream_as_a_timed_run() {
        let mut timed = engine();
        timed.enable_recording();
        mixed_workload(&mut timed);
        let timed_stream = timed.take_compiled().expect("recording was on");
        let timed_stats = timed.finish();

        let mut fast = engine();
        fast.enable_recording();
        fast.enable_emit_only();
        assert!(fast.emit_only_enabled());
        mixed_workload(&mut fast);
        let fast_stream = fast.take_compiled().expect("recording was on");

        // Identical instructions, events, and verify report — the stream
        // hash covers all three inputs the replay path consumes.
        assert_eq!(fast_stream.stream_hash(), timed_stream.stream_hash());
        assert_eq!(fast_stream.verify(), timed_stream.verify());

        // Replaying the emit-only stream reproduces the timed run exactly.
        let mut replayer = engine();
        replayer.replay(&fast_stream);
        assert_eq!(replayer.finish(), timed_stats);
    }

    #[test]
    fn reset_clears_emit_only() {
        let mut e = engine();
        e.enable_emit_only();
        e.scalar_op(AluKind::Int, &[]);
        assert_eq!(e.stats_so_far().cycles, 0);
        e.reset();
        assert!(!e.emit_only_enabled());
        e.scalar_op(AluKind::Int, &[]);
        let stats = e.finish();
        assert!(stats.cycles > 0, "timing resumed after reset");
    }

    #[test]
    fn replay_is_bit_identical_to_interpretation() {
        let mut recorded = engine();
        recorded.enable_stall_accounting();
        recorded.enable_recording();
        mixed_workload(&mut recorded);
        let stream = recorded.take_compiled().expect("recording was on");
        let recorded_stalls = recorded.stall_report();
        let recorded_stats = recorded.finish();

        let mut replayer = engine();
        replayer.enable_stall_accounting();
        let last = replayer.replay(&stream);
        assert_eq!(replayer.stall_report(), recorded_stalls);
        let replayed_stats = replayer.finish();
        assert_eq!(replayed_stats, recorded_stats);
        assert!(last <= replayed_stats.cycles);
    }

    #[test]
    fn replay_flushes_the_compile_time_report_under_capture() {
        let _guard = verify::capture_guard();
        let mut recorded = engine();
        recorded.enable_recording();
        // Undefined source register: captured as VIA001 instead of a panic.
        recorded.push(Inst::scalar(AluKind::Int, &[42], None));
        let stream = recorded.take_compiled().expect("recording was on");
        let _ = recorded.finish();
        let from_recording = verify::drain_captured();
        assert_eq!(from_recording.len(), 1);

        let mut replayer = engine();
        replayer.replay(&stream);
        let _ = replayer.finish();
        let from_replay = verify::drain_captured();
        assert_eq!(from_replay.len(), 1);
        // Bit-identical diagnostics across the two paths, and both match
        // the stream's one-shot report.
        assert_eq!(from_replay, from_recording);
        assert_eq!(&from_replay[0], stream.verify());
        assert_eq!(from_replay[0].error_count(), 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "VIA001")]
    fn debug_replay_panics_on_error_carrying_stream() {
        use crate::compile::CompiledStream;
        use crate::verify::Program;
        // Compile offline (no engine, no capture): the error lands in the
        // stream's report rather than panicking.
        let prog: Program = vec![Inst::scalar(AluKind::Int, &[42], None)]
            .into_iter()
            .collect();
        let stream =
            CompiledStream::compile(prog, &VerifyConfig::from_core(&CoreConfig::default()));
        assert_eq!(stream.verify().error_count(), 1);
        engine().replay(&stream);
    }

    #[test]
    fn reset_clears_replay_state_between_runs() {
        let _guard = verify::capture_guard();
        let mut recorded = engine();
        recorded.enable_recording();
        recorded.scalar_op(AluKind::Int, &[]);
        let stream = recorded.take_compiled().expect("recording was on");
        let _ = recorded.finish();

        let mut e = engine();
        e.replay(&stream);
        e.reset();
        // A fresh interpreted run after the reset flushes its own (clean)
        // streaming report, not the stale replayed one.
        e.push(Inst::scalar(AluKind::Int, &[7], None));
        let _ = e.finish();
        let reports = verify::drain_captured();
        assert_eq!(reports.len(), 3); // recorded run + replay + interpreted
        assert_eq!(reports[2].error_count(), 1);
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut e = engine();
            for i in 0..100u64 {
                let r = e.load(0x1000 + (i * 192) % 4096, 8);
                e.scalar_op(AluKind::FpAdd, &[r]);
            }
            e.finish()
        };
        assert_eq!(run(), run());
    }
}
