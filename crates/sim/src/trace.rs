//! `via-trace`: stall-cause accounting and structured event traces.
//!
//! The engine's end-to-end cycle count says *that* a kernel is slow, not
//! *why*. This module attributes every simulated cycle to exactly one
//! cause, so the paper's explanatory claims — gather/scatter
//! serialization, branch-hostile index matching, DRAM bandwidth
//! saturation (paper §VI) — become observed quantities instead of
//! assertions.
//!
//! # Accounting model
//!
//! The engine is an interval-style analytical model: instructions overlap
//! arbitrarily, so "cycles instruction *i* waited" double-counts time.
//! Instead we attribute the **commit frontier**: commit times are monotone
//! non-decreasing, so each pushed instruction advances the frontier by
//! `commit − previous_commit` cycles, and those cycles — and only those —
//! are charged to that instruction. The frontier delta is tiled with the
//! instruction's own lifecycle boundaries (fetch gate → fetch → ready →
//! issue → complete → commit), each clipped segment booked to one
//! [`StallCause`]. Summed over a run, the attribution equals the final
//! commit frontier, i.e. exactly [`RunStats::cycles`](crate::RunStats) —
//! the conservation invariant the test suite pins down.
//!
//! A property worth knowing when reading reports: with in-order commit,
//! by the time the frontier reaches an instruction its producers have
//! already committed, so *shadow* waits (operand dependences, the
//! at-commit gate) overlap work already charged to older instructions and
//! largely fold into the producer's own cause — a dependent FMA chain
//! reads as `vec/active` (the unit is the critical path), a load-use
//! chain as `load/dram_bw`. This is the classic CPI-stack behaviour, not
//! an accounting bug; [`StallCause::Dependency`] still surfaces fence
//! drains and redirect shadows.
//!
//! Accounting is always compiled and zero-cost when disabled (one branch
//! per push); timing math is never touched, so golden cycle counts are
//! bit-identical with tracing on or off.
//!
//! # Event traces
//!
//! [`Engine::enable_trace_events`](crate::Engine::enable_trace_events)
//! additionally records a bounded ring of per-instruction lifecycle
//! events (plus region begin/end and instant markers such as SSPM mode
//! transitions) which [`Engine::chrome_trace`](crate::Engine::chrome_trace)
//! exports as Chrome trace-event JSON loadable in Perfetto
//! (<https://ui.perfetto.dev>).

use crate::prog::Op;
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Where a frontier cycle went. Every simulated cycle is attributed to
/// exactly one of these; [`StallCause::Active`] is the non-stall residual
/// (issue/execute/transfer time on the critical path).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum StallCause {
    /// Fetch blocked because the instruction `rob_size` ahead had not
    /// committed.
    RobFull = 0,
    /// Fetch blocked behind a branch-mispredict redirect (or an explicit
    /// fence's serialization point).
    BranchRedirect,
    /// Fetch-width serialization: the front end delivers at most
    /// `fetch_width` instructions per cycle.
    FetchWidth,
    /// Waiting on source operands (producer had not completed), or on a
    /// fence draining older instructions.
    Dependency,
    /// Waiting for a scalar/vector ALU or a custom (FIVU) unit slot.
    FuSlot,
    /// Waiting for a load-port slot (includes gather element
    /// serialization).
    LoadPort,
    /// Waiting for a store-port slot (includes scatter element
    /// serialization).
    StorePort,
    /// Explicit store-buffer drain delay modeled by kernels
    /// ([`Op::Delay`]).
    StoreBufferDrain,
    /// Queuing for the DRAM channel's bandwidth calendar.
    DramBandwidth,
    /// A commit-serialized custom (VIA) op waiting for all older
    /// non-custom instructions to complete (paper §IV-E).
    CommitGate,
    /// Commit-width serialization and in-order commit behind the frontier.
    CommitWidth,
    /// Not a stall: issue/execute/memory-transfer time on the critical
    /// path.
    Active,
}

/// Number of [`StallCause`] variants.
pub const CAUSE_COUNT: usize = 12;

impl StallCause {
    /// All causes, in display order.
    pub const ALL: [StallCause; CAUSE_COUNT] = [
        StallCause::RobFull,
        StallCause::BranchRedirect,
        StallCause::FetchWidth,
        StallCause::Dependency,
        StallCause::FuSlot,
        StallCause::LoadPort,
        StallCause::StorePort,
        StallCause::StoreBufferDrain,
        StallCause::DramBandwidth,
        StallCause::CommitGate,
        StallCause::CommitWidth,
        StallCause::Active,
    ];

    /// Short stable name used in reports and JSON.
    pub fn name(self) -> &'static str {
        match self {
            StallCause::RobFull => "rob_full",
            StallCause::BranchRedirect => "branch_redirect",
            StallCause::FetchWidth => "fetch_width",
            StallCause::Dependency => "dependency",
            StallCause::FuSlot => "fu_slot",
            StallCause::LoadPort => "load_port",
            StallCause::StorePort => "store_port",
            StallCause::StoreBufferDrain => "sb_drain",
            StallCause::DramBandwidth => "dram_bw",
            StallCause::CommitGate => "commit_gate",
            StallCause::CommitWidth => "commit_width",
            StallCause::Active => "active",
        }
    }

    /// Whether this cause is a stall (everything except
    /// [`StallCause::Active`]).
    pub fn is_stall(self) -> bool {
        self != StallCause::Active
    }
}

/// Opcode class an attribution or event is filed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum OpClass {
    /// Scalar ALU ops.
    Scalar = 0,
    /// Vector ALU ops.
    Vec,
    /// Unit-stride loads.
    Load,
    /// Unit-stride stores.
    Store,
    /// Indexed gathers.
    Gather,
    /// Indexed scatters.
    Scatter,
    /// Custom (FIVU / `vldx*`) ops.
    Custom,
    /// Data-dependent branches.
    Branch,
    /// Pure timing delays.
    Delay,
    /// Serialization fences.
    Fence,
}

/// Number of [`OpClass`] variants.
pub const CLASS_COUNT: usize = 10;

impl OpClass {
    /// All classes, in display order.
    pub const ALL: [OpClass; CLASS_COUNT] = [
        OpClass::Scalar,
        OpClass::Vec,
        OpClass::Load,
        OpClass::Store,
        OpClass::Gather,
        OpClass::Scatter,
        OpClass::Custom,
        OpClass::Branch,
        OpClass::Delay,
        OpClass::Fence,
    ];

    /// The class of an op.
    pub fn of(op: &Op) -> OpClass {
        match op {
            Op::Scalar { .. } => OpClass::Scalar,
            Op::Vec { .. } => OpClass::Vec,
            Op::Load { .. } => OpClass::Load,
            Op::Store { .. } => OpClass::Store,
            Op::Gather { .. } => OpClass::Gather,
            Op::Scatter { .. } => OpClass::Scatter,
            Op::Custom { .. } => OpClass::Custom,
            Op::Branch { .. } => OpClass::Branch,
            Op::Delay { .. } => OpClass::Delay,
            Op::Fence => OpClass::Fence,
        }
    }

    /// Short stable name (matches [`Op::tag`]).
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Scalar => "scalar",
            OpClass::Vec => "vec",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::Gather => "gather",
            OpClass::Scatter => "scatter",
            OpClass::Custom => "custom",
            OpClass::Branch => "branch",
            OpClass::Delay => "delay",
            OpClass::Fence => "fence",
        }
    }
}

/// Deepest memory level a traced instruction's accesses reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum MemLevel {
    /// No memory access.
    #[default]
    None = 0,
    /// Every access hit in L1.
    L1 = 1,
    /// Deepest access resolved in L2.
    L2 = 2,
    /// Deepest access resolved in L3.
    L3 = 3,
    /// Deepest access went to DRAM.
    Dram = 4,
}

impl MemLevel {
    pub(crate) fn from_mark(mark: u8) -> MemLevel {
        match mark {
            1 => MemLevel::L1,
            2 => MemLevel::L2,
            3 => MemLevel::L3,
            4 => MemLevel::Dram,
            _ => MemLevel::None,
        }
    }

    /// Short stable name.
    pub fn name(self) -> &'static str {
        match self {
            MemLevel::None => "-",
            MemLevel::L1 => "l1",
            MemLevel::L2 => "l2",
            MemLevel::L3 => "l3",
            MemLevel::Dram => "dram",
        }
    }
}

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// One instruction's lifecycle.
    Inst {
        /// Push index (position in the dynamic stream).
        index: u64,
        /// Opcode class.
        class: OpClass,
        /// Region id at push time (see [`StallReport::regions`]).
        region: u16,
        /// Fetch cycle.
        fetch: u64,
        /// Issue cycle (operands ready and unit acquired).
        issue: u64,
        /// Completion cycle.
        complete: u64,
        /// Commit cycle.
        commit: u64,
        /// Deepest memory level touched.
        level: MemLevel,
    },
    /// An instant marker (e.g. an SSPM mode transition).
    Marker {
        /// Marker label.
        name: &'static str,
        /// Commit-frontier cycle at which it was recorded.
        at: u64,
    },
    /// A region was entered.
    RegionBegin {
        /// Region id.
        region: u16,
        /// Commit-frontier cycle at entry.
        at: u64,
    },
    /// A region was left.
    RegionEnd {
        /// Region id.
        region: u16,
        /// Commit-frontier cycle at exit.
        at: u64,
    },
}

/// Bounded ring buffer of [`TraceEvent`]s: the sweeps retire millions of
/// instructions, so only the most recent `capacity` events are kept and
/// older ones are counted as dropped.
#[derive(Debug, Clone, Default)]
pub struct EventRing {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
}

impl EventRing {
    /// A ring keeping the most recent `capacity` events.
    pub fn new(capacity: usize) -> Self {
        EventRing {
            capacity: capacity.max(1),
            events: VecDeque::with_capacity(capacity.clamp(1, 1 << 20)),
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest when full.
    pub fn record(&mut self, event: TraceEvent) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drops all retained events (capacity kept).
    pub fn clear(&mut self) {
        self.events.clear();
        self.dropped = 0;
    }
}

/// Per-region stall accumulator inside the engine.
#[derive(Debug, Clone)]
pub(crate) struct RegionAcc {
    pub(crate) name: &'static str,
    pub(crate) cycles: [u64; CAUSE_COUNT],
}

/// Engine-side trace state: accounting accumulators, the region stack, and
/// the optional event ring. Always present; a disabled state costs one
/// branch per push.
#[derive(Debug, Default)]
pub(crate) struct TraceState {
    pub(crate) accounting: bool,
    pub(crate) by_class: [[u64; CAUSE_COUNT]; CLASS_COUNT],
    pub(crate) regions: Vec<RegionAcc>,
    pub(crate) stack: Vec<u16>,
    pub(crate) current: u16,
    pub(crate) events: Option<EventRing>,
}

impl TraceState {
    /// Whether pushes need any trace work at all.
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.accounting || self.events.is_some()
    }

    /// Ensures the root region exists (id 0).
    pub(crate) fn ensure_root(&mut self) {
        if self.regions.is_empty() {
            self.regions.push(RegionAcc {
                name: "(top)",
                cycles: [0; CAUSE_COUNT],
            });
        }
    }

    /// Interns `name`, returning its region id.
    pub(crate) fn intern(&mut self, name: &'static str) -> u16 {
        self.ensure_root();
        if let Some(i) = self.regions.iter().position(|r| r.name == name) {
            return i as u16;
        }
        assert!(self.regions.len() < u16::MAX as usize, "too many regions");
        self.regions.push(RegionAcc {
            name,
            cycles: [0; CAUSE_COUNT],
        });
        (self.regions.len() - 1) as u16
    }

    /// Charges `d` frontier cycles to `cause` under `class` and the
    /// current region.
    #[inline]
    pub(crate) fn charge(&mut self, class: OpClass, cause: StallCause, d: u64) {
        self.by_class[class as usize][cause as usize] += d;
        self.regions[self.current as usize].cycles[cause as usize] += d;
    }

    /// Clears all accumulated data and the region stack; keeps the enabled
    /// flags and the ring capacity (so a reused engine keeps tracing).
    pub(crate) fn clear(&mut self) {
        self.by_class = [[0; CAUSE_COUNT]; CLASS_COUNT];
        self.regions.clear();
        self.stack.clear();
        self.current = 0;
        if self.accounting || self.events.is_some() {
            self.ensure_root();
        }
        if let Some(ring) = &mut self.events {
            ring.clear();
        }
    }

    /// Region name for an id (export helper).
    pub(crate) fn region_name(&self, id: u16) -> &'static str {
        self.regions
            .get(id as usize)
            .map(|r| r.name)
            .unwrap_or("(top)")
    }
}

/// Per-region stall totals in a [`StallReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionStalls {
    /// The region label the kernel pushed (`"(top)"` for unlabeled code).
    pub name: String,
    /// Cycles per [`StallCause`], indexed by `cause as usize`.
    pub cycles: [u64; CAUSE_COUNT],
}

/// A snapshot of stall-cause accounting for one run (or a merge of many).
///
/// Conservation invariant: [`StallReport::attributed`] equals
/// [`StallReport::total_cycles`] exactly — every simulated cycle is
/// attributed to exactly one cause.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StallReport {
    /// Total simulated cycles covered by this report.
    pub total_cycles: u64,
    /// Cycles per opcode class per cause: `by_class[class][cause]`.
    pub by_class: [[u64; CAUSE_COUNT]; CLASS_COUNT],
    /// Per-region totals, in interning order (`regions[0]` is the
    /// top-level region).
    pub regions: Vec<RegionStalls>,
}

impl StallReport {
    /// Total cycles attributed across all classes and causes.
    pub fn attributed(&self) -> u64 {
        self.by_class.iter().flatten().sum()
    }

    /// Total cycles for one cause across all classes.
    pub fn cause_total(&self, cause: StallCause) -> u64 {
        self.by_class.iter().map(|row| row[cause as usize]).sum()
    }

    /// Total cycles attributed to one opcode class across all causes.
    pub fn class_total(&self, class: OpClass) -> u64 {
        self.by_class[class as usize].iter().sum()
    }

    /// Cycles for one (class, cause) cell.
    pub fn cell(&self, class: OpClass, cause: StallCause) -> u64 {
        self.by_class[class as usize][cause as usize]
    }

    /// Non-stall (issue/execute) cycles.
    pub fn active(&self) -> u64 {
        self.cause_total(StallCause::Active)
    }

    /// Total stall cycles (everything except [`StallCause::Active`]).
    pub fn stalled(&self) -> u64 {
        self.attributed() - self.active()
    }

    /// Fraction of total cycles spent on `cause` (0 when empty).
    pub fn share(&self, cause: StallCause) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        self.cause_total(cause) as f64 / self.total_cycles as f64
    }

    /// Accumulates another report into this one. Class/cause cells add;
    /// regions merge by name (unknown names are appended).
    pub fn merge(&mut self, other: &StallReport) {
        self.total_cycles += other.total_cycles;
        for (mine, theirs) in self.by_class.iter_mut().zip(other.by_class.iter()) {
            for (m, t) in mine.iter_mut().zip(theirs.iter()) {
                *m += *t;
            }
        }
        for region in &other.regions {
            if let Some(mine) = self.regions.iter_mut().find(|r| r.name == region.name) {
                for (m, t) in mine.cycles.iter_mut().zip(region.cycles.iter()) {
                    *m += *t;
                }
            } else {
                self.regions.push(region.clone());
            }
        }
    }

    /// The `n` largest (class, cause) stall cells, largest first
    /// ([`StallCause::Active`] excluded).
    pub fn top_stalls(&self, n: usize) -> Vec<(OpClass, StallCause, u64)> {
        let mut cells = Vec::new();
        for &class in &OpClass::ALL {
            for &cause in &StallCause::ALL {
                if !cause.is_stall() {
                    continue;
                }
                let c = self.cell(class, cause);
                if c > 0 {
                    cells.push((class, cause, c));
                }
            }
        }
        cells.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| (a.0, a.1).cmp(&(b.0, b.1))));
        cells.truncate(n);
        cells
    }

    /// Compact text report: totals line, top-`n` stall table, and
    /// per-region rollup.
    pub fn render(&self, n: usize) -> String {
        let mut out = String::new();
        let total = self.total_cycles.max(1);
        let _ = writeln!(
            out,
            "cycles {}  active {} ({:.1}%)  stalled {} ({:.1}%)",
            self.total_cycles,
            self.active(),
            100.0 * self.active() as f64 / total as f64,
            self.stalled(),
            100.0 * self.stalled() as f64 / total as f64,
        );
        let _ = writeln!(
            out,
            "  {:<10} {:<16} {:>14} {:>7}",
            "class", "cause", "cycles", "share"
        );
        for (class, cause, cycles) in self.top_stalls(n) {
            let _ = writeln!(
                out,
                "  {:<10} {:<16} {:>14} {:>6.1}%",
                class.name(),
                cause.name(),
                cycles,
                100.0 * cycles as f64 / total as f64,
            );
        }
        let labeled: Vec<&RegionStalls> = self
            .regions
            .iter()
            .filter(|r| r.cycles.iter().any(|&c| c > 0))
            .collect();
        if labeled.len() > 1 {
            let _ = writeln!(out, "  regions:");
            for region in labeled {
                let sum: u64 = region.cycles.iter().sum();
                let active = region.cycles[StallCause::Active as usize];
                let _ = writeln!(
                    out,
                    "    {:<18} {:>14} cycles  ({:.1}% active)",
                    region.name,
                    sum,
                    100.0 * active as f64 / sum.max(1) as f64,
                );
            }
        }
        out
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serializes a ring of events as Chrome trace-event JSON (the
/// `traceEvents` array format), loadable in Perfetto or `chrome://tracing`.
///
/// Instructions become `"ph":"X"` duration slices on one track per opcode
/// class; markers become `"ph":"i"` instants; regions become `"ph":"B"` /
/// `"ph":"E"` spans on a dedicated track. Timestamps are simulated cycles
/// and are emitted in non-decreasing order.
pub fn chrome_trace_json(ring: &EventRing, region_name: impl Fn(u16) -> &'static str) -> String {
    const REGION_TID: usize = CLASS_COUNT + 1;
    // (ts, seq, fragment): stable order by timestamp.
    let mut entries: Vec<(u64, usize, String)> = Vec::with_capacity(ring.len() + CLASS_COUNT);
    for (seq, event) in ring.events().enumerate() {
        match event {
            TraceEvent::Inst {
                index,
                class,
                region,
                fetch,
                issue,
                complete,
                commit,
                level,
            } => {
                let dur = commit.saturating_sub(*fetch).max(1);
                entries.push((
                    *fetch,
                    seq,
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"inst\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                         \"pid\":0,\"tid\":{},\"args\":{{\"index\":{},\"region\":\"{}\",\
                         \"issue\":{},\"complete\":{},\"level\":\"{}\"}}}}",
                        class.name(),
                        fetch,
                        dur,
                        *class as usize + 1,
                        index,
                        escape_json(region_name(*region)),
                        issue,
                        complete,
                        level.name(),
                    ),
                ));
            }
            TraceEvent::Marker { name, at } => {
                entries.push((
                    *at,
                    seq,
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"marker\",\"ph\":\"i\",\"s\":\"g\",\
                         \"ts\":{},\"pid\":0,\"tid\":0}}",
                        escape_json(name),
                        at,
                    ),
                ));
            }
            TraceEvent::RegionBegin { region, at } => {
                entries.push((
                    *at,
                    seq,
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"region\",\"ph\":\"B\",\"ts\":{},\
                         \"pid\":0,\"tid\":{}}}",
                        escape_json(region_name(*region)),
                        at,
                        REGION_TID,
                    ),
                ));
            }
            TraceEvent::RegionEnd { region, at } => {
                entries.push((
                    *at,
                    seq,
                    format!(
                        "{{\"name\":\"{}\",\"cat\":\"region\",\"ph\":\"E\",\"ts\":{},\
                         \"pid\":0,\"tid\":{}}}",
                        escape_json(region_name(*region)),
                        at,
                        REGION_TID,
                    ),
                ));
            }
        }
    }
    entries.sort_by_key(|&(ts, seq, _)| (ts, seq));

    let mut out = String::from("{\"traceEvents\":[");
    // Track-name metadata first (ts-less, allowed anywhere).
    let mut first = true;
    for &class in &OpClass::ALL {
        let _ = write!(
            out,
            "{}{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
             \"args\":{{\"name\":\"{}\"}}}}",
            if first { "" } else { "," },
            class as usize + 1,
            class.name(),
        );
        first = false;
    }
    let _ = write!(
        out,
        ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{REGION_TID},\
         \"args\":{{\"name\":\"regions\"}}}}"
    );
    let _ = write!(
        out,
        ",{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{{\"name\":\"markers\"}}}}"
    );
    for (_, _, fragment) in &entries {
        out.push(',');
        out.push_str(fragment);
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cause_names_are_unique() {
        let mut names: Vec<&str> = StallCause::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), CAUSE_COUNT);
    }

    #[test]
    fn class_of_covers_every_op() {
        assert_eq!(OpClass::of(&Op::Fence), OpClass::Fence);
        assert_eq!(OpClass::of(&Op::Delay { cycles: 3 }), OpClass::Delay);
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let mut ring = EventRing::new(2);
        for i in 0..5 {
            ring.record(TraceEvent::Marker { name: "m", at: i });
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 3);
        let ats: Vec<u64> = ring
            .events()
            .map(|e| match e {
                TraceEvent::Marker { at, .. } => *at,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ats, vec![3, 4]);
        ring.clear();
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn report_merge_adds_cells_and_regions() {
        let mut a = StallReport {
            total_cycles: 10,
            ..StallReport::default()
        };
        a.by_class[OpClass::Load as usize][StallCause::DramBandwidth as usize] = 6;
        a.regions.push(RegionStalls {
            name: "row".to_string(),
            cycles: [0; CAUSE_COUNT],
        });
        let mut b = StallReport {
            total_cycles: 5,
            ..StallReport::default()
        };
        b.by_class[OpClass::Load as usize][StallCause::DramBandwidth as usize] = 2;
        b.regions.push(RegionStalls {
            name: "flush".to_string(),
            cycles: [0; CAUSE_COUNT],
        });
        a.merge(&b);
        assert_eq!(a.total_cycles, 15);
        assert_eq!(a.cell(OpClass::Load, StallCause::DramBandwidth), 8);
        assert_eq!(a.regions.len(), 2);
    }

    #[test]
    fn top_stalls_sorts_and_excludes_active() {
        let mut r = StallReport {
            total_cycles: 100,
            ..Default::default()
        };
        r.by_class[OpClass::Gather as usize][StallCause::LoadPort as usize] = 50;
        r.by_class[OpClass::Load as usize][StallCause::DramBandwidth as usize] = 30;
        r.by_class[OpClass::Scalar as usize][StallCause::Active as usize] = 20;
        let top = r.top_stalls(10);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0], (OpClass::Gather, StallCause::LoadPort, 50));
        assert_eq!(top[1], (OpClass::Load, StallCause::DramBandwidth, 30));
        assert!(r.render(5).contains("gather"));
    }

    #[test]
    fn chrome_json_escapes_and_orders() {
        let mut ring = EventRing::new(8);
        ring.record(TraceEvent::Inst {
            index: 1,
            class: OpClass::Load,
            region: 0,
            fetch: 10,
            issue: 10,
            complete: 14,
            commit: 15,
            level: MemLevel::Dram,
        });
        ring.record(TraceEvent::Marker {
            name: "sspm mode: cam",
            at: 5,
        });
        let json = chrome_trace_json(&ring, |_| "(top)");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"load\""));
        // The marker at ts 5 must appear before the instruction at ts 10.
        let marker_pos = json.find("sspm mode: cam").unwrap();
        let inst_pos = json.find("\"cat\":\"inst\"").unwrap();
        assert!(marker_pos < inst_pos);
    }
}
