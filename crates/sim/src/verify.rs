//! Static verification of instruction streams (`via-verify`).
//!
//! Every experiment is only as trustworthy as the dynamic instruction
//! streams the kernels emit: a malformed source register, a gather whose
//! address list disagrees with the machine vector length, or an SSPM op
//! issued in the wrong mode silently corrupts modeled cycle counts instead
//! of failing loudly (the engine's register file returns "ready at cycle 0"
//! for registers no instruction ever produced). This module is the analysis
//! layer that makes those corruptions loud:
//!
//! * [`Verifier`] — a streaming checker with O(1) amortized work per
//!   instruction. [`Engine::new`](crate::Engine::new) attaches one in
//!   debug builds (panicking on the first error) and, in release builds,
//!   only when [capture](capture_guard) is on, so the `verify_programs`
//!   binary can sweep every kernel × format with the shipping optimized
//!   code. The engine runs it over every instruction it pushes *or
//!   replays*; recording a stream attaches nothing extra.
//! * [`Program`] + [`verify_program`] — an offline API over a recorded
//!   instruction list, used by negative tests that hand-corrupt streams.
//! * [`Diag`]/[`DiagCode`]/[`Report`] — rustc-style diagnostics
//!   (`error[VIA001]: ...`) with stable machine-readable codes. The SSPM
//!   mode checker in `via-core` reports through the same types via
//!   [`Engine::report_diag`](crate::Engine::report_diag).
//!
//! # Diagnostic codes
//!
//! | code | severity | meaning |
//! |---|---|---|
//! | VIA001 | error | source register never defined by an earlier instruction |
//! | VIA002 | error | register outside the program's declared register count |
//! | VIA003 | error | instruction depends on its own first definition (cycle) |
//! | VIA004 | error | gather/scatter address list empty or longer than VL |
//! | VIA005 | warning | duplicate source registers |
//! | VIA006 | error | custom (FIVU) op on a core with no custom unit |
//! | VIA007 | warning | degenerate operand (zero-byte access, zero-cost custom op) |
//! | VIA008 | error | gather overlapping a pending scatter with no ordering |
//! | VIA009 | error | CAM write over a dirty direct-mapped low region |
//! | VIA010 | error | direct write into CAM-owned SSPM entries |
//! | VIA011 | error | index-table read while no indices are tracked |
//! | VIA012 | warning | CAM insertions may exceed the index-table capacity |
//! | VIA101 | analysis | register write dead: redefined before any read |
//! | VIA102 | analysis | stored bytes fully overwritten before any read |
//! | VIA103 | analysis | gather must-aliases an earlier unordered scatter |
//! | VIA104 | analysis | proven CAM index-table occupancy above capacity |
//!
//! "Violations" throughout the repo means **errors**; warnings are reported
//! but never fail a gate. The `VIA1xx` block is reserved for the whole-stream
//! dataflow passes in [`mod@crate::analyze`]: *analysis* findings are proven
//! facts about a finished stream (inefficiencies, sharpened occupancy
//! bounds), not structural defects, and never fail a gate either.

use crate::config::CoreConfig;
use crate::prog::{Inst, Op, Reg};
use std::cell::{Cell, RefCell};
use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The stream is structurally usable but suspicious.
    Warning,
    /// The stream would be silently mis-simulated (a *violation*).
    Error,
    /// A proven whole-stream fact from the [`mod@crate::analyze`] passes
    /// (dead work, sharpened occupancy bounds); informational, never a
    /// violation.
    Analysis,
}

/// Stable machine-readable diagnostic codes (`VIA001`..`VIA012`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DiagCode {
    /// VIA001: a source register no earlier instruction defined.
    UndefinedRegister,
    /// VIA002: a register at or beyond the declared register count.
    RegisterOutOfRange,
    /// VIA003: an instruction whose first definition depends on itself.
    SelfDependency,
    /// VIA004: gather/scatter address list empty or longer than the
    /// machine vector length.
    AddrListMismatch,
    /// VIA005: the same register listed twice as a source.
    DuplicateSources,
    /// VIA006: a custom (FIVU) op pushed on a core with no custom unit.
    CustomWithoutUnit,
    /// VIA007: a degenerate operand (zero-byte memory access or a
    /// zero-occupancy/latency custom op).
    DegenerateOperand,
    /// VIA008: a gather reading a line with a pending scatter and no
    /// ordering dependence (gathers cannot forward from the store buffer).
    UnorderedGatherAfterScatter,
    /// VIA009: a CAM write while the direct-mapped low region holds live
    /// data (no intervening `vldxclear`).
    SspmModeConflict,
    /// VIA010: a direct-mapped write into SRAM entries owned by tracked
    /// CAM indices.
    SspmDirectWriteUnderCam,
    /// VIA011: `vldxloadidx` while the element count is provably zero.
    SspmIndexReadEmpty,
    /// VIA012: CAM insertions that may overflow the index table.
    SspmCamOverflowRisk,
    /// VIA101: a register write that is provably dead — the register is
    /// redefined later with no intervening read.
    DeadRegisterWrite,
    /// VIA102: a store whose bytes are all overwritten before any load,
    /// gather, or scatter-read observes them.
    DeadStore,
    /// VIA103: a gather that byte-exactly overlaps an earlier scatter in
    /// the whole stream with no ordering evidence (sharpens the windowed
    /// dynamic VIA008 check).
    MustAliasConflict,
    /// VIA104: a proven upper bound on CAM index-table occupancy that
    /// exceeds the configured capacity (sharpens VIA011/VIA012).
    CamOccupancyBound,
}

impl DiagCode {
    /// The stable `VIAxxx` code string.
    pub fn code(self) -> &'static str {
        match self {
            DiagCode::UndefinedRegister => "VIA001",
            DiagCode::RegisterOutOfRange => "VIA002",
            DiagCode::SelfDependency => "VIA003",
            DiagCode::AddrListMismatch => "VIA004",
            DiagCode::DuplicateSources => "VIA005",
            DiagCode::CustomWithoutUnit => "VIA006",
            DiagCode::DegenerateOperand => "VIA007",
            DiagCode::UnorderedGatherAfterScatter => "VIA008",
            DiagCode::SspmModeConflict => "VIA009",
            DiagCode::SspmDirectWriteUnderCam => "VIA010",
            DiagCode::SspmIndexReadEmpty => "VIA011",
            DiagCode::SspmCamOverflowRisk => "VIA012",
            DiagCode::DeadRegisterWrite => "VIA101",
            DiagCode::DeadStore => "VIA102",
            DiagCode::MustAliasConflict => "VIA103",
            DiagCode::CamOccupancyBound => "VIA104",
        }
    }

    /// Alias for [`DiagCode::code`]; the README diagnostic table is kept in
    /// sync against this name.
    pub fn as_str(self) -> &'static str {
        self.code()
    }

    /// Every diagnostic code, in `VIAxxx` order (used by the README table
    /// sync test and exhaustive negative-test coverage checks).
    pub const ALL: [DiagCode; 16] = [
        DiagCode::UndefinedRegister,
        DiagCode::RegisterOutOfRange,
        DiagCode::SelfDependency,
        DiagCode::AddrListMismatch,
        DiagCode::DuplicateSources,
        DiagCode::CustomWithoutUnit,
        DiagCode::DegenerateOperand,
        DiagCode::UnorderedGatherAfterScatter,
        DiagCode::SspmModeConflict,
        DiagCode::SspmDirectWriteUnderCam,
        DiagCode::SspmIndexReadEmpty,
        DiagCode::SspmCamOverflowRisk,
        DiagCode::DeadRegisterWrite,
        DiagCode::DeadStore,
        DiagCode::MustAliasConflict,
        DiagCode::CamOccupancyBound,
    ];

    /// The severity class of this code.
    pub fn severity(self) -> Severity {
        match self {
            DiagCode::DuplicateSources
            | DiagCode::DegenerateOperand
            | DiagCode::SspmCamOverflowRisk => Severity::Warning,
            DiagCode::DeadRegisterWrite
            | DiagCode::DeadStore
            | DiagCode::MustAliasConflict
            | DiagCode::CamOccupancyBound => Severity::Analysis,
            _ => Severity::Error,
        }
    }

    /// A one-line summary of what the code means.
    pub fn summary(self) -> &'static str {
        match self {
            DiagCode::UndefinedRegister => "use of undefined register",
            DiagCode::RegisterOutOfRange => "register out of declared range",
            DiagCode::SelfDependency => "instruction depends on its own first definition",
            DiagCode::AddrListMismatch => "address list length disagrees with the vector length",
            DiagCode::DuplicateSources => "duplicate source registers",
            DiagCode::CustomWithoutUnit => "custom op on a core with no custom unit",
            DiagCode::DegenerateOperand => "degenerate operand",
            DiagCode::UnorderedGatherAfterScatter => "gather overlaps a pending scatter unordered",
            DiagCode::SspmModeConflict => "CAM write over a dirty direct-mapped region",
            DiagCode::SspmDirectWriteUnderCam => "direct write into CAM-owned SSPM entries",
            DiagCode::SspmIndexReadEmpty => "index-table read while no indices are tracked",
            DiagCode::SspmCamOverflowRisk => "CAM insertions may overflow the index table",
            DiagCode::DeadRegisterWrite => "register write is dead (redefined before any read)",
            DiagCode::DeadStore => "stored bytes are fully overwritten before any read",
            DiagCode::MustAliasConflict => "gather must-aliases an earlier unordered scatter",
            DiagCode::CamOccupancyBound => "proven CAM occupancy bound exceeds the index table",
        }
    }
}

/// One diagnostic: a code, the offending instruction, and a specific
/// message.
#[derive(Debug, Clone, PartialEq)]
pub struct Diag {
    /// The stable diagnostic code.
    pub code: DiagCode,
    /// Zero-based index of the offending instruction in the stream.
    pub index: u64,
    /// The instruction's op-class tag (`"gather"`, `"custom"`, ...).
    pub tag: &'static str,
    /// What specifically is wrong.
    pub message: String,
}

impl Diag {
    /// Builds a diagnostic at stream position 0. External producers (e.g.
    /// the SSPM mode checker in `via-core`) use this; the position is
    /// re-stamped when the diagnostic enters a [`Verifier`] via
    /// [`Verifier::push_external`].
    pub fn new(code: DiagCode, tag: &'static str, message: String) -> Self {
        Diag {
            code,
            index: 0,
            tag,
            message,
        }
    }

    /// The severity of this diagnostic (from its code).
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }

    /// Renders the diagnostic rustc-style:
    ///
    /// ```text
    /// error[VIA001]: use of undefined register
    ///   --> inst #42 (gather)
    ///   = note: source register r7 has no defining instruction
    /// ```
    pub fn render(&self) -> String {
        let level = match self.severity() {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Analysis => "analysis",
        };
        format!(
            "{level}[{}]: {}\n  --> inst #{} ({})\n  = note: {}",
            self.code.code(),
            self.code.summary(),
            self.index,
            self.tag,
            self.message
        )
    }
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

/// The outcome of verifying one instruction stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// All diagnostics in stream order.
    pub diags: Vec<Diag>,
    /// Instructions checked.
    pub instructions: u64,
}

impl Report {
    /// Number of error-severity diagnostics (the *violations*).
    pub fn error_count(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity() == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity() == Severity::Warning)
            .count()
    }

    /// Number of analysis-severity diagnostics (whole-stream facts from
    /// [`mod@crate::analyze`]; never violations).
    pub fn analysis_count(&self) -> usize {
        self.diags
            .iter()
            .filter(|d| d.severity() == Severity::Analysis)
            .count()
    }

    /// Whether the stream has no errors (warnings allowed).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// All diagnostics with the given code.
    pub fn with_code(&self, code: DiagCode) -> Vec<&Diag> {
        self.diags.iter().filter(|d| d.code == code).collect()
    }

    /// Renders every diagnostic plus a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diags {
            out.push_str(&d.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "verified {} instructions: {} errors, {} warnings",
            self.instructions,
            self.error_count(),
            self.warning_count()
        ));
        let analysis = self.analysis_count();
        if analysis > 0 {
            out.push_str(&format!(", {analysis} analysis findings"));
        }
        out.push('\n');
        out
    }
}

/// What the verifier checks a stream against.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyConfig {
    /// Maximum legal gather/scatter address-list length (the machine
    /// vector length in lanes).
    pub max_vl: u32,
    /// Custom (FIVU) units on the core; zero rejects `Op::Custom`.
    pub custom_units: u32,
    /// If set, every register must be below this bound (VIA002).
    pub declared_regs: Option<Reg>,
    /// How many recent scatters stay tracked for the gather-ordering check
    /// (VIA008); older scatters are assumed drained.
    pub scatter_window: usize,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig::from_core(&CoreConfig::default())
    }
}

impl VerifyConfig {
    /// The configuration matching a simulated core.
    pub fn from_core(core: &CoreConfig) -> Self {
        VerifyConfig {
            max_vl: core.vl,
            custom_units: core.custom_units,
            declared_regs: None,
            scatter_window: 32,
        }
    }

    /// Sets the declared register count (enables VIA002).
    pub fn with_declared_regs(mut self, regs: Reg) -> Self {
        self.declared_regs = Some(regs);
        self
    }
}

/// A scatter whose stores may still sit in the store buffer.
#[derive(Debug, Clone)]
struct PendingScatter {
    /// Stream index of the scatter.
    index: u64,
    /// Cache lines it touches (addr / 64), deduplicated.
    lines: Vec<u64>,
    /// Its source registers.
    srcs: Vec<Reg>,
}

/// Sentinel for "register never defined" in the definition-index table.
const UNDEFINED: u64 = 0;

/// The streaming stream checker. Feed instructions in push order with
/// [`Verifier::check`]; collect the [`Report`] when done.
///
/// The checker is deliberately *conservative in the permissive direction*:
/// it must never flag a stream the engine simulates meaningfully (zero
/// false positives over the shipped kernels), so ordering checks accept any
/// plausible ordering evidence (see [`DiagCode::UnorderedGatherAfterScatter`]).
#[derive(Debug, Clone)]
pub struct Verifier {
    cfg: VerifyConfig,
    /// `reg -> 1 + index of defining instruction`; [`UNDEFINED`] if none.
    def_index: Vec<u64>,
    /// Next instruction index.
    index: u64,
    /// Recent scatters, oldest first (bounded by `cfg.scatter_window`).
    pending_scatters: Vec<PendingScatter>,
    /// Scratch for the current gather's line set.
    line_scratch: Vec<u64>,
    report: Report,
}

impl Verifier {
    /// A verifier for the given configuration.
    pub fn new(cfg: VerifyConfig) -> Self {
        Verifier {
            cfg,
            def_index: Vec::new(),
            index: 0,
            pending_scatters: Vec::new(),
            line_scratch: Vec::new(),
            report: Report::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &VerifyConfig {
        &self.cfg
    }

    /// The report accumulated so far.
    pub fn report(&self) -> &Report {
        &self.report
    }

    /// Takes the report, leaving an empty one (stream state is kept).
    pub fn take_report(&mut self) -> Report {
        std::mem::take(&mut self.report)
    }

    fn defined_at(&self, r: Reg) -> u64 {
        self.def_index.get(r as usize).copied().unwrap_or(UNDEFINED)
    }

    fn diag(&mut self, code: DiagCode, tag: &'static str, message: String) {
        self.report.diags.push(Diag {
            code,
            index: self.index,
            tag,
            message,
        });
    }

    /// Records an externally produced diagnostic (e.g. from the SSPM mode
    /// checker in `via-core`) at the current stream position.
    pub fn push_external(&mut self, mut diag: Diag) {
        diag.index = self.index;
        self.report.diags.push(diag);
    }

    /// Checks one instruction and returns the diagnostics it produced.
    pub fn check(&mut self, inst: &Inst) -> &[Diag] {
        let first_new = self.report.diags.len();
        let tag = inst.op.tag();

        // --- structural lints per op class ------------------------------
        match &inst.op {
            Op::Gather { addrs, elem_bytes } | Op::Scatter { addrs, elem_bytes } => {
                if addrs.is_empty() {
                    self.diag(
                        DiagCode::AddrListMismatch,
                        tag,
                        format!("{tag} has an empty address list"),
                    );
                } else if addrs.len() > self.cfg.max_vl as usize {
                    let len = addrs.len();
                    let vl = self.cfg.max_vl;
                    self.diag(
                        DiagCode::AddrListMismatch,
                        tag,
                        format!("{tag} has {len} addresses but the machine VL is {vl} lanes"),
                    );
                }
                if *elem_bytes == 0 {
                    self.diag(
                        DiagCode::DegenerateOperand,
                        tag,
                        format!("{tag} moves zero bytes per element"),
                    );
                }
            }
            Op::Load { bytes: 0, .. } | Op::Store { bytes: 0, .. } => {
                self.diag(
                    DiagCode::DegenerateOperand,
                    tag,
                    format!("{tag} accesses zero bytes"),
                );
            }
            Op::Custom {
                occupancy, latency, ..
            } => {
                if self.cfg.custom_units == 0 {
                    self.diag(
                        DiagCode::CustomWithoutUnit,
                        tag,
                        "custom (FIVU) op pushed on a core configured with zero custom units"
                            .to_string(),
                    );
                }
                if *occupancy == 0 || *latency == 0 {
                    self.diag(
                        DiagCode::DegenerateOperand,
                        tag,
                        format!("custom op with occupancy {occupancy} and latency {latency}"),
                    );
                }
            }
            _ => {}
        }

        // --- register checks --------------------------------------------
        let srcs = inst.srcs.as_slice();
        for (pos, &r) in srcs.iter().enumerate() {
            if let Some(declared) = self.cfg.declared_regs {
                if r >= declared {
                    self.diag(
                        DiagCode::RegisterOutOfRange,
                        tag,
                        format!("source register r{r} is outside the declared range 0..{declared}"),
                    );
                    continue;
                }
            }
            if self.defined_at(r) == UNDEFINED {
                if inst.dst == Some(r) {
                    self.diag(
                        DiagCode::SelfDependency,
                        tag,
                        format!(
                            "source register r{r} is only defined by this instruction itself \
                             (dependency cycle)"
                        ),
                    );
                } else {
                    self.diag(
                        DiagCode::UndefinedRegister,
                        tag,
                        format!("source register r{r} has no defining instruction"),
                    );
                }
            }
            if srcs[..pos].contains(&r) {
                self.diag(
                    DiagCode::DuplicateSources,
                    tag,
                    format!("register r{r} is listed as a source more than once"),
                );
            }
        }
        if let Some(declared) = self.cfg.declared_regs {
            if let Some(dst) = inst.dst {
                if dst >= declared {
                    self.diag(
                        DiagCode::RegisterOutOfRange,
                        tag,
                        format!(
                            "destination register r{dst} is outside the declared range \
                             0..{declared}"
                        ),
                    );
                }
            }
        }

        // --- store-buffer ordering (VIA008) ------------------------------
        // Gathers cannot forward from pending scattered stores. A gather
        // whose lines overlap a recent scatter must show ordering evidence:
        // a source defined at-or-after the scatter (e.g. a drain delay or a
        // chained value), a source shared with the scatter, or an
        // intervening fence (which drops all pending scatters).
        if let Op::Gather { addrs, .. } = &inst.op {
            self.line_scratch.clear();
            for &a in addrs.as_slice() {
                let line = a / 64;
                if !self.line_scratch.contains(&line) {
                    self.line_scratch.push(line);
                }
            }
            let ordered_after = |v: &Verifier, scatter: &PendingScatter| {
                srcs.iter().any(|&r| {
                    let def = v.defined_at(r);
                    def != UNDEFINED && def > scatter.index
                }) || srcs.iter().any(|&r| scatter.srcs.contains(&r))
            };
            let conflict = self
                .pending_scatters
                .iter()
                .rev()
                .find(|s| {
                    s.lines.iter().any(|l| self.line_scratch.contains(l)) && !ordered_after(self, s)
                })
                .map(|s| s.index);
            if let Some(scatter_index) = conflict {
                self.diag(
                    DiagCode::UnorderedGatherAfterScatter,
                    tag,
                    format!(
                        "gather reads a cache line scattered at inst #{scatter_index} with no \
                         ordering dependence (gathers cannot forward from the store buffer)"
                    ),
                );
            }
        }

        // --- definition + hazard bookkeeping -----------------------------
        if let Some(dst) = inst.dst {
            let idx = dst as usize;
            if idx >= self.def_index.len() {
                self.def_index.resize(idx + 1, UNDEFINED);
            }
            self.def_index[idx] = self.index + 1;
        }
        match &inst.op {
            Op::Scatter { addrs, .. } => {
                self.line_scratch.clear();
                for &a in addrs.as_slice() {
                    let line = a / 64;
                    if !self.line_scratch.contains(&line) {
                        self.line_scratch.push(line);
                    }
                }
                if self.pending_scatters.len() >= self.cfg.scatter_window.max(1) {
                    self.pending_scatters.remove(0);
                }
                self.pending_scatters.push(PendingScatter {
                    index: self.index,
                    lines: self.line_scratch.clone(),
                    srcs: srcs.to_vec(),
                });
            }
            Op::Fence => self.pending_scatters.clear(),
            _ => {}
        }

        self.index += 1;
        self.report.instructions += 1;
        &self.report.diags[first_new..]
    }
}

/// A recorded instruction stream for offline verification (the negative
/// tests hand-build and corrupt these).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    insts: Vec<Inst>,
    declared_regs: Option<Reg>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Declares the register count (enables the VIA002 range check).
    pub fn with_declared_regs(mut self, regs: Reg) -> Self {
        self.declared_regs = Some(regs);
        self
    }

    /// Appends an instruction.
    pub fn push(&mut self, inst: Inst) {
        self.insts.push(inst);
    }

    /// The instructions in push order.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Mutable access to the instructions (for corruption in tests).
    pub fn insts_mut(&mut self) -> &mut Vec<Inst> {
        &mut self.insts
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }
}

impl FromIterator<Inst> for Program {
    fn from_iter<T: IntoIterator<Item = Inst>>(iter: T) -> Self {
        Program {
            insts: iter.into_iter().collect(),
            declared_regs: None,
        }
    }
}

/// Verifies a recorded program in one pass. The program's declared register
/// count (if any) overrides the configuration's.
///
/// # Examples
///
/// A stream whose every source register has a producer is clean; dropping
/// a producer makes the use an undefined-register violation (VIA001):
///
/// ```
/// use via_sim::prog::{AluKind, Inst};
/// use via_sim::verify::{verify_program, DiagCode, Program, VerifyConfig};
///
/// let cfg = VerifyConfig::default();
///
/// // r0 <- load, r1 <- load, r2 <- r0 + r1: every source is defined.
/// let good: Program = [
///     Inst::load(0x1000, 8, 0),
///     Inst::load(0x1008, 8, 1),
///     Inst::scalar(AluKind::FpAdd, &[0, 1], Some(2)),
/// ]
/// .into_iter()
/// .collect();
/// assert!(verify_program(&good, &cfg).is_clean());
///
/// // The same stream without the second load: r1 has no producer.
/// let bad: Program = [
///     Inst::load(0x1000, 8, 0),
///     Inst::scalar(AluKind::FpAdd, &[0, 1], Some(2)),
/// ]
/// .into_iter()
/// .collect();
/// let report = verify_program(&bad, &cfg);
/// assert_eq!(report.error_count(), 1);
/// assert_eq!(report.diags[0].code, DiagCode::UndefinedRegister);
/// ```
pub fn verify_program(prog: &Program, cfg: &VerifyConfig) -> Report {
    let mut cfg = cfg.clone();
    if prog.declared_regs.is_some() {
        cfg.declared_regs = prog.declared_regs;
    }
    let mut verifier = Verifier::new(cfg);
    for inst in prog.insts() {
        verifier.check(inst);
    }
    verifier.take_report()
}

// ---- thread-local capture -------------------------------------------------
//
// Kernel functions construct their engines internally, so callers that want
// release-build verification (the `verify_programs` binary, the kernels'
// unit tests) cannot attach a verifier by hand. Instead they enable
// *capture* on their thread: every engine constructed while capture is on
// attaches a verifier, and submits its report here when it is finished.
// Thread-local (not global) so concurrently running tests cannot steal each
// other's reports.

thread_local! {
    static CAPTURE: Cell<bool> = const { Cell::new(false) };
    static SINK: RefCell<Vec<Report>> = const { RefCell::new(Vec::new()) };
}

/// Whether stream capture is enabled on this thread.
pub fn capture_enabled() -> bool {
    CAPTURE.with(|c| c.get())
}

/// Enables verification capture on this thread and returns a guard that
/// disables it again when dropped. Engines constructed while the guard
/// lives attach a [`Verifier`] (even in release builds) and deposit their
/// [`Report`]s for [`drain_captured`].
pub fn capture_guard() -> CaptureGuard {
    CAPTURE.with(|c| c.set(true));
    CaptureGuard(())
}

/// RAII guard from [`capture_guard`]; disables capture when dropped.
#[derive(Debug)]
pub struct CaptureGuard(());

impl Drop for CaptureGuard {
    fn drop(&mut self) {
        CAPTURE.with(|c| c.set(false));
    }
}

/// Deposits a finished report into this thread's capture sink (called by
/// the engine; callable directly for custom harnesses).
pub fn submit_report(report: Report) {
    SINK.with(|s| s.borrow_mut().push(report));
}

/// Drains every report captured on this thread so far.
pub fn drain_captured() -> Vec<Report> {
    SINK.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prog::AluKind;

    fn cfg() -> VerifyConfig {
        VerifyConfig::default()
    }

    fn codes(report: &Report) -> Vec<DiagCode> {
        report.diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_stream_produces_no_diags() {
        let mut prog = Program::new();
        prog.push(Inst::load(0x100, 8, 0));
        prog.push(Inst::scalar(AluKind::FpAdd, &[0], Some(1)));
        prog.push(Inst::store(0x200, 8, &[1]));
        let report = verify_program(&prog, &cfg());
        assert!(report.is_clean());
        assert!(report.diags.is_empty());
        assert_eq!(report.instructions, 3);
    }

    #[test]
    fn undefined_source_is_via001() {
        let mut prog = Program::new();
        prog.push(Inst::scalar(AluKind::Int, &[7], Some(0)));
        let report = verify_program(&prog, &cfg());
        assert_eq!(codes(&report), vec![DiagCode::UndefinedRegister]);
        assert_eq!(report.error_count(), 1);
        assert!(report.diags[0].render().contains("error[VIA001]"));
    }

    #[test]
    fn redefinition_and_read_of_old_value_are_legal() {
        // SSA-ish renaming: `r0 = f(r0)` reads the previous definition.
        let mut prog = Program::new();
        prog.push(Inst::scalar(AluKind::Int, &[], Some(0)));
        prog.push(Inst::scalar(AluKind::Int, &[0], Some(0)));
        assert!(verify_program(&prog, &cfg()).is_clean());
    }

    #[test]
    fn self_dependency_at_first_definition_is_via003() {
        let mut prog = Program::new();
        prog.push(Inst::scalar(AluKind::Int, &[0], Some(0)));
        let report = verify_program(&prog, &cfg());
        assert_eq!(codes(&report), vec![DiagCode::SelfDependency]);
    }

    #[test]
    fn declared_range_is_enforced_as_via002() {
        let mut prog = Program::new().with_declared_regs(4);
        prog.push(Inst::scalar(AluKind::Int, &[], Some(3)));
        prog.push(Inst::scalar(AluKind::Int, &[9], Some(2)));
        prog.push(Inst::scalar(AluKind::Int, &[], Some(5)));
        let report = verify_program(&prog, &cfg());
        assert_eq!(
            codes(&report),
            vec![DiagCode::RegisterOutOfRange, DiagCode::RegisterOutOfRange]
        );
    }

    #[test]
    fn oversized_and_empty_addr_lists_are_via004() {
        let mut prog = Program::new();
        let wide: Vec<u64> = (0..6).map(|i| i * 8).collect(); // VL is 4
        prog.push(Inst::gather(wide, 8, &[], 0));
        prog.push(Inst::scatter(Vec::<u64>::new(), 8, &[0]));
        let report = verify_program(&prog, &cfg());
        assert_eq!(
            codes(&report),
            vec![DiagCode::AddrListMismatch, DiagCode::AddrListMismatch]
        );
    }

    #[test]
    fn duplicate_sources_warn_via005() {
        let mut prog = Program::new();
        prog.push(Inst::scalar(AluKind::Int, &[], Some(0)));
        prog.push(Inst::scalar(AluKind::Int, &[0, 0], Some(1)));
        let report = verify_program(&prog, &cfg());
        assert_eq!(codes(&report), vec![DiagCode::DuplicateSources]);
        assert!(report.is_clean(), "VIA005 is a warning, not a violation");
        assert_eq!(report.warning_count(), 1);
    }

    #[test]
    fn custom_without_unit_is_via006() {
        let mut prog = Program::new();
        prog.push(Inst::custom(1, 3, true, &[], Some(0)));
        let report = verify_program(&prog, &cfg()); // default core: no FIVU
        assert_eq!(codes(&report), vec![DiagCode::CustomWithoutUnit]);

        let mut with_unit = cfg();
        with_unit.custom_units = 1;
        assert!(verify_program(&prog, &with_unit).is_clean());
    }

    #[test]
    fn zero_byte_and_zero_cost_ops_warn_via007() {
        let mut with_unit = cfg();
        with_unit.custom_units = 1;
        let mut prog = Program::new();
        prog.push(Inst::load(0x100, 0, 0));
        prog.push(Inst::custom(0, 0, false, &[], None));
        let report = verify_program(&prog, &with_unit);
        assert_eq!(
            codes(&report),
            vec![DiagCode::DegenerateOperand, DiagCode::DegenerateOperand]
        );
        assert!(report.is_clean());
    }

    #[test]
    fn unordered_gather_after_scatter_is_via008() {
        let mut prog = Program::new();
        prog.push(Inst::scalar(AluKind::Int, &[], Some(0)));
        prog.push(Inst::scatter(vec![0x100, 0x140], 8, &[0]));
        // Same lines, no ordering source at all.
        prog.push(Inst::gather(vec![0x108], 8, &[], 1));
        let report = verify_program(&prog, &cfg());
        assert_eq!(codes(&report), vec![DiagCode::UnorderedGatherAfterScatter]);
        assert_eq!(report.diags[0].index, 2);
    }

    #[test]
    fn gather_ordered_by_scatter_source_passes() {
        // The csb_software_vec pattern: the gather depends on the scattered
        // value register.
        let mut prog = Program::new();
        prog.push(Inst::scalar(AluKind::Int, &[], Some(0)));
        prog.push(Inst::scatter(vec![0x100], 8, &[0]));
        prog.push(Inst::gather(vec![0x100], 8, &[0], 1));
        assert!(verify_program(&prog, &cfg()).is_clean());
    }

    #[test]
    fn gather_ordered_by_later_definition_passes() {
        // The sell pattern: the gather depends on a drain delay (or any
        // register produced after the scatter).
        let mut prog = Program::new();
        prog.push(Inst::scalar(AluKind::Int, &[], Some(0)));
        prog.push(Inst::scatter(vec![0x100], 8, &[0]));
        prog.push(Inst::delay(20, &[0], 1));
        prog.push(Inst::gather(vec![0x100], 8, &[1], 2));
        assert!(verify_program(&prog, &cfg()).is_clean());
    }

    #[test]
    fn fence_clears_pending_scatters() {
        let mut prog = Program::new();
        prog.push(Inst::scalar(AluKind::Int, &[], Some(0)));
        prog.push(Inst::scatter(vec![0x100], 8, &[0]));
        prog.push(Inst::fence());
        prog.push(Inst::gather(vec![0x100], 8, &[], 1));
        assert!(verify_program(&prog, &cfg()).is_clean());
    }

    #[test]
    fn disjoint_lines_do_not_conflict() {
        let mut prog = Program::new();
        prog.push(Inst::scalar(AluKind::Int, &[], Some(0)));
        prog.push(Inst::scatter(vec![0x100], 8, &[0]));
        prog.push(Inst::gather(vec![0x1000], 8, &[], 1));
        assert!(verify_program(&prog, &cfg()).is_clean());
    }

    #[test]
    fn scatter_window_bounds_tracking() {
        let mut cfg = cfg();
        cfg.scatter_window = 2;
        let mut prog = Program::new();
        prog.push(Inst::scalar(AluKind::Int, &[], Some(0)));
        prog.push(Inst::scatter(vec![0x100], 8, &[0])); // evicted
        prog.push(Inst::scatter(vec![0x200], 8, &[0]));
        prog.push(Inst::scatter(vec![0x300], 8, &[0]));
        prog.push(Inst::gather(vec![0x100], 8, &[], 1)); // vs evicted: clean
        let report = verify_program(&prog, &cfg);
        assert!(report.is_clean());
    }

    #[test]
    fn report_renders_summary_and_codes() {
        let mut prog = Program::new();
        prog.push(Inst::scalar(AluKind::Int, &[3], Some(0)));
        let report = verify_program(&prog, &cfg());
        let text = report.render();
        assert!(text.contains("error[VIA001]"));
        assert!(text.contains("--> inst #0 (scalar)"));
        assert!(text.contains("1 errors, 0 warnings"));
        assert_eq!(report.with_code(DiagCode::UndefinedRegister).len(), 1);
    }

    #[test]
    fn external_diags_are_stamped_with_the_stream_index() {
        let mut v = Verifier::new(cfg());
        v.check(&Inst::scalar(AluKind::Int, &[], Some(0)));
        v.push_external(Diag {
            code: DiagCode::SspmModeConflict,
            index: 999, // overwritten
            tag: "custom",
            message: "test".to_string(),
        });
        assert_eq!(v.report().diags[0].index, 1);
        assert_eq!(v.report().error_count(), 1);
        // `check` returns only the diagnostics of the instruction it checked.
        assert!(v
            .check(&Inst::scalar(AluKind::Int, &[0], Some(1)))
            .is_empty());
        let diags = v.check(&Inst::scalar(AluKind::Int, &[5], None));
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, DiagCode::UndefinedRegister);
    }

    #[test]
    fn capture_guard_round_trips_reports() {
        assert!(!capture_enabled());
        {
            let _guard = capture_guard();
            assert!(capture_enabled());
            submit_report(Report {
                instructions: 5,
                ..Report::default()
            });
        }
        assert!(!capture_enabled());
        let reports = drain_captured();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].instructions, 5);
        assert!(drain_captured().is_empty());
    }
}
