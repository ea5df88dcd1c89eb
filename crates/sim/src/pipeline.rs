//! The in-order frame of the out-of-order core, shared by the timing
//! [`Engine`](crate::engine::Engine) and the static bound's relaxed replica
//! (`analyze::bound`).
//!
//! A [`Pipeline`] holds everything about an instruction's life that does
//! not depend on functional-unit calendars or the cache hierarchy:
//!
//! * **fetch** — `fetch_width` per cycle, admitted once the instruction
//!   `rob_size` positions ahead has committed and no fence or branch
//!   redirect holds the front end;
//! * **operands** — the completion cycle of each register's producer;
//! * **branches** — a 2-bit saturating counter per site; a mispredict
//!   redirects fetch to resolve + `mispredict_penalty`;
//! * **custom (FIVU) units** — a min-free pool; commit-serialized ops
//!   (paper §IV-E) first wait for every older non-custom instruction;
//! * **fences** — fetch waits for everything older to complete;
//! * **commit** — in order, `commit_width` per cycle, with the ROB ring of
//!   the last `rob_size` commit cycles.
//!
//! A driver fetches, reads the operands' ready cycle, executes the
//! instruction its own way (the engine books unit calendars and walks the
//! hierarchy; the replica assumes free units and L1 hits), and retires it
//! with its completion cycle. The scalar/vector latency table lives here
//! too, so both drivers charge the same latency per op.

use crate::config::CoreConfig;
use crate::prog::{AluKind, Inst, Op, Reg, VecOpKind};

/// One instruction's entry into the pipeline ([`Pipeline::fetch`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fetch {
    /// The fetch cycle.
    pub(crate) cycle: u64,
    /// When the ROB or the fence/redirect frontier let it in (`<= cycle`;
    /// the rest up to `cycle` is fetch-width serialization).
    pub(crate) front_gate: u64,
    /// Whether the fence/redirect frontier, not the ROB, gated it.
    pub(crate) fence_dominates: bool,
}

/// A custom op's passage through the FIVU pool ([`Pipeline::custom`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CustomIssue {
    /// Earliest start: operands ready, and for a commit-serialized op every
    /// older non-custom instruction complete.
    pub(crate) gate: u64,
    /// When a unit took it (`>= gate`).
    pub(crate) start: u64,
    /// Cycles the unit stays reserved.
    pub(crate) occupancy: u64,
    /// Completion cycle.
    pub(crate) complete: u64,
}

/// Fetch/ROB/commit state of one simulated core (see the module docs).
#[derive(Debug)]
pub(crate) struct Pipeline {
    core: CoreConfig,
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
    /// this is touched on every single instruction.
    rob_window: Vec<u64>,
    rob_head: usize,
    rob_filled: usize,
    /// Max completion time over all instructions so far.
    all_complete_max: u64,
    /// Max completion time over all *non-custom* instructions so far.
    noncustom_complete_max: u64,
    /// Instructions may not fetch before this (set by fences and branch
    /// redirects).
    fence_until: u64,
    /// Next-free cycle of each custom (FIVU) unit: custom ops are
    /// commit-gated, so their ready times are already monotone.
    custom_units: Vec<u64>,
    /// 2-bit saturating counters per data-dependent branch site, indexed by
    /// site id (kernels use small dense ids, so a flat table beats hashing
    /// on the per-branch hot path). Entries start at 2 (weakly taken);
    /// the table grows lazily to the highest site seen.
    predictor: Vec<u8>,
}

impl Pipeline {
    /// An empty pipeline for `core`, with `core.custom_units` FIVUs.
    pub(crate) fn new(core: CoreConfig) -> Self {
        Pipeline {
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
            custom_units: vec![0; core.custom_units as usize],
            predictor: Vec::new(),
            core,
        }
    }

    /// The core configuration.
    pub(crate) fn core(&self) -> &CoreConfig {
        &self.core
    }

    /// Latency of a scalar ALU op.
    #[inline]
    pub(crate) fn alu_latency(&self, kind: AluKind) -> u64 {
        let core = &self.core;
        (match kind {
            AluKind::Int => core.scalar_latency,
            AluKind::FpAdd | AluKind::FpMul => core.vec_alu_latency,
            AluKind::FpFma => core.vec_fma_latency,
        }) as u64
    }

    /// Latency of a vector ALU op.
    #[inline]
    pub(crate) fn vec_latency(&self, kind: VecOpKind) -> u64 {
        let core = &self.core;
        (match kind {
            VecOpKind::Add | VecOpKind::Mul | VecOpKind::Compare => core.vec_alu_latency,
            VecOpKind::Fma => core.vec_fma_latency,
            VecOpKind::Reduce => core.vec_reduce_latency,
            VecOpKind::Permute | VecOpKind::Blend => core.vec_permute_latency,
            VecOpKind::ConflictDetect => core.vec_conflict_latency,
        }) as u64
    }

    /// The last commit cycle so far (the commit frontier).
    #[inline]
    pub(crate) fn last_commit(&self) -> u64 {
        self.last_commit
    }

    /// Cycles so far: the commit frontier or the latest completion,
    /// whichever is later.
    pub(crate) fn cycles(&self) -> u64 {
        self.last_commit.max(self.all_complete_max)
    }

    /// Fetches the next instruction: waits for ROB space and the
    /// fence/redirect frontier, then takes a slot of the fetch width.
    #[inline]
    pub(crate) fn fetch(&mut self) -> Fetch {
        let rob_ready = if self.rob_filled == self.core.rob_size {
            self.rob_window[self.rob_head]
        } else {
            0
        };
        let fence_dominates = self.fence_until >= rob_ready;
        let earliest = rob_ready.max(self.fence_until);
        if self.fetch_cycle < earliest {
            self.fetch_cycle = earliest;
            self.fetch_in_cycle = 0;
        }
        if self.fetch_in_cycle >= self.core.fetch_width {
            self.fetch_cycle += 1;
            self.fetch_in_cycle = 0;
        }
        self.fetch_in_cycle += 1;
        Fetch {
            cycle: self.fetch_cycle,
            front_gate: earliest.min(self.fetch_cycle),
            fence_dominates,
        }
    }

    /// When an instruction fetched at `fetch` has all of `srcs` ready
    /// (capture-at-entry: perfect renaming).
    #[inline]
    pub(crate) fn ready_at(&self, fetch: u64, srcs: &[Reg]) -> u64 {
        let mut ready = fetch;
        for &r in srcs {
            ready = ready.max(self.ready.get(r as usize).copied().unwrap_or(0));
        }
        ready
    }

    /// Resolves a branch whose compare issues at `issue`: returns the
    /// resolve cycle and whether the predictor missed. A miss redirects
    /// fetch to the resolve plus the front-end refill penalty.
    #[inline]
    pub(crate) fn branch(&mut self, taken: bool, site: u32, issue: u64) -> (u64, bool) {
        let idx = site as usize;
        if idx >= self.predictor.len() {
            self.predictor.resize(idx + 1, 2);
        }
        let counter = &mut self.predictor[idx];
        let predicted = *counter >= 2;
        if taken {
            *counter = (*counter + 1).min(3);
        } else {
            *counter = counter.saturating_sub(1);
        }
        // The branch resolves one scalar op after it issues (compare +
        // redirect decision).
        let resolve = issue + self.core.scalar_latency as u64;
        let mispredicted = predicted != taken;
        if mispredicted {
            self.fence_until = self
                .fence_until
                .max(resolve + self.core.mispredict_penalty as u64);
        }
        (resolve, mispredicted)
    }

    /// Runs a custom op whose operands are ready at `ready` on the
    /// earliest-free FIVU.
    ///
    /// # Panics
    ///
    /// Panics if the core has no custom unit (the baseline has no FIVU).
    #[inline]
    pub(crate) fn custom(
        &mut self,
        ready: u64,
        occupancy: u32,
        latency: u32,
        at_commit: bool,
    ) -> CustomIssue {
        let gate = if at_commit {
            // Commit-time execution (paper §IV-E): all older non-custom
            // instructions must have completed. Older custom ops gate
            // through unit occupancy, which lets back-to-back VIA
            // instructions pipeline.
            ready.max(self.noncustom_complete_max)
        } else {
            ready
        };
        let occupancy = occupancy.max(1) as u64;
        let (idx, &free) = self
            .custom_units
            .iter()
            .enumerate()
            .min_by_key(|&(_, &f)| f)
            .expect("custom op pushed on a core with no custom unit (baseline cores have no FIVU)");
        let start = gate.max(free);
        self.custom_units[idx] = start + occupancy;
        CustomIssue {
            gate,
            start,
            occupancy,
            complete: start + latency.max(1) as u64,
        }
    }

    /// A full fence fetched at `fetch`: completes once everything older
    /// has, and younger instructions fetch no earlier.
    #[inline]
    pub(crate) fn fence(&mut self, fetch: u64) -> u64 {
        self.fence_until = self.all_complete_max.max(fetch);
        self.fence_until
    }

    /// Retires `inst`, which completes at `complete`: publishes its
    /// destination, then commits it in order within the commit width.
    /// Returns the commit cycle.
    // Runs once per instruction; with two callers the compiler otherwise
    // keeps it out of line, which costs the engine's push path a call.
    #[inline(always)]
    pub(crate) fn retire(&mut self, inst: &Inst, complete: u64) -> u64 {
        if let Some(dst) = inst.dst {
            let idx = dst as usize;
            if idx >= self.ready.len() {
                self.ready.resize(idx + 1, 0);
            }
            self.ready[idx] = complete;
        }
        self.all_complete_max = self.all_complete_max.max(complete);
        if !matches!(inst.op, Op::Custom { .. }) {
            self.noncustom_complete_max = self.noncustom_complete_max.max(complete);
        }

        let mut commit = complete.max(self.last_commit);
        if commit > self.commit_cycle {
            self.commit_cycle = commit;
            self.commit_in_cycle = 0;
        }
        if self.commit_in_cycle >= self.core.commit_width {
            self.commit_cycle += 1;
            self.commit_in_cycle = 0;
            commit = self.commit_cycle;
        }
        self.commit_in_cycle += 1;
        commit = commit.max(self.commit_cycle);
        self.last_commit = commit;
        // Overwrite the oldest ring entry (which `fetch` already consumed
        // for this instruction) and advance.
        self.rob_window[self.rob_head] = commit;
        self.rob_head += 1;
        if self.rob_head == self.core.rob_size {
            self.rob_head = 0;
        }
        if self.rob_filled < self.core.rob_size {
            self.rob_filled += 1;
        }
        commit
    }
}
