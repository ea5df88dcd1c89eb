//! The static cycle **lower bound**: the engine's own pipeline driven by a
//! relaxed execute stage, plus standalone resource- and traffic-occupancy
//! terms. Every term is provably `<=` the simulated cycle count for the
//! same `(stream, config)` pair, so `max` over all of them is too.
//!
//! # Why a *replica* instead of a critical-path formula
//!
//! The engine is an interval-style analytical model: fetch width, ROB
//! admission, fences, branch redirects, the in-order commit automaton and
//! the commit-serialized custom-op gate all interact. Re-deriving a closed
//! form that stays sound against that machine is fragile; instead the bound
//! *runs the same automata*: it drives the crate's pipeline module, the
//! one [`Engine`](crate::Engine) drives, and relaxes only the execute stage
//! to its cheapest possible outcome:
//!
//! * **functional units** (scalar/vector ALUs, load/store ports) are
//!   infinite — the engine's gap-filling [`Calendar`](crate::calendar)
//!   bookings are *not* monotone under earlier ready times (an earlier
//!   request can be pushed to a later gap), so any finite-unit model could
//!   overshoot. Their contention is recovered by the standalone occupancy
//!   terms below, which need no timing at all.
//! * **memory** always hits in L1: a load/store completes at
//!   `ready + l1.latency`, a gather/scatter at
//!   `ready + l1.latency + gather_overhead` — the cheapest completion the
//!   hierarchy can produce.
//!
//! Everything the pipeline module decides turns relaxed (earlier) inputs
//! into relaxed outputs, so sharing it exactly keeps the replica a lower
//! bound: the fetch/ROB/fence frontier, the branch predictor (its state
//! depends only on the `(taken, site)` sequence, never on timing, so the
//! mispredict set is identical), the in-order width-limited commit
//! automaton, and the custom (FIVU) pool's min-free model (monotone by
//! sorted-multiset domination of the pool).
//!
//! # Standalone occupancy terms
//!
//! With `C` units and `n` booked slots whose minimum effective latency is
//! `lat`, every booking starts at some `s` with `s + lat <= cycles`, and at
//! most `C` bookings share a start cycle, so
//! `cycles >= ceil(n / C) + lat - 1`. The custom-unit term truncates each
//! reservation to `min(occupancy, latency)` so the busy span stays inside
//! `[0, cycles]` even when occupancy exceeds latency.
//!
//! The DRAM term counts cache lines whose **first** touch is a demand read
//! (load or gather): with prefetching off and uniform line sizes, such a
//! touch is a compulsory miss that books `transfer_cycles(line_bytes)` on
//! the single DRAM channel, and the booking ends before the read completes
//! (the gate requires `transfer <= dram_latency`). Lines first touched by a
//! *write* are excluded — stores complete at store-buffer latency, so their
//! DRAM bookings are not bounded by any completion time.

use std::collections::HashSet;

use crate::config::CoreConfig;
use crate::pipeline::Pipeline;
use crate::prog::{Inst, Op};

use super::AnalyzeConfig;

/// The static cycle lower bound and its individual terms (each itself a
/// valid lower bound; `lower_cycles` is their maximum).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StaticBound {
    /// The final bound: `max` of every term below.
    pub lower_cycles: u64,
    /// The relaxed-replica machine's final `last_commit.max(complete_max)`.
    pub replica_cycles: u64,
    /// Scalar-ALU occupancy (scalar ops + branches over `scalar_alus`).
    pub scalar_term: u64,
    /// Vector-ALU occupancy.
    pub vector_term: u64,
    /// Load-port occupancy (load line pieces + gather elements).
    pub load_term: u64,
    /// Store-port occupancy (store line pieces + scatter elements).
    pub store_term: u64,
    /// Custom (FIVU) unit occupancy, truncated to completion-bounded spans.
    pub custom_term: u64,
    /// DRAM compulsory read-traffic transfer cycles (0 when the config
    /// gate does not hold — see the module docs).
    pub dram_term: u64,
}

impl StaticBound {
    /// `lower_cycles / simulated`, in `[0, 1]` whenever the bound holds;
    /// 1.0 for an empty stream. Higher is tighter.
    pub fn tightness(&self, simulated_cycles: u64) -> f64 {
        if simulated_cycles == 0 {
            return 1.0;
        }
        self.lower_cycles as f64 / simulated_cycles as f64
    }
}

/// Rolling minimum of the effective latencies seen on one unit pool,
/// feeding the `ceil(n/C) + lat - 1` occupancy term.
#[derive(Debug, Clone, Copy)]
struct PoolCount {
    slots: u64,
    min_lat: u64,
}

impl PoolCount {
    fn new() -> Self {
        PoolCount {
            slots: 0,
            min_lat: u64::MAX,
        }
    }

    fn add(&mut self, slots: u64, lat: u64) {
        self.slots += slots;
        self.min_lat = self.min_lat.min(lat);
    }

    fn term(&self, units: u32) -> u64 {
        if self.slots == 0 {
            return 0;
        }
        let units = units.max(1) as u64;
        (self.slots.div_ceil(units) - 1) + self.min_lat
    }
}

/// Number of cache lines a unit-stride access spans (the engine's
/// `access_span` piece walk).
fn line_pieces(addr: u64, bytes: u32, line: u64) -> u64 {
    let first = addr & !(line - 1);
    let last = (addr + bytes.max(1) as u64 - 1) & !(line - 1);
    (last - first) / line + 1
}

/// Computes the static cycle lower bound for a stream under a machine
/// configuration. See the module docs for the soundness argument of each
/// term.
pub fn static_bound(insts: &[Inst], cfg: &AnalyzeConfig) -> StaticBound {
    // A custom op on a zero-unit core cannot be simulated at all (the
    // engine panics); the replica models one unit so the analysis of such
    // a stream stays total. The bound is only claimed for runnable
    // (stream, config) pairs.
    let mut pipe = Pipeline::new(CoreConfig {
        custom_units: cfg.core.custom_units.max(1),
        ..cfg.core.clone()
    });
    let mut scalar = PoolCount::new();
    let mut vector = PoolCount::new();
    let mut load = PoolCount::new();
    let mut store = PoolCount::new();
    let mut custom_busy = 0u64;
    let line = cfg.mem.l1.line_bytes as u64;
    let l1_lat = cfg.mem.l1.latency as u64;
    let mut seen_lines: HashSet<u64> = HashSet::new();
    let mut demand_read_lines = 0u64;
    let mut touch = |line_id: u64, is_read: bool| {
        if seen_lines.insert(line_id) && is_read {
            demand_read_lines += 1;
        }
    };

    for inst in insts {
        let fetch = pipe.fetch().cycle;
        let ready = pipe.ready_at(fetch, inst.srcs.as_slice());
        // Execute, relaxed (no unit waits, all-hit memory), counting each
        // op's unit slots and line touches for the standalone terms.
        let complete = match &inst.op {
            Op::Scalar { kind } => {
                let lat = pipe.alu_latency(*kind);
                scalar.add(1, lat);
                ready + lat
            }
            Op::Vec { kind } => {
                let lat = pipe.vec_latency(*kind);
                vector.add(1, lat);
                ready + lat
            }
            Op::Load { addr, bytes } | Op::Store { addr, bytes } => {
                let is_read = matches!(inst.op, Op::Load { .. });
                let pieces = line_pieces(*addr, *bytes, line);
                for p in 0..pieces {
                    touch((*addr >> line.trailing_zeros()) + p, is_read);
                }
                let pool = if is_read { &mut load } else { &mut store };
                pool.add(pieces, l1_lat);
                ready + l1_lat
            }
            Op::Gather { addrs, .. } | Op::Scatter { addrs, .. } => {
                let is_read = matches!(inst.op, Op::Gather { .. });
                for &a in addrs.as_slice() {
                    touch(a / line, is_read);
                }
                let n = addrs.len() as u64;
                let pool = if is_read { &mut load } else { &mut store };
                pool.add(n, l1_lat);
                let mem = if n == 0 { 0 } else { l1_lat };
                ready + mem + cfg.core.gather_overhead as u64
            }
            Op::Custom {
                occupancy,
                latency,
                at_commit,
            } => {
                custom_busy += ((*occupancy).max(1) as u64).min((*latency).max(1) as u64);
                pipe.custom(ready, *occupancy, *latency, *at_commit)
                    .complete
            }
            Op::Branch { taken, site } => {
                scalar.add(1, cfg.core.scalar_latency as u64);
                pipe.branch(*taken, *site, ready).0
            }
            Op::Delay { cycles } => ready + *cycles as u64,
            Op::Fence => pipe.fence(fetch),
        };
        pipe.retire(inst, complete);
    }

    let transfer = {
        let bytes = cfg.mem.l3.line_bytes as f64;
        ((bytes / cfg.mem.dram_bytes_per_cycle).ceil() as u64).max(1)
    };
    let dram_gate = cfg.mem.prefetch_degree == 0
        && cfg.mem.l1.line_bytes == cfg.mem.l2.line_bytes
        && cfg.mem.l2.line_bytes == cfg.mem.l3.line_bytes
        && transfer <= cfg.mem.dram_latency as u64;
    let dram_term = if dram_gate {
        demand_read_lines * transfer
    } else {
        0
    };

    let custom_term = if custom_busy == 0 {
        0
    } else {
        custom_busy.div_ceil(cfg.core.custom_units.max(1) as u64)
    };

    let mut bound = StaticBound {
        replica_cycles: pipe.cycles(),
        scalar_term: scalar.term(cfg.core.scalar_alus),
        vector_term: vector.term(cfg.core.vector_alus),
        load_term: load.term(cfg.core.load_ports),
        store_term: store.term(cfg.core.store_ports),
        custom_term,
        dram_term,
        lower_cycles: 0,
    };
    bound.lower_cycles = bound
        .replica_cycles
        .max(bound.scalar_term)
        .max(bound.vector_term)
        .max(bound.load_term)
        .max(bound.store_term)
        .max(bound.custom_term)
        .max(bound.dram_term);
    bound
}
