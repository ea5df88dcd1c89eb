//! Gather/scatter must-alias analysis (VIA103): the static sharpening of
//! the dynamic VIA008 window check.
//!
//! The runtime [`Verifier`](crate::verify::Verifier) keeps only the last
//! `scatter_window` (default 32) scatters and compares at *line*
//! granularity, so it reports may-conflicts and forgets old writers. With
//! the whole stream in hand this pass does the opposite on both axes:
//!
//! * overlap is **byte-exact** — a gather element `[a, a + elem_bytes)`
//!   must intersect a scatter element's written interval, so every report
//!   is a must-alias, not a shared-cache-line coincidence;
//! * the window is wide (`WINDOW`, 65 536 scatters), bounded only to
//!   keep the pass linear on adversarial streams.
//!
//! The ordering-evidence predicate is the same one VIA008 trusts: a
//! conflict is suppressed when any gather source register was (re)defined
//! at or after the scatter (the address computation observed the scatter's
//! position in program order), when gather and scatter share a source
//! register, or when a `Fence` intervenes. Everything that survives is a
//! read that byte-overlaps an earlier write with *no* ordering evidence —
//! exactly what the engine must dynamically serialize to stay correct.
//!
//! Candidate lookup is indexed by cache line with a small per-line cap
//! (`LINE_CANDIDATES`); the cap (and the window) can drop candidates on
//! adversarial streams, which can only *miss* conflicts, never invent
//! them. Each finding carries enough to be independently re-proven by
//! [`confirm_alias`].

use std::collections::HashMap;

use crate::prog::{Inst, Op, Reg};

/// Max remembered scatter candidates per cache line. Overflow drops the
/// oldest candidate on that line (a completeness, never a soundness, cap).
const LINE_CANDIDATES: usize = 8;

/// How many past scatters stay must-alias candidates (the static
/// sharpening of the dynamic check's 32-entry window).
const WINDOW: usize = 1 << 16;

/// Line size used for candidate *indexing* only (the conflict test itself
/// is byte-exact). Matches the dynamic verifier's VIA008 granularity.
const LINE: u64 = 64;

/// One proven must-alias conflict: a gather that byte-overlaps an earlier
/// scatter with no ordering evidence between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AliasConflict {
    /// Stream index of the conflicting gather.
    pub gather: u64,
    /// Stream index of the earlier overlapping scatter.
    pub scatter: u64,
    /// One byte address both touch (witness of the overlap).
    pub addr: u64,
}

/// The alias pass result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AliasAnalysis {
    /// One conflict per offending gather (the most recent conflicting
    /// scatter, mirroring VIA008's reporting choice), in stream order.
    pub conflicts: Vec<AliasConflict>,
    /// Scatters dropped by the window/per-line caps (0 means the pass was
    /// exhaustive and an empty `conflicts` is a proof of absence).
    pub dropped_candidates: u64,
}

struct ScatterRec {
    /// Monotonic id; doubles as the eviction clock.
    id: u64,
    index: u64,
    srcs: Vec<Reg>,
    addrs: Vec<u64>,
    elem_bytes: u32,
}

fn line_range(addr: u64, bytes: u32) -> std::ops::RangeInclusive<u64> {
    let first = addr / LINE;
    let last = (addr + bytes.max(1) as u64 - 1) / LINE;
    first..=last
}

fn overlap_witness(a: u64, a_bytes: u32, b: u64, b_bytes: u32) -> Option<u64> {
    let lo = a.max(b);
    let hi = (a + a_bytes as u64).min(b + b_bytes as u64);
    (lo < hi).then_some(lo)
}

/// Runs the whole-stream must-alias pass. `WINDOW` bounds how many past
/// scatters stay candidates (see the module docs).
pub fn must_alias_conflicts(insts: &[Inst]) -> AliasAnalysis {
    let mut out = AliasAnalysis::default();
    // All retained scatters, oldest first; ids below `oldest_live` are
    // evicted lazily from the per-line index.
    let mut pending: Vec<ScatterRec> = Vec::new();
    let mut next_id = 0u64;
    let mut oldest_live = 0u64;
    // cache line -> ids of scatters that wrote into it (newest last).
    let mut by_line: HashMap<u64, Vec<u64>> = HashMap::new();
    // reg -> 0-based index of its latest definition.
    let mut last_def: HashMap<Reg, u64> = HashMap::new();

    for (i, inst) in insts.iter().enumerate() {
        let i = i as u64;
        match &inst.op {
            Op::Gather { addrs, elem_bytes } => {
                // Same evidence predicate as the dynamic VIA008 check: the
                // gather's addresses were computed after the scatter, or
                // from the same registers.
                let ordered_after = |s: &ScatterRec| {
                    inst.srcs
                        .as_slice()
                        .iter()
                        .any(|r| last_def.get(r).is_some_and(|&def| def >= s.index))
                        || inst.srcs.as_slice().iter().any(|r| s.srcs.contains(r))
                };
                let mut best: Option<AliasConflict> = None;
                for &a in addrs.as_slice() {
                    for l in line_range(a, *elem_bytes) {
                        let Some(ids) = by_line.get(&l) else { continue };
                        for &id in ids.iter().rev() {
                            if id < oldest_live {
                                continue;
                            }
                            if best.is_some_and(|b| {
                                pending[(id - oldest_live) as usize].index <= b.scatter
                            }) {
                                break; // only older candidates remain on this line
                            }
                            let s = &pending[(id - oldest_live) as usize];
                            let hit = s
                                .addrs
                                .iter()
                                .find_map(|&sa| overlap_witness(a, *elem_bytes, sa, s.elem_bytes));
                            if let Some(addr) = hit {
                                if !ordered_after(s) {
                                    best = Some(AliasConflict {
                                        gather: i,
                                        scatter: s.index,
                                        addr,
                                    });
                                }
                            }
                        }
                    }
                }
                if let Some(c) = best {
                    out.conflicts.push(c);
                }
            }
            Op::Scatter { addrs, elem_bytes } if !addrs.is_empty() => {
                if pending.len() >= WINDOW {
                    pending.remove(0);
                    oldest_live += 1;
                    out.dropped_candidates += 1;
                }
                let id = next_id;
                next_id += 1;
                for &a in addrs.as_slice() {
                    for l in line_range(a, *elem_bytes) {
                        let ids = by_line.entry(l).or_default();
                        ids.retain(|&old| old >= oldest_live);
                        if ids.last() == Some(&id) {
                            continue;
                        }
                        if ids.len() >= LINE_CANDIDATES {
                            ids.remove(0);
                            out.dropped_candidates += 1;
                        }
                        ids.push(id);
                    }
                }
                pending.push(ScatterRec {
                    id,
                    index: i,
                    srcs: inst.srcs.as_slice().to_vec(),
                    addrs: addrs.as_slice().to_vec(),
                    elem_bytes: *elem_bytes,
                });
            }
            Op::Fence => {
                oldest_live = next_id;
                pending.clear();
                by_line.clear();
            }
            _ => {}
        }
        debug_assert!(pending.first().map(|s| s.id).unwrap_or(oldest_live) == oldest_live);
        if let Some(dst) = inst.dst {
            last_def.insert(dst, i);
        }
    }
    out
}

/// Brute-force oracle for one [`AliasConflict`]: re-proves byte overlap,
/// the absence of an intervening fence, and the absence of ordering
/// evidence, scanning the raw stream with none of the pass's indexing.
pub fn confirm_alias(insts: &[Inst], finding: &AliasConflict) -> Result<(), String> {
    let gather = insts
        .get(finding.gather as usize)
        .ok_or_else(|| format!("gather index {} out of range", finding.gather))?;
    let scatter = insts
        .get(finding.scatter as usize)
        .ok_or_else(|| format!("scatter index {} out of range", finding.scatter))?;
    if finding.scatter >= finding.gather {
        return Err(format!(
            "scatter #{} does not precede gather #{}",
            finding.scatter, finding.gather
        ));
    }
    let (g_addrs, g_bytes) = match &gather.op {
        Op::Gather { addrs, elem_bytes } => (addrs.as_slice(), *elem_bytes),
        other => {
            return Err(format!(
                "inst #{} is a {}, not a gather",
                finding.gather,
                other.tag()
            ))
        }
    };
    let (s_addrs, s_bytes) = match &scatter.op {
        Op::Scatter { addrs, elem_bytes } => (addrs.as_slice(), *elem_bytes),
        other => {
            return Err(format!(
                "inst #{} is a {}, not a scatter",
                finding.scatter,
                other.tag()
            ))
        }
    };
    let witness_read = g_addrs
        .iter()
        .any(|&g| finding.addr >= g && finding.addr < g + g_bytes as u64);
    let witness_written = s_addrs
        .iter()
        .any(|&s| finding.addr >= s && finding.addr < s + s_bytes as u64);
    if !witness_read || !witness_written {
        return Err(format!(
            "witness byte {:#x} is not touched by both sides",
            finding.addr
        ));
    }
    for between in &insts[finding.scatter as usize + 1..finding.gather as usize] {
        if matches!(between.op, Op::Fence) {
            return Err(format!(
                "fence between scatter #{} and gather #{}: ordered",
                finding.scatter, finding.gather
            ));
        }
    }
    // Recompute last definitions up to (excluding) the gather.
    let mut last_def: HashMap<Reg, u64> = HashMap::new();
    for (j, inst) in insts[..finding.gather as usize].iter().enumerate() {
        if let Some(dst) = inst.dst {
            last_def.insert(dst, j as u64);
        }
    }
    let after = gather
        .srcs
        .as_slice()
        .iter()
        .any(|r| last_def.get(r).is_some_and(|&def| def >= finding.scatter));
    if after {
        return Err(format!(
            "gather #{} has a source defined after scatter #{}: ordered",
            finding.gather, finding.scatter
        ));
    }
    let shared = gather
        .srcs
        .as_slice()
        .iter()
        .any(|r| scatter.srcs.as_slice().contains(r));
    if shared {
        return Err(format!(
            "gather #{} shares a source register with scatter #{}: ordered",
            finding.gather, finding.scatter
        ));
    }
    Ok(())
}
