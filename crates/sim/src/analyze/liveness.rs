//! Register and memory liveness over a finished stream: provably dead
//! register writes (VIA101) and provably dead stores (VIA102).
//!
//! Both passes report only *continuation-sound* facts — facts that stay
//! true no matter what instructions a longer run would have appended:
//!
//! * a register write is dead only if the register is **redefined** later
//!   with no intervening read. A register merely unread at stream end is
//!   *not* dead (a continuation could read it).
//! * a store is dead only if every stored byte is **overwritten** before
//!   any load/gather observes it. Bytes still live at stream end are not
//!   dead — simulated memory outlives the stream.
//!
//! Reads are processed before the same instruction's destination write,
//! mirroring the engine's operand capture (`r0 = f(r0)` reads the previous
//! definition). Each pass has a brute-force oracle (`confirm_*`) used by
//! the cross-validation layer to re-prove every finding independently.

use std::collections::HashMap;

use crate::prog::{Inst, Op, Reg};

/// A provably dead register write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadWrite {
    /// Stream index of the dead defining instruction.
    pub index: u64,
    /// The register whose value is never read.
    pub reg: Reg,
    /// Stream index of the redefinition that kills it.
    pub overwritten_at: u64,
}

/// Forward scan for dead register writes: for each register track its last
/// definition and whether any read has observed it since. Returns every
/// provably dead write, in stream order of the dead definition's killer
/// (the order findings are proven).
pub fn dead_register_writes(insts: &[Inst]) -> Vec<DeadWrite> {
    // reg -> (defining index, read since that definition)
    let mut last_def: HashMap<Reg, (u64, bool)> = HashMap::new();
    let mut out = Vec::new();
    for (i, inst) in insts.iter().enumerate() {
        let i = i as u64;
        for &r in inst.srcs.as_slice() {
            if let Some(entry) = last_def.get_mut(&r) {
                entry.1 = true;
            }
        }
        if let Some(dst) = inst.dst {
            if let Some(&(def_at, read)) = last_def.get(&dst) {
                if !read {
                    out.push(DeadWrite {
                        index: def_at,
                        reg: dst,
                        overwritten_at: i,
                    });
                }
            }
            last_def.insert(dst, (i, false));
        }
    }
    out
}

/// Brute-force oracle for one [`DeadWrite`]: rescans the stream from the
/// definition and re-proves the claim with none of the pass's bookkeeping.
pub fn confirm_dead_write(insts: &[Inst], finding: &DeadWrite) -> Result<(), String> {
    let def = insts
        .get(finding.index as usize)
        .ok_or_else(|| format!("dead-write index {} out of range", finding.index))?;
    if def.dst != Some(finding.reg) {
        return Err(format!(
            "inst #{} does not define r{}",
            finding.index, finding.reg
        ));
    }
    for (j, inst) in insts.iter().enumerate().skip(finding.index as usize + 1) {
        if inst.srcs.as_slice().contains(&finding.reg) {
            return Err(format!(
                "r{} written at #{} is read at #{j}: not dead",
                finding.reg, finding.index
            ));
        }
        if inst.dst == Some(finding.reg) {
            return if j as u64 == finding.overwritten_at {
                Ok(())
            } else {
                Err(format!(
                    "r{} is first redefined at #{j}, not #{}",
                    finding.reg, finding.overwritten_at
                ))
            };
        }
    }
    Err(format!(
        "r{} written at #{} is never redefined: not provably dead",
        finding.reg, finding.index
    ))
}

/// A provably dead store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadStore {
    /// Stream index of the dead store.
    pub index: u64,
    /// Bytes it wrote (all overwritten unobserved).
    pub bytes: u32,
    /// Stream index of the write that overwrote its last live byte.
    pub killed_at: u64,
}

/// The memory-liveness pass result.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreLiveness {
    /// Every provably dead store, in kill order.
    pub dead_stores: Vec<DeadStore>,
    /// Total bytes across the dead stores.
    pub dead_bytes: u64,
}

/// Per-candidate tracking state for the dead-store pass.
struct StoreRec {
    index: u64,
    bytes: u32,
    /// Stored bytes not yet read or overwritten.
    remaining: u32,
    /// Whether any read observed any of its bytes.
    observed: bool,
}

/// Byte ranges an instruction reads from / writes to simulated memory.
/// Reads are deliberately generous (a gather element is treated as reading
/// its full `elem_bytes`, though the engine only times the line of `addr`)
/// — a wider read set can only *suppress* findings, never fabricate them.
/// VIA custom ops move data through the functional SSPM model and never
/// touch simulated memory, so they contribute nothing here.
fn for_each_read(inst: &Inst, mut f: impl FnMut(u64, u32)) {
    match &inst.op {
        Op::Load { addr, bytes } => f(*addr, *bytes),
        Op::Gather { addrs, elem_bytes } => {
            for &a in addrs.as_slice() {
                f(a, *elem_bytes);
            }
        }
        _ => {}
    }
}

fn for_each_write(inst: &Inst, mut f: impl FnMut(u64, u32)) {
    match &inst.op {
        Op::Store { addr, bytes } => f(*addr, *bytes),
        Op::Scatter { addrs, elem_bytes } => {
            for &a in addrs.as_slice() {
                f(a, *elem_bytes);
            }
        }
        _ => {}
    }
}

/// Byte-exact forward scan for dead stores. Candidates are unit-stride
/// stores (scatters act as overwriters and loads/gathers as observers, but
/// are not themselves candidates).
pub fn dead_stores(insts: &[Inst]) -> StoreLiveness {
    let mut out = StoreLiveness::default();
    let mut stores: Vec<StoreRec> = Vec::new();
    // byte address -> index into `stores` of the candidate that last wrote
    // it (present only while the byte is unread and unoverwritten).
    let mut owner: HashMap<u64, u32> = HashMap::new();
    for (i, inst) in insts.iter().enumerate() {
        let i = i as u64;
        for_each_read(inst, |addr, bytes| {
            for b in addr..addr.saturating_add(bytes as u64) {
                if let Some(id) = owner.remove(&b) {
                    stores[id as usize].observed = true;
                }
            }
        });
        let candidate = matches!(&inst.op, Op::Store { bytes, .. } if *bytes > 0);
        let new_id = if candidate {
            stores.push(StoreRec {
                index: i,
                bytes: 0,
                remaining: 0,
                observed: false,
            });
            Some((stores.len() - 1) as u32)
        } else {
            None
        };
        for_each_write(inst, |addr, bytes| {
            for b in addr..addr.saturating_add(bytes as u64) {
                let prev = match new_id {
                    Some(id) => owner.insert(b, id),
                    None => owner.remove(&b),
                };
                if let Some(pid) = prev {
                    if Some(pid) != new_id {
                        let rec = &mut stores[pid as usize];
                        rec.remaining -= 1;
                        if rec.remaining == 0 && !rec.observed {
                            out.dead_stores.push(DeadStore {
                                index: rec.index,
                                bytes: rec.bytes,
                                killed_at: i,
                            });
                            out.dead_bytes += rec.bytes as u64;
                        }
                    }
                }
                if let Some(id) = new_id {
                    let rec = &mut stores[id as usize];
                    if prev != Some(id) {
                        rec.remaining += 1;
                    }
                    rec.bytes += 1;
                }
            }
        });
    }
    out
}

/// Brute-force oracle for one [`DeadStore`]: replays the byte interval
/// forward and re-proves that every byte is overwritten unobserved.
pub fn confirm_dead_store(insts: &[Inst], finding: &DeadStore) -> Result<(), String> {
    let inst = insts
        .get(finding.index as usize)
        .ok_or_else(|| format!("dead-store index {} out of range", finding.index))?;
    let (addr, bytes) = match &inst.op {
        Op::Store { addr, bytes } => (*addr, *bytes),
        other => {
            return Err(format!(
                "inst #{} is a {}, not a store",
                finding.index,
                other.tag()
            ))
        }
    };
    if bytes != finding.bytes {
        return Err(format!(
            "store #{} writes {bytes} bytes, finding claims {}",
            finding.index, finding.bytes
        ));
    }
    let mut remaining: Vec<u64> = (addr..addr + bytes as u64).collect();
    for (j, later) in insts.iter().enumerate().skip(finding.index as usize + 1) {
        let mut observed = false;
        for_each_read(later, |a, n| {
            if remaining.iter().any(|&b| b >= a && b < a + n as u64) {
                observed = true;
            }
        });
        if observed {
            return Err(format!(
                "store #{} is read at #{j} before being fully overwritten",
                finding.index
            ));
        }
        for_each_write(later, |a, n| {
            remaining.retain(|&b| b < a || b >= a + n as u64);
        });
        if remaining.is_empty() {
            return if j as u64 == finding.killed_at {
                Ok(())
            } else {
                Err(format!(
                    "store #{} is fully overwritten at #{j}, not #{}",
                    finding.index, finding.killed_at
                ))
            };
        }
    }
    Err(format!(
        "store #{} still has {} live bytes at stream end: not dead",
        finding.index,
        remaining.len()
    ))
}
