//! Indexed gathers, and the store-buffer drain that orders a gather
//! behind the previous scatter.
//!
//! Every kernel that gathers builds the addresses of `region[i]` for a run
//! of indices into one reused buffer, then gathers 8-byte elements behind
//! the instruction that produced the indices. Gathers cannot forward from
//! pending scattered stores (§II-C): a gather that reads a cache line the
//! previous scatter wrote stalls until that scatter drains from the store
//! buffer to L1. Conflict detection is line-granular.

use via_sim::{Engine, Reg, Region};

/// Cycles a scatter takes to drain from the store buffer to L1.
const DRAIN_CYCLES: u32 = 20;

/// A sparse format's `u32` indices as element indices.
#[inline]
pub(crate) fn indices(idx: &[u32]) -> impl Iterator<Item = usize> + '_ {
    idx.iter().map(|&i| i as usize)
}

/// An address buffer reused across chunks (gathers and scatters borrow
/// it).
pub(crate) struct Gather(Vec<u64>);

impl Gather {
    /// An empty buffer with room for `n` addresses.
    pub(crate) fn with_capacity(n: usize) -> Self {
        Gather(Vec::with_capacity(n))
    }

    /// Gathers `at[i]` for each index in `idx`, behind `deps`.
    #[inline]
    pub(crate) fn load(
        &mut self,
        e: &mut Engine,
        at: &Region,
        idx: impl IntoIterator<Item = usize>,
        deps: &[Reg],
    ) -> Reg {
        self.fill(at, idx);
        self.gather(e, deps)
    }

    /// Scatters `srcs` to `at[i]` for each index in `idx`.
    #[inline]
    pub(crate) fn store(
        &mut self,
        e: &mut Engine,
        at: &Region,
        idx: impl IntoIterator<Item = usize>,
        srcs: &[Reg],
    ) {
        self.fill(at, idx);
        self.scatter(e, srcs);
    }

    /// Scatters `srcs` to the addresses of the last gather.
    #[inline]
    pub(crate) fn scatter(&self, e: &mut Engine, srcs: &[Reg]) {
        e.scatter(&self.0, 8, srcs);
    }

    #[inline]
    fn fill(&mut self, at: &Region, idx: impl IntoIterator<Item = usize>) {
        self.0.clear();
        self.0.extend(idx.into_iter().map(|i| at.addr_of(i)));
    }

    #[inline]
    fn gather(&self, e: &mut Engine, deps: &[Reg]) -> Reg {
        e.gather(&self.0, 8, deps)
    }
}

/// A gather/modify/scatter update whose gather waits for the previous
/// scatter's store-buffer drain when their cache-line sets overlap.
pub(crate) struct Drain {
    addrs: Gather,
    lines: Vec<u64>,
    prev_lines: Vec<u64>,
    prev: Option<Reg>,
}

impl Drain {
    /// No scatter pending yet; room for `n` addresses per update.
    pub(crate) fn with_capacity(n: usize) -> Self {
        Drain {
            addrs: Gather::with_capacity(n),
            lines: Vec::with_capacity(n),
            prev_lines: Vec::with_capacity(n),
            prev: None,
        }
    }

    /// Gathers `at[i]` for each index in `idx` behind `dep`, and behind
    /// the previous scatter's drain if it wrote one of the same lines.
    #[inline(always)]
    pub(crate) fn gather(
        &mut self,
        e: &mut Engine,
        at: &Region,
        idx: impl IntoIterator<Item = usize>,
        dep: Reg,
    ) -> Reg {
        self.addrs.fill(at, idx);
        self.lines.clear();
        self.lines.extend(self.addrs.0.iter().map(|a| a / 64));
        let mut deps = [dep, dep];
        let mut n = 1;
        if let Some(prev) = self.prev {
            if self.lines.iter().any(|l| self.prev_lines.contains(l)) {
                deps[1] = e.delay(DRAIN_CYCLES, &[prev]);
                n = 2;
            }
        }
        self.addrs.gather(e, &deps[..n])
    }

    /// Scatters `srcs` to the gathered addresses; the next gather drains
    /// behind `srcs[0]`, the stored values.
    #[inline]
    pub(crate) fn scatter(&mut self, e: &mut Engine, srcs: &[Reg]) {
        self.addrs.scatter(e, srcs);
        self.prev = Some(srcs[0]);
        std::mem::swap(&mut self.prev_lines, &mut self.lines);
    }
}
