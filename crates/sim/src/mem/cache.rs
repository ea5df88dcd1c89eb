//! A single set-associative, write-back, write-allocate cache level.

use crate::config::CacheConfig;
use crate::stats::CacheStats;

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The line was present.
    Hit,
    /// The line was filled; if a dirty victim was evicted its line address
    /// is returned so the caller can propagate the writeback.
    Miss {
        /// Line-aligned address of the evicted dirty line, if any.
        dirty_victim: Option<u64>,
    },
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    dirty: bool,
}

/// One cache level with true-LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    set_shift: u32,
    set_mask: u64,
    /// Per set, most-recently-used first.
    sets: Vec<Vec<Line>>,
    /// `(set, tag)` of the last access. That line is by construction the
    /// MRU of its set, so a repeat access (the common case for sequential
    /// kernels walking a line 8 elements at a time) needs no probe, no
    /// LRU rotation — just a dirty-bit OR and a hit count.
    last_hit: Option<(usize, u64)>,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see
    /// [`CacheConfig::sets`]) or the line size / set count is not a power
    /// of two.
    pub fn new(cfg: CacheConfig) -> Self {
        let nsets = cfg.sets();
        assert!(
            cfg.line_bytes.is_power_of_two() && nsets.is_power_of_two(),
            "line size and set count must be powers of two"
        );
        Cache {
            cfg,
            set_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: (nsets - 1) as u64,
            sets: vec![Vec::with_capacity(cfg.ways); nsets],
            last_hit: None,
            stats: CacheStats::default(),
        }
    }

    /// The configuration this cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Line-aligned address for `addr`.
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr & !((self.cfg.line_bytes as u64) - 1)
    }

    #[inline]
    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.set_shift;
        (
            (line & self.set_mask) as usize,
            line >> self.set_mask.count_ones(),
        )
    }

    /// Accesses `addr`; on a miss the line is filled (write-allocate).
    /// `write` marks the line dirty.
    ///
    /// The memo check is the whole hot path (sequential kernels re-touch
    /// the same line element by element); it inlines into callers while
    /// the probe/fill machinery stays a call away.
    #[inline]
    pub fn access(&mut self, addr: u64, write: bool) -> Access {
        let (set_idx, tag) = self.set_and_tag(addr);
        if self.last_hit == Some((set_idx, tag)) {
            // The memoized line is the MRU of its set, so the slow path's
            // remove/insert rotation would be the identity: only the dirty
            // bit and the hit counter change.
            self.sets[set_idx][0].dirty |= write;
            self.stats.hits += 1;
            return Access::Hit;
        }
        self.probe(set_idx, tag, write)
    }

    /// Probe-and-fill path for accesses that miss the last-line memo.
    fn probe(&mut self, set_idx: usize, tag: u64, write: bool) -> Access {
        self.last_hit = Some((set_idx, tag));
        let set_bits = self.set_mask.count_ones();
        let set_shift = self.set_shift;
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|l| l.tag == tag) {
            let mut line = set.remove(pos);
            line.dirty |= write;
            set.insert(0, line);
            self.stats.hits += 1;
            return Access::Hit;
        }
        self.stats.misses += 1;
        let dirty_victim = if set.len() == self.cfg.ways {
            let victim = set.pop().expect("set non-empty");
            if victim.dirty {
                self.stats.writebacks += 1;
                Some(((victim.tag << set_bits) | set_idx as u64) << set_shift)
            } else {
                None
            }
        } else {
            None
        };
        set.insert(0, Line { tag, dirty: write });
        Access::Miss { dirty_victim }
    }

    /// Whether `addr`'s line is currently resident (does not update LRU or
    /// stats).
    pub fn contains(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.set_and_tag(addr);
        self.sets[set_idx].iter().any(|l| l.tag == tag)
    }

    /// Installs a line without counting an access (used for writeback
    /// traffic arriving from an upper level). Returns a dirty victim like
    /// [`Cache::access`].
    pub fn install_dirty(&mut self, addr: u64) -> Option<u64> {
        match self.access(addr, true) {
            Access::Hit => {
                // Undo the statistics: writebacks are not demand accesses.
                self.stats.hits -= 1;
                None
            }
            Access::Miss { dirty_victim } => {
                self.stats.misses -= 1;
                dirty_victim
            }
        }
    }

    /// Number of resident lines (for tests).
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512 B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
            latency: 1,
        })
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = tiny();
        assert!(matches!(c.access(0x1000, false), Access::Miss { .. }));
        assert_eq!(c.access(0x1000, false), Access::Hit);
        assert_eq!(c.access(0x1008, false), Access::Hit); // same line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Three lines mapping to the same set (set stride = 4 sets * 64 B = 256 B).
        let (a, b, d) = (0x0u64, 0x100u64, 0x200u64);
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // a is now MRU
        c.access(d, false); // evicts b
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn dirty_eviction_reports_victim_address() {
        let mut c = tiny();
        c.access(0x0, true); // dirty
        c.access(0x100, false);
        let res = c.access(0x200, false); // evicts dirty 0x0
        match res {
            Access::Miss { dirty_victim } => assert_eq!(dirty_victim, Some(0x0)),
            _ => panic!("expected miss"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_victim() {
        let mut c = tiny();
        c.access(0x0, false);
        c.access(0x100, false);
        match c.access(0x200, false) {
            Access::Miss { dirty_victim } => assert_eq!(dirty_victim, None),
            _ => panic!("expected miss"),
        }
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0x0, false);
        c.access(0x0, true); // hit, marks dirty
        c.access(0x100, false);
        match c.access(0x200, false) {
            Access::Miss { dirty_victim } => assert_eq!(dirty_victim, Some(0x0)),
            _ => panic!("expected miss"),
        }
    }

    #[test]
    fn victim_address_reconstruction_round_trips() {
        let mut c = tiny();
        let addr = 0x12340; // arbitrary line
        c.access(addr, true);
        let set_stride = 0x100u64;
        c.access(addr + set_stride, false);
        match c.access(addr + 2 * set_stride, false) {
            Access::Miss { dirty_victim } => {
                assert_eq!(dirty_victim, Some(c.line_addr(addr)));
            }
            _ => panic!("expected miss"),
        }
    }

    #[test]
    fn install_dirty_does_not_change_demand_stats() {
        let mut c = tiny();
        c.install_dirty(0x40);
        assert_eq!(c.stats().hits + c.stats().misses, 0);
        assert!(c.contains(0x40));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = tiny();
        for i in 0..4u64 {
            c.access(i * 64, false);
        }
        assert_eq!(c.resident_lines(), 4);
        for i in 0..4u64 {
            assert_eq!(c.access(i * 64, false), Access::Hit);
        }
    }
}
