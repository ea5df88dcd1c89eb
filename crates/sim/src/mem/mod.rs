//! Memory hierarchy: L1D → L2 → L3 → DRAM with bandwidth modeling.

mod cache;

pub use cache::{Access, Cache};

use std::sync::{Arc, Mutex};

use crate::calendar::Calendar;
use crate::config::MemConfig;
use crate::stats::{CacheStats, RunStats};

/// The last level of a hierarchy: one L3 cache plus the DRAM channel
/// calendar (one transfer at a time), either private to a core or shared
/// by a socket's cores ([`SharedLlc`]).
#[derive(Debug, Clone)]
struct LlcState {
    l3: Cache,
    dram: Calendar,
}

/// An L3 + DRAM channel shared by every core of a simulated socket.
///
/// Attach one handle to each core's [`Hierarchy`] (via
/// [`Hierarchy::attach_shared`]) and the cores' L2 misses walk a *common*
/// L3 and book transfers on a *common* DRAM calendar — which is what
/// models inter-core contention: a line transfer booked by one core
/// pushes another core's fill later in time. Cores of a socket are
/// simulated sequentially (deterministic arbitration: earlier-simulated
/// cores win equal-time slots), so the interior mutex is uncontended; it
/// exists so engines holding a handle stay `Send` for the bench harness's
/// worker threads.
///
/// With a single attached core the shared walk performs exactly the same
/// cache and calendar operations as a private hierarchy, so an N=1 socket
/// is bit-identical to the plain single-core engine.
#[derive(Debug)]
pub struct SharedLlc {
    state: Mutex<LlcState>,
}

impl SharedLlc {
    /// A fresh shared LLC sized by `cfg.l3` with one DRAM channel.
    pub fn new(cfg: &MemConfig) -> Self {
        SharedLlc {
            state: Mutex::new(LlcState::new(cfg)),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LlcState> {
        self.state.lock().expect("shared LLC lock poisoned")
    }

    /// Aggregate L3 statistics across every attached core.
    pub fn l3_stats(&self) -> CacheStats {
        self.lock().l3.stats()
    }
}

/// Counter deltas produced by one walk of the L3/DRAM leg; merged into the
/// owning core's observation counters after the (possibly shared) state
/// lock is released.
#[derive(Default)]
struct LlcEffects {
    level: u8,
    read_bytes: u64,
    write_bytes: u64,
    busy_cycles: u64,
    wait_cycles: u64,
}

fn transfer_cycles(bytes: u64, bytes_per_cycle: f64) -> u64 {
    ((bytes as f64 / bytes_per_cycle).ceil() as u64).max(1)
}

impl LlcState {
    fn new(cfg: &MemConfig) -> Self {
        LlcState {
            l3: Cache::new(cfg.l3),
            dram: Calendar::new(1),
        }
    }

    /// Books a dirty-line writeback on the DRAM channel.
    fn writeback(&mut self, cfg: &MemConfig, at: u64, fx: &mut LlcEffects) {
        let line = cfg.l3.line_bytes as u64;
        let occupancy = transfer_cycles(line, cfg.dram_bytes_per_cycle);
        self.dram.book_span(at, occupancy);
        fx.busy_cycles += occupancy;
        fx.write_bytes += line;
    }

    /// Installs an L2 victim into L3, cascading an evicted dirty line to
    /// DRAM.
    fn install_dirty(&mut self, cfg: &MemConfig, line_addr: u64, at: u64, fx: &mut LlcEffects) {
        if self.l3.install_dirty(line_addr).is_some() {
            self.writeback(cfg, at, fx);
        }
    }

    /// The demand-fill L3 lookup + DRAM transfer on miss. `latency` already
    /// includes the L1 + L2 + L3 lookup latencies; returns `done - now`.
    fn demand(
        &mut self,
        cfg: &MemConfig,
        addr: u64,
        now: u64,
        latency: u64,
        fx: &mut LlcEffects,
    ) -> u64 {
        match self.l3.access(addr, false) {
            Access::Hit => {
                fx.level = 3;
                return latency;
            }
            Access::Miss { dirty_victim } => {
                if dirty_victim.is_some() {
                    self.writeback(cfg, now + latency, fx);
                }
            }
        }
        // DRAM: wait for a channel slot, transfer one line.
        fx.level = 4;
        let request_at = now + latency;
        let line = cfg.l3.line_bytes as u64;
        let occupancy = transfer_cycles(line, cfg.dram_bytes_per_cycle);
        let start = self.dram.book_span(request_at, occupancy);
        fx.wait_cycles += start.saturating_sub(request_at);
        fx.busy_cycles += occupancy;
        fx.read_bytes += line;
        let done = start + cfg.dram_latency as u64;
        done - now
    }

    /// The L3/DRAM leg of a prefetch: fills the line off the demand path,
    /// consuming DRAM bandwidth but adding no latency (and not touching the
    /// level mark). `line` is the prefetcher's transfer size (L2 line).
    fn prefetch(&mut self, cfg: &MemConfig, target: u64, at: u64, line: u64, fx: &mut LlcEffects) {
        if let Access::Miss { dirty_victim } = self.l3.access(target, false) {
            if dirty_victim.is_some() {
                self.writeback(cfg, at, fx);
            }
            let occupancy = transfer_cycles(line, cfg.dram_bytes_per_cycle);
            self.dram.book_span(at, occupancy);
            fx.busy_cycles += occupancy;
            fx.read_bytes += line;
        }
    }
}

/// A core's handle on its last level: private state, or a socket's
/// [`SharedLlc`]. Every L2 miss walks it through [`Llc::with`].
#[derive(Debug, Clone)]
enum Llc {
    Private(LlcState),
    Shared(Arc<SharedLlc>),
}

impl Llc {
    /// Runs `f` on the last-level state (the shared one under its lock).
    fn with<R>(&mut self, f: impl FnOnce(&mut LlcState) -> R) -> R {
        match self {
            Llc::Private(state) => f(state),
            Llc::Shared(shared) => f(&mut shared.lock()),
        }
    }

    /// L3 statistics; socket-wide for a shared LLC.
    fn l3_stats(&self) -> CacheStats {
        match self {
            Llc::Private(state) => state.l3.stats(),
            Llc::Shared(shared) => shared.l3_stats(),
        }
    }
}

/// The three-level cache hierarchy plus a DRAM channel with latency and
/// bandwidth limits.
///
/// An access walks the levels; every miss fills the line on the way back
/// (write-allocate) and dirty evictions propagate downward as writeback
/// traffic. The DRAM channel serializes transfers at
/// `dram_bytes_per_cycle`, which is what lets memory-bound kernels saturate
/// — the effect VIA exploits by keeping the dense vector out of the memory
/// system (paper §III-B).
#[derive(Debug, Clone)]
pub struct Hierarchy {
    cfg: MemConfig,
    l1: Cache,
    l2: Cache,
    /// L3 + DRAM channel: private, or socket-shared to model inter-core
    /// LLC capacity and DRAM bandwidth contention. All observation
    /// counters below stay per-core.
    llc: Llc,
    dram_read_bytes: u64,
    dram_write_bytes: u64,
    dram_busy_cycles: u64,
    prefetches_issued: u64,
    /// Cumulative cycles demand fills queued for the DRAM channel
    /// (booking start − request time). Pure observation for `via-trace`;
    /// never feeds back into timing.
    dram_wait_cycles: u64,
    /// Cumulative cycles accesses queued for a load/store-port slot.
    port_wait_cycles: u64,
    /// Deepest level reached since the engine last cleared the mark
    /// (0 = untouched/L1 hit, 2 = L2, 3 = L3, 4 = DRAM). Only the
    /// miss walk writes it, so the L1-hit fast path stays untouched.
    level_mark: u8,
}

impl Hierarchy {
    /// A new, empty hierarchy.
    pub fn new(cfg: MemConfig) -> Self {
        Hierarchy {
            l1: Cache::new(cfg.l1),
            l2: Cache::new(cfg.l2),
            llc: Llc::Private(LlcState::new(&cfg)),
            cfg,
            dram_read_bytes: 0,
            dram_write_bytes: 0,
            dram_busy_cycles: 0,
            prefetches_issued: 0,
            dram_wait_cycles: 0,
            port_wait_cycles: 0,
            level_mark: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Performs one access of up to a cache line at `addr` and returns its
    /// latency in cycles, given the access starts at absolute cycle `now`.
    ///
    /// Multi-line accesses must be split by the caller; unit-stride vector
    /// accesses should go through [`Hierarchy::access_span`], which splits
    /// internally without allocating.
    /// The L1-hit case (the overwhelming majority once a kernel's working
    /// set is resident) inlines into callers; the multi-level miss walk
    /// stays a call away.
    #[inline]
    pub fn access(&mut self, addr: u64, write: bool, now: u64) -> u64 {
        match self.l1.access(addr, write) {
            Access::Hit => self.cfg.l1.latency as u64,
            Access::Miss { dirty_victim } => self.access_beyond_l1(addr, dirty_victim, now),
        }
    }

    /// Continues an access that missed L1: walks L2 → L3 → DRAM, filling
    /// and propagating writebacks on the way back.
    fn access_beyond_l1(&mut self, addr: u64, l1_victim: Option<u64>, now: u64) -> u64 {
        let mut latency = self.cfg.l1.latency as u64;
        if let Some(victim) = l1_victim {
            self.writeback_to_l2(victim, now);
        }
        latency += self.cfg.l2.latency as u64;
        // The fill from L2 (or below) also installs into L1 (done above by
        // access's write-allocate; the line was already inserted).
        match self.l2.access(addr, false) {
            Access::Hit => {
                self.note_level(2);
                return latency;
            }
            Access::Miss { dirty_victim } => {
                if let Some(victim) = dirty_victim {
                    self.writeback_to_l3(victim, now);
                }
                // Next-line stream prefetch into L2 (off the demand path;
                // the transfers still consume DRAM bandwidth).
                if self.cfg.prefetch_degree > 0 {
                    self.prefetch_from(addr, now + latency);
                }
            }
        }
        latency += self.cfg.l3.latency as u64;
        let mut fx = LlcEffects::default();
        let cfg = &self.cfg;
        let total = self
            .llc
            .with(|llc| llc.demand(cfg, addr, now, latency, &mut fx));
        self.merge_effects(fx);
        total
    }

    /// Merges one L3/DRAM walk's counter deltas into the per-core
    /// observation counters.
    fn merge_effects(&mut self, fx: LlcEffects) {
        self.dram_read_bytes += fx.read_bytes;
        self.dram_write_bytes += fx.write_bytes;
        self.dram_busy_cycles += fx.busy_cycles;
        self.dram_wait_cycles += fx.wait_cycles;
        self.note_level(fx.level);
    }

    fn writeback_to_l2(&mut self, line_addr: u64, at: u64) {
        if let Some(victim) = self.l2.install_dirty(line_addr) {
            self.writeback_to_l3(victim, at);
        }
    }

    fn writeback_to_l3(&mut self, line_addr: u64, at: u64) {
        // Off the critical path, but queued no earlier than the access
        // that evicted it.
        let mut fx = LlcEffects::default();
        let cfg = &self.cfg;
        self.llc
            .with(|llc| llc.install_dirty(cfg, line_addr, at, &mut fx));
        self.merge_effects(fx);
    }

    /// Attaches a socket-shared LLC: from now on L2 misses walk `shared`'s
    /// L3 and book its DRAM calendar instead of the private ones. Attach
    /// before any traffic (the private L3's contents are not migrated).
    pub fn attach_shared(&mut self, shared: Arc<SharedLlc>) {
        self.llc = Llc::Shared(shared);
    }

    /// The attached shared LLC, if any.
    pub fn shared_llc(&self) -> Option<&Arc<SharedLlc>> {
        match &self.llc {
            Llc::Shared(shared) => Some(shared),
            Llc::Private(_) => None,
        }
    }

    /// Discards DRAM channel bookings below `t` (called by the engine as
    /// the fetch frontier advances). With a shared LLC attached this is a
    /// no-op: sibling cores are simulated sequentially from cycle 0, so
    /// "history" for this core is still the future for the next one —
    /// pruning would erase cross-core contention. (Pruning is timing-
    /// neutral for the pruning core itself, so skipping it keeps N=1
    /// bit-identical.)
    pub fn prune_below(&mut self, t: u64) {
        if let Llc::Private(llc) = &mut self.llc {
            llc.dram.prune_below(t);
        }
    }

    /// Issues `prefetch_degree` next-line prefetches into L2 starting after
    /// `addr`'s line. Prefetched lines that miss L3 occupy the DRAM channel
    /// like demand fills but add no latency to the triggering access.
    fn prefetch_from(&mut self, addr: u64, at: u64) {
        let line = self.cfg.l2.line_bytes as u64;
        let base = addr & !(line - 1);
        for d in 1..=self.cfg.prefetch_degree as u64 {
            let target = base + d * line;
            if self.l2.contains(target) {
                continue;
            }
            self.prefetches_issued += 1;
            if let Access::Miss { dirty_victim } = self.l2.access(target, false) {
                if let Some(victim) = dirty_victim {
                    self.writeback_to_l3(victim, at);
                }
                let mut fx = LlcEffects::default();
                let cfg = &self.cfg;
                self.llc
                    .with(|llc| llc.prefetch(cfg, target, at, line, &mut fx));
                self.merge_effects(fx);
            }
        }
    }

    /// Number of prefetches issued so far.
    pub fn prefetches_issued(&self) -> u64 {
        self.prefetches_issued
    }

    // ---- via-trace observation counters --------------------------------

    #[inline]
    fn note_level(&mut self, level: u8) {
        if level > self.level_mark {
            self.level_mark = level;
        }
    }

    /// Cumulative cycles demand fills queued behind the DRAM channel
    /// calendar. The engine diffs this around an access to attribute
    /// bandwidth stalls.
    pub fn dram_wait_cycles(&self) -> u64 {
        self.dram_wait_cycles
    }

    /// Cumulative cycles accesses queued for a load/store-port slot.
    pub fn port_wait_cycles(&self) -> u64 {
        self.port_wait_cycles
    }

    /// Adds externally observed port-slot wait (the engine books ports
    /// itself for gather/scatter elements).
    pub fn note_port_wait(&mut self, cycles: u64) {
        self.port_wait_cycles += cycles;
    }

    /// Deepest level the miss walk reached since the last clear
    /// (0 = every access hit L1, 2/3 = L2/L3, 4 = DRAM).
    pub fn level_mark(&self) -> u8 {
        self.level_mark
    }

    /// Resets the deepest-level mark (called by the engine before each
    /// traced instruction).
    pub fn clear_level_mark(&mut self) {
        self.level_mark = 0;
    }

    /// Performs a unit-stride access of `bytes` starting at `addr`,
    /// splitting it into line-sized pieces internally — one amortized call
    /// per vector access instead of one [`Hierarchy::access`] per line,
    /// with no intermediate address list. Each piece books one slot on
    /// `ports` no earlier than `t` (fills overlap; latency is the max).
    /// Stores complete at store-buffer acceptance (L1 latency) — fill and
    /// writeback traffic is still charged to the memory system, but a
    /// store miss does not sit on the dependence/commit critical path.
    pub fn access_span(
        &mut self,
        addr: u64,
        bytes: u32,
        write: bool,
        t: u64,
        ports: &mut Calendar,
    ) -> u64 {
        let line = self.cfg.l1.line_bytes as u64;
        let sb_latency = self.cfg.l1.latency as u64;
        let first = addr & !(line - 1);
        let last = (addr + bytes.max(1) as u64 - 1) & !(line - 1);
        let mut done = t;
        let mut piece = first;
        loop {
            let start = ports.book(t);
            self.port_wait_cycles += start.saturating_sub(t);
            let lat = self.access(piece, write, start);
            let effective = if write { sb_latency } else { lat };
            done = done.max(start + effective);
            if piece >= last {
                break;
            }
            piece += line;
        }
        done
    }

    /// Splits a `[addr, addr + bytes)` access into line-aligned pieces.
    pub fn lines_touched(&self, addr: u64, bytes: u32) -> impl Iterator<Item = u64> {
        let line = self.cfg.l1.line_bytes as u64;
        let first = addr & !(line - 1);
        let last = (addr + bytes.max(1) as u64 - 1) & !(line - 1);
        (first..=last).step_by(line as usize)
    }

    /// Copies the hierarchy counters into `stats`. With a shared LLC
    /// attached, `stats.l3` carries the *socket-wide* L3 statistics (hits
    /// and misses are not separable per core once the cache is shared);
    /// the DRAM byte/busy counters stay per-core.
    pub fn fill_stats(&self, stats: &mut RunStats) {
        stats.l1 = self.l1.stats();
        stats.l2 = self.l2.stats();
        stats.l3 = self.llc.l3_stats();
        stats.dram_read_bytes = self.dram_read_bytes;
        stats.dram_write_bytes = self.dram_write_bytes;
        stats.dram_busy_cycles = self.dram_busy_cycles;
    }

    /// Whether an address is resident in L1 (test helper).
    pub fn in_l1(&self, addr: u64) -> bool {
        self.l1.contains(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hierarchy() -> Hierarchy {
        Hierarchy::new(MemConfig::default())
    }

    #[test]
    fn cold_access_pays_full_path() {
        let mut h = hierarchy();
        let cfg = h.config().clone();
        let lat = h.access(0x1000, false, 0);
        let min = (cfg.l1.latency + cfg.l2.latency + cfg.l3.latency + cfg.dram_latency) as u64;
        assert!(lat >= min, "cold access {lat} < {min}");
    }

    #[test]
    fn warm_access_hits_l1() {
        let mut h = hierarchy();
        h.access(0x1000, false, 0);
        let lat = h.access(0x1000, false, 100);
        assert_eq!(lat, h.config().l1.latency as u64);
    }

    #[test]
    fn same_line_is_one_fill() {
        let mut h = hierarchy();
        h.access(0x1000, false, 0);
        let lat = h.access(0x1030, false, 10); // same 64B line
        assert_eq!(lat, h.config().l1.latency as u64);
    }

    #[test]
    fn dram_bandwidth_serializes_streams() {
        let mut h = hierarchy();
        // Two cold lines requested at the same cycle: the second transfer
        // queues behind the first.
        let l1 = h.access(0x10000, false, 0);
        let l2 = h.access(0x20000, false, 0);
        assert!(l2 > l1);
    }

    #[test]
    fn writeback_traffic_is_counted() {
        let mut h = hierarchy();
        let cfg = h.config().clone();
        // Dirty enough lines mapping everywhere to force L1..L3 evictions:
        // touching more than the whole L3 capacity guarantees DRAM
        // writebacks of the dirty data.
        let lines = (cfg.l3.size_bytes / cfg.l3.line_bytes) * 2;
        let mut t = 0;
        for i in 0..lines as u64 {
            t += h.access(0x100000 + i * 64, true, t);
        }
        let mut stats = RunStats::default();
        h.fill_stats(&mut stats);
        assert!(stats.dram_write_bytes > 0, "expected dirty writebacks");
        assert!(stats.dram_read_bytes as usize >= lines * 64);
    }

    #[test]
    fn lines_touched_splits_correctly() {
        let h = hierarchy();
        let lines: Vec<u64> = h.lines_touched(0x100, 32).collect();
        assert_eq!(lines, vec![0x100]);
        let lines: Vec<u64> = h.lines_touched(0x13c, 8).collect();
        assert_eq!(lines, vec![0x100, 0x140]);
        let lines: Vec<u64> = h.lines_touched(0x100, 129).collect();
        assert_eq!(lines, vec![0x100, 0x140, 0x180]);
    }

    #[test]
    fn stats_account_hits_and_misses() {
        let mut h = hierarchy();
        h.access(0x0, false, 0);
        h.access(0x0, false, 10);
        h.access(0x40, false, 20);
        let mut stats = RunStats::default();
        h.fill_stats(&mut stats);
        assert_eq!(stats.l1.hits, 1);
        assert_eq!(stats.l1.misses, 2);
    }

    #[test]
    fn prefetcher_turns_stream_misses_into_hits() {
        let mut with_pf = Hierarchy::new(MemConfig {
            prefetch_degree: 2,
            ..MemConfig::default()
        });
        let mut without = Hierarchy::new(MemConfig::default());
        // Stream 64 consecutive lines through both.
        let (mut t1, mut t2) = (0u64, 0u64);
        for i in 0..64u64 {
            t1 += with_pf.access(0x40_0000 + i * 64, false, t1);
            t2 += without.access(0x40_0000 + i * 64, false, t2);
        }
        assert!(with_pf.prefetches_issued() > 0);
        // The prefetched stream resolves in L2 instead of DRAM.
        let mut s1 = RunStats::default();
        let mut s2 = RunStats::default();
        with_pf.fill_stats(&mut s1);
        without.fill_stats(&mut s2);
        assert!(
            s1.l2.hits > s2.l2.hits,
            "prefetching should create L2 hits: {} vs {}",
            s1.l2.hits,
            s2.l2.hits
        );
        assert!(t1 < t2, "prefetched stream should be faster: {t1} vs {t2}");
    }

    #[test]
    fn prefetch_degree_zero_issues_nothing() {
        let mut h = Hierarchy::new(MemConfig::default());
        for i in 0..16u64 {
            h.access(0x50_0000 + i * 64, false, i * 10);
        }
        assert_eq!(h.prefetches_issued(), 0);
    }

    #[test]
    fn shared_llc_single_core_is_bit_identical() {
        // A lone hierarchy attached to a shared LLC must behave exactly
        // like a private one: same latencies, same counters.
        let mut private = hierarchy();
        let mut shared_h = hierarchy();
        shared_h.attach_shared(Arc::new(SharedLlc::new(&MemConfig::default())));
        let (mut tp, mut ts) = (0u64, 0u64);
        for i in 0..512u64 {
            let addr = 0x10_0000 + (i * 4096) % (32 << 20);
            tp += private.access(addr, i % 3 == 0, tp);
            ts += shared_h.access(addr, i % 3 == 0, ts);
        }
        assert_eq!(tp, ts);
        let (mut sp, mut ss) = (RunStats::default(), RunStats::default());
        private.fill_stats(&mut sp);
        shared_h.fill_stats(&mut ss);
        assert_eq!(sp, ss);
        assert_eq!(private.dram_wait_cycles(), shared_h.dram_wait_cycles());
    }

    #[test]
    fn shared_llc_models_cross_core_contention() {
        // Two cores streaming cold lines through one shared LLC: the
        // second core's fills queue behind the first core's bookings,
        // so it runs slower than it would alone.
        let shared = Arc::new(SharedLlc::new(&MemConfig::default()));
        let mut core0 = hierarchy();
        core0.attach_shared(shared.clone());
        let mut core1 = hierarchy();
        core1.attach_shared(shared.clone());
        let mut alone = hierarchy();
        // Core 0 saturates the channel first (sequential simulation).
        let mut t0 = 0u64;
        for i in 0..256u64 {
            t0 += core0.access(0x100_0000 + i * 64, false, t0);
        }
        let (mut t1, mut ta) = (0u64, 0u64);
        for i in 0..256u64 {
            t1 += core1.access(0x800_0000 + i * 64, false, t1);
            ta += alone.access(0x800_0000 + i * 64, false, ta);
        }
        assert!(
            t1 > ta,
            "contended core ({t1}) should be slower than uncontended ({ta})"
        );
        assert!(core1.dram_wait_cycles() > alone.dram_wait_cycles());
    }

    #[test]
    fn shared_llc_shares_capacity() {
        // A line filled by one core hits in L3 for another core.
        let shared = Arc::new(SharedLlc::new(&MemConfig::default()));
        let mut core0 = hierarchy();
        core0.attach_shared(shared.clone());
        let mut core1 = hierarchy();
        core1.attach_shared(shared.clone());
        core0.access(0x42_0000, false, 0);
        let cfg = core1.config().clone();
        let lat = core1.access(0x42_0000, false, 10_000);
        assert_eq!(
            lat,
            (cfg.l1.latency + cfg.l2.latency + cfg.l3.latency) as u64,
            "second core should hit the shared L3"
        );
    }

    #[test]
    fn shared_llc_prune_is_a_no_op() {
        let shared = Arc::new(SharedLlc::new(&MemConfig::default()));
        let mut h = hierarchy();
        h.attach_shared(shared);
        h.access(0x77_0000, false, 0);
        // Pruning must not discard shared-calendar history (a sibling core
        // simulated later still contends with it).
        h.prune_below(1_000_000);
        let mut sibling = hierarchy();
        sibling.attach_shared(h.shared_llc().unwrap().clone());
        let uncontended = hierarchy().access(0x99_0000, false, 0);
        let contended = sibling.access(0x99_0000, false, 0);
        assert!(contended > uncontended, "booking history must survive");
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = hierarchy();
        let cfg = h.config().clone();
        h.access(0x0, false, 0);
        // Evict 0x0 from L1 by filling its set (same set every l1-size/ways
        // stride).
        let stride = (cfg.l1.size_bytes / cfg.l1.ways) as u64;
        let mut t = 100;
        for i in 1..=cfg.l1.ways as u64 {
            t += h.access(i * stride, false, t);
        }
        assert!(!h.in_l1(0x0));
        // Now it should hit in L2 (cheaper than DRAM).
        let lat = h.access(0x0, false, t);
        assert_eq!(lat, (cfg.l1.latency + cfg.l2.latency) as u64);
    }
}
