//! Compile-once / replay-many support for design-space sweeps.
//!
//! Sweeps (`fig9_dse`, `via-campaign`) historically re-emitted and
//! re-decoded every kernel's instruction stream at every (config × matrix)
//! point, redoing identical work thousands of times. This module splits
//! that pipeline:
//!
//! * **compile** — run a kernel once with
//!   [`Engine::enable_recording`](crate::Engine::enable_recording) to
//!   obtain a [`CompiledStream`]: the pre-decoded flat instruction array
//!   with its operand/dependence edges already resolved into
//!   virtual-register ids, plus its region/marker events and content hash;
//! * **replay** — [`Engine::replay`](crate::Engine::replay) is a timing
//!   loop over that array: no per-sweep emission, allocation, or
//!   dependence recomputation. It runs the same per-instruction verify
//!   step as a push, so whether a replay is checked depends only on the
//!   replaying engine (debug build or report capture), never on how the
//!   stream was recorded.
//!
//! Two memo levels layer on top: a process-wide [`StreamCache`] (keyed by
//! the caller's FNV-1a content hashes, shared across sweep workers so each
//! (matrix, kernel) point compiles exactly once per process), and the
//! persistent (stream-hash, config-hash) → cycle cache `via-campaign`
//! keeps in its JSONL store. [`fnv1a64`], [`stream_hash`] and
//! [`config_hash`] define those keys.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::config::{CoreConfig, MemConfig};
use crate::prog::{Inst, Op};
use crate::telemetry;

/// 64-bit FNV-1a over a byte stream. Stable across platforms and releases —
/// it keys the campaign store's content seals and the persistent cycle
/// cache, so changing it would orphan every existing store.
pub fn fnv1a64(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = Fnv::new();
    for b in bytes {
        h.write_u8(b);
    }
    h.finish()
}

/// Incremental FNV-1a hasher (the loop form of [`fnv1a64`], for hashing
/// structured data without materializing a byte buffer).
#[derive(Debug, Clone)]
struct Fnv(u64);

impl Fnv {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x100_0000_01b3;

    fn new() -> Self {
        Fnv(Self::OFFSET)
    }

    #[inline]
    fn write_u8(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(Self::PRIME);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Canonical content hash of an instruction array: FNV-1a over a fixed
/// little-endian encoding of every instruction (op discriminant + payload,
/// source registers, destination). Two arrays hash equal iff they replay
/// to identical cycles, so this is the first half of the persistent
/// (stream-hash, config-hash) cycle-cache key.
/// [`CompiledStream::stream_hash`] extends this with the recorded
/// region/marker events (which don't affect timing but are part of the
/// stream's observable content).
pub fn stream_hash(insts: &[Inst]) -> u64 {
    let mut h = Fnv::new();
    for inst in insts {
        hash_inst(&mut h, inst);
    }
    h.finish()
}

fn hash_inst(h: &mut Fnv, inst: &Inst) {
    match &inst.op {
        Op::Scalar { kind } => {
            h.write_u8(0);
            h.write_u8(*kind as u8);
        }
        Op::Load { addr, bytes } => {
            h.write_u8(1);
            h.write_u64(*addr);
            h.write_u32(*bytes);
        }
        Op::Store { addr, bytes } => {
            h.write_u8(2);
            h.write_u64(*addr);
            h.write_u32(*bytes);
        }
        Op::Gather { addrs, elem_bytes } => {
            h.write_u8(3);
            h.write_u32(*elem_bytes);
            h.write_u32(addrs.len() as u32);
            for &a in addrs.as_slice() {
                h.write_u64(a);
            }
        }
        Op::Scatter { addrs, elem_bytes } => {
            h.write_u8(4);
            h.write_u32(*elem_bytes);
            h.write_u32(addrs.len() as u32);
            for &a in addrs.as_slice() {
                h.write_u64(a);
            }
        }
        Op::Vec { kind } => {
            h.write_u8(5);
            h.write_u8(*kind as u8);
        }
        Op::Custom {
            occupancy,
            latency,
            at_commit,
        } => {
            h.write_u8(6);
            h.write_u32(*occupancy);
            h.write_u32(*latency);
            h.write_u8(*at_commit as u8);
        }
        Op::Branch { taken, site } => {
            h.write_u8(7);
            h.write_u8(*taken as u8);
            h.write_u32(*site);
        }
        Op::Delay { cycles } => {
            h.write_u8(8);
            h.write_u32(*cycles);
        }
        Op::Fence => h.write_u8(9),
    }
    h.write_u8(inst.srcs.len() as u8);
    for &r in inst.srcs.as_slice() {
        h.write_u32(r);
    }
    match inst.dst {
        Some(d) => {
            h.write_u8(1);
            h.write_u32(d);
        }
        None => h.write_u8(0),
    }
}

/// Content hash of the timing-relevant machine configuration (core +
/// memory hierarchy), the second half of the persistent cycle-cache key: a
/// cached cycle count is only valid for replay under the exact
/// configuration that produced it. Hashes the `Debug` rendering, which
/// covers every field of both structs.
pub fn config_hash(core: &CoreConfig, mem: &MemConfig) -> u64 {
    fnv1a64(format!("{core:?}|{mem:?}").into_bytes())
}

/// A non-instruction annotation recorded alongside the stream: kernel
/// region boundaries and trace markers are engine API calls, not
/// instructions, so replay must re-issue them at the recorded stream
/// positions for stall-attribution region labels (and Chrome traces) to be
/// bit-identical to the interpreted run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamEvent {
    /// [`Engine::region`](crate::Engine::region) with this name.
    RegionBegin(&'static str),
    /// [`Engine::region_end`](crate::Engine::region_end).
    RegionEnd,
    /// [`Engine::trace_marker`](crate::Engine::trace_marker).
    Marker(&'static str),
}

/// A kernel's instruction stream compiled for replay: the pre-decoded flat
/// instruction array (operand/dependence edges resolved into virtual
/// register ids at emission), the region/marker annotations, and the
/// content hash over both. Plain data: it carries no verify report. See
/// the [module docs](self) for the compile/replay pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledStream {
    insts: Vec<Inst>,
    /// `(position, event)` pairs, non-decreasing in position: the event
    /// fired after `position` instructions had been pushed.
    events: Vec<(usize, StreamEvent)>,
    stream_hash: u64,
}

impl CompiledStream {
    /// Wraps a recorded stream and its region/marker events (used by
    /// [`Engine::take_compiled`](crate::Engine::take_compiled); tests and
    /// tools wrap hand-built instruction lists the same way).
    pub fn from_recording(insts: Vec<Inst>, events: Vec<(usize, StreamEvent)>) -> Self {
        telemetry::record_compiled(insts.len() as u64);
        let mut hash = Fnv::new();
        for inst in &insts {
            hash_inst(&mut hash, inst);
        }
        for (pos, event) in &events {
            hash.write_u64(*pos as u64);
            let (tag, name) = match event {
                StreamEvent::RegionBegin(n) => (0u8, *n),
                StreamEvent::RegionEnd => (1, ""),
                StreamEvent::Marker(n) => (2, *n),
            };
            hash.write_u8(tag);
            for b in name.bytes() {
                hash.write_u8(b);
            }
        }
        CompiledStream {
            insts,
            events,
            stream_hash: hash.finish(),
        }
    }

    /// The pre-decoded instructions, in stream order.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Region/marker annotations as `(position, event)` pairs.
    pub fn events(&self) -> &[(usize, StreamEvent)] {
        &self.events
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The stream's canonical content hash: [`stream_hash`] over the
    /// instructions, extended with the region/marker events.
    pub fn stream_hash(&self) -> u64 {
        self.stream_hash
    }
}

/// A process-wide compiled-stream cache, shared by sweep workers so each
/// (matrix, kernel, config) point compiles exactly once per process.
///
/// Keys are caller-chosen FNV-1a content hashes (the campaign uses its
/// store's matrix fingerprints; `fig9_dse` hashes the sweep-point
/// identity). Hit/miss counts feed both the local accessors and the
/// process-wide [`telemetry`] counters.
#[derive(Debug, Default)]
pub struct StreamCache {
    map: Mutex<HashMap<u64, Arc<CompiledStream>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl StreamCache {
    /// An empty cache.
    pub fn new() -> Self {
        StreamCache::default()
    }

    fn map(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Arc<CompiledStream>>> {
        // A worker can only panic between cache operations (the lock is
        // never held across kernel code), so a poisoned map is still
        // consistent: recover it.
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks up a compiled stream, counting a hit or miss.
    pub fn get(&self, key: u64) -> Option<Arc<CompiledStream>> {
        let found = self.map().get(&key).cloned();
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        telemetry::record_stream_cache(found.is_some());
        found
    }

    /// Inserts a freshly compiled stream and returns the shared handle
    /// (the winner's, if another worker raced the same key).
    pub fn insert(&self, key: u64, stream: CompiledStream) -> Arc<CompiledStream> {
        self.map()
            .entry(key)
            .or_insert_with(|| Arc::new(stream))
            .clone()
    }

    /// Returns the cached stream for `key`, compiling with `f` on a miss.
    pub fn get_or_compile(
        &self,
        key: u64,
        f: impl FnOnce() -> CompiledStream,
    ) -> Arc<CompiledStream> {
        match self.get(key) {
            Some(s) => s,
            None => self.insert(key, f()),
        }
    }

    /// Number of cached streams.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookup hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookup misses since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prog::AluKind;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors; the campaign store depends on
        // these exact values.
        assert_eq!(fnv1a64([]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(*b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(*b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn stream_hash_distinguishes_payload_sources_and_dst() {
        let base = vec![Inst::load(0x100, 8, 1)];
        let other_addr = vec![Inst::load(0x108, 8, 1)];
        let other_dst = vec![Inst::load(0x100, 8, 2)];
        let with_dep = vec![Inst::load_dep(0x100, 8, &[3], 1)];
        let h = stream_hash(&base);
        assert_eq!(h, stream_hash(&base.clone()));
        assert_ne!(h, stream_hash(&other_addr));
        assert_ne!(h, stream_hash(&other_dst));
        assert_ne!(h, stream_hash(&with_dep));
    }

    #[test]
    fn config_hash_tracks_every_timing_knob() {
        let core = CoreConfig::default();
        let mem = MemConfig::default();
        let h = config_hash(&core, &mem);
        assert_eq!(h, config_hash(&core.clone(), &mem.clone()));
        let wide = core.clone().wide_vectors();
        assert_ne!(h, config_hash(&wide, &mem));
        let mut slow = mem.clone();
        slow.dram_latency += 1;
        assert_ne!(h, config_hash(&core, &slow));
    }

    #[test]
    fn stream_cache_shares_and_counts() {
        let cache = StreamCache::new();
        let build = || {
            CompiledStream::from_recording(
                vec![Inst::scalar(AluKind::Int, &[], Some(0))],
                Vec::new(),
            )
        };
        assert!(cache.get(7).is_none());
        let a = cache.get_or_compile(7, build);
        let b = cache.get_or_compile(7, || unreachable!("must hit"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 2); // the bare get() and the first get_or_compile
    }
}
