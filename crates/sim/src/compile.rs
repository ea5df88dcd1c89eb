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
//! A recording engine hashes each instruction as it is pushed, so the
//! stream hash costs no second pass over the recording. An engine built
//! under [`capture_stream_hashes`] hashes the same way without recording
//! anything: a caller that needs a run's stream hash but never replays the
//! stream (the campaign's cycle memo) gets it without holding the stream.
//!
//! Two memo levels layer on top: a process-wide [`StreamCache`] (keyed by
//! the caller's FNV-1a content hashes, shared across sweep workers so each
//! (matrix, kernel) point compiles exactly once per process), and the
//! persistent (stream-hash, config-hash) → cycle cache `via-campaign`
//! keeps in its JSONL store. [`fnv1a64`],
//! [`CompiledStream::stream_hash`] and [`config_hash`] define those keys.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
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

/// Feeds one instruction's canonical encoding to `h`: a fixed
/// little-endian encoding of the op discriminant and payload, the source
/// registers and the destination.
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

/// The incremental form of [`CompiledStream::stream_hash`], fed one
/// instruction at a time as an engine pushes it. Each instruction is
/// hashed on arrival; region/marker events are kept with their stream
/// positions and hashed after the last instruction, so the hash never
/// needs the instructions again.
#[derive(Debug)]
pub(crate) struct StreamHasher {
    fnv: Fnv,
    len: usize,
    events: Vec<(usize, StreamEvent)>,
}

impl StreamHasher {
    pub(crate) fn new() -> Self {
        StreamHasher {
            fnv: Fnv::new(),
            len: 0,
            events: Vec::new(),
        }
    }

    /// Hashes the next instruction of the stream.
    #[inline]
    pub(crate) fn push(&mut self, inst: &Inst) {
        hash_inst(&mut self.fnv, inst);
        self.len += 1;
    }

    /// Notes an event after the instructions pushed so far.
    pub(crate) fn event(&mut self, event: StreamEvent) {
        self.events.push((self.len, event));
    }

    /// The hash of the stream pushed so far, with its events.
    pub(crate) fn hash(&self) -> u64 {
        let mut hash = self.fnv.clone();
        for &(pos, event) in &self.events {
            hash.write_u64(pos as u64);
            let (tag, name) = match event {
                StreamEvent::RegionBegin(n) => (0u8, n),
                StreamEvent::RegionEnd => (1, ""),
                StreamEvent::Marker(n) => (2, n),
            };
            hash.write_u8(tag);
            for b in name.bytes() {
                hash.write_u8(b);
            }
        }
        hash.finish()
    }

    /// The compiled stream of `insts`, the instructions this hasher was
    /// fed.
    pub(crate) fn compile(self, insts: Vec<Inst>) -> CompiledStream {
        debug_assert_eq!(insts.len(), self.len, "hashed and recorded streams differ");
        telemetry::record_compiled(insts.len() as u64);
        CompiledStream {
            stream_hash: self.hash(),
            insts,
            events: self.events,
        }
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
    /// Wraps an instruction list and its region/marker events, hashing
    /// both. Tests and tools wrap hand-built lists this way; a recording
    /// engine hashes its stream as it pushes instead, and
    /// [`Engine::take_compiled`](crate::Engine::take_compiled) returns the
    /// same stream and hash as wrapping its instructions here would.
    pub fn from_recording(insts: Vec<Inst>, events: Vec<(usize, StreamEvent)>) -> Self {
        let mut hasher = StreamHasher::new();
        for inst in &insts {
            hasher.push(inst);
        }
        hasher.events = events;
        hasher.compile(insts)
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

    /// The stream's canonical content hash: FNV-1a over every
    /// instruction's encoding (op and payload, sources, destination), then
    /// the region/marker events. Streams that differ in any instruction or
    /// event hash apart (up to FNV-1a collisions), so this is the first
    /// half of the persistent (stream-hash, config-hash) cycle-cache key.
    pub fn stream_hash(&self) -> u64 {
        self.stream_hash
    }
}

// ---- thread-local stream-hash capture -------------------------------------
//
// Kernel functions construct their engines internally, and a kernel's result
// carries its stream only when the run was recorded. A caller that needs
// only the hashes of the streams its kernels push (the campaign's cycle
// memo) enables *capture* on its thread instead: every engine constructed
// while capture is on hashes its pushes as they arrive, keeping no
// instruction, and deposits the hash here when it finishes. Thread-local
// (not global) so concurrently running jobs and tests cannot take each
// other's hashes.

thread_local! {
    static CAPTURE: Cell<bool> = const { Cell::new(false) };
    static SINK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Whether stream-hash capture is on for this thread.
pub(crate) fn capture_enabled() -> bool {
    CAPTURE.with(Cell::get)
}

/// Deposits a finished engine's stream hash into this thread's capture.
pub(crate) fn submit_hash(hash: u64) {
    SINK.with(|s| s.borrow_mut().push(hash));
}

/// Starts capturing stream hashes on this thread and returns the guard
/// that holds them. Every engine constructed while the guard lives hashes
/// the instructions pushed into it and, when it finishes, deposits the
/// hash [`CompiledStream::stream_hash`] would give its stream (an engine
/// that records keeps the hash in its [`CompiledStream`] instead). The
/// capture starts empty and ends when the guard is dropped, also when a
/// panic unwinds through its scope.
pub fn capture_stream_hashes() -> StreamHashCapture {
    SINK.with(|s| s.borrow_mut().clear());
    CAPTURE.with(|c| c.set(true));
    StreamHashCapture(())
}

/// RAII guard from [`capture_stream_hashes`]; ends the capture and drops
/// any hash not taken when dropped.
#[derive(Debug)]
#[must_use = "the capture ends when the guard is dropped"]
pub struct StreamHashCapture(());

impl StreamHashCapture {
    /// Takes the hashes deposited so far, in the order their engines
    /// finished.
    pub fn take(&self) -> Vec<u64> {
        SINK.with(|s| std::mem::take(&mut *s.borrow_mut()))
    }
}

impl Drop for StreamHashCapture {
    fn drop(&mut self) {
        CAPTURE.with(|c| c.set(false));
        SINK.with(|s| s.borrow_mut().clear());
    }
}

/// A process-wide compiled-stream cache, shared by sweep workers so each
/// (matrix, kernel, config) point compiles exactly once per process.
///
/// Keys are caller-chosen FNV-1a content hashes (`via-bench`'s
/// `SweepMemo::cycles_for` hashes the sweep-point identity). Lookups
/// count hits and misses in the process-wide [`telemetry`] counters.
#[derive(Debug, Default)]
pub struct StreamCache {
    map: Mutex<HashMap<u64, Arc<CompiledStream>>>,
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

    /// Number of cached streams.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prog::{AluKind, VecOpKind, MAX_INLINE_ADDRS};
    use crate::{verify, Engine};
    use via_rng::StdRng;

    /// A deterministic random stream over every op kind (gathers and
    /// scatters on both sides of `MAX_INLINE_ADDRS`) with events at
    /// random positions, the first and the last included. Every source is
    /// a register defined earlier in the stream.
    fn random_stream(rng: &mut StdRng, len: usize) -> (Vec<Inst>, Vec<(usize, StreamEvent)>) {
        let mut insts = Vec::with_capacity(len);
        let mut next = 0u32;
        while insts.len() < len {
            let a = next.saturating_sub(1 + rng.below(4) as u32);
            let srcs: &[u32] = if next == 0 { &[] } else { &[a] };
            let addr = rng.below(1 << 14) * 8;
            let addrs: Vec<u64> = (0..rng.below(2 * MAX_INLINE_ADDRS as u64 + 2))
                .map(|_| rng.below(1 << 12) * 8)
                .collect();
            let inst = match rng.below(10) {
                0 => Inst::scalar(AluKind::FpFma, srcs, Some(next)),
                1 => Inst::vec(VecOpKind::Fma, srcs, Some(next)),
                2 => Inst::load_dep(addr, 8 * (1 + rng.below(4) as u32), srcs, next),
                3 => Inst::store(addr, 8, srcs),
                4 => Inst::gather(addrs, 8, srcs, next),
                5 => Inst::scatter(addrs, 8, srcs),
                6 => Inst::custom(
                    1 + rng.below(4) as u32,
                    1 + rng.below(6) as u32,
                    rng.below(2) == 0,
                    srcs,
                    Some(next),
                ),
                7 => Inst::branch(rng.below(2) == 0, rng.below(16) as u32, srcs),
                8 => Inst::delay(rng.below(8) as u32, srcs, next),
                _ => Inst::fence(),
            };
            if inst.dst == Some(next) {
                next += 1;
            }
            insts.push(inst);
        }
        let mut events = Vec::new();
        for pos in [0, len / 2, len] {
            for _ in 0..rng.below(3) {
                let event = match rng.below(3) {
                    0 => StreamEvent::RegionBegin(["rows", "flush"][rng.below(2) as usize]),
                    1 => StreamEvent::RegionEnd,
                    _ => StreamEvent::Marker("mode"),
                };
                events.push((pos, event));
            }
        }
        (insts, events)
    }

    /// Pushes `insts` into `e`, issuing each event at its position.
    fn drive(e: &mut Engine, insts: &[Inst], events: &[(usize, StreamEvent)]) {
        let mut events = events.iter().peekable();
        for i in 0..=insts.len() {
            while let Some(&(_, event)) = events.next_if(|&&(pos, _)| pos == i) {
                match event {
                    StreamEvent::RegionBegin(name) => e.region(name),
                    StreamEvent::RegionEnd => e.region_end(),
                    StreamEvent::Marker(name) => e.trace_marker(name),
                }
            }
            if let Some(inst) = insts.get(i) {
                e.push(inst.clone());
            }
        }
    }

    #[test]
    fn pushed_recorded_and_wrapped_streams_hash_alike() {
        let engine = || {
            Engine::new(
                CoreConfig::default().with_custom_unit(),
                MemConfig::default(),
            )
        };
        // Random addresses can trip the verifier; collect its reports
        // instead of panicking in debug builds.
        let reports = verify::capture_guard();
        let mut spilled = 0;
        let mut sizes = vec![0, 1];
        sizes.extend((0..30).map(|i| 2 + 7 * i));
        via_rng::cases(sizes.len() as u64, 0x5EED_4A54, |case, rng| {
            let len = sizes[case as usize];
            let (insts, events) = random_stream(rng, len);
            spilled += insts
                .iter()
                .filter(|i| match &i.op {
                    Op::Gather { addrs, .. } | Op::Scatter { addrs, .. } => {
                        addrs.len() > MAX_INLINE_ADDRS
                    }
                    _ => false,
                })
                .count();
            let wrapped = CompiledStream::from_recording(insts.clone(), events.clone());

            let mut recording = engine();
            recording.enable_recording();
            drive(&mut recording, &insts, &events);
            let recorded = recording.take_compiled().expect("recording was on");
            recording.finish();
            assert_eq!(recorded, wrapped, "case {case}: recorded stream");

            let capture = capture_stream_hashes();
            let mut plain = engine();
            drive(&mut plain, &insts, &events);
            assert!(capture.take().is_empty(), "deposited before finishing");
            plain.finish();
            assert_eq!(
                capture.take(),
                [wrapped.stream_hash()],
                "case {case}: pushed stream"
            );
        });
        drop(reports);
        verify::drain_captured();
        assert!(spilled > 0, "no address list spilled");
    }

    #[test]
    fn the_hash_capture_ends_with_its_scope() {
        let engine = || Engine::new(CoreConfig::default(), MemConfig::default());
        {
            let capture = capture_stream_hashes();
            assert!(capture_enabled());
            engine().finish();
            engine().finish();
            assert_eq!(capture.take().len(), 2);
        }
        assert!(!capture_enabled());
        let unwound = std::panic::catch_unwind(|| {
            let _capture = capture_stream_hashes();
            engine().finish();
            panic!("unwinds through the capture");
        });
        assert!(unwound.is_err());
        assert!(!capture_enabled());
        // An engine built outside a capture deposits nothing, even when it
        // finishes inside one; a new capture starts empty.
        let outside = engine();
        let capture = capture_stream_hashes();
        outside.finish();
        assert!(capture.take().is_empty());
    }

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
        let hash =
            |inst: Inst| CompiledStream::from_recording(vec![inst], Vec::new()).stream_hash();
        let h = hash(Inst::load(0x100, 8, 1));
        assert_eq!(h, hash(Inst::load(0x100, 8, 1)));
        assert_ne!(h, hash(Inst::load(0x108, 8, 1)), "address");
        assert_ne!(h, hash(Inst::load(0x100, 8, 2)), "destination");
        assert_ne!(h, hash(Inst::load_dep(0x100, 8, &[3], 1)), "dependence");
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
        let a = cache.insert(7, build());
        // A racing insert under the same key keeps the first stream.
        let b = cache.insert(7, build());
        let c = cache.get(7).expect("must hit");
        assert!(Arc::ptr_eq(&a, &b) && Arc::ptr_eq(&a, &c));
        assert_eq!(cache.len(), 1);
    }
}
