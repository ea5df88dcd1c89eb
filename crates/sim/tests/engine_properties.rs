//! Randomized property tests over the timing engine: determinism, lower
//! bounds, and monotonicity under arbitrary instruction streams. Each test
//! replays deterministic seeded streams (via-rng), so failures name a
//! reproducible case index.

use via_rng::{cases, StdRng};
use via_sim::prog::{AluKind, VecOpKind};
use via_sim::{CoreConfig, Engine, MemConfig, RunStats};

/// A generatable instruction template (registers are assigned when the
/// stream is replayed so dependences stay valid).
#[derive(Debug, Clone)]
enum Template {
    Scalar { dep_on_prev: bool },
    Vec { dep_on_prev: bool },
    Load { addr: u32, bytes_log: u8 },
    Store { addr: u32 },
    GatherOf { base: u32, stride: u8 },
    Branch { taken: bool, site: u8 },
    Delay { cycles: u8 },
}

fn arb_stream(rng: &mut StdRng) -> Vec<Template> {
    let len = rng.random_range(1usize..200);
    (0..len)
        .map(|_| match rng.random_range(0u32..7) {
            0 => Template::Scalar {
                dep_on_prev: rng.random(),
            },
            1 => Template::Vec {
                dep_on_prev: rng.random(),
            },
            2 => Template::Load {
                addr: rng.random_range(0u32..1 << 16),
                bytes_log: rng.random_range(3u32..6) as u8,
            },
            3 => Template::Store {
                addr: rng.random_range(0u32..1 << 16),
            },
            4 => Template::GatherOf {
                base: rng.random_range(0u32..1 << 14),
                stride: rng.random_range(1u32..32) as u8,
            },
            5 => Template::Branch {
                taken: rng.random(),
                site: rng.random_range(0u32..4) as u8,
            },
            _ => Template::Delay {
                cycles: rng.random_range(1u32..40) as u8,
            },
        })
        .collect()
}

fn replay(stream: &[Template], core: CoreConfig, mem: MemConfig) -> RunStats {
    let mut e = Engine::new(core, mem);
    let mut prev = None;
    for t in stream {
        let deps: Vec<u32> = prev.into_iter().collect();
        let next = match t {
            Template::Scalar { dep_on_prev } => {
                let d = if *dep_on_prev { deps.as_slice() } else { &[] };
                Some(e.scalar_op(AluKind::FpAdd, d))
            }
            Template::Vec { dep_on_prev } => {
                let d = if *dep_on_prev { deps.as_slice() } else { &[] };
                Some(e.vec_op(VecOpKind::Fma, d))
            }
            Template::Load { addr, bytes_log } => {
                Some(e.load(0x10000 + *addr as u64, 1 << bytes_log))
            }
            Template::Store { addr } => {
                e.store(0x10000 + *addr as u64, 8, &deps);
                None
            }
            Template::GatherOf { base, stride } => {
                let addrs: Vec<u64> = (0..4u64)
                    .map(|i| 0x10000 + *base as u64 + i * *stride as u64 * 8)
                    .collect();
                Some(e.gather(&addrs, 8, &deps))
            }
            Template::Branch { taken, site } => {
                e.branch(*taken, *site as u32, &deps);
                None
            }
            Template::Delay { cycles } => Some(e.delay(*cycles as u32, &deps)),
        };
        if next.is_some() {
            prev = next;
        }
    }
    e.finish()
}

#[test]
fn engine_is_deterministic() {
    cases(64, 0xE1, |i, rng| {
        let stream = arb_stream(rng);
        let a = replay(&stream, CoreConfig::default(), MemConfig::default());
        let b = replay(&stream, CoreConfig::default(), MemConfig::default());
        assert_eq!(a, b, "case {i}");
    });
}

#[test]
fn cycles_respect_commit_width() {
    cases(64, 0xE2, |i, rng| {
        let stream = arb_stream(rng);
        let stats = replay(&stream, CoreConfig::default(), MemConfig::default());
        let floor = stats.instructions / CoreConfig::default().commit_width as u64;
        assert!(
            stats.cycles >= floor,
            "case {i}: cycles {} below commit floor {}",
            stats.cycles,
            floor
        );
        assert_eq!(stats.instructions, stream.len() as u64, "case {i}");
    });
}

#[test]
fn wider_machine_is_rarely_meaningfully_slower() {
    // Scheduling anomalies make strict monotonicity false on real
    // out-of-order machines and in this model (earlier issue can reorder
    // cache state); allow a small tolerance.
    cases(64, 0xE3, |i, rng| {
        let stream = arb_stream(rng);
        let narrow = CoreConfig {
            fetch_width: 2,
            commit_width: 2,
            scalar_alus: 1,
            vector_alus: 1,
            load_ports: 1,
            ..CoreConfig::default()
        };
        let slow = replay(&stream, narrow, MemConfig::default());
        let fast = replay(&stream, CoreConfig::default(), MemConfig::default());
        assert!(
            fast.cycles as f64 <= slow.cycles as f64 * 1.05 + 50.0,
            "case {i}: wider machine much slower: {} > {}",
            fast.cycles,
            slow.cycles
        );
    });
}

#[test]
fn faster_memory_is_rarely_meaningfully_slower() {
    cases(64, 0xE4, |i, rng| {
        let stream = arb_stream(rng);
        let slow_mem = MemConfig {
            dram_latency: 400,
            dram_bytes_per_cycle: 4.0,
            ..MemConfig::default()
        };
        let slow = replay(&stream, CoreConfig::default(), slow_mem);
        let fast = replay(&stream, CoreConfig::default(), MemConfig::default());
        assert!(
            fast.cycles as f64 <= slow.cycles as f64 * 1.05 + 50.0,
            "case {i}: faster DRAM much slower: {} > {}",
            fast.cycles,
            slow.cycles
        );
    });
}

#[test]
fn mispredicts_never_exceed_branches() {
    cases(64, 0xE5, |i, rng| {
        let stream = arb_stream(rng);
        let stats = replay(&stream, CoreConfig::default(), MemConfig::default());
        assert!(stats.mispredicts <= stats.branches, "case {i}");
    });
}

#[test]
fn cache_hits_plus_misses_equals_accesses() {
    cases(64, 0xE6, |i, rng| {
        let stream = arb_stream(rng);
        let stats = replay(&stream, CoreConfig::default(), MemConfig::default());
        // L2 demand accesses are L1 misses (writebacks are tracked
        // separately and not counted as demand).
        assert_eq!(stats.l2.accesses(), stats.l1.misses, "case {i}");
        assert_eq!(stats.l3.accesses(), stats.l2.misses, "case {i}");
        // DRAM reads are L3 miss fills (one line each).
        assert_eq!(stats.dram_read_bytes, stats.l3.misses * 64, "case {i}");
    });
}
