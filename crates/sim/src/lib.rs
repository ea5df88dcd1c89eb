//! Trace-driven out-of-order core and memory-hierarchy timing model.
//!
//! This crate is the reproduction's substitute for the paper's gem5
//! full-system simulation (paper §V-A). Kernels are expressed as dynamic
//! streams of abstract vector-ISA instructions ([`prog::Inst`]) carrying
//! virtual-register data dependences; the [`engine::Engine`] retires them
//! through an out-of-order timing model with:
//!
//! * a reorder buffer and fetch/commit width limits,
//! * per-class functional-unit pools (scalar ALUs, vector ALUs, load/store
//!   ports, and one *custom* unit slot used by `via-core` for the FIVU),
//! * a full cache hierarchy (L1D/L2/L3, set-associative, write-back,
//!   write-allocate) over a DRAM model with latency **and** bandwidth,
//! * per-element gather/scatter cost (the ≥ 22-cycle penalty the paper
//!   quotes for AVX2 gathers, §III-A),
//! * commit-time serialized execution for custom (VIA) ops (paper §IV-E).
//!
//! The model is *event-driven per instruction* (constant work per
//! instruction, no cycle loop), which makes simulating the paper's
//! thousand-matrix sweeps tractable while preserving the first-order
//! behaviour the paper's results rest on: overlap of out-of-order memory
//! streams, cache locality, gather serialization, and DRAM bandwidth
//! saturation.
//!
//! # Example
//!
//! ```
//! use via_sim::{CoreConfig, Engine, MemConfig};
//! use via_sim::prog::{AluKind, Inst};
//!
//! let mut engine = Engine::new(CoreConfig::default(), MemConfig::default());
//! let a = engine.alloc_mut().alloc_f64(16);
//! let r = engine.fresh_reg();
//! engine.push(Inst::load(a.addr_of(0), 8, r));
//! let d = engine.fresh_reg();
//! engine.push(Inst::scalar(AluKind::FpAdd, &[r], Some(d)));
//! let stats = engine.finish();
//! assert!(stats.cycles > 0);
//! assert_eq!(stats.instructions, 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod analyze;
pub mod calendar;
pub mod compile;
pub mod config;
pub mod engine;
pub mod mem;
pub mod prog;
pub mod stats;
pub mod telemetry;
pub mod trace;
pub mod verify;

pub use alloc::{AddressSpace, Region};
pub use analyze::{analyze, AnalysisCache, AnalysisReport, AnalyzeConfig, StaticBound};
pub use compile::{config_hash, fnv1a64, CompiledStream, StreamCache};
pub use config::{CacheConfig, CoreConfig, MemConfig};
pub use engine::Engine;
pub use mem::SharedLlc;
pub use prog::{AluKind, Inst, Op, Reg, VecOpKind};
pub use stats::{CacheStats, RunStats};
pub use telemetry::TelemetrySnapshot;
pub use trace::{MemLevel, OpClass, RegionStalls, StallCause, StallReport, TraceEvent};
pub use verify::{Verifier, VerifyConfig};
