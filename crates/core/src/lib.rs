//! VIA: the Vector Indexed Architecture — the paper's contribution.
//!
//! VIA (Pavón et al., HPCA 2021) attaches a **Smart Scratchpad Memory
//! (SSPM)** to the vector functional units through a **Fused Indexed Vector
//! Unit (FIVU)** and programs it with a small set of new vector
//! instructions. The SSPM operates in two modes:
//!
//! * **direct-mapped** (paper §III-B1): the instruction's index vector maps
//!   SSPM entries directly — used for sparse × dense kernels (SpMV,
//!   histogram, stencil) where the dense operand lives in the scratchpad
//!   and all memory bandwidth is left for streaming the sparse matrix;
//! * **CAM** (paper §III-B2): an index-tracking table performs parallel
//!   index matching — used for sparse × sparse kernels (SpMA, SpMM) where
//!   matching the coordinate lists is the bottleneck.
//!
//! This crate provides:
//!
//! * [`ViaConfig`] — SSPM geometry (the paper's design-space points
//!   4/8/16 KB × 2/4 ports, §VI);
//! * [`Sspm`] — the functional model (SRAM cells, valid bitmap, banked CAM
//!   index table with in-order insertion, element-count register, §IV-A);
//! * [`Fivu`] — the timing model of the 3-stage FIVU pipeline with
//!   port-limited multi-cycle SSPM access (§IV-B);
//! * [`ViaUnit`] — the ISA extension set (§IV-C): each `vldx*` method
//!   executes the instruction functionally against the SSPM **and** pushes
//!   the corresponding commit-serialized custom op into a
//!   [`via_sim::Engine`] (§IV-E integration).
//!
//! # Example
//!
//! ```
//! use via_core::{ViaConfig, ViaUnit};
//! use via_sim::{CoreConfig, Engine, MemConfig};
//!
//! let config = ViaConfig::default(); // 16 KB, 2 ports
//! let mut engine = Engine::new(
//!     CoreConfig::default().with_custom_unit(),
//!     MemConfig::default(),
//! );
//! let mut via = ViaUnit::new(config);
//!
//! // Store x = [10, 20] at SSPM entries 0 and 1, then read them back.
//! via.vldx_clear(&mut engine);
//! via.vldx_load_d(&mut engine, &[0, 1], &[10.0, 20.0], &[]);
//! let mut values = [0.0; 2];
//! via.vldx_mov_d(&mut engine, &[1, 0], &[], &mut values);
//! assert_eq!(values, [20.0, 10.0]);
//! let stats = engine.finish();
//! assert_eq!(stats.custom_ops, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod config;
mod fivu;
pub mod isa;
pub mod mode;
mod sspm;
mod ssr;
mod unit;

pub use backend::BackendKind;
pub use config::ViaConfig;
pub use fivu::{Fivu, FivuCost, SspmOpClass};
pub use isa::{render_isa, IsaEntry, IsaModes, ISA};
pub use mode::ModeChecker;
pub use sspm::{Sspm, SspmEvents};
pub use ssr::SsrStreams;
pub use unit::{AluOp, Dest, ViaUnit};
