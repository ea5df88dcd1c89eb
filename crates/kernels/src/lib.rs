//! Baseline and VIA kernels as simulator instruction streams.
//!
//! Every kernel in this crate does double duty:
//!
//! * it **computes the real result** (values flow through plain Rust and,
//!   for VIA variants, through the functional SSPM model), so each run is
//!   validated against the dense golden models in
//!   [`via_formats::reference`];
//! * it **emits the dynamic instruction stream** a vectorized binary would
//!   execute — loads/stores/gathers/vector ops for the baselines
//!   (paper §II/III), plus the `vldx*` custom ops for the VIA variants
//!   (paper §IV) — into a [`via_sim::Engine`], producing cycle counts.
//!
//! Kernels (paper §V-B, §VII):
//!
//! | kernel | baselines | VIA variant |
//! |---|---|---|
//! | SpMV | scalar CSR, vectorized CSR (Eigen-like), SPC5, Sell-C-σ, software CSB | VIA-CSR / VIA-SPC5 / VIA-Sell (SSPM as output accumulator), VIA-CSB (`vldxblkmult`, Algorithm 4) |
//! | SpMA | scalar two-pointer merge (Eigen-like) | CAM merge (`vldxload.c` + `vldxadd.c` + `vldxcount`/`vldxloadidx`) |
//! | SpMM | inner-product index matching (Algorithm 3) | CAM index matching (`vldxmult.c`) |
//! | histogram | scalar, AVX-512CD-style vector (Algorithm 5) | SSPM accumulation (`vldxadd.d`) |
//! | stencil | scalar, vectorized 4×4 convolution | image segment + SSPM operand reads (Algorithm 6) |
//! | SpMSpV *(extension)* | dense-workspace SPA | CAM merge per active column — the graph-computing application the paper's conclusion names |
//! | SpTRSV *(extension)* | scalar forward substitution (row-serial or level-scheduled) | solved `x` segment in the SSPM, products via `vldxmult.d` to the VRF |
//! | SymGS *(extension)* | scalar symmetric Gauss–Seidel sweep (row-serial or level-scheduled) | live `x` segment in the SSPM, memory as the old-value snapshot |
//!
//! SpTRSV and SymGS carry loop dependencies through the output vector; both
//! expose a [`Schedule`] knob (row-serial vs. level-scheduled wavefronts)
//! that the `via-gen` auto-tuner sweeps per matrix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;
mod gather;
pub mod histogram;
mod layout;
mod partition;
mod readout;
pub mod socket;
pub mod spma;
pub mod spmm;
pub mod spmspv;
pub mod spmv;
pub mod sptrsv;
pub mod ssr;
pub mod stencil;
pub mod symgs;

pub use context::{KernelRun, SimContext, TraceOptions};
pub use layout::{CsbLayout, CsrLayout, SellLayout, Spc5Layout, VecLayout};
pub use partition::{extract_rows, partition_rows, Partition};
pub use socket::{Socket, SocketRun};
pub use sptrsv::Schedule;
