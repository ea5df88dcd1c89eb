//! Umbrella crate re-exporting the VIA reproduction's public API.
//!
//! The workspace reproduces *VIA: A Smart Scratchpad for Vector Units with
//! Application to Sparse Matrix Computations* (Pavón et al., HPCA 2021) as
//! a pure-Rust, dependency-free timing study. Each member crate owns one
//! layer of the stack (see `docs/ARCHITECTURE.md` for the full map and a
//! paper-term ↔ code-symbol glossary):
//!
//! | crate | layer | paper |
//! |-------|-------|-------|
//! | [`core`] (`via-core`) | the contribution: SSPM + FIVU + ISA extension | §III–IV |
//! | [`sim`] (`via-sim`) | out-of-order timing engine, caches, stall/trace/verify tooling | §V-A |
//! | [`formats`] (`via-formats`) | CSR/CSC/CSB/Sell-C-σ/SPC5 formats, generators, Matrix Market I/O | §II |
//! | [`kernels`] (`via-kernels`) | baseline + VIA kernels emitting instruction streams | §II–IV, §VII |
//! | [`gen`] (`via-gen`) | kernel-variant generator behind the per-matrix auto-tuner | — |
//! | [`energy`] (`via-energy`) | CACTI/McPAT-like area + energy models | §VI, Table II |
//! | `via-bench` | experiment harness, figure binaries, campaign orchestrator | §V, §VII |
//! | `via-rng` | deterministic xoshiro256** PRNG behind every generator | — |
//!
//! The typical flow: a kernel in [`kernels`] walks a sparse matrix from
//! [`formats`], computes the real result while emitting a dynamic
//! instruction stream; [`sim`] retires that stream through the timing
//! model (with [`core`] supplying the SSPM/FIVU semantics and timing for
//! the new instructions); [`energy`] converts the resulting event counts
//! into area/energy estimates; and `via-bench` turns sweeps over matrices
//! and configurations into the paper's tables and figures — at corpus
//! scale via the resumable `campaign` binary.

#![forbid(unsafe_code)]

pub use via_core as core;
pub use via_energy as energy;
pub use via_formats as formats;
pub use via_gen as gen;
pub use via_kernels as kernels;
pub use via_sim as sim;
