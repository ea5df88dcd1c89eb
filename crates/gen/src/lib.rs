//! Kernel-variant generator for the per-matrix auto-tuner.
//!
//! The hand-written kernels in `via-kernels` each expose a `_with` entry
//! point whose extra arguments are *tuning knobs* — flush grouping, unroll
//! factors, output tiling, row scheduling. This crate closes over those
//! knobs: a [`KernelVariant`] is a self-describing point in a kernel's knob
//! space, with
//!
//! * a stable, parseable **name** (`sptrsv/levels/fg8`) that doubles as the
//!   tuner's on-disk identity,
//! * a **content hash** ([`via_sim::fnv1a64`] of the name) that plugs into
//!   the memo hierarchy (`SweepMemo` / `cycles.jsonl`) exactly like a
//!   kernel/config pair does today, and
//! * an [`emit`](KernelVariant::emit) method producing the kernel's
//!   [`KernelRun`](via_kernels::KernelRun) — the same stream the
//!   hand-written kernel emits at the
//!   default knob point, bit-identical by construction and pinned by test.
//!
//! [`GenInputs`] derives every kernel's operands from *one* corpus matrix
//! (SpTRSV via `gen::make_lower_triangular`, SymGS via
//! `gen::make_diagonally_dominant`, SpMM via the matrix's own CSC), so a
//! single matrix sweep covers the whole kernel portfolio. The auto-tuner in
//! `via-bench` enumerates [`KernelVariant::space`] per matrix, prunes
//! provably-losing variants with the static cycle lower bound from
//! emit-only compiles, replays the survivors through the sweep memo, and
//! records the winner per `(kernel, matrix)` in a sealed `tuned.jsonl`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod inputs;
mod variant;

pub use inputs::{GenInputs, GenOutput};
pub use variant::{Kernel, KernelVariant, SpmvFormat};
