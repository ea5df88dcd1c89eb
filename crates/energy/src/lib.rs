//! Area, leakage, and event-energy models for the VIA reproduction.
//!
//! The paper evaluates power with McPAT and models the VIA structures in
//! CACTI 6.5, then synthesizes the design in a commercial 22 nm library
//! (paper §V-A); Table II publishes area and leakage for the SSPM design
//! points. This crate substitutes:
//!
//! * [`area`] — an analytical CACTI-like model (linear in SRAM capacity
//!   with a Live-Value-Table multiporting term, §VI-B) whose four constants
//!   are least-squares calibrated to the six published synthesis points;
//!   every published point is reproduced within ±15 %.
//! * [`energy`] — a McPAT-like event-energy model: per-event energies for
//!   cache/DRAM accesses, ALU ops, and SSPM events, plus leakage
//!   integrated over cycles. It feeds the paper's §VII-A claims (VIA-CSB
//!   SpMV reduces total energy ~3.8× and raises achieved memory bandwidth
//!   ~2.5×).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod area;
pub mod energy;
pub mod roofline;

pub use area::{AreaModel, SynthesisPoint, HASWELL_CORE_MM2, PAPER_SYNTHESIS};
pub use energy::{EnergyBreakdown, EnergyModel};
pub use roofline::{analyze as roofline_analyze, Bound, RooflinePoint};
