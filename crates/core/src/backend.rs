//! The accelerator backends a core can carry.
//!
//! A *backend* is everything kernel-visible that is specific to one
//! accelerator architecture: the core-configuration shaping (does the core
//! carry a custom functional unit? what does a gather cost?) and the
//! per-run accelerator state (the VIA unit with its SSPM, or the SSR
//! stream configuration counters). Three backends are modeled:
//!
//! * **baseline** — a plain out-of-order vector core, no custom unit;
//! * **VIA** — the paper's smart scratchpad ([`crate::ViaUnit`], §IV);
//! * **SSR** — a stream-semantic-register rival ([`crate::SsrStreams`],
//!   arXiv:2011.08070): affine/indirection streams replace explicit
//!   address generation, so gathers are cheap but there is no scratchpad
//!   to absorb output traffic.
//!
//! [`BackendKind`] names the backend and shapes the core; each kernel
//! builds its own per-run accelerator state. The multi-core `Socket` (in
//! `via-kernels`) matches on the kind to pick each core's kernel.

use crate::ssr::SsrStreams;
use via_sim::CoreConfig;

/// Identity of an accelerator backend (the knob swept by the bake-off).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Plain out-of-order vector core: no custom unit, full-cost gathers.
    Baseline,
    /// VIA smart scratchpad (the paper's architecture).
    Via,
    /// SSR-style indirection streams (the rival architecture).
    Ssr,
}

impl BackendKind {
    /// Every backend, in scorecard column order.
    pub const ALL: [BackendKind; 3] = [BackendKind::Baseline, BackendKind::Via, BackendKind::Ssr];

    /// The backend's stable name (CLI flag value and report column).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Baseline => "baseline",
            BackendKind::Via => "via",
            BackendKind::Ssr => "ssr",
        }
    }

    /// Parses a backend name as produced by [`BackendKind::name`].
    pub fn parse(s: &str) -> Option<BackendKind> {
        BackendKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Shapes a base core configuration for this backend: VIA and SSR
    /// attach a custom functional unit, and SSR additionally drops the
    /// per-gather overhead to [`SsrStreams::GATHER_OVERHEAD`] (the
    /// indirection stream does the address generation).
    pub fn shape_core(self, base: CoreConfig) -> CoreConfig {
        match self {
            BackendKind::Baseline => base,
            BackendKind::Via => base.with_custom_unit(),
            BackendKind::Ssr => {
                let mut core = base.with_custom_unit();
                core.gather_overhead = SsrStreams::GATHER_OVERHEAD;
                core
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(BackendKind::parse("spatz"), None);
    }

    #[test]
    fn shaping_matches_kind() {
        let base = CoreConfig::default();
        assert_eq!(BackendKind::Baseline.shape_core(base.clone()), base);
        let via = BackendKind::Via.shape_core(base.clone());
        assert_eq!(via.custom_units, 1);
        assert_eq!(via.gather_overhead, base.gather_overhead);
        let ssr = BackendKind::Ssr.shape_core(base.clone());
        assert_eq!(ssr.custom_units, 1);
        assert_eq!(ssr.gather_overhead, SsrStreams::GATHER_OVERHEAD);
    }
}
