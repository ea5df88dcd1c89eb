//! SSR-style stream-semantic-register timing model (the rival backend).
//!
//! Stream semantic registers (Schuiki et al., arXiv:2011.08070) map memory
//! access patterns — affine strides and, in the indirection extension
//! (Scheffler et al.), index-driven gathers — onto architectural registers.
//! Once a stream is *configured*, reading the register implicitly issues
//! the next element's access: the address generation that a baseline core
//! pays for in scalar induction instructions moves into a small hardware
//! stream unit next to the register file.
//!
//! What this model charges and what it gives back:
//!
//! * **Configuration** costs one custom-unit op per stream setup
//!   ([`SsrStreams::configure`]) — pipelined, *not* commit-serialized,
//!   because SSR configuration is a plain CSR write, unlike VIA's
//!   at-commit custom ops (paper §IV-E).
//! * **Gathers** run at [`SsrStreams::GATHER_OVERHEAD`] cycles per element
//!   instead of the baseline's default per-element cost: the indirection
//!   unit pipelines index fetch + address generation ahead of the datapath.
//! * **No scratchpad.** Unlike VIA's SSPM there is nowhere to accumulate
//!   indexed partial results, so output-indexed kernels (SpMM accumulation,
//!   histogram) keep their read-modify-write traffic — this is the fidelity
//!   gap the bake-off is designed to expose (see `docs/BACKENDS.md`).
//!
//! The kernel-side entry point is `via-kernels`' SSR kernel variants,
//! which build a fresh [`SsrStreams`] per run on an engine whose core
//! [`BackendKind::Ssr`](crate::BackendKind::Ssr) shaped.

use via_sim::{Engine, Reg};

/// Per-run SSR stream-unit state: counts configured streams and charges
/// their setup cost to the engine.
///
/// # Example
///
/// ```
/// use via_core::SsrStreams;
/// use via_sim::{CoreConfig, Engine, MemConfig};
///
/// // SSR cores carry a custom unit slot for the stream configuration ops.
/// let core = CoreConfig::default().with_custom_unit();
/// let mut engine = Engine::new(core, MemConfig::default());
/// let mut ssr = SsrStreams::default();
/// let ready = ssr.configure(&mut engine, &[]);
/// let _ = ready; // kernels thread this reg into the first streamed access
/// assert_eq!(ssr.configured(), 1);
/// let stats = engine.finish();
/// assert_eq!(stats.instructions, 1);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SsrStreams {
    configured: u64,
}

impl SsrStreams {
    /// Per-element gather cost with an indirection stream configured.
    ///
    /// The stream unit fetches the index and generates the address ahead
    /// of the datapath, so the gather costs little more than a unit-stride
    /// access — 2 cycles/element versus the baseline default (the ≥ 22
    /// cycles the paper quotes for AVX2, §III-A).
    pub const GATHER_OVERHEAD: u32 = 2;

    /// Custom-unit occupancy of one stream configuration.
    pub const CONFIG_OCCUPANCY: u32 = 1;

    /// Latency of one stream configuration (a CSR write plus stream-unit
    /// handshake).
    pub const CONFIG_LATENCY: u32 = 2;

    /// Pushes one stream-configuration op dependent on `deps` (typically
    /// the registers holding the stream's bound/base) and returns the
    /// register that becomes ready when the stream is live.
    ///
    /// Unlike VIA custom ops this is **not** at-commit: SSR configuration
    /// does not serialize against in-flight vector work.
    pub fn configure(&mut self, engine: &mut Engine, deps: &[Reg]) -> Reg {
        self.configured += 1;
        engine.custom_op(Self::CONFIG_OCCUPANCY, Self::CONFIG_LATENCY, false, deps)
    }

    /// Number of stream configurations pushed this run.
    pub fn configured(&self) -> u64 {
        self.configured
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use via_sim::{CoreConfig, MemConfig};

    #[test]
    fn configure_counts_and_pushes() {
        let core = CoreConfig::default().with_custom_unit();
        let mut e = Engine::new(core, MemConfig::default());
        let mut ssr = SsrStreams::default();
        let r1 = ssr.configure(&mut e, &[]);
        let _r2 = ssr.configure(&mut e, &[r1]);
        assert_eq!(ssr.configured(), 2);
        let stats = e.finish();
        assert_eq!(stats.instructions, 2);
        assert!(stats.cycles > 0);
    }

    #[test]
    fn configuration_is_pipelined_not_serialized() {
        // A stream configuration behind a long-latency (cold DRAM) load
        // overlaps with it, so work dependent on the configuration runs
        // under the miss. VIA-style at-commit ops can only execute once
        // every earlier non-custom op has completed (paper §IV-E), pushing
        // the dependent chain past the miss.
        let run = |at_commit: bool| {
            let core = CoreConfig::default().with_custom_unit();
            let mut e = Engine::new(core, MemConfig::default());
            let buf = e.alloc_mut().alloc_f64(1);
            let _slow = e.load(buf.addr_of(0), 8); // cold: misses to DRAM
            let ready = e.custom_op(
                SsrStreams::CONFIG_OCCUPANCY,
                SsrStreams::CONFIG_LATENCY,
                at_commit,
                &[],
            );
            let mut r = ready;
            for _ in 0..64 {
                r = e.scalar_op(via_sim::AluKind::FpAdd, &[r]);
            }
            e.finish().cycles
        };
        let pipelined = run(false);
        let serialized = run(true);
        assert!(
            pipelined < serialized,
            "pipelined {pipelined} !< at-commit {serialized}"
        );
    }
}
