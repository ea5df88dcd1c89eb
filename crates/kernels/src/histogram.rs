//! Histogram kernels (paper §IV-F1, Algorithm 5; evaluated in §VII-D,
//! Figure 12.a).
//!
//! * [`scalar`] — one load/increment/store per key; updates to the same
//!   bin serialize through memory (the classic histogram dependence).
//! * [`vector_cd`] — the AVX-512CD baseline: load `VL` keys, detect
//!   conflicts (`vpconflictd`), merge duplicate bins with a permute
//!   sequence, then gather/add/scatter the bin counters. The
//!   scatter→gather dependence between iterations is the store-load
//!   forwarding cost the paper calls out.
//! * [`via`] — Algorithm 5: the same conflict detection, but the
//!   accumulation goes to the SSPM with one `vldxadd.d`, eliminating both
//!   the gather/scatter and the memory dependence.
//!
//! Bin counts are modeled as f64 SSPM entries (the SSPM stores values; the
//! paper's histogram uses the same `vldxadd` datapath as SpMV).

use crate::context::{KernelRun, SimContext};
use crate::gather::{indices, Drain};
use crate::readout::read_direct;
use via_core::{AluOp, Dest, ViaUnit};
use via_sim::{AluKind, Reg, VecOpKind};

/// Scalar histogram baseline.
///
/// # Panics
///
/// Panics if any key is `>= nbins`.
pub fn scalar(keys: &[u32], nbins: usize, ctx: &SimContext) -> KernelRun<Vec<u64>> {
    let mut e = ctx.baseline_engine();
    let kl = e.alloc_mut().alloc_u32(keys.len().max(1));
    let hl = e.alloc_mut().alloc_f64(nbins.max(1));

    let mut bins = vec![0u64; nbins];
    // Last store's value register per bin: a reload of the same bin must
    // wait for it (memory dependence).
    let mut last_store: Vec<Option<Reg>> = vec![None; nbins];
    e.region("key loop");
    for (t, &k) in keys.iter().enumerate() {
        assert!((k as usize) < nbins, "key {k} out of {nbins} bins");
        let key_reg = e.load(kl.addr_of(t), 4);
        let addr = hl.addr_of(k as usize);
        let mut deps = [key_reg, key_reg];
        let mut ndeps = 1;
        if let Some(prev) = last_store[k as usize] {
            deps[1] = prev;
            ndeps = 2;
        }
        let old = e.load_dep(addr, 8, &deps[..ndeps]);
        let new = e.scalar_op(AluKind::Int, &[old]);
        e.store(addr, 8, &[new]);
        last_store[k as usize] = Some(new);
        e.scalar_op(AluKind::Int, &[]); // induction
        bins[k as usize] += 1;
    }
    e.region_end();
    KernelRun::finish_baseline(bins, e)
}

/// AVX-512CD-style vectorized histogram baseline (paper Algorithm 5
/// without the VIA accumulate).
///
/// # Panics
///
/// Panics if any key is `>= nbins`.
pub fn vector_cd(keys: &[u32], nbins: usize, ctx: &SimContext) -> KernelRun<Vec<u64>> {
    let vl = ctx.vl();
    let mut e = ctx.baseline_engine();
    let kl = e.alloc_mut().alloc_u32(keys.len().max(1));
    let hl = e.alloc_mut().alloc_f64(nbins.max(1));

    let mut bins = vec![0u64; nbins];
    let mut hg = Drain::with_capacity(vl);
    e.region("key loop");
    let mut t = 0usize;
    while t < keys.len() {
        let len = vl.min(keys.len() - t);
        let chunk = &keys[t..t + len];
        for &k in chunk {
            assert!((k as usize) < nbins, "key {k} out of {nbins} bins");
            bins[k as usize] += 1;
        }
        let key_reg = e.load(kl.addr_of(t), (4 * len) as u32);
        // Conflict detection + duplicate merge (permute + blend sequence).
        let conflicts = e.vec_op(VecOpKind::ConflictDetect, &[key_reg]);
        let merged = e.vec_op(VecOpKind::Permute, &[key_reg, conflicts]);
        let counts = e.vec_op(VecOpKind::Blend, &[merged, conflicts]);
        // Gather current bin values, stalled behind the previous scatter's
        // store-buffer drain when the line sets overlap.
        let old = hg.gather(&mut e, &hl, indices(chunk), merged);
        let new = e.vec_op(VecOpKind::Add, &[old, counts]);
        hg.scatter(&mut e, &[new]);
        e.scalar_op(AluKind::Int, &[]);
        t += len;
    }
    e.region_end();
    KernelRun::finish_baseline(bins, e)
}

/// VIA histogram (paper Algorithm 5): conflict-detect, then accumulate in
/// the SSPM with `vldxadd.d`. Bin ranges wider than the SSPM are processed
/// in passes over the key stream.
///
/// # Panics
///
/// Panics if any key is `>= nbins`.
pub fn via(keys: &[u32], nbins: usize, ctx: &SimContext) -> KernelRun<Vec<u64>> {
    let vl = ctx.vl();
    let entries = ctx.via.entries();
    let mut e = ctx.via_engine();
    let mut via = ViaUnit::new(ctx.via);
    let kl = e.alloc_mut().alloc_u32(keys.len().max(1));
    let hl = e.alloc_mut().alloc_f64(nbins.max(1));

    let mut bins = vec![0u64; nbins];
    let passes = nbins.div_ceil(entries);
    for pass in 0..passes {
        let lo = pass * entries;
        let hi = ((pass + 1) * entries).min(nbins);
        via.vldx_clear(&mut e);
        e.region("accumulate");
        let mut t = 0usize;
        while t < keys.len() {
            let len = vl.min(keys.len() - t);
            let chunk = &keys[t..t + len];
            let key_reg = e.load(kl.addr_of(t), (4 * len) as u32);
            // In-range lanes for this pass.
            let in_range: Vec<u32> = chunk
                .iter()
                .filter(|&&k| (k as usize) >= lo && (k as usize) < hi)
                .map(|&k| k - lo as u32)
                .collect();
            if pass == 0 {
                for &k in chunk {
                    assert!((k as usize) < nbins, "key {k} out of {nbins} bins");
                    bins[k as usize] += 1;
                }
            }
            if !in_range.is_empty() {
                // Conflict detection + merge (as the paper's Algorithm 5).
                let conflicts = e.vec_op(VecOpKind::ConflictDetect, &[key_reg]);
                let merged = e.vec_op(VecOpKind::Permute, &[key_reg, conflicts]);
                // Accumulate in the scratchpad.
                via.vldx_alu_d(
                    &mut e,
                    AluOp::Add,
                    &in_range,
                    &vec![1.0; in_range.len()],
                    Dest::Sspm { offset: 0 },
                    &[merged],
                );
            }
            e.scalar_op(AluKind::Int, &[]);
            t += len;
        }
        e.region_end();
        // Flush this pass's bins to memory, batching SSPM reads ahead of
        // the stores.
        e.region("flush");
        read_direct(&mut e, &mut via, 0, hi - lo, 8, |e, r, reg, vals| {
            let at = lo + r;
            // Cross-check the SSPM counts against the software counts.
            for (&v, &count) in vals.iter().zip(&bins[at..]) {
                debug_assert_eq!(v as u64, count, "SSPM bin mismatch");
            }
            e.store(hl.addr_of(at), (8 * vals.len()) as u32, &[reg]);
        });
        e.region_end();
    }
    let events = via.events();
    KernelRun::finish_via(bins, e, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use via_formats::reference;
    use via_rng::StdRng;

    fn ctx() -> SimContext {
        SimContext::default()
    }

    fn uniform_keys(n: usize, nbins: usize, seed: u64) -> Vec<u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.random_range(0..nbins as u32)).collect()
    }

    fn skewed_keys(n: usize, nbins: usize, seed: u64) -> Vec<u32> {
        // Zipf-ish: square a uniform sample to favor low bins.
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let u: f64 = rng.random_range(0.0..1.0);
                ((u * u) * nbins as f64) as u32
            })
            .collect()
    }

    #[test]
    fn scalar_matches_reference() {
        let keys = uniform_keys(500, 64, 1);
        let run = scalar(&keys, 64, &ctx());
        assert_eq!(run.output, reference::histogram(&keys, 64));
    }

    #[test]
    fn vector_matches_reference() {
        let keys = uniform_keys(500, 64, 2);
        let run = vector_cd(&keys, 64, &ctx());
        assert_eq!(run.output, reference::histogram(&keys, 64));
    }

    #[test]
    fn via_matches_reference() {
        let keys = uniform_keys(500, 64, 3);
        let run = via(&keys, 64, &ctx());
        assert_eq!(run.output, reference::histogram(&keys, 64));
        assert!(run.stats.custom_ops > 0);
        assert_eq!(run.stats.gathers, 0);
        assert_eq!(run.stats.scatters, 0);
    }

    #[test]
    fn via_multi_pass_when_bins_exceed_sspm() {
        // 4 KB SSPM = 512 entries; 1200 bins force 3 passes.
        let small = SimContext::with_via(via_core::ViaConfig::new(4, 2));
        let keys = uniform_keys(400, 1200, 4);
        let run = via(&keys, 1200, &small);
        assert_eq!(run.output, reference::histogram(&keys, 1200));
    }

    #[test]
    fn via_beats_scalar_and_vector() {
        let keys = skewed_keys(2000, 256, 5);
        let s = scalar(&keys, 256, &ctx());
        let v = vector_cd(&keys, 256, &ctx());
        let w = via(&keys, 256, &ctx());
        assert!(
            w.cycles() < s.cycles(),
            "VIA ({}) should beat scalar ({})",
            w.cycles(),
            s.cycles()
        );
        assert!(
            w.cycles() < v.cycles(),
            "VIA ({}) should beat vector ({})",
            w.cycles(),
            v.cycles()
        );
    }

    #[test]
    fn skewed_keys_slow_the_baselines_more() {
        // Heavily skewed keys serialize scalar/vector updates; VIA's SSPM
        // accumulation is insensitive.
        let nbins = 256;
        let uni = uniform_keys(2000, nbins, 6);
        let skew = vec![7u32; 2000]; // worst case: one hot bin
        let scalar_penalty = scalar(&skew, nbins, &ctx()).cycles() as f64
            / scalar(&uni, nbins, &ctx()).cycles() as f64;
        let via_penalty =
            via(&skew, nbins, &ctx()).cycles() as f64 / via(&uni, nbins, &ctx()).cycles() as f64;
        assert!(
            scalar_penalty > via_penalty,
            "skew should hurt scalar ({scalar_penalty:.2}x) more than VIA \
             ({via_penalty:.2}x)"
        );
    }

    #[test]
    fn empty_key_stream() {
        for run in [
            scalar(&[], 16, &ctx()),
            vector_cd(&[], 16, &ctx()),
            via(&[], 16, &ctx()),
        ] {
            assert_eq!(run.output, vec![0u64; 16]);
        }
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn out_of_range_key_panics() {
        scalar(&[99], 10, &ctx());
    }

    #[test]
    fn emitted_streams_verify_clean() {
        use via_sim::verify;
        let _guard = verify::capture_guard();
        let keys = uniform_keys(500, 64, 9);
        scalar(&keys, 64, &ctx());
        vector_cd(&keys, 64, &ctx());
        via(&keys, 64, &ctx());
        let reports = verify::drain_captured();
        assert!(reports.len() >= 3, "one report per kernel engine");
        for r in &reports {
            assert!(r.is_clean(), "{}", r.render());
        }
    }
}
