//! Variant descriptors: named, hashable points in each kernel's knob space.

use crate::{GenInputs, GenOutput};
use via_formats::Csb;
use via_kernels::{spmm, spmv, sptrsv, symgs, KernelRun, Schedule, SimContext};
use via_sim::fnv1a64;

/// The kernels the generator can emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Sparse matrix–vector product (CSB or CSR, SSPM accumulator).
    Spmv,
    /// Sparse matrix–matrix product (CAM index matching).
    Spmm,
    /// Sparse triangular solve (dependency-carried, SSPM-resident `x`).
    Sptrsv,
    /// Symmetric Gauss–Seidel sweep (dependency-carried, SSPM-resident `x`).
    Symgs,
}

impl Kernel {
    /// Every generator-native kernel, in tuner sweep order.
    pub const ALL: [Kernel; 4] = [Kernel::Spmv, Kernel::Spmm, Kernel::Sptrsv, Kernel::Symgs];

    /// The kernel's stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Spmv => "spmv",
            Kernel::Spmm => "spmm",
            Kernel::Sptrsv => "sptrsv",
            Kernel::Symgs => "symgs",
        }
    }

    /// Parses [`Kernel::name`] back.
    pub fn parse(s: &str) -> Option<Kernel> {
        Kernel::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// SpMV's storage-format knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpmvFormat {
    /// Compressed sparse blocks with `vldxblkmult` (the paper's
    /// Algorithm 4 — the default).
    Csb,
    /// Plain CSR with the SSPM as the output accumulator.
    Csr,
}

fn schedule_name(s: Schedule) -> &'static str {
    s.name()
}

fn parse_schedule(s: &str) -> Option<Schedule> {
    [Schedule::RowSerial, Schedule::Levels]
        .into_iter()
        .find(|sched| sched.name() == s)
}

/// One point in a kernel's knob space. The variant's [`name`] is its
/// identity everywhere — in `tuned.jsonl` rows, in memo keys (via
/// [`content_hash`]), and in reports — and parses back losslessly with
/// [`parse`].
///
/// [`name`]: KernelVariant::name
/// [`content_hash`]: KernelVariant::content_hash
/// [`parse`]: KernelVariant::parse
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelVariant {
    /// SpMV: format × flush grouping × element-stream unroll
    /// (unroll only applies to CSB).
    Spmv {
        /// Storage format.
        format: SpmvFormat,
        /// SSPM flush read-ahead group (see `spmv::via_csb_with`).
        flush_group: usize,
        /// Element-stream unroll factor (CSB only; fixed to 1 for CSR).
        unroll: usize,
    },
    /// SpMM: output-column tiling of the CAM merge.
    Spmm {
        /// Columns of `B` per output chunk (0 = whole SSPM output region).
        col_tile: usize,
    },
    /// SpTRSV: row schedule × flush grouping.
    Sptrsv {
        /// Row ordering inside a segment.
        schedule: Schedule,
        /// Segment-flush read-ahead group.
        flush_group: usize,
    },
    /// SymGS: row schedule × flush grouping.
    Symgs {
        /// Row ordering inside a segment (both sweeps).
        schedule: Schedule,
        /// Segment-flush read-ahead group.
        flush_group: usize,
    },
}

impl KernelVariant {
    /// The kernel this variant belongs to.
    pub fn kernel(&self) -> Kernel {
        match self {
            KernelVariant::Spmv { .. } => Kernel::Spmv,
            KernelVariant::Spmm { .. } => Kernel::Spmm,
            KernelVariant::Sptrsv { .. } => Kernel::Sptrsv,
            KernelVariant::Symgs { .. } => Kernel::Symgs,
        }
    }

    /// The default knob point — the stream the hand-written kernel entry
    /// points (`spmv::via_csb`, `spmm::via_cam`, `sptrsv::via_sspm`,
    /// `symgs::via_sspm`) emit, bit-identical (pinned by test).
    pub fn default_for(kernel: Kernel) -> KernelVariant {
        match kernel {
            Kernel::Spmv => KernelVariant::Spmv {
                format: SpmvFormat::Csb,
                flush_group: 8,
                unroll: 1,
            },
            Kernel::Spmm => KernelVariant::Spmm { col_tile: 0 },
            Kernel::Sptrsv => KernelVariant::Sptrsv {
                schedule: Schedule::RowSerial,
                flush_group: 8,
            },
            Kernel::Symgs => KernelVariant::Symgs {
                schedule: Schedule::RowSerial,
                flush_group: 8,
            },
        }
    }

    /// Whether this variant is the kernel's default knob point.
    pub fn is_default(&self) -> bool {
        *self == KernelVariant::default_for(self.kernel())
    }

    /// The kernel's full variant grid, default first. The tuner sweeps
    /// this per matrix; keep it small enough that an exhaustive sweep
    /// stays cheap (the static-bound pruner thins it further).
    pub fn space(kernel: Kernel) -> Vec<KernelVariant> {
        let mut out = vec![KernelVariant::default_for(kernel)];
        match kernel {
            Kernel::Spmv => {
                for fg in [4usize, 8, 16] {
                    for u in [1usize, 2, 4] {
                        out.push(KernelVariant::Spmv {
                            format: SpmvFormat::Csb,
                            flush_group: fg,
                            unroll: u,
                        });
                    }
                    out.push(KernelVariant::Spmv {
                        format: SpmvFormat::Csr,
                        flush_group: fg,
                        unroll: 1,
                    });
                }
            }
            Kernel::Spmm => {
                for tile in [0usize, 16, 64, 256] {
                    out.push(KernelVariant::Spmm { col_tile: tile });
                }
            }
            Kernel::Sptrsv => {
                for schedule in [Schedule::RowSerial, Schedule::Levels] {
                    for fg in [4usize, 8, 16] {
                        out.push(KernelVariant::Sptrsv {
                            schedule,
                            flush_group: fg,
                        });
                    }
                }
            }
            Kernel::Symgs => {
                for schedule in [Schedule::RowSerial, Schedule::Levels] {
                    for fg in [4usize, 8, 16] {
                        out.push(KernelVariant::Symgs {
                            schedule,
                            flush_group: fg,
                        });
                    }
                }
            }
        }
        out.dedup_stable();
        out
    }

    /// The variant's stable name, e.g. `sptrsv/levels/fg8` or
    /// `spmv/csb/fg8/u1`. Round-trips through [`KernelVariant::parse`].
    pub fn name(&self) -> String {
        match self {
            KernelVariant::Spmv {
                format: SpmvFormat::Csb,
                flush_group,
                unroll,
            } => format!("spmv/csb/fg{flush_group}/u{unroll}"),
            KernelVariant::Spmv {
                format: SpmvFormat::Csr,
                flush_group,
                ..
            } => format!("spmv/csr/fg{flush_group}"),
            KernelVariant::Spmm { col_tile } => format!("spmm/tile{col_tile}"),
            KernelVariant::Sptrsv {
                schedule,
                flush_group,
            } => format!("sptrsv/{}/fg{flush_group}", schedule_name(*schedule)),
            KernelVariant::Symgs {
                schedule,
                flush_group,
            } => format!("symgs/{}/fg{flush_group}", schedule_name(*schedule)),
        }
    }

    /// FNV-1a of [`KernelVariant::name`] — the variant's identity in the
    /// memo hierarchy, combined with the matrix fingerprint and config
    /// hash exactly like a kernel name is today.
    pub fn content_hash(&self) -> u64 {
        fnv1a64(self.name().into_bytes())
    }

    /// Parses a [`KernelVariant::name`] back into its variant; `None` for
    /// anything the grammar doesn't produce.
    pub fn parse(name: &str) -> Option<KernelVariant> {
        let mut parts = name.split('/');
        let v = match Kernel::parse(parts.next()?)? {
            Kernel::Spmv => match parts.next()? {
                "csb" => KernelVariant::Spmv {
                    format: SpmvFormat::Csb,
                    flush_group: numeric(parts.next()?, "fg")?,
                    unroll: numeric(parts.next()?, "u")?,
                },
                "csr" => KernelVariant::Spmv {
                    format: SpmvFormat::Csr,
                    flush_group: numeric(parts.next()?, "fg")?,
                    unroll: 1,
                },
                _ => return None,
            },
            Kernel::Spmm => KernelVariant::Spmm {
                col_tile: numeric(parts.next()?, "tile")?,
            },
            Kernel::Sptrsv => KernelVariant::Sptrsv {
                schedule: parse_schedule(parts.next()?)?,
                flush_group: numeric(parts.next()?, "fg")?,
            },
            Kernel::Symgs => KernelVariant::Symgs {
                schedule: parse_schedule(parts.next()?)?,
                flush_group: numeric(parts.next()?, "fg")?,
            },
        };
        parts.next().is_none().then_some(v)
    }

    /// Emits this variant's instruction stream on `inputs`, running the
    /// simulation under `ctx` (or only recording it, if the context's
    /// engine is in emit-only mode — the tuner's cheap compile path).
    pub fn emit(&self, inputs: &GenInputs, ctx: &SimContext) -> KernelRun<GenOutput> {
        match *self {
            KernelVariant::Spmv {
                format: SpmvFormat::Csb,
                flush_group,
                unroll,
            } => {
                let csb = Csb::from_csr(&inputs.a, ctx.via.csb_block_size())
                    .expect("corpus matrix converts to CSB");
                spmv::via_csb_with(&csb, &inputs.x, ctx, flush_group, unroll).map(GenOutput::Vector)
            }
            KernelVariant::Spmv {
                format: SpmvFormat::Csr,
                flush_group,
                ..
            } => spmv::via_csr_with(&inputs.a, &inputs.x, ctx, flush_group).map(GenOutput::Vector),
            KernelVariant::Spmm { col_tile } => {
                spmm::via_cam_with(&inputs.a, &inputs.b_mat, ctx, col_tile).map(GenOutput::Matrix)
            }
            KernelVariant::Sptrsv {
                schedule,
                flush_group,
            } => sptrsv::via_sspm_with(&inputs.l, &inputs.rhs, ctx, schedule, flush_group)
                .map(GenOutput::Vector),
            KernelVariant::Symgs {
                schedule,
                flush_group,
            } => symgs::via_sspm_with(
                &inputs.sym,
                &inputs.rhs,
                &inputs.x0,
                ctx,
                schedule,
                flush_group,
            )
            .map(GenOutput::Vector),
        }
    }
}

fn numeric(part: &str, prefix: &str) -> Option<usize> {
    part.strip_prefix(prefix)?.parse().ok()
}

trait DedupStable {
    fn dedup_stable(&mut self);
}

impl DedupStable for Vec<KernelVariant> {
    /// Order-preserving dedup (the default appears both as the head
    /// element and inside the grid walk).
    fn dedup_stable(&mut self) {
        let mut seen = std::collections::HashSet::new();
        self.retain(|v| seen.insert(*v));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_parse_back_to_their_variant() {
        for kernel in Kernel::ALL {
            for v in KernelVariant::space(kernel) {
                let name = v.name();
                assert_eq!(
                    KernelVariant::parse(&name),
                    Some(v),
                    "{name} must round-trip"
                );
                assert!(name.starts_with(kernel.name()));
            }
        }
        assert_eq!(KernelVariant::parse("spmv/csb/fg8"), None);
        assert_eq!(KernelVariant::parse("spmv/csr/fg8/u2"), None);
        assert_eq!(KernelVariant::parse("sptrsv/zigzag/fg8"), None);
        assert_eq!(KernelVariant::parse("spmm/tilex"), None);
    }

    #[test]
    fn spaces_have_unique_names_and_hashes_with_the_default_first() {
        for kernel in Kernel::ALL {
            let space = KernelVariant::space(kernel);
            assert!(space.len() >= 4, "{}: space too small", kernel.name());
            assert!(
                space[0].is_default(),
                "{}: default must lead",
                kernel.name()
            );
            assert_eq!(space[0], KernelVariant::default_for(kernel));
            let names: std::collections::HashSet<_> = space.iter().map(|v| v.name()).collect();
            assert_eq!(
                names.len(),
                space.len(),
                "{}: duplicate names",
                kernel.name()
            );
            let hashes: std::collections::HashSet<_> =
                space.iter().map(|v| v.content_hash()).collect();
            assert_eq!(
                hashes.len(),
                space.len(),
                "{}: hash collision",
                kernel.name()
            );
            for v in &space {
                assert_eq!(v.kernel(), kernel);
            }
        }
    }

    #[test]
    fn content_hash_is_stable_across_calls() {
        let v = KernelVariant::default_for(Kernel::Sptrsv);
        assert_eq!(v.content_hash(), v.content_hash());
        assert_eq!(v.name(), "sptrsv/row_serial/fg8");
    }
}
