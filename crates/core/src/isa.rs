//! The VIA instruction-set catalog (paper §IV-C).
//!
//! A machine-readable description of every `vldx*` instruction: mnemonic,
//! operands, addressing modes, the [`SspmOpClass`] it lowers to, and the
//! [`ViaUnit`](crate::ViaUnit) method that executes it. The paper designs
//! these "to be easily integrated in the programming model of different
//! Vector ISAs"; this catalog is the reproduction's equivalent of the
//! paper's instruction tables.

use crate::fivu::SspmOpClass;

/// Which SSPM addressing modes an instruction supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsaModes {
    /// Direct-mapped only (`.d`).
    Direct,
    /// CAM only (`.c`).
    Cam,
    /// Both `.d` and `.c` variants exist.
    Both,
    /// Modeless (control/scalar instructions).
    None,
}

/// One VIA instruction's catalog entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsaEntry {
    /// Assembly mnemonic (paper naming).
    pub mnemonic: &'static str,
    /// Operand list, paper §IV-C notation.
    pub operands: &'static str,
    /// Supported SSPM addressing modes.
    pub modes: IsaModes,
    /// The op classes the instruction lowers to (per mode/destination).
    pub classes: &'static [SspmOpClass],
    /// The `ViaUnit` methods implementing it.
    pub methods: &'static [&'static str],
    /// What it does.
    pub description: &'static str,
}

/// The full VIA ISA (paper §IV-C plus the fused dot forms of Figure 4).
pub const ISA: &[IsaEntry] = &[
    IsaEntry {
        mnemonic: "vldxload",
        operands: "Data, Idx",
        modes: IsaModes::Both,
        classes: &[SspmOpClass::DirectWrite, SspmOpClass::CamWrite],
        methods: &["vldx_load_d", "vldx_load_c"],
        description: "store a vector of values into the SSPM at the given \
                      indices (direct mapping, or CAM insert-or-update in \
                      insertion order)",
    },
    IsaEntry {
        mnemonic: "vldxmov",
        operands: "Idx, output",
        modes: IsaModes::Both,
        classes: &[SspmOpClass::DirectRead, SspmOpClass::CamRead],
        methods: &["vldx_mov_d", "vldx_mov_c"],
        description: "read SSPM entries into the VRF; unwritten (direct) or \
                      unmatched (CAM) lanes read zero",
    },
    IsaEntry {
        mnemonic: "vldxcount",
        operands: "dst",
        modes: IsaModes::None,
        classes: &[SspmOpClass::CountRead],
        methods: &["vldx_count"],
        description: "read the element-count register (number of tracked CAM \
                      indices) into a scalar register",
    },
    IsaEntry {
        mnemonic: "vldxloadidx",
        operands: "offset, output",
        modes: IsaModes::Cam,
        classes: &[SspmOpClass::IndexRead],
        methods: &["vldx_load_idx"],
        description: "read VL consecutive tracked indices from the index \
                      table into the VRF (result read-out for SpMA)",
    },
    IsaEntry {
        mnemonic: "vldxclear",
        operands: "full_mode, seg",
        modes: IsaModes::None,
        classes: &[SspmOpClass::Clear],
        methods: &["vldx_clear", "vldx_clear_segment"],
        description: "flash-clear the valid bitmap (whole or a segment), the \
                      index table, and the element-count register",
    },
    IsaEntry {
        mnemonic: "vldxadd",
        operands: "Data, Idx, output, offset",
        modes: IsaModes::Both,
        classes: &[
            SspmOpClass::DirectAluToVrf,
            SspmOpClass::DirectAluToSspm,
            SspmOpClass::CamRead,
            SspmOpClass::CamWrite,
        ],
        methods: &["vldx_alu_d", "vldx_alu_c"],
        description: "sspm[idx] + data, to the VRF or accumulated back into \
                      the SSPM at idx+offset (CAM: merge-or-insert — the \
                      SpMA primitive)",
    },
    IsaEntry {
        mnemonic: "vldxsub",
        operands: "Data, Idx, output, offset",
        modes: IsaModes::Both,
        classes: &[
            SspmOpClass::DirectAluToVrf,
            SspmOpClass::DirectAluToSspm,
            SspmOpClass::CamRead,
            SspmOpClass::CamWrite,
        ],
        methods: &["vldx_alu_d", "vldx_alu_c"],
        description: "sspm[idx] - data, destinations as vldxadd",
    },
    IsaEntry {
        mnemonic: "vldxmult",
        operands: "Data, Idx, output, offset",
        modes: IsaModes::Both,
        classes: &[
            SspmOpClass::DirectAluToVrf,
            SspmOpClass::DirectAluToSspm,
            SspmOpClass::CamRead,
            SspmOpClass::CamWrite,
            SspmOpClass::CamDot,
            SspmOpClass::CamDotAcc,
        ],
        methods: &["vldx_alu_d", "vldx_alu_c", "vldx_dot_c", "vldx_dot_acc_c"],
        description: "sspm[idx] * data; in CAM mode the matched products can \
                      feed the VFU reduction tree in the same instruction \
                      (Figure 4 step 4), optionally accumulating the scalar \
                      into the SSPM (step 5) — the SpMM primitive",
    },
    IsaEntry {
        mnemonic: "vldxblkmult",
        operands: "Data, Idx, Idx_offset, offset",
        modes: IsaModes::Direct,
        classes: &[SspmOpClass::BlockMultiply],
        methods: &["vldx_blk_mult_d"],
        description: "block multiply-accumulate: split each merged in-block \
                      index at Idx_offset into (row, col); \
                      sspm[offset+row] += sspm[col] * data — the CSB SpMV \
                      primitive (Algorithm 4)",
    },
];

/// Renders the catalog as an aligned text table.
pub fn render_isa() -> String {
    let mut out = String::new();
    for entry in ISA {
        let modes = match entry.modes {
            IsaModes::Direct => ".d",
            IsaModes::Cam => ".c",
            IsaModes::Both => ".d/.c",
            IsaModes::None => "-",
        };
        out.push_str(&format!(
            "{:<12} {:<6} {:<28} {}\n",
            entry.mnemonic, modes, entry.operands, entry.description
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_the_papers_nine_instructions() {
        assert_eq!(ISA.len(), 9);
        let mnemonics: Vec<_> = ISA.iter().map(|e| e.mnemonic).collect();
        for expected in [
            "vldxload",
            "vldxmov",
            "vldxcount",
            "vldxloadidx",
            "vldxclear",
            "vldxadd",
            "vldxsub",
            "vldxmult",
            "vldxblkmult",
        ] {
            assert!(mnemonics.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn every_op_class_is_reachable_from_the_isa() {
        let all_classes = [
            SspmOpClass::DirectWrite,
            SspmOpClass::DirectRead,
            SspmOpClass::DirectAluToVrf,
            SspmOpClass::DirectAluToSspm,
            SspmOpClass::BlockMultiply,
            SspmOpClass::CamRead,
            SspmOpClass::CamWrite,
            SspmOpClass::CamDot,
            SspmOpClass::CamDotAcc,
            SspmOpClass::IndexRead,
            SspmOpClass::CountRead,
            SspmOpClass::Clear,
        ];
        for class in all_classes {
            assert!(
                ISA.iter().any(|e| e.classes.contains(&class)),
                "no instruction lowers to {class:?}"
            );
        }
    }

    #[test]
    fn render_lists_every_mnemonic() {
        let text = render_isa();
        for entry in ISA {
            assert!(text.contains(entry.mnemonic));
        }
    }

    #[test]
    fn methods_exist_on_via_unit() {
        // Compile-time-ish check: the documented method names match the
        // real API (spot-checked by calling each one).
        use crate::{AluOp, Dest, ViaConfig, ViaUnit};
        use via_sim::{CoreConfig, Engine, MemConfig};
        let mut e = Engine::new(
            CoreConfig::default().with_custom_unit(),
            MemConfig::default(),
        );
        let mut v = ViaUnit::new(ViaConfig::new(4, 2));
        v.vldx_load_d(&mut e, &[0], &[1.0], &[]);
        // Mode switch: direct writes dirtied the CAM-owned low region, so a
        // clear must precede the CAM insert (via-verify VIA009).
        v.vldx_clear(&mut e);
        v.vldx_load_c(&mut e, &[5], &[2.0], &[]);
        v.vldx_mov_d(&mut e, &[0], &[], &mut [0.0]);
        v.vldx_mov_c(&mut e, &[5], &[], &mut [0.0]);
        v.vldx_count(&mut e);
        v.vldx_load_idx(&mut e, 0, &mut [0]);
        v.vldx_clear_segment(&mut e, 0, 8);
        v.vldx_alu_d(&mut e, AluOp::Add, &[0], &[1.0], Dest::Vrf, &[]);
        v.vldx_alu_c(&mut e, AluOp::Mult, &[5], &[1.0], Dest::Vrf, &[]);
        v.vldx_dot_c(&mut e, &[5], &[1.0], &[]);
        v.vldx_dot_acc_c(&mut e, &[5], &[1.0], 200, &[]);
        v.vldx_blk_mult_d(&mut e, &[0], &[1.0], 4, 16, &[]);
        v.vldx_clear(&mut e);
        let stats = e.finish();
        assert_eq!(stats.custom_ops, 14);
    }
}
