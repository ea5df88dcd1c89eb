//! The Fused Indexed Vector Unit — timing model (paper §IV-B).
//!
//! The FIVU extends a regular vector functional unit with three pipeline
//! stages: *preprocessing 1* (decode + SSPM request generation),
//! *preprocessing 2* (receive/pack SSPM responses, stall while requests
//! drain), and *post-processing* (select VRF or SSPM writeback). When the
//! number of SSPM accesses an instruction needs exceeds the SSPM port
//! count, the requests are executed "in a nested pipeline in multiple
//! cycles" — modeled here as `ceil(accesses / ports)` occupancy slots.

use crate::config::ViaConfig;

/// FIVU pipeline depth added to every VIA instruction (preprocessing 1 +
/// preprocessing 2 + post-processing, §IV-B).
const PIPELINE_DEPTH: u32 = 3;

/// Extra cycles per access batch for a CAM search (parallel compare +
/// priority encode).
const CAM_SEARCH_LATENCY: u32 = 1;

/// The class of SSPM traffic a VIA instruction generates (selects search
/// latency and per-lane access counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SspmOpClass {
    /// Direct-mapped write of one entry per lane (`vldxload.d`).
    DirectWrite,
    /// Direct-mapped read of one entry per lane (`vldxmov.d`).
    DirectRead,
    /// Direct read + ALU, result to VRF (`vldx{add,sub,mult}.d` → VRF).
    DirectAluToVrf,
    /// Direct read-modify-write + ALU, result to SSPM
    /// (`vldx{add,sub,mult}.d` → SSPM): read + write per lane.
    DirectAluToSspm,
    /// Block multiply-accumulate (`vldxblkmult`): read the input-vector
    /// entry, read the output accumulator, write it back — 3 accesses per
    /// lane.
    BlockMultiply,
    /// CAM search + read per lane (`vldxmov.c`, ALU `.c` to VRF).
    CamRead,
    /// CAM search + insert-or-update per lane (`vldxload.c`,
    /// ALU `.c` to SSPM).
    CamWrite,
    /// CAM search + read + fused multiply-reduce per lane (`vldxmult.c`
    /// feeding the VFU reduction tree in the same instruction — paper
    /// Figure 4 step 4).
    CamDot,
    /// [`SspmOpClass::CamDot`] whose reduced scalar is accumulated into a
    /// direct-mapped SSPM entry instead of the VRF (paper Figure 4 step 5:
    /// "we accumulate the output results in the SPM"). Adds one
    /// read-modify-write access for the accumulator.
    CamDotAcc,
    /// Read tracked indices out of the index table (`vldxloadidx`).
    IndexRead,
    /// Element-count register read (`vldxcount`).
    CountRead,
    /// Flash clear (`vldxclear`).
    Clear,
}

impl SspmOpClass {
    /// SSPM accesses generated per vector lane.
    pub fn accesses_per_lane(self) -> u32 {
        match self {
            SspmOpClass::DirectWrite
            | SspmOpClass::DirectRead
            | SspmOpClass::DirectAluToVrf
            | SspmOpClass::CamRead
            | SspmOpClass::CamWrite
            | SspmOpClass::CamDot
            | SspmOpClass::IndexRead => 1,
            SspmOpClass::CamDotAcc => 1, // plus the fixed accumulator RMW
            SspmOpClass::DirectAluToSspm => 2,
            SspmOpClass::BlockMultiply => 3,
            SspmOpClass::CountRead | SspmOpClass::Clear => 0,
        }
    }

    /// Whether the op searches the CAM index table.
    pub fn uses_cam(self) -> bool {
        matches!(
            self,
            SspmOpClass::CamRead
                | SspmOpClass::CamWrite
                | SspmOpClass::CamDot
                | SspmOpClass::CamDotAcc
        )
    }

    /// Whether the op performs an ALU operation on the packed operands.
    pub fn uses_alu(self) -> bool {
        matches!(
            self,
            SspmOpClass::DirectAluToVrf
                | SspmOpClass::DirectAluToSspm
                | SspmOpClass::BlockMultiply
                | SspmOpClass::CamRead
                | SspmOpClass::CamWrite
                | SspmOpClass::CamDot
                | SspmOpClass::CamDotAcc
        )
    }

    /// Whether the op feeds the VFU reduction tree (fused dot product).
    pub fn uses_reduce(self) -> bool {
        matches!(self, SspmOpClass::CamDot | SspmOpClass::CamDotAcc)
    }

    /// Fixed extra SSPM accesses independent of lane count (the
    /// accumulator read-modify-write of [`SspmOpClass::CamDotAcc`]).
    pub fn extra_accesses(self) -> u32 {
        match self {
            SspmOpClass::CamDotAcc => 2,
            _ => 0,
        }
    }
}

/// The cost of one FIVU instruction: how long the unit is occupied
/// (pipelined initiation interval) and the latency to the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FivuCost {
    /// Cycles the FIVU is busy before accepting the next VIA instruction.
    pub occupancy: u32,
    /// Cycles until the result (VRF value or SSPM state) is available.
    pub latency: u32,
}

/// The FIVU timing calculator for a given SSPM configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fivu {
    config: ViaConfig,
}

impl Fivu {
    /// Fused-ALU latency (an FMA-class vector operation).
    pub const DEFAULT_ALU_LATENCY: u32 = 5;

    /// A FIVU over the given SSPM geometry.
    pub fn new(config: ViaConfig) -> Self {
        Fivu { config }
    }

    /// The SSPM configuration.
    pub fn config(&self) -> &ViaConfig {
        &self.config
    }

    /// Extra latency of the fused reduction tree (log2(VL) add stages).
    pub const REDUCE_LATENCY: u32 = 3;

    /// Cost of executing `class` over `lanes` vector lanes.
    ///
    /// Each port serves `port_width` lanes per cycle, so an op needing
    /// `lanes * accesses_per_lane` SSPM accesses occupies the FIVU for
    /// `ceil(accesses / (ports * port_width))` cycles (the nested request
    /// pipeline of preprocessing 1/2). CAM ops add the search latency per
    /// lane batch; `latency = pipeline_depth + occupancy + ALU latency
    /// (if any) + reduction (for fused dot ops)`.
    pub fn cost(&self, class: SspmOpClass, lanes: u32) -> FivuCost {
        let per_cycle = (self.config.ports * self.config.port_width).max(1);
        let accesses = lanes * class.accesses_per_lane() + class.extra_accesses();
        let batches = accesses.div_ceil(per_cycle).max(1);
        let search = if class.uses_cam() {
            CAM_SEARCH_LATENCY * lanes.div_ceil(per_cycle).max(1)
        } else {
            0
        };
        let occupancy = (batches + search).max(1);
        let mut latency = PIPELINE_DEPTH + occupancy;
        if class.uses_alu() {
            latency += Self::DEFAULT_ALU_LATENCY;
        }
        if class.uses_reduce() {
            latency += Self::REDUCE_LATENCY;
        }
        FivuCost { occupancy, latency }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_ports_lower_occupancy() {
        let c2 = Fivu::new(ViaConfig::new(16, 2));
        let c4 = Fivu::new(ViaConfig::new(16, 4));
        let lanes = 4;
        let o2 = c2.cost(SspmOpClass::BlockMultiply, lanes).occupancy;
        let o4 = c4.cost(SspmOpClass::BlockMultiply, lanes).occupancy;
        assert!(o4 < o2, "4 ports ({o4}) should beat 2 ports ({o2})");
    }

    #[test]
    fn direct_read_vl4_2ports_is_one_batch() {
        // 4 accesses / (2 ports * 2 lanes) = 1 batch.
        let f = Fivu::new(ViaConfig::new(16, 2));
        let cost = f.cost(SspmOpClass::DirectRead, 4);
        assert_eq!(cost.occupancy, 1);
        assert_eq!(cost.latency, 3 + 1); // pipeline + batch, no ALU
    }

    #[test]
    fn wide_vectors_take_multiple_batches() {
        // VL=8: 8 accesses / 4 per cycle = 2 batches on 2 ports.
        let f = Fivu::new(ViaConfig::new(16, 2));
        assert_eq!(f.cost(SspmOpClass::DirectRead, 8).occupancy, 2);
        let f4 = Fivu::new(ViaConfig::new(16, 4));
        assert_eq!(f4.cost(SspmOpClass::DirectRead, 8).occupancy, 1);
    }

    #[test]
    fn cam_dot_adds_reduce_latency() {
        let f = Fivu::new(ViaConfig::new(16, 2));
        let read = f.cost(SspmOpClass::CamRead, 4);
        let dot = f.cost(SspmOpClass::CamDot, 4);
        assert_eq!(dot.latency - read.latency, Fivu::REDUCE_LATENCY);
        assert_eq!(dot.occupancy, read.occupancy);
    }

    #[test]
    fn cam_ops_pay_search_latency() {
        let f = Fivu::new(ViaConfig::new(16, 2));
        let read = f.cost(SspmOpClass::DirectRead, 4);
        let cam = f.cost(SspmOpClass::CamRead, 4);
        assert!(cam.occupancy > read.occupancy);
    }

    #[test]
    fn alu_ops_add_alu_latency() {
        let f = Fivu::new(ViaConfig::new(16, 2));
        let mov = f.cost(SspmOpClass::DirectRead, 4);
        let alu = f.cost(SspmOpClass::DirectAluToVrf, 4);
        assert_eq!(alu.latency - mov.latency, Fivu::DEFAULT_ALU_LATENCY);
    }

    #[test]
    fn count_and_clear_are_single_cycle_ops() {
        let f = Fivu::new(ViaConfig::new(16, 2));
        for class in [SspmOpClass::CountRead, SspmOpClass::Clear] {
            let cost = f.cost(class, 4);
            assert_eq!(cost.occupancy, 1);
            assert_eq!(cost.latency, 3 + 1);
        }
    }

    #[test]
    fn block_multiply_costs_three_accesses_per_lane() {
        // 12 accesses / (2 ports * 2 lanes) = 3 batches.
        let f = Fivu::new(ViaConfig::new(16, 2));
        assert_eq!(f.cost(SspmOpClass::BlockMultiply, 4).occupancy, 3);
        // 12 / 8 = 2 batches on 4 ports.
        let f4 = Fivu::new(ViaConfig::new(16, 4));
        assert_eq!(f4.cost(SspmOpClass::BlockMultiply, 4).occupancy, 2);
    }

    #[test]
    fn zero_lanes_still_costs_one_cycle() {
        let f = Fivu::new(ViaConfig::new(16, 2));
        let cost = f.cost(SspmOpClass::DirectRead, 0);
        assert_eq!(cost.occupancy, 1);
    }
}
