//! The VIA ISA extensions (paper §IV-C), executed functionally against the
//! SSPM and timed through the simulator's custom (FIVU) unit.
//!
//! Every `vldx*` method does two things at once:
//!
//! 1. **functional execution** — the real values move through the [`Sspm`]
//!    model, so kernels built on `ViaUnit` compute real results that the
//!    test suite checks against dense references;
//! 2. **timing** — a commit-serialized custom instruction with the
//!    [`Fivu`]-derived occupancy/latency is pushed into the
//!    [`via_sim::Engine`] (paper §IV-E: VIA instructions execute at commit
//!    time; back-to-back VIA instructions pipeline through the FIVU).
//!
//! One instruction operates on up to the machine vector length of lanes;
//! kernels chunk longer vectors, exactly as the paper's Algorithm 4 loops
//! by `VL`.

use crate::config::ViaConfig;
use crate::fivu::{Fivu, SspmOpClass};
use crate::mode::ModeChecker;
use crate::sspm::{Sspm, SspmEvents};
use via_sim::{Engine, Inst, Reg};

/// Half-open range of direct-mapped SSPM entries written by an index slice
/// shifted by `offset` (`None` when the slice is empty).
fn write_span(idx: &[u32], offset: u32) -> Option<(usize, usize)> {
    let lo = idx.iter().min()?;
    let hi = idx.iter().max()?;
    Some((
        *lo as usize + offset as usize,
        *hi as usize + offset as usize + 1,
    ))
}

/// Arithmetic performed by the `vldxadd`/`vldxsub`/`vldxmult` family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// `sspm OP data = sspm + data` (`vldxadd`).
    Add,
    /// `sspm - data` (`vldxsub`).
    Sub,
    /// `sspm * data` (`vldxmult`).
    Mult,
}

impl AluOp {
    fn apply(self, sspm_value: f64, data: f64) -> f64 {
        match self {
            AluOp::Add => sspm_value + data,
            AluOp::Sub => sspm_value - data,
            AluOp::Mult => sspm_value * data,
        }
    }
}

/// Destination of a `vldx*` ALU instruction (paper §IV-C `output` operand).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dest {
    /// Result written to a vector register.
    Vrf,
    /// Result accumulated into the SSPM at `idx + offset` (the `offset`
    /// operand relocates the output chunk inside the scratchpad).
    Sspm {
        /// Offset added to each index to form the SSPM write position.
        offset: u32,
    },
}

/// The VIA unit: SSPM state plus FIVU timing, bound to an ISA of `vldx*`
/// instructions.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct ViaUnit {
    sspm: Sspm,
    fivu: Fivu,
    mode: ModeChecker,
    /// Last addressing mode observed, for trace markers: 0 = cleared,
    /// 1 = direct-mapped, 2 = CAM.
    trace_mode: u8,
}

impl ViaUnit {
    /// A VIA unit with the given SSPM geometry.
    pub fn new(config: ViaConfig) -> Self {
        ViaUnit {
            mode: ModeChecker::new(&config),
            sspm: Sspm::new(config),
            fivu: Fivu::new(config),
            trace_mode: 0,
        }
    }

    /// The SSPM geometry.
    pub fn config(&self) -> &ViaConfig {
        self.sspm.config()
    }

    /// Read-only access to the SSPM state (tests / introspection).
    pub fn sspm(&self) -> &Sspm {
        &self.sspm
    }

    /// SSPM event counters (for the energy model).
    pub fn events(&self) -> SspmEvents {
        self.sspm.events()
    }

    /// The element-count register value.
    pub fn count(&self) -> usize {
        self.sspm.count()
    }

    fn push_op(
        &mut self,
        engine: &mut Engine,
        class: SspmOpClass,
        lanes: u32,
        write_range: Option<(usize, usize)>,
        deps: &[Reg],
    ) -> Reg {
        // The mode state machine runs unconditionally (a handful of integer
        // ops, allocation-free when the op is legal); diagnostics are only
        // kept when a verifier is attached, and in debug builds an
        // error-severity diagnostic panics inside `report_diag`.
        for diag in self.mode.note(class, lanes, write_range) {
            engine.report_diag(diag);
        }
        // Mode-transition markers for the event trace. `trace_marker` is a
        // no-op unless event tracing is enabled, so this never perturbs
        // timing; the comparison below is the only always-on cost.
        let mode_tag = match class {
            SspmOpClass::DirectWrite
            | SspmOpClass::DirectRead
            | SspmOpClass::DirectAluToVrf
            | SspmOpClass::DirectAluToSspm
            | SspmOpClass::BlockMultiply => 1u8,
            SspmOpClass::CamWrite
            | SspmOpClass::CamRead
            | SspmOpClass::CamDot
            | SspmOpClass::CamDotAcc => 2,
            SspmOpClass::Clear => 0,
            // Index/count reads work in either mode and change nothing.
            SspmOpClass::IndexRead | SspmOpClass::CountRead => self.trace_mode,
        };
        if mode_tag != self.trace_mode {
            self.trace_mode = mode_tag;
            engine.trace_marker(match mode_tag {
                1 => "sspm mode: direct",
                2 => "sspm mode: cam",
                _ => "sspm mode: cleared",
            });
        }
        let cost = self.fivu.cost(class, lanes);
        let dst = engine.fresh_reg();
        engine.push(Inst::custom(
            cost.occupancy,
            cost.latency,
            self.sspm.config().commit_serialized,
            deps,
            Some(dst),
        ));
        dst
    }

    /// `vldxclear` in full mode: flash-clears the valid bitmap, the index
    /// table, and the element-count register (paper §IV-C).
    pub fn vldx_clear(&mut self, engine: &mut Engine) -> Reg {
        self.sspm.clear();
        self.push_op(engine, SspmOpClass::Clear, 0, None, &[])
    }

    /// `vldxclear` in segment mode: clears `[start, start + len)` of the
    /// valid bitmap.
    ///
    /// # Panics
    ///
    /// Panics if the segment exceeds the SRAM.
    pub fn vldx_clear_segment(&mut self, engine: &mut Engine, start: usize, len: usize) -> Reg {
        self.sspm.clear_segment(start, len);
        self.push_op(engine, SspmOpClass::Clear, 0, None, &[])
    }

    /// `vldxload.d`: stores `data` into the SSPM at `idx` in direct-mapped
    /// mode (paper §IV-C: "reads data from the VRF and stores it in the
    /// SSPM").
    ///
    /// # Panics
    ///
    /// Panics if `idx.len() != data.len()` or any index exceeds the SRAM.
    pub fn vldx_load_d(
        &mut self,
        engine: &mut Engine,
        idx: &[u32],
        data: &[f64],
        deps: &[Reg],
    ) -> Reg {
        assert_eq!(idx.len(), data.len(), "idx/data lane mismatch");
        for (&i, &v) in idx.iter().zip(data) {
            self.sspm.write_direct(i as usize, v);
        }
        self.push_op(
            engine,
            SspmOpClass::DirectWrite,
            idx.len() as u32,
            write_span(idx, 0),
            deps,
        )
    }

    /// `vldxload.c`: inserts (or updates) `idx → data` pairs through the
    /// CAM index table in order.
    ///
    /// # Panics
    ///
    /// Panics on lane mismatch or CAM overflow (kernels segment long rows).
    pub fn vldx_load_c(
        &mut self,
        engine: &mut Engine,
        idx: &[u32],
        data: &[f64],
        deps: &[Reg],
    ) -> Reg {
        assert_eq!(idx.len(), data.len(), "idx/data lane mismatch");
        for (&i, &v) in idx.iter().zip(data) {
            self.sspm.write_cam(i, v);
        }
        self.push_op(engine, SspmOpClass::CamWrite, idx.len() as u32, None, deps)
    }

    /// `vldxmov.d`: reads the SSPM at `idx` in direct-mapped mode into the
    /// VRF; unwritten entries read zero. Writes the packed values to
    /// `values` and returns the destination register.
    ///
    /// # Panics
    ///
    /// Panics if `idx.len() != values.len()` or any index exceeds the SRAM.
    pub fn vldx_mov_d(
        &mut self,
        engine: &mut Engine,
        idx: &[u32],
        deps: &[Reg],
        values: &mut [f64],
    ) -> Reg {
        assert_eq!(idx.len(), values.len(), "idx/values lane mismatch");
        for (v, &i) in values.iter_mut().zip(idx) {
            *v = self.sspm.read_direct(i as usize);
        }
        self.push_op(
            engine,
            SspmOpClass::DirectRead,
            idx.len() as u32,
            None,
            deps,
        )
    }

    /// `vldxmov.c`: CAM-searches each index; hits return the stored value,
    /// misses return zero (paper §IV-A reading in CAM mode). Writes the
    /// packed values to `values` and returns the destination register.
    ///
    /// # Panics
    ///
    /// Panics if `idx.len() != values.len()`.
    pub fn vldx_mov_c(
        &mut self,
        engine: &mut Engine,
        idx: &[u32],
        deps: &[Reg],
        values: &mut [f64],
    ) -> Reg {
        assert_eq!(idx.len(), values.len(), "idx/values lane mismatch");
        for (v, &i) in values.iter_mut().zip(idx) {
            *v = self.sspm.read_cam(i);
        }
        self.push_op(engine, SspmOpClass::CamRead, idx.len() as u32, None, deps)
    }

    /// `vldxcount`: reads the element-count register into a scalar register
    /// (used by SpMA to size the result row, paper §IV-C).
    pub fn vldx_count(&mut self, engine: &mut Engine) -> (Reg, usize) {
        let count = self.sspm.count();
        let dst = self.push_op(engine, SspmOpClass::CountRead, 0, None, &[]);
        (dst, count)
    }

    /// `vldxloadidx`: loads `indices.len()` consecutive tracked indices
    /// starting at insertion position `offset` from the index table into
    /// the VRF. Writes them to `indices` and returns the destination
    /// register.
    ///
    /// # Panics
    ///
    /// Panics if `offset + indices.len()` exceeds the element count.
    pub fn vldx_load_idx(
        &mut self,
        engine: &mut Engine,
        offset: usize,
        indices: &mut [u32],
    ) -> Reg {
        let lanes = indices.len();
        assert!(
            offset + lanes <= self.sspm.count(),
            "vldxloadidx beyond element count"
        );
        for (p, i) in (offset..).zip(indices.iter_mut()) {
            *i = self.sspm.tracked_index(p);
        }
        self.push_op(engine, SspmOpClass::IndexRead, lanes as u32, None, &[])
    }

    /// `vldx{add,sub,mult}.d`: direct-mapped ALU instruction.
    ///
    /// * `Dest::Vrf` — returns `sspm[idx[i]] OP data[i]` per lane.
    /// * `Dest::Sspm { offset }` — accumulates in place:
    ///   `sspm[idx[i]+offset] = sspm[idx[i]+offset] OP data[i]`.
    ///
    /// Returns the destination register and, for `Dest::Vrf`, the packed
    /// result values.
    ///
    /// # Panics
    ///
    /// Panics on lane mismatch or an SRAM-exceeding index.
    pub fn vldx_alu_d(
        &mut self,
        engine: &mut Engine,
        op: AluOp,
        idx: &[u32],
        data: &[f64],
        dest: Dest,
        deps: &[Reg],
    ) -> (Reg, Option<Vec<f64>>) {
        assert_eq!(idx.len(), data.len(), "idx/data lane mismatch");
        match dest {
            Dest::Vrf => {
                let out: Vec<f64> = idx
                    .iter()
                    .zip(data)
                    .map(|(&i, &d)| op.apply(self.sspm.read_direct(i as usize), d))
                    .collect();
                let dst = self.push_op(
                    engine,
                    SspmOpClass::DirectAluToVrf,
                    idx.len() as u32,
                    None,
                    deps,
                );
                (dst, Some(out))
            }
            Dest::Sspm { offset } => {
                for (&i, &d) in idx.iter().zip(data) {
                    let pos = i as usize + offset as usize;
                    let old = self.sspm.read_direct(pos);
                    self.sspm.write_direct(pos, op.apply(old, d));
                }
                let dst = self.push_op(
                    engine,
                    SspmOpClass::DirectAluToSspm,
                    idx.len() as u32,
                    write_span(idx, offset),
                    deps,
                );
                (dst, None)
            }
        }
    }

    /// `vldx{add,sub,mult}.c`: CAM-mode ALU instruction.
    ///
    /// * `Dest::Vrf` — index matching: per lane, a CAM hit contributes
    ///   `sspm_value OP data[i]`, a miss contributes `0 OP data[i]`
    ///   (misses read zero, so `mult` yields 0 — exactly the index-matching
    ///   product the SpMM kernel needs).
    /// * `Dest::Sspm { .. }` — merge: a hit updates the stored value in
    ///   place, a miss inserts a new tracked index holding `0 OP data[i]`
    ///   (SpMA's union-merge primitive). The offset is ignored in CAM mode.
    ///
    /// # Panics
    ///
    /// Panics on lane mismatch or CAM overflow when inserting.
    pub fn vldx_alu_c(
        &mut self,
        engine: &mut Engine,
        op: AluOp,
        idx: &[u32],
        data: &[f64],
        dest: Dest,
        deps: &[Reg],
    ) -> (Reg, Option<Vec<f64>>) {
        assert_eq!(idx.len(), data.len(), "idx/data lane mismatch");
        match dest {
            Dest::Vrf => {
                let out: Vec<f64> = idx
                    .iter()
                    .zip(data)
                    .map(|(&i, &d)| op.apply(self.sspm.read_cam(i), d))
                    .collect();
                let dst = self.push_op(engine, SspmOpClass::CamRead, idx.len() as u32, None, deps);
                (dst, Some(out))
            }
            Dest::Sspm { .. } => {
                for (&i, &d) in idx.iter().zip(data) {
                    self.sspm.update_cam(i, |old| op.apply(old, d));
                }
                let dst = self.push_op(engine, SspmOpClass::CamWrite, idx.len() as u32, None, deps);
                (dst, None)
            }
        }
    }

    /// `vldxmult.c` with fused reduction: per lane, the CAM search matches
    /// the index, the fused multiplier forms `sspm_value * data[i]` (zero
    /// on a miss), and the VFU reduction tree sums the lane products into a
    /// scalar — all in one FIVU instruction (paper Figure 4 step 4: "the
    /// values from those indices that match are then multiplied and reduced
    /// in the FUs"). This is the SpMM inner-product primitive.
    ///
    /// Returns the destination register and the reduced dot value.
    ///
    /// # Panics
    ///
    /// Panics on lane mismatch.
    pub fn vldx_dot_c(
        &mut self,
        engine: &mut Engine,
        idx: &[u32],
        data: &[f64],
        deps: &[Reg],
    ) -> (Reg, f64) {
        assert_eq!(idx.len(), data.len(), "idx/data lane mismatch");
        let dot: f64 = idx
            .iter()
            .zip(data)
            .map(|(&i, &d)| self.sspm.read_cam(i) * d)
            .sum();
        let dst = self.push_op(engine, SspmOpClass::CamDot, idx.len() as u32, None, deps);
        (dst, dot)
    }

    /// [`ViaUnit::vldx_dot_c`] with the SSPM as destination: the reduced
    /// dot is *accumulated* into direct-mapped entry `acc_pos` (paper
    /// Figure 4 step 5 — output results accumulate in the scratchpad so no
    /// younger instruction has to consume each partial result). `acc_pos`
    /// should lie above the CAM-owned slots (`cam_entries()`); the SpMM
    /// kernel uses the upper SRAM region for its output row.
    ///
    /// # Panics
    ///
    /// Panics on lane mismatch or an SRAM-exceeding `acc_pos`.
    pub fn vldx_dot_acc_c(
        &mut self,
        engine: &mut Engine,
        idx: &[u32],
        data: &[f64],
        acc_pos: u32,
        deps: &[Reg],
    ) -> Reg {
        assert_eq!(idx.len(), data.len(), "idx/data lane mismatch");
        let dot: f64 = idx
            .iter()
            .zip(data)
            .map(|(&i, &d)| self.sspm.read_cam(i) * d)
            .sum();
        let old = self.sspm.read_direct(acc_pos as usize);
        self.sspm.write_direct(acc_pos as usize, old + dot);
        self.push_op(
            engine,
            SspmOpClass::CamDotAcc,
            idx.len() as u32,
            Some((acc_pos as usize, acc_pos as usize + 1)),
            deps,
        )
    }

    /// `vldxblkmult.d`: the CSB block multiply-accumulate (paper §IV-C).
    /// Each lane's merged in-block index is split at `idx_bits`: the low
    /// bits select the input-vector entry to read, the high bits (plus
    /// `offset`) select the output accumulator:
    ///
    /// ```text
    /// col = idx & ((1 << idx_bits) - 1);   row = idx >> idx_bits
    /// sspm[offset + row] += sspm[col] * data[lane]
    /// ```
    ///
    /// The result always goes to the SSPM ("this instruction has no output
    /// selection").
    ///
    /// # Panics
    ///
    /// Panics on lane mismatch or an SRAM-exceeding index.
    pub fn vldx_blk_mult_d(
        &mut self,
        engine: &mut Engine,
        idx: &[u32],
        data: &[f64],
        idx_bits: u32,
        offset: u32,
        deps: &[Reg],
    ) -> Reg {
        assert_eq!(idx.len(), data.len(), "idx/data lane mismatch");
        let mask = (1u32 << idx_bits) - 1;
        for (&merged, &d) in idx.iter().zip(data) {
            let col = (merged & mask) as usize;
            let row = (merged >> idx_bits) as usize + offset as usize;
            let x = self.sspm.read_direct(col);
            let acc = self.sspm.read_direct(row);
            self.sspm.write_direct(row, acc + x * d);
        }
        let rows: Vec<u32> = idx.iter().map(|&m| (m >> idx_bits) + offset).collect();
        self.push_op(
            engine,
            SspmOpClass::BlockMultiply,
            idx.len() as u32,
            write_span(&rows, 0),
            deps,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use via_sim::{CoreConfig, MemConfig};

    fn setup() -> (Engine, ViaUnit) {
        let engine = Engine::new(
            CoreConfig::default().with_custom_unit(),
            MemConfig::default(),
        );
        let via = ViaUnit::new(ViaConfig::new(4, 2));
        (engine, via)
    }

    #[test]
    fn load_then_mov_direct_round_trips() {
        let (mut e, mut v) = setup();
        v.vldx_load_d(&mut e, &[3, 1, 2], &[30.0, 10.0, 20.0], &[]);
        let mut vals = [0.0; 3];
        v.vldx_mov_d(&mut e, &[1, 2, 3], &[], &mut vals);
        assert_eq!(vals, [10.0, 20.0, 30.0]);
    }

    #[test]
    fn mov_d_of_invalid_entries_is_zero() {
        let (mut e, mut v) = setup();
        v.vldx_load_d(&mut e, &[0], &[5.0], &[]);
        let mut vals = [0.0; 2];
        v.vldx_mov_d(&mut e, &[0, 1], &[], &mut vals);
        assert_eq!(vals, [5.0, 0.0]);
    }

    #[test]
    fn clear_invalidates_direct_entries() {
        let (mut e, mut v) = setup();
        v.vldx_load_d(&mut e, &[0], &[5.0], &[]);
        v.vldx_clear(&mut e);
        let mut vals = [1.0];
        v.vldx_mov_d(&mut e, &[0], &[], &mut vals);
        assert_eq!(vals, [0.0]);
    }

    #[test]
    fn mode_transitions_emit_trace_markers() {
        let (mut e, mut v) = setup();
        e.enable_trace_events(64);
        v.vldx_load_d(&mut e, &[0], &[5.0], &[]); // -> direct
        v.vldx_load_d(&mut e, &[1], &[6.0], &[]); // no transition
        v.vldx_clear(&mut e); // -> cleared
        v.vldx_load_c(&mut e, &[7], &[7.0], &[]); // -> cam
        let markers: Vec<&str> = e
            .trace_events()
            .expect("events enabled")
            .events()
            .filter_map(|ev| match ev {
                via_sim::TraceEvent::Marker { name, .. } => Some(*name),
                _ => None,
            })
            .collect();
        assert_eq!(
            markers,
            vec!["sspm mode: direct", "sspm mode: cleared", "sspm mode: cam"]
        );
    }

    #[test]
    fn cam_load_and_mov_match_indices() {
        let (mut e, mut v) = setup();
        v.vldx_load_c(&mut e, &[100, 200], &[1.0, 2.0], &[]);
        let mut vals = [0.0; 3];
        v.vldx_mov_c(&mut e, &[200, 300, 100], &[], &mut vals);
        assert_eq!(vals, [2.0, 0.0, 1.0]);
        assert_eq!(v.count(), 2);
    }

    #[test]
    fn alu_d_to_vrf_computes() {
        let (mut e, mut v) = setup();
        v.vldx_load_d(&mut e, &[0, 1], &[10.0, 20.0], &[]);
        let (_, out) = v.vldx_alu_d(&mut e, AluOp::Mult, &[0, 1], &[3.0, 0.5], Dest::Vrf, &[]);
        assert_eq!(out.unwrap(), vec![30.0, 10.0]);
    }

    #[test]
    fn alu_d_to_sspm_accumulates_with_offset() {
        let (mut e, mut v) = setup();
        // Accumulate into entries 8 and 9 (offset 8).
        v.vldx_alu_d(
            &mut e,
            AluOp::Add,
            &[0, 1],
            &[1.5, 2.5],
            Dest::Sspm { offset: 8 },
            &[],
        );
        v.vldx_alu_d(
            &mut e,
            AluOp::Add,
            &[0, 1],
            &[1.0, 1.0],
            Dest::Sspm { offset: 8 },
            &[],
        );
        let mut vals = [0.0; 2];
        v.vldx_mov_d(&mut e, &[8, 9], &[], &mut vals);
        assert_eq!(vals, [2.5, 3.5]);
    }

    #[test]
    fn alu_c_to_vrf_is_index_matching_product() {
        let (mut e, mut v) = setup();
        // Row of A: indices 2 and 5 with values 10, 20.
        v.vldx_load_c(&mut e, &[2, 5], &[10.0, 20.0], &[]);
        // Column of B: indices 1, 2, 5 with values 7, 3, 2.
        let (_, out) = v.vldx_alu_c(
            &mut e,
            AluOp::Mult,
            &[1, 2, 5],
            &[7.0, 3.0, 2.0],
            Dest::Vrf,
            &[],
        );
        // Only matching indices contribute: [0*7, 10*3, 20*2].
        assert_eq!(out.unwrap(), vec![0.0, 30.0, 40.0]);
    }

    #[test]
    fn alu_c_to_sspm_merges_like_spma() {
        let (mut e, mut v) = setup();
        v.vldx_load_c(&mut e, &[1, 3], &[1.0, 3.0], &[]);
        // Add row B: index 3 matches (sums), index 9 inserts.
        v.vldx_alu_c(
            &mut e,
            AluOp::Add,
            &[3, 9],
            &[30.0, 90.0],
            Dest::Sspm { offset: 0 },
            &[],
        );
        assert_eq!(v.count(), 3);
        let mut vals = [0.0; 3];
        v.vldx_mov_c(&mut e, &[1, 3, 9], &[], &mut vals);
        assert_eq!(vals, [1.0, 33.0, 90.0]);
    }

    #[test]
    fn count_and_load_idx_read_the_index_table() {
        let (mut e, mut v) = setup();
        v.vldx_load_c(&mut e, &[5, 1, 9], &[0.5, 0.1, 0.9], &[]);
        let (_, n) = v.vldx_count(&mut e);
        assert_eq!(n, 3);
        let mut idx = [0; 3];
        v.vldx_load_idx(&mut e, 0, &mut idx);
        assert_eq!(idx, [5, 1, 9]); // insertion order
        let mut tail = [0; 2];
        v.vldx_load_idx(&mut e, 1, &mut tail);
        assert_eq!(tail, [1, 9]);
    }

    #[test]
    fn blk_mult_splits_merged_indices() {
        let (mut e, mut v) = setup();
        // Input vector chunk x = [2, 4] at entries 0..2; block is 2 wide
        // (idx_bits = 1), outputs at offset 2.
        v.vldx_load_d(&mut e, &[0, 1], &[2.0, 4.0], &[]);
        // Block entries: (r0,c0)=3 → merged 0b00; (r1,c1)=5 → merged 0b11.
        v.vldx_blk_mult_d(&mut e, &[0b00, 0b11], &[3.0, 5.0], 1, 2, &[]);
        let mut out = [0.0; 2];
        v.vldx_mov_d(&mut e, &[2, 3], &[], &mut out);
        // y[0] += x[0]*3 = 6; y[1] += x[1]*5 = 20.
        assert_eq!(out, [6.0, 20.0]);
    }

    #[test]
    fn blk_mult_accumulates_across_calls() {
        let (mut e, mut v) = setup();
        v.vldx_load_d(&mut e, &[0], &[1.0], &[]);
        v.vldx_blk_mult_d(&mut e, &[0], &[2.0], 1, 4, &[]);
        v.vldx_blk_mult_d(&mut e, &[0], &[3.0], 1, 4, &[]);
        let mut out = [0.0];
        v.vldx_mov_d(&mut e, &[4], &[], &mut out);
        assert_eq!(out, [5.0]);
    }

    #[test]
    fn dot_c_reduces_matched_products() {
        let (mut e, mut v) = setup();
        v.vldx_load_c(&mut e, &[2, 5, 9], &[10.0, 20.0, 30.0], &[]);
        let (_, dot) = v.vldx_dot_c(&mut e, &[5, 7, 9], &[2.0, 100.0, 0.5], &[]);
        // 20*2 + miss + 30*0.5 = 55.
        assert_eq!(dot, 55.0);
        let (_, zero) = v.vldx_dot_c(&mut e, &[100, 101], &[1.0, 1.0], &[]);
        assert_eq!(zero, 0.0);
    }

    #[test]
    fn dot_acc_accumulates_in_direct_region() {
        let (mut e, mut v) = setup();
        v.vldx_load_c(&mut e, &[3, 4], &[2.0, 5.0], &[]);
        let acc = v.config().cam_entries() as u32 + 1;
        v.vldx_dot_acc_c(&mut e, &[3, 9], &[10.0, 10.0], acc, &[]);
        v.vldx_dot_acc_c(&mut e, &[4], &[2.0], acc, &[]);
        let mut out = [0.0];
        v.vldx_mov_d(&mut e, &[acc], &[], &mut out);
        // 2*10 + 5*2 = 30.
        assert_eq!(out, [30.0]);
    }

    #[test]
    fn each_instruction_is_one_custom_op() {
        let (mut e, mut v) = setup();
        v.vldx_clear(&mut e);
        v.vldx_load_d(&mut e, &[0], &[1.0], &[]);
        v.vldx_mov_d(&mut e, &[0], &[], &mut [0.0]);
        v.vldx_count(&mut e);
        let stats = e.finish();
        assert_eq!(stats.custom_ops, 4);
        assert_eq!(stats.instructions, 4);
    }

    #[test]
    #[should_panic(expected = "lane mismatch")]
    fn lane_mismatch_panics() {
        let (mut e, mut v) = setup();
        v.vldx_load_d(&mut e, &[0, 1], &[1.0], &[]);
    }

    #[test]
    fn speculative_mode_is_never_slower() {
        // The §IV-E ablation: disabling commit serialization can only help.
        let run = |serialized: bool| {
            let mut cfg = ViaConfig::new(4, 2);
            cfg.commit_serialized = serialized;
            let mut e = Engine::new(
                via_sim::CoreConfig::default().with_custom_unit(),
                via_sim::MemConfig::default(),
            );
            let mut v = ViaUnit::new(cfg);
            for i in 0..64u64 {
                let r = e.load(0x9000 + i * 64, 8);
                v.vldx_load_d(&mut e, &[(i % 16) as u32], &[i as f64], &[r]);
            }
            e.finish().cycles
        };
        assert!(run(false) <= run(true));
    }

    #[test]
    fn illegal_mode_interleave_is_reported() {
        use via_sim::verify;
        // Capture keeps the diagnostics instead of panicking in debug.
        let _guard = verify::capture_guard();
        let (mut e, mut v) = setup();
        v.vldx_load_d(&mut e, &[0], &[1.0], &[]);
        v.vldx_load_c(&mut e, &[5], &[2.0], &[]); // CAM insert over dirty region
        let _ = e.finish();
        let reports = verify::drain_captured();
        assert_eq!(reports.len(), 1);
        assert_eq!(
            reports[0]
                .with_code(verify::DiagCode::SspmModeConflict)
                .len(),
            1,
            "expected a VIA009 diagnostic:\n{}",
            reports[0].render()
        );
    }

    #[test]
    fn deps_are_respected_in_timing() {
        let (mut e, mut v) = setup();
        // A cold load produces the data the VIA op consumes.
        let data = e.load(0xaaa0000, 8);
        let done_dep = v.vldx_load_d(&mut e, &[0], &[1.0], &[data]);
        let _ = done_dep;
        let stats = e.finish();
        assert!(
            stats.cycles > MemConfig::default().dram_latency as u64,
            "VIA op should wait for its data"
        );
    }
}
