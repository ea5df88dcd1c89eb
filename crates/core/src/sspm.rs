//! The Smart Scratchpad Memory — functional model (paper §IV-A).
//!
//! Three building blocks (Figure 5):
//!
//! 1. **SRAM cells** — the value storage;
//! 2. **valid bitmap** — per-entry written-before indicator used in
//!    direct-mapped mode (reads of unwritten entries return zero; clears are
//!    flash-zeroed);
//! 3. **index tracking logic** — the CAM functionality: an index table
//!    (storage cells + parallel comparators, banked by 8 with clock gating
//!    driven by the element-count register), in-order insertion logic, and
//!    the element-count register itself.

use crate::config::{ViaConfig, CAM_BANK_SIZE};
/// Event counters used by the energy model (one count per hardware event).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SspmEvents {
    /// SRAM entry reads.
    pub sram_reads: u64,
    /// SRAM entry writes.
    pub sram_writes: u64,
    /// CAM searches (one per probing index).
    pub cam_searches: u64,
    /// CAM insertions (new tracked indices).
    pub cam_inserts: u64,
    /// Index-table bank activations across all searches (banks holding no
    /// tracked indices are clock-gated, §IV-A).
    pub bank_activations: u64,
    /// Flash-clear operations.
    pub clears: u64,
}

/// The functional SSPM: values, valid bitmap, and CAM index table.
///
/// Invariants: `count() <= config().cam_entries()`; tracked indices are
/// unique; in CAM mode, tracked index `i` (insertion order) owns SRAM entry
/// `i`.
#[derive(Debug, Clone)]
pub struct Sspm {
    config: ViaConfig,
    sram: Vec<f64>,
    valid: Vec<bool>,
    /// Tracked indices in insertion order (the index table storage cells).
    cam: Vec<u32>,
    /// Simulator-side acceleration of the parallel comparator array: maps a
    /// tracked index to its slot in O(1). The hardware compares all banks
    /// in parallel; this map only speeds up the *simulation* of that
    /// single-cycle search and has no timing meaning.
    lookup: std::collections::HashMap<u32, usize>,
    events: SspmEvents,
}

impl Sspm {
    /// An empty SSPM with the given geometry.
    pub fn new(config: ViaConfig) -> Self {
        Sspm {
            sram: vec![0.0; config.entries()],
            valid: vec![false; config.entries()],
            cam: Vec::with_capacity(config.cam_entries()),
            lookup: std::collections::HashMap::with_capacity(config.cam_entries()),
            config,
            events: SspmEvents::default(),
        }
    }

    /// The geometry.
    pub fn config(&self) -> &ViaConfig {
        &self.config
    }

    /// Event counters accumulated so far.
    pub fn events(&self) -> SspmEvents {
        self.events
    }

    /// The element-count register (number of tracked CAM indices).
    pub fn count(&self) -> usize {
        self.cam.len()
    }

    /// Whether entry `idx` has been written since the last clear.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is outside the SRAM.
    pub fn is_valid(&self, idx: usize) -> bool {
        self.valid[idx]
    }

    // ---- direct-mapped mode (paper §III-B1) -----------------------------

    /// Direct-mapped write: `sram[idx] = value`, set valid bit.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= entries()` — kernels are responsible for mapping
    /// their working set into the scratchpad (the hardware index is only
    /// `log2(entries)` bits wide).
    pub fn write_direct(&mut self, idx: usize, value: f64) {
        assert!(
            idx < self.sram.len(),
            "SSPM index {idx} out of {} entries",
            self.sram.len()
        );
        self.sram[idx] = value;
        self.valid[idx] = true;
        self.events.sram_writes += 1;
    }

    /// Direct-mapped read: the stored value if the valid bit is set, else
    /// zero (paper §IV-A "Reading in direct-mapped mode").
    ///
    /// # Panics
    ///
    /// Panics if `idx >= entries()`.
    pub fn read_direct(&mut self, idx: usize) -> f64 {
        assert!(
            idx < self.sram.len(),
            "SSPM index {idx} out of {} entries",
            self.sram.len()
        );
        self.events.sram_reads += 1;
        if self.valid[idx] {
            self.sram[idx]
        } else {
            0.0
        }
    }

    // ---- CAM mode (paper §III-B2) ---------------------------------------

    fn cam_probe(&mut self, idx: u32) -> Option<usize> {
        self.events.cam_searches += 1;
        // Clock gating: only banks holding tracked indices activate.
        let active_banks = self.cam.len().div_ceil(CAM_BANK_SIZE);
        self.events.bank_activations += active_banks as u64;
        self.lookup.get(&idx).copied()
    }

    /// CAM write (paper §IV-A "Writing in CAM-based mode"): search first;
    /// on a hit the SRAM value is updated, on a miss the insertion logic
    /// appends the index in order and writes the value to the matching SRAM
    /// slot. Returns the SRAM slot used.
    ///
    /// # Panics
    ///
    /// Panics if a miss occurs while the index table is full — kernels must
    /// segment rows longer than `cam_entries()` (the same capacity limit
    /// the real hardware has).
    pub fn write_cam(&mut self, idx: u32, value: f64) -> usize {
        match self.cam_probe(idx) {
            Some(slot) => {
                self.sram[slot] = value;
                self.events.sram_writes += 1;
                slot
            }
            None => self.insert_cam(idx, value),
        }
    }

    /// CAM read-modify-write: `sram[slot] = f(old, ...)` on a hit; on a
    /// miss, inserts `f(0.0)` — this is the accumulate-or-insert primitive
    /// behind `vldxadd.c` with SSPM destination (SpMA's merge).
    ///
    /// # Panics
    ///
    /// Same capacity condition as [`Sspm::write_cam`].
    pub fn update_cam(&mut self, idx: u32, f: impl FnOnce(f64) -> f64) -> usize {
        match self.cam_probe(idx) {
            Some(slot) => {
                self.events.sram_reads += 1;
                let old = self.sram[slot];
                self.sram[slot] = f(old);
                self.events.sram_writes += 1;
                slot
            }
            None => self.insert_cam(idx, f(0.0)),
        }
    }

    fn insert_cam(&mut self, idx: u32, value: f64) -> usize {
        assert!(
            self.cam.len() < self.config.cam_entries(),
            "CAM index table overflow: {} entries (kernels must segment \
             rows longer than the index table)",
            self.config.cam_entries()
        );
        let slot = self.cam.len();
        self.cam.push(idx);
        self.lookup.insert(idx, slot);
        self.sram[slot] = value;
        self.valid[slot] = true;
        self.events.cam_inserts += 1;
        self.events.sram_writes += 1;
        slot
    }

    /// CAM read (paper §IV-A "Reading in CAM-based mode"): search; on a hit
    /// the matching SRAM value, else zero.
    pub fn read_cam(&mut self, idx: u32) -> f64 {
        match self.cam_probe(idx) {
            Some(slot) => {
                self.events.sram_reads += 1;
                self.sram[slot]
            }
            None => 0.0,
        }
    }

    /// The tracked index at insertion position `pos` (what `vldxloadidx`
    /// reads out).
    ///
    /// # Panics
    ///
    /// Panics if `pos >= count()`.
    pub fn tracked_index(&self, pos: usize) -> u32 {
        self.cam[pos]
    }

    // ---- clear (paper §IV-C vldxclear) ----------------------------------

    /// Flash-clears the whole valid bitmap, the index table, and the
    /// element-count register.
    pub fn clear(&mut self) {
        self.valid.iter_mut().for_each(|v| *v = false);
        self.cam.clear();
        self.lookup.clear();
        self.events.clears += 1;
    }

    /// Flash-clears a segment `[start, start + len)` of the valid bitmap
    /// (the index table is cleared whole, like the hardware's single-cycle
    /// clear).
    ///
    /// # Panics
    ///
    /// Panics if the segment exceeds the SRAM.
    pub fn clear_segment(&mut self, start: usize, len: usize) {
        assert!(start + len <= self.valid.len(), "segment out of range");
        self.valid[start..start + len]
            .iter_mut()
            .for_each(|v| *v = false);
        self.cam.clear();
        self.lookup.clear();
        self.events.clears += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Sspm {
        Sspm::new(ViaConfig::new(4, 2)) // 512 entries, 128 CAM entries
    }

    #[test]
    fn direct_read_of_unwritten_is_zero() {
        let mut s = small();
        assert_eq!(s.read_direct(7), 0.0);
        s.write_direct(7, 3.5);
        assert_eq!(s.read_direct(7), 3.5);
        assert!(s.is_valid(7));
        assert!(!s.is_valid(8));
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn direct_write_out_of_range_panics() {
        small().write_direct(512, 1.0);
    }

    #[test]
    fn clear_resets_valid_but_not_cells() {
        let mut s = small();
        s.write_direct(3, 9.0);
        s.clear();
        // Valid bit cleared ⇒ reads return zero even though the cell holds 9.
        assert_eq!(s.read_direct(3), 0.0);
    }

    #[test]
    fn clear_segment_only_clears_range() {
        let mut s = small();
        s.write_direct(1, 1.0);
        s.write_direct(100, 2.0);
        s.clear_segment(0, 50);
        assert_eq!(s.read_direct(1), 0.0);
        assert_eq!(s.read_direct(100), 2.0);
    }

    #[test]
    fn cam_insert_search_read() {
        let mut s = small();
        assert_eq!(s.read_cam(42), 0.0);
        s.write_cam(42, 1.5);
        s.write_cam(7, 2.5);
        assert_eq!(s.count(), 2);
        assert_eq!(s.read_cam(42), 1.5);
        assert_eq!(s.read_cam(7), 2.5);
        assert_eq!(s.read_cam(99), 0.0);
    }

    #[test]
    fn cam_write_hit_updates_in_place() {
        let mut s = small();
        let slot1 = s.write_cam(42, 1.0);
        let slot2 = s.write_cam(42, 2.0);
        assert_eq!(slot1, slot2);
        assert_eq!(s.count(), 1);
        assert_eq!(s.read_cam(42), 2.0);
    }

    #[test]
    fn cam_insertion_is_in_order() {
        let mut s = small();
        s.write_cam(30, 1.0);
        s.write_cam(10, 2.0);
        s.write_cam(20, 3.0);
        assert_eq!(s.tracked_index(0), 30);
        assert_eq!(s.tracked_index(1), 10);
        assert_eq!(s.tracked_index(2), 20);
    }

    #[test]
    fn update_cam_accumulates_or_inserts() {
        let mut s = small();
        s.update_cam(5, |old| old + 10.0);
        assert_eq!(s.read_cam(5), 10.0);
        s.update_cam(5, |old| old + 2.0);
        assert_eq!(s.read_cam(5), 12.0);
        assert_eq!(s.count(), 1);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn cam_overflow_panics() {
        let mut s = small();
        for i in 0..=128u32 {
            s.write_cam(i, 1.0);
        }
    }

    #[test]
    fn clear_empties_cam() {
        let mut s = small();
        s.write_cam(1, 1.0);
        s.clear();
        assert_eq!(s.count(), 0);
        assert_eq!(s.read_cam(1), 0.0);
    }

    #[test]
    fn events_are_counted() {
        let mut s = small();
        s.write_direct(0, 1.0);
        s.read_direct(0);
        s.write_cam(9, 1.0); // search + insert + sram write
        s.read_cam(9); // search + sram read
        s.clear();
        let ev = s.events();
        assert_eq!(ev.sram_writes, 2); // direct write + cam insert write
        assert_eq!(ev.sram_reads, 2);
        assert_eq!(ev.cam_searches, 2);
        assert_eq!(ev.cam_inserts, 1);
        assert_eq!(ev.clears, 1);
    }

    #[test]
    fn bank_activations_scale_with_count() {
        let mut s = small();
        // Empty CAM: a search activates zero banks.
        s.read_cam(1);
        assert_eq!(s.events().bank_activations, 0);
        // 9 tracked indices span two 8-entry banks.
        for i in 0..9u32 {
            s.write_cam(i, 1.0);
        }
        let before = s.events().bank_activations;
        s.read_cam(0);
        assert_eq!(s.events().bank_activations - before, 2);
    }

    #[test]
    fn cam_slot_owns_sram_entry() {
        let mut s = small();
        let slot = s.write_cam(77, 4.5);
        assert_eq!(slot, 0);
        // The CAM slot's SRAM entry is marked valid and readable directly.
        assert!(s.is_valid(0));
        assert_eq!(s.read_direct(0), 4.5);
    }
}
