//! Cycle-slot calendars for functional-unit and channel scheduling.
//!
//! A pool of `width` identical units is modeled as a calendar mapping cycle
//! → slots booked. An instruction books the earliest cycle ≥ its ready time
//! with a free slot — crucially this lets a *later-pushed* instruction with
//! an *earlier* ready time slip into an earlier slot, which is exactly what
//! an out-of-order scheduler does. (A single "next free time" per unit
//! would falsely serialize independent work behind long-latency dependent
//! chains.)
//!
//! The calendar is a flat array of per-cycle booked counts anchored at a
//! monotonically advancing `base` (the engine prunes history below its
//! fetch frontier, so the live window stays small). Fully-booked cycles
//! carry a *next-free* pointer that is path-compressed on lookup — the
//! union-find "earliest free slot" structure — so booking against a
//! saturated resource (a store port or the DRAM channel at 100 %
//! utilization, where full runs can span millions of cycles) skips the
//! whole run in amortized O(1) instead of one cycle at a time. One booking
//! is two array reads and a write on the common path; the previous
//! `BTreeMap` interval design cost an ordered-map probe *and* a
//! remove+insert per booking, which dominated whole-simulation profiles.

/// A booking calendar for a pool of `width` units.
#[derive(Debug, Clone, Default)]
pub struct Calendar {
    width: u32,
    /// Cycle number of `counts[0]`. Nothing below `base` is tracked; the
    /// caller promises not to book there after a [`Calendar::prune_below`]
    /// (requests are clamped up to `base`).
    base: u64,
    /// Booked slots for cycle `base + i`. Offsets past the end are
    /// implicitly zero.
    counts: Vec<u32>,
    /// For a fully-booked cycle, a forwarding pointer toward the next
    /// cycle with a free slot (path-compressed; strictly increasing, so
    /// chains cannot loop). Meaningless while `counts[i] < width`.
    next: Vec<u32>,
}

impl Calendar {
    /// A calendar for `width` parallel slots per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: u32) -> Self {
        assert!(width > 0, "calendar width must be positive");
        Calendar {
            width,
            base: 0,
            counts: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Number of slots per cycle.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Offset of `t` from `base`, clamping pruned history up to `base`.
    #[inline]
    fn offset(&self, t: u64) -> usize {
        t.saturating_sub(self.base) as usize
    }

    /// The earliest offset ≥ `i` whose cycle has a free slot, following and
    /// halving the next-free chain. Offsets at or past the end of the
    /// window are untouched cycles, hence free.
    #[inline]
    fn find(&mut self, mut i: usize) -> usize {
        let len = self.counts.len();
        while i < len && self.counts[i] == self.width {
            let n = self.next[i] as usize;
            // Path halving: point past the next hop's own forward pointer
            // so repeated lookups through a long run flatten it.
            let hop = if n < len && self.counts[n] == self.width {
                self.next[n] as usize
            } else {
                n
            };
            self.next[i] = hop as u32;
            i = hop;
        }
        i
    }

    /// Grows the window so `off` is indexable. Fresh cycles are empty.
    #[inline]
    fn ensure(&mut self, off: usize) {
        if off >= self.counts.len() {
            self.counts.resize(off + 1, 0);
            self.next.resize(off + 1, 0);
        }
    }

    /// Increments the booked count at `off`, installing the next-free
    /// pointer when the cycle fills.
    #[inline]
    fn bump(&mut self, off: usize) {
        self.ensure(off);
        let c = &mut self.counts[off];
        *c += 1;
        if *c == self.width {
            self.next[off] = (off + 1) as u32;
        }
    }

    /// Books one slot at the earliest cycle ≥ `t`; returns the cycle.
    #[inline]
    pub fn book(&mut self, t: u64) -> u64 {
        let off = self.find(self.offset(t));
        self.bump(off);
        self.base + off as u64
    }

    /// Books `span` *consecutive* cycles (all slots of one unit) starting at
    /// the earliest position ≥ `t`; returns the start cycle. Used for
    /// channel occupancy (e.g. a DRAM line transfer). Partially-booked
    /// cycles inside the window are acceptable (a different unit's slots);
    /// only fully-booked cycles block.
    ///
    /// # Panics
    ///
    /// Panics if `span == 0`.
    pub fn book_span(&mut self, t: u64, span: u64) -> u64 {
        assert!(span > 0, "span must be positive");
        let span = span as usize;
        let mut candidate = self.find(self.offset(t));
        'probe: loop {
            // Scan the window back-to-front: jumping past the *last* full
            // cycle (and its whole run) skips the most ground per retry.
            let lim = (candidate + span).min(self.counts.len());
            let mut i = lim;
            while i > candidate {
                i -= 1;
                if self.counts[i] == self.width {
                    candidate = self.find(i);
                    continue 'probe;
                }
            }
            break;
        }
        for off in candidate..candidate + span {
            self.bump(off);
        }
        self.base + candidate as u64
    }

    /// Drops bookings strictly below `t` (no future booking can land there
    /// once all ready times have passed `t`).
    pub fn prune_below(&mut self, t: u64) {
        if t <= self.base {
            return;
        }
        let k = ((t - self.base) as usize).min(self.counts.len());
        self.counts.drain(..k);
        self.next.drain(..k);
        // Forward pointers are window offsets; rebase the survivors. A full
        // cycle's pointer is ≥ its own offset ≥ k, so this is exact.
        for n in &mut self.next {
            *n = n.saturating_sub(k as u32);
        }
        self.base = t;
    }

    /// Number of distinct booked entries currently held (diagnostic; a
    /// contiguous fully-booked run counts once regardless of length).
    pub fn booked_cycles(&self) -> usize {
        let mut entries = 0;
        let mut in_run = false;
        for &c in &self.counts {
            if c == self.width {
                if !in_run {
                    entries += 1;
                    in_run = true;
                }
            } else {
                in_run = false;
                if c > 0 {
                    entries += 1;
                }
            }
        }
        entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn books_fill_width_then_spill() {
        let mut c = Calendar::new(2);
        assert_eq!(c.book(10), 10);
        assert_eq!(c.book(10), 10);
        assert_eq!(c.book(10), 11);
        assert_eq!(c.book(10), 11);
        assert_eq!(c.book(10), 12);
    }

    #[test]
    fn later_push_can_take_earlier_slot() {
        let mut c = Calendar::new(1);
        assert_eq!(c.book(100), 100); // late dependent op
        assert_eq!(c.book(5), 5); // independent op pushed later still fits early
    }

    #[test]
    fn gaps_are_found() {
        let mut c = Calendar::new(1);
        c.book(3);
        c.book(5);
        assert_eq!(c.book(3), 4);
        assert_eq!(c.book(3), 6);
    }

    #[test]
    fn span_requires_consecutive_room() {
        let mut c = Calendar::new(1);
        c.book(12);
        // A 5-cycle span at t=10 collides with the booking at 12: it must
        // start at 13.
        assert_eq!(c.book_span(10, 5), 13);
        // Next span queues after.
        assert_eq!(c.book_span(10, 5), 18);
    }

    #[test]
    fn span_of_one_behaves_like_book() {
        let mut c = Calendar::new(1);
        assert_eq!(c.book_span(7, 1), 7);
        assert_eq!(c.book_span(7, 1), 8);
    }

    #[test]
    fn span_tolerates_partial_cycles_in_window() {
        let mut c = Calendar::new(2);
        c.book(11); // cycle 11 half-booked
                    // A width-2 calendar still has a free unit through 10..15.
        assert_eq!(c.book_span(10, 5), 10);
    }

    #[test]
    fn full_runs_coalesce_and_skip_in_one_step() {
        let mut c = Calendar::new(1);
        for i in 0..10_000u64 {
            assert_eq!(c.book(0), i, "sequential fill");
        }
        // The whole saturated run reads as a single entry.
        assert_eq!(c.booked_cycles(), 1);
        assert_eq!(c.book(0), 10_000);
    }

    #[test]
    fn saturated_channel_is_fast() {
        // The pathological case that motivated the skip structure: ~200k
        // span bookings against an always-behind request time. Completes
        // in well under a second when run skipping is amortized O(1).
        let mut c = Calendar::new(1);
        let start = std::time::Instant::now();
        let mut expect = 0u64;
        for _ in 0..200_000u64 {
            let got = c.book_span(0, 5);
            assert_eq!(got, expect);
            expect += 5;
        }
        assert!(
            start.elapsed().as_secs_f64() < 5.0,
            "saturated booking took {:?}",
            start.elapsed()
        );
        assert_eq!(c.booked_cycles(), 1);
    }

    #[test]
    fn prune_discards_history_but_keeps_future() {
        let mut c = Calendar::new(1);
        c.book(1);
        c.book(100);
        c.prune_below(50);
        assert_eq!(c.booked_cycles(), 1);
        // Cycle 1 is forgotten; bookings below the prune point clamp up to
        // it (we promise never to ask below the prune point in real use).
        assert_eq!(c.book(100), 101);
    }

    #[test]
    fn prune_keeps_straddling_run_tail() {
        let mut c = Calendar::new(1);
        c.book_span(0, 100); // full run [0, 100)
        c.prune_below(50);
        // Cycles 50..100 must still read as booked.
        assert_eq!(c.book(50), 100);
    }

    #[test]
    fn interleaved_books_and_spans_stay_consistent() {
        let mut c = Calendar::new(1);
        let a = c.book_span(0, 3); // [0,3)
        let b = c.book(1); // → 3
        let d = c.book_span(0, 2); // → [4,6)
        assert_eq!((a, b, d), (0, 3, 4));
        assert_eq!(c.book(0), 6);
    }

    #[test]
    fn prune_then_rebook_respects_rebased_window() {
        // Regression for the offset-rebasing in prune_below: pointers must
        // survive the window shifting under them.
        let mut c = Calendar::new(1);
        c.book_span(10, 20); // full run [10, 30)
        c.book(40);
        c.prune_below(15);
        assert_eq!(c.book(12), 30); // clamped to 15, run tail still booked
        assert_eq!(c.book(40), 41);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_panics() {
        Calendar::new(0);
    }
}
