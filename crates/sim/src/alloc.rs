//! A flat simulated address space with a bump allocator.
//!
//! The timing model only needs *addresses* (the kernels compute real values
//! in Rust alongside the instruction stream), so allocation is a simple
//! monotonically increasing bump pointer with alignment. Regions are handed
//! out as [`Region`]s that convert element indices to byte addresses.

/// A contiguous allocated region of the simulated address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    base: u64,
    elem_bytes: u64,
    len: usize,
}

impl Region {
    /// Base byte address.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the region holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Size of one element in bytes.
    pub fn elem_bytes(&self) -> u64 {
        self.elem_bytes
    }

    /// Total size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.elem_bytes * self.len as u64
    }

    /// Byte address of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn addr_of(&self, i: usize) -> u64 {
        assert!(
            i < self.len,
            "element {i} out of region of {} elements",
            self.len
        );
        self.base + self.elem_bytes * i as u64
    }

    /// A sub-region of `count` elements starting at element `start`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the region.
    pub fn slice(&self, start: usize, count: usize) -> Region {
        assert!(start + count <= self.len, "slice out of region");
        Region {
            base: self.base + self.elem_bytes * start as u64,
            elem_bytes: self.elem_bytes,
            len: count,
        }
    }
}

/// Bump allocator over the simulated flat address space.
///
/// Starts at a non-zero base so address 0 is never valid, which catches
/// uninitialized-address bugs in kernel builders. Multi-core sockets give
/// each core a disjoint base ([`AddressSpace::with_base`]) so per-core
/// working sets never alias in a shared last-level cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressSpace {
    base: u64,
    next: u64,
}

impl Default for AddressSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl AddressSpace {
    /// Default base address of the first allocation.
    pub const BASE: u64 = 0x1_0000;

    /// A fresh address space.
    pub fn new() -> Self {
        Self::with_base(Self::BASE)
    }

    /// A fresh address space whose first allocation lands at `base`
    /// (rounded up to the default base if below it, so address 0 stays
    /// invalid).
    pub fn with_base(base: u64) -> Self {
        let base = base.max(Self::BASE);
        AddressSpace { base, next: base }
    }

    /// The first allocatable address of this space.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Allocates `len` elements of `elem_bytes` each, aligned to `align`
    /// bytes.
    ///
    /// # Panics
    ///
    /// Panics if `align` is zero or not a power of two, or `elem_bytes` is
    /// zero.
    pub fn alloc(&mut self, len: usize, elem_bytes: u64, align: u64) -> Region {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        assert!(elem_bytes > 0, "element size must be positive");
        let base = (self.next + align - 1) & !(align - 1);
        self.next = base + elem_bytes * len as u64;
        Region {
            base,
            elem_bytes,
            len,
        }
    }

    /// Allocates `len` 8-byte (f64) elements, cache-line aligned.
    pub fn alloc_f64(&mut self, len: usize) -> Region {
        self.alloc(len, 8, 64)
    }

    /// Allocates `len` 4-byte (u32 index) elements, cache-line aligned.
    pub fn alloc_u32(&mut self, len: usize) -> Region {
        self.alloc(len, 4, 64)
    }

    /// Allocates `len` 8-byte pointer-sized elements, cache-line aligned.
    pub fn alloc_u64(&mut self, len: usize) -> Region {
        self.alloc(len, 8, 64)
    }

    /// Total bytes allocated so far (high-water mark).
    pub fn used_bytes(&self) -> u64 {
        self.next - self.base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_do_not_overlap() {
        let mut a = AddressSpace::new();
        let r1 = a.alloc_f64(10);
        let r2 = a.alloc_u32(7);
        let r1_end = r1.base() + r1.size_bytes();
        assert!(r2.base() >= r1_end);
    }

    #[test]
    fn alignment_is_respected() {
        let mut a = AddressSpace::new();
        let _ = a.alloc(3, 1, 1);
        let r = a.alloc_f64(4);
        assert_eq!(r.base() % 64, 0);
    }

    #[test]
    fn addr_of_indexes_elements() {
        let mut a = AddressSpace::new();
        let r = a.alloc_u32(8);
        assert_eq!(r.addr_of(3), r.base() + 12);
    }

    #[test]
    #[should_panic(expected = "out of region")]
    fn addr_of_checks_bounds() {
        let mut a = AddressSpace::new();
        let r = a.alloc_f64(2);
        let _ = r.addr_of(2);
    }

    #[test]
    fn slice_offsets_correctly() {
        let mut a = AddressSpace::new();
        let r = a.alloc_f64(16);
        let s = r.slice(4, 8);
        assert_eq!(s.base(), r.addr_of(4));
        assert_eq!(s.len(), 8);
        assert_eq!(s.addr_of(0), r.addr_of(4));
    }

    #[test]
    #[should_panic(expected = "slice out of region")]
    fn slice_checks_bounds() {
        let mut a = AddressSpace::new();
        let r = a.alloc_f64(4);
        let _ = r.slice(2, 3);
    }

    #[test]
    fn used_bytes_tracks_high_water() {
        let mut a = AddressSpace::new();
        assert_eq!(a.used_bytes(), 0);
        a.alloc_f64(8);
        assert!(a.used_bytes() >= 64);
    }

    #[test]
    fn base_is_nonzero() {
        let mut a = AddressSpace::new();
        let r = a.alloc_f64(1);
        assert!(r.base() >= AddressSpace::BASE);
    }

    #[test]
    fn with_base_offsets_allocations() {
        let mut a = AddressSpace::with_base(1 << 32);
        let r = a.alloc_f64(4);
        assert_eq!(r.base(), 1 << 32);
        assert_eq!(a.used_bytes(), 32);
    }

    #[test]
    fn with_base_clamps_to_default_minimum() {
        // Address 0 must stay invalid regardless of the requested base.
        let a = AddressSpace::with_base(0);
        assert_eq!(a.base(), AddressSpace::BASE);
    }

    #[test]
    fn default_base_matches_new() {
        assert_eq!(AddressSpace::new(), AddressSpace::with_base(0));
        assert_eq!(AddressSpace::new().base(), AddressSpace::BASE);
    }
}
