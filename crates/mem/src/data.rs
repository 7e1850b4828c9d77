//! Byte-addressable functional memory, used to check that every
//! disambiguation backend preserves sequential semantics.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Page granularity: 4 KiB, the sweet spot between page-table sparsity
/// and per-access locality for the suite's working sets.
const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
/// Words in a page's written-byte bitmask.
const MASK_WORDS: usize = PAGE_SIZE / 64;

/// One 4 KiB page: dense storage plus a written-byte bitmask.
///
/// Unwritten bytes are zero in `bytes` by construction (pages are
/// zero-initialized and only mutated through writes), so two pages with
/// equal masks compare by a straight `bytes` comparison.
#[derive(Clone, Debug)]
struct Page {
    bytes: Box<[u8; PAGE_SIZE]>,
    written: Box<[u64; MASK_WORDS]>,
    /// Bytes written in this page (population count of `written`).
    count: usize,
}

impl Page {
    fn new() -> Self {
        Self {
            bytes: Box::new([0; PAGE_SIZE]),
            written: Box::new([0; MASK_WORDS]),
            count: 0,
        }
    }
}

/// Hashes page numbers for the page map: one multiply-and-fold instead
/// of SipHash on every memory access. Page numbers come from the
/// simulator, not from an adversary, so SipHash's flooding resistance
/// buys nothing here. Deterministic across processes; the map's
/// iteration order stays unspecified.
#[derive(Clone, Copy, Debug, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        // Fibonacci hashing, folded so that the low bits (the bucket
        // index) depend on every bit of the page number.
        let x = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = x ^ (x >> 32);
    }
}

type PageMap = HashMap<u64, Page, BuildHasherDefault<PageHasher>>;

/// Sparse byte-addressable memory. Unwritten bytes read as zero.
///
/// This is the *functional* half of the simulator: the timing models decide
/// *when* accesses happen, while `DataMemory` records *what* they produce,
/// so tests can compare the final state (and every load's value) against an
/// in-order reference execution.
///
/// Storage is paged: a `HashMap` of 4 KiB pages, so the per-access cost is
/// one page lookup plus a dense slice read/write instead of the per-*byte*
/// hash probes of the old `HashMap<u64, u8>` layout — memory ops are the
/// engine's innermost loop. A per-page written-byte bitmask preserves the
/// old semantics exactly: `footprint` counts distinct written bytes, and
/// equality distinguishes a written zero from an unwritten byte.
#[derive(Clone, Debug, Default)]
pub struct DataMemory {
    pages: PageMap,
    footprint: usize,
}

impl DataMemory {
    /// An empty (all-zero) memory.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads `size` bytes (1–8) at `addr`, little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `size` is 0 or greater than 8.
    #[must_use]
    pub fn read(&self, addr: u64, size: u8) -> u64 {
        assert!((1..=8).contains(&size), "size must be 1..=8");
        let off = (addr % PAGE_SIZE as u64) as usize;
        if off + size as usize <= PAGE_SIZE {
            // Fast path: the access stays inside one page.
            let Some(page) = self.pages.get(&(addr >> PAGE_SHIFT)) else {
                return 0;
            };
            let mut v = 0u64;
            for i in (0..size as usize).rev() {
                v = (v << 8) | u64::from(page.bytes[off + i]);
            }
            return v;
        }
        // Page-straddling (or address-wrapping) access: per byte.
        let mut v = 0u64;
        for i in (0..size).rev() {
            let a = addr.wrapping_add(u64::from(i));
            let b = self
                .pages
                .get(&(a >> PAGE_SHIFT))
                .map_or(0, |p| p.bytes[(a % PAGE_SIZE as u64) as usize]);
            v = (v << 8) | u64::from(b);
        }
        v
    }

    /// Writes the low `size` bytes (1–8) of `value` at `addr`,
    /// little-endian.
    ///
    /// # Panics
    ///
    /// Panics if `size` is 0 or greater than 8.
    pub fn write(&mut self, addr: u64, size: u8, value: u64) {
        assert!((1..=8).contains(&size), "size must be 1..=8");
        let off = (addr % PAGE_SIZE as u64) as usize;
        if off + size as usize <= PAGE_SIZE {
            let page = self
                .pages
                .entry(addr >> PAGE_SHIFT)
                .or_insert_with(Page::new);
            for i in 0..size as usize {
                page.bytes[off + i] = (value >> (8 * i)) as u8;
                let (w, bit) = ((off + i) / 64, (off + i) % 64);
                if page.written[w] & (1 << bit) == 0 {
                    page.written[w] |= 1 << bit;
                    page.count += 1;
                    self.footprint += 1;
                }
            }
            return;
        }
        for i in 0..size {
            let a = addr.wrapping_add(u64::from(i));
            let page = self.pages.entry(a >> PAGE_SHIFT).or_insert_with(Page::new);
            let o = (a % PAGE_SIZE as u64) as usize;
            page.bytes[o] = (value >> (8 * i)) as u8;
            let (w, bit) = (o / 64, o % 64);
            if page.written[w] & (1 << bit) == 0 {
                page.written[w] |= 1 << bit;
                page.count += 1;
                self.footprint += 1;
            }
        }
    }

    /// Number of bytes ever written.
    #[must_use]
    pub fn footprint(&self) -> usize {
        self.footprint
    }

    /// Iterates over `(address, byte)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u8)> + '_ {
        self.pages.iter().flat_map(|(&pno, page)| {
            (0..PAGE_SIZE)
                .filter(|&o| page.written[o / 64] & (1 << (o % 64)) != 0)
                .map(move |o| ((pno << PAGE_SHIFT) + o as u64, page.bytes[o]))
        })
    }
}

impl PartialEq for DataMemory {
    /// Content equality over *written* bytes: same written-byte set, same
    /// values. A byte written as zero differs from an unwritten byte,
    /// exactly as it did when storage was a per-byte map.
    fn eq(&self, other: &Self) -> bool {
        if self.footprint != other.footprint {
            return false;
        }
        // Footprints match, so every written byte of `other` must be
        // accounted for by a matching page here (unmatched pages would
        // leave the totals unequal).
        self.pages
            .iter()
            .all(|(pno, p)| match other.pages.get(pno) {
                Some(q) => p.written == q.written && p.bytes == q.bytes,
                None => p.count == 0,
            })
    }
}

impl Eq for DataMemory {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut m = DataMemory::new();
        m.write(0x100, 8, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read(0x100, 8), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read(0x100, 4), 0x89ab_cdef);
        assert_eq!(m.read(0x104, 4), 0x0123_4567);
        assert_eq!(m.read(0x100, 1), 0xef);
    }

    #[test]
    fn unwritten_reads_zero() {
        let m = DataMemory::new();
        assert_eq!(m.read(0xdead, 8), 0);
    }

    #[test]
    fn partial_overwrite() {
        let mut m = DataMemory::new();
        m.write(0, 8, u64::MAX);
        m.write(2, 2, 0);
        assert_eq!(m.read(0, 8), 0xffff_ffff_0000_ffff);
    }

    #[test]
    fn footprint_counts_bytes() {
        let mut m = DataMemory::new();
        m.write(0, 8, 1);
        m.write(4, 8, 1); // overlaps 4 bytes
        assert_eq!(m.footprint(), 12);
    }

    #[test]
    fn equality_is_content_based() {
        let mut a = DataMemory::new();
        let mut b = DataMemory::new();
        a.write(0, 4, 0xaabbccdd);
        b.write(0, 2, 0xccdd);
        b.write(2, 2, 0xaabb);
        assert_eq!(a, b);
    }

    #[test]
    fn page_straddling_write_reads_back() {
        let mut m = DataMemory::new();
        let addr = (1 << PAGE_SHIFT) - 3; // 3 bytes in page 0, 5 in page 1
        m.write(addr, 8, 0x0807_0605_0403_0201);
        assert_eq!(m.read(addr, 8), 0x0807_0605_0403_0201);
        assert_eq!(m.footprint(), 8);
        assert_eq!(m.read(1 << PAGE_SHIFT, 1), 0x04);
    }

    #[test]
    fn written_zero_differs_from_unwritten() {
        let mut a = DataMemory::new();
        let b = DataMemory::new();
        a.write(64, 1, 0);
        assert_eq!(a.read(64, 1), b.read(64, 1));
        assert_ne!(a, b);
        assert_eq!(a.footprint(), 1);
    }

    #[test]
    fn iter_yields_written_bytes() {
        let mut m = DataMemory::new();
        m.write(5, 2, 0xbbaa);
        let mut pairs: Vec<_> = m.iter().collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(5, 0xaa), (6, 0xbb)]);
    }

    #[test]
    #[should_panic(expected = "1..=8")]
    fn oversized_read_panics() {
        let m = DataMemory::new();
        let _ = m.read(0, 9);
    }
}
