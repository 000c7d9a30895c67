//! Simulated physical memory.
//!
//! Every DMA in the repository moves real bytes through a [`HostMemory`],
//! so data-integrity properties (the zero-copy DMA routing path in
//! particular) are testable end to end: write a pattern from the "host",
//! let the simulated SSD DMA it out and back, and compare checksums.
//!
//! Memory is stored as sparse 4 KiB pages behind a two-level radix
//! table: a top-level vector indexed by `page >> 9` points at leaves of
//! 512 slots (one leaf spans 2 MiB of address space), each slot naming
//! its page's frame in a pool of resident pages. Resolving an address is
//! three array indexings, so the DMA hot path is O(1) per page rather
//! than a tree search. Untouched pages read as zero and cost nothing.
//! The top level starts empty and grows to the highest touched 2 MiB
//! region, one pointer each: creating any memory allocates nothing, and
//! a 768 GB host touching its last page would carry a 3 MiB top level.
//! Each touched 2 MiB region adds one 2 KiB leaf, and each resident page
//! one pool entry, on top of the page itself.

use crate::addr::PciAddr;
use std::fmt;

/// Page granularity of the sparse store (matches the x86 page size the
/// NVMe PRP mechanism is built around).
pub const PAGE_SIZE: u64 = 4096;

/// log2 of the page slots per leaf of the radix table.
const LEAF_BITS: u32 = 9;
/// Page slots per leaf (a leaf spans 2 MiB of address space).
const LEAF_PAGES: usize = 1 << LEAF_BITS;

type Page = Box<[u8; PAGE_SIZE as usize]>;

/// One second-level node of the page table: per page, 1 + the index of
/// its frame in `HostMemory::frames`, or 0 while it is untouched.
type Leaf = [u32; LEAF_PAGES];

/// Sparse byte-addressable memory with a bump allocator.
///
/// # Examples
///
/// ```
/// use bm_pcie::HostMemory;
///
/// let mut mem = HostMemory::new(1 << 20);
/// let a = mem.alloc(8192).unwrap();
/// mem.write(a, &[1, 2, 3]);
/// assert_eq!(mem.read_vec(a, 3), vec![1, 2, 3]);
/// // Untouched bytes read as zero.
/// assert_eq!(mem.read_vec(a + 3, 2), vec![0, 0]);
/// ```
pub struct HostMemory {
    size: u64,
    /// Top level of the page table, indexed by `page >> LEAF_BITS`;
    /// grown on demand up to the highest touched leaf.
    leaves: Vec<Option<Box<Leaf>>>,
    /// Resident pages in first-touch order.
    frames: Vec<Page>,
    next_alloc: u64,
    bytes_written: u64,
    bytes_read: u64,
}

impl fmt::Debug for HostMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HostMemory")
            .field("size", &self.size)
            .field("resident_pages", &self.frames.len())
            .field("next_alloc", &self.next_alloc)
            .finish()
    }
}

impl HostMemory {
    /// Creates a memory of `size` bytes. Allocation starts at one page to
    /// keep [`PciAddr::NULL`] unmapped.
    ///
    /// # Panics
    ///
    /// Panics if `size` is smaller than two pages, or so large that its
    /// page count does not fit in a `u32` (16 TiB).
    pub fn new(size: u64) -> Self {
        assert!(size >= 2 * PAGE_SIZE, "memory too small");
        assert!(size / PAGE_SIZE < u32::MAX as u64, "memory too large");
        HostMemory {
            size,
            leaves: Vec::new(),
            frames: Vec::new(),
            next_alloc: PAGE_SIZE,
            bytes_written: 0,
            bytes_read: 0,
        }
    }

    /// Total addressable size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Allocates `len` bytes, page-aligned, or `None` if the region is
    /// exhausted. (A bump allocator is all the simulation needs: regions
    /// live for the whole run.)
    pub fn alloc(&mut self, len: u64) -> Option<PciAddr> {
        let len = len.max(1).div_ceil(PAGE_SIZE) * PAGE_SIZE;
        if self.next_alloc.checked_add(len)? > self.size {
            return None;
        }
        let addr = PciAddr::new(self.next_alloc);
        self.next_alloc += len;
        Some(addr)
    }

    /// Writes `data` starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the end of memory.
    pub fn write(&mut self, addr: PciAddr, data: &[u8]) {
        self.check_range(addr, data.len() as u64);
        self.bytes_written += data.len() as u64;
        let mut offset = addr.raw();
        let mut remaining = data;
        while !remaining.is_empty() {
            let page_idx = offset / PAGE_SIZE;
            let in_page = (offset % PAGE_SIZE) as usize;
            let n = remaining.len().min(PAGE_SIZE as usize - in_page);
            let page = self.page_mut(page_idx);
            page[in_page..in_page + n].copy_from_slice(&remaining[..n]);
            remaining = &remaining[n..];
            offset += n as u64;
        }
    }

    /// Reads `buf.len()` bytes starting at `addr` into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the end of memory.
    pub fn read(&mut self, addr: PciAddr, buf: &mut [u8]) {
        self.check_range(addr, buf.len() as u64);
        self.bytes_read += buf.len() as u64;
        let mut offset = addr.raw();
        let mut remaining = &mut buf[..];
        while !remaining.is_empty() {
            let page_idx = offset / PAGE_SIZE;
            let in_page = (offset % PAGE_SIZE) as usize;
            let n = remaining.len().min(PAGE_SIZE as usize - in_page);
            match self.page(page_idx) {
                Some(page) => remaining[..n].copy_from_slice(&page[in_page..in_page + n]),
                None => remaining[..n].fill(0),
            }
            remaining = &mut remaining[n..];
            offset += n as u64;
        }
    }

    /// Reads `len` bytes into a fresh vector.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the end of memory.
    pub fn read_vec(&mut self, addr: PciAddr, len: u64) -> Vec<u8> {
        let mut buf = vec![0u8; len as usize];
        self.read(addr, &mut buf);
        buf
    }

    /// Reads a little-endian `u64` (the representation of queue entries,
    /// PRP pointers, and doorbell values in simulated memory).
    pub fn read_u64(&mut self, addr: PciAddr) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: PciAddr, value: u64) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&mut self, addr: PciAddr) -> u32 {
        let mut b = [0u8; 4];
        self.read(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: PciAddr, value: u32) {
        self.write(addr, &value.to_le_bytes());
    }

    /// A FNV-1a checksum of `len` bytes at `addr` — used by integrity
    /// tests to compare data across DMA hops without copying it again.
    pub fn checksum(&mut self, addr: PciAddr, len: u64) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let data = self.read_vec(addr, len);
        for b in data {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x1000_0000_01b3);
        }
        hash
    }

    /// Bytes written so far (DMA traffic accounting).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Bytes read so far (DMA traffic accounting).
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Number of resident (touched) pages.
    pub fn resident_pages(&self) -> usize {
        self.frames.len()
    }

    /// The resident page `page_idx`, if it was ever written.
    fn page(&self, page_idx: u64) -> Option<&Page> {
        let leaf = self
            .leaves
            .get((page_idx >> LEAF_BITS) as usize)?
            .as_deref()?;
        match leaf[page_idx as usize & (LEAF_PAGES - 1)] {
            0 => None,
            frame => Some(&self.frames[frame as usize - 1]),
        }
    }

    /// The page `page_idx`, made resident (zero-filled) on first touch.
    fn page_mut(&mut self, page_idx: u64) -> &mut Page {
        let top = (page_idx >> LEAF_BITS) as usize;
        if top >= self.leaves.len() {
            self.leaves.resize_with(top + 1, || None);
        }
        let leaf = self.leaves[top].get_or_insert_with(|| Box::new([0; LEAF_PAGES]));
        let slot = &mut leaf[page_idx as usize & (LEAF_PAGES - 1)];
        if *slot == 0 {
            self.frames.push(Box::new([0u8; PAGE_SIZE as usize]));
            // Fits: `new` bounds the page count, hence the frame count,
            // below `u32::MAX`.
            *slot = self.frames.len() as u32;
        }
        &mut self.frames[*slot as usize - 1]
    }

    fn check_range(&self, addr: PciAddr, len: u64) {
        let end = addr
            .raw()
            .checked_add(len)
            .unwrap_or_else(|| panic!("address overflow at {addr}"));
        assert!(
            end <= self.size,
            "access [{addr}, {:#x}) beyond memory size {:#x}",
            end,
            self.size
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_filled_until_written() {
        let mut mem = HostMemory::new(1 << 20);
        let a = mem.alloc(4096).unwrap();
        assert_eq!(mem.read_vec(a, 16), vec![0; 16]);
        assert_eq!(mem.resident_pages(), 0);
        mem.write(a, &[0xff]);
        assert_eq!(mem.resident_pages(), 1);
        assert_eq!(mem.read_vec(a, 2), vec![0xff, 0x00]);
    }

    #[test]
    fn cross_page_write_and_read() {
        let mut mem = HostMemory::new(1 << 20);
        let a = mem.alloc(3 * PAGE_SIZE).unwrap();
        let data: Vec<u8> = (0..(2 * PAGE_SIZE + 100))
            .map(|i| (i % 251) as u8)
            .collect();
        let start = a + (PAGE_SIZE - 50);
        mem.write(start, &data);
        assert_eq!(mem.read_vec(start, data.len() as u64), data);
    }

    #[test]
    fn alloc_is_page_aligned_and_bounded() {
        let mut mem = HostMemory::new(8 * PAGE_SIZE);
        let a = mem.alloc(1).unwrap();
        assert_eq!(a.raw() % PAGE_SIZE, 0);
        let b = mem.alloc(PAGE_SIZE + 1).unwrap();
        assert_eq!(b.raw(), a.raw() + PAGE_SIZE);
        // Exhaust: 1 (reserved) + 1 + 2 pages used, 4 remain.
        assert!(mem.alloc(4 * PAGE_SIZE).is_some());
        assert!(mem.alloc(1).is_none());
    }

    #[test]
    fn u64_and_u32_round_trip() {
        let mut mem = HostMemory::new(1 << 20);
        let a = mem.alloc(64).unwrap();
        mem.write_u64(a, 0xdead_beef_cafe_f00d);
        assert_eq!(mem.read_u64(a), 0xdead_beef_cafe_f00d);
        mem.write_u32(a + 8, 0x1234_5678);
        assert_eq!(mem.read_u32(a + 8), 0x1234_5678);
    }

    #[test]
    fn checksum_detects_changes() {
        let mut mem = HostMemory::new(1 << 20);
        let a = mem.alloc(4096).unwrap();
        mem.write(a, b"some payload");
        let c1 = mem.checksum(a, 4096);
        mem.write(a + 5, b"X");
        let c2 = mem.checksum(a, 4096);
        assert_ne!(c1, c2);
    }

    #[test]
    fn traffic_accounting() {
        let mut mem = HostMemory::new(1 << 20);
        let a = mem.alloc(4096).unwrap();
        mem.write(a, &[0u8; 100]);
        let _ = mem.read_vec(a, 40);
        assert_eq!(mem.bytes_written(), 100);
        assert_eq!(mem.bytes_read(), 40);
    }

    #[test]
    #[should_panic(expected = "beyond memory size")]
    fn out_of_bounds_write_panics() {
        let mut mem = HostMemory::new(2 * PAGE_SIZE);
        mem.write(PciAddr::new(2 * PAGE_SIZE - 1), &[0, 0]);
    }

    #[test]
    fn large_host_starts_with_nothing_resident() {
        let mut mem = HostMemory::new(8 << 30);
        assert_eq!(mem.resident_pages(), 0);
        // The last page of an 8 GiB host reads as zero and stays
        // untouched; writing it makes exactly one page resident.
        let last = PciAddr::new((8 << 30) - PAGE_SIZE);
        assert_eq!(mem.read_vec(last, 8), vec![0; 8]);
        assert_eq!(mem.resident_pages(), 0);
        mem.write(last, &[7]);
        assert_eq!(mem.resident_pages(), 1);
        assert_eq!(mem.read_vec(last, 1), vec![7]);
    }

    #[test]
    #[should_panic(expected = "memory too large")]
    fn page_count_past_u32_is_rejected() {
        HostMemory::new(1 << 44);
    }

    #[test]
    #[should_panic(expected = "beyond memory size")]
    fn out_of_bounds_read_panics() {
        let mut mem = HostMemory::new(8 << 30);
        let mut buf = [0u8; 8];
        mem.read(PciAddr::new((8 << 30) - 4), &mut buf);
    }
}
