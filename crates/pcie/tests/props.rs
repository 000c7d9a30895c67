//! Property tests: memory semantics and MCTP framing under arbitrary
//! inputs.

use std::collections::BTreeMap;

use bm_pcie::mctp::{Assembler, Eid, MctpMessage, MctpPacket, MessageType, BASELINE_MTU};
use bm_pcie::memory::PAGE_SIZE;
use bm_pcie::{HostMemory, PciAddr};
use proptest::prelude::*;

/// Reference model of [`HostMemory`]: the plain ordered page map the
/// radix table replaced, with the same traffic counters.
#[derive(Default)]
struct RefMemory {
    pages: BTreeMap<u64, Vec<u8>>,
    bytes_read: u64,
    bytes_written: u64,
}

impl RefMemory {
    fn write(&mut self, addr: u64, data: &[u8]) {
        self.bytes_written += data.len() as u64;
        for (i, b) in data.iter().enumerate() {
            let a = addr + i as u64;
            let page = self
                .pages
                .entry(a / PAGE_SIZE)
                .or_insert_with(|| vec![0; PAGE_SIZE as usize]);
            page[(a % PAGE_SIZE) as usize] = *b;
        }
    }

    fn read(&mut self, addr: u64, len: usize) -> Vec<u8> {
        self.bytes_read += len as u64;
        (addr..addr + len as u64)
            .map(|a| {
                self.pages
                    .get(&(a / PAGE_SIZE))
                    .map_or(0, |p| p[(a % PAGE_SIZE) as usize])
            })
            .collect()
    }
}

/// Memory size for the page-table model check: past one 2 MiB leaf of
/// the radix table, and not a whole number of leaves.
const MODEL_SIZE: u64 = (5 << 20) + 3 * PAGE_SIZE;

proptest! {
    /// Read-after-write returns exactly what was written, for arbitrary
    /// (possibly page-straddling) ranges.
    #[test]
    fn memory_read_after_write(
        offset in 0u64..20_000,
        data in proptest::collection::vec(any::<u8>(), 1..10_000),
    ) {
        let mut mem = HostMemory::new(1 << 20);
        let base = mem.alloc(64 << 10).unwrap();
        let addr = base + offset;
        mem.write(addr, &data);
        prop_assert_eq!(mem.read_vec(addr, data.len() as u64), data);
    }

    /// Overlapping writes: the later write wins on the overlap.
    #[test]
    fn memory_overlapping_writes(
        a in proptest::collection::vec(any::<u8>(), 100..2_000),
        b in proptest::collection::vec(any::<u8>(), 100..2_000),
        overlap in 0u64..100,
    ) {
        let mut mem = HostMemory::new(1 << 20);
        let base = mem.alloc(16 << 10).unwrap();
        mem.write(base, &a);
        let b_addr = base + (a.len() as u64 - overlap);
        mem.write(b_addr, &b);
        let got = mem.read_vec(b_addr, b.len() as u64);
        prop_assert_eq!(got, b);
        // The prefix of `a` before the overlap is intact.
        let keep = a.len() as u64 - overlap;
        prop_assert_eq!(mem.read_vec(base, keep), a[..keep as usize].to_vec());
    }

    /// Random interleaved reads and writes — many straddling a page or
    /// the 2 MiB leaf boundary of the page table — agree with the
    /// ordered-map reference on bytes, resident pages and traffic.
    #[test]
    fn page_table_matches_reference_model(
        ops in proptest::collection::vec(
            (any::<bool>(), 0u64..4, 0u64..(MODEL_SIZE / PAGE_SIZE), 0u64..PAGE_SIZE, 0usize..9_000, any::<u8>()),
            1..32,
        ),
    ) {
        let mut mem = HostMemory::new(MODEL_SIZE);
        let mut model = RefMemory::default();
        for (is_write, anchor, page, offset, len, fill) in ops {
            // Half the ranges start near a leaf boundary (page 512 or
            // 1024), the rest anywhere; all end inside memory.
            let page = match anchor {
                0 => 511 + page % 2,
                1 => 1023 + page % 2,
                _ => page,
            };
            let addr = (page * PAGE_SIZE + offset).min(MODEL_SIZE - 1);
            let len = len.min((MODEL_SIZE - addr) as usize);
            if is_write {
                let data: Vec<u8> = (0..len).map(|i| fill.wrapping_add(i as u8)).collect();
                mem.write(PciAddr::new(addr), &data);
                model.write(addr, &data);
            } else {
                prop_assert_eq!(mem.read_vec(PciAddr::new(addr), len as u64), model.read(addr, len));
            }
            prop_assert_eq!(mem.resident_pages(), model.pages.len());
            prop_assert_eq!(mem.bytes_read(), model.bytes_read);
            prop_assert_eq!(mem.bytes_written(), model.bytes_written);
        }
    }

    #[test]
    fn checksum_is_content_function(
        data in proptest::collection::vec(any::<u8>(), 1..4_096),
    ) {
        let mut m1 = HostMemory::new(1 << 20);
        let mut m2 = HostMemory::new(1 << 20);
        let a1 = m1.alloc(8 << 10).unwrap();
        let a2 = m2.alloc(8 << 10).unwrap();
        m1.write(a1, &data);
        m2.write(a2, &data);
        prop_assert_eq!(m1.checksum(a1, data.len() as u64), m2.checksum(a2, data.len() as u64));
    }

    /// Any message packetizes into ≤MTU fragments that reassemble to
    /// the identical message, and the wire encoding round-trips.
    #[test]
    fn mctp_round_trips(
        body in proptest::collection::vec(any::<u8>(), 0..4_096),
        src in 8u8..255,
        dest in 8u8..255,
        tag in 0u8..8,
    ) {
        let msg = MctpMessage::new(MessageType::NvmeMi, body);
        let packets = msg.packetize(Eid(src), Eid(dest), tag);
        prop_assert!(packets.iter().all(|p| p.payload.len() <= BASELINE_MTU));
        prop_assert!(packets[0].som);
        prop_assert!(packets.last().unwrap().eom);
        let mut asm = Assembler::new();
        let mut out = None;
        for p in packets {
            let wire = MctpPacket::from_wire(&p.to_wire()).unwrap();
            prop_assert_eq!(&wire, &p);
            if let Some(m) = asm.push(wire).unwrap() {
                out = Some(m);
            }
        }
        prop_assert_eq!(out.unwrap(), msg);
    }

    /// Dropping any single non-terminal packet of a multi-packet
    /// message never yields a (possibly corrupt) completed message.
    #[test]
    fn mctp_loss_never_completes_corrupt(
        body in proptest::collection::vec(any::<u8>(), 128..2_048),
        drop_idx in any::<prop::sample::Index>(),
    ) {
        let msg = MctpMessage::new(MessageType::NvmeMi, body);
        let mut packets = msg.packetize(Eid(9), Eid(8), 0);
        prop_assume!(packets.len() >= 3);
        let idx = drop_idx.index(packets.len() - 1); // never the EOM
        packets.remove(idx);
        let mut asm = Assembler::new();
        for p in packets {
            if let Ok(Some(m)) = asm.push(p) {
                prop_assert_eq!(m, msg.clone(), "only the true message may complete");
            }
        }
    }

    #[test]
    fn page_math_consistent(addr in any::<u64>()) {
        let a = PciAddr::new(addr & ((1 << 48) - 1));
        let base = a.page_base(4096);
        let off = a.page_offset(4096);
        prop_assert_eq!(base.raw() + off, a.raw());
        prop_assert_eq!(base.page_offset(4096), 0);
    }
}
