//! Engine edge cases: back-pressure on the host CQ, QoS releases into a
//! paused SSD, unbind racing in-flight I/O, and the tagged PRP lists the
//! engine builds in chip memory.

use bm_nvme::command::{IoOpcode, Sqe};
use bm_nvme::queue::DoorbellLayout;
use bm_nvme::types::{Cid, Lba, Nsid, QueueId};
use bm_nvme::{Status, SubmissionQueue};
use bm_pcie::memory::PAGE_SIZE;
use bm_pcie::{DmaContext, FunctionId, HostMemory, PciAddr};
use bm_sim::{SimDuration, SimTime};
use bm_ssd::SsdId;
use bmstore_core::engine::dma_routing::GlobalPrp;
use bmstore_core::engine::qos::QosLimit;
use bmstore_core::engine::{BmsEngine, EngineAction, EngineConfig, Placement};

fn fid(i: u8) -> FunctionId {
    FunctionId::new(i).unwrap()
}

/// Engine with one bound+enabled function and a registered I/O queue of
/// `entries` slots; returns the host-side SQ view.
fn rig(entries: u16) -> (BmsEngine, HostMemory, SubmissionQueue) {
    let mut engine = BmsEngine::new(EngineConfig::paper_default(2));
    let mut host = HostMemory::new(1 << 30);
    engine
        .bind_namespace(fid(0), 256 << 30, Placement::Single(SsdId(0)))
        .unwrap();
    engine.set_function_enabled(fid(0), true);
    let sq_base = host.alloc(entries as u64 * 64).unwrap();
    let cq_base = host.alloc(entries as u64 * 16).unwrap();
    engine
        .function_mut(fid(0))
        .create_io_cq(QueueId(1), cq_base, entries);
    engine
        .function_mut(fid(0))
        .create_io_sq(QueueId(1), sq_base, entries);
    let host_sq = SubmissionQueue::new(QueueId(1), sq_base, entries);
    (engine, host, host_sq)
}

fn read_sqe(cid: u16) -> Sqe {
    Sqe::io(
        IoOpcode::Read,
        Cid(cid),
        Nsid::new(1).unwrap(),
        Lba(cid as u64 * 8),
        1,
        PciAddr::new(0x100_0000),
        PciAddr::NULL,
    )
}

#[test]
fn host_cq_backpressure_rejects_delivery_until_consumed() {
    let (mut engine, mut host, _) = rig(4);
    // Post 3 completions (capacity of a 4-entry ring) without the host
    // consuming; the 4th delivery must be refused, not lost.
    for i in 0..3u16 {
        assert!(engine.deliver_host_completion(
            fid(0),
            QueueId(1),
            Cid(i),
            Status::Success,
            &mut host,
        ));
    }
    assert!(
        !engine.deliver_host_completion(fid(0), QueueId(1), Cid(9), Status::Success, &mut host),
        "full host CQ must refuse delivery"
    );
    // Host consumes one entry and rings the CQ doorbell.
    let _ = engine.host_doorbell_write(
        SimTime::ZERO,
        fid(0),
        DoorbellLayout::cq_head_offset(QueueId(1)),
        1,
        &mut host,
    );
    assert!(engine.deliver_host_completion(fid(0), QueueId(1), Cid(9), Status::Success, &mut host));
}

#[test]
fn qos_release_into_paused_ssd_lands_in_backlog() {
    let (mut engine, mut host, mut host_sq) = rig(64);
    engine.set_qos_limit(fid(0), QosLimit::iops(100.0));
    // Burst = 10 tokens: push 12 commands; 2 defer.
    for i in 0..12u16 {
        host_sq.push(&mut host, &read_sqe(i)).unwrap();
    }
    let actions = engine.host_doorbell_write(
        SimTime::ZERO,
        fid(0),
        DoorbellLayout::sq_tail_offset(QueueId(1)),
        12,
        &mut host,
    );
    let deferred = actions
        .iter()
        .filter(|a| matches!(a, EngineAction::QosWakeup { .. }))
        .count();
    assert_eq!(deferred, 2);
    // Pause the SSD, then let the QoS dispatcher release: the commands
    // must buffer, not forward.
    engine.pause_ssd(SsdId(0));
    let late = SimTime::ZERO + SimDuration::from_secs(1);
    let actions = engine.qos_wakeup(late, &mut host);
    assert!(
        actions
            .iter()
            .all(|a| !matches!(a, EngineAction::BackendDoorbell { .. })),
        "paused SSD must not receive doorbells"
    );
    assert_eq!(engine.save_io_context(SsdId(0)).buffered, 2);
    // Resume flushes both: two commands pushed at the same instant
    // coalesce into one doorbell carrying the final tail.
    let actions = engine.resume_ssd(late + SimDuration::from_ms(1), SsdId(0), &mut host);
    let tails: Vec<u32> = actions
        .iter()
        .filter_map(|a| match a {
            EngineAction::BackendDoorbell { tail, .. } => Some(*tail),
            _ => None,
        })
        .collect();
    assert_eq!(tails, [12], "one coalesced ring sweeping both commands");
}

#[test]
fn unbind_after_forwarding_still_completes_inflight() {
    let (mut engine, mut host, mut host_sq) = rig(64);
    host_sq.push(&mut host, &read_sqe(1)).unwrap();
    let actions = engine.host_doorbell_write(
        SimTime::ZERO,
        fid(0),
        DoorbellLayout::sq_tail_offset(QueueId(1)),
        1,
        &mut host,
    );
    assert!(matches!(
        actions[0],
        EngineAction::BackendDoorbell { ssd: SsdId(0), .. }
    ));
    // Management unbinds while the command is at the SSD.
    assert!(engine.unbind_namespace(fid(0)));
    // The SSD completes; fetch its view and post a CQE by hand.
    let (mut ssd_sq, mut ssd_cq) = engine.ssd_rings(SsdId(0));
    ssd_sq.doorbell_tail(1).unwrap();
    let mut router_mem = HostMemory::new(1 << 20);
    let fetched = {
        let mut router = engine.dma_router(&mut router_mem);
        ssd_sq.fetch(&mut router).unwrap().unwrap()
    };
    {
        let mut router = engine.dma_router(&mut router_mem);
        ssd_cq
            .post(
                &mut router,
                bm_nvme::Cqe::success(fetched.cid, QueueId(1), ssd_sq.head(), false),
            )
            .unwrap();
    }
    let (actions, _) = engine.on_backend_completion(SimTime::ZERO, SsdId(0), &mut host);
    // The tenant still gets its completion for the in-flight command.
    assert!(matches!(
        actions[0],
        EngineAction::HostCompletion {
            cid: Cid(1),
            status: Status::Success,
            ..
        }
    ));
    // New I/O after the unbind is rejected as an invalid namespace.
    host_sq.push(&mut host, &read_sqe(2)).unwrap();
    let actions = engine.host_doorbell_write(
        SimTime::ZERO,
        fid(0),
        DoorbellLayout::sq_tail_offset(QueueId(1)),
        2,
        &mut host,
    );
    assert!(matches!(
        actions[0],
        EngineAction::HostCompletion {
            status: Status::InvalidNamespace,
            ..
        }
    ));
}

#[test]
fn disabled_function_drops_dma_but_enabled_routes() {
    let (mut engine, _, _) = rig(16);
    let mut host = HostMemory::new(1 << 20);
    let page = host.alloc(4096).unwrap();
    host.write(page, b"tenant-data");
    let tagged = GlobalPrp::tag(page, fid(0), false);
    {
        let mut router = engine.dma_router(&mut host);
        let mut buf = [0u8; 11];
        router.dma_read(tagged, &mut buf);
        assert_eq!(&buf, b"tenant-data");
    }
    // The operator disables the function: in-flight tags no longer route.
    engine.set_function_enabled(fid(0), false);
    {
        let mut router = engine.dma_router(&mut host);
        let mut buf = [0xFFu8; 11];
        router.dma_read(tagged, &mut buf);
        assert_eq!(&buf, &[0u8; 11], "dropped TLP returns zeros");
    }
    assert_eq!(engine.routing_stats().dropped, 1);
}

#[test]
fn multiple_io_queues_on_one_function_stay_independent() {
    let (mut engine, mut host, mut sq1) = rig(16);
    // The driver creates a second I/O queue pair (qid=2).
    let sq2_base = host.alloc(16 * 64).unwrap();
    let cq2_base = host.alloc(16 * 16).unwrap();
    assert!(engine
        .function_mut(fid(0))
        .create_io_cq(QueueId(2), cq2_base, 16));
    assert!(engine
        .function_mut(fid(0))
        .create_io_sq(QueueId(2), sq2_base, 16));
    let mut sq2 = SubmissionQueue::new(QueueId(2), sq2_base, 16);

    sq1.push(&mut host, &read_sqe(1)).unwrap();
    sq2.push(&mut host, &read_sqe(2)).unwrap();
    let a1 = engine.host_doorbell_write(
        SimTime::ZERO,
        fid(0),
        DoorbellLayout::sq_tail_offset(QueueId(1)),
        1,
        &mut host,
    );
    let a2 = engine.host_doorbell_write(
        SimTime::ZERO,
        fid(0),
        DoorbellLayout::sq_tail_offset(QueueId(2)),
        1,
        &mut host,
    );
    assert!(matches!(a1[0], EngineAction::BackendDoorbell { .. }));
    assert!(matches!(a2[0], EngineAction::BackendDoorbell { .. }));

    // Complete both through the back end; each lands on its own queue.
    let (mut ssd_sq, mut ssd_cq) = engine.ssd_rings(SsdId(0));
    ssd_sq.doorbell_tail(2).unwrap();
    let mut scratch = HostMemory::new(1 << 20);
    for _ in 0..2 {
        let fetched = {
            let mut router = engine.dma_router(&mut scratch);
            ssd_sq.fetch(&mut router).unwrap().unwrap()
        };
        let mut router = engine.dma_router(&mut scratch);
        ssd_cq
            .post(
                &mut router,
                bm_nvme::Cqe::success(fetched.cid, QueueId(1), ssd_sq.head(), false),
            )
            .unwrap();
    }
    let (actions, _) = engine.on_backend_completion(SimTime::ZERO, SsdId(0), &mut host);
    let mut qids: Vec<u16> = actions
        .iter()
        .filter_map(|a| match a {
            EngineAction::HostCompletion { qid, .. } => Some(qid.0),
            _ => None,
        })
        .collect();
    qids.sort_unstable();
    assert_eq!(qids, vec![1, 2], "each completion routed to its queue");
    // Queue deletion works and further doorbells to it are ignored.
    assert!(engine.function_mut(fid(0)).delete_io_queue(QueueId(2)));
    let none = engine.host_doorbell_write(
        SimTime::ZERO,
        fid(0),
        DoorbellLayout::sq_tail_offset(QueueId(2)),
        1,
        &mut host,
    );
    assert!(none.is_empty());
}

/// First block of the second 64 GiB mapping chunk.
const CHUNK_EDGE: u64 = (64 << 30) / PAGE_SIZE;

/// Forwards one `blocks`-block read at `slba` and checks every
/// back-end command's chip-memory PRP list against the per-entry
/// reference walk over `pages` (the host page of each block), and the
/// host/chip traffic against what the per-entry build moved: one 8-byte
/// host read and one 8-byte chip write per list entry.
fn check_prp_lists(slba: u64, blocks: u32, contiguous: bool) {
    let (mut engine, mut host, mut host_sq) = rig(16);
    let data = host.alloc(blocks as u64 * PAGE_SIZE).unwrap();
    // Scattered: the host list names the buffer's pages in reverse, so
    // the list walk and the contiguous fallback disagree.
    let pages: Vec<PciAddr> = (0..blocks as u64)
        .map(|b| match (b, contiguous) {
            (_, true) | (0, false) => data + b * PAGE_SIZE,
            (_, false) => data + (blocks as u64 - b) * PAGE_SIZE,
        })
        .collect();
    let prp2 = if contiguous {
        PciAddr::NULL
    } else {
        let list = host.alloc(PAGE_SIZE).unwrap();
        for (i, p) in pages[1..].iter().enumerate() {
            host.write_u64(list + i as u64 * 8, p.raw());
        }
        list
    };
    let sqe = Sqe::io(
        IoOpcode::Read,
        Cid(7),
        Nsid::new(1).unwrap(),
        Lba(slba),
        blocks,
        pages[0],
        prp2,
    );
    host_sq.push(&mut host, &sqe).unwrap();
    let (host_read, chip_written) = (host.bytes_read(), engine.chip_memory().bytes_written());
    let actions = engine.host_doorbell_write(
        SimTime::ZERO,
        fid(0),
        DoorbellLayout::sq_tail_offset(QueueId(1)),
        1,
        &mut host,
    );
    let tail = actions
        .iter()
        .find_map(|a| match a {
            EngineAction::BackendDoorbell { tail, .. } => Some(*tail),
            _ => None,
        })
        .expect("command forwarded");
    let host_read = host.bytes_read() - host_read;
    let chip_written = engine.chip_memory().bytes_written() - chip_written;

    let (mut ssd_sq, _) = engine.ssd_rings(SsdId(0));
    ssd_sq.doorbell_tail(tail).unwrap();
    let mut scratch = HostMemory::new(1 << 20);
    let mut router = engine.dma_router(&mut scratch);
    let (mut block_off, mut want_host, mut want_chip) = (0u64, 64u64, 0u64);
    while let Some(be) = ssd_sq.fetch(&mut router).unwrap() {
        let n = be.nlb_blocks() as u64;
        want_chip += 64;
        if block_off > 0 && !contiguous {
            want_host += 8; // the span's PRP1, read by the SQE rewrite
        }
        assert!(n > 2, "every span carries a list");
        let mut got = vec![0u8; (n as usize - 1) * 8];
        router.dma_read(be.prp2, &mut got);
        let want: Vec<u8> = (1..n)
            .flat_map(|i| {
                let page = pages[(block_off + i) as usize];
                GlobalPrp::tag(page, fid(0), false).raw().to_le_bytes()
            })
            .collect();
        assert_eq!(got, want, "span at block {block_off}");
        if !contiguous {
            want_host += (n - 1) * 8;
        }
        want_chip += (n - 1) * 8;
        block_off += n;
    }
    assert_eq!(block_off, blocks as u64, "spans cover the transfer");
    assert_eq!(host_read, want_host, "host bytes read");
    assert_eq!(chip_written, want_chip, "chip bytes written");
}

#[test]
fn prp_list_of_a_32_block_read_matches_per_entry_walk() {
    check_prp_lists(64, 32, false);
}

#[test]
fn prp_lists_of_a_read_split_at_a_chunk_boundary_match_per_entry_walk() {
    // 10 blocks before the boundary, 22 after: the second span's list
    // starts at block offset 10 of the host list.
    check_prp_lists(CHUNK_EDGE - 10, 32, false);
}

#[test]
fn prp_list_of_a_contiguous_null_prp2_read_matches_per_entry_walk() {
    check_prp_lists(64, 8, true);
}
