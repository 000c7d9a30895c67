//! Allocation budget for the event-loop hot path.
//!
//! Two claims, measured with `bm-prof`'s counting global allocator
//! (the same one the profiler uses for per-scope attribution):
//!
//! 1. Pure scheduler churn — non-capturing (zero-sized) actions being
//!    scheduled and fired in steady state — performs **zero** heap
//!    allocations: the timer wheel recycles arena nodes through its
//!    free list, boxing a ZST closure is free, and batch/slot vectors
//!    stop growing after warm-up.
//! 2. A steady-state BM-Store 4K-random-read window grows the
//!    scheduler's node arena by **zero** slots: every event entry is
//!    recycled, so scheduler-entry allocations are warm-up-only.
//! 3. Large I/O costs no more heap allocations per I/O than small I/O:
//!    in steady state a 128 KiB sequential read (31-entry PRP lists on
//!    both sides of the engine) allocates no more per completed I/O
//!    than a 4 KiB random read.
//!
//! Everything lives in one `#[test]` so the measured windows run on one
//! thread, and the counting allocator is **thread-scoped**: only the
//! thread that armed it bumps the counter. The libtest harness (or any
//! other runtime thread) waking up mid-window therefore cannot register
//! as a false positive, so the windows need no retries.

use std::cell::RefCell;
use std::rc::Rc;

use bmstore::prof::alloc::{self, CountingAlloc};
use bmstore::sim::stats::IoStats;
use bmstore::sim::{SimDuration, SimTime, Simulation};
use bmstore::testbed::{Testbed, TestbedConfig, World};
use bmstore::workloads::fio::{FioJob, FioSpec};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

struct Ticks(u64);

/// A self-rescheduling zero-sized action: the increment varies with the
/// tick count so successive events land in different wheel slots and
/// levels, exercising placement, cascade and recycling.
fn chain(w: &mut Ticks, s: &mut bmstore::sim::Scheduler<Ticks>) {
    w.0 += 1;
    let step = 501 + (w.0 % 7) * 9_777;
    s.schedule_in(SimDuration::from_nanos(step), chain);
}

fn pure_scheduler_steady_state_is_allocation_free() {
    let mut sim = Simulation::new(Ticks(0));
    // A standing population of 64 chains at staggered offsets.
    for i in 0..64u64 {
        sim.schedule_in(SimDuration::from_nanos(100 + i * 37), chain);
    }
    // Warm-up: size the arena, slot lists and batch buffer.
    while sim.world().0 < 5_000 {
        assert!(sim.step(), "chains keep the queue non-empty");
    }
    // Counting is thread-scoped, so one window suffices: anything the
    // counter sees was allocated by this thread's event loop.
    let before = alloc::events();
    while sim.world().0 < 55_000 {
        assert!(sim.step(), "chains keep the queue non-empty");
    }
    assert_eq!(
        alloc::events() - before,
        0,
        "steady-state scheduling of ZST actions must not touch the heap"
    );
}

/// Wires `spec` on every device of `cfg` into a world; returns it with
/// the jobs' I/O statistics.
fn wire(cfg: TestbedConfig, spec: FioSpec) -> (World, Vec<Rc<RefCell<IoStats>>>) {
    let seed_base = cfg.seed;
    let mut tb = Testbed::new(cfg);
    let devices = tb.device_count();
    let mut jobs = Vec::new();
    let mut all_stats = Vec::new();
    for d in 0..devices {
        for j in 0..spec.numjobs {
            let stats = Rc::new(RefCell::new(IoStats::new()));
            all_stats.push(Rc::clone(&stats));
            jobs.push(FioJob::new(
                &mut tb,
                bmstore::testbed::DeviceId(d),
                spec,
                j,
                seed_base ^ (0x00F1_0000 + d as u64),
                stats,
                None,
            ));
        }
    }
    let mut world = World::new(tb);
    for job in jobs {
        world.add_client(Box::new(job));
    }
    (world, all_stats)
}

fn bm_store_read_window_does_not_grow_the_arena() {
    // The Fig. 8 bare-metal 4K-random-read rig, scaled down: ramp ends
    // at 12.5 ms, measurement ends at 112.5 ms.
    let (mut world, _) = wire(
        TestbedConfig::bm_store_bare_metal(1),
        FioSpec::rand_r_128().scaled(0.25),
    );
    // Snapshot the scheduler's arena size across the steady-state
    // window (well past ramp-up at 12.5 ms).
    let snaps: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
    for ms in [40u64, 60, 80, 100] {
        let sink = Rc::clone(&snaps);
        world.schedule_action(SimTime::ZERO + SimDuration::from_ms(ms), move |_w, s| {
            sink.borrow_mut().push(s.arena_slots());
        });
    }
    let world = world.run(None);
    let snaps = snaps.borrow();
    assert_eq!(snaps.len(), 4, "all snapshot actions fired");
    assert!(
        snaps.iter().all(|&n| n == snaps[0]),
        "scheduler arena must stop growing in steady state: {snaps:?}"
    );
    assert!(world.events_fired > 0, "the run retired events");
}

/// Heap allocations per completed I/O between simulated times `from`
/// and `to` of a four-SSD bare-metal BM-Store run of `spec`.
fn steady_state_allocs_per_io(spec: FioSpec, from: u64, to: u64) -> f64 {
    let (mut world, stats) = wire(TestbedConfig::bm_store_bare_metal(4), spec);
    let marks: Rc<RefCell<Vec<(u64, u64)>>> = Rc::new(RefCell::new(Vec::with_capacity(2)));
    for ms in [from, to] {
        let (sink, stats) = (Rc::clone(&marks), stats.clone());
        world.schedule_action(SimTime::ZERO + SimDuration::from_ms(ms), move |_w, _s| {
            let ops = stats.iter().map(|s| s.borrow().ops()).sum();
            sink.borrow_mut().push((alloc::events(), ops));
        });
    }
    world.run(None);
    let marks = marks.borrow();
    let [(a0, ops0), (a1, ops1)] = marks[..] else {
        panic!("both window marks fired: {marks:?}");
    };
    assert!(ops1 > ops0, "I/O completed inside the window");
    (a1 - a0) as f64 / (ops1 - ops0) as f64
}

fn large_io_allocates_no_more_per_io_than_small_io() {
    // Windows start well after each run's first completions have
    // recycled every slot (128 KiB reads at QD256 take tens of ms).
    let small = steady_state_allocs_per_io(FioSpec::rand_r_128().scaled(0.05), 5, 15);
    let large = steady_state_allocs_per_io(FioSpec::seq_r_256().scaled(0.1), 100, 200);
    assert!(
        large <= small,
        "128 KiB reads allocate {large:.2}/io, 4 KiB reads {small:.2}/io"
    );
}

#[test]
fn hot_path_allocation_budget() {
    alloc::arm();
    pure_scheduler_steady_state_is_allocation_free();
    bm_store_read_window_does_not_grow_the_arena();
    large_io_allocates_no_more_per_io_than_small_io();
}
