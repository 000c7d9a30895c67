//! One repetition of a fio workload, timed from outside each call.
//!
//! The rig is wired like `bm_workloads::fio::prepare_fio` (same job
//! seeds, same client order; `tests/contract.rs` checks the outputs are
//! bit-identical), with each job wrapped in a [`Checked`] client that
//! sees every completion's status. `prepare_fio` keeps its world
//! private, so it offers no other way to check statuses. The same
//! wrapper runs the host-speed reference slices of a paced run
//! ([`Rig::run_paced`]); they touch no simulator state.

use crate::speed::Meter;
use crate::stats::Digest;
use bm_sim::stats::IoStats;
use bm_sim::SimTime;
use bm_testbed::{Client, ClientOutput, Completion, DeviceId, Testbed, TestbedConfig, World};
use bm_workloads::fio::{FioJob, FioSpec, SharedStats};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Completions a rig delivered, and how many were not `Success`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    /// Completions delivered to the fio jobs (ramp and drain included).
    pub completions: u64,
    /// Of those, completions whose status was not `Success`.
    pub non_success: u64,
}

/// What the checked jobs of one rig share.
#[derive(Debug, Default)]
struct Shared {
    tally: Tally,
    /// Set for a paced run.
    meter: Option<Meter>,
}

/// A fio job that counts completion statuses before handing each
/// completion on.
struct Checked {
    job: FioJob,
    shared: Rc<RefCell<Shared>>,
}

impl Client for Checked {
    fn start(&mut self, now: SimTime) -> ClientOutput {
        self.job.start(now)
    }

    fn on_completion(&mut self, now: SimTime, c: Completion) -> ClientOutput {
        {
            let mut s = self.shared.borrow_mut();
            s.tally.completions += 1;
            s.tally.non_success += u64::from(!c.status.is_success());
            if let Some(m) = s.meter.as_mut() {
                m.pace();
            }
        }
        self.job.on_completion(now, c)
    }

    fn on_timer(&mut self, now: SimTime) -> ClientOutput {
        self.job.on_timer(now)
    }
}

/// A wired, not yet started fio experiment.
pub struct Rig {
    world: World,
    sinks: Sinks,
}

/// Where a rig's jobs leave their results.
struct Sinks {
    per_device: Vec<Vec<SharedStats>>,
    shared: Rc<RefCell<Shared>>,
    spec: FioSpec,
}

/// Builds the testbed and wires one checked job per device × numjob.
/// Returns the rig and the host seconds `Testbed::new` took.
pub fn wire(cfg: TestbedConfig, spec: FioSpec) -> (Rig, f64) {
    let seed_base = cfg.seed;
    let t = Instant::now();
    let mut tb = Testbed::new(cfg);
    let testbed_new_s = t.elapsed().as_secs_f64();
    let shared = Rc::new(RefCell::new(Shared::default()));
    let mut per_device = Vec::new();
    let mut jobs = Vec::new();
    for d in 0..tb.device_count() {
        let mut sinks = Vec::new();
        for j in 0..spec.numjobs {
            let stats: SharedStats = Rc::new(RefCell::new(IoStats::new()));
            sinks.push(Rc::clone(&stats));
            let job = FioJob::new(
                &mut tb,
                DeviceId(d),
                spec,
                j,
                seed_base ^ (0x00F1_0000 + d as u64),
                stats,
                None,
            );
            jobs.push(Checked {
                job,
                shared: Rc::clone(&shared),
            });
        }
        per_device.push(sinks);
    }
    let mut world = World::new(tb);
    for job in jobs {
        world.add_client(Box::new(job));
    }
    let rig = Rig {
        world,
        sinks: Sinks {
            per_device,
            shared,
            spec,
        },
    };
    (rig, testbed_new_s)
}

/// Simulated outputs of one device's measured window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceResult {
    /// Completions in the measured window.
    pub ops: u64,
    /// IOPS over the measured window.
    pub iops: f64,
    /// Mean, p50, p99 and p99.9 latency in ns.
    pub latency_ns: [u64; 4],
}

/// What one finished rig produced.
pub struct Finished {
    /// The world after the run, for layer counters.
    pub world: World,
    /// Per-device measured-window results.
    pub devices: Vec<DeviceResult>,
    /// Completion statuses.
    pub tally: Tally,
    /// Mean latency over every device's measured window, µs.
    pub mean_latency_us: f64,
}

impl Finished {
    /// Measured-window completions over all devices.
    pub fn measured_ios(&self) -> u64 {
        self.devices.iter().map(|d| d.ops).sum()
    }

    /// Digest of the I/O outputs alone: per-device ops, IOPS bits and
    /// latency percentiles, plus the completion tally. Observability
    /// that adds scheduler events (the metrics sampler) leaves it
    /// unchanged.
    pub fn io_digest(&self) -> u64 {
        let mut d = Digest::default();
        for r in &self.devices {
            d.word(r.ops).float(r.iops);
            for ns in r.latency_ns {
                d.word(ns);
            }
        }
        d.word(self.tally.completions).word(self.tally.non_success);
        d.value()
    }

    /// Full digest: [`Finished::io_digest`] plus `events_fired`.
    pub fn digest(&self) -> u64 {
        Digest::default()
            .word(self.io_digest())
            .word(self.world.events_fired)
            .value()
    }
}

impl Rig {
    /// Runs the event loop to drain; returns the finished rig and the
    /// host seconds `World::run` took. With `count_allocs`,
    /// `bm_prof::alloc` counting is armed around `World::run` only.
    pub fn run(self, count_allocs: bool) -> (Finished, f64) {
        if count_allocs {
            bm_prof::alloc::arm();
        }
        let t = Instant::now();
        let world = self.world.run(None);
        let run_s = t.elapsed().as_secs_f64();
        bm_prof::alloc::disarm();
        self.sinks.finish(world, run_s)
    }

    /// Like `run(false)`, with `meter` pacing host-speed reference
    /// slices from inside `World::run` ([`Meter::pace`]). The host
    /// seconds returned leave the slices out.
    pub fn run_paced(self, meter: &mut Meter) -> (Finished, f64) {
        let shared = Rc::clone(&self.sinks.shared);
        shared.borrow_mut().meter = Some(std::mem::take(meter));
        let t = Instant::now();
        let world = self.world.run(None);
        let elapsed = t.elapsed().as_secs_f64();
        let mut paced = shared.borrow_mut().meter.take().unwrap_or_default();
        let run_s = elapsed - paced.take_paced_s();
        *meter = paced;
        self.sinks.finish(world, run_s)
    }
}

impl Sinks {
    fn finish(self, world: World, run_s: f64) -> (Finished, f64) {
        let mut all = IoStats::new();
        let devices = self
            .per_device
            .iter()
            .map(|sinks| {
                let mut total = IoStats::new();
                for s in sinks {
                    total.merge(&s.borrow());
                }
                all.merge(&total);
                let h = total.latency();
                DeviceResult {
                    ops: total.ops(),
                    iops: total.iops(self.spec.runtime),
                    latency_ns: [
                        h.mean().as_nanos(),
                        h.percentile(0.50).as_nanos(),
                        h.percentile(0.99).as_nanos(),
                        h.percentile(0.999).as_nanos(),
                    ],
                }
            })
            .collect();
        let finished = Finished {
            world,
            devices,
            tally: self.shared.borrow().tally,
            mean_latency_us: all.latency().mean().as_micros_f64(),
        };
        (finished, run_s)
    }
}
