//! Host-speed reference: scales host-time metrics to a nominal host.
//!
//! On a shared host the same code runs up to twice as fast in one
//! second as in the next: other tenants contend for the core's caches,
//! memory bandwidth and sibling hyperthread. Plain ALU loops barely
//! notice (about 5%); allocation-heavy, branchy code like the simulator
//! does. So the harness runs a fixed reference event loop, written here
//! and never touched by changes to the simulator, in short slices
//! between the units of work it times, and every [`SLICE_INTERVAL_S`]
//! from inside a long `World::run` (its time then taken off the run's),
//! so the slices sample the host's speed while the work runs. A host time measured while the
//! reference slices took `r` seconds on average is scaled by [`NOMINAL_SLICE_S`]
//! `/ r`: the time the work would have taken on a host that runs the
//! reference at its nominal speed. Throughputs scale the other way.
//!
//! The reference is a miniature discrete-event loop — a binary-heap
//! timer queue over a few hundred pending events, each a boxed closure
//! owning a small heap buffer, mutating a 512 KiB state array — because
//! its slow-down under contention tracks the simulator's (log-log slope
//! close to 1 against the chaos campaign, correlation 0.97 over
//! 0.7-second windows), where an ALU or pointer-chasing loop tracks it
//! only loosely (correlation about 0.7).

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Events one reference slice retires.
pub const SLICE_EVENTS: u64 = 20_000;

/// Timer-queue depth the reference keeps.
const PENDING: u64 = 256;

/// Host seconds one slice takes at the nominal speed: the median slice
/// time on an uncontended 2-vCPU Xeon (Sapphire Rapids) KVM guest. It
/// only fixes the scale of the reported numbers.
pub const NOMINAL_SLICE_S: f64 = 0.002;

type Event = Box<dyn FnOnce(&mut [u64]) -> u64>;

fn event(x: u64) -> Event {
    let payload = Box::new([x, x.rotate_left(17), x ^ 0x9e37_79b9, x >> 3]);
    Box::new(move |state: &mut [u64]| {
        let i = (payload[0] as usize) % state.len();
        state[i] = state[i].wrapping_add(payload[1]);
        state[i] ^ payload[2] ^ payload[3]
    })
}

/// Runs one slice of the reference loop and returns its host seconds.
pub fn slice() -> f64 {
    let t = Instant::now();
    let mut queue: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut slots: Vec<Option<Event>> = Vec::new();
    let mut state = vec![0u64; 1 << 16];
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    for i in 0..PENDING {
        slots.push(Some(event(i)));
        queue.push(Reverse((i * 31 % 1000, i as usize)));
    }
    let mut acc = 0u64;
    for _ in 0..SLICE_EVENTS {
        let Some(Reverse((at, slot))) = queue.pop() else {
            break;
        };
        if let Some(f) = slots[slot].take() {
            acc ^= f(&mut state);
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        slots[slot] = Some(event(x));
        queue.push(Reverse((at + x % 997, slot)));
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64()
}

/// Slices [`Meter::new`] runs and discards: the first slices of a
/// process pay page faults and cold caches.
const WARM_UP_SLICES: usize = 8;

/// Host seconds of work between two slices that [`Meter::pace`] runs
/// from inside a long timed call.
pub const SLICE_INTERVAL_S: f64 = 0.05;

/// [`Meter::pace`] reads the clock once per this many calls.
const PACE_CHECK_EVERY: u64 = 64;

/// The reference slices run during one measurement.
#[derive(Debug, Default, Clone)]
pub struct Meter {
    slices: Vec<f64>,
    last: Option<Instant>,
    calls: u64,
    paced_s: f64,
}

impl Meter {
    /// A meter with no slices recorded, after its warm-up slices.
    pub fn new() -> Meter {
        for _ in 0..WARM_UP_SLICES {
            slice();
        }
        Meter::default()
    }

    /// Runs one slice, records its time and returns it.
    pub fn sample(&mut self) -> f64 {
        let s = slice();
        self.slices.push(s);
        self.last = Some(Instant::now());
        s
    }

    /// Called often from inside a long timed call (per completion):
    /// runs a slice once [`SLICE_INTERVAL_S`] have passed since the last
    /// one, so the slices sample the host's speed all through the call.
    /// [`Meter::take_paced_s`] gives the time to take off the call's.
    pub fn pace(&mut self) {
        self.calls += 1;
        if !self.calls.is_multiple_of(PACE_CHECK_EVERY) {
            return;
        }
        if self
            .last
            .is_none_or(|t| t.elapsed().as_secs_f64() >= SLICE_INTERVAL_S)
        {
            self.paced_s += self.sample();
        }
    }

    /// Host seconds of the slices [`Meter::pace`] ran since the last
    /// call.
    pub fn take_paced_s(&mut self) -> f64 {
        std::mem::take(&mut self.paced_s)
    }

    /// Slices recorded so far; pass to [`Meter::factor`] to cover the
    /// slices from here on.
    pub fn mark(&self) -> usize {
        self.slices.len()
    }

    /// Factor that scales a host time measured while the slices from
    /// `from` on ran to the nominal host: `NOMINAL_SLICE_S` / their mean
    /// time. 1 when there are none.
    pub fn factor(&self, from: usize) -> f64 {
        let s = &self.slices[from.min(self.slices.len())..];
        if s.is_empty() {
            return 1.0;
        }
        NOMINAL_SLICE_S * s.len() as f64 / s.iter().sum::<f64>()
    }

    /// Every slice time recorded.
    pub fn slices(&self) -> &[f64] {
        &self.slices
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_nominal_over_mean_slice_time() {
        let m = Meter {
            slices: vec![0.001, 0.003, 0.004],
            ..Meter::default()
        };
        assert!((m.factor(0) - NOMINAL_SLICE_S / (0.008 / 3.0)).abs() < 1e-12);
        assert!((m.factor(1) - NOMINAL_SLICE_S / 0.0035).abs() < 1e-12);
        assert_eq!(m.factor(3), 1.0);
        assert!(slice() > 0.0);
    }

    #[test]
    fn pace_runs_slices_it_reports_once() {
        let mut m = Meter::default();
        for _ in 0..PACE_CHECK_EVERY - 1 {
            m.pace();
        }
        assert_eq!(m.mark(), 0, "the clock is read once per check interval");
        m.pace();
        assert_eq!(m.mark(), 1, "the first check is due");
        let paced = m.take_paced_s();
        assert_eq!(paced, m.slices()[0]);
        assert_eq!(m.take_paced_s(), 0.0);
    }
}
