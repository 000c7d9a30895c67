//! One repetition of the chaos workload: a `bm_chaos` campaign over
//! consecutive seeds, with every call timed from outside.

use crate::speed::Meter;
use crate::stats::Digest;
use bm_chaos::{generate_plan, run_case, ChaosConfig};
use bm_sim::faults::FaultPlan;
use bm_ssd::DataMode;
use bm_testbed::{Testbed, TestbedConfig};
use std::time::Instant;

/// Allocation events and bytes `bm_prof::alloc` counted on this
/// thread.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Allocs {
    /// Allocation events.
    pub events: u64,
    /// Bytes requested.
    pub bytes: u64,
}

/// The testbed configuration `bm_chaos::run_case` builds for `plan`
/// (kept in step with `crates/chaos/src/case.rs` by hand: `run_case`
/// does not expose it). Only used to time testbed construction.
fn case_testbed(cfg: &ChaosConfig, plan: &FaultPlan) -> TestbedConfig {
    let mut tcfg = TestbedConfig::bm_store_bare_metal(cfg.tenants)
        .with_data_mode(DataMode::Full)
        .with_seed(plan.seed())
        .with_fault_plan(plan.clone());
    if let Some(timeout) = cfg.command_timeout {
        tcfg = tcfg.with_command_timeout(timeout, cfg.fail_policy);
    } else {
        tcfg.engine_fail_policy = cfg.fail_policy;
    }
    tcfg
}

/// The campaign's first seed for a benchmark `--seed`: disjoint
/// windows of `cases` seeds per benchmark seed.
pub fn base_seed(seed: u64, cases: u64) -> u64 {
    seed.wrapping_mul(cases)
}

/// What one campaign repetition produced.
#[derive(Debug, Clone, Default)]
pub struct Campaign {
    /// Host seconds of each `generate_plan`.
    pub plan_s: Vec<f64>,
    /// Host seconds of each `Testbed::new` built with the case's config.
    pub testbed_new_s: Vec<f64>,
    /// Host seconds of each `run_case`.
    pub case_s: Vec<f64>,
    /// I/Os issued across all cases.
    pub issued: u64,
    /// Non-success completions across all cases (aborted or errored
    /// I/O: the expected outcome of an injected fault).
    pub failed_io: u64,
    /// I/Os issued by cases whose oracles reported a violation.
    pub violating_ios: u64,
    /// Oracle violations across all cases.
    pub violations: u64,
    /// Crash-recovery cycles, journaled commands replayed, and
    /// journaled commands aborted on recovery.
    pub recoveries: u64,
    /// See `recoveries`.
    pub replayed: u64,
    /// See `recoveries`.
    pub aborted_on_recovery: u64,
    /// Past-due events the scheduler clamped.
    pub clamped_past: u64,
    /// Allocations counted over the `run_case` calls (zero unless
    /// counting was asked for).
    pub allocs: Allocs,
    /// Digest of every case report.
    pub digest: u64,
}

impl Campaign {
    /// Set-up seconds: every `generate_plan` plus every `Testbed::new`.
    pub fn setup_s(&self) -> f64 {
        self.plan_s.iter().chain(&self.testbed_new_s).sum()
    }

    /// Campaign host seconds: the `run_case` calls.
    pub fn run_s(&self) -> f64 {
        self.case_s.iter().sum()
    }
}

/// Cases between two host-speed reference slices when a campaign is
/// given a [`Meter`].
pub const CASES_PER_SLICE: u64 = 10;

/// Runs seeds `base .. base + cases` under
/// `ChaosConfig::abort_to_host()`. With `count_allocs`, allocation
/// counting is armed around each `run_case`. With a `meter`, a
/// reference slice runs before every [`CASES_PER_SLICE`] cases, outside
/// every timed call.
pub fn campaign(
    base: u64,
    cases: u64,
    count_allocs: bool,
    mut meter: Option<&mut Meter>,
) -> Campaign {
    let cfg = ChaosConfig::abort_to_host();
    let mut out = Campaign::default();
    let mut digest = Digest::default();
    for i in 0..cases {
        if i % CASES_PER_SLICE == 0 {
            if let Some(m) = meter.as_deref_mut() {
                m.sample();
            }
        }
        let seed = base.wrapping_add(i);
        let t = Instant::now();
        let plan = generate_plan(&cfg, seed);
        out.plan_s.push(t.elapsed().as_secs_f64());

        let tcfg = case_testbed(&cfg, &plan);
        let t = Instant::now();
        let tb = Testbed::new(tcfg);
        out.testbed_new_s.push(t.elapsed().as_secs_f64());
        drop(tb);

        let (events, bytes) = (bm_prof::alloc::events(), bm_prof::alloc::bytes());
        if count_allocs {
            bm_prof::alloc::arm();
        }
        let t = Instant::now();
        let report = run_case(&cfg, &plan);
        out.case_s.push(t.elapsed().as_secs_f64());
        bm_prof::alloc::disarm();
        out.allocs.events += bm_prof::alloc::events() - events;
        out.allocs.bytes += bm_prof::alloc::bytes() - bytes;

        out.issued += report.issued;
        out.failed_io += report.failed_io;
        out.violations += report.violations.len() as u64;
        if !report.violations.is_empty() {
            out.violating_ios += report.issued;
        }
        out.recoveries += report.recoveries;
        out.replayed += report.replayed;
        out.aborted_on_recovery += report.aborted_on_recovery;
        out.clamped_past += report.clamped_past;
        digest
            .word(report.seed)
            .word(report.issued)
            .word(report.completed)
            .word(report.failed_io)
            .word(report.recoveries)
            .word(report.replayed)
            .word(report.aborted_on_recovery)
            .word(report.clamped_past)
            .word(report.violations.len() as u64);
    }
    out.digest = digest.value();
    out
}
