//! The traced run: per-layer metrics.
//!
//! A fio workload runs in rounds of five repetitions, each with one
//! observability toggle changed from the workload's own configuration:
//! none (the untraced reference), metrics flipped, telemetry on, SLO
//! engine on, and the profiler on with allocation counting armed (the
//! traced repetition). Host times come from the untraced reference and
//! the on/off pairs; layer self times and allocations come from the
//! profiler snapshot; simulated counters come from the finished world.
//!
//! The chaos workload is reachable only through `run_case`, which
//! exposes no observability toggle and returns only its `CaseReport`.
//! Its traced run alternates plain and allocation-counted campaigns;
//! the metrics it cannot observe read 0 and are listed in the output.

use crate::chaos::{self, Allocs, Campaign};
use crate::fio::{self, Finished};
use crate::metric::Values;
use crate::stats::{median, Digest};
use crate::workload::{Kind, Workload};
use crate::{judge, Budget, RepCheck, Verdict};
use bm_prof::Snapshot;
use bm_sim::metrics::stages;
use bm_sim::slo::{SloConfig, SloSpec};
use bm_sim::{SimDuration, SimTime};
use bm_testbed::TestbedConfig;
use std::collections::BTreeMap;

/// Fewest rounds a traced run makes, whatever its budget.
pub const MIN_ROUNDS: usize = 2;

/// Runs the traced measurement of `w` for `seconds` (at least
/// [`MIN_ROUNDS`] rounds).
pub fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    lines: &mut Vec<String>,
) -> (Verdict, Values, u64) {
    match w.kind {
        Kind::Fio { testbed, spec, .. } => {
            fio_layers(testbed().with_seed(seed), spec, seconds, lines)
        }
        Kind::Chaos { cases } => chaos_layers(seed, cases, seconds, lines),
    }
}

/// Observability toggles, one per repetition of a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Probe {
    Base,
    Metrics,
    Telemetry,
    Slo,
    Prof,
}

const PROBES: [Probe; 5] = [
    Probe::Base,
    Probe::Metrics,
    Probe::Telemetry,
    Probe::Slo,
    Probe::Prof,
];

fn probe_config(base: TestbedConfig, probe: Probe) -> TestbedConfig {
    match probe {
        Probe::Base => base,
        Probe::Metrics => {
            let metrics = !base.metrics;
            TestbedConfig { metrics, ..base }
        }
        Probe::Telemetry => base.with_telemetry(),
        Probe::Slo => {
            let mut slo = SloConfig::new().with_stall_after(SimDuration::from_ms(10));
            for d in 0..base.devices.len() {
                slo = slo.with_spec(SloSpec::latency(d as u16, SimDuration::from_ms(5)));
            }
            base.with_slo(slo)
        }
        Probe::Prof => base.with_profiler(),
    }
}

/// Where a profiler scope's self time belongs, by its innermost
/// segment: `(layer, engine stage)`.
fn classify(path: &[String]) -> (Option<&'static str>, Option<&'static str>) {
    let Some(last) = path.last() else {
        return (None, None);
    };
    if let Some(stage) = last.strip_prefix("stage:Engine") {
        let name = match stage {
            "Doorbell" => Some("core.engine.doorbell"),
            "BackendDoorbell" => Some("core.engine.backend_doorbell"),
            "BackendComplete" => Some("core.engine.backend_complete"),
            "HostCompletion" => Some("core.engine.host_completion"),
            _ => None,
        };
        return (Some("core.engine"), name);
    }
    let layer = match last.as_str() {
        s if s.starts_with("stage:") => Some("testbed.scheme"),
        "fx:ChargeCpu" => Some("host.kernel"),
        s if s.starts_with("fx:") => Some("testbed.interp"),
        "deliver" | "notify" | "submit" => Some("testbed.interp"),
        s if s.starts_with("client:") => Some("workloads.client"),
        _ => None,
    };
    (layer, None)
}

/// Reported layers: `(layer, self-time metric, allocation metric)`.
const LAYERS: [(&str, &str, Option<&str>); 9] = [
    (
        "testbed.interp",
        "testbed.interp.self_ns_per_io",
        Some("alloc.testbed.interp.per_io"),
    ),
    (
        "testbed.scheme",
        "testbed.scheme.self_ns_per_io",
        Some("alloc.testbed.scheme.per_io"),
    ),
    (
        "core.engine",
        "core.engine.self_ns_per_io",
        Some("alloc.core.engine.per_io"),
    ),
    ("host.kernel", "host.kernel.self_ns_per_io", None),
    (
        "workloads.client",
        "workloads.client.self_ns_per_io",
        Some("alloc.workloads.client.per_io"),
    ),
    (
        "core.engine.doorbell",
        "core.engine.doorbell.self_ns_per_io",
        None,
    ),
    (
        "core.engine.backend_doorbell",
        "core.engine.backend_doorbell.self_ns_per_io",
        None,
    ),
    (
        "core.engine.backend_complete",
        "core.engine.backend_complete.self_ns_per_io",
        None,
    ),
    (
        "core.engine.host_completion",
        "core.engine.host_completion.self_ns_per_io",
        None,
    ),
];

/// One profiler snapshot split by layer.
#[derive(Debug, Default)]
struct LayerSplit {
    self_ns: BTreeMap<&'static str, f64>,
    allocs: BTreeMap<&'static str, u64>,
    /// Allocation events and bytes attributed to any dispatch scope.
    /// The profiler's own sampler buffer grows on a wall-clock cadence
    /// outside every scope, so only these totals repeat exactly.
    scoped_allocs: Allocs,
    effects: u64,
    dispatch_ns: u64,
    /// Digest of every scope's exact entry and allocation counts.
    counts: u64,
}

impl LayerSplit {
    fn of(snap: &Snapshot) -> LayerSplit {
        let mut split = LayerSplit {
            dispatch_ns: snap.total_run_ns,
            ..LayerSplit::default()
        };
        let mut counts = Digest::default();
        for s in &snap.scopes {
            for b in s.key().bytes() {
                counts.word(u64::from(b));
            }
            counts.word(s.count).word(s.allocs).word(s.alloc_bytes);
            split.scoped_allocs.events += s.allocs;
            split.scoped_allocs.bytes += s.alloc_bytes;
            if s.path.last().is_some_and(|l| l.starts_with("fx:")) {
                split.effects += s.count;
            }
            let (layer, stage) = classify(&s.path);
            for name in layer.into_iter().chain(stage) {
                *split.self_ns.entry(name).or_default() += s.self_ns as f64;
                *split.allocs.entry(name).or_default() += s.allocs;
            }
        }
        split.counts = counts.value();
        split
    }
}

/// Simulated counters of one finished untraced repetition.
fn world_counters(fin: &Finished, v: &mut Values) {
    let world = &fin.world;
    let ios = fin.tally.completions as f64;
    v.set("sim.sched.events_per_io", world.events_fired as f64 / ios);
    v.set("sim.sched.peak_pending", world.peak_event_queue as f64);
    v.set("sim.sched.arena_slots", world.arena_slots as f64);
    v.set("sim.sched.clamped_past", world.clamped_past as f64);
    let tb = &world.tb;
    let run_ns = world
        .run_end()
        .saturating_since(SimTime::ZERO)
        .as_nanos_f64();
    let ssds = tb.config().ssds;
    let (mut busy_ns, mut commands) = (0.0, 0u64);
    for i in 0..ssds {
        let s = tb.ssd(i).service_stats();
        busy_ns += s.busy.as_nanos_f64();
        commands += s.ops;
    }
    v.set("ssd.sim_busy_frac", busy_ns / (ssds as f64 * run_ns));
    v.set("ssd.commands", commands as f64);
    v.set(
        "host.polling_cpu_busy_frac",
        tb.polling_cpu_busy().as_nanos_f64() / run_ns,
    );
    let r = tb
        .engine()
        .map(|e| e.resilience_stats())
        .unwrap_or_default();
    v.set("core.engine.recoveries", r.recoveries as f64);
    v.set("core.engine.replayed", r.replayed as f64);
    v.set("core.engine.aborted", r.aborted_on_recovery as f64);
}

/// Bottleneck-report stage occupancies and sampler ticks of one
/// metrics-on repetition.
fn metrics_counters(fin: &Finished, v: &mut Values) {
    let read = fin.world.tb.metrics().read(|m| {
        let end = m.last_sample().unwrap_or(SimTime::ZERO);
        let report = m.bottleneck_report(end, 3);
        let occupancy = |stage: &str| {
            report
                .stages
                .iter()
                .find(|s| s.stage == stage)
                .map_or(0.0, |s| s.occupancy)
        };
        (
            m.sample_ticks(),
            [
                (
                    "core.engine.front_end.sim_busy_frac",
                    occupancy(stages::FRONT_END),
                ),
                (
                    "core.engine.target_ctrl.sim_busy_frac",
                    occupancy(stages::TARGET_CTRL),
                ),
                (
                    "core.engine.mapping.sim_busy_frac",
                    occupancy(stages::MAPPING),
                ),
                (
                    "core.engine.dma_routing.sim_busy_frac",
                    occupancy(stages::DMA_ROUTING),
                ),
                (
                    "core.engine.host_adaptor.sim_busy_frac",
                    occupancy(stages::HOST_ADAPTOR),
                ),
            ],
        )
    });
    let (ticks, occupancies) = read.expect("metrics-on repetition has a registry");
    v.set("sim.metrics.sampler_ticks", ticks as f64);
    for (name, occ) in occupancies {
        v.set(name, occ);
    }
}

/// Median over rounds of `wall[probe] / wall[reference] - 1`.
fn cost_frac(walls: &[[f64; 5]], probe: Probe, reference: Probe) -> f64 {
    let ratios: Vec<f64> = walls
        .iter()
        .map(|w| w[probe as usize] / w[reference as usize] - 1.0)
        .collect();
    median(&ratios)
}

fn fio_layers(
    base: TestbedConfig,
    spec: fn() -> bm_workloads::fio::FioSpec,
    seconds: f64,
    lines: &mut Vec<String>,
) -> (Verdict, Values, u64) {
    let base_has_metrics = base.metrics;
    let metrics_on = if base_has_metrics {
        Probe::Base
    } else {
        Probe::Metrics
    };
    let budget = Budget::new(seconds, MIN_ROUNDS);
    let mut v = Values::default();
    let mut walls: Vec<[f64; 5]> = Vec::new();
    let (mut same_events, mut all_reps) = (Vec::new(), Vec::new());
    let (mut testbed_new_s, mut splits): (Vec<f64>, Vec<LayerSplit>) = (Vec::new(), Vec::new());
    let (mut ios, mut events) = (0.0, 0.0);
    let mut prof_self_frac = Vec::new();
    while budget.more(walls.len()) {
        let mut wall = [0.0; 5];
        for probe in PROBES {
            let (rig, tb_s) = fio::wire(probe_config(base.clone(), probe), spec());
            testbed_new_s.push(tb_s);
            let (fin, run_s) = rig.run(probe == Probe::Prof);
            wall[probe as usize] = run_s;
            let check = RepCheck {
                digest: fin.digest(),
                attempted: fin.tally.completions,
                non_success: fin.tally.non_success,
                wrong: fin.tally.non_success,
            };
            // Profiler and telemetry add no scheduler events; the
            // metrics sampler does, so only the I/O digest compares
            // across every toggle.
            if matches!(probe, Probe::Base | Probe::Telemetry | Probe::Prof) {
                same_events.push(check);
            }
            all_reps.push(RepCheck {
                digest: fin.io_digest(),
                ..check
            });
            if walls.is_empty() && probe == Probe::Base {
                ios = fin.tally.completions as f64;
                events = fin.world.events_fired as f64;
                world_counters(&fin, &mut v);
            }
            if walls.is_empty() && probe == metrics_on {
                metrics_counters(&fin, &mut v);
            }
            if probe == Probe::Prof {
                let snap = fin.world.tb.profiler().snapshot().expect("profiler on");
                prof_self_frac.push(1.0 - snap.total_run_ns as f64 / (run_s * 1e9));
                splits.push(LayerSplit::of(&snap));
            }
        }
        walls.push(wall);
    }

    // Every repetition's I/O outputs must agree; the full digest
    // (events included) must also agree between the untraced and the
    // traced repetitions.
    let mut verdict = judge(&all_reps);
    if same_events.windows(2).any(|w| w[0].digest != w[1].digest) {
        verdict.fail("digest differs between untraced and traced repetitions".to_string());
    }
    if splits.windows(2).any(|w| w[0].counts != w[1].counts) {
        verdict.fail("scope or allocation counts differ between traced repetitions".to_string());
    }

    let base_wall: Vec<f64> = walls.iter().map(|w| w[Probe::Base as usize]).collect();
    v.set(
        "sim.sched.host_ns_per_event",
        median(&base_wall) * 1e9 / events,
    );
    v.set("sim.sched.self_frac", median(&prof_self_frac));
    let metrics_cost = if base_has_metrics {
        cost_frac(&walls, Probe::Base, Probe::Metrics)
    } else {
        cost_frac(&walls, Probe::Metrics, Probe::Base)
    };
    v.set("sim.metrics.cost_frac", metrics_cost);
    v.set(
        "sim.telemetry.cost_frac",
        cost_frac(&walls, Probe::Telemetry, Probe::Base),
    );
    v.set(
        "sim.slo.cost_frac",
        cost_frac(&walls, Probe::Slo, Probe::Base),
    );
    v.set(
        "prof.cost_frac",
        cost_frac(&walls, Probe::Prof, Probe::Base),
    );

    v.set(
        "testbed.interp.effects_per_io",
        splits.first().map_or(0, |s| s.effects) as f64 / ios,
    );
    for (layer, self_metric, alloc_metric) in LAYERS {
        let ns: Vec<f64> = splits
            .iter()
            .map(|s| s.self_ns.get(layer).copied().unwrap_or(0.0))
            .collect();
        v.set(self_metric, median(&ns) / ios);
        if let Some(alloc_metric) = alloc_metric {
            let n = splits
                .first()
                .and_then(|s| s.allocs.get(layer))
                .copied()
                .unwrap_or(0);
            v.set(alloc_metric, n as f64 / ios);
        }
    }
    let counted = splits.first().map(|s| s.scoped_allocs).unwrap_or_default();
    v.set("alloc.per_io", counted.events as f64 / ios);
    v.set("alloc.bytes_per_io", counted.bytes as f64 / ios);
    v.set("testbed.new_ms", median(&testbed_new_s) * 1e3);
    v.set("chaos.generate_plan_us", 0.0);
    v.set("chaos.oracle_violations", 0.0);

    lines.push(format!(
        "rounds {} of 5 repetitions (untraced, metrics {}, telemetry on, SLO on, profiler + alloc counting on)",
        walls.len(),
        if base_has_metrics { "off" } else { "on" }
    ));
    lines.push(format!(
        "digest {:016x} (untraced and traced repetitions identical: {})",
        same_events.first().map_or(0, |c| c.digest),
        verdict.correct
    ));
    let dispatch: Vec<f64> = splits.iter().map(|s| s.dispatch_ns as f64).collect();
    lines.push(format!(
        "profiler dispatch total {} ms per traced repetition; the SSD model's host time is inside the engine back-end stage keys",
        median(&dispatch) / 1e6
    ));
    let digest = same_events.first().map_or(0, |c| c.digest);
    (verdict, v, digest)
}

/// Per-layer metrics the chaos workload cannot observe through
/// `run_case`.
const CHAOS_UNOBSERVABLE: [&str; 31] = [
    "sim.sched.events_per_io",
    "sim.sched.host_ns_per_event",
    "sim.sched.self_frac",
    "sim.sched.peak_pending",
    "sim.sched.arena_slots",
    "testbed.interp.effects_per_io",
    "testbed.interp.self_ns_per_io",
    "testbed.scheme.self_ns_per_io",
    "core.engine.self_ns_per_io",
    "core.engine.doorbell.self_ns_per_io",
    "core.engine.backend_doorbell.self_ns_per_io",
    "core.engine.backend_complete.self_ns_per_io",
    "core.engine.host_completion.self_ns_per_io",
    "core.engine.front_end.sim_busy_frac",
    "core.engine.target_ctrl.sim_busy_frac",
    "core.engine.mapping.sim_busy_frac",
    "core.engine.dma_routing.sim_busy_frac",
    "core.engine.host_adaptor.sim_busy_frac",
    "ssd.sim_busy_frac",
    "ssd.commands",
    "host.kernel.self_ns_per_io",
    "host.polling_cpu_busy_frac",
    "workloads.client.self_ns_per_io",
    "sim.metrics.cost_frac",
    "sim.metrics.sampler_ticks",
    "sim.telemetry.cost_frac",
    "sim.slo.cost_frac",
    "alloc.testbed.interp.per_io",
    "alloc.testbed.scheme.per_io",
    "alloc.core.engine.per_io",
    "alloc.workloads.client.per_io",
];

fn chaos_layers(
    seed: u64,
    cases: u64,
    seconds: f64,
    lines: &mut Vec<String>,
) -> (Verdict, Values, u64) {
    let base = chaos::base_seed(seed, cases);
    let budget = Budget::new(seconds, MIN_ROUNDS);
    let mut rounds: Vec<(Campaign, Campaign)> = Vec::new();
    while budget.more(rounds.len()) {
        rounds.push((
            chaos::campaign(base, cases, false, None),
            chaos::campaign(base, cases, true, None),
        ));
    }
    let checks: Vec<RepCheck> = rounds
        .iter()
        .flat_map(|(a, b)| [a, b])
        .map(|c| RepCheck {
            digest: c.digest,
            attempted: c.issued,
            non_success: c.failed_io,
            wrong: c.violating_ios,
        })
        .collect();
    let mut verdict = judge(&checks);
    if rounds.windows(2).any(|w| w[0].1.allocs != w[1].1.allocs) {
        verdict.fail("allocation counts differ between traced repetitions".to_string());
    }

    let (plain, counted) = &rounds[0];
    let ios = plain.issued as f64;
    let mut v = Values::default();
    for name in CHAOS_UNOBSERVABLE {
        v.set(name, 0.0);
    }
    v.set("sim.sched.clamped_past", plain.clamped_past as f64);
    v.set("core.engine.recoveries", plain.recoveries as f64);
    v.set("core.engine.replayed", plain.replayed as f64);
    v.set("core.engine.aborted", plain.aborted_on_recovery as f64);
    let ratios: Vec<f64> = rounds
        .iter()
        .map(|(a, b)| b.run_s() / a.run_s() - 1.0)
        .collect();
    v.set("prof.cost_frac", median(&ratios));
    v.set("alloc.per_io", counted.allocs.events as f64 / ios);
    v.set("alloc.bytes_per_io", counted.allocs.bytes as f64 / ios);
    let plan_s: Vec<f64> = rounds
        .iter()
        .flat_map(|(a, b)| a.plan_s.iter().chain(&b.plan_s))
        .copied()
        .collect();
    let new_s: Vec<f64> = rounds
        .iter()
        .flat_map(|(a, b)| a.testbed_new_s.iter().chain(&b.testbed_new_s))
        .copied()
        .collect();
    v.set("chaos.generate_plan_us", median(&plan_s) * 1e6);
    v.set("testbed.new_ms", median(&new_s) * 1e3);
    v.set("chaos.oracle_violations", plain.violations as f64);

    lines.push(format!(
        "rounds {} of 2 campaigns (plain, allocation-counted) digest {:016x}",
        rounds.len(),
        plain.digest
    ));
    lines.push(
        "tracing here is allocation counting only (prof.cost_frac = counted / plain - 1): run_case exposes no profiler or observability toggle and returns only its CaseReport".to_string(),
    );
    lines.push(format!(
        "allocations include each case's testbed construction inside run_case; not observable on this workload (reported as 0): {}",
        CHAOS_UNOBSERVABLE.join(", ")
    ));
    (verdict, v, plain.digest)
}
