//! The metric catalogue and the result record.
//!
//! Every metric is named here once, with its unit, its direction, and
//! what it means: for a per-layer metric, which end-to-end metric it
//! should move and on which workload. `BENCHMARK.json` is generated from
//! this table ([`benchmark_json`]) and `tests/contract.rs` checks the
//! committed file matches.

use crate::workload::WORKLOADS;
use std::collections::BTreeMap;

/// Which direction is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may get worse before a change counts as a regression.
    pub bound: f64,
    /// Definition; for a per-layer metric also the end-to-end metric
    /// and workload it should move.
    pub about: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    about: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
        about,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    about: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
        about,
    }
}

use Better::{Higher, Lower};

/// Host seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 25;

/// End-to-end metrics: printed for every workload with `--trace 0`,
/// measured with all instrumentation off.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("ios_per_host_s", "1/s", Higher, 0.25,
        "host throughput at the nominal host speed (see speed.rs): fio = measured-window completions / host s of World::run; chaos = I/Os issued / host s of the run_case calls; each repetition's host s scaled by the reference slices around it; median over repetitions"),
    e2e("setup_s", "s", Lower, 0.25,
        "host s to build the testbed and wire clients before the first event, at the nominal host speed: fio = testbed + job wiring; chaos = generate_plan + Testbed::new over one campaign; median over repetitions"),
    e2e("peak_rss_mb", "MB", Lower, 0.25,
        "process high-water resident memory (VmHWM) after the first repetition: one instance of the workload"),
    e2e("ok_io_frac", "frac", Higher, 0.01,
        "completions with Success status / I/Os attempted, i.e. 1 - failed_io_frac; 0 when the run fails its correctness check"),
];

/// End-to-end metrics that apply to some workloads only. The one
/// command prints them in its table for the workloads they apply to;
/// `BENCHMARK.json` cannot list them, because every metric listed there
/// must be printed, non-zero, for every workload.
pub const WORKLOAD_SPECIFIC: [MetricDef; 4] = [
    e2e("failed_io_frac", "frac", Lower, 0.0,
        "non-success completions / I/Os attempted (1 when the run fails its correctness check); 0 by design on the fault-free fio workloads"),
    e2e("paper_err_pct", "%", Lower, 0.0,
        "fio only: |simulated mean latency - paper cell| / paper cell x 100, in simulated time, so it repeats exactly for a seed"),
    e2e("case_host_ms_p50", "ms", Lower, 0.0,
        "chaos only: median host ms per run_case, with its sample count"),
    e2e("case_host_ms_p99", "ms", Lower, 0.0,
        "chaos only: p99 host ms per run_case, with its sample count and the samples beyond it"),
];

/// Per-layer metrics: printed for every workload with `--trace 1`.
/// Layer names follow the crates. A layer that does no work on a
/// workload reads 0; so does one the public API cannot observe there
/// (the traced chaos run lists those by name).
pub const PER_LAYER: [MetricDef; 41] = [
    layer("sim.sched.events_per_io", "events/io", Lower,
        "scheduler events fired / I/Os attempted. Moves ios_per_host_s, most on vm4-randread-4k"),
    layer("sim.sched.host_ns_per_event", "ns/event", Lower,
        "untraced World::run host ns / events fired. Moves ios_per_host_s, most on vm4-randread-4k"),
    layer("sim.sched.self_frac", "frac", Lower,
        "1 - profiler dispatch total / traced World::run host time: run-loop time outside every dispatch. Moves ios_per_host_s on vm4-randread-4k"),
    layer("sim.sched.peak_pending", "count", Lower,
        "peak scheduler queue depth. Deep-queue behaviour shows on ssd4-seqread-128k-metrics"),
    layer("sim.sched.arena_slots", "count", Lower,
        "scheduler arena slots allocated. Moves peak_rss_mb on ssd4-seqread-128k-metrics"),
    layer("sim.sched.clamped_past", "count", Lower,
        "events scheduled in the past and clamped to now; a model emitting stale timestamps"),
    layer("testbed.interp.effects_per_io", "effects/io", Lower,
        "effects interpreted (fx:* scope entries) / I/O. Moves ios_per_host_s on vm4-randread-4k and vm-spdk-randwrite-4k"),
    layer("testbed.interp.self_ns_per_io", "ns/io", Lower,
        "self ns of the effect interpreter (fx:* except ChargeCpu, deliver, notify, submit) / I/O. Moves ios_per_host_s on vm4-randread-4k and vm-spdk-randwrite-4k"),
    layer("testbed.scheme.self_ns_per_io", "ns/io", Lower,
        "self ns of the non-engine stage:* hooks / I/O: the baselines SPDK vhost model on vm-spdk-randwrite-4k, the BM-Store scheme adapter elsewhere. Moves ios_per_host_s on vm-spdk-randwrite-4k"),
    layer("core.engine.self_ns_per_io", "ns/io", Lower,
        "self ns of every stage:Engine* key / I/O. Moves ios_per_host_s on vm4-randread-4k; no change on vm-spdk-randwrite-4k"),
    layer("core.engine.doorbell.self_ns_per_io", "ns/io", Lower,
        "stage:EngineDoorbell self ns / I/O. Moves ios_per_host_s on vm4-randread-4k"),
    layer("core.engine.backend_doorbell.self_ns_per_io", "ns/io", Lower,
        "stage:EngineBackendDoorbell self ns / I/O; includes SSD submission model time. Moves ios_per_host_s on vm4-randread-4k"),
    layer("core.engine.backend_complete.self_ns_per_io", "ns/io", Lower,
        "stage:EngineBackendComplete self ns / I/O; includes SSD completion model time. Moves ios_per_host_s on vm4-randread-4k"),
    layer("core.engine.host_completion.self_ns_per_io", "ns/io", Lower,
        "stage:EngineHostCompletion self ns / I/O. Moves ios_per_host_s on vm4-randread-4k"),
    layer("core.engine.front_end.sim_busy_frac", "frac", Lower,
        "simulated busy / window of the front_end stage (bottleneck report). Moves paper_err_pct on the BM-Store fio workloads"),
    layer("core.engine.target_ctrl.sim_busy_frac", "frac", Lower,
        "simulated busy / window of the target_ctrl stage. Moves paper_err_pct on the BM-Store fio workloads"),
    layer("core.engine.mapping.sim_busy_frac", "frac", Lower,
        "simulated busy / window of the mapping stage. Moves paper_err_pct on the BM-Store fio workloads"),
    layer("core.engine.dma_routing.sim_busy_frac", "frac", Lower,
        "simulated busy / window of the dma_routing stage. Moves paper_err_pct on the BM-Store fio workloads"),
    layer("core.engine.host_adaptor.sim_busy_frac", "frac", Lower,
        "simulated busy / window of the host_adaptor stage. Moves paper_err_pct on the BM-Store fio workloads"),
    layer("core.engine.recoveries", "count", Higher,
        "completed crash-recovery cycles per repetition. Moves case_host_ms_p50 and failed_io_frac on chaos-rw-faults"),
    layer("core.engine.replayed", "count", Higher,
        "journaled commands replayed on recovery per repetition. Moves failed_io_frac on chaos-rw-faults"),
    layer("core.engine.aborted", "count", Lower,
        "journaled commands aborted to the host on recovery per repetition. Moves failed_io_frac on chaos-rw-faults"),
    layer("ssd.sim_busy_frac", "frac", Higher,
        "mean SSD occupancy: summed service time / (SSDs x simulated run length); above 1 with concurrent flash units. The SSD's host time sits inside the engine back-end stage keys and is not separable from outside. Moves paper_err_pct on every fio workload"),
    layer("ssd.commands", "count", Higher,
        "commands the back-end SSDs serviced in one repetition. Moves paper_err_pct on every fio workload"),
    layer("host.kernel.self_ns_per_io", "ns/io", Lower,
        "self ns of fx:ChargeCpu (host CPU and kernel cost model) / I/O. Moves ios_per_host_s on vm-spdk-randwrite-4k"),
    layer("host.polling_cpu_busy_frac", "frac", Lower,
        "simulated polling-core busy time / simulated run length (SPDK only). Moves paper_err_pct on vm-spdk-randwrite-4k"),
    layer("workloads.client.self_ns_per_io", "ns/io", Lower,
        "self ns of the client:* keys (fio generator) / I/O. Moves ios_per_host_s on vm4-randread-4k"),
    layer("sim.metrics.cost_frac", "frac", Lower,
        "untraced World::run host time with / without with_metrics(), minus 1. Moves ios_per_host_s and peak_rss_mb on ssd4-seqread-128k-metrics; no change elsewhere"),
    layer("sim.metrics.sampler_ticks", "count", Lower,
        "metrics sampler ticks in one metrics-on repetition. Moves ios_per_host_s on ssd4-seqread-128k-metrics"),
    layer("sim.telemetry.cost_frac", "frac", Lower,
        "untraced World::run host time with / without with_telemetry(), minus 1"),
    layer("sim.slo.cost_frac", "frac", Lower,
        "untraced World::run host time with / without with_slo() (which turns metrics on too), minus 1"),
    layer("prof.cost_frac", "frac", Lower,
        "tracing overhead: World::run host time with with_profiler() and bm_prof::alloc armed / untraced, minus 1; ROADMAP item 1 bounds it at 0.10"),
    layer("alloc.per_io", "allocs/io", Lower,
        "heap allocation events inside the traced run's dispatch scopes / I/O (chaos: every allocation of the run_case calls, testbed construction included). Moves ios_per_host_s on vm4-randread-4k and chaos-rw-faults"),
    layer("alloc.bytes_per_io", "B/io", Lower,
        "heap bytes requested, counted like alloc.per_io. Moves peak_rss_mb on ssd4-seqread-128k-metrics"),
    layer("alloc.testbed.interp.per_io", "allocs/io", Lower,
        "allocations while an interpreter scope was innermost / I/O. Moves ios_per_host_s on vm4-randread-4k"),
    layer("alloc.testbed.scheme.per_io", "allocs/io", Lower,
        "allocations inside non-engine stage:* hooks / I/O. Moves ios_per_host_s on vm-spdk-randwrite-4k"),
    layer("alloc.core.engine.per_io", "allocs/io", Lower,
        "allocations inside stage:Engine* hooks / I/O. Moves ios_per_host_s on vm4-randread-4k"),
    layer("alloc.workloads.client.per_io", "allocs/io", Lower,
        "allocations inside client:* scopes / I/O. Moves ios_per_host_s on vm4-randread-4k"),
    layer("chaos.generate_plan_us", "us/case", Lower,
        "median host us per generate_plan (0 on the fio workloads: no plans). Moves setup_s on chaos-rw-faults"),
    layer("testbed.new_ms", "ms", Lower,
        "median host ms per Testbed::new. Moves setup_s on every workload and case_host_ms_p50 on chaos-rw-faults"),
    layer("chaos.oracle_violations", "count", Lower,
        "chaos oracle violations per repetition; must be 0 (a violation fails the run)"),
];

/// One measured value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Catalogue unit.
    pub unit: &'static str,
}

/// The values a run measured, by name.
#[derive(Debug, Default, Clone)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `name = value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The catalogue's metrics in catalogue order, or the names the run
    /// did not measure.
    pub fn select(&self, defs: &[MetricDef]) -> Result<Vec<Metric>, Vec<&'static str>> {
        let missing: Vec<&'static str> = defs
            .iter()
            .filter(|d| !self.0.contains_key(d.name))
            .map(|d| d.name)
            .collect();
        if !missing.is_empty() {
            return Err(missing);
        }
        Ok(defs
            .iter()
            .map(|d| Metric {
                name: d.name,
                value: self.0[d.name],
                unit: d.unit,
            })
            .collect())
    }
}

/// The result record: the last line the benchmark prints.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// I/Os attempted over every repetition.
    pub attempted: u64,
    /// I/Os counted as failed (all of them when a check failed).
    pub failed: u64,
    /// The metrics, in catalogue order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// One-line JSON. Values print with every digit Rust's shortest
    /// round-trip formatting gives; a non-finite value prints as 0.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `BENCHMARK.json` this catalogue describes.
pub fn benchmark_json(run_seconds: u64) -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(&w.summary())
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\", \"bound\": {:?}}}",
                json_str(d.name),
                json_str(d.unit),
                d.better.as_str(),
                d.bound
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\"}}",
                json_str(d.name),
                json_str(d.unit),
                d.better.as_str()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"simbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"simbench\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}
