//! The four benchmark workloads: what each runs, why it is in the set,
//! its loop type, and the paper cell it is compared against.

use bm_bench::paper;
use bm_sim::SimDuration;
use bm_testbed::{SchemeKind, TestbedConfig};
use bm_workloads::fio::FioSpec;

/// Which paper column a workload's mean latency is compared with. The
/// values are read from `bm_bench::paper`, never copied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Column {
    /// Table V (bare metal), BM-Store column.
    TableVBmStore,
    /// Table VII (single VM), BM-Store column.
    TableViiBmStore,
    /// Table VII (single VM), SPDK vhost column.
    TableViiSpdk,
}

/// One paper reference cell.
#[derive(Debug, Clone, Copy)]
pub struct PaperCell {
    /// Column of the table.
    pub column: Column,
    /// Table IV case name (row of the table).
    pub case: &'static str,
}

impl PaperCell {
    /// Paper mean latency in µs.
    ///
    /// # Panics
    ///
    /// Panics if the case is not a row of its table (a catalogue bug).
    pub fn latency_us(&self) -> f64 {
        let hit = match self.column {
            Column::TableVBmStore => paper::TABLE_V_LATENCY_US
                .iter()
                .find(|r| r.0 == self.case)
                .map(|r| r.2),
            Column::TableViiBmStore => paper::TABLE_VII_LATENCY_US
                .iter()
                .find(|r| r.0 == self.case)
                .map(|r| r.2),
            Column::TableViiSpdk => paper::TABLE_VII_LATENCY_US
                .iter()
                .find(|r| r.0 == self.case)
                .map(|r| r.3),
        };
        hit.expect("paper cell names a row of its table")
    }

    /// Short label, e.g. `Table VII BM-Store rand-r-128`.
    pub fn label(&self) -> String {
        let col = match self.column {
            Column::TableVBmStore => "Table V BM-Store",
            Column::TableViiBmStore => "Table VII BM-Store",
            Column::TableViiSpdk => "Table VII SPDK",
        };
        format!("{col} {}", self.case)
    }

    /// Whether the cell was used to tune the model. The SSD calibration
    /// (`crates/ssd/src/calibration.rs`) was fitted to Table V's native
    /// column only.
    pub fn held_out(&self) -> &'static str {
        match self.column {
            Column::TableVBmStore => {
                "partly held out: the SSD was calibrated on the native cell of the same Table V row; the BM-Store overhead was not tuned"
            }
            Column::TableViiBmStore | Column::TableViiSpdk => {
                "held out: calibration used Table V's native column only"
            }
        }
    }
}

/// How a workload drives its devices.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Closed-loop fio jobs on a testbed.
    Fio {
        /// The testbed (scheme, devices, observability).
        testbed: fn() -> TestbedConfig,
        /// The fio case.
        spec: fn() -> FioSpec,
        /// The paper cell its mean latency is compared with.
        cell: PaperCell,
    },
    /// A `bm_chaos` campaign under `ChaosConfig::abort_to_host()`.
    Chaos {
        /// Cases per repetition: consecutive seeds from the base seed.
        cases: u64,
    },
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// Why it is in the set: which layers it stresses.
    pub why: &'static str,
    /// Loop type with its client count or cadence.
    pub load: &'static str,
    /// What it runs.
    pub kind: Kind,
}

impl Workload {
    /// The one-line description recorded in `BENCHMARK.json`.
    pub fn summary(&self) -> String {
        let cell = match self.kind {
            Kind::Fio { cell, .. } => format!("paper cell {}", cell.label()),
            Kind::Chaos { .. } => "no paper cell".to_string(),
        };
        format!("{}; {}; {cell}", self.why, self.load)
    }
}

fn vm4_testbed() -> TestbedConfig {
    TestbedConfig::multi_vm_bm_store(4)
}

fn ssd4_testbed() -> TestbedConfig {
    TestbedConfig::bm_store_bare_metal(4).with_metrics()
}

fn spdk_testbed() -> TestbedConfig {
    TestbedConfig::single_vm(SchemeKind::SpdkVhost { cores: 1 })
}

/// The full-length rand-w-16 window costs only ~0.2 s of host time, so
/// the measured window is five times longer to keep per-run timing
/// noise down.
fn spdk_spec() -> FioSpec {
    FioSpec {
        runtime: SimDuration::from_ms(2_000),
        ..FioSpec::rand_w_16()
    }
}

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "vm4-randread-4k",
        why: "most events per host s: scheduler, effect interpreter, engine stages, client generator",
        load: "closed loop 4 VMs x 4 jobs x QD128, 4 KiB rand read",
        kind: Kind::Fio {
            testbed: vm4_testbed,
            spec: FioSpec::rand_r_128,
            cell: PaperCell {
                column: Column::TableViiBmStore,
                case: "rand-r-128",
            },
        },
    },
    Workload {
        name: "ssd4-seqread-128k-metrics",
        why: "metrics sampler, deep timer-wheel levels, SSD model; largest host memory",
        load: "closed loop 4 SSDs x 4 jobs x QD256, 128 KiB seq read, metrics on",
        kind: Kind::Fio {
            testbed: ssd4_testbed,
            spec: FioSpec::seq_r_256,
            cell: PaperCell {
                column: Column::TableVBmStore,
                case: "seq-r-256",
            },
        },
    },
    Workload {
        name: "chaos-rw-faults",
        why: "only one with payload bytes, engine writes, timeouts, crash journal, recovery, real I/O failures",
        load: "open loop 4 tenants every 200 us, 100 fault-plan seeds per repetition",
        kind: Kind::Chaos { cases: 100 },
    },
    Workload {
        name: "vm-spdk-randwrite-4k",
        why: "only one on the baselines scheme layer and host polling CPU; BM-Store engine idle",
        load: "closed loop 1 VM x 4 jobs x QD16, 4 KiB rand write, 2 s window",
        kind: Kind::Fio {
            testbed: spdk_testbed,
            spec: spdk_spec,
            cell: PaperCell {
                column: Column::TableViiSpdk,
                case: "rand-w-16",
            },
        },
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
