//! The benchmark's own contract: names, units, the committed
//! `BENCHMARK.json`, the correctness check and seed handling.
//!
//! Workload runs here use shortened windows (and three chaos cases) so
//! the suite stays quick in a debug build; the code paths are the ones
//! the full-length benchmark takes.

use bm_simbench::metric::{
    benchmark_json, MetricDef, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOAD_SPECIFIC,
};
use bm_simbench::workload::{Kind, Workload, WORKLOADS};
use bm_simbench::{fio, judge, run_workload, RepCheck};
use bm_testbed::TestbedConfig;
use bm_workloads::fio::{run_fio, FioSpec};

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn names_and_units_follow_the_contract() {
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let defs: Vec<&MetricDef> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .chain(&WORKLOAD_SPECIFIC)
        .collect();
    names.extend(defs.iter().map(|d| d.name));
    for n in &names {
        assert!(is_name(n), "bad name {n:?}");
    }
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "a name is used twice");
    for d in &defs {
        assert!(is_unit(d.unit), "bad unit {:?} of {}", d.unit, d.name);
    }
    for d in &END_TO_END {
        assert!(d.bound > 0.0 && d.bound <= 0.25, "bound of {}", d.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|d| d.name == "setup_s")
        .expect("setup_s");
    assert_eq!(setup.unit, "s");
    assert!(
        END_TO_END.iter().all(|d| d.bound <= setup.bound),
        "setup_s has the largest bound"
    );
    for w in &WORKLOADS {
        let why = w.summary();
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why of {}: {why}",
            w.name
        );
    }
}

#[test]
fn committed_benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(committed, benchmark_json(RUN_SECONDS));
}

/// `w` with its measured window cut to a few milliseconds of simulated
/// time, or its chaos campaign cut to three cases.
fn shortened(w: &Workload) -> Workload {
    let kind = match w.kind {
        Kind::Fio { testbed, cell, .. } => {
            let short: fn() -> FioSpec = match w.name {
                "vm4-randread-4k" => || FioSpec::rand_r_128().scaled(0.02),
                "ssd4-seqread-128k-metrics" => || FioSpec::seq_r_256().scaled(0.01),
                "vm-spdk-randwrite-4k" => || FioSpec::rand_w_16().scaled(0.02),
                other => panic!("no shortened spec for {other}"),
            };
            Kind::Fio {
                testbed,
                spec: short,
                cell,
            }
        }
        Kind::Chaos { .. } => Kind::Chaos { cases: 3 },
    };
    Workload { kind, ..*w }
}

fn metric_names(report: &bm_simbench::Report) -> Vec<(&'static str, &'static str)> {
    report
        .outcome
        .metrics
        .iter()
        .map(|m| (m.name, m.unit))
        .collect()
}

#[test]
fn every_metric_is_printed_with_its_unit_for_every_workload() {
    for w in &WORKLOADS {
        let w = shortened(w);
        let e2e = run_workload(&w, 1, 0.0, false);
        assert!(e2e.outcome.correct, "{}: {:?}", w.name, e2e.lines);
        assert_eq!(e2e.outcome.failed, 0);
        let want: Vec<(&str, &str)> = END_TO_END.iter().map(|d| (d.name, d.unit)).collect();
        assert_eq!(metric_names(&e2e), want, "{}", w.name);
        let json = e2e.outcome.to_json();
        for d in &END_TO_END {
            assert!(
                json.contains(&format!("\"{}\": {{\"value\": ", d.name)),
                "{json}"
            );
            assert!(
                json.contains(&format!("\"unit\": \"{}\"", d.unit)),
                "{json}"
            );
        }
        assert!(
            e2e.outcome.metrics.iter().all(|m| m.value > 0.0),
            "{}: {json}",
            w.name
        );
        let table = e2e.lines.join("\n");
        let applies: &[&str] = match w.kind {
            Kind::Fio { .. } => &["failed_io_frac", "paper_err_pct"],
            Kind::Chaos { .. } => &["failed_io_frac", "case_host_ms_p50", "case_host_ms_p99"],
        };
        for name in applies {
            let d = WORKLOAD_SPECIFIC
                .iter()
                .find(|d| d.name == *name)
                .expect("catalogued");
            let printed = table.lines().any(|l| {
                l.starts_with(&format!("{name} ")) && l.contains(&format!(" {} ", d.unit))
            });
            assert!(
                printed,
                "{}: {name} with unit {} in\n{table}",
                w.name, d.unit
            );
        }

        let traced = run_workload(&w, 1, 0.0, true);
        assert!(traced.outcome.correct, "{}: {:?}", w.name, traced.lines);
        let want: Vec<(&str, &str)> = PER_LAYER.iter().map(|d| (d.name, d.unit)).collect();
        assert_eq!(metric_names(&traced), want, "{}", w.name);
        assert_eq!(
            traced.digest, e2e.digest,
            "{}: traced and untraced outputs differ",
            w.name
        );
    }
}

#[test]
fn a_perturbed_digest_fails_the_run() {
    let rep = RepCheck {
        digest: 0x1234,
        attempted: 100,
        non_success: 2,
        wrong: 0,
    };
    let ok = judge(&[rep, rep, rep]);
    assert!(ok.correct);
    assert_eq!((ok.attempted, ok.failed), (300, 0));
    assert_eq!(ok.failed_io_frac, 0.02);

    let perturbed = RepCheck {
        digest: rep.digest ^ 1,
        ..rep
    };
    let bad = judge(&[rep, perturbed, rep]);
    assert!(!bad.correct);
    assert_eq!(bad.failed, bad.attempted, "every I/O counts as failed");
    assert_eq!(bad.failed_io_frac, 1.0);
    assert!(
        bad.problems[0].starts_with("digest differs"),
        "{:?}",
        bad.problems
    );

    let wrong = RepCheck { wrong: 1, ..rep };
    assert!(
        !judge(&[rep, wrong]).correct,
        "a wrong outcome fails the run"
    );
}

/// Workloads whose simulated outputs do not depend on the seed: the
/// 128 KiB sequential read is bandwidth-bound with no random LBAs, and
/// the QD16 random write is bound by the SSD's write drain pipe, which
/// hides the seeded admit jitter and ignores the LBA. Their inputs still
/// come from the seed.
const SEED_INVARIANT: [&str; 2] = ["ssd4-seqread-128k-metrics", "vm-spdk-randwrite-4k"];

#[test]
fn seed_changes_outputs_but_not_the_metric_set() {
    for w in WORKLOADS.iter().map(shortened) {
        let a = run_workload(&w, 1, 0.0, false);
        let b = run_workload(&w, 2, 0.0, false);
        if SEED_INVARIANT.contains(&w.name) {
            assert_eq!(a.digest, b.digest, "{}: now seed-dependent", w.name);
        } else {
            assert_ne!(
                a.digest, b.digest,
                "{}: seed does not reach the inputs",
                w.name
            );
        }
        assert_eq!(metric_names(&a), metric_names(&b), "{}", w.name);
        let again = run_workload(&w, 1, 0.0, false);
        assert_eq!(a.digest, again.digest, "{}: one seed, two outputs", w.name);
    }
}

#[test]
fn checked_rig_reproduces_prepare_fio() {
    let spec = FioSpec::rand_r_128().scaled(0.02);
    let cfg = TestbedConfig::multi_vm_bm_store(2).with_seed(7);
    let (rig, _) = fio::wire(cfg.clone(), spec);
    let (ours, _) = rig.run(false);
    let (theirs, world) = run_fio(cfg, spec);
    assert_eq!(ours.world.events_fired, world.events_fired);
    assert_eq!(ours.devices.len(), theirs.len());
    for (a, b) in ours.devices.iter().zip(&theirs) {
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.iops.to_bits(), b.iops.to_bits());
        assert_eq!(a.latency_ns[0], b.avg_latency.as_nanos());
        assert_eq!(a.latency_ns[1], b.p50.as_nanos());
        assert_eq!(a.latency_ns[2], b.p99.as_nanos());
    }
    assert_eq!(ours.tally.non_success, 0);
    assert!(ours.tally.completions >= ours.measured_ios());
}
