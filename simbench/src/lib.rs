//! # bm-simbench — the BM-Store simulator benchmark
//!
//! Runs one named workload for a fixed host-time budget and prints its
//! metrics; `BENCHMARK.json` at the repository root records the
//! contract. The harness drives the simulator only through public APIs
//! and times every call into a layer from outside; it adds no
//! instrumentation inside the program.
//!
//! * `--trace 0` measures the end-to-end metrics ([`metric::END_TO_END`])
//!   with all instrumentation off.
//! * `--trace 1` measures the per-layer metrics ([`metric::PER_LAYER`]):
//!   the same workload with the `bm-prof` profiler and allocation
//!   counting on, plus untraced on/off runs of each observability
//!   toggle.
//!
//! Host-time end-to-end metrics are scaled to a nominal host speed by
//! reference slices run between the timed calls ([`speed`]), so that a
//! shared host's changing speed does not show as a change of the
//! program; the table prints the unscaled values beside them.
//!
//! Every run repeats the workload with the same seed until the budget
//! is spent, reports medians, and fails its correctness check when any
//! completion is not `Success`, a chaos oracle reports a violation, or
//! the digest of the simulated outputs differs between repetitions.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod fio;
pub mod metric;
pub mod rss;
pub mod speed;
pub mod stats;
pub mod traced;
pub mod workload;

use metric::{Outcome, Values, END_TO_END, PER_LAYER};
use speed::Meter;
use stats::{median, percentile, samples_beyond};
use std::time::{Duration, Instant};
use workload::{Kind, Workload};

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// The workload to run.
    pub workload: &'static Workload,
    /// Input seed: the testbed seed, or the chaos base seed's source.
    pub seed: u64,
    /// Host seconds to measure for.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

/// Parses `--workload NAME --seed N --seconds N --trace 0|1`.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10u64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(value).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("bad --seconds {value:?} (1..=600)"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?} (0 or 1)")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Repeats work until a host-time budget is spent and a minimum count
/// is reached.
pub struct Budget {
    start: Instant,
    limit: Duration,
    min: usize,
}

impl Budget {
    /// A budget of `seconds` and at least `min` repetitions.
    pub fn new(seconds: f64, min: usize) -> Budget {
        Budget {
            start: Instant::now(),
            limit: Duration::from_secs_f64(seconds),
            min,
        }
    }

    /// Whether to run another repetition after `done`.
    pub fn more(&self, done: usize) -> bool {
        done < self.min || self.start.elapsed() < self.limit
    }
}

/// Fewest repetitions an end-to-end run makes, whatever its budget.
pub const MIN_REPS: usize = 3;

/// The correctness-relevant facts of one repetition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepCheck {
    /// Digest of the simulated outputs.
    pub digest: u64,
    /// I/Os attempted.
    pub attempted: u64,
    /// Completions that were not `Success`.
    pub non_success: u64,
    /// I/Os whose outcome is wrong: a non-success fio completion, or
    /// an I/O of a chaos case whose oracles tripped.
    pub wrong: u64,
}

/// The run's correctness verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// Whether every check passed.
    pub correct: bool,
    /// I/Os attempted over every repetition.
    pub attempted: u64,
    /// I/Os counted as failed: all of them when a check failed.
    pub failed: u64,
    /// Non-success completions / attempted for one repetition, or 1
    /// when a check failed.
    pub failed_io_frac: f64,
    /// What failed, one line each.
    pub problems: Vec<String>,
}

impl Verdict {
    /// Records a failed check: every I/O of the run counts as failed.
    pub fn fail(&mut self, problem: String) {
        self.problems.push(problem);
        self.correct = false;
        self.failed = self.attempted;
        self.failed_io_frac = 1.0;
    }
}

/// Judges the repetitions of one seed. A run fails when any I/O has a
/// wrong outcome or the digests of its repetitions differ.
pub fn judge(reps: &[RepCheck]) -> Verdict {
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let mut verdict = Verdict {
        correct: true,
        attempted,
        failed: 0,
        failed_io_frac: match reps.first() {
            Some(r) if r.attempted > 0 => r.non_success as f64 / r.attempted as f64,
            _ => 1.0,
        },
        problems: Vec::new(),
    };
    if reps.is_empty() {
        verdict.fail("no repetition ran".to_string());
    }
    if reps.windows(2).any(|w| w[0].digest != w[1].digest) {
        let ds: Vec<String> = reps.iter().map(|r| format!("{:016x}", r.digest)).collect();
        verdict.fail(format!(
            "digest differs between repetitions of one seed: {}",
            ds.join(" ")
        ));
    }
    let wrong: u64 = reps.iter().map(|r| r.wrong).sum();
    if wrong > 0 {
        verdict.fail(format!("{wrong} I/Os with a wrong outcome"));
    }
    verdict
}

/// What a run prints: a human-readable table, then the result line.
pub struct Report {
    /// Table lines.
    pub lines: Vec<String>,
    /// Digest of the simulated outputs of the first repetition.
    pub digest: u64,
    /// The result record.
    pub outcome: Outcome,
}

/// Runs the parsed command line.
pub fn run(args: &Args) -> Report {
    run_workload(args.workload, args.seed, args.seconds as f64, args.trace)
}

/// Runs `w` with `seed` for a budget of `seconds` host seconds (at
/// least the minimum repetitions).
pub fn run_workload(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Report {
    let mut lines = vec![format!(
        "workload {} seed {seed} seconds {seconds} trace {}",
        w.name,
        u8::from(trace)
    )];
    let (verdict, values, digest, defs): (Verdict, Values, u64, &[metric::MetricDef]) = if trace {
        let (v, vals, d) = traced::run(w, seed, seconds, &mut lines);
        (v, vals, d, &PER_LAYER)
    } else {
        let (v, vals, d) = match w.kind {
            Kind::Fio { .. } => fio_end_to_end(w, seed, seconds, &mut lines),
            Kind::Chaos { cases } => chaos_end_to_end(seed, cases, seconds, &mut lines),
        };
        (v, vals, d, &END_TO_END)
    };
    for p in &verdict.problems {
        lines.push(format!("CHECK FAILED: {p}"));
    }
    let metrics = match values.select(defs) {
        Ok(m) => m,
        Err(missing) => panic!("metrics not measured: {}", missing.join(", ")),
    };
    lines.push(String::new());
    for (m, d) in metrics.iter().zip(defs) {
        lines.push(format!(
            "{:<46} {:>18.6} {:<10} {}",
            m.name, m.value, m.unit, d.about
        ));
    }
    Report {
        lines,
        digest,
        outcome: Outcome {
            correct: verdict.correct,
            attempted: verdict.attempted,
            failed: verdict.failed,
            metrics,
        },
    }
}

fn join(values: &[f64]) -> String {
    let v: Vec<String> = values.iter().map(|x| format!("{x:.6}")).collect();
    v.join(" ")
}

/// Table lines with the throughput of each repetition, scaled and as
/// measured, and the host-speed factors that relate them.
fn push_speed_lines(
    lines: &mut Vec<String>,
    rate: &[f64],
    raw_rate: &[f64],
    factors: &[f64],
    slices: &[f64],
) {
    lines.push(format!(
        "ios_per_host_s at the nominal host speed by repetition: {}",
        join(rate)
    ));
    lines.push(format!(
        "ios_per_host_s as measured by repetition: {} (median {})",
        join(raw_rate),
        median(raw_rate)
    ));
    lines.push(format!(
        "host speed factor by repetition (reference slice {} s nominal / measured; {} slices, median {} s): {}",
        speed::NOMINAL_SLICE_S,
        slices.len(),
        median(slices),
        join(factors)
    ));
}

/// The table line reporting `paper_err_pct` for a simulated mean
/// latency: the error, both latencies, and the cell's held-out status.
pub fn paper_err_line(cell: &workload::PaperCell, mean_us: f64) -> String {
    let paper_us = cell.latency_us();
    let err = (mean_us - paper_us).abs() / paper_us * 100.0;
    format!(
        "paper_err_pct {err} % (simulated mean {mean_us} us vs {} = {paper_us} us; {})",
        cell.label(),
        cell.held_out()
    )
}

/// Extra testbed builds timed per fio repetition, so `setup_s` is a
/// median over many samples.
pub const SETUP_SAMPLES_PER_REP: usize = 8;

/// Host-speed reference slices run between two fio repetitions.
pub const SLICES_BETWEEN_REPS: usize = 4;

fn sample_slices(meter: &mut Meter) {
    for _ in 0..SLICES_BETWEEN_REPS {
        meter.sample();
    }
}

fn fio_end_to_end(
    w: &Workload,
    seed: u64,
    seconds: f64,
    lines: &mut Vec<String>,
) -> (Verdict, Values, u64) {
    let Kind::Fio {
        testbed,
        spec,
        cell,
    } = w.kind
    else {
        unreachable!("fio workload")
    };
    let budget = Budget::new(seconds, MIN_REPS);
    let (mut setup, mut rate, mut raw_rate, mut factors, mut checks) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut mean_us, mut rss_mb) = (0.0, 0.0);
    let mut meter = Meter::new();
    sample_slices(&mut meter);
    while budget.more(checks.len()) {
        // The repetition's speed factor covers the reference slices just
        // before it, inside its World::run, and just after it.
        let from = meter.mark() - SLICES_BETWEEN_REPS;
        let mut setup_raw = Vec::with_capacity(SETUP_SAMPLES_PER_REP + 1);
        let t = Instant::now();
        let (rig, _) = fio::wire(testbed().with_seed(seed), spec());
        setup_raw.push(t.elapsed().as_secs_f64());
        let (fin, run_s) = rig.run_paced(&mut meter);
        let ios = fin.measured_ios() as f64;
        if checks.is_empty() {
            // One instance of the workload; later repetitions only
            // add allocator fragmentation.
            rss_mb = rss::peak_rss_mb();
            mean_us = fin.mean_latency_us;
        }
        checks.push(RepCheck {
            digest: fin.digest(),
            attempted: fin.tally.completions,
            non_success: fin.tally.non_success,
            wrong: fin.tally.non_success,
        });
        drop(fin);
        for _ in 0..SETUP_SAMPLES_PER_REP {
            let t = Instant::now();
            let rig = fio::wire(testbed().with_seed(seed), spec());
            setup_raw.push(t.elapsed().as_secs_f64());
            drop(rig);
        }
        sample_slices(&mut meter);
        let f = meter.factor(from);
        factors.push(f);
        raw_rate.push(ios / run_s);
        rate.push(ios / (run_s * f));
        setup.extend(setup_raw.iter().map(|s| s * f));
    }
    let verdict = judge(&checks);
    lines.push(format!(
        "repetitions {} digest {:016x}",
        checks.len(),
        checks[0].digest
    ));
    push_speed_lines(lines, &rate, &raw_rate, &factors, meter.slices());
    lines.push(format!(
        "setup_s median of {} builds at the nominal host speed; p25 {} p75 {}",
        setup.len(),
        percentile(&setup, 0.25),
        percentile(&setup, 0.75)
    ));
    lines.push(format!(
        "failed_io_frac {} frac ({} of {} I/Os not Success in one repetition)",
        verdict.failed_io_frac, checks[0].non_success, checks[0].attempted
    ));
    lines.push(paper_err_line(&cell, mean_us));
    let mut v = Values::default();
    v.set("ios_per_host_s", median(&rate));
    v.set("setup_s", median(&setup));
    v.set("peak_rss_mb", rss_mb);
    v.set("ok_io_frac", 1.0 - verdict.failed_io_frac);
    (verdict, v, checks[0].digest)
}

fn chaos_end_to_end(
    seed: u64,
    cases: u64,
    seconds: f64,
    lines: &mut Vec<String>,
) -> (Verdict, Values, u64) {
    let base = chaos::base_seed(seed, cases);
    let budget = Budget::new(seconds, MIN_REPS);
    let (mut setup, mut rate, mut case_ms, mut checks) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut first = None;
    let mut rss_mb = 0.0;
    let (mut raw_rate, mut factors) = (Vec::new(), Vec::new());
    let mut meter = Meter::new();
    while budget.more(checks.len()) {
        let from = meter.mark();
        let c = chaos::campaign(base, cases, false, Some(&mut meter));
        meter.sample();
        let f = meter.factor(from);
        factors.push(f);
        setup.push(c.setup_s() * f);
        raw_rate.push(c.issued as f64 / c.run_s());
        rate.push(c.issued as f64 / (c.run_s() * f));
        case_ms.extend(c.case_s.iter().map(|s| s * 1e3));
        checks.push(RepCheck {
            digest: c.digest,
            attempted: c.issued,
            non_success: c.failed_io,
            wrong: c.violating_ios,
        });
        if first.is_none() {
            rss_mb = rss::peak_rss_mb();
            first = Some(c);
        }
    }
    let verdict = judge(&checks);
    let c = first.expect("at least one repetition");
    let n = case_ms.len();
    lines.push(format!(
        "repetitions {} of {} cases (seeds {}..{}) digest {:016x}",
        checks.len(),
        cases,
        base,
        base + cases,
        c.digest
    ));
    push_speed_lines(lines, &rate, &raw_rate, &factors, meter.slices());
    lines.push(format!(
        "setup_s at the nominal host speed by repetition: {}",
        join(&setup)
    ));
    lines.push(format!(
        "failed_io_frac {} frac ({} of {} I/Os aborted or errored by injected faults; {} oracle violations)",
        verdict.failed_io_frac, c.failed_io, c.issued, c.violations
    ));
    let (p50, p99) = (percentile(&case_ms, 0.50), percentile(&case_ms, 0.99));
    lines.push(format!(
        "case_host_ms_p50 {p50} ms (n={n}, {} beyond)",
        samples_beyond(n, 0.50)
    ));
    lines.push(format!(
        "case_host_ms_p99 {p99} ms (n={n}, {} beyond)",
        samples_beyond(n, 0.99)
    ));
    lines.push("paper_err_pct not reported: the chaos workload has no paper cell".to_string());
    let mut v = Values::default();
    v.set("ios_per_host_s", median(&rate));
    v.set("setup_s", median(&setup));
    v.set("peak_rss_mb", rss_mb);
    v.set("ok_io_frac", 1.0 - verdict.failed_io_frac);
    (verdict, v, c.digest)
}
