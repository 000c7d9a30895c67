//! `simbench --workload NAME --seed N --seconds N --trace 0|1`
//!
//! Prints a table, then one JSON result line (see `BENCHMARK.json` at
//! the repository root). Exits 2 on a bad command line.

use bm_simbench::{parse_args, run};

/// Counts allocations for the traced run's `bm_prof::alloc` numbers.
/// Counting is armed only in traced repetitions; otherwise each
/// allocation pays one thread-local flag check.
#[global_allocator]
static ALLOCATOR: bm_prof::alloc::CountingAlloc = bm_prof::alloc::CountingAlloc;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simbench: {e}");
            std::process::exit(2);
        }
    };
    let report = run(&args);
    for line in &report.lines {
        println!("{line}");
    }
    println!("{}", report.outcome.to_json());
}
