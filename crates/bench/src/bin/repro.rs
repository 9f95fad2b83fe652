//! `repro` — regenerate the paper's tables and figures, and run the two
//! absolute performance gates.
//!
//! ```text
//! cargo run -p tempo-bench --release --bin repro -- all
//! cargo run -p tempo-bench --release --bin repro -- fig6 --full
//! cargo run -p tempo-bench --release --bin repro -- perf
//! ```
//!
//! Independent experiments run concurrently (bounded by the machine's
//! cores); output order always matches the order the ids were given.
//!
//! `perf` takes no options: it prints one row per gate (see
//! [`tempo_bench::perf`]) and exits non-zero when a bound is violated.
//! Everything else about Tempo's speed is measured by `benchmark/run.sh`.

use tempo_bench::{perf, run_experiments_parallel, Scale, ALL_EXPERIMENTS};

fn usage() -> ! {
    eprintln!("usage: repro <experiment|all> [--full] | repro perf");
    eprintln!("experiments: {ALL_EXPERIMENTS:?}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("perf") {
        if args.len() > 1 {
            usage();
        }
        match perf::perf() {
            Ok(table) => println!("{table}"),
            Err(table) => {
                eprintln!("{table}");
                std::process::exit(1);
            }
        }
        return;
    }
    let full = args.iter().any(|a| a == "--full");
    let scale = Scale::from_full_flag(full);
    let ids: Vec<&str> = args.iter().filter(|a| !a.starts_with("--")).map(String::as_str).collect();
    if ids.is_empty() {
        usage();
    }
    // The harness parallelizes across experiments; unless the caller pinned
    // a width, keep each experiment's inner What-if batches serial so the
    // two levels don't multiply into cores² threads. (Safe: main is still
    // single-threaded here.)
    if (ids.len() > 1 || ids.contains(&"all")) && std::env::var_os("TEMPO_THREADS").is_none() {
        std::env::set_var("TEMPO_THREADS", "1");
    }
    let mut failed = false;
    for result in run_experiments_parallel(&ids, scale) {
        match result {
            Ok(out) => println!("{out}"),
            Err(e) => {
                eprintln!("{e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
