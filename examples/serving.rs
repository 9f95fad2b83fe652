//! Serving many tenancy domains from one runtime.
//!
//! ```text
//! cargo run --release -p tempo-tests --example serving
//! ```
//!
//! Hosts a small fleet of independent Tempo controllers in a sharded
//! [`tempo_serve::ControllerRuntime`], streams job submissions into each
//! domain's workload window, rolls simulated time, and lets every
//! controller re-tune continuously — then snapshots the fleet and restores
//! it warm into a second runtime, exactly as a daemon restart would.

use std::sync::Arc;
use tempo_serve::demo::{contention_burst, contention_spec, DEMO_WINDOW};
use tempo_serve::{Clock, ControllerRuntime, SimClock};

fn main() {
    let clock = Arc::new(SimClock::new());
    let runtime = ControllerRuntime::new(4, Arc::<SimClock>::clone(&clock));

    // Six domains, each its own controller + workload window + seed.
    let ids: Vec<u64> = (0..6u64)
        .map(|i| {
            runtime
                .create_domain(contention_spec(&format!("tenant-domain-{i}"), i))
                .expect("valid demo spec")
        })
        .collect();
    println!("hosting {} domains across {} shards", ids.len(), runtime.num_shards());

    // Stream load and let every domain re-tune as simulated time rolls.
    println!("\nphase  now(min)  decisions  avg best-effort AJR(s)");
    for phase in 0..6u64 {
        for &id in &ids {
            runtime
                .ingest(id, contention_burst(phase * (DEMO_WINDOW / 2), 6, id ^ phase))
                .expect("ingest");
        }
        let records = runtime.advance_all();
        let tuned = records.iter().filter(|(_, r)| !r.skipped).count();
        let ajr: f64 =
            records.iter().filter(|(_, r)| !r.skipped).map(|(_, r)| r.observed_qs[1]).sum::<f64>()
                / tuned.max(1) as f64;
        println!(
            "{phase:>5}  {:>8}  {tuned:>9}  {ajr:>21.1}",
            clock.now() / tempo_workload::time::MIN
        );
        clock.advance(DEMO_WINDOW / 2);
    }

    let before = runtime.metrics();
    println!(
        "\nfleet totals: {} decisions, {} jobs ingested, {} What-if simulations",
        before.total_decisions, before.total_ingested, before.total_sims
    );

    // Daemon restart: snapshot, restore into a fresh runtime, keep going.
    let snapshot = runtime.snapshot();
    runtime.shutdown();
    let clock2 = Arc::new(SimClock::at(snapshot.clock_now));
    let runtime2 = ControllerRuntime::new(2, Arc::<SimClock>::clone(&clock2));
    let restored = runtime2.restore(snapshot).expect("restore fleet");
    for &id in &restored {
        runtime2
            .ingest(id, contention_burst(6 * (DEMO_WINDOW / 2), 6, id))
            .expect("ingest after restore");
    }
    let after = runtime2.advance_all();
    println!(
        "restored {} domains into a fresh runtime; {} more decisions after restart",
        restored.len(),
        after.iter().filter(|(_, r)| !r.skipped).count()
    );
    runtime2.shutdown();

    println!(
        "\n(wire mode: `tempo-serve --addr 127.0.0.1:7077` serves the same runtime over JSONL/TCP;"
    );
    println!(" `benchmark/run.sh --workload steady` drives and measures it)");
}
