//! Design-space exploration with fixed units of work.
//!
//! Barrierpoints are microarchitecture-independent, so the one-time pipeline
//! artifacts — the signature profile and the barrierpoint selection — can be
//! reused across processor configurations: the use case motivating the
//! paper's Figure 6 (cross-core-count validation) and Figure 8 (relative
//! scaling).  This example drives the `Sweep` subsystem over a full
//! **strategy × machine** grid of one 8-thread CG run: two selection
//! strategies (the paper's SimPoint pipeline and the two-phase stratified
//! backend) crossed with three machine configurations (the stock clock, a
//! faster clock and a half-size LLC) plus a cross-core-count design point
//! reusing the same selections for the 32-thread build — eight legs, ONE
//! profiling pass.  It then verifies the Figure 8 prediction of each
//! strategy against full detailed simulations.
//!
//! ```bash
//! cargo run --release --example design_space_exploration
//! ```

use barrierpoint::evaluate::{estimate_from_full_run, relative_scaling};
use barrierpoint::{
    ArtifactCache, ExecutionPolicy, SimPointConfig, SimPointStrategy, Sweep, TwoPhaseStratified,
};
use bp_sim::{Machine, SimConfig};
use bp_workload::{Benchmark, Workload, WorkloadConfig};
use std::sync::Arc;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let benchmark = Benchmark::NpbCg;
    // Nominal scale: CG's working set then exceeds one socket's LLC but fits
    // four sockets' combined LLC, which is what produces the super-linear
    // scaling of Figure 8.
    let scale = 1.0;
    let workload8 = benchmark.build(&WorkloadConfig::new(8).with_scale(scale));
    let workload32 = benchmark.build(&WorkloadConfig::new(32).with_scale(scale));

    // The one-time artifacts (profile + one selection per strategy) persist
    // on disk, so a re-run of this example skips profiling *and* both
    // clustering passes entirely.
    let cache = ArtifactCache::new(std::env::temp_dir().join("barrierpoint-artifact-cache"));
    println!("artifact cache at {}\n", cache.root().display());

    // Three machine variants for the 8-thread build...
    let base = SimConfig::scaled(8);
    let mut fast_clock = base;
    fast_clock.core.frequency_ghz *= 1.25;
    let mut small_llc = base;
    small_llc.memory.l3.size_bytes /= 2;

    let start = Instant::now();
    let sweep_report = Sweep::new(&workload8)
        .with_cache(cache.clone())
        // Serial on 1-CPU hosts, parallel over all CPUs otherwise; parallel
        // legs share one worker budget (idle workers steal from busy legs).
        .with_execution_policy(ExecutionPolicy::auto())
        // The strategy axis: every design point below is simulated once per
        // strategy, but profiling still happens once for the whole grid.
        .add_strategy("simpoint", Arc::new(SimPointStrategy::new(SimPointConfig::paper())))
        .add_strategy("stratified", Arc::new(TwoPhaseStratified::with_budget(10)))
        .add_config("8c-base", base)
        .add_config("8c-fast-clock", fast_clock)
        .add_config("8c-small-llc", small_llc)
        // ...plus a cross-core-count design point (Figure 6): the 32-thread
        // build simulated with the *same* selections.
        .add_point("32c-base", SimConfig::scaled(32), &workload32)
        .run()?;
    let elapsed = start.elapsed();

    println!(
        "{:<24} {:>5} {:>6} {:>14} {:>6} {:>10}",
        "leg", "cores", "GHz", "est. time (ms)", "IPC", "DRAM APKI"
    );
    for leg in sweep_report.legs() {
        let r = leg.reconstruction();
        println!(
            "{:<24} {:>5} {:>6.2} {:>14.3} {:>6.2} {:>10.2}",
            leg.label(),
            leg.sim_config().num_cores,
            leg.sim_config().core.frequency_ghz,
            r.execution_time_seconds() * 1e3,
            r.aggregate_ipc(),
            r.dram_apki(),
        );
    }
    let c = sweep_report.counters();
    println!(
        "\nsweep of {} design points took {:.2?} — {} profiling pass(es), {} clustering \
         pass(es), {} warmup collection(s), {} simulated leg(s) executed, {} served from \
         the cache (a warm re-run loads everything and executes zero legs)",
        sweep_report.legs().len(),
        elapsed,
        c.profile_passes,
        c.clustering_passes,
        c.warmup_collections,
        c.simulate_legs,
        c.simulated_cache_hits,
    );

    // The whole strategy × machine grid rides on ONE signature profile: at
    // most one profiling pass ever runs (zero on a warm cache), and on the
    // cold run the per-thread traces are walked exactly once per workload
    // (8 for the profiled build, 32 for the cross-core-count point).
    assert!(c.profile_passes <= 1, "one profile must serve the whole strategy × machine grid");
    assert_eq!(sweep_report.legs().len(), 8, "two strategies × four design points");
    if c.profile_passes == 1 {
        let cold_walks = workload8.num_threads() + workload32.num_threads();
        assert_eq!(c.trace_walks, cold_walks, "cold grid walks each per-thread trace once");
        assert_eq!(c.clustering_passes, 2, "one clustering pass per strategy");
    }

    // Verify the headline Figure 8 prediction against detailed ground truth,
    // once per strategy: the machine-independent artifacts differ only in
    // which regions each strategy picked.
    let ground8 = Machine::new(&SimConfig::scaled(8)).run_full(&workload8);
    let ground32 = Machine::new(&SimConfig::scaled(32)).run_full(&workload32);
    println!();
    println!("8-core measured time   : {:>9.3} ms", ground8.execution_time_seconds() * 1e3);
    println!("32-core measured time  : {:>9.3} ms", ground32.execution_time_seconds() * 1e3);
    for entry in sweep_report.selections() {
        let selection = entry.selection();
        let estimate8 = estimate_from_full_run(selection, &ground8)?;
        let estimate32 = estimate_from_full_run(selection, &ground32)?;
        let scaling = relative_scaling(&ground8, &estimate8, &ground32, &estimate32);
        println!();
        println!(
            "strategy {:<12} ({} barrierpoints)",
            entry.label(),
            selection.num_barrierpoints()
        );
        println!("  actual 8->32 speedup   : {:>9.2} x", scaling.actual_speedup);
        println!("  predicted 8->32 speedup: {:>9.2} x", scaling.predicted_speedup);
        println!("  prediction error       : {:>9.2} %", scaling.percent_error());
    }
    println!();
    println!(
        "(CG's working set fits the 32-core machine's aggregate LLC but not the \
         8-core machine's, so super-linear scaling is expected — Figure 8.)"
    );
    Ok(())
}
