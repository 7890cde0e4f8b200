//! Design-space exploration with fixed units of work.
//!
//! Barrierpoints are microarchitecture-independent, so the one-time pipeline
//! artifacts — the signature profile and the barrierpoint selection — can be
//! reused across processor configurations: the use case motivating the
//! paper's Figure 6 (cross-core-count validation) and Figure 8 (relative
//! scaling).  This example explores one 8-thread CG run under two selection
//! strategies (the paper's SimPoint pipeline and the two-phase stratified
//! backend).  Each strategy gets one `Sweep` over three machine
//! configurations (the stock clock, a faster clock and a half-size LLC) and
//! one cross-core-count leg: its selection, through
//! `Selected::simulate_on`, drives the 32-thread build of the same
//! benchmark.  Both strategies share one artifact cache, so the whole
//! exploration — eight legs — runs ONE profiling pass.  It then verifies
//! the Figure 8 prediction of each strategy against full detailed
//! simulations.
//!
//! ```bash
//! cargo run --release --example design_space_exploration
//! ```

use barrierpoint::evaluate::{estimate_from_full_run, relative_scaling};
use barrierpoint::{
    ArtifactCache, BarrierPoint, ExecutionPolicy, SelectionStrategy, SimPointConfig,
    SimPointStrategy, Sweep, TwoPhaseStratified,
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
    // ...and the 32-core machine for the 32-thread build.
    let base32 = SimConfig::scaled(32);
    let strategies: [(&str, Arc<dyn SelectionStrategy>); 2] = [
        ("simpoint", Arc::new(SimPointStrategy::new(SimPointConfig::paper()))),
        ("stratified", Arc::new(TwoPhaseStratified::with_budget(10))),
    ];
    // Serial on 1-CPU hosts, parallel over all CPUs otherwise; parallel legs
    // share one worker budget (idle workers steal from busy legs).
    let policy = ExecutionPolicy::auto();

    println!(
        "{:<24} {:>5} {:>6} {:>14} {:>6} {:>10}",
        "leg", "cores", "GHz", "est. time (ms)", "IPC", "DRAM APKI"
    );
    let start = Instant::now();
    let (mut profile_passes, mut clustering_passes, mut warmup_collections) = (0, 0, 0);
    let (mut simulate_legs, mut simulated_cache_hits, mut legs) = (0, 0, 0);
    let mut selections = Vec::new();
    for (label, strategy) in &strategies {
        // One sweep per strategy: every machine variant of the 8-thread
        // build, over the one shared cache.
        let report = Sweep::new(&workload8)
            .with_cache(cache.clone())
            .with_execution_policy(policy)
            .with_selection_strategy(Arc::clone(strategy))
            .add_config("8c-base", base)
            .add_config("8c-fast-clock", fast_clock)
            .add_config("8c-small-llc", small_llc)
            .run()?;
        // The cross-core-count leg (Figure 6): the staged chain resolves the
        // same selection from the cache and simulates the 32-thread build
        // with it.
        let selected = BarrierPoint::new(&workload8)
            .with_cache(cache.clone())
            .with_execution_policy(policy)
            .with_selection_strategy(Arc::clone(strategy))
            .select()?;
        assert_eq!(selected.selection(), report.selection(), "one selection per strategy");
        let leg32 = selected.simulate_on(&workload32, &base32)?;

        let rows = report.legs().iter().map(|leg| (leg.label(), leg.simulated()));
        for (leg_label, simulated) in rows.chain([("32c-base", &*leg32)]) {
            let r = simulated.reconstruction();
            println!(
                "{:<24} {:>5} {:>6.2} {:>14.3} {:>6.2} {:>10.2}",
                format!("{label}/{leg_label}"),
                simulated.sim_config().num_cores,
                simulated.sim_config().core.frequency_ghz,
                r.execution_time_seconds() * 1e3,
                r.aggregate_ipc(),
                r.dram_apki(),
            );
        }

        let c = report.counters();
        if c.profile_passes == 1 {
            // The profiling sweep walks each per-thread trace exactly once:
            // the fused pass feeds the profiler and the MRU collector.
            assert_eq!(c.trace_walks, workload8.num_threads(), "cold sweep walks each trace once");
        }
        profile_passes += c.profile_passes + usize::from(!selected.profile_was_cached());
        clustering_passes += c.clustering_passes;
        warmup_collections += c.warmup_collections;
        simulate_legs += c.simulate_legs;
        simulated_cache_hits += c.simulated_cache_hits;
        legs += report.legs().len() + 1;
        selections.push((*label, selected.into_selection()));
    }
    let elapsed = start.elapsed();
    println!(
        "\n{} legs took {:.2?} — {} profiling pass(es), {} clustering pass(es); the sweeps \
         ran {} warmup collection(s), executed {} simulated leg(s) and served {} from the \
         cache (a warm re-run loads everything and executes zero legs)",
        legs,
        elapsed,
        profile_passes,
        clustering_passes,
        warmup_collections,
        simulate_legs,
        simulated_cache_hits,
    );

    // Both strategies ride on ONE signature profile: at most one profiling
    // pass ever runs (zero on a warm cache).
    assert!(profile_passes <= 1, "one profile must serve both strategies");
    assert_eq!(legs, 8, "two strategies × (three machine variants + one 32-core leg)");
    if profile_passes == 1 {
        assert_eq!(clustering_passes, 2, "one clustering pass per strategy");
    }

    // Verify the headline Figure 8 prediction against detailed ground truth,
    // once per strategy: the machine-independent artifacts differ only in
    // which regions each strategy picked.
    let ground8 = Machine::new(&base).run_full(&workload8);
    let ground32 = Machine::new(&base32).run_full(&workload32);
    println!();
    println!("8-core measured time   : {:>9.3} ms", ground8.execution_time_seconds() * 1e3);
    println!("32-core measured time  : {:>9.3} ms", ground32.execution_time_seconds() * 1e3);
    for (label, selection) in &selections {
        let estimate8 = estimate_from_full_run(selection, &ground8)?;
        let estimate32 = estimate_from_full_run(selection, &ground32)?;
        let scaling = relative_scaling(&ground8, &estimate8, &ground32, &estimate32);
        println!();
        println!("strategy {:<12} ({} barrierpoints)", label, selection.num_barrierpoints());
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
