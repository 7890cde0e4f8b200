//! The clock-frequency contract: `core.frequency_ghz` only converts cycles
//! to seconds.  Machines that differ in nothing else simulate every region
//! of every kernel to identical `RegionMetrics`, which is what lets a
//! design-space sweep run one detailed simulation for all of them
//! (`SimConfig::cycle_equivalent`).

use bp_sim::{Machine, SimConfig};
use bp_workload::{Benchmark, WorkloadConfig};

const THREADS: usize = 8;
const SCALE: f64 = 0.02;

#[test]
fn frequency_leaves_every_region_metric_unchanged() {
    let base = SimConfig::scaled(THREADS);
    for &benchmark in Benchmark::all() {
        let workload = benchmark.build(&WorkloadConfig::new(THREADS).with_scale(SCALE));
        let reference = Machine::new(&base).run_full(&workload);
        for factor in [0.5, 1.25, 3.0] {
            let mut clocked = base;
            clocked.core.frequency_ghz *= factor;
            assert!(clocked.cycle_equivalent(&base));
            let run = Machine::new(&clocked).run_full(&workload);
            assert_eq!(
                run.regions(),
                reference.regions(),
                "{}: region metrics at {factor}x the clock",
                benchmark.name()
            );
            assert_eq!(run.frequency_ghz(), clocked.core.frequency_ghz);
        }
    }
}
