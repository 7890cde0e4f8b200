//! Property-based tests over the BarrierPoint invariants, using randomly
//! generated synthetic workloads.

use barrierpoint::{
    profile_application_with, reconstruct, select_barrierpoints, BarrierPointMetrics,
    ExecutionPolicy, SignatureConfig, SimPointConfig,
};
use bp_sim::{Machine, SimConfig};
use bp_workload::{AccessPattern, SyntheticWorkloadBuilder, Workload, WorkloadConfig};
use proptest::prelude::*;

/// Builds a random but structurally valid workload: up to 4 phases with
/// different working sets, scheduled over up to 24 regions.
fn arbitrary_workload() -> impl Strategy<Value = (bp_workload::SyntheticWorkload, usize)> {
    let phase_count = 1usize..=4;
    let region_count = 2usize..=24;
    let threads = prop_oneof![Just(2usize), Just(4usize)];
    (phase_count, region_count, threads, any::<u32>()).prop_map(
        |(phases, regions, threads, seed)| {
            let mut builder = SyntheticWorkloadBuilder::new(
                "prop-workload",
                WorkloadConfig::new(threads).with_seed(u64::from(seed)),
            );
            let mut ids = Vec::new();
            for p in 0..phases {
                let bytes = (16 * 1024u64) << p;
                let id = builder
                    .phase(format!("phase{p}"), 64 + 32 * p as u64, true)
                    .pattern(AccessPattern::PrivateStream { bytes, stride: 64 })
                    .pattern(AccessPattern::SharedRandom {
                        id: p as u32,
                        bytes,
                        write_fraction: 0.25,
                    })
                    .block(format!("phase{p}.a"), 10 + p as u32, 4, 0)
                    .block(format!("phase{p}.b"), 6, 3, 1)
                    .finish();
                ids.push(id);
            }
            for r in 0..regions {
                builder.schedule_one(ids[r % ids.len()]);
            }
            (builder.build(), threads)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The multiplier algebra must conserve instructions exactly:
    /// sum over barrierpoints of multiplier x representative instructions
    /// equals the application's total instruction count.
    #[test]
    fn multipliers_conserve_instructions((workload, _threads) in arbitrary_workload()) {
        let profile = profile_application_with(&workload, &ExecutionPolicy::Serial).unwrap();
        let selection = select_barrierpoints(
            &profile,
            &SignatureConfig::combined(),
            &SimPointConfig::paper(),
        )
        .unwrap();
        let reconstructed: f64 = selection
            .barrierpoints()
            .iter()
            .map(|bp| bp.multiplier * bp.instructions as f64)
            .sum();
        let total = selection.total_instructions() as f64;
        prop_assert!((reconstructed - total).abs() <= total * 1e-9);
        // Weight fractions form a partition of unity.
        let coverage: f64 = selection.barrierpoints().iter().map(|bp| bp.weight_fraction).sum();
        prop_assert!((coverage - 1.0).abs() < 1e-9);
        // Every region maps to a selected barrierpoint.
        for region in 0..selection.num_regions() {
            let rep = selection.barrierpoint_of(region).region;
            prop_assert!(selection.barrierpoint_regions().contains(&rep));
        }
    }

    /// When every region is its own barrierpoint, reconstruction from the
    /// full run's per-region metrics reproduces the total cycle count exactly.
    #[test]
    fn identity_selection_reconstructs_exactly((workload, threads) in arbitrary_workload()) {
        let profile = profile_application_with(&workload, &ExecutionPolicy::Serial).unwrap();
        let selection = select_barrierpoints(
            &profile,
            &SignatureConfig::combined(),
            // Forcing maxK to the region count with a strict BIC threshold may
            // still merge identical regions, so only assert when it didn't.
            &SimPointConfig::paper().with_max_k(workload.num_regions()),
        )
        .unwrap();
        let ground = Machine::new(&SimConfig::tiny(threads)).run_full(&workload);
        if selection.num_barrierpoints() == workload.num_regions() {
            let metrics: BarrierPointMetrics = selection
                .barrierpoint_regions()
                .into_iter()
                .map(|r| (r, ground.regions()[r].clone()))
                .collect();
            let estimate = reconstruct(&selection, &metrics, 2.66).unwrap();
            let actual = ground.total_cycles() as f64;
            prop_assert!((estimate.total_cycles() - actual).abs() <= actual * 1e-9);
        }
    }

    /// Profiling totals must agree with what the timing simulation retires:
    /// the signature-side instruction count is the same quantity the
    /// simulator's metrics report.
    #[test]
    fn profile_and_simulation_agree_on_instruction_counts((workload, threads) in arbitrary_workload()) {
        let profile = profile_application_with(&workload, &ExecutionPolicy::Serial).unwrap();
        let ground = Machine::new(&SimConfig::tiny(threads)).run_full(&workload);
        prop_assert_eq!(profile.total_instructions(), ground.total_instructions());
        for (region, metrics) in ground.regions().iter().enumerate() {
            prop_assert_eq!(profile.region_instructions(region), metrics.instructions);
        }
    }
}
