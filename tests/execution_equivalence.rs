//! Serial-vs-parallel equivalence of the execution layer.
//!
//! The thread-major profiling refactor and the `bp-exec` fan-out are only
//! sound if [`ExecutionPolicy`] is purely a performance knob: every profile
//! and every pipeline outcome must be bit-identical under
//! [`ExecutionPolicy::Serial`] and [`ExecutionPolicy::Parallel`].  These
//! tests pin that down exhaustively over all 8 workload kernels at 1, 2, 4
//! and 8 threads, and property-test it over randomly generated synthetic
//! workloads.

use barrierpoint::{
    profile_application_with, BarrierPoint, BarrierPointOutcome, ExecutionPolicy, MruBoundaries,
    SimConfig, TraceWalk,
};
use bp_workload::{AccessPattern, Benchmark, SyntheticWorkloadBuilder, Workload, WorkloadConfig};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// An over-committed parallel policy so that the fan-out actually spawns
/// worker threads even on single-CPU CI machines.
fn parallel() -> ExecutionPolicy {
    ExecutionPolicy::parallel_with(4)
}

#[test]
fn profiles_are_identical_across_policies_for_all_kernels_and_threads() {
    for &bench in Benchmark::all() {
        for threads in THREAD_COUNTS {
            let w = bench.build(&WorkloadConfig::new(threads).with_scale(0.02));
            let serial = profile_application_with(&w, &ExecutionPolicy::Serial).unwrap();
            let parallel = profile_application_with(&w, &parallel()).unwrap();
            assert_eq!(
                serial, parallel,
                "{bench} at {threads} threads: profile differs between policies"
            );
        }
    }
}

fn outcome_fields(outcome: &BarrierPointOutcome) -> impl std::fmt::Debug + PartialEq + '_ {
    (
        outcome.profile(),
        outcome.selection(),
        outcome.barrierpoint_metrics(),
        outcome.reconstruction(),
    )
}

#[test]
fn outcomes_are_identical_across_policies_for_all_kernels_and_threads() {
    for &bench in Benchmark::all() {
        for threads in THREAD_COUNTS {
            let w = bench.build(&WorkloadConfig::new(threads).with_scale(0.02));
            let run = |policy: ExecutionPolicy| {
                BarrierPoint::new(&w)
                    .with_sim_config(SimConfig::tiny(threads))
                    .with_execution_policy(policy)
                    .run()
                    .unwrap()
            };
            let serial = run(ExecutionPolicy::Serial);
            let concurrent = run(parallel());
            assert_eq!(
                outcome_fields(&serial),
                outcome_fields(&concurrent),
                "{bench} at {threads} threads: outcome differs between policies"
            );
        }
    }
}

/// Random but structurally valid synthetic workloads (mixed private/shared
/// patterns, random seeds and schedules).
fn arbitrary_workload() -> impl Strategy<Value = bp_workload::SyntheticWorkload> {
    let phase_count = 1usize..=3;
    let region_count = 2usize..=12;
    let threads = prop_oneof![Just(1usize), Just(2usize), Just(4usize)];
    (phase_count, region_count, threads, any::<u32>()).prop_map(
        |(phases, regions, threads, seed)| {
            let mut builder = SyntheticWorkloadBuilder::new(
                "equivalence-prop",
                WorkloadConfig::new(threads).with_seed(u64::from(seed)),
            );
            let mut ids = Vec::new();
            for p in 0..phases {
                let bytes = (8 * 1024u64) << p;
                let id = builder
                    .phase(format!("phase{p}"), 48 + 16 * p as u64, true)
                    .pattern(AccessPattern::PrivateRandom { bytes, write_fraction: 0.3 })
                    .pattern(AccessPattern::SharedStream {
                        id: p as u32,
                        bytes,
                        stride: 64,
                        write_fraction: 0.1,
                        chunked: true,
                    })
                    .block(format!("phase{p}.a"), 8 + p as u32, 3, 0)
                    .block(format!("phase{p}.b"), 5, 2, 1)
                    .finish();
                ids.push(id);
            }
            for r in 0..regions {
                builder.schedule_one(ids[r % ids.len()]);
            }
            builder.build()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Equivalence holds on arbitrary synthetic workloads, not just the
    /// curated kernels.
    #[test]
    fn profiles_match_on_arbitrary_workloads(workload in arbitrary_workload()) {
        let serial = profile_application_with(&workload, &ExecutionPolicy::Serial).unwrap();
        let concurrent = profile_application_with(&workload, &parallel()).unwrap();
        prop_assert_eq!(serial, concurrent);
    }

    /// The fingerprint keying the profile cache is stable across policies and
    /// distinguishes seeds.
    #[test]
    fn fingerprints_are_policy_independent_and_seed_sensitive(
        (threads, seed) in (prop_oneof![Just(2usize), Just(4usize)], any::<u32>()),
    ) {
        let config = WorkloadConfig::new(threads).with_scale(0.02).with_seed(u64::from(seed));
        let a = Benchmark::NpbIs.build(&config);
        let b = Benchmark::NpbIs.build(&config);
        prop_assert_eq!(a.profile_fingerprint(), b.profile_fingerprint());
        let other = Benchmark::NpbIs
            .build(&WorkloadConfig::new(threads).with_scale(0.02).with_seed(u64::from(seed) + 1));
        prop_assert_ne!(a.profile_fingerprint(), other.profile_fingerprint());
    }

    /// The MRU-only collection walk agrees with its serial self under a
    /// parallel policy, for every capacity its bank assembles.
    #[test]
    fn parallel_multi_capacity_pass_is_policy_independent(
        threads in prop_oneof![Just(2usize), Just(4)],
        capacity in 32u64..256,
    ) {
        let workload = Benchmark::NpbCg.build(&WorkloadConfig::new(threads).with_scale(0.02));
        let targets = [2usize, 5];
        let capacities = [capacity, capacity * 8];
        let collect = |policy: &ExecutionPolicy| {
            let walk = TraceWalk::mru(MruBoundaries::Targets(&targets), capacity * 8);
            walk.run(&workload, policy, None).unwrap().bank.unwrap().assemble_multi(&targets, &capacities)
        };
        let serial = collect(&ExecutionPolicy::Serial);
        let parallel = collect(&ExecutionPolicy::parallel_with(threads));
        prop_assert_eq!(serial, parallel);
    }
}
