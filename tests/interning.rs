//! The interned profile layout: each distinct region signature stored once,
//! in order of first occurrence, plus every region's position among them.
//!
//! Every kernel's profile, at two thread counts, must read back region for
//! region as the dense region-major reference in `tests/reference` builds
//! it; its tables must be in first-occurrence order with no value twice; a
//! walk cut into checkpointed segments must produce the sequential walk's
//! tables entry for entry; and a decoded profile whose index points past
//! its table must be a decode error, never a panic.  (bp-core's cache unit
//! tests seal such payloads into entries under the right key and check that
//! each reads as a miss, is recomputed and heals the entry.)

use barrierpoint::{
    profile_application_with, ApplicationProfile, ExecutionPolicy, SignatureConfig, TraceWalk,
};
use bp_signature::PerRegion;
use bp_workload::{Benchmark, Workload, WorkloadConfig};

mod reference;

const SCALE: f64 = 0.02;

/// Asserts `table` holds no value twice and lists its values in order of
/// first occurrence.
fn assert_first_occurrence_order<T: PartialEq + std::fmt::Debug>(table: &PerRegion<T>) {
    let mut next = 0;
    for (region, &id) in table.index().iter().enumerate() {
        assert!(id <= next, "region {region} names value {id} before value {next}");
        next += u32::from(id == next);
    }
    assert_eq!(next as usize, table.distinct().len(), "every value is named");
    for (i, value) in table.distinct().iter().enumerate() {
        assert!(!table.distinct()[..i].contains(value), "value {i} is stored twice");
    }
}

#[test]
fn every_region_reads_back_as_the_dense_reference() {
    for &benchmark in Benchmark::all() {
        for threads in [2, 8] {
            let w = benchmark.build(&WorkloadConfig::new(threads).with_scale(SCALE));
            let profile = profile_application_with(&w, &ExecutionPolicy::Serial).unwrap();
            let dense = reference::profile(&w);
            let case = format!("{} at {threads} threads", benchmark.name());
            assert_eq!(profile.num_regions(), dense.len(), "{case}");
            for (region, expected) in dense.iter().enumerate() {
                assert_eq!(profile.signatures().get(region), expected, "{case} region {region}");
                assert_eq!(
                    profile.region_instructions(region),
                    expected.total_instructions(),
                    "{case}"
                );
            }
            assert_first_occurrence_order(profile.signatures());
        }
    }
}

#[test]
fn iterative_kernels_store_few_distinct_signatures() {
    for (benchmark, regions) in [(Benchmark::NpbBt, 1001), (Benchmark::NpbLu, 503)] {
        let w = benchmark.build(&WorkloadConfig::new(2).with_scale(SCALE));
        let profile = profile_application_with(&w, &ExecutionPolicy::Serial).unwrap();
        let signatures = profile.signatures();
        assert_eq!(signatures.len(), regions);
        assert!(
            signatures.distinct().len() * 10 < regions,
            "{}: {} distinct of {regions}",
            benchmark.name(),
            signatures.distinct().len()
        );
        let vectors = profile.assemble_vectors(&SignatureConfig::combined());
        assert_eq!(vectors.index(), signatures.index(), "one vector per distinct signature");
    }
}

#[test]
fn a_segmented_walk_yields_the_sequential_tables() {
    let policy = ExecutionPolicy::parallel_with(2);
    for benchmark in [Benchmark::NpbCg, Benchmark::NpbMg, Benchmark::NpbSp] {
        let w = benchmark.build(&WorkloadConfig::new(2).with_scale(SCALE));
        let sequential = profile_application_with(&w, &ExecutionPolicy::Serial).unwrap();
        for segments in [2, 5, w.num_regions()] {
            let walk = TraceWalk::profile().emitting_checkpoints(segments);
            let checkpoints = walk.run(&w, &policy, None).unwrap().checkpoints.unwrap();
            let resumed =
                TraceWalk::profile().resuming(&checkpoints).run(&w, &policy, None).unwrap();
            let resumed = resumed.profile.unwrap();
            let case = format!("{} in {segments} segments", benchmark.name());
            assert_eq!(
                resumed.signatures().distinct(),
                sequential.signatures().distinct(),
                "{case}"
            );
            assert_eq!(resumed.signatures().index(), sequential.signatures().index(), "{case}");
        }
    }
}

/// `profile`'s payload cut to a one-signature table (its region 0's) with
/// every region naming signature `id`.
fn payload_naming(profile: &ApplicationProfile, id: u32) -> Vec<u8> {
    let mut out = serde::Serializer::new();
    out.write_str(profile.workload_name());
    out.write_u64(profile.threads() as u64);
    out.write_len(1);
    serde::Serialize::serialize(profile.signatures().get(0), &mut out);
    out.write_len(profile.num_regions());
    (0..profile.num_regions()).for_each(|_| out.write_u32(id));
    out.into_bytes()
}

#[test]
fn an_index_past_the_table_is_a_decode_error() {
    let w = Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(SCALE));
    let profile = profile_application_with(&w, &ExecutionPolicy::Serial).unwrap();
    assert!(serde::from_slice::<ApplicationProfile>(&payload_naming(&profile, 0)).is_ok());
    for id in [1, 7, u32::MAX] {
        let decoded = serde::from_slice::<ApplicationProfile>(&payload_naming(&profile, id));
        assert!(decoded.is_err(), "index {id}: {decoded:?}");
    }
}
