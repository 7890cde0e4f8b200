//! Segment-parallel walk equivalence: checkpoint-resumed segments must be
//! invisible in every artifact.
//!
//! The segment scheduler splits each thread's trace walk into S
//! checkpoint-resumed segments so a re-profile can fan `threads × segments`
//! jobs onto the worker budget.  Bit-identity with one sequential walk is
//! the contract: these tests pin it across the whole kernel suite, every
//! thread count the paper evaluates, and segment counts from 1 (no cuts)
//! through one-segment-per-region — and on random synthetic workloads with
//! random cut sets, all the way downstream through barrierpoint selection.

use barrierpoint::{
    profile_and_collect_warmup, profile_application_segmented, select_barrierpoints,
    ApplicationProfile, Error, ExecutionPolicy, MruBoundaries, SignatureConfig, SimPointConfig,
    TraceWalk, WorkerBudget, WorkloadCheckpoints, DEFAULT_SEGMENTS,
};
use bp_signature::ApplicationProfiler;
use bp_warmup::{collect_mru_warmup, MruSnapshotBank};
use bp_workload::{
    Benchmark, FingerprintHasher, SyntheticWorkload, SyntheticWorkloadBuilder, Workload,
    WorkloadConfig,
};
use proptest::prelude::*;

/// The MRU collection capacity (lines) the matrix checkpoints are taken at.
const COLLECTION: u64 = 512;

/// Region boundaries probed for warmup equivalence: first, an early one, a
/// mid one, and the last (clamped to the region count).
fn probe_targets(num_regions: usize) -> Vec<usize> {
    let mut targets = vec![0, 1, num_regions / 2, num_regions.saturating_sub(1)];
    targets.sort_unstable();
    targets.dedup();
    targets
}

/// The fused walk from region 0, emitting checkpoints for `segments`
/// segments at `capacity` lines.
fn checkpointed<W: Workload + ?Sized>(
    w: &W,
    capacity: u64,
    policy: &ExecutionPolicy,
    segments: usize,
) -> Result<(ApplicationProfile, MruSnapshotBank, WorkloadCheckpoints), Error> {
    let walk = TraceWalk::profile().with_mru(MruBoundaries::Every, capacity);
    let walked = walk.emitting_checkpoints(segments).run(w, policy, None)?;
    Ok((walked.profile.unwrap(), walked.bank.unwrap(), walked.checkpoints.unwrap()))
}

/// The fused re-walk resumed from `checkpoints`.
fn resumed_fused<W: Workload + ?Sized>(
    w: &W,
    checkpoints: &WorkloadCheckpoints,
    policy: &ExecutionPolicy,
) -> Result<(ApplicationProfile, MruSnapshotBank), Error> {
    let walk = TraceWalk::profile()
        .with_mru(MruBoundaries::Every, checkpoints.collection_capacity())
        .resuming(checkpoints);
    let walked = walk.run(w, policy, None)?;
    Ok((walked.profile.unwrap(), walked.bank.unwrap()))
}

/// The every-boundary MRU collection resumed from `checkpoints`.
fn resumed_bank<W: Workload + ?Sized>(
    w: &W,
    checkpoints: &WorkloadCheckpoints,
    policy: &ExecutionPolicy,
    budget: Option<&WorkerBudget>,
) -> Result<MruSnapshotBank, Error> {
    let walk = TraceWalk::mru(MruBoundaries::Every, checkpoints.collection_capacity());
    Ok(walk.resuming(checkpoints).run(w, policy, budget)?.bank.unwrap())
}

/// A random synthetic workload: one streaming-plus-shared-random phase
/// repeated `regions` times.
fn synthetic(threads: usize, regions: usize, seed: u32) -> SyntheticWorkload {
    let mut builder = SyntheticWorkloadBuilder::new(
        "seg-prop",
        WorkloadConfig::new(threads).with_seed(u64::from(seed)),
    );
    let phase = builder
        .phase("p0", 48, true)
        .pattern(bp_workload::AccessPattern::PrivateStream { bytes: 32 * 1024, stride: 64 })
        .pattern(bp_workload::AccessPattern::SharedRandom {
            id: 0,
            bytes: 64 * 1024,
            write_fraction: 0.3,
        })
        .block("work", 20, 4, 0)
        .block("mix", 12, 2, 1)
        .finish();
    builder.schedule_repeat(phase, regions);
    builder.build()
}

#[test]
fn segmented_walks_are_bit_identical_across_the_whole_suite() {
    // All 8 kernels × 1/2/4/8 threads × segment counts {1, 2, 3, 7,
    // regions}: the checkpointed cold pass and the checkpoint-resumed
    // segmented re-walk must both reproduce the sequential profile and
    // snapshot bank bit for bit.
    for &bench in Benchmark::all() {
        for threads in [1usize, 2, 4, 8] {
            let w = bench.build(&WorkloadConfig::new(threads).with_scale(0.02));
            let regions = w.num_regions();
            let policy = ExecutionPolicy::parallel_with(threads);
            let (sequential, bank) =
                profile_and_collect_warmup(&w, &[COLLECTION], &policy, None).unwrap();
            let targets = probe_targets(regions);
            for segments in [1usize, 2, 3, 7, regions] {
                let (ck_profile, ck_bank, checkpoints) =
                    checkpointed(&w, COLLECTION, &policy, segments).unwrap();
                assert_eq!(
                    ck_profile, sequential,
                    "{bench:?} at {threads} threads, {segments} segments: checkpointed cold \
                     pass profile differs"
                );
                let (seg_profile, seg_bank) = resumed_fused(&w, &checkpoints, &policy).unwrap();
                assert_eq!(
                    seg_profile, sequential,
                    "{bench:?} at {threads} threads, {segments} segments: segmented re-walk \
                     profile differs"
                );
                for capacity in [1u64, 64, COLLECTION] {
                    let expected = bank.assemble(&targets, capacity);
                    assert_eq!(
                        ck_bank.assemble(&targets, capacity),
                        expected,
                        "{bench:?} at {threads} threads, {segments} segments, capacity \
                         {capacity}: checkpointed cold bank differs"
                    );
                    assert_eq!(
                        seg_bank.assemble(&targets, capacity),
                        expected,
                        "{bench:?} at {threads} threads, {segments} segments, capacity \
                         {capacity}: segmented bank differs"
                    );
                }
            }
        }
    }
}

#[test]
fn segmented_walks_are_schedule_invariant_under_the_worker_budget() {
    // The `threads × segments` fan-out must agree exactly whether the jobs
    // run serially, fully parallel, or throttled by a budget smaller than
    // the job count — and every permit must come back.
    let w = Benchmark::NpbMg.build(&WorkloadConfig::new(4).with_scale(0.02));
    let (_, _, checkpoints) = checkpointed(&w, COLLECTION, &ExecutionPolicy::Serial, 3).unwrap();
    assert_eq!(checkpoints.segment_jobs(), 12, "4 threads × 3 segments");
    let serial =
        profile_application_segmented(&w, &checkpoints, &ExecutionPolicy::Serial, None).unwrap();
    let parallel =
        profile_application_segmented(&w, &checkpoints, &ExecutionPolicy::parallel_with(12), None)
            .unwrap();
    let budget = WorkerBudget::new(5);
    let budgeted = profile_application_segmented(
        &w,
        &checkpoints,
        &ExecutionPolicy::parallel_with(12),
        Some(&budget),
    )
    .unwrap();
    assert_eq!(serial, parallel);
    assert_eq!(serial, budgeted);
    assert_eq!(budget.available(), 5, "all permits returned");
    let targets = probe_targets(w.num_regions());
    let serial_bank = resumed_bank(&w, &checkpoints, &ExecutionPolicy::Serial, None).unwrap();
    let budgeted_bank =
        resumed_bank(&w, &checkpoints, &ExecutionPolicy::parallel_with(12), Some(&budget)).unwrap();
    assert_eq!(
        serial_bank.assemble(&targets, COLLECTION),
        budgeted_bank.assemble(&targets, COLLECTION)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random synthetic workloads (random phase structure, seeds, thread
    /// counts) and random cut sets: the stitched segmented artifacts must be
    /// byte-identical to one sequential walk — the profile, the snapshot
    /// bank assembled at *every* region boundary, and the barrierpoint
    /// selection computed downstream of the profile.
    #[test]
    fn segmentation_is_invisible_in_every_artifact_on_random_workloads(
        threads_pow in 0u32..3,
        regions in 2usize..14,
        seed in any::<u32>(),
        segments in 1usize..16,
        capacity in 16u64..1024,
    ) {
        let w = synthetic(1usize << threads_pow, regions, seed);
        let policy = ExecutionPolicy::Serial;
        let (sequential, bank) =
            profile_and_collect_warmup(&w, &[capacity], &policy, None).unwrap();
        let (_, _, checkpoints) = checkpointed(&w, capacity, &policy, segments).unwrap();
        let (profile, seg_bank) = resumed_fused(&w, &checkpoints, &policy).unwrap();
        prop_assert_eq!(&profile, &sequential);
        let every_boundary: Vec<usize> = (0..w.num_regions()).collect();
        prop_assert_eq!(
            seg_bank.assemble(&every_boundary, capacity),
            bank.assemble(&every_boundary, capacity)
        );
        let signatures = SignatureConfig::combined();
        let simpoint = SimPointConfig::paper();
        prop_assert_eq!(
            select_barrierpoints(&profile, &signatures, &simpoint).unwrap(),
            select_barrierpoints(&sequential, &signatures, &simpoint).unwrap()
        );
    }
}

/// The observers a matrix request attaches.
#[derive(Debug, Clone, Copy)]
enum Observers {
    Profile,
    Mru,
    Both,
}

/// Where a matrix request starts.
#[derive(Debug, Clone, Copy)]
enum Start {
    Beginning,
    Emitting,
    Resumed,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every request the walk type can express — profile only, MRU only or
    /// both; every boundary or a random target list (duplicates and
    /// boundaries past the region count included); from region 0, from
    /// region 0 emitting checkpoints, or resumed; serial, parallel or
    /// budgeted — against the region-major oracles on random workloads:
    /// the profile must equal `ApplicationProfiler::profile_all`, and every
    /// payload the bank assembles must equal `collect_mru_warmup` at the
    /// capacities {1, mid, collection}.
    #[test]
    fn every_walk_request_matches_the_region_major_oracles(
        threads_pow in 0u32..3,
        regions in 2usize..14,
        seed in any::<u32>(),
        targets in proptest::collection::vec(0usize..16, 0..5),
        segments in 1usize..8,
        capacity in 16u64..512,
    ) {
        let threads = 1usize << threads_pow;
        let w = synthetic(threads, regions, seed);
        let oracle = ApplicationProfiler::new(&w).profile_all(&w);
        let every: Vec<usize> = (0..regions).collect();
        // Checkpoints above the requested capacity: a resumed bank is
        // collected at theirs and truncated on assembly.
        let (_, _, checkpoints) =
            checkpointed(&w, 2 * capacity, &ExecutionPolicy::Serial, segments).unwrap();
        let budget = WorkerBudget::new(3);
        let executions = [
            (ExecutionPolicy::Serial, None),
            (ExecutionPolicy::parallel_with(4), None),
            (ExecutionPolicy::parallel_with(4), Some(&budget)),
        ];
        for observers in [Observers::Profile, Observers::Mru, Observers::Both] {
            for boundaries in [MruBoundaries::Every, MruBoundaries::Targets(&targets)] {
                for start in [Start::Beginning, Start::Emitting, Start::Resumed] {
                    for (policy, budget) in &executions {
                        let mut walk = match observers {
                            Observers::Profile => TraceWalk::profile(),
                            Observers::Mru => TraceWalk::mru(boundaries, capacity),
                            Observers::Both => TraceWalk::profile().with_mru(boundaries, capacity),
                        };
                        walk = match start {
                            Start::Beginning => walk,
                            Start::Emitting => walk.emitting_checkpoints(segments),
                            Start::Resumed => walk.resuming(&checkpoints),
                        };
                        let case = format!("{observers:?} {boundaries:?} {start:?} {policy:?}");
                        let walked = walk.run(&w, policy, *budget).unwrap();
                        prop_assert_eq!(budget.map_or(3, WorkerBudget::available), 3, "{}", case);
                        match start {
                            Start::Resumed => {
                                prop_assert_eq!(walked.jobs, checkpoints.segment_jobs());
                                prop_assert_eq!(
                                    walked.restores,
                                    threads * (checkpoints.num_segments() - 1)
                                );
                            }
                            _ => {
                                prop_assert_eq!(walked.jobs, threads);
                                prop_assert_eq!(walked.restores, 0);
                            }
                        }
                        prop_assert_eq!(
                            walked.checkpoints.is_some(),
                            matches!(start, Start::Emitting),
                            "{}",
                            case
                        );
                        match (observers, &walked.profile) {
                            (Observers::Mru, profile) => prop_assert!(profile.is_none(), "{}", case),
                            (_, Some(profile)) => {
                                prop_assert_eq!(profile.threads(), threads);
                                prop_assert_eq!(profile.signatures(), &oracle[..], "{}", case);
                            }
                            (_, None) => panic!("{case}: no profile"),
                        }
                        match (observers, &walked.bank) {
                            (Observers::Profile, bank) => prop_assert!(bank.is_none(), "{}", case),
                            (_, Some(bank)) => {
                                let probed = match boundaries {
                                    MruBoundaries::Every => &every[..],
                                    MruBoundaries::Targets(targets) => targets,
                                };
                                for c in [1, capacity / 2, capacity] {
                                    prop_assert_eq!(
                                        bank.assemble(probed, c),
                                        collect_mru_warmup(&w, probed, c),
                                        "{} capacity {}",
                                        case,
                                        c
                                    );
                                }
                            }
                            (_, None) => panic!("{case}: no bank"),
                        }
                    }
                }
                if matches!(observers, Observers::Profile) {
                    break; // boundaries do not apply without the collector
                }
            }
        }
    }
}

/// `(kernel, MRU collection capacity, fused digest, profile-only digest,
/// MRU-only digest)`: the FNV-1a of the serialized [`WorkloadCheckpoints`]
/// each kind of emitting walk produces at 2 threads, scale 0.05.  npb-cg
/// runs 9,023 accesses per thread there, so the MRU sequence compaction
/// fires, and capacity 64 evicts; the constants pin the `.bpckpt` bytes of
/// every image layout through both.
const CHECKPOINT_GOLDEN: [(&str, u64, u64, u64, u64); 4] = [
    ("npb-cg", 64, 0xd15c_df84_a73d_1c57, 0x15f7_090e_19b5_e2db, 0x588f_8063_2997_48a1),
    ("npb-cg", 4096, 0x0e1c_0d0f_52b0_aa3b, 0x15f7_090e_19b5_e2db, 0x9168_d7b6_7d8e_ffbd),
    ("npb-lu", 64, 0x9f5f_a548_f915_28ae, 0xe110_000b_0f0b_b31e, 0x04ee_db09_d4fa_3207),
    ("npb-lu", 4096, 0xa748_f64c_02ac_3943, 0xe110_000b_0f0b_b31e, 0x0fe2_e235_6089_3c9a),
];

#[test]
fn emitted_checkpoint_bytes_match_golden_digests() {
    let digest = |walk: TraceWalk<'_>, w: &dyn Workload| {
        let walked = walk.emitting_checkpoints(DEFAULT_SEGMENTS);
        let checkpoints = walked.run(w, &ExecutionPolicy::Serial, None).unwrap().checkpoints;
        let mut hasher = FingerprintHasher::new();
        hasher.write_bytes(&serde::to_vec(&checkpoints.unwrap()));
        hasher.finish()
    };
    let mut actual = Vec::new();
    for (bench, capacity) in [
        (Benchmark::NpbCg, 64),
        (Benchmark::NpbCg, 4096),
        (Benchmark::NpbLu, 64),
        (Benchmark::NpbLu, 4096),
    ] {
        let w = bench.build(&WorkloadConfig::new(2).with_scale(0.05));
        actual.push((
            bench.name(),
            capacity,
            digest(TraceWalk::profile().with_mru(MruBoundaries::Every, capacity), &w),
            digest(TraceWalk::profile(), &w),
            digest(TraceWalk::mru(MruBoundaries::Every, capacity), &w),
        ));
    }
    assert_eq!(actual, CHECKPOINT_GOLDEN);
}

/// `checkpoints` with the MRU image of `thread`'s cut `cut` replaced by
/// `rewrite(image)`, through the artifact's own byte layout (the per-cut
/// images are not reachable through the public API).
fn with_mru_image(
    checkpoints: &WorkloadCheckpoints,
    thread: usize,
    cut: usize,
    rewrite: impl Fn(&[u8]) -> Vec<u8>,
) -> WorkloadCheckpoints {
    let bytes = serde::to_vec(checkpoints);
    let mut de = serde::Deserializer::new(&bytes);
    let mut out = serde::Serializer::new();
    for _ in 0..2 {
        out.write_u64(de.read_u64().unwrap()); // collection capacity, regions
    }
    let threads = de.read_len().unwrap();
    out.write_len(threads);
    for t in 0..threads {
        let cuts = de.read_len().unwrap();
        out.write_len(cuts);
        for c in 0..cuts {
            out.write_u64(de.read_u64().unwrap());
            for image in 0..2 {
                let len = de.read_len().unwrap();
                let payload = de.read_bytes(len).unwrap();
                let payload = if image == 1 && (t, c) == (thread, cut) {
                    rewrite(payload)
                } else {
                    payload.to_vec()
                };
                out.write_len(payload.len());
                out.write_bytes(&payload);
            }
        }
    }
    serde::from_slice(&out.into_bytes()).unwrap()
}

/// An MRU image with its lines' order reversed (sequences, ticks and dirty
/// depths stay in place), or with one line replaced by one the profiler
/// never saw.
fn tamper(image: &[u8], reverse: bool) -> Vec<u8> {
    let mut de = serde::Deserializer::new(image);
    let header: Vec<u64> = (0..3).map(|_| de.read_u64().unwrap()).collect();
    let len = de.read_len().unwrap();
    let mut entries: Vec<[u64; 4]> =
        (0..len).map(|_| [0; 4].map(|_| de.read_u64().unwrap())).collect();
    if reverse {
        let lines: Vec<u64> = entries.iter().rev().map(|entry| entry[1]).collect();
        entries.iter_mut().zip(lines).for_each(|(entry, line)| entry[1] = line);
    } else {
        entries[0][1] = 1 << 60;
    }
    let mut out = serde::Serializer::new();
    header.iter().for_each(|&word| out.write_u64(word));
    out.write_len(entries.len());
    entries.iter().flatten().for_each(|&word| out.write_u64(word));
    out.into_bytes()
}

#[test]
fn fused_checkpoints_resume_every_walk_kind_and_reject_disagreeing_images() {
    // Checkpoints of the fused walk, resumed profile-only, MRU-only at or
    // below their collection capacity, and fused: each equals the same walk
    // run uninterrupted from region 0.
    let policy = ExecutionPolicy::Serial;
    for (bench, collection) in [(Benchmark::NpbCg, 64), (Benchmark::NpbLu, 512)] {
        let w = bench.build(&WorkloadConfig::new(2).with_scale(0.05));
        let every: Vec<usize> = (0..w.num_regions()).collect();
        let (profile, bank, checkpoints) = checkpointed(&w, collection, &policy, 4).unwrap();
        let resumed = TraceWalk::profile().resuming(&checkpoints).run(&w, &policy, None).unwrap();
        assert_eq!(resumed.profile.unwrap(), profile, "{bench:?} profile-only");
        for capacity in [1, collection / 2, collection] {
            let walk = TraceWalk::mru(MruBoundaries::Every, capacity);
            let whole = walk.run(&w, &policy, None).unwrap().bank.unwrap();
            let resumed = walk.resuming(&checkpoints).run(&w, &policy, None).unwrap().bank.unwrap();
            for probe in [1, capacity] {
                assert_eq!(
                    resumed.assemble(&every, probe),
                    whole.assemble(&every, probe),
                    "{bench:?} MRU-only at {capacity}, probed at {probe}"
                );
            }
        }
        let (fused_profile, fused_bank) = resumed_fused(&w, &checkpoints, &policy).unwrap();
        assert_eq!(fused_profile, profile, "{bench:?} fused profile");
        assert_eq!(fused_bank.assemble(&every, collection), bank.assemble(&every, collection));

        // Images that disagree fail the fused restore with an error naming
        // the disagreement; the walks that read one image only still resume.
        for (reverse, reason) in [(false, "missing"), (true, "differently")] {
            let broken = with_mru_image(&checkpoints, 1, 0, |image| tamper(image, reverse));
            match resumed_fused(&w, &broken, &policy) {
                Err(Error::CheckpointRestore { message }) => {
                    assert!(message.contains(reason), "{bench:?}: {message}")
                }
                other => panic!("{bench:?}: expected a {reason} restore error, got {other:?}"),
            }
            let profile_only = TraceWalk::profile().resuming(&broken).run(&w, &policy, None);
            assert_eq!(profile_only.unwrap().profile.unwrap(), profile);
        }
    }
}
