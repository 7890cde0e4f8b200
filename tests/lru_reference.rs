//! The two consumers of a thread's LRU stack — the signature profile and
//! the MRU warmup bank — against the naive reference (`tests/reference`),
//! walked here straight from the public pieces bp-core's trace walk is
//! built from: one `RecencyEngine` per thread feeding a `ProfileAccumulator`
//! or an `IntervalRecorder`.
//!
//! The MRU bank is collected once at its largest capacity and truncated per
//! capacity; the reference keeps a dedicated list per capacity, so these
//! tests also pin the inclusion property that truncation relies on,
//! capacity-dependent dirty bits included: a smaller list loses a line's
//! written state when the line sinks below its capacity.

use bp_signature::{zip_thread_profiles, ProfileAccumulator, ThreadProfile};
use bp_warmup::{IntervalRecorder, MruSnapshotBank};
use bp_workload::{Benchmark, RecencyEngine, Workload, WorkloadConfig};
use proptest::prelude::*;

mod reference;

/// One thread's whole trace through an accumulator and an engine of its
/// own, as bp-core's trace walk runs a profile-only walk.
fn profile_thread<W: Workload + ?Sized>(w: &W, thread: usize) -> ThreadProfile {
    let mut engine = RecencyEngine::new();
    let mut profile = ProfileAccumulator::new(w, thread);
    for region in 0..w.num_regions() {
        for exec in w.region_trace(region, thread) {
            profile.block(&exec);
            for access in &exec.accesses {
                profile.distance(engine.touch(access.line(), access.kind.is_write()).distance);
            }
        }
        profile.finish_region();
    }
    profile.into_profile()
}

/// One windowed recency engine feeding one interval recorder per thread
/// (each on its own OS thread when `parallel`), snapshotting at `targets`
/// and collecting at `collection` lines; each thread's walk stops once no
/// target boundary is ahead.
fn thread_major_bank<W: Workload + Sync + ?Sized>(
    w: &W,
    targets: &[usize],
    collection: u64,
    parallel: bool,
) -> MruSnapshotBank {
    let walk = |thread: usize| {
        let mut engine = RecencyEngine::with_window(collection);
        let mut recorder = IntervalRecorder::new(targets, collection);
        for region in 0..w.num_regions() {
            recorder.enter_region(&mut engine, region);
            if !recorder.wants_more() {
                break;
            }
            for exec in w.region_trace(region, thread) {
                for access in &exec.accesses {
                    recorder.touched(&engine.touch(access.line(), access.kind.is_write()));
                }
            }
        }
        vec![recorder]
    };
    let per_thread = if parallel {
        std::thread::scope(|scope| {
            let walks: Vec<_> =
                (0..w.num_threads()).map(|t| scope.spawn(move || walk(t))).collect();
            walks.into_iter().map(|walk| walk.join().unwrap()).collect()
        })
    } else {
        (0..w.num_threads()).map(walk).collect()
    };
    MruSnapshotBank::from_recorders(per_thread)
}

#[test]
fn thread_major_matches_region_major_bit_for_bit() {
    let w = Benchmark::NpbCg.build(&WorkloadConfig::new(4).with_scale(0.05));
    let region_major = reference::profile(&w);
    let serial = zip_thread_profiles((0..4).map(|t| profile_thread(&w, t)).collect());
    // One OS thread per workload thread: the walks share no state.
    let parallel = zip_thread_profiles(std::thread::scope(|scope| {
        let w = &w;
        let walks: Vec<_> = (0..4).map(|t| scope.spawn(move || profile_thread(w, t))).collect();
        walks.into_iter().map(|walk| walk.join().unwrap()).collect()
    }));
    assert_eq!(&serial, &region_major[..]);
    assert_eq!(&parallel, &region_major[..]);
}

#[test]
fn thread_major_collection_matches_region_major_bit_for_bit() {
    for threads in [1, 2, 4] {
        let w = Benchmark::NpbCg.build(&WorkloadConfig::new(threads).with_scale(0.05));
        let targets = [0, 3, 9, 3]; // duplicate + first region on purpose
        let expected = reference::mru(&w, &targets, 2048);
        for parallel in [false, true] {
            let bank = thread_major_bank(&w, &targets, 2048, parallel);
            assert_eq!(
                reference::payloads(&bank.assemble(&targets, 2048)),
                expected,
                "{threads} threads, parallel: {parallel}"
            );
        }
    }
}

#[test]
fn multi_capacity_collection_matches_direct_collection_per_capacity() {
    let w = Benchmark::NpbCg.build(&WorkloadConfig::new(2).with_scale(0.05));
    let targets = [2, 7];
    let capacities = [64u64, 512, 2048];
    let multi = thread_major_bank(&w, &targets, 2048, false).assemble_multi(&targets, &capacities);
    assert_eq!(multi.len(), capacities.len());
    for &capacity in &capacities {
        let direct = reference::mru(&w, &targets, capacity);
        assert_eq!(reference::payloads(&multi[&capacity]), direct, "capacity {capacity}");
    }
}

#[test]
fn multi_capacity_handles_duplicates_and_zero() {
    let w = Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(0.02));
    let multi = thread_major_bank(&w, &[3], 128, false).assemble_multi(&[3], &[128, 128, 0]);
    assert_eq!(multi.len(), 2, "duplicates collapse, 0 clamps to 1");
    assert_eq!(multi[&0][&3].capacity_lines(), 1);
    assert_eq!(reference::payloads(&multi[&0]), reference::mru(&w, &[3], 0));
    assert_eq!(reference::payloads(&multi[&128]), reference::mru(&w, &[3], 128));
}

#[test]
fn snapshot_bank_serves_any_boundary_subset() {
    // A bank snapshotting *every* boundary (what a fused cold pass
    // collects while the barrierpoint selection is still unknown) must
    // reproduce the targeted collection bit for bit, for any subset of
    // targets and any capacity up to the collection capacity.
    let w = Benchmark::NpbCg.build(&WorkloadConfig::new(2).with_scale(0.05));
    let all: Vec<usize> = (0..w.num_regions()).collect();
    let bank = thread_major_bank(&w, &all, 2048, false);
    assert_eq!(bank.boundaries(), &all[..]);
    assert_eq!(bank.collection_capacity(), 2048);
    for targets in [vec![0], vec![3, 9], vec![1, 5, 17, 44]] {
        for capacity in [64u64, 700, 2048] {
            let direct = reference::mru(&w, &targets, capacity);
            let assembled = reference::payloads(&bank.assemble(&targets, capacity));
            assert_eq!(assembled, direct, "{targets:?}@{capacity}");
        }
    }
    // Targets outside the bank are skipped, as the reference skips them.
    assert!(bank.assemble(&[999], 64).is_empty());
}

#[test]
fn interval_bank_matches_the_reference_on_every_boundary() {
    let w = Benchmark::NpbCg.build(&WorkloadConfig::new(2).with_scale(0.05));
    let all: Vec<usize> = (0..w.num_regions()).collect();
    let interval = thread_major_bank(&w, &all, 2048, false);
    // Above the collection capacity, assembly clamps to it.
    for capacity in [1u64, 64, 700, 2048, 4096] {
        assert_eq!(
            reference::payloads(&interval.assemble(&all, capacity)),
            reference::mru(&w, &all, capacity.min(2048)),
            "capacity {capacity}"
        );
    }
}

#[test]
fn interval_bank_is_smaller_than_the_per_boundary_oracle() {
    // The whole point of the encoding: lines resident and untouched
    // across boundaries cost one record for the span, not one entry per
    // boundary as a raw `(line, dirty_depth)` snapshot of every boundary's
    // list would.
    let w = Benchmark::NpbCg.build(&WorkloadConfig::new(2).with_scale(0.05));
    let all: Vec<usize> = (0..w.num_regions()).collect();
    let interval = thread_major_bank(&w, &all, 2048, false);
    let entries: usize = reference::mru(&w, &all, 2048).values().flatten().map(Vec::len).sum();
    let per_boundary = (entries * std::mem::size_of::<(u64, u64)>()) as u64;
    assert!(
        interval.snapshot_bytes() < per_boundary,
        "interval {} >= raw {per_boundary}",
        interval.snapshot_bytes()
    );
    assert!(interval.interval_records() > 0);
}

#[test]
fn interval_bank_handles_sparse_boundaries_and_truncation() {
    let w = Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(0.02));
    // Sparse boundaries, one past the region count (never reached).
    let boundaries = vec![0, 2, 5, w.num_regions() - 1, w.num_regions() + 10];
    let interval = thread_major_bank(&w, &boundaries, 512, false);
    assert_eq!(interval.boundaries(), &boundaries[..4]);
    for capacity in [1u64, 16, 512] {
        assert_eq!(
            reference::payloads(&interval.assemble(&boundaries, capacity)),
            reference::mru(&w, &boundaries, capacity),
            "capacity {capacity}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Truncated largest-capacity payloads are bit-identical to dedicated
    /// per-capacity lists, across kernels x thread counts x capacity sets.
    #[test]
    fn truncated_multi_capacity_payloads_match_direct_collection(
        kernel in prop_oneof![
            Just(Benchmark::NpbIs),
            Just(Benchmark::NpbCg),
            Just(Benchmark::NpbFt),
            Just(Benchmark::NpbMg),
        ],
        threads in prop_oneof![Just(1usize), Just(2), Just(4)],
        base_capacity in 16u64..400,
    ) {
        let workload = kernel.build(&WorkloadConfig::new(threads).with_scale(0.02));
        let last = workload.num_regions() - 1;
        let targets = [1usize, last / 2, last];
        // Three nested capacities, the smallest tight enough to force
        // evictions (and with them capacity-dependent dirty bits).
        let capacities = [base_capacity, base_capacity * 4, base_capacity * 16];

        let multi = thread_major_bank(&workload, &targets, base_capacity * 16, false)
            .assemble_multi(&targets, &capacities);
        prop_assert_eq!(multi.len(), capacities.len());

        for &capacity in &capacities {
            let truncated = &multi[&capacity];
            prop_assert_eq!(
                reference::payloads(truncated),
                reference::mru(&workload, &targets, capacity)
            );
            for data in truncated.values() {
                prop_assert_eq!(data.capacity_lines(), capacity);
            }
        }
    }
}

proptest! {
    /// Interval assembly must reproduce the reference's lists for arbitrary
    /// access streams, boundary placements and capacities.
    #[test]
    fn interval_bank_matches_the_reference_on_random_streams(
        accesses in proptest::collection::vec((0u64..48, any::<bool>()), 1..800),
        collection_capacity in 1u64..24,
        probe_capacity in 1u64..32,
        stride in 1usize..40,
        targets in proptest::collection::vec(0usize..96, 0..12),
    ) {
        // Chop the stream into pseudo-regions of `stride` accesses and
        // snapshot at every region boundary, feeding the engine and the
        // reference directly (no workload needed for this state machine).
        let boundaries: Vec<usize> = (0..accesses.len().div_ceil(stride)).collect();
        let mut engine = RecencyEngine::with_window(collection_capacity);
        let mut recorder = IntervalRecorder::new(&boundaries, collection_capacity);
        for (region, chunk) in accesses.chunks(stride).enumerate() {
            recorder.enter_region(&mut engine, region);
            for &(line, write) in chunk {
                recorder.touched(&engine.touch(line, write));
            }
        }
        let bank = MruSnapshotBank::from_recorders(vec![vec![recorder]]);
        // Arbitrary target lists — unsorted, duplicated, partly past the
        // last boundary — at capacities below, at and above the collection
        // capacity (where assembly clamps), one at a time and all at once.
        let capacities = [
            1,
            (collection_capacity / 2).max(1),
            collection_capacity,
            collection_capacity + 5,
            probe_capacity,
        ];
        let multi = bank.assemble_multi(&targets, &capacities);
        for capacity in capacities {
            let mut lists = reference::MruLists::new(1, capacity.min(collection_capacity));
            let mut snapshots = Vec::with_capacity(boundaries.len());
            for chunk in accesses.chunks(stride) {
                snapshots.push(lists.payloads().to_vec());
                for &(line, write) in chunk {
                    lists.record(0, line, write);
                }
            }
            let expected: std::collections::HashMap<_, _> = targets
                .iter()
                .filter(|&&target| target < boundaries.len())
                .map(|&target| (target, snapshots[target].clone()))
                .collect();
            // Every boundary, too: exactly the windowed lines' records cover
            // it (an evicted line's record must not linger).
            let every: std::collections::HashMap<_, _> =
                snapshots.into_iter().enumerate().collect();
            prop_assert_eq!(reference::payloads(&bank.assemble(&boundaries, capacity)), every);
            prop_assert_eq!(&reference::payloads(&bank.assemble(&targets, capacity)), &expected);
            prop_assert_eq!(reference::payloads(&multi[&capacity]), expected);
        }
    }
}

/// `len` accesses over lines `0..lines`: half to a hot set of `hot` lines,
/// whose reuse mostly stays within one 64-timestamp word of the engine's
/// bitset; a quarter to a cyclic scan over every line, whose reuse spans
/// `4 * lines` timestamps on average (128 words at 2,048 lines); and a
/// quarter to random lines, whose reuse gaps have a long tail (hundreds of
/// words at 2,048 lines).  About a third of the accesses write.
fn long_stream(len: usize, lines: u64, hot: u64, seed: u64) -> Vec<(u64, bool)> {
    let mut state = seed | 1;
    let mut cursor = 0;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let line = match state % 4 {
                0 | 1 => (state >> 8) % hot,
                2 => {
                    cursor = (cursor + 1) % lines;
                    cursor
                }
                _ => (state >> 8) % lines,
            };
            (line, (state >> 40).is_multiple_of(3))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The recency engine, windowed and windowless, against the naive stack
    /// on streams long and wide enough to spread the marked timestamps over
    /// hundreds of bitset words and through several growths of the
    /// timestamp set: every access's distance, and the windowed engine's
    /// window with its dirty bits every 256 accesses and at the end.
    #[test]
    fn engine_matches_the_naive_stack_on_long_streams(
        len in 4096usize..16384,
        lines in 64u64..=2048,
        hot in 1u64..=16,
        collection in 1u64..=512,
        seed in any::<u64>(),
    ) {
        let mut windowed = RecencyEngine::with_window(collection);
        let mut plain = RecencyEngine::new();
        let mut stack = Vec::new();
        let mut lists = reference::MruLists::new(1, collection);
        for (index, (line, write)) in long_stream(len, lines, hot, seed).into_iter().enumerate() {
            let expected = reference::touch(&mut stack, line);
            lists.record(0, line, write);
            prop_assert_eq!(windowed.touch(line, write).distance, expected);
            prop_assert_eq!(plain.touch(line, write).distance, expected);
            if index % 256 == 255 || index + 1 == len {
                let window: Vec<(u64, bool)> = windowed
                    .window()
                    .map(|line| {
                        let dirty = windowed.residency(line).unwrap().dirty_depth < collection;
                        (line, dirty)
                    })
                    .collect();
                prop_assert_eq!(&window, &lists.payloads()[0]);
            }
        }
        prop_assert_eq!(windowed.profile_image(), plain.profile_image());
    }
}
