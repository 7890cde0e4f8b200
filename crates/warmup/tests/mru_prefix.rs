//! Property tests of the MRU list's prefix (inclusion) property: one
//! collection pass at the largest requested LLC capacity, truncated per
//! capacity, must be **bit-identical** to collecting each capacity directly
//! — including the capacity-dependent dirty bits (a smaller collector loses
//! a line's written state when the line's recency depth exceeds its
//! capacity; the shared-pass collector reconstructs exactly that).
//!
//! The reference here is a deliberately naive re-implementation of the
//! original one-capacity sticky-dirty collector, so the test would catch a
//! bug in the production collector itself, not just in the truncation.

use bp_warmup::{collect_mru_warmup, IntervalRecorder, MruSnapshotBank};
use bp_workload::{Benchmark, RecencyEngine, Workload, WorkloadConfig};
use proptest::prelude::*;
use std::collections::HashMap;

/// Naive single-capacity MRU collector: an explicit recency vector (least
/// recent first) with the paper's sticky dirty bit — a line once written
/// stays dirty while resident, and re-enters with its re-entering access
/// kind after an eviction.  O(capacity) per access, used only as the test
/// oracle.
#[derive(Clone)]
struct NaiveMru {
    per_thread: Vec<Vec<(u64, bool)>>,
    capacity: usize,
}

impl NaiveMru {
    fn new(threads: usize, capacity: u64) -> Self {
        Self { per_thread: vec![Vec::new(); threads], capacity: capacity.max(1) as usize }
    }

    fn record(&mut self, thread: usize, line: u64, is_write: bool) {
        let list = &mut self.per_thread[thread];
        let dirty = match list.iter().position(|&(l, _)| l == line) {
            Some(i) => {
                let (_, was_dirty) = list.remove(i);
                was_dirty || is_write
            }
            None => is_write,
        };
        list.push((line, dirty));
        if list.len() > self.capacity {
            list.remove(0);
        }
    }
}

/// Collects, for each target region boundary, the naive reference payload at
/// `capacity`.
fn naive_collect<W: Workload + ?Sized>(
    workload: &W,
    targets: &[usize],
    capacity: u64,
) -> HashMap<usize, Vec<Vec<(u64, bool)>>> {
    let mut wanted: Vec<usize> = targets.to_vec();
    wanted.sort_unstable();
    wanted.dedup();
    let mut naive = NaiveMru::new(workload.num_threads(), capacity);
    let mut result = HashMap::new();
    let last = wanted.last().copied().unwrap_or(0);
    for region in 0..=last.min(workload.num_regions().saturating_sub(1)) {
        if wanted.binary_search(&region).is_ok() {
            result.insert(region, naive.per_thread.clone());
        }
        if region < last {
            for thread in 0..workload.num_threads() {
                for exec in workload.region_trace(region, thread) {
                    for access in &exec.accesses {
                        naive.record(thread, access.line(), access.kind.is_write());
                    }
                }
            }
        }
    }
    result
}

/// One windowed recency engine feeding one interval recorder per thread,
/// snapshotting at `targets` and collecting at `collection` lines; each
/// thread's walk stops once no target boundary is ahead.
fn thread_major_bank<W: Workload + ?Sized>(
    workload: &W,
    targets: &[usize],
    collection: u64,
) -> MruSnapshotBank {
    let per_thread = (0..workload.num_threads())
        .map(|thread| {
            let mut engine = RecencyEngine::with_window(collection);
            let mut recorder = IntervalRecorder::new(targets, collection);
            for region in 0..workload.num_regions() {
                recorder.enter_region(&mut engine, region);
                if !recorder.wants_more() {
                    break;
                }
                for exec in workload.region_trace(region, thread) {
                    for access in &exec.accesses {
                        recorder.touched(&engine.touch(access.line(), access.kind.is_write()));
                    }
                }
            }
            vec![recorder]
        })
        .collect();
    MruSnapshotBank::from_recorders(per_thread)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Truncated largest-capacity payloads are bit-identical to direct
    /// per-capacity collection, across kernels x thread counts x capacity
    /// sets, and both agree with the naive reference oracle.
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

        let multi = thread_major_bank(&workload, &targets, base_capacity * 16)
            .assemble_multi(&targets, &capacities);
        prop_assert_eq!(multi.len(), capacities.len());

        for &capacity in &capacities {
            let direct = collect_mru_warmup(&workload, &targets, capacity);
            let naive = naive_collect(&workload, &targets, capacity);
            let truncated = &multi[&capacity];
            prop_assert_eq!(truncated, &direct);
            for (&region, data) in truncated {
                prop_assert_eq!(data.capacity_lines(), capacity);
                prop_assert_eq!(data.per_thread(), &naive[&region][..]);
            }
        }
    }
}

/// The single-capacity [`MruSnapshotBank::assemble`] wrapper is the
/// multi-capacity assembly with one capacity — pinned here so the wrapper
/// can never drift from the shared path.
#[test]
fn single_capacity_wrapper_is_the_multi_pass() {
    let workload = Benchmark::NpbLu.build(&WorkloadConfig::new(2).with_scale(0.02));
    let targets = [1usize, 4];
    let bank = thread_major_bank(&workload, &targets, 777);
    let single = bank.assemble(&targets, 777);
    let multi = bank.assemble_multi(&targets, &[777]);
    assert_eq!(single, multi[&777]);
}
