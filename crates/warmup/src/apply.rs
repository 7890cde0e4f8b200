use crate::strategy::WarmupStrategy;
use bp_mem::MemoryHierarchy;
use bp_workload::{BlockExecution, Workload, CACHE_LINE_BYTES};

/// Applies a warmup strategy to a memory hierarchy, then resets the
/// hierarchy's statistics so that the subsequent detailed simulation measures
/// only the barrierpoint itself.  Every strategy sets all of the
/// hierarchy's state, so the hierarchy may come from an earlier
/// barrierpoint.
///
/// [`WarmupStrategy::MruReplay`] replays the payload in a fixed order:
/// positions counted from the tail of the longest thread list down to each
/// list's most recent line and, at each position, the threads in index
/// order; a thread without a core in the hierarchy is skipped.  The
/// replay's state is installed directly ([`MemoryHierarchy::install`]):
/// the same lines, recency orders, MSI states and directory entries as
/// replaying every line through [`MemoryHierarchy::access`], without the
/// timing model.
///
/// [`WarmupStrategy::FunctionalReplay`] replays, region by region, every
/// data access of regions `0..region`, each region's threads one after
/// another in index order.  Like MRU replay it skips the threads without a
/// core, and a `region` past the workload's last replays the whole
/// workload, so no strategy panics.  `workload` is only consulted by this
/// strategy.
pub fn apply_warmup<W: Workload + ?Sized>(
    hierarchy: &mut MemoryHierarchy,
    workload: &W,
    strategy: &WarmupStrategy,
) {
    match strategy {
        WarmupStrategy::Cold => {
            hierarchy.clear();
        }
        WarmupStrategy::FunctionalReplay { region } => {
            hierarchy.clear();
            let threads = workload.num_threads().min(hierarchy.num_cores());
            let mut exec = BlockExecution::default();
            for r in 0..(*region).min(workload.num_regions()) {
                for thread in 0..threads {
                    let mut trace = workload.region_trace(r, thread);
                    while trace.next_into(&mut exec) {
                        for access in &exec.accesses {
                            hierarchy.access(thread, access.addr, access.kind.is_write());
                        }
                    }
                }
            }
        }
        WarmupStrategy::MruReplay(data) => {
            // Each thread replays its most recent unique lines in access
            // order (least recent first), so the most recently used data ends
            // up closest to the core — rebuilding L1/L2/LLC contents and MSI
            // state without knowing the hierarchy's organisation.
            //
            // The per-thread replays are interleaved (as they would be when
            // the simulator replays all threads concurrently): replaying the
            // cores one after another would let the last core's data evict
            // everyone else's share of the shared LLC.  Position `p` is each
            // list's `p`-th line from its end, so shorter lists join late.
            let cores = hierarchy.num_cores();
            let per_thread = &data.per_thread()[..data.per_thread().len().min(cores)];
            let longest = per_thread.iter().map(Vec::len).max().unwrap_or(0);
            hierarchy.install((1..=longest).rev().flat_map(|position| {
                per_thread.iter().enumerate().filter_map(move |(thread, lines)| {
                    let (line, is_write) = *lines.get(lines.len().checked_sub(position)?)?;
                    Some((thread, line * CACHE_LINE_BYTES, is_write))
                })
            }));
        }
    }
    hierarchy.reset_stats();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mru::{IntervalRecorder, MruSnapshotBank, MruWarmupData};
    use bp_mem::MemoryConfig;
    use bp_workload::{Benchmark, RecencyEngine, WorkloadConfig};

    /// The MRU warmup payload of `region` at `capacity` lines, from the
    /// interval bank of a walk up to that region's boundary.
    fn payload<W: Workload>(w: &W, region: usize, capacity: u64) -> MruWarmupData {
        let recorders = (0..w.num_threads())
            .map(|thread| {
                let mut engine = RecencyEngine::with_window(capacity);
                let mut recorder = IntervalRecorder::new(&[region], capacity);
                for r in 0..region {
                    recorder.enter_region(&mut engine, r);
                    for exec in w.region_trace(r, thread) {
                        for access in &exec.accesses {
                            recorder.touched(&engine.touch(access.line(), access.kind.is_write()));
                        }
                    }
                }
                recorder.enter_region(&mut engine, region);
                vec![recorder]
            })
            .collect();
        let mut payloads = MruSnapshotBank::from_recorders(recorders).assemble(&[region], capacity);
        payloads.remove(&region).expect("the region's boundary was walked")
    }

    fn setup() -> (impl Workload, MemoryConfig) {
        let w = Benchmark::NpbCg.build(&WorkloadConfig::new(4).with_scale(0.02));
        (w, MemoryConfig::scaled())
    }

    /// Counts the DRAM accesses a region performs on `hierarchy` as-is.
    fn region_dram<W: Workload>(w: &W, hierarchy: &mut MemoryHierarchy, region: usize) -> u64 {
        let before = hierarchy.stats().dram_accesses;
        let mut exec = BlockExecution::default();
        for thread in 0..w.num_threads() {
            let mut trace = w.region_trace(region, thread);
            while trace.next_into(&mut exec) {
                for access in &exec.accesses {
                    hierarchy.access(thread, access.addr, access.kind.is_write());
                }
            }
        }
        hierarchy.stats().dram_accesses - before
    }

    #[test]
    fn mru_replay_reduces_cold_misses() {
        let (w, config) = setup();
        let region = 10;
        let warmup = payload(&w, region, config.llc_total_lines(4));

        let mut cold = MemoryHierarchy::new(&config, 4);
        apply_warmup(&mut cold, &w, &WarmupStrategy::Cold);
        let cold_dram = region_dram(&w, &mut cold, region);

        let mut warm = MemoryHierarchy::new(&config, 4);
        apply_warmup(&mut warm, &w, &WarmupStrategy::MruReplay(&warmup));
        let warm_dram = region_dram(&w, &mut warm, region);

        assert!(
            warm_dram < cold_dram,
            "MRU warmup should cut cold DRAM traffic: {warm_dram} vs {cold_dram}"
        );
    }

    #[test]
    fn functional_replay_matches_or_beats_mru() {
        let (w, config) = setup();
        let region = 6;
        let warmup = payload(&w, region, config.llc_total_lines(4));

        let mut functional = MemoryHierarchy::new(&config, 4);
        apply_warmup(&mut functional, &w, &WarmupStrategy::FunctionalReplay { region });
        let functional_dram = region_dram(&w, &mut functional, region);

        let mut mru = MemoryHierarchy::new(&config, 4);
        apply_warmup(&mut mru, &w, &WarmupStrategy::MruReplay(&warmup));
        let mru_dram = region_dram(&w, &mut mru, region);

        // MRU replay approximates functional warming; it must be in the same
        // ballpark (within 2x) and far better than cold.
        assert!(mru_dram <= functional_dram * 2 + 16, "{mru_dram} vs {functional_dram}");
    }

    #[test]
    fn warmup_resets_statistics() {
        let (w, config) = setup();
        let warmup = payload(&w, 3, 1024);
        let mut hierarchy = MemoryHierarchy::new(&config, 4);
        apply_warmup(&mut hierarchy, &w, &WarmupStrategy::MruReplay(&warmup));
        assert_eq!(hierarchy.stats().data_accesses, 0);
        assert_eq!(hierarchy.stats().dram_accesses, 0);
    }
}
