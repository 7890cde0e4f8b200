//! MRU warmup installs its state directly: `apply_warmup` must leave exactly
//! the hierarchy the paper's replay leaves — each thread's payload replayed
//! through the timed access path, positions from the longest list's tail,
//! threads in index order, threads without a core skipped — and the
//! barrierpoint simulated afterwards must not tell the two apart.  Every
//! strategy sets all of the hierarchy's state, so a machine reused across
//! barrierpoints warms exactly as a fresh one does.

use barrierpoint::{ExecutionPolicy, MruBoundaries, TraceWalk};
use bp_sim::{Machine, SimConfig};
use bp_warmup::{apply_warmup, MruWarmupData, WarmupStrategy};
use bp_workload::{
    Benchmark, BlockExecution, SyntheticWorkload, Workload, WorkloadConfig, CACHE_LINE_BYTES,
};
use std::collections::HashMap;

/// The MRU warmup payloads of `regions` at `capacity` lines, from the bank
/// of the pipeline's MRU-only walk.
fn payloads(
    workload: &impl Workload,
    regions: &[usize],
    capacity: u64,
) -> HashMap<usize, MruWarmupData> {
    let walk = TraceWalk::mru(MruBoundaries::Targets(regions), capacity);
    let bank = walk.run(workload, &ExecutionPolicy::Serial, None).unwrap().bank.unwrap();
    bank.assemble(regions, capacity)
}

/// The replay `apply_warmup` replaced, kept as the oracle: every payload
/// line through `MemoryHierarchy::access` of a cleared hierarchy.
fn replay(machine: &mut Machine, data: &MruWarmupData) {
    let hierarchy = machine.hierarchy_mut();
    hierarchy.clear();
    let cores = hierarchy.num_cores();
    let per_thread = data.per_thread();
    let longest = per_thread.iter().map(|t| t.len()).max().unwrap_or(0);
    for position in (1..=longest).rev() {
        for (thread, lines) in per_thread.iter().enumerate() {
            if thread >= cores || lines.len() < position {
                continue;
            }
            let (line, is_write) = lines[lines.len() - position];
            hierarchy.access(thread, line * CACHE_LINE_BYTES, is_write);
        }
    }
    hierarchy.reset_stats();
}

/// Every data access of regions `0..until` by threads `0..threads`, region
/// by region and each region thread by thread: the stream functional
/// replay feeds the hierarchy.
fn functional_stream(
    workload: &impl Workload,
    until: usize,
    threads: usize,
) -> Vec<(usize, u64, bool)> {
    let mut stream = Vec::new();
    let mut exec = BlockExecution::default();
    for region in 0..until {
        for thread in 0..threads {
            let mut trace = workload.region_trace(region, thread);
            while trace.next_into(&mut exec) {
                stream.extend(exec.accesses.iter().map(|a| (thread, a.addr, a.kind.is_write())));
            }
        }
    }
    stream
}

/// Up to four regions spread over the run, the first (empty payload)
/// included.
fn regions(workload: &impl Workload) -> Vec<usize> {
    let n = workload.num_regions();
    let mut regions = vec![0, n / 3, 2 * n / 3, n - 1];
    regions.dedup();
    regions
}

/// Installs and replays each region's payload at `config`'s LLC capacity
/// and compares the hierarchies and the region simulated on them.  The
/// installing machine is reused across regions, as a sweep leg's worker
/// reuses its machine.
fn check(workload: &SyntheticWorkload, config: &SimConfig) {
    let regions = regions(workload);
    let capacity = config.memory.llc_total_lines(config.num_cores);
    let payloads = payloads(workload, &regions, capacity);
    let mut installed = Machine::new(config);
    for region in regions {
        let data = &payloads[&region];
        let mut replayed = Machine::new(config);
        replay(&mut replayed, data);
        apply_warmup(installed.hierarchy_mut(), workload, &WarmupStrategy::MruReplay(data));
        let context = format!("{} region {region}, {capacity} lines", workload.name());
        assert_eq!(
            installed.hierarchy().canonical_state(),
            replayed.hierarchy().canonical_state(),
            "{context}"
        );
        assert_eq!(installed.hierarchy().stats(), replayed.hierarchy().stats(), "{context}");
        assert_eq!(
            installed.run_region(workload, region),
            replayed.run_region(workload, region),
            "{context}"
        );
    }
}

fn half_llc(mut config: SimConfig) -> SimConfig {
    config.memory.l3.size_bytes /= 2;
    config
}

#[test]
fn install_matches_replay_for_every_kernel_at_base_and_half_llc() {
    let threads = 4;
    let base = SimConfig::scaled(threads);
    for bench in Benchmark::all() {
        let workload = bench.build(&WorkloadConfig::new(threads).with_scale(0.05));
        check(&workload, &base);
        check(&workload, &half_llc(base));
    }
}

/// At 128-byte hierarchy lines two payload lines share one hierarchy line,
/// so a thread repeats lines it still holds; at 32 bytes each payload line
/// is a distinct hierarchy line.
#[test]
fn install_matches_replay_at_other_line_sizes() {
    let threads = 4;
    let workload = Benchmark::NpbCg.build(&WorkloadConfig::new(threads).with_scale(0.05));
    for line_bytes in [32, 128] {
        let mut config = SimConfig::scaled(threads);
        config.memory.line_bytes = line_bytes;
        check(&workload, &config);
    }
}

/// Sixteen cores span two sockets: lines are homed on either socket's L3
/// and the directory covers cores of both.
#[test]
fn install_matches_replay_across_sockets() {
    let threads = 16;
    let workload = Benchmark::NpbCg.build(&WorkloadConfig::new(threads).with_scale(0.02));
    let config = SimConfig::scaled(threads);
    assert_eq!(config.memory.num_sockets(threads), 2);
    check(&workload, &config);
}

/// The payload's threads without a core (a payload collected for more
/// threads than the machine has cores) are skipped, and an empty payload
/// leaves cold caches.  Functional replay skips the same threads, and a
/// barrierpoint region past the workload's last replays every region.
#[test]
fn install_skips_threads_without_a_core_and_empty_payloads_stay_cold() {
    let workload = Benchmark::NpbMg.build(&WorkloadConfig::new(8).with_scale(0.05));
    let config = SimConfig::scaled(4);
    let capacity = config.memory.llc_total_lines(4);
    let last = workload.num_regions() - 1;
    let payloads = payloads(&workload, &[0, last], capacity);
    assert!(payloads[&0].is_empty() && payloads[&last].per_thread().len() == 8);
    for region in [0, last] {
        let data = &payloads[&region];
        let mut installed = Machine::new(&config);
        apply_warmup(installed.hierarchy_mut(), &workload, &WarmupStrategy::MruReplay(data));
        let mut replayed = Machine::new(&config);
        replay(&mut replayed, data);
        assert_eq!(installed.hierarchy().canonical_state(), replayed.hierarchy().canonical_state());
    }
    let mut cold = Machine::new(&config);
    apply_warmup(cold.hierarchy_mut(), &workload, &WarmupStrategy::MruReplay(&payloads[&0]));
    assert_eq!(
        cold.hierarchy().canonical_state(),
        Machine::new(&config).hierarchy().canonical_state()
    );
    let regions = workload.num_regions();
    for region in [last, regions + 3] {
        let mut functional = Machine::new(&config);
        let strategy = WarmupStrategy::FunctionalReplay { region };
        apply_warmup(functional.hierarchy_mut(), &workload, &strategy);
        let stream = functional_stream(&workload, region.min(regions), config.num_cores);
        let mut oracle = Machine::new(&config);
        oracle.hierarchy_mut().install(stream);
        assert_eq!(
            functional.hierarchy().canonical_state(),
            oracle.hierarchy().canonical_state(),
            "functional replay to region {region}"
        );
        assert_eq!(functional.hierarchy().stats(), Machine::new(&config).hierarchy().stats());
    }
}

/// A sweep leg's worker reuses one machine for barrierpoint after
/// barrierpoint: whatever an earlier region and strategy left behind, each
/// strategy must leave the state and zeroed statistics it leaves on a fresh
/// machine.
#[test]
fn every_strategy_warms_a_reused_machine_as_a_fresh_one() {
    let threads = 4;
    let workload = Benchmark::NpbCg.build(&WorkloadConfig::new(threads).with_scale(0.05));
    let config = SimConfig::scaled(threads);
    let n = workload.num_regions();
    let (early, late) = (n / 3, 2 * n / 3);
    let payloads = payloads(&workload, &[early, late], config.memory.llc_total_lines(threads));
    let zeroed = *Machine::new(&config).hierarchy().stats();
    let strategies = |region: usize| {
        [
            ("cold", WarmupStrategy::Cold),
            ("functional", WarmupStrategy::FunctionalReplay { region }),
            ("mru", WarmupStrategy::MruReplay(&payloads[&region])),
        ]
    };
    for (target, dirtied_at) in [(late, early), (early, late)] {
        for (name, strategy) in strategies(target) {
            let mut fresh = Machine::new(&config);
            apply_warmup(fresh.hierarchy_mut(), &workload, &strategy);
            for (dirtier, dirtying) in strategies(dirtied_at) {
                let mut reused = Machine::new(&config);
                apply_warmup(reused.hierarchy_mut(), &workload, &dirtying);
                reused.run_region(&workload, dirtied_at);
                apply_warmup(reused.hierarchy_mut(), &workload, &strategy);
                let context = format!("{name} at {target} after {dirtier} at {dirtied_at}");
                assert_eq!(
                    reused.hierarchy().canonical_state(),
                    fresh.hierarchy().canonical_state(),
                    "{context}"
                );
                assert_eq!(reused.hierarchy().stats(), &zeroed, "{context}");
            }
        }
    }
}

/// A payload that repeats a line within a thread can only arrive through
/// `Deserialize`; the install handles it exactly, as the replay would.
#[test]
fn install_matches_replay_for_payloads_that_repeat_lines() {
    let per_thread: Vec<Vec<(u64, bool)>> = vec![
        vec![(1, false), (2, true), (1, true), (65, false), (2, false), (1, false)],
        vec![(2, false), (1, false), (2, true), (3, true), (3, false)],
        vec![(129, true), (1, false), (129, false)],
    ];
    let data: MruWarmupData =
        serde::from_slice(&serde::to_vec(&(per_thread, 64u64))).expect("payload decodes");
    assert_eq!(data.total_lines(), 14);
    let workload = Benchmark::NpbCg.build(&WorkloadConfig::new(3).with_scale(0.05));
    let mut config = SimConfig::tiny(3);
    for line_bytes in [64, 128] {
        config.memory.line_bytes = line_bytes;
        let mut installed = Machine::new(&config);
        apply_warmup(installed.hierarchy_mut(), &workload, &WarmupStrategy::MruReplay(&data));
        let mut replayed = Machine::new(&config);
        replay(&mut replayed, &data);
        assert_eq!(installed.hierarchy().canonical_state(), replayed.hierarchy().canonical_state());
        assert_eq!(installed.run_region(&workload, 1), replayed.run_region(&workload, 1));
    }
}
