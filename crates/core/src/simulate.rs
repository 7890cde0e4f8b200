use crate::error::Error;
use crate::select::BarrierPointSelection;
use crate::sync::Mutex;
use bp_exec::{ExecutionPolicy, WorkerBudget};
use bp_sim::{Machine, RegionMetrics, SimConfig};
use bp_warmup::{apply_warmup, MruWarmupData, WarmupStrategy};
use bp_workload::Workload;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Detailed simulation results keyed by barrierpoint region index.
pub type BarrierPointMetrics = BTreeMap<usize, RegionMetrics>;

/// Which warmup technique to use before the detailed simulation of each
/// barrierpoint (the configuration-level counterpart of
/// [`bp_warmup::WarmupStrategy`], which carries the actual payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WarmupKind {
    /// No warmup: every barrierpoint starts with cold caches.
    Cold,
    /// The paper's proposal: replay each core's most recently used unique
    /// cache lines, bounded by the LLC capacity (Section IV).
    MruReplay,
    /// Functionally replay all memory accesses of every preceding region
    /// (accurate but costs time proportional to the skipped instructions).
    FunctionalReplay,
}

impl WarmupKind {
    /// Short label used in reports and benchmark ids.
    pub fn name(self) -> &'static str {
        match self {
            WarmupKind::Cold => "cold",
            WarmupKind::MruReplay => "mru-replay",
            WarmupKind::FunctionalReplay => "functional",
        }
    }
}

/// Simulates every selected barrierpoint in detail on its own machine
/// instance and returns per-barrierpoint metrics.
///
/// Barrierpoints are mutually independent — exactly the property the paper
/// exploits — so under [`ExecutionPolicy::Parallel`] they are simulated
/// concurrently on worker threads (one simulated machine each); under
/// [`ExecutionPolicy::Serial`] they run back to back, which models the
/// "serial speedup" resource scenario of Figure 9.  Results are identical in
/// both modes.
///
/// # Errors
///
/// Returns [`Error::ThreadCountMismatch`] if the workload's thread count does
/// not match `sim_config.num_cores`, [`Error::UnsupportedCoreCount`] if that
/// exceeds [`bp_mem::MAX_CORES`], [`Error::InvalidMemoryConfig`] if no
/// memory hierarchy can be built from `sim_config.memory`, and
/// [`Error::RegionOutOfRange`] if the selection refers to regions the
/// workload does not have.
pub fn simulate_barrierpoints<W: Workload + ?Sized>(
    workload: &W,
    selection: &BarrierPointSelection,
    sim_config: &SimConfig,
    warmup: WarmupKind,
    policy: &ExecutionPolicy,
) -> Result<BarrierPointMetrics, Error> {
    let regions = simulation_targets(workload, selection, sim_config)?;
    let payload = crate::stages::leg_payload(None, workload, &regions, warmup, sim_config, policy)?;
    Ok(simulate_targets(workload, &regions, sim_config, warmup, policy, None, payload.as_ref()))
}

/// The barrierpoint regions of `selection` when `workload` can be
/// simulated on `sim_config`: one core per workload thread, no more cores
/// than the memory hierarchy models, a memory geometry it can be built
/// from, and every barrierpoint a region of the workload.
pub(crate) fn simulation_targets<W: Workload + ?Sized>(
    workload: &W,
    selection: &BarrierPointSelection,
    sim_config: &SimConfig,
) -> Result<Vec<usize>, Error> {
    if workload.num_threads() != sim_config.num_cores {
        return Err(Error::ThreadCountMismatch {
            workload_threads: workload.num_threads(),
            machine_cores: sim_config.num_cores,
        });
    }
    if sim_config.num_cores > bp_mem::MAX_CORES {
        return Err(Error::UnsupportedCoreCount {
            cores: sim_config.num_cores,
            max: bp_mem::MAX_CORES,
        });
    }
    check_memory(sim_config)?;
    let regions = selection.barrierpoint_regions();
    if let Some(&bad) = regions.iter().find(|&&r| r >= workload.num_regions()) {
        return Err(Error::RegionOutOfRange { region: bad, num_regions: workload.num_regions() });
    }
    Ok(regions)
}

/// [`Error::InvalidMemoryConfig`] unless a memory hierarchy can be built
/// from `sim_config.memory`.
pub(crate) fn check_memory(sim_config: &SimConfig) -> Result<(), Error> {
    sim_config.memory.validate().map_err(|message| Error::InvalidMemoryConfig { message })
}

/// Simulates each of the validated [`simulation_targets`] `regions` on its
/// own machine instance, drawing helper threads from `budget` when given (a
/// design-space sweep passes one budget to every concurrent leg, so workers
/// idled by a drained leg immediately help the busy ones).  Under
/// [`WarmupKind::MruReplay`], `mru` must hold every region's payload,
/// collected from `workload` at `sim_config.memory.llc_total_lines(num_cores)`.
pub(crate) fn simulate_targets<W: Workload + ?Sized>(
    workload: &W,
    regions: &[usize],
    sim_config: &SimConfig,
    warmup: WarmupKind,
    policy: &ExecutionPolicy,
    budget: Option<&WorkerBudget>,
    mru: Option<&HashMap<usize, MruWarmupData>>,
) -> BarrierPointMetrics {
    // One machine per worker: `apply_warmup` sets every cache and counter,
    // so a machine left by one barrierpoint serves the next unchanged.
    let idle: Mutex<Vec<Machine>> = Mutex::new(Vec::new());
    let simulate_one = |region: usize| -> (usize, RegionMetrics) {
        let spare = idle.lock().pop();
        let mut machine = spare.unwrap_or_else(|| Machine::new(sim_config));
        let strategy = match warmup {
            WarmupKind::Cold => WarmupStrategy::Cold,
            WarmupKind::FunctionalReplay => WarmupStrategy::FunctionalReplay { region },
            WarmupKind::MruReplay => match mru.and_then(|data| data.get(&region)) {
                Some(data) => WarmupStrategy::MruReplay(data),
                // Every MRU caller collects the payload of exactly the
                // barrierpoint regions simulated here.
                None => unreachable!("no warmup collected for barrierpoint region {region}"),
            },
        };
        apply_warmup(machine.hierarchy_mut(), workload, &strategy);
        let metrics = machine.run_region(workload, region);
        idle.lock().push(machine);
        (region, metrics)
    };
    let per_region = match budget {
        Some(budget) => {
            policy.execute_budgeted(regions.len(), budget, |i| simulate_one(regions[i]))
        }
        None => policy.execute(regions.len(), |i| simulate_one(regions[i])),
    };
    per_region.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile_application_with;
    use crate::select::select_barrierpoints;
    use bp_clustering::SimPointConfig;
    use bp_signature::SignatureConfig;
    use bp_workload::{Benchmark, WorkloadConfig};

    fn setup() -> (impl Workload, BarrierPointSelection) {
        let w = Benchmark::NpbCg.build(&WorkloadConfig::new(4).with_scale(0.02));
        let profile = profile_application_with(&w, &ExecutionPolicy::Serial).unwrap();
        let selection =
            select_barrierpoints(&profile, &SignatureConfig::combined(), &SimPointConfig::paper())
                .unwrap();
        (w, selection)
    }

    #[test]
    fn serial_and_parallel_simulation_agree() {
        let (w, selection) = setup();
        let config = SimConfig::scaled(4);
        let serial = simulate_barrierpoints(
            &w,
            &selection,
            &config,
            WarmupKind::MruReplay,
            &ExecutionPolicy::Serial,
        )
        .unwrap();
        let parallel = simulate_barrierpoints(
            &w,
            &selection,
            &config,
            WarmupKind::MruReplay,
            &ExecutionPolicy::parallel_with(4),
        )
        .unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(serial.len(), selection.num_barrierpoints());
    }

    #[test]
    fn warmup_reduces_estimated_cycles() {
        let (w, selection) = setup();
        let config = SimConfig::scaled(4);
        let cold = simulate_barrierpoints(
            &w,
            &selection,
            &config,
            WarmupKind::Cold,
            &ExecutionPolicy::Serial,
        )
        .unwrap();
        let warm = simulate_barrierpoints(
            &w,
            &selection,
            &config,
            WarmupKind::MruReplay,
            &ExecutionPolicy::Serial,
        )
        .unwrap();
        let cold_cycles: u64 = cold.values().map(|m| m.cycles).sum();
        let warm_cycles: u64 = warm.values().map(|m| m.cycles).sum();
        assert!(warm_cycles <= cold_cycles, "warm {warm_cycles} vs cold {cold_cycles}");
    }

    #[test]
    fn thread_mismatch_is_reported() {
        let (w, selection) = setup();
        let err = simulate_barrierpoints(
            &w,
            &selection,
            &SimConfig::scaled(8),
            WarmupKind::Cold,
            &ExecutionPolicy::Serial,
        )
        .unwrap_err();
        assert!(matches!(err, Error::ThreadCountMismatch { .. }));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(WarmupKind::MruReplay.name(), "mru-replay");
        assert_eq!(WarmupKind::Cold.name(), "cold");
        assert_eq!(WarmupKind::FunctionalReplay.name(), "functional");
    }
}
