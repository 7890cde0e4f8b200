//! The staged pipeline: explicit, independently reusable stage artifacts.
//!
//! [`BarrierPoint::profile`](crate::BarrierPoint::profile) starts a typed
//! chain of stages, each wrapping the artifact the paper's Figure 2 produces
//! at that point:
//!
//! * [`Profiled`] — holds the [`ApplicationProfile`] (one signature per
//!   inter-barrier region).  Microarchitecture-independent; one profile
//!   serves every machine configuration.
//! * [`Selected`] — adds the [`BarrierPointSelection`] (which regions to
//!   simulate, with which multipliers).  Also machine-independent — the
//!   paper's Figure 6 transfers selections across core counts — so a single
//!   `Selected` fans out to arbitrarily many simulations.
//! * [`Simulated`] — one detailed-simulation leg: per-barrierpoint metrics
//!   on one machine configuration plus the reconstructed whole-application
//!   estimate.  A pure data artifact (serializable), detached from the
//!   workload.
//!
//! Stage transitions go through the [`ArtifactCache`](crate::ArtifactCache)
//! when one is attached, and each stage records whether its artifact was
//! recomputed or loaded — the accounting that lets
//! [`Sweep`](crate::Sweep) prove it runs each one-time stage exactly once.

use crate::cache::{SelectionCacheKey, SimulatedCacheKey};
use crate::error::Error;
use crate::pipeline::BarrierPoint;
use crate::profile::ApplicationProfile;
use crate::reconstruct::{reconstruct, ReconstructedRun};
use crate::select::{select_barrierpoints_with, BarrierPointSelection};
use crate::simulate::{BarrierPointMetrics, WarmupKind};
use bp_exec::{ExecutionPolicy, WorkerBudget};
use bp_sim::SimConfig;
use bp_warmup::MruSnapshotBank;
use bp_workload::Workload;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The profiling stage's output: an [`ApplicationProfile`] bound to the
/// pipeline configuration that produced it.
///
/// The artifact sits behind an [`Arc`] — the same shared allocation the
/// [`ArtifactCache`](crate::ArtifactCache) memory tier holds — so cloning a
/// stage, fanning it out, or re-loading it warm is a pointer clone, never a
/// deep copy.
///
/// Created by [`BarrierPoint::profile`](crate::BarrierPoint::profile).
#[derive(Debug, Clone)]
pub struct Profiled<'a, W: Workload + ?Sized> {
    pub(crate) pipeline: BarrierPoint<'a, W>,
    pub(crate) profile: Arc<ApplicationProfile>,
    pub(crate) was_cached: bool,
    pub(crate) warmup_bank: Option<Arc<MruSnapshotBank>>,
}

impl<'a, W: Workload + ?Sized> Profiled<'a, W> {
    /// The profiling artifact (serializable, machine-independent).
    pub fn profile(&self) -> &ApplicationProfile {
        &self.profile
    }

    /// Attaches an interval-sharing MRU snapshot bank collected from this
    /// profile's workload, so downstream [`Selected::simulate`] legs serve
    /// their warmup from it instead of running a dedicated collection walk.
    ///
    /// [`BarrierPoint::profile`](crate::BarrierPoint::profile) attaches the
    /// bank of a cold fused pass automatically; this hook exists for callers
    /// who ran [`profile_and_collect_warmup`](crate::profile_and_collect_warmup)
    /// themselves.
    pub fn with_warmup_bank(mut self, bank: Arc<MruSnapshotBank>) -> Self {
        self.warmup_bank = Some(bank);
        self
    }

    /// The attached MRU snapshot bank, if any.
    pub fn warmup_bank(&self) -> Option<&Arc<MruSnapshotBank>> {
        self.warmup_bank.as_ref()
    }

    /// Extracts the bare artifact, dropping the pipeline binding (cloning
    /// only if the cache memory tier still shares the allocation).
    pub fn into_profile(self) -> ApplicationProfile {
        Arc::unwrap_or_clone(self.profile)
    }

    /// The workload the profile was collected from.
    pub fn workload(&self) -> &'a W {
        self.pipeline.workload()
    }

    /// `true` when the profile was loaded from the attached
    /// [`ArtifactCache`](crate::ArtifactCache) instead of being recomputed.
    pub fn was_cached(&self) -> bool {
        self.was_cached
    }

    /// Clusters the profiled regions and selects barrierpoints under the
    /// pipeline's signature configuration and selection strategy, consulting
    /// the selection cache when an [`ArtifactCache`](crate::ArtifactCache)
    /// is attached.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyWorkload`] if the profile has no regions.
    /// Cache I/O failures degrade to recomputation (see
    /// [`CacheStats`](crate::CacheStats)) rather than failing the stage.
    pub fn select(self) -> Result<Selected<'a, W>, Error> {
        let signature_config = *self.pipeline.signature_config();
        let strategy = Arc::clone(self.pipeline.selection_strategy());
        let (selection, selection_was_cached) = match self.pipeline.cache() {
            Some(cache) => cache.load_or_select(
                &self.profile,
                self.pipeline.workload(),
                &signature_config,
                strategy.as_ref(),
            )?,
            None => (
                Arc::new(select_barrierpoints_with(
                    &self.profile,
                    &signature_config,
                    strategy.as_ref(),
                )?),
                false,
            ),
        };
        Ok(Selected {
            pipeline: self.pipeline,
            profile: self.profile,
            profile_was_cached: self.was_cached,
            selection,
            selection_was_cached,
            warmup_bank: self.warmup_bank,
        })
    }
}

/// The selection stage's output: barrierpoints plus multipliers, ready to
/// fan out to any number of detailed-simulation legs.
///
/// Created by [`Profiled::select`].
#[derive(Debug, Clone)]
pub struct Selected<'a, W: Workload + ?Sized> {
    pipeline: BarrierPoint<'a, W>,
    profile: Arc<ApplicationProfile>,
    profile_was_cached: bool,
    selection: Arc<BarrierPointSelection>,
    selection_was_cached: bool,
    warmup_bank: Option<Arc<MruSnapshotBank>>,
}

impl<'a, W: Workload + ?Sized> Selected<'a, W> {
    /// The profiling artifact the selection was derived from.
    pub fn profile(&self) -> &ApplicationProfile {
        &self.profile
    }

    /// The selection artifact (serializable, machine-independent).
    pub fn selection(&self) -> &BarrierPointSelection {
        &self.selection
    }

    /// Extracts the bare selection artifact, dropping the pipeline binding
    /// (cloning only if the cache memory tier still shares the allocation).
    pub fn into_selection(self) -> BarrierPointSelection {
        Arc::unwrap_or_clone(self.selection)
    }

    /// The workload the selection was derived from.
    pub fn workload(&self) -> &'a W {
        self.pipeline.workload()
    }

    /// `true` when the profile came from the attached cache.
    pub fn profile_was_cached(&self) -> bool {
        self.profile_was_cached
    }

    /// `true` when the selection came from the attached cache (the
    /// clustering pass was skipped entirely).
    pub fn selection_was_cached(&self) -> bool {
        self.selection_was_cached
    }

    /// The on-disk cache key of this selection, when one is derivable.
    pub fn selection_cache_key(&self) -> SelectionCacheKey {
        SelectionCacheKey::for_workload(
            self.pipeline.workload(),
            self.pipeline.signature_config(),
            self.pipeline.selection_strategy().as_ref(),
        )
    }

    /// Simulates the barrierpoints on `sim_config` (whose core count must
    /// match the workload's thread count) and reconstructs the
    /// whole-application estimate — one design-point leg.
    ///
    /// Takes `&self` so a design-space sweep can fan many legs out from one
    /// selection.  When an [`ArtifactCache`](crate::ArtifactCache) is
    /// attached the leg itself is memoized, keyed by the selection *content*
    /// plus the `(SimConfig, WarmupKind)` pair: a repeated leg loads from
    /// the cache (a pointer clone on a memory-tier hit, a disk decode
    /// otherwise) and skips both the warmup collection and the detailed
    /// simulation.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ThreadCountMismatch`] if `sim_config.num_cores`
    /// differs from the workload's thread count, and propagates simulation
    /// and reconstruction errors.  Cache I/O failures degrade to
    /// recomputation (see [`CacheStats`](crate::CacheStats)) rather than
    /// failing the leg.
    pub fn simulate(&self, sim_config: &SimConfig) -> Result<Arc<Simulated>, Error> {
        self.simulate_on(self.pipeline.workload(), sim_config)
    }

    /// [`simulate`](Self::simulate) against a *different* workload instance
    /// — the cross-core-count legs of Figure 6 / Figure 8, where a selection
    /// made at one thread count drives the simulation of the same benchmark
    /// rebuilt at another (the barrier count is thread-count invariant).
    ///
    /// # Errors
    ///
    /// Returns [`Error::RegionCountMismatch`] if `workload` does not have the
    /// same region count as the selection, [`Error::ThreadCountMismatch`] if
    /// `sim_config.num_cores` differs from `workload`'s thread count, and
    /// propagates simulation and reconstruction errors (cache I/O failures
    /// degrade to recomputation).
    pub fn simulate_on<V: Workload + ?Sized>(
        &self,
        workload: &V,
        sim_config: &SimConfig,
    ) -> Result<Arc<Simulated>, Error> {
        match self.pipeline.cache() {
            Some(cache) => {
                let key = SimulatedCacheKey::new(
                    workload,
                    &self.selection,
                    sim_config,
                    self.pipeline.warmup(),
                );
                let (simulated, _was_cached) = cache.load_or_simulate(&key, || {
                    let payload = self.fused_payload(workload, sim_config);
                    self.simulate_on_with(
                        workload,
                        sim_config,
                        self.pipeline.execution_policy(),
                        None,
                        payload.as_ref(),
                    )
                    .map(Arc::new)
                })?;
                Ok(simulated)
            }
            None => {
                let payload = self.fused_payload(workload, sim_config);
                self.simulate_on_with(
                    workload,
                    sim_config,
                    self.pipeline.execution_policy(),
                    None,
                    payload.as_ref(),
                )
                .map(Arc::new)
            }
        }
    }

    /// The warmup payload this leg can serve from the fused profiling walk's
    /// snapshot bank, if the bank applies: MRU warmup, same workload content
    /// the bank was collected from, and an LLC capacity within the bank's
    /// collection capacity.  `None` means the leg collects its own warmup
    /// (one dedicated walk per thread).
    fn fused_payload<V: Workload + ?Sized>(
        &self,
        workload: &V,
        sim_config: &SimConfig,
    ) -> Option<std::collections::HashMap<usize, bp_warmup::MruWarmupData>> {
        let bank = self.warmup_bank.as_deref()?;
        if self.pipeline.warmup() != WarmupKind::MruReplay {
            return None;
        }
        let capacity = sim_config.memory.llc_total_lines(sim_config.num_cores);
        if capacity > bank.collection_capacity() {
            return None;
        }
        if workload.profile_fingerprint() != self.pipeline.workload().profile_fingerprint() {
            return None;
        }
        Some(bank.assemble(&self.selection.barrierpoint_regions(), capacity))
    }

    /// The cache key a [`simulate_on`](Self::simulate_on) leg would use.
    pub fn simulated_cache_key<V: Workload + ?Sized>(
        &self,
        workload: &V,
        sim_config: &SimConfig,
    ) -> SimulatedCacheKey {
        SimulatedCacheKey::new(workload, &self.selection, sim_config, self.pipeline.warmup())
    }

    /// The uncached compute path of one leg, under an explicit execution
    /// policy, an optional shared [`WorkerBudget`] (so concurrent sweep legs
    /// steal idle workers from each other instead of splitting the machine
    /// statically) and an optionally precollected MRU warmup payload (so
    /// legs sharing a workload and LLC capacity share one collection pass).
    /// [`Sweep`](crate::Sweep) drives this directly — it probes the
    /// simulated-leg cache up front, before deciding what to collect and
    /// simulate.
    pub(crate) fn simulate_on_with<V: Workload + ?Sized>(
        &self,
        workload: &V,
        sim_config: &SimConfig,
        policy: &ExecutionPolicy,
        budget: Option<&WorkerBudget>,
        precollected_mru: Option<&std::collections::HashMap<usize, bp_warmup::MruWarmupData>>,
    ) -> Result<Simulated, Error> {
        let mut legs = compute_legs(
            &self.selection,
            self.pipeline.warmup(),
            workload,
            std::slice::from_ref(sim_config),
            policy,
            budget,
            precollected_mru,
        )?;
        match legs.pop() {
            Some(leg) => Ok(leg),
            // One configuration in, one leg out.
            None => unreachable!("no leg computed for one configuration"),
        }
    }

    pub(crate) fn into_parts(self) -> (Arc<ApplicationProfile>, Arc<BarrierPointSelection>) {
        (self.profile, self.selection)
    }
}

/// The uncached compute path of design-point legs that share one detailed
/// simulation, detached from the staged chain: simulate `selection`'s
/// barrierpoints of `workload` once, on the first of `sim_configs`
/// (optionally from a shared [`WorkerBudget`] and a precollected MRU warmup
/// payload), then reconstruct one whole-application estimate per
/// configuration at its own clock frequency.  Every configuration must be
/// [`cycle_equivalent`](SimConfig::cycle_equivalent) to the first, so the
/// legs come out exactly as if each had been simulated on its own.
/// [`Sweep`](crate::Sweep) drives this directly — it resolves the selection
/// without materializing a [`Selected`] stage (a sweep whose selection is
/// cached never needs the profile at all).
pub(crate) fn compute_legs<V: Workload + ?Sized>(
    selection: &BarrierPointSelection,
    warmup: WarmupKind,
    workload: &V,
    sim_configs: &[SimConfig],
    policy: &ExecutionPolicy,
    budget: Option<&WorkerBudget>,
    precollected_mru: Option<&std::collections::HashMap<usize, bp_warmup::MruWarmupData>>,
) -> Result<Vec<Simulated>, Error> {
    let Some(first) = sim_configs.first() else {
        return Ok(Vec::new());
    };
    debug_assert!(sim_configs.iter().all(|c| c.cycle_equivalent(first)));
    if workload.num_regions() != selection.num_regions() {
        return Err(Error::RegionCountMismatch {
            expected: selection.num_regions(),
            actual: workload.num_regions(),
        });
    }
    let metrics = crate::simulate::simulate_barrierpoints_impl(
        workload,
        selection,
        first,
        warmup,
        policy,
        budget,
        precollected_mru,
    )?;
    sim_configs
        .iter()
        .map(|sim_config| {
            let reconstruction = reconstruct(selection, &metrics, sim_config.core.frequency_ghz)?;
            Ok(Simulated {
                workload_name: workload.name().to_string(),
                sim_config: *sim_config,
                warmup,
                metrics: metrics.clone(),
                reconstruction,
            })
        })
        .collect()
}

/// One detailed-simulation leg: metrics of every simulated barrierpoint on
/// one machine configuration, plus the reconstructed whole-application
/// estimate.
///
/// Unlike the earlier stages this is a pure data artifact — no workload
/// binding — so it serializes, ships, and diffs like the other artifacts.
/// Created by [`Selected::simulate`] / [`Selected::simulate_on`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Simulated {
    workload_name: String,
    sim_config: SimConfig,
    warmup: WarmupKind,
    metrics: BarrierPointMetrics,
    reconstruction: ReconstructedRun,
}

impl Simulated {
    /// Name of the workload that was simulated.
    pub fn workload_name(&self) -> &str {
        &self.workload_name
    }

    /// The machine configuration of this leg.
    pub fn sim_config(&self) -> &SimConfig {
        &self.sim_config
    }

    /// The warmup technique applied before each barrierpoint.
    pub fn warmup(&self) -> WarmupKind {
        self.warmup
    }

    /// Detailed metrics of each simulated barrierpoint.
    pub fn metrics(&self) -> &BarrierPointMetrics {
        &self.metrics
    }

    /// The reconstructed whole-application estimate.
    pub fn reconstruction(&self) -> &ReconstructedRun {
        &self.reconstruction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ArtifactCache;
    use crate::pipeline::BarrierPoint;
    use bp_workload::{Benchmark, WorkloadConfig};

    fn workload(threads: usize) -> impl Workload {
        Benchmark::NpbIs.build(&WorkloadConfig::new(threads).with_scale(0.02))
    }

    #[test]
    fn stages_chain_and_expose_artifacts() {
        let w = workload(4);
        let profiled = BarrierPoint::new(&w).profile().unwrap();
        assert!(!profiled.was_cached());
        assert_eq!(profiled.profile().num_regions(), 11);

        let selected = profiled.select().unwrap();
        assert!(!selected.selection_was_cached());
        assert!(selected.selection().num_barrierpoints() >= 1);

        let simulated = selected.simulate(&SimConfig::scaled(4)).unwrap();
        assert_eq!(simulated.metrics().len(), selected.selection().num_barrierpoints());
        assert!(simulated.reconstruction().execution_time_seconds() > 0.0);
        assert_eq!(simulated.workload_name(), "npb-is");
    }

    #[test]
    fn one_selection_fans_out_to_many_legs() {
        let w = workload(2);
        let selected = BarrierPoint::new(&w).profile().unwrap().select().unwrap();
        let base = SimConfig::scaled(2);
        let mut fast = base;
        fast.core.frequency_ghz *= 2.0;
        let slow_leg = selected.simulate(&base).unwrap();
        let fast_leg = selected.simulate(&fast).unwrap();
        assert!(
            fast_leg.reconstruction().execution_time_seconds()
                < slow_leg.reconstruction().execution_time_seconds()
        );
    }

    #[test]
    fn simulate_on_transfers_a_selection_across_thread_counts() {
        let bench = Benchmark::NpbIs;
        let w2 = bench.build(&WorkloadConfig::new(2).with_scale(0.02));
        let w4 = bench.build(&WorkloadConfig::new(4).with_scale(0.02));
        let selected = BarrierPoint::new(&w2).profile().unwrap().select().unwrap();
        let leg = selected.simulate_on(&w4, &SimConfig::scaled(4)).unwrap();
        assert!(leg.reconstruction().execution_time_seconds() > 0.0);

        // Thread/core mismatch on the leg is still rejected.
        let err = selected.simulate_on(&w4, &SimConfig::scaled(2)).unwrap_err();
        assert!(matches!(err, Error::ThreadCountMismatch { .. }));

        // And a workload with a different region structure is rejected.
        let other = Benchmark::NpbCg.build(&WorkloadConfig::new(2).with_scale(0.02));
        let err = selected.simulate_on(&other, &SimConfig::scaled(2)).unwrap_err();
        assert!(matches!(err, Error::RegionCountMismatch { .. }));
    }

    #[test]
    fn simulated_artifact_round_trips_through_serde() {
        let w = workload(2);
        let simulated = BarrierPoint::new(&w)
            .profile()
            .unwrap()
            .select()
            .unwrap()
            .simulate(&SimConfig::scaled(2))
            .unwrap();
        let bytes = serde::to_vec(&simulated);
        let back: Simulated = serde::from_slice(&bytes).unwrap();
        assert_eq!(*simulated, back);
    }

    #[test]
    fn staged_chain_reuses_cached_artifacts() {
        let dir = std::env::temp_dir().join(format!("bp-stage-cache-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let w = workload(2);
        let cache = ArtifactCache::new(&dir);

        let first =
            BarrierPoint::new(&w).with_cache(cache.clone()).profile().unwrap().select().unwrap();
        assert!(!first.profile_was_cached() && !first.selection_was_cached());

        let second =
            BarrierPoint::new(&w).with_cache(cache.clone()).profile().unwrap().select().unwrap();
        assert!(second.profile_was_cached() && second.selection_was_cached());
        assert_eq!(first.selection(), second.selection());
        std::fs::remove_dir_all(&dir).ok();
    }
}
