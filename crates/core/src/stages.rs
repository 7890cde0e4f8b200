//! The staged pipeline: explicit, independently reusable stage artifacts,
//! and the one implementation of every stage.
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
//! Each stage has one crate-private implementation here, and both the
//! staged chain and [`Sweep::run`](crate::Sweep::run) call it: the profile
//! resolver ([`resolve_profile`]), the selection probe and select-and-store
//! ([`probe_selection`], [`select_and_store`]), the warmup payloads
//! ([`warmup_payloads`]) and the leg probe, computation and store
//! ([`probe_leg`], [`compute_legs`], [`store_leg`]).  They are the only
//! bp-core code outside the cache module that probes or stores an
//! [`ArtifactCache`] (the `core-cache` lint rule enforces it), so the
//! staged chain and the sweep follow one set of rules: a cold fused profile
//! walk emits segment checkpoints when a cache can keep them, and every
//! later walk of the same content resumes from them.

use crate::cache::{
    ArtifactCache, CheckpointCacheKey, ProfileCacheKey, SelectionCacheKey, SimulatedCacheKey,
};
use crate::error::Error;
use crate::pipeline::BarrierPoint;
use crate::profile::ApplicationProfile;
use crate::reconstruct::{reconstruct, ReconstructedRun};
use crate::segment::{MruBoundaries, TraceWalk, WalkOutput, DEFAULT_SEGMENTS};
use crate::select::{select_barrierpoints_with, BarrierPointSelection};
use crate::simulate::{simulate_targets, simulation_targets, BarrierPointMetrics, WarmupKind};
use bp_clustering::SelectionStrategy;
use bp_exec::{ExecutionPolicy, WorkerBudget};
use bp_signature::SignatureConfig;
use bp_sim::SimConfig;
use bp_warmup::{MruSnapshotBank, MruWarmupData};
use bp_workload::Workload;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// The profiling stage's output: an [`ApplicationProfile`] bound to the
/// pipeline configuration that produced it.
///
/// The artifact sits behind an [`Arc`] — the same shared allocation the
/// [`ArtifactCache`](crate::ArtifactCache) memory tier holds — so cloning a
/// stage, fanning it out, or re-loading it warm is a pointer clone, never a
/// deep copy.  A cold fused profile also carries the walk's MRU snapshot
/// bank, from which the downstream [`Selected::simulate`] legs of the same
/// workload content serve their warmup without a dedicated walk.
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
        let (cache, key) = (self.pipeline.cache(), self.pipeline.selection_key());
        let config = self.pipeline.signature_config();
        let strategy = self.pipeline.selection_strategy().as_ref();
        let cached = probe_selection(cache, &key);
        let selection_was_cached = cached.is_some();
        let selection = match cached {
            Some(selection) => selection,
            None => select_and_store(cache, &key, &self.profile, config, strategy)?,
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
        self.pipeline.selection_key()
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
    /// differs from the workload's thread count,
    /// [`Error::UnsupportedCoreCount`] if it exceeds [`bp_mem::MAX_CORES`],
    /// [`Error::InvalidMemoryConfig`] if no memory hierarchy can be built
    /// from `sim_config.memory`, and propagates simulation and
    /// reconstruction errors.  Cache I/O failures degrade to recomputation
    /// (see [`CacheStats`](crate::CacheStats)) rather than failing the leg.
    pub fn simulate(&self, sim_config: &SimConfig) -> Result<Arc<Simulated>, Error> {
        self.simulate_on(self.pipeline.workload(), sim_config)
    }

    /// [`simulate`](Self::simulate) against a *different* workload instance
    /// — the cross-core-count legs of Figure 6 / Figure 8, where a selection
    /// made at one thread count drives the simulation of the same benchmark
    /// rebuilt at another (the barrier count is thread-count invariant).
    ///
    /// The MRU warmup comes from the cold profile's snapshot bank when
    /// `workload` has the profiled content and the bank's collection
    /// capacity covers the machine's LLC; otherwise from one dedicated
    /// collection walk, resumed from the cache's segment checkpoints of the
    /// profiled content when they cover the capacity.
    ///
    /// # Errors
    ///
    /// Returns [`Error::RegionCountMismatch`] if `workload` does not have the
    /// same region count as the selection, [`Error::ThreadCountMismatch`] if
    /// `sim_config.num_cores` differs from `workload`'s thread count,
    /// [`Error::UnsupportedCoreCount`] if it exceeds [`bp_mem::MAX_CORES`],
    /// [`Error::InvalidMemoryConfig`] if no memory hierarchy can be built
    /// from `sim_config.memory`, and propagates simulation and
    /// reconstruction errors (cache I/O failures degrade to recomputation).
    pub fn simulate_on<V: Workload + ?Sized>(
        &self,
        workload: &V,
        sim_config: &SimConfig,
    ) -> Result<Arc<Simulated>, Error> {
        let (cache, warmup) = (self.pipeline.cache(), self.pipeline.warmup());
        let key = SimulatedCacheKey::new(workload, &self.selection, sim_config, warmup);
        if let Some(leg) = probe_leg(cache, &key) {
            return Ok(leg);
        }
        let regions = leg_targets(&self.selection, workload, sim_config)?;
        let policy = self.pipeline.execution_policy();
        // The bank and the checkpoints hold the profiled workload's content.
        let profiled =
            workload.profile_fingerprint() == self.pipeline.workload().profile_fingerprint();
        let sources =
            profiled.then_some(WarmupSources { cache, bank: self.warmup_bank.as_deref() });
        let payload = leg_payload(sources, workload, &regions, warmup, sim_config, policy)?;
        let (selection, configs) = (&self.selection, std::slice::from_ref(sim_config));
        let legs =
            compute_legs(selection, warmup, workload, configs, policy, None, payload.as_ref())?;
        let leg = match legs.into_iter().next() {
            Some(leg) => Arc::new(leg),
            // One configuration in, one leg out.
            None => unreachable!("no leg computed for one configuration"),
        };
        store_leg(cache, &key, &leg);
        Ok(leg)
    }

    pub(crate) fn into_parts(self) -> (Arc<ApplicationProfile>, Arc<BarrierPointSelection>) {
        (self.profile, self.selection)
    }
}

/// The trace and clustering work the stage implementations executed, in
/// [`SweepCounters`](crate::SweepCounters) terms; the staged chain reads
/// only [`profile_passes`](Self::profile_passes).
#[derive(Debug, Default)]
pub(crate) struct StageWork {
    pub(crate) profile_passes: usize,
    pub(crate) clustering_passes: usize,
    pub(crate) warmup_collections: usize,
    pub(crate) trace_walks: usize,
    pub(crate) segment_walks: usize,
    pub(crate) checkpoint_hits: usize,
}

impl StageWork {
    /// Counts one walk's jobs: a walk from region 0 is one trace walk per
    /// thread; a resumed walk's jobs are segment walks, all but each
    /// thread's first restoring a checkpoint.
    fn walked(&mut self, walk: &WalkOutput, resumed: bool) {
        let walks = if resumed { &mut self.segment_walks } else { &mut self.trace_walks };
        *walks += walk.jobs;
        self.checkpoint_hits += walk.restores;
    }
}

/// The cached segment checkpoints of `workload`'s content, when `cache` is
/// given and they cover MRU collection at `capacity` lines.
fn covering_checkpoints<V: Workload + ?Sized>(
    cache: Option<&ArtifactCache>,
    workload: &V,
    capacity: u64,
) -> Option<Arc<crate::WorkloadCheckpoints>> {
    cache?
        .probe(&CheckpointCacheKey::for_workload(workload))
        .filter(|checkpoints| checkpoints.covers(workload, capacity))
}

/// The profile stage: `workload`'s profile from `cache`, or one
/// [`TraceWalk`] that computes and stores it.
///
/// With `mru_capacity` the walk is the fused cold pass: it also collects
/// MRU state at every region boundary at that capacity and returns the
/// snapshot bank (a cache-served profile returns none).  With a cache
/// attached the walk resumes from cached segment checkpoints that cover the
/// capacity; failing that, a fused walk emits [`DEFAULT_SEGMENTS`]
/// checkpoints and stores them before the profile.
pub(crate) fn resolve_profile<W: Workload + ?Sized>(
    cache: Option<&ArtifactCache>,
    workload: &W,
    mru_capacity: Option<u64>,
    policy: &ExecutionPolicy,
    budget: Option<&WorkerBudget>,
    work: &mut StageWork,
) -> Result<(Arc<ApplicationProfile>, Option<MruSnapshotBank>), Error> {
    let key = ProfileCacheKey::for_workload(workload);
    if let Some(profile) = cache.and_then(|cache| cache.probe(&key)) {
        return Ok((profile, None));
    }
    let checkpoints = covering_checkpoints(cache, workload, mru_capacity.unwrap_or(0));
    let mut walk = TraceWalk::profile();
    if let Some(capacity) = mru_capacity {
        walk = walk.with_mru(MruBoundaries::Every, capacity);
    }
    walk = match &checkpoints {
        Some(checkpoints) => walk.resuming(checkpoints),
        // Only worth taking when a cache can keep them.
        None if mru_capacity.is_some() && cache.is_some() => {
            walk.emitting_checkpoints(DEFAULT_SEGMENTS)
        }
        None => walk,
    };
    let mut walked = walk.run(workload, policy, budget)?;
    work.profile_passes += 1;
    work.warmup_collections += usize::from(mru_capacity.is_some());
    work.walked(&walked, checkpoints.is_some());
    let profile = Arc::new(walked.take_profile());
    if let Some(cache) = cache {
        if let Some(emitted) = walked.checkpoints.take() {
            cache.store_arc(&CheckpointCacheKey::for_workload(workload), &Arc::new(emitted));
        }
        cache.store_arc(&key, &profile);
    }
    Ok((profile, walked.bank.take()))
}

/// The selection stage's probe: the selection cached under `key`, if any.
/// Separate from [`select_and_store`] so a sweep can probe the selection
/// before it touches the profile.
pub(crate) fn probe_selection(
    cache: Option<&ArtifactCache>,
    key: &SelectionCacheKey,
) -> Option<Arc<BarrierPointSelection>> {
    cache?.probe(key)
}

/// The selection stage on a probe miss: selects barrierpoints from
/// `profile` under `(signature_config, strategy)` and stores the selection
/// under `key`.
pub(crate) fn select_and_store(
    cache: Option<&ArtifactCache>,
    key: &SelectionCacheKey,
    profile: &ApplicationProfile,
    signature_config: &SignatureConfig,
    strategy: &dyn SelectionStrategy,
) -> Result<Arc<BarrierPointSelection>, Error> {
    let selection = Arc::new(select_barrierpoints_with(profile, signature_config, strategy)?);
    if let Some(cache) = cache {
        cache.store_arc(key, &selection);
    }
    Ok(selection)
}

/// What the profiled workload content offers later warmup walks: the cache
/// holding its segment checkpoints, and the fused profile walk's snapshot
/// bank.  Callers pass it only for a workload of that content.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WarmupSources<'c> {
    pub(crate) cache: Option<&'c ArtifactCache>,
    pub(crate) bank: Option<&'c MruSnapshotBank>,
}

/// The warmup stage: MRU payloads of `regions` for `workload` at each of
/// `capacities`, keyed by capacity.
///
/// A bank in `sources` whose collection capacity covers every requested
/// capacity serves the payloads by assembly alone.  Otherwise one dedicated
/// collection walk runs at the largest capacity — resumed from the
/// sources' cached segment checkpoints when they cover it — and smaller
/// capacities fall out by truncation.
pub(crate) fn warmup_payloads<V: Workload + ?Sized>(
    sources: Option<WarmupSources<'_>>,
    workload: &V,
    regions: &[usize],
    capacities: &[u64],
    policy: &ExecutionPolicy,
    budget: Option<&WorkerBudget>,
    work: &mut StageWork,
) -> Result<HashMap<u64, HashMap<usize, MruWarmupData>>, Error> {
    let capacity = capacities.iter().copied().max().unwrap_or(0);
    let bank = sources.and_then(|sources| sources.bank);
    if let Some(bank) = bank.filter(|bank| bank.collection_capacity() >= capacity) {
        return Ok(bank.assemble_multi(regions, capacities));
    }
    let cache = sources.and_then(|sources| sources.cache);
    let checkpoints = covering_checkpoints(cache, workload, capacity);
    let mut walk = TraceWalk::mru(MruBoundaries::Targets(regions), capacity);
    if let Some(checkpoints) = &checkpoints {
        walk = walk.resuming(checkpoints);
    }
    let mut walked = walk.run(workload, policy, budget)?;
    work.warmup_collections += 1;
    work.walked(&walked, checkpoints.is_some());
    Ok(walked.take_bank().assemble_multi(regions, capacities))
}

/// One leg's warmup payload: [`warmup_payloads`] at `sim_config`'s LLC
/// capacity under [`WarmupKind::MruReplay`], none for the other warmups.
pub(crate) fn leg_payload<V: Workload + ?Sized>(
    sources: Option<WarmupSources<'_>>,
    workload: &V,
    regions: &[usize],
    warmup: WarmupKind,
    sim_config: &SimConfig,
    policy: &ExecutionPolicy,
) -> Result<Option<HashMap<usize, MruWarmupData>>, Error> {
    if warmup != WarmupKind::MruReplay {
        return Ok(None);
    }
    let capacity = sim_config.memory.llc_total_lines(sim_config.num_cores);
    let mut work = StageWork::default();
    let mut payloads =
        warmup_payloads(sources, workload, regions, &[capacity], policy, None, &mut work)?;
    Ok(payloads.remove(&capacity))
}

/// The leg stage's probe: the leg cached under `key`, if any.
pub(crate) fn probe_leg(
    cache: Option<&ArtifactCache>,
    key: &SimulatedCacheKey,
) -> Option<Arc<Simulated>> {
    cache?.probe(key)
}

/// The leg stage's store of a computed leg under `key`.
pub(crate) fn store_leg(
    cache: Option<&ArtifactCache>,
    key: &SimulatedCacheKey,
    leg: &Arc<Simulated>,
) {
    if let Some(cache) = cache {
        cache.store_arc(key, leg);
    }
}

/// The barrierpoint regions of `selection` when it can drive a leg of
/// `workload` on `sim_config`: the workload must have the selection's
/// region count and the machine one core per workload thread.
fn leg_targets<V: Workload + ?Sized>(
    selection: &BarrierPointSelection,
    workload: &V,
    sim_config: &SimConfig,
) -> Result<Vec<usize>, Error> {
    if workload.num_regions() != selection.num_regions() {
        return Err(Error::RegionCountMismatch {
            expected: selection.num_regions(),
            actual: workload.num_regions(),
        });
    }
    simulation_targets(workload, selection, sim_config)
}

/// The leg stage's computation for design-point legs that share one
/// detailed simulation: simulate `selection`'s barrierpoints of `workload`
/// once, on the first of `sim_configs` (optionally from a shared
/// [`WorkerBudget`], with the MRU warmup `payload` at its LLC capacity),
/// then reconstruct one whole-application estimate per configuration at
/// its own clock frequency.  Every configuration must be
/// [`cycle_equivalent`](SimConfig::cycle_equivalent) to the first, so the
/// legs come out exactly as if each had been simulated on its own.
pub(crate) fn compute_legs<V: Workload + ?Sized>(
    selection: &BarrierPointSelection,
    warmup: WarmupKind,
    workload: &V,
    sim_configs: &[SimConfig],
    policy: &ExecutionPolicy,
    budget: Option<&WorkerBudget>,
    payload: Option<&HashMap<usize, MruWarmupData>>,
) -> Result<Vec<Simulated>, Error> {
    let Some(first) = sim_configs.first() else {
        return Ok(Vec::new());
    };
    debug_assert!(sim_configs.iter().all(|c| c.cycle_equivalent(first)));
    let regions = leg_targets(selection, workload, first)?;
    let metrics = simulate_targets(workload, &regions, first, warmup, policy, budget, payload);
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
    use std::sync::atomic::{AtomicUsize, Ordering};

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

    /// With a cache attached the staged chain follows the sweep's
    /// checkpoint rule: the cold fused profile stores segment checkpoints,
    /// and a later dedicated warmup walk of the same content resumes from
    /// them — with legs identical to an uncached chain's.
    #[test]
    fn cached_staged_chain_stores_checkpoints_and_resumes_from_them() {
        let dir = std::env::temp_dir().join(format!("bp-stage-ckpt-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let w = workload(2);
        let machine = SimConfig::scaled(2);
        let cache = ArtifactCache::new(&dir);
        let cold = BarrierPoint::new(&w).with_cache(cache.clone()).profile().unwrap();
        assert!(!cold.was_cached());
        assert_eq!(cache.stats().checkpoint_misses, 1, "the cold walk probes before emitting");

        // A cache-served profile carries no bank, so a new leg collects its
        // warmup with a dedicated walk — which rides the checkpoints.
        let selected =
            BarrierPoint::new(&w).with_cache(cache.clone()).profile().unwrap().select().unwrap();
        assert!(selected.profile_was_cached());
        let leg = selected.simulate(&machine).unwrap();
        assert_eq!(cache.stats().checkpoint_memory_hits, 1);
        let uncached =
            BarrierPoint::new(&w).profile().unwrap().select().unwrap().simulate(&machine).unwrap();
        assert_eq!(leg, uncached);

        let regions = selected.selection().barrierpoint_regions();
        let capacity = machine.memory.llc_total_lines(machine.num_cores);
        let sources = WarmupSources { cache: Some(&cache), bank: None };
        let policy = ExecutionPolicy::Serial;
        let mut work = StageWork::default();
        warmup_payloads(Some(sources), &w, &regions, &[capacity], &policy, None, &mut work)
            .unwrap();
        assert_eq!((work.trace_walks, work.warmup_collections), (0, 1));
        assert!(work.segment_walks > 2, "the dedicated walk resumes as segment jobs");
        assert!(work.checkpoint_hits > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A workload that counts the region traces it generates.
    struct Counting<W> {
        inner: W,
        traces: AtomicUsize,
    }

    impl<W: Workload> Workload for Counting<W> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn num_threads(&self) -> usize {
            self.inner.num_threads()
        }
        fn num_regions(&self) -> usize {
            self.inner.num_regions()
        }
        fn block_table(&self) -> &bp_workload::BlockTable {
            self.inner.block_table()
        }
        fn region_trace(&self, region: usize, thread: usize) -> bp_workload::RegionTrace {
            self.traces.fetch_add(1, Ordering::Relaxed);
            self.inner.region_trace(region, thread)
        }
        fn region_phase_name(&self, region: usize) -> &str {
            self.inner.region_phase_name(region)
        }
        fn profile_fingerprint(&self) -> u64 {
            self.inner.profile_fingerprint()
        }
    }

    /// `simulate_on` recognises the profiled content by fingerprint, not by
    /// instance: on a separate, content-identical workload it returns the
    /// leg `simulate` computes on the profiled one — its warmup served from
    /// the fused bank without a cache, and with a cache from the leg entry
    /// or from the profiled content's segment checkpoints.
    #[test]
    fn simulate_on_a_content_identical_instance_matches_simulate() {
        let w = workload(2);
        let same = Counting { inner: workload(2), traces: AtomicUsize::new(0) };
        assert_eq!(w.profile_fingerprint(), same.profile_fingerprint());
        let machine = SimConfig::scaled(2);
        let mut fast = machine;
        fast.core.frequency_ghz *= 1.5;

        let selected = BarrierPoint::new(&w).profile().unwrap().select().unwrap();
        let leg = selected.simulate_on(&same, &machine).unwrap();
        assert_eq!(leg, selected.simulate(&machine).unwrap());
        assert_eq!(
            same.traces.load(Ordering::Relaxed),
            w.num_threads() * selected.selection().num_barrierpoints(),
            "the fused bank serves the warmup: only the barrierpoints' own traces are generated"
        );

        let dir = std::env::temp_dir().join(format!("bp-stage-same-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cache = ArtifactCache::new(&dir);
        let cold =
            BarrierPoint::new(&w).with_cache(cache.clone()).profile().unwrap().select().unwrap();
        assert_eq!(cold.simulate_on(&same, &machine).unwrap(), leg);
        assert_eq!(cold.simulate(&machine).unwrap(), leg);
        assert_eq!(cache.stats().simulated_memory_hits, 1, "one leg entry serves both instances");

        // A cache-served profile carries no bank, so a new leg on the
        // identical instance resumes its warmup walk from the checkpoints.
        let warm =
            BarrierPoint::new(&w).with_cache(cache.clone()).profile().unwrap().select().unwrap();
        assert!(warm.profile_was_cached());
        let fast_leg = warm.simulate_on(&same, &fast).unwrap();
        assert_eq!(cache.stats().checkpoint_memory_hits, 1);
        assert_eq!(fast_leg, selected.simulate(&fast).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The fused bank serves only legs within its collection capacity: a
    /// larger LLC collects its own warmup (truncating the bank would replay
    /// too few lines), matching a direct simulation.
    #[test]
    fn legs_beyond_the_bank_capacity_collect_their_own_warmup() {
        // A working set well beyond the tiny LLC, so truncation would show.
        let w = Benchmark::ParsecBodytrack.build(&WorkloadConfig::new(4).with_scale(0.05));
        let small = SimConfig::tiny(4);
        let large = SimConfig::scaled(4);
        assert!(large.memory.llc_total_lines(4) > small.memory.llc_total_lines(4));
        let selected =
            BarrierPoint::new(&w).with_sim_config(small).profile().unwrap().select().unwrap();
        let leg = selected.simulate(&large).unwrap();
        let policy = ExecutionPolicy::Serial;
        let direct = crate::simulate_barrierpoints(
            &w,
            selected.selection(),
            &large,
            WarmupKind::MruReplay,
            &policy,
        )
        .unwrap();
        assert_eq!(*leg.metrics(), direct);
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
