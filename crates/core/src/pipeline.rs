use crate::cache::{ArtifactCache, SelectionCacheKey};
use crate::error::Error;
use crate::profile::ApplicationProfile;
use crate::reconstruct::ReconstructedRun;
use crate::select::BarrierPointSelection;
use crate::simulate::{check_memory, BarrierPointMetrics, WarmupKind};
use crate::stages::{resolve_profile, Profiled, Selected, Simulated, StageWork};
use bp_clustering::{SelectionStrategy, SimPointConfig, SimPointStrategy};
use bp_exec::ExecutionPolicy;
use bp_signature::SignatureConfig;
use bp_sim::SimConfig;
use bp_workload::Workload;
use std::sync::Arc;

/// The end-to-end BarrierPoint pipeline (Figure 2 of the paper) as a staged
/// builder.
///
/// Defaults follow the paper: combined BBV + LDV signatures, SimPoint
/// parameters of Table II, MRU-replay warmup, parallel execution of both the
/// profiling pass and the barrierpoint simulations
/// ([`ExecutionPolicy::Parallel`]), and a simulated machine with as many
/// cores as the workload has threads.
///
/// The pipeline's stages are explicit artifacts:
/// [`profile`](Self::profile) → [`Profiled`],
/// [`Profiled::select`] → [`Selected`], and
/// [`Selected::simulate`] → [`crate::Simulated`] — each inspectable,
/// serializable, cacheable, and independently reusable (a single `Selected`
/// fans out to many simulation legs; see [`crate::Sweep`]).
/// [`run`](Self::run) remains the one-call convenience wrapper over the
/// whole chain.
///
/// See the crate-level documentation for a complete example.
#[derive(Debug)]
pub struct BarrierPoint<'a, W: Workload + ?Sized> {
    workload: &'a W,
    signature_config: SignatureConfig,
    strategy: Arc<dyn SelectionStrategy>,
    sim_config: Option<SimConfig>,
    warmup: WarmupKind,
    execution: ExecutionPolicy,
    cache: Option<ArtifactCache>,
}

// Manual impl: a derive would needlessly require `W: Clone` (the workload is
// only held by reference).
impl<W: Workload + ?Sized> Clone for BarrierPoint<'_, W> {
    fn clone(&self) -> Self {
        Self {
            workload: self.workload,
            signature_config: self.signature_config,
            strategy: Arc::clone(&self.strategy),
            sim_config: self.sim_config,
            warmup: self.warmup,
            execution: self.execution,
            cache: self.cache.clone(),
        }
    }
}

impl<'a, W: Workload + ?Sized> BarrierPoint<'a, W> {
    /// Starts a pipeline for `workload` with the paper's default settings.
    pub fn new(workload: &'a W) -> Self {
        Self {
            workload,
            signature_config: SignatureConfig::combined(),
            strategy: Arc::new(SimPointStrategy::new(SimPointConfig::paper())),
            sim_config: None,
            warmup: WarmupKind::MruReplay,
            execution: ExecutionPolicy::parallel(),
            cache: None,
        }
    }

    /// Selects which signatures to cluster on (Figure 5's variants).
    pub fn with_signature_config(mut self, config: SignatureConfig) -> Self {
        self.signature_config = config;
        self
    }

    /// Overrides the SimPoint clustering parameters (Table II).
    ///
    /// Shorthand for [`with_selection_strategy`](Self::with_selection_strategy)
    /// with a [`SimPointStrategy`] — prefer that method when the backend
    /// itself should vary, not just the default backend's parameters.
    pub fn with_simpoint_config(self, config: SimPointConfig) -> Self {
        self.with_selection_strategy(Arc::new(SimPointStrategy::new(config)))
    }

    /// Replaces the barrierpoint selection backend (the default is
    /// [`SimPointStrategy`] with Table II parameters).  The strategy's
    /// [`fingerprint`](SelectionStrategy::fingerprint) keys the selection in
    /// an attached [`ArtifactCache`] and in [`crate::Sweep`] deduplication.
    pub fn with_selection_strategy(mut self, strategy: Arc<dyn SelectionStrategy>) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the simulated machine used by [`run`](Self::run).  Defaults to
    /// [`SimConfig::scaled`] with one core per workload thread.  (The staged
    /// chain takes the machine at [`Selected::simulate`] instead, where one
    /// selection can fan out to many machines.)
    pub fn with_sim_config(mut self, config: SimConfig) -> Self {
        self.sim_config = Some(config);
        self
    }

    /// Selects the warmup technique applied before each barrierpoint's
    /// detailed simulation.
    pub fn with_warmup(mut self, warmup: WarmupKind) -> Self {
        self.warmup = warmup;
        self
    }

    /// Selects how the index-parallel pipeline stages — the per-thread
    /// profiling passes and the per-barrierpoint detailed simulations —
    /// execute.  [`ExecutionPolicy::Serial`] runs them back to back (useful
    /// for deterministic timing measurements of the harness itself, and the
    /// Figure 9 "serial speedup" scenario); the default is
    /// [`ExecutionPolicy::Parallel`] over all CPUs.  Results are identical
    /// under every policy.
    pub fn with_execution_policy(mut self, policy: ExecutionPolicy) -> Self {
        self.execution = policy;
        self
    }

    /// Attaches a persistent [`ArtifactCache`]: [`profile`](Self::profile)
    /// reuses an on-disk profile for this workload when one exists, and
    /// [`Profiled::select`] likewise reuses a cached selection for the
    /// configured `(SignatureConfig, SelectionStrategy)` pair.  Both artifacts
    /// are microarchitecture-independent, so one cached pair serves every
    /// machine configuration in a design-space sweep.
    pub fn with_cache(mut self, cache: ArtifactCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The workload the pipeline runs on.
    pub fn workload(&self) -> &'a W {
        self.workload
    }

    /// The configured signature selection.
    pub fn signature_config(&self) -> &SignatureConfig {
        &self.signature_config
    }

    /// The configured barrierpoint selection backend.
    pub fn selection_strategy(&self) -> &Arc<dyn SelectionStrategy> {
        &self.strategy
    }

    /// The configured warmup technique.
    pub fn warmup(&self) -> WarmupKind {
        self.warmup
    }

    /// The configured execution policy.
    pub fn execution_policy(&self) -> &ExecutionPolicy {
        &self.execution
    }

    /// The attached artifact cache, if any.
    pub fn cache(&self) -> Option<&ArtifactCache> {
        self.cache.as_ref()
    }

    /// The cache key of the selection this pipeline's configuration makes.
    pub(crate) fn selection_key(&self) -> SelectionCacheKey {
        SelectionCacheKey::for_workload(
            self.workload,
            &self.signature_config,
            self.strategy.as_ref(),
        )
    }

    pub(crate) fn effective_sim_config(&self) -> SimConfig {
        self.sim_config.unwrap_or_else(|| SimConfig::scaled(self.workload.num_threads()))
    }

    /// Runs the profiling stage (through the artifact cache, when one is
    /// attached) and returns the [`Profiled`] stage, from which
    /// [`Profiled::select`] and [`Selected::simulate`] continue the chain.
    ///
    /// A cold profile under [`WarmupKind::MruReplay`] joins the fused
    /// economy: the one trace walk per thread also feeds an interval-sharing
    /// MRU snapshot bank (collected at the effective machine's LLC
    /// capacity), which [`Selected::simulate`] then serves warmup from —
    /// no dedicated collection walk.  A cache-served profile skips the walk
    /// entirely and carries no bank.
    ///
    /// With a cache attached the profile follows [`crate::Sweep`]'s
    /// checkpoint rule: a cold fused walk also stores the workload's
    /// region-segment checkpoints, and a later walk of the same content —
    /// a re-profile, or a leg's dedicated warmup collection — resumes from
    /// them as `threads × segments` jobs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyWorkload`] for a workload with no regions, and
    /// under [`WarmupKind::MruReplay`] [`Error::InvalidMemoryConfig`] when
    /// the effective machine's memory hierarchy cannot be built (its LLC
    /// capacity bounds the warmup).  Cache I/O failures never surface
    /// here: they degrade to a recompute (see
    /// [`CacheStats::degraded_loads`](crate::CacheStats::degraded_loads)).
    pub fn profile(self) -> Result<Profiled<'a, W>, Error> {
        let mru_capacity = match self.warmup {
            WarmupKind::MruReplay => {
                let sim_config = self.effective_sim_config();
                check_memory(&sim_config)?;
                Some(sim_config.memory.llc_total_lines(sim_config.num_cores))
            }
            _ => None,
        };
        let mut work = StageWork::default();
        let (profile, bank) = resolve_profile(
            self.cache.as_ref(),
            self.workload,
            mru_capacity,
            &self.execution,
            None,
            &mut work,
        )?;
        Ok(Profiled {
            pipeline: self,
            profile,
            was_cached: work.profile_passes == 0,
            warmup_bank: bank.map(Arc::new),
        })
    }

    /// Runs profiling and barrierpoint selection — shorthand for
    /// [`profile()`](Self::profile)`?.`[`select()`](Profiled::select).
    ///
    /// # Errors
    ///
    /// Propagates profiling, selection and cache errors.
    pub fn select(self) -> Result<Selected<'a, W>, Error> {
        self.profile()?.select()
    }

    /// Runs the complete pipeline: profile, select, simulate the
    /// barrierpoints with the configured warmup, and reconstruct
    /// whole-application metrics.  This is the convenience wrapper over the
    /// staged chain — equivalent to
    /// `self.profile()?.select()?.simulate(&sim_config)?` with the artifacts
    /// bundled into one [`BarrierPointOutcome`].
    ///
    /// # Errors
    ///
    /// Returns an [`Error`] if any stage fails (empty workload, thread/core
    /// mismatch, missing metrics).
    pub fn run(&self) -> Result<BarrierPointOutcome, Error> {
        let sim_config = self.effective_sim_config();
        if sim_config.num_cores != self.workload.num_threads() {
            return Err(Error::ThreadCountMismatch {
                workload_threads: self.workload.num_threads(),
                machine_cores: sim_config.num_cores,
            });
        }
        let selected = self.clone().profile()?.select()?;
        let simulated = selected.simulate(&sim_config)?;
        let (profile, selection) = selected.into_parts();
        Ok(BarrierPointOutcome { profile, selection, simulated })
    }
}

/// Everything produced by one end-to-end BarrierPoint run.
///
/// All three artifacts are held behind [`Arc`] — the same allocations an
/// attached cache's memory tier shares — so assembling or cloning an
/// outcome never deep-copies them.
#[derive(Debug, Clone)]
pub struct BarrierPointOutcome {
    profile: Arc<ApplicationProfile>,
    selection: Arc<BarrierPointSelection>,
    simulated: Arc<Simulated>,
}

impl BarrierPointOutcome {
    /// The profiling result (per-region signatures).
    pub fn profile(&self) -> &ApplicationProfile {
        &self.profile
    }

    /// The selected barrierpoints and multipliers.
    pub fn selection(&self) -> &BarrierPointSelection {
        &self.selection
    }

    /// Detailed metrics of each simulated barrierpoint.
    pub fn barrierpoint_metrics(&self) -> &BarrierPointMetrics {
        self.simulated.metrics()
    }

    /// The reconstructed whole-application estimate.
    pub fn reconstruction(&self) -> &ReconstructedRun {
        self.simulated.reconstruction()
    }

    /// The machine configuration the barrierpoints were simulated on.
    pub fn sim_config(&self) -> &SimConfig {
        self.simulated.sim_config()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ArtifactCache;
    use bp_workload::{Benchmark, WorkloadConfig};

    #[test]
    fn end_to_end_pipeline_runs() {
        let w = Benchmark::NpbIs.build(&WorkloadConfig::new(4).with_scale(0.02));
        let outcome = BarrierPoint::new(&w).run().unwrap();
        assert_eq!(outcome.profile().num_regions(), 11);
        assert!(outcome.selection().num_barrierpoints() >= 1);
        assert_eq!(outcome.barrierpoint_metrics().len(), outcome.selection().num_barrierpoints());
        assert!(outcome.reconstruction().execution_time_seconds() > 0.0);
        assert_eq!(outcome.sim_config().num_cores, 4);
    }

    #[test]
    fn mismatched_machine_is_rejected() {
        let w = Benchmark::NpbIs.build(&WorkloadConfig::new(4).with_scale(0.02));
        let err = BarrierPoint::new(&w).with_sim_config(SimConfig::scaled(8)).run().unwrap_err();
        assert!(matches!(err, Error::ThreadCountMismatch { .. }));
    }

    #[test]
    fn builder_options_are_respected() {
        let w = Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(0.02));
        let outcome = BarrierPoint::new(&w)
            .with_signature_config(SignatureConfig::bbv_only())
            .with_simpoint_config(SimPointConfig::paper().with_max_k(3))
            .with_warmup(WarmupKind::Cold)
            .with_execution_policy(ExecutionPolicy::Serial)
            .run()
            .unwrap();
        assert!(outcome.selection().num_barrierpoints() <= 3);
        assert_eq!(outcome.selection().signature_config(), &SignatureConfig::bbv_only());
    }

    #[test]
    fn execution_policy_does_not_change_outcomes() {
        let w = Benchmark::NpbIs.build(&WorkloadConfig::new(4).with_scale(0.02));
        let serial =
            BarrierPoint::new(&w).with_execution_policy(ExecutionPolicy::Serial).run().unwrap();
        let parallel = BarrierPoint::new(&w)
            .with_execution_policy(ExecutionPolicy::parallel_with(4))
            .run()
            .unwrap();
        assert_eq!(serial.profile(), parallel.profile());
        assert_eq!(serial.selection(), parallel.selection());
        assert_eq!(serial.barrierpoint_metrics(), parallel.barrierpoint_metrics());
        assert_eq!(serial.reconstruction(), parallel.reconstruction());
    }

    #[test]
    fn run_matches_the_staged_chain() {
        let w = Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(0.02));
        let outcome = BarrierPoint::new(&w).run().unwrap();
        let simulated = BarrierPoint::new(&w)
            .profile()
            .unwrap()
            .select()
            .unwrap()
            .simulate(&SimConfig::scaled(2))
            .unwrap();
        assert_eq!(outcome.barrierpoint_metrics(), simulated.metrics());
        assert_eq!(outcome.reconstruction(), simulated.reconstruction());
    }

    #[test]
    fn pipeline_reuses_cached_profiles() {
        let dir =
            std::env::temp_dir().join(format!("bp-pipeline-cache-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let w = Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(0.02));
        let uncached = BarrierPoint::new(&w).run().unwrap();
        let first = BarrierPoint::new(&w).with_cache(ArtifactCache::new(&dir)).run().unwrap();
        let second = BarrierPoint::new(&w).with_cache(ArtifactCache::new(&dir)).run().unwrap();
        assert_eq!(uncached.profile(), first.profile());
        assert_eq!(first.profile(), second.profile());
        assert_eq!(first.reconstruction(), second.reconstruction());
        std::fs::remove_dir_all(&dir).ok();
    }
}
