//! Design-space sweeps: many machine configurations, one set of one-time
//! artifacts.
//!
//! The paper's central economy is amortization — one profiling pass and one
//! barrierpoint selection serve *many* detailed simulations.  [`Sweep`]
//! makes that economy structural: given one workload, one selection
//! strategy and N machine configurations, it walks each per-thread trace
//! **once** — the fused cold pass ([`crate::profile_and_collect_warmup`])
//! feeds the signature profiler and the MRU warmup collector from one trace
//! generation, and legs differing in LLC capacity share that same walk
//! (collection at the largest capacity, truncation for the rest) — runs the
//! clustering stage **once**, and fans the N simulate+reconstruct legs out
//! through [`ExecutionPolicy`] with one shared [`WorkerBudget`] — workers
//! that drain a small leg steal barrierpoint jobs from the big ones.  Legs
//! whose machines differ only in clock frequency share one detailed
//! simulation and reconstruct at their own frequencies: the cycle model
//! never reads the clock ([`SimConfig::cycle_equivalent`]).  The result is
//! a [`SweepReport`] keyed by configuration, carrying [`SweepCounters`] so
//! callers (and tests) can verify each stage really ran at most that often
//! ([`SweepCounters::trace_walks`] pins the single-walk economy) — and,
//! with an [`ArtifactCache`](crate::ArtifactCache) attached, **zero** times
//! on repeats: the simulated legs themselves are cached by selection
//! content and machine configuration, the sweep resolves the selection
//! *without the profile* (its key is configuration-derived) and design
//! points dedupe before the probes — a warm re-sweep is pure memory-tier
//! pointer clones.
//!
//! Every stage runs through the same crate-private implementation as the
//! staged chain ([`BarrierPoint::profile`] → [`crate::Profiled::select`] →
//! [`crate::Selected::simulate`]); the sweep adds only what a list of
//! machine configurations needs on top — deduplication, grouping, counters
//! and the report.  Two neighbouring scenarios are deliberately left to
//! that chain and the cache:
//!
//! * **Other core counts** (the paper's Figure 6 / Figure 8): the selection
//!   drives the same benchmark rebuilt at another thread count through
//!   [`crate::Selected::simulate_on`].
//! * **Other selection strategies**: one sweep per strategy over one shared
//!   [`ArtifactCache`](crate::ArtifactCache) — the first sweep's profile
//!   serves the others, so the profiling pass still runs at most once.
//!
//! ```
//! use barrierpoint::Sweep;
//! use bp_sim::SimConfig;
//! use bp_workload::{Benchmark, WorkloadConfig};
//!
//! let workload = Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(0.02));
//! let base = SimConfig::scaled(2);
//! let mut fast = base;
//! fast.core.frequency_ghz *= 1.5;
//!
//! let report = Sweep::new(&workload)
//!     .add_config("base", base)
//!     .add_config("fast-clock", fast)
//!     .run()?;
//!
//! assert_eq!(report.counters().profile_passes, 1);
//! assert_eq!(report.counters().clustering_passes, 1);
//! assert!(report.predicted_speedup("base", "fast-clock").unwrap() > 1.0);
//! # Ok::<(), barrierpoint::Error>(())
//! ```

use crate::cache::{sim_config_fingerprint, ProfileCacheKey, SelectionCacheKey, SimulatedCacheKey};
use crate::error::Error;
use crate::pipeline::BarrierPoint;
use crate::select::BarrierPointSelection;
use crate::simulate::{check_memory, WarmupKind};
use crate::stages::{
    compute_legs, probe_leg, probe_selection, resolve_profile, select_and_store, store_leg,
    warmup_payloads, Simulated, StageWork, WarmupSources,
};
use bp_clustering::{SelectionStrategy, SimPointConfig};
use bp_exec::{ExecutionPolicy, WorkerBudget};
use bp_signature::SignatureConfig;
use bp_sim::SimConfig;
use bp_workload::Workload;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// A design-space sweep over one workload and one selection strategy:
/// profile once, select once, then simulate and reconstruct every
/// configured design point.
///
/// Configuration mirrors [`BarrierPoint`]; the same signature, selection,
/// warmup, execution-policy and cache knobs apply to every leg.
#[derive(Debug)]
pub struct Sweep<'a, W: Workload + ?Sized> {
    base: BarrierPoint<'a, W>,
    labels: Vec<String>,
    configs: Vec<SimConfig>,
    shared_budget: Option<WorkerBudget>,
}

impl<'a, W: Workload + ?Sized> Sweep<'a, W> {
    /// Starts a sweep over `workload` with the paper's default pipeline
    /// settings and no design points yet.
    pub fn new(workload: &'a W) -> Self {
        Self::from_pipeline(BarrierPoint::new(workload))
    }

    /// Builds a sweep on top of an already configured pipeline builder.
    pub fn from_pipeline(pipeline: BarrierPoint<'a, W>) -> Self {
        Self { base: pipeline, labels: Vec::new(), configs: Vec::new(), shared_budget: None }
    }

    /// Selects which signatures to cluster on (Figure 5's variants).
    pub fn with_signature_config(mut self, config: SignatureConfig) -> Self {
        self.base = self.base.with_signature_config(config);
        self
    }

    /// Overrides the SimPoint clustering parameters (Table II).
    ///
    /// Shorthand for [`with_selection_strategy`](Self::with_selection_strategy)
    /// with a [`bp_clustering::SimPointStrategy`] — prefer that method when
    /// the backend itself should vary, not just the default backend's
    /// parameters.
    pub fn with_simpoint_config(mut self, config: SimPointConfig) -> Self {
        self.base = self.base.with_simpoint_config(config);
        self
    }

    /// Replaces the barrierpoint selection backend every leg selects under
    /// (the default is the paper's SimPoint pipeline).  To compare
    /// strategies, run one sweep per strategy over one shared
    /// [`ArtifactCache`](crate::ArtifactCache): they share one profile.
    pub fn with_selection_strategy(mut self, strategy: Arc<dyn SelectionStrategy>) -> Self {
        self.base = self.base.with_selection_strategy(strategy);
        self
    }

    /// Selects the warmup technique applied before each barrierpoint's
    /// detailed simulation, on every leg.
    pub fn with_warmup(mut self, warmup: WarmupKind) -> Self {
        self.base = self.base.with_warmup(warmup);
        self
    }

    /// Selects how the sweep executes.  Under
    /// [`ExecutionPolicy::Parallel`] the profiling pass fans out
    /// thread-major and the simulation legs fan out config-major, all legs
    /// drawing helper threads from **one shared [`WorkerBudget`]**: a worker
    /// that drains a small leg immediately starts stealing barrierpoint
    /// jobs from the legs still running, so imbalanced design points never
    /// strand cores.  Results are identical under every policy and
    /// schedule.
    pub fn with_execution_policy(mut self, policy: ExecutionPolicy) -> Self {
        self.base = self.base.with_execution_policy(policy);
        self
    }

    /// Supplies the [`WorkerBudget`] the sweep's two scheduling levels draw
    /// helper threads from, instead of deriving one from the execution
    /// policy.  Useful to share one budget across several concurrent sweeps
    /// — and to read [`WorkerBudget::steal_count`] afterwards, which the
    /// repository benchmark reports as `exec.steal_count`.
    pub fn with_shared_budget(mut self, budget: WorkerBudget) -> Self {
        self.shared_budget = Some(budget);
        self
    }

    /// Attaches a persistent [`ArtifactCache`](crate::ArtifactCache):
    /// repeated sweeps then skip the profiling pass, the clustering pass,
    /// the warmup collections *and* every already-simulated design-point
    /// leg ([`SweepCounters`] reports zero executed stages on a fully
    /// cached run — the sweep is fully incremental over overlapping
    /// configuration matrices).
    pub fn with_cache(mut self, cache: crate::ArtifactCache) -> Self {
        self.base = self.base.with_cache(cache);
        self
    }

    /// Adds one design point simulating the sweep's workload on
    /// `sim_config` (whose core count must match the workload's thread
    /// count).  Labels key the [`SweepReport`] and must be unique.
    pub fn add_config(mut self, label: impl Into<String>, sim_config: SimConfig) -> Self {
        self.labels.push(label.into());
        self.configs.push(sim_config);
        self
    }

    /// Runs the sweep: at most one fused profiling+warmup trace walk per
    /// thread, at most one clustering pass, at most one MRU warmup
    /// collection, then every design-point leg that is not already in the
    /// artifact cache (one detailed simulation per group of missing legs
    /// that differ only in clock frequency, one reconstruction and one
    /// cache entry per leg) — all through the cache when one is attached,
    /// making repeated sweeps over overlapping configuration matrices fully
    /// incremental (a warm re-sweep executes **zero** simulate legs and
    /// **zero** trace walks).
    ///
    /// Cold runs use the fused single-pass trace engine: when both the
    /// profile and the selection are cache-missing (or no cache is
    /// attached) and the warmup is [`WarmupKind::MruReplay`], each thread's
    /// trace is walked **once**, feeding the signature profiler and the MRU
    /// collector together ([`crate::profile_and_collect_warmup`]) — the
    /// [`SweepCounters::trace_walks`] counter proves it.  A cached
    /// selection short-circuits further: the sweep then neither loads nor
    /// recomputes the profile at all (the selection key is derivable from
    /// the configuration alone).
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptySweep`] when no design point was added,
    /// [`Error::DuplicateSweepLabel`] for a repeated label and
    /// [`Error::InvalidMemoryConfig`] for a design point whose memory
    /// hierarchy cannot be built; propagates the first leg error
    /// (thread/region mismatches, cache I/O) otherwise.
    pub fn run(&self) -> Result<SweepReport, Error> {
        if self.configs.is_empty() {
            return Err(Error::EmptySweep { workload: self.base.workload().name().to_string() });
        }
        for (i, label) in self.labels.iter().enumerate() {
            if self.labels[..i].contains(label) {
                return Err(Error::DuplicateSweepLabel { label: label.clone() });
            }
        }
        for config in &self.configs {
            check_memory(config)?;
        }

        let workload = self.base.workload();
        let warmup = self.base.warmup();
        let cache = self.base.cache();
        let policy = *self.base.execution_policy();
        let budget =
            self.shared_budget.clone().unwrap_or_else(|| WorkerBudget::for_policy(&policy));
        let shared = Some(&budget); // every stage draws helpers from the one budget
        let mru = warmup == WarmupKind::MruReplay;
        let (signature_config, strategy) =
            (self.base.signature_config(), self.base.selection_strategy().as_ref());
        let profile_key = ProfileCacheKey::for_workload(workload);
        let mut work = StageWork::default();
        let mut fused_bank = None;

        // Cache-health counters are reported as the delta over this run.
        // The underlying `CacheStats` are shared across every user of the
        // cache, so a concurrent pipeline's degradations can leak into the
        // delta — the counters are a health report, not an audit trail.
        let stats_before = cache.map(crate::ArtifactCache::stats);

        // Resolve the selection — the only one-time artifact the report
        // needs.  Its cache key is derivable from the configuration alone,
        // so it is probed *first*: on a hit the profile is neither loaded
        // nor recomputed.  Only a miss forces the profile, and a cold
        // profile fuses the MRU warmup collection into its one trace walk
        // per thread (the selection being unknown, the fused pass snapshots
        // every region boundary and the needed targets are assembled after
        // clustering) at the largest LLC capacity among the design points.
        let selection_key = SelectionCacheKey::new(&profile_key, signature_config, strategy);
        let selection = match probe_selection(cache, &selection_key) {
            Some(selection) => selection,
            None => {
                // The fused pass is sized before the leg probes (their
                // selection fingerprint does not exist yet on a cold run),
                // so it may cover a capacity whose legs all turn out
                // cached; the bank assembly for it is then never requested.
                let mru_capacity = self.configs.iter().map(llc_capacity).max().filter(|_| mru);
                let (profile, bank) =
                    resolve_profile(cache, workload, mru_capacity, &policy, shared, &mut work)?;
                fused_bank = bank;
                work.clustering_passes += 1;
                select_and_store(cache, &selection_key, &profile, signature_config, strategy)?
            }
        };

        // Every design point's simulated-leg content address.  The
        // selection-content fingerprint serializes the whole selection, so
        // it is derived once per run.
        let selection_fp = selection.fingerprint();
        let keys: Vec<SimulatedCacheKey> = self
            .configs
            .iter()
            .map(|config| {
                SimulatedCacheKey::from_parts(
                    workload.name().to_string(),
                    workload.num_threads(),
                    profile_key.fingerprint(),
                    selection_fp,
                    sim_config_fingerprint(config, warmup),
                )
            })
            .collect();

        // Dedupe design points by cache key *before* probing: identical
        // legs (same machine configuration and warmup) share one probe and
        // one result, with or without a cache.
        let mut unique: Vec<(usize, Vec<usize>)> = Vec::new();
        for i in 0..keys.len() {
            match unique.iter_mut().find(|&&mut (rep, _)| keys[rep] == keys[i]) {
                Some((_, indices)) => indices.push(i),
                None => unique.push((i, vec![i])),
            }
        }

        // Probe the simulated-leg cache once per *distinct* leg, before any
        // warmup collection: a fully cached leg costs one memory-tier
        // pointer clone (or one disk load) — no trace walk, no simulation.
        // Only the missing distinct legs are paid for below.
        let mut results: Vec<Option<Arc<Simulated>>> = (0..keys.len()).map(|_| None).collect();
        let mut missing: Vec<usize> = Vec::new(); // indices into `unique`
        let mut simulated_cache_hits = 0; // design points served, duplicates included
        for (u, (rep, indices)) in unique.iter().enumerate() {
            match probe_leg(cache, &keys[*rep]) {
                Some(simulated) => {
                    simulated_cache_hits += indices.len();
                    for &i in indices {
                        results[i] = Some(simulated.clone());
                    }
                }
                None => missing.push(u),
            }
        }

        // Collect the MRU warmup payloads the missing distinct legs need in
        // at most one streaming pass: legs that differ only in core
        // parameters (clock, ROB, …) trivially share a payload, and legs
        // that differ in LLC capacity share the same pass too (collection
        // at the largest capacity, smaller capacities by truncation).  When
        // the fused pass ran, its bank serves every leg without a further
        // walk; otherwise the collection resumes from the cached
        // checkpoints when they cover the capacities.
        let mut payloads = HashMap::new(); // by LLC capacity
        if mru && !missing.is_empty() {
            let regions = selection.barrierpoint_regions();
            let capacities: Vec<u64> =
                missing.iter().map(|&u| llc_capacity(&self.configs[unique[u].0])).collect();
            let sources = WarmupSources { cache, bank: fused_bank.as_ref() };
            payloads = warmup_payloads(
                Some(sources),
                workload,
                &regions,
                &capacities,
                &policy,
                shared,
                &mut work,
            )?;
        }

        // Distinct missing legs whose machines differ only in clock
        // frequency share one detailed simulation: the cycle model never
        // reads the frequency (`SimConfig::cycle_equivalent`), so each such
        // leg only needs its own reconstruction.  Groups are listed by
        // their first leg.
        let mut groups: Vec<Vec<usize>> = Vec::new(); // indices into `missing`
        for (j, &u) in missing.iter().enumerate() {
            let config = &self.configs[unique[u].0];
            let shares = |group: &&mut Vec<usize>| {
                self.configs[unique[missing[group[0]]].0].cycle_equivalent(config)
            };
            match groups.iter_mut().find(shares) {
                Some(group) => group.push(j),
                None => groups.push(vec![j]),
            }
        }

        // The groups fan out config-major; outer workers and the
        // per-barrierpoint workers inside every simulation draw helpers
        // from the one shared budget, so a drained group's workers migrate
        // into the ones still running.  Results are identical under every
        // schedule (the execution-equivalence invariant: reassembly is by
        // index).
        let computed: Vec<Result<Vec<Simulated>, Error>> =
            policy.execute_budgeted(groups.len(), &budget, |g| {
                let configs: Vec<SimConfig> =
                    groups[g].iter().map(|&j| self.configs[unique[missing[j]].0]).collect();
                let payload = payloads.get(&llc_capacity(&configs[0]));
                compute_legs(&selection, warmup, workload, &configs, &policy, shared, payload)
            });
        // Store the computed legs in missing order; a failed group's error
        // sits on its first leg, which precedes the group's other legs.
        let mut computed: Vec<(usize, Result<Simulated, Error>)> = groups
            .iter()
            .zip(computed)
            .flat_map(|(group, result)| match result {
                Ok(legs) => group.iter().copied().zip(legs.into_iter().map(Ok)).collect(),
                Err(e) => vec![(group[0], Err(e))],
            })
            .collect();
        computed.sort_unstable_by_key(|(j, _)| *j);
        for (j, leg) in computed {
            let simulated = Arc::new(leg?);
            let (rep, indices) = &unique[missing[j]];
            store_leg(cache, &keys[*rep], &simulated);
            for &i in indices {
                results[i] = Some(simulated.clone());
            }
        }

        let stats_after = cache.map(crate::ArtifactCache::stats);
        let health = |counter: fn(&crate::CacheStats) -> u64| match (&stats_before, &stats_after) {
            (Some(before), Some(after)) => counter(after).saturating_sub(counter(before)),
            _ => 0,
        };
        let counters = SweepCounters {
            profile_passes: work.profile_passes,
            clustering_passes: work.clustering_passes,
            warmup_collections: work.warmup_collections,
            simulate_legs: missing.len(),
            simulated_cache_hits,
            trace_walks: work.trace_walks,
            segment_walks: work.segment_walks,
            checkpoint_hits: work.checkpoint_hits,
            fused_snapshot_bytes: fused_bank.as_ref().map_or(0, |bank| bank.snapshot_bytes()),
            degraded_loads: health(|stats| stats.degraded_loads),
            degraded_stores: health(|stats| stats.degraded_stores),
            io_retries: health(|stats| stats.retries),
            lock_contended: health(|stats| stats.lock_contended),
        };
        // Every design point is filled: each was served by its probe or
        // computed above (a failed computation returned its error).
        let legs = results
            .into_iter()
            .flatten()
            .zip(&self.labels)
            .map(|(simulated, label)| SweepLeg { label: label.clone(), simulated })
            .collect();
        let selections = vec![SweepSelection { label: strategy.name().to_string(), selection }];
        Ok(SweepReport { workload_name: workload.name().to_string(), selections, legs, counters })
    }
}

/// The LLC line capacity of `config`'s machine — the size of the MRU
/// warmup payload its legs replay.
fn llc_capacity(config: &SimConfig) -> u64 {
    config.memory.llc_total_lines(config.num_cores)
}

/// How many times each pipeline stage actually executed during a sweep.
///
/// With an [`ArtifactCache`](crate::ArtifactCache) attached, *every* stage
/// drops to zero on repeated sweeps — the one-time passes and the simulate
/// legs alike; without one, the one-time passes are exactly one each (never
/// once per design point) and every leg simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepCounters {
    /// Profiling passes executed (0 on a cache hit, else 1 — never more).
    pub profile_passes: usize,
    /// Clustering passes executed (0 when the selection was cache-served,
    /// else 1).
    pub clustering_passes: usize,
    /// MRU warmup collection passes executed: at most one per sweep — the
    /// fused cold pass, or one dedicated walk when some leg is uncached
    /// and no fused bank exists.  Legs differing only in LLC capacity share
    /// that single multi-capacity pass.  Zero for non-MRU warmup and for
    /// fully cached sweeps.
    pub warmup_collections: usize,
    /// Simulate+reconstruct legs actually executed: *distinct* computations
    /// — design points with identical leg content (same machine
    /// configuration and warmup) are deduplicated and share one result.  Cached legs load from the cache instead and are counted in
    /// [`simulated_cache_hits`](Self::simulated_cache_hits).  Legs whose
    /// machines differ only in clock frequency share one detailed
    /// simulation ([`SimConfig::cycle_equivalent`]) but still count one
    /// each: each gets its own reconstruction and its own cache entry.
    pub simulate_legs: usize,
    /// Design points whose simulated leg was served from the artifact
    /// cache (duplicates of a cached leg included; the physical probe
    /// happens once per distinct leg — see
    /// [`CacheStats`](crate::CacheStats)).
    pub simulated_cache_hits: usize,
    /// Per-thread trace walks executed: each workload thread whose
    /// block-execution stream was generated, for any purpose.  (A dedicated
    /// warmup-collection walk stops at the last barrierpoint boundary it
    /// needs, so a counted walk may cover a prefix of the trace rather than
    /// all of it; profiling walks always cover everything.)  The fused cold
    /// pass makes this **equal to the thread count** for a cold sweep (one
    /// walk feeds both the signature profiler and the MRU collector; it
    /// used to be 2× — one per consumer), and it is zero for a warm
    /// re-sweep.
    pub trace_walks: usize,
    /// Segment jobs executed by the region-segment checkpoint scheduler:
    /// each `(thread, segment)` cell of a segmented re-walk, for any
    /// purpose (re-profiling at a new configuration, MRU warmup
    /// re-collection).  A segmented walk fans `threads × segments` such
    /// jobs onto the shared [`WorkerBudget`] — more workers than threads —
    /// and counts **zero** [`trace_walks`](Self::trace_walks); a warm
    /// re-sweep executes neither.
    pub segment_walks: usize,
    /// Segment jobs that started from a *restored* checkpoint rather than
    /// region zero (`threads × (segments − 1)` per segmented walk) — the
    /// work the `ckpt` artifact kind actually saved.
    pub checkpoint_hits: usize,
    /// Bytes of interval-encoded MRU snapshot state the fused cold pass
    /// actually retained (zero when no fused pass ran).  The old
    /// per-boundary bank retained `threads × regions × capacity × 16` bytes
    /// worst case and fell back to two separate walks above a 512 MiB cap;
    /// the interval bank scales with the eviction/write activity between
    /// boundaries instead, so the cap — and the fallback walk — are gone.
    pub fused_snapshot_bytes: u64,
    /// Cache loads during this run that failed persistently and degraded
    /// to a recompute ([`CacheStats::degraded_loads`](crate::CacheStats)
    /// delta).  Zero on a healthy filesystem.
    pub degraded_loads: u64,
    /// Cache stores during this run that failed persistently and were
    /// skipped — the artifacts stayed memory-tier-only for this process
    /// ([`CacheStats::degraded_stores`](crate::CacheStats) delta).
    pub degraded_stores: u64,
    /// Transient cache I/O failures absorbed by the bounded retry during
    /// this run ([`CacheStats::retries`](crate::CacheStats) delta).
    pub io_retries: u64,
    /// Stores during this run that skipped the lock-guarded
    /// eviction/cleanup scan because the advisory lock stayed contended
    /// ([`CacheStats::lock_contended`](crate::CacheStats) delta).
    pub lock_contended: u64,
}

/// One completed design-point leg of a sweep.
///
/// The simulation artifact sits behind an [`Arc`]: a leg served by the
/// cache's memory tier (or shared with a duplicate design point) is a
/// pointer clone of the same allocation, never a deep copy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepLeg {
    label: String,
    simulated: Arc<Simulated>,
}

impl SweepLeg {
    /// The design point's label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The leg's full simulation artifact.
    pub fn simulated(&self) -> &Simulated {
        &self.simulated
    }

    /// The machine configuration of this leg.
    pub fn sim_config(&self) -> &SimConfig {
        self.simulated.sim_config()
    }

    /// The reconstructed whole-application estimate of this leg.
    pub fn reconstruction(&self) -> &crate::ReconstructedRun {
        self.simulated.reconstruction()
    }
}

/// The sweep's resolved selection in a [`SweepReport`], labelled with its
/// strategy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSelection {
    label: String,
    selection: Arc<BarrierPointSelection>,
}

impl SweepSelection {
    /// The selection strategy's [`name`](SelectionStrategy::name).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The selection the strategy produced.
    pub fn selection(&self) -> &BarrierPointSelection {
        &self.selection
    }
}

/// Everything produced by one [`Sweep::run`]: the shared selection, every
/// design-point leg keyed by label, and the stage-execution counters.
///
/// A pure data artifact — serializable like the stage artifacts it contains.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    workload_name: String,
    selections: Vec<SweepSelection>,
    legs: Vec<SweepLeg>,
    counters: SweepCounters,
}

impl SweepReport {
    /// Name of the swept workload.
    pub fn workload_name(&self) -> &str {
        &self.workload_name
    }

    /// The barrierpoint selection shared by every leg.
    pub fn selection(&self) -> &BarrierPointSelection {
        &self.selections[0].selection
    }

    /// The selection labelled with its strategy, as a one-entry slice.
    pub fn selections(&self) -> &[SweepSelection] {
        &self.selections
    }

    /// All legs, in the order their design points were added.
    pub fn legs(&self) -> &[SweepLeg] {
        &self.legs
    }

    /// The leg labelled `label`, if any.
    pub fn get(&self, label: &str) -> Option<&SweepLeg> {
        self.legs.iter().find(|leg| leg.label == label)
    }

    /// Stage-execution counters (profiling/clustering ran at most once).
    pub fn counters(&self) -> SweepCounters {
        self.counters
    }

    /// Predicted speedup of the `scaled` leg over the `baseline` leg
    /// (Figure 8's predicted series): baseline estimated time over scaled
    /// estimated time.  `None` when either label is missing.
    pub fn predicted_speedup(&self, baseline: &str, scaled: &str) -> Option<f64> {
        let baseline = self.get(baseline)?.reconstruction().execution_time_seconds();
        let scaled = self.get(scaled)?.reconstruction().execution_time_seconds();
        if scaled > 0.0 {
            Some(baseline / scaled)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ArtifactCache;
    use bp_workload::{Benchmark, WorkloadConfig};

    fn workload(threads: usize) -> impl Workload {
        Benchmark::NpbIs.build(&WorkloadConfig::new(threads).with_scale(0.02))
    }

    #[test]
    fn empty_sweep_is_rejected() {
        let w = workload(2);
        let err = Sweep::new(&w).run().unwrap_err();
        assert!(matches!(err, Error::EmptySweep { .. }));
    }

    #[test]
    fn duplicate_labels_are_rejected() {
        let w = workload(2);
        let config = SimConfig::scaled(2);
        let err = Sweep::new(&w).add_config("a", config).add_config("a", config).run().unwrap_err();
        assert!(matches!(err, Error::DuplicateSweepLabel { ref label } if label == "a"));
    }

    #[test]
    fn sweep_runs_one_time_stages_once_and_all_legs() {
        let w = workload(2);
        let base = SimConfig::scaled(2);
        let mut fast = base;
        fast.core.frequency_ghz *= 2.0;
        let report =
            Sweep::new(&w).add_config("base", base).add_config("fast", fast).run().unwrap();
        // base and fast differ only in clock speed, so one warmup
        // collection serves both legs — and the fused cold pass folds that
        // collection into the profiling walk: one trace walk per thread.
        let counters = report.counters();
        assert_eq!(
            counters,
            SweepCounters {
                profile_passes: 1,
                clustering_passes: 1,
                warmup_collections: 1,
                simulate_legs: 2,
                simulated_cache_hits: 0,
                trace_walks: 2,
                segment_walks: 0,
                checkpoint_hits: 0,
                fused_snapshot_bytes: counters.fused_snapshot_bytes,
                degraded_loads: 0,
                degraded_stores: 0,
                io_retries: 0,
                lock_contended: 0,
            }
        );
        assert!(counters.fused_snapshot_bytes > 0, "fused pass reports its snapshot bytes");
        assert_eq!(report.legs().len(), 2);
        assert_eq!(report.workload_name(), "npb-is");
        assert!(report.predicted_speedup("base", "fast").unwrap() > 1.0);
        assert!(report.get("missing").is_none());
    }

    /// Regression test: duplicate design points used to simulate once per
    /// duplicate on a cold run.  They must dedupe by simulated-leg content
    /// — with and without a cache attached — and duplicates must share the
    /// one result.
    #[test]
    fn duplicate_design_points_simulate_once_and_share_the_result() {
        let w = workload(2);
        let config = SimConfig::scaled(2);
        let mut fast = config;
        fast.core.frequency_ghz *= 1.5;

        // Uncached: three points, two distinct — two computations.
        let report = Sweep::new(&w)
            .add_config("config-0", config)
            .add_config("config-1", fast)
            .add_config("config-2", config)
            .run()
            .unwrap();
        assert_eq!(report.counters().simulate_legs, 2, "two distinct legs compute");
        assert_eq!(report.legs()[0].simulated(), report.legs()[2].simulated());

        // Cached cold run: duplicates are deduplicated *before* the cache
        // probe, so the pair costs one physical probe (one logical miss), a
        // single computation and a single store.
        let dir = std::env::temp_dir().join(format!("bp-sweep-dedup-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cache = ArtifactCache::new(&dir);
        let pair = || {
            Sweep::new(&w)
                .with_cache(cache.clone())
                .add_config("config-0", config)
                .add_config("config-1", config)
        };
        let cached = pair().run().unwrap();
        assert_eq!(cached.counters().simulate_legs, 1);
        assert_eq!(cache.stats().simulated_misses, 1, "duplicates share one probe");
        assert_eq!(cached.legs()[0].simulated(), cached.legs()[1].simulated());
        assert_eq!(cached.legs()[0].simulated(), report.legs()[0].simulated());

        // And on the warm repeat the duplicate pair is still one probe but
        // two served design points.
        let warm = pair().run().unwrap();
        assert_eq!(warm.counters().simulated_cache_hits, 2, "both points served");
        assert_eq!(cache.stats().simulated_memory_hits, 1, "one physical probe for the pair");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cached_sweep_skips_both_one_time_stages() {
        let dir = std::env::temp_dir().join(format!("bp-sweep-cache-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let w = workload(2);
        let cache = ArtifactCache::new(&dir);
        let sweep =
            || Sweep::new(&w).with_cache(cache.clone()).add_config("base", SimConfig::scaled(2));
        let cold = sweep().run().unwrap();
        assert_eq!(cold.counters().profile_passes, 1);
        assert_eq!(cold.counters().clustering_passes, 1);
        let warm = sweep().run().unwrap();
        assert_eq!(warm.counters().profile_passes, 0);
        assert_eq!(warm.counters().clustering_passes, 0);
        assert_eq!(cold.legs(), warm.legs());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A cache on a full disk (every write fails with ENOSPC) must not
    /// change sweep results: the sweep completes bit-identical to a
    /// cache-disabled run and the health counters record the degradation.
    #[test]
    fn enospc_cache_sweep_is_bit_identical_to_cache_disabled() {
        use crate::storage::{Fault, FaultFs, FaultOp};
        let dir = std::env::temp_dir().join(format!("bp-sweep-enospc-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let w = workload(2);
        let base = SimConfig::scaled(2);
        let mut fast = base;
        fast.core.frequency_ghz *= 1.5;

        let plain = Sweep::new(&w).add_config("base", base).add_config("fast", fast).run().unwrap();

        let faults = FaultFs::new();
        faults.inject(Fault::fail(FaultOp::Write, std::io::ErrorKind::StorageFull));
        let cache = ArtifactCache::new(&dir).with_storage(Arc::new(faults));
        let degraded = Sweep::new(&w)
            .with_cache(cache)
            .add_config("base", base)
            .add_config("fast", fast)
            .run()
            .unwrap();

        assert_eq!(plain.legs(), degraded.legs(), "degradation must be invisible in results");
        assert!(
            degraded.counters().degraded_stores >= 1,
            "the health counters must record the skipped stores"
        );
        assert_eq!(degraded.counters().degraded_loads, 0, "nothing on disk to fail reading");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_report_round_trips_through_serde() {
        let w = workload(2);
        let report = Sweep::new(&w).add_config("base", SimConfig::scaled(2)).run().unwrap();
        let bytes = serde::to_vec(&report);
        let back: SweepReport = serde::from_slice(&bytes).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn serial_and_parallel_sweeps_agree() {
        let w = workload(4);
        let base = SimConfig::scaled(4);
        let mut small_llc = base;
        small_llc.memory.l3.size_bytes /= 2;
        let build = |policy| {
            Sweep::new(&w)
                .with_execution_policy(policy)
                .add_config("base", base)
                .add_config("small-llc", small_llc)
                .run()
                .unwrap()
        };
        let serial = build(ExecutionPolicy::Serial);
        let parallel = build(ExecutionPolicy::parallel_with(4));
        assert_eq!(serial, parallel);
    }

    /// The tentpole pin: after a cold run stores segment checkpoints, a
    /// forced re-profile (invalidated profile + a new clustering config)
    /// executes as `threads × segments` segment jobs — zero sequential
    /// trace walks — and its artifacts are bit-identical to an uncached
    /// sequential run of the same configuration.
    #[test]
    fn cached_checkpoints_turn_reprofiles_into_segment_jobs() {
        let dir =
            std::env::temp_dir().join(format!("bp-sweep-ckpt-seg-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let w = workload(2);
        let base = SimConfig::scaled(2);
        let cache = ArtifactCache::new(&dir);

        // Cold run: sequential fused walk, checkpoints stored as a side
        // product — never counted as segment work.
        let cold = Sweep::new(&w).with_cache(cache.clone()).add_config("base", base).run().unwrap();
        assert_eq!(cold.counters().trace_walks, 2);
        assert_eq!(cold.counters().segment_walks, 0, "the cold walk is sequential");
        assert_eq!(cold.counters().checkpoint_hits, 0);

        // Warm repeat: no walks of any kind.
        let warm = Sweep::new(&w).with_cache(cache.clone()).add_config("base", base).run().unwrap();
        assert_eq!(warm.counters().trace_walks, 0);
        assert_eq!(warm.counters().segment_walks, 0, "a warm re-sweep segments nothing");

        // Force the re-profile: drop the profile entry and change the
        // clustering config so the selection misses too.  The checkpoint
        // entry survives (its key is config-independent) and turns the
        // re-walk into threads × segments jobs.
        assert!(cache.invalidate_profile(&ProfileCacheKey::for_workload(&w)));
        let reconfigured = || {
            Sweep::new(&w)
                .with_cache(cache.clone())
                .with_simpoint_config(SimPointConfig::paper().with_max_k(3))
                .add_config("base", base)
        };
        let segmented = reconfigured().run().unwrap();
        let counters = segmented.counters();
        assert_eq!(counters.profile_passes, 1, "the profile really recomputed");
        assert_eq!(counters.trace_walks, 0, "no sequential walk on the checkpointed path");
        assert!(
            counters.segment_walks > 2,
            "the fan-out must exceed the thread count, got {}",
            counters.segment_walks
        );
        let segments = counters.segment_walks / 2;
        assert_eq!(counters.segment_walks, 2 * segments);
        assert_eq!(counters.checkpoint_hits, 2 * (segments - 1), "all but the first segment");

        // Bit-identity with a sequential, cache-free run of the same
        // configuration — selection and legs alike.
        let sequential = Sweep::new(&w)
            .with_simpoint_config(SimPointConfig::paper().with_max_k(3))
            .add_config("base", base)
            .run()
            .unwrap();
        assert_eq!(segmented.selections(), sequential.selections());
        assert_eq!(segmented.legs(), sequential.legs());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// MRU warmup re-collection also rides the checkpoints: when the
    /// profile and selection are cache-served but a new leg needs warmup
    /// payloads (no fused bank exists), the collection fans out segmented
    /// instead of re-walking sequentially — with identical legs.
    #[test]
    fn warmup_recollection_rides_the_cached_checkpoints() {
        let dir =
            std::env::temp_dir().join(format!("bp-sweep-ckpt-warm-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let w = workload(2);
        let base = SimConfig::scaled(2);
        let mut fast = base;
        fast.core.frequency_ghz *= 1.5; // same LLC, new leg key
        let cache = ArtifactCache::new(&dir);

        Sweep::new(&w).with_cache(cache.clone()).add_config("base", base).run().unwrap();
        // The new "fast" leg misses; profile and selection hit, so the only
        // trace work is the warmup collection — served segmented.
        let report = Sweep::new(&w)
            .with_cache(cache.clone())
            .add_config("base", base)
            .add_config("fast", fast)
            .run()
            .unwrap();
        let counters = report.counters();
        assert_eq!(counters.profile_passes, 0);
        assert_eq!(counters.simulate_legs, 1, "only the new leg computes");
        assert_eq!(counters.warmup_collections, 1);
        assert_eq!(counters.trace_walks, 0, "no sequential collection walk");
        assert!(counters.segment_walks > 2, "segmented warmup re-collection");

        // Identical to the leg an uncached sequential sweep computes.
        let sequential =
            Sweep::new(&w).add_config("base", base).add_config("fast", fast).run().unwrap();
        assert_eq!(report.legs(), sequential.legs());
        std::fs::remove_dir_all(&dir).ok();
    }
}
