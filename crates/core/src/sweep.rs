//! Design-space sweeps: many machine configurations, one set of one-time
//! artifacts.
//!
//! The paper's central economy is amortization — one profiling pass and one
//! barrierpoint selection serve *many* detailed simulations, and (Figure 6)
//! a selection even transfers across core counts.  [`Sweep`] makes that
//! economy structural: given one workload and N machine configurations, it
//! walks each per-thread trace **once** — the fused cold pass
//! ([`crate::profile_and_collect_warmup`]) feeds the signature profiler
//! and the MRU warmup collector from one trace generation, and legs
//! differing in LLC capacity share that same walk (collection at the
//! largest capacity, truncation for the rest) — runs the clustering stage
//! **once**, and fans the N simulate+reconstruct legs out through
//! [`ExecutionPolicy`] with one shared [`WorkerBudget`] — workers that
//! drain a small leg steal barrierpoint jobs from the big ones.  Legs whose
//! machines differ only in clock frequency share one detailed simulation
//! and reconstruct at their own frequencies: the cycle model never reads
//! the clock ([`SimConfig::cycle_equivalent`]).  The result is a
//! [`SweepReport`] keyed by configuration, carrying
//! [`SweepCounters`] so callers (and tests) can verify each stage really
//! ran at most that often ([`SweepCounters::trace_walks`] pins the
//! single-walk economy) — and, with an
//! [`ArtifactCache`](crate::ArtifactCache) attached, **zero** times on
//! repeats: the simulated legs themselves are cached by selection content
//! and machine configuration, the sweep resolves the selection *without
//! the profile* (its key is configuration-derived) and design points dedupe
//! before the probes — a warm re-sweep is pure memory-tier pointer clones.
//!
//! Every stage runs through the same crate-private implementation as the
//! staged chain ([`BarrierPoint::profile`] → [`crate::Profiled::select`] →
//! [`crate::Selected::simulate`]); the sweep adds only what a grid needs on
//! top — deduplication, grouping, counters and the report.
//!
//! Cross-core-count legs ([`Sweep::add_point`]) take their own workload
//! instance (the same benchmark rebuilt at another thread count — the
//! barrier count is thread-count invariant), which makes the paper's
//! Figure 6 cross-validation and Figure 8 scaling one-call scenarios.
//!
//! Selection strategies are a sweep axis too ([`Sweep::add_strategy`]):
//! the grid becomes strategies × machine configurations, still over **one**
//! profile and one fused warmup walk — each strategy's selection is resolved
//! (or cache-served) from the shared profile, dedicated warmup collections
//! cover the *union* of every strategy's barrierpoints, and legs whose
//! strategies happen to pick identical barrierpoints dedupe by content
//! exactly like duplicate machine configurations do.
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

/// One design point of a sweep: a label, a machine configuration, and
/// (for cross-core-count legs) an optional workload override.
#[derive(Clone, Copy)]
struct SweepPoint<'a> {
    sim_config: SimConfig,
    workload: Option<&'a dyn Workload>,
}

impl std::fmt::Debug for SweepPoint<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepPoint")
            .field("sim_config", &self.sim_config)
            .field("workload", &self.workload.map(Workload::name))
            .finish()
    }
}

/// The key components of one design point, derived once per run.
#[derive(Debug)]
struct PointParts {
    workload_name: String,
    threads: usize,
    /// Content fingerprint of the leg's workload (the base workload's for
    /// plain [`Sweep::add_config`] points) — also the first half of the
    /// warmup sharing key.
    workload_fingerprint: u64,
    /// Fingerprint of the `(SimConfig, WarmupKind)` pair.
    config_fingerprint: u64,
    /// The machine's LLC line capacity — the second half of the warmup
    /// sharing key.
    llc_capacity: u64,
}

/// A design-space sweep over one workload: profile once, select once, then
/// simulate and reconstruct every configured design point.
///
/// Configuration mirrors [`BarrierPoint`]; the same signature, selection,
/// warmup, execution-policy and cache knobs apply to every leg.
#[derive(Debug)]
pub struct Sweep<'a, W: Workload + ?Sized> {
    base: BarrierPoint<'a, W>,
    labels: Vec<String>,
    points: Vec<SweepPoint<'a>>,
    /// Strategy-axis variants; empty means one unlabelled axis entry — the
    /// base pipeline's strategy — and unprefixed leg labels.
    strategies: Vec<(String, Arc<dyn SelectionStrategy>)>,
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
        Self {
            base: pipeline,
            labels: Vec::new(),
            points: Vec::new(),
            strategies: Vec::new(),
            shared_budget: None,
        }
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
    /// (the default is the paper's SimPoint pipeline).  To sweep *over*
    /// strategies instead, see [`add_strategy`](Self::add_strategy).
    pub fn with_selection_strategy(mut self, strategy: Arc<dyn SelectionStrategy>) -> Self {
        self.base = self.base.with_selection_strategy(strategy);
        self
    }

    /// Adds a selection-strategy variant to the sweep's strategy axis.  The
    /// design-point grid becomes strategies × machine configurations: every
    /// added machine configuration is simulated once per strategy, the legs
    /// labelled `"{strategy}/{point}"`.  All strategies select from the
    /// sweep's **one** shared profile (and one fused warmup walk), their
    /// selections cached independently under each strategy's fingerprint,
    /// and legs whose selections coincide dedupe by content like any other
    /// duplicate design point.  Strategy labels must be unique.
    ///
    /// When no strategy was added, the sweep runs the base pipeline's single
    /// strategy and leg labels stay unprefixed.
    pub fn add_strategy(
        mut self,
        label: impl Into<String>,
        strategy: Arc<dyn SelectionStrategy>,
    ) -> Self {
        self.strategies.push((label.into(), strategy));
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
    /// jobs from the legs still running, so imbalanced design points (say,
    /// one 32-core cross-point among 8-core points) never strand cores.
    /// Results are identical under every policy and schedule.
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

    /// Adds one design point simulating the sweep's own workload on
    /// `sim_config` (whose core count must match the workload's thread
    /// count).  Labels key the [`SweepReport`] and must be unique.
    pub fn add_config(mut self, label: impl Into<String>, sim_config: SimConfig) -> Self {
        self.labels.push(label.into());
        self.points.push(SweepPoint { sim_config, workload: None });
        self
    }

    /// Adds design points for every configuration in `configs`, labelled
    /// `config-0`, `config-1`, … in order.
    pub fn add_configs(mut self, configs: impl IntoIterator<Item = SimConfig>) -> Self {
        for config in configs {
            let label = format!("config-{}", self.points.len());
            self = self.add_config(label, config);
        }
        self
    }

    /// Adds a cross-core-count design point (Figure 6 / Figure 8): the leg
    /// simulates `workload` — the same benchmark rebuilt at another thread
    /// count, with an identical region structure — while reusing the
    /// sweep's one selection.
    pub fn add_point(
        mut self,
        label: impl Into<String>,
        sim_config: SimConfig,
        workload: &'a dyn Workload,
    ) -> Self {
        self.labels.push(label.into());
        self.points.push(SweepPoint { sim_config, workload: Some(workload) });
        self
    }

    /// Runs the sweep: at most one fused profiling+warmup trace walk per
    /// thread, one clustering pass per strategy-axis entry (all from the
    /// one shared profile), at most one MRU warmup collection per workload
    /// *content*, then every design-point leg that is not already
    /// in the artifact cache (one detailed simulation per group of missing
    /// legs that differ only in clock frequency, one reconstruction and one
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
        if self.points.is_empty() {
            return Err(Error::EmptySweep { workload: self.base.workload().name().to_string() });
        }
        for (i, label) in self.labels.iter().enumerate() {
            if self.labels[..i].contains(label) {
                return Err(Error::DuplicateSweepLabel { label: label.clone() });
            }
        }
        for (i, (label, _)) in self.strategies.iter().enumerate() {
            if self.strategies[..i].iter().any(|(seen, _)| seen == label) {
                return Err(Error::DuplicateSweepLabel { label: label.clone() });
            }
        }
        for point in &self.points {
            check_memory(&point.sim_config)?;
        }

        let workload = self.base.workload();
        let warmup = self.base.warmup();
        let cache = self.base.cache();
        let policy = *self.base.execution_policy();
        let budget =
            self.shared_budget.clone().unwrap_or_else(|| WorkerBudget::for_policy(&policy));
        let profile_key = ProfileCacheKey::for_workload(workload);
        let base_fp = profile_key.fingerprint();
        let parts = self.point_parts(&profile_key);
        let mut work = StageWork::default();
        let mut fused_bank = None;

        // Cache-health counters are reported as the delta over this run.
        // The underlying `CacheStats` are shared across every user of the
        // cache, so a concurrent pipeline's degradations can leak into the
        // delta — the counters are a health report, not an audit trail.
        let stats_before = cache.map(crate::ArtifactCache::stats);

        // Resolve every strategy-axis entry's selection — the only one-time
        // artifacts the report needs.  Each cache key is derivable from the
        // configuration alone, so all entries are probed *first*: when
        // every probe hits, the profile is neither loaded nor recomputed.
        // Only a selection miss forces the (one, shared) profile, and a
        // cold profile fuses the MRU warmup collection into its one trace
        // walk per thread (the selections being unknown, the fused pass
        // snapshots every region boundary and the needed targets are
        // assembled after clustering) at the largest LLC capacity among
        // the design points of the base content.
        let strategies = self.effective_strategies();
        let selection_keys: Vec<SelectionCacheKey> = strategies
            .iter()
            .map(|(_, strategy)| {
                SelectionCacheKey::new(
                    &profile_key,
                    self.base.signature_config(),
                    strategy.as_ref(),
                )
            })
            .collect();
        let mut selections: Vec<Option<Arc<BarrierPointSelection>>> =
            selection_keys.iter().map(|key| probe_selection(cache, key)).collect();
        if selections.iter().any(Option::is_none) {
            // The fused pass covers the largest LLC capacity among the
            // design points of the base content.  It is chosen before the
            // leg probes (their selection fingerprints do not exist yet on
            // a cold run), so it may cover a capacity whose legs all turn
            // out cached; the bank assembly for it is then never requested.
            let mru_capacity = parts
                .iter()
                .filter(|parts| parts.workload_fingerprint == base_fp)
                .map(|parts| parts.llc_capacity)
                .max()
                .filter(|_| warmup == WarmupKind::MruReplay);
            let (profile, bank) =
                resolve_profile(cache, workload, mru_capacity, &policy, Some(&budget), &mut work)?;
            fused_bank = bank;
            let signature_config = self.base.signature_config();
            for ((slot, key), (_, strategy)) in
                selections.iter_mut().zip(&selection_keys).zip(&strategies)
            {
                if slot.is_none() {
                    let strategy = strategy.as_ref();
                    *slot =
                        Some(select_and_store(cache, key, &profile, signature_config, strategy)?);
                    work.clustering_passes += 1;
                }
            }
        }
        // Every slot is filled: each miss was selected above or returned
        // its error.
        let selections: Vec<Arc<BarrierPointSelection>> =
            selections.into_iter().flatten().collect();

        // Every grid cell's simulated-leg content address, strategy-major
        // (cell `s * num_points + p`).  The selection-content fingerprint
        // serializes the whole selection, so it is derived once per
        // strategy.
        let num_points = self.points.len();
        let keys: Vec<SimulatedCacheKey> = selections
            .iter()
            .flat_map(|selection| {
                let selection_fp = selection.fingerprint();
                parts.iter().map(move |parts| {
                    SimulatedCacheKey::from_parts(
                        parts.workload_name.clone(),
                        parts.threads,
                        parts.workload_fingerprint,
                        selection_fp,
                        parts.config_fingerprint,
                    )
                })
            })
            .collect();

        // Dedupe grid cells by cache key *before* probing: identical legs
        // (same leg workload content, selection content, machine
        // configuration and warmup — including two strategies that picked
        // the same barrierpoints) share one probe and one result, with or
        // without a cache.
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

        // Collect the MRU warmup payloads the missing distinct legs need —
        // at most one streaming pass per workload *content*: legs that
        // differ only in core parameters (clock, ROB, …) trivially share a
        // payload, and legs that differ in LLC capacity share the same pass
        // too (collection at the largest capacity, smaller capacities by
        // truncation).  Legs content-identical to the base workload are
        // served straight from the fused bank when the fused pass ran — no
        // further walk at all — and otherwise re-collect from the base
        // content's cached checkpoints when they cover the capacities.
        let mut payloads = HashMap::new(); // by workload content, then by LLC capacity
        if warmup == WarmupKind::MruReplay && !missing.is_empty() {
            // One collection covers the *union* of every strategy's
            // barrierpoints: payloads are keyed by region index, so each
            // leg reads exactly its own selection's subset.
            let mut regions: Vec<usize> =
                selections.iter().flat_map(|selection| selection.barrierpoint_regions()).collect();
            regions.sort_unstable();
            regions.dedup();
            let mut groups: Vec<(u64, Option<&dyn Workload>, Vec<u64>)> = Vec::new();
            for &u in &missing {
                let p = unique[u].0 % num_points;
                let (fp, capacity) = (parts[p].workload_fingerprint, parts[p].llc_capacity);
                match groups.iter_mut().find(|(group_fp, _, _)| *group_fp == fp) {
                    Some((_, _, capacities)) => capacities.push(capacity),
                    None => groups.push((fp, self.points[p].workload, vec![capacity])),
                }
            }
            for (fp, leg_workload, capacities) in groups {
                let sources = WarmupSources { cache, bank: fused_bank.as_ref() };
                let sources = (fp == base_fp).then_some(sources);
                let per_capacity = match leg_workload {
                    Some(leg_workload) => warmup_payloads(
                        sources,
                        leg_workload,
                        &regions,
                        &capacities,
                        &policy,
                        Some(&budget),
                        &mut work,
                    ),
                    None => warmup_payloads(
                        sources,
                        workload,
                        &regions,
                        &capacities,
                        &policy,
                        Some(&budget),
                        &mut work,
                    ),
                }?;
                payloads.insert(fp, per_capacity);
            }
        }

        // Distinct missing legs with the same selection and workload content
        // whose machines differ only in clock frequency share one detailed
        // simulation: the cycle model never reads the frequency
        // (`SimConfig::cycle_equivalent`), so each such leg only needs its
        // own reconstruction.  Groups are listed by their first leg.
        let mut groups: Vec<Vec<usize>> = Vec::new(); // indices into `missing`
        for (j, &u) in missing.iter().enumerate() {
            let rep = unique[u].0;
            let shares = |group: &&mut Vec<usize>| {
                let first = unique[missing[group[0]]].0;
                first / num_points == rep / num_points
                    && parts[first % num_points].workload_fingerprint
                        == parts[rep % num_points].workload_fingerprint
                    && self.points[first % num_points]
                        .sim_config
                        .cycle_equivalent(&self.points[rep % num_points].sim_config)
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
                let rep = unique[missing[groups[g][0]]].0;
                let point = &self.points[rep % num_points];
                let parts = &parts[rep % num_points];
                let selection = &selections[rep / num_points];
                let payload = payloads
                    .get(&parts.workload_fingerprint)
                    .and_then(|per_capacity| per_capacity.get(&parts.llc_capacity));
                let configs: Vec<SimConfig> = groups[g]
                    .iter()
                    .map(|&j| self.points[unique[missing[j]].0 % num_points].sim_config)
                    .collect();
                match point.workload {
                    Some(leg_workload) => compute_legs(
                        selection,
                        warmup,
                        leg_workload,
                        &configs,
                        &policy,
                        Some(&budget),
                        payload,
                    ),
                    None => compute_legs(
                        selection,
                        warmup,
                        workload,
                        &configs,
                        &policy,
                        Some(&budget),
                        payload,
                    ),
                }
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
        // Leg labels: the point label alone for a single-strategy sweep,
        // `"{strategy}/{point}"` across an explicit strategy axis.
        let prefixed = !self.strategies.is_empty();
        // Every cell is filled: each was served by its probe or computed
        // above (a failed computation returned its error).
        let legs = results
            .into_iter()
            .flatten()
            .enumerate()
            .map(|(i, simulated)| {
                let point_label = &self.labels[i % num_points];
                let label = if prefixed {
                    format!("{}/{}", strategies[i / num_points].0, point_label)
                } else {
                    point_label.clone()
                };
                SweepLeg { label, simulated }
            })
            .collect();

        let selections = strategies
            .into_iter()
            .zip(selections)
            .map(|((label, _), selection)| SweepSelection { label, selection })
            .collect();
        Ok(SweepReport { workload_name: workload.name().to_string(), selections, legs, counters })
    }

    /// The strategy axis [`run`](Self::run) iterates: the
    /// [`add_strategy`](Self::add_strategy) variants in insertion order, or
    /// the base pipeline's strategy labelled by its own name when none were
    /// added.
    fn effective_strategies(&self) -> Vec<(String, Arc<dyn SelectionStrategy>)> {
        if self.strategies.is_empty() {
            let strategy = Arc::clone(self.base.selection_strategy());
            vec![(strategy.name().to_string(), strategy)]
        } else {
            self.strategies
                .iter()
                .map(|(label, strategy)| (label.clone(), Arc::clone(strategy)))
                .collect()
        }
    }

    /// Derives every design point's key components; a plain
    /// [`add_config`](Self::add_config) point reuses the base workload's
    /// `profile_key` identity.
    fn point_parts(&self, profile_key: &ProfileCacheKey) -> Vec<PointParts> {
        let base = self.base.workload();
        let warmup = self.base.warmup();
        self.points
            .iter()
            .map(|point| {
                let (workload_name, threads, workload_fingerprint) = match point.workload {
                    Some(leg) => {
                        (leg.name().to_string(), leg.num_threads(), leg.profile_fingerprint())
                    }
                    None => {
                        (base.name().to_string(), base.num_threads(), profile_key.fingerprint())
                    }
                };
                PointParts {
                    workload_name,
                    threads,
                    workload_fingerprint,
                    config_fingerprint: sim_config_fingerprint(&point.sim_config, warmup),
                    llc_capacity: point
                        .sim_config
                        .memory
                        .llc_total_lines(point.sim_config.num_cores),
                }
            })
            .collect()
    }
}

/// How many times each pipeline stage actually executed during a sweep.
///
/// With an [`ArtifactCache`](crate::ArtifactCache) attached, *every* stage
/// drops to zero on repeated sweeps — the one-time passes and the simulate
/// legs alike; without one, the one-time passes are exactly one each (never
/// once per design point) and every leg simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepCounters {
    /// Profiling passes executed (0 on a cache hit, else 1 — never more,
    /// regardless of how many strategy-axis entries selected from it).
    pub profile_passes: usize,
    /// Clustering passes executed: one per strategy-axis entry whose
    /// selection was not cache-served (0 on a fully warm sweep, 1 for a
    /// cold single-strategy sweep).
    pub clustering_passes: usize,
    /// MRU warmup collection passes executed: one per distinct workload
    /// *content* (by [`Workload::profile_fingerprint`]) with at least one
    /// uncached leg — legs differing only in LLC capacity share a single
    /// multi-capacity pass, so this is 1 for a whole single-workload sweep
    /// even when design points carry their own content-identical workload
    /// instances.  Zero for non-MRU warmup and for fully cached sweeps.
    pub warmup_collections: usize,
    /// Simulate+reconstruct legs actually executed: *distinct* computations
    /// — design points with identical leg content (same workload content,
    /// machine configuration and warmup) are deduplicated and share one
    /// result.  Cached legs load from the cache instead and are counted in
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
    /// pass makes this **equal to the thread count** for a cold
    /// single-workload sweep (one walk feeds both the signature profiler
    /// and the MRU collector; it used to be 2× — one per consumer), adds
    /// the leg workload's thread count per dedicated warmup collection of a
    /// cross-content leg, and is zero for a warm re-sweep.
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

/// One strategy-axis entry's resolved selection in a [`SweepReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSelection {
    label: String,
    selection: Arc<BarrierPointSelection>,
}

impl SweepSelection {
    /// The strategy-axis label ([`Sweep::add_strategy`]'s label, or the
    /// base strategy's name for a sweep without an explicit axis).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The selection this strategy produced.
    pub fn selection(&self) -> &BarrierPointSelection {
        &self.selection
    }
}

/// Everything produced by one [`Sweep::run`]: each strategy's shared
/// selection, every design-point leg keyed by label, and the
/// stage-execution counters.
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

    /// The barrierpoint selection shared by every leg of the first (or
    /// only) strategy-axis entry.
    pub fn selection(&self) -> &BarrierPointSelection {
        &self.selections[0].selection
    }

    /// Every strategy-axis entry's selection, in axis order (a single
    /// entry when no strategy variants were added).
    pub fn selections(&self) -> &[SweepSelection] {
        &self.selections
    }

    /// The selection of the strategy-axis entry labelled `label`, if any.
    pub fn selection_for(&self, label: &str) -> Option<&BarrierPointSelection> {
        self.selections.iter().find(|s| s.label == label).map(|s| &*s.selection)
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

    #[test]
    fn auto_labelled_configs_enumerate_in_order() {
        let w = workload(2);
        let config = SimConfig::scaled(2);
        let report = Sweep::new(&w).add_configs([config, config]).run().unwrap();
        assert_eq!(report.legs()[0].label(), "config-0");
        assert_eq!(report.legs()[1].label(), "config-1");
        // Identical configs produce identical legs — computed once and
        // shared, not simulated once per duplicate.
        assert_eq!(report.legs()[0].reconstruction(), report.legs()[1].reconstruction());
        assert_eq!(report.counters().simulate_legs, 1, "duplicate design points dedupe");
        assert_eq!(report.counters().warmup_collections, 1);
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
        let report = Sweep::new(&w).add_configs([config, fast, config]).run().unwrap();
        assert_eq!(report.counters().simulate_legs, 2, "two distinct legs compute");
        assert_eq!(report.legs()[0].simulated(), report.legs()[2].simulated());

        // Cached cold run: duplicates are deduplicated *before* the cache
        // probe, so the pair costs one physical probe (one logical miss), a
        // single computation and a single store.
        let dir = std::env::temp_dir().join(format!("bp-sweep-dedup-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let cache = ArtifactCache::new(&dir);
        let cached =
            Sweep::new(&w).with_cache(cache.clone()).add_configs([config, config]).run().unwrap();
        assert_eq!(cached.counters().simulate_legs, 1);
        assert_eq!(cache.stats().simulated_misses, 1, "duplicates share one probe");
        assert_eq!(cached.legs()[0].simulated(), cached.legs()[1].simulated());
        assert_eq!(cached.legs()[0].simulated(), report.legs()[0].simulated());

        // And on the warm repeat the duplicate pair is still one probe but
        // two served design points.
        let warm =
            Sweep::new(&w).with_cache(cache.clone()).add_configs([config, config]).run().unwrap();
        assert_eq!(warm.counters().simulated_cache_hits, 2, "both points served");
        assert_eq!(cache.stats().simulated_memory_hits, 1, "one physical probe for the pair");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression test: the warmup sharing key used to identify workloads by
    /// pointer address, so an [`Sweep::add_point`] leg whose workload is
    /// content-identical to the base collected the same MRU warmup twice.
    #[test]
    fn content_identical_add_point_workload_shares_the_warmup_collection() {
        let w = workload(2);
        let w_same = workload(2); // separate instance, identical content
        assert_eq!(w.profile_fingerprint(), w_same.profile_fingerprint());
        let base = SimConfig::scaled(2);
        let mut fast = base;
        fast.core.frequency_ghz *= 1.5; // distinct leg, same workload + LLC
        let report =
            Sweep::new(&w).add_config("base", base).add_point("fast", fast, &w_same).run().unwrap();
        assert_eq!(
            report.counters().warmup_collections,
            1,
            "content-identical workload instances must share one MRU collection"
        );
        assert_eq!(report.counters().simulate_legs, 2);
        // And the shared collection is invisible in the results.
        let direct =
            Sweep::new(&w).add_config("base", base).add_config("fast", fast).run().unwrap();
        assert_eq!(report.legs(), direct.legs());
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
    fn cross_core_count_points_reuse_the_selection() {
        let bench = Benchmark::NpbIs;
        let w2 = bench.build(&WorkloadConfig::new(2).with_scale(0.02));
        let w4 = bench.build(&WorkloadConfig::new(4).with_scale(0.02));
        let report = Sweep::new(&w2)
            .add_config("2c", SimConfig::scaled(2))
            .add_point("4c", SimConfig::scaled(4), &w4)
            .run()
            .unwrap();
        assert_eq!(report.counters().profile_passes, 1);
        assert_eq!(report.counters().clustering_passes, 1);
        assert_eq!(report.get("4c").unwrap().sim_config().num_cores, 4);
        assert!(report.get("4c").unwrap().reconstruction().execution_time_seconds() > 0.0);
    }

    /// The ISSUE pin: a cold sweep over two selection strategies shares one
    /// profile and one fused warmup collection — `trace_walks` equals the
    /// thread count, exactly as for a single-strategy sweep.
    #[test]
    fn strategy_axis_shares_one_profile_and_one_walk() {
        use bp_clustering::{SimPointStrategy, TwoPhaseStratified};
        let w = workload(2);
        let report = Sweep::new(&w)
            .add_config("base", SimConfig::scaled(2))
            .add_strategy("simpoint", Arc::new(SimPointStrategy::new(SimPointConfig::paper())))
            .add_strategy("stratified", Arc::new(TwoPhaseStratified::with_budget(4)))
            .run()
            .unwrap();
        let counters = report.counters();
        assert_eq!(counters.profile_passes, 1, "one profile serves both strategies");
        assert_eq!(counters.trace_walks, 2, "cold two-strategy sweep walks each thread once");
        assert_eq!(counters.clustering_passes, 2, "one clustering pass per strategy");
        assert_eq!(counters.warmup_collections, 1, "one fused collection covers the union");
        assert_eq!(report.legs().len(), 2);
        assert!(report.get("simpoint/base").is_some());
        assert!(report.get("stratified/base").is_some());
        assert_eq!(report.selections().len(), 2);
        assert_eq!(report.selections()[0].label(), "simpoint");
        assert_eq!(
            report.selection_for("simpoint").unwrap().num_barrierpoints(),
            report.selection().num_barrierpoints(),
            "selection() is the first axis entry's selection"
        );
        assert!(report.selection_for("stratified").unwrap().num_barrierpoints() <= 4);
        assert!(report.selection_for("missing").is_none());
    }

    /// A warm strategy sweep is fully incremental: both selections and both
    /// legs come from the cache — zero profile passes, zero clustering
    /// passes, zero trace walks.
    #[test]
    fn warm_strategy_sweep_executes_zero_walks() {
        use bp_clustering::{SimPointStrategy, TwoPhaseStratified};
        let dir = std::env::temp_dir()
            .join(format!("bp-sweep-strategy-cache-test-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let w = workload(2);
        let cache = ArtifactCache::new(&dir);
        let sweep = || {
            Sweep::new(&w)
                .with_cache(cache.clone())
                .add_config("base", SimConfig::scaled(2))
                .add_strategy("simpoint", Arc::new(SimPointStrategy::new(SimPointConfig::paper())))
                .add_strategy("stratified", Arc::new(TwoPhaseStratified::with_budget(4)))
        };
        let cold = sweep().run().unwrap();
        assert_eq!(cold.counters().clustering_passes, 2);
        let warm = sweep().run().unwrap();
        assert_eq!(warm.counters().profile_passes, 0);
        assert_eq!(warm.counters().clustering_passes, 0);
        assert_eq!(warm.counters().trace_walks, 0);
        assert_eq!(warm.counters().simulate_legs, 0);
        assert_eq!(warm.counters().simulated_cache_hits, 2);
        assert_eq!(cold.legs(), warm.legs());
        assert_eq!(cold.selections(), warm.selections());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Strategy variants dedupe by selection *content* exactly like
    /// duplicate machine configurations: two axis entries that pick the
    /// same barrierpoints share one simulated leg.
    #[test]
    fn identical_strategy_variants_dedupe_their_legs() {
        use bp_clustering::SimPointStrategy;
        let w = workload(2);
        let report = Sweep::new(&w)
            .add_config("base", SimConfig::scaled(2))
            .add_strategy("a", Arc::new(SimPointStrategy::new(SimPointConfig::paper())))
            .add_strategy("b", Arc::new(SimPointStrategy::new(SimPointConfig::paper())))
            .run()
            .unwrap();
        assert_eq!(report.counters().simulate_legs, 1, "identical selections share one leg");
        assert_eq!(
            report.get("a/base").unwrap().simulated(),
            report.get("b/base").unwrap().simulated()
        );
    }

    #[test]
    fn duplicate_strategy_labels_are_rejected() {
        use bp_clustering::{SimPointStrategy, TwoPhaseStratified};
        let w = workload(2);
        let err = Sweep::new(&w)
            .add_config("base", SimConfig::scaled(2))
            .add_strategy("s", Arc::new(SimPointStrategy::new(SimPointConfig::paper())))
            .add_strategy("s", Arc::new(TwoPhaseStratified::with_budget(4)))
            .run()
            .unwrap_err();
        assert!(matches!(err, Error::DuplicateSweepLabel { ref label } if label == "s"));
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
