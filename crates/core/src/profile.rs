use crate::error::Error;
use crate::segment::{MruBoundaries, TraceWalk};
use bp_exec::{ExecutionPolicy, WorkerBudget};
use bp_signature::{zip_thread_profiles, RegionSignature, SignatureConfig, SignatureVector};
use bp_warmup::MruSnapshotBank;
use bp_workload::Workload;
use serde::{Deserialize, Serialize};

/// The result of the one-time profiling pass over an application: one
/// [`RegionSignature`] per inter-barrier region.
///
/// Profiling is microarchitecture-independent (no cache model is involved),
/// which is what allows the resulting barrierpoints to be reused across
/// processor configurations (Section III / Figure 6 of the paper).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ApplicationProfile {
    workload_name: String,
    threads: usize,
    signatures: Vec<RegionSignature>,
}

impl ApplicationProfile {
    /// Name of the profiled workload.
    pub fn workload_name(&self) -> &str {
        &self.workload_name
    }

    /// Thread count used during profiling.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of inter-barrier regions (== dynamic barriers).
    pub fn num_regions(&self) -> usize {
        self.signatures.len()
    }

    /// The raw per-region signatures.
    pub fn signatures(&self) -> &[RegionSignature] {
        &self.signatures
    }

    /// Aggregate instruction count of region `region` (all threads).
    pub fn region_instructions(&self, region: usize) -> u64 {
        self.signatures[region].total_instructions()
    }

    /// Per-region aggregate instruction counts.
    pub fn all_region_instructions(&self) -> Vec<u64> {
        self.signatures.iter().map(|s| s.total_instructions()).collect()
    }

    /// Total instructions over the whole application (all threads).
    pub fn total_instructions(&self) -> u64 {
        self.signatures.iter().map(|s| s.total_instructions()).sum()
    }

    /// Assembles one signature vector per region under `config` (the input to
    /// the clustering step).
    pub fn assemble_vectors(&self, config: &SignatureConfig) -> Vec<SignatureVector> {
        self.signatures.iter().map(|s| s.assemble(config)).collect()
    }

    /// Zips per-thread streaming profiles into the application profile —
    /// the last step of every profiling [`TraceWalk`].
    pub(crate) fn from_thread_profiles(
        workload_name: String,
        threads: usize,
        profiles: Vec<bp_signature::ThreadProfile>,
    ) -> Self {
        Self { workload_name, threads, signatures: zip_thread_profiles(profiles) }
    }
}

// Hand-written decoding: clustering indexes every region's signature by
// thread and concatenates BBVs of one dimension, so a profile whose regions
// disagree with its thread count or with each other's BBV dimension is a
// decode error — a cache entry holding one reads as a miss — rather than a
// panic in selection.
impl Deserialize for ApplicationProfile {
    fn deserialize(de: &mut serde::Deserializer<'_>) -> Result<Self, serde::Error> {
        let workload_name = String::deserialize(de)?;
        let threads = usize::deserialize(de)?;
        let signatures = Vec::<RegionSignature>::deserialize(de)?;
        let dimension = signatures.first().and_then(|s| s.bbvs().first()).map(|b| b.dimension());
        for (region, signature) in signatures.iter().enumerate() {
            if signature.num_threads() != threads {
                return Err(serde::Error::custom(format!(
                    "region {region} has {} threads, the profile {threads}",
                    signature.num_threads()
                )));
            }
            if signature.bbvs().iter().any(|bbv| Some(bbv.dimension()) != dimension) {
                return Err(serde::Error::custom(format!(
                    "region {region} has a BBV dimension other than {dimension:?}"
                )));
            }
        }
        Ok(Self { workload_name, threads, signatures })
    }
}

/// Runs the one-time profiling pass under `policy`: each workload thread's
/// entire trace (all regions, in program order) is walked as one streaming
/// pass — on its own OS thread under [`ExecutionPolicy::Parallel`] — and the
/// per-thread results are zipped into per-region BBV / LDV signatures.
/// Reuse distances are tracked continuously across regions, so the first
/// dynamic instance of a phase (cold data) gets a distinct data signature —
/// the cold-start separation of Section III-A2.
///
/// The result is bit-identical for every policy: per-thread signature state
/// is independent across threads, which is exactly what makes the
/// thread-major fan-out safe.
///
/// This substitutes for the paper's Pin-based profiler, which runs the real
/// application at a 20–30x slowdown.
///
/// # Errors
///
/// Returns [`Error::EmptyWorkload`] if the workload has no regions.
pub fn profile_application_with<W: Workload + ?Sized>(
    workload: &W,
    policy: &ExecutionPolicy,
) -> Result<ApplicationProfile, Error> {
    profile_application_budgeted(workload, policy, None)
}

/// [`profile_application_with`] with the thread-major fan-out optionally
/// drawing helper threads from a shared [`WorkerBudget`] — how a
/// design-space sweep keeps even a non-fused cold profiling pass (e.g.
/// under [`Cold`](crate::WarmupKind::Cold) warmup) inside its overall
/// worker cap.  Output is identical for every budget.
///
/// # Errors
///
/// Returns [`Error::EmptyWorkload`] if the workload has no regions.
pub fn profile_application_budgeted<W: Workload + ?Sized>(
    workload: &W,
    policy: &ExecutionPolicy,
    budget: Option<&WorkerBudget>,
) -> Result<ApplicationProfile, Error> {
    TraceWalk::profile().run(workload, policy, budget).map(|mut walk| walk.take_profile())
}

/// The fused cold pass: one walk of every per-thread trace produces **both**
/// the [`ApplicationProfile`] and the raw MRU warmup state of every region
/// boundary, at the largest capacity in `capacities`.
///
/// Each thread's trace is *generated* exactly once, feeding the signature
/// profiler and the MRU collector together
/// ([`TraceWalk::profile`]`().`[`with_mru`](TraceWalk::with_mru)`(..)`).
/// Because the barrierpoint selection is not known until the profile is
/// clustered, the collector snapshots **every** region boundary; the
/// returned [`MruSnapshotBank`] then assembles the payload of any boundary
/// subset at any capacity up to the collection capacity, bit-identically to
/// a dedicated collection ([`bp_warmup::collect_mru_warmup`]).
///
/// The fan-out is thread-major under `policy`; with a [`WorkerBudget`], the
/// walks draw helper threads from the shared pool, so a concurrent sweep's
/// drained legs can lend workers to a cold fused pass and vice versa.  Both
/// artifacts are identical for every policy and budget.
///
/// # Errors
///
/// Returns [`Error::EmptyWorkload`] if the workload has no regions.
pub fn profile_and_collect_warmup<W: Workload + ?Sized>(
    workload: &W,
    capacities: &[u64],
    policy: &ExecutionPolicy,
    budget: Option<&WorkerBudget>,
) -> Result<(ApplicationProfile, MruSnapshotBank), Error> {
    TraceWalk::profile()
        .with_mru(MruBoundaries::Every, capacities.iter().copied().max().unwrap_or(1))
        .run(workload, policy, budget)
        .map(|mut walk| (walk.take_profile(), walk.take_bank()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bp_workload::{Benchmark, WorkloadConfig};

    #[test]
    fn profile_covers_every_region() {
        let w = Benchmark::NpbIs.build(&WorkloadConfig::new(4).with_scale(0.02));
        let profile = profile_application_with(&w, &ExecutionPolicy::Serial).unwrap();
        assert_eq!(profile.num_regions(), 11);
        assert_eq!(profile.threads(), 4);
        assert_eq!(profile.workload_name(), "npb-is");
        assert!(profile.total_instructions() > 0);
        assert_eq!(
            profile.total_instructions(),
            profile.all_region_instructions().iter().sum::<u64>()
        );
    }

    #[test]
    fn assembled_vectors_share_dimension() {
        let w = Benchmark::NpbFt.build(&WorkloadConfig::new(2).with_scale(0.02));
        let profile = profile_application_with(&w, &ExecutionPolicy::Serial).unwrap();
        let vectors = profile.assemble_vectors(&SignatureConfig::combined());
        assert_eq!(vectors.len(), 34);
        let dim = vectors[0].dimension();
        assert!(vectors.iter().all(|v| v.dimension() == dim));
    }

    #[test]
    fn profiling_is_deterministic() {
        let w = Benchmark::NpbCg.build(&WorkloadConfig::new(2).with_scale(0.02));
        let a = profile_application_with(&w, &ExecutionPolicy::Serial).unwrap();
        let b = profile_application_with(&w, &ExecutionPolicy::Serial).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_profiling_matches_serial() {
        let w = Benchmark::NpbCg.build(&WorkloadConfig::new(4).with_scale(0.02));
        let serial = profile_application_with(&w, &ExecutionPolicy::Serial).unwrap();
        let parallel = profile_application_with(&w, &ExecutionPolicy::parallel_with(4)).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn budgeted_profiling_matches_unbudgeted() {
        let w = Benchmark::NpbIs.build(&WorkloadConfig::new(4).with_scale(0.02));
        let policy = ExecutionPolicy::parallel_with(4);
        let unbudgeted = profile_application_with(&w, &policy).unwrap();
        let budget = WorkerBudget::new(2);
        let budgeted = profile_application_budgeted(&w, &policy, Some(&budget)).unwrap();
        assert_eq!(unbudgeted, budgeted);
        assert_eq!(budget.available(), 2, "all permits returned");
    }

    /// Every kernel's profile survives the codec exactly — sparse LDVs
    /// decode to the dense histograms the walk built — and every truncation
    /// of it (sampled) is an error, never a panic.
    #[test]
    fn every_kernel_profile_round_trips_and_rejects_truncation() {
        for benchmark in Benchmark::all() {
            let w = benchmark.build(&WorkloadConfig::new(2).with_scale(0.01));
            let profile = profile_application_with(&w, &ExecutionPolicy::Serial).unwrap();
            let bytes = serde::to_vec(&profile);
            let back: ApplicationProfile = serde::from_slice(&bytes).unwrap();
            assert_eq!(back, profile, "{}", benchmark.name());
            for len in (0..bytes.len()).step_by(bytes.len() / 50 + 1) {
                let truncated = serde::from_slice::<ApplicationProfile>(&bytes[..len]);
                assert!(truncated.is_err(), "{} truncated to {len}", benchmark.name());
            }
        }
    }

    #[test]
    fn fused_pass_matches_the_separate_passes_bit_for_bit() {
        let w = Benchmark::NpbCg.build(&WorkloadConfig::new(2).with_scale(0.05));
        let budget = WorkerBudget::new(3);
        for (policy, budget) in [
            (ExecutionPolicy::Serial, None),
            (ExecutionPolicy::parallel_with(2), None),
            (ExecutionPolicy::parallel_with(2), Some(&budget)),
        ] {
            let (profile, bank) =
                profile_and_collect_warmup(&w, &[256, 2048], &policy, budget).unwrap();
            assert_eq!(profile, profile_application_with(&w, &policy).unwrap());
            let targets = [0, 5, 20];
            for capacity in [100u64, 256, 2048] {
                assert_eq!(
                    bank.assemble(&targets, capacity),
                    bp_warmup::collect_mru_warmup(&w, &targets, capacity),
                    "capacity {capacity}"
                );
            }
        }
    }
}
