use crate::error::Error;
use crate::profile::ApplicationProfile;
use bp_clustering::{
    SelectionContext, SelectionSpec, SelectionStrategy, SimPointConfig, SimPointStrategy,
};
use bp_signature::SignatureConfig;
use serde::{Deserialize, Serialize};

/// Fraction of total instructions below which a barrierpoint is considered
/// "insignificant" in Table III of the paper (0.1 %).
pub const SIGNIFICANCE_THRESHOLD: f64 = 0.001;

/// One selected barrierpoint: a representative inter-barrier region plus its
/// reconstruction multiplier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BarrierPointInfo {
    /// Index of the representative region within the application.
    pub region: usize,
    /// Multiplier: summed instruction count of all regions this barrierpoint
    /// represents, divided by the barrierpoint's own instruction count.
    pub multiplier: f64,
    /// Fraction of the application's total instructions covered.
    pub weight_fraction: f64,
    /// Number of regions in the barrierpoint's cluster.
    pub cluster_size: usize,
    /// Aggregate instruction count of the representative region itself.
    pub instructions: u64,
}

impl BarrierPointInfo {
    /// Whether this barrierpoint contributes at least 0.1 % of all
    /// instructions (Table III's significance threshold).
    pub fn is_significant(&self) -> bool {
        self.weight_fraction >= SIGNIFICANCE_THRESHOLD
    }
}

/// The output of the barrierpoint-selection step (Section III-B of the
/// paper): which regions to simulate in detail, with which multipliers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BarrierPointSelection {
    workload_name: String,
    threads: usize,
    barrierpoints: Vec<BarrierPointInfo>,
    /// For every region, the index (into `barrierpoints`) of its representative.
    region_to_barrierpoint: Vec<usize>,
    region_instructions: Vec<u64>,
    signature_config: SignatureConfig,
    // Serialized last, like the SimPointConfig field it generalizes; the
    // SimPoint variant of SelectionSpec encodes byte-identically to a bare
    // SimPointConfig, so default-strategy artifacts (and the fingerprints
    // derived from them) are unchanged from before the strategy seam.
    spec: SelectionSpec,
}

impl BarrierPointSelection {
    /// Name of the workload the selection was derived from.
    pub fn workload_name(&self) -> &str {
        &self.workload_name
    }

    /// Thread count of the profiling run the selection was derived from.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of inter-barrier regions in the application.
    pub fn num_regions(&self) -> usize {
        self.region_to_barrierpoint.len()
    }

    /// The selected barrierpoints, ordered by representative region index.
    pub fn barrierpoints(&self) -> &[BarrierPointInfo] {
        &self.barrierpoints
    }

    /// Number of selected barrierpoints (clusters).
    pub fn num_barrierpoints(&self) -> usize {
        self.barrierpoints.len()
    }

    /// Barrierpoints contributing at least 0.1 % of instructions.
    pub fn significant(&self) -> impl Iterator<Item = &BarrierPointInfo> {
        self.barrierpoints.iter().filter(|bp| bp.is_significant())
    }

    /// Barrierpoints contributing less than 0.1 % of instructions.
    pub fn insignificant(&self) -> impl Iterator<Item = &BarrierPointInfo> {
        self.barrierpoints.iter().filter(|bp| !bp.is_significant())
    }

    /// The barrierpoint that represents `region`.
    pub fn barrierpoint_of(&self, region: usize) -> &BarrierPointInfo {
        &self.barrierpoints[self.region_to_barrierpoint[region]]
    }

    /// Region indices of all selected barrierpoints.
    pub fn barrierpoint_regions(&self) -> Vec<usize> {
        self.barrierpoints.iter().map(|bp| bp.region).collect()
    }

    /// Per-region aggregate instruction counts recorded during profiling.
    pub fn region_instructions(&self) -> &[u64] {
        &self.region_instructions
    }

    /// Total instructions of the application (all threads, all regions).
    pub fn total_instructions(&self) -> u64 {
        self.region_instructions.iter().sum()
    }

    /// Instructions that must be simulated in detail: the sum over the
    /// selected barrierpoints.
    pub fn sampled_instructions(&self) -> u64 {
        self.barrierpoints.iter().map(|bp| bp.instructions).sum()
    }

    /// Signature configuration used for the selection.
    pub fn signature_config(&self) -> &SignatureConfig {
        &self.signature_config
    }

    /// The identity of the selection strategy that produced this selection.
    pub fn selection_spec(&self) -> &SelectionSpec {
        &self.spec
    }

    /// Short name of the selection strategy (for labels and reports).
    pub fn strategy_name(&self) -> &'static str {
        self.spec.name()
    }

    /// SimPoint clustering parameters, when the selection was produced by
    /// the default SimPoint backend; `None` for other strategies (use
    /// [`selection_spec`](Self::selection_spec) instead).
    pub fn simpoint_config(&self) -> Option<&SimPointConfig> {
        self.spec.simpoint_config()
    }

    /// Serial simulation speedup: the reduction in aggregate instruction
    /// count when simulating only the barrierpoints back to back instead of
    /// the whole application (Figure 9, "serial speedup"); equivalently the
    /// reduction in simulation machine resources.
    pub fn serial_speedup(&self) -> f64 {
        let sampled = self.sampled_instructions();
        if sampled == 0 {
            0.0
        } else {
            self.total_instructions() as f64 / sampled as f64
        }
    }

    /// Parallel simulation speedup: the reduction in simulation latency when
    /// every barrierpoint is simulated concurrently on its own machine, i.e.
    /// total instructions over the largest single barrierpoint (Figure 9,
    /// "parallel speedup").
    pub fn parallel_speedup(&self) -> f64 {
        let largest = self.barrierpoints.iter().map(|bp| bp.instructions).max().unwrap_or(0);
        if largest == 0 {
            0.0
        } else {
            self.total_instructions() as f64 / largest as f64
        }
    }

    /// Reduction in the number of simulation machines needed compared to
    /// simulating every inter-barrier region in parallel (Bryan et al.):
    /// regions per barrierpoint.
    pub fn resource_reduction(&self) -> f64 {
        if self.barrierpoints.is_empty() {
            0.0
        } else {
            self.num_regions() as f64 / self.barrierpoints.len() as f64
        }
    }

    /// A content fingerprint of the complete selection — the serialized
    /// artifact (barrierpoints, multipliers, region mapping, and the
    /// configurations that derived it) through the stable
    /// [`FingerprintHasher`](bp_workload::FingerprintHasher).  Two
    /// selections with equal fingerprints drive identical simulation legs,
    /// which is what lets the artifact cache key cached [`Simulated`]
    /// legs by selection *content* rather than by how the selection was
    /// obtained.
    ///
    /// [`Simulated`]: crate::Simulated
    pub fn fingerprint(&self) -> u64 {
        let mut hasher = bp_workload::FingerprintHasher::new();
        hasher.write_bytes(&serde::to_vec(self));
        hasher.finish()
    }
}

/// Clusters the profiled regions with the default SimPoint strategy and
/// selects barrierpoints plus multipliers — a thin wrapper over
/// [`select_barrierpoints_with`] kept for the common case.
///
/// # Errors
///
/// Returns [`Error::EmptyWorkload`] if the profile has no regions.
pub fn select_barrierpoints(
    profile: &ApplicationProfile,
    signature_config: &SignatureConfig,
    simpoint_config: &SimPointConfig,
) -> Result<BarrierPointSelection, Error> {
    select_barrierpoints_with(profile, signature_config, &SimPointStrategy::new(*simpoint_config))
}

/// Selects barrierpoints from `profile` with an arbitrary
/// [`SelectionStrategy`]: assembles the per-region signature vectors under
/// `signature_config`, lets the strategy cluster them, and packages the
/// result (representatives, multipliers, region mapping, strategy identity)
/// as a [`BarrierPointSelection`].
///
/// # Errors
///
/// Returns [`Error::EmptyWorkload`] if the profile has no regions.
pub fn select_barrierpoints_with(
    profile: &ApplicationProfile,
    signature_config: &SignatureConfig,
    strategy: &dyn SelectionStrategy,
) -> Result<BarrierPointSelection, Error> {
    if profile.num_regions() == 0 {
        return Err(Error::EmptyWorkload { workload: profile.workload_name().to_string() });
    }
    let vectors = profile.assemble_vectors(signature_config);
    let ctx = SelectionContext {
        threads: profile.threads(),
        total_instructions: profile.all_region_instructions().iter().sum(),
    };
    let clustering = strategy.select(&vectors, &ctx);

    let mut barrierpoints: Vec<BarrierPointInfo> = clustering
        .clusters()
        .iter()
        .map(|cluster| BarrierPointInfo {
            region: cluster.representative,
            multiplier: cluster.multiplier,
            weight_fraction: cluster.weight_fraction,
            cluster_size: cluster.members.len(),
            instructions: profile.region_instructions(cluster.representative),
        })
        .collect();
    barrierpoints.sort_by_key(|bp| bp.region);

    // Map every region to the index of its barrierpoint in the sorted list.
    let region_to_barrierpoint = (0..profile.num_regions())
        .map(|region| {
            let representative = clustering.cluster_of(region).representative;
            match barrierpoints.iter().position(|bp| bp.region == representative) {
                Some(index) => index,
                // The barrierpoint list is built from the cluster
                // representatives, so every representative is in it.
                None => unreachable!("representative region {representative} has no barrierpoint"),
            }
        })
        .collect();

    Ok(BarrierPointSelection {
        workload_name: profile.workload_name().to_string(),
        threads: profile.threads(),
        barrierpoints,
        region_to_barrierpoint,
        region_instructions: profile.all_region_instructions(),
        signature_config: *signature_config,
        spec: strategy.spec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile_application_with;
    use bp_exec::ExecutionPolicy;
    use bp_workload::{
        AccessPattern, Benchmark, SyntheticWorkloadBuilder, Workload, WorkloadConfig,
    };

    fn selection_for(bench: Benchmark, threads: usize) -> BarrierPointSelection {
        let w = bench.build(&WorkloadConfig::new(threads).with_scale(0.02));
        let profile = profile_application_with(&w, &ExecutionPolicy::Serial).unwrap();
        select_barrierpoints(&profile, &SignatureConfig::combined(), &SimPointConfig::paper())
            .unwrap()
    }

    #[test]
    fn far_fewer_barrierpoints_than_regions() {
        let selection = selection_for(Benchmark::NpbLu, 4);
        assert_eq!(selection.num_regions(), 503);
        assert!(selection.num_barrierpoints() <= 20, "maxK bounds the barrierpoint count");
        assert!(selection.num_barrierpoints() >= 2, "LU has several distinct phases");
        assert!(selection.resource_reduction() > 20.0);
    }

    #[test]
    fn multipliers_reconstruct_total_instruction_count() {
        let selection = selection_for(Benchmark::NpbCg, 4);
        let reconstructed: f64 =
            selection.barrierpoints().iter().map(|bp| bp.multiplier * bp.instructions as f64).sum();
        let total = selection.total_instructions() as f64;
        assert!(
            (reconstructed - total).abs() / total < 1e-9,
            "multiplier-weighted instructions {reconstructed} must equal total {total}"
        );
        let coverage: f64 = selection.barrierpoints().iter().map(|bp| bp.weight_fraction).sum();
        assert!((coverage - 1.0).abs() < 1e-9);
    }

    #[test]
    fn every_region_maps_to_a_selected_barrierpoint() {
        let selection = selection_for(Benchmark::NpbFt, 2);
        let regions = selection.barrierpoint_regions();
        for region in 0..selection.num_regions() {
            assert!(regions.contains(&selection.barrierpoint_of(region).region));
        }
        // A representative represents itself.
        for &bp_region in &regions {
            assert_eq!(selection.barrierpoint_of(bp_region).region, bp_region);
        }
    }

    #[test]
    fn speedups_are_consistent() {
        let selection = selection_for(Benchmark::NpbBt, 4);
        assert!(selection.parallel_speedup() >= selection.serial_speedup());
        assert!(selection.serial_speedup() > 1.0);
    }

    #[test]
    fn significance_partition_is_exhaustive() {
        let selection = selection_for(Benchmark::NpbIs, 4);
        let significant = selection.significant().count();
        let insignificant = selection.insignificant().count();
        assert_eq!(significant + insignificant, selection.num_barrierpoints());
    }

    #[test]
    fn is_keeps_most_regions_distinct() {
        // Table III: IS has 11 barriers and 10 selected barrierpoints; our
        // model varies the key working set per iteration, so the selection
        // should likewise keep most regions distinct.
        let selection = selection_for(Benchmark::NpbIs, 4);
        assert!(
            selection.num_barrierpoints() >= 5,
            "IS regions should not collapse: got {}",
            selection.num_barrierpoints()
        );
    }

    #[test]
    fn bt_collapses_to_phase_count() {
        let w = Benchmark::NpbBt.build(&WorkloadConfig::new(4).with_scale(0.02));
        let profile = profile_application_with(&w, &ExecutionPolicy::Serial).unwrap();
        let selection =
            select_barrierpoints(&profile, &SignatureConfig::combined(), &SimPointConfig::paper())
                .unwrap();
        // 1001 regions built from 6 phases must collapse to a handful of
        // barrierpoints (the paper finds 11).
        assert_eq!(w.num_regions(), 1001);
        assert!(selection.num_barrierpoints() <= 20);
        assert!(selection.serial_speedup() > 10.0);
    }

    /// A workload running one single-block phase in each of `regions`
    /// regions: every region has the same basic-block vector.
    fn one_phase_workload(regions: usize) -> impl Workload {
        let mut builder = SyntheticWorkloadBuilder::new("one-phase", WorkloadConfig::new(2));
        let phase = builder
            .phase("loop", 64, true)
            .pattern(AccessPattern::PrivateStream { bytes: 4096, stride: 64 })
            .block("loop.body", 10, 2, 0)
            .finish();
        builder.schedule_repeat(phase, regions);
        builder.build()
    }

    /// Asserts `selection` is one barrierpoint standing for every region.
    fn assert_one_barrierpoint(selection: &BarrierPointSelection, regions: usize) {
        assert_eq!(selection.num_regions(), regions);
        assert_eq!(selection.num_barrierpoints(), 1);
        let bp = &selection.barrierpoints()[0];
        assert_eq!(bp.cluster_size, regions);
        assert!((bp.weight_fraction - 1.0).abs() < 1e-9);
        let reconstructed = bp.multiplier * bp.instructions as f64;
        let total = selection.total_instructions() as f64;
        assert!((reconstructed - total).abs() / total < 1e-9);
        for region in 0..regions {
            assert_eq!(selection.barrierpoint_of(region).region, bp.region);
        }
    }

    #[test]
    fn identical_regions_select_one_barrierpoint() {
        let w = one_phase_workload(40);
        let profile = profile_application_with(&w, &ExecutionPolicy::Serial).unwrap();
        let config = SignatureConfig::bbv_only();
        let vectors = profile.assemble_vectors(&config);
        assert!(vectors.iter().all(|v| v.values() == vectors[0].values()));
        for simpoint in [SimPointConfig::paper(), SimPointConfig::paper().with_max_k(5)] {
            let selection = select_barrierpoints(&profile, &config, &simpoint).unwrap();
            assert_one_barrierpoint(&selection, 40);
        }
    }

    #[test]
    fn a_single_region_selects_itself() {
        let w = one_phase_workload(1);
        let profile = profile_application_with(&w, &ExecutionPolicy::Serial).unwrap();
        for config in [SignatureConfig::combined(), SignatureConfig::bbv_only()] {
            let selection =
                select_barrierpoints(&profile, &config, &SimPointConfig::paper()).unwrap();
            assert_one_barrierpoint(&selection, 1);
            assert_eq!(selection.barrierpoints()[0].region, 0);
        }
    }
}
