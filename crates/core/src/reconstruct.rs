use crate::error::Error;
use crate::select::BarrierPointSelection;
use crate::simulate::BarrierPointMetrics;
use serde::{Deserialize, Serialize};

/// How a barrierpoint's measurements are extrapolated to the regions it
/// represents (Section III-D).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScalingMode {
    /// Scale each represented region by its instruction count relative to the
    /// barrierpoint (the paper's method: per-instruction metrics are assumed
    /// constant within a cluster).
    InstructionScaled,
    /// Treat every represented region as if it were exactly as long as its
    /// barrierpoint.  The paper reports that dropping the scaling step blows
    /// the average error up from 0.6 % to 19.4 %; this mode exists to
    /// reproduce that ablation.
    Unscaled,
}

/// Whole-application metrics estimated from barrierpoint simulations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReconstructedRun {
    workload_name: String,
    frequency_ghz: f64,
    estimated_cycles: f64,
    estimated_instructions: f64,
    estimated_dram_accesses: f64,
    per_region_cycles: Vec<f64>,
    per_region_ipc: Vec<f64>,
}

impl ReconstructedRun {
    /// Name of the workload the estimate describes.
    pub fn workload_name(&self) -> &str {
        &self.workload_name
    }

    /// Estimated total execution time of the parallel region of interest, in
    /// seconds.
    pub fn execution_time_seconds(&self) -> f64 {
        self.estimated_cycles / (self.frequency_ghz * 1e9)
    }

    /// Estimated total cycle count.
    pub fn total_cycles(&self) -> f64 {
        self.estimated_cycles
    }

    /// Estimated total instruction count (all threads).
    pub fn total_instructions(&self) -> f64 {
        self.estimated_instructions
    }

    /// Estimated total DRAM accesses.
    pub fn total_dram_accesses(&self) -> f64 {
        self.estimated_dram_accesses
    }

    /// Estimated whole-application aggregate IPC.
    pub fn aggregate_ipc(&self) -> f64 {
        if self.estimated_cycles > 0.0 {
            self.estimated_instructions / self.estimated_cycles
        } else {
            0.0
        }
    }

    /// Estimated DRAM accesses per thousand instructions.
    pub fn dram_apki(&self) -> f64 {
        if self.estimated_instructions > 0.0 {
            self.estimated_dram_accesses * 1000.0 / self.estimated_instructions
        } else {
            0.0
        }
    }

    /// Estimated duration of every region, in cycles — the reconstructed
    /// time line underlying Figure 3 (middle plot).
    pub fn per_region_cycles(&self) -> &[f64] {
        &self.per_region_cycles
    }

    /// Estimated aggregate IPC of every region (Figure 3, middle plot).
    pub fn per_region_ipc(&self) -> &[f64] {
        &self.per_region_ipc
    }
}

/// Rebuilds whole-application metrics from the detailed simulation of the
/// selected barrierpoints, using the paper's instruction-count scaling.
///
/// See [`reconstruct_with_mode`] for the unscaled ablation.
///
/// # Errors
///
/// Returns [`Error::MissingBarrierPointMetrics`] if `metrics` lacks an entry
/// for one of the selection's barrierpoints.
pub fn reconstruct(
    selection: &BarrierPointSelection,
    metrics: &BarrierPointMetrics,
    frequency_ghz: f64,
) -> Result<ReconstructedRun, Error> {
    reconstruct_with_mode(selection, metrics, frequency_ghz, ScalingMode::InstructionScaled)
}

/// Rebuilds whole-application metrics with an explicit [`ScalingMode`].
///
/// # Errors
///
/// Returns [`Error::MissingBarrierPointMetrics`] if `metrics` lacks an entry
/// for one of the selection's barrierpoints.
pub fn reconstruct_with_mode(
    selection: &BarrierPointSelection,
    metrics: &BarrierPointMetrics,
    frequency_ghz: f64,
    mode: ScalingMode,
) -> Result<ReconstructedRun, Error> {
    // Validate availability up front.
    for bp in selection.barrierpoints() {
        if !metrics.contains_key(&bp.region) {
            return Err(Error::MissingBarrierPointMetrics { region: bp.region });
        }
    }

    let region_instructions = selection.region_instructions();
    let mut per_region_cycles = Vec::with_capacity(selection.num_regions());
    let mut per_region_ipc = Vec::with_capacity(selection.num_regions());
    let mut total_cycles = 0.0;
    let mut total_instructions = 0.0;
    let mut total_dram = 0.0;

    for region in 0..selection.num_regions() {
        let bp = selection.barrierpoint_of(region);
        let measured = &metrics[&bp.region];
        let rep_instructions = region_instructions[bp.region].max(1) as f64;
        let scale = match mode {
            ScalingMode::InstructionScaled => region_instructions[region] as f64 / rep_instructions,
            ScalingMode::Unscaled => 1.0,
        };
        let cycles = measured.cycles as f64 * scale;
        let instructions = measured.instructions as f64 * scale;
        let dram = measured.memory.dram_accesses as f64 * scale;
        per_region_cycles.push(cycles);
        per_region_ipc.push(if cycles > 0.0 { instructions / cycles } else { 0.0 });
        total_cycles += cycles;
        total_instructions += instructions;
        total_dram += dram;
    }

    Ok(ReconstructedRun {
        workload_name: selection.workload_name().to_string(),
        frequency_ghz,
        estimated_cycles: total_cycles,
        estimated_instructions: total_instructions,
        estimated_dram_accesses: total_dram,
        per_region_cycles,
        per_region_ipc,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile_application_with;
    use crate::select::select_barrierpoints;
    use bp_clustering::SimPointConfig;
    use bp_exec::ExecutionPolicy;
    use bp_signature::SignatureConfig;
    use bp_sim::{Machine, SimConfig};
    use bp_workload::{Benchmark, Workload, WorkloadConfig};

    fn setup() -> (BarrierPointSelection, BarrierPointMetrics, bp_sim::RunMetrics) {
        let w = Benchmark::NpbCg.build(&WorkloadConfig::new(4).with_scale(0.05));
        let profile = profile_application_with(&w, &ExecutionPolicy::Serial).unwrap();
        let selection =
            select_barrierpoints(&profile, &SignatureConfig::combined(), &SimPointConfig::paper())
                .unwrap();
        let ground = Machine::new(&SimConfig::tiny(4)).run_full(&w);
        // Perfect warmup: take barrierpoint metrics straight from the full run.
        let metrics: BarrierPointMetrics = selection
            .barrierpoint_regions()
            .into_iter()
            .map(|r| (r, ground.regions()[r].clone()))
            .collect();
        (selection, metrics, ground)
    }

    #[test]
    fn perfect_warmup_reconstruction_is_close_to_ground_truth() {
        let (selection, metrics, ground) = setup();
        let estimate = reconstruct(&selection, &metrics, 2.66).unwrap();
        let actual = ground.total_cycles() as f64;
        let error = (estimate.total_cycles() - actual).abs() / actual;
        assert!(error < 0.10, "reconstruction error {error} too high");
        // Instruction counts should be reproduced almost exactly.
        let instr_error = (estimate.total_instructions() - ground.total_instructions() as f64)
            .abs()
            / ground.total_instructions() as f64;
        assert!(instr_error < 1e-6, "instruction reconstruction error {instr_error}");
    }

    #[test]
    fn per_region_series_has_one_entry_per_region() {
        let (selection, metrics, _) = setup();
        let estimate = reconstruct(&selection, &metrics, 2.66).unwrap();
        assert_eq!(estimate.per_region_ipc().len(), selection.num_regions());
        assert_eq!(estimate.per_region_cycles().len(), selection.num_regions());
        assert!(estimate.per_region_ipc().iter().all(|&ipc| ipc > 0.0));
    }

    #[test]
    fn trivial_selection_reproduces_exact_totals() {
        // If every region is its own barrierpoint, reconstruction must equal
        // the sum of the provided metrics exactly.
        let w = Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(0.02));
        let profile = profile_application_with(&w, &ExecutionPolicy::Serial).unwrap();
        let selection = select_barrierpoints(
            &profile,
            &SignatureConfig::combined(),
            &SimPointConfig::paper().with_max_k(w.num_regions()),
        )
        .unwrap();
        let ground = Machine::new(&SimConfig::tiny(2)).run_full(&w);
        if selection.num_barrierpoints() == w.num_regions() {
            let metrics: BarrierPointMetrics = selection
                .barrierpoint_regions()
                .into_iter()
                .map(|r| (r, ground.regions()[r].clone()))
                .collect();
            let estimate = reconstruct(&selection, &metrics, 2.66).unwrap();
            let actual = ground.total_cycles() as f64;
            assert!((estimate.total_cycles() - actual).abs() / actual < 1e-9);
        }
    }

    #[test]
    fn unscaled_reconstruction_is_worse() {
        let (selection, metrics, ground) = setup();
        let scaled = reconstruct(&selection, &metrics, 2.66).unwrap();
        let unscaled =
            reconstruct_with_mode(&selection, &metrics, 2.66, ScalingMode::Unscaled).unwrap();
        let actual = ground.total_cycles() as f64;
        let scaled_err = (scaled.total_cycles() - actual).abs();
        let unscaled_err = (unscaled.total_cycles() - actual).abs();
        assert!(
            unscaled_err >= scaled_err,
            "unscaled error {unscaled_err} should be at least the scaled error {scaled_err}"
        );
    }

    #[test]
    fn missing_metrics_are_reported() {
        let (selection, mut metrics, _) = setup();
        let first = selection.barrierpoint_regions()[0];
        metrics.remove(&first);
        let err = reconstruct(&selection, &metrics, 2.66).unwrap_err();
        assert_eq!(err, Error::MissingBarrierPointMetrics { region: first });
    }
}
