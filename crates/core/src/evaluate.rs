//! Evaluation helpers reproducing the paper's accuracy, cross-validation and
//! speedup experiments (Section VI).
//!
//! Everything here compares a BarrierPoint estimate against the ground truth
//! obtained by simulating the complete application in detail (`bp-sim`'s
//! [`Machine::run_full`](bp_sim::Machine::run_full)) on the *same* substrate,
//! mirroring how the paper computes its errors.

use crate::error::Error;
use crate::reconstruct::{reconstruct, ReconstructedRun};
use crate::select::BarrierPointSelection;
use crate::simulate::BarrierPointMetrics;
use bp_sim::RunMetrics;
use serde::{Deserialize, Serialize};

/// Accuracy of one BarrierPoint estimate against the detailed-simulation
/// ground truth (the two quantities plotted in Figures 4 and 7).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictionError {
    /// Absolute relative error of the predicted execution time, in percent.
    pub runtime_percent_error: f64,
    /// Absolute difference of the predicted DRAM accesses-per-kilo-instruction.
    pub dram_apki_abs_difference: f64,
}

/// Computes the prediction error of `estimate` with respect to `ground`.
pub fn prediction_error(ground: &RunMetrics, estimate: &ReconstructedRun) -> PredictionError {
    let actual_time = ground.execution_time_seconds();
    let runtime_percent_error = if actual_time > 0.0 {
        (estimate.execution_time_seconds() - actual_time).abs() / actual_time * 100.0
    } else {
        0.0
    };
    PredictionError {
        runtime_percent_error,
        dram_apki_abs_difference: (estimate.dram_apki() - ground.dram_apki()).abs(),
    }
}

/// Extracts "perfect warmup" barrierpoint metrics from a full detailed run:
/// each barrierpoint's measurements are taken from the full simulation, in
/// which its microarchitectural state is exactly right (Section VI-A).
///
/// # Errors
///
/// Returns [`Error::RegionCountMismatch`] if `ground` does not describe the
/// same number of regions as `selection`.
pub fn perfect_warmup_metrics(
    selection: &BarrierPointSelection,
    ground: &RunMetrics,
) -> Result<BarrierPointMetrics, Error> {
    if ground.regions().len() != selection.num_regions() {
        return Err(Error::RegionCountMismatch {
            expected: selection.num_regions(),
            actual: ground.regions().len(),
        });
    }
    Ok(selection
        .barrierpoint_regions()
        .into_iter()
        .map(|region| (region, ground.regions()[region].clone()))
        .collect())
}

/// Convenience composition of [`perfect_warmup_metrics`] + [`reconstruct`]:
/// the estimate the paper evaluates in Figures 4–6.
///
/// The `selection` may come from a different core count than `ground`
/// (cross-validation, Figure 6): barrierpoints are well-defined units of work
/// that transfer across machines as long as the barrier count matches.
///
/// # Errors
///
/// Returns [`Error::RegionCountMismatch`] if the selection and the ground
/// truth disagree on the number of regions.
pub fn estimate_from_full_run(
    selection: &BarrierPointSelection,
    ground: &RunMetrics,
) -> Result<ReconstructedRun, Error> {
    let metrics = perfect_warmup_metrics(selection, ground)?;
    reconstruct(selection, &metrics, ground.frequency_ghz())
}

/// Simulation speedups and resource reduction of a selection (Figure 9).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Speedups {
    /// Reduction in aggregate simulated instructions when simulating only the
    /// barrierpoints back to back (also the reduction in machine resources
    /// versus simulating all inter-barrier regions in parallel).
    pub serial: f64,
    /// Reduction in simulation latency when all barrierpoints run in parallel
    /// (total instructions over the largest barrierpoint).
    pub parallel: f64,
    /// Regions per barrierpoint: how many fewer simulation machines are
    /// needed compared to Bryan et al.'s all-regions-in-parallel approach.
    pub resource_reduction: f64,
}

/// Computes the speedup metrics of a selection.
pub fn speedups(selection: &BarrierPointSelection) -> Speedups {
    Speedups {
        serial: selection.serial_speedup(),
        parallel: selection.parallel_speedup(),
        resource_reduction: selection.resource_reduction(),
    }
}

/// Actual versus predicted relative performance between two design points
/// (Figure 8: 8-core versus 32-core speedup).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalingPrediction {
    /// Measured speedup: time on the baseline machine over time on the
    /// scaled-up machine.
    pub actual_speedup: f64,
    /// Speedup predicted from the BarrierPoint estimates of both machines.
    pub predicted_speedup: f64,
}

impl ScalingPrediction {
    /// Relative error of the predicted speedup, in percent.
    pub fn percent_error(&self) -> f64 {
        if self.actual_speedup == 0.0 {
            0.0
        } else {
            (self.predicted_speedup - self.actual_speedup).abs() / self.actual_speedup * 100.0
        }
    }
}

/// Computes actual and predicted speedup of `scaled` (e.g. 32 cores) relative
/// to `baseline` (e.g. 8 cores).
pub fn relative_scaling(
    baseline_ground: &RunMetrics,
    baseline_estimate: &ReconstructedRun,
    scaled_ground: &RunMetrics,
    scaled_estimate: &ReconstructedRun,
) -> ScalingPrediction {
    let actual = baseline_ground.execution_time_seconds() / scaled_ground.execution_time_seconds();
    let predicted =
        baseline_estimate.execution_time_seconds() / scaled_estimate.execution_time_seconds();
    ScalingPrediction { actual_speedup: actual, predicted_speedup: predicted }
}

/// Harmonic mean of a sequence of positive values (the paper summarizes its
/// speedups with the harmonic mean).
///
/// Returns 0.0 for an empty slice.
pub fn harmonic_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let denom: f64 = values.iter().map(|v| 1.0 / v.max(f64::MIN_POSITIVE)).sum();
    values.len() as f64 / denom
}

/// Arithmetic mean of a sequence (used for average absolute errors).
///
/// Returns 0.0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
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
    use bp_workload::{Benchmark, WorkloadConfig};

    #[test]
    fn perfect_warmup_estimate_is_accurate() {
        let w = Benchmark::NpbFt.build(&WorkloadConfig::new(4).with_scale(0.05));
        let profile = profile_application_with(&w, &ExecutionPolicy::Serial).unwrap();
        let selection =
            select_barrierpoints(&profile, &SignatureConfig::combined(), &SimPointConfig::paper())
                .unwrap();
        let ground = Machine::new(&SimConfig::tiny(4)).run_full(&w);
        let estimate = estimate_from_full_run(&selection, &ground).unwrap();
        let error = prediction_error(&ground, &estimate);
        assert!(
            error.runtime_percent_error < 10.0,
            "perfect-warmup runtime error {}%",
            error.runtime_percent_error
        );
        assert!(error.dram_apki_abs_difference < 5.0);
    }

    #[test]
    fn region_count_mismatch_is_detected() {
        let w8 = Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(0.02));
        let profile = profile_application_with(&w8, &ExecutionPolicy::Serial).unwrap();
        let selection =
            select_barrierpoints(&profile, &SignatureConfig::combined(), &SimPointConfig::paper())
                .unwrap();
        let other = Benchmark::NpbCg.build(&WorkloadConfig::new(2).with_scale(0.02));
        let ground = Machine::new(&SimConfig::tiny(2)).run_full(&other);
        assert!(matches!(
            perfect_warmup_metrics(&selection, &ground),
            Err(Error::RegionCountMismatch { .. })
        ));
    }

    #[test]
    fn means_behave() {
        assert_eq!(harmonic_mean(&[]), 0.0);
        assert!((harmonic_mean(&[2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!(harmonic_mean(&[1.0, 100.0]) < 2.0);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn scaling_prediction_error() {
        let p = ScalingPrediction { actual_speedup: 4.0, predicted_speedup: 5.0 };
        assert!((p.percent_error() - 25.0).abs() < 1e-12);
    }
}
