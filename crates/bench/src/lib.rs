//! Experiment harness regenerating every table and figure of the
//! BarrierPoint paper's evaluation (Section VI).
//!
//! Each `figN_*` / `tableN_*` function computes the data behind one figure or
//! table and returns it as a printable report string plus (where useful)
//! structured rows.  The `reproduce` binary is the one way to run them: it
//! dispatches on experiment names, prints each report and its wall time,
//! and `--quick` runs every experiment at [`ExperimentConfig::quick`]'s
//! reduced scale.
//!
//! The experiments run on the scaled-down machine/workload pair described in
//! DESIGN.md; errors are always computed against a full detailed simulation
//! on the same substrate, exactly as the paper does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use barrierpoint::evaluate::{
    estimate_from_full_run, harmonic_mean, mean, prediction_error, relative_scaling, speedups,
    PredictionError,
};
use barrierpoint::{
    reconstruct, reconstruct_with_mode, select_barrierpoints, select_barrierpoints_with,
    simulate_barrierpoints, ApplicationProfile, BarrierPoint, BarrierPointSelection,
    ExecutionPolicy, ScalingMode, Selected, SelectionSpec, SelectionStrategy, SignatureConfig,
    SimConfig, SimPointConfig, SimPointStrategy, Sweep, TwoPhaseStratified,
    TwoPhaseStratifiedConfig, WarmupKind,
};
use bp_sim::{Machine, RunMetrics};
use bp_workload::{Benchmark, SyntheticWorkload, Workload, WorkloadConfig};
use std::fmt::Write as _;

mod report;

/// Configuration of one experiment sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExperimentConfig {
    /// Workload scale factor (1.0 = the crate's nominal scaled-down inputs).
    pub scale: f64,
    /// Core count of the small machine (8 in the paper).
    pub cores_small: usize,
    /// Core count of the large machine (32 in the paper).
    pub cores_large: usize,
    /// Use the aggressively shrunk "tiny" machine instead of the scaled one
    /// (used by [`ExperimentConfig::quick`] to keep `reproduce --quick` fast).
    pub tiny_machine: bool,
}

impl ExperimentConfig {
    /// The full experiment configuration used for EXPERIMENTS.md.
    pub fn paper() -> Self {
        Self { scale: 1.0, cores_small: 8, cores_large: 32, tiny_machine: false }
    }

    /// The reduced configuration of `reproduce --quick` (and of the unit
    /// tests): a twentieth of the nominal inputs on the tiny machine.
    pub fn quick() -> Self {
        Self { scale: 0.05, cores_small: 4, cores_large: 8, tiny_machine: true }
    }

    /// The simulated machine for `cores` cores under this configuration.
    pub fn machine(&self, cores: usize) -> SimConfig {
        if self.tiny_machine {
            SimConfig::tiny(cores)
        } else {
            SimConfig::scaled(cores)
        }
    }

    /// Builds a benchmark's workload for `cores` threads.
    pub fn workload(&self, bench: Benchmark, cores: usize) -> SyntheticWorkload {
        bench.build(&WorkloadConfig::new(cores).with_scale(self.scale))
    }
}

/// Everything computed once per (benchmark, core count) and shared by several
/// experiments: the workload, its profile, the default selection and the
/// detailed-simulation ground truth.
#[derive(Debug)]
pub struct PreparedRun {
    /// The workload model.
    pub workload: SyntheticWorkload,
    /// The signature profile.
    pub profile: ApplicationProfile,
    /// Barrierpoint selection with the paper's default settings.
    pub selection: BarrierPointSelection,
    /// Full detailed-simulation ground truth.
    pub ground: RunMetrics,
    /// The simulated machine.
    pub sim_config: SimConfig,
}

/// Profiles `workload` and selects its barrierpoints with the paper's
/// default settings (combined signatures, Table II SimPoint parameters).
/// No experiment simulates through the returned stage, so the profiling
/// walk collects no warmup bank.
fn paper_selection(workload: &SyntheticWorkload) -> Selected<'_, SyntheticWorkload> {
    BarrierPoint::new(workload).with_warmup(WarmupKind::Cold).select().expect("selection succeeds")
}

/// Profiles, selects and runs the ground-truth simulation for one benchmark.
pub fn prepare(config: &ExperimentConfig, bench: Benchmark, cores: usize) -> PreparedRun {
    let workload = config.workload(bench, cores);
    let sim_config = config.machine(cores);
    let selected = paper_selection(&workload);
    let profile = selected.profile().clone();
    let selection = selected.into_selection();
    let ground = Machine::new(&sim_config).run_full(&workload);
    PreparedRun { workload, profile, selection, ground, sim_config }
}

/// Figure 1: total number of dynamically executed barriers per benchmark for
/// both thread counts.
pub fn fig1_barrier_counts(config: &ExperimentConfig) -> String {
    let mut rows = Vec::new();
    for &bench in Benchmark::all() {
        let small = config.workload(bench, config.cores_small).num_regions();
        let large = config.workload(bench, config.cores_large).num_regions();
        rows.push((
            format!("{bench} ({} / {} threads)", config.cores_small, config.cores_large),
            small as f64,
        ));
        assert_eq!(small, large, "barrier count must not depend on the thread count");
    }
    report::series(
        "Figure 1: dynamically executed barriers (identical at both thread counts)",
        &rows,
    )
}

/// Table I: the simulated system characteristics.
pub fn table1_system(config: &ExperimentConfig) -> String {
    let mut out = String::new();
    out.push_str(&report::table1(&config.machine(config.cores_large)));
    out.push_str(
        "\n(This reproduction's default machine is the proportionally scaled hierarchy; \
use `SimConfig::table1` for the paper's full-size capacities.)\n",
    );
    out
}

/// Table II, generalized per strategy: the paper's SimPoint parameter table
/// followed by the equivalent parameter listing of every other selection
/// backend the harness sweeps.
pub fn table2_simpoint() -> String {
    let mut out = report::table2_strategy(&SelectionSpec::SimPoint(SimPointConfig::paper()));
    out.push('\n');
    out.push_str(&report::table2_strategy(&SelectionSpec::TwoPhaseStratified(
        TwoPhaseStratifiedConfig::default(),
    )));
    out
}

/// Figure 3: per-region aggregate IPC of the full run, the reconstructed IPC
/// and the selected barrierpoints, for npb-ft on the large machine.
pub fn fig3_ipc_trace(config: &ExperimentConfig) -> String {
    let run = prepare(config, Benchmark::NpbFt, config.cores_large);
    let estimate = estimate_from_full_run(&run.selection, &run.ground).expect("estimate");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 3: npb-ft on {} cores — actual vs reconstructed aggregate IPC per region",
        config.cores_large
    );
    let _ = writeln!(
        out,
        "  {:<8} {:>12} {:>16} {:>14}",
        "region", "actual IPC", "reconstructed", "barrierpoint"
    );
    let reps = run.selection.barrierpoint_regions();
    for (region, metrics) in run.ground.regions().iter().enumerate() {
        let _ = writeln!(
            out,
            "  {:<8} {:>12.3} {:>16.3} {:>14}",
            region,
            metrics.aggregate_ipc(),
            estimate.per_region_ipc()[region],
            if reps.contains(&region) { "*" } else { "" }
        );
    }
    out
}

/// The Figures 4 / 7 report: one row per (benchmark, core count) and its
/// errors, then the averages.
fn accuracy_report(title: &str, rows: &[(Benchmark, usize, PredictionError)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    for (bench, cores, error) in rows {
        let _ = writeln!(out, "  {}", report::accuracy_row(bench.name(), *cores, error));
    }
    let avg = mean(&rows.iter().map(|r| r.2.runtime_percent_error).collect::<Vec<_>>());
    let max = rows.iter().map(|r| r.2.runtime_percent_error).fold(0.0f64, f64::max);
    let avg_apki = mean(&rows.iter().map(|r| r.2.dram_apki_abs_difference).collect::<Vec<_>>());
    let _ = writeln!(
        out,
        "  average runtime error {avg:.2}%  max {max:.2}%  average APKI difference {avg_apki:.3}"
    );
    out
}

/// Figure 4: prediction errors with perfect warmup, both core counts.
pub fn fig4_perfect_warmup(config: &ExperimentConfig) -> String {
    let mut rows = Vec::new();
    for &bench in Benchmark::all() {
        for cores in [config.cores_small, config.cores_large] {
            let run = prepare(config, bench, cores);
            let estimate = estimate_from_full_run(&run.selection, &run.ground).expect("estimate");
            rows.push((bench, cores, prediction_error(&run.ground, &estimate)));
        }
    }
    accuracy_report("Figure 4: runtime % error and DRAM APKI difference with perfect warmup", &rows)
}

/// Figure 5: average runtime error for every similarity metric and maxK.
pub fn fig5_similarity_metrics(config: &ExperimentConfig) -> String {
    let max_ks = [1usize, 5, 10, 20];
    let variants = SignatureConfig::figure5_variants();
    // Prepare the profile and ground truth once per benchmark.
    let runs: Vec<PreparedRun> =
        Benchmark::all().iter().map(|&bench| prepare(config, bench, config.cores_small)).collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 5: average absolute runtime error (%) per similarity metric and maxK ({} cores)",
        config.cores_small
    );
    let _ = write!(out, "  {:<16}", "metric");
    for k in max_ks {
        let _ = write!(out, " maxK={k:<6}");
    }
    let _ = writeln!(out);
    for variant in &variants {
        let _ = write!(out, "  {:<16}", variant.to_string());
        for &max_k in &max_ks {
            let mut errors = Vec::new();
            for run in &runs {
                let selection = select_barrierpoints(
                    &run.profile,
                    variant,
                    &SimPointConfig::paper().with_max_k(max_k),
                )
                .expect("selection succeeds");
                let estimate = estimate_from_full_run(&selection, &run.ground).expect("estimate");
                errors.push(prediction_error(&run.ground, &estimate).runtime_percent_error);
            }
            let _ = write!(out, " {:>10.2}", mean(&errors));
        }
        let _ = writeln!(out);
    }
    out
}

/// Table III: per-benchmark barrierpoint selections for both core counts.
pub fn table3_selection(config: &ExperimentConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table III: selected barrierpoints and multipliers");
    let _ = writeln!(out, "{}", report::table3_header());
    for &bench in Benchmark::all() {
        for cores in [config.cores_small, config.cores_large] {
            let workload = config.workload(bench, cores);
            let selection = paper_selection(&workload);
            let _ = writeln!(
                out,
                "{}",
                report::table3_row(bench.input_size(), cores, selection.selection())
            );
        }
    }
    out
}

/// Figure 6: cross-validation of barrierpoints across core counts.
pub fn fig6_cross_validation(config: &ExperimentConfig) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 6: runtime % error when using barrierpoints selected at one core count to \
         predict the other"
    );
    for &bench in Benchmark::all() {
        let small = prepare(config, bench, config.cores_small);
        let large = prepare(config, bench, config.cores_large);
        let mut cells = Vec::new();
        for (target, selection_from) in [
            (&small, &small.selection),
            (&small, &large.selection),
            (&large, &small.selection),
            (&large, &large.selection),
        ] {
            let estimate =
                estimate_from_full_run(selection_from, &target.ground).expect("estimate");
            cells.push(prediction_error(&target.ground, &estimate).runtime_percent_error);
        }
        let _ = writeln!(
            out,
            "  {:<18} {}c/{}c-SV {:>6.2}%  {}c/{}c-SV {:>6.2}%  {}c/{}c-SV {:>6.2}%  {}c/{}c-SV {:>6.2}%",
            bench.name(),
            config.cores_small, config.cores_small, cells[0],
            config.cores_small, config.cores_large, cells[1],
            config.cores_large, config.cores_small, cells[2],
            config.cores_large, config.cores_large, cells[3],
        );
    }
    out
}

/// Figure 7: prediction errors when every barrierpoint is simulated in
/// isolation with the proposed MRU-replay warmup.
pub fn fig7_mru_warmup(config: &ExperimentConfig) -> String {
    let mut rows = Vec::new();
    for &bench in Benchmark::all() {
        for cores in [config.cores_small, config.cores_large] {
            let run = prepare(config, bench, cores);
            let metrics = simulate_barrierpoints(
                &run.workload,
                &run.selection,
                &run.sim_config,
                WarmupKind::MruReplay,
                &ExecutionPolicy::auto(),
            )
            .expect("simulation succeeds");
            let estimate = reconstruct(&run.selection, &metrics, run.sim_config.core.frequency_ghz)
                .expect("reconstruction succeeds");
            rows.push((bench, cores, prediction_error(&run.ground, &estimate)));
        }
    }
    accuracy_report(
        "Figure 7: runtime % error and DRAM APKI difference with MRU-replay warmup",
        &rows,
    )
}

/// Figure 8: actual versus predicted speedup of the large machine over the
/// small machine.
pub fn fig8_relative_scaling(config: &ExperimentConfig) -> String {
    let mut rows = Vec::new();
    for &bench in Benchmark::all() {
        let small = prepare(config, bench, config.cores_small);
        let large = prepare(config, bench, config.cores_large);
        // A single selection (from the small machine's profile) serves both
        // design points — the cross-architecture use case.
        let est_small = estimate_from_full_run(&small.selection, &small.ground).expect("estimate");
        let est_large = estimate_from_full_run(&small.selection, &large.ground).expect("estimate");
        let scaling = relative_scaling(&small.ground, &est_small, &large.ground, &est_large);
        rows.push((format!("{bench} actual"), scaling.actual_speedup));
        rows.push((format!("{bench} predicted"), scaling.predicted_speedup));
    }
    report::series(
        &format!(
            "Figure 8: {}-core vs {}-core speedup, actual and predicted",
            config.cores_small, config.cores_large
        ),
        &rows,
    )
}

/// Figure 9: serial and parallel simulation speedups per benchmark and core
/// count, plus the harmonic means and the resource reduction.
pub fn fig9_speedups(config: &ExperimentConfig) -> String {
    let mut rows = Vec::new();
    let mut parallel_speedups = Vec::new();
    let mut serial_speedups = Vec::new();
    let mut resource = Vec::new();
    for &bench in Benchmark::all() {
        for cores in [config.cores_small, config.cores_large] {
            let workload = config.workload(bench, cores);
            let s = speedups(paper_selection(&workload).selection());
            rows.push((format!("{bench}-{cores} serial"), s.serial));
            rows.push((format!("{bench}-{cores} parallel"), s.parallel));
            serial_speedups.push(s.serial);
            parallel_speedups.push(s.parallel);
            resource.push(s.resource_reduction);
        }
    }
    let mut out =
        report::series("Figure 9: simulation speedups (instruction-count reduction)", &rows);
    let _ = writeln!(
        out,
        "  harmonic mean serial speedup   {:>10.1}x",
        harmonic_mean(&serial_speedups)
    );
    let _ = writeln!(
        out,
        "  harmonic mean parallel speedup {:>10.1}x",
        harmonic_mean(&parallel_speedups)
    );
    let _ = writeln!(out, "  average resource reduction     {:>10.1}x", mean(&resource));
    out
}

/// The machine-configuration variants explored by the [`sweep_design_space`]
/// experiment and the repository benchmark's sweeps: the experiment's stock machine, a 25 %
/// faster clock, and a half-size LLC, for `cores` cores.
pub fn sweep_machine_variants(
    config: &ExperimentConfig,
    cores: usize,
) -> Vec<(&'static str, SimConfig)> {
    let base = config.machine(cores);
    let mut fast_clock = base;
    fast_clock.core.frequency_ghz *= 1.25;
    let mut small_llc = base;
    small_llc.memory.l3.size_bytes /= 2;
    vec![("base", base), ("fast-clock", fast_clock), ("small-llc", small_llc)]
}

/// Design-space sweep demo: one benchmark, the [`sweep_machine_variants`]
/// machine matrix, one profiling pass and one clustering pass — the
/// amortization economy of Figures 6/8 as a single `Sweep::run` call.
pub fn sweep_design_space(config: &ExperimentConfig) -> String {
    let cores = config.cores_small;
    let workload = config.workload(Benchmark::NpbCg, cores);
    let mut sweep = Sweep::new(&workload);
    for (label, machine) in sweep_machine_variants(config, cores) {
        sweep = sweep.add_config(label, machine);
    }
    let sweep_report = sweep.run().expect("sweep succeeds");
    let mut out = report::sweep_table(&sweep_report);
    let _ = writeln!(
        out,
        "  (speedup of fast-clock over base: {:.2}x predicted)",
        sweep_report.predicted_speedup("base", "fast-clock").expect("both legs present"),
    );
    out
}

/// The region budgets swept by the [`selection_strategies`] experiment: each
/// strategy is held to the same budget (`maxK` for SimPoint, the sample
/// budget for the stratified backend) so accuracy is compared at equal cost
/// ceilings.
pub const SELECTION_BUDGETS: [usize; 5] = [1, 2, 5, 10, 20];

/// One row of the accuracy-vs-cost harness: one selection strategy evaluated
/// on one benchmark at one region budget.
#[derive(Debug, Clone)]
pub struct StrategyAccuracyRow {
    /// Selection strategy name.
    pub strategy: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Region budget the strategy was held to.
    pub budget: usize,
    /// Number of barrierpoints the strategy actually selected.
    pub barrierpoints: usize,
    /// Detailed-simulation cost of the selection, in instructions.
    pub simulated_instructions: u64,
    /// Absolute aggregate-IPC error versus the full run, in percent.
    pub ipc_percent_error: f64,
    /// Absolute runtime error versus the full run, in percent.
    pub runtime_percent_error: f64,
}

/// Accuracy-vs-cost comparison of the selection backends: for every
/// benchmark and every [`SELECTION_BUDGETS`] entry, run both the paper's
/// SimPoint pipeline and the two-phase stratified strategy against the same
/// profile, and report each selection's IPC / runtime error next to the
/// detailed-simulation instruction budget it demands.  The text ends with
/// the rows as the JSON document `BENCH_selection.json` holds.
pub fn selection_strategies(config: &ExperimentConfig) -> (String, Vec<StrategyAccuracyRow>) {
    let mut rows = Vec::new();
    for &bench in Benchmark::all() {
        let run = prepare(config, bench, config.cores_small);
        let ground_ipc = run.ground.aggregate_ipc();
        for &budget in &SELECTION_BUDGETS {
            let strategies: [Box<dyn SelectionStrategy>; 2] = [
                Box::new(SimPointStrategy::new(SimPointConfig::paper().with_max_k(budget))),
                Box::new(TwoPhaseStratified::with_budget(budget)),
            ];
            for strategy in &strategies {
                let selection = select_barrierpoints_with(
                    &run.profile,
                    &SignatureConfig::combined(),
                    strategy.as_ref(),
                )
                .expect("selection succeeds");
                let estimate = estimate_from_full_run(&selection, &run.ground).expect("estimate");
                let err = prediction_error(&run.ground, &estimate);
                let ipc_percent_error =
                    ((estimate.aggregate_ipc() - ground_ipc) / ground_ipc).abs() * 100.0;
                rows.push(StrategyAccuracyRow {
                    strategy: strategy.name().to_string(),
                    benchmark: bench.name().to_string(),
                    budget,
                    barrierpoints: selection.num_barrierpoints(),
                    simulated_instructions: selection.sampled_instructions(),
                    ipc_percent_error,
                    runtime_percent_error: err.runtime_percent_error.abs(),
                });
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Selection strategies: accuracy vs simulated-instruction budget ({} cores)",
        config.cores_small
    );
    let _ = writeln!(
        out,
        "  {:<24} {:<10} {:>6} {:>4} {:>14} {:>10} {:>14}",
        "strategy", "benchmark", "budget", "bps", "sim. instrs", "IPC err %", "runtime err %"
    );
    for row in &rows {
        let _ = writeln!(
            out,
            "  {:<24} {:<10} {:>6} {:>4} {:>14} {:>10.2} {:>14.2}",
            row.strategy,
            row.benchmark,
            row.budget,
            row.barrierpoints,
            row.simulated_instructions,
            row.ipc_percent_error,
            row.runtime_percent_error,
        );
    }
    let mut names: Vec<&str> = Vec::new();
    for row in &rows {
        if !names.contains(&row.strategy.as_str()) {
            names.push(&row.strategy);
        }
    }
    for name in names {
        let of_strategy: Vec<&StrategyAccuracyRow> =
            rows.iter().filter(|r| r.strategy == name).collect();
        let avg_ipc = mean(&of_strategy.iter().map(|r| r.ipc_percent_error).collect::<Vec<_>>());
        let avg_runtime =
            mean(&of_strategy.iter().map(|r| r.runtime_percent_error).collect::<Vec<_>>());
        let avg_instr = of_strategy.iter().map(|r| r.simulated_instructions).sum::<u64>()
            / of_strategy.len() as u64;
        let _ = writeln!(
            out,
            "  average {:<24} IPC err {:>6.2}%  runtime err {:>6.2}%  {:>12} instrs/selection",
            name, avg_ipc, avg_runtime, avg_instr
        );
    }
    out.push_str(&selection_json(config.cores_small, &rows));
    (out, rows)
}

/// The `BENCH_selection.json` document: the [`selection_strategies`] rows,
/// one line each.
fn selection_json(threads: usize, rows: &[StrategyAccuracyRow]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|row| {
            format!(
                "    {{\"strategy\": \"{}\", \"benchmark\": \"{}\", \"budget\": {}, \
                 \"barrierpoints\": {}, \"simulated_instructions\": {}, \
                 \"ipc_percent_error\": {:.4}, \"runtime_percent_error\": {:.4}}}",
                row.strategy,
                row.benchmark,
                row.budget,
                row.barrierpoints,
                row.simulated_instructions,
                row.ipc_percent_error,
                row.runtime_percent_error,
            )
        })
        .collect();
    format!(
        "{{\n  \"benchmark\": \"selection_strategies\",\n  \"threads\": {threads},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
        rows.join(",\n")
    )
}

/// Ablation (Section VI-A): reconstruction with and without instruction-count
/// scaling of the multipliers.
pub fn ablation_scaling(config: &ExperimentConfig) -> String {
    let mut scaled_errors = Vec::new();
    let mut unscaled_errors = Vec::new();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Ablation: runtime % error with and without barrierpoint instruction scaling ({} cores)",
        config.cores_small
    );
    for &bench in Benchmark::all() {
        let run = prepare(config, bench, config.cores_small);
        let metrics = barrierpoint::evaluate::perfect_warmup_metrics(&run.selection, &run.ground)
            .expect("metrics");
        let freq = run.sim_config.core.frequency_ghz;
        let with_scaling = reconstruct(&run.selection, &metrics, freq).expect("reconstruct");
        let without_scaling =
            reconstruct_with_mode(&run.selection, &metrics, freq, ScalingMode::Unscaled)
                .expect("reconstruct");
        let e_scaled = prediction_error(&run.ground, &with_scaling).runtime_percent_error;
        let e_unscaled = prediction_error(&run.ground, &without_scaling).runtime_percent_error;
        let _ = writeln!(
            out,
            "  {:<18} scaled {:>6.2}%   unscaled {:>7.2}%",
            bench.name(),
            e_scaled,
            e_unscaled
        );
        scaled_errors.push(e_scaled);
        unscaled_errors.push(e_unscaled);
    }
    let _ = writeln!(
        out,
        "  average: scaled {:.2}%  unscaled {:.2}%",
        mean(&scaled_errors),
        mean(&unscaled_errors)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_config_runs_fig1_and_table_reports() {
        let config = ExperimentConfig::quick();
        let fig1 = fig1_barrier_counts(&config);
        assert!(fig1.contains("npb-sp"));
        assert!(table1_system(&config).contains("L3 cache"));
        assert!(table2_simpoint().contains("maxK"));
    }

    #[test]
    fn quick_sweep_reports_single_pass_amortization() {
        let config = ExperimentConfig::quick();
        let text = sweep_design_space(&config);
        assert!(text.contains("npb-cg"));
        assert!(text.contains("fast-clock"));
        assert!(text.contains("1 profile pass(es), 1 clustering pass(es), 3 simulation leg(s)"));
    }

    #[test]
    fn selection_strategies_covers_both_backends_at_every_budget() {
        let config = ExperimentConfig::quick();
        let (text, rows) = selection_strategies(&config);
        assert_eq!(rows.len(), Benchmark::all().len() * SELECTION_BUDGETS.len() * 2);
        assert!(text.contains("simpoint"));
        assert!(text.contains("two-phase-stratified"));
        for row in &rows {
            assert!(row.barrierpoints >= 1);
            assert!(row.simulated_instructions > 0);
            assert!(row.ipc_percent_error.is_finite());
        }
        // The text ends with the BENCH_selection.json document: both
        // strategies, one row per (strategy, kernel, budget), every field.
        let json = &text[text.find("\n{\n").expect("the text ends with a JSON document") + 1..];
        assert!(json.ends_with("]\n}\n"));
        assert!(json.contains("\"strategy\": \"simpoint\""));
        assert!(json.contains("\"strategy\": \"two-phase-stratified\""));
        let json_rows: Vec<&str> = json.lines().filter(|l| l.contains("\"strategy\": ")).collect();
        assert_eq!(json_rows.len(), rows.len());
        for strategy in ["simpoint", "two-phase-stratified"] {
            for bench in Benchmark::all() {
                for budget in SELECTION_BUDGETS {
                    let key = format!(
                        "{{\"strategy\": \"{strategy}\", \"benchmark\": \"{}\", \"budget\": {budget},",
                        bench.name()
                    );
                    let matches = json_rows.iter().filter(|r| r.contains(&key)).count();
                    assert_eq!(matches, 1, "{key}");
                }
            }
        }
        let fields = "strategy benchmark budget barrierpoints simulated_instructions \
                      ipc_percent_error runtime_percent_error";
        for row in &json_rows {
            for field in fields.split_whitespace() {
                assert!(row.contains(&format!("\"{field}\": ")), "{field} missing: {row}");
            }
        }
    }

    #[test]
    fn quick_fig4_produces_all_rows() {
        let mut config = ExperimentConfig::quick();
        config.cores_large = config.cores_small; // halve the work for the test
        let text = fig4_perfect_warmup(&config);
        assert_eq!(text.matches(" cores  runtime error ").count(), Benchmark::all().len() * 2);
        assert!(text.contains("average runtime error"));
    }
}
