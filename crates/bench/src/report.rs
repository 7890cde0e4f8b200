//! Text rendering of paper-style tables and figure data, shared by the
//! experiments in this crate.

use barrierpoint::evaluate::PredictionError;
use barrierpoint::{BarrierPointSelection, SelectionSpec, SimConfig, SweepReport};
use std::fmt::Write as _;

/// Renders Table I (simulated system characteristics) for a machine
/// configuration.
pub(crate) fn table1(config: &SimConfig) -> String {
    let m = &config.memory;
    let sockets = m.num_sockets(config.num_cores);
    let mut out = String::new();
    let _ = writeln!(out, "Table I: simulated system characteristics");
    let _ = writeln!(
        out,
        "  Processor        {} socket(s), {} cores per socket ({} cores total)",
        sockets, m.cores_per_socket, config.num_cores
    );
    let _ = writeln!(
        out,
        "  Core             {:.2} GHz, {}-way issue, {}-entry ROB",
        config.core.frequency_ghz, config.core.issue_width, config.core.rob_entries
    );
    let _ =
        writeln!(out, "  Branch predictor {} cycles penalty", config.core.branch_penalty_cycles);
    let _ = writeln!(
        out,
        "  L1-I             {} KB, {} way, {} cycle",
        m.l1i.size_bytes / 1024,
        m.l1i.associativity,
        m.l1i.latency_cycles
    );
    let _ = writeln!(
        out,
        "  L1-D             {} KB, {} way, {} cycle",
        m.l1d.size_bytes / 1024,
        m.l1d.associativity,
        m.l1d.latency_cycles
    );
    let _ = writeln!(
        out,
        "  L2 cache         {} KB per core, {} way, {} cycle",
        m.l2.size_bytes / 1024,
        m.l2.associativity,
        m.l2.latency_cycles
    );
    let _ = writeln!(
        out,
        "  L3 cache         {} KB per {} cores, {} way, {} cycle",
        m.l3.size_bytes / 1024,
        m.cores_per_socket,
        m.l3.associativity,
        m.l3.latency_cycles
    );
    let _ = writeln!(out, "  Main memory      {} cycles access time", m.dram_latency_cycles);
    out
}

/// Renders a Table II-style parameter listing for any selection strategy:
/// the paper's Table II for the default SimPoint backend, the analogous
/// parameter table for every other [`SelectionSpec`].
pub(crate) fn table2_strategy(spec: &SelectionSpec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table II: {} selection parameters", spec.name());
    for (name, value) in spec.parameters() {
        let _ = writeln!(out, "  {name:<29} {value}");
    }
    if matches!(spec, SelectionSpec::SimPoint(_)) {
        let _ = writeln!(out, "  -fixedLength                  off (variable-length regions)");
        let _ = writeln!(out, "  -coveragePct                  1 (100%)");
    }
    out
}

/// Renders one Table III row: barrier counts, significant/insignificant
/// barrierpoint summary and the selected barrierpoints with multipliers.
pub(crate) fn table3_row(
    input_size: &str,
    cores: usize,
    selection: &BarrierPointSelection,
) -> String {
    let significant: Vec<_> = selection.significant().collect();
    let insignificant: Vec<_> = selection.insignificant().collect();
    let insig_mult: f64 = insignificant.iter().map(|bp| bp.multiplier).sum();
    let insig_weight: f64 = insignificant.iter().map(|bp| bp.weight_fraction).sum();
    let mut out = String::new();
    let _ = write!(
        out,
        "{:<18} {:<5} {:>3}  {:>6}  {:>4}  {:>2} / {:>6.1} / {:>8.1e}  ",
        selection.workload_name(),
        input_size,
        cores,
        selection.num_regions(),
        significant.len(),
        insignificant.len(),
        insig_mult,
        insig_weight.max(0.0),
    );
    let picks: Vec<String> =
        significant.iter().map(|bp| format!("{} ({:.1})", bp.region, bp.multiplier)).collect();
    let _ = write!(out, "{}", picks.join(" "));
    out
}

/// Header line matching [`table3_row`].
pub(crate) fn table3_header() -> String {
    format!(
        "{:<18} {:<5} {:>3}  {:>6}  {:>4}  {}  {}",
        "application",
        "input",
        "cores",
        "barriers",
        "sig",
        "insig / mult / weight",
        "barrierpoint (multiplier)"
    )
}

/// Renders one accuracy row (Figures 4 and 7): runtime error and DRAM APKI
/// difference for one benchmark and core count.
pub(crate) fn accuracy_row(benchmark: &str, cores: usize, error: &PredictionError) -> String {
    format!(
        "{:<18} {:>3} cores  runtime error {:>6.2}%  DRAM APKI diff {:>7.4}",
        benchmark, cores, error.runtime_percent_error, error.dram_apki_abs_difference
    )
}

/// Renders a [`SweepReport`] as an aligned per-design-point table plus the
/// stage-execution summary that shows the amortization (one profile pass,
/// one clustering pass, N simulation legs).
pub(crate) fn sweep_table(report: &SweepReport) -> String {
    let mut out = String::new();
    let counters = report.counters();
    let cached = if counters.simulated_cache_hits > 0 {
        format!(", {} leg(s) from cache", counters.simulated_cache_hits)
    } else {
        String::new()
    };
    let _ = writeln!(
        out,
        "Design-space sweep: {} ({} barrierpoints; {} profile pass(es), {} clustering \
         pass(es), {} simulation leg(s){cached})",
        report.workload_name(),
        report.selection().num_barrierpoints(),
        counters.profile_passes,
        counters.clustering_passes,
        counters.simulate_legs,
    );
    let _ = writeln!(
        out,
        "  {:<18} {:>5} {:>10} {:>14} {:>10} {:>10}",
        "design point", "cores", "GHz", "est. time (ms)", "IPC", "DRAM APKI"
    );
    for leg in report.legs() {
        let r = leg.reconstruction();
        let _ = writeln!(
            out,
            "  {:<18} {:>5} {:>10.2} {:>14.3} {:>10.2} {:>10.2}",
            leg.label(),
            leg.sim_config().num_cores,
            leg.sim_config().core.frequency_ghz,
            r.execution_time_seconds() * 1e3,
            r.aggregate_ipc(),
            r.dram_apki(),
        );
    }
    out
}

/// Renders a simple aligned two-column series (used for Figure 1, 5, 8, 9
/// outputs).
pub(crate) fn series(title: &str, rows: &[(String, f64)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    for (label, value) in rows {
        let _ = writeln!(out, "  {label:<32} {value:>12.3}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use barrierpoint::{
        profile_application_with, select_barrierpoints, ExecutionPolicy, SignatureConfig,
        SimPointConfig, Sweep,
    };
    use bp_workload::{Benchmark, WorkloadConfig};

    #[test]
    fn table1_mentions_all_levels() {
        let text = table1(&SimConfig::table1(32));
        assert!(text.contains("L1-D"));
        assert!(text.contains("L3 cache"));
        assert!(text.contains("4 socket(s)"));
        assert!(text.contains("2.66 GHz"));
    }

    #[test]
    fn table2_lists_paper_parameters() {
        let text = table2_strategy(&SelectionSpec::SimPoint(SimPointConfig::paper()));
        assert!(text.contains("15"));
        assert!(text.contains("20"));
    }

    #[test]
    fn table3_row_contains_selected_regions() {
        let w = Benchmark::NpbIs.build(&WorkloadConfig::new(4).with_scale(0.02));
        let profile = profile_application_with(&w, &ExecutionPolicy::Serial).unwrap();
        let selection =
            select_barrierpoints(&profile, &SignatureConfig::combined(), &SimPointConfig::paper())
                .unwrap();
        let row = table3_row("A", 4, &selection);
        assert!(row.contains("npb-is"));
        for bp in selection.significant() {
            assert!(row.contains(&format!("{} (", bp.region)));
        }
        assert!(!table3_header().is_empty());
    }

    #[test]
    fn sweep_table_lists_every_leg() {
        let w = Benchmark::NpbIs.build(&WorkloadConfig::new(2).with_scale(0.02));
        let base = SimConfig::scaled(2);
        let mut fast = base;
        fast.core.frequency_ghz *= 2.0;
        let report =
            Sweep::new(&w).add_config("base", base).add_config("fast-clock", fast).run().unwrap();
        let text = sweep_table(&report);
        assert!(text.contains("npb-is"));
        assert!(text.contains("base"));
        assert!(text.contains("fast-clock"));
        assert!(text.contains("1 profile pass(es), 1 clustering pass(es), 2 simulation leg(s)"));
    }

    #[test]
    fn series_renders_every_row() {
        let text = series("fig", &[("a".into(), 1.0), ("b".into(), 2.5)]);
        assert!(text.contains("fig"));
        assert!(text.contains('a'));
        assert!(text.contains("2.5"));
    }
}
