//! Regenerates the paper's tables and figures.
//!
//! ```bash
//! cargo run --release -p bp-bench --bin reproduce -- all
//! cargo run --release -p bp-bench --bin reproduce -- fig4 fig7
//! cargo run --release -p bp-bench --bin reproduce -- --quick fig5
//! ```
//!
//! Supported experiment names: `table1`, `table2`, `table3`, `fig1`, `fig3`,
//! `fig4`, `fig5`, `fig6`, `fig7`, `fig8`, `fig9`, `ablation`, `sweep`,
//! `selection`, `all`.  Every name is checked before any experiment runs:
//! an unknown one prints the usage and exits with status 2.
//!
//! The `selection` report ends with the JSON document `BENCH_selection.json`
//! holds; regenerate the file with
//!
//! ```bash
//! cargo run --release -p bp-bench --bin reproduce -- --quick selection \
//!     | sed -n '/^{$/,/^}$/p' > BENCH_selection.json
//! ```

#![forbid(unsafe_code)]

use bp_bench::ExperimentConfig;
use std::time::Instant;

type Experiment = fn(&ExperimentConfig) -> String;

/// Every experiment by name, in the order `all` runs them.
const EXPERIMENTS: [(&str, Experiment); 14] = [
    ("table1", bp_bench::table1_system),
    ("table2", |_| bp_bench::table2_simpoint()),
    ("fig1", bp_bench::fig1_barrier_counts),
    ("fig3", bp_bench::fig3_ipc_trace),
    ("fig4", bp_bench::fig4_perfect_warmup),
    ("fig5", bp_bench::fig5_similarity_metrics),
    ("table3", bp_bench::table3_selection),
    ("fig6", bp_bench::fig6_cross_validation),
    ("fig7", bp_bench::fig7_mru_warmup),
    ("fig8", bp_bench::fig8_relative_scaling),
    ("fig9", bp_bench::fig9_speedups),
    ("ablation", bp_bench::ablation_scaling),
    ("sweep", bp_bench::sweep_design_space),
    ("selection", |config| bp_bench::selection_strategies(config).0),
];

const USAGE: &str = "usage: reproduce [--quick] <experiment>...\n\
    experiments: table1 table2 table3 fig1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 ablation \
    sweep selection all";

fn main() {
    let mut config = ExperimentConfig::paper();
    let mut experiments: Vec<(&str, Experiment)> = Vec::new();
    let mut all = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => config = ExperimentConfig::quick(),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "all" => all = true,
            name => match EXPERIMENTS.iter().find(|(known, _)| *known == name) {
                Some(&experiment) => experiments.push(experiment),
                None => {
                    eprintln!("unknown experiment: {name}\n{USAGE}");
                    std::process::exit(2);
                }
            },
        }
    }
    if all {
        experiments = EXPERIMENTS.to_vec();
    }
    if experiments.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }

    println!(
        "BarrierPoint reproduction — scale {}, {}/{} cores, {} machine\n",
        config.scale,
        config.cores_small,
        config.cores_large,
        if config.tiny_machine { "tiny" } else { "scaled" }
    );

    for (name, experiment) in experiments {
        let start = Instant::now();
        println!("{}", experiment(&config));
        println!("[{name} completed in {:.1?}]\n", start.elapsed());
    }
}
