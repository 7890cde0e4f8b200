//! The metric registry, the `BENCHMARK.json` description built from it,
//! and the result line every run prints last.

use crate::workloads::Kind;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: name, unit, which direction is better, and the share
/// of the parent's median by which a change may worsen it.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("setup_s", "s", "lower", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("app_minstr_per_s", "Minstr/s", "higher", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.25),
];

/// Per-layer metrics of the traced run: name, unit, better direction.
pub const PER_LAYER: [(&str, &str, &str); 47] = [
    ("workload.trace_ns_per_block", "ns", "lower"),
    ("workload.blocks", "count", "lower"),
    ("workload.accesses", "count", "lower"),
    ("signature.profile_ns_per_access", "ns", "lower"),
    ("warmup.collect_ns_per_access", "ns", "lower"),
    ("warmup.bank_bytes", "B", "lower"),
    ("clustering.select_us_per_region", "us", "lower"),
    ("clustering.barrierpoints", "count", "lower"),
    ("mem.access_ns", "ns", "lower"),
    ("mem.l1_miss_ratio", "ratio", "lower"),
    ("mem.dram_apki", "1/kinstr", "lower"),
    ("sim.execute_block_ns", "ns", "lower"),
    ("sim.detailed_minstr_per_s", "Minstr/s", "higher"),
    ("core.profile_ms", "ms", "lower"),
    ("core.select_ms", "ms", "lower"),
    ("core.simulate_ms", "ms", "lower"),
    ("core.reconstruct_us", "us", "lower"),
    ("core.unattributed_share", "ratio", "lower"),
    ("core.trace_walks", "count", "lower"),
    ("core.segment_walks", "count", "lower"),
    ("core.simulate_legs", "count", "lower"),
    ("core.warmup_collections", "count", "lower"),
    ("cache.decode_mb_per_s.profile", "MB/s", "higher"),
    ("cache.decode_mb_per_s.selection", "MB/s", "higher"),
    ("cache.decode_mb_per_s.simulated", "MB/s", "higher"),
    ("cache.decode_mb_per_s.checkpoint", "MB/s", "higher"),
    ("cache.encode_mb_per_s.profile", "MB/s", "higher"),
    ("cache.encode_mb_per_s.selection", "MB/s", "higher"),
    ("cache.encode_mb_per_s.simulated", "MB/s", "higher"),
    ("cache.encode_mb_per_s.checkpoint", "MB/s", "higher"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.disk_hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.degraded_ops", "count", "lower"),
    ("cache.io_retries", "count", "lower"),
    ("cache.lock_contended", "count", "lower"),
    ("cache.bytes_on_disk", "B", "lower"),
    ("segment.sequential_reprofile_ms", "ms", "lower"),
    ("segment.reprofile_ms", "ms", "lower"),
    ("segment.speedup", "x", "higher"),
    ("segment.checkpoint_hits", "count", "higher"),
    ("exec.workers", "count", "higher"),
    ("exec.steal_count", "count", "higher"),
    ("trace.untraced_op_p50_ms", "ms", "lower"),
    ("trace.traced_op_p50_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
];

/// Seconds one benchmark run measures (`run_seconds`).
pub const RUN_SECONDS: u64 = 20;

/// The contents of `BENCHMARK.json`.
pub fn describe() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"cargo\", \"run\", \"--quiet\", \"--offline\", \"--release\", ");
    out.push_str("\"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n");
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, kind) in Kind::ALL.iter().enumerate() {
        let _ = write!(out, "    {{\"name\": \"{}\", \"why\": \"{}\"}}", kind.name(), kind.why());
        out.push_str(if i + 1 < Kind::ALL.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \
             \"bound\": {bound}}}"
        );
        out.push_str(if i + 1 < END_TO_END.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}"
        );
        out.push_str(if i + 1 < PER_LAYER.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Metric values collected by one run, by name.  `None` is a metric that
/// was deliberately not measured (with the reason in `notes`).
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, Option<f64>>,
    notes: BTreeMap<String, String>,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), Some(value));
    }

    pub fn not_measured(&mut self, name: &str, reason: &str) {
        self.values.insert(name.to_string(), None);
        self.notes.insert(name.to_string(), reason.to_string());
    }

    /// Prints one human-readable line per registry metric and returns the
    /// metrics JSON object, or an error naming a registry metric the run
    /// did not produce (or a produced metric missing from the registry).
    pub fn render(&self, registry: &[(&str, &str)]) -> Result<String, String> {
        if let Some(extra) = self.values.keys().find(|k| !registry.iter().any(|(n, _)| n == k)) {
            return Err(format!("metric {extra} is not in the registry"));
        }
        let mut json = String::from("{");
        for (i, (name, unit)) in registry.iter().enumerate() {
            let value = self.values.get(*name).ok_or_else(|| format!("metric {name} missing"))?;
            let shown = match value {
                Some(v) => format!("{v}"),
                None => "not measured".to_string(),
            };
            let note = self.notes.get(*name).map(|n| format!("  ({n})")).unwrap_or_default();
            println!("{name:<36} {shown:>24} {unit}{note}");
            let value = match value {
                Some(v) if v.is_finite() => format!("{v}"),
                _ => "null".to_string(),
            };
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(json, "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        json.push('}');
        Ok(json)
    }
}

/// The last line of every run.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {metrics_json}}}"
    )
}
