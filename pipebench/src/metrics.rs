//! Metric names and units, and the result line the benchmark prints.
//!
//! The two tables below are the benchmark's contract: an untraced run
//! prints exactly [`END_TO_END`], a traced run exactly [`PER_LAYER`].

/// Metrics a user of the pipeline sees, measured with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("area_total", "transistors"),
    ("proven_optimal", "count"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dfg.build_ms", "ms"),
    ("core.formulation_ms", "ms"),
    ("core.model_vars", "count"),
    ("core.model_rows", "count"),
    ("core.model_nnz", "count"),
    ("ilp.reduce_ms", "ms"),
    ("ilp.reduce.vars_removed_frac", "ratio"),
    ("ilp.reduce.rows_removed_frac", "ratio"),
    ("ilp.solve_ms", "ms"),
    ("ilp.solve_frac", "ratio"),
    ("ilp.root_ms", "ms"),
    ("ilp.tree_ms", "ms"),
    ("ilp.nodes", "count"),
    ("ilp.nodes_per_s", "1/s"),
    ("ilp.lp_solves", "count"),
    ("ilp.warm_lp_frac", "ratio"),
    ("ilp.strong_branch_solves", "count"),
    ("ilp.propagations", "count"),
    ("ilp.rc_fixed_bounds", "count"),
    ("ilp.time_to_best_s", "s"),
    ("ilp.gap_mean", "ratio"),
    ("ilp.pivots.primal", "count"),
    ("ilp.pivots.dual", "count"),
    ("ilp.bound_flips", "count"),
    ("ilp.bland_frac", "ratio"),
    ("ilp.refactorizations", "count"),
    ("ilp.us_per_pivot", "us"),
    ("ilp.simplex.cold_us_per_pivot", "us"),
    ("ilp.simplex.warm_us_per_pivot", "us"),
    ("ilp.cuts.emitted.gomory", "count"),
    ("ilp.cuts.emitted.nogood", "count"),
    ("ilp.cuts.emitted.cover", "count"),
    ("ilp.cuts.emitted.clique", "count"),
    ("ilp.cuts.emitted.lifted_cover", "count"),
    ("ilp.cuts.active_frac", "ratio"),
    ("ilp.cuts.root_rounds", "count"),
    ("ilp.cuts.tree_rounds", "count"),
    ("ilp.incumbents.warm", "count"),
    ("ilp.incumbents.node-lp", "count"),
    ("ilp.incumbents.dive", "count"),
    ("ilp.incumbents.pump", "count"),
    ("ilp.incumbents.rins", "count"),
    ("ilp.incumbents.other", "count"),
    ("core.extract_ms", "ms"),
    ("datapath.validate_ms", "ms"),
    ("rtl.emit_ms", "ms"),
    ("rtl.verilog_ms", "ms"),
    ("rtl.sim_ms", "ms"),
    ("rtl.cells", "count"),
    ("rtl.min_distinct_patterns", "count"),
    ("service.job_ms.hit", "ms"),
    ("service.job_ms.miss", "ms"),
    ("service.job_ms.resume", "ms"),
    ("service.hit_rate", "ratio"),
    ("service.evictions", "count"),
    ("service.cache_bytes", "bytes"),
    ("service.snapshots_captured", "count"),
    ("ilp.snapshot.bytes", "bytes"),
    ("ilp.snapshot.roundtrip_ms", "ms"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("latency.samples", "count"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_frac", "ratio"),
];

/// The result line: `{"correct", "attempted", "failed", "metrics"}`, with
/// the metrics in `table` order. Every name in `table` must have a value.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[(&str, &str)],
    values: &std::collections::BTreeMap<&'static str, f64>,
) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = values
                .get(name)
                .copied()
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use advbist::ilp::json::Value;

    /// Whether `name` is a valid metric name: 1 to 64 of `[A-Za-z0-9_.-]`,
    /// starting with a letter or digit.
    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_metric_name_is_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name}: {unit}");
        }
        assert!(!valid_name("ilp solve"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name(""));
    }

    /// The tables match the metric lists declared in `BENCHMARK.json`.
    #[test]
    fn tables_match_the_benchmark_manifest() {
        let manifest = Value::parse(include_str!("../../BENCHMARK.json")).expect("manifest JSON");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = manifest
                .get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, expected, "{key}");
        }
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let values = END_TO_END.iter().map(|(n, _)| (*n, 1.25)).collect();
        let line = result_line(true, 9, 0, END_TO_END, &values);
        let parsed = Value::parse(&line).expect("result line is JSON");
        assert_eq!(parsed.get("attempted").and_then(Value::as_u64), Some(9));
        let wall = parsed
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("wall_s");
        assert_eq!(wall.get("value").and_then(Value::as_f64), Some(1.25));
        assert_eq!(wall.get("unit").and_then(Value::as_str), Some("s"));
    }
}
