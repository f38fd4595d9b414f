//! Ablation experiments (ours, not in the paper): how much this
//! implementation's design choices matter.
//!
//! * search-space reduction (Section 3.5) on vs off,
//! * LP-relaxation bounds vs propagation-only bounds in the branch and bound,
//! * warm-starting the concurrent model from the sequential (left-edge-fixed)
//!   solution vs solving cold.

use std::time::Duration;

use bist_core::{synthesis, SynthesisConfig};
use bist_dfg::SynthesisInput;
use bist_ilp::{BoundMode, Budget};

/// One ablation measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Circuit name.
    pub circuit: String,
    /// Variant label.
    pub variant: String,
    /// Best area found within the budget (transistors).
    pub area: u64,
    /// Whether optimality was proven.
    pub optimal: bool,
    /// Branch-and-bound nodes explored.
    pub nodes: u64,
    /// Wall-clock time in seconds.
    pub time_seconds: f64,
}

/// The ablation variants, as `(label, configuration factory)` pairs.
pub fn variants(limit: Duration) -> Vec<(String, SynthesisConfig)> {
    let base = SynthesisConfig::budgeted(Budget::time(limit));
    vec![
        (
            "baseline (hybrid bound, reduction, warm start)".to_string(),
            base.clone(),
        ),
        (
            "no search-space reduction".to_string(),
            SynthesisConfig {
                search_space_reduction: false,
                ..base.clone()
            },
        ),
        ("propagation bound only".to_string(), {
            let mut c = base.clone();
            c.solver.bound_mode = BoundMode::Propagation;
            c
        }),
        ("LP bound at every node".to_string(), {
            let mut c = base.clone();
            c.solver.bound_mode = BoundMode::LpRelaxation;
            c
        }),
        ("cold start (no sequential warm start)".to_string(), {
            let mut c = base;
            c.warm_start = false;
            c
        }),
    ]
}

/// Runs every ablation variant on one circuit for a k-test session.
///
/// # Errors
///
/// Propagates synthesis errors; the cold-start variant may legitimately fail
/// to find a solution within a tiny budget, in which case it is skipped
/// rather than reported.
pub fn run_circuit(
    name: &str,
    input: &SynthesisInput,
    k: usize,
    limit: Duration,
) -> Result<Vec<AblationRow>, bist_core::CoreError> {
    let mut rows = Vec::new();
    for (label, config) in variants(limit) {
        match synthesis::synthesize_bist(input, k, &config) {
            Ok(design) => rows.push(AblationRow {
                circuit: name.to_string(),
                variant: label,
                area: design.area.total(),
                optimal: design.optimal,
                nodes: design.stats.nodes,
                time_seconds: design.stats.time.as_secs_f64(),
            }),
            Err(bist_core::CoreError::NoSolutionWithinLimits) => {
                // Expected for the cold-start variant under very small budgets.
            }
            Err(other) => return Err(other),
        }
    }
    Ok(rows)
}

/// Renders ablation rows as a plain-text table.
pub fn render(rows: &[AblationRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:<45} {:>8} {:>8} {:>10} {:>9}\n",
        "Ckt", "Variant", "Area", "Optimal", "Nodes", "Time(s)"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<10} {:<45} {:>8} {:>8} {:>10} {:>9.2}\n",
            row.circuit,
            row.variant,
            row.area,
            if row.optimal { "yes" } else { "no" },
            row.nodes,
            row.time_seconds
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_dfg::benchmarks;

    #[test]
    fn all_variants_solve_figure1() {
        let input = benchmarks::figure1();
        let rows = run_circuit("figure1", &input, 2, Duration::from_millis(400)).unwrap();
        // At least the baseline, reduction-off, propagation and LP variants
        // must produce a design (cold start may or may not, depending on the
        // budget).
        assert!(rows.len() >= 4, "{rows:?}");
        let text = render(&rows);
        assert!(text.contains("figure1"));
        assert!(text.contains("Variant"));
        // All produced areas agree within the optimal value when proven.
        let optimal_areas: Vec<u64> = rows.iter().filter(|r| r.optimal).map(|r| r.area).collect();
        if optimal_areas.len() >= 2 {
            assert!(optimal_areas.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn variant_list_is_stable() {
        let v = variants(Duration::from_secs(1));
        assert_eq!(v.len(), 5);
        assert!(v[0].0.contains("baseline"));
    }
}
