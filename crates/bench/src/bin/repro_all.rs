//! Runs the whole evaluation (Tables 1-3, Figures 1-3, the k-sweep engine
//! comparison) and prints a JSON summary at the end. The sweep comparison is
//! also written to `BENCH_sweep.json` so the perf trajectory can be tracked
//! across PRs, and re-served through the `advbist::service` job queue as the
//! front-door acceptance gate (identical objectives under the per-job
//! budgets).
//!
//! The solve budget comes from one [`bist_ilp::Budget::from_env`] read:
//! `BIST_TIME_LIMIT_SECS` (default 5 s) per table/figure ILP solve,
//! `BIST_NODE_LIMIT` (default 1000) per sweep solve.

use bist_bench::report::ExperimentReport;
use bist_datapath::CostModel;

fn main() {
    // One env read covers the whole run: wall-clock (plus any absolute
    // deadline) for the tables/figures, node budget for the sweep.
    let table_budget = bist_bench::workload::table_budget();
    let limit = table_budget.time_limit.expect("or_time fills the limit");
    let config = bist_bench::workload::quick_config_budget(table_budget);
    eprintln!(
        "# per-instance ILP budget: {:.1}s (set BIST_TIME_LIMIT_SECS to change)",
        limit.as_secs_f64()
    );

    println!("{}", bist_bench::table1::render(&CostModel::eight_bit()));

    match bist_bench::figures::render_figure1(&config) {
        Ok(text) => println!("{text}"),
        Err(e) => eprintln!("figure 1 failed: {e}"),
    }
    match bist_bench::figures::render_fig2_fig3(&config) {
        Ok(text) => println!("{text}"),
        Err(e) => eprintln!("figures 2/3 failed: {e}"),
    }

    let table2 = match bist_bench::table2::run_all(table_budget) {
        Ok(rows) => {
            println!("{}", bist_bench::table2::render(&rows));
            rows
        }
        Err(e) => {
            eprintln!("table 2 failed: {e}");
            Vec::new()
        }
    };
    let table3 = match bist_bench::table3::run_all(table_budget) {
        Ok(rows) => {
            println!("{}", bist_bench::table3::render(&rows));
            let violations = bist_bench::table3::advbist_wins(&rows);
            if violations.is_empty() {
                println!("ADVBIST is never worse than any baseline under this budget.");
            } else {
                for v in &violations {
                    println!("claim violation: {v}");
                }
            }
            rows
        }
        Err(e) => {
            eprintln!("table 3 failed: {e}");
            Vec::new()
        }
    };

    // The rebuild-vs-engine sweep comparison, under a deterministic node
    // budget so the per-k objectives can be cross-checked.
    let sweep_nodes = bist_bench::workload::node_limit_from_env();
    eprintln!("# sweep node budget: {sweep_nodes} nodes/solve (set BIST_NODE_LIMIT to change)");
    let sweep_config = bist_bench::workload::sweep_config(sweep_nodes);
    let sweep_circuits = bist_bench::small_circuits();
    let sweep = match bist_bench::sweep::run_all(&sweep_circuits, &sweep_config) {
        Ok(sweeps) => {
            println!("{}", bist_bench::sweep::render(&sweeps));
            sweeps
        }
        Err(e) => {
            // The sweep feeds the service acceptance gate below; a sweep
            // that cannot run must fail the harness, not skip the gate.
            eprintln!("sweep comparison failed: {e}");
            std::process::exit(1);
        }
    };
    if !sweep.is_empty() {
        let body = sweep
            .iter()
            .map(bist_bench::CircuitSweep::to_json)
            .collect::<Vec<_>>()
            .join(",\n");
        let json = format!("[\n{body}\n]\n");
        match std::fs::write("BENCH_sweep.json", &json) {
            Ok(()) => eprintln!("# wrote BENCH_sweep.json"),
            Err(e) => eprintln!("could not write BENCH_sweep.json: {e}"),
        }

        // The tseng/paulin exactness gate (active only at the canonical
        // 1000-node budget the committed baselines were recorded under).
        let violations = bist_bench::sweep::exactness_violations(&sweep, sweep_nodes);
        if !violations.is_empty() {
            for violation in &violations {
                eprintln!("exactness regression: {violation}");
            }
            std::process::exit(1);
        }

        // Front-door gate: a single service batch must reproduce the engine
        // sweep rows with identical objectives under the per-job budgets.
        match bist_bench::sweep::service_cross_check(&sweep_circuits, &sweep, sweep_nodes) {
            Ok(()) => println!(
                "service gate: one job-queue batch reproduced every engine sweep row \
                 (identical objectives, per-job node budgets honoured)."
            ),
            Err(message) => {
                eprintln!("service gate failed: {message}");
                std::process::exit(1);
            }
        }
    }

    let report = ExperimentReport {
        time_limit_seconds: limit.as_secs_f64(),
        table2,
        table3,
        sweep,
    };
    match report.to_json() {
        Ok(json) => println!("\n--- machine readable summary ---\n{json}"),
        Err(e) => eprintln!("could not serialise the summary: {e}"),
    }
}
