//! Runs the k-sweep comparison (rebuild baseline vs the layered engine) on
//! its own, writes `BENCH_sweep.json`, and applies two gates:
//!
//! * the engine-vs-rebuild cross-check (`objectives_match` must hold for
//!   every circuit — the parallel engine sweep repeats the rebuild searches
//!   bit-identically), and
//! * at the canonical 1000-node LP budget, the tseng/paulin **exactness
//!   gate**: the rebuild `tseng k=2` row is proven optimal, and either the
//!   chained `tseng k=2` row is too, or every previously-capped chained row
//!   ends strictly below its committed capped objective (see
//!   [`bist_bench::sweep::exactness_violations`]).
//!
//! With `--check-against <path>` it also applies the **deterministic-work
//! gate**: every `rebuild` and `chained` row must match the sweep artifact
//! at `path` (typically the committed `BENCH_sweep.json`) in each of
//! [`bist_bench::sweep::DETERMINISTIC_FIELDS`] — objective, area, proof,
//! bound, gap, stop reason, nodes, pivots, cuts, incumbent source and
//! failed LPs. A change that only makes the
//! solver faster passes; one that moves a single pivot fails.
//!
//! CI runs this as the perf gate for the pricing/cuts/heuristics layer.
//!
//! ```text
//! cargo run --release -p bist-bench --bin repro_sweep [-- --check-against <path>]
//! ```

use bist_bench::workload::DEFAULT_SWEEP_NODES;

fn main() {
    let mut args = std::env::args().skip(1);
    let check_against = match (args.next().as_deref(), args.next(), args.next()) {
        (None, _, _) => None,
        (Some("--check-against"), Some(path), None) => match std::fs::read_to_string(&path) {
            Ok(text) => Some((path, text)),
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            }
        },
        _ => {
            eprintln!("usage: repro_sweep [--check-against <BENCH_sweep.json>]");
            std::process::exit(2);
        }
    };
    let node_limit = bist_bench::workload::node_limit_from_env();
    eprintln!("# sweep node budget: {node_limit} nodes/solve (set BIST_NODE_LIMIT to change)");

    let circuits = bist_bench::small_circuits();
    let config = bist_bench::workload::sweep_config(node_limit);
    let sweeps = match bist_bench::sweep::run_all(&circuits, &config) {
        Ok(sweeps) => sweeps,
        Err(e) => {
            eprintln!("sweep comparison failed: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", bist_bench::sweep::render(&sweeps));

    let body = sweeps
        .iter()
        .map(bist_bench::CircuitSweep::to_json)
        .collect::<Vec<_>>()
        .join(",\n");
    match std::fs::write("BENCH_sweep.json", format!("[\n{body}\n]\n")) {
        Ok(()) => eprintln!("# wrote BENCH_sweep.json"),
        Err(e) => eprintln!("could not write BENCH_sweep.json: {e}"),
    }

    let mut failed = false;
    for sweep in &sweeps {
        if !sweep.objectives_match {
            eprintln!(
                "sweep regression: {} parallel objectives diverged from the rebuild baseline",
                sweep.circuit
            );
            failed = true;
        }
    }
    let violations = bist_bench::sweep::exactness_violations(&sweeps, node_limit);
    if !violations.is_empty() {
        for violation in &violations {
            eprintln!("exactness regression: {violation}");
        }
        failed = true;
    }
    if let Some((path, committed)) = &check_against {
        match bist_bench::sweep::deterministic_diffs(&sweeps, committed) {
            Ok(diffs) if diffs.is_empty() => {
                println!("deterministic-work gate: every rebuild/chained row matches {path}.")
            }
            Ok(diffs) => {
                for diff in &diffs {
                    eprintln!("deterministic-work regression: {diff}");
                }
                failed = true;
            }
            Err(e) => {
                eprintln!("deterministic-work gate: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    if node_limit == DEFAULT_SWEEP_NODES {
        println!(
            "exactness gate: rebuild tseng k=2 proven optimal; chained tseng k=2 proven \
             optimal, or every previously-capped row strictly below its committed capped \
             objective."
        );
    }
}
