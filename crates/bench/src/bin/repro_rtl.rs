//! Runs the RTL back-end over the canonical k-sweeps (figure1/tseng/paulin
//! under the deterministic node budget), proves every extracted design's
//! test plan in the cycle-level simulator, and writes the bit-stable
//! artifacts:
//!
//! * `goldens/rtl/<circuit>_k<k>.netlist` — the canonical netlist text of
//!   every design (CI diffs these against the committed goldens), and
//! * `BENCH_rtl.json` — fingerprints, cell counts, per-session MISR
//!   signatures and coverage minima.
//!
//! The run itself is the gate: [`bist_bench::rtl::run_all`] fails unless
//! every module of every test plan is demonstrably exercised in its
//! scheduled session and observed in its signature register.

fn main() {
    let node_limit = bist_bench::workload::node_limit_from_env();
    eprintln!("# rtl node budget: {node_limit} nodes/solve (set BIST_NODE_LIMIT to change)");

    let circuits = bist_bench::small_circuits();
    let config = bist_bench::workload::sweep_config(node_limit);
    let results = match bist_bench::rtl::run_all(&circuits, &config) {
        Ok(results) => results,
        Err(e) => {
            eprintln!("rtl validation failed: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", bist_bench::rtl::render(&results));

    if let Err(e) = std::fs::create_dir_all("goldens/rtl") {
        eprintln!("could not create goldens/rtl: {e}");
        std::process::exit(1);
    }
    for circuit in &results {
        for row in &circuit.rows {
            let path = format!("goldens/rtl/{}_k{}.netlist", circuit.circuit, row.sessions);
            if let Err(e) = std::fs::write(&path, &row.netlist_text) {
                eprintln!("could not write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    eprintln!("# wrote goldens/rtl/*.netlist");

    let body = results
        .iter()
        .map(bist_bench::rtl::CircuitRtl::to_json)
        .collect::<Vec<_>>()
        .join(",\n");
    match std::fs::write("BENCH_rtl.json", format!("[\n{body}\n]\n")) {
        Ok(()) => eprintln!("# wrote BENCH_rtl.json"),
        Err(e) => {
            eprintln!("could not write BENCH_rtl.json: {e}");
            std::process::exit(1);
        }
    }
    println!(
        "rtl gate: every module of every figure1/tseng/paulin design is exercised in its \
         scheduled session and observed in its MISR signature."
    );
}
