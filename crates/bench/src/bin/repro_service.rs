//! Runs the repeated-submission service benchmark (cold batch → warm
//! jittered resubmission → interrupt-at-N/2 resume on tseng k=1), writes
//! `BENCH_service.json` and exits non-zero if the cross-job cache or the
//! snapshot/resume path breaks its contract — CI uses this as the perf gate
//! for the solve-state cache.

fn main() {
    let node_limit = bist_bench::workload::node_limit_from_env();
    eprintln!(
        "# service benchmark node budget: {node_limit} nodes/solve \
         (set BIST_NODE_LIMIT to change)"
    );

    let circuits = bist_bench::small_circuits();
    let resume_circuit = ("tseng", bist_dfg::benchmarks::tseng());
    let bench = match bist_bench::service::run(&circuits, node_limit, resume_circuit) {
        Ok(bench) => bench,
        Err(e) => {
            eprintln!("service benchmark failed: {e}");
            std::process::exit(1);
        }
    };
    println!("{}", bist_bench::service::render(&bench));

    let json = bench.to_json();
    match std::fs::write("BENCH_service.json", format!("{json}\n")) {
        Ok(()) => eprintln!("# wrote BENCH_service.json"),
        Err(e) => eprintln!("could not write BENCH_service.json: {e}"),
    }

    let violations = bench.violations();
    if !violations.is_empty() {
        for violation in &violations {
            eprintln!("service regression: {violation}");
        }
        std::process::exit(1);
    }
    println!(
        "service gate: warm resubmission replays from the cache and the interrupted solve \
         resumes in strictly fewer nodes than a cold restart, from a snapshot within {} bytes.",
        bist_bench::service::SNAPSHOT_BYTES_BUDGET
    );
}
