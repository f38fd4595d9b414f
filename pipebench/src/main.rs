//! End-to-end and per-layer benchmark of the ILP → datapath → RTL pipeline.
//!
//! ```text
//! cargo run --release --manifest-path pipebench/Cargo.toml -- \
//!     --workload <paper-chained|paper-rebuild|corpus-service> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) repeats passes over the workload's fixed
//! request list until `--seconds` have passed (at least one pass), while a
//! second thread samples the set-up in short bursts; it checks every answer
//! and prints the end-to-end metrics. A traced run (`--trace 1`) makes one
//! untraced pass, then one pass rebuilt from the crates' public functions
//! with a span around every layer call, checks that both passes answered
//! every request identically, prints the per-layer metrics and writes the
//! spans to `pipebench/traces/`. The paper requests never reach the
//! service, snapshot and RTL layers, so a traced paper run measures those
//! on a small service probe of figure1 instead. The last line of standard
//! output is the JSON result; a failed check makes the exit code 1.

mod corpus;
mod metrics;
mod pipeline;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use pipeline::Counters;
use trace::Tracer;
use workloads::{CacheClass, Inputs, Row, Workload};

/// Least time of one set-up sampling burst (one set-up of the paper
/// circuits takes about 15 µs, of the corpus about 0.7 ms).
const SETUP_BURST: Duration = Duration::from_millis(10);
/// Time from the start of one sampling burst to the start of the next. The
/// host's speed changes by up to a factor of two from one half second to
/// the next, so `setup_s` is sampled in short bursts spread over the whole
/// run rather than in one block.
const SETUP_PERIOD: Duration = Duration::from_millis(100);

const USAGE: &str = "usage: pipebench --workload <paper-chained|paper-rebuild|corpus-service> \
                     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid {flag} value {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut outcome = if args.trace {
        traced_run(args)
    } else {
        untraced_run(args)
    };
    // Repeated passes, and the traced run's second service pass, repeat
    // their findings.
    let errors = &mut outcome.errors;
    errors.sort();
    errors.dedup();
    for error in errors.iter() {
        eprintln!("CHECK FAILED: {error}");
    }
    let correct = errors.is_empty();
    let failed = (outcome.failed + errors.len() as u64).min(outcome.attempted);
    eprintln!(
        "requests: {} attempted, {} answered, {failed} failed (error rate {:.4})",
        outcome.attempted,
        outcome.attempted - failed,
        stats::ratio(failed as f64, outcome.attempted as f64),
    );
    let table = if args.trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    println!(
        "{}",
        metrics::result_line(correct, outcome.attempted, failed, table, &outcome.metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

/// What a run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
}

fn config_for(workload: Workload) -> advbist::core::SynthesisConfig {
    match workload {
        Workload::CorpusService => workloads::corpus_config(),
        _ => workloads::paper_config(),
    }
}

/// Sets the workload up again and again, a burst of at least
/// [`SETUP_BURST`] every [`SETUP_PERIOD`], until `stop` is raised; returns
/// the seconds of every set-up. Runs on its own thread beside the passes,
/// which it leaves one core of the two.
fn sample_setup(args: Args, stop: &AtomicBool) -> Vec<f64> {
    let mut times = Vec::new();
    loop {
        let burst = Instant::now();
        while times.is_empty() || burst.elapsed() < SETUP_BURST {
            let start = Instant::now();
            std::hint::black_box(workloads::setup(args.workload, args.seed));
            times.push(start.elapsed().as_secs_f64());
        }
        if stop.load(Ordering::Relaxed) {
            return times;
        }
        std::thread::park_timeout(SETUP_PERIOD.saturating_sub(burst.elapsed()));
    }
}

/// One untraced pass over the workload's requests.
fn untraced_pass(
    inputs: &Inputs,
    workload: Workload,
    config: &advbist::core::SynthesisConfig,
    errors: &mut Vec<String>,
) -> Vec<Row> {
    match (inputs, workload) {
        (Inputs::Paper(circuits), Workload::PaperChained) => {
            workloads::paper_chained(circuits, config, errors)
        }
        (Inputs::Paper(circuits), _) => workloads::paper_rebuild(circuits, config, errors),
        (Inputs::Corpus(corpus), _) => workloads::corpus_service(corpus, config, None, errors).rows,
    }
}

/// Stops the set-up sampler when dropped, so that a panicking pass does not
/// leave the run waiting for it.
struct StopSampler<'a> {
    stop: &'a AtomicBool,
    thread: std::thread::Thread,
}

impl Drop for StopSampler<'_> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.unpark();
    }
}

fn untraced_run(args: Args) -> Outcome {
    let config = config_for(args.workload);
    let inputs = workloads::setup(args.workload, args.seed);
    let mut errors = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let mut walls = Vec::new();
    let mut passes: Vec<Vec<Row>> = Vec::new();
    let stop = AtomicBool::new(false);
    let setup_times = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| sample_setup(args, &stop));
        let stopper = StopSampler {
            stop: &stop,
            thread: sampler.thread().clone(),
        };
        let start = Instant::now();
        while passes.is_empty() || start.elapsed() < budget {
            let pass_start = Instant::now();
            let rows = untraced_pass(&inputs, args.workload, &config, &mut errors);
            walls.push(pass_start.elapsed().as_secs_f64());
            passes.push(rows);
        }
        drop(stopper);
        sampler.join().expect("set-up sampler panicked")
    });
    let first = &passes[0];
    if matches!(inputs, Inputs::Paper(_)) {
        workloads::check_known_areas(first, &mut errors);
    }
    for (n, pass) in passes.iter().enumerate().skip(1) {
        for (row, again) in pass.iter().zip(first) {
            if row.answer != again.answer {
                errors.push(format!(
                    "pass {n}: {} answered {:?}, first pass {:?}",
                    row.label, row.answer, again.answer
                ));
            }
        }
    }
    print_rows(first);

    let mut metrics = BTreeMap::new();
    let all_rows: Vec<Row> = passes.iter().flatten().cloned().collect();
    latency_metrics(&all_rows, &mut metrics);
    metrics.insert("setup_s", stats::median(&setup_times));
    metrics.insert("wall_s", stats::median(&walls));
    metrics.insert("area_total", workloads::area_total(first) as f64);
    metrics.insert("proven_optimal", workloads::proven_optimal(first) as f64);
    metrics.insert("peak_rss_mb", peak_rss_mb(&mut errors));
    Outcome {
        attempted: passes.iter().map(|p| p.len() as u64).sum(),
        failed: passes.iter().map(|p| workloads::failed(p)).sum(),
        errors,
        metrics,
    }
}

fn traced_run(args: Args) -> Outcome {
    let config = config_for(args.workload);
    let inputs = workloads::setup(args.workload, args.seed);
    let mut errors = Vec::new();
    let start = Instant::now();
    let untraced = untraced_pass(&inputs, args.workload, &config, &mut errors);
    let untraced_wall = start.elapsed().as_secs_f64();
    if matches!(inputs, Inputs::Paper(_)) {
        workloads::check_known_areas(&untraced, &mut errors);
    }

    let mut tracer = Tracer::new();
    let inputs = tracer.span("dfg.build", None, || {
        workloads::setup(args.workload, args.seed)
    });
    let mut counters = Counters::default();
    let start = Instant::now();
    let mut service_traced = None;
    match (&inputs, args.workload) {
        (Inputs::Paper(circuits), workload) => {
            let rows = if workload == Workload::PaperChained {
                workloads::paper_chained_traced(&mut tracer, &mut counters, circuits, &config)
            } else {
                workloads::paper_rebuild_traced(&mut tracer, &mut counters, circuits, &config)
            };
            for (traced, row) in rows.iter().zip(&untraced) {
                workloads::check_same(traced, row, &mut errors);
            }
        }
        (Inputs::Corpus(corpus), _) => {
            let pass = workloads::corpus_service(corpus, &config, Some(&mut tracer), &mut errors);
            for (traced, row) in pass.rows.iter().zip(&untraced) {
                workloads::check_same(traced, row, &mut errors);
            }
            service_traced = Some(pass);
        }
    }
    let mut traced_wall = start.elapsed().as_secs_f64();
    if let (Inputs::Corpus(corpus), Some(pass)) = (&inputs, &service_traced) {
        let rows = workloads::corpus_traced(&mut tracer, &mut counters, corpus, pass, &config);
        for (&position, traced) in &rows {
            workloads::check_same(traced, &pass.rows[position], &mut errors);
        }
    }
    let self_times = trace::self_time_by_name(tracer.spans());
    let probe_s = self_times.get("probe.kernel").copied().unwrap_or(0.0);
    if service_traced.is_none() {
        // The kernel probe is extra work of the traced pass, not overhead.
        traced_wall -= probe_s;
    }
    write_trace(args, &tracer);

    let mut metrics = layer_metrics(&tracer, &counters, service_traced.as_ref());
    if service_traced.is_none() {
        let probed = service_probe(&mut errors);
        for (name, value) in probed {
            if PROBED_LAYERS.iter().any(|layer| name.starts_with(layer)) {
                metrics.insert(name, value);
            }
        }
    }
    latency_metrics(&untraced, &mut metrics);
    metrics.insert("trace.overhead_s", traced_wall - untraced_wall);
    metrics.insert(
        "trace.overhead_frac",
        stats::ratio(traced_wall - untraced_wall, untraced_wall),
    );
    eprintln!(
        "untraced pass {untraced_wall:.3} s, traced pass {traced_wall:.3} s (kernel probe {probe_s:.3} s excluded)"
    );
    Outcome {
        attempted: untraced.len() as u64,
        failed: workloads::failed(&untraced),
        errors,
        metrics,
    }
}

/// Metric prefixes of the layers the paper requests never reach; on the
/// paper workloads [`service_probe`] measures them.
const PROBED_LAYERS: [&str; 3] = ["service.", "ilp.snapshot.", "rtl."];

/// Sends [`corpus::service_probe`] through the job service and the rebuilt
/// pipeline, as the corpus workload sends its requests, and returns the
/// per-layer metrics of that probe alone. It runs after the traced paper
/// pass, so neither its time nor its counts enter the paper pass's metrics.
fn service_probe(errors: &mut Vec<String>) -> BTreeMap<&'static str, f64> {
    let probe = corpus::service_probe();
    let config = workloads::corpus_config();
    let mut tracer = Tracer::new();
    let mut counters = Counters::default();
    let pass = workloads::corpus_service(&probe, &config, Some(&mut tracer), errors);
    let rows = workloads::corpus_traced(&mut tracer, &mut counters, &probe, &pass, &config);
    for (&position, traced) in &rows {
        workloads::check_same(traced, &pass.rows[position], errors);
    }
    layer_metrics(&tracer, &counters, Some(&pass))
}

/// Per-request latency percentiles of untraced rows, with the sample count
/// and the highest percentile that has enough samples beyond it.
fn latency_metrics(rows: &[Row], metrics: &mut BTreeMap<&'static str, f64>) {
    let ms: Vec<f64> = rows.iter().map(|r| r.latency_s * 1e3).collect();
    let p50 = stats::percentile(&ms, 0.5).unwrap_or(0.0);
    let p90 = stats::percentile(&ms, 0.9).unwrap_or(0.0);
    let tail = stats::highest_supported_tail(ms.len(), &[0.5, 0.9, 0.99]);
    eprintln!(
        "latency over {} requests: p50 {p50:.3} ms, p90 {p90:.3} ms; highest percentile with {} samples beyond it: {}",
        ms.len(),
        stats::TAIL_MIN_BEYOND,
        tail.map_or("none".to_string(), |q| format!("p{}", q * 100.0)),
    );
    metrics.insert("latency_ms.p50", p50);
    metrics.insert("latency_ms.p90", p90);
    metrics.insert("latency.samples", ms.len() as f64);
}

/// Per-layer metrics from the spans and counters of a traced pass.
fn layer_metrics(
    tracer: &Tracer,
    c: &Counters,
    service: Option<&workloads::ServicePass>,
) -> BTreeMap<&'static str, f64> {
    let spans = tracer.spans();
    let self_times = trace::self_time_by_name(spans);
    let ms = |matches: &dyn Fn(&str) -> bool| -> f64 {
        self_times
            .iter()
            .filter(|(name, _)| matches(name))
            .fold(0.0, |total, (_, s)| total + s * 1e3)
    };
    let exact = |name: &'static str| ms(&|n| n == name);
    let under = |prefix: &'static str| ms(&|n| n.starts_with(prefix));
    // Time of the rebuilt pipeline itself: the request trees minus the probe.
    let pipeline_ms: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none() && matches!(s.name, "circuit" | "request"))
        .map(|s| (s.end - s.start) * 1e3)
        .sum::<f64>()
        - exact("probe.kernel");
    let requests = c.requests as f64;
    let incumbents = |source: &str| c.incumbents.get(source).copied().unwrap_or(0) as f64;
    let known_sources = ["warm-start", "node-lp", "dive", "pump", "rins"];
    let other_incumbents: u64 = c
        .incumbents
        .iter()
        .filter(|(source, _)| !known_sources.contains(source))
        .map(|(_, n)| n)
        .sum();

    let mut m = BTreeMap::new();
    m.insert("dfg.build_ms", exact("dfg.build"));
    m.insert("core.formulation_ms", under("core.formulation."));
    m.insert(
        "core.model_vars",
        stats::ratio(c.model_vars as f64, requests),
    );
    m.insert(
        "core.model_rows",
        stats::ratio(c.model_rows as f64, requests),
    );
    m.insert("core.model_nnz", stats::ratio(c.model_nnz as f64, requests));
    m.insert("ilp.reduce_ms", under("ilp.reduce."));
    m.insert(
        "ilp.reduce.vars_removed_frac",
        stats::ratio(c.reduce_vars_removed as f64, c.reduce_original_vars as f64),
    );
    m.insert(
        "ilp.reduce.rows_removed_frac",
        stats::ratio(c.reduce_rows_removed as f64, c.reduce_original_rows as f64),
    );
    m.insert("ilp.solve_ms", exact("ilp.solve"));
    m.insert(
        "ilp.solve_frac",
        stats::ratio(exact("ilp.solve"), pipeline_ms),
    );
    m.insert("ilp.root_ms", c.root_s * 1e3);
    m.insert("ilp.tree_ms", c.tree_s * 1e3);
    m.insert("ilp.nodes", c.nodes as f64);
    m.insert("ilp.nodes_per_s", stats::ratio(c.nodes as f64, c.solve_s));
    m.insert("ilp.lp_solves", c.lp_solves as f64);
    m.insert(
        "ilp.warm_lp_frac",
        stats::ratio(c.warm_lp_solves as f64, c.lp_solves as f64),
    );
    m.insert("ilp.strong_branch_solves", c.strong_branch_solves as f64);
    m.insert("ilp.propagations", c.propagations as f64);
    m.insert("ilp.rc_fixed_bounds", c.rc_fixed_bounds as f64);
    m.insert("ilp.time_to_best_s", c.time_to_best_s);
    m.insert("ilp.gap_mean", stats::ratio(c.gap_sum, c.gap_count as f64));
    m.insert("ilp.pivots.primal", c.primal_pivots as f64);
    m.insert("ilp.pivots.dual", c.dual_pivots as f64);
    m.insert("ilp.bound_flips", c.bound_flips as f64);
    m.insert(
        "ilp.bland_frac",
        stats::ratio(c.bland_pivots as f64, c.pivots as f64),
    );
    m.insert("ilp.refactorizations", c.refactorizations as f64);
    m.insert(
        "ilp.us_per_pivot",
        stats::ratio(c.solve_s * 1e6, c.pivots as f64),
    );
    m.insert(
        "ilp.simplex.cold_us_per_pivot",
        stats::ratio(c.probe_cold_s * 1e6, c.probe_cold_pivots as f64),
    );
    m.insert(
        "ilp.simplex.warm_us_per_pivot",
        stats::ratio(c.probe_warm_s * 1e6, c.probe_warm_pivots as f64),
    );
    m.insert("ilp.cuts.emitted.gomory", c.cuts_emitted.gomory as f64);
    m.insert("ilp.cuts.emitted.nogood", c.cuts_emitted.nogood as f64);
    m.insert("ilp.cuts.emitted.cover", c.cuts_emitted.cover as f64);
    m.insert("ilp.cuts.emitted.clique", c.cuts_emitted.clique as f64);
    m.insert(
        "ilp.cuts.emitted.lifted_cover",
        c.cuts_emitted.lifted_cover as f64,
    );
    m.insert(
        "ilp.cuts.active_frac",
        stats::ratio(c.cuts_active.total() as f64, c.cuts_emitted.total() as f64),
    );
    m.insert("ilp.cuts.root_rounds", c.cut_root_rounds as f64);
    m.insert("ilp.cuts.tree_rounds", c.cut_tree_rounds as f64);
    m.insert("ilp.incumbents.warm", incumbents("warm-start"));
    m.insert("ilp.incumbents.node-lp", incumbents("node-lp"));
    m.insert("ilp.incumbents.dive", incumbents("dive"));
    m.insert("ilp.incumbents.pump", incumbents("pump"));
    m.insert("ilp.incumbents.rins", incumbents("rins"));
    m.insert("ilp.incumbents.other", other_incumbents as f64);
    m.insert("core.extract_ms", exact("core.extract"));
    m.insert("datapath.validate_ms", exact("datapath.validate"));
    m.insert("rtl.emit_ms", exact("rtl.emit"));
    m.insert("rtl.verilog_ms", exact("rtl.verilog"));
    m.insert("rtl.sim_ms", exact("rtl.sim"));
    m.insert("rtl.cells", c.rtl_cells as f64);
    m.insert(
        "rtl.min_distinct_patterns",
        c.rtl_min_distinct_patterns.unwrap_or(0) as f64,
    );
    m.insert("ilp.snapshot.bytes", c.snapshot_bytes as f64);
    m.insert("ilp.snapshot.roundtrip_ms", exact("ilp.snapshot.roundtrip"));

    let job_ms = |class: CacheClass| -> f64 {
        let Some(pass) = service else { return 0.0 };
        let times: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "service.job")
            .filter(|s| s.request.is_some_and(|r| pass.classes[r] == class))
            .map(|s| (s.end - s.start) * 1e3)
            .collect();
        stats::median(&times)
    };
    m.insert("service.job_ms.hit", job_ms(CacheClass::Hit));
    m.insert("service.job_ms.miss", job_ms(CacheClass::Miss));
    m.insert("service.job_ms.resume", job_ms(CacheClass::Resume));
    let cache = service.map(|p| p.cache).unwrap_or_default();
    m.insert(
        "service.hit_rate",
        stats::ratio(cache.hits as f64, (cache.hits + cache.misses) as f64),
    );
    m.insert("service.evictions", cache.evictions as f64);
    m.insert("service.cache_bytes", cache.bytes as f64);
    m.insert(
        "service.snapshots_captured",
        service.map_or(0, |p| p.snapshots_captured) as f64,
    );
    m
}

/// Prints the per-request answers of a pass to standard error.
fn print_rows(rows: &[Row]) {
    for row in rows {
        eprintln!(
            "{:<48} {:>10.3} ms  {:?}",
            row.label,
            row.latency_s * 1e3,
            row.answer
        );
    }
}

/// Peak resident set size of this process, from `VmHWM`.
fn peak_rss_mb(errors: &mut Vec<String>) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        });
    match kb {
        Some(kb) => kb / 1024.0,
        None => {
            errors.push("VmHWM is not available in /proc/self/status".to_string());
            0.0
        }
    }
}

/// Writes the spans of a traced run under `pipebench/traces/`.
fn write_trace(args: Args, tracer: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("traces");
    let path = dir.join(format!("{}-seed{}.json", args.workload.name(), args.seed));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.to_json()));
    match written {
        Ok(()) => eprintln!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_command_line() {
        let parsed = args(&[
            "--workload",
            "corpus-service",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(parsed.workload, Workload::CorpusService);
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (3, 10, true));
        assert!(args(&[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "paper-chained",
            "--seed",
            "1",
            "--seconds",
            "1"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "paper-chained",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }
}
