//! Repeated-submission benchmark for the `advbist::service` front door and
//! its fingerprint-keyed [`SolveCache`].
//!
//! Three phases, all under deterministic node budgets so the artifact
//! (`BENCH_service.json`) is comparable across machines:
//!
//! 1. **Cold batch** — one node-budgeted sweep job per circuit on a fresh
//!    shared cache: every probe misses, every solve runs.
//! 2. **Warm resubmission** — the same circuits resubmitted with *jittered*
//!    k-ranges (staggered sub-ranges of the sweep, as an interactive client
//!    exploring a design space would issue them) against the same cache:
//!    every row replays from the cache, so the warm wall-clock must land
//!    below the cold batch's.
//! 3. **Interrupt → resume** — `tseng` k=1 is solved cold once to find its
//!    tree size N, interrupted at N/2 with snapshot capture on, and then
//!    resubmitted under an open budget: the service finds the snapshot and
//!    *continues* the tree. The resumed job's total node count must be
//!    strictly below interrupt + cold-restart (N/2 + N) — i.e. resuming
//!    must beat throwing the frontier away — and its objective must be
//!    bit-identical to the cold solve's ("the cache changes performance,
//!    never results"). The interrupted solve's snapshot must also serialize
//!    within [`SNAPSHOT_BYTES_BUDGET`].

use std::sync::Arc;
use std::time::Instant;

use advbist::core::engine::SynthesisEngine;
use advbist::service::{JobService, SolveCache, SynthesisJob};
use advbist::Budget;
use bist_dfg::SynthesisInput;

use crate::report::json;
use crate::workload::sweep_config;

/// Budget on the JSON size of the interrupt-at-N/2 tseng k=1 snapshot. It
/// carries one basis header per distinct parent basis of the open
/// frontier, about 63 KB in all; when snapshots serialized the eta files
/// of cached bases, this one took 1.15 MB.
pub const SNAPSHOT_BYTES_BUDGET: u64 = 100_000;

/// Aggregate of one service batch (cold or warm phase).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseStats {
    /// Jobs submitted.
    pub jobs: u64,
    /// Rows reported across the batch.
    pub rows: u64,
    /// Cache hits across the batch.
    pub hits: u64,
    /// Cache misses across the batch.
    pub misses: u64,
    /// Wall-clock seconds of `JobService::run`.
    pub seconds: f64,
}

impl PhaseStats {
    fn to_json(self) -> String {
        json::Obj::new()
            .u64("jobs", self.jobs)
            .u64("rows", self.rows)
            .u64("hits", self.hits)
            .u64("misses", self.misses)
            .f64("seconds", self.seconds)
            .finish()
    }
}

/// The interrupt-at-N/2 resume comparison on one circuit.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumeStats {
    /// Circuit of the comparison.
    pub circuit: String,
    /// k-test session solved.
    pub sessions: usize,
    /// Node count of the uninterrupted cold solve (its tree size N).
    pub cold_nodes: u64,
    /// Nodes explored before the interrupt (N/2).
    pub interrupt_nodes: u64,
    /// Whether the interrupted job reported a captured snapshot.
    pub snapshot_captured: bool,
    /// JSON size of the interrupted solve's snapshot.
    pub snapshot_bytes: u64,
    /// Total node count of the resumed job (continues the interrupted
    /// count, so this is the whole tree as the resumed search saw it).
    pub resumed_total_nodes: u64,
    /// What a cold restart after the interrupt would cost in total:
    /// `interrupt_nodes + cold_nodes`.
    pub cold_restart_total_nodes: u64,
    /// Whether the resumed objective is bit-identical to the cold solve's.
    pub objective_matches: bool,
    /// Wall-clock seconds of the cold solve job.
    pub cold_seconds: f64,
    /// Wall-clock seconds of the resumed job.
    pub resumed_seconds: f64,
}

impl ResumeStats {
    fn to_json(&self) -> String {
        json::Obj::new()
            .str("circuit", &self.circuit)
            .u64("sessions", self.sessions as u64)
            .u64("cold_nodes", self.cold_nodes)
            .u64("interrupt_nodes", self.interrupt_nodes)
            .bool("snapshot_captured", self.snapshot_captured)
            .u64("snapshot_bytes", self.snapshot_bytes)
            .u64("resumed_total_nodes", self.resumed_total_nodes)
            .u64("cold_restart_total_nodes", self.cold_restart_total_nodes)
            .bool("objective_matches", self.objective_matches)
            .f64("cold_seconds", self.cold_seconds)
            .f64("resumed_seconds", self.resumed_seconds)
            .finish()
    }
}

/// The whole service benchmark: both batch phases, the resume comparison
/// and the final cache counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceBench {
    /// Per-solve node budget of the batch phases.
    pub node_limit: u64,
    /// Cold batch (fresh cache).
    pub cold: PhaseStats,
    /// Warm jittered resubmission (same cache).
    pub warm: PhaseStats,
    /// Interrupt-at-N/2 resume comparison.
    pub resume: ResumeStats,
    /// Final counters of the shared batch cache.
    pub cache_hits: u64,
    /// Final miss counter of the shared batch cache.
    pub cache_misses: u64,
    /// Final eviction counter of the shared batch cache.
    pub cache_evictions: u64,
    /// Approximate bytes held by the shared batch cache at the end.
    pub cache_bytes: u64,
}

impl ServiceBench {
    /// Serialises the whole benchmark as a JSON object.
    pub fn to_json(&self) -> String {
        json::Obj::new()
            .u64("node_limit", self.node_limit)
            .raw("cold", self.cold.to_json())
            .raw("warm", self.warm.to_json())
            .raw("resume", self.resume.to_json())
            .u64("cache_hits", self.cache_hits)
            .u64("cache_misses", self.cache_misses)
            .u64("cache_evictions", self.cache_evictions)
            .u64("cache_bytes", self.cache_bytes)
            .finish()
    }

    /// The CI gates: empty when the cache and the resume path hold their
    /// contract, one human-readable violation per broken gate otherwise.
    pub fn violations(&self) -> Vec<String> {
        let mut violations = Vec::new();
        if self.warm.hits == 0 {
            violations.push("warm resubmission produced no cache hits".to_string());
        }
        if self.warm.misses != 0 {
            violations.push(format!(
                "warm resubmission missed the cache {} times (expected 0)",
                self.warm.misses
            ));
        }
        if self.warm.seconds >= self.cold.seconds {
            violations.push(format!(
                "warm resubmission took {:.4}s, not below the cold batch's {:.4}s",
                self.warm.seconds, self.cold.seconds
            ));
        }
        if !self.resume.snapshot_captured {
            violations.push("interrupted job captured no snapshot".to_string());
        }
        if self.resume.snapshot_bytes > SNAPSHOT_BYTES_BUDGET {
            violations.push(format!(
                "interrupted snapshot serializes to {} bytes, over the {SNAPSHOT_BYTES_BUDGET} budget",
                self.resume.snapshot_bytes
            ));
        }
        if self.resume.resumed_total_nodes >= self.resume.cold_restart_total_nodes {
            violations.push(format!(
                "resume explored {} total nodes, not strictly below the {} of \
                 interrupt + cold restart",
                self.resume.resumed_total_nodes, self.resume.cold_restart_total_nodes
            ));
        }
        if !self.resume.objective_matches {
            violations.push("resumed objective diverged from the cold solve".to_string());
        }
        violations
    }
}

fn phase_stats(reports: &[advbist::service::JobReport], seconds: f64) -> PhaseStats {
    PhaseStats {
        jobs: reports.len() as u64,
        rows: reports.iter().map(|r| r.rows.len() as u64).sum(),
        hits: reports.iter().map(|r| r.cache_hits).sum(),
        misses: reports.iter().map(|r| r.cache_misses).sum(),
        seconds,
    }
}

fn completed(reports: &[advbist::service::JobReport], phase: &str) -> Result<(), String> {
    for report in reports {
        if !report.outcome.is_completed() {
            return Err(format!(
                "{phase}: job {} did not complete: {:?}",
                report.name, report.outcome
            ));
        }
    }
    Ok(())
}

/// Runs the benchmark: batch phases over `circuits`, resume comparison on
/// `resume_circuit`. The node limit budgets each batch solve; the resume
/// comparison derives its own interrupt point from the cold tree size.
///
/// # Errors
///
/// Returns a human-readable description of the first failed job.
pub fn run(
    circuits: &[(&str, SynthesisInput)],
    node_limit: u64,
    resume_circuit: (&str, SynthesisInput),
) -> Result<ServiceBench, String> {
    let cache = Arc::new(SolveCache::new(SolveCache::DEFAULT_CAPACITY_MB));

    // Phase 1: cold batch — full sweeps, fresh cache.
    let mut service = JobService::new().with_cache(cache.clone());
    for (name, input) in circuits {
        service.submit(
            SynthesisJob::new(format!("cold-{name}"), input.clone())
                .with_config(sweep_config(node_limit)),
        );
    }
    let started = Instant::now();
    let cold_reports = service.run();
    let cold = phase_stats(&cold_reports, started.elapsed().as_secs_f64());
    completed(&cold_reports, "cold batch")?;

    // Phase 2: warm resubmission with jittered k-ranges — staggered
    // sub-ranges of the sweep (start alternates 1/2 by submission index),
    // every k of which phase 1 already solved under the same budget.
    let mut service = JobService::new().with_cache(cache.clone());
    let mut expected_rows = 0u64;
    for (index, (name, input)) in circuits.iter().enumerate() {
        let n = input.binding().num_modules();
        let start = 1 + (index % 2).min(n - 1);
        expected_rows += (n - start + 1) as u64;
        service.submit(
            SynthesisJob::new(format!("warm-{name}"), input.clone())
                .with_config(sweep_config(node_limit))
                .with_sessions(start..=n),
        );
    }
    let started = Instant::now();
    let warm_reports = service.run();
    let warm = phase_stats(&warm_reports, started.elapsed().as_secs_f64());
    completed(&warm_reports, "warm resubmission")?;
    if warm.rows != expected_rows {
        return Err(format!(
            "warm resubmission reported {} rows, expected {expected_rows}",
            warm.rows
        ));
    }

    // Phase 3: interrupt at N/2, then resume through the snapshot cache.
    let (resume_name, resume_input) = resume_circuit;
    let exact = advbist::core::SynthesisConfig::exact();
    let resume_cache = Arc::new(SolveCache::new(SolveCache::DEFAULT_CAPACITY_MB));

    let mut service = JobService::new().with_cache(resume_cache.clone());
    service.submit(
        SynthesisJob::new(format!("{resume_name}-cold"), resume_input.clone())
            .with_config(exact.clone())
            .with_sessions(1..=1)
            .with_budget(Budget::unlimited().with_cache_mb(0)),
    );
    let cold_solo = service.run();
    completed(&cold_solo, "resume baseline")?;
    let cold_row = &cold_solo[0].rows[0];
    let cold_nodes = cold_row.nodes;
    let interrupt_nodes = (cold_nodes / 2).max(1);

    let mut service = JobService::new().with_cache(resume_cache.clone());
    service.submit(
        SynthesisJob::new(format!("{resume_name}-interrupt"), resume_input.clone())
            .with_config(exact.clone())
            .with_sessions(1..=1)
            .with_budget(Budget::nodes(interrupt_nodes).with_snapshot(true)),
    );
    let interrupted = service.run();
    completed(&interrupted, "interrupted solve")?;
    // The job keeps its snapshot in the cache; the same solve through the
    // engine hands it over for measuring.
    let mut interrupt_config = exact.clone();
    interrupt_config.solver.budget = Budget::nodes(interrupt_nodes);
    interrupt_config.solver.snapshot = true;
    let snapshot_bytes = SynthesisEngine::new(&resume_input, &interrupt_config)
        .and_then(|engine| engine.synthesize_resumable(1, None, None))
        .map_err(|e| format!("interrupted solve: {e}"))?
        .design
        .snapshot
        .ok_or("interrupted solve captured no snapshot")?
        .to_json()
        .map_err(|e| e.to_string())?
        .len() as u64;

    let mut service = JobService::new().with_cache(resume_cache.clone());
    service.submit(
        SynthesisJob::new(format!("{resume_name}-resume"), resume_input.clone())
            .with_config(exact.clone())
            .with_sessions(1..=1),
    );
    let resumed = service.run();
    completed(&resumed, "resumed solve")?;
    let resumed_row = &resumed[0].rows[0];
    if resumed[0].cache_hits == 0 {
        return Err("resumed job did not hit the snapshot cache".to_string());
    }

    let resume = ResumeStats {
        circuit: resume_name.to_string(),
        sessions: 1,
        cold_nodes,
        interrupt_nodes,
        snapshot_captured: interrupted[0].snapshot_captured,
        snapshot_bytes,
        resumed_total_nodes: resumed_row.nodes,
        cold_restart_total_nodes: interrupt_nodes + cold_nodes,
        objective_matches: resumed_row.objective.to_bits() == cold_row.objective.to_bits(),
        cold_seconds: cold_solo[0].seconds,
        resumed_seconds: resumed[0].seconds,
    };

    let stats = cache.stats();
    Ok(ServiceBench {
        node_limit,
        cold,
        warm,
        resume,
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        cache_evictions: stats.evictions,
        cache_bytes: stats.bytes,
    })
}

/// Renders the benchmark as an aligned text table.
pub fn render(bench: &ServiceBench) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "service cache: {} nodes/solve budget\n",
        bench.node_limit
    ));
    out.push_str(&format!(
        "  cold batch:  {:>3} jobs {:>3} rows  {:>4} hits {:>4} misses  {:>8.3}s\n",
        bench.cold.jobs, bench.cold.rows, bench.cold.hits, bench.cold.misses, bench.cold.seconds
    ));
    out.push_str(&format!(
        "  warm batch:  {:>3} jobs {:>3} rows  {:>4} hits {:>4} misses  {:>8.3}s\n",
        bench.warm.jobs, bench.warm.rows, bench.warm.hits, bench.warm.misses, bench.warm.seconds
    ));
    let r = &bench.resume;
    out.push_str(&format!(
        "  resume {} k={}: cold {} nodes | interrupt {} | resumed total {} \
         (cold restart would be {}) | objective match: {} | snapshot {} bytes\n",
        r.circuit,
        r.sessions,
        r.cold_nodes,
        r.interrupt_nodes,
        r.resumed_total_nodes,
        r.cold_restart_total_nodes,
        r.objective_matches,
        r.snapshot_bytes
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bist_dfg::benchmarks;

    #[test]
    fn figure1_service_bench_passes_its_own_gates() {
        let circuits = [("figure1", benchmarks::figure1())];
        let bench = run(&circuits, 400, ("figure1", benchmarks::figure1())).unwrap();
        assert_eq!(bench.violations(), Vec::<String>::new());
        assert_eq!(bench.warm.misses, 0);
        assert!(bench.warm.hits > 0);
        assert!(bench.resume.resumed_total_nodes < bench.resume.cold_restart_total_nodes);
        let json = bench.to_json();
        assert!(json.contains("\"resume\""));
        assert!(json.contains("\"cold\""));
    }
}
