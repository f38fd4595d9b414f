//! The pipeline rebuilt from each crate's public functions, with a span
//! around every call: formulation, reduce, solve, extraction and
//! validation, RTL, snapshot round trip, plus a kernel probe of the root
//! relaxation through the public `simplex` functions.
//!
//! Each step mirrors what `SynthesisEngine` and `synthesis::synthesize_bist`
//! do internally, so a traced request must reproduce the untraced answer
//! exactly; the caller checks that it does.

use std::sync::Arc;
use std::time::Instant;

use advbist::core::formulation::BistFormulation;
use advbist::core::{extract, CoreError, SynthesisConfig};
use advbist::datapath::validate::validate_design;
use advbist::dfg::allocate::RegisterAssignment;
use advbist::dfg::{LifetimeTable, SynthesisInput};
use advbist::ilp::propagate::Domains;
use advbist::ilp::reduce::{self, ReduceOptions, ReducedModel};
use advbist::ilp::{
    simplex, LpStatus, Model, Sense, SolveEvent, SolveSnapshot, SolveStats, SparseModel, Status,
};
use advbist::rtl;

use crate::trace::Tracer;

/// Pivot cap of the kernel probe's LP solves.
const PROBE_MAX_PIVOTS: u64 = 1_000_000;

/// Layer counters summed over the traced requests.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub requests: u64,
    pub model_vars: u64,
    pub model_rows: u64,
    pub model_nnz: u64,
    pub reduce_original_vars: u64,
    pub reduce_vars_removed: u64,
    pub reduce_original_rows: u64,
    pub reduce_rows_removed: u64,
    pub solve_s: f64,
    pub root_s: f64,
    pub tree_s: f64,
    pub nodes: u64,
    pub lp_solves: u64,
    pub warm_lp_solves: u64,
    pub strong_branch_solves: u64,
    pub propagations: u64,
    pub rc_fixed_bounds: u64,
    pub time_to_best_s: f64,
    pub gap_sum: f64,
    pub gap_count: u64,
    pub pivots: u64,
    pub primal_pivots: u64,
    pub dual_pivots: u64,
    pub bound_flips: u64,
    pub bland_pivots: u64,
    pub refactorizations: u64,
    pub probe_cold_s: f64,
    pub probe_cold_pivots: u64,
    pub probe_warm_s: f64,
    pub probe_warm_pivots: u64,
    pub cuts_emitted: advbist::ilp::CutCounts,
    pub cuts_active: advbist::ilp::CutCounts,
    pub cut_root_rounds: u64,
    pub cut_tree_rounds: u64,
    /// Final incumbents' improvement history, counted by source.
    pub incumbents: std::collections::BTreeMap<&'static str, u64>,
    pub rtl_cells: u64,
    /// Minimum distinct input patterns any module under test saw.
    pub rtl_min_distinct_patterns: Option<u64>,
    pub snapshot_bytes: u64,
}

/// How the warm-start candidates of a request are built.
#[derive(Debug, Clone, Copy)]
pub enum Warm<'s> {
    /// `synthesis::synthesize_bist`: the left-edge design as the single
    /// initial solution.
    Rebuild,
    /// `SynthesisEngine`: the left-edge design as a candidate, plus the
    /// k−1 incumbent's registers when chaining.
    Engine(Option<&'s RegisterAssignment>),
}

/// One traced request.
#[derive(Debug, Clone)]
pub struct Request<'s> {
    pub id: usize,
    pub k: usize,
    pub warm: Warm<'s>,
    /// Capture a resumable snapshot when the solve stops early.
    pub snapshots: bool,
    /// Continue this snapshotted tree instead of starting a fresh one.
    pub resume: Option<Arc<SolveSnapshot>>,
    /// Emit, print and simulate the netlist.
    pub rtl: bool,
}

/// A traced request's answer.
#[derive(Debug, Clone)]
pub enum Answer {
    Design(Box<Solved>),
    Infeasible,
    Failed(String),
}

/// A validated design with what the checks compare.
#[derive(Debug, Clone)]
pub struct Solved {
    pub objective: f64,
    pub area: u64,
    pub optimal: bool,
    pub stats: SolveStats,
    pub registers: RegisterAssignment,
    /// The snapshot after its JSON round trip, as the job service keeps it.
    pub snapshot: Option<Arc<SolveSnapshot>>,
}

/// The circuit-level base: register assignment, interconnect and mux
/// sizing, plus its reduced form.
pub fn base<'a>(
    tracer: &mut Tracer,
    request: Option<usize>,
    input: &'a SynthesisInput,
    config: &'a SynthesisConfig,
) -> Result<(BistFormulation<'a>, ReducedModel), CoreError> {
    let mut formulation = tracer.span("core.formulation.new", request, || {
        BistFormulation::new(input, config)
    })?;
    tracer.span("core.formulation.interconnect", request, || {
        formulation.add_interconnect()
    });
    tracer.span("core.formulation.mux", request, || {
        formulation.add_mux_sizing()
    });
    let reduced = tracer.span("ilp.reduce.prefix", request, || {
        let (rows, vars) = formulation.base_dims();
        reduce::reduce_prefix(&formulation.model, rows, vars, &ReduceOptions::base())
    });
    Ok((formulation, reduced))
}

/// Solves one request on `formulation` (a base from [`base`] or a clone of
/// one) and extracts, validates and optionally simulates its design.
pub fn solve(
    tracer: &mut Tracer,
    counters: &mut Counters,
    input: &SynthesisInput,
    config: &SynthesisConfig,
    mut formulation: BistFormulation<'_>,
    reduced_base: &ReducedModel,
    request: Request<'_>,
) -> Answer {
    match solve_inner(
        tracer,
        counters,
        input,
        config,
        &mut formulation,
        reduced_base,
        request,
    ) {
        Ok(answer) => answer,
        Err(e) => Answer::Failed(e.to_string()),
    }
}

fn solve_inner(
    tracer: &mut Tracer,
    counters: &mut Counters,
    input: &SynthesisInput,
    config: &SynthesisConfig,
    formulation: &mut BistFormulation<'_>,
    reduced_base: &ReducedModel,
    request: Request<'_>,
) -> Result<Answer, CoreError> {
    let id = Some(request.id);
    let k = request.k;
    counters.requests += 1;
    tracer.span("core.formulation.bist", id, || formulation.add_bist(k))?;
    tracer.span("core.formulation.objective", id, || {
        formulation.set_bist_objective()
    });

    let mut solver_config = config.solver.clone();
    if request.snapshots || solver_config.budget.snapshot == Some(true) {
        solver_config.snapshot = true;
    }
    solver_config.resume = request.resume;
    tracer.span("core.formulation.warm", id, || {
        if config.warm_start {
            let baseline = formulation.baseline_warm_values();
            match request.warm {
                Warm::Rebuild => solver_config.initial_solution = baseline,
                Warm::Engine(_) => solver_config.initial_solutions.extend(baseline),
            }
        }
        if let Warm::Engine(Some(previous)) = request.warm {
            if let Some(values) = formulation.warm_values_for_assignment(previous) {
                solver_config.initial_solutions.push(values);
                solver_config.eager_tree_cuts = true;
            }
        }
    });
    let model = &formulation.model;
    counters.model_vars += model.num_vars() as u64;
    counters.model_rows += model.num_constraints() as u64;
    counters.model_nnz += model
        .constraints()
        .iter()
        .map(|c| c.expr.len() as u64)
        .sum::<u64>();

    let extended = tracer.span("ilp.reduce.extend", id, || reduced_base.extend(model))?;
    let second = tracer.span("ilp.reduce.full", id, || {
        reduce::reduce(&extended.model, &ReduceOptions::full())
    });
    let full = tracer.span("ilp.reduce.compose", id, || extended.compose(second));
    counters.reduce_original_vars += full.original_vars() as u64;
    counters.reduce_vars_removed +=
        full.original_vars().saturating_sub(full.model.num_vars()) as u64;
    counters.reduce_original_rows += full.original_rows() as u64;
    counters.reduce_rows_removed += (full.report.redundant_rows
        + full.report.dominated_rows
        + full.report.disaggregated_rows) as u64;

    if !full.report.infeasible {
        tracer.span("probe.kernel", id, || probe_kernel(&full.model, counters));
    }

    let span = tracer.open("ilp.solve", id);
    let start = Instant::now();
    let mut first_node: Option<f64> = None;
    let (mut root_rounds, mut tree_rounds) = (0u64, 0u64);
    let mut observer = |event: &SolveEvent| match *event {
        SolveEvent::NodeMilestone { .. } if first_node.is_none() => {
            first_node = Some(start.elapsed().as_secs_f64());
        }
        SolveEvent::CutRound { nodes, .. } => {
            if nodes == 0 {
                root_rounds += 1;
            } else {
                tree_rounds += 1;
            }
        }
        _ => {}
    };
    let solution =
        reduce::solve_reduced_with_events(model, &full, &solver_config, Some(&mut observer));
    let solve_s = start.elapsed().as_secs_f64();
    tracer.close(span);
    let solution = solution?;
    let root_s = first_node.unwrap_or(solve_s);
    counters.solve_s += solve_s;
    counters.root_s += root_s;
    counters.tree_s += solve_s - root_s;
    counters.cut_root_rounds += root_rounds;
    counters.cut_tree_rounds += tree_rounds;
    add_stats(counters, solution.stats());

    let optimal = match solution.status() {
        Status::Optimal => true,
        Status::Feasible => false,
        Status::Interrupted if solution.is_feasible() => false,
        Status::Interrupted => return Err(CoreError::Interrupted),
        Status::Infeasible => return Ok(Answer::Infeasible),
        _ => return Err(CoreError::NoSolutionWithinLimits),
    };

    let (registers, datapath, plan) = tracer.span("core.extract", id, || {
        let registers = extract::register_assignment(formulation, &solution);
        let mut datapath = extract::datapath(formulation, &solution)?;
        let plan = extract::test_plan(formulation, &solution);
        plan.apply_register_kinds(&mut datapath);
        Ok::<_, CoreError>((registers, datapath, plan))
    })?;
    let area = tracer.span("datapath.validate", id, || {
        let lifetimes = LifetimeTable::with_timing(input, config.input_timing)?;
        validate_design(&datapath, &plan, input, &lifetimes)?;
        Ok::<_, CoreError>(datapath.area(&config.cost).total())
    })?;

    if request.rtl {
        let netlist = tracer.span("rtl.emit", id, || rtl::emit_bist_netlist(&datapath, &plan))?;
        counters.rtl_cells += (netlist.registers().len()
            + netlist.modules().len()
            + netlist.constants().len()
            + netlist.generators().len()
            + netlist.muxes().len()) as u64;
        let verilog = tracer.span("rtl.verilog", id, || rtl::to_verilog(&netlist));
        std::hint::black_box(verilog);
        let report = tracer.span("rtl.sim", id, || {
            rtl::validate_simulated(&datapath, &plan, &rtl::SimConfig::default())
        })?;
        let fewest = report
            .sessions
            .iter()
            .flat_map(|s| s.coverage.iter().map(|c| c.distinct_patterns))
            .min();
        if let Some(fewest) = fewest {
            let current = counters.rtl_min_distinct_patterns.get_or_insert(fewest);
            *current = (*current).min(fewest);
        }
    }

    let snapshot = match solution.snapshot() {
        Some(snapshot) => {
            counters.snapshot_bytes += snapshot.approx_bytes() as u64;
            let reparsed = tracer.span("ilp.snapshot.roundtrip", id, || {
                snapshot
                    .to_json()
                    .and_then(|text| SolveSnapshot::from_json(&text))
            });
            match reparsed {
                Ok(reparsed) => Some(Arc::new(reparsed)),
                Err(e) => {
                    return Ok(Answer::Failed(format!(
                        "snapshot serialization failed for k={k}: {e}"
                    )))
                }
            }
        }
        None => None,
    };

    Ok(Answer::Design(Box::new(Solved {
        objective: solution.objective(),
        area,
        optimal,
        stats: solution.stats().clone(),
        registers,
        snapshot,
    })))
}

fn add_stats(counters: &mut Counters, stats: &SolveStats) {
    counters.nodes += stats.nodes;
    counters.lp_solves += stats.lp_solves;
    counters.warm_lp_solves += stats.warm_lp_solves;
    counters.strong_branch_solves += stats.strong_branch_solves;
    counters.propagations += stats.propagations;
    counters.rc_fixed_bounds += stats.rc_fixed_bounds;
    counters.time_to_best_s += stats.seconds_to_best().unwrap_or(0.0);
    if stats.gap.is_finite() {
        counters.gap_sum += stats.gap;
        counters.gap_count += 1;
    }
    counters.pivots += stats.lp_pivots;
    counters.primal_pivots += stats.lp_primal_pivots;
    counters.dual_pivots += stats.lp_dual_pivots;
    counters.bound_flips += stats.lp_bound_flips;
    counters.bland_pivots += stats.bland_pivots;
    counters.refactorizations += stats.lp_basis_refactorizations;
    for (total, add) in [
        (&mut counters.cuts_emitted, &stats.cuts_emitted),
        (&mut counters.cuts_active, &stats.cuts_active),
    ] {
        total.cover += add.cover;
        total.clique += add.clique;
        total.gomory += add.gomory;
        total.lifted_cover += add.lifted_cover;
        total.nogood += add.nogood;
    }
    for improvement in &stats.improvements {
        *counters.incumbents.entry(improvement.source).or_insert(0) += 1;
    }
}

/// Solves the root relaxation of `model` cold, then re-solves it warm from
/// the optimal basis after one bound change on each side of the first
/// fractional integer variable.
fn probe_kernel(model: &Model, counters: &mut Counters) {
    let matrix = SparseModel::from_model(model);
    let sense = match model.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let objective: Vec<f64> = model.vars().iter().map(|v| sense * v.objective).collect();
    let constant = sense * model.objective().offset();
    let domains = Domains::from_model(model);

    let start = Instant::now();
    let (lp, basis) =
        simplex::solve_lp_basis(&matrix, &objective, constant, &domains, PROBE_MAX_PIVOTS);
    counters.probe_cold_s += start.elapsed().as_secs_f64();
    counters.probe_cold_pivots += lp.pivots;
    let Some(basis) = basis.filter(|_| lp.status == LpStatus::Optimal) else {
        return;
    };
    let Some((j, value)) = lp
        .values
        .iter()
        .enumerate()
        .find(|&(j, v)| domains.is_integral(j) && (v - v.round()).abs() > 1e-6)
        .map(|(j, &v)| (j, v))
    else {
        return;
    };
    for up in [false, true] {
        let mut branch = domains.clone();
        if up {
            branch.tighten_lower(j, value.ceil());
        } else {
            branch.tighten_upper(j, value.floor());
        }
        let start = Instant::now();
        let resolved = simplex::resolve_with_basis(
            &matrix,
            &objective,
            constant,
            &basis,
            &branch,
            PROBE_MAX_PIVOTS,
        );
        counters.probe_warm_s += start.elapsed().as_secs_f64();
        if let Some((lp, _)) = resolved {
            counters.probe_warm_pivots += lp.pivots;
        }
    }
}
