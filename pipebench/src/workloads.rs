//! The three workloads: one untraced pass each through the public entry
//! points, and one traced pass each that rebuilds the requests from the
//! crates' public functions (see [`crate::pipeline`]).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use advbist::core::engine::SynthesisEngine;
use advbist::core::{synthesis, BistDesign, CoreError, SynthesisConfig};
use advbist::dfg::allocate::RegisterAssignment;
use advbist::dfg::{benchmarks, SynthesisInput};
use advbist::ilp::{BoundMode, Budget, CancelToken, SolveSnapshot, SolverConfig};
use advbist::service::{CacheStats, JobOutcome, JobReport, JobService, SolveCache, SynthesisJob};

use crate::corpus::{self, Corpus};
use crate::pipeline::{self, Answer, Counters, Request, Warm};
use crate::trace::Tracer;

/// Node budget of every paper-circuit solve (the canonical sweep budget).
pub const PAPER_NODES: u64 = 1000;

/// Areas of the designs the paper circuits have been proven to have.
const KNOWN_OPTIMAL_AREAS: &[(&str, usize, u64)] = &[
    ("figure1", 1, 1316),
    ("figure1", 2, 1136),
    ("tseng", 1, 2080),
    ("tseng", 2, 1936),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperChained,
    PaperRebuild,
    CorpusService,
}

impl Workload {
    const ALL: [Self; 3] = [Self::PaperChained, Self::PaperRebuild, Self::CorpusService];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Self::PaperChained => "paper-chained",
            Self::PaperRebuild => "paper-rebuild",
            Self::CorpusService => "corpus-service",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What a request was answered with; the fields the checks compare.
#[derive(Debug, Clone, PartialEq)]
pub enum Answered {
    Design {
        objective: f64,
        area: u64,
        optimal: bool,
        nodes: u64,
        /// Simplex pivots, when the entry point reports them.
        pivots: Option<u64>,
    },
    Infeasible,
    Failed(String),
}

/// One answered request.
#[derive(Debug, Clone)]
pub struct Row {
    pub label: String,
    pub answer: Answered,
    pub latency_s: f64,
}

/// What the rows of a pass add up to.
pub fn area_total(rows: &[Row]) -> u64 {
    rows.iter()
        .map(|r| match r.answer {
            Answered::Design { area, .. } => area,
            _ => 0,
        })
        .sum()
}

pub fn proven_optimal(rows: &[Row]) -> u64 {
    rows.iter()
        .filter(|r| matches!(r.answer, Answered::Design { optimal: true, .. }))
        .count() as u64
}

pub fn failed(rows: &[Row]) -> u64 {
    rows.iter()
        .filter(|r| matches!(r.answer, Answered::Failed(_)))
        .count() as u64
}

/// Inputs built during set-up.
pub enum Inputs {
    Paper(Vec<(&'static str, SynthesisInput)>),
    Corpus(Corpus),
}

/// Builds the inputs of `workload` from `seed` (the paper circuits take no
/// seed).
pub fn setup(workload: Workload, seed: u64) -> Inputs {
    match workload {
        Workload::PaperChained | Workload::PaperRebuild => Inputs::Paper(vec![
            ("figure1", benchmarks::figure1()),
            ("tseng", benchmarks::tseng()),
            ("paulin", benchmarks::paulin()),
        ]),
        Workload::CorpusService => Inputs::Corpus(corpus::generate(seed)),
    }
}

/// The canonical LP-bounded, node-limited configuration of the k-sweeps.
pub fn paper_config() -> SynthesisConfig {
    SynthesisConfig {
        solver: SolverConfig {
            budget: Budget::nodes(PAPER_NODES),
            bound_mode: BoundMode::LpRelaxation,
            ..SolverConfig::default()
        },
        ..SynthesisConfig::default()
    }
}

/// The corpus configuration: the paper configuration with simulated RTL
/// validation on; the job's budget replaces the node limit.
pub fn corpus_config() -> SynthesisConfig {
    SynthesisConfig {
        rtl_validation: true,
        ..paper_config()
    }
}

fn design_answer(
    design: &BistDesign,
    config: &SynthesisConfig,
    errors: &mut Vec<String>,
    label: &str,
) -> Answered {
    let recomputed = design.datapath.area(&config.cost).total();
    if recomputed != design.area.total() {
        errors.push(format!(
            "{label}: reported area {} but the datapath costs {recomputed}",
            design.area.total()
        ));
    }
    Answered::Design {
        objective: design.objective,
        area: design.area.total(),
        optimal: design.optimal,
        nodes: design.stats.nodes,
        pivots: Some(design.stats.lp_pivots),
    }
}

fn core_error_answer(error: &CoreError) -> Answered {
    match error {
        CoreError::Infeasible { .. } => Answered::Infeasible,
        e => Answered::Failed(e.to_string()),
    }
}

/// Checks proven-optimal paper rows against the known optimal areas.
pub fn check_known_areas(rows: &[Row], errors: &mut Vec<String>) {
    for &(circuit, k, area) in KNOWN_OPTIMAL_AREAS {
        let label = format!("{circuit} k={k}");
        let Some(row) = rows.iter().find(|r| r.label == label) else {
            continue;
        };
        if let Answered::Design {
            area: got,
            optimal: true,
            ..
        } = row.answer
        {
            if got != area {
                errors.push(format!(
                    "{label}: proven optimal at area {got}, known optimum {area}"
                ));
            }
        }
    }
}

/// One untraced pass over the paper circuits through
/// `SynthesisEngine::sweep_chained`.
pub fn paper_chained(
    circuits: &[(&'static str, SynthesisInput)],
    config: &SynthesisConfig,
    errors: &mut Vec<String>,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, input) in circuits {
        let sweep = SynthesisEngine::new(input, config).and_then(|engine| engine.sweep_chained());
        match sweep {
            Ok(outcomes) => {
                for outcome in outcomes {
                    let label = format!("{name} k={}", outcome.design.sessions);
                    let answer = design_answer(&outcome.design, config, errors, &label);
                    rows.push(Row {
                        label,
                        answer,
                        latency_s: outcome.seconds,
                    });
                }
            }
            Err(e) => {
                for k in 1..=input.binding().num_modules() {
                    rows.push(Row {
                        label: format!("{name} k={k}"),
                        answer: Answered::Failed(e.to_string()),
                        latency_s: 0.0,
                    });
                }
            }
        }
    }
    rows
}

/// One untraced pass over the paper circuits, each (circuit, k) answered
/// cold by `synthesis::synthesize_bist`.
pub fn paper_rebuild(
    circuits: &[(&'static str, SynthesisInput)],
    config: &SynthesisConfig,
    errors: &mut Vec<String>,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, input) in circuits {
        for k in 1..=input.binding().num_modules() {
            let label = format!("{name} k={k}");
            let start = Instant::now();
            let result = synthesis::synthesize_bist(input, k, config);
            let latency_s = start.elapsed().as_secs_f64();
            let answer = match &result {
                Ok(design) => design_answer(design, config, errors, &label),
                Err(e) => core_error_answer(e),
            };
            rows.push(Row {
                label,
                answer,
                latency_s,
            });
        }
    }
    rows
}

/// What the client sent at one stream position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sent {
    /// A job's first request.
    Fresh { job: usize },
    /// The fresh request at this stream position, sent again verbatim.
    Repeat { of: usize },
    /// The capped fresh request at this stream position, with the larger
    /// budget.
    Resend { of: usize },
}

/// Cache outcome of one service job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheClass {
    Hit,
    Miss,
    Resume,
}

/// One pass of the closed-loop client through the job service.
#[derive(Debug, Clone)]
pub struct ServicePass {
    pub rows: Vec<Row>,
    pub sent: Vec<Sent>,
    pub classes: Vec<CacheClass>,
    pub cache: CacheStats,
    pub snapshots_captured: u64,
}

impl ServicePass {
    /// The job behind the request at `position`.
    pub fn job(&self, position: usize) -> usize {
        match self.sent[position] {
            Sent::Fresh { job } => job,
            Sent::Repeat { of } | Sent::Resend { of } => self.job(of),
        }
    }
}

/// Sends the corpus through one closed-loop client: one request at a time,
/// one worker, one shared solve cache. A request that is due (a repeat or
/// re-send whose delay has run out) goes before the next fresh job. With a
/// tracer, a `service.job` span wraps each `JobService::run`.
pub fn corpus_service(
    corpus: &Corpus,
    config: &SynthesisConfig,
    mut tracer: Option<&mut Tracer>,
    errors: &mut Vec<String>,
) -> ServicePass {
    let cache = Arc::new(SolveCache::new(corpus::CACHE_MB));
    let mut pass = ServicePass {
        rows: Vec::new(),
        sent: Vec::new(),
        classes: Vec::new(),
        cache: CacheStats::default(),
        snapshots_captured: 0,
    };
    // Scheduled repeats and re-sends, keyed by (due position, scheduling order).
    let mut pending: BTreeMap<(usize, usize), Sent> = BTreeMap::new();
    let (mut next_fresh, mut scheduled) = (0, 0);
    for position in 0.. {
        let due = pending
            .first_key_value()
            .is_some_and(|(&(at, _), _)| at <= position);
        let sent = if !due && next_fresh < corpus.order.len() {
            next_fresh += 1;
            Sent::Fresh {
                job: corpus.order[next_fresh - 1],
            }
        } else {
            match pending.pop_first() {
                Some((_, sent)) => sent,
                None => break,
            }
        };
        pass.sent.push(sent);
        let job = pass.job(position);
        let k = corpus.ks[job];
        let nodes = match sent {
            Sent::Resend { .. } => corpus.resend_nodes,
            _ => corpus.fresh_nodes,
        };
        let request =
            SynthesisJob::new(format!("request-{position}"), corpus.instances[job].clone())
                .with_sessions(k..=k)
                .with_config(config.clone())
                .with_budget(Budget::nodes(nodes).with_snapshot(true));
        let mut service = JobService::new()
            .with_workers(1)
            .with_cache(Arc::clone(&cache));
        service.submit(request);

        let span = tracer
            .as_mut()
            .map(|t| t.open("service.job", Some(position)));
        let start = Instant::now();
        let report = service.run().pop().expect("one report per submitted job");
        let latency_s = start.elapsed().as_secs_f64();
        if let (Some(t), Some(span)) = (tracer.as_mut(), span) {
            t.close(span);
        }

        let label = format!("request {position} (job {job}, k={k}, {nodes} nodes)");
        let answer = service_answer(&report, k);
        let class = match (report.cache_hits > 0, sent) {
            (false, _) => CacheClass::Miss,
            (true, Sent::Resend { .. }) => CacheClass::Resume,
            (true, _) => CacheClass::Hit,
        };
        pass.snapshots_captured += u64::from(report.snapshot_captured);
        check_service_row(
            &pass.rows,
            sent,
            class,
            corpus.resend_nodes,
            &label,
            &answer,
            errors,
        );
        if let Sent::Fresh { job } = sent {
            pending.insert(
                (position + corpus.repeat_delay[job], scheduled),
                Sent::Repeat { of: position },
            );
            if matches!(answer, Answered::Design { optimal: false, .. }) {
                pending.insert(
                    (position + corpus.resend_delay[job], scheduled + 1),
                    Sent::Resend { of: position },
                );
            }
            scheduled += 2;
        }
        pass.rows.push(Row {
            label,
            answer,
            latency_s,
        });
        pass.classes.push(class);
    }
    pass.cache = cache.stats();
    pass
}

fn service_answer(report: &JobReport, k: usize) -> Answered {
    match (&report.outcome, report.rows.as_slice()) {
        (JobOutcome::Completed, [row]) => Answered::Design {
            objective: row.objective,
            area: row.area,
            optimal: row.optimal,
            nodes: row.nodes,
            pivots: None,
        },
        (JobOutcome::Failed(message), [])
            if *message == CoreError::Infeasible { sessions: k }.to_string() =>
        {
            Answered::Infeasible
        }
        (JobOutcome::Failed(message), []) => Answered::Failed(message.clone()),
        (outcome, rows) => {
            Answered::Failed(format!("job ended {outcome:?} with {} rows", rows.len()))
        }
    }
}

/// A repeated request must get the cold answer back verbatim; a resumed
/// re-send may only improve on the capped answer it continues.
fn check_service_row(
    rows: &[Row],
    sent: Sent,
    class: CacheClass,
    resend_nodes: u64,
    label: &str,
    answer: &Answered,
    errors: &mut Vec<String>,
) {
    match sent {
        Sent::Repeat { of } if answer != &rows[of].answer => {
            errors.push(format!(
                "{label}: cached answer {answer:?} differs from the cold answer {:?}",
                rows[of].answer
            ));
        }
        Sent::Resend { of } if class == CacheClass::Resume => {
            let (
                Answered::Design {
                    objective, nodes, ..
                },
                Answered::Design {
                    objective: before,
                    nodes: nodes_before,
                    ..
                },
            ) = (answer, &rows[of].answer)
            else {
                errors.push(format!(
                    "{label}: resumed answer {answer:?} after {:?}",
                    rows[of].answer
                ));
                return;
            };
            if *objective > before + 1e-9 || nodes < nodes_before || *nodes > resend_nodes {
                errors.push(format!(
                    "{label}: resumed to objective {objective} at {nodes} nodes from {before} at {nodes_before}"
                ));
            }
        }
        _ => {}
    }
}

fn pipeline_row(label: String, answer: &Answer, latency_s: f64) -> Row {
    let answer = match answer {
        Answer::Design(s) => Answered::Design {
            objective: s.objective,
            area: s.area,
            optimal: s.optimal,
            nodes: s.stats.nodes,
            pivots: Some(s.stats.lp_pivots),
        },
        Answer::Infeasible => Answered::Infeasible,
        Answer::Failed(message) => Answered::Failed(message.clone()),
    };
    Row {
        label,
        answer,
        latency_s,
    }
}

/// The traced chained sweep: one base per circuit, each k solved on a clone
/// with the k−1 registers chained in.
pub fn paper_chained_traced(
    tracer: &mut Tracer,
    counters: &mut Counters,
    circuits: &[(&'static str, SynthesisInput)],
    config: &SynthesisConfig,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, input) in circuits {
        let modules = input.binding().num_modules();
        let circuit = tracer.open("circuit", None);
        let base = pipeline::base(tracer, None, input, config);
        let (base, reduced) = match base {
            Ok(base) => base,
            Err(e) => {
                tracer.close(circuit);
                for k in 1..=modules {
                    rows.push(pipeline_row(
                        format!("{name} k={k}"),
                        &Answer::Failed(e.to_string()),
                        0.0,
                    ));
                }
                continue;
            }
        };
        let mut previous: Option<RegisterAssignment> = None;
        for k in 1..=modules {
            let id = rows.len();
            let span = tracer.open("request", Some(id));
            let start = Instant::now();
            let formulation = tracer.span("core.formulation.clone", Some(id), || base.clone());
            let request = Request {
                id,
                k,
                warm: Warm::Engine(previous.as_ref()),
                snapshots: false,
                resume: None,
                rtl: false,
            };
            let answer = pipeline::solve(
                tracer,
                counters,
                input,
                config,
                formulation,
                &reduced,
                request,
            );
            tracer.close(span);
            previous = match &answer {
                Answer::Design(solved) => Some(solved.registers.clone()),
                _ => None,
            };
            rows.push(pipeline_row(
                format!("{name} k={k}"),
                &answer,
                start.elapsed().as_secs_f64(),
            ));
        }
        tracer.close(circuit);
    }
    rows
}

/// The traced rebuild pass: a fresh base for every (circuit, k).
pub fn paper_rebuild_traced(
    tracer: &mut Tracer,
    counters: &mut Counters,
    circuits: &[(&'static str, SynthesisInput)],
    config: &SynthesisConfig,
) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, input) in circuits {
        for k in 1..=input.binding().num_modules() {
            let id = rows.len();
            let span = tracer.open("request", Some(id));
            let start = Instant::now();
            let answer = match pipeline::base(tracer, Some(id), input, config) {
                Ok((formulation, reduced)) => {
                    let request = Request {
                        id,
                        k,
                        warm: Warm::Rebuild,
                        snapshots: false,
                        resume: None,
                        rtl: false,
                    };
                    pipeline::solve(
                        tracer,
                        counters,
                        input,
                        config,
                        formulation,
                        &reduced,
                        request,
                    )
                }
                Err(e) => Answer::Failed(e.to_string()),
            };
            tracer.close(span);
            rows.push(pipeline_row(
                format!("{name} k={k}"),
                &answer,
                start.elapsed().as_secs_f64(),
            ));
        }
    }
    rows
}

/// Sends every distinct corpus request (fresh jobs and re-sends; repeats
/// are pure cache reads) once through the rebuilt pipeline, mirroring the
/// job service: a fresh engine per job, snapshots on, RTL validation, and
/// a re-send resumed from the snapshot its capped request left behind.
/// Returns the rows by stream position.
pub fn corpus_traced(
    tracer: &mut Tracer,
    counters: &mut Counters,
    corpus: &Corpus,
    pass: &ServicePass,
    config: &SynthesisConfig,
) -> BTreeMap<usize, Row> {
    let mut rows = BTreeMap::new();
    let mut snapshots: BTreeMap<usize, Arc<SolveSnapshot>> = BTreeMap::new();
    for (position, &sent) in pass.sent.iter().enumerate() {
        let (resume, nodes) = match sent {
            Sent::Fresh { .. } => (None, corpus.fresh_nodes),
            Sent::Repeat { .. } => continue,
            Sent::Resend { of } => {
                let resume = (pass.classes[position] == CacheClass::Resume)
                    .then(|| snapshots.get(&of).cloned())
                    .flatten();
                (resume, corpus.resend_nodes)
            }
        };
        let job = pass.job(position);
        let (input, k) = (&corpus.instances[job], corpus.ks[job]);
        let mut job_config = config.clone();
        job_config.solver.budget = Budget::nodes(nodes).with_snapshot(true);
        job_config.solver.cancel = Some(CancelToken::new());

        let span = tracer.open("request", Some(position));
        let start = Instant::now();
        let answer = match pipeline::base(tracer, Some(position), input, &job_config) {
            Ok((formulation, reduced)) => {
                let request = Request {
                    id: position,
                    k,
                    warm: Warm::Engine(None),
                    snapshots: true,
                    resume,
                    rtl: job_config.rtl_validation,
                };
                pipeline::solve(
                    tracer,
                    counters,
                    input,
                    &job_config,
                    formulation,
                    &reduced,
                    request,
                )
            }
            Err(e) => Answer::Failed(e.to_string()),
        };
        tracer.close(span);
        if let Answer::Design(solved) = &answer {
            if let Some(snapshot) = &solved.snapshot {
                snapshots.insert(position, Arc::clone(snapshot));
            }
        }
        let label = pass.rows[position].label.clone();
        rows.insert(
            position,
            pipeline_row(label, &answer, start.elapsed().as_secs_f64()),
        );
    }
    rows
}

/// Compares traced rows with untraced ones field by field (pivots only
/// where both sides report them).
pub fn check_same(traced: &Row, untraced: &Row, errors: &mut Vec<String>) {
    let same = match (&traced.answer, &untraced.answer) {
        (
            Answered::Design {
                objective,
                area,
                optimal,
                nodes,
                pivots,
            },
            Answered::Design {
                objective: o2,
                area: a2,
                optimal: p2,
                nodes: n2,
                pivots: v2,
            },
        ) => {
            objective.to_bits() == o2.to_bits()
                && area == a2
                && optimal == p2
                && nodes == n2
                && (pivots.is_none() || v2.is_none() || pivots == v2)
        }
        (a, b) => a == b,
    };
    if !same {
        errors.push(format!(
            "{}: traced answer {:?} differs from untraced {:?}",
            untraced.label, traced.answer, untraced.answer
        ));
    }
}
