//! Sparse bounded-variable **revised simplex** for the LP relaxation, with a
//! factorized basis and a dual-simplex warm-start path that re-solves a
//! child node's LP from its parent's optimal [`Basis`] after bound changes.
//!
//! The branch-and-bound solver uses this module to compute dual bounds and to
//! finish off nodes whose integral variables are all fixed but which still
//! contain continuous variables. Three design decisions define the kernel:
//!
//! * **Implicit bounds.** Every variable of the BIST formulations is boxed,
//!   and earlier revisions materialised each box side as an explicit tableau
//!   row (two rows per column), which inflated the tableau quadratically and
//!   forced a size-cap cold fallback on paulin-scale models. The revised
//!   kernel stores no bound rows at all: a nonbasic variable simply sits at
//!   its lower or upper bound (tracked by a per-column status), a move that
//!   hits a bound is a *bound flip* instead of a pivot, and a child node
//!   that tightens bounds changes nothing but the per-column bound arrays.
//! * **Sparse pricing off the shared matrix.** Columns are read straight
//!   from the CSC side of the shared [`SparseModel`]
//!   ([`SparseModel::col`]); each row contributes one slack column (an
//!   implicit unit vector), turning every row into an equality
//!   `Σ aᵢⱼ·xⱼ + sᵢ = bᵢ` with the row sense encoded in the slack's bounds.
//!   Pricing, FTRAN and the ratio tests therefore cost `O(nnz)` instead of
//!   touching a dense tableau row.
//! * **Factorized basis (product form).** The basis inverse is represented
//!   as a product of sparse *eta* matrices: each pivot appends one eta
//!   vector, and the file is periodically collapsed by refactorization,
//!   which bounds both memory and accumulated rounding error. Etas live in
//!   flat split storage (row indices and values in parallel arrays). A
//!   stored [`Basis`] is only a *header* — one status per column, i.e. the
//!   basic set plus the at-upper flags — and every warm start factorizes it
//!   afresh. A refactorization is a pure function of the matrix and the
//!   basic set, so a basis read back from a snapshot re-solves to exactly
//!   the bits of the live one, and no warm kernel inherits (or drags along)
//!   the eta files of its ancestors. Only Gomory separation reads a solve's
//!   own finished factorization, right after that solve. Three kernels
//!   exploit the sparsity of the BIST bases (Hall & McKinnon,
//!   *Hyper-sparsity in the revised simplex method*, Comput. Optim. Appl.
//!   2005):
//!   - **Sparse refactorization.** Gauss-Jordan with partial pivoting over
//!     the basic columns, sparsest first, touches only the nonzero pattern
//!     of each column: it applies just the etas whose pivot row the column
//!     reaches (each row is pivoted once, so a min-heap over eta indices
//!     yields them in file order) and picks the pivot from the sorted
//!     pattern.
//!   - **Two-vector BTRAN.** One pass over the eta file carries two
//!     independent dot chains: the dual simplex fuses its pivot row
//!     `ρ = B⁻ᵀeᵣ` with the duals `y = B⁻ᵀc_B`, and the primal simplex
//!     fuses the devex pivot row of one iteration with the next
//!     iteration's duals.
//!   - **Row-wise pivot row.** The primal devex update computes
//!     `αᵣⱼ = ρᵀaⱼ` over the few nonzero rows of `ρ` through the CSR side
//!     of the [`SparseModel`] instead of one dot product per column.
//!
//!   The kernel's **arithmetic order is part of its contract**: every sum
//!   above adds the same products in the same order as the plain dense
//!   loop it replaced (the unit tests pin this bit for bit against a dense
//!   oracle), so the pivot trail, and with it every node count and golden
//!   design, is independent of these optimizations. Reordering a sum, or
//!   changing when the file is refactorized, is a behaviour change that
//!   must regenerate the goldens.
//!
//! Two solve paths share the kernel:
//!
//! * [`solve_lp`] / [`solve_lp_basis`] — the cold solve: slack basis,
//!   composite phase-1 primal (minimising the sum of bound violations of
//!   the basic variables), then phase-2 primal on the true objective. The
//!   warm-capable variant additionally returns the optimal [`Basis`] and
//!   reports [`ReducedCosts`].
//! * [`resolve_with_basis`] — the warm path: a child's bound changes leave
//!   the parent's optimal basis *dual feasible* (reduced costs do not
//!   depend on bound values), so after refactorizing the parent's header
//!   the **bounded dual simplex** drives out
//!   the handful of primal infeasibilities the new bounds introduced,
//!   flipping entering variables across their boxes when the dual ratio
//!   test says a pivot would overshoot.
//!
//! Both warm-capable paths report [`ReducedCosts`] at optimality, which the
//! solver uses for reduced-cost bound fixing against the incumbent.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

use crate::model::CmpOp;
use crate::propagate::Domains;
use crate::sparse::SparseModel;
use crate::EPS;

/// Entering-column (primal) / leaving-row (dual) pricing rule of the
/// kernel.
///
/// **Devex** (the default) keeps a reference-framework weight per column
/// (per row on the dual side) that approximates the steepest-edge norm and
/// prices by `violation² / weight`, which steers the simplex away from the
/// near-degenerate max-violation columns Dantzig pricing chases on the BIST
/// formulations. **Dantzig** is the classic max-violation rule, kept as the
/// differential baseline — both rules must reach the same optima, only the
/// pivot trail differs. Either rule falls back to Bland's anti-cycling rule
/// while the phase measure stalls (see [`LpSolution`]'s per-mode counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Pricing {
    /// Reference-framework devex pricing (approximate steepest edge).
    #[default]
    Devex,
    /// Classic max-violation Dantzig pricing.
    Dantzig,
}

/// Outcome of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    /// An optimal basic solution was found.
    Optimal,
    /// The constraints admit no solution within the variable bounds.
    Infeasible,
    /// The objective is unbounded below (for minimisation).
    Unbounded,
    /// The pivot limit was reached before convergence.
    IterationLimit,
    /// The kernel gave up on a numerically troubled basis: a
    /// refactorization found it singular, the FTRANed pivot kept
    /// disagreeing with the priced one, or phase 1 found an unblocked ray.
    /// Like [`LpStatus::IterationLimit`] it proves nothing about the LP.
    Stalled,
}

/// Reduced-cost information of an optimal basis, mapped back to the original
/// model variables.
///
/// `up[j]` is the proven marginal objective increase per unit increase of
/// variable `j` when the optimal solution has `j` at its **lower** bound
/// (`0.0` otherwise — basic, at the upper bound, or fixed). `down[j]` is the
/// symmetric marginal increase per unit *decrease* when `j` sits at its
/// **upper** bound. Both are non-negative; the solver combines them with an
/// incumbent objective to fix binaries that provably cannot flip in any
/// improving solution.
#[derive(Debug, Clone, PartialEq)]
pub struct ReducedCosts {
    /// Marginal cost of moving up off the lower bound, per variable.
    pub up: Vec<f64>,
    /// Marginal cost of moving down off the upper bound, per variable.
    pub down: Vec<f64>,
}

/// Result of [`solve_lp`] / [`solve_lp_basis`] / [`resolve_with_basis`].
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Solve status.
    pub status: LpStatus,
    /// Objective value (minimisation), meaningful when `status` is `Optimal`.
    pub objective: f64,
    /// Values of the *original* model variables (fixed variables keep their
    /// fixed value). Empty unless `status` is `Optimal`.
    pub values: Vec<f64>,
    /// Total simplex pivots (basis changes) performed, primal and dual.
    /// Bound flips — nonbasic variables crossing their box without a basis
    /// change, the revised kernel's cheap replacement for the dense
    /// kernel's bound-row pivots — are counted separately in
    /// [`LpSolution::bound_flips`].
    pub pivots: u64,
    /// Iterations spent in the primal simplex (phases 1 and 2 of a cold
    /// solve).
    pub primal_pivots: u64,
    /// Iterations spent in the dual simplex (warm re-solves).
    pub dual_pivots: u64,
    /// Bound flips performed (rank-0 updates; see [`LpSolution::pivots`]).
    pub bound_flips: u64,
    /// Basis refactorizations performed while solving: mid-solve eta-file
    /// collapses, plus the one factorization a warm re-solve starts from
    /// (cold solves start from the trivially factorized slack basis).
    pub refactorizations: u64,
    /// Pivots priced by devex (entering column on the primal side, leaving
    /// row on the dual side). `devex_pivots + dantzig_pivots + bland_pivots`
    /// always equals [`LpSolution::pivots`].
    pub devex_pivots: u64,
    /// Pivots priced by the Dantzig max-violation rule.
    pub dantzig_pivots: u64,
    /// Pivots priced by Bland's anti-cycling fallback (either mode switches
    /// to it while the phase measure stalls).
    pub bland_pivots: u64,
    /// Reduced costs at optimality. Only produced by the warm-capable
    /// paths; `None` from the plain cold solve.
    pub reduced_costs: Option<ReducedCosts>,
}

impl LpSolution {
    fn no_solution(status: LpStatus, counters: Counters) -> Self {
        Self {
            status,
            objective: f64::INFINITY,
            values: Vec::new(),
            pivots: counters.primal + counters.dual,
            primal_pivots: counters.primal,
            dual_pivots: counters.dual,
            bound_flips: counters.flips,
            refactorizations: counters.refactorizations,
            devex_pivots: counters.devex,
            dantzig_pivots: counters.dantzig,
            bland_pivots: counters.bland,
            reduced_costs: None,
        }
    }
}

/// Iteration counters of one kernel run.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    primal: u64,
    dual: u64,
    flips: u64,
    refactorizations: u64,
    /// Per-pricing-mode attribution of the basis-change pivots.
    devex: u64,
    dantzig: u64,
    bland: u64,
}

impl Counters {
    /// Attributes one basis-change pivot to the rule that priced it.
    #[inline]
    fn attribute(&mut self, pricing: Pricing, bland: bool) {
        if bland {
            self.bland += 1;
        } else {
            match pricing {
                Pricing::Devex => self.devex += 1,
                Pricing::Dantzig => self.dantzig += 1,
            }
        }
    }
}

/// Primal feasibility tolerance: a variable this far outside its bounds
/// still counts as feasible (extracted values are clamped to the box).
const FEAS_TOL: f64 = 1e-7;
/// Dual feasibility / pricing tolerance on reduced costs.
const COST_TOL: f64 = 1e-9;
/// Minimum magnitude of an acceptable pivot element.
const PIVOT_TOL: f64 = 1e-8;
/// Entries below this magnitude are dropped from stored eta vectors.
const DROP_TOL: f64 = 1e-11;
/// Update etas beyond the base factorization that trigger a
/// refactorization.
const REFACTOR_EVERY: usize = 64;
/// Iterations without progress in the phase measure before pricing falls
/// back to Bland's rule (and stays there until progress resumes).
const STALL_LIMIT: u32 = 32;
/// Devex weight magnitude that triggers a reference-framework reset (all
/// weights back to 1): past this the approximation has drifted too far from
/// the true steepest-edge norms to steer pricing.
const DEVEX_RESET: f64 = 1e9;
/// Fractional parts closer than this to an integer are not worth a Gomory
/// cut (the cut's violation is at most the fractionality).
const GOMORY_MIN_FRAC: f64 = 0.02;
/// A Gomory cut whose coefficient magnitudes span more than this ratio is
/// discarded as numerically fragile.
const GOMORY_MAX_DYNAMISM: f64 = 1e6;

/// A reusable simplex basis **header**: the status of every column — basic,
/// or nonbasic at its lower or upper bound. That is everything needed to
/// re-solve the *same rows* under changed variable bounds with the dual
/// simplex: the basic set determines the factorization, which every warm
/// start rebuilds from scratch, so a header costs one status per column and
/// holds no eta file.
///
/// Produced by [`solve_lp_basis`] and [`resolve_with_basis`]; consumed by
/// [`resolve_with_basis`]. The basis is only valid for the exact constraint
/// matrix and objective it was solved under — a content fingerprint guards
/// against accidental reuse after the branch-and-bound solver rebuilds its
/// row set with cutting planes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    status: Vec<ColStatus>,
    rows: usize,
    vars: usize,
    fingerprint: u64,
}

impl Basis {
    /// Number of stored column statuses (memory footprint proxy).
    pub fn cells(&self) -> usize {
        self.status.len()
    }

    /// Whether the basis was solved under exactly this instance: the same
    /// dimensions, rows and objective.
    fn fits(
        &self,
        matrix: &SparseModel,
        objective: &[f64],
        objective_constant: f64,
        domains: &Domains,
    ) -> bool {
        self.vars == domains.len()
            && self.vars == matrix.num_vars()
            && self.rows == matrix.num_rows()
            && self.fingerprint == instance_fingerprint(matrix, objective, objective_constant)
    }

    /// Serialises the header into the snapshot JSON tree: the statuses as
    /// one string of `B` (basic), `L` (at lower) and `U` (at upper).
    pub(crate) fn snapshot_value(&self) -> crate::json::Value {
        use crate::json::Value;
        Value::Object(vec![
            (
                "status".into(),
                Value::Str(
                    self.status
                        .iter()
                        .map(|s| match s {
                            ColStatus::Basic => 'B',
                            ColStatus::Lower => 'L',
                            ColStatus::Upper => 'U',
                        })
                        .collect(),
                ),
            ),
            ("rows".into(), Value::Int(self.rows as u64)),
            ("vars".into(), Value::Int(self.vars as u64)),
            ("fingerprint".into(), Value::Int(self.fingerprint)),
        ])
    }

    /// Rebuilds a header from its snapshot tree; the inverse of
    /// [`Basis::snapshot_value`].
    pub(crate) fn from_snapshot_value(
        v: &crate::json::Value,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::{get_u64, get_usize, SnapshotError};
        let status = v
            .get("status")
            .and_then(crate::json::Value::as_str)
            .ok_or_else(|| SnapshotError::field("status"))?
            .chars()
            .map(|c| match c {
                'B' => Ok(ColStatus::Basic),
                'L' => Ok(ColStatus::Lower),
                'U' => Ok(ColStatus::Upper),
                _ => Err(SnapshotError::field("status")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let basis = Self {
            status,
            rows: get_usize(v, "rows")?,
            vars: get_usize(v, "vars")?,
            fingerprint: get_u64(v, "fingerprint")?,
        };
        let basics = basis
            .status
            .iter()
            .filter(|&&s| s == ColStatus::Basic)
            .count();
        if basis.status.len() != basis.vars + basis.rows || basics != basis.rows {
            return Err(SnapshotError::new("basis shape mismatch"));
        }
        Ok(basis)
    }
}

/// An optimal [`Basis`] together with the factorization its solve finished
/// with. Gomory separation reads its tableau rows off exactly these etas,
/// straight after the solve; whatever outlives the solve keeps only the
/// header.
#[derive(Debug)]
pub(crate) struct Factored {
    pub(crate) header: Basis,
    /// Basic column of each row, in the row order the eta file pivots on.
    basis: Vec<usize>,
    etas: EtaFile,
}

impl Factored {
    pub(crate) fn into_header(self) -> Basis {
        self.header
    }
}

/// Where a column currently sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ColStatus {
    /// In the basis; its value is determined by the basic solve.
    Basic,
    /// Nonbasic at its lower bound.
    Lower,
    /// Nonbasic at its upper bound.
    Upper,
}

/// A kernel's product-form eta file in flat split storage. Eta `k` is the
/// identity except for column `rows[k]`, which holds an FTRANed entering
/// column `w` (after its pivot `B_new⁻¹ = E⁻¹ · B_old⁻¹`): `pivots[k]` is
/// `w[rows[k]]`, and the off-pivot nonzeros of `w` are the parallel slices
/// `idx[span(k)]` / `val[span(k)]` in ascending row order, where `span(k)`
/// runs from `ends[k − 1]` (0 for the first eta) to `ends[k]`.
#[derive(Debug, Default, Clone)]
struct EtaFile {
    rows: Vec<u32>,
    pivots: Vec<f64>,
    ends: Vec<usize>,
    idx: Vec<u32>,
    val: Vec<f64>,
}

impl EtaFile {
    fn len(&self) -> usize {
        self.rows.len()
    }

    fn clear(&mut self) {
        self.rows.clear();
        self.pivots.clear();
        self.ends.clear();
        self.idx.clear();
        self.val.clear();
    }

    /// Term range of eta `k`.
    #[inline]
    fn span(&self, k: usize) -> Range<usize> {
        (if k == 0 { 0 } else { self.ends[k - 1] })..self.ends[k]
    }

    /// Eta `k` as `(row, pivot, term rows, term values)`.
    fn eta(&self, k: usize) -> (u32, f64, &[u32], &[f64]) {
        let span = self.span(k);
        (
            self.rows[k],
            self.pivots[k],
            &self.idx[span.clone()],
            &self.val[span],
        )
    }

    /// Appends the eta of FTRANed column `w` pivoting on `row`, reading the
    /// off-pivot entries at `pattern` (ascending; it must cover every
    /// nonzero of `w`) and dropping negligible ones. An exact identity eta
    /// (unit pivot, no off-pivot entries) is skipped — applying it would be
    /// a no-op, and skipping it keeps the factorization of a mostly-slack
    /// basis near-empty. Returns whether an eta was appended.
    fn push_column(
        &mut self,
        row: usize,
        w: &[f64],
        pattern: impl IntoIterator<Item = usize>,
    ) -> bool {
        let start = self.idx.len();
        for i in pattern {
            let a = w[i];
            if i != row && a.abs() > DROP_TOL {
                self.idx.push(i as u32);
                self.val.push(a);
            }
        }
        if w[row] == 1.0 && self.idx.len() == start {
            return false;
        }
        self.rows.push(row as u32);
        self.pivots.push(w[row]);
        self.ends.push(self.idx.len());
        true
    }

    /// FTRAN in place: applies every `E⁻¹` in file order, `v ← B⁻¹·v`.
    fn ftran(&self, v: &mut [f64]) {
        let mut start = 0;
        for (k, &end) in self.ends.iter().enumerate() {
            let r = self.rows[k] as usize;
            if v[r] != 0.0 {
                let p = v[r] / self.pivots[k];
                v[r] = p;
                for (&i, &a) in self.idx[start..end].iter().zip(&self.val[start..end]) {
                    v[i as usize] -= a * p;
                }
            }
            start = end;
        }
    }

    /// BTRAN in place: `v ← B⁻ᵀ·v`.
    fn btran(&self, v: &mut [f64]) {
        self.btran_range(v, 0..self.len());
    }

    /// Applies `E⁻ᵀ` of the etas in `etas` to `v`, last first. A BTRAN
    /// split at `k` (etas `k..` first, then `..k`) is the full BTRAN; the
    /// head `..k` alone is the BTRAN of the basis before the pivots that
    /// appended the rest.
    fn btran_range(&self, v: &mut [f64], etas: Range<usize>) {
        for k in etas.rev() {
            let r = self.rows[k] as usize;
            let span = self.span(k);
            let mut s = v[r];
            for (&i, &a) in self.idx[span.clone()].iter().zip(&self.val[span]) {
                s -= a * v[i as usize];
            }
            v[r] = s / self.pivots[k];
        }
    }

    /// Two-vector BTRAN: `u ← B⁻ᵀ·u` and `v ← B⁻ᵀ·v` in one pass.
    fn btran2(&self, u: &mut [f64], v: &mut [f64]) {
        self.btran2_range(u, v, 0..self.len());
    }

    /// [`EtaFile::btran_range`] of two vectors in one pass: the two dot
    /// chains are independent, so each performs exactly the operations of
    /// its own single-vector pass, while the pass pays the serial latency
    /// of one.
    fn btran2_range(&self, u: &mut [f64], v: &mut [f64], etas: Range<usize>) {
        for k in etas.rev() {
            let r = self.rows[k] as usize;
            let span = self.span(k);
            let (mut su, mut sv) = (u[r], v[r]);
            for (&i, &a) in self.idx[span.clone()].iter().zip(&self.val[span]) {
                let i = i as usize;
                su -= a * u[i];
                sv -= a * v[i];
            }
            let pivot = self.pivots[k];
            u[r] = su / pivot;
            v[r] = sv / pivot;
        }
    }
}

/// Scratch of the sparse refactorization: the nonzero pattern of the
/// column being transformed, and the etas still to apply to it.
struct SparseColumn {
    in_pattern: Vec<bool>,
    /// Rows written so far, in first-write order.
    pattern: Vec<usize>,
    /// The eta pivoting on each row, once emitted.
    eta_of_row: Vec<u32>,
    /// Etas to apply, smallest file index first.
    pending: BinaryHeap<Reverse<u32>>,
}

impl SparseColumn {
    const NO_ETA: u32 = u32::MAX;

    fn new(m: usize) -> Self {
        Self {
            in_pattern: vec![false; m],
            pattern: Vec::new(),
            eta_of_row: vec![Self::NO_ETA; m],
            pending: BinaryHeap::new(),
        }
    }

    /// Records a write to row `i` while the etas from index `after` on are
    /// still to come. A row entering the pattern queues its eta if that eta
    /// lies ahead; a row already in it was queued (or passed) on entry.
    #[inline]
    fn touch(&mut self, i: usize, after: usize) {
        if !self.in_pattern[i] {
            self.in_pattern[i] = true;
            self.pattern.push(i);
            let e = self.eta_of_row[i];
            if e != Self::NO_ETA && e as usize >= after {
                self.pending.push(Reverse(e));
            }
        }
    }

    /// Zeroes `w` on the pattern and empties it for the next column.
    fn clear(&mut self, w: &mut [f64]) {
        for &i in &self.pattern {
            w[i] = 0.0;
            self.in_pattern[i] = false;
        }
        self.pattern.clear();
    }
}

/// The devex pivot row `αᵣⱼ = ρᵀaⱼ` of the structural columns, accumulated
/// row-wise over the nonzero rows of `ρ` through the CSR side of the
/// matrix. CSC columns list their rows in ascending order, so each `αᵣⱼ`
/// adds the same products in the same order as a column-wise dot product
/// (zero products aside); the slack entries are `ρ` itself.
struct PivotRow {
    /// `αᵣⱼ` per structural column (zero outside `cols`).
    alpha: Vec<f64>,
    seen: Vec<bool>,
    /// Structural columns some nonzero row of `ρ` reaches, each once.
    cols: Vec<usize>,
    /// Rows where `ρ` is nonzero, ascending.
    rows: Vec<usize>,
}

impl PivotRow {
    fn new(n: usize) -> Self {
        Self {
            alpha: vec![0.0; n],
            seen: vec![false; n],
            cols: Vec::new(),
            rows: Vec::new(),
        }
    }

    fn compute(&mut self, matrix: &SparseModel, rho: &[f64]) {
        for &j in &self.cols {
            self.alpha[j] = 0.0;
            self.seen[j] = false;
        }
        self.cols.clear();
        self.rows.clear();
        for (i, &p) in rho.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            self.rows.push(i);
            let row = matrix.row(i);
            for (&j, &a) in row.cols.iter().zip(row.vals) {
                let j = j as usize;
                if !self.seen[j] {
                    self.seen[j] = true;
                    self.cols.push(j);
                }
                self.alpha[j] += p * a;
            }
        }
    }
}

/// Content hash guarding [`Basis`] reuse: the matrix's cached row hash
/// (precomputed once at [`SparseModel`] construction — dimension/nonzero
/// counts alone would accept a rebuilt cut pool that swapped one row for
/// another of equal size) folded with the objective vector and constant.
/// The dual-feasibility invariant the warm path relies on depends on the
/// *costs* as much as the rows, so a basis built under one objective must
/// not re-solve under another. Per call this costs `O(n)`, not `O(nnz)`.
pub(crate) fn instance_fingerprint(
    matrix: &SparseModel,
    objective: &[f64],
    objective_constant: f64,
) -> u64 {
    use crate::sparse::{fnv_fold, FNV_OFFSET};
    let mut h = FNV_OFFSET;
    fnv_fold(&mut h, matrix.fingerprint());
    fnv_fold(&mut h, objective_constant.to_bits());
    for &c in objective {
        fnv_fold(&mut h, c.to_bits());
    }
    h
}

/// Inner loop outcome. `Stalled` marks a numerical failure the cold path
/// first handles by restarting from the slack basis; only an unrecovered
/// one surfaces as [`LpStatus::Stalled`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Inner {
    Optimal,
    Infeasible,
    Unbounded,
    IterationLimit,
    Stalled,
}

/// The revised-simplex working state over one matrix + box.
struct Kernel<'a> {
    matrix: &'a SparseModel,
    objective: &'a [f64],
    objective_constant: f64,
    /// Structural columns (model variables).
    n: usize,
    /// Rows (= slack columns).
    m: usize,
    /// Total columns: `n + m`.
    ncols: usize,
    /// Per-column bounds; slack bounds encode the row sense.
    lower: Vec<f64>,
    upper: Vec<f64>,
    status: Vec<ColStatus>,
    /// Basic column of each row.
    basis: Vec<usize>,
    /// Current value of every column.
    x: Vec<f64>,
    etas: EtaFile,
    /// Length of the eta file right after the last (re)factorization; only
    /// the *update* etas beyond it count towards the refactorization
    /// trigger (a product-form refactorization itself emits up to one eta
    /// per basic column).
    base_etas: usize,
    counters: Counters,
    /// Dense scratch vector (length `m`), threaded through FTRANs.
    scratch: Vec<f64>,
    /// Pricing rule for this run.
    pricing: Pricing,
    /// Primal devex reference weights, one per column (meaningful for
    /// nonbasic columns). Reset to 1 with each new reference framework.
    weights: Vec<f64>,
    /// Dual devex reference weights, one per basis row.
    row_weights: Vec<f64>,
}

impl<'a> Kernel<'a> {
    /// Shared construction: bounds, costs and slack layout (state unset).
    fn shell(
        matrix: &'a SparseModel,
        objective: &'a [f64],
        objective_constant: f64,
        domains: &Domains,
    ) -> Self {
        let n = domains.len();
        debug_assert_eq!(objective.len(), n);
        debug_assert_eq!(matrix.num_vars(), n);
        let m = matrix.num_rows();
        let ncols = n + m;
        let mut lower = Vec::with_capacity(ncols);
        let mut upper = Vec::with_capacity(ncols);
        for j in 0..n {
            if let Some(v) = domains.fixed_value(j) {
                lower.push(v);
                upper.push(v);
            } else {
                lower.push(domains.lower(j));
                upper.push(domains.upper(j));
            }
        }
        for i in 0..m {
            // Row `Σ a·x + s = rhs`: the slack bounds encode the sense.
            match matrix.row(i).op {
                CmpOp::Le => {
                    lower.push(0.0);
                    upper.push(f64::INFINITY);
                }
                CmpOp::Ge => {
                    lower.push(f64::NEG_INFINITY);
                    upper.push(0.0);
                }
                CmpOp::Eq => {
                    lower.push(0.0);
                    upper.push(0.0);
                }
            }
        }
        Self {
            matrix,
            objective,
            objective_constant,
            n,
            m,
            ncols,
            lower,
            upper,
            status: vec![ColStatus::Lower; ncols],
            basis: Vec::new(),
            x: vec![0.0; ncols],
            etas: EtaFile::default(),
            base_etas: 0,
            counters: Counters::default(),
            scratch: vec![0.0; m],
            pricing: Pricing::default(),
            weights: vec![1.0; ncols],
            row_weights: vec![1.0; m],
        }
    }

    /// Cold start: every structural nonbasic at a bound, slack basis
    /// (trivially factorized — the eta file is empty).
    fn cold(
        matrix: &'a SparseModel,
        objective: &'a [f64],
        objective_constant: f64,
        domains: &Domains,
        pricing: Pricing,
    ) -> Self {
        let mut k = Self::shell(matrix, objective, objective_constant, domains);
        k.pricing = pricing;
        k.reset_to_slack_basis();
        k
    }

    /// Warm start from a stored header: the statuses are restored, nonbasic
    /// values snap to the (possibly changed) bounds, and the basic set is
    /// factorized from scratch, which also recomputes the basic values.
    /// Devex weights start a fresh reference framework (all ones). Returns
    /// `None` when the basic set proves numerically singular.
    fn warm(
        matrix: &'a SparseModel,
        objective: &'a [f64],
        objective_constant: f64,
        domains: &Domains,
        basis: &Basis,
        pricing: Pricing,
    ) -> Option<Self> {
        let mut k = Self::shell(matrix, objective, objective_constant, domains);
        k.pricing = pricing;
        k.status.copy_from_slice(&basis.status);
        k.basis = (0..k.ncols)
            .filter(|&j| k.status[j] == ColStatus::Basic)
            .collect();
        k.snap_nonbasics();
        k.refactorize().then_some(k)
    }

    /// The kernel a finished solve left behind, rebuilt from its
    /// [`Factored`] basis: the solve's own row order and eta file, with the
    /// values recomputed through them.
    fn finished(
        matrix: &'a SparseModel,
        objective: &'a [f64],
        objective_constant: f64,
        domains: &Domains,
        factored: &Factored,
    ) -> Self {
        let mut k = Self::shell(matrix, objective, objective_constant, domains);
        k.status.copy_from_slice(&factored.header.status);
        k.basis = factored.basis.clone();
        k.etas = factored.etas.clone();
        k.base_etas = k.etas.len();
        k.snap_nonbasics();
        k.compute_basics();
        k
    }

    /// Phase-2 cost of a column (structural objective, zero on slacks).
    #[inline]
    fn cost(&self, j: usize) -> f64 {
        if j < self.n {
            self.objective[j]
        } else {
            0.0
        }
    }

    /// Whether a column may never leave its bound (degenerate box).
    #[inline]
    fn is_fixed_col(&self, j: usize) -> bool {
        self.upper[j] - self.lower[j] <= 0.0
    }

    /// Dot product of column `j` with a dense row-space vector.
    #[inline]
    fn col_dot(&self, j: usize, y: &[f64]) -> f64 {
        if j < self.n {
            let (rows, vals) = self.matrix.col(j);
            rows.iter()
                .zip(vals)
                .map(|(&r, &a)| y[r as usize] * a)
                .sum()
        } else {
            y[j - self.n]
        }
    }

    /// Scatters column `j` into a dense vector (which must be zeroed).
    fn scatter_col(&self, j: usize, out: &mut [f64]) {
        if j < self.n {
            let (rows, vals) = self.matrix.col(j);
            for (&r, &a) in rows.iter().zip(vals) {
                out[r as usize] = a;
            }
        } else {
            out[j - self.n] = 1.0;
        }
    }

    /// FTRAN of column `j`: returns `B⁻¹·aⱼ` in the scratch vector
    /// (ownership is handed back so callers can keep borrowing `self`).
    fn ftran_col(&mut self, j: usize) -> Vec<f64> {
        let mut w = std::mem::take(&mut self.scratch);
        w.fill(0.0);
        self.scatter_col(j, &mut w);
        self.etas.ftran(&mut w);
        w
    }

    /// Fills `y` with the basic costs of the current phase: the composite
    /// phase-1 costs (±1 on basics outside their box) or the true costs.
    fn basic_costs(&self, phase1: bool, y: &mut [f64]) {
        for (i, slot) in y.iter_mut().enumerate() {
            let b = self.basis[i];
            *slot = if phase1 {
                let v = self.x[b];
                if v < self.lower[b] - FEAS_TOL {
                    -1.0
                } else if v > self.upper[b] + FEAS_TOL {
                    1.0
                } else {
                    0.0
                }
            } else {
                self.cost(b)
            };
        }
    }

    /// Snaps every nonbasic column to the bound its status names.
    fn snap_nonbasics(&mut self) {
        for j in 0..self.ncols {
            match self.status[j] {
                ColStatus::Basic => {}
                ColStatus::Lower => {
                    self.x[j] = if self.lower[j].is_finite() {
                        self.lower[j]
                    } else {
                        0.0
                    }
                }
                ColStatus::Upper => {
                    self.x[j] = if self.upper[j].is_finite() {
                        self.upper[j]
                    } else {
                        0.0
                    }
                }
            }
        }
    }

    /// Recomputes every basic value from the nonbasic ones:
    /// `x_B = B⁻¹·(b − N·x_N)`.
    fn compute_basics(&mut self) {
        let mut t = std::mem::take(&mut self.scratch);
        for (i, slot) in t.iter_mut().enumerate() {
            *slot = self.matrix.row(i).rhs;
        }
        for j in 0..self.ncols {
            if self.status[j] == ColStatus::Basic || self.x[j] == 0.0 {
                continue;
            }
            let xj = self.x[j];
            if j < self.n {
                let (rows, vals) = self.matrix.col(j);
                for (&r, &a) in rows.iter().zip(vals) {
                    t[r as usize] -= a * xj;
                }
            } else {
                t[j - self.n] -= xj;
            }
        }
        self.etas.ftran(&mut t);
        for (i, &v) in t.iter().enumerate() {
            self.x[self.basis[i]] = v;
        }
        self.scratch = t;
    }

    /// Resets to the all-slack basis (identity factorization) with every
    /// structural nonbasic at a bound — the cold start, also the recovery
    /// point after a failed refactorization.
    fn reset_to_slack_basis(&mut self) {
        self.etas.clear();
        self.base_etas = 0;
        self.weights.fill(1.0);
        self.row_weights.fill(1.0);
        self.basis = (self.n..self.ncols).collect();
        for j in 0..self.n {
            // Start each structural at the bound its objective coefficient
            // prefers (a dual-feasible-leaning crash), which shortens phase
            // 2 without affecting phase 1.
            self.status[j] = if self.objective[j] < 0.0 && self.upper[j].is_finite() {
                ColStatus::Upper
            } else {
                ColStatus::Lower
            };
        }
        for j in self.n..self.ncols {
            self.status[j] = ColStatus::Basic;
        }
        self.snap_nonbasics();
        self.compute_basics();
    }

    /// Basic columns in refactorization order: sparsest first, ties by
    /// index.
    fn refactor_order(&self) -> Vec<usize> {
        let mut cols: Vec<usize> = self.basis.clone();
        cols.sort_by_key(|&c| {
            let nnz = if c < self.n {
                self.matrix.col(c).0.len()
            } else {
                1
            };
            (nnz, c)
        });
        cols
    }

    /// Collapses the eta file: re-factorizes the current basis from scratch
    /// by Gauss-Jordan with partial pivoting (sparsest columns first).
    /// Returns `false` when the basis proves numerically singular, in which
    /// case the state is unchanged except for the cleared eta file and the
    /// caller must reset or abandon. The columns are taken in
    /// [`Kernel::refactor_order`], which sorts the basic *set*, so the
    /// result — eta file, row order and basic values — depends only on the
    /// matrix, the basic set and the nonbasic values, never on how the
    /// basis was reached.
    ///
    /// Each column is transformed on its nonzero pattern only. Every row is
    /// pivoted at most once, so an eta is reached exactly through its pivot
    /// row; a min-heap over the eta indices of the rows the column touches
    /// applies them in file order with the same zero-skip as a dense FTRAN.
    /// The pivot is chosen by scanning the sorted pattern with the same
    /// strict test as a dense scan, so the emitted eta file is bit-for-bit
    /// the dense Gauss-Jordan one.
    fn refactorize(&mut self) -> bool {
        self.counters.refactorizations += 1;
        self.etas.clear();
        let cols = self.refactor_order();
        let mut assigned = vec![false; self.m];
        let mut new_basis = vec![usize::MAX; self.m];
        let mut col = SparseColumn::new(self.m);
        let mut w = std::mem::take(&mut self.scratch);
        w.fill(0.0);
        let mut ok = true;
        for &c in &cols {
            if c < self.n {
                let (rows, vals) = self.matrix.col(c);
                for (&r, &a) in rows.iter().zip(vals) {
                    w[r as usize] = a;
                    col.touch(r as usize, 0);
                }
            } else {
                w[c - self.n] = 1.0;
                col.touch(c - self.n, 0);
            }
            while let Some(Reverse(k)) = col.pending.pop() {
                let k = k as usize;
                let (r, pivot, idx, val) = self.etas.eta(k);
                let r = r as usize;
                if w[r] == 0.0 {
                    continue;
                }
                let p = w[r] / pivot;
                w[r] = p;
                for (&i, &a) in idx.iter().zip(val) {
                    let i = i as usize;
                    w[i] -= a * p;
                    col.touch(i, k + 1);
                }
            }
            col.pattern.sort_unstable();
            let mut best = PIVOT_TOL;
            let mut row = usize::MAX;
            for &i in &col.pattern {
                if !assigned[i] && w[i].abs() > best {
                    best = w[i].abs();
                    row = i;
                }
            }
            if row == usize::MAX {
                ok = false;
                break;
            }
            assigned[row] = true;
            new_basis[row] = c;
            if self.etas.push_column(row, &w, col.pattern.iter().copied()) {
                col.eta_of_row[row] = (self.etas.len() - 1) as u32;
            }
            col.clear(&mut w);
        }
        self.scratch = w;
        if !ok {
            self.etas.clear();
            self.base_etas = 0;
            return false;
        }
        self.basis = new_basis;
        self.base_etas = self.etas.len();
        self.compute_basics();
        true
    }

    /// Current objective value of the (possibly infeasible) basic point.
    fn objective_now(&self) -> f64 {
        self.objective
            .iter()
            .zip(&self.x)
            .map(|(c, v)| c * v)
            .sum::<f64>()
    }

    /// Sum and maximum of bound violations over the basic variables.
    fn infeasibility(&self) -> (f64, f64) {
        let mut total = 0.0;
        let mut max = 0.0f64;
        for &b in &self.basis {
            let v = self.x[b];
            let violation = if v < self.lower[b] {
                self.lower[b] - v
            } else if v > self.upper[b] {
                v - self.upper[b]
            } else {
                0.0
            };
            total += violation;
            max = max.max(violation);
        }
        (total, max)
    }

    /// One primal phase: phase 1 minimises the sum of basic bound
    /// violations (composite costs recomputed every iteration), phase 2
    /// minimises the true objective over a feasible basis.
    fn run_phase(&mut self, phase1: bool, max_pivots: u64, pivots: &mut u64) -> Inner {
        let mut y = vec![0.0f64; self.m];
        // Pivot-row scratch for the devex weight update.
        let mut rho = vec![0.0f64; self.m];
        let mut pivot_row = PivotRow::new(self.n);
        // Set when the previous pivot already carried the duals of the new
        // basis through its BTRAN (fused with its devex pivot row).
        let mut y_ready = false;
        // Degeneracy guard: Dantzig pricing switches to Bland's rule while
        // the phase measure (infeasibility sum in phase 1, objective in
        // phase 2) has made no progress for `STALL_LIMIT` iterations, and
        // back once it moves again. This keeps the anti-cycling cost
        // proportional to the stalled stretch instead of a huge fixed
        // iteration threshold.
        let mut last_measure = f64::INFINITY;
        let mut stall = 0u32;
        loop {
            // The budget counter charges every iteration — bound flips
            // included. A flip skips only the eta push; it still pays the
            // full pricing pass (BTRAN + an O(nnz) reduced-cost scan) and
            // the FTRAN of the entering column, which dominate an
            // iteration's cost. Only the *reported* pivot counters
            // distinguish flips from basis changes.
            if *pivots >= max_pivots {
                return Inner::IterationLimit;
            }
            if self.etas.len() >= self.base_etas + REFACTOR_EVERY && !self.refactorize() {
                return Inner::Stalled;
            }
            let measure = if phase1 {
                let (infeasibility_sum, infeasibility_max) = self.infeasibility();
                // The exit test must match the pricing below, which only
                // sees per-variable violations beyond `FEAS_TOL`: testing
                // the *sum* here would let several rounding-level violations
                // add up past the tolerance, price every composite cost to
                // zero and mislabel a feasible LP as infeasible.
                if infeasibility_max <= FEAS_TOL {
                    return Inner::Optimal;
                }
                infeasibility_sum
            } else {
                self.objective_now()
            };
            if measure < last_measure - 1e-9 {
                stall = 0;
                last_measure = measure;
            } else {
                stall += 1;
            }
            // Pricing: y = B⁻ᵀ·c_B, then reduced costs over the nonbasics.
            if !y_ready {
                self.basic_costs(phase1, &mut y);
                self.etas.btran(&mut y);
            }
            y_ready = false;
            let use_bland = stall >= STALL_LIMIT;
            let devex = self.pricing == Pricing::Devex && !use_bland;
            let mut entering: Option<usize> = None;
            let mut best = COST_TOL;
            let mut best_score = 0.0f64;
            for j in 0..self.ncols {
                let status = self.status[j];
                if status == ColStatus::Basic || self.is_fixed_col(j) {
                    continue;
                }
                let c = if phase1 { 0.0 } else { self.cost(j) };
                let d = c - self.col_dot(j, &y);
                let violation = match status {
                    ColStatus::Lower => -d,
                    ColStatus::Upper => d,
                    ColStatus::Basic => unreachable!(),
                };
                if violation <= COST_TOL {
                    continue;
                }
                if use_bland {
                    entering = Some(j);
                    break;
                }
                if devex {
                    // Reference-framework devex: the largest rate of
                    // objective change per unit of (approximate) edge
                    // length, instead of the raw reduced cost.
                    let score = violation * violation / self.weights[j];
                    if score > best_score {
                        best_score = score;
                        entering = Some(j);
                    }
                } else if violation > best {
                    entering = Some(j);
                    best = violation;
                }
            }
            let Some(q) = entering else {
                // No improving direction left. In phase 1 this means the
                // residual infeasibility is irreducible: the LP is
                // infeasible. In phase 2 the basis is optimal.
                return if phase1 {
                    Inner::Infeasible
                } else {
                    Inner::Optimal
                };
            };
            let dir = if self.status[q] == ColStatus::Lower {
                1.0
            } else {
                -1.0
            };
            let w = self.ftran_col(q);

            // Ratio test. The entering variable moves `t ≥ 0` along `dir`;
            // basic `i` changes by `−dir·w[i]·t`. A feasible basic blocks at
            // the bound it approaches; an infeasible one (phase 1) blocks
            // when it *reaches* the violated bound it is moving towards, and
            // never blocks when moving further away (that slope is already
            // priced into the composite costs).
            let mut t_best = self.upper[q] - self.lower[q];
            let mut leave: Option<usize> = None;
            let mut leave_to = 0.0f64;
            let mut best_piv = 0.0f64;
            for (i, &wi) in w.iter().enumerate() {
                // Same pivot-magnitude guard as the dual ratio test: a
                // blocking row with a near-zero entry would put that entry
                // on the diagonal of an eta and amplify rounding error by
                // its reciprocal.
                if wi.abs() <= PIVOT_TOL {
                    continue;
                }
                let delta = dir * wi;
                let b = self.basis[i];
                let xb = self.x[b];
                let (limit, target) = if delta > 0.0 {
                    // Basic decreases.
                    if xb < self.lower[b] - FEAS_TOL {
                        continue;
                    }
                    let tgt = if xb > self.upper[b] + FEAS_TOL {
                        self.upper[b]
                    } else {
                        self.lower[b]
                    };
                    if !tgt.is_finite() {
                        continue;
                    }
                    (((xb - tgt) / delta).max(0.0), tgt)
                } else {
                    // Basic increases.
                    if xb > self.upper[b] + FEAS_TOL {
                        continue;
                    }
                    let tgt = if xb < self.lower[b] - FEAS_TOL {
                        self.lower[b]
                    } else {
                        self.upper[b]
                    };
                    if !tgt.is_finite() {
                        continue;
                    }
                    (((tgt - xb) / -delta).max(0.0), tgt)
                };
                let replace = if limit < t_best - 1e-12 {
                    true
                } else if limit <= t_best + 1e-12 {
                    match leave {
                        None => limit < t_best,
                        Some(l) => {
                            if use_bland {
                                self.basis[i] < self.basis[l]
                            } else {
                                wi.abs() > best_piv
                            }
                        }
                    }
                } else {
                    false
                };
                if replace {
                    t_best = limit;
                    leave = Some(i);
                    leave_to = target;
                    best_piv = wi.abs();
                }
            }

            if t_best.is_infinite() {
                self.scratch = w;
                // Unbounded descent. In phase 1 the infeasibility sum is
                // bounded below by zero, so an unblocked ray can only be
                // numerical noise — treat it as a stall.
                return if phase1 {
                    Inner::Stalled
                } else {
                    Inner::Unbounded
                };
            }

            *pivots += 1;
            let t = t_best;
            match leave {
                None => {
                    self.counters.flips += 1;
                    // Bound flip: the entering column crosses its box and
                    // settles on the opposite bound; the basis is unchanged.
                    for (i, &wi) in w.iter().enumerate() {
                        if wi != 0.0 {
                            self.x[self.basis[i]] -= dir * t * wi;
                        }
                    }
                    if dir > 0.0 {
                        self.x[q] = self.upper[q];
                        self.status[q] = ColStatus::Upper;
                    } else {
                        self.x[q] = self.lower[q];
                        self.status[q] = ColStatus::Lower;
                    }
                    // Phase 2 prices with the true costs of an unchanged
                    // basis through an unchanged eta file, so `y` is still
                    // exact. Phase 1's composite costs follow `x` and must
                    // be rebuilt.
                    y_ready = !phase1;
                }
                Some(r) => {
                    self.counters.primal += 1;
                    self.counters.attribute(self.pricing, use_bland);
                    for (i, &wi) in w.iter().enumerate() {
                        if wi != 0.0 {
                            self.x[self.basis[i]] -= dir * t * wi;
                        }
                    }
                    let leaving = self.basis[r];
                    self.x[q] += dir * t;
                    self.x[leaving] = leave_to;
                    self.status[leaving] = if leave_to == self.lower[leaving] {
                        ColStatus::Lower
                    } else {
                        ColStatus::Upper
                    };
                    self.status[q] = ColStatus::Basic;
                    let pre_pivot = self.etas.len();
                    self.etas.push_column(r, &w, 0..self.m);
                    self.basis[r] = q;
                    if devex {
                        // Reference-framework update (Forrest–Goldfarb):
                        // the pivot row of the *old* basis rescales every
                        // nonbasic weight, the leaving column inherits the
                        // entering one's weight through the pivot element.
                        let alpha_rq = w[r];
                        let gamma_q = self.weights[q].max(1.0);
                        rho.fill(0.0);
                        rho[r] = 1.0;
                        if self.etas.len() < self.base_etas + REFACTOR_EVERY {
                            // No refactorization comes first, so the next
                            // iteration's duals ride along: through the new
                            // eta alone, then with `ρ` through the old file.
                            self.basic_costs(phase1, &mut y);
                            self.etas.btran_range(&mut y, pre_pivot..self.etas.len());
                            self.etas.btran2_range(&mut rho, &mut y, 0..pre_pivot);
                            y_ready = true;
                        } else {
                            self.etas.btran_range(&mut rho, 0..pre_pivot);
                        }
                        pivot_row.compute(self.matrix, &rho);
                        let n = self.n;
                        let slacks = pivot_row.rows.iter().map(|&i| (n + i, rho[i]));
                        let structurals = pivot_row.cols.iter().map(|&j| (j, pivot_row.alpha[j]));
                        let mut peak = 1.0f64;
                        for (j, alpha_rj) in structurals.chain(slacks) {
                            // The pivot is already applied: `q` is basic now
                            // and the leaving column, nonbasic now, gets its
                            // weight below — the same columns the pre-pivot
                            // rule skipped.
                            if j == leaving
                                || self.status[j] == ColStatus::Basic
                                || self.is_fixed_col(j)
                                || alpha_rj == 0.0
                            {
                                continue;
                            }
                            let ratio = alpha_rj / alpha_rq;
                            let candidate = ratio * ratio * gamma_q;
                            if candidate > self.weights[j] {
                                self.weights[j] = candidate;
                                peak = peak.max(candidate);
                            }
                        }
                        let leaving_weight = (gamma_q / (alpha_rq * alpha_rq)).max(1.0);
                        self.weights[leaving] = leaving_weight;
                        peak = peak.max(leaving_weight);
                        if peak > DEVEX_RESET {
                            self.weights.fill(1.0);
                        }
                    }
                }
            }
            self.scratch = w;
        }
    }

    /// Cold two-phase primal solve, with a bounded restart from the slack
    /// basis if a refactorization ever fails.
    fn solve_two_phase(&mut self, max_pivots: u64, pivots: &mut u64) -> Inner {
        let mut restarts = 0u32;
        loop {
            match self.run_phase(true, max_pivots, pivots) {
                Inner::Optimal => {}
                Inner::Stalled if restarts < 2 => {
                    restarts += 1;
                    self.reset_to_slack_basis();
                    continue;
                }
                other => return other,
            }
            match self.run_phase(false, max_pivots, pivots) {
                Inner::Stalled if restarts < 2 => {
                    restarts += 1;
                    self.reset_to_slack_basis();
                    continue;
                }
                other => return other,
            }
        }
    }

    /// Bounded dual simplex: from a dual-feasible basis, drives the primal
    /// bound violations of the basic variables away. Used by the warm path
    /// after a child node changed variable bounds.
    fn run_dual(&mut self, max_pivots: u64, pivots: &mut u64) -> Inner {
        let mut rho = vec![0.0f64; self.m];
        let mut y = vec![0.0f64; self.m];
        let mut stalls = 0u32;
        // Degeneracy guard, mirroring `run_phase`: the dual objective (the
        // basic point's primal objective value) is non-decreasing along
        // dual pivots; a stretch without movement switches the leaving/
        // entering choices to Bland's rule until progress resumes.
        let mut last_measure = f64::INFINITY;
        let mut stall = 0u32;
        loop {
            // As in `run_phase`, the budget charges every iteration, flips
            // included — a dual iteration's cost is dominated by the
            // leaving/entering pricing (two BTRANs + an O(nnz) scan), which
            // a dual bound flip pays in full.
            if *pivots >= max_pivots {
                return Inner::IterationLimit;
            }
            if self.etas.len() >= self.base_etas + REFACTOR_EVERY && !self.refactorize() {
                return Inner::Stalled;
            }
            let measure = -self.objective_now();
            if measure < last_measure - 1e-9 {
                stall = 0;
                last_measure = measure;
            } else {
                stall += 1;
            }
            let use_bland = stall >= STALL_LIMIT;
            let devex = self.pricing == Pricing::Devex && !use_bland;
            // Leaving row: the basic variable with the largest bound
            // violation — devex-weighted in the default mode, raw under
            // Dantzig (first violating row under Bland).
            let mut leaving: Option<usize> = None;
            let mut worst = FEAS_TOL;
            let mut worst_score = 0.0f64;
            for i in 0..self.m {
                let b = self.basis[i];
                let v = self.x[b];
                let violation = if v < self.lower[b] {
                    self.lower[b] - v
                } else if v > self.upper[b] {
                    v - self.upper[b]
                } else {
                    0.0
                };
                if violation <= FEAS_TOL {
                    continue;
                }
                if use_bland {
                    leaving = Some(i);
                    break;
                }
                if devex {
                    let score = violation * violation / self.row_weights[i];
                    if score > worst_score {
                        worst_score = score;
                        leaving = Some(i);
                    }
                } else if violation > worst {
                    leaving = Some(i);
                    worst = violation;
                }
            }
            let Some(r) = leaving else {
                // Primal feasible and (by invariant) dual feasible: optimal.
                return Inner::Optimal;
            };
            let b_r = self.basis[r];
            let to_lower = self.x[b_r] < self.lower[b_r];
            let target = if to_lower {
                self.lower[b_r]
            } else {
                self.upper[b_r]
            };

            // ρ = B⁻ᵀ·e_r gives the pivot row; y = B⁻ᵀ·c_B the duals.
            rho.fill(0.0);
            rho[r] = 1.0;
            self.basic_costs(false, &mut y);
            self.etas.btran2(&mut rho, &mut y);

            // Dual ratio test: among nonbasic columns whose movement pushes
            // `x_B[r]` towards its violated bound, the smallest
            // |reduced cost| / |α| keeps every other reduced cost
            // dual-feasible after the pivot.
            let mut entering: Option<(usize, f64)> = None;
            let mut best_ratio = f64::INFINITY;
            let mut best_alpha = 0.0f64;
            for j in 0..self.ncols {
                let status = self.status[j];
                if status == ColStatus::Basic || self.is_fixed_col(j) {
                    continue;
                }
                let alpha = self.col_dot(j, &rho);
                if alpha.abs() <= PIVOT_TOL {
                    continue;
                }
                let dirj = if status == ColStatus::Lower {
                    1.0
                } else {
                    -1.0
                };
                // x_B[r] changes by −dirj·α per unit step of the entering
                // variable; it must move towards `target`.
                let movement = -dirj * alpha;
                if to_lower {
                    if movement <= 0.0 {
                        continue;
                    }
                } else if movement >= 0.0 {
                    continue;
                }
                let d = self.cost(j) - self.col_dot(j, &y);
                let dmag = match status {
                    ColStatus::Lower => d.max(0.0),
                    ColStatus::Upper => (-d).max(0.0),
                    ColStatus::Basic => unreachable!(),
                };
                let ratio = dmag / alpha.abs();
                // Bland mode keeps the min-ratio requirement (it guards
                // dual feasibility) but freezes ties on the first index
                // instead of the largest pivot.
                let replace = if ratio < best_ratio - 1e-12 {
                    true
                } else if use_bland {
                    false
                } else {
                    ratio <= best_ratio + 1e-12 && alpha.abs() > best_alpha
                };
                if replace {
                    best_ratio = ratio;
                    best_alpha = alpha.abs();
                    entering = Some((j, dirj));
                }
            }
            let Some((q, dirj)) = entering else {
                // The violated row admits no compensating column: the LP is
                // primal infeasible.
                return Inner::Infeasible;
            };

            let w = self.ftran_col(q);
            let alpha = w[r];
            if alpha.abs() <= PIVOT_TOL {
                // The FTRANed pivot disagrees with the priced one —
                // numerical drift. Refactorize and retry a bounded number
                // of times.
                self.scratch = w;
                stalls += 1;
                if stalls > 3 || !self.refactorize() {
                    return Inner::Stalled;
                }
                continue;
            }
            let t = ((self.x[b_r] - target) / (dirj * alpha)).max(0.0);

            *pivots += 1;
            let range = self.upper[q] - self.lower[q];
            if t > range + 1e-12 && range.is_finite() {
                self.counters.flips += 1;
                // Dual bound flip: the pivot would push the entering
                // variable past its opposite bound, so flip it across the
                // box instead and keep looking; the leaving row stays
                // infeasible (but strictly less so).
                for (i, &wi) in w.iter().enumerate() {
                    if wi != 0.0 {
                        self.x[self.basis[i]] -= dirj * range * wi;
                    }
                }
                self.x[q] = if dirj > 0.0 {
                    self.upper[q]
                } else {
                    self.lower[q]
                };
                self.status[q] = if dirj > 0.0 {
                    ColStatus::Upper
                } else {
                    ColStatus::Lower
                };
                self.scratch = w;
                continue;
            }

            self.counters.dual += 1;
            self.counters.attribute(self.pricing, use_bland);
            if devex {
                // Dual devex update off the FTRANed entering column (free —
                // it is already in hand): every row the pivot touches
                // inherits a rescaled weight through the pivot element.
                let gamma_r = self.row_weights[r].max(1.0);
                let mut peak = 1.0f64;
                for (i, &wi) in w.iter().enumerate() {
                    if i == r || wi == 0.0 {
                        continue;
                    }
                    let ratio = wi / alpha;
                    let candidate = ratio * ratio * gamma_r;
                    if candidate > self.row_weights[i] {
                        self.row_weights[i] = candidate;
                        peak = peak.max(candidate);
                    }
                }
                let pivot_weight = (gamma_r / (alpha * alpha)).max(1.0);
                self.row_weights[r] = pivot_weight;
                peak = peak.max(pivot_weight);
                if peak > DEVEX_RESET {
                    self.row_weights.fill(1.0);
                }
            }
            for (i, &wi) in w.iter().enumerate() {
                if wi != 0.0 {
                    self.x[self.basis[i]] -= dirj * t * wi;
                }
            }
            self.x[q] += dirj * t;
            self.x[b_r] = target;
            self.status[b_r] = if to_lower {
                ColStatus::Lower
            } else {
                ColStatus::Upper
            };
            self.status[q] = ColStatus::Basic;
            self.etas.push_column(r, &w, 0..self.m);
            self.basis[r] = q;
            self.scratch = w;
        }
    }

    /// Extracts the optimal solution from the current state.
    fn extract(&mut self, with_rc: bool) -> LpSolution {
        let mut values = Vec::with_capacity(self.n);
        for j in 0..self.n {
            let v = if self.lower[j] <= self.upper[j] {
                self.x[j].max(self.lower[j]).min(self.upper[j])
            } else {
                self.x[j]
            };
            values.push(v);
        }
        let objective = self.objective_constant
            + self
                .objective
                .iter()
                .zip(&values)
                .map(|(c, v)| c * v)
                .sum::<f64>();
        let reduced_costs = with_rc.then(|| self.reduced_costs());
        LpSolution {
            status: LpStatus::Optimal,
            objective,
            values,
            pivots: self.counters.primal + self.counters.dual,
            primal_pivots: self.counters.primal,
            dual_pivots: self.counters.dual,
            bound_flips: self.counters.flips,
            refactorizations: self.counters.refactorizations,
            devex_pivots: self.counters.devex,
            dantzig_pivots: self.counters.dantzig,
            bland_pivots: self.counters.bland,
            reduced_costs,
        }
    }

    /// Reduced costs of the structural columns at optimality, split into
    /// per-variable up/down marginal costs by nonbasic status.
    fn reduced_costs(&mut self) -> ReducedCosts {
        let mut y = std::mem::take(&mut self.scratch);
        self.basic_costs(false, &mut y);
        self.etas.btran(&mut y);
        let mut up = vec![0.0f64; self.n];
        let mut down = vec![0.0f64; self.n];
        for j in 0..self.n {
            if self.upper[j] - self.lower[j] <= EPS {
                continue;
            }
            match self.status[j] {
                ColStatus::Basic => {}
                ColStatus::Lower => {
                    up[j] = (self.cost(j) - self.col_dot(j, &y)).max(0.0);
                }
                ColStatus::Upper => {
                    down[j] = (self.col_dot(j, &y) - self.cost(j)).max(0.0);
                }
            }
        }
        self.scratch = y;
        ReducedCosts { up, down }
    }

    /// Packages the finished solve: the header for descendants, the row
    /// order and eta file for Gomory separation.
    fn into_factored(self) -> Factored {
        let fingerprint =
            instance_fingerprint(self.matrix, self.objective, self.objective_constant);
        Factored {
            header: Basis {
                status: self.status,
                rows: self.m,
                vars: self.n,
                fingerprint,
            },
            basis: self.basis,
            etas: self.etas,
        }
    }

    /// The solve's result for an inner-loop outcome: at optimality the
    /// solution (with reduced costs and the factored basis when
    /// `warm_capable`), otherwise the status and the counters.
    fn finish(mut self, inner: Inner, warm_capable: bool) -> (LpSolution, Option<Factored>) {
        let status = match inner {
            Inner::Optimal => {
                let solution = self.extract(warm_capable);
                return (solution, warm_capable.then(|| self.into_factored()));
            }
            Inner::Infeasible => LpStatus::Infeasible,
            Inner::Unbounded => LpStatus::Unbounded,
            Inner::IterationLimit => LpStatus::IterationLimit,
            Inner::Stalled => LpStatus::Stalled,
        };
        (LpSolution::no_solution(status, self.counters), None)
    }
}

/// Solves the LP `minimise Σ objective[j]·x[j] + objective_constant` subject
/// to the rows of `matrix` and the variable box described by `domains`.
///
/// `matrix` must reference variable indices smaller than `domains.len()`.
/// Integrality of the domains is ignored (this is the relaxation).
pub fn solve_lp(
    matrix: &SparseModel,
    objective: &[f64],
    objective_constant: f64,
    domains: &Domains,
    max_pivots: u64,
) -> LpSolution {
    solve_lp_priced(
        matrix,
        objective,
        objective_constant,
        domains,
        max_pivots,
        Pricing::default(),
    )
}

/// [`solve_lp`] under an explicit [`Pricing`] rule.
pub fn solve_lp_priced(
    matrix: &SparseModel,
    objective: &[f64],
    objective_constant: f64,
    domains: &Domains,
    max_pivots: u64,
    pricing: Pricing,
) -> LpSolution {
    solve_cold(
        matrix,
        objective,
        objective_constant,
        domains,
        max_pivots,
        false,
        pricing,
    )
    .0
}

/// Warm-capable cold solve: like [`solve_lp`], but returns the optimal
/// [`Basis`] so descendant nodes can re-solve from it with the dual simplex
/// ([`resolve_with_basis`]), and the solution reports [`ReducedCosts`].
pub fn solve_lp_basis(
    matrix: &SparseModel,
    objective: &[f64],
    objective_constant: f64,
    domains: &Domains,
    max_pivots: u64,
) -> (LpSolution, Option<Basis>) {
    solve_lp_basis_priced(
        matrix,
        objective,
        objective_constant,
        domains,
        max_pivots,
        Pricing::default(),
    )
}

/// [`solve_lp_basis`] under an explicit [`Pricing`] rule.
pub fn solve_lp_basis_priced(
    matrix: &SparseModel,
    objective: &[f64],
    objective_constant: f64,
    domains: &Domains,
    max_pivots: u64,
    pricing: Pricing,
) -> (LpSolution, Option<Basis>) {
    let (lp, factored) = solve_cold(
        matrix,
        objective,
        objective_constant,
        domains,
        max_pivots,
        true,
        pricing,
    );
    (lp, factored.map(Factored::into_header))
}

/// The cold two-phase solve behind [`solve_lp`] and [`solve_lp_basis`];
/// when `warm_capable`, an optimal solve also returns its [`Factored`]
/// basis.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_cold(
    matrix: &SparseModel,
    objective: &[f64],
    objective_constant: f64,
    domains: &Domains,
    max_pivots: u64,
    warm_capable: bool,
    pricing: Pricing,
) -> (LpSolution, Option<Factored>) {
    if domains.is_infeasible() {
        return (
            LpSolution::no_solution(LpStatus::Infeasible, Counters::default()),
            None,
        );
    }
    let mut kernel = Kernel::cold(matrix, objective, objective_constant, domains, pricing);
    let inner = kernel.solve_two_phase(max_pivots, &mut 0);
    kernel.finish(inner, warm_capable)
}

/// Re-solves the LP of `matrix` under the changed bounds of `domains` with
/// the **bounded dual simplex**, starting from a stored optimal [`Basis`]
/// header, which is factorized afresh first.
///
/// Because bounds are implicit (never rows), *any* bound change — tightened
/// or relaxed — leaves the stored basis dual feasible; the reuse
/// preconditions are that the matrix *and the objective* are exactly the
/// ones the basis was solved under (dual feasibility is a statement about
/// the costs). Returns `None` when the fingerprint disagrees (the
/// branch-and-bound solver rebuilt the row set with cuts), in which case
/// the caller should fall back to a cold solve. Otherwise returns the
/// solution and, at optimality, the re-solved basis for further
/// descendants. A header whose basic set proves numerically singular
/// reports [`LpStatus::Stalled`].
pub fn resolve_with_basis(
    matrix: &SparseModel,
    objective: &[f64],
    objective_constant: f64,
    basis: &Basis,
    domains: &Domains,
    max_pivots: u64,
) -> Option<(LpSolution, Option<Basis>)> {
    resolve_with_basis_priced(
        matrix,
        objective,
        objective_constant,
        basis,
        domains,
        max_pivots,
        Pricing::default(),
    )
}

/// [`resolve_with_basis`] under an explicit [`Pricing`] rule (the devex row
/// weights of the dual path start a fresh reference framework per re-solve).
#[allow(clippy::too_many_arguments)]
pub fn resolve_with_basis_priced(
    matrix: &SparseModel,
    objective: &[f64],
    objective_constant: f64,
    basis: &Basis,
    domains: &Domains,
    max_pivots: u64,
    pricing: Pricing,
) -> Option<(LpSolution, Option<Basis>)> {
    let (lp, factored) = resolve(
        matrix,
        objective,
        objective_constant,
        basis,
        domains,
        max_pivots,
        pricing,
    )?;
    Some((lp, factored.map(Factored::into_header)))
}

/// The warm re-solve behind [`resolve_with_basis`]; an optimal re-solve
/// also returns its [`Factored`] basis.
#[allow(clippy::too_many_arguments)]
pub(crate) fn resolve(
    matrix: &SparseModel,
    objective: &[f64],
    objective_constant: f64,
    basis: &Basis,
    domains: &Domains,
    max_pivots: u64,
    pricing: Pricing,
) -> Option<(LpSolution, Option<Factored>)> {
    if !basis.fits(matrix, objective, objective_constant, domains) {
        return None;
    }
    if domains.is_infeasible() {
        return Some((
            LpSolution::no_solution(LpStatus::Infeasible, Counters::default()),
            None,
        ));
    }
    let Some(mut kernel) = Kernel::warm(
        matrix,
        objective,
        objective_constant,
        domains,
        basis,
        pricing,
    ) else {
        let counters = Counters {
            refactorizations: 1,
            ..Counters::default()
        };
        return Some((LpSolution::no_solution(LpStatus::Stalled, counters), None));
    };
    let inner = kernel.run_dual(max_pivots, &mut 0);
    Some(kernel.finish(inner, true))
}

/// Factorizes a stored header under the box `domains` without pivoting:
/// the factorization a warm start from `basis` would begin with. `None`
/// when the basis does not fit the instance, the box is empty, or the
/// basic set proves singular.
pub(crate) fn factorize(
    matrix: &SparseModel,
    objective: &[f64],
    objective_constant: f64,
    basis: &Basis,
    domains: &Domains,
) -> Option<Factored> {
    if !basis.fits(matrix, objective, objective_constant, domains) || domains.is_infeasible() {
        return None;
    }
    Kernel::warm(
        matrix,
        objective,
        objective_constant,
        domains,
        basis,
        Pricing::default(),
    )
    .map(Kernel::into_factored)
}

/// One term of a Gomory row scan: nonbasic column, its shifted tableau
/// coefficient, the global bound it was shifted to, whether the shift runs
/// down from the upper bound, and whether the shifted variable is integral.
struct GomoryTerm {
    col: usize,
    shifted: f64,
    bound: f64,
    from_upper: bool,
    integral: bool,
}

impl Kernel<'_> {
    /// Derives the Gomory mixed-integer cut of tableau row `r`, returned in
    /// structural space as `Σ coeff·x ≤ rhs`, or `None` if the row yields
    /// no usable cut (integral shifted constant, unbounded shift, noise-only
    /// coefficients, or excessive dynamism).
    ///
    /// The derivation works on the shifted row `x_b + Σ α'_j·t_j = β'`
    /// where every nonbasic is re-expressed as a distance `t_j ≥ 0` from a
    /// **globally valid** bound (`global`, the root box — not the node box
    /// this kernel was solved under). Shifting to root bounds keeps the cut
    /// valid for the whole tree, so node-separated Gomory cuts can enter
    /// the shared pool: variables fixed by branching simply carry a nonzero
    /// shifted value `t_j` instead of zero, which only moves `β'`. With
    /// `f0 = frac(β')`, the mixed-integer Gomory inequality is
    /// `Σ g(α'_j)·t_j ≥ f0`, where integral terms take
    /// `g = f_j` if `f_j ≤ f0` else `f0·(1−f_j)/(1−f0)` (with
    /// `f_j = frac(α'_j)`) and continuous terms (slacks included) take
    /// `g = α'` if `α' > 0` else `f0·(−α')/(1−f0)`. Un-shifting through the
    /// bounds and the slack definitions turns it into a `≤` row over the
    /// structural variables.
    fn gomory_from_row(
        &self,
        r: usize,
        global: &Domains,
        integral: &[bool],
        rho: &mut [f64],
    ) -> Option<(Vec<(usize, f64)>, f64)> {
        let b = self.basis[r];
        rho.fill(0.0);
        rho[r] = 1.0;
        self.etas.btran(rho);

        // Pass 1: shifted coefficients and the shifted row constant β'.
        let mut terms: Vec<GomoryTerm> = Vec::new();
        let mut beta = self.x[b];
        for j in 0..self.ncols {
            if self.status[j] == ColStatus::Basic {
                continue;
            }
            let alpha = self.col_dot(j, rho);
            if alpha.abs() <= DROP_TOL {
                continue;
            }
            let from_upper = self.status[j] == ColStatus::Upper;
            // Shift to the *root* bound on the status side; slack bounds
            // come from the row sense and never tighten per node.
            let bound = if j < self.n {
                if from_upper {
                    global.upper(j)
                } else {
                    global.lower(j)
                }
            } else if from_upper {
                self.upper[j]
            } else {
                self.lower[j]
            };
            if !bound.is_finite() {
                return None;
            }
            let shifted = if from_upper { -alpha } else { alpha };
            // t_j at the current point (nonzero when branching moved the
            // node bound off the root bound); folds into β'.
            let t_now = if from_upper {
                bound - self.x[j]
            } else {
                self.x[j] - bound
            };
            beta += shifted * t_now;
            let int_term = j < self.n
                && integral.get(j).copied().unwrap_or(false)
                && (bound - bound.round()).abs() <= FEAS_TOL;
            terms.push(GomoryTerm {
                col: j,
                shifted,
                bound,
                from_upper,
                integral: int_term,
            });
        }
        let f0 = beta - beta.floor();
        if !(GOMORY_MIN_FRAC..=1.0 - GOMORY_MIN_FRAC).contains(&f0) {
            return None;
        }

        // Pass 2: GMI coefficients, un-shifted into `Σ coeff·x ≥ rhs_ge`.
        let mut coeff = vec![0.0f64; self.n];
        let mut rhs_ge = f0;
        for term in &terms {
            let g = if term.integral {
                let fj = term.shifted - term.shifted.floor();
                if fj <= f0 {
                    fj
                } else {
                    f0 * (1.0 - fj) / (1.0 - f0)
                }
            } else if term.shifted > 0.0 {
                term.shifted
            } else {
                f0 * (-term.shifted) / (1.0 - f0)
            };
            if g == 0.0 {
                continue;
            }
            if term.col < self.n {
                // t = x − l or u − x.
                if term.from_upper {
                    coeff[term.col] -= g;
                    rhs_ge -= g * term.bound;
                } else {
                    coeff[term.col] += g;
                    rhs_ge += g * term.bound;
                }
            } else {
                // Le slack at lower 0: t = rhs_i − a·x; Ge slack at upper
                // 0: t = a·x − rhs_i.
                let row = self.matrix.row(term.col - self.n);
                let sign = if term.from_upper { 1.0 } else { -1.0 };
                for (col, a) in row.terms() {
                    coeff[col] += sign * g * a;
                }
                rhs_ge += sign * g * row.rhs;
            }
        }

        // Flip to the pool's `≤` orientation; noise terms are dropped by
        // relaxing the rhs with their worst-case contribution over the root
        // box, so validity is preserved exactly.
        let mut cut: Vec<(usize, f64)> = Vec::new();
        let mut rhs_le = -rhs_ge;
        let mut max_abs = 0.0f64;
        let mut min_abs = f64::INFINITY;
        for (j, &c) in coeff.iter().enumerate() {
            let v = -c;
            if v == 0.0 {
                continue;
            }
            if v.abs() <= 1e-9 {
                let worst = (v * global.lower(j)).min(v * global.upper(j));
                if !worst.is_finite() {
                    return None;
                }
                rhs_le -= worst;
                continue;
            }
            max_abs = max_abs.max(v.abs());
            min_abs = min_abs.min(v.abs());
            cut.push((j, v));
        }
        if cut.is_empty() || max_abs / min_abs > GOMORY_MAX_DYNAMISM {
            return None;
        }
        // A hair of slack absorbs accumulated float error: a Gomory cut
        // must never shave the integer optimum by a rounding artifact.
        rhs_le += 1e-7 * (1.0 + rhs_le.abs());
        Some((cut, rhs_le))
    }
}

/// Reads Gomory mixed-integer cuts off the fractional rows of an optimal
/// basis, returned in structural space as `(terms, rhs)` rows meaning
/// `Σ terms·x ≤ rhs`. The tableau rows come from the factorization the
/// basis's solve finished with ([`Factored`]).
///
/// `domains` is the box the basis was solved under (the node box);
/// `global` is the root box the cuts must stay valid over — pass the same
/// reference twice when separating at the root. `integral[j]` marks the
/// integer-constrained structurals. Rows whose basic variable is an
/// integral structural with fractional value are scanned most-fractional
/// first, and at most `max_cuts` cuts are returned. The basis must match
/// the instance (same fingerprint discipline as [`resolve_with_basis`]);
/// on any mismatch the result is empty rather than wrong.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gomory_cuts(
    matrix: &SparseModel,
    objective: &[f64],
    objective_constant: f64,
    basis: &Factored,
    domains: &Domains,
    global: &Domains,
    integral: &[bool],
    max_cuts: usize,
) -> Vec<(Vec<(usize, f64)>, f64)> {
    if max_cuts == 0
        || integral.len() != domains.len()
        || global.len() != domains.len()
        || !basis
            .header
            .fits(matrix, objective, objective_constant, domains)
        || domains.is_infeasible()
    {
        return Vec::new();
    }
    let kernel = Kernel::finished(matrix, objective, objective_constant, domains, basis);
    let mut candidates: Vec<(f64, usize)> = Vec::new();
    for r in 0..kernel.m {
        let b = kernel.basis[r];
        if b >= kernel.n || !integral[b] {
            continue;
        }
        let frac = kernel.x[b] - kernel.x[b].floor();
        if !(GOMORY_MIN_FRAC..=1.0 - GOMORY_MIN_FRAC).contains(&frac) {
            continue;
        }
        candidates.push(((frac - 0.5).abs(), r));
    }
    candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

    let mut cuts = Vec::new();
    let mut rho = vec![0.0f64; kernel.m];
    for &(_, r) in &candidates {
        if cuts.len() >= max_cuts {
            break;
        }
        if let Some(cut) = kernel.gomory_from_row(r, global, integral, &mut rho) {
            cuts.push(cut);
        }
    }
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Sense, VarId};

    fn relax(model: &Model) -> (SparseModel, Vec<f64>, f64, Domains) {
        let objective: Vec<f64> = model.vars().iter().map(|v| v.objective).collect();
        let constant = model.objective().offset();
        (
            SparseModel::from_model(model),
            objective,
            constant,
            Domains::from_model(model),
        )
    }

    // ---- bit-identity of the sparse kernels against dense oracles ----

    /// One eta as exact bits: row, pivot, term rows, term values.
    type EtaBits = (u32, u64, Vec<u32>, Vec<u64>);

    impl Kernel<'_> {
        /// The dense Gauss-Jordan refactorization the sparse one replaced:
        /// every column is FTRANed through the whole eta file built so far
        /// and the pivot is scanned over all rows. Kept as the oracle the
        /// sparse version must reproduce bit for bit.
        fn refactorize_dense(&mut self) -> bool {
            self.counters.refactorizations += 1;
            self.etas.clear();
            let cols = self.refactor_order();
            let mut assigned = vec![false; self.m];
            let mut new_basis = vec![usize::MAX; self.m];
            let mut w = std::mem::take(&mut self.scratch);
            let mut ok = true;
            for &c in &cols {
                w.fill(0.0);
                self.scatter_col(c, &mut w);
                self.etas.ftran(&mut w);
                let mut best = PIVOT_TOL;
                let mut row = usize::MAX;
                for (i, &wi) in w.iter().enumerate() {
                    if !assigned[i] && wi.abs() > best {
                        best = wi.abs();
                        row = i;
                    }
                }
                if row == usize::MAX {
                    ok = false;
                    break;
                }
                assigned[row] = true;
                new_basis[row] = c;
                self.etas.push_column(row, &w, 0..self.m);
            }
            self.scratch = w;
            if !ok {
                self.etas.clear();
                self.base_etas = 0;
                return false;
            }
            self.basis = new_basis;
            self.base_etas = self.etas.len();
            self.compute_basics();
            true
        }

        /// The eta file as exact bit patterns.
        fn eta_bits(&self) -> Vec<EtaBits> {
            (0..self.etas.len())
                .map(|k| self.etas.eta(k))
                .map(|(row, pivot, idx, val)| {
                    (
                        row,
                        pivot.to_bits(),
                        idx.to_vec(),
                        val.iter().map(|v| v.to_bits()).collect(),
                    )
                })
                .collect()
        }

        /// Everything a refactorization determines, as exact bits.
        fn factor_bits(&self) -> (Vec<EtaBits>, Vec<usize>, Vec<u64>) {
            (
                self.eta_bits(),
                self.basis.clone(),
                self.x.iter().map(|v| v.to_bits()).collect(),
            )
        }
    }

    /// SplitMix64: a small seeded generator for the randomized tests.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }
    }

    /// A random sparse LP shaped like the BIST relaxations: binaries and
    /// boxed continuous variables, short rows of small integer
    /// coefficients, all three row senses, mixed-sign costs.
    fn random_model(rng: &mut Rng, vars: usize, rows: usize) -> Model {
        let mut m = Model::new("random");
        let xs: Vec<_> = (0..vars)
            .map(|j| {
                if j % 3 == 0 {
                    m.add_continuous(format!("x{j}"), 0.0, 4.0)
                } else {
                    m.add_binary(format!("x{j}"))
                }
            })
            .collect();
        for i in 0..rows {
            let len = 2 + rng.below(4);
            let mut terms: Vec<(VarId, f64)> = Vec::new();
            for _ in 0..len {
                let x = xs[rng.below(vars)];
                if terms.iter().all(|&(y, _)| y != x) {
                    terms.push((x, rng.below(7) as f64 - 3.0 + 0.5 * (rng.below(2) as f64)));
                }
            }
            let rhs = rng.below(4) as f64;
            match rng.below(8) {
                0..=2 => m.add_geq(terms, rhs - 2.0, format!("r{i}")),
                3 => m.add_eq(terms, rhs, format!("r{i}")),
                _ => m.add_leq(terms, rhs + 1.0, format!("r{i}")),
            };
        }
        m.set_objective(
            xs.iter()
                .map(|&x| (x, rng.below(9) as f64 - 4.0))
                .collect::<Vec<_>>(),
            Sense::Minimize,
        );
        m
    }

    /// A kernel over `matrix` whose basic set is `cols` (one per row), not
    /// yet factorized.
    fn kernel_with_basis<'a>(
        matrix: &'a SparseModel,
        objective: &'a [f64],
        domains: &Domains,
        cols: &[usize],
    ) -> Kernel<'a> {
        let mut k = Kernel::cold(matrix, objective, 0.0, domains, Pricing::Devex);
        for j in 0..k.ncols {
            k.status[j] = ColStatus::Lower;
        }
        for &c in cols {
            k.status[c] = ColStatus::Basic;
        }
        k.basis = cols.to_vec();
        k.etas.clear();
        k.snap_nonbasics();
        k
    }

    /// Refactorizes the same basis sparsely and densely and asserts the
    /// two agree on success and, if so, on every bit of the result.
    /// Returns whether the basis was nonsingular.
    fn assert_refactorizations_agree(mut sparse: Kernel<'_>, mut dense: Kernel<'_>) -> bool {
        let ok = sparse.refactorize();
        assert_eq!(ok, dense.refactorize_dense(), "singularity verdicts differ");
        assert_eq!(sparse.factor_bits(), dense.factor_bits());
        assert_eq!(sparse.base_etas, dense.base_etas);
        ok
    }

    #[test]
    fn sparse_refactorization_matches_dense_on_random_bases() {
        let mut rng = Rng(0x5eed_fac7);
        let (mut regular, mut singular) = (0, 0);
        for _ in 0..300 {
            let (n, m) = (8 + rng.below(30), 6 + rng.below(24));
            let model = random_model(&mut rng, n, m);
            let (matrix, objective, _, domains) = relax(&model);
            // Up to one structural column per row (drawn from the columns
            // the rows mention), topped up with random slacks.
            let structurals = rng.below(m + 1);
            let mut cols: Vec<usize> = Vec::new();
            for _ in 0..4 * m {
                let c = rng.below(n);
                if cols.len() < structurals && matrix.occurrences(c) > 0 && !cols.contains(&c) {
                    cols.push(c);
                }
            }
            while cols.len() < m {
                let c = n + rng.below(m);
                if !cols.contains(&c) {
                    cols.push(c);
                }
            }
            let sparse = kernel_with_basis(&matrix, &objective, &domains, &cols);
            let dense = kernel_with_basis(&matrix, &objective, &domains, &cols);
            if assert_refactorizations_agree(sparse, dense) {
                regular += 1;
            } else {
                singular += 1;
            }
        }
        assert!(
            regular > 30 && singular > 30,
            "{regular} regular, {singular} singular"
        );
    }

    #[test]
    fn sparse_refactorization_rejects_a_singular_basis_like_dense() {
        // Two identical columns can never both be basic.
        let mut m = Model::new("twins");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        let z = m.add_binary("z");
        m.add_leq([(x, 1.0), (y, 1.0), (z, 2.0)], 2.0, "a");
        m.add_geq([(x, 2.0), (y, 2.0), (z, 1.0)], 1.0, "b");
        m.set_objective([(x, 1.0)], Sense::Minimize);
        let (matrix, objective, _, domains) = relax(&m);
        let mut sparse = kernel_with_basis(&matrix, &objective, &domains, &[0, 1]);
        let mut dense = kernel_with_basis(&matrix, &objective, &domains, &[0, 1]);
        assert!(!sparse.refactorize());
        assert!(!dense.refactorize_dense());
        assert_eq!(sparse.factor_bits(), dense.factor_bits());
        assert_eq!(sparse.etas.len(), 0);
        // Swapping one twin for the third column makes it regular.
        let sparse = kernel_with_basis(&matrix, &objective, &domains, &[0, 2]);
        let dense = kernel_with_basis(&matrix, &objective, &domains, &[0, 2]);
        assert!(assert_refactorizations_agree(sparse, dense));
    }

    /// Optimal bases along random warm re-solve chains (each fixing one
    /// more binary), each with the factorization its solve finished with,
    /// paired with its box.
    fn warm_chain(
        rng: &mut Rng,
        matrix: &SparseModel,
        objective: &[f64],
        root: &Domains,
    ) -> Vec<(Factored, Domains)> {
        let mut out = Vec::new();
        let (lp, basis) = solve_cold(matrix, objective, 0.0, root, 10_000, true, Pricing::Devex);
        let Some(basis) = basis.filter(|_| lp.status == LpStatus::Optimal) else {
            return out;
        };
        out.push((basis, root.clone()));
        for _ in 0..6 {
            let (parent, domains) = out.last().expect("the root basis");
            let j = rng.below(domains.len());
            let mut child = domains.clone();
            if !child.fix(j, rng.below(2) as f64) {
                continue;
            }
            let Some((lp, Some(next))) = resolve(
                matrix,
                objective,
                0.0,
                &parent.header,
                &child,
                10_000,
                Pricing::Devex,
            ) else {
                continue;
            };
            assert_eq!(lp.status, LpStatus::Optimal);
            out.push((next, child));
        }
        out
    }

    #[test]
    fn refactorizing_a_header_reproduces_the_stored_factorization_bits() {
        // A warm start factorizes its header afresh. Straight from the
        // solve or back through the snapshot wire form, and whatever row
        // order the solve left its basic columns in, the result — eta bits,
        // row order, basic values — is exactly the refactorization of the
        // solve's own basis: a live and a resumed run start every warm
        // solve from the same bits.
        use crate::json::Value;
        let mut rng = Rng(0x4ead_e125);
        let (mut checked, mut reordered, mut warm) = (0, 0, 0);
        for _ in 0..100 {
            let (n, m) = (20 + rng.below(25), 12 + rng.below(20));
            let model = random_model(&mut rng, n, m);
            let (matrix, objective, _, root) = relax(&model);
            for (factored, domains) in warm_chain(&mut rng, &matrix, &objective, &root) {
                let mut stored = Kernel::finished(&matrix, &objective, 0.0, &domains, &factored);
                assert!(stored.refactorize(), "an optimal basis is regular");
                reordered += usize::from(stored.basis != factored.basis);
                warm += usize::from(stored.etas.len() < factored.etas.len());
                let live = Kernel::warm(
                    &matrix,
                    &objective,
                    0.0,
                    &domains,
                    &factored.header,
                    Pricing::Devex,
                )
                .expect("regular");
                let wire = Value::parse(&factored.header.snapshot_value().write()).unwrap();
                let header = Basis::from_snapshot_value(&wire).expect("round trip");
                assert_eq!(header, factored.header);
                let resumed =
                    Kernel::warm(&matrix, &objective, 0.0, &domains, &header, Pricing::Devex)
                        .expect("regular");
                assert_eq!(live.factor_bits(), stored.factor_bits());
                assert_eq!(resumed.factor_bits(), live.factor_bits());
                checked += 1;
            }
        }
        assert!(
            checked > 100 && reordered > 20 && warm > 20,
            "{checked} bases, {reordered} reordered, {warm} with update etas"
        );
    }

    /// A random dense vector with about a third of its entries zero.
    fn random_vector(rng: &mut Rng, m: usize) -> Vec<f64> {
        (0..m)
            .map(|_| match rng.below(3) {
                0 => 0.0,
                _ => rng.below(2001) as f64 / 1000.0 - 1.0,
            })
            .collect()
    }

    #[test]
    fn two_vector_btran_matches_two_single_passes() {
        let mut rng = Rng(0xb7a2);
        let mut compared = 0;
        for _ in 0..80 {
            let (n, m) = (20 + rng.below(25), 12 + rng.below(20));
            let model = random_model(&mut rng, n, m);
            let (matrix, objective, _, root) = relax(&model);
            for (basis, domains) in warm_chain(&mut rng, &matrix, &objective, &root) {
                let mut kernel = Kernel::finished(&matrix, &objective, 0.0, &domains, &basis);
                // Append a few etas behind the solve's file, as further
                // pivots would.
                for _ in 0..3 {
                    let (q, r) = (rng.below(kernel.n), rng.below(kernel.m));
                    let w = kernel.ftran_col(q);
                    if w[r].abs() > PIVOT_TOL {
                        kernel.etas.push_column(r, &w, 0..kernel.m);
                    }
                    kernel.scratch = w;
                }
                let m = kernel.m;
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let (u0, v0) = (random_vector(&mut rng, m), random_vector(&mut rng, m));
                let (mut u1, mut v1) = (u0.clone(), v0.clone());
                kernel.etas.btran(&mut u1);
                kernel.etas.btran(&mut v1);
                let (mut u2, mut v2) = (u0.clone(), v0.clone());
                kernel.etas.btran2(&mut u2, &mut v2);
                assert_eq!(bits(&u1), bits(&u2));
                assert_eq!(bits(&v1), bits(&v2));
                // The fused primal split: `v` alone through the etas from
                // `pre` on, then both through the head, equals a full BTRAN
                // of `v` and a head-only BTRAN of `u`.
                let len = kernel.etas.len();
                let pre = rng.below(len + 1);
                let (mut u3, mut v3) = (u0.clone(), v0.clone());
                kernel.etas.btran_range(&mut v3, pre..len);
                kernel.etas.btran2_range(&mut u3, &mut v3, 0..pre);
                let mut u4 = u0.clone();
                kernel.etas.btran_range(&mut u4, 0..pre);
                assert_eq!(bits(&v1), bits(&v3));
                assert_eq!(bits(&u4), bits(&u3));
                compared += 1;
            }
        }
        assert!(compared > 50, "{compared}");
    }

    #[test]
    fn row_wise_pivot_row_matches_column_dot_products() {
        let mut rng = Rng(0x0a1f);
        let mut nonzero = 0;
        for _ in 0..80 {
            let (n, m) = (20 + rng.below(25), 12 + rng.below(20));
            let model = random_model(&mut rng, n, m);
            let (matrix, objective, _, root) = relax(&model);
            for (basis, domains) in warm_chain(&mut rng, &matrix, &objective, &root) {
                let kernel = Kernel::finished(&matrix, &objective, 0.0, &domains, &basis);
                let mut row = PivotRow::new(kernel.n);
                let mut rho = vec![0.0; kernel.m];
                for r in 0..kernel.m {
                    rho.fill(0.0);
                    rho[r] = 1.0;
                    kernel.etas.btran(&mut rho);
                    row.compute(&matrix, &rho);
                    let mut row_wise = vec![0.0; kernel.ncols];
                    for &j in &row.cols {
                        row_wise[j] = row.alpha[j];
                    }
                    for &i in &row.rows {
                        row_wise[kernel.n + i] = rho[i];
                    }
                    for j in (0..kernel.ncols).filter(|&j| kernel.status[j] != ColStatus::Basic) {
                        let dot = kernel.col_dot(j, &rho);
                        if dot == 0.0 {
                            assert_eq!(row_wise[j], 0.0, "column {j}");
                        } else {
                            assert_eq!(row_wise[j].to_bits(), dot.to_bits(), "column {j}");
                            nonzero += 1;
                        }
                    }
                }
            }
        }
        assert!(nonzero > 1000, "{nonzero}");
    }

    #[test]
    fn simple_minimisation() {
        // min x + y  s.t.  x + y >= 1,  0 <= x,y <= 1   => objective 1
        let mut m = Model::new("m");
        let x = m.add_continuous("x", 0.0, 1.0);
        let y = m.add_continuous("y", 0.0, 1.0);
        m.add_geq([(x, 1.0), (y, 1.0)], 1.0, "c");
        m.set_objective([(x, 1.0), (y, 1.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax(&m);
        let sol = solve_lp(&rows, &obj, k, &dom, 10_000);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 1.0).abs() < 1e-6);
    }

    #[test]
    fn maximisation_via_negated_costs() {
        // max 3x + 2y  s.t. x + y <= 4, x <= 2, y <= 3  (x,y >= 0)
        // optimum x=2, y=2 -> 10; we solve min of the negation.
        let mut m = Model::new("m");
        let x = m.add_continuous("x", 0.0, 2.0);
        let y = m.add_continuous("y", 0.0, 3.0);
        m.add_leq([(x, 1.0), (y, 1.0)], 4.0, "cap");
        m.set_objective([(x, -3.0), (y, -2.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax(&m);
        let sol = solve_lp(&rows, &obj, k, &dom, 10_000);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(
            (sol.objective + 10.0).abs() < 1e-6,
            "objective {}",
            sol.objective
        );
        assert!((sol.values[x.index()] - 2.0).abs() < 1e-6);
        assert!((sol.values[y.index()] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn equality_constraints() {
        // min 2x + 3y  s.t.  x + y = 5, x <= 3, y <= 4
        // optimum x=3, y=2 -> 12
        let mut m = Model::new("m");
        let x = m.add_continuous("x", 0.0, 3.0);
        let y = m.add_continuous("y", 0.0, 4.0);
        m.add_eq([(x, 1.0), (y, 1.0)], 5.0, "sum");
        m.set_objective([(x, 2.0), (y, 3.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax(&m);
        let sol = solve_lp(&rows, &obj, k, &dom, 10_000);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 12.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_lp() {
        // x >= 2 with x <= 1 is infeasible.
        let mut m = Model::new("m");
        let x = m.add_continuous("x", 0.0, 1.0);
        m.add_geq([(x, 1.0)], 2.0, "c");
        m.set_objective([(x, 1.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax(&m);
        let sol = solve_lp(&rows, &obj, k, &dom, 10_000);
        assert_eq!(sol.status, LpStatus::Infeasible);
    }

    #[test]
    fn fixed_variables_stay_at_their_value() {
        // min x + y s.t. x + y >= 3 with y fixed at 2 => x = 1.
        let mut m = Model::new("m");
        let x = m.add_continuous("x", 0.0, 5.0);
        let y = m.add_continuous("y", 0.0, 5.0);
        m.add_geq([(x, 1.0), (y, 1.0)], 3.0, "c");
        m.set_objective([(x, 1.0), (y, 1.0)], Sense::Minimize);
        let (rows, obj, k, mut dom) = relax(&m);
        dom.fix(y.index(), 2.0);
        let sol = solve_lp(&rows, &obj, k, &dom, 10_000);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.values[x.index()] - 1.0).abs() < 1e-6);
        assert!((sol.values[y.index()] - 2.0).abs() < 1e-6);
        assert!((sol.objective - 3.0).abs() < 1e-6);
    }

    #[test]
    fn relaxation_of_binary_knapsack_is_fractional() {
        // max 6a + 5b + 4c st 3a + 2b + 2c <= 4 (binaries). We simply assert
        // the relaxation is at least as good as the best integral solution
        // (b + c = 9) and the solve succeeds.
        let mut m = Model::new("m");
        let a = m.add_binary("a");
        let b = m.add_binary("b");
        let c = m.add_binary("c");
        m.add_leq([(a, 3.0), (b, 2.0), (c, 2.0)], 4.0, "cap");
        m.set_objective([(a, -6.0), (b, -5.0), (c, -4.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax(&m);
        let sol = solve_lp(&rows, &obj, k, &dom, 10_000);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(sol.objective <= -9.0 + 1e-6);
    }

    #[test]
    fn negative_rhs_rows_are_handled() {
        // -x <= -1  (i.e. x >= 1) with x in [0, 2], min x => 1.
        let mut m = Model::new("m");
        let x = m.add_continuous("x", 0.0, 2.0);
        m.add_leq([(x, -1.0)], -1.0, "c");
        m.set_objective([(x, 1.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax(&m);
        let sol = solve_lp(&rows, &obj, k, &dom, 10_000);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 1.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Several redundant constraints through the same vertex.
        let mut m = Model::new("m");
        let x = m.add_continuous("x", 0.0, 10.0);
        let y = m.add_continuous("y", 0.0, 10.0);
        m.add_leq([(x, 1.0), (y, 1.0)], 2.0, "a");
        m.add_leq([(x, 2.0), (y, 2.0)], 4.0, "b");
        m.add_leq([(x, 1.0)], 2.0, "c");
        m.add_leq([(y, 1.0)], 2.0, "d");
        m.set_objective([(x, -1.0), (y, -1.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax(&m);
        let sol = solve_lp(&rows, &obj, k, &dom, 10_000);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective + 2.0).abs() < 1e-6);
    }

    #[test]
    fn empty_and_constant_rows_are_checked() {
        // A model whose only row mentions no free variable must still be
        // feasibility-checked against the fixed values.
        let mut m = Model::new("m");
        let x = m.add_continuous("x", 0.0, 4.0);
        m.add_geq([(x, 1.0)], 3.0, "c");
        m.set_objective([(x, 1.0)], Sense::Minimize);
        let (rows, obj, k, mut dom) = relax(&m);
        dom.fix(x.index(), 1.0); // violates x >= 3
        let sol = solve_lp(&rows, &obj, k, &dom, 10_000);
        assert_eq!(sol.status, LpStatus::Infeasible);
        let (rows, obj, k, mut dom) = relax(&m);
        dom.fix(x.index(), 3.5);
        let sol = solve_lp(&rows, &obj, k, &dom, 10_000);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 3.5).abs() < 1e-6);
    }

    #[test]
    fn unbounded_lp_is_detected() {
        // A genuinely unbounded ray needs an infinite variable bound — the
        // BIST models never have one, but the kernel must still label the
        // case instead of looping: min -x with x in [0, +inf) and a
        // non-binding row.
        let mut m = Model::new("m");
        let x = m.add_continuous("x", 0.0, f64::INFINITY);
        let y = m.add_continuous("y", 0.0, 1.0);
        m.add_geq([(x, 1.0), (y, 1.0)], 1.0, "c");
        m.set_objective([(x, -1.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax(&m);
        let sol = solve_lp(&rows, &obj, k, &dom, 10_000);
        assert_eq!(sol.status, LpStatus::Unbounded);
        assert!(sol.values.is_empty());
        // The same box with a finite ceiling solves at that ceiling.
        let mut m2 = Model::new("m2");
        let x2 = m2.add_continuous("x", 0.0, 1e12);
        m2.add_geq([(x2, 1.0)], 1.0, "c");
        m2.set_objective([(x2, -1.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax(&m2);
        let sol = solve_lp(&rows, &obj, k, &dom, 10_000);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective + 1e12).abs() < 1.0);
    }

    #[test]
    fn refactorization_engages_on_long_solves() {
        // A chain model long enough to force more pivots than the eta-file
        // limit, so at least one mid-solve refactorization must happen.
        let mut m = Model::new("chain");
        let vars: Vec<_> = (0..120)
            .map(|i| m.add_continuous(format!("x{i}"), 0.0, 10.0))
            .collect();
        for w in vars.windows(2) {
            m.add_geq([(w[0], 1.0), (w[1], 1.0)], 1.0, "link");
        }
        m.set_objective(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, 1.0 + 0.01 * (i % 7) as f64))
                .collect::<Vec<_>>(),
            Sense::Minimize,
        );
        let (rows, obj, k, dom) = relax(&m);
        let sol = solve_lp(&rows, &obj, k, &dom, 100_000);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(sol.pivots > 0);
        assert_eq!(sol.pivots, sol.primal_pivots + sol.dual_pivots);
        assert_eq!(sol.dual_pivots, 0);
    }

    // ---- warm-start / dual simplex ----

    #[test]
    fn warm_capable_solve_matches_cold_solve() {
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        let z = m.add_binary("z");
        m.add_leq([(x, 3.0), (y, 2.0), (z, 2.0)], 4.0, "cap");
        m.add_geq([(x, 1.0), (z, 1.0)], 1.0, "c");
        m.set_objective([(x, -6.0), (y, -5.0), (z, -4.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax(&m);
        let cold = solve_lp(&rows, &obj, k, &dom, 10_000);
        let (warm, basis) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        assert_eq!(cold.status, LpStatus::Optimal);
        assert_eq!(warm.status, LpStatus::Optimal);
        assert!((cold.objective - warm.objective).abs() < 1e-9);
        assert!(basis.is_some());
        assert!(warm.reduced_costs.is_some());
    }

    #[test]
    fn dual_resolve_after_fixing_matches_cold() {
        // Fix each binary to each value in turn; the dual re-solve from the
        // root basis must agree with a cold solve of the child.
        let mut m = Model::new("m");
        let vars: Vec<_> = (0..4).map(|i| m.add_binary(format!("x{i}"))).collect();
        m.add_leq(
            vars.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
            2.0,
            "cap",
        );
        m.add_geq([(vars[0], 1.0), (vars[2], 1.0)], 1.0, "need");
        m.set_objective(
            [
                (vars[0], -3.0),
                (vars[1], -5.0),
                (vars[2], -4.0),
                (vars[3], -2.0),
            ],
            Sense::Minimize,
        );
        let (rows, obj, k, dom) = relax(&m);
        let (root, basis) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        assert_eq!(root.status, LpStatus::Optimal);
        let basis = basis.unwrap();
        for j in 0..4 {
            for value in [0.0, 1.0] {
                let mut child = dom.clone();
                assert!(child.fix(j, value));
                let cold = solve_lp(&rows, &obj, k, &child, 10_000);
                let (warm, _) =
                    resolve_with_basis(&rows, &obj, k, &basis, &child, 10_000).expect("compatible");
                assert_eq!(warm.status, cold.status, "x{j} := {value}");
                if warm.status == LpStatus::Optimal {
                    assert!(
                        (warm.objective - cold.objective).abs() < 1e-6,
                        "x{j} := {value}: warm {} vs cold {}",
                        warm.objective,
                        cold.objective
                    );
                    assert_eq!(warm.pivots, warm.dual_pivots + warm.primal_pivots);
                    assert_eq!(warm.primal_pivots, 0, "warm path is dual-only");
                }
            }
        }
    }

    #[test]
    fn dual_resolve_detects_child_infeasibility() {
        // x + y >= 1 with both fixed to 0 is infeasible.
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_geq([(x, 1.0), (y, 1.0)], 1.0, "c");
        m.set_objective([(x, 1.0), (y, 2.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax(&m);
        let (root, basis) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        assert_eq!(root.status, LpStatus::Optimal);
        let basis = basis.unwrap();
        let mut child = dom.clone();
        assert!(child.fix(x.index(), 0.0));
        assert!(child.fix(y.index(), 0.0));
        let (warm, next) =
            resolve_with_basis(&rows, &obj, k, &basis, &child, 10_000).expect("compatible");
        assert_eq!(warm.status, LpStatus::Infeasible);
        assert!(next.is_none());
    }

    #[test]
    fn dual_resolve_chains_across_generations() {
        // Tighten bounds one variable at a time, re-solving from the
        // previous basis each step, and compare against cold solves.
        let mut m = Model::new("m");
        let vars: Vec<_> = (0..5)
            .map(|i| m.add_integer(format!("x{i}"), 0, 3))
            .collect();
        m.add_leq(
            vars.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
            7.0,
            "cap",
        );
        m.add_geq([(vars[0], 1.0), (vars[1], 1.0)], 2.0, "need");
        m.set_objective(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, -((i + 1) as f64)))
                .collect::<Vec<_>>(),
            Sense::Minimize,
        );
        let (rows, obj, k, dom) = relax(&m);
        let (root, basis) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        assert_eq!(root.status, LpStatus::Optimal);
        let mut basis = basis.unwrap();
        let mut domains = dom.clone();
        for (step, &(j, lo, hi)) in [(4usize, 0.0, 1.0), (3, 1.0, 3.0), (0, 1.0, 1.0)]
            .iter()
            .enumerate()
        {
            domains.tighten_lower(j, lo);
            domains.tighten_upper(j, hi);
            let cold = solve_lp(&rows, &obj, k, &domains, 10_000);
            let (warm, next) =
                resolve_with_basis(&rows, &obj, k, &basis, &domains, 10_000).expect("compatible");
            assert_eq!(warm.status, cold.status, "step {step}");
            assert!(
                (warm.objective - cold.objective).abs() < 1e-6,
                "step {step}: warm {} vs cold {}",
                warm.objective,
                cold.objective
            );
            basis = next.expect("optimal resolve returns a basis");
        }
    }

    #[test]
    fn resolve_handles_relaxed_bounds_without_rejection() {
        // Bounds are implicit, so a *relaxed* child box is just as
        // re-solvable as a tightened one — the old bound-row kernel had to
        // reject this case.
        let mut m = Model::new("m");
        let x = m.add_integer("x", 1, 3);
        m.add_leq([(x, 1.0)], 2.0, "c");
        m.set_objective([(x, 1.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax(&m);
        let (_, basis) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        let basis = basis.unwrap();
        let mut m2 = Model::new("m2");
        m2.add_integer("x", 0, 3);
        let relaxed = Domains::from_model(&m2);
        let (warm, _) =
            resolve_with_basis(&rows, &obj, k, &basis, &relaxed, 10_000).expect("compatible");
        assert_eq!(warm.status, LpStatus::Optimal);
        assert!((warm.objective - 0.0).abs() < 1e-6);
    }

    #[test]
    fn resolve_rejects_a_mismatched_matrix() {
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        m.add_leq([(x, 1.0)], 1.0, "c");
        m.set_objective([(x, 1.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax(&m);
        let (_, basis) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        let basis = basis.unwrap();
        // A matrix with an extra row (a rebuilt cut pool) must be rejected.
        let mut m2 = Model::new("m2");
        let x2 = m2.add_binary("x");
        m2.add_leq([(x2, 1.0)], 1.0, "c");
        m2.add_leq([(x2, 1.0)], 2.0, "cut");
        let (rows2, obj2, k2, dom2) = relax(&m2);
        assert!(resolve_with_basis(&rows2, &obj2, k2, &basis, &dom2, 10_000).is_none());
    }

    #[test]
    fn resolve_rejects_a_changed_objective() {
        // Dual feasibility is a statement about the costs: a basis built
        // under one objective must not warm-start a solve under another.
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_geq([(x, 1.0), (y, 1.0)], 1.0, "c");
        m.set_objective([(x, 1.0), (y, 2.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax(&m);
        let (_, basis) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        let basis = basis.unwrap();
        let flipped: Vec<f64> = obj.iter().map(|c| -c).collect();
        assert!(resolve_with_basis(&rows, &flipped, k, &basis, &dom, 10_000).is_none());
        // A changed constant is part of the instance too.
        assert!(resolve_with_basis(&rows, &obj, k + 1.0, &basis, &dom, 10_000).is_none());
        // The unchanged instance still re-solves.
        assert!(resolve_with_basis(&rows, &obj, k, &basis, &dom, 10_000).is_some());
    }

    #[test]
    fn reduced_costs_identify_bound_variables() {
        // min x + 2y s.t. x + y >= 1: optimum x=1, y=0. y is nonbasic at its
        // lower bound with positive reduced cost (2 - 1 = 1 after pricing).
        let mut m = Model::new("m");
        let x = m.add_binary("x");
        let y = m.add_binary("y");
        m.add_geq([(x, 1.0), (y, 1.0)], 1.0, "c");
        m.set_objective([(x, 1.0), (y, 2.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax(&m);
        let (sol, _) = solve_lp_basis(&rows, &obj, k, &dom, 10_000);
        assert_eq!(sol.status, LpStatus::Optimal);
        let rc = sol.reduced_costs.expect("warm path reports reduced costs");
        assert!((sol.values[y.index()]).abs() < 1e-6);
        assert!(
            rc.up[y.index()] > 0.5,
            "y at lower bound should have positive up-cost, got {}",
            rc.up[y.index()]
        );
    }

    #[test]
    fn bound_moves_are_flips_not_pivots() {
        // 20 zero-cost binaries covering `Σ x >= 19`: the crash start puts
        // every variable at its lower bound, and phase 1 must walk almost
        // all of them across their boxes to cover the row. With implicit
        // bounds each of those moves is a *bound flip* (the box step of 1
        // beats the slack's ratio of 19), not a pivot — the dense bound-row
        // kernel needed a real pivot per bound move.
        let mut m = Model::new("m");
        let vars: Vec<_> = (0..20)
            .map(|i| m.add_continuous(format!("x{i}"), 0.0, 1.0))
            .collect();
        m.add_geq(
            vars.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
            19.0,
            "cover",
        );
        m.set_objective([(vars[0], 0.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax(&m);
        let sol = solve_lp(&rows, &obj, k, &dom, 10_000);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!(
            sol.bound_flips >= 18,
            "expected bound flips, got {} (pivots {})",
            sol.bound_flips,
            sol.pivots
        );
        assert!(
            sol.pivots <= 2,
            "bound moves must not consume pivots, spent {}",
            sol.pivots
        );
        // The crash start is also load-bearing: a variable whose objective
        // prefers its upper bound starts there, so a loose maximisation
        // solves with no simplex work at all.
        let mut m2 = Model::new("m2");
        let y = m2.add_continuous("y", 0.0, 5.0);
        m2.add_leq([(y, 1.0)], 100.0, "loose");
        m2.set_objective([(y, -1.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax(&m2);
        let sol = solve_lp(&rows, &obj, k, &dom, 10_000);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective + 5.0).abs() < 1e-9);
        assert_eq!(sol.pivots + sol.bound_flips, 0, "crash start is optimal");
    }

    #[test]
    fn gomory_cut_matches_the_hand_derivation() {
        // max x1 + x2  s.t.  x1 + x2 <= 1.5,  x1, x2 binary.
        //
        // The LP optimum sits at x1 + x2 = 1.5 with one variable basic and
        // fractional (β' = 0.5 after shifting the nonbasic integral to its
        // bound) and the other nonbasic at its *upper* bound. Deriving the
        // mixed-integer Gomory cut of that row by hand:
        //
        //   basic row      x_B − t_other + t_s = 0.5        (t_j ≥ 0 shifted)
        //   f0 = 0.5
        //   t_other  integral, α = −1, frac(α) = 0   → coefficient 0
        //   t_s      continuous slack, α = 1 ≥ 0     → coefficient α = 1
        //
        // so the cut is `s ≥ f0 = 0.5`; substituting the slack
        // `s = 1.5 − x1 − x2` of the ≤-row gives `x1 + x2 ≤ 1` — exactly the
        // integer hull facet.
        let mut m = Model::new("gmi");
        let x1 = m.add_binary("x1");
        let x2 = m.add_binary("x2");
        m.add_leq([(x1, 1.0), (x2, 1.0)], 1.5, "cap");
        m.set_objective([(x1, -1.0), (x2, -1.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax(&m);
        let (sol, basis) = solve_cold(&rows, &obj, k, &dom, 10_000, true, Pricing::Devex);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective + 1.5).abs() < 1e-9);
        let basis = basis.expect("optimal basis");
        let cuts = gomory_cuts(&rows, &obj, k, &basis, &dom, &dom, &[true, true], 8);
        assert_eq!(cuts.len(), 1, "exactly one fractional row");
        let (terms, rhs) = &cuts[0];
        let mut dense = [0.0f64; 2];
        for &(j, a) in terms {
            dense[j] = a;
        }
        // The implementation scales the cut so comparing term-by-term needs
        // the normalised form: divide through by the x1 coefficient.
        assert!(dense[0].abs() > 1e-9, "cut must involve x1");
        let scale = dense[0];
        assert!(
            (dense[1] / scale - 1.0).abs() < 1e-6,
            "hand derivation gives equal coefficients, got {dense:?}"
        );
        assert!(
            (rhs / scale - 1.0).abs() < 1e-6,
            "hand derivation gives rhs 1, got {} (scale {scale})",
            rhs / scale
        );
        // And the cut does exactly what it should: kills the fractional LP
        // point, keeps every integer point.
        let lp_activity = dense[0] * sol.values[0] + dense[1] * sol.values[1];
        assert!(lp_activity > rhs + 1e-4, "cut must cut off the LP optimum");
        for (a, b) in [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)] {
            assert!(
                dense[0] * a + dense[1] * b <= rhs + 1e-9,
                "({a},{b}) cut off"
            );
        }
    }

    #[test]
    fn gomory_cuts_reject_a_stale_basis() {
        // A basis fingerprinted against different row data must be refused:
        // deriving a cut from a stale tableau would produce garbage.
        let mut m = Model::new("gmi-stale");
        let x1 = m.add_binary("x1");
        let x2 = m.add_binary("x2");
        m.add_leq([(x1, 1.0), (x2, 1.0)], 1.5, "cap");
        m.set_objective([(x1, -1.0), (x2, -1.0)], Sense::Minimize);
        let (rows, obj, k, dom) = relax(&m);
        let (sol, basis) = solve_cold(&rows, &obj, k, &dom, 10_000, true, Pricing::Devex);
        assert_eq!(sol.status, LpStatus::Optimal);
        let basis = basis.expect("optimal basis");

        let mut other = Model::new("gmi-other");
        let y1 = other.add_binary("y1");
        let y2 = other.add_binary("y2");
        other.add_leq([(y1, 2.0), (y2, 1.0)], 2.5, "cap");
        other.set_objective([(y1, -1.0), (y2, -1.0)], Sense::Minimize);
        let (other_rows, other_obj, other_k, other_dom) = relax(&other);
        let cuts = gomory_cuts(
            &other_rows,
            &other_obj,
            other_k,
            &basis,
            &other_dom,
            &other_dom,
            &[true, true],
            8,
        );
        assert!(cuts.is_empty(), "stale basis must yield no cuts");
    }
}
