//! Cutting planes: the pool every cut passes through.
//!
//! Two families of globally valid cuts join the branch and bound's row set:
//!
//! * **Gomory mixed-integer cuts**, read off fractional rows of an optimal
//!   simplex basis (see [`crate::simplex`]),
//! * **conflict no-goods**, learned from infeasibility-refuted subtrees
//!   ([`nogood_from_fixings`]).
//!
//! [`CutPool`] deduplicates both by support and coefficients, so a later
//! separation round never re-installs a row the search already carries. The
//! branch and bound keeps the accepted cuts in its row set (see
//! [`crate::solver::BranchAndBound`]): they are globally valid, so the
//! propagator and the simplex consume them exactly like model rows, at the
//! root and at every node.

use std::collections::BTreeSet;

/// A generated cut `Σ terms ≤ rhs` (cuts are always `≤` rows).
#[derive(Debug, Clone, PartialEq)]
pub struct CutRow {
    /// Sparse `(variable index, coefficient)` terms.
    pub terms: Vec<(usize, f64)>,
    /// Right-hand side.
    pub rhs: f64,
    /// Which family produced the cut.
    pub kind: CutKind,
}

/// The cut families of the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutKind {
    /// A Gomory mixed-integer cut read off a fractional row of an optimal
    /// simplex basis (see [`crate::simplex`]).
    Gomory,
    /// A conflict no-good `Σ_{S⁺} x − Σ_{S⁻} x ≤ |S⁺| − 1` learned from an
    /// infeasibility-refuted subtree with fixings `S⁺` (at 1) and `S⁻`
    /// (at 0).
    NoGood,
}

/// The dedup set of every cut emitted so far, keyed by sorted support plus
/// a coefficient/rhs bit signature.
#[derive(Debug, Clone, Default)]
pub struct CutPool {
    emitted: BTreeSet<(Vec<u32>, i64)>,
}

impl CutPool {
    /// Re-registers previously emitted cuts in the dedup set, so a
    /// snapshot-resumed search (which reinstalls the serialized cut pool
    /// into the row set) never separates a duplicate of a cut it already
    /// carries. The keys are rebuilt by the same `cut_key` every emission
    /// path uses.
    pub fn restore_emitted(&mut self, cuts: &[CutRow]) {
        for cut in cuts {
            self.emitted.insert(cut_key(&cut.terms, cut.rhs));
        }
    }

    /// Registers a cut in the dedup set. Returns `false` — and the caller
    /// must not install the cut — when an identical row was already emitted
    /// in an earlier round.
    pub fn admit(&mut self, cut: &CutRow) -> bool {
        self.emitted.insert(cut_key(&cut.terms, cut.rhs))
    }
}

/// Builds the conflict no-good of a refuted subtree: with `ones` the
/// binaries fixed to 1 and `zeros` those fixed to 0 on the subtree's path,
/// `Σ_{ones} x − Σ_{zeros} x ≤ |ones| − 1` excludes exactly the assignments
/// that agree with every fixing, and nothing else — any feasible point must
/// flip at least one of them.
pub fn nogood_from_fixings(ones: &[usize], zeros: &[usize]) -> CutRow {
    let mut terms: Vec<(usize, f64)> = ones
        .iter()
        .map(|&j| (j, 1.0))
        .chain(zeros.iter().map(|&j| (j, -1.0)))
        .collect();
    terms.sort_by_key(|&(j, _)| j);
    CutRow {
        terms,
        rhs: ones.len() as f64 - 1.0,
        kind: CutKind::NoGood,
    }
}

/// Coefficient-aware dedup key: the sorted support plus an FNV fold of the
/// coefficient and rhs bit patterns. A pure function of the canonical cut
/// row, so [`CutPool::restore_emitted`] rebuilds identical keys from a
/// deserialized pool and a resumed search stays deterministic.
fn cut_key(terms: &[(usize, f64)], rhs: f64) -> (Vec<u32>, i64) {
    use crate::sparse::{fnv_fold, FNV_OFFSET};
    let mut sorted: Vec<(usize, f64)> = terms.to_vec();
    sorted.sort_by_key(|&(j, _)| j);
    let support: Vec<u32> = sorted.iter().map(|&(j, _)| j as u32).collect();
    let mut h = FNV_OFFSET;
    for &(_, c) in &sorted {
        fnv_fold(&mut h, c.to_bits());
    }
    fnv_fold(&mut h, rhs.to_bits());
    (support, h as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gomory(terms: Vec<(usize, f64)>, rhs: f64) -> CutRow {
        CutRow {
            terms,
            rhs,
            kind: CutKind::Gomory,
        }
    }

    #[test]
    fn pool_admits_each_row_once() {
        let mut pool = CutPool::default();
        assert!(pool.admit(&gomory(vec![(0, 0.5), (2, 1.0)], 1.0)));
        // Same row with its terms listed in another order: a duplicate.
        assert!(!pool.admit(&gomory(vec![(2, 1.0), (0, 0.5)], 1.0)));
        // Same support, different coefficient or rhs: a new row.
        assert!(pool.admit(&gomory(vec![(0, 0.25), (2, 1.0)], 1.0)));
        assert!(pool.admit(&gomory(vec![(0, 0.5), (2, 1.0)], 2.0)));
    }

    #[test]
    fn restored_rows_are_duplicates_for_a_resumed_pool() {
        let cuts = [
            gomory(vec![(1, 1.0), (3, -0.5)], 0.5),
            nogood_from_fixings(&[4], &[0]),
        ];
        let mut pool = CutPool::default();
        pool.restore_emitted(&cuts);
        assert!(cuts.iter().all(|cut| !pool.admit(cut)));
    }

    #[test]
    fn nogood_excludes_exactly_the_refuted_assignment() {
        let cut = nogood_from_fixings(&[2, 0], &[1]);
        assert_eq!(cut.kind, CutKind::NoGood);
        assert_eq!(cut.terms, vec![(0, 1.0), (1, -1.0), (2, 1.0)]);
        for mask in 0u32..8 {
            let point: Vec<f64> = (0..3).map(|j| f64::from(mask >> j & 1)).collect();
            let lhs: f64 = cut.terms.iter().map(|&(j, a)| a * point[j]).sum();
            let refuted = point == [1.0, 0.0, 1.0];
            assert_eq!(lhs > cut.rhs + 1e-9, refuted, "{point:?}");
        }
    }
}
