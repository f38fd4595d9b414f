//! Interchangeable sessions: a declared symmetry and the rows that break it.
//!
//! A model may declare that some of its variables come in `k` *blocks* that
//! can be relabelled freely — the test sessions of the BIST formulation are
//! the motivating case: every session-indexed variable family is invariant
//! under a permutation of the session index, so a plain branch and bound
//! proves each assignment up to `k!` times.
//!
//! A [`SessionSymmetry`] lists, per block, the block's variables in one fixed
//! position order (position `i` of block `p` is the image of position `i` of
//! block `q` under the swap of `p` and `q`), plus *cells*: per *item* `m`,
//! the positions whose sum says "item `m` is placed in this block". The
//! canonical labelling orders the blocks by their smallest placed item.
//!
//! The declaration is a claim, never trusted:
//!
//! * [`crate::reduce`] maps it through the variable dispositions
//!   ([`SessionSymmetry::map`]) and drops it when the reduction treated the
//!   blocks differently;
//! * the solver checks it against the model it actually solves — every
//!   adjacent block swap must map the row multiset, the objective and the
//!   variable boxes onto themselves, compared on bits, and every item must
//!   be placed at most once by some packing row — and ignores it otherwise
//!   (counted in [`crate::SolveStats::symmetry_rejected`]).
//!
//! A validated declaration adds the canonical-order rows of
//! [`SessionSymmetry::order_rows`] after the model rows, and warm-start
//! candidates are relabelled into canonical form
//! ([`SessionSymmetry::canonicalize`]) before their feasibility check. The
//! rows cut off only non-canonical labellings: the canonical relabelling of
//! any feasible point is feasible, satisfies every row and has the same
//! objective, so the optimum value is unchanged (Margot, *Math. Prog.* 2003;
//! Kaibel & Pfetsch, *Math. Prog.* 2008).

use crate::model::{CmpOp, Model, VarId};
use crate::reduce::VarDisposition;

/// `k` interchangeable blocks of variables and the item cells that order
/// them. See the [module docs](self).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSymmetry {
    /// `blocks[p][i]`: the variable at position `i` of block `p`.
    blocks: Vec<Vec<VarId>>,
    /// `cells[m]`: the block positions whose sum places item `m`.
    cells: Vec<Vec<usize>>,
}

/// One row reduced to comparable bits: operator, right-hand side and the
/// nonzero terms sorted by column.
type RowKey = (u8, u64, Vec<(usize, u64)>);

impl SessionSymmetry {
    /// Declares `blocks` (one variable list per block, all in the same
    /// position order) with item `m` placed by the positions `cells[m]`.
    /// Nothing is checked here; the solver validates the declaration against
    /// the model it solves.
    pub fn new(blocks: Vec<Vec<VarId>>, cells: Vec<Vec<usize>>) -> Self {
        Self { blocks, cells }
    }

    /// The blocks, each in position order.
    pub fn blocks(&self) -> &[Vec<VarId>] {
        &self.blocks
    }

    /// The item cells, as block positions.
    pub fn cells(&self) -> &[Vec<usize>] {
        &self.cells
    }

    /// Maps the declaration through a reduction's variable dispositions. A
    /// position that is kept in every block survives; a position fixed to
    /// the same value in every block is dropped (a cell may only lose
    /// positions fixed to zero). Any other mix — a position kept in one
    /// block and fixed in another, fixed to different values, fixed to a
    /// nonzero value inside a cell, or substituted — returns `None`: the
    /// reduction no longer treats the blocks alike.
    pub fn map(&self, dispositions: &[VarDisposition]) -> Option<Self> {
        let width = self.blocks.first().map_or(0, Vec::len);
        let mut in_cell = vec![false; width];
        for &i in self.cells.iter().flatten() {
            *in_cell.get_mut(i)? = true;
        }
        let mut blocks = vec![Vec::new(); self.blocks.len()];
        let mut new_position = vec![None; width];
        for (i, slot) in new_position.iter_mut().enumerate() {
            let mut kept = Vec::with_capacity(self.blocks.len());
            let mut fixed: Option<u64> = None;
            for block in &self.blocks {
                match *dispositions.get(block.get(i)?.index())? {
                    VarDisposition::Kept(r) => kept.push(VarId(r)),
                    VarDisposition::Fixed(v) => {
                        if fixed.is_some_and(|bits| bits != v.to_bits()) || (in_cell[i] && v != 0.0)
                        {
                            return None;
                        }
                        fixed = Some(v.to_bits());
                    }
                    VarDisposition::Substituted(_) => return None,
                }
            }
            match (kept.len() == self.blocks.len(), fixed) {
                (true, None) => {
                    *slot = Some(blocks[0].len());
                    for (block, var) in blocks.iter_mut().zip(kept) {
                        block.push(var);
                    }
                }
                (false, Some(_)) if kept.is_empty() => {}
                _ => return None,
            }
        }
        let cells = self
            .cells
            .iter()
            .map(|cell| cell.iter().filter_map(|&i| new_position[i]).collect())
            .collect();
        Some(Self { blocks, cells })
    }

    /// Whether the declaration is a symmetry of `model` that the
    /// canonical-order rows may break:
    ///
    /// * the blocks are equally long, in range and pairwise disjoint, and
    ///   the cells name distinct in-range positions of binary variables;
    /// * every item's cells (over all blocks) lie in one `Σ ≤ 1` row with
    ///   unit coefficients whose other terms are nonnegative on nonnegative
    ///   variables, so an item is placed in at most one block;
    /// * swapping any two adjacent blocks maps the row multiset, the
    ///   objective and every variable box onto themselves, bit for bit.
    ///
    /// Adjacent swaps generate every permutation of the blocks, so the
    /// canonical relabelling of a feasible point is feasible with the same
    /// objective.
    pub(crate) fn is_symmetry_of(&self, model: &Model) -> bool {
        let n = model.num_vars();
        let Some(width) = self.blocks.first().map(Vec::len) else {
            return false;
        };
        let mut seen = vec![false; n];
        for block in &self.blocks {
            if block.len() != width {
                return false;
            }
            for v in block {
                if v.index() >= n || std::mem::replace(&mut seen[v.index()], true) {
                    return false;
                }
            }
        }
        let mut in_cell = vec![false; width];
        for &i in self.cells.iter().flatten() {
            if i >= width || std::mem::replace(&mut in_cell[i], true) {
                return false;
            }
        }
        let binary = |v: VarId| {
            let kind = &model.var(v).kind;
            kind.is_integral() && kind.lower() == 0.0 && kind.upper() == 1.0
        };
        let cells_sound = self
            .blocks
            .iter()
            .flatten()
            .enumerate()
            .all(|(at, &v)| !in_cell[at % width] || binary(v))
            && self
                .cells
                .iter()
                .all(|cell| self.placed_at_most_once(model, cell));
        if !cells_sound {
            return false;
        }

        let vars = model.vars();
        let identity: Vec<usize> = (0..n).collect();
        let original = sorted_row_keys(model, &identity);
        for pair in self.blocks.windows(2) {
            let mut perm = identity.clone();
            for (a, b) in pair[0].iter().zip(&pair[1]) {
                let (x, y) = (&vars[a.index()], &vars[b.index()]);
                if x.objective.to_bits() != y.objective.to_bits()
                    || x.kind.lower().to_bits() != y.kind.lower().to_bits()
                    || x.kind.upper().to_bits() != y.kind.upper().to_bits()
                    || x.kind.is_integral() != y.kind.is_integral()
                {
                    return false;
                }
                perm.swap(a.index(), b.index());
            }
            if sorted_row_keys(model, &perm) != original {
                return false;
            }
        }
        true
    }

    /// Whether some row proves that the variables of `cell`, summed over
    /// every block, are at most one.
    fn placed_at_most_once(&self, model: &Model, cell: &[usize]) -> bool {
        let mut member = vec![false; model.num_vars()];
        for block in &self.blocks {
            for &i in cell {
                member[block[i].index()] = true;
            }
        }
        let members = self.blocks.len() * cell.len();
        members == 0
            || model.constraints().iter().any(|c| {
                c.op != CmpOp::Ge
                    && c.rhs == 1.0
                    && c.expr
                        .iter()
                        .filter(|&(v, a)| member[v.index()] && a == 1.0)
                        .count()
                        == members
                    && c.expr.iter().all(|(v, a)| {
                        member[v.index()] || (a >= 0.0 && model.var(v).kind.lower() >= 0.0)
                    })
            })
    }

    /// The canonical-order rows, every one `terms ≤ 0`, in loop order
    /// `m = 0..M`, `p = 1..k` with empty cells skipped. Writing `C(m,p)` for
    /// the sum of item `m`'s cell in block `p`:
    ///
    /// * `p > m`: `C(m,p) ≤ 0` — block `p`'s smallest item is at least `p`;
    /// * otherwise `C(m,p) − Σ_{m'<m} C(m',p−1) ≤ 0` — block `p` may hold
    ///   item `m` only if block `p−1` holds a smaller item.
    ///
    /// Terms are merged by ascending variable index; zero coefficients are
    /// dropped.
    pub fn order_rows(&self) -> Vec<Vec<(usize, f64)>> {
        let cell = |m: usize, p: usize| {
            self.cells[m]
                .iter()
                .map(move |&i| self.blocks[p][i].index())
        };
        let mut rows = Vec::new();
        for m in 0..self.cells.len() {
            for p in 1..self.blocks.len() {
                if self.cells[m].is_empty() {
                    continue;
                }
                let mut terms: Vec<(usize, f64)> = cell(m, p).map(|j| (j, 1.0)).collect();
                if p <= m {
                    terms.extend((0..m).flat_map(|prev| cell(prev, p - 1)).map(|j| (j, -1.0)));
                }
                terms.sort_by_key(|&(j, _)| j);
                let mut merged: Vec<(usize, f64)> = Vec::with_capacity(terms.len());
                for (j, a) in terms {
                    match merged.last_mut() {
                        Some(last) if last.0 == j => last.1 += a,
                        _ => merged.push((j, a)),
                    }
                }
                merged.retain(|&(_, a)| a != 0.0);
                rows.push(merged);
            }
        }
        rows
    }

    /// Relabels `values` into canonical form: block `p`'s key is the
    /// smallest item `m` whose cell sums past one half (none: after every
    /// item), and the blocks are stably sorted by `(key, p)`.
    pub fn canonicalize(&self, values: &mut [f64]) {
        let key = |block: &[VarId]| {
            self.cells
                .iter()
                .position(|cell| cell.iter().map(|&i| values[block[i].index()]).sum::<f64>() > 0.5)
                .unwrap_or(usize::MAX)
        };
        let mut order: Vec<usize> = (0..self.blocks.len()).collect();
        order.sort_by_key(|&p| key(&self.blocks[p]));
        if order.iter().enumerate().all(|(q, &p)| q == p) {
            return;
        }
        let old: Vec<Vec<f64>> = self
            .blocks
            .iter()
            .map(|block| block.iter().map(|v| values[v.index()]).collect())
            .collect();
        for (block, &from) in self.blocks.iter().zip(&order) {
            for (v, &x) in block.iter().zip(&old[from]) {
                values[v.index()] = x;
            }
        }
    }

    /// Folds the declaration into a content fingerprint.
    pub(crate) fn fold_fingerprint(&self, h: &mut u64) {
        crate::sparse::fnv_fold(h, self.blocks.len() as u64);
        for block in &self.blocks {
            crate::sparse::fnv_fold(h, block.len() as u64);
            for v in block {
                crate::sparse::fnv_fold(h, v.index() as u64);
            }
        }
        crate::sparse::fnv_fold(h, self.cells.len() as u64);
        for cell in &self.cells {
            crate::sparse::fnv_fold(h, cell.len() as u64);
            for &i in cell {
                crate::sparse::fnv_fold(h, i as u64);
            }
        }
    }
}

/// Every row of `model` with its columns renamed through `perm`, as sorted
/// comparable keys.
fn sorted_row_keys(model: &Model, perm: &[usize]) -> Vec<RowKey> {
    let mut keys: Vec<RowKey> = model
        .constraints()
        .iter()
        .map(|c| {
            let mut terms: Vec<(usize, u64)> = c
                .expr
                .iter()
                .filter(|&(_, a)| a != 0.0)
                .map(|(v, a)| (perm[v.index()], a.to_bits()))
                .collect();
            terms.sort_unstable();
            let op = match c.op {
                CmpOp::Le => 0,
                CmpOp::Ge => 1,
                CmpOp::Eq => 2,
            };
            (op, c.rhs.to_bits(), terms)
        })
        .collect();
    keys.sort_unstable();
    keys
}

#[cfg(test)]
mod tests {
    use super::*;
    use VarDisposition::{Fixed, Kept, Substituted};

    /// Two blocks of three positions over variables 0..6; item 0's cell is
    /// position 0, item 1's is position 1.
    fn two_blocks() -> SessionSymmetry {
        SessionSymmetry::new(
            vec![
                vec![VarId(0), VarId(1), VarId(2)],
                vec![VarId(3), VarId(4), VarId(5)],
            ],
            vec![vec![0], vec![1]],
        )
    }

    #[test]
    fn map_keeps_uniform_positions_and_drops_the_rest() {
        let symmetry = two_blocks();
        // Position 2 fixed alike in both blocks: dropped. Position 1 (a
        // cell) fixed to zero in both: dropped from the cell too.
        let dispositions = [
            Kept(0),
            Fixed(0.0),
            Fixed(1.0),
            Kept(1),
            Fixed(0.0),
            Fixed(1.0),
        ];
        let mapped = symmetry.map(&dispositions).unwrap();
        assert_eq!(mapped.blocks(), &[vec![VarId(0)], vec![VarId(1)]]);
        assert_eq!(mapped.cells(), &[vec![0], vec![]]);

        let rejected = [
            // Kept in one block, fixed in the other.
            [Kept(0), Kept(1), Kept(2), Fixed(0.0), Kept(3), Kept(4)],
            // Fixed to different values.
            [Kept(0), Kept(1), Fixed(0.0), Kept(2), Kept(3), Fixed(1.0)],
            // A cell member fixed to one.
            [Fixed(1.0), Kept(0), Kept(1), Fixed(1.0), Kept(2), Kept(3)],
            // Substituted.
            [Kept(0), Kept(1), Substituted(0), Kept(2), Kept(3), Kept(4)],
        ];
        for dispositions in rejected {
            assert_eq!(symmetry.map(&dispositions), None, "{dispositions:?}");
        }
    }

    #[test]
    fn order_rows_follow_the_loop_order() {
        // Three blocks, two items: rows (m, p) = (0,1), (0,2), (1,1), (1,2).
        let symmetry = SessionSymmetry::new(
            vec![
                vec![VarId(0), VarId(1)],
                vec![VarId(2), VarId(3)],
                vec![VarId(4), VarId(5)],
            ],
            vec![vec![0], vec![1]],
        );
        assert_eq!(
            symmetry.order_rows(),
            vec![
                vec![(2, 1.0)],
                vec![(4, 1.0)],
                vec![(0, -1.0), (3, 1.0)],
                vec![(5, 1.0)],
            ]
        );
    }
}
