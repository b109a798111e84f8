//! Dynamic (incremental) Hungarian assignment.
//!
//! The WOLT paper cites Mills-Tettey, Stentz & Dias, *"The dynamic
//! Hungarian algorithm for the assignment problem with changing costs"*
//! (its reference \[25\]) as the way to keep Phase I cheap under churn:
//! when one user arrives, departs, or changes its rates, the optimal
//! matching can be **repaired** with a single augmentation instead of a
//! full O(n³) re-solve.
//!
//! [`IncrementalAssignment`] keeps the shortest-augmenting-path solver's
//! dual potentials alive across mutations:
//!
//! * [`add_row`](IncrementalAssignment::add_row) — one O(rows·cols)
//!   augmentation (exactly the batch solver's per-row step);
//! * [`update_row`](IncrementalAssignment::update_row) — unmatch the row,
//!   restore its dual feasibility, re-augment (Mills-Tettey's repair);
//!   falls back to a rebuild in the rare case the augmenting chain
//!   abandons the freed column with a non-zero dual;
//! * [`remove_row`](IncrementalAssignment::remove_row) — frees the row's
//!   column and rebuilds internally: a departure leaves an unmatched
//!   column whose (negative) dual violates complementary slackness, so
//!   the remaining matching is *not* automatically optimal. Mills-Tettey's
//!   full deletion repair is future work; since the paper's churn is
//!   dominated by arrivals and rate changes (Fig. 6c counts arrivals),
//!   the incremental wins land where they matter.
//!
//! Utilities are *maximized*, matching [`crate::max_weight_assignment`];
//! `NEG_INFINITY`/NaN cells are infeasible and internally carry a large
//! finite penalty, so finite utilities must stay below ≈ 1e12 in
//! magnitude. Every mutation keeps the matching optimal for the current
//! row set, which the tests verify against full re-solves over random
//! mutation sequences.

use crate::hungarian::Assignment;
use crate::{max_weight_assignment, Matrix, OptError};

/// Internal minimization cost for an infeasible cell. Large enough to
/// dominate any realistic utility, small enough to keep arithmetic exact.
const FORBIDDEN_COST: f64 = 1e15;

/// A maximum-weight assignment maintained under row insertions, updates,
/// and deletions. Holds at most `cols` live rows (the WOLT Phase-I shape:
/// one candidate user per extender).
///
/// # Example
///
/// ```
/// use wolt_opt::dynamic::IncrementalAssignment;
///
/// # fn main() -> Result<(), wolt_opt::OptError> {
/// let mut inc = IncrementalAssignment::new(2); // two extenders
/// let u1 = inc.add_row(vec![15.0, 10.0])?;     // user 1 arrives
/// let u2 = inc.add_row(vec![30.0, 10.0])?;     // user 2 arrives
/// assert_eq!(inc.column_of(u2), Some(0));      // Fig. 3 Phase-I pairing
/// assert_eq!(inc.column_of(u1), Some(1));
/// assert!((inc.total() - 40.0).abs() < 1e-9);
///
/// inc.remove_row(u2)?;                          // user 2 departs
/// inc.update_row(u1, vec![15.0, 35.0])?;        // user 1 moved closer to ext 2
/// assert_eq!(inc.column_of(u1), Some(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalAssignment {
    cols: usize,
    /// Per-row utilities; `None` marks removed rows (ids stay stable).
    rows: Vec<Option<Vec<f64>>>,
    /// Dual potential per row id (meaningful for live rows).
    pot_row: Vec<f64>,
    /// Dual potential per column.
    pot_col: Vec<f64>,
    /// Matched row of each column (may be a forbidden-cell match, which
    /// the accessors report as unmatched).
    col_to_row: Vec<Option<usize>>,
    /// Matched column of each row.
    row_to_col: Vec<Option<usize>>,
}

impl IncrementalAssignment {
    /// An empty matching over `cols` columns (extenders).
    ///
    /// # Panics
    ///
    /// Panics if `cols` is zero.
    pub fn new(cols: usize) -> Self {
        assert!(cols > 0, "need at least one column");
        Self {
            cols,
            rows: Vec::new(),
            pot_row: Vec::new(),
            pot_col: vec![0.0; cols],
            col_to_row: vec![None; cols],
            row_to_col: Vec::new(),
        }
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of live rows.
    pub fn live_rows(&self) -> usize {
        self.rows.iter().filter(|r| r.is_some()).count()
    }

    /// The column matched to `row` on a *feasible* cell, if any.
    pub fn column_of(&self, row: usize) -> Option<usize> {
        let col = self.row_to_col.get(row).copied().flatten()?;
        self.feasible(row, col).then_some(col)
    }

    /// The row matched to `col` on a feasible cell, if any.
    pub fn row_of(&self, col: usize) -> Option<usize> {
        let row = self.col_to_row.get(col).copied().flatten()?;
        self.feasible(row, col).then_some(row)
    }

    /// Total utility of the current (feasible) matching.
    pub fn total(&self) -> f64 {
        self.feasible_pairs()
            .map(|(r, c)| self.rows[r].as_ref().expect("matched rows live")[c])
            .sum()
    }

    /// Matched feasible `(row, col)` pairs in row order.
    pub fn pairs(&self) -> Vec<(usize, usize)> {
        self.feasible_pairs().collect()
    }

    /// Snapshot as an [`Assignment`] (same shape as the batch solver's
    /// output; removed and unmatched rows appear as `None`).
    pub fn snapshot(&self) -> Assignment {
        let pairs = self.pairs();
        let mut row_to_col = vec![None; self.rows.len()];
        let mut col_to_row = vec![None; self.cols];
        for &(r, c) in &pairs {
            row_to_col[r] = Some(c);
            col_to_row[c] = Some(r);
        }
        Assignment {
            total: self.total(),
            pairs,
            row_to_col,
            col_to_row,
        }
    }

    /// Inserts a row (a newly arrived user's utilities) and re-optimizes
    /// with one augmentation. Returns the new row's stable id.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::DimensionMismatch`] for a wrong-length row or
    /// when the matching is already full (`live_rows() == cols()` — the
    /// Phase-I relaxation never holds more candidates than extenders).
    pub fn add_row(&mut self, utilities: Vec<f64>) -> Result<usize, OptError> {
        if utilities.len() != self.cols {
            return Err(OptError::DimensionMismatch {
                context: "row length differs from column count",
            });
        }
        if self.live_rows() >= self.cols {
            return Err(OptError::DimensionMismatch {
                context: "matching is full (live rows == columns)",
            });
        }
        let id = self.rows.len();
        self.rows.push(Some(utilities));
        self.row_to_col.push(None);
        self.pot_row.push(0.0);
        self.insert_row(id);
        Ok(id)
    }

    /// Replaces `row`'s utilities (rates changed) and repairs the
    /// matching: unmatch, restore the row's dual feasibility, re-augment.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::DimensionMismatch`] for an unknown/removed row
    /// or wrong-length utilities.
    pub fn update_row(&mut self, row: usize, utilities: Vec<f64>) -> Result<(), OptError> {
        if utilities.len() != self.cols {
            return Err(OptError::DimensionMismatch {
                context: "row length differs from column count",
            });
        }
        if self.rows.get(row).is_none_or(|r| r.is_none()) {
            return Err(OptError::DimensionMismatch {
                context: "unknown or removed row",
            });
        }
        let freed = self.row_to_col[row].take();
        if let Some(col) = freed {
            self.col_to_row[col] = None;
        }
        self.rows[row] = Some(utilities);
        self.insert_row(row);
        // Complementary slackness check: unmatched columns must carry a
        // zero dual. Insertions never touch the duals of columns they
        // leave unmatched, so the only way to violate this is the freshly
        // freed column being abandoned by the augmenting chain — repair
        // with a rebuild (rare; the chain usually re-takes the column).
        if let Some(col) = freed {
            if self.col_to_row[col].is_none() && self.pot_col[col] < -1e-12 {
                self.rebuild();
            }
        }
        Ok(())
    }

    /// Removes `row` (user departed) and re-optimizes the remaining rows.
    ///
    /// A departure frees a column whose dual may be negative, which
    /// breaks complementary slackness — the remaining matching can be
    /// suboptimal. Until the full Mills-Tettey deletion repair is
    /// implemented, this rebuilds the matching over the live rows
    /// (O(n²·m), the batch cost); arrivals and updates keep their O(n·m)
    /// single-augmentation repairs.
    ///
    /// # Errors
    ///
    /// Returns [`OptError::DimensionMismatch`] for an unknown/removed row.
    pub fn remove_row(&mut self, row: usize) -> Result<(), OptError> {
        if self.rows.get(row).is_none_or(|r| r.is_none()) {
            return Err(OptError::DimensionMismatch {
                context: "unknown or removed row",
            });
        }
        if let Some(col) = self.row_to_col[row].take() {
            self.col_to_row[col] = None;
        }
        self.rows[row] = None;
        self.rebuild();
        Ok(())
    }

    /// Resets duals and matching and re-inserts every live row.
    fn rebuild(&mut self) {
        self.pot_col = vec![0.0; self.cols];
        self.col_to_row = vec![None; self.cols];
        for t in &mut self.row_to_col {
            *t = None;
        }
        let live: Vec<usize> = (0..self.rows.len())
            .filter(|&i| self.rows[i].is_some())
            .collect();
        for i in live {
            self.insert_row(i);
        }
    }

    fn feasible(&self, row: usize, col: usize) -> bool {
        self.rows[row].as_ref().is_some_and(|r| r[col].is_finite())
    }

    fn feasible_pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.row_to_col
            .iter()
            .enumerate()
            .filter_map(|(r, c)| c.map(|c| (r, c)))
            .filter(|&(r, c)| self.feasible(r, c))
    }

    /// Minimization cost of cell `(row, col)`.
    fn cost(&self, row: usize, col: usize) -> f64 {
        let u = self.rows[row].as_ref().expect("live row")[col];
        if u.is_finite() {
            -u
        } else {
            FORBIDDEN_COST
        }
    }

    /// The shortest-augmenting-path row insertion — the batch solver's
    /// per-row step, operating on the persistent potentials. `row` must be
    /// live and unmatched, and at least one column must be free (both
    /// guaranteed by the callers).
    fn insert_row(&mut self, row: usize) {
        // Restore dual feasibility for this row's edges: reduced costs
        // cost − pot_row − pot_col must be ≥ 0. (For a fresh row this is
        // the Mills-Tettey potential repair; for add_row it simply
        // initializes the potential.)
        let min_reduced = (0..self.cols)
            .map(|j| self.cost(row, j) - self.pot_col[j])
            .fold(f64::INFINITY, f64::min);
        self.pot_row[row] = min_reduced;

        let inf = f64::INFINITY;
        // Predecessor column in the alternating tree (None = reached
        // directly from `row`).
        let mut way: Vec<Option<usize>> = vec![None; self.cols];
        let mut min_to_col = vec![inf; self.cols];
        let mut used = vec![false; self.cols];
        // The virtual root: `current` is the row whose edges we relax;
        // `current_col` is the tree column it hangs off (None for root).
        let mut current_row = row;
        let mut current_col: Option<usize> = None;

        let final_col = loop {
            if let Some(j) = current_col {
                used[j] = true;
            }
            let mut delta = inf;
            let mut next_col = None;
            for j in 0..self.cols {
                if used[j] {
                    continue;
                }
                let reduced =
                    self.cost(current_row, j) - self.pot_row[current_row] - self.pot_col[j];
                if reduced < min_to_col[j] {
                    min_to_col[j] = reduced;
                    way[j] = current_col;
                }
                if min_to_col[j] < delta {
                    delta = min_to_col[j];
                    next_col = Some(j);
                }
            }
            let j1 = next_col.expect("a free column always exists for live insertions");

            // Dual update over the tree (root row + every used column and
            // its matched row) — the e-maxx potential step.
            self.pot_row[row] += delta;
            for j in 0..self.cols {
                if used[j] {
                    self.pot_col[j] -= delta;
                    if let Some(r) = self.col_to_row[j] {
                        self.pot_row[r] += delta;
                    }
                } else {
                    min_to_col[j] -= delta;
                }
            }

            match self.col_to_row[j1] {
                None => break j1,
                Some(r) => {
                    current_row = r;
                    current_col = Some(j1);
                }
            }
        };

        // Unwind the alternating path from the free column back to `row`.
        let mut col = final_col;
        loop {
            match way[col] {
                None => {
                    self.col_to_row[col] = Some(row);
                    self.row_to_col[row] = Some(col);
                    break;
                }
                Some(prev_col) => {
                    let moved_row =
                        self.col_to_row[prev_col].expect("interior tree columns are matched");
                    self.col_to_row[col] = Some(moved_row);
                    self.row_to_col[moved_row] = Some(col);
                    col = prev_col;
                }
            }
        }
    }
}

/// Convenience: rebuilds the current live rows as a dense [`Matrix`]
/// (removed rows excluded) and solves from scratch — the oracle the tests
/// compare against.
///
/// # Errors
///
/// Returns [`OptError::EmptyMatrix`] when no live rows remain.
pub fn resolve_from_scratch(inc: &IncrementalAssignment) -> Result<Assignment, OptError> {
    let live: Vec<Vec<f64>> = inc.rows.iter().flatten().cloned().collect();
    if live.is_empty() {
        return Err(OptError::EmptyMatrix);
    }
    let matrix = Matrix::from_rows(&live)?;
    Ok(max_weight_assignment(&matrix))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wolt_support::rng::ChaCha8Rng;
    use wolt_support::rng::{Rng, SeedableRng};

    fn assert_matches_batch(inc: &IncrementalAssignment) {
        let batch = resolve_from_scratch(inc).expect("live rows exist");
        let incremental = inc.total();
        assert!(
            (incremental - batch.total).abs() < 1e-6,
            "incremental {incremental} != batch {}",
            batch.total
        );
    }

    #[test]
    fn sequential_adds_match_batch() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..30 {
            let cols = rng.gen_range(2..=6);
            let rows = rng.gen_range(1..=cols);
            let mut inc = IncrementalAssignment::new(cols);
            for _ in 0..rows {
                let row: Vec<f64> = (0..cols).map(|_| rng.gen_range(0.0..100.0)).collect();
                inc.add_row(row).unwrap();
                assert_matches_batch(&inc);
            }
        }
    }

    #[test]
    fn fig3_example_pairs_correctly() {
        let mut inc = IncrementalAssignment::new(2);
        let u1 = inc.add_row(vec![15.0, 10.0]).unwrap();
        let u2 = inc.add_row(vec![30.0, 10.0]).unwrap();
        assert_eq!(inc.column_of(u2), Some(0));
        assert_eq!(inc.column_of(u1), Some(1));
        assert!((inc.total() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn update_repairs_optimally() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for _ in 0..30 {
            let cols = rng.gen_range(2..=6);
            let mut inc = IncrementalAssignment::new(cols);
            let mut ids = Vec::new();
            for _ in 0..cols {
                ids.push(
                    inc.add_row((0..cols).map(|_| rng.gen_range(0.0..100.0)).collect())
                        .unwrap(),
                );
            }
            for _ in 0..8 {
                let &victim = ids.get(rng.gen_range(0..ids.len())).unwrap();
                inc.update_row(
                    victim,
                    (0..cols).map(|_| rng.gen_range(0.0..100.0)).collect(),
                )
                .unwrap();
                assert_matches_batch(&inc);
            }
        }
    }

    #[test]
    fn remove_keeps_remaining_matching_optimal() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..30 {
            let cols = rng.gen_range(2..=6);
            let mut inc = IncrementalAssignment::new(cols);
            let mut ids = Vec::new();
            for _ in 0..cols {
                ids.push(
                    inc.add_row((0..cols).map(|_| rng.gen_range(0.0..100.0)).collect())
                        .unwrap(),
                );
            }
            while ids.len() > 1 {
                let victim = ids.swap_remove(rng.gen_range(0..ids.len()));
                inc.remove_row(victim).unwrap();
                assert_matches_batch(&inc);
            }
        }
    }

    #[test]
    fn mixed_mutation_sequences_match_batch() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for _ in 0..15 {
            let cols = rng.gen_range(2..=5);
            let mut inc = IncrementalAssignment::new(cols);
            let mut live: Vec<usize> = Vec::new();
            for _ in 0..30 {
                let roll: f64 = rng.gen_range(0.0..1.0);
                if live.is_empty() || (roll < 0.5 && live.len() < cols) {
                    let id = inc
                        .add_row((0..cols).map(|_| rng.gen_range(0.0..100.0)).collect())
                        .unwrap();
                    live.push(id);
                } else if roll < 0.75 {
                    let &victim = live.get(rng.gen_range(0..live.len())).unwrap();
                    inc.update_row(
                        victim,
                        (0..cols).map(|_| rng.gen_range(0.0..100.0)).collect(),
                    )
                    .unwrap();
                } else {
                    let victim = live.swap_remove(rng.gen_range(0..live.len()));
                    inc.remove_row(victim).unwrap();
                }
                if !live.is_empty() {
                    assert_matches_batch(&inc);
                }
            }
        }
    }

    #[test]
    fn infeasible_cells_respected() {
        let ninf = f64::NEG_INFINITY;
        let mut inc = IncrementalAssignment::new(2);
        let a = inc.add_row(vec![ninf, 4.0]).unwrap();
        let b = inc.add_row(vec![3.0, ninf]).unwrap();
        assert_eq!(inc.column_of(a), Some(1));
        assert_eq!(inc.column_of(b), Some(0));
        assert!((inc.total() - 7.0).abs() < 1e-9);
    }

    #[test]
    fn fully_infeasible_row_reports_unmatched() {
        let ninf = f64::NEG_INFINITY;
        let mut inc = IncrementalAssignment::new(2);
        let dead = inc.add_row(vec![ninf, ninf]).unwrap();
        let live = inc.add_row(vec![3.0, 5.0]).unwrap();
        assert_eq!(inc.column_of(dead), None);
        assert_eq!(inc.column_of(live), Some(1));
        assert!((inc.total() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn snapshot_matches_accessors() {
        let mut inc = IncrementalAssignment::new(3);
        inc.add_row(vec![5.0, 1.0, 2.0]).unwrap();
        inc.add_row(vec![1.0, 7.0, 2.0]).unwrap();
        let snap = inc.snapshot();
        assert_eq!(snap.pairs, inc.pairs());
        assert!((snap.total - inc.total()).abs() < 1e-12);
        for &(r, c) in &snap.pairs {
            assert_eq!(inc.row_of(c), Some(r));
        }
    }

    #[test]
    fn full_matching_rejects_further_adds() {
        let mut inc = IncrementalAssignment::new(2);
        inc.add_row(vec![1.0, 2.0]).unwrap();
        inc.add_row(vec![3.0, 4.0]).unwrap();
        assert!(inc.add_row(vec![5.0, 6.0]).is_err());
        // Removing one opens a slot again.
        inc.remove_row(0).unwrap();
        assert!(inc.add_row(vec![5.0, 6.0]).is_ok());
        assert_matches_batch(&inc);
    }

    #[test]
    fn api_errors() {
        let mut inc = IncrementalAssignment::new(2);
        assert!(inc.add_row(vec![1.0]).is_err());
        assert!(inc.update_row(0, vec![1.0, 2.0]).is_err());
        assert!(inc.remove_row(0).is_err());
        let id = inc.add_row(vec![1.0, 2.0]).unwrap();
        inc.remove_row(id).unwrap();
        assert!(inc.remove_row(id).is_err(), "double remove must error");
        assert!(inc.update_row(id, vec![1.0, 2.0]).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn zero_columns_panics() {
        let _ = IncrementalAssignment::new(0);
    }

    #[test]
    fn potentials_survive_long_churn() {
        // A long adversarial churn run: correctness must not decay with
        // accumulated potential updates.
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let cols = 6;
        let mut inc = IncrementalAssignment::new(cols);
        let mut live: Vec<usize> = Vec::new();
        for step in 0..300 {
            if live.len() < cols && (live.is_empty() || rng.gen_bool(0.45)) {
                live.push(
                    inc.add_row((0..cols).map(|_| rng.gen_range(0.0..1000.0)).collect())
                        .unwrap(),
                );
            } else if rng.gen_bool(0.6) {
                let &victim = live.get(rng.gen_range(0..live.len())).unwrap();
                inc.update_row(
                    victim,
                    (0..cols).map(|_| rng.gen_range(0.0..1000.0)).collect(),
                )
                .unwrap();
            } else {
                let victim = live.swap_remove(rng.gen_range(0..live.len()));
                inc.remove_row(victim).unwrap();
            }
            if !live.is_empty() && step % 10 == 0 {
                assert_matches_batch(&inc);
            }
        }
    }
}
