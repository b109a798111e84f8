//! Projected-gradient ascent over products of probability simplices.
//!
//! The WOLT paper solves its Phase-II nonlinear program (Problem 2) with a
//! numerical solver "which uses the interior point method; the solver stops
//! when the improvement in the aggregate throughput is less than e−5". We
//! substitute projected-gradient ascent with Armijo backtracking: the
//! feasible region (one probability simplex per unassigned user, optionally
//! masked to the extenders the user can actually reach) and the stopping
//! rule (absolute objective improvement below `tol`, default `1e-5`) are
//! identical, and Theorem 3 of the paper guarantees the optimum the solver
//! approaches is integral.
//!
//! The solver is generic over an [`Objective`]; `wolt-core` implements the
//! Phase-II WiFi-throughput objective on top of it.

use crate::simplex::{is_on_simplex, RowSupports};
use crate::OptError;

/// A differentiable objective over a block variable `x`, where `x[i]` is the
/// decision row of user `i` (a point on the probability simplex over
/// extenders).
pub trait Objective {
    /// Objective value at `x` (to be maximized).
    fn value(&self, x: &[Vec<f64>]) -> f64;

    /// Writes the gradient at `x` into `grad` (same shape as `x`).
    ///
    /// Implementations may assume `grad` was zeroed or will be fully
    /// overwritten; the solver always passes a buffer of the right shape.
    fn gradient(&self, x: &[Vec<f64>], grad: &mut [Vec<f64>]);
}

/// Outcome of a [`ProjectedGradient::maximize`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// The final (feasible) iterate.
    pub x: Vec<Vec<f64>>,
    /// Objective value at `x`.
    pub value: f64,
    /// Number of outer iterations performed.
    pub iterations: usize,
    /// Number of objective evaluations the backtracking line search made:
    /// one per candidate step tried, accepted or not.
    pub evaluations: usize,
    /// True if the stopping rule (improvement < `tol`) fired before the
    /// iteration budget ran out.
    pub converged: bool,
}

/// Projected-gradient ascent solver configuration.
///
/// Construct with [`ProjectedGradient::new`] and adjust fields via the
/// builder-style methods.
///
/// # Example
///
/// Maximize `-(x0 - 0.9)²` over the 1-simplex in two variables; the optimum
/// puts as much mass as possible on coordinate 0:
///
/// ```
/// use wolt_opt::{Objective, ProjectedGradient};
///
/// struct Pull;
/// impl Objective for Pull {
///     fn value(&self, x: &[Vec<f64>]) -> f64 {
///         -(x[0][0] - 0.9_f64).powi(2)
///     }
///     fn gradient(&self, x: &[Vec<f64>], g: &mut [Vec<f64>]) {
///         g[0][0] = -2.0 * (x[0][0] - 0.9);
///         g[0][1] = 0.0;
///     }
/// }
///
/// # fn main() -> Result<(), wolt_opt::OptError> {
/// let report = ProjectedGradient::new().maximize(&Pull, vec![vec![0.5, 0.5]], None)?;
/// assert!((report.x[0][0] - 0.9).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectedGradient {
    /// Initial step size tried at each iteration.
    pub step: f64,
    /// Stop when the objective improves by less than this between
    /// iterations (the paper uses 1e-5).
    pub tol: f64,
    /// Maximum number of outer iterations.
    pub max_iters: usize,
    /// Multiplicative step shrink factor for backtracking (0 < beta < 1).
    pub backtrack: f64,
    /// Maximum number of backtracking halvings per iteration.
    pub max_backtracks: usize,
}

impl Default for ProjectedGradient {
    fn default() -> Self {
        Self::new()
    }
}

impl ProjectedGradient {
    /// Solver with the paper's stopping tolerance (`1e-5`) and sensible
    /// defaults for the remaining knobs.
    pub fn new() -> Self {
        Self {
            step: 1.0,
            tol: 1e-5,
            max_iters: 5_000,
            backtrack: 0.5,
            max_backtracks: 40,
        }
    }

    /// Sets the stopping tolerance.
    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Sets the iteration budget.
    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// Sets the initial step size.
    pub fn with_step(mut self, step: f64) -> Self {
        self.step = step;
        self
    }

    /// Maximizes `objective` starting from `x0`, each row constrained to the
    /// probability simplex (restricted to `masks[i]` when provided).
    ///
    /// `x0` rows need not be feasible; they are projected first.
    ///
    /// # Errors
    ///
    /// * [`OptError::DimensionMismatch`] if `masks` is provided with a shape
    ///   different from `x0` or with a row that allows no coordinate, or any
    ///   row of `x0` is empty.
    /// * [`OptError::NonFiniteInput`] if `x0` contains non-finite values or
    ///   the objective evaluates to a non-finite value at the start.
    pub fn maximize<O: Objective>(
        &self,
        objective: &O,
        x0: Vec<Vec<f64>>,
        masks: Option<&[Vec<bool>]>,
    ) -> Result<SolveReport, OptError> {
        let mut x = x0;
        if x.iter().any(|row| row.is_empty()) {
            return Err(OptError::DimensionMismatch {
                context: "x0 contains an empty row",
            });
        }
        if x.iter().flatten().any(|v| !v.is_finite()) {
            return Err(OptError::NonFiniteInput { context: "x0" });
        }
        if let Some(masks) = masks {
            if masks.len() != x.len()
                || masks
                    .iter()
                    .zip(&x)
                    .any(|(mask, row)| mask.len() != row.len())
            {
                return Err(OptError::DimensionMismatch {
                    context: "masks shape differs from x0",
                });
            }
            if masks.iter().any(|mask| !mask.contains(&true)) {
                return Err(OptError::DimensionMismatch {
                    context: "a mask allows no coordinate",
                });
            }
        }

        let widths: Vec<usize> = x.iter().map(Vec::len).collect();
        let supports = RowSupports::new(&widths, masks);
        // The projection kernel's sort buffer, shared by every row.
        let mut sorted = Vec::new();
        supports.project(&mut x, &mut sorted);

        let mut value = objective.value(&x);
        if !value.is_finite() {
            return Err(OptError::NonFiniteInput {
                context: "objective at the projected start point",
            });
        }

        let mut grad: Vec<Vec<f64>> = x.iter().map(|row| vec![0.0; row.len()]).collect();
        // The one candidate buffer of the line search: every trial step is
        // written into it and an accepted one is swapped with `x`.
        let mut candidate = x.clone();
        let mut iterations = 0;
        let mut evaluations = 0;
        let mut converged = false;

        while iterations < self.max_iters {
            iterations += 1;
            objective.gradient(&x, &mut grad);

            // Backtracking line search along the projected-gradient arc.
            let mut step = self.step;
            let mut accepted = None;
            for _ in 0..=self.max_backtracks {
                for ((crow, xrow), grow) in candidate.iter_mut().zip(&x).zip(&grad) {
                    for ((cv, &xv), &gv) in crow.iter_mut().zip(xrow).zip(grow) {
                        *cv = xv + step * gv;
                    }
                }
                supports.project(&mut candidate, &mut sorted);
                let cand_value = objective.value(&candidate);
                evaluations += 1;
                if cand_value.is_finite() && cand_value > value {
                    accepted = Some(cand_value);
                    break;
                }
                step *= self.backtrack;
            }

            // No ascent direction found at any step size: stationary point
            // of the projected problem.
            let Some(cand_value) = accepted else {
                converged = true;
                break;
            };
            let improvement = cand_value - value;
            std::mem::swap(&mut x, &mut candidate);
            value = cand_value;
            if improvement < self.tol {
                converged = true;
                break;
            }
        }

        Ok(SolveReport {
            x,
            value,
            iterations,
            evaluations,
            converged,
        })
    }
}

/// Debug helper: asserts every row of `x` is feasible.
pub fn assert_feasible(x: &[Vec<f64>], masks: Option<&[Vec<bool>]>, tol: f64) -> bool {
    x.iter().enumerate().all(|(i, row)| {
        is_on_simplex(row, tol)
            && masks.is_none_or(|m| {
                row.iter()
                    .zip(&m[i])
                    .all(|(&v, &allowed)| allowed || v.abs() <= tol)
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Concave quadratic: maximize -Σ (x - target)². The unconstrained
    /// optimum is `target`; the constrained optimum is its projection.
    struct Quadratic {
        target: Vec<Vec<f64>>,
    }

    impl Objective for Quadratic {
        fn value(&self, x: &[Vec<f64>]) -> f64 {
            -x.iter()
                .zip(&self.target)
                .flat_map(|(row, trow)| row.iter().zip(trow))
                .map(|(a, b)| (a - b).powi(2))
                .sum::<f64>()
        }
        fn gradient(&self, x: &[Vec<f64>], g: &mut [Vec<f64>]) {
            for ((grow, xrow), trow) in g.iter_mut().zip(x).zip(&self.target) {
                for ((gv, xv), tv) in grow.iter_mut().zip(xrow).zip(trow) {
                    *gv = -2.0 * (xv - tv);
                }
            }
        }
    }

    #[test]
    fn reaches_interior_optimum() {
        let obj = Quadratic {
            target: vec![vec![0.3, 0.7]],
        };
        let report = ProjectedGradient::new()
            .maximize(&obj, vec![vec![1.0, 0.0]], None)
            .unwrap();
        assert!(report.converged);
        assert!((report.x[0][0] - 0.3).abs() < 1e-3, "{:?}", report.x);
        assert!((report.x[0][1] - 0.7).abs() < 1e-3);
    }

    #[test]
    fn clamps_to_vertex_when_target_outside() {
        let obj = Quadratic {
            target: vec![vec![5.0, -5.0]],
        };
        let report = ProjectedGradient::new()
            .maximize(&obj, vec![vec![0.5, 0.5]], None)
            .unwrap();
        assert!((report.x[0][0] - 1.0).abs() < 1e-6);
        assert!(report.x[0][1].abs() < 1e-6);
    }

    #[test]
    fn handles_multiple_rows_independently() {
        let obj = Quadratic {
            target: vec![vec![0.9, 0.1], vec![0.2, 0.8]],
        };
        let report = ProjectedGradient::new()
            .maximize(&obj, vec![vec![0.5, 0.5], vec![0.5, 0.5]], None)
            .unwrap();
        assert!((report.x[0][0] - 0.9).abs() < 1e-3);
        assert!((report.x[1][1] - 0.8).abs() < 1e-3);
    }

    #[test]
    fn respects_masks() {
        let obj = Quadratic {
            target: vec![vec![1.0, 0.0, 0.0]],
        };
        // Coordinate 0 (the target) is masked out: the best feasible point
        // splits between the remaining coordinates, and the masked one
        // stays exactly zero.
        let masks = vec![vec![false, true, true]];
        let report = ProjectedGradient::new()
            .maximize(&obj, vec![vec![0.0, 0.5, 0.5]], Some(&masks))
            .unwrap();
        assert_eq!(report.x[0][0], 0.0);
        assert!(assert_feasible(&report.x, Some(&masks), 1e-9));
    }

    #[test]
    fn projects_infeasible_start() {
        let obj = Quadratic {
            target: vec![vec![0.5, 0.5]],
        };
        let report = ProjectedGradient::new()
            .maximize(&obj, vec![vec![10.0, -3.0]], None)
            .unwrap();
        assert!(is_on_simplex(&report.x[0], 1e-9));
    }

    #[test]
    fn rejects_shape_mismatch() {
        let obj = Quadratic {
            target: vec![vec![0.5, 0.5]],
        };
        let masks = vec![vec![true]];
        let err = ProjectedGradient::new()
            .maximize(&obj, vec![vec![0.5, 0.5]], Some(&masks))
            .unwrap_err();
        assert!(matches!(err, OptError::DimensionMismatch { .. }));
    }

    #[test]
    fn rejects_a_mask_that_allows_no_coordinate() {
        let obj = Quadratic {
            target: vec![vec![0.5, 0.5], vec![0.5, 0.5]],
        };
        let masks = vec![vec![true, true], vec![false, false]];
        let err = ProjectedGradient::new()
            .maximize(&obj, vec![vec![0.5, 0.5], vec![0.5, 0.5]], Some(&masks))
            .unwrap_err();
        assert!(matches!(err, OptError::DimensionMismatch { .. }));
    }

    /// [`Quadratic`], counting its value evaluations.
    struct Counted {
        inner: Quadratic,
        values: std::cell::Cell<usize>,
    }

    impl Objective for Counted {
        fn value(&self, x: &[Vec<f64>]) -> f64 {
            self.values.set(self.values.get() + 1);
            self.inner.value(x)
        }
        fn gradient(&self, x: &[Vec<f64>], g: &mut [Vec<f64>]) {
            self.inner.gradient(x, g);
        }
    }

    #[test]
    fn evaluations_count_every_line_search_trial() {
        let obj = Counted {
            inner: Quadratic {
                target: vec![vec![0.3, 0.7], vec![2.0, -1.0]],
            },
            values: std::cell::Cell::new(0),
        };
        let report = ProjectedGradient::new()
            .with_step(8.0)
            .maximize(&obj, vec![vec![1.0, 0.0], vec![0.0, 1.0]], None)
            .unwrap();
        // Every value call but the start point's is a line-search trial,
        // and each iteration tries at least one step.
        assert_eq!(report.evaluations, obj.values.get() - 1);
        assert!(report.evaluations > report.iterations, "{report:?}");
    }

    #[test]
    fn rejects_non_finite_start() {
        let obj = Quadratic {
            target: vec![vec![0.5, 0.5]],
        };
        let err = ProjectedGradient::new()
            .maximize(&obj, vec![vec![f64::NAN, 0.5]], None)
            .unwrap_err();
        assert!(matches!(err, OptError::NonFiniteInput { .. }));
    }

    #[test]
    fn iteration_budget_reported() {
        let obj = Quadratic {
            target: vec![vec![0.3, 0.7]],
        };
        let report = ProjectedGradient::new()
            .with_max_iters(1)
            .with_tol(0.0)
            .maximize(&obj, vec![vec![1.0, 0.0]], None)
            .unwrap();
        assert_eq!(report.iterations, 1);
    }

    #[test]
    fn stationary_start_converges_immediately() {
        let obj = Quadratic {
            target: vec![vec![0.5, 0.5]],
        };
        let report = ProjectedGradient::new()
            .maximize(&obj, vec![vec![0.5, 0.5]], None)
            .unwrap();
        assert!(report.converged);
        assert!(report.value.abs() < 1e-12);
    }
}
