//! Euclidean projection onto the probability simplex.
//!
//! WOLT's Phase II (Problem 2 in the paper) relaxes each user's association
//! indicator row `x_i· ∈ {0,1}^|A|` with `Σ_j x_ij = 1` to the probability
//! simplex `{x ≥ 0, Σx = 1}`. Our projected-gradient solver (the stand-in
//! for the paper's interior-point method) needs an exact projection back
//! onto that simplex after every gradient step; this module implements the
//! standard O(n log n) sort-based algorithm (Held, Wolfe & Crowder 1974;
//! popularized by Duchi et al. 2008).
//!
//! The masked variant supports restricted candidate sets: a user that is out
//! of WiFi range of extender `j` must keep `x_ij = 0`, so the projection is
//! performed on the sub-vector of reachable extenders only.
//!
//! Every entry point runs one kernel, `project_support`: it gathers a
//! row's active coordinates into a caller-owned sort buffer, returns early
//! when they already lie on the simplex, and otherwise sorts them to find
//! the threshold τ. A solver that projects the same rows many times builds
//! their [`RowSupports`] once and reuses one buffer, so a projection
//! allocates nothing.

/// Projects `v` in place onto the probability simplex
/// `{x : x_i ≥ 0, Σ x_i = 1}`.
///
/// # Panics
///
/// Panics if `v` is empty or contains non-finite values.
///
/// # Example
///
/// ```
/// use wolt_opt::simplex::project_simplex;
///
/// let mut v = vec![0.8, 0.8];
/// project_simplex(&mut v);
/// assert!((v[0] - 0.5).abs() < 1e-12);
/// assert!((v[1] - 0.5).abs() < 1e-12);
/// ```
pub fn project_simplex(v: &mut [f64]) {
    assert!(!v.is_empty(), "cannot project an empty vector");
    let active: Vec<usize> = (0..v.len()).collect();
    project_support(v, &active, &[], &mut Vec::new());
}

/// Projects `v` in place onto the simplex restricted to the coordinates
/// where `mask` is `true`; masked-out coordinates are set to exactly `0`.
///
/// # Panics
///
/// Panics if `v` and `mask` have different lengths, if no coordinate is
/// unmasked, or if any unmasked value is non-finite.
pub fn project_simplex_masked(v: &mut [f64], mask: &[bool]) {
    assert_eq!(v.len(), mask.len(), "vector and mask lengths must match");
    let (active, inactive): (Vec<usize>, Vec<usize>) = (0..v.len()).partition(|&i| mask[i]);
    project_support(v, &active, &inactive, &mut Vec::new());
}

/// The projection kernel: projects the coordinates of `v` listed in
/// `active` onto the probability simplex over those coordinates and sets
/// every coordinate in `inactive` to exactly `0`. Coordinates in neither
/// list are left alone.
///
/// `sorted` is a work buffer: it is cleared, filled with the active values in
/// `active` order and sorted, so a caller that projects many rows can
/// pass the same buffer every time and allocate only while it grows.
///
/// # Panics
///
/// Panics if `active` is empty, or if any active value is non-finite.
fn project_support(v: &mut [f64], active: &[usize], inactive: &[usize], sorted: &mut Vec<f64>) {
    assert!(
        !active.is_empty(),
        "cannot project onto simplex with no allowed coordinate"
    );
    sorted.clear();
    sorted.extend(active.iter().map(|&i| v[i]));
    assert!(
        sorted.iter().all(|x| x.is_finite()),
        "cannot project non-finite values"
    );
    for &i in inactive {
        v[i] = 0.0;
    }

    // Fast path: already on the simplex.
    let sum: f64 = sorted.iter().sum();
    if (sum - 1.0).abs() < 1e-12 && sorted.iter().all(|&x| x >= 0.0) {
        return;
    }

    sorted.sort_unstable_by(|a, b| b.partial_cmp(a).expect("finite values compare"));

    // Find the threshold tau = (prefix_sum(rho) - 1) / rho for the largest
    // rho with sorted[rho-1] - tau > 0.
    let mut prefix = 0.0;
    let mut tau = 0.0;
    for (k, &u) in sorted.iter().enumerate() {
        prefix += u;
        let candidate = (prefix - 1.0) / (k + 1) as f64;
        if u - candidate > 0.0 {
            tau = candidate;
        }
    }

    for &i in active {
        v[i] = (v[i] - tau).max(0.0);
    }
}

/// The active and inactive coordinates of every row of a block variable,
/// computed once from the rows' masks and stored contiguously, so that
/// projecting all rows again runs the projection kernel once per row and
/// allocates nothing.
///
/// # Example
///
/// ```
/// use wolt_opt::simplex::RowSupports;
///
/// let masks = vec![vec![true, false, true], vec![false, true, false]];
/// let supports = RowSupports::new(&[3, 3], Some(&masks));
/// let mut x = vec![vec![0.8, 5.0, 0.8], vec![0.2, -1.0, 0.3]];
/// supports.project(&mut x, &mut Vec::new());
/// assert_eq!(x, vec![vec![0.5, 0.0, 0.5], vec![0.0, 1.0, 0.0]]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowSupports {
    /// Per row, its active coordinates followed by its inactive ones.
    coords: Vec<usize>,
    /// Per row, `(start, split, end)` into `coords`: `start..split` is
    /// active, `split..end` inactive.
    rows: Vec<(usize, usize, usize)>,
}

impl RowSupports {
    /// Supports for rows of the given `widths`: the coordinates where
    /// `masks[i]` is `true` are active in row `i`, or every coordinate
    /// when `masks` is `None`.
    ///
    /// # Panics
    ///
    /// Panics if `masks` is provided with a shape different from `widths`.
    pub fn new(widths: &[usize], masks: Option<&[Vec<bool>]>) -> Self {
        let mut coords = Vec::with_capacity(widths.iter().sum());
        let mut rows = Vec::with_capacity(widths.len());
        for (i, &width) in widths.iter().enumerate() {
            if let Some(masks) = masks {
                assert_eq!(masks[i].len(), width, "mask and row widths must match");
            }
            let allowed = |j: &usize| masks.is_none_or(|m| m[i][*j]);
            let start = coords.len();
            coords.extend((0..width).filter(allowed));
            let split = coords.len();
            coords.extend((0..width).filter(|j| !allowed(j)));
            rows.push((start, split, coords.len()));
        }
        Self { coords, rows }
    }

    /// Projects every row of `x` onto its support's simplex, reusing
    /// `sorted` as the kernel's sort buffer.
    ///
    /// # Panics
    ///
    /// Panics if `x` has a different row count than the supports, if a
    /// row has no active coordinate, or if an active value is non-finite.
    pub fn project(&self, x: &mut [Vec<f64>], sorted: &mut Vec<f64>) {
        assert_eq!(x.len(), self.rows.len(), "row counts must match");
        for (row, &(start, split, end)) in x.iter_mut().zip(&self.rows) {
            project_support(
                row,
                &self.coords[start..split],
                &self.coords[split..end],
                sorted,
            );
        }
    }
}

/// Returns `true` if `x` lies on the probability simplex up to `tol`:
/// all coordinates ≥ `-tol` and the sum within `tol` of 1.
pub fn is_on_simplex(x: &[f64], tol: f64) -> bool {
    if x.is_empty() {
        return false;
    }
    let sum: f64 = x.iter().sum();
    (sum - 1.0).abs() <= tol && x.iter().all(|&v| v >= -tol)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    #[test]
    fn identity_on_simplex_points() {
        let mut v = vec![0.2, 0.3, 0.5];
        project_simplex(&mut v);
        assert_close(v[0], 0.2);
        assert_close(v[1], 0.3);
        assert_close(v[2], 0.5);
    }

    #[test]
    fn uniform_from_equal_values() {
        let mut v = vec![10.0; 4];
        project_simplex(&mut v);
        for &x in &v {
            assert_close(x, 0.25);
        }
    }

    #[test]
    fn single_coordinate_becomes_one() {
        let mut v = vec![-3.7];
        project_simplex(&mut v);
        assert_close(v[0], 1.0);
    }

    #[test]
    fn dominant_coordinate_saturates() {
        let mut v = vec![100.0, 0.0, 0.0];
        project_simplex(&mut v);
        assert_close(v[0], 1.0);
        assert_close(v[1], 0.0);
        assert_close(v[2], 0.0);
    }

    #[test]
    fn negative_values_clamped() {
        let mut v = vec![-1.0, 0.5, 0.6];
        project_simplex(&mut v);
        assert_close(v[0], 0.0);
        assert!(is_on_simplex(&v, 1e-12));
        // Remaining mass split to keep the relative order: 0.45 / 0.55.
        assert_close(v[1], 0.45);
        assert_close(v[2], 0.55);
    }

    #[test]
    fn result_always_on_simplex() {
        let cases = [
            vec![0.1, 0.9, 2.3, -4.0],
            vec![1e6, -1e6],
            vec![0.0, 0.0, 0.0],
            vec![1.0, 1.0, 1.0, 1.0, 1.0],
        ];
        for case in cases {
            let mut v = case.clone();
            project_simplex(&mut v);
            assert!(is_on_simplex(&v, 1e-9), "{case:?} -> {v:?}");
        }
    }

    #[test]
    fn projection_is_idempotent() {
        let mut v = vec![3.0, -1.0, 0.2, 0.9];
        project_simplex(&mut v);
        let once = v.clone();
        project_simplex(&mut v);
        for (a, b) in once.iter().zip(&v) {
            assert_close(*a, *b);
        }
    }

    #[test]
    fn projection_minimizes_distance_vs_grid() {
        // Check the optimality of the projection against a dense grid
        // search over the 2-simplex.
        let target = [0.9, -0.3, 0.7];
        let mut v = target.to_vec();
        project_simplex(&mut v);
        let proj_dist: f64 = target.iter().zip(&v).map(|(t, p)| (t - p).powi(2)).sum();
        let steps = 200;
        for i in 0..=steps {
            for j in 0..=(steps - i) {
                let x = [
                    i as f64 / steps as f64,
                    j as f64 / steps as f64,
                    (steps - i - j) as f64 / steps as f64,
                ];
                let d: f64 = target.iter().zip(&x).map(|(t, p)| (t - p).powi(2)).sum();
                assert!(proj_dist <= d + 1e-6, "grid point {x:?} beats projection");
            }
        }
    }

    #[test]
    fn masked_projection_zeroes_masked_coordinates() {
        let mut v = vec![5.0, 5.0, 5.0];
        project_simplex_masked(&mut v, &[true, false, true]);
        assert_close(v[1], 0.0);
        assert_close(v[0], 0.5);
        assert_close(v[2], 0.5);
    }

    #[test]
    fn masked_projection_single_allowed() {
        let mut v = vec![0.0, -9.0];
        project_simplex_masked(&mut v, &[false, true]);
        assert_close(v[0], 0.0);
        assert_close(v[1], 1.0);
    }

    #[test]
    #[should_panic(expected = "no allowed coordinate")]
    fn masked_projection_rejects_empty_mask() {
        let mut v = vec![1.0, 2.0];
        project_simplex_masked(&mut v, &[false, false]);
    }

    #[test]
    #[should_panic(expected = "lengths must match")]
    fn masked_projection_rejects_length_mismatch() {
        let mut v = vec![1.0];
        project_simplex_masked(&mut v, &[true, true]);
    }

    #[test]
    fn is_on_simplex_detects_violations() {
        assert!(is_on_simplex(&[1.0], 1e-9));
        assert!(is_on_simplex(&[0.5, 0.5], 1e-9));
        assert!(!is_on_simplex(&[0.5, 0.6], 1e-9));
        assert!(!is_on_simplex(&[1.5, -0.5], 1e-9));
        assert!(!is_on_simplex(&[], 1e-9));
    }
}
