//! Property-based tests for the optimization substrate, on the in-tree
//! `wolt_support::check` harness.

use wolt_opt::auction::auction_assignment;
use wolt_opt::brute;
use wolt_opt::hungarian::max_weight_assignment;
use wolt_opt::simplex::{is_on_simplex, project_simplex, project_simplex_masked, RowSupports};
use wolt_opt::Matrix;
use wolt_support::check::Runner;
use wolt_support::rng::{ChaCha8Rng, Rng};

fn small_matrix(rng: &mut ChaCha8Rng) -> Matrix {
    let r = rng.gen_range(1..=5usize);
    let c = rng.gen_range(1..=5usize);
    Matrix::from_fn(r, c, |_, _| rng.gen_range(0.0..1000.0)).expect("well-formed dims")
}

fn small_vec(rng: &mut ChaCha8Rng, len_lo: usize, len_hi: usize, bound: f64) -> Vec<f64> {
    let n = rng.gen_range(len_lo..len_hi);
    (0..n).map(|_| rng.gen_range(-bound..bound)).collect()
}

/// The Hungarian solver returns a matching: each row and column used at
/// most once, exactly min(rows, cols) pairs on all-finite matrices.
#[test]
fn hungarian_returns_valid_matching() {
    Runner::new("hungarian_returns_valid_matching").run(small_matrix, |m| {
        let a = max_weight_assignment(m);
        if a.len() != m.rows().min(m.cols()) {
            return Err(format!(
                "matching size {} != min(rows, cols) {}",
                a.len(),
                m.rows().min(m.cols())
            ));
        }
        let mut rows_seen = vec![false; m.rows()];
        let mut cols_seen = vec![false; m.cols()];
        for &(r, c) in &a.pairs {
            if rows_seen[r] {
                return Err(format!("row {r} matched twice"));
            }
            if cols_seen[c] {
                return Err(format!("col {c} matched twice"));
            }
            rows_seen[r] = true;
            cols_seen[c] = true;
        }
        let sum: f64 = a.pairs.iter().map(|&(r, c)| m[(r, c)]).sum();
        if (sum - a.total).abs() < 1e-9 {
            Ok(())
        } else {
            Err(format!("reported total {} != pair sum {sum}", a.total))
        }
    });
}

/// Hungarian matches brute force exactly on small instances.
#[test]
fn hungarian_is_optimal() {
    Runner::new("hungarian_is_optimal").run(small_matrix, |m| {
        let hung = max_weight_assignment(m);
        let (_, best) = brute::best_perfect_matching(m);
        if (hung.total - best).abs() < 1e-6 {
            Ok(())
        } else {
            Err(format!("hungarian={} brute={best}", hung.total))
        }
    });
}

/// The auction algorithm agrees with the Hungarian optimum to within
/// its n·ε guarantee (and in practice exactly, for tiny ε).
#[test]
fn auction_matches_hungarian() {
    Runner::new("auction_matches_hungarian").run(small_matrix, |m| {
        let hung = max_weight_assignment(m);
        let auc = auction_assignment(m, 1e-7);
        if hung.total - auc.total > m.rows() as f64 * 1e-7 + 1e-6 {
            return Err(format!("hungarian={} auction={}", hung.total, auc.total));
        }
        // The auction result is itself a valid matching.
        let mut cols = std::collections::BTreeSet::new();
        for &(_, c) in &auc.pairs {
            if !cols.insert(c) {
                return Err(format!("column {c} used twice"));
            }
        }
        Ok(())
    });
}

/// Hungarian total is invariant under transposition.
#[test]
fn hungarian_transpose_invariant() {
    Runner::new("hungarian_transpose_invariant").run(small_matrix, |m| {
        let a = max_weight_assignment(m);
        let b = max_weight_assignment(&m.transposed());
        if (a.total - b.total).abs() < 1e-6 {
            Ok(())
        } else {
            Err(format!("direct={} transposed={}", a.total, b.total))
        }
    });
}

/// Adding a constant to every utility shifts the optimum by
/// `constant * matching size` but preserves the argmax.
#[test]
fn hungarian_shift_invariant() {
    Runner::new("hungarian_shift_invariant").run(
        |rng| (small_matrix(rng), rng.gen_range(0.0..100.0)),
        |(m, shift)| {
            let a = max_weight_assignment(m);
            let shifted = Matrix::from_fn(m.rows(), m.cols(), |i, j| m[(i, j)] + shift).unwrap();
            let b = max_weight_assignment(&shifted);
            let k = m.rows().min(m.cols()) as f64;
            if (b.total - (a.total + shift * k)).abs() < 1e-6 {
                Ok(())
            } else {
                Err(format!(
                    "shifted total {} != {} + {shift} * {k}",
                    b.total, a.total
                ))
            }
        },
    );
}

/// Simplex projection always lands on the simplex.
#[test]
fn projection_feasible() {
    Runner::new("projection_feasible").run(
        |rng| small_vec(rng, 1, 10, 100.0),
        |v| {
            let mut x = v.clone();
            project_simplex(&mut x);
            if is_on_simplex(&x, 1e-9) {
                Ok(())
            } else {
                Err(format!("projection left the simplex: {x:?}"))
            }
        },
    );
}

/// Projection is idempotent.
#[test]
fn projection_idempotent() {
    Runner::new("projection_idempotent").run(
        |rng| small_vec(rng, 1, 10, 100.0),
        |v| {
            let mut x = v.clone();
            project_simplex(&mut x);
            let once = x.clone();
            project_simplex(&mut x);
            for (a, b) in once.iter().zip(&x) {
                if (a - b).abs() >= 1e-9 {
                    return Err(format!("second projection moved {a} to {b}"));
                }
            }
            Ok(())
        },
    );
}

/// Projection preserves coordinate order (it is a monotone map).
#[test]
fn projection_monotone() {
    Runner::new("projection_monotone").run(
        |rng| small_vec(rng, 2, 8, 50.0),
        |v| {
            let mut x = v.clone();
            project_simplex(&mut x);
            for i in 0..v.len() {
                for j in 0..v.len() {
                    if v[i] > v[j] && x[i] < x[j] - 1e-12 {
                        return Err(format!(
                            "order inverted: v[{i}]={} > v[{j}]={} but x[{i}]={} < x[{j}]={}",
                            v[i], v[j], x[i], x[j]
                        ));
                    }
                }
            }
            Ok(())
        },
    );
}

/// Masked projection puts zero mass on masked-out coordinates and is
/// feasible on the rest.
#[test]
fn masked_projection_feasible() {
    Runner::new("masked_projection_feasible").run(
        |rng| {
            let v = small_vec(rng, 2, 8, 50.0);
            let seed = rng.gen_range(0..1000u64);
            (v, seed)
        },
        |(v, seed)| {
            // Derive a mask with at least one allowed coordinate.
            let mut mask: Vec<bool> = v
                .iter()
                .enumerate()
                .map(|(i, _)| (seed >> (i % 10)) & 1 == 1)
                .collect();
            if !mask.iter().any(|&b| b) {
                mask[0] = true;
            }
            let mut x = v.clone();
            project_simplex_masked(&mut x, &mask);
            if !is_on_simplex(&x, 1e-9) {
                return Err(format!("masked projection left the simplex: {x:?}"));
            }
            for (xi, mi) in x.iter().zip(&mask) {
                if !mi && *xi != 0.0 {
                    return Err(format!("masked-out coordinate carries mass {xi}"));
                }
            }
            Ok(())
        },
    );
}

/// A naive Duchi et al. (2008) projection of `v` onto the simplex over
/// the coordinates `mask` allows (all when `None`), with the on-simplex
/// early return the solver has always taken: gather the allowed values,
/// stable-sort a copy descending, take the last threshold
/// `τ = (prefix_k − 1) / k` below its sorted value, and clamp.
fn naive_projection(v: &[f64], mask: Option<&[bool]>) -> Vec<f64> {
    let allowed: Vec<usize> = (0..v.len())
        .filter(|&i| mask.is_none_or(|m| m[i]))
        .collect();
    let sub: Vec<f64> = allowed.iter().map(|&i| v[i]).collect();
    let sum: f64 = sub.iter().sum();
    let projected: Vec<f64> = if (sum - 1.0).abs() < 1e-12 && sub.iter().all(|&x| x >= 0.0) {
        sub
    } else {
        let mut sorted = sub.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
        let mut prefix = 0.0;
        let mut tau = 0.0;
        for (k, &u) in sorted.iter().enumerate() {
            prefix += u;
            let candidate = (prefix - 1.0) / (k + 1) as f64;
            if u - candidate > 0.0 {
                tau = candidate;
            }
        }
        sub.iter().map(|&x| (x - tau).max(0.0)).collect()
    };
    let mut out = vec![0.0; v.len()];
    for (slot, &i) in allowed.iter().enumerate() {
        out[i] = projected[slot];
    }
    out
}

/// One row of a projection block: its values and, unless unmasked, the
/// coordinates it may use.
type Row = (Vec<f64>, Option<Vec<bool>>);

/// A block of rows mixing the cases a solver meets: ties, signed zeros,
/// rows already on the simplex, masks with a single active coordinate,
/// and unmasked rows.
fn projection_block(rng: &mut ChaCha8Rng) -> Vec<Row> {
    const PALETTE: [f64; 7] = [0.0, -0.0, 0.25, 0.5, 1.0, -0.5, 2.0];
    let rows = rng.gen_range(1..=8usize);
    (0..rows)
        .map(|_| {
            let n = rng.gen_range(1..=16usize);
            let mask = match rng.gen_range(0..4u32) {
                0 => None,
                1 => {
                    let only = rng.gen_range(0..n);
                    Some((0..n).map(|j| j == only).collect::<Vec<bool>>())
                }
                _ => {
                    let mut m: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.6)).collect();
                    let first = rng.gen_range(0..n);
                    m[first] = true;
                    Some(m)
                }
            };
            let mut v: Vec<f64> = (0..n)
                .map(|_| {
                    if rng.gen_bool(0.4) {
                        PALETTE[rng.gen_range(0..PALETTE.len())]
                    } else {
                        rng.gen_range(-2.0..2.0)
                    }
                })
                .collect();
            if rng.gen_bool(0.25) {
                // Already on the simplex over the allowed coordinates: a
                // vertex, with signed zeros elsewhere.
                let allowed: Vec<usize> = (0..n)
                    .filter(|&j| mask.as_ref().is_none_or(|m| m[j]))
                    .collect();
                let vertex = allowed[rng.gen_range(0..allowed.len())];
                for &j in &allowed {
                    v[j] = if j == vertex { 1.0 } else { -0.0 };
                }
            }
            (v, mask)
        })
        .collect()
}

fn bits_differ(got: &[f64], want: &[f64]) -> bool {
    got.len() != want.len()
        || got
            .iter()
            .zip(want)
            .any(|(a, b)| a.to_bits() != b.to_bits())
}

/// The projection kernel is bit-identical to the naive algorithm, through
/// every entry point: the per-row wrappers and a block projected with
/// precomputed supports and one shared sort buffer.
#[test]
fn projection_kernel_matches_naive_reference_bitwise() {
    Runner::new("projection_kernel_matches_naive_reference_bitwise")
        .cases(512)
        .run(projection_block, |block| {
            let want: Vec<Vec<f64>> = block
                .iter()
                .map(|(v, mask)| naive_projection(v, mask.as_deref()))
                .collect();
            for ((v, mask), want) in block.iter().zip(&want) {
                let mut got = v.clone();
                match mask {
                    Some(mask) => project_simplex_masked(&mut got, mask),
                    None => project_simplex(&mut got),
                }
                if bits_differ(&got, want) {
                    return Err(format!(
                        "wrapper: {v:?} mask {mask:?} -> {got:?}, want {want:?}"
                    ));
                }
            }
            // The solver's path: one support set for the whole block and
            // a sort buffer shared by every row. Unmasked rows get a
            // full mask, as a masked solve would see them.
            let widths: Vec<usize> = block.iter().map(|(v, _)| v.len()).collect();
            let masks: Vec<Vec<bool>> = block
                .iter()
                .map(|(v, mask)| mask.clone().unwrap_or_else(|| vec![true; v.len()]))
                .collect();
            let mut got: Vec<Vec<f64>> = block.iter().map(|(v, _)| v.clone()).collect();
            let mut sorted = Vec::new();
            RowSupports::new(&widths, Some(&masks)).project(&mut got, &mut sorted);
            for (row, (got, want)) in got.iter().zip(&want).enumerate() {
                if bits_differ(got, want) {
                    return Err(format!("block row {row}: {got:?}, want {want:?}"));
                }
            }
            // The unmasked rows alone, as an unmasked solve sees them.
            let unmasked: Vec<usize> = (0..block.len()).filter(|&r| block[r].1.is_none()).collect();
            let widths: Vec<usize> = unmasked.iter().map(|&r| block[r].0.len()).collect();
            let mut got: Vec<Vec<f64>> = unmasked.iter().map(|&r| block[r].0.clone()).collect();
            RowSupports::new(&widths, None).project(&mut got, &mut sorted);
            for (got, &r) in got.iter().zip(&unmasked) {
                if bits_differ(got, &want[r]) {
                    return Err(format!("unmasked row {r}: {got:?}, want {:?}", want[r]));
                }
            }
            Ok(())
        });
}
