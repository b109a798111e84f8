//! Bitwise pin of the Phase-II fractional solve.
//!
//! `Wolt::associate_detailed` on two seeded sites is hashed down to one
//! 64-bit FNV-1a digest of every bit the solve produces: each entry of
//! the final fractional iterate, the objective value, the iteration
//! count, the convergence flag and the final association. The digests
//! were captured from the clone-per-backtrack line search that preceded
//! the allocation-free one, so any change to the solver's float
//! operations — a reordered sum, a fused multiply-add, a different
//! projection threshold — fails here even when the integral plan happens
//! to survive it.

use wolt_core::{Network, Wolt};
use wolt_tests::{enterprise_network, lab_scenario};

const SCENARIO_SEED: u64 = 42;

/// Digest of the 200-user enterprise site (15 extenders).
const ENTERPRISE_200: u64 = 0xa668_d02e_fb2e_2239;
/// Digest of the 7-user lab site (3 extenders).
const LAB_7: u64 = 0xbade_1b49_ee46_2196;

/// 64-bit FNV-1a over a stream of little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn solve_digest(net: &Network) -> u64 {
    let (_, p2) = Wolt::new().associate_detailed(net).expect("site solves");
    let report = p2.fractional.expect("site has Phase-II users");
    let mut h = Fnv::new();
    h.word(report.x.len() as u64);
    for row in &report.x {
        h.word(row.len() as u64);
        for v in row {
            h.word(v.to_bits());
        }
    }
    h.word(report.value.to_bits());
    h.word(report.iterations as u64);
    h.word(u64::from(report.converged));
    for target in p2.association.iter() {
        h.word(target.map_or(u64::MAX, |j| j as u64));
    }
    h.0
}

#[test]
fn enterprise_200_solve_is_bit_identical() {
    let digest = solve_digest(&enterprise_network(200, SCENARIO_SEED));
    assert_eq!(digest, ENTERPRISE_200, "digest {digest:#018x}");
}

#[test]
fn lab_solve_is_bit_identical() {
    let net = lab_scenario(7, SCENARIO_SEED)
        .network()
        .expect("network builds");
    let digest = solve_digest(&net);
    assert_eq!(digest, LAB_7, "digest {digest:#018x}");
}
