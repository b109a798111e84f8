//! Property tests for the generational snapshot store: arbitrary
//! on-disk damage — truncation, bit flips, wholesale garbage — must
//! never panic the loader, and every load must either return the newest
//! *intact* generation or fail with the typed corruption error.
//!
//! This is the disk-side half of the crash-safety contract. The chaos
//! harness (`wolt chaos`) proves real crashes recover end-to-end; these
//! properties sweep the damage space far wider than real crashes can,
//! including states no single crash produces (middle generations
//! damaged, every generation damaged) where the store must *refuse*
//! rather than guess.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use wolt_daemon::store::{decode_snapshot, DEFAULT_KEEP};
use wolt_daemon::{
    DaemonConfig, DaemonError, DaemonSnapshot, SessionEngine, SiteDef, SnapshotCorrupt,
    SnapshotStore,
};
use wolt_sim::Scenario;
use wolt_support::check::Runner;
use wolt_support::rng::RngCore;
use wolt_testbed::protocol::ToController;
use wolt_testbed::{Agent, ControllerConfig, ControllerCore, ControllerPolicy, SessionEvent};
use wolt_tests::{enterprise_scenario, lab_scenario};
use wolt_units::Mbps;

/// A distinguishable snapshot per generation: the epoch count differs,
/// so a load that silently returns the wrong generation is caught.
fn sample(epochs_done: usize) -> DaemonSnapshot {
    let mut core = ControllerCore::new(
        2,
        ControllerConfig {
            policy: ControllerPolicy::Wolt,
            estimated_capacities: vec![Mbps::new(50.0), Mbps::new(30.0)],
            strict: false,
        },
    );
    core.handle_report(0, 0, &[Some(Mbps::new(20.0)), Some(Mbps::new(5.0))], 0)
        .unwrap();
    DaemonSnapshot {
        epochs_done,
        present: vec![true, false],
        unresponsive: vec![false, false],
        initial_attach: vec![Some(0), None],
        retries: epochs_done,
        core: core.snapshot(),
    }
}

/// One way to damage one generation's file.
#[derive(Debug, Clone)]
enum Damage {
    /// Keep only a strict prefix (a torn write).
    Truncate { keep_fraction_pct: u64 },
    /// Flip one bit (bit rot).
    BitFlip { byte_seed: u64, bit: u32 },
    /// Replace the file wholesale with unrelated bytes.
    Garbage { bytes: Vec<u8> },
}

impl Damage {
    fn apply(&self, bytes: &[u8]) -> Vec<u8> {
        match self {
            Damage::Truncate { keep_fraction_pct } => {
                // A *strict* prefix: `pct` in 0..=99 keeps at least 0 and
                // at most len-1 bytes, so the result never verifies.
                let keep = (bytes.len() * (*keep_fraction_pct as usize)) / 100;
                bytes[..keep.min(bytes.len().saturating_sub(1))].to_vec()
            }
            Damage::BitFlip { byte_seed, bit } => {
                let mut out = bytes.to_vec();
                let at = (*byte_seed as usize) % out.len();
                out[at] ^= 1 << (bit % 8);
                out
            }
            Damage::Garbage { bytes } => bytes.clone(),
        }
    }
}

/// One property case: which of the three generations get damaged, how.
#[derive(Debug, Clone)]
struct Case {
    damage: Vec<(u64, Damage)>,
}

fn generate_case(rng: &mut impl RngCore) -> Case {
    // A non-empty subset of {0, 1, 2}.
    let mask = 1 + rng.next_u64() % 7;
    let damage = (0u64..3)
        .filter(|g| mask & (1 << g) != 0)
        .map(|generation| {
            let kind = rng.next_u64() % 3;
            let damage = match kind {
                0 => Damage::Truncate {
                    keep_fraction_pct: rng.next_u64() % 100,
                },
                1 => Damage::BitFlip {
                    byte_seed: rng.next_u64(),
                    bit: (rng.next_u64() % 8) as u32,
                },
                _ => Damage::Garbage {
                    bytes: (0..rng.next_u64() % 64)
                        .map(|_| rng.next_u64() as u8)
                        .collect(),
                },
            };
            (generation, damage)
        })
        .collect();
    Case { damage }
}

/// A fresh store directory, unique per test thread and case.
fn case_dir() -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "wolt-store-prop-{}-{:?}-{n}",
        std::process::id(),
        std::thread::current().id()
    ))
}

#[test]
fn damaged_stores_load_the_newest_intact_generation_or_refuse() {
    Runner::new("damaged_stores_load_the_newest_intact_generation_or_refuse")
        .cases(96)
        .run(generate_case, |case| {
            let dir = case_dir();
            let _ = std::fs::remove_dir_all(&dir);
            let mut store = SnapshotStore::open(&dir, 3).map_err(|e| format!("open: {e}"))?;
            for epoch in 1..=3 {
                store
                    .save(&sample(epoch))
                    .map_err(|e| format!("save: {e}"))?;
            }
            for (generation, damage) in &case.damage {
                let path = store.generation_path(*generation);
                let bytes = std::fs::read(&path).map_err(|e| format!("read: {e}"))?;
                let damaged = damage.apply(&bytes);
                // Damage must actually damage: the verifier is the
                // oracle here, and it is unit-tested separately.
                if decode_snapshot(&damaged, "").is_ok() {
                    return Err(format!(
                        "mutation left generation {generation} valid: {damage:?}"
                    ));
                }
                std::fs::write(&path, &damaged).map_err(|e| format!("write: {e}"))?;
            }
            let damaged: Vec<u64> = case.damage.iter().map(|(g, _)| *g).collect();
            let expected = (0u64..3).rev().find(|g| !damaged.contains(g));
            let reopened = SnapshotStore::open(&dir, 3).map_err(|e| format!("reopen: {e}"))?;
            let verdict = match (reopened.load(), expected) {
                (Ok(Some((generation, snapshot))), Some(want)) => {
                    if generation != want {
                        Err(format!("loaded generation {generation}, wanted {want}"))
                    } else if snapshot != sample(want as usize + 1) {
                        Err(format!("generation {generation} loaded with wrong content"))
                    } else {
                        Ok(())
                    }
                }
                (Err(DaemonError::SnapshotCorrupt { .. }), None) => Ok(()),
                (got, want) => Err(format!(
                    "load mismatch: wanted {want:?} intact, got {:?}",
                    got.map(|ok| ok.map(|(g, _)| g))
                )),
            };
            let _ = std::fs::remove_dir_all(&dir);
            verdict
        });
}

#[test]
fn an_intact_snapshot_for_another_site_fails_typed_not_rolled_back() {
    // The fleet half of the damage contract: bit rot is a rollback
    // candidate (older generations may verify), but an *intact*
    // snapshot stamped with a different site id means the directory is
    // mis-wired — loading must refuse with the typed error rather than
    // roll back past it or silently adopt another segment's state.
    let dir = case_dir();
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = SnapshotStore::open_site(&dir, 3, "floor-1").unwrap();
    store.save(&sample(1)).unwrap();
    store.save(&sample(2)).unwrap();
    drop(store);

    let foreign = SnapshotStore::open_site(&dir, 3, "floor-2").unwrap();
    match foreign.load() {
        Err(DaemonError::SnapshotCorrupt(SnapshotCorrupt::WrongSite {
            expected, found, ..
        })) => {
            assert_eq!(expected, "floor-2");
            assert_eq!(found, "floor-1");
        }
        other => panic!(
            "expected SnapshotCorrupt::WrongSite, got {:?}",
            other.map(|ok| ok.map(|(g, _)| g))
        ),
    }

    // The rightful owner still loads the newest generation, so the
    // foreign probe was side-effect free.
    let owner = SnapshotStore::open_site(&dir, 3, "floor-1").unwrap();
    match owner.load() {
        Ok(Some((1, snapshot))) => assert_eq!(snapshot, sample(2)),
        other => panic!(
            "owner should load generation 1, got {:?}",
            other.map(|ok| ok.map(|(g, _)| g))
        ),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn damage_beyond_the_newest_generation_never_goes_unnoticed() {
    // Complement of the recovery property: whenever damage forces a
    // rollback (the newest generation is hit), the survivors the loader
    // picks must still satisfy the full verifier — the loader is not
    // allowed to "repair" by accepting partially-valid bytes.
    Runner::new("damage_beyond_the_newest_generation_never_goes_unnoticed")
        .cases(32)
        .run(
            |rng| {
                // Truncation point swept across the whole file, including
                // cuts inside the trailer.
                rng.next_u64()
            },
            |&cut_seed| {
                let dir = case_dir();
                let _ = std::fs::remove_dir_all(&dir);
                let mut store = SnapshotStore::open(&dir, 3).map_err(|e| format!("open: {e}"))?;
                store.save(&sample(1)).map_err(|e| format!("save: {e}"))?;
                store.save(&sample(2)).map_err(|e| format!("save: {e}"))?;
                let newest = store.generation_path(1);
                let bytes = std::fs::read(&newest).map_err(|e| format!("read: {e}"))?;
                let cut = (cut_seed as usize) % bytes.len();
                std::fs::write(&newest, &bytes[..cut]).map_err(|e| format!("write: {e}"))?;
                let verdict = match store.load() {
                    Ok(Some((0, snapshot))) if snapshot == sample(1) => Ok(()),
                    other => Err(format!(
                        "expected rollback to generation 0, got {:?}",
                        other.map(|ok| ok.map(|(g, _)| g))
                    )),
                };
                let _ = std::fs::remove_dir_all(&dir);
                verdict
            },
        );
}

/// The snapshot a daemon for `scenario` writes after its first four
/// joins (every client joins in index order).
fn stopped_after_four_joins(scenario: &Scenario) -> DaemonSnapshot {
    let n_users = scenario.user_positions.len();
    let mut core = ControllerCore::new(
        n_users,
        ControllerConfig {
            policy: ControllerPolicy::Wolt,
            estimated_capacities: scenario.capacities.clone(),
            strict: false,
        },
    );
    let mut present = vec![false; n_users];
    let mut initial_attach = vec![None; n_users];
    for i in 0..4 {
        let epoch = i as u64;
        let ToController::Report {
            rates, attached, ..
        } = Agent::from_scenario(scenario, i).on_join(epoch)
        else {
            unreachable!("a join answers with a report");
        };
        core.handle_report(i, epoch, &rates, attached).unwrap();
        present[i] = true;
        initial_attach[i] = Some(attached);
    }
    DaemonSnapshot {
        epochs_done: 4,
        present,
        unresponsive: vec![false; n_users],
        initial_attach,
        retries: 0,
        core: core.snapshot(),
    }
}

#[test]
fn a_snapshot_that_does_not_fit_the_site_is_refused_typed() {
    // Same user count, different preset: 3 extenders in the lab, 15 in
    // the enterprise. Each store verifies, but its attachments and rate
    // vectors index another site's extenders.
    let lab = lab_scenario(7, 1);
    let enterprise = enterprise_scenario(7, 1);
    for (from, into) in [(&lab, &enterprise), (&enterprise, &lab)] {
        let dir = case_dir();
        let _ = std::fs::remove_dir_all(&dir);
        SnapshotStore::open_site(&dir, DEFAULT_KEEP, "")
            .unwrap()
            .save(&stopped_after_four_joins(from))
            .unwrap();
        let mut config = DaemonConfig::new(ControllerPolicy::Wolt);
        config.snapshot_dir = Some(dir.clone());
        let site = SiteDef {
            id: String::new(),
            scenario: into.clone(),
            events: (0..7).map(SessionEvent::Join).collect(),
            policy: ControllerPolicy::Wolt,
            noise_seed: 0,
            stop_after: None,
        };
        // Refused while the engine is built: before any agent connects,
        // so before any command goes out.
        let err = SessionEngine::new(site, &config)
            .err()
            .expect("a snapshot of another site's shape must be refused");
        assert!(
            matches!(err, DaemonError::Protocol { .. }),
            "expected a protocol error, got {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
