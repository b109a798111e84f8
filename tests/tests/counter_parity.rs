//! Metric names mean the same thing in the rig and the daemon: both
//! drive the one directive [`wolt_testbed::Transaction`] and the one
//! join/leave [`wolt_testbed::Harness`], so a lost first directive
//! transmission is counted as an ack timeout and a retransmission, and
//! a lost join as a harness retransmission, by either transport; and a
//! session touches the same set of `cc.*` and `harness.*` counters
//! whichever transport carries it.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread;
use std::time::Duration;

use wolt_daemon::{Daemon, DaemonConfig};
use wolt_support::obs::{self, ObsSnapshot};
use wolt_testbed::{
    run_faulty_session, ControllerPolicy, Deadlines, FaultPlan, LinkFaults, RigConfig, SessionEvent,
};
use wolt_tests::{lab_scenario, scripted_agent};

const USERS: usize = 7;
const SCENARIO_SEED: u64 = 3;
const NOISE_SEED: u64 = 9;

/// Serializes the tests in this binary: the obs counters they compare
/// are process-global.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// An ack deadline far above a loopback round trip, so only the
/// scripted losses time out: a spurious retransmission could bring a
/// late duplicate ack, which `cc.acks_stale` would count on one side
/// only.
fn deadlines() -> Deadlines {
    Deadlines {
        ack: Duration::from_millis(500),
        ack_backoff_cap: Duration::from_secs(2),
        ..Deadlines::default()
    }
}

/// The `cc.*` and `harness.*` counters that rose between two
/// snapshots, with their increments.
fn deltas(before: &ObsSnapshot, after: &ObsSnapshot) -> BTreeMap<String, u64> {
    after
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("cc.") || name.starts_with("harness."))
        .map(|(name, &v)| (name.clone(), v - before.counter(name)))
        .filter(|&(_, d)| d > 0)
        .collect()
}

#[test]
fn rig_and_daemon_count_a_lost_directive_alike() {
    let _guard = lock();
    let scenario = lab_scenario(USERS, SCENARIO_SEED);
    let events: Vec<SessionEvent> = (0..USERS).map(SessionEvent::Join).collect();

    // Rig: the seeded plan drops directive transmissions (this seed
    // drops at least one first transmission and never a whole budget).
    let plan = FaultPlan {
        seed: 1,
        to_client: LinkFaults {
            drop: 0.3,
            ..LinkFaults::none()
        },
        ..FaultPlan::none()
    };
    let mut config = RigConfig::new(ControllerPolicy::Wolt);
    config.deadlines = deadlines();
    let before = obs::snapshot();
    let report = run_faulty_session(&scenario, &config, &events, NOISE_SEED, &plan)
        .expect("lossy rig session");
    let rig = deltas(&before, &obs::snapshot());
    assert!(report.declared_dead.is_empty(), "the plan killed a client");

    // Daemon: every agent ignores the first directive it receives.
    let mut config = DaemonConfig::new(ControllerPolicy::Wolt);
    config.noise_seed = NOISE_SEED;
    config.deadlines = deadlines();
    let daemon = Daemon::bind("127.0.0.1:0", scenario.clone(), events, config).unwrap();
    let addr = daemon.local_addr().unwrap();
    let before = obs::snapshot();
    let agents: Vec<_> = (0..USERS)
        .map(|i| {
            let scenario = scenario.clone();
            thread::spawn(move || scripted_agent(addr, &scenario, i, None, 0, 1, |_, _| Ok(())))
        })
        .collect();
    let outcome = daemon.run().expect("daemon session");
    for agent in agents {
        agent.join().unwrap().expect("agent exits");
    }
    let daemon = deltas(&before, &obs::snapshot());
    assert!(outcome.completed);
    assert!(outcome.report.declared_dead.is_empty());

    for (label, deltas) in [("rig", &rig), ("daemon", &daemon)] {
        for name in ["cc.ack_timeouts", "cc.retransmissions"] {
            assert!(deltas.contains_key(name), "{label} never counted {name}");
        }
    }
    assert_eq!(
        rig.keys().collect::<Vec<_>>(),
        daemon.keys().collect::<Vec<_>>(),
        "the transports touched different cc.* counters"
    );
}

#[test]
fn rig_and_daemon_count_a_lost_join_alike() {
    let _guard = lock();
    let scenario = lab_scenario(USERS, SCENARIO_SEED);
    let events: Vec<SessionEvent> = (0..USERS).map(SessionEvent::Join).collect();
    // A short event deadline retransmits a lost join quickly; the ack
    // deadline stays long, so no directive is retransmitted.
    let deadlines = Deadlines {
        event: Duration::from_millis(200),
        ..deadlines()
    };

    // Rig: the seeded plan drops agent -> CC messages (this seed drops
    // at least one scan report and no ack, and never a whole join
    // budget).
    let plan = FaultPlan {
        seed: 1,
        to_cc: LinkFaults {
            drop: 0.2,
            ..LinkFaults::none()
        },
        ..FaultPlan::none()
    };
    let mut config = RigConfig::new(ControllerPolicy::Wolt);
    config.deadlines = deadlines;
    let before = obs::snapshot();
    let report = run_faulty_session(&scenario, &config, &events, NOISE_SEED, &plan)
        .expect("lossy rig session");
    let rig = deltas(&before, &obs::snapshot());
    assert!(report.unresponsive.is_empty(), "a join never completed");

    // Daemon: every agent leaves its first join command unanswered.
    let mut config = DaemonConfig::new(ControllerPolicy::Wolt);
    config.noise_seed = NOISE_SEED;
    config.deadlines = deadlines;
    let daemon = Daemon::bind("127.0.0.1:0", scenario.clone(), events, config).unwrap();
    let addr = daemon.local_addr().unwrap();
    let before = obs::snapshot();
    let agents: Vec<_> = (0..USERS)
        .map(|i| {
            let scenario = scenario.clone();
            thread::spawn(move || scripted_agent(addr, &scenario, i, None, 1, 0, |_, _| Ok(())))
        })
        .collect();
    let outcome = daemon.run().expect("daemon session");
    for agent in agents {
        agent.join().unwrap().expect("agent exits");
    }
    let daemon = deltas(&before, &obs::snapshot());
    assert!(outcome.completed);
    assert!(outcome.report.unresponsive.is_empty());

    for (label, deltas) in [("rig", &rig), ("daemon", &daemon)] {
        assert!(
            deltas.contains_key("harness.retransmissions"),
            "{label} never counted harness.retransmissions"
        );
    }
    assert_eq!(
        rig.keys().collect::<Vec<_>>(),
        daemon.keys().collect::<Vec<_>>(),
        "the transports touched different counters"
    );
}
