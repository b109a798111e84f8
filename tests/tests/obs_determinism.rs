//! The observability determinism matrix: enabling metrics collection
//! never perturbs results, and the merged counter totals are themselves
//! deterministic at every worker-pool width.
//!
//! Two sessions are driven at `WOLT_THREADS` ∈ {1, 2, 8}: a lossy
//! in-process rig session (seeded drops and a crashed agent, zero
//! artificial delay so every retransmission is decision-driven) and a
//! clean daemon loopback session over TCP. For each, the canonical
//! report AND the full merged counter map — solves, directives,
//! retransmissions, wire frames, everything — must be byte-for-byte
//! identical across thread counts. Per-thread counter shards are merged
//! in worker index order by the pool, and counter addition is
//! commutative, so any divergence here means an obs write leaked into a
//! decision path or a shard was lost.
//!
//! The solver's work counters are part of the map: `core.phase2_iterations`
//! and `core.phase2_line_search_evals`, the objective evaluations of the
//! Phase-II backtracking line search, must total the same at every width.
//!
//! Timing histograms (`*_us`) and gauges are deliberately outside this
//! contract; only counters are compared.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread;
use std::time::Duration;

use wolt_daemon::{run_agent, Daemon, DaemonConfig};
use wolt_support::obs;
use wolt_testbed::{
    run_faulty_session, ControllerPolicy, FaultPlan, LinkFaults, RigConfig, SessionEvent,
};
use wolt_tests::lab_scenario;

const SCENARIO_SEED: u64 = 42;
const NOISE_SEED: u64 = 0;

/// Serializes the tests in this binary: both the obs registry and the
/// `WOLT_THREADS` variable are process-global.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn with_threads<T>(threads: &str, f: impl FnOnce() -> T) -> T {
    let original = std::env::var("WOLT_THREADS").ok();
    std::env::set_var("WOLT_THREADS", threads);
    let out = f();
    match original {
        Some(v) => std::env::set_var("WOLT_THREADS", v),
        None => std::env::remove_var("WOLT_THREADS"),
    }
    out
}

fn all_join(users: usize) -> Vec<SessionEvent> {
    (0..users).map(SessionEvent::Join).collect()
}

/// Seeded message loss and a crashed agent, but *zero* artificial delay:
/// with fault decisions keyed by message identity, every retransmission
/// and ack timeout is then forced by the plan rather than the scheduler,
/// so their counts are legitimately part of the determinism contract.
fn lossy_plan() -> FaultPlan {
    FaultPlan {
        seed: 7,
        to_cc: LinkFaults {
            drop: 0.2,
            duplicate: 0.1,
            max_delay: Duration::ZERO,
        },
        to_client: LinkFaults {
            drop: 0.2,
            duplicate: 0.1,
            max_delay: Duration::ZERO,
        },
        crashed: vec![3],
        wedged: vec![],
    }
}

/// Deadlines tuned for the matrix: the ack deadline is 10× the default
/// so a busy CI scheduler cannot trip a spurious retry (dropped messages
/// still trip their deterministic ones), while the event budget for the
/// crashed agent is trimmed so five measured runs stay fast.
fn matrix_deadlines(d: &mut wolt_testbed::Deadlines) {
    d.ack = Duration::from_millis(250);
    d.event = Duration::from_millis(500);
    d.event_attempts = 3;
}

/// Missing counters read as zero: a counter registers lazily on first
/// use, so a session that never exercises a site leaves no entry.
fn counter(map: &BTreeMap<String, u64>, name: &str) -> u64 {
    map.get(name).copied().unwrap_or(0)
}

/// Non-vacuousness of the Phase-II work counters the matrix pins: the
/// fractional solve ran, and its line search evaluated the objective at
/// least once per iteration.
fn assert_phase2_work(counters: &BTreeMap<String, u64>) {
    let iterations = counter(counters, "core.phase2_iterations");
    let evals = counter(counters, "core.phase2_line_search_evals");
    assert!(iterations > 0, "no Phase-II iterations counted");
    assert!(
        evals >= iterations,
        "{evals} line-search evaluations for {iterations} Phase-II iterations"
    );
}

fn measured_faulty_session() -> (String, BTreeMap<String, u64>) {
    obs::reset();
    let mut config = RigConfig::new(ControllerPolicy::Wolt);
    matrix_deadlines(&mut config.deadlines);
    let report = run_faulty_session(
        &lab_scenario(7, SCENARIO_SEED),
        &config,
        &all_join(7),
        NOISE_SEED,
        &lossy_plan(),
    )
    .expect("lossy session completes");
    (report.canonical(), obs::snapshot().counters)
}

fn measured_daemon_loopback() -> (String, BTreeMap<String, u64>) {
    obs::reset();
    let scenario = lab_scenario(7, SCENARIO_SEED);
    let mut config = DaemonConfig::new(ControllerPolicy::Wolt);
    config.noise_seed = NOISE_SEED;
    matrix_deadlines(&mut config.deadlines);
    let daemon =
        Daemon::bind("127.0.0.1:0", scenario.clone(), all_join(7), config).expect("loopback bind");
    let addr = daemon.local_addr().expect("bound address");
    let agents: Vec<_> = (0..7)
        .map(|i| {
            let scenario = scenario.clone();
            thread::spawn(move || run_agent(addr, &scenario, i, &format!("laptop-{i}")))
        })
        .collect();
    let outcome = daemon.run().expect("session runs");
    for handle in agents {
        handle.join().expect("agent thread").expect("agent exits");
    }
    assert!(outcome.completed, "loopback session did not complete");
    (outcome.report.canonical(), obs::snapshot().counters)
}

fn assert_matrix(
    label: &str,
    measure: fn() -> (String, BTreeMap<String, u64>),
    check_baseline: impl Fn(&BTreeMap<String, u64>),
) {
    let (base_canonical, base_counters) = with_threads("1", measure);
    check_baseline(&base_counters);
    for threads in ["2", "8"] {
        let (canonical, counters) = with_threads(threads, measure);
        assert_eq!(
            canonical, base_canonical,
            "{label}: canonical report diverged at WOLT_THREADS={threads}"
        );
        assert_eq!(
            counters, base_counters,
            "{label}: merged counter totals diverged at WOLT_THREADS={threads}"
        );
    }
}

#[test]
fn faulty_session_counters_are_thread_count_invariant() {
    let _guard = lock();
    assert_matrix("faulty rig session", measured_faulty_session, |counters| {
        // Non-vacuousness: the lossy plan must actually exercise the
        // solver, directive, and retransmission counters being pinned.
        assert!(counter(counters, "core.solves") > 0, "no solves counted");
        assert_phase2_work(counters);
        assert!(
            counter(counters, "cc.directives") > 0,
            "no directives counted"
        );
        assert!(
            counter(counters, "cc.retransmissions") + counter(counters, "harness.retransmissions")
                > 0,
            "the lossy plan forced no retransmissions — the matrix is vacuous"
        );
    });
}

#[test]
fn daemon_loopback_counters_are_thread_count_invariant() {
    let _guard = lock();
    assert_matrix("daemon loopback", measured_daemon_loopback, |counters| {
        assert!(counter(counters, "core.solves") > 0, "no solves counted");
        assert_phase2_work(counters);
        assert!(
            counter(counters, "cc.directives") > 0,
            "no directives counted"
        );
        assert!(
            counter(counters, "daemon.frames_in") > 0,
            "no inbound frames"
        );
        assert!(
            counter(counters, "daemon.frames_out") > 0,
            "no outbound frames"
        );
        assert!(counter(counters, "daemon.bytes_in") > 0, "no inbound bytes");
        // A clean loopback run retransmits nothing — pin that too.
        assert_eq!(counter(counters, "cc.retransmissions"), 0);
    });
}

#[test]
fn disabling_obs_does_not_change_the_faulty_session_report() {
    let _guard = lock();
    let (enabled_canonical, counters) = measured_faulty_session();
    assert!(counter(&counters, "core.solves") > 0);
    obs::set_enabled(false);
    let result = std::panic::catch_unwind(|| {
        obs::reset();
        let (disabled_canonical, disabled_counters) = measured_faulty_session();
        assert_eq!(
            disabled_canonical, enabled_canonical,
            "disabling obs changed the session outcome"
        );
        // And collection really was off.
        assert!(disabled_counters.values().all(|&v| v == 0));
    });
    obs::set_enabled(true);
    if let Err(payload) = result {
        std::panic::resume_unwind(payload);
    }
}
