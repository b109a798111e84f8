//! The loopback daemon probe of traced runs: the `wolt-daemon` server on
//! 127.0.0.1 with its snapshot store on, two users served by the
//! product's `run_agent`, long seeded leave/join churn on the lab site.
//! At 2 users the solver is trivial, so codec, inbox, session engine,
//! ack round trip and per-epoch snapshot writes do the work. Each
//! session is a fresh daemon and a fresh store.
//!
//! Its timings are per-layer metrics, not end-to-end ones: on a shared
//! host a loopback round trip is dominated by cross-CPU wake-ups and
//! every epoch fsyncs a snapshot, so the daemon's rate spreads far
//! beyond any bound a regression gate could hold.

use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

use wolt_daemon::{run_agent, Daemon, DaemonConfig, DaemonOutcome};
use wolt_support::json::Json;
use wolt_support::obs::{self, ObsSnapshot};
use wolt_support::rng::{ChaCha8Rng, SeedableRng};
use wolt_testbed::{run_faulty_session, ControllerPolicy, FaultPlan, RigConfig, SessionEvent};

use crate::inproc::World;
use crate::site::{churn_events, Site, NOISE_SEED};
use crate::stats::{median, ratio, us};
use crate::Outcome;

const USERS: usize = 2;

/// Leave/join cycles per daemon session.
const CYCLES: usize = 1000;

/// Sessions per probe at least.
const MIN_SESSIONS: usize = 3;

/// One daemon session's measurements.
struct Session {
    outcome: DaemonOutcome,
    wall: Duration,
    before: ObsSnapshot,
    after: ObsSnapshot,
}

impl Session {
    fn delta(&self, counter: &str) -> u64 {
        self.after.counter(counter) - self.before.counter(counter)
    }
}

fn session(site: &Site, events: &[SessionEvent], store_dir: &Path) -> Result<Session, String> {
    let _ = std::fs::remove_dir_all(store_dir);
    let mut config = DaemonConfig::new(ControllerPolicy::Wolt);
    config.noise_seed = NOISE_SEED;
    config.snapshot_dir = Some(store_dir.to_path_buf());
    // A scheduling stall on a shared host must not fire a retransmission
    // in a clean run (that would change the byte counts); retries that
    // do happen are still reported as `daemon.retries`.
    config.deadlines.ack = Duration::from_secs(1);
    config.deadlines.ack_backoff_cap = Duration::from_secs(2);
    let scenario = &site.scenario;
    let before = obs::snapshot();
    let t0 = Instant::now();
    let daemon = Daemon::bind("127.0.0.1:0", scenario.clone(), events.to_vec(), config)
        .map_err(|e| format!("daemon bind: {e}"))?;
    let addr = daemon
        .local_addr()
        .map_err(|e| format!("daemon address: {e}"))?;
    let outcome = thread::scope(|s| {
        let agents: Vec<_> = (0..USERS)
            .map(|i| s.spawn(move || run_agent(addr, scenario, i, &format!("bench-{i}"))))
            .collect();
        let outcome = daemon.run().map_err(|e| format!("daemon: {e}"));
        for agent in agents {
            match agent.join() {
                Ok(Ok(_)) => {}
                Ok(Err(e)) => return Err(format!("agent: {e}")),
                Err(_) => return Err("agent thread panicked".to_string()),
            }
        }
        outcome
    })?;
    let wall = t0.elapsed();
    let after = obs::snapshot();
    let _ = std::fs::remove_dir_all(store_dir);
    Ok(Session {
        wall,
        outcome,
        before,
        after,
    })
}

/// What the daemon sessions of a traced run measured and checked.
pub struct DaemonProbe {
    sessions: Vec<Session>,
    events: usize,
    /// Epochs per second of drive time, per session.
    rates: Vec<f64>,
    latencies_us: Vec<f64>,
    /// (drive time − Σ resolve time) / epochs, per session.
    commits_us: Vec<f64>,
    failed: u64,
    first_failure: Option<String>,
    canonical_ok: bool,
    replay_ok: bool,
}

/// Runs seeded daemon sessions for `budget` of session time (at least
/// [`MIN_SESSIONS`]). After each, outside its timing, the in-process rig
/// must reach the byte-identical canonical report from the same events,
/// and an in-process replay must end where the daemon did.
pub fn probe(seed: u64, budget: Duration, run_dir: &Path) -> Result<DaemonProbe, String> {
    let site = Site::lab(USERS)?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let store_dir = run_dir.join("store-daemon");
    let mut spent = Duration::ZERO;
    let mut p = DaemonProbe {
        sessions: Vec::new(),
        events: 0,
        rates: Vec::new(),
        latencies_us: Vec::new(),
        commits_us: Vec::new(),
        failed: 0,
        first_failure: None,
        canonical_ok: true,
        replay_ok: true,
    };
    while spent < budget || p.sessions.len() < MIN_SESSIONS {
        let events = churn_events(&mut rng, USERS, CYCLES);
        let s = session(&site, &events, &store_dir)?;
        spent += s.wall;
        let report = &s.outcome.report;
        let broken =
            report.unresponsive.len() + report.declared_dead.len() + report.degraded_solves;
        if !s.outcome.completed || broken > 0 {
            p.failed += broken.max(1) as u64;
            p.first_failure.get_or_insert(format!(
                "daemon session ended completed={} unresponsive={:?} dead={:?} degraded={}",
                s.outcome.completed,
                report.unresponsive,
                report.declared_dead,
                report.degraded_solves
            ));
        }
        let rig = run_faulty_session(
            &site.scenario,
            &RigConfig::new(ControllerPolicy::Wolt),
            &events,
            NOISE_SEED,
            &FaultPlan::none(),
        )
        .map_err(|e| format!("rig session: {e}"))?;
        p.canonical_ok &= rig.canonical() == report.canonical();
        let mut world = World::new(site.clone());
        for &e in &events {
            world.apply(e.into(), None)?;
            if let Err(e) = world.check() {
                p.failed += 1;
                p.first_failure.get_or_insert(e);
            }
        }
        p.replay_ok &=
            (0..USERS).all(|i| world.core.association()[i] == report.outcome.association.target(i));

        let lat: Vec<f64> = s
            .outcome
            .stats
            .resolve_latencies
            .iter()
            .map(|&d| us(d))
            .collect();
        let epochs = s.outcome.epochs_done;
        p.commits_us.push(ratio(
            us(s.outcome.stats.elapsed) - lat.iter().sum::<f64>(),
            epochs as f64,
        ));
        p.latencies_us.extend(lat);
        p.events += epochs;
        p.rates
            .push(epochs as f64 / s.outcome.stats.elapsed.as_secs_f64());
        p.sessions.push(s);
    }
    Ok(p)
}

impl DaemonProbe {
    /// The daemon's work counts, over its first session: exact for a
    /// seed.
    pub fn counts(&self) -> [(&'static str, u64); 2] {
        let first = &self.sessions[0];
        [
            ("daemon.bytes_in", first.delta("daemon.bytes_in")),
            ("daemon.bytes_out", first.delta("daemon.bytes_out")),
        ]
    }

    /// Adds the daemon-side metrics, checks and detail to a traced run's
    /// outcome.
    pub fn report(&self, out: &mut Outcome) {
        let total = |c: &str| self.sessions.iter().map(|s| s.delta(c)).sum::<u64>();
        let retries: usize = self.sessions.iter().map(|s| s.outcome.report.retries).sum();
        out.metric(
            "daemon.events_per_s",
            median(&self.rates).unwrap_or(0.0),
            "1/s",
        );
        out.time("daemon.resolve_us", &self.latencies_us);
        out.time("engine.commit_us", &self.commits_us);
        out.metric("daemon.retries", retries as f64, "count");
        out.metric(
            "daemon.frames_shed",
            total("daemon.frames_shed") as f64,
            "count",
        );
        out.attempted += self.events as u64;
        out.failed += self.failed;
        out.check("daemon sessions clean", self.failed == 0);
        out.check(
            "daemon canonical report equals the in-process rig",
            self.canonical_ok,
        );
        out.check("in-process replay ends where the daemon did", self.replay_ok);
        if let Some(f) = &self.first_failure {
            out.detail
                .push(("daemon_first_failure".into(), Json::Str(f.clone())));
        }
        let n = self.events as f64;
        out.detail.push((
            "daemon".into(),
            Json::obj([
                ("transport", Json::Str("loopback 127.0.0.1".into())),
                ("sessions", Json::Int(self.sessions.len() as i64)),
                ("events", Json::Int(self.events as i64)),
                ("retries", Json::Int(retries as i64)),
                ("snapshots", Json::Int(total("daemon.snapshots") as i64)),
                (
                    "bytes_per_event",
                    Json::Num((total("daemon.bytes_in") + total("daemon.bytes_out")) as f64 / n),
                ),
                (
                    "frames_per_event",
                    Json::Num(
                        (total("daemon.frames_in") + total("daemon.frames_out")) as f64 / n,
                    ),
                ),
                (
                    "session_events_per_s",
                    Json::Arr(self.rates.iter().map(|&r| Json::Num(r)).collect()),
                ),
            ]),
        ));
    }
}
