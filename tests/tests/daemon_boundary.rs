//! The daemon's trust boundary and its single-site wire surface.
//!
//! A registered agent is still an untrusted peer: a frame claiming
//! another client, naming an extender the site does not have, carrying a
//! non-finite rate, or a rate vector of the wrong length must be dropped
//! and counted in `daemon.frames_rejected` — never reach the controller
//! core, never panic the session, never change an honest client's
//! outcome. So must a report or departure naming a later event than the
//! one being driven, and any frame an agent sends before the session
//! starts that does not fit the site. The suite also pins how a single-site daemon answers the
//! fleet-only parts of the wire: a sited hello gets `site_gone`, a fleet
//! operation gets `fleet_ack{ok:false}`.

use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use wolt_daemon::wire::{self, FleetOp};
use wolt_daemon::{run_agent, run_site_agent, AgentRetry, Daemon, DaemonConfig, Envelope, Fleet};
use wolt_daemon::{DaemonOutcome, SiteDef};
use wolt_sim::Scenario;
use wolt_support::json::ToJson;
use wolt_support::obs;
use wolt_testbed::protocol::{ToAgent, ToController};
use wolt_testbed::{run_faulty_session, ControllerPolicy, FaultPlan, RigConfig, SessionEvent};
use wolt_tests::{lab_scenario, scripted_agent};
use wolt_units::Mbps;

const NOISE_SEED: u64 = 5;

/// Serializes the tests in this binary: the obs counters they assert on
/// are process-global.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn events() -> Vec<SessionEvent> {
    vec![SessionEvent::Join(0), SessionEvent::Join(1)]
}

/// Writes one length-prefixed frame with a hand-written body.
fn send_raw(stream: &mut TcpStream, body: &str) -> io::Result<()> {
    stream.write_all(&(body.len() as u32).to_be_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// The four hostile frames client `client` sends for event `epoch`,
/// each of which a registered agent's connection can carry.
fn send_hostile_frames(
    stream: &mut TcpStream,
    scenario: &Scenario,
    client: usize,
    epoch: u64,
) -> io::Result<()> {
    let n_ext = scenario.extender_positions.len();
    let rates: Vec<Option<Mbps>> = (0..n_ext).map(|j| scenario.rate(client, j)).collect();
    let report = |client: usize, rates: Vec<Option<Mbps>>, attached: usize| {
        Envelope::Ctrl(ToController::Report {
            client,
            epoch,
            rates,
            attached,
        })
    };
    // 1. A foreign client id.
    wire::send(stream, &report(999, rates.clone(), 0))?;
    // 2. An extender the site does not have.
    wire::send(stream, &report(client, rates.clone(), n_ext))?;
    // 3. A non-finite rate. JSON has no NaN, so the frame is written by
    //    hand: an overflowing literal is the non-finite value a wire
    //    frame can carry.
    const SENTINEL: f64 = 123456.5;
    let mut poisoned = rates.clone();
    poisoned[0] = Some(Mbps::new(SENTINEL));
    let body = report(client, poisoned, 0).to_json().to_compact();
    let hostile = body.replacen(&SENTINEL.to_string(), "1e999", 1);
    assert_ne!(hostile, body, "sentinel rate not rendered");
    send_raw(stream, &hostile)?;
    // 4. A rate vector of the wrong length.
    let mut long = rates;
    long.push(Some(Mbps::new(1.0)));
    wire::send(stream, &report(client, long, 0))
}

/// Client 1's report and departure for the event after its join (epoch
/// `epoch`), the frames a registered agent could use to end every honest
/// client's session.
fn send_future_frames(stream: &mut TcpStream, scenario: &Scenario, epoch: u64) -> io::Result<()> {
    let n_ext = scenario.extender_positions.len();
    let future = epoch + 1;
    let report = ToController::Report {
        client: 1,
        epoch: future,
        rates: (0..n_ext).map(|j| scenario.rate(1, j)).collect(),
        attached: 0,
    };
    wire::send(stream, &Envelope::Ctrl(report))?;
    let departed = ToController::Departed {
        client: 1,
        epoch: future,
    };
    wire::send(stream, &Envelope::Ctrl(departed))
}

/// What scripted client 1 sends right before its honest join report,
/// given the join's epoch.
type Frames = fn(&mut TcpStream, &Scenario, u64) -> io::Result<()>;

/// Client 0 is the product agent; client 1 is scripted to send the four
/// hostile frames right before its honest join report. `site` routes
/// both to a fleet site.
fn serve_with_hostile_client(
    addr: SocketAddr,
    scenario: &Scenario,
    site: Option<&str>,
    run: impl FnOnce() -> DaemonOutcome,
) -> DaemonOutcome {
    let hostile: Frames = |stream, scenario, epoch| send_hostile_frames(stream, scenario, 1, epoch);
    serve_with_scripted_client(addr, scenario, site, hostile, run)
}

/// Client 0 is the product agent; client 1 is scripted to send `frames`
/// right before its honest join report. `site` routes both to a fleet
/// site.
fn serve_with_scripted_client(
    addr: SocketAddr,
    scenario: &Scenario,
    site: Option<&str>,
    frames: Frames,
    run: impl FnOnce() -> DaemonOutcome,
) -> DaemonOutcome {
    let honest = {
        let scenario = scenario.clone();
        let site = site.map(str::to_string);
        thread::spawn(move || match site {
            Some(site) => {
                run_site_agent(addr, &scenario, &site, 0, "honest", &AgentRetry::default())
            }
            None => run_agent(addr, &scenario, 0, "honest"),
        })
    };
    let hostile = {
        let scenario = scenario.clone();
        let site = site.map(str::to_string);
        thread::spawn(move || {
            scripted_agent(
                addr,
                &scenario,
                1,
                site.as_deref(),
                0,
                0,
                |stream, epoch| frames(stream, &scenario, epoch),
            )
        })
    };
    let outcome = run();
    honest
        .join()
        .expect("honest agent")
        .expect("honest agent exits");
    hostile
        .join()
        .expect("hostile agent")
        .expect("hostile agent exits");
    outcome
}

fn reference(scenario: &Scenario) -> String {
    run_faulty_session(
        scenario,
        &RigConfig::new(ControllerPolicy::Wolt),
        &events(),
        NOISE_SEED,
        &FaultPlan::none(),
    )
    .expect("rig reference")
    .canonical()
}

fn rejected_since(before: &obs::ObsSnapshot) -> u64 {
    obs::snapshot().counter("daemon.frames_rejected") - before.counter("daemon.frames_rejected")
}

#[test]
fn hostile_frames_are_rejected_and_counted_without_touching_the_session() {
    let _guard = lock();
    let scenario = lab_scenario(2, 41);
    let mut config = DaemonConfig::new(ControllerPolicy::Wolt);
    config.noise_seed = NOISE_SEED;
    let daemon = Daemon::bind("127.0.0.1:0", scenario.clone(), events(), config).unwrap();
    let addr = daemon.local_addr().unwrap();
    let before = obs::snapshot();
    let outcome = serve_with_hostile_client(addr, &scenario, None, || {
        daemon.run().expect("the session survives hostile frames")
    });
    assert!(outcome.completed);
    assert_eq!(
        rejected_since(&before),
        4,
        "each hostile frame counted once"
    );
    assert_eq!(outcome.report.canonical(), reference(&scenario));
}

#[test]
fn hostile_frames_are_rejected_at_a_fleet_site_too() {
    let _guard = lock();
    let scenario = lab_scenario(2, 41);
    let def = SiteDef {
        id: "floor-1".into(),
        scenario: scenario.clone(),
        events: events(),
        policy: ControllerPolicy::Wolt,
        noise_seed: NOISE_SEED,
        stop_after: None,
    };
    let fleet = Fleet::bind(
        "127.0.0.1:0",
        vec![def],
        DaemonConfig::new(ControllerPolicy::Wolt),
    )
    .unwrap();
    let addr = fleet.local_addr().unwrap();
    let before = obs::snapshot();
    let outcome = serve_with_hostile_client(addr, &scenario, Some("floor-1"), || {
        let mut fleet = fleet.run().expect("the fleet survives hostile frames");
        fleet
            .sites
            .remove("floor-1")
            .expect("the site reports")
            .expect("the site's session survives hostile frames")
    });
    assert!(outcome.completed);
    assert_eq!(
        rejected_since(&before),
        4,
        "each hostile frame counted once"
    );
    assert_eq!(outcome.report.canonical(), reference(&scenario));
}

/// A single-site daemon session of `scenario` with scripted client 1
/// sending `frames`.
fn daemon_session(scenario: &Scenario, frames: Frames) -> DaemonOutcome {
    let mut config = DaemonConfig::new(ControllerPolicy::Wolt);
    config.noise_seed = NOISE_SEED;
    let daemon = Daemon::bind("127.0.0.1:0", scenario.clone(), events(), config).unwrap();
    let addr = daemon.local_addr().unwrap();
    serve_with_scripted_client(addr, scenario, None, frames, || {
        daemon.run().expect("the session survives")
    })
}

/// [`daemon_session`] at the one site of a fleet.
fn fleet_session(scenario: &Scenario, frames: Frames) -> DaemonOutcome {
    let def = SiteDef {
        id: "floor-1".into(),
        scenario: scenario.clone(),
        events: events(),
        policy: ControllerPolicy::Wolt,
        noise_seed: NOISE_SEED,
        stop_after: None,
    };
    let fleet = Fleet::bind(
        "127.0.0.1:0",
        vec![def],
        DaemonConfig::new(ControllerPolicy::Wolt),
    )
    .unwrap();
    let addr = fleet.local_addr().unwrap();
    serve_with_scripted_client(addr, scenario, Some("floor-1"), frames, || {
        let mut fleet = fleet.run().expect("the fleet survives");
        fleet
            .sites
            .remove("floor-1")
            .expect("the site reports")
            .expect("the site's session survives")
    })
}

/// A report and a departure for the next event, sent ahead of the
/// honest report: accepted, the report would open a new event and move
/// the duplicate watermark past client 1's honest report (or, mid
/// transaction, fail the site). Both are dropped at the boundary.
#[test]
fn future_epoch_frames_are_rejected_and_counted_without_touching_the_session() {
    let _guard = lock();
    let scenario = lab_scenario(2, 41);
    let before = obs::snapshot();
    let outcome = daemon_session(&scenario, send_future_frames);
    assert!(outcome.completed);
    assert_eq!(rejected_since(&before), 2, "each future frame counted once");
    assert_eq!(outcome.report.canonical(), reference(&scenario));
}

#[test]
fn future_epoch_frames_are_rejected_at_a_fleet_site_too() {
    let _guard = lock();
    let scenario = lab_scenario(2, 41);
    let before = obs::snapshot();
    let outcome = fleet_session(&scenario, send_future_frames);
    assert!(outcome.completed);
    assert_eq!(rejected_since(&before), 2, "each future frame counted once");
    assert_eq!(outcome.report.canonical(), reference(&scenario));
}

/// Before its session starts, a site checks what its agents send as it
/// does during the session: a raw connection registers as client 1 and
/// sends a report naming an extender the site does not have. The
/// rejection is counted while the site still waits for client 0; then
/// the connection closes and the real agents run the rig's session.
#[test]
fn a_pre_session_frame_that_does_not_fit_the_site_is_rejected_and_counted() {
    let _guard = lock();
    let scenario = lab_scenario(2, 41);
    let mut config = DaemonConfig::new(ControllerPolicy::Wolt);
    config.noise_seed = NOISE_SEED;
    let daemon = Daemon::bind("127.0.0.1:0", scenario.clone(), events(), config).unwrap();
    let addr = daemon.local_addr().unwrap();
    let before = obs::snapshot();
    let daemon = thread::spawn(move || daemon.run());

    let mut early = TcpStream::connect(addr).unwrap();
    early
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let hello = Envelope::Hello {
        client: 1,
        name: "early".into(),
        site: None,
    };
    wire::send(&mut early, &hello).unwrap();
    assert!(matches!(
        wire::recv(&mut early).unwrap(),
        Some(Envelope::HelloAck { .. })
    ));
    let n_ext = scenario.extender_positions.len();
    let misfit = ToController::Report {
        client: 1,
        epoch: 0,
        rates: vec![None; n_ext],
        attached: n_ext,
    };
    wire::send(&mut early, &Envelope::Ctrl(misfit)).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while rejected_since(&before) < 1 {
        assert!(
            Instant::now() < deadline,
            "the pre-session misfit was never counted in daemon.frames_rejected"
        );
        thread::sleep(Duration::from_millis(5));
    }
    drop(early);
    // Let the site see the connection end before client 1 registers
    // again.
    thread::sleep(Duration::from_millis(100));

    let agents: Vec<_> = (0..2)
        .map(|i| {
            let scenario = scenario.clone();
            thread::spawn(move || run_agent(addr, &scenario, i, "real"))
        })
        .collect();
    let outcome = daemon.join().unwrap().expect("session runs");
    for agent in agents {
        agent.join().unwrap().expect("agent exits");
    }
    assert!(outcome.completed);
    assert_eq!(rejected_since(&before), 1, "the misfit counted once");
    assert_eq!(outcome.report.canonical(), reference(&scenario));
}

/// A single-site daemon is a one-site host whose constructor turns the
/// fleet surface off: fleet operations are refused with a reason, and a
/// hello naming any site is refused with `site_gone` — while the
/// session itself runs on.
#[test]
fn single_site_daemon_refuses_fleet_ops_and_sited_hellos() {
    let _guard = lock();
    let scenario = lab_scenario(1, 3);
    let mut config = DaemonConfig::new(ControllerPolicy::Wolt);
    config.noise_seed = NOISE_SEED;
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        scenario.clone(),
        vec![SessionEvent::Join(0)],
        config,
    )
    .unwrap();
    let addr = daemon.local_addr().unwrap();
    let daemon = thread::spawn(move || daemon.run());

    let mut ctl = TcpStream::connect(addr).unwrap();
    ctl.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    wire::send(&mut ctl, &Envelope::Fleet(FleetOp::Status)).unwrap();
    match wire::recv(&mut ctl).unwrap() {
        Some(Envelope::FleetAck {
            op,
            site,
            ok,
            detail,
        }) => {
            assert_eq!((op.as_str(), site.as_str(), ok), ("status", "", false));
            assert_eq!(detail, "this daemon is not a fleet");
        }
        other => panic!("expected a fleet_ack refusal, got {other:?}"),
    }

    let mut sited = TcpStream::connect(addr).unwrap();
    sited
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    wire::send(
        &mut sited,
        &Envelope::Hello {
            client: 0,
            name: "lost".into(),
            site: Some("annex".into()),
        },
    )
    .unwrap();
    match wire::recv(&mut sited).unwrap() {
        Some(Envelope::SiteGone { site }) => assert_eq!(site, "annex"),
        other => panic!("expected site_gone, got {other:?}"),
    }
    assert!(wire::recv(&mut sited).unwrap().is_none(), "refusal closes");

    let agent = thread::spawn(move || run_agent(addr, &scenario, 0, "real"));
    let outcome = daemon.join().unwrap().expect("session runs");
    agent.join().unwrap().expect("agent exits");
    assert!(outcome.completed);
}

/// Client 1 of a three-client session, answering its join only after
/// `delay`: its report claims an extender it cannot reach, so a plan
/// built on it must direct the client elsewhere, and it never acks a
/// directive.
fn late_agent(addr: SocketAddr, scenario: &Scenario, delay: Duration) -> io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let hello = Envelope::Hello {
        client: 1,
        name: "late".into(),
        site: None,
    };
    wire::send(&mut stream, &hello)?;
    if !matches!(wire::recv(&mut stream)?, Some(Envelope::HelloAck { .. })) {
        return Err(io::Error::other("handshake refused"));
    }
    let n_ext = scenario.extender_positions.len();
    loop {
        match wire::recv(&mut stream)? {
            Some(Envelope::Agent(ToAgent::Join { epoch, .. })) => {
                thread::sleep(delay);
                let reachable = (0..n_ext)
                    .find(|&j| scenario.rate(1, j).is_some())
                    .expect("client 1 reaches an extender");
                let report = ToController::Report {
                    client: 1,
                    epoch,
                    rates: (0..n_ext)
                        .map(|j| (j == reachable).then(|| scenario.rate(1, j)).flatten())
                        .collect(),
                    attached: (reachable + 1) % n_ext,
                };
                wire::send(&mut stream, &Envelope::Ctrl(report))?;
            }
            Some(Envelope::Agent(ToAgent::Shutdown)) | None => return Ok(()),
            Some(_) => {}
        }
    }
}

/// With one 300 ms attempt per event, client 1 answers its join at
/// 350 ms, after the harness abandoned that event and commanded client
/// 2's join. The late report names an event the core never saw; planned,
/// it would open a directive transaction (client 1 never acks) that
/// client 2's on-time report, 100 ms into its event, then fails. It is
/// dropped at the boundary and counted instead, and the session ends.
#[test]
fn a_late_report_for_an_abandoned_event_is_rejected_without_failing_the_site() {
    let _guard = lock();
    let scenario = lab_scenario(3, 41);
    let events = vec![
        SessionEvent::Join(0),
        SessionEvent::Join(1),
        SessionEvent::Join(2),
    ];
    let mut config = DaemonConfig::new(ControllerPolicy::Wolt);
    config.noise_seed = NOISE_SEED;
    config.deadlines.event = Duration::from_millis(300);
    config.deadlines.event_attempts = 1;
    let daemon = Daemon::bind("127.0.0.1:0", scenario.clone(), events, config).unwrap();
    let addr = daemon.local_addr().unwrap();
    let before = obs::snapshot();
    let daemon = thread::spawn(move || daemon.run());

    let honest = {
        let scenario = scenario.clone();
        thread::spawn(move || run_agent(addr, &scenario, 0, "honest"))
    };
    let late = {
        let scenario = scenario.clone();
        thread::spawn(move || late_agent(addr, &scenario, Duration::from_millis(350)))
    };
    let on_time = {
        let scenario = scenario.clone();
        thread::spawn(move || {
            scripted_agent(addr, &scenario, 2, None, 0, 0, |_, _| {
                thread::sleep(Duration::from_millis(100));
                Ok(())
            })
        })
    };
    let outcome = daemon
        .join()
        .unwrap()
        .expect("a late report for an abandoned event does not fail the site");
    honest.join().unwrap().expect("honest agent exits");
    for agent in [late, on_time] {
        agent.join().unwrap().expect("scripted agent exits");
    }
    assert!(outcome.completed);
    assert_eq!(rejected_since(&before), 1, "the late report counted once");
}
