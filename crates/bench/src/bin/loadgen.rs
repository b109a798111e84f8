//! `loadgen` — load generator for the `wolt-daemon` Central Controller.
//!
//! Boots the daemon on a loopback port, connects one agent per user, and
//! drives a long churn session (every user joins, then repeated
//! leave/join cycles round-robin) so the controller re-solves hundreds of
//! times under sustained protocol traffic. Reports:
//!
//! * sustained protocol throughput (messages/second into the CC), and
//! * re-solve latency percentiles — receipt of the triggering report or
//!   departure to the last directive ack of the transaction.
//!
//! After the load run, three short chaos probes measure the robustness
//! surface and land in the report's `chaos` block:
//!
//! * crash recovery — a session interrupted mid-way with its newest
//!   snapshot generation torn in half (the exact state the mid-write
//!   crash point leaves behind), then restarted: wall-clock recovery
//!   time, rollback count, and byte-identity against the clean rig;
//! * overload — a flood client past a tiny inbox cap plus over-cap
//!   connection probes: exact shed and busy-rejection counts;
//! * read deadline — a mid-frame staller: timeout count.
//!
//! Fully offline: 127.0.0.1 only, no external services. Writes
//! `BENCH_daemon.json` (canonical workspace JSON) into the current
//! directory alongside the usual CSV rows.
//!
//! ```text
//! cargo run --release -p wolt-bench --bin loadgen -- [users] [cycles] [output]
//! ```

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use wolt_bench::{columns, f2, header, measured, percentile_sorted, row};
use wolt_daemon::{
    run_agent, run_site_agent, wire, AgentRetry, Daemon, DaemonConfig, DaemonOutcome, Envelope,
    Fleet, SiteDef,
};
use wolt_sim::scenario::ScenarioConfig;
use wolt_sim::Scenario;
use wolt_support::json::{Json, ToJson};
use wolt_support::obs;
use wolt_support::rng::{ChaCha8Rng, SeedableRng};
use wolt_testbed::protocol::ToController;
use wolt_testbed::{
    coalesce_frames, run_faulty_session, Agent, ControllerConfig, ControllerCore, ControllerPolicy,
    FaultPlan, ReportFrame, RigConfig, SessionEvent,
};

const SCENARIO_SEED: u64 = 42;
const NOISE_SEED: u64 = 7;

fn churn_events(users: usize, cycles: usize) -> Vec<SessionEvent> {
    let mut events: Vec<SessionEvent> = (0..users).map(SessionEvent::Join).collect();
    for c in 0..cycles {
        let i = c % users;
        events.push(SessionEvent::Leave(i));
        events.push(SessionEvent::Join(i));
    }
    events
}

fn run_with(scenario: &Scenario, events: &[SessionEvent], config: DaemonConfig) -> DaemonOutcome {
    let daemon = Daemon::bind("127.0.0.1:0", scenario.clone(), events.to_vec(), config)
        .expect("loopback bind");
    let addr = daemon.local_addr().expect("bound address");
    let agents: Vec<_> = (0..scenario.user_positions.len())
        .map(|i| {
            let scenario = scenario.clone();
            thread::spawn(move || run_agent(addr, &scenario, i, &format!("load-{i}")))
        })
        .collect();
    let outcome = daemon.run().expect("session runs");
    for handle in agents {
        handle
            .join()
            .expect("agent thread")
            .expect("agent exits cleanly");
    }
    outcome
}

fn run_load(scenario: &Scenario, events: &[SessionEvent]) -> DaemonOutcome {
    let mut config = DaemonConfig::new(ControllerPolicy::Wolt);
    config.noise_seed = NOISE_SEED;
    run_with(scenario, events, config)
}

/// Everything the three chaos probes measure, destined for the report's
/// `chaos` block.
struct ChaosProbe {
    recovery_ms: f64,
    replayed_epochs: usize,
    snapshot_rollbacks: u64,
    canonical_match: bool,
    busy_rejections: u64,
    frames_shed: u64,
    read_timeouts: u64,
}

fn probe_scenario(users: usize, seed: u64) -> Scenario {
    let cfg = ScenarioConfig::lab(users);
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Scenario::generate(&cfg, &mut rng).expect("probe scenario generates")
}

fn probe_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wolt-loadgen-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn newest_generation(dir: &Path) -> PathBuf {
    std::fs::read_dir(dir)
        .expect("snapshot dir")
        .filter_map(|e| e.ok().map(|e| e.path()))
        .max_by_key(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_prefix("snapshot."))
                .and_then(|n| n.strip_suffix(".json"))
                .and_then(|n| n.parse::<u64>().ok())
                .unwrap_or(0)
        })
        .expect("at least one generation")
}

/// Polls the daemon's metrics endpoint over `stream` until `done`
/// approves a snapshot, then returns it. The caller owns the stream so
/// connection-slot accounting stays explicit.
fn await_metrics(
    stream: &mut TcpStream,
    what: &str,
    done: impl Fn(&obs::ObsSnapshot) -> bool,
) -> obs::ObsSnapshot {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        wire::send(stream, &Envelope::MetricsRequest).expect("metrics request sends");
        match wire::recv(stream).expect("metrics reply arrives") {
            Some(Envelope::Metrics { metrics }) => {
                if done(&metrics) {
                    return metrics;
                }
                assert!(
                    Instant::now() < deadline,
                    "daemon never reached the expected state ({what})"
                );
                thread::sleep(Duration::from_millis(25));
            }
            other => panic!("expected a metrics reply, got {other:?}"),
        }
    }
}

/// Crash-recovery probe: run a short session that stops after the join
/// wave, tear the newest snapshot generation in half (the on-disk state
/// the mid-write crash point leaves behind), then restart against the
/// same store and time the run back to a completed, byte-identical
/// report.
fn recovery_probe(users: usize) -> (f64, usize, u64, bool) {
    let scenario = probe_scenario(users, SCENARIO_SEED);
    let mut events: Vec<SessionEvent> = (0..users).map(SessionEvent::Join).collect();
    events.push(SessionEvent::Leave(0));
    events.push(SessionEvent::Join(0));
    let reference = run_faulty_session(
        &scenario,
        &RigConfig::new(ControllerPolicy::Wolt),
        &events,
        NOISE_SEED,
        &FaultPlan::none(),
    )
    .expect("rig reference");

    let snap_dir = probe_dir("recovery");
    let stop_after = users;
    let mut config = DaemonConfig::new(ControllerPolicy::Wolt);
    config.noise_seed = NOISE_SEED;
    config.snapshot_dir = Some(snap_dir.clone());
    config.stop_after = Some(stop_after);
    let first = run_with(&scenario, &events, config);
    assert_eq!(first.epochs_done, stop_after, "probe stopped where asked");

    let newest = newest_generation(&snap_dir);
    let bytes = std::fs::read(&newest).expect("newest generation reads");
    std::fs::write(&newest, &bytes[..bytes.len() / 2]).expect("torn write lands");

    let rollbacks_before = obs::snapshot().counter("daemon.snapshot_rollbacks");
    let mut config = DaemonConfig::new(ControllerPolicy::Wolt);
    config.noise_seed = NOISE_SEED;
    config.snapshot_dir = Some(snap_dir.clone());
    let started = Instant::now();
    let second = run_with(&scenario, &events, config);
    let recovery = started.elapsed();
    let _ = std::fs::remove_dir_all(&snap_dir);

    assert!(second.completed, "recovery probe must complete");
    let rollbacks = obs::snapshot().counter("daemon.snapshot_rollbacks") - rollbacks_before;
    // The restart rolls back one generation and replays from there.
    let replayed = events.len() - (stop_after - 1);
    let matched = second.report.canonical() == reference.canonical();
    (recovery.as_secs_f64() * 1e3, replayed, rollbacks, matched)
}

/// Overload probe: with the connection cap provably full (agent, flood
/// client, metrics poller) and the session provably inside its linger
/// window, fire over-cap connection probes and a telemetry flood past a
/// tiny inbox cap. Rejections are exact (5); sheds are at least
/// 20 − 4 = 16, plus any agent retransmit that lands in the flood
/// window.
fn overload_probe() -> (u64, u64) {
    let before = obs::snapshot();
    let scenario = probe_scenario(2, SCENARIO_SEED + 1);
    let n_ext = scenario.extender_positions.len();
    let snap_dir = probe_dir("overload");
    let mut config = DaemonConfig::new(ControllerPolicy::Wolt);
    config.noise_seed = NOISE_SEED;
    config.inbox_cap = 4;
    config.max_connections = 3;
    config.snapshot_dir = Some(snap_dir.clone());
    config.linger = Duration::from_secs(4);
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        scenario.clone(),
        vec![SessionEvent::Join(0)],
        config,
    )
    .expect("loopback bind");
    let addr = daemon.local_addr().expect("bound address");
    let agent = {
        let scenario = scenario.clone();
        thread::spawn(move || run_agent(addr, &scenario, 0, "load-0"))
    };
    let daemon = thread::spawn(move || daemon.run());

    // Flood client: a real handshake so its frames reach the session
    // inbox, but never the subject of any event.
    let mut flooder = TcpStream::connect(addr).expect("flooder connects");
    flooder
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    wire::send(
        &mut flooder,
        &Envelope::Hello {
            client: 1,
            name: "flooder".into(),
            site: None,
        },
    )
    .expect("flooder hello");
    assert!(matches!(
        wire::recv(&mut flooder).expect("flooder ack"),
        Some(Envelope::HelloAck { .. })
    ));
    let mut poller = TcpStream::connect(addr).expect("poller connects");
    poller
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    await_metrics(&mut poller, "one snapshot saved", |m| {
        m.counter("daemon.snapshots") > before.counter("daemon.snapshots")
    });

    // Cap full: agent + flooder + poller hold all three slots.
    for _ in 0..5 {
        let mut extra = TcpStream::connect(addr).expect("probe connects");
        extra
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        match wire::recv(&mut extra).expect("busy reply") {
            Some(Envelope::Busy { limit }) => assert_eq!(limit, 3),
            other => panic!("expected a busy reply, got {other:?}"),
        }
    }
    for _ in 0..20 {
        wire::send(
            &mut flooder,
            &Envelope::Ctrl(ToController::Report {
                client: 1,
                epoch: 999,
                rates: vec![None; n_ext],
                attached: 0,
            }),
        )
        .expect("flood frame sends");
    }
    await_metrics(&mut poller, "16 frames shed", |m| {
        m.counter("daemon.frames_shed") >= before.counter("daemon.frames_shed") + 16
    });
    drop(flooder);
    drop(poller);

    let outcome = daemon.join().expect("daemon thread").expect("session runs");
    agent.join().expect("agent thread").expect("agent exits");
    let _ = std::fs::remove_dir_all(&snap_dir);
    assert!(outcome.completed, "overload probe must complete");
    let after = obs::snapshot();
    (
        after.counter("daemon.conns_rejected") - before.counter("daemon.conns_rejected"),
        after.counter("daemon.frames_shed") - before.counter("daemon.frames_shed"),
    )
}

/// Read-deadline probe: a connection that starts a frame and never
/// finishes it must be closed at the mid-frame deadline and counted.
fn stall_probe() -> u64 {
    let before = obs::snapshot();
    let scenario = probe_scenario(1, SCENARIO_SEED + 2);
    let snap_dir = probe_dir("stall");
    let mut config = DaemonConfig::new(ControllerPolicy::Wolt);
    config.noise_seed = NOISE_SEED;
    config.read_stall = Duration::from_millis(200);
    config.snapshot_dir = Some(snap_dir.clone());
    config.linger = Duration::from_secs(3);
    let daemon = Daemon::bind(
        "127.0.0.1:0",
        scenario.clone(),
        vec![SessionEvent::Join(0)],
        config,
    )
    .expect("loopback bind");
    let addr = daemon.local_addr().expect("bound address");
    let agent = {
        let scenario = scenario.clone();
        thread::spawn(move || run_agent(addr, &scenario, 0, "load-0"))
    };
    let daemon = thread::spawn(move || daemon.run());
    let mut poller = TcpStream::connect(addr).expect("poller connects");
    poller
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    await_metrics(&mut poller, "one snapshot saved", |m| {
        m.counter("daemon.snapshots") > before.counter("daemon.snapshots")
    });

    let mut staller = TcpStream::connect(addr).expect("staller connects");
    staller
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    {
        use std::io::Write as _;
        staller.write_all(&16u32.to_be_bytes()).unwrap();
        staller.write_all(b"{\"t\"").unwrap();
        staller.flush().unwrap();
    }
    // The daemon hangs up — that EOF is the deadline firing.
    {
        use std::io::Read as _;
        let mut buf = [0u8; 16];
        let n = staller.read(&mut buf).expect("staller read");
        assert_eq!(n, 0, "daemon should close the stalled connection");
    }
    drop(poller);

    let outcome = daemon.join().expect("daemon thread").expect("session runs");
    agent.join().expect("agent thread").expect("agent exits");
    let _ = std::fs::remove_dir_all(&snap_dir);
    assert!(outcome.completed, "stall probe must complete");
    obs::snapshot().counter("daemon.read_timeouts") - before.counter("daemon.read_timeouts")
}

/// What the coalescing probe measured, destined for the report's
/// `coalescing` block: the same deterministic burst of scan reports
/// replayed through two identical `ControllerCore`s — one report at a
/// time, then in drained batches — with the planning work counted both
/// ways.
struct CoalescingProbe {
    frames: usize,
    batch_size: usize,
    per_report_solves: u64,
    batched_solves: u64,
    warm_solves: u64,
    frames_coalesced: usize,
    solve_reduction: f64,
}

/// Burst-telemetry probe at the controller level. The wire path absorbs
/// same-epoch burst copies in the watermark dedup, so the planning
/// saving of coalescing is measured where it happens: a fixed frame
/// sequence (each client reporting twice back-to-back, epochs strictly
/// increasing) costs one solve per frame replayed singly, but one
/// planning pass per drained batch — cold or warm — when coalesced.
fn coalescing_probe(users: usize) -> CoalescingProbe {
    const FRAMES: usize = 160;
    const BATCH: usize = 8;
    let scenario = probe_scenario(users, SCENARIO_SEED + 3);
    let config = || ControllerConfig {
        policy: ControllerPolicy::Wolt,
        estimated_capacities: scenario.capacities.clone(),
        strict: false,
    };
    let frames: Vec<ReportFrame> = (0..FRAMES)
        .map(|i| {
            let client = (i / 2) % users;
            let epoch = (i + 1) as u64;
            let ToController::Report {
                rates, attached, ..
            } = Agent::from_scenario(&scenario, client).on_join(epoch)
            else {
                unreachable!("a join answers with a scan report");
            };
            ReportFrame {
                client,
                epoch,
                rates,
                attached,
            }
        })
        .collect();

    let before = obs::snapshot();
    let mut plain = ControllerCore::new(users, config());
    for f in &frames {
        if plain.is_duplicate(f.epoch) {
            continue;
        }
        plain
            .handle_report(f.client, f.epoch, &f.rates, f.attached)
            .expect("per-report replay plans");
    }
    let mid = obs::snapshot();

    let mut batched = ControllerCore::new(users, config());
    let mut frames_coalesced = 0usize;
    for chunk in frames.chunks(BATCH) {
        let (kept, dropped) = coalesce_frames(chunk.to_vec());
        frames_coalesced += dropped;
        batched
            .handle_report_batch(&kept)
            .expect("batched replay plans");
    }
    let after = obs::snapshot();

    let per_report_solves = mid.counter("core.solves") - before.counter("core.solves");
    let batched_solves = after.counter("core.solves") - mid.counter("core.solves");
    let warm_solves = after.counter("core.warm_solves") - mid.counter("core.warm_solves");
    let batched_passes = (batched_solves + warm_solves).max(1);
    CoalescingProbe {
        frames: FRAMES,
        batch_size: BATCH,
        per_report_solves,
        batched_solves,
        warm_solves,
        frames_coalesced,
        solve_reduction: per_report_solves as f64 / batched_passes as f64,
    }
}

/// What the multi-site fleet run measured, destined for the report's
/// `fleet` block: sustained throughput across all sites sharing one
/// daemon, and each site's tail re-solve latency.
struct FleetProbe {
    sites: usize,
    users_per_site: usize,
    epochs: usize,
    msgs_in: usize,
    elapsed_ms: f64,
    msgs_per_sec: f64,
    per_site_p99_us: Vec<(String, f64)>,
}

/// Fleet mode: three churn sessions with distinct seeds and policies
/// multiplexed behind one `Fleet`, one agent per (site, user). The
/// per-site latencies come out of each site's own `DaemonOutcome`, so
/// a slow neighbour site shows up only through genuine contention.
fn fleet_probe(users: usize, cycles: usize) -> FleetProbe {
    let site_recipes: [(&str, u64, ControllerPolicy); 3] = [
        ("alpha", SCENARIO_SEED, ControllerPolicy::Wolt),
        ("beta", SCENARIO_SEED + 1, ControllerPolicy::Greedy),
        ("gamma", SCENARIO_SEED + 2, ControllerPolicy::Rssi),
    ];
    let events = churn_events(users, cycles);
    let defs: Vec<SiteDef> = site_recipes
        .iter()
        .map(|&(id, seed, policy)| SiteDef {
            id: id.to_string(),
            scenario: probe_scenario(users, seed),
            events: events.clone(),
            policy,
            noise_seed: NOISE_SEED,
            stop_after: None,
        })
        .collect();
    let scenarios: Vec<(String, Scenario)> = defs
        .iter()
        .map(|d| (d.id.clone(), d.scenario.clone()))
        .collect();
    let fleet = Fleet::bind(
        "127.0.0.1:0",
        defs,
        DaemonConfig::new(ControllerPolicy::Wolt),
    )
    .expect("fleet loopback bind");
    let addr = fleet.local_addr().expect("bound address");
    let agents: Vec<_> = scenarios
        .iter()
        .flat_map(|(site, scenario)| {
            (0..users).map(|i| {
                let site = site.clone();
                let scenario = scenario.clone();
                thread::spawn(move || {
                    run_site_agent(
                        addr,
                        &scenario,
                        &site,
                        i,
                        &format!("{site}-{i}"),
                        &AgentRetry::default(),
                    )
                })
            })
        })
        .collect();
    let started = Instant::now();
    let outcome = fleet.run().expect("fleet runs");
    let elapsed = started.elapsed();
    for handle in agents {
        handle
            .join()
            .expect("agent thread")
            .expect("agent exits cleanly");
    }
    assert!(outcome.all_completed(), "fleet probe must complete");

    let mut epochs = 0;
    let mut msgs_in = 0usize;
    let mut per_site_p99_us = Vec::new();
    for (id, result) in &outcome.sites {
        let o = result.as_ref().expect("site outcome");
        epochs += o.epochs_done;
        msgs_in += o.stats.msgs_in;
        let mut sorted = o.stats.resolve_latencies.clone();
        sorted.sort();
        per_site_p99_us.push((id.clone(), micros(percentile(&sorted, 99.0))));
    }
    let elapsed_s = elapsed.as_secs_f64();
    FleetProbe {
        sites: site_recipes.len(),
        users_per_site: users,
        epochs,
        msgs_in,
        elapsed_ms: elapsed_s * 1e3,
        msgs_per_sec: msgs_in as f64 / elapsed_s,
        per_site_p99_us,
    }
}

fn chaos_probes(users: usize) -> ChaosProbe {
    let (recovery_ms, replayed_epochs, snapshot_rollbacks, canonical_match) = recovery_probe(users);
    let (busy_rejections, frames_shed) = overload_probe();
    let read_timeouts = stall_probe();
    ChaosProbe {
        recovery_ms,
        replayed_epochs,
        snapshot_rollbacks,
        canonical_match,
        busy_rejections,
        frames_shed,
        read_timeouts,
    }
}

/// Nearest-rank percentile over sorted samples; zero when there are
/// none (shared edge-case contract — see [`percentile_sorted`]).
fn percentile(sorted: &[Duration], p: f64) -> Duration {
    percentile_sorted(sorted, p).unwrap_or(Duration::ZERO)
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn main() {
    let mut args = std::env::args().skip(1);
    let users: usize = args.next().map_or(7, |a| a.parse().expect("users"));
    let cycles: usize = args.next().map_or(60, |a| a.parse().expect("cycles"));
    let output = args.next().unwrap_or_else(|| "BENCH_daemon.json".into());

    header(
        "loadgen — wolt-daemon sustained load over loopback TCP",
        "the networked CC sustains agent traffic and re-solves within interactive latencies",
        &format!(
            "lab scenario seed {SCENARIO_SEED}, {users} users, {cycles} leave/join churn cycles, \
             WOLT policy, 127.0.0.1"
        ),
    );

    let scenario_config = ScenarioConfig::lab(users);
    let mut rng = ChaCha8Rng::seed_from_u64(SCENARIO_SEED);
    let scenario = Scenario::generate(&scenario_config, &mut rng).expect("scenario generates");

    let events = churn_events(users, cycles);
    let outcome = run_load(&scenario, &events);
    assert!(outcome.completed, "load session did not complete");
    assert_eq!(outcome.epochs_done, events.len());

    let stats = &outcome.stats;
    let elapsed_s = stats.elapsed.as_secs_f64();
    let msgs_per_sec = stats.msgs_in as f64 / elapsed_s;
    let mut sorted = stats.resolve_latencies.clone();
    sorted.sort();
    let (p50, p90, p99) = (
        percentile(&sorted, 50.0),
        percentile(&sorted, 90.0),
        percentile(&sorted, 99.0),
    );
    let max = sorted.last().copied().unwrap_or(Duration::ZERO);

    columns(&[
        "users",
        "epochs",
        "msgs_in",
        "elapsed_ms",
        "msgs_per_sec",
        "resolve_p50_us",
        "resolve_p90_us",
        "resolve_p99_us",
        "resolve_max_us",
    ]);
    row(&[
        users.to_string(),
        outcome.epochs_done.to_string(),
        stats.msgs_in.to_string(),
        f2(elapsed_s * 1e3),
        f2(msgs_per_sec),
        f2(micros(p50)),
        f2(micros(p90)),
        f2(micros(p99)),
        f2(micros(max)),
    ]);

    // Freeze the load run's observability snapshot before the fleet and
    // chaos probes add their own traffic to the process-global counters.
    let load_metrics = obs::snapshot();

    // Fleet mode: the same churn, three sites behind one daemon.
    let fleet = fleet_probe(users, cycles);
    let mut fleet_cols = vec![
        "fleet_sites".to_string(),
        "fleet_epochs".to_string(),
        "fleet_msgs_per_sec".to_string(),
    ];
    let mut fleet_row = vec![
        fleet.sites.to_string(),
        fleet.epochs.to_string(),
        f2(fleet.msgs_per_sec),
    ];
    for (site, p99) in &fleet.per_site_p99_us {
        fleet_cols.push(format!("{site}_resolve_p99_us"));
        fleet_row.push(f2(*p99));
    }
    columns(&fleet_cols.iter().map(String::as_str).collect::<Vec<_>>());
    row(&fleet_row);

    // Burst coalescing: the same frame sequence costs one solve per
    // report replayed singly, one planning pass per drained batch.
    let coalescing = coalescing_probe(users);
    assert!(
        coalescing.solve_reduction >= 2.0,
        "coalescing saved less than 2x planning work ({:.2}x)",
        coalescing.solve_reduction
    );
    columns(&[
        "burst_frames",
        "burst_batch",
        "per_report_solves",
        "batched_solves",
        "warm_solves",
        "frames_coalesced",
        "solve_reduction",
    ]);
    row(&[
        coalescing.frames.to_string(),
        coalescing.batch_size.to_string(),
        coalescing.per_report_solves.to_string(),
        coalescing.batched_solves.to_string(),
        coalescing.warm_solves.to_string(),
        coalescing.frames_coalesced.to_string(),
        f2(coalescing.solve_reduction),
    ]);

    let chaos = chaos_probes(users);
    assert!(
        chaos.canonical_match,
        "recovered session diverged from the clean rig"
    );

    columns(&[
        "chaos_recovery_ms",
        "chaos_replayed_epochs",
        "chaos_rollbacks",
        "busy_rejections",
        "frames_shed",
        "read_timeouts",
        "canonical_match",
    ]);
    row(&[
        f2(chaos.recovery_ms),
        chaos.replayed_epochs.to_string(),
        chaos.snapshot_rollbacks.to_string(),
        chaos.busy_rejections.to_string(),
        chaos.frames_shed.to_string(),
        chaos.read_timeouts.to_string(),
        chaos.canonical_match.to_string(),
    ]);

    let json = Json::obj(vec![
        ("bench", "loadgen".to_string().to_json()),
        ("scenario", "lab".to_string().to_json()),
        ("scenario_seed", SCENARIO_SEED.to_json()),
        ("users", users.to_json()),
        ("churn_cycles", cycles.to_json()),
        ("epochs", outcome.epochs_done.to_json()),
        ("msgs_in", stats.msgs_in.to_json()),
        ("elapsed_ms", (elapsed_s * 1e3).to_json()),
        ("msgs_per_sec", msgs_per_sec.to_json()),
        (
            "resolve_latency_us",
            Json::obj(vec![
                ("p50", micros(p50).to_json()),
                ("p90", micros(p90).to_json()),
                ("p99", micros(p99).to_json()),
                ("max", micros(max).to_json()),
                ("samples", sorted.len().to_json()),
            ]),
        ),
        ("canonical_report", outcome.report.canonical().to_json()),
        // The load run's observability snapshot: daemon wire traffic,
        // controller decisions, solver work — counted before the chaos
        // probes touch the process-global counters.
        ("metrics", load_metrics.to_json()),
        // Fleet mode: three sites (distinct seeds and policies) behind
        // one daemon, same churn per site — sustained throughput across
        // the fleet and every site's own tail re-solve latency.
        (
            "fleet",
            Json::obj(vec![
                ("sites", fleet.sites.to_json()),
                ("users_per_site", fleet.users_per_site.to_json()),
                ("epochs", fleet.epochs.to_json()),
                ("msgs_in", fleet.msgs_in.to_json()),
                ("elapsed_ms", fleet.elapsed_ms.to_json()),
                ("msgs_per_sec", fleet.msgs_per_sec.to_json()),
                (
                    "per_site_resolve_p99_us",
                    Json::Obj(
                        fleet
                            .per_site_p99_us
                            .iter()
                            .map(|(site, p99)| (site.clone(), p99.to_json()))
                            .collect(),
                    ),
                ),
            ]),
        ),
        // Burst-telemetry coalescing at the controller: planning work
        // per frame replayed singly vs per drained batch (cold solves
        // plus warm-started refinements), and the frames dropped as
        // stale burst copies along the way.
        (
            "coalescing",
            Json::obj(vec![
                ("frames", coalescing.frames.to_json()),
                ("batch_size", coalescing.batch_size.to_json()),
                ("per_report_solves", coalescing.per_report_solves.to_json()),
                ("batched_solves", coalescing.batched_solves.to_json()),
                ("warm_solves", coalescing.warm_solves.to_json()),
                ("frames_coalesced", coalescing.frames_coalesced.to_json()),
                ("solve_reduction", coalescing.solve_reduction.to_json()),
            ]),
        ),
        // The robustness surface, measured live: torn-store recovery,
        // inbox shedding, connection-cap rejections, read deadlines.
        (
            "chaos",
            Json::obj(vec![
                ("recovery_ms", chaos.recovery_ms.to_json()),
                ("replayed_epochs", chaos.replayed_epochs.to_json()),
                ("snapshot_rollbacks", chaos.snapshot_rollbacks.to_json()),
                ("canonical_match", chaos.canonical_match.to_json()),
                ("busy_rejections", chaos.busy_rejections.to_json()),
                ("frames_shed", chaos.frames_shed.to_json()),
                ("read_timeouts", chaos.read_timeouts.to_json()),
            ]),
        ),
    ]);
    std::fs::write(&output, format!("{}\n", json.to_pretty())).expect("write bench json");
    eprintln!("wrote {output}");

    measured(&format!(
        "sustained {msgs_per_sec:.0} msgs/s over {} epochs; re-solve latency p50 = {:.0} us, \
         p99 = {:.0} us (loopback TCP, directive acks included)",
        outcome.epochs_done,
        micros(p50),
        micros(p99),
    ));
    measured(&format!(
        "fleet of {} sites sustained {:.0} msgs/s over {} epochs; per-site re-solve p99: {}",
        fleet.sites,
        fleet.msgs_per_sec,
        fleet.epochs,
        fleet
            .per_site_p99_us
            .iter()
            .map(|(site, p99)| format!("{site} = {p99:.0} us"))
            .collect::<Vec<_>>()
            .join(", "),
    ));
    measured(&format!(
        "coalescing turned {} burst frames into {} planning passes ({} cold + {} warm, \
         {} stale frames dropped): {:.1}x less solver work than per-report handling",
        coalescing.frames,
        coalescing.batched_solves + coalescing.warm_solves,
        coalescing.batched_solves,
        coalescing.warm_solves,
        coalescing.frames_coalesced,
        coalescing.solve_reduction,
    ));
    measured(&format!(
        "torn-store recovery in {:.0} ms ({} epochs replayed, {} rollback, byte-identical); \
         overload shed {} frames, rejected {} over-cap connections, deadlined {} staller",
        chaos.recovery_ms,
        chaos.replayed_epochs,
        chaos.snapshot_rollbacks,
        chaos.frames_shed,
        chaos.busy_rejections,
        chaos.read_timeouts,
    ));
}
