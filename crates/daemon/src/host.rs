//! The one server: a TCP listener, one snapshot root, and N independent
//! per-site session engines stepped on a small set of shard threads.
//!
//! [`Fleet`] hosts many named sites; [`crate::Daemon`] hosts exactly
//! one anonymous site (id `""`) on the same machinery. Routing,
//! operator control, shard stepping and teardown exist only here.
//!
//! # Execution model
//!
//! Every site is a [`SessionEngine`] created with the site's id (which
//! stamps its snapshot store and, for named sites, its `site.<id>.*`
//! metrics). Sites are partitioned across shard threads by
//! [`crate::shard::partition`]; each shard round-robins
//! [`SessionEngine::step`] over its sites, so one thread owns each
//! engine exclusively and a site's decision sequence is independent of
//! every other site's schedule. That is the whole determinism argument:
//! N sites behind one fleet produce, per site, the same canonical report
//! as N separate daemons, at any shard count.
//!
//! # Lifecycle
//!
//! The [`FleetRouter`] routes agent hellos and, on a fleet, carries the
//! `site add` / `site drain` / `site remove` operations arriving over the
//! wire ([`FleetOp`]); a single-site daemon refuses them with
//! `fleet_ack{ok:false}`. A drained site stops accepting agents,
//! finishes its in-flight event, persists, and detaches; survivors never
//! notice. The last site to finish driving lingers (keeping its agents
//! and the metrics service up) before its agents are dismissed; then the
//! host closes its registry (late adds are refused, not lost) and tears
//! down the accept path.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use wolt_sim::Scenario;
use wolt_support::obs;
use wolt_support::pool::resolve_threads;
use wolt_testbed::{ControllerPolicy, SessionEvent};

use crate::engine::{self, EngineStep, SessionEngine};
use crate::router::FleetRouter;
use crate::wire::{self, Envelope, FleetOp, SiteSpec};
use crate::{shard, spec, DaemonConfig, DaemonError, DaemonOutcome};

/// How long a shard waits for a finished site's reader tasks to drain
/// before assembling its outcome anyway.
const REAP_BUDGET: Duration = Duration::from_secs(2);

/// One site, fully materialized: everything a [`SessionEngine`] needs
/// beyond the host-level [`DaemonConfig`]. Its fields override the
/// config's per-site ones.
#[derive(Debug, Clone)]
pub struct SiteDef {
    /// Unique, filesystem-safe site id (see
    /// [`crate::spec::validate_site_id`]); `""` is the anonymous site of
    /// a single-site daemon.
    pub id: String,
    /// The site's network scenario.
    pub scenario: Scenario,
    /// The site's session events.
    pub events: Vec<SessionEvent>,
    /// Association policy at this site's controller.
    pub policy: ControllerPolicy,
    /// Capacity-estimation noise seed.
    pub noise_seed: u64,
    /// Stop this site after this many completed events (`None` runs to
    /// completion).
    pub stop_after: Option<usize>,
}

/// What one host run produced: each site's outcome (or error), keyed by
/// site id.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Per-site results, in site-id order.
    pub sites: BTreeMap<String, Result<DaemonOutcome, DaemonError>>,
}

impl FleetOutcome {
    /// The canonical fleet report: each successful site's
    /// [`wolt_testbed::SessionReport::canonical`] rendering, keyed by
    /// site id. This is the map the headline invariant is stated over —
    /// each value must be byte-identical to the canonical report of a
    /// single-site daemon run of the same site.
    pub fn canonical_reports(&self) -> BTreeMap<String, String> {
        self.sites
            .iter()
            .filter_map(|(id, r)| {
                r.as_ref()
                    .ok()
                    .map(|outcome| (id.clone(), outcome.report.canonical()))
            })
            .collect()
    }

    /// Whether every site finished every configured event cleanly.
    pub fn all_completed(&self) -> bool {
        !self.sites.is_empty()
            && self
                .sites
                .values()
                .all(|r| r.as_ref().map(|o| o.completed).unwrap_or(false))
    }
}

/// The multi-site controller behind one listening socket.
pub struct Fleet {
    listener: TcpListener,
    defs: Vec<SiteDef>,
    config: DaemonConfig,
}

impl Fleet {
    /// Validates the site list (non-empty, unique filesystem-safe ids)
    /// and binds the fleet's listening socket. `config` carries the
    /// host-level settings; its snapshot directory is the fleet root,
    /// under which each site persists in `<root>/<site-id>/`.
    ///
    /// # Errors
    ///
    /// [`DaemonError::InvalidConfig`] for an invalid site list;
    /// [`DaemonError::Io`] when the address cannot be bound.
    pub fn bind(
        addr: impl ToSocketAddrs,
        defs: Vec<SiteDef>,
        config: DaemonConfig,
    ) -> Result<Self, DaemonError> {
        if defs.is_empty() {
            return Err(DaemonError::InvalidConfig {
                context: "a fleet needs at least one site".into(),
            });
        }
        let mut seen: Vec<&str> = Vec::new();
        for def in &defs {
            spec::validate_site_id(&def.id)?;
            if seen.contains(&def.id.as_str()) {
                return Err(DaemonError::InvalidConfig {
                    context: format!("duplicate site id {:?}", def.id),
                });
            }
            seen.push(&def.id);
        }
        let listener = TcpListener::bind(addr)?;
        Ok(Self {
            listener,
            defs,
            config,
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates the OS failure to report the socket address.
    pub fn local_addr(&self) -> Result<SocketAddr, DaemonError> {
        Ok(self.listener.local_addr()?)
    }

    /// Runs every site to completion (or drain/stop) and returns the
    /// per-site outcomes.
    ///
    /// # Errors
    ///
    /// [`DaemonError::SnapshotCorrupt`] /
    /// [`DaemonError::Protocol`] when a site's snapshot store cannot be
    /// restored at startup; [`DaemonError::Io`] for listener failures.
    /// Failures *during* a site's session do not fail the fleet — they
    /// land in that site's slot of the [`FleetOutcome`].
    pub fn run(self) -> Result<FleetOutcome, DaemonError> {
        run_host(self.listener, self.defs, &self.config, true)
    }
}

/// One site riding a shard: the id plus its exclusively-owned engine.
struct SiteRun {
    id: String,
    engine: SessionEngine,
}

/// What the shard threads share with each other and the accept path.
struct Shared {
    /// Host-level settings; each site's [`SiteDef`] overrides the
    /// per-site ones.
    config: DaemonConfig,
    router: FleetRouter,
    outcomes: Mutex<BTreeMap<String, Result<DaemonOutcome, DaemonError>>>,
    stop: Arc<AtomicBool>,
    /// Sites riding each shard (dynamic adds go to the least loaded).
    counts: Vec<AtomicUsize>,
    intakes: Mutex<Vec<mpsc::Sender<SiteRun>>>,
}

/// Locks a host mutex, recovering from poison: each holds plain data
/// whose last written state stays usable.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The shared host behind [`Fleet::run`] and [`crate::Daemon::run`].
/// `fleet_ops` says whether the host answers the wire's fleet
/// operations; a single-site daemon refuses them.
pub(crate) fn run_host(
    listener: TcpListener,
    mut defs: Vec<SiteDef>,
    config: &DaemonConfig,
    fleet_ops: bool,
) -> Result<FleetOutcome, DaemonError> {
    let mut shards_n = if config.shards > 0 {
        config.shards
    } else {
        resolve_threads(None)
    };
    if !fleet_ops {
        // No site can be added later: a shard beyond the site count
        // would only idle.
        shards_n = shards_n.min(defs.len()).max(1);
    }
    let shared = Arc::new(Shared {
        config: config.clone(),
        router: FleetRouter::new(),
        outcomes: Mutex::new(BTreeMap::new()),
        stop: Arc::new(AtomicBool::new(false)),
        counts: (0..shards_n).map(|_| AtomicUsize::new(0)).collect(),
        intakes: Mutex::new(Vec::with_capacity(shards_n)),
    });

    // Materialize every engine up front (restoring snapshots), in
    // sorted-id order so store errors surface deterministically.
    defs.sort_by(|a, b| a.id.cmp(&b.id));
    let total_users: usize = defs.iter().map(|d| d.scenario.user_positions.len()).sum();
    let mut runs: BTreeMap<String, SiteRun> = BTreeMap::new();
    for def in defs {
        let run = start_site(def, &shared)?;
        runs.insert(run.id.clone(), run);
    }

    // Deterministic initial partition; dynamic adds later go to the
    // least-loaded shard (ties toward the lowest index).
    let ids: Vec<String> = runs.keys().cloned().collect();
    let mut shard_threads = Vec::with_capacity(shards_n);
    for (k, bucket) in shard::partition(&ids, shards_n).into_iter().enumerate() {
        let initial: Vec<SiteRun> = bucket
            .into_iter()
            .map(|id| runs.remove(&id).expect("partition covers the registry"))
            .collect();
        shared.counts[k].store(initial.len(), Ordering::Relaxed);
        let (tx, rx) = mpsc::channel::<SiteRun>();
        lock(&shared.intakes).push(tx);
        let shared = Arc::clone(&shared);
        shard_threads.push(thread::spawn(move || shard_loop(initial, rx, &shared, k)));
    }
    debug_assert!(runs.is_empty());

    // One reader per expected agent, plus slack for operator
    // connections.
    let workers = total_users + shards_n + 2;
    let handler: Arc<dyn Fn(TcpStream) + Send + Sync> = {
        let shared = Arc::clone(&shared);
        Arc::new(move |stream| {
            let route = |client: usize, site: Option<&str>| shared.router.route_hello(client, site);
            let control = |stream: &mut TcpStream, envelope: Envelope| -> bool {
                match envelope {
                    Envelope::Shutdown { reason } => {
                        obs::trace("daemon", format!("operator stop: {reason}"));
                        shared.router.stop_all(&reason);
                        false
                    }
                    Envelope::MetricsRequest => {
                        obs::counter_inc("daemon.metrics_requests");
                        let reply = Envelope::Metrics {
                            metrics: obs::snapshot(),
                        };
                        send_reply(stream, &reply)
                    }
                    // Answer honestly so `wolt fleet …` against a
                    // single-site daemon fails with a reason, not a hang.
                    Envelope::Fleet(op) if !fleet_ops => {
                        let refusal = Err("this daemon is not a fleet".to_string());
                        send_reply(stream, &ack(&op, refusal))
                    }
                    Envelope::Fleet(op) => {
                        let reply = match &op {
                            FleetOp::Status => Envelope::FleetStatus {
                                sites: shared.router.status(),
                            },
                            FleetOp::Drain { site } => ack(&op, shared.router.drain(site)),
                            FleetOp::Remove { site } => ack(&op, shared.router.remove(site)),
                            FleetOp::Add { spec } => ack(&op, add_site(spec, &shared)),
                        };
                        send_reply(stream, &reply)
                    }
                    _ => false,
                }
            };
            let read_stall = shared.config.read_stall;
            engine::serve_connection(stream, &shared.stop, read_stall, &route, &control);
        })
    };
    let acceptor = engine::spawn_acceptor(
        listener,
        Arc::clone(&shared.stop),
        workers,
        config.max_connections,
        handler,
    )?;

    // The host is done when every site is: drained, completed, failed,
    // or timed out waiting for its agents — each of those is a terminal
    // engine state, so this wait is bounded.
    shared.router.wait_all_done();
    shared.stop.store(true, Ordering::Relaxed);
    lock(&shared.intakes).clear();
    for t in shard_threads {
        let _ = t.join();
    }
    let _ = acceptor.join();

    let sites = std::mem::take(&mut *lock(&shared.outcomes));
    Ok(FleetOutcome { sites })
}

/// Builds the `fleet_ack` for a mutation's result.
fn ack(op: &FleetOp, result: Result<(), String>) -> Envelope {
    let (ok, detail) = match result {
        Ok(()) => (true, String::new()),
        Err(why) => (false, why),
    };
    Envelope::FleetAck {
        op: op.name().to_string(),
        site: op.site().to_string(),
        ok,
        detail,
    }
}

/// Sends a control reply; `false` (stop serving) on a dead connection.
fn send_reply(stream: &mut TcpStream, reply: &Envelope) -> bool {
    match wire::send_counted(stream, reply) {
        Ok(sent) => {
            engine::note_frame_out(sent);
            true
        }
        Err(_) => false,
    }
}

/// Builds a site's engine (restoring any prior snapshot under the
/// snapshot root) and registers it with the router.
fn start_site(def: SiteDef, shared: &Shared) -> Result<SiteRun, DaemonError> {
    let id = def.id.clone();
    let (engine, tx) = SessionEngine::new(def, &shared.config)?;
    shared
        .router
        .register(
            &id,
            engine.greeting(),
            tx,
            engine.n_events() as u64,
            engine.epochs_done() as u64,
        )
        .map_err(|context| DaemonError::InvalidConfig { context })?;
    Ok(SiteRun { id, engine })
}

/// The wire-level `site add`: materialize, start the site, and hand it
/// to the least-loaded shard.
fn add_site(spec: &SiteSpec, shared: &Shared) -> Result<(), String> {
    let def = spec::materialize(spec).map_err(|e| e.to_string())?;
    let run = start_site(def, shared).map_err(|e| e.to_string())?;
    let id = run.id.clone();
    let k = shared
        .counts
        .iter()
        .enumerate()
        .min_by_key(|(i, c)| (c.load(Ordering::Relaxed), *i))
        .map(|(i, _)| i)
        .expect("a host always has at least one shard");
    let delivered = lock(&shared.intakes)
        .get(k)
        .is_some_and(|intake| intake.send(run).is_ok());
    if !delivered {
        shared.router.finish_driving();
        shared.router.finish_site(&id, 0, false);
        return Err("the fleet is shutting down".into());
    }
    shared.counts[k].fetch_add(1, Ordering::Relaxed);
    obs::counter_inc("fleet.sites_added");
    Ok(())
}

/// One shard thread: round-robin one engine step per site, retire sites
/// as they finish, absorb dynamically added sites from the intake.
fn shard_loop(mut sites: Vec<SiteRun>, intake: mpsc::Receiver<SiteRun>, shared: &Shared, k: usize) {
    loop {
        while let Ok(run) = intake.try_recv() {
            sites.push(run);
        }
        if sites.is_empty() {
            if shared.stop.load(Ordering::Relaxed) {
                return;
            }
            match intake.recv_timeout(Duration::from_millis(20)) {
                Ok(run) => sites.push(run),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => return,
            }
            continue;
        }
        let mut i = 0;
        while i < sites.len() {
            let run = &mut sites[i];
            let error = match run.engine.step() {
                Ok(EngineStep::Finished) => None,
                Ok(progress) => {
                    shared.router.note_progress(
                        &run.id,
                        run.engine.epochs_done() as u64,
                        progress == EngineStep::Progressed,
                    );
                    i += 1;
                    continue;
                }
                Err(e) => Some(e),
            };
            retire(sites.remove(i), shared, error);
            shared.counts[k].fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Tears one finished (or failed) site down without blocking its shard
/// siblings for long: dismiss agents, stop routing, drain stray
/// registrations, assemble the outcome. The last site still driving
/// lingers first, keeping its agents connected and the listener (with
/// its metrics service) up so scrapers observe the finished session.
fn retire(mut run: SiteRun, shared: &Shared, error: Option<DaemonError>) {
    if shared.router.finish_driving() && !shared.config.linger.is_zero() {
        thread::sleep(shared.config.linger);
    }
    run.engine.dismiss_agents();
    // Drop the router's sender first so the inbox can actually reach
    // disconnect once this site's reader tasks exit.
    shared.router.detach(&run.id);
    let deadline = Instant::now() + REAP_BUDGET;
    while Instant::now() < deadline {
        if run.engine.reap_strays(Duration::from_millis(20)) {
            break;
        }
    }
    let epochs_done = run.engine.epochs_done() as u64;
    let result = match error {
        Some(e) => Err(e),
        None => run.engine.finish(),
    };
    shared
        .router
        .finish_site(&run.id, epochs_done, result.is_ok());
    lock(&shared.outcomes).insert(run.id, result);
}
