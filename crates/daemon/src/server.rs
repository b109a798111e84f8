//! The `wolt-daemon` server: the Central Controller as a long-running
//! TCP service.
//!
//! The in-process rig ([`wolt_testbed::rig`]) wires the controller and
//! the client agents together with mpsc channels inside one process. The
//! daemon replaces the channel transport with TCP — agents connect over
//! loopback (or a LAN), handshake with [`Envelope::Hello`], and then
//! speak exactly the [`wolt_testbed::protocol`] messages the rig speaks —
//! while every *decision* (planning, sequencing, epoch dedup,
//! declared-dead bookkeeping) stays in the shared
//! [`wolt_testbed::ControllerCore`]. Because both transports drive the
//! same core with the same inputs in the same order, a clean TCP session
//! produces a [`SessionReport`] whose canonical rendering is
//! byte-identical to the in-process run for the same scenario, seed, and
//! policy.
//!
//! # Concurrency
//!
//! `Daemon` is a one-site [`Fleet`](crate::Fleet): it runs the shared
//! host ([`crate::host`]) with a single anonymous site (id `""`), so
//! accept, routing, operator control and teardown are the fleet's own.
//! One reader task per connection (on a
//! [`wolt_support::pool::TaskPool`]) parses frames and forwards them
//! into a single bounded [`inbox`](crate::inbox) queue; the session loop
//! — a [`SessionEngine`](crate::engine::SessionEngine) stepped by one
//! shard thread — is the only code that touches the controller core or
//! writes to agent sockets. The accept loop runs on its own thread with
//! a nonblocking listener so shutdown is prompt. What distinguishes the
//! daemon on the wire is fixed by its constructor: a sited hello gets
//! [`Envelope::SiteGone`], and fleet operations get a `fleet_ack`
//! refusal.
//!
//! # Persistence
//!
//! After every completed epoch the daemon snapshots its full state (see
//! [`DaemonSnapshot`](crate::snapshot::DaemonSnapshot)) through the
//! generational [`SnapshotStore`](crate::store::SnapshotStore): each save
//! is a fresh checksummed `snapshot.<gen>.json` in `snapshot_dir`, and
//! restore rolls back over torn or corrupt generations to the newest one
//! that verifies. A restarted daemon restores that snapshot, hands each
//! reconnecting agent its saved attachment in the handshake (the radio
//! association outlives the controller process), and resumes at the
//! saved epoch — issuing no extra directives for work already done.
//!
//! # Overload
//!
//! Three independent guards keep a misbehaving or excessive peer from
//! taking the daemon down, each with an exact counter: connections past
//! `max_connections` are refused with a typed [`Envelope::Busy`] reply
//! (`daemon.conns_rejected`); a peer that stalls mid-frame past
//! `read_stall` loses its connection (`daemon.read_timeouts`) while
//! idling *between* frames stays free; and the session inbox is bounded
//! at `inbox_cap` entries, shedding the oldest queued telemetry first —
//! never acks or lifecycle messages (`daemon.frames_shed`).

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::path::PathBuf;
use std::time::Duration;

use wolt_plc::capacity::CapacityEstimator;
use wolt_sim::Scenario;
use wolt_testbed::{ControllerPolicy, Deadlines, SessionEvent, SessionReport};

use crate::engine;
use crate::host::{self, SiteDef};
use crate::store;
#[cfg(doc)]
use crate::wire::Envelope;
use crate::DaemonError;

pub use crate::engine::{CRASH_POST_SNAPSHOT, CRASH_PRE_SNAPSHOT};

/// Daemon configuration beyond the scenario and event list.
///
/// A [`Fleet`](crate::Fleet) takes the same struct for its host-level
/// settings; each of its [`SiteDef`]s overrides the per-site ones
/// (`policy`, `noise_seed`, `stop_after`), and `snapshot_dir` becomes
/// the fleet root.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Association logic at the CC.
    pub policy: ControllerPolicy,
    /// Offline PLC capacity estimation procedure (measurement noise).
    pub estimator: CapacityEstimator,
    /// Deadline and retry budgets, shared with the in-process rig.
    pub deadlines: Deadlines,
    /// Seed for the capacity-estimation noise (the rig's `seed`).
    pub noise_seed: u64,
    /// Directory for the generational snapshot store
    /// ([`crate::store::SnapshotStore`]); `None` disables persistence.
    /// On a fleet this is the root: each site persists under
    /// `<dir>/<site-id>/`.
    pub snapshot_dir: Option<PathBuf>,
    /// Snapshot generations kept on disk (must be ≥ 1 when persistence
    /// is on); older generations are pruned after each save.
    pub snapshot_keep: usize,
    /// Stop (snapshot + graceful shutdown) after this many events have
    /// completed in total — an operational kill switch and the hook the
    /// restart tests use to stop deterministically mid-session.
    pub stop_after: Option<usize>,
    /// How long to wait for every agent to connect before giving up.
    pub connect_deadline: Duration,
    /// How long to keep the listener (and metrics service) alive after
    /// the last event completes, before dismissing agents and shutting
    /// down. Zero by default. Gives external scrapers a deterministic
    /// window to read the finished session's counters over the
    /// [`Envelope::MetricsRequest`] envelope. On a fleet, the last site
    /// to finish lingers.
    pub linger: Duration,
    /// Concurrent connections accepted before new arrivals are refused
    /// with [`Envelope::Busy`]; `0` means unlimited.
    pub max_connections: usize,
    /// Session-inbox bound; past it the oldest queued telemetry frame is
    /// shed (acks and lifecycle messages never are). `0` means
    /// unbounded.
    pub inbox_cap: usize,
    /// How long a peer may stall *mid-frame* before its connection is
    /// dropped (idle between frames is always allowed). `Duration::ZERO`
    /// disables the deadline (fully blocking reads, as before).
    pub read_stall: Duration,
    /// Shard threads stepping the hosted sites; `0` resolves like the
    /// rest of the workspace (`WOLT_THREADS`, then available
    /// parallelism). A single-site daemon never uses more than one.
    pub shards: usize,
}

impl DaemonConfig {
    /// Config with the given policy and defaults for everything else.
    pub fn new(policy: ControllerPolicy) -> Self {
        Self {
            policy,
            estimator: CapacityEstimator::default(),
            deadlines: Deadlines::default(),
            noise_seed: 0,
            snapshot_dir: None,
            snapshot_keep: store::DEFAULT_KEEP,
            stop_after: None,
            connect_deadline: Duration::from_secs(30),
            linger: Duration::ZERO,
            max_connections: 0,
            inbox_cap: 0,
            read_stall: Duration::from_secs(5),
            shards: 0,
        }
    }

    /// The engine config of one hosted site: these host-level settings
    /// with the site's own overriding the per-site ones. The site
    /// persists under `<snapshot_dir>/<id>/`, so the anonymous site of a
    /// single-site daemon persists in `snapshot_dir` itself.
    pub(crate) fn for_site(&self, def: &SiteDef) -> Self {
        Self {
            policy: def.policy,
            noise_seed: def.noise_seed,
            stop_after: def.stop_after,
            snapshot_dir: self.snapshot_dir.as_ref().map(|root| root.join(&def.id)),
            ..self.clone()
        }
    }
}

/// Transport-level counters from one daemon run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DaemonStats {
    /// Protocol messages received from agents (reports, acks,
    /// departures).
    pub msgs_in: usize,
    /// Per-event re-solve latency: from receiving the triggering report
    /// to the directive transaction completing (all acks in).
    pub resolve_latencies: Vec<Duration>,
    /// Wall-clock time spent driving the session (agents connected →
    /// last event done).
    pub elapsed: Duration,
}

/// What one daemon run produced.
#[derive(Debug, Clone)]
pub struct DaemonOutcome {
    /// The evaluated session outcome (partial if the run was stopped).
    pub report: SessionReport,
    /// Whether every configured event completed.
    pub completed: bool,
    /// Events completed in total (including ones restored from a
    /// snapshot).
    pub epochs_done: usize,
    /// Transport counters.
    pub stats: DaemonStats,
}

/// The Central Controller as a TCP server.
pub struct Daemon {
    listener: TcpListener,
    scenario: Scenario,
    events: Vec<SessionEvent>,
    config: DaemonConfig,
}

impl Daemon {
    /// Binds the daemon's listening socket.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Io`] when the address cannot be bound;
    /// [`DaemonError::InvalidConfig`] for an empty scenario or zero
    /// retry budgets; [`DaemonError::Testbed`] when the capacity
    /// estimation fails.
    pub fn bind(
        addr: impl ToSocketAddrs,
        scenario: Scenario,
        events: Vec<SessionEvent>,
        config: DaemonConfig,
    ) -> Result<Self, DaemonError> {
        engine::prepare_site(&scenario, &config)?;
        let listener = TcpListener::bind(addr)?;
        Ok(Self {
            listener,
            scenario,
            events,
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

    /// Runs the session to completion (or a stop request) and returns
    /// the evaluated outcome.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Timeout`] when the expected agents never connect;
    /// [`DaemonError::Testbed`] for session-machinery failures;
    /// [`DaemonError::Io`] for socket failures.
    pub fn run(self) -> Result<DaemonOutcome, DaemonError> {
        let site = SiteDef {
            id: String::new(),
            scenario: self.scenario,
            events: self.events,
            policy: self.config.policy,
            noise_seed: self.config.noise_seed,
            stop_after: self.config.stop_after,
        };
        host::run_host(self.listener, vec![site], &self.config, false)?
            .sites
            .remove("")
            .unwrap_or_else(|| {
                Err(DaemonError::InvalidConfig {
                    context: "the host returned no outcome for its only site".into(),
                })
            })
    }
}
