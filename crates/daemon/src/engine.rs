//! The transport-agnostic session engine: one site's Central Controller
//! session loop, stepped by a shard thread of the shared host
//! ([`crate::host`]) — alone for a single-site [`crate::Daemon`], or
//! multiplexed with other sites' engines for a [`crate::Fleet`].
//!
//! The engine owns everything the session loop used to own inline: the
//! [`ControllerCore`], the agent writers, the bounded inbox receiver,
//! the ledger (present/unresponsive/initial-attach), and the per-epoch
//! snapshot schedule. What it does *not* own is the accept path: reader
//! tasks are fed by whoever accepts connections, through the
//! [`Incoming`] sender returned by [`SessionEngine::new`].
//!
//! [`SessionEngine::step`] runs one bounded unit of work — a short
//! connect-wait poll, or one full session event (command, report,
//! directive transaction, snapshot) — and returns. A shard round-robins
//! `step` across its sites. Because one engine is stepped by exactly one
//! thread and every decision stays inside its own `ControllerCore`, the
//! canonical report a site produces is byte-identical however many
//! engines share the process — the fleet's headline invariant is
//! structural, not coincidental: the single-site daemon *is* a one-site
//! fleet.
//!
//! The directive retransmit loop is the shared sans-I/O
//! [`wolt_testbed::Transaction`]; the engine only writes its
//! transmissions to sockets and handles what else the inbox delivers.
//! Every protocol message is checked against the site's dimensions
//! before it reaches the core: a frame that would index out of range or
//! poison planning with a non-finite rate is dropped and counted in
//! `daemon.frames_rejected`.

use std::io::Write as _;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use wolt_sim::Scenario;
use wolt_support::pool::TaskPool;
use wolt_support::rng::{ChaCha8Rng, SeedableRng};
use wolt_support::{crash_point, obs};
use wolt_testbed::codec::ReadPatience;
use wolt_testbed::protocol::{ToAgent, ToClient, ToController};
use wolt_testbed::{
    assemble_report, coalesce_frames, ControllerConfig, ControllerCore, Deadlines, Directive,
    ReportFrame, SessionEvent, SessionLedger, TestbedError, Transaction, Transmission,
};
use wolt_units::Mbps;

use crate::host::SiteDef;
use crate::inbox::{self, Inbox, InboxSender};
use crate::server::{DaemonConfig, DaemonOutcome, DaemonStats};
use crate::snapshot::DaemonSnapshot;
use crate::store::SnapshotStore;
use crate::wire::{self, Envelope};
use crate::DaemonError;

/// Crash point after an epoch's event completed but before its snapshot
/// is written: the restarted daemon replays the whole event.
pub const CRASH_PRE_SNAPSHOT: &str = "daemon.epoch.pre_snapshot";

/// Crash point right after an epoch's snapshot is durable: the restarted
/// daemon resumes at the next event with zero replay.
pub const CRASH_POST_SNAPSHOT: &str = "daemon.epoch.post_snapshot";

/// The polling tick used when `read_stall` arms patient reads: the
/// socket read timeout under the stall budget.
const READ_TICK: Duration = Duration::from_millis(25);

/// How long one connect-wait [`SessionEngine::step`] blocks on the inbox
/// before yielding, so a shard hosting several waiting sites keeps all
/// of them responsive.
const WAIT_TICK: Duration = Duration::from_millis(25);

/// Wire-traffic metering: the reader tasks account every frame and byte
/// that crosses the daemon's sockets, inbound.
pub fn note_frame_in(bytes: usize) {
    static FRAMES: std::sync::OnceLock<obs::Counter> = std::sync::OnceLock::new();
    static BYTES: std::sync::OnceLock<obs::Counter> = std::sync::OnceLock::new();
    FRAMES
        .get_or_init(|| obs::counter("daemon.frames_in"))
        .inc();
    BYTES
        .get_or_init(|| obs::counter("daemon.bytes_in"))
        .add(bytes as u64);
}

/// Wire-traffic metering, outbound twin of [`note_frame_in`].
pub fn note_frame_out(bytes: usize) {
    static FRAMES: std::sync::OnceLock<obs::Counter> = std::sync::OnceLock::new();
    static BYTES: std::sync::OnceLock<obs::Counter> = std::sync::OnceLock::new();
    FRAMES
        .get_or_init(|| obs::counter("daemon.frames_out"))
        .inc();
    BYTES
        .get_or_init(|| obs::counter("daemon.bytes_out"))
        .add(bytes as u64);
}

/// Whether the inbox shed policy may drop a queued message under
/// pressure: only telemetry (scan reports), which the harness's
/// retransmission schedule recovers. Acks and lifecycle messages are
/// load-bearing — dropping one would wedge a transaction or the session.
pub fn incoming_sheddable(msg: &Incoming) -> bool {
    matches!(msg, Incoming::Msg(ToController::Report { .. }))
}

/// Converts a drained run of sheddable messages into core report frames.
/// The inbox only batches consecutive messages matching
/// [`incoming_sheddable`], so everything here is a scan report.
fn report_frames(run: Vec<Incoming>) -> Vec<ReportFrame> {
    run.into_iter()
        .filter_map(|m| match m {
            Incoming::Msg(ToController::Report {
                client,
                epoch,
                rates,
                attached,
            }) => Some(ReportFrame {
                client,
                epoch,
                rates,
                attached,
            }),
            _ => None,
        })
        .collect()
}

/// Everything a reader task can feed a session engine.
pub enum Incoming {
    /// A connection completed its handshake for `client`.
    Register {
        /// The client index the hello named.
        client: usize,
        /// The write half of the agent's connection.
        writer: TcpStream,
    },
    /// A protocol message from a registered agent.
    Msg(ToController),
    /// An operator asked this engine's session to stop.
    Stop {
        /// Free-form reason, echoed into the logs.
        reason: String,
    },
    /// A registered agent's connection ended.
    Gone {
        /// The client whose connection died.
        client: usize,
    },
}

/// How one driven event ended.
enum EventEnd {
    Completed,
    Unresponsive,
    Stopped,
}

/// What one [`SessionEngine::step`] accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineStep {
    /// Still waiting for agents to connect; nothing to drive yet.
    Waiting,
    /// Drove one unit of work (a registration, or one session event).
    Progressed,
    /// The session is over (completed or stopped): time to dismiss
    /// agents and call [`SessionEngine::finish`].
    Finished,
}

/// Where the engine is in its lifecycle.
enum Phase {
    /// Collecting agent registrations until every client has a writer.
    /// The connect deadline arms on the first step.
    Waiting { deadline: Option<Instant> },
    /// Driving session events. `entry_checked` guards the one-time
    /// stop-after-already-reached check a restored engine needs.
    Driving { entry_checked: bool },
    /// All events driven (or the run was stopped).
    Done { stopped: bool },
}

/// One site's session loop as a steppable state machine. See the module
/// docs for the driving contract; the sequence is always
/// `new → step…step (until Finished or Err) → dismiss_agents →
/// reap_strays… → finish`.
pub struct SessionEngine {
    scenario: Scenario,
    events: Vec<SessionEvent>,
    config: DaemonConfig,
    store: Option<SnapshotStore>,
    session: Session,
    greeting: Arc<Vec<Option<usize>>>,
    epochs_done: usize,
    present: Vec<bool>,
    unresponsive: Vec<bool>,
    initial_attach: Vec<Option<usize>>,
    phase: Phase,
    drive_elapsed: Duration,
    teardown_started: Option<Instant>,
    /// Per-site deterministic counters (`None` for the site-less
    /// single-site daemon).
    ctr_epochs: Option<obs::Counter>,
    ctr_solved: Option<obs::Counter>,
}

impl SessionEngine {
    /// Builds the engine for one site: estimates capacities, restores
    /// the newest snapshot (when `config.snapshot_dir` is set), and
    /// opens the session inbox. Returns the engine and the inbox sender
    /// the accept path clones into every reader task — the engine holds
    /// no sender itself, so once every reader is gone the inbox
    /// disconnects and teardown can prove quiescence.
    ///
    /// `def` names the site (the empty id for the single-site daemon; a
    /// fleet site's id stamps the snapshot store and the per-site
    /// metrics) and overrides the per-site settings of the host-level
    /// `config` (see [`SiteDef`]).
    ///
    /// # Errors
    ///
    /// [`DaemonError::InvalidConfig`] for an empty scenario or zero
    /// retry budgets; [`DaemonError::SnapshotCorrupt`] for an
    /// unrecoverable (or wrong-site) store; [`DaemonError::Protocol`]
    /// for a snapshot that does not match the scenario.
    pub fn new(
        def: SiteDef,
        config: &DaemonConfig,
    ) -> Result<(Self, InboxSender<Incoming>), DaemonError> {
        let config = config.for_site(&def);
        let SiteDef {
            id: site,
            scenario,
            events,
            ..
        } = def;
        if scenario.user_positions.is_empty() || scenario.extender_positions.is_empty() {
            return Err(DaemonError::InvalidConfig {
                context: "scenario needs at least one user and one extender".into(),
            });
        }
        if config.deadlines.event_attempts == 0 || config.deadlines.ack_attempts == 0 {
            return Err(DaemonError::InvalidConfig {
                context: "deadlines need at least one attempt per message".into(),
            });
        }
        let n_users = scenario.user_positions.len();

        // Offline capacity estimation — identical to the rig's.
        let mut rng = ChaCha8Rng::seed_from_u64(config.noise_seed);
        let estimated: Vec<Mbps> = scenario
            .capacities
            .iter()
            .map(|&c| config.estimator.estimate(c, &mut rng))
            .collect::<Result<_, _>>()
            .map_err(|e| {
                DaemonError::from(TestbedError::Layer {
                    context: format!("capacity estimation: {e}"),
                })
            })?;
        let core_config = ControllerConfig {
            policy: config.policy,
            estimated_capacities: estimated,
            strict: false,
        };

        // Cold start or snapshot restore. The store falls back over torn
        // or corrupt generations by itself; only an unrecoverable store
        // (every generation damaged, or stamped for another site)
        // errors out.
        let store = match &config.snapshot_dir {
            Some(dir) => Some(SnapshotStore::open_site(dir, config.snapshot_keep, &site)?),
            None => None,
        };
        let restored = match &store {
            Some(store) => store.load()?.map(|(_generation, snap)| snap),
            None => None,
        };
        let (core, epochs_done, present, unresponsive, initial_attach, retries) = match restored {
            Some(snap) => {
                if snap.present.len() != n_users {
                    return Err(DaemonError::Protocol {
                        context: "snapshot is for a different scenario size".into(),
                    });
                }
                let core = ControllerCore::restore(core_config, snap.core)?;
                (
                    core,
                    snap.epochs_done,
                    snap.present,
                    snap.unresponsive,
                    snap.initial_attach,
                    snap.retries,
                )
            }
            None => (
                ControllerCore::new(n_users, core_config),
                0,
                vec![false; n_users],
                vec![false; n_users],
                vec![None; n_users],
                0,
            ),
        };

        // What reconnecting agents are told in the handshake: the saved
        // association at startup (always `None` on a cold start).
        let greeting: Arc<Vec<Option<usize>>> = Arc::new(core.association().to_vec());

        let (tx, rx) = inbox::channel::<Incoming>(config.inbox_cap, incoming_sheddable);
        let session = Session {
            core,
            n_extenders: scenario.extender_positions.len(),
            deadlines: config.deadlines,
            writers: (0..n_users).map(|_| None).collect(),
            rx,
            retries,
            msgs_in: 0,
            latencies: Vec::new(),
            stop_reason: None,
            coalesce: config.coalesce,
            ctr_coalesced: if site.is_empty() {
                None
            } else {
                Some(obs::site_counter(&site, "frames_coalesced"))
            },
        };
        let (ctr_epochs, ctr_solved) = if site.is_empty() {
            (None, None)
        } else {
            (
                Some(obs::site_counter(&site, "epochs")),
                Some(obs::site_counter(&site, "solved")),
            )
        };
        Ok((
            Self {
                scenario,
                events,
                config,
                store,
                session,
                greeting,
                epochs_done,
                present,
                unresponsive,
                initial_attach,
                phase: Phase::Waiting { deadline: None },
                drive_elapsed: Duration::ZERO,
                teardown_started: None,
                ctr_epochs,
                ctr_solved,
            },
            tx,
        ))
    }

    /// The handshake greeting: each client's saved attachment at
    /// startup.
    pub fn greeting(&self) -> Arc<Vec<Option<usize>>> {
        Arc::clone(&self.greeting)
    }

    /// Events completed so far (including restored ones).
    pub fn epochs_done(&self) -> usize {
        self.epochs_done
    }

    /// Events configured in total.
    pub fn n_events(&self) -> usize {
        self.events.len()
    }

    /// Runs one bounded unit of work: a short connect-wait poll while
    /// agents are still registering, or one full session event once
    /// they have. Call repeatedly until it returns
    /// [`EngineStep::Finished`] (or errs), then tear down.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Timeout`] when the expected agents never connect;
    /// [`DaemonError::Testbed`] for session-machinery failures;
    /// [`DaemonError::Io`] for socket and snapshot failures. After an
    /// error the engine is finished driving: dismiss its agents and
    /// discard it (the error replaces the outcome).
    pub fn step(&mut self) -> Result<EngineStep, DaemonError> {
        match self.phase {
            Phase::Waiting { deadline } => self.step_wait(deadline),
            Phase::Driving { entry_checked } => {
                let t0 = Instant::now();
                let result = self.step_drive(entry_checked);
                self.drive_elapsed += t0.elapsed();
                result
            }
            Phase::Done { .. } => Ok(EngineStep::Finished),
        }
    }

    /// One connect-wait poll, mirroring the pre-refactor
    /// `wait_for_agents` one bounded receive at a time.
    fn step_wait(&mut self, deadline: Option<Instant>) -> Result<EngineStep, DaemonError> {
        let deadline = deadline.unwrap_or_else(|| Instant::now() + self.config.connect_deadline);
        self.phase = Phase::Waiting {
            deadline: Some(deadline),
        };
        if !self.session.writers.iter().any(Option::is_none) {
            self.phase = Phase::Driving {
                entry_checked: false,
            };
            return Ok(EngineStep::Progressed);
        }
        let wait = deadline
            .saturating_duration_since(Instant::now())
            .min(WAIT_TICK);
        match self.session.rx.recv_timeout(wait) {
            Ok(Incoming::Register { client, writer }) => {
                self.session.writers[client] = Some(writer);
                if !self.session.writers.iter().any(Option::is_none) {
                    self.phase = Phase::Driving {
                        entry_checked: false,
                    };
                }
                Ok(EngineStep::Progressed)
            }
            Ok(Incoming::Gone { client }) => {
                self.session.writers[client] = None;
                Ok(EngineStep::Waiting)
            }
            Ok(Incoming::Stop { reason }) => {
                // An operator may stop a session that never assembled
                // (that is how a fleet drains a site whose agents are
                // yet to connect): proceed to the driving phase, whose
                // first event observes the stop reason and ends the run.
                self.session.stop_reason = Some(reason);
                self.phase = Phase::Driving {
                    entry_checked: false,
                };
                Ok(EngineStep::Progressed)
            }
            Ok(Incoming::Msg(_)) => {
                // Agents do not speak before their first command; drop
                // pre-session noise.
                self.session.msgs_in += 1;
                Ok(EngineStep::Waiting)
            }
            Err(RecvTimeoutError::Timeout) => {
                if Instant::now() >= deadline {
                    let missing: Vec<usize> = self
                        .session
                        .writers
                        .iter()
                        .enumerate()
                        .filter_map(|(i, w)| w.is_none().then_some(i))
                        .collect();
                    return Err(DaemonError::Timeout {
                        waiting_for: format!("agents {missing:?} to connect"),
                    });
                }
                Ok(EngineStep::Waiting)
            }
            Err(RecvTimeoutError::Disconnected) => Err(TestbedError::ChannelClosed {
                endpoint: "acceptor",
            }
            .into()),
        }
    }

    /// Drives one session event (skipping over events for unresponsive
    /// clients), snapshots, and checks the stop conditions — one
    /// iteration of the pre-refactor `drive` loop.
    fn step_drive(&mut self, entry_checked: bool) -> Result<EngineStep, DaemonError> {
        if !entry_checked {
            self.phase = Phase::Driving {
                entry_checked: true,
            };
            if self
                .config
                .stop_after
                .is_some_and(|k| self.epochs_done >= k)
            {
                self.phase = Phase::Done { stopped: true };
                return Ok(EngineStep::Finished);
            }
        }
        loop {
            let idx = self.epochs_done;
            let Some(&event) = self.events.get(idx) else {
                self.phase = Phase::Done { stopped: false };
                return Ok(EngineStep::Finished);
            };
            let epoch = idx as u64;
            let (i, is_join) = match event {
                SessionEvent::Join(i) => (i, true),
                SessionEvent::Leave(i) => (i, false),
            };
            let n_users = self.scenario.user_positions.len();
            if i < n_users && self.unresponsive[i] {
                // A client whose earlier event never completed is out of
                // the session: later events for it are skipped.
                self.advance_epoch(idx);
                continue;
            }
            let valid = i < n_users
                && if is_join {
                    !self.present[i]
                } else {
                    self.present[i]
                };
            if !valid {
                return Err(TestbedError::InvalidConfig {
                    context: if is_join {
                        "join of an out-of-range or already-present client"
                    } else {
                        "leave of an out-of-range or absent client"
                    },
                }
                .into());
            }

            match self.session.drive_event(epoch, i, is_join)? {
                EventEnd::Completed => {
                    if let Some(c) = &self.ctr_solved {
                        c.inc();
                    }
                    if is_join {
                        self.present[i] = true;
                        if self.initial_attach[i].is_none() {
                            // Strict-equivalent to the rig's read of the
                            // physical state: on a fault-free network the
                            // CC view after the join transaction *is* the
                            // physical attachment.
                            self.initial_attach[i] = self.session.core.association()[i];
                        }
                    } else {
                        self.present[i] = false;
                    }
                }
                EventEnd::Unresponsive => {
                    if is_join {
                        self.unresponsive[i] = true;
                    } else {
                        self.present[i] = false;
                    }
                }
                EventEnd::Stopped => {
                    self.phase = Phase::Done { stopped: true };
                    return Ok(EngineStep::Finished);
                }
            }
            self.advance_epoch(idx);
            if let Some(store) = self.store.as_mut() {
                // A crash on either side of the save is recoverable:
                // before it, the restarted daemon replays this event;
                // after it, the daemon resumes at the next one. Both
                // replays are byte-identical because the snapshot
                // carries complete decision state and agents re-derive
                // theirs from the handshake.
                crash_point!(CRASH_PRE_SNAPSHOT);
                let t0 = Instant::now();
                store.save(&DaemonSnapshot {
                    epochs_done: self.epochs_done,
                    present: self.present.clone(),
                    unresponsive: self.unresponsive.clone(),
                    initial_attach: self.initial_attach.clone(),
                    retries: self.session.retries,
                    core: self.session.core.snapshot(),
                })?;
                obs::observe_duration("daemon.snapshot_write_us", t0.elapsed());
                crash_point!(CRASH_POST_SNAPSHOT);
            }
            if self.session.stop_reason.is_some()
                || self.config.stop_after == Some(self.epochs_done)
            {
                self.phase = Phase::Done { stopped: true };
                return Ok(EngineStep::Finished);
            }
            return Ok(EngineStep::Progressed);
        }
    }

    /// Advances the epoch cursor past event `idx`, counting it in the
    /// per-site metrics.
    fn advance_epoch(&mut self, idx: usize) {
        self.epochs_done = idx + 1;
        if let Some(c) = &self.ctr_epochs {
            c.inc();
        }
    }

    /// Tells every connected agent to exit (so sockets close and reader
    /// tasks drain) and flushes the writers. Marks the start of the
    /// teardown window counted into the outcome's elapsed time.
    pub fn dismiss_agents(&mut self) {
        self.teardown_started.get_or_insert_with(Instant::now);
        // Clear what is already queued first (the session will never
        // process it), so the dismissed agents' `Gone` notices find room
        // in a bounded inbox instead of shedding leftover telemetry.
        self.session.rx.drain().into_iter().for_each(dismiss_stray);
        self.session.shutdown_agents();
    }

    /// One bounded teardown poll: agents that registered after the
    /// session stopped reading still need a dismissal, or their reader
    /// tasks would wait forever. Returns `true` once the inbox has
    /// disconnected — every reader task is gone, the engine is
    /// quiescent.
    pub fn reap_strays(&mut self, wait: Duration) -> bool {
        match self.session.rx.recv_timeout(wait) {
            Ok(msg) => {
                dismiss_stray(msg);
                false
            }
            Err(e) => e == RecvTimeoutError::Disconnected,
        }
    }

    /// Assembles the session outcome. Call after driving has finished
    /// and the agents are dismissed.
    ///
    /// # Errors
    ///
    /// [`DaemonError::Testbed`] when the report cannot be assembled;
    /// [`DaemonError::InvalidConfig`] when the engine is still mid-run
    /// (a driver bug).
    pub fn finish(self) -> Result<DaemonOutcome, DaemonError> {
        let Phase::Done { stopped } = self.phase else {
            return Err(DaemonError::InvalidConfig {
                context: "finish() called while the engine is still driving".into(),
            });
        };
        let teardown = self
            .teardown_started
            .map_or(Duration::ZERO, |t| t.elapsed());
        let physical_assoc = self.session.core.association().to_vec();
        let report = assemble_report(
            &self.scenario,
            &physical_assoc,
            SessionLedger {
                policy_name: self.config.policy.name().to_string(),
                present: self.present,
                unresponsive: self.unresponsive,
                initial_attach: self.initial_attach,
                crashed: Vec::new(),
                wedged: Vec::new(),
                declared_dead: self.session.core.declared_dead().to_vec(),
                directives: self.session.core.directives(),
                degraded_solves: self.session.core.degraded_solves(),
                retries: self.session.retries,
            },
        )?;
        let completed = !stopped && self.epochs_done == self.events.len();
        Ok(DaemonOutcome {
            report,
            completed,
            epochs_done: self.epochs_done,
            stats: DaemonStats {
                msgs_in: self.session.msgs_in,
                resolve_latencies: self.session.latencies,
                elapsed: self.drive_elapsed + teardown,
            },
        })
    }
}

/// Handles one message found in the inbox during teardown: a late
/// registration is dismissed, anything else discarded.
fn dismiss_stray(msg: Incoming) {
    if let Incoming::Register { mut writer, .. } = msg {
        let _ = wire::send(&mut writer, &Envelope::Agent(ToAgent::Shutdown));
    }
}

/// What the accept path decided for one agent hello.
pub enum HelloDecision {
    /// Register the agent with this session inbox and greet it with its
    /// saved attachment.
    Accept {
        /// The session inbox of the site that owns this agent.
        sender: InboxSender<Incoming>,
        /// The saved attachment for the handshake ack.
        attached: Option<usize>,
    },
    /// The site's session is already over: greet the agent, then
    /// dismiss it at once, as its peers were dismissed.
    Dismiss {
        /// The saved attachment for the handshake ack.
        attached: Option<usize>,
    },
    /// Refuse with a typed reply, then close (e.g.
    /// [`Envelope::SiteGone`]).
    Reject(Envelope),
    /// Close silently (a malformed hello, e.g. an out-of-range client).
    Close,
}

/// Per-connection reader: handshake, then forward frames into the
/// session inbox the router picked, until the connection ends.
///
/// `route` maps a hello's `(client, site)` to a [`HelloDecision`];
/// `control` handles every other pre-handshake envelope (operator stop,
/// metrics and fleet queries) and returns whether to keep serving the
/// connection. This one function is the accept path for both the
/// single-site daemon and the fleet — only the two closures differ.
///
/// When `read_stall` is nonzero the socket read is *patient*: idling
/// between frames is free (and ends cleanly once `stop` is set, so a
/// silent control connection cannot hang teardown), but a peer that
/// stalls mid-frame past the budget loses the connection and is counted
/// in `daemon.read_timeouts`.
pub fn serve_connection(
    mut stream: TcpStream,
    stop: &Arc<AtomicBool>,
    read_stall: Duration,
    route: &dyn Fn(usize, Option<&str>) -> HelloDecision,
    control: &dyn Fn(&mut TcpStream, Envelope) -> bool,
) {
    let _ = stream.set_nodelay(true);
    let patient = !read_stall.is_zero();
    let mid_frame_stalls = if patient {
        let _ = stream.set_read_timeout(Some(READ_TICK));
        (read_stall.as_millis() / READ_TICK.as_millis()).max(1) as u32
    } else {
        0
    };
    let recv = |stream: &mut TcpStream| -> std::io::Result<Option<(Envelope, usize)>> {
        if !patient {
            return wire::recv_counted(stream);
        }
        let mut keep_waiting = || !stop.load(Ordering::Relaxed);
        let mut patience = ReadPatience {
            keep_waiting: &mut keep_waiting,
            mid_frame_stalls,
        };
        let result = wire::recv_counted_patient(stream, &mut patience);
        if let Err(e) = &result {
            if e.kind() == std::io::ErrorKind::TimedOut {
                obs::counter_inc("daemon.read_timeouts");
            }
        }
        result
    };
    // Pre-handshake: the connection is a control channel until it sends
    // `Hello`. Control connections may issue any number of metrics or
    // fleet queries (each answered inline — safe here because no
    // session-loop writer shares this stream yet) and/or a stop request.
    let (client, tx) = loop {
        match recv(&mut stream) {
            Ok(Some((Envelope::Hello { client, site, .. }, bytes))) => {
                match route(client, site.as_deref()) {
                    HelloDecision::Accept { sender, attached } => {
                        note_frame_in(bytes);
                        match wire::send_counted(&mut stream, &Envelope::HelloAck { attached }) {
                            Ok(sent) => note_frame_out(sent),
                            Err(_) => return,
                        }
                        break (client, sender);
                    }
                    HelloDecision::Dismiss { attached } => {
                        note_frame_in(bytes);
                        let dismissal = Envelope::Agent(ToAgent::Shutdown);
                        for reply in [Envelope::HelloAck { attached }, dismissal] {
                            match wire::send_counted(&mut stream, &reply) {
                                Ok(sent) => note_frame_out(sent),
                                Err(_) => return,
                            }
                        }
                        return;
                    }
                    HelloDecision::Reject(reply) => {
                        note_frame_in(bytes);
                        if let Ok(sent) = wire::send_counted(&mut stream, &reply) {
                            note_frame_out(sent);
                        }
                        return;
                    }
                    HelloDecision::Close => return,
                }
            }
            Ok(Some((envelope, bytes))) => {
                note_frame_in(bytes);
                if !control(&mut stream, envelope) {
                    return;
                }
            }
            _ => return,
        }
    };
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    if tx.send(Incoming::Register { client, writer }).is_err() {
        return;
    }
    loop {
        match recv(&mut stream) {
            Ok(Some((Envelope::Ctrl(msg), bytes))) => {
                note_frame_in(bytes);
                // A connection speaks only for the client its hello
                // named: a frame claiming another client is dropped.
                if msg_client(&msg) != client {
                    obs::counter_inc("daemon.frames_rejected");
                    continue;
                }
                if tx.send(Incoming::Msg(msg)).is_err() {
                    return;
                }
            }
            Ok(Some((Envelope::Shutdown { reason }, bytes))) => {
                note_frame_in(bytes);
                obs::trace("daemon", format!("operator stop: {reason}"));
                let _ = tx.send(Incoming::Stop { reason });
            }
            Ok(Some((Envelope::MetricsRequest, bytes))) => {
                // A registered agent connection shares its write half
                // with the session loop; replying here could interleave
                // frames. Count and drop.
                note_frame_in(bytes);
                obs::counter_inc("daemon.metrics_requests");
            }
            Ok(Some(_)) | Ok(None) | Err(_) => {
                let _ = tx.send(Incoming::Gone { client });
                return;
            }
        }
    }
}

/// The client a protocol message speaks for.
fn msg_client(msg: &ToController) -> usize {
    match *msg {
        ToController::Report { client, .. }
        | ToController::Departed { client, .. }
        | ToController::Ack { client, .. } => client,
    }
}

/// Spawns the accept loop: a nonblocking listener polled until `stop`,
/// dispatching each connection onto a reader pool of `workers` tasks.
/// Connections past `max_connections` (0 = unlimited) are refused with a
/// typed [`Envelope::Busy`] reply and counted in
/// `daemon.conns_rejected`.
///
/// The pool lives (and joins its readers) on the spawned thread, so
/// `JoinHandle::join` returning means every reader task has exited.
///
/// # Errors
///
/// Propagates the failure to switch the listener to nonblocking mode.
pub fn spawn_acceptor(
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    workers: usize,
    max_connections: usize,
    handler: Arc<dyn Fn(TcpStream) + Send + Sync>,
) -> std::io::Result<thread::JoinHandle<()>> {
    listener.set_nonblocking(true)?;
    let pool = TaskPool::new(workers);
    // Live connections, shared with the reader tasks so the cap
    // reflects closures as they happen.
    let active = Arc::new(AtomicUsize::new(0));
    Ok(thread::spawn(move || {
        // The pool lives (and joins its readers) on this thread.
        let pool = pool;
        loop {
            // Once stopping, the listener still drains its backlog: a
            // peer whose connection completed before the stop is served
            // (a late agent is dismissed) instead of reset.
            let stopping = stop.load(Ordering::Relaxed);
            match listener.accept() {
                Ok((mut stream, _)) => {
                    if max_connections > 0 && active.load(Ordering::Relaxed) >= max_connections {
                        // Refuse with a typed reply so the peer can tell
                        // overload from a dead daemon and back off
                        // instead of hammering.
                        obs::counter_inc("daemon.conns_rejected");
                        pool.execute(move || {
                            let _ = stream.set_nodelay(true);
                            if let Ok(sent) = wire::send_counted(
                                &mut stream,
                                &Envelope::Busy {
                                    limit: max_connections as u64,
                                },
                            ) {
                                note_frame_out(sent);
                            }
                        });
                        continue;
                    }
                    active.fetch_add(1, Ordering::Relaxed);
                    let handler = Arc::clone(&handler);
                    let active = Arc::clone(&active);
                    pool.execute(move || {
                        handler(stream);
                        active.fetch_sub(1, Ordering::Relaxed);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock && !stopping => {
                    thread::sleep(Duration::from_millis(2));
                }
                Err(_) => break,
            }
        }
    }))
}

/// The session loop's mutable state: the decision core plus the TCP
/// transport bookkeeping.
struct Session {
    core: ControllerCore,
    /// Extenders at this site: the bound every frame's extender indices
    /// and rate vectors are checked against.
    n_extenders: usize,
    deadlines: Deadlines,
    writers: Vec<Option<TcpStream>>,
    rx: Inbox<Incoming>,
    retries: usize,
    msgs_in: usize,
    latencies: Vec<Duration>,
    stop_reason: Option<String>,
    /// Drain-what's-queued telemetry coalescing (`DaemonConfig::coalesce`).
    coalesce: bool,
    /// Per-site twin of `daemon.frames_coalesced` (fleet engines only).
    ctr_coalesced: Option<obs::Counter>,
}

/// Whether a protocol message fits a site of `n_users` clients and
/// `n_extenders` extenders: every index in range, one rate per extender,
/// and every rate finite and non-negative. The core indexes by these
/// values and plans on these rates, so only a message that fits may
/// reach it.
fn fits_site(msg: &ToController, n_users: usize, n_extenders: usize) -> bool {
    match msg {
        ToController::Report {
            client,
            rates,
            attached,
            ..
        } => {
            *client < n_users
                && *attached < n_extenders
                && rates.len() == n_extenders
                && rates
                    .iter()
                    .flatten()
                    .all(|r| r.value().is_finite() && r.value() >= 0.0)
        }
        ToController::Departed { client, .. } => *client < n_users,
        ToController::Ack {
            client, extender, ..
        } => *client < n_users && *extender < n_extenders,
    }
}

impl Session {
    /// Drives one join/leave event: send the command, process the
    /// resulting report/departure through the core, run the directive
    /// transaction, retransmitting the command on the rig's schedule.
    fn drive_event(
        &mut self,
        epoch: u64,
        client: usize,
        is_join: bool,
    ) -> Result<EventEnd, DaemonError> {
        if self.stop_reason.is_some() {
            return Ok(EventEnd::Stopped);
        }
        for attempt in 1..=self.deadlines.event_attempts {
            if attempt > 1 {
                self.retries += 1;
            }
            let cmd = if is_join {
                ToAgent::Join { epoch, attempt }
            } else {
                ToAgent::Leave { epoch, attempt }
            };
            if !self.send_agent(client, &cmd) {
                // No connection to the client: its event can never
                // complete. Treat like the rig's silent-agent path.
                return Ok(EventEnd::Unresponsive);
            }
            let deadline = Instant::now() + self.deadlines.event;
            loop {
                let wait = deadline.saturating_duration_since(Instant::now());
                let mut drained = match self.recv_run(wait) {
                    Ok(batch) => batch,
                    Err(RecvTimeoutError::Timeout) => break,
                    Err(RecvTimeoutError::Disconnected) => {
                        return Err(TestbedError::ChannelClosed {
                            endpoint: "acceptor",
                        }
                        .into())
                    }
                };
                if drained.len() > 1 {
                    // A multi-message drain is, by construction, a
                    // consecutive run of scan reports: coalesce and plan
                    // once for the whole burst.
                    self.msgs_in += drained.len();
                    if let Some(done_epoch) = self.process_report_run(drained)? {
                        if done_epoch == epoch {
                            return Ok(EventEnd::Completed);
                        }
                    }
                    continue;
                }
                let Some(incoming) = drained.pop() else {
                    continue;
                };
                match incoming {
                    Incoming::Register { client: c, writer } => {
                        self.writers[c] = Some(writer);
                    }
                    Incoming::Gone { client: c } => {
                        self.writers[c] = None;
                    }
                    Incoming::Stop { reason } => {
                        self.stop_reason = Some(reason);
                        return Ok(EventEnd::Stopped);
                    }
                    Incoming::Msg(msg) => {
                        self.msgs_in += 1;
                        if let Some(done_epoch) = self.process_event_msg(msg)? {
                            if done_epoch == epoch {
                                return Ok(EventEnd::Completed);
                            }
                        }
                    }
                }
            }
        }
        Ok(EventEnd::Unresponsive)
    }

    /// Feeds one protocol message through the core; returns the epoch of
    /// a completed event transaction, if this message triggered one.
    fn process_event_msg(&mut self, msg: ToController) -> Result<Option<u64>, DaemonError> {
        match msg {
            ToController::Report {
                client,
                epoch,
                rates,
                attached,
            } => {
                if self.core.is_duplicate(epoch) {
                    return Ok(None);
                }
                let t0 = Instant::now();
                let directives = self.core.handle_report(client, epoch, &rates, attached)?;
                self.transact(directives, epoch)?;
                let took = t0.elapsed();
                obs::observe_duration("daemon.resolve_us", took);
                self.latencies.push(took);
                Ok(Some(epoch))
            }
            ToController::Departed { client, epoch } => {
                if self.core.is_duplicate(epoch) {
                    return Ok(None);
                }
                let t0 = Instant::now();
                let directives = self.core.handle_departed(client, epoch)?;
                self.transact(directives, epoch)?;
                let took = t0.elapsed();
                obs::observe_duration("daemon.resolve_us", took);
                self.latencies.push(took);
                Ok(Some(epoch))
            }
            ToController::Ack {
                client,
                seq,
                extender,
            } => {
                // A late ack refreshes the CC view iff it matches the
                // newest directive.
                self.core.handle_ack(client, seq, extender);
                Ok(None)
            }
        }
    }

    /// Receives from the inbox: a consecutive run of coalescible scan
    /// reports when coalescing is on, exactly one message when it is
    /// off. Batching is structural (drain-what's-queued), never
    /// time-based, so a clean serialized session — where at most one
    /// report is ever queued — behaves identically either way. Messages
    /// that do not fit the site are dropped here and counted in
    /// `daemon.frames_rejected`, so the run may come back empty.
    fn recv_run(&self, wait: Duration) -> Result<Vec<Incoming>, RecvTimeoutError> {
        let mut run = if self.coalesce {
            self.rx.recv_batch_timeout(wait, incoming_sheddable)?
        } else {
            vec![self.rx.recv_timeout(wait)?]
        };
        run.retain(|m| match m {
            Incoming::Msg(msg) if !fits_site(msg, self.writers.len(), self.n_extenders) => {
                obs::counter_inc("daemon.frames_rejected");
                false
            }
            _ => true,
        });
        Ok(run)
    }

    /// Counts frames dropped by coalescing, globally and per site.
    fn note_coalesced(&self, dropped: usize) {
        if dropped == 0 {
            return;
        }
        obs::counter("daemon.frames_coalesced").add(dropped as u64);
        if let Some(ctr) = &self.ctr_coalesced {
            ctr.add(dropped as u64);
        }
    }

    /// Feeds a drained run of scan reports through the core as one
    /// batch: coalesce each client to its newest frame, ingest the
    /// survivors, plan once, transact once. Returns the epoch of the
    /// completed event transaction, if the batch contained one.
    fn process_report_run(&mut self, run: Vec<Incoming>) -> Result<Option<u64>, DaemonError> {
        let (kept, dropped) = coalesce_frames(report_frames(run));
        self.note_coalesced(dropped);
        let t0 = Instant::now();
        let outcome = self.core.handle_report_batch(&kept)?;
        let Some(last_epoch) = outcome.last_epoch else {
            return Ok(None);
        };
        self.transact(outcome.directives, last_epoch)?;
        let took = t0.elapsed();
        obs::observe_duration("daemon.resolve_us", took);
        self.latencies.push(took);
        Ok(Some(last_epoch))
    }

    /// One directive transaction over TCP: the shared [`Transaction`]
    /// with socket writes for its transmissions and the merged inbox for
    /// everything it waits on.
    fn transact(&mut self, directives: Vec<Directive>, epoch: u64) -> Result<(), DaemonError> {
        let mut txn = Transaction::open(self.deadlines, epoch, directives);
        loop {
            for t in txn.on_tick(&mut self.core, Instant::now())? {
                self.send_directive(t);
            }
            let Some(next) = txn.next_deadline() else {
                self.retries += txn.retransmissions();
                return Ok(());
            };
            let wait = next.saturating_duration_since(Instant::now());
            let mut drained = match self.recv_run(wait) {
                Ok(batch) => batch,
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(TestbedError::ChannelClosed { endpoint: "client" }.into())
                }
            };
            if drained.len() > 1 {
                // A run of reports mid-transaction: retransmissions of
                // the current (or an older) event, consumed silently as
                // the single-message arm below does — minus the stale
                // copies, which count as coalesced.
                self.msgs_in += drained.len();
                let frames = report_frames(drained);
                for frame in &frames {
                    txn.on_event(frame.epoch)?;
                }
                let (_, dropped) = coalesce_frames(frames);
                self.note_coalesced(dropped);
                continue;
            }
            let Some(incoming) = drained.pop() else {
                continue;
            };
            match incoming {
                Incoming::Msg(ToController::Ack {
                    client,
                    seq,
                    extender,
                }) => {
                    self.msgs_in += 1;
                    txn.on_ack(&mut self.core, client, seq, extender);
                }
                Incoming::Msg(ToController::Report { epoch: e, .. })
                | Incoming::Msg(ToController::Departed { epoch: e, .. }) => {
                    self.msgs_in += 1;
                    txn.on_event(e)?;
                }
                Incoming::Register { client, writer } => {
                    self.writers[client] = Some(writer);
                }
                Incoming::Gone { client } => {
                    // The ack deadline machinery turns a dead connection
                    // into a declared-dead client.
                    self.writers[client] = None;
                }
                Incoming::Stop { reason } => {
                    // Finish converging first; the driver stops after
                    // this event.
                    self.stop_reason.get_or_insert(reason);
                }
            }
        }
    }

    /// Sends one directive transmission; a broken pipe drops the writer
    /// and lets the ack machinery handle the silence.
    fn send_directive(&mut self, t: Transmission) {
        let env = Envelope::Client(ToClient::Directive {
            extender: t.extender,
            seq: t.seq,
            attempt: t.attempt,
        });
        if let Some(w) = self.writers[t.client].as_mut() {
            match wire::send_counted(w, &env) {
                Ok(sent) => note_frame_out(sent),
                Err(_) => self.writers[t.client] = None,
            }
        }
    }

    /// Sends one harness command; `false` when the client has no usable
    /// connection.
    fn send_agent(&mut self, client: usize, cmd: &ToAgent) -> bool {
        let env = Envelope::Agent(cmd.clone());
        match self.writers[client].as_mut() {
            Some(w) => match wire::send_counted(w, &env) {
                Ok(sent) => {
                    note_frame_out(sent);
                    true
                }
                Err(_) => {
                    self.writers[client] = None;
                    false
                }
            },
            None => false,
        }
    }

    /// Tells every connected agent to exit (so sockets close and reader
    /// tasks drain) and flushes the writers.
    fn shutdown_agents(&mut self) {
        for w in self.writers.iter_mut().flatten() {
            if let Ok(sent) = wire::send_counted(w, &Envelope::Agent(ToAgent::Shutdown)) {
                note_frame_out(sent);
            }
            let _ = w.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(client: usize, rates: &[f64], attached: usize) -> ToController {
        ToController::Report {
            client,
            epoch: 0,
            rates: rates.iter().map(|&r| Some(Mbps::new(r))).collect(),
            attached,
        }
    }

    #[test]
    fn only_messages_that_fit_the_site_reach_the_core() {
        // Two clients, two extenders.
        let fits = |msg: &ToController| fits_site(msg, 2, 2);
        assert!(fits(&report(1, &[10.0, 0.0], 1)));
        assert!(!fits(&report(2, &[10.0, 0.0], 0)), "foreign client");
        assert!(!fits(&report(0, &[10.0, 0.0], 2)), "extender out of range");
        assert!(!fits(&report(0, &[f64::NAN, 1.0], 0)), "NaN rate");
        assert!(!fits(&report(0, &[f64::INFINITY, 1.0], 0)), "infinite rate");
        assert!(!fits(&report(0, &[-1.0, 1.0], 0)), "negative rate");
        assert!(!fits(&report(0, &[1.0], 0)), "short rate vector");
        assert!(fits(&ToController::Departed {
            client: 1,
            epoch: 3
        }));
        assert!(!fits(&ToController::Departed {
            client: 2,
            epoch: 3
        }));
        let ack = |client, extender| ToController::Ack {
            client,
            seq: 0,
            extender,
        };
        assert!(fits(&ack(0, 1)));
        assert!(!fits(&ack(0, 2)), "ack names an extender out of range");
        assert!(!fits(&ack(5, 0)), "ack from a foreign client");
    }
}
