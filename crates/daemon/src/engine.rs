//! The transport-agnostic session engine: one site's Central Controller
//! session loop, stepped by a shard thread of the shared host
//! ([`crate::host`]) — alone for a single-site [`crate::Daemon`], or
//! multiplexed with other sites' engines for a [`crate::Fleet`].
//!
//! The engine owns everything the session loop used to own inline: the
//! [`ControllerCore`], the agent writers, the bounded inbox receiver,
//! the [`Harness`] (event cursor and ledger), and the per-epoch
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
//! The join/leave retransmit loop is the shared sans-I/O [`Harness`] and
//! the directive retransmit loop the shared [`Transaction`]; the engine
//! only writes their commands and transmissions to sockets and handles
//! what else the inbox delivers, which it reads in one place.
//! Every protocol message is checked against the site's dimensions and
//! the harness's event cursor before it reaches the core: a frame that
//! would index out of range, poison planning with a non-finite rate, or
//! name an event other than a past one or the current one's own is
//! dropped and counted in `daemon.frames_rejected`.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use wolt_sim::Scenario;
use wolt_support::pool::TaskPool;
use wolt_support::{crash_point, obs};
use wolt_testbed::codec::ReadPatience;
use wolt_testbed::protocol::{ToAgent, ToClient, ToController};
use wolt_testbed::{
    assemble_report, coalesce_frames, prepare_session, ControllerConfig, ControllerCore, Directive,
    Harness, HarnessEvent, HarnessState, ReportFrame, TestbedError, Transaction, Transmission,
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
fn note_frame_in(bytes: usize) {
    static FRAMES: std::sync::OnceLock<obs::Counter> = std::sync::OnceLock::new();
    static BYTES: std::sync::OnceLock<obs::Counter> = std::sync::OnceLock::new();
    FRAMES
        .get_or_init(|| obs::counter("daemon.frames_in"))
        .inc();
    BYTES
        .get_or_init(|| obs::counter("daemon.bytes_in"))
        .add(bytes as u64);
}

/// Writes one server-side frame and meters it outbound
/// (`daemon.frames_out`, `daemon.bytes_out`): every frame the daemon
/// sends goes through here.
///
/// # Errors
///
/// Propagates the write failure; a failed frame is not counted.
pub(crate) fn send_metered(w: &mut impl Write, envelope: &Envelope) -> std::io::Result<()> {
    static FRAMES: std::sync::OnceLock<obs::Counter> = std::sync::OnceLock::new();
    static BYTES: std::sync::OnceLock<obs::Counter> = std::sync::OnceLock::new();
    let sent = wire::send_counted(w, envelope)?;
    FRAMES
        .get_or_init(|| obs::counter("daemon.frames_out"))
        .inc();
    BYTES
        .get_or_init(|| obs::counter("daemon.bytes_out"))
        .add(sent as u64);
    Ok(())
}

/// Whether the inbox shed policy may drop a queued message under
/// pressure: only telemetry (scan reports), which the harness's
/// retransmission schedule recovers. Acks and lifecycle messages are
/// load-bearing — dropping one would wedge a transaction or the session.
pub fn incoming_sheddable(msg: &Incoming) -> bool {
    matches!(msg, Incoming::Msg(ToController::Report { .. }))
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

/// What one inbox receive leaves for the session loop.
enum Input {
    /// A run of one or more scan reports.
    Reports(Vec<ReportFrame>),
    /// One departure notice or directive ack.
    Msg(ToController),
    /// An operator stop request.
    Stop(String),
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
    /// Driving session events.
    Driving,
    /// All events driven (or the run was stopped).
    Done { stopped: bool },
}

/// One site's session loop as a steppable state machine. See the module
/// docs for the driving contract; the sequence is always
/// `new → step…step (until Finished or Err) → dismiss_agents →
/// reap_strays… → finish`.
pub struct SessionEngine {
    scenario: Scenario,
    config: DaemonConfig,
    store: Option<SnapshotStore>,
    core: ControllerCore,
    writers: Vec<Option<TcpStream>>,
    rx: Inbox<Incoming>,
    greeting: Arc<Vec<Option<usize>>>,
    /// The event cursor and the ledger (presence, unresponsiveness,
    /// initial attachments, harness retries).
    harness: Harness,
    phase: Phase,
    /// Directive retransmissions since this engine started.
    retries: usize,
    msgs_in: usize,
    latencies: Vec<Duration>,
    stop_reason: Option<String>,
    drive_elapsed: Duration,
    teardown_started: Option<Instant>,
    /// Per-site deterministic counters (`None` for the site-less
    /// single-site daemon); `ctr_coalesced` is the per-site twin of
    /// `daemon.frames_coalesced`.
    ctr_epochs: Option<obs::Counter>,
    ctr_solved: Option<obs::Counter>,
    ctr_coalesced: Option<obs::Counter>,
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
        let core_config = ControllerConfig {
            policy: config.policy,
            estimated_capacities: prepare_site(&scenario, &config)?,
            strict: false,
        };
        let n_users = scenario.user_positions.len();
        let n_extenders = scenario.extender_positions.len();

        // Cold start or snapshot restore. The store falls back over torn
        // or corrupt generations by itself; only an unrecoverable store
        // (every generation damaged, or stamped for another site)
        // errors out, as does a snapshot whose shape does not fit this
        // site.
        let store = match &config.snapshot_dir {
            Some(dir) => Some(SnapshotStore::open_site(dir, config.snapshot_keep, &site)?),
            None => None,
        };
        let restored = match &store {
            Some(store) => store.load()?.map(|(_generation, snap)| snap),
            None => None,
        };
        let (core, state) = match restored {
            Some(snap) => {
                if !snap.fits_site(n_users, n_extenders) {
                    return Err(DaemonError::Protocol {
                        context: format!(
                            "snapshot does not fit this site \
                             ({n_users} users, {n_extenders} extenders)"
                        ),
                    });
                }
                let state = HarnessState {
                    epochs_done: snap.epochs_done,
                    present: snap.present,
                    unresponsive: snap.unresponsive,
                    initial_attach: snap.initial_attach,
                    retries: snap.retries,
                };
                (ControllerCore::restore(core_config, snap.core)?, state)
            }
            None => (
                ControllerCore::new(n_users, core_config),
                HarnessState::new(n_users),
            ),
        };
        let harness = Harness::new(events, config.deadlines.event_attempts, state);

        // What reconnecting agents are told in the handshake: the saved
        // association at startup (always `None` on a cold start).
        let greeting: Arc<Vec<Option<usize>>> = Arc::new(core.association().to_vec());

        let (tx, rx) = inbox::channel::<Incoming>(config.inbox_cap, incoming_sheddable);
        let site_counter = |name| (!site.is_empty()).then(|| obs::site_counter(&site, name));
        Ok((
            Self {
                scenario,
                config,
                store,
                core,
                writers: (0..n_users).map(|_| None).collect(),
                rx,
                greeting,
                harness,
                phase: Phase::Waiting { deadline: None },
                retries: 0,
                msgs_in: 0,
                latencies: Vec::new(),
                stop_reason: None,
                drive_elapsed: Duration::ZERO,
                teardown_started: None,
                ctr_epochs: site_counter("epochs"),
                ctr_solved: site_counter("solved"),
                ctr_coalesced: site_counter("frames_coalesced"),
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
        self.harness.state().epochs_done
    }

    /// Events configured in total.
    pub fn n_events(&self) -> usize {
        self.harness.n_events()
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
            Phase::Driving => {
                let t0 = Instant::now();
                let result = self.step_drive();
                self.drive_elapsed += t0.elapsed();
                result
            }
            Phase::Done { .. } => Ok(EngineStep::Finished),
        }
    }

    /// One connect-wait poll: one bounded [`recv_input`](Self::recv_input),
    /// which applies registrations, lost connections and stop requests
    /// and checks (then drops) anything an agent says before its first
    /// command. `Progressed` once a registration or a stop moved the
    /// site on.
    fn step_wait(&mut self, deadline: Option<Instant>) -> Result<EngineStep, DaemonError> {
        let deadline = deadline.unwrap_or_else(|| Instant::now() + self.config.connect_deadline);
        self.phase = Phase::Waiting {
            deadline: Some(deadline),
        };
        let missing = self.missing().len();
        if missing > 0 {
            let wait = deadline
                .saturating_duration_since(Instant::now())
                .min(WAIT_TICK);
            match self.recv_input(wait) {
                // An operator may stop a session that never assembled
                // (that is how a fleet drains a site whose agents are
                // yet to connect): proceed to the driving phase, whose
                // first event observes the stop reason and ends the run.
                Ok(Some(Input::Stop(reason))) => self.stop_reason = Some(reason),
                // Agents do not speak before their first command:
                // pre-session noise is dropped.
                Ok(_) => {}
                Err(RecvTimeoutError::Timeout) if Instant::now() >= deadline => {
                    return Err(DaemonError::Timeout {
                        waiting_for: format!("agents {:?} to connect", self.missing()),
                    });
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(TestbedError::ChannelClosed {
                        endpoint: "acceptor",
                    }
                    .into())
                }
            }
        }
        let now_missing = self.missing().len();
        if now_missing > 0 && self.stop_reason.is_none() {
            return Ok(if now_missing < missing {
                EngineStep::Progressed
            } else {
                EngineStep::Waiting
            });
        }
        self.start_driving();
        Ok(EngineStep::Progressed)
    }

    /// The clients with no registered connection.
    fn missing(&self) -> Vec<usize> {
        self.writers
            .iter()
            .enumerate()
            .filter_map(|(i, w)| w.is_none().then_some(i))
            .collect()
    }

    /// Leaves the connect wait: drive events, unless a restored engine
    /// already reached `stop_after`.
    fn start_driving(&mut self) {
        self.phase = if self
            .config
            .stop_after
            .is_some_and(|k| self.harness.state().epochs_done >= k)
        {
            Phase::Done { stopped: true }
        } else {
            Phase::Driving
        };
    }

    /// Drives one session event (skipping over events for unresponsive
    /// clients), snapshots, and checks the stop conditions — one
    /// iteration of the pre-refactor `drive` loop.
    fn step_drive(&mut self) -> Result<EngineStep, DaemonError> {
        let skipped_from = self.harness.state().epochs_done;
        let next = self.harness.next_event();
        self.count_epochs(skipped_from);
        let Some(event) = next? else {
            self.phase = Phase::Done { stopped: false };
            return Ok(EngineStep::Finished);
        };
        match self.drive_event(event)? {
            EventEnd::Completed => {
                if let Some(c) = &self.ctr_solved {
                    c.inc();
                }
                // Strict-equivalent to the rig's read of the physical
                // state: on a fault-free network the CC view after the
                // event's transaction *is* the physical attachment.
                self.harness.complete(self.core.association()[event.client]);
            }
            EventEnd::Unresponsive => self.harness.abandon(),
            EventEnd::Stopped => {
                self.phase = Phase::Done { stopped: true };
                return Ok(EngineStep::Finished);
            }
        }
        self.count_epochs(event.epoch as usize);
        if let Some(store) = self.store.as_mut() {
            // A crash on either side of the save is recoverable: before
            // it, the restarted daemon replays this event; after it, the
            // daemon resumes at the next one. Both replays are
            // byte-identical because the snapshot carries complete
            // decision state and agents re-derive theirs from the
            // handshake.
            crash_point!(CRASH_PRE_SNAPSHOT);
            let t0 = Instant::now();
            let state = self.harness.state();
            store.save(&DaemonSnapshot {
                epochs_done: state.epochs_done,
                present: state.present.clone(),
                unresponsive: state.unresponsive.clone(),
                initial_attach: state.initial_attach.clone(),
                retries: state.retries + self.retries,
                core: self.core.snapshot(),
            })?;
            obs::observe_duration("daemon.snapshot_write_us", t0.elapsed());
            crash_point!(CRASH_POST_SNAPSHOT);
        }
        if self.stop_reason.is_some()
            || self.config.stop_after == Some(self.harness.state().epochs_done)
        {
            self.phase = Phase::Done { stopped: true };
            return Ok(EngineStep::Finished);
        }
        Ok(EngineStep::Progressed)
    }

    /// Counts the events finished since the cursor stood at `from` in
    /// the per-site metrics.
    fn count_epochs(&self, from: usize) {
        if let Some(c) = &self.ctr_epochs {
            c.add((self.harness.state().epochs_done - from) as u64);
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
        self.rx.drain().into_iter().for_each(dismiss_stray);
        self.shutdown_agents();
    }

    /// One bounded teardown poll: agents that registered after the
    /// session stopped reading still need a dismissal, or their reader
    /// tasks would wait forever. Returns `true` once the inbox has
    /// disconnected — every reader task is gone, the engine is
    /// quiescent.
    pub fn reap_strays(&mut self, wait: Duration) -> bool {
        match self.rx.recv_timeout(wait) {
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
        let epochs_done = self.harness.state().epochs_done;
        let completed = !stopped && epochs_done == self.harness.n_events();
        let core = &self.core;
        let report = assemble_report(
            &self.scenario,
            core.association(),
            self.harness
                .into_ledger(self.config.policy, core, self.retries),
        )?;
        Ok(DaemonOutcome {
            report,
            completed,
            epochs_done,
            stats: DaemonStats {
                msgs_in: self.msgs_in,
                resolve_latencies: self.latencies,
                elapsed: self.drive_elapsed + teardown,
            },
        })
    }
}

/// The shared session set-up ([`prepare_session`]) for one site: its
/// estimated PLC capacities, with a configuration the set-up rejects
/// typed as [`DaemonError::InvalidConfig`].
///
/// # Errors
///
/// [`DaemonError::InvalidConfig`] for an empty scenario or zero retry
/// budgets; [`DaemonError::Testbed`] when the estimation fails.
pub(crate) fn prepare_site(
    scenario: &Scenario,
    config: &DaemonConfig,
) -> Result<Vec<Mbps>, DaemonError> {
    prepare_session(
        scenario,
        &config.estimator,
        &config.deadlines,
        config.noise_seed,
    )
    .map_err(|e| match e {
        TestbedError::InvalidConfig { context } => DaemonError::InvalidConfig {
            context: context.into(),
        },
        e => e.into(),
    })
}

/// Handles one message found in the inbox during teardown: a late
/// registration is dismissed, anything else discarded.
fn dismiss_stray(msg: Incoming) {
    if let Incoming::Register { mut writer, .. } = msg {
        let _ = send_metered(&mut writer, &Envelope::Agent(ToAgent::Shutdown));
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
    // Every decoded frame is metered inbound here, whatever its fate.
    let recv = |stream: &mut TcpStream| -> std::io::Result<Option<Envelope>> {
        let result = if patient {
            let mut keep_waiting = || !stop.load(Ordering::Relaxed);
            let mut patience = ReadPatience {
                keep_waiting: &mut keep_waiting,
                mid_frame_stalls,
            };
            wire::recv_counted_patient(stream, &mut patience)
        } else {
            wire::recv_counted(stream)
        };
        match result {
            Ok(frame) => Ok(frame.map(|(envelope, bytes)| {
                note_frame_in(bytes);
                envelope
            })),
            Err(e) => {
                if e.kind() == std::io::ErrorKind::TimedOut {
                    obs::counter_inc("daemon.read_timeouts");
                }
                Err(e)
            }
        }
    };
    // Pre-handshake: the connection is a control channel until it sends
    // `Hello`. Control connections may issue any number of metrics or
    // fleet queries (each answered inline — safe here because no
    // session-loop writer shares this stream yet) and/or a stop request.
    let (client, tx) = loop {
        match recv(&mut stream) {
            Ok(Some(Envelope::Hello { client, site, .. })) => {
                match route(client, site.as_deref()) {
                    HelloDecision::Accept { sender, attached } => {
                        if send_metered(&mut stream, &Envelope::HelloAck { attached }).is_err() {
                            return;
                        }
                        break (client, sender);
                    }
                    HelloDecision::Dismiss { attached } => {
                        let dismissal = Envelope::Agent(ToAgent::Shutdown);
                        for reply in [Envelope::HelloAck { attached }, dismissal] {
                            if send_metered(&mut stream, &reply).is_err() {
                                return;
                            }
                        }
                        return;
                    }
                    HelloDecision::Reject(reply) => {
                        let _ = send_metered(&mut stream, &reply);
                        return;
                    }
                    HelloDecision::Close => return,
                }
            }
            Ok(Some(envelope)) => {
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
            Ok(Some(Envelope::Ctrl(msg))) => {
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
            Ok(Some(Envelope::Shutdown { reason })) => {
                obs::trace("daemon", format!("operator stop: {reason}"));
                let _ = tx.send(Incoming::Stop { reason });
            }
            Ok(Some(Envelope::MetricsRequest)) => {
                // A registered agent connection shares its write half
                // with the session loop; replying here could interleave
                // frames. Count and drop.
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
                            let limit = max_connections as u64;
                            let _ = send_metered(&mut stream, &Envelope::Busy { limit });
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

/// Whether a protocol message fits the session's event cursor: the
/// harness is on event `epoch`, for `owner` (`None` past the last
/// event). A report or departure may repeat an older event, but never
/// name a later one — the core would take it as a new event and move
/// its duplicate watermark past every honest report — nor claim the
/// current event for another client. Acks carry no epoch.
fn fits_event(msg: &ToController, epoch: u64, owner: Option<usize>) -> bool {
    match *msg {
        ToController::Report {
            client, epoch: e, ..
        }
        | ToController::Departed { client, epoch: e } => {
            e < epoch || (e == epoch && owner == Some(client))
        }
        ToController::Ack { .. } => true,
    }
}

impl SessionEngine {
    /// Drives one join/leave event: carry each of the harness's
    /// commands to the agent, process the resulting report/departure
    /// through the core, and run the directive transaction, until the
    /// event completes or the harness runs out of attempts.
    fn drive_event(&mut self, event: HarnessEvent) -> Result<EventEnd, DaemonError> {
        if self.stop_reason.is_some() {
            return Ok(EventEnd::Stopped);
        }
        let epoch = event.epoch;
        while let Some(cmd) = self.harness.next_command() {
            if !self.send_agent(event.client, cmd) {
                // No connection to the client: its event can never
                // complete. Treat like the rig's silent-agent path.
                return Ok(EventEnd::Unresponsive);
            }
            let deadline = Instant::now() + self.config.deadlines.event;
            loop {
                let wait = deadline.saturating_duration_since(Instant::now());
                let done = match self.recv_input(wait) {
                    Ok(None) => None,
                    Ok(Some(Input::Reports(frames))) => self.process_report_run(frames)?,
                    Ok(Some(Input::Msg(msg))) => self.process_event_msg(msg)?,
                    Ok(Some(Input::Stop(reason))) => {
                        self.stop_reason = Some(reason);
                        return Ok(EventEnd::Stopped);
                    }
                    Err(RecvTimeoutError::Timeout) => break,
                    Err(RecvTimeoutError::Disconnected) => {
                        return Err(TestbedError::ChannelClosed {
                            endpoint: "acceptor",
                        }
                        .into())
                    }
                };
                if done == Some(epoch) {
                    return Ok(EventEnd::Completed);
                }
            }
        }
        Ok(EventEnd::Unresponsive)
    }

    /// Feeds a departure notice or an ack through the core; returns the
    /// epoch of a completed event transaction, if this message
    /// triggered one.
    fn process_event_msg(&mut self, msg: ToController) -> Result<Option<u64>, DaemonError> {
        let t0 = Instant::now();
        let Some((epoch, planned)) = self.core.handle_message(msg) else {
            return Ok(None);
        };
        self.transact(planned?, epoch)?;
        self.note_resolve(t0);
        Ok(Some(epoch))
    }

    /// The one place session input is read from the inbox. Takes the
    /// next message, or a consecutive run of queued scan reports
    /// (drain-what's-queued: structural, never time-based, so a clean
    /// serialized session reads one report at a time). Registrations and
    /// lost connections are applied here. A message that does not fit
    /// the site ([`fits_site`]) or the event cursor ([`fits_event`]), or
    /// that names an event the harness abandoned before the core saw it
    /// ([`ControllerCore::is_abandoned`]), is dropped and counted once in
    /// `daemon.frames_rejected`; every other one counts in `msgs_in`.
    /// `None` when nothing is left for the session loop.
    fn recv_input(&mut self, wait: Duration) -> Result<Option<Input>, RecvTimeoutError> {
        let run = self.rx.recv_batch_timeout(wait, incoming_sheddable)?;
        let n_extenders = self.scenario.extender_positions.len();
        let cursor = self.harness.state().epochs_done as u64;
        let owner = self.harness.current().map(|event| event.client);
        let mut reports = Vec::new();
        let mut input = None;
        for incoming in run {
            match incoming {
                Incoming::Msg(msg)
                    if !fits_site(&msg, self.writers.len(), n_extenders)
                        || !fits_event(&msg, cursor, owner)
                        || msg
                            .epoch()
                            .is_some_and(|e| self.core.is_abandoned(e, cursor)) =>
                {
                    obs::counter_inc("daemon.frames_rejected");
                }
                Incoming::Msg(ToController::Report {
                    client,
                    epoch,
                    rates,
                    attached,
                }) => reports.push(ReportFrame {
                    client,
                    epoch,
                    rates,
                    attached,
                }),
                Incoming::Msg(msg) => input = Some(Input::Msg(msg)),
                Incoming::Stop { reason } => input = Some(Input::Stop(reason)),
                Incoming::Register { client, writer } => self.writers[client] = Some(writer),
                // Mid-transaction, the ack deadline machinery turns a
                // dead connection into a declared-dead client.
                Incoming::Gone { client } => self.writers[client] = None,
            }
        }
        // A run is either scan reports only or one other message.
        self.msgs_in += reports.len() + usize::from(matches!(input, Some(Input::Msg(_))));
        Ok(if reports.is_empty() {
            input
        } else {
            Some(Input::Reports(reports))
        })
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

    /// Feeds a run of scan reports through the core as one batch:
    /// coalesce each client to its newest frame, ingest the survivors,
    /// plan once, transact once. Returns the epoch of the completed
    /// event transaction, if the batch contained one.
    fn process_report_run(&mut self, frames: Vec<ReportFrame>) -> Result<Option<u64>, DaemonError> {
        let (kept, dropped) = coalesce_frames(frames);
        self.note_coalesced(dropped);
        let t0 = Instant::now();
        let outcome = self.core.handle_report_batch(&kept)?;
        let Some(last_epoch) = outcome.last_epoch else {
            return Ok(None);
        };
        self.transact(outcome.directives, last_epoch)?;
        self.note_resolve(t0);
        Ok(Some(last_epoch))
    }

    /// Records the re-solve latency of an event whose planning started
    /// at `t0` and whose transaction just completed.
    fn note_resolve(&mut self, t0: Instant) {
        let took = t0.elapsed();
        obs::observe_duration("daemon.resolve_us", took);
        self.latencies.push(took);
    }

    /// One directive transaction over TCP: the shared [`Transaction`]
    /// with socket writes for its transmissions and the merged inbox for
    /// everything it waits on.
    fn transact(&mut self, directives: Vec<Directive>, epoch: u64) -> Result<(), DaemonError> {
        let mut txn = Transaction::open(self.config.deadlines, epoch, directives);
        loop {
            for t in txn.on_tick(&mut self.core, Instant::now())? {
                self.send_directive(t);
            }
            let Some(next) = txn.next_deadline() else {
                self.retries += txn.retransmissions();
                return Ok(());
            };
            let wait = next.saturating_duration_since(Instant::now());
            match self.recv_input(wait) {
                Ok(None) | Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(TestbedError::ChannelClosed { endpoint: "client" }.into())
                }
                Ok(Some(Input::Reports(frames))) => {
                    // Reports mid-transaction: retransmissions of the
                    // current (or an older) event, consumed silently —
                    // the stale copies count as coalesced.
                    for frame in &frames {
                        txn.on_event(frame.epoch)?;
                    }
                    let (_, dropped) = coalesce_frames(frames);
                    self.note_coalesced(dropped);
                }
                Ok(Some(Input::Msg(ToController::Ack {
                    client,
                    seq,
                    extender,
                }))) => txn.on_ack(&mut self.core, client, seq, extender),
                Ok(Some(Input::Msg(
                    ToController::Report { epoch: e, .. } | ToController::Departed { epoch: e, .. },
                ))) => txn.on_event(e)?,
                Ok(Some(Input::Stop(reason))) => {
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
            if send_metered(w, &env).is_err() {
                self.writers[t.client] = None;
            }
        }
    }

    /// Sends one harness command; `false` when the client has no usable
    /// connection.
    fn send_agent(&mut self, client: usize, cmd: ToAgent) -> bool {
        let Some(w) = self.writers[client].as_mut() else {
            return false;
        };
        let sent = send_metered(w, &Envelope::Agent(cmd)).is_ok();
        if !sent {
            self.writers[client] = None;
        }
        sent
    }

    /// Tells every connected agent to exit (so sockets close and reader
    /// tasks drain) and flushes the writers.
    fn shutdown_agents(&mut self) {
        for w in self.writers.iter_mut().flatten() {
            let _ = send_metered(w, &Envelope::Agent(ToAgent::Shutdown));
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

    #[test]
    fn only_frames_of_the_current_event_or_an_older_one_pass() {
        // The harness drives event 3, for client 1.
        let fits = |msg: &ToController| fits_event(msg, 3, Some(1));
        let at = |client, epoch| ToController::Report {
            client,
            epoch,
            rates: vec![Some(Mbps::new(10.0))],
            attached: 0,
        };
        let gone = |client, epoch| ToController::Departed { client, epoch };
        assert!(fits(&at(1, 3)), "the event's own report");
        assert!(fits(&gone(1, 3)), "the event's own departure");
        assert!(fits(&at(0, 2)), "an older event's retransmission");
        assert!(fits(&gone(2, 0)), "an older event's retransmission");
        assert!(!fits(&at(1, 4)), "a future report");
        assert!(!fits(&gone(1, 4)), "a future departure");
        assert!(!fits(&at(0, 3)), "the current event, foreign client");
        assert!(!fits(&gone(2, 3)), "the current event, foreign client");
        let ack = ToController::Ack {
            client: 0,
            seq: 9,
            extender: 0,
        };
        assert!(fits(&ack), "acks carry no epoch");
        // Past the last event, only older epochs pass.
        assert!(fits_event(&at(1, 2), 3, None));
        assert!(!fits_event(&at(1, 3), 3, None));
    }
}
