//! The testbed rig: a Central Controller and client agents on real
//! threads, speaking the paper's protocol over channels.
//!
//! The paper implements WOLT "as a user-space utility that runs on users'
//! devices as well as the server" (§V-A). This module reproduces that
//! architecture: one controller thread (the CC) and one thread per client
//! laptop, connected by mpsc channels. Clients join (and may leave)
//! sequentially, as laptops were carried around the lab: each scans,
//! attaches to its strongest-RSSI extender, reports its rate estimates to
//! the CC, and re-associates when a directive arrives. The CC runs the
//! configured association policy on the *estimated* PLC capacities (from
//! the offline iperf procedure), while the physical outcome is always
//! evaluated on the true capacities — estimation error is part of the
//! experiment.
//!
//! # Resilience
//!
//! A real deployment's control plane is lossy: reports and directives
//! cross the same contended medium they configure, and laptops crash or
//! hang without notice. [`run_faulty_session`] runs the same protocol
//! under a seeded [`FaultPlan`], and the control loop is built to survive
//! it:
//!
//! * every wait is a `recv_timeout` against a [`Deadlines`] budget — the
//!   rig returns [`TestbedError::Timeout`] rather than hanging forever;
//! * directives carry monotone sequence numbers and are retransmitted
//!   with bounded exponential backoff; agents apply each sequence once
//!   and re-ack retries, so duplication and reordering are harmless;
//! * a client that misses its whole ack retry budget is declared dead:
//!   the CC forgets its telemetry and re-optimizes the survivors instead
//!   of stranding the transaction;
//! * the CC plans on a [`TelemetryCache`](wolt_core::TelemetryCache) of
//!   last-known-good smoothed rates, and degrades to the previous
//!   association when a solve fails mid-faults instead of panicking.
//!
//! The outcome of a faulty session is deterministic for a fixed scenario,
//! seed, and plan (see [`crate::faults`]): fault decisions are keyed by
//! message identity, so scheduling jitter only shifts *when* retries
//! happen, never *what* the session decides — provided the plan's delays
//! stay well below the ack retry budget.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use wolt_core::{evaluate, Association};
use wolt_plc::capacity::CapacityEstimator;
use wolt_sim::Scenario;
use wolt_units::Mbps;

use crate::agent::Agent;
use crate::controller::{ControllerConfig, ControllerCore, Directive};
use crate::faults::{FaultPlan, Link, MessageKey};
use crate::harness::{prepare_session, Harness, HarnessState};
use crate::protocol::{ToAgent, ToClient, ToController};
use crate::transaction::{Transaction, Transmission};
use crate::TestbedError;

/// Which association logic the Central Controller runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControllerPolicy {
    /// Full WOLT re-optimization on every arrival/departure (directives
    /// may move existing clients).
    Wolt,
    /// Greedy placement of the arriving client only; departures trigger
    /// no re-optimization.
    Greedy,
    /// No directives: clients stay on their strongest-RSSI extender.
    Rssi,
}

impl ControllerPolicy {
    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            ControllerPolicy::Wolt => "WOLT",
            ControllerPolicy::Greedy => "Greedy",
            ControllerPolicy::Rssi => "RSSI",
        }
    }
}

/// Deadline and retry budgets for the control loop. Every blocking wait
/// in the rig is bounded by one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadlines {
    /// How long the harness waits for one join/leave transaction to
    /// complete before retransmitting the command.
    pub event: Duration,
    /// Harness retransmissions per event before giving up (≥ 1).
    pub event_attempts: u32,
    /// Base ack deadline for a directive; retries back off exponentially
    /// from here.
    pub ack: Duration,
    /// Directive transmissions per sequence number before the CC declares
    /// the client dead (≥ 1).
    pub ack_attempts: u32,
    /// Upper bound on the backed-off ack deadline.
    pub ack_backoff_cap: Duration,
    /// Poll interval of the CC's idle loop (shutdown detection).
    pub idle: Duration,
}

impl Default for Deadlines {
    fn default() -> Self {
        Self {
            event: Duration::from_secs(2),
            event_attempts: 8,
            ack: Duration::from_millis(25),
            ack_attempts: 6,
            ack_backoff_cap: Duration::from_millis(200),
            idle: Duration::from_millis(50),
        }
    }
}

impl Deadlines {
    /// The ack deadline for the given (1-based) transmission attempt:
    /// exponential backoff from [`ack`](Self::ack), capped at
    /// [`ack_backoff_cap`](Self::ack_backoff_cap): the schedule every
    /// [`Transaction`] retransmits on.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32 << attempt.saturating_sub(1).min(16);
        self.ack.saturating_mul(factor).min(self.ack_backoff_cap)
    }
}

/// Rig configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RigConfig {
    /// Association logic at the CC.
    pub policy: ControllerPolicy,
    /// Offline PLC capacity estimation procedure (measurement noise).
    pub estimator: CapacityEstimator,
    /// Deadline and retry budgets for the control loop.
    pub deadlines: Deadlines,
}

impl RigConfig {
    /// Rig with the given policy and the default estimator and deadlines.
    pub fn new(policy: ControllerPolicy) -> Self {
        Self {
            policy,
            estimator: CapacityEstimator::default(),
            deadlines: Deadlines::default(),
        }
    }
}

/// One step of a testbed session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEvent {
    /// Client `i` powers on, scans, attaches, and reports to the CC.
    Join(usize),
    /// Client `i` leaves the network (sends a departure notice).
    Leave(usize),
}

/// Result of running one topology through the rig.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyOutcome {
    /// Policy name.
    pub policy: String,
    /// Final association (physical state at session end; departed and
    /// non-surviving clients are unassigned).
    pub association: Association,
    /// Aggregate throughput on the *true* capacities (Mbit/s).
    pub aggregate: f64,
    /// Per-user throughput on the true capacities (Mbit/s; 0 for departed
    /// clients).
    pub per_user: Vec<f64>,
    /// Jain's fairness index over the surviving clients.
    pub jain: Option<f64>,
    /// Distinct directives the CC issued (retransmissions not counted).
    pub directives: usize,
    /// Surviving clients whose final extender differs from their initial
    /// strongest-RSSI attachment.
    pub switches: usize,
}

/// Everything [`run_faulty_session`] observed: the physical outcome plus
/// the fault bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// The evaluated physical outcome over the surviving clients.
    pub outcome: TopologyOutcome,
    /// Clients present, responsive, and fault-free at session end,
    /// ascending. Only these contribute throughput.
    pub survivors: Vec<usize>,
    /// Clients the plan crashed, ascending.
    pub crashed: Vec<usize>,
    /// Clients the plan wedged, ascending.
    pub wedged: Vec<usize>,
    /// Clients the CC declared dead after exhausting an ack retry
    /// budget, ascending.
    pub declared_dead: Vec<usize>,
    /// Clients whose join/leave never completed within the harness retry
    /// budget (expected agent faults only), ascending.
    pub unresponsive: Vec<usize>,
    /// Times the CC kept the previous association because a solve failed.
    pub degraded_solves: usize,
    /// Total retransmissions (harness events + CC directives). Timing
    /// dependent; excluded from [`canonical`](Self::canonical).
    pub retries: usize,
}

impl SessionReport {
    /// A canonical, timing-independent rendering of the session outcome.
    ///
    /// Two runs with the same scenario, seed, and fault plan produce
    /// byte-identical canonical reports regardless of thread count or
    /// scheduling. `retries` is the one timing-dependent field (a slow
    /// scheduler can trip a retransmission deadline without changing any
    /// decision), so it is deliberately excluded.
    pub fn canonical(&self) -> String {
        let targets: Vec<Option<usize>> = self.outcome.association.iter().collect();
        format!(
            "policy={} association={targets:?} aggregate={:?} per_user={:?} jain={:?} \
             directives={} switches={} survivors={:?} crashed={:?} wedged={:?} \
             declared_dead={:?} unresponsive={:?} degraded_solves={}",
            self.outcome.policy,
            self.outcome.aggregate,
            self.outcome.per_user,
            self.outcome.jain,
            self.outcome.directives,
            self.outcome.switches,
            self.survivors,
            self.crashed,
            self.wedged,
            self.declared_dead,
            self.unresponsive,
            self.degraded_solves,
        )
    }
}

/// Runs the standard experiment: every user joins once, in index order.
///
/// See [`run_session`] for the general event-driven form; this wrapper
/// additionally guarantees a complete final association.
///
/// # Errors
///
/// As [`run_session`], plus [`TestbedError::AssignmentFailed`] if the
/// session somehow ends incomplete.
pub fn run_rig(
    scenario: &Scenario,
    config: &RigConfig,
    seed: u64,
) -> Result<TopologyOutcome, TestbedError> {
    let events: Vec<SessionEvent> = (0..scenario.user_positions.len())
        .map(SessionEvent::Join)
        .collect();
    let outcome = run_session(scenario, config, &events, seed)?;
    outcome
        .association
        .require_complete()
        .map_err(TestbedError::from)?;
    Ok(outcome)
}

/// Runs an arbitrary join/leave session through the threaded rig on a
/// fault-free network and evaluates the resulting physical association
/// on the true capacities.
///
/// `seed` drives the capacity-estimation noise only; the scenario itself
/// is supplied fully sampled.
///
/// # Errors
///
/// * [`TestbedError::InvalidConfig`] for an empty scenario, a Join of an
///   already-present client, or a Leave of an absent one.
/// * [`TestbedError::ChannelClosed`] if a thread dies mid-protocol.
/// * [`TestbedError::AssignmentFailed`] if the CC's policy cannot produce
///   an association.
/// * [`TestbedError::Timeout`] if an endpoint stops responding (a bug on
///   a fault-free network, but bounded rather than a hang).
pub fn run_session(
    scenario: &Scenario,
    config: &RigConfig,
    events: &[SessionEvent],
    seed: u64,
) -> Result<TopologyOutcome, TestbedError> {
    run_faulty_session(scenario, config, events, seed, &FaultPlan::none()).map(|r| r.outcome)
}

/// Runs a join/leave session under a seeded [`FaultPlan`] and reports the
/// surviving physical outcome plus the fault bookkeeping.
///
/// With [`FaultPlan::none`] the rig is *strict*: it behaves exactly like
/// the lossless protocol and an unresponsive endpoint or failed solve is
/// a hard error. With any fault configured the rig is *resilient*: an
/// event that exhausts its retry budget against a planned agent fault
/// marks the client unresponsive, a failed solve keeps the previous
/// association, and the session always terminates within its deadline
/// budget.
///
/// # Errors
///
/// As [`run_session`]. [`TestbedError::Timeout`] is returned when an
/// event exhausts its retries and the plan does not explain the silence
/// with a crashed or wedged agent.
pub fn run_faulty_session(
    scenario: &Scenario,
    config: &RigConfig,
    events: &[SessionEvent],
    seed: u64,
    plan: &FaultPlan,
) -> Result<SessionReport, TestbedError> {
    let estimated = prepare_session(scenario, &config.estimator, &config.deadlines, seed)?;
    let n_users = scenario.user_positions.len();
    plan.validate()?;
    if plan
        .crashed
        .iter()
        .chain(plan.wedged.iter())
        .any(|&c| c >= n_users)
    {
        return Err(TestbedError::InvalidConfig {
            context: "fault plan names an out-of-range client",
        });
    }
    let deadlines = config.deadlines;
    let strict = plan.is_none();
    let plan = Arc::new(plan.clone());

    // Physical association state shared by all agents (the "air").
    let physical: Arc<Mutex<Vec<Option<usize>>>> = Arc::new(Mutex::new(vec![None; n_users]));

    let (to_cc_tx, to_cc_rx) = channel::<ToController>();
    let (done_tx, done_rx) = channel::<DoneEvent>();

    let mut agent_handles = Vec::with_capacity(n_users);
    let mut agent_txs: Vec<Sender<AgentInbox>> = Vec::with_capacity(n_users);

    for i in 0..n_users {
        // One inbox per agent: harness commands and CC directives are
        // serialized by the session loop, so a single merged queue
        // replaces a two-channel select without reordering anything.
        let (agent_tx, agent_rx) = channel::<AgentInbox>();
        agent_txs.push(agent_tx);
        let agent = Agent::from_scenario(scenario, i);
        let physical = Arc::clone(&physical);
        let to_cc = to_cc_tx.clone();
        let plan = Arc::clone(&plan);
        agent_handles.push(thread::spawn(move || {
            client_agent(agent, physical, to_cc, agent_rx, plan)
        }));
    }

    // The harness's event cursor, published to the CC thread after
    // every completed or abandoned event.
    let cursor = Arc::new(AtomicU64::new(0));
    // The Central Controller thread: the shared decision core plus this
    // rig's mpsc transport.
    let ctx = ControllerCtx {
        deadlines,
        plan: Arc::clone(&plan),
        strict,
        cursor: Arc::clone(&cursor),
    };
    let core = ControllerCore::new(
        n_users,
        ControllerConfig {
            policy: config.policy,
            estimated_capacities: estimated,
            strict,
        },
    );
    let cc_client_txs = agent_txs.clone();
    let cc_handle = thread::spawn(move || controller(ctx, core, to_cc_rx, cc_client_txs, done_tx));

    // Drive the session: joins and leaves are serialized, as laptops were
    // brought online/offline one at a time, each through the shared
    // [`Harness`]; this loop only carries its commands and waits.
    let mut harness = Harness::new(
        events.to_vec(),
        deadlines.event_attempts,
        HarnessState::new(n_users),
    );
    'events: while let Some(event) = harness.next_event()? {
        let i = event.client;
        while let Some(cmd) = harness.next_command() {
            if agent_txs[i].send(AgentInbox::Harness(cmd)).is_err() {
                if plan.expects_agent_fault(i) {
                    break;
                }
                return Err(TestbedError::ChannelClosed { endpoint: "agent" });
            }
            let deadline = Instant::now() + deadlines.event;
            loop {
                let wait = deadline.saturating_duration_since(Instant::now());
                match done_rx.recv_timeout(wait) {
                    Ok(DoneEvent { epoch, result }) if epoch == event.epoch => {
                        result?;
                        harness.complete(lock_physical(&physical)[i]);
                        cursor.store(harness.state().epochs_done as u64, Ordering::SeqCst);
                        continue 'events;
                    }
                    // Stale completion of an earlier retransmitted event.
                    Ok(_) => continue,
                    Err(RecvTimeoutError::Timeout) => break,
                    Err(RecvTimeoutError::Disconnected) => {
                        return Err(TestbedError::ChannelClosed {
                            endpoint: "controller",
                        })
                    }
                }
            }
        }
        if !plan.expects_agent_fault(i) {
            return Err(TestbedError::Timeout {
                waiting_for: format!("completion of event {} (client {i})", event.epoch),
            });
        }
        // Planned silence: a crashed agent's channel is gone (or its
        // only report was dropped). Its join can never complete; a leave
        // already happened physically or the radio is simply abandoned
        // to the survivor mask.
        harness.abandon();
        cursor.store(harness.state().epochs_done as u64, Ordering::SeqCst);
    }

    // Shutdown: stop agents, close the CC inbox, join threads.
    for tx in &agent_txs {
        let _ = tx.send(AgentInbox::Harness(ToAgent::Shutdown));
    }
    drop(to_cc_tx);
    let (core, cc_retries) = cc_handle.join().map_err(|_| TestbedError::ChannelClosed {
        endpoint: "controller",
    })?;
    for h in agent_handles {
        h.join()
            .map_err(|_| TestbedError::ChannelClosed { endpoint: "agent" })?;
    }

    // The physical state is ground truth; on a fault-free network the
    // CC's view must agree with it exactly.
    let physical_assoc: Vec<Option<usize>> = lock_physical(&physical).clone();
    if strict {
        debug_assert_eq!(physical_assoc, core.association());
    }

    assemble_report(
        scenario,
        &physical_assoc,
        SessionLedger {
            crashed: plan.crashed.clone(),
            wedged: plan.wedged.clone(),
            ..harness.into_ledger(config.policy, &core, cc_retries)
        },
    )
}

/// Everything a session driver observed, handed to [`assemble_report`]
/// for evaluation. Both transports fill one from their [`Harness`]
/// ([`Harness::into_ledger`]): the in-process rig from its channel loop,
/// the `wolt-daemon` from its TCP session loop.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionLedger {
    /// Display name of the policy that ran.
    pub policy_name: String,
    /// The harness's ledger: presence, unresponsiveness, initial
    /// attachments, harness retransmissions.
    pub harness: HarnessState,
    /// Clients the fault plan crashed (empty for a fault-free transport).
    pub crashed: Vec<usize>,
    /// Clients the fault plan wedged (empty for a fault-free transport).
    pub wedged: Vec<usize>,
    /// Clients declared dead by the controller, any order.
    pub declared_dead: Vec<usize>,
    /// Distinct directives the controller issued.
    pub directives: usize,
    /// Solves that degraded to the previous association.
    pub degraded_solves: usize,
    /// Directive retransmissions (timing-dependent).
    pub directive_retries: usize,
}

/// Evaluates a finished session on the scenario's TRUE capacities and
/// assembles the [`SessionReport`]: survivor masking, aggregate and
/// per-user throughput, Jain's index, and switch counting. Shared by the
/// in-process rig and the networked daemon so both produce canonical
/// reports from the identical code path.
///
/// # Errors
///
/// Propagates scenario/evaluation failures as [`TestbedError::Layer`].
pub fn assemble_report(
    scenario: &Scenario,
    physical_assoc: &[Option<usize>],
    ledger: SessionLedger,
) -> Result<SessionReport, TestbedError> {
    let n_users = scenario.user_positions.len();
    // Only survivors carry traffic: present, responsive, and not faulted
    // by the plan. Everything else is masked out of the evaluation (a
    // crashed laptop's abandoned radio association moves no data).
    let survivor = |i: usize| {
        ledger.harness.present[i]
            && !ledger.harness.unresponsive[i]
            && !ledger.crashed.contains(&i)
            && !ledger.wedged.contains(&i)
    };
    let masked: Vec<Option<usize>> = (0..n_users)
        .map(|i| if survivor(i) { physical_assoc[i] } else { None })
        .collect();
    let association = Association::from_targets(masked);

    // Evaluate on the TRUE capacities.
    let network = scenario.network().map_err(TestbedError::from)?;
    let eval = evaluate(&network, &association).map_err(TestbedError::from)?;

    // A "switch" is a departure from the default RSSI attachment — the
    // re-association overhead the paper discusses.
    let switches = (0..n_users)
        .filter(|&i| {
            survivor(i)
                && ledger.harness.initial_attach[i].is_some()
                && association.target(i) != ledger.harness.initial_attach[i]
        })
        .count();

    let survivor_throughputs: Vec<Mbps> = (0..n_users)
        .filter(|&i| survivor(i))
        .map(|i| eval.per_user[i])
        .collect();

    let outcome = TopologyOutcome {
        policy: ledger.policy_name,
        aggregate: eval.aggregate.value(),
        per_user: eval.per_user.iter().map(|t| t.value()).collect(),
        jain: wolt_core::fairness::jain_index(&survivor_throughputs),
        association,
        directives: ledger.directives,
        switches,
    };

    let survivors: Vec<usize> = (0..n_users).filter(|&i| survivor(i)).collect();
    let mut declared_dead = ledger.declared_dead;
    declared_dead.sort_unstable();
    declared_dead.dedup();
    let mut crashed = ledger.crashed;
    crashed.sort_unstable();
    crashed.dedup();
    let mut wedged = ledger.wedged;
    wedged.sort_unstable();
    wedged.dedup();

    Ok(SessionReport {
        outcome,
        survivors,
        crashed,
        wedged,
        declared_dead,
        unresponsive: (0..n_users)
            .filter(|&i| ledger.harness.unresponsive[i])
            .collect(),
        degraded_solves: ledger.degraded_solves,
        retries: ledger.harness.retries + ledger.directive_retries,
    })
}

/// Locks the shared physical-association state, recovering from a
/// poisoned mutex. The vector is plain data with no invariant spanning
/// the critical section (each agent writes only its own slot), so the
/// last written state is always safe to reuse even if another thread
/// panicked while holding the lock.
fn lock_physical(m: &Mutex<Vec<Option<usize>>>) -> MutexGuard<'_, Vec<Option<usize>>> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Everything a client-agent thread can receive, merged into one queue:
/// harness lifecycle commands and CC directives.
enum AgentInbox {
    /// Join/Leave/Shutdown from the session driver.
    Harness(ToAgent),
    /// Directive (or shutdown) from the Central Controller.
    Cc(ToClient),
}

/// Completion notice for one harness event, tagged with its epoch so the
/// harness can discard stale notices from retransmitted events.
struct DoneEvent {
    epoch: u64,
    result: Result<(), TestbedError>,
}

/// Immutable transport-side controller context. Planning state lives in
/// [`ControllerCore`]; this is only what the channel loop itself needs.
struct ControllerCtx {
    deadlines: Deadlines,
    plan: Arc<FaultPlan>,
    strict: bool,
    /// The harness's event cursor: a report or departure for an earlier
    /// event the core never processed was abandoned and is dropped.
    cursor: Arc<AtomicU64>,
}

/// The Central Controller loop: dedup incoming events by epoch, drop the
/// late frames of abandoned events ([`ControllerCore::is_abandoned`]),
/// hand each genuine event to the [`ControllerCore`] for planning, run
/// one directive transaction per event, absorb late acks in between.
/// Returns the core and its directive retransmissions at shutdown.
fn controller(
    ctx: ControllerCtx,
    mut core: ControllerCore,
    rx: Receiver<ToController>,
    client_txs: Vec<Sender<AgentInbox>>,
    done: Sender<DoneEvent>,
) -> (ControllerCore, usize) {
    let mut retries = 0usize;
    loop {
        let msg = match rx.recv_timeout(ctx.deadlines.idle) {
            Ok(msg) => msg,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        let cursor = ctx.cursor.load(Ordering::SeqCst);
        if msg.epoch().is_some_and(|e| core.is_abandoned(e, cursor)) {
            continue;
        }
        let Some((epoch, planned)) = core.handle_message(msg) else {
            continue;
        };
        let result = planned.and_then(|directives| {
            run_transaction(
                &mut core,
                &ctx,
                &mut retries,
                directives,
                epoch,
                &rx,
                &client_txs,
            )
        });
        if done.send(DoneEvent { epoch, result }).is_err() {
            break;
        }
    }
    (core, retries)
}

/// One directive transaction over the rig's channels: a [`Transaction`]
/// whose transmissions go through the fault layer, fed from the CC
/// inbox until every directive is acked or its client declared dead.
fn run_transaction(
    core: &mut ControllerCore,
    ctx: &ControllerCtx,
    retries: &mut usize,
    directives: Vec<Directive>,
    epoch: u64,
    rx: &Receiver<ToController>,
    client_txs: &[Sender<AgentInbox>],
) -> Result<(), TestbedError> {
    let mut txn = Transaction::open(ctx.deadlines, epoch, directives);
    loop {
        for t in txn.on_tick(core, Instant::now())? {
            send_directive(ctx, client_txs, t)?;
        }
        let Some(next) = txn.next_deadline() else {
            *retries += txn.retransmissions();
            return Ok(());
        };
        match rx.recv_timeout(next.saturating_duration_since(Instant::now())) {
            Ok(ToController::Ack {
                client,
                seq,
                extender,
            }) => txn.on_ack(core, client, seq, extender),
            Ok(ToController::Report { epoch: e, .. })
            | Ok(ToController::Departed { epoch: e, .. }) => txn.on_event(e)?,
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                return Err(TestbedError::ChannelClosed { endpoint: "client" })
            }
        }
    }
}

/// Sends one directive transmission through the fault layer. A closed
/// inbox is a crashed agent — indistinguishable from a lost directive, so
/// in resilient mode the ack-deadline machinery handles both uniformly.
fn send_directive(
    ctx: &ControllerCtx,
    client_txs: &[Sender<AgentInbox>],
    t: Transmission,
) -> Result<(), TestbedError> {
    let Transmission {
        client,
        extender,
        seq,
        attempt,
    } = t;
    let decision = ctx
        .plan
        .decide(Link::ToClient, MessageKey::directive(client, seq, attempt));
    if decision.drop {
        return Ok(());
    }
    let copies = if decision.duplicate { 2 } else { 1 };
    for _ in 0..copies {
        let sent = client_txs[client]
            .send(AgentInbox::Cc(ToClient::Directive {
                extender,
                seq,
                attempt,
            }))
            .is_ok();
        if !sent && ctx.strict {
            return Err(TestbedError::ChannelClosed { endpoint: "client" });
        }
    }
    Ok(())
}

/// Applies the plan's decision for `key` to one client → CC transmission
/// (delay served in-line, drop swallowed, duplicate sent twice). Returns
/// `false` only when the CC inbox is gone (session shutdown).
fn faulty_send(
    plan: &FaultPlan,
    key: MessageKey,
    to_cc: &Sender<ToController>,
    msg: ToController,
) -> bool {
    let decision = plan.decide(Link::ToCc, key);
    if !decision.delay.is_zero() {
        thread::sleep(decision.delay);
    }
    if decision.drop {
        return true;
    }
    if decision.duplicate && to_cc.send(msg.clone()).is_err() {
        return false;
    }
    to_cc.send(msg).is_ok()
}

/// The client-agent loop: carry harness commands (join/leave/shutdown)
/// and CC directives to the shared [`Agent`], mirror its attachment into
/// the physical state, and replay the fault plan's decisions for every
/// transmission.
fn client_agent(
    mut agent: Agent,
    physical: Arc<Mutex<Vec<Option<usize>>>>,
    to_cc: Sender<ToController>,
    inbox: Receiver<AgentInbox>,
    plan: Arc<FaultPlan>,
) {
    let id = agent.client();
    let crashes = plan.crashed.contains(&id);
    let wedged = plan.wedged.contains(&id);
    loop {
        let msg = match inbox.recv() {
            Ok(msg) => msg,
            Err(_) => return,
        };
        // Planned crash: exit silently right after the first scan report,
        // leaving the radio attached and the CC uninformed. No Departed,
        // no acks, channel closed.
        let crash_after = crashes && matches!(msg, AgentInbox::Harness(ToAgent::Join { .. }));
        let (key, reply) = match msg {
            AgentInbox::Harness(ToAgent::Join { epoch, attempt }) => {
                (MessageKey::report(id, epoch, attempt), agent.on_join(epoch))
            }
            AgentInbox::Harness(ToAgent::Leave { epoch, attempt }) => (
                MessageKey::departed(id, epoch, attempt),
                agent.on_leave(epoch),
            ),
            AgentInbox::Harness(ToAgent::Shutdown) | AgentInbox::Cc(ToClient::Shutdown) => return,
            AgentInbox::Cc(ToClient::Directive {
                extender,
                seq,
                attempt,
            }) => {
                if wedged {
                    // Planned wedge: alive and reporting, but never
                    // applies or acknowledges a directive.
                    continue;
                }
                // The CC → client delay is served receiver-side so the CC
                // thread never blocks on an in-flight directive.
                let decision = plan.decide(Link::ToClient, MessageKey::directive(id, seq, attempt));
                if !decision.delay.is_zero() {
                    thread::sleep(decision.delay);
                }
                let Some(ack) = agent.on_directive(extender, seq) else {
                    continue;
                };
                (MessageKey::ack(id, seq, attempt), ack)
            }
        };
        lock_physical(&physical)[id] = agent.attached();
        if !faulty_send(&plan, key, &to_cc, reply) || crash_after {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::LinkFaults;
    use wolt_core::baselines::Greedy;
    use wolt_core::AssociationPolicy;
    use wolt_sim::scenario::ScenarioConfig;
    use wolt_support::rng::{ChaCha8Rng, SeedableRng};

    fn lab_scenario(seed: u64) -> Scenario {
        let cfg = ScenarioConfig::lab(7);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Scenario::generate(&cfg, &mut rng).unwrap()
    }

    #[test]
    fn rssi_rig_matches_offline_rssi_policy() {
        let scenario = lab_scenario(1);
        let outcome = run_rig(&scenario, &RigConfig::new(ControllerPolicy::Rssi), 0).unwrap();
        assert_eq!(outcome.directives, 0);
        assert_eq!(outcome.switches, 0);
        let net = scenario.network().unwrap();
        let reference = wolt_core::baselines::Rssi.associate(&net).unwrap();
        assert_eq!(outcome.association, reference);
    }

    #[test]
    fn wolt_rig_produces_complete_valid_association() {
        let scenario = lab_scenario(2);
        let outcome = run_rig(&scenario, &RigConfig::new(ControllerPolicy::Wolt), 0).unwrap();
        assert!(outcome.association.is_complete());
        let net = scenario.network().unwrap();
        assert!(net.validate_association(&outcome.association).is_ok());
        assert!(outcome.aggregate > 0.0);
    }

    #[test]
    fn greedy_rig_matches_offline_greedy_with_zero_estimation_noise() {
        let scenario = lab_scenario(3);
        let config = RigConfig {
            estimator: CapacityEstimator {
                rounds: 1,
                noise_sigma: 0.0,
            },
            ..RigConfig::new(ControllerPolicy::Greedy)
        };
        let outcome = run_rig(&scenario, &config, 0).unwrap();
        let net = scenario.network().unwrap();
        let reference = Greedy::new().associate(&net).unwrap();
        let ref_eval = evaluate(&net, &reference).unwrap();
        assert!(
            (outcome.aggregate - ref_eval.aggregate.value()).abs() < 1e-9,
            "rig {} vs offline {}",
            outcome.aggregate,
            ref_eval.aggregate
        );
    }

    #[test]
    fn wolt_rig_beats_rssi_rig_on_average() {
        let mut wolt_total = 0.0;
        let mut rssi_total = 0.0;
        for seed in 0..8 {
            let scenario = lab_scenario(seed);
            wolt_total += run_rig(&scenario, &RigConfig::new(ControllerPolicy::Wolt), 0)
                .unwrap()
                .aggregate;
            rssi_total += run_rig(&scenario, &RigConfig::new(ControllerPolicy::Rssi), 0)
                .unwrap()
                .aggregate;
        }
        assert!(
            wolt_total > rssi_total,
            "WOLT {wolt_total} vs RSSI {rssi_total}"
        );
    }

    #[test]
    fn directives_track_switches_for_wolt() {
        let scenario = lab_scenario(5);
        let outcome = run_rig(&scenario, &RigConfig::new(ControllerPolicy::Wolt), 0).unwrap();
        assert!(outcome.directives >= outcome.switches);
    }

    #[test]
    fn estimation_noise_changes_little_at_default_sigma() {
        let scenario = lab_scenario(6);
        let a = run_rig(&scenario, &RigConfig::new(ControllerPolicy::Wolt), 1).unwrap();
        let b = run_rig(&scenario, &RigConfig::new(ControllerPolicy::Wolt), 2).unwrap();
        let rel = (a.aggregate - b.aggregate).abs() / a.aggregate.max(b.aggregate);
        assert!(rel < 0.25, "estimation noise too influential: {rel}");
    }

    #[test]
    fn rejects_empty_scenario() {
        let scenario = Scenario {
            extender_positions: vec![],
            capacities: vec![],
            user_positions: vec![],
            radio: wolt_wifi::WifiRadio::office_default(),
        };
        assert!(matches!(
            run_rig(&scenario, &RigConfig::new(ControllerPolicy::Rssi), 0),
            Err(TestbedError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn policy_names_match_paper() {
        assert_eq!(ControllerPolicy::Wolt.name(), "WOLT");
        assert_eq!(ControllerPolicy::Greedy.name(), "Greedy");
        assert_eq!(ControllerPolicy::Rssi.name(), "RSSI");
    }

    #[test]
    fn deterministic_for_fixed_seeds() {
        let scenario = lab_scenario(7);
        let a = run_rig(&scenario, &RigConfig::new(ControllerPolicy::Wolt), 3).unwrap();
        let b = run_rig(&scenario, &RigConfig::new(ControllerPolicy::Wolt), 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn session_with_departures_leaves_them_unassigned() {
        let scenario = lab_scenario(8);
        let events = vec![
            SessionEvent::Join(0),
            SessionEvent::Join(1),
            SessionEvent::Join(2),
            SessionEvent::Leave(1),
        ];
        let outcome = run_session(
            &scenario,
            &RigConfig::new(ControllerPolicy::Wolt),
            &events,
            0,
        )
        .unwrap();
        assert_eq!(outcome.association.target(1), None);
        assert!(outcome.association.target(0).is_some());
        assert!(outcome.association.target(2).is_some());
        assert_eq!(outcome.per_user[1], 0.0);
        assert!(outcome.aggregate > 0.0);
    }

    #[test]
    fn departure_triggers_wolt_reoptimization() {
        // With three clients on two good extenders, removing one lets
        // WOLT re-balance; the CC must be allowed to send directives on a
        // departure (the baselines send none).
        let scenario = lab_scenario(9);
        let events = vec![
            SessionEvent::Join(0),
            SessionEvent::Join(1),
            SessionEvent::Join(2),
            SessionEvent::Join(3),
            SessionEvent::Leave(0),
            SessionEvent::Leave(2),
        ];
        let wolt = run_session(
            &scenario,
            &RigConfig::new(ControllerPolicy::Wolt),
            &events,
            0,
        )
        .unwrap();
        let rssi = run_session(
            &scenario,
            &RigConfig::new(ControllerPolicy::Rssi),
            &events,
            0,
        )
        .unwrap();
        assert_eq!(rssi.directives, 0);
        assert!(wolt.aggregate >= rssi.aggregate - 1e-9);
    }

    #[test]
    fn rejoin_after_leave_is_allowed() {
        let scenario = lab_scenario(10);
        let events = vec![
            SessionEvent::Join(0),
            SessionEvent::Join(1),
            SessionEvent::Leave(0),
            SessionEvent::Join(0),
        ];
        let outcome = run_session(
            &scenario,
            &RigConfig::new(ControllerPolicy::Greedy),
            &events,
            0,
        )
        .unwrap();
        assert!(outcome.association.target(0).is_some());
        assert!(outcome.association.target(1).is_some());
    }

    #[test]
    fn invalid_sessions_rejected() {
        let scenario = lab_scenario(11);
        let config = RigConfig::new(ControllerPolicy::Rssi);
        // Leave before join.
        assert!(matches!(
            run_session(&scenario, &config, &[SessionEvent::Leave(0)], 0),
            Err(TestbedError::InvalidConfig { .. })
        ));
        // Double join.
        assert!(matches!(
            run_session(
                &scenario,
                &config,
                &[SessionEvent::Join(0), SessionEvent::Join(0)],
                0
            ),
            Err(TestbedError::InvalidConfig { .. })
        ));
        // Out of range.
        assert!(matches!(
            run_session(&scenario, &config, &[SessionEvent::Join(99)], 0),
            Err(TestbedError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn jain_only_counts_present_clients() {
        let scenario = lab_scenario(12);
        let events = vec![
            SessionEvent::Join(0),
            SessionEvent::Join(1),
            SessionEvent::Leave(1),
        ];
        let outcome = run_session(
            &scenario,
            &RigConfig::new(ControllerPolicy::Rssi),
            &events,
            0,
        )
        .unwrap();
        // A single present client with positive throughput: Jain = 1.
        assert_eq!(outcome.jain, Some(1.0));
    }

    #[test]
    fn lock_physical_recovers_from_poison() {
        let shared = Arc::new(Mutex::new(vec![Some(1usize), None]));
        let poisoner = Arc::clone(&shared);
        let _ = thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(shared.lock().is_err(), "lock should be poisoned");
        // The state is plain data: recover the guard and keep going.
        lock_physical(&shared)[1] = Some(2);
        assert_eq!(*lock_physical(&shared), vec![Some(1), Some(2)]);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let d = Deadlines::default();
        assert_eq!(d.backoff(1), Duration::from_millis(25));
        assert_eq!(d.backoff(2), Duration::from_millis(50));
        assert_eq!(d.backoff(3), Duration::from_millis(100));
        assert_eq!(d.backoff(4), Duration::from_millis(200));
        assert_eq!(d.backoff(9), Duration::from_millis(200), "capped");
    }

    #[test]
    fn fault_free_plan_reproduces_run_session() {
        let scenario = lab_scenario(13);
        let config = RigConfig::new(ControllerPolicy::Wolt);
        let events = vec![
            SessionEvent::Join(0),
            SessionEvent::Join(1),
            SessionEvent::Join(2),
            SessionEvent::Leave(0),
        ];
        let plain = run_session(&scenario, &config, &events, 0).unwrap();
        let report =
            run_faulty_session(&scenario, &config, &events, 0, &FaultPlan::none()).unwrap();
        assert_eq!(report.outcome, plain);
        assert_eq!(report.survivors, vec![1, 2]);
        assert!(report.declared_dead.is_empty());
        assert!(report.unresponsive.is_empty());
        assert_eq!(report.degraded_solves, 0);
    }

    #[test]
    fn crashed_agent_session_completes_and_masks_casualty() {
        let scenario = lab_scenario(14);
        let config = RigConfig::new(ControllerPolicy::Wolt);
        let events: Vec<SessionEvent> = (0..7).map(SessionEvent::Join).collect();
        let plan = FaultPlan {
            crashed: vec![2],
            ..FaultPlan::none()
        };
        let report = run_faulty_session(&scenario, &config, &events, 0, &plan).unwrap();
        assert_eq!(report.crashed, vec![2]);
        assert!(!report.survivors.contains(&2));
        assert_eq!(report.outcome.association.target(2), None);
        for &i in &report.survivors {
            assert!(
                report.outcome.association.target(i).is_some(),
                "survivor {i} stranded"
            );
        }
        assert!(report.outcome.aggregate > 0.0);
    }

    #[test]
    fn total_loss_yields_bounded_timeout() {
        let scenario = lab_scenario(15);
        let config = RigConfig {
            deadlines: Deadlines {
                event: Duration::from_millis(50),
                event_attempts: 2,
                ..Deadlines::default()
            },
            ..RigConfig::new(ControllerPolicy::Wolt)
        };
        let plan = FaultPlan {
            to_cc: LinkFaults {
                drop: 1.0,
                duplicate: 0.0,
                max_delay: Duration::ZERO,
            },
            ..FaultPlan::none()
        };
        let start = Instant::now();
        let err =
            run_faulty_session(&scenario, &config, &[SessionEvent::Join(0)], 0, &plan).unwrap_err();
        assert!(
            matches!(err, TestbedError::Timeout { ref waiting_for } if waiting_for.contains("client 0")),
            "expected timeout, got {err:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "timeout not bounded: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn fault_plan_validation_enforced_at_session_start() {
        let scenario = lab_scenario(16);
        let config = RigConfig::new(ControllerPolicy::Rssi);
        let out_of_range = FaultPlan {
            crashed: vec![99],
            ..FaultPlan::none()
        };
        assert!(matches!(
            run_faulty_session(&scenario, &config, &[], 0, &out_of_range),
            Err(TestbedError::InvalidConfig { .. })
        ));
        let bad_prob = FaultPlan {
            to_cc: LinkFaults {
                drop: 2.0,
                duplicate: 0.0,
                max_delay: Duration::ZERO,
            },
            ..FaultPlan::none()
        };
        assert!(run_faulty_session(&scenario, &config, &[], 0, &bad_prob).is_err());
        let no_attempts = RigConfig {
            deadlines: Deadlines {
                event_attempts: 0,
                ..Deadlines::default()
            },
            ..config
        };
        assert!(matches!(
            run_faulty_session(&scenario, &no_attempts, &[], 0, &FaultPlan::none()),
            Err(TestbedError::InvalidConfig { .. })
        ));
    }
}
