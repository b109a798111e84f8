//! The session driver, free of I/O.
//!
//! A session is a list of joins and leaves, driven one at a time as
//! laptops were carried in and out of the lab: command the client's
//! agent, wait for the Central Controller to finish the event, and
//! retransmit the command when the completion does not arrive in time.
//! [`Harness`] is that loop as a state machine. It owns the event cursor
//! and the ledger, and it is the one place `harness.retransmissions` is
//! counted; it never reads a channel or a socket. A transport drives it:
//!
//! 1. [`Harness::next_event`] for the event to drive;
//! 2. [`Harness::next_command`] for each attempt's command, carried to
//!    the agent, then a wait of up to [`Deadlines::event`];
//! 3. [`Harness::complete`] with the attachment the transport observed,
//!    or [`Harness::abandon`] once the commands run out;
//! 4. repeat from 1 until `next_event` is `None`.
//!
//! The in-process rig and the `wolt-daemon` session engine are both such
//! transports, and both start with [`prepare_session`].

use wolt_plc::capacity::CapacityEstimator;
use wolt_sim::Scenario;
use wolt_support::obs;
use wolt_support::rng::{ChaCha8Rng, SeedableRng};
use wolt_units::Mbps;

use crate::controller::ControllerCore;
use crate::protocol::ToAgent;
use crate::rig::{ControllerPolicy, Deadlines, SessionEvent, SessionLedger};
use crate::TestbedError;

/// Checks a session can run and performs the offline PLC capacity
/// estimation (the paper's iperf3 procedure), its noise seeded by
/// `seed`; returns the estimated capacity per extender.
///
/// # Errors
///
/// [`TestbedError::InvalidConfig`] for a scenario without users or
/// extenders, or deadlines that allow zero attempts per message;
/// [`TestbedError::Layer`] when the estimation fails.
pub fn prepare_session(
    scenario: &Scenario,
    estimator: &CapacityEstimator,
    deadlines: &Deadlines,
    seed: u64,
) -> Result<Vec<Mbps>, TestbedError> {
    if scenario.user_positions.is_empty() || scenario.extender_positions.is_empty() {
        return Err(TestbedError::InvalidConfig {
            context: "scenario needs at least one user and one extender",
        });
    }
    if deadlines.event_attempts == 0 || deadlines.ack_attempts == 0 {
        return Err(TestbedError::InvalidConfig {
            context: "deadlines need at least one attempt per message",
        });
    }
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    scenario
        .capacities
        .iter()
        .map(|&c| estimator.estimate(c, &mut rng))
        .collect::<Result<_, _>>()
        .map_err(|e| TestbedError::Layer {
            context: format!("capacity estimation: {e}"),
        })
}

/// The harness's ledger: how far the session got and what each client's
/// events did. A daemon persists it with every snapshot and resumes
/// from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessState {
    /// Events finished (completed, abandoned or skipped); the next one
    /// to drive is at this index.
    pub epochs_done: usize,
    /// Whether each client is present (joined, not departed).
    pub present: Vec<bool>,
    /// Whether each client's join never completed within the retry
    /// budget; its later events are skipped.
    pub unresponsive: Vec<bool>,
    /// Each client's attachment after its first completed join.
    pub initial_attach: Vec<Option<usize>>,
    /// Harness retransmissions, plus any a restored session carried
    /// over (timing-dependent).
    pub retries: usize,
}

impl HarnessState {
    /// The state of a session of `n_users` clients that has not started.
    pub fn new(n_users: usize) -> Self {
        Self {
            epochs_done: 0,
            present: vec![false; n_users],
            unresponsive: vec![false; n_users],
            initial_attach: vec![None; n_users],
            retries: 0,
        }
    }
}

/// The event the transport must carry next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HarnessEvent {
    /// The event's index in the session: its protocol epoch.
    pub epoch: u64,
    /// The client the event is for.
    pub client: usize,
    /// A join (`true`) or a leave.
    pub join: bool,
}

/// The join/leave driver of one session. See the module docs for the
/// driving contract.
#[derive(Debug, Clone)]
pub struct Harness {
    events: Vec<SessionEvent>,
    event_attempts: u32,
    state: HarnessState,
    /// Commands issued for the event at the cursor.
    attempt: u32,
}

impl Harness {
    /// A harness over `events`, resuming from `state` (whose per-client
    /// vectors size the site), that issues each command at most
    /// `event_attempts` times.
    pub fn new(events: Vec<SessionEvent>, event_attempts: u32, state: HarnessState) -> Self {
        Self {
            events,
            event_attempts,
            state,
            attempt: 0,
        }
    }

    /// The ledger so far.
    pub fn state(&self) -> &HarnessState {
        &self.state
    }

    /// Events configured in total.
    pub fn n_events(&self) -> usize {
        self.events.len()
    }

    /// The event to drive next, skipping (and finishing) the events of
    /// clients an earlier event left unresponsive; `None` once every
    /// event is finished. Until the event is finished, calling this again
    /// returns it again.
    ///
    /// # Errors
    ///
    /// [`TestbedError::InvalidConfig`] for a join of an out-of-range or
    /// already-present client, or a leave of an absent one.
    pub fn next_event(&mut self) -> Result<Option<HarnessEvent>, TestbedError> {
        while let Some(event) = self.at_cursor() {
            let (i, n_users) = (event.client, self.state.present.len());
            if i < n_users && self.state.unresponsive[i] {
                // A client whose earlier event never completed is out of
                // the session: later events for it are skipped, not
                // errors.
                self.advance();
                continue;
            }
            if i >= n_users || event.join == self.state.present[i] {
                return Err(TestbedError::InvalidConfig {
                    context: if event.join {
                        "join of an out-of-range or already-present client"
                    } else {
                        "leave of an out-of-range or absent client"
                    },
                });
            }
            return Ok(Some(event));
        }
        Ok(None)
    }

    /// The command of the current event's next attempt; `None` once its
    /// `event_attempts` are spent. Every attempt after the first counts
    /// as a retransmission.
    pub fn next_command(&mut self) -> Option<ToAgent> {
        let event = self.current()?;
        if self.attempt >= self.event_attempts {
            return None;
        }
        self.attempt += 1;
        if self.attempt > 1 {
            self.state.retries += 1;
            obs::counter_inc("harness.retransmissions");
        }
        let (epoch, attempt) = (event.epoch, self.attempt);
        Some(if event.join {
            ToAgent::Join { epoch, attempt }
        } else {
            ToAgent::Leave { epoch, attempt }
        })
    }

    /// Records that the current event completed, with the attachment the
    /// transport observed for its client (kept as the initial attachment
    /// after the client's first join), and moves on.
    pub fn complete(&mut self, attached: Option<usize>) {
        let Some(event) = self.current() else { return };
        let i = event.client;
        self.state.present[i] = event.join;
        if event.join && self.state.initial_attach[i].is_none() {
            self.state.initial_attach[i] = attached;
        }
        self.advance();
    }

    /// Records that the current event never completed: a join leaves its
    /// client unresponsive, a leave happened physically anyway (or the
    /// radio is abandoned to the survivor mask). Moves on.
    pub fn abandon(&mut self) {
        let Some(event) = self.current() else { return };
        if event.join {
            self.state.unresponsive[event.client] = true;
        } else {
            self.state.present[event.client] = false;
        }
        self.advance();
    }

    /// The session ledger: this harness's plus `core`'s counters and the
    /// transport's `directive_retries`. The fault lists are empty; a
    /// faulty transport fills them in.
    pub fn into_ledger(
        self,
        policy: ControllerPolicy,
        core: &ControllerCore,
        directive_retries: usize,
    ) -> SessionLedger {
        SessionLedger {
            policy_name: policy.name().to_string(),
            harness: self.state,
            crashed: Vec::new(),
            wedged: Vec::new(),
            declared_dead: core.declared_dead().to_vec(),
            directives: core.directives(),
            degraded_solves: core.degraded_solves(),
            directive_retries,
        }
    }

    /// The event at the cursor, as listed.
    fn at_cursor(&self) -> Option<HarnessEvent> {
        let (client, join) = match *self.events.get(self.state.epochs_done)? {
            SessionEvent::Join(i) => (i, true),
            SessionEvent::Leave(i) => (i, false),
        };
        Some(HarnessEvent {
            epoch: self.state.epochs_done as u64,
            client,
            join,
        })
    }

    /// The event at the cursor, if it names a client of this site: the
    /// event being driven, once [`next_event`](Self::next_event)
    /// returned it.
    pub fn current(&self) -> Option<HarnessEvent> {
        self.at_cursor()
            .filter(|event| event.client < self.state.present.len())
    }

    fn advance(&mut self) {
        self.state.epochs_done += 1;
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harness(events: Vec<SessionEvent>, state: HarnessState) -> Harness {
        Harness::new(events, 2, state)
    }

    #[test]
    fn unresponsive_clients_later_events_are_skipped() {
        use SessionEvent::{Join, Leave};
        let mut h = harness(
            vec![Join(0), Join(1), Leave(0), Join(2)],
            HarnessState::new(3),
        );
        let first = h.next_event().unwrap().unwrap();
        assert_eq!(first.client, 0);
        assert!(matches!(
            h.next_command(),
            Some(ToAgent::Join { attempt: 1, .. })
        ));
        assert!(matches!(
            h.next_command(),
            Some(ToAgent::Join { attempt: 2, .. })
        ));
        assert_eq!(h.next_command(), None, "the attempt budget is spent");
        h.abandon();
        assert_eq!(h.next_event().unwrap().unwrap().client, 1);
        h.complete(Some(2));
        // Client 0's leave is skipped, not rejected as a leave of an
        // absent client.
        let next = h.next_event().unwrap().unwrap();
        assert_eq!((next.epoch, next.client), (3, 2));
        assert_eq!(h.state().epochs_done, 3);
        assert_eq!(h.state().unresponsive, vec![true, false, false]);
        assert_eq!(h.state().retries, 1);
    }

    #[test]
    fn a_restored_harness_resumes_at_epochs_done() {
        use SessionEvent::{Join, Leave};
        let events = vec![Join(0), Join(1), Leave(0), Join(0)];
        let state = HarnessState {
            epochs_done: 2,
            present: vec![true, true],
            unresponsive: vec![false, false],
            initial_attach: vec![Some(1), Some(0)],
            retries: 5,
        };
        let mut h = harness(events, state);
        let event = h.next_event().unwrap().unwrap();
        assert_eq!((event.epoch, event.client, event.join), (2, 0, false));
        assert_eq!(
            h.next_command(),
            Some(ToAgent::Leave {
                epoch: 2,
                attempt: 1
            })
        );
        h.complete(None);
        assert!(h.next_event().unwrap().unwrap().join);
        h.complete(Some(2));
        assert_eq!(h.next_event().unwrap(), None);
        // The rejoin keeps the first attachment; retries carry over.
        assert_eq!(h.state().initial_attach, vec![Some(1), Some(0)]);
        assert_eq!(h.state().present, vec![true, true]);
        assert_eq!(h.state().retries, 5);
    }
}
