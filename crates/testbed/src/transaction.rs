//! One directive transaction, free of I/O.
//!
//! After the [`ControllerCore`] plans an event, the Central Controller
//! must get every directive acknowledged (§V-D): it transmits each one,
//! retransmits with bounded exponential backoff until the ack arrives,
//! and declares a client dead once it misses its whole ack budget — at
//! which point the survivors are re-planned and the new directives join
//! the same transaction. [`Transaction`] is that loop as a state
//! machine. It owns the pending set, the per-attempt deadlines and the
//! budget, and it is the one place `cc.ack_timeouts` and
//! `cc.retransmissions` are counted; it never reads a channel or a
//! socket. A transport drives it:
//!
//! 1. [`Transaction::open`] with the planned directives;
//! 2. [`Transaction::on_tick`] with the current time, putting every
//!    returned [`Transmission`] on its wire;
//! 3. wait for a message until [`Transaction::next_deadline`], feeding
//!    acks to [`Transaction::on_ack`] and the epochs of reports and
//!    departures to [`Transaction::on_event`];
//! 4. repeat from 2 until `next_deadline` is `None`.
//!
//! The in-process rig and the `wolt-daemon` session engine are both such
//! transports, so their retransmission schedules and counters agree by
//! construction.

use std::time::Instant;

use wolt_support::obs;

use crate::controller::{ControllerCore, Directive};
use crate::rig::Deadlines;
use crate::TestbedError;

/// One directive transmission the transport must put on its wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transmission {
    /// Target client.
    pub client: usize,
    /// Extender the client should associate with.
    pub extender: usize,
    /// The directive's sequence number.
    pub seq: u64,
    /// 1-based transmission attempt of this sequence number.
    pub attempt: u32,
}

/// A directive awaiting its ack. `attempt` is 0 (and `deadline` `None`)
/// until the first transmission.
#[derive(Debug, Clone, Copy)]
struct PendingDirective {
    client: usize,
    extender: usize,
    seq: u64,
    attempt: u32,
    deadline: Option<Instant>,
}

/// The directive transaction of one event. See the module docs for the
/// driving contract.
#[derive(Debug, Clone)]
pub struct Transaction {
    epoch: u64,
    deadlines: Deadlines,
    pending: Vec<PendingDirective>,
    retransmissions: usize,
}

impl Transaction {
    /// Opens the transaction of event `epoch` over its planned
    /// directives. Nothing is transmitted until the first
    /// [`on_tick`](Self::on_tick).
    pub fn open(deadlines: Deadlines, epoch: u64, directives: Vec<Directive>) -> Self {
        let mut txn = Self {
            epoch,
            deadlines,
            pending: Vec::new(),
            retransmissions: 0,
        };
        txn.enqueue(directives);
        txn
    }

    /// Adds planned directives to the pending set, superseding any
    /// in-flight directive for the same client.
    fn enqueue(&mut self, directives: Vec<Directive>) {
        for dir in directives {
            self.pending.retain(|p| p.client != dir.client);
            self.pending.push(PendingDirective {
                client: dir.client,
                extender: dir.extender,
                seq: dir.seq,
                attempt: 0,
                deadline: None,
            });
        }
    }

    /// Advances the transaction to `now` and returns the transmissions
    /// due: first transmissions of new directives, and retransmissions
    /// (with backoff) of directives whose ack deadline passed. A client
    /// whose last allowed attempt expired is declared dead through
    /// [`ControllerCore::declare_dead`]; the survivor replan joins this
    /// transaction and its first transmissions are returned too.
    ///
    /// # Errors
    ///
    /// Propagates a failed survivor replan (strict mode only).
    pub fn on_tick(
        &mut self,
        core: &mut ControllerCore,
        now: Instant,
    ) -> Result<Vec<Transmission>, TestbedError> {
        let mut due = Vec::new();
        let mut d = 0;
        while d < self.pending.len() {
            let p = self.pending[d];
            if p.deadline.is_some_and(|t| t > now) {
                d += 1;
                continue;
            }
            if p.attempt > 0 {
                obs::counter_inc("cc.ack_timeouts");
                if p.attempt >= self.deadlines.ack_attempts {
                    self.pending.remove(d);
                    // The dead client's load vanishes: re-optimize the
                    // survivors (may supersede other in-flight
                    // directives).
                    let replan = core.declare_dead(p.client)?;
                    self.enqueue(replan);
                    d = 0;
                    continue;
                }
                self.retransmissions += 1;
                obs::counter_inc("cc.retransmissions");
            }
            let p = &mut self.pending[d];
            p.attempt += 1;
            p.deadline = Some(now + self.deadlines.backoff(p.attempt));
            due.push(Transmission {
                client: p.client,
                extender: p.extender,
                seq: p.seq,
                attempt: p.attempt,
            });
            d += 1;
        }
        Ok(due)
    }

    /// Feeds a directive ack through the core; an ack for the newest
    /// outstanding sequence clears its pending directive.
    pub fn on_ack(&mut self, core: &mut ControllerCore, client: usize, seq: u64, extender: usize) {
        if core.handle_ack(client, seq, extender) {
            self.pending
                .retain(|p| !(p.client == client && p.seq == seq));
        }
    }

    /// Checks a report or departure that arrived mid-transaction.
    /// Retransmissions and duplicates of this (or an older) event are
    /// expected under faults and ignored.
    ///
    /// # Errors
    ///
    /// [`TestbedError::AssignmentFailed`] for a genuinely new event:
    /// events are serialized, so one arriving now means serialization
    /// broke.
    pub fn on_event(&self, epoch: u64) -> Result<(), TestbedError> {
        if epoch > self.epoch {
            return Err(TestbedError::AssignmentFailed {
                context: "unexpected message during directive transaction".to_string(),
            });
        }
        Ok(())
    }

    /// When the transport must next call [`on_tick`](Self::on_tick):
    /// the earliest ack deadline, or `None` once every directive is
    /// acked (or its client declared dead) and the transaction is done.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.pending.iter().filter_map(|p| p.deadline).min()
    }

    /// Retransmissions made so far (first transmissions not counted).
    pub fn retransmissions(&self) -> usize {
        self.retransmissions
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use wolt_units::Mbps;

    use super::*;
    use crate::controller::ControllerConfig;
    use crate::rig::ControllerPolicy;

    fn fig3_core() -> (ControllerCore, Vec<Directive>) {
        let mut core = ControllerCore::new(
            2,
            ControllerConfig {
                policy: ControllerPolicy::Wolt,
                estimated_capacities: vec![Mbps::new(60.0), Mbps::new(20.0)],
                strict: true,
            },
        );
        let mb = |v: f64| Some(Mbps::new(v));
        core.handle_report(0, 0, &[mb(15.0), mb(10.0)], 0).unwrap();
        let directives = core.handle_report(1, 1, &[mb(40.0), mb(20.0)], 0).unwrap();
        assert!(!directives.is_empty(), "the Fig. 3 case moves a client");
        (core, directives)
    }

    #[test]
    fn acked_directives_finish_the_transaction() {
        let (mut core, directives) = fig3_core();
        let mut txn = Transaction::open(Deadlines::default(), 1, directives.clone());
        let t0 = Instant::now();
        let sent = txn.on_tick(&mut core, t0).unwrap();
        assert_eq!(sent.len(), directives.len());
        assert!(sent.iter().all(|t| t.attempt == 1));
        assert_eq!(
            txn.next_deadline(),
            Some(t0 + Deadlines::default().backoff(1))
        );
        // Nothing is due again before the deadline.
        assert!(txn.on_tick(&mut core, t0).unwrap().is_empty());
        for t in sent {
            txn.on_ack(&mut core, t.client, t.seq, t.extender);
        }
        assert_eq!(txn.next_deadline(), None);
        assert_eq!(txn.retransmissions(), 0);
    }

    #[test]
    fn expired_deadlines_back_off_then_declare_the_client_dead() {
        let (mut core, directives) = fig3_core();
        let deadlines = Deadlines {
            ack_attempts: 3,
            ..Deadlines::default()
        };
        let mut txn = Transaction::open(deadlines, 1, directives);
        let mut now = Instant::now();
        let first = txn.on_tick(&mut core, now).unwrap();
        let client = first[0].client;
        for attempt in 2..=3 {
            now += Duration::from_secs(1);
            let resent = txn.on_tick(&mut core, now).unwrap();
            assert!(resent
                .iter()
                .any(|t| t.client == client && t.attempt == attempt));
        }
        assert_eq!(txn.retransmissions(), 2 * first.len());
        // The third attempt expires too: the budget is spent.
        now += Duration::from_secs(1);
        let _ = txn.on_tick(&mut core, now).unwrap();
        assert!(core.declared_dead().contains(&client));
    }

    #[test]
    fn only_a_newer_epoch_breaks_the_transaction() {
        let txn = Transaction::open(Deadlines::default(), 4, Vec::new());
        assert!(txn.on_event(3).is_ok());
        assert!(txn.on_event(4).is_ok());
        assert!(matches!(
            txn.on_event(5),
            Err(TestbedError::AssignmentFailed { .. })
        ));
        assert_eq!(txn.next_deadline(), None, "an empty plan is already done");
    }
}
