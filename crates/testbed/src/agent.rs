//! The laptop utility's rules, free of I/O.
//!
//! The paper's laptops run "a user-space utility" (§V-A): on arrival it
//! scans, attaches to the strongest extender and reports its rates to
//! the Central Controller, then re-associates when a directive says so.
//! [`Agent`] is that utility as a state machine: each harness command or
//! directive goes in, the message the laptop sends back comes out. The
//! rig's agent threads, the `wolt-daemon` TCP agent and the integration
//! tests' scripted agent all carry it, so they cannot disagree on what a
//! laptop does.

use wolt_sim::Scenario;
use wolt_units::Mbps;

use crate::protocol::ToController;

/// One laptop's utility state.
#[derive(Debug, Clone, PartialEq)]
pub struct Agent {
    client: usize,
    rates: Vec<Option<Mbps>>,
    /// The extender the radio is associated with; `Some` iff joined.
    attached: Option<usize>,
    /// Newest directive sequence applied since the last join.
    last_applied: Option<u64>,
    directives_applied: usize,
}

impl Agent {
    /// A not-yet-joined agent for `client`, whose scan sees `rates`
    /// (estimated achievable rate per extender, `None` = out of range).
    fn new(client: usize, rates: Vec<Option<Mbps>>) -> Self {
        Self {
            client,
            rates,
            attached: None,
            last_applied: None,
            directives_applied: 0,
        }
    }

    /// A not-yet-joined agent for `client` of `scenario` (which the
    /// caller checked is in range), scanning the scenario's rates.
    pub fn from_scenario(scenario: &Scenario, client: usize) -> Self {
        let rates = (0..scenario.extender_positions.len())
            .map(|j| scenario.rate(client, j))
            .collect();
        Self::new(client, rates)
    }

    /// Adopts the attachment a (re)started controller hands back in the
    /// handshake: the radio association outlived the controller, so a
    /// restored attachment means the laptop is still joined. The
    /// controller's directive sequence may have rolled back with it, so
    /// the newest-sequence memory starts over.
    pub fn adopt(&mut self, attached: Option<usize>) {
        self.attached = attached;
        self.last_applied = None;
    }

    /// The client this agent speaks for.
    pub fn client(&self) -> usize {
        self.client
    }

    /// The extender the radio is associated with (`None` while not
    /// joined).
    pub fn attached(&self) -> Option<usize> {
        self.attached
    }

    /// Directives applied so far (newest-sequence transmissions only).
    pub fn directives_applied(&self) -> usize {
        self.directives_applied
    }

    /// Handles the join command of harness `epoch` and returns the scan
    /// report to send. Only a laptop that is not joined scans: strongest
    /// signal = highest achievable rate (a monotone table), ties toward
    /// the lowest extender index as in the offline RSSI baseline. A
    /// retransmitted join re-reports without rescanning, so an applied
    /// directive is never clobbered.
    pub fn on_join(&mut self, epoch: u64) -> ToController {
        if self.attached.is_none() {
            let mut best = (0, f64::NEG_INFINITY);
            for (j, rate) in self.rates.iter().enumerate() {
                if let Some(r) = rate.filter(|r| r.value() > best.1) {
                    best = (j, r.value());
                }
            }
            self.attached = Some(best.0);
            self.last_applied = None;
        }
        ToController::Report {
            client: self.client,
            epoch,
            rates: self.rates.clone(),
            attached: self.attached.unwrap_or_default(),
        }
    }

    /// Handles the leave command of harness `epoch`: detaches, and
    /// returns the departure notice — always, as the CC dedups by epoch.
    pub fn on_leave(&mut self, epoch: u64) -> ToController {
        self.attached = None;
        ToController::Departed {
            client: self.client,
            epoch,
        }
    }

    /// Handles one directive transmission: applies it only if its
    /// sequence is the newest seen, and returns the ack of the current
    /// attachment — for every transmission, since the CC's ack handling
    /// is idempotent. While not joined (a directive can race a
    /// departure) nothing is applied or acked.
    pub fn on_directive(&mut self, extender: usize, seq: u64) -> Option<ToController> {
        self.attached?;
        if self.last_applied.is_none_or(|s| seq > s) {
            self.attached = Some(extender);
            self.last_applied = Some(seq);
            self.directives_applied += 1;
        }
        Some(ToController::Ack {
            client: self.client,
            seq,
            extender: self.attached?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agent() -> Agent {
        let mb = |v: f64| Some(Mbps::new(v));
        Agent::new(4, vec![mb(10.0), mb(40.0), None, mb(40.0)])
    }

    fn ack(seq: u64, extender: usize) -> Option<ToController> {
        Some(ToController::Ack {
            client: 4,
            seq,
            extender,
        })
    }

    #[test]
    fn a_retransmitted_join_keeps_an_applied_directive() {
        let mut a = agent();
        assert!(matches!(
            a.on_join(0),
            ToController::Report { attached: 1, .. }
        ));
        assert_eq!(a.on_directive(2, 1), ack(1, 2));
        // The harness never saw the event complete and re-sends the
        // join: the report carries the directed extender, not a rescan.
        assert!(matches!(
            a.on_join(0),
            ToController::Report { attached: 2, .. }
        ));
        assert_eq!(a.attached(), Some(2));
        assert_eq!(a.directives_applied(), 1);
    }

    #[test]
    fn a_stale_sequence_is_acked_with_the_current_attachment() {
        let mut a = agent();
        a.on_join(0);
        assert_eq!(a.on_directive(2, 5), ack(5, 2));
        // An older sequence arriving late is not applied, but still
        // acked — with where the radio actually is.
        assert_eq!(a.on_directive(0, 3), ack(3, 2));
        assert_eq!(a.attached(), Some(2));
        assert_eq!(a.directives_applied(), 1);
    }

    #[test]
    fn no_ack_goes_out_while_not_joined() {
        let mut a = agent();
        assert_eq!(a.on_directive(2, 1), None);
        a.on_join(0);
        a.on_leave(1);
        assert_eq!(a.on_directive(2, 2), None);
        assert_eq!(a.attached(), None);
        assert_eq!(a.directives_applied(), 0);
    }
}
