//! The host's connection router and site registry.
//!
//! Every accepted connection's hello names a site (a site-less hello
//! names the anonymous site `""` of a single-site daemon); the router
//! maps it to that site's session inbox (or to the typed
//! [`Envelope::SiteGone`] reject). The router is also the host's
//! lifecycle ledger: it knows each site's state for `fleet status`,
//! carries out drains, and tells the main thread when every site has
//! finished.
//!
//! The router never touches an engine — shard threads own those
//! exclusively. It only holds each site's inbox *sender* (dropped at
//! detach, so the engine's teardown can prove quiescence) and the
//! immutable greeting the handshake needs.

use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex};

use crate::engine::{HelloDecision, Incoming};
use crate::inbox::InboxSender;
use crate::wire::{Envelope, SiteStatus};

/// A site's lifecycle state as the router tracks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteState {
    /// Registered; agents still connecting.
    Waiting,
    /// Driving session events.
    Running,
    /// Drain requested: no new agents, finishing in-flight work.
    Draining,
    /// Finished cleanly (report available).
    Done,
    /// Finished with an error.
    Failed,
}

impl SiteState {
    /// The wire rendering used in [`SiteStatus::state`].
    pub fn as_str(self) -> &'static str {
        match self {
            SiteState::Waiting => "waiting",
            SiteState::Running => "running",
            SiteState::Draining => "draining",
            SiteState::Done => "done",
            SiteState::Failed => "failed",
        }
    }
}

struct SiteEntry {
    /// The session inbox; `None` once the site is detached (late agents
    /// are dismissed instead of registered).
    sender: Option<InboxSender<Incoming>>,
    /// The handshake greeting (each client's saved attachment).
    greeting: Arc<Vec<Option<usize>>>,
    /// Drained or removed by an operator: new hellos are refused with
    /// `site_gone`.
    drained: bool,
    /// Forget the entry entirely once the site finishes (`site remove`
    /// as opposed to `site drain`).
    remove_on_finish: bool,
    state: SiteState,
    users: u64,
    events: u64,
    epochs_done: u64,
}

struct RouterState {
    sites: BTreeMap<String, SiteEntry>,
    /// Sites registered but not yet finished.
    active: usize,
    /// Sites registered but not yet done driving (see
    /// [`FleetRouter::finish_driving`]).
    driving: usize,
    /// The fleet is past its lifetime for new sites (`site add` refused).
    closed: bool,
}

/// The fleet's site registry: routes hellos, applies lifecycle ops,
/// reports status. Shared between the accept path (reader tasks), the
/// shard threads, and the fleet's main thread.
pub struct FleetRouter {
    state: Mutex<RouterState>,
    all_done: Condvar,
}

impl Default for FleetRouter {
    fn default() -> Self {
        Self::new()
    }
}

impl FleetRouter {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            state: Mutex::new(RouterState {
                sites: BTreeMap::new(),
                active: 0,
                driving: 0,
                closed: false,
            }),
            all_done: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RouterState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers a site and starts routing its agents.
    ///
    /// # Errors
    ///
    /// A human-readable refusal when the id is already registered or the
    /// fleet is shutting down (the `fleet_ack` detail).
    pub fn register(
        &self,
        id: &str,
        greeting: Arc<Vec<Option<usize>>>,
        sender: InboxSender<Incoming>,
        events: u64,
        epochs_done: u64,
    ) -> Result<(), String> {
        let mut state = self.lock();
        if state.closed {
            return Err("the fleet is shutting down".into());
        }
        if state.sites.contains_key(id) {
            return Err(format!("site {id:?} is already registered"));
        }
        let users = greeting.len() as u64;
        state.sites.insert(
            id.to_string(),
            SiteEntry {
                sender: Some(sender),
                greeting,
                drained: false,
                remove_on_finish: false,
                state: SiteState::Waiting,
                users,
                events,
                epochs_done,
            },
        );
        state.active += 1;
        state.driving += 1;
        Ok(())
    }

    /// Routes one agent hello: the declared site's inbox when the site
    /// is running, an immediate dismissal when its session is already
    /// over, and the typed [`Envelope::SiteGone`] reject when it is
    /// unknown, drained, or removed. A hello naming no site is routed
    /// to the anonymous site `""`, which only a single-site daemon
    /// hosts.
    pub fn route_hello(&self, client: usize, site: Option<&str>) -> HelloDecision {
        let name = site.unwrap_or("");
        let state = self.lock();
        let entry = match state.sites.get(name) {
            Some(entry) if !entry.drained => entry,
            _ => {
                return HelloDecision::Reject(Envelope::SiteGone {
                    site: name.to_string(),
                })
            }
        };
        let Some(&attached) = entry.greeting.get(client) else {
            return HelloDecision::Close;
        };
        match &entry.sender {
            Some(sender) => HelloDecision::Accept {
                sender: sender.clone(),
                attached,
            },
            None => HelloDecision::Dismiss { attached },
        }
    }

    /// Drains a site: stop accepting its agents, ask its session to
    /// stop (it finishes the in-flight event and persists first), keep
    /// its status entry. Draining an already-draining or finished site
    /// is a no-op success.
    ///
    /// # Errors
    ///
    /// A refusal naming the unknown site.
    pub fn drain(&self, id: &str) -> Result<(), String> {
        self.drain_inner(id, false)
    }

    /// [`FleetRouter::drain`], and additionally forget the site's
    /// status entry once it finishes.
    ///
    /// # Errors
    ///
    /// A refusal naming the unknown site.
    pub fn remove(&self, id: &str) -> Result<(), String> {
        self.drain_inner(id, true)
    }

    fn drain_inner(&self, id: &str, remove: bool) -> Result<(), String> {
        let mut state = self.lock();
        let Some(entry) = state.sites.get_mut(id) else {
            return Err(format!("unknown site {id:?}"));
        };
        entry.drained = true;
        entry.remove_on_finish |= remove;
        if matches!(entry.state, SiteState::Done | SiteState::Failed) {
            if remove {
                state.sites.remove(id);
            }
            return Ok(());
        }
        entry.state = SiteState::Draining;
        if let Some(sender) = &entry.sender {
            let _ = sender.send(Incoming::Stop {
                reason: if remove {
                    format!("site {id} removed")
                } else {
                    format!("site {id} drained")
                },
            });
        }
        Ok(())
    }

    /// Asks every live site's session to stop (the operator
    /// [`Envelope::Shutdown`] applied fleet-wide). Sites stay routable
    /// until their shard detaches them.
    pub fn stop_all(&self, reason: &str) {
        let state = self.lock();
        for entry in state.sites.values() {
            if let Some(sender) = &entry.sender {
                let _ = sender.send(Incoming::Stop {
                    reason: reason.to_string(),
                });
            }
        }
    }

    /// Shard-thread progress note after each engine step. `running`
    /// upgrades Waiting→Running; a drain in progress is never
    /// downgraded.
    pub fn note_progress(&self, id: &str, epochs_done: u64, running: bool) {
        let mut state = self.lock();
        if let Some(entry) = state.sites.get_mut(id) {
            entry.epochs_done = epochs_done;
            if running && entry.state == SiteState::Waiting {
                entry.state = SiteState::Running;
            }
        }
    }

    /// Notes that one site stopped driving events; returns whether it
    /// was the last registered site still driving (the one that lingers
    /// before teardown).
    pub fn finish_driving(&self) -> bool {
        let mut state = self.lock();
        state.driving = state.driving.saturating_sub(1);
        state.driving == 0
    }

    /// Stops registering a site's agents (late ones are dismissed) and
    /// drops its inbox sender, so the engine's stray-reaping can observe
    /// disconnect once the site's last reader exits. Called by the
    /// owning shard right after it dismissed the site's agents.
    pub fn detach(&self, id: &str) {
        let mut state = self.lock();
        if let Some(entry) = state.sites.get_mut(id) {
            entry.sender = None;
        }
    }

    /// Records a site's terminal state, forgetting the entry when the
    /// site was removed. Wakes [`FleetRouter::wait_all_done`] when this
    /// was the last active site.
    pub fn finish_site(&self, id: &str, epochs_done: u64, ok: bool) {
        let mut state = self.lock();
        if let Some(entry) = state.sites.get_mut(id) {
            entry.sender = None;
            entry.epochs_done = epochs_done;
            entry.state = if ok {
                SiteState::Done
            } else {
                SiteState::Failed
            };
            if entry.remove_on_finish {
                state.sites.remove(id);
            }
        }
        state.active = state.active.saturating_sub(1);
        if state.active == 0 {
            self.all_done.notify_all();
        }
    }

    /// Blocks until every registered site has finished, then closes the
    /// registry (further [`FleetRouter::register`] calls are refused) —
    /// atomically, so an add cannot slip in between "last site done"
    /// and shutdown.
    pub fn wait_all_done(&self) {
        let mut state = self.lock();
        while state.active > 0 {
            state = self.all_done.wait(state).unwrap_or_else(|e| e.into_inner());
        }
        state.closed = true;
    }

    /// Per-site status, in site-id order (the `fleet status` reply).
    pub fn status(&self) -> Vec<SiteStatus> {
        let state = self.lock();
        state
            .sites
            .iter()
            .map(|(id, entry)| SiteStatus {
                site: id.clone(),
                state: entry.state.as_str().to_string(),
                users: entry.users,
                epochs_done: entry.epochs_done,
                events: entry.events,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::incoming_sheddable;
    use crate::inbox;

    fn sender() -> (InboxSender<Incoming>, inbox::Inbox<Incoming>) {
        inbox::channel(0, incoming_sheddable)
    }

    fn greeting(n: usize) -> Arc<Vec<Option<usize>>> {
        Arc::new(vec![None; n])
    }

    #[test]
    fn routes_known_sites_and_rejects_everything_else() {
        let router = FleetRouter::new();
        let (tx, _rx) = sender();
        router.register("alpha", greeting(2), tx, 2, 0).unwrap();

        assert!(matches!(
            router.route_hello(1, Some("alpha")),
            HelloDecision::Accept { .. }
        ));
        // Out-of-range client for a known site: silent close.
        assert!(matches!(
            router.route_hello(2, Some("alpha")),
            HelloDecision::Close
        ));
        // Unknown site and site-less hello: typed reject.
        assert!(matches!(
            router.route_hello(0, Some("beta")),
            HelloDecision::Reject(Envelope::SiteGone { site }) if site == "beta"
        ));
        assert!(matches!(
            router.route_hello(0, None),
            HelloDecision::Reject(Envelope::SiteGone { site }) if site.is_empty()
        ));
    }

    #[test]
    fn anonymous_site_takes_site_less_hellos_and_dismisses_late_ones() {
        let router = FleetRouter::new();
        let (tx, _rx) = sender();
        router.register("", greeting(1), tx, 1, 0).unwrap();
        assert!(matches!(
            router.route_hello(0, None),
            HelloDecision::Accept { .. }
        ));
        assert!(matches!(
            router.route_hello(0, Some("annex")),
            HelloDecision::Reject(Envelope::SiteGone { site }) if site == "annex"
        ));
        assert!(router.finish_driving(), "the only site is the last driving");
        router.detach("");
        assert!(matches!(
            router.route_hello(0, None),
            HelloDecision::Dismiss { attached: None }
        ));
    }

    #[test]
    fn drain_stops_routing_and_delivers_a_stop() {
        let router = FleetRouter::new();
        let (tx, rx) = sender();
        router.register("alpha", greeting(1), tx, 1, 0).unwrap();
        router.drain("alpha").unwrap();
        assert!(matches!(
            router.route_hello(0, Some("alpha")),
            HelloDecision::Reject(Envelope::SiteGone { .. })
        ));
        match rx.recv_timeout(std::time::Duration::from_millis(100)) {
            Ok(Incoming::Stop { reason }) => assert!(reason.contains("drained")),
            other => panic!("expected a stop, got {:?}", other.is_ok()),
        }
        assert_eq!(router.status()[0].state, "draining");
        assert!(router.drain("ghost").is_err());
    }

    #[test]
    fn remove_forgets_the_entry_once_finished() {
        let router = FleetRouter::new();
        let (tx, _rx) = sender();
        router.register("alpha", greeting(1), tx, 1, 0).unwrap();
        router.remove("alpha").unwrap();
        assert_eq!(router.status().len(), 1);
        router.finish_site("alpha", 0, true);
        assert!(router.status().is_empty());
    }

    #[test]
    fn register_refuses_duplicates_and_closed_registry() {
        let router = FleetRouter::new();
        let (tx, _rx) = sender();
        router.register("alpha", greeting(1), tx, 1, 0).unwrap();
        let (tx2, _rx2) = sender();
        assert!(router.register("alpha", greeting(1), tx2, 1, 0).is_err());
        router.finish_site("alpha", 1, true);
        router.wait_all_done();
        let (tx3, _rx3) = sender();
        assert!(router.register("beta", greeting(1), tx3, 1, 0).is_err());
    }

    #[test]
    fn status_is_sorted_by_site_id() {
        let router = FleetRouter::new();
        for id in ["zeta", "alpha", "mid"] {
            let (tx, rx) = sender();
            std::mem::forget(rx);
            router.register(id, greeting(1), tx, 1, 0).unwrap();
        }
        let ids: Vec<String> = router.status().into_iter().map(|s| s.site).collect();
        assert_eq!(ids, vec!["alpha", "mid", "zeta"]);
    }
}
