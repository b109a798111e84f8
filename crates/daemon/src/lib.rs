//! `wolt-daemon` — the WOLT Central Controller as a networked service.
//!
//! The paper's §V-A architecture is a server ("the CC") that laptops
//! talk to over the network. The in-process testbed
//! ([`wolt_testbed::rig`]) emulates that with threads and channels; this
//! crate runs it for real: a TCP [`server::Daemon`] speaking a
//! length-prefixed JSON wire protocol ([`wire`]), an agent client
//! ([`agent::run_agent`]) for the laptop side, and a crash-safe
//! generational snapshot store ([`store::SnapshotStore`]) so a restarted
//! — or killed — controller resumes mid-session without re-issuing
//! directives, rolling back over torn writes to the newest generation
//! that checksums clean.
//!
//! Every association *decision* lives in the shared
//! [`wolt_testbed::ControllerCore`], and every directive exchange in the
//! shared [`wolt_testbed::Transaction`]; this crate contributes only
//! transport. That is what makes the daemon's clean-session
//! [`wolt_testbed::SessionReport`] canonically byte-identical to
//! [`wolt_testbed::run_session`] for the same (scenario, seed, policy):
//! both transports feed the identical core the identical inputs in the
//! identical order.
//!
//! # One server, one or many sites
//!
//! An enterprise deployment is rarely one PLC segment. Each floor (or
//! building wing) is its own electrically-isolated powerline network
//! with its own extenders, its own users, and its own Central
//! Controller state — but operators want *one* long-running service,
//! one address, one snapshot root, one metrics endpoint. A
//! [`host::Fleet`] is exactly that: one TCP listener and N independent
//! [`SessionEngine`]s, one per site. The single-site [`Daemon`] is the
//! same host with one anonymous site (id `""`).
//!
//! The determinism contract survives multiplexing by construction:
//!
//! - **Routing, not sharing.** Agents declare their site in the
//!   handshake (`hello.site`); the [`router::FleetRouter`] maps the
//!   hello to that site's session inbox. A hello naming a site the host
//!   does not host (or no longer hosts) gets the typed
//!   [`Envelope::SiteGone`] reject, which agents treat as fatal — never
//!   retried.
//! - **One owner per site.** Sites are partitioned across shard
//!   threads by [`shard::partition`] — a pure function of the sorted
//!   site list and the shard count, independent of registry insertion
//!   order and seeds. A shard steps each of its engines in turn; an
//!   engine is only ever touched by its shard, so every site's decision
//!   sequence is exactly the single-daemon sequence.
//! - **Isolated persistence.** Each site snapshots into its own
//!   subdirectory of the snapshot root (`<root>/<site-id>/`; the
//!   anonymous site into the root itself), and every snapshot stamps
//!   the site id into its header — a mis-wired root fails typed
//!   ([`SnapshotCorrupt::WrongSite`]) instead of silently adopting
//!   another segment's state.
//!
//! The headline invariant, proven by the integration tests: a fleet
//! running N sites produces, per site, a canonical
//! [`wolt_testbed::SessionReport`] byte-identical to N separate
//! single-site daemons — at any shard count, including across a
//! kill/restart from the fleet snapshot root.
//!
//! Hermetic like the rest of the workspace: `std::net` only, no external
//! crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod engine;
pub mod host;
pub mod inbox;
pub mod router;
pub mod server;
pub mod shard;
pub mod snapshot;
pub mod spec;
pub mod store;
pub mod wire;

mod error;

pub use agent::{run_agent, run_agent_burst, run_site_agent, AgentOutcome, AgentRetry};
pub use engine::{EngineStep, Incoming, SessionEngine};
pub use error::{DaemonError, SnapshotCorrupt};
pub use host::{Fleet, FleetOutcome, SiteDef};
pub use router::FleetRouter;
pub use server::{Daemon, DaemonConfig, DaemonOutcome, DaemonStats};
pub use snapshot::DaemonSnapshot;
pub use spec::FleetSpec;
pub use store::SnapshotStore;
pub use wire::Envelope;

/// Every named crash point the daemon's write paths declare, with the
/// most scheduled hits that still land inside a short session (a seeded
/// [`wolt_support::crash::CrashPlan`] picks a hit count in
/// `1..=max_hits` per point). This is the catalogue the chaos harness
/// sweeps: killing the daemon at any of these points must leave a store
/// a restart recovers from with a byte-identical final report.
pub fn crash_catalogue() -> Vec<(&'static str, u64)> {
    vec![
        (store::CRASH_MID_WRITE, 3),
        (store::CRASH_PRE_PRUNE, 3),
        (server::CRASH_PRE_SNAPSHOT, 3),
        (server::CRASH_POST_SNAPSHOT, 3),
        (wolt_testbed::codec::CRASH_MID_FRAME, 5),
    ]
}
