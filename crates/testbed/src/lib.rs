//! Testbed emulation for WOLT: the Central Controller architecture on
//! real threads.
//!
//! The paper evaluates WOLT on a physical testbed of TP-Link TL-WPA8630
//! extenders and seven laptops running "a user-space utility that runs on
//! users' devices as well as the server" (§V-A). This crate reproduces
//! that software architecture faithfully — minus the hardware, which is
//! replaced by the `wolt-sim` scenario substrate:
//!
//! * [`protocol`] — the client ↔ Central Controller messages (scan
//!   report, association directive, ack, departure).
//! * [`rig`] — one controller thread plus one thread per client laptop,
//!   joined sequentially over mpsc channels; the CC runs WOLT /
//!   Greedy / RSSI on *estimated* PLC capacities while outcomes are
//!   evaluated on the true ones.
//! * [`controller`] — the transport-agnostic Central Controller brain
//!   ([`controller::ControllerCore`]): epoch dedup, telemetry ingest,
//!   policy planning, monotone directive sequencing, declared-dead
//!   bookkeeping, and JSON snapshot/restore. Both the in-process [`rig`]
//!   and the networked `wolt-daemon` drive it.
//! * [`transaction`] — one directive transaction (send, retransmit
//!   with backoff, declare dead and replan) as a sans-I/O state machine
//!   both transports drive.
//! * [`harness`] — the join/leave session driver (event cursor, command
//!   retransmission, presence ledger) and the shared session set-up, as
//!   a sans-I/O state machine both transports drive.
//! * [`agent`] — the laptop utility's rules (scan, report, apply the
//!   newest directive, ack) as a sans-I/O state machine every agent
//!   carries.
//! * [`codec`] — the length-prefixed JSON wire codec for [`protocol`]
//!   messages, used by the daemon's TCP transport.
//! * [`faults`] — seeded deterministic fault injection (message drop /
//!   delay / duplication, crashed and wedged agents) for exercising the
//!   resilient control loop.
//! * [`experiment`] — the §V-D experiment: 25 random lab topologies,
//!   3 extenders, 7 laptops, with the Fig. 4a/4b/5 analyses.
//!
//! # Example
//!
//! ```
//! use wolt_testbed::experiment::{aggregate_summary, TestbedExperiment};
//!
//! # fn main() -> Result<(), wolt_testbed::TestbedError> {
//! let comparisons = TestbedExperiment {
//!     topologies: 3, // the paper uses 25; keep doc examples quick
//!     ..TestbedExperiment::default()
//! }
//! .run()?;
//! let summary = aggregate_summary(&comparisons);
//! assert!(summary.wolt > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod codec;
pub mod controller;
pub mod experiment;
pub mod faults;
pub mod harness;
pub mod protocol;
pub mod rig;
pub mod transaction;

mod error;

pub use agent::Agent;
pub use controller::{
    coalesce_frames, BatchOutcome, ControllerConfig, ControllerCore, ControllerSnapshot, Directive,
    ReportFrame,
};
pub use error::TestbedError;
pub use faults::{FaultPlan, LinkFaults};
pub use harness::{prepare_session, Harness, HarnessEvent, HarnessState};
pub use rig::{
    assemble_report, run_faulty_session, run_rig, run_session, ControllerPolicy, Deadlines,
    RigConfig, SessionEvent, SessionLedger, SessionReport, TopologyOutcome,
};
pub use transaction::{Transaction, Transmission};
