//! Per-layer probes that time the daemon crate's public pieces — codec,
//! session inbox, snapshot store — on a workload's own messages and
//! state, outside any event span.

use std::path::Path;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use wolt_daemon::engine::incoming_sheddable;
use wolt_daemon::store::{encode_snapshot, DEFAULT_KEEP};
use wolt_daemon::{inbox, wire, DaemonSnapshot, Envelope, Incoming, SnapshotStore};
use wolt_testbed::protocol::ToController;
use wolt_testbed::{ControllerConfig, ControllerCore};

use crate::stats::us;

/// The five envelope kinds of a session's traffic.
pub const KINDS: [&str; 5] = ["cmd", "report", "departed", "directive", "ack"];

pub fn kind_of(envelope: &Envelope) -> &'static str {
    match envelope {
        Envelope::Agent(_) => "cmd",
        Envelope::Ctrl(ToController::Report { .. }) => "report",
        Envelope::Ctrl(ToController::Departed { .. }) => "departed",
        Envelope::Ctrl(ToController::Ack { .. }) => "ack",
        _ => "directive",
    }
}

/// One frame through the codec: encode time, decode time, frame bytes.
pub fn codec_round_trip(
    envelope: &Envelope,
    buf: &mut Vec<u8>,
) -> Result<(Duration, Duration, usize), String> {
    buf.clear();
    let t0 = Instant::now();
    wire::send(buf, envelope).map_err(|e| format!("encode: {e}"))?;
    let t1 = Instant::now();
    let decoded = wire::recv(&mut buf.as_slice()).map_err(|e| format!("decode: {e}"))?;
    let t2 = Instant::now();
    if decoded.as_ref() != Some(envelope) {
        return Err(format!(
            "codec round trip changed a {} frame",
            kind_of(envelope)
        ));
    }
    Ok((t1 - t0, t2 - t1, buf.len()))
}

/// Hands each message from this thread to a consumer blocked on the
/// daemon's session inbox, one at a time (closed loop, so nothing
/// queues), and returns each handoff's send-to-receive time in µs — the
/// reader-task → session-thread hop of every inbound daemon frame.
pub fn inbox_handoff(msgs: &[ToController]) -> Result<Vec<f64>, String> {
    let (tx, rx) = inbox::channel::<Incoming>(0, incoming_sheddable);
    let (back_tx, back_rx) = mpsc::channel::<Instant>();
    thread::scope(|s| {
        s.spawn(move || {
            while rx.recv_timeout(Duration::from_secs(5)).is_ok() {
                if back_tx.send(Instant::now()).is_err() {
                    break;
                }
            }
        });
        let mut samples = Vec::with_capacity(msgs.len());
        for m in msgs {
            let msg = Incoming::Msg(m.clone());
            let sent = Instant::now();
            tx.send(msg).map_err(|_| "inbox consumer hung up")?;
            let received = back_rx
                .recv_timeout(Duration::from_secs(5))
                .map_err(|_| "inbox consumer stopped answering")?;
            samples.push(us(received.saturating_duration_since(sent)));
        }
        // Dropping the last sender disconnects the inbox; the consumer
        // sees that and exits before the scope joins it.
        drop(tx);
        Ok(samples)
    })
}

/// Snapshot-store timings (µs per call) at one controller state.
pub struct StoreProbe {
    pub save_us: Vec<f64>,
    pub load_us: Vec<f64>,
    pub restore_us: Vec<f64>,
    pub bytes: usize,
}

/// Saves, loads and restores `snapshot` `reps` times each through a
/// fresh generational store in `dir` (removed afterwards); checks every
/// load and restore returns the state that was saved.
pub fn store_probe(
    dir: &Path,
    snapshot: &DaemonSnapshot,
    config: &ControllerConfig,
    reps: usize,
) -> Result<StoreProbe, String> {
    let _ = std::fs::remove_dir_all(dir);
    let err = |e: wolt_daemon::DaemonError| format!("snapshot store: {e}");
    let mut store = SnapshotStore::open(dir, DEFAULT_KEEP).map_err(err)?;
    let mut probe = StoreProbe {
        save_us: Vec::with_capacity(reps),
        load_us: Vec::with_capacity(reps),
        restore_us: Vec::with_capacity(reps),
        bytes: encode_snapshot(snapshot, "").len(),
    };
    for _ in 0..reps {
        let t0 = Instant::now();
        store.save(snapshot).map_err(err)?;
        probe.save_us.push(us(t0.elapsed()));
    }
    for _ in 0..reps {
        let t0 = Instant::now();
        let loaded = store.load().map_err(err)?;
        probe.load_us.push(us(t0.elapsed()));
        if loaded.map(|(_, s)| s).as_ref() != Some(snapshot) {
            return Err("snapshot store returned a different state".into());
        }
    }
    for _ in 0..reps {
        let (config, core) = (config.clone(), snapshot.core.clone());
        let t0 = Instant::now();
        let restored = ControllerCore::restore(config, core);
        probe.restore_us.push(us(t0.elapsed()));
        let restored = restored.map_err(|e| format!("restore: {e}"))?;
        if restored.snapshot() != snapshot.core {
            return Err("restored controller differs from its snapshot".into());
        }
    }
    let _ = std::fs::remove_dir_all(dir);
    Ok(probe)
}
