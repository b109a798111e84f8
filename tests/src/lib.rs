//! Shared fixtures for the cross-crate integration tests.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use wolt_core::Network;
use wolt_daemon::{wire, Envelope};
use wolt_sim::scenario::ScenarioConfig;
use wolt_sim::Scenario;
use wolt_support::rng::ChaCha8Rng;
use wolt_support::rng::SeedableRng;
use wolt_testbed::protocol::{ToAgent, ToClient, ToController};
use wolt_units::Mbps;

/// The paper's Fig. 3 case-study network: 2 extenders (PLC 60/20), 2 users
/// (rates [[15, 10], [40, 20]]).
pub fn fig3_network() -> Network {
    Network::from_raw(vec![60.0, 20.0], vec![vec![15.0, 10.0], vec![40.0, 20.0]])
        .expect("case-study network is valid")
}

/// A seeded enterprise scenario (15 extenders) with `users` users.
pub fn enterprise_scenario(users: usize, seed: u64) -> Scenario {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Scenario::generate(&ScenarioConfig::enterprise(users), &mut rng)
        .expect("enterprise scenario generates")
}

/// A seeded lab scenario (3 extenders) with `users` users.
pub fn lab_scenario(users: usize, seed: u64) -> Scenario {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    Scenario::generate(&ScenarioConfig::lab(users), &mut rng).expect("lab scenario generates")
}

/// A seeded [`Network`] from the enterprise scenario.
pub fn enterprise_network(users: usize, seed: u64) -> Network {
    enterprise_scenario(users, seed)
        .network()
        .expect("network builds")
}

/// A hand-rolled agent that speaks the daemon's wire protocol as
/// `wolt_daemon::run_agent` does (scan on join, report, apply and ack
/// directives, exit on dismissal), with two scripted deviations:
/// `before_first_report` runs once, on the first join command, before
/// the honest report goes out; and the first `ignore` directive
/// transmissions are dropped unanswered. `site` names a fleet site.
///
/// # Errors
///
/// Any socket failure, or a handshake the daemon did not accept.
pub fn scripted_agent(
    addr: SocketAddr,
    scenario: &Scenario,
    client: usize,
    site: Option<&str>,
    mut ignore: usize,
    mut before_first_report: impl FnMut(&mut TcpStream, u64) -> io::Result<()>,
) -> io::Result<()> {
    let rates: Vec<Option<Mbps>> = (0..scenario.extender_positions.len())
        .map(|j| scenario.rate(client, j))
        .collect();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    wire::send(
        &mut stream,
        &Envelope::Hello {
            client,
            name: format!("scripted-{client}"),
            site: site.map(str::to_string),
        },
    )?;
    if !matches!(wire::recv(&mut stream)?, Some(Envelope::HelloAck { .. })) {
        return Err(io::Error::other("handshake refused"));
    }
    let mut attached: Option<usize> = None;
    let mut last_applied: Option<u64> = None;
    let mut first_join = true;
    loop {
        match wire::recv(&mut stream)? {
            Some(Envelope::Agent(ToAgent::Join { epoch, .. })) => {
                // Strongest signal, ties toward the lowest index.
                let mut scan = 0;
                let mut best = f64::NEG_INFINITY;
                for (j, r) in rates.iter().enumerate() {
                    if let Some(m) = r.filter(|m| m.value() > best) {
                        best = m.value();
                        scan = j;
                    }
                }
                let at = *attached.get_or_insert(scan);
                if std::mem::take(&mut first_join) {
                    before_first_report(&mut stream, epoch)?;
                }
                let report = ToController::Report {
                    client,
                    epoch,
                    rates: rates.clone(),
                    attached: at,
                };
                wire::send(&mut stream, &Envelope::Ctrl(report))?;
            }
            Some(Envelope::Client(ToClient::Directive { extender, seq, .. })) => {
                if ignore > 0 {
                    ignore -= 1;
                    continue;
                }
                if last_applied.is_none_or(|s| seq > s) {
                    attached = Some(extender);
                    last_applied = Some(seq);
                }
                let ack = ToController::Ack {
                    client,
                    seq,
                    extender: attached.unwrap_or(extender),
                };
                wire::send(&mut stream, &Envelope::Ctrl(ack))?;
            }
            Some(Envelope::Agent(ToAgent::Shutdown)) | None => return Ok(()),
            Some(other) => {
                return Err(io::Error::other(format!(
                    "unexpected envelope for an agent: {other:?}"
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        assert_eq!(fig3_network().users(), 2);
        assert_eq!(enterprise_network(10, 1).extenders(), 15);
        assert_eq!(lab_scenario(7, 1).user_positions.len(), 7);
    }
}
