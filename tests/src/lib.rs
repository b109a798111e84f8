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
use wolt_testbed::protocol::{ToAgent, ToClient};
use wolt_testbed::Agent;

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
/// `wolt_daemon::run_agent` does (the shared [`Agent`]'s rules, exit on
/// dismissal), with three scripted deviations: the first `skip_joins`
/// join commands go unanswered; `before_first_report` runs once, on the
/// first answered join, before the honest report goes out; and the first
/// `ignore` directive transmissions are dropped unanswered. `site` names
/// a fleet site.
///
/// # Errors
///
/// Any socket failure, or a handshake the daemon did not accept.
pub fn scripted_agent(
    addr: SocketAddr,
    scenario: &Scenario,
    client: usize,
    site: Option<&str>,
    mut skip_joins: usize,
    mut ignore: usize,
    mut before_first_report: impl FnMut(&mut TcpStream, u64) -> io::Result<()>,
) -> io::Result<()> {
    let mut agent = Agent::from_scenario(scenario, client);
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
    let mut first_join = true;
    loop {
        let reply = match wire::recv(&mut stream)? {
            Some(Envelope::Agent(ToAgent::Join { epoch, .. })) => {
                if skip_joins > 0 {
                    skip_joins -= 1;
                    continue;
                }
                let report = agent.on_join(epoch);
                if std::mem::take(&mut first_join) {
                    before_first_report(&mut stream, epoch)?;
                }
                report
            }
            Some(Envelope::Agent(ToAgent::Leave { epoch, .. })) => agent.on_leave(epoch),
            Some(Envelope::Client(ToClient::Directive { extender, seq, .. })) => {
                if ignore > 0 {
                    ignore -= 1;
                    continue;
                }
                match agent.on_directive(extender, seq) {
                    Some(ack) => ack,
                    None => continue,
                }
            }
            Some(Envelope::Agent(ToAgent::Shutdown)) | None => return Ok(()),
            Some(other) => {
                return Err(io::Error::other(format!(
                    "unexpected envelope for an agent: {other:?}"
                )))
            }
        };
        wire::send(&mut stream, &Envelope::Ctrl(reply))?;
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
