//! The fixed sites the workloads run on and the seeded event streams
//! that drive them.
//!
//! A site (building layout, PLC capacities, the controller's noisy
//! capacity estimates) is fixed per workload, like a deployment; the
//! `--seed` argument drives only the load: which clients churn, who
//! walks where. So quality metrics compare like with like across seeds,
//! and a seed is an input, never a different building.

use wolt_core::fairness::jain_index;
use wolt_core::{evaluate, Association, Network};
use wolt_plc::capacity::CapacityEstimator;
use wolt_sim::scenario::ScenarioConfig;
use wolt_sim::Scenario;
use wolt_support::rng::{ChaCha8Rng, Rng, SeedableRng};
use wolt_testbed::{ControllerConfig, ControllerPolicy, SessionEvent};
use wolt_units::{Mbps, Point};

/// Seed of the capacity-estimation noise (the daemon's `noise_seed`).
pub const NOISE_SEED: u64 = 7;

/// Lab site of the daemon probe. Chosen so that both joins and
/// leaves make WOLT move the other client: the daemon probe exists to
/// exercise the directive/ack round trip, which a site where nobody
/// ever moves would skip.
pub const LAB_SITE_SEED: u64 = 42;

/// Enterprise site of the `churn` and `mobility` workloads.
pub const ENTERPRISE_SITE_SEED: u64 = 42;

/// Walking pace per telemetry report (1.4 m/s, one report a second).
const WALK_STEP_M: f64 = 1.4;

/// How far a walker strays from its home position (its desk): clients
/// roam a neighbourhood, so the population's layout — and the cost of
/// planning it — stays the site's, whatever the seed.
const WALK_RADIUS_M: f64 = 5.0;

/// Directions tried before a walker blocked by coverage holes stays put.
const WALK_TRIES: usize = 16;

/// A generated site plus the controller's view of its PLC capacities.
#[derive(Debug, Clone)]
pub struct Site {
    pub config: ScenarioConfig,
    pub scenario: Scenario,
    /// Where each client starts (and where a walker's roaming is
    /// centred).
    pub home: Vec<Point>,
    /// The offline iperf estimate of each extender's PLC capacity — the
    /// controller plans with these, never with the true capacities.
    pub estimated: Vec<Mbps>,
}

impl Site {
    pub fn lab(users: usize) -> Result<Self, String> {
        Self::generate(ScenarioConfig::lab(users), LAB_SITE_SEED)
    }

    pub fn enterprise(users: usize) -> Result<Self, String> {
        Self::generate(ScenarioConfig::enterprise(users), ENTERPRISE_SITE_SEED)
    }

    fn generate(config: ScenarioConfig, seed: u64) -> Result<Self, String> {
        let scenario = Scenario::generate(&config, &mut ChaCha8Rng::seed_from_u64(seed))
            .map_err(|e| format!("site generation: {e}"))?;
        // The same estimation the daemon performs at start-up, so an
        // in-process controller plans exactly as the daemon would.
        let mut rng = ChaCha8Rng::seed_from_u64(NOISE_SEED);
        let estimator = CapacityEstimator::default();
        let estimated = scenario
            .capacities
            .iter()
            .map(|&c| estimator.estimate(c, &mut rng))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("capacity estimation: {e}"))?;
        Ok(Self {
            config,
            home: scenario.user_positions.clone(),
            scenario,
            estimated,
        })
    }

    pub fn users(&self) -> usize {
        self.scenario.user_positions.len()
    }

    pub fn controller_config(&self) -> ControllerConfig {
        ControllerConfig {
            policy: ControllerPolicy::Wolt,
            estimated_capacities: self.estimated.clone(),
            strict: false,
        }
    }

    /// What client `i` scans at its current position.
    pub fn rates(&self, i: usize) -> Vec<Option<Mbps>> {
        self.rates_at(self.scenario.user_positions[i])
    }

    fn rates_at(&self, p: Point) -> Vec<Option<Mbps>> {
        self.scenario
            .extender_positions
            .iter()
            .map(|&e| self.scenario.radio.rate_at_distance(p.distance_to(e)))
            .collect()
    }

    /// The extender a client associates with on its own: the strongest
    /// signal, ties to the lowest index (what the daemon's agent does).
    pub fn strongest(rates: &[Option<Mbps>]) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (j, r) in rates.iter().enumerate() {
            if let Some(m) = r {
                if best.is_none_or(|(_, b)| m.value() > b) {
                    best = Some((j, m.value()));
                }
            }
        }
        best.map(|(j, _)| j)
    }

    /// Aggregate throughput (Mbit/s) and Jain index of `assoc` over the
    /// `present` clients, evaluated on the true network: true rates at
    /// the clients' current positions and true PLC capacities.
    pub fn quality(
        &self,
        present: &[usize],
        assoc: &[Option<usize>],
    ) -> Result<(f64, f64), String> {
        let rates = present
            .iter()
            .map(|&i| {
                self.rates(i)
                    .iter()
                    .map(|r| r.map_or(0.0, Mbps::value))
                    .collect()
            })
            .collect();
        let caps = self.scenario.capacities.iter().map(|c| c.value()).collect();
        let net = Network::from_raw(caps, rates).map_err(|e| format!("true network: {e}"))?;
        let targets = present.iter().map(|&i| assoc[i]).collect();
        let eval = evaluate(&net, &Association::from_targets(targets))
            .map_err(|e| format!("evaluation: {e}"))?;
        let jain = jain_index(&eval.per_user).ok_or("no users to evaluate")?;
        Ok((eval.aggregate.value(), jain))
    }
}

/// One closed-loop event an in-process workload feeds the controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Step {
    Join(usize),
    Leave(usize),
    /// Client walks to a new position and re-reports its scan there.
    Move(usize, Point),
}

impl From<SessionEvent> for Step {
    fn from(e: SessionEvent) -> Self {
        match e {
            SessionEvent::Join(i) => Step::Join(i),
            SessionEvent::Leave(i) => Step::Leave(i),
        }
    }
}

/// Seeded churn: the absent client (if any) re-joins, otherwise a
/// uniformly chosen present client leaves — long leave/join cycles.
pub fn next_churn(rng: &mut ChaCha8Rng, present: &[bool]) -> Step {
    match present.iter().position(|&p| !p) {
        Some(i) => Step::Join(i),
        None => Step::Leave(rng.gen_range(0..present.len())),
    }
}

/// A daemon probe session's event list: a join wave, then `cycles` seeded
/// leave/join cycles.
pub fn churn_events(rng: &mut ChaCha8Rng, users: usize, cycles: usize) -> Vec<SessionEvent> {
    let mut events: Vec<SessionEvent> = (0..users).map(SessionEvent::Join).collect();
    for _ in 0..cycles {
        let i = rng.gen_range(0..users);
        events.push(SessionEvent::Leave(i));
        events.push(SessionEvent::Join(i));
    }
    events
}

/// Seeded mobility: a uniformly chosen client takes one walking-pace
/// step in a random direction, staying inside the building and within
/// [`WALK_RADIUS_M`] of home. A step out of bounds or into a coverage
/// hole is re-aimed (a walker in a hole could not report); a walker
/// boxed in stays put and re-reports where it stands.
pub fn next_move(rng: &mut ChaCha8Rng, site: &Site) -> Step {
    let i = rng.gen_range(0..site.users());
    let from = site.scenario.user_positions[i];
    for _ in 0..WALK_TRIES {
        let theta = rng.gen_range(0.0..std::f64::consts::TAU);
        let to = Point::new(
            from.x + WALK_STEP_M * theta.cos(),
            from.y + WALK_STEP_M * theta.sin(),
        );
        let inside = (0.0..=site.config.width).contains(&to.x)
            && (0.0..=site.config.height).contains(&to.y)
            && to.distance_to(site.home[i]).value() <= WALK_RADIUS_M;
        if inside && site.rates_at(to).iter().any(Option::is_some) {
            return Step::Move(i, to);
        }
    }
    Step::Move(i, from)
}
