//! The CLI verbs as pure, testable functions.

use wolt_core::baselines::{Greedy, Optimal, Random, Rssi, SelfishGreedy};
use wolt_core::{evaluate, AssociationPolicy, Wolt};
use wolt_sim::Scenario;
use wolt_support::json::{FromJson, Json, JsonError, ToJson};

use crate::spec::NetworkSpec;
use crate::CliError;

/// Which association policy a `solve` should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyChoice {
    /// The WOLT two-phase algorithm.
    Wolt,
    /// Aggregate-maximizing online greedy.
    Greedy,
    /// Own-throughput-maximizing online greedy.
    SelfishGreedy,
    /// Strongest-signal default.
    Rssi,
    /// Brute-force optimum (small instances only).
    Optimal,
    /// Uniform random (seeded).
    Random,
}

impl PolicyChoice {
    /// Parses a policy name as given on the command line.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] listing the accepted names.
    pub fn parse(name: &str) -> Result<Self, CliError> {
        match name.to_ascii_lowercase().as_str() {
            "wolt" => Ok(Self::Wolt),
            "greedy" => Ok(Self::Greedy),
            "selfish" | "selfish-greedy" => Ok(Self::SelfishGreedy),
            "rssi" => Ok(Self::Rssi),
            "optimal" => Ok(Self::Optimal),
            "random" => Ok(Self::Random),
            other => Err(CliError::Usage {
                message: format!(
                    "unknown policy {other:?} (try wolt | greedy | selfish | rssi | optimal | random)"
                ),
            }),
        }
    }

    /// All parseable choices (for `compare`).
    pub fn comparable() -> [PolicyChoice; 4] {
        [Self::Wolt, Self::Greedy, Self::SelfishGreedy, Self::Rssi]
    }

    fn instantiate(self, seed: u64, threads: Option<usize>) -> Box<dyn AssociationPolicy> {
        match self {
            Self::Wolt => Box::new(Wolt::new()),
            Self::Greedy => Box::new(Greedy::new()),
            Self::SelfishGreedy => Box::new(SelfishGreedy::new()),
            Self::Rssi => Box::new(Rssi),
            // Optimal is the only policy that fans out internally; the
            // others are sequential and ignore the knob. Reports are
            // byte-identical at every thread count either way.
            Self::Optimal => match threads {
                Some(t) => Box::new(Optimal::with_threads(t)),
                None => Box::new(Optimal::new()),
            },
            Self::Random => Box::new(Random::new(seed)),
        }
    }
}

/// Result of a `solve`.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// Policy that produced the association.
    pub policy: String,
    /// Per-user extender assignment.
    pub association: Vec<usize>,
    /// Per-user throughput (Mbit/s).
    pub per_user_mbps: Vec<f64>,
    /// Aggregate network throughput (Mbit/s).
    pub aggregate_mbps: f64,
    /// Jain's fairness index.
    pub jain: Option<f64>,
}

impl ToJson for SolveReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("policy", self.policy.to_json()),
            ("association", self.association.to_json()),
            ("per_user_mbps", self.per_user_mbps.to_json()),
            ("aggregate_mbps", self.aggregate_mbps.to_json()),
            ("jain", self.jain.to_json()),
        ])
    }
}

impl FromJson for SolveReport {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        Ok(Self {
            policy: String::from_json(value.field("policy")?)?,
            association: Vec::<usize>::from_json(value.field("association")?)?,
            per_user_mbps: Vec::<f64>::from_json(value.field("per_user_mbps")?)?,
            aggregate_mbps: f64::from_json(value.field("aggregate_mbps")?)?,
            jain: Option::<f64>::from_json(value.field("jain")?)?,
        })
    }
}

/// Runs one policy on a network spec.
///
/// # Errors
///
/// Propagates spec validation and policy failures.
pub fn solve(spec: &NetworkSpec, policy: PolicyChoice, seed: u64) -> Result<SolveReport, CliError> {
    solve_with_threads(spec, policy, seed, None)
}

/// Like [`solve`], with an explicit worker-thread count for policies that
/// fan out internally (`--threads`). The report is byte-identical at any
/// thread count; `None` defers to `WOLT_THREADS` / machine parallelism.
///
/// # Errors
///
/// Propagates spec validation and policy failures.
pub fn solve_with_threads(
    spec: &NetworkSpec,
    policy: PolicyChoice,
    seed: u64,
    threads: Option<usize>,
) -> Result<SolveReport, CliError> {
    let network = spec.to_network()?;
    let instance = policy.instantiate(seed, threads);
    let assoc = instance.associate(&network)?;
    let eval = evaluate(&network, &assoc)?;
    // Policies are contracted to return complete associations, but that
    // contract is theirs to break on a user-supplied spec — surface a
    // typed error, never a panic, if one does.
    let association = (0..network.users())
        .map(|i| {
            assoc.target(i).ok_or_else(|| CliError::Library {
                message: format!("policy {} left user {i} unassociated", instance.name()),
            })
        })
        .collect::<Result<Vec<usize>, CliError>>()?;
    Ok(SolveReport {
        policy: instance.name().to_string(),
        association,
        per_user_mbps: eval.per_user.iter().map(|t| t.value()).collect(),
        aggregate_mbps: eval.aggregate.value(),
        jain: wolt_core::fairness::jain_index(&eval.per_user),
    })
}

/// Like [`solve`], but returns the human-readable per-extender breakdown
/// (`wolt solve --explain true`).
///
/// # Errors
///
/// Propagates spec validation and policy failures.
pub fn solve_explained(
    spec: &NetworkSpec,
    policy: PolicyChoice,
    seed: u64,
) -> Result<String, CliError> {
    solve_explained_with_threads(spec, policy, seed, None)
}

/// Like [`solve_explained`], with an explicit worker-thread count
/// (`--threads`); see [`solve_with_threads`].
///
/// # Errors
///
/// Propagates spec validation and policy failures.
pub fn solve_explained_with_threads(
    spec: &NetworkSpec,
    policy: PolicyChoice,
    seed: u64,
    threads: Option<usize>,
) -> Result<String, CliError> {
    let network = spec.to_network()?;
    let instance = policy.instantiate(seed, threads);
    let assoc = instance.associate(&network)?;
    let eval = evaluate(&network, &assoc)?;
    let mut text = format!("policy: {}\n", instance.name());
    text.push_str(&wolt_core::report::explain(&network, &assoc, &eval)?);
    Ok(text)
}

/// Runs every comparable policy on a spec.
///
/// # Errors
///
/// Propagates the first failing solve.
pub fn compare(spec: &NetworkSpec, seed: u64) -> Result<Vec<SolveReport>, CliError> {
    compare_with_threads(spec, seed, None)
}

/// Like [`compare`], with an explicit worker-thread count (`--threads`);
/// see [`solve_with_threads`].
///
/// # Errors
///
/// Propagates the first failing solve.
pub fn compare_with_threads(
    spec: &NetworkSpec,
    seed: u64,
    threads: Option<usize>,
) -> Result<Vec<SolveReport>, CliError> {
    PolicyChoice::comparable()
        .into_iter()
        .map(|p| solve_with_threads(spec, p, seed, threads))
        .collect()
}

/// Which scenario preset `generate` samples from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PresetChoice {
    /// The paper's 100 m × 100 m / 15-extender enterprise simulation.
    Enterprise,
    /// The paper's 2408 m² / 3-extender testbed lab.
    Lab,
}

impl PresetChoice {
    /// Parses a preset name.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::Usage`] listing the accepted names.
    pub fn parse(name: &str) -> Result<Self, CliError> {
        match name.to_ascii_lowercase().as_str() {
            "enterprise" => Ok(Self::Enterprise),
            "lab" => Ok(Self::Lab),
            other => Err(CliError::Usage {
                message: format!("unknown preset {other:?} (try enterprise | lab)"),
            }),
        }
    }

    /// The canonical spelling [`Self::parse`] accepts for this preset.
    pub fn name(self) -> &'static str {
        match self {
            Self::Enterprise => "enterprise",
            Self::Lab => "lab",
        }
    }

    /// Regenerates this preset's scenario from `(users, seed)` through
    /// the recipe every daemon site uses
    /// ([`wolt_daemon::spec::preset_scenario`]).
    ///
    /// # Errors
    ///
    /// [`CliError::Library`] when the generator rejects the input.
    pub fn scenario(self, users: usize, seed: u64) -> Result<Scenario, CliError> {
        wolt_daemon::spec::preset_scenario(self.name(), users, seed)
            .map_err(|message| CliError::Library { message })
    }
}

/// Samples a network spec from a scenario preset.
///
/// # Errors
///
/// Propagates scenario-generation failures.
pub fn generate(preset: PresetChoice, users: usize, seed: u64) -> Result<NetworkSpec, CliError> {
    Ok(NetworkSpec::from_scenario(&preset.scenario(users, seed)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig3_spec() -> NetworkSpec {
        NetworkSpec {
            capacities: vec![60.0, 20.0],
            rates: vec![vec![15.0, 10.0], vec![40.0, 20.0]],
        }
    }

    #[test]
    fn policy_names_parse() {
        assert_eq!(PolicyChoice::parse("WOLT").unwrap(), PolicyChoice::Wolt);
        assert_eq!(PolicyChoice::parse("greedy").unwrap(), PolicyChoice::Greedy);
        assert_eq!(
            PolicyChoice::parse("selfish-greedy").unwrap(),
            PolicyChoice::SelfishGreedy
        );
        assert!(PolicyChoice::parse("magic").is_err());
    }

    #[test]
    fn solve_reproduces_fig3() {
        let report = solve(&fig3_spec(), PolicyChoice::Wolt, 0).unwrap();
        assert!((report.aggregate_mbps - 40.0).abs() < 1e-9);
        assert_eq!(report.association, vec![1, 0]);
        let rssi = solve(&fig3_spec(), PolicyChoice::Rssi, 0).unwrap();
        assert!((rssi.aggregate_mbps - 240.0 / 11.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_specs_yield_typed_errors_not_panics() {
        // Zero extenders and unreachable users are valid *user input*
        // (a hand-written spec file); every policy must surface a typed
        // CliError — the old `.expect("policies return complete
        // associations")` path must never be reachable.
        let no_extenders = NetworkSpec {
            capacities: vec![],
            rates: vec![vec![], vec![]],
        };
        let unreachable_user = NetworkSpec {
            capacities: vec![60.0, 20.0],
            rates: vec![vec![15.0, 10.0], vec![0.0, -1.0]],
        };
        for spec in [&no_extenders, &unreachable_user] {
            for policy in [
                PolicyChoice::Wolt,
                PolicyChoice::Greedy,
                PolicyChoice::SelfishGreedy,
                PolicyChoice::Rssi,
                PolicyChoice::Optimal,
                PolicyChoice::Random,
            ] {
                let err = solve(spec, policy, 0).expect_err("degenerate spec must error");
                assert!(
                    matches!(err, CliError::Library { .. } | CliError::BadInput { .. }),
                    "unexpected error shape: {err:?}"
                );
            }
        }
    }

    #[test]
    fn compare_covers_all_policies() {
        let reports = compare(&fig3_spec(), 0).unwrap();
        assert_eq!(reports.len(), 4);
        let names: Vec<&str> = reports.iter().map(|r| r.policy.as_str()).collect();
        assert!(names.contains(&"WOLT"));
        assert!(names.contains(&"RSSI"));
        // WOLT first in quality on the case study.
        let wolt = reports.iter().find(|r| r.policy == "WOLT").unwrap();
        for r in &reports {
            assert!(wolt.aggregate_mbps >= r.aggregate_mbps - 1e-9);
        }
    }

    #[test]
    fn generate_produces_valid_specs() {
        for preset in [PresetChoice::Enterprise, PresetChoice::Lab] {
            let spec = generate(preset, 9, 3).unwrap();
            assert_eq!(spec.rates.len(), 9);
            assert!(spec.to_network().is_ok());
        }
    }

    #[test]
    fn generate_then_solve_pipeline() {
        let spec = generate(PresetChoice::Lab, 7, 11).unwrap();
        let wolt = solve(&spec, PolicyChoice::Wolt, 0).unwrap();
        let rssi = solve(&spec, PolicyChoice::Rssi, 0).unwrap();
        assert!(wolt.aggregate_mbps >= rssi.aggregate_mbps - 1e-9);
        assert_eq!(wolt.per_user_mbps.len(), 7);
    }

    #[test]
    fn solve_explained_names_bottlenecks() {
        let text = solve_explained(&fig3_spec(), PolicyChoice::Wolt, 0).unwrap();
        assert!(text.contains("policy: WOLT"));
        assert!(text.contains("PLC-bound"));
        assert!(text.contains("balanced"));
    }

    #[test]
    fn preset_parse() {
        assert_eq!(
            PresetChoice::parse("Enterprise").unwrap(),
            PresetChoice::Enterprise
        );
        assert!(PresetChoice::parse("home").is_err());
    }

    #[test]
    fn report_serializes() {
        let report = solve(&fig3_spec(), PolicyChoice::Optimal, 0).unwrap();
        let json = report.to_json().to_compact();
        let back = SolveReport::from_json(&Json::parse(&json).unwrap()).unwrap();
        assert_eq!(report, back);
    }
}
