//! `perfbench` — closed-loop benchmark of the WOLT Central Controller.
//!
//! Two workloads, each a closed loop (the next event is sent only after
//! the previous event's directives are acked):
//!
//! * `churn` — `ControllerCore` in-process on the 200-user enterprise
//!   site; every event changes the known set (view rebuild + cold solve).
//! * `mobility` — same site; one client walks a step and re-reports its
//!   scan, so rates drift through the telemetry EWMA and the known set
//!   stays fixed.
//!
//! The traced run of each adds a loopback daemon probe: the
//! `wolt-daemon` server on 127.0.0.1, lab site, 2 users served by the
//! product's `run_agent`, long leave/join churn, snapshot store on.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload churn --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics untraced, their timings
//! calibrated to a nominal host speed (see [`calib`]); `--trace 1` is
//! the separate traced run that reports the per-layer breakdown and
//! writes its spans under `.bench_run/`. Either runs for `--seconds` of
//! wall time, plus set-up. The last stdout line is the
//! result object; the line before it carries provenance, percentiles,
//! sample counts and the work counts. The exit code is non-zero when a
//! correctness check fails.

mod calib;
mod daemon;
mod inproc;
mod layers;
mod site;
mod stats;
mod trace;

use std::path::Path;
use std::process::ExitCode;

use wolt_support::json::Json;

use crate::stats::{median, percentile};

/// Where runs keep their scratch state (snapshot stores, spans, work
/// counts), relative to the checkout root they run from.
const RUN_DIR: &str = ".bench_run";

/// The solver pool width every run pins, so results do not depend on
/// the host's core count.
const WOLT_THREADS: &str = "2";

/// A workload seed reserved for confirming gain claims: tune on other
/// seeds, then check the claim holds on this one.
const HELDOUT_SEED: u64 = 20_201_020;

const END_TO_END: [&str; 7] = [
    "events_per_s",
    "resolve_p50_us",
    "resolve_p90_us",
    "setup_s",
    "aggregate_mbps",
    "jain",
    "moves_per_event",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Churn,
    Mobility,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Churn => "churn",
            Workload::Mobility => "mobility",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {value}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(match value.as_str() {
                        "churn" => Workload::Churn,
                        "mobility" => Workload::Mobility,
                        other => return Err(format!("unknown workload {other:?}")),
                    })
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?.max(1)),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10),
            trace: trace.unwrap_or(false),
        })
    }
}

/// What a workload run measured and checked.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool)>,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Work counts over the fixed event window; exact for a seed.
    pub counts: Vec<(&'static str, u64)>,
    pub detail: Vec<(String, Json)>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64, first_failure: Option<String>) -> Self {
        let mut out = Self {
            attempted,
            failed,
            checks: Vec::new(),
            metrics: Vec::new(),
            counts: Vec::new(),
            detail: Vec::new(),
        };
        out.check("no_failed_events", failed == 0 && attempted > 0);
        if let Some(e) = first_failure {
            out.detail.push(("first_failure".into(), Json::Str(e)));
        }
        out
    }

    pub fn check(&mut self, name: &str, ok: bool) {
        self.checks.push((name.to_string(), ok));
    }

    /// Sets a metric, replacing an earlier value of the same name.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_string(), value, unit));
    }

    /// A timing metric in µs: the median, with p90 and the sample count
    /// in the detail. A timing without samples fails the run.
    pub fn time(&mut self, name: &str, samples: &[f64]) {
        self.check(&format!("{name} has samples"), !samples.is_empty());
        self.metric(name, median(samples).unwrap_or(0.0), "us");
        self.detail.retain(|(n, _)| n != name);
        self.detail.push((
            name.to_string(),
            Json::obj([
                ("p50", Json::Num(median(samples).unwrap_or(0.0))),
                ("p90", Json::Num(percentile(samples, 0.9).unwrap_or(0.0))),
                ("n", Json::Int(samples.len() as i64)),
            ]),
        ));
    }

    /// The end-to-end timing metrics of a closed-loop run, from its
    /// event latencies in order and the calibration kernel's samples
    /// among them. Each is the median over windows of
    /// [`calib::WINDOW`] consecutive events of that window's rate, p50
    /// or p90, scaled to the nominal host by the window's own kernel
    /// samples; `setup_s` is scaled by the run's. The raw values, and
    /// the pooled p50, p90 and sample count, are in the detail.
    pub fn e2e(&mut self, latencies_us: &[f64], kernel_us: &[f64], setups_s: &[f64]) {
        let stats: [(&str, &'static str, bool, fn(&[f64]) -> f64); 3] = [
            ("events_per_s", "1/s", true, calib::rate),
            ("resolve_p50_us", "us", false, calib::p50),
            ("resolve_p90_us", "us", false, calib::p90),
        ];
        let mut raw = Vec::new();
        for (name, unit, rate, f) in stats {
            let w = calib::windowed(latencies_us, kernel_us, rate, &f);
            self.metric(name, w.scaled, unit);
            raw.push((name.to_string(), Json::Num(w.raw)));
        }
        self.time("resolve_us", latencies_us);
        self.metrics.retain(|(n, _, _)| n != "resolve_us");
        let kernel = median(kernel_us).unwrap_or(calib::NOMINAL_US);
        self.check("setup ran", !setups_s.is_empty());
        let setup = median(setups_s).unwrap_or(0.0);
        self.metric("setup_s", setup * calib::NOMINAL_US / kernel, "s");
        raw.push(("setup_s".into(), Json::Num(setup)));
        self.detail.push(("raw".into(), Json::Obj(raw)));
        self.detail.push((
            "calibration_us".into(),
            Json::obj([
                ("nominal", Json::Num(calib::NOMINAL_US)),
                ("p50", Json::Num(kernel)),
                ("p10", Json::Num(percentile(kernel_us, 0.1).unwrap_or(0.0))),
                ("p90", Json::Num(percentile(kernel_us, 0.9).unwrap_or(0.0))),
                ("n", Json::Int(kernel_us.len() as i64)),
            ]),
        ));
        self.detail.push((
            "setup_s".into(),
            Json::Arr(setups_s.iter().map(|&s| Json::Num(s)).collect()),
        ));
    }

    /// Mean post-event quality and handoffs over a run's events.
    pub fn quality(
        &mut self,
        aggregate: &[f64],
        jain: &[f64],
        moves: &[f64],
    ) -> Result<(), String> {
        let mean = |v: &[f64], what: &str| stats::mean(v).ok_or(format!("no {what} samples"));
        self.metric("aggregate_mbps", mean(aggregate, "quality")?, "Mbps");
        self.metric("jain", mean(jain, "quality")?, "ratio");
        self.metric("moves_per_event", mean(moves, "handoff")?, "count");
        Ok(())
    }

    pub fn store(&mut self, probe: &layers::StoreProbe) {
        self.time("store.save_us", &probe.save_us);
        self.time("store.load_us", &probe.load_us);
        self.time("store.restore_us", &probe.restore_us);
        self.metric("store.snapshot_bytes", probe.bytes as f64, "bytes");
    }

    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// The per-layer metric names a traced run must report, in order.
fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "core.phase1_us",
        "core.phase2_us",
        "core.evaluate_us",
        "core.phase2_iterations_per_solve",
        "core.probes_per_solve",
        "core.solves_per_event",
        "core.warm_share",
        "cc.report_us",
        "cc.departed_us",
        "cc.ack_us",
        "cc.plan_residual_us",
        "cc.view_build_share",
        "cc.directives_per_event",
    ]
    .map(String::from)
    .to_vec();
    for kind in layers::KINDS {
        names.push(format!("wire.encode_us.{kind}"));
        names.push(format!("wire.decode_us.{kind}"));
    }
    names.extend(
        [
            "wire.bytes_per_event",
            "wire.frames_per_event",
            "inbox.handoff_us",
            "engine.commit_us",
            "daemon.events_per_s",
            "daemon.resolve_us",
            "daemon.retries",
            "daemon.frames_shed",
            "store.save_us",
            "store.load_us",
            "store.restore_us",
            "store.snapshot_bytes",
            "trace.overhead_us",
        ]
        .map(String::from),
    );
    names.extend(COUNT_NAMES.map(String::from));
    names
}

/// The work counts every run reports, in order.
const COUNT_NAMES: [&str; 6] = [
    "core.solves",
    "core.phase2_iterations",
    "cc.view_builds",
    "cc.directives",
    "daemon.bytes_in",
    "daemon.bytes_out",
];

/// FNV-1a over the sources the benchmark builds from: identifies the
/// code under test where no git metadata is available.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, files);
                }
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for b in path.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// The commit checked out, when the checkout carries git metadata.
fn git_revision() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unresolved {r}")),
        None if !head.is_empty() => head.to_string(),
        None => "none (not a git checkout)".into(),
    }
}

/// The filesystem type holding `dir` (longest matching mount point).
fn filesystem_of(dir: &Path) -> String {
    let Ok(path) = dir.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fstype.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, t)| t)
}

/// Compares this run's work counts with the first run of the same
/// workload, seed, trace mode and source tree in this checkout
/// (recording them if this is that first run).
fn counts_repeat(
    run_dir: &Path,
    args: &Args,
    fingerprint: &str,
    counts: &[(&str, u64)],
) -> Result<bool, String> {
    let json = Json::Obj(
        counts
            .iter()
            .map(|&(k, v)| (k.to_string(), Json::Int(v as i64)))
            .collect(),
    )
    .to_compact();
    let file = run_dir.join(format!(
        "counts-{}-{}-t{}-{fingerprint}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    match std::fs::read_to_string(&file) {
        Ok(previous) => Ok(previous == json),
        Err(_) => std::fs::write(&file, json)
            .map(|()| true)
            .map_err(|e| format!("writing {}: {e}", file.display())),
    }
}

fn run(args: &Args) -> Result<(Outcome, Json), String> {
    let run_dir = Path::new(RUN_DIR);
    std::fs::create_dir_all(run_dir).map_err(|e| format!("creating {RUN_DIR}: {e}"))?;
    let fingerprint = source_fingerprint();
    let mut out = inproc::run(args.workload, args, run_dir)?;
    let names: Vec<&str> = out.counts.iter().map(|&(k, _)| k).collect();
    out.check("work counts complete", names == COUNT_NAMES);
    let repeat = counts_repeat(run_dir, args, &fingerprint, &out.counts)?;
    out.check("work counts repeat for this seed", repeat);

    let provenance = Json::obj([
        ("revision", Json::Str(git_revision())),
        ("source_fingerprint", Json::Str(fingerprint)),
        (
            "nproc",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as i64)),
        ),
        ("wolt_threads", Json::Str(WOLT_THREADS.into())),
        ("workload", Json::Str(args.workload.name().into())),
        ("seed", Json::Int(args.seed as i64)),
        ("heldout_seed", Json::Int(HELDOUT_SEED as i64)),
        ("seconds", Json::Int(args.seconds as i64)),
        ("trace", Json::Bool(args.trace)),
        ("snapshot_fs", Json::Str(filesystem_of(run_dir))),
        (
            "transport",
            Json::Str(
                if args.trace {
                    "in-process, plus a daemon probe on loopback 127.0.0.1"
                } else {
                    "in-process"
                }
                .into(),
            ),
        ),
    ]);
    Ok((out, provenance))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload churn|mobility [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    // Pinned before anything reads it: the pool width is read lazily.
    std::env::set_var("WOLT_THREADS", WOLT_THREADS);
    let (mut out, provenance) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let expected: Vec<String> = if args.trace {
        for &(k, v) in &out.counts.clone() {
            out.metric(k, v as f64, "count");
        }
        per_layer_names()
    } else {
        END_TO_END.map(String::from).to_vec()
    };
    out.metrics.retain(|(n, _, _)| expected.contains(n));
    let reported: Vec<&String> = out.metrics.iter().map(|(n, _, _)| n).collect();
    let complete =
        expected.iter().all(|n| reported.contains(&n)) && reported.len() == expected.len();
    out.check("every metric reported", complete);
    let finite = out.metrics.iter().all(|(_, v, _)| v.is_finite());
    out.check("every metric finite", finite);

    let detail = Json::obj([
        ("provenance", provenance),
        (
            "checks",
            Json::Obj(
                out.checks
                    .iter()
                    .map(|(k, ok)| (k.clone(), Json::Bool(*ok)))
                    .collect(),
            ),
        ),
        (
            "work_counts",
            Json::Obj(
                out.counts
                    .iter()
                    .map(|&(k, v)| (k.to_string(), Json::Int(v as i64)))
                    .collect(),
            ),
        ),
        ("detail", Json::Obj(out.detail.clone())),
    ]);
    println!("{}", detail.to_compact());
    let correct = out.correct();
    let metrics = Json::Obj(
        expected
            .iter()
            .filter_map(|name| out.metrics.iter().find(|(n, _, _)| n == name))
            .map(|(n, v, unit)| {
                (
                    n.clone(),
                    Json::obj([
                        ("value", Json::Num(*v)),
                        ("unit", Json::Str((*unit).into())),
                    ]),
                )
            })
            .collect(),
    );
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(out.attempted as i64)),
        ("failed", Json::Int(out.failed as i64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.to_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        for (name, ok) in &out.checks {
            if !ok {
                eprintln!("check failed: {name}");
            }
        }
        ExitCode::FAILURE
    }
}
