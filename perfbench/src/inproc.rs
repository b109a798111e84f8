//! The in-process loop: a `ControllerCore` fed one closed-loop event at
//! a time, every directive acked as soon as it is issued. It runs the
//! `churn` and `mobility` workloads, and — traced — gives each its
//! solver, controller, codec, inbox and store breakdown, plus the
//! loopback daemon probe.

use std::path::Path;
use std::time::{Duration, Instant};

use wolt_core::phase1::{run_phase1_full, Phase1Solver, Phase1Utility};
use wolt_core::phase2::{run_phase2, Phase2Config};
use wolt_core::{evaluate, Network};
use wolt_daemon::{DaemonSnapshot, Envelope};
use wolt_support::json::Json;
use wolt_support::obs;
use wolt_support::rng::{ChaCha8Rng, SeedableRng};
use wolt_testbed::protocol::{ToAgent, ToClient, ToController};
use wolt_testbed::{ControllerCore, Directive};
use wolt_units::Mbps;

use crate::calib;
use crate::daemon;
use crate::layers::{self, KINDS};
use crate::site::{next_churn, next_move, Site, Step};
use crate::stats::{mean, median, percentile, ratio, us};
use crate::trace::Tracer;
use crate::{Args, Outcome, Workload};

/// Users per site in `churn` and `mobility` (ROADMAP's enterprise scale).
const USERS: usize = 200;

/// Set-ups per untraced run; `setup_s` is their median. Each run first
/// sets up once uncounted, as a warm-up (page faults, allocator growth).
const SETUPS: usize = 9;

/// Events after set-up whose work counts are reported; they must repeat
/// exactly for a seed, so every run processes at least this many.
const WINDOW: usize = 200;

/// Walking re-reports, from a fixed seed, that bring the mobility site
/// from its join-wave state to walking's steady regime before anything
/// is measured. Phase-II work climbs over the first few hundred walks
/// as telemetry drifts off the MCS tiers, and where a long walk drifts
/// next depends on its seed: so every measured mobility event is one
/// seeded step taken from this same warmed state, and every seed
/// samples one stationary distribution.
const WARMUP_WALKS: usize = 300;
const WARMUP_SEED: u64 = 1;

/// Calls per snapshot-store operation in the store probe.
const STORE_REPS: usize = 20;

/// Probes per layer call a workload's own traffic never makes (mobility
/// sends no commands and no departures).
const ABSENT_PROBES: usize = 20;

/// Inbound messages replayed through the session inbox.
const INBOX_MSGS: usize = 2000;

/// The controller plus the world it serves.
#[derive(Clone)]
pub struct World {
    pub site: Site,
    pub core: ControllerCore,
    pub present: Vec<bool>,
    epoch: u64,
}

/// What one event did.
pub struct Applied {
    /// Ingestion of the event's message to the last directive ack.
    pub latency: Duration,
    /// The controller call alone (report or departure).
    pub cc: Duration,
    pub directives: Vec<Directive>,
    /// Clients attached before and after the event whose extender
    /// changed: the handoffs users suffered.
    pub moves: usize,
    /// The session command that triggered the event (none for a
    /// self-initiated re-report).
    pub cmd: Option<ToAgent>,
    pub msg: ToController,
    /// The event's span when traced.
    pub span: Option<usize>,
    /// Whether the controller ran a solve (known only when traced).
    pub solved: bool,
}

impl World {
    pub fn new(site: Site) -> Self {
        Self {
            core: ControllerCore::new(site.users(), site.controller_config()),
            present: vec![false; site.users()],
            site,
            epoch: 0,
        }
    }

    /// The client's side of an event: the command it receives and the
    /// message it sends. A walker moves before it scans.
    fn message(&mut self, step: Step) -> Result<(Option<ToAgent>, ToController), String> {
        let epoch = self.epoch;
        Ok(match step {
            Step::Join(i) if !self.present[i] => {
                let rates = self.site.rates(i);
                let attached = Site::strongest(&rates).ok_or("joining client out of coverage")?;
                (
                    Some(ToAgent::Join { epoch, attempt: 1 }),
                    ToController::Report {
                        client: i,
                        epoch,
                        rates,
                        attached,
                    },
                )
            }
            Step::Leave(i) if self.present[i] => (
                Some(ToAgent::Leave { epoch, attempt: 1 }),
                ToController::Departed { client: i, epoch },
            ),
            Step::Move(i, to) if self.present[i] => {
                self.site.scenario.user_positions[i] = to;
                let attached = self.core.association()[i].ok_or("walking client unattached")?;
                (
                    None,
                    ToController::Report {
                        client: i,
                        epoch,
                        rates: self.site.rates(i),
                        attached,
                    },
                )
            }
            other => return Err(format!("event {other:?} does not fit the session state")),
        })
    }

    /// Runs one closed-loop event: the controller ingests the message,
    /// then every directive is acked. Traced, it records the event span,
    /// the controller-call span with its counter deltas, and a span per
    /// ack.
    pub fn apply(&mut self, step: Step, tracer: Option<&mut Tracer>) -> Result<Applied, String> {
        let (cmd, msg) = self.message(step)?;
        let before = self.core.association().to_vec();
        let traced = tracer.is_some();

        let t0 = Instant::now();
        let obs_before = traced.then(obs::snapshot);
        let c0 = Instant::now();
        let planned = match &msg {
            ToController::Report {
                client,
                epoch,
                rates,
                attached,
            } => self.core.handle_report(*client, *epoch, rates, *attached),
            ToController::Departed { client, epoch } => self.core.handle_departed(*client, *epoch),
            ToController::Ack { .. } => unreachable!("events are reports or departures"),
        };
        let c1 = Instant::now();
        let obs_after = traced.then(obs::snapshot);
        let directives = planned.map_err(|e| format!("controller: {e}"))?;
        let mut ack_times = Vec::new();
        let mut stale = 0usize;
        for d in &directives {
            let a0 = Instant::now();
            stale += usize::from(!self.core.handle_ack(d.client, d.seq, d.extender));
            if traced {
                ack_times.push((a0, Instant::now()));
            }
        }
        let t1 = Instant::now();

        let solved = match (&obs_before, &obs_after) {
            (Some(b), Some(a)) => a.counter("core.solves") > b.counter("core.solves"),
            _ => false,
        };
        let span = tracer.map(|t| {
            let event = self.epoch;
            let ev = t.record("event", None, event, t0, t1);
            let name = if matches!(msg, ToController::Departed { .. }) {
                "cc.departed"
            } else {
                "cc.report"
            };
            let cc = t.record(name, Some(ev), event, c0, c1);
            if let (Some(b), Some(a)) = (&obs_before, &obs_after) {
                t.attach_deltas(cc, b, a);
            }
            for &(a0, a1) in &ack_times {
                t.record("cc.ack", Some(ev), event, a0, a1);
            }
            ev
        });
        if stale > 0 {
            return Err(format!(
                "{stale} directive acks rejected at epoch {}",
                self.epoch
            ));
        }
        match step {
            Step::Join(i) => self.present[i] = true,
            Step::Leave(i) => self.present[i] = false,
            Step::Move(..) => {}
        }
        self.epoch += 1;
        let after = self.core.association();
        let moves = (0..before.len())
            .filter(|&i| before[i].is_some() && after[i].is_some() && before[i] != after[i])
            .count();
        Ok(Applied {
            latency: t1 - t0,
            cc: c1 - c0,
            directives,
            moves,
            cmd,
            msg,
            span,
            solved,
        })
    }

    /// Correctness after an event: no degraded solve, every present
    /// client — and only those — associated with an extender it can
    /// reach. Returns the association's quality on the true network.
    pub fn check(&self) -> Result<(f64, f64), String> {
        if self.core.degraded_solves() > 0 {
            return Err("the controller degraded a solve".into());
        }
        let assoc = self.core.association();
        for (i, &present) in self.present.iter().enumerate() {
            match (present, assoc[i]) {
                (true, Some(j)) if self.site.scenario.rate(i, j).is_some() => {}
                (false, None) => {}
                (true, Some(j)) => {
                    return Err(format!("client {i} sent to unreachable extender {j}"))
                }
                (true, None) => return Err(format!("present client {i} left unassociated")),
                (false, Some(_)) => return Err(format!("absent client {i} still associated")),
            }
        }
        let present: Vec<usize> = (0..self.present.len())
            .filter(|&i| self.present[i])
            .collect();
        self.site.quality(&present, assoc)
    }

    /// Re-runs the solver stages on the planning network the controller
    /// just saw — rebuilt from its telemetry the way the controller
    /// builds it — timing each stage, and checks the replay reproduces
    /// the controller's plan. Returns the instants that bound the
    /// stages: Phase I, Phase II (with polish), evaluate.
    pub fn replay(&self) -> Result<[Instant; 4], String> {
        let snap = self.core.snapshot();
        let known: Vec<usize> = (0..snap.telemetry.len())
            .filter(|&i| snap.telemetry[i].is_some() && !snap.dead[i])
            .collect();
        let rates = known
            .iter()
            .map(|&i| {
                snap.telemetry[i]
                    .as_ref()
                    .expect("known client has telemetry")
                    .rates
                    .iter()
                    .map(|r| r.map_or(0.0, Mbps::value))
                    .collect()
            })
            .collect();
        let caps = self.site.estimated.iter().map(|c| c.value()).collect();
        let net = Network::from_raw(caps, rates).map_err(|e| format!("planning view: {e}"))?;
        let fail = |e: wolt_core::CoreError| format!("replayed solve: {e}");
        let t0 = Instant::now();
        let p1 =
            run_phase1_full(&net, Phase1Solver::Hungarian, Phase1Utility::Paper).map_err(fail)?;
        let t1 = Instant::now();
        let p2 = run_phase2(&net, &p1.association, &Phase2Config::default()).map_err(fail)?;
        let t2 = Instant::now();
        std::hint::black_box(evaluate(&net, &p2.association).map_err(fail)?);
        let t3 = Instant::now();
        let assoc = self.core.association();
        if known
            .iter()
            .enumerate()
            .any(|(v, &i)| p2.association.target(v) != assoc[i])
        {
            return Err("replayed solve diverged from the controller's plan".into());
        }
        Ok([t0, t1, t2, t3])
    }

    /// The daemon snapshot this state would persist.
    pub fn daemon_snapshot(&self) -> DaemonSnapshot {
        DaemonSnapshot {
            epochs_done: self.epoch as usize,
            present: self.present.clone(),
            unresponsive: vec![false; self.present.len()],
            initial_attach: self.core.association().to_vec(),
            retries: 0,
            core: self.core.snapshot(),
        }
    }
}

/// The seeded load generator of an in-process run.
#[derive(Clone)]
pub struct Load {
    walk: bool,
    rng: ChaCha8Rng,
}

impl Load {
    /// Leave/join churn, or (`walk`) walking-pace re-reports.
    pub fn new(walk: bool, seed: u64) -> Self {
        Self {
            walk,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Whether each event starts again from the base state.
    pub fn restarts(&self) -> bool {
        self.walk
    }

    pub fn next(&mut self, world: &World) -> Step {
        if self.walk {
            next_move(&mut self.rng, &world.site)
        } else {
            next_churn(&mut self.rng, &world.present)
        }
    }
}

/// Controller and solver work counts that must repeat exactly for a
/// seed (the daemon probe's byte counts complete the set when traced).
pub const WORK_COUNTERS: [&str; 4] = [
    "core.solves",
    "core.phase2_iterations",
    "cc.view_builds",
    "cc.directives",
];

/// `churn` or `mobility`: set up the 200-user enterprise site, then run
/// seeded closed-loop events for the measured time.
pub fn run(workload: Workload, args: &Args, run_dir: &Path) -> Result<Outcome, String> {
    set_up()?;
    let (mut base, first) = set_up()?;
    base.check()
        .map_err(|e| format!("after the join wave: {e}"))?;
    if workload == Workload::Mobility {
        let mut warmup = Load::new(true, WARMUP_SEED);
        for _ in 0..WARMUP_WALKS {
            let step = warmup.next(&base);
            base.apply(step, None)?;
        }
        base.check()
            .map_err(|e| format!("after the warm-up walk: {e}"))?;
    }
    let load = Load::new(workload == Workload::Mobility, args.seed);
    let budget = Duration::from_secs(args.seconds);
    if args.trace {
        traced(base, load, budget, run_dir, args)
    } else {
        measured(base, load, budget, first)
    }
}

/// Generates the enterprise site and runs the 200-user join wave;
/// returns the controller state and the time it took (s).
fn set_up() -> Result<(World, f64), String> {
    let t0 = Instant::now();
    let mut world = World::new(Site::enterprise(USERS)?);
    for i in 0..USERS {
        world.apply(Step::Join(i), None)?;
    }
    Ok((world, t0.elapsed().as_secs_f64()))
}

/// Quality and failure tallies over a run's events.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
    aggregate: Vec<f64>,
    jain: Vec<f64>,
    moves: Vec<f64>,
}

impl Tally {
    fn note(&mut self, world: &World, applied: &Applied) {
        self.attempted += 1;
        self.moves.push(applied.moves as f64);
        match world.check() {
            Ok((agg, jain)) => {
                self.aggregate.push(agg);
                self.jain.push(jain);
            }
            Err(e) => {
                self.failed += 1;
                self.first_failure.get_or_insert(e);
            }
        }
    }
}

/// The untraced run: end-to-end metrics only, for `budget` of wall
/// time (and at least one calibration window of events). Set-ups after
/// the first are spread evenly over it, so their median samples the
/// host as the events do, not only the moment the run started.
fn measured(
    base: World,
    mut load: Load,
    budget: Duration,
    first_setup: f64,
) -> Result<Outcome, String> {
    let mut setups = vec![first_setup];
    let obs0 = obs::snapshot();
    let mut counts = Vec::new();
    let mut latencies = Vec::new();
    let mut kernel = Vec::new();
    let mut tally = Tally::default();
    let mut world = base.clone();
    let start = Instant::now();
    while start.elapsed() < budget || latencies.len() < WINDOW.max(calib::WINDOW) {
        // Never inside the work-count window: a join wave would add to it.
        let due = start.elapsed().as_secs_f64() * SETUPS as f64
            >= budget.as_secs_f64() * setups.len() as f64;
        if due && latencies.len() >= WINDOW && setups.len() < SETUPS {
            setups.push(set_up()?.1);
        }
        if load.restarts() {
            world = base.clone();
        }
        if latencies.len() % calib::EVERY == 0 {
            kernel.push(calib::kernel());
        }
        let step = load.next(&world);
        let applied = world.apply(step, None)?;
        latencies.push(us(applied.latency));
        tally.note(&world, &applied);
        if latencies.len() == WINDOW {
            let obs1 = obs::snapshot();
            counts = WORK_COUNTERS
                .map(|c| (c, obs1.counter(c) - obs0.counter(c)))
                .to_vec();
        }
    }
    counts.extend([("daemon.bytes_in", 0), ("daemon.bytes_out", 0)]);
    let mut out = Outcome::new(tally.attempted, tally.failed, tally.first_failure.clone());
    out.e2e(&latencies, &kernel, &setups);
    out.quality(&tally.aggregate, &tally.jain, &tally.moves)?;
    out.counts = counts;
    Ok(out)
}

/// Per-layer samples gathered by a traced run.
#[derive(Default)]
struct Layers {
    phase1: Vec<f64>,
    phase2: Vec<f64>,
    evaluate: Vec<f64>,
    /// Controller call minus the replayed Phase I + II.
    residual: Vec<f64>,
    directives: Vec<f64>,
    encode: [Vec<f64>; 5],
    decode: [Vec<f64>; 5],
    bytes: u64,
    frames: u64,
    inbound: Vec<ToController>,
}

impl Layers {
    /// Every frame the event would put on a daemon's wire, through the
    /// codec.
    fn codec(&mut self, applied: &Applied, buf: &mut Vec<u8>) -> Result<(), String> {
        let mut frames: Vec<Envelope> = Vec::new();
        frames.extend(applied.cmd.clone().map(Envelope::Agent));
        frames.push(Envelope::Ctrl(applied.msg.clone()));
        for d in &applied.directives {
            frames.push(Envelope::Client(ToClient::Directive {
                extender: d.extender,
                seq: d.seq,
                attempt: 1,
            }));
            frames.push(Envelope::Ctrl(ToController::Ack {
                client: d.client,
                seq: d.seq,
                extender: d.extender,
            }));
        }
        for f in &frames {
            self.bytes += self.time_frame(f, buf)? as u64;
            self.frames += 1;
            if let Envelope::Ctrl(m) = f {
                if self.inbound.len() < INBOX_MSGS {
                    self.inbound.push(m.clone());
                }
            }
        }
        Ok(())
    }

    /// One frame through the codec, timed by kind; returns its bytes.
    fn time_frame(&mut self, f: &Envelope, buf: &mut Vec<u8>) -> Result<usize, String> {
        let (enc, dec, bytes) = layers::codec_round_trip(f, buf)?;
        let k = KINDS
            .iter()
            .position(|&k| k == layers::kind_of(f))
            .expect("every frame has a kind");
        self.encode[k].push(us(enc));
        self.decode[k].push(us(dec));
        Ok(bytes)
    }
}

/// The traced run: the same load, spans around every layer call, the
/// solver stages replayed outside the event span, and codec, inbox and
/// store probes on the workload's own traffic and state; then the
/// loopback daemon probe. The first `WINDOW` events also run untraced
/// from the same state, for the tracing overhead and an exact
/// work-count comparison. Traced events take 5/8 of `budget` in wall
/// time, daemon sessions 1/4 (their rig replays most of the rest).
fn traced(
    base: World,
    load: Load,
    budget: Duration,
    run_dir: &Path,
    args: &Args,
) -> Result<Outcome, String> {
    // Per event: total latency, and the part outside the controller
    // call — where tracing adds its work.
    let mut untraced = Vec::with_capacity(WINDOW);
    let obs0 = obs::snapshot();
    {
        let (mut world, mut load) = (base.clone(), load.clone());
        for _ in 0..WINDOW {
            if load.restarts() {
                world = base.clone();
            }
            let step = load.next(&world);
            let applied = world.apply(step, None)?;
            untraced.push((us(applied.latency), us(applied.latency - applied.cc)));
        }
    }
    let obs1 = obs::snapshot();
    let untraced_counts = WORK_COUNTERS
        .map(|c| (c, obs1.counter(c) - obs0.counter(c)))
        .to_vec();

    let (mut world, mut load) = (base.clone(), load);
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let mut tally = Tally::default();
    let mut buf = Vec::new();
    let mut events = 0usize;
    let mut traced_counts = Vec::new();
    let mut overhead = Vec::with_capacity(WINDOW);
    let start = Instant::now();
    while start.elapsed() < budget * 5 / 8 || events < WINDOW {
        if load.restarts() {
            world = base.clone();
        }
        let step = load.next(&world);
        let applied = world.apply(step, Some(&mut tracer))?;
        let ev = applied.span.expect("traced events have spans");
        if events < WINDOW {
            overhead.push(us(applied.latency - applied.cc) - untraced[events].1);
        }
        events += 1;
        let event = tracer.spans[ev].event;
        if applied.solved {
            let [t0, t1, t2, t3] = world.replay()?;
            tracer.record("core.phase1", Some(ev), event, t0, t1);
            tracer.record("core.phase2", Some(ev), event, t1, t2);
            tracer.record("core.evaluate", Some(ev), event, t2, t3);
            let (p1, p2) = (us(t1 - t0), us(t2 - t1));
            layers.phase1.push(p1);
            layers.phase2.push(p2);
            layers.evaluate.push(us(t3 - t2));
            layers.residual.push(us(applied.cc) - p1 - p2);
        }
        layers.directives.push(applied.directives.len() as f64);
        let c0 = Instant::now();
        layers.codec(&applied, &mut buf)?;
        tracer.record("wire.codec", Some(ev), event, c0, Instant::now());
        tally.note(&world, &applied);
        if events == WINDOW {
            traced_counts = counts_from_spans(&tracer);
        }
    }

    // Layer calls this workload's traffic never makes are probed on its
    // end state, so every layer is measured on every workload.
    let mut cc_departed = tracer.durations("cc.departed");
    if cc_departed.is_empty() {
        let present: Vec<usize> = (0..world.present.len())
            .filter(|&i| world.present[i])
            .collect();
        for k in 0..ABSENT_PROBES {
            let i = present[k * present.len() / ABSENT_PROBES];
            let applied = world.clone().apply(Step::Leave(i), None)?;
            cc_departed.push(us(applied.cc));
            for f in [
                Envelope::Agent(applied.cmd.clone().expect("a leave is commanded")),
                Envelope::Ctrl(applied.msg.clone()),
            ] {
                layers.time_frame(&f, &mut buf)?;
            }
        }
    }
    let handoff = layers::inbox_handoff(&layers.inbound)?;
    let store = layers::store_probe(
        &run_dir.join(format!("store-{}", args.workload.name())),
        &world.daemon_snapshot(),
        &world.site.controller_config(),
        STORE_REPS,
    )?;
    let daemon = daemon::probe(args.seed, budget / 4, run_dir)?;
    let spans_file = run_dir.join(format!("spans-{}-{}.json", args.workload.name(), args.seed));
    std::fs::write(&spans_file, tracer.to_json().to_compact())
        .map_err(|e| format!("writing {}: {e}", spans_file.display()))?;

    let mut out = Outcome::new(tally.attempted, tally.failed, tally.first_failure.clone());
    out.check(
        "work_counts_trace_invariant",
        traced_counts == untraced_counts,
    );
    let n = events as f64;
    let total = |c: &str| tracer.counter_total(c) as f64;
    let solves = total("core.solves");
    out.time("core.phase1_us", &layers.phase1);
    out.time("core.phase2_us", &layers.phase2);
    out.time("core.evaluate_us", &layers.evaluate);
    out.metric(
        "core.phase2_iterations_per_solve",
        ratio(total("core.phase2_iterations"), solves),
        "count",
    );
    out.metric(
        "core.probes_per_solve",
        ratio(total("core.incremental_probes"), solves),
        "count",
    );
    out.metric(
        "core.solves_per_event",
        ratio(solves + total("core.warm_solves"), n),
        "count",
    );
    out.metric(
        "core.warm_share",
        ratio(
            total("core.warm_solves"),
            solves + total("core.warm_solves"),
        ),
        "ratio",
    );
    out.time("cc.report_us", &tracer.durations("cc.report"));
    out.time("cc.departed_us", &cc_departed);
    out.time("cc.ack_us", &tracer.durations("cc.ack"));
    out.time("cc.plan_residual_us", &layers.residual);
    out.metric(
        "cc.view_build_share",
        ratio(
            total("cc.view_builds"),
            total("cc.view_builds") + total("cc.view_reuses"),
        ),
        "ratio",
    );
    out.metric(
        "cc.directives_per_event",
        mean(&layers.directives).unwrap_or(0.0),
        "count",
    );
    for (k, kind) in KINDS.iter().enumerate() {
        out.time(&format!("wire.encode_us.{kind}"), &layers.encode[k]);
        out.time(&format!("wire.decode_us.{kind}"), &layers.decode[k]);
    }
    out.metric("wire.bytes_per_event", layers.bytes as f64 / n, "bytes");
    out.metric("wire.frames_per_event", layers.frames as f64 / n, "count");
    out.time("inbox.handoff_us", &handoff);
    out.store(&store);
    out.metric("trace.overhead_us", median(&overhead).unwrap_or(0.0), "us");
    daemon.report(&mut out);
    out.counts = traced_counts;
    out.counts.extend(daemon.counts());
    out.detail.push((
        "traced".into(),
        Json::obj([
            ("events", Json::Int(events as i64)),
            ("spans", Json::Int(tracer.spans.len() as i64)),
            ("spans_file", Json::Str(spans_file.display().to_string())),
            (
                "event_p50_us",
                Json::Num(median(&tracer.durations("event")).unwrap_or(0.0)),
            ),
            (
                "event_p90_us",
                Json::Num(percentile(&tracer.durations("event"), 0.9).unwrap_or(0.0)),
            ),
            (
                "untraced_window_p50_us",
                Json::Num(median(&untraced.iter().map(|u| u.0).collect::<Vec<_>>()).unwrap_or(0.0)),
            ),
            ("self_us_p50", self_time_table(&tracer)),
        ]),
    ));
    Ok(out)
}

/// Work counts summed over the controller-call spans recorded so far.
fn counts_from_spans(tracer: &Tracer) -> Vec<(&'static str, u64)> {
    WORK_COUNTERS.map(|c| (c, tracer.counter_total(c))).to_vec()
}

/// Median self time of each span name: where the traced time went.
fn self_time_table(tracer: &Tracer) -> Json {
    let mut names: Vec<&str> = tracer.spans.iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    Json::Obj(
        names
            .into_iter()
            .map(|n| {
                (
                    n.to_string(),
                    Json::Num(median(&tracer.self_times(n)).unwrap_or(0.0)),
                )
            })
            .collect(),
    )
}
