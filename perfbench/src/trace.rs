//! In-memory span recorder for the traced run.
//!
//! A span is opened around each call the benchmark makes into a layer:
//! name, start, end, the span that caused it, and the event it belongs
//! to, plus `wolt_support::obs` counter deltas where the benchmark reads
//! them. Spans stay in memory and are written out once at the end.

use std::collections::BTreeMap;
use std::time::Instant;

use wolt_support::json::Json;
use wolt_support::obs::ObsSnapshot;

/// Counters whose deltas are recorded at controller-call boundaries.
pub const COUNTERS: [&str; 8] = [
    "core.solves",
    "core.warm_solves",
    "core.phase2_iterations",
    "core.incremental_probes",
    "cc.view_builds",
    "cc.view_reuses",
    "cc.directives",
    "cc.degraded_solves",
];

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub event: u64,
    pub counters: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span timed by the caller; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        event: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            event,
            counters: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Attaches the [`COUNTERS`] deltas between two snapshots to `span`.
    pub fn attach_deltas(&mut self, span: usize, before: &ObsSnapshot, after: &ObsSnapshot) {
        self.spans[span].counters = COUNTERS
            .iter()
            .map(|&c| (c, after.counter(c) - before.counter(c)))
            .collect();
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (usize, &'a Span)> + 'a {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, s)| s.name == name)
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|(_, s)| s.us()).collect()
    }

    /// Self time (µs) of every span called `name`: its duration minus
    /// the part of its interval its child spans cover.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut covered: BTreeMap<usize, u64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                *covered.entry(p).or_default() += hi.saturating_sub(lo);
            }
        }
        self.named(name)
            .map(|(id, s)| {
                let own =
                    (s.end_ns - s.start_ns).saturating_sub(covered.get(&id).copied().unwrap_or(0));
                own as f64 / 1e3
            })
            .collect()
    }

    /// Sum of counter `c` over every span that recorded counters.
    pub fn counter_total(&self, c: &str) -> u64 {
        self.spans
            .iter()
            .flat_map(|s| s.counters.iter())
            .filter(|(k, _)| *k == c)
            .map(|(_, v)| v)
            .sum()
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    let mut pairs: Vec<(String, Json)> = vec![
                        ("name".into(), Json::Str(s.name.into())),
                        ("start_ns".into(), Json::Int(s.start_ns as i64)),
                        ("end_ns".into(), Json::Int(s.end_ns as i64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                        ),
                        ("event".into(), Json::Int(s.event as i64)),
                    ];
                    if !s.counters.is_empty() {
                        pairs.push((
                            "counters".into(),
                            Json::Obj(
                                s.counters
                                    .iter()
                                    .map(|&(k, v)| (k.to_string(), Json::Int(v as i64)))
                                    .collect(),
                            ),
                        ));
                    }
                    Json::Obj(pairs)
                })
                .collect(),
        )
    }
}
