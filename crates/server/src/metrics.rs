//! Lock-free service metrics, each `/metrics` family declared once.
//!
//! `TABLE` lists every family with its Prometheus name, help text,
//! kind, labels, JSON key and the storage it reads. Counters and gauges
//! are relaxed atomics in one array indexed by `Slot`; latency
//! histograms are `Histogram`s indexed by `Hist`. An update is an index
//! and an atomic add, so the hot path never blocks, allocates or looks
//! a name up. `GET /metrics` renders a [`MetricsSnapshot`] as
//! Prometheus text and `?format=json` as JSON, each by one loop over
//! the table.
//!
//! Adding a series is one table row (with the `Slot` or `Hist` variant
//! it reads) plus one call site.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use serde::{Number, Serialize, Value};

/// The routes the service distinguishes in its counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `GET /healthz`.
    Healthz,
    /// `GET /metrics`.
    Metrics,
    /// `POST /sessions`.
    SessionStart,
    /// `GET /sessions/{id}`.
    SessionStatus,
    /// `POST /sessions/{id}/answers`.
    Answer,
    /// `POST /sessions/{id}/pause`.
    Pause,
    /// `POST /sessions/{id}/resume`.
    Resume,
    /// `POST /sessions/{id}/finish`.
    Finish,
    /// `GET /exams/{id}/analysis`.
    Analysis,
    /// `POST /admin/promote`.
    Promote,
    /// `POST /admin/demote`.
    Demote,
    /// `GET /admin/ranges`.
    AdminRanges,
    /// A write redirected away from a follower with `421`.
    Redirected,
    /// A request shed at the routing layer (server draining).
    Shed,
    /// Anything that did not match a route.
    Unmatched,
}

impl Route {
    /// All distinguishable routes, in render order, which is
    /// discriminant order.
    pub const ALL: [Route; 15] = [
        Route::Healthz,
        Route::Metrics,
        Route::SessionStart,
        Route::SessionStatus,
        Route::Answer,
        Route::Pause,
        Route::Resume,
        Route::Finish,
        Route::Analysis,
        Route::Promote,
        Route::Demote,
        Route::AdminRanges,
        Route::Redirected,
        Route::Shed,
        Route::Unmatched,
    ];

    /// Metric labels, in discriminant order.
    const LABELS: [&'static str; 15] = [
        "healthz",
        "metrics",
        "session_start",
        "session_status",
        "answer",
        "pause",
        "resume",
        "finish",
        "analysis",
        "promote",
        "demote",
        "admin_ranges",
        "redirected",
        "shed",
        "unmatched",
    ];

    /// Stable metric label.
    #[must_use]
    pub fn label(self) -> &'static str {
        Self::LABELS[self.index()]
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Upper bounds (inclusive, microseconds) of the latency buckets; the
/// final bucket is unbounded.
pub const LATENCY_BUCKETS_US: [u64; 8] = [100, 250, 500, 1_000, 5_000, 25_000, 100_000, 1_000_000];

/// Buckets per histogram, the unbounded one included.
const BUCKETS: usize = LATENCY_BUCKETS_US.len() + 1;

/// A counter or gauge in [`Metrics`]. A family of several slots takes
/// them consecutively: `Status2xx..=Status5xx`, and one slot per route
/// from `Requests` on, in [`Route::ALL`] order.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Slot {
    Status2xx,
    Status4xx,
    Status5xx,
    SessionsStarted,
    SessionsFinished,
    /// Filled in by [`Metrics::snapshot`].
    ActiveSessions,
    ShedTotal,
    RateLimitedTotal,
    QueueDepth,
    InflightRequests,
    DrainState,
    RetryAfterSecs,
    /// 0 primary, 1 follower, 2 candidate.
    ReplRole,
    ReplEpoch,
    ReplLastAppliedSeq,
    ReplLag,
    ReplFollowers,
    ReplQuorumTimeouts,
    Redirected,
    ReplFailovers,
    ReplSuspicions,
    ReplReconnects,
    ReplHeartbeatAgeUs,
    PoolWorkers,
    PoolSteals,
    AdaptiveStarted,
    AdaptiveFinished,
    /// Filled in by [`Metrics::snapshot`].
    AdaptiveActive,
    ScrubPasses,
    ScrubCorruptSegments,
    RepairSegments,
    StorageDegraded,
    Requests,
}

const SLOTS: usize = Slot::Requests as usize + Route::ALL.len();

/// A latency histogram in [`Metrics`]; the two analysis histograms
/// are consecutive, like the series of their family.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Hist {
    Latency,
    AnalysisCold,
    AnalysisStreaming,
    StreamingUpdate,
    AdaptiveStep,
}

const HISTS: usize = Hist::AdaptiveStep as usize + 1;

/// Per-bucket counts over [`LATENCY_BUCKETS_US`] plus the sum (µs) and
/// count of the observations: atomics while live, plain numbers in a
/// snapshot.
#[derive(Debug, Default, Clone, PartialEq)]
struct Histogram<T = AtomicU64> {
    buckets: [T; BUCKETS],
    sum_us: T,
    count: T,
}

impl Histogram {
    fn observe(&self, latency: Duration) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        let bucket = LATENCY_BUCKETS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    fn load(&self) -> Histogram<u64> {
        Histogram {
            buckets: self.buckets.each_ref().map(|b| b.load(Ordering::Relaxed)),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

impl Histogram<u64> {
    /// Appends one series: *cumulative* buckets with `le` bounds in
    /// seconds, then `_sum` in seconds and `_count`. `labels` is the
    /// series' label set without braces.
    fn write_prometheus(&self, out: &mut String, name: &str, labels: &str) {
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cumulative = 0_u64;
        for (i, count) in self.buckets.iter().enumerate() {
            cumulative += count;
            let le = LATENCY_BUCKETS_US
                .get(i)
                .map_or_else(|| "+Inf".to_string(), |&us| secs(us).to_string());
            out.push_str(&format!(
                "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cumulative}\n"
            ));
        }
        let labels = braced(labels);
        out.push_str(&format!("{name}_sum{labels} {}\n", secs(self.sum_us)));
        out.push_str(&format!("{name}_count{labels} {}\n", self.count));
    }
}

impl Serialize for Histogram<u64> {
    fn to_value(&self) -> Value {
        let buckets = self.buckets.iter().enumerate().map(|(i, count)| {
            let le = LATENCY_BUCKETS_US
                .get(i)
                .map_or_else(|| "+inf".to_string(), u64::to_string);
            Value::Object(vec![
                ("le_us".to_string(), Value::String(le)),
                ("count".to_string(), count.to_value()),
            ])
        });
        Value::Object(vec![
            ("buckets".to_string(), Value::Array(buckets.collect())),
            ("sum".to_string(), self.sum_us.to_value()),
            ("count".to_string(), self.count.to_value()),
        ])
    }
}

/// Shared metric storage. Cheap to update from any worker thread.
#[derive(Debug)]
pub struct Metrics {
    values: [AtomicU64; SLOTS],
    histograms: [Histogram; HISTS],
}

impl Default for Metrics {
    fn default() -> Self {
        Self {
            values: [const { AtomicU64::new(0) }; SLOTS],
            histograms: Default::default(),
        }
    }
}

impl Metrics {
    /// Fresh zeroed metrics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one served request.
    pub fn record(&self, route: Route, status: u16, latency: Duration) {
        self.values[Slot::Requests as usize + route.index()].fetch_add(1, Ordering::Relaxed);
        let class = match status {
            200..=299 => Slot::Status2xx,
            500..=599 => Slot::Status5xx,
            _ => Slot::Status4xx,
        };
        self.add(class, 1);
        self.observe(Hist::Latency, latency);
    }

    /// Adds `n` to a counter or gauge.
    pub(crate) fn add(&self, slot: Slot, n: u64) {
        self.values[slot as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n` from a gauge.
    pub(crate) fn sub(&self, slot: Slot, n: u64) {
        self.values[slot as usize].fetch_sub(n, Ordering::Relaxed);
    }

    /// Publishes a gauge.
    pub(crate) fn set(&self, slot: Slot, value: u64) {
        self.values[slot as usize].store(value, Ordering::Relaxed);
    }

    /// Current value of a counter or gauge.
    pub(crate) fn get(&self, slot: Slot) -> u64 {
        self.values[slot as usize].load(Ordering::Relaxed)
    }

    /// Records one observation in a histogram.
    pub(crate) fn observe(&self, hist: Hist, latency: Duration) {
        self.histograms[hist as usize].observe(latency);
    }

    /// Counts one connection or request sent away under `counter`
    /// (shed or rate-limited), recording the `Retry-After` it was sent
    /// away with.
    pub(crate) fn shed(&self, counter: Slot, retry_after_secs: u64) {
        self.add(counter, 1);
        self.set(Slot::RetryAfterSecs, retry_after_secs);
    }

    /// Takes a consistent-enough snapshot for rendering, with the
    /// resident plain and adaptive sitting counts the caller supplies.
    #[must_use]
    pub fn snapshot(&self, active_sessions: usize, adaptive_active: usize) -> MetricsSnapshot {
        let mut values = self.values.each_ref().map(|v| v.load(Ordering::Relaxed));
        values[Slot::ActiveSessions as usize] = active_sessions as u64;
        values[Slot::AdaptiveActive as usize] = adaptive_active as u64;
        MetricsSnapshot {
            values,
            histograms: self.histograms.each_ref().map(Histogram::load),
        }
    }
}

/// A point-in-time copy of every series, renderable as Prometheus text
/// or JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    values: [u64; SLOTS],
    histograms: [Histogram<u64>; HISTS],
}

/// Where a family's series read their values.
#[derive(Clone, Copy)]
enum Src {
    /// Consecutive slots, one per series.
    Slots(Slot),
    /// Consecutive histograms, one per series.
    Hists(Hist),
    /// A histogram's observation count.
    Count(Hist),
    /// A gauge kept in microseconds; Prometheus shows it in seconds.
    Micros(Slot),
    /// A gauge Prometheus shows one-hot: series `i` is 1 when the gauge
    /// holds `i`. JSON shows the raw value.
    OneHot(Slot),
}

/// A family's series.
#[derive(Clone, Copy)]
enum Labels {
    /// One unlabelled series.
    None,
    /// One series per value of one label, keyed by value in JSON.
    Values(&'static str, &'static [&'static str]),
    /// One series per `(label set, JSON key)`.
    Sets(&'static [(&'static str, &'static str)]),
}

/// One row of the table: a Prometheus family and its JSON rendering.
struct Family {
    name: &'static str,
    help: &'static str,
    kind: &'static str,
    labels: Labels,
    /// JSON key. It holds the value of an unlabelled family or a
    /// one-hot gauge. A labelled family nests its series under it, or
    /// puts them at the top level under their own keys when it is empty.
    json: &'static str,
    src: Src,
}

impl Family {
    const fn new(kind: &'static str, src: Src, name: &'static str) -> Self {
        Family {
            name,
            help: "",
            kind,
            labels: Labels::None,
            json: "",
            src,
        }
    }

    const fn json(self, json: &'static str) -> Self {
        Family { json, ..self }
    }

    const fn help(self, help: &'static str) -> Self {
        Family { help, ..self }
    }

    const fn labels(self, labels: Labels) -> Self {
        Family { labels, ..self }
    }

    /// Each series' label set (without braces) and JSON key.
    fn series(&self) -> Vec<(String, &'static str)> {
        match self.labels {
            Labels::None => vec![(String::new(), self.json)],
            Labels::Values(label, values) => values
                .iter()
                .map(|value| (format!("{label}=\"{value}\""), *value))
                .collect(),
            Labels::Sets(sets) => sets
                .iter()
                .map(|(labels, key)| ((*labels).to_string(), *key))
                .collect(),
        }
    }
}

const fn counter(slot: Slot, name: &'static str) -> Family {
    Family::new("counter", Slots(slot), name)
}

const fn gauge(slot: Slot, name: &'static str) -> Family {
    Family::new("gauge", Slots(slot), name)
}

const fn histogram(hist: Hist, name: &'static str) -> Family {
    Family::new("histogram", Hists(hist), name)
}

use {Slot::*, Src::*};

/// Every `/metrics` family, in Prometheus render order.
const TABLE: &[Family] = &[
    counter(Requests, "mine_requests_total")
        .json("requests")
        .help("Requests served, by route.")
        .labels(Labels::Values("route", &Route::LABELS)),
    counter(Status2xx, "mine_responses_total")
        .help("Responses sent, by status class.")
        .labels(Labels::Sets(&[
            ("class=\"2xx\"", "status_2xx"),
            ("class=\"4xx\"", "status_4xx"),
            ("class=\"5xx\"", "status_5xx"),
        ])),
    histogram(Hist::Latency, "mine_request_duration_seconds")
        .json("latency_us")
        .help("Request latency."),
    histogram(Hist::AnalysisCold, "mine_analysis_duration_seconds")
        .json("analysis_duration_us")
        .help("Analysis wall time by mode (batch runs are never cached).")
        .labels(Labels::Sets(&[
            ("mode=\"batch\",cache=\"cold\"", "cold"),
            ("mode=\"streaming\"", "streaming"),
        ])),
    histogram(Hist::StreamingUpdate, "mine_streaming_update_seconds")
        .json("streaming_update_us")
        .help("Finish-time streaming statistics update."),
    Family::new(
        "counter",
        Count(Hist::StreamingUpdate),
        "mine_streaming_updates_total",
    )
    .json("streaming_updates_total")
    .help("Finish-time streaming engine updates applied."),
    histogram(Hist::AdaptiveStep, "mine_adaptive_step_seconds")
        .json("adaptive_step_us")
        .help("Adaptive step: grade, re-estimate, next item."),
    Family::new(
        "counter",
        Count(Hist::AdaptiveStep),
        "mine_adaptive_steps_total",
    )
    .json("adaptive_steps_total")
    .help("Adaptive steps ever served."),
    counter(SessionsStarted, "mine_sessions_started_total")
        .json("sessions_started")
        .help("Sessions ever started."),
    counter(SessionsFinished, "mine_sessions_finished_total")
        .json("sessions_finished")
        .help("Sessions ever finished."),
    counter(AdaptiveStarted, "mine_adaptive_sessions_started_total")
        .json("adaptive_sessions_started")
        .help("Adaptive (CAT) sittings ever started."),
    counter(AdaptiveFinished, "mine_adaptive_sessions_finished_total")
        .json("adaptive_sessions_finished")
        .help("Adaptive (CAT) sittings ever finished."),
    counter(ShedTotal, "mine_shed_total")
        .json("shed_total")
        .help("Connections and requests shed with 503 (full queue or draining)."),
    counter(RateLimitedTotal, "mine_rate_limited_total")
        .json("rate_limited_total")
        .help("Connections shed by per-peer token-bucket rate limiting."),
    gauge(ActiveSessions, "mine_active_sessions")
        .json("active_sessions")
        .help("Sessions currently resident in the registry."),
    gauge(AdaptiveActive, "mine_adaptive_sessions_active")
        .json("adaptive_sessions_active")
        .help("Adaptive (CAT) sittings currently resident in the registry."),
    gauge(QueueDepth, "mine_queue_depth")
        .json("queue_depth")
        .help("Accepted connections waiting for a worker."),
    gauge(InflightRequests, "mine_inflight_requests")
        .json("inflight_requests")
        .help("Requests currently being handled."),
    gauge(DrainState, "mine_drain_state")
        .json("drain_state")
        .help("Lifecycle: 0 running, 1 draining, 2 stopped."),
    gauge(RetryAfterSecs, "mine_retry_after_seconds")
        .json("retry_after_secs")
        .help("Retry-After seconds most recently advertised on a shed response."),
    gauge(PoolWorkers, "mine_pool_workers")
        .json("pool_workers")
        .help("Worker threads spawned by the work-stealing analysis pool."),
    gauge(StorageDegraded, "mine_storage_degraded")
        .json("storage_degraded")
        .help("Storage health: 1 while the WAL refuses writes (degraded read-only), 0 healthy."),
    Family::new("gauge", OneHot(ReplRole), "mine_repl_role")
        .json("repl_role")
        .help("Replication role (one-hot).")
        .labels(Labels::Values(
            "role",
            &["primary", "follower", "candidate"],
        )),
    gauge(ReplEpoch, "mine_repl_epoch")
        .json("repl_epoch")
        .help("Durable replication epoch (bumped by promotion)."),
    gauge(ReplLastAppliedSeq, "mine_repl_last_applied_seq")
        .json("repl_last_applied_seq")
        .help("Highest journal sequence applied locally."),
    gauge(ReplLag, "mine_repl_lag").json("repl_lag").help(
        "Replication lag in records (primary: head minus slowest ack; \
         follower: leader head minus applied).",
    ),
    gauge(ReplFollowers, "mine_repl_followers")
        .json("repl_followers")
        .help("Followers currently streaming from this node."),
    Family::new(
        "gauge",
        Micros(ReplHeartbeatAgeUs),
        "mine_repl_heartbeat_age_seconds",
    )
    .json("repl_heartbeat_age_us")
    .help("Time since the follower last heard from its leader (0 on a primary)."),
    counter(ReplQuorumTimeouts, "mine_repl_quorum_timeouts_total")
        .json("repl_quorum_timeouts_total")
        .help("Quorum-ack waits that timed out (write proceeded leader-only)."),
    counter(Redirected, "mine_redirected_total")
        .json("redirected_total")
        .help("Writes refused with 421 and pointed at the leader."),
    counter(PoolSteals, "mine_pool_steals_total")
        .json("pool_steals_total")
        .help("Pool tasks executed by a worker other than the one that queued them."),
    counter(ReplFailovers, "mine_repl_failovers_total")
        .json("repl_failovers_total")
        .help("Unsupervised promotions performed by the failure detector."),
    counter(ReplSuspicions, "mine_repl_suspicions_total")
        .json("repl_suspicions_total")
        .help("Leader suspicions raised by the failure detector."),
    counter(ReplReconnects, "mine_repl_reconnects_total")
        .json("repl_reconnects_total")
        .help("Follower reconnection attempts after a broken stream."),
    counter(ScrubPasses, "mine_scrub_passes_total")
        .json("scrub_passes_total")
        .help("Completed anti-entropy scrub passes."),
    counter(ScrubCorruptSegments, "mine_scrub_corrupt_segments_total")
        .json("scrub_corrupt_segments_total")
        .help("Sealed segments a scrub pass found corrupt."),
    counter(RepairSegments, "mine_repair_segments_total")
        .json("repair_segments_total")
        .help("Segments quarantined and repaired from a healthy peer."),
];

/// Microseconds as fractional seconds, the Prometheus time unit.
fn secs(us: u64) -> f64 {
    us as f64 / 1_000_000.0
}

/// A label set in braces, or nothing for an unlabelled series.
fn braced(labels: &str) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{labels}}}")
    }
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` and `# TYPE` lines, one sample per
    /// line, histogram buckets with *cumulative* counts and `le` bounds
    /// in seconds.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(8192);
        for family in TABLE {
            let (name, kind, help) = (family.name, family.kind, family.help);
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
            for (i, (labels, _)) in family.series().iter().enumerate() {
                let value = match family.src {
                    Hists(hist) => {
                        self.histograms[hist as usize + i].write_prometheus(&mut out, name, labels);
                        continue;
                    }
                    Slots(slot) => self.values[slot as usize + i].to_string(),
                    Count(hist) => self.histograms[hist as usize].count.to_string(),
                    Micros(slot) => secs(self.values[slot as usize]).to_string(),
                    OneHot(slot) => u64::from(self.values[slot as usize] == i as u64).to_string(),
                };
                out.push_str(&format!("{name}{} {value}\n", braced(labels)));
            }
        }
        out
    }

    /// The number at `path` in the JSON rendering, keys and array
    /// indices joined by `.`: `shed_total`, `requests.answer`,
    /// `latency_us.buckets.0.count`.
    ///
    /// # Panics
    ///
    /// When `path` names no number.
    #[must_use]
    pub fn get(&self, path: &str) -> u64 {
        let mut value = self.to_value();
        for key in path.split('.') {
            value = match value {
                Value::Array(items) => key
                    .parse()
                    .ok()
                    .and_then(|i: usize| items.into_iter().nth(i)),
                object => object.get(key).cloned(),
            }
            .unwrap_or_else(|| panic!("no metric at {path}"));
        }
        match value {
            Value::Number(Number::PosInt(n)) => n,
            other => panic!("{path} is {other:?}, not a number"),
        }
    }
}

impl Serialize for MetricsSnapshot {
    fn to_value(&self) -> Value {
        let mut top = Vec::new();
        for family in TABLE {
            let value = |i: usize| match family.src {
                Slots(slot) => self.values[slot as usize + i].to_value(),
                Hists(hist) => self.histograms[hist as usize + i].to_value(),
                Count(hist) => self.histograms[hist as usize].count.to_value(),
                Micros(slot) | OneHot(slot) => self.values[slot as usize].to_value(),
            };
            let series = family.series().into_iter().enumerate();
            let members = series.map(|(i, (_, key))| (key.to_string(), value(i)));
            match (family.labels, family.src) {
                (Labels::None, _) | (_, OneHot(_)) => top.push((family.json.to_string(), value(0))),
                _ if family.json.is_empty() => top.extend(members),
                _ => top.push((family.json.to_string(), Value::Object(members.collect()))),
            }
        }
        Value::Object(top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_fills_counters_and_buckets() {
        let metrics = Metrics::new();
        metrics.record(Route::Healthz, 200, Duration::from_micros(50));
        metrics.record(Route::Answer, 422, Duration::from_micros(300));
        metrics.record(Route::Analysis, 500, Duration::from_secs(2));
        metrics.add(Slot::SessionsStarted, 1);
        metrics.add(Slot::SessionsFinished, 1);

        let snapshot = metrics.snapshot(3, 0);
        let by_label = |route: &str| snapshot.get(&format!("requests.{route}"));
        assert_eq!(by_label("healthz"), 1);
        assert_eq!(by_label("answer"), 1);
        assert_eq!(by_label("analysis"), 1);
        assert_eq!(by_label("session_start"), 0);
        assert_eq!(snapshot.get("status_2xx"), 1);
        assert_eq!(snapshot.get("status_4xx"), 1);
        assert_eq!(snapshot.get("status_5xx"), 1);
        assert_eq!(snapshot.get("latency_us.count"), 3);
        // 50 µs lands in the first bucket, 300 µs in the ≤500 bucket,
        // 2 s in the overflow bucket.
        assert_eq!(snapshot.get("latency_us.buckets.0.count"), 1);
        assert_eq!(snapshot.get("latency_us.buckets.2.count"), 1);
        assert_eq!(snapshot.get("latency_us.buckets.8.count"), 1);
        assert_eq!(snapshot.get("sessions_started"), 1);
        assert_eq!(snapshot.get("sessions_finished"), 1);
        assert_eq!(snapshot.get("active_sessions"), 3);
    }

    #[test]
    fn prometheus_rendering_has_type_lines_and_cumulative_buckets() {
        let metrics = Metrics::new();
        metrics.record(Route::Healthz, 200, Duration::from_micros(50));
        metrics.record(Route::Answer, 200, Duration::from_micros(80));
        metrics.record(Route::Answer, 422, Duration::from_micros(300));
        metrics.record(Route::Analysis, 500, Duration::from_secs(2));
        let text = metrics.snapshot(2, 0).to_prometheus();

        assert!(text.contains("# TYPE mine_requests_total counter"));
        assert!(text.contains("mine_requests_total{route=\"answer\"} 2"));
        assert!(text.contains("# TYPE mine_request_duration_seconds histogram"));
        // Two 50/80 µs observations land in the first (≤100 µs = 1e-4 s)
        // bucket; cumulative counts keep growing monotonically.
        assert!(text.contains("mine_request_duration_seconds_bucket{le=\"0.0001\"} 2"));
        assert!(text.contains("mine_request_duration_seconds_bucket{le=\"0.0005\"} 3"));
        assert!(text.contains("mine_request_duration_seconds_bucket{le=\"1\"} 3"));
        assert!(text.contains("mine_request_duration_seconds_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("mine_request_duration_seconds_count 4"));
        assert!(text.contains("mine_responses_total{class=\"5xx\"} 1"));
        assert!(text.contains("# TYPE mine_active_sessions gauge"));
        assert!(text.contains("mine_active_sessions 2"));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn overload_gauges_and_counters_render_everywhere() {
        let metrics = Metrics::new();
        metrics.shed(Slot::ShedTotal, 2);
        metrics.shed(Slot::ShedTotal, 3);
        metrics.shed(Slot::RateLimitedTotal, 1);
        metrics.add(Slot::QueueDepth, 1);
        metrics.add(Slot::QueueDepth, 1);
        metrics.sub(Slot::QueueDepth, 1);
        metrics.add(Slot::InflightRequests, 1);
        metrics.set(Slot::DrainState, 1);

        let snapshot = metrics.snapshot(0, 0);
        assert_eq!(snapshot.get("shed_total"), 2);
        assert_eq!(snapshot.get("rate_limited_total"), 1);
        assert_eq!(snapshot.get("queue_depth"), 1);
        assert_eq!(snapshot.get("inflight_requests"), 1);
        assert_eq!(snapshot.get("drain_state"), 1);
        // The gauge remembers the most recent advertisement.
        assert_eq!(snapshot.get("retry_after_secs"), 1);

        let text = snapshot.to_prometheus();
        assert!(text.contains("# TYPE mine_shed_total counter"));
        assert!(text.contains("mine_shed_total 2"));
        assert!(text.contains("mine_rate_limited_total 1"));
        assert!(text.contains("# TYPE mine_queue_depth gauge"));
        assert!(text.contains("mine_queue_depth 1"));
        assert!(text.contains("mine_drain_state 1"));
        assert!(text.contains("mine_inflight_requests 1"));
        assert!(text.contains("mine_retry_after_seconds 1"));

        let json = serde_json::to_string(&snapshot).unwrap();
        let value: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(value.get("shed_total").unwrap().kind(), "number");
        assert_eq!(value.get("drain_state").unwrap().kind(), "number");
        assert_eq!(value.get("queue_depth").unwrap().kind(), "number");
    }

    #[test]
    fn repl_gauges_render_one_hot_role_and_counters() {
        let metrics = Metrics::new();
        metrics.set(Slot::ReplRole, 1);
        metrics.set(Slot::ReplEpoch, 3);
        metrics.set(Slot::ReplLastAppliedSeq, 41);
        metrics.set(Slot::ReplLag, 2);
        metrics.set(Slot::ReplFollowers, 0);
        metrics.add(Slot::ReplQuorumTimeouts, 1);
        metrics.add(Slot::Redirected, 1);
        metrics.add(Slot::Redirected, 1);
        metrics.add(Slot::ReplSuspicions, 1);
        metrics.add(Slot::ReplSuspicions, 1);
        metrics.add(Slot::ReplFailovers, 1);
        metrics.add(Slot::ReplReconnects, 1);
        metrics.add(Slot::ReplReconnects, 1);
        metrics.add(Slot::ReplReconnects, 1);
        metrics.set(Slot::ReplHeartbeatAgeUs, 2_500_000);

        let snapshot = metrics.snapshot(0, 0);
        assert_eq!(snapshot.get("repl_role"), 1);
        assert_eq!(snapshot.get("repl_epoch"), 3);
        assert_eq!(snapshot.get("repl_last_applied_seq"), 41);
        assert_eq!(snapshot.get("repl_lag"), 2);
        assert_eq!(snapshot.get("repl_quorum_timeouts_total"), 1);
        assert_eq!(snapshot.get("redirected_total"), 2);
        assert_eq!(snapshot.get("repl_suspicions_total"), 2);
        assert_eq!(snapshot.get("repl_failovers_total"), 1);
        assert_eq!(snapshot.get("repl_reconnects_total"), 3);
        assert_eq!(snapshot.get("repl_heartbeat_age_us"), 2_500_000);

        let text = snapshot.to_prometheus();
        assert!(text.contains("mine_repl_role{role=\"primary\"} 0"));
        assert!(text.contains("mine_repl_role{role=\"follower\"} 1"));
        assert!(text.contains("mine_repl_role{role=\"candidate\"} 0"));
        assert!(text.contains("mine_repl_epoch 3"));
        assert!(text.contains("mine_repl_last_applied_seq 41"));
        assert!(text.contains("mine_repl_lag 2"));
        assert!(text.contains("mine_repl_quorum_timeouts_total 1"));
        assert!(text.contains("mine_redirected_total 2"));
        assert!(text.contains("# TYPE mine_repl_failovers_total counter"));
        assert!(text.contains("mine_repl_failovers_total 1"));
        assert!(text.contains("mine_repl_suspicions_total 2"));
        assert!(text.contains("mine_repl_reconnects_total 3"));
        assert!(text.contains("# TYPE mine_repl_heartbeat_age_seconds gauge"));
        assert!(text.contains("mine_repl_heartbeat_age_seconds 2.5"));

        let json = serde_json::to_string(&snapshot).unwrap();
        let value: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(value.get("repl_epoch").unwrap().kind(), "number");
        assert_eq!(value.get("redirected_total").unwrap().kind(), "number");
        assert_eq!(value.get("repl_failovers_total").unwrap().kind(), "number");
        assert_eq!(value.get("repl_heartbeat_age_us").unwrap().kind(), "number");
    }

    #[test]
    fn scrub_and_degraded_metrics_render_everywhere() {
        let metrics = Metrics::new();
        metrics.add(Slot::ScrubPasses, 1);
        metrics.add(Slot::ScrubPasses, 1);
        metrics.add(Slot::ScrubCorruptSegments, 3);
        metrics.add(Slot::RepairSegments, 1);
        metrics.set(Slot::StorageDegraded, 1);

        let snapshot = metrics.snapshot(0, 0);
        assert_eq!(snapshot.get("scrub_passes_total"), 2);
        assert_eq!(snapshot.get("scrub_corrupt_segments_total"), 3);
        assert_eq!(snapshot.get("repair_segments_total"), 1);
        assert_eq!(snapshot.get("storage_degraded"), 1);

        let text = snapshot.to_prometheus();
        assert!(text.contains("# TYPE mine_scrub_passes_total counter"));
        assert!(text.contains("mine_scrub_passes_total 2"));
        assert!(text.contains("mine_scrub_corrupt_segments_total 3"));
        assert!(text.contains("# TYPE mine_repair_segments_total counter"));
        assert!(text.contains("mine_repair_segments_total 1"));
        assert!(text.contains("# TYPE mine_storage_degraded gauge"));
        assert!(text.contains("mine_storage_degraded 1"));

        metrics.set(Slot::StorageDegraded, 0);
        let text = metrics.snapshot(0, 0).to_prometheus();
        assert!(text.contains("mine_storage_degraded 0"));

        let json = serde_json::to_string(&snapshot).unwrap();
        let value: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(value.get("scrub_passes_total").unwrap().kind(), "number");
        assert_eq!(
            value.get("scrub_corrupt_segments_total").unwrap().kind(),
            "number"
        );
        assert_eq!(value.get("repair_segments_total").unwrap().kind(), "number");
        assert_eq!(value.get("storage_degraded").unwrap().kind(), "number");
    }

    #[test]
    fn analysis_histogram_is_labeled_by_mode() {
        let metrics = Metrics::new();
        metrics.observe(Hist::AnalysisCold, Duration::from_millis(20));
        metrics.observe(Hist::AnalysisCold, Duration::from_millis(90));
        metrics.observe(Hist::AnalysisStreaming, Duration::from_micros(60));
        metrics.set(Slot::PoolWorkers, 4);
        metrics.set(Slot::PoolSteals, 17);

        let snapshot = metrics.snapshot(0, 0);
        assert_eq!(snapshot.get("analysis_duration_us.cold.count"), 2);
        assert_eq!(snapshot.get("analysis_duration_us.streaming.count"), 1);
        // 60 µs lands in the first streaming bucket; cold times stay
        // separate.
        assert_eq!(snapshot.get("analysis_duration_us.cold.buckets.0.count"), 0);
        assert_eq!(
            snapshot.get("analysis_duration_us.streaming.buckets.0.count"),
            1
        );
        assert_eq!(snapshot.get("pool_workers"), 4);
        assert_eq!(snapshot.get("pool_steals_total"), 17);

        let text = snapshot.to_prometheus();
        assert!(text.contains("# TYPE mine_analysis_duration_seconds histogram"));
        assert!(
            text.contains("mine_analysis_duration_seconds_count{mode=\"batch\",cache=\"cold\"} 2")
        );
        assert!(text.contains("mine_analysis_duration_seconds_count{mode=\"streaming\"} 1"));
        // Cumulative buckets per label: both cold observations are ≤ 0.1 s.
        assert!(text.contains(
            "mine_analysis_duration_seconds_bucket{mode=\"batch\",cache=\"cold\",le=\"0.1\"} 2"
        ));
        assert!(text
            .contains("mine_analysis_duration_seconds_bucket{mode=\"streaming\",le=\"0.0001\"} 1"));
        assert!(text.contains("# TYPE mine_pool_workers gauge"));
        assert!(text.contains("mine_pool_workers 4"));
        assert!(text.contains("# TYPE mine_pool_steals_total counter"));
        assert!(text.contains("mine_pool_steals_total 17"));

        let json = serde_json::to_string(&snapshot).unwrap();
        let value: Value = serde_json::from_str(&json).unwrap();
        let analysis = value.get("analysis_duration_us").unwrap();
        assert!(analysis.get("cold").is_some());
        assert!(analysis.get("hit").is_none());
        assert!(analysis.get("streaming").is_some());
        assert_eq!(value.get("pool_workers").unwrap().kind(), "number");
        assert_eq!(value.get("pool_steals_total").unwrap().kind(), "number");
    }

    #[test]
    fn streaming_updates_fill_counter_and_histogram() {
        let metrics = Metrics::new();
        metrics.observe(Hist::StreamingUpdate, Duration::from_micros(80));
        metrics.observe(Hist::StreamingUpdate, Duration::from_micros(400));
        metrics.observe(Hist::StreamingUpdate, Duration::from_millis(30));

        let snapshot = metrics.snapshot(0, 0);
        assert_eq!(snapshot.get("streaming_updates_total"), 3);
        assert_eq!(snapshot.get("streaming_update_us.buckets.0.count"), 1);
        assert_eq!(snapshot.get("streaming_update_us.buckets.2.count"), 1);
        assert_eq!(snapshot.get("streaming_update_us.sum"), 80 + 400 + 30_000);

        let text = snapshot.to_prometheus();
        assert!(text.contains("# TYPE mine_streaming_update_seconds histogram"));
        assert!(text.contains("mine_streaming_update_seconds_bucket{le=\"0.0001\"} 1"));
        assert!(text.contains("mine_streaming_update_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("mine_streaming_update_seconds_count 3"));
        assert!(text.contains("# TYPE mine_streaming_updates_total counter"));
        assert!(text.contains("mine_streaming_updates_total 3"));

        let json = serde_json::to_string(&snapshot).unwrap();
        let value: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(
            value.get("streaming_updates_total").unwrap().kind(),
            "number"
        );
        assert!(value
            .get("streaming_update_us")
            .unwrap()
            .get("buckets")
            .is_some());
    }

    #[test]
    fn adaptive_counters_and_histogram_render_everywhere() {
        let metrics = Metrics::new();
        metrics.add(Slot::AdaptiveStarted, 1);
        metrics.add(Slot::AdaptiveStarted, 1);
        metrics.add(Slot::AdaptiveFinished, 1);
        metrics.observe(Hist::AdaptiveStep, Duration::from_micros(90));
        metrics.observe(Hist::AdaptiveStep, Duration::from_millis(40));

        let snapshot = metrics.snapshot(0, 1);
        assert_eq!(snapshot.get("adaptive_sessions_started"), 2);
        assert_eq!(snapshot.get("adaptive_sessions_finished"), 1);
        assert_eq!(snapshot.get("adaptive_sessions_active"), 1);
        assert_eq!(snapshot.get("adaptive_steps_total"), 2);
        assert_eq!(snapshot.get("adaptive_step_us.buckets.0.count"), 1);
        assert_eq!(snapshot.get("adaptive_step_us.sum"), 90 + 40_000);

        let text = snapshot.to_prometheus();
        assert!(text.contains("# TYPE mine_adaptive_step_seconds histogram"));
        assert!(text.contains("mine_adaptive_step_seconds_bucket{le=\"0.0001\"} 1"));
        assert!(text.contains("mine_adaptive_step_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("mine_adaptive_steps_total 2"));
        assert!(text.contains("# TYPE mine_adaptive_sessions_active gauge"));
        assert!(text.contains("mine_adaptive_sessions_active 1"));
        assert!(text.contains("mine_adaptive_sessions_started_total 2"));
        assert!(text.contains("mine_adaptive_sessions_finished_total 1"));

        let json = serde_json::to_string(&snapshot).unwrap();
        let value: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(value.get("adaptive_steps_total").unwrap().kind(), "number");
        assert!(value
            .get("adaptive_step_us")
            .unwrap()
            .get("buckets")
            .is_some());
    }

    /// A deterministic snapshot in which every counter, gauge and
    /// histogram holds a distinct non-zero value, with observations in
    /// every latency bucket including `+Inf`.
    fn golden_snapshot() -> MetricsSnapshot {
        const LATENCIES_US: [u64; 9] =
            [40, 170, 420, 730, 3_100, 17_000, 64_000, 480_000, 2_750_000];
        let metrics = Metrics::new();
        let mut n = 0;
        for (i, route) in Route::ALL.iter().enumerate() {
            for _ in 0..i + 3 {
                let status = [200, 201, 204, 404, 429, 503, 200][n % 7];
                metrics.record(
                    *route,
                    status,
                    Duration::from_micros(LATENCIES_US[n % 9] + n as u64),
                );
                n += 1;
            }
        }
        let observe = |count: usize, offset: usize, record: &dyn Fn(Duration)| {
            for k in 0..count {
                record(Duration::from_micros(
                    LATENCIES_US[(k + offset) % 9] + k as u64,
                ));
            }
        };
        observe(50, 0, &|d| metrics.observe(Hist::AnalysisCold, d));
        observe(52, 2, &|d| metrics.observe(Hist::AnalysisStreaming, d));
        observe(53, 3, &|d| metrics.observe(Hist::StreamingUpdate, d));
        observe(54, 4, &|d| metrics.observe(Hist::AdaptiveStep, d));
        metrics.add(Slot::SessionsStarted, 23);
        metrics.add(Slot::SessionsFinished, 24);
        metrics.add(Slot::ShedTotal, 25);
        metrics.add(Slot::RateLimitedTotal, 26);
        metrics.set(Slot::RetryAfterSecs, 27);
        metrics.add(Slot::QueueDepth, 30);
        metrics.sub(Slot::QueueDepth, 2);
        metrics.add(Slot::InflightRequests, 29);
        metrics.set(Slot::DrainState, 2);
        metrics.set(Slot::ReplRole, 1);
        metrics.set(Slot::ReplEpoch, 31);
        metrics.set(Slot::ReplLastAppliedSeq, 32);
        metrics.set(Slot::ReplLag, 33);
        metrics.set(Slot::ReplFollowers, 34);
        metrics.set(Slot::ReplHeartbeatAgeUs, 2_345_678);
        metrics.add(Slot::ReplQuorumTimeouts, 35);
        metrics.add(Slot::Redirected, 36);
        metrics.add(Slot::ReplFailovers, 37);
        metrics.add(Slot::ReplSuspicions, 38);
        metrics.add(Slot::ReplReconnects, 39);
        metrics.set(Slot::PoolWorkers, 40);
        metrics.set(Slot::PoolSteals, 41);
        metrics.add(Slot::AdaptiveStarted, 42);
        metrics.add(Slot::AdaptiveFinished, 43);
        metrics.add(Slot::ScrubPasses, 46);
        metrics.add(Slot::ScrubCorruptSegments, 47);
        metrics.add(Slot::RepairSegments, 48);
        metrics.set(Slot::StorageDegraded, 1);
        metrics.snapshot(44, 45)
    }

    /// Sorts object keys at every level, so two renderings compare by
    /// keys and values alone.
    fn sorted(value: Value) -> Value {
        match value {
            Value::Object(entries) => {
                let mut entries: Vec<_> =
                    entries.into_iter().map(|(k, v)| (k, sorted(v))).collect();
                entries.sort_by(|a, b| a.0.cmp(&b.0));
                Value::Object(entries)
            }
            Value::Array(items) => Value::Array(items.into_iter().map(sorted).collect()),
            other => other,
        }
    }

    #[test]
    fn golden_renderings_match_the_fixtures() {
        let snapshot = golden_snapshot();
        assert_eq!(
            snapshot.to_prometheus(),
            include_str!("../tests/golden/metrics.prom")
        );
        let json: Value = serde_json::from_str(&serde_json::to_string(&snapshot).unwrap()).unwrap();
        let fixture: Value =
            serde_json::from_str(include_str!("../tests/golden/metrics.json")).unwrap();
        assert_eq!(sorted(json), sorted(fixture));
    }

    #[test]
    fn route_index_is_its_position_in_all() {
        for (i, route) in Route::ALL.iter().enumerate() {
            assert_eq!(route.index(), i);
            assert_eq!(route.label(), Route::LABELS[i]);
        }
    }

    #[test]
    fn snapshot_renders_as_json() {
        let metrics = Metrics::new();
        metrics.record(Route::Metrics, 200, Duration::from_micros(10));
        let json = serde_json::to_string(&metrics.snapshot(0, 0)).unwrap();
        let value: Value = serde_json::from_str(&json).unwrap();
        assert!(value.get("requests").is_some());
        assert!(value.get("latency_us").is_some());
        assert!(value.get("active_sessions").is_some());
    }
}
