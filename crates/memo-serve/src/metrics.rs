//! Service-wide counters and the `/metrics` text exposition.
//!
//! Everything is atomics and [`Histogram`]s — recording never takes a
//! lock on the request path. The exposition follows the Prometheus text
//! format (`# TYPE` lines plus `name{label="…"} value`), rendered with
//! deterministic label ordering so tests can assert on substrings.

use std::sync::atomic::{AtomicU64, Ordering};

use memo_experiments::cache::{BreakerState, TierBreakerStats};
use memo_experiments::results;

use crate::hist::Histogram;

/// Route classes tracked independently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// `/healthz`
    Healthz,
    /// `/metrics`
    Metrics,
    /// `/v1/table/{n}`
    Table,
    /// `/v1/figure/{n}`
    Figure,
    /// `/v1/sweep`
    Sweep,
    /// `/v1/region`
    Region,
    /// Anything else (404s, bad methods, …).
    Other,
}

impl Endpoint {
    /// All endpoint classes, in exposition order.
    pub const ALL: [Endpoint; 7] = [
        Endpoint::Healthz,
        Endpoint::Metrics,
        Endpoint::Table,
        Endpoint::Figure,
        Endpoint::Sweep,
        Endpoint::Region,
        Endpoint::Other,
    ];

    /// Stable label value for the exposition.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Endpoint::Healthz => "healthz",
            Endpoint::Metrics => "metrics",
            Endpoint::Table => "table",
            Endpoint::Figure => "figure",
            Endpoint::Sweep => "sweep",
            Endpoint::Region => "region",
            Endpoint::Other => "other",
        }
    }

    fn index(self) -> usize {
        match self {
            Endpoint::Healthz => 0,
            Endpoint::Metrics => 1,
            Endpoint::Table => 2,
            Endpoint::Figure => 3,
            Endpoint::Sweep => 4,
            Endpoint::Region => 5,
            Endpoint::Other => 6,
        }
    }
}

/// How the result cache treated a request (label `cache`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the in-memory sharded result cache.
    Hit,
    /// Loaded from the persistent store — no computation ran.
    Disk,
    /// Computed fresh (includes coalesced waiters).
    Miss,
    /// The endpoint has no cacheable result (healthz, metrics, errors).
    Uncached,
}

impl CacheOutcome {
    fn index(self) -> usize {
        match self {
            CacheOutcome::Hit => 0,
            CacheOutcome::Disk => 1,
            CacheOutcome::Miss | CacheOutcome::Uncached => 2,
        }
    }
}

struct EndpointStats {
    requests: AtomicU64,
    responses_2xx: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
    // [0] = memory hits, [1] = disk hits, [2] = misses/uncached.
    latency: [Histogram; 3],
}

impl EndpointStats {
    fn new() -> Self {
        EndpointStats {
            requests: AtomicU64::new(0),
            responses_2xx: AtomicU64::new(0),
            responses_4xx: AtomicU64::new(0),
            responses_5xx: AtomicU64::new(0),
            latency: [Histogram::new(), Histogram::new(), Histogram::new()],
        }
    }
}

/// The counters a [`Frontend`](crate::server::Frontend) keeps for the
/// tier it serves. Each tier's `/metrics` renders them under its own
/// prefix ([`render`](Self::render)).
#[derive(Debug, Default)]
pub struct ConnectionCounters {
    /// Connections accepted off the listener.
    pub connections_accepted: AtomicU64,
    /// Connections shed with 503 because the queue was full.
    pub queue_rejections: AtomicU64,
    /// Connections closed by the read timeout (with 408 when they held
    /// part of a request).
    pub timeouts: AtomicU64,
    /// Requests answered 503 because their deadline budget ran out (in
    /// the queue or before rendering) instead of stalling a worker. Only
    /// nodes set a deadline.
    pub deadline_exceeded: AtomicU64,
}

impl ConnectionCounters {
    /// Append the counters to a `/metrics` exposition as
    /// `{prefix}_<counter>_total`.
    pub fn render(&self, prefix: &str, out: &mut String) {
        for (name, counter) in [
            ("queue_rejections", &self.queue_rejections),
            ("connections_accepted", &self.connections_accepted),
            ("timeouts", &self.timeouts),
            ("deadline_exceeded", &self.deadline_exceeded),
        ] {
            let value = counter.load(Ordering::Relaxed);
            out.push_str(&format!("# TYPE {prefix}_{name}_total counter\n{prefix}_{name}_total {value}\n"));
        }
    }
}

/// All counters for one server instance.
pub struct Metrics {
    endpoints: Vec<EndpointStats>,
    /// The front end's counters. They read as fields of `Metrics` too
    /// (`metrics.timeouts`), through `Deref`.
    pub connections: ConnectionCounters,
    /// Requests that hit the server-side result cache in memory.
    pub cache_hits: AtomicU64,
    /// Requests served by loading a persisted result from the store.
    pub cache_disk_hits: AtomicU64,
    /// Requests that computed (or waited on) a fresh result.
    pub cache_misses: AtomicU64,
    /// Store operations (load or persist) that ultimately failed after
    /// retries — each one also charged the disk-tier breaker.
    pub store_io_errors: AtomicU64,
    /// Retries spent on transient store errors (attempts beyond the
    /// first, summed over all store operations).
    pub store_retries: AtomicU64,
    /// Artifacts installed through `POST /v1/warm` (the cluster
    /// router's read-repair path re-warming this replica).
    pub warms: AtomicU64,
}

impl std::ops::Deref for Metrics {
    type Target = ConnectionCounters;

    fn deref(&self) -> &ConnectionCounters {
        &self.connections
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh zeroed metrics.
    #[must_use]
    pub fn new() -> Self {
        Metrics {
            endpoints: Endpoint::ALL.iter().map(|_| EndpointStats::new()).collect(),
            connections: ConnectionCounters::default(),
            cache_hits: AtomicU64::new(0),
            cache_disk_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            store_io_errors: AtomicU64::new(0),
            store_retries: AtomicU64::new(0),
            warms: AtomicU64::new(0),
        }
    }

    /// Record one finished request: status class, cache outcome, and
    /// handling latency in microseconds.
    pub fn observe(&self, endpoint: Endpoint, status: u16, cache: CacheOutcome, micros: u64) {
        let stats = &self.endpoints[endpoint.index()];
        stats.requests.fetch_add(1, Ordering::Relaxed);
        match status {
            200..=299 => stats.responses_2xx.fetch_add(1, Ordering::Relaxed),
            400..=499 => stats.responses_4xx.fetch_add(1, Ordering::Relaxed),
            _ => stats.responses_5xx.fetch_add(1, Ordering::Relaxed),
        };
        stats.latency[cache.index()].record(micros);
        match cache {
            CacheOutcome::Hit => {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
            }
            CacheOutcome::Disk => {
                self.cache_disk_hits.fetch_add(1, Ordering::Relaxed);
            }
            CacheOutcome::Miss => {
                self.cache_misses.fetch_add(1, Ordering::Relaxed);
            }
            CacheOutcome::Uncached => {}
        }
    }

    /// Total requests across all endpoints.
    #[must_use]
    pub fn total_requests(&self) -> u64 {
        self.endpoints.iter().map(|e| e.requests.load(Ordering::Relaxed)).sum()
    }

    /// Render the Prometheus-style text exposition.
    ///
    /// `queue_depth` and `draining` are point-in-time server state the
    /// metrics struct does not own; `serve_cache` is a snapshot of the
    /// rendered-result cache, `store` of the persistent tier when one is
    /// attached, and `breaker` of the disk-tier circuit breaker guarding
    /// that tier.
    #[must_use]
    pub fn render(
        &self,
        queue_depth: usize,
        workers: usize,
        draining: bool,
        serve_cache: &memo_experiments::cache::CacheStats,
        store: Option<&memo_store::StoreStats>,
        breaker: &TierBreakerStats,
    ) -> String {
        let mut out = String::with_capacity(4096);
        let g = |v: u64| v.to_string();

        out.push_str("# TYPE memo_serve_requests_total counter\n");
        for ep in Endpoint::ALL {
            let s = &self.endpoints[ep.index()];
            out.push_str(&format!(
                "memo_serve_requests_total{{endpoint=\"{}\"}} {}\n",
                ep.label(),
                s.requests.load(Ordering::Relaxed)
            ));
        }
        out.push_str("# TYPE memo_serve_responses_total counter\n");
        for ep in Endpoint::ALL {
            let s = &self.endpoints[ep.index()];
            for (class, count) in [
                ("2xx", &s.responses_2xx),
                ("4xx", &s.responses_4xx),
                ("5xx", &s.responses_5xx),
            ] {
                out.push_str(&format!(
                    "memo_serve_responses_total{{endpoint=\"{}\",class=\"{class}\"}} {}\n",
                    ep.label(),
                    count.load(Ordering::Relaxed)
                ));
            }
        }

        out.push_str("# TYPE memo_serve_latency_seconds summary\n");
        for ep in Endpoint::ALL {
            let s = &self.endpoints[ep.index()];
            for (cache, hist) in
                [("hit", &s.latency[0]), ("disk", &s.latency[1]), ("miss", &s.latency[2])]
            {
                if hist.count() == 0 {
                    continue;
                }
                for (q, qs) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                    #[allow(clippy::cast_precision_loss)]
                    let secs = hist.quantile(q) as f64 / 1e6;
                    out.push_str(&format!(
                        "memo_serve_latency_seconds{{endpoint=\"{}\",cache=\"{cache}\",quantile=\"{qs}\"}} {secs:.6}\n",
                        ep.label(),
                    ));
                }
                out.push_str(&format!(
                    "memo_serve_latency_seconds_count{{endpoint=\"{}\",cache=\"{cache}\"}} {}\n",
                    ep.label(),
                    hist.count()
                ));
            }
        }

        out.push_str("# TYPE memo_serve_queue_depth gauge\n");
        out.push_str(&format!("memo_serve_queue_depth {queue_depth}\n"));
        out.push_str("# TYPE memo_serve_workers gauge\n");
        out.push_str(&format!("memo_serve_workers {workers}\n"));
        out.push_str("# TYPE memo_serve_draining gauge\n");
        out.push_str(&format!("memo_serve_draining {}\n", u8::from(draining)));
        self.connections.render("memo_serve", &mut out);
        out.push_str("# TYPE memo_serve_warms_total counter\n");
        out.push_str(&format!("memo_serve_warms_total {}\n", g(self.warms.load(Ordering::Relaxed))));
        out.push_str("# TYPE memo_store_io_errors_total counter\n");
        out.push_str(&format!(
            "memo_store_io_errors_total {}\n",
            g(self.store_io_errors.load(Ordering::Relaxed))
        ));
        out.push_str("# TYPE memo_store_retries_total counter\n");
        out.push_str(&format!(
            "memo_store_retries_total {}\n",
            g(self.store_retries.load(Ordering::Relaxed))
        ));

        // The disk-tier circuit breaker: 0 = closed (healthy), 1 =
        // half-open (probing), 2 = open (tier skipped).
        let breaker_state = match breaker.state {
            BreakerState::Closed => 0,
            BreakerState::HalfOpen => 1,
            BreakerState::Open => 2,
        };
        out.push_str("# TYPE memo_tier_breaker_state gauge\n");
        out.push_str(&format!("memo_tier_breaker_state {breaker_state}\n"));
        out.push_str("# TYPE memo_tier_breaker_trips_total counter\n");
        out.push_str(&format!("memo_tier_breaker_trips_total {}\n", breaker.trips));
        out.push_str("# TYPE memo_tier_breaker_failures_total counter\n");
        out.push_str(&format!("memo_tier_breaker_failures_total {}\n", breaker.failures));
        out.push_str("# TYPE memo_tier_breaker_probes_total counter\n");
        out.push_str(&format!("memo_tier_breaker_probes_total {}\n", breaker.probes));
        out.push_str("# TYPE memo_serve_cache_hits_total counter\n");
        out.push_str(&format!("memo_serve_cache_hits_total {}\n", g(self.cache_hits.load(Ordering::Relaxed))));
        out.push_str("# TYPE memo_serve_cache_disk_hits_total counter\n");
        out.push_str(&format!(
            "memo_serve_cache_disk_hits_total {}\n",
            g(self.cache_disk_hits.load(Ordering::Relaxed))
        ));
        out.push_str("# TYPE memo_serve_cache_misses_total counter\n");
        out.push_str(&format!(
            "memo_serve_cache_misses_total {}\n",
            g(self.cache_misses.load(Ordering::Relaxed))
        ));
        out.push_str("# TYPE memo_serve_cache_entries gauge\n");
        out.push_str(&format!("memo_serve_cache_entries {}\n", serve_cache.len));
        out.push_str("# TYPE memo_serve_cache_bytes gauge\n");
        out.push_str(&format!("memo_serve_cache_bytes {}\n", serve_cache.approx_bytes));

        // The process-wide experiment result cache (memo-experiments).
        let exp = results::stats();
        out.push_str("# TYPE memo_experiments_cache_hits_total counter\n");
        out.push_str(&format!("memo_experiments_cache_hits_total {}\n", exp.hits));
        out.push_str("# TYPE memo_experiments_cache_misses_total counter\n");
        out.push_str(&format!("memo_experiments_cache_misses_total {}\n", exp.misses));
        out.push_str("# TYPE memo_experiments_cache_coalesced_total counter\n");
        out.push_str(&format!("memo_experiments_cache_coalesced_total {}\n", exp.coalesced));
        out.push_str("# TYPE memo_experiments_cache_entries gauge\n");
        out.push_str(&format!("memo_experiments_cache_entries {}\n", exp.len));

        // The persistent store, when one backs this server.
        out.push_str("# TYPE memo_store_attached gauge\n");
        out.push_str(&format!("memo_store_attached {}\n", u8::from(store.is_some())));
        if let Some(st) = store {
            for (name, value) in [
                ("memo_store_memtable_hits_total", st.memtable_hits),
                ("memo_store_segment_hits_total", st.segment_hits),
                ("memo_store_misses_total", st.misses),
                ("memo_store_writes_total", st.writes),
                ("memo_store_flushes_total", st.flushes),
                ("memo_store_compactions_total", st.compactions),
                ("memo_store_bytes_read_total", st.bytes_read),
                ("memo_store_bytes_written_total", st.bytes_written),
                ("memo_store_recovered_ops_total", st.recovered_ops),
                ("memo_store_flush_failures_total", st.flush_failures),
                ("memo_store_bloom_negatives_total", st.bloom_negatives),
                ("memo_store_bloom_false_positives_total", st.bloom_false_positives),
                ("memo_store_block_cache_hits_total", st.block_cache_hits),
                ("memo_store_block_cache_misses_total", st.block_cache_misses),
            ] {
                out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
            }
            for (name, value) in [
                ("memo_store_segments", st.segments),
                ("memo_store_segment_bytes", st.segment_bytes),
                ("memo_store_memtable_entries", st.memtable_entries),
                ("memo_store_memtable_bytes", st.memtable_bytes),
            ] {
                out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
            }
            // Derived effectiveness ratios, precomputed so dashboards and
            // smoke tests need no PromQL. FP rate = false positives over
            // all absent-key filter verdicts (negatives blocked + false
            // positives let through): the share of screenable probes the
            // filter failed to block.
            #[allow(clippy::cast_precision_loss)]
            let fp_rate = {
                let screened = st.bloom_false_positives + st.bloom_negatives;
                if screened == 0 { 0.0 } else { st.bloom_false_positives as f64 / screened as f64 }
            };
            out.push_str("# TYPE memo_store_bloom_false_positive_rate gauge\n");
            out.push_str(&format!("memo_store_bloom_false_positive_rate {fp_rate:.6}\n"));
            #[allow(clippy::cast_precision_loss)]
            let hit_ratio = {
                let probes = st.block_cache_hits + st.block_cache_misses;
                if probes == 0 { 0.0 } else { st.block_cache_hits as f64 / probes as f64 }
            };
            out.push_str("# TYPE memo_store_block_cache_hit_ratio gauge\n");
            out.push_str(&format!("memo_store_block_cache_hit_ratio {hit_ratio:.6}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memo_experiments::cache::CacheStats;

    fn closed_breaker() -> TierBreakerStats {
        TierBreakerStats { state: BreakerState::Closed, trips: 0, failures: 0, probes: 0 }
    }

    fn render(m: &Metrics, queue_depth: usize, workers: usize, draining: bool) -> String {
        m.render(queue_depth, workers, draining, &CacheStats::default(), None, &closed_breaker())
    }

    #[test]
    fn observe_rolls_up_by_endpoint_and_class() {
        let m = Metrics::new();
        m.observe(Endpoint::Table, 200, CacheOutcome::Miss, 1500);
        m.observe(Endpoint::Table, 200, CacheOutcome::Hit, 30);
        m.observe(Endpoint::Figure, 200, CacheOutcome::Disk, 200);
        m.observe(Endpoint::Sweep, 400, CacheOutcome::Uncached, 90);
        m.observe(Endpoint::Other, 503, CacheOutcome::Uncached, 10);
        assert_eq!(m.total_requests(), 5);
        assert_eq!(m.cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(m.cache_disk_hits.load(Ordering::Relaxed), 1);
        assert_eq!(m.cache_misses.load(Ordering::Relaxed), 1);

        let text = render(&m, 3, 4, false);
        assert!(text.contains("memo_serve_requests_total{endpoint=\"table\"} 2"));
        assert!(text.contains("memo_serve_responses_total{endpoint=\"sweep\",class=\"4xx\"} 1"));
        assert!(text.contains("memo_serve_responses_total{endpoint=\"other\",class=\"5xx\"} 1"));
        assert!(text.contains("memo_serve_queue_depth 3"));
        assert!(text.contains("memo_serve_workers 4"));
        assert!(text.contains("memo_serve_cache_hits_total 1"));
        assert!(text.contains("memo_serve_cache_disk_hits_total 1"));
        assert!(text.contains("memo_serve_latency_seconds{endpoint=\"table\",cache=\"hit\",quantile=\"0.5\"}"));
        assert!(text.contains("memo_serve_latency_seconds{endpoint=\"figure\",cache=\"disk\",quantile=\"0.5\"}"));
    }

    #[test]
    fn render_reports_draining_flag() {
        let m = Metrics::new();
        assert!(render(&m, 0, 1, true).contains("memo_serve_draining 1"));
        assert!(render(&m, 0, 1, false).contains("memo_serve_draining 0"));
    }

    #[test]
    fn render_exposes_cache_gauges_and_store_stats_when_attached() {
        let m = Metrics::new();
        let cache = CacheStats { len: 3, approx_bytes: 512, ..CacheStats::default() };
        let without = m.render(0, 1, false, &cache, None, &closed_breaker());
        assert!(without.contains("memo_serve_cache_entries 3"));
        assert!(without.contains("memo_serve_cache_bytes 512"));
        assert!(without.contains("memo_store_attached 0"));
        assert!(!without.contains("memo_store_segments"));

        let store =
            memo_store::StoreStats { segment_hits: 7, segments: 2, ..Default::default() };
        let with = m.render(0, 1, false, &cache, Some(&store), &closed_breaker());
        assert!(with.contains("memo_store_attached 1"));
        assert!(with.contains("memo_store_segment_hits_total 7"));
        assert!(with.contains("memo_store_segments 2"));
    }

    #[test]
    fn render_exposes_flush_bloom_and_block_cache_metrics() {
        let m = Metrics::new();
        let store = memo_store::StoreStats {
            flush_failures: 1,
            bloom_negatives: 30,
            bloom_false_positives: 10,
            block_cache_hits: 3,
            block_cache_misses: 1,
            ..Default::default()
        };
        let text = m.render(0, 1, false, &CacheStats::default(), Some(&store), &closed_breaker());
        assert!(text.contains("memo_store_flush_failures_total 1"));
        assert!(text.contains("memo_store_bloom_negatives_total 30"));
        assert!(text.contains("memo_store_bloom_false_positives_total 10"));
        assert!(text.contains("memo_store_block_cache_hits_total 3"));
        assert!(text.contains("memo_store_block_cache_misses_total 1"));
        assert!(text.contains("memo_store_bloom_false_positive_rate 0.250000"));
        assert!(text.contains("memo_store_block_cache_hit_ratio 0.750000"));

        // Zero activity must render 0, not NaN.
        let idle = memo_store::StoreStats::default();
        let text = m.render(0, 1, false, &CacheStats::default(), Some(&idle), &closed_breaker());
        assert!(text.contains("memo_store_bloom_false_positive_rate 0.000000"));
        assert!(text.contains("memo_store_block_cache_hit_ratio 0.000000"));
    }

    #[test]
    fn render_exposes_breaker_and_resilience_counters() {
        let m = Metrics::new();
        m.store_io_errors.fetch_add(4, Ordering::Relaxed);
        m.store_retries.fetch_add(9, Ordering::Relaxed);
        m.deadline_exceeded.fetch_add(2, Ordering::Relaxed);
        let tripped =
            TierBreakerStats { state: BreakerState::Open, trips: 1, failures: 5, probes: 0 };
        let text = m.render(0, 1, false, &CacheStats::default(), None, &tripped);
        assert!(text.contains("memo_store_io_errors_total 4"));
        assert!(text.contains("memo_store_retries_total 9"));
        assert!(text.contains("memo_serve_deadline_exceeded_total 2"));
        assert!(text.contains("memo_tier_breaker_state 2"));
        assert!(text.contains("memo_tier_breaker_trips_total 1"));
        assert!(text.contains("memo_tier_breaker_failures_total 5"));

        let half =
            TierBreakerStats { state: BreakerState::HalfOpen, trips: 1, failures: 5, probes: 1 };
        let text = m.render(0, 1, false, &CacheStats::default(), None, &half);
        assert!(text.contains("memo_tier_breaker_state 1"));
        assert!(text.contains("memo_tier_breaker_probes_total 1"));
    }
}
