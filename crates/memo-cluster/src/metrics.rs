//! The router's own counters and `/metrics` exposition.
//!
//! Same discipline as memo-serve's metrics: atomics and lock-free
//! [`Histogram`]s only, Prometheus text format with deterministic label
//! order so the CI smoke job and the load generator can scrape by
//! simple prefix match. The load generator's `--cluster` mode reads
//! `memo_router_failovers_total` and `memo_router_read_repairs_total`
//! verbatim — renaming either breaks `BENCH_serve.json`.

use std::sync::atomic::{AtomicU64, Ordering};

use memo_serve::hist::Histogram;
use memo_serve::metrics::ConnectionCounters;

use crate::topology::{Health, Node, Snapshot};

/// Per-backend counters, index-aligned with the configured fleet.
pub struct NodeStats {
    /// Requests this node answered (any status).
    pub requests: AtomicU64,
    /// Transport failures plus non-backpressure 5xx (503 is shedding,
    /// not an error — the node is alive and telling us so).
    pub errors: AtomicU64,
    /// Per-exchange latency, microseconds, successful exchanges only.
    pub latency: Histogram,
}

/// All counters for one router instance.
pub struct RouterMetrics {
    nodes: Vec<NodeStats>,
    /// Requests parsed off client connections.
    pub requests_total: AtomicU64,
    /// The front end's counters: connections accepted, queue sheds,
    /// read timeouts (the router sets no deadline, so it sheds none).
    pub connections: ConnectionCounters,
    /// Requests served by a non-primary owner (the primary was down,
    /// breaker-ejected, or failed mid-request).
    pub failovers: AtomicU64,
    /// Replica re-warms that completed (`POST /v1/warm` returned 2xx).
    pub read_repairs: AtomicU64,
    /// Replica re-warms that failed in transport or with a 5xx.
    pub read_repair_failures: AtomicU64,
    /// Repair jobs dropped because the repair queue was full — repair
    /// is best-effort and must never backpressure serving.
    pub repair_drops: AtomicU64,
    /// Requests answered 503 because no backend was routable.
    pub no_backend: AtomicU64,
    /// Requests answered 502 because every owner failed in transport.
    pub bad_gateway: AtomicU64,
}

impl RouterMetrics {
    /// Fresh zeroed metrics for a fleet of `fleet` nodes.
    #[must_use]
    pub fn new(fleet: usize) -> Self {
        RouterMetrics {
            nodes: (0..fleet)
                .map(|_| NodeStats {
                    requests: AtomicU64::new(0),
                    errors: AtomicU64::new(0),
                    latency: Histogram::new(),
                })
                .collect(),
            requests_total: AtomicU64::new(0),
            connections: ConnectionCounters::default(),
            failovers: AtomicU64::new(0),
            read_repairs: AtomicU64::new(0),
            read_repair_failures: AtomicU64::new(0),
            repair_drops: AtomicU64::new(0),
            no_backend: AtomicU64::new(0),
            bad_gateway: AtomicU64::new(0),
        }
    }

    /// Counters for backend `idx`.
    #[must_use]
    pub fn node(&self, idx: usize) -> &NodeStats {
        &self.nodes[idx]
    }

    /// Render the Prometheus-style text exposition. `nodes` and
    /// `snapshot` supply the names and health the metrics struct does
    /// not own; `queue_depth`, `repair_depth`, `workers`, `draining`
    /// are point-in-time router state.
    ///
    /// # Panics
    ///
    /// If `nodes.len()` differs from the fleet this was built for.
    #[must_use]
    pub fn render(
        &self,
        nodes: &[Node],
        snapshot: &Snapshot,
        queue_depth: usize,
        repair_depth: usize,
        workers: usize,
        draining: bool,
    ) -> String {
        assert_eq!(nodes.len(), self.nodes.len(), "fleet size matches metrics");
        let mut out = String::with_capacity(2048);
        let mut counter = |name: &str, value: u64| {
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        };
        counter("memo_router_requests_total", self.requests_total.load(Ordering::Relaxed));
        counter("memo_router_failovers_total", self.failovers.load(Ordering::Relaxed));
        counter("memo_router_read_repairs_total", self.read_repairs.load(Ordering::Relaxed));
        counter(
            "memo_router_read_repair_failures_total",
            self.read_repair_failures.load(Ordering::Relaxed),
        );
        counter("memo_router_repair_queue_drops_total", self.repair_drops.load(Ordering::Relaxed));
        counter("memo_router_no_backend_total", self.no_backend.load(Ordering::Relaxed));
        counter("memo_router_bad_gateway_total", self.bad_gateway.load(Ordering::Relaxed));
        self.connections.render("memo_router", &mut out);

        out.push_str("# TYPE memo_router_ring_generation gauge\n");
        out.push_str(&format!("memo_router_ring_generation {}\n", snapshot.generation));
        out.push_str("# TYPE memo_router_queue_depth gauge\n");
        out.push_str(&format!("memo_router_queue_depth {queue_depth}\n"));
        out.push_str("# TYPE memo_router_repair_queue_depth gauge\n");
        out.push_str(&format!("memo_router_repair_queue_depth {repair_depth}\n"));
        out.push_str("# TYPE memo_router_workers gauge\n");
        out.push_str(&format!("memo_router_workers {workers}\n"));
        out.push_str("# TYPE memo_router_draining gauge\n");
        out.push_str(&format!("memo_router_draining {}\n", u8::from(draining)));

        // 2 = up, 1 = degraded, 0 = down: a sum over the fleet of 2n
        // means everything is healthy, which dashboards read at a glance.
        out.push_str("# TYPE memo_router_node_health gauge\n");
        for (node, health) in nodes.iter().zip(&snapshot.health) {
            let v = match health {
                Health::Up => 2,
                Health::Degraded => 1,
                Health::Down => 0,
            };
            out.push_str(&format!("memo_router_node_health{{node=\"{}\"}} {v}\n", node.name));
        }
        out.push_str("# TYPE memo_router_node_requests_total counter\n");
        for (node, stats) in nodes.iter().zip(&self.nodes) {
            out.push_str(&format!(
                "memo_router_node_requests_total{{node=\"{}\"}} {}\n",
                node.name,
                stats.requests.load(Ordering::Relaxed)
            ));
        }
        out.push_str("# TYPE memo_router_node_errors_total counter\n");
        for (node, stats) in nodes.iter().zip(&self.nodes) {
            out.push_str(&format!(
                "memo_router_node_errors_total{{node=\"{}\"}} {}\n",
                node.name,
                stats.errors.load(Ordering::Relaxed)
            ));
        }
        out.push_str("# TYPE memo_router_node_latency_seconds summary\n");
        for (node, stats) in nodes.iter().zip(&self.nodes) {
            if stats.latency.count() == 0 {
                continue;
            }
            for (q, qs) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                #[allow(clippy::cast_precision_loss)]
                let secs = stats.latency.quantile(q) as f64 / 1e6;
                out.push_str(&format!(
                    "memo_router_node_latency_seconds{{node=\"{}\",quantile=\"{qs}\"}} {secs:.6}\n",
                    node.name,
                ));
            }
            out.push_str(&format!(
                "memo_router_node_latency_seconds_count{{node=\"{}\"}} {}\n",
                node.name,
                stats.latency.count()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet() -> Vec<Node> {
        vec![
            Node { name: "n0".to_string(), addr: "127.0.0.1:7071".to_string() },
            Node { name: "n1".to_string(), addr: "127.0.0.1:7072".to_string() },
        ]
    }

    #[test]
    fn render_exposes_the_counters_the_load_generator_scrapes() {
        let m = RouterMetrics::new(2);
        m.failovers.fetch_add(3, Ordering::Relaxed);
        m.read_repairs.fetch_add(5, Ordering::Relaxed);
        m.node(0).requests.fetch_add(7, Ordering::Relaxed);
        m.node(0).latency.record(1500);
        m.node(1).errors.fetch_add(1, Ordering::Relaxed);
        let snap = Snapshot { generation: 4, health: vec![Health::Up, Health::Down] };
        let text = m.render(&fleet(), &snap, 2, 1, 3, false);

        // Exact prefix + space + value: what memo-load's scraper parses.
        assert!(text.contains("memo_router_failovers_total 3\n"), "{text}");
        assert!(text.contains("memo_router_read_repairs_total 5\n"), "{text}");
        assert!(text.contains("memo_router_ring_generation 4"), "{text}");
        assert!(text.contains("memo_router_node_health{node=\"n0\"} 2"), "{text}");
        assert!(text.contains("memo_router_node_health{node=\"n1\"} 0"), "{text}");
        assert!(text.contains("memo_router_node_requests_total{node=\"n0\"} 7"), "{text}");
        assert!(text.contains("memo_router_node_errors_total{node=\"n1\"} 1"), "{text}");
        assert!(text.contains("memo_router_node_latency_seconds{node=\"n0\",quantile=\"0.99\"}"));
        // A node with no samples contributes no latency lines.
        assert!(!text.contains("memo_router_node_latency_seconds{node=\"n1\""), "{text}");
        assert!(text.contains("memo_router_queue_depth 2"));
        assert!(text.contains("memo_router_repair_queue_depth 1"));
        assert!(text.contains("memo_router_workers 3"));
        assert!(text.contains("memo_router_draining 0"));
    }
}
