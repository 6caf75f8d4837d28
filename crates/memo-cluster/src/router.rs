//! The routing tier: memo-serve's front end → placement → backends.
//!
//! The router serves through memo-serve's [`Frontend`] — the same strict
//! parser, bounded queue, worker pool, connection rules and shedding
//! discipline as a node — and adds the placement logic as its
//! [`Service`]. Each request is keyed exactly the way the backends key
//! their caches ([`routes::cache_key`]), walked over the ring for its
//! owners, and forwarded to the first owner whose circuit breaker admits
//! it. A transport failure or 5xx moves on to the next owner (failover);
//! 503 is relayed rather than retried blindly once all owners shed,
//! because backpressure is information.
//!
//! When the serving node answers from disk or compute — meaning its
//! memory tier didn't have the artifact — the router enqueues a
//! best-effort read-repair: the rendered bytes are `POST /v1/warm`ed to
//! the other owners so the next failover hits their memory tier.
//! Repair is fire-and-forget through a bounded queue; a full queue
//! drops the job (counted) instead of slowing the response path.
//!
//! HEAD is forwarded upstream as GET and trimmed on the way out: the
//! backend's HEAD reply carries no body, which would leave nothing to
//! repair with and make the proxy guess at message framing.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use memo_experiments::cache::TierBreaker;
use memo_experiments::{env, ExpConfig};
use memo_serve::http::{ClientResponse, Request, Response, MAX_BODY};
use memo_serve::metrics::ConnectionCounters;
use memo_serve::routes;
use memo_serve::server::{Frontend, Limits, Service};

use crate::metrics::RouterMetrics;
use crate::probe;
use crate::proxy::NodeProxy;
use crate::topology::{Node, Topology};

/// Everything configurable about one router instance.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; port 0 picks an ephemeral port (tests).
    pub addr: String,
    /// The backend fleet, in index order.
    pub nodes: Vec<Node>,
    /// Owners per key (clamped to the fleet size by the ring walk).
    pub replication: usize,
    /// Worker threads.
    pub workers: usize,
    /// Connections queued before shedding with 503.
    pub queue_capacity: usize,
    /// Read-repair jobs queued before dropping (repair never blocks).
    pub repair_capacity: usize,
    /// Client-side socket read timeout.
    pub read_timeout: Duration,
    /// Client-side socket write timeout.
    pub write_timeout: Duration,
    /// Backend connect timeout.
    pub connect_timeout: Duration,
    /// Backend exchange (read/write) timeout.
    pub io_timeout: Duration,
    /// Time between `/healthz` sweeps of the fleet.
    pub probe_interval: Duration,
    /// Per-node probe timeout (keep well under `probe_interval`).
    pub probe_timeout: Duration,
    /// Consecutive failures before a node's breaker ejects it
    /// (0 disables the breakers).
    pub breaker_threshold: u32,
    /// How long a tripped breaker waits before admitting a probe.
    pub breaker_cooldown: Duration,
    /// Base experiment configuration — must match the backends', since
    /// it participates in the canonical cache keys.
    pub cfg: ExpConfig,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:7170".to_string(),
            nodes: Vec::new(),
            replication: 2,
            workers: env::jobs(),
            queue_capacity: 128,
            repair_capacity: 256,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            connect_timeout: Duration::from_secs(1),
            io_timeout: Duration::from_secs(10),
            probe_interval: Duration::from_millis(500),
            probe_timeout: Duration::from_millis(250),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(1),
            cfg: ExpConfig::from_env(),
        }
    }
}

/// One queued read-repair: re-warm `replicas` with the bytes the
/// serving node just rendered or read off disk.
struct Repair {
    key: String,
    body: Vec<u8>,
    replicas: Vec<usize>,
}

/// Shared router state: the fleet view plus every counter.
pub struct RouterState {
    /// The fleet, its ring, and the swapped health table.
    pub topology: Arc<Topology>,
    /// Pooled connections, index-aligned with the fleet.
    pub proxies: Arc<Vec<NodeProxy>>,
    /// Per-node circuit breakers, index-aligned with the fleet.
    pub breakers: Vec<TierBreaker>,
    /// All router counters.
    pub metrics: RouterMetrics,
    /// Owners per key.
    pub rf: usize,
    /// Base experiment config (for canonical keying).
    pub cfg: ExpConfig,
    /// Worker count, reported in `/metrics`.
    pub workers: usize,
    draining: Arc<AtomicBool>,
    /// The read-repair queue; `None` tells the warmer to stop.
    repairs: SyncSender<Option<Repair>>,
    /// Repair jobs sent and not yet taken by the warmer.
    repairs_queued: AtomicUsize,
}

impl Service for RouterState {
    const NAME: &'static str = "memo-router";
    const QUEUE_FULL: &'static str = "router queue full, retry shortly\n";

    /// One routed response: local endpoints or a forwarded exchange.
    fn respond(&self, req: &Request, queue_depth: usize) -> Response {
        self.metrics.requests_total.fetch_add(1, Ordering::Relaxed);
        if req.method != "GET" && req.method != "HEAD" {
            return Response::text(405, "only GET and HEAD are routed\n");
        }
        match req.path.as_str() {
            "/healthz" => {
                let body = if self.draining() {
                    "draining\n".to_string()
                } else {
                    let snap = self.topology.snapshot();
                    let fleet = self.topology.nodes().len();
                    let up = snap.up_count();
                    if up == fleet {
                        "ok\n".to_string()
                    } else if (0..fleet).any(|n| snap.routable(n)) {
                        format!("degraded:{up}/{fleet}-up\n")
                    } else {
                        format!("degraded:no-backends:0/{fleet}-up\n")
                    }
                };
                Response::text(200, body)
            }
            "/metrics" => {
                let snap = self.topology.snapshot();
                let text = self.metrics.render(
                    self.topology.nodes(),
                    &snap,
                    queue_depth,
                    self.repairs_queued.load(Ordering::Relaxed),
                    self.workers,
                    self.draining(),
                );
                Response::text(200, text)
            }
            "/quitquitquit" => {
                self.start_drain();
                Response::text(200, "draining\n")
            }
            _ => forward(self, req),
        }
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    fn start_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    fn connections(&self) -> &ConnectionCounters {
        &self.metrics.connections
    }
}

/// A running router. Call [`shutdown`](RouterHandle::shutdown) then
/// [`wait`](RouterHandle::wait) to stop it.
pub struct RouterHandle {
    front: Frontend<RouterState>,
    prober: JoinHandle<()>,
    warmer: JoinHandle<()>,
}

impl RouterHandle {
    /// The bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// Shared state, for inspection in tests.
    #[must_use]
    pub fn state(&self) -> &Arc<RouterState> {
        self.front.state()
    }

    /// Begin a graceful drain: stop accepting, serve what is queued.
    pub fn shutdown(&self) {
        self.front.shutdown();
    }

    /// Block until every thread has exited: accept loop, workers,
    /// prober, and the repair warmer (which first drains queued jobs).
    pub fn wait(self) {
        let state = Arc::clone(self.state());
        self.front.wait();
        // No worker can enqueue repairs anymore; let the warmer finish
        // what was accepted, then exit.
        let _ = state.repairs.send(None);
        if self.warmer.join().is_err() {
            eprintln!("[memo-router] warmer thread panicked");
        }
        if self.prober.join().is_err() {
            eprintln!("[memo-router] prober thread panicked");
        }
    }
}

/// Bind and start routing.
///
/// # Errors
///
/// Propagates the bind failure, or rejects an empty fleet.
pub fn start(config: &RouterConfig) -> io::Result<RouterHandle> {
    if config.nodes.is_empty() {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "router needs at least one node"));
    }
    let listener = TcpListener::bind(&config.addr)?;

    let topology = Arc::new(Topology::new(config.nodes.clone()));
    let proxies: Arc<Vec<NodeProxy>> = Arc::new(
        config
            .nodes
            .iter()
            .map(|n| NodeProxy::new(n.addr.clone(), config.connect_timeout, config.io_timeout))
            .collect(),
    );
    let breakers = config
        .nodes
        .iter()
        .map(|_| TierBreaker::new(config.breaker_threshold, config.breaker_cooldown))
        .collect();
    let draining = Arc::new(AtomicBool::new(false));
    let (repairs, jobs) = mpsc::sync_channel(config.repair_capacity.max(1));
    let state = Arc::new(RouterState {
        topology: Arc::clone(&topology),
        proxies: Arc::clone(&proxies),
        breakers,
        metrics: RouterMetrics::new(config.nodes.len()),
        rf: config.replication.max(1),
        cfg: config.cfg,
        workers: config.workers.max(1),
        draining: Arc::clone(&draining),
        repairs,
        repairs_queued: AtomicUsize::new(0),
    });

    let limits = Limits {
        workers: state.workers,
        queue_capacity: config.queue_capacity,
        read_timeout: config.read_timeout,
        write_timeout: config.write_timeout,
        queue_deadline: None,
    };
    let front = Frontend::start(listener, limits, Arc::clone(&state))?;

    let warmer = thread::Builder::new()
        .name("memo-router-warm".to_string())
        .spawn(move || warm_loop(&state, &jobs))
        .expect("spawn warmer thread");
    let prober =
        probe::spawn(topology, proxies, draining, config.probe_interval, config.probe_timeout);
    Ok(RouterHandle { front, prober, warmer })
}

/// Forward `req` to its owners, failing over down the replica chain.
fn forward(state: &RouterState, req: &Request) -> Response {
    let snap = state.topology.snapshot();
    // The same canonical key the backends cache under; targets outside
    // the artifact space (404s and friends) still need deterministic
    // placement, so they hash their raw wire form.
    let artifact_key = routes::cache_key(state.cfg, req);
    let key = artifact_key.clone().unwrap_or_else(|| req.raw_target.clone());
    let owners = state.topology.owners(&snap, &key, state.rf);
    if owners.is_empty() {
        state.metrics.no_backend.fetch_add(1, Ordering::Relaxed);
        return Response::text(503, "no routable backend\n")
            .with_header("retry-after", "1")
            .with_header("x-memo-ring-gen", snap.generation.to_string());
    }

    let mut last_shed: Option<ClientResponse> = None;
    let mut attempted = 0u32;
    let mut scratch = Vec::new();
    for &node in &owners {
        if !state.breakers[node].allow() {
            continue;
        }
        attempted += 1;
        let stats = state.metrics.node(node);
        let started = Instant::now();
        // Always GET upstream: a HEAD reply has no body to frame a
        // response around, let alone to repair replicas with. The
        // caller trims the body for HEAD clients.
        match state.proxies[node].get(&req.raw_target, &mut scratch) {
            Ok(resp) if resp.status < 500 => {
                state.breakers[node].record_success();
                stats.requests.fetch_add(1, Ordering::Relaxed);
                stats
                    .latency
                    .record(u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX));
                if node != owners[0] {
                    state.metrics.failovers.fetch_add(1, Ordering::Relaxed);
                }
                maybe_repair(state, artifact_key.as_deref(), &resp, &owners, node);
                return relay(resp, snap.generation);
            }
            Ok(resp) => {
                stats.requests.fetch_add(1, Ordering::Relaxed);
                if resp.status == 503 {
                    // Shedding is the node being alive and explicit; it
                    // neither trips the breaker nor counts as an error.
                    state.breakers[node].record_success();
                } else {
                    stats.errors.fetch_add(1, Ordering::Relaxed);
                    state.breakers[node].record_failure();
                }
                last_shed = Some(resp);
            }
            Err(_) => {
                stats.errors.fetch_add(1, Ordering::Relaxed);
                state.breakers[node].record_failure();
            }
        }
    }

    if let Some(resp) = last_shed {
        // Every attempted owner answered 5xx; the last answer (with its
        // own retry-after, if any) is more honest than a synthetic 502.
        return relay(resp, snap.generation);
    }
    if attempted == 0 {
        state.metrics.no_backend.fetch_add(1, Ordering::Relaxed);
        return Response::text(503, "all replicas cooling down\n")
            .with_header("retry-after", "1")
            .with_header("x-memo-ring-gen", snap.generation.to_string());
    }
    state.metrics.bad_gateway.fetch_add(1, Ordering::Relaxed);
    Response::text(502, "every replica failed\n")
        .with_header("retry-after", "1")
        .with_header("x-memo-ring-gen", snap.generation.to_string())
}

/// Enqueue a read-repair when the serving node answered outside its
/// memory tier: the artifact exists in rendered form right here, so
/// re-warming the other owners costs one POST each, not a re-render.
fn maybe_repair(
    state: &RouterState,
    artifact_key: Option<&str>,
    resp: &ClientResponse,
    owners: &[usize],
    served_by: usize,
) {
    let Some(key) = artifact_key else { return };
    if resp.status != 200 || resp.body.is_empty() || resp.body.len() > MAX_BODY {
        return;
    }
    if !matches!(resp.header("x-memo-cache"), Some("disk" | "miss")) {
        return;
    }
    let replicas: Vec<usize> = owners.iter().copied().filter(|&n| n != served_by).collect();
    if replicas.is_empty() {
        return;
    }
    let job = Repair { key: key.to_string(), body: resp.body.clone(), replicas };
    // Counted before the send, so the warmer never takes a job it has
    // not yet seen counted.
    state.repairs_queued.fetch_add(1, Ordering::Relaxed);
    if state.repairs.try_send(Some(job)).is_err() {
        state.repairs_queued.fetch_sub(1, Ordering::Relaxed);
        state.metrics.repair_drops.fetch_add(1, Ordering::Relaxed);
    }
}

/// Drain the repair queue: one warming POST per replica per job.
fn warm_loop(state: &RouterState, jobs: &Receiver<Option<Repair>>) {
    let mut scratch = Vec::with_capacity(4096);
    while let Ok(Some(job)) = jobs.recv() {
        state.repairs_queued.fetch_sub(1, Ordering::Relaxed);
        for &replica in &job.replicas {
            match state.proxies[replica].warm(&job.key, &job.body, &mut scratch) {
                Ok(resp) if resp.status == 200 => {
                    state.metrics.read_repairs.fetch_add(1, Ordering::Relaxed);
                }
                _ => {
                    state.metrics.read_repair_failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

/// Turn a backend's response into the client's: framing headers are
/// re-derived by [`Response::write_to`], everything else passes
/// through untouched, plus the routing-table generation that placed
/// this request.
fn relay(resp: ClientResponse, generation: u64) -> Response {
    let mut headers: Vec<(String, String)> = resp
        .headers
        .into_iter()
        .filter(|(k, _)| k != "content-length" && k != "connection" && k != "content-type")
        .collect();
    headers.push(("x-memo-ring-gen".to_string(), generation.to_string()));
    Response { status: resp.status, headers, body: resp.body, content_type: "text/plain; charset=utf-8" }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memo_serve::server::{self, ServerConfig};
    use std::io::Write;
    use std::net::TcpStream;

    fn backend(name: &str) -> (server::ServerHandle, Node) {
        let config = ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 16,
            cfg: ExpConfig::quick(),
            node_id: Some(name.to_string()),
            ..ServerConfig::default()
        };
        let handle = server::start(&config).unwrap();
        let node = Node { name: name.to_string(), addr: handle.addr().to_string() };
        (handle, node)
    }

    fn router_over(nodes: Vec<Node>) -> RouterHandle {
        start(&RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            nodes,
            workers: 2,
            probe_interval: Duration::from_millis(50),
            probe_timeout: Duration::from_millis(200),
            cfg: ExpConfig::quick(),
            ..RouterConfig::default()
        })
        .unwrap()
    }

    fn get(addr: SocketAddr, target: &str) -> (u16, Vec<(String, String)>, Vec<u8>) {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(format!("GET {target} HTTP/1.1\r\nconnection: close\r\n\r\n").as_bytes())
            .unwrap();
        let mut scratch = Vec::new();
        let resp = memo_serve::http::read_response(&mut s, &mut scratch).unwrap();
        (resp.status, resp.headers, resp.body)
    }

    fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
        headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    #[test]
    fn routes_to_a_backend_and_stamps_router_headers() {
        let (b0, n0) = backend("n0");
        let (b1, n1) = backend("n1");
        let direct = get(b0.addr(), "/v1/table/3");
        let router = router_over(vec![n0, n1]);

        let (status, headers, body) = get(router.addr(), "/v1/table/3");
        assert_eq!(status, 200);
        assert_eq!(body, direct.2, "routed body is byte-identical to a direct render");
        assert!(header(&headers, "x-memo-node").is_some(), "backend identity survives the proxy");
        assert!(header(&headers, "x-memo-ring-gen").is_some(), "router stamps the table generation");

        let (status, _, body) = get(router.addr(), "/healthz");
        assert_eq!(status, 200);
        assert_eq!(body, b"ok\n");

        router.shutdown();
        router.wait();
        for b in [b0, b1] {
            b.shutdown();
            b.wait();
        }
    }

    #[test]
    fn fails_over_when_the_primary_dies_and_counts_it() {
        let (b0, n0) = backend("n0");
        let (b1, n1) = backend("n1");
        // A long probe interval keeps the routing table oblivious to
        // the kill below: the request must fail over on the transport
        // error itself, not ride a health-table update.
        let router = start(&RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            nodes: vec![n0, n1],
            workers: 2,
            probe_interval: Duration::from_secs(60),
            probe_timeout: Duration::from_millis(200),
            cfg: ExpConfig::quick(),
            ..RouterConfig::default()
        })
        .unwrap();

        // Find a target whose primary is node 0 by asking the router —
        // x-memo-node names whoever served it — then kill node 0 and
        // request it again: the request must still succeed.
        let owned_by_0 = (1..=20)
            .map(|n| format!("/v1/table/{n}"))
            .find(|t| {
                let (status, headers, _) = get(router.addr(), t);
                assert_eq!(status, 200);
                header(&headers, "x-memo-node") == Some("n0")
            })
            .expect("some table key lands on node 0 first");
        b0.shutdown();
        b0.wait();

        let (status, headers, _) = get(router.addr(), &owned_by_0);
        assert_eq!(status, 200, "replica serves while the primary is dead");
        assert_eq!(header(&headers, "x-memo-node"), Some("n1"));
        assert!(
            router.state().metrics.failovers.load(Ordering::Relaxed) >= 1,
            "failover must be counted"
        );

        router.shutdown();
        router.wait();
        b1.shutdown();
        b1.wait();
    }

    #[test]
    fn read_repair_warms_the_replica_after_a_computed_answer() {
        let (b0, n0) = backend("n0");
        let (b1, n1) = backend("n1");
        let router = router_over(vec![n0, n1]);

        // A fresh artifact: the serving node computes (x-memo-cache:
        // miss), which must trigger a warm on the other owner.
        let (status, headers, _) = get(router.addr(), "/v1/table/5");
        assert_eq!(status, 200);
        assert_eq!(header(&headers, "x-memo-cache"), Some("miss"));
        let deadline = Instant::now() + Duration::from_secs(5);
        while router.state().metrics.read_repairs.load(Ordering::Relaxed) == 0 {
            assert!(Instant::now() < deadline, "read-repair never completed");
            thread::sleep(Duration::from_millis(10));
        }

        // The replica now serves the artifact from memory: ask each
        // backend directly and check one of them reports a warm install.
        let total_warms: u64 = [&b0, &b1]
            .iter()
            .map(|b| b.state().metrics.warms.load(Ordering::Relaxed))
            .sum();
        assert!(total_warms >= 1, "exactly the non-serving owner was warmed");

        router.shutdown();
        router.wait();
        for b in [b0, b1] {
            b.shutdown();
            b.wait();
        }
    }

    #[test]
    fn local_endpoints_and_method_guard() {
        let (b0, n0) = backend("n0");
        let router = router_over(vec![n0]);

        let (status, _, body) = get(router.addr(), "/metrics");
        assert_eq!(status, 200);
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("memo_router_failovers_total 0"), "{text}");
        assert!(text.contains("memo_router_read_repairs_total 0"), "{text}");
        assert!(text.contains("memo_router_node_health{node=\"n0\"} 2"), "{text}");

        let mut s = TcpStream::connect(router.addr()).unwrap();
        s.write_all(b"POST /v1/warm?key=x HTTP/1.1\r\ncontent-length: 0\r\nconnection: close\r\n\r\n")
            .unwrap();
        let mut scratch = Vec::new();
        let resp = memo_serve::http::read_response(&mut s, &mut scratch).unwrap();
        assert_eq!(resp.status, 405, "the router does not accept writes from clients");

        router.shutdown();
        router.wait();
        b0.shutdown();
        b0.wait();
    }

    #[test]
    fn all_backends_dead_yields_503_no_backend() {
        let (b0, n0) = backend("n0");
        let addr_dead = n0.addr.clone();
        b0.shutdown();
        b0.wait();
        let router = start(&RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            nodes: vec![Node { name: "n0".to_string(), addr: addr_dead }],
            workers: 1,
            probe_interval: Duration::from_millis(30),
            probe_timeout: Duration::from_millis(100),
            cfg: ExpConfig::quick(),
            ..RouterConfig::default()
        })
        .unwrap();

        // Wait for the prober to mark the node down, then request.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let snap = router.state().topology.snapshot();
            if !snap.routable(0) {
                break;
            }
            assert!(Instant::now() < deadline, "prober never marked the dead node down");
            thread::sleep(Duration::from_millis(10));
        }
        let (status, headers, _) = get(router.addr(), "/v1/table/2");
        assert_eq!(status, 503);
        assert_eq!(header(&headers, "retry-after"), Some("1"));
        assert!(router.state().metrics.no_backend.load(Ordering::Relaxed) >= 1);

        let (_, _, body) = get(router.addr(), "/healthz");
        assert!(String::from_utf8_lossy(&body).starts_with("degraded:no-backends"));

        router.shutdown();
        router.wait();
    }
}
