//! The TCP front end both serving tiers run: listener → accept loop →
//! bounded queue → worker pool → connection loop.
//!
//! The shape deliberately mirrors the paper's memo unit: a bounded
//! reservation queue in front of a fixed set of execution resources,
//! with explicit shedding (503 + `Retry-After`) instead of unbounded
//! buffering when demand exceeds capacity. Shutdown is a drain: the
//! accept loop stops, queued connections are still served, workers exit
//! when the queue runs dry.
//!
//! [`Frontend`] owns all of that and is generic over a [`Service`], the
//! tier-specific half that turns a parsed request into a response: a
//! node's [`AppState`] here, the router's routing state in memo-cluster.
//! Both tiers therefore share one set of connection rules and one place
//! to count and time them.

use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use memo_experiments::cache::TierBreaker;
use memo_experiments::{env, store, ExpConfig};
use memo_store::Store;

use crate::http::{parse_request, Request, Response, MAX_BODY, MAX_HEADER_BYTES};
use crate::metrics::{CacheOutcome, ConnectionCounters, Endpoint};
use crate::pool::WorkerPool;
use crate::queue::{Bounded, PushError};
use crate::routes::{self, AppState};

/// Everything configurable about one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (tests).
    pub addr: String,
    /// Worker threads (default: `MEMO_JOBS` or available parallelism).
    pub workers: usize,
    /// Connections queued before shedding with 503.
    pub queue_capacity: usize,
    /// Rendered results kept in the in-process cache.
    pub cache_capacity: usize,
    /// How long a connection may stay silent, counted from the last byte
    /// received or response sent, before it is closed (with 408 when it
    /// holds part of a request).
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// Base experiment configuration.
    pub cfg: ExpConfig,
    /// Directory of the persistent result/trace store. `None` (the
    /// default) serves memory-only, exactly as before the store existed.
    pub store_dir: Option<PathBuf>,
    /// A pre-opened store to serve from, taking precedence over
    /// [`store_dir`](Self::store_dir). This is how chaos tests hand the
    /// server a [`memo_store::FaultVfs`]-backed store.
    pub store: Option<Arc<Store>>,
    /// Consecutive store failures before the disk tier is bypassed
    /// (0 disables the breaker).
    pub breaker_threshold: u32,
    /// How long a tripped breaker waits before admitting a probe.
    pub breaker_cooldown: Duration,
    /// Per-request time budget, counted from accept. Requests that age
    /// past it in the queue (or mid-render) are shed with 503.
    pub request_deadline: Duration,
    /// Cluster identity (`--node-id`). When set, every response carries
    /// an `x-memo-node` header so the router tier and the load generator
    /// can attribute responses to fleet members.
    pub node_id: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7070".to_string(),
            workers: env::jobs(),
            queue_capacity: 128,
            cache_capacity: 256,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            cfg: ExpConfig::from_env(),
            store_dir: None,
            store: None,
            breaker_threshold: 5,
            breaker_cooldown: Duration::from_secs(2),
            request_deadline: Duration::from_secs(30),
            node_id: None,
        }
    }
}

/// The tier-specific half of a server: what a [`Frontend`] asks of it
/// for each parsed request, and the state it reads between requests.
pub trait Service: Send + Sync + 'static {
    /// Prefix of thread names and log lines (`memo-serve`, `memo-router`).
    const NAME: &'static str;
    /// Body of the 503 a connection gets when the queue is full.
    const QUEUE_FULL: &'static str;

    /// Answer one parsed request. `queue_depth` is the connections
    /// waiting for a worker, for `/metrics`.
    fn respond(&self, req: &Request, queue_depth: usize) -> Response;

    /// True once a drain has been requested: the accept loop stops and
    /// idle connections close.
    fn draining(&self) -> bool;

    /// Request a graceful drain.
    fn start_drain(&self);

    /// The counters this tier's `/metrics` reports the front end under.
    fn connections(&self) -> &ConnectionCounters;

    /// Count a response the front end wrote without calling
    /// [`respond`](Self::respond): a shed connection or an unparseable
    /// request.
    fn answered(&self, _status: u16) {}

    /// Called once the drain is over and the last worker has exited.
    fn drained(&self) {}
}

/// How a [`Frontend`] treats its connections.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Worker threads (at least one runs).
    pub workers: usize,
    /// Connections queued before shedding with 503.
    pub queue_capacity: usize,
    /// How long a connection may stay silent, counted from the last byte
    /// received or response sent, before it is closed (with 408 when it
    /// holds part of a request).
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// A connection that waited longer than this for a worker is shed
    /// with 503 before any bytes are read; `None` never sheds.
    pub queue_deadline: Option<Duration>,
}

/// A connection and when the accept loop queued it.
type Queued = (TcpStream, Instant);

/// A running front end. Dropping it does not stop it; call
/// [`shutdown`](Frontend::shutdown) (or have the service drain) then
/// [`wait`](Frontend::wait).
pub struct Frontend<S> {
    addr: SocketAddr,
    service: Arc<S>,
    queue: Arc<Bounded<Queued>>,
    accept_thread: JoinHandle<()>,
    pool: WorkerPool,
}

impl<S: Service> Frontend<S> {
    /// Serve `service` on `listener` until the service drains.
    ///
    /// # Errors
    ///
    /// When the listener cannot be made nonblocking or has no address.
    ///
    /// # Panics
    ///
    /// If `limits.queue_capacity` is zero, or if the OS refuses to spawn
    /// a thread.
    pub fn start(listener: TcpListener, limits: Limits, service: Arc<S>) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let queue = Arc::new(Bounded::new(limits.queue_capacity));

        let worker_service = Arc::clone(&service);
        let worker_queue = Arc::clone(&queue);
        let pool =
            WorkerPool::spawn(limits.workers.max(1), Arc::clone(&queue), move |(stream, accepted): Queued| {
                serve_connection(&*worker_service, &worker_queue, &limits, stream, accepted);
            });

        let accept_service = Arc::clone(&service);
        let accept_queue = Arc::clone(&queue);
        let accept_thread = thread::Builder::new()
            .name(format!("{}-accept", S::NAME))
            .spawn(move || {
                accept_loop(&listener, &*accept_service, &accept_queue, limits.write_timeout);
                // No new connections past this point; let the workers drain.
                accept_queue.close();
            })
            .expect("spawn accept thread");

        Ok(Frontend { addr, service, queue, accept_thread, pool })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service's shared state, for inspection in tests.
    #[must_use]
    pub fn state(&self) -> &Arc<S> {
        &self.service
    }

    /// Connections currently queued for a worker.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// Begin a graceful drain: stop accepting, serve what is queued.
    pub fn shutdown(&self) {
        self.service.start_drain();
    }

    /// Block until the accept loop and all workers have exited, then
    /// tell the service it has [`drained`](Service::drained). Call after
    /// [`shutdown`](Self::shutdown) (or a `/quitquitquit` hit).
    pub fn wait(self) {
        if self.accept_thread.join().is_err() {
            eprintln!("[{}] accept thread panicked", S::NAME);
        }
        self.pool.join();
        self.service.drained();
    }
}

impl Service for AppState {
    const NAME: &'static str = "memo-serve";
    const QUEUE_FULL: &'static str = "request queue full, retry shortly\n";

    // Inlined into the connection loop: as a call of its own it cost
    // `serve_hot` about 4% of its throughput (5 benchmark pairs, 2-vCPU VM).
    #[inline]
    fn respond(&self, req: &Request, queue_depth: usize) -> Response {
        let start = Instant::now();
        let routed = routes::handle(self, req, queue_depth);
        let micros = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.metrics.observe(routed.endpoint, routed.response.status, routed.cache, micros);
        routed.response
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

    fn answered(&self, status: u16) {
        self.metrics.observe(Endpoint::Other, status, CacheOutcome::Uncached, 0);
    }

    /// Flush the persistent store, so a drained server leaves everything
    /// it rendered on disk.
    fn drained(&self) {
        if let Some(store) = &self.store {
            if let Err(err) = store.flush() {
                eprintln!("[memo-serve] store flush on drain failed: {err}");
            }
        }
    }
}

/// A running memo-serve node.
pub type ServerHandle = Frontend<AppState>;

/// How often the accept loop re-checks the drain flag.
const ACCEPT_POLL: Duration = Duration::from_millis(5);

/// How long one read on an accepted connection waits before its worker
/// looks again at the queue, the drain flag and the read timeout.
const READ_SLICE: Duration = Duration::from_millis(5);

/// Bind and start serving.
///
/// # Errors
///
/// Propagates the bind failure, or a failure to open the store.
pub fn start(config: &ServerConfig) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let workers = config.workers.max(1);
    let mut state = AppState::new(config.cfg, config.cache_capacity, workers);
    state.disk_breaker = Arc::new(TierBreaker::new(config.breaker_threshold, config.breaker_cooldown));
    state.deadline = config.request_deadline;
    state.node_id = config.node_id.clone();
    if let Some(opened) = &config.store {
        // A pre-opened store (chaos tests inject FaultVfs-backed ones
        // this way) takes precedence over store_dir.
        store::install(Arc::clone(opened));
        state.store = Some(Arc::clone(opened));
    } else if let Some(dir) = &config.store_dir {
        let opened = store::open_guarded(dir, env::store_config())
            .map_err(|e| io::Error::other(format!("open store at {}: {e}", dir.display())))?;
        // Install globally too, so the trace cache records once across
        // restarts, not just the rendered results.
        store::install(Arc::clone(&opened));
        state.store = Some(opened);
    }
    if let Some(opened) = &state.store {
        // A background flush that fails is the same disk going bad as a
        // foreground load failing: feed it into the breaker's streak.
        // Successes deliberately do NOT close the breaker — only a
        // foreground probe proves the read path is healthy again.
        let breaker = Arc::clone(&state.disk_breaker);
        opened.set_flush_observer(Box::new(move |ok| {
            if !ok {
                breaker.record_failure();
            }
        }));
    }
    let limits = Limits {
        workers,
        queue_capacity: config.queue_capacity,
        read_timeout: config.read_timeout,
        write_timeout: config.write_timeout,
        queue_deadline: Some(config.request_deadline),
    };
    Frontend::start(listener, limits, Arc::new(state))
}

fn accept_loop<S: Service>(
    listener: &TcpListener,
    service: &S,
    queue: &Bounded<Queued>,
    write_timeout: Duration,
) {
    let counters = service.connections();
    while !service.draining() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                counters.connections_accepted.fetch_add(1, Ordering::Relaxed);
                // The listener is nonblocking; the accepted stream must
                // not be, or reads would spin instead of blocking with a
                // timeout. No Nagle: a pipelined second response would
                // otherwise wait for the peer's delayed ACK of the first.
                let configured = stream.set_nonblocking(false).is_ok()
                    && stream.set_nodelay(true).is_ok()
                    && stream.set_read_timeout(Some(READ_SLICE)).is_ok()
                    && stream.set_write_timeout(Some(write_timeout)).is_ok();
                if !configured {
                    continue; // peer is gone; nothing to shed
                }
                if let Err(err) = queue.try_push((stream, Instant::now())) {
                    let (PushError::Full((mut stream, _)) | PushError::Closed((mut stream, _))) =
                        err;
                    counters.queue_rejections.fetch_add(1, Ordering::Relaxed);
                    shed(service, &mut stream, S::QUEUE_FULL);
                }
            }
            Err(_) => thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Answer 503 with `retry-after: 1` and let the connection close.
fn shed<S: Service>(service: &S, stream: &mut TcpStream, why: &str) {
    service.answered(503);
    let _ = Response::text(503, why).with_header("retry-after", "1").write_to(stream, false, false);
}

/// Serve one connection until close, drain, timeout, release, or
/// protocol error.
///
/// `accepted` is when the accept loop queued the connection: one that
/// sat in the queue past [`Limits::queue_deadline`] is shed with 503
/// before any bytes are read — a stalled disk must not turn the queue
/// into an unbounded latency amplifier.
///
/// A worker does not sit on a keep-alive connection while others queue
/// for a busy worker: a response written then says `connection: close`,
/// and a connection idle between requests, with no request bytes
/// buffered, is released as soon as one queues. Reads wait in
/// [`READ_SLICE`]s so the second check runs between requests; the read
/// timeout still counts from the last byte received or response sent.
/// A connection holding part of a request, or still waiting for its
/// first, is never released.
fn serve_connection<S: Service>(
    service: &S,
    queue: &Bounded<Queued>,
    limits: &Limits,
    mut stream: TcpStream,
    accepted: Instant,
) {
    let counters = service.connections();
    if limits.queue_deadline.is_some_and(|deadline| accepted.elapsed() > deadline) {
        counters.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
        shed(service, &mut stream, "spent too long queued; retry shortly\n");
        return;
    }
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let mut last_activity = Instant::now();
    let mut answered = false;

    loop {
        // Serve every complete pipelined request already buffered.
        loop {
            match parse_request(&buf) {
                Ok(Some((req, consumed))) => {
                    buf.drain(..consumed);
                    let response = service.respond(&req, queue.len());
                    let keep_alive = req.keep_alive && !service.draining() && queue.unclaimed() == 0;
                    let head_only = req.method == "HEAD";
                    if response.write_to(&mut stream, keep_alive, head_only).is_err() {
                        return;
                    }
                    if !keep_alive {
                        return;
                    }
                    answered = true;
                    last_activity = Instant::now();
                }
                Ok(None) => break, // need more bytes
                Err(err) => {
                    let resp = Response::from_parse_error(&err);
                    service.answered(resp.status);
                    let _ = resp.write_to(&mut stream, false, false);
                    return;
                }
            }
        }

        if service.draining() && buf.is_empty() {
            return; // no partial request in flight; drop the idle conn
        }
        if buf.len() > MAX_HEADER_BYTES + MAX_BODY {
            return; // defensive: parser should have rejected long ago
        }

        match stream.read(&mut chunk) {
            Ok(0) => return, // peer closed
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                last_activity = Instant::now();
            }
            Err(ref e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if last_activity.elapsed() < limits.read_timeout {
                    // Idle between requests while a queued connection
                    // needs this worker: release. A fresh connection keeps
                    // its worker until its first request, since a pooled
                    // client (the router's proxy) retries only a reused
                    // connection.
                    if answered && buf.is_empty() && queue.unclaimed() > 0 {
                        return;
                    }
                    continue;
                }
                counters.timeouts.fetch_add(1, Ordering::Relaxed);
                if !buf.is_empty() {
                    // Mid-request stall: tell the peer before hanging up.
                    let resp = Response::text(408, "timed out waiting for the full request\n");
                    let _ = resp.write_to(&mut stream, false, false);
                }
                return;
            }
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn test_config() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 4,
            cache_capacity: 32,
            read_timeout: Duration::from_millis(300),
            write_timeout: Duration::from_millis(300),
            cfg: ExpConfig::quick(),
            store_dir: None,
            ..ServerConfig::default()
        }
    }

    fn roundtrip(addr: SocketAddr, raw: &str) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(raw.as_bytes()).unwrap();
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_healthz_then_drains_cleanly() {
        let handle = start(&test_config()).unwrap();
        let addr = handle.addr();
        let resp = roundtrip(addr, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200 OK\r\n"), "{resp}");
        assert!(resp.ends_with("ok\n"), "{resp}");

        handle.shutdown();
        handle.wait();
    }

    #[test]
    fn malformed_request_gets_400_class() {
        let handle = start(&test_config()).unwrap();
        let resp = roundtrip(handle.addr(), "BOGUS\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 400"), "{resp}");
        handle.shutdown();
        handle.wait();
    }

    #[test]
    fn slow_partial_request_times_out_with_408() {
        let handle = start(&test_config()).unwrap();
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        s.write_all(b"GET /healthz HTTP/1.1\r\nHost:").unwrap(); // never finish
        let mut out = String::new();
        s.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 408"), "{out}");
        handle.shutdown();
        handle.wait();
    }

    #[test]
    fn zero_deadline_sheds_connections_before_reading() {
        let mut cfg = test_config();
        cfg.request_deadline = Duration::ZERO;
        let handle = start(&cfg).unwrap();
        // Send nothing: the shed happens before the request is read, and
        // an unread request would RST the connection on the server's
        // close instead of delivering the 503.
        let mut s = TcpStream::connect(handle.addr()).unwrap();
        let mut resp = String::new();
        s.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 503"), "{resp}");
        assert!(resp.contains("retry-after: 1"), "{resp}");
        assert!(handle.state().metrics.deadline_exceeded.load(Ordering::Relaxed) >= 1);
        handle.shutdown();
        handle.wait();
    }

    #[test]
    fn quitquitquit_drains_the_server() {
        let handle = start(&test_config()).unwrap();
        let resp = roundtrip(handle.addr(), "GET /quitquitquit HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        handle.wait(); // returns because the drain flag stops the accept loop
    }
}
