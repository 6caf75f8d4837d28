//! Request routing and the server-side result cache.
//!
//! Every artifact URL resolves, in one pass ([`cache_key`] and the route
//! share it), to a canonical key and a call into the same
//! `memo_experiments::runner` entry points the `memo-experiments`
//! command uses, so the HTTP bytes are the CLI bytes plus a trailing
//! newline (the command `println!`s). Results are cached in a
//! [`ShardedLru`] keyed by the canonical `(experiment, config)` string,
//! with single-flight dedup so
//! a thundering herd on a cold table computes it exactly once. With a
//! persistent store attached (`--store-dir`), a memory miss consults the
//! store before computing, and successful renders are written through —
//! a restarted server answers from disk (`x-memo-cache: disk`) without
//! re-running any experiment.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use memo_experiments::cache::{BreakerState, ShardedLru, TierBreaker, TierOutcome};
use memo_experiments::{runner, ExpConfig, ExperimentError};
use memo_store::{ResultBlob, RetryPolicy, Store};

use crate::http::{Request, Response};
use crate::metrics::{CacheOutcome, Endpoint, Metrics};
use crate::server::Service;

/// Shared state behind every worker.
pub struct AppState {
    /// Base experiment config (query params may override per request).
    pub cfg: ExpConfig,
    /// Rendered-result cache: canonical key → (status, body).
    pub cache: ShardedLru<String, (u16, String)>,
    /// The persistent tier behind the result cache, when configured.
    pub store: Option<Arc<Store>>,
    /// Circuit breaker guarding the persistent tier: after enough
    /// consecutive store failures the disk is skipped entirely and the
    /// server degrades to memory → compute until a probe succeeds. A
    /// failing flush fails the write-through put that ran it, so flush
    /// failures join the same streak as failed loads.
    pub disk_breaker: TierBreaker,
    /// Retry policy for transient store errors (both loads and
    /// write-through persists).
    pub store_retry: RetryPolicy,
    /// Per-request time budget. A request still waiting past this is
    /// shed with 503 instead of stalling a worker.
    pub deadline: Duration,
    /// Service counters.
    pub metrics: Metrics,
    /// Set by `/quitquitquit` (and the server's shutdown path); the
    /// accept loop exits when it observes this.
    pub draining: AtomicBool,
    /// Worker count, reported in `/metrics`.
    pub workers: usize,
    /// Cluster identity: when set, every response carries an
    /// `x-memo-node` header naming this node, so the router tier and the
    /// load generator can attribute responses to fleet members.
    pub node_id: Option<String>,
}

impl AppState {
    /// State with `cache_capacity` cached renders across 8 shards.
    #[must_use]
    pub fn new(cfg: ExpConfig, cache_capacity: usize, workers: usize) -> Self {
        AppState {
            cfg,
            // Status line + body is what a cached render keeps alive.
            cache: ShardedLru::new(8, cache_capacity.max(8))
                .with_weigher(|(_, body): &(u16, String)| body.len() + std::mem::size_of::<u16>()),
            store: None,
            disk_breaker: TierBreaker::new(5, Duration::from_secs(2)),
            store_retry: RetryPolicy::default(),
            deadline: Duration::from_secs(30),
            metrics: Metrics::new(),
            draining: AtomicBool::new(false),
            workers,
            node_id: None,
        }
    }
}

/// Per-request experiment config: the base config with optional
/// `scale` / `sci_n` query overrides, clamped to sane ranges.
fn effective_cfg(base: ExpConfig, req: &Request) -> ExpConfig {
    let mut cfg = base;
    if let Some(v) = req.query_param("scale").and_then(|v| v.parse::<usize>().ok()) {
        cfg.image_scale = v.clamp(1, 64);
    }
    if let Some(v) = req.query_param("sci_n").and_then(|v| v.parse::<usize>().ok()) {
        cfg.sci_n = v.clamp(8, 64);
    }
    cfg
}

/// The runner call behind a resolved artifact request.
enum Render {
    Table(usize),
    Figure(usize),
    Sweep(runner::SweepQuery),
    Region,
}

impl Render {
    /// Render into the `(status, body)` a cache entry holds. Bodies get
    /// the trailing newline the CLI's `println!` adds, so HTTP bytes ==
    /// CLI stdout bytes.
    fn run(&self, cfg: ExpConfig) -> (u16, String) {
        let result = match self {
            Render::Table(n) => runner::table(*n, cfg),
            Render::Figure(n) => runner::figure(*n, cfg),
            Render::Sweep(q) => runner::sweep(cfg, q),
            Render::Region => runner::region(cfg),
        };
        match result {
            Ok(body) => (200, format!("{body}\n")),
            Err(err) => error_response(&err),
        }
    }
}

/// The family's part of the cache key: `table/5`, `figure/2`,
/// `sweep/entries=8,16;ways=4` (the query canonicalized, so
/// `?ways=4&entries=8,16` and `?entries=8,16` share a render) or `region`.
impl fmt::Display for Render {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Render::Table(n) => write!(f, "table/{n}"),
            Render::Figure(n) => write!(f, "figure/{n}"),
            Render::Sweep(q) => write!(f, "sweep/{}", q.canonical()),
            Render::Region => f.write_str("region"),
        }
    }
}

/// An artifact request, resolved.
struct Resolved {
    /// The canonical cache key (see [`cache_key`]).
    key: String,
    /// Metrics class the request rolls up under.
    endpoint: Endpoint,
    /// The base config with the request's overrides.
    cfg: ExpConfig,
    render: Render,
}

/// Map an artifact URL to its cache key and render. `None` when the path
/// names no artifact family (health, metrics, unknown routes); an error
/// `(endpoint, status, body)` when a family's parameter is bad: a
/// non-integer table or figure number is 404, an unparseable sweep 400.
fn resolve(base: ExpConfig, req: &Request) -> Option<Result<Resolved, (Endpoint, u16, String)>> {
    let path = req.path.as_str();
    let number = |kind: &str, raw: &str| {
        raw.parse::<usize>()
            .map_err(|_| (404, format!("{kind} number must be an integer, got {raw:?}\n")))
    };
    let (endpoint, render) = if let Some(raw) = path.strip_prefix("/v1/table/") {
        (Endpoint::Table, number("table", raw).map(Render::Table))
    } else if let Some(raw) = path.strip_prefix("/v1/figure/") {
        (Endpoint::Figure, number("figure", raw).map(Render::Figure))
    } else if path == "/v1/sweep" {
        let query = runner::SweepQuery::parse(req.query_param("entries"), req.query_param("ways"));
        (Endpoint::Sweep, query.map(Render::Sweep).map_err(|err| error_response(&err)))
    } else if path == "/v1/region" {
        (Endpoint::Region, Ok(Render::Region))
    } else {
        return None;
    };
    let render = match render {
        Ok(render) => render,
        Err((status, body)) => return Some(Err((endpoint, status, body))),
    };
    let cfg = effective_cfg(base, req);
    let key = format!("{render}@scale={};sci_n={}", cfg.image_scale, cfg.sci_n);
    Some(Ok(Resolved { key, endpoint, cfg, render }))
}

/// The canonical cache key for an artifact request, or `None` when the
/// request does not address a cacheable artifact (health, metrics,
/// unknown routes, unparseable numbers or sweep axes).
///
/// This is THE key: the node's in-memory cache, its store write-through,
/// the replica-warm endpoint, and the cluster router's consistent-hash
/// placement all use these exact bytes, so a key hashes to the same ring
/// position no matter which tier computes it.
#[must_use]
pub fn cache_key(base: ExpConfig, req: &Request) -> Option<String> {
    resolve(base, req)?.ok().map(|r| r.key)
}

fn error_response(err: &ExperimentError) -> (u16, String) {
    let status = match err {
        ExperimentError::UnknownArtifact { .. } => 404,
        ExperimentError::InvalidSweep(_) => 400,
        _ => 500,
    };
    (status, format!("{err}\n"))
}

/// The store key a rendered artifact persists under.
fn store_key(key: &str) -> String {
    format!("results/{key}")
}

/// Resolve a cacheable artifact through the tiered result cache,
/// reporting which tier served this request: memory, the persistent
/// store, or a fresh computation. Only successful renders are written
/// through to the store — errors stay in memory so a transient failure
/// never becomes a persisted one.
///
/// The store sits behind [`AppState::disk_breaker`]: transient I/O
/// errors are retried per [`AppState::store_retry`], a persistent
/// failure streak trips the breaker and the server degrades to
/// memory → compute. A request that has already burned its deadline
/// budget is shed with 503 before any rendering starts.
fn cached_artifact(
    state: &AppState,
    key: String,
    deadline: Instant,
    compute: impl FnOnce() -> (u16, String),
) -> (u16, String, CacheOutcome) {
    if let Some(entry) = state.cache.peek(&key) {
        let (status, body) = entry.as_ref().clone();
        return (status, body, CacheOutcome::Hit);
    }
    if Instant::now() >= deadline {
        state.metrics.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
        return (
            503,
            "deadline exceeded before rendering began; retry\n".to_string(),
            CacheOutcome::Uncached,
        );
    }
    let (entry, tier) = state.cache.get_or_compute_tiered_guarded(
        &key,
        &state.disk_breaker,
        || {
            let Some(store) = state.store.as_ref() else { return Ok(None) };
            // Out of budget: skip the disk probe rather than spend what
            // little time remains on I/O that may block.
            if Instant::now() >= deadline {
                return Ok(None);
            }
            let (result, retries) =
                state.store_retry.run(|| store.get(store_key(&key).as_bytes()));
            state.metrics.store_retries.fetch_add(u64::from(retries), Ordering::Relaxed);
            match result {
                // A blob that fails to decode is a clean miss, not a tier
                // failure: the disk answered, the payload was stale junk.
                Ok(Some(bytes)) => Ok(ResultBlob::from_bytes(&bytes).ok().and_then(|blob| {
                    Some((blob.status, String::from_utf8(blob.body).ok()?))
                })),
                Ok(None) => Ok(None),
                Err(_) => {
                    state.metrics.store_io_errors.fetch_add(1, Ordering::Relaxed);
                    Err(())
                }
            }
        },
        |(status, body)| {
            let Some(store) = state.store.as_ref() else { return Ok(()) };
            if *status != 200 {
                return Ok(());
            }
            let blob = ResultBlob { status: *status, body: body.clone().into_bytes() };
            let (result, retries) =
                state.store_retry.run(|| store.put(store_key(&key).as_bytes(), &blob.to_bytes()));
            state.metrics.store_retries.fetch_add(u64::from(retries), Ordering::Relaxed);
            match result {
                Ok(()) => Ok(()),
                Err(_) => {
                    state.metrics.store_io_errors.fetch_add(1, Ordering::Relaxed);
                    Err(())
                }
            }
        },
        compute,
    );
    let outcome = match tier {
        TierOutcome::Memory => CacheOutcome::Hit,
        TierOutcome::Disk => CacheOutcome::Disk,
        TierOutcome::Computed => CacheOutcome::Miss,
    };
    let (status, body) = entry.as_ref().clone();
    (status, body, outcome)
}

/// The routing result: what to send, plus labels for metrics.
pub struct Routed {
    /// The response to serialize.
    pub response: Response,
    /// Which endpoint class handled it.
    pub endpoint: Endpoint,
    /// Whether the result cache served it.
    pub cache: CacheOutcome,
}

fn routed(response: Response, endpoint: Endpoint, cache: CacheOutcome) -> Routed {
    Routed { response, endpoint, cache }
}

/// Dispatch one parsed request. `queue_depth` is the current request
/// queue length, surfaced through `/metrics`. When the node has a
/// cluster identity ([`AppState::node_id`]) every response carries it in
/// an `x-memo-node` header.
#[must_use]
pub fn handle(state: &AppState, req: &Request, queue_depth: usize) -> Routed {
    let mut r = route(state, req, queue_depth);
    if let Some(id) = &state.node_id {
        r.response.headers.push(("x-memo-node".to_string(), id.clone()));
    }
    r
}

fn route(state: &AppState, req: &Request, queue_depth: usize) -> Routed {
    // The rendering budget starts ticking here; queue time is policed
    // separately by the worker before it parses the request.
    let deadline = Instant::now() + state.deadline;
    // The replica-warm endpoint is the one non-GET route: the router's
    // read-repair path POSTs rendered bytes at replicas.
    if req.method == "POST" && req.path == "/v1/warm" {
        return warm(state, req, deadline);
    }
    if req.method != "GET" && req.method != "HEAD" {
        return routed(
            Response::text(405, "only GET and HEAD are supported\n").with_header("allow", "GET, HEAD"),
            Endpoint::Other,
            CacheOutcome::Uncached,
        );
    }

    match req.path.as_str() {
        "/healthz" => {
            let body = if state.draining() {
                "draining\n"
            } else if state.disk_breaker.state() != BreakerState::Closed {
                // Serving continues (memory → compute) but the disk tier
                // is out: surface it without failing the health check.
                "degraded:disk-breaker-open\n"
            } else {
                "ok\n"
            };
            routed(Response::text(200, body), Endpoint::Healthz, CacheOutcome::Uncached)
        }
        "/metrics" => {
            let store_stats = state.store.as_ref().map(|s| s.stats());
            let text = state.metrics.render(
                queue_depth,
                state.workers,
                state.draining(),
                &state.cache.stats(),
                store_stats.as_ref(),
                &state.disk_breaker.stats(),
            );
            routed(Response::text(200, text), Endpoint::Metrics, CacheOutcome::Uncached)
        }
        "/quitquitquit" => {
            state.start_drain();
            routed(Response::text(200, "draining\n"), Endpoint::Other, CacheOutcome::Uncached)
        }
        path => match resolve(state.cfg, req) {
            None => routed(
                Response::text(404, format!("no route for {path}\n")),
                Endpoint::Other,
                CacheOutcome::Uncached,
            ),
            Some(Err((endpoint, status, body))) => {
                routed(Response::text(status, body), endpoint, CacheOutcome::Uncached)
            }
            Some(Ok(Resolved { key, endpoint, cfg, render })) => {
                let (status, body, outcome) =
                    cached_artifact(state, key, deadline, || render.run(cfg));
                routed(
                    Response::text(status, body).with_header("x-memo-cache", cache_label(outcome)),
                    endpoint,
                    outcome,
                )
            }
        },
    }
}

/// `POST /v1/warm?key=<cache key>`: install rendered bytes into this
/// node's cache tiers without recomputing them. The cluster router's
/// read-repair path calls this on replicas after a primary served a key
/// from disk or compute, so a later failover finds the replica already
/// warm. Installation runs through the same tiered path as a served
/// request — memory insert plus breaker-guarded store write-through —
/// and a key the node already holds is left untouched (the resident
/// bytes win; they were rendered or repaired earlier).
fn warm(state: &AppState, req: &Request, deadline: Instant) -> Routed {
    let reject = |why| routed(Response::text(400, why), Endpoint::Other, CacheOutcome::Uncached);
    let Some(key) = req.query_param("key").map(str::to_string).filter(|k| !k.is_empty()) else {
        return reject("warm requires a non-empty ?key= parameter\n");
    };
    let Ok(body) = String::from_utf8(req.body.clone()) else {
        return reject("warm body must be UTF-8\n");
    };
    if body.is_empty() {
        return reject("warm requires a non-empty body\n");
    }
    if state.cache.peek(&key).is_some() {
        return routed(
            Response::text(200, "already-warm\n").with_header("x-memo-warm", "memory"),
            Endpoint::Other,
            CacheOutcome::Hit,
        );
    }
    let (status, served, outcome) = cached_artifact(state, key, deadline, move || (200, body));
    if status != 200 {
        // Deadline shed (or a store-resident error blob): report it, do
        // not count a warm that never landed.
        return routed(Response::text(status, served), Endpoint::Other, CacheOutcome::Uncached);
    }
    state.metrics.warms.fetch_add(1, Ordering::Relaxed);
    let tier = match outcome {
        CacheOutcome::Hit => "memory",
        CacheOutcome::Disk => "disk",
        _ => "installed",
    };
    routed(
        Response::text(200, "warmed\n").with_header("x-memo-warm", tier),
        Endpoint::Other,
        outcome,
    )
}

fn cache_label(outcome: CacheOutcome) -> &'static str {
    match outcome {
        CacheOutcome::Hit => "hit",
        CacheOutcome::Disk => "disk",
        _ => "miss",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::parse_request;

    fn get(path: &str) -> Request {
        let raw = format!("GET {path} HTTP/1.1\r\n\r\n");
        parse_request(raw.as_bytes()).unwrap().unwrap().0
    }

    fn state() -> AppState {
        AppState::new(ExpConfig::quick(), 64, 2)
    }

    #[test]
    fn healthz_and_unknown_routes() {
        let s = state();
        let r = handle(&s, &get("/healthz"), 0);
        assert_eq!(r.response.status, 200);
        assert_eq!(r.response.body, b"ok\n");
        assert_eq!(r.endpoint, Endpoint::Healthz);

        let r = handle(&s, &get("/nope"), 0);
        assert_eq!(r.response.status, 404);
    }

    #[test]
    fn non_get_rejected() {
        let s = state();
        let raw = b"PUT /healthz HTTP/1.1\r\n\r\n";
        let req = parse_request(raw).unwrap().unwrap().0;
        let r = handle(&s, &req, 0);
        assert_eq!(r.response.status, 405);
    }

    #[test]
    fn table_matches_runner_bytes_and_caches() {
        let s = state();
        let direct = runner::table(1, ExpConfig::quick()).unwrap();
        let r = handle(&s, &get("/v1/table/1"), 0);
        assert_eq!(r.response.status, 200);
        assert_eq!(r.response.body, format!("{direct}\n").into_bytes());
        assert_eq!(r.cache, CacheOutcome::Miss);

        let r2 = handle(&s, &get("/v1/table/1"), 0);
        assert_eq!(r2.cache, CacheOutcome::Hit);
        assert_eq!(r2.response.body, r.response.body);
        assert!(r2.response.headers.iter().any(|(k, v)| k == "x-memo-cache" && v == "hit"));
    }

    #[test]
    fn unknown_table_is_404_and_bad_sweep_is_400() {
        let s = state();
        assert_eq!(handle(&s, &get("/v1/table/99"), 0).response.status, 404);
        assert_eq!(handle(&s, &get("/v1/table/abc"), 0).response.status, 404);
        assert_eq!(handle(&s, &get("/v1/sweep?entries=nope"), 0).response.status, 400);
        assert_eq!(handle(&s, &get("/v1/sweep?entries=8,16&ways=2,4"), 0).response.status, 400);
    }

    #[test]
    fn scale_override_changes_the_cache_key() {
        let s = state();
        let a = handle(&s, &get("/v1/table/5"), 0);
        let b = handle(&s, &get("/v1/table/5?sci_n=24"), 0);
        // Different configs must not alias in the cache.
        assert_eq!(b.cache, CacheOutcome::Miss);
        let b2 = handle(&s, &get("/v1/table/5?sci_n=24"), 0);
        assert_eq!(b2.cache, CacheOutcome::Hit);
        let _ = a;
    }

    #[test]
    fn disk_tier_serves_persisted_renders_and_writes_through() {
        use memo_store::{Store, StoreConfig};
        let dir = std::env::temp_dir()
            .join(format!("memo-serve-routes-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir, StoreConfig::small_for_tests()).unwrap());

        // Pre-seed a recognizably fake render: if the request answers
        // with these bytes, it came from the store, not the runner.
        let fake = ResultBlob { status: 200, body: b"fake table from disk\n".to_vec() };
        store
            .put(b"results/table/1@scale=16;sci_n=16", &fake.to_bytes())
            .unwrap();

        let mut s = state();
        s.store = Some(Arc::clone(&store));
        let r = handle(&s, &get("/v1/table/1"), 0);
        assert_eq!(r.cache, CacheOutcome::Disk);
        assert_eq!(r.response.body, b"fake table from disk\n");
        assert!(r.response.headers.iter().any(|(k, v)| k == "x-memo-cache" && v == "disk"));
        // Now resident: the repeat is a plain memory hit.
        assert_eq!(handle(&s, &get("/v1/table/1"), 0).cache, CacheOutcome::Hit);

        // A key the store has never seen computes and writes through…
        let r = handle(&s, &get("/v1/table/2"), 0);
        assert_eq!(r.cache, CacheOutcome::Miss);
        let persisted = store.get(b"results/table/2@scale=16;sci_n=16").unwrap().unwrap();
        assert_eq!(ResultBlob::from_bytes(&persisted).unwrap().body, r.response.body);
        // …but error responses are never persisted.
        assert_eq!(handle(&s, &get("/v1/table/99"), 0).response.status, 404);
        assert_eq!(store.get(b"results/table/99@scale=16;sci_n=16").unwrap(), None);

        // The cache counted the disk hit, and /metrics shows the store.
        // (`memo_serve_cache_disk_hits_total` is incremented by the
        // connection handler's observe(), which unit tests bypass; the
        // restart e2e test covers it end to end.)
        assert_eq!(s.cache.stats().disk_hits, 1);
        let m = handle(&s, &get("/metrics"), 0);
        let text = String::from_utf8(m.response.body.clone()).unwrap();
        assert!(text.contains("memo_store_attached 1"), "{text}");
        assert!(text.contains("memo_store_segment_hits_total"));
        // `s` holds the other handle: the store must be gone before its
        // directory is.
        drop(s);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_bytes_gauge_tracks_resident_renders() {
        let s = state();
        assert_eq!(s.cache.stats().approx_bytes, 0);
        let r = handle(&s, &get("/v1/table/1"), 0);
        let expected = (r.response.body.len() + std::mem::size_of::<u16>()) as u64;
        assert_eq!(s.cache.stats().approx_bytes, expected);
    }

    #[test]
    fn zero_deadline_sheds_artifact_requests_with_503() {
        let mut s = state();
        s.deadline = Duration::ZERO;
        let r = handle(&s, &get("/v1/table/1"), 0);
        assert_eq!(r.response.status, 503);
        assert_eq!(r.cache, CacheOutcome::Uncached);
        assert_eq!(s.metrics.deadline_exceeded.load(Ordering::Relaxed), 1);
        // The shed response was never cached: with budget restored the
        // same request renders normally.
        s.deadline = Duration::from_secs(30);
        let r = handle(&s, &get("/v1/table/1"), 0);
        assert_eq!(r.response.status, 200);
        assert_eq!(r.cache, CacheOutcome::Miss);
    }

    #[test]
    fn broken_disk_degrades_to_compute_and_trips_the_breaker() {
        use memo_store::{FaultConfig, FaultVfs, Store, StoreConfig};
        let dir = std::env::temp_dir()
            .join(format!("memo-serve-routes-chaos-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let vfs = Arc::new(FaultVfs::new(FaultConfig::quiet(7)));
        let store = Arc::new(
            Store::open_with_vfs(&dir, StoreConfig::small_for_tests(), vfs.clone()).unwrap(),
        );

        // Seed the request keys into a segment so lookups really touch
        // the disk — a get that misses an empty store does no I/O and
        // would never observe a fault.
        let fake = ResultBlob { status: 200, body: b"seeded\n".to_vec() };
        for n in 1..=2 {
            store
                .put(format!("results/table/{n}@scale=16;sci_n=16").as_bytes(), &fake.to_bytes())
                .unwrap();
        }
        store.flush().unwrap();

        let mut s = state();
        s.store = Some(store);
        s.disk_breaker = TierBreaker::new(2, Duration::from_secs(60));
        // From here on every read, write, and fsync the store issues fails.
        vfs.set_config(FaultConfig {
            read_error_permille: 1000,
            write_error_permille: 1000,
            fsync_error_permille: 1000,
            ..FaultConfig::quiet(7)
        });

        // The store fails on every touch, yet requests still render.
        for n in 1..=2 {
            let r = handle(&s, &get(&format!("/v1/table/{n}")), 0);
            assert_eq!(r.response.status, 200);
            assert_eq!(r.cache, CacheOutcome::Miss);
        }
        assert_eq!(s.disk_breaker.state(), BreakerState::Open);
        assert!(s.disk_breaker.stats().trips >= 1);
        assert!(s.metrics.store_io_errors.load(Ordering::Relaxed) >= 2);
        assert!(s.metrics.store_retries.load(Ordering::Relaxed) >= 2);

        // Health reports the degraded tier; serving continues, disk
        // untouched (breaker open means no further store calls).
        let h = handle(&s, &get("/healthz"), 0);
        assert_eq!(h.response.body, b"degraded:disk-breaker-open\n");
        let r = handle(&s, &get("/v1/table/3"), 0);
        assert_eq!(r.response.status, 200);
        assert_eq!(r.cache, CacheOutcome::Miss);

        let m = handle(&s, &get("/metrics"), 0);
        let text = String::from_utf8(m.response.body).unwrap();
        assert!(text.contains("memo_tier_breaker_state 2"), "{text}");
        assert!(text.contains("memo_store_io_errors_total"));
        drop(s);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_key_matches_the_keys_handlers_use() {
        let cfg = ExpConfig::quick();
        assert_eq!(
            cache_key(cfg, &get("/v1/table/5")).as_deref(),
            Some("table/5@scale=16;sci_n=16")
        );
        assert_eq!(
            cache_key(cfg, &get("/v1/figure/2?sci_n=24")).as_deref(),
            Some("figure/2@scale=16;sci_n=24")
        );
        // Sweeps canonicalize their axes exactly like the handler does.
        let via_key = cache_key(cfg, &get("/v1/sweep?entries=16,8&ways=2")).unwrap();
        let q = runner::SweepQuery::parse(Some("16,8"), Some("2")).unwrap();
        assert_eq!(via_key, format!("sweep/{}@scale=16;sci_n=16", q.canonical()));
        // Whole-family artifacts key on the config alone.
        assert_eq!(cache_key(cfg, &get("/v1/region")).as_deref(), Some("region@scale=16;sci_n=16"));
        assert_eq!(
            cache_key(cfg, &get("/v1/region?sci_n=24")).as_deref(),
            Some("region@scale=16;sci_n=24")
        );
        // Non-artifact routes and unparseable sweeps have no key.
        assert_eq!(cache_key(cfg, &get("/healthz")), None);
        assert_eq!(cache_key(cfg, &get("/v1/table/abc")), None);
        assert_eq!(cache_key(cfg, &get("/v1/sweep?entries=nope")), None);
        assert_eq!(cache_key(cfg, &get("/v1/region/1")), None);
    }

    #[test]
    fn every_render_is_cached_under_exactly_its_cache_key() {
        let s = state();
        // Overrides (one clamped), an out-of-range table (a cached 404),
        // the same sweep with its axes reordered, and the region.
        let artifacts = [
            "/v1/table/1?scale=12",
            "/v1/table/2?sci_n=24&scale=999",
            "/v1/table/99",
            "/v1/figure/3?sci_n=24",
            "/v1/sweep?entries=8,16&ways=2",
            "/v1/sweep?ways=2&entries=8,16",
            "/v1/region",
        ];
        let mut keys = std::collections::HashSet::new();
        for path in artifacts {
            let req = get(path);
            let r = handle(&s, &req, 0);
            let key = cache_key(s.cfg, &req).unwrap_or_else(|| panic!("{path} has no key"));
            let entry = s.cache.peek(&key).unwrap_or_else(|| panic!("{path} not under {key}"));
            let body = String::from_utf8(r.response.body).unwrap();
            assert_eq!(*entry, (r.response.status, body), "{path}");
            keys.insert(key);
        }
        // The two sweeps share one key, and nothing else was cached.
        assert_eq!(keys.len(), artifacts.len() - 1);
        assert_eq!(s.cache.len(), keys.len());

        // No key and nothing cached: bad numbers (404), bad sweeps (400;
        // a terabyte of table slots must be refused, not allocated — an
        // allocation failure aborts the whole server), and non-artifacts.
        let no_key = [
            ("/v1/figure/2.5", 404),
            ("/v1/sweep?entries=nope", 400),
            ("/v1/sweep?entries=8,16&ways=2,4", 400),
            ("/v1/sweep?entries=1099511627776", 400),
            ("/v1/region/1", 404),
            ("/healthz", 200),
        ];
        for (path, status) in no_key {
            let req = get(path);
            assert_eq!(handle(&s, &req, 0).response.status, status, "{path}");
            assert_eq!(cache_key(s.cfg, &req), None, "{path}");
        }
        assert_eq!(s.cache.len(), keys.len());
    }

    #[test]
    fn region_matches_runner_bytes_and_caches() {
        let s = state();
        let direct = runner::region(ExpConfig::quick()).unwrap();
        let r = handle(&s, &get("/v1/region"), 0);
        assert_eq!(r.response.status, 200);
        assert_eq!(r.response.body, format!("{direct}\n").into_bytes());
        assert_eq!(r.endpoint, Endpoint::Region);
        assert_eq!(r.cache, CacheOutcome::Miss);

        let r2 = handle(&s, &get("/v1/region"), 0);
        assert_eq!(r2.cache, CacheOutcome::Hit);
        assert_eq!(r2.response.body, r.response.body);
        assert!(r2.response.headers.iter().any(|(k, v)| k == "x-memo-cache" && v == "hit"));
    }

    #[test]
    fn node_id_header_rides_every_response() {
        let mut s = state();
        s.node_id = Some("n1".to_string());
        for path in ["/healthz", "/v1/table/1", "/nope"] {
            let r = handle(&s, &get(path), 0);
            assert!(
                r.response.headers.iter().any(|(k, v)| k == "x-memo-node" && v == "n1"),
                "{path} missing x-memo-node"
            );
        }
    }

    #[test]
    fn warm_installs_into_memory_and_store_without_computing() {
        use memo_store::{Store, StoreConfig};
        let dir = std::env::temp_dir()
            .join(format!("memo-serve-routes-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir, StoreConfig::small_for_tests()).unwrap());
        let mut s = state();
        s.store = Some(Arc::clone(&store));

        let post = |target: &str, body: &str| {
            let raw = format!(
                "POST {target} HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            );
            parse_request(raw.as_bytes()).unwrap().unwrap().0
        };

        // Warm a key this node never rendered: recognizable bytes prove
        // the later GET served the warmed copy, not a fresh render.
        let key = "table/1@scale=16;sci_n=16";
        let r = handle(&s, &post(&format!("/v1/warm?key={key}"), "warmed bytes\n"), 0);
        assert_eq!(r.response.status, 200);
        assert!(r.response.headers.iter().any(|(k, v)| k == "x-memo-warm" && v == "installed"));
        assert_eq!(s.metrics.warms.load(Ordering::Relaxed), 1);

        let served = handle(&s, &get("/v1/table/1"), 0);
        assert_eq!(served.cache, CacheOutcome::Hit);
        assert_eq!(served.response.body, b"warmed bytes\n");
        // …and it write-through persisted, so a restart finds it on disk.
        let blob = store.get(format!("results/{key}").as_bytes()).unwrap().unwrap();
        assert_eq!(ResultBlob::from_bytes(&blob).unwrap().body, b"warmed bytes\n");

        // Re-warming a resident key is a no-op: resident bytes win.
        let r = handle(&s, &post(&format!("/v1/warm?key={key}"), "other bytes\n"), 0);
        assert_eq!(r.response.body, b"already-warm\n");
        assert!(r.response.headers.iter().any(|(k, v)| k == "x-memo-warm" && v == "memory"));
        assert_eq!(s.metrics.warms.load(Ordering::Relaxed), 1, "no-op warms are not counted");
        assert_eq!(handle(&s, &get("/v1/table/1"), 0).response.body, b"warmed bytes\n");

        // Malformed warms are rejected without touching the cache.
        assert_eq!(handle(&s, &post("/v1/warm", "body\n"), 0).response.status, 400);
        assert_eq!(handle(&s, &post("/v1/warm?key=x", ""), 0).response.status, 400);
        drop(s);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quitquitquit_flips_draining() {
        let s = state();
        assert!(!s.draining());
        let r = handle(&s, &get("/quitquitquit"), 0);
        assert_eq!(r.response.status, 200);
        assert!(s.draining());
        let h = handle(&s, &get("/healthz"), 0);
        assert_eq!(h.response.body, b"draining\n");
    }
}
