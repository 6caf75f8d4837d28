//! Memoization-as-a-service: an HTTP front end over the reproduction.
//!
//! The paper puts a memo table in front of a multiply/divide unit so
//! repeated operands skip the computation. This crate does the same one
//! level up: a dependency-free HTTP/1.1 service (std `TcpListener` only)
//! puts a sharded, single-flight result cache in front of the experiment
//! suite, so repeated requests for a table, figure, or sweep skip the
//! replay entirely. The moving parts mirror the hardware shape:
//!
//! - [`server`]: the front end — accept loop, a bounded reservation
//!   queue with explicit shedding (503 + `Retry-After`) instead of
//!   unbounded buffering, a fixed set of workers (the functional
//!   units), timeouts and graceful drain. It is generic over the
//!   [`server::Service`] that answers requests, so memo-cluster's
//!   router runs the same front end;
//! - [`routes`]: the lookup table — canonical `(experiment, config)`
//!   keys into a sharded LRU with single-flight dedup;
//! - [`http`]: a strict, bounded HTTP/1.1 parser/serializer;
//! - [`metrics`] + [`hist`]: counters and lock-free latency histograms
//!   behind `/metrics`;
//! - [`load`]: a deterministic load generator (`memo-load`) writing
//!   `BENCH_serve.json`.
//!
//! Endpoints: `GET /healthz`, `GET /metrics`, `GET /v1/table/{1..13}`,
//! `GET /v1/figure/{2..4}`, `GET /v1/sweep?entries=..&ways=..`,
//! `GET /v1/region` (the region-memoization family), and
//! `GET /quitquitquit` (graceful drain). Artifact bodies are the
//! `memo-experiments` command's stdout bytes — same renderer, plus the
//! trailing newline. One resolver in [`routes`] maps each artifact URL
//! to its cache key and its render.

pub mod hist;
pub mod http;
pub mod load;
pub mod metrics;
mod pool;
mod queue;
pub mod routes;
pub mod server;
