//! Sharded multi-node serving: a consistent-hash router over memo-serve.
//!
//! The paper's banked memo-tables spread lookups across independent
//! banks so no single port bottlenecks (DESIGN.md §8); this crate lifts
//! that idea one level up. A fleet of memo-serve nodes each owns a slice
//! of the canonical `(experiment, config)` key space, and `memo-router`
//! — a zero-dependency HTTP tier that serves through memo-serve's own
//! front end (`memo_serve::server::Frontend`) — places every request on
//! its owners via a 160-vnode consistent-hash ring:
//!
//! - [`ring`]: the hash ring — vnode placement, clockwise owner walks,
//!   minimal remapping when a node leaves;
//! - [`topology`]: the fleet — node identities plus an atomically
//!   swapped health snapshot (the routing table) with a generation
//!   counter, so in-flight requests keep the table they started with;
//! - [`probe`]: periodic `/healthz` probing, including the
//!   `degraded:*` states memo-serve reports when its disk tier is out;
//! - [`proxy`]: pooled backend connections — forward a request
//!   verbatim, read the response through the shared parser, re-warm a
//!   replica;
//! - [`router`]: the routing service the front end calls —
//!   primary-then-replica failover on connection failure or 5xx,
//!   per-node circuit breakers, and read-repair that re-warms replicas
//!   whenever the serving node answered from disk or compute;
//! - [`metrics`]: the router's own `/metrics` — per-node
//!   request/error/latency, ring generation, failover and read-repair
//!   totals.
//!
//! Responses gain two router headers: `x-memo-ring-gen` (the routing
//! table generation that placed the request) on top of the backend's
//! `x-memo-node`. Bodies are byte-identical to a single node's output —
//! the router never rewrites what a backend rendered.

pub mod metrics;
pub mod probe;
pub mod proxy;
pub mod ring;
pub mod router;
pub mod topology;
