//! Warm keep-alive latency through the router: a hop must not bring back
//! the 40 ms delayed-ACK floor that one write per response and
//! `TCP_NODELAY` remove on a node. The client side of each check is
//! memo-serve's own warmed-connection probe.

use std::time::Duration;

use memo_cluster::router::{self, RouterConfig, RouterHandle};
use memo_cluster::topology::Node;
use memo_experiments::ExpConfig;
use memo_serve::server::{self, ServerConfig, ServerHandle};

#[path = "../../memo-serve/tests/support/keepalive.rs"]
mod keepalive;

/// One node behind a router.
fn routed() -> (ServerHandle, RouterHandle) {
    let node = server::start(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_capacity: 16,
        cfg: ExpConfig::quick(),
        node_id: Some("n0".to_string()),
        ..ServerConfig::default()
    })
    .expect("boot node");
    let router = router::start(&RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        nodes: vec![Node { name: "n0".to_string(), addr: node.addr().to_string() }],
        workers: 2,
        probe_interval: Duration::from_millis(200),
        cfg: ExpConfig::quick(),
        ..RouterConfig::default()
    })
    .expect("boot router");
    (node, router)
}

fn stop(node: ServerHandle, router: RouterHandle) {
    router.shutdown();
    router.wait();
    node.shutdown();
    node.wait();
}

#[test]
fn routed_warm_keep_alive_hits_answer_below_the_delayed_ack_floor() {
    let (node, router) = routed();
    let mut conn = keepalive::Warmed::connect(router.addr(), "/v1/table/1");
    let median = keepalive::median((0..64).map(|_| conn.time(1)).collect());
    assert!(
        median < keepalive::FLOOR_BOUND,
        "median of 64 routed warm hits is {median:?}: a hop is waiting on a delayed ACK"
    );
    drop(conn);
    stop(node, router);
}

#[test]
fn routed_warm_pipelined_pairs_answer_below_the_delayed_ack_floor() {
    let (node, router) = routed();
    let mut conn = keepalive::Warmed::connect(router.addr(), "/v1/table/1");
    let median = keepalive::median((0..16).map(|_| conn.time(2)).collect());
    assert!(
        median < keepalive::FLOOR_BOUND,
        "median of 16 routed pipelined pairs is {median:?}: the second response is waiting on a delayed ACK"
    );
    drop(conn);
    stop(node, router);
}
