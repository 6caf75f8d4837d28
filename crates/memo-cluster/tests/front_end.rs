//! The router keeps a node's connection rules, because it serves
//! through the same front end: a stalled partial request gets 408, an
//! idle keep-alive client does not hold a worker another client is
//! waiting for, and an idle client does not hold up a drain.
//!
//! The router's fleet is one address nothing listens on: every request
//! here is one the router answers itself, so no backend is needed.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use memo_cluster::router::{self, RouterConfig, RouterHandle};
use memo_cluster::topology::Node;
use memo_experiments::ExpConfig;
use memo_serve::http::{read_response, ClientResponse};

/// A router over one dead node with `workers` workers and a client read
/// timeout of `read_timeout`.
fn router(workers: usize, read_timeout: Duration) -> RouterHandle {
    let dead = TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap().to_string();
    router::start(&RouterConfig {
        addr: "127.0.0.1:0".to_string(),
        nodes: vec![Node { name: "n0".to_string(), addr: dead }],
        workers,
        read_timeout,
        probe_interval: Duration::from_millis(50),
        probe_timeout: Duration::from_millis(100),
        cfg: ExpConfig::quick(),
        ..RouterConfig::default()
    })
    .expect("bind ephemeral port")
}

/// Send a keep-alive `GET /healthz` on `stream` and read the answer.
fn healthz(stream: &mut TcpStream) -> ClientResponse {
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n").unwrap();
    let resp = read_response(stream, &mut Vec::new()).expect("response");
    assert_eq!(resp.status, 200);
    resp
}

/// A client that was answered and stays connected, silent.
fn idle_keep_alive_client(addr: SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    assert!(healthz(&mut stream).keep_alive(), "nothing was queued, so the answer keeps the connection");
    stream
}

#[test]
fn a_stalled_partial_request_gets_408() {
    let router = router(2, Duration::from_millis(300));
    let mut stream = TcpStream::connect(router.addr()).unwrap();
    stream.write_all(b"GET /healthz HTTP/1.1\r\nhost:").unwrap(); // never finished
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    assert!(out.starts_with("HTTP/1.1 408"), "a stalled request was closed without a 408: {out:?}");
    router.shutdown();
    router.wait();
}

#[test]
fn one_worker_answers_a_second_client_while_the_first_idles_on_keep_alive() {
    let router = router(1, Duration::from_secs(5));
    let idle = idle_keep_alive_client(router.addr());
    let start = Instant::now();
    let mut second = TcpStream::connect(router.addr()).unwrap();
    healthz(&mut second);
    let waited = start.elapsed();
    assert!(waited < Duration::from_secs(1), "the second client waited {waited:?} behind an idle one");
    drop(idle);
    router.shutdown();
    router.wait();
}

#[test]
fn wait_returns_soon_after_shutdown_while_a_keep_alive_client_idles() {
    let router = router(2, Duration::from_secs(5));
    let idle = idle_keep_alive_client(router.addr());
    router.shutdown();
    let start = Instant::now();
    router.wait();
    let took = start.elapsed();
    assert!(took < Duration::from_secs(1), "the drain waited {took:?} on an idle connection");
    drop(idle);
}
