//! End-to-end: boot the real server on an ephemeral port, speak real
//! HTTP over real sockets, and hold the service to its core promises —
//! artifact bytes identical to the CLI runners, cache hits on repeats,
//! warm keep-alive answers far below the delayed-ACK floor, no worker
//! parked on one connection while others queue, backpressure instead of
//! queueing without bound, and a clean drain.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use memo_experiments::{runner, ExpConfig};
use memo_serve::http::read_response;
use memo_serve::server::{self, ServerConfig, ServerHandle};

#[path = "support/keepalive.rs"]
mod keepalive;

fn boot(workers: usize, queue_capacity: usize) -> ServerHandle {
    boot_with(workers, queue_capacity, Duration::from_secs(2))
}

fn boot_with(workers: usize, queue_capacity: usize, read_timeout: Duration) -> ServerHandle {
    // MEMO_SCALE/MEMO_SCI_N from the environment must not skew the
    // byte-identity comparison, so pin the config explicitly.
    let config = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_capacity,
        cache_capacity: 64,
        read_timeout,
        write_timeout: Duration::from_secs(2),
        cfg: ExpConfig::quick(),
        store_dir: None,
        ..ServerConfig::default()
    };
    server::start(&config).expect("bind ephemeral port")
}

/// One full HTTP exchange on a fresh connection; returns (status,
/// headers, body).
fn get(handle: &ServerHandle, path: &str) -> (u16, Vec<(String, String)>, Vec<u8>) {
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n").as_bytes())
        .expect("send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read");
    let header_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("complete header block");
    let head = String::from_utf8_lossy(&raw[..header_end]).into_owned();
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .expect("status line");
    let headers = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers, raw[header_end + 4..].to_vec())
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
}

#[test]
fn table_bytes_match_the_direct_runner_and_repeat_hits_cache() {
    let handle = boot(2, 16);
    let expected = format!("{}\n", runner::table(1, ExpConfig::quick()).unwrap());

    let (status, headers, body) = get(&handle, "/v1/table/1");
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-memo-cache"), Some("miss"));
    assert_eq!(
        body,
        expected.as_bytes(),
        "HTTP body must be byte-identical to the table1 runner output"
    );

    let (status, headers, body) = get(&handle, "/v1/table/1");
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-memo-cache"), Some("hit"), "repeat must be served from cache");
    assert_eq!(body, expected.as_bytes());

    // The hit is visible in the metrics counters, not just the header.
    let hits = handle.state().metrics.cache_hits.load(std::sync::atomic::Ordering::Relaxed);
    assert!(hits >= 1, "cache hit counter must have incremented, got {hits}");

    let (status, _, metrics_body) = get(&handle, "/metrics");
    assert_eq!(status, 200);
    let text = String::from_utf8(metrics_body).unwrap();
    assert!(
        text.contains("memo_serve_cache_hits_total 1"),
        "metrics must report the cache hit:\n{text}"
    );
    assert!(text.contains("memo_serve_requests_total{endpoint=\"table\"} 2"));

    handle.shutdown();
    handle.wait();
}

#[test]
fn sweep_bytes_match_the_direct_runner() {
    let handle = boot(2, 16);
    let q = runner::SweepQuery::parse(Some("8,16"), Some("2")).unwrap();
    let expected = format!("{}\n", runner::sweep(ExpConfig::quick(), &q).unwrap());

    let (status, headers, body) = get(&handle, "/v1/sweep?entries=8,16&ways=2");
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-memo-cache"), Some("miss"));
    assert_eq!(body, expected.as_bytes(), "sweep bytes must match the sweep runner");

    // Same query spelled through the other axis default still hits the
    // canonicalized cache key.
    let (status, headers, body) = get(&handle, "/v1/sweep?ways=2&entries=8,16");
    assert_eq!(status, 200);
    assert_eq!(header(&headers, "x-memo-cache"), Some("hit"));
    assert_eq!(body, expected.as_bytes());

    handle.shutdown();
    handle.wait();
}

#[test]
fn figure_bytes_match_and_errors_map_to_http_statuses() {
    let handle = boot(2, 16);
    let expected = format!("{}\n", runner::figure(4, ExpConfig::quick()).unwrap());
    let (status, _, body) = get(&handle, "/v1/figure/4");
    assert_eq!(status, 200);
    assert_eq!(body, expected.as_bytes());

    let (status, _, _) = get(&handle, "/v1/table/99");
    assert_eq!(status, 404, "unknown table number");
    let (status, _, _) = get(&handle, "/v1/figure/1");
    assert_eq!(status, 404, "figure 1 is not reproduced");
    let (status, _, _) = get(&handle, "/v1/sweep?entries=8,16&ways=2,4");
    assert_eq!(status, 400, "two multi-value axes");
    let (status, _, _) = get(&handle, "/no/such/route");
    assert_eq!(status, 404);

    handle.shutdown();
    handle.wait();
}

#[test]
fn pipelined_requests_on_one_connection_all_answer() {
    let handle = boot(2, 16);
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    // Two pipelined requests, then close.
    stream
        .write_all(
            b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n\
              GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n",
        )
        .expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    assert_eq!(raw.matches("HTTP/1.1 200 OK").count(), 2, "both pipelined requests answered:\n{raw}");
    assert_eq!(raw.matches("ok\n").count(), 2);

    handle.shutdown();
    handle.wait();
}

#[test]
fn pipelined_requests_split_across_tcp_segments_still_parse() {
    // The same two pipelined requests, but dribbled onto the wire in
    // fragments that land mid-request-line, mid-header, and — the
    // nasty one — straddling the boundary between request one and
    // request two. The server's buffer must reassemble exactly two
    // messages no matter where the segment edges fall.
    let handle = boot(2, 16);
    let wire: &[u8] = b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n\
                        GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n";
    // Split points chosen to break inside the first request line (7),
    // inside its header block (29), after the first request plus a few
    // bytes of the second (40), and inside the second's headers (60).
    for splits in [vec![7usize, 29, 34, 40, 60], (1..wire.len()).step_by(11).collect::<Vec<_>>()] {
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        let mut sent = 0;
        for cut in splits.into_iter().chain([wire.len()]) {
            stream.write_all(&wire[sent..cut]).expect("send fragment");
            stream.flush().expect("flush fragment");
            sent = cut;
            // A real network would also delay between segments; give
            // the server a chance to read each fragment in isolation.
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        assert_eq!(
            raw.matches("HTTP/1.1 200 OK").count(),
            2,
            "both requests answered despite segmentation:\n{raw}"
        );
        assert_eq!(raw.matches("ok\n").count(), 2);
    }

    handle.shutdown();
    handle.wait();
}

#[test]
fn saturated_queue_sheds_with_503_and_retry_after() {
    // One worker, one queue slot: park the worker on a slow request,
    // fill the slot, and every further connection must be shed.
    let handle = boot(1, 1);

    // Park the worker: open a connection and complete a request slowly
    // enough that follow-up connections pile into the queue. Easiest
    // reliable way: issue a request but never finish it — the worker
    // blocks in read until the 2 s timeout.
    let mut parked = TcpStream::connect(handle.addr()).expect("connect");
    parked.write_all(b"GET /healthz HTTP/1.1\r\n").expect("send partial");
    std::thread::sleep(Duration::from_millis(100)); // let a worker claim it

    // Occupy the single queue slot with another idle connection.
    let mut queued = TcpStream::connect(handle.addr()).expect("connect");
    queued.write_all(b"GET /healthz HTTP/1").expect("send partial");
    std::thread::sleep(Duration::from_millis(100));

    // Now the queue is full: this connection must get a 503 + Retry-After.
    let mut shed = false;
    for _ in 0..10 {
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream
            .write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n")
            .expect("send");
        let mut raw = String::new();
        let _ = stream.read_to_string(&mut raw);
        if raw.starts_with("HTTP/1.1 503") {
            assert!(
                raw.to_ascii_lowercase().contains("retry-after: 1"),
                "503 must carry Retry-After:\n{raw}"
            );
            shed = true;
            break;
        }
    }
    assert!(shed, "a saturated queue must shed at least one connection with 503");
    let rejections = handle
        .state()
        .metrics
        .queue_rejections
        .load(std::sync::atomic::Ordering::Relaxed);
    assert!(rejections >= 1, "rejection counter must count the shed connection");

    drop(parked);
    drop(queued);
    handle.shutdown();
    handle.wait();
}

#[test]
fn head_requests_get_headers_without_body() {
    let handle = boot(2, 16);
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .write_all(b"HEAD /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n")
        .expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read");
    assert!(raw.starts_with("HTTP/1.1 200 OK\r\n"), "{raw}");
    assert!(raw.contains("content-length: 3\r\n"), "HEAD keeps the true length:\n{raw}");
    assert!(raw.ends_with("\r\n\r\n"), "HEAD must not carry a body:\n{raw}");

    handle.shutdown();
    handle.wait();
}

#[test]
fn warm_keep_alive_hits_answer_below_the_delayed_ack_floor() {
    let handle = boot(2, 16);
    let mut conn = keepalive::Warmed::connect(handle.addr(), "/v1/table/1");
    let median = keepalive::median((0..64).map(|_| conn.time(1)).collect());
    assert!(
        median < keepalive::FLOOR_BOUND,
        "median of 64 warm cached hits is {median:?}: a response is waiting on a delayed ACK"
    );
    drop(conn);
    handle.shutdown();
    handle.wait();
}

#[test]
fn warm_pipelined_pairs_answer_below_the_delayed_ack_floor() {
    let handle = boot(2, 16);
    let mut conn = keepalive::Warmed::connect(handle.addr(), "/v1/table/1");
    let median = keepalive::median((0..16).map(|_| conn.time(2)).collect());
    assert!(
        median < keepalive::FLOOR_BOUND,
        "median of 16 pipelined pairs is {median:?}: the second response is waiting on a delayed ACK"
    );
    drop(conn);
    handle.shutdown();
    handle.wait();
}

/// Time a one-shot `GET /healthz` on a fresh connection, through to the
/// end of its response.
fn timed_healthz(addr: SocketAddr) -> Duration {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    stream
        .write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n")
        .expect("send");
    let resp = read_response(&mut stream, &mut Vec::new()).expect("response");
    assert_eq!(resp.status, 200);
    start.elapsed()
}

#[test]
fn a_busy_keep_alive_connection_yields_its_worker_to_a_queued_one() {
    // One worker and a read timeout far past the bound: B can only be
    // answered in time if the worker lets go of A.
    let handle = boot_with(1, 16, Duration::from_secs(5));
    let addr = handle.addr();
    let (serving_a, a_is_served) = mpsc::channel();
    let a = thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect A");
        stream.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
        let mut scratch = Vec::new();
        let until = Instant::now() + Duration::from_secs(2);
        while Instant::now() < until {
            stream.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n").expect("send A");
            let resp = read_response(&mut stream, &mut scratch).expect("response to A");
            assert_eq!(resp.status, 200);
            let _ = serving_a.send(());
            if !resp.keep_alive() {
                return true;
            }
        }
        false
    });
    a_is_served.recv().expect("A got its first response");
    let waited = timed_healthz(addr);
    let a_was_closed = a.join().expect("A's thread");
    assert!(waited < Duration::from_secs(1), "B waited {waited:?} behind a busy connection");
    assert!(a_was_closed, "one of A's responses must carry connection: close");
    handle.shutdown();
    handle.wait();
}

#[test]
fn an_idle_keep_alive_connection_yields_its_worker_to_a_queued_one() {
    let handle = boot_with(1, 16, Duration::from_secs(5));
    let mut a = TcpStream::connect(handle.addr()).expect("connect A");
    a.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n").expect("send A");
    let resp = read_response(&mut a, &mut Vec::new()).expect("response to A");
    assert!(resp.keep_alive(), "A's only response was written with nothing queued");
    // A now stays open and silent.
    let waited = timed_healthz(handle.addr());
    assert!(waited < Duration::from_secs(1), "B waited {waited:?} behind an idle connection");
    drop(a);
    handle.shutdown();
    handle.wait();
}

#[test]
fn a_fresh_connection_keeps_its_worker_until_its_first_request() {
    let handle = boot_with(1, 16, Duration::from_secs(5));
    let addr = handle.addr();
    let metrics = &handle.state().metrics;
    let accepted = || metrics.connections_accepted.load(std::sync::atomic::Ordering::Relaxed);
    // A connects and says nothing yet; wait until the one worker holds it.
    let mut a = TcpStream::connect(addr).expect("connect A");
    while accepted() < 1 || handle.queue_depth() > 0 {
        thread::yield_now();
    }
    // B queues behind A, for longer than many read slices.
    let b = thread::spawn(move || timed_healthz(addr));
    while handle.queue_depth() == 0 {
        thread::yield_now();
    }
    thread::sleep(Duration::from_millis(100));
    // A's first request must still be answered on the same connection.
    a.write_all(b"GET /healthz HTTP/1.1\r\nhost: t\r\n\r\n").expect("send A");
    let resp = read_response(&mut a, &mut Vec::new()).expect("A was closed before its first request");
    assert_eq!(resp.status, 200);
    assert!(!resp.keep_alive(), "B is waiting, so A's response hands the worker over");
    b.join().expect("B's thread");
    handle.shutdown();
    handle.wait();
}
