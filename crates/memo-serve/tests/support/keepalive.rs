//! A warmed keep-alive client for latency checks against the 40 ms
//! delayed-ACK floor. memo-serve's e2e suite uses it against one node,
//! memo-cluster's routed suite through a router.
//!
//! Linux acknowledges the first segments of a new connection at once
//! (quick-ACK), so a Nagle stall only shows once a connection has run a
//! few exchanges. [`Warmed::connect`] runs [`WARM_UP`] of them before any
//! timing starts.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Exchanges run on a connection before it is timed.
const WARM_UP: usize = 32;

/// A quarter of the delayed-ACK floor: a stalled exchange cannot make it.
pub const FLOOR_BOUND: Duration = Duration::from_millis(10);

/// One keep-alive connection that repeats a single `GET`.
pub struct Warmed {
    stream: TcpStream,
    request: Vec<u8>,
    buf: Vec<u8>,
}

impl Warmed {
    /// Connect to `addr` and run [`WARM_UP`] sequential `GET target`s.
    pub fn connect(addr: SocketAddr, target: &str) -> Warmed {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
        let request = format!("GET {target} HTTP/1.1\r\nhost: t\r\n\r\n").into_bytes();
        let mut conn = Warmed { stream, request, buf: Vec::with_capacity(64 * 1024) };
        for _ in 0..WARM_UP {
            conn.time(1);
        }
        conn
    }

    /// Send `pipelined` copies of the request in one write; return the
    /// time until the last response is complete. Every response must be
    /// a keep-alive 200.
    pub fn time(&mut self, pipelined: usize) -> Duration {
        let wire = self.request.repeat(pipelined);
        let start = Instant::now();
        self.stream.write_all(&wire).expect("send");
        self.buf.clear();
        let mut framed = 0;
        for _ in 0..pipelined {
            let (head_len, len) = loop {
                if let Some(lens) = frame(&self.buf[framed..]) {
                    break lens;
                }
                let mut chunk = [0u8; 16 * 1024];
                let n = self.stream.read(&mut chunk).expect("read");
                assert!(n > 0, "server closed the keep-alive connection");
                self.buf.extend_from_slice(&chunk[..n]);
            };
            let head = String::from_utf8_lossy(&self.buf[framed..framed + head_len]);
            assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
            assert!(head.contains("connection: keep-alive\r\n"), "{head}");
            framed += len;
        }
        let elapsed = start.elapsed();
        assert_eq!(framed, self.buf.len(), "bytes past the last response");
        elapsed
    }
}

/// Lengths of the head and of the whole response at the front of `buf`,
/// once all of its bytes have arrived.
fn frame(buf: &[u8]) -> Option<(usize, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).expect("ASCII head");
    let body: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("content-length: "))
        .and_then(|v| v.trim().parse().ok())
        .expect("content-length");
    (buf.len() >= head_end + body).then_some((head_end, head_end + body))
}

/// The median of `samples`.
pub fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}
