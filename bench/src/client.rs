//! A small HTTP/1.1 client of the benchmark's own: one keep-alive
//! connection per load lane, plus one-shot `connection: close` fetches
//! for setup, health checks and `/metrics` scrapes. It shares no code
//! with the servers it measures, and a response is parsed in place in
//! the connection's buffer, so the client stays far from being the
//! bottleneck at 10^5 requests per second.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::time::Duration;

/// Largest body the client accepts; far above any artifact.
const MAX_BODY: usize = 64 << 20;

/// One parsed response, borrowing the connection's buffer.
#[derive(Debug)]
pub struct Reply<'a> {
    pub status: u16,
    /// `x-memo-cache`: `hit`, `disk` or `miss` on artifact responses.
    pub cache: Option<&'a str>,
    /// `x-memo-node`: the fleet member that answered.
    pub node: Option<&'a str>,
    /// `x-memo-ring-gen`: the router's routing-table generation.
    pub ring_gen: Option<u64>,
    /// Whether the server keeps the connection open.
    pub keep_alive: bool,
    pub body: &'a [u8],
}

struct Head {
    status: u16,
    content_length: usize,
    cache: Option<Range<usize>>,
    node: Option<Range<usize>>,
    ring_gen: Option<u64>,
    keep_alive: bool,
}

/// A client connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    len: usize,
}

impl Conn {
    /// Connect with `timeout` on every read and write.
    pub fn connect(addr: &str, timeout: Duration) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Conn {
            stream,
            buf: vec![0; 64 << 10],
            len: 0,
        })
    }

    /// Send `GET target` and read the whole response.
    pub fn get(&mut self, target: &str, close: bool) -> io::Result<Reply<'_>> {
        let connection = if close { "connection: close\r\n" } else { "" };
        let request = format!("GET {target} HTTP/1.1\r\nhost: bench\r\n{connection}\r\n");
        self.stream.write_all(request.as_bytes())?;
        self.read_reply()
    }

    fn fill(&mut self) -> io::Result<()> {
        if self.len == self.buf.len() {
            self.buf.resize(self.buf.len() * 2, 0);
        }
        let n = self.stream.read(&mut self.buf[self.len..])?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        self.len += n;
        Ok(())
    }

    fn read_reply(&mut self) -> io::Result<Reply<'_>> {
        self.len = 0;
        let mut scanned = 0usize;
        let head_end = loop {
            let from = scanned.saturating_sub(3);
            if let Some(p) = find(&self.buf[from..self.len], b"\r\n\r\n") {
                break from + p;
            }
            scanned = self.len;
            self.fill()?;
        };
        let head = parse_head(&self.buf[..head_end])?;
        let body_start = head_end + 4;
        let end = body_start + head.content_length;
        while self.len < end {
            self.fill()?;
        }
        if self.len > end {
            return Err(invalid("bytes past the end of the response"));
        }
        let text = |r: Option<Range<usize>>| r.and_then(|r| std::str::from_utf8(&self.buf[r]).ok());
        Ok(Reply {
            status: head.status,
            cache: text(head.cache),
            node: text(head.node),
            ring_gen: head.ring_gen,
            keep_alive: head.keep_alive,
            body: &self.buf[body_start..end],
        })
    }
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn parse_head(head: &[u8]) -> io::Result<Head> {
    let mut lines = LineRanges {
        bytes: head,
        pos: 0,
    };
    let status_line = lines.next().ok_or_else(|| invalid("empty response head"))?;
    let status = std::str::from_utf8(&head[status_line])
        .ok()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let mut out = Head {
        status,
        content_length: 0,
        cache: None,
        node: None,
        ring_gen: None,
        keep_alive: true,
    };
    for line in lines {
        let bytes = &head[line.clone()];
        let Some(colon) = bytes.iter().position(|&b| b == b':') else {
            continue;
        };
        let name = &bytes[..colon];
        let mut start = line.start + colon + 1;
        let mut end = line.end;
        while start < end && head[start] == b' ' {
            start += 1;
        }
        while end > start && head[end - 1] == b' ' {
            end -= 1;
        }
        let value = start..end;
        let text = std::str::from_utf8(&head[value.clone()]).unwrap_or("");
        if name.eq_ignore_ascii_case(b"content-length") {
            out.content_length = text.parse().map_err(|_| invalid("bad content-length"))?;
            if out.content_length > MAX_BODY {
                return Err(invalid("content-length above the client's limit"));
            }
        } else if name.eq_ignore_ascii_case(b"connection") {
            out.keep_alive = !text.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case(b"x-memo-cache") {
            out.cache = Some(value);
        } else if name.eq_ignore_ascii_case(b"x-memo-node") {
            out.node = Some(value);
        } else if name.eq_ignore_ascii_case(b"x-memo-ring-gen") {
            out.ring_gen = text.parse().ok();
        }
    }
    Ok(out)
}

/// Byte ranges of the `\r\n`-separated lines of a response head.
struct LineRanges<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Iterator for LineRanges<'_> {
    type Item = Range<usize>;

    fn next(&mut self) -> Option<Range<usize>> {
        if self.pos >= self.bytes.len() {
            return None;
        }
        let start = self.pos;
        let end = find(&self.bytes[start..], b"\r\n").map_or(self.bytes.len(), |p| start + p);
        self.pos = end + 2;
        Some(start..end)
    }
}

/// An owned one-shot response.
#[derive(Debug, Clone)]
pub struct Fetched {
    pub status: u16,
    pub cache: Option<String>,
    pub body: Vec<u8>,
}

/// One request on a fresh connection that the server closes afterwards.
pub fn fetch(addr: &str, target: &str, timeout: Duration) -> io::Result<Fetched> {
    let mut conn = Conn::connect(addr, timeout)?;
    let reply = conn.get(target, true)?;
    Ok(Fetched {
        status: reply.status,
        cache: reply.cache.map(str::to_string),
        body: reply.body.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::thread;

    /// Serve `responses` in order on one accepted connection, each after
    /// reading one request head, writing every response in `chunk`-byte
    /// pieces to exercise partial reads.
    fn one_connection_server(
        responses: Vec<Vec<u8>>,
        chunk: usize,
    ) -> (String, thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            for resp in responses {
                let mut req = Vec::new();
                let mut byte = [0u8; 1];
                while !req.ends_with(b"\r\n\r\n") {
                    if s.read(&mut byte).unwrap() == 0 {
                        return;
                    }
                    req.push(byte[0]);
                }
                for piece in resp.chunks(chunk) {
                    s.write_all(piece).unwrap();
                    s.flush().unwrap();
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn parses_headers_and_bodies_across_reads_on_one_connection() {
        let first = b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\nX-Memo-Cache: hit\r\nx-memo-node:  n1 \r\nx-memo-ring-gen: 3\r\n\r\nhello".to_vec();
        let big = vec![b'z'; 200_000];
        let mut second = format!(
            "HTTP/1.1 503 Service Unavailable\r\nconnection: close\r\ncontent-length: {}\r\n\r\n",
            big.len()
        )
        .into_bytes();
        second.extend_from_slice(&big);
        let (addr, server) = one_connection_server(vec![first, second], 7);
        let mut conn = Conn::connect(&addr, Duration::from_secs(5)).unwrap();
        let r = conn.get("/v1/table/1", false).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.body, b"hello");
        assert_eq!(r.cache, Some("hit"));
        assert_eq!(r.node, Some("n1"));
        assert_eq!(r.ring_gen, Some(3));
        assert!(r.keep_alive);
        let r = conn.get("/healthz", false).unwrap();
        assert_eq!(r.status, 503);
        assert!(!r.keep_alive);
        assert_eq!(r.body.len(), big.len());
        assert_eq!(r.cache, None);
        server.join().unwrap();
    }

    #[test]
    fn truncated_and_garbled_responses_are_errors() {
        let truncated = b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nabc".to_vec();
        let (addr, server) = one_connection_server(vec![truncated], 64);
        let mut conn = Conn::connect(&addr, Duration::from_secs(5)).unwrap();
        assert!(conn.get("/", false).is_err());
        server.join().unwrap();

        let garbled = b"NOT HTTP\r\n\r\n".to_vec();
        let (addr, server) = one_connection_server(vec![garbled], 64);
        let mut conn = Conn::connect(&addr, Duration::from_secs(5)).unwrap();
        assert!(conn.get("/", false).is_err());
        server.join().unwrap();
    }
}
