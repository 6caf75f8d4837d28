//! A minimal, strict HTTP/1.1 message layer over `std` only.
//!
//! Only what the service needs: request parsing with hard limits
//! (request-line length, header count/bytes, body size), percent-decoded
//! paths and query parameters, pipelining (parse one message, report how
//! many bytes it consumed, leave the rest), and response serialization
//! with explicit `Content-Length` and `Connection` headers.
//!
//! The parser is a pure function over a byte buffer — no sockets — so the
//! unit tests cover malformed inputs without a server in the loop.

use std::fmt;
use std::io::{self, Write};

/// Longest accepted request line (method + target + version).
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Largest accepted header block (request line + all header lines).
pub const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Most headers accepted in one request.
pub const MAX_HEADERS: usize = 64;
/// Largest accepted request body.
pub const MAX_BODY: usize = 64 * 1024;

/// Why a request could not be parsed. Every variant maps to a 4xx.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The request line is not `METHOD TARGET VERSION`.
    BadRequestLine(String),
    /// The version is not HTTP/1.0 or HTTP/1.1.
    UnsupportedVersion(String),
    /// The request line exceeds [`MAX_REQUEST_LINE`].
    RequestLineTooLong,
    /// The header block exceeds [`MAX_HEADER_BYTES`].
    HeadersTooLarge,
    /// More than [`MAX_HEADERS`] header lines.
    TooManyHeaders,
    /// A header line has no `:` separator or an empty name.
    BadHeader(String),
    /// `Content-Length` is present but not a valid integer.
    BadContentLength(String),
    /// The declared body exceeds [`MAX_BODY`].
    BodyTooLarge(usize),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::BadRequestLine(l) => write!(f, "malformed request line {l:?}"),
            HttpError::UnsupportedVersion(v) => write!(f, "unsupported HTTP version {v:?}"),
            HttpError::RequestLineTooLong => {
                write!(f, "request line exceeds {MAX_REQUEST_LINE} bytes")
            }
            HttpError::HeadersTooLarge => write!(f, "header block exceeds {MAX_HEADER_BYTES} bytes"),
            HttpError::TooManyHeaders => write!(f, "more than {MAX_HEADERS} headers"),
            HttpError::BadHeader(l) => write!(f, "malformed header line {l:?}"),
            HttpError::BadContentLength(v) => write!(f, "bad content-length {v:?}"),
            HttpError::BodyTooLarge(n) => write!(f, "declared body of {n} bytes exceeds {MAX_BODY}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Uppercase method token as sent (`GET`, `HEAD`, …).
    pub method: String,
    /// The request target exactly as the client sent it (undecoded path
    /// plus query). The router tier forwards this verbatim so a proxied
    /// request reaches the backend byte-for-byte.
    pub raw_target: String,
    /// Percent-decoded path (`/v1/table/5`).
    pub path: String,
    /// Decoded query parameters in request order.
    pub query: Vec<(String, String)>,
    /// Headers with lowercased names, in request order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the connection persists after this exchange.
    pub keep_alive: bool,
}

impl Request {
    /// First header value for lowercase `name`.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// First query parameter named `name`.
    #[must_use]
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// Decode `%XX` escapes; when `plus_is_space`, also `+` → space (query
/// components). Invalid escapes pass through literally.
fn percent_decode(s: &str, plus_is_space: bool) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3);
                match hex.and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()) {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn parse_query(raw: &str) -> Vec<(String, String)> {
    raw.split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (percent_decode(k, true), percent_decode(v, true))
        })
        .collect()
}

/// Try to parse one request from the front of `buf`.
///
/// Returns `Ok(Some((request, consumed)))` when a complete message is
/// present (`consumed` bytes belong to it — pipelined followers remain),
/// `Ok(None)` when more bytes are needed (incomplete headers or a
/// truncated body), and `Err` when the prefix can never become a valid
/// request.
///
/// # Errors
///
/// Any [`HttpError`]; the caller should answer 400/431/413 and close.
pub fn parse_request(buf: &[u8]) -> Result<Option<(Request, usize)>, HttpError> {
    // Locate the end of the header block.
    let Some(header_end) = find(buf, b"\r\n\r\n") else {
        if buf.len() > MAX_HEADER_BYTES {
            return Err(HttpError::HeadersTooLarge);
        }
        // While incomplete, still bound the request line early so a
        // garbage firehose is rejected before it fills the buffer.
        if find(buf, b"\r\n").is_none() && buf.len() > MAX_REQUEST_LINE {
            return Err(HttpError::RequestLineTooLong);
        }
        return Ok(None);
    };
    if header_end + 4 > MAX_HEADER_BYTES {
        return Err(HttpError::HeadersTooLarge);
    }
    let head =
        std::str::from_utf8(&buf[..header_end]).map_err(|_| HttpError::BadHeader(String::new()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    if request_line.len() > MAX_REQUEST_LINE {
        return Err(HttpError::RequestLineTooLong);
    }

    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::BadRequestLine(request_line.to_string()));
    };
    if method.is_empty() || target.is_empty() {
        return Err(HttpError::BadRequestLine(request_line.to_string()));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::UnsupportedVersion(version.to_string()));
    }

    let mut headers = Vec::new();
    for line in lines {
        if headers.len() == MAX_HEADERS {
            return Err(HttpError::TooManyHeaders);
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadHeader(line.to_string()));
        };
        if name.is_empty() || name.contains(' ') {
            return Err(HttpError::BadHeader(line.to_string()));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = match headers.iter().find(|(k, _)| k == "content-length") {
        None => 0,
        Some((_, v)) => v.parse::<usize>().map_err(|_| HttpError::BadContentLength(v.clone()))?,
    };
    if content_length > MAX_BODY {
        return Err(HttpError::BodyTooLarge(content_length));
    }
    let body_start = header_end + 4;
    if buf.len() < body_start + content_length {
        return Ok(None); // truncated body: wait for the rest (or time out)
    }
    let body = buf[body_start..body_start + content_length].to_vec();

    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let connection = headers
        .iter()
        .find(|(k, _)| k == "connection")
        .map(|(_, v)| v.to_ascii_lowercase());
    let keep_alive = match (version, connection.as_deref()) {
        (_, Some("close")) => false,
        ("HTTP/1.0", other) => other == Some("keep-alive"),
        _ => true,
    };

    Ok(Some((
        Request {
            method: method.to_string(),
            raw_target: target.to_string(),
            path: percent_decode(raw_path, false),
            query: parse_query(raw_query),
            headers,
            body,
            keep_alive,
        },
        body_start + content_length,
    )))
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// A response under construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond `Content-Length`/`Connection`/`Content-Type`.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
    /// `Content-Type` (default `text/plain; charset=utf-8`).
    pub content_type: &'static str,
}

impl Response {
    /// A plain-text response.
    #[must_use]
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            headers: Vec::new(),
            body: body.into().into_bytes(),
            content_type: "text/plain; charset=utf-8",
        }
    }

    /// Append a header.
    #[must_use]
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Self {
        self.headers.push((name.to_string(), value.into()));
        self
    }

    /// Standard reason phrase for this status.
    #[must_use]
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            502 => "Bad Gateway",
            503 => "Service Unavailable",
            _ => "Response",
        }
    }

    /// Serialize onto `w` in a single `write_all`. `head_only` omits the
    /// body (HEAD requests) while keeping the true `Content-Length`.
    ///
    /// One write matters on a socket: a head and a body written
    /// separately leave the body for Nagle's algorithm to hold until the
    /// peer acknowledges the head, and a keep-alive peer delays that
    /// acknowledgement by 40 ms or more.
    ///
    /// # Errors
    ///
    /// Propagates the underlying write error.
    pub fn write_to(&self, w: &mut impl Write, keep_alive: bool, head_only: bool) -> io::Result<()> {
        let body: &[u8] = if head_only { &[] } else { &self.body };
        let extra: usize = self.headers.iter().map(|(k, v)| k.len() + v.len() + 4).sum();
        let mut wire = Vec::with_capacity(128 + extra + body.len());
        write!(
            wire,
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )?;
        for (name, value) in &self.headers {
            wire.extend_from_slice(name.as_bytes());
            wire.extend_from_slice(b": ");
            wire.extend_from_slice(value.as_bytes());
            wire.extend_from_slice(b"\r\n");
        }
        wire.extend_from_slice(b"\r\n");
        wire.extend_from_slice(body);
        w.write_all(&wire)?;
        w.flush()
    }

    /// The response a parse failure earns: 4xx, connection closed.
    #[must_use]
    pub fn from_parse_error(err: &HttpError) -> Self {
        let status = match err {
            HttpError::RequestLineTooLong | HttpError::HeadersTooLarge | HttpError::TooManyHeaders => 431,
            HttpError::BodyTooLarge(_) => 413,
            _ => 400,
        };
        Response::text(status, format!("{err}\n"))
    }
}

/// One response read off the wire by a client (the load generator, the
/// router's backend proxy).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// Status code from the status line.
    pub status: u16,
    /// Headers with lowercased names, in response order.
    pub headers: Vec<(String, String)>,
    /// The full body (`content-length` bytes).
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First header value for lowercase `name`.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// Whether the server will keep the connection open after this
    /// exchange (HTTP/1.1 semantics: persistent unless `close`).
    #[must_use]
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Read exactly one HTTP response off `stream`: status line, headers,
/// then a `content-length`-delimited body. `scratch` is a reusable
/// buffer; its contents are clobbered. Both the load generator and the
/// cluster router's backend proxy read responses through here, so they
/// agree on header handling (names lowercased, values trimmed — header
/// *name* case on the wire never matters).
///
/// # Errors
///
/// I/O errors from the stream, `UnexpectedEof` when the peer closes
/// mid-message, `InvalidData` on an unparsable status line or
/// `content-length`.
pub fn read_response(stream: &mut impl io::Read, scratch: &mut Vec<u8>) -> io::Result<ClientResponse> {
    scratch.clear();
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = find(scratch, b"\r\n\r\n") {
            break pos;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "eof in headers"));
        }
        scratch.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&scratch[..header_end]).into_owned();
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let name = name.to_ascii_lowercase();
        let value = value.trim().to_string();
        if name == "content-length" {
            content_length = value
                .parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad content-length"))?;
        }
        headers.push((name, value));
    }
    let body_start = header_end + 4;
    let mut body = scratch[body_start.min(scratch.len())..].to_vec();
    while body.len() < content_length {
        let take = (content_length - body.len()).min(chunk.len());
        let n = stream.read(&mut chunk[..take])?;
        if n == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "eof in body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(ClientResponse { status, headers, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(raw: &str) -> (Request, usize) {
        parse_request(raw.as_bytes()).expect("parses").expect("complete")
    }

    #[test]
    fn parses_simple_get() {
        let (req, used) = parse_ok("GET /v1/table/5 HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/table/5");
        assert!(req.query.is_empty());
        assert_eq!(req.header("host"), Some("x"));
        assert!(req.keep_alive);
        assert_eq!(used, "GET /v1/table/5 HTTP/1.1\r\nHost: x\r\n\r\n".len());
    }

    #[test]
    fn decodes_query_and_path() {
        let (req, _) =
            parse_ok("GET /v1%2Fsweep?entries=8%2C16&label=a+b HTTP/1.1\r\n\r\n");
        assert_eq!(req.path, "/v1/sweep");
        assert_eq!(req.query_param("entries"), Some("8,16"));
        assert_eq!(req.query_param("label"), Some("a b"));
    }

    #[test]
    fn incomplete_returns_none() {
        assert_eq!(parse_request(b"GET / HTTP/1.1\r\nHost:"), Ok(None));
        assert_eq!(parse_request(b""), Ok(None));
    }

    #[test]
    fn malformed_request_line_rejected() {
        assert!(matches!(
            parse_request(b"GET/HTTP1.1\r\n\r\n"),
            Err(HttpError::BadRequestLine(_))
        ));
        assert!(matches!(
            parse_request(b"GET /x HTTP/2.0\r\n\r\n"),
            Err(HttpError::UnsupportedVersion(_))
        ));
        assert!(matches!(
            parse_request(b"GET /x HTTP/1.1 extra\r\n\r\n"),
            Err(HttpError::BadRequestLine(_))
        ));
    }

    #[test]
    fn oversized_headers_rejected_even_when_incomplete() {
        // No terminator in sight and already past the cap: reject now.
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEADER_BYTES + 1));
        assert_eq!(parse_request(&raw), Err(HttpError::HeadersTooLarge));

        let raw = vec![b'x'; MAX_REQUEST_LINE + 2];
        assert_eq!(parse_request(&raw), Err(HttpError::RequestLineTooLong));
    }

    #[test]
    fn too_many_headers_rejected() {
        let mut raw = String::from("GET / HTTP/1.1\r\n");
        for i in 0..=MAX_HEADERS {
            raw.push_str(&format!("h{i}: v\r\n"));
        }
        raw.push_str("\r\n");
        assert_eq!(parse_request(raw.as_bytes()), Err(HttpError::TooManyHeaders));
    }

    #[test]
    fn header_without_colon_rejected() {
        assert!(matches!(
            parse_request(b"GET / HTTP/1.1\r\nnocolon\r\n\r\n"),
            Err(HttpError::BadHeader(_))
        ));
    }

    #[test]
    fn pipelined_requests_consume_exactly_one() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let (first, used) = parse_request(raw).unwrap().unwrap();
        assert_eq!(first.path, "/a");
        let (second, used2) = parse_request(&raw[used..]).unwrap().unwrap();
        assert_eq!(second.path, "/b");
        assert_eq!(used + used2, raw.len());
    }

    #[test]
    fn body_parsing_and_truncation() {
        let full = b"POST /x HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello";
        let (req, used) = parse_request(full).unwrap().unwrap();
        assert_eq!(req.body, b"hello");
        assert_eq!(used, full.len());

        // Truncated body: not an error, just incomplete.
        assert_eq!(parse_request(&full[..full.len() - 2]), Ok(None));

        assert!(matches!(
            parse_request(b"POST /x HTTP/1.1\r\ncontent-length: nope\r\n\r\n"),
            Err(HttpError::BadContentLength(_))
        ));
        let huge = format!("POST /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n", MAX_BODY + 1);
        assert!(matches!(parse_request(huge.as_bytes()), Err(HttpError::BodyTooLarge(_))));
    }

    #[test]
    fn keep_alive_rules() {
        let (req, _) = parse_ok("GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!req.keep_alive);
        let (req, _) = parse_ok("GET / HTTP/1.0\r\n\r\n");
        assert!(!req.keep_alive);
        let (req, _) = parse_ok("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(req.keep_alive);
    }

    #[test]
    fn connection_header_is_case_insensitive_in_name_and_value() {
        // RFC 9110: header field names are case-insensitive, and the
        // Connection header's tokens are too. Any casing must close.
        for raw in [
            "GET / HTTP/1.1\r\nCONNECTION: CLOSE\r\n\r\n",
            "GET / HTTP/1.1\r\ncOnNeCtIoN: Close\r\n\r\n",
            "GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n",
        ] {
            let (req, _) = parse_ok(raw);
            if raw.contains("1.0") {
                assert!(req.keep_alive, "mixed-case keep-alive must persist: {raw:?}");
            } else {
                assert!(!req.keep_alive, "mixed-case close must close: {raw:?}");
            }
        }
    }

    #[test]
    fn request_line_at_exactly_the_431_boundary_is_accepted() {
        // A request line of exactly MAX_REQUEST_LINE bytes parses; one
        // byte more earns the 431 mapping. The boundary must not be
        // off-by-one in either direction.
        let overhead = "GET / HTTP/1.1".len();
        let pad = MAX_REQUEST_LINE - overhead; // line length is overhead + pad
        let at_limit = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(pad));
        let (req, _) = parse_ok(&at_limit);
        assert_eq!(req.path.len(), pad + 1, "path carries the padding");

        let over = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(pad + 1));
        assert_eq!(parse_request(over.as_bytes()), Err(HttpError::RequestLineTooLong));
        assert_eq!(
            Response::from_parse_error(&HttpError::RequestLineTooLong).status,
            431,
            "an oversized request line maps to 431"
        );

        // The incomplete-prefix guard has the same boundary: a buffer of
        // exactly MAX_REQUEST_LINE bytes with no CRLF yet is still
        // "waiting for more", one more byte is a rejection.
        let exact = vec![b'x'; MAX_REQUEST_LINE];
        assert_eq!(parse_request(&exact), Ok(None));
        let over = vec![b'x'; MAX_REQUEST_LINE + 1];
        assert_eq!(parse_request(&over), Err(HttpError::RequestLineTooLong));
    }

    #[test]
    fn raw_target_preserves_the_undecoded_wire_form() {
        let (req, _) = parse_ok("GET /v1%2Ftable/5?scale=2 HTTP/1.1\r\n\r\n");
        assert_eq!(req.raw_target, "/v1%2Ftable/5?scale=2", "undecoded, query attached");
        assert_eq!(req.path, "/v1/table/5", "decoded path unchanged");
    }

    #[test]
    fn read_response_parses_status_headers_and_body() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nX-Memo-Cache: hit\r\ncontent-length: 5\r\n\r\nhello";
        let mut scratch = Vec::new();
        let resp = read_response(&mut &wire[..], &mut scratch).unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, b"hello");
        // Mixed-case names on the wire land lowercased.
        assert_eq!(resp.header("x-memo-cache"), Some("hit"));
        assert_eq!(resp.header("content-type"), Some("text/plain"));
        assert!(resp.keep_alive());

        let wire = b"HTTP/1.1 503 Service Unavailable\r\nRETRY-AFTER: 2\r\nConnection: CLOSE\r\ncontent-length: 0\r\n\r\n";
        let resp = read_response(&mut &wire[..], &mut scratch).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("2"), "Retry-After readable regardless of case");
        assert!(!resp.keep_alive(), "Connection: CLOSE closes regardless of case");
    }

    #[test]
    fn read_response_fails_cleanly_on_truncation_and_garbage() {
        let mut scratch = Vec::new();
        let torn = b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nhal";
        let err = read_response(&mut &torn[..], &mut scratch).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);

        let garbage = b"NOT HTTP AT ALL\r\n\r\n";
        let err = read_response(&mut &garbage[..], &mut scratch).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn response_serializes_with_length_and_connection() {
        let mut out = Vec::new();
        Response::text(200, "hi\n")
            .with_header("x-memo-cache", "hit")
            .write_to(&mut out, true, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 3\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.contains("x-memo-cache: hit\r\n"));
        assert!(text.ends_with("\r\n\r\nhi\n"));

        let mut head = Vec::new();
        Response::text(200, "hi\n").write_to(&mut head, false, true).unwrap();
        let text = String::from_utf8(head).unwrap();
        assert!(text.contains("content-length: 3\r\n"), "HEAD keeps true length");
        assert!(text.ends_with("\r\n\r\n"), "HEAD omits the body");
        assert!(text.contains("connection: close\r\n"));
    }

    /// A sink that accepts every byte and counts the `write` calls.
    #[derive(Default)]
    struct CountingWriter {
        wire: Vec<u8>,
        writes: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.wire.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_response_goes_out_in_one_write() {
        let big = vec![b'x'; 256 * 1024];
        let cases: [(&str, Response, bool, bool, Vec<u8>); 4] = [
            (
                "200 with a body",
                Response::text(200, "hi\n").with_header("x-memo-cache", "hit"),
                true,
                false,
                b"HTTP/1.1 200 OK\r\ncontent-type: text/plain; charset=utf-8\r\n\
                  content-length: 3\r\nconnection: keep-alive\r\nx-memo-cache: hit\r\n\r\nhi\n"
                    .to_vec(),
            ),
            (
                "HEAD",
                Response::text(200, "hi\n"),
                false,
                true,
                b"HTTP/1.1 200 OK\r\ncontent-type: text/plain; charset=utf-8\r\n\
                  content-length: 3\r\nconnection: close\r\n\r\n"
                    .to_vec(),
            ),
            (
                "empty body",
                Response::text(503, "").with_header("retry-after", "1"),
                false,
                false,
                b"HTTP/1.1 503 Service Unavailable\r\ncontent-type: text/plain; charset=utf-8\r\n\
                  content-length: 0\r\nconnection: close\r\nretry-after: 1\r\n\r\n"
                    .to_vec(),
            ),
            (
                "256 KiB body",
                Response::text(200, String::from_utf8(big.clone()).unwrap()),
                true,
                false,
                [
                    &b"HTTP/1.1 200 OK\r\ncontent-type: text/plain; charset=utf-8\r\n\
                       content-length: 262144\r\nconnection: keep-alive\r\n\r\n"[..],
                    &big,
                ]
                .concat(),
            ),
        ];
        for (name, resp, keep_alive, head_only, expected) in cases {
            let mut sink = CountingWriter::default();
            resp.write_to(&mut sink, keep_alive, head_only).unwrap();
            assert_eq!(sink.writes, 1, "{name}: head and body must leave in one write");
            assert!(sink.wire == expected, "{name}: wire bytes changed");
        }
    }
}
