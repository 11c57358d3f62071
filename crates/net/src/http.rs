//! Hand-rolled HTTP/1.1 framing over blocking byte streams.
//!
//! No registry access means no hyper; this module is the minimal, strictly
//! bounded subset of HTTP/1.1 the serving front-end needs: request lines,
//! `Name: value` headers, `Content-Length` bodies, keep-alive by default.
//! Everything is capped ([`WireLimits`]) and every way the bytes can be
//! wrong is a typed [`NetError`] — the parser never panics, never allocates
//! proportionally to attacker input beyond the caps, and never leaves the
//! connection in an ambiguous state (a parse error always closes it).
//!
//! Not implemented on purpose: chunked transfer encoding (refused, typed),
//! pipelining beyond one in-flight request (requests are read one at a
//! time), and TLS (this tier terminates plaintext behind a proxy).

use crate::error::NetError;
use std::io::{BufRead, ErrorKind, Write};

/// Byte/count caps enforced while parsing a request head and body.
#[derive(Clone, Copy, Debug)]
pub struct WireLimits {
    /// Cap on the request line + header block, in bytes.
    pub max_head_bytes: usize,
    /// Cap on the number of header lines.
    pub max_headers: usize,
    /// Cap on the declared body length, in bytes.
    pub max_body_bytes: usize,
}

impl Default for WireLimits {
    fn default() -> Self {
        WireLimits {
            max_head_bytes: 16 * 1024,
            max_headers: 64,
            max_body_bytes: 1024 * 1024,
        }
    }
}

/// One parsed request.
#[derive(Clone, Debug)]
pub struct Request {
    /// The method token, upper-cased as received (`GET`, `POST`, …).
    pub method: String,
    /// The full request target (path plus optional `?query`).
    pub target: String,
    /// Header `(name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// The target's path component (before any `?`).
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// The first header named `name`, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the peer asked for the connection to close after this
    /// response (HTTP/1.1 defaults to keep-alive).
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// The body as UTF-8, or the typed refusal.
    pub fn body_str(&self) -> Result<&str, NetError> {
        std::str::from_utf8(&self.body).map_err(|_| NetError::BodyNotUtf8)
    }
}

/// What one attempt to read a request produced.
#[derive(Debug)]
pub enum ReadOutcome {
    /// A complete, in-limits request.
    Request(Request),
    /// The peer closed the connection cleanly before sending any byte — the
    /// normal end of a keep-alive connection, not an error.
    Closed,
    /// The read timed out before any byte arrived: the connection is idle.
    /// The caller decides whether to keep waiting (normal keep-alive) or
    /// close (draining).
    Idle,
}

/// Reads one request from `reader` under `limits`.
///
/// # Errors
/// Every malformed, oversized or truncated input is a typed [`NetError`]
/// (see [`NetError::http_status`] for how each is answered). A mid-request
/// timeout is [`NetError::TruncatedRequest`] / [`NetError::TruncatedBody`] —
/// only a timeout before the *first* byte reads as [`ReadOutcome::Idle`].
pub fn read_request(
    reader: &mut impl BufRead,
    limits: &WireLimits,
) -> Result<ReadOutcome, NetError> {
    let mut head_budget = limits.max_head_bytes;
    // First line: distinguish clean close / idle from a real request.
    let line = match read_line(reader, &mut head_budget)? {
        LineOutcome::Line(l) => l,
        LineOutcome::CleanEof => return Ok(ReadOutcome::Closed),
        LineOutcome::IdleTimeout => return Ok(ReadOutcome::Idle),
    };
    let (method, target, version) = parse_request_line(&line)?;
    if !(version == "HTTP/1.1" || version == "HTTP/1.0") {
        return Err(NetError::UnsupportedVersion { version });
    }

    let headers = read_headers(reader, &mut head_budget, limits)?;
    if headers.iter().any(|(n, v)| {
        n.eq_ignore_ascii_case("transfer-encoding") && !v.eq_ignore_ascii_case("identity")
    }) {
        return Err(NetError::BadHeader {
            detail: "chunked transfer encoding is not supported".into(),
        });
    }

    let content_length = content_length(&headers)?;
    let needs_body = method == "POST" || method == "PUT";
    let length = match (content_length, needs_body) {
        (Some(n), _) => n,
        (None, false) => 0,
        (None, true) => {
            return Err(NetError::BadContentLength {
                detail: "missing (a request body requires Content-Length)".into(),
            })
        }
    };
    if length > limits.max_body_bytes {
        return Err(NetError::BodyTooLarge {
            declared: length,
            limit: limits.max_body_bytes,
        });
    }
    let body = read_exact_body(reader, length)?;
    Ok(ReadOutcome::Request(Request {
        method,
        target,
        headers,
        body,
    }))
}

/// One parsed response (the client side of the wire).
#[derive(Clone, Debug)]
pub struct Response {
    /// The HTTP status code.
    pub status: u16,
    /// Header `(name, value)` pairs in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// The first header named `name`, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Whether the server will close the connection after this response.
    pub fn closes_connection(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// The body as UTF-8, or the typed refusal.
    pub fn body_str(&self) -> Result<&str, NetError> {
        std::str::from_utf8(&self.body).map_err(|_| NetError::Protocol {
            detail: "response body is not UTF-8".into(),
        })
    }
}

/// Reads one response from `reader` under `limits` (client side).
pub fn read_response(reader: &mut impl BufRead, limits: &WireLimits) -> Result<Response, NetError> {
    let mut head_budget = limits.max_head_bytes;
    let line = match read_line(reader, &mut head_budget)? {
        LineOutcome::Line(l) => l,
        LineOutcome::CleanEof | LineOutcome::IdleTimeout => {
            return Err(NetError::Protocol {
                detail: "connection closed before a response arrived".into(),
            })
        }
    };
    let mut parts = line.splitn(3, ' ');
    let version = parts.next().unwrap_or_default();
    let status = parts
        .next()
        .and_then(|s| s.parse::<u16>().ok())
        .filter(|s| (100..600).contains(s))
        .ok_or_else(|| NetError::Protocol {
            detail: format!("bad status line `{line}`"),
        })?;
    if !version.starts_with("HTTP/1.") {
        return Err(NetError::Protocol {
            detail: format!("bad status line `{line}`"),
        });
    }
    let headers = read_headers(reader, &mut head_budget, limits).map_err(|e| match e {
        NetError::Io { detail } => NetError::Io { detail },
        other => NetError::Protocol {
            detail: other.to_string(),
        },
    })?;
    let length = content_length(&headers)
        .map_err(|e| NetError::Protocol {
            detail: e.to_string(),
        })?
        .unwrap_or(0);
    if length > limits.max_body_bytes {
        return Err(NetError::Protocol {
            detail: format!("response body of {length} bytes exceeds the client cap"),
        });
    }
    let body = read_exact_body(reader, length).map_err(|e| NetError::Protocol {
        detail: e.to_string(),
    })?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// Writes one JSON response: status line, minimal headers, body.
pub fn write_response(
    writer: &mut impl Write,
    status: u16,
    body: &str,
    close: bool,
) -> std::io::Result<()> {
    write_response_with(writer, status, body, "application/json", &[], close)
}

/// Writes one response with an explicit content type and extra headers
/// (`X-Ccdp-Trace`, …). Header names and values must already be
/// wire-legal — this writer frames, it does not sanitize.
pub fn write_response_with(
    writer: &mut impl Write,
    status: u16,
    body: &str,
    content_type: &str,
    extra_headers: &[(String, String)],
    close: bool,
) -> std::io::Result<()> {
    let connection = if close { "close" } else { "keep-alive" };
    // One buffered frame, one write: `write!` straight onto a TcpStream
    // issues a small segment per format fragment, and the Nagle/delayed-ACK
    // interaction turns that into ~40 ms stalls per response.
    let mut frame = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        reason(status),
        body.len(),
    );
    for (name, value) in extra_headers {
        frame.push_str(name);
        frame.push_str(": ");
        frame.push_str(value);
        frame.push_str("\r\n");
    }
    frame.push_str("\r\n");
    frame.push_str(body);
    writer.write_all(frame.as_bytes())?;
    writer.flush()
}

/// Writes one JSON request (client side). `body = None` sends no
/// Content-Length (GET); `Some` always sends one, even when empty.
pub fn write_request(
    writer: &mut impl Write,
    method: &str,
    target: &str,
    body: Option<&str>,
) -> std::io::Result<()> {
    // Buffered for the same single-segment reason as `write_response`.
    let frame = match body {
        Some(body) => format!(
            "{method} {target} HTTP/1.1\r\nHost: ccdp\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len(),
        ),
        None => format!("{method} {target} HTTP/1.1\r\nHost: ccdp\r\n\r\n"),
    };
    writer.write_all(frame.as_bytes())?;
    writer.flush()
}

/// The canonical reason phrase of the statuses this tier emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        403 => "Forbidden",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        502 => "Bad Gateway",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Status",
    }
}

// ---------------------------------------------------------------------------
// Internals
// ---------------------------------------------------------------------------

enum LineOutcome {
    Line(String),
    CleanEof,
    IdleTimeout,
}

/// Reads one `\r\n`- (or lenient `\n`-) terminated line, charging every byte
/// against `budget`. Timeouts before the first byte are [`LineOutcome::IdleTimeout`];
/// after it, a timeout is a truncated request.
fn read_line(reader: &mut impl BufRead, budget: &mut usize) -> Result<LineOutcome, NetError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                return if line.is_empty() {
                    Ok(LineOutcome::CleanEof)
                } else {
                    Err(NetError::TruncatedRequest)
                };
            }
            Ok(_) => {
                if *budget == 0 {
                    return Err(NetError::HeadersTooLarge {
                        limit: WireLimits::default().max_head_bytes,
                    });
                }
                *budget -= 1;
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    let text = String::from_utf8(line).map_err(|_| NetError::BadHeader {
                        detail: "non-UTF-8 bytes in the request head".into(),
                    })?;
                    return Ok(LineOutcome::Line(text));
                }
                line.push(byte[0]);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return if line.is_empty() {
                    Ok(LineOutcome::IdleTimeout)
                } else {
                    Err(NetError::TruncatedRequest)
                };
            }
            Err(e) => return Err(e.into()),
        }
    }
}

fn parse_request_line(line: &str) -> Result<(String, String, String), NetError> {
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(NetError::BadRequestLine {
                detail: format!("`{}`", truncate_for_display(line)),
            })
        }
    };
    if !method.bytes().all(|b| b.is_ascii_alphabetic()) {
        return Err(NetError::BadRequestLine {
            detail: format!("method `{}`", truncate_for_display(method)),
        });
    }
    if !target.starts_with('/') {
        return Err(NetError::BadRequestLine {
            detail: format!("target `{}`", truncate_for_display(target)),
        });
    }
    Ok((
        method.to_ascii_uppercase(),
        target.to_string(),
        version.to_string(),
    ))
}

fn read_headers(
    reader: &mut impl BufRead,
    budget: &mut usize,
    limits: &WireLimits,
) -> Result<Vec<(String, String)>, NetError> {
    let mut headers = Vec::new();
    loop {
        let line = match read_line(reader, budget)? {
            LineOutcome::Line(l) => l,
            // EOF or a stall inside the header block truncates the request.
            LineOutcome::CleanEof | LineOutcome::IdleTimeout => {
                return Err(NetError::TruncatedRequest)
            }
        };
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() >= limits.max_headers {
            return Err(NetError::TooManyHeaders {
                limit: limits.max_headers,
            });
        }
        let (name, value) = line.split_once(':').ok_or_else(|| NetError::BadHeader {
            detail: format!("`{}` has no colon", truncate_for_display(&line)),
        })?;
        if name.is_empty() || name.contains(' ') {
            return Err(NetError::BadHeader {
                detail: format!("name `{}`", truncate_for_display(name)),
            });
        }
        headers.push((name.to_string(), value.trim().to_string()));
    }
}

fn content_length(headers: &[(String, String)]) -> Result<Option<usize>, NetError> {
    let mut found: Option<usize> = None;
    for (name, value) in headers {
        if name.eq_ignore_ascii_case("content-length") {
            let n: usize = value.parse().map_err(|_| NetError::BadContentLength {
                detail: format!("`{}` is not a length", truncate_for_display(value)),
            })?;
            if let Some(prev) = found {
                if prev != n {
                    return Err(NetError::BadContentLength {
                        detail: format!("conflicting values {prev} and {n}"),
                    });
                }
            }
            found = Some(n);
        }
    }
    Ok(found)
}

fn read_exact_body(reader: &mut impl BufRead, length: usize) -> Result<Vec<u8>, NetError> {
    let mut body = vec![0u8; length];
    let mut got = 0;
    while got < length {
        match reader.read(&mut body[got..]) {
            Ok(0) => {
                return Err(NetError::TruncatedBody {
                    expected: length,
                    got,
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                return Err(NetError::TruncatedBody {
                    expected: length,
                    got,
                })
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(body)
}

/// Error details quote attacker-controlled bytes; keep them short so a junk
/// flood cannot balloon the refusal body.
fn truncate_for_display(s: &str) -> String {
    const MAX: usize = 48;
    if s.len() <= MAX {
        s.to_string()
    } else {
        let cut = (0..=MAX)
            .rev()
            .find(|&i| s.is_char_boundary(i))
            .unwrap_or(0);
        format!("{}…", &s[..cut])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<ReadOutcome, NetError> {
        read_request(&mut BufReader::new(bytes), &WireLimits::default())
    }

    fn parse_ok(bytes: &[u8]) -> Request {
        match parse(bytes).unwrap() {
            ReadOutcome::Request(r) => r,
            other => panic!("expected a request, got {other:?}"),
        }
    }

    #[test]
    fn parses_a_post_with_body_and_headers() {
        let r =
            parse_ok(b"POST /estimate?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nabcd");
        assert_eq!(r.method, "POST");
        assert_eq!(r.path(), "/estimate");
        assert_eq!(r.target, "/estimate?x=1");
        assert_eq!(r.header("host"), Some("h"));
        assert_eq!(r.header("HOST"), Some("h"));
        assert_eq!(r.body, b"abcd");
        assert!(!r.wants_close());
    }

    #[test]
    fn parses_a_get_without_body_and_lenient_lf() {
        let r = parse_ok(b"GET /healthz HTTP/1.1\nConnection: close\n\n");
        assert_eq!(r.method, "GET");
        assert!(r.body.is_empty());
        assert!(r.wants_close());
    }

    #[test]
    fn clean_eof_and_garbage_are_distinguished() {
        assert!(matches!(parse(b"").unwrap(), ReadOutcome::Closed));
        assert!(matches!(
            parse(b"GARBAGE\r\n\r\n"),
            Err(NetError::BadRequestLine { .. })
        ));
        assert!(matches!(
            parse(b"GET noslash HTTP/1.1\r\n\r\n"),
            Err(NetError::BadRequestLine { .. })
        ));
        assert!(matches!(
            parse(b"GET / HTTP/2\r\n\r\n"),
            Err(NetError::UnsupportedVersion { .. })
        ));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nbad header line\r\n\r\n"),
            Err(NetError::BadHeader { .. })
        ));
    }

    #[test]
    fn truncation_is_typed_at_every_stage() {
        // Mid request line.
        assert!(matches!(parse(b"GET /he"), Err(NetError::TruncatedRequest)));
        // Mid header block.
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nHost: h\r\n"),
            Err(NetError::TruncatedRequest)
        ));
        // Mid body.
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(NetError::TruncatedBody {
                expected: 10,
                got: 3
            })
        ));
    }

    #[test]
    fn limits_are_enforced_with_typed_refusals() {
        let limits = WireLimits {
            max_head_bytes: 64,
            max_headers: 2,
            max_body_bytes: 8,
        };
        let parse = |bytes: &[u8]| read_request(&mut BufReader::new(bytes), &limits);
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(100));
        assert!(matches!(
            parse(long.as_bytes()),
            Err(NetError::HeadersTooLarge { .. })
        ));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nA: 1\r\nB: 2\r\nC: 3\r\n\r\n"),
            Err(NetError::TooManyHeaders { limit: 2 })
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n123456789"),
            Err(NetError::BodyTooLarge {
                declared: 9,
                limit: 8
            })
        ));
    }

    #[test]
    fn content_length_pathologies_are_refused() {
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(NetError::BadContentLength { .. })
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\nxx"),
            Err(NetError::BadContentLength { .. })
        ));
        // A POST with no length at all cannot be framed.
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\n\r\n"),
            Err(NetError::BadContentLength { .. })
        ));
        // Duplicates that agree are fine.
        let r = parse_ok(b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok");
        assert_eq!(r.body, b"ok");
        // Chunked is a typed refusal, not a hang.
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(NetError::BadHeader { .. })
        ));
    }

    #[test]
    fn responses_round_trip_through_the_writer_and_reader() {
        let mut wire = Vec::new();
        write_response(&mut wire, 429, r#"{"error":{}}"#, false).unwrap();
        let resp =
            read_response(&mut BufReader::new(wire.as_slice()), &WireLimits::default()).unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.body_str().unwrap(), r#"{"error":{}}"#);
        assert!(!resp.closes_connection());

        let mut wire = Vec::new();
        write_response(&mut wire, 503, "{}", true).unwrap();
        let resp =
            read_response(&mut BufReader::new(wire.as_slice()), &WireLimits::default()).unwrap();
        assert!(resp.closes_connection());
    }

    #[test]
    fn requests_round_trip_through_the_writer_and_reader() {
        let mut wire = Vec::new();
        write_request(&mut wire, "POST", "/estimate", Some(r#"{"a":1}"#)).unwrap();
        let r = parse_ok(&wire);
        assert_eq!(r.method, "POST");
        assert_eq!(r.body_str().unwrap(), r#"{"a":1}"#);
        let mut wire = Vec::new();
        write_request(&mut wire, "GET", "/metrics", None).unwrap();
        let r = parse_ok(&wire);
        assert_eq!((r.method.as_str(), r.path()), ("GET", "/metrics"));
    }

    #[test]
    fn malformed_responses_are_protocol_errors() {
        for bad in [&b"junk\r\n\r\n"[..], b"HTTP/1.1 xyz OK\r\n\r\n", b""] {
            let got = read_response(&mut BufReader::new(bad), &WireLimits::default());
            assert!(matches!(got, Err(NetError::Protocol { .. })), "{bad:?}");
        }
    }
}
