//! The typed failure surface of the wire tier.
//!
//! Every way a byte stream can be wrong — a garbled request line, an
//! oversized header block, a truncated body, malformed JSON — is a
//! [`NetError`] variant, and every variant maps to exactly one HTTP status
//! and one stable machine-readable error code (see [`NetError::http_status`]
//! and [`NetError::code`]; the [`ServeError`] mapping lives in
//! [`serve_error_status`]). Malformed input is *always* a typed refusal the
//! peer can read, never a panic and never a silently dropped connection.

use ccdp_serve::json::JsonParseError;
use ccdp_serve::ServeError;

/// Errors surfaced by the wire tier (listener, parser and client).
#[derive(Clone, Debug, PartialEq)]
pub enum NetError {
    /// The request line is not `METHOD SP TARGET SP HTTP/1.x`.
    BadRequestLine {
        /// What was wrong with it.
        detail: String,
    },
    /// The request line names an HTTP version this listener does not speak.
    UnsupportedVersion {
        /// The offending version token.
        version: String,
    },
    /// The method is well-formed but not one this route accepts.
    MethodNotAllowed {
        /// The offending method.
        method: String,
        /// The route it was aimed at.
        path: String,
    },
    /// A header line is not `Name: value`.
    BadHeader {
        /// What was wrong with it.
        detail: String,
    },
    /// The request line or header block exceeded the listener's byte limit.
    HeadersTooLarge {
        /// The limit in bytes.
        limit: usize,
    },
    /// More header lines than the listener accepts.
    TooManyHeaders {
        /// The limit.
        limit: usize,
    },
    /// `Content-Length` is missing where required, repeated with conflicting
    /// values, or not a base-10 integer.
    BadContentLength {
        /// What was wrong with it.
        detail: String,
    },
    /// The declared body exceeds the listener's cap.
    BodyTooLarge {
        /// The declared length.
        declared: usize,
        /// The cap.
        limit: usize,
    },
    /// The connection ended (or stalled past the read timeout) before the
    /// declared body arrived.
    TruncatedBody {
        /// Bytes the `Content-Length` promised.
        expected: usize,
        /// Bytes that actually arrived.
        got: usize,
    },
    /// The connection stalled mid-request (after the first byte) past the
    /// read timeout.
    TruncatedRequest,
    /// The body is not valid UTF-8.
    BodyNotUtf8,
    /// The body is not valid JSON.
    BadJson(JsonParseError),
    /// The JSON body is missing a required field.
    MissingField {
        /// The field name.
        field: &'static str,
    },
    /// A JSON field has the wrong type or an invalid value.
    BadField {
        /// The field name.
        field: &'static str,
        /// What was wrong with it.
        detail: String,
    },
    /// No route matches the request path.
    UnknownRoute {
        /// The offending path.
        path: String,
    },
    /// `GET /trace/{id}` named a trace the span store no longer (or never)
    /// holds — the bounded store evicts the oldest traces.
    UnknownTrace {
        /// The requested id, as received.
        id: String,
    },
    /// The listener is at its connection cap; retry later.
    ConnectionCap {
        /// The cap.
        limit: usize,
    },
    /// The listener is draining for shutdown and refuses new work.
    Draining,
    /// The serving tier refused the request (typed pass-through; see
    /// [`serve_error_status`] for the HTTP mapping).
    Serve(ServeError),
    /// An I/O failure (client-side connect/read/write, or a listener socket
    /// error). Held as a string so the error stays `Clone + PartialEq`.
    Io {
        /// The underlying error, stringified.
        detail: String,
    },
    /// The client received bytes that do not parse as an HTTP/1.1 response.
    Protocol {
        /// What was wrong with them.
        detail: String,
    },
    /// The client received a well-formed error response from the server:
    /// the decoded `{"error": {...}}` body.
    Api {
        /// The HTTP status.
        status: u16,
        /// The stable machine-readable code (e.g. `budget_exhausted`).
        code: String,
        /// The human-readable message.
        message: String,
        /// The request's trace id, when the server attached one to the
        /// refusal (refused requests are traced too).
        trace: Option<String>,
    },
}

impl NetError {
    /// The HTTP status this refusal is served with.
    pub fn http_status(&self) -> u16 {
        match self {
            NetError::BadRequestLine { .. }
            | NetError::BadHeader { .. }
            | NetError::BadContentLength { .. }
            | NetError::TruncatedBody { .. }
            | NetError::TruncatedRequest
            | NetError::BodyNotUtf8
            | NetError::BadJson(_)
            | NetError::MissingField { .. }
            | NetError::BadField { .. } => 400,
            NetError::UnknownRoute { .. } | NetError::UnknownTrace { .. } => 404,
            NetError::MethodNotAllowed { .. } => 405,
            NetError::BodyTooLarge { .. } => 413,
            NetError::HeadersTooLarge { .. } | NetError::TooManyHeaders { .. } => 431,
            NetError::UnsupportedVersion { .. } => 505,
            NetError::ConnectionCap { .. } | NetError::Draining => 503,
            NetError::Serve(e) => serve_error_status(e).0,
            NetError::Io { .. } | NetError::Protocol { .. } => 502,
            NetError::Api { status, .. } => *status,
        }
    }

    /// The human-readable `error.message` field of the JSON error body: the
    /// `Display` text, except that an estimator failure is a fixed string.
    /// Its inner error can carry a worker's panic payload or solver
    /// internals, which the wire must not echo.
    pub fn message(&self) -> String {
        match self {
            NetError::Serve(ServeError::Estimator(_)) => "estimator failed".to_string(),
            _ => self.to_string(),
        }
    }

    /// The stable machine-readable code of this refusal (the `error.code`
    /// field of the JSON error body; documented in the README mapping
    /// table).
    pub fn code(&self) -> &str {
        match self {
            NetError::BadRequestLine { .. } => "bad_request_line",
            NetError::UnsupportedVersion { .. } => "unsupported_version",
            NetError::MethodNotAllowed { .. } => "method_not_allowed",
            NetError::BadHeader { .. } => "bad_header",
            NetError::HeadersTooLarge { .. } => "headers_too_large",
            NetError::TooManyHeaders { .. } => "too_many_headers",
            NetError::BadContentLength { .. } => "bad_content_length",
            NetError::BodyTooLarge { .. } => "body_too_large",
            NetError::TruncatedBody { .. } => "truncated_body",
            NetError::TruncatedRequest => "truncated_request",
            NetError::BodyNotUtf8 => "body_not_utf8",
            NetError::BadJson(_) => "bad_json",
            NetError::MissingField { .. } => "missing_field",
            NetError::BadField { .. } => "bad_field",
            NetError::UnknownRoute { .. } => "unknown_route",
            NetError::UnknownTrace { .. } => "unknown_trace",
            NetError::ConnectionCap { .. } => "connection_cap",
            NetError::Draining => "draining",
            NetError::Serve(e) => serve_error_status(e).1,
            NetError::Io { .. } => "io",
            NetError::Protocol { .. } => "protocol",
            NetError::Api { code, .. } => code,
        }
    }
}

/// The HTTP status and stable code every [`ServeError`] maps to on the wire.
///
/// Backpressure is retryable and distinguishable: a full queue is `429 Too
/// Many Requests`, a draining server is `503 Service Unavailable`. An
/// exhausted privacy budget is `403 Forbidden` — the request was understood
/// and refused, and retrying cannot help until the quota changes.
pub fn serve_error_status(e: &ServeError) -> (u16, &'static str) {
    match e {
        ServeError::QueueFull { .. } => (429, "queue_full"),
        ServeError::ShuttingDown => (503, "shutting_down"),
        ServeError::UnknownGraph { .. } => (404, "unknown_graph"),
        ServeError::UnknownVersion { .. } => (404, "unknown_version"),
        ServeError::VersionExists { .. } => (409, "version_exists"),
        ServeError::VersionExpired { .. } => (409, "version_expired"),
        ServeError::UnknownTenant { .. } => (404, "unknown_tenant"),
        ServeError::BudgetExhausted { .. } => (403, "budget_exhausted"),
        ServeError::TenantAlreadyRegistered { .. } => (409, "tenant_exists"),
        ServeError::InvalidEpsilon { .. } => (400, "invalid_epsilon"),
        ServeError::Ingest(_) => (400, "ingest_failed"),
        ServeError::Estimator(_) => (500, "estimator_failed"),
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::BadRequestLine { detail } => write!(f, "bad request line: {detail}"),
            NetError::UnsupportedVersion { version } => {
                write!(f, "unsupported HTTP version `{version}`")
            }
            NetError::MethodNotAllowed { method, path } => {
                write!(f, "method {method} not allowed on {path}")
            }
            NetError::BadHeader { detail } => write!(f, "bad header: {detail}"),
            NetError::HeadersTooLarge { limit } => {
                write!(f, "request head exceeds {limit} bytes")
            }
            NetError::TooManyHeaders { limit } => write!(f, "more than {limit} headers"),
            NetError::BadContentLength { detail } => write!(f, "bad Content-Length: {detail}"),
            NetError::BodyTooLarge { declared, limit } => {
                write!(f, "declared body of {declared} bytes exceeds cap {limit}")
            }
            NetError::TruncatedBody { expected, got } => {
                write!(f, "body truncated: got {got} of {expected} bytes")
            }
            NetError::TruncatedRequest => write!(f, "connection stalled mid-request"),
            NetError::BodyNotUtf8 => write!(f, "body is not valid UTF-8"),
            NetError::BadJson(e) => write!(f, "{e}"),
            NetError::MissingField { field } => write!(f, "missing required field `{field}`"),
            NetError::BadField { field, detail } => write!(f, "field `{field}`: {detail}"),
            NetError::UnknownRoute { path } => write!(f, "no route for `{path}`"),
            NetError::UnknownTrace { id } => {
                write!(f, "no trace `{id}` (old traces are evicted)")
            }
            NetError::ConnectionCap { limit } => {
                write!(f, "connection cap of {limit} reached; retry later")
            }
            NetError::Draining => write!(f, "listener is draining for shutdown"),
            NetError::Serve(e) => write!(f, "{e}"),
            NetError::Io { detail } => write!(f, "i/o failure: {detail}"),
            NetError::Protocol { detail } => write!(f, "malformed response: {detail}"),
            NetError::Api {
                status,
                code,
                message,
                ..
            } => write!(f, "server refused ({status} {code}): {message}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Serve(e) => Some(e),
            NetError::BadJson(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ServeError> for NetError {
    fn from(e: ServeError) -> Self {
        NetError::Serve(e)
    }
}

impl From<JsonParseError> for NetError {
    fn from(e: JsonParseError) -> Self {
        NetError::BadJson(e)
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io {
            detail: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdp_serve::GraphId;

    #[test]
    fn every_parse_refusal_is_a_4xx_or_5xx_with_a_stable_code() {
        let cases: Vec<(NetError, u16, &str)> = vec![
            (
                NetError::BadRequestLine { detail: "x".into() },
                400,
                "bad_request_line",
            ),
            (
                NetError::BodyTooLarge {
                    declared: 9,
                    limit: 4,
                },
                413,
                "body_too_large",
            ),
            (
                NetError::HeadersTooLarge { limit: 16384 },
                431,
                "headers_too_large",
            ),
            (
                NetError::UnknownRoute { path: "/x".into() },
                404,
                "unknown_route",
            ),
            (NetError::ConnectionCap { limit: 4 }, 503, "connection_cap"),
            (NetError::Draining, 503, "draining"),
            (
                NetError::UnsupportedVersion {
                    version: "HTTP/0.9".into(),
                },
                505,
                "unsupported_version",
            ),
        ];
        for (e, status, code) in cases {
            assert_eq!(e.http_status(), status, "{e}");
            assert_eq!(e.code(), code, "{e}");
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn serve_errors_keep_their_documented_wire_mapping() {
        let e = NetError::from(ServeError::QueueFull { capacity: 8 });
        assert_eq!((e.http_status(), e.code()), (429, "queue_full"));
        let e = NetError::from(ServeError::UnknownGraph {
            graph: GraphId::new("g"),
        });
        assert_eq!((e.http_status(), e.code()), (404, "unknown_graph"));
        assert_eq!(
            serve_error_status(&ServeError::ShuttingDown),
            (503, "shutting_down")
        );
    }
}
