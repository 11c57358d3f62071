//! The typed failure surface of the streaming tier.

use ccdp_serve::ServeError;

/// Errors surfaced by graph streams and the release scheduler.
#[derive(Clone, Debug, PartialEq)]
pub enum StreamError {
    /// A mutation's timestamp ran backwards: streams are ordered by time,
    /// so a regression means the feed is corrupt or replayed out of order.
    TimestampRegression {
        /// The stream clock after the last accepted mutation.
        last: u64,
        /// The offending earlier timestamp.
        got: u64,
    },
    /// A mutation is a self-loop (`u == v`); simple graphs cannot hold it.
    SelfLoop {
        /// The vertex on both endpoints.
        vertex: usize,
    },
    /// An insertion names a vertex at or beyond the stream's universe cap
    /// (`DEFAULT_MAX_VERTICES`, or the initial graph's size if larger) —
    /// refused so one malformed feed line cannot exhaust memory.
    VertexOutOfRange {
        /// The offending vertex.
        vertex: usize,
        /// The stream's cap.
        max_vertices: usize,
    },
    /// The serving tier refused an operation (budget exhausted, version
    /// collision, unknown tenant, …).
    Serve(ServeError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::TimestampRegression { last, got } => {
                write!(
                    f,
                    "mutation timestamp {got} is before the stream clock {last}"
                )
            }
            StreamError::SelfLoop { vertex } => {
                write!(f, "self-loop at vertex {vertex} is not a valid mutation")
            }
            StreamError::VertexOutOfRange {
                vertex,
                max_vertices,
            } => write!(
                f,
                "vertex {vertex} is beyond the stream's universe cap of {max_vertices}"
            ),
            StreamError::Serve(e) => write!(f, "serving tier refused: {e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Serve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ServeError> for StreamError {
    fn from(e: ServeError) -> Self {
        StreamError::Serve(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offender() {
        let e = StreamError::TimestampRegression { last: 9, got: 4 };
        assert!(e.to_string().contains('9') && e.to_string().contains('4'));
        let e = StreamError::VertexOutOfRange {
            vertex: 17,
            max_vertices: 16,
        };
        assert!(e.to_string().contains("17"));
        let e = StreamError::Serve(ServeError::ShuttingDown);
        assert!(e.to_string().contains("shutting down"));
    }
}
