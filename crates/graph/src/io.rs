//! Plain-text edge-list serialization.
//!
//! The format is the one used by most public graph repositories: an optional
//! header line `# n m`, followed by one `u v` pair per line. Lines starting with
//! `#` (other than the header) and blank lines are ignored.

use crate::graph::Graph;

/// Largest vertex count an edge list may declare in its header or imply by
/// an endpoint. Parsing sizes the graph from that count up front, so the cap
/// keeps one malformed line naming vertex 10^12 from exhausting memory; the
/// streaming tier uses the same cap for its vertex universe.
pub const DEFAULT_MAX_VERTICES: usize = 1 << 24;

/// Error produced when parsing an edge list.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ParseError {
    /// A line could not be parsed as two vertex indices.
    MalformedLine { line_number: usize, content: String },
    /// An endpoint was out of range for the declared vertex count.
    VertexOutOfRange {
        line_number: usize,
        vertex: usize,
        num_vertices: usize,
    },
    /// The header declares, or an endpoint implies, more than
    /// [`DEFAULT_MAX_VERTICES`] vertices.
    TooManyVertices {
        line_number: usize,
        num_vertices: usize,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::MalformedLine {
                line_number,
                content,
            } => {
                write!(f, "line {line_number}: malformed edge `{content}`")
            }
            ParseError::VertexOutOfRange {
                line_number,
                vertex,
                num_vertices,
            } => write!(
                f,
                "line {line_number}: vertex {vertex} out of range for {num_vertices} vertices"
            ),
            ParseError::TooManyVertices {
                line_number,
                num_vertices,
            } => write!(
                f,
                "line {line_number}: {num_vertices} vertices exceed the cap of {DEFAULT_MAX_VERTICES}"
            ),
        }
    }
}

impl std::error::Error for ParseError {}

/// Serializes a graph as `# n m` followed by one `u v` line per edge.
pub fn to_edge_list(g: &Graph) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {} {}\n", g.num_vertices(), g.num_edges()));
    for (u, v) in g.edges() {
        out.push_str(&format!("{u} {v}\n"));
    }
    out
}

/// Parses an edge list produced by [`to_edge_list`] or a plain `u v` list.
///
/// If no `# n m` header precedes the first edge, the vertex count is inferred
/// as the maximum endpoint plus one. Either count must not exceed
/// [`DEFAULT_MAX_VERTICES`].
pub fn from_edge_list(text: &str) -> Result<Graph, ParseError> {
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let n = scan(text, |u, v| edges.push((u, v)))?;
    Ok(Graph::from_edges(n, &edges))
}

/// The validating pass of the parser: checks every line, hands each edge to
/// `on_edge` and returns the vertex count — the header's if one
/// precedes the first edge, else the maximum endpoint plus one.
fn scan(text: &str, mut on_edge: impl FnMut(usize, usize)) -> Result<usize, ParseError> {
    let mut declared_n: Option<usize> = None;
    let mut inferred_n = 0usize;
    for (i, raw) in text.lines().enumerate() {
        let line_number = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            // `inferred_n` stays 0 until the first edge, so only a header
            // before it counts.
            if declared_n.is_none() && inferred_n == 0 {
                let mut parts = rest.split_whitespace();
                if let (Some(n), Some(_m)) = (parts.next(), parts.next()) {
                    if let Ok(n) = n.parse::<usize>() {
                        if n > DEFAULT_MAX_VERTICES {
                            return Err(ParseError::TooManyVertices {
                                line_number,
                                num_vertices: n,
                            });
                        }
                        declared_n = Some(n);
                    }
                }
            }
            continue;
        }
        let (u, v) = parse_edge_line(line).ok_or_else(|| ParseError::MalformedLine {
            line_number,
            content: line.to_string(),
        })?;
        for x in [u, v] {
            match declared_n {
                Some(n) if x >= n => {
                    return Err(ParseError::VertexOutOfRange {
                        line_number,
                        vertex: x,
                        num_vertices: n,
                    })
                }
                None if x >= DEFAULT_MAX_VERTICES => {
                    return Err(ParseError::TooManyVertices {
                        line_number,
                        num_vertices: x.saturating_add(1),
                    })
                }
                _ => inferred_n = inferred_n.max(x + 1),
            }
        }
        on_edge(u, v);
    }
    Ok(declared_n.unwrap_or(inferred_n))
}

fn parse_edge_line(line: &str) -> Option<(usize, usize)> {
    let mut parts = line.split_whitespace();
    let u: usize = parts.next()?.parse().ok()?;
    let v: usize = parts.next()?.parse().ok()?;
    Some((u, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn round_trip() {
        let g = generators::grid(3, 3);
        let text = to_edge_list(&g);
        let parsed = from_edge_list(&text).unwrap();
        assert_eq!(parsed, g);
    }

    #[test]
    fn round_trip_with_isolated_vertices() {
        let mut g = generators::path(3);
        g.add_vertex();
        g.add_vertex();
        let parsed = from_edge_list(&to_edge_list(&g)).unwrap();
        assert_eq!(parsed.num_vertices(), 5);
        assert_eq!(parsed, g);
    }

    #[test]
    fn parse_without_header_infers_vertex_count() {
        let g = from_edge_list("0 1\n2 3\n").unwrap();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn parse_ignores_comments_and_blanks() {
        let g = from_edge_list("# 5 2\n\n# a comment\n0 4\n1 2\n").unwrap();
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn malformed_line_is_rejected() {
        let err = from_edge_list("0 1\nnot-an-edge\n").unwrap_err();
        assert!(matches!(
            err,
            ParseError::MalformedLine { line_number: 2, .. }
        ));
    }

    #[test]
    fn out_of_range_vertex_is_rejected() {
        let err = from_edge_list("# 3 1\n0 7\n").unwrap_err();
        assert!(matches!(
            err,
            ParseError::VertexOutOfRange { vertex: 7, .. }
        ));
    }

    #[test]
    fn oversized_vertex_counts_are_refused() {
        let too_many =
            |r: Result<usize, ParseError>| matches!(r, Err(ParseError::TooManyVertices { .. }));
        let over = DEFAULT_MAX_VERTICES + 1;
        for text in [
            // Header form: the declared count alone is refused.
            format!("# {over} 0\n"),
            "# 100000000000 0\n".to_string(),
            // Inferred form: one endpoint implies the count.
            format!("0 {}\n", DEFAULT_MAX_VERTICES),
            "0 99999999999999999\n".to_string(),
            format!("0 1\n3 {}\n", usize::MAX),
        ] {
            assert!(
                too_many(from_edge_list(&text).map(|g| g.num_vertices())),
                "{text}"
            );
        }
        // The cap itself is allowed (checked through the header of an
        // edgeless list, so no 2^24-vertex graph is built twice).
        let at_cap = format!("# {DEFAULT_MAX_VERTICES} 0\n");
        assert_eq!(scan(&at_cap, |_, _| {}).unwrap(), DEFAULT_MAX_VERTICES);
        let last = format!("0 {}\n", DEFAULT_MAX_VERTICES - 1);
        assert_eq!(scan(&last, |_, _| {}).unwrap(), DEFAULT_MAX_VERTICES);
    }

    #[test]
    fn a_header_after_the_first_edge_is_a_comment() {
        // Edges read before a late header were never range-checked against
        // it, so it is not a header.
        for text in ["0 9\n# 3 1\n", "0 9\n# 3 1\n1 2\n"] {
            assert_eq!(from_edge_list(text).unwrap().num_vertices(), 10);
        }
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let g = from_edge_list("").unwrap();
        assert_eq!(g.num_vertices(), 0);
    }
}
