//! Query and result types shared by every broadcast method.

use spair_broadcast::{Air, QueryStats};
use spair_roadnet::{Distance, NodeId, Point, RoadNetwork};

/// A shortest-path query posed at the client.
///
/// The client knows its own coordinates and the destination's coordinates
/// (that is what it feeds the kd locator to find `Rs`/`Rt`), and — per the
/// paper's simplifying assumption in §3.2 — the network nodes they
/// correspond to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query {
    /// Source node `v_s`.
    pub source: NodeId,
    /// Target node `v_t`.
    pub target: NodeId,
    /// Source coordinates.
    pub source_pt: Point,
    /// Target coordinates.
    pub target_pt: Point,
}

impl Query {
    /// Builds a query between two network nodes, taking coordinates from
    /// the network.
    pub fn for_nodes(g: &RoadNetwork, source: NodeId, target: NodeId) -> Self {
        Self {
            source,
            target,
            source_pt: g.point(source),
            target_pt: g.point(target),
        }
    }
}

/// Why a query could not produce a path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The target is not reachable from the source.
    Unreachable,
    /// The client aborted: the broadcast program is unusable (e.g. decode
    /// kept failing beyond the retry budget). Indicates a server-side bug
    /// in practice; never expected in the experiments.
    Aborted(&'static str),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Unreachable => write!(f, "target unreachable from source"),
            QueryError::Aborted(why) => write!(f, "client aborted: {why}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// A computed shortest path with its measured cost.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// Shortest-path distance.
    pub distance: Distance,
    /// Node sequence from source to target.
    pub path: Vec<NodeId>,
    /// Performance measurements (§3.1 factors).
    pub stats: QueryStats,
}

/// In-memory bytes a decoded node costs the client: id + coords +
/// hash-map bookkeeping, with 8 bytes per adjacency entry charged
/// separately. One constant shared by all methods so memory comparisons
/// are apples-to-apples.
#[inline]
pub fn decoded_node_bytes(degree: usize) -> usize {
    16 + 8 * degree
}

/// Uniform interface the experiment harness drives: every method is a
/// client that answers a query over a tuned-in channel session.
pub trait AirClient {
    /// Method name as used in the paper's charts (e.g. "NR", "EB").
    fn method_name(&self) -> &'static str;

    /// Processes one query over `channel`, which is already tuned in at
    /// an arbitrary instant.
    fn query(&mut self, channel: &mut dyn Air, query: &Query) -> Result<QueryOutcome, QueryError>;

    /// Hands the last session's received arena (and its coverage) to a
    /// dynamic-world driver, consuming it — the hook delta-broadcast
    /// patching builds on. Methods whose answers cannot be upgraded by
    /// weight patches (index-carrying cycles) keep the default `None`.
    fn export_arena(&mut self) -> Option<crate::patch::ClientArena> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spair_roadnet::generators::small_grid;

    #[test]
    fn for_nodes_copies_coordinates() {
        let g = small_grid(4, 4, 0);
        let q = Query::for_nodes(&g, 1, 14);
        assert_eq!(q.source_pt.x, g.point(1).x);
        assert_eq!(q.target_pt.y, g.point(14).y);
    }

    #[test]
    fn decoded_node_bytes_scales_with_degree() {
        assert_eq!(decoded_node_bytes(0), 16);
        assert_eq!(decoded_node_bytes(3), 40);
    }

    #[test]
    fn error_display() {
        assert_eq!(
            QueryError::Unreachable.to_string(),
            "target unreachable from source"
        );
        assert!(QueryError::Aborted("x").to_string().contains('x'));
    }
}
