//! Regular-grid partitioning (paper §4.1, the "straightforward approach").
//!
//! A `k × m` grid of equi-sized rectangular cells over the network's
//! bounding box. The client can map coordinates to regions knowing only the
//! granularity and the total extent. The paper notes the drawback — cells
//! may be empty or overfull, weakening the pruning — which the fine-tuning
//! experiment (Appendix C.1) quantifies; the HiTi baseline also partitions
//! with a grid, per its original design.

use crate::{Partitioning, RegionId};
use serde::{Deserialize, Serialize};
use spair_roadnet::{NodeId, Point, RoadNetwork};

/// A `cols × rows` regular grid partition.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GridPartition {
    min: Point,
    cell_w: f64,
    cell_h: f64,
    cols: usize,
    rows: usize,
    assignment: Vec<RegionId>,
    #[serde(skip)]
    by_region: Vec<Vec<NodeId>>,
}

impl GridPartition {
    /// Builds a grid partition with the given column/row counts.
    pub fn build(g: &RoadNetwork, cols: usize, rows: usize) -> Self {
        assert!(cols >= 1 && rows >= 1, "grid must have at least one cell");
        assert!(
            cols * rows <= RegionId::MAX as usize + 1,
            "too many regions for RegionId"
        );
        let (min, max) = g.bounding_box();
        let cell_w = ((max.x - min.x) / cols as f64).max(1e-12);
        let cell_h = ((max.y - min.y) / rows as f64).max(1e-12);
        let mut this = Self {
            min,
            cell_w,
            cell_h,
            cols,
            rows,
            assignment: Vec::new(),
            by_region: vec![Vec::new(); cols * rows],
        };
        this.assignment = g
            .node_ids()
            .map(|v| this.locate_inner(g.point(v)))
            .collect();
        for v in g.node_ids() {
            this.by_region[this.assignment[v as usize] as usize].push(v);
        }
        this
    }

    /// Grid dimensions `(cols, rows)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.cols, self.rows)
    }

    fn locate_inner(&self, p: Point) -> RegionId {
        let cx = (((p.x - self.min.x) / self.cell_w).floor().max(0.0) as usize).min(self.cols - 1);
        let cy = (((p.y - self.min.y) / self.cell_h).floor().max(0.0) as usize).min(self.rows - 1);
        (cy * self.cols + cx) as RegionId
    }

    /// Cell `(col, row)` of region `r`.
    pub fn cell_of(&self, r: RegionId) -> (usize, usize) {
        (r as usize % self.cols, r as usize / self.cols)
    }

    /// The broadcastable locator (grid geometry).
    pub fn locator(&self) -> GridLocator {
        GridLocator {
            min: self.min,
            cell_w: self.cell_w,
            cell_h: self.cell_h,
            cols: self.cols,
            rows: self.rows,
        }
    }
}

/// The client-side reconstruction of a grid partition: the origin, cell
/// extents and granularity. This is all a client needs to map coordinates
/// to regions (§4.1's "knowledge of the grid granularity and of the total
/// spatial extent").
///
/// The fields must travel as exact `f64`s: cell boundaries coincide with
/// node coordinates in degenerate layouts, and `locate` compares against
/// them with floor/`>=` semantics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GridLocator {
    /// Bounding-box origin.
    pub min: Point,
    /// Cell width.
    pub cell_w: f64,
    /// Cell height.
    pub cell_h: f64,
    /// Columns.
    pub cols: usize,
    /// Rows.
    pub rows: usize,
}

impl GridLocator {
    /// Region containing point `p` (out-of-range points clamp to edge
    /// cells, like the server side).
    pub fn locate(&self, p: Point) -> RegionId {
        let cx = (((p.x - self.min.x) / self.cell_w).floor().max(0.0) as usize).min(self.cols - 1);
        let cy = (((p.y - self.min.y) / self.cell_h).floor().max(0.0) as usize).min(self.rows - 1);
        (cy * self.cols + cx) as RegionId
    }

    /// Number of regions.
    pub fn num_regions(&self) -> usize {
        self.cols * self.rows
    }
}

impl Partitioning for GridPartition {
    fn num_regions(&self) -> usize {
        self.cols * self.rows
    }

    fn region_of(&self, v: NodeId) -> RegionId {
        self.assignment[v as usize]
    }

    fn locate(&self, p: Point) -> RegionId {
        self.locate_inner(p)
    }

    fn nodes_by_region(&self) -> &[Vec<NodeId>] {
        &self.by_region
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spair_roadnet::generators::small_grid;

    #[test]
    fn covers_all_nodes_once() {
        let g = small_grid(10, 10, 4);
        let part = GridPartition::build(&g, 4, 4);
        let total: usize = part.nodes_by_region().iter().map(Vec::len).sum();
        assert_eq!(total, g.num_nodes());
        for (r, nodes) in part.nodes_by_region().iter().enumerate() {
            for &v in nodes {
                assert_eq!(part.region_of(v), r as RegionId);
            }
        }
    }

    #[test]
    fn locate_matches_assignment() {
        let g = small_grid(9, 7, 2);
        let part = GridPartition::build(&g, 5, 3);
        for v in g.node_ids() {
            assert_eq!(part.locate(g.point(v)), part.region_of(v));
        }
    }

    #[test]
    fn out_of_bounds_points_clamp_to_edge_cells() {
        let g = small_grid(6, 6, 1);
        let part = GridPartition::build(&g, 3, 3);
        let (min, max) = g.bounding_box();
        let r = part.locate(Point::new(min.x - 100.0, min.y - 100.0));
        assert_eq!(r, 0);
        let r = part.locate(Point::new(max.x + 100.0, max.y + 100.0));
        assert_eq!(r as usize, part.num_regions() - 1);
    }

    #[test]
    fn cell_of_inverts_region_index() {
        let g = small_grid(6, 6, 3);
        let part = GridPartition::build(&g, 4, 2);
        for r in 0..part.num_regions() as RegionId {
            let (c, row) = part.cell_of(r);
            assert_eq!((row * 4 + c) as RegionId, r);
        }
    }

    #[test]
    fn locator_round_trips() {
        let g = small_grid(9, 7, 2);
        let part = GridPartition::build(&g, 5, 3);
        let loc = part.locator();
        assert_eq!(loc.num_regions(), part.num_regions());
        for v in g.node_ids() {
            assert_eq!(loc.locate(g.point(v)), part.region_of(v));
        }
    }

    #[test]
    fn regular_grid_can_produce_empty_cells() {
        // Nodes clustered in one corner: most grid cells stay empty — the
        // drawback the paper cites for regular grids.
        let mut b = spair_roadnet::GraphBuilder::new();
        for i in 0..10 {
            b.add_node(Point::new(i as f64 * 0.1, 0.0));
        }
        b.add_node(Point::new(100.0, 100.0));
        for i in 0..10 {
            b.add_undirected_edge(i, i + 1, 1);
        }
        let g = b.finish();
        let part = GridPartition::build(&g, 4, 4);
        let empty = part
            .nodes_by_region()
            .iter()
            .filter(|v| v.is_empty())
            .count();
        assert!(empty > 0);
    }
}
