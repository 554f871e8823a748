//! The all-sources shortest-path kernel: one search per source over the
//! branch nodes of the graph's 2-core, with the degree-2 chains and the
//! dangling trees filled in around it.
//!
//! Every server build that runs one search per source (border
//! precompute, SPQ, arc flags) shares this kernel. Road networks hang
//! many dead-end trees off a much smaller 2-core, and most of that core
//! lies on degree-2 chains between junctions (an 8 000-node
//! germany-class map keeps 2 836 core nodes, of which 724 are branch
//! nodes). [`Peel::new`] prepares both once per graph and direction:
//!
//! * **Peel.** A node goes when its only remaining neighbour is linked
//!   to it by exactly one edge in each direction, both of positive
//!   weight, and that neighbour becomes its tree parent.
//! * **Contract.** A core node is a *chain interior* when its core edges
//!   are exactly one edge each way to each of two distinct core
//!   neighbours, all four of positive weight, and no self-loop. Maximal
//!   runs of interiors between two *branch nodes* (every other core
//!   node) are chains; a ring made only of interiors promotes its
//!   smallest id to a branch node. A chain `a, x1, …, xk, b` with
//!   `a != b` gives one super-edge per direction, carrying its total
//!   weight `W` and the weight `w_last` of its last hop; a chain from a
//!   branch node back to itself gives none. The search runs over a CSR
//!   of branch nodes holding the plain edges between them and the
//!   super-edges.
//!
//! Per source, [`SourceTree`] then
//!
//! 1. walks from a source inside a tree up to the core node the tree
//!    attaches at — the only way out of the tree;
//! 2. runs a lazy-heap Dijkstra over the branch nodes from there. A walk
//!    ending at a chain interior seeds both ends of its chain with their
//!    distances along the chain;
//! 3. fills every chain interior in one linear pass per chain:
//!    `d(x) = min(d(a) + prefix, d(b) + suffix)`, with the source's own
//!    chain split at the source into two halves;
//! 4. fills every peeled node in one linear pass, parents first:
//!    `d(v) = d(tree parent) + w`, with the tree parent as parent.
//!
//! The result is a parents-first (order, dist, parent) tree over the
//! whole graph: when a super-edge is the parent of a branch node, the
//! chain's interiors enter the order right before that node.
//!
//! **Pruned fill.** A build that reads the tree only at a fixed set of
//! targets and on the paths to them (border precompute) peels with
//! [`Peel::pruned`]. Step 4 then fills only the peeled nodes with a
//! target in their dangling subtree (themselves included); the walk of
//! step 1 is filled as before. Every other peeled node is left out of
//! [`SourceTree::order`], and its `dist` and `parent` are unspecified:
//! they may hold a previous search's values. No path from the source to
//! a filled node passes through such a node, so the filled part is still
//! a parents-first tree with exactly the whole-graph search's distances
//! and parents. [`Peel::new`] fills every node; SPQ and arc flags use it.
//!
//! **Why the parents equal a whole-graph search's.** A whole-graph
//! lazy-heap Dijkstra makes the parent of `u` the first settled of its
//! tight predecessors (`p` with `d(p) + w(p, u) = d(u)`). Nodes settle
//! in nondecreasing distance, so that is the tight predecessor of
//! smallest distance, whatever order the heap gives equal keys — unless
//! two of them share that distance (a *double tie*). The kernel applies
//! that rule directly:
//!
//! * A peeled node's only tight predecessor is its tree parent, or on
//!   the walk its child towards the source; the core node the walk ends
//!   at has the last walk node.
//! * A branch node's tight predecessors are its tight plain edges and
//!   the last interiors of its tight super-edges. Every relaxation
//!   carries a *predecessor key*, the predecessor's distance: `d(v)` for
//!   a plain edge from `v`, and `d(a) + W − w_last` for a super-edge
//!   from `a` — the distance of the chain's last interior, which the
//!   chain reaches from `a` whenever the super-edge is tight, since its
//!   weights are positive. On a relaxation that ties the current
//!   distance, a smaller key replaces the parent. The super-edge relaxes
//!   at `d(a)`, before its last interior would settle in a whole-graph
//!   search, so "first relaxer wins" would be wrong; the key comparison
//!   is not. An equal key from a different predecessor is a double tie.
//! * A chain interior's tight predecessors are its chain neighbours on
//!   the sides whose candidate is the minimum. When both are tight, the
//!   parent is the side whose neighbour has the smaller distance; only
//!   equal distances are a double tie. Along a chain `prefix − suffix`
//!   strictly increases, so at most one interior is tight from both
//!   sides, the interiors with a parent towards `a` form a prefix, and a
//!   chain whose super-edge is a branch node's parent reaches every
//!   interior from its far end.
//!
//! On a double tie [`SourceTree::search`] recomputes that source alone
//! with [`DijkstraWorkspace::run`] over the whole graph. Callers never
//! see the difference: the parents are exactly `run`'s on every graph.
//! [`SourceTree::search_distances`] skips the check: distances are exact
//! whatever parents the ties pick.

use crate::dijkstra::{DijkstraWorkspace, Direction};
use crate::graph::{NodeId, RoadNetwork, Weight};
use crate::heap::MinHeap;
use crate::sptree::NO_PARENT;
use crate::{Distance, DIST_INF};

/// Marks a node that is no branch node in [`Peel::branch_index`], a node
/// that is no chain interior in [`Chains::slot`], and a plain edge or a
/// root in a `via` field.
const NONE: u32 = u32::MAX;

/// An edge of the branch-node search: a plain core edge or a chain's
/// super-edge.
#[derive(Debug, Clone, Copy)]
struct CoreEdge {
    /// Branch index of the target.
    to: u32,
    /// [`NONE`] for a plain edge; for a super-edge, its chain `c` as
    /// `c << 1` when it runs from the chain's first end to its last and
    /// `c << 1 | 1` the other way.
    via: u32,
    /// The target's predecessor along this edge: the edge's tail, or the
    /// chain's last interior.
    pred: NodeId,
    /// The edge's weight, `W` for a super-edge.
    weight: Distance,
    /// Predecessor key minus the tail's distance: 0, or `W − w_last`.
    lead: Distance,
}

/// A graph split into its 2-core and the dangling trees peeled off it,
/// with the core's degree-2 chains contracted (see the module docs),
/// built once per graph and search direction and shared by all workers.
#[derive(Debug)]
pub struct Peel<'g> {
    g: &'g RoadNetwork,
    dir: Direction,
    /// The nodes of the 2-core, ascending.
    core_nodes: Vec<NodeId>,
    /// Branch index → node, ascending.
    branch_nodes: Vec<NodeId>,
    /// Node → branch index, [`NONE`] for other nodes.
    branch_index: Vec<u32>,
    /// CSR of the branch search's edges, over branch indices.
    edge_offsets: Vec<u32>,
    edges: Vec<CoreEdge>,
    /// The core's degree-2 chains.
    chains: Chains,
    /// Per peeled node: the neighbour it was peeled towards
    /// (`NO_PARENT` for core nodes) and the weights a search pays to
    /// step up to it (`up`) and down from it (`down`).
    tree_parent: Vec<NodeId>,
    up_weight: Vec<Weight>,
    down_weight: Vec<Weight>,
    /// The peeled nodes step 4 fills, every tree parent before its
    /// children: all of them, or for [`Peel::pruned`] those with a target
    /// below them.
    fill_order: Vec<NodeId>,
    /// For [`Peel::pruned`]: per node, whether it is a core node or in
    /// `fill_order`. `None` when every node is filled.
    filled: Option<Vec<bool>>,
}

impl<'g> Peel<'g> {
    /// Peels `g`'s dangling trees and contracts its core's chains for
    /// searches in direction `dir` (forward: distances from the source;
    /// reverse: towards it).
    pub fn new(g: &'g RoadNetwork, dir: Direction) -> Self {
        let n = g.num_nodes();
        // Edges to nodes not yet peeled, per direction.
        let mut out_left: Vec<u32> = g.node_ids().map(|v| g.out_degree(v) as u32).collect();
        let mut in_left: Vec<u32> = g.node_ids().map(|v| g.in_degree(v) as u32).collect();
        let mut tree_parent = vec![NO_PARENT; n];
        let mut up_weight = vec![0; n];
        let mut down_weight = vec![0; n];
        let mut fill_order = Vec::new();
        let one_each_way =
            |o: &[u32], i: &[u32], v: NodeId| o[v as usize] == 1 && i[v as usize] == 1;
        // A node enters the stack when it reaches one edge each way, which
        // happens at most once; it may lose both before it is popped.
        let mut stack: Vec<NodeId> = (0..n as NodeId)
            .rev()
            .filter(|&v| one_each_way(&out_left, &in_left, v))
            .collect();
        while let Some(v) = stack.pop() {
            if !one_each_way(&out_left, &in_left, v) {
                continue;
            }
            let left = |e: &(NodeId, Weight)| tree_parent[e.0 as usize] == NO_PARENT;
            let (u, out_w) = g.out_edges(v).find(left).expect("one out-edge left");
            let (x, in_w) = g.in_edges(v).find(left).expect("one in-edge left");
            if u != x || u == v || out_w == 0 || in_w == 0 {
                continue;
            }
            let (up, down) = match dir {
                Direction::Forward => (out_w, in_w),
                Direction::Reverse => (in_w, out_w),
            };
            tree_parent[v as usize] = u;
            up_weight[v as usize] = up;
            down_weight[v as usize] = down;
            fill_order.push(v);
            out_left[u as usize] -= 1;
            in_left[u as usize] -= 1;
            if one_each_way(&out_left, &in_left, u) {
                stack.push(u);
            }
        }
        fill_order.reverse();
        let core_nodes: Vec<NodeId> = g
            .node_ids()
            .filter(|&v| tree_parent[v as usize] == NO_PARENT)
            .collect();

        let in_core = |v: NodeId| tree_parent[v as usize] == NO_PARENT;
        let chains = Chains::find(g, dir, &core_nodes, in_core);

        let branch_nodes: Vec<NodeId> = core_nodes
            .iter()
            .copied()
            .filter(|&v| chains.slot[v as usize] == NONE)
            .collect();
        let mut branch_index = vec![NONE; n];
        for (i, &v) in branch_nodes.iter().enumerate() {
            branch_index[v as usize] = i as u32;
        }
        let mut out: Vec<Vec<CoreEdge>> = vec![Vec::new(); branch_nodes.len()];
        for (i, &v) in branch_nodes.iter().enumerate() {
            let mut push = |(u, w): (NodeId, Weight)| {
                if branch_index[u as usize] != NONE {
                    out[i].push(CoreEdge {
                        to: branch_index[u as usize],
                        via: NONE,
                        pred: v,
                        weight: w as Distance,
                        lead: 0,
                    });
                }
            };
            match dir {
                Direction::Forward => g.out_edges(v).for_each(&mut push),
                Direction::Reverse => g.in_edges(v).for_each(&mut push),
            }
        }
        let Chains {
            path,
            along_right,
            along_left,
            ..
        } = &chains;
        for c in 0..chains.count() {
            let (lo, hi) = chains.ends(c);
            let (a, b) = (path[lo], path[hi]);
            if a == b {
                continue;
            }
            out[branch_index[a as usize] as usize].push(CoreEdge {
                to: branch_index[b as usize],
                via: (c as u32) << 1,
                pred: path[hi - 1],
                weight: along_right[hi],
                lead: along_right[hi - 1],
            });
            out[branch_index[b as usize] as usize].push(CoreEdge {
                to: branch_index[a as usize],
                via: (c as u32) << 1 | 1,
                pred: path[lo + 1],
                weight: along_left[lo],
                lead: along_left[lo + 1],
            });
        }
        let mut edge_offsets = Vec::with_capacity(branch_nodes.len() + 1);
        edge_offsets.push(0);
        let mut edges = Vec::new();
        for list in out {
            edges.extend(list);
            edge_offsets.push(edges.len() as u32);
        }
        Self {
            g,
            dir,
            core_nodes,
            branch_nodes,
            branch_index,
            edge_offsets,
            edges,
            chains,
            tree_parent,
            up_weight,
            down_weight,
            fill_order,
            filled: None,
        }
    }

    /// [`Peel::new`] with the fill pruned to `targets` (see the module
    /// docs): searches fill the core, the walk from the source, and the
    /// peeled nodes with a target in their dangling subtree.
    pub fn pruned(g: &'g RoadNetwork, dir: Direction, targets: &[NodeId]) -> Self {
        let mut peel = Self::new(g, dir);
        let mut filled: Vec<bool> = peel.tree_parent.iter().map(|&p| p == NO_PARENT).collect();
        for &t in targets {
            let mut v = t;
            while !filled[v as usize] {
                filled[v as usize] = true;
                v = peel.tree_parent[v as usize];
            }
        }
        peel.fill_order.retain(|&v| filled[v as usize]);
        peel.filled = Some(filled);
        peel
    }

    /// The nodes of the 2-core, ascending.
    pub fn core_nodes(&self) -> &[NodeId] {
        &self.core_nodes
    }

    /// The core nodes outside the degree-2 chains, ascending: the nodes
    /// every source's heap search settles.
    pub fn branch_nodes(&self) -> &[NodeId] {
        &self.branch_nodes
    }

    /// The neighbour `v` was peeled towards, `None` for core nodes.
    pub fn tree_parent(&self, v: NodeId) -> Option<NodeId> {
        Some(self.tree_parent[v as usize]).filter(|&p| p != NO_PARENT)
    }

    /// The peeled nodes a search fills, every tree parent before its
    /// children: all of them, or for [`Peel::pruned`] those with a
    /// target below them.
    pub fn fill_order(&self) -> &[NodeId] {
        &self.fill_order
    }

    /// Sets `marks` to `on` along the walk from `source` up to (not
    /// including) the core node its tree attaches at.
    fn mark_walk(&self, marks: &mut [bool], source: NodeId, on: bool) {
        let mut v = source;
        while self.tree_parent[v as usize] != NO_PARENT {
            marks[v as usize] = on;
            v = self.tree_parent[v as usize];
        }
    }

    /// The weight a search pays to step from peeled node `v` up to its
    /// tree parent (0 for core nodes).
    pub fn up_weight(&self, v: NodeId) -> Weight {
        self.up_weight[v as usize]
    }

    /// The weight a search pays to step from `v`'s tree parent down to
    /// peeled node `v` (0 for core nodes).
    pub fn down_weight(&self, v: NodeId) -> Weight {
        self.down_weight[v as usize]
    }
}

/// The core's degree-2 chains (see the module docs).
#[derive(Debug)]
struct Chains {
    /// Node → its slot in `path` for chain interiors, [`NONE`] for other
    /// nodes; so the branch nodes are the core nodes without a slot.
    slot: Vec<u32>,
    /// Chain `c` is `path[offsets[c]..offsets[c + 1]]`: its first end,
    /// its interiors in order, its last end.
    offsets: Vec<u32>,
    path: Vec<NodeId>,
    /// Aligned with `path`: the distance a search covers along the chain
    /// from its first end to each slot (`along_right`) and from its last
    /// end to each slot (`along_left`).
    along_right: Vec<Distance>,
    along_left: Vec<Distance>,
}

impl Chains {
    /// Finds the chains of the core `core_nodes` (ascending; `in_core`
    /// tells its members): a walk from every branch node into each
    /// interior neighbour not yet on a chain, then one through each ring
    /// left over, from its smallest id, which becomes a branch node.
    fn find(
        g: &RoadNetwork,
        dir: Direction,
        core_nodes: &[NodeId],
        in_core: impl Fn(NodeId) -> bool + Copy,
    ) -> Self {
        let mut interior = vec![false; g.num_nodes()];
        for &v in core_nodes {
            interior[v as usize] = is_chain_interior(g, v, in_core);
        }
        let mut chains = Chains {
            slot: vec![NONE; g.num_nodes()],
            offsets: vec![0],
            path: Vec::new(),
            along_right: Vec::new(),
            along_left: Vec::new(),
        };
        for &a in core_nodes {
            if !interior[a as usize] {
                for (x, _) in g.out_edges(a) {
                    if interior[x as usize] && chains.slot[x as usize] == NONE {
                        chains.walk(g, in_core, &interior, a, x);
                    }
                }
            }
        }
        for &r in core_nodes {
            if interior[r as usize] && chains.slot[r as usize] == NONE {
                interior[r as usize] = false;
                let (x, _) = g.out_edges(r).find(|&(u, _)| in_core(u)).expect("ring");
                chains.walk(g, in_core, &interior, r, x);
            }
        }
        let step = |u: NodeId, v: NodeId| -> Distance {
            let hit = |&(t, _): &(NodeId, Weight)| t == v;
            let hop = match dir {
                Direction::Forward => g.out_edges(u).find(hit),
                Direction::Reverse => g.in_edges(u).find(hit),
            };
            hop.expect("chain hop").1 as Distance
        };
        let path = &chains.path;
        let (mut right, mut left) = (vec![0; path.len()], vec![0; path.len()]);
        for c in 0..chains.count() {
            let (lo, hi) = chains.ends(c);
            for i in lo..hi {
                right[i + 1] = right[i] + step(path[i], path[i + 1]);
            }
            for i in (lo..hi).rev() {
                left[i] = left[i + 1] + step(path[i + 1], path[i]);
            }
        }
        (chains.along_right, chains.along_left) = (right, left);
        chains
    }

    /// Records the chain that leaves branch node `a` through interior
    /// `x`, up to the next branch node.
    fn walk(
        &mut self,
        g: &RoadNetwork,
        in_core: impl Fn(NodeId) -> bool,
        interior: &[bool],
        a: NodeId,
        x: NodeId,
    ) {
        self.path.push(a);
        let (mut prev, mut cur) = (a, x);
        while interior[cur as usize] {
            self.slot[cur as usize] = self.path.len() as u32;
            self.path.push(cur);
            let next = g
                .out_edges(cur)
                .map(|(u, _)| u)
                .find(|&u| u != prev && in_core(u))
                .expect("an interior has two core neighbours");
            (prev, cur) = (cur, next);
        }
        self.path.push(cur);
        self.offsets.push(self.path.len() as u32);
    }

    /// Number of chains.
    fn count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The slots `(first, last)` of chain `c`'s two ends.
    fn ends(&self, c: usize) -> (usize, usize) {
        (self.offsets[c] as usize, self.offsets[c + 1] as usize - 1)
    }

    /// The chain that interior `v` lies on, and `v`'s slot.
    fn of(&self, v: NodeId) -> Option<(usize, usize)> {
        let slot = self.slot[v as usize] as usize;
        (self.slot[v as usize] != NONE).then(|| {
            (
                self.offsets.partition_point(|&o| o as usize <= slot) - 1,
                slot,
            )
        })
    }
}

/// Whether core node `v` is a chain interior: exactly one core edge each
/// way to each of two distinct core neighbours, all of positive weight.
fn is_chain_interior(g: &RoadNetwork, v: NodeId, in_core: impl Fn(NodeId) -> bool) -> bool {
    let mut outs = g.out_edges(v).filter(|&(u, _)| in_core(u));
    let (Some((a, wa)), Some((b, wb)), None) = (outs.next(), outs.next(), outs.next()) else {
        return false;
    };
    let mut ins = g.in_edges(v).filter(|&(u, _)| in_core(u));
    let (Some((x, wx)), Some((y, wy)), None) = (ins.next(), ins.next(), ins.next()) else {
        return false;
    };
    a != b
        && a != v
        && b != v
        && ((x, y) == (a, b) || (x, y) == (b, a))
        && [wa, wb, wx, wy].iter().all(|&w| w > 0)
}

/// A double tie: two predecessors of one node at the same smallest
/// distance, where a whole-graph search's heap order picks the parent.
struct DoubleTie;

/// One branch node's state in the search, or a relaxation offering one.
#[derive(Debug, Clone, Copy)]
struct Label {
    dist: Distance,
    /// The node that is the parent, and its distance (the predecessor
    /// key of the module docs).
    pred: NodeId,
    key: Distance,
    /// The super-edge `via` the parent came over, [`NONE`] for a plain
    /// edge and the root.
    via: u32,
}

impl Label {
    const UNREACHED: Label = Label {
        dist: DIST_INF,
        pred: NO_PARENT,
        key: 0,
        via: NONE,
    };
}

/// Per-worker buffers of the branch search, over branch indices.
#[derive(Debug)]
struct CoreSearch {
    heap: MinHeap<u32>,
    labels: Vec<Label>,
}

impl CoreSearch {
    /// Offers branch `u` the label `cand`. A shorter distance wins; at
    /// an equal one the smaller predecessor key does, and an equal key
    /// from another predecessor is a double tie when `exact`. The root
    /// keeps its parent.
    #[inline]
    fn relax(&mut self, u: u32, cand: Label, root: u32, exact: bool) -> Result<(), DoubleTie> {
        let label = &mut self.labels[u as usize];
        if cand.dist < label.dist {
            *label = cand;
            self.heap.push(cand.dist, u);
        } else if cand.dist == label.dist && u != root {
            if cand.key < label.key {
                *label = cand;
            } else if cand.key == label.key && cand.pred != label.pred && exact {
                return Err(DoubleTie);
            }
        }
        Ok(())
    }
}

/// A shortest-path tree over the whole graph: reachable nodes parents
/// first, and per node the distance and parent.
#[derive(Debug)]
struct Tree {
    order: Vec<NodeId>,
    dist: Vec<Distance>,
    parent: Vec<NodeId>,
}

impl Tree {
    /// Sets `v`'s distance and parent, and appends it to the order
    /// unless it is unreachable.
    #[inline]
    fn set(&mut self, v: NodeId, d: Distance, p: NodeId) {
        if d == DIST_INF {
            self.dist[v as usize] = DIST_INF;
            self.parent[v as usize] = NO_PARENT;
        } else {
            self.dist[v as usize] = d;
            self.parent[v as usize] = p;
            self.order.push(v);
        }
    }

    /// Fills the chain nodes strictly between slots `lo` and `hi`, whose
    /// distances are final: each takes the nearer end, or on a tie from
    /// both sides the neighbour of smaller distance. The interiors with
    /// a parent towards `lo` form a prefix; both runs enter the order
    /// parents first.
    fn fill_chain(
        &mut self,
        peel: &Peel,
        lo: usize,
        hi: usize,
        exact: bool,
    ) -> Result<(), DoubleTie> {
        let Chains {
            path,
            along_right: ar,
            along_left: al,
            ..
        } = &peel.chains;
        let (dl, dr) = (self.dist[path[lo] as usize], self.dist[path[hi] as usize]);
        let from_lo = |s: usize| dl.saturating_add(ar[s] - ar[lo]);
        let from_hi = |s: usize| dr.saturating_add(al[s] - al[hi]);
        let mut split = hi;
        for s in lo + 1..hi {
            let (l, r) = (from_lo(s), from_hi(s));
            let towards_lo = l < r
                || (l == r && l != DIST_INF && {
                    let (key_l, key_r) = (from_lo(s - 1), from_hi(s + 1));
                    if key_l == key_r && exact {
                        return Err(DoubleTie);
                    }
                    key_l <= key_r
                });
            if !towards_lo {
                split = s;
                break;
            }
            self.set(path[s], l, path[s - 1]);
        }
        for s in (split..hi).rev() {
            self.set(path[s], from_hi(s), path[s + 1]);
        }
        Ok(())
    }
}

/// One source's shortest-path tree over the whole graph, and the
/// per-worker buffers that build it. `order` holds the reachable nodes
/// parents first, starting with the source; `dist`/`parent` are indexed
/// by node (`DIST_INF`/`NO_PARENT` where unreachable). Over a
/// [`Peel::pruned`] peel, all three cover only the nodes the fill
/// keeps (see the module docs). Results are valid until the next search.
#[derive(Debug)]
pub struct SourceTree {
    tree: Tree,
    /// Marks the walk from the source to the core while the fill runs.
    on_walk: Vec<bool>,
    core: CoreSearch,
    /// Whole-graph search for double-tie sources, made on first use.
    fallback: Option<DijkstraWorkspace>,
}

/// The source's own chain, split at the core node the walk ends at.
#[derive(Clone, Copy)]
struct SourceChain {
    chain: usize,
    slot: usize,
}

impl SourceChain {
    /// The chain-path slots between which super-edge `via` runs: its
    /// whole chain, or on the source's chain the half from the source.
    fn span(source_chain: Option<Self>, peel: &Peel, via: u32) -> (usize, usize) {
        let chain = (via >> 1) as usize;
        let (lo, hi) = peel.chains.ends(chain);
        match source_chain {
            Some(s) if s.chain == chain && via & 1 == 1 => (lo, s.slot),
            Some(s) if s.chain == chain => (s.slot, hi),
            _ => (lo, hi),
        }
    }
}

impl SourceTree {
    /// Buffers for searches over `peel`'s graph.
    pub fn new(peel: &Peel) -> Self {
        let n = peel.g.num_nodes();
        Self {
            tree: Tree {
                order: Vec::with_capacity(n),
                dist: vec![DIST_INF; n],
                parent: vec![NO_PARENT; n],
            },
            on_walk: vec![false; n],
            core: CoreSearch {
                heap: MinHeap::with_capacity(64),
                labels: vec![Label::UNREACHED; peel.branch_nodes.len()],
            },
            fallback: None,
        }
    }

    /// The shortest-path tree from `source` in `peel`'s direction, with
    /// exactly the distances, parents and reachable set of
    /// [`DijkstraWorkspace::run`] (on the nodes a pruned peel fills).
    /// Returns true when a double tie made the kernel recompute the
    /// source over the whole graph.
    pub fn search(&mut self, peel: &Peel, source: NodeId) -> bool {
        if self.run(peel, source, true) {
            return false;
        }
        let g = peel.g;
        let ws = self
            .fallback
            .get_or_insert_with(|| DijkstraWorkspace::new(g.num_nodes()));
        ws.run(g, source, peel.dir);
        let tree = &mut self.tree;
        tree.order.clear();
        match &peel.filled {
            None => tree.order.extend_from_slice(ws.settle_order()),
            // The filled nodes and the walk are closed under parents, so
            // keeping them keeps the order parents first.
            Some(filled) => {
                let on_walk = &mut self.on_walk;
                peel.mark_walk(on_walk, source, true);
                let kept = |v: &&NodeId| filled[**v as usize] || on_walk[**v as usize];
                tree.order.extend(ws.settle_order().iter().filter(kept));
                peel.mark_walk(on_walk, source, false);
            }
        }
        for v in g.node_ids() {
            tree.dist[v as usize] = ws.distance(v);
            tree.parent[v as usize] = ws.parent(v).unwrap_or(NO_PARENT);
        }
        true
    }

    /// The distances from `source` in `peel`'s direction. They are
    /// exact; among equally short paths the parents may differ from
    /// [`DijkstraWorkspace::run`]'s, so this mode never falls back.
    pub fn search_distances(&mut self, peel: &Peel, source: NodeId) {
        self.run(peel, source, false);
    }

    /// Walk, branch search, chain fill and tree fill. With
    /// `exact_parents`, returns false — the tree then unusable — on a
    /// double tie.
    fn run(&mut self, peel: &Peel, source: NodeId, exact_parents: bool) -> bool {
        let tree = &mut self.tree;
        tree.order.clear();
        let mut v = source;
        let mut d: Distance = 0;
        let mut prev = NO_PARENT;
        while peel.tree_parent[v as usize] != NO_PARENT {
            tree.set(v, d, prev);
            self.on_walk[v as usize] = true;
            d += peel.up_weight[v as usize] as Distance;
            prev = v;
            v = peel.tree_parent[v as usize];
        }
        let walk = tree.order.len();
        let tie_free = self
            .core
            .search(peel, tree, v, d, prev, exact_parents)
            .is_ok();
        if tie_free {
            for &u in &peel.fill_order {
                if !self.on_walk[u as usize] {
                    let p = peel.tree_parent[u as usize];
                    let dp = tree.dist[p as usize];
                    let du = dp.saturating_add(peel.down_weight[u as usize] as Distance);
                    tree.set(u, du, p);
                }
            }
        }
        for &u in &tree.order[..walk] {
            self.on_walk[u as usize] = false;
        }
        tie_free
    }

    /// The reachable nodes, parents first, starting with the source.
    pub fn order(&self) -> &[NodeId] {
        &self.tree.order
    }

    /// Per node: the distance, `DIST_INF` where unreachable.
    pub fn distances(&self) -> &[Distance] {
        &self.tree.dist
    }

    /// Per node: the tree parent, `NO_PARENT` for the source and
    /// unreachable nodes.
    pub fn parents(&self) -> &[NodeId] {
        &self.tree.parent
    }
}

impl CoreSearch {
    /// The branch search from core node `root`, at distance `d0` from
    /// the source with parent `prev`, then the chain fill, into `tree`.
    fn search(
        &mut self,
        peel: &Peel,
        tree: &mut Tree,
        root: NodeId,
        d0: Distance,
        prev: NodeId,
        exact: bool,
    ) -> Result<(), DoubleTie> {
        self.labels.fill(Label::UNREACHED);
        self.heap.clear();
        for &b in &peel.branch_nodes {
            tree.dist[b as usize] = DIST_INF;
            tree.parent[b as usize] = NO_PARENT;
        }
        let (root_branch, source_chain) = if let Some((chain, slot)) = peel.chains.of(root) {
            // Seed both ends of the source's chain along the chain.
            tree.set(root, d0, prev);
            let (lo, hi) = peel.chains.ends(chain);
            let Chains {
                path,
                along_right: ar,
                along_left: al,
                ..
            } = &peel.chains;
            let via = (chain as u32) << 1;
            let towards_lo = Label {
                dist: d0 + al[lo] - al[slot],
                pred: path[lo + 1],
                key: d0 + al[lo + 1] - al[slot],
                via: via | 1,
            };
            let towards_hi = Label {
                dist: d0 + ar[hi] - ar[slot],
                pred: path[hi - 1],
                key: d0 + ar[hi - 1] - ar[slot],
                via,
            };
            let branch = |s: usize| peel.branch_index[path[s] as usize];
            self.relax(branch(lo), towards_lo, NONE, exact)?;
            self.relax(branch(hi), towards_hi, NONE, exact)?;
            (NONE, Some(SourceChain { chain, slot }))
        } else {
            let r = peel.branch_index[root as usize];
            self.labels[r as usize] = Label {
                dist: d0,
                pred: prev,
                ..Label::UNREACHED
            };
            self.heap.push(d0, r);
            (r, None)
        };

        while let Some(e) = self.heap.pop() {
            let (dv, v) = (e.key, e.item);
            let label = self.labels[v as usize];
            if dv != label.dist {
                continue; // stale duplicate
            }
            let node = peel.branch_nodes[v as usize];
            tree.dist[node as usize] = dv;
            tree.parent[node as usize] = label.pred;
            // A parent over a super-edge: that chain's interiors go first.
            if label.via != NONE {
                let (lo, hi) = SourceChain::span(source_chain, peel, label.via);
                tree.fill_chain(peel, lo, hi, exact)?;
            }
            tree.order.push(node);
            let (lo, hi) = (
                peel.edge_offsets[v as usize] as usize,
                peel.edge_offsets[v as usize + 1] as usize,
            );
            for e in &peel.edges[lo..hi] {
                let cand = Label {
                    dist: dv + e.weight,
                    pred: e.pred,
                    key: dv + e.lead,
                    via: e.via,
                };
                self.relax(e.to, cand, root_branch, exact)?;
            }
        }

        // Every chain no branch node took its parent from.
        for c in 0..peel.chains.count() {
            let (lo, hi) = peel.chains.ends(c);
            let via = (c as u32) << 1;
            let via_of = |s: usize| {
                self.labels[peel.branch_index[peel.chains.path[s] as usize] as usize].via
            };
            let (into_lo, into_hi) = (via_of(lo) == via | 1, via_of(hi) == via);
            match source_chain {
                Some(s) if s.chain == c => {
                    if !into_lo {
                        tree.fill_chain(peel, lo, s.slot, exact)?;
                    }
                    if !into_hi {
                        tree.fill_chain(peel, s.slot, hi, exact)?;
                    }
                }
                _ if !into_lo && !into_hi => tree.fill_chain(peel, lo, hi, exact)?,
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GraphBuilder, Point};

    /// A graph of `n` nodes with the given edges.
    fn graph(n: usize, edges: &[(NodeId, NodeId, Weight)]) -> RoadNetwork {
        let mut b = GraphBuilder::new();
        for i in 0..n {
            b.add_node(Point::new(i as f64, (i % 3) as f64));
        }
        for &(u, v, w) in edges {
            b.add_edge(u, v, w);
        }
        b.finish()
    }

    /// Both directions of each `(u, v, w)`.
    fn both_ways(edges: &[(NodeId, NodeId, Weight)]) -> Vec<(NodeId, NodeId, Weight)> {
        edges
            .iter()
            .flat_map(|&(u, v, w)| [(u, v, w), (v, u, w)])
            .collect()
    }

    /// A triangle 0-1-2 with a two-node spur 0 - 3 - 4 and a leaf 5 on 1.
    fn triangle_with_spurs() -> RoadNetwork {
        let mut b = GraphBuilder::new();
        for i in 0..6 {
            b.add_node(Point::new(i as f64, (i % 2) as f64));
        }
        b.add_undirected_edge(0, 1, 2);
        b.add_undirected_edge(1, 2, 3);
        b.add_undirected_edge(2, 0, 4);
        b.add_edge(0, 3, 1);
        b.add_edge(3, 0, 6);
        b.add_undirected_edge(3, 4, 2);
        b.add_undirected_edge(1, 5, 7);
        b.finish()
    }

    /// Checks the forward and reverse trees from every source against
    /// the whole-graph search: distances, parents, reachable set and a
    /// parents-first order. Returns which sources fell back, every
    /// forward source by id and then every reverse source by id, so
    /// entry `s` is forward source `s`.
    fn check_every_source(g: &RoadNetwork) -> Vec<bool> {
        let mut fell_back = Vec::new();
        for dir in [Direction::Forward, Direction::Reverse] {
            let peel = Peel::new(g, dir);
            let mut tree = SourceTree::new(&peel);
            let mut ws = DijkstraWorkspace::new(g.num_nodes());
            for s in g.node_ids() {
                fell_back.push(tree.search(&peel, s));
                ws.run(g, s, dir);
                for v in g.node_ids() {
                    assert_eq!(tree.distances()[v as usize], ws.distance(v), "{s}->{v}");
                    let want = ws.parent(v).unwrap_or(NO_PARENT);
                    assert_eq!(tree.parents()[v as usize], want, "parent of {v} from {s}");
                }
                assert_eq!(tree.order()[0], s);
                assert_eq!(tree.order().len(), ws.settle_order().len());
                let mut seen = vec![false; g.num_nodes()];
                for &v in tree.order() {
                    let p = tree.parents()[v as usize];
                    assert!(v == s || seen[p as usize], "{v} before its parent from {s}");
                    seen[v as usize] = true;
                }
            }
        }
        fell_back
    }

    #[test]
    fn peels_spurs_and_keeps_the_cycle() {
        let g = triangle_with_spurs();
        let peel = Peel::new(&g, Direction::Forward);
        assert_eq!(peel.core_nodes(), &[0, 1, 2]);
        assert_eq!(peel.tree_parent(4), Some(3));
        assert_eq!(peel.tree_parent(3), Some(0));
        assert_eq!(peel.tree_parent(0), None);
        let pos = |v| peel.fill_order().iter().position(|&u| u == v).unwrap();
        assert!(pos(3) < pos(4));
        // The triangle is a ring of interiors: its smallest id is promoted.
        assert_eq!(peel.branch_nodes(), &[0]);
    }

    #[test]
    fn both_directions_match_the_whole_graph_search() {
        let g = triangle_with_spurs();
        let fell_back = check_every_source(&g);
        assert_eq!(fell_back.len(), 2 * g.num_nodes());
        assert!(fell_back.iter().all(|&f| !f), "no ties in either direction");
    }

    /// Branch nodes 0 and 1 joined by a plain edge `0 - 1` of weight
    /// `w01`, a chain `0 - 2 - 3 - 1` and a second chain `0 - 4 - 1`.
    fn two_chains(w01: Weight, w02: Weight, w23: Weight, w31: Weight) -> RoadNetwork {
        graph(
            5,
            &both_ways(&[
                (0, 1, w01),
                (0, 2, w02),
                (2, 3, w23),
                (3, 1, w31),
                (0, 4, 5),
                (4, 1, 5),
            ]),
        )
    }

    #[test]
    fn chains_contract_to_super_edges_between_branch_nodes() {
        let g = two_chains(2, 1, 3, 2);
        let peel = Peel::new(&g, Direction::Forward);
        assert_eq!(peel.core_nodes(), &[0, 1, 2, 3, 4]);
        assert_eq!(peel.branch_nodes(), &[0, 1]);
    }

    #[test]
    fn interior_tight_from_both_sides_takes_the_nearer_neighbour() {
        // From 0: node 3 is 1 + 3 = 4 over 2 (at 1) and 2 + 2 = 4 over
        // branch node 1 (at 2). The nearer neighbour, 2, is the parent.
        let g = two_chains(2, 1, 3, 2);
        let peel = Peel::new(&g, Direction::Forward);
        let mut tree = SourceTree::new(&peel);
        assert!(!tree.search(&peel, 0));
        assert_eq!(tree.distances()[3], 4);
        assert_eq!(tree.parents()[3], 2);
        assert!(check_every_source(&g).iter().all(|&f| !f));
    }

    #[test]
    fn interior_tight_from_equally_far_neighbours_falls_back() {
        // From 0: node 3 is 2 + 2 over 2 (at 2) and 2 + 2 over 1 (at 2).
        let g = two_chains(2, 2, 2, 2);
        let peel = Peel::new(&g, Direction::Forward);
        let mut tree = SourceTree::new(&peel);
        assert!(tree.search(&peel, 0));
        assert!(check_every_source(&g)[0]);
    }

    /// Branch nodes 0 (the source), 1 and 2: a plain path `0 - 1 - 2` of
    /// weights 3 and 2, a chain `0 - 3 - 4 - 2` and heavy chains
    /// `0 - 5 - 1` and `2 - 6 - 7 - 0` that keep 1 and 2 branch nodes.
    fn plain_beside_super(w03: Weight, w34: Weight, w42: Weight) -> RoadNetwork {
        graph(
            8,
            &both_ways(&[
                (0, 1, 3),
                (1, 2, 2),
                (0, 3, w03),
                (3, 4, w34),
                (4, 2, w42),
                (0, 5, 5),
                (5, 1, 5),
                (2, 6, 20),
                (6, 7, 20),
                (7, 0, 20),
            ]),
        )
    }

    #[test]
    fn plain_edge_and_super_edge_tie_by_predecessor_distance() {
        // Node 2's distance and parent from 0, and whether 0 fell back.
        let from_zero = |g: &RoadNetwork| {
            let peel = Peel::new(g, Direction::Forward);
            assert_eq!(peel.branch_nodes(), &[0, 1, 2]);
            let mut tree = SourceTree::new(&peel);
            let fell_back = tree.search(&peel, 0);
            assert_eq!(check_every_source(g)[0], fell_back);
            (tree.distances()[2], tree.parents()[2], fell_back)
        };
        // Node 2 is 5 away both over 1 (at 3) and over 4 (at 4): the
        // super-edge relaxes 2 first, at 0, yet 1 is the parent.
        assert_eq!(from_zero(&plain_beside_super(1, 3, 1)), (5, 1, false));
        // Over 4 at 2 instead: 4 is the parent.
        assert_eq!(from_zero(&plain_beside_super(1, 1, 3)), (5, 4, false));
        // Over 4 at 3, as far as 1: a double tie.
        assert!(from_zero(&plain_beside_super(1, 2, 2)).2);
    }

    #[test]
    fn source_at_a_chains_midpoint() {
        // Chain 0 - 2 - 3 - 4 - 1 of weight 2 a hop, source 3 halfway;
        // 0 and 1 also meet over a plain edge and the chain 0 - 5 - 1.
        let g = graph(
            6,
            &both_ways(&[
                (0, 2, 2),
                (2, 3, 2),
                (3, 4, 2),
                (4, 1, 2),
                (0, 1, 7),
                (0, 5, 1),
                (5, 1, 9),
            ]),
        );
        let peel = Peel::new(&g, Direction::Forward);
        assert_eq!(peel.branch_nodes(), &[0, 1]);
        let mut tree = SourceTree::new(&peel);
        assert!(!tree.search(&peel, 3));
        assert_eq!(&tree.distances()[..6], &[4, 4, 2, 0, 2, 5]);
        assert_eq!(tree.parents()[0], 2);
        assert_eq!(tree.parents()[1], 4);
        assert_eq!(tree.parents()[5], 0);
        assert!(check_every_source(&g).iter().all(|&f| !f));
    }

    #[test]
    fn dangling_tree_on_a_chain_interior() {
        // Branch nodes 0 and 1 joined by a plain edge and the chains
        // 0 - 2 - 3 - 1 and 0 - 4 - 1; the tree 3 - 5 - 6 hangs off the
        // interior 3.
        let mut edges = vec![
            (0, 1, 4),
            (0, 2, 3),
            (2, 3, 1),
            (3, 1, 5),
            (0, 4, 2),
            (4, 1, 7),
            (3, 5, 2),
            (5, 6, 1),
        ];
        edges = both_ways(&edges);
        edges.push((5, 3, 4));
        edges.retain(|&e| e != (5, 3, 2));
        let g = graph(7, &edges);
        let peel = Peel::new(&g, Direction::Forward);
        assert_eq!(peel.branch_nodes(), &[0, 1]);
        assert_eq!(
            (peel.tree_parent(5), peel.tree_parent(6)),
            (Some(3), Some(5))
        );
        let mut tree = SourceTree::new(&peel);
        assert!(!tree.search(&peel, 6));
        assert_eq!(&tree.order()[..3], &[6, 5, 3]);
        assert_eq!(tree.distances()[3], 5);
        assert!(check_every_source(&g).iter().all(|&f| !f));
    }
}
