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
//! **Branch view.** Steps 1 and 2 alone leave a [`BranchView`]: per
//! branch node its distance and parent, and per chain a [`Span`], its two
//! ends' distances and the slot where its interiors stop hanging off the
//! first end (they form a prefix, see below). Any interior's distance and
//! parent run are then O(1) reads. [`SourceTree::search_branches`] stops
//! there (border precompute folds the view); steps 3 and 4 fill the tree
//! from the same spans for SPQ and arc flags.
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

    /// Branch index of `v`, `None` for other nodes.
    pub fn branch_index(&self, v: NodeId) -> Option<u32> {
        Some(*self.branch_index.get(v as usize)?).filter(|&b| b != NONE)
    }

    /// The core's degree-2 chains.
    pub fn chains(&self) -> &Chains {
        &self.chains
    }

    /// The walk from `source` up to the core: the core node it ends at,
    /// its length, and its last node before the core (`NO_PARENT` for a
    /// core source).
    fn walk(&self, source: NodeId) -> (NodeId, Distance, NodeId) {
        let (mut v, mut d, mut prev) = (source, 0, NO_PARENT);
        while self.tree_parent[v as usize] != NO_PARENT {
            d += self.up_weight[v as usize] as Distance;
            prev = v;
            v = self.tree_parent[v as usize];
        }
        (v, d, prev)
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

/// The core's degree-2 chains (see the module docs), laid end to end in
/// one path of *slots*.
#[derive(Debug)]
pub struct Chains {
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
    /// The interiors, as (chain, slot), whose in-weights from their two
    /// chain neighbours are equal: the only ones a double tie can hit.
    tie_slots: Vec<(u32, u32)>,
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
            tie_slots: Vec::new(),
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
        for c in 0..chains.count() {
            let (lo, hi) = chains.ends(c);
            for s in lo + 1..hi {
                if right[s] - right[s - 1] == left[s] - left[s + 1] {
                    chains.tie_slots.push((c as u32, s as u32));
                }
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
    pub fn count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The slots `(first, last)` of chain `c`'s two ends.
    pub fn ends(&self, c: usize) -> (usize, usize) {
        (self.offsets[c] as usize, self.offsets[c + 1] as usize - 1)
    }

    /// Per slot, its node: each chain's first end, its interiors in
    /// order, its last end.
    pub fn path(&self) -> &[NodeId] {
        &self.path
    }

    /// The chain that interior `v` lies on, and `v`'s slot.
    pub fn of(&self, v: NodeId) -> Option<(usize, usize)> {
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

/// How a branch node's tree parent reaches it in a [`BranchView`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BranchParent {
    /// The node is the root of the branch search, the core node the walk
    /// from the source ends at.
    Root,
    /// A plain edge from the branch node of this index.
    Edge(u32),
    /// Every interior of `chain`, entered from its first end (`forward`)
    /// or from its last; on the source's chain, from the root.
    Chain {
        /// The chain.
        chain: usize,
        /// Whether the node is the chain's last end.
        forward: bool,
    },
}

/// The root's own chain, when the branch search starts at a chain
/// interior: it splits the chain into two halves, each searched like a
/// chain of its own.
#[derive(Debug, Clone, Copy)]
pub struct SourceChain {
    /// The chain.
    pub chain: usize,
    /// The root's slot in [`Chains::path`].
    pub slot: usize,
}

/// A run of chain interiors between two slots of a [`BranchView`] whose
/// distances are final: a whole chain, or a half of the source's chain.
/// Its interiors hang off `lo` up to `split` and off `hi` from there,
/// each run parents first from its end.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The chain.
    pub chain: usize,
    /// The slot of its first end.
    pub lo: usize,
    /// The slot of its last end.
    pub hi: usize,
    /// The ends' distances.
    dl: Distance,
    dr: Distance,
    /// The first slot whose parent is towards `hi`.
    pub split: usize,
}

impl Span {
    /// Whether chain slot `s` is an interior of the span.
    pub fn holds(&self, s: usize) -> bool {
        self.lo < s && s < self.hi
    }

    /// The interior at slot `s`: its distance (`DIST_INF` where
    /// unreachable), and the end its parent run hangs off.
    #[inline]
    pub fn at(&self, peel: &Peel, s: usize) -> (Distance, usize) {
        if s < self.split {
            (self.along_lo(peel, s), self.lo)
        } else {
            (self.along_hi(peel, s), self.hi)
        }
    }

    /// The distance to slot `s` along the span from its first end.
    #[inline]
    fn along_lo(&self, peel: &Peel, s: usize) -> Distance {
        let along = &peel.chains.along_right;
        self.dl.saturating_add(along[s] - along[self.lo])
    }

    /// The distance to slot `s` along the span from its last end.
    #[inline]
    fn along_hi(&self, peel: &Peel, s: usize) -> Distance {
        let along = &peel.chains.along_left;
        self.dr.saturating_add(along[s] - along[self.hi])
    }
}

/// One source's shortest-path tree kept at branch-node granularity: per
/// branch node its distance and parent, in settle order (see the module
/// docs). Every chain interior's distance and parent follow in O(1)
/// from its [`Span`] ([`BranchView::span`]), and
/// [`SourceTree::search`] fills them in. Also the per-worker buffers of
/// the branch search.
#[derive(Debug)]
pub struct BranchView {
    heap: MinHeap<u32>,
    /// Per branch index.
    labels: Vec<Label>,
    /// The reached branch indices, parents first.
    settled: Vec<u32>,
    source_chain: Option<SourceChain>,
    root_dist: Distance,
    /// Whether the view summarises a whole-graph search, whose heap
    /// order broke a double tie at a chain interior the way `tie_first`
    /// says.
    summarised: bool,
    /// Per chain slot with a double tie in a summarised view: whether
    /// its parent is towards its span's first end.
    tie_first: Vec<bool>,
}

impl BranchView {
    fn new(peel: &Peel) -> Self {
        Self {
            heap: MinHeap::with_capacity(64),
            labels: vec![Label::UNREACHED; peel.branch_nodes.len()],
            settled: Vec::with_capacity(peel.branch_nodes.len()),
            source_chain: None,
            root_dist: 0,
            summarised: false,
            tie_first: vec![false; peel.chains.path.len()],
        }
    }

    /// The reached branch nodes, by branch index, every parent (or the
    /// far end of a parent chain) before its children.
    pub fn settled(&self) -> &[u32] {
        &self.settled
    }

    /// The distance of the branch node of index `b`, `DIST_INF` where
    /// unreachable.
    pub fn dist(&self, b: u32) -> Distance {
        self.labels[b as usize].dist
    }

    /// How the reached branch node of index `b` hangs off its parent.
    pub fn parent(&self, peel: &Peel, b: u32) -> BranchParent {
        let label = self.labels[b as usize];
        if label.via != NONE {
            return BranchParent::Chain {
                chain: (label.via >> 1) as usize,
                forward: label.via & 1 == 0,
            };
        }
        match peel.branch_index(label.pred) {
            Some(p) => BranchParent::Edge(p),
            None => BranchParent::Root,
        }
    }

    /// The span of chain `c` that holds slot `s`: the whole chain, or on
    /// the source's chain the half that holds `s` (the first half for
    /// the chain's first end, the second for its last), with its split.
    pub fn span(&self, peel: &Peel, c: usize, s: usize) -> Span {
        let (lo, hi) = peel.chains.ends(c);
        let (lo, hi) = match self.source_chain {
            Some(sc) if sc.chain == c && s < sc.slot => (lo, sc.slot),
            Some(sc) if sc.chain == c => (sc.slot, hi),
            _ => (lo, hi),
        };
        let mut span = Span {
            chain: c,
            lo,
            hi,
            dl: self.slot_dist(peel, lo),
            dr: self.slot_dist(peel, hi),
            split: hi,
        };
        // The interiors hanging off `lo` form a prefix: search its end.
        let mut first = lo + 1;
        while first < span.split {
            let mid = (first + span.split) / 2;
            if self.towards_lo(peel, &span, mid) {
                first = mid + 1;
            } else {
                span.split = mid;
            }
        }
        span
    }

    /// The distance of the node at chain slot `s`, an end of a span.
    fn slot_dist(&self, peel: &Peel, s: usize) -> Distance {
        match self.source_chain {
            Some(sc) if sc.slot == s => self.root_dist,
            _ => self.labels[peel.branch_index[peel.chains.path[s] as usize] as usize].dist,
        }
    }

    /// Whether the interior at slot `s` of `span` has its parent towards
    /// the span's first end. Each interior takes the nearer end, or on a
    /// tie from both sides the neighbour of smaller distance; a double
    /// tie goes towards the first end unless a summarised search broke
    /// it otherwise.
    #[inline]
    fn towards_lo(&self, peel: &Peel, span: &Span, s: usize) -> bool {
        let (l, r) = (span.along_lo(peel, s), span.along_hi(peel, s));
        l < r
            || (l == r && l != DIST_INF && {
                let (key_l, key_r) = (span.along_lo(peel, s - 1), span.along_hi(peel, s + 1));
                key_l < key_r || (key_l == key_r && (!self.summarised || self.tie_first[s]))
            })
    }

    /// The root's chain, when the root is a chain interior.
    pub fn source_chain(&self) -> Option<SourceChain> {
        self.source_chain
    }

    /// The root's distance: the length of the walk.
    pub fn root_dist(&self) -> Distance {
        self.root_dist
    }

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

    /// Whether chain `c` is the parent chain of its first end and of its
    /// last end.
    fn parent_of_ends(&self, peel: &Peel, c: usize) -> (bool, bool) {
        let (lo, hi) = peel.chains.ends(c);
        let via = (c as u32) << 1;
        let via_of =
            |s: usize| self.labels[peel.branch_index[peel.chains.path[s] as usize] as usize].via;
        (via_of(lo) == via | 1, via_of(hi) == via)
    }

    /// The walk from `source` up to the core, then the branch search from
    /// its end. With `exact`, fails on a double tie, at a branch node or
    /// at a chain interior.
    fn run(&mut self, peel: &Peel, source: NodeId, exact: bool) -> Result<(), DoubleTie> {
        let (root, d0, prev) = peel.walk(source);
        self.root_dist = d0;
        self.summarised = false;
        self.labels.fill(Label::UNREACHED);
        self.heap.clear();
        self.settled.clear();
        let Chains {
            path,
            along_right: ar,
            along_left: al,
            ..
        } = &peel.chains;
        self.source_chain = None;
        let root_branch = if let Some((chain, slot)) = peel.chains.of(root) {
            // Seed both ends of the source's chain along the chain.
            let (lo, hi) = peel.chains.ends(chain);
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
            self.source_chain = Some(SourceChain { chain, slot });
            NONE
        } else {
            let r = peel.branch_index[root as usize];
            self.labels[r as usize] = Label {
                dist: d0,
                pred: prev,
                ..Label::UNREACHED
            };
            self.heap.push(d0, r);
            r
        };

        while let Some(e) = self.heap.pop() {
            let (dv, v) = (e.key, e.item);
            if dv != self.labels[v as usize].dist {
                continue; // stale duplicate
            }
            self.settled.push(v);
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

        // An interior is tight from both ends exactly where its two
        // distances meet, and its two keys then tie exactly where its two
        // in-weights do: only those slots can hold a double tie.
        if exact {
            for &(c, s) in &peel.chains.tie_slots {
                let (c, s) = (c as usize, s as usize);
                if self
                    .source_chain
                    .is_some_and(|sc| sc.chain == c && sc.slot == s)
                {
                    continue;
                }
                let span = self.span(peel, c, s);
                let l = span.along_lo(peel, s);
                if l == span.along_hi(peel, s) && l != DIST_INF {
                    return Err(DoubleTie);
                }
            }
        }
        Ok(())
    }

    /// Reads a whole-graph search from `source` as a branch view.
    fn summarise(&mut self, peel: &Peel, ws: &DijkstraWorkspace, source: NodeId) {
        let (root, _, _) = peel.walk(source);
        self.root_dist = ws.distance(root);
        self.labels.fill(Label::UNREACHED);
        self.settled.clear();
        let chains = &peel.chains;
        for &u in ws.settle_order() {
            let b = peel.branch_index[u as usize];
            if b == NONE {
                continue;
            }
            let pred = ws.parent(u).unwrap_or(NO_PARENT);
            let via = match (pred != NO_PARENT).then(|| chains.of(pred)).flatten() {
                Some((c, s)) if s + 1 == chains.ends(c).1 && chains.path[s + 1] == u => {
                    (c as u32) << 1
                }
                Some((c, _)) => (c as u32) << 1 | 1,
                None => NONE,
            };
            self.labels[b as usize] = Label {
                dist: ws.distance(u),
                pred,
                key: 0,
                via,
            };
            self.settled.push(b);
        }
        self.source_chain = chains
            .of(root)
            .map(|(chain, slot)| SourceChain { chain, slot });
        self.summarised = true;
        for &(_, s) in &chains.tie_slots {
            let s = s as usize;
            self.tie_first[s] = ws.parent(chains.path[s]) == Some(chains.path[s - 1]);
        }
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

    /// Fills the interiors of `span`, each run parents first from its
    /// end.
    fn fill_chain(&mut self, peel: &Peel, span: Span) {
        let path = &peel.chains.path;
        for s in span.lo + 1..span.split {
            self.set(path[s], span.at(peel, s).0, path[s - 1]);
        }
        for s in (span.split..span.hi).rev() {
            self.set(path[s], span.at(peel, s).0, path[s + 1]);
        }
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
    view: BranchView,
    /// Whole-graph search for double-tie sources, made on first use.
    fallback: Option<DijkstraWorkspace>,
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
            view: BranchView::new(peel),
            fallback: None,
        }
    }

    /// The shortest-path tree from `source` in `peel`'s direction, with
    /// exactly the distances, parents and reachable set of
    /// [`DijkstraWorkspace::run`] (on the nodes a pruned peel fills).
    /// Returns true when a double tie made the kernel recompute the
    /// source over the whole graph.
    pub fn search(&mut self, peel: &Peel, source: NodeId) -> bool {
        if self.view.run(peel, source, true).is_ok() {
            self.fill(peel, source);
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
        // Without the tie check the search always completes.
        let _ = self.view.run(peel, source, false);
        self.fill(peel, source);
    }

    /// [`SourceTree::search`] stopped at the branch view: its
    /// [`SourceTree::view`] holds exactly the whole-graph search's
    /// distances and parents at the branch nodes and chain splits, and
    /// the tree itself is left unfilled. Returns true when a double tie
    /// made the kernel recompute the source over the whole graph (the
    /// view then summarises that search).
    pub fn search_branches(&mut self, peel: &Peel, source: NodeId) -> bool {
        if self.view.run(peel, source, true).is_ok() {
            return false;
        }
        let g = peel.g;
        let ws = self
            .fallback
            .get_or_insert_with(|| DijkstraWorkspace::new(g.num_nodes()));
        ws.run(g, source, peel.dir);
        self.view.summarise(peel, ws, source);
        true
    }

    /// The branch view of the last search.
    pub fn view(&self) -> &BranchView {
        &self.view
    }

    /// Fills the tree from the branch view of a search from `source`:
    /// the walk, the branch nodes in settle order (each parent chain's
    /// interiors right before its node), the other chains, then the
    /// peeled nodes.
    fn fill(&mut self, peel: &Peel, source: NodeId) {
        let (tree, view) = (&mut self.tree, &self.view);
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
        for &b in &peel.branch_nodes {
            tree.dist[b as usize] = DIST_INF;
            tree.parent[b as usize] = NO_PARENT;
        }
        if view.source_chain.is_some() {
            tree.set(v, d, prev);
        }
        for &b in &view.settled {
            let label = view.labels[b as usize];
            let node = peel.branch_nodes[b as usize];
            tree.dist[node as usize] = label.dist;
            tree.parent[node as usize] = label.pred;
            if label.via != NONE {
                // The node is the chain's last end when entered forward.
                let chain = (label.via >> 1) as usize;
                let (lo, hi) = peel.chains.ends(chain);
                let end = if label.via & 1 == 0 { hi } else { lo };
                tree.fill_chain(peel, view.span(peel, chain, end));
            }
            tree.order.push(node);
        }
        // Every chain no branch node took its parent from.
        for c in 0..peel.chains.count() {
            let (lo, hi) = peel.chains.ends(c);
            let (into_lo, into_hi) = view.parent_of_ends(peel, c);
            match view.source_chain {
                Some(s) if s.chain == c => {
                    if !into_lo {
                        tree.fill_chain(peel, view.span(peel, c, lo));
                    }
                    if !into_hi {
                        tree.fill_chain(peel, view.span(peel, c, hi));
                    }
                }
                _ if !into_lo && !into_hi => tree.fill_chain(peel, view.span(peel, c, lo)),
                _ => {}
            }
        }
        for &u in &peel.fill_order {
            if !self.on_walk[u as usize] {
                let p = peel.tree_parent[u as usize];
                let dp = tree.dist[p as usize];
                let du = dp.saturating_add(peel.down_weight[u as usize] as Distance);
                tree.set(u, du, p);
            }
        }
        for &u in &tree.order[..walk] {
            self.on_walk[u as usize] = false;
        }
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
