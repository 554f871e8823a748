//! The client-side rebuild `bidi_air` searches: receive the data-only
//! cycle into a [`ReceivedGraph`], then rebuild a dense [`RoadNetwork`]
//! for `spair_roadnet::bidirectional_search_paths`, which needs in-edges
//! the store does not keep, with an id mapping back to the broadcast
//! node ids. Every other whole-cycle client searches its store directly
//! with [`ReceivedGraph::search`].

use spair_broadcast::{Air, MemoryMeter};
use spair_core::client_common::receive_network_data;
use spair_core::netcodec::ReceivedGraph;
use spair_core::query::QueryError;
use spair_roadnet::{NodeId, Point, RoadNetwork, Weight};

/// The rebuilt search graph of one session.
pub(crate) struct ReceivedNetwork {
    /// Dense rebuild of the received adjacency data.
    pub g: RoadNetwork,
    /// Dense id -> broadcast id, sorted ascending (so the reverse lookup
    /// is a binary search — see [`ReceivedNetwork::dense`]).
    pub to_orig: Vec<NodeId>,
}

/// Receives one whole cycle of data packets (with §6.2 re-reception of
/// lost offsets) and rebuilds the network, charging the memory meter the
/// same decoded-node costs the DJ client pays plus the dense rebuild.
///
/// `store` is caller-owned scratch (cleared here), so clients serving
/// many sessions reuse its arenas instead of re-allocating per query.
pub(crate) fn receive_network(
    ch: &mut dyn Air,
    mem: &mut MemoryMeter,
    store: &mut ReceivedGraph,
) -> Result<ReceivedNetwork, QueryError> {
    receive_network_data(ch, mem, store)?;

    let mut to_orig: Vec<NodeId> = store.node_ids().collect();
    to_orig.sort_unstable();
    // Direct CSR assembly in dense-id order: per-source edge order is the
    // store's ingest order, exactly what the former GraphBuilder rebuild
    // produced.
    let dense_of =
        |v: NodeId| -> Option<NodeId> { to_orig.binary_search(&v).ok().map(|i| i as NodeId) };
    let mut points: Vec<Point> = Vec::with_capacity(to_orig.len());
    let mut out_offsets: Vec<u32> = Vec::with_capacity(to_orig.len() + 1);
    let mut out_targets: Vec<NodeId> = Vec::new();
    let mut out_weights: Vec<Weight> = Vec::new();
    out_offsets.push(0);
    for &v in &to_orig {
        points.push(store.point(v).expect("listed node"));
        for &(u, w) in store.out_edges(v) {
            // A target absent from the store can only mean a server-side
            // encoding bug; dropping the edge keeps the client total.
            if let Some(du) = dense_of(u) {
                out_targets.push(du);
                out_weights.push(w);
            }
        }
        out_offsets.push(out_targets.len() as u32);
    }
    let edges = out_targets.len();
    // The dense rebuild doubles the adjacency (id map + CSR arrays).
    mem.alloc(to_orig.len() * 24 + edges * 8);
    Ok(ReceivedNetwork {
        g: RoadNetwork::from_csr(points, out_offsets, out_targets, out_weights),
        to_orig,
    })
}

impl ReceivedNetwork {
    /// Maps a broadcast node id to its dense id, if received.
    pub fn dense(&self, v: NodeId) -> Option<NodeId> {
        self.to_orig.binary_search(&v).ok().map(|i| i as NodeId)
    }

    /// Maps a dense path back to broadcast node ids.
    pub fn path_to_orig(&self, path: &[NodeId]) -> Vec<NodeId> {
        path.iter().map(|&v| self.to_orig[v as usize]).collect()
    }
}
