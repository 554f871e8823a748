//! ArcFlag on parallel edges, driven through the registry's `af`
//! program and client: the flags a client applies to an edge must cover
//! the lightest of the parallel edges it stands for.

use spair_broadcast::{BroadcastChannel, LossModel};
use spair_core::query::Query;
use spair_core::BorderPrecomputation;
use spair_methods::{MethodRegistry, World};
use spair_partition::KdTreePartition;
use spair_roadnet::{dijkstra_distance, GraphBuilder, Point, QueuePolicy, RoadNetwork, Weight};

/// Every ordered pair of `g`, answered by `af` over a lossless channel,
/// against Dijkstra.
fn assert_exact(g: RoadNetwork) {
    let part = KdTreePartition::build(&g, 4);
    let pre = BorderPrecomputation::run(&g, &part);
    let world = World::from_parts(g, part, pre);
    let reg = MethodRegistry::standard();
    let program = reg
        .method(reg.get("af").expect("registered"))
        .build_program(&world);
    let cycle = program.cycle().expect("af broadcasts");
    let mut client = program.make_client(QueuePolicy::default()).unwrap();
    let g = &world.g;
    for s in g.node_ids() {
        for t in g.node_ids() {
            let mut ch = BroadcastChannel::tune_in(cycle, 0, LossModel::Lossless);
            let got = client.query(&mut ch, &Query::for_nodes(g, s, t));
            assert_eq!(
                got.ok().map(|o| o.distance),
                dijkstra_distance(g, s, t),
                "{s}->{t}"
            );
        }
    }
}

#[test]
fn af_follows_the_lightest_of_parallel_edges() {
    // A road of eight junctions across four kd regions, its first two
    // joined by two parallel roads of weights `first` and `second`. The
    // heavy road lies on no shortest path, so its flags name at most its
    // own region; the light one's must still reach the client.
    let road = |first: Weight, second: Weight| {
        let mut b = GraphBuilder::new();
        for i in 0..8 {
            b.add_node(Point::new(i as f64, (i % 2) as f64));
        }
        b.add_undirected_edge(0, 1, first);
        b.add_undirected_edge(0, 1, second);
        for i in 1..7 {
            b.add_undirected_edge(i, i + 1, 1);
        }
        b.finish()
    };
    assert_exact(road(1, 10));
    assert_exact(road(10, 1));
}
