//! SPQ on the inputs its quadtrees used to get wrong, driven through the
//! registry's `spq_air` program and client: parallel edges (the color
//! must name the edge the distance runs along) and coincident nodes that
//! need different colors (the program must refuse, never answer wrong).

use spair_broadcast::{BroadcastChannel, LossModel};
use spair_core::query::Query;
use spair_core::BorderPrecomputation;
use spair_methods::{MethodProgram, MethodRegistry, MethodUnavailable, World};
use spair_partition::KdTreePartition;
use spair_roadnet::{dijkstra_distance, GraphBuilder, NodeId, Point, QueuePolicy, RoadNetwork};

fn spq_program(g: RoadNetwork) -> (World, Box<dyn MethodProgram>) {
    let part = KdTreePartition::build(&g, 2);
    let pre = BorderPrecomputation::run(&g, &part);
    let world = World::from_parts(g, part, pre);
    let reg = MethodRegistry::standard();
    let program = reg
        .method(reg.get("spq_air").expect("registered"))
        .build_program(&world);
    (world, program)
}

/// Every ordered pair, answered over a lossless channel, against
/// Dijkstra.
fn assert_exact(world: &World, program: &dyn MethodProgram) {
    let g = &world.g;
    let cycle = program.cycle().expect("spq_air broadcasts");
    let mut client = program.make_client(QueuePolicy::default()).unwrap();
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
fn spq_air_follows_the_lightest_of_parallel_edges() {
    // Edges 0-1 of weight 5 then 1, and 1-2 of weight 1: 0 -> 2 costs 2
    // along the second 0-1 edge, not 6 along the first.
    let mut b = GraphBuilder::new();
    for i in 0..3 {
        b.add_node(Point::new(i as f64, 0.0));
    }
    b.add_undirected_edge(0, 1, 5);
    b.add_undirected_edge(0, 1, 1);
    b.add_undirected_edge(1, 2, 1);
    let (world, program) = spq_program(b.finish());
    assert_exact(&world, &*program);
}

#[test]
fn spq_air_refuses_coincident_nodes_of_different_colors() {
    // Nodes 1 and 2 share a point; node 0 reaches 1 over its first edge
    // and 2 over its second (through 3), so one lookup cannot answer
    // both.
    let mut b = GraphBuilder::new();
    for p in [(0.0, 0.0), (1.0, 1.0), (1.0, 1.0), (2.0, 0.0)] {
        b.add_node(Point::new(p.0, p.1));
    }
    let edges: [(NodeId, NodeId); 3] = [(0, 1), (0, 3), (3, 2)];
    for (u, v) in edges {
        b.add_undirected_edge(u, v, 1);
    }
    let (_, program) = spq_program(b.finish());
    assert!(matches!(
        program.cycle(),
        Err(MethodUnavailable::Unrepresentable {
            method: "spq_air",
            ..
        })
    ));

    // Apart, the same network broadcasts and answers exactly.
    let mut b = GraphBuilder::new();
    for p in [(0.0, 0.0), (1.0, 1.0), (1.0, 2.0), (2.0, 0.0)] {
        b.add_node(Point::new(p.0, p.1));
    }
    for (u, v) in edges {
        b.add_undirected_edge(u, v, 1);
    }
    let (world, program) = spq_program(b.finish());
    assert_exact(&world, &*program);
}
