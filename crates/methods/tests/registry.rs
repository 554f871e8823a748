//! Registry completeness and trait-contract tests:
//!
//! 1. all methods are registered with unique, **frozen** (name, ordinal)
//!    pairs — ordinals feed session-seed derivation, so a reordering
//!    would silently change every digest;
//! 2. descriptor capabilities are internally consistent and the built
//!    programs honor them (air methods hand out clients and cycles,
//!    channel-less / non-air facets return typed `MethodUnavailable`
//!    errors, never panics);
//! 3. the two registry-proving methods (`astar_air`, `bidi_air`) answer
//!    exactly against the serial Dijkstra oracle over a real broadcast
//!    channel, lossless and lossy.

use spair_broadcast::{BroadcastChannel, LossModel};
use spair_core::query::Query;
use spair_core::BorderPrecomputation;
use spair_methods::{MethodId, MethodListError, MethodRegistry, MethodUnavailable, World};
use spair_partition::KdTreePartition;
use spair_roadnet::generators::small_grid;
use spair_roadnet::{dijkstra_distance, NodeId, QueuePolicy};

/// The frozen registry: stable names and ordinals. Appending is fine;
/// renaming or reordering is a digest-breaking change this test blocks.
const FROZEN: [(&str, u32); 11] = [
    ("nr", 0),
    ("eb", 1),
    ("dj", 2),
    ("ld", 3),
    ("af", 4),
    ("spq_air", 5),
    ("hiti_air", 6),
    ("nr_mem_bound", 7),
    ("knn_air", 8),
    ("astar_air", 9),
    ("bidi_air", 10),
];

#[test]
fn registry_is_complete_with_frozen_names_and_ordinals() {
    let reg = MethodRegistry::standard();
    let all = reg.all();
    assert_eq!(all.len(), FROZEN.len(), "method count changed");
    for (m, (name, ordinal)) in all.iter().zip(FROZEN) {
        assert_eq!(m.name(), name);
        assert_eq!(m.ordinal(), ordinal);
        assert_eq!(reg.get(name).unwrap(), *m, "name lookup round-trips");
    }
    let mut names: Vec<&str> = all.iter().map(|m| m.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), all.len(), "names must be unique");
    let mut labels: Vec<&str> = all.iter().map(|m| m.label()).collect();
    labels.sort_unstable();
    labels.dedup();
    assert_eq!(labels.len(), all.len(), "chart labels must be unique");
}

#[test]
fn method_lists_resolve_in_order_and_reject_bad_names() {
    let all = MethodRegistry::standard().all();
    let parse = |list| MethodRegistry::parse_list(list, &all);
    assert_eq!(
        parse("dj, nr,,eb"),
        Ok(vec![MethodId::DJ, MethodId::NR, MethodId::EB])
    );
    assert_eq!(parse(""), Err(MethodListError::Empty));
    assert_eq!(parse(",,"), Err(MethodListError::Empty));
    assert_eq!(parse("nr,nr"), Err(MethodListError::Duplicate("nr".into())));
    let names: Vec<&str> = all.iter().map(MethodId::name).collect();
    assert_eq!(
        parse("zz"),
        Err(MethodListError::NotAllowed {
            name: "zz".into(),
            allowed: names
        })
    );
    // Registered but outside the run's own column set.
    let err = MethodRegistry::parse_list("knn_air", &[MethodId::NR, MethodId::DJ]).unwrap_err();
    assert_eq!(
        err.to_string(),
        "'knn_air' is not a method this run accepts (allowed: nr,dj)"
    );
}

#[test]
fn legacy_constants_match_registry_lookups() {
    let reg = MethodRegistry::standard();
    for (handle, name) in [
        (MethodId::NR, "nr"),
        (MethodId::EB, "eb"),
        (MethodId::DJ, "dj"),
        (MethodId::LD, "ld"),
        (MethodId::AF, "af"),
        (MethodId::SPQ_AIR, "spq_air"),
        (MethodId::HITI_AIR, "hiti_air"),
        (MethodId::NR_MEM_BOUND, "nr_mem_bound"),
        (MethodId::KNN_AIR, "knn_air"),
    ] {
        assert_eq!(reg.get(name).unwrap(), handle);
        assert_eq!(handle.name(), name);
    }
    assert!(matches!(
        reg.get("nope"),
        Err(MethodUnavailable::Unknown(_))
    ));
}

#[test]
fn descriptor_capabilities_are_internally_consistent() {
    for m in MethodRegistry::standard().all() {
        let d = m.descriptor();
        assert_eq!(
            d.air_client,
            d.shape.is_some(),
            "{}: air clients and only air clients declare a session shape",
            d.name
        );
        if d.air_client {
            assert!(d.own_channel, "{}: an air client needs a cycle", d.name);
            assert!(
                d.on_edge,
                "{}: air clients run the §5 decomposition",
                d.name
            );
        }
        assert_eq!(
            d.population_replayable, d.air_client,
            "{}: lossless replay is exactly the air-client set",
            d.name
        );
        assert!(
            !(d.knn && d.air_client),
            "{}: knn is a separate facet",
            d.name
        );
        assert_eq!(
            d.reference_cycle.is_some(),
            !d.own_channel,
            "{}: channel-less methods (and only they) quote a reference cycle",
            d.name
        );
        assert_eq!(d.runs_paths(), !d.knn, "{}", d.name);
    }
}

fn tiny_world() -> World {
    let g = small_grid(8, 8, 5);
    let part = KdTreePartition::build(&g, 8);
    let pre = BorderPrecomputation::run(&g, &part);
    let pois: Vec<NodeId> = vec![3, 17, 22, 40, 61];
    World::from_parts(g, part, pre).with_pois(pois)
}

#[test]
fn built_programs_honor_their_capability_flags() {
    let world = tiny_world();
    let reg = MethodRegistry::standard();
    for m in reg.all() {
        let d = m.descriptor();
        let program = reg.method(m).build_program(&world);
        assert_eq!(program.descriptor().name, d.name);
        match program.cycle() {
            Ok(cycle) => {
                assert!(d.own_channel, "{}: cycle despite own_channel=false", d.name);
                assert!(!cycle.is_empty());
            }
            Err(MethodUnavailable::NoOwnChannel { method, reference }) => {
                assert!(!d.own_channel, "{}: typed error on a real cycle", d.name);
                assert_eq!(method, d.name);
                // The harnesses resolve the reference cycle for reports
                // (sim's `reported_cycle_packets` test covers that).
                assert_eq!(Some(reference), d.reference_cycle);
            }
            Err(e) => panic!("{}: unexpected error {e}", d.name),
        }
        match program.make_client(QueuePolicy::default()) {
            Ok(_) => assert!(d.air_client, "{}: client despite air_client=false", d.name),
            Err(MethodUnavailable::NotAirClient(name)) => {
                assert!(!d.air_client, "{}: typed error on a real client", d.name);
                assert_eq!(name, d.name);
            }
            Err(e) => panic!("{}: unexpected error {e}", d.name),
        }
        match program.make_knn_client() {
            Ok(_) => assert!(d.knn, "{}: knn client despite knn=false", d.name),
            Err(MethodUnavailable::NotKnn(name)) => {
                assert!(!d.knn);
                assert_eq!(name, d.name);
            }
            Err(e) => panic!("{}: unexpected error {e}", d.name),
        }
    }
}

#[test]
fn mem_bound_local_answer_is_exact_and_air_methods_have_none() {
    let world = tiny_world();
    let reg = MethodRegistry::standard();
    let g = world.g.clone();
    let q = Query::for_nodes(&g, 0, 63);
    let oracle = dijkstra_distance(&g, 0, 63).unwrap();
    for m in reg.all() {
        let program = reg.method(m).build_program(&world);
        match program.local_answer(&q) {
            Some(res) => {
                assert_eq!(m.name(), "nr_mem_bound");
                assert_eq!(res.unwrap().distance, oracle);
            }
            None => assert_ne!(m.name(), "nr_mem_bound"),
        }
    }
}

/// The registry-proving methods: exact against the oracle over a real
/// channel, from arbitrary offsets, lossless and lossy.
#[test]
fn astar_and_bidi_air_answer_exactly_over_the_channel() {
    let world = tiny_world();
    let reg = MethodRegistry::standard();
    let g = world.g.clone();
    for name in ["astar_air", "bidi_air"] {
        let m = reg.get(name).unwrap();
        let program = reg.method(m).build_program(&world);
        let cycle = program.cycle().unwrap();
        let mut client = program.make_client(QueuePolicy::default()).unwrap();
        for (i, &(s, t)) in [(0u32, 63u32), (7, 56), (12, 50), (63, 0), (5, 5)]
            .iter()
            .enumerate()
        {
            let q = Query::for_nodes(&g, s, t);
            // Lossless from a spread of offsets.
            let mut ch =
                BroadcastChannel::tune_in(cycle, (i * 131) % cycle.len(), LossModel::Lossless);
            let out = client.query(&mut ch, &q).unwrap();
            assert_eq!(
                Some(out.distance),
                dijkstra_distance(&g, s, t),
                "{name} {s}->{t}"
            );
            // Paths must be real walks of the claimed length.
            let mut acc = 0u64;
            for w in out.path.windows(2) {
                acc += g.weight_between(w[0], w[1]).expect("path edge") as u64;
            }
            assert_eq!(acc, out.distance, "{name} path sum");
            assert_eq!(out.path.first(), Some(&s));
            assert_eq!(out.path.last(), Some(&t));
            // Whole-cycle shape: lossless tuning is exactly one cycle.
            if s != t {
                assert_eq!(out.stats.tuning_packets as usize, cycle.len(), "{name}");
            }
            // Lossy: still exact, more tuning.
            let mut ch =
                BroadcastChannel::tune_in(cycle, 3, LossModel::bernoulli(0.08, 42 + i as u64));
            let out = client.query(&mut ch, &q).unwrap();
            assert_eq!(
                Some(out.distance),
                dijkstra_distance(&g, s, t),
                "{name} lossy {s}->{t}"
            );
        }
    }
}

/// Goal-direction sanity: on a geometric grid, A*'s measured bound must
/// not settle more nodes than bidirectional's plain Dijkstra frontier
/// settles in total... both must settle no more than DJ would (the whole
/// node count), and A* strictly fewer than the full graph on a long
/// query.
#[test]
fn new_methods_do_less_work_than_a_full_sweep() {
    let world = tiny_world();
    let reg = MethodRegistry::standard();
    let g = world.g.clone();
    let q = Query::for_nodes(&g, 0, 63);
    for name in ["astar_air", "bidi_air"] {
        let m = reg.get(name).unwrap();
        let program = reg.method(m).build_program(&world);
        let cycle = program.cycle().unwrap();
        let mut client = program.make_client(QueuePolicy::default()).unwrap();
        let mut ch = BroadcastChannel::tune_in(cycle, 0, LossModel::Lossless);
        let out = client.query(&mut ch, &q).unwrap();
        assert!(
            out.stats.settled_nodes <= g.num_nodes() as u64,
            "{name}: settled {} of {}",
            out.stats.settled_nodes,
            g.num_nodes()
        );
        assert!(out.stats.settled_nodes > 0, "{name}");
    }
}
