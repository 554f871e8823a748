//! A* on air: goal-directed search over the received network.
//!
//! Same broadcast program as DJ — the raw network data, the shortest
//! possible cycle — and the same received store, but the client searches
//! it with A* ([`ReceivedGraph::search`] under a lower bound) instead of
//! Dijkstra, with a geometric lower bound derived **from the received
//! data itself**: the paper dismisses a-priori A* bounds for road
//! networks (§2.1), yet once the whole network is on the device the
//! client can *measure* the tightest admissible scale factor
//!
//! ```text
//! c = min over received edges e with |e| > 0 of w(e) / |e|
//! ```
//!
//! and use `h(v) = max(ceil(c · |v, target|) - 1, 0)`. The `- 1` outside
//! the ceiling absorbs integer rounding: `h(v) - h(u) =
//! ceil(c·|v,t|) - ceil(c·|u,t|) ≤ ceil(c·|v,u|) ≤ w(v,u)` (triangle
//! inequality, then `c·|v,u| ≤ w`), so the bound is *consistent* — A*
//! settles each node once and stays exact — and admissible
//! (`ceil(x) - 1 ≤ x`, and `c·|v,t| ≤ d(v, t)` along any path). An
//! earlier form used `(w - 1) / |e|` with a floor, which is also
//! consistent but collapses to `c = 0` — plain Dijkstra — the moment any
//! received edge has weight 1, precisely the short unit-ish edges road
//! networks are full of. On truly adversarial weights (a zero-weight
//! edge) `c` still degrades to 0 and the search degenerates to plain
//! Dijkstra, still exact.
//!
//! Tuning time, latency and memory are DJ's (the whole cycle either way,
//! into the same store with the same search scratch); the win is client
//! CPU — fewer settled nodes per query.

use crate::{
    BroadcastMethod, ClientBootstrap, MethodDescriptor, MethodProgram, MethodUnavailable,
    SessionShape, World,
};
use spair_baselines::dj::receive_network_data;
use spair_baselines::{DjProgram, DjServer};
use spair_broadcast::{Air, BroadcastCycle, CpuMeter, MemoryMeter, QueryStats};
use spair_core::netcodec::ReceivedGraph;
use spair_core::patch::{ClientArena, Coverage};
use spair_core::query::{AirClient, Query, QueryError, QueryOutcome};
use spair_roadnet::{Distance, Point};
use std::ops::ControlFlow;

/// The A*-on-air descriptor.
pub const DESCRIPTOR: MethodDescriptor = MethodDescriptor {
    name: "astar_air",
    label: "A*",
    ordinal: 9,
    shape: Some(SessionShape::WholeCycle),
    air_client: true,
    knn: false,
    on_edge: true,
    own_channel: true,
    population_replayable: true,
    patches_incrementally: true,
    reference_cycle: None,
};

/// The A*-on-air method.
pub struct AstarAir;

/// A*'s built program (DJ's data-only cycle).
pub struct AstarMethodProgram {
    program: DjProgram,
}

impl MethodProgram for AstarMethodProgram {
    fn descriptor(&self) -> &'static MethodDescriptor {
        &DESCRIPTOR
    }

    fn cycle(&self) -> Result<&BroadcastCycle, MethodUnavailable> {
        Ok(self.program.cycle())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

impl BroadcastMethod for AstarAir {
    fn descriptor(&self) -> &'static MethodDescriptor {
        &DESCRIPTOR
    }

    fn build_program(&self, world: &World) -> Box<dyn MethodProgram> {
        Box::new(AstarMethodProgram {
            program: DjServer::new(&world.g).build_program(),
        })
    }

    fn make_remote_client(
        &self,
        _bootstrap: &ClientBootstrap,
    ) -> Result<Box<dyn AirClient>, MethodUnavailable> {
        Ok(Box::new(AstarAirClient::default()))
    }
}

/// The measured geometric bound: `max(ceil(c · euclid(v, target)) - 1, 0)`.
struct MeasuredBound {
    c: f64,
    target_pt: Point,
}

impl MeasuredBound {
    /// Measures the scale factor over the received edges between
    /// received nodes. The safety shrink counters f64 round-off in the
    /// ratio computation and keeps the ceiling-based bound strictly
    /// inside its consistency margin; the `- 1` lives in [`Self::at`],
    /// not here, so weight-1 edges no longer zero the factor.
    fn measure(store: &ReceivedGraph) -> f64 {
        let mut c = f64::INFINITY;
        for v in store.node_ids() {
            let pv = store.point(v).expect("listed node");
            for &(u, w) in store.out_edges(v) {
                let Some(pu) = store.point(u) else { continue };
                let d = pv.euclidean(&pu);
                if d > 1e-12 {
                    c = c.min(w as f64 / d);
                }
            }
        }
        if c.is_finite() {
            (c * (1.0 - 1e-6)).max(0.0)
        } else {
            0.0
        }
    }

    /// The bound at a received node's position.
    fn at(&self, p: Point) -> Distance {
        let x = self.c * p.euclidean(&self.target_pt);
        (x.ceil() as Distance).saturating_sub(1)
    }
}

/// The A*-on-air client.
#[derive(Default)]
struct AstarAirClient {
    /// Reusable receive/search arenas (cleared per session).
    store: ReceivedGraph,
}

impl AirClient for AstarAirClient {
    fn method_name(&self) -> &'static str {
        "A*-air"
    }

    fn query(&mut self, ch: &mut dyn Air, q: &Query) -> Result<QueryOutcome, QueryError> {
        let mut mem = MemoryMeter::new();
        let mut cpu = CpuMeter::new();
        if q.source == q.target {
            return Ok(QueryOutcome {
                distance: 0,
                path: vec![q.source],
                stats: QueryStats::default(),
            });
        }
        let store = &mut self.store;
        receive_network_data(ch, &mut mem, store)?;
        let Some(target_pt) = store.point(q.target).filter(|_| store.contains(q.source)) else {
            return Err(QueryError::Unreachable);
        };
        mem.alloc(store.num_nodes() * 24);
        let (res, settled, _) = cpu.time(|| {
            let bound = MeasuredBound {
                c: MeasuredBound::measure(store),
                target_pt,
            };
            // A slot only referenced as an edge target is a dead end
            // here; 0 bounds it admissibly.
            store.search(
                q.source,
                Some(q.target),
                |_, p| p.map_or(0, |p| bound.at(p)),
                |_, _| true,
                |_, _, _| ControlFlow::Continue(()),
            )
        });
        let stats = QueryStats {
            tuning_packets: ch.tuned(),
            latency_packets: ch.elapsed(),
            sleep_packets: ch.slept(),
            peak_memory_bytes: mem.peak(),
            cpu: cpu.total(),
            settled_nodes: settled as u64,
        };
        match res {
            Some((distance, path)) => Ok(QueryOutcome {
                distance,
                path,
                stats,
            }),
            None => Err(QueryError::Unreachable),
        }
    }

    fn export_arena(&mut self) -> Option<ClientArena> {
        Some(ClientArena {
            store: std::mem::take(&mut self.store),
            coverage: Coverage::Whole,
        })
    }
}
