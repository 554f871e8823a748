//! Seeded deterministic traffic: how a world's edge weights evolve
//! across broadcast cycle versions.
//!
//! Dynamic-world runs need reproducible weight histories: every weight at
//! every version is a **pure function of (traffic spec, seed, version,
//! edge, base weight)** — no mutable state, no draw order. Version 0 is
//! always the unperturbed base network, so a dynamic scenario's first
//! cycle is byte-identical to the static engine's.
//!
//! Two effects compose, mirroring what road-traffic feeds actually emit:
//!
//! * **Rush-hour ramps** — a per-edge phase-shifted integer triangle wave
//!   raises each weight by up to `ramp_amplitude_pct` percent over a
//!   `ramp_period`-version cycle (congestion builds, peaks, drains);
//! * **Incident spikes** — with `incident_rate_ppm` probability per
//!   (edge, version), the ramped weight is multiplied by
//!   `incident_multiplier` for exactly that version (a crash on the
//!   segment, cleared by the next cycle).
//!
//! Weights never drop below 1, so every versioned network keeps the
//! invariants the search stack assumes.

use spair_broadcast::splitmix64;
use spair_core::patch::WeightDelta;
use spair_partition::{KdTreePartition, Partitioning, RegionId};
use spair_roadnet::{NodeId, RoadNetwork, Weight};
use std::collections::BTreeMap;

/// How a dynamic world's weights evolve. All parameters are integers so
/// the model is exactly reproducible on any host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficSpec {
    /// Peak rush-hour weight increase, in percent of the base weight.
    pub ramp_amplitude_pct: u32,
    /// Versions per full rush-hour build-peak-drain cycle (`>= 2`).
    pub ramp_period: u32,
    /// Per-(edge, version) incident probability, in parts per million.
    pub incident_rate_ppm: u32,
    /// Weight multiplier while an incident lasts (one version).
    pub incident_multiplier: u32,
}

impl TrafficSpec {
    /// Pure rush-hour ramps, no incidents.
    pub fn rush_hour() -> Self {
        Self {
            ramp_amplitude_pct: 40,
            ramp_period: 6,
            incident_rate_ppm: 0,
            incident_multiplier: 1,
        }
    }

    /// Moderate ramps plus occasional incident spikes.
    pub fn incidents() -> Self {
        Self {
            ramp_amplitude_pct: 25,
            ramp_period: 8,
            incident_rate_ppm: 20_000,
            incident_multiplier: 4,
        }
    }

    /// The nightly stress model: steep fast ramps and frequent, severe
    /// incidents.
    pub fn harsh() -> Self {
        Self {
            ramp_amplitude_pct: 60,
            ramp_period: 4,
            incident_rate_ppm: 50_000,
            incident_multiplier: 6,
        }
    }

    /// Short label for reports.
    pub fn label(&self) -> String {
        format!(
            "ramp{}%p{}+inc{}ppm×{}",
            self.ramp_amplitude_pct,
            self.ramp_period,
            self.incident_rate_ppm,
            self.incident_multiplier
        )
    }
}

/// The per-edge hash every draw derives from: stable in (seed, edge),
/// independent of version.
fn edge_hash(seed: u64, from: NodeId, to: NodeId) -> u64 {
    splitmix64(seed ^ 0xD1_4A11C ^ ((u64::from(from) << 32) | u64::from(to)))
}

/// The weight of edge `from -> to` at `version`, given its base (version
/// 0) weight. Pure in every argument; version 0 returns the base
/// unchanged (clamped to 1, which generated networks already satisfy).
pub fn weight_at(
    spec: &TrafficSpec,
    seed: u64,
    version: u32,
    from: NodeId,
    to: NodeId,
    base: Weight,
) -> Weight {
    let base = base.max(1);
    if version == 0 {
        return base;
    }
    let h = edge_hash(seed, from, to);
    let period = spec.ramp_period.max(2);
    let half = period / 2;
    let mut w = u64::from(base);
    if spec.ramp_amplitude_pct > 0 && half > 0 {
        // Integer triangle wave 0..=half..0 over `period` versions, with a
        // per-edge phase so the whole network never peaks in lockstep.
        let phase = (h % u64::from(period)) as u32;
        let pos = (version.wrapping_add(phase)) % period;
        let tri = u64::from(if pos <= half { pos } else { period - pos });
        w += (u64::from(base) * u64::from(spec.ramp_amplitude_pct) * tri) / (100 * u64::from(half));
    }
    if spec.incident_rate_ppm > 0 {
        let draw = splitmix64(h ^ (u64::from(version) << 20) ^ 0x1AC1_D3A7) % 1_000_000;
        if draw < u64::from(spec.incident_rate_ppm) {
            w = w.saturating_mul(u64::from(spec.incident_multiplier.max(1)));
        }
    }
    w.clamp(1, u64::from(Weight::MAX)) as Weight
}

/// The whole network at `version`: identical topology and coordinates to
/// `g0` (so partitions built on coordinates are version-invariant), every
/// weight run through [`weight_at`].
pub fn network_at(g0: &RoadNetwork, spec: &TrafficSpec, seed: u64, version: u32) -> RoadNetwork {
    let n = g0.num_nodes();
    let mut offsets = Vec::with_capacity(n + 1);
    let mut targets: Vec<NodeId> = Vec::new();
    let mut weights: Vec<Weight> = Vec::new();
    offsets.push(0u32);
    for v in g0.node_ids() {
        for (u, w) in g0.out_edges(v) {
            targets.push(u);
            weights.push(weight_at(spec, seed, version, v, u, w));
        }
        offsets.push(targets.len() as u32);
    }
    RoadNetwork::from_csr(g0.points().to_vec(), offsets, targets, weights)
}

/// The server-side delta between `version - 1` and `version`, grouped by
/// `region_of(from)` in ascending region order — exactly the groups
/// [`spair_core::patch::build_patch_cycle`] broadcasts, so a client
/// holding a region's nodes covers every materialized edge by listening
/// to that region's patch segment.
pub fn version_deltas(
    g0: &RoadNetwork,
    part: &KdTreePartition,
    spec: &TrafficSpec,
    seed: u64,
    version: u32,
) -> Vec<(RegionId, Vec<WeightDelta>)> {
    assert!(version >= 1, "version 0 is the base network");
    let mut groups: BTreeMap<RegionId, Vec<WeightDelta>> = BTreeMap::new();
    for v in g0.node_ids() {
        for (u, w) in g0.out_edges(v) {
            let prev = weight_at(spec, seed, version - 1, v, u, w);
            let next = weight_at(spec, seed, version, v, u, w);
            if prev != next {
                groups
                    .entry(part.region_of(v))
                    .or_default()
                    .push(WeightDelta {
                        from: v,
                        to: u,
                        weight: next,
                    });
            }
        }
    }
    groups.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spair_roadnet::generators::small_grid;

    #[test]
    fn version_zero_is_the_base_network() {
        let g = small_grid(10, 10, 3);
        let spec = TrafficSpec::harsh();
        let g0 = network_at(&g, &spec, 99, 0);
        for v in g.node_ids() {
            let a: Vec<_> = g.out_edges(v).collect();
            let b: Vec<_> = g0.out_edges(v).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn weights_are_pure_and_version_dependent() {
        let spec = TrafficSpec::incidents();
        let a = weight_at(&spec, 7, 3, 10, 11, 40);
        let b = weight_at(&spec, 7, 3, 10, 11, 40);
        assert_eq!(a, b, "same coordinates, same draw");
        let g = small_grid(8, 8, 5);
        let changed = g.node_ids().any(|v| {
            g.out_edges(v)
                .any(|(u, w)| weight_at(&spec, 7, 3, v, u, w) != w)
        });
        assert!(changed, "a 25% ramp must move some weight by version 3");
    }

    #[test]
    fn weights_never_drop_below_one() {
        let spec = TrafficSpec::harsh();
        for version in 0..16 {
            for (from, to) in [(0u32, 1u32), (5, 9), (1000, 2)] {
                assert!(weight_at(&spec, 1, version, from, to, 1) >= 1);
            }
        }
    }

    #[test]
    fn network_at_preserves_topology_and_coordinates() {
        let g = small_grid(9, 9, 2);
        let spec = TrafficSpec::rush_hour();
        let gv = network_at(&g, &spec, 42, 3);
        assert_eq!(gv.num_nodes(), g.num_nodes());
        assert_eq!(gv.points(), g.points());
        for v in g.node_ids() {
            let base: Vec<NodeId> = g.out_edges(v).map(|(u, _)| u).collect();
            let vers: Vec<NodeId> = gv.out_edges(v).map(|(u, _)| u).collect();
            assert_eq!(base, vers, "targets and their order are invariant");
        }
    }

    #[test]
    fn version_deltas_reproduce_the_versioned_network() {
        let g = small_grid(10, 10, 8);
        let part = KdTreePartition::build(&g, 8);
        let spec = TrafficSpec::incidents();
        for version in 1..4u32 {
            let deltas = version_deltas(&g, &part, &spec, 21, version);
            // Regions ascend and every delta sits in its from-region.
            let mut last = None;
            for (r, ds) in &deltas {
                assert!(last < Some(*r));
                last = Some(*r);
                assert!(!ds.is_empty());
                for d in ds {
                    assert_eq!(part.region_of(d.from), *r);
                }
            }
            // Applying the deltas to version - 1 yields exactly version.
            let mut w_prev: BTreeMap<(NodeId, NodeId), Weight> = BTreeMap::new();
            let gp = network_at(&g, &spec, 21, version - 1);
            for v in gp.node_ids() {
                for (u, w) in gp.out_edges(v) {
                    w_prev.insert((v, u), w);
                }
            }
            for (_, ds) in &deltas {
                for d in ds {
                    w_prev.insert((d.from, d.to), d.weight);
                }
            }
            let gn = network_at(&g, &spec, 21, version);
            for v in gn.node_ids() {
                for (u, w) in gn.out_edges(v) {
                    assert_eq!(w_prev.get(&(v, u)), Some(&w));
                }
            }
        }
    }
}
