//! Server-side NR: next-region table construction and cycle assembly.

use crate::netcodec::encode_nodes_with_borders;
use crate::nr::index::{NrLocalIndex, NrOffsetEntry, NO_NEXT};
use crate::precompute::BorderPrecomputation;
use bytes::Bytes;
use spair_broadcast::codec::EncodeError;
use spair_broadcast::cycle::{CycleBuilder, SegmentKind};
use spair_broadcast::packet::PacketKind;
use spair_broadcast::BroadcastCycle;
use spair_partition::{KdTreePartition, Partitioning, RegionId};
use spair_roadnet::RoadNetwork;

/// Client bootstrap info for NR (recoverable from any packet header).
#[derive(Debug, Clone, Copy)]
pub struct NrSummary {
    /// Number of kd regions.
    pub num_regions: usize,
}

/// A fully assembled NR broadcast program.
#[derive(Debug)]
pub struct NrProgram {
    cycle: BroadcastCycle,
    summary: NrSummary,
    index_packets_per_region: Vec<usize>,
}

impl NrProgram {
    /// The broadcast cycle.
    pub fn cycle(&self) -> &BroadcastCycle {
        &self.cycle
    }

    /// Client bootstrap info.
    pub fn summary(&self) -> NrSummary {
        self.summary
    }

    /// Packets of each region's local index.
    pub fn index_packets(&self) -> usize {
        self.index_packets_per_region.iter().sum()
    }
}

/// NR server.
pub struct NrServer<'a> {
    g: &'a RoadNetwork,
    part: &'a KdTreePartition,
    pre: &'a BorderPrecomputation,
}

impl<'a> NrServer<'a> {
    /// Binds the server to its inputs. Precomputation cost is identical to
    /// EB's (the same border-pair shortest paths, §5.2).
    pub fn new(
        g: &'a RoadNetwork,
        part: &'a KdTreePartition,
        pre: &'a BorderPrecomputation,
    ) -> Self {
        assert_eq!(part.num_regions(), pre.num_regions());
        Self { g, part, pre }
    }

    /// Next-region matrix for every viewpoint `m`: cell `(i, j)` of
    /// matrix `m` is the first region at/after `m` in cyclic broadcast
    /// order that is needed for a shortest path from `Ri` to `Rj`. One
    /// sweep over the viewpoints per pair.
    fn next_matrices(&self, needed_lists: &[Vec<RegionId>]) -> Vec<Vec<u16>> {
        let n = self.part.num_regions();
        let mut out = vec![vec![NO_NEXT; n * n]; n];
        for (cell, needed) in needed_lists.iter().enumerate() {
            let Some(&smallest) = needed.first() else {
                continue;
            };
            // First needed >= m, else wrap to the smallest.
            let mut k = 0;
            for (m, matrix) in out.iter_mut().enumerate() {
                while needed.get(k).is_some_and(|&r| (r as usize) < m) {
                    k += 1;
                }
                matrix[cell] = needed.get(k).copied().unwrap_or(smallest);
            }
        }
        out
    }

    /// Assembles the broadcast program: `[A^0][R0][A^1][R1]...`, no (1,m)
    /// replication — the local indexes *are* the replication (§5). Each
    /// region's data is split into its cross-border and local segments
    /// (§4.1), so clients skip the local segments of intermediate regions;
    /// this is what keeps NR's tuning time below EB's in Figure 10a.
    pub fn build_program(&self) -> Result<NrProgram, EncodeError> {
        let n = self.part.num_regions();
        let region_payloads: Vec<(Vec<Bytes>, Vec<Bytes>)> = (0..n)
            .map(|r| {
                let nodes = &self.part.nodes_by_region()[r];
                let (cross, local): (Vec<_>, Vec<_>) = nodes
                    .iter()
                    .copied()
                    .partition(|&v| self.pre.is_cross_border(v));
                let flag = |v| self.pre.borders().is_border(v);
                (
                    encode_nodes_with_borders(self.g, &cross, flag),
                    encode_nodes_with_borders(self.g, &local, flag),
                )
            })
            .collect();

        // Sorted needed-region lists per pair.
        let mut needed_lists: Vec<Vec<RegionId>> = Vec::with_capacity(n * n);
        for i in 0..n as RegionId {
            for j in 0..n as RegionId {
                let set = self.pre.needed_regions(i, j);
                needed_lists.push(set.iter().collect());
            }
        }

        // Each region's next matrix, built once; the index encodes to a
        // fixed width, so one encode with placeholder offsets gives every
        // index's length, and from them the offsets.
        let mut indexes: Vec<NrLocalIndex> = (0..n as RegionId)
            .zip(self.next_matrices(&needed_lists))
            .map(|(m, next)| NrLocalIndex {
                region: m,
                num_regions: n,
                splits: self.part.splits().to_vec(),
                next,
                offsets: vec![
                    NrOffsetEntry {
                        data_offset: 0,
                        cross_packets: 0,
                        local_packets: 0,
                    };
                    n
                ],
            })
            .collect();
        let index_len = indexes
            .first()
            .map_or(Ok(0), |idx| idx.encode().map(|p| p.len()))?;
        let mut offset = 0usize;
        let mut entries = Vec::with_capacity(n);
        for (cross, local) in &region_payloads {
            offset += index_len;
            entries.push(NrOffsetEntry {
                data_offset: offset as u32,
                cross_packets: cross.len() as u16,
                local_packets: local.len() as u16,
            });
            offset += cross.len() + local.len();
        }

        let mut builder = CycleBuilder::new();
        for (m, idx) in indexes.iter_mut().enumerate() {
            idx.offsets.clone_from(&entries);
            let payloads = idx.encode()?;
            assert_eq!(payloads.len(), index_len, "fixed-width encoding");
            builder.push_segment(
                SegmentKind::LocalIndex(m as u16),
                PacketKind::LocalIndex,
                payloads,
            );
            builder.push_segment(
                SegmentKind::RegionData(m as u16),
                PacketKind::Data,
                region_payloads[m].0.clone(),
            );
            builder.push_segment(
                SegmentKind::RegionLocalData(m as u16),
                PacketKind::Data,
                region_payloads[m].1.clone(),
            );
        }
        Ok(NrProgram {
            cycle: builder.finish(),
            summary: NrSummary { num_regions: n },
            index_packets_per_region: vec![index_len; n],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nr::index::{NrIndexDecoder, NrSharedState};
    use spair_roadnet::generators::small_grid;

    fn build(seed: u64, regions: usize) -> (RoadNetwork, NrProgram) {
        let g = small_grid(10, 10, seed);
        let part = KdTreePartition::build(&g, regions);
        let pre = BorderPrecomputation::run(&g, &part);
        let program = NrServer::new(&g, &part, &pre)
            .build_program()
            .expect("encode");
        (g, program)
    }

    #[test]
    fn layout_alternates_index_and_data() {
        let (_, program) = build(1, 8);
        let segs = program.cycle().segments();
        assert_eq!(segs.len(), 24);
        for m in 0..8u16 {
            assert_eq!(segs[3 * m as usize].kind, SegmentKind::LocalIndex(m));
            assert_eq!(segs[3 * m as usize + 1].kind, SegmentKind::RegionData(m));
            assert_eq!(
                segs[3 * m as usize + 2].kind,
                SegmentKind::RegionLocalData(m)
            );
        }
    }

    #[test]
    fn offsets_match_layout() {
        let (_, program) = build(2, 8);
        // Decode local index 0 and verify the offset table against the
        // actual segments.
        let seg = program
            .cycle()
            .find_segment(SegmentKind::LocalIndex(0))
            .unwrap();
        let mut dec = NrIndexDecoder::new();
        let mut shared = NrSharedState::default();
        for off in seg.start..seg.start + seg.len {
            assert!(dec.ingest(program.cycle().packet(off).payload(), &mut shared));
        }
        for r in 0..8u16 {
            let e = shared.offsets[r as usize].unwrap();
            let cross = program
                .cycle()
                .find_segment(SegmentKind::RegionData(r))
                .unwrap();
            let local = program
                .cycle()
                .find_segment(SegmentKind::RegionLocalData(r))
                .unwrap();
            assert_eq!(e.data_offset as usize, cross.start, "region {r}");
            assert_eq!(e.cross_packets as usize, cross.len);
            assert_eq!(e.local_packets as usize, local.len);
            assert_eq!(local.start, cross.start + cross.len, "contiguous");
        }
    }

    #[test]
    fn next_cells_point_to_needed_regions_cyclically() {
        let g = small_grid(10, 10, 5);
        let part = KdTreePartition::build(&g, 8);
        let pre = BorderPrecomputation::run(&g, &part);
        let server = NrServer::new(&g, &part, &pre);
        let mut lists = Vec::new();
        for i in 0..8u16 {
            for j in 0..8u16 {
                lists.push(pre.needed_regions(i, j).iter().collect::<Vec<_>>());
            }
        }
        for (m, mat) in (0..8u16).zip(server.next_matrices(&lists)) {
            for i in 0..8usize {
                for j in 0..8usize {
                    let nxt = mat[i * 8 + j];
                    let needed = &lists[i * 8 + j];
                    assert!(!needed.is_empty());
                    assert!(needed.contains(&nxt));
                    // No needed region lies strictly between m and nxt in
                    // cyclic order.
                    for &r in needed {
                        let dr = (r + 8 - m) % 8;
                        let dn = (nxt + 8 - m) % 8;
                        assert!(dr >= dn, "m={m} pair=({i},{j}): {r} precedes {nxt}");
                    }
                }
            }
        }
    }

    #[test]
    fn nr_overhead_is_local_indexes_only() {
        // NR's cycle = raw region data + the per-region local indexes; no
        // (1,m) replication. (The NR < EB cycle-length relation of Table 1
        // emerges at paper scale, where EB's replicated global matrix
        // outweighs NR's fixed local indexes; the Table 1 experiment
        // demonstrates it.)
        let g = small_grid(12, 12, 7);
        let part = KdTreePartition::build(&g, 16);
        let pre = BorderPrecomputation::run(&g, &part);
        let nr = NrServer::new(&g, &part, &pre)
            .build_program()
            .expect("encode");
        let raw: usize = (0..16u16)
            .map(|r| {
                nr.cycle()
                    .find_segment(SegmentKind::RegionData(r))
                    .unwrap()
                    .len
                    + nr.cycle()
                        .find_segment(SegmentKind::RegionLocalData(r))
                        .unwrap()
                        .len
            })
            .sum();
        assert_eq!(nr.cycle().len(), raw + nr.index_packets());
    }

    /// The encoded cycle, pinned byte for byte on a germany-class map
    /// (64 kd regions, every local index of one fixed width): its packet
    /// count and an FNV-1a digest over every payload.
    #[test]
    fn cycle_bytes_are_pinned_on_a_germany_class_map() {
        let g = spair_roadnet::NetworkPreset::Germany
            .config_for_nodes(7, 3_000)
            .generate();
        let part = KdTreePartition::build(&g, 64);
        let pre = BorderPrecomputation::run(&g, &part);
        let program = NrServer::new(&g, &part, &pre)
            .build_program()
            .expect("encode");
        let cycle = program.cycle();
        let mut digest = spair_roadnet::certify::Fnv1a::default();
        for i in 0..cycle.len() {
            digest.write(cycle.packet(i).payload());
        }
        assert_eq!(
            (cycle.len(), digest.finish()),
            (5_767, 0x32de_bc61_adc3_4fa9)
        );
    }
}
