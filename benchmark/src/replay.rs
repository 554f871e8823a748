//! Layer replays over one real cycle of the workload's world.
//!
//! Each replay repeats one layer's public call over every packet (or
//! delta, or query) of a real cycle until a minimum time has passed,
//! inside one span whose count is the items processed; the metric is
//! span time per item. The cycle is the DJ program of the workload's
//! network (every node's adjacency, data packets only), so the same
//! layers are measured on every workload at that workload's scale.

use crate::report::Report;
use crate::run::Run;
use crate::trace::Tracer;
use crate::world::{answer_ok, reweight, splitmix64, Case, Rng};
use spair_baselines::{DjClient, DjServer};
use spair_broadcast::{BroadcastChannel, LossModel, SegmentKind};
use spair_core::eb::index::EbIndexDecoder;
use spair_core::netcodec::{decode_payload, ReceivedGraph};
use spair_core::patch::{build_patch_cycle, receive_patch, Coverage};
use spair_core::query::AirClient;
use spair_core::EbServer;
use spair_methods::World;
use spair_roadnet::QueuePolicy;
use spair_serve::frame::{self, DataFrame, Frame};
use std::hint::black_box;
use std::time::Instant;

/// Repeats `lap` (which returns the items it processed) inside one span
/// until `min_s` has passed (at least twice); returns seconds per item.
fn replay(spans: &mut Tracer, name: &'static str, min_s: f64, mut lap: impl FnMut() -> u64) -> f64 {
    let id = spans.begin(name, "replay", None);
    let t = Instant::now();
    let mut items = 0u64;
    let mut laps = 0;
    while laps < 2 || t.elapsed().as_secs_f64() < min_s {
        items += lap();
        laps += 1;
    }
    let secs = t.elapsed().as_secs_f64();
    spans.end(id, items);
    secs / items.max(1) as f64
}

/// Runs every replay and reports its per-layer metric; returns the
/// number of replayed answers that contradicted their oracle.
pub fn run(
    run: &Run,
    world: &World,
    pool: &[Case],
    spans: &mut Tracer,
    report: &mut Report,
) -> Result<u64, String> {
    let g = world.g.as_ref();
    let min_s = if run.smoke { 0.01 } else { 0.15 };
    let mut wrong = 0u64;

    let program = DjServer::new(g).build_program();
    let cycle = program.cycle();
    let len = cycle.len();
    let payloads: Vec<&[u8]> = (0..len).map(|i| &cycle.packet(i).payload()[..]).collect();

    let receive = replay(spans, "broadcast.receive", min_s, || {
        let mut ch = BroadcastChannel::tune_in(cycle, 0, LossModel::Lossless);
        for _ in 0..len {
            black_box(ch.receive());
        }
        len as u64
    });
    report.put("broadcast.receive_ns_per_packet", receive * 1e9, "ns");

    let decode = replay(spans, "core.netcodec.decode", min_s, || {
        for p in &payloads {
            black_box(decode_payload(p));
        }
        len as u64
    });
    report.put("core.netcodec.decode_ns_per_packet", decode * 1e9, "ns");

    let mut store = ReceivedGraph::new();
    let ingest = replay(spans, "core.netcodec.ingest", min_s, || {
        store.clear();
        for p in &payloads {
            black_box(store.ingest_payload(p));
        }
        len as u64
    });
    report.put("core.netcodec.ingest_ns_per_packet", ingest * 1e9, "ns");

    let mut checked = false;
    let search = replay(spans, "core.netcodec.search", min_s, || {
        for c in pool {
            let (res, _) =
                store.shortest_path_with(c.query.source, c.query.target, QueuePolicy::default());
            if !checked && !res.is_some_and(|(d, path)| answer_ok(g, c, d, &path)) {
                wrong += 1;
            }
        }
        checked = true;
        pool.len() as u64
    });
    report.put("core.netcodec.search_ms_per_query", search * 1e3, "ms");

    // Whole DJ sessions on the same cycle: the parts above should add up
    // to them (receive + fused decode/ingest of every packet + search).
    let mut client = DjClient::new().with_queue_policy(QueuePolicy::default());
    let mut k = 0u64;
    let session = replay(spans, "client.dj_session", min_s, || {
        let c = &pool[k as usize % pool.len()];
        let offset = (splitmix64(run.seed ^ k) % len as u64) as usize;
        let mut ch = BroadcastChannel::tune_in(cycle, offset, LossModel::Lossless);
        match client.query(&mut ch, &c.query) {
            Ok(out) if answer_ok(g, c, out.distance, &out.path) => {}
            _ => wrong += 1,
        }
        k += 1;
        1
    });
    let parts = (receive + ingest) * len as f64 + search;
    report.put("client.dj_session_ms", session * 1e3, "ms");
    report.put("client.attributed_frac.dj", parts / session, "share");

    let eb = EbServer::new(g, &world.part, &world.pre)
        .build_program()
        .map_err(|e| e.to_string())?;
    let seg = eb
        .cycle()
        .find_segment(SegmentKind::GlobalIndex)
        .ok_or("the EB cycle carries no index copy")?;
    let index_ingest = replay(spans, "core.eb.index_ingest", min_s, || {
        let mut dec = EbIndexDecoder::new();
        for i in seg.start..seg.start + seg.len {
            black_box(dec.ingest(eb.cycle().packet(i).payload()));
        }
        seg.len as u64
    });
    report.put(
        "core.eb.index_ingest_ns_per_packet",
        index_ingest * 1e9,
        "ns",
    );

    let (_, deltas) = reweight(
        g,
        &world.part,
        &mut Rng::new(run.seed, 7),
        crate::updates::REWEIGHT_PERMILLE,
    );
    let delta_count: usize = deltas.iter().map(|(_, d)| d.len()).sum();
    let build = replay(spans, "core.patch.build", min_s, || {
        black_box(build_patch_cycle(1, 0, &deltas));
        1
    });
    report.put("core.patch.build_ms", build * 1e3, "ms");
    report.put("core.patch.deltas", delta_count as f64, "count");

    let patch = build_patch_cycle(1, 0, &deltas);
    let mut patch_err = None;
    let receive_patch_s = replay(spans, "core.patch.receive", min_s, || {
        let mut ch = BroadcastChannel::tune_in(&patch, 0, LossModel::Lossless);
        if let Err(e) = receive_patch(&mut ch, 0, &Coverage::Whole, &mut store) {
            patch_err = Some(e.to_string());
        }
        1
    });
    if let Some(e) = patch_err {
        return Err(format!("patch replay failed: {e}"));
    }
    report.put("core.patch.receive_ms", receive_patch_s * 1e3, "ms");

    let apply = replay(spans, "core.netcodec.apply_weight", min_s, || {
        for (_, ds) in &deltas {
            for d in ds {
                black_box(store.apply_weight(d.from, d.to, d.weight));
            }
        }
        delta_count as u64
    });
    report.put("core.netcodec.apply_ns_per_delta", apply * 1e9, "ns");

    let data_frame = |i: usize| {
        Frame::Data(DataFrame {
            session: 1,
            slot: i as u64,
            packet: cycle.packet(i).clone(),
        })
    };
    let encode = replay(spans, "serve.frame_encode", min_s, || {
        for i in 0..len {
            black_box(frame::encode(&data_frame(i)));
        }
        len as u64
    });
    report.put("serve.frame_encode_ns", encode * 1e9, "ns");
    let bodies: Vec<Vec<u8>> = (0..len).map(|i| frame::encode(&data_frame(i))).collect();
    let mut bad = 0u64;
    let decode_frames = replay(spans, "serve.frame_decode", min_s, || {
        for b in &bodies {
            if black_box(frame::decode(b)).is_err() {
                bad += 1;
            }
        }
        len as u64
    });
    if bad > 0 {
        return Err(format!("{bad} replayed frames failed to decode"));
    }
    report.put("serve.frame_decode_ns", decode_frames * 1e9, "ns");
    Ok(wrong)
}
