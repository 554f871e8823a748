//! Panic audit at the socket boundary: whatever bytes arrive — random,
//! truncated, corrupted, duplicated, reordered, rechunked — the frame
//! layer either produces a frame or a typed [`FrameError`]. It never
//! panics and never half-ingests.

use proptest::prelude::*;
use spair_broadcast::{Packet, PacketKind, PAYLOAD_CAPACITY};
use spair_serve::frame::{
    self, decode, decode_datagram, encode, encode_stream, encode_stream_into, split_run, Close,
    CloseReason, DataFrame, DataRun, DataTail, Datagram, Frame, Hello, StreamDecoder,
    DATAGRAM_FRAMES, DATA_FRAME, DATA_SEGMENT, MAX_DATAGRAM,
};

/// A packet of any kind with a payload of 0 to [`PAYLOAD_CAPACITY`]
/// bytes.
fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        0u8..=4,
        prop_oneof![Just(0u32), Just(u32::MAX), any::<u32>()],
        proptest::collection::vec(any::<u8>(), 0..=PAYLOAD_CAPACITY),
    )
        .prop_map(|(kind, next, payload)| {
            Packet::new(
                PacketKind::from_u8(kind).unwrap(),
                next,
                bytes::Bytes::from(payload),
            )
        })
}

/// A data frame's packet, session and slot, the extremes included.
fn arb_data() -> impl Strategy<Value = (Packet, u32, u64)> {
    (
        arb_packet(),
        prop_oneof![Just(0u32), Just(u32::MAX), any::<u32>()],
        prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>()],
    )
}

fn data_frame((packet, session, slot): &(Packet, u32, u64)) -> Frame {
    Frame::Data(DataFrame {
        session: *session,
        slot: *slot,
        packet: packet.clone(),
    })
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    prop_oneof![
        arb_data().prop_map(|d| data_frame(&d)),
        (
            proptest::collection::vec(b'a'..=b'z', 0..24)
                .prop_map(|v| String::from_utf8(v).unwrap()),
            0u8..=1,
            any::<u16>(),
            any::<u64>()
        )
            .prop_map(|(method, transport, udp_port, offset)| {
                Frame::Hello(Hello {
                    method,
                    transport,
                    udp_port,
                    offset,
                })
            }),
        (any::<u32>(), 0u8..=4, any::<u64>(), any::<u32>()).prop_map(
            |(session, reason, drops, laps)| {
                Frame::Close(Close {
                    session,
                    reason: CloseReason::from_u8(reason).unwrap(),
                    drops,
                    laps,
                })
            }
        ),
        (0u8..=4).prop_map(|r| Frame::Reject(frame::RejectReason::from_u8(r))),
    ]
}

/// Packs `frames` in order with [`Datagram::push`] into as few
/// datagrams as the cap allows, one datagram at a time.
fn pack(frames: &[Frame]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut d = Datagram::new();
    for f in frames {
        if !d.push(f) {
            out.push(d.as_bytes().to_vec());
            d.clear();
            assert!(d.push(f), "a frame fits an empty datagram");
        }
    }
    if !d.is_empty() {
        out.push(d.as_bytes().to_vec());
    }
    out
}

/// The data frames of `data` stamped from their tails into one run.
fn run_of(data: &[(Packet, u32, u64)]) -> DataRun {
    let mut run = DataRun::new();
    for (packet, session, slot) in data {
        run.push_data(&DataTail::new(packet), *session, *slot);
    }
    run
}

/// Frames compare by their encoding (`Frame` holds packets, which have
/// no equality of their own).
fn bodies(frames: &[Frame]) -> Vec<Vec<u8>> {
    frames.iter().map(encode).collect()
}

proptest! {
    /// Arbitrary datagrams never panic the decoder; every outcome is a
    /// frame or a typed error.
    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
        match decode(&bytes) {
            Ok(_) | Err(_) => {}
        }
    }

    /// Valid frames round-trip; any strict prefix (a truncated
    /// datagram) is a typed error, never a misparse.
    #[test]
    fn truncation_is_typed(f in arb_frame(), cut in 0usize..100) {
        let body = encode(&f);
        prop_assert!(decode(&body).is_ok());
        if cut > 0 && cut <= body.len() {
            let truncated = &body[..body.len() - cut.min(body.len())];
            if truncated.len() < body.len() {
                prop_assert!(decode(truncated).is_err(), "truncated frame decoded");
            }
        }
    }

    /// Single-byte corruption anywhere in the body is caught (by the
    /// CRC tail, or by a bounds check before it).
    #[test]
    fn corruption_is_typed(f in arb_frame(), pos in 0usize..200, flip in 1u8..=255) {
        let mut body = encode(&f);
        let n = body.len();
        body[pos % n] ^= flip;
        prop_assert!(decode(&body).is_err(), "corrupted frame decoded");
    }

    /// A TCP stream of valid frames reassembles identically no matter
    /// how the bytes are chunked, and duplicated frames simply appear
    /// twice — no state is torn across chunk boundaries.
    #[test]
    fn stream_chunking_is_invisible(
        frames in proptest::collection::vec(arb_frame(), 1..8),
        dup in any::<bool>(),
        chunk in 1usize..64,
    ) {
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&encode_stream(f));
            if dup {
                wire.extend_from_slice(&encode_stream(f));
            }
        }
        let mut dec = StreamDecoder::new();
        let mut out = 0usize;
        for c in wire.chunks(chunk) {
            dec.push(c);
            while let Some(_f) = dec.next_frame().expect("valid stream") {
                out += 1;
            }
        }
        prop_assert_eq!(out, frames.len() * if dup { 2 } else { 1 });
        prop_assert_eq!(dec.pending(), 0);
    }

    /// Garbage on the stream surfaces as a typed error and poisons the
    /// decoder — it never panics and never resynchronizes by guessing.
    #[test]
    fn stream_garbage_is_typed(bytes in proptest::collection::vec(any::<u8>(), 2..512)) {
        let mut dec = StreamDecoder::new();
        dec.push(&bytes);
        let mut first_err = None;
        for _ in 0..bytes.len() + 1 {
            match dec.next_frame() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(e) => { first_err = Some(e); break; }
            }
        }
        if first_err.is_some() {
            // Poisoned: even a valid frame afterwards is refused.
            dec.push(&encode_stream(&Frame::Reject(frame::RejectReason::Protocol)));
            prop_assert!(dec.next_frame().is_err());
        }
    }

    /// A datagram of arbitrary frames decodes to exactly those frames,
    /// in order.
    #[test]
    fn datagram_carries_its_frames_in_order(frames in proptest::collection::vec(arb_frame(), 1..12)) {
        let mut decoded = Vec::new();
        for dgram in pack(&frames) {
            for f in decode_datagram(&dgram) {
                decoded.push(f.expect("packed frame decodes"));
            }
        }
        prop_assert_eq!(bodies(&decoded), bodies(&frames));
    }

    /// No packed datagram exceeds the cap, none is empty, and packing
    /// never loses or invents a frame.
    #[test]
    fn no_datagram_exceeds_the_cap(frames in proptest::collection::vec(arb_frame(), 1..40)) {
        let dgrams = pack(&frames);
        let mut count = 0;
        for d in &dgrams {
            prop_assert!(!d.is_empty() && d.len() <= MAX_DATAGRAM, "datagram of {} bytes", d.len());
            count += decode_datagram(d).count();
        }
        prop_assert_eq!(count, frames.len());
    }

    /// A truncated or bit-flipped datagram never panics the decoder. It
    /// surfaces only the intact frames before the damage, in order, and
    /// types the damaged frame as the datagram's last item.
    #[test]
    fn damaged_datagrams_surface_only_sent_frames(
        frames in proptest::collection::vec(arb_frame(), 1..10),
        truncate in any::<bool>(),
        at in 0usize..2048,
        flip in 1u8..=255,
    ) {
        let dgram = pack(&frames).swap_remove(0);
        let sent = decode_datagram(&dgram).count();
        // Where each frame ends in the datagram.
        let ends: Vec<usize> = frames[..sent]
            .iter()
            .scan(0, |end, f| {
                *end += 2 + encode(f).len();
                Some(*end)
            })
            .collect();
        let pos = at % dgram.len();
        let damaged = if truncate {
            dgram[..pos].to_vec()
        } else {
            let mut d = dgram.clone();
            d[pos] ^= flip;
            d
        };
        // Frames wholly before the damage survive. A cut exactly at a
        // frame boundary leaves nothing to type, except that an empty
        // datagram is itself typed.
        let intact = ends.iter().filter(|&&e| e <= pos).count();
        let typed = !truncate || pos == 0 || !ends.contains(&pos);
        let out: Vec<_> = decode_datagram(&damaged).collect();
        let ok: Vec<Frame> = out.iter().filter_map(|r| r.as_ref().ok().cloned()).collect();
        prop_assert_eq!(bodies(&ok), bodies(&frames[..intact]));
        prop_assert_eq!(out.len(), intact + usize::from(typed));
        if typed {
            prop_assert!(out.last().unwrap().is_err(), "damage must end the datagram typed");
        }
    }

    /// Datagrams decode independently: delivered in any order, each one
    /// still yields exactly its own frames, in order — a datagram
    /// carries no state into the next.
    #[test]
    fn datagram_reordering_is_harmless(
        frames in proptest::collection::vec(arb_frame(), 2..30),
        rot in 0usize..10,
    ) {
        // Pack in order, remembering which frames went into each datagram.
        let mut groups: Vec<(Vec<u8>, Vec<Vec<u8>>)> = Vec::new();
        let mut start = 0;
        for dgram in pack(&frames) {
            let n = decode_datagram(&dgram).count();
            groups.push((dgram, bodies(&frames[start..start + n])));
            start += n;
        }
        let n = groups.len();
        groups.rotate_left(rot % n);
        for (dgram, expected) in &groups {
            let got: Vec<Frame> = decode_datagram(dgram)
                .map(|f| f.expect("intact datagram"))
                .collect();
            prop_assert_eq!(&bodies(&got), expected);
        }
    }

    /// A data frame stamped from its encoded tail is byte for byte the
    /// codec's, appended after whatever the buffer held, and decodes
    /// back to the same session, slot and packet.
    #[test]
    fn encoded_data_frames_match_the_codec(
        data in arb_data(),
        lead in proptest::collection::vec(any::<u8>(), 0..4),
    ) {
        let (packet, session, slot) = &data;
        let mut oracle = lead.clone();
        encode_stream_into(&data_frame(&data), &mut oracle);
        let mut stamped = lead.clone();
        DataTail::new(packet).stream_into(*session, *slot, &mut stamped);
        prop_assert_eq!(&stamped, &oracle);
        match decode(&stamped[lead.len() + 2..]) {
            Ok(Frame::Data(d)) => {
                prop_assert_eq!((d.session, d.slot), (*session, *slot));
                prop_assert_eq!(d.packet.kind(), packet.kind());
                prop_assert_eq!(d.packet.next_index(), packet.next_index());
                prop_assert_eq!(d.packet.payload(), packet.payload());
            }
            other => prop_assert!(false, "stamped frame decoded to {:?}", other),
        }
    }

    /// A run of data frames stamped from their tails, split at its
    /// segment size, is byte for byte the datagrams `Datagram::push`
    /// packs from the same frames one datagram at a time: each at most
    /// [`MAX_DATAGRAM`] bytes, carrying the same frames in order.
    #[test]
    fn a_run_split_at_its_segment_size_is_the_datagrams_sent_one_by_one(
        data in proptest::collection::vec(arb_data(), 1..40),
    ) {
        let frames: Vec<Frame> = data.iter().map(data_frame).collect();
        let run = run_of(&data);
        prop_assert_eq!(run.frames(), data.len());
        let split: Vec<Vec<u8>> = split_run(run.as_bytes(), DATA_SEGMENT)
            .map(<[u8]>::to_vec)
            .collect();
        for d in &split {
            prop_assert!(d.len() <= MAX_DATAGRAM, "datagram of {} bytes", d.len());
        }
        prop_assert_eq!(&split, &pack(&frames));
        let decoded: Vec<Frame> = split
            .iter()
            .flat_map(|d| decode_datagram(d))
            .map(|f| f.expect("packed frame decodes"))
            .collect();
        prop_assert_eq!(bodies(&decoded), bodies(&frames));
    }

    /// A bit flipped in datagram `j` of a run loses only the frames of
    /// datagram `j` from the one holding the flip to its end: the frames
    /// before it, and every other datagram, still decode.
    #[test]
    fn a_flip_in_a_run_costs_only_the_rest_of_its_datagram(
        data in proptest::collection::vec(arb_data(), 1..40),
        at in any::<usize>(),
        bit in 0u8..8,
    ) {
        let frames: Vec<Frame> = data.iter().map(data_frame).collect();
        let mut run = run_of(&data).as_bytes().to_vec();
        let pos = at % run.len();
        run[pos] ^= 1 << bit;
        let (j, flipped) = (pos / DATA_SEGMENT, pos % DATA_SEGMENT / (2 + DATA_FRAME));
        for (i, d) in split_run(&run, DATA_SEGMENT).enumerate() {
            let ok: Vec<Frame> = decode_datagram(d).filter_map(Result::ok).collect();
            let sent = &frames[i * DATAGRAM_FRAMES..frames.len().min((i + 1) * DATAGRAM_FRAMES)];
            let kept = if i == j { &sent[..flipped] } else { sent };
            prop_assert_eq!(bodies(&ok), bodies(kept), "datagram {}", i);
        }
    }
}
