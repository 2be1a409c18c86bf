//! Property tests for the binary frame codec: every frame type encodes
//! and decodes to itself (`decode ∘ encode ≡ id`), every truncation of a
//! valid frame reads as "need more bytes" rather than an error or a
//! wrong answer, and arbitrary garbage never panics the decoder.

use proptest::prelude::*;
use robust_sampling_service::frame::{
    decode_request, decode_request_frame, decode_response, encode_request, encode_response,
    FrameError, HEADER_BYTES,
};
use robust_sampling_service::{Request, Response, ServiceStats};

fn assert_request_roundtrip(req: Request) {
    let mut buf = Vec::new();
    encode_request(&req, &mut buf);
    let (back, consumed) = decode_request(&buf)
        .expect("well-formed frame")
        .expect("complete frame");
    assert_eq!(back, req);
    assert_eq!(consumed, buf.len());
}

fn assert_response_roundtrip(resp: Response) {
    let mut buf = Vec::new();
    encode_response(&resp, &mut buf);
    let (back, consumed) = decode_response(&buf)
        .expect("well-formed frame")
        .expect("complete frame");
    assert_eq!(back, resp);
    assert_eq!(consumed, buf.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// INGEST frames of arbitrary contents and batch sizes round-trip.
    /// (The max-length batch and the over-cap rejection are pinned by
    /// unit tests in the frame module.)
    #[test]
    fn ingest_round_trips(vs in proptest::collection::vec(any::<u64>(), 1..400)) {
        assert_request_roundtrip(Request::Ingest(vs));
    }

    /// Every scalar-carrying request round-trips, bit-exact for floats.
    #[test]
    fn scalar_requests_round_trip(x in any::<u64>(), q in 0.0f64..1.0, t in 0.0f64..1.0) {
        assert_request_roundtrip(Request::QueryCount(x));
        assert_request_roundtrip(Request::QueryQuantile(q));
        assert_request_roundtrip(Request::QueryHeavy(t));
    }

    /// Every payload-free request round-trips.
    #[test]
    fn empty_requests_round_trip(_x in any::<bool>()) {
        assert_request_roundtrip(Request::QueryKs);
        assert_request_roundtrip(Request::Snapshot);
        assert_request_roundtrip(Request::Stats);
        assert_request_roundtrip(Request::Quit);
    }

    /// Every response type round-trips, including variable-length
    /// HH/SNAPSHOT payloads and both QUANTILE arms.
    #[test]
    fn responses_round_trip(
        n in any::<u64>(),
        c in 0.0f64..1e12,
        v in any::<u64>(),
        heavy in proptest::collection::vec((any::<u64>(), 0.0f64..1.0), 0..48),
        epoch in any::<u64>(),
        sample in proptest::collection::vec(any::<u64>(), 0..128),
        ks in 0.0f64..1.0,
    ) {
        assert_response_roundtrip(Response::Ingested(n as usize));
        assert_response_roundtrip(Response::Count(c));
        assert_response_roundtrip(Response::Quantile(None));
        assert_response_roundtrip(Response::Quantile(Some(v)));
        assert_response_roundtrip(Response::Heavy(heavy));
        assert_response_roundtrip(Response::Ks(ks));
        assert_response_roundtrip(Response::Snapshot {
            epoch,
            items: n as usize,
            sample,
        });
        assert_response_roundtrip(Response::Stats(ServiceStats {
            items: n as usize,
            epoch,
            shards: (v % 64) as usize,
            space: (v % 4096) as usize,
            snapshot_items: (n % 100_000) as usize,
            shard_bytes: (v % 65_536) as usize,
            arena_tenants: (n % 10_000) as usize,
            arena_bytes: (v % (1 << 20)) as usize,
            arena_evictions: n % 1_000,
        }));
        assert_response_roundtrip(Response::Bye);
        assert_response_roundtrip(Response::Err("injected ×fault".into()));
    }

    /// Any strict prefix of a valid frame decodes to `None` (read more),
    /// never to an error and never to a value.
    #[test]
    fn truncations_ask_for_more_bytes(
        vs in proptest::collection::vec(any::<u64>(), 1..64),
        cut_seed in any::<u64>(),
    ) {
        let mut buf = Vec::new();
        encode_request(&Request::Ingest(vs), &mut buf);
        let cut = (cut_seed as usize) % buf.len();
        prop_assert_eq!(decode_request(&buf[..cut]).unwrap(), None);
        let mut rbuf = Vec::new();
        encode_response(&Response::Quantile(Some(cut_seed)), &mut rbuf);
        let rcut = (cut_seed as usize) % rbuf.len();
        prop_assert_eq!(decode_response(&rbuf[..rcut]).unwrap(), None);
    }

    /// Arbitrary bytes never panic the decoder: they either fail with a
    /// typed error, ask for more input, or decode within bounds.
    #[test]
    fn garbage_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..64)) {
        match decode_request(&bytes) {
            Ok(Some((_, consumed))) => prop_assert!(consumed <= bytes.len()),
            Ok(None) => {}
            Err(
                FrameError::BadMagic(_)
                | FrameError::BadVersion(_)
                | FrameError::BadOpcode(_)
                | FrameError::Oversized { .. }
                | FrameError::Malformed(_),
            ) => {}
        }
        if let Ok(Some((_, consumed))) = decode_response(&bytes) {
            prop_assert!(consumed >= HEADER_BYTES && consumed <= bytes.len());
        }
    }

    // ---- Cluster control plane (admin opcodes) ----------------------

    /// Every admin request round-trips through the request codec (the
    /// coordinator→node direction), including conditional `EPOCH STATE`
    /// pulls and `RESTORE` envelopes of arbitrary contents.
    #[test]
    fn admin_requests_round_trip(
        since in any::<u64>(),
        envelope in proptest::collection::vec(0u8..=255, 1..512),
    ) {
        assert_request_roundtrip(Request::EpochState { since: None });
        assert_request_roundtrip(Request::EpochState { since: Some(since) });
        assert_request_roundtrip(Request::Checkpoint);
        assert_request_roundtrip(Request::Restore(envelope));
    }

    /// Every admin response round-trips (the node→coordinator
    /// direction), with arbitrary state/envelope payloads and
    /// high-water marks, and the "unchanged" `EPOCH STATE` reply that
    /// carries no state.
    #[test]
    fn admin_responses_round_trip(
        epoch in any::<u64>(),
        items in any::<u64>(),
        frames_acked in any::<u64>(),
        state in proptest::collection::vec(0u8..=255, 0..512),
    ) {
        assert_response_roundtrip(Response::EpochState {
            epoch,
            items,
            frames_acked,
            state: (!state.is_empty()).then(|| state.clone()),
        });
        assert_response_roundtrip(Response::EpochState {
            epoch,
            items,
            frames_acked,
            state: None,
        });
        assert_response_roundtrip(Response::Checkpoint {
            frames_acked,
            bytes: state,
        });
        assert_response_roundtrip(Response::Restored { frames_acked });
    }

    /// Any strict prefix of a valid admin frame — either direction of
    /// the coordinator↔node boundary — decodes to `None` (read more),
    /// never to an error and never to a value.
    #[test]
    fn admin_truncations_ask_for_more_bytes(
        envelope in proptest::collection::vec(0u8..=255, 1..256),
        frames_acked in any::<u64>(),
        cut_seed in any::<u64>(),
    ) {
        let mut buf = Vec::new();
        encode_request(&Request::Restore(envelope.clone()), &mut buf);
        let cut = (cut_seed as usize) % buf.len();
        prop_assert_eq!(decode_request_frame(&buf[..cut]).unwrap().map(|(_, n)| n), None);

        let mut rbuf = Vec::new();
        encode_response(
            &Response::Checkpoint {
                frames_acked,
                bytes: envelope,
            },
            &mut rbuf,
        );
        let rcut = (cut_seed as usize) % rbuf.len();
        prop_assert!(decode_response(&rbuf[..rcut]).unwrap().is_none());
    }

    /// Arbitrary garbage at the coordinator↔node boundary never panics
    /// the decoders: a typed [`FrameError`], "read more", or an
    /// in-bounds decode — nothing else.
    #[test]
    fn admin_garbage_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..96)) {
        match decode_response(&bytes) {
            Ok(Some((_, consumed))) => {
                prop_assert!(consumed >= HEADER_BYTES && consumed <= bytes.len());
            }
            Ok(None) => {}
            Err(
                FrameError::BadMagic(_)
                | FrameError::BadVersion(_)
                | FrameError::BadOpcode(_)
                | FrameError::Oversized { .. }
                | FrameError::Malformed(_),
            ) => {}
        }
        // The frame-level request decoder sees the same bytes a node's
        // connection would.
        match decode_request_frame(&bytes) {
            Ok(Some((_, consumed))) => prop_assert!(consumed <= bytes.len()),
            Ok(None) => {}
            Err(_) => {}
        }
    }

    /// Flipping any single byte of a valid admin frame never panics and
    /// never yields an out-of-bounds decode — the adversarial
    /// coordinator↔node case: a corrupted header is a typed error, a
    /// corrupted payload is at worst a different in-bounds value.
    #[test]
    fn admin_corruption_is_typed_never_a_panic(
        frames_acked in any::<u64>(),
        state in proptest::collection::vec(0u8..=255, 0..128),
        pos_seed in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let mut buf = Vec::new();
        encode_response(
            &Response::EpochState {
                epoch: 3,
                items: 99,
                frames_acked,
                state: (!state.is_empty()).then_some(state),
            },
            &mut buf,
        );
        let pos = (pos_seed as usize) % buf.len();
        buf[pos] ^= flip;
        match decode_response(&buf) {
            Ok(Some((_, consumed))) => prop_assert!(consumed <= buf.len()),
            Ok(None) => {}
            Err(
                FrameError::BadMagic(_)
                | FrameError::BadVersion(_)
                | FrameError::BadOpcode(_)
                | FrameError::Oversized { .. }
                | FrameError::Malformed(_),
            ) => {}
        }
    }
}

// ---- The text wire ----------------------------------------------------

/// `parse ∘ encode ≡ id` on the text wire, bit-exact: the parsed request
/// re-encodes to the same binary frame, which carries every float's bits.
fn assert_text_request_roundtrip(req: Request) {
    let line = req.encode();
    let back = Request::parse(&line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
    let (mut want, mut got) = (Vec::new(), Vec::new());
    encode_request(&req, &mut want);
    encode_request(&back, &mut got);
    assert_eq!(got, want, "line {line:?}");
}

/// The response analogue of [`assert_text_request_roundtrip`].
fn assert_text_response_roundtrip(resp: Response) {
    let line = resp.encode();
    let back = Response::parse(&line).unwrap_or_else(|e| panic!("{line:?}: {e}"));
    let (mut want, mut got) = (Vec::new(), Vec::new());
    encode_response(&resp, &mut want);
    encode_response(&back, &mut got);
    assert_eq!(got, want, "line {line:?}");
}

/// A finite float from arbitrary bits: the bits themselves when they are
/// finite, else a subnormal made from their low 52.
fn finite(bits: u64) -> f64 {
    let v = f64::from_bits(bits);
    if v.is_finite() {
        v
    } else {
        f64::from_bits(bits >> 12)
    }
}

/// A word for a generated text line: a verb word, a field in one of the
/// grammar's shapes, or a stray token.
fn word(kind: u32, x: u64) -> String {
    const WORDS: [&str; 24] = [
        "INGEST",
        "QUERY",
        "COUNT",
        "QUANTILE",
        "HH",
        "KS",
        "SNAPSHOT",
        "STATS",
        "QUIT",
        "EPOCH",
        "STATE",
        "CHECKPOINT",
        "RESTORE",
        "TINGEST",
        "TQUERY",
        "TSNAPSHOT",
        "OK",
        "INGESTED",
        "BYE",
        "RESTORED",
        "ERR",
        "NONE",
        "nan",
        "-inf",
    ];
    match kind % 8 {
        0..=2 => WORDS[(x % WORDS.len() as u64) as usize].to_string(),
        3 => x.to_string(),
        4 => finite(x).to_string(),
        5 => format!("items={}", x % 7),
        6 => format!("{}:{}", x % 5, finite(x)),
        _ => char::from_u32((x % 0x11_0000) as u32).map_or_else(|| "\t".to_string(), String::from),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every request the text grammar carries round-trips through its
    /// line, floats bit-exact.
    #[test]
    fn text_requests_round_trip(
        vs in proptest::collection::vec(any::<u64>(), 1..200),
        x in any::<u64>(),
        tenant in any::<u64>(),
        q in 0.0f64..=1.0,
    ) {
        for req in [
            Request::Ingest(vs.clone()),
            Request::TenantIngest { tenant, values: vs },
            Request::QueryCount(x),
            Request::QueryQuantile(q),
            Request::QueryHeavy(q),
            Request::QueryKs,
            Request::Snapshot,
            Request::TenantQueryCount { tenant, x },
            Request::TenantQueryQuantile { tenant, q },
            Request::TenantSnapshot { tenant },
            Request::Stats,
            Request::Quit,
        ] {
            assert_text_request_roundtrip(req);
        }
    }

    /// Every response the text grammar carries round-trips through its
    /// line, floats bit-exact and `ERR` messages verbatim.
    #[test]
    fn text_responses_round_trip(
        n in any::<u64>(),
        bits in any::<u64>(),
        heavy in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..48),
        sample in proptest::collection::vec(any::<u64>(), 0..128),
        msg in proptest::collection::vec(any::<u32>(), 0..24),
    ) {
        let msg: String = msg
            .iter()
            .filter_map(|&c| char::from_u32(c % 0x11_0000))
            .filter(|c| !matches!(c, '\r' | '\n'))
            .collect();
        for resp in [
            Response::Ingested(n as usize),
            Response::Count(finite(bits)),
            Response::Quantile(None),
            Response::Quantile(Some(n)),
            Response::Heavy(heavy.iter().map(|&(v, d)| (v, finite(d))).collect()),
            Response::Ks(finite(bits)),
            Response::Snapshot { epoch: bits, items: n as usize, sample: sample.clone() },
            Response::TenantSnapshot { tenant: bits, items: n as usize, sample },
            Response::Stats(ServiceStats {
                items: n as usize,
                epoch: bits,
                shards: (bits % 64) as usize,
                space: (n % 4096) as usize,
                snapshot_items: (bits >> 7) as usize,
                shard_bytes: (n >> 3) as usize,
                arena_tenants: (bits % 10_000) as usize,
                arena_bytes: (n % (1 << 20)) as usize,
                arena_evictions: n ^ bits,
            }),
            Response::Bye,
            Response::Err(msg),
        ] {
            assert_text_response_roundtrip(resp);
        }
    }

    /// Arbitrary lines — grammar words and field shapes in any order,
    /// stray characters, runs of whitespace — never panic either text
    /// parser: each line parses or is an error.
    #[test]
    fn arbitrary_lines_never_panic_the_text_parsers(
        words in proptest::collection::vec((any::<u32>(), any::<u64>()), 0..12),
        chars in proptest::collection::vec(any::<u32>(), 0..48),
        sep in 0u32..3,
    ) {
        let sep = [" ", "  ", "\t"][sep as usize];
        let line = words.iter().map(|&(k, x)| word(k, x)).collect::<Vec<_>>().join(sep);
        let raw: String = chars.iter().filter_map(|&c| char::from_u32(c % 0x11_0000)).collect();
        for line in [line.as_str(), raw.as_str()] {
            let _ = Request::parse(line);
            let _ = Response::parse(line);
        }
    }
}
