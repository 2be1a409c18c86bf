//! End-to-end TCP tests: a served summary queried, attacked, and
//! checkpointed across a real socket on an ephemeral port.

use robust_sampling_core::attack::{attack, Duel};
use robust_sampling_core::engine::{ShardedSummary, StreamSummary};
use robust_sampling_core::sampler::{ReservoirSampler, StreamSampler};
use robust_sampling_service::{
    ServiceClient, ServiceConfig, ServiceServer, SummaryService, TenantArenaConfig,
};
use std::time::{Duration, Instant};

fn serve(
    shards: usize,
    seed: u64,
    epoch_every: usize,
    universe: u64,
) -> (ServiceServer, std::net::SocketAddr) {
    let service = SummaryService::start(shards, seed, epoch_every, |_, s| {
        ReservoirSampler::<u64>::with_seed(64, s)
    });
    let server = ServiceServer::spawn(
        service,
        ServiceConfig {
            addr: "127.0.0.1:0".into(),
            universe,
            workers: 2,
            tenants: None,
        },
    )
    .expect("bind ephemeral port");
    let addr = server.addr();
    (server, addr)
}

#[test]
fn ingest_then_query_over_the_wire() {
    let (server, addr) = serve(4, 42, 4_096, 1 << 16);
    let client = ServiceClient::connect(addr).unwrap();
    let stream: Vec<u64> = (0..20_000).collect();
    let total = client.ingest(&stream).unwrap();
    assert_eq!(total, 20_000);
    let stats = client.stats().unwrap();
    assert_eq!(stats.items, 20_000);
    assert_eq!(stats.shards, 4);
    assert!(stats.epoch >= 1, "cadence should have published");
    let med = client.query_quantile(0.5).unwrap().unwrap() as f64;
    assert!((med - 10_000.0).abs() < 3_500.0, "median {med}");
    let ks = client.query_ks().unwrap();
    assert!(ks <= 1.0);
    let (_, items, sample) = client.snapshot().unwrap();
    assert_eq!(items, stats.snapshot_items);
    assert_eq!(sample.len(), 64);
    client.quit().unwrap();
    server.shutdown();
}

#[test]
fn served_snapshot_matches_the_offline_sharded_run() {
    let (server, addr) = serve(3, 7, usize::MAX >> 1, 1 << 16);
    let client = ServiceClient::connect(addr).unwrap();
    let stream: Vec<u64> = (0..30_000).map(|i| i * 17 % 9_999).collect();
    let mut offline = ShardedSummary::new(3, 7, |_, s| ReservoirSampler::<u64>::with_seed(64, s));
    for frame in stream.chunks(997) {
        client.ingest(frame).unwrap();
        offline.ingest_batch(frame);
    }
    // Cadence never fired; force one publish by ingesting nothing more and
    // reading the pre-publish epoch-0 snapshot — so use STATS to confirm,
    // then compare against a cadence-published run instead.
    let stats = client.stats().unwrap();
    assert_eq!(stats.items, 30_000);
    client.quit().unwrap();
    server.shutdown();

    // Publish-on-every-frame server: its snapshot is the offline merge.
    let (server, addr) = serve(3, 7, 1, 1 << 16);
    let client = ServiceClient::connect(addr).unwrap();
    for frame in stream.chunks(997) {
        client.ingest(frame).unwrap();
    }
    let (_, items, sample) = client.snapshot().unwrap();
    assert_eq!(items, 30_000);
    assert_eq!(sample, offline.merged().sample());
    client.quit().unwrap();
    server.shutdown();
}

#[test]
fn registered_attacks_duel_a_live_service_deterministically() {
    // The same attack against two fresh servers (same seeds) must play the
    // identical game — the remote duel is deterministic end to end.
    let n = 400;
    let universe = 1u64 << 14;
    let play = || {
        let (server, addr) = serve(2, 5, 1, universe);
        let mut client = ServiceClient::connect(addr).unwrap();
        let mut atk = attack("median-hunt").unwrap().build(n, universe, 9);
        let out = Duel::new(n, universe).run(&mut client, &mut atk);
        client.quit().unwrap();
        server.shutdown();
        out
    };
    let a = play();
    let b = play();
    assert_eq!(a.stream.len(), n);
    assert_eq!(a.stream, b.stream);
    assert_eq!(a.final_sample, b.final_sample);
}

#[test]
fn concurrent_clients_ingest_and_query_without_torn_state() {
    let (server, addr) = serve(4, 3, 2_048, 1 << 16);
    let writer_addr = addr;
    let writer = std::thread::spawn(move || {
        let client = ServiceClient::connect(writer_addr).unwrap();
        for frame in (0..40_000u64).collect::<Vec<_>>().chunks(512) {
            client.ingest(frame).unwrap();
        }
        client.quit().unwrap();
    });
    let reader = std::thread::spawn(move || {
        let client = ServiceClient::connect(addr).unwrap();
        let mut last_items = 0usize;
        for _ in 0..200 {
            let (_, items, sample) = client.snapshot().unwrap();
            // Snapshot boundaries only move forward, and the sample is
            // always a full consistent merge (64 slots once warm).
            assert!(items >= last_items, "snapshot went backwards");
            if items >= 64 {
                assert_eq!(sample.len(), 64);
            }
            last_items = items;
        }
        client.quit().unwrap();
    });
    // A registry attack plays its adaptive duel against the same server,
    // one ingested element per round, while the writer and reader run.
    let duel_rounds = 128;
    let duel = std::thread::spawn(move || {
        let mut client = ServiceClient::connect(addr).unwrap();
        let mut atk = attack("median-hunt")
            .unwrap()
            .build(duel_rounds, 1 << 16, 9);
        let out = Duel::new(duel_rounds, 1 << 16).run(&mut client, &mut atk);
        client.quit().unwrap();
        out.stream.len()
    });
    writer.join().unwrap();
    reader.join().unwrap();
    assert_eq!(duel.join().unwrap(), duel_rounds);
    // Every element any client ingested is accounted for exactly once.
    let client = ServiceClient::connect(addr).unwrap();
    assert_eq!(client.stats().unwrap().items, 40_000 + duel_rounds);
    let (_, _, sample) = client.snapshot().unwrap();
    assert!(sample.len() <= 64);
    client.quit().unwrap();
    server.shutdown();
}

#[test]
fn checkpoint_restore_preserves_query_answers_over_the_wire() {
    let stream: Vec<u64> = (0..24_000).map(|i| (i * 29) % 7_777).collect();
    // Run A: uninterrupted.
    let (server_a, addr_a) = serve(2, 13, 1, 1 << 16);
    let client_a = ServiceClient::connect(addr_a).unwrap();
    for frame in stream.chunks(600) {
        client_a.ingest(frame).unwrap();
    }
    // Run B: same prefix ingested locally, checkpointed, restored into a
    // *served* process that finishes the stream over the wire.
    let mut local = SummaryService::start(2, 13, 1, |_, s| ReservoirSampler::with_seed(64, s));
    for frame in stream[..12_000].chunks(600) {
        local.ingest_frame(frame);
    }
    let bytes = local.checkpoint();
    drop(local);
    let restored = SummaryService::restore(&bytes).unwrap();
    let server_c = ServiceServer::spawn(
        restored,
        ServiceConfig {
            addr: "127.0.0.1:0".into(),
            universe: 1 << 16,
            workers: 2,
            tenants: None,
        },
    )
    .unwrap();
    let client_c = ServiceClient::connect(server_c.addr()).unwrap();
    for frame in stream[12_000..].chunks(600) {
        client_c.ingest(frame).unwrap();
    }
    // Every query the protocol offers answers identically.
    let (_, items_a, sample_a) = client_a.snapshot().unwrap();
    let (_, items_c, sample_c) = client_c.snapshot().unwrap();
    assert_eq!(items_a, items_c);
    assert_eq!(sample_a, sample_c);
    assert_eq!(
        client_a.query_quantile(0.5).unwrap(),
        client_c.query_quantile(0.5).unwrap()
    );
    assert_eq!(
        client_a.query_count(4_242).unwrap(),
        client_c.query_count(4_242).unwrap()
    );
    assert_eq!(client_a.query_ks().unwrap(), client_c.query_ks().unwrap());
    client_a.quit().unwrap();
    client_c.quit().unwrap();
    server_a.shutdown();
    server_c.shutdown();
}

#[test]
fn oversized_request_line_is_drained_to_its_newline_and_reported() {
    use std::io::{BufRead, BufReader, Write};
    let (server, addr) = serve(1, 1, 64, 1 << 10);
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    // One line far past the per-line cap, whose *tail* spells a valid
    // command. The server must discard the whole line (bounded memory,
    // no buffering to the newline), answer it with one ERR, and must
    // NOT parse the tail as a fresh command.
    let mut flood = vec![b'7'; 5 << 20];
    flood.extend_from_slice(b" INGEST 1 2 3\n");
    stream.write_all(&flood).unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.starts_with("ERR ") && line.contains("cap"),
        "oversized line must earn a protocol error, got {line:?}"
    );
    // The connection survives and resyncs at the newline: the next
    // command parses normally and no stray INGEST happened.
    stream.write_all(b"STATS\nQUIT\n").unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(
        line.trim().starts_with("OK STATS items=0 "),
        "line tail leaked into the parser: {line:?}"
    );
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim(), "OK BYE");
    server.shutdown();
}

#[test]
fn binary_client_answers_match_the_text_client() {
    let (server, addr) = serve(3, 11, 1, 1 << 16);
    let text = ServiceClient::connect(addr).unwrap();
    let binary = ServiceClient::connect_binary(addr).unwrap();
    let stream: Vec<u64> = (0..25_000).map(|i| (i * 31) % 6_000).collect();
    // Ingest over the binary wire; the text client sees the same state.
    assert_eq!(binary.ingest(&stream).unwrap(), 25_000);
    let (et, it, st) = text.snapshot().unwrap();
    let (eb, ib, sb) = binary.snapshot().unwrap();
    assert_eq!((et, it, st), (eb, ib, sb));
    assert_eq!(
        text.query_quantile(0.5).unwrap(),
        binary.query_quantile(0.5).unwrap()
    );
    assert_eq!(
        text.query_count(42).unwrap().to_bits(),
        binary.query_count(42).unwrap().to_bits()
    );
    assert_eq!(
        text.query_ks().unwrap().to_bits(),
        binary.query_ks().unwrap().to_bits()
    );
    assert_eq!(
        text.query_heavy(0.01).unwrap(),
        binary.query_heavy(0.01).unwrap()
    );
    let (st_t, st_b) = (text.stats().unwrap(), binary.stats().unwrap());
    assert_eq!(st_t.items, st_b.items);
    assert_eq!(st_t.shards, st_b.shards);
    text.quit().unwrap();
    binary.quit().unwrap();
    server.shutdown();
}

#[test]
fn pipelined_requests_yield_in_order_responses_on_one_socket() {
    use robust_sampling_service::Request;
    use robust_sampling_service::Response;
    let (server, addr) = serve(2, 19, 1, 1 << 16);
    let client = ServiceClient::connect_binary(addr).unwrap();
    // N queued INGEST frames of growing sizes: the k-th response must
    // report the k-th running total — any reordering or loss shows up
    // as a wrong cumulative count.
    let n = 64usize;
    let reqs: Vec<Request> = (1..=n)
        .map(|k| Request::Ingest((0..k as u64).collect()))
        .collect();
    let resps = client.pipeline(&reqs).unwrap();
    assert_eq!(resps.len(), n);
    let mut running = 0usize;
    for (k, resp) in resps.iter().enumerate() {
        running += k + 1;
        assert_eq!(
            resp,
            &Response::Ingested(running),
            "response {k} out of order"
        );
    }
    // A mixed pipeline (ingest + every query type) also answers strictly
    // in request order, visible through the response types.
    let mixed = vec![
        Request::Stats,
        Request::Ingest(vec![1, 2, 3]),
        Request::QueryQuantile(0.5),
        Request::QueryKs,
        Request::Snapshot,
        Request::QueryCount(1),
        Request::QueryHeavy(0.5),
    ];
    let resps = client.pipeline(&mixed).unwrap();
    assert!(matches!(resps[0], Response::Stats(_)));
    assert!(matches!(resps[1], Response::Ingested(_)));
    assert!(matches!(resps[2], Response::Quantile(_)));
    assert!(matches!(resps[3], Response::Ks(_)));
    assert!(matches!(resps[4], Response::Snapshot { .. }));
    assert!(matches!(resps[5], Response::Count(_)));
    assert!(matches!(resps[6], Response::Heavy(_)));
    client.quit().unwrap();
    server.shutdown();
}

#[test]
fn text_and_binary_frames_interleave_on_one_connection() {
    use robust_sampling_service::frame;
    use robust_sampling_service::{Request, Response};
    use std::io::{Read, Write};
    let (server, addr) = serve(1, 23, 1, 1 << 10);
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    // A text command, then a binary frame, pipelined in one write: each
    // response arrives in its request's format, in order.
    let mut wire = b"INGEST 5 6 7\n".to_vec();
    frame::encode_request(&Request::Stats, &mut wire);
    stream.write_all(&wire).unwrap();
    let mut got = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        // First the text line…
        if let Some(nl) = got.iter().position(|&b| b == b'\n') {
            let line = std::str::from_utf8(&got[..nl]).unwrap();
            assert_eq!(line.trim(), "OK INGESTED 3");
            // …then a complete binary STATS frame.
            if let Some((resp, consumed)) = frame::decode_response(&got[nl + 1..]).unwrap() {
                match resp {
                    Response::Stats(st) => assert_eq!(st.items, 3),
                    other => panic!("expected STATS, got {other:?}"),
                }
                assert_eq!(nl + 1 + consumed, got.len(), "no trailing bytes");
                break;
            }
        }
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "server hung up early");
        got.extend_from_slice(&chunk[..n]);
    }
    server.shutdown();
}

#[test]
fn many_connections_multiplex_on_a_small_worker_pool() {
    // 24 simultaneous clients against a 2-worker event loop: every
    // connection must make progress (no thread-per-connection to lean
    // on), and the final item count must account for every frame.
    const CLIENTS: u64 = 24;
    const PER_CLIENT: u64 = 1_000;
    let (server, addr) = serve(4, 11, 4_096, 1 << 16);
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let client = if c % 2 == 0 {
                    ServiceClient::connect_binary(addr).unwrap()
                } else {
                    ServiceClient::connect(addr).unwrap()
                };
                let xs: Vec<u64> = (0..PER_CLIENT).map(|i| c * PER_CLIENT + i).collect();
                for frame in xs.chunks(250) {
                    client.ingest(frame).unwrap();
                }
                // Our own acks happened-before this STATS, so the global
                // count is at least our contribution.
                let stats = client.stats().unwrap();
                assert!(stats.items >= PER_CLIENT as usize);
                client.quit().unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let check = ServiceClient::connect_binary(addr).unwrap();
    assert_eq!(
        check.stats().unwrap().items,
        (CLIENTS * PER_CLIENT) as usize,
        "some client's frames were lost or double-counted"
    );
    check.quit().unwrap();
    server.shutdown();
}

#[test]
fn protocol_errors_do_not_kill_the_connection() {
    use std::io::{BufRead, BufReader, Write};
    let (server, addr) = serve(1, 1, 64, 1 << 10);
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    stream.write_all(b"BOGUS nonsense\n").unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR "), "got {line:?}");
    line.clear();
    stream.write_all(b"INGEST 1 2 3\nQUIT\n").unwrap();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim(), "OK INGESTED 3");
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(line.trim(), "OK BYE");
    server.shutdown();
}

#[test]
fn conditional_epoch_state_skips_the_state_only_while_the_epoch_is_current() {
    let service = SummaryService::start(1, 5, 10, |_, s| ReservoirSampler::<u64>::with_seed(8, s));
    let server =
        ServiceServer::spawn_admin(service, ServiceConfig::default()).expect("bind ephemeral port");
    let client = ServiceClient::connect_binary(server.addr()).unwrap();
    // Frames of 10, 10 and 5 elements: two publishes at the cadence of 10.
    for frame in (0..25).collect::<Vec<u64>>().chunks(10) {
        client.ingest(frame).unwrap();
    }
    let (epoch, items, hwm, state) = client.epoch_state(None).unwrap();
    assert_eq!((epoch, items, hwm), (2, 20, 3));
    let state = state.expect("an unconditional pull carries the state");
    // `since` = the published epoch: the header alone.
    assert_eq!(client.epoch_state(Some(2)).unwrap(), (2, 20, 3, None));
    // A stale or unknown `since`: the same bytes as the unconditional pull.
    for since in [0, 1, 3, u64::MAX] {
        assert_eq!(
            client.epoch_state(Some(since)).unwrap(),
            (2, 20, 3, Some(state.clone())),
            "since {since}"
        );
    }
    // After the next publish, the old epoch is stale.
    client.ingest(&[99; 10]).unwrap();
    let current = client.epoch_state(None).unwrap();
    assert_eq!((current.0, current.1, current.2), (3, 35, 4));
    assert_eq!(client.epoch_state(Some(2)).unwrap(), current);
    assert_eq!(client.epoch_state(Some(3)).unwrap(), (3, 35, 4, None));
    server.shutdown();
}

#[test]
fn restore_with_another_shard_count_is_rejected_and_the_node_keeps_serving() {
    let start =
        |k: usize| SummaryService::start(k, 5, 10, |_, s| ReservoirSampler::<u64>::with_seed(8, s));
    let server = ServiceServer::spawn_admin(start(1), ServiceConfig::default())
        .expect("bind ephemeral port");
    let client = ServiceClient::connect_binary(server.addr()).unwrap();
    client.ingest(&(0..25).collect::<Vec<u64>>()).unwrap();
    let before = client.epoch_state(None).unwrap();
    let err = client
        .restore(&start(2).checkpoint())
        .expect_err("a two-shard checkpoint on a one-shard node");
    assert!(err.to_string().contains("restore rejected"), "{err}");
    // The node's state is untouched and the connection keeps serving.
    assert_eq!(client.epoch_state(None).unwrap(), before);
    client.ingest(&[7; 10]).unwrap();
    assert_eq!(client.stats().unwrap().items, 35);
    client.quit().unwrap();
    server.shutdown();
}

#[test]
fn restore_of_a_forged_envelope_is_rejected_and_the_node_keeps_serving() {
    let service = SummaryService::start(1, 5, 10, |_, s| ReservoirSampler::<u64>::with_seed(8, s));
    let server =
        ServiceServer::spawn_admin(service, ServiceConfig::default()).expect("bind ephemeral port");
    let admin = ServiceClient::connect_binary(server.addr()).unwrap();
    admin.ingest(&[1, 2, 3]).unwrap();
    let (_, envelope) = admin.checkpoint().unwrap();
    // Header words after the magic: shards, routed, since_publish,
    // frames_acked, ...
    for (word, v) in [(4, u64::MAX), (2, 999)] {
        let mut forged = envelope.clone();
        forged[8 * word..8 * word + 8].copy_from_slice(&v.to_le_bytes());
        let err = admin.restore(&forged).expect_err("a forged envelope");
        assert!(err.to_string().contains("restore rejected"), "{err}");
    }
    // Another connection (another worker's view of the shared service)
    // still ingests: the service lock was never poisoned.
    let other = ServiceClient::connect_binary(server.addr()).unwrap();
    assert_eq!(other.ingest(&[4, 5]).unwrap(), 5);
    assert_eq!(admin.stats().unwrap().items, 5);
    server.shutdown();
}

#[test]
fn over_cap_responses_are_service_errors_and_the_connection_keeps_serving() {
    // One shard, so the published sample is the whole reservoir.
    let serve_k = |k: usize| {
        let service = SummaryService::start(1, 3, k, move |_, s| {
            ReservoirSampler::<u64>::with_seed(k, s)
        });
        let server = ServiceServer::spawn_admin(service, ServiceConfig::default())
            .expect("bind ephemeral port");
        let client = ServiceClient::connect_binary(server.addr()).unwrap();
        client.ingest(&(0..k as u64).collect::<Vec<_>>()).unwrap();
        (server, client)
    };
    // k = 70,000: a SNAPSHOT payload of 20 + 8k bytes passes the cap.
    let (server, client) = serve_k(70_000);
    let err = client.snapshot().expect_err("over-cap SNAPSHOT");
    assert!(err.to_string().contains("service error"), "{err}");
    assert_eq!(client.stats().unwrap().items, 70_000);
    server.shutdown();
    // k = 40,000: the checkpoint envelope passes the cap (the sample is
    // in it twice: shard state and published epoch).
    let (server, client) = serve_k(40_000);
    let err = client.checkpoint().expect_err("over-cap CHECKPOINT");
    assert!(err.to_string().contains("service error"), "{err}");
    assert_eq!(client.stats().unwrap().items, 40_000);
    assert_eq!(client.snapshot().unwrap().2.len(), 40_000);
    server.shutdown();
}

#[test]
fn requests_the_binary_wire_cannot_frame_are_invalid_input_and_unsent() {
    use robust_sampling_service::frame::MAX_FRAME_PAYLOAD;
    use robust_sampling_service::protocol::MAX_INGEST_FRAME;
    use robust_sampling_service::Request;
    use std::io::ErrorKind::InvalidInput;
    let (server, addr) = serve(1, 1, 64, 1 << 10);
    let client = ServiceClient::connect_binary(addr).unwrap();
    let too_many = vec![1; MAX_INGEST_FRAME + 1];
    for batch in [
        vec![Request::Ingest(vec![])],
        vec![Request::Ingest(too_many.clone())],
        vec![Request::TenantIngest {
            tenant: 1,
            values: vec![],
        }],
        vec![Request::TenantIngest {
            tenant: 1,
            values: too_many,
        }],
        // One bad request fails the whole pipeline before any is sent.
        vec![Request::Ingest(vec![5]), Request::Restore(vec![])],
    ] {
        let err = client.pipeline(&batch).expect_err("unframeable request");
        assert_eq!(err.kind(), InvalidInput, "{batch:?}");
    }
    assert_eq!(client.restore(&[]).unwrap_err().kind(), InvalidInput);
    let huge = vec![0; MAX_FRAME_PAYLOAD + 1];
    assert_eq!(client.restore(&huge).unwrap_err().kind(), InvalidInput);
    // Nothing reached the server: no ingest, no stray reply.
    assert_eq!(client.stats().unwrap().items, 0);
    client.quit().unwrap();
    server.shutdown();
}

#[test]
fn admin_requests_need_an_admin_endpoint_and_a_binary_connection() {
    // A plain `spawn` endpoint answers every admin frame with ERR and
    // keeps serving the connection.
    let (server, addr) = serve(1, 1, 1, 1 << 10);
    let binary = ServiceClient::connect_binary(addr).unwrap();
    binary.ingest(&[1, 2, 3]).unwrap();
    let refusals = [
        binary.epoch_state(None).map(|_| ()),
        binary.epoch_state(Some(0)).map(|_| ()),
        binary.checkpoint().map(|_| ()),
        binary.restore(b"not an envelope").map(|_| ()),
    ];
    for refusal in refusals {
        let err = refusal.expect_err("admin frame on a plain endpoint");
        assert!(err.to_string().contains("not enabled"), "{err}");
    }
    assert_eq!(binary.stats().unwrap().items, 3);
    binary.quit().unwrap();
    server.shutdown();
    // On a text connection the admin calls fail unsent, even against an
    // admin endpoint: the next reply read is the next request's own.
    let service = SummaryService::start(1, 5, 1, |_, s| ReservoirSampler::<u64>::with_seed(8, s));
    let server =
        ServiceServer::spawn_admin(service, ServiceConfig::default()).expect("bind ephemeral port");
    let text = ServiceClient::connect(server.addr()).unwrap();
    text.ingest(&[4, 5]).unwrap();
    use std::io::ErrorKind::InvalidInput;
    assert_eq!(text.epoch_state(None).unwrap_err().kind(), InvalidInput);
    assert_eq!(text.checkpoint().unwrap_err().kind(), InvalidInput);
    assert_eq!(text.restore(b"envelope").unwrap_err().kind(), InvalidInput);
    assert_eq!(text.stats().unwrap().items, 2);
    text.quit().unwrap();
    server.shutdown();
}

#[test]
fn a_zero_universe_is_invalid_input_before_anything_binds() {
    // The address is taken, so a bind attempt would fail with
    // `AddrInUse`: `InvalidInput` shows the check comes first.
    let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let config = ServiceConfig {
        addr: taken.local_addr().unwrap().to_string(),
        universe: 0,
        ..ServiceConfig::default()
    };
    let service = || SummaryService::start(1, 3, 64, |_, s| ReservoirSampler::with_seed(64, s));
    for spawned in [
        ServiceServer::spawn(service(), config.clone()),
        ServiceServer::spawn_admin(service(), config.clone()),
    ] {
        let err = spawned.expect_err("a zero universe must not serve");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    }
    // The same config with a positive universe reaches the bind.
    let config = ServiceConfig {
        universe: 1,
        ..config
    };
    let err = ServiceServer::spawn(service(), config).expect_err("the address is taken");
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err}");
}

#[test]
fn an_out_of_range_tenant_arena_is_invalid_input_before_anything_binds() {
    let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let arena = TenantArenaConfig {
        universe: 1 << 10,
        eps: 0.15,
        delta: 0.1,
        budget_bytes: 1 << 20,
        base_seed: 1,
        robust: true,
    };
    let config = |tenants| ServiceConfig {
        addr: taken.local_addr().unwrap().to_string(),
        tenants: Some(tenants),
        ..ServiceConfig::default()
    };
    let service = || SummaryService::start(1, 3, 64, |_, s| ReservoirSampler::with_seed(64, s));
    for bad in [
        TenantArenaConfig {
            universe: 1,
            ..arena
        },
        TenantArenaConfig {
            universe: 0,
            ..arena
        },
        TenantArenaConfig { eps: 0.0, ..arena },
        TenantArenaConfig { eps: 1.5, ..arena },
        TenantArenaConfig {
            delta: 1.0,
            ..arena
        },
        TenantArenaConfig {
            delta: f64::NAN,
            ..arena
        },
    ] {
        for spawned in [
            ServiceServer::spawn(service(), config(bad)),
            ServiceServer::spawn_admin(service(), config(bad)),
        ] {
            let err = spawned.expect_err("an out-of-range arena must not serve");
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::InvalidInput,
                "{bad:?}: {err}"
            );
        }
    }
    // The in-range arena reaches the bind.
    let err = ServiceServer::spawn(service(), config(arena)).expect_err("the address is taken");
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err}");
}

#[test]
fn cluster_node_reports_an_out_of_range_tenant_arena_and_exits_2() {
    for (args, message) in [
        (
            &["--universe", "1", "--tenant-budget", "100000"][..],
            "tenant universe",
        ),
        (&["--cap", "0"][..], "--cap must be positive"),
        (
            &["--epoch-every", "0"][..],
            "--epoch-every must be positive",
        ),
        (&["--cap", "x"][..], "--cap: cannot parse \"x\""),
        (&["--bogus", "1"][..], "unknown flag --bogus"),
        (&["--seed"][..], "missing value for --seed"),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_cluster_node"))
            .args(args)
            .stdin(std::process::Stdio::null())
            .output()
            .expect("run cluster_node");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: no handshake line");
    }
}

/// The server's idle poll timeout (a private constant of the server):
/// the wait a worker falls back on when nothing wakes it.
const POLL_TICK: Duration = Duration::from_millis(10);

/// A one-shard server with `workers` event loops.
fn serve_on(workers: usize) -> ServiceServer {
    let service = SummaryService::start(1, 3, 1_024, |_, s| {
        ReservoirSampler::<u64>::with_seed(64, s)
    });
    let config = ServiceConfig {
        workers,
        ..ServiceConfig::default()
    };
    ServiceServer::spawn(service, config).expect("bind ephemeral port")
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Median connect→reply time of 16 fresh connections opened one after
/// another, each sending `STATS` and closing.
fn median_first_reply(addr: std::net::SocketAddr) -> Duration {
    median(
        (0..16)
            .map(|_| {
                let t = Instant::now();
                let client = ServiceClient::connect(addr).unwrap();
                client.stats().unwrap();
                t.elapsed()
            })
            .collect(),
    )
}

#[test]
fn first_reply_on_a_fresh_connection_does_not_wait_out_the_poll_tick() {
    // The empty-set path: the only worker holds no connection yet.
    let lone = serve_on(1);
    let lone_median = median_first_reply(lone.addr());
    lone.shutdown();
    // Two workers, one of them already holding an idle connection.
    let pair = serve_on(2);
    let idle = ServiceClient::connect(pair.addr()).unwrap();
    idle.stats().unwrap();
    let pair_median = median_first_reply(pair.addr());
    pair.shutdown();
    println!(
        "first reply on a fresh connection, median of 16: \
         workers=1 {lone_median:?}, workers=2 with an idle connection {pair_median:?}"
    );
    for (what, m) in [("workers=1", lone_median), ("workers=2", pair_median)] {
        assert!(
            m < POLL_TICK / 4,
            "{what}: median connect->reply {m:?} waits on the poll tick"
        );
    }
}

#[test]
fn spawn_then_shutdown_does_not_wait_out_the_poll_tick() {
    // The server idles between spawn and shutdown (untimed), so every
    // worker is parked in its poll when the stop arrives.
    let cycle = median(
        (0..8)
            .map(|_| {
                let t = Instant::now();
                let server = serve_on(2);
                let spawned = t.elapsed();
                std::thread::sleep(POLL_TICK / 5);
                let t = Instant::now();
                server.shutdown();
                spawned + t.elapsed()
            })
            .collect(),
    );
    println!("spawn->shutdown cycle, median of 8: {cycle:?}");
    assert!(
        cycle < POLL_TICK / 4,
        "median spawn->shutdown {cycle:?} waits on the poll tick"
    );
}
