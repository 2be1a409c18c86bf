//! Release-only timing and soak gates for the serving layer. Each gate
//! keeps a fixed bound:
//!
//! 1. **In-process throughput** — one thread ingests registry frames
//!    through the service mutex while three threads query the published
//!    epoch through a [`QueryHandle`]; elements ingested plus queries
//!    answered reach ≥ 1M ops/s.
//! 2. **Connection soak** — 400 binary-wire connections, all open at
//!    once on a 4-worker server, each sending pipelined batches of four
//!    `INGEST` frames and one `QUERY`. Every connection is established,
//!    every batch is acked, `STATS.items` equals the acked elements, and
//!    the p999 batch round trip stays ≤ 250 ms. One fd per side per
//!    connection keeps the soak under the default soft limit of 1,024
//!    open files.
//! 3. **Binary ≥ 2× text** — the same ingest + query workload through
//!    one text connection (sequential round trips) and one binary
//!    connection (pipelined batches).
//! 4. **50K-tenant arena soak** — a `tenant-zipf` keyed stream through
//!    a 64 MiB [`TenantArena`]: ≥ 1M keyed ops/s, resident bytes within
//!    the budget after every chunk, process RSS growth ≤ 1 GiB, and
//!    audited tenants (revived ones included) bit-identical to isolated
//!    reservoirs.
//!
//! The file holds one `#[test]`, so no sibling test runs beside the
//! gates and skews their timings or RSS. Debug builds skip it; run it
//! with `cargo test --release --test serving_gates -- --nocapture`.
//!
//! [`QueryHandle`]: robust_sampling::service::QueryHandle
//! [`TenantArena`]: robust_sampling::service::TenantArena

use robust_sampling::core::sampler::{ReservoirSampler, StreamSampler};
use robust_sampling::service::frame;
use robust_sampling::service::tenant::tenant_seed;
use robust_sampling::service::{
    Request, Response, ServiceClient, ServiceConfig, ServiceServer, SummaryService, TenantArena,
    TenantArenaConfig,
};
use robust_sampling::streamgen::{keyed_workload, workload};
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Per-shard reservoir capacity of every served summary.
const K: usize = 256;
/// Elements per ingest frame.
const FRAME: usize = 256;
const UNIVERSE: u64 = 1 << 20;

/// Concurrent connections in the soak.
const SOAK_CONNECTIONS: usize = 400;
/// Client threads sharing the soak connections.
const SOAK_THREADS: usize = 8;
/// Batches each soak connection sends.
const SOAK_ROUNDS: usize = 2;
/// `INGEST` frames per soak batch, each followed by one `QUERY`.
const SOAK_FRAMES: usize = 4;
/// Elements per soak `INGEST` frame.
const SOAK_FRAME_ELEMS: usize = 64;
const SOAK_P999_CAP: Duration = Duration::from_millis(250);

/// Elements per wire leg of the binary-vs-text gate.
const WIRE_ELEMS: usize = 200_000;

const TENANTS: u64 = 50_000;
/// Keyed pairs in the arena soak: eight per tenant.
const TENANT_PAIRS: usize = 400_000;
const TENANT_BUDGET_BYTES: usize = 64 << 20;
const TENANT_RSS_CAP_BYTES: usize = 1 << 30;
/// Keyed pairs between two budget checks.
const TENANT_CHUNK: usize = 4_096;
/// The robustness matrix's ε and δ: per-tenant reservoirs are sized by
/// Thm 1.2 for them.
const TENANT_EPS: f64 = 0.15;
const TENANT_DELTA: f64 = 0.1;

fn service(shards: usize, seed: u64, epoch_every: usize) -> SummaryService {
    SummaryService::start(shards, seed, epoch_every, |_, s| {
        ReservoirSampler::with_seed(K, s)
    })
}

/// A server on an ephemeral port, publishing every 4,096 elements.
fn serve(shards: usize, seed: u64, workers: usize) -> ServiceServer {
    ServiceServer::spawn(
        service(shards, seed, 4_096),
        ServiceConfig {
            addr: "127.0.0.1:0".into(),
            universe: UNIVERSE,
            workers,
            tenants: None,
        },
    )
    .expect("bind an ephemeral port")
}

/// The nearest-rank `q`-quantile of `xs`.
fn quantile(xs: &mut [Duration], q: f64) -> Duration {
    xs.sort_unstable();
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

#[test]
#[cfg_attr(debug_assertions, ignore = "release-only timing gate")]
fn serving_gates_hold() {
    in_process_ingest_and_query_sustain_a_million_ops_per_second();
    four_hundred_connections_are_served_with_bounded_latency();
    binary_wire_doubles_text_throughput();
    fifty_thousand_tenant_arena_stays_budgeted_and_exact();
}

fn in_process_ingest_and_query_sustain_a_million_ops_per_second() {
    let svc = Mutex::new(service(2, 42, 4 * FRAME));
    let handle = svc.lock().expect("service lock").query_handle();
    let uniform = workload("uniform").expect("uniform is registered");
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs(1);
    let served: u64 = std::thread::scope(|scope| {
        let ingest = scope.spawn(|| {
            let mut elems = 0u64;
            let mut frame = Vec::with_capacity(FRAME);
            let mut source = uniform.source(usize::MAX >> 8, UNIVERSE, 7);
            while Instant::now() < deadline {
                frame.clear();
                source.next_chunk(&mut frame, FRAME);
                svc.lock().expect("service lock").ingest_frame(&frame);
                elems += frame.len() as u64;
            }
            elems
        });
        let queriers: Vec<_> = (0..3)
            .map(|_| {
                let handle = handle.clone();
                scope.spawn(move || {
                    let mut ops = 0u64;
                    while Instant::now() < deadline {
                        let snap = handle.snapshot();
                        match ops % 4 {
                            0 => _ = black_box(snap.quantile(0.5)),
                            1 => _ = black_box(snap.quantile(0.99)),
                            2 => {
                                _ = black_box(
                                    snap.count(ops.wrapping_mul(2_654_435_761) % UNIVERSE),
                                )
                            }
                            _ => _ = black_box(snap.ks_uniform(UNIVERSE)),
                        }
                        ops += 1;
                    }
                    ops
                })
            })
            .collect();
        let queries: u64 = queriers
            .into_iter()
            .map(|h| h.join().expect("querier"))
            .sum();
        ingest.join().expect("ingester") + queries
    });
    let rate = served as f64 / t0.elapsed().as_secs_f64();
    println!("in-process: {rate:.0} ops/s (elements ingested + queries answered)");
    assert!(
        rate >= 1.0e6,
        "in-process ingest+query at {rate:.0} ops/s < 1M"
    );
}

/// Connect with a short retry ladder: a burst of connects can briefly
/// fill the listener's backlog.
fn connect(addr: SocketAddr) -> TcpStream {
    let mut attempt = 0;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => {
                s.set_nodelay(true).expect("set TCP_NODELAY");
                return s;
            }
            Err(e) if attempt == 20 => panic!("soak connection refused 21 times: {e}"),
            Err(_) => std::thread::sleep(Duration::from_millis(5 * (attempt + 1))),
        }
        attempt += 1;
    }
}

/// Read `want` binary replies from `stream`, failing on any `ERR`.
fn read_replies(stream: &mut TcpStream, rbuf: &mut Vec<u8>, want: usize) {
    let mut scratch = [0u8; 4096];
    let mut pos = 0;
    for _ in 0..want {
        loop {
            match frame::decode_response(&rbuf[pos..]).expect("well-formed reply") {
                Some((Response::Err(msg), _)) => panic!("soak batch failed: {msg}"),
                Some((_, used)) => {
                    pos += used;
                    break;
                }
                None => {
                    let n = stream.read(&mut scratch).expect("read soak replies");
                    assert!(n > 0, "server hung up mid-batch");
                    rbuf.extend_from_slice(&scratch[..n]);
                }
            }
        }
    }
    rbuf.clear();
}

fn four_hundred_connections_are_served_with_bounded_latency() {
    let server = serve(4, 42, 4);
    let conns: Vec<TcpStream> = (0..SOAK_CONNECTIONS)
        .map(|_| connect(server.addr()))
        .collect();
    let values: Vec<u64> = (0..SOAK_FRAME_ELEMS as u64)
        .map(|i| i.wrapping_mul(2_654_435_761) % UNIVERSE)
        .collect();
    let mut batch = Vec::new();
    for _ in 0..SOAK_FRAMES {
        frame::encode_ingest_slice(&values, &mut batch);
    }
    frame::encode_request(&Request::QueryQuantile(0.5), &mut batch);

    let mut shares: Vec<Vec<TcpStream>> = (0..SOAK_THREADS).map(|_| Vec::new()).collect();
    for (i, c) in conns.into_iter().enumerate() {
        shares[i % SOAK_THREADS].push(c);
    }
    let mut round_trips: Vec<Duration> = std::thread::scope(|scope| {
        let threads: Vec<_> = shares
            .into_iter()
            .map(|mut share| {
                let batch = &batch;
                scope.spawn(move || {
                    let mut times = Vec::new();
                    let mut rbuf = Vec::new();
                    for _ in 0..SOAK_ROUNDS {
                        for conn in &mut share {
                            let t0 = Instant::now();
                            conn.write_all(batch).expect("write soak batch");
                            read_replies(conn, &mut rbuf, SOAK_FRAMES + 1);
                            times.push(t0.elapsed());
                        }
                    }
                    times
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|h| h.join().expect("soak client thread"))
            .collect()
    });
    let check = ServiceClient::connect_binary(server.addr()).expect("connect checker");
    let items = check.stats().expect("STATS").items;
    check.quit().expect("QUIT");
    server.shutdown();

    let acked = SOAK_CONNECTIONS * SOAK_ROUNDS * SOAK_FRAMES * SOAK_FRAME_ELEMS;
    let p50 = quantile(&mut round_trips, 0.5);
    let p999 = quantile(&mut round_trips, 0.999);
    println!(
        "soak: {SOAK_CONNECTIONS} connections, {} batches acked, {items} items, \
         batch round trip p50 {p50:?}, p999 {p999:?}",
        round_trips.len()
    );
    assert_eq!(round_trips.len(), SOAK_CONNECTIONS * SOAK_ROUNDS);
    assert_eq!(items, acked, "STATS.items must equal the acked elements");
    assert!(
        p999 <= SOAK_P999_CAP,
        "soak p999 {p999:?} over {SOAK_P999_CAP:?}"
    );
}

/// One wire leg: ingest `stream` in `FRAME`-element frames with one
/// `QUERY QUANTILE` per eight frames. The text leg round-trips every
/// request; the binary leg pipelines each eight frames and their query.
/// Returns elements per second.
fn wire_leg(addr: SocketAddr, binary: bool, stream: &[u64]) -> f64 {
    let t0 = Instant::now();
    if binary {
        let client = ServiceClient::connect_binary(addr).expect("connect binary leg");
        for eight in stream.chunks(8 * FRAME) {
            let mut batch: Vec<Request> = eight
                .chunks(FRAME)
                .map(|f| Request::Ingest(f.to_vec()))
                .collect();
            batch.push(Request::QueryQuantile(0.5));
            let replies = client.pipeline(&batch).expect("pipelined batch");
            assert!(!replies.iter().any(|r| matches!(r, Response::Err(_))));
        }
        client.quit().expect("QUIT");
    } else {
        let client = ServiceClient::connect(addr).expect("connect text leg");
        for (i, f) in stream.chunks(FRAME).enumerate() {
            client.ingest(f).expect("INGEST");
            if i % 8 == 7 {
                client.query_quantile(0.5).expect("QUERY");
            }
        }
        client.quit().expect("QUIT");
    }
    stream.len() as f64 / t0.elapsed().as_secs_f64()
}

fn binary_wire_doubles_text_throughput() {
    let server = serve(2, 7, 2);
    let stream = workload("uniform")
        .expect("uniform is registered")
        .materialize(WIRE_ELEMS, UNIVERSE, 31);
    // A busy neighbour on a shared core can slow either leg: re-measure a
    // losing comparison up to twice and keep each leg's best rate. A real
    // regression is slow on every attempt.
    let (mut text, mut binary) = (0.0f64, 0.0f64);
    for _ in 0..3 {
        text = text.max(wire_leg(server.addr(), false, &stream));
        binary = binary.max(wire_leg(server.addr(), true, &stream));
        if binary >= 2.0 * text {
            break;
        }
    }
    server.shutdown();
    println!(
        "wire: binary {binary:.0} elem/s, text {text:.0} elem/s ({:.2}x)",
        binary / text
    );
    assert!(
        binary >= 2.0 * text,
        "binary wire only {:.2}x text",
        binary / text
    );
}

/// This process's resident-set size from `/proc/self/status`; `None`
/// off Linux.
fn rss_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn fifty_thousand_tenant_arena_stays_budgeted_and_exact() {
    let config = TenantArenaConfig {
        universe: UNIVERSE,
        eps: TENANT_EPS,
        delta: TENANT_DELTA,
        budget_bytes: TENANT_BUDGET_BYTES,
        base_seed: 42,
        robust: true,
    };
    // Generated before the first RSS read, so the envelope charges the
    // arena and not the workload buffer.
    let pairs = keyed_workload("tenant-zipf")
        .expect("tenant-zipf is registered")
        .spec
        .generate(TENANT_PAIRS, TENANTS, UNIVERSE, 7);
    let mut arena = TenantArena::new(config);
    let rss0 = rss_bytes();
    let t0 = Instant::now();
    for chunk in pairs.chunks(TENANT_CHUNK) {
        for &(t, v) in chunk {
            arena.ingest(t, &[v]);
        }
        assert!(arena.resident_bytes() <= TENANT_BUDGET_BYTES);
        assert!(arena.resident_tenants() <= arena.max_resident());
    }
    let rate = TENANT_PAIRS as f64 / t0.elapsed().as_secs_f64();
    let rss_growth = rss0.zip(rss_bytes()).map(|(a, b)| b.saturating_sub(a));
    let counters = arena.counters();

    // Spread picks land on the Zipf head (resident tenants); cold tenants
    // are added so the audit covers evict-and-revive too.
    let mut audit: Vec<u64> = Vec::new();
    for i in 0..12 {
        let t = pairs[i * (pairs.len() - 1) / 11].0;
        if !audit.contains(&t) {
            audit.push(t);
        }
    }
    for &(t, _) in &pairs {
        if audit.len() >= 16 {
            break;
        }
        if !arena.is_resident(t) && !audit.contains(&t) {
            audit.push(t);
        }
    }
    let cold = audit.iter().filter(|&&t| !arena.is_resident(t)).count();
    for &t in &audit {
        let mut isolated =
            ReservoirSampler::<u64>::with_seed(arena.reservoir_k(), tenant_seed(42, t));
        for &(_, v) in pairs.iter().filter(|&&(pt, _)| pt == t) {
            isolated.observe(v);
        }
        assert_eq!(arena.sample(t), isolated.sample(), "tenant {t} sample");
        assert_eq!(arena.items(t), isolated.observed(), "tenant {t} items");
    }
    println!(
        "tenant arena: {rate:.0} keyed ops/s, {} known / {} resident tenants, \
         {} evictions, {} revivals, RSS growth {} MiB, {} tenants audited ({cold} cold)",
        arena.known_tenants(),
        arena.resident_tenants(),
        counters.evictions,
        counters.revivals,
        rss_growth.map_or(-1, |g| (g >> 20) as i64),
        audit.len(),
    );
    assert!(rate >= 1.0e6, "arena ingest at {rate:.0} keyed ops/s < 1M");
    assert!(
        rss_growth.is_none_or(|g| g <= TENANT_RSS_CAP_BYTES),
        "RSS grew {rss_growth:?} bytes, over the 1 GiB envelope"
    );
    assert!(
        counters.revivals > 0 && cold > 0,
        "the audit must cover revived tenants"
    );
}
