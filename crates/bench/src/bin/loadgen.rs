//! Latency-measuring load generator for the serving layer.
//!
//! Spawns `--clients` client threads against a [`SummaryService`] and
//! reports throughput plus p50/p99/p999 operation latency — measured with
//! our own [`KllSketch`], dogfooding the workspace's quantile path — in
//! four modes:
//!
//! 1. **in-process** — one ingest driver streaming a scenario-registry
//!    workload through the service mutex while the remaining clients
//!    hammer the published epoch snapshot with
//!    `QUANTILE`/`COUNT`/`KS`-shaped queries through a [`QueryHandle`]
//!    (an `Arc` copy under a briefly-held read lock). Queries never
//!    contend with ingest; this is the upper-bound throughput of the
//!    serving core.
//! 2. **determinism** — a fixed frame schedule served and compared
//!    against the offline [`ShardedSummary`] run of the same stream: the
//!    published snapshot must be **bit-identical**.
//! 3. **checkpoint** — the same schedule interrupted halfway by
//!    [`checkpoint`](SummaryService::checkpoint) /
//!    [`restore`](SummaryService::restore): after finishing, the restored
//!    service must answer every protocol query identically to the
//!    uninterrupted one.
//! 4. **tcp** — a [`ServiceServer`] on `--port` (0 = ephemeral, the CI
//!    default) under concurrent workload clients plus a registry
//!    *attack* client playing the adaptive duel over the socket
//!    ([`Duel::run_with`] metering every observe-choose-ingest round
//!    trip).
//!
//! With `--tcp` the binary instead runs the **TCP soak suite** against
//! the event-driven server and its binary frame protocol:
//!
//! * **soak** — `--soak-clients` concurrent connections (10 000 by
//!   default, a few hundred under `--quick`) all established and alive
//!   at once, driven by a small pool of driver threads sending
//!   pipelined binary batches; the fd soft limit is raised toward the
//!   hard limit first and the effective cap is reported (the client
//!   count degrades gracefully instead of dying mid-soak);
//! * **binary vs text** — the same ingest+query workload through one
//!   text connection (sequential round trips) and one binary connection
//!   (pipelined frames); the binary wire must sustain >= 2x the text
//!   ops/s;
//! * **determinism** — the deterministic frame schedule ingested over
//!   the binary endpoint must publish a snapshot bit-identical to the
//!   offline [`ShardedSummary`] run.
//!
//! With `--cluster` the binary instead drives the **multi-node
//! cluster** — real `cluster_node` processes behind a [`ClusterRouter`]
//! — measuring routed-ingest throughput, checking the coordinator's
//! merged view bit-identical against the offline [`ShardedSummary`]
//! run, and playing the **full attack registry**'s adaptive duels
//! across the cluster boundary (observe the merged view, choose, ingest
//! through the router).
//!
//! With `--tenants <N>` the binary instead runs the **multi-tenant
//! arena suite**: a keyed workload (`--tenant-workload`, default
//! `tenant-zipf`) over `N` tenants streamed through a budgeted
//! [`TenantArena`] — throughput and eviction churn measured with the
//! resident set pinned under the byte budget and the process RSS under
//! a fixed envelope — then a **bit-identity audit**: sampled tenants
//! (including evicted-and-revived ones) must answer exactly like
//! isolated reservoirs fed only their own substream. The same audit is
//! replayed over the binary wire (`TINGEST`/`TSNAPSHOT` against a
//! [`ServiceServer`] with its arena enabled, `STATS` accounting
//! round-tripped) and across a real 3-node cluster (the mod-N tenant
//! deal must not change any tenant's sample).
//!
//! ```text
//! loadgen --quick                      # CI smoke: all four modes, seconds
//! loadgen --tcp --quick                # CI soak: event-loop server, binary wire
//! loadgen --tcp --soak-clients 10000   # full 10k-connection soak
//! loadgen --cluster --nodes 3 --quick  # multi-node cluster boundary
//! loadgen --tenants 50000 --quick      # CI arena: keyed soak + identity audit
//! loadgen --tenants 1000000            # the million-tenant arena soak
//! loadgen --clients 8 --duration 4     # longer local measurement
//! loadgen --workload zipf --attack bisection --port 7777
//! ```

use robust_sampling_bench::matrix::ROBUST_EPS;
use robust_sampling_bench::{banner, f, init_cli, is_quick, micros, verdict, Table};
use robust_sampling_core::attack::Duel;
use robust_sampling_core::engine::{ShardedSummary, StreamSummary};
use robust_sampling_core::sampler::{ReservoirSampler, StreamSampler};
use robust_sampling_service::tenant::{tenant_seed, TenantArena, TenantArenaConfig};
use robust_sampling_service::{
    frame, ChildGuard, ClusterConfig, ClusterDefense, ClusterRouter, QueryHandle, Request,
    Response, ServiceClient, ServiceConfig, ServiceServer, SummaryService,
};
use robust_sampling_sketches::kll::KllSketch;
use robust_sampling_streamgen as streamgen;
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Per-shard reservoir capacity for every mode.
const LOCAL_K: usize = 256;
/// Elements per in-process ingest frame.
const FRAME: usize = 256;
/// The deterministic frame schedule (cycled) for modes 2 and 3 — awkward
/// sizes on purpose, so split points exercise the round-robin deal.
const DET_SCHEDULE: [usize; 6] = [997, 256, 513, 1024, 64, 2048];

struct ClientReport {
    ops: u64,
    elems: u64,
    latency: KllSketch,
}

fn lat_sketch(seed: u64) -> KllSketch {
    KllSketch::with_seed(256, seed)
}

fn merge_reports(reports: Vec<ClientReport>) -> (u64, u64, KllSketch) {
    let mut ops = 0;
    let mut elems = 0;
    let mut lat = lat_sketch(0);
    for r in reports {
        ops += r.ops;
        elems += r.elems;
        lat.merge(r.latency);
    }
    (ops, elems, lat)
}

/// Served operations for the throughput verdict: every ingested element
/// plus every answered query counts as one operation (a query client's
/// report has `elems == 0`, an ingest client's `ops` are frames — already
/// accounted element-wise).
fn served_ops(reports: &[ClientReport]) -> u64 {
    reports
        .iter()
        .map(|r| if r.elems > 0 { r.elems } else { r.ops })
        .sum()
}

fn push_row(table: &mut Table, mode: &str, clients: usize, secs: f64, ops: u64, lat: &KllSketch) {
    table.row(&[
        mode.to_string(),
        clients.to_string(),
        f(secs),
        ops.to_string(),
        format!("{:.0}", ops as f64 / secs),
        f(micros(lat, 0.5)),
        f(micros(lat, 0.99)),
        f(micros(lat, 0.999)),
    ]);
}

fn service(shards: usize, seed: u64, epoch_every: usize) -> SummaryService<ReservoirSampler<u64>> {
    SummaryService::start(shards, seed, epoch_every, |_, s| {
        ReservoirSampler::with_seed(LOCAL_K, s)
    })
}

/// Mode 1: concurrent in-process ingest + queries for `secs` seconds.
/// Returns (served ops, total protocol ops, latency sketch).
fn run_in_process(
    w: &'static streamgen::WorkloadSpec,
    clients: usize,
    secs: f64,
) -> (u64, u64, KllSketch) {
    let svc = Mutex::new(service(2, 42, 4 * FRAME));
    let handle: QueryHandle<ReservoirSampler<u64>> =
        svc.lock().expect("service lock").query_handle();
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let universe = 1u64 << 20;
    let queriers = clients.saturating_sub(1).max(1);
    std::thread::scope(|scope| {
        let ingest = scope.spawn(|| {
            // An effectively endless source: re-open the workload whenever
            // a huge-but-finite run dries up.
            let mut lat = lat_sketch(1);
            let mut ops = 0u64;
            let mut elems = 0u64;
            let mut frame = Vec::with_capacity(FRAME);
            let mut source = w.source(usize::MAX >> 8, universe, 7);
            while Instant::now() < deadline {
                frame.clear();
                if source.next_chunk(&mut frame, FRAME) == 0 {
                    source = w.source(usize::MAX >> 8, universe, 7);
                    continue;
                }
                let t0 = Instant::now();
                svc.lock().expect("service lock").ingest_frame(&frame);
                lat.observe(t0.elapsed().as_nanos() as u64);
                ops += 1;
                elems += frame.len() as u64;
            }
            ClientReport {
                ops,
                elems,
                latency: lat,
            }
        });
        let query_handles: Vec<_> = (0..queriers)
            .map(|c| {
                let handle = handle.clone();
                scope.spawn(move || {
                    let mut lat = lat_sketch(2 + c as u64);
                    let mut ops = 0u64;
                    while Instant::now() < deadline {
                        let t0 = Instant::now();
                        let snap = handle.snapshot();
                        match ops % 4 {
                            0 => {
                                let _ = snap.quantile(0.5);
                            }
                            1 => {
                                let _ = snap.quantile(0.99);
                            }
                            2 => {
                                let _ = snap.count(ops.wrapping_mul(2_654_435_761) % universe);
                            }
                            _ => {
                                let _ = snap.ks_uniform(universe);
                            }
                        }
                        lat.observe(t0.elapsed().as_nanos() as u64);
                        ops += 1;
                    }
                    ClientReport {
                        ops,
                        elems: 0,
                        latency: lat,
                    }
                })
            })
            .collect();
        let mut reports = vec![ingest.join().expect("ingest client panicked")];
        for h in query_handles {
            reports.push(h.join().expect("query client panicked"));
        }
        let served = served_ops(&reports);
        let (ops, _, lat) = merge_reports(reports);
        (served, ops, lat)
    })
}

/// The deterministic frame schedule for modes 2 and 3.
fn det_frames(w: &'static streamgen::WorkloadSpec, n: usize, universe: u64) -> Vec<Vec<u64>> {
    let mut source = w.source(n, universe, 11);
    let mut frames = Vec::new();
    let mut i = 0usize;
    loop {
        let mut frame = Vec::new();
        if source.next_chunk(&mut frame, DET_SCHEDULE[i % DET_SCHEDULE.len()]) == 0 {
            return frames;
        }
        frames.push(frame);
        i += 1;
    }
}

fn main() {
    // Hidden soak-server mode: `--tcp-serve` turns this process into a
    // bare server child for the `--tcp` suite (see run_tcp_serve).
    if std::env::args().any(|a| a == "--tcp-serve") {
        run_tcp_serve();
        return;
    }
    init_cli();
    let quick = is_quick();
    let clients = robust_sampling_bench::clients(if quick { 4 } else { 8 });
    let secs = robust_sampling_bench::duration_secs(if quick { 1.0 } else { 4.0 });
    let port = robust_sampling_bench::port();
    let w = robust_sampling_bench::workload()
        .unwrap_or_else(|| streamgen::workload("uniform").expect("uniform is registered"));
    let atk = robust_sampling_bench::attack().unwrap_or_else(|| {
        robust_sampling_core::attack::attack("median-hunt").expect("registered")
    });
    let universe = 1u64 << 20;

    if robust_sampling_bench::is_tcp() {
        run_tcp_soak_suite(quick, w, port, universe);
        return;
    }
    if robust_sampling_bench::is_cluster() {
        run_cluster_suite(quick, w, universe);
        return;
    }
    if let Some(tenants) = robust_sampling_bench::tenants() {
        run_tenant_suite(quick, tenants, port, universe);
        return;
    }

    banner(
        "LOADGEN",
        "serving-layer load generator (throughput + latency)",
        "concurrent ingest+query through epoch snapshots; snapshots bit-identical \
         to the offline sharded run; checkpoint/restore changes no answer",
    );
    println!(
        "\nclients = {clients}, duration = {secs}s/mode, workload = {}, attack = {}, \
         port = {} (0 = ephemeral), per-shard k = {LOCAL_K}",
        w.name, atk.name, port
    );

    let mut table = Table::new(&[
        "mode", "clients", "secs", "ops", "ops/s", "p50_us", "p99_us", "p999_us",
    ]);

    // ---- Mode 1: in-process concurrent ingest + query ------------------
    let t0 = Instant::now();
    let (served, _protocol_ops, lat) = run_in_process(w, clients, secs);
    let elapsed = t0.elapsed().as_secs_f64();
    let inproc_ops_per_sec = served as f64 / elapsed;
    push_row(&mut table, "in-process", clients, elapsed, served, &lat);

    // ---- Mode 2: served vs offline determinism -------------------------
    let n_det = if quick { 200_000 } else { 2_000_000 };
    let frames = det_frames(w, n_det, universe);
    let mut svc = service(4, 42, 8_192);
    let mut offline = ShardedSummary::new(4, 42, |_, s| ReservoirSampler::with_seed(LOCAL_K, s));
    let t0 = Instant::now();
    let mut det_lat = lat_sketch(3);
    for frame in &frames {
        let f0 = Instant::now();
        svc.ingest_frame(frame);
        det_lat.observe(f0.elapsed().as_nanos() as u64);
        offline.ingest_batch(frame);
    }
    svc.publish();
    let det_secs = t0.elapsed().as_secs_f64();
    let served_sample = svc.snapshot().summary().sample().to_vec();
    let offline_sample = offline.merged().sample().to_vec();
    let det_identical = served_sample == offline_sample;
    push_row(
        &mut table,
        "determinism",
        1,
        det_secs,
        n_det as u64,
        &det_lat,
    );

    // ---- Mode 3: checkpoint/restore mid-run ----------------------------
    let half = frames.len() / 2;
    let mut whole = service(4, 42, 8_192);
    let mut prefix = service(4, 42, 8_192);
    for frame in &frames[..half] {
        whole.ingest_frame(frame);
        prefix.ingest_frame(frame);
    }
    let t0 = Instant::now();
    let bytes = prefix.checkpoint();
    drop(prefix);
    let mut restored =
        SummaryService::<ReservoirSampler<u64>>::restore(&bytes).expect("restore checkpoint");
    let ckpt_secs = t0.elapsed().as_secs_f64();
    for frame in &frames[half..] {
        whole.ingest_frame(frame);
        restored.ingest_frame(frame);
    }
    whole.publish();
    restored.publish();
    let (a, b) = (whole.snapshot(), restored.snapshot());
    let ckpt_identical = a.summary().sample() == b.summary().sample()
        && a.epoch() == b.epoch()
        && a.quantile(0.5) == b.quantile(0.5)
        && a.quantile(0.999) == b.quantile(0.999)
        && a.count(123) == b.count(123)
        && a.ks_uniform(universe) == b.ks_uniform(universe)
        && a.heavy(0.01) == b.heavy(0.01);
    println!(
        "\ncheckpoint: {} bytes saved+restored in {}s (mid-run, {} of {} frames)",
        bytes.len(),
        f(ckpt_secs),
        half,
        frames.len()
    );

    // ---- Mode 4: TCP — workload clients + an attack duel ---------------
    let server = ServiceServer::spawn(
        service(2, 7, 64),
        ServiceConfig {
            addr: format!("127.0.0.1:{port}"),
            universe,
            workers: 4,
            tenants: None,
        },
    )
    .expect("bind loadgen port");
    let addr = server.addr();
    println!("tcp: serving on {addr}");
    let tcp_frames: usize = if quick { 64 } else { 512 };
    let duel_rounds = if quick { 128 } else { 512 };
    let tcp_workers = clients.saturating_sub(1).max(1);
    let t0 = Instant::now();
    let reports: Vec<ClientReport> = std::thread::scope(|scope| {
        let workload_clients: Vec<_> = (0..tcp_workers)
            .map(|c| {
                scope.spawn(move || {
                    let client = ServiceClient::connect(addr).expect("connect workload client");
                    let mut source = w.source(tcp_frames * 128, 1 << 20, 100 + c as u64);
                    let mut lat = lat_sketch(50 + c as u64);
                    let mut ops = 0u64;
                    let mut elems = 0u64;
                    let mut frame = Vec::with_capacity(128);
                    loop {
                        frame.clear();
                        if source.next_chunk(&mut frame, 128) == 0 {
                            break;
                        }
                        let q0 = Instant::now();
                        client.ingest(&frame).expect("INGEST");
                        lat.observe(q0.elapsed().as_nanos() as u64);
                        elems += frame.len() as u64;
                        ops += 1;
                        if ops.is_multiple_of(8) {
                            let q0 = Instant::now();
                            let _ = client.query_quantile(0.5).expect("QUANTILE");
                            lat.observe(q0.elapsed().as_nanos() as u64);
                            ops += 1;
                        }
                    }
                    client.quit().expect("QUIT");
                    ClientReport {
                        ops,
                        elems,
                        latency: lat,
                    }
                })
            })
            .collect();
        let duel = scope.spawn(move || {
            let mut client = ServiceClient::connect(addr).expect("connect attack client");
            let mut strategy = atk.build(duel_rounds, universe, 9);
            let mut lat = lat_sketch(99);
            let mut last = Instant::now();
            let _ =
                Duel::new(duel_rounds, universe).run_with(&mut client, &mut strategy, |_, _| {
                    let now = Instant::now();
                    lat.observe((now - last).as_nanos() as u64);
                    last = now;
                });
            client.quit().expect("QUIT");
            ClientReport {
                ops: duel_rounds as u64,
                elems: duel_rounds as u64,
                latency: lat,
            }
        });
        let mut reports: Vec<ClientReport> = workload_clients
            .into_iter()
            .map(|h| h.join().expect("workload client panicked"))
            .collect();
        reports.push(duel.join().expect("attack client panicked"));
        reports
    });
    let tcp_secs = t0.elapsed().as_secs_f64();
    let expected_items: u64 = reports.iter().map(|r| r.elems).sum();
    let check = ServiceClient::connect(addr).expect("connect checker");
    let stats = check.stats().expect("STATS");
    let final_snapshot = check.snapshot().expect("SNAPSHOT");
    check.quit().expect("QUIT");
    server.shutdown();
    let (tcp_ops, _, tcp_lat) = merge_reports(reports);
    push_row(
        &mut table,
        "tcp",
        tcp_workers + 1,
        tcp_secs,
        tcp_ops,
        &tcp_lat,
    );

    println!();
    table.emit("loadgen", "latency");

    // ---- Verdicts (exit is nonzero iff any verdict FAILs) --------------
    println!();
    let throughput_ok = inproc_ops_per_sec >= 1.0e6;
    let latency_ok = micros(&lat, 0.5) > 0.0 && micros(&lat, 0.999) >= micros(&lat, 0.5);
    let tcp_ok = stats.items as u64 == expected_items && final_snapshot.2.len() <= LOCAL_K;
    verdict(
        "in-process concurrent ingest+query sustains >= 1M ops/s",
        throughput_ok,
        &format!("{:.0} ops/s over {}s", inproc_ops_per_sec, f(elapsed)),
    );
    verdict(
        "latency percentiles populated (KLL-measured)",
        latency_ok,
        &format!(
            "in-process p50/p99/p999 = {}/{}/{} us",
            f(micros(&lat, 0.5)),
            f(micros(&lat, 0.99)),
            f(micros(&lat, 0.999))
        ),
    );
    verdict(
        "served snapshot bit-identical to the offline sharded run",
        det_identical,
        &format!(
            "{} frames, {} elements, {} retained",
            frames.len(),
            n_det,
            served_sample.len()
        ),
    );
    verdict(
        "checkpoint/restore mid-run changes no query answer",
        ckpt_identical,
        &format!(
            "{} bytes, quantile/count/ks/hh + sample all identical",
            bytes.len()
        ),
    );
    verdict(
        "tcp service consistent under concurrent clients + adaptive attack",
        tcp_ok,
        &format!(
            "items {} == sum of client ingests {}, snapshot sample {} <= k {}",
            stats.items,
            expected_items,
            final_snapshot.2.len(),
            LOCAL_K
        ),
    );
    if !(throughput_ok && latency_ok && det_identical && ckpt_identical && tcp_ok) {
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// The --tcp soak suite: event-loop server + binary frame protocol.
// ---------------------------------------------------------------------------

/// INGEST frames per pipelined soak batch.
const SOAK_BATCH_FRAMES: usize = 4;
/// Elements per soak INGEST frame.
const SOAK_FRAME_ELEMS: usize = 64;
/// Soak latency must stay bounded: p999 batch round trip under this
/// many microseconds, even with ten thousand live connections.
const SOAK_P999_CAP_US: f64 = 250_000.0;

/// One soak batch, pre-encoded: the wire bytes are identical for every
/// connection and round, so drivers write one shared buffer. Returns
/// (bytes, responses expected back).
fn soak_batch() -> (Vec<u8>, usize) {
    let vals: Vec<u64> = (0..SOAK_FRAME_ELEMS as u64)
        .map(|i| i.wrapping_mul(2_654_435_761) % (1 << 20))
        .collect();
    let mut bytes = Vec::new();
    for _ in 0..SOAK_BATCH_FRAMES {
        frame::encode_request(&Request::Ingest(vals.clone()), &mut bytes);
    }
    frame::encode_request(&Request::QueryQuantile(0.5), &mut bytes);
    (bytes, SOAK_BATCH_FRAMES + 1)
}

/// Read exactly `want` binary responses from `stream`, failing on any
/// `ERR` or framing violation. The soak protocol is strictly
/// batch-synchronous per connection, so the read buffer is empty again
/// when the batch completes.
fn read_soak_responses(
    stream: &mut std::net::TcpStream,
    rbuf: &mut Vec<u8>,
    scratch: &mut [u8],
    want: usize,
) -> std::io::Result<()> {
    use std::io::Read;
    let mut got = 0usize;
    let mut pos = 0usize;
    while got < want {
        match frame::decode_response(&rbuf[pos..]) {
            Ok(Some((Response::Err(msg), _))) => {
                return Err(std::io::Error::other(format!("service error: {msg}")));
            }
            Ok(Some((_, consumed))) => {
                pos += consumed;
                got += 1;
            }
            Ok(None) => {
                let n = stream.read(scratch)?;
                if n == 0 {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "server hung up mid-batch",
                    ));
                }
                rbuf.extend_from_slice(&scratch[..n]);
            }
            Err(e) => return Err(std::io::Error::other(format!("frame error: {e}"))),
        }
    }
    rbuf.clear();
    Ok(())
}

/// Connect with a short retry ladder — under a ten-thousand-connection
/// storm the listener's backlog can momentarily fill.
fn connect_soak(addr: std::net::SocketAddr) -> std::io::Result<std::net::TcpStream> {
    let mut last = None;
    for attempt in 0..20 {
        match std::net::TcpStream::connect(addr) {
            Ok(s) => {
                s.set_nodelay(true)?;
                return Ok(s);
            }
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(5 * (attempt + 1)));
            }
        }
    }
    Err(last.unwrap_or_else(|| std::io::Error::other("connect retries exhausted")))
}

/// One throughput leg for the binary-vs-text verdict: ingest `m` elements
/// (256 per frame, one QUANTILE probe per 8 frames) over one connection.
/// The text leg round-trips sequentially — the line protocol has no
/// framing to pipeline safely; the binary leg pipelines 8-frame batches.
/// Returns (elements/sec, ops, latency per round trip).
fn wire_leg(
    addr: std::net::SocketAddr,
    binary: bool,
    w: &'static streamgen::WorkloadSpec,
    m: usize,
    universe: u64,
) -> (f64, u64, KllSketch) {
    let client = if binary {
        ServiceClient::connect_binary(addr).expect("connect binary leg")
    } else {
        ServiceClient::connect(addr).expect("connect text leg")
    };
    let mut source = w.source(m, universe, 31);
    let mut lat = lat_sketch(if binary { 71 } else { 72 });
    let mut ops = 0u64;
    let mut elems = 0u64;
    let t0 = Instant::now();
    if binary {
        let mut batch: Vec<Request> = Vec::with_capacity(9);
        loop {
            batch.clear();
            for _ in 0..8 {
                let mut frame = Vec::with_capacity(FRAME);
                if source.next_chunk(&mut frame, FRAME) == 0 {
                    break;
                }
                elems += frame.len() as u64;
                batch.push(Request::Ingest(frame));
            }
            if batch.is_empty() {
                break;
            }
            batch.push(Request::QueryQuantile(0.5));
            let q0 = Instant::now();
            let resps = client.pipeline(&batch).expect("pipelined batch");
            lat.observe(q0.elapsed().as_nanos() as u64);
            ops += resps.len() as u64;
        }
    } else {
        let mut frame = Vec::with_capacity(FRAME);
        loop {
            frame.clear();
            if source.next_chunk(&mut frame, FRAME) == 0 {
                break;
            }
            let q0 = Instant::now();
            client.ingest(&frame).expect("INGEST");
            lat.observe(q0.elapsed().as_nanos() as u64);
            elems += frame.len() as u64;
            ops += 1;
            if ops.is_multiple_of(8) {
                let q0 = Instant::now();
                let _ = client.query_quantile(0.5).expect("QUANTILE");
                lat.observe(q0.elapsed().as_nanos() as u64);
                ops += 1;
            }
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    client.quit().expect("QUIT");
    (elems as f64 / secs, ops, lat)
}

/// The `--tcp-serve` child: a bare soak server on an ephemeral port.
/// Prints `LISTENING <addr>` for the parent, raises its own fd limit,
/// and serves until the parent closes its stdin (the shutdown signal —
/// robust even if the parent dies, since EOF arrives either way).
fn run_tcp_serve() {
    use std::io::{Read, Write};
    let _ = rlimit::increase_nofile_limit(1 << 20);
    let server = ServiceServer::spawn(
        service(4, 42, 4_096),
        ServiceConfig {
            addr: "127.0.0.1:0".into(),
            universe: 1 << 20,
            workers: 4,
            tenants: None,
        },
    )
    .expect("bind soak-serve port");
    let mut stdout = std::io::stdout();
    writeln!(stdout, "LISTENING {}", server.addr()).expect("announce addr");
    stdout.flush().expect("flush addr");
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    server.shutdown();
}

/// Spawn the soak server as a child process. The ten-thousand-client
/// soak needs two fds per connection — one per side — and `RLIMIT_NOFILE`
/// is per *process*, so splitting client and server sides across two
/// processes doubles the budget a capped container allows. The child is
/// returned behind a [`ChildGuard`], so a client panicking mid-soak
/// kills the server subprocess instead of leaking it.
fn spawn_soak_server() -> (ChildGuard, std::net::SocketAddr) {
    use std::io::BufRead;
    let exe = std::env::current_exe().expect("current exe");
    let mut child = std::process::Command::new(exe)
        .arg("--tcp-serve")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn soak server subprocess");
    let stdout = child.stdout.take().expect("child stdout");
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read LISTENING line");
    let addr = line
        .trim()
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("soak server announced {line:?}"))
        .parse()
        .expect("parse announced addr");
    (ChildGuard::new(child), addr)
}

/// `loadgen --tcp`: the soak suite against the event-driven server.
fn run_tcp_soak_suite(quick: bool, w: &'static streamgen::WorkloadSpec, port: u16, universe: u64) {
    banner(
        "LOADGEN --tcp",
        "TCP soak: event-loop server + binary frame protocol",
        "every connection concurrently live on the fixed worker pool; pipelined \
         binary batches; binary wire >= 2x text; served snapshot bit-identical \
         to the offline sharded run",
    );

    // ---- fd budget -----------------------------------------------------
    // The soak server runs as a subprocess with its own RLIMIT_NOFILE, so
    // this process only holds the client side: one fd per connection.
    let requested = robust_sampling_bench::soak_clients(if quick { 400 } else { 10_000 });
    let needed = (requested + 256) as u64;
    let (soft0, hard0) = rlimit::getrlimit_nofile().unwrap_or((0, 0));
    let effective = rlimit::increase_nofile_limit(needed).unwrap_or(soft0);
    let n_clients = if effective < needed {
        // Report the effective cap and degrade instead of dying mid-soak.
        (effective.saturating_sub(256)).max(16) as usize
    } else {
        requested
    };
    println!(
        "\nfd limit: soft {soft0} / hard {hard0} -> effective {effective} \
         (needed {needed} for {requested} client-side connections); \
         soaking {n_clients} clients (server side lives in a subprocess \
         with its own limit)"
    );

    let mut table = Table::new(&[
        "mode", "clients", "secs", "ops", "ops/s", "p50_us", "p99_us", "p999_us",
    ]);

    // ---- leg 1: the many-connection soak -------------------------------
    let (mut soak_server, addr) = spawn_soak_server();
    println!("tcp-soak: serving on {addr} (subprocess)");

    let t0 = Instant::now();
    let mut conns: Vec<std::net::TcpStream> = Vec::with_capacity(n_clients);
    let mut connect_failures = 0usize;
    for _ in 0..n_clients {
        match connect_soak(addr) {
            Ok(s) => conns.push(s),
            Err(_) => connect_failures += 1,
        }
    }
    let connected = conns.len();
    println!(
        "established {connected}/{n_clients} connections in {}s ({connect_failures} failures)",
        f(t0.elapsed().as_secs_f64())
    );

    let rounds = if quick { 2 } else { 3 };
    let drivers = 8.min(connected.max(1));
    let (batch_bytes, batch_resps) = soak_batch();
    let mut shares: Vec<Vec<std::net::TcpStream>> = (0..drivers).map(|_| Vec::new()).collect();
    for (i, c) in conns.into_iter().enumerate() {
        shares[i % drivers].push(c);
    }
    let t0 = Instant::now();
    let (reports, batch_failures) = std::thread::scope(|scope| {
        let handles: Vec<_> = shares
            .into_iter()
            .enumerate()
            .map(|(d, mut share)| {
                let batch_bytes = &batch_bytes;
                scope.spawn(move || {
                    use std::io::Write;
                    let mut lat = lat_sketch(200 + d as u64);
                    let mut ops = 0u64;
                    let mut elems = 0u64;
                    let mut failures = 0usize;
                    let mut rbuf = Vec::new();
                    let mut scratch = vec![0u8; 64 * 1024];
                    for _ in 0..rounds {
                        for conn in &mut share {
                            let q0 = Instant::now();
                            let ok = conn.write_all(batch_bytes).is_ok()
                                && read_soak_responses(conn, &mut rbuf, &mut scratch, batch_resps)
                                    .is_ok();
                            if ok {
                                lat.observe(q0.elapsed().as_nanos() as u64);
                                ops += batch_resps as u64;
                                elems += (SOAK_BATCH_FRAMES * SOAK_FRAME_ELEMS) as u64;
                            } else {
                                failures += 1;
                                rbuf.clear();
                            }
                        }
                    }
                    (
                        ClientReport {
                            ops,
                            elems,
                            latency: lat,
                        },
                        failures,
                    )
                })
            })
            .collect();
        let mut reports = Vec::new();
        let mut failures = 0usize;
        for h in handles {
            let (r, fails) = h.join().expect("soak driver panicked");
            reports.push(r);
            failures += fails;
        }
        (reports, failures)
    });
    let soak_secs = t0.elapsed().as_secs_f64();
    let soak_elems: u64 = reports.iter().map(|r| r.elems).sum();
    let (soak_ops, _, soak_lat) = merge_reports(reports);
    // The service must account for exactly the elements that were acked.
    let check = ServiceClient::connect_binary(addr).expect("connect checker");
    let soak_items_ok = check.stats().expect("STATS").items as u64 == soak_elems;
    check.quit().expect("QUIT");
    drop(soak_server.inner_mut().stdin.take()); // EOF = shutdown signal
    let _ = soak_server.wait(); // graceful: disarms the guard's drop-kill
    push_row(
        &mut table, "soak", connected, soak_secs, soak_ops, &soak_lat,
    );

    // ---- leg 2: binary wire vs text wire, same workload ----------------
    let m = if quick { 200_000 } else { 2_000_000 };
    let server = ServiceServer::spawn(
        service(2, 7, 4_096),
        ServiceConfig {
            addr: format!("127.0.0.1:{port}"),
            universe,
            workers: 2,
            tenants: None,
        },
    )
    .expect("bind wire-leg port");
    let addr = server.addr();
    // Neighbour interference on a shared core can depress either leg;
    // like perf_trajectory's check gate, re-measure an apparently-losing
    // comparison and keep each leg's best rate — a genuine protocol
    // regression is slow on every attempt, a noise episode is not.
    let (mut text_rate, mut text_ops, mut text_lat) = wire_leg(addr, false, w, m, universe);
    let (mut bin_rate, mut bin_ops, mut bin_lat) = wire_leg(addr, true, w, m, universe);
    for attempt in 1..=2 {
        if bin_rate / text_rate >= 2.0 {
            break;
        }
        println!("wire legs: apparent <2x speedup, re-measuring (attempt {attempt}/2)");
        let (tr, to, tl) = wire_leg(addr, false, w, m, universe);
        if tr > text_rate {
            (text_rate, text_ops, text_lat) = (tr, to, tl);
        }
        let (br, bo, bl) = wire_leg(addr, true, w, m, universe);
        if br > bin_rate {
            (bin_rate, bin_ops, bin_lat) = (br, bo, bl);
        }
    }
    server.shutdown();
    push_row(
        &mut table,
        "text",
        1,
        m as f64 / text_rate,
        text_ops,
        &text_lat,
    );
    push_row(
        &mut table,
        "binary",
        1,
        m as f64 / bin_rate,
        bin_ops,
        &bin_lat,
    );

    // ---- leg 3: served determinism over the binary endpoint ------------
    let n_det = if quick { 100_000 } else { 1_000_000 };
    let frames = det_frames(w, n_det, universe);
    let mut offline = ShardedSummary::new(4, 42, |_, s| ReservoirSampler::with_seed(LOCAL_K, s));
    for frame in &frames {
        offline.ingest_batch(frame);
    }
    let server = ServiceServer::spawn(
        service(4, 42, 1),
        ServiceConfig {
            addr: format!("127.0.0.1:{port}"),
            universe,
            workers: 2,
            tenants: None,
        },
    )
    .expect("bind determinism port");
    let det_client = ServiceClient::connect_binary(server.addr()).expect("connect det client");
    let t0 = Instant::now();
    let mut det_lat = lat_sketch(3);
    let reqs: Vec<Request> = frames.iter().map(|f| Request::Ingest(f.clone())).collect();
    for chunk in reqs.chunks(16) {
        let q0 = Instant::now();
        det_client.pipeline(chunk).expect("pipelined det ingest");
        det_lat.observe(q0.elapsed().as_nanos() as u64);
    }
    let det_secs = t0.elapsed().as_secs_f64();
    let (_, det_items, det_sample) = det_client.snapshot().expect("SNAPSHOT");
    det_client.quit().expect("QUIT");
    server.shutdown();
    let det_identical = det_sample == offline.merged().sample() && det_items == n_det;
    push_row(
        &mut table,
        "determinism",
        1,
        det_secs,
        n_det as u64,
        &det_lat,
    );

    println!();
    table.emit("loadgen-tcp", "latency");

    // ---- verdicts ------------------------------------------------------
    println!();
    let soak_ok = connected == n_clients && batch_failures == 0 && soak_items_ok;
    let p999 = micros(&soak_lat, 0.999);
    let p999_ok = p999 > 0.0 && p999 <= SOAK_P999_CAP_US;
    let speedup = bin_rate / text_rate;
    let speedup_ok = speedup >= 2.0;
    verdict(
        "soak: every connection served, every batch acked, items consistent",
        soak_ok,
        &format!(
            "{connected}/{n_clients} connected, {batch_failures} failed batches, \
             {soak_elems} elements accounted"
        ),
    );
    verdict(
        "soak: p999 batch round trip bounded",
        p999_ok,
        &format!(
            "p50/p99/p999 = {}/{}/{} us (cap {} us, {} live connections)",
            f(micros(&soak_lat, 0.5)),
            f(micros(&soak_lat, 0.99)),
            f(p999),
            SOAK_P999_CAP_US,
            connected
        ),
    );
    verdict(
        "binary frame protocol >= 2x text protocol throughput",
        speedup_ok,
        &format!(
            "binary {:.0} elems/s vs text {:.0} elems/s ({:.2}x, {} elements each)",
            bin_rate, text_rate, speedup, m
        ),
    );
    verdict(
        "served snapshot over the binary wire bit-identical to offline run",
        det_identical,
        &format!("{} frames, {} elements, pipelined x16", frames.len(), n_det),
    );
    if !(soak_ok && p999_ok && speedup_ok && det_identical) {
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// The --cluster suite: the multi-node router/coordinator boundary.
// ---------------------------------------------------------------------------

/// Per-node reservoir capacity for the cluster duel leg — small on
/// purpose (the `attack_matrix` scale), so the registry's adversaries
/// bite within a CI-sized round budget.
const CLUSTER_DUEL_K: usize = 32;

/// `loadgen --cluster`: the multi-node suite. Real `cluster_node`
/// processes sit behind a [`ClusterRouter`]; the coordinator's merged
/// view must be bit-identical to the offline [`ShardedSummary`] run of
/// the same schedule, and the **full attack registry** plays its
/// adaptive duels across the cluster boundary — every observe step
/// pulls the merged global view over TCP, every ingest is routed — with
/// the coordinator's accounting consistent after every duel.
fn run_cluster_suite(quick: bool, w: &'static streamgen::WorkloadSpec, universe: u64) {
    let nodes = robust_sampling_bench::cluster_nodes(3);
    banner(
        "LOADGEN --cluster",
        "multi-node cluster: replicated routing + coordinator merge",
        "the router's deal matches the offline sharded deal bit-identically; \
         the full attack registry duels the cluster boundary without a single \
         accounting inconsistency",
    );
    println!(
        "\nnodes = {nodes}, workload = {}, per-node k = {LOCAL_K} (ingest leg) / \
         {CLUSTER_DUEL_K} (duel legs)",
        w.name
    );

    let mut table = Table::new(&[
        "mode", "clients", "secs", "ops", "ops/s", "p50_us", "p99_us", "p999_us",
    ]);

    // ---- leg 1: routed ingest throughput + merged-view determinism -----
    let n_det = if quick { 50_000 } else { 500_000 };
    let frames = det_frames(w, n_det, universe);
    let mut offline =
        ShardedSummary::new(nodes, 42, |_, s| ReservoirSampler::with_seed(LOCAL_K, s));
    for frame in &frames {
        offline.ingest_batch(frame);
    }
    let mut router = ClusterRouter::start(ClusterConfig {
        nodes,
        base_seed: 42,
        epoch_every: 1,
        cap: LOCAL_K,
        universe,
        workers: 2,
        tenant_budget_bytes: None,
    })
    .expect("start ingest cluster");
    let mut ing_lat = lat_sketch(5);
    let t0 = Instant::now();
    for frame in &frames {
        let q0 = Instant::now();
        router.ingest(frame).expect("cluster ingest");
        ing_lat.observe(q0.elapsed().as_nanos() as u64);
    }
    let ing_secs = t0.elapsed().as_secs_f64();
    let view = router
        .global_view::<ReservoirSampler<u64>>()
        .expect("global view");
    let merged = offline.merged();
    let det_identical = view.summary().sample() == merged.sample() && view.items() == n_det;
    push_row(
        &mut table,
        "cluster-ingest",
        1,
        ing_secs,
        n_det as u64,
        &ing_lat,
    );
    drop(router);

    // ---- leg 2: the full attack registry vs the cluster boundary -------
    let rounds = if quick { 64 } else { 256 };
    let mut duels_ok = true;
    let n_attacks = robust_sampling_core::attack::registry().len();
    for (i, spec) in robust_sampling_core::attack::registry().iter().enumerate() {
        let duel_router = ClusterRouter::start(ClusterConfig {
            nodes,
            base_seed: 9,
            epoch_every: 1,
            cap: CLUSTER_DUEL_K,
            universe,
            workers: 1,
            tenant_budget_bytes: None,
        })
        .expect("start duel cluster");
        let mut defense = ClusterDefense::<ReservoirSampler<u64>>::new(duel_router);
        let mut strategy = spec.build(rounds, universe, 9);
        let mut lat = lat_sketch(300 + i as u64);
        let mut last = Instant::now();
        let t0 = Instant::now();
        let outcome = Duel::new(rounds, universe).run_with(&mut defense, &mut strategy, |_, _| {
            let now = Instant::now();
            lat.observe((now - last).as_nanos() as u64);
            last = now;
        });
        let secs = t0.elapsed().as_secs_f64();
        let duel_view = defense
            .router_mut()
            .global_view::<ReservoirSampler<u64>>()
            .expect("duel global view");
        let ok = duel_view.items() == rounds
            && duel_view.items() == defense.router_mut().items_routed()
            && outcome.final_sample.len() <= CLUSTER_DUEL_K;
        if !ok {
            println!(
                "duel:{}: INCONSISTENT (view items {}, routed {}, sample {})",
                spec.name,
                duel_view.items(),
                defense.router_mut().items_routed(),
                outcome.final_sample.len()
            );
        }
        duels_ok &= ok;
        push_row(
            &mut table,
            &format!("duel:{}", spec.name),
            1,
            secs,
            rounds as u64,
            &lat,
        );
    }

    println!();
    table.emit("loadgen-cluster", "latency");

    // ---- verdicts ------------------------------------------------------
    println!();
    verdict(
        "cluster merged view bit-identical to the offline sharded run",
        det_identical,
        &format!(
            "{} nodes, {} frames, {} elements routed",
            nodes,
            frames.len(),
            n_det
        ),
    );
    verdict(
        "full attack registry vs the cluster boundary: accounting consistent",
        duels_ok,
        &format!(
            "{n_attacks} attacks x {rounds} adaptive rounds, merged items == routed, \
             sample <= k = {CLUSTER_DUEL_K}"
        ),
    );
    if !(det_identical && duels_ok) {
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------------
// The --tenants suite: the multi-tenant arena under keyed traffic.
// ---------------------------------------------------------------------------

/// Resident-slot byte budget for the arena soak — fixed regardless of
/// tenant count, so a million-tenant run proves the budget is a real
/// cap, not a function of load.
const TENANT_BUDGET_BYTES: usize = 64 << 20;
/// RSS growth envelope for the soak: resident slots + right-sized cold
/// checkpoints + map overhead for every tenant ever seen.
const TENANT_RSS_CAP_BYTES: usize = 1 << 30;
/// Keyed pairs per timed soak chunk (one latency observation each).
const TENANT_CHUNK: usize = 4_096;
/// Per-tenant failure probability for the arena sizing.
const TENANT_DELTA: f64 = 0.1;

/// This process's resident-set size, from `/proc/self/status` (`VmRSS`
/// is reported in kB, so no page-size assumption). `None` off Linux.
fn rss_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Pick `want` audit tenants spread evenly through the keyed stream —
/// the zipf head lands in the set alongside long-tail tenants.
fn audit_tenants(pairs: &[(u64, u64)], want: usize) -> Vec<u64> {
    let mut audit = Vec::new();
    for i in 0..want {
        let t = pairs[i * (pairs.len() - 1) / (want - 1).max(1)].0;
        if !audit.contains(&t) {
            audit.push(t);
        }
    }
    audit
}

/// The audited tenants' substreams, in stream order — exactly what an
/// isolated per-tenant summary would have seen.
fn audit_substreams(pairs: &[(u64, u64)], audit: &[u64]) -> HashMap<u64, Vec<u64>> {
    let mut subs: HashMap<u64, Vec<u64>> = audit.iter().map(|&t| (t, Vec::new())).collect();
    for &(t, v) in pairs {
        if let Some(s) = subs.get_mut(&t) {
            s.push(v);
        }
    }
    subs
}

/// Group one chunk of keyed pairs into per-tenant frames. Grouping is
/// stable, so each tenant's substream order — the only order its
/// sampler can see — is preserved exactly.
fn tenant_frames(chunk: &[(u64, u64)]) -> BTreeMap<u64, Vec<u64>> {
    let mut groups: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for &(t, v) in chunk {
        groups.entry(t).or_default().push(v);
    }
    groups
}

/// `loadgen --tenants <N>`: the multi-tenant arena suite. One budgeted
/// [`TenantArena`] absorbs a keyed workload over `N` tenants — most of
/// them evicted to checkpoints at any instant — and every answer must
/// still be bit-identical to an isolated per-tenant reservoir: in
/// process, over the binary wire, and across a real 3-node cluster.
fn run_tenant_suite(quick: bool, tenants: u64, port: u16, universe: u64) {
    let kw = robust_sampling_bench::tenant_workload()
        .unwrap_or_else(|| streamgen::keyed_workload("tenant-zipf").expect("registered"));
    banner(
        "LOADGEN --tenants",
        "multi-tenant arena: budgeted eviction under keyed traffic",
        "resident bytes never exceed the budget; every sampled tenant — \
         including evicted-and-revived ones — answers bit-identically to an \
         isolated Thm 1.2-sized reservoir fed only its own substream",
    );
    let base_seed = 42u64;
    let config = TenantArenaConfig {
        universe,
        eps: ROBUST_EPS,
        delta: TENANT_DELTA,
        budget_bytes: TENANT_BUDGET_BYTES,
        base_seed,
        robust: true,
    };
    let n = (tenants as usize)
        .saturating_mul(8)
        .clamp(200_000, 16_000_000);
    let mut arena = TenantArena::new(config);
    println!(
        "\ntenants = {tenants}, workload = {} ({}), n = {n} keyed pairs\n\
         per-tenant k = {} (eps = {ROBUST_EPS}, delta = {TENANT_DELTA}), slot = {} bytes, \
         budget = {} MiB -> {} resident slots",
        kw.name,
        kw.shape,
        arena.reservoir_k(),
        arena.slot_bytes(),
        TENANT_BUDGET_BYTES >> 20,
        arena.max_resident(),
    );

    let mut table = Table::new(&[
        "mode", "clients", "secs", "ops", "ops/s", "p50_us", "p99_us", "p999_us",
    ]);

    // ---- leg 1: the arena soak -----------------------------------------
    // Generate before measuring RSS, so the envelope charges the arena —
    // not the workload buffer.
    let pairs = kw.spec.generate(n, tenants, universe, 7);
    let rss0 = rss_bytes();
    let mut lat = lat_sketch(17);
    let mut budget_ok = true;
    let t0 = Instant::now();
    for chunk in pairs.chunks(TENANT_CHUNK) {
        let c0 = Instant::now();
        for &(t, v) in chunk {
            arena.ingest(t, &[v]);
        }
        lat.observe(c0.elapsed().as_nanos() as u64);
        budget_ok &= arena.resident_bytes() <= config.budget_bytes
            && arena.resident_tenants() <= arena.max_resident();
    }
    let soak_secs = t0.elapsed().as_secs_f64();
    let rss1 = rss_bytes();
    let ops_per_sec = n as f64 / soak_secs;
    let counters = arena.counters();
    push_row(&mut table, "tenant-ingest", 1, soak_secs, n as u64, &lat);
    let rss_delta = match (rss0, rss1) {
        (Some(a), Some(b)) => Some(b.saturating_sub(a)),
        _ => None,
    };
    println!(
        "arena after soak: {} known tenants ({} resident, {} bytes hot, {} bytes cold), \
         {} created / {} evictions / {} revivals, rss delta {}",
        arena.known_tenants(),
        arena.resident_tenants(),
        arena.resident_bytes(),
        arena.cold_bytes(),
        counters.created,
        counters.evictions,
        counters.revivals,
        rss_delta.map_or("unavailable".into(), |d| format!("{} MiB", d >> 20)),
    );

    // ---- leg 2: per-tenant bit-identity audit --------------------------
    // Spread-sampling the stream lands on the zipf head (hot, resident
    // tenants); explicitly add checkpointed tenants so the audit covers
    // the evicted-and-revived path too.
    let mut audit = audit_tenants(&pairs, 12);
    for &(t, _) in &pairs {
        if audit.len() >= 16 {
            break;
        }
        if !arena.is_resident(t) && !audit.contains(&t) {
            audit.push(t);
        }
    }
    let substreams = audit_substreams(&pairs, &audit);
    let mut audit_ok = true;
    let mut cold_audited = 0usize;
    for &t in &audit {
        let mut iso =
            ReservoirSampler::<u64>::with_seed(arena.reservoir_k(), tenant_seed(base_seed, t));
        for &v in &substreams[&t] {
            iso.observe(v);
        }
        if !arena.is_resident(t) {
            cold_audited += 1;
        }
        audit_ok &= arena.sample(t) == iso.sample() && arena.items(t) == iso.observed();
    }

    // ---- leg 3: the binary wire (TINGEST/TSNAPSHOT + STATS) ------------
    // A deliberately tiny arena (48 slots for up to 512 tenants) behind
    // a real server: the churn happens between wire frames now.
    let wire_tenants = 512u64.min(tenants);
    let wire_n = if quick { 20_000 } else { 100_000 };
    let wire_cfg = TenantArenaConfig {
        budget_bytes: 48 * arena.slot_bytes(),
        ..config
    };
    let server = ServiceServer::spawn(
        service(2, 7, 4_096),
        ServiceConfig {
            addr: format!("127.0.0.1:{port}"),
            universe,
            workers: 2,
            tenants: Some(wire_cfg),
        },
    )
    .expect("bind tenant port");
    let client = ServiceClient::connect_binary(server.addr()).expect("connect tenant client");
    let wire_pairs = kw.spec.generate(wire_n, wire_tenants, universe, 13);
    let mut wire_lat = lat_sketch(18);
    let mut sent: HashMap<u64, usize> = HashMap::new();
    let mut wire_acks_ok = true;
    let t0 = Instant::now();
    for chunk in wire_pairs.chunks(1_024) {
        let c0 = Instant::now();
        for (t, vs) in tenant_frames(chunk) {
            let total = sent.entry(t).or_default();
            *total += vs.len();
            // The ack is the tenant's running item total on the server.
            wire_acks_ok &= client.tenant_ingest(t, &vs).expect("TINGEST") == *total;
        }
        wire_lat.observe(c0.elapsed().as_nanos() as u64);
    }
    let wire_secs = t0.elapsed().as_secs_f64();
    push_row(
        &mut table,
        "tenant-wire",
        1,
        wire_secs,
        wire_n as u64,
        &wire_lat,
    );
    // Offline comparator: one unconstrained arena replays the audited
    // substreams, so count/quantile conventions match by construction.
    let wire_audit = audit_tenants(&wire_pairs, 8);
    let wire_subs = audit_substreams(&wire_pairs, &wire_audit);
    let mut offline = TenantArena::new(TenantArenaConfig {
        budget_bytes: usize::MAX >> 8,
        ..wire_cfg
    });
    let mut wire_audit_ok = true;
    for &t in &wire_audit {
        offline.ingest(t, &wire_subs[&t]);
        let (items, sample) = client.tenant_snapshot(t).expect("TSNAPSHOT");
        wire_audit_ok &= items == offline.items(t) && sample == offline.sample(t);
        wire_audit_ok &=
            client.tenant_quantile(t, 0.5).expect("TQUERY") == offline.quantile(t, 0.5);
        let probe = wire_subs[&t][0];
        wire_audit_ok &= client.tenant_count(t, probe).expect("TQUERY") == offline.count(t, probe);
    }
    let stats = client.stats().expect("STATS");
    let wire_stats_ok = stats.arena_tenants == sent.len()
        && stats.arena_bytes <= wire_cfg.budget_bytes
        && stats.arena_evictions > 0;
    client.quit().expect("QUIT");
    server.shutdown();

    // ---- leg 4: the cluster deal (tenant t owned by node t mod N) ------
    let nodes = 3usize;
    let cl_tenants = 96u64.min(tenants);
    let cl_n = if quick { 6_000 } else { 30_000 };
    let router = ClusterRouter::start(ClusterConfig {
        nodes,
        base_seed,
        epoch_every: 1,
        cap: LOCAL_K,
        universe,
        workers: 1,
        tenant_budget_bytes: Some(8 * arena.slot_bytes()),
    })
    .expect("start tenant cluster");
    let cl_pairs = kw.spec.generate(cl_n, cl_tenants, universe, 29);
    let mut cl_lat = lat_sketch(19);
    let t0 = Instant::now();
    for chunk in cl_pairs.chunks(512) {
        let c0 = Instant::now();
        for (t, vs) in tenant_frames(chunk) {
            router.tenant_ingest(t, &vs).expect("cluster TINGEST");
        }
        cl_lat.observe(c0.elapsed().as_nanos() as u64);
    }
    let cl_secs = t0.elapsed().as_secs_f64();
    push_row(
        &mut table,
        "tenant-cluster",
        1,
        cl_secs,
        cl_n as u64,
        &cl_lat,
    );
    // Every node's arena is seeded with the *cluster* base seed, so the
    // mod-N deal relocates tenants without changing a single sample.
    let cl_audit = audit_tenants(&cl_pairs, 8);
    let cl_subs = audit_substreams(&cl_pairs, &cl_audit);
    let mut cl_audit_ok = true;
    let mut nodes_hit = [false; 3];
    for &t in &cl_audit {
        nodes_hit[(t % nodes as u64) as usize] = true;
        let mut iso =
            ReservoirSampler::<u64>::with_seed(arena.reservoir_k(), tenant_seed(base_seed, t));
        for &v in &cl_subs[&t] {
            iso.observe(v);
        }
        let (items, sample) = router.tenant_snapshot(t).expect("cluster TSNAPSHOT");
        cl_audit_ok &= items == iso.observed() && sample == iso.sample();
    }
    drop(router);

    println!();
    table.emit("loadgen-tenants", "latency");

    // ---- verdicts ------------------------------------------------------
    println!();
    let throughput_ok = ops_per_sec >= 1.0e6;
    let rss_ok = rss_delta.is_none_or(|d| d <= TENANT_RSS_CAP_BYTES);
    let identity_ok = audit_ok && counters.revivals > 0 && cold_audited > 0;
    let wire_ok = wire_acks_ok && wire_audit_ok && wire_stats_ok;
    let cluster_ok = cl_audit_ok && nodes_hit.iter().all(|&h| h);
    verdict(
        "arena ingest sustains >= 1M keyed ops/s",
        throughput_ok,
        &format!("{ops_per_sec:.0} ops/s over {}s ({n} pairs)", f(soak_secs)),
    );
    verdict(
        "memory stays budgeted: hot bytes <= budget at every chunk, RSS enveloped",
        budget_ok && rss_ok,
        &format!(
            "hot {} <= budget {}, cold {} MiB for {} checkpointed tenants, rss delta {} \
             (cap {} MiB)",
            arena.resident_bytes(),
            config.budget_bytes,
            arena.cold_bytes() >> 20,
            arena.known_tenants() - arena.resident_tenants(),
            rss_delta.map_or("unavailable".into(), |d| format!("{} MiB", d >> 20)),
            TENANT_RSS_CAP_BYTES >> 20,
        ),
    );
    verdict(
        "audited tenants bit-identical to isolated reservoirs (incl. revived)",
        identity_ok,
        &format!(
            "{} tenants audited, {} cold at audit time, {} revivals during soak",
            audit.len(),
            cold_audited,
            counters.revivals
        ),
    );
    verdict(
        "wire arena: acks, snapshots, count/quantile, STATS all consistent",
        wire_ok,
        &format!(
            "{} tenants over the wire, {} audited, {} evictions server-side",
            sent.len(),
            wire_audit.len(),
            stats.arena_evictions
        ),
    );
    verdict(
        "cluster deal preserves every audited tenant's sample across nodes",
        cluster_ok,
        &format!(
            "{} tenants audited across {} nodes (all residues hit)",
            cl_audit.len(),
            nodes
        ),
    );
    if !(throughput_ok && budget_ok && rss_ok && identity_ok && wire_ok && cluster_ok) {
        std::process::exit(1);
    }
}
