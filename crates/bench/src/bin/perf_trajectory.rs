//! Kernel timings, and the paired A/B gate built on them.
//!
//! ```text
//! perf_trajectory --quick                      # measure + print every row
//! perf_trajectory --quick --csv <dir>          # also write each table as CSV
//! perf_trajectory --quick --ab <parent-binary> # CI gate: 10 alternating pairs
//! ```
//!
//! Four tables of rows, each with a `full` and a `quick` shape:
//!
//! * **ingest** — batched summary ingestion over a materialized stream:
//!   the two skip-sampling samplers, Count-Min, KLL, and the two
//!   table/inversion generators (elem/s);
//! * **stream** — the lazy constant-memory pipeline: scenario-registry
//!   source → frame loop → summary (elem/s);
//! * **serve** — the epoch-snapshot service: frame ingestion and a
//!   mixed query rotation (quantile 0.5 / 0.99, count, KS), with per-op
//!   p50/p99 latency from our own KLL sketch (ops/s), plus the same two
//!   paths driven over the binary TCP wire through the event-loop server
//!   (`serve-tcp-ingest-pipelined`, `serve-tcp-mixed-queries`), plus two
//!   data-path kernels: `serve-publish-stall` (frame ingestion with an
//!   inline clone-and-merge publish every 8 frames, publishes/s) and
//!   `serve-alloc-per-op` (the binary-payload ingest path), plus the two
//!   multi-node cluster kernels: `cluster-ingest` (frames dealt to real
//!   node processes through the [`ClusterRouter`], elem/s) and
//!   `cluster-failover-gap` (the full SIGKILL→restore→replay recovery
//!   of one node, replayed-frames/s), plus the two multi-tenant arena
//!   kernels: `tenant-ingest` (the keyed hot path — tenant-zipf stream
//!   into a resident arena, elem/s) and `tenant-evict-revive` (a
//!   slot-squeezed arena where every touch is an eviction plus a cold
//!   revival, touches/s);
//! * **grid** — in-process served ingest by shard count: a
//!   `SummaryService` of K ∈ {1, 2, 4} reservoir shards with capacity
//!   k ∈ {1,253, 20,000}, fed 256- or 4,096-element frames through
//!   `ingest_frame` (a slice) or `ingest_frame_le` (a binary `INGEST`
//!   payload), elem/s.
//!
//! Every row is timed as a best-of-N minimum after an untimed warm-up
//! ([`ab::best_of`]). A single run gates nothing: `--ab` runs the parent
//! binary and this one alternately and judges each row, matched by
//! kernel name, on its pairs ([`ab::judge`]). When a row fails, it runs
//! as many pairs again and judges every row on all of them; it exits 1
//! when a row still fails.

use robust_sampling_bench::ab::{self, best_of};
use robust_sampling_bench::{ab_parent, banner, init_cli, is_quick, micros, Table};
use robust_sampling_core::sampler::{BernoulliSampler, ReservoirSampler, StreamSampler};
use robust_sampling_service::tenant::{TenantArena, TenantArenaConfig};
use robust_sampling_service::{
    ClusterConfig, ClusterRouter, Request, ServiceClient, ServiceConfig, ServiceServer,
    SummaryService,
};
use robust_sampling_sketches::count_min::CountMin;
use robust_sampling_sketches::kll::KllSketch;
use robust_sampling_streamgen as streamgen;
use robust_sampling_streamgen::StreamSource;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// Elements per serving frame (the in-process gate of `tests/serving_gates.rs`).
const FRAME: usize = 256;

struct Shape {
    name: &'static str,
    /// Ingest-area stream length.
    ingest_n: usize,
    /// Stream-area pipeline length.
    stream_n: usize,
    /// Serve-area fixed operation counts (frames ingested, queries run).
    serve_frames: usize,
    serve_queries: usize,
    /// Timed repetitions per scenario (minimum is reported).
    reps: usize,
    /// Repetitions for the sub-millisecond skip-sampling kernels: their
    /// whole measurement fits inside one scheduler quantum, so they need
    /// many more chances to land on an undisturbed slice.
    reps_fast: usize,
    /// Elements streamed per grid-cell run.
    grid_n: usize,
    /// Timed repetitions per grid cell.
    grid_reps: usize,
}

const FULL: Shape = Shape {
    name: "full",
    ingest_n: 10_000_000,
    stream_n: 20_000_000,
    serve_frames: 2_000,
    serve_queries: 20_000,
    reps: 5,
    reps_fast: 25,
    grid_n: 200_000_000,
    grid_reps: 5,
};

const QUICK: Shape = Shape {
    name: "quick",
    ingest_n: 2_000_000,
    stream_n: 2_000_000,
    serve_frames: 400,
    serve_queries: 4_000,
    reps: 7,
    reps_fast: 25,
    grid_n: 40_000_000,
    grid_reps: 3,
};

fn scrambled(n: usize) -> Vec<u64> {
    (0..n as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect()
}

/// One timed row: a kernel's rate at one shape.
struct Row {
    kernel: String,
    n: u64,
    rate: f64,
    p50_us: f64,
    p99_us: f64,
}

fn entry(kernel: &str, n: usize, secs: f64) -> Row {
    Row {
        kernel: kernel.to_string(),
        n: n as u64,
        rate: n as f64 / secs,
        p50_us: 0.0,
        p99_us: 0.0,
    }
}

// ---------------------------------------------------------------------------
// Area: ingest
// ---------------------------------------------------------------------------

fn measure_ingest(shape: &Shape) -> Vec<Row> {
    let n = shape.ingest_n;
    let xs = scrambled(n);
    let universe = 1u64 << 20;
    let mut entries = Vec::new();

    entries.push(entry(
        "bernoulli-batch",
        n,
        best_of(shape.reps_fast, || {
            let mut s = BernoulliSampler::with_seed(0.001, 1);
            s.observe_batch(&xs);
            assert!(!s.sample().is_empty());
        }),
    ));
    entries.push(entry(
        "reservoir-batch",
        n,
        best_of(shape.reps_fast, || {
            let mut s = ReservoirSampler::with_seed(4096, 1);
            s.observe_batch(&xs);
            assert_eq!(s.sample().len(), 4096);
        }),
    ));
    entries.push(entry(
        "count-min-batch",
        n,
        best_of(shape.reps, || {
            let mut s = CountMin::with_seed(4, 1 << 16, 9);
            s.observe_batch(&xs);
        }),
    ));
    entries.push(entry(
        "kll-ingest",
        n,
        best_of(shape.reps, || {
            let mut s = KllSketch::with_seed(200, 9);
            s.observe_batch(&xs);
            assert_eq!(s.observed(), n as u64);
        }),
    ));

    // Generator kernels: the cost of *producing* a stream. The zipf table
    // is process-cached, so after the warm-up rep only the inverse-CDF
    // draw path is timed — exactly the hot path the hybrid table speeds.
    let mut frame = Vec::with_capacity(4096);
    entries.push(entry(
        "zipf-gen",
        n,
        best_of(shape.reps, || {
            let mut src = streamgen::ZipfSource::new(n, universe, 1.1, 7);
            let mut left = n;
            while left > 0 {
                frame.clear();
                let got = src.next_chunk(&mut frame, 4096);
                assert!(got > 0);
                left -= got;
            }
        }),
    ));
    entries.push(entry(
        "pareto-gen",
        n,
        best_of(shape.reps, || {
            let mut src = streamgen::ParetoSource::new(n, universe, 1.5, 7);
            let mut left = n;
            while left > 0 {
                frame.clear();
                let got = src.next_chunk(&mut frame, 4096);
                assert!(got > 0);
                left -= got;
            }
        }),
    ));
    entries
}

// ---------------------------------------------------------------------------
// Area: stream
// ---------------------------------------------------------------------------

/// Drain a lazy workload source into a summary ingest callback in
/// 65_536-element frames, constant memory.
fn drain(w: &'static streamgen::WorkloadSpec, n: usize, mut ingest: impl FnMut(&[u64])) {
    const PIPE_FRAME: usize = 65_536;
    let mut src = w.source(n, 1 << 20, 3);
    let mut frame = Vec::with_capacity(PIPE_FRAME);
    loop {
        frame.clear();
        if src.next_chunk(&mut frame, PIPE_FRAME) == 0 {
            break;
        }
        ingest(&frame);
    }
}

fn measure_stream(shape: &Shape) -> Vec<Row> {
    let n = shape.stream_n;
    let uniform = streamgen::workload("uniform").expect("uniform is registered");
    let zipf = streamgen::workload("zipf").expect("zipf is registered");
    vec![
        entry(
            "pipeline-reservoir",
            n,
            best_of(shape.reps, || {
                let mut s = ReservoirSampler::with_seed(4096, 5);
                drain(uniform, n, |chunk| s.observe_batch(chunk));
                assert_eq!(s.observed(), n);
            }),
        ),
        entry(
            "pipeline-kll",
            n,
            best_of(shape.reps, || {
                let mut s = KllSketch::with_seed(200, 5);
                drain(zipf, n, |chunk| s.observe_batch(chunk));
                assert_eq!(s.observed(), n as u64);
            }),
        ),
    ]
}

// ---------------------------------------------------------------------------
// Area: serve
// ---------------------------------------------------------------------------

fn measure_serve(shape: &Shape) -> Vec<Row> {
    let universe = 1u64 << 20;
    let mut entries = Vec::new();

    // Frame ingestion into the sharded epoch-snapshot service; one op =
    // one element, latency measured per frame.
    {
        let frames = shape.serve_frames;
        let xs = scrambled(frames * FRAME);
        let mut best = f64::INFINITY;
        let mut lat = KllSketch::with_seed(256, 1);
        for rep in 0..=shape.reps {
            let mut svc =
                SummaryService::start(2, 42, 4 * FRAME, |_, s| ReservoirSampler::with_seed(256, s));
            let mut rep_lat = KllSketch::with_seed(256, 1);
            let t = Instant::now();
            for f in xs.chunks(FRAME) {
                let t0 = Instant::now();
                svc.ingest_frame(f);
                rep_lat.observe(t0.elapsed().as_nanos() as u64);
            }
            let secs = t.elapsed().as_secs_f64();
            // Rep 0 is the warm-up; afterwards keep the fastest rep.
            if rep > 0 && secs < best {
                best = secs;
                lat = rep_lat;
            }
        }
        entries.push(Row {
            kernel: "serve-ingest-frames".to_string(),
            n: (frames * FRAME) as u64,
            rate: (frames * FRAME) as f64 / best,
            p50_us: micros(&lat, 0.5),
            p99_us: micros(&lat, 0.99),
        });
    }

    // The mixed query rotation (quantile 0.5 / 0.99, count, KS; the
    // rotation `tests/serving_gates.rs` times under concurrent ingest),
    // against a service pre-loaded with one batch of frames.
    {
        let queries = shape.serve_queries;
        let mut svc =
            SummaryService::start(2, 42, 4 * FRAME, |_, s| ReservoirSampler::with_seed(256, s));
        for f in scrambled(shape.serve_frames * FRAME).chunks(FRAME) {
            svc.ingest_frame(f);
        }
        let handle = svc.query_handle();
        let mut best = f64::INFINITY;
        let mut lat = KllSketch::with_seed(256, 2);
        for rep in 0..=shape.reps {
            let mut rep_lat = KllSketch::with_seed(256, 2);
            let t = Instant::now();
            for op in 0..queries as u64 {
                let t0 = Instant::now();
                let snap = handle.snapshot();
                match op % 4 {
                    0 => {
                        let _ = snap.quantile(0.5);
                    }
                    1 => {
                        let _ = snap.quantile(0.99);
                    }
                    2 => {
                        let _ = snap.count(op.wrapping_mul(2_654_435_761) % universe);
                    }
                    _ => {
                        let _ = snap.ks_uniform(universe);
                    }
                }
                rep_lat.observe(t0.elapsed().as_nanos() as u64);
            }
            let secs = t.elapsed().as_secs_f64();
            if rep > 0 && secs < best {
                best = secs;
                lat = rep_lat;
            }
        }
        entries.push(Row {
            kernel: "serve-mixed-queries".to_string(),
            n: queries as u64,
            rate: queries as f64 / best,
            p50_us: micros(&lat, 0.5),
            p99_us: micros(&lat, 0.99),
        });
    }

    // Publish-rate kernel: frame ingestion with an epoch published every
    // CADENCE frames, on a deliberately large reservoir (2×16K) so each
    // publish clones and merges a real amount of state. The persisted
    // entry is publishes/s over the whole run, with per-frame latency.
    {
        const CADENCE: usize = 8;
        let frames = shape.serve_frames;
        let publishes = frames / CADENCE;
        let xs = scrambled(frames * FRAME);
        let mut lat = KllSketch::with_seed(256, 5);
        let mut best = f64::INFINITY;
        for rep in 0..=shape.reps {
            let mut svc = SummaryService::start(2, 42, CADENCE * FRAME, |_, s| {
                ReservoirSampler::with_seed(16_384, s)
            });
            let mut rep_lat = KllSketch::with_seed(256, 5);
            let t = Instant::now();
            for f in xs.chunks(FRAME) {
                let t0 = Instant::now();
                svc.ingest_frame(f);
                rep_lat.observe(t0.elapsed().as_nanos() as u64);
            }
            let secs = t.elapsed().as_secs_f64();
            if rep > 0 && secs < best {
                best = secs;
                lat = rep_lat;
            }
        }
        entries.push(Row {
            kernel: "serve-publish-stall".to_string(),
            n: publishes as u64,
            rate: publishes as f64 / best,
            p50_us: micros(&lat, 0.5),
            p99_us: micros(&lat, 0.99),
        });
    }

    // Allocation-per-op kernel: the binary-payload ingest path
    // (`ingest_frame_le`), with per-frame latency from a pre-reserved
    // vector so the measured window itself stays allocation-free
    // (`tests/alloc_free_service.rs` pins that path to zero
    // steady-state allocations).
    {
        let frames = shape.serve_frames;
        let n = frames * FRAME;
        let mut payload = Vec::with_capacity(8 * n);
        for &v in &scrambled(n) {
            payload.extend_from_slice(&v.to_le_bytes());
        }
        let mut svc = SummaryService::start(2, 42, usize::MAX, |_, s| {
            ReservoirSampler::with_seed(256, s)
        });
        let mut lat_ns: Vec<u64> = Vec::with_capacity(frames);
        let mut best = f64::INFINITY;
        let mut best_lat: Vec<u64> = Vec::new();
        for rep in 0..=shape.reps {
            lat_ns.clear();
            let t = Instant::now();
            for p in payload.chunks(8 * FRAME) {
                let t0 = Instant::now();
                svc.ingest_frame_le(p);
                lat_ns.push(t0.elapsed().as_nanos() as u64);
            }
            let secs = t.elapsed().as_secs_f64();
            if rep > 0 && secs < best {
                best = secs;
                best_lat.clone_from(&lat_ns);
            }
        }
        best_lat.sort_unstable();
        let q = |f: f64| -> f64 {
            best_lat[((f * best_lat.len() as f64) as usize).min(best_lat.len() - 1)] as f64
                / 1_000.0
        };
        entries.push(Row {
            kernel: "serve-alloc-per-op".to_string(),
            n: n as u64,
            rate: n as f64 / best,
            p50_us: q(0.5),
            p99_us: q(0.99),
        });
    }

    // The same frame stream pushed through the binary TCP wire: batches
    // of pipelined INGEST frames against the event-loop server; one op =
    // one element, latency measured per pipelined batch.
    {
        const PIPE: usize = 16;
        let frames = shape.serve_frames;
        let n = frames * FRAME;
        let reqs: Vec<Request> = scrambled(n)
            .chunks(FRAME)
            .map(|f| Request::Ingest(f.to_vec()))
            .collect();
        let mut best = f64::INFINITY;
        let mut lat = KllSketch::with_seed(256, 3);
        for rep in 0..=shape.reps {
            let server = spawn_bench_server(universe);
            let client =
                ServiceClient::connect_binary(server.addr()).expect("connect serve-tcp client");
            let mut rep_lat = KllSketch::with_seed(256, 3);
            let t = Instant::now();
            for batch in reqs.chunks(PIPE) {
                let t0 = Instant::now();
                let resps = client.pipeline(batch).expect("pipelined INGEST batch");
                assert_eq!(resps.len(), batch.len(), "pipelining preserves arity");
                rep_lat.observe(t0.elapsed().as_nanos() as u64);
            }
            let secs = t.elapsed().as_secs_f64();
            let acked = client.stats().expect("STATS after ingest").items;
            assert_eq!(acked, n, "every pipelined element acked");
            client.quit().expect("QUIT");
            if rep > 0 && secs < best {
                best = secs;
                lat = rep_lat;
            }
        }
        entries.push(Row {
            kernel: "serve-tcp-ingest-pipelined".to_string(),
            n: n as u64,
            rate: n as f64 / best,
            p50_us: micros(&lat, 0.5),
            p99_us: micros(&lat, 0.99),
        });
    }

    // The mixed query rotation as sequential binary round-trips against
    // a pre-loaded server: per-op latency here is a true request RTT
    // through poller, dispatch, and snapshot read.
    {
        let queries = shape.serve_queries;
        let server = spawn_bench_server(universe);
        let client =
            ServiceClient::connect_binary(server.addr()).expect("connect serve-tcp client");
        for f in scrambled(shape.serve_frames * FRAME).chunks(FRAME) {
            client.ingest(f).expect("preload INGEST");
        }
        let mut best = f64::INFINITY;
        let mut lat = KllSketch::with_seed(256, 4);
        for rep in 0..=shape.reps {
            let mut rep_lat = KllSketch::with_seed(256, 4);
            let t = Instant::now();
            for op in 0..queries as u64 {
                let t0 = Instant::now();
                match op % 4 {
                    0 => {
                        let _ = client.query_quantile(0.5).expect("QUANTILE");
                    }
                    1 => {
                        let _ = client.query_quantile(0.99).expect("QUANTILE");
                    }
                    2 => {
                        let _ = client
                            .query_count(op.wrapping_mul(2_654_435_761) % universe)
                            .expect("COUNT");
                    }
                    _ => {
                        let _ = client.query_ks().expect("KS");
                    }
                }
                rep_lat.observe(t0.elapsed().as_nanos() as u64);
            }
            let secs = t.elapsed().as_secs_f64();
            if rep > 0 && secs < best {
                best = secs;
                lat = rep_lat;
            }
        }
        client.quit().expect("QUIT");
        entries.push(Row {
            kernel: "serve-tcp-mixed-queries".to_string(),
            n: queries as u64,
            rate: queries as f64 / best,
            p50_us: micros(&lat, 0.5),
            p99_us: micros(&lat, 0.99),
        });
    }

    // Routed ingestion across the multi-node cluster boundary: the same
    // frame stream dealt round-robin to real `cluster_node` processes
    // over the binary wire; one op = one element, latency per routed
    // frame (stride encode and queue, plus the writes and ack reads that
    // fall due). The clock stops after one `global_view`, which flushes
    // every queued frame and reads every owed ack, so the rate counts
    // delivered work.
    {
        let frames = shape.serve_frames;
        let n = frames * FRAME;
        let xs = scrambled(n);
        let mut best = f64::INFINITY;
        let mut lat = KllSketch::with_seed(256, 6);
        for rep in 0..=shape.reps {
            let mut router = spawn_bench_cluster(universe);
            let mut rep_lat = KllSketch::with_seed(256, 6);
            let t = Instant::now();
            for f in xs.chunks(FRAME) {
                let t0 = Instant::now();
                router.ingest(f).expect("cluster ingest");
                rep_lat.observe(t0.elapsed().as_nanos() as u64);
            }
            router
                .global_view::<ReservoirSampler<u64>>()
                .expect("cluster view");
            let secs = t.elapsed().as_secs_f64();
            assert_eq!(router.items_routed(), n, "every element routed");
            for j in 0..router.config().nodes {
                let (_, _, hwm, _) = router
                    .node_epoch_state::<ReservoirSampler<u64>>(j)
                    .expect("node epoch state");
                assert_eq!(hwm, router.frames_sent(j), "every frame applied");
            }
            if rep > 0 && secs < best {
                best = secs;
                lat = rep_lat;
            }
        }
        entries.push(Row {
            kernel: "cluster-ingest".to_string(),
            n: n as u64,
            rate: n as f64 / best,
            p50_us: micros(&lat, 0.5),
            p99_us: micros(&lat, 0.99),
        });
    }

    // Failover recovery gap: checkpoint half-way through the schedule,
    // keep streaming, then SIGKILL a node and restore it — the timed op
    // is the whole recovery (fresh process spawn, RESTORE envelope,
    // replay of the retained frame window); one op = one replayed
    // frame, latency per recovery.
    {
        let frames = shape.serve_frames;
        let xs = scrambled(frames * FRAME);
        let half = frames / 2;
        let mut best = f64::INFINITY;
        let mut replayed = 0u64;
        let mut lat = KllSketch::with_seed(256, 7);
        for rep in 0..=shape.reps {
            let mut router = spawn_bench_cluster(universe);
            let mut at_ckpt = 0u64;
            for (i, f) in xs.chunks(FRAME).enumerate() {
                router.ingest(f).expect("cluster ingest");
                if i + 1 == half {
                    router.checkpoint_all().expect("checkpoint");
                    at_ckpt = router.frames_sent(0);
                }
            }
            let window = router.frames_sent(0) - at_ckpt;
            router.kill_node(0);
            let t0 = Instant::now();
            router.restore_node(0).expect("restore");
            let secs = t0.elapsed().as_secs_f64();
            if rep > 0 {
                lat.observe(t0.elapsed().as_nanos() as u64);
                replayed = window;
                if secs < best {
                    best = secs;
                }
            }
        }
        entries.push(Row {
            kernel: "cluster-failover-gap".to_string(),
            n: replayed,
            rate: replayed as f64 / best,
            p50_us: micros(&lat, 0.5),
            p99_us: micros(&lat, 0.99),
        });
    }

    // Multi-tenant keyed ingestion on the fully-resident hot path: a
    // tenant-zipf stream (keyed registry) over 1024 tenants into an
    // arena whose budget holds every slot, so the measured cost is the
    // keyed-map probe + per-tenant skip-sampling — no eviction traffic.
    // One op = one element, latency per FRAME-sized chunk of pairs.
    {
        let n = shape.serve_frames * FRAME;
        let tenants = 1024u64;
        let kw = streamgen::keyed_workload("tenant-zipf").expect("tenant-zipf is registered");
        let pairs = kw.spec.generate(n, tenants, universe, 7);
        let cfg = TenantArenaConfig {
            universe,
            eps: 0.15,
            delta: 0.1,
            budget_bytes: usize::MAX >> 8,
            base_seed: 42,
            robust: true,
        };
        let mut best = f64::INFINITY;
        let mut lat = KllSketch::with_seed(256, 8);
        for rep in 0..=shape.reps {
            let mut arena = TenantArena::new(cfg);
            let mut rep_lat = KllSketch::with_seed(256, 8);
            let t = Instant::now();
            for chunk in pairs.chunks(FRAME) {
                let t0 = Instant::now();
                for &(tenant, v) in chunk {
                    arena.ingest(tenant, &[v]);
                }
                rep_lat.observe(t0.elapsed().as_nanos() as u64);
            }
            let secs = t.elapsed().as_secs_f64();
            assert_eq!(arena.counters().evictions, 0, "budget holds every tenant");
            if rep > 0 && secs < best {
                best = secs;
                lat = rep_lat;
            }
        }
        entries.push(Row {
            kernel: "tenant-ingest".to_string(),
            n: n as u64,
            rate: n as f64 / best,
            p50_us: micros(&lat, 0.5),
            p99_us: micros(&lat, 0.99),
        });
    }

    // The eviction churn path: an arena squeezed to 8 resident slots
    // touched round-robin across 32 tenants, so in steady state every
    // touch moves the LRU victim's sampler to the cold tier and
    // revives the toucher's from it. One op = one touch
    // (a 4-element ingest), latency per touch.
    {
        let touches = shape.serve_frames * 8;
        let cfg = TenantArenaConfig {
            universe,
            eps: 0.15,
            delta: 0.1,
            budget_bytes: 1, // clamped to one slot; replaced below
            base_seed: 42,
            robust: true,
        };
        let slot = TenantArena::new(cfg).slot_bytes();
        let cfg = TenantArenaConfig {
            budget_bytes: 8 * slot,
            ..cfg
        };
        let cycle = 32u64;
        let batch: Vec<u64> = (0..4u64)
            .map(|i| i.wrapping_mul(0x9E37) % universe)
            .collect();
        let mut best = f64::INFINITY;
        let mut lat = KllSketch::with_seed(256, 9);
        for rep in 0..=shape.reps {
            let mut arena = TenantArena::new(cfg);
            let mut rep_lat = KllSketch::with_seed(256, 9);
            let t = Instant::now();
            for op in 0..touches as u64 {
                let t0 = Instant::now();
                arena.ingest(op % cycle, &batch);
                rep_lat.observe(t0.elapsed().as_nanos() as u64);
            }
            let secs = t.elapsed().as_secs_f64();
            let c = arena.counters();
            assert!(
                c.revivals as usize > touches / 2,
                "steady-state touches revive from cold"
            );
            if rep > 0 && secs < best {
                best = secs;
                lat = rep_lat;
            }
        }
        entries.push(Row {
            kernel: "tenant-evict-revive".to_string(),
            n: touches as u64,
            rate: touches as f64 / best,
            p50_us: micros(&lat, 0.5),
            p99_us: micros(&lat, 0.99),
        });
    }
    entries
}

/// A fresh three-node cluster (real `cluster_node` processes) matching
/// the in-process serve kernels' shard shape.
fn spawn_bench_cluster(universe: u64) -> ClusterRouter {
    ClusterRouter::start(ClusterConfig {
        nodes: 3,
        base_seed: 42,
        epoch_every: 4 * FRAME,
        cap: 256,
        universe,
        workers: 1,
        tenant_budget_bytes: None,
    })
    .expect("start perf_trajectory cluster")
}

/// A fresh event-loop server over the same sharded service the
/// in-process kernels measure, on an ephemeral port.
fn spawn_bench_server(universe: u64) -> ServiceServer {
    let svc = SummaryService::start(2, 42, 4 * FRAME, |_, s| ReservoirSampler::with_seed(256, s));
    ServiceServer::spawn(
        svc,
        ServiceConfig {
            addr: "127.0.0.1:0".into(),
            universe,
            workers: 2,
            tenants: None,
        },
    )
    .expect("bind perf_trajectory serve-tcp port")
}

// ---------------------------------------------------------------------------
// Area: grid
// ---------------------------------------------------------------------------

/// Distinct elements the grid cycles through, so generation is not timed.
const GRID_POOL: usize = 1 << 20;

fn measure_grid(shape: &Shape) -> Vec<Row> {
    let pool: Vec<u64> = (0..GRID_POOL as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20)
        .collect();
    let bytes: Vec<u8> = pool.iter().flat_map(|v| v.to_le_bytes()).collect();
    let mut entries = Vec::new();
    for le in [false, true] {
        for k in [1_253, 20_000] {
            for frame in [256, 4_096] {
                for shards in [1, 2, 4] {
                    let n = shape.grid_n.div_ceil(frame) * frame;
                    // `best_of`'s untimed first run keeps a cell from
                    // inheriting the CPU state left by the previous
                    // cell's longer or shorter work (that alone moved
                    // K = 1 rates by 2×).
                    let secs = best_of(shape.grid_reps, || {
                        let mut svc = SummaryService::start(shards, 0, usize::MAX, |_, s| {
                            ReservoirSampler::with_seed(k, s)
                        });
                        for i in 0..n / frame {
                            let at = (i * frame) % (GRID_POOL - frame);
                            if le {
                                svc.ingest_frame_le(&bytes[8 * at..8 * (at + frame)]);
                            } else {
                                svc.ingest_frame(&pool[at..at + frame]);
                            }
                        }
                        assert_eq!(svc.items_routed(), n);
                    });
                    let path = if le { "le" } else { "slice" };
                    entries.push(entry(
                        &format!("shard-{path}-k{k}-f{frame}-K{shards}"),
                        n,
                        secs,
                    ));
                }
            }
        }
    }
    entries
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

fn print_table(section: &str, rate_key: &str, rows: &[Row]) {
    let mut table = Table::new(&["kernel", "n", rate_key, "p50_us", "p99_us"]);
    for e in rows {
        table.row(&[
            e.kernel.clone(),
            e.n.to_string(),
            format!("{:.3e}", e.rate),
            format!("{:.3}", e.p50_us),
            format!("{:.3}", e.p99_us),
        ]);
    }
    table.emit("perf_trajectory", section);
    println!();
}

/// Every `(kernel, rate)` row of the CSV tables one run wrote to `dir`.
fn read_rates(dir: &Path) -> Result<Vec<(String, f64)>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "csv"))
        .collect();
    files.sort();
    let mut rows = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        rows.extend(ab::rates(&text).map_err(|e| format!("{}: {e}", f.display()))?);
    }
    Ok(rows)
}

/// One run of `bin` with its tables written under `dir`, read back.
fn run_side(bin: &Path, dir: &Path) -> Result<Vec<(String, f64)>, String> {
    let mut cmd = Command::new(bin);
    if is_quick() {
        cmd.arg("--quick");
    }
    // Each side finds the `cluster_node` built beside it.
    cmd.arg("--csv").arg(dir).env_remove("CLUSTER_NODE_BIN");
    match cmd.output() {
        Ok(out) if out.status.success() => read_rates(dir),
        Ok(out) => Err(format!(
            "{} exited with {}:\n{}",
            bin.display(),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )),
        Err(e) => Err(format!("cannot run {}: {e}", bin.display())),
    }
}

/// Judge every row on its pairs so far, print the table and return the
/// verdicts.
fn print_judgements(rows: &[(String, [Vec<f64>; 2])], pairs: usize) -> Vec<ab::Verdict> {
    let mut table = Table::new(&[
        "kernel",
        "parent_median",
        "change_median",
        "median_ratio",
        "parent_spread",
        "won",
        "verdict",
    ]);
    // A one-sided row has no ratio, spread or pairs: print "-".
    let cell = |x: f64, text: String| if x.is_nan() { "-".to_string() } else { text };
    let mut verdicts = Vec::new();
    for (kernel, [parent, change]) in rows {
        let j = ab::judge(parent, change);
        verdicts.push(j.verdict);
        table.row(&[
            kernel.clone(),
            cell(j.parent_median, format!("{:.3e}", j.parent_median)),
            cell(j.change_median, format!("{:.3e}", j.change_median)),
            cell(j.median_ratio, format!("{:.3}", j.median_ratio)),
            cell(j.parent_spread, format!("{:.1}%", 100.0 * j.parent_spread)),
            cell(j.median_ratio, format!("{}/{}", j.won, j.pairs)),
            j.verdict.tag().to_string(),
        ]);
    }
    table.emit("perf_trajectory", "ab");
    let count = |v| verdicts.iter().filter(|&&x| x == v).count();
    println!(
        "\n{} rows: {} PASS, {} FAIL, {} UNRESOLVED, {} ONE-SIDED \
         (FAIL = the change loses >= {} of {pairs} pairs and its median ratio is below {})",
        rows.len(),
        count(ab::Verdict::Pass),
        count(ab::Verdict::Fail),
        count(ab::Verdict::Unresolved),
        count(ab::Verdict::OneSided),
        ab::losses_to_fail(pairs),
        ab::FAIL_RATIO
    );
    verdicts
}

/// `--ab <parent>`: run `parent` and this binary alternately,
/// [`ab::PAIRS`] times each with the first side alternating, each run
/// writing its tables to its own CSV directory; then judge every row on
/// its pairs. When a row fails, run [`ab::PAIRS`] more pairs and judge
/// every row again on all of them. Returns the exit code: 1 when a row
/// fails that second judgement or a run fails.
fn run_ab(parent: &Path) -> i32 {
    let this = std::env::current_exe().expect("current_exe");
    let sides = [("parent", parent), ("change", this.as_path())];
    let tmp = std::env::temp_dir().join(format!("perf_trajectory_ab_{}", std::process::id()));
    // Per kernel, in first-seen order: each side's rates, pair by pair.
    let mut rows: Vec<(String, [Vec<f64>; 2])> = Vec::new();
    let mut pairs = 0;
    let verdicts = loop {
        let target = pairs + ab::PAIRS;
        for i in pairs..target {
            for side in [i % 2, 1 - i % 2] {
                let (name, bin) = sides[side];
                let rates = match run_side(bin, &tmp.join(format!("{name}{i}"))) {
                    Ok(rates) => rates,
                    Err(e) => {
                        eprintln!("perf_trajectory --ab: {name} run {i}: {e}");
                        let _ = std::fs::remove_dir_all(&tmp);
                        return 1;
                    }
                };
                for (kernel, rate) in rates {
                    let at = match rows.iter().position(|(k, _)| *k == kernel) {
                        Some(at) => at,
                        None => {
                            rows.push((kernel, Default::default()));
                            rows.len() - 1
                        }
                    };
                    rows[at].1[side].push(rate);
                }
            }
            eprintln!("perf_trajectory --ab: pair {}/{target} done", i + 1);
        }
        pairs = target;
        let verdicts = print_judgements(&rows, pairs);
        if pairs > ab::PAIRS || !verdicts.contains(&ab::Verdict::Fail) {
            break verdicts;
        }
        println!(
            "\nA row failed on {pairs} pairs: running {} more, and judging every row on all {}.\n",
            ab::PAIRS,
            pairs + ab::PAIRS
        );
    };
    let _ = std::fs::remove_dir_all(&tmp);
    i32::from(verdicts.contains(&ab::Verdict::Fail))
}

fn main() {
    init_cli();
    if let Some(parent) = ab_parent() {
        std::process::exit(run_ab(&parent));
    }
    let shape = if is_quick() { &QUICK } else { &FULL };
    banner(
        "perf_trajectory",
        "kernel timings (gate with --ab <parent-binary>)",
        &format!(
            "fixed-shape scenarios, shape={}, best-of-{} minimum per kernel",
            shape.name, shape.reps
        ),
    );
    print_table("ingest", "elem_per_s", &measure_ingest(shape));
    print_table("stream", "elem_per_s", &measure_stream(shape));
    print_table("serve", "ops_per_s", &measure_serve(shape));
    print_table("grid", "elem_per_s", &measure_grid(shape));
}
