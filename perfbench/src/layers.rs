//! Per-layer metrics of the traced run.
//!
//! Two sources, named after the modules they time:
//!
//! * **client spans** the load generator recorded around its calls into
//!   `ServiceClient`, `ClusterRouter` and `AttackStrategy` (see
//!   [`crate::trace`]);
//! * an **in-process replay** of the workload's generated inputs through
//!   the server-side public functions, in the order the server calls
//!   them: frame decode, `SummaryService::ingest_frame_le`, the shard
//!   kernel `ReservoirSampler::observe_batch`, publish, snapshot views and
//!   queries, response encode, the `SnapshotCodec`, and `TenantArena`.
//!
//! The replay runs after the servers are gone, on this process alone.
//! Every metric is reported on every workload. A layer a workload's server
//! path never calls reads 0 where it is a client span (the `cluster.*`
//! spans outside `cluster-ingest`, `client.tenant_rtt_p50_us` outside
//! `tenant-churn`); replayed layers are always measured on this seed's
//! inputs.

use crate::bench::metric;
use crate::bench::{
    reservoir_k, tenant_config, Metric, Path, Run, Seeds, Spec, CLUSTER_NODES, DUEL_IDS, MIXED_IDS,
    SATURATION_IDS, TENANTS, UNIVERSE,
};
use crate::inputs::{values_of, Frames};
use crate::stats::{median, quantile};
use robust_sampling_core::engine::{merge_in_shard_order, SnapshotCodec};
use robust_sampling_core::sampler::{ReservoirSampler, StreamSampler};
use robust_sampling_service::frame::{self, RequestFrame};
use robust_sampling_service::{Request, Response, SummaryService, TenantArena};
use std::hint::black_box;
use std::time::Instant;

type Reservoir = ReservoirSampler<u64>;

/// Cycle frames the codec and service replays walk per pass.
const REPLAY_FRAMES: usize = 4_096;
/// Passes per replay; each metric is the median over passes.
const PASSES: usize = 5;
/// Repetitions of the small per-call timings.
const REPS: usize = 400;

fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Median over `reps` calls of `f`, in nanoseconds.
fn time_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            ns_since(t)
        })
        .collect();
    median(&samples)
}

fn p50_ns_as_us(xs: &[u64]) -> f64 {
    median(&xs.iter().map(|&n| n as f64 / 1e3).collect::<Vec<_>>())
}

/// Encode frame `i` of the cycle as the client would.
fn encode_frame(frames: &Frames, i: usize, out: &mut Vec<u8>) -> usize {
    let (tenant, xs) = frames.get(i);
    match tenant {
        Some(t) => frame::encode_tenant_ingest_slice(t, xs, out),
        None => frame::encode_ingest_slice(xs, out),
    }
    xs.len()
}

/// The ingest payload bytes of one decoded request frame.
fn payload<'a>(req: &RequestFrame<'a>) -> &'a [u8] {
    match req {
        RequestFrame::IngestLe(p) => p,
        RequestFrame::TenantIngestLe { payload, .. } => payload,
        other => panic!("replayed a non-ingest frame: {other:?}"),
    }
}

pub fn measure(spec: &Spec, seed: u64, run: &Run, frames: &Frames) -> Vec<Metric> {
    let seeds = Seeds::new(seed);
    let k = reservoir_k();
    let tr = &run.tracer;
    let mut m = Vec::new();
    let all = 0..u64::MAX;

    // ---- service::frame: codec over the workload's own frames.
    let n = frames.len().min(REPLAY_FRAMES);
    let mut wire = Vec::new();
    let mut elems = 0usize;
    let mut encode = Vec::new();
    for _ in 0..PASSES {
        wire.clear();
        elems = 0;
        let t = Instant::now();
        for i in 0..n {
            elems += encode_frame(frames, i, &mut wire);
        }
        encode.push(ns_since(t) / elems as f64);
    }
    let mut decode = Vec::new();
    let mut payloads: Vec<(usize, usize)> = Vec::with_capacity(n);
    for _ in 0..PASSES {
        payloads.clear();
        let t = Instant::now();
        let mut off = 0;
        while let Some((req, used)) =
            frame::decode_request_frame(&wire[off..]).expect("replayed frames decode")
        {
            let p = payload(&req);
            let start = p.as_ptr() as usize - wire.as_ptr() as usize;
            payloads.push((start, p.len()));
            off += used;
        }
        decode.push(ns_since(t) / elems as f64);
    }
    m.push(metric(
        "frame.encode_ns_per_elem",
        median(&encode),
        "ns/elem",
    ));
    m.push(metric(
        "frame.decode_ns_per_elem",
        median(&decode),
        "ns/elem",
    ));
    m.push(metric(
        "frame.bytes_per_elem",
        wire.len() as f64 / elems as f64,
        "B/elem",
    ));

    // ---- core::sampler: the shard kernel on the same values.
    let mut kernel = Vec::new();
    let mut single = Vec::new();
    let mut stores = 0.0;
    for pass in 0..PASSES {
        let mut s = Reservoir::with_seed(k, seeds.node ^ pass as u64);
        let t = Instant::now();
        for i in 0..n {
            s.observe_batch(frames.get(i).1);
        }
        kernel.push(ns_since(t) / elems as f64);
        stores = s.total_stored() as f64 / s.observed() as f64;
        // The single-threaded baseline of the server's job: decode each
        // wire frame and run the kernel, no threads and no socket.
        let mut s = Reservoir::with_seed(k, seeds.node ^ pass as u64);
        let mut vals = Vec::with_capacity(1 << 12);
        let t = Instant::now();
        for &(start, len) in &payloads {
            vals.clear();
            vals.extend(
                wire[start..start + len]
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte word"))),
            );
            s.observe_batch(&vals);
        }
        single.push(elems as f64 * 1e9 / ns_since(t));
        black_box(&s);
    }
    m.push(metric("sampler.ns_per_elem", median(&kernel), "ns/elem"));
    m.push(metric("sampler.stores_per_elem", stores, "ratio"));
    m.push(metric(
        "sampler.single_thread_elems_per_s",
        median(&single),
        "elem/s",
    ));

    // ---- service::service: deal, publish, views and queries.
    let mut svc = SummaryService::start(1, 0, spec.epoch_every, |_, _| {
        Reservoir::with_seed(k, seeds.node)
    });
    let mut deal = Vec::new();
    for _ in 0..PASSES {
        let t = Instant::now();
        for &(start, len) in &payloads {
            svc.ingest_frame_le(&wire[start..start + len]);
        }
        deal.push(ns_since(t) / elems as f64);
        svc.snapshot();
    }
    let (first_start, first_len) = payloads[0];
    let one_frame = &wire[first_start..first_start + first_len];
    let mut publish = Vec::new();
    let mut view = Vec::new();
    for _ in 0..REPS {
        svc.ingest_frame_le(one_frame);
        let t = Instant::now();
        let snap = svc.publish();
        publish.push(ns_since(t) / 1e3);
        let t = Instant::now();
        black_box(snap.visible_ref());
        black_box(snap.sorted_ref());
        view.push(ns_since(t) / 1e3);
    }
    let handle = svc.query_handle();
    let probe = frames.get(0).1[0];
    let query_ns = time_ns(REPS, || {
        let s = handle.snapshot();
        black_box(s.quantile(0.5));
        black_box(s.count(probe));
        black_box(s.ks_uniform(UNIVERSE));
    }) / 3.0;
    m.push(metric("service.deal_ns_per_elem", median(&deal), "ns/elem"));
    m.push(metric("service.publish_lag_us", median(&publish), "us"));
    m.push(metric("service.publishes", run.publishes as f64, "count"));
    m.push(metric("service.query_ns", query_ns, "ns"));
    m.push(metric("service.view_build_us", median(&view), "us"));

    // Server-side work of one request of each kind, replayed.
    let snap = svc.snapshot();
    let mut out = Vec::with_capacity(1 << 16);
    let snapshot_encode_us = time_ns(REPS, || {
        out.clear();
        frame::encode_snapshot_slice(snap.epoch(), snap.items(), snap.visible_ref(), &mut out);
    }) / 1e3;
    m.push(metric("frame.snapshot_encode_us", snapshot_encode_us, "us"));

    // ---- core::engine: capture, merge and the checkpoint codec.
    let state = snap.summary().clone();
    let capture_us = time_ns(REPS, || {
        black_box(state.clone());
    }) / 1e3;
    let merge_us = time_ns(REPS, || {
        black_box(merge_in_shard_order(vec![state.clone(); CLUSTER_NODES]));
    }) / 1e3
        - capture_us * CLUSTER_NODES as f64;
    let bytes = state.save();
    let save_us = time_ns(REPS, || {
        black_box(state.save());
    }) / 1e3;
    let restore_us = time_ns(REPS, || {
        black_box(Reservoir::restore(&bytes).expect("own checkpoint decodes"));
    }) / 1e3;
    m.push(metric("engine.capture_us", capture_us, "us"));
    m.push(metric("engine.merge_us", merge_us.max(0.0), "us"));
    m.push(metric(
        "engine.checkpoint_bytes",
        svc.checkpoint().len() as f64,
        "B",
    ));
    m.push(metric("engine.save_us", save_us, "us"));
    m.push(metric("engine.restore_us", restore_us, "us"));

    // ---- service::tenant: the arena over this seed's keyed stream.
    let keyed;
    let tenant_frames = if spec.path == Path::Tenant {
        frames
    } else {
        keyed = Frames::tenant_zipf(
            TENANTS,
            UNIVERSE,
            seeds.input,
            tenant_config(seeds.arena).reservoir_k(),
        );
        &keyed
    };
    let mut arena = TenantArena::new(tenant_config(seeds.arena));
    for req in &tenant_frames.warm {
        let (tenant, xs) = values_of(req);
        arena.ingest(tenant.expect("keyed frames carry a tenant"), xs);
    }
    let (mut hits, mut ops, mut evictions) = (0usize, 0usize, 0u64);
    let mut revive = Vec::new();
    let mut hit_ns = Vec::new();
    for i in 0..tenant_frames.len() {
        let (tenant, xs) = tenant_frames.get(i);
        let t = tenant.expect("keyed frames carry a tenant");
        let before = arena.counters();
        let start = Instant::now();
        if i % 9 == 8 {
            black_box(arena.quantile(t, 0.5));
        } else {
            arena.ingest(t, xs);
        }
        let dt = ns_since(start);
        let after = arena.counters();
        ops += 1;
        evictions += after.evictions - before.evictions;
        if after.revivals > before.revivals {
            revive.push(dt / 1e3);
        } else if after.created == before.created {
            hits += 1;
            if i % 9 != 8 {
                hit_ns.push(dt / xs.len() as f64);
            }
        }
    }
    black_box(arena.sample(tenant_frames.get(0).0.expect("keyed")));
    m.push(metric(
        "tenant.hit_ratio",
        hits as f64 / ops as f64,
        "ratio",
    ));
    m.push(metric(
        "tenant.evictions_per_op",
        evictions as f64 / ops as f64,
        "ratio",
    ));
    m.push(metric("tenant.revive_us", median(&revive), "us"));
    m.push(metric("tenant.hit_ingest_ns", median(&hit_ns), "ns/elem"));
    m.push(metric("tenant.cold_bytes", arena.cold_bytes() as f64, "B"));

    // ---- service::client: round trips seen by the load generator.
    let cluster = spec.path == Path::Cluster;
    let open = run.pooled_open();
    let ingest_rtt = if cluster {
        p50_ns_as_us(&open.ingest_ns)
    } else {
        p50_ns_as_us(&open.ingest_rtt_ns)
    };
    let query_rtt = if cluster {
        p50_ns_as_us(&open.query_ns)
    } else {
        p50_ns_as_us(&open.query_rtt_ns)
    };
    let duel_ids = DUEL_IDS..u64::MAX;
    let snapshot_rtt = median(&match spec.path {
        Path::Node => tr.durations_us("ServiceClient::snapshot", duel_ids.clone()),
        Path::Tenant => tr.durations_us("ServiceClient::tenant_snapshot", duel_ids.clone()),
        Path::Cluster => tr.durations_us("ClusterRouter::global_view", duel_ids.clone()),
    });
    let tenant_rtt = {
        let mut v = tr.durations_us("ServiceClient::tenant_ingest", all.clone());
        v.extend(tr.durations_us("ServiceClient::tenant_snapshot", all.clone()));
        median(&v)
    };
    m.push(metric("client.ingest_rtt_p50_us", ingest_rtt, "us"));
    m.push(metric("client.query_rtt_p50_us", query_rtt, "us"));
    m.push(metric("client.snapshot_rtt_p50_us", snapshot_rtt, "us"));
    m.push(metric("client.tenant_rtt_p50_us", tenant_rtt, "us"));

    // ---- service::server: client round trip minus the replayed server
    // work for the same request (decode, service call, encode).
    let mut req_buf = Vec::new();
    let mut resp_buf = Vec::new();
    let (tenant0, xs0) = frames.get(0);
    encode_frame(frames, 0, &mut req_buf);
    let ingest_server_us = match tenant0 {
        Some(t) => time_ns(REPS, || {
            let (req, _) = frame::decode_request_frame(&req_buf)
                .expect("decodes")
                .expect("whole");
            let n = arena.ingest_le(t, payload(&req));
            resp_buf.clear();
            frame::encode_response(&Response::Ingested(n), &mut resp_buf);
        }),
        None => time_ns(REPS, || {
            let (req, _) = frame::decode_request_frame(&req_buf)
                .expect("decodes")
                .expect("whole");
            let n = svc.ingest_frame_le(payload(&req));
            resp_buf.clear();
            frame::encode_response(&Response::Ingested(n), &mut resp_buf);
        }),
    } / 1e3;
    let query_req = match tenant0 {
        Some(tenant) => Request::TenantQueryQuantile { tenant, q: 0.5 },
        None => Request::QueryQuantile(0.5),
    };
    let mut qbuf = Vec::new();
    frame::encode_request(&query_req, &mut qbuf);
    let mut serve_query = || {
        let (req, _) = frame::decode_request_frame(&qbuf)
            .expect("decodes")
            .expect("whole");
        black_box(&req);
        let q = match tenant0 {
            Some(t) => arena.quantile(t, 0.5),
            None => handle.snapshot().quantile(0.5),
        };
        resp_buf.clear();
        frame::encode_response(&Response::Quantile(q), &mut resp_buf);
    };
    let query_server_us = time_ns(REPS, &mut serve_query) / 1e3;
    let mut sbuf = Vec::new();
    frame::encode_request(&Request::Snapshot, &mut sbuf);
    let snapshot_server_us = match tenant0 {
        Some(t) => time_ns(REPS, || {
            let s = arena.sample(t);
            resp_buf.clear();
            frame::encode_response(
                &Response::TenantSnapshot {
                    tenant: t,
                    items: s.len(),
                    sample: s,
                },
                &mut resp_buf,
            );
        }),
        None => time_ns(REPS, || {
            // The duel ingests one element, then reads: with a publish per
            // element the read waits for that epoch to land.
            svc.ingest_frame_le(&xs0[0].to_le_bytes());
            let (req, _) = frame::decode_request_frame(&sbuf)
                .expect("decodes")
                .expect("whole");
            black_box(&req);
            let snap = handle.snapshot();
            resp_buf.clear();
            frame::encode_snapshot_slice(
                snap.epoch(),
                snap.items(),
                snap.visible_ref(),
                &mut resp_buf,
            );
        }),
    } / 1e3;
    // A coordinator view costs each node an epoch-state encode, then a
    // decode per node and the merge here.
    let cluster_view_us = (CLUSTER_NODES as f64) * (save_us + restore_us) + merge_us.max(0.0);
    let (query_work, snapshot_work) = if cluster {
        (cluster_view_us, cluster_view_us)
    } else {
        (query_server_us, snapshot_server_us)
    };
    let ingest_work = if cluster {
        // One routed chunk is one round trip per node.
        run.cluster_acks_per_chunk * ingest_server_us
    } else {
        ingest_server_us
    };
    m.push(metric(
        "server.wire_residual_ingest_us",
        ingest_rtt - ingest_work,
        "us",
    ));
    m.push(metric(
        "server.wire_residual_query_us",
        query_rtt - query_work,
        "us",
    ));
    m.push(metric(
        "server.wire_residual_snapshot_us",
        snapshot_rtt - snapshot_work,
        "us",
    ));

    // ---- core::attack.
    m.push(metric(
        "attack.next_us",
        median(&tr.durations_us("AttackStrategy::next", all.clone())),
        "us",
    ));

    // ---- service::cluster: router spans (cluster-ingest only).
    let chunk_ids = SATURATION_IDS..DUEL_IDS;
    m.push(metric(
        "cluster.route_us_per_chunk",
        median(&tr.durations_us("ClusterRouter::ingest", chunk_ids)),
        "us",
    ));
    m.push(metric(
        "cluster.node_acks_per_chunk",
        run.cluster_acks_per_chunk,
        "count",
    ));
    m.push(metric(
        "cluster.checkpoint_ms",
        median(&tr.durations_us("ClusterRouter::checkpoint_all", all.clone())) / 1e3,
        "ms",
    ));
    m.push(metric(
        "cluster.window_frames_max",
        run.cluster_window_max as f64,
        "count",
    ));
    m.push(metric(
        "cluster.global_view_ms",
        median(&tr.durations_us("ClusterRouter::global_view", MIXED_IDS..u64::MAX)) / 1e3,
        "ms",
    ));

    // ---- the load generator itself.
    let late: Vec<f64> = open.late_ns.iter().map(|&n| n as f64 / 1e3).collect();
    m.push(metric("loadgen.late_p99_us", quantile(&late, 0.99), "us"));
    m.push(metric(
        "loadgen.trace_overhead",
        median(&run.untraced_sat_rates) / median(&run.sat_rates),
        "ratio",
    ));
    m
}
