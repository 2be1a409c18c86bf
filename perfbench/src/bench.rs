//! The four workloads: servers, phases, and end-to-end metrics.
//!
//! Every workload runs the same three phases against its own serving
//! path, each for a fixed share of `--seconds`:
//!
//! 1. **saturation** — closed loop, bulk ingest as fast as acks return
//!    (`ingest_elems_per_s`);
//! 2. **open loop** — ingest frames plus one query per eight frames at a
//!    fixed offered rate below saturation (`ingest_p*_us`, `query_p*_us`);
//!    the cluster router blocks per call, so there this phase is a closed
//!    loop and latency is per routed chunk and per coordinator view;
//! 3. **duel** — the registry `bisection` attack observes the served
//!    sample and picks the next element, one round at a time
//!    (`duel_*`).

use crate::inputs::{values_of, ChunkSource, Frames, Record, DEPTH};
use crate::node::{self, Node, NodeArgs};
use crate::openloop::{self, Kind, OpenLoop};
use crate::pin;
use crate::stats::{median, quantile};
use crate::steal;
use crate::trace::Tracer;
use robust_sampling_core::approx::source_prefix_discrepancy;
use robust_sampling_core::attack::{self, AttackContext, AttackStrategy, NullOracle};
use robust_sampling_core::bounds;
use robust_sampling_core::engine::merge_in_shard_order;
use robust_sampling_core::sampler::{ReservoirSampler, StreamSampler};
use robust_sampling_service::frame;
use robust_sampling_service::tenant::{tenant_seed, SLOT_OVERHEAD_BYTES};
use robust_sampling_service::{
    ClusterConfig, ClusterRouter, Request, Response, ServiceClient, TenantArenaConfig,
};
use std::time::{Duration, Instant};

type Reservoir = ReservoirSampler<u64>;

/// Universe bound `U = 2^20`.
pub const UNIVERSE: u64 = 1 << 20;
/// Theorem 1.2 sizing: ε and δ (k = 1253 over prefixes of `U`).
pub const EPS: f64 = 0.15;
pub const DELTA: f64 = 0.1;
/// Tenant ids in the keyed stream, and resident slots the budget allows.
pub const TENANTS: u64 = 4_096;
pub const TENANT_SLOTS: usize = 1_024;
/// Nodes of the `cluster-ingest` cluster.
pub const CLUSTER_NODES: usize = 2;
/// Routed frames between `checkpoint_all` calls.
const CHECKPOINT_EVERY: usize = 512;
/// One query follows this many ingest frames in the open loop.
const QUERY_EVERY: usize = 8;
/// Open-loop offered load: this share of the workload's recorded
/// saturation rate ([`Spec::saturation`]), in elements per second.
pub const OPEN_LOAD: f64 = 0.03;
/// Server start-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Rounds the attack is told the duel lasts (sets its split `p'`).
const DUEL_N: usize = 1 << 20;
/// One turn of all three phases lasts about this long.
const SLICE_S: f64 = 1.25;
/// Span ids of each phase start here (ids are unique per request/round).
pub const SATURATION_IDS: u64 = 0;
pub const MIXED_IDS: u64 = 1 << 40;
pub const DUEL_IDS: u64 = 2 << 40;

/// Theorem 1.2 reservoir size for `U`, ε, δ (the `cluster` bin's k).
pub fn reservoir_k() -> usize {
    bounds::reservoir_k_robust((UNIVERSE as f64).ln(), EPS, DELTA)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// One `cluster_node`, plain `INGEST` frames.
    Node,
    /// One `cluster_node --tenant-budget`, keyed `TINGEST` frames.
    Tenant,
    /// `ClusterRouter` over [`CLUSTER_NODES`] `cluster_node`s.
    Cluster,
}

pub struct Spec {
    pub name: &'static str,
    pub path: Path,
    /// Per-node publish cadence, in elements.
    pub epoch_every: usize,
    /// Shares of `--seconds`: saturation, open loop, duel.
    pub split: [f64; 3],
    /// The workload's saturation rate as first recorded (ten-seed median
    /// `ingest_elems_per_s`), elements per second. Kept fixed, so the
    /// offered open-loop load stays the same from commit to commit; 0
    /// where there is no open loop.
    pub saturation: f64,
    /// The duel runs against a node of its own that only the attacker
    /// feeds, so the attack alone decides what that reservoir keeps.
    pub duel_node: bool,
}

pub const SPECS: &[Spec] = &[
    Spec {
        name: "ingest-wire",
        path: Path::Node,
        epoch_every: 1 << 16,
        split: [0.4, 0.4, 0.2],
        saturation: 41.6e6,
        duel_node: false,
    },
    Spec {
        name: "adaptive-duel",
        path: Path::Node,
        epoch_every: 1,
        split: [0.15, 0.15, 0.7],
        saturation: 35.2e6,
        duel_node: true,
    },
    Spec {
        name: "tenant-churn",
        path: Path::Tenant,
        epoch_every: 1 << 16,
        split: [0.4, 0.4, 0.2],
        saturation: 1.35e6,
        duel_node: false,
    },
    Spec {
        name: "cluster-ingest",
        path: Path::Cluster,
        epoch_every: 1 << 16,
        split: [0.4, 0.4, 0.2],
        saturation: 0.0,
        duel_node: false,
    },
];

/// The open loop's offered rate in requests per second: [`OPEN_LOAD`] of
/// the recorded saturation, sent as frames of the cycle's mean size with
/// one query per [`QUERY_EVERY`] frames.
pub fn offered_rate(spec: &Spec, frames: &Frames) -> f64 {
    let frames_per_s = OPEN_LOAD * spec.saturation / frames.mean_len();
    frames_per_s * (QUERY_EVERY + 1) as f64 / QUERY_EVERY as f64
}

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// A metric as printed: name, value, unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Operations attempted and failed (refused, errored or answered wrong,
/// oracle mismatches included).
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }
}

/// The seeds one `--seed` expands to.
pub struct Seeds {
    pub input: u64,
    pub node: u64,
    pub arena: u64,
    pub attack: u64,
    /// The duel node's reservoir ([`Spec::duel_node`]).
    pub duel: u64,
}

impl Seeds {
    pub fn new(seed: u64) -> Self {
        // `tenant_seed` is the service's SplitMix finalizer; any mixer
        // that decorrelates the streams would do.
        let mix = |salt: u64| tenant_seed(seed, salt);
        Self {
            input: seed,
            node: mix(0x6e6f_6465),
            arena: mix(0x6172_656e),
            attack: mix(0x6174_7461),
            duel: mix(0x6475_656c),
        }
    }
}

/// A node that only the duel feeds, and its connection.
pub struct DuelNode {
    node: Node,
    client: ServiceClient,
}

/// The system under test, connected.
pub enum Target {
    Node {
        node: Node,
        client: ServiceClient,
        /// The open loop's own connection, kept across slices.
        open: std::net::TcpStream,
        /// The tenant the duel attacks (tenant workloads only).
        victim: Option<u64>,
        /// Where the duel runs, if not on `node` ([`Spec::duel_node`]).
        duel: Option<Box<DuelNode>>,
    },
    Cluster {
        router: ClusterRouter,
    },
}

pub fn tenant_config(arena_seed: u64) -> TenantArenaConfig {
    let mut cfg = TenantArenaConfig {
        universe: UNIVERSE,
        eps: EPS,
        delta: DELTA,
        budget_bytes: 0,
        base_seed: arena_seed,
        robust: true,
    };
    cfg.budget_bytes = TENANT_SLOTS * (8 * cfg.reservoir_k() + SLOT_OVERHEAD_BYTES);
    cfg
}

pub fn cluster_config(spec: &Spec, seeds: &Seeds) -> ClusterConfig {
    ClusterConfig {
        nodes: CLUSTER_NODES,
        base_seed: seeds.node,
        epoch_every: spec.epoch_every,
        cap: reservoir_k(),
        universe: UNIVERSE,
        workers: 1,
        tenant_budget_bytes: None,
    }
}

/// Spawn the workload's server(s) and wait for the first acknowledged
/// request; returns the target and the seconds that took.
fn start(spec: &Spec, seeds: &Seeds) -> std::io::Result<(Target, f64)> {
    let t = Instant::now();
    let target = match spec.path {
        Path::Node | Path::Tenant => {
            let tenants = (spec.path == Path::Tenant).then(|| {
                let cfg = tenant_config(seeds.arena);
                (cfg.budget_bytes, cfg.base_seed)
            });
            let args = NodeArgs {
                seed: seeds.node,
                epoch_every: spec.epoch_every,
                cap: reservoir_k(),
                universe: UNIVERSE,
                tenants,
            };
            let node = node::spawn(&args)?;
            let client = ServiceClient::connect_binary(node.addr)?;
            client.stats()?;
            let open = openloop::connect(node.addr)?;
            let duel = if spec.duel_node {
                let node = node::spawn(&NodeArgs {
                    seed: seeds.duel,
                    ..args
                })?;
                let client = ServiceClient::connect_binary(node.addr)?;
                client.stats()?;
                Some(Box::new(DuelNode { node, client }))
            } else {
                None
            };
            Target::Node {
                node,
                client,
                open,
                victim: (spec.path == Path::Tenant).then_some(TENANTS + 7),
                duel,
            }
        }
        Path::Cluster => {
            let router = ClusterRouter::start(cluster_config(spec, seeds))?;
            router.global_view::<Reservoir>()?;
            Target::Cluster { router }
        }
    };
    Ok((target, t.elapsed().as_secs_f64()))
}

/// Cluster checkpoint bookkeeping.
#[derive(Default)]
struct Checkpoints {
    /// Routed `ClusterRouter::ingest` calls.
    calls: u64,
    since: usize,
    /// Per node: frames sent at the last checkpoint.
    base: Vec<u64>,
    window_max: u64,
}

impl Checkpoints {
    /// Count one routed frame; checkpoint every node on the cadence.
    fn tick(
        &mut self,
        router: &mut ClusterRouter,
        tracer: &mut Tracer,
        id: u64,
    ) -> std::io::Result<()> {
        self.calls += 1;
        self.since += 1;
        if self.since < CHECKPOINT_EVERY {
            return Ok(());
        }
        self.since = 0;
        self.base.resize(CLUSTER_NODES, 0);
        for j in 0..CLUSTER_NODES {
            self.window_max = self.window_max.max(router.frames_sent(j) - self.base[j]);
        }
        let t = tracer.now();
        router.checkpoint_all()?;
        tracer.span(id, "ClusterRouter::checkpoint_all", t, tracer.now());
        for j in 0..CLUSTER_NODES {
            self.base[j] = router.frames_sent(j);
        }
        Ok(())
    }
}

/// Everything one run measured.
pub struct Run {
    pub setup_s: Vec<f64>,
    /// Saturation element rate per slice.
    pub sat_rates: Vec<f64>,
    /// Open-loop (or, for the cluster, mixed closed-loop) timings.
    pub open: Vec<OpenLoop>,
    /// Duel rounds per second per slice, and each round's duration.
    pub duel_rates: Vec<f64>,
    pub duel_rounds: Vec<Vec<u64>>,
    /// Per phase and slice: the share of CPU time the host stole.
    pub sat_stolen: Vec<f64>,
    pub open_stolen: Vec<f64>,
    pub duel_stolen: Vec<f64>,
    pub rss_mib: f64,
    /// Untraced repeats of the saturation slices (traced runs only).
    pub untraced_sat_rates: Vec<f64>,
    /// Epoch number of the final published snapshot.
    pub publishes: u64,
    pub cluster_window_max: u64,
    /// Node round trips per routed call (cluster only).
    pub cluster_acks_per_chunk: f64,
    pub tally: Tally,
    pub checks: Vec<(String, bool)>,
    pub tracer: Tracer,
}

/// The median over slices of each slice's `q`-quantile, in µs.
fn per_slice_us<'a>(slices: impl Iterator<Item = &'a [u64]>, q: f64) -> f64 {
    let per: Vec<f64> = slices
        .filter(|s| !s.is_empty())
        .map(|s| quantile(&s.iter().map(|&n| n as f64 / 1e3).collect::<Vec<_>>(), q))
        .collect();
    median(&per)
}

/// The entries of `xs` at `keep`.
fn pick<'a, T>(xs: &'a [T], keep: &'a [usize]) -> impl Iterator<Item = &'a T> + 'a {
    keep.iter().map(move |&i| &xs[i])
}

impl Run {
    /// Every slice's open-loop timings in one pool.
    pub fn pooled_open(&self) -> OpenLoop {
        let mut all = OpenLoop::default();
        for slice in &self.open {
            all.absorb(slice.clone());
        }
        all
    }

    /// The end-to-end metrics `BENCHMARK.json` gates. Each is the median,
    /// over the slices the host left alone ([`steal::quiet_slices`]), of
    /// that slice's figure.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let sat = steal::quiet_slices(&self.sat_stolen);
        let open = steal::quiet_slices(&self.open_stolen);
        let duel = steal::quiet_slices(&self.duel_stolen);
        let ingest = || pick(&self.open, &open).map(|o| o.ingest_ns.as_slice());
        let query = || pick(&self.open, &open).map(|o| o.query_ns.as_slice());
        let rounds = || pick(&self.duel_rounds, &duel).map(Vec::as_slice);
        let rates =
            |xs: &[f64], keep: &[usize]| median(&pick(xs, keep).copied().collect::<Vec<_>>());
        vec![
            metric("setup_s", median(&self.setup_s), "s"),
            metric("ingest_elems_per_s", rates(&self.sat_rates, &sat), "elem/s"),
            metric("ingest_p50_us", per_slice_us(ingest(), 0.5), "us"),
            metric("query_p50_us", per_slice_us(query(), 0.5), "us"),
            metric(
                "duel_rounds_per_s",
                rates(&self.duel_rates, &duel),
                "rounds/s",
            ),
            metric("duel_round_p50_us", per_slice_us(rounds(), 0.5), "us"),
            metric("duel_round_p99_us", per_slice_us(rounds(), 0.99), "us"),
            metric("server_rss_mb", self.rss_mib, "MiB"),
        ]
    }

    /// The open-loop tails, printed but not gated: host stalls of 1-10 ms
    /// land in some runs and not others, and on a shared 2-vCPU VM these
    /// figures differ by 2-5x between runs of the same code.
    pub fn open_loop_tails(&self) -> Vec<Metric> {
        let open = steal::quiet_slices(&self.open_stolen);
        let ingest = || pick(&self.open, &open).map(|o| o.ingest_ns.as_slice());
        let query = || pick(&self.open, &open).map(|o| o.query_ns.as_slice());
        vec![
            metric("ingest_p99_us", per_slice_us(ingest(), 0.99), "us"),
            metric("query_p99_us", per_slice_us(query(), 0.99), "us"),
        ]
    }

    /// How much CPU the host took: `(mean stolen share, quiet slices of
    /// the saturation, open-loop and duel phases, slices per phase)`.
    pub fn steal_summary(&self) -> (f64, [usize; 3], usize) {
        let all: Vec<f64> = [&self.sat_stolen, &self.open_stolen, &self.duel_stolen]
            .into_iter()
            .flatten()
            .copied()
            .collect();
        let mean = all.iter().sum::<f64>() / all.len().max(1) as f64;
        let quiet = |xs: &[f64]| xs.iter().filter(|&&x| x <= steal::QUIET_SHARE).count();
        (
            mean,
            [
                quiet(&self.sat_stolen),
                quiet(&self.open_stolen),
                quiet(&self.duel_stolen),
            ],
            self.sat_stolen.len(),
        )
    }

    pub fn error_rate(&self) -> f64 {
        self.tally.failed as f64 / self.tally.attempted.max(1) as f64
    }
}

/// Run one workload end to end.
pub fn run(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt_oracle: bool,
) -> std::io::Result<(Run, Frames)> {
    let seeds = Seeds::new(seed);
    // Inputs first: no clock below includes generating them.
    let frames = match spec.path {
        Path::Tenant => Frames::tenant_zipf(
            TENANTS,
            UNIVERSE,
            seeds.input,
            tenant_config(seeds.arena).reservoir_k(),
        ),
        _ => Frames::zipf(UNIVERSE, seeds.input),
    };

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut target = None;
    for _ in 0..SETUP_REPS {
        // Dropping the previous target kills and reaps its processes.
        drop(target.take());
        let (t, secs) = pin::spawn_servers(|| start(spec, &seeds))?;
        setup_s.push(secs);
        target = Some(t);
    }
    let mut d = Driver {
        spec,
        frames: &frames,
        target: target.expect("at least one setup"),
        cursor: 0,
        tracer: Tracer::new(trace),
        tally: Tally::default(),
        rec: Record::default(),
        ckpt: Checkpoints::default(),
        attack: attack::attack("bisection")
            .expect("bisection is registered")
            .build(DUEL_N, UNIVERSE, seeds.attack),
        history: Vec::new(),
    };
    d.warm()?;

    // The phases take turns in short slices, so each one samples the
    // whole run and a slow spell of the machine hits them all alike.
    let slices = ((seconds / SLICE_S).round() as usize).max(1);
    let share = |i: usize| Duration::from_secs_f64(seconds / slices as f64 * spec.split[i]);
    let mut sat_rates = Vec::with_capacity(slices);
    let mut open = Vec::with_capacity(slices);
    let mut duel_rates = Vec::with_capacity(slices);
    let mut duel_rounds = Vec::with_capacity(slices);
    let (mut sat_stolen, mut open_stolen, mut duel_stolen) = (vec![], vec![], vec![]);
    for _ in 0..slices {
        let watch = steal::Watch::start();
        sat_rates.push(d.saturate(share(0))?);
        sat_stolen.push(watch.stolen());
        let watch = steal::Watch::start();
        open.push(d.open(share(1))?);
        open_stolen.push(watch.stolen());
        let watch = steal::Watch::start();
        let mut rounds = Vec::new();
        duel_rates.push(d.duel(share(2), &mut rounds)?);
        duel_rounds.push(rounds);
        duel_stolen.push(watch.stolen());
    }
    let mut untraced_sat_rates = Vec::new();
    if trace {
        d.tracer.set_on(false);
        for _ in 0..slices {
            untraced_sat_rates.push(d.saturate(share(0))?);
        }
    }

    let rss_mib = match &d.target {
        Target::Node { node, duel, .. } => {
            let own = duel
                .as_ref()
                .map_or(Ok(0.0), |d| node::peak_rss_mib(d.node.child.id()));
            node::peak_rss_mib(node.child.id())? + own?
        }
        Target::Cluster { .. } => node::node_children()
            .into_iter()
            .map(node::peak_rss_mib)
            .sum::<std::io::Result<f64>>()?,
    };
    let cluster_acks_per_chunk = match &d.target {
        Target::Cluster { router } => {
            let frames_sent: u64 = (0..CLUSTER_NODES).map(|j| router.frames_sent(j)).sum();
            frames_sent as f64 / d.ckpt.calls.max(1) as f64
        }
        Target::Node { .. } => 0.0,
    };
    let (checks, publishes) = oracles(
        &seeds,
        &d.target,
        &frames,
        &d.rec,
        &d.history,
        corrupt_oracle,
    )?;
    for (_, ok) in &checks {
        d.tally.check(*ok);
    }
    let Driver {
        target,
        tracer,
        tally,
        ckpt,
        ..
    } = d;
    drop(target);

    Ok((
        Run {
            setup_s,
            sat_rates,
            sat_stolen,
            open,
            open_stolen,
            duel_rates,
            duel_rounds,
            duel_stolen,
            rss_mib,
            untraced_sat_rates,
            publishes,
            cluster_window_max: ckpt.window_max,
            cluster_acks_per_chunk,
            tally,
            checks,
            tracer,
        },
        frames,
    ))
}

/// The load generator's state across slices.
struct Driver<'a> {
    spec: &'a Spec,
    frames: &'a Frames,
    target: Target,
    /// Index of the next cycle frame to send.
    cursor: usize,
    tracer: Tracer,
    tally: Tally,
    rec: Record,
    ckpt: Checkpoints,
    attack: Box<dyn AttackStrategy + Send>,
    /// Every element the attack has chosen so far.
    history: Vec<u64>,
}

impl Driver<'_> {
    /// Send the warm-up frames, pipelined and untimed.
    fn warm(&mut self) -> std::io::Result<()> {
        let Target::Node { client, .. } = &self.target else {
            return Ok(());
        };
        for batch in self.frames.warm.chunks(DEPTH) {
            for resp in client.pipeline(batch)? {
                self.tally.check(matches!(resp, Response::Ingested(_)));
            }
        }
        self.rec.warm(0, self.frames.warm.len());
        Ok(())
    }

    /// Saturation slice: closed-loop bulk ingest. A single node gets
    /// [`DEPTH`] frames per pipelined write; the cluster one routed chunk
    /// per call. Returns acknowledged elements per second.
    fn saturate(&mut self, length: Duration) -> std::io::Result<f64> {
        let start = self.tracer.now();
        let end = start + length.as_nanos() as u64;
        let first = self.cursor;
        let mut acked = 0u64;
        let mut id = SATURATION_IDS + self.cursor as u64;
        while self.tracer.now() < end {
            id += 1;
            match &mut self.target {
                Target::Node { client, .. } => {
                    let i = self.cursor % self.frames.len();
                    let batch = &self.frames.reqs[i..(i + DEPTH).min(self.frames.len())];
                    let t = self.tracer.now();
                    let resps = client.pipeline(batch)?;
                    self.tracer
                        .span(id, "ServiceClient::pipeline", t, self.tracer.now());
                    for (req, resp) in batch.iter().zip(&resps) {
                        if self.tally.check(matches!(resp, Response::Ingested(_))) {
                            acked += values_of(req).1.len() as u64;
                        }
                    }
                    self.cursor += batch.len();
                }
                Target::Cluster { router } => {
                    let (_, xs) = self.frames.get(self.cursor);
                    let t = self.tracer.now();
                    router.ingest(xs)?;
                    self.tracer
                        .span(id, "ClusterRouter::ingest", t, self.tracer.now());
                    self.tally.check(true);
                    acked += xs.len() as u64;
                    self.cursor += 1;
                    self.ckpt.tick(router, &mut self.tracer, id)?;
                }
            }
        }
        self.rec.frames(first, self.cursor);
        Ok(acked as f64 * 1e9 / (self.tracer.now() - start) as f64)
    }

    /// Latency slice: the open loop on a single node; on the cluster,
    /// routed chunks with a coordinator view after every [`QUERY_EVERY`]
    /// of them, each timed per call.
    fn open(&mut self, length: Duration) -> std::io::Result<OpenLoop> {
        let router = match &mut self.target {
            Target::Node { open, .. } => {
                let first = self.cursor;
                let run = open_loop(self.spec, open, self.frames, &mut self.cursor, length)?;
                self.rec.frames(first, self.cursor);
                self.tally.attempted += run.attempted() as u64;
                self.tally.failed += run.failed as u64;
                return Ok(run);
            }
            Target::Cluster { router } => router,
        };
        let mut out = OpenLoop::default();
        let end = self.tracer.now() + length.as_nanos() as u64;
        let first = self.cursor;
        let mut id = MIXED_IDS + self.cursor as u64;
        while self.tracer.now() < end {
            id += 1;
            let (_, xs) = self.frames.get(self.cursor);
            let t = self.tracer.now();
            router.ingest(xs)?;
            let e = self.tracer.now();
            self.tracer.span(id, "ClusterRouter::ingest", t, e);
            out.ingest_ns.push(e - t);
            out.elems_acked += xs.len() as u64;
            self.tally.check(true);
            self.cursor += 1;
            self.ckpt.tick(router, &mut self.tracer, id)?;
            if self.cursor.is_multiple_of(QUERY_EVERY) {
                let t = self.tracer.now();
                let view = router.global_view::<Reservoir>()?;
                let ok = view.quantile(0.5).is_some();
                let e = self.tracer.now();
                self.tracer.span(id, "ClusterRouter::global_view", t, e);
                out.query_ns.push(e - t);
                self.tally.check(ok);
            }
        }
        self.rec.frames(first, self.cursor);
        Ok(out)
    }

    /// Duel slice: each round reads the served sample, lets the attack
    /// choose, and ingests the choice. Appends each round's duration to
    /// `rounds` and returns rounds per second.
    fn duel(&mut self, length: Duration, rounds: &mut Vec<u64>) -> std::io::Result<f64> {
        let start = self.tracer.now();
        let end = start + length.as_nanos() as u64;
        let mut played = 0u64;
        let mut visible: Vec<u64> = Vec::new();
        while self.tracer.now() < end {
            let id = DUEL_IDS + self.history.len() as u64;
            let tr = &mut self.tracer;
            let t0 = tr.now();
            match &self.target {
                Target::Node {
                    client,
                    victim: None,
                    duel,
                    ..
                } => {
                    let client = duel.as_ref().map_or(client, |d| &d.client);
                    visible = client.snapshot()?.2;
                    tr.span(id, "ServiceClient::snapshot", t0, tr.now());
                }
                Target::Node {
                    client,
                    victim: Some(v),
                    ..
                } => {
                    visible = client.tenant_snapshot(*v)?.1;
                    tr.span(id, "ServiceClient::tenant_snapshot", t0, tr.now());
                }
                Target::Cluster { router } => {
                    let view = router.global_view::<Reservoir>()?;
                    visible.clear();
                    visible.extend_from_slice(view.visible_ref());
                    tr.span(id, "ClusterRouter::global_view", t0, tr.now());
                }
            }
            self.tally.check(true);
            let t1 = tr.now();
            let x = self.attack.next(&AttackContext {
                round: self.history.len() + 1,
                n: DUEL_N,
                universe: UNIVERSE,
                sample: &visible,
                history: &self.history,
                oracle: &NullOracle,
            });
            let t2 = tr.now();
            tr.span(id, "AttackStrategy::next", t1, t2);
            // `Some(tenant)` when the element joined the recorded stream
            // (`Some(None)` untenanted); a duel node's stream is `history`.
            let recorded = match &mut self.target {
                Target::Node {
                    client,
                    victim: None,
                    duel,
                    ..
                } => {
                    let client = duel.as_ref().map_or(&*client, |d| &d.client);
                    client.ingest(&[x])?;
                    tr.span(id, "ServiceClient::ingest", t2, tr.now());
                    duel.is_none().then_some(None)
                }
                Target::Node {
                    client,
                    victim: Some(v),
                    ..
                } => {
                    client.tenant_ingest(*v, &[x])?;
                    tr.span(id, "ServiceClient::tenant_ingest", t2, tr.now());
                    Some(Some(*v))
                }
                Target::Cluster { router } => {
                    router.ingest(&[x])?;
                    tr.span(id, "ClusterRouter::ingest", t2, tr.now());
                    self.ckpt.tick(router, tr, id)?;
                    Some(None)
                }
            };
            self.tally.check(true);
            rounds.push(tr.now() - t0);
            played += 1;
            self.history.push(x);
            if let Some(tenant) = recorded {
                self.rec.value(tenant, x);
            }
        }
        Ok(played as f64 * 1e9 / (self.tracer.now() - start) as f64)
    }
}

/// The open loop against one node over its own connection: ingest
/// frames from the cycle plus one query per [`QUERY_EVERY`] frames.
fn open_loop(
    spec: &Spec,
    stream: &std::net::TcpStream,
    frames: &Frames,
    cursor: &mut usize,
    length: Duration,
) -> std::io::Result<OpenLoop> {
    let mut last: (Option<u64>, u64) = (None, 0);
    let mut queries = 0usize;
    openloop::run(
        stream,
        offered_rate(spec, frames),
        length,
        |i, buf| {
            if i % (QUERY_EVERY + 1) == QUERY_EVERY {
                queries += 1;
                let req = match (last.0, queries % 3) {
                    (Some(tenant), 1) => Request::TenantQueryCount { tenant, x: last.1 },
                    (Some(tenant), _) => Request::TenantQueryQuantile { tenant, q: 0.5 },
                    (None, 0) => Request::QueryQuantile(0.5),
                    (None, 1) => Request::QueryCount(last.1),
                    (None, _) => Request::QueryKs,
                };
                frame::encode_request(&req, buf);
                (Kind::Query, 0)
            } else {
                let (tenant, xs) = frames.get(*cursor);
                *cursor += 1;
                last = (tenant, xs[0]);
                match tenant {
                    Some(t) => frame::encode_tenant_ingest_slice(t, xs, buf),
                    None => frame::encode_ingest_slice(xs, buf),
                }
                (Kind::Ingest, xs.len() as u64)
            }
        },
        |kind, resp| match kind {
            Kind::Ingest => matches!(resp, Response::Ingested(_)),
            Kind::Query => matches!(
                resp,
                Response::Quantile(_) | Response::Count(_) | Response::Ks(_)
            ),
        },
    )
}

/// A fresh reservoir fed the first `limit` of `elems`. With `corrupt`
/// the reference drops the stream's first element (the deliberately
/// broken oracle input), which shifts every later position.
fn offline(
    k: usize,
    seed: u64,
    elems: impl Iterator<Item = u64>,
    limit: usize,
    corrupt: bool,
) -> Reservoir {
    let mut s = Reservoir::with_seed(k, seed);
    let mut buf = Vec::with_capacity(1 << 16);
    for x in elems.skip(usize::from(corrupt)).take(limit) {
        buf.push(x);
        if buf.len() == buf.capacity() {
            s.observe_batch(&buf);
            buf.clear();
        }
    }
    s.observe_batch(&buf);
    s
}

/// The correctness oracles; returns `(verdicts, published epochs)`.
fn oracles(
    seeds: &Seeds,
    target: &Target,
    frames: &Frames,
    rec: &Record,
    history: &[u64],
    corrupt: bool,
) -> std::io::Result<(Vec<(String, bool)>, u64)> {
    let k = reservoir_k();
    let chunks = rec.chunks(frames);
    let mut checks = Vec::new();
    let publishes;
    match target {
        Target::Node {
            client,
            victim: None,
            duel,
            ..
        } => {
            // The served epoch equals a reservoir run offline over the
            // same stream, cut where the epoch was published.
            let (epoch, items, sample) = client.snapshot()?;
            publishes = epoch;
            let elems = chunks.iter().flat_map(|c| c.1.iter().copied());
            let reference = offline(k, seeds.node, elems, items, corrupt);
            checks.push((
                format!("SNAPSHOT at {items} items == offline reservoir"),
                reference.observed() == items && reference.sample() == sample.as_slice(),
            ));
            if let Some(duel) = duel {
                // The duel node saw only the attack's choices: its sample
                // equals their offline replay and, by Thm 1.2, stays
                // within ε of every prefix of that adversarial stream.
                let (_, items, sample) = duel.client.snapshot()?;
                let total = history.len();
                let reference = offline(k, seeds.duel, history.iter().copied(), items, corrupt);
                checks.push((
                    format!("duel SNAPSHOT at {items} items == offline replay of the duel"),
                    reference.observed() == items && reference.sample() == sample.as_slice(),
                ));
                let mut source = ChunkSource::new(vec![history]);
                let d = source_prefix_discrepancy(&mut source, &sample).value;
                checks.push((
                    format!("duel prefix discrepancy {d:.5} <= eps {EPS} over {total} items"),
                    items == total && d <= EPS,
                ));
            }
        }
        Target::Node {
            client,
            victim: Some(victim),
            ..
        } => {
            // Audited tenants equal isolated per-tenant reservoirs.
            publishes = client.snapshot()?.0;
            let cfg = tenant_config(seeds.arena);
            let kt = cfg.reservoir_k();
            let mut audit: Vec<u64> = (0..frames.len())
                .step_by(frames.len() / 8)
                .filter_map(|i| frames.get(i).0)
                .collect();
            audit.push(*victim);
            audit.sort_unstable();
            audit.dedup();
            for t in audit {
                let (items, sample) = client.tenant_snapshot(t)?;
                let own = chunks
                    .iter()
                    .filter(|c| c.0 == Some(t))
                    .flat_map(|c| c.1.iter().copied());
                let reference =
                    offline(kt, tenant_seed(cfg.base_seed, t), own, usize::MAX, corrupt);
                checks.push((
                    format!("TSNAPSHOT {t} ({items} items) == isolated reservoir"),
                    reference.observed() == items && reference.sample() == sample.as_slice(),
                ));
            }
        }
        Target::Cluster { router } => {
            // Each node's published shard equals its stride of the stream
            // run offline under its shard seed, cut at its epoch; the
            // coordinator view equals their merge in shard order.
            let cfg = router.config();
            let mut shards = Vec::new();
            let mut epoch = u64::MAX;
            for j in 0..cfg.nodes {
                let (e, items, _, served) = router.node_epoch_state::<Reservoir>(j)?;
                epoch = epoch.min(e);
                let stride = chunks
                    .iter()
                    .flat_map(|c| c.1.iter().copied())
                    .skip(j)
                    .step_by(cfg.nodes);
                let reference = offline(k, cfg.node_seed(j), stride, items, corrupt);
                checks.push((
                    format!("node {j} epoch at {items} items == offline shard"),
                    reference.observed() == items && reference.sample() == served.sample(),
                ));
                shards.push(reference);
            }
            publishes = epoch;
            let view = router.global_view::<Reservoir>()?;
            let merged = merge_in_shard_order(shards);
            checks.push((
                "global_view == offline K=2 merge in shard order".into(),
                view.visible_ref() == merged.sample(),
            ));
        }
    }
    Ok((checks, publishes))
}
