//! One cluster node process: a single-shard [`SummaryService`] behind
//! an admin-enabled TCP endpoint.
//!
//! The service runs inline: the event-loop thread that decodes
//! an `INGEST` frame also runs the sampler kernel and any due epoch
//! publish before it writes the ack. So the process runs two threads
//! (main, and one event loop that also accepts, with the default
//! `--workers 1`), and an acked frame is already in the node's state.
//!
//! Spawned by the `ClusterRouter` (and by the fault-injection tests)
//! with the node's **exact** shard seed — the router computes
//! `ShardedSummary::shard_seed(base_seed, j)` so that node `j` of an
//! `N`-node cluster is bit-identical to shard `j` of an offline
//! `ShardedSummary` with `K = N`.
//!
//! Handshake: the process binds an ephemeral port, prints one line
//! `LISTENING <addr>` on stdout, then serves until stdin reaches EOF
//! (the parent closing the pipe — or dying — is the shutdown signal, so
//! an orphaned node never outlives its router). A rejected
//! configuration (`--cap 0`, `--epoch-every 0`, or `--universe 1` with
//! `--tenant-budget`, say) prints the error on stderr and exits 2 before
//! any handshake.

use robust_sampling_core::sampler::ReservoirSampler;
use robust_sampling_service::{ServiceConfig, ServiceServer, SummaryService, TenantArenaConfig};
use std::io::Read;

/// `--flag value` argument pairs, all required to have defaults.
struct Args {
    seed: u64,
    epoch_every: usize,
    cap: usize,
    universe: u64,
    workers: usize,
    /// `Some(bytes)` enables the node's tenant arena under that budget.
    tenant_budget: Option<usize>,
    /// Arena base seed — the router passes the *cluster* base seed
    /// unchanged (not the node's shard seed), so tenant `t` samples
    /// identically no matter which node owns it.
    tenant_seed: u64,
    tenant_eps: f64,
    tenant_delta: f64,
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 0,
        epoch_every: 1,
        cap: 64,
        universe: 1 << 20,
        workers: 1,
        tenant_budget: None,
        tenant_seed: 0,
        tenant_eps: 0.15,
        tenant_delta: 0.1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| panic!("missing value for {flag}"));
        match flag.as_str() {
            "--seed" => args.seed = value.parse().expect("--seed: u64"),
            "--epoch-every" => args.epoch_every = value.parse().expect("--epoch-every: usize"),
            "--cap" => args.cap = value.parse().expect("--cap: usize"),
            "--universe" => args.universe = value.parse().expect("--universe: u64"),
            "--workers" => args.workers = value.parse().expect("--workers: usize"),
            "--tenant-budget" => {
                args.tenant_budget = Some(value.parse().expect("--tenant-budget: usize"))
            }
            "--tenant-seed" => args.tenant_seed = value.parse().expect("--tenant-seed: u64"),
            "--tenant-eps" => args.tenant_eps = value.parse().expect("--tenant-eps: f64"),
            "--tenant-delta" => args.tenant_delta = value.parse().expect("--tenant-delta: f64"),
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    for (flag, value) in [("--cap", args.cap), ("--epoch-every", args.epoch_every)] {
        if value == 0 {
            eprintln!("cluster_node: {flag} must be positive");
            std::process::exit(2);
        }
    }
    // One shard, seeded exactly as instructed: the factory ignores the
    // service's derived seed — the router already applied shard_seed for
    // this node's global shard index.
    let seed = args.seed;
    let cap = args.cap;
    let service = SummaryService::start(1, 0, args.epoch_every, |_, _| {
        ReservoirSampler::with_seed(cap, seed)
    });
    let started = ServiceServer::spawn_admin(
        service,
        ServiceConfig {
            addr: "127.0.0.1:0".into(),
            universe: args.universe,
            workers: args.workers,
            tenants: args.tenant_budget.map(|budget_bytes| TenantArenaConfig {
                universe: args.universe,
                eps: args.tenant_eps,
                delta: args.tenant_delta,
                budget_bytes,
                base_seed: args.tenant_seed,
                robust: true,
            }),
        },
    );
    let server = started.unwrap_or_else(|e| {
        eprintln!("cluster_node: cannot start the node endpoint: {e}");
        std::process::exit(2);
    });
    println!("LISTENING {}", server.addr());
    // Serve until the parent closes our stdin.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    server.shutdown();
}
