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
//! any handshake; so does a malformed value (`--cap x`), an unknown
//! flag or a flag with no value.

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

/// Report a rejected configuration on stderr and exit 2, before any
/// handshake.
fn reject(message: &str) -> ! {
    eprintln!("cluster_node: {message}");
    std::process::exit(2);
}

/// `flag`'s value parsed as a `T`.
fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

fn parse_args() -> Result<Args, String> {
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
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let flag = flag.as_str();
        match flag {
            "--seed" => args.seed = parse(flag, &value)?,
            "--epoch-every" => args.epoch_every = parse(flag, &value)?,
            "--cap" => args.cap = parse(flag, &value)?,
            "--universe" => args.universe = parse(flag, &value)?,
            "--workers" => args.workers = parse(flag, &value)?,
            "--tenant-budget" => args.tenant_budget = Some(parse(flag, &value)?),
            "--tenant-seed" => args.tenant_seed = parse(flag, &value)?,
            "--tenant-eps" => args.tenant_eps = parse(flag, &value)?,
            "--tenant-delta" => args.tenant_delta = parse(flag, &value)?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| reject(&e));
    for (flag, value) in [("--cap", args.cap), ("--epoch-every", args.epoch_every)] {
        if value == 0 {
            reject(&format!("{flag} must be positive"));
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
    let server =
        started.unwrap_or_else(|e| reject(&format!("cannot start the node endpoint: {e}")));
    println!("LISTENING {}", server.addr());
    // Serve until the parent closes our stdin.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    server.shutdown();
}
