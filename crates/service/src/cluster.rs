//! Multi-node cluster serving: replicated routing, coordinator merge,
//! and checkpoint failover.
//!
//! One [`SummaryService`](crate::SummaryService) shards a stream
//! *inside* a process, on the caller's thread. This module scales the same
//! contract across **processes**: `N` independent node processes (the
//! `cluster_node` binary, each one a single-shard service behind
//! [`ServiceServer::spawn_admin`](crate::ServiceServer::spawn_admin))
//! fed by a [`ClusterRouter`] that deals frames with the *same*
//! deterministic round-robin stride as
//! [`ShardedSummary`]:
//! global arrival index `i` goes to node `i mod N`, and node `j` is
//! seeded with `ShardedSummary::shard_seed(base_seed, j)`. A cluster
//! run is therefore **bit-identical** to the offline sharded run of the
//! same stream — the distributed boundary adds no randomness.
//!
//! Queries go through the coordinator half ([`ClusterRouter::global_view`]):
//! it pulls each node's published epoch snapshot with the binary-only
//! admin request `EPOCH STATE` and merges the per-node summaries **in node
//! order** via
//! [`merge_in_shard_order`]
//! — the one canonical merge loop — into a consistent global
//! [`EpochSnapshot`] serving `COUNT`/`QUANTILE`/`HH`/`KS` exactly like
//! a local epoch. The pull is **conditional**: the router keeps its last
//! merged view with the node states it came from, and asks each node for
//! its state *since* the epoch it holds. A node publishes only once per
//! `epoch_every` of its elements, so most pulls (an adversary reads the
//! sample before every element it sends) come back "unchanged" from every
//! node, and the cached view is returned with no transfer, decode or
//! merge. The merged view is a pure function of the node states, so a
//! reused view is bit-identical to a fresh merge.
//!
//! **Ingest is pipelined; admin reads are split-phase.**
//! [`ingest`](ClusterRouter::ingest) deals each [`MAX_INGEST_FRAME`]
//! chunk into one `INGEST` frame per node and queues it in the node
//! connection's write buffer, without a flush and without waiting for
//! the ack. The buffer (8 KiB, about seven 128-value frames) goes out
//! when it fills and before any read of that node, so the router makes
//! one socket write, and the node one wake-up, per buffer of frames
//! rather than per frame. Acks stay owed on each node's connection
//! across calls, at most 16 per node: a node that already owes 16 has
//! its oldest ack read before its next frame is queued. An `Ok` from
//! `ingest` therefore means dealt, retained and queued: a queued frame
//! reaches its node when the buffer fills or at the router's next read
//! of that node (dropping the router kills its nodes first), and an ack
//! error surfaces by the next read of that node. Every other read — a
//! view, a checkpoint, a tenant call, a restore — first flushes the
//! queue and drains the node's owed acks; replies come back in request
//! order, so no reply is ever misread.
//! [`global_view`](ClusterRouter::global_view) and
//! [`checkpoint_all`](ClusterRouter::checkpoint_all) put one
//! `EPOCH STATE` or `CHECKPOINT` request on every node's connection
//! before they read any reply, so they wait for the slowest node rather
//! than the sum of all of them, and every reply is read even when a node
//! fails.
//!
//! **Failover** is the headline contract. The router retains, per node,
//! every ingest frame since the node's last checkpoint (its *replay
//! window*), indexed by the node's frame high-water mark
//! ([`FrameHwm`](robust_sampling_core::engine::FrameHwm), carried in the
//! checkpoint envelope). A frame enters the window *before* it is
//! queued, so a frame lost to a dead node — acknowledged, unread or
//! still in the write buffer — is still there to replay, and a
//! `CHECKPOINT` is answered only after every frame queued ahead of it.
//! When a node dies ([`kill_node`](ClusterRouter::kill_node) in the
//! fault-injection harness), [`restore_node`](ClusterRouter::restore_node)
//! spawns a fresh process on a new ephemeral port, seeds it from the
//! retained checkpoint envelope over `RESTORE`, and replays exactly the
//! retained frames at or past the restored high-water mark. Because
//! checkpoints capture full RNG state and the replayed frames are
//! byte-identical to the originals, the restored node — and with it
//! every subsequent global query — is bit-identical to an uninterrupted
//! run. The window is only trimmed at checkpoint time, so a **double
//! fault** (the restored node dying again) replays the same recovery and
//! still converges.
//!
//! Everything here is driven by `tests/cluster_determinism.rs`,
//! `crates/service/tests/cluster_failover.rs`, and the bench crate's
//! `cluster` binary (which also plays the full attack registry against
//! the cluster boundary through [`ClusterDefense`]).

use crate::client::ServiceClient;
use crate::protocol::{Request, MAX_INGEST_FRAME};
use crate::service::EpochSnapshot;
use robust_sampling_core::attack::{ObservableDefense, StateOracle};
use robust_sampling_core::engine::{
    merge_in_shard_order, stride_start, MergeableSummary, ShardedSummary, SnapshotCodec,
    StreamSummary,
};
use robust_sampling_core::sampler::ReservoirSampler;
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::{Arc, OnceLock};

/// A child process that is **killed (and reaped) on drop** unless
/// explicitly waited for. Every subprocess the cluster harness — or the
/// load generator — spawns lives behind one of these, so a panicking
/// test or client can never leak a server process.
#[derive(Debug)]
pub struct ChildGuard {
    child: Option<Child>,
}

impl ChildGuard {
    /// Guard `child`: from now on it dies with this value.
    pub fn new(child: Child) -> Self {
        Self { child: Some(child) }
    }

    /// The child's OS process id.
    pub fn id(&self) -> u32 {
        self.child.as_ref().expect("guard already consumed").id()
    }

    /// Graceful join: consume the guard and wait for the child to exit
    /// on its own (close its stdin first). The drop-kill is disarmed.
    pub fn wait(mut self) -> std::io::Result<ExitStatus> {
        let mut child = self.child.take().expect("guard already consumed");
        child.wait()
    }

    /// Kill and reap the child now (idempotent). This is the cluster
    /// harness's fault injection.
    pub fn kill_now(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for ChildGuard {
    fn drop(&mut self) {
        self.kill_now();
    }
}

/// The directory cargo builds `cluster_node` into, given the directory
/// of the running executable: that directory itself, or its parent when
/// it is `deps/` (test binaries) or `examples/` (example binaries).
fn node_dir(exe_dir: &Path) -> PathBuf {
    if exe_dir.ends_with("deps") || exe_dir.ends_with("examples") {
        if let Some(parent) = exe_dir.parent() {
            return parent.to_path_buf();
        }
    }
    exe_dir.to_path_buf()
}

/// Locate (building if necessary) the `cluster_node` binary.
///
/// Resolution order: the `CLUSTER_NODE_BIN` environment variable; a
/// sibling of the current executable's build directory ([`node_dir`]);
/// else `cargo build` it — the root package's test run does not build
/// the service crate's binaries, so the first cluster test in a fresh
/// checkout pays one build.
fn node_bin() -> &'static PathBuf {
    static BIN: OnceLock<PathBuf> = OnceLock::new();
    BIN.get_or_init(|| {
        if let Ok(p) = std::env::var("CLUSTER_NODE_BIN") {
            return PathBuf::from(p);
        }
        let exe = std::env::current_exe().expect("current_exe");
        let dir = node_dir(exe.parent().expect("executable directory"));
        let candidate = dir.join(format!("cluster_node{}", std::env::consts::EXE_SUFFIX));
        if candidate.exists() {
            return candidate;
        }
        let mut cmd = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".into()));
        cmd.args([
            "build",
            "-p",
            "robust-sampling-service",
            "--bin",
            "cluster_node",
        ]);
        if dir.ends_with("release") {
            cmd.arg("--release");
        }
        let status = cmd.status().expect("spawn cargo build for cluster_node");
        assert!(status.success(), "building the cluster_node binary failed");
        assert!(
            candidate.exists(),
            "cluster_node not found at {} after building",
            candidate.display()
        );
        candidate
    })
}

/// Cluster shape and seeding. `base_seed` plays exactly the role of
/// [`ShardedSummary::new`]'s base seed: node `j` serves a reservoir
/// seeded `shard_seed(base_seed, j)`, so the cluster of `N` nodes *is*
/// the offline `ShardedSummary` with `K = N` shards, run across
/// processes.
///
/// [`ShardedSummary::new`]: robust_sampling_core::engine::ShardedSummary::new
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Node (= shard) count `N`.
    pub nodes: usize,
    /// The sharded-run base seed; node `j` gets `shard_seed(base_seed, j)`.
    pub base_seed: u64,
    /// Per-node epoch cadence `E` (elements between published epochs).
    /// The cluster-level cadence is `N * E` total elements: a stream cut
    /// at a multiple of `N * E`, dealt in aligned frames, puts every
    /// node exactly at an epoch boundary.
    pub epoch_every: usize,
    /// Per-node reservoir capacity.
    ///
    /// Every admin reply must fit one frame ([`MAX_FRAME_PAYLOAD`]
    /// bytes): `CHECKPOINT` works up to a `cap` of about 32.7K and
    /// `SNAPSHOT`/`EPOCH STATE` up to about 65.5K. Past that the node
    /// answers `ERR` and the router's call fails.
    ///
    /// [`MAX_FRAME_PAYLOAD`]: crate::frame::MAX_FRAME_PAYLOAD
    pub cap: usize,
    /// Universe bound `U` for the `KS` drift monitor.
    pub universe: u64,
    /// Event-loop worker threads per node process.
    pub workers: usize,
    /// `Some(bytes)` enables a per-node tenant arena under that budget.
    /// Every node's arena is seeded with the *cluster* `base_seed` (not
    /// the node's shard seed), so tenant `t` samples identically no
    /// matter which node the `t mod N` deal assigns it to.
    pub tenant_budget_bytes: Option<usize>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            nodes: 3,
            base_seed: 42,
            epoch_every: 1,
            cap: 64,
            universe: 1 << 20,
            workers: 1,
            tenant_budget_bytes: None,
        }
    }
}

impl ClusterConfig {
    /// The exact seed node `j` serves with.
    pub fn node_seed(&self, j: usize) -> u64 {
        ShardedSummary::<ReservoirSampler<u64>>::shard_seed(self.base_seed, j)
    }

    /// The node that owns tenant `t`: the same `mod N` deal as element
    /// routing, applied to tenant ids. Every frame for a tenant lands on
    /// one node, so a tenant's arena slot lives in exactly one process.
    pub fn tenant_node(&self, tenant: u64) -> usize {
        (tenant % self.nodes as u64) as usize
    }
}

/// One live node: the guarded process, its serving address, and a
/// binary-protocol client connection.
struct Node {
    child: ChildGuard,
    addr: SocketAddr,
    client: ServiceClient,
    /// Killed, or failed during an `ingest`: until a restore, `ingest`
    /// retains this node's frames without sending them.
    down: bool,
}

/// Spawn one `cluster_node` process for node `j` of `cfg` on a fresh
/// ephemeral port, wait for its `LISTENING <addr>` handshake line, and
/// connect a binary client.
fn spawn_node(cfg: &ClusterConfig, j: usize) -> std::io::Result<Node> {
    let mut cmd = Command::new(node_bin().as_os_str());
    cmd.arg("--seed")
        .arg(cfg.node_seed(j).to_string())
        .arg("--epoch-every")
        .arg(cfg.epoch_every.to_string())
        .arg("--cap")
        .arg(cfg.cap.to_string())
        .arg("--universe")
        .arg(cfg.universe.to_string())
        .arg("--workers")
        .arg(cfg.workers.to_string());
    if let Some(budget) = cfg.tenant_budget_bytes {
        cmd.arg("--tenant-budget")
            .arg(budget.to_string())
            .arg("--tenant-seed")
            .arg(cfg.base_seed.to_string());
    }
    let mut child = cmd
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let stdout = child.stdout.take().expect("piped child stdout");
    let mut child = ChildGuard::new(child);
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line)?;
    let addr = line
        .trim()
        .strip_prefix("LISTENING ")
        .and_then(|a| a.parse::<SocketAddr>().ok())
        .ok_or_else(|| {
            child.kill_now();
            std::io::Error::other(format!("bad cluster_node handshake: {line:?}"))
        })?;
    let client = ServiceClient::connect_binary(addr)?;
    Ok(Node {
        child,
        addr,
        client,
        down: false,
    })
}

/// Deal `chunk` (whose first element has global arrival index `routed`)
/// straight into the per-node replay windows, `k = windows.len()`, by
/// the engine's round-robin rule ([`stride_start`]): global index `i`
/// goes to node `i mod k`. Each node with a non-empty stride gets one
/// frame at the back of its window; those are the nodes `i mod k` for `i`
/// in `routed..routed + min(k, chunk.len())`.
fn deal_strides(routed: usize, chunk: &[u64], windows: &mut [VecDeque<Vec<u64>>]) {
    let k = windows.len();
    for (j, window) in windows.iter_mut().enumerate() {
        let start = stride_start(routed, k, j);
        if start < chunk.len() {
            window.push_back(chunk[start..].iter().step_by(k).copied().collect());
        }
    }
}

/// The error `ingest` reports for a node that is down.
fn node_down(j: usize) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::NotConnected,
        format!("node {j} is down until restore_node"),
    )
}

/// Decode an `EPOCH STATE` reply's summary bytes.
fn decode_state<S: SnapshotCodec>(bytes: &[u8]) -> std::io::Result<S> {
    S::restore(bytes).map_err(|e| std::io::Error::other(format!("undecodable node state: {e}")))
}

/// An `EPOCH STATE` reply that contradicts what the router asked or
/// holds.
fn bad_epoch_reply(j: usize, what: String) -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        format!("node {j} EPOCH STATE reply {what}"),
    )
}

/// The coordinator's last merged view and the node states it was merged
/// from, per node `(epoch, boundary items, summary codec bytes)`.
struct ViewCache<S> {
    nodes: Vec<(u64, usize, Vec<u8>)>,
    view: Arc<EpochSnapshot<S>>,
}

/// The cluster data plane and its fault-recovery bookkeeping.
///
/// `ingest` deals each input chunk into per-node strides (one binary
/// `INGEST` frame per non-empty stride, so the router's per-node *sent
/// frame* counter and the node's applied-frame high-water mark advance
/// in lockstep), retains every frame in the node's replay window, then
/// queues it on the node's connection, leaving up to 16 acks per node
/// unread.
/// `checkpoint_node` pulls the node's checkpoint envelope and
/// trims the window to the envelope's high-water mark;
/// `restore_node` spawns a replacement process, seeds it from that
/// envelope, and replays the retained tail. See the module docs for the
/// bit-identity argument.
pub struct ClusterRouter {
    cfg: ClusterConfig,
    nodes: Vec<Node>,
    /// Global elements dealt so far (the round-robin phase).
    routed: usize,
    /// Per node: absolute frame index of the window front (== frames
    /// trimmed away by checkpoints).
    window_base: Vec<u64>,
    /// Per node: retained ingest frames since the last checkpoint trim.
    window: Vec<VecDeque<Vec<u64>>>,
    /// Per node: the last checkpoint envelope pulled, if any.
    checkpoints: Vec<Option<Vec<u8>>>,
    /// The last [`global_view`](Self::global_view) as a `ViewCache<S>`
    /// for the `S` it was built for; empty after any error or failover.
    view_cache: Cell<Option<Box<dyn Any + Send>>>,
}

impl ClusterRouter {
    /// Spawn `cfg.nodes` node processes (each on its own ephemeral
    /// port) and connect to all of them.
    pub fn start(cfg: ClusterConfig) -> std::io::Result<Self> {
        assert!(cfg.nodes >= 1, "a cluster needs at least one node");
        assert!(cfg.epoch_every >= 1, "epoch cadence must be >= 1");
        let nodes = (0..cfg.nodes)
            .map(|j| spawn_node(&cfg, j))
            .collect::<std::io::Result<Vec<_>>>()?;
        let n = cfg.nodes;
        Ok(Self {
            cfg,
            nodes,
            routed: 0,
            window_base: vec![0; n],
            window: (0..n).map(|_| VecDeque::new()).collect(),
            checkpoints: vec![None; n],
            view_cache: Cell::new(None),
        })
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Global elements dealt so far.
    pub fn items_routed(&self) -> usize {
        self.routed
    }

    /// Node `j`'s serving address (changes after a failover).
    pub fn node_addr(&self, j: usize) -> SocketAddr {
        self.nodes[j].addr
    }

    /// Node `j`'s process id (changes after a failover), for a harness
    /// that kills the process behind the router's back rather than
    /// through [`kill_node`](Self::kill_node).
    pub fn node_pid(&self, j: usize) -> u32 {
        self.nodes[j].child.id()
    }

    /// Frames dealt to node `j` so far (its expected high-water mark):
    /// every frame sent, plus any retained for replay because the node
    /// was down when its turn came.
    pub fn frames_sent(&self, j: usize) -> u64 {
        self.window_base[j] + self.window[j].len() as u64
    }

    /// Deal `xs` across the nodes — element at global arrival index `i`
    /// to node `i mod N`, exactly the [`ShardedSummary`] deal — as one
    /// binary `INGEST` frame per non-empty stride of each
    /// [`MAX_INGEST_FRAME`] chunk, retaining each frame in the node's
    /// replay window. Returns the total elements routed so far.
    ///
    /// `Ok` means every frame was dealt, retained and queued, not that
    /// it was written or acknowledged. Frames wait in each node
    /// connection's write buffer until it fills or the router next reads
    /// that node. Acks are left owed, at most
    /// 16 per node, and the oldest is read only when a node already owes
    /// 16. Every other read of a node (a view, a checkpoint, a tenant
    /// call) flushes its queued frames and drains its owed acks first,
    /// so an ack error surfaces by the next read of that node.
    ///
    /// A frame is retained *before* it is queued, so a frame whose write
    /// or ack fails is still replayed by
    /// [`restore_node`](Self::restore_node).
    /// A node that fails, or was killed, is down until restored: its
    /// frames are retained without I/O while every other node still gets
    /// its frames; all of `xs` is dealt and the first error is returned.
    /// Restoring the failed node then brings the cluster to exactly the
    /// uninterrupted state.
    pub fn ingest(&mut self, xs: &[u64]) -> std::io::Result<usize> {
        let k = self.nodes.len();
        let mut first_err = None;
        for chunk in xs.chunks(MAX_INGEST_FRAME) {
            deal_strides(self.routed, chunk, &mut self.window);
            for i in self.routed..self.routed + chunk.len().min(k) {
                let j = i % k;
                let node = &mut self.nodes[j];
                if node.down {
                    first_err.get_or_insert_with(|| node_down(j));
                    continue;
                }
                let frame = self.window[j].back().expect("frame just dealt");
                if let Err(e) = node.client.send_ingest_owed(frame) {
                    node.down = true;
                    first_err.get_or_insert(e);
                }
            }
            self.routed += chunk.len();
        }
        first_err.map_or(Ok(self.routed), Err)
    }

    /// Send `req(j)` to every node `j`, then read every reply in node
    /// order with `recv`. A node whose send fails gets no read; every
    /// other reply is read even after a failure, so no connection is left
    /// holding a stale reply.
    fn admin_all<T>(
        &self,
        req: impl Fn(usize) -> Request,
        recv: impl Fn(&ServiceClient) -> std::io::Result<T>,
    ) -> Vec<std::io::Result<T>> {
        let sent: Vec<_> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(j, node)| node.client.send(&req(j)))
            .collect();
        sent.into_iter()
            .zip(&self.nodes)
            .map(|(sent, node)| sent.and_then(|()| recv(&node.client)))
            .collect()
    }

    /// Check a frame high-water mark node `j` reported against the
    /// replay window: it must lie in `window_base..=frames_sent`. Outside
    /// that range the node holds state this router did not send it (a
    /// `RESTORE` from another client, say), and its window cannot
    /// replay onto it.
    fn check_hwm(&self, j: usize, hwm: u64) -> std::io::Result<()> {
        let (base, sent) = (self.window_base[j], self.frames_sent(j));
        if (base..=sent).contains(&hwm) {
            return Ok(());
        }
        Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "node {j} frame high-water mark {hwm} is outside the replay window {base}..={sent}"
            ),
        ))
    }

    /// Trim node `j`'s replay window to a checkpoint's frame high-water
    /// mark and retain the envelope: frames the checkpoint already
    /// contains will never need replaying. A high-water mark outside the
    /// window is `InvalidData`, and the window and kept envelope stay as
    /// they were.
    fn keep_checkpoint(&mut self, j: usize, hwm: u64, envelope: Vec<u8>) -> std::io::Result<()> {
        self.check_hwm(j, hwm)?;
        let trimmed = (hwm - self.window_base[j]) as usize;
        self.window[j].drain(..trimmed);
        self.window_base[j] = hwm;
        self.checkpoints[j] = Some(envelope);
        Ok(())
    }

    /// Pull node `j`'s checkpoint envelope and trim its replay window to
    /// the envelope's frame high-water mark.
    pub fn checkpoint_node(&mut self, j: usize) -> std::io::Result<()> {
        let (hwm, envelope) = self.nodes[j].client.checkpoint()?;
        self.keep_checkpoint(j, hwm, envelope)
    }

    /// Checkpoint every node: send every `CHECKPOINT` request, then read
    /// the envelopes in node order. Every checkpoint that arrives is kept
    /// even if another node fails; the first error is returned.
    pub fn checkpoint_all(&mut self) -> std::io::Result<()> {
        let replies = self.admin_all(|_| Request::Checkpoint, ServiceClient::recv_checkpoint);
        let mut first_err = None;
        for (j, reply) in replies.into_iter().enumerate() {
            if let Err(e) = reply.and_then(|(hwm, envelope)| self.keep_checkpoint(j, hwm, envelope))
            {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// **Fault injection**: kill node `j`'s process outright (no
    /// graceful shutdown — the process is gone mid-whatever-it-was-doing).
    /// The node is down until [`restore_node`](Self::restore_node), so
    /// the next `ingest` fails without touching its connection.
    pub fn kill_node(&mut self, j: usize) {
        self.view_cache.set(None);
        self.nodes[j].child.kill_now();
        self.nodes[j].down = true;
    }

    /// **Failover**: spawn a replacement for node `j` on a fresh
    /// ephemeral port, seed it from the retained checkpoint envelope
    /// (`RESTORE` over the admin protocol; a node that was never
    /// checkpointed restarts empty), and replay the retained frames at
    /// or past the restored high-water mark. The replay queues frames
    /// and leaves acks owed like `ingest` does, so it costs one write per
    /// buffer of frames, and every ack is read before this returns
    /// `Ok`. The window is kept, so a second fault on the same node
    /// replays the same recovery. A restored high-water mark outside the
    /// replay window is `InvalidData`, and node `j` is left as it was.
    pub fn restore_node(&mut self, j: usize) -> std::io::Result<()> {
        self.view_cache.set(None);
        let node = spawn_node(&self.cfg, j)?;
        let hwm = match &self.checkpoints[j] {
            Some(envelope) => node.client.restore(envelope)?,
            None => 0,
        };
        self.check_hwm(j, hwm)?;
        let replayed = (hwm - self.window_base[j]) as usize;
        for frame in self.window[j].iter().skip(replayed) {
            node.client.send_ingest_owed(frame)?;
        }
        node.client.drain_owed()?;
        self.nodes[j] = node;
        Ok(())
    }

    /// Pull node `j`'s published epoch state: `(epoch, boundary items,
    /// frame high-water mark, summary)`. Always a full pull; the view
    /// cache is neither read nor touched.
    pub fn node_epoch_state<S>(&self, j: usize) -> std::io::Result<(u64, usize, u64, S)>
    where
        S: SnapshotCodec,
    {
        let (epoch, items, hwm, state) = self.nodes[j].client.epoch_state(None)?;
        let state = state
            .ok_or_else(|| bad_epoch_reply(j, "to an unconditional pull has no state".into()))?;
        Ok((epoch, items, hwm, decode_state(&state)?))
    }

    /// **The coordinator merge**: the cluster's query surface, one
    /// consistent global [`EpochSnapshot`] of every node's published
    /// epoch, merged in node order via [`merge_in_shard_order`]. The
    /// view's epoch is the slowest node's published epoch (a consistent
    /// lower bound; in an aligned run all nodes agree) and its item
    /// count is the sum of per-node boundary counts.
    ///
    /// Every call is one split-phase round trip: each node gets an
    /// `EPOCH STATE` request before any reply is read, so node failures
    /// surface on every call. The request carries the epoch the router
    /// last merged from that node, and a node still at that epoch
    /// answers without its summary. When every node answers so, the
    /// previous view is returned again (the same [`Arc`], with its
    /// `visible`/`sorted` caches already built). Otherwise the changed
    /// states are decoded with the cached bytes of the unchanged ones
    /// and merged afresh — the merged view is a pure function of the
    /// node states, so a reused view is bit-identical to a fresh merge.
    /// The cache is dropped on any error, on
    /// [`kill_node`](Self::kill_node)/[`restore_node`](Self::restore_node),
    /// and when the call asks for a different `S`.
    ///
    /// An admin `RESTORE` sent to a node by another client that
    /// republishes the epoch number the router holds is not seen until
    /// that node next publishes.
    pub fn global_view<S>(&self) -> std::io::Result<Arc<EpochSnapshot<S>>>
    where
        S: MergeableSummary<u64> + SnapshotCodec + Send + Sync + 'static,
    {
        let mut cache = self
            .view_cache
            .take()
            .and_then(|c| c.downcast::<ViewCache<S>>().ok());
        let since: Vec<Option<u64>> = (0..self.nodes.len())
            .map(|j| cache.as_ref().map(|c| c.nodes[j].0))
            .collect();
        let replies = self.admin_all(
            |j| Request::EpochState { since: since[j] },
            ServiceClient::recv_epoch_state,
        );
        let mut nodes = Vec::with_capacity(replies.len());
        let mut changed = false;
        for (j, reply) in replies.into_iter().enumerate() {
            let (epoch, items, _, state) = reply?;
            let state = match (state, cache.as_mut()) {
                (Some(bytes), _) => {
                    changed = true;
                    bytes
                }
                (None, Some(c)) if (c.nodes[j].0, c.nodes[j].1) == (epoch, items) => {
                    std::mem::take(&mut c.nodes[j].2)
                }
                (None, _) => {
                    return Err(bad_epoch_reply(
                        j,
                        format!("says epoch {epoch} ({items} items) is unchanged, but the router does not hold it"),
                    ));
                }
            };
            nodes.push((epoch, items, state));
        }
        let view = match cache {
            Some(c) if !changed => c.view,
            _ => {
                let summaries = nodes
                    .iter()
                    .map(|(_, _, bytes)| decode_state::<S>(bytes))
                    .collect::<std::io::Result<Vec<_>>>()?;
                let epoch = nodes.iter().map(|n| n.0).min().expect("at least one node");
                let items = nodes.iter().map(|n| n.1).sum();
                Arc::new(EpochSnapshot::new(
                    epoch,
                    items,
                    merge_in_shard_order(summaries),
                ))
            }
        };
        self.view_cache.set(Some(Box::new(ViewCache {
            nodes,
            view: Arc::clone(&view),
        })));
        Ok(view)
    }

    /// Send a keyed ingest frame to the node that owns `tenant` (the
    /// [`ClusterConfig::tenant_node`] deal). Tenant frames ride the same
    /// connections as the main stream but are **not** retained in the
    /// replay window: tenants live in each node's arena (and its cold
    /// tier), not in the router's frame-replay failover.
    pub fn tenant_ingest(&self, tenant: u64, xs: &[u64]) -> std::io::Result<usize> {
        self.nodes[self.cfg.tenant_node(tenant)]
            .client
            .tenant_ingest(tenant, xs)
    }

    /// Tenant-scoped `COUNT`, answered by the owning node's arena.
    pub fn tenant_count(&self, tenant: u64, x: u64) -> std::io::Result<f64> {
        self.nodes[self.cfg.tenant_node(tenant)]
            .client
            .tenant_count(tenant, x)
    }

    /// Tenant-scoped `QUANTILE`, answered by the owning node's arena.
    pub fn tenant_quantile(&self, tenant: u64, q: f64) -> std::io::Result<Option<u64>> {
        self.nodes[self.cfg.tenant_node(tenant)]
            .client
            .tenant_quantile(tenant, q)
    }

    /// Pull tenant `t`'s `(items, sample)` from its owning node.
    pub fn tenant_snapshot(&self, tenant: u64) -> std::io::Result<(usize, Vec<u64>)> {
        self.nodes[self.cfg.tenant_node(tenant)]
            .client
            .tenant_snapshot(tenant)
    }
}

/// The cluster as an [`ObservableDefense`]: ingestion deals through the
/// [`ClusterRouter`], oracle queries and the visible sample answer from
/// the coordinator's merged [`global_view`](ClusterRouter::global_view)
/// — so [`Duel::run`](robust_sampling_core::attack::Duel) plays every
/// registered attack strategy against the *cluster* boundary unchanged.
/// Run nodes with `epoch_every = 1` so the adversary's view is fresh
/// each round. Trait-path I/O errors panic, exactly like
/// [`ServiceClient`]'s bridges: in the harness a dead cluster is a
/// failed experiment.
pub struct ClusterDefense {
    router: ClusterRouter,
    last_sample_len: Cell<usize>,
}

impl ClusterDefense {
    /// Wrap a running cluster.
    pub fn new(router: ClusterRouter) -> Self {
        Self {
            router,
            last_sample_len: Cell::new(0),
        }
    }

    fn view(&self) -> Arc<EpochSnapshot<ReservoirSampler<u64>>> {
        self.router
            .global_view()
            .expect("cluster EPOCH STATE pull failed")
    }
}

impl StreamSummary<u64> for ClusterDefense {
    fn ingest(&mut self, x: u64) {
        self.router.ingest(&[x]).expect("cluster INGEST failed");
    }

    fn ingest_batch(&mut self, xs: &[u64]) {
        self.router.ingest(xs).expect("cluster INGEST failed");
    }

    fn items_seen(&self) -> usize {
        self.router.items_routed()
    }

    fn space(&self) -> usize {
        self.last_sample_len.get()
    }

    fn summary_name(&self) -> &'static str {
        "cluster-service"
    }
}

impl StateOracle for ClusterDefense {
    fn count_estimate(&self, x: u64) -> Option<f64> {
        Some(self.view().count(x))
    }

    fn quantile_estimate(&self, q: f64) -> Option<u64> {
        self.view().quantile(q)
    }
}

impl ObservableDefense for ClusterDefense {
    fn visible_into(&self, out: &mut Vec<u64>) {
        let view = self.view();
        let sample = view.visible_ref();
        self.last_sample_len.set(sample.len());
        out.extend_from_slice(sample);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_dir_steps_out_of_deps_and_examples() {
        let release = Path::new("/work/target/release");
        for exe_dir in ["/work/target/release/deps", "/work/target/release/examples"] {
            assert_eq!(node_dir(Path::new(exe_dir)), release, "{exe_dir}");
        }
        assert_eq!(node_dir(release), release);
        assert_eq!(
            node_dir(Path::new("/work/target/debug/deps")),
            Path::new("/work/target/debug")
        );
    }

    #[test]
    fn deal_strides_match_the_mod_k_contract() {
        // Any (phase, k, len): element at global index routed + p lands
        // in stride (routed + p) mod k, in arrival order, and only a
        // non-empty stride becomes a frame.
        for routed in [0usize, 1, 2, 7, 100] {
            for k in 1..=5usize {
                for len in [1usize, 2, 3, 23] {
                    let chunk: Vec<u64> = (0..len as u64).map(|x| 1_000 + x).collect();
                    let mut windows: Vec<VecDeque<Vec<u64>>> = vec![VecDeque::from([vec![7]]); k];
                    deal_strides(routed, &chunk, &mut windows);
                    let mut rebuilt: Vec<Vec<u64>> = vec![Vec::new(); k];
                    for (p, &x) in chunk.iter().enumerate() {
                        rebuilt[(routed + p) % k].push(x);
                    }
                    for (j, stride) in rebuilt.into_iter().enumerate() {
                        let mut want = VecDeque::from([vec![7]]);
                        if !stride.is_empty() {
                            want.push_back(stride);
                        }
                        assert_eq!(windows[j], want, "routed={routed} k={k} len={len} node {j}");
                    }
                }
            }
        }
    }

    /// How a node's unannounced death is first noticed.
    #[derive(Debug, Clone, Copy)]
    enum Notice {
        /// By further `ingest`s of one frame per node.
        Ingest,
        /// By the next `global_view`.
        View,
        /// By the next `checkpoint_all`.
        Checkpoint,
    }

    #[test]
    fn a_node_dying_unannounced_fails_by_its_owed_acks_and_restores_exactly() {
        // The child dies without `kill_node`, so the router still thinks
        // it is up and owes it acks. The error must surface within 16
        // more frames to that node (its owed acks), or on the next view
        // or checkpoint; a restore then lands on the uninterrupted run.
        let cfg = ClusterConfig {
            nodes: 2,
            base_seed: 8,
            epoch_every: 3,
            cap: 16,
            universe: 1 << 16,
            workers: 1,
            tenant_budget_bytes: None,
        };
        let data: Vec<u64> = (0..4_000u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9) >> 12)
            .collect();
        let frames: Vec<&[u64]> = data.chunks(40).collect();
        let view = |router: &ClusterRouter| {
            let v = router
                .global_view::<ReservoirSampler<u64>>()
                .expect("global view");
            (v.epoch(), v.items(), v.visible_ref().to_vec())
        };
        for (victim, notice) in [
            (0, Notice::Ingest),
            (1, Notice::Ingest),
            (1, Notice::View),
            (0, Notice::Checkpoint),
        ] {
            let mut baseline = ClusterRouter::start(cfg.clone()).expect("start baseline");
            let mut router = ClusterRouter::start(cfg.clone()).expect("start cluster");
            let mut fed = 0;
            for frame in &frames[..30] {
                baseline.ingest(frame).expect("baseline ingest");
                router.ingest(frame).expect("cluster ingest");
                fed += 1;
                if fed == 10 {
                    router.checkpoint_all().expect("checkpoint");
                }
            }
            router.nodes[victim].child.kill_now();
            match notice {
                Notice::Ingest => {
                    let mut passed = 0;
                    loop {
                        baseline.ingest(frames[fed]).expect("baseline ingest");
                        let failed = router.ingest(frames[fed]).is_err();
                        fed += 1;
                        if failed {
                            break;
                        }
                        passed += 1;
                        assert!(
                            passed <= 16,
                            "victim {victim}: no error after {passed} frames"
                        );
                    }
                    println!(
                        "victim {victim}: the error surfaced after {passed} more frames passed"
                    );
                }
                Notice::View => {
                    router
                        .global_view::<ReservoirSampler<u64>>()
                        .expect_err("a view of a dead node");
                }
                Notice::Checkpoint => {
                    router
                        .checkpoint_all()
                        .expect_err("a checkpoint of a dead node");
                }
            }
            router.restore_node(victim).expect("restore");
            assert_eq!(
                view(&router),
                view(&baseline),
                "victim {victim}, {notice:?}"
            );
            for frame in &frames[fed..fed + 20] {
                baseline.ingest(frame).expect("baseline ingest");
                router.ingest(frame).expect("cluster ingest");
                assert_eq!(
                    view(&router),
                    view(&baseline),
                    "victim {victim}, {notice:?}"
                );
            }
            for j in 0..cfg.nodes {
                let (_, _, hwm, _) = router
                    .node_epoch_state::<ReservoirSampler<u64>>(j)
                    .expect("node epoch state");
                assert_eq!(
                    hwm,
                    router.frames_sent(j),
                    "victim {victim}, {notice:?}, node {j}"
                );
                assert_eq!(router.frames_sent(j), baseline.frames_sent(j));
            }
        }
    }

    #[test]
    fn tenant_deal_matches_the_mod_n_contract() {
        // Tenant ownership is the element-routing deal applied to ids:
        // tenant t lives on node t mod N, for every cluster width.
        for nodes in 1..=5usize {
            let cfg = ClusterConfig {
                nodes,
                ..ClusterConfig::default()
            };
            for t in [0u64, 1, 7, 1_000_003, u64::MAX] {
                assert_eq!(cfg.tenant_node(t), (t % nodes as u64) as usize);
                assert!(cfg.tenant_node(t) < nodes);
            }
        }
    }

    #[test]
    fn child_guard_kills_the_process_on_drop() {
        // The regression the guard exists for: a panicking client used
        // to leak its `--tcp-serve` soak server. Kill-on-drop means the
        // process is gone (and reaped) the moment the guard unwinds.
        let child = Command::new("sleep")
            .arg("600")
            .spawn()
            .expect("spawn sleep");
        let pid = child.id();
        let guard = ChildGuard::new(child);
        assert!(std::path::Path::new(&format!("/proc/{pid}")).exists());
        drop(guard);
        assert!(
            !std::path::Path::new(&format!("/proc/{pid}")).exists(),
            "dropped guard left process {pid} running"
        );
    }

    #[test]
    fn child_guard_graceful_wait_disarms_the_kill() {
        let child = Command::new("true").spawn().expect("spawn true");
        let guard = ChildGuard::new(child);
        let status = guard.wait().expect("wait");
        assert!(status.success());
    }
}
