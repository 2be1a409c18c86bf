//! Spawning the system under test: `cluster_node` server processes.
//!
//! Every process lives behind a [`ChildGuard`], so a panicking or failing
//! run kills and reaps it on unwind. Peak memory is read from the
//! children's `/proc/<pid>/status`.

use robust_sampling_service::ChildGuard;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// The `cluster_node` binary built next to this executable.
pub fn node_bin() -> std::io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .ok_or_else(|| std::io::Error::other("executable has no directory"))?;
    let bin = dir.join(format!("cluster_node{}", std::env::consts::EXE_SUFFIX));
    if bin.exists() {
        Ok(bin)
    } else {
        Err(std::io::Error::other(format!(
            "{} not found: build the perfbench package's bins",
            bin.display()
        )))
    }
}

/// Command-line configuration of one single-node server.
#[derive(Debug, Clone)]
pub struct NodeArgs {
    pub seed: u64,
    pub epoch_every: usize,
    pub cap: usize,
    pub universe: u64,
    /// `Some((budget_bytes, arena_seed))` enables the tenant arena.
    pub tenants: Option<(usize, u64)>,
}

/// One spawned server process and its serving address.
pub struct Node {
    pub child: ChildGuard,
    pub addr: SocketAddr,
}

/// Spawn a `cluster_node` and wait for its `LISTENING <addr>` handshake.
pub fn spawn(args: &NodeArgs) -> std::io::Result<Node> {
    let mut cmd = Command::new(node_bin()?);
    cmd.arg("--seed")
        .arg(args.seed.to_string())
        .arg("--epoch-every")
        .arg(args.epoch_every.to_string())
        .arg("--cap")
        .arg(args.cap.to_string())
        .arg("--universe")
        .arg(args.universe.to_string())
        .arg("--workers")
        .arg("1");
    if let Some((budget, seed)) = args.tenants {
        cmd.arg("--tenant-budget")
            .arg(budget.to_string())
            .arg("--tenant-seed")
            .arg(seed.to_string());
    }
    let mut child = cmd
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut child = ChildGuard::new(child);
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line)?;
    match line
        .trim()
        .strip_prefix("LISTENING ")
        .and_then(|a| a.parse::<SocketAddr>().ok())
    {
        Some(addr) => Ok(Node { child, addr }),
        None => {
            child.kill_now();
            Err(std::io::Error::other(format!(
                "bad cluster_node handshake: {line:?}"
            )))
        }
    }
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mib(pid: u32) -> std::io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| std::io::Error::other(format!("no VmHWM for pid {pid}")))
}

/// Pids of this process's live `cluster_node` children (the processes a
/// `ClusterRouter` spawned, whose handles it keeps private).
pub fn node_children() -> Vec<u32> {
    let me = std::process::id();
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    let mut pids: Vec<u32> = dir
        .filter_map(|e| e.ok()?.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            // `/proc/<pid>/stat` is `pid (comm) state ppid …`.
            let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
                return false;
            };
            let Some((head, tail)) = stat.rsplit_once(") ") else {
                return false;
            };
            let ppid = tail.split_whitespace().nth(1).and_then(|p| p.parse().ok());
            head.ends_with("(cluster_node") && ppid == Some(me)
        })
        .collect();
    pids.sort_unstable();
    pids
}
