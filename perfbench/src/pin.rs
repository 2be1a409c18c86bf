//! CPU placement: the load generator runs on CPU 0 and the servers it
//! spawns on CPU 1.
//!
//! Unpinned, the scheduler moves generator and server threads between
//! the two vCPUs, and a run's round-trip times depend on where they
//! happened to land (measured on a 2-vCPU VM: duel rounds between 13K and
//! 36K per second across seeds). Pinned, the generator never takes the
//! server's CPU, and the open-loop sender can wait for its slots by
//! yield-spinning on its own CPU instead of sleeping past them.
//!
//! Affinity is set per thread with `taskset -p`: the main thread is
//! pinned before any other thread starts (later threads inherit it), and
//! a spawning thread moves to the server CPU just for the spawn, which
//! the child process inherits.

use std::process::{Command, Stdio};
use std::sync::OnceLock;

const LOADGEN_CPU: &str = "0";
const SERVER_CPU: &str = "1";

static PINNED: OnceLock<bool> = OnceLock::new();

/// Set the calling thread's CPU affinity to the `taskset` list `cpus`.
fn set_thread_cpus(cpus: &str) -> bool {
    let Ok(link) = std::fs::read_link("/proc/thread-self") else {
        return false;
    };
    let Some(tid) = link.file_name().and_then(|t| t.to_str()).map(str::to_owned) else {
        return false;
    };
    Command::new("taskset")
        .args(["-pc", cpus, &tid])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// CPUs online, counted from `/proc/stat` (unlike
/// `available_parallelism`, not narrowed by this thread's pinning).
pub fn cpus() -> usize {
    std::fs::read_to_string("/proc/stat")
        .map(|s| {
            s.lines()
                .filter(|l| {
                    l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit)
                })
                .count()
        })
        .unwrap_or(0)
        .max(1)
}

fn pinned() -> bool {
    PINNED.get().copied().unwrap_or(false)
}

/// Pin the calling (main) thread to the generator's CPU, if the machine
/// has two CPUs or more and `taskset` works. Call before spawning any
/// thread.
pub fn init() {
    PINNED.get_or_init(|| cpus() >= 2 && set_thread_cpus(LOADGEN_CPU));
}

/// Run `f`, which spawns server processes, on the server CPU.
pub fn spawn_servers<T>(f: impl FnOnce() -> T) -> T {
    if !pinned() {
        return f();
    }
    set_thread_cpus(SERVER_CPU);
    let out = f();
    set_thread_cpus(LOADGEN_CPU);
    out
}

pub fn describe() -> String {
    if pinned() {
        format!("loadgen cpu {LOADGEN_CPU}, servers cpu {SERVER_CPU}")
    } else {
        "none".into()
    }
}
