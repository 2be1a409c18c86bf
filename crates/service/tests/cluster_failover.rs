//! Fault-injection property tests for cluster checkpoint failover — the
//! headline contract of the cluster layer:
//!
//! **A node killed mid-stream and restored from its checkpoint on a new
//! port produces zero query-visible difference versus the uninterrupted
//! run, per seed.**
//!
//! Each case runs the same frame schedule twice against real
//! `cluster_node` processes: once uninterrupted (recording the
//! coordinator's global view after *every* frame), once with faults
//! injected at proptest-chosen cut points — checkpoint at frame `c`,
//! `SIGKILL` a node at frame `d >= c` (which, across schedules, lands
//! mid-cadence-window, exactly at a cadence boundary, and right after a
//! publish-triggering frame), restore on a fresh ephemeral port, replay
//! the retained window. After every subsequent frame the faulted run's
//! merged view must equal the baseline's, bit for bit. The double-fault
//! case kills the restored node again; the never-checkpointed case
//! restores from an empty node plus a full-window replay.

use proptest::prelude::*;
use robust_sampling_core::sampler::ReservoirSampler;
use robust_sampling_service::cluster::{ClusterConfig, ClusterRouter};
use robust_sampling_service::protocol::MAX_INGEST_FRAME;

/// Split `stream` into frames whose sizes cycle through `splits`.
fn frames<'a>(stream: &'a [u64], splits: &[usize]) -> Vec<&'a [u64]> {
    let mut rest = stream;
    let mut out = Vec::new();
    let mut i = 0;
    while !rest.is_empty() {
        let take = if splits.is_empty() {
            rest.len()
        } else {
            (splits[i % splits.len()] % rest.len()).max(1)
        };
        out.push(&rest[..take]);
        rest = &rest[take..];
        i += 1;
    }
    out
}

/// A deterministic scrambled stream (workload choice is exercised by
/// `tests/cluster_determinism.rs`; here the schedule is what varies).
fn stream(n: usize, seed: u64) -> Vec<u64> {
    (0..n as u64)
        .map(|i| i.wrapping_add(seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48)
        .collect()
}

fn cluster(nodes: usize, base_seed: u64, epoch_every: usize) -> ClusterRouter {
    ClusterRouter::start(ClusterConfig {
        nodes,
        base_seed,
        epoch_every,
        cap: 32,
        universe: 1 << 16,
        workers: 1,
        tenant_budget_bytes: None,
    })
    .expect("start cluster")
}

/// One global view, reduced to comparable parts.
fn view_of(router: &ClusterRouter) -> (u64, usize, Vec<u64>) {
    let view = router
        .global_view::<ReservoirSampler<u64>>()
        .expect("global view");
    (view.epoch(), view.items(), view.visible_ref().to_vec())
}

/// Run `schedule` uninterrupted, recording the view after every frame.
fn baseline_views(
    nodes: usize,
    seed: u64,
    epoch_every: usize,
    schedule: &[&[u64]],
) -> Vec<(u64, usize, Vec<u64>)> {
    let mut router = cluster(nodes, seed, epoch_every);
    schedule
        .iter()
        .map(|frame| {
            router.ingest(frame).expect("cluster ingest");
            view_of(&router)
        })
        .collect()
}

/// Run `schedule` with a checkpoint after frame `c` and a kill + restore
/// of `victim` after frame `d`: the view after every frame equals the
/// uninterrupted run's, and the restored node's acked frames catch back
/// up to the router's ledger, so the replay was exact.
fn check_single_fault(
    nodes: usize,
    epoch_every: usize,
    seed: u64,
    schedule: &[&[u64]],
    victim: usize,
    c: usize,
    d: usize,
) -> Result<(), String> {
    let baseline = baseline_views(nodes, seed, epoch_every, schedule);
    let mut router = cluster(nodes, seed, epoch_every);
    for (i, frame) in schedule.iter().enumerate() {
        router.ingest(frame).expect("cluster ingest");
        if i == c {
            router.checkpoint_all().expect("checkpoint");
        }
        if i == d {
            router.kill_node(victim);
            router.restore_node(victim).expect("restore");
        }
        let got = view_of(&router);
        prop_assert_eq!(&got, &baseline[i], "frame {}", i);
    }
    let (_, _, hwm, _) = router
        .node_epoch_state::<ReservoirSampler<u64>>(victim)
        .expect("node epoch state");
    prop_assert_eq!(hwm, router.frames_sent(victim));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Single fault at an arbitrary cut point: checkpoint at frame `c`,
    /// kill + restore at frame `d`, zero view difference anywhere.
    #[test]
    fn killed_node_restored_from_checkpoint_changes_no_view(
        nodes in 1usize..4,
        epoch_every in 1usize..24,
        seed in 0u64..500,
        n in 16usize..1_200,
        splits in proptest::collection::vec(1usize..300, 1..5),
        victim in 0usize..4,
        cut in 0.0f64..1.0,
        gap in 0.0f64..1.0,
    ) {
        let victim = victim % nodes;
        let data = stream(n, seed);
        let schedule = frames(&data, &splits);
        let c = ((schedule.len() as f64 * cut) as usize).min(schedule.len() - 1);
        let d = c + ((schedule.len() - c) as f64 * gap) as usize;
        let d = d.min(schedule.len() - 1);
        check_single_fault(nodes, epoch_every, seed, &schedule, victim, c, d)?;
    }

    /// Double fault: the restored node dies again (same checkpoint,
    /// same retained window — replayed twice) and still no view
    /// anywhere differs from the uninterrupted run.
    #[test]
    fn double_fault_on_the_same_node_changes_no_view(
        nodes in 2usize..4,
        epoch_every in 1usize..16,
        seed in 0u64..500,
        n in 32usize..900,
        splits in proptest::collection::vec(1usize..200, 1..4),
        victim in 0usize..4,
        cut in 0.0f64..1.0,
    ) {
        let victim = victim % nodes;
        let data = stream(n, seed.wrapping_add(77));
        let schedule = frames(&data, &splits);
        let c = ((schedule.len() as f64 * cut) as usize).min(schedule.len() - 1);
        // Second kill strikes midway through what remains.
        let d2 = c + (schedule.len() - c) / 2;
        let baseline = baseline_views(nodes, seed, epoch_every, &schedule);

        let mut router = cluster(nodes, seed, epoch_every);
        for (i, frame) in schedule.iter().enumerate() {
            router.ingest(frame).expect("cluster ingest");
            if i == c {
                router.checkpoint_all().expect("checkpoint");
                router.kill_node(victim);
                router.restore_node(victim).expect("first restore");
            }
            if i == d2 && d2 > c {
                router.kill_node(victim);
                router.restore_node(victim).expect("second restore");
            }
            let got = view_of(&router);
            prop_assert_eq!(&got, &baseline[i], "frame {}", i);
        }
    }

    /// A node that dies before any checkpoint exists restarts empty and
    /// replays its entire retained window — still no view difference.
    #[test]
    fn fault_before_first_checkpoint_replays_the_full_window(
        nodes in 1usize..4,
        epoch_every in 1usize..16,
        seed in 0u64..500,
        n in 16usize..600,
        splits in proptest::collection::vec(1usize..150, 1..4),
        victim in 0usize..4,
        cut in 0.0f64..1.0,
    ) {
        let victim = victim % nodes;
        let data = stream(n, seed.wrapping_add(123));
        let schedule = frames(&data, &splits);
        let d = ((schedule.len() as f64 * cut) as usize).min(schedule.len() - 1);
        let baseline = baseline_views(nodes, seed, epoch_every, &schedule);

        let mut router = cluster(nodes, seed, epoch_every);
        for (i, frame) in schedule.iter().enumerate() {
            router.ingest(frame).expect("cluster ingest");
            if i == d {
                router.kill_node(victim);
                router.restore_node(victim).expect("restore");
            }
            let got = view_of(&router);
            prop_assert_eq!(&got, &baseline[i], "frame {}", i);
        }
    }
}

/// A single fault on a long schedule, beyond the proptest's ranges:
/// 8,000 elements in frames cycling 997, 64, 513, 1 and 130 elements on
/// three nodes with `E = 8`; checkpoint a third of the way in, node 1
/// killed and restored two thirds of the way in.
#[test]
fn single_fault_on_a_long_schedule_changes_no_view() {
    let data = stream(8_000, 29);
    let schedule = frames(&data, &[997, 64, 513, 1, 130]);
    let (c, d) = (schedule.len() / 3, 2 * schedule.len() / 3);
    check_single_fault(3, 8, 7, &schedule, 1, c, d).expect("failover changes no view");
}

/// Deterministic pin: kill exactly at a cadence boundary (the frame
/// that triggered a publish) and mid-window, on a 3-node cluster with a
/// lockstep-aligned schedule — the two named cut flavors, nailed down
/// without proptest shrinking in the way.
#[test]
fn boundary_and_mid_window_kills_are_both_transparent() {
    let nodes = 3;
    let epoch_every = 8;
    let cadence = nodes * epoch_every; // 24
    let data = stream(cadence * 6, 9);
    // Aligned frames: every frame ends exactly at a cluster cadence
    // boundary, so kill-after-frame == kill at a publish boundary.
    let aligned: Vec<&[u64]> = data.chunks(cadence).collect();
    // Misaligned frames: kills land mid-cadence-window.
    let misaligned: Vec<&[u64]> = data.chunks(17).collect();

    for schedule in [aligned, misaligned] {
        let baseline = baseline_views(nodes, 9, epoch_every, &schedule);
        let mut router = cluster(nodes, 9, epoch_every);
        for (i, frame) in schedule.iter().enumerate() {
            router.ingest(frame).expect("cluster ingest");
            if i == 1 {
                router.checkpoint_all().expect("checkpoint");
            }
            if i == 2 {
                // Kill immediately after the frame landed: at a publish
                // boundary for the aligned schedule (the node published
                // inline while ingesting the frame), mid-window for the
                // misaligned one.
                router.kill_node(1);
                router.restore_node(1).expect("restore");
            }
            assert_eq!(view_of(&router), baseline[i], "frame {i}");
        }
    }
}

/// The replay window really is trimmed by checkpoints: after a
/// checkpoint at the high-water mark, the window holds only frames sent
/// since — and a restore replays exactly those.
#[test]
fn checkpoints_trim_the_replay_window() {
    let mut router = cluster(2, 4, 4);
    let data = stream(400, 4);
    for frame in data[..200].chunks(23) {
        router.ingest(frame).expect("cluster ingest");
    }
    let sent_at_ckpt = router.frames_sent(0);
    router.checkpoint_all().expect("checkpoint");
    for frame in data[200..].chunks(23) {
        router.ingest(frame).expect("cluster ingest");
    }
    let sent_total = router.frames_sent(0);
    assert!(sent_total > sent_at_ckpt);
    // Kill + restore: the replayed tail is (sent_total - sent_at_ckpt)
    // frames; the restored node must end at the full high-water mark.
    router.kill_node(0);
    router.restore_node(0).expect("restore");
    let (_, _, hwm, _) = router
        .node_epoch_state::<ReservoirSampler<u64>>(0)
        .expect("node epoch state");
    assert_eq!(hwm, sent_total);
}

/// Ingest three 256-element chunks with no view or checkpoint after
/// them, so no read of any node follows their frames, then take node 1
/// down with `kill` and restore it. The frames the router had sent but
/// not yet read an ack for (or, where the client still buffers them,
/// not yet put on the wire) are replayed from the window: the view after
/// every later frame equals the uninterrupted run's, and the restored
/// node's high-water mark equals the frames the router dealt it.
fn check_kill_with_frames_in_flight(kill: impl Fn(&mut ClusterRouter, usize)) {
    let (nodes, seed, epoch_every, victim) = (2, 41, 5, 1);
    let data = stream(16 * 256, seed);
    let schedule: Vec<&[u64]> = data.chunks(256).collect();
    let baseline = baseline_views(nodes, seed, epoch_every, &schedule);
    let mut router = cluster(nodes, seed, epoch_every);
    for (i, frame) in schedule[..4].iter().enumerate() {
        router.ingest(frame).expect("cluster ingest");
        assert_eq!(view_of(&router), baseline[i], "frame {i}");
    }
    router.checkpoint_all().expect("checkpoint");
    for frame in &schedule[4..7] {
        router.ingest(frame).expect("cluster ingest");
    }
    kill(&mut router, victim);
    router.restore_node(victim).expect("restore");
    assert_eq!(view_of(&router), baseline[6], "after the restore");
    for (i, frame) in schedule.iter().enumerate().skip(7) {
        router.ingest(frame).expect("cluster ingest");
        assert_eq!(view_of(&router), baseline[i], "frame {i}");
    }
    let (_, _, hwm, _) = router
        .node_epoch_state::<ReservoirSampler<u64>>(victim)
        .expect("node epoch state");
    assert_eq!(hwm, router.frames_sent(victim));
}

#[test]
fn kill_node_with_frames_in_flight_changes_no_view() {
    check_kill_with_frames_in_flight(ClusterRouter::kill_node);
}

/// The same, but the process is killed behind the router's back: the
/// router still counts the node as up, and its restore replaces a
/// connection that owes acks.
#[test]
fn unannounced_kill_with_frames_in_flight_changes_no_view() {
    check_kill_with_frames_in_flight(|router, j| {
        let status = std::process::Command::new("kill")
            .args(["-KILL", &router.node_pid(j).to_string()])
            .status()
            .expect("run kill");
        assert!(status.success(), "kill -KILL failed");
    });
}

/// A node that dies *between* calls makes the next `ingest` fail. That
/// call still delivers and acks every other node's frames and retains
/// the dead node's, so a restore afterwards lands the cluster exactly on
/// the uninterrupted run: the same view after every frame, and the same
/// sent-frame count per node, matching each node's acked high-water
/// mark. Checked for each node as the victim, with the failing call
/// either one frame or three `MAX_INGEST_FRAME` chunks long.
#[test]
fn failed_ingest_to_a_dead_node_loses_no_frame() {
    let (nodes, seed, epoch_every) = (2, 31, 5);
    let long = 2 * MAX_INGEST_FRAME + 50;
    let data = stream(4_000 + long, seed);
    let (head, rest) = data.split_at(2_000);
    for (victim, failing) in [(0, 100), (1, 100), (0, long), (1, long)] {
        // Frame 20, the first after the kill, is `failing` elements long.
        let schedule: Vec<&[u64]> = head
            .chunks(100)
            .chain([&rest[..failing]])
            .chain(rest[failing..failing + 2_000].chunks(100))
            .collect();
        let mut baseline = cluster(nodes, seed, epoch_every);
        let mut router = cluster(nodes, seed, epoch_every);
        for (i, frame) in schedule.iter().enumerate() {
            baseline.ingest(frame).expect("baseline ingest");
            if i == 20 {
                router.kill_node(victim);
                assert!(
                    router.ingest(frame).is_err(),
                    "victim {victim}: ingest to a dead node must fail"
                );
                router.restore_node(victim).expect("restore");
            } else {
                router.ingest(frame).expect("cluster ingest");
            }
            if i == 10 {
                router.checkpoint_all().expect("checkpoint");
            }
            assert_eq!(
                view_of(&router),
                view_of(&baseline),
                "victim {victim}, frame {i}"
            );
        }
        assert_eq!(
            view_of(&router).1,
            schedule.iter().map(|f| f.len()).sum::<usize>(),
            "victim {victim}"
        );
        for j in 0..nodes {
            let (_, _, hwm, _) = router
                .node_epoch_state::<ReservoirSampler<u64>>(j)
                .expect("node epoch state");
            assert_eq!(
                router.frames_sent(j),
                baseline.frames_sent(j),
                "victim {victim}, node {j}"
            );
            assert_eq!(hwm, router.frames_sent(j), "victim {victim}, node {j}");
        }
    }
}

/// A `RESTORE` from another client that republishes the epoch number the
/// router holds, with a different item count: the node's "unchanged"
/// reply contradicts the router's cached view, which is a typed
/// `InvalidData` error, and the error leaves no cache behind, so the
/// next view pulls the restored state in full.
#[test]
fn unchanged_reply_contradicting_the_cached_view_is_a_typed_error() {
    use robust_sampling_service::{ServiceClient, SummaryService};
    let mut router = cluster(1, 3, 10);
    router.ingest(&stream(10, 3)).expect("cluster ingest");
    let view = router
        .global_view::<ReservoirSampler<u64>>()
        .expect("global view");
    assert_eq!((view.epoch(), view.items()), (1, 10));
    // Another service at the same epoch number, 15 items in.
    let mut other =
        SummaryService::start(1, 3, 10, |_, s| ReservoirSampler::<u64>::with_seed(32, s));
    other.ingest_frame(&stream(15, 4));
    let foreign = ServiceClient::connect_binary(router.node_addr(0)).expect("connect");
    foreign
        .restore(&other.checkpoint())
        .expect("foreign restore");
    let err = router
        .global_view::<ReservoirSampler<u64>>()
        .expect_err("an unchanged reply with other items");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let view = router
        .global_view::<ReservoirSampler<u64>>()
        .expect("global view after the error");
    assert_eq!((view.epoch(), view.items()), (1, 15));
}

/// A checkpoint whose frame high-water mark is beyond the frames the
/// router sent the node — another client's `RESTORE` put the node 5
/// frames into a foreign stream — is a typed `InvalidData` error, not a
/// panic, from both `checkpoint_node` and `checkpoint_all`. The replay
/// window and the kept envelope stay as they were, so a failover
/// afterwards still lands on the router's own uninterrupted run.
#[test]
fn checkpoint_beyond_the_sent_frames_is_a_typed_error() {
    use robust_sampling_service::{ServiceClient, SummaryService};
    let data = stream(30, 3);
    let mut baseline = cluster(1, 3, 10);
    let mut router = cluster(1, 3, 10);
    for frame in data.chunks(10) {
        baseline.ingest(frame).expect("baseline ingest");
    }
    router.ingest(&data[..10]).expect("cluster ingest");
    router.checkpoint_all().expect("checkpoint");
    router.ingest(&data[10..20]).expect("cluster ingest");
    let mut other =
        SummaryService::start(1, 3, 10, |_, s| ReservoirSampler::<u64>::with_seed(32, s));
    for frame in stream(15, 4).chunks(3) {
        other.ingest_frame(frame);
    }
    let foreign = ServiceClient::connect_binary(router.node_addr(0)).expect("connect");
    assert!(
        foreign
            .restore(&other.checkpoint())
            .expect("foreign restore")
            >= 5
    );
    let err = router.checkpoint_node(0).expect_err("a foreign checkpoint");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let err = router.checkpoint_all().expect_err("a foreign checkpoint");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert_eq!(router.frames_sent(0), 2);
    // Fail over: the kept envelope (1 frame in) plus the retained second
    // frame rebuild the router's own node.
    router.kill_node(0);
    router.restore_node(0).expect("restore");
    router.ingest(&data[20..]).expect("cluster ingest");
    assert_eq!(view_of(&router), view_of(&baseline));
    let (_, _, hwm, _) = router
        .node_epoch_state::<ReservoirSampler<u64>>(0)
        .expect("node epoch state");
    assert_eq!(hwm, router.frames_sent(0));
}
