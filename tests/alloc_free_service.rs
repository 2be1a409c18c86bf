//! Allocation gate for the serving data path: after warmup, the ingest
//! path — both the slice form (`ingest_frame`) and the wire form
//! (`ingest_frame_le`) — performs **zero heap allocations** per frame,
//! for a one-shard service and for two-, three- and four-shard ones.
//! With three shards a 1,024-element frame leaves the round-robin offset
//! one further on, so every frame starts each shard's stride somewhere
//! new.
//! All run on the caller's thread.
//!
//! A counting `#[global_allocator]` wraps the system allocator for this
//! test binary (the counter covers every thread). The warmup phase grows
//! the reused buffer to full size and fills the shard reservoirs, so all
//! capacities stabilize; the measured window
//! then asserts the allocation counter does not move at all across
//! hundreds of frames.
//!
//! This file holds exactly one test: the counter is global, so a
//! concurrently running sibling test would pollute the measured window.

use robust_sampling_core::sampler::ReservoirSampler;
use robust_sampling_service::SummaryService;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn steady_state_ingest_performs_zero_heap_allocations() {
    let frame: Vec<u64> = (0..1024u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let mut payload = Vec::with_capacity(8 * frame.len());
    for &v in &frame {
        payload.extend_from_slice(&v.to_le_bytes());
    }

    // K = 1 is every cluster node's shape; K = 2 is the served shape
    // the serve kernels time; K = 3 rotates the stride offset from frame
    // to frame (1,024 % 3 = 1); K = 4 does not.
    for shards in [1, 2, 3, 4] {
        // Cadence effectively off: the measured window isolates the pure
        // ingest path (a publish clones the shards: a per-publish cost
        // by design).
        let mut svc = SummaryService::start(shards, 42, usize::MAX, |_, s| {
            ReservoirSampler::with_seed(256, s)
        });

        // Warmup: grow the reused buffer to full frame size and fill the
        // reservoirs, and publish once, so no warmup growth bleeds into
        // the measured window.
        for _ in 0..256 {
            svc.ingest_frame(&frame);
            svc.ingest_frame_le(&payload);
        }
        svc.publish();

        let before = ALLOCS.load(Ordering::SeqCst);
        for _ in 0..512 {
            svc.ingest_frame(&frame);
            svc.ingest_frame_le(&payload);
        }
        let after = ALLOCS.load(Ordering::SeqCst);
        assert_eq!(
            after - before,
            0,
            "steady-state ingest with {shards} shard(s) must not allocate"
        );

        // The gate measured real work: the frames above must be visible.
        svc.publish();
        let snap = svc.snapshot();
        assert_eq!(snap.items(), (256 + 512) * 2 * frame.len());
    }
}
