//! Allocation gate for the tenant arena's evict/revive cycle: a miss in
//! a full arena moves reservoirs between the resident and the cold tier
//! instead of allocating reservoir-sized buffers.
//!
//! * Steady state: over 1,000 misses on a full arena of full tenants
//!   (k = 1,499, an 11,992-byte reservoir each), the allocator hands out
//!   under 1 KiB per miss and no single block of 8·k bytes or more. The
//!   victim's sampler moves to the cold map with its reservoir, and the
//!   revived one moves back with its own; what remains is the box that
//!   holds the victim's fixed sampler state in the cold map and the LRU
//!   index's node churn.
//! * Quantile on a resident tenant: after the first call sizes the
//!   arena's selection buffer, a `quantile` allocates nothing.
//! * Fill after revival: a partial tenant revived and then filled to k
//!   allocates at most 8·k bytes in all, the victim's exact-length copy
//!   of its small sample and its cold box included. The revived tenant
//!   takes the victim's k-word buffer, so filling it never grows the
//!   buffer past k by doubling. (A tenant is only ever cold in a full
//!   arena: residents leave by eviction alone.)
//!
//! A byte-counting `#[global_allocator]` wraps the system allocator for
//! this test binary. This file holds exactly one test: the counter is
//! global, so a concurrently running sibling test would pollute the
//! measured window.

use robust_sampling_service::tenant::SLOT_OVERHEAD_BYTES;
use robust_sampling_service::{TenantArena, TenantArenaConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

/// Bytes handed out: every allocation's size, and every reallocation's
/// new size.
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The largest single block handed out (allocation or reallocation)
/// since it was last reset.
static LARGEST: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
    LARGEST.fetch_max(size as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// perfbench's `tenant-churn` sizing (k = 1,499) with room for `slots`
/// resident tenants.
fn arena(slots: usize) -> TenantArena {
    let config = TenantArenaConfig {
        universe: 1 << 20,
        eps: 0.15,
        delta: 0.1,
        budget_bytes: 0,
        base_seed: 7,
        robust: true,
    };
    let slot_bytes = 8 * config.reservoir_k() + SLOT_OVERHEAD_BYTES;
    TenantArena::new(TenantArenaConfig {
        budget_bytes: slots * slot_bytes,
        ..config
    })
}

fn values(n: usize, salt: u64) -> Vec<u64> {
    (0..n as u64)
        .map(|i| (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44)
        .collect()
}

#[test]
fn evict_revive_recycles_the_victims_buffers() {
    // ---- Steady-state misses on a full arena of full tenants.
    const SLOTS: usize = 64;
    const TENANTS: u64 = 2 * SLOTS as u64;
    let mut full = arena(SLOTS);
    let k = full.reservoir_k();
    assert_eq!(k, 1_499, "perfbench's tenant-churn sizing");
    let frame = values(2 * k, 1);
    // Warmup: every tenant full, every tenant evicted and revived at
    // least once, so the maps have their final size.
    for round in 0..3 {
        for t in 0..TENANTS {
            full.ingest(t, &frame[..if round == 0 { 2 * k } else { 8 }]);
        }
    }
    assert_eq!(full.resident_tenants(), SLOTS);
    // Round-robin over twice the resident capacity: every touch misses.
    const MISSES: u64 = 1_000;
    let before_counters = full.counters();
    let before = BYTES.load(Ordering::SeqCst);
    LARGEST.store(0, Ordering::SeqCst);
    for i in 0..MISSES {
        full.ingest(i % TENANTS, &frame[..8]);
    }
    let bytes = BYTES.load(Ordering::SeqCst) - before;
    let largest = LARGEST.load(Ordering::SeqCst);
    let after_counters = full.counters();
    assert_eq!(after_counters.revivals - before_counters.revivals, MISSES);
    assert_eq!(after_counters.evictions - before_counters.evictions, MISSES);
    let per_miss = bytes as f64 / MISSES as f64;
    assert!(
        per_miss < 1024.0,
        "a steady-state miss allocated {per_miss:.0} B (a reservoir is {} B)",
        8 * k
    );
    assert!(
        largest < 8 * k as u64,
        "a steady-state miss allocated a {largest} B block; reservoirs must move, not be copied"
    );

    // ---- Quantiles on a resident full tenant select in place.
    let resident = (MISSES - 1) % TENANTS;
    assert!(full.is_resident(resident));
    full.quantile(resident, 0.5);
    let before = BYTES.load(Ordering::SeqCst);
    for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
        full.quantile(resident, q);
    }
    let bytes = BYTES.load(Ordering::SeqCst) - before;
    assert_eq!(
        bytes, 0,
        "quantiles on a resident tenant allocated {bytes} B"
    );

    // ---- A partial tenant revived and then filled to k.
    let mut small = arena(2);
    small.ingest(1, &values(100, 2)); // the partial tenant
    small.ingest(2, &values(50, 3));
    small.ingest(3, &values(50, 4)); // evicts tenant 1
    assert!(!small.is_resident(1));
    let (revive, fill) = (values(1, 5), values(k - 101, 6));
    let before = BYTES.load(Ordering::SeqCst);
    small.ingest(1, &revive); // revives tenant 1, evicts tenant 2
    small.ingest(1, &fill);
    let bytes = BYTES.load(Ordering::SeqCst) - before;
    assert!(small.is_resident(1));
    assert_eq!(small.items(1), k, "tenant 1 is exactly full");
    assert!(
        bytes <= 8 * k as u64,
        "reviving a 100-element tenant and filling it to k = {k} allocated {bytes} B"
    );
}
