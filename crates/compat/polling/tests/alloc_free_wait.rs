//! Allocation gate for the event loop's wait: once warmed up, waiting on
//! an unchanged registered set performs **zero heap allocations**.
//!
//! A counting `#[global_allocator]` wraps the system allocator for this
//! test binary. This file holds exactly one test: the counter is global,
//! so a concurrently running sibling test would pollute the measured
//! window.

#![cfg(unix)]

use polling::{Event, Poller};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

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
fn waiting_on_an_unchanged_set_performs_zero_heap_allocations() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (mut served, _) = listener.accept().unwrap();
    // Unread bytes keep the client readable on every wait (level
    // triggered); the idle listener rides along unready.
    served.write_all(b"ready").unwrap();
    let poller = Poller::new().unwrap();
    poller.add(&listener, Event::readable(0)).unwrap();
    poller.add(&client, Event::readable(1)).unwrap();
    let mut events = Vec::with_capacity(4);

    // Warmup: the first wait builds the pollfd buffer.
    for _ in 0..10 {
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
    }

    let before = ALLOCS.load(Ordering::SeqCst);
    for _ in 0..1_000 {
        events.clear();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].key, 1);
    }
    let after = ALLOCS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "wait over an unchanged set must not allocate"
    );

    // A changed set is picked up on the next wait.
    poller.delete(&client).unwrap();
    events.clear();
    poller
        .wait(&mut events, Some(Duration::from_millis(5)))
        .unwrap();
    assert!(events.is_empty());
}
