//! Offline stand-in for the published `polling` crate.
//!
//! The build environment has no crates.io access, so the small readiness
//! subset the service crate's event loop uses is implemented locally:
//! a [`Poller`] holding a registered fd set, and a level-triggered
//! [`Poller::wait`] that reports which registered sources are readable
//! or writable right now. On Linux the wait is one `poll(2)` syscall
//! over the registered set — the only FFI in the workspace, isolated in
//! this shim exactly like the other compat crates isolate their
//! stand-in surface. (`poll(2)` is O(set size) per call; for the fd
//! counts this workspace serves — tens of thousands — that sweep is
//! microseconds, and the level-triggered contract keeps the event loop
//! restart-safe: a connection with buffered work is simply reported
//! again on the next wait.)
//!
//! Differences from the published crate are deliberate simplifications:
//! registration is keyed by raw fd, interest is level-triggered (no
//! oneshot re-arm dance), and `Event` carries plain `readable`/
//! `writable` flags.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::io;
use std::sync::Mutex;
use std::time::Duration;

#[cfg(unix)]
use std::os::unix::io::{AsRawFd, RawFd};

#[cfg(not(unix))]
/// Raw fd stand-in for non-unix targets (readiness degrades to polling
/// every registered source after the timeout).
pub type RawFd = i32;

#[cfg(not(unix))]
/// Minimal `AsRawFd` stand-in for non-unix targets.
pub trait AsRawFd {
    /// The raw descriptor identifying this source.
    fn as_raw_fd(&self) -> RawFd;
}

/// A readiness event: which source (by the `key` it was registered
/// under) and which directions are ready.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The caller-chosen key passed to [`Poller::add`].
    pub key: usize,
    /// The source can be read without blocking (or has hung up).
    pub readable: bool,
    /// The source can be written without blocking.
    pub writable: bool,
}

impl Event {
    /// Interest in readability only.
    pub fn readable(key: usize) -> Self {
        Event {
            key,
            readable: true,
            writable: false,
        }
    }

    /// Interest in writability only.
    pub fn writable(key: usize) -> Self {
        Event {
            key,
            readable: false,
            writable: true,
        }
    }

    /// Interest in both directions.
    pub fn all(key: usize) -> Self {
        Event {
            key,
            readable: true,
            writable: true,
        }
    }
}

/// One `struct pollfd` record, laid out as `poll(2)` expects it.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct PollFd {
    fd: RawFd,
    events: i16,
    revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

#[derive(Debug, Default)]
struct Registry {
    /// Interest per fd: the caller's key and the `poll(2)` event mask.
    interest: BTreeMap<RawFd, (usize, i16)>,
    /// Set when `interest` changed since [`Poller::wait`] last rebuilt
    /// its `pollfd` buffer.
    changed: bool,
}

/// The buffer [`Poller::wait`] hands to `poll(2)`: one record per
/// registered fd and, in the same order, the key it reports.
#[derive(Debug, Default)]
struct PollSet {
    fds: Vec<PollFd>,
    keys: Vec<usize>,
}

/// A level-triggered readiness poller over a set of registered sources.
///
/// `wait` reuses one `pollfd` buffer and rebuilds it only after `add`,
/// `modify` or `delete` changed the registered set, so a wait over an
/// unchanged set performs no heap allocation.
#[derive(Debug, Default)]
pub struct Poller {
    registry: Mutex<Registry>,
    set: Mutex<PollSet>,
}

impl Poller {
    /// An empty poller.
    pub fn new() -> io::Result<Self> {
        Ok(Self::default())
    }

    /// Register `source` under `key` with the interest set carried by
    /// `interest`'s flags. One registration per fd; re-adding replaces.
    pub fn add(&self, source: &impl AsRawFd, interest: Event) -> io::Result<()> {
        let mask = if interest.readable { POLLIN } else { 0 }
            | if interest.writable { POLLOUT } else { 0 };
        let mut reg = self.registry.lock().expect("poller lock");
        let old = reg
            .interest
            .insert(source.as_raw_fd(), (interest.key, mask));
        reg.changed |= old != Some((interest.key, mask));
        Ok(())
    }

    /// Replace the interest set of an already-registered source.
    pub fn modify(&self, source: &impl AsRawFd, interest: Event) -> io::Result<()> {
        self.add(source, interest)
    }

    /// Remove a source from the registered set.
    pub fn delete(&self, source: &impl AsRawFd) -> io::Result<()> {
        let mut reg = self.registry.lock().expect("poller lock");
        reg.changed |= reg.interest.remove(&source.as_raw_fd()).is_some();
        Ok(())
    }

    /// Number of registered sources.
    pub fn len(&self) -> usize {
        self.registry.lock().expect("poller lock").interest.len()
    }

    /// Whether no sources are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Wait until at least one registered source is ready or `timeout`
    /// elapses (`None` = wait indefinitely), then append one [`Event`]
    /// per ready source to `events` and return how many were appended.
    /// Level-triggered: a source that stays ready is reported again on
    /// the next call.
    pub fn wait(&self, events: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        let mut set = self.set.lock().expect("poller lock");
        let PollSet { fds, keys } = &mut *set;
        {
            let mut reg = self.registry.lock().expect("poller lock");
            if reg.changed {
                fds.clear();
                keys.clear();
                for (&fd, &(key, mask)) in &reg.interest {
                    fds.push(PollFd {
                        fd,
                        events: mask,
                        revents: 0,
                    });
                    keys.push(key);
                }
                reg.changed = false;
            }
        }
        if fds.is_empty() {
            if let Some(t) = timeout {
                std::thread::sleep(t);
            }
            return Ok(0);
        }
        if sys::poll_fds(fds, timeout)? == 0 {
            return Ok(0);
        }
        let mut appended = 0;
        for (pfd, &key) in fds.iter().zip(keys.iter()) {
            if pfd.revents == 0 {
                continue;
            }
            // Error/hangup conditions surface as readability so the
            // owner's next read observes the EOF/error directly.
            events.push(Event {
                key,
                readable: pfd.revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0,
                writable: pfd.revents & (POLLOUT | POLLERR) != 0,
            });
            appended += 1;
        }
        Ok(appended)
    }
}

#[cfg(all(unix, target_os = "linux"))]
mod sys {
    use super::PollFd;
    use std::io;
    use std::time::Duration;

    extern "C" {
        // `nfds_t` is `unsigned long` on Linux.
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    /// One `poll(2)` call over `fds`: fills every `revents` and returns
    /// how many records have one set (0 on timeout or `EINTR`).
    pub fn poll_fds(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
        let ms = timeout
            .map(|t| i32::try_from(t.as_millis().max(1)).unwrap_or(i32::MAX))
            .unwrap_or(-1);
        // SAFETY: `fds` is a live, correctly-sized array of `struct
        // pollfd`-layout records for the duration of the call, and the
        // kernel only writes within it (the `revents` fields).
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, ms) };
        if rc < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0); // EINTR: the caller's loop just re-waits.
            }
            return Err(err);
        }
        Ok(rc as usize)
    }
}

#[cfg(not(all(unix, target_os = "linux")))]
mod sys {
    //! Degenerate fallback for targets without `poll(2)`: sleep out the
    //! timeout and report every registered source as ready in every
    //! direction it is interested in. Correct (the owner's nonblocking
    //! reads/writes observe `WouldBlock` for the ones that were not
    //! actually ready) but a busy sweep — the Linux path is the real
    //! implementation.
    use super::PollFd;
    use std::io;
    use std::time::Duration;

    pub fn poll_fds(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
        std::thread::sleep(timeout.unwrap_or(Duration::from_millis(1)));
        for pfd in fds.iter_mut() {
            pfd.revents = pfd.events;
        }
        Ok(fds.len())
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn empty_poller_times_out() {
        let p = Poller::new().unwrap();
        let mut events = Vec::new();
        let n = p.wait(&mut events, Some(Duration::from_millis(1))).unwrap();
        assert_eq!(n, 0);
        assert!(events.is_empty());
    }

    #[test]
    fn listener_becomes_readable_on_pending_accept() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let p = Poller::new().unwrap();
        p.add(&listener, Event::readable(7)).unwrap();
        let mut events = Vec::new();
        // Nothing pending yet: times out empty.
        p.wait(&mut events, Some(Duration::from_millis(5))).unwrap();
        assert!(events.is_empty());
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let n = p.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].key, 7);
        assert!(events[0].readable);
    }

    #[test]
    fn stream_readability_is_level_triggered_until_drained() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut served, _) = listener.accept().unwrap();
        served.write_all(b"ping").unwrap();
        let mut peer = client;
        peer.set_nonblocking(true).unwrap();
        let p = Poller::new().unwrap();
        p.add(&peer, Event::readable(1)).unwrap();
        let mut events = Vec::new();
        // Reported ready on every wait until the bytes are consumed.
        for _ in 0..2 {
            events.clear();
            let n = p.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
            assert_eq!(n, 1, "level-triggered readiness must persist");
            assert!(events[0].readable);
        }
        let mut buf = [0u8; 16];
        assert_eq!(peer.read(&mut buf).unwrap(), 4);
        events.clear();
        p.wait(&mut events, Some(Duration::from_millis(5))).unwrap();
        assert!(events.is_empty(), "drained stream no longer readable");
        p.delete(&peer).unwrap();
        assert!(p.is_empty());
    }

    #[test]
    fn writable_interest_reports_an_idle_stream() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let p = Poller::new().unwrap();
        p.add(&client, Event::writable(3)).unwrap();
        let mut events = Vec::new();
        let n = p.wait(&mut events, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert!(events[0].writable);
        assert!(!events[0].readable);
        // Switching interest to readable stops the writable reports.
        p.modify(&client, Event::readable(3)).unwrap();
        events.clear();
        p.wait(&mut events, Some(Duration::from_millis(5))).unwrap();
        assert!(events.is_empty());
    }
}
