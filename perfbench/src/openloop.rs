//! The open-loop load generator: requests leave on a fixed schedule,
//! whether or not earlier ones have been answered.
//!
//! One connection, two threads: the calling thread encodes and sends
//! request `i` at `start + i / rate`, and a receiver thread reads the
//! in-order responses. Every latency is timed from the request's
//! **scheduled** send time, so a server stall is charged to every request
//! that was due while it lasted, and how late the sender itself ran is
//! reported separately.

use robust_sampling_service::frame;
use robust_sampling_service::Response;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What a request asks for; latencies are kept per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Ingest,
    Query,
}

/// Timings of one open-loop phase, in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct OpenLoop {
    /// Scheduled send → response, per kind.
    pub ingest_ns: Vec<u64>,
    pub query_ns: Vec<u64>,
    /// Actual send → response (the client round trip), per kind.
    pub ingest_rtt_ns: Vec<u64>,
    pub query_rtt_ns: Vec<u64>,
    /// Actual send − scheduled send, per request.
    pub late_ns: Vec<u64>,
    /// Requests whose response was an error or of the wrong kind.
    pub failed: usize,
    /// Elements acknowledged by ingest responses.
    pub elems_acked: u64,
}

impl OpenLoop {
    pub fn attempted(&self) -> usize {
        self.ingest_ns.len() + self.query_ns.len()
    }

    /// Pool another phase's timings into this one.
    pub fn absorb(&mut self, other: OpenLoop) {
        self.ingest_ns.extend(other.ingest_ns);
        self.query_ns.extend(other.query_ns);
        self.ingest_rtt_ns.extend(other.ingest_rtt_ns);
        self.query_rtt_ns.extend(other.query_rtt_ns);
        self.late_ns.extend(other.late_ns);
        self.failed += other.failed;
        self.elems_acked += other.elems_acked;
    }
}

/// Block until `now() >= deadline`: sleep while the deadline is far
/// (sleeps overshoot by the timer slack, ~50 µs), then yield-spin, so a
/// request leaves within a few µs of its slot and the receiver thread,
/// which shares the CPU, still runs whenever a response arrives.
fn wait_until(now: &impl Fn() -> u64, deadline: u64) {
    const SLEEP_MARGIN_NS: u64 = 200_000;
    loop {
        let t = now();
        if t >= deadline {
            return;
        }
        if deadline - t > SLEEP_MARGIN_NS {
            std::thread::sleep(Duration::from_nanos(deadline - t - SLEEP_MARGIN_NS));
        } else {
            std::thread::yield_now();
        }
    }
}

struct Sent {
    kind: Kind,
    elems: u64,
    scheduled: u64,
    sent: u64,
}

/// Connect the open loop's own connection to `addr`.
pub fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Drive `stream` (from [`connect`]; idle, no response outstanding) for
/// `duration` at `rate` requests per second. `encode(i, buf)` appends
/// request `i`'s frame to `buf` and returns its kind and element count;
/// `accept(kind, response)` judges each answer.
pub fn run(
    stream: &TcpStream,
    rate: f64,
    duration: Duration,
    mut encode: impl FnMut(usize, &mut Vec<u8>) -> (Kind, u64),
    accept: impl Fn(Kind, &Response) -> bool + Send,
) -> std::io::Result<OpenLoop> {
    let mut reader = stream;
    let mut writer = stream;
    let interval_ns = (1e9 / rate) as u64;
    let total = (duration.as_nanos() as u64 / interval_ns.max(1)) as usize;
    let (tx, rx) = mpsc::channel::<Sent>();
    let t0 = Instant::now();
    let now = move || t0.elapsed().as_nanos() as u64;

    std::thread::scope(|s| {
        let receiver = s.spawn(move || -> std::io::Result<OpenLoop> {
            let mut out = OpenLoop::default();
            let mut buf: Vec<u8> = Vec::with_capacity(1 << 16);
            let mut chunk = vec![0u8; 1 << 16];
            for sent in rx {
                let resp = loop {
                    match frame::decode_response(&buf) {
                        Ok(Some((resp, used))) => {
                            buf.drain(..used);
                            break resp;
                        }
                        Ok(None) => {
                            let n = reader.read(&mut chunk)?;
                            if n == 0 {
                                return Err(std::io::Error::other("server closed the connection"));
                            }
                            buf.extend_from_slice(&chunk[..n]);
                        }
                        Err(e) => return Err(std::io::Error::other(format!("frame error: {e}"))),
                    }
                };
                let done = now();
                if accept(sent.kind, &resp) {
                    if sent.kind == Kind::Ingest {
                        out.elems_acked += sent.elems;
                    }
                } else {
                    out.failed += 1;
                }
                let (lat, rtt) = match sent.kind {
                    Kind::Ingest => (&mut out.ingest_ns, &mut out.ingest_rtt_ns),
                    Kind::Query => (&mut out.query_ns, &mut out.query_rtt_ns),
                };
                lat.push(done - sent.scheduled);
                rtt.push(done - sent.sent);
                out.late_ns.push(sent.sent - sent.scheduled);
            }
            Ok(out)
        });

        let mut wbuf = Vec::with_capacity(1 << 12);
        let mut send_result = Ok(());
        for i in 0..total {
            let scheduled = i as u64 * interval_ns;
            wait_until(&now, scheduled);
            wbuf.clear();
            let (kind, elems) = encode(i, &mut wbuf);
            let sent = now();
            // Announce before writing, so the receiver always knows what
            // the next response answers.
            if tx
                .send(Sent {
                    kind,
                    elems,
                    scheduled,
                    sent,
                })
                .is_err()
            {
                break;
            }
            if let Err(e) = writer.write_all(&wbuf) {
                send_result = Err(e);
                break;
            }
        }
        drop(tx);
        let received = receiver.join().expect("open-loop receiver panicked");
        send_result.and(received)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::quantile;
    use robust_sampling_service::frame::RequestFrame;
    use std::net::TcpListener;

    /// A minimal frame server: answers every `INGEST` with `INGESTED`,
    /// but sleeps `stall` before answering request number `stall_at`.
    fn stalling_server(
        stall_at: usize,
        stall: Duration,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let mut buf = Vec::new();
            let mut chunk = [0u8; 4096];
            let mut served = 0usize;
            let mut items = 0usize;
            let mut out = Vec::new();
            loop {
                match frame::decode_request_frame(&buf).expect("well-formed frames") {
                    Some((req, used)) => {
                        let RequestFrame::IngestLe(payload) = req else {
                            panic!("only INGEST expected");
                        };
                        items += payload.len() / 8;
                        buf.drain(..used);
                        if served == stall_at {
                            std::thread::sleep(stall);
                        }
                        served += 1;
                        out.clear();
                        frame::encode_response(&Response::Ingested(items), &mut out);
                        if conn.write_all(&out).is_err() {
                            return;
                        }
                    }
                    None => match conn.read(&mut chunk) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    },
                }
            }
        });
        (addr, handle)
    }

    fn drive(addr: SocketAddr) -> OpenLoop {
        run(
            &connect(addr).expect("connect"),
            2_000.0,
            Duration::from_millis(600),
            |i, buf| {
                frame::encode_ingest_slice(&[i as u64], buf);
                (Kind::Ingest, 1)
            },
            |_, r| matches!(r, Response::Ingested(_)),
        )
        .expect("open loop runs")
    }

    #[test]
    fn a_stalled_server_shows_in_latency_not_in_the_send_schedule() {
        let stall = Duration::from_millis(150);
        let (addr, server) = stalling_server(200, stall);
        let run = drive(addr);
        server.join().expect("server thread");
        // Every scheduled request was sent and answered.
        assert_eq!(run.ingest_ns.len(), 1_200);
        assert_eq!(run.failed, 0);
        // The ~300 requests due during the stall each carry part of it:
        // a quarter of the run waits, so p99 holds most of the stall.
        let lat: Vec<f64> = run.ingest_ns.iter().map(|&n| n as f64).collect();
        let p99 = quantile(&lat, 0.99);
        assert!(
            p99 >= 0.5 * stall.as_nanos() as f64,
            "stall hidden from p99: {p99} ns"
        );
        // The sender kept its schedule through the stall.
        let late: Vec<f64> = run.late_ns.iter().map(|&n| n as f64).collect();
        let late_p99 = quantile(&late, 0.99);
        assert!(
            late_p99 < 0.1 * stall.as_nanos() as f64,
            "the stall slowed the send schedule: late p99 {late_p99} ns"
        );
    }

    #[test]
    fn an_unstalled_server_keeps_p99_small() {
        let (addr, server) = stalling_server(usize::MAX, Duration::ZERO);
        let run = drive(addr);
        server.join().expect("server thread");
        let lat: Vec<f64> = run.ingest_ns.iter().map(|&n| n as f64).collect();
        assert!(
            quantile(&lat, 0.99) < 20e6,
            "p99 {} ns",
            quantile(&lat, 0.99)
        );
    }
}
