//! Client-side spans of the traced run.
//!
//! The load generator records one span around each call it makes into a
//! public layer API (`ServiceClient`, `ClusterRouter`, `AttackStrategy`).
//! Spans of one request or duel round share an id. They stay in memory
//! and are written out as CSV when the run ends.

use std::io::Write;
use std::time::Instant;

/// Spans kept per run; later spans are dropped (and counted).
const MAX_SPANS: usize = 1 << 20;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            t0: Instant::now(),
            spans: Vec::with_capacity(if on { MAX_SPANS } else { 0 }),
            dropped: 0,
        }
    }

    /// Turn span recording on or off; the clock keeps running.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Nanoseconds since the tracer was created (the run's clock).
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn span(&mut self, id: u64, name: &'static str, start_ns: u64, end_ns: u64) {
        if !self.on {
            return;
        }
        if self.spans.len() < MAX_SPANS {
            self.spans.push(Span {
                id,
                name,
                start_ns,
                end_ns,
            });
        } else {
            self.dropped += 1;
        }
    }

    /// Durations of the spans called `name` whose id is in `ids`, in
    /// microseconds.
    pub fn durations_us(&self, name: &str, ids: std::ops::Range<u64>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && ids.contains(&s.id))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Write every span as `id,name,start_ns,end_ns` lines.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,name,start_ns,end_ns")?;
        for s in &self.spans {
            writeln!(out, "{},{},{},{}", s.id, s.name, s.start_ns, s.end_ns)?;
        }
        if self.dropped > 0 {
            writeln!(
                out,
                "# {} spans past the in-memory cap were dropped",
                self.dropped
            )?;
        }
        out.flush()
    }
}
