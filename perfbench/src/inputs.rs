//! Workload inputs, generated from the seed before any clock starts, and
//! the record of exactly what the server was sent (for the oracles).

use robust_sampling_service::tenant::tenant_seed;
use robust_sampling_service::Request;
use robust_sampling_streamgen::{keyed_workload, workload, LenHint, StreamSource};
use std::collections::{HashMap, HashSet};

/// Elements per bulk ingest frame.
pub const FRAME: usize = 256;
/// Frames in flight per pipelined write in the saturation phase.
pub const DEPTH: usize = 16;
/// Frames in the generated cycle the load generator walks round.
const CYCLE_FRAMES: usize = 8_192;
/// Keyed elements grouped per tenant within one window.
const TENANT_WINDOW: usize = 4_096;
/// Mixed into the seed of the warm-up values.
const WARM_SALT: u64 = 0x7761_726d;

/// A fixed cycle of pre-built ingest requests: either plain `INGEST`
/// frames or per-tenant `TINGEST` frames. Frame `i` of the run is
/// `reqs[i % len]`; the length is a multiple of [`DEPTH`].
pub struct Frames {
    pub reqs: Vec<Request>,
    /// Sent once, before any clock starts. For the tenant stream: a full
    /// reservoir's worth of elements to every tenant of the cycle, so the
    /// arena starts in its long-run state. Otherwise a tail tenant, which
    /// gets a few dozen elements per pass of the cycle, grows its
    /// reservoir and its checkpoint for the whole run. The cost of every
    /// evict and revive then grows too, and the saturation rate falls
    /// from slice to slice.
    pub warm: Vec<Request>,
}

impl Frames {
    /// The registry `zipf` stream over `universe`, cut into
    /// [`FRAME`]-element `INGEST` frames.
    pub fn zipf(universe: u64, seed: u64) -> Self {
        let xs = workload("zipf").expect("zipf is registered").materialize(
            CYCLE_FRAMES * FRAME,
            universe,
            seed,
        );
        Self {
            reqs: xs
                .chunks(FRAME)
                .map(|c| Request::Ingest(c.to_vec()))
                .collect(),
            warm: Vec::new(),
        }
    }

    /// The registry `tenant-zipf` keyed stream: each window of
    /// [`TENANT_WINDOW`] keyed elements becomes one `TINGEST` frame per
    /// tenant present, in first-appearance order, so every tenant's own
    /// element order is kept. The warm-up gives each tenant of the cycle
    /// `k` registry `zipf` elements.
    pub fn tenant_zipf(tenants: u64, universe: u64, seed: u64, k: usize) -> Self {
        let keyed = keyed_workload("tenant-zipf")
            .expect("tenant-zipf is registered")
            .spec
            .generate(CYCLE_FRAMES * FRAME, tenants, universe, seed);
        let mut reqs = Vec::new();
        for window in keyed.chunks(TENANT_WINDOW) {
            let mut order: Vec<u64> = Vec::new();
            let mut groups: HashMap<u64, Vec<u64>> = HashMap::new();
            for &(t, v) in window {
                groups
                    .entry(t)
                    .or_insert_with(|| {
                        order.push(t);
                        Vec::new()
                    })
                    .push(v);
            }
            for t in order {
                let values = groups.remove(&t).expect("grouped tenant");
                reqs.push(Request::TenantIngest { tenant: t, values });
            }
        }
        // Pad with repeats of the head so pipelined batches never wrap.
        let pad = (DEPTH - reqs.len() % DEPTH) % DEPTH;
        for i in 0..pad {
            let again = reqs[i].clone();
            reqs.push(again);
        }
        let zipf = workload("zipf").expect("zipf is registered");
        let mut seen = HashSet::new();
        let warm = reqs
            .iter()
            .filter_map(|r| values_of(r).0.filter(|&t| seen.insert(t)))
            .map(|tenant| Request::TenantIngest {
                tenant,
                values: zipf.materialize(k, universe, tenant_seed(seed ^ WARM_SALT, tenant)),
            })
            .collect();
        Self { reqs, warm }
    }

    pub fn len(&self) -> usize {
        self.reqs.len()
    }

    /// Mean elements per frame of the cycle.
    pub fn mean_len(&self) -> f64 {
        let elems: usize = self.reqs.iter().map(|r| values_of(r).1.len()).sum();
        elems as f64 / self.len() as f64
    }

    /// Frame `i` of the run: `(tenant, values)`.
    pub fn get(&self, i: usize) -> (Option<u64>, &[u64]) {
        values_of(&self.reqs[i % self.reqs.len()])
    }
}

/// The tenant (if any) and values of an ingest request.
pub fn values_of(req: &Request) -> (Option<u64>, &[u64]) {
    match req {
        Request::Ingest(v) => (None, v),
        Request::TenantIngest { tenant, values } => (Some(*tenant), values),
        other => panic!("not an ingest request: {other:?}"),
    }
}

/// One stretch of the sent stream.
enum Piece {
    /// Run frames `start..end` of the cycle.
    Frames(usize, usize),
    /// Warm-up frames `start..end`.
    Warm(usize, usize),
    /// Elements sent one by one (duel rounds, for `tenant` if keyed).
    Values(Option<u64>, Vec<u64>),
}

/// Everything the server acknowledged, in order.
#[derive(Default)]
pub struct Record {
    pieces: Vec<Piece>,
}

impl Record {
    pub fn frames(&mut self, start: usize, end: usize) {
        if end > start {
            self.pieces.push(Piece::Frames(start, end));
        }
    }

    pub fn warm(&mut self, start: usize, end: usize) {
        if end > start {
            self.pieces.push(Piece::Warm(start, end));
        }
    }

    pub fn value(&mut self, tenant: Option<u64>, x: u64) {
        if let Some(Piece::Values(t, xs)) = self.pieces.last_mut() {
            if *t == tenant {
                xs.push(x);
                return;
            }
        }
        self.pieces.push(Piece::Values(tenant, vec![x]));
    }

    /// The stream in order, as `(tenant, chunk)` pieces.
    pub fn chunks<'a>(&'a self, frames: &'a Frames) -> Vec<(Option<u64>, &'a [u64])> {
        let mut out = Vec::new();
        for piece in &self.pieces {
            match piece {
                Piece::Frames(a, b) => out.extend((*a..*b).map(|i| frames.get(i))),
                Piece::Warm(a, b) => out.extend(frames.warm[*a..*b].iter().map(values_of)),
                Piece::Values(t, xs) => out.push((*t, xs.as_slice())),
            }
        }
        out
    }
}

/// Recorded chunks as a lazy [`StreamSource`], for the library's
/// streaming discrepancy judgment.
pub struct ChunkSource<'a> {
    chunks: Vec<&'a [u64]>,
    next: usize,
    offset: usize,
}

impl<'a> ChunkSource<'a> {
    pub fn new(chunks: Vec<&'a [u64]>) -> Self {
        Self {
            chunks,
            next: 0,
            offset: 0,
        }
    }
}

impl StreamSource for ChunkSource<'_> {
    fn next_chunk(&mut self, buf: &mut Vec<u64>, max: usize) -> usize {
        let Some(chunk) = self.chunks.get(self.next) else {
            return 0;
        };
        let take = (chunk.len() - self.offset).min(max);
        buf.extend_from_slice(&chunk[self.offset..self.offset + take]);
        self.offset += take;
        if self.offset == chunk.len() {
            self.next += 1;
            self.offset = 0;
        }
        take
    }

    fn len_hint(&self) -> LenHint {
        let rest: usize = self.chunks[self.next.min(self.chunks.len())..]
            .iter()
            .map(|c| c.len())
            .sum();
        LenHint::Exact(rest - self.offset)
    }
}
