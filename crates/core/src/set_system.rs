//! Set systems `(U, R)` (paper Section 1/2).
//!
//! A set system is a universe `U` together with a collection `R ⊆ 2^U` of
//! ranges. The paper's robustness bounds are parameterised by the
//! **cardinality dimension** `ln |R|` (adaptive setting) versus the
//! VC-dimension `d` (static setting); every implementation here reports
//! both so experiments can size samples either way.
//!
//! Provided systems, mirroring the paper's applications (§1.2):
//!
//! * [`PrefixSystem`] — `R = {[0, b]}`, VC-dim 1, the Theorem 1.3 attack
//!   system and the quantile-sketch system of Corollary 1.5;
//! * [`IntervalSystem`] — `R = {[a, b]}`, VC-dim 2, the "natural" streaming
//!   representation system of the introduction;
//! * [`SingletonSystem`] — `R = {{a}}`, the heavy-hitters system of
//!   Corollary 1.6;
//! * [`AxisBoxSystem`] — axis-aligned boxes over `[m]^d` for range queries,
//!   with `ln |R| = O(d ln m)`;
//! * [`HalfplaneSystem`] — 2-D halfplanes for β-center points;
//! * [`ExplicitSystem`] — an arbitrary finite collection given extensionally
//!   (used by tests and by worst-case constructions).

use crate::approx::{self, DiscrepancyReport};

/// A set system over elements of type `T`.
///
/// The two methods every consumer needs are [`ln_cardinality`]
/// (`ln |R|`, feeding the Theorem 1.2 sample-size bounds) and
/// [`max_discrepancy`] (exact ε-approximation checking). Implementations
/// override `max_discrepancy` with specialized sweeps where possible; the
/// default enumerates [`ranges`](Self::ranges).
///
/// [`ln_cardinality`]: Self::ln_cardinality
/// [`max_discrepancy`]: Self::max_discrepancy
pub trait SetSystem<T> {
    /// The range representation (e.g. `(a, b)` bounds for intervals).
    type Range: Clone + std::fmt::Debug;

    /// Membership test: is `x ∈ R`?
    fn contains(&self, range: &Self::Range, x: &T) -> bool;

    /// `ln |R|` — the cardinality dimension driving Theorem 1.2.
    fn ln_cardinality(&self) -> f64;

    /// VC-dimension of the system, when known. Drives the *static* sizing
    /// of experiment E11 (the VC-vs-cardinality ablation).
    fn vc_dimension(&self) -> Option<u32>;

    /// Enumerate the ranges (or a canonical subfamily sufficient for
    /// discrepancy maximisation — see each implementation's docs).
    fn ranges(&self) -> Box<dyn Iterator<Item = Self::Range> + '_>;

    /// Density `d_R(data)`: fraction of `data` inside `range`.
    fn density(&self, range: &Self::Range, data: &[T]) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        data.iter().filter(|x| self.contains(range, x)).count() as f64 / data.len() as f64
    }

    /// Exact maximum density discrepancy `max_R |d_R(X) − d_R(S)|`.
    ///
    /// The default enumerates all ranges (`O(|R|·(n+s))`); ordered systems
    /// override this with `O((n+s) log(n+s))` sweeps.
    fn max_discrepancy(&self, stream: &[T], sample: &[T]) -> DiscrepancyReport {
        if stream.is_empty() || sample.is_empty() {
            return DiscrepancyReport::zero();
        }
        let mut best = DiscrepancyReport::zero();
        for r in self.ranges() {
            let d = (self.density(&r, stream) - self.density(&r, sample)).abs();
            if d > best.value {
                best = DiscrepancyReport {
                    value: d,
                    witness: Some(format!("{r:?}")),
                };
            }
        }
        best
    }
}

// ---------------------------------------------------------------------------
// Prefix system
// ---------------------------------------------------------------------------

/// The prefix system `R = {[0, b] : b ∈ [N]}` over the ordered universe
/// `U = {0, …, N−1}`.
///
/// This is the paper's canonical example: VC-dimension **1** yet
/// `|R| = N`, so the gap between static (`d/ε²`) and adaptive
/// (`ln N/ε²`) sample sizes is maximal. Theorem 1.3's attack targets
/// exactly this system, and Corollary 1.5's robust quantile sketch uses it.
#[derive(Debug, Clone)]
pub struct PrefixSystem {
    universe: u64,
}

impl PrefixSystem {
    /// Prefix ranges over `{0, …, universe − 1}`.
    ///
    /// # Panics
    ///
    /// Panics if `universe == 0`.
    pub fn new(universe: u64) -> Self {
        assert!(universe > 0, "universe must be non-empty");
        Self { universe }
    }

    /// Universe size `N = |U|` (also `|R|`).
    #[inline]
    pub fn universe(&self) -> u64 {
        self.universe
    }
}

impl SetSystem<u64> for PrefixSystem {
    type Range = u64; // the right endpoint b: range is [0, b]

    #[inline]
    fn contains(&self, b: &u64, x: &u64) -> bool {
        x <= b
    }

    fn ln_cardinality(&self) -> f64 {
        (self.universe as f64).ln()
    }

    fn vc_dimension(&self) -> Option<u32> {
        Some(1)
    }

    fn ranges(&self) -> Box<dyn Iterator<Item = u64> + '_> {
        Box::new(0..self.universe)
    }

    fn max_discrepancy(&self, stream: &[u64], sample: &[u64]) -> DiscrepancyReport {
        approx::prefix_discrepancy(stream, sample)
    }
}

// ---------------------------------------------------------------------------
// Interval system
// ---------------------------------------------------------------------------

/// The interval system `R = {[a, b] : a ≤ b ∈ U}` over `U = {0, …, N−1}`
/// (including singletons), the "natural form of good representation in the
/// streaming setting" from the paper's introduction.
///
/// `|R| = N(N+1)/2`, VC-dimension **2**.
#[derive(Debug, Clone)]
pub struct IntervalSystem {
    universe: u64,
}

impl IntervalSystem {
    /// Interval ranges over `{0, …, universe − 1}`.
    ///
    /// # Panics
    ///
    /// Panics if `universe == 0`.
    pub fn new(universe: u64) -> Self {
        assert!(universe > 0, "universe must be non-empty");
        Self { universe }
    }

    /// Universe size.
    #[inline]
    pub fn universe(&self) -> u64 {
        self.universe
    }

    /// `|R| = N(N+1)/2` as f64 (may be inexact for astronomically large N;
    /// only its logarithm is consumed).
    pub fn cardinality(&self) -> f64 {
        let n = self.universe as f64;
        n * (n + 1.0) / 2.0
    }
}

impl SetSystem<u64> for IntervalSystem {
    type Range = (u64, u64); // inclusive [a, b]

    #[inline]
    fn contains(&self, &(a, b): &(u64, u64), x: &u64) -> bool {
        (a..=b).contains(x)
    }

    fn ln_cardinality(&self) -> f64 {
        self.cardinality().ln()
    }

    fn vc_dimension(&self) -> Option<u32> {
        Some(2)
    }

    fn ranges(&self) -> Box<dyn Iterator<Item = (u64, u64)> + '_> {
        let n = self.universe;
        Box::new((0..n).flat_map(move |a| (a..n).map(move |b| (a, b))))
    }

    fn max_discrepancy(&self, stream: &[u64], sample: &[u64]) -> DiscrepancyReport {
        approx::interval_discrepancy(stream, sample)
    }
}

// ---------------------------------------------------------------------------
// Singleton system
// ---------------------------------------------------------------------------

/// The singleton system `R = {{a} : a ∈ U}` from Corollary 1.6 (heavy
/// hitters). `|R| = N`, VC-dimension **1**.
#[derive(Debug, Clone)]
pub struct SingletonSystem {
    universe: u64,
}

impl SingletonSystem {
    /// Singletons over `{0, …, universe − 1}`.
    ///
    /// # Panics
    ///
    /// Panics if `universe == 0`.
    pub fn new(universe: u64) -> Self {
        assert!(universe > 0, "universe must be non-empty");
        Self { universe }
    }

    /// Universe size.
    #[inline]
    pub fn universe(&self) -> u64 {
        self.universe
    }
}

impl SetSystem<u64> for SingletonSystem {
    type Range = u64; // the singleton {a}

    #[inline]
    fn contains(&self, a: &u64, x: &u64) -> bool {
        a == x
    }

    fn ln_cardinality(&self) -> f64 {
        (self.universe as f64).ln()
    }

    fn vc_dimension(&self) -> Option<u32> {
        Some(1)
    }

    fn ranges(&self) -> Box<dyn Iterator<Item = u64> + '_> {
        Box::new(0..self.universe)
    }

    /// Specialized sweep: only values present in either multiset can
    /// witness the max, so sort-and-merge rather than scanning all of `U`.
    fn max_discrepancy(&self, stream: &[u64], sample: &[u64]) -> DiscrepancyReport {
        if stream.is_empty() || sample.is_empty() {
            return DiscrepancyReport::zero();
        }
        let mut xs = stream.to_vec();
        let mut ss = sample.to_vec();
        xs.sort_unstable();
        ss.sort_unstable();
        let (n, s) = (xs.len() as f64, ss.len() as f64);
        let mut best = DiscrepancyReport::zero();
        let (mut i, mut j) = (0usize, 0usize);
        while i < xs.len() || j < ss.len() {
            let v = match (xs.get(i), ss.get(j)) {
                (Some(&a), Some(&b)) => a.min(b),
                (Some(&a), None) => a,
                (None, Some(&b)) => b,
                (None, None) => unreachable!(),
            };
            let mut cx = 0usize;
            while i < xs.len() && xs[i] == v {
                cx += 1;
                i += 1;
            }
            let mut cs = 0usize;
            while j < ss.len() && ss[j] == v {
                cs += 1;
                j += 1;
            }
            let d = (cx as f64 / n - cs as f64 / s).abs();
            if d > best.value {
                best = DiscrepancyReport {
                    value: d,
                    witness: Some(format!("{{{v}}}")),
                };
            }
        }
        best
    }
}

// ---------------------------------------------------------------------------
// Axis-aligned boxes over [m]^d
// ---------------------------------------------------------------------------

/// Axis-aligned boxes over the grid `[m]^D`: the range-query system of the
/// paper's §1.2 ("Popular choices of such ranges are axis-aligned …
/// boxes"), with `ln |R| = O(D · ln m)`.
///
/// Points are `[u64; D]` grid coordinates in `{0, …, m−1}^D`; a range is a
/// pair of inclusive corner arrays `(lo, hi)`. `|R| = (m(m+1)/2)^D`.
///
/// [`max_discrepancy`](SetSystem::max_discrepancy) is overridden with a
/// prefix-sum (summed-area table) algorithm: `O(m^D)` memory,
/// `O(n + m^D + |R|)` time, exact over **all** boxes — practical up to
/// `m=64, D=2` or `m=16, D=3`, which covers the experiment grid.
#[derive(Debug, Clone)]
pub struct AxisBoxSystem<const D: usize> {
    m: u64,
}

impl<const D: usize> AxisBoxSystem<D> {
    /// Boxes over `{0, …, m−1}^D`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `D == 0`.
    pub fn new(m: u64) -> Self {
        assert!(m > 0, "grid side must be positive");
        assert!(D > 0, "dimension must be positive");
        Self { m }
    }

    /// Grid side length.
    #[inline]
    pub fn m(&self) -> u64 {
        self.m
    }

    /// Build a D-dimensional inclusive prefix-sum table of point counts.
    fn prefix_counts(&self, data: &[[u64; D]]) -> Vec<f64> {
        let m = self.m as usize;
        let size = m.pow(D as u32);
        let mut table = vec![0.0f64; size];
        let w = 1.0 / data.len().max(1) as f64;
        for p in data {
            let mut idx = 0usize;
            for (dim, &coord) in p.iter().enumerate() {
                debug_assert!(coord < self.m, "point coordinate {coord} out of grid");
                idx = idx * m + coord as usize;
                let _ = dim;
            }
            table[idx] += w;
        }
        // Prefix-sum along each axis in turn.
        let mut stride = 1usize;
        for _ in 0..D {
            // Axis with this stride: cells i where (i/stride)%m > 0 add cell i-stride.
            for i in 0..size {
                if !(i / stride).is_multiple_of(m) {
                    table[i] += table[i - stride];
                }
            }
            stride *= m;
        }
        table
    }

    /// Count of the box `(lo..=hi)` from an inclusive prefix table, via
    /// inclusion–exclusion over the 2^D corners.
    fn box_mass(&self, table: &[f64], lo: &[u64; D], hi: &[u64; D]) -> f64 {
        let m = self.m as usize;
        let mut total = 0.0;
        for corner in 0u32..(1 << D) {
            let mut idx = 0usize;
            let mut sign = 1.0f64;
            let mut valid = true;
            for dim in 0..D {
                let take_hi = corner & (1 << dim) == 0;
                let coord = if take_hi {
                    hi[dim] as usize
                } else {
                    sign = -sign;
                    match (lo[dim] as usize).checked_sub(1) {
                        Some(c) => c,
                        None => {
                            valid = false;
                            break;
                        }
                    }
                };
                idx = idx * m + coord;
            }
            if valid {
                total += sign * table[idx];
            }
        }
        total
    }
}

impl<const D: usize> SetSystem<[u64; D]> for AxisBoxSystem<D> {
    type Range = ([u64; D], [u64; D]); // inclusive (lo, hi) corners

    fn contains(&self, (lo, hi): &([u64; D], [u64; D]), x: &[u64; D]) -> bool {
        (0..D).all(|d| lo[d] <= x[d] && x[d] <= hi[d])
    }

    fn ln_cardinality(&self) -> f64 {
        let per_dim = self.m as f64 * (self.m as f64 + 1.0) / 2.0;
        D as f64 * per_dim.ln()
    }

    /// Axis-aligned boxes in D dimensions have VC-dimension 2D.
    fn vc_dimension(&self) -> Option<u32> {
        Some(2 * D as u32)
    }

    fn ranges(&self) -> Box<dyn Iterator<Item = Self::Range> + '_> {
        // Odometer over D (lo, hi) coordinate pairs.
        let m = self.m;
        let mut lo = [0u64; D];
        let mut hi = [0u64; D];
        let mut done = false;
        Box::new(std::iter::from_fn(move || {
            if done {
                return None;
            }
            let item = (lo, hi);
            // Advance odometer: increment hi[d]; on overflow advance lo[d];
            // on lo overflow carry to next dimension.
            let mut d = 0;
            loop {
                if d == D {
                    done = true;
                    break;
                }
                if hi[d] + 1 < m {
                    hi[d] += 1;
                    break;
                }
                if lo[d] + 1 < m {
                    lo[d] += 1;
                    hi[d] = lo[d];
                    break;
                }
                lo[d] = 0;
                hi[d] = 0;
                d += 1;
            }
            Some(item)
        }))
    }

    fn max_discrepancy(&self, stream: &[[u64; D]], sample: &[[u64; D]]) -> DiscrepancyReport {
        if stream.is_empty() || sample.is_empty() {
            return DiscrepancyReport::zero();
        }
        let tx = self.prefix_counts(stream);
        let ts = self.prefix_counts(sample);
        let mut best = DiscrepancyReport::zero();
        for (lo, hi) in self.ranges() {
            let d = (self.box_mass(&tx, &lo, &hi) - self.box_mass(&ts, &lo, &hi)).abs();
            if d > best.value {
                best = DiscrepancyReport {
                    value: d,
                    witness: Some(format!("[{lo:?}..={hi:?}]")),
                };
            }
        }
        best
    }
}

// ---------------------------------------------------------------------------
// Dominance (quadrant) ranges over [m]^2
// ---------------------------------------------------------------------------

/// Dominance ranges over the grid `[m]²`: `R_c = {p : p ≤ c coordinatewise}`
/// — the 2-D generalisation of the paper's prefix system, standard in the
/// discrepancy literature and the natural system for 2-D cumulative
/// ("north-east count") queries.
///
/// `|R| = m²` so `ln|R| = 2 ln m`; VC-dimension 2. Discrepancy is exact
/// over all `m²` corners via one summed-area table pass.
#[derive(Debug, Clone)]
pub struct DominanceSystem {
    m: u64,
}

impl DominanceSystem {
    /// Dominance ranges over `{0,…,m−1}²`.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0`.
    pub fn new(m: u64) -> Self {
        assert!(m > 0, "grid side must be positive");
        Self { m }
    }

    /// Grid side length.
    #[inline]
    pub fn m(&self) -> u64 {
        self.m
    }

    fn prefix_table(&self, data: &[[u64; 2]]) -> Vec<f64> {
        let m = self.m as usize;
        let mut t = vec![0.0f64; m * m];
        let w = 1.0 / data.len().max(1) as f64;
        for p in data {
            debug_assert!(p[0] < self.m && p[1] < self.m);
            t[p[0] as usize * m + p[1] as usize] += w;
        }
        for i in 0..m {
            for j in 0..m {
                let mut acc = t[i * m + j];
                if i > 0 {
                    acc += t[(i - 1) * m + j];
                }
                if j > 0 {
                    acc += t[i * m + j - 1];
                }
                if i > 0 && j > 0 {
                    acc -= t[(i - 1) * m + j - 1];
                }
                t[i * m + j] = acc;
            }
        }
        t
    }
}

impl SetSystem<[u64; 2]> for DominanceSystem {
    type Range = [u64; 2]; // the dominating corner c

    fn contains(&self, c: &[u64; 2], x: &[u64; 2]) -> bool {
        x[0] <= c[0] && x[1] <= c[1]
    }

    fn ln_cardinality(&self) -> f64 {
        2.0 * (self.m as f64).ln()
    }

    fn vc_dimension(&self) -> Option<u32> {
        Some(2)
    }

    fn ranges(&self) -> Box<dyn Iterator<Item = [u64; 2]> + '_> {
        let m = self.m;
        Box::new((0..m).flat_map(move |x| (0..m).map(move |y| [x, y])))
    }

    fn max_discrepancy(&self, stream: &[[u64; 2]], sample: &[[u64; 2]]) -> DiscrepancyReport {
        if stream.is_empty() || sample.is_empty() {
            return DiscrepancyReport::zero();
        }
        let tx = self.prefix_table(stream);
        let ts = self.prefix_table(sample);
        let m = self.m as usize;
        let mut best = DiscrepancyReport::zero();
        for i in 0..m {
            for j in 0..m {
                let d = (tx[i * m + j] - ts[i * m + j]).abs();
                if d > best.value {
                    best = DiscrepancyReport {
                        value: d,
                        witness: Some(format!("dominated-by [{i}, {j}]")),
                    };
                }
            }
        }
        best
    }
}

// ---------------------------------------------------------------------------
// Halfplanes (2-D)
// ---------------------------------------------------------------------------

/// 2-D halfplanes over integer grid points, for the β-center-point
/// application (paper §1.2 / \[CEM+96\]).
///
/// The family is discretised by a fixed fan of `directions` unit normals;
/// a range is `(direction index, signed threshold)` and contains `p` iff
/// `⟨normal, p⟩ ≤ threshold`. For a grid `[m]²` the effective family has
/// `|R| ≤ directions · (range of thresholds)`; `ln_cardinality` reports
/// `4·ln m` — the count of combinatorially distinct halfplanes over the
/// grid (each determined by ≤ 2 of the `m²` grid points), matching the
/// paper's `ln |R| = O(d ln m)` accounting.
#[derive(Debug, Clone)]
pub struct HalfplaneSystem {
    m: u64,
    directions: usize,
}

impl HalfplaneSystem {
    /// Halfplanes over `{0,…,m−1}²`, discretised to `directions` normals
    /// evenly spaced over the half-circle.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `directions == 0`.
    pub fn new(m: u64, directions: usize) -> Self {
        assert!(m > 0, "grid side must be positive");
        assert!(directions > 0, "need at least one direction");
        Self { m, directions }
    }

    /// The unit normal for direction index `i`.
    pub fn normal(&self, i: usize) -> (f64, f64) {
        let theta = std::f64::consts::PI * (i as f64 + 0.5) / self.directions as f64;
        (theta.cos(), theta.sin())
    }

    /// Signed projection of a point onto direction `i`.
    pub fn project(&self, i: usize, p: &(i64, i64)) -> f64 {
        let (nx, ny) = self.normal(i);
        nx * p.0 as f64 + ny * p.1 as f64
    }

    /// Number of discretised directions.
    #[inline]
    pub fn directions(&self) -> usize {
        self.directions
    }
}

/// A halfplane: all points with projection onto `normal(dir)` ≤ `threshold`.
#[derive(Debug, Clone, PartialEq)]
pub struct Halfplane {
    /// Direction index into the fan.
    pub dir: usize,
    /// Inclusive projection threshold.
    pub threshold: f64,
}

impl SetSystem<(i64, i64)> for HalfplaneSystem {
    type Range = Halfplane;

    fn contains(&self, r: &Halfplane, x: &(i64, i64)) -> bool {
        self.project(r.dir, x) <= r.threshold + 1e-9
    }

    fn ln_cardinality(&self) -> f64 {
        // Combinatorially distinct halfplanes over [m]^2 grid points: each
        // is witnessed by at most two grid points ⇒ |R| ≤ m^4.
        4.0 * (self.m as f64).ln()
    }

    /// Halfplanes in the plane have VC-dimension 3.
    fn vc_dimension(&self) -> Option<u32> {
        Some(3)
    }

    fn ranges(&self) -> Box<dyn Iterator<Item = Halfplane> + '_> {
        // Canonical thresholds at integer lattice projections is too coarse;
        // consumers should use max_discrepancy which sweeps data-adaptive
        // thresholds. Here we enumerate per-direction integer thresholds.
        let m = self.m as i64;
        let dirs = self.directions;
        Box::new((0..dirs).flat_map(move |dir| {
            (-2 * m..=2 * m).map(move |t| Halfplane {
                dir,
                threshold: t as f64,
            })
        }))
    }

    /// Per-direction sweep over data-adaptive thresholds: for each of the
    /// `directions` normals, the discrepancy over that direction's
    /// halfplanes is a 1-D prefix discrepancy of the projections.
    fn max_discrepancy(&self, stream: &[(i64, i64)], sample: &[(i64, i64)]) -> DiscrepancyReport {
        if stream.is_empty() || sample.is_empty() {
            return DiscrepancyReport::zero();
        }
        let mut best = DiscrepancyReport::zero();
        for dir in 0..self.directions {
            let mut px: Vec<f64> = stream.iter().map(|p| self.project(dir, p)).collect();
            let mut ps: Vec<f64> = sample.iter().map(|p| self.project(dir, p)).collect();
            px.sort_unstable_by(f64::total_cmp);
            ps.sort_unstable_by(f64::total_cmp);
            let (mut i, mut j) = (0usize, 0usize);
            while i < px.len() || j < ps.len() {
                let v = match (px.get(i), ps.get(j)) {
                    (Some(&a), Some(&b)) => a.min(b),
                    (Some(&a), None) => a,
                    (None, Some(&b)) => b,
                    (None, None) => unreachable!(),
                };
                while i < px.len() && px[i] <= v {
                    i += 1;
                }
                while j < ps.len() && ps[j] <= v {
                    j += 1;
                }
                let d = (i as f64 / px.len() as f64 - j as f64 / ps.len() as f64).abs();
                if d > best.value {
                    best = DiscrepancyReport {
                        value: d,
                        witness: Some(format!("halfplane dir={dir} thr={v:.3}")),
                    };
                }
            }
        }
        best
    }
}

// ---------------------------------------------------------------------------
// Explicit system
// ---------------------------------------------------------------------------

/// A set system given extensionally: each range is a sorted list of the
/// universe elements it contains. Used by tests and by hand-crafted
/// worst-case constructions.
#[derive(Debug, Clone)]
pub struct ExplicitSystem {
    ranges: Vec<Vec<u64>>,
}

impl ExplicitSystem {
    /// Build from arbitrary member lists (sorted + deduplicated internally).
    ///
    /// # Panics
    ///
    /// Panics if `ranges` is empty (`ln |R|` would be `−∞`).
    pub fn new(mut ranges: Vec<Vec<u64>>) -> Self {
        assert!(!ranges.is_empty(), "need at least one range");
        for r in &mut ranges {
            r.sort_unstable();
            r.dedup();
        }
        Self { ranges }
    }

    /// Number of ranges `|R|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether the system has no ranges (never true by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }
}

impl SetSystem<u64> for ExplicitSystem {
    type Range = usize; // index into the range list

    fn contains(&self, &i: &usize, x: &u64) -> bool {
        self.ranges[i].binary_search(x).is_ok()
    }

    fn ln_cardinality(&self) -> f64 {
        (self.ranges.len() as f64).ln()
    }

    fn vc_dimension(&self) -> Option<u32> {
        None
    }

    fn ranges(&self) -> Box<dyn Iterator<Item = usize> + '_> {
        Box::new(0..self.ranges.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_system_parameters() {
        let s = PrefixSystem::new(1024);
        assert!((s.ln_cardinality() - (1024f64).ln()).abs() < 1e-12);
        assert_eq!(s.vc_dimension(), Some(1));
        assert_eq!(s.ranges().count(), 1024);
    }

    #[test]
    fn prefix_contains_is_leq() {
        let s = PrefixSystem::new(100);
        assert!(s.contains(&50, &50));
        assert!(s.contains(&50, &0));
        assert!(!s.contains(&50, &51));
    }

    #[test]
    fn interval_cardinality_formula() {
        let s = IntervalSystem::new(10);
        assert_eq!(s.cardinality(), 55.0);
        assert_eq!(s.ranges().count(), 55);
    }

    #[test]
    fn interval_specialized_matches_default_enumeration() {
        let s = IntervalSystem::new(16);
        let stream: Vec<u64> = (0..16).cycle().take(200).collect();
        let sample: Vec<u64> = vec![3, 3, 4, 9, 15];
        let fast = s.max_discrepancy(&stream, &sample).value;
        // Default enumeration path, forced.
        let mut brute = 0.0f64;
        for r in s.ranges() {
            brute = brute.max((s.density(&r, &stream) - s.density(&r, &sample)).abs());
        }
        assert!((fast - brute).abs() < 1e-12, "fast {fast} brute {brute}");
    }

    #[test]
    fn singleton_specialized_matches_enumeration() {
        let s = SingletonSystem::new(32);
        let stream: Vec<u64> = (0..32)
            .flat_map(|v| std::iter::repeat_n(v, (v % 5 + 1) as usize))
            .collect();
        let sample: Vec<u64> = vec![0, 0, 0, 7, 31];
        let fast = s.max_discrepancy(&stream, &sample).value;
        let mut brute = 0.0f64;
        for r in s.ranges() {
            brute = brute.max((s.density(&r, &stream) - s.density(&r, &sample)).abs());
        }
        assert!((fast - brute).abs() < 1e-12);
    }

    #[test]
    fn axis_box_1d_matches_interval_system() {
        let boxes = AxisBoxSystem::<1>::new(16);
        let intervals = IntervalSystem::new(16);
        let stream1: Vec<[u64; 1]> = (0..16u64).cycle().take(100).map(|v| [v]).collect();
        let sample1: Vec<[u64; 1]> = vec![[2], [2], [9]];
        let stream: Vec<u64> = stream1.iter().map(|p| p[0]).collect();
        let sample: Vec<u64> = sample1.iter().map(|p| p[0]).collect();
        let a = boxes.max_discrepancy(&stream1, &sample1).value;
        let b = intervals.max_discrepancy(&stream, &sample).value;
        assert!((a - b).abs() < 1e-9, "boxes {a} intervals {b}");
    }

    #[test]
    fn axis_box_2d_counts_boxes() {
        let s = AxisBoxSystem::<2>::new(3);
        // (3·4/2)^2 = 36 boxes.
        assert_eq!(s.ranges().count(), 36);
        assert_eq!(s.vc_dimension(), Some(4));
    }

    #[test]
    fn axis_box_2d_discrepancy_matches_bruteforce() {
        let s = AxisBoxSystem::<2>::new(4);
        let stream: Vec<[u64; 2]> = (0..4u64)
            .flat_map(|x| (0..4u64).map(move |y| [x, y]))
            .collect();
        let sample: Vec<[u64; 2]> = vec![[0, 0], [1, 1], [3, 3]];
        let fast = s.max_discrepancy(&stream, &sample).value;
        let mut brute = 0.0f64;
        for r in s.ranges() {
            brute = brute.max((s.density(&r, &stream) - s.density(&r, &sample)).abs());
        }
        assert!((fast - brute).abs() < 1e-9, "fast {fast} brute {brute}");
    }

    #[test]
    fn axis_box_prefix_table_masses() {
        let s = AxisBoxSystem::<2>::new(3);
        let data: Vec<[u64; 2]> = vec![[0, 0], [1, 1], [2, 2], [1, 2]];
        let t = s.prefix_counts(&data);
        // Whole-grid box must have mass 1.
        let whole = s.box_mass(&t, &[0, 0], &[2, 2]);
        assert!((whole - 1.0).abs() < 1e-12);
        // Box covering only [1,1]..[1,2] holds 2 of 4 points.
        let half = s.box_mass(&t, &[1, 1], &[1, 2]);
        assert!((half - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dominance_matches_bruteforce() {
        let s = DominanceSystem::new(6);
        let stream: Vec<[u64; 2]> = (0..6u64)
            .flat_map(|x| (0..6u64).map(move |y| [x, y]))
            .collect();
        let sample: Vec<[u64; 2]> = vec![[0, 0], [5, 5], [2, 3]];
        let fast = s.max_discrepancy(&stream, &sample).value;
        let mut brute = 0.0f64;
        for c in s.ranges() {
            brute = brute.max((s.density(&c, &stream) - s.density(&c, &sample)).abs());
        }
        assert!((fast - brute).abs() < 1e-9, "fast {fast} brute {brute}");
    }

    #[test]
    fn dominance_parameters() {
        let s = DominanceSystem::new(32);
        assert!((s.ln_cardinality() - 2.0 * 32f64.ln()).abs() < 1e-12);
        assert_eq!(s.vc_dimension(), Some(2));
        assert_eq!(s.ranges().count(), 1024);
        assert!(s.contains(&[3, 3], &[3, 0]));
        assert!(!s.contains(&[3, 3], &[4, 0]));
    }

    #[test]
    fn dominance_identical_data_zero() {
        let s = DominanceSystem::new(16);
        let pts: Vec<[u64; 2]> = (0..16u64).map(|v| [v, (v * 5) % 16]).collect();
        assert!(s.max_discrepancy(&pts, &pts).value < 1e-12);
    }

    #[test]
    fn halfplane_projection_sweep_detects_corner_mass() {
        let sys = HalfplaneSystem::new(64, 64);
        // Stream uniform over a diagonal; sample concentrated at the origin
        // corner — some halfplane must see discrepancy close to 1.
        let stream: Vec<(i64, i64)> = (0..64).map(|v| (v, v)).collect();
        let sample: Vec<(i64, i64)> = vec![(0, 0), (1, 1), (0, 1)];
        let rep = sys.max_discrepancy(&stream, &sample);
        assert!(rep.value > 0.8, "discrepancy {}", rep.value);
    }

    #[test]
    fn halfplane_identical_data_zero() {
        let sys = HalfplaneSystem::new(32, 32);
        let pts: Vec<(i64, i64)> = (0..32).map(|v| (v, (v * 7) % 32)).collect();
        assert!(sys.max_discrepancy(&pts, &pts).value < 1e-12);
    }

    #[test]
    fn explicit_system_basic() {
        let s = ExplicitSystem::new(vec![vec![1, 2, 3], vec![5, 4]]);
        assert_eq!(s.len(), 2);
        assert!(s.contains(&1, &4));
        assert!(!s.contains(&0, &4));
        let d = s.max_discrepancy(&[1, 2, 3, 4, 5, 6], &[6, 6, 6]);
        // Range 0 = {1,2,3}: d_X = 0.5, d_S = 0 → 0.5.
        assert!((d.value - 0.5).abs() < 1e-12);
    }

    #[test]
    fn default_density_on_empty_data_is_zero() {
        let s = PrefixSystem::new(8);
        assert_eq!(s.density(&3, &[]), 0.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Axis-box prefix-table discrepancy equals brute-force enumeration
        /// with per-range counting, for random small 2-D instances.
        #[test]
        fn axis_box_2d_table_equals_bruteforce(
            stream in proptest::collection::vec((0u64..5, 0u64..5), 1..40),
            sample in proptest::collection::vec((0u64..5, 0u64..5), 1..10),
        ) {
            let s = AxisBoxSystem::<2>::new(5);
            let stream: Vec<[u64;2]> = stream.into_iter().map(|(a,b)| [a,b]).collect();
            let sample: Vec<[u64;2]> = sample.into_iter().map(|(a,b)| [a,b]).collect();
            let fast = s.max_discrepancy(&stream, &sample).value;
            let mut brute = 0.0f64;
            for r in s.ranges() {
                brute = brute.max((s.density(&r, &stream) - s.density(&r, &sample)).abs());
            }
            prop_assert!((fast - brute).abs() < 1e-9);
        }

        /// Prefix discrepancy is monotone under taking a larger family:
        /// interval discrepancy dominates prefix discrepancy.
        #[test]
        fn interval_dominates_prefix_prop(
            stream in proptest::collection::vec(0u64..64, 1..80),
            sample in proptest::collection::vec(0u64..64, 1..20),
        ) {
            let p = PrefixSystem::new(64).max_discrepancy(&stream, &sample).value;
            let i = IntervalSystem::new(64).max_discrepancy(&stream, &sample).value;
            prop_assert!(i >= p - 1e-9);
        }
    }
}
