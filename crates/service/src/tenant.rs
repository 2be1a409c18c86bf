//! The tenant arena: millions of per-key robust summaries under one
//! memory budget.
//!
//! The paper's serving scenarios (§1.2 — routers, monitors, load
//! balancers) rarely keep *one* summary: they keep one per flow, per
//! customer, per key. This module scales the single-summary
//! [`SummaryService`](crate::SummaryService) story to a **keyed arena**
//! of [`ReservoirSampler`]s, each sized by the paper's bounds
//! (Theorem 1.2 when `robust`, the static VC sizing otherwise), with:
//!
//! * **Lazy instantiation** — a tenant's sampler is created on first
//!   ingest, seeded deterministically from the arena's base seed and the
//!   tenant id, so a given tenant's sample stream is a pure function of
//!   `(base_seed, tenant_id, its own elements)` — independent of every
//!   other tenant and of arrival interleaving.
//! * **A global memory budget** — at most `budget_bytes / slot_bytes`
//!   samplers are resident at once. The arena never allocates past the
//!   budget no matter how many tenants exist.
//! * **Deterministic LRU eviction into a cold tier** — the
//!   least-recently-touched resident tenant's sampler moves, whole, into
//!   the cold map (full private state: Algorithm L threshold, pending
//!   gap, RNG). A later touch **revives** it by moving it back, so it
//!   continues the identical acceptance stream and answers every query
//!   bit-identically to a tenant that was never evicted (property-tested
//!   in `tests/tenant_isolation.rs`). Nothing is encoded or decoded.
//! * **Moved buffers** — a full tenant's `k`-word reservoir moves to
//!   the cold map as it is. A partial tenant's sample is copied into an
//!   exact-length buffer, so cold tenants stay right-sized, and the
//!   `k`-word buffer it leaves goes to the tenant being revived if that
//!   one was parked right-sized. In the steady state of a full arena of
//!   full tenants a miss therefore copies and allocates no
//!   reservoir-sized buffer (`tests/alloc_free_tenant.rs`). Every
//!   resident reservoir has capacity exactly `k`, so a slot never holds
//!   more than the `slot_bytes` the budget charges for it.
//!
//! Queries mirror the [`EpochSnapshot`](crate::EpochSnapshot)
//! conventions: `count` scales sample occurrences by `items / k`,
//! `quantile` returns the rank-`⌈q·k⌉` order statistic.
//!
//! [`VictimTenantView`] adapts one arena tenant to the core
//! [`ObservableDefense`] trait so every registered [`AttackStrategy`]
//! can target a single tenant while decoy traffic churns the arena
//! around it — the multi-tenant robustness experiment (the attacker
//! gains nothing from eviction pressure, because revival is exact).
//!
//! [`ReservoirSampler`]: robust_sampling_core::sampler::ReservoirSampler
//! [`AttackStrategy`]: robust_sampling_core::attack::AttackStrategy
//! [`ObservableDefense`]: robust_sampling_core::attack::ObservableDefense

use std::collections::{BTreeMap, HashMap};

use robust_sampling_core::attack::{ObservableDefense, StateOracle};
use robust_sampling_core::bounds;
use robust_sampling_core::engine::snapshot::le_word;
use robust_sampling_core::engine::{QuantileSummary, StreamSummary};
use robust_sampling_core::sampler::{ReservoirSampler, StreamSampler};

/// Fixed per-slot overhead charged on top of the `8·k` reservoir
/// words: the sampler's counts, Algorithm L threshold, pending gap and
/// RNG state, and the resident-map/LRU-index entries.
pub const SLOT_OVERHEAD_BYTES: usize = 96;

/// Bytes [`TenantArena::cold_bytes`] charges per cold tenant on top of
/// its sample words: the [`SnapshotCodec`] envelope of a reservoir
/// (`k`, `observed`, `total_stored`, the sequence length prefix, the
/// Algorithm L threshold and gap, and four RNG words), so the cold tier
/// is accounted at the size of its checkpoints.
///
/// [`SnapshotCodec`]: robust_sampling_core::engine::SnapshotCodec
const COLD_ENVELOPE_BYTES: usize = 80;

/// A keyed splitmix finalizer as the arena maps' hasher. Tenant ids hit
/// the resident map once per element — the million-tenant soak's hot
/// path — where SipHash's per-call setup dominates a u64 key. The key
/// mixes in an arena-private value derived from the base seed, so
/// attacker-chosen tenant ids cannot aim for a known bucket pattern.
#[derive(Debug, Clone, Copy)]
struct ArenaHash(u64);

impl std::hash::BuildHasher for ArenaHash {
    type Hasher = SplitmixHasher;

    fn build_hasher(&self) -> SplitmixHasher {
        SplitmixHasher(self.0)
    }
}

/// The [`ArenaHash`] hasher state: one splitmix finalize per `u64` key.
#[derive(Debug, Clone, Copy)]
struct SplitmixHasher(u64);

impl std::hash::Hasher for SplitmixHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = tenant_seed(self.0, x);
    }

    fn write(&mut self, bytes: &[u8]) {
        // Non-u64 keys never reach these maps; keep a correct fallback.
        for &b in bytes {
            self.0 = tenant_seed(self.0, b as u64);
        }
    }
}

/// A `u64`-keyed map hashed with the arena's keyed splitmix.
type TenantMap<V> = HashMap<u64, V, ArenaHash>;

/// Arena sizing and seeding parameters.
#[derive(Debug, Clone, Copy)]
pub struct TenantArenaConfig {
    /// Universe bound `|U|`; per-tenant reservoirs are sized against the
    /// prefix family over `{0, …, universe−1}` (`ln |R| = ln |U|`).
    pub universe: u64,
    /// Per-tenant approximation error ε.
    pub eps: f64,
    /// Per-tenant failure probability δ.
    pub delta: f64,
    /// Global budget for resident sampler state, in bytes.
    pub budget_bytes: usize,
    /// Base seed; tenant `t` samples with `mix(base_seed, t)`.
    pub base_seed: u64,
    /// `true` → Theorem 1.2 sizing (`ln |U|` term): robust against
    /// adaptive per-tenant adversaries. `false` → static VC sizing
    /// (`d = 1` for prefixes): the oblivious-only contrast budget.
    pub robust: bool,
}

impl TenantArenaConfig {
    /// `InvalidInput`, naming the first value out of range, unless the
    /// config is one [`TenantArena::new`] accepts: `universe >= 2` and
    /// ε, δ in (0, 1).
    pub(crate) fn check(&self) -> std::io::Result<()> {
        let open_unit = |x: f64| x > 0.0 && x < 1.0;
        let why = if self.universe < 2 {
            format!(
                "tenant universe must have at least 2 elements, got {}",
                self.universe
            )
        } else if !open_unit(self.eps) {
            format!("tenant eps must be in (0,1), got {}", self.eps)
        } else if !open_unit(self.delta) {
            format!("tenant delta must be in (0,1), got {}", self.delta)
        } else {
            return Ok(());
        };
        Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, why))
    }

    /// The reservoir capacity this config prescribes per tenant.
    pub fn reservoir_k(&self) -> usize {
        if self.robust {
            bounds::reservoir_k_robust((self.universe as f64).ln(), self.eps, self.delta)
        } else {
            bounds::reservoir_k_static(1, self.eps, self.delta)
        }
    }
}

/// One resident tenant: its live sampler and its recency stamp.
#[derive(Debug)]
struct Slot {
    sampler: ReservoirSampler<u64>,
    last_touch: u64,
}

/// Counters reported by `STATS` (and checked by the soak gates).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaCounters {
    /// Samplers created (first-ever ingest for a tenant id).
    pub created: u64,
    /// Evictions into the cold tier.
    pub evictions: u64,
    /// Revivals from the cold tier.
    pub revivals: u64,
}

/// A budgeted arena of per-tenant robust reservoirs.
///
/// See the [module docs](self) for the lifecycle contract.
#[derive(Debug)]
pub struct TenantArena {
    config: TenantArenaConfig,
    k: usize,
    slot_bytes: usize,
    max_resident: usize,
    resident: TenantMap<Slot>,
    /// Recency index: `last_touch → tenant`. Touch stamps are unique
    /// (one monotonic clock tick per touch), so the map is a total order
    /// and eviction — `pop_first` — is deterministic.
    lru: BTreeMap<u64, u64>,
    /// Evicted tenants' samplers, boxed so a map bucket is two words
    /// however large the sampler's fixed state. A full one keeps its
    /// `k`-word reservoir; a partial one holds its sample in an
    /// exact-length buffer.
    cold: TenantMap<Box<ReservoirSampler<u64>>>,
    /// [`cold_bytes`](Self::cold_bytes), kept incrementally.
    cold_bytes: usize,
    /// `quantile`'s working copy of a sample: selection reorders it,
    /// never the reservoir itself (its order steers replacements).
    select: Vec<u64>,
    clock: u64,
    counters: ArenaCounters,
}

/// SplitMix64-style finalizer: the per-tenant seed derivation. Distinct
/// tenant ids map to well-separated seeds for any base.
pub fn tenant_seed(base_seed: u64, tenant: u64) -> u64 {
    let mut z = base_seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(tenant.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl TenantArena {
    /// Build an arena. The resident capacity is
    /// `max(1, budget_bytes / slot_bytes)` where
    /// `slot_bytes = 8·k + SLOT_OVERHEAD_BYTES`.
    ///
    /// # Panics
    ///
    /// Panics if `universe < 2` or the (ε, δ) pair is outside the
    /// theorems' ranges, (0, 1) each.
    pub fn new(config: TenantArenaConfig) -> Self {
        if let Err(e) = config.check() {
            panic!("{e}");
        }
        let k = config.reservoir_k();
        let slot_bytes = 8 * k + SLOT_OVERHEAD_BYTES;
        let max_resident = (config.budget_bytes / slot_bytes).max(1);
        let hasher = ArenaHash(tenant_seed(config.base_seed, 0x4152_454e_4148_4153));
        Self {
            config,
            k,
            slot_bytes,
            max_resident,
            resident: HashMap::with_hasher(hasher),
            lru: BTreeMap::new(),
            cold: HashMap::with_hasher(hasher),
            cold_bytes: 0,
            select: Vec::new(),
            clock: 0,
            counters: ArenaCounters::default(),
        }
    }

    /// Per-tenant reservoir capacity.
    pub fn reservoir_k(&self) -> usize {
        self.k
    }

    /// Bytes charged per resident tenant.
    pub fn slot_bytes(&self) -> usize {
        self.slot_bytes
    }

    /// Maximum number of simultaneously resident samplers.
    pub fn max_resident(&self) -> usize {
        self.max_resident
    }

    /// Currently resident samplers.
    pub fn resident_tenants(&self) -> usize {
        self.resident.len()
    }

    /// Tenants ever seen (resident + cold).
    pub fn known_tenants(&self) -> usize {
        self.resident.len() + self.cold.len()
    }

    /// Bytes charged against the budget right now.
    pub fn resident_bytes(&self) -> usize {
        self.resident.len() * self.slot_bytes
    }

    /// The cold tier's charge, as its checkpoints would be sized: 80
    /// bytes plus 8 per sample word for each cold tenant. A tenant that
    /// has seen `m < k` elements is parked in `O(m)` bytes, so this is
    /// far below `cold tenants × slot_bytes` for long-tail traffic — the
    /// quantity the soak's RSS verdict accounts against.
    ///
    /// It is a charge, not the resident size: a cold tenant also holds
    /// its map bucket (two words, plus the map's empty buckets), the
    /// boxed sampler's fixed state and the allocator's headers. For a
    /// long tail of 3-word tenants the charge is 104 bytes and the
    /// process grows by about 150–200 bytes per cold tenant, depending
    /// on how full the map's table is.
    pub fn cold_bytes(&self) -> usize {
        self.cold_bytes
    }

    /// Whether `tenant` currently occupies a resident slot (`false` for
    /// both cold and never-seen tenants).
    pub fn is_resident(&self, tenant: u64) -> bool {
        self.resident.contains_key(&tenant)
    }

    /// Lifecycle counters (created / evictions / revivals).
    pub fn counters(&self) -> ArenaCounters {
        self.counters
    }

    /// The arena's configuration.
    pub fn config(&self) -> &TenantArenaConfig {
        &self.config
    }

    fn touch_stamp(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Move the least-recently-touched resident tenant to the cold tier
    /// and hand back the `k`-word buffer that frees: a partial tenant's
    /// sample moves into an exact-length copy, a full tenant keeps its
    /// reservoir (`None`, as when nothing is resident).
    fn evict_lru(&mut self) -> Option<Vec<u64>> {
        let (_, victim) = self.lru.pop_first()?;
        let mut sampler = self
            .resident
            .remove(&victim)
            .expect("LRU index out of sync with resident map")
            .sampler;
        let len = sampler.sample().len();
        let freed = (len < self.k).then(|| sampler.swap_buffer(Vec::with_capacity(len)));
        self.cold_bytes += COLD_ENVELOPE_BYTES + 8 * len;
        self.cold.insert(victim, Box::new(sampler));
        self.counters.evictions += 1;
        freed
    }

    /// The tenant's live sampler, reviving or creating as needed and
    /// stamping recency. At most one eviction happens per call: on a
    /// miss in a full arena the LRU victim is evicted first, and a
    /// revived tenant parked right-sized gets back `k` words — the
    /// buffer the eviction freed, or a new one.
    fn slot(&mut self, tenant: u64) -> &mut ReservoirSampler<u64> {
        // Resident fast path: one probe of a hot bucket, then the LRU
        // index is only churned when the recency order actually changes
        // (a tenant re-touched mid-streak is already most recent).
        let stamp = self.clock + 1;
        if let Some(last) = self.resident.get(&tenant).map(|s| s.last_touch) {
            if last != self.clock {
                self.clock = stamp;
                self.lru.remove(&last);
                self.lru.insert(stamp, tenant);
            }
            let slot = self.resident.get_mut(&tenant).expect("probed resident");
            slot.last_touch = self.clock;
            return &mut slot.sampler;
        }
        let freed = if self.resident.len() >= self.max_resident {
            self.evict_lru()
        } else {
            None
        };
        let sampler = match self.cold.remove(&tenant) {
            Some(parked) => {
                let mut sampler = *parked;
                self.counters.revivals += 1;
                let len = sampler.sample().len();
                self.cold_bytes -= COLD_ENVELOPE_BYTES + 8 * len;
                if len < self.k {
                    sampler.swap_buffer(freed.unwrap_or_else(|| Vec::with_capacity(self.k)));
                }
                sampler
            }
            None => {
                self.counters.created += 1;
                ReservoirSampler::with_seed(self.k, tenant_seed(self.config.base_seed, tenant))
            }
        };
        let stamp = self.touch_stamp();
        self.lru.insert(stamp, tenant);
        self.resident.insert(
            tenant,
            Slot {
                sampler,
                last_touch: stamp,
            },
        );
        &mut self
            .resident
            .get_mut(&tenant)
            .expect("just inserted")
            .sampler
    }

    /// Ingest a frame of elements for one tenant. Returns the tenant's
    /// total items after the frame.
    pub fn ingest(&mut self, tenant: u64, values: &[u64]) -> usize {
        let sampler = self.slot(tenant);
        sampler.observe_batch(values);
        sampler.observed()
    }

    /// Ingest a little-endian `u64` byte frame (the zero-copy wire
    /// path): the reservoir reads the payload's words in place and
    /// decodes only those it stores. Trailing bytes short of a full word
    /// are ignored.
    pub fn ingest_le(&mut self, tenant: u64, payload: &[u8]) -> usize {
        let sampler = self.slot(tenant);
        sampler.observe_by(payload.len() / 8, move |i| le_word(payload, i));
        sampler.observed()
    }

    /// Items this tenant has streamed (reviving it if cold).
    pub fn items(&mut self, tenant: u64) -> usize {
        self.slot(tenant).observed()
    }

    /// Estimated occurrences of `x` in the tenant's stream: sample
    /// density × items, the [`EpochSnapshot::count`] convention.
    ///
    /// [`EpochSnapshot::count`]: crate::EpochSnapshot::count
    pub fn count(&mut self, tenant: u64, x: u64) -> f64 {
        let sampler = self.slot(tenant);
        let sample = sampler.sample();
        if sample.is_empty() {
            return 0.0;
        }
        let hits = sample.iter().filter(|&&v| v == x).count();
        hits as f64 / sample.len() as f64 * sampler.observed() as f64
    }

    /// The tenant's `q`-quantile: the rank-`⌈q·len⌉` element of its
    /// sorted sample (`None` before the first element). Selected in
    /// O(k) from an arena-owned copy, so a resident tenant's query
    /// neither sorts nor allocates.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, tenant: u64, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "q must be in [0,1], got {q}");
        let mut select = std::mem::take(&mut self.select);
        select.clear();
        select.extend_from_slice(self.slot(tenant).sample());
        let answer = (!select.is_empty()).then(|| {
            let target = ((q * select.len() as f64).ceil() as usize).clamp(1, select.len());
            *select.select_nth_unstable(target - 1).1
        });
        self.select = select;
        answer
    }

    /// The tenant's item count and current sample, borrowed (reviving
    /// it if cold).
    pub fn snapshot(&mut self, tenant: u64) -> (usize, &[u64]) {
        let sampler = self.slot(tenant);
        (sampler.observed(), sampler.sample())
    }

    /// The tenant's current sample (reviving it if cold).
    pub fn sample(&mut self, tenant: u64) -> Vec<u64> {
        self.snapshot(tenant).1.to_vec()
    }
}

// ---------------------------------------------------------------------------
// Attack adapter: one tenant as an ObservableDefense
// ---------------------------------------------------------------------------

/// One arena tenant exposed as an [`ObservableDefense`], with decoy
/// traffic interleaved to churn the arena.
///
/// Every attacker-chosen element goes to the `victim` tenant; before
/// each one, `decoys_per_round` deterministic elements are dealt to a
/// rotating band of decoy tenants. Size the arena budget below
/// `decoy_tenants + 1` slots and the victim is forced through
/// evict/revive cycles *mid-duel* — the setting where a leaky
/// eviction would hand the adversary free wins. The adversary sees
/// exactly what the paper's model grants: the victim's sample.
///
/// [`ObservableDefense`]: robust_sampling_core::attack::ObservableDefense
#[derive(Debug)]
pub struct VictimTenantView {
    arena: TenantArena,
    victim: u64,
    decoy_tenants: u64,
    decoys_per_round: usize,
    round: u64,
}

impl VictimTenantView {
    /// Wrap `arena`, targeting `victim`, with `decoy_tenants` decoy keys
    /// receiving `decoys_per_round` elements before each victim element.
    ///
    /// # Panics
    ///
    /// Panics if `decoy_tenants == 0` while `decoys_per_round > 0`.
    pub fn new(
        arena: TenantArena,
        victim: u64,
        decoy_tenants: u64,
        decoys_per_round: usize,
    ) -> Self {
        assert!(
            decoy_tenants > 0 || decoys_per_round == 0,
            "decoy traffic needs at least one decoy tenant"
        );
        Self {
            arena,
            victim,
            decoy_tenants,
            decoys_per_round,
            round: 0,
        }
    }

    /// The underlying arena (counters, occupancy) after a duel.
    pub fn arena(&self) -> &TenantArena {
        &self.arena
    }

    /// The victim tenant id.
    pub fn victim(&self) -> u64 {
        self.victim
    }
}

impl StreamSummary<u64> for VictimTenantView {
    fn ingest(&mut self, x: u64) {
        for d in 0..self.decoys_per_round as u64 {
            let i = self.round * self.decoys_per_round as u64 + d;
            // Decoy ids never collide with the victim; values are a
            // deterministic low-discrepancy walk of the universe.
            let decoy = (i % self.decoy_tenants) + self.victim + 1;
            let value = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) % self.arena.config.universe;
            self.arena.ingest(decoy, &[value]);
        }
        self.round += 1;
        self.arena.ingest(self.victim, &[x]);
    }

    fn items_seen(&self) -> usize {
        self.with_victim_sampler(|s| s.observed()).unwrap_or(0)
    }

    fn space(&self) -> usize {
        self.arena.k
    }

    fn summary_name(&self) -> &'static str {
        "tenant-arena-victim"
    }
}

impl VictimTenantView {
    /// Read-only access to the victim's sampler, resident or cold, in
    /// place: reading a cold victim neither revives nor copies it. The
    /// adversary still sees its state — eviction must not be a side
    /// channel *or* a blindfold.
    fn with_victim_sampler<R>(&self, read: impl FnOnce(&ReservoirSampler<u64>) -> R) -> Option<R> {
        let resident = self
            .arena
            .resident
            .get(&self.victim)
            .map(|slot| &slot.sampler);
        resident
            .or_else(|| self.arena.cold.get(&self.victim).map(|b| &**b))
            .map(read)
    }
}

/// The oracle mirrors a standalone reservoir's exactly (quantiles from
/// the victim's sample), so a duel through the arena is observation-wise
/// indistinguishable from one against an isolated sampler — the E14
/// transparency verdict depends on this.
impl StateOracle for VictimTenantView {
    fn quantile_estimate(&self, q: f64) -> Option<u64> {
        self.with_victim_sampler(|s| s.estimate_quantile(q))
            .flatten()
    }
}

impl ObservableDefense for VictimTenantView {
    fn visible_into(&self, out: &mut Vec<u64>) {
        self.with_victim_sampler(|s| out.extend_from_slice(s.sample()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_arena(budget_slots: usize, robust: bool) -> TenantArena {
        let config = TenantArenaConfig {
            universe: 1 << 16,
            eps: 0.2,
            delta: 0.1,
            budget_bytes: 0, // replaced below
            base_seed: 42,
            robust,
        };
        let slot = 8 * config.reservoir_k() + SLOT_OVERHEAD_BYTES;
        TenantArena::new(TenantArenaConfig {
            budget_bytes: budget_slots * slot,
            ..config
        })
    }

    #[test]
    fn budget_caps_residency_and_accounts_bytes() {
        let mut arena = small_arena(3, true);
        assert_eq!(arena.max_resident(), 3);
        for t in 0..10u64 {
            arena.ingest(t, &[t, t + 1]);
        }
        assert_eq!(arena.resident_tenants(), 3);
        assert_eq!(arena.known_tenants(), 10);
        assert_eq!(arena.resident_bytes(), 3 * arena.slot_bytes());
        assert!(arena.resident_bytes() <= arena.config().budget_bytes);
        let c = arena.counters();
        assert_eq!(c.created, 10);
        assert_eq!(c.evictions, 7);
        assert_eq!(c.revivals, 0);
    }

    #[test]
    fn eviction_is_lru_and_deterministic() {
        let mut arena = small_arena(2, true);
        arena.ingest(1, &[10]);
        arena.ingest(2, &[20]);
        arena.ingest(1, &[11]); // 2 is now LRU
        arena.ingest(3, &[30]); // evicts 2
        assert!(arena.resident.contains_key(&1));
        assert!(arena.resident.contains_key(&3));
        assert!(arena.cold.contains_key(&2));
    }

    #[test]
    fn evict_revive_is_bit_identical_to_never_evicted() {
        let mut arena = small_arena(1, true); // every switch evicts
        let mut isolated = ReservoirSampler::<u64>::with_seed(
            arena.reservoir_k(),
            tenant_seed(arena.config().base_seed, 7),
        );
        // Interleave tenants so tenant 7 is evicted and revived many times.
        for round in 0..50u64 {
            let frame: Vec<u64> = (0..40).map(|i| (round * 131 + i * 17) % 65_536).collect();
            arena.ingest(7, &frame);
            for &v in &frame {
                isolated.observe(v);
            }
            arena.ingest(round % 5 + 100, &frame); // churn
        }
        assert!(arena.counters().revivals >= 49, "tenant 7 must cycle");
        assert_eq!(arena.sample(7), isolated.sample());
        assert_eq!(arena.items(7), isolated.observed());
    }

    #[test]
    fn cold_bytes_track_checkpoints_and_are_right_sized() {
        let mut arena = small_arena(1, true);
        assert_eq!(arena.cold_bytes(), 0);
        arena.ingest(1, &[10, 11, 12]);
        assert!(arena.is_resident(1));
        arena.ingest(2, &[20]); // evicts 1
        assert!(!arena.is_resident(1));
        // A 3-element tenant is charged its checkpoint size, O(3) bytes,
        // not O(k).
        assert_eq!(arena.cold_bytes(), 80 + 8 * 3);
        assert!(
            arena.cold_bytes() < arena.slot_bytes() / 4,
            "cold tenant {} bytes vs slot {}",
            arena.cold_bytes(),
            arena.slot_bytes()
        );
        arena.ingest(1, &[13]); // revives 1, evicts 2
        let after_swap = arena.cold_bytes();
        arena.ingest(2, &[21]); // revives 2, evicts 1
        arena.ingest(1, &[14]); // revives 1, evicts 2
        assert!(arena.cold_bytes() >= after_swap); // never drifts negative
        arena.ingest(2, &[22]); // leave only tenant 1 cold
        assert!(arena.cold_bytes() > 0 && !arena.is_resident(1) && arena.is_resident(2));
    }

    #[test]
    fn lazy_seeding_is_a_pure_function_of_base_and_id() {
        let mut a = small_arena(4, true);
        let mut b = small_arena(4, true);
        // Different interleavings, same per-tenant streams.
        a.ingest(1, &[5, 6]);
        a.ingest(2, &[7]);
        a.ingest(1, &[8]);
        b.ingest(2, &[7]);
        b.ingest(1, &[5, 6, 8]);
        assert_eq!(a.sample(1), b.sample(1));
        assert_eq!(a.sample(2), b.sample(2));
        assert_ne!(tenant_seed(42, 1), tenant_seed(42, 2));
        assert_ne!(tenant_seed(42, 1), tenant_seed(43, 1));
    }

    #[test]
    fn ingest_le_matches_ingest() {
        let mut a = small_arena(2, true);
        let mut b = small_arena(2, true);
        let values = [3u64, 9, 27, 81];
        let mut bytes = Vec::new();
        for v in values {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
        a.ingest(5, &values);
        b.ingest_le(5, &bytes);
        assert_eq!(a.sample(5), b.sample(5));
        assert_eq!(b.items(5), 4);
    }

    #[test]
    fn count_and_quantile_follow_snapshot_conventions() {
        let mut arena = small_arena(2, true);
        // Fewer items than k: the sample is exact.
        let frame: Vec<u64> = (1..=100).collect();
        arena.ingest(9, &frame);
        assert_eq!(arena.count(9, 42), 1.0);
        assert_eq!(arena.count(9, 1000), 0.0);
        assert_eq!(arena.quantile(9, 0.5), Some(50));
        assert_eq!(arena.quantile(9, 1.0), Some(100));
        assert_eq!(arena.quantile(10, 0.5), None);
    }

    #[test]
    fn quantile_selection_matches_the_sorted_reference() {
        // Four tenants in two slots, so they cycle through the cold tier.
        let mut arena = small_arena(2, true);
        let k = arena.reservoir_k() as u64;
        let lens = [0, 1, 37, 5 * k]; // empty, partial ×2, full
        for (t, &n) in lens.iter().enumerate() {
            let frame: Vec<u64> = (0..n).map(|i| (i * 7_919 + t as u64) % 4_099).collect();
            arena.ingest(t as u64, &frame);
        }
        for round in 0..2 {
            for t in 0..lens.len() as u64 {
                let before = arena.sample(t);
                let mut sorted = before.clone();
                sorted.sort_unstable();
                for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
                    let reference = (!sorted.is_empty()).then(|| {
                        let target =
                            ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
                        sorted[target - 1]
                    });
                    assert_eq!(
                        arena.quantile(t, q),
                        reference,
                        "round {round}, tenant {t}, q {q}"
                    );
                }
                assert_eq!(
                    arena.sample(t),
                    before,
                    "selection must not reorder the reservoir"
                );
            }
        }
        assert!(arena.counters().revivals > 0, "queries must cycle tenants");
    }

    #[test]
    fn oblivious_sizing_is_much_smaller_than_robust() {
        let robust = small_arena(1, true);
        let static_sized = small_arena(1, false);
        assert!(
            static_sized.reservoir_k() * 2 < robust.reservoir_k(),
            "static {} vs robust {}",
            static_sized.reservoir_k(),
            robust.reservoir_k()
        );
    }

    #[test]
    fn victim_view_survives_eviction_pressure() {
        let arena = small_arena(2, true); // victim + 8 decoys in 2 slots
        let mut view = VictimTenantView::new(arena, 0, 8, 4);
        for x in 0..200u64 {
            view.ingest(x % 100);
        }
        // Decoys fill both slots between victim touches, so the victim
        // cycles through the cold tier every round.
        assert!(view.arena().counters().revivals > 100, "victim must churn");
        assert_eq!(view.items_seen(), 200);
        // Push the victim cold, then check it is still observable.
        view.arena.ingest(1, &[1]);
        view.arena.ingest(2, &[2]);
        assert!(!view.arena().is_resident(0), "victim is evicted at rest");
        assert_eq!(view.items_seen(), 200, "a cold victim still counts");
        let visible = view.visible();
        assert!(!visible.is_empty(), "cold victim must still be observable");
        // Revive and compare: the cold and the revived sampler agree.
        let mut arena = view.arena;
        assert_eq!(arena.sample(0), visible);
        assert_eq!(arena.items(0), 200);
    }
}
