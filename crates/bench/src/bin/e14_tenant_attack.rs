//! E14 — tenant-targeting attack: one victim hidden in aggregate traffic.
//!
//! The multi-tenant arena holds millions of per-key reservoirs under one
//! memory budget, evicting idle tenants to a cold tier and reviving them
//! on demand. This experiment asks the adversarial question the paper
//! asks of a single summary, per tenant: can an adaptive adversary that
//! funnels its entire effort into **one** tenant — while decoy traffic
//! churns that tenant in and out of residency — push the victim's
//! per-tenant error past the Theorem 1.2 budget?
//!
//! Three verdicts:
//!
//! 1. **Transparency.** A duel played through the arena (four resident
//!    slots, eight decoy tenants forcing evict/revive cycles every
//!    round) is **bit-identical** to the same duel against an isolated
//!    reservoir seeded with the victim's arena seed: eviction keeps the
//!    full private sampler state, so eviction is neither a
//!    side channel nor a robustness loss.
//! 2. **Robust sizing holds.** At the Theorem 1.2 per-tenant sizing
//!    (`k = ⌈2(ln|U| + ln(2/δ))/ε²⌉`), every registered attack stays
//!    `≤ ε` on the victim's prefix discrepancy.
//! 3. **Thin provisioning breaks.** A tenant sized the way an oblivious
//!    operator would thin-provision it (the break-scale `k ≈ 32` budget
//!    the matrix's `reservoir` row uses) is pushed past the same `ε` by
//!    the adaptive registry — the adaptivity premium, per tenant.
//!
//! The VC-sized (`d = 1`) middle ground is reported for context: as E11
//! establishes, heuristic `u64`-universe adversaries cannot annihilate
//! it (Thm 1.3's admissibility window needs unbounded precision), but it
//! is strictly dominated by the cardinality sizing — the matrix pins
//! that contrast as `tenant-victim-static` vs `tenant-victim-robust`.

use robust_sampling_bench::matrix::ROBUST_EPS;
use robust_sampling_bench::{banner, f, init_cli, is_quick, stream_len, verdict, Table};
use robust_sampling_core::approx::prefix_discrepancy;
use robust_sampling_core::attack::{registry, Duel, ObservableDefense};
use robust_sampling_core::sampler::{ReservoirSampler, StreamSampler};
use robust_sampling_service::tenant::{
    tenant_seed, TenantArena, TenantArenaConfig, VictimTenantView, SLOT_OVERHEAD_BYTES,
};

/// The targeted tenant id (decoys are the ids above it).
const VICTIM: u64 = 7;
/// Decoy tenants sharing the arena with the victim.
const DECOY_TENANTS: u64 = 8;
/// Decoy elements injected before each victim element.
const DECOYS_PER_ROUND: usize = 2;
/// Per-tenant failure probability for the sized legs.
const DELTA: f64 = 0.1;
/// Arena base seed (the victim samples with `tenant_seed(BASE_SEED, VICTIM)`).
const BASE_SEED: u64 = 42;

/// An arena squeezed to four resident slots around its victim view, so
/// the victim is evicted and revived continuously.
fn squeezed_victim(config: TenantArenaConfig) -> VictimTenantView {
    let mut config = config;
    config.budget_bytes = 4 * (8 * config.reservoir_k() + SLOT_OVERHEAD_BYTES);
    VictimTenantView::new(
        TenantArena::new(config),
        VICTIM,
        DECOY_TENANTS,
        DECOYS_PER_ROUND,
    )
}

fn main() {
    init_cli();
    banner(
        "E14",
        "tenant-targeting attack: one victim hidden in aggregate traffic",
        "per-tenant Thm 1.2 sizing survives an adversary that targets one \
         arena tenant through eviction churn; thin-provisioned tenants break",
    );
    let n = stream_len(if is_quick() { 4_096 } else { 16_384 });
    let universe = 1u64 << 20;
    let trials: u64 = if is_quick() { 1 } else { 3 };
    let robust_cfg = TenantArenaConfig {
        universe,
        eps: ROBUST_EPS,
        delta: DELTA,
        budget_bytes: 0,
        base_seed: BASE_SEED,
        robust: true,
    };
    // Thin provisioning: the break-scale budget the matrix's `reservoir`
    // row uses (k ≈ 32), expressed through the static sizing formula —
    // what an operator obliviously provisioning 10⁶ tenants might pick.
    let thin_cfg = TenantArenaConfig {
        universe,
        eps: 0.39,
        delta: 0.5,
        budget_bytes: 0,
        base_seed: BASE_SEED,
        robust: false,
    };
    println!(
        "\nvictim tenant {VICTIM} among {DECOY_TENANTS} decoys, 4-slot arena budget, n = {n}:\n\
         robust slot k = {}, thin slot k = {}, worst of {trials} seed(s)\n",
        robust_cfg.reservoir_k(),
        thin_cfg.reservoir_k(),
    );

    let mut table = Table::new(&["attack", "robust (Thm 1.2)", "thin (k~32)", "revivals"]);
    let mut worst_robust = 0.0f64;
    let mut worst_thin = 0.0f64;
    let mut transparent = true;
    let mut churned = true;
    for spec in registry() {
        let mut err_robust = 0.0f64;
        let mut err_thin = 0.0f64;
        let mut revivals = 0u64;
        for t in 0..trials {
            let seed = 7 + t;
            // Robust-sized victim through the arena…
            let mut d = squeezed_victim(robust_cfg);
            let mut strat = spec.build(n, universe, seed);
            let out = Duel::new(n, universe).run(&mut d, &mut strat);
            err_robust = err_robust.max(prefix_discrepancy(&out.stream, &d.visible()).value);
            revivals = revivals.max(d.arena().counters().revivals);
            churned &= d.arena().counters().evictions > 0;
            // …must replay the *identical* duel as an isolated reservoir
            // seeded with the victim's arena seed (evict/revive
            // transparency: the adversary cannot even tell).
            let mut iso = ReservoirSampler::<u64>::with_seed(
                robust_cfg.reservoir_k(),
                tenant_seed(BASE_SEED, VICTIM),
            );
            let mut strat = spec.build(n, universe, seed);
            let iso_out = Duel::new(n, universe).run(&mut iso, &mut strat);
            transparent &= iso_out.stream == out.stream && iso.sample() == d.visible();
            // Thin-provisioned victim, same traffic shape.
            let mut d = squeezed_victim(thin_cfg);
            let mut strat = spec.build(n, universe, seed);
            let out = Duel::new(n, universe).run(&mut d, &mut strat);
            err_thin = err_thin.max(prefix_discrepancy(&out.stream, &d.visible()).value);
        }
        worst_robust = worst_robust.max(err_robust);
        if spec.adaptive {
            worst_thin = worst_thin.max(err_thin);
        }
        table.row(&[
            spec.name.to_string(),
            f(err_robust),
            f(err_thin),
            revivals.to_string(),
        ]);
    }
    table.emit("e14", "victim");

    verdict(
        "eviction is transparent: arena duel == isolated-reservoir duel",
        transparent && churned,
        "same stream, same final victim sample, with >0 evictions per duel",
    );
    verdict(
        "Thm 1.2-sized victim holds <= eps through eviction churn",
        worst_robust <= ROBUST_EPS,
        &format!(
            "worst victim discrepancy {} (eps = {ROBUST_EPS})",
            f(worst_robust)
        ),
    );
    verdict(
        "thin-provisioned victim is broken by the adaptive registry",
        worst_thin > ROBUST_EPS,
        &format!(
            "worst adaptive discrepancy {} > eps = {ROBUST_EPS}",
            f(worst_thin)
        ),
    );
}
