//! Arbitrary-precision dyadic rationals in `[0, 1)`.
//!
//! The paper's introductory attack bisects the real interval `[0, 1]` once
//! per round, so after `n` rounds the submitted elements need `n` bits of
//! precision — *exponentially* large universes, which is precisely the
//! paper's point about the attack being "theoretical only". To run that
//! attack honestly (experiment E1) we need exact midpoints with unbounded
//! precision; floats die after ~53 halvings. [`Dyadic`] stores the binary
//! expansion `0.b₁b₂…b_d` explicitly, packed into `u64` limbs.
//!
//! The bisection attack only ever *appends* a bit (the midpoint of a
//! dyadic interval `[0.p, 0.p + 2^-d]` is `0.p1`), so [`Dyadic::child`] is
//! the whole mutation API. Comparison pads the shorter expansion with
//! zeros, matching numeric order on the underlying rationals.

use std::cmp::Ordering;
use std::fmt;

/// An exact dyadic rational `0.b₁b₂…b_d ∈ [0, 1)` with explicit binary
/// expansion, ordered numerically.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Dyadic {
    /// Bit `i` (0-based, MSB-first) lives in limb `i / 64`, bit position
    /// `63 − (i % 64)`. Trailing limb bits beyond `len` are zero.
    limbs: Vec<u64>,
    /// Number of significant bits `d`.
    len: usize,
}

impl Dyadic {
    /// The value `0` (empty expansion).
    pub fn zero() -> Self {
        Self::default()
    }

    /// Number of bits in the expansion.
    #[inline]
    pub fn bit_len(&self) -> usize {
        self.len
    }

    /// Bit `i` (0-based from the binary point).
    ///
    /// # Panics
    ///
    /// Panics if `i >= bit_len()`.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.limbs[i / 64] >> (63 - (i % 64)) & 1 == 1
    }

    /// Append one bit: returns `0.b₁…b_d·b` — the midpoint selector of the
    /// bisection attack (`child(true)` = right half's lower endpoint,
    /// `child(false)` keeps the left half).
    pub fn child(&self, b: bool) -> Self {
        let mut limbs = self.limbs.clone();
        if self.len.is_multiple_of(64) {
            limbs.push(0);
        }
        if b {
            let i = self.len;
            limbs[i / 64] |= 1u64 << (63 - (i % 64));
        }
        Self {
            limbs,
            len: self.len + 1,
        }
    }

    /// Append `t` one-bits: the point `self + (1 − 2^-t)·2^-bit_len`, i.e.
    /// the `(1 − 2^-t)`-quantile of the interval `[self, self + 2^-bit_len)`.
    /// This is the asymmetric probe of the paper's Figure 3 attack with
    /// `p' = 2^-t` (the symmetric bisection is `t = 1`).
    pub fn child_ones(&self, t: usize) -> Self {
        let mut d = self.clone();
        for _ in 0..t {
            d = d.child(true);
        }
        d
    }

    /// Approximate value as `f64` (loses precision beyond ~53 bits; for
    /// display and coarse bucketing only).
    pub fn as_f64(&self) -> f64 {
        let mut acc = 0.0f64;
        let bits = self.len.min(64);
        for i in 0..bits {
            if self.bit(i) {
                acc += 0.5f64.powi(i as i32 + 1);
            }
        }
        acc
    }
}

impl PartialOrd for Dyadic {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Dyadic {
    fn cmp(&self, other: &Self) -> Ordering {
        // Compare limbwise; the shorter expansion is implicitly
        // zero-padded, which matches numeric order because trailing limb
        // bits past `len` are stored as zeros.
        let max_limbs = self.limbs.len().max(other.limbs.len());
        for i in 0..max_limbs {
            let a = self.limbs.get(i).copied().unwrap_or(0);
            let b = other.limbs.get(i).copied().unwrap_or(0);
            match a.cmp(&b) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl fmt::Debug for Dyadic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.len <= 24 {
            write!(f, "0b0.")?;
            for i in 0..self.len {
                write!(f, "{}", u8::from(self.bit(i)))?;
            }
            Ok(())
        } else {
            write!(f, "Dyadic(≈{:.6}, {} bits)", self.as_f64(), self.len)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_smallest() {
        let z = Dyadic::zero();
        let half = z.child(true); // 0.1 = 1/2
        assert!(z < half);
        assert_eq!(z.bit_len(), 0);
        assert_eq!(half.as_f64(), 0.5);
    }

    #[test]
    fn child_false_preserves_value_but_not_identity() {
        let half = Dyadic::zero().child(true);
        let half0 = half.child(false); // 0.10 — same value, longer expansion
        assert_eq!(half.cmp(&half0), Ordering::Equal);
        assert_ne!(half, half0); // structural inequality (different lengths)
    }

    #[test]
    fn ordering_matches_f64_for_short_expansions() {
        // Enumerate all 5-bit dyadics and check the order agrees with f64.
        let mut all = vec![Dyadic::zero()];
        for _ in 0..5 {
            all = all
                .into_iter()
                .flat_map(|d| [d.child(false), d.child(true)])
                .collect();
        }
        for a in &all {
            for b in &all {
                let num = a.as_f64().partial_cmp(&b.as_f64()).unwrap();
                if num != Ordering::Equal {
                    assert_eq!(a.cmp(b), num, "{a:?} vs {b:?}");
                }
            }
        }
    }

    #[test]
    fn deep_expansions_cross_limb_boundaries() {
        // Build 0.000…01 (129 bits) and 0.000…1 (128 bits): latter larger.
        let mut a = Dyadic::zero();
        for _ in 0..128 {
            a = a.child(false);
        }
        let deep_small = a.child(true); // 2^-129
        let mut b = Dyadic::zero();
        for _ in 0..127 {
            b = b.child(false);
        }
        let less_deep = b.child(true); // 2^-128
        assert!(deep_small < less_deep);
        assert!(Dyadic::zero() < deep_small);
        assert_eq!(deep_small.bit_len(), 129);
    }

    #[test]
    fn bisection_invariant_sampled_prefixes_sort_below_unsampled() {
        // Simulate the attack bookkeeping: along one root-to-leaf path, each
        // `child(true)` grows the lower bound past every previously rejected
        // midpoint; the rejected midpoints are all larger.
        let mut prefix = Dyadic::zero();
        let mut accepted = Vec::new(); // "sampled" elements
        let mut rejected = Vec::new();
        let pattern = [true, false, true, true, false, false, true, false];
        for (i, &sampled) in pattern.iter().enumerate() {
            let mid = prefix.child(true);
            if sampled {
                accepted.push(mid.clone());
                prefix = prefix.child(true);
            } else {
                rejected.push(mid.clone());
                prefix = prefix.child(false);
            }
            let _ = i;
        }
        // The paper's Claim 5.2 analogue: every accepted < every rejected
        // is NOT the invariant here — the invariant is accepted ≤ current
        // prefix < rejected midpoints *submitted after acceptance*… the
        // global statement that holds is: all accepted elements are ≤ the
        // final working prefix, all rejected are > it.
        for a in &accepted {
            assert!(a <= &prefix.child(true), "{a:?} above working range");
        }
        for r in &rejected {
            assert!(r > &prefix, "{r:?} not above final prefix");
        }
    }

    #[test]
    fn debug_renders_short_and_long() {
        let d = Dyadic::zero().child(true).child(false).child(true);
        assert_eq!(format!("{d:?}"), "0b0.101");
        let mut long = Dyadic::zero();
        for _ in 0..100 {
            long = long.child(true);
        }
        assert!(format!("{long:?}").contains("100 bits"));
    }

    #[test]
    fn as_f64_truncates_gracefully() {
        let mut d = Dyadic::zero();
        for _ in 0..200 {
            d = d.child(true);
        }
        // 0.111… → 1.0 within f64 precision.
        assert!((d.as_f64() - 1.0).abs() < 1e-12);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn dyadic_from_bits(bits: &[bool]) -> Dyadic {
        bits.iter().fold(Dyadic::zero(), |d, &b| d.child(b))
    }

    proptest! {
        /// Order on short dyadics agrees with the rational value
        /// sum(b_i 2^{-i-1}) computed in exact integer arithmetic.
        #[test]
        fn order_agrees_with_rationals(
            a in proptest::collection::vec(any::<bool>(), 0..50),
            b in proptest::collection::vec(any::<bool>(), 0..50),
        ) {
            let da = dyadic_from_bits(&a);
            let db = dyadic_from_bits(&b);
            // Value scaled by 2^50 as u128 (exact for ≤ 50 bits).
            let val = |bits: &[bool]| -> u128 {
                bits.iter().enumerate()
                    .map(|(i, &bit)| if bit { 1u128 << (49 - i) } else { 0 })
                    .sum()
            };
            let num = val(&a).cmp(&val(&b));
            prop_assert_eq!(da.cmp(&db), num);
        }

        /// child(true) strictly increases, child(false) preserves value.
        #[test]
        fn child_monotonicity(bits in proptest::collection::vec(any::<bool>(), 0..100)) {
            let d = dyadic_from_bits(&bits);
            prop_assert!(d.child(true) > d);
            prop_assert_eq!(d.child(false).cmp(&d), std::cmp::Ordering::Equal);
        }

        /// bit() round-trips the construction pattern.
        #[test]
        fn bits_roundtrip(bits in proptest::collection::vec(any::<bool>(), 1..150)) {
            let d = dyadic_from_bits(&bits);
            prop_assert_eq!(d.bit_len(), bits.len());
            for (i, &b) in bits.iter().enumerate() {
                prop_assert_eq!(d.bit(i), b);
            }
        }
    }
}
