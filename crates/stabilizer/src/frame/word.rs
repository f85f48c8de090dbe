//! Frame words: the bit-plane element type of the batch engine.
//!
//! [`FrameWord`] abstracts "one machine word of shots". The batch sampler
//! packs 512 shots into every plane word ([`W512`]); the `u64` word (64
//! shots) stays as the lane-identity reference and for one-word
//! micro-benchmarks. `W512` is a plain `[u64; 8]` array whose operations
//! are fixed-length lane loops — the optimiser unrolls them and lowers
//! them to SSE/AVX register ops without any target-feature gymnastics.
//! Every operation is defined lane-wise, so lane `l` of a `W512` behaves
//! exactly like a standalone `u64` word.
//!
//! That lane discipline is the whole width-invariance argument: a 64-shot
//! *block* never mixes bits with its neighbours, randomness is drawn per
//! block (see [`super::BlockRngs`]), and block `b` of a batch always lands
//! in lane `b % LANES` of word `b / LANES`. The word width therefore
//! changes how many blocks one instruction touches — never which bits any
//! block holds.

/// One machine word of per-shot bits: 64-shot lanes packed `LANES` wide.
///
/// Implementations must keep every operation lane-local (no carries, no
/// shuffles across lanes); the frame engine's bit-for-bit equivalence
/// between lane widths rests on it.
pub trait FrameWord: Copy + PartialEq + Eq + core::fmt::Debug + Send + Sync + 'static {
    /// Number of 64-shot lanes per word.
    const LANES: usize;
    /// Shots (bits) per word.
    const BITS: usize;
    /// The all-zero word.
    const ZERO: Self;
    /// The all-ones word.
    const ONES: Self;

    /// Lane `l` (shots `64*l .. 64*(l+1)` within the word).
    fn lane(&self, l: usize) -> u64;
    /// Mutable lane `l`.
    fn lane_mut(&mut self, l: usize) -> &mut u64;
    /// Lane-wise XOR.
    #[must_use]
    fn xor(self, rhs: Self) -> Self;
    /// Lane-wise AND.
    #[must_use]
    fn and(self, rhs: Self) -> Self;
    /// Lane-wise OR.
    #[must_use]
    fn or(self, rhs: Self) -> Self;
    /// Lane-wise NOT.
    #[must_use]
    fn not(self) -> Self;
    /// Population count over all lanes.
    fn count_ones(self) -> u32;

    /// `true` when no bit is set.
    #[inline]
    fn is_zero(self) -> bool {
        self == Self::ZERO
    }

    /// Mask whose lowest `bits` shot positions are set.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or exceeds [`FrameWord::BITS`].
    #[must_use]
    fn low_mask(bits: usize) -> Self {
        assert!(
            bits >= 1 && bits <= Self::BITS,
            "mask width must be in 1..=BITS"
        );
        let mut w = Self::ZERO;
        for l in 0..Self::LANES {
            let live = bits.saturating_sub(l * 64).min(64);
            *w.lane_mut(l) = match live {
                0 => 0,
                64 => u64::MAX,
                _ => (1u64 << live) - 1,
            };
        }
        w
    }
}

impl FrameWord for u64 {
    const LANES: usize = 1;
    const BITS: usize = 64;
    const ZERO: u64 = 0;
    const ONES: u64 = u64::MAX;

    #[inline]
    fn lane(&self, l: usize) -> u64 {
        debug_assert_eq!(l, 0);
        *self
    }

    #[inline]
    fn lane_mut(&mut self, l: usize) -> &mut u64 {
        debug_assert_eq!(l, 0);
        self
    }

    #[inline]
    fn xor(self, rhs: u64) -> u64 {
        self ^ rhs
    }

    #[inline]
    fn and(self, rhs: u64) -> u64 {
        self & rhs
    }

    #[inline]
    fn or(self, rhs: u64) -> u64 {
        self | rhs
    }

    #[inline]
    fn not(self) -> u64 {
        !self
    }

    #[inline]
    fn count_ones(self) -> u32 {
        u64::count_ones(self)
    }
}

/// A 512-bit frame word: eight 64-shot lanes (one AVX-512 register, or a
/// pair of AVX2 ops on narrower machines).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(align(64))]
pub struct W512(pub [u64; 8]);

impl FrameWord for W512 {
    const LANES: usize = 8;
    const BITS: usize = 512;
    const ZERO: W512 = W512([0; 8]);
    const ONES: W512 = W512([u64::MAX; 8]);

    #[inline]
    fn lane(&self, l: usize) -> u64 {
        self.0[l]
    }

    #[inline]
    fn lane_mut(&mut self, l: usize) -> &mut u64 {
        &mut self.0[l]
    }

    #[inline]
    fn xor(mut self, rhs: W512) -> W512 {
        for (a, b) in self.0.iter_mut().zip(rhs.0) {
            *a ^= b;
        }
        self
    }

    #[inline]
    fn and(mut self, rhs: W512) -> W512 {
        for (a, b) in self.0.iter_mut().zip(rhs.0) {
            *a &= b;
        }
        self
    }

    #[inline]
    fn or(mut self, rhs: W512) -> W512 {
        for (a, b) in self.0.iter_mut().zip(rhs.0) {
            *a |= b;
        }
        self
    }

    #[inline]
    fn not(mut self) -> W512 {
        for a in &mut self.0 {
            *a = !*a;
        }
        self
    }

    #[inline]
    fn count_ones(self) -> u32 {
        self.0.iter().map(|a| a.count_ones()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise_lanes<W: FrameWord>() {
        assert_eq!(W::BITS, W::LANES * 64);
        assert_eq!(W::ZERO.count_ones(), 0);
        assert_eq!(W::ONES.count_ones() as usize, W::BITS);
        assert!(W::ZERO.is_zero());
        assert!(!W::ONES.is_zero());
        assert_eq!(W::ONES.not(), W::ZERO);

        // Set one bit per lane and check lane isolation.
        let mut w = W::ZERO;
        for l in 0..W::LANES {
            *w.lane_mut(l) = 1u64 << l;
        }
        for l in 0..W::LANES {
            assert_eq!(w.lane(l), 1u64 << l);
        }
        assert_eq!(w.count_ones() as usize, W::LANES);
        assert_eq!(w.xor(w), W::ZERO);
        assert_eq!(w.and(W::ONES), w);
        assert_eq!(w.or(W::ZERO), w);
    }

    #[test]
    fn lane_ops_hold_for_all_widths() {
        exercise_lanes::<u64>();
        exercise_lanes::<W512>();
    }

    fn exercise_low_mask<W: FrameWord>() {
        assert_eq!(W::low_mask(W::BITS), W::ONES);
        assert_eq!(W::low_mask(1).count_ones(), 1);
        for bits in [1, 63, 64, W::BITS.min(65), W::BITS - 1, W::BITS] {
            let m = W::low_mask(bits);
            assert_eq!(m.count_ones() as usize, bits, "bits = {bits}");
            // The mask must be a prefix: lane l fully set below the cut.
            for l in 0..W::LANES {
                let live = bits.saturating_sub(l * 64).min(64);
                let expect = match live {
                    0 => 0,
                    64 => u64::MAX,
                    _ => (1u64 << live) - 1,
                };
                assert_eq!(m.lane(l), expect);
            }
        }
    }

    #[test]
    fn low_mask_is_a_bit_prefix() {
        exercise_low_mask::<u64>();
        exercise_low_mask::<W512>();
    }

    #[test]
    #[should_panic(expected = "mask width")]
    fn low_mask_rejects_zero() {
        let _ = u64::low_mask(0);
    }
}
