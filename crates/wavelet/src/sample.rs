//! Width-generic coefficient samples.
//!
//! The paper fixes its datapath at 8-bit pixels whose exact Haar
//! coefficients need 16 bits ([`crate::Coeff`]). Related workloads need a
//! wider word: the integral-image engine of Ehsan et al. buffers row
//! prefix sums that grow to `255 × W` (21 bits at `W = 2048`), and the
//! bilateral-grid accumulators widen similarly (see `PAPERS.md`). The
//! [`Sample`] trait abstracts the coefficient width so the lifting
//! kernels, the NBits/BitMap column codec and the lane-parallel hot paths
//! are written once and instantiated at both widths.
//!
//! The trait is **sealed**: exactly two instances exist, `i16` (the
//! paper's datapath) and `i32` (the wide datapath). The conformance
//! corpus pins that the i16 path did not move when it went generic.

mod sealed {
    /// Seals [`super::Sample`]: the codec layers are validated for exactly
    /// these widths.
    pub trait Sealed {}
    impl Sealed for i16 {}
    impl Sealed for i32 {}
}

/// A two's-complement coefficient word the datapath can carry.
///
/// Exposes the width (`BITS`), widening conversions, wrapping/saturating
/// lifting arithmetic, and the sign-XOR magnitude the NBits scan is built
/// on.
pub trait Sample:
    sealed::Sealed
    + Copy
    + Ord
    + Eq
    + Default
    + core::fmt::Debug
    + core::fmt::Display
    + Send
    + Sync
    + 'static
{
    /// Two's-complement width of the sample (16 or 32).
    const BITS: u32;
    /// Width of the NBits management field for this sample width. The
    /// field stores `nbits − 1`, so 4 bits cover widths 1..=16 and the
    /// wide instance needs 5 bits for widths 1..=32.
    const NBITS_FIELD_BITS: u32;
    /// Additive identity.
    const ZERO: Self;
    /// Most negative representable sample.
    const MIN: Self;
    /// Most positive representable sample.
    const MAX: Self;

    /// Widen an input pixel into a sample (always exact: pixels are u8).
    fn from_pixel(p: u8) -> Self;
    /// Widen to `i64` (always exact).
    fn to_i64(self) -> i64;
    /// Narrow from `i64`.
    ///
    /// # Panics
    ///
    /// Panics (debug) when `v` does not fit the sample width.
    fn from_i64(v: i64) -> Self;
    /// Wrapping addition (the lane-parallel kernels' semantics).
    fn wrapping_add(self, rhs: Self) -> Self;
    /// Wrapping subtraction (the lane-parallel kernels' semantics).
    fn wrapping_sub(self, rhs: Self) -> Self;
    /// Saturating addition (the clamping datapath modes).
    fn saturating_add(self, rhs: Self) -> Self;
    /// Saturating subtraction (the clamping datapath modes).
    fn saturating_sub(self, rhs: Self) -> Self;
    /// Checked addition, `None` on overflow (the headroom proofs).
    fn checked_add(self, rhs: Self) -> Option<Self>;
    /// Checked subtraction, `None` on overflow (the headroom proofs).
    fn checked_sub(self, rhs: Self) -> Option<Self>;
    /// Arithmetic shift right by one — the paper's divide-by-two.
    fn asr1(self) -> Self;
    /// Absolute value, with the native overflow semantics at `MIN`
    /// (mirrors the scalar significance filter exactly).
    fn abs_val(self) -> Self;
    /// Sign-XOR magnitude, zero-extended: `v` for `v ≥ 0`, `!v` for
    /// `v < 0` — the XOR stage of the paper's Figure 7 NBits circuit.
    fn magnitude(self) -> u64;
    /// The sample's two's-complement bits, zero-extended to `u64`.
    fn to_raw(self) -> u64;
    /// Reinterpret the low `BITS` bits of `raw` as a sample.
    fn from_raw(raw: u64) -> Self;

    /// Minimum two's-complement width representing the sample
    /// (the width-generic twin of [`crate::Coeff`]'s `min_bits`).
    #[inline]
    fn min_bits(self) -> u32 {
        65 - self.magnitude().leading_zeros().min(64)
    }
}

impl Sample for i16 {
    const BITS: u32 = 16;
    const NBITS_FIELD_BITS: u32 = 4;
    const ZERO: Self = 0;
    const MIN: Self = i16::MIN;
    const MAX: Self = i16::MAX;

    #[inline]
    fn from_pixel(p: u8) -> Self {
        p as i16
    }
    #[inline]
    fn to_i64(self) -> i64 {
        self as i64
    }
    #[inline]
    fn from_i64(v: i64) -> Self {
        debug_assert!(
            (i16::MIN as i64..=i16::MAX as i64).contains(&v),
            "{v} does not fit in i16"
        );
        v as i16
    }
    #[inline]
    fn wrapping_add(self, rhs: Self) -> Self {
        i16::wrapping_add(self, rhs)
    }
    #[inline]
    fn wrapping_sub(self, rhs: Self) -> Self {
        i16::wrapping_sub(self, rhs)
    }
    #[inline]
    fn saturating_add(self, rhs: Self) -> Self {
        i16::saturating_add(self, rhs)
    }
    #[inline]
    fn saturating_sub(self, rhs: Self) -> Self {
        i16::saturating_sub(self, rhs)
    }
    #[inline]
    fn checked_add(self, rhs: Self) -> Option<Self> {
        i16::checked_add(self, rhs)
    }
    #[inline]
    fn checked_sub(self, rhs: Self) -> Option<Self> {
        i16::checked_sub(self, rhs)
    }
    #[inline]
    fn asr1(self) -> Self {
        self >> 1
    }
    #[inline]
    fn abs_val(self) -> Self {
        self.abs()
    }
    #[inline]
    fn magnitude(self) -> u64 {
        (if self < 0 { !self } else { self }) as u16 as u64
    }
    #[inline]
    fn to_raw(self) -> u64 {
        self as u16 as u64
    }
    #[inline]
    fn from_raw(raw: u64) -> Self {
        raw as u16 as i16
    }
}

impl Sample for i32 {
    const BITS: u32 = 32;
    const NBITS_FIELD_BITS: u32 = 5;
    const ZERO: Self = 0;
    const MIN: Self = i32::MIN;
    const MAX: Self = i32::MAX;

    #[inline]
    fn from_pixel(p: u8) -> Self {
        p as i32
    }
    #[inline]
    fn to_i64(self) -> i64 {
        self as i64
    }
    #[inline]
    fn from_i64(v: i64) -> Self {
        debug_assert!(
            (i32::MIN as i64..=i32::MAX as i64).contains(&v),
            "{v} does not fit in i32"
        );
        v as i32
    }
    #[inline]
    fn wrapping_add(self, rhs: Self) -> Self {
        i32::wrapping_add(self, rhs)
    }
    #[inline]
    fn wrapping_sub(self, rhs: Self) -> Self {
        i32::wrapping_sub(self, rhs)
    }
    #[inline]
    fn saturating_add(self, rhs: Self) -> Self {
        i32::saturating_add(self, rhs)
    }
    #[inline]
    fn saturating_sub(self, rhs: Self) -> Self {
        i32::saturating_sub(self, rhs)
    }
    #[inline]
    fn checked_add(self, rhs: Self) -> Option<Self> {
        i32::checked_add(self, rhs)
    }
    #[inline]
    fn checked_sub(self, rhs: Self) -> Option<Self> {
        i32::checked_sub(self, rhs)
    }
    #[inline]
    fn asr1(self) -> Self {
        self >> 1
    }
    #[inline]
    fn abs_val(self) -> Self {
        self.abs()
    }
    #[inline]
    fn magnitude(self) -> u64 {
        (if self < 0 { !self } else { self }) as u32 as u64
    }
    #[inline]
    fn to_raw(self) -> u64 {
        self as u32 as u64
    }
    #[inline]
    fn from_raw(raw: u64) -> Self {
        raw as u32 as i32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nbits_field_covers_every_width() {
        fn check<S: Sample>() {
            // The NBits field must index every width 1..=BITS as nbits−1.
            assert!(S::BITS <= 1 << S::NBITS_FIELD_BITS);
            assert!(S::BITS > 1 << (S::NBITS_FIELD_BITS - 1));
        }
        check::<i16>();
        check::<i32>();
    }

    #[test]
    fn raw_roundtrip_and_magnitude_agree_across_widths() {
        fn check<S: Sample>(values: &[i64]) {
            for &v in values {
                let s = S::from_i64(v);
                assert_eq!(S::from_raw(s.to_raw()), s, "raw roundtrip {v}");
                assert_eq!(s.to_i64(), v, "widen {v}");
                let mag = if v < 0 { !v as u64 } else { v as u64 };
                assert_eq!(s.magnitude(), mag & (u64::MAX >> (64 - S::BITS)));
            }
        }
        check::<i16>(&[0, 1, -1, 255, -256, 32767, -32768]);
        check::<i32>(&[0, 1, -1, 65535, -65536, i32::MAX as i64, i32::MIN as i64]);
    }

    #[test]
    fn min_bits_matches_width_boundaries_for_both_instances() {
        // 2^(b−1) − 1 and −2^(b−1) are the extreme b-bit values.
        for b in 2..=16u32 {
            let hi = (1i64 << (b - 1)) - 1;
            let lo = -(1i64 << (b - 1));
            assert_eq!(<i16 as Sample>::from_i64(hi).min_bits(), b);
            assert_eq!(<i16 as Sample>::from_i64(lo).min_bits(), b);
        }
        for b in 2..=32u32 {
            let hi = (1i64 << (b - 1)) - 1;
            let lo = -(1i64 << (b - 1));
            assert_eq!(<i32 as Sample>::from_i64(hi).min_bits(), b);
            assert_eq!(<i32 as Sample>::from_i64(lo).min_bits(), b);
        }
        assert_eq!(<i16 as Sample>::ZERO.min_bits(), 1);
        assert_eq!(<i32 as Sample>::from_i64(-1).min_bits(), 1);
    }
}
