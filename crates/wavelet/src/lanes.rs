//! Lane-parallel lifting kernels — the row-wide twin of the scalar 1-D
//! blocks in [`crate::haar`] and [`crate::legall`].
//!
//! The paper's hardware processes a whole column of coefficients per
//! clock. These kernels process *lanes*: every function here is an
//! elementwise loop over slices, so one call lifts a full row of
//! independent signals at once (Silva & Bampi's row-parallel DWT loop
//! structure). Plain safe loops over contiguous slices are what the
//! compiler auto-vectorizes, so no word packing or `unsafe` is needed.
//!
//! The datapath's row step ([`crate::haar2d`] callers in `sw-core`) runs
//! them across a row's columns: lane `j` is image column `j`, and the
//! vertical lifting of rows `2i, 2i + 1` is one [`haar_fwd_slices`] call.
//! A single column is the one-lane case of the same functions
//! ([`crate::haar2d::ColumnPairTransformer::push_column_sliced`],
//! [`legall53_fwd_sliced`]).
//!
//! Every kernel is **bit-identical** to its scalar twin under wrapping
//! semantics (and therefore to release-mode scalar code on all inputs, and
//! to debug-mode scalar code on the codec's bounded coefficient domain).
//! The `hot_path_equivalence` test battery and the conformance corpus pin
//! this equivalence.

use crate::sample::Sample;
use crate::Coeff;

/// Element-wise forward Haar lifting over sample slices of any width:
/// for every `k`, `low[k] = x1[k] + ((x0[k] − x1[k]) >> 1)` and
/// `high[k] = x0[k] − x1[k]` under wrapping semantics.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn haar_fwd_slices_of<S: Sample>(x0: &[S], x1: &[S], low: &mut [S], high: &mut [S]) {
    let n = x0.len();
    assert!(
        x1.len() == n && low.len() == n && high.len() == n,
        "slice length mismatch"
    );
    for (((&a, &b), l), h) in x0.iter().zip(x1).zip(low.iter_mut()).zip(high.iter_mut()) {
        let d = a.wrapping_sub(b);
        *l = b.wrapping_add(d.asr1());
        *h = d;
    }
}

/// Element-wise inverse Haar lifting over sample slices of any width:
/// the exact inverse of [`haar_fwd_slices_of`] under wrapping semantics.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn haar_inv_slices_of<S: Sample>(low: &[S], high: &[S], x0: &mut [S], x1: &mut [S]) {
    let n = low.len();
    assert!(
        high.len() == n && x0.len() == n && x1.len() == n,
        "slice length mismatch"
    );
    for (((&l, &h), a), b) in low.iter().zip(high).zip(x0.iter_mut()).zip(x1.iter_mut()) {
        let base = l.wrapping_sub(h.asr1());
        *a = base.wrapping_add(h);
        *b = base;
    }
}

/// Element-wise wrapping addition over whole slices
/// (`out[k] = a[k] + b[k]`) — the integral engine's line reconstruction
/// `II(y) = II(y−1) + rs(y)`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn add_slices_of<S: Sample>(a: &[S], b: &[S], out: &mut [S]) {
    let n = a.len();
    assert!(b.len() == n && out.len() == n, "slice length mismatch");
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x.wrapping_add(y);
    }
}

/// Element-wise forward Haar lifting: for every `k`,
/// `(low[k], high[k]) = haar_fwd_pair(x0[k], x1[k])` under wrapping
/// semantics — the i16 face of [`haar_fwd_slices_of`].
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn haar_fwd_slices(x0: &[Coeff], x1: &[Coeff], low: &mut [Coeff], high: &mut [Coeff]) {
    haar_fwd_slices_of::<Coeff>(x0, x1, low, high);
}

/// Element-wise inverse Haar lifting: for every `k`,
/// `(x0[k], x1[k]) = haar_inv_pair(low[k], high[k])` under wrapping
/// semantics — the i16 face of [`haar_inv_slices_of`].
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn haar_inv_slices(low: &[Coeff], high: &[Coeff], x0: &mut [Coeff], x1: &mut [Coeff]) {
    haar_inv_slices_of::<Coeff>(low, high, x0, x1);
}

/// Forward Haar over adjacent pairs: `(x[2k], x[2k+1])` become
/// `(low[k], high[k])`. Within one column this is the vertical stage of
/// the 2-D transform; across a row of lanes it is the horizontal stage
/// between column pairs.
///
/// # Panics
///
/// Panics if `x.len()` is odd or the outputs are shorter than
/// `x.len() / 2`.
pub fn haar_fwd_interleaved(x: &[Coeff], low: &mut [Coeff], high: &mut [Coeff]) {
    assert!(
        x.len().is_multiple_of(2),
        "Haar forward needs an even length"
    );
    let n = x.len() / 2;
    assert!(low.len() >= n && high.len() >= n, "output slices too short");
    for ((pair, l), h) in x.chunks_exact(2).zip(&mut low[..n]).zip(&mut high[..n]) {
        let d = pair[0].wrapping_sub(pair[1]);
        *l = pair[1].wrapping_add(d >> 1);
        *h = d;
    }
}

/// Inverse of [`haar_fwd_interleaved`]: `(low[k], high[k])` reconstruct
/// `(x[2k], x[2k+1])`.
///
/// # Panics
///
/// Panics on length mismatches.
pub fn haar_inv_interleaved(low: &[Coeff], high: &[Coeff], x: &mut [Coeff]) {
    let n = low.len();
    assert_eq!(high.len(), n, "sub-band length mismatch");
    assert_eq!(x.len(), 2 * n, "output length mismatch");
    for ((pair, &l), &h) in x.chunks_exact_mut(2).zip(low).zip(high) {
        let base = l.wrapping_sub(h >> 1);
        pair[0] = base.wrapping_add(h);
        pair[1] = base;
    }
}

/// Row `i` of a row-major plane of `lanes`-wide rows.
#[inline]
fn row(x: &[Coeff], lanes: usize, i: usize) -> &[Coeff] {
    &x[i * lanes..(i + 1) * lanes]
}

/// Forward LeGall 5/3 of `lanes` independent even-length signals stored
/// as a row-major plane: sample `i` of signal `j` is `x[i * lanes + j]`.
/// Writes the `n / 2` approximation rows to `low` and detail rows to
/// `high` in the same layout. Each signal gets exactly
/// [`crate::legall::legall53_forward`]: the predict step
/// `d[k] = x[2k+1] − floor((x[2k] + x[2k+2]) / 2)` (the last detail
/// mirroring `x[2k+2] → x[2k]`), then the update step
/// `s[k] = x[2k] + floor((d[k−1] + d[k] + 2) / 4)` (`d[−1] → d[0]`).
///
/// # Panics
///
/// Panics unless `x` holds an even number ≥ 2 of `lanes`-wide rows and the
/// outputs hold half as many.
pub fn legall53_fwd_lanes(x: &[Coeff], lanes: usize, low: &mut [Coeff], high: &mut [Coeff]) {
    assert!(lanes > 0 && x.len().is_multiple_of(lanes), "plane shape");
    let n = x.len() / lanes;
    assert!(n >= 2 && n.is_multiple_of(2), "need an even length >= 2");
    let half = n / 2;
    assert!(
        low.len() >= half * lanes && high.len() >= half * lanes,
        "outputs too short"
    );
    for k in 0..half {
        let (left, odd) = (row(x, lanes, 2 * k), row(x, lanes, 2 * k + 1));
        let right = row(x, lanes, if 2 * k + 2 < n { 2 * k + 2 } else { 2 * k });
        let d = &mut high[k * lanes..(k + 1) * lanes];
        for (((d, &a), &o), &b) in d.iter_mut().zip(left).zip(odd).zip(right) {
            *d = (i32::from(o) - ((i32::from(a) + i32::from(b)) >> 1)) as Coeff;
        }
    }
    for k in 0..half {
        let even = row(x, lanes, 2 * k);
        let (dm1, d) = (row(high, lanes, k.saturating_sub(1)), row(high, lanes, k));
        let s = &mut low[k * lanes..(k + 1) * lanes];
        for (((s, &e), &p), &q) in s.iter_mut().zip(even).zip(dm1).zip(d) {
            *s = (i32::from(e) + ((i32::from(p) + i32::from(q) + 2) >> 2)) as Coeff;
        }
    }
}

/// Exact inverse of [`legall53_fwd_lanes`] (each signal gets
/// [`crate::legall::legall53_inverse`] for the even split).
///
/// # Panics
///
/// Panics on shape mismatches.
pub fn legall53_inv_lanes(low: &[Coeff], high: &[Coeff], lanes: usize, x: &mut [Coeff]) {
    assert!(lanes > 0 && low.len().is_multiple_of(lanes), "plane shape");
    let half = low.len() / lanes;
    assert!(half >= 1, "need length >= 2");
    assert_eq!(high.len(), low.len(), "sub-band length mismatch");
    assert_eq!(x.len(), 2 * half * lanes, "output length mismatch");
    let n = 2 * half;
    // Undo update: x[2k] = s[k] − floor((d[k−1] + d[k] + 2) / 4).
    for k in 0..half {
        let s = row(low, lanes, k);
        let (dm1, d) = (row(high, lanes, k.saturating_sub(1)), row(high, lanes, k));
        let even = &mut x[2 * k * lanes..(2 * k + 1) * lanes];
        for (((e, &s), &p), &q) in even.iter_mut().zip(s).zip(dm1).zip(d) {
            *e = (i32::from(s) - ((i32::from(p) + i32::from(q) + 2) >> 2)) as Coeff;
        }
    }
    // Undo predict (even samples are final): the last odd sample mirrors
    // x[2k+2] → x[2k].
    for k in 0..half {
        let d = row(high, lanes, k);
        let right_row = if 2 * k + 2 < n { 2 * k + 2 } else { 2 * k };
        let (head, tail) = x.split_at_mut((2 * k + 1) * lanes);
        let left = &head[2 * k * lanes..];
        let (odd, rest) = tail.split_at_mut(lanes);
        let right = if right_row == 2 * k {
            left
        } else {
            &rest[..lanes]
        };
        for (((o, &d), &a), &b) in odd.iter_mut().zip(d).zip(left).zip(right) {
            *o = (i32::from(d) + ((i32::from(a) + i32::from(b)) >> 1)) as Coeff;
        }
    }
}

/// Forward LeGall 5/3 of one signal: the one-lane case of
/// [`legall53_fwd_lanes`] for even lengths; odd lengths delegate to the
/// scalar [`crate::legall::legall53_forward`] (the streaming architecture
/// only ever transforms even window heights).
///
/// # Panics
///
/// Panics if `x.len() < 2` or the outputs are too short.
pub fn legall53_fwd_sliced(x: &[Coeff], low: &mut [Coeff], high: &mut [Coeff]) {
    if !x.len().is_multiple_of(2) {
        crate::legall::legall53_forward(x, low, high);
        return;
    }
    legall53_fwd_lanes(x, 1, low, high);
}

/// Inverse LeGall 5/3 of one signal: the one-lane case of
/// [`legall53_inv_lanes`] for the even split (`low.len() == high.len()`);
/// the odd split delegates to the scalar
/// [`crate::legall::legall53_inverse`].
///
/// # Panics
///
/// Panics on length mismatches.
pub fn legall53_inv_sliced(low: &[Coeff], high: &[Coeff], x: &mut [Coeff]) {
    if low.len() != high.len() {
        crate::legall::legall53_inverse(low, high, x);
        return;
    }
    legall53_inv_lanes(low, high, 1, x);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::haar::haar_fwd_pair;
    use crate::legall::{legall53_forward, legall53_inverse};

    fn xorshift(state: &mut u32) -> u32 {
        *state ^= *state << 13;
        *state ^= *state >> 17;
        *state ^= *state << 5;
        *state
    }

    #[test]
    fn wide_haar_slices_roundtrip_at_prefix_sum_magnitudes() {
        // The wide instance carries integral-image prefix sums (≤ 255·W,
        // 21 bits at W = 2048); the generic lifting must round-trip there
        // and at the i32 extremes under wrapping semantics.
        let mut s = 0x77aa_00ff_u32;
        for len in [0usize, 1, 2, 3, 5, 8, 17, 64] {
            let mut x0: Vec<i32> = (0..len)
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 17;
                    s ^= s << 5;
                    (s % 522_240) as i32
                })
                .collect();
            let x1: Vec<i32> = (0..len)
                .map(|_| {
                    s ^= s << 13;
                    s ^= s >> 17;
                    s ^= s << 5;
                    (s % 522_240) as i32
                })
                .collect();
            if len > 2 {
                x0[0] = i32::MIN;
                x0[1] = i32::MAX;
            }
            let mut low = vec![0i32; len];
            let mut high = vec![0i32; len];
            haar_fwd_slices_of::<i32>(&x0, &x1, &mut low, &mut high);
            for k in 0..len {
                let h = x0[k].wrapping_sub(x1[k]);
                let l = x1[k].wrapping_add(h >> 1);
                assert_eq!((low[k], high[k]), (l, h), "fwd k={k}");
            }
            let mut r0 = vec![0i32; len];
            let mut r1 = vec![0i32; len];
            haar_inv_slices_of::<i32>(&low, &high, &mut r0, &mut r1);
            assert_eq!(r0, x0, "inverse x0");
            assert_eq!(r1, x1, "inverse x1");
        }
    }

    #[test]
    fn slice_add_matches_scalar_for_both_widths() {
        fn check<S: crate::sample::Sample>(vals: &[i64]) {
            let a: Vec<S> = vals.iter().map(|&v| S::from_raw(v as u64)).collect();
            let b: Vec<S> = vals.iter().rev().map(|&v| S::from_raw(v as u64)).collect();
            let mut sum = vec![S::ZERO; a.len()];
            add_slices_of::<S>(&a, &b, &mut sum);
            for k in 0..a.len() {
                assert_eq!(sum[k], a[k].wrapping_add(b[k]), "add k={k}");
            }
        }
        let vals: Vec<i64> = (0..23)
            .map(|i| (i * 0x9e37_79b9_7f4a) ^ (i << 40))
            .collect();
        check::<i16>(&vals);
        check::<i32>(&vals);
    }

    #[test]
    fn haar_slices_match_scalar_pairs_including_extremes() {
        let mut s = 0xabcd_ef01_u32;
        for len in [0usize, 1, 3, 4, 5, 8, 13, 32] {
            let mut x0: Vec<Coeff> = (0..len).map(|_| xorshift(&mut s) as u16 as Coeff).collect();
            let x1: Vec<Coeff> = (0..len).map(|_| xorshift(&mut s) as u16 as Coeff).collect();
            if len > 2 {
                x0[0] = Coeff::MIN;
                x0[1] = Coeff::MAX;
            }
            let mut low = vec![0; len];
            let mut high = vec![0; len];
            haar_fwd_slices(&x0, &x1, &mut low, &mut high);
            for k in 0..len {
                let h = x0[k].wrapping_sub(x1[k]);
                let l = x1[k].wrapping_add(h >> 1);
                assert_eq!((low[k], high[k]), (l, h), "fwd k={k}");
            }
            let mut r0 = vec![0; len];
            let mut r1 = vec![0; len];
            haar_inv_slices(&low, &high, &mut r0, &mut r1);
            assert_eq!(r0, x0, "inverse x0");
            assert_eq!(r1, x1, "inverse x1");
        }
    }

    #[test]
    fn interleaved_forms_match_pair_walk() {
        let mut s = 0x0bad_cafe_u32;
        for n in [2usize, 4, 6, 8, 10, 16, 64] {
            let col: Vec<Coeff> = (0..n).map(|_| (xorshift(&mut s) % 256) as Coeff).collect();
            let half = n / 2;
            let mut low = vec![0; half];
            let mut high = vec![0; half];
            haar_fwd_interleaved(&col, &mut low, &mut high);
            for k in 0..half {
                assert_eq!(
                    (low[k], high[k]),
                    haar_fwd_pair(col[2 * k], col[2 * k + 1]),
                    "k={k}"
                );
            }
            let mut back = vec![0; n];
            haar_inv_interleaved(&low, &high, &mut back);
            assert_eq!(back, col);
        }
    }

    #[test]
    fn legall_sliced_matches_scalar_on_all_lengths() {
        let mut s = 0x5eed_1337_u32;
        for len in [2usize, 3, 4, 5, 7, 8, 9, 10, 16, 33, 64, 127, 128] {
            let x: Vec<Coeff> = (0..len).map(|_| xorshift(&mut s) as u16 as Coeff).collect();
            let lo_n = len.div_ceil(2);
            let hi_n = len / 2;
            let mut low_s = vec![0; lo_n];
            let mut high_s = vec![0; hi_n];
            legall53_forward(&x, &mut low_s, &mut high_s);
            let mut low_v = vec![0; lo_n];
            let mut high_v = vec![0; hi_n];
            legall53_fwd_sliced(&x, &mut low_v, &mut high_v);
            assert_eq!(low_v, low_s, "low len={len}");
            assert_eq!(high_v, high_s, "high len={len}");

            let mut out_s = vec![0; len];
            legall53_inverse(&low_s, &high_s, &mut out_s);
            let mut out_v = vec![0; len];
            legall53_inv_sliced(&low_v, &high_v, &mut out_v);
            assert_eq!(out_v, out_s, "inverse len={len}");
            assert_eq!(out_v, x, "roundtrip len={len}");
        }
    }

    #[test]
    fn legall_sliced_handles_i16_extremes() {
        for len in [2usize, 8, 16, 18] {
            for pattern in [
                vec![Coeff::MAX; len],
                vec![Coeff::MIN; len],
                (0..len)
                    .map(|i| if i % 2 == 0 { Coeff::MAX } else { Coeff::MIN })
                    .collect::<Vec<_>>(),
            ] {
                let half = len / 2;
                let mut low_s = vec![0; half];
                let mut high_s = vec![0; half];
                legall53_forward(&pattern, &mut low_s, &mut high_s);
                let mut low_v = vec![0; half];
                let mut high_v = vec![0; half];
                legall53_fwd_sliced(&pattern, &mut low_v, &mut high_v);
                assert_eq!((low_v, high_v), (low_s, high_s), "len={len}");
            }
        }
    }

    #[test]
    fn legall_lanes_match_per_signal_transforms() {
        let mut s = 0x1eaf_5eed_u32;
        for (n, lanes) in [(2usize, 1usize), (2, 5), (8, 3), (8, 17), (16, 64)] {
            let x: Vec<Coeff> = (0..n * lanes)
                .map(|_| xorshift(&mut s) as u16 as Coeff)
                .collect();
            let half = n / 2;
            let mut low = vec![0; half * lanes];
            let mut high = vec![0; half * lanes];
            legall53_fwd_lanes(&x, lanes, &mut low, &mut high);
            for j in 0..lanes {
                let sig: Vec<Coeff> = (0..n).map(|i| x[i * lanes + j]).collect();
                let (mut lo, mut hi) = (vec![0; half], vec![0; half]);
                legall53_forward(&sig, &mut lo, &mut hi);
                let lane = |p: &[Coeff]| (0..half).map(|k| p[k * lanes + j]).collect::<Vec<_>>();
                assert_eq!(
                    (lane(&low), lane(&high)),
                    (lo.clone(), hi.clone()),
                    "n={n} lane {j}"
                );
                let mut back = vec![0; n];
                legall53_inverse(&lo, &hi, &mut back);
                assert_eq!(back, sig);
            }
            let mut back = vec![0; n * lanes];
            legall53_inv_lanes(&low, &high, lanes, &mut back);
            assert_eq!(back, x, "n={n} lanes={lanes}");
        }
    }
}
