//! The column codec: the unit of compression the architecture performs every
//! clock cycle (paper Section IV-B).
//!
//! A *column* here is one sub-band column of the decomposed image — `N/2`
//! coefficients belonging to a single sub-band (the architecture encodes the
//! two sub-bands of a decomposed image column as two such codec columns).
//!
//! The encoded form is
//!
//! * `NBits` — the column's coefficient width (4-bit management field),
//! * `BitMap` — one significance bit per coefficient,
//! * payload — the low `NBits` bits of each significant coefficient,
//!   LSB-first.
//!
//! [`column_cost`] computes the exact storage cost without materializing the
//! encoding; it is the hot path of the memory analyzer that regenerates the
//! paper's Figure 3, Figure 13 and Tables II–V.

use crate::bitmap::Bitmap;
use crate::nbits::{min_bits_of, min_bits_significant_of, min_bits_significant_sliced_of};
use crate::writer::{BitReader, BitWriter};
use crate::{is_significant_of, Coeff, Sample, NBITS_FIELD_BITS};

/// A fully encoded sub-band column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedColumn {
    /// Coefficient width used for every significant coefficient (1..=16).
    pub nbits: u32,
    /// Significance bitmap, one bit per input coefficient.
    pub bitmap: Bitmap,
    /// Packed payload bytes (zero-padded to a whole byte).
    pub payload: Vec<u8>,
    /// Exact number of payload bits (before padding).
    pub payload_bits: u64,
}

impl Default for EncodedColumn {
    /// An empty encoding — the natural starting point for a scratch column
    /// that [`encode_column_into`] will fill in place.
    fn default() -> Self {
        Self {
            nbits: 1,
            bitmap: Bitmap::new(),
            payload: Vec::new(),
            payload_bits: 0,
        }
    }
}

impl EncodedColumn {
    /// Number of coefficients in the column.
    pub fn len(&self) -> usize {
        self.bitmap.len()
    }

    /// Whether the column is empty.
    pub fn is_empty(&self) -> bool {
        self.bitmap.is_empty()
    }

    /// Total cost in bits: payload + BitMap + NBits field.
    pub fn total_bits(&self) -> u64 {
        self.total_bits_for(NBITS_FIELD_BITS)
    }

    /// Total cost in bits under an explicit NBits field width — the wide
    /// datapath carries [`Sample::NBITS_FIELD_BITS`] = 5-bit fields.
    pub fn total_bits_for(&self, nbits_field_bits: u32) -> u64 {
        self.payload_bits + self.bitmap.len() as u64 + u64::from(nbits_field_bits)
    }
}

/// Exact storage cost of a column without encoding it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ColumnCost {
    /// Payload bits (`significant × nbits`).
    pub payload_bits: u64,
    /// BitMap management bits (one per coefficient).
    pub bitmap_bits: u64,
    /// NBits management bits (one 4-bit field).
    pub nbits_bits: u64,
    /// Number of significant coefficients.
    pub significant: usize,
    /// The column width the NBits block would report.
    pub nbits: u32,
}

impl ColumnCost {
    /// Payload + management.
    #[inline]
    pub fn total_bits(&self) -> u64 {
        self.payload_bits + self.bitmap_bits + self.nbits_bits
    }

    /// Accumulate another column's cost (for per-sub-band totals).
    pub fn accumulate(&mut self, other: &ColumnCost) {
        self.payload_bits += other.payload_bits;
        self.bitmap_bits += other.bitmap_bits;
        self.nbits_bits += other.nbits_bits;
        self.significant += other.significant;
        self.nbits = self.nbits.max(other.nbits);
    }
}

/// Compute the storage cost of one sub-band column under threshold `T`.
///
/// This is allocation-free and is what the sweep benchmarks call millions of
/// times.
pub fn column_cost(coeffs: &[Coeff], threshold: Coeff) -> ColumnCost {
    column_cost_of(coeffs, threshold)
}

/// Width-generic twin of [`column_cost`]; the NBits management field costs
/// [`Sample::NBITS_FIELD_BITS`] bits (4 for i16, 5 for the wide instance).
pub fn column_cost_of<S: Sample>(coeffs: &[S], threshold: S) -> ColumnCost {
    let mut significant = 0usize;
    let mut nbits = 1u32;
    for &c in coeffs {
        if is_significant_of(c, threshold) {
            significant += 1;
            nbits = nbits.max(min_bits_of(c));
        }
    }
    ColumnCost {
        payload_bits: significant as u64 * nbits as u64,
        bitmap_bits: coeffs.len() as u64,
        nbits_bits: u64::from(S::NBITS_FIELD_BITS),
        significant,
        nbits,
    }
}

/// Encode one sub-band column.
///
/// ```
/// use sw_bitstream::{encode_column, decode_column};
/// // The paper's Figure 2 HL column: width 5, all significant.
/// let enc = encode_column(&[13, 12, -9, 7], 0);
/// assert_eq!((enc.nbits, enc.payload_bits), (5, 20));
/// assert_eq!(decode_column(&enc), vec![13, 12, -9, 7]);
/// ```
pub fn encode_column(coeffs: &[Coeff], threshold: Coeff) -> EncodedColumn {
    encode_column_of(coeffs, threshold)
}

/// Width-generic twin of [`encode_column`].
pub fn encode_column_of<S: Sample>(coeffs: &[S], threshold: S) -> EncodedColumn {
    let nbits = min_bits_significant_of(coeffs, threshold);
    let mut bitmap = Bitmap::new();
    let mut w = BitWriter::new();
    for &c in coeffs {
        let sig = is_significant_of(c, threshold);
        bitmap.push(sig);
        if sig {
            w.write_signed_of(c, nbits);
        }
    }
    let payload_bits = w.bit_len();
    EncodedColumn {
        nbits,
        bitmap,
        payload: w.into_bytes(),
        payload_bits,
    }
}

/// Scalar twin of [`encode_column`] that reuses `out`'s buffers instead of
/// allocating — the zero-copy arena building block. Produces a bit-identical
/// [`EncodedColumn`].
pub fn encode_column_into(coeffs: &[Coeff], threshold: Coeff, out: &mut EncodedColumn) {
    encode_column_into_of(coeffs, threshold, out)
}

/// Width-generic twin of [`encode_column_into`].
pub fn encode_column_into_of<S: Sample>(coeffs: &[S], threshold: S, out: &mut EncodedColumn) {
    let nbits = min_bits_significant_of(coeffs, threshold);
    out.bitmap.clear();
    out.payload.clear();
    // Inline BitWriter: LSB-first staging, whole bytes flushed, partial byte
    // zero-padded at the end — byte-identical to the reference writer. The
    // accumulator holds at most 7 + nbits <= 39 bits, so u64 always fits.
    let mut acc: u64 = 0;
    let mut acc_bits: u32 = 0;
    let mut payload_bits: u64 = 0;
    let mask = (1u64 << nbits) - 1;
    for &c in coeffs {
        let sig = is_significant_of(c, threshold);
        out.bitmap.push(sig);
        if sig {
            debug_assert!(min_bits_of(c) <= nbits);
            acc |= (c.to_raw() & mask) << acc_bits;
            acc_bits += nbits;
            payload_bits += u64::from(nbits);
            while acc_bits >= 8 {
                out.payload.push((acc & 0xff) as u8);
                acc >>= 8;
                acc_bits -= 8;
            }
        }
    }
    if acc_bits > 0 {
        out.payload.push(acc as u8);
    }
    out.nbits = nbits;
    out.payload_bits = payload_bits;
}

/// Hot-path twin of [`encode_column`]: the NBits width comes from the
/// OR-fold scan ([`crate::nbits::min_bits_significant_sliced`]) and the
/// payload is packed through a 64-bit concatenation register flushed
/// four bytes at a time, instead of one coefficient and one byte per
/// step. Reuses `out`'s buffers and produces a bit-identical
/// [`EncodedColumn`] (pinned by tests and the `HotPathEquivalence`
/// conformance oracle).
pub fn encode_column_sliced_into(coeffs: &[Coeff], threshold: Coeff, out: &mut EncodedColumn) {
    encode_column_sliced_into_of(coeffs, threshold, out)
}

/// Width-generic twin of [`encode_column_sliced_into`].
pub fn encode_column_sliced_into_of<S: Sample>(
    coeffs: &[S],
    threshold: S,
    out: &mut EncodedColumn,
) {
    let nbits = min_bits_significant_sliced_of(coeffs, threshold);
    pack_column_into_of(coeffs.iter().copied(), threshold, nbits, out);
}

/// Pack a column whose NBits width is already known — the packing half
/// of [`encode_column_sliced_into_of`], for callers that computed the
/// widths of many columns at once
/// ([`crate::nbits::min_bits_significant_columns_of`]). `nbits` must be
/// the column's [`min_bits_significant_sliced_of`] width.
pub fn pack_column_into_of<S: Sample>(
    coeffs: impl IntoIterator<Item = S>,
    threshold: S,
    nbits: u32,
    out: &mut EncodedColumn,
) {
    out.bitmap.clear();
    out.payload.clear();
    debug_assert!((1..=S::BITS).contains(&nbits));
    let mask = u64::MAX >> (64 - nbits);
    // LSB-first concatenation register: flushed four bytes at a time, so
    // it always has room for one more width of at most 32 bits.
    let mut acc: u64 = 0;
    let mut bits: u32 = 0;
    let mut payload_bits: u64 = 0;
    // Significance bits gather into a word and land in the bitmap 64 at a
    // time.
    let mut sig_word: u64 = 0;
    let mut sig_bits: u32 = 0;
    for c in coeffs {
        let sig = is_significant_of(c, threshold);
        sig_word |= u64::from(sig) << sig_bits;
        sig_bits += 1;
        if sig_bits == 64 {
            out.bitmap.push_bits(sig_word, 64);
            sig_word = 0;
            sig_bits = 0;
        }
        if sig {
            debug_assert!(min_bits_of(c) <= nbits);
            if bits > 32 {
                out.payload.extend_from_slice(&(acc as u32).to_le_bytes());
                acc >>= 32;
                bits -= 32;
            }
            acc |= (c.to_raw() & mask) << bits;
            bits += nbits;
            payload_bits += u64::from(nbits);
        }
    }
    out.bitmap.push_bits(sig_word, sig_bits);
    // The partial word, zero-padded to whole bytes.
    out.payload.extend(
        acc.to_le_bytes()
            .into_iter()
            .take(bits.div_ceil(8) as usize),
    );
    out.nbits = nbits;
    out.payload_bits = payload_bits;
}

/// Decode an encoded column back to coefficients (insignificant ⇒ 0).
///
/// # Panics
///
/// Panics if the encoding fails a consistency guard; use
/// [`decode_column_checked`] to handle corruption as an error.
pub fn decode_column(enc: &EncodedColumn) -> Vec<Coeff> {
    match decode_column_checked(enc) {
        Ok(v) => v,
        Err(e) => panic!("{e}"),
    }
}

/// Decode with consistency guards: the NBits field must be in range and
/// the payload length must equal `significant × NBits`. A corrupted
/// management word (bit-flipped NBits or BitMap) trips a guard and
/// returns `Err` instead of silently mis-reconstructing or panicking.
pub fn decode_column_checked(enc: &EncodedColumn) -> Result<Vec<Coeff>, String> {
    let mut out = Vec::new();
    decode_column_checked_into(enc, &mut out)?;
    Ok(out)
}

/// The consistency guards shared by every decode variant, so the scalar and
/// bit-sliced paths reject corruption with identical error strings. The NBits
/// range is the sample width: `1..=16` on the i16 datapath, `1..=32` wide.
fn validate_encoded_of<S: Sample>(enc: &EncodedColumn) -> Result<(), String> {
    let ones = enc.bitmap.count_ones() as u64;
    if ones > 0 && !(1..=S::BITS).contains(&enc.nbits) {
        return Err(format!("NBits field {} outside 1..={}", enc.nbits, S::BITS));
    }
    let expect_bits = if ones > 0 {
        ones * u64::from(enc.nbits)
    } else {
        0
    };
    if enc.payload_bits != expect_bits {
        return Err(format!(
            "payload of {} bits inconsistent with {} significant coefficients × NBits {}",
            enc.payload_bits, ones, enc.nbits
        ));
    }
    if (enc.payload.len() as u64) * 8 < enc.payload_bits {
        return Err(format!(
            "payload bytes hold {} bits but {} are declared",
            enc.payload.len() * 8,
            enc.payload_bits
        ));
    }
    Ok(())
}

/// Scalar twin of [`decode_column_checked`] that reuses `out` instead of
/// allocating a fresh coefficient vector per column.
pub fn decode_column_checked_into(enc: &EncodedColumn, out: &mut Vec<Coeff>) -> Result<(), String> {
    decode_column_checked_into_of(enc, out)
}

/// Width-generic twin of [`decode_column_checked_into`].
pub fn decode_column_checked_into_of<S: Sample>(
    enc: &EncodedColumn,
    out: &mut Vec<S>,
) -> Result<(), String> {
    validate_encoded_of::<S>(enc)?;
    out.clear();
    out.reserve(enc.bitmap.len());
    let mut r = BitReader::new(&enc.payload);
    for sig in enc.bitmap.iter() {
        if sig {
            out.push(
                r.read_signed_of(enc.nbits)
                    .ok_or_else(|| "truncated column payload".to_string())?,
            );
        } else {
            out.push(S::ZERO);
        }
    }
    Ok(())
}

/// Hot-path twin of [`decode_column_checked_into`]: walks the bitmap a
/// 64-bit word at a time (all-zero words reconstruct 64 coefficients in one
/// step) and extracts payload bits through a 64-bit remainder window instead
/// of one `BitReader` call per coefficient. Same guards, same error strings,
/// identical output (pinned by tests and the `HotPathEquivalence` oracle).
pub fn decode_column_sliced_into(enc: &EncodedColumn, out: &mut Vec<Coeff>) -> Result<(), String> {
    decode_column_sliced_into_of(enc, out)
}

/// Width-generic twin of [`decode_column_sliced_into`].
pub fn decode_column_sliced_into_of<S: Sample>(
    enc: &EncodedColumn,
    out: &mut Vec<S>,
) -> Result<(), String> {
    out.resize(enc.bitmap.len(), S::ZERO);
    decode_column_strided_into_of(enc, out, 1)
}

/// [`decode_column_sliced_into_of`] into a strided destination:
/// coefficient `i` lands in `out[i * stride]` — one column of a row-major
/// plane whose rows are `stride` lanes wide. Same guards and error
/// strings, plus a shape guard: the column must fit `out`.
pub fn decode_column_strided_into_of<S: Sample>(
    enc: &EncodedColumn,
    out: &mut [S],
    stride: usize,
) -> Result<(), String> {
    validate_encoded_of::<S>(enc)?;
    let n = enc.bitmap.len();
    if n > 0 && (n - 1) * stride >= out.len() {
        return Err(format!(
            "column of {n} coefficients does not fit its {}-row plane",
            out.len().div_ceil(stride.max(1))
        ));
    }
    for i in 0..n {
        out[i * stride] = S::ZERO;
    }
    unpack_significant(enc, |i, v| out[i * stride] = v)
}

/// Extract every significant coefficient of a validated column, in order,
/// as `(index, value)`: the bitmap a 64-bit word at a time, the payload
/// through a 64-bit remainder window.
fn unpack_significant<S: Sample>(
    enc: &EncodedColumn,
    mut put: impl FnMut(usize, S),
) -> Result<(), String> {
    let n = enc.bitmap.len();
    let nbits = enc.nbits.clamp(1, 64);
    // `u64::MAX >> (64 − nbits)`, not `(1 << nbits) − 1`: the wide instance
    // reaches nbits = 32 and the shift form must not overflow at the top.
    let mask = u64::MAX >> (64 - nbits);
    let sign = 1u64 << (nbits - 1);
    let extend = |raw: u64| S::from_raw((raw ^ sign).wrapping_sub(sign));
    let payload = &enc.payload;
    // The window starts with the payload's first eight bytes — the whole
    // payload of a short column — and refills a byte at a time.
    let mut byte_pos = payload.len().min(8);
    let mut window = payload[..byte_pos]
        .iter()
        .rev()
        .fold(0u64, |acc, &byte| acc << 8 | u64::from(byte));
    let mut avail = 8 * byte_pos as u32;
    for (wi, &w) in enc.bitmap.words().iter().enumerate() {
        let bits_in_word = (n - wi * 64).min(64);
        let mut w = w;
        while w != 0 {
            let b = w.trailing_zeros() as usize;
            w &= w - 1;
            if b >= bits_in_word {
                break;
            }
            if avail < nbits {
                while avail <= 56 && byte_pos < payload.len() {
                    window |= u64::from(payload[byte_pos]) << avail;
                    avail += 8;
                    byte_pos += 1;
                }
                if avail < nbits {
                    return Err("truncated column payload".to_string());
                }
            }
            let raw = window & mask;
            window = window.checked_shr(nbits).unwrap_or(0);
            avail -= nbits;
            // Sign extension via the xor-sub identity, equal to
            // `writer::sign_extend` for every (raw, nbits) pair.
            put(wi * 64 + b, extend(raw));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apply_threshold;

    #[test]
    fn paper_figure2_hl_first_column() {
        // (13, 12, -9, 7): NBits = 5, all significant, payload 20 bits,
        // BitMap "1111".
        let enc = encode_column(&[13, 12, -9, 7], 0);
        assert_eq!(enc.nbits, 5);
        assert_eq!(enc.payload_bits, 20);
        assert_eq!(enc.bitmap.to_bit_string(), "1111");
        assert_eq!(decode_column(&enc), vec![13, 12, -9, 7]);
        assert_eq!(enc.total_bits(), 20 + 4 + 4);
    }

    #[test]
    fn paper_figure2_last_column_with_zeros() {
        // BitMap 0011: first two zero, zeros cost no payload.
        let enc = encode_column(&[0, 0, 5, -6], 0);
        assert_eq!(enc.bitmap.to_bit_string(), "0011");
        assert_eq!(enc.nbits, 4);
        assert_eq!(enc.payload_bits, 8);
        assert_eq!(decode_column(&enc), vec![0, 0, 5, -6]);
    }

    #[test]
    fn all_zero_column_costs_only_management() {
        let enc = encode_column(&[0; 32], 0);
        assert_eq!(enc.payload_bits, 0);
        assert!(enc.payload.is_empty());
        assert_eq!(enc.total_bits(), 32 + 4);
        assert_eq!(decode_column(&enc), vec![0; 32]);
    }

    #[test]
    fn lossy_decode_matches_thresholded_input() {
        let coeffs: Vec<Coeff> = vec![9, -3, 2, 0, -11, 5, -5, 1];
        for t in [0, 2, 4, 6, 100] {
            let enc = encode_column(&coeffs, t);
            let expect: Vec<Coeff> = coeffs.iter().map(|&c| apply_threshold(c, t)).collect();
            assert_eq!(decode_column(&enc), expect, "threshold {t}");
        }
    }

    #[test]
    fn cost_matches_encoding_exactly() {
        let coeffs: Vec<Coeff> = vec![0, 1, -1, 127, -128, 255, -255, 0, 33, -17];
        for t in [0, 2, 4, 6, 30] {
            let cost = column_cost(&coeffs, t);
            let enc = encode_column(&coeffs, t);
            assert_eq!(cost.payload_bits, enc.payload_bits, "T={t}");
            assert_eq!(cost.nbits, enc.nbits, "T={t}");
            assert_eq!(cost.bitmap_bits, enc.bitmap.len() as u64);
            assert_eq!(
                cost.total_bits(),
                enc.total_bits(),
                "T={t}: cost function must equal real encoding"
            );
        }
    }

    #[test]
    fn higher_threshold_never_costs_more() {
        let coeffs: Vec<Coeff> = (0..64).map(|i| ((i * 37) % 23 - 11) as Coeff).collect();
        let mut prev = u64::MAX;
        for t in [0, 1, 2, 4, 6, 8, 16] {
            let bits = column_cost(&coeffs, t).total_bits();
            assert!(bits <= prev, "cost must be monotone in T");
            prev = bits;
        }
    }

    #[test]
    fn accumulate_sums_and_maxes() {
        let a = column_cost(&[1, 2, 3], 0);
        let b = column_cost(&[100, 0], 0);
        let mut acc = a;
        acc.accumulate(&b);
        assert_eq!(acc.payload_bits, a.payload_bits + b.payload_bits);
        assert_eq!(acc.significant, 4);
        assert_eq!(acc.nbits, 8); // 100 needs 8 bits
    }

    #[test]
    fn wide_coefficients_supported() {
        let enc = encode_column(&[-510, 510], 0);
        assert_eq!(enc.nbits, 10);
        assert_eq!(decode_column(&enc), vec![-510, 510]);
    }

    /// Deterministic pseudo-random columns spanning lengths (odd, short,
    /// multi-word bitmaps) and thresholds for the hot-path battery below.
    fn battery() -> Vec<(Vec<Coeff>, Coeff)> {
        let mut state = 0xdead_beef_u32;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        let mut cases = Vec::new();
        for len in [0usize, 1, 2, 3, 4, 7, 8, 31, 64, 65, 130] {
            for t in [0 as Coeff, 1, 2, 5, 300] {
                let col: Vec<Coeff> = (0..len)
                    .map(|_| {
                        // Mostly codec-domain magnitudes with occasional wide
                        // values; avoid i16::MIN (debug-panics in the scalar
                        // significance filter by design).
                        let v = (next() % 1021) as Coeff - 510;
                        if next() % 7 == 0 {
                            0
                        } else {
                            v
                        }
                    })
                    .collect();
                cases.push((col, t));
            }
        }
        cases.push((vec![Coeff::MAX, Coeff::MIN + 1, -1, 0, 1], 0));
        cases
    }

    #[test]
    fn into_variants_match_allocating_encoders_bit_for_bit() {
        // One shared scratch across every case: stale state from a longer
        // previous column must never leak into a shorter one.
        let mut scratch = EncodedColumn::default();
        let mut sliced = EncodedColumn::default();
        for (col, t) in battery() {
            let reference = encode_column(&col, t);
            encode_column_into(&col, t, &mut scratch);
            assert_eq!(scratch, reference, "scalar-into col={col:?} t={t}");
            encode_column_sliced_into(&col, t, &mut sliced);
            assert_eq!(sliced, reference, "sliced-into col={col:?} t={t}");
        }
    }

    #[test]
    fn sliced_decode_matches_scalar_bit_for_bit() {
        let mut scalar_out = vec![99 as Coeff; 3];
        let mut sliced_out = vec![-42 as Coeff; 500];
        for (col, t) in battery() {
            let enc = encode_column(&col, t);
            decode_column_checked_into(&enc, &mut scalar_out).expect("scalar decode");
            decode_column_sliced_into(&enc, &mut sliced_out).expect("sliced decode");
            assert_eq!(scalar_out, sliced_out, "col={col:?} t={t}");
            assert_eq!(scalar_out, decode_column(&enc));
        }
    }

    #[test]
    fn sliced_decode_rejects_corruption_with_identical_errors() {
        let mut enc = encode_column(&[13, 12, -9, 7], 0);
        enc.nbits = 17; // corrupt the management field
        let mut a = Vec::new();
        let mut b = Vec::new();
        let ea = decode_column_checked_into(&enc, &mut a).unwrap_err();
        let eb = decode_column_sliced_into(&enc, &mut b).unwrap_err();
        assert_eq!(ea, eb);

        let mut enc = encode_column(&[13, 12, -9, 7], 0);
        enc.payload_bits += 1; // inconsistent payload length
        let ea = decode_column_checked_into(&enc, &mut a).unwrap_err();
        let eb = decode_column_sliced_into(&enc, &mut b).unwrap_err();
        assert_eq!(ea, eb);

        let mut enc = encode_column(&[13, 12, -9, 7], 0);
        enc.payload.pop(); // truncated byte stream
        let ea = decode_column_checked_into(&enc, &mut a).unwrap_err();
        let eb = decode_column_sliced_into(&enc, &mut b).unwrap_err();
        assert_eq!(ea, eb);
    }

    /// Deterministic wide-instance columns: prefix-sum ramps (the integral
    /// workload), 32-bit extremes, and mixed sparse content.
    fn wide_battery() -> Vec<(Vec<i32>, i32)> {
        let mut state = 0xfeed_face_u32;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state
        };
        let mut cases = Vec::new();
        for len in [0usize, 1, 2, 3, 5, 8, 64, 65, 130] {
            for t in [0i32, 1, 2, 1 << 16, 1 << 28] {
                let mut acc = 0i64;
                let col: Vec<i32> = (0..len)
                    .map(|_| {
                        acc += i64::from(next() % 522_240);
                        let v = (acc % i64::from(i32::MAX)) as i32;
                        if next() % 5 == 0 {
                            0
                        } else if next() % 7 == 0 {
                            -v
                        } else {
                            v
                        }
                    })
                    .collect();
                cases.push((col, t));
            }
        }
        cases.push((vec![i32::MAX, i32::MIN + 1, -1, 0, 1], 0));
        cases
    }

    #[test]
    fn wide_roundtrip_matches_across_all_variants() {
        // Encode (allocating, scalar-into, sliced-into) and decode (scalar,
        // sliced) must agree pairwise at the 32-bit width, and the decode
        // must be the thresholded input.
        let mut scratch = EncodedColumn::default();
        let mut sliced = EncodedColumn::default();
        let mut scalar_out: Vec<i32> = Vec::new();
        let mut sliced_out: Vec<i32> = Vec::new();
        for (col, t) in wide_battery() {
            let reference = encode_column_of(&col, t);
            encode_column_into_of(&col, t, &mut scratch);
            assert_eq!(scratch, reference, "scalar-into t={t}");
            encode_column_sliced_into_of(&col, t, &mut sliced);
            assert_eq!(sliced, reference, "sliced-into t={t}");
            assert_eq!(
                reference.total_bits_for(5),
                reference.payload_bits + col.len() as u64 + 5
            );

            decode_column_checked_into_of(&reference, &mut scalar_out).expect("scalar decode");
            decode_column_sliced_into_of(&reference, &mut sliced_out).expect("sliced decode");
            assert_eq!(scalar_out, sliced_out, "decode t={t}");
            let expect: Vec<i32> = col
                .iter()
                .map(|&c| crate::apply_threshold_of(c, t))
                .collect();
            assert_eq!(scalar_out, expect, "roundtrip t={t}");
        }
    }

    #[test]
    fn wide_cost_matches_encoding_and_charges_five_bit_fields() {
        for (col, t) in wide_battery() {
            let cost = column_cost_of(&col, t);
            let enc = encode_column_of(&col, t);
            assert_eq!(cost.payload_bits, enc.payload_bits, "t={t}");
            assert_eq!(cost.nbits, enc.nbits, "t={t}");
            assert_eq!(cost.nbits_bits, 5);
            assert_eq!(cost.total_bits(), enc.total_bits_for(5), "t={t}");
        }
    }

    #[test]
    fn wide_validation_window_admits_32_and_rejects_33() {
        let enc = encode_column_of(&[i32::MAX, i32::MIN + 1], 0);
        assert_eq!(enc.nbits, 32);
        let mut out: Vec<i32> = Vec::new();
        decode_column_checked_into_of(&enc, &mut out).expect("nbits = 32 is legal wide");
        assert_eq!(out, vec![i32::MAX, i32::MIN + 1]);

        // The same encoding is corrupt on the narrow datapath…
        let mut narrow: Vec<Coeff> = Vec::new();
        let err = decode_column_checked_into(&enc, &mut narrow).unwrap_err();
        assert_eq!(err, "NBits field 32 outside 1..=16");

        // …and nbits = 33 is corrupt on both, with matching sliced errors.
        let mut bad = enc.clone();
        bad.nbits = 33;
        bad.payload_bits = 2 * 33;
        let ea = decode_column_checked_into_of::<i32>(&bad, &mut out).unwrap_err();
        let eb = decode_column_sliced_into_of::<i32>(&bad, &mut out).unwrap_err();
        assert_eq!(ea, "NBits field 33 outside 1..=32");
        assert_eq!(ea, eb);
    }

    #[test]
    fn scratch_reuse_performs_no_reallocation_once_warm() {
        let cols: Vec<Vec<Coeff>> = (0..16)
            .map(|i| {
                (0..32)
                    .map(|k| ((i * 37 + k * 11) % 400 - 200) as Coeff)
                    .collect()
            })
            .collect();
        let mut scratch = EncodedColumn::default();
        let mut decoded = Vec::new();
        // Warm-up pass establishes the high-water capacities.
        for col in &cols {
            encode_column_sliced_into(col, 0, &mut scratch);
            decode_column_sliced_into(&scratch, &mut decoded).expect("decode");
        }
        let payload_cap = scratch.payload.capacity();
        let decoded_cap = decoded.capacity();
        for col in &cols {
            encode_column_sliced_into(col, 0, &mut scratch);
            decode_column_sliced_into(&scratch, &mut decoded).expect("decode");
        }
        assert_eq!(scratch.payload.capacity(), payload_cap, "payload realloc");
        assert_eq!(decoded.capacity(), decoded_cap, "decode buffer realloc");
    }
}
