//! Register-level model of the paper's **Bit Packing** unit (Figure 6).
//!
//! The hardware block owns three registers:
//!
//! * `CBits` — a 4-bit counter of valid bits staged in the concatenation
//!   register,
//! * `Yout_Current` — the concatenation register collecting compressed bits,
//! * `Yout_Reg` — the output register, loaded (with `WEN = 1`) whenever the
//!   staged bit count reaches `BitMax` (8 in the paper).
//!
//! plus a threshold comparator producing the BitMap bit and an adder updating
//! `CBits`. One block processes one coefficient per clock.
//!
//! The paper instantiates one block per window row; this model is the single
//! block. The architecture in `sw-core` serializes each decomposed column's
//! coefficients through a packer — functionally identical storage cost and
//! byte-exact against the [`crate::writer::BitWriter`] reference (see tests).

use crate::nbits::{min_bits, min_bits_significant};
use crate::{is_significant, Coeff};

/// Words emitted by one packer clock (0, 1, or 2 full words).
///
/// With the paper's 8-bit coefficients at most one word per clock is
/// produced; the generalized 16-bit datapath can complete two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WordBurst {
    buf: [u8; 2],
    len: u8,
}

impl WordBurst {
    fn push(&mut self, w: u8) {
        assert!(self.len < 2, "at most two words per clock");
        self.buf[self.len as usize] = w;
        self.len += 1;
    }

    /// Number of words in the burst.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the burst is empty (no `WEN` this clock).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The words, oldest first.
    #[inline]
    pub fn words(&self) -> &[u8] {
        &self.buf[..self.len as usize]
    }
}

impl IntoIterator for WordBurst {
    type Item = u8;
    type IntoIter = std::iter::Take<std::array::IntoIter<u8, 2>>;
    fn into_iter(self) -> Self::IntoIter {
        self.buf.into_iter().take(self.len as usize)
    }
}

/// Result of one packer clock cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackOutput {
    /// The BitMap bit for this coefficient (1 = packed / significant).
    pub bitmap_bit: bool,
    /// Full output words completed this clock (`WEN` pulses).
    pub words: WordBurst,
}

/// The Bit Packing unit.
#[derive(Debug, Clone)]
pub struct BitPackingUnit {
    threshold: Coeff,
    word_bits: u32,
    /// `Yout_Current` (+ headroom): staged bits, LSB-first.
    acc: u64,
    /// `CBits`: number of valid bits in `acc`.
    cbits: u32,
    /// Total payload bits accepted (significant coefficients × their widths).
    payload_bits: u64,
}

impl BitPackingUnit {
    /// New packer with the paper's `BitMax = 8` output word.
    pub fn new(threshold: Coeff) -> Self {
        Self::with_word_bits(threshold, 8)
    }

    /// New packer with a custom output word width (8 or 16).
    pub fn with_word_bits(threshold: Coeff, word_bits: u32) -> Self {
        assert!(
            word_bits == 8 || word_bits == 16,
            "word width must be 8 or 16"
        );
        Self {
            threshold,
            word_bits,
            acc: 0,
            cbits: 0,
            payload_bits: 0,
        }
    }

    /// The configured threshold `T`.
    #[inline]
    pub fn threshold(&self) -> Coeff {
        self.threshold
    }

    /// Bits currently staged in `Yout_Current` (the `CBits` register).
    #[inline]
    pub fn staged_bits(&self) -> u32 {
        self.cbits
    }

    /// Total payload bits accepted since construction/reset.
    #[inline]
    pub fn payload_bits(&self) -> u64 {
        self.payload_bits
    }

    /// One clock cycle: present coefficient `xin` with the column width
    /// `nbits` (from the NBits block).
    ///
    /// Insignificant coefficients contribute only their BitMap 0 bit; the
    /// concatenation registers are untouched, exactly as in the hardware
    /// (the `WEN` path is gated by the threshold comparator).
    ///
    /// # Panics
    ///
    /// Panics (debug) if a significant `xin` does not fit in `nbits` bits —
    /// the NBits block guarantees it does.
    pub fn clock(&mut self, xin: Coeff, nbits: u32) -> PackOutput {
        assert!((1..=16).contains(&nbits), "NBits out of range");
        let significant = is_significant(xin, self.threshold);
        let mut words = WordBurst::default();
        if significant {
            debug_assert!(
                min_bits(xin) <= nbits,
                "coefficient {xin} wider than NBits {nbits}"
            );
            let mask = (1u64 << nbits) - 1;
            self.acc |= ((xin as u16 as u64) & mask) << self.cbits;
            self.cbits += nbits;
            self.payload_bits += nbits as u64;
            while self.cbits >= self.word_bits {
                words.push((self.acc & ((1 << self.word_bits) - 1)) as u8);
                self.acc >>= self.word_bits;
                self.cbits -= self.word_bits;
            }
        }
        PackOutput {
            bitmap_bit: significant,
            words,
        }
    }

    /// Drain the staged bits exactly (no padding): returns `(bits, count)`
    /// with the oldest staged bit in bit 0, and clears the concatenation
    /// registers. This is the *bypass path*: when the downstream unpacker
    /// starves on a sparsely-coded stretch, the hardware must forward the
    /// partial word (the paper's Figure 8 multiplexer "selects bits from
    /// Yout_rem and/or Xin" — i.e. the read side can see not-yet-written
    /// bits). Draining keeps the bit stream contiguous, unlike
    /// [`flush`](Self::flush) which zero-pads.
    pub fn drain_staged(&mut self) -> (u32, u32) {
        let bits = (self.acc & 0xffff_ffff) as u32;
        let count = self.cbits;
        debug_assert!(count < self.word_bits, "full words must go through WEN");
        self.acc = 0;
        self.cbits = 0;
        (bits, count)
    }

    /// Flush the partial word (zero-padded) at end of stream, if any.
    pub fn flush(&mut self) -> Option<u8> {
        if self.cbits == 0 {
            return None;
        }
        let w = (self.acc & ((1 << self.word_bits) - 1)) as u8;
        self.acc = 0;
        self.cbits = 0;
        Some(w)
    }

    /// Reset all registers (frame boundary).
    pub fn reset(&mut self) {
        self.acc = 0;
        self.cbits = 0;
        self.payload_bits = 0;
    }
}

/// Drive a coefficient sequence through the packer, one column at a time
/// (each column supplies its own NBits), collecting the byte stream and the
/// BitMap into caller-provided scratch buffers.
///
/// The buffers are cleared, not reallocated: across frames of the same
/// geometry a warm pair of buffers is reused with zero heap traffic (pinned
/// by the capacity-watermark test below).
pub fn pack_columns(
    columns: &[Vec<Coeff>],
    threshold: Coeff,
    bytes: &mut Vec<u8>,
    bitmap: &mut Vec<bool>,
) {
    bytes.clear();
    bitmap.clear();
    let mut packer = BitPackingUnit::new(threshold);
    for col in columns {
        let nbits = min_bits_significant(col, threshold);
        for &c in col {
            let out = packer.clock(c, nbits);
            bitmap.push(out.bitmap_bit);
            bytes.extend(out.words);
        }
    }
    if let Some(w) = packer.flush() {
        bytes.push(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::BitWriter;

    /// Allocating convenience wrapper over the scratch-buffer API.
    fn pack_columns(columns: &[Vec<Coeff>], threshold: Coeff) -> (Vec<u8>, Vec<bool>) {
        let mut bytes = Vec::new();
        let mut bitmap = Vec::new();
        super::pack_columns(columns, threshold, &mut bytes, &mut bitmap);
        (bytes, bitmap)
    }

    /// Reference byte stream via BitWriter.
    fn reference_bytes(columns: &[Vec<Coeff>], threshold: Coeff) -> Vec<u8> {
        let mut w = BitWriter::new();
        for col in columns {
            let nbits = min_bits_significant(col, threshold);
            for &c in col {
                if is_significant(c, threshold) {
                    w.write_signed(c, nbits);
                }
            }
        }
        w.into_bytes()
    }

    #[test]
    fn matches_bitwriter_reference_lossless() {
        let columns = vec![
            vec![13, 12, -9, 7],
            vec![0, 0, 3, -3],
            vec![0, 0, 0, 0],
            vec![255, -255, 1, 0],
        ];
        let (hw, bitmap) = pack_columns(&columns, 0);
        assert_eq!(hw, reference_bytes(&columns, 0));
        // Figure 2: first column all significant, bitmap 1111.
        assert_eq!(&bitmap[..4], &[true; 4]);
        // All-zero column: bitmap 0000, no payload contribution.
        assert_eq!(&bitmap[8..12], &[false; 4]);
    }

    #[test]
    fn matches_bitwriter_reference_lossy() {
        let columns = vec![vec![13, 1, -2, 7], vec![5, -5, 4, -4], vec![100, -3, 3, 0]];
        for t in [2, 4, 6] {
            let (hw, _) = pack_columns(&columns, t);
            assert_eq!(hw, reference_bytes(&columns, t), "threshold {t}");
        }
    }

    #[test]
    fn paper_figure2_first_hl_column_payload() {
        // Column (13, 12, -9, 7) at NBits=5 packs 01101, 01100, 10111, 00111
        // LSB-first: total 20 bits.
        let (bytes, bitmap) = pack_columns(&[vec![13, 12, -9, 7]], 0);
        assert_eq!(bitmap, vec![true; 4]);
        assert_eq!(bytes.len(), 3); // ceil(20/8)
                                    // Decode back with the reference reader to be sure.
        let mut r = crate::writer::BitReader::new(&bytes);
        assert_eq!(r.read_signed(5), Some(13));
        assert_eq!(r.read_signed(5), Some(12));
        assert_eq!(r.read_signed(5), Some(-9));
        assert_eq!(r.read_signed(5), Some(7));
    }

    #[test]
    fn insignificant_coefficients_touch_nothing() {
        let mut p = BitPackingUnit::new(4);
        let out = p.clock(3, 8);
        assert!(!out.bitmap_bit);
        assert!(out.words.is_empty());
        assert_eq!(p.staged_bits(), 0);
        assert_eq!(p.payload_bits(), 0);
    }

    #[test]
    fn wen_fires_exactly_on_word_boundaries() {
        let mut p = BitPackingUnit::new(0);
        // 3 bits + 3 bits = 6 staged, no word yet.
        assert!(p.clock(2, 3).words.is_empty());
        assert!(p.clock(-1, 3).words.is_empty());
        assert_eq!(p.staged_bits(), 6);
        // +3 bits crosses 8: one word out, 1 bit left.
        let out = p.clock(1, 3);
        assert_eq!(out.words.len(), 1);
        assert_eq!(p.staged_bits(), 1);
    }

    #[test]
    fn sixteen_bit_nbits_can_emit_two_words() {
        let mut p = BitPackingUnit::new(0);
        p.clock(1, 7); // 7 staged
        let out = p.clock(-300, 16); // 23 staged -> two words + 7 left
        assert_eq!(out.words.len(), 2);
        assert_eq!(p.staged_bits(), 7);
    }

    #[test]
    fn flush_pads_and_clears() {
        let mut p = BitPackingUnit::new(0);
        p.clock(-2, 3); // 110 staged
        let w = p.flush().expect("partial word");
        assert_eq!(w, 0b110);
        assert!(p.flush().is_none());
        assert_eq!(p.staged_bits(), 0);
    }

    #[test]
    fn payload_bits_counts_only_significant() {
        let mut p = BitPackingUnit::new(3);
        p.clock(5, 4);
        p.clock(2, 4); // below threshold
        p.clock(-7, 4);
        assert_eq!(p.payload_bits(), 8);
    }

    #[test]
    fn two_frame_run_reuses_scratch_without_reallocation() {
        // Satellite: a second frame of the same geometry through warm scratch
        // buffers must perform zero reallocations.
        let frame: Vec<Vec<Coeff>> = (0..48)
            .map(|i| {
                (0..8)
                    .map(|k| ((i * 13 + k * 7) % 200 - 100) as Coeff)
                    .collect()
            })
            .collect();
        let mut bytes = Vec::new();
        let mut bitmap = Vec::new();
        super::pack_columns(&frame, 0, &mut bytes, &mut bitmap); // frame 1: warms
        let (bytes_cap, bitmap_cap) = (bytes.capacity(), bitmap.capacity());
        let first = (bytes.clone(), bitmap.clone());
        super::pack_columns(&frame, 0, &mut bytes, &mut bitmap); // frame 2: warm
        assert_eq!((bytes.clone(), bitmap.clone()), first, "frames must agree");
        assert_eq!(bytes.capacity(), bytes_cap, "byte scratch reallocated");
        assert_eq!(bitmap.capacity(), bitmap_cap, "bitmap scratch reallocated");
    }

    #[test]
    fn reset_clears_registers() {
        let mut p = BitPackingUnit::new(0);
        p.clock(1, 5);
        p.reset();
        assert_eq!(p.staged_bits(), 0);
        assert_eq!(p.payload_bits(), 0);
        assert!(p.flush().is_none());
    }
}
