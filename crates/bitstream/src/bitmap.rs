//! Per-coefficient significance bitmap (the paper's "BitMap").
//!
//! One bit per coefficient distinguishes zero/insignificant (0) from packed
//! (1) coefficients. For a window of height `N` over an image of width `W`
//! the architecture stores `(W − N) × N` BitMap bits (paper Section IV-C).

/// A compact bit vector with the small API the codec needs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Bitmap {
    words: Vec<u64>,
    len: usize,
}

impl Bitmap {
    /// Empty bitmap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bitmap with `len` bits, all clear.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitmap has zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one bit.
    pub fn push(&mut self, bit: bool) {
        let (w, b) = (self.len / 64, self.len % 64);
        if w == self.words.len() {
            self.words.push(0);
        }
        if bit {
            self.words[w] |= 1 << b;
        }
        self.len += 1;
    }

    /// Append the low `count` bits of `bits` (`count <= 64`; bits above
    /// `count` must be clear), bit 0 first.
    pub fn push_bits(&mut self, bits: u64, count: u32) {
        debug_assert!(count <= 64 && (count == 64 || bits >> count == 0));
        if count == 0 {
            return;
        }
        let off = (self.len % 64) as u32;
        if off == 0 {
            self.words.push(bits);
        } else {
            if let Some(last) = self.words.last_mut() {
                *last |= bits << off;
            }
            if off + count > 64 {
                self.words.push(bits >> (64 - off));
            }
        }
        self.len += count as usize;
    }

    /// Read bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bitmap index out of range");
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Set bit `i` to `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn set(&mut self, i: usize, bit: bool) {
        assert!(i < self.len, "bitmap index out of range");
        let mask = 1u64 << (i % 64);
        if bit {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Reset to zero bits, keeping the allocated word capacity so a scratch
    /// bitmap can be refilled without reallocating.
    pub fn clear(&mut self) {
        self.words.clear();
        self.len = 0;
    }

    /// Number of set bits (significant coefficients).
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The backing words, LSB-first within each word (bit `i` lives at
    /// `words()[i / 64]` bit `i % 64`). Bits at or beyond [`len`](Self::len)
    /// are zero. This is the bit-sliced decode path's bulk view.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterate bits in order.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Build from an iterator of bools.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let mut bm = Self::new();
        for b in bits {
            bm.push(b);
        }
        bm
    }

    /// Render as a binary string, index 0 first (e.g. `1111` / `0011`,
    /// matching the paper's Figure 2 examples).
    pub fn to_bit_string(&self) -> String {
        self.iter().map(|b| if b { '1' } else { '0' }).collect()
    }
}

impl FromIterator<bool> for Bitmap {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        Self::from_bits(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_roundtrip_across_word_boundary() {
        let pattern: Vec<bool> = (0..130).map(|i| i % 3 == 0).collect();
        let bm = Bitmap::from_bits(pattern.iter().copied());
        assert_eq!(bm.len(), 130);
        for (i, &b) in pattern.iter().enumerate() {
            assert_eq!(bm.get(i), b, "bit {i}");
        }
        assert_eq!(bm.count_ones(), pattern.iter().filter(|&&b| b).count());
    }

    #[test]
    fn set_overwrites() {
        let mut bm = Bitmap::zeros(70);
        bm.set(69, true);
        assert!(bm.get(69));
        bm.set(69, false);
        assert!(!bm.get(69));
        assert_eq!(bm.count_ones(), 0);
    }

    #[test]
    fn paper_figure2_bitmap_strings() {
        // "BitMap of the first column is 1111 ... the last column is 0011
        //  because the first two coefficients are zeros."
        let all = Bitmap::from_bits([true, true, true, true]);
        assert_eq!(all.to_bit_string(), "1111");
        let tail = Bitmap::from_bits([false, false, true, true]);
        assert_eq!(tail.to_bit_string(), "0011");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        Bitmap::zeros(4).get(4);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut bm = Bitmap::from_bits((0..200).map(|i| i % 2 == 0));
        let cap = bm.words.capacity();
        bm.clear();
        assert!(bm.is_empty());
        assert_eq!(bm.words.capacity(), cap);
        bm.push(true);
        assert_eq!(bm.to_bit_string(), "1");
    }

    #[test]
    fn iterator_collects() {
        let bm: Bitmap = [true, false, true].into_iter().collect();
        let back: Vec<bool> = bm.iter().collect();
        assert_eq!(back, vec![true, false, true]);
    }

    #[test]
    fn push_bits_matches_bitwise_pushes() {
        let mut state = 0x2545_f491_u64;
        for _ in 0..200 {
            let mut a = Bitmap::new();
            let mut b = Bitmap::new();
            for _ in 0..5 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let count = (state >> 58) as u32 + 1;
                let bits = (state >> 3) & (u64::MAX >> (64 - count));
                a.push_bits(bits, count);
                for i in 0..count {
                    b.push(bits >> i & 1 == 1);
                }
            }
            assert_eq!(a, b);
        }
    }
}
