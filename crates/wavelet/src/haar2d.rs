//! 2-D single-level integer Haar transform: quad (2×2 block) form, the
//! streaming column-pair form used by the sliding-window hardware, and a
//! whole-image form used by the offline analyzer.
//!
//! The hardware (paper Figure 5) wires four 1-D blocks: two "vertical" blocks
//! transform a 2-pixel-tall pair inside each column, then two "horizontal"
//! blocks combine the results across a pair of adjacent columns, producing
//! the four sub-band coefficients LL, LH, HL, HH of each 2×2 pixel block.
//!
//! Sub-band letters: first letter = vertical filter, second = horizontal
//! filter (so LH = vertically smooth, horizontal detail). The paper's prose
//! and Figure 5 caption disagree on which of LH/HL is "horizontal details";
//! the math below is self-consistent and round-trip exact, which is what the
//! architecture requires.

use crate::haar::{haar_fwd_pair, haar_inv_pair};
use crate::lanes;
use crate::subband::{SubBand, SubbandPlanes};
use crate::Coeff;

/// The four coefficients of one transformed 2×2 pixel block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Quad {
    /// Approximation coefficient.
    pub ll: Coeff,
    /// Horizontal-detail coefficient (vertically low-passed).
    pub lh: Coeff,
    /// Vertical-detail coefficient (horizontally low-passed).
    pub hl: Coeff,
    /// Diagonal-detail coefficient.
    pub hh: Coeff,
}

impl Quad {
    /// Coefficient for a given sub-band.
    #[inline]
    pub fn get(&self, band: SubBand) -> Coeff {
        match band {
            SubBand::LL => self.ll,
            SubBand::LH => self.lh,
            SubBand::HL => self.hl,
            SubBand::HH => self.hh,
        }
    }
}

/// Forward 2-D Haar transform of one 2×2 block.
///
/// Block layout: `x00 x01` is the top row (`x01` to the right of `x00`),
/// `x10 x11` the bottom row.
///
/// ```
/// use sw_wavelet::haar2d_fwd_quad;
/// // A flat block has zero details and LL equal to the common value.
/// let q = haar2d_fwd_quad(9, 9, 9, 9);
/// assert_eq!((q.ll, q.lh, q.hl, q.hh), (9, 0, 0, 0));
/// ```
#[inline]
pub fn haar2d_fwd_quad(x00: Coeff, x01: Coeff, x10: Coeff, x11: Coeff) -> Quad {
    // Stage 1: vertical transform inside each column.
    let (l0, h0) = haar_fwd_pair(x00, x10);
    let (l1, h1) = haar_fwd_pair(x01, x11);
    // Stage 2: horizontal transform across the column pair.
    let (ll, lh) = haar_fwd_pair(l0, l1);
    let (hl, hh) = haar_fwd_pair(h0, h1);
    Quad { ll, lh, hl, hh }
}

/// Exact inverse of [`haar2d_fwd_quad`].
///
/// Returns `(x00, x01, x10, x11)`.
#[inline]
pub fn haar2d_inv_quad(q: Quad) -> (Coeff, Coeff, Coeff, Coeff) {
    let (l0, l1) = haar_inv_pair(q.ll, q.lh);
    let (h0, h1) = haar_inv_pair(q.hl, q.hh);
    let (x00, x10) = haar_inv_pair(l0, h0);
    let (x01, x11) = haar_inv_pair(l1, h1);
    (x00, x01, x10, x11)
}

/// One transformed column of the decomposed image.
///
/// In the streaming architecture every *decomposed* image column carries two
/// sub-bands of `n/2` coefficients each (paper Section V-E): even columns
/// carry `(LL, LH)`, odd columns `(HL, HH)`. The first `n/2` entries of
/// [`SubbandColumn::coeffs`] belong to `bands.0`, the rest to `bands.1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubbandColumn {
    /// The two sub-bands present in this column, in storage order.
    pub bands: (SubBand, SubBand),
    /// `n` coefficients: `n/2` for `bands.0` followed by `n/2` for `bands.1`.
    pub coeffs: Vec<Coeff>,
}

impl SubbandColumn {
    /// Coefficients of the first sub-band (`bands.0`).
    #[inline]
    pub fn first_half(&self) -> &[Coeff] {
        &self.coeffs[..self.coeffs.len() / 2]
    }

    /// Coefficients of the second sub-band (`bands.1`).
    #[inline]
    pub fn second_half(&self) -> &[Coeff] {
        &self.coeffs[self.coeffs.len() / 2..]
    }
}

/// The two decomposed columns produced from a raw column pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransformedColumnPair {
    /// Even decomposed column: `(LL, LH)`.
    pub even: SubbandColumn,
    /// Odd decomposed column: `(HL, HH)`.
    pub odd: SubbandColumn,
}

/// Streaming model of the paper's IWT hardware block (Section V-A).
///
/// Every clock cycle the hardware reads the `n` pixels of the active window's
/// rightmost column. Internally it buffers the vertical-stage result of one
/// column; when the second column of a pair arrives it completes the 2-D
/// transform and emits the two decomposed columns.
///
/// `n` must be even (the paper's window sizes are powers of two ≥ 8).
#[derive(Debug, Clone)]
pub struct ColumnPairTransformer {
    n: usize,
    /// Vertical-stage `(l, h)` halves of the pending (even) column.
    pending: Option<(Vec<Coeff>, Vec<Coeff>)>,
    /// Retired `(l, h)` buffer pairs recycled by the sliced hot path.
    spare: Vec<(Vec<Coeff>, Vec<Coeff>)>,
    /// Reusable output storage for [`Self::push_column_sliced`].
    out: Option<TransformedColumnPair>,
}

impl ColumnPairTransformer {
    /// Create a transformer for window height `n` (even, ≥ 2).
    pub fn new(n: usize) -> Self {
        assert!(
            n >= 2 && n.is_multiple_of(2),
            "window height must be even and >= 2"
        );
        Self {
            n,
            pending: None,
            spare: Vec::new(),
            out: None,
        }
    }

    /// Window height this transformer was built for.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether a column is currently buffered (i.e. the next push completes a
    /// pair).
    #[inline]
    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// Feed one raw column (length `n`, top to bottom).
    ///
    /// Returns the decomposed column pair after every second push.
    ///
    /// # Panics
    ///
    /// Panics if `column.len() != n`.
    pub fn push_column(&mut self, column: &[Coeff]) -> Option<TransformedColumnPair> {
        assert_eq!(column.len(), self.n, "column height mismatch");
        let half = self.n / 2;
        let mut l = Vec::with_capacity(half);
        let mut h = Vec::with_capacity(half);
        for rows in column.chunks_exact(2) {
            let (lo, hi) = haar_fwd_pair(rows[0], rows[1]);
            l.push(lo);
            h.push(hi);
        }
        match self.pending.take() {
            None => {
                self.pending = Some((l, h));
                None
            }
            Some((l0, h0)) => {
                let mut even = Vec::with_capacity(self.n);
                let mut odd = Vec::with_capacity(self.n);
                let mut even_hi = Vec::with_capacity(half);
                let mut odd_hi = Vec::with_capacity(half);
                for k in 0..half {
                    let (ll, lh) = haar_fwd_pair(l0[k], l[k]);
                    let (hl, hh) = haar_fwd_pair(h0[k], h[k]);
                    even.push(ll);
                    even_hi.push(lh);
                    odd.push(hl);
                    odd_hi.push(hh);
                }
                even.extend_from_slice(&even_hi);
                odd.extend_from_slice(&odd_hi);
                Some(TransformedColumnPair {
                    even: SubbandColumn {
                        bands: (SubBand::LL, SubBand::LH),
                        coeffs: even,
                    },
                    odd: SubbandColumn {
                        bands: (SubBand::HL, SubBand::HH),
                        coeffs: odd,
                    },
                })
            }
        }
    }

    /// Zero-allocation twin of [`Self::push_column`] for the sliced hot path.
    ///
    /// Bit-identical to `push_column` on the codec's coefficient domain (and
    /// on all inputs in release builds). Both stages run through the
    /// lane-parallel kernels of [`crate::lanes`] — the same ones the
    /// datapath's row step applies across a whole row of columns, here on
    /// one column pair — and every buffer (the vertical-stage halves and
    /// the emitted pair) is recycled across calls, so a warmed-up
    /// transformer performs no heap allocation per column.
    ///
    /// The returned reference stays valid until the next call on `self`.
    ///
    /// # Panics
    ///
    /// Panics if `column.len() != n`.
    pub fn push_column_sliced(&mut self, column: &[Coeff]) -> Option<&TransformedColumnPair> {
        assert_eq!(column.len(), self.n, "column height mismatch");
        let half = self.n / 2;
        let (mut l, mut h) = self.spare.pop().unwrap_or_default();
        l.clear();
        l.resize(half, 0);
        h.clear();
        h.resize(half, 0);
        lanes::haar_fwd_interleaved(column, &mut l, &mut h);
        match self.pending.take() {
            None => {
                self.pending = Some((l, h));
                None
            }
            Some((l0, h0)) => {
                let n = self.n;
                let out = self.out.get_or_insert_with(|| TransformedColumnPair {
                    even: SubbandColumn {
                        bands: (SubBand::LL, SubBand::LH),
                        coeffs: Vec::new(),
                    },
                    odd: SubbandColumn {
                        bands: (SubBand::HL, SubBand::HH),
                        coeffs: Vec::new(),
                    },
                });
                out.even.coeffs.clear();
                out.even.coeffs.resize(n, 0);
                out.odd.coeffs.clear();
                out.odd.coeffs.resize(n, 0);
                {
                    let (ll, lh) = out.even.coeffs.split_at_mut(half);
                    lanes::haar_fwd_slices(&l0, &l, ll, lh);
                }
                {
                    let (hl, hh) = out.odd.coeffs.split_at_mut(half);
                    lanes::haar_fwd_slices(&h0, &h, hl, hh);
                }
                self.spare.push((l0, h0));
                self.spare.push((l, h));
                self.out.as_ref()
            }
        }
    }

    /// Drop any buffered half-pair (used at row boundaries / frame resets).
    ///
    /// Recycled scratch buffers are kept — reset clears *state*, not
    /// capacity, so a reused transformer stays allocation-free.
    pub fn reset(&mut self) {
        if let Some(pair) = self.pending.take() {
            self.spare.push(pair);
        }
    }
}

/// Streaming model of the paper's inverse IWT block (Section V-D).
///
/// Accepts decomposed columns in the order the forward side emitted them
/// (even `(LL, LH)` column, then odd `(HL, HH)` column) and reconstructs the
/// raw column pair once both halves are available.
#[derive(Debug, Clone)]
pub struct ColumnPairInverse {
    n: usize,
    pending: Option<SubbandColumn>,
    /// Sliced-path scratch: horizontal-stage row planes (`l0, l1, h0, h1`).
    rows: [Vec<Coeff>; 4],
    /// Sliced-path reusable output columns.
    cols: (Vec<Coeff>, Vec<Coeff>),
}

impl ColumnPairInverse {
    /// Create an inverse transformer for window height `n` (even, ≥ 2).
    pub fn new(n: usize) -> Self {
        assert!(
            n >= 2 && n.is_multiple_of(2),
            "window height must be even and >= 2"
        );
        Self {
            n,
            pending: None,
            rows: Default::default(),
            cols: Default::default(),
        }
    }

    /// Whether an even column is buffered awaiting its odd partner.
    #[inline]
    pub fn has_pending(&self) -> bool {
        self.pending.is_some()
    }

    /// Feed one decomposed column; after each complete pair, returns the two
    /// reconstructed raw columns `(first, second)` in image order.
    ///
    /// # Panics
    ///
    /// Panics if the column height mismatches, or if sub-band tags arrive out
    /// of order (an even column when an even column is already pending, etc.).
    pub fn push_column(&mut self, col: SubbandColumn) -> Option<(Vec<Coeff>, Vec<Coeff>)> {
        assert_eq!(col.coeffs.len(), self.n, "column height mismatch");
        match self.pending.take() {
            None => {
                assert_eq!(
                    col.bands,
                    (SubBand::LL, SubBand::LH),
                    "expected an even (LL,LH) column"
                );
                self.pending = Some(col);
                None
            }
            Some(even) => {
                assert_eq!(
                    col.bands,
                    (SubBand::HL, SubBand::HH),
                    "expected an odd (HL,HH) column"
                );
                let half = self.n / 2;
                let mut c0 = Vec::with_capacity(self.n);
                let mut c1 = Vec::with_capacity(self.n);
                for k in 0..half {
                    let ll = even.coeffs[k];
                    let lh = even.coeffs[half + k];
                    let hl = col.coeffs[k];
                    let hh = col.coeffs[half + k];
                    let (x00, x01, x10, x11) = haar2d_inv_quad(Quad { ll, lh, hl, hh });
                    c0.push(x00);
                    c0.push(x10);
                    c1.push(x01);
                    c1.push(x11);
                }
                Some((c0, c1))
            }
        }
    }

    /// Zero-allocation inverse for the sliced hot path: reconstruct one raw
    /// column pair straight from the four sub-band slices of a decomposed
    /// column pair (even column = `ll ++ lh`, odd column = `hl ++ hh`).
    ///
    /// Bit-identical to feeding the equivalent [`SubbandColumn`]s through
    /// [`Self::push_column`] on the codec domain (and on all inputs in
    /// release builds). The returned `(first, second)` column slices borrow
    /// internal scratch and stay valid until the next call on `self`.
    ///
    /// # Panics
    ///
    /// Panics if any sub-band slice is not `n / 2` long.
    pub fn push_quad_sliced(
        &mut self,
        ll: &[Coeff],
        lh: &[Coeff],
        hl: &[Coeff],
        hh: &[Coeff],
    ) -> (&[Coeff], &[Coeff]) {
        let half = self.n / 2;
        assert!(
            ll.len() == half && lh.len() == half && hl.len() == half && hh.len() == half,
            "sub-band height mismatch"
        );
        for r in &mut self.rows {
            r.clear();
            r.resize(half, 0);
        }
        let [l0, l1, h0, h1] = &mut self.rows;
        // Undo the horizontal stage across the column pair.
        lanes::haar_inv_slices(ll, lh, l0, l1);
        lanes::haar_inv_slices(hl, hh, h0, h1);
        // Undo the vertical stage, re-interleaving each column's row pairs.
        self.cols.0.clear();
        self.cols.0.resize(self.n, 0);
        self.cols.1.clear();
        self.cols.1.resize(self.n, 0);
        lanes::haar_inv_interleaved(l0, h0, &mut self.cols.0);
        lanes::haar_inv_interleaved(l1, h1, &mut self.cols.1);
        (&self.cols.0, &self.cols.1)
    }

    /// Drop any buffered half-pair.
    pub fn reset(&mut self) {
        self.pending = None;
    }
}

/// Whole-image single-level 2-D Haar transform (offline analyzer form).
///
/// `pixels` is row-major `w × h`; both dimensions must be even. Returns the
/// four quadrant planes of size `w/2 × h/2`.
pub fn forward_image(pixels: &[Coeff], w: usize, h: usize) -> SubbandPlanes {
    assert_eq!(pixels.len(), w * h, "pixel buffer size mismatch");
    assert!(
        w.is_multiple_of(2) && h.is_multiple_of(2),
        "image dimensions must be even"
    );
    let (pw, ph) = (w / 2, h / 2);
    let mut planes = SubbandPlanes::new(pw, ph);
    for by in 0..ph {
        for bx in 0..pw {
            let (x, y) = (bx * 2, by * 2);
            let q = haar2d_fwd_quad(
                pixels[y * w + x],
                pixels[y * w + x + 1],
                pixels[(y + 1) * w + x],
                pixels[(y + 1) * w + x + 1],
            );
            planes.set(SubBand::LL, bx, by, q.ll);
            planes.set(SubBand::LH, bx, by, q.lh);
            planes.set(SubBand::HL, bx, by, q.hl);
            planes.set(SubBand::HH, bx, by, q.hh);
        }
    }
    planes
}

/// Exact inverse of [`forward_image`].
pub fn inverse_image(planes: &SubbandPlanes) -> Vec<Coeff> {
    let (pw, ph) = (planes.w, planes.h);
    let (w, h) = (pw * 2, ph * 2);
    let mut pixels = vec![0; w * h];
    for by in 0..ph {
        for bx in 0..pw {
            let q = Quad {
                ll: planes.get(SubBand::LL, bx, by),
                lh: planes.get(SubBand::LH, bx, by),
                hl: planes.get(SubBand::HL, bx, by),
                hh: planes.get(SubBand::HH, bx, by),
            };
            let (x00, x01, x10, x11) = haar2d_inv_quad(q);
            let (x, y) = (bx * 2, by * 2);
            pixels[y * w + x] = x00;
            pixels[y * w + x + 1] = x01;
            pixels[(y + 1) * w + x] = x10;
            pixels[(y + 1) * w + x + 1] = x11;
        }
    }
    pixels
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quad_roundtrip_exhaustive_corners() {
        for &vals in &[
            (0, 0, 0, 0),
            (255, 255, 255, 255),
            (255, 0, 0, 255),
            (0, 255, 255, 0),
            (1, 2, 3, 4),
            (200, 10, 30, 190),
        ] {
            let (a, b, c, d) = vals;
            let q = haar2d_fwd_quad(a, b, c, d);
            assert_eq!(haar2d_inv_quad(q), vals);
        }
    }

    #[test]
    fn quad_coefficient_ranges_for_u8_input() {
        // Sampled sweep over the u8 block space to confirm coefficient bounds.
        let mut max_abs = Quad::default();
        for a in (0..=255).step_by(17) {
            for b in (0..=255).step_by(17) {
                for c in (0..=255).step_by(17) {
                    for d in (0..=255).step_by(17) {
                        let q = haar2d_fwd_quad(a, b, c, d);
                        max_abs.ll = max_abs.ll.max(q.ll.abs());
                        max_abs.lh = max_abs.lh.max(q.lh.abs());
                        max_abs.hl = max_abs.hl.max(q.hl.abs());
                        max_abs.hh = max_abs.hh.max(q.hh.abs());
                    }
                }
            }
        }
        assert!(max_abs.ll <= 255, "LL stays in pixel range");
        assert!(max_abs.lh <= 255);
        assert!(max_abs.hl <= 255, "HL is an average of two details");
        assert!(max_abs.hh <= 510, "HH is the only 10-bit band");
        // The extremes are actually reached:
        assert_eq!(haar2d_fwd_quad(255, 0, 0, 255).hh, 510);
    }

    #[test]
    fn column_pair_transformer_matches_quad_form() {
        let n = 8;
        let mut fwd = ColumnPairTransformer::new(n);
        let col0: Vec<Coeff> = (0..n as Coeff).map(|i| i * 13 % 256).collect();
        let col1: Vec<Coeff> = (0..n as Coeff).map(|i| (i * 29 + 7) % 256).collect();
        assert!(fwd.push_column(&col0).is_none());
        assert!(fwd.has_pending());
        let pair = fwd.push_column(&col1).expect("pair completes");
        assert!(!fwd.has_pending());

        for k in 0..n / 2 {
            let q = haar2d_fwd_quad(col0[2 * k], col1[2 * k], col0[2 * k + 1], col1[2 * k + 1]);
            assert_eq!(pair.even.first_half()[k], q.ll);
            assert_eq!(pair.even.second_half()[k], q.lh);
            assert_eq!(pair.odd.first_half()[k], q.hl);
            assert_eq!(pair.odd.second_half()[k], q.hh);
        }
    }

    #[test]
    fn streaming_roundtrip_many_columns() {
        let n = 16;
        let mut fwd = ColumnPairTransformer::new(n);
        let mut inv = ColumnPairInverse::new(n);
        let mut reconstructed: Vec<Vec<Coeff>> = Vec::new();
        let columns: Vec<Vec<Coeff>> = (0..24)
            .map(|c| (0..n).map(|r| ((r * 31 + c * 97) % 256) as Coeff).collect())
            .collect();
        for col in &columns {
            if let Some(pair) = fwd.push_column(col) {
                assert!(inv.push_column(pair.even).is_none());
                let (c0, c1) = inv.push_column(pair.odd).expect("pair reconstructs");
                reconstructed.push(c0);
                reconstructed.push(c1);
            }
        }
        assert_eq!(reconstructed, columns);
    }

    #[test]
    fn image_roundtrip() {
        let (w, h) = (32, 20);
        let pixels: Vec<Coeff> = (0..w * h)
            .map(|i| ((i * 131 + 17) % 256) as Coeff)
            .collect();
        let planes = forward_image(&pixels, w, h);
        assert_eq!(inverse_image(&planes), pixels);
    }

    #[test]
    fn flat_image_has_zero_details() {
        let (w, h) = (16, 16);
        let pixels = vec![77; w * h];
        let planes = forward_image(&pixels, w, h);
        assert!(planes.plane(SubBand::LL).iter().all(|&c| c == 77));
        for band in [SubBand::LH, SubBand::HL, SubBand::HH] {
            assert_eq!(planes.max_abs(band), 0, "{band} must vanish");
        }
    }

    #[test]
    fn reset_discards_pending_halves() {
        let mut fwd = ColumnPairTransformer::new(4);
        fwd.push_column(&[1, 2, 3, 4]);
        fwd.reset();
        assert!(!fwd.has_pending());
        assert!(fwd.push_column(&[5, 6, 7, 8]).is_none());
    }

    #[test]
    fn sliced_push_matches_scalar_across_reused_frames() {
        let n = 16;
        // One sliced transformer reused across frames of different content
        // must match a fresh scalar transformer per frame: no stale-state
        // bleed through the recycled scratch buffers.
        let mut sliced = ColumnPairTransformer::new(n);
        for frame in 0u32..3 {
            let mut scalar = ColumnPairTransformer::new(n);
            let columns: Vec<Vec<Coeff>> = (0..10)
                .map(|c| {
                    (0..n)
                        .map(|r| ((r as u32 * 31 + c * 97 + frame * 55) % 256) as Coeff)
                        .collect()
                })
                .collect();
            for col in &columns {
                let want = scalar.push_column(col);
                let got = sliced.push_column_sliced(col);
                assert_eq!(got, want.as_ref(), "frame {frame}");
            }
            sliced.reset();
        }
    }

    #[test]
    fn sliced_quad_inverse_matches_scalar_inverse() {
        let n = 12;
        let mut fwd = ColumnPairTransformer::new(n);
        let mut inv_scalar = ColumnPairInverse::new(n);
        let mut inv_sliced = ColumnPairInverse::new(n);
        let columns: Vec<Vec<Coeff>> = (0..8)
            .map(|c| (0..n).map(|r| ((r * 67 + c * 13) % 256) as Coeff).collect())
            .collect();
        for pair in columns.chunks_exact(2) {
            let tp = fwd
                .push_column(&pair[0])
                .or_else(|| fwd.push_column(&pair[1]))
                .expect("pair completes");
            let (s0, s1) = {
                let half = n / 2;
                inv_sliced.push_quad_sliced(
                    &tp.even.coeffs[..half],
                    &tp.even.coeffs[half..],
                    &tp.odd.coeffs[..half],
                    &tp.odd.coeffs[half..],
                )
            };
            let (s0, s1) = (s0.to_vec(), s1.to_vec());
            assert!(inv_scalar.push_column(tp.even).is_none());
            let (c0, c1) = inv_scalar.push_column(tp.odd).expect("reconstructs");
            assert_eq!((s0, s1), (c0, c1));
        }
    }

    #[test]
    fn sliced_push_allocates_nothing_once_warm() {
        let n = 8;
        let mut t = ColumnPairTransformer::new(n);
        let col: Vec<Coeff> = (0..n as Coeff).collect();
        // Warm up one full pair, then confirm the recycled buffers are the
        // same allocations on the next pair (pointer-stable scratch).
        t.push_column_sliced(&col);
        let first = t.push_column_sliced(&col).expect("pair");
        let even_ptr = first.even.coeffs.as_ptr();
        t.push_column_sliced(&col);
        let second = t.push_column_sliced(&col).expect("pair");
        assert_eq!(second.even.coeffs.as_ptr(), even_ptr, "output recycled");
    }

    #[test]
    #[should_panic(expected = "expected an even")]
    fn inverse_rejects_out_of_order_columns() {
        let mut inv = ColumnPairInverse::new(4);
        inv.push_column(SubbandColumn {
            bands: (SubBand::HL, SubBand::HH),
            coeffs: vec![0; 4],
        });
    }
}
