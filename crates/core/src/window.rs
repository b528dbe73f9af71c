//! The N×N active window, and the row-major pixel bands kernels read it
//! from.
//!
//! Both architectures expose every pixel of the window to the processing
//! kernel each clock (paper Section V: "The active window is implemented
//! using shift registers so that a processing kernel can directly access all
//! pixels of the active window each clock cycle").
//!
//! Orientation: a view is in natural image coordinates — row 0 is the top
//! (oldest buffered image row), column 0 the left (oldest image column).
//!
//! [`ActiveWindow`] is the literal shift-register model (one column per
//! clock), kept for the RTL model and the direct reference. The datapath in
//! [`crate::arch`] instead holds the N latest rows as one contiguous
//! [`RowBand`] and hands kernels a whole row of window positions at once;
//! either way a kernel sees a [`WindowView`], a strided N×N slice.

use crate::Pixel;

/// Read-only N×N view in natural orientation: pixel `(row, col)` lives at
/// `pixels[row * stride + col]`.
#[derive(Debug, Clone, Copy)]
pub struct WindowView<'a> {
    pixels: &'a [Pixel],
    stride: usize,
    n: usize,
}

impl<'a> WindowView<'a> {
    /// Window size N.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Pixel at `(row, col)` — row 0 = top (oldest image row), col 0 = left
    /// (oldest image column).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range coordinates.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> Pixel {
        assert!(
            row < self.n && col < self.n,
            "window coordinates out of range"
        );
        self.pixels[row * self.stride + col]
    }

    /// Row `row` of the window, left to right.
    ///
    /// # Panics
    ///
    /// Panics if `row >= n`.
    #[inline]
    pub fn row(&self, row: usize) -> &'a [Pixel] {
        assert!(row < self.n, "window row out of range");
        let start = row * self.stride;
        &self.pixels[start..start + self.n]
    }

    /// Iterate all pixels row-major.
    pub fn iter(&self) -> impl Iterator<Item = Pixel> + 'a {
        let view = *self;
        (0..self.n).flat_map(move |r| view.row(r).iter().copied())
    }

    /// Copy the window into a row-major vector (for kernels that need random
    /// access patterns like the median).
    pub fn to_vec(&self) -> Vec<Pixel> {
        self.iter().collect()
    }
}

/// `n` rows of `width` pixels, row `i` at `pixels[i * stride..][..width]`:
/// the datapath's window band (one row step's N window rows) and the
/// column blocks codecs encode and decode a row at a time. Column `j`
/// of the band is one N-tall image column, top to bottom.
#[derive(Debug, Clone, Copy)]
pub struct RowBand<'a> {
    pixels: &'a [Pixel],
    stride: usize,
    n: usize,
    width: usize,
}

impl<'a> RowBand<'a> {
    /// A band over `pixels`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `stride < width`, or `pixels` is too short to
    /// hold `n` rows.
    pub fn new(pixels: &'a [Pixel], stride: usize, n: usize, width: usize) -> Self {
        assert!(n >= 1 && stride >= width, "band geometry");
        assert!(
            pixels.len() >= (n - 1) * stride + width,
            "band pixels too short"
        );
        Self {
            pixels,
            stride,
            n,
            width,
        }
    }

    /// Rows in the band.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Pixels per row.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Window positions across the band (`width − n + 1`; 0 when the band
    /// is narrower than its height).
    #[inline]
    pub fn positions(&self) -> usize {
        (self.width + 1).saturating_sub(self.n)
    }

    /// Row `i`, `width` pixels.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [Pixel] {
        assert!(i < self.n, "band row out of range");
        let start = i * self.stride;
        &self.pixels[start..start + self.width]
    }

    /// The N×N window whose left column is band column `x`.
    ///
    /// # Panics
    ///
    /// Panics unless `x + n <= width`.
    #[inline]
    pub fn window(&self, x: usize) -> WindowView<'a> {
        assert!(x + self.n <= self.width, "window outside the band");
        WindowView {
            pixels: &self.pixels[x..],
            stride: self.stride,
            n: self.n,
        }
    }

    /// Copy column `j`, top to bottom, into `out` through `f`.
    pub fn read_column<T>(&self, j: usize, out: &mut [T], f: impl Fn(Pixel) -> T) {
        assert!(j < self.width && out.len() == self.n, "column read");
        for (i, o) in out.iter_mut().enumerate() {
            *o = f(self.pixels[i * self.stride + j]);
        }
    }
}

/// The writable twin of [`RowBand`]: where codecs decode a row's groups.
#[derive(Debug)]
pub struct RowBandMut<'a> {
    pixels: &'a mut [Pixel],
    stride: usize,
    n: usize,
    width: usize,
}

impl<'a> RowBandMut<'a> {
    /// A writable band over `pixels`.
    ///
    /// # Panics
    ///
    /// As [`RowBand::new`].
    pub fn new(pixels: &'a mut [Pixel], stride: usize, n: usize, width: usize) -> Self {
        assert!(n >= 1 && stride >= width, "band geometry");
        assert!(
            pixels.len() >= (n - 1) * stride + width,
            "band pixels too short"
        );
        Self {
            pixels,
            stride,
            n,
            width,
        }
    }

    /// Rows in the band.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Pixels per row.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Row `i`, writable.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [Pixel] {
        assert!(i < self.n, "band row out of range");
        let start = i * self.stride;
        &mut self.pixels[start..start + self.width]
    }

    /// Write column `j`, top to bottom, from `col` (`n` pixels).
    pub fn write_column(&mut self, j: usize, col: &[Pixel]) {
        assert!(j < self.width && col.len() == self.n, "column write");
        for (i, &v) in col.iter().enumerate() {
            self.pixels[i * self.stride + j] = v;
        }
    }
}

/// N×N pixel window with shift-register semantics.
///
/// Storage is row-major and twice as wide as the window: a shift writes the
/// entering column to ring slot `head` and its mirror `head + N`, so the
/// current window is always the contiguous columns `head..head + N`.
#[derive(Debug, Clone)]
pub struct ActiveWindow {
    n: usize,
    /// `n` rows of `2n` pixels.
    cells: Vec<Pixel>,
    /// Ring index of the oldest (leftmost) column.
    head: usize,
}

impl ActiveWindow {
    /// A zero-filled N×N window.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "window too small");
        Self {
            n,
            cells: vec![0; 2 * n * n],
            head: 0,
        }
    }

    /// Window size N.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Shift one clock: the oldest (leftmost) column is returned and
    /// `incoming` becomes the newest (rightmost) column.
    ///
    /// `incoming` is top-to-bottom; its bottom element is the current input
    /// pixel, the rest come from the buffering path.
    ///
    /// # Panics
    ///
    /// Panics if `incoming.len() != n`.
    pub fn shift(&mut self, incoming: &[Pixel]) -> Vec<Pixel> {
        let mut evicted = Vec::with_capacity(self.n);
        self.shift_into(incoming, &mut evicted);
        evicted
    }

    /// Like [`shift`](Self::shift) but reuses the evicted buffer: copies the
    /// evicted column into `evicted_out` and `incoming` into the freed slot.
    pub fn shift_into(&mut self, incoming: &[Pixel], evicted_out: &mut Vec<Pixel>) {
        assert_eq!(incoming.len(), self.n, "column height mismatch");
        let (n, head) = (self.n, self.head);
        evicted_out.clear();
        for (r, &v) in incoming.iter().enumerate() {
            let row = &mut self.cells[r * 2 * n..(r + 1) * 2 * n];
            evicted_out.push(row[head]);
            row[head] = v;
            row[head + n] = v;
        }
        self.head = (head + 1) % n;
    }

    /// Natural-orientation view for kernels.
    pub fn view(&self) -> WindowView<'_> {
        WindowView {
            pixels: &self.cells[self.head..],
            stride: 2 * self.n,
            n: self.n,
        }
    }

    /// Reset all registers to zero.
    pub fn clear(&mut self) {
        self.cells.fill(0);
        self.head = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shifting_preserves_natural_orientation() {
        let mut w = ActiveWindow::new(3);
        // Push columns [1,2,3], [4,5,6], [7,8,9]: the last push is rightmost.
        w.shift(&[1, 2, 3]);
        w.shift(&[4, 5, 6]);
        w.shift(&[7, 8, 9]);
        let v = w.view();
        // Row 0 (top) = firsts of each column, left to right.
        assert_eq!([v.get(0, 0), v.get(0, 1), v.get(0, 2)], [1, 4, 7]);
        assert_eq!([v.get(2, 0), v.get(2, 1), v.get(2, 2)], [3, 6, 9]);
        assert_eq!(v.row(1), &[2, 5, 8]);
    }

    #[test]
    fn shift_evicts_oldest() {
        let mut w = ActiveWindow::new(2);
        w.shift(&[1, 2]);
        w.shift(&[3, 4]);
        let evicted = w.shift(&[5, 6]);
        assert_eq!(evicted, vec![1, 2]);
        assert_eq!(w.shift(&[7, 8]), vec![3, 4]);
    }

    #[test]
    fn shift_into_matches_shift() {
        let mut a = ActiveWindow::new(4);
        let mut b = ActiveWindow::new(4);
        let mut evicted = Vec::new();
        for i in 0..10u8 {
            let col: Vec<u8> = (0..4).map(|r| i * 4 + r).collect();
            let ev_a = a.shift(&col);
            b.shift_into(&col, &mut evicted);
            assert_eq!(ev_a, evicted);
        }
        assert_eq!(a.view().to_vec(), b.view().to_vec());
    }

    #[test]
    fn view_iter_is_row_major() {
        let mut w = ActiveWindow::new(2);
        w.shift(&[1, 2]);
        w.shift(&[3, 4]);
        assert_eq!(w.view().to_vec(), vec![1, 3, 2, 4]);
    }

    #[test]
    fn clear_zeroes_and_resets() {
        let mut w = ActiveWindow::new(2);
        w.shift(&[1, 2]);
        w.clear();
        assert_eq!(w.view().to_vec(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn band_windows_match_a_shifted_window() {
        // Feeding a band's columns through the shift register yields the
        // same views as the band's own windows.
        let (n, width) = (3, 7);
        let pixels: Vec<Pixel> = (0..n * width).map(|i| (i * 11 % 251) as u8).collect();
        let band = RowBand::new(&pixels, width, n, width);
        assert_eq!(band.positions(), width - n + 1);
        let mut win = ActiveWindow::new(n);
        let mut col = vec![0; n];
        for x in 0..width {
            band.read_column(x, &mut col, |p| p);
            win.shift(&col);
            if x + 1 >= n {
                assert_eq!(win.view().to_vec(), band.window(x + 1 - n).to_vec());
            }
        }
    }
}
