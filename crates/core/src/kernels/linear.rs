//! Separable linear filters: box and Gaussian.

use super::{RowCache, WindowKernel};
use crate::window::{RowBand, WindowView};
use crate::Pixel;

/// N×N box (mean) filter.
#[derive(Debug, Clone)]
pub struct BoxFilter {
    n: usize,
}

impl BoxFilter {
    /// Box filter over an `n × n` window.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "window too small");
        Self { n }
    }
}

impl WindowKernel for BoxFilter {
    fn window_size(&self) -> usize {
        self.n
    }

    fn apply(&self, win: &WindowView<'_>) -> u8 {
        debug_assert_eq!(win.n(), self.n);
        let sum: u32 = win.iter().map(|p| p as u32).sum();
        (sum / (self.n * self.n) as u32) as u8
    }

    /// Column sums, then a running horizontal sum: the same integer total
    /// per window in O(N) per row position instead of O(N²).
    fn apply_row(&self, band: &RowBand<'_>, _cache: &mut RowCache, out: &mut [Pixel]) {
        debug_assert_eq!(out.len(), band.positions());
        let n = self.n;
        let mut cols = vec![0u32; band.width()];
        for i in 0..n {
            for (acc, &p) in cols.iter_mut().zip(band.row(i)) {
                *acc += u32::from(p);
            }
        }
        let area = (n * n) as u32;
        let mut sum: u32 = cols[..n].iter().sum();
        for (x, o) in out.iter_mut().enumerate() {
            if x > 0 {
                sum = sum - cols[x - 1] + cols[x + n - 1];
            }
            *o = (sum / area) as u8;
        }
    }

    fn name(&self) -> &'static str {
        "box"
    }
}

/// N×N Gaussian filter with binomial weights.
///
/// The weights are the outer product of a binomial row (Pascal's triangle),
/// the classic integer approximation of a Gaussian with σ ≈ √(N−1)/2 — which
/// satisfies the paper's "window at least 5σ" precision guidance
/// (Section I).
#[derive(Debug, Clone)]
pub struct GaussianFilter {
    n: usize,
    /// Normalized separable weights.
    weights: Vec<f64>,
}

impl GaussianFilter {
    /// Gaussian filter over an `n × n` window.
    pub fn new(n: usize) -> Self {
        assert!(n >= 2, "window too small");
        // Binomial row C(n-1, k), normalized (f64 to support large n).
        let mut row = vec![1.0f64; n];
        let mut val = 1.0f64;
        for (k, w) in row.iter_mut().enumerate() {
            *w = val;
            val = val * (n - 1 - k) as f64 / (k + 1) as f64;
        }
        let sum: f64 = row.iter().sum();
        for w in &mut row {
            *w /= sum;
        }
        Self { n, weights: row }
    }

    /// Effective standard deviation of the binomial approximation.
    pub fn sigma(&self) -> f64 {
        ((self.n as f64 - 1.0) / 4.0).sqrt()
    }
}

impl WindowKernel for GaussianFilter {
    fn window_size(&self) -> usize {
        self.n
    }

    fn apply(&self, win: &WindowView<'_>) -> u8 {
        debug_assert_eq!(win.n(), self.n);
        let mut acc = 0.0f64;
        for r in 0..self.n {
            // Separable: weight rows on the fly.
            let wr = self.weights[r];
            let mut row_acc = 0.0f64;
            for c in 0..self.n {
                row_acc += self.weights[c] * win.get(r, c) as f64;
            }
            acc += wr * row_acc;
        }
        acc.round().clamp(0.0, 255.0) as u8
    }

    /// The same sums as [`apply`](Self::apply), in the same order per
    /// output, computed for every position of the row at once: each band
    /// row's horizontal sums (kept in `cache`, so an image row's are
    /// computed once for the N steps it spends in the window), then their
    /// weighted vertical sum.
    fn apply_row(&self, band: &RowBand<'_>, cache: &mut RowCache, out: &mut [Pixel]) {
        debug_assert_eq!(out.len(), band.positions());
        let positions = out.len();
        let mut acc = vec![0.0f64; positions];
        for (r, &wr) in self.weights.iter().enumerate() {
            let sums = cache.row(band.row(r), |pixels, sums| {
                sums.resize(positions, 0.0);
                for (c, &wc) in self.weights.iter().enumerate() {
                    for (h, &p) in sums.iter_mut().zip(&pixels[c..c + positions]) {
                        *h += wc * f64::from(p);
                    }
                }
            });
            for (a, &h) in acc.iter_mut().zip(sums) {
                *a += wr * h;
            }
        }
        for (o, a) in out.iter_mut().zip(acc) {
            *o = a.round().clamp(0.0, 255.0) as u8;
        }
    }

    fn name(&self) -> &'static str {
        "gaussian"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::test_support::window_from_patch;

    #[test]
    fn box_filter_is_mean() {
        let w = window_from_patch(2, &[0, 10, 20, 30]);
        assert_eq!(BoxFilter::new(2).apply(&w.view()), 15);
    }

    #[test]
    fn gaussian_weights_are_binomial_and_normalized() {
        let g = GaussianFilter::new(4);
        // C(3, k) = 1 3 3 1 -> /8
        let expect = [1.0 / 8.0, 3.0 / 8.0, 3.0 / 8.0, 1.0 / 8.0];
        for (w, e) in g.weights.iter().zip(expect) {
            assert!((w - e).abs() < 1e-12);
        }
        let sum: f64 = g.weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gaussian_flat_input_is_identity() {
        let w = window_from_patch(6, &[77; 36]);
        assert_eq!(GaussianFilter::new(6).apply(&w.view()), 77);
    }

    #[test]
    fn gaussian_center_weighted() {
        // A bright center pixel influences the output more than a corner one.
        let mut center = vec![0u8; 16];
        center[5] = 255; // row 1, col 1 (near center of 4×4)
        let mut corner = vec![0u8; 16];
        corner[0] = 255;
        let g = GaussianFilter::new(4);
        let c = g.apply(&window_from_patch(4, &center).view());
        let k = g.apply(&window_from_patch(4, &corner).view());
        assert!(c > k, "center {c} vs corner {k}");
    }

    #[test]
    fn large_window_weights_stay_finite() {
        let g = GaussianFilter::new(128);
        assert!(g.weights.iter().all(|w| w.is_finite() && *w >= 0.0));
        let sum: f64 = g.weights.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(g.sigma() > 5.0);
    }

    #[test]
    fn names_and_sizes() {
        assert_eq!(BoxFilter::new(8).name(), "box");
        assert_eq!(GaussianFilter::new(8).window_size(), 8);
    }
}
