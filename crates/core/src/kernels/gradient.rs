//! Gradient-based kernels: Sobel edge magnitude and a Harris corner
//! response (the paper cites an FPGA Harris detector [4] as a motivating
//! multi-window workload).

use super::{RowCache, WindowKernel};
use crate::window::{RowBand, WindowView};
use crate::Pixel;

/// Sobel gradient magnitude over the window center.
///
/// Works for any even window size ≥ 4 by operating on the 3×3 neighbourhood
/// around the window center — the surrounding pixels still ride through the
/// line buffers, which is what the memory experiments measure.
#[derive(Debug, Clone)]
pub struct SobelMagnitude {
    n: usize,
}

impl SobelMagnitude {
    /// Sobel within an `n × n` window (n ≥ 4).
    pub fn new(n: usize) -> Self {
        assert!(n >= 4, "window must be at least 4 for a centered 3x3");
        Self { n }
    }

    fn center(&self) -> usize {
        self.n / 2
    }
}

impl WindowKernel for SobelMagnitude {
    fn window_size(&self) -> usize {
        self.n
    }

    fn apply(&self, win: &WindowView<'_>) -> u8 {
        let c = self.center();
        let p = |dr: isize, dc: isize| {
            win.get((c as isize + dr) as usize, (c as isize + dc) as usize) as i32
        };
        let gx = -p(-1, -1) - 2 * p(0, -1) - p(1, -1) + p(-1, 1) + 2 * p(0, 1) + p(1, 1);
        let gy = -p(-1, -1) - 2 * p(-1, 0) - p(-1, 1) + p(1, -1) + 2 * p(1, 0) + p(1, 1);
        let mag = ((gx * gx + gy * gy) as f64).sqrt() / 4.0;
        mag.round().clamp(0.0, 255.0) as u8
    }

    /// The 3×3 stencil slid along the band's three centre rows.
    fn apply_row(&self, band: &RowBand<'_>, _cache: &mut RowCache, out: &mut [Pixel]) {
        debug_assert_eq!(out.len(), band.positions());
        let c = self.center();
        let (up, mid, down) = (band.row(c - 1), band.row(c), band.row(c + 1));
        let p = |row: &[Pixel], x: usize| i32::from(row[x]);
        for (x, o) in out.iter_mut().enumerate() {
            // Window column c ± 1 sits at band column x + c ± 1.
            let (l, m, r) = (x + c - 1, x + c, x + c + 1);
            let gx = -p(up, l) - 2 * p(mid, l) - p(down, l) + p(up, r) + 2 * p(mid, r) + p(down, r);
            let gy = -p(up, l) - 2 * p(up, m) - p(up, r) + p(down, l) + 2 * p(down, m) + p(down, r);
            let mag = ((gx * gx + gy * gy) as f64).sqrt() / 4.0;
            *o = mag.round().clamp(0.0, 255.0) as u8;
        }
    }

    fn name(&self) -> &'static str {
        "sobel"
    }
}

/// Harris corner response over the whole window.
///
/// Computes central-difference gradients at every interior pixel, builds the
/// structure tensor, and maps `det − k·trace²` to `0..=255`.
#[derive(Debug, Clone)]
pub struct HarrisResponse {
    n: usize,
    k: f64,
}

impl HarrisResponse {
    /// Harris response over an `n × n` window with the standard `k = 0.04`.
    pub fn new(n: usize) -> Self {
        assert!(n >= 4, "window must be at least 4");
        Self { n, k: 0.04 }
    }
}

impl WindowKernel for HarrisResponse {
    fn window_size(&self) -> usize {
        self.n
    }

    fn apply(&self, win: &WindowView<'_>) -> u8 {
        let n = self.n;
        let (mut sxx, mut syy, mut sxy) = (0.0f64, 0.0f64, 0.0f64);
        let count = ((n - 2) * (n - 2)) as f64;
        for r in 1..n - 1 {
            for c in 1..n - 1 {
                let gx = (win.get(r, c + 1) as f64 - win.get(r, c - 1) as f64) / 2.0;
                let gy = (win.get(r + 1, c) as f64 - win.get(r - 1, c) as f64) / 2.0;
                sxx += gx * gx;
                syy += gy * gy;
                sxy += gx * gy;
            }
        }
        sxx /= count;
        syy /= count;
        sxy /= count;
        let det = sxx * syy - sxy * sxy;
        let trace = sxx + syy;
        let response = det - self.k * trace * trace;
        // Compress the (potentially huge) response range logarithmically.
        let scaled = if response <= 0.0 {
            0.0
        } else {
            (response.ln_1p() * 16.0).min(255.0)
        };
        scaled.round() as u8
    }

    fn name(&self) -> &'static str {
        "harris"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::test_support::window_from_patch;

    #[test]
    fn sobel_zero_on_flat() {
        let w = window_from_patch(4, &[50; 16]);
        assert_eq!(SobelMagnitude::new(4).apply(&w.view()), 0);
    }

    #[test]
    fn sobel_responds_to_vertical_edge() {
        // Left half dark, right half bright.
        let patch: Vec<u8> = (0..16).map(|i| if i % 4 < 2 { 0 } else { 200 }).collect();
        let w = window_from_patch(4, &patch);
        assert!(SobelMagnitude::new(4).apply(&w.view()) > 100);
    }

    #[test]
    fn harris_flat_vs_edge_vs_corner() {
        let n = 8;
        let flat = vec![100u8; n * n];
        let edge: Vec<u8> = (0..n * n)
            .map(|i| if i % n < n / 2 { 0 } else { 200 })
            .collect();
        let corner: Vec<u8> = (0..n * n)
            .map(|i| {
                let (x, y) = (i % n, i / n);
                if x < n / 2 && y < n / 2 {
                    200
                } else {
                    0
                }
            })
            .collect();
        let h = HarrisResponse::new(n);
        let rf = h.apply(&window_from_patch(n, &flat).view());
        let re = h.apply(&window_from_patch(n, &edge).view());
        let rc = h.apply(&window_from_patch(n, &corner).view());
        assert_eq!(rf, 0, "flat region has no corner response");
        assert!(rc > re, "corner ({rc}) must beat edge ({re})");
    }
}
