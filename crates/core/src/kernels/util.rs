//! Utility kernels: data-path taps and template matching.

use super::{RowCache, WindowKernel};
use crate::window::{RowBand, WindowView};
use crate::Pixel;

/// Passes through one fixed window position.
///
/// `Tap::top_left(n)` returns the *most recirculated* pixel — the one that
/// has been compressed and decompressed `N − 1` times on its way through the
/// buffers. Feeding a frame through the compressed architecture with this
/// kernel therefore reconstructs the image *as the architecture degraded
/// it*, which is how the MSE experiment (E8) measures lossy quality.
#[derive(Debug, Clone)]
pub struct Tap {
    n: usize,
    row: usize,
    col: usize,
}

impl Tap {
    /// Tap at an arbitrary window position.
    ///
    /// # Panics
    ///
    /// Panics if the position is outside the window.
    pub fn new(n: usize, row: usize, col: usize) -> Self {
        assert!(row < n && col < n, "tap position outside the window");
        Self { n, row, col }
    }

    /// Tap at the top-left (oldest, most recirculated) position.
    pub fn top_left(n: usize) -> Self {
        Self::new(n, 0, 0)
    }

    /// Tap at the bottom-right (newest, never-buffered) position.
    pub fn bottom_right(n: usize) -> Self {
        Self::new(n, n - 1, n - 1)
    }
}

impl WindowKernel for Tap {
    fn window_size(&self) -> usize {
        self.n
    }

    fn apply(&self, win: &WindowView<'_>) -> u8 {
        win.get(self.row, self.col)
    }

    fn apply_row(&self, band: &RowBand<'_>, _cache: &mut RowCache, out: &mut [Pixel]) {
        debug_assert_eq!(out.len(), band.positions());
        let len = out.len();
        out.copy_from_slice(&band.row(self.row)[self.col..self.col + len]);
    }

    fn name(&self) -> &'static str {
        "tap"
    }
}

/// Template matching by sum of absolute differences.
///
/// Output is a match score: 255 for a perfect match, decaying with the mean
/// absolute difference. This is the object-detection workload of the paper's
/// introduction ("the maximum detectable size is limited by the window size
/// supported in hardware").
#[derive(Debug, Clone)]
pub struct TemplateSad {
    n: usize,
    template: Vec<u8>,
}

impl TemplateSad {
    /// Match against an `n × n` row-major template.
    ///
    /// # Panics
    ///
    /// Panics if `template.len() != n * n`.
    pub fn new(n: usize, template: Vec<u8>) -> Self {
        assert_eq!(template.len(), n * n, "template size mismatch");
        Self { n, template }
    }
}

impl WindowKernel for TemplateSad {
    fn window_size(&self) -> usize {
        self.n
    }

    fn apply(&self, win: &WindowView<'_>) -> u8 {
        let mut sad: u64 = 0;
        let mut i = 0;
        for r in 0..self.n {
            for c in 0..self.n {
                sad += win.get(r, c).abs_diff(self.template[i]) as u64;
                i += 1;
            }
        }
        let mean = sad as f64 / (self.n * self.n) as f64;
        (255.0 - mean).clamp(0.0, 255.0).round() as u8
    }

    fn name(&self) -> &'static str {
        "template-sad"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::test_support::window_from_patch;

    #[test]
    fn taps_read_fixed_positions() {
        let patch: Vec<u8> = (0..16).collect();
        let w = window_from_patch(4, &patch);
        assert_eq!(Tap::top_left(4).apply(&w.view()), 0);
        assert_eq!(Tap::bottom_right(4).apply(&w.view()), 15);
        assert_eq!(Tap::new(4, 1, 2).apply(&w.view()), 6);
    }

    #[test]
    fn template_perfect_match_scores_255() {
        let patch: Vec<u8> = (0..16).map(|i| (i * 13) as u8).collect();
        let w = window_from_patch(4, &patch);
        let k = TemplateSad::new(4, patch.clone());
        assert_eq!(k.apply(&w.view()), 255);
    }

    #[test]
    fn template_mismatch_scores_lower() {
        let patch = vec![0u8; 16];
        let w = window_from_patch(4, &patch);
        let k = TemplateSad::new(4, vec![200; 16]);
        assert_eq!(k.apply(&w.view()), 55);
    }

    #[test]
    #[should_panic(expected = "outside the window")]
    fn tap_bounds_checked() {
        Tap::new(4, 4, 0);
    }
}
