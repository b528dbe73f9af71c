//! Window processing kernels.
//!
//! The sliding-window architecture is kernel-agnostic: "a 2D image filter
//! could multiply each pixel in the active window with a corresponding
//! constant in the filter kernel" (paper Section V). These kernels exercise
//! the architectures in the tests, examples and benchmarks, covering the
//! application classes the paper's introduction motivates: image filters
//! (Gaussian — including the "window at least 5× the standard deviation"
//! guidance), object detection (template matching), and multi-stage
//! pipelines (Sobel after Gaussian).

mod conv;
mod gradient;
mod linear;
mod nonlinear;
mod texture;
mod util;

pub use conv::{Convolution, SeparableConv};
pub use gradient::{HarrisResponse, SobelMagnitude};
pub use linear::{BoxFilter, GaussianFilter};
pub use nonlinear::{Dilate, Erode, MedianFilter};
pub use texture::{CensusTransform, LocalBinaryPattern};
pub use util::{Tap, TemplateSad};

use crate::window::{RowBand, WindowView};
use crate::Pixel;

/// A window operator: maps the N×N active window to one output pixel.
///
/// Kernels are `Send + Sync`: the halo-sharded runner ([`crate::shard`])
/// applies one kernel from several pool threads at once, so kernels must
/// be immutable value types (all of the ones here are plain data).
pub trait WindowKernel: Send + Sync {
    /// The window size N this kernel expects.
    fn window_size(&self) -> usize;

    /// Compute the output for one window position.
    fn apply(&self, win: &WindowView<'_>) -> u8;

    /// Compute the outputs of every window position across `band`, left
    /// to right: `out[x]` is the output of the window whose left column
    /// is band column `x`, so `out.len() == band.positions()`.
    ///
    /// The datapath calls this once per row step, handing the same
    /// `cache` to every step of a stream and clearing it when the kernel
    /// changes (by [`name`](Self::name)), so a kernel that stores values
    /// in it must derive them from its name, window size and the row's
    /// pixels alone. The default applies [`apply`](Self::apply) at each
    /// position; overrides must be bit-identical to it.
    fn apply_row(&self, band: &RowBand<'_>, cache: &mut RowCache, out: &mut [Pixel]) {
        let _ = cache;
        debug_assert_eq!(out.len(), band.positions());
        for (x, o) in out.iter_mut().enumerate() {
            *o = self.apply(&band.window(x));
        }
    }

    /// Human-readable kernel name.
    fn name(&self) -> &'static str;
}

/// Values a kernel's row form derives from one band row, kept between
/// row steps. In a lossless frame every image row passes through all N
/// window rows, so a per-row quantity (a separable filter's horizontal
/// sums) is computed once and reused N times. Entries are keyed by the
/// row's exact pixels — a lossy frame's reconstructed rows simply miss —
/// and the cache holds N + 1 rows: one band's N and the row before them.
///
/// The cache does not know which kernel filled it: the datapath clears it
/// whenever the kernel changes, so a hit is always bit-identical to
/// recomputing.
#[derive(Debug, Clone)]
pub struct RowCache {
    capacity: usize,
    entries: Vec<CachedRow>,
    clock: u64,
}

#[derive(Debug, Clone, Default)]
struct CachedRow {
    pixels: Vec<Pixel>,
    values: Vec<f64>,
    used: u64,
}

impl RowCache {
    /// An empty cache for the bands of an `n`-row window.
    pub fn new(n: usize) -> Self {
        Self {
            capacity: n + 1,
            entries: Vec::with_capacity(n + 1),
            clock: 0,
        }
    }

    /// Forget every row (the kernel using the cache changed).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// The values for a row with exactly `pixels`, computed by `compute`
    /// into a cleared vector on a miss. A miss with the cache full
    /// overwrites the least recently used row, reusing its buffers.
    pub fn row(
        &mut self,
        pixels: &[Pixel],
        compute: impl FnOnce(&[Pixel], &mut Vec<f64>),
    ) -> &[f64] {
        self.clock += 1;
        let slot = match self.entries.iter().position(|e| e.pixels == pixels) {
            Some(hit) => hit,
            None => {
                let slot = if self.entries.len() < self.capacity {
                    self.entries.push(CachedRow::default());
                    self.entries.len() - 1
                } else {
                    (0..self.entries.len())
                        .min_by_key(|&i| self.entries[i].used)
                        .unwrap_or(0)
                };
                let e = &mut self.entries[slot];
                e.pixels.clear();
                e.pixels.extend_from_slice(pixels);
                e.values.clear();
                compute(pixels, &mut e.values);
                slot
            }
        };
        let e = &mut self.entries[slot];
        e.used = self.clock;
        &e.values
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use crate::window::ActiveWindow;

    /// Build an ActiveWindow whose natural view equals the given row-major
    /// patch.
    pub fn window_from_patch(n: usize, patch: &[u8]) -> ActiveWindow {
        assert_eq!(patch.len(), n * n);
        let mut w = ActiveWindow::new(n);
        for col in 0..n {
            let column: Vec<u8> = (0..n).map(|row| patch[row * n + col]).collect();
            w.shift(&column);
        }
        w
    }
}
