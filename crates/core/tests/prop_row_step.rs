//! Property tests of the row step: kernels' row forms against their
//! per-position form, and the row-streamed datapath against whole frames
//! and the direct reference on widths whose columns straddle codec
//! groups across rows.

use proptest::prelude::*;
use sw_core::arch::{build_arch, FrameOutput};
use sw_core::codec::LineCodecKind;
use sw_core::config::ArchConfig;
use sw_core::kernels::{
    BoxFilter, CensusTransform, Convolution, Dilate, Erode, GaussianFilter, HarrisResponse,
    LocalBinaryPattern, MedianFilter, RowCache, SeparableConv, SobelMagnitude, Tap, TemplateSad,
    WindowKernel,
};
use sw_core::reference::direct_sliding_window;
use sw_core::window::RowBand;
use sw_core::HotPath;
use sw_image::ImageU8;

/// Deterministic splitmix64 stream.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Every kernel `sw_core::kernels` exports that is legal at window `n`.
fn kernels(n: usize, rng: &mut Rng) -> Vec<Box<dyn WindowKernel>> {
    let weights: Vec<f64> = (0..n * n)
        .map(|_| rng.below(2001) as f64 / 1000.0 - 1.0)
        .collect();
    let factor =
        |rng: &mut Rng| -> Vec<f64> { (0..n).map(|_| rng.below(100) as f64 / 97.0).collect() };
    let (col, row) = (factor(rng), factor(rng));
    let template: Vec<u8> = (0..n * n).map(|_| rng.below(256) as u8).collect();
    let (tr, tc) = (rng.below(n as u64) as usize, rng.below(n as u64) as usize);
    let mut all: Vec<Box<dyn WindowKernel>> = vec![
        Box::new(BoxFilter::new(n)),
        Box::new(GaussianFilter::new(n)),
        Box::new(MedianFilter::new(n)),
        Box::new(Erode::new(n)),
        Box::new(Dilate::new(n)),
        Box::new(Convolution::new(n, weights, 3.5)),
        Box::new(Convolution::sharpen(n, 1.0)),
        Box::new(Convolution::laplacian_of_gaussian(n)),
        Box::new(Convolution::emboss(n)),
        Box::new(SeparableConv::new(col, row, 1.25)),
        Box::new(Tap::new(n, tr, tc)),
        Box::new(TemplateSad::new(n, template)),
    ];
    if n >= 4 {
        all.push(Box::new(SobelMagnitude::new(n)));
        all.push(Box::new(HarrisResponse::new(n)));
        all.push(Box::new(CensusTransform::new(n)));
        all.push(Box::new(LocalBinaryPattern::new(n)));
    }
    all
}

fn run(cfg: ArchConfig, img: &ImageU8, kernel: &dyn WindowKernel) -> FrameOutput {
    build_arch(&cfg)
        .unwrap()
        .process_frame(img, kernel)
        .unwrap()
}

fn streamed(cfg: ArchConfig, img: &ImageU8, kernel: &dyn WindowKernel) -> FrameOutput {
    let mut arch = build_arch(&cfg).unwrap();
    arch.begin_frame(img.height()).unwrap();
    for r in 0..img.height() {
        arch.push_row(img.row(r), kernel).unwrap();
    }
    arch.finish_frame().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A kernel's row form equals its per-position form at every window
    /// position of a band, for every kernel, window size and band width —
    /// including when its row cache carries rows over from earlier steps,
    /// as it does while a band slides down a frame, and when a row
    /// changes under it, as reconstructed rows do in a lossy frame.
    #[test]
    fn apply_row_equals_per_position_apply(
        n in 2usize..17,
        extra in 0usize..41,
        pad in 0usize..5,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng(seed);
        let width = n + extra;
        let stride = width + pad;
        let rows = n + 3;
        let mut pixels: Vec<u8> = (0..rows * stride).map(|_| rng.below(256) as u8).collect();
        for kernel in kernels(n, &mut rng) {
            let mut cache = RowCache::new(n);
            for step in 0..4 {
                if step == 3 {
                    // One row of the next band differs from the cached one.
                    let i = (2 + rng.below(n as u64) as usize) * stride + rng.below(width as u64) as usize;
                    pixels[i] ^= 1 + rng.below(255) as u8;
                }
                let top = step.min(2);
                let band = RowBand::new(&pixels[top * stride..], stride, n, width);
                let mut got = vec![0u8; band.positions()];
                kernel.apply_row(&band, &mut cache, &mut got);
                let want: Vec<u8> = (0..band.positions())
                    .map(|x| kernel.apply(&band.window(x)))
                    .collect();
                prop_assert_eq!(got, want, "{} n={} width={} step={}", kernel.name(), n, width, step);
            }
        }
    }

    /// Row-streamed frames equal whole frames, and the direct reference
    /// when lossless, at widths that are not a multiple of the codec
    /// group — so groups straddle rows — under both hot paths.
    #[test]
    fn straddling_widths_stream_exactly(
        codec_pick in 0usize..2,
        groups in 0usize..9,
        rem_pick in 0usize..3,
        h in 8usize..20,
        seed in any::<u64>(),
    ) {
        let n = 8;
        let codec = [LineCodecKind::Haar, LineCodecKind::Haar2][codec_pick];
        let g = codec.group_width();
        // Haar: odd widths; Haar2: W ≡ 1, 2 or 3 (mod 4).
        let rem = 1 + rem_pick % (g - 1);
        let w = n + g + groups * g + rem;
        let mut rng = Rng(seed);
        let img = ImageU8::from_fn(w, h, |x, y| {
            (96 + (x * 7 + y * 13) % 64) as u8 ^ (rng.below(8) as u8)
        });
        let kernel = Tap::top_left(n);
        let direct = direct_sliding_window(&img, &kernel);
        let mut outputs = Vec::new();
        for hp in HotPath::ALL {
            for t in [0i16, 4] {
                let cfg = ArchConfig::new(n, w)
                    .with_codec(codec)
                    .with_threshold(t)
                    .with_hot_path(hp);
                let whole = run(cfg, &img, &kernel);
                let rows = streamed(cfg, &img, &kernel);
                prop_assert_eq!(&rows.image, &whole.image, "{} w={} T={} {}", codec.name(), w, t, hp.name());
                prop_assert_eq!(rows.stats.fields(), whole.stats.fields());
                if t == 0 {
                    prop_assert_eq!(&whole.image, &direct, "{} w={} lossless", codec.name(), w);
                }
                outputs.push((t, whole));
            }
        }
        // Scalar (first) and sliced agree cell by cell.
        let (scalar, sliced) = outputs.split_at(2);
        for ((t, a), (_, b)) in scalar.iter().zip(sliced) {
            prop_assert_eq!(&a.image, &b.image, "T={} hot paths", t);
            prop_assert_eq!(a.stats.fields(), b.stats.fields());
        }
    }
}
