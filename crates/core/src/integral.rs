//! Integral-image workload engine: the wide instantiation of the datapath.
//!
//! Ehsan et al.'s embedded integral-image architectures stream the
//! summed-area table line by line: row `y`'s line is the previous line plus
//! the current row's prefix sums. Those lines are monotone 32-bit values —
//! exactly the workload the paper's 16-bit coefficient datapath cannot
//! hold — so this engine instantiates the width-generic column codec at
//! [`WideCoeff`] (`i32`, 5-bit NBits fields) and measures whether packed
//! line buffering still pays once the coefficient word doubles.
//!
//! The buffered quantity is the **delta from the previous integral-image
//! line**, which is precisely the current row's prefix-sum line `rs`:
//! `II_y = II_{y−1} + rs_y`. Deltas start small on the left of each row and
//! grow monotonically, so per-segment NBits/BitMap packing tracks the
//! content just as it does for wavelet detail coefficients — until wide
//! rows push every segment toward 20-bit deltas and the management overhead
//! stops paying (experiment E27).
//!
//! # Determinism contract
//!
//! Phase 1 (prefix sums + encode + decode-verify) is per-row independent
//! and runs on the pool via `par_map_indexed`; phase 2 (the running column
//! sum and the digest) is a serial fold in row order. The report is
//! therefore **byte-identical for any `--jobs` value**, and identical
//! between the scalar and bit-sliced hot paths (the conformance harness
//! pins both).

use crate::error::{Result, SwError};
use sw_bitstream::{
    decode_column_checked_into_of, decode_column_sliced_into_of, encode_column_into_of,
    encode_column_sliced_into_of, EncodedColumn, Fnv64, HotPath, Sample,
};
use sw_image::{integral::max_row_prefix_sum, row_prefix_sums, ImageU8};
use sw_pool::ThreadPool;
use sw_wavelet::lanes::add_slices_of;

/// The wide coefficient word integral lines are buffered as.
pub type WideCoeff = i32;

/// Which workload a run exercises: the paper's sliding-window datapath
/// (16-bit coefficients) or the wide integral-image engine (32-bit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Workload {
    /// The sliding-window kernel × codec datapath (the default).
    #[default]
    Window,
    /// The integral-image line-buffer engine at [`WideCoeff`].
    Integral,
}

impl Workload {
    /// Every workload, in fixed order.
    pub const ALL: [Workload; 2] = [Workload::Window, Workload::Integral];

    /// Stable lowercase name (CLI flag value and report field).
    pub fn name(self) -> &'static str {
        match self {
            Workload::Window => "window",
            Workload::Integral => "integral",
        }
    }

    /// Parse a [`Workload::name`] back; `None` for anything else.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// NBits management field width at the wide instantiation (5 bits: values
/// up to 32 must be representable).
pub const WIDE_NBITS_FIELD_BITS: u32 = <WideCoeff as Sample>::NBITS_FIELD_BITS;

/// Configuration for [`analyze_integral`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegralConfig {
    /// Segment length: each buffered line is packed in independent
    /// `segment`-sample columns, each carrying its own NBits field —
    /// the wide analogue of the paper's per-column management granularity.
    pub segment: usize,
    /// Which codec hot path encodes/decodes the segments.
    pub hot_path: HotPath,
}

impl Default for IntegralConfig {
    /// Segments of 8 (the evaluation's default window height) on the
    /// default hot path.
    fn default() -> Self {
        Self {
            segment: 8,
            hot_path: HotPath::default(),
        }
    }
}

/// Memory accounting for one analyzed frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegralReport {
    /// Image width in pixels.
    pub width: usize,
    /// Image height (= number of buffered lines).
    pub height: usize,
    /// Segment length the lines were packed with.
    pub segment: usize,
    /// Payload bits summed over every line (excluding management).
    pub payload_bits_total: u64,
    /// Management bits *per line*: one BitMap bit per sample plus a
    /// 5-bit NBits field per segment. Constant across lines.
    pub management_bits_per_line: u64,
    /// Worst line's total packed cost (payload + management) — what a
    /// single compressed line buffer must be provisioned for.
    pub peak_line_bits: u64,
    /// Raw cost of one uncompressed line: `width × 32`.
    pub raw_line_bits: u64,
    /// FNV-1a 64 fingerprint of the reconstructed integral-image lines
    /// (dimensions, then every line's raw words in raster order).
    pub digest: u64,
}

impl IntegralReport {
    /// Peak saving of the packed line buffer versus a raw `i32` line,
    /// management included. Negative when packing stops paying.
    pub fn memory_saving_pct(&self) -> f64 {
        (1.0 - self.peak_line_bits as f64 / self.raw_line_bits as f64) * 100.0
    }

    /// Mean packed line cost (payload + management) in bits.
    pub fn mean_line_bits(&self) -> f64 {
        (self.payload_bits_total as f64 + self.management_bits_per_line as f64 * self.height as f64)
            / self.height as f64
    }
}

/// One row's phase-1 product: its verified prefix-sum line and the packed
/// cost of buffering it.
struct PackedLine {
    rs: Vec<WideCoeff>,
    payload_bits: u64,
}

fn pack_line(
    y: usize,
    row: &[u8],
    cfg: &IntegralConfig,
    enc: &mut EncodedColumn,
    dec: &mut Vec<WideCoeff>,
) -> Result<PackedLine> {
    let rs = row_prefix_sums(row);
    let mut payload_bits = 0u64;
    for (s, seg) in rs.chunks(cfg.segment).enumerate() {
        match cfg.hot_path {
            HotPath::Scalar => encode_column_into_of::<WideCoeff>(seg, 0, enc),
            HotPath::Sliced => encode_column_sliced_into_of::<WideCoeff>(seg, 0, enc),
        }
        payload_bits += enc.payload_bits;
        let decoded = match cfg.hot_path {
            HotPath::Scalar => decode_column_checked_into_of::<WideCoeff>(enc, dec),
            HotPath::Sliced => decode_column_sliced_into_of::<WideCoeff>(enc, dec),
        };
        decoded.map_err(|detail| {
            SwError::config(format!("integral line {y} segment {s}: {detail}"))
        })?;
        if dec != seg {
            return Err(SwError::config(format!(
                "integral line {y} segment {s}: lossless roundtrip mismatch"
            )));
        }
    }
    Ok(PackedLine { rs, payload_bits })
}

/// Stream `img` through the wide packed line buffer and account for it.
///
/// Every row's prefix-sum line is packed at threshold 0 (the integral
/// image is exact by definition — there is no lossy mode), decoded back,
/// verified, and folded into the running integral-image line whose raw
/// words feed the report digest.
///
/// # Errors
///
/// Rejects `segment = 0` and widths whose prefix sums could leave
/// [`WideCoeff`]; decode-guard failures (impossible unless the codec is
/// broken) surface as errors rather than panics.
pub fn analyze_integral(
    img: &ImageU8,
    cfg: &IntegralConfig,
    pool: &ThreadPool,
) -> Result<IntegralReport> {
    let (w, h) = (img.width(), img.height());
    if cfg.segment == 0 {
        return Err(SwError::config("integral segment must be >= 1"));
    }
    if max_row_prefix_sum(w) > i64::from(WideCoeff::MAX) {
        return Err(SwError::config(format!(
            "width {w} overflows the {}-bit line word",
            WideCoeff::BITS
        )));
    }

    // Phase 1: rows are independent — prefix-sum, pack, decode, verify.
    let lines = pool.par_map_indexed(h, |y| {
        let mut enc = EncodedColumn::default();
        let mut dec = Vec::with_capacity(cfg.segment);
        pack_line(y, img.row(y), cfg, &mut enc, &mut dec)
    });

    // Phase 2: serial fold in row order — the running column sum is the
    // integral-image line, digested raw.
    let management_bits_per_line =
        w as u64 + w.div_ceil(cfg.segment) as u64 * u64::from(WIDE_NBITS_FIELD_BITS);
    let mut ii = vec![0 as WideCoeff; w];
    let mut next = vec![0 as WideCoeff; w];
    let mut digest = Fnv64::new();
    digest.write_u64(w as u64);
    digest.write_u64(h as u64);
    let mut payload_bits_total = 0u64;
    let mut peak_line_bits = 0u64;
    for line in lines {
        let line = line?;
        match cfg.hot_path {
            HotPath::Scalar => {
                for ((d, &a), &b) in next.iter_mut().zip(&ii).zip(&line.rs) {
                    *d = a.wrapping_add(b);
                }
            }
            HotPath::Sliced => add_slices_of::<WideCoeff>(&ii, &line.rs, &mut next),
        }
        std::mem::swap(&mut ii, &mut next);
        for &v in &ii {
            digest.write_u64(v.to_raw());
        }
        payload_bits_total += line.payload_bits;
        peak_line_bits = peak_line_bits.max(line.payload_bits + management_bits_per_line);
    }

    Ok(IntegralReport {
        width: w,
        height: h,
        segment: cfg.segment,
        payload_bits_total,
        management_bits_per_line,
        peak_line_bits,
        raw_line_bits: w as u64 * u64::from(WideCoeff::BITS),
        digest: digest.finish(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_image::reference_integral_image;

    fn gradient(w: usize, h: usize) -> ImageU8 {
        ImageU8::from_fn(w, h, |x, y| ((x * 7 + y * 13) % 256) as u8)
    }

    fn cfg(hot_path: HotPath) -> IntegralConfig {
        IntegralConfig {
            segment: 8,
            hot_path,
        }
    }

    #[test]
    fn hot_paths_and_jobs_agree_bit_for_bit() {
        let img = gradient(64, 24);
        let p1 = ThreadPool::new(1);
        let p4 = ThreadPool::new(4);
        let scalar = analyze_integral(&img, &cfg(HotPath::Scalar), &p1).unwrap();
        let sliced = analyze_integral(&img, &cfg(HotPath::Sliced), &p4).unwrap();
        assert_eq!(scalar, sliced);
    }

    #[test]
    fn digest_matches_the_reference_integral_image() {
        let img = gradient(33, 9); // odd width exercises segment remainders
        let pool = ThreadPool::new(2);
        let report = analyze_integral(&img, &IntegralConfig::default(), &pool).unwrap();
        let reference = reference_integral_image(&img);
        let mut h = Fnv64::new();
        h.write_u64(33);
        h.write_u64(9);
        for &v in &reference {
            h.write_u64((v as i32).to_raw());
        }
        assert_eq!(report.digest, h.finish());
    }

    #[test]
    fn white_frame_saves_nothing_but_stays_lossless() {
        // All-255 rows make every delta large; packing must still be exact
        // and the report must admit the (near-)zero saving honestly.
        let img = ImageU8::filled(256, 8, 255);
        let pool = ThreadPool::new(1);
        let report = analyze_integral(&img, &IntegralConfig::default(), &pool).unwrap();
        assert!(report.peak_line_bits > 0);
        assert!(report.memory_saving_pct() < 50.0);
    }

    #[test]
    fn dark_frame_compresses_hard() {
        let img = ImageU8::filled(256, 8, 1);
        let pool = ThreadPool::new(1);
        let report = analyze_integral(&img, &IntegralConfig::default(), &pool).unwrap();
        // Deltas fit in ≤ 9 bits everywhere; most of the 32-bit raw line
        // should be recovered.
        assert!(report.memory_saving_pct() > 50.0, "{report:?}");
    }

    #[test]
    fn geometry_guards_reject_bad_configs() {
        let img = gradient(16, 4);
        let pool = ThreadPool::new(1);
        let bad = IntegralConfig {
            segment: 0,
            hot_path: HotPath::Scalar,
        };
        assert!(analyze_integral(&img, &bad, &pool).is_err());
    }

    #[test]
    fn accounting_identities_hold() {
        let img = gradient(40, 6);
        let pool = ThreadPool::new(1);
        let r = analyze_integral(&img, &IntegralConfig::default(), &pool).unwrap();
        assert_eq!(r.raw_line_bits, 40 * 32);
        assert_eq!(r.management_bits_per_line, 40 + 5 * 5);
        assert!(r.peak_line_bits >= r.management_bits_per_line);
        assert!(r.mean_line_bits() <= r.peak_line_bits as f64);
    }
}
