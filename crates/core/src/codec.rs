//! Pluggable line-buffer codecs — the compression axis of the architecture.
//!
//! The paper's core idea is to swap raw line buffers for compressed ones;
//! *which* codec sits between the window and the memory unit is the design
//! axis the paper itself explores (it rejects LeGall 5/3 and predictive
//! schemes like JPEG-LS in favour of single-level Haar, Section IV-C).
//! This module makes that axis first-class: a [`LineCodec`] turns the
//! columns evicted from the active window into an encoded *group* riding
//! the memory unit, and back. The generic datapath in [`crate::arch`] is
//! identical for every codec; only the group width and the bit accounting
//! differ.
//!
//! | codec | group | sub-band layout | management bits / column |
//! |---|---|---|---|
//! | [`RawCodec`] | 1 | none (raw rows 1..N) | 0 |
//! | [`HaarIwtCodec`] | 2 | LL, LH, HL, HH | 8 + N |
//! | [`HaarTwoLevelCodec`] | 4 | LL2..HH2 + 6 level-1 details | 10 + N |
//! | [`LeGall53Codec`] | 1 | low, high | 8 + N |
//! | [`LocoIPredictiveCodec`] | 1 | none (predictive bytes) | 16 |
//!
//! A codec is free to be lossy under a threshold ([`HaarIwtCodec`],
//! [`HaarTwoLevelCodec`], [`LeGall53Codec`]) or inherently lossless
//! ([`RawCodec`], [`LocoIPredictiveCodec`], which ignore the threshold).

use crate::config::{ArchConfig, CoeffMode};
use crate::faults::FaultSite;
use crate::window::{RowBand, RowBandMut};
use crate::{Coeff, Pixel};
use sw_bitstream::locoi::{locoi_encode, locoi_try_decode};
use sw_bitstream::{
    decode_column_checked, decode_column_strided_into_of, encode_column,
    min_bits_significant_columns_of, pack_column_into_of, CodecTelemetry, EncodedColumn, HotPath,
    Sample, NBITS_FIELD_BITS,
};
use sw_image::ImageU8;
use sw_telemetry::TelemetryHandle;
use sw_wavelet::haar2d::{ColumnPairInverse, ColumnPairTransformer, SubbandColumn};
use sw_wavelet::lanes::{
    haar_fwd_interleaved, haar_fwd_slices, haar_inv_interleaved, haar_inv_slices,
    legall53_fwd_lanes, legall53_inv_lanes,
};
use sw_wavelet::legall::{legall53_forward, legall53_inverse};
use sw_wavelet::SubBand;

/// The codecs a sliding window architecture can buffer its lines through.
///
/// This is the value-level selector ([`ArchConfig::codec`] and the CLI
/// `--codec` flag); the type-level side is the [`LineCodec`] impls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LineCodecKind {
    /// No compression: the traditional raw line buffers (Section III).
    Raw,
    /// Single-level Haar IWT + threshold + bit packing — the paper's codec.
    #[default]
    Haar,
    /// Two-level Haar: the LL band recurses once more (the extension the
    /// paper declined, Section IV-C).
    Haar2,
    /// LeGall 5/3 reversible integer wavelet (the JPEG 2000 lossless
    /// filter the paper rejects on hardware grounds).
    Legall,
    /// LOCO-I / JPEG-LS-style predictive coder (paper ref \[8]);
    /// inherently lossless — the threshold is ignored.
    Locoi,
}

impl LineCodecKind {
    /// Every codec, in CLI order.
    pub const ALL: [LineCodecKind; 5] = [
        LineCodecKind::Raw,
        LineCodecKind::Haar,
        LineCodecKind::Haar2,
        LineCodecKind::Legall,
        LineCodecKind::Locoi,
    ];

    /// The CLI name (`raw`, `haar`, `haar2`, `legall`, `locoi`).
    pub fn name(self) -> &'static str {
        match self {
            LineCodecKind::Raw => "raw",
            LineCodecKind::Haar => "haar",
            LineCodecKind::Haar2 => "haar2",
            LineCodecKind::Legall => "legall",
            LineCodecKind::Locoi => "locoi",
        }
    }

    /// Parse a CLI name; inverse of [`LineCodecKind::name`].
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Raw image columns per encoded group (the codec's batching factor).
    pub fn group_width(self) -> usize {
        match self {
            LineCodecKind::Haar => 2,
            LineCodecKind::Haar2 => 4,
            _ => 1,
        }
    }

    /// Whether the threshold has any effect (predictive/raw codecs are
    /// inherently lossless and ignore it).
    pub fn is_lossy_capable(self) -> bool {
        !matches!(self, LineCodecKind::Raw | LineCodecKind::Locoi)
    }

    /// Whether a cycle-level RTL model of this codec's datapath exists
    /// ([`crate::rtl`]). Only the paper's Haar pipeline has one today; the
    /// conformance RTL matrix iterates this hook so that an RTL model added
    /// for another codec is picked up by the differential tests without
    /// touching them.
    pub fn has_rtl_model(self) -> bool {
        matches!(self, LineCodecKind::Haar)
    }

    /// Static management-bit requirement of the buffered span.
    ///
    /// * `raw` stores nothing beyond the pixels;
    /// * `haar` needs the paper's `2×4` NBits + `N` BitMap bits per column;
    /// * `haar2` amortizes ten NBits fields over each 4-column quad plus
    ///   the BitMap (`10 + N` per column);
    /// * `legall` packs two sub-band columns per image column (`8 + N`);
    /// * `locoi` stores one 16-bit record-length field per column.
    pub fn management_bits(self, cfg: &ArchConfig) -> u64 {
        let cols = cfg.fifo_depth() as u64;
        let n = cfg.window as u64;
        match self {
            LineCodecKind::Raw => 0,
            LineCodecKind::Haar => cfg.management_bits(),
            LineCodecKind::Haar2 => cols * (10 + n),
            LineCodecKind::Legall => cols * (8 + n),
            LineCodecKind::Locoi => cols * 16,
        }
    }

    /// Raw bits the same buffered span occupies uncompressed — the
    /// denominator of the paper's Equation 5.
    ///
    /// The traditional architecture physically stores only `N − 1` rows
    /// per column (the bottom row streams straight in), so `raw` spans
    /// `(W−N)×(N−1)×pixel_bits`; the compressed architectures recirculate
    /// whole `N`-pixel columns, spanning `(W−N)×N×pixel_bits`.
    pub fn raw_span_bits(self, cfg: &ArchConfig) -> u64 {
        match self {
            LineCodecKind::Raw => cfg.traditional_buffer_bits(),
            _ => cfg.fifo_depth() as u64 * cfg.window as u64 * cfg.pixel_bits as u64,
        }
    }
}

/// One encoded column group plus its cost accounting.
#[derive(Debug, Clone, Default)]
pub struct EncodedGroup<E> {
    /// The codec's opaque encoded form.
    pub data: E,
    /// Payload bits this group occupies in the memory unit.
    pub payload_bits: u64,
    /// Payload bits attributed to `[LL, LH, HL, HH]` (codecs without a
    /// sub-band structure report everything under the first slot).
    pub per_band_bits: [u64; 4],
}

/// A line-buffer codec: encodes groups of raw columns evicted from the
/// active window into the form that rides the memory unit, and decodes
/// them back into raw columns on exit.
///
/// A codec is a pure column transformer — the generic datapath in
/// [`crate::arch::SlidingWindow`] owns all queueing, occupancy accounting,
/// trace emission and telemetry (it reports each group it actually pushes
/// or delivers through [`LineCodec::record_encoded`] /
/// [`LineCodec::record_decoded`]; encoding and decoding record nothing).
/// `encode_group` always receives exactly [`LineCodec::group_width`]
/// columns of `cfg.window` coefficients; `decode_group` must return the
/// same number of columns, each `cfg.window` pixels tall.
///
/// The datapath works a row at a time through [`LineCodec::encode_row`]
/// and [`LineCodec::decode_row`]; their defaults loop the per-group
/// methods, and a codec may override them with a lane-parallel form that
/// produces the identical per-group records and pixels.
pub trait LineCodec {
    /// Coefficient word the codec's datapath carries. Every paper codec is
    /// a [`Coeff`] (i16) instance; the integral-image engine instantiates
    /// the wide i32 word, and the generic datapath in
    /// [`crate::arch::SlidingWindow`] sizes its staging buffers and bit
    /// accounting from `Sample::BITS` instead of a fixed constant.
    type Sample: Sample;

    /// Opaque encoded form of one column group. The default value is an
    /// empty record the encoders refill in place.
    type Encoded: Default;

    /// Build the codec for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration's geometry cannot support the codec
    /// (each implementation documents its requirement).
    fn new(cfg: &ArchConfig) -> Self
    where
        Self: Sized;

    /// The value-level selector this codec implements.
    fn kind(&self) -> LineCodecKind;

    /// Raw columns per encoded group.
    fn group_width(&self) -> usize {
        self.kind().group_width()
    }

    /// Encode one group of raw columns (as coefficients) with full cost
    /// accounting.
    fn encode_group(&mut self, cols: &[Vec<Self::Sample>]) -> EncodedGroup<Self::Encoded>;

    /// Encode one group, optionally reusing the buffers of a retired
    /// encoded record (one that already made its round trip through the
    /// memory unit). Codecs with a sliced hot path overwrite the recycled
    /// record in place instead of allocating a fresh one; the default
    /// simply drops it and delegates to [`LineCodec::encode_group`].
    fn encode_group_reuse(
        &mut self,
        cols: &[Vec<Self::Sample>],
        recycled: Option<Self::Encoded>,
    ) -> EncodedGroup<Self::Encoded> {
        let _ = recycled;
        self.encode_group(cols)
    }

    /// Decode a group back into raw pixel columns, in eviction order,
    /// running the codec's consistency guards: a corrupted encoding
    /// (bit-flipped NBits/BitMap/payload) either trips a guard (`Err`)
    /// or decodes to bounded wrong pixels — never a panic.
    fn try_decode_group(&mut self, enc: &Self::Encoded) -> Result<Vec<Vec<Pixel>>, String>;

    /// Decode a group into a caller-provided container, reusing its
    /// column buffers. Codecs with a sliced hot path fill `out` without
    /// allocating; the default delegates to
    /// [`LineCodec::try_decode_group`] and replaces `out` wholesale.
    ///
    /// # Errors
    ///
    /// Exactly the failures of [`LineCodec::try_decode_group`]; on error
    /// the contents of `out` are unspecified.
    fn try_decode_group_into(
        &mut self,
        enc: &Self::Encoded,
        out: &mut Vec<Vec<Pixel>>,
    ) -> Result<(), String> {
        *out = self.try_decode_group(enc)?;
        Ok(())
    }

    /// Decode a group back into raw pixel columns, in eviction order.
    ///
    /// # Panics
    ///
    /// Panics where [`LineCodec::try_decode_group`] would return `Err`.
    fn decode_group(&mut self, enc: &Self::Encoded) -> Vec<Vec<Pixel>> {
        match self.try_decode_group(enc) {
            Ok(cols) => cols,
            Err(e) => panic!("corrupt {} group: {e}", self.kind().name()),
        }
    }

    /// Encode the consecutive groups of `cols` (`cols.n()` = `cfg.window`
    /// rows, `out.len()` groups wide) into `out`, one slot per group in
    /// column order, overwriting each slot's record in place (its buffers
    /// are reused). Must equal [`LineCodec::encode_group_reuse`] applied
    /// group by group, which is the default.
    fn encode_row(&mut self, cols: &RowBand<'_>, out: &mut [EncodedGroup<Self::Encoded>]) {
        encode_row_per_group(self, cols, out);
    }

    /// Decode consecutive groups into consecutive columns of `out`
    /// (`cfg.window` rows, one group width per record). On a failed
    /// consistency guard, returns the failing group's index and the
    /// guard's message; the groups before it are decoded. Must equal
    /// [`LineCodec::try_decode_group_into`] applied group by group, which
    /// is the default.
    fn decode_row<'e, I>(
        &mut self,
        groups: I,
        out: &mut RowBandMut<'_>,
    ) -> Result<(), (usize, String)>
    where
        I: Iterator<Item = &'e Self::Encoded>,
        Self::Encoded: 'e,
    {
        decode_row_per_group(self, groups, out)
    }

    /// Record one group the datapath stored (codec telemetry).
    fn record_encoded(&mut self, _enc: &Self::Encoded) {}

    /// Record one group the datapath delivered for decoding.
    fn record_decoded(&mut self, _enc: &Self::Encoded) {}

    /// Flip one deterministic bit of the encoded form (fault injection;
    /// see [`crate::faults`]). The default is a no-op for codecs without
    /// a mutable encoded surface.
    fn corrupt(&self, _enc: &mut Self::Encoded, _site: FaultSite, _bit: u64) {}

    /// Clear any internal state (frame boundary).
    fn reset(&mut self) {}

    /// Attach per-codec telemetry under `prefix` (e.g. `stage.s0`).
    fn bind_telemetry(&mut self, _telemetry: &TelemetryHandle, _prefix: &str) {}

    /// Publish the codec telemetry recorded since the last flush (once
    /// per frame; dropping the codec publishes too).
    fn flush_telemetry(&mut self) {}
}

/// [`LineCodec::encode_row`] as a loop over
/// [`LineCodec::encode_group_reuse`].
fn encode_row_per_group<C: LineCodec + ?Sized>(
    codec: &mut C,
    cols: &RowBand<'_>,
    out: &mut [EncodedGroup<C::Encoded>],
) {
    let g = codec.group_width();
    debug_assert_eq!(cols.width(), out.len() * g, "one slot per group");
    let mut staging = vec![vec![<C::Sample as Sample>::ZERO; cols.n()]; g];
    for (i, slot) in out.iter_mut().enumerate() {
        for (m, col) in staging.iter_mut().enumerate() {
            cols.read_column(i * g + m, col, <C::Sample as Sample>::from_pixel);
        }
        let recycled = std::mem::take(&mut slot.data);
        *slot = codec.encode_group_reuse(&staging, Some(recycled));
    }
}

/// [`LineCodec::decode_row`] as a loop over
/// [`LineCodec::try_decode_group_into`].
fn decode_row_per_group<'e, C, I>(
    codec: &mut C,
    groups: I,
    out: &mut RowBandMut<'_>,
) -> Result<(), (usize, String)>
where
    C: LineCodec + ?Sized,
    I: Iterator<Item = &'e C::Encoded>,
    C::Encoded: 'e,
{
    let g = codec.group_width();
    let mut cols = Vec::new();
    for (i, enc) in groups.enumerate() {
        codec
            .try_decode_group_into(enc, &mut cols)
            .map_err(|e| (i, e))?;
        if cols.len() != g {
            return Err((
                i,
                format!("decoded group holds {} columns, expected {g}", cols.len()),
            ));
        }
        for (m, col) in cols.iter().enumerate() {
            out.write_column(i * g + m, col);
        }
    }
    Ok(())
}

/// Flip one bit of an [`EncodedColumn`] at the requested fault site.
///
/// NBits upsets flip a bit of the 4-bit management *field* (which stores
/// `nbits − 1`), exactly as a BRAM bit flip would, so the corrupted width
/// stays in the representable 1..=16 range — it is the payload-length
/// consistency guard, not a range check, that detects it.
fn flip_in_column(col: &mut EncodedColumn, site: FaultSite, bit: u64) {
    match site {
        FaultSite::Payload if !col.payload.is_empty() => {
            let pos = (bit % (col.payload.len() as u64 * 8)) as usize;
            col.payload[pos / 8] ^= 1 << (pos % 8);
        }
        // An empty payload leaves nothing to hit; the upset lands in the
        // adjacent management word instead.
        FaultSite::Payload | FaultSite::Nbits => {
            let field = col.nbits.wrapping_sub(1) & 0xf;
            col.nbits = (field ^ (1 << (bit % u64::from(NBITS_FIELD_BITS)))) + 1;
        }
        FaultSite::Bitmap if !col.bitmap.is_empty() => {
            let pos = (bit % col.bitmap.len() as u64) as usize;
            col.bitmap.set(pos, !col.bitmap.get(pos));
        }
        _ => {}
    }
}

/// Pick the column a fault lands in: a rotation of `bit`'s high half,
/// skipping payload-free columns for payload flips so the fault has
/// something to hit.
fn pick_column(cols: &[&EncodedColumn], site: FaultSite, bit: u64) -> usize {
    let n = cols.len().max(1);
    let start = ((bit >> 32) as usize) % n;
    if site == FaultSite::Payload {
        (0..n)
            .map(|i| (start + i) % n)
            .find(|&i| !cols[i].payload.is_empty())
            .unwrap_or(start)
    } else {
        start
    }
}

/// Scratch planes of the lane-parallel (`HotPath::Sliced`) codec forms.
///
/// A *plane* is row-major with one lane per image column (or per
/// sub-band column): coefficient `i` of lane `j` sits at `i * lanes + j`.
/// Every transform, threshold and NBits scan then runs as elementwise
/// loops across a row of lanes; only the final bit packing and unpacking
/// walk one column at a time, because each column is its own record.
#[derive(Debug, Clone, Default)]
struct Planes {
    /// Pixels (or reconstructed coefficients), `N` rows.
    x: Vec<Coeff>,
    /// Vertical-stage lifting outputs.
    lo: Vec<Coeff>,
    hi: Vec<Coeff>,
    /// Sub-band planes `[LL, LH, HL, HH]` (LeGall: `[low, high, –, –]`).
    bands: [Vec<Coeff>; 4],
    /// Level-2 sub-band planes (two-level Haar only).
    bands2: [Vec<Coeff>; 4],
    /// NBits widths per lane, per band.
    widths: [Vec<u32>; 4],
    widths2: [Vec<u32>; 4],
    /// NBits OR-fold scratch.
    fold: Vec<u64>,
}

impl Planes {
    /// Widen a band's pixels into `x`.
    fn widen(&mut self, cols: &RowBand<'_>) {
        self.x.clear();
        for i in 0..cols.n() {
            self.x.extend(cols.row(i).iter().map(|&p| Coeff::from(p)));
        }
    }

    /// Transpose one group's coefficient columns into `x`.
    fn gather(&mut self, cols: &[Vec<Coeff>]) {
        let n = cols.first().map_or(0, Vec::len);
        self.x.clear();
        for i in 0..n {
            self.x.extend(cols.iter().map(|c| c[i]));
        }
    }

    /// Clamp `x` (`lanes` wide) into the first `upto` columns of `out`.
    fn write_pixels(&self, lanes: usize, upto: usize, out: &mut RowBandMut<'_>) {
        for i in 0..out.n() {
            let src = &self.x[i * lanes..i * lanes + upto];
            for (o, &v) in out.row_mut(i)[..upto].iter_mut().zip(src) {
                *o = v.clamp(0, 255) as Pixel;
            }
        }
    }

    /// Clamp `x` (`lanes` wide) back into per-lane pixel columns.
    fn scatter(&self, lanes: usize, out: &mut Vec<Vec<Pixel>>) {
        let n = self.x.len() / lanes;
        out.resize_with(lanes, Vec::new);
        for (j, col) in out.iter_mut().enumerate() {
            col.clear();
            col.extend((0..n).map(|i| self.x[i * lanes + j].clamp(0, 255) as Pixel));
        }
    }
}

/// Single-level 2-D Haar of a plane `x` (even rows, even lanes) into four
/// sub-band planes of half the rows and half the lanes: the vertical
/// stage lifts row pairs across all lanes, the horizontal stage lifts
/// adjacent lane pairs (image column pairs).
fn haar2d_fwd_plane(
    x: &[Coeff],
    lanes: usize,
    lo: &mut Vec<Coeff>,
    hi: &mut Vec<Coeff>,
    bands: &mut [Vec<Coeff>; 4],
) {
    let half = x.len() / lanes / 2;
    let pairs = lanes / 2;
    lo.resize(half * lanes, 0);
    hi.resize(half * lanes, 0);
    for i in 0..half {
        let rows = &x[2 * i * lanes..(2 * i + 2) * lanes];
        let (even, odd) = rows.split_at(lanes);
        let span = i * lanes..(i + 1) * lanes;
        haar_fwd_slices(even, odd, &mut lo[span.clone()], &mut hi[span]);
    }
    for b in bands.iter_mut() {
        b.resize(half * pairs, 0);
    }
    let [ll, lh, hl, hh] = bands;
    for i in 0..half {
        let (src, dst) = (i * lanes..(i + 1) * lanes, i * pairs..(i + 1) * pairs);
        haar_fwd_interleaved(&lo[src.clone()], &mut ll[dst.clone()], &mut lh[dst.clone()]);
        haar_fwd_interleaved(&hi[src], &mut hl[dst.clone()], &mut hh[dst]);
    }
}

/// Exact inverse of [`haar2d_fwd_plane`]: sub-band planes `pairs` lanes
/// wide back into `x`, `2 × pairs` lanes wide.
fn haar2d_inv_plane(
    bands: &[Vec<Coeff>; 4],
    pairs: usize,
    lo: &mut Vec<Coeff>,
    hi: &mut Vec<Coeff>,
    x: &mut Vec<Coeff>,
) {
    let half = bands[0].len() / pairs;
    let lanes = 2 * pairs;
    lo.resize(half * lanes, 0);
    hi.resize(half * lanes, 0);
    let [ll, lh, hl, hh] = bands;
    for i in 0..half {
        let (src, dst) = (i * pairs..(i + 1) * pairs, i * lanes..(i + 1) * lanes);
        haar_inv_interleaved(&ll[src.clone()], &lh[src.clone()], &mut lo[dst.clone()]);
        haar_inv_interleaved(&hl[src.clone()], &hh[src], &mut hi[dst]);
    }
    x.resize(2 * half * lanes, 0);
    for i in 0..half {
        let (even, odd) = x[2 * i * lanes..(2 * i + 2) * lanes].split_at_mut(lanes);
        let span = i * lanes..(i + 1) * lanes;
        haar_inv_slices(&lo[span.clone()], &hi[span], even, odd);
    }
}

/// NBits width of every lane of `plane` into `widths`.
fn plane_widths(
    plane: &[Coeff],
    lanes: usize,
    t: Coeff,
    fold: &mut Vec<u64>,
    widths: &mut Vec<u32>,
) {
    widths.resize(lanes, 1);
    min_bits_significant_columns_of(plane, lanes, t, fold, widths);
}

/// Pack lane `k` of `plane` with its precomputed width.
fn pack_lane(
    plane: &[Coeff],
    lanes: usize,
    k: usize,
    t: Coeff,
    nbits: u32,
    out: &mut EncodedColumn,
) {
    let rows = plane.len() / lanes;
    pack_column_into_of((0..rows).map(|i| plane[i * lanes + k]), t, nbits, out);
}

/// Unpack one encoded column into lane `k` of `plane`.
fn unpack_lane(
    enc: &EncodedColumn,
    plane: &mut [Coeff],
    lanes: usize,
    k: usize,
) -> Result<(), String> {
    decode_column_strided_into_of(enc, &mut plane[k..], lanes)
}

/// The no-op codec of the traditional architecture: stores the evicted
/// column's rows `1..N` verbatim (row 0 retires; the hardware's `N − 1`
/// line FIFOs never see it).
#[derive(Debug, Clone)]
pub struct RawCodec {
    window: usize,
    pixel_bits: u32,
    hot_path: HotPath,
}

impl RawCodec {
    fn check(&self, enc: &[Pixel]) -> Result<(), String> {
        if enc.len() == self.window - 1 {
            Ok(())
        } else {
            Err(format!(
                "raw record holds {} rows, window needs {}",
                enc.len(),
                self.window - 1
            ))
        }
    }

    fn group(&self, data: Vec<Pixel>) -> EncodedGroup<Vec<Pixel>> {
        let bits = (self.window as u64 - 1) * self.pixel_bits as u64;
        EncodedGroup {
            data,
            payload_bits: bits,
            per_band_bits: [bits, 0, 0, 0],
        }
    }
}

impl LineCodec for RawCodec {
    type Sample = Coeff;
    type Encoded = Vec<Pixel>;

    fn new(cfg: &ArchConfig) -> Self {
        Self {
            window: cfg.window,
            pixel_bits: cfg.pixel_bits,
            hot_path: cfg.hot_path,
        }
    }

    fn kind(&self) -> LineCodecKind {
        LineCodecKind::Raw
    }

    fn encode_group(&mut self, cols: &[Vec<Coeff>]) -> EncodedGroup<Self::Encoded> {
        self.encode_group_reuse(cols, None)
    }

    /// Refills the recycled record in place: no allocation once warm.
    fn encode_group_reuse(
        &mut self,
        cols: &[Vec<Coeff>],
        recycled: Option<Self::Encoded>,
    ) -> EncodedGroup<Self::Encoded> {
        debug_assert_eq!(cols.len(), 1);
        let mut data = recycled.unwrap_or_default();
        data.clear();
        data.extend(cols[0][1..].iter().map(|&c| c.clamp(0, 255) as Pixel));
        self.group(data)
    }

    /// The lane-parallel form: each record is its column's rows `1..N`.
    fn encode_row(&mut self, cols: &RowBand<'_>, out: &mut [EncodedGroup<Self::Encoded>]) {
        if self.hot_path == HotPath::Scalar {
            return encode_row_per_group(self, cols, out);
        }
        for slot in out.iter_mut() {
            let mut data = std::mem::take(&mut slot.data);
            data.clear();
            *slot = self.group(data);
        }
        for i in 1..cols.n() {
            for (slot, &p) in out.iter_mut().zip(cols.row(i)) {
                slot.data.push(p);
            }
        }
    }

    fn try_decode_group(&mut self, enc: &Self::Encoded) -> Result<Vec<Vec<Pixel>>, String> {
        let mut out = Vec::new();
        self.try_decode_group_into(enc, &mut out)?;
        Ok(out)
    }

    /// Writes into the caller's column buffer: no allocation once warm.
    fn try_decode_group_into(
        &mut self,
        enc: &Self::Encoded,
        out: &mut Vec<Vec<Pixel>>,
    ) -> Result<(), String> {
        self.check(enc)?;
        // Row 0 retired on eviction; the datapath only reads rows 1..N of
        // a delivered column, so slot 0 is a don't-care.
        out.resize_with(1, Vec::new);
        let col = &mut out[0];
        col.clear();
        col.push(0);
        col.extend_from_slice(enc);
        Ok(())
    }

    fn decode_row<'e, I>(
        &mut self,
        groups: I,
        out: &mut RowBandMut<'_>,
    ) -> Result<(), (usize, String)>
    where
        I: Iterator<Item = &'e Self::Encoded>,
        Self::Encoded: 'e,
    {
        if self.hot_path == HotPath::Scalar {
            return decode_row_per_group(self, groups, out);
        }
        for (j, enc) in groups.enumerate() {
            self.check(enc).map_err(|e| (j, e))?;
            out.row_mut(0)[j] = 0;
            for (i, &p) in enc.iter().enumerate() {
                out.row_mut(i + 1)[j] = p;
            }
        }
        Ok(())
    }

    fn corrupt(&self, enc: &mut Self::Encoded, _site: FaultSite, bit: u64) {
        // Raw storage has no management structure: every site degrades to
        // a pixel bit flip — corruption is bounded, never detectable.
        if enc.is_empty() {
            return;
        }
        let pos = (bit % (enc.len() as u64 * 8)) as usize;
        enc[pos / 8] ^= 1 << (pos % 8);
    }
}

/// The paper's codec: single-level integer Haar over column pairs,
/// details thresholded and clamped per [`crate::config::CoeffMode`], each
/// sub-band column bit-packed via `sw-bitstream` (NBits + BitMap +
/// payload).
#[derive(Debug, Clone)]
pub struct HaarIwtCodec {
    cfg: ArchConfig,
    fwd: ColumnPairTransformer,
    inv: ColumnPairInverse,
    codec: CodecTelemetry,
    /// Lane-parallel scratch (the sliced hot path).
    planes: Planes,
}

impl HaarIwtCodec {
    fn enc(&self, half: &[Coeff], band: SubBand) -> EncodedColumn {
        let t_band = self.cfg.policy.threshold_for(band, self.cfg.threshold);
        if band.is_detail() {
            // The configured datapath width saturates detail coefficients
            // (LL fits any mode: it stays in pixel range).
            let clamped: Vec<Coeff> = half
                .iter()
                .map(|&c| self.cfg.coeff_mode.clamp_detail(c))
                .collect();
            encode_column(&clamped, t_band)
        } else {
            encode_column(half, t_band)
        }
    }

    /// Encode the groups of `planes.x` (`lanes` image columns): the 2-D
    /// transform, detail clamp and NBits scan across all lanes at once,
    /// then one record per column pair.
    fn encode_plane(&mut self, lanes: usize, out: &mut [EncodedGroup<[EncodedColumn; 4]>]) {
        let cfg = self.cfg;
        let p = &mut self.planes;
        let pairs = lanes / 2;
        haar2d_fwd_plane(&p.x, lanes, &mut p.lo, &mut p.hi, &mut p.bands);
        if cfg.coeff_mode != CoeffMode::Exact {
            for band in &mut p.bands[1..] {
                for c in band.iter_mut() {
                    *c = cfg.coeff_mode.clamp_detail(*c);
                }
            }
        }
        let t = SubBand::ALL.map(|b| cfg.policy.threshold_for(b, cfg.threshold));
        for ((plane, widths), &t) in p.bands.iter().zip(&mut p.widths).zip(&t) {
            plane_widths(plane, pairs, t, &mut p.fold, widths);
        }
        for (k, slot) in out.iter_mut().enumerate() {
            let mut per_band = [0u64; 4];
            for (b, (col, bits)) in slot.data.iter_mut().zip(&mut per_band).enumerate() {
                pack_lane(&p.bands[b], pairs, k, t[b], p.widths[b][k], col);
                *bits = col.payload_bits;
            }
            slot.payload_bits = per_band.iter().sum();
            slot.per_band_bits = per_band;
        }
    }

    /// Unpack `groups` into the sub-band planes (`pairs` lanes) and invert
    /// them into `planes.x`. Returns how many groups decoded and the first
    /// failure.
    fn decode_plane<'e>(
        &mut self,
        groups: impl Iterator<Item = &'e [EncodedColumn; 4]>,
        pairs: usize,
    ) -> (usize, Option<(usize, String)>) {
        let p = &mut self.planes;
        let half = self.cfg.window / 2;
        for band in &mut p.bands {
            band.resize(half * pairs, 0);
        }
        let mut done = 0;
        let mut failure = None;
        'groups: for (k, enc) in groups.enumerate() {
            for (e, plane) in enc.iter().zip(&mut p.bands) {
                if let Err(detail) = unpack_lane(e, plane, pairs, k) {
                    failure = Some((k, detail));
                    break 'groups;
                }
            }
            done += 1;
        }
        haar2d_inv_plane(&p.bands, pairs, &mut p.lo, &mut p.hi, &mut p.x);
        (done, failure)
    }
}

impl LineCodec for HaarIwtCodec {
    type Sample = Coeff;
    /// `[LL, LH, HL, HH]` of one column pair.
    type Encoded = [EncodedColumn; 4];

    fn new(cfg: &ArchConfig) -> Self {
        assert!(
            cfg.width >= cfg.window + 2,
            "compressed architecture needs width >= window + 2"
        );
        Self {
            cfg: *cfg,
            fwd: ColumnPairTransformer::new(cfg.window),
            inv: ColumnPairInverse::new(cfg.window),
            codec: CodecTelemetry::noop(),
            planes: Planes::default(),
        }
    }

    fn kind(&self) -> LineCodecKind {
        LineCodecKind::Haar
    }

    fn encode_group(&mut self, cols: &[Vec<Coeff>]) -> EncodedGroup<Self::Encoded> {
        self.encode_group_reuse(cols, None)
    }

    fn encode_group_reuse(
        &mut self,
        cols: &[Vec<Coeff>],
        recycled: Option<Self::Encoded>,
    ) -> EncodedGroup<Self::Encoded> {
        debug_assert_eq!(cols.len(), 2);
        if self.cfg.hot_path == HotPath::Scalar {
            let none = self.fwd.push_column(&cols[0]);
            debug_assert!(none.is_none());
            let Some(pair) = self.fwd.push_column(&cols[1]) else {
                unreachable!("second column completes the pair")
            };
            let encoded = [
                self.enc(pair.even.first_half(), SubBand::LL),
                self.enc(pair.even.second_half(), SubBand::LH),
                self.enc(pair.odd.first_half(), SubBand::HL),
                self.enc(pair.odd.second_half(), SubBand::HH),
            ];
            let mut per_band = [0u64; 4];
            for (slot, e) in per_band.iter_mut().zip(&encoded) {
                *slot = e.payload_bits;
            }
            return EncodedGroup {
                payload_bits: per_band.iter().sum(),
                per_band_bits: per_band,
                data: encoded,
            };
        }
        // One group is the two-lane case of the row form.
        self.planes.gather(cols);
        let mut one = [EncodedGroup {
            data: recycled.unwrap_or_default(),
            ..EncodedGroup::default()
        }];
        self.encode_plane(2, &mut one);
        let [group] = one;
        group
    }

    fn encode_row(&mut self, cols: &RowBand<'_>, out: &mut [EncodedGroup<Self::Encoded>]) {
        if self.cfg.hot_path == HotPath::Scalar {
            return encode_row_per_group(self, cols, out);
        }
        self.planes.widen(cols);
        self.encode_plane(cols.width(), out);
    }

    fn try_decode_group(&mut self, enc: &Self::Encoded) -> Result<Vec<Vec<Pixel>>, String> {
        if self.cfg.hot_path != HotPath::Scalar {
            let mut out = Vec::new();
            self.try_decode_group_into(enc, &mut out)?;
            return Ok(out);
        }
        let ll = decode_column_checked(&enc[0])?;
        let lh = decode_column_checked(&enc[1])?;
        let hl = decode_column_checked(&enc[2])?;
        let hh = decode_column_checked(&enc[3])?;
        let even = SubbandColumn {
            bands: (SubBand::LL, SubBand::LH),
            coeffs: ll.into_iter().chain(lh).collect(),
        };
        let odd = SubbandColumn {
            bands: (SubBand::HL, SubBand::HH),
            coeffs: hl.into_iter().chain(hh).collect(),
        };
        debug_assert!(!self.inv.has_pending());
        let none = self.inv.push_column(even);
        debug_assert!(none.is_none());
        let Some((c0, c1)) = self.inv.push_column(odd) else {
            unreachable!("pair reconstructs two columns")
        };
        let clamp = |v: Coeff| v.clamp(0, 255) as Pixel;
        Ok(vec![
            c0.into_iter().map(clamp).collect(),
            c1.into_iter().map(clamp).collect(),
        ])
    }

    fn try_decode_group_into(
        &mut self,
        enc: &Self::Encoded,
        out: &mut Vec<Vec<Pixel>>,
    ) -> Result<(), String> {
        if self.cfg.hot_path == HotPath::Scalar {
            *out = self.try_decode_group(enc)?;
            return Ok(());
        }
        if let (_, Some((_, detail))) = self.decode_plane(std::iter::once(enc), 1) {
            return Err(detail);
        }
        self.planes.scatter(2, out);
        Ok(())
    }

    fn decode_row<'e, I>(
        &mut self,
        groups: I,
        out: &mut RowBandMut<'_>,
    ) -> Result<(), (usize, String)>
    where
        I: Iterator<Item = &'e Self::Encoded>,
        Self::Encoded: 'e,
    {
        if self.cfg.hot_path == HotPath::Scalar {
            return decode_row_per_group(self, groups, out);
        }
        let lanes = out.width();
        let (done, failure) = self.decode_plane(groups, lanes / 2);
        self.planes.write_pixels(lanes, 2 * done, out);
        failure.map_or(Ok(()), Err)
    }

    fn record_encoded(&mut self, enc: &Self::Encoded) {
        for e in enc {
            self.codec.record_encoded(e);
        }
    }

    fn record_decoded(&mut self, enc: &Self::Encoded) {
        for e in enc {
            self.codec.record_decoded(e);
        }
    }

    fn corrupt(&self, enc: &mut Self::Encoded, site: FaultSite, bit: u64) {
        let idx = pick_column(&[&enc[0], &enc[1], &enc[2], &enc[3]], site, bit);
        flip_in_column(&mut enc[idx], site, bit);
    }

    fn reset(&mut self) {
        self.fwd.reset();
        self.inv.reset();
    }

    fn bind_telemetry(&mut self, telemetry: &TelemetryHandle, prefix: &str) {
        self.codec = CodecTelemetry::attach(telemetry, prefix);
    }

    fn flush_telemetry(&mut self) {
        self.codec.flush();
    }
}

/// Level-1 detail bands and lanes of the six level-1 records of a quad
/// `[LH1(c0), HL1(c1), HH1(c1), LH1(c2), HL1(c3), HH1(c3)]`: (band index,
/// pair within the quad).
const HAAR2_L1: [(usize, usize); 6] = [(1, 0), (2, 0), (3, 0), (1, 1), (2, 1), (3, 1)];

/// Two-level Haar: the LL₁ column stream recurses through a second
/// transformer, so every four image columns complete a quad of six
/// level-1 detail columns plus four level-2 sub-band columns.
///
/// Matching the original two-level architecture, detail coefficients are
/// *not* clamped through [`crate::config::CoeffMode`] (the two-level
/// datapath is modelled wide).
#[derive(Debug, Clone)]
pub struct HaarTwoLevelCodec {
    cfg: ArchConfig,
    l1: ColumnPairTransformer,
    l2: ColumnPairTransformer,
    inv1: ColumnPairInverse,
    inv2: ColumnPairInverse,
    codec: CodecTelemetry,
    /// Lane-parallel scratch (the sliced hot path).
    planes: Planes,
}

impl HaarTwoLevelCodec {
    fn enc(&self, coeffs: &[Coeff], band: SubBand) -> EncodedColumn {
        let t = self.cfg.policy.threshold_for(band, self.cfg.threshold);
        encode_column(coeffs, t)
    }

    /// Encode the quads of `planes.x` (`lanes` image columns): level 1
    /// across all lanes, level 2 across the level-1 LL plane, then one
    /// record per quad.
    fn encode_plane(
        &mut self,
        lanes: usize,
        out: &mut [EncodedGroup<<Self as LineCodec>::Encoded>],
    ) {
        let cfg = self.cfg;
        let p = &mut self.planes;
        let (pairs, quads) = (lanes / 2, lanes / 4);
        haar2d_fwd_plane(&p.x, lanes, &mut p.lo, &mut p.hi, &mut p.bands);
        haar2d_fwd_plane(&p.bands[0], pairs, &mut p.lo, &mut p.hi, &mut p.bands2);
        let t = SubBand::ALL.map(|b| cfg.policy.threshold_for(b, cfg.threshold));
        for ((plane, widths), &t) in p.bands.iter().zip(&mut p.widths).zip(&t).skip(1) {
            plane_widths(plane, pairs, t, &mut p.fold, widths);
        }
        for ((plane, widths), &t) in p.bands2.iter().zip(&mut p.widths2).zip(&t) {
            plane_widths(plane, quads, t, &mut p.fold, widths);
        }
        for (q, slot) in out.iter_mut().enumerate() {
            let (l1e, l2e) = &mut slot.data;
            let mut per_band = [0u64; 4];
            for (col, &(b, pair)) in l1e.iter_mut().zip(&HAAR2_L1) {
                let lane = 2 * q + pair;
                pack_lane(&p.bands[b], pairs, lane, t[b], p.widths[b][lane], col);
                per_band[b] += col.payload_bits;
            }
            for (b, col) in l2e.iter_mut().enumerate() {
                pack_lane(&p.bands2[b], quads, q, t[b], p.widths2[b][q], col);
                per_band[b] += col.payload_bits;
            }
            slot.payload_bits = per_band.iter().sum();
            slot.per_band_bits = per_band;
        }
    }

    /// Unpack `groups` into the level-2 and level-1 planes (`quads`
    /// quads) and invert both levels into `planes.x`. Returns how many
    /// groups decoded and the first failure.
    fn decode_plane<'e>(
        &mut self,
        groups: impl Iterator<Item = &'e <Self as LineCodec>::Encoded>,
        quads: usize,
    ) -> (usize, Option<(usize, String)>) {
        let p = &mut self.planes;
        let pairs = 2 * quads;
        let half = self.cfg.window / 2;
        for band in &mut p.bands {
            band.resize(half * pairs, 0);
        }
        for band in &mut p.bands2 {
            band.resize(half / 2 * quads, 0);
        }
        let mut done = 0;
        let mut failure = None;
        'groups: for (q, (l1, l2)) in groups.enumerate() {
            // Level 2 first, then each pair's details: the order the
            // per-group decoder checks its guards in.
            for (e, plane) in l2.iter().zip(p.bands2.iter_mut()) {
                if let Err(detail) = unpack_lane(e, plane, quads, q) {
                    failure = Some((q, detail));
                    break 'groups;
                }
            }
            for (e, &(b, pair)) in l1.iter().zip(&HAAR2_L1) {
                if let Err(detail) = unpack_lane(e, &mut p.bands[b], pairs, 2 * q + pair) {
                    failure = Some((q, detail));
                    break 'groups;
                }
            }
            done += 1;
        }
        let [ll1, ..] = &mut p.bands;
        haar2d_inv_plane(&p.bands2, quads, &mut p.lo, &mut p.hi, ll1);
        haar2d_inv_plane(&p.bands, pairs, &mut p.lo, &mut p.hi, &mut p.x);
        (done, failure)
    }
}

impl LineCodec for HaarTwoLevelCodec {
    type Sample = Coeff;
    /// Level-1 detail columns `[LH1(c0), HL1(c1), HH1(c1), LH1(c2),
    /// HL1(c3), HH1(c3)]` plus level-2 `[LL2, LH2, HL2, HH2]`.
    type Encoded = ([EncodedColumn; 6], [EncodedColumn; 4]);

    fn new(cfg: &ArchConfig) -> Self {
        assert!(
            cfg.window.is_multiple_of(4) && cfg.window >= 4,
            "two-level decomposition needs a window divisible by 4"
        );
        assert!(
            cfg.width >= cfg.window + 4,
            "two-level architecture needs width >= window + 4"
        );
        Self {
            cfg: *cfg,
            l1: ColumnPairTransformer::new(cfg.window),
            l2: ColumnPairTransformer::new(cfg.window / 2),
            inv1: ColumnPairInverse::new(cfg.window),
            inv2: ColumnPairInverse::new(cfg.window / 2),
            codec: CodecTelemetry::noop(),
            planes: Planes::default(),
        }
    }

    fn kind(&self) -> LineCodecKind {
        LineCodecKind::Haar2
    }

    fn encode_group_reuse(
        &mut self,
        cols: &[Vec<Coeff>],
        recycled: Option<Self::Encoded>,
    ) -> EncodedGroup<Self::Encoded> {
        debug_assert_eq!(cols.len(), 4);
        if self.cfg.hot_path == HotPath::Scalar {
            return self.encode_group(cols);
        }
        // One group is the four-lane case of the row form.
        self.planes.gather(cols);
        let mut one = [EncodedGroup {
            data: recycled.unwrap_or_default(),
            ..EncodedGroup::default()
        }];
        self.encode_plane(4, &mut one);
        let [group] = one;
        group
    }

    fn encode_group(&mut self, cols: &[Vec<Coeff>]) -> EncodedGroup<Self::Encoded> {
        debug_assert_eq!(cols.len(), 4);
        if self.cfg.hot_path != HotPath::Scalar {
            return self.encode_group_reuse(cols, None);
        }
        let none = self.l1.push_column(&cols[0]);
        debug_assert!(none.is_none());
        let Some(pair_a) = self.l1.push_column(&cols[1]) else {
            unreachable!("first level-1 pair")
        };
        let none = self.l1.push_column(&cols[2]);
        debug_assert!(none.is_none());
        let Some(pair_b) = self.l1.push_column(&cols[3]) else {
            unreachable!("second level-1 pair")
        };

        let l1 = [
            self.enc(pair_a.even.second_half(), SubBand::LH),
            self.enc(pair_a.odd.first_half(), SubBand::HL),
            self.enc(pair_a.odd.second_half(), SubBand::HH),
            self.enc(pair_b.even.second_half(), SubBand::LH),
            self.enc(pair_b.odd.first_half(), SubBand::HL),
            self.enc(pair_b.odd.second_half(), SubBand::HH),
        ];
        let none = self.l2.push_column(pair_a.even.first_half());
        debug_assert!(none.is_none());
        let Some(pair2) = self.l2.push_column(pair_b.even.first_half()) else {
            unreachable!("level-2 pair")
        };
        let l2 = [
            self.enc(pair2.even.first_half(), SubBand::LL),
            self.enc(pair2.even.second_half(), SubBand::LH),
            self.enc(pair2.odd.first_half(), SubBand::HL),
            self.enc(pair2.odd.second_half(), SubBand::HH),
        ];

        // Per-band attribution: level-2 columns land in their own band;
        // level-1 details fold into the matching detail band.
        let mut per_band = [0u64; 4];
        for (i, e) in l2.iter().enumerate() {
            per_band[i] += e.payload_bits;
        }
        for (e, band) in l1.iter().zip([1usize, 2, 3, 1, 2, 3]) {
            per_band[band] += e.payload_bits;
        }
        EncodedGroup {
            payload_bits: per_band.iter().sum(),
            per_band_bits: per_band,
            data: (l1, l2),
        }
    }

    fn encode_row(&mut self, cols: &RowBand<'_>, out: &mut [EncodedGroup<Self::Encoded>]) {
        if self.cfg.hot_path == HotPath::Scalar {
            return encode_row_per_group(self, cols, out);
        }
        self.planes.widen(cols);
        self.encode_plane(cols.width(), out);
    }

    fn try_decode_group_into(
        &mut self,
        enc: &Self::Encoded,
        out: &mut Vec<Vec<Pixel>>,
    ) -> Result<(), String> {
        if self.cfg.hot_path == HotPath::Scalar {
            *out = self.try_decode_group(enc)?;
            return Ok(());
        }
        if let (_, Some((_, detail))) = self.decode_plane(std::iter::once(enc), 1) {
            return Err(detail);
        }
        self.planes.scatter(4, out);
        Ok(())
    }

    fn decode_row<'e, I>(
        &mut self,
        groups: I,
        out: &mut RowBandMut<'_>,
    ) -> Result<(), (usize, String)>
    where
        I: Iterator<Item = &'e Self::Encoded>,
        Self::Encoded: 'e,
    {
        if self.cfg.hot_path == HotPath::Scalar {
            return decode_row_per_group(self, groups, out);
        }
        let lanes = out.width();
        let (done, failure) = self.decode_plane(groups, lanes / 4);
        self.planes.write_pixels(lanes, 4 * done, out);
        failure.map_or(Ok(()), Err)
    }

    fn try_decode_group(&mut self, enc: &Self::Encoded) -> Result<Vec<Vec<Pixel>>, String> {
        if self.cfg.hot_path != HotPath::Scalar {
            let mut out = Vec::new();
            self.try_decode_group_into(enc, &mut out)?;
            return Ok(out);
        }
        let (l1, l2) = enc;
        // Level-2 inverse: recover LL1(c0) and LL1(c2).
        let even2 = SubbandColumn {
            bands: (SubBand::LL, SubBand::LH),
            coeffs: decode_column_checked(&l2[0])?
                .into_iter()
                .chain(decode_column_checked(&l2[1])?)
                .collect(),
        };
        let odd2 = SubbandColumn {
            bands: (SubBand::HL, SubBand::HH),
            coeffs: decode_column_checked(&l2[2])?
                .into_iter()
                .chain(decode_column_checked(&l2[3])?)
                .collect(),
        };
        debug_assert!(!self.inv2.has_pending());
        let none = self.inv2.push_column(even2);
        debug_assert!(none.is_none());
        let Some((ll1_c0, ll1_c2)) = self.inv2.push_column(odd2) else {
            unreachable!("level-2 pair")
        };

        // Level-1 inverse for (c0, c1) and (c2, c3).
        let mut raws = Vec::with_capacity(4);
        for (ll1, lh_idx, hl_idx, hh_idx) in [(ll1_c0, 0usize, 1, 2), (ll1_c2, 3, 4, 5)] {
            let even1 = SubbandColumn {
                bands: (SubBand::LL, SubBand::LH),
                coeffs: ll1
                    .into_iter()
                    .chain(decode_column_checked(&l1[lh_idx])?)
                    .collect(),
            };
            let odd1 = SubbandColumn {
                bands: (SubBand::HL, SubBand::HH),
                coeffs: decode_column_checked(&l1[hl_idx])?
                    .into_iter()
                    .chain(decode_column_checked(&l1[hh_idx])?)
                    .collect(),
            };
            debug_assert!(!self.inv1.has_pending());
            let none = self.inv1.push_column(even1);
            debug_assert!(none.is_none());
            let Some((a, b)) = self.inv1.push_column(odd1) else {
                unreachable!("level-1 pair")
            };
            let clamp = |v: Coeff| v.clamp(0, 255) as Pixel;
            raws.push(a.into_iter().map(clamp).collect::<Vec<Pixel>>());
            raws.push(b.into_iter().map(clamp).collect::<Vec<Pixel>>());
        }
        Ok(raws)
    }

    fn record_encoded(&mut self, enc: &Self::Encoded) {
        for e in enc.0.iter().chain(&enc.1) {
            self.codec.record_encoded(e);
        }
    }

    fn record_decoded(&mut self, enc: &Self::Encoded) {
        for e in enc.0.iter().chain(&enc.1) {
            self.codec.record_decoded(e);
        }
    }

    fn corrupt(&self, enc: &mut Self::Encoded, site: FaultSite, bit: u64) {
        let (l1, l2) = enc;
        let refs: Vec<&EncodedColumn> = l1.iter().chain(l2.iter()).collect();
        let idx = pick_column(&refs, site, bit);
        let col = if idx < 6 {
            &mut l1[idx]
        } else {
            &mut l2[idx - 6]
        };
        flip_in_column(col, site, bit);
    }

    fn reset(&mut self) {
        self.l1.reset();
        self.l2.reset();
        self.inv1.reset();
        self.inv2.reset();
    }

    fn bind_telemetry(&mut self, telemetry: &TelemetryHandle, prefix: &str) {
        self.codec = CodecTelemetry::attach(telemetry, prefix);
    }

    fn flush_telemetry(&mut self) {
        self.codec.flush();
    }
}

/// LeGall 5/3 over single columns: each evicted column splits into a
/// low/high sub-band pair, thresholded like the Haar bands (low band maps
/// to LL — spared under `DetailsOnly` — and high to LH) and bit-packed
/// with the same NBits + BitMap scheme.
#[derive(Debug, Clone)]
pub struct LeGall53Codec {
    cfg: ArchConfig,
    low: Vec<Coeff>,
    high: Vec<Coeff>,
    scratch: Vec<Coeff>,
    codec: CodecTelemetry,
    /// Lane-parallel scratch (the sliced hot path).
    planes: Planes,
}

impl LeGall53Codec {
    fn thresholds(&self) -> [Coeff; 2] {
        let cfg = self.cfg;
        [SubBand::LL, SubBand::LH].map(|b| cfg.policy.threshold_for(b, cfg.threshold))
    }

    /// Encode the columns of `planes.x` (`lanes` wide): the lifting,
    /// detail clamp and NBits scan across all lanes, then one record per
    /// column.
    fn encode_plane(&mut self, lanes: usize, out: &mut [EncodedGroup<[EncodedColumn; 2]>]) {
        let t = self.thresholds();
        let mode = self.cfg.coeff_mode;
        let p = &mut self.planes;
        let half = p.x.len() / lanes / 2;
        let [low, high, ..] = &mut p.bands;
        low.resize(half * lanes, 0);
        high.resize(half * lanes, 0);
        legall53_fwd_lanes(&p.x, lanes, low, high);
        for c in high.iter_mut() {
            *c = mode.clamp_detail(*c);
        }
        for ((plane, widths), &t) in p.bands.iter().zip(&mut p.widths).zip(&t) {
            plane_widths(plane, lanes, t, &mut p.fold, widths);
        }
        for (j, slot) in out.iter_mut().enumerate() {
            for (b, col) in slot.data.iter_mut().enumerate() {
                pack_lane(&p.bands[b], lanes, j, t[b], p.widths[b][j], col);
            }
            let per_band = [slot.data[0].payload_bits, slot.data[1].payload_bits, 0, 0];
            slot.payload_bits = per_band.iter().sum();
            slot.per_band_bits = per_band;
        }
    }

    /// Unpack `groups` into the low/high planes (`lanes` columns) and
    /// invert them into `planes.x`. Returns how many groups decoded and
    /// the first failure.
    fn decode_plane<'e>(
        &mut self,
        groups: impl Iterator<Item = &'e [EncodedColumn; 2]>,
        lanes: usize,
    ) -> (usize, Option<(usize, String)>) {
        let p = &mut self.planes;
        let half = self.cfg.window / 2;
        let mut done = 0;
        let mut failure = None;
        {
            let [low, high, ..] = &mut p.bands;
            low.resize(half * lanes, 0);
            high.resize(half * lanes, 0);
            'groups: for (j, enc) in groups.enumerate() {
                for (e, plane) in enc.iter().zip([&mut *low, &mut *high]) {
                    if let Err(detail) = unpack_lane(e, plane, lanes, j) {
                        failure = Some((j, detail));
                        break 'groups;
                    }
                }
                done += 1;
            }
        }
        p.x.resize(2 * half * lanes, 0);
        legall53_inv_lanes(&p.bands[0], &p.bands[1], lanes, &mut p.x);
        (done, failure)
    }
}

impl LineCodec for LeGall53Codec {
    type Sample = Coeff;
    /// `[low, high]` of one column.
    type Encoded = [EncodedColumn; 2];

    fn new(cfg: &ArchConfig) -> Self {
        let half = cfg.window / 2;
        Self {
            cfg: *cfg,
            low: vec![0; half],
            high: vec![0; half],
            scratch: vec![0; cfg.window],
            codec: CodecTelemetry::noop(),
            planes: Planes::default(),
        }
    }

    fn kind(&self) -> LineCodecKind {
        LineCodecKind::Legall
    }

    fn encode_group(&mut self, cols: &[Vec<Coeff>]) -> EncodedGroup<Self::Encoded> {
        self.encode_group_reuse(cols, None)
    }

    fn encode_group_reuse(
        &mut self,
        cols: &[Vec<Coeff>],
        recycled: Option<Self::Encoded>,
    ) -> EncodedGroup<Self::Encoded> {
        debug_assert_eq!(cols.len(), 1);
        if self.cfg.hot_path != HotPath::Scalar {
            // One column is the one-lane case of the row form.
            self.planes.gather(cols);
            let mut one = [EncodedGroup {
                data: recycled.unwrap_or_default(),
                ..EncodedGroup::default()
            }];
            self.encode_plane(1, &mut one);
            let [group] = one;
            return group;
        }
        legall53_forward(&cols[0], &mut self.low, &mut self.high);
        let [t_low, t_high] = self.thresholds();
        for c in &mut self.high {
            *c = self.cfg.coeff_mode.clamp_detail(*c);
        }
        let encoded = [
            encode_column(&self.low, t_low),
            encode_column(&self.high, t_high),
        ];
        let per_band = [encoded[0].payload_bits, encoded[1].payload_bits, 0, 0];
        EncodedGroup {
            payload_bits: per_band.iter().sum(),
            per_band_bits: per_band,
            data: encoded,
        }
    }

    fn encode_row(&mut self, cols: &RowBand<'_>, out: &mut [EncodedGroup<Self::Encoded>]) {
        if self.cfg.hot_path == HotPath::Scalar {
            return encode_row_per_group(self, cols, out);
        }
        self.planes.widen(cols);
        self.encode_plane(cols.width(), out);
    }

    fn try_decode_group(&mut self, enc: &Self::Encoded) -> Result<Vec<Vec<Pixel>>, String> {
        if self.cfg.hot_path != HotPath::Scalar {
            let mut out = Vec::new();
            self.try_decode_group_into(enc, &mut out)?;
            return Ok(out);
        }
        let low = decode_column_checked(&enc[0])?;
        let high = decode_column_checked(&enc[1])?;
        legall53_inverse(&low, &high, &mut self.scratch);
        Ok(vec![self
            .scratch
            .iter()
            .map(|&v| v.clamp(0, 255) as Pixel)
            .collect()])
    }

    fn try_decode_group_into(
        &mut self,
        enc: &Self::Encoded,
        out: &mut Vec<Vec<Pixel>>,
    ) -> Result<(), String> {
        if self.cfg.hot_path == HotPath::Scalar {
            *out = self.try_decode_group(enc)?;
            return Ok(());
        }
        if let (_, Some((_, detail))) = self.decode_plane(std::iter::once(enc), 1) {
            return Err(detail);
        }
        self.planes.scatter(1, out);
        Ok(())
    }

    fn decode_row<'e, I>(
        &mut self,
        groups: I,
        out: &mut RowBandMut<'_>,
    ) -> Result<(), (usize, String)>
    where
        I: Iterator<Item = &'e Self::Encoded>,
        Self::Encoded: 'e,
    {
        if self.cfg.hot_path == HotPath::Scalar {
            return decode_row_per_group(self, groups, out);
        }
        let lanes = out.width();
        let (done, failure) = self.decode_plane(groups, lanes);
        self.planes.write_pixels(lanes, done, out);
        failure.map_or(Ok(()), Err)
    }

    fn record_encoded(&mut self, enc: &Self::Encoded) {
        for e in enc {
            self.codec.record_encoded(e);
        }
    }

    fn record_decoded(&mut self, enc: &Self::Encoded) {
        for e in enc {
            self.codec.record_decoded(e);
        }
    }

    fn corrupt(&self, enc: &mut Self::Encoded, site: FaultSite, bit: u64) {
        let idx = pick_column(&[&enc[0], &enc[1]], site, bit);
        flip_in_column(&mut enc[idx], site, bit);
    }

    fn bind_telemetry(&mut self, telemetry: &TelemetryHandle, prefix: &str) {
        self.codec = CodecTelemetry::attach(telemetry, prefix);
    }

    fn flush_telemetry(&mut self) {
        self.codec.flush();
    }
}

/// LOCO-I / JPEG-LS-style predictive coder over single columns (MED
/// prediction + context-adaptive Rice codes, see [`sw_bitstream::locoi`]).
///
/// Inherently lossless: the threshold has no effect. Each column is coded
/// as a 1×N image, so the vertical neighbourhood drives the predictor and
/// the per-column context statistics restart — the price of random column
/// retirement from the memory unit.
#[derive(Debug, Clone)]
pub struct LocoIPredictiveCodec {
    window: usize,
}

impl LineCodec for LocoIPredictiveCodec {
    type Sample = Coeff;
    /// The LOCO-I bitstream of one column.
    type Encoded = Vec<u8>;

    fn new(cfg: &ArchConfig) -> Self {
        Self { window: cfg.window }
    }

    fn kind(&self) -> LineCodecKind {
        LineCodecKind::Locoi
    }

    fn encode_group(&mut self, cols: &[Vec<Coeff>]) -> EncodedGroup<Self::Encoded> {
        debug_assert_eq!(cols.len(), 1);
        let col = &cols[0];
        let img = ImageU8::from_fn(1, self.window, |_, y| col[y].clamp(0, 255) as Pixel);
        let data = locoi_encode(&img);
        let bits = data.len() as u64 * 8;
        EncodedGroup {
            data,
            payload_bits: bits,
            per_band_bits: [bits, 0, 0, 0],
        }
    }

    fn try_decode_group(&mut self, enc: &Self::Encoded) -> Result<Vec<Vec<Pixel>>, String> {
        let img = locoi_try_decode(enc, 1, self.window)?;
        Ok(vec![(0..self.window).map(|y| img.get(0, y)).collect()])
    }

    fn corrupt(&self, enc: &mut Self::Encoded, _site: FaultSite, bit: u64) {
        // The LOCO-I stream has no separate management fields: every fault
        // site degrades to a bit flip somewhere in the predictive bitstream.
        if enc.is_empty() {
            return;
        }
        let pos = (bit % (enc.len() as u64 * 8)) as usize;
        enc[pos / 8] ^= 1 << (pos % 8);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: usize, w: usize) -> ArchConfig {
        ArchConfig::new(n, w)
    }

    fn column(n: usize, seed: usize) -> Vec<Coeff> {
        (0..n)
            .map(|i| ((i * 37 + seed * 91 + 13) % 256) as Coeff)
            .collect()
    }

    #[test]
    fn kind_parse_roundtrips() {
        for kind in LineCodecKind::ALL {
            assert_eq!(LineCodecKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(LineCodecKind::parse("huffman"), None);
    }

    #[test]
    fn group_widths() {
        assert_eq!(LineCodecKind::Raw.group_width(), 1);
        assert_eq!(LineCodecKind::Haar.group_width(), 2);
        assert_eq!(LineCodecKind::Haar2.group_width(), 4);
        assert_eq!(LineCodecKind::Legall.group_width(), 1);
        assert_eq!(LineCodecKind::Locoi.group_width(), 1);
    }

    #[test]
    fn raw_codec_roundtrips_rows_1_to_n() {
        let c = cfg(8, 64);
        let mut codec = RawCodec::new(&c);
        let col = column(8, 0);
        let eg = codec.encode_group(std::slice::from_ref(&col));
        assert_eq!(eg.payload_bits, 7 * 8);
        let back = codec.decode_group(&eg.data);
        assert_eq!(back.len(), 1);
        // Rows 1..N round-trip; row 0 is a don't-care (it retired).
        for i in 1..8 {
            assert_eq!(back[0][i] as Coeff, col[i]);
        }
    }

    #[test]
    fn lossless_roundtrip_every_codec() {
        let c = cfg(8, 64);
        let cols: Vec<Vec<Coeff>> = (0..4).map(|i| column(8, i)).collect();
        fn roundtrip<C: LineCodec<Sample = Coeff>>(c: &ArchConfig, cols: &[Vec<Coeff>]) {
            let mut codec = C::new(c);
            let g = codec.group_width();
            let eg = codec.encode_group(&cols[..g]);
            let back = codec.decode_group(&eg.data);
            assert_eq!(back.len(), g);
            for (orig, got) in cols[..g].iter().zip(&back) {
                let as_pixels: Vec<Pixel> = orig.iter().map(|&v| v as Pixel).collect();
                assert_eq!(&as_pixels, got, "{:?}", codec.kind());
            }
        }
        roundtrip::<HaarIwtCodec>(&c, &cols);
        roundtrip::<HaarTwoLevelCodec>(&c, &cols);
        roundtrip::<LeGall53Codec>(&c, &cols);
        roundtrip::<LocoIPredictiveCodec>(&c, &cols);
    }

    #[test]
    fn thresholds_shrink_lossy_capable_codecs() {
        let base = cfg(8, 64);
        let cols: Vec<Vec<Coeff>> = (0..4)
            .map(|i| {
                (0..8)
                    .map(|j| (100 + ((i * 13 + j * 7) % 5)) as Coeff)
                    .collect()
            })
            .collect();
        fn bits<C: LineCodec<Sample = Coeff>>(c: &ArchConfig, cols: &[Vec<Coeff>]) -> u64 {
            let mut codec = C::new(c);
            let g = codec.group_width();
            codec.encode_group(&cols[..g]).payload_bits
        }
        let lossy = base.with_threshold(6);
        assert!(bits::<HaarIwtCodec>(&lossy, &cols) < bits::<HaarIwtCodec>(&base, &cols));
        assert!(
            bits::<HaarTwoLevelCodec>(&lossy, &cols) <= bits::<HaarTwoLevelCodec>(&base, &cols)
        );
        assert!(bits::<LeGall53Codec>(&lossy, &cols) < bits::<LeGall53Codec>(&base, &cols));
        // Inherently lossless codecs ignore the threshold entirely.
        assert_eq!(
            bits::<LocoIPredictiveCodec>(&lossy, &cols),
            bits::<LocoIPredictiveCodec>(&base, &cols)
        );
        assert_eq!(
            bits::<RawCodec>(&lossy, &cols),
            bits::<RawCodec>(&base, &cols)
        );
    }

    #[test]
    fn management_bits_match_module_table() {
        let c = cfg(8, 64);
        let cols = c.fifo_depth() as u64;
        assert_eq!(LineCodecKind::Raw.management_bits(&c), 0);
        assert_eq!(LineCodecKind::Haar.management_bits(&c), c.management_bits());
        assert_eq!(LineCodecKind::Haar2.management_bits(&c), cols * (10 + 8));
        assert_eq!(LineCodecKind::Legall.management_bits(&c), cols * (8 + 8));
        assert_eq!(LineCodecKind::Locoi.management_bits(&c), cols * 16);
    }

    #[test]
    fn raw_span_matches_architecture_footprint() {
        let c = cfg(8, 64);
        assert_eq!(
            LineCodecKind::Raw.raw_span_bits(&c),
            c.traditional_buffer_bits()
        );
        for kind in [
            LineCodecKind::Haar,
            LineCodecKind::Haar2,
            LineCodecKind::Legall,
            LineCodecKind::Locoi,
        ] {
            assert_eq!(kind.raw_span_bits(&c), (64 - 8) * 8 * 8, "{kind:?}");
        }
    }

    #[test]
    #[should_panic(expected = "divisible by 4")]
    fn two_level_rejects_window_6() {
        HaarTwoLevelCodec::new(&cfg(6, 64));
    }
}
