//! The unified sliding-window datapath, generic over the line codec.
//!
//! Every architecture in this repo — traditional raw line buffers, the
//! paper's compressed design, the two-level extension, and the rejected
//! alternatives — is the *same* machine with a different codec plugged
//! between the active window and the memory unit:
//!
//! 1. the window shifts one column per clock; the evicted column is
//!    staged until the codec's group is full (1, 2 or 4 columns);
//! 2. the codec encodes the group; the encoded record rides the memory
//!    unit for exactly `W − N` cycles (the delay the traditional FIFOs
//!    provide);
//! 3. on exit the group is decoded back into raw columns which re-enter
//!    the window one row down, their oldest pixel retiring.
//!
//! # The row step
//!
//! The model keeps that machine's cycle semantics exactly but does not
//! run it one pixel per iteration. Row *r*'s buffered columns depend only
//! on row *r − 1*'s decoded output and row *r*'s input, so
//! [`SlidingWindow::push_row`] processes a whole row per call:
//!
//! * **The band.** The N latest window rows live in one contiguous
//!   row-major band per image row: rows `0..N` hold the decoded columns
//!   delivered during that row (row 0 is the retiring pixel), row `N` the
//!   input. Rows `1..=N` are exactly the N-tall columns that entered the
//!   window, so they are both what the kernel reads and what the codec
//!   encodes once those columns are evicted. Three such bands rotate, one
//!   per image row in flight; before the first row a zero band stands in
//!   for the cleared window, whose N zero columns are grouped and pushed
//!   like any other.
//! * **Batched compute.** Decoding writes a row's delivered groups
//!   straight into the band through [`LineCodec::decode_row`], the kernel
//!   runs once across the row through [`WindowKernel::apply_row`], and
//!   evicted columns are encoded in batches of up to 64 through
//!   [`LineCodec::encode_row`]. A group whose columns straddle two image
//!   rows (when `W` is not a multiple of the group width) is gathered and
//!   coded on its own.
//! * **The event walk.** Everything cycle-dependent — the memory unit and
//!   its overflow policy, the occupancy watermark, capacity and overflow
//!   counts, fault injection, trace events and telemetry — is resolved by
//!   walking the row's group-boundary events in cycle order: group *k*
//!   (eviction cycles `kg..kg+g`) is pushed at cycle `kg + g − 1`,
//!   decoded at `kg + W − N` and retired at `kg + g − 1 + W − N`. Within
//!   one cycle a decode or retire comes before a push, as the hardware's
//!   read side precedes its write side. That is `W/g` events of each kind
//!   per row rather than `W` pixel iterations.
//!
//! Compute runs ahead of the walk only where the walk cannot change it:
//! a group decodes after its push (so a fault flip is in place), and
//! groups are encoded ahead at the threshold in force, any that a
//! `DegradeLossy` escalation overtakes being re-encoded at their push.
//! Decode failures are held until the failing group's delivery cycle, so
//! the first error in cycle order wins, and codec telemetry is recorded
//! for exactly the groups the walk pushes and delivers.
//!
//! [`SlidingWindow`] is the generic implementation; [`SlidingWindowArch`]
//! is the object-safe face the layers above (pipeline, shard, adaptive,
//! CLI) program against; [`build_arch`] maps an [`ArchConfig`]'s codec
//! selection to a boxed instance. The historical types
//! (`TraditionalSlidingWindow`, `CompressedSlidingWindow`,
//! `TwoLevelCompressedSlidingWindow`) are aliases of `SlidingWindow<C>`.
//!
//! # Errors and capacity
//!
//! `process_frame` returns [`crate::error::Result`]: geometry mismatches
//! are [`crate::error::SwError::Config`], corrupted in-flight groups are
//! [`crate::error::SwError::Decode`], and a capacity-enforcing
//! [`MemoryUnit`](crate::memory_unit) under the
//! [`OverflowPolicy::Fail`](crate::memory_unit::OverflowPolicy) policy
//! surfaces [`crate::error::SwError::Fifo`]. Without a memory unit or
//! fault injector configured the datapath is bit-identical to the
//! unchecked historical behaviour.

use crate::codec::{
    EncodedGroup, HaarIwtCodec, HaarTwoLevelCodec, LeGall53Codec, LineCodec, LineCodecKind,
    LocoIPredictiveCodec, RawCodec,
};
use crate::config::ArchConfig;
use crate::error::{Result, SwError};
use crate::faults::FaultInjector;
use crate::kernels::{RowCache, WindowKernel};
use crate::memory_unit::{MemoryUnit, MemoryUnitConfig, OverflowPolicy};
use crate::window::{RowBand, RowBandMut};
use crate::{Coeff, Pixel};
use std::time::Instant;
use sw_bitstream::Sample;
use sw_fpga::sim::Watermark;
use sw_image::ImageU8;
use sw_telemetry::{
    Counter, Gauge, LocalCounter, LocalGauge, LocalHistogram, TelemetryHandle, TraceEvent,
    TraceKind,
};
/// Inclusive histogram bounds splitting `[1, max]` into eighths
/// (deduplicated for tiny ranges). Shared shape for occupancy histograms.
pub(crate) fn occupancy_bounds(max: u64) -> Vec<u64> {
    let mut bounds: Vec<u64> = (1..=8).map(|i| (max * i / 8).max(1)).collect();
    bounds.dedup();
    bounds
}

/// Statistics of one frame, unified across every codec.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameStats {
    /// Clock cycles consumed (always `H × W`: one pixel per clock).
    pub cycles: u64,
    /// Total payload bits pushed into the memory unit during the frame.
    pub payload_bits_total: u64,
    /// Payload bits by sub-band `[LL, LH, HL, HH]` (codecs without a
    /// sub-band structure report everything under the first slot).
    pub per_band_bits_total: [u64; 4],
    /// Peak payload occupancy of the memory unit (bits).
    pub peak_payload_occupancy: u64,
    /// Peak occupancy including the codec's management bits.
    pub peak_total_occupancy: u64,
    /// Static management-bit requirement of the codec.
    pub management_bits: u64,
    /// Raw bits the same buffered span would occupy uncompressed — the
    /// denominator of the paper's Equation 5 (codec-dependent: the
    /// traditional span stores `N − 1` rows, the compressed spans `N`).
    pub raw_buffer_bits: u64,
    /// Number of pushes that exceeded the configured capacity (0 when
    /// unbounded).
    pub overflow_events: usize,
    /// Backpressure cycles charged by a memory unit under the `Stall`
    /// overflow policy (0 without a memory unit).
    pub stall_cycles: u64,
    /// Threshold escalations performed by a memory unit under the
    /// `DegradeLossy` overflow policy (0 without a memory unit).
    pub t_escalations: u64,
}

impl FrameStats {
    /// Paper Equation 5: `(1 − Compressed/Uncompressed) × 100`, with the
    /// compressed size taken at peak occupancy including management bits.
    ///
    /// Returns `0.0` when the buffered span is empty (`W == N` leaves no
    /// FIFO columns, so there is nothing to save) instead of `NaN`.
    pub fn memory_saving_pct(&self) -> f64 {
        if self.raw_buffer_bits == 0 {
            return 0.0;
        }
        (1.0 - self.peak_total_occupancy as f64 / self.raw_buffer_bits as f64) * 100.0
    }

    /// Every counter as a named `u64`, in a fixed declaration order.
    ///
    /// This is the digest/diff hook for the conformance harness: golden
    /// vectors serialize these fields, and oracle verdicts name the first
    /// divergent field by this name. The sub-band split appears as four
    /// `band*_bits` entries so a per-band drift is named precisely rather
    /// than collapsing into the total.
    pub fn fields(&self) -> [(&'static str, u64); 13] {
        [
            ("cycles", self.cycles),
            ("payload_bits_total", self.payload_bits_total),
            ("band0_bits", self.per_band_bits_total[0]),
            ("band1_bits", self.per_band_bits_total[1]),
            ("band2_bits", self.per_band_bits_total[2]),
            ("band3_bits", self.per_band_bits_total[3]),
            ("peak_payload_occupancy", self.peak_payload_occupancy),
            ("peak_total_occupancy", self.peak_total_occupancy),
            ("management_bits", self.management_bits),
            ("raw_buffer_bits", self.raw_buffer_bits),
            ("overflow_events", self.overflow_events as u64),
            ("stall_cycles", self.stall_cycles),
            ("t_escalations", self.t_escalations),
        ]
    }
}

/// Output of one frame.
#[derive(Debug, Clone)]
pub struct FrameOutput {
    /// Kernel output over the valid region, `(W−N+1) × (H−N+1)`.
    pub image: ImageU8,
    /// Frame statistics.
    pub stats: FrameStats,
}

/// The object-safe face of a sliding-window architecture: everything the
/// pipeline, shard runner, adaptive controller and CLI need, independent
/// of the concrete codec type.
pub trait SlidingWindowArch {
    /// Process one frame.
    ///
    /// # Errors
    ///
    /// [`SwError::Config`] on geometry mismatch, [`SwError::Decode`] when
    /// an in-flight group fails a consistency guard (only reachable with
    /// fault injection), [`SwError::Fifo`] when a capacity-enforcing
    /// memory unit overflows under [`OverflowPolicy::Fail`] or a forced
    /// underflow fault fires.
    fn process_frame(&mut self, img: &ImageU8, kernel: &dyn WindowKernel) -> Result<FrameOutput>;

    /// Open a row-streamed frame of `height` rows. Rows then arrive one
    /// at a time via [`push_row`](Self::push_row) and the output is
    /// collected by [`finish_frame`](Self::finish_frame) — byte-identical
    /// to a whole-frame [`process_frame`](Self::process_frame) call (the
    /// whole-frame path is implemented on top of this one).
    ///
    /// The default implementation reports the architecture as
    /// non-streaming; [`SlidingWindow`] overrides all three methods.
    fn begin_frame(&mut self, height: usize) -> Result<()> {
        let _ = height;
        Err(SwError::config(
            "this architecture does not support row streaming".to_string(),
        ))
    }

    /// Feed the next row of the open streamed frame, in raster order.
    fn push_row(&mut self, row: &[Pixel], kernel: &dyn WindowKernel) -> Result<()> {
        let _ = (row, kernel);
        Err(SwError::config(
            "this architecture does not support row streaming".to_string(),
        ))
    }

    /// Close the open streamed frame after all declared rows arrived and
    /// collect its output and statistics.
    fn finish_frame(&mut self) -> Result<FrameOutput> {
        Err(SwError::config(
            "this architecture does not support row streaming".to_string(),
        ))
    }

    /// Clear all state (frame boundary).
    fn reset(&mut self);

    /// The architecture's configuration.
    fn config(&self) -> &ArchConfig;

    /// The codec this architecture buffers its lines through.
    fn codec_kind(&self) -> LineCodecKind;

    /// Bind instruments under `stage.<name>.*` / `fifo.<name>.*`.
    fn bind_telemetry(&mut self, telemetry: &TelemetryHandle, name: &str);

    /// Retune the threshold in place (takes effect from the next frame;
    /// no-op in effect for inherently lossless codecs).
    fn set_threshold(&mut self, t: Coeff);

    /// Install (or remove) a capacity-enforcing memory unit. `None`
    /// restores the unbounded historical datapath.
    fn set_memory_unit(&mut self, cfg: Option<MemoryUnitConfig>);

    /// Install (or remove) a deterministic fault injector.
    fn set_fault_injector(&mut self, faults: Option<FaultInjector>);
}

/// Wall-time accumulators for the row step's phases over one frame.
#[derive(Debug, Clone, Copy, Default)]
struct FrameProf {
    decode_ns: u64,
    decode_calls: u64,
    encode_ns: u64,
    encode_calls: u64,
    kernel_ns: u64,
    kernel_calls: u64,
    memunit_ns: u64,
    memunit_calls: u64,
}

impl FrameProf {
    fn clear(&mut self) {
        *self = Self::default();
    }
}

/// Nanoseconds since `t0`, saturating.
fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// In-flight state of a row-streamed frame between
/// [`SlidingWindow::begin_frame`] and [`SlidingWindow::finish_frame`].
#[derive(Debug, Clone)]
struct StreamFrame {
    /// Declared total rows.
    height: usize,
    /// Rows consumed so far.
    rows_in: usize,
    /// Global pixel cycle across the streamed frame.
    cycle: u64,
    /// Kernel output accumulated over the valid region.
    out: ImageU8,
}

/// Image columns per codec row call at most: enough lanes to amortize a
/// call, few enough that the codec's lane planes and the records encoded
/// ahead of their push stay a fraction of the groups in flight.
const BATCH_COLUMNS: usize = 64;

/// Groups per codec row call, and encoded ahead of their push, at most.
fn batch_groups(group: usize) -> usize {
    (BATCH_COLUMNS / group).max(1)
}

/// A stretch of consecutive groups for one batched codec call.
#[derive(Debug, Clone, Copy)]
enum Segment {
    /// `count` groups from `first` whose columns all entered during image
    /// row `row` (−1: the cleared window's zero columns), starting at
    /// band column `col`.
    Run {
        first: u64,
        count: u64,
        row: i64,
        col: usize,
    },
    /// One group whose columns straddle two image rows.
    Straddle(u64),
}

/// The sliding window architecture, generic over the line codec `C`.
///
/// `SlidingWindow<RawCodec>` is the traditional architecture,
/// `SlidingWindow<HaarIwtCodec>` the paper's compressed one; see
/// [`crate::codec`] for the full matrix.
pub struct SlidingWindow<C: LineCodec> {
    cfg: ArchConfig,
    kind: LineCodecKind,
    group: usize,
    codec: C,
    /// Three `(N + 1) × W` bands, one per image row in flight (see the
    /// module docs); image row `q` uses band `(q + 1) mod 3`.
    bands: Vec<Pixel>,
    /// Encoded groups by group index modulo their count: the groups in
    /// flight (pushed, not retired) followed by those encoded
    /// ahead of their push. Records are overwritten in place, so a warm
    /// datapath allocates nothing per group.
    slots: Vec<EncodedGroup<C::Encoded>>,
    /// The threshold the groups encoded ahead were encoded at.
    ready_threshold: Coeff,
    /// One straddling or re-encoded group's columns.
    staging: Vec<Vec<C::Sample>>,
    /// One straddling group's decoded columns.
    decoded_scratch: Vec<Vec<Pixel>>,
    /// The kernel's per-row values, kept across row steps, and the name
    /// of the kernel that filled them.
    row_cache: RowCache,
    row_cache_kernel: &'static str,
    /// Optional capacity budget for the packed-bit memory (bits).
    capacity_bits: Option<u64>,
    /// Optional capacity-enforcing memory unit backed by BRAM FIFOs.
    memory_unit: Option<MemoryUnit>,
    /// Optional deterministic fault injector.
    faults: Option<FaultInjector>,
    /// The configured threshold before any `DegradeLossy` escalation;
    /// restored at every frame boundary.
    base_threshold: Coeff,
    // --- frame progress, in group indices ---
    /// Groups pushed (the next push event's group).
    pushed: u64,
    /// Groups whose decode event has passed.
    delivered: u64,
    /// Groups retired.
    retired: u64,
    /// Groups decoded into the bands (ahead of or at their decode event).
    decoded: u64,
    /// Groups encoded (`pushed..encoded` wait for their push).
    encoded: u64,
    /// Slots of the next push, decode and retire events.
    push_slot: usize,
    deliver_slot: usize,
    retire_slot: usize,
    /// The first group whose decode failed, held for its decode event.
    decode_failure: Option<(u64, String)>,
    // --- per-frame accounting ---
    payload_occupancy: u64,
    occupancy_watermark: Watermark,
    per_band_bits: [u64; 4],
    overflow_events: usize,
    /// Open row-streamed frame, if any ([`Self::begin_frame`]).
    stream: Option<StreamFrame>,
    /// Per-frame phase timings for the hierarchical profiler, read only
    /// when a span profiler is bound.
    prof: FrameProf,
    // --- telemetry (no-ops unless a telemetry handle was bound) ---
    // Per-group instruments are frame-local: published by
    // `flush_telemetry` at every frame end and boundary, and on drop.
    telemetry: TelemetryHandle,
    bound_name: Option<String>,
    m_cycles: Counter,
    m_window_shifts: Counter,
    m_iwt_pairs: LocalCounter,
    m_unpack_pairs: LocalCounter,
    m_overflow: LocalCounter,
    m_threshold: Gauge,
    occ_hist: LocalHistogram,
    occ_gauge: LocalGauge,
}

impl<C: LineCodec> std::fmt::Debug for SlidingWindow<C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlidingWindow")
            .field("cfg", &self.cfg)
            .field("codec", &self.kind)
            .finish_non_exhaustive()
    }
}

impl<C: LineCodec + Clone> Clone for SlidingWindow<C>
where
    C::Encoded: Clone,
{
    fn clone(&self) -> Self {
        Self {
            cfg: self.cfg,
            kind: self.kind,
            group: self.group,
            codec: self.codec.clone(),
            bands: self.bands.clone(),
            slots: self.slots.clone(),
            ready_threshold: self.ready_threshold,
            staging: self.staging.clone(),
            decoded_scratch: Vec::new(),
            row_cache: self.row_cache.clone(),
            row_cache_kernel: self.row_cache_kernel,
            capacity_bits: self.capacity_bits,
            memory_unit: self.memory_unit.clone(),
            faults: self.faults.clone(),
            base_threshold: self.base_threshold,
            pushed: self.pushed,
            delivered: self.delivered,
            retired: self.retired,
            decoded: self.decoded,
            encoded: self.encoded,
            push_slot: self.push_slot,
            deliver_slot: self.deliver_slot,
            retire_slot: self.retire_slot,
            decode_failure: self.decode_failure.clone(),
            payload_occupancy: self.payload_occupancy,
            occupancy_watermark: self.occupancy_watermark,
            per_band_bits: self.per_band_bits,
            overflow_events: self.overflow_events,
            stream: self.stream.clone(),
            prof: self.prof,
            telemetry: self.telemetry.clone(),
            bound_name: self.bound_name.clone(),
            m_cycles: self.m_cycles.clone(),
            m_window_shifts: self.m_window_shifts.clone(),
            m_iwt_pairs: self.m_iwt_pairs.clone(),
            m_unpack_pairs: self.m_unpack_pairs.clone(),
            m_overflow: self.m_overflow.clone(),
            m_threshold: self.m_threshold.clone(),
            occ_hist: self.occ_hist.clone(),
            occ_gauge: self.occ_gauge.clone(),
        }
    }
}

impl<C: LineCodec> SlidingWindow<C> {
    /// Build the architecture for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if the codec rejects the geometry (e.g. the paper's codec
    /// needs `width ≥ window + 2`; the two-level one `width ≥ window + 4`
    /// and a window divisible by 4). Use [`build_arch`] for a checked,
    /// `Result`-returning construction path.
    pub fn new(cfg: ArchConfig) -> Self {
        let codec = C::new(&cfg);
        let kind = codec.kind();
        let group = codec.group_width();
        debug_assert!(cfg.width >= cfg.window + group, "codec geometry check");
        let n = cfg.window;
        Self {
            cfg,
            kind,
            group,
            codec,
            bands: vec![0; 3 * (n + 1) * cfg.width],
            // In flight: at most (W − N)/g + 2 groups; then those encoded
            // ahead of their push.
            slots: std::iter::repeat_with(EncodedGroup::default)
                .take(cfg.fifo_depth() / group + 2 + batch_groups(group))
                .collect(),
            ready_threshold: cfg.threshold,
            staging: vec![vec![<C::Sample as Sample>::ZERO; n]; group],
            decoded_scratch: Vec::new(),
            row_cache: RowCache::new(n),
            row_cache_kernel: "",
            capacity_bits: None,
            memory_unit: None,
            faults: None,
            base_threshold: cfg.threshold,
            pushed: 0,
            delivered: 0,
            retired: 0,
            decoded: 0,
            encoded: 0,
            push_slot: 0,
            deliver_slot: 0,
            retire_slot: 0,
            decode_failure: None,
            payload_occupancy: 0,
            occupancy_watermark: Watermark::new(),
            per_band_bits: [0; 4],
            overflow_events: 0,
            stream: None,
            prof: FrameProf::default(),
            telemetry: TelemetryHandle::disabled(),
            bound_name: None,
            m_cycles: Counter::noop(),
            m_window_shifts: Counter::noop(),
            m_iwt_pairs: LocalCounter::default(),
            m_unpack_pairs: LocalCounter::default(),
            m_overflow: LocalCounter::default(),
            m_threshold: Gauge::noop(),
            occ_hist: LocalHistogram::default(),
            occ_gauge: LocalGauge::default(),
        }
    }

    /// Set a packed-bit capacity budget; pushes beyond it are counted as
    /// overflow events (the data is still stored so measurement can
    /// continue — real hardware would corrupt, which is the paper's "bad
    /// frames" limitation).
    pub fn with_capacity_bits(mut self, bits: u64) -> Self {
        self.capacity_bits = Some(bits);
        self
    }

    /// Install a capacity-enforcing [`MemoryUnit`] that routes packed
    /// groups through real BRAM FIFO storage and applies `cfg.policy` on
    /// would-be overflow.
    pub fn with_memory_unit(mut self, cfg: MemoryUnitConfig) -> Self {
        self.install_memory_unit(Some(cfg));
        self
    }

    /// Install a deterministic fault injector (see [`crate::faults`]).
    pub fn with_fault_injector(mut self, faults: FaultInjector) -> Self {
        self.faults = Some(faults);
        self
    }

    fn install_memory_unit(&mut self, cfg: Option<MemoryUnitConfig>) {
        self.memory_unit = cfg.map(|c| {
            let mut mu = MemoryUnit::new(c, self.kind);
            if let Some(name) = &self.bound_name {
                mu.bind_telemetry(&self.telemetry, name);
            }
            mu
        });
    }

    /// Bind instruments to `telemetry` under the codec's default stage
    /// name (`traditional` for raw, `compressed` for Haar, the codec name
    /// otherwise).
    pub fn with_telemetry(self, telemetry: &TelemetryHandle) -> Self {
        let name = match self.kind {
            LineCodecKind::Raw => "traditional",
            LineCodecKind::Haar => "compressed",
            k => k.name(),
        };
        self.with_named_telemetry(telemetry, name)
    }

    /// Bind instruments to `telemetry` under `stage.<name>.*` (per-stage
    /// cycles, shifts, and — for compressing codecs — IWT pairs, unpack
    /// pairs, overflow events, threshold, codec traffic) and
    /// `fifo.<name>.*` (memory-unit occupancy histogram and high-water
    /// mark, in bits). A configured [`MemoryUnit`] additionally registers
    /// `memunit.<name>.*`.
    pub fn with_named_telemetry(mut self, telemetry: &TelemetryHandle, name: &str) -> Self {
        self.bind(telemetry, name);
        self
    }

    fn bind(&mut self, telemetry: &TelemetryHandle, name: &str) {
        self.m_cycles = telemetry.counter(&format!("stage.{name}.cycles"));
        self.m_window_shifts = telemetry.counter(&format!("stage.{name}.window_shifts"));
        if self.kind != LineCodecKind::Raw {
            let counter = |series: &str| {
                LocalCounter::new(telemetry.counter(&format!("stage.{name}.{series}")))
            };
            self.m_iwt_pairs = counter("iwt_pairs");
            self.m_unpack_pairs = counter("unpack_pairs");
            self.m_overflow = counter("overflow_events");
            self.m_threshold = telemetry.gauge(&format!("stage.{name}.threshold"));
            self.m_threshold.set(self.cfg.threshold.max(0) as u64);
        }
        self.occ_hist = LocalHistogram::new(telemetry.histogram(
            &format!("fifo.{name}.occupancy_bits"),
            &occupancy_bounds(self.kind.raw_span_bits(&self.cfg).max(1)),
        ));
        self.occ_gauge = LocalGauge::new(telemetry.gauge(&format!("fifo.{name}.high_water_bits")));
        if self.kind != LineCodecKind::Raw {
            self.codec
                .bind_telemetry(telemetry, &format!("stage.{name}"));
        }
        if let Some(mu) = self.memory_unit.as_mut() {
            mu.bind_telemetry(telemetry, name);
        }
        self.telemetry = telemetry.clone();
        self.bound_name = Some(name.to_string());
    }

    /// Rebuild the codec for the current configuration (codecs capture
    /// the threshold at construction), re-binding its telemetry.
    fn rebuild_codec(&mut self) {
        self.codec = C::new(&self.cfg);
        self.m_threshold.set(self.cfg.threshold.max(0) as u64);
        if self.kind != LineCodecKind::Raw {
            if let Some(name) = &self.bound_name {
                self.codec
                    .bind_telemetry(&self.telemetry, &format!("stage.{name}"));
            }
        }
    }

    /// The architecture's configuration.
    pub fn config(&self) -> &ArchConfig {
        &self.cfg
    }

    /// The codec's management-bit requirement for this configuration.
    pub fn management_bits(&self) -> u64 {
        self.kind.management_bits(&self.cfg)
    }

    /// The installed memory unit, if any.
    pub fn memory_unit(&self) -> Option<&MemoryUnit> {
        self.memory_unit.as_ref()
    }

    /// Process one frame.
    ///
    /// # Errors
    ///
    /// See [`SlidingWindowArch::process_frame`].
    pub fn process_frame(
        &mut self,
        img: &ImageU8,
        kernel: &dyn WindowKernel,
    ) -> Result<FrameOutput> {
        let n = self.cfg.window;
        if img.width() != self.cfg.width {
            return Err(SwError::config(format!(
                "image width {} does not match the configured width {}",
                img.width(),
                self.cfg.width
            )));
        }
        if img.height() < n {
            return Err(SwError::config(format!(
                "image height {} is shorter than the {n}-row window",
                img.height()
            )));
        }
        if kernel.window_size() != n {
            return Err(SwError::config(format!(
                "kernel window size {} does not match the architecture window {n}",
                kernel.window_size()
            )));
        }
        // The whole-frame path *is* the streaming path driven to
        // completion in one call — byte-identical output by construction.
        let frame_span = self.telemetry.profile_span("frame");
        self.begin_frame(img.height())?;
        for r in 0..img.height() {
            self.push_row(img.row(r), kernel)?;
        }
        let out = self.finish_frame();
        drop(frame_span);
        out
    }

    /// Open a row-streamed frame of `height` rows: reset the datapath,
    /// size the output for the valid region and start the cycle counter.
    /// Any previously open stream is abandoned.
    ///
    /// # Errors
    ///
    /// [`SwError::Config`] when `height` cannot fit one window.
    pub fn begin_frame(&mut self, height: usize) -> Result<()> {
        let n = self.cfg.window;
        if height < n {
            return Err(SwError::config(format!(
                "image height {height} is shorter than the {n}-row window"
            )));
        }
        self.reset();
        let w = self.cfg.width;
        self.trace(0, TraceKind::FrameStart, w as u64, height as u64);
        self.stream = Some(StreamFrame {
            height,
            rows_in: 0,
            cycle: 0,
            out: ImageU8::filled(w - n + 1, height - n + 1, 0),
        });
        Ok(())
    }

    /// Feed the next row of the open streamed frame: one row step (see
    /// the module docs).
    ///
    /// # Errors
    ///
    /// [`SwError::Config`] when no stream is open, the row length or
    /// kernel mismatch the configuration, or more rows arrive than
    /// [`begin_frame`](Self::begin_frame) declared. Datapath errors
    /// propagate exactly as from
    /// [`process_frame`](Self::process_frame). Any error aborts the
    /// stream: subsequent calls fail until a new `begin_frame`.
    pub fn push_row(&mut self, row: &[Pixel], kernel: &dyn WindowKernel) -> Result<()> {
        let n = self.cfg.window;
        let Some(mut st) = self.stream.take() else {
            return Err(SwError::config(
                "push_row called without an open begin_frame stream".to_string(),
            ));
        };
        if row.len() != self.cfg.width {
            return Err(SwError::config(format!(
                "image width {} does not match the configured width {}",
                row.len(),
                self.cfg.width
            )));
        }
        if kernel.window_size() != n {
            return Err(SwError::config(format!(
                "kernel window size {} does not match the architecture window {n}",
                kernel.window_size()
            )));
        }
        if st.rows_in >= st.height {
            return Err(SwError::config(format!(
                "row {} exceeds the declared frame height {}",
                st.rows_in, st.height
            )));
        }
        let w = self.cfg.width;
        let r = st.rows_in;
        let input = self.band_offset(r as i64) + n * w;
        self.bands[input..input + w].copy_from_slice(row);

        let t0 = self.telemetry.is_profiling().then(Instant::now);
        let nested = self.prof.decode_ns + self.prof.encode_ns;
        self.walk_row(r, st.height)?;
        if let Some(t0) = t0 {
            let nested = self.prof.decode_ns + self.prof.encode_ns - nested;
            self.prof.memunit_ns += elapsed_ns(t0).saturating_sub(nested);
            self.prof.memunit_calls += 1;
        }

        // Kernel output once the window rows are all image rows.
        if r + 1 >= n {
            let t0 = self.telemetry.is_profiling().then(Instant::now);
            let top = self.band_offset(r as i64) + w;
            let band = RowBand::new(&self.bands[top..], w, n, w);
            let out_w = st.out.width();
            let y = r + 1 - n;
            let out = &mut st.out.pixels_mut()[y * out_w..(y + 1) * out_w];
            if kernel.name() != self.row_cache_kernel {
                self.row_cache.clear();
                self.row_cache_kernel = kernel.name();
            }
            kernel.apply_row(&band, &mut self.row_cache, out);
            if let Some(t0) = t0 {
                self.prof.kernel_ns += elapsed_ns(t0);
                self.prof.kernel_calls += 1;
            }
        }
        st.cycle += w as u64;
        st.rows_in += 1;
        self.stream = Some(st);
        Ok(())
    }

    /// Close the open streamed frame and collect its output and
    /// statistics.
    ///
    /// # Errors
    ///
    /// [`SwError::Config`] when no stream is open or fewer rows arrived
    /// than [`begin_frame`](Self::begin_frame) declared.
    pub fn finish_frame(&mut self) -> Result<FrameOutput> {
        let Some(st) = self.stream.take() else {
            return Err(SwError::config(
                "finish_frame called without an open begin_frame stream".to_string(),
            ));
        };
        if st.rows_in != st.height {
            return Err(SwError::config(format!(
                "stream finished after {} of {} declared rows",
                st.rows_in, st.height
            )));
        }
        let cycle = st.cycle;
        self.m_cycles.add(cycle);
        self.m_window_shifts.add(cycle); // one shift per input pixel
        self.flush_telemetry();
        self.trace(cycle, TraceKind::FrameEnd, cycle, 0);

        // Flush the per-frame phase aggregates while any enclosing frame
        // span is still open, so they land under "frame/…" in the span
        // tree when driven by `process_frame`.
        let p = self.prof;
        for (name, ns, calls) in [
            ("decode", p.decode_ns, p.decode_calls),
            ("kernel", p.kernel_ns, p.kernel_calls),
            ("encode", p.encode_ns, p.encode_calls),
            ("memunit", p.memunit_ns, p.memunit_calls),
        ] {
            if calls > 0 {
                self.telemetry.profile_record(name, ns, calls);
            }
        }

        let management_bits = self.kind.management_bits(&self.cfg);
        let (stall_cycles, t_escalations, mu_overflows) = match &self.memory_unit {
            Some(mu) => (
                mu.stall_cycles(),
                mu.escalations(),
                mu.overflow_events() as usize,
            ),
            None => (0, 0, 0),
        };
        let stats = FrameStats {
            cycles: cycle,
            payload_bits_total: self.per_band_bits.iter().sum(),
            per_band_bits_total: self.per_band_bits,
            peak_payload_occupancy: self.occupancy_watermark.max(),
            peak_total_occupancy: self.occupancy_watermark.max() + management_bits,
            management_bits,
            raw_buffer_bits: self.kind.raw_span_bits(&self.cfg),
            overflow_events: self.overflow_events + mu_overflows,
            stall_cycles,
            t_escalations,
        };
        Ok(FrameOutput {
            image: st.out,
            stats,
        })
    }

    // --- geometry ---------------------------------------------------------

    /// Offset of image row `row`'s band (`row ≥ −1`).
    fn band_offset(&self, row: i64) -> usize {
        let slot = (row + 1).rem_euclid(3) as usize;
        slot * (self.cfg.window + 1) * self.cfg.width
    }

    /// Image row and column of the column evicted at cycle `s` (the
    /// column that entered `N` cycles earlier; row −1 is the cleared
    /// window).
    fn entered_at(&self, s: u64) -> (i64, usize) {
        let e = s as i64 - self.cfg.window as i64;
        let w = self.cfg.width as i64;
        (e.div_euclid(w), e.rem_euclid(w) as usize)
    }

    /// Index of group `k`'s slot.
    fn slot(&self, k: u64) -> usize {
        (k % self.slots.len() as u64) as usize
    }

    /// The slot after `slot`.
    fn next_slot(&self, slot: usize) -> usize {
        if slot + 1 == self.slots.len() {
            0
        } else {
            slot + 1
        }
    }

    /// The longest batch of groups from `first` (before `end`) that one
    /// codec row call takes: at most one image row's and
    /// [`BATCH_COLUMNS`] columns, within one pass of the slot ring.
    fn segment(&self, first: u64, end: u64) -> Segment {
        let g = self.group as u64;
        let (row, col) = self.entered_at(first * g);
        if self.entered_at(first * g + g - 1).0 != row {
            return Segment::Straddle(first);
        }
        // Groups whose last column entered before the next image row.
        let row_end = ((row + 1) * self.cfg.width as i64 + self.cfg.window as i64) as u64 / g;
        let ring_end = first + (self.slots.len() - self.slot(first)) as u64;
        let batch_end = first + batch_groups(self.group) as u64;
        Segment::Run {
            first,
            count: row_end.min(ring_end).min(batch_end).min(end) - first,
            row,
            col,
        }
    }

    // --- the event walk ---------------------------------------------------

    /// Resolve image row `r`'s cycles: every decode, retire and push
    /// event of the row, in cycle order.
    fn walk_row(&mut self, r: usize, height: usize) -> Result<()> {
        let g = self.group as u64;
        let delay = self.cfg.fifo_depth() as u64; // W − N cycles
        let end = ((r + 1) * self.cfg.width) as u64;
        loop {
            let decode_at = self.delivered * g + delay;
            let retire_at = self.retired * g + g - 1 + delay;
            let push_at = self.pushed * g + g - 1;
            let next = decode_at.min(retire_at).min(push_at);
            if next >= end {
                return Ok(());
            }
            if decode_at == next {
                self.decode_event()?;
            } else if retire_at == next {
                self.retire_event()?;
            } else {
                self.push_event(r, height)?;
            }
        }
    }

    /// The delivery cycle of group `delivered`: its decoded columns begin
    /// re-entering the window.
    fn decode_event(&mut self) -> Result<()> {
        let k = self.delivered;
        self.m_unpack_pairs.inc();
        let slot = self.deliver_slot;
        if self.kind != LineCodecKind::Raw {
            let bits = self.slots[slot].payload_bits;
            self.trace(k * self.group as u64, TraceKind::Unpack, bits, 0);
        }
        self.codec.record_decoded(&self.slots[slot].data);
        if self.decoded <= k {
            self.decode_pending();
        }
        if let Some((failed, detail)) = &self.decode_failure {
            if *failed == k {
                return Err(SwError::Decode {
                    codec: self.kind,
                    detail: detail.clone(),
                });
            }
        }
        self.delivered += 1;
        self.deliver_slot = self.next_slot(slot);
        Ok(())
    }

    /// The cycle group `retired`'s last column re-enters: its bits leave
    /// the memory unit.
    fn retire_event(&mut self) -> Result<()> {
        let tag = self.retired * self.group as u64 + self.group as u64 - 1;
        let slot = self.retire_slot;
        let bits = self.slots[slot].payload_bits;
        if let Some(mu) = self.memory_unit.as_mut() {
            if self
                .faults
                .as_ref()
                .is_some_and(|f| f.fifo_underflow_at(mu.retire_seq()))
            {
                return Err(mu.force_underflow());
            }
            mu.retire_group()?;
        }
        self.payload_occupancy -= bits;
        if self.kind != LineCodecKind::Raw {
            self.trace(tag, TraceKind::FifoPop, self.payload_occupancy, bits);
        }
        self.retired += 1;
        self.retire_slot = self.next_slot(slot);
        Ok(())
    }

    /// The cycle group `pushed`'s last column is evicted: resolve the
    /// memory unit's overflow policy and store the group.
    fn push_event(&mut self, r: usize, height: usize) -> Result<()> {
        let k = self.pushed;
        let first_exit = k * self.group as u64;
        if self.encoded == k || self.ready_threshold != self.cfg.threshold {
            // Nothing encoded ahead, or an escalation overtook it: encode
            // the tail from here at the threshold now in force.
            self.encoded = k;
            self.prepare(r, height);
        }
        let slot = self.push_slot;
        self.codec.record_encoded(&self.slots[slot].data);
        self.m_iwt_pairs.inc();

        // Capacity policy: resolve before the per-band accounting so the
        // statistics describe the encoding that is actually stored.
        if let Some(mut deficit) = self
            .memory_unit
            .as_ref()
            .and_then(|mu| mu.deficit(self.slots[slot].payload_bits))
        {
            let policy = self.memory_unit.as_ref().map(MemoryUnit::policy);
            match policy {
                Some(OverflowPolicy::Fail) => {
                    if let Some(mu) = &self.memory_unit {
                        return Err(mu.overflow_error(self.slots[slot].payload_bits));
                    }
                }
                Some(OverflowPolicy::Stall) => {
                    // Hardware would hold the pipeline until readout frees
                    // space; the model charges the drain time and stores
                    // the group.
                    if let Some(mu) = self.memory_unit.as_mut() {
                        let stall_cycles = mu.record_stall(deficit);
                        self.trace(first_exit, TraceKind::Stall, stall_cycles, deficit);
                    }
                }
                Some(OverflowPolicy::DegradeLossy) => {
                    let max_t = self
                        .memory_unit
                        .as_ref()
                        .map_or(0, |mu| mu.config().max_threshold);
                    while deficit > 0 && self.kind.is_lossy_capable() && self.cfg.threshold < max_t
                    {
                        self.cfg.threshold += 1;
                        self.rebuild_codec();
                        self.encode_one(k);
                        self.codec.record_encoded(&self.slots[slot].data);
                        if let Some(mu) = self.memory_unit.as_mut() {
                            mu.record_escalation();
                            deficit = mu.deficit(self.slots[slot].payload_bits).unwrap_or(0);
                        }
                    }
                    if deficit > 0 {
                        if let Some(mu) = self.memory_unit.as_mut() {
                            mu.record_overflow();
                        }
                    }
                }
                None => {}
            }
        }

        let stored = &mut self.slots[slot];
        for (total, bits) in self.per_band_bits.iter_mut().zip(stored.per_band_bits) {
            *total += bits;
        }

        // Fault injection: flip a bit of the final (stored) encoding.
        if let Some(faults) = &self.faults {
            if let Some((site, bit)) = faults.encoded_flip(k) {
                self.codec.corrupt(&mut stored.data, site, bit);
            }
        }
        let force_overflow = self.faults.as_ref().is_some_and(|f| f.fifo_overflow_at(k));

        let bits = stored.payload_bits;
        if let Some(cap) = self.capacity_bits {
            if self.payload_occupancy + bits > cap {
                self.overflow_events += 1;
                self.m_overflow.inc();
                if self.kind != LineCodecKind::Raw {
                    self.trace(
                        first_exit,
                        TraceKind::Overflow,
                        self.payload_occupancy + bits,
                        cap,
                    );
                }
            }
        }
        if let Some(mu) = self.memory_unit.as_mut() {
            mu.push_group(bits, force_overflow);
        }
        self.payload_occupancy += bits;
        self.occupancy_watermark.observe(self.payload_occupancy);
        self.occ_hist.observe(self.payload_occupancy);
        self.occ_gauge.observe_max(self.payload_occupancy);
        if self.kind != LineCodecKind::Raw {
            self.trace(first_exit, TraceKind::Pack, bits, self.payload_occupancy);
        }
        self.pushed += 1;
        self.push_slot = self.next_slot(slot);
        Ok(())
    }

    // --- batched compute --------------------------------------------------

    /// Decode every pushed group into the bands, then encode every group
    /// whose columns have all entered (during row `r` or before).
    fn prepare(&mut self, r: usize, height: usize) {
        self.decode_pending();
        let g = self.group as u64;
        let (n, w) = (self.cfg.window as u64, self.cfg.width as u64);
        let delay = w - n;
        // Entered columns available: row r's input is in, and a column
        // past the first `W − N` needs its decoded predecessor.
        let available = ((r as u64 + 1) * w).min(self.decoded * g + delay);
        let encodable = ((available + n) / g)
            .min(height as u64 * w / g)
            .min(self.pushed + batch_groups(self.group) as u64);
        // The group being pushed is always among them: its columns'
        // predecessors were delivered, so decoded, before its push cycle.
        assert!(encodable > self.pushed, "push invariant");
        self.encode_pending(encodable);
    }

    /// Decode every pushed group not yet decoded into the band of the row
    /// its columns re-enter, stopping at the first failure.
    fn decode_pending(&mut self) {
        if self.decode_failure.is_some() || self.decoded >= self.pushed {
            return;
        }
        let t0 = self.telemetry.is_profiling().then(Instant::now);
        let (n, w) = (self.cfg.window, self.cfg.width);
        while self.decoded < self.pushed {
            let seg = self.segment(self.decoded, self.pushed);
            let result = match seg {
                Segment::Run {
                    first,
                    count,
                    row,
                    col,
                } => {
                    let at = self.band_offset(row + 1) + col;
                    let first_slot = self.slot(first);
                    let mut out =
                        RowBandMut::new(&mut self.bands[at..], w, n, count as usize * self.group);
                    let slots = &self.slots[first_slot..first_slot + count as usize];
                    let groups = slots.iter().map(|e| &e.data);
                    self.codec
                        .decode_row(groups, &mut out)
                        .map(|()| count)
                        .map_err(|(i, detail)| (first + i as u64, detail))
                }
                Segment::Straddle(k) => self.decode_one(k).map(|()| 1),
            };
            match result {
                Ok(count) => self.decoded += count,
                Err((failed, detail)) => {
                    self.decoded = failed;
                    self.decode_failure = Some((failed, detail));
                    break;
                }
            }
        }
        if let Some(t0) = t0 {
            self.prof.decode_ns += elapsed_ns(t0);
            self.prof.decode_calls += 1;
        }
    }

    /// Decode one straddling group column by column.
    fn decode_one(&mut self, k: u64) -> std::result::Result<(), (u64, String)> {
        let slot = self.slot(k);
        let mut cols = std::mem::take(&mut self.decoded_scratch);
        let result = self
            .codec
            .try_decode_group_into(&self.slots[slot].data, &mut cols)
            .and_then(|()| {
                if cols.len() == self.group {
                    Ok(())
                } else {
                    Err(format!(
                        "decoded group holds {} columns, expected {}",
                        cols.len(),
                        self.group
                    ))
                }
            });
        if result.is_ok() {
            let (n, w) = (self.cfg.window, self.cfg.width);
            for (m, col) in cols.iter().enumerate() {
                let (row, c) = self.entered_at(k * self.group as u64 + m as u64);
                let at = self.band_offset(row + 1) + c;
                RowBandMut::new(&mut self.bands[at..], w, n, 1).write_column(0, col);
            }
        }
        self.decoded_scratch = cols;
        result.map_err(|detail| (k, detail))
    }

    /// Encode groups `encoded..upto` into their slots at the current
    /// threshold.
    fn encode_pending(&mut self, upto: u64) {
        if self.encoded >= upto {
            return;
        }
        let t0 = self.telemetry.is_profiling().then(Instant::now);
        let (n, w) = (self.cfg.window, self.cfg.width);
        self.ready_threshold = self.cfg.threshold;
        while self.encoded < upto {
            match self.segment(self.encoded, upto) {
                Segment::Run {
                    first,
                    count,
                    row,
                    col,
                } => {
                    let at = self.band_offset(row) + w + col;
                    let cols = RowBand::new(&self.bands[at..], w, n, count as usize * self.group);
                    let slot = self.slot(first);
                    self.codec
                        .encode_row(&cols, &mut self.slots[slot..slot + count as usize]);
                    self.encoded += count;
                }
                Segment::Straddle(k) => {
                    self.encode_one(k);
                    self.encoded += 1;
                }
            }
        }
        if let Some(t0) = t0 {
            self.prof.encode_ns += elapsed_ns(t0);
            self.prof.encode_calls += 1;
        }
    }

    /// Gather group `k`'s columns from the bands and encode it alone into
    /// its slot.
    fn encode_one(&mut self, k: u64) {
        let w = self.cfg.width;
        for m in 0..self.group {
            let (row, c) = self.entered_at(k * self.group as u64 + m as u64);
            let at = self.band_offset(row) + w + c;
            let col = RowBand::new(&self.bands[at..], w, self.cfg.window, 1);
            col.read_column(0, &mut self.staging[m], <C::Sample as Sample>::from_pixel);
        }
        let slot = self.slot(k);
        let recycled = std::mem::take(&mut self.slots[slot].data);
        self.slots[slot] = self.codec.encode_group_reuse(&self.staging, Some(recycled));
    }

    /// Record one trace event — built only when a trace ring is bound.
    #[inline]
    fn trace(&self, cycle: u64, kind: TraceKind, a: u64, b: u64) {
        if self.telemetry.is_tracing() {
            self.telemetry.trace(TraceEvent::new(cycle, kind, a, b));
        }
    }

    /// Publish the frame-local instruments (this datapath's, its codec's
    /// and its memory unit's) to the bound registry.
    fn flush_telemetry(&mut self) {
        self.m_iwt_pairs.flush();
        self.m_unpack_pairs.flush();
        self.m_overflow.flush();
        self.occ_hist.flush();
        self.occ_gauge.flush();
        self.codec.flush_telemetry();
        if let Some(mu) = self.memory_unit.as_mut() {
            mu.flush_telemetry();
        }
    }

    /// Clear all state (frame boundary). A `DegradeLossy` threshold
    /// escalation persists only to the end of its frame: the configured
    /// base threshold is restored here. Telemetry an aborted frame
    /// recorded is published first.
    pub fn reset(&mut self) {
        self.flush_telemetry();
        self.stream = None;
        if self.cfg.threshold != self.base_threshold {
            self.cfg.threshold = self.base_threshold;
            self.rebuild_codec();
        }
        self.codec.reset();
        // The cleared window: zero columns, and nothing delivered yet.
        self.bands.fill(0);
        self.pushed = 0;
        self.delivered = 0;
        self.retired = 0;
        self.decoded = 0;
        self.encoded = 0;
        self.push_slot = 0;
        self.deliver_slot = 0;
        self.retire_slot = 0;
        self.decode_failure = None;
        self.payload_occupancy = 0;
        self.occupancy_watermark.reset();
        self.per_band_bits = [0; 4];
        self.overflow_events = 0;
        self.prof.clear();
        if let Some(mu) = self.memory_unit.as_mut() {
            mu.reset();
        }
    }
}

impl<C: LineCodec> SlidingWindowArch for SlidingWindow<C> {
    fn process_frame(&mut self, img: &ImageU8, kernel: &dyn WindowKernel) -> Result<FrameOutput> {
        SlidingWindow::process_frame(self, img, kernel)
    }

    fn begin_frame(&mut self, height: usize) -> Result<()> {
        SlidingWindow::begin_frame(self, height)
    }

    fn push_row(&mut self, row: &[Pixel], kernel: &dyn WindowKernel) -> Result<()> {
        SlidingWindow::push_row(self, row, kernel)
    }

    fn finish_frame(&mut self) -> Result<FrameOutput> {
        SlidingWindow::finish_frame(self)
    }

    fn reset(&mut self) {
        SlidingWindow::reset(self);
    }

    fn config(&self) -> &ArchConfig {
        SlidingWindow::config(self)
    }

    fn codec_kind(&self) -> LineCodecKind {
        self.kind
    }

    fn bind_telemetry(&mut self, telemetry: &TelemetryHandle, name: &str) {
        self.bind(telemetry, name);
    }

    fn set_threshold(&mut self, t: Coeff) {
        assert!(t >= 0, "threshold must be non-negative");
        self.cfg.threshold = t;
        self.base_threshold = t;
        self.rebuild_codec();
    }

    fn set_memory_unit(&mut self, cfg: Option<MemoryUnitConfig>) {
        self.install_memory_unit(cfg);
    }

    fn set_fault_injector(&mut self, faults: Option<FaultInjector>) {
        self.faults = faults;
    }
}

/// Build the architecture `cfg.codec` selects, behind the object-safe
/// trait. This is the single source of truth mapping the value-level
/// codec selection to the generic implementation.
///
/// # Errors
///
/// [`SwError::Config`] when the codec rejects the geometry (see
/// [`ArchConfig::validate`]).
pub fn build_arch(cfg: &ArchConfig) -> Result<Box<dyn SlidingWindowArch + Send>> {
    cfg.validate()?;
    Ok(match cfg.codec {
        LineCodecKind::Raw => Box::new(SlidingWindow::<RawCodec>::new(*cfg)),
        LineCodecKind::Haar => Box::new(SlidingWindow::<HaarIwtCodec>::new(*cfg)),
        LineCodecKind::Haar2 => Box::new(SlidingWindow::<HaarTwoLevelCodec>::new(*cfg)),
        LineCodecKind::Legall => Box::new(SlidingWindow::<LeGall53Codec>::new(*cfg)),
        LineCodecKind::Locoi => Box::new(SlidingWindow::<LocoIPredictiveCodec>::new(*cfg)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{BoxFilter, Tap};
    use crate::reference::direct_sliding_window;
    use sw_image::mse;

    fn test_image(w: usize, h: usize) -> ImageU8 {
        ImageU8::from_fn(w, h, |x, y| {
            let s = 96.0
                + 64.0 * ((x as f64 / w as f64) * 3.1).sin()
                + 48.0 * ((y as f64 / h as f64) * 2.3).cos()
                + ((x * 7 + y * 13) % 5) as f64;
            s.clamp(0.0, 255.0) as u8
        })
    }

    #[test]
    fn memory_saving_guards_empty_span() {
        // The W == N corner leaves zero FIFO columns: raw_buffer_bits is
        // 0 and the former implementation returned NaN. The guard returns
        // 0.0 — nothing buffered, nothing saved.
        let stats = FrameStats {
            cycles: 0,
            payload_bits_total: 0,
            per_band_bits_total: [0; 4],
            peak_payload_occupancy: 0,
            peak_total_occupancy: 0,
            management_bits: 0,
            raw_buffer_bits: 0,
            overflow_events: 0,
            stall_cycles: 0,
            t_escalations: 0,
        };
        let saving = stats.memory_saving_pct();
        assert!(!saving.is_nan(), "guard must prevent NaN");
        assert_eq!(saving, 0.0);
    }

    #[test]
    fn every_codec_runs_lossless_end_to_end_and_matches_direct() {
        let img = test_image(64, 40);
        let kernel = BoxFilter::new(8);
        let direct = direct_sliding_window(&img, &kernel);
        for kind in LineCodecKind::ALL {
            let cfg = ArchConfig::new(8, 64).with_codec(kind);
            let mut arch = build_arch(&cfg).unwrap();
            let out = arch.process_frame(&img, &kernel).unwrap();
            assert_eq!(out.image, direct, "{kind:?} lossless output");
            assert_eq!(out.stats.cycles, 64 * 40, "{kind:?} cycles");
            assert_eq!(arch.codec_kind(), kind);
        }
    }

    #[test]
    fn row_streaming_matches_whole_frame_per_codec() {
        // The serving layer's streamed-job contract: pushing rows one at
        // a time through begin/push/finish is byte-identical to one
        // process_frame call — image, stats, and threshold behavior.
        let img = test_image(64, 40);
        let kernel = BoxFilter::new(8);
        for kind in LineCodecKind::ALL {
            for threshold in [0, 4] {
                let cfg = ArchConfig::new(8, 64)
                    .with_codec(kind)
                    .with_threshold(threshold);
                let whole = build_arch(&cfg)
                    .unwrap()
                    .process_frame(&img, &kernel)
                    .unwrap();
                let mut arch = build_arch(&cfg).unwrap();
                arch.begin_frame(img.height()).unwrap();
                for r in 0..img.height() {
                    arch.push_row(img.row(r), &kernel).unwrap();
                }
                let streamed = arch.finish_frame().unwrap();
                assert_eq!(
                    streamed.image.pixels(),
                    whole.image.pixels(),
                    "{kind:?} T={threshold} streamed output"
                );
                assert_eq!(
                    streamed.stats.fields(),
                    whole.stats.fields(),
                    "{kind:?} T={threshold} streamed stats"
                );
            }
        }
    }

    #[test]
    fn stream_misuse_is_typed_and_recoverable() {
        let img = test_image(64, 40);
        let kernel = BoxFilter::new(8);
        let cfg = ArchConfig::new(8, 64).with_codec(LineCodecKind::Haar);
        let mut arch = build_arch(&cfg).unwrap();
        // No stream open.
        assert!(arch.push_row(img.row(0), &kernel).is_err());
        assert!(arch.finish_frame().is_err());
        // Too few rows.
        arch.begin_frame(img.height()).unwrap();
        arch.push_row(img.row(0), &kernel).unwrap();
        assert!(arch.finish_frame().is_err());
        // A short row aborts the stream; later pushes fail typed.
        arch.begin_frame(img.height()).unwrap();
        assert!(arch.push_row(&img.row(0)[..10], &kernel).is_err());
        assert!(arch.push_row(img.row(0), &kernel).is_err());
        // The architecture recovers fully for the next frame.
        let direct = direct_sliding_window(&img, &kernel);
        let out = arch.process_frame(&img, &kernel).unwrap();
        assert_eq!(out.image, direct);
    }

    #[test]
    fn raw_and_haar_lossless_outputs_are_bit_equal() {
        // The ISSUE's acceptance criterion, stated directly.
        let img = test_image(48, 32);
        let kernel = Tap::top_left(8);
        let raw = build_arch(&ArchConfig::new(8, 48).with_codec(LineCodecKind::Raw))
            .unwrap()
            .process_frame(&img, &kernel)
            .unwrap();
        let haar = build_arch(&ArchConfig::new(8, 48).with_codec(LineCodecKind::Haar))
            .unwrap()
            .process_frame(&img, &kernel)
            .unwrap();
        assert_eq!(raw.image.pixels(), haar.image.pixels());
    }

    #[test]
    fn raw_codec_reports_traditional_footprint() {
        let img = test_image(64, 24);
        let cfg = ArchConfig::new(8, 64).with_codec(LineCodecKind::Raw);
        let out = build_arch(&cfg)
            .unwrap()
            .process_frame(&img, &BoxFilter::new(8))
            .unwrap();
        assert_eq!(out.stats.raw_buffer_bits, (64 - 8) * 7 * 8);
        assert_eq!(out.stats.management_bits, 0);
        // Steady state fills the span exactly: peak equals the raw bits,
        // so the saving is 0 — raw buffering saves nothing, by definition.
        assert_eq!(out.stats.peak_total_occupancy, out.stats.raw_buffer_bits);
        assert_eq!(out.stats.memory_saving_pct(), 0.0);
    }

    #[test]
    fn lossy_thresholds_stay_bounded_per_codec() {
        let img = test_image(64, 40);
        let n = 8;
        for kind in [
            LineCodecKind::Haar,
            LineCodecKind::Haar2,
            LineCodecKind::Legall,
        ] {
            let cfg = ArchConfig::new(n, 64).with_codec(kind).with_threshold(4);
            let mut arch = build_arch(&cfg).unwrap();
            let out = arch.process_frame(&img, &Tap::top_left(n)).unwrap();
            let crop = img.crop(0, 0, out.image.width(), out.image.height());
            let e = mse(&out.image, &crop);
            assert!(e > 0.0, "{kind:?} T=4 must be lossy");
            assert!(e < 80.0, "{kind:?} T=4 MSE {e:.1} out of control");
        }
        // Inherently lossless codecs ignore the threshold.
        for kind in [LineCodecKind::Raw, LineCodecKind::Locoi] {
            let cfg = ArchConfig::new(n, 64).with_codec(kind).with_threshold(4);
            let mut arch = build_arch(&cfg).unwrap();
            let out = arch.process_frame(&img, &Tap::top_left(n)).unwrap();
            let crop = img.crop(0, 0, out.image.width(), out.image.height());
            assert_eq!(mse(&out.image, &crop), 0.0, "{kind:?} stays lossless");
        }
    }

    #[test]
    fn set_threshold_retunes_through_the_trait() {
        let img = test_image(64, 40);
        let cfg = ArchConfig::new(8, 64).with_codec(LineCodecKind::Haar);
        let mut arch = build_arch(&cfg).unwrap();
        let lossless = arch.process_frame(&img, &BoxFilter::new(8)).unwrap();
        arch.set_threshold(6);
        assert_eq!(arch.config().threshold, 6);
        let lossy = arch.process_frame(&img, &BoxFilter::new(8)).unwrap();
        assert!(
            lossy.stats.peak_payload_occupancy < lossless.stats.peak_payload_occupancy,
            "raising the threshold must shrink the payload"
        );
        arch.set_threshold(0);
        let back = arch.process_frame(&img, &BoxFilter::new(8)).unwrap();
        assert_eq!(back.stats, lossless.stats, "retune back to lossless");
    }

    #[test]
    fn telemetry_series_per_codec_family() {
        let img = test_image(32, 20);
        // Raw registers exactly the traditional series.
        let t = TelemetryHandle::new();
        let mut arch = build_arch(&ArchConfig::new(4, 32).with_codec(LineCodecKind::Raw)).unwrap();
        arch.bind_telemetry(&t, "s0");
        arch.process_frame(&img, &BoxFilter::new(4)).unwrap();
        let r = t.report();
        assert!(r.counters.contains_key("stage.s0.cycles"));
        assert!(!r.counters.contains_key("stage.s0.iwt_pairs"));
        assert!(!r.gauges.contains_key("stage.s0.threshold"));
        // No memory unit configured: no memunit series registered.
        assert!(!r.counters.keys().any(|k| k.starts_with("memunit.")));
        assert!(!r.gauges.keys().any(|k| k.starts_with("memunit.")));
        // Compressing codecs register the full set.
        for kind in [
            LineCodecKind::Haar2,
            LineCodecKind::Legall,
            LineCodecKind::Locoi,
        ] {
            let t = TelemetryHandle::new();
            let mut arch = build_arch(&ArchConfig::new(4, 32).with_codec(kind)).unwrap();
            arch.bind_telemetry(&t, "s0");
            arch.process_frame(&img, &BoxFilter::new(4)).unwrap();
            let r = t.report();
            assert!(r.counters["stage.s0.iwt_pairs"] > 0, "{kind:?}");
            // Groups packed in the frame's last W−N cycles stay in flight
            // when it ends, so unpacks trail packs by at most that tail.
            let packed = r.counters["stage.s0.iwt_pairs"];
            let unpacked = r.counters["stage.s0.unpack_pairs"];
            assert!(
                unpacked > 0 && unpacked <= packed,
                "{kind:?}: {unpacked} unpacked of {packed} packed"
            );
            assert!(
                r.gauges["fifo.s0.high_water_bits"] > 0,
                "{kind:?} high water"
            );
        }
    }

    #[test]
    fn locoi_compresses_flat_columns_but_not_textured_ones() {
        // Per-column LOCO-I restarts its contexts every N pixels, so it
        // only wins where run mode can engage (flat columns) — which is
        // exactly the paper's argument against generic predictive coding
        // in a line buffer. Pin both sides of that trade-off.
        let run = |img: &ImageU8| {
            build_arch(&ArchConfig::new(8, 96).with_codec(LineCodecKind::Locoi))
                .unwrap()
                .process_frame(img, &BoxFilter::new(8))
                .unwrap()
                .stats
                .peak_payload_occupancy
        };
        let raw_span = (96u64 - 8) * 8 * 8;
        assert!(
            run(&ImageU8::filled(96, 48, 128)) < raw_span,
            "LOCO-I must undercut the raw span on flat content"
        );
        assert!(
            run(&test_image(96, 48)) > raw_span / 2,
            "textured columns defeat per-column restarts"
        );
    }

    #[test]
    fn memory_unit_presence_keeps_default_output_identical() {
        // A generously sized memory unit never trips its policy, so the
        // frame output and statistics (minus the memunit-only fields)
        // must be identical to the unbounded datapath.
        let img = test_image(64, 40);
        let cfg = ArchConfig::new(8, 64).with_codec(LineCodecKind::Haar);
        let baseline = build_arch(&cfg)
            .unwrap()
            .process_frame(&img, &BoxFilter::new(8))
            .unwrap();
        let mut arch = build_arch(&cfg).unwrap();
        arch.set_memory_unit(Some(MemoryUnitConfig::new(1 << 24, OverflowPolicy::Fail)));
        let out = arch.process_frame(&img, &BoxFilter::new(8)).unwrap();
        assert_eq!(out.image, baseline.image);
        assert_eq!(out.stats, baseline.stats, "ample capacity changes nothing");
    }

    #[test]
    fn fail_policy_surfaces_a_typed_overflow() {
        let img = test_image(64, 40);
        let cfg = ArchConfig::new(8, 64).with_codec(LineCodecKind::Haar);
        let mut arch = build_arch(&cfg).unwrap();
        arch.set_memory_unit(Some(MemoryUnitConfig::new(64, OverflowPolicy::Fail)));
        let err = arch
            .process_frame(&img, &BoxFilter::new(8))
            .expect_err("64 bits cannot hold the frame");
        assert!(matches!(err, SwError::Fifo(_)), "got {err}");
    }

    #[test]
    fn stall_policy_charges_backpressure_and_keeps_output() {
        let img = test_image(64, 40);
        let cfg = ArchConfig::new(8, 64).with_codec(LineCodecKind::Haar);
        let baseline = build_arch(&cfg)
            .unwrap()
            .process_frame(&img, &BoxFilter::new(8))
            .unwrap();
        let mut arch = build_arch(&cfg).unwrap();
        arch.set_memory_unit(Some(MemoryUnitConfig::new(512, OverflowPolicy::Stall)));
        let out = arch.process_frame(&img, &BoxFilter::new(8)).unwrap();
        assert_eq!(out.image, baseline.image, "stall never corrupts data");
        assert!(out.stats.stall_cycles > 0, "tiny budget must stall");
        assert_eq!(out.stats.t_escalations, 0);
    }

    #[test]
    fn degrade_policy_escalates_threshold_and_bounds_occupancy() {
        let img = test_image(64, 40);
        let cfg = ArchConfig::new(8, 64).with_codec(LineCodecKind::Haar);
        let mut arch = build_arch(&cfg).unwrap();
        arch.set_memory_unit(Some(MemoryUnitConfig::new(
            2048,
            OverflowPolicy::DegradeLossy,
        )));
        let out = arch.process_frame(&img, &BoxFilter::new(8)).unwrap();
        assert!(out.stats.t_escalations > 0, "tight budget must escalate");
        // The escalation persists only within the frame: the configured
        // threshold is restored at the next frame boundary, so a rerun
        // reproduces the same statistics.
        assert!(
            arch.config().threshold > 0,
            "escalated T visible after frame"
        );
        let again = arch.process_frame(&img, &BoxFilter::new(8)).unwrap();
        assert_eq!(out.stats, again.stats, "degrade path is deterministic");
    }
}
