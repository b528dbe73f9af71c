//! The traced run's per-layer measurements, each timed around calls into
//! one module's public functions and recorded as a span under one
//! `bench.layers` root.

use std::hint::black_box;
use std::time::Instant;

use sw_bitstream::column::{decode_column_sliced_into, encode_column, encode_column_sliced_into};
use sw_bitstream::nbits::min_bits_significant_sliced;
use sw_bitstream::HotPath;
use sw_core::arch::{build_arch, FrameStats};
use sw_core::codec::{
    HaarIwtCodec, HaarTwoLevelCodec, LeGall53Codec, LineCodec, LineCodecKind, RawCodec,
};
use sw_core::config::ArchConfig;
use sw_core::integral::{analyze_integral, IntegralConfig};
use sw_core::kernels::{BoxFilter, GaussianFilter, SobelMagnitude, WindowKernel};
use sw_core::shard::{ShardedFrameRunner, DEFAULT_STRIPS};
use sw_core::window::ActiveWindow;
use sw_core::Coeff;
use sw_image::ImageU8;
use sw_pool::ThreadPool;
use sw_serve::api::{RowChunk, StreamOpen};
use sw_serve::exec;
use sw_serve::wire::{write_frame, FrameAssembler, MsgKind};
use sw_telemetry::TelemetryHandle;
use sw_wavelet::haar2d::{ColumnPairInverse, ColumnPairTransformer};

use crate::gen::{frame, Plan, WorkloadKind, CODECS, POOL_JOBS, STREAM_CHUNK_ROWS, WINDOW};
use crate::stats::{median, ratio};
use crate::trace::Tracer;

/// Named values collected by the layer measurements.
pub type Metrics = Vec<(String, f64)>;

/// Times `f` as a span named `name` under `parent`, recording `args`
/// computed from its result. Returns the result and the elapsed ns.
fn span<R>(
    tracer: &Tracer,
    name: &str,
    parent: u64,
    f: impl FnOnce() -> R,
    args: impl FnOnce(&R) -> Vec<(&'static str, f64)>,
) -> (R, u64) {
    let open = tracer.begin(name, Some(parent), None, 0);
    let started = Instant::now();
    let r = f();
    let end = Instant::now();
    let a = args(&r);
    tracer.end_at(open, end, &a);
    (r, end.duration_since(started).as_nanos() as u64)
}

fn cfg(width: usize, codec: LineCodecKind, threshold: Coeff) -> ArchConfig {
    ArchConfig::builder(WINDOW, width)
        .threshold(threshold)
        .codec(codec)
        .hot_path(HotPath::Sliced)
        .build()
        .expect("benchmark geometry is valid")
}

/// Every column the datapath evicts over a frame, in cycle order: the
/// `WINDOW` pixels ending at row `r` of column `c`, zero above the frame.
fn frame_columns(img: &ImageU8) -> Vec<Vec<u8>> {
    let n = WINDOW;
    let mut cols = Vec::with_capacity(img.width() * img.height());
    for r in 0..img.height() {
        for c in 0..img.width() {
            cols.push(
                (0..n)
                    .map(|k| {
                        let row = (r + k + 1).checked_sub(n);
                        row.map_or(0, |y| img.get(c, y))
                    })
                    .collect(),
            );
        }
    }
    cols
}

fn as_coeffs(cols: &[Vec<u8>]) -> Vec<Vec<Coeff>> {
    cols.iter()
        .map(|c| c.iter().map(|&p| Coeff::from(p)).collect())
        .collect()
}

/// Encode and decode ns per column of one codec over `cols`, median of
/// `reps` passes. Decode runs over the encodings of an untimed pass;
/// encode recycles each record the way the datapath does.
fn codec_ns_per_col<C: LineCodec<Sample = Coeff>>(
    cfg: &ArchConfig,
    cols: &[Vec<Coeff>],
    reps: usize,
) -> (f64, f64) {
    let mut codec = C::new(cfg);
    let g = codec.group_width();
    let groups: Vec<&[Vec<Coeff>]> = cols.chunks_exact(g).collect();
    let n_cols = (groups.len() * g) as f64;
    let mut enc: Vec<Option<C::Encoded>> = groups
        .iter()
        .map(|grp| Some(codec.encode_group(grp).data))
        .collect();
    let (mut enc_ns, mut dec_ns) = (Vec::new(), Vec::new());
    let mut out = Vec::new();
    for _ in 0..reps {
        let mut dec = C::new(cfg);
        let t = Instant::now();
        for e in enc.iter().flatten() {
            dec.try_decode_group_into(e, &mut out)
                .expect("encoded group decodes");
            black_box(&out);
        }
        dec_ns.push(t.elapsed().as_nanos() as f64 / n_cols);
        let mut fresh = C::new(cfg);
        let t = Instant::now();
        for (grp, slot) in groups.iter().zip(enc.iter_mut()) {
            let recycled = slot.take();
            *slot = Some(fresh.encode_group_reuse(grp, recycled).data);
        }
        enc_ns.push(t.elapsed().as_nanos() as f64 / n_cols);
        black_box(&enc);
    }
    (median(&enc_ns), median(&dec_ns))
}

fn codec_bench(kind: LineCodecKind, cfg: &ArchConfig, cols: &[Vec<Coeff>]) -> (f64, f64) {
    const REPS: usize = 3;
    match kind {
        LineCodecKind::Raw => codec_ns_per_col::<RawCodec>(cfg, cols, REPS),
        LineCodecKind::Haar => codec_ns_per_col::<HaarIwtCodec>(cfg, cols, REPS),
        LineCodecKind::Haar2 => codec_ns_per_col::<HaarTwoLevelCodec>(cfg, cols, REPS),
        _ => codec_ns_per_col::<LeGall53Codec>(cfg, cols, REPS),
    }
}

/// Per-layer measurements that depend only on the seed (the datapath
/// layers at fixed geometry), plus the memory-unit probe.
pub struct DatapathInputs {
    /// Two 256×256 frames (`whole-256` frames 0 and 1).
    pub square: Vec<ImageU8>,
    /// Sixteen 16×64 frames (`stream-narrow` geometry).
    pub narrow: Vec<ImageU8>,
    /// Four 512×96 frames (`budget-mix` geometry).
    pub wide: Vec<ImageU8>,
    /// The budgeted (memory-unit) requests of the `budget-mix` plan.
    pub budgeted: Vec<sw_serve::JobRequest>,
}

impl DatapathInputs {
    /// Generate the inputs from `seed`.
    pub fn generate(seed: u64) -> Self {
        let mix = Plan::generate(WorkloadKind::BudgetMix, seed);
        Self {
            square: (0..2).map(|i| frame(256, 256, seed, i)).collect(),
            narrow: (0..16).map(|i| frame(16, 64, seed, i)).collect(),
            wide: (0..4).map(|i| frame(512, 96, seed, i)).collect(),
            budgeted: mix
                .jobs
                .iter()
                .filter(|j| j.req.spec.overflow_policy.is_some())
                .map(|j| j.req.clone())
                .collect(),
        }
    }
}

/// Measure every datapath layer. Returns the metrics in table order.
pub fn datapath(tracer: &Tracer, root: u64, inputs: &DatapathInputs) -> Metrics {
    let mut m: Metrics = Vec::new();
    let boxf = BoxFilter::new(WINDOW);
    let (w, h) = (inputs.square[0].width(), inputs.square[0].height());

    // arch: whole frames per codec, telemetry off.
    let mut frame_ms = Vec::new();
    let mut sim = Vec::new();
    for kind in CODECS {
        let c = cfg(w, kind, 0);
        let mut times = Vec::new();
        let mut stats: Vec<FrameStats> = Vec::new();
        for _ in 0..2 {
            for img in &inputs.square {
                let (out, ns) = span(
                    tracer,
                    "arch.process_frame",
                    root,
                    || {
                        let mut arch = build_arch(&c).expect("valid config");
                        arch.process_frame(img, &boxf).expect("lossless frame runs")
                    },
                    |o| vec![("cycles", o.stats.cycles as f64)],
                );
                times.push(ns as f64 / 1e6);
                stats.push(out.stats);
            }
        }
        let ms = median(&times);
        frame_ms.push(ms);
        m.push((format!("arch.frame_ms.{}", kind.name()), ms));
        let n = stats.len() as f64;
        sim.push((
            kind,
            stats
                .iter()
                .map(|s| s.payload_bits_total as f64 / 8.0)
                .sum::<f64>()
                / n,
            stats.iter().map(FrameStats::memory_saving_pct).sum::<f64>() / n,
        ));
    }

    // arch: row-streamed 16-wide frames, raw and haar alternating.
    let mut row_us = Vec::new();
    for (i, img) in inputs.narrow.iter().enumerate() {
        let kind = [LineCodecKind::Raw, LineCodecKind::Haar][i % 2];
        let c = cfg(img.width(), kind, 0);
        let mut arch = build_arch(&c).expect("valid config");
        let (_, ns) = span(
            tracer,
            "arch.push_row",
            root,
            || {
                arch.begin_frame(img.height()).expect("stream opens");
                for row in img.rows() {
                    arch.push_row(row, &boxf).expect("row accepted");
                }
                arch.finish_frame().expect("stream closes")
            },
            |_| vec![("rows", img.height() as f64)],
        );
        row_us.push(ns as f64 / 1e3 / img.height() as f64);
    }
    m.push(("arch.push_row_us".into(), median(&row_us)));

    // codec: encode / decode over one frame's evicted columns.
    let cols8 = frame_columns(&inputs.square[0]);
    let cols = as_coeffs(&cols8);
    let mut enc_dec = Vec::new();
    for kind in CODECS {
        let ((e, d), _) = span(
            tracer,
            "codec.encode_decode",
            root,
            || codec_bench(kind, &cfg(w, kind, 0), &cols),
            |_| vec![("columns", cols.len() as f64)],
        );
        enc_dec.push((kind, e, d));
    }
    for (kind, e, _) in &enc_dec {
        m.push((format!("codec.encode_ns_per_col.{}", kind.name()), *e));
    }
    for (kind, _, d) in &enc_dec {
        m.push((format!("codec.decode_ns_per_col.{}", kind.name()), *d));
    }
    let wide_cols = as_coeffs(&frame_columns(&inputs.wide[0]));
    let ((t4, _), _) = span(
        tracer,
        "codec.encode_decode",
        root,
        || {
            codec_ns_per_col::<HaarIwtCodec>(
                &cfg(inputs.wide[0].width(), LineCodecKind::Haar, 4),
                &wide_cols,
                3,
            )
        },
        |_| vec![("columns", wide_cols.len() as f64), ("threshold", 4.0)],
    );
    m.push(("codec.encode_ns_per_col.haar-t4".into(), t4));

    // kernels and window: every window position of one frame.
    let kernels: [(&str, Box<dyn WindowKernel>); 3] = [
        ("box", Box::new(BoxFilter::new(WINDOW))),
        ("gaussian", Box::new(GaussianFilter::new(WINDOW))),
        ("sobel", Box::new(SobelMagnitude::new(WINDOW))),
    ];
    let mut apply_ns = [0u64; 3];
    let mut positions = 0u64;
    let mut win = ActiveWindow::new(WINDOW);
    let mut evicted = Vec::with_capacity(WINDOW);
    let mut shift_ns = 0u64;
    for r in 0..h {
        let row_cols = &cols8[r * w..(r + 1) * w];
        let (_, ns) = span(
            tracer,
            "window.shift_into",
            root,
            || {
                for col in row_cols {
                    win.shift_into(col, &mut evicted);
                }
            },
            |_| vec![("columns", w as f64)],
        );
        shift_ns += ns;
        black_box(&evicted);
        if r + 1 < WINDOW {
            continue;
        }
        // Snapshot every interior window of the row (untimed), then time
        // each kernel over the snapshots.
        let mut snaps = Vec::with_capacity(w);
        let mut snap = ActiveWindow::new(WINDOW);
        for (c, col) in row_cols.iter().enumerate() {
            snap.shift_into(col, &mut evicted);
            if c + 1 >= WINDOW {
                snaps.push(snap.clone());
            }
        }
        positions += snaps.len() as u64;
        for (slot, (name, k)) in apply_ns.iter_mut().zip(&kernels) {
            let (_, ns) = span(
                tracer,
                &format!("kernels.apply.{name}"),
                root,
                || {
                    let mut acc = 0u64;
                    for s in &snaps {
                        acc += u64::from(k.apply(&s.view()));
                    }
                    black_box(acc)
                },
                |_| vec![("positions", snaps.len() as f64)],
            );
            *slot += ns;
        }
    }
    let px = positions as f64;
    for ((name, _), ns) in kernels.iter().zip(apply_ns) {
        m.push((format!("kernels.apply_ns_per_px.{name}"), ns as f64 / px));
    }
    let shift_per_col = shift_ns as f64 / cols8.len() as f64;
    m.push(("window.shift_ns_per_col".into(), shift_per_col));

    // wavelet: the Haar column-pair transform and its inverse.
    let mut fwd = ColumnPairTransformer::new(WINDOW);
    let mut quads: Vec<[Vec<Coeff>; 4]> = Vec::with_capacity(cols.len() / 2);
    for col in &cols {
        if let Some(p) = fwd.push_column_sliced(col) {
            quads.push([
                p.even.first_half().to_vec(),
                p.even.second_half().to_vec(),
                p.odd.first_half().to_vec(),
                p.odd.second_half().to_vec(),
            ]);
        }
    }
    let n_cols = cols.len() as f64;
    let (_, ns) = span(
        tracer,
        "wavelet.haar_fwd",
        root,
        || {
            let mut fwd = ColumnPairTransformer::new(WINDOW);
            let mut acc = 0i64;
            for col in &cols {
                if let Some(p) = fwd.push_column_sliced(col) {
                    acc += i64::from(p.even.coeffs[0]);
                }
            }
            black_box(acc)
        },
        |_| vec![("columns", n_cols)],
    );
    m.push(("wavelet.haar_fwd_ns_per_col".into(), ns as f64 / n_cols));
    let (_, ns) = span(
        tracer,
        "wavelet.haar_inv",
        root,
        || {
            let mut inv = ColumnPairInverse::new(WINDOW);
            let mut acc = 0i64;
            for [ll, lh, hl, hh] in &quads {
                let (c0, c1) = inv.push_quad_sliced(ll, lh, hl, hh);
                acc += i64::from(c0[0]) + i64::from(c1[0]);
            }
            black_box(acc)
        },
        |_| vec![("columns", quads.len() as f64 * 2.0)],
    );
    m.push(("wavelet.haar_inv_ns_per_col".into(), ns as f64 / n_cols));

    // bitstream: NBits scan, packing and unpacking of the sub-band
    // half-columns (four per column pair).
    let halves: Vec<&[Coeff]> = quads
        .iter()
        .flat_map(|q| q.iter().map(Vec::as_slice))
        .collect();
    let (_, ns) = span(
        tracer,
        "bitstream.nbits",
        root,
        || {
            let mut acc = 0u32;
            for h in &halves {
                acc = acc.wrapping_add(min_bits_significant_sliced(h, 0));
            }
            black_box(acc)
        },
        |_| vec![("half_columns", halves.len() as f64)],
    );
    m.push(("bitstream.nbits_ns_per_col".into(), ns as f64 / n_cols));
    let mut packed: Vec<_> = halves.iter().map(|h| encode_column(h, 0)).collect();
    let (_, ns) = span(
        tracer,
        "bitstream.pack",
        root,
        || {
            for (h, out) in halves.iter().zip(packed.iter_mut()) {
                encode_column_sliced_into(h, 0, out);
            }
            black_box(&packed);
        },
        |_| vec![("half_columns", halves.len() as f64)],
    );
    m.push(("bitstream.pack_ns_per_col".into(), ns as f64 / n_cols));
    let mut buf = Vec::new();
    let (_, ns) = span(
        tracer,
        "bitstream.unpack",
        root,
        || {
            let mut acc = 0i64;
            for p in &packed {
                decode_column_sliced_into(p, &mut buf).expect("packed column decodes");
                acc += i64::from(buf[0]);
            }
            black_box(acc)
        },
        |_| vec![("half_columns", packed.len() as f64)],
    );
    m.push(("bitstream.unpack_ns_per_col".into(), ns as f64 / n_cols));

    // Closure: how much of the frame the isolated layers account for.
    let out_px = ((w - WINDOW + 1) * (h - WINDOW + 1)) as f64;
    let attributed: f64 = enc_dec
        .iter()
        .map(|(_, e, d)| (e + d + shift_per_col) * n_cols + apply_ns[0] as f64 / px * out_px)
        .sum::<f64>()
        / 1e6;
    let frames: f64 = frame_ms.iter().sum();
    m.push((
        "arch.unattributed_frac".into(),
        1.0 - ratio(attributed, frames),
    ));

    // shard, pool and integral at the budget-mix geometry.
    let pool = ThreadPool::new(POOL_JOBS);
    let before = pool.stats();
    let mut shard_ms = Vec::new();
    for img in &inputs.wide {
        let runner = ShardedFrameRunner::new(cfg(img.width(), LineCodecKind::Haar, 0))
            .with_strips(DEFAULT_STRIPS);
        let (_, ns) = span(
            tracer,
            "shard.run",
            root,
            || runner.run(img, &boxf, &pool).expect("sharded frame runs"),
            |o| vec![("strips", o.strip_stats.len() as f64)],
        );
        shard_ms.push(ns as f64 / 1e6);
    }
    let after = pool.stats();
    m.push(("shard.run_ms".into(), median(&shard_ms)));
    let items = (after.items - before.items) as f64;
    let batches = (after.batches - before.batches) as f64;
    m.push((
        "pool.worker_items_frac".into(),
        ratio((after.worker_items - before.worker_items) as f64, items),
    ));
    m.push((
        "pool.steals_per_batch".into(),
        ratio((after.steals - before.steals) as f64, batches),
    ));
    let icfg = IntegralConfig {
        segment: WINDOW,
        hot_path: HotPath::Sliced,
    };
    let mut integral_ms = Vec::new();
    for _ in 0..3 {
        for img in &inputs.wide {
            let (_, ns) = span(
                tracer,
                "integral.analyze",
                root,
                || analyze_integral(img, &icfg, &pool).expect("integral frame runs"),
                |r| vec![("payload_bits", r.payload_bits_total as f64)],
            );
            integral_ms.push(ns as f64 / 1e6);
        }
    }
    m.push(("integral.analyze_ms".into(), median(&integral_ms)));

    // memory_unit: the whole-frame lossless probe behind budgeted jobs.
    let mut probe_ms = Vec::new();
    for req in &inputs.budgeted {
        let img = req.frame.image();
        let (_, ns) = span(
            tracer,
            "memory_unit.probe",
            root,
            || exec::memory_unit_for(&img, req).expect("probe runs"),
            |mu| vec![("capacity_bits", mu.map_or(0.0, |c| c.capacity_bits as f64))],
        );
        probe_ms.push(ns as f64 / 1e6);
    }
    m.push(("memory_unit.probe_ms".into(), median(&probe_ms)));

    for (kind, bytes, _) in &sim {
        m.push((format!("sim.bytes_packed.{}", kind.name()), *bytes));
    }
    for (kind, _, pct) in &sim {
        m.push((format!("sim.memory_saving_pct.{}", kind.name()), *pct));
    }
    m
}

/// `exec::execute` on each of the plan's distinct requests with
/// telemetry disabled and no daemon; returns the p50 of the reported
/// `exec_ns`, milliseconds.
pub fn exec_direct_ms(tracer: &Tracer, root: u64, plan: &Plan) -> f64 {
    let pool = ThreadPool::new(POOL_JOBS);
    let tele = TelemetryHandle::disabled();
    let passes = if plan.kind == WorkloadKind::StreamNarrow {
        4
    } else {
        1
    };
    let mut ms = Vec::new();
    for _ in 0..passes {
        for job in &plan.jobs {
            let (resp, _) = span(
                tracer,
                "exec.execute",
                root,
                || exec::execute(&job.req, &pool, &tele).expect("request executes"),
                |r| vec![("exec_ms", r.exec_ns as f64 / 1e6)],
            );
            ms.push(resp.exec_ns as f64 / 1e6);
        }
    }
    median(&ms)
}

/// Framed request bytes of one job, as the client writes them.
fn encode_job(plan: &Plan, j: usize) -> Vec<u8> {
    let req = plan.request_for(j, 0);
    let mut out = Vec::new();
    if plan.kind.streamed() {
        let open = StreamOpen {
            tenant: req.tenant.clone(),
            spec: req.spec.clone(),
            width: req.frame.width,
            height: req.frame.height,
            want_frame: req.want_frame,
        };
        write_frame(&mut out, MsgKind::StreamOpen, &open.encode()).expect("vec write");
        let width = req.frame.width as usize;
        let mut first_row = 0u32;
        let mut seq = 0u32;
        while first_row < req.frame.height {
            let rows = STREAM_CHUNK_ROWS.min(req.frame.height - first_row);
            let lo = first_row as usize * width;
            let chunk = RowChunk {
                seq,
                first_row,
                rows,
                pixels: req.frame.pixels[lo..lo + rows as usize * width].to_vec(),
            };
            write_frame(&mut out, MsgKind::RowChunk, &chunk.encode()).expect("vec write");
            seq += 1;
            first_row += rows;
        }
    } else {
        write_frame(&mut out, MsgKind::Job, &req.encode()).expect("vec write");
    }
    out
}

/// Wire-layer costs of the plan's requests in isolation: encode + framing
/// µs per job, reassembly µs per job, and framed bytes per job.
pub fn wire(tracer: &Tracer, root: u64, plan: &Plan) -> Metrics {
    const READ_CHUNK: usize = 64 << 10;
    let n = plan.jobs.len();
    let reps = if plan.kind.streamed() { 20 } else { 5 };
    let (bytes, enc_ns) = span(
        tracer,
        "wire.encode",
        root,
        || {
            let mut bytes = Vec::new();
            for _ in 0..reps {
                bytes = (0..n).map(|j| encode_job(plan, j)).collect::<Vec<_>>();
            }
            bytes
        },
        |_| vec![("jobs", (n * reps) as f64)],
    );
    let total_bytes: usize = bytes.iter().map(Vec::len).sum();
    let (frames, asm_ns) = span(
        tracer,
        "wire.assemble",
        root,
        || {
            let mut frames = 0u64;
            for _ in 0..reps {
                for b in &bytes {
                    let mut asm = FrameAssembler::new();
                    for chunk in b.chunks(READ_CHUNK) {
                        asm.push(chunk);
                        while let Some(f) = asm.next_frame().expect("well-formed frames") {
                            frames += 1;
                            black_box(f);
                        }
                    }
                }
            }
            frames
        },
        |f| vec![("frames", *f as f64)],
    );
    black_box(frames);
    let jobs = (n * reps) as f64;
    vec![
        ("wire.encode_us_per_job".into(), enc_ns as f64 / 1e3 / jobs),
        (
            "wire.assemble_us_per_job".into(),
            asm_ns as f64 / 1e3 / jobs,
        ),
        ("wire.bytes_per_job".into(), total_bytes as f64 / n as f64),
    ]
}
