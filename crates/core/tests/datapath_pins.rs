//! Datapath pins for what the golden corpus does not cover.
//!
//! The conformance corpus pins the box and tap kernels only. This file
//! pins, against `datapath_pins.txt`:
//!
//! * the output digest and all 13 [`FrameStats`] fields for the gaussian,
//!   sobel, median and sharpen kernels × every codec × T ∈ {0, 4} (T = 4
//!   for lossy codecs only), on a 256×64 natural scene and on a 67-wide
//!   frame whose width is not a multiple of any codec group;
//! * the outcome (error text, or output digest and stats) of every codec
//!   × fault seed {1, 7, 42} × overflow policy {none, fail, stall,
//!   degrade};
//! * an FNV digest of the `(cycle, kind, a, b)` trace-event sequence of
//!   the Haar codecs under the stall and degrade policies.
//!
//! Every cell runs under both hot paths and both must match the pinned
//! line. To regenerate the file after an intentional change, run with
//! `DATAPATH_PINS_BLESS=1` and review the diff.

use sw_bitstream::digest::Fnv64;
use sw_core::arch::{build_arch, FrameOutput};
use sw_core::codec::LineCodecKind;
use sw_core::config::ArchConfig;
use sw_core::digest::image_digest;
use sw_core::faults::FaultInjector;
use sw_core::kernels::WindowKernel;
use sw_core::kernels::{BoxFilter, Convolution, GaussianFilter, MedianFilter, SobelMagnitude, Tap};
use sw_core::memory_unit::{MemoryUnitConfig, OverflowPolicy};
use sw_core::HotPath;
use sw_image::{ImageU8, ScenePreset};
use sw_telemetry::{TelemetryHandle, TraceEvent};

const N: usize = 8;
const PINS: &str = include_str!("datapath_pins.txt");
const BLESS_ENV: &str = "DATAPATH_PINS_BLESS";

fn images() -> [(&'static str, ImageU8); 2] {
    [
        ("w256", ScenePreset::ALL[0].render(256, 64)),
        ("w67", ScenePreset::ALL[3].render(67, 40)),
    ]
}

fn kernels() -> Vec<(&'static str, Box<dyn WindowKernel>)> {
    vec![
        ("gaussian", Box::new(GaussianFilter::new(N))),
        ("sobel", Box::new(SobelMagnitude::new(N))),
        ("median", Box::new(MedianFilter::new(N))),
        ("sharpen", Box::new(Convolution::sharpen(N, 1.0))),
    ]
}

fn thresholds(codec: LineCodecKind) -> &'static [i16] {
    if codec.is_lossy_capable() {
        &[0, 4]
    } else {
        &[0]
    }
}

fn describe(out: &FrameOutput) -> String {
    let mut line = format!("img={:016x}", image_digest(&out.image));
    for (name, v) in out.stats.fields() {
        line.push_str(&format!(" {name}={v}"));
    }
    line
}

/// Run one cell under both hot paths; they must agree, and the shared
/// description is returned.
fn both_paths(label: &str, run: impl Fn(HotPath) -> String) -> String {
    let scalar = run(HotPath::Scalar);
    let sliced = run(HotPath::Sliced);
    assert_eq!(scalar, sliced, "{label}: hot paths disagree");
    sliced
}

fn frame_lines(lines: &mut Vec<String>) {
    for (img_name, img) in images() {
        for (k_name, kernel) in kernels() {
            for codec in LineCodecKind::ALL {
                for &t in thresholds(codec) {
                    let label = format!("frame {k_name} {} t{t} {img_name}", codec.name());
                    let got = both_paths(&label, |hp| {
                        let cfg = ArchConfig::new(N, img.width())
                            .with_codec(codec)
                            .with_threshold(t)
                            .with_hot_path(hp);
                        let out = build_arch(&cfg)
                            .unwrap()
                            .process_frame(&img, kernel.as_ref())
                            .unwrap();
                        describe(&out)
                    });
                    lines.push(format!("{label}: {got}"));
                }
            }
        }
    }
}

fn budgeted(cfg: &ArchConfig, policy: OverflowPolicy) -> MemoryUnitConfig {
    // 40 % of the raw span: every codec overflows on natural content.
    MemoryUnitConfig::new(cfg.codec.raw_span_bits(cfg) * 2 / 5, policy)
}

fn fault_lines(lines: &mut Vec<String>) {
    let policies: [(&str, Option<OverflowPolicy>); 4] = [
        ("none", None),
        ("fail", Some(OverflowPolicy::Fail)),
        ("stall", Some(OverflowPolicy::Stall)),
        ("degrade", Some(OverflowPolicy::DegradeLossy)),
    ];
    for (img_name, img) in [
        ("w64", ScenePreset::ALL[0].render(64, 40)),
        ("w67", ScenePreset::ALL[3].render(67, 40)),
    ] {
        for codec in LineCodecKind::ALL {
            for seed in [1u64, 7, 42] {
                for (p_name, policy) in policies {
                    let label = format!("fault {} seed{seed} {p_name} {img_name}", codec.name());
                    let got = both_paths(&label, |hp| {
                        let cfg = ArchConfig::new(N, img.width())
                            .with_codec(codec)
                            .with_hot_path(hp);
                        let mut arch = build_arch(&cfg).unwrap();
                        arch.set_fault_injector(Some(FaultInjector::seeded(seed)));
                        arch.set_memory_unit(policy.map(|p| budgeted(&cfg, p)));
                        match arch.process_frame(&img, &Tap::top_left(N)) {
                            Ok(out) => describe(&out),
                            Err(e) => format!("err={e}"),
                        }
                    });
                    lines.push(format!("{label}: {got}"));
                }
            }
        }
    }
}

fn trace_lines(lines: &mut Vec<String>) {
    for (img_name, img) in [
        ("w64", ScenePreset::ALL[0].render(64, 40)),
        ("w67", ScenePreset::ALL[3].render(67, 40)),
    ] {
        for codec in [LineCodecKind::Haar, LineCodecKind::Haar2] {
            for (p_name, policy) in [
                ("stall", OverflowPolicy::Stall),
                ("degrade", OverflowPolicy::DegradeLossy),
            ] {
                let label = format!("trace {} {p_name} {img_name}", codec.name());
                let got = both_paths(&label, |hp| {
                    let cfg = ArchConfig::new(N, img.width())
                        .with_codec(codec)
                        .with_hot_path(hp);
                    let tele = TelemetryHandle::with_trace_capacity(1 << 20);
                    let mut arch = build_arch(&cfg).unwrap();
                    arch.bind_telemetry(&tele, "pin");
                    arch.set_memory_unit(Some(budgeted(&cfg, policy)));
                    arch.process_frame(&img, &BoxFilter::new(N)).unwrap();
                    assert_eq!(tele.trace_dropped(), 0, "{label}: trace ring overflowed");
                    let mut jsonl = Vec::new();
                    tele.write_trace_jsonl(&mut jsonl).unwrap();
                    let mut h = Fnv64::new();
                    let mut events = 0u64;
                    for line in String::from_utf8(jsonl).unwrap().lines() {
                        let e = TraceEvent::parse_json_line(line).unwrap();
                        h.write_u64(e.cycle);
                        h.write(e.kind.label().as_bytes());
                        h.write_u64(e.a);
                        h.write_u64(e.b);
                        events += 1;
                    }
                    format!("events={events} fnv={:016x}", h.finish())
                });
                lines.push(format!("{label}: {got}"));
            }
        }
    }
}

#[test]
fn datapath_matches_its_pins() {
    let mut lines = Vec::new();
    frame_lines(&mut lines);
    fault_lines(&mut lines);
    trace_lines(&mut lines);
    let mut text = lines.join("\n");
    text.push('\n');
    if std::env::var_os(BLESS_ENV).is_some() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/datapath_pins.txt");
        std::fs::write(path, &text).unwrap();
        return;
    }
    let pinned: Vec<&str> = PINS.lines().collect();
    let diffs: Vec<String> = lines
        .iter()
        .zip(&pinned)
        .filter(|(got, want)| got != *want)
        .map(|(got, want)| format!("  pinned: {want}\n  got:    {got}"))
        .collect();
    assert!(
        diffs.is_empty() && lines.len() == pinned.len(),
        "{} of {} pins differ ({} lines produced, {} pinned):\n{}",
        diffs.len(),
        pinned.len(),
        lines.len(),
        pinned.len(),
        diffs.join("\n")
    );
}
