//! Frame-local datapath telemetry publishes exactly what shared atomics
//! did: the same job set yields the same counters, gauges and histograms
//! whether it runs on one thread or on two threads sharing one registry,
//! and a frame that stops part-way still publishes what it did.

use std::sync::Barrier;

use sw_core::memory_unit::OverflowPolicy;
use sw_core::{LineCodecKind, Workload};
use sw_pool::ThreadPool;
use sw_serve::api::FramePayload;
use sw_serve::exec::{execute, StreamRun};
use sw_serve::{JobRequest, JobSpec, StreamOpen};
use sw_telemetry::{Report, TelemetryHandle};

const W: usize = 64;
const H: usize = 40;

fn frame(seed: usize) -> FramePayload {
    FramePayload {
        width: W as u32,
        height: H as u32,
        pixels: (0..W * H)
            .map(|i| ((i * 37 + seed * 101 + (i / W) * 13) % 251) as u8)
            .collect(),
    }
}

fn job(seed: usize, spec: JobSpec) -> JobRequest {
    JobRequest {
        tenant: "equivalence".into(),
        spec,
        frame: frame(seed),
        want_frame: false,
    }
}

/// Every codec, lossy and lossless, each overflow policy (the fail
/// policy's budget is too small, so that frame aborts part-way), a
/// sharded job and an integral job.
fn job_set() -> Vec<JobRequest> {
    let mut set = Vec::new();
    for (i, codec) in LineCodecKind::ALL.into_iter().enumerate() {
        for threshold in [0, 4] {
            set.push(job(
                i,
                JobSpec {
                    codec,
                    threshold,
                    ..JobSpec::default()
                },
            ));
        }
    }
    for (policy, fraction) in [
        (OverflowPolicy::Stall, 0.05),
        (OverflowPolicy::DegradeLossy, 0.05),
        (OverflowPolicy::Fail, 0.05),
    ] {
        set.push(job(
            7,
            JobSpec {
                codec: LineCodecKind::Haar,
                overflow_policy: Some(policy),
                budget_fraction: fraction,
                ..JobSpec::default()
            },
        ));
    }
    set.push(job(
        8,
        JobSpec {
            jobs: 2,
            ..JobSpec::default()
        },
    ));
    set.push(job(
        9,
        JobSpec {
            workload: Workload::Integral,
            ..JobSpec::default()
        },
    ));
    set
}

/// Run every job; returns how many failed (the fail-policy job must).
fn run_all(set: &[JobRequest], pool: &ThreadPool, tele: &TelemetryHandle) -> usize {
    set.iter()
        .filter(|req| execute(req, pool, tele).is_err())
        .count()
}

/// The report minus series that depend on time or on thread scheduling
/// (span timings, pool work-stealing gauges), not on the job set.
fn comparable(mut r: Report) -> Report {
    let keep = |name: &String| !name.ends_with(".ns_total") && !name.starts_with("pool.");
    r.counters.retain(|k, _| keep(k));
    r.gauges.retain(|k, _| keep(k));
    r.histograms.retain(|k, _| keep(k));
    r
}

#[test]
fn two_threads_sharing_a_registry_report_what_one_thread_does() {
    let set = job_set();
    let pool = ThreadPool::new(2);
    for make in [TelemetryHandle::new, TelemetryHandle::metrics_only] {
        // Sequential: the set twice on one thread.
        let seq = make();
        assert_eq!(run_all(&set, &pool, &seq) + run_all(&set, &pool, &seq), 2);

        // Concurrent: the set once on each of two threads, released
        // together so their frames interleave on the shared registry.
        let par = make();
        let start = Barrier::new(2);
        let failed: usize = std::thread::scope(|s| {
            let runs: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        run_all(&set, &pool, &par)
                    })
                })
                .collect();
            runs.into_iter().map(|r| r.join().unwrap()).sum()
        });
        assert_eq!(failed, 2);

        let (seq, par) = (comparable(seq.report()), comparable(par.report()));
        assert!(seq.counters["stage.serve.iwt_pairs"] > 0);
        assert!(seq.histograms.contains_key("stage.serve.packer.nbits"));
        assert!(seq.gauges.contains_key("memunit.serve.high_water_bits"));
        assert_eq!(seq.counters, par.counters);
        assert_eq!(seq.gauges, par.gauges);
        assert_eq!(seq.histograms, par.histograms);
    }
}

#[test]
fn a_frame_aborted_by_its_memory_budget_publishes_its_counts() {
    let tele = TelemetryHandle::metrics_only();
    let req = job(
        7,
        JobSpec {
            codec: LineCodecKind::Haar,
            overflow_policy: Some(OverflowPolicy::Fail),
            budget_fraction: 0.05,
            ..JobSpec::default()
        },
    );
    assert!(execute(&req, &ThreadPool::new(1), &tele).is_err());
    let r = tele.report();
    let pairs = r.counters["stage.serve.iwt_pairs"];
    assert!(pairs > 0, "the aborted frame encoded groups before failing");
    // One Haar group packs four sub-band columns.
    assert_eq!(r.counters["stage.serve.packer.columns"], 4 * pairs);
    assert_eq!(
        r.counters["stage.serve.cycles"], 0,
        "the frame never finished"
    );
}

#[test]
fn a_dropped_stream_publishes_what_it_processed() {
    let tele = TelemetryHandle::metrics_only();
    let open = StreamOpen {
        tenant: "equivalence".into(),
        spec: JobSpec {
            codec: LineCodecKind::Haar,
            ..JobSpec::default()
        },
        width: W as u32,
        height: H as u32,
        want_frame: false,
    };
    let mut run = StreamRun::begin(&open, &tele).unwrap();
    assert!(run.is_live());
    let rows = 12;
    assert_eq!(run.push_rows(&frame(3).pixels[..rows * W]).unwrap(), rows);
    drop(run);

    let r = tele.report();
    // One Haar group per two pixel clocks.
    let pairs = r.counters["stage.serve.iwt_pairs"];
    assert_eq!(pairs, (rows * W / 2) as u64);
    assert_eq!(r.counters["stage.serve.packer.columns"], 4 * pairs);
    let unpacked = r.counters["stage.serve.unpack_pairs"];
    assert!(unpacked > 0 && unpacked < pairs);
    assert_eq!(r.counters["stage.serve.unpacker.columns"], 4 * unpacked);
    assert_eq!(r.histograms["stage.serve.packer.nbits"].count, 4 * pairs);
    assert!(r.gauges["fifo.serve.high_water_bits"] > 0);
}
