//! One benchmark run: expected results, repeated set-up, the timed served
//! phase(s), and — for a traced run — every per-layer measurement.

use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::gen::{LoopKind, Plan, WorkloadKind, CONNECTIONS, POOL_JOBS};
use crate::layers::{self, DatapathInputs};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::serve::{prom_value, Outcome, Phase, Session};
use crate::stats::{calibration_mops, mean, median, ns_to_ms, peak_rss_mib, percentile, ratio};
use crate::trace::{json_str, Tracer};
use crate::verify::{self, Expected};

/// Set-ups per run: at least [`MIN_SETUPS`], then more until they have
/// taken [`SETUP_SECONDS`] (at most [`MAX_SETUPS`]); `setup_s` is the
/// fastest. A set-up is milliseconds to tenths of a second of compute and
/// thread start-up, so like a closed loop's best block its fastest repeat
/// is the figure the host's speed swings move least.
pub const MIN_SETUPS: usize = 7;
/// Seconds of repeated set-up a run takes at least.
pub const SETUP_SECONDS: f64 = 2.0;
/// Cap on set-ups per run.
pub const MAX_SETUPS: usize = 200;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Workload.
    pub kind: WorkloadKind,
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed part, seconds.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end run.
    pub trace: bool,
    /// Directory for the daemon socket and the span trace (keep the path
    /// short: it is part of a unix socket address).
    pub out_dir: PathBuf,
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every response verified and no job failed.
    pub correct: bool,
    /// Jobs started in the timed phase(s).
    pub attempted: u64,
    /// Jobs that failed, were rejected, lost their connection, or did
    /// not match the local execution.
    pub failed: u64,
    /// `(name, value, unit)` in table order.
    pub metrics: Vec<(String, f64, String)>,
    /// Machine and run context, `(key, JSON value)`.
    pub context: Vec<(String, String)>,
}

fn failure_counts(phases: &[Phase]) -> [(&'static str, u64); 4] {
    let count = |o: Outcome| {
        phases
            .iter()
            .flat_map(|p| &p.samples)
            .filter(|s| s.outcome == o)
            .count() as u64
    };
    [
        ("rejected", count(Outcome::Rejected)),
        ("failed", count(Outcome::Failed)),
        ("transport_errors", count(Outcome::Transport)),
        ("mismatches", count(Outcome::Mismatch)),
    ]
}

fn verified_latencies_ms(phase: &Phase) -> Vec<f64> {
    phase
        .samples
        .iter()
        .filter(|s| s.outcome == Outcome::Verified)
        .map(|s| ns_to_ms(s.latency_ns()))
        .collect()
}

/// Completions per block when a closed loop reports its best stretch.
pub const BLOCK_JOBS: usize = 20;

/// Throughput, p50 and p90 latency (ms) of a phase.
///
/// An open loop reports them over the whole phase: its schedule is fixed,
/// so a job's latency carries the backlog earlier jobs left. A closed
/// loop's offered load follows the service, so its completions are cut
/// into consecutive blocks of [`BLOCK_JOBS`] and each figure is taken from
/// the block where it is best: the speed of the service when the host is
/// not slowing it. On a shared 2-core host whose speed swings by ±20 %
/// over seconds and drifts by a quarter over minutes, these repeat across
/// runs and hours where whole-phase figures do not.
fn throughput_and_latency(kind: WorkloadKind, phase: &Phase) -> (f64, f64, f64) {
    let mut ok: Vec<_> = phase
        .samples
        .iter()
        .filter(|s| s.outcome == Outcome::Verified)
        .collect();
    if matches!(kind.loop_kind(), LoopKind::Open { .. }) || ok.len() < 2 * BLOCK_JOBS {
        let lat: Vec<f64> = ok.iter().map(|s| ns_to_ms(s.latency_ns())).collect();
        return (
            ratio(ok.len() as f64, phase.wall_ns as f64 / 1e9),
            percentile(&lat, 0.5),
            percentile(&lat, 0.9),
        );
    }
    ok.sort_unstable_by_key(|s| s.done_ns);
    let (mut rate, mut p50, mut p90) = (0.0f64, f64::MAX, f64::MAX);
    let mut block_start = 0;
    for block in ok.chunks_exact(BLOCK_JOBS) {
        let end = block[BLOCK_JOBS - 1].done_ns;
        let lat: Vec<f64> = block.iter().map(|s| ns_to_ms(s.latency_ns())).collect();
        rate = rate.max(ratio(BLOCK_JOBS as f64, (end - block_start) as f64 / 1e9));
        p50 = p50.min(percentile(&lat, 0.5));
        p90 = p90.min(percentile(&lat, 0.9));
        block_start = end;
    }
    (rate, p50, p90)
}

fn end_to_end(kind: WorkloadKind, phase: &Phase, setups: &[f64]) -> Vec<(&'static str, f64)> {
    let lat = verified_latencies_ms(phase);
    let met = lat.iter().filter(|&&l| l <= kind.slo_ms()).count() as f64;
    let (jobs_per_s, p50, p90) = throughput_and_latency(kind, phase);
    vec![
        ("jobs_per_s", jobs_per_s),
        ("latency_p50_ms", p50),
        ("latency_p90_ms", p90),
        ("slo_met_frac", ratio(met, phase.scheduled as f64)),
        ("setup_s", setups.iter().copied().fold(f64::MAX, f64::min)),
        ("peak_rss_mib", peak_rss_mib()),
    ]
}

fn serving_layers(
    kind: WorkloadKind,
    untraced: &Phase,
    traced: &Phase,
    before: &str,
    after: &str,
) -> Vec<(&'static str, f64)> {
    let ok: Vec<_> = traced
        .samples
        .iter()
        .filter(|s| s.outcome == Outcome::Verified)
        .collect();
    let jobs = traced.samples.len() as f64;
    let overhead_us: Vec<f64> = ok
        .iter()
        .map(|s| (s.send_latency_ns() as f64 - s.exec_ns as f64 - s.queue_ns as f64) / 1e3)
        .collect();
    let queue_ms: Vec<f64> = ok.iter().map(|s| ns_to_ms(s.queue_ns)).collect();
    let exec_ms: Vec<f64> = ok.iter().map(|s| ns_to_ms(s.exec_ns)).collect();
    let lag_ms: Vec<f64> = match kind.loop_kind() {
        LoopKind::Open { .. } => ok.iter().map(|s| ns_to_ms(s.lag_ns())).collect(),
        LoopKind::Closed => vec![0.0],
    };
    let delta = |name: &str| prom_value(after, name) - prom_value(before, name);
    let degraded = ok.iter().filter(|s| s.degraded).count() as f64;
    let p50_traced = percentile(&verified_latencies_ms(traced), 0.5);
    let p50_untraced = percentile(&verified_latencies_ms(untraced), 0.5);
    vec![
        ("client.serve_overhead_us", median(&overhead_us)),
        (
            "reactor.wakeups_per_job",
            ratio(delta("serve.reactor.wakeups"), jobs),
        ),
        (
            "reactor.batched_frac",
            ratio(delta("serve.reactor.batched_jobs"), jobs),
        ),
        (
            "reactor.write_queue_high_water_bytes",
            prom_value(after, "serve.reactor.write_queue_high_water"),
        ),
        ("tenant.queue_ms_p50", percentile(&queue_ms, 0.5)),
        ("tenant.queue_ms_p90", percentile(&queue_ms, 0.9)),
        ("tenant.degraded_frac", ratio(degraded, ok.len() as f64)),
        (
            "reactor.dispatch_depth_max",
            traced.dispatch_depth_max as f64,
        ),
        ("client.generator_lag_ms_p90", percentile(&lag_ms, 0.9)),
        ("exec.served_ms", median(&exec_ms)),
        (
            "bench.tracing_overhead_frac",
            ratio(p50_traced, p50_untraced) - 1.0,
        ),
    ]
}

/// Simulated memory-unit counts per job over the distinct requests
/// (deterministic for a seed; served responses were checked to match).
fn memory_unit_counts(expected: &[Expected]) -> Vec<(&'static str, f64)> {
    let per =
        |f: fn(&Expected) -> u64| mean(&expected.iter().map(|e| f(e) as f64).collect::<Vec<_>>());
    vec![
        ("memory_unit.stall_cycles_per_job", per(|e| e.stall_cycles)),
        ("memory_unit.escalations_per_job", per(|e| e.t_escalations)),
        (
            "memory_unit.overflow_events_per_job",
            per(|e| e.overflow_events),
        ),
    ]
}

/// Order `(name, value)` pairs by a metric table, attaching units.
///
/// # Errors
///
/// A table metric that was not measured (a benchmark defect).
fn tabulate(
    table: &[crate::metrics::MetricDef],
    values: &[(String, f64)],
) -> Result<Vec<(String, f64, String)>, String> {
    table
        .iter()
        .map(|d| {
            values
                .iter()
                .find(|(n, _)| n == d.name)
                .map(|(_, v)| (d.name.to_string(), *v, d.unit.to_string()))
                .ok_or_else(|| format!("metric {} was not measured", d.name))
        })
        .collect()
}

fn socket_path(out_dir: &Path) -> PathBuf {
    out_dir.join(format!("swcd-{}.sock", std::process::id()))
}

/// Run the benchmark once.
///
/// # Errors
///
/// Set-up or infrastructure failures (the daemon does not start, a
/// connection cannot be made, local execution fails). Failed or
/// mismatched jobs are not errors: they are counted in the result.
pub fn run(cfg: &RunConfig) -> Result<RunResult, String> {
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("create {}: {e}", cfg.out_dir.display()))?;
    let calibration = calibration_mops();
    let reference = Plan::generate(cfg.kind, cfg.seed);
    let expected = verify::expected(&reference)?;
    let socket = socket_path(&cfg.out_dir);

    let mut setups = Vec::new();
    let mut session: Option<Session> = None;
    let began = Instant::now();
    while setups.len() < MIN_SETUPS
        || (began.elapsed().as_secs_f64() < SETUP_SECONDS && setups.len() < MAX_SETUPS)
    {
        if let Some(s) = session.take() {
            s.stop();
        }
        let s = Session::start(cfg.kind, cfg.seed, &socket, &expected)?;
        if s.plan != reference {
            return Err("input generation is not deterministic for this seed".into());
        }
        setups.push(s.setup_s);
        session = Some(s);
    }
    let mut session = session.expect("at least one set-up ran");

    let mut values: Vec<(String, f64)> = Vec::new();
    let mut phases = Vec::new();
    let mut trace_file = None;
    if cfg.trace {
        let tracer = Tracer::new();
        let half = cfg.seconds / 2.0;
        let untraced = session.run_phase(&expected, half, 0, None, None);
        let before = session.scrape()?;
        let depth = session.dispatch_depth_gauge();
        let traced = session.run_phase(
            &expected,
            half,
            untraced.samples.len() as u64,
            Some(&tracer),
            Some(&depth),
        );
        let after = session.scrape()?;
        session.stop();
        for (n, v) in serving_layers(cfg.kind, &untraced, &traced, &before, &after) {
            values.push((n.into(), v));
        }
        let root = tracer.begin("bench.layers", None, None, 0);
        let root_id = root.id;
        values.extend(layers::wire(&tracer, root_id, &reference));
        let direct = layers::exec_direct_ms(&tracer, root_id, &reference);
        values.push(("exec.direct_ms".into(), direct));
        let served = values
            .iter()
            .find(|(n, _)| n == "exec.served_ms")
            .map_or(0.0, |(_, v)| *v);
        values.push(("telemetry.tax_ratio".into(), ratio(served, direct)));
        for (n, v) in memory_unit_counts(&expected) {
            values.push((n.into(), v));
        }
        let inputs = DatapathInputs::generate(cfg.seed);
        values.extend(layers::datapath(&tracer, root_id, &inputs));
        tracer.end(root, &[]);
        values.push(("bench.calibration_mops".into(), calibration));
        let path = cfg
            .out_dir
            .join(format!("trace-{}-seed{}.json", cfg.kind.name(), cfg.seed));
        tracer
            .write_chrome_trace(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        trace_file = Some(path);
        phases.push(untraced);
        phases.push(traced);
    } else {
        let phase = session.run_phase(&expected, cfg.seconds, 0, None, None);
        session.stop();
        for (n, v) in end_to_end(cfg.kind, &phase, &setups) {
            values.push((n.into(), v));
        }
        phases.push(phase);
    }

    let table = if cfg.trace { PER_LAYER } else { END_TO_END };
    let metrics = tabulate(table, &values)?;
    let attempted: u64 = phases.iter().map(|p| p.samples.len() as u64).sum();
    let failed: u64 = phases.iter().map(|p| p.failed() as u64).sum();
    let mut context = vec![
        ("workload".into(), json_str(cfg.kind.name())),
        ("seed".into(), cfg.seed.to_string()),
        ("seconds".into(), cfg.seconds.to_string()),
        (
            "nproc".into(),
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("pool_jobs".into(), POOL_JOBS.to_string()),
        ("connections".into(), CONNECTIONS.to_string()),
        (
            "loop".into(),
            match cfg.kind.loop_kind() {
                LoopKind::Closed => json_str("closed"),
                LoopKind::Open { rate } => json_str(&format!("open at {rate} jobs/s")),
            },
        ),
        ("slo_ms".into(), cfg.kind.slo_ms().to_string()),
        ("bench.calibration_mops".into(), calibration.to_string()),
        (
            "commit".into(),
            json_str(&std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into())),
        ),
        (
            "source_sha256".into(),
            json_str(&std::env::var("PERFBENCH_SOURCE").unwrap_or_else(|_| "unknown".into())),
        ),
        ("setup_samples".into(), setups.len().to_string()),
        (
            "block_jobs".into(),
            match cfg.kind.loop_kind() {
                LoopKind::Closed => BLOCK_JOBS.to_string(),
                LoopKind::Open { .. } => "null".into(),
            },
        ),
        (
            "latency_samples".into(),
            verified_latencies_ms(phases.last().expect("one phase ran"))
                .len()
                .to_string(),
        ),
        (
            "failed_frac".into(),
            ratio(failed as f64, attempted as f64).to_string(),
        ),
    ];
    for (k, v) in failure_counts(&phases) {
        context.push((k.into(), v.to_string()));
    }
    if let Some(p) = trace_file {
        context.push(("trace_file".into(), json_str(&p.display().to_string())));
    }
    Ok(RunResult {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics,
        context,
    })
}
