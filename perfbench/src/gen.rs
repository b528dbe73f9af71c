//! Seeded workload generation: frames, the distinct request set, the job
//! order and the open-loop arrival schedule.
//!
//! Everything here is a pure function of `(workload, seed)` (plus the run
//! length for the arrival schedule), so two runs with one seed send the
//! daemon byte-identical traffic.

use sw_bitstream::HotPath;
use sw_core::codec::LineCodecKind;
use sw_core::integral::Workload;
use sw_core::memory_unit::OverflowPolicy;
use sw_image::synth::ScenePreset;
use sw_image::ImageU8;
use sw_serve::api::{FramePayload, JobKernel, JobRequest, JobSpec};

/// Threads in the daemon's shared pool.
pub const POOL_JOBS: usize = 2;
/// Connections (and generator threads) driving the daemon.
pub const CONNECTIONS: usize = 2;
/// Window size of every window job.
pub const WINDOW: usize = 8;
/// Rows per `RowChunk` of a streamed job.
pub const STREAM_CHUNK_ROWS: u32 = 1;
/// Offered rate of the open-loop `budget-mix` workload, jobs per second:
/// an eighth of the mix's closed-loop capacity (~33 jobs/s on a 2-core
/// machine). Nearer capacity, queueing behind the daemon's single
/// executing worker turned the machine's speed swings into run-to-run
/// latency spreads of 25–140 %.
pub const BUDGET_MIX_RATE: f64 = 4.0;
/// Tenant shared by the memory-unit-budgeted jobs of `budget-mix`.
pub const BUDGETED_TENANT: &str = "budgeted";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Closed loop, whole 256×256 frames over every kernel × codec.
    Whole256,
    /// Closed loop, row-streamed 16×64 frames, raw and haar.
    StreamNarrow,
    /// Open loop, 512×96 lossy / budgeted / sharded / integral mix.
    BudgetMix,
}

/// How load is offered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoopKind {
    /// Each connection sends its next job when the previous one returns.
    Closed,
    /// Jobs are due on a seeded Poisson schedule at this rate (jobs/s).
    Open {
        /// Offered jobs per second.
        rate: f64,
    },
}

impl WorkloadKind {
    /// Every workload. `BENCHMARK.json` declares `whole-256` and
    /// `budget-mix`; `stream-narrow` runs on request (see the README).
    pub const ALL: [WorkloadKind; 3] = [
        WorkloadKind::Whole256,
        WorkloadKind::StreamNarrow,
        WorkloadKind::BudgetMix,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Whole256 => "whole-256",
            WorkloadKind::StreamNarrow => "stream-narrow",
            WorkloadKind::BudgetMix => "budget-mix",
        }
    }

    /// Parse a [`WorkloadKind::name`].
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Frame geometry `(width, height)`.
    pub fn geometry(self) -> (usize, usize) {
        match self {
            WorkloadKind::Whole256 => (256, 256),
            WorkloadKind::StreamNarrow => (16, 64),
            WorkloadKind::BudgetMix => (512, 96),
        }
    }

    /// Closed or open loop.
    pub fn loop_kind(self) -> LoopKind {
        match self {
            WorkloadKind::BudgetMix => LoopKind::Open {
                rate: BUDGET_MIX_RATE,
            },
            _ => LoopKind::Closed,
        }
    }

    /// Latency limit behind `slo_met_frac`, milliseconds.
    pub fn slo_ms(self) -> f64 {
        match self {
            WorkloadKind::Whole256 => 250.0,
            WorkloadKind::StreamNarrow => 10.0,
            WorkloadKind::BudgetMix => 300.0,
        }
    }

    /// Whether jobs are submitted row-streamed.
    pub fn streamed(self) -> bool {
        self == WorkloadKind::StreamNarrow
    }

    /// Distinct requests in the workload's rotation.
    pub fn distinct_requests(self) -> usize {
        match self {
            WorkloadKind::Whole256 => 12,
            WorkloadKind::StreamNarrow => 64,
            WorkloadKind::BudgetMix => 20,
        }
    }

    /// Per-tenant admission budget in in-flight frame bits. `budget-mix`
    /// fits one and a half frames, so two concurrent jobs of one tenant
    /// never both fit; the others are effectively unbounded.
    pub fn tenant_budget_bits(self) -> u64 {
        match self {
            WorkloadKind::BudgetMix => {
                let (w, h) = self.geometry();
                (w * h * 8) as u64 * 3 / 2
            }
            _ => 8 << 28,
        }
    }
}

/// The splitmix64 finaliser over `seed` and stream index `i`.
pub fn splitmix64(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Frame `i` of a seeded stream: a natural-scene preset (picked by the
/// hash) rendered with its seed replaced by `splitmix64(seed, i)`.
pub fn frame(width: usize, height: usize, seed: u64, i: u64) -> ImageU8 {
    let h = splitmix64(seed, i);
    let mut preset = ScenePreset::ALL[(h % ScenePreset::ALL.len() as u64) as usize];
    preset.seed = h;
    preset.render(width, height)
}

/// One distinct request of a workload's rotation.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Short class label (`box/haar`, `stall`, …) for traces.
    pub class: String,
    /// The request, with a placeholder tenant (see [`Plan::request_for`]).
    pub req: JobRequest,
}

/// A workload's generated inputs for one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Which workload.
    pub kind: WorkloadKind,
    /// The seed everything was derived from.
    pub seed: u64,
    /// The distinct requests.
    pub jobs: Vec<Job>,
    /// Seeded permutation of `0..jobs.len()`: job `k` of a run sends
    /// `jobs[order[k % len]]`.
    pub order: Vec<usize>,
}

fn spec(codec: LineCodecKind, kernel: JobKernel) -> JobSpec {
    JobSpec {
        window: WINDOW,
        codec,
        kernel,
        // Pinned rather than read from the environment.
        hot_path: HotPath::Sliced,
        jobs: 1,
        ..JobSpec::default()
    }
}

/// The line codecs `whole-256` rotates through.
pub const CODECS: [LineCodecKind; 4] = [
    LineCodecKind::Raw,
    LineCodecKind::Haar,
    LineCodecKind::Haar2,
    LineCodecKind::Legall,
];

/// Class label and spec of request `r` of `kind`.
fn class_spec(kind: WorkloadKind, r: usize) -> (String, JobSpec) {
    match kind {
        WorkloadKind::Whole256 => {
            let kernels = [JobKernel::Box, JobKernel::Gaussian, JobKernel::Sobel];
            let kernel = kernels[r % kernels.len()];
            let codec = CODECS[(r / kernels.len()) % CODECS.len()];
            (
                format!("{}/{}", kernel.name(), codec.name()),
                spec(codec, kernel),
            )
        }
        WorkloadKind::StreamNarrow => {
            let codec = [LineCodecKind::Raw, LineCodecKind::Haar][r % 2];
            (format!("box/{}", codec.name()), spec(codec, JobKernel::Box))
        }
        WorkloadKind::BudgetMix => {
            let mut s = spec(LineCodecKind::Haar, JobKernel::Box);
            let class = match r % 5 {
                0 => {
                    s.threshold = 4;
                    "haar-t4"
                }
                1 => {
                    s.overflow_policy = Some(OverflowPolicy::Stall);
                    s.budget_fraction = 0.5;
                    "stall"
                }
                2 => {
                    s.overflow_policy = Some(OverflowPolicy::DegradeLossy);
                    s.budget_fraction = 0.5;
                    "degrade"
                }
                3 => {
                    s.jobs = 2;
                    "shard"
                }
                _ => {
                    s.workload = Workload::Integral;
                    "integral"
                }
            };
            (class.to_string(), s)
        }
    }
}

/// Seeded Fisher–Yates permutation of `0..n`.
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix64(seed, i as u64) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

impl Plan {
    /// Generate every input of `kind` for `seed`.
    pub fn generate(kind: WorkloadKind, seed: u64) -> Plan {
        let (w, h) = kind.geometry();
        let jobs = (0..kind.distinct_requests())
            .map(|r| {
                let (class, spec) = class_spec(kind, r);
                let img = frame(w, h, seed, r as u64);
                Job {
                    class,
                    req: JobRequest {
                        tenant: "unassigned".into(),
                        spec,
                        frame: FramePayload::from_image(&img),
                        want_frame: false,
                    },
                }
            })
            .collect::<Vec<_>>();
        let order = permutation(jobs.len(), splitmix64(seed, u64::MAX));
        Plan {
            kind,
            seed,
            jobs,
            order,
        }
    }

    /// Index into [`Plan::jobs`] of run job `k`.
    pub fn job_index(&self, k: u64) -> usize {
        self.order[(k % self.order.len() as u64) as usize]
    }

    /// The request connection `conn` sends for distinct job `j`. Budgeted
    /// jobs share one tenant, so two of them in flight contend for its
    /// budget; every other job is accounted to its connection's own
    /// tenant, which never has two jobs in flight.
    pub fn request_for(&self, j: usize, conn: usize) -> JobRequest {
        let mut req = self.jobs[j].req.clone();
        req.tenant = if req.spec.overflow_policy.is_some() {
            BUDGETED_TENANT.to_string()
        } else {
            format!("conn{conn}")
        };
        req
    }

    /// Due times (seconds from the start) of an open-loop run of
    /// `seconds` at `rate`: exponential gaps from the seed, rescaled so
    /// that exactly `round(rate × seconds)` jobs fall inside the run. The
    /// run's job count is then fixed by its length, not by the seed.
    pub fn arrivals(&self, rate: f64, seconds: f64) -> Vec<f64> {
        let n = ((rate * seconds).round() as usize).max(1);
        let mut t = 0.0;
        let mut due = Vec::with_capacity(n);
        for k in 0..=n {
            let u =
                (splitmix64(self.seed ^ 0xA5A5_A5A5, k as u64) >> 11) as f64 / (1u64 << 53) as f64;
            t += -(1.0 - u).ln();
            due.push(t);
        }
        let scale = seconds / due[n];
        due.truncate(n);
        due.iter_mut().for_each(|d| *d *= scale);
        due
    }
}
