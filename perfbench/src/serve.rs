//! The served part of a run: an in-process daemon over a unix socket,
//! driven by a seeded closed- or open-loop generator on
//! [`CONNECTIONS`] connections, every response verified.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sw_core::memory_unit::OverflowPolicy;
use sw_serve::api::JobError;
use sw_serve::client::ClientError;
use sw_serve::{Client, Daemon, DaemonConfig, JobResponse, Listen, TenantPolicy};
use sw_telemetry::metrics::Gauge;

use crate::gen::{LoopKind, Plan, WorkloadKind, CONNECTIONS, POOL_JOBS, STREAM_CHUNK_ROWS};
use crate::trace::Tracer;
use crate::verify::Expected;

/// Jobs each connection runs during set-up, before the first timed job.
pub const WARMUP_PER_CONN: u64 = 2;

/// Sample slots reserved per second of a closed-loop phase: well above
/// any rate the daemon reaches on small frames.
const CLOSED_LOOP_RESERVE_PER_S: f64 = 10_000.0;

/// How one job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed and matched the expected result.
    Verified,
    /// Completed with a result that differs from the local execution.
    Mismatch,
    /// Refused by admission control.
    Rejected,
    /// Any other typed job error.
    Failed,
    /// Connection or protocol failure.
    Transport,
}

/// One timed job.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Run-wide job sequence number.
    pub k: u64,
    /// Index of the distinct request sent.
    pub job: usize,
    /// Nanoseconds from the phase start until the job was due (open
    /// loop) or sent (closed loop).
    pub due_ns: u64,
    /// Nanoseconds from the phase start until the request was sent.
    pub sent_ns: u64,
    /// Nanoseconds from the phase start until the reply was read.
    pub done_ns: u64,
    /// How it ended.
    pub outcome: Outcome,
    /// Server-reported admission wait (0 unless completed).
    pub queue_ns: u64,
    /// Server-reported execution time (0 unless completed).
    pub exec_ns: u64,
    /// Whether admission degraded the job.
    pub degraded: bool,
}

impl Sample {
    /// Latency as the workload defines it: from the due time (open loop;
    /// equal to the send time in a closed loop) to the reply.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns - self.due_ns
    }

    /// Latency from the moment the request was sent.
    pub fn send_latency_ns(&self) -> u64 {
        self.done_ns - self.sent_ns
    }

    /// How late the generator sent the job.
    pub fn lag_ns(&self) -> u64 {
        self.sent_ns - self.due_ns
    }
}

/// What one timed phase measured.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Every job started in the phase, in completion order.
    pub samples: Vec<Sample>,
    /// Nanoseconds from the phase start to the last reply.
    pub wall_ns: u64,
    /// Jobs the phase was meant to run: the open-loop schedule's length
    /// (jobs still unsent at the hard stop count as missed), or the jobs
    /// started in a closed loop.
    pub scheduled: usize,
    /// Highest `serve.reactor.dispatch_depth` seen at job completions
    /// (sampled only when a gauge is supplied).
    pub dispatch_depth_max: u64,
}

impl Phase {
    /// Jobs whose result matched the local execution.
    pub fn verified(&self) -> usize {
        self.samples
            .iter()
            .filter(|s| s.outcome == Outcome::Verified)
            .count()
    }

    /// Jobs that did not verify, for any reason.
    pub fn failed(&self) -> usize {
        self.samples.len() - self.verified()
    }
}

/// A running daemon with its generator connections.
pub struct Session {
    daemon: Daemon,
    listen: Listen,
    clients: Vec<Client>,
    /// Seconds from daemon start to the end of warm-up.
    pub setup_s: f64,
    /// The inputs, generated inside the set-up.
    pub plan: Plan,
}

fn job_error(e: &ClientError) -> Outcome {
    match e {
        ClientError::Job(JobError::Rejected { .. }) => Outcome::Rejected,
        ClientError::Job(_) => Outcome::Failed,
        _ => Outcome::Transport,
    }
}

fn submit(
    client: &mut Client,
    plan: &Plan,
    j: usize,
    conn: usize,
) -> Result<JobResponse, ClientError> {
    let req = plan.request_for(j, conn);
    if plan.kind.streamed() {
        client.submit_streamed(&req, STREAM_CHUNK_ROWS)
    } else {
        client.submit(&req)
    }
}

/// What the generator threads of one phase share.
struct Generator<'a> {
    plan: &'a Plan,
    listen: &'a Listen,
    expected: &'a [Expected],
    tracer: Option<&'a Tracer>,
    depth: Option<&'a Gauge>,
    first_k: u64,
    /// Next phase-local job number to claim.
    next: AtomicU64,
    depth_max: AtomicU64,
    /// Open-loop due times, seconds from `start`.
    arrivals: Option<Vec<f64>>,
    start: Instant,
    limit: Duration,
    hard_stop: Instant,
    /// Every connection's samples, in one store reserved up front.
    samples: Mutex<Vec<Sample>>,
}

impl Generator<'_> {
    /// When job `i` is due, waiting for it in an open loop; `None` once
    /// the phase is over for this thread.
    fn due(&self, i: u64) -> Option<Instant> {
        let now = Instant::now();
        match &self.arrivals {
            Some(a) => {
                let t = *a.get(i as usize)?;
                if now > self.hard_stop {
                    return None;
                }
                let due = self.start + Duration::from_secs_f64(t);
                if let Some(wait) = due.checked_duration_since(now) {
                    std::thread::sleep(wait);
                }
                Some(due)
            }
            None => (now.duration_since(self.start) < self.limit).then_some(now),
        }
    }

    /// One connection's share of the phase: claim jobs until the phase
    /// ends, submit, verify, and record.
    fn drive(&self, conn: usize, client: &mut Client) {
        let tid = conn as u64 + 1;
        loop {
            let i = self.next.fetch_add(1, Ordering::SeqCst);
            let Some(due) = self.due(i) else { break };
            let k = self.first_k + i;
            let j = self.plan.job_index(k);
            let root = self
                .tracer
                .map(|t| t.begin_at("client.job", None, Some(k), tid, due));
            let parent = root.as_ref().map(|r| r.id);
            let call = self.tracer.map(|t| {
                let name = if self.plan.kind.streamed() {
                    "client.submit_streamed"
                } else {
                    "client.submit"
                };
                t.begin(name, parent, Some(k), tid)
            });
            let sent = Instant::now();
            let result = submit(client, self.plan, j, conn);
            let done = Instant::now();
            if let Some(g) = self.depth {
                self.depth_max.fetch_max(g.get(), Ordering::Relaxed);
            }
            let since = |t: Instant| t.duration_since(self.start).as_nanos() as u64;
            let mut sample = Sample {
                k,
                job: j,
                due_ns: since(due),
                sent_ns: since(sent),
                done_ns: since(done),
                outcome: Outcome::Transport,
                queue_ns: 0,
                exec_ns: 0,
                degraded: false,
            };
            let verify = self
                .tracer
                .map(|t| t.begin("bench.verify", parent, Some(k), tid));
            match &result {
                Ok(resp) => {
                    sample.queue_ns = resp.queue_ns;
                    sample.exec_ns = resp.exec_ns;
                    sample.degraded = resp.degraded;
                    sample.outcome = if self.expected[j].matches(resp) {
                        Outcome::Verified
                    } else {
                        Outcome::Mismatch
                    };
                }
                Err(e) => sample.outcome = job_error(e),
            }
            if let (Some(t), Some(call), Some(verify), Some(root)) =
                (self.tracer, call, verify, root)
            {
                t.end_at(
                    call,
                    done,
                    &[
                        ("queue_ms", sample.queue_ns as f64 / 1e6),
                        ("exec_ms", sample.exec_ns as f64 / 1e6),
                        ("job_index", j as f64),
                    ],
                );
                let verified = f64::from(u8::from(sample.outcome == Outcome::Verified));
                t.end(verify, &[("verified", verified)]);
                t.end(root, &[]);
            }
            let lost = sample.outcome == Outcome::Transport;
            self.samples
                .lock()
                .expect("sample store poisoned")
                .push(sample);
            if lost {
                // The connection is unusable after a transport error;
                // reconnect before the next job.
                match Client::connect(self.listen) {
                    Ok(c) => *client = c,
                    Err(_) => break,
                }
            }
        }
    }
}

impl Session {
    /// Start a daemon on `socket`, generate the inputs, connect and warm
    /// up; the whole of it is the set-up time. Warm-up replies are
    /// checked against `expected` after the clock stops.
    ///
    /// # Errors
    ///
    /// Any failure to start, connect, or warm up.
    pub fn start(
        kind: WorkloadKind,
        seed: u64,
        socket: &Path,
        expected: &[Expected],
    ) -> Result<Session, String> {
        let started = Instant::now();
        let listen = Listen::Unix(PathBuf::from(socket));
        let daemon = Daemon::start(DaemonConfig {
            listen: listen.clone(),
            jobs: POOL_JOBS,
            tenant_policy: TenantPolicy::new(kind.tenant_budget_bits(), OverflowPolicy::Stall),
        })
        .map_err(|e| format!("daemon start on {}: {e}", socket.display()))?;
        let plan = Plan::generate(kind, seed);
        let mut clients = Vec::with_capacity(CONNECTIONS);
        for _ in 0..CONNECTIONS {
            clients.push(Client::connect(&listen).map_err(|e| format!("connect: {e}"))?);
        }
        let mut warm = Vec::new();
        for round in 0..WARMUP_PER_CONN {
            for (conn, client) in clients.iter_mut().enumerate() {
                let j = plan.job_index(round * CONNECTIONS as u64 + conn as u64);
                let resp = submit(client, &plan, j, conn).map_err(|e| format!("warm-up: {e}"))?;
                warm.push((j, resp));
            }
        }
        let setup_s = started.elapsed().as_secs_f64();
        for (j, resp) in &warm {
            if !expected[*j].matches(resp) {
                return Err(format!(
                    "warm-up reply for {} differs from the local execution",
                    plan.jobs[*j].class
                ));
            }
        }
        Ok(Session {
            daemon,
            listen,
            clients,
            setup_s,
            plan,
        })
    }

    /// The daemon's Prometheus exposition, fetched over the first
    /// generator connection.
    ///
    /// # Errors
    ///
    /// A failed metrics round trip.
    pub fn scrape(&mut self) -> Result<String, String> {
        self.clients[0]
            .metrics()
            .map_err(|e| format!("metrics scrape: {e}"))
    }

    /// The daemon's in-process dispatch-depth gauge.
    pub fn dispatch_depth_gauge(&self) -> Gauge {
        self.daemon
            .telemetry()
            .gauge("serve.reactor.dispatch_depth")
    }

    /// Run one timed phase of `seconds`, numbering jobs from `first_k`.
    /// With a tracer, every job records a `client.job` span enclosing its
    /// `client.submit` call and the benchmark's `bench.verify` check.
    pub fn run_phase(
        &mut self,
        expected: &[Expected],
        seconds: f64,
        first_k: u64,
        tracer: Option<&Tracer>,
        depth: Option<&Gauge>,
    ) -> Phase {
        let arrivals = match self.plan.kind.loop_kind() {
            LoopKind::Open { rate } => Some(self.plan.arrivals(rate, seconds)),
            LoopKind::Closed => None,
        };
        let limit = Duration::from_secs_f64(seconds);
        // Reserved up front so the sample store is never reallocated or
        // copied: the peak RSS then grows with the job count only, not
        // with where that count falls between two capacity doublings.
        // Untouched reserve is never resident.
        let reserve = arrivals
            .as_ref()
            .map_or((seconds * CLOSED_LOOP_RESERVE_PER_S) as usize, Vec::len);
        let start = Instant::now();
        let gen = Generator {
            plan: &self.plan,
            listen: &self.listen,
            expected,
            tracer,
            depth,
            first_k,
            next: AtomicU64::new(0),
            depth_max: AtomicU64::new(0),
            arrivals,
            start,
            limit,
            // An open loop that falls behind stops sending at twice its
            // length, so a slow build still ends in bounded time.
            hard_stop: start + limit * 2,
            samples: Mutex::new(Vec::with_capacity(reserve)),
        };
        std::thread::scope(|scope| {
            let gen = &gen;
            for (conn, client) in self.clients.iter_mut().enumerate() {
                scope.spawn(move || gen.drive(conn, client));
            }
        });
        let mut samples = gen.samples.into_inner().expect("sample store poisoned");
        samples.sort_unstable_by_key(|s| s.k);
        let wall_ns = samples.iter().map(|s| s.done_ns).max().unwrap_or(0);
        let scheduled = gen
            .arrivals
            .map_or(samples.len(), |a| a.len().max(samples.len()));
        Phase {
            samples,
            wall_ns,
            scheduled,
            dispatch_depth_max: gen.depth_max.into_inner(),
        }
    }

    /// Close the connections and stop the daemon, waiting for every
    /// thread it started.
    pub fn stop(self) {
        let Session {
            mut daemon,
            clients,
            ..
        } = self;
        drop(clients);
        daemon.stop();
    }
}

/// Read a counter or gauge value from a Prometheus exposition.
pub fn prom_value(text: &str, name: &str) -> f64 {
    let key = name.replace('.', "_");
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|l| {
            let (k, v) = l.split_once(' ')?;
            (k == key).then(|| v.trim().parse::<f64>().ok()).flatten()
        })
        .unwrap_or(0.0)
}
