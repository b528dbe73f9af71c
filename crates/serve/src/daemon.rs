//! `swc serve`: the long-running daemon.
//!
//! One [`reactor`] thread multiplexes the listener and
//! every connection through a single `poll(2)` ready set, one shared
//! [`ThreadPool`] every job executes on — `jobs` worker threads, so
//! `jobs` jobs or stream steps execute at once — one [`TenantGovernor`]
//! multiplexing tenants over it. All serving state is observable through
//! a metrics-only telemetry registry (no trace ring, no span profiler:
//! nothing here reads them): `swc client --metrics` returns the same
//! Prometheus exposition `Report::to_prometheus` produces for the
//! datapath, extended with the `serve.*` family (inflight, queue depth,
//! per-tenant rejects, degraded jobs, `serve.reactor.*` loop health).
//!
//! Shutdown is cooperative and complete: a `Shutdown` frame (or
//! [`Daemon::stop`]) flips the stop flag and wakes the reactor, which
//! drains in-flight pool work, flushes response queues, closes every
//! socket, and exits — no thread leaks, no poisoned pool, no admission
//! budget left held.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::api::{JobError, JobRequest};
use crate::exec;
use crate::reactor::{self, AcceptSource, Waker};
use crate::tenant::{TenantGovernor, TenantPolicy};
use crate::wire::WireError;
use sw_core::memory_unit::OverflowPolicy;
use sw_pool::{default_jobs, ThreadPool};
use sw_telemetry::metrics::exponential_bounds;
use sw_telemetry::TelemetryHandle;

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listen {
    /// `tcp:HOST:PORT` (port 0 binds an ephemeral port; see
    /// [`Daemon::local_addr`]).
    Tcp(String),
    /// `unix:PATH` — the socket file is unlinked on startup and shutdown.
    Unix(PathBuf),
}

impl Listen {
    /// Parse the CLI's `--listen` value.
    pub fn parse(s: &str) -> Result<Self, String> {
        if let Some(addr) = s.strip_prefix("tcp:") {
            if addr.is_empty() {
                return Err("--listen tcp: needs HOST:PORT".into());
            }
            Ok(Listen::Tcp(addr.to_string()))
        } else if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("--listen unix: needs a socket path".into());
            }
            Ok(Listen::Unix(PathBuf::from(path)))
        } else {
            Err(format!(
                "unknown listen address '{s}' (tcp:HOST:PORT, unix:PATH)"
            ))
        }
    }
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listen address.
    pub listen: Listen,
    /// Threads executing jobs and stream steps at once (0 = `SWC_JOBS` /
    /// available parallelism).
    pub jobs: usize,
    /// Default per-tenant admission budget.
    pub tenant_policy: TenantPolicy,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        Self {
            listen: Listen::Tcp("127.0.0.1:0".into()),
            // 256 MiB of in-flight frame bits per tenant: effectively
            // unbounded for tests, finite for arithmetic.
            jobs: 0,
            tenant_policy: TenantPolicy::new(8 << 28, OverflowPolicy::Fail),
        }
    }
}

/// State shared between the reactor thread, the pool tasks it
/// dispatches, and the [`Daemon`] handle.
pub(crate) struct Shared {
    pub(crate) stop: AtomicBool,
    pub(crate) pool: ThreadPool,
    pub(crate) tele: TelemetryHandle,
    pub(crate) governor: TenantGovernor,
    /// Wakes the reactor's blocking `poll` — the stop flag alone cannot.
    pub(crate) waker: Waker,
    /// Runs on the executor thread as each admitted whole-frame job
    /// starts, so tests can hold jobs at a rendezvous.
    #[cfg(test)]
    pub(crate) exec_hook: std::sync::OnceLock<Box<dyn Fn() + Send + Sync>>,
}

/// A running daemon. Dropping it stops and joins everything.
pub struct Daemon {
    shared: Arc<Shared>,
    reactor: Option<JoinHandle<()>>,
    local_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

impl Daemon {
    /// Bind and start the reactor thread.
    pub fn start(cfg: DaemonConfig) -> io::Result<Daemon> {
        let jobs = if cfg.jobs == 0 {
            default_jobs()
        } else {
            cfg.jobs
        };
        let tele = TelemetryHandle::metrics_only();
        let (waker, wake_rx) = reactor::wake_pair()?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            // The reactor never helps drain the pool: `jobs` executors are its workers.
            pool: ThreadPool::new(jobs + 1),
            tele,
            governor: TenantGovernor::new(cfg.tenant_policy),
            waker,
            #[cfg(test)]
            exec_hook: std::sync::OnceLock::new(),
        });
        let (source, local_addr, unix_path) = match &cfg.listen {
            Listen::Tcp(addr) => {
                let listener = TcpListener::bind(addr)?;
                let local = listener.local_addr()?;
                listener.set_nonblocking(true)?;
                (AcceptSource::Tcp(listener), Some(local), None)
            }
            Listen::Unix(path) => {
                // A previous unclean exit may have left the socket file.
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                (AcceptSource::Unix(listener), None, Some(path.clone()))
            }
        };
        let s = Arc::clone(&shared);
        let reactor = std::thread::Builder::new()
            .name("swcd-reactor".into())
            .spawn(move || reactor::run(s, source, wake_rx))?;
        Ok(Daemon {
            shared,
            reactor: Some(reactor),
            local_addr,
            unix_path,
        })
    }

    /// The bound TCP address (ephemeral-port tests), `None` for Unix.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.local_addr
    }

    /// The daemon's telemetry registry (the `/metrics` source).
    pub fn telemetry(&self) -> &TelemetryHandle {
        &self.shared.tele
    }

    /// Jobs currently admitted across all tenants.
    pub fn inflight_jobs(&self) -> u64 {
        self.shared.governor.inflight_jobs()
    }

    /// Whether a shutdown has been requested (by [`Daemon::stop`] or a
    /// `Shutdown` frame).
    pub fn stop_requested(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst)
    }

    /// Block until the daemon has fully drained (reactor exited, every
    /// connection closed, every in-flight pool task completed).
    pub fn wait(&mut self) {
        if let Some(t) = self.reactor.take() {
            let _ = t.join();
        }
        if let Some(path) = self.unix_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Request shutdown and block until drained.
    pub fn stop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
        self.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Decode, admit, execute, account. Every failure mode maps onto a typed
/// [`JobError`]; handler panics are caught so one bad job can neither
/// kill its pool worker's batch nor poison the shared pool.
pub(crate) fn run_job(
    shared: &Shared,
    payload: &[u8],
) -> Result<crate::api::JobResponse, JobError> {
    let req = JobRequest::decode(payload).map_err(|e: WireError| match e {
        WireError::Corrupt(d) => JobError::Malformed(d),
        other => JobError::Malformed(other.to_string()),
    })?;

    let tele = &shared.tele;
    tele.counter("serve.jobs_total").inc();
    let cost_bits = u64::from(req.frame.width) * u64::from(req.frame.height) * 8;

    let queue_depth = tele.gauge("serve.queue_depth");
    queue_depth.add(1);
    let admitted = shared
        .governor
        .admit(&req.tenant, cost_bits, req.spec.threshold);
    queue_depth.sub(1);
    let (hold, admission) = match admitted {
        Ok(ok) => ok,
        Err(e) => {
            tele.counter("serve.jobs_rejected").inc();
            tele.counter(&format!("serve.rejects.{}", req.tenant)).inc();
            return Err(e);
        }
    };

    // The degrade policy trades fidelity for admission: run the job at
    // the escalated threshold and say so in the response.
    let mut effective = req;
    let degraded = match admission.escalate_to {
        Some(t) if t > effective.spec.threshold => {
            effective.spec.threshold = t;
            true
        }
        _ => false,
    };
    if degraded {
        tele.counter("serve.jobs_degraded").inc();
    }

    let inflight = tele.gauge("serve.inflight");
    inflight.add(1);
    let result = catch_unwind(AssertUnwindSafe(|| {
        #[cfg(test)]
        if let Some(hook) = shared.exec_hook.get() {
            hook();
        }
        exec::execute(&effective, &shared.pool, tele)
    }));
    inflight.sub(1);
    drop(hold);

    let mut resp = match result {
        Ok(r) => r?,
        Err(panic) => {
            let detail = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "job handler panicked".into());
            return Err(JobError::Internal(detail));
        }
    };
    resp.queue_ns = admission.queue_ns;
    resp.degraded = degraded;
    tele.histogram("serve.exec_ns", &exponential_bounds(1 << 10, 4, 16))
        .observe(resp.exec_ns);
    Ok(resp)
}

/// The Prometheus exposition: the full datapath registry plus the live
/// `serve.*` admission snapshot.
pub(crate) fn metrics_text(shared: &Shared) -> String {
    let tele = &shared.tele;
    tele.gauge("serve.inflight_jobs")
        .set(shared.governor.inflight_jobs());
    // Executor threads, i.e. the configured `jobs`.
    tele.gauge("serve.pool_jobs")
        .set(shared.pool.workers() as u64);
    tele.report().to_prometheus()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listen_parses_both_transports() {
        assert_eq!(
            Listen::parse("tcp:127.0.0.1:0").unwrap(),
            Listen::Tcp("127.0.0.1:0".into())
        );
        assert_eq!(
            Listen::parse("unix:/tmp/swcd.sock").unwrap(),
            Listen::Unix(PathBuf::from("/tmp/swcd.sock"))
        );
        assert!(Listen::parse("http:host")
            .unwrap_err()
            .contains("unknown listen address"));
        assert!(Listen::parse("tcp:").is_err());
        assert!(Listen::parse("unix:").is_err());
    }

    #[test]
    fn daemon_starts_and_stops_cleanly() {
        let mut d = Daemon::start(DaemonConfig::default()).unwrap();
        let addr = d.local_addr().unwrap();
        assert_ne!(addr.port(), 0);
        d.stop();
    }

    #[test]
    fn two_jobs_execute_at_once_on_a_two_job_daemon() {
        use crate::api::{FramePayload, JobSpec};
        use crate::client::Client;
        use std::sync::mpsc;
        use std::sync::{Condvar, Mutex};
        use std::time::Duration;

        let mut d = Daemon::start(DaemonConfig {
            jobs: 2,
            ..DaemonConfig::default()
        })
        .unwrap();
        // Each job reports that it started, then waits at a gate the test
        // opens only once both jobs are executing — one executor thread
        // would hold the second job in the queue behind the first. The
        // wait is capped so a failing daemon still drains and stops.
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let started_tx = Mutex::new(started_tx);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let hook_gate = Arc::clone(&gate);
        let hook = move || {
            started_tx.lock().unwrap().send(()).unwrap();
            let (open, cv) = &*hook_gate;
            let guard = open.lock().unwrap();
            let _ = cv
                .wait_timeout_while(guard, Duration::from_secs(30), |open| !*open)
                .unwrap();
        };
        assert!(d.shared.exec_hook.set(Box::new(hook)).is_ok());

        // Frames above the small-job size are dispatched one per pool
        // task, never batched together.
        let req = JobRequest {
            tenant: "overlap".into(),
            spec: JobSpec::default(),
            frame: FramePayload {
                width: 256,
                height: 96,
                pixels: (0..256 * 96).map(|i| (i * 37 % 251) as u8).collect(),
            },
            want_frame: false,
        };
        let listen = Listen::Tcp(d.local_addr().unwrap().to_string());
        let digests = std::thread::scope(|s| {
            let jobs: Vec<_> = (0..2)
                .map(|_| {
                    let (listen, req) = (&listen, &req);
                    s.spawn(move || {
                        let mut client = Client::connect(listen).unwrap();
                        client.submit(req).unwrap().digest
                    })
                })
                .collect();
            let both_started =
                (0..2).all(|_| started_rx.recv_timeout(Duration::from_secs(10)).is_ok());
            let (open, cv) = &*gate;
            *open.lock().unwrap() = true;
            cv.notify_all();
            let digests: Vec<u64> = jobs.into_iter().map(|j| j.join().unwrap()).collect();
            assert!(
                both_started,
                "the second job never started beside the first"
            );
            digests
        });
        assert_eq!(digests[0], digests[1]);
        d.stop();
    }

    #[test]
    fn idle_daemon_makes_no_spurious_wakeups() {
        // The reactor's poll blocks with an infinite timeout: with no
        // client traffic the wakeup counter must not move. (Read the
        // counter in-process — a metrics request over the socket would
        // itself wake the loop.)
        let mut d = Daemon::start(DaemonConfig::default()).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(300));
        let before = d.telemetry().counter("serve.reactor.wakeups").get();
        std::thread::sleep(std::time::Duration::from_millis(500));
        let after = d.telemetry().counter("serve.reactor.wakeups").get();
        assert_eq!(
            after - before,
            0,
            "idle reactor woke {} times in 500ms",
            after - before
        );
        d.stop();
    }
}
