//! Expected results: every distinct request executed locally through the
//! same `sw_serve::exec::execute` the daemon runs, before any timing.

use sw_pool::ThreadPool;
use sw_serve::api::JobResponse;
use sw_serve::exec;
use sw_telemetry::TelemetryHandle;

use crate::gen::{Plan, POOL_JOBS};

/// The fields a served response must reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expected {
    /// Output digest.
    pub digest: u64,
    /// Digest over the frame statistics.
    pub stats_digest: u64,
    /// Output dimensions.
    pub out_dims: (u32, u32),
    /// Simulated backpressure cycles.
    pub stall_cycles: u64,
    /// Simulated threshold escalations.
    pub t_escalations: u64,
    /// Simulated overflow events.
    pub overflow_events: u64,
    /// Modelled memory saving, percent.
    pub memory_saving_pct: f64,
}

impl Expected {
    fn of(resp: &JobResponse) -> Self {
        Self {
            digest: resp.digest,
            stats_digest: resp.stats_digest,
            out_dims: (resp.out_width, resp.out_height),
            stall_cycles: resp.stall_cycles,
            t_escalations: resp.t_escalations,
            overflow_events: resp.overflow_events,
            memory_saving_pct: resp.memory_saving_pct,
        }
    }

    /// Whether `resp` reproduces these fields bit for bit.
    pub fn matches(&self, resp: &JobResponse) -> bool {
        let got = Self::of(resp);
        got.digest == self.digest
            && got.stats_digest == self.stats_digest
            && got.out_dims == self.out_dims
            && got.stall_cycles == self.stall_cycles
            && got.t_escalations == self.t_escalations
            && got.overflow_events == self.overflow_events
            && got.memory_saving_pct.to_bits() == self.memory_saving_pct.to_bits()
    }
}

/// Execute every distinct request of `plan` locally, telemetry off.
///
/// # Errors
///
/// The first request the executor rejects: the workload is meant to run
/// without failures, so any error is a benchmark or program defect.
pub fn expected(plan: &Plan) -> Result<Vec<Expected>, String> {
    let pool = ThreadPool::new(POOL_JOBS);
    let tele = TelemetryHandle::disabled();
    plan.jobs
        .iter()
        .map(|job| {
            exec::execute(&job.req, &pool, &tele)
                .map(|r| Expected::of(&r))
                .map_err(|e| format!("local execution of {} failed: {e}", job.class))
        })
        .collect()
}
