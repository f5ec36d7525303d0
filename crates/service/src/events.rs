//! The streamed progress API and the service-wide perf view.
//!
//! Events are poll-based: the scheduler pushes them as tenants progress
//! and [`MatchService::poll_events`](crate::MatchService::poll_events)
//! drains them in order. Everything is serializable so a driver can
//! stream them as JSON lines (the `corleone-serve` bin does).

use corleone::engine::Termination;
use corleone::estimator::AccuracyEstimate;
use serde::{Deserialize, Serialize};

/// One progress notification from the service.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ServiceEvent {
    /// The submission passed admission control.
    Admitted {
        /// The tenant's run id.
        run_id: String,
        /// `true` if the active set was full and the tenant is waiting.
        queued: bool,
        /// `true` if a prior checkpoint was found and the run will
        /// continue from it instead of starting fresh.
        resuming: bool,
    },
    /// One pipeline iteration (matcher → estimator → locator) completed.
    IterationCompleted {
        /// The tenant's run id.
        run_id: String,
        /// 1-based iteration number (counts iterations restored from a
        /// resumed snapshot too).
        iteration: u64,
        /// The estimator's interim view of the combined predictions.
        estimate: AccuracyEstimate,
        /// Crowd spend so far across the whole run, in cents.
        spent_cents: f64,
    },
    /// A checkpoint snapshot was written (iteration 0 is the
    /// post-blocking snapshot).
    Checkpointed {
        /// The tenant's run id.
        run_id: String,
        /// The completed-iteration count the snapshot captured.
        iteration: u64,
    },
    /// The run ended; its [`RunReport`](corleone::RunReport) is ready via
    /// [`MatchService::take_report`](crate::MatchService::take_report).
    Terminated {
        /// The tenant's run id.
        run_id: String,
        /// Why the run ended.
        termination: Termination,
    },
    /// The run failed with a typed error before producing a report.
    Failed {
        /// The tenant's run id.
        run_id: String,
        /// The rendered error.
        message: String,
    },
}

impl ServiceEvent {
    /// The run id this event concerns.
    pub fn run_id(&self) -> &str {
        match self {
            ServiceEvent::Admitted { run_id, .. }
            | ServiceEvent::IterationCompleted { run_id, .. }
            | ServiceEvent::Checkpointed { run_id, .. }
            | ServiceEvent::Terminated { run_id, .. }
            | ServiceEvent::Failed { run_id, .. } => run_id,
        }
    }
}

/// Aggregated execution telemetry across every tenant the service has
/// driven — the service-level analogue of
/// [`PerfReport`](corleone::PerfReport). Like per-run perf, nothing here
/// feeds back into any run's bytes.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ServicePerf {
    /// Submissions that passed admission control.
    pub tenants_admitted: u64,
    /// Tenants that ran to completion (a report exists).
    pub tenants_completed: u64,
    /// Tenants that failed with a typed error.
    pub tenants_failed: u64,
    /// Tenants that continued from a prior checkpoint instead of
    /// starting fresh.
    pub tenants_resumed: u64,
    /// Tenant starts that adopted another tenant's record-analysis build
    /// through the content-addressed registry.
    pub analysis_cache_hits: u64,
    /// Tenant starts that had to build the analysis themselves (the
    /// build is then published for later tenants).
    pub analysis_cache_misses: u64,
    /// Resident arena bytes of analyses built by cache-missing tenants.
    pub analysis_bytes_built: u64,
    /// Resident arena bytes cache-hitting tenants did NOT have to build
    /// (the byte-denominated value of the shared-analysis registry).
    pub analysis_bytes_saved: u64,
    /// Scheduling quanta executed (one tenant iteration each).
    pub ticks: u64,
    /// Checkpoint snapshots written across all tenants.
    pub snapshots_written: u64,
    /// Total crowd spend across completed tenants, in cents.
    pub total_cost_cents: f64,
    /// Total pairs labeled across completed tenants.
    pub total_pairs_labeled: u64,
    /// Per-tenant summaries, in completion order.
    pub tenants: Vec<TenantPerf>,
}

/// One completed tenant's slice of the service perf view, distilled from
/// its [`RunReport`](corleone::RunReport).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TenantPerf {
    /// The tenant's run id.
    pub run_id: String,
    /// Pipeline iterations the run executed.
    pub iterations: u64,
    /// Crowd spend, in cents.
    pub cost_cents: f64,
    /// Distinct pairs the crowd labeled.
    pub pairs_labeled: u64,
    /// Milliseconds spent building the record-analysis layer (0 when it
    /// was adopted from the shared registry — the hit is visible here).
    pub analysis_build_ms: f64,
    /// Resident arena bytes of the tenant's analysis (slabs + headers),
    /// whether built locally or adopted from the shared registry.
    pub analysis_bytes: u64,
    /// Pairs vectorized during the run.
    pub pairs_vectorized: u64,
    /// Snapshots written, cumulative across the tenant's resume chain.
    pub snapshots_written: u64,
    /// The snapshot iteration this tenant resumed from, if any.
    pub resumed_from_iteration: Option<usize>,
}
