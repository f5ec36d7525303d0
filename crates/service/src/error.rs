//! Typed service-layer errors.
//!
//! Admission control rejects with these instead of queueing forever or
//! silently dropping work; engine and store failures inside a tenant's
//! run are wrapped so a caller can tell *whose* layer refused.

use corleone::CorleoneError;
use store::StoreError;

/// Why the service refused an operation.
#[derive(Debug)]
pub enum ServiceError {
    /// A tenant with this run id is already queued, running, or finished
    /// in this service instance.
    DuplicateRunId(String),
    /// The active set and the waiting queue are both full.
    QueueFull {
        /// The rejected submission's run id.
        run_id: String,
        /// The configured queue capacity that was exhausted.
        capacity: usize,
    },
    /// Admitting this tenant's declared budget would overcommit the
    /// service's aggregate crowd budget.
    QuotaExceeded {
        /// The rejected submission's run id.
        run_id: String,
        /// The budget the submission declared, in cents.
        requested_cents: f64,
        /// What the aggregate cap still has uncommitted, in cents.
        available_cents: f64,
    },
    /// The service enforces an aggregate budget, so every tenant must
    /// declare a per-run budget (`config.engine.budget_cents`).
    UnboundedBudget {
        /// The rejected submission's run id.
        run_id: String,
    },
    /// No tenant with this run id is known to the service.
    UnknownTenant(String),
    /// The checkpoint store refused (run id, snapshot, or fingerprint).
    Store(StoreError),
    /// The engine refused before any iteration ran.
    Engine(CorleoneError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::DuplicateRunId(id) => {
                write!(f, "run id {id:?} is already registered with this service")
            }
            ServiceError::QueueFull { run_id, capacity } => {
                write!(f, "cannot admit {run_id:?}: waiting queue is at capacity {capacity}")
            }
            ServiceError::QuotaExceeded { run_id, requested_cents, available_cents } => write!(
                f,
                "cannot admit {run_id:?}: declared budget {requested_cents:.1}¢ exceeds the \
                 {available_cents:.1}¢ still uncommitted under the aggregate cap"
            ),
            ServiceError::UnboundedBudget { run_id } => write!(
                f,
                "cannot admit {run_id:?}: the service enforces an aggregate budget, so the \
                 submission must declare engine.budget_cents"
            ),
            ServiceError::UnknownTenant(id) => {
                write!(f, "no tenant {id:?} in this service")
            }
            ServiceError::Store(e) => write!(f, "store: {e}"),
            ServiceError::Engine(e) => write!(f, "engine: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<StoreError> for ServiceError {
    fn from(e: StoreError) -> Self {
        ServiceError::Store(e)
    }
}

impl From<CorleoneError> for ServiceError {
    fn from(e: CorleoneError) -> Self {
        // Store failures keep their own variant even when they surface
        // through the engine, so callers match one shape either way.
        match e {
            CorleoneError::Store(s) => ServiceError::Store(s),
            other => ServiceError::Engine(other),
        }
    }
}
