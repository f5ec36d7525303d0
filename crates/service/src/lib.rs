#![forbid(unsafe_code)]
//! # service — the multi-tenant matching service
//!
//! Everything below this crate is a one-shot
//! [`RunSession`](corleone::RunSession): one task, one platform, one
//! report. This crate is the long-running layer the ROADMAP north star
//! asks for — a [`MatchService`] that accepts many concurrent
//! [`MatchTask`] submissions as *tenants* and drives each through the
//! unchanged blocker → learner → estimator loop, interleaved at
//! iteration granularity over one shared [`exec`] thread pool.
//!
//! ## Architecture
//!
//! * **Cooperative scheduler.** The service owns no threads (the
//!   determinism contract bans stray `thread::spawn`; parallelism lives
//!   inside `exec::par_map`). Each [`MatchService::tick`] runs exactly
//!   one quantum — one tenant's blocker, or one pipeline iteration —
//!   and rotates fair round-robin across active tenants, so one giant
//!   run cannot starve the rest. [`MatchService::run_all`] ticks to
//!   completion.
//! * **Content-addressed analysis sharing.** A tenant's record-analysis
//!   layer is a pure function of its tables + fitted vectorizer
//!   ([`MatchTask::analysis_fingerprint`]). The service keeps a registry
//!   of built analyses keyed by that fingerprint; two tenants matching
//!   the same table pay the build once. Because the shared value is
//!   bit-identical to what each tenant would build alone, sharing is
//!   invisible to run bytes — the hit shows up only in [`ServicePerf`].
//! * **Admission control.** Concurrency beyond `max_active` queues
//!   (FIFO); beyond `max_queued` rejects with
//!   [`ServiceError::QueueFull`]. With an aggregate budget cap, every
//!   submission must declare a per-run budget, and overcommitting the
//!   cap rejects with [`ServiceError::QuotaExceeded`] — quota is
//!   released when a tenant finishes.
//! * **Durability.** With a checkpoint root, every tenant checkpoints
//!   into its own directory, `<root>/runs/<run_id>/`
//!   ([`store::Snapshotter::for_run`]: fingerprint-stamped envelopes,
//!   keep-last-K GC). The directories are the only on-disk state; there
//!   is no index. Killing the service and resubmitting the same run ids
//!   resumes every in-flight tenant from its newest snapshot,
//!   byte-identically.
//!
//! ## Determinism contract
//!
//! A tenant's final report is byte-identical
//! ([`RunReport::deterministic_json`](corleone::RunReport::deterministic_json))
//! to the same task run solo through `RunSession`, at any thread count
//! and any interleaving: each tenant owns its platform, RNG, and
//! [`RunState`](corleone::RunState); the only shared mutable state is
//! the analysis registry, whose values are content-addressed and
//! therefore value-identical to a solo build.
//!
//! ```no_run
//! # use service::{MatchService, ServiceConfig, TenantSpec};
//! # use corleone::{CorleoneConfig, MatchTask};
//! # use crowd::{CrowdConfig, CrowdPlatform, GoldOracle, WorkerPool};
//! # fn get_task() -> (MatchTask, GoldOracle) { unimplemented!() }
//! let (task, oracle) = get_task();
//! let mut svc = MatchService::new(ServiceConfig::default()).unwrap();
//! svc.submit(TenantSpec {
//!     run_id: "acme-vs-globex".into(),
//!     task,
//!     platform: CrowdPlatform::new(WorkerPool::perfect(5), CrowdConfig::default()),
//!     oracle: Box::new(oracle),
//!     gold: None,
//!     config: CorleoneConfig::default(),
//!     seed: 7,
//! }).unwrap();
//! svc.run_all();
//! for ev in svc.poll_events() {
//!     println!("{}", serde_json::to_string(&ev).unwrap());
//! }
//! let report = svc.take_report("acme-vs-globex").unwrap();
//! ```

mod error;
mod events;

pub use error::ServiceError;
pub use events::{ServiceEvent, ServicePerf, TenantPerf};

use corleone::engine::{CheckpointPlan, RunState, StepOutcome};
use corleone::snapshot::RunSnapshot;
use corleone::{CorleoneConfig, CorleoneError, Engine, MatchTask, RunReport};
use crowd::{CrowdPlatform, PairKey, TruthOracle};
use exec::Threads;
use similarity::TaskAnalysis;
use std::collections::{HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use store::{Snapshotter, StoreError};

/// Service-wide knobs. The defaults match a solo
/// [`RunSession`](corleone::RunSession)'s execution settings, which is
/// what keeps tenant bytes identical to solo runs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads for every tenant's parallel loops (`0` = the
    /// machine's available parallelism). Results are identical at every
    /// setting.
    pub threads: usize,
    /// Tenants driven concurrently; further admissions queue.
    pub max_active: usize,
    /// Waiting-queue capacity; beyond this, submissions are rejected
    /// with [`ServiceError::QueueFull`].
    pub max_queued: usize,
    /// Aggregate crowd-budget cap, in cents, across queued + active
    /// tenants' declared budgets. `None` disables budget admission
    /// control.
    pub aggregate_budget_cents: Option<f64>,
    /// Checkpoint root: each tenant's snapshots go to
    /// `<root>/runs/<run_id>/`, and a resubmitted run id resumes from the
    /// newest one there. `None` disables durability.
    pub checkpoint_root: Option<PathBuf>,
    /// Checkpoint every N completed iterations per tenant (snapshot 0 is
    /// always written when durability is on).
    pub checkpoint_every: usize,
    /// Keep-last-K snapshot retention per tenant (`0` keeps everything).
    pub checkpoint_keep: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            threads: 0,
            max_active: 4,
            max_queued: 64,
            aggregate_budget_cents: None,
            checkpoint_root: None,
            checkpoint_every: 1,
            checkpoint_keep: store::DEFAULT_KEEP_LAST,
        }
    }
}

/// One tenant's submission: the task, its collaborators, and its run
/// configuration. The service takes ownership of everything — tenants
/// outlive the submitting call.
pub struct TenantSpec {
    /// Unique id; also the run's directory name under the checkpoint
    /// root (path-safe `[A-Za-z0-9._-]+`, not `.` or `..`).
    pub run_id: String,
    /// The matching task.
    pub task: MatchTask,
    /// The tenant's own crowd platform (its ledger meters the tenant's
    /// spend).
    pub platform: CrowdPlatform,
    /// The truth oracle the simulated crowd consults.
    pub oracle: Box<dyn TruthOracle>,
    /// Gold matches for experiment metrics; omit in production.
    pub gold: Option<HashSet<PairKey>>,
    /// The engine configuration, including the tenant's own
    /// `engine.budget_cents` quota.
    pub config: CorleoneConfig,
    /// RNG seed for the tenant's run.
    pub seed: u64,
}

/// A tenant somewhere between admission and completion.
struct Tenant {
    run_id: String,
    engine: Engine,
    task: MatchTask,
    platform: CrowdPlatform,
    oracle: Box<dyn TruthOracle>,
    gold: Option<HashSet<PairKey>>,
    seed: u64,
    budget_cents: Option<f64>,
    snapshotter: Option<Snapshotter>,
    resume: Option<Box<RunSnapshot>>,
    state: Option<RunState>,
}

/// The long-running multi-tenant matching service. See the [crate
/// docs](self) for the architecture.
pub struct MatchService {
    cfg: ServiceConfig,
    threads: Threads,
    queue: VecDeque<Tenant>,
    active: Vec<Tenant>,
    cursor: usize,
    /// Content-addressed analysis registry: fingerprint → built layer.
    /// A Vec, not a map — it is scanned (tiny) and never iterated for
    /// serialization, and insertion order is deterministic.
    analyses: Vec<(String, Arc<TaskAnalysis>)>,
    events: VecDeque<ServiceEvent>,
    reports: Vec<(String, RunReport)>,
    perf: ServicePerf,
}

impl MatchService {
    /// Open a service. With a `checkpoint_root`, `<root>/runs` is
    /// created if missing (so an unwritable root fails here, not at the
    /// first submission) and resubmitted run ids will resume from their
    /// newest snapshots.
    pub fn new(cfg: ServiceConfig) -> Result<Self, ServiceError> {
        let threads = if cfg.threads == 0 { Threads::auto() } else { Threads::new(cfg.threads) };
        if let Some(root) = &cfg.checkpoint_root {
            let runs = root.join("runs");
            std::fs::create_dir_all(&runs).map_err(|e| StoreError::Io {
                path: runs.display().to_string(),
                message: e.to_string(),
            })?;
        }
        Ok(MatchService {
            cfg,
            threads,
            queue: VecDeque::new(),
            active: Vec::new(),
            cursor: 0,
            analyses: Vec::new(),
            events: VecDeque::new(),
            reports: Vec::new(),
            perf: ServicePerf::default(),
        })
    }

    /// Submit a tenant. Passing admission control queues or activates it
    /// and emits [`ServiceEvent::Admitted`]; nothing expensive runs until
    /// the next [`Self::tick`].
    pub fn submit(&mut self, spec: TenantSpec) -> Result<(), ServiceError> {
        let TenantSpec { run_id, task, platform, oracle, gold, config, seed } = spec;
        if self.knows(&run_id) {
            return Err(ServiceError::DuplicateRunId(run_id));
        }
        let budget_cents = config.engine.budget_cents;
        if let Some(cap) = self.cfg.aggregate_budget_cents {
            let Some(b) = budget_cents else {
                return Err(ServiceError::UnboundedBudget { run_id });
            };
            let committed = self.committed_budget_cents();
            if committed + b > cap {
                return Err(ServiceError::QuotaExceeded {
                    run_id,
                    requested_cents: b,
                    available_cents: cap - committed,
                });
            }
        }
        let queued = self.active.len() >= self.cfg.max_active;
        if queued && self.queue.len() >= self.cfg.max_queued {
            return Err(ServiceError::QueueFull { run_id, capacity: self.cfg.max_queued });
        }

        let engine = Engine::new(config).with_seed(seed);
        // Durability: open the run's directory and pick up any prior
        // snapshot (the kill-and-restart path). The engine's run
        // fingerprint is stamped into every envelope and demanded on
        // resume, so a resubmission under a different config or feature
        // schema is a typed refusal here, not a silent divergence.
        let mut snapshotter = None;
        let mut resume: Option<Box<RunSnapshot>> = None;
        if let Some(root) = &self.cfg.checkpoint_root {
            let fingerprint = engine.run_fingerprint(&task)?;
            let sn = Snapshotter::for_run(root, &run_id)?
                .keep_last(self.cfg.checkpoint_keep)
                .with_fingerprint(fingerprint.clone());
            match sn.latest() {
                Ok(path) => {
                    resume =
                        Some(Box::new(store::read_snapshot_checked(&path, Some(&fingerprint))?));
                }
                Err(StoreError::NoSnapshots { .. }) => {}
                Err(e) => return Err(e.into()),
            }
            snapshotter = Some(sn);
        }

        let resuming = resume.is_some();
        let tenant = Tenant {
            run_id: run_id.clone(),
            engine,
            task,
            platform,
            oracle,
            gold,
            seed,
            budget_cents,
            snapshotter,
            resume,
            state: None,
        };
        if queued {
            self.queue.push_back(tenant);
        } else {
            self.active.push(tenant);
        }
        self.perf.tenants_admitted += 1;
        self.events.push_back(ServiceEvent::Admitted { run_id, queued, resuming });
        Ok(())
    }

    /// Run one scheduling quantum: the next active tenant (fair
    /// round-robin) advances by one unit — its start (analysis, blocker,
    /// snapshot 0) or one pipeline iteration. Returns `false` when the
    /// service is idle (no active or queued tenants).
    ///
    /// Tenant failures do not poison the service: they surface as
    /// [`ServiceEvent::Failed`] and the tenant is retired.
    pub fn tick(&mut self) -> bool {
        self.backfill();
        if self.active.is_empty() {
            return false;
        }
        self.perf.ticks += 1;
        if self.cursor >= self.active.len() {
            self.cursor = 0;
        }
        let idx = self.cursor;
        let retired = self.drive(idx);
        if retired {
            // The next tenant shifts into `idx`; leaving the cursor put
            // preserves rotation order.
            self.active.remove(idx);
        } else {
            self.cursor += 1;
        }
        true
    }

    /// Tick until every admitted tenant has terminated. Returns the
    /// number of quanta executed.
    pub fn run_all(&mut self) -> u64 {
        let mut n = 0;
        while self.tick() {
            n += 1;
        }
        n
    }

    /// Tick at most `n` times; returns `true` if the service went idle
    /// before exhausting them. The `corleone-serve` bin uses this to
    /// simulate a mid-flight kill.
    pub fn run_ticks(&mut self, n: u64) -> bool {
        for _ in 0..n {
            if !self.tick() {
                return true;
            }
        }
        !self.has_live_tenants()
    }

    /// Drain all pending progress events, in emission order.
    pub fn poll_events(&mut self) -> Vec<ServiceEvent> {
        self.events.drain(..).collect()
    }

    /// Remove and return a terminated tenant's final report.
    pub fn take_report(&mut self, run_id: &str) -> Result<RunReport, ServiceError> {
        match self.reports.iter().position(|(id, _)| id == run_id) {
            Some(i) => Ok(self.reports.remove(i).1),
            None => Err(ServiceError::UnknownTenant(run_id.to_string())),
        }
    }

    /// Run ids with a report ready, in completion order.
    pub fn finished(&self) -> Vec<&str> {
        self.reports.iter().map(|(id, _)| id.as_str()).collect()
    }

    /// Are any tenants still queued or active?
    pub fn has_live_tenants(&self) -> bool {
        !self.active.is_empty() || !self.queue.is_empty()
    }

    /// Currently active (started or about-to-start) tenant count.
    pub fn active_tenants(&self) -> usize {
        self.active.len()
    }

    /// Currently waiting tenant count.
    pub fn queued_tenants(&self) -> usize {
        self.queue.len()
    }

    /// The service-wide perf aggregation.
    pub fn service_perf(&self) -> &ServicePerf {
        &self.perf
    }

    /// Sum of declared budgets across queued + active tenants — the
    /// quantity admission control commits against.
    pub fn committed_budget_cents(&self) -> f64 {
        self.queue
            .iter()
            .chain(self.active.iter())
            .filter_map(|t| t.budget_cents)
            .sum()
    }

    fn knows(&self, run_id: &str) -> bool {
        self.queue.iter().any(|t| t.run_id == run_id)
            || self.active.iter().any(|t| t.run_id == run_id)
            || self.reports.iter().any(|(id, _)| id == run_id)
    }

    /// Promote queued tenants while the active set has room.
    fn backfill(&mut self) {
        while self.active.len() < self.cfg.max_active {
            match self.queue.pop_front() {
                Some(t) => self.active.push(t),
                None => break,
            }
        }
    }

    /// Advance `active[idx]` by one quantum. Returns `true` when the
    /// tenant is finished (report ready) or failed, i.e. should be
    /// retired from the active set.
    fn drive(&mut self, idx: usize) -> bool {
        let threads = self.threads;
        let every = self.cfg.checkpoint_every;
        let MatchService { active, events, analyses, reports, perf, .. } = self;
        let t = &mut active[idx];

        if t.state.is_none() {
            match start_tenant(t, threads, every, analyses, perf) {
                Ok(()) => {
                    if let Some(st) = &t.state {
                        if st.resumed_from_iteration().is_none() && st.snapshots_written() > 0 {
                            perf.snapshots_written += 1;
                            events.push_back(ServiceEvent::Checkpointed {
                                run_id: t.run_id.clone(),
                                iteration: 0,
                            });
                        }
                    }
                    false
                }
                Err(e) => {
                    perf.tenants_failed += 1;
                    events.push_back(ServiceEvent::Failed {
                        run_id: t.run_id.clone(),
                        message: e.to_string(),
                    });
                    true
                }
            }
        } else {
            match step_tenant(t, threads) {
                Ok(outcome) => {
                    if outcome.iterated {
                        if let Some(last) = t.state.as_ref().and_then(|s| s.iterations().last()) {
                            events.push_back(ServiceEvent::IterationCompleted {
                                run_id: t.run_id.clone(),
                                iteration: last.iteration as u64,
                                estimate: last.estimate.clone(),
                                spent_cents: t.platform.ledger().total_cents,
                            });
                        }
                    }
                    if outcome.checkpointed {
                        perf.snapshots_written += 1;
                        if let Some(st) = &t.state {
                            events.push_back(ServiceEvent::Checkpointed {
                                run_id: t.run_id.clone(),
                                iteration: st.completed_iterations() as u64,
                            });
                        }
                    }
                    if outcome.finished {
                        if let Some(st) = t.state.take() {
                            let report = t.engine.finish_run(
                                st,
                                &t.task,
                                &mut t.platform,
                                t.gold.as_ref(),
                                threads,
                                None,
                            );
                            record_completion(t, &report, events, perf);
                            reports.push((t.run_id.clone(), report));
                        }
                        true
                    } else {
                        false
                    }
                }
                Err(e) => {
                    perf.tenants_failed += 1;
                    events.push_back(ServiceEvent::Failed {
                        run_id: t.run_id.clone(),
                        message: e.to_string(),
                    });
                    true
                }
            }
        }
    }
}

/// First quantum of a tenant: adopt or build the shared analysis, then
/// run the blocker (or restore the resume snapshot) via
/// [`Engine::start_run`].
fn start_tenant(
    t: &mut Tenant,
    threads: Threads,
    every: usize,
    analyses: &mut Vec<(String, Arc<TaskAnalysis>)>,
    perf: &mut ServicePerf,
) -> Result<(), CorleoneError> {
    // Content-addressed sharing: if any prior tenant built the analysis
    // for identical tables + vectorizer, adopt it. The shared value is
    // bit-identical to what this tenant would build, so run bytes are
    // unaffected — only build time (and this counter) changes.
    let afp = t.task.analysis_fingerprint().map_err(CorleoneError::Serialization)?;
    let mut adopted = false;
    if let Some((_, a)) = analyses.iter().find(|(k, _)| *k == afp) {
        adopted = t.task.install_analysis(Arc::clone(a));
    }
    if adopted {
        perf.analysis_cache_hits += 1;
        if let Some(a) = t.task.shared_analysis() {
            perf.analysis_bytes_saved += a.stats.resident_bytes as u64;
        }
    } else {
        perf.analysis_cache_misses += 1;
    }

    if t.resume.is_some() {
        perf.tenants_resumed += 1;
    }
    let ckpt = CheckpointPlan {
        snapshotter: t.snapshotter.take(),
        every,
        resume: t.resume.take(),
    };
    let state = t.engine.start_run(
        &t.task,
        &mut t.platform,
        t.oracle.as_ref(),
        t.gold.as_ref(),
        threads,
        None,
        t.seed,
        ckpt,
    )?;
    if !adopted {
        if let Some(a) = t.task.shared_analysis() {
            perf.analysis_bytes_built += a.stats.resident_bytes as u64;
            analyses.push((afp, a));
        }
    }
    t.state = Some(state);
    Ok(())
}

/// One pipeline iteration of a started tenant.
fn step_tenant(t: &mut Tenant, threads: Threads) -> Result<StepOutcome, CorleoneError> {
    let Tenant { engine, task, platform, oracle, gold, state, .. } = t;
    match state.as_mut() {
        Some(st) => engine.step_run(
            st,
            task,
            platform,
            oracle.as_ref(),
            gold.as_ref(),
            threads,
            None,
        ),
        None => Ok(StepOutcome { iterated: false, checkpointed: false, finished: false }),
    }
}

/// Fold a finished tenant's report into the service perf view and emit
/// its termination event.
fn record_completion(
    t: &Tenant,
    report: &RunReport,
    events: &mut VecDeque<ServiceEvent>,
    perf: &mut ServicePerf,
) {
    perf.tenants_completed += 1;
    perf.total_cost_cents += report.total_cost_cents;
    perf.total_pairs_labeled += report.total_pairs_labeled;
    perf.tenants.push(TenantPerf {
        run_id: t.run_id.clone(),
        iterations: report.iterations.len() as u64,
        cost_cents: report.total_cost_cents,
        pairs_labeled: report.total_pairs_labeled,
        analysis_build_ms: report.perf.kernels.analysis_build_ms,
        analysis_bytes: report.perf.kernels.analysis_memory.resident_bytes,
        pairs_vectorized: report.perf.kernels.pairs_vectorized,
        snapshots_written: report.perf.snapshots_written,
        resumed_from_iteration: report.perf.resumed_from_iteration,
    });
    events.push_back(ServiceEvent::Terminated {
        run_id: t.run_id.clone(),
        termination: report.termination,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use corleone::task::task_from_parts;
    use crowd::{CrowdConfig, GoldOracle, WorkerPool};
    use similarity::{Attribute, Schema, Table, Value};

    fn toy() -> (MatchTask, GoldOracle) {
        let schema = Arc::new(Schema::new(vec![Attribute::text("name")]));
        let a_rows: Vec<Vec<Value>> = (0..25)
            .map(|i| vec![Value::Text(format!("acme part number {i}"))])
            .collect();
        let mut b_rows: Vec<Vec<Value>> = (0..25)
            .map(|i| vec![Value::Text(format!("acme part number {i}"))])
            .collect();
        b_rows.extend((0..8).map(|i| vec![Value::Text(format!("globex unit {i}"))]));
        let a = Table::new("a", schema.clone(), a_rows);
        let b = Table::new("b", schema, b_rows);
        let task = task_from_parts(a, b, "same part", [(0, 0), (1, 1)], [(0, 30), (2, 28)]);
        let gold = GoldOracle::from_pairs((0..25).map(|i| (i, i)));
        (task, gold)
    }

    fn spec(run_id: &str, budget_cents: Option<f64>, seed: u64) -> TenantSpec {
        let (task, gold) = toy();
        let matches = gold.matches().clone();
        let mut config = CorleoneConfig::small();
        config.engine.budget_cents = budget_cents;
        TenantSpec {
            run_id: run_id.to_string(),
            task,
            platform: CrowdPlatform::new(WorkerPool::perfect(5), CrowdConfig::default()),
            oracle: Box::new(gold),
            gold: Some(matches),
            config,
            seed,
        }
    }

    #[test]
    fn duplicate_run_id_is_rejected() {
        let mut svc = MatchService::new(ServiceConfig::default()).expect("no checkpoint root");
        svc.submit(spec("r", None, 1)).expect("first admission");
        match svc.submit(spec("r", None, 1)) {
            Err(ServiceError::DuplicateRunId(id)) => assert_eq!(id, "r"),
            other => panic!("expected DuplicateRunId, got {other:?}"),
        }
    }

    #[test]
    fn queue_overflow_is_a_typed_error() {
        let cfg = ServiceConfig { max_active: 1, max_queued: 1, ..Default::default() };
        let mut svc = MatchService::new(cfg).expect("no checkpoint root");
        svc.submit(spec("a", None, 1)).expect("activates");
        svc.submit(spec("b", None, 2)).expect("queues");
        assert_eq!((svc.active_tenants(), svc.queued_tenants()), (1, 1));
        match svc.submit(spec("c", None, 3)) {
            Err(ServiceError::QueueFull { run_id, capacity }) => {
                assert_eq!((run_id.as_str(), capacity), ("c", 1));
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
    }

    #[test]
    fn aggregate_budget_admission_control() {
        let cfg = ServiceConfig { aggregate_budget_cents: Some(1000.0), ..Default::default() };
        let mut svc = MatchService::new(cfg).expect("no checkpoint root");
        // Under a cap, every tenant must declare a budget.
        match svc.submit(spec("unbounded", None, 1)) {
            Err(ServiceError::UnboundedBudget { run_id }) => assert_eq!(run_id, "unbounded"),
            other => panic!("expected UnboundedBudget, got {other:?}"),
        }
        svc.submit(spec("a", Some(600.0), 1)).expect("fits the cap");
        match svc.submit(spec("b", Some(600.0), 2)) {
            Err(ServiceError::QuotaExceeded { run_id, requested_cents, available_cents }) => {
                assert_eq!(run_id, "b");
                assert_eq!(requested_cents, 600.0);
                assert_eq!(available_cents, 400.0);
            }
            other => panic!("expected QuotaExceeded, got {other:?}"),
        }
        // Completion releases the quota.
        svc.run_all();
        svc.submit(spec("b", Some(600.0), 2)).expect("quota released after completion");
    }

    #[test]
    fn events_stream_in_order_and_reports_are_claimable() {
        let mut svc = MatchService::new(ServiceConfig::default()).expect("no checkpoint root");
        svc.submit(spec("solo", None, 3)).expect("admitted");
        svc.run_all();
        let events = svc.poll_events();
        assert!(matches!(
            events.first(),
            Some(ServiceEvent::Admitted { queued: false, resuming: false, .. })
        ));
        assert!(matches!(events.last(), Some(ServiceEvent::Terminated { .. })));
        assert!(
            events.iter().any(|e| matches!(e, ServiceEvent::IterationCompleted { .. })),
            "interim estimates must stream"
        );
        assert!(events.iter().all(|e| e.run_id() == "solo"));
        assert!(svc.poll_events().is_empty(), "poll drains");
        let report = svc.take_report("solo").expect("finished");
        assert!(!report.iterations.is_empty());
        match svc.take_report("solo") {
            Err(ServiceError::UnknownTenant(id)) => assert_eq!(id, "solo"),
            other => panic!("expected UnknownTenant, got {other:?}"),
        }
    }

    #[test]
    fn identical_tables_share_one_analysis_build() {
        let mut svc = MatchService::new(ServiceConfig::default()).expect("no checkpoint root");
        svc.submit(spec("first", None, 7)).expect("admitted");
        svc.submit(spec("second", None, 7)).expect("admitted");
        svc.run_all();
        let perf = svc.service_perf();
        assert_eq!(perf.analysis_cache_misses, 1, "first tenant builds");
        assert_eq!(perf.analysis_cache_hits, 1, "second tenant adopts");
        // Sharing must be invisible to run bytes: same task + seed ⇒
        // identical reports whether the analysis was built or adopted.
        let a = svc.take_report("first").expect("finished");
        let b = svc.take_report("second").expect("finished");
        assert_eq!(a.deterministic_json(), b.deterministic_json());
    }

    #[test]
    fn interleaved_tenant_matches_solo_session_bytes() {
        let mut svc = MatchService::new(ServiceConfig::default()).expect("no checkpoint root");
        // Two competing tenants so "svc"'s quanta genuinely interleave.
        svc.submit(spec("svc", None, 11)).expect("admitted");
        svc.submit(spec("other", None, 12)).expect("admitted");
        svc.run_all();
        let service_report = svc.take_report("svc").expect("finished");

        let (task, gold) = toy();
        let mut platform = CrowdPlatform::new(WorkerPool::perfect(5), CrowdConfig::default());
        let solo_report = Engine::new(CorleoneConfig::small())
            .with_seed(11)
            .session(&task)
            .platform(&mut platform)
            .oracle(&gold)
            .gold(gold.matches())
            .run();
        assert_eq!(service_report.deterministic_json(), solo_report.deterministic_json());
    }
}
