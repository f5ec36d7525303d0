#![forbid(unsafe_code)]
//! # corleone — hands-off crowdsourced entity matching
//!
//! A from-scratch Rust implementation of **Corleone** (Gokhale et al.,
//! SIGMOD 2014): the first *hands-off crowdsourcing* (HOC) system for
//! entity matching. Given two tables, a one-paragraph matching
//! instruction, and four seed examples, Corleone executes the entire EM
//! workflow with a paid, noisy crowd and **no developer in the loop**:
//!
//! * [`blocker`] (§4) — learns machine-readable blocking rules from the
//!   crowd by extracting negative rules from a random forest trained with
//!   crowdsourced active learning on a sample of `A × B`, evaluates their
//!   precision with the crowd, and applies the best subset in parallel.
//! * [`learner`] (§5) — the crowdsourced active-learning matcher, with the
//!   vote-entropy batch selection and the three confidence-based stopping
//!   patterns of [`stopping`].
//! * [`estimator`] (§6) — estimates precision/recall to a target margin
//!   with a probe–eval–reduce loop that uses crowd-validated *reduction
//!   rules* to densify the skewed positive class.
//! * [`locator`] (§7) — finds difficult-to-match pairs by removing
//!   everything covered by crowd-validated precise positive/negative
//!   rules, so the next iteration can train a dedicated matcher.
//! * [`engine`] (§3) — orchestrates iterations until the estimated
//!   accuracy stops improving, routing each pair to the matcher trained
//!   on its region.
//!
//! Every hot loop — vectorization, rule application over `A × B`, forest
//! training and prediction, entropy scans — runs on the shared [`exec`]
//! work-stealing core. Features are computed through a record-analysis
//! layer built once per task, and the candidate set's dense matrix holds
//! the run's only copy of the feature vectors.
//!
//! ## Quick start
//!
//! ```no_run
//! use corleone::prelude::*;
//!
//! # fn get_task() -> (MatchTask, GoldOracle) { unimplemented!() }
//! let (task, oracle) = get_task(); // tables + instruction + 4 seeds
//! let workers = WorkerPool::uniform(50, 0.05);       // simulated crowd
//! let mut platform = CrowdPlatform::new(workers, CrowdConfig::default());
//! let report = Engine::new(CorleoneConfig::default())
//!     .session(&task)
//!     .platform(&mut platform)
//!     .oracle(&oracle)
//!     .threads(8)
//!     .run();
//! println!("estimated F1: {:?}", report.final_estimate);
//! println!("pairs vectorized: {}", report.perf.kernels.pairs_vectorized);
//! ```
//!
//! ## Naming convention
//!
//! Phase results come in two shapes, named consistently:
//!
//! * `*Outcome` — in-memory result of a phase, carrying live objects the
//!   next phase consumes (candidate sets, forests, index lists). Not
//!   serializable. [`BlockerOutcome`], [`LearnOutcome`],
//!   [`LocatorOutcome`].
//! * `*Report` — the serializable record of what a phase did, embedded in
//!   the run's [`RunReport`]. [`BlockerReport`], [`LocatorReport`],
//!   [`IterationReport`], [`PerfReport`].

pub mod blocker;
pub mod budget;
pub mod cache;
pub mod candidates;
pub mod cleaner;
pub mod config;
pub mod engine;
pub mod env;
pub mod error;
pub mod estimator;
pub mod join;
pub mod learner;
pub mod lines;
pub mod locator;
pub mod metrics;
pub mod report;
pub mod ruleeval;
pub mod session;
pub mod snapshot;
pub mod source;
pub mod stopping;
pub mod task;

pub use blocker::{run_blocker, BlockerOutcome, BlockerReport};
pub use budget::{BudgetPlan, BudgetSplit};
pub use cache::{CacheStats, FeatureCache};
pub use cleaner::{clean_forest, CleanedForest, CleanerConfig, CleaningReport};
pub use candidates::CandidateSet;
pub use config::{
    BlockerConfig, CorleoneConfig, EngineConfig, EstimatorConfig, LocatorConfig, MatcherConfig,
    StoppingConfig,
};
pub use engine::{
    CheckpointPlan, Engine, IterationReport, PerfReport, PhaseTiming, RunReport, RunState,
    StepOutcome, Termination,
};
pub use env::{RunEnv, Threads};
pub use error::CorleoneError;
pub use estimator::{estimate_accuracy, AccuracyEstimate};
pub use join::{hands_off_join, JoinResult, JoinedRow};
pub use learner::{run_active_learning, LearnOutcome, StopReason};
pub use locator::{locate_difficult_pairs, LocatorOutcome, LocatorReport};
pub use metrics::{evaluate, Prf};
pub use session::RunSession;
pub use snapshot::RunSnapshot;
pub use source::{
    plan_blocking_source, CandidateSource, CartesianScan, IndexedJoin, PlannedSource,
};
pub use task::MatchTask;

/// Everything needed to configure and launch a hands-off matching run.
///
/// ```
/// use corleone::prelude::*;
/// ```
pub mod prelude {
    pub use crate::cache::{CacheStats, FeatureCache};
    pub use crate::config::CorleoneConfig;
    pub use crate::engine::{Engine, RunReport, Termination};
    pub use crate::env::{RunEnv, Threads};
    pub use crate::error::CorleoneError;
    pub use crate::session::RunSession;
    pub use crate::source::{
        plan_blocking_source, CandidateSource, CartesianScan, IndexedJoin, PlannedSource,
    };
    pub use crate::task::{task_from_parts, MatchTask};
    pub use crowd::{
        CrowdConfig, CrowdPlatform, GoldOracle, PairKey, TruthOracle, WorkerPool,
    };
}
