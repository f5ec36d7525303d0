//! The session-based run API.
//!
//! A [`RunSession`] is a builder for one engine run — the sole entry
//! point since the deprecated `Engine::run` shim was removed. It
//! separates two kinds of settings the old positional signature
//! conflated with the algorithmic configuration:
//!
//! * **collaborators** — the crowd platform, the truth oracle, and an
//!   optional gold standard for experiment metrics;
//! * **execution settings** — worker threads and the RNG seed. They are
//!   per-run choices, not algorithm settings (the thread count never
//!   changes what a run computes), so they live on the session rather
//!   than on [`CorleoneConfig`](crate::config::CorleoneConfig).
//!
//! A session run owns no feature cache: the candidate set's matrix is
//! its one copy of the feature vectors, and snapshots carry pair keys
//! only.
//!
//! ```no_run
//! # use corleone::{Engine, CorleoneConfig, MatchTask};
//! # use crowd::{CrowdConfig, CrowdPlatform, GoldOracle, WorkerPool};
//! # fn get_task() -> (MatchTask, GoldOracle) { unimplemented!() }
//! let (task, oracle) = get_task();
//! let mut platform = CrowdPlatform::new(WorkerPool::perfect(5), CrowdConfig::default());
//! let report = Engine::new(CorleoneConfig::default())
//!     .session(&task)
//!     .platform(&mut platform)
//!     .oracle(&oracle)
//!     .threads(8)
//!     .run();
//! ```

use crate::engine::{CheckpointPlan, Engine, RunReport};
use crate::error::CorleoneError;
use crate::snapshot::RunSnapshot;
use crate::task::MatchTask;
use crowd::{CrowdPlatform, PairKey, TruthOracle};
use exec::Threads;
use std::collections::HashSet;
use std::path::PathBuf;
use store::Snapshotter;

impl Engine {
    /// Start configuring a run of this engine over `task`.
    ///
    /// The returned builder needs [`RunSession::platform`] and
    /// [`RunSession::oracle`] before [`RunSession::run`]; everything else
    /// has defaults (auto threads, the engine's seed).
    pub fn session<'s>(&'s self, task: &'s MatchTask) -> RunSession<'s> {
        RunSession {
            engine: self,
            task,
            platform: None,
            oracle: None,
            gold: None,
            threads: Threads::auto(),
            seed: None,
            checkpoint_dir: None,
            checkpoint_every: 1,
            checkpoint_keep: store::DEFAULT_KEEP_LAST,
            resume_from: None,
        }
    }
}

/// Builder for one engine run; see the [module docs](self).
pub struct RunSession<'s> {
    engine: &'s Engine,
    task: &'s MatchTask,
    platform: Option<&'s mut CrowdPlatform>,
    oracle: Option<&'s dyn TruthOracle>,
    gold: Option<&'s HashSet<PairKey>>,
    threads: Threads,
    seed: Option<u64>,
    checkpoint_dir: Option<PathBuf>,
    checkpoint_every: usize,
    checkpoint_keep: usize,
    resume_from: Option<PathBuf>,
}

impl<'s> RunSession<'s> {
    /// The crowd platform to label pairs with (required).
    pub fn platform(mut self, platform: &'s mut CrowdPlatform) -> Self {
        self.platform = Some(platform);
        self
    }

    /// The truth oracle the simulated crowd consults (required).
    pub fn oracle(mut self, oracle: &'s dyn TruthOracle) -> Self {
        self.oracle = Some(oracle);
        self
    }

    /// Gold matches, used only to fill the `true_*` report fields for
    /// experiments. Omit in production.
    pub fn gold(mut self, gold: &'s HashSet<PairKey>) -> Self {
        self.gold = Some(gold);
        self
    }

    /// Worker-thread budget for every parallel loop in the run.
    /// Defaults to the machine's available parallelism; results are
    /// identical at every thread count.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Threads::new(n);
        self
    }

    /// Override the engine's RNG seed for this run only.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Write crash-safe run snapshots into `dir` at iteration boundaries
    /// (created if missing). Snapshots are versioned, checksummed, written
    /// atomically, and pruned to the [`Self::checkpoint_keep`] newest.
    /// See [`RunSnapshot`](crate::snapshot::RunSnapshot) for what is
    /// captured.
    pub fn checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Snapshot every `n` completed iterations (default 1 — every
    /// boundary). The post-blocking snapshot 0 is always written. `0`
    /// writes only snapshot 0.
    pub fn checkpoint_every(mut self, n: usize) -> Self {
        self.checkpoint_every = n;
        self
    }

    /// Retain only the newest `k` snapshots (default
    /// [`store::DEFAULT_KEEP_LAST`]); `0` keeps everything.
    pub fn checkpoint_keep(mut self, k: usize) -> Self {
        self.checkpoint_keep = k;
        self
    }

    /// Continue a previous run from the snapshot at `path` instead of
    /// starting from scratch.
    ///
    /// The session's platform is overwritten with the snapshot's platform
    /// state, the engine RNG continues from its recorded stream position,
    /// the candidate feature matrix is recomputed from the stored pair
    /// keys, and the run proceeds from the iteration after the snapshot.
    /// With the same engine configuration and task, the final report is
    /// byte-identical
    /// (`deterministic_json`) to the uninterrupted run's at any thread
    /// count. Raising the engine budget before resuming lets a
    /// `BudgetExhausted` run continue and converge.
    ///
    /// Failures — missing file, corrupted checksum, schema-version
    /// mismatch, or a snapshot from a different task — surface as
    /// [`CorleoneError::Store`].
    pub fn resume_from(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume_from = Some(path.into());
        self
    }

    /// Execute the run, panicking on any failure.
    ///
    /// This is a thin wrapper over [`Self::try_run`] for callers that
    /// treat every run failure — a misconfigured session, an empty
    /// candidate set, a crowd that could not finish labeling — as a bug.
    /// Production callers should prefer `try_run`.
    ///
    /// # Panics
    /// Panics if [`RunSession::platform`] or [`RunSession::oracle`] was
    /// not provided, or if the run fails (see [`CorleoneError`]).
    pub fn run(self) -> RunReport {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Execute the run, surfacing failures as [`CorleoneError`] instead
    /// of panicking. Note that a run on a faulty platform that *finishes*
    /// with labels missing is not an `Err` — it returns `Ok` with
    /// [`RunReport::termination`](crate::engine::RunReport) set to
    /// [`Termination::Degraded`](crate::engine::Termination::Degraded).
    pub fn try_run(self) -> Result<RunReport, CorleoneError> {
        let platform = self.platform.ok_or(CorleoneError::MissingPlatform)?;
        let oracle = self.oracle.ok_or(CorleoneError::MissingOracle)?;
        // Fingerprint of the run configuration + feature schema + records
        // + platform: stamped into every snapshot this run writes, and
        // demanded of every snapshot it resumes — a resume under a
        // different engine config or task refuses with a typed
        // `StoreError::FingerprintMismatch` instead of silently
        // diverging from the interrupted run. A run that neither writes
        // nor reads a snapshot does not compute it.
        let fingerprint = if self.checkpoint_dir.is_some() || self.resume_from.is_some() {
            self.engine.run_fingerprint(self.task)?
        } else {
            String::new()
        };
        let resume: Option<Box<RunSnapshot>> = match &self.resume_from {
            Some(path) => {
                Some(Box::new(store::read_snapshot_checked(path, Some(&fingerprint))?))
            }
            None => None,
        };
        let snapshotter = match &self.checkpoint_dir {
            Some(dir) => Some(
                Snapshotter::create(dir.clone())?
                    .keep_last(self.checkpoint_keep)
                    .with_fingerprint(fingerprint),
            ),
            None => None,
        };
        self.engine.try_run_inner(
            self.task,
            platform,
            oracle,
            self.gold,
            self.threads,
            self.seed.unwrap_or(self.engine.seed),
            CheckpointPlan { snapshotter, every: self.checkpoint_every, resume },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CorleoneConfig;
    use crate::task::task_from_parts;
    use crowd::{CrowdConfig, GoldOracle, WorkerPool};
    use similarity::{Attribute, Schema, Table, Value};
    use std::sync::Arc;

    fn toy() -> (MatchTask, GoldOracle) {
        let schema = Arc::new(Schema::new(vec![Attribute::text("name")]));
        let rows: Vec<Vec<Value>> = (0..20)
            .map(|i| vec![Value::Text(format!("session test row {i}"))])
            .collect();
        let a = Table::new("a", schema.clone(), rows.clone());
        let b = Table::new("b", schema, rows);
        let task = task_from_parts(a, b, "same?", [(0, 0), (1, 1)], [(0, 19), (2, 17)]);
        let gold = GoldOracle::from_pairs((0..20).map(|i| (i, i)));
        (task, gold)
    }

    #[test]
    #[should_panic(expected = "without a platform")]
    fn run_without_platform_panics() {
        let (task, _) = toy();
        let engine = Engine::new(CorleoneConfig::small());
        engine.session(&task).run();
    }

    #[test]
    #[should_panic(expected = "without an oracle")]
    fn run_without_oracle_panics() {
        let (task, _) = toy();
        let engine = Engine::new(CorleoneConfig::small());
        let mut platform = CrowdPlatform::new(WorkerPool::perfect(3), CrowdConfig::default());
        engine.session(&task).platform(&mut platform).run();
    }

    #[test]
    fn try_run_returns_typed_errors_for_missing_collaborators() {
        let (task, gold) = toy();
        let engine = Engine::new(CorleoneConfig::small());
        assert_eq!(
            engine.session(&task).try_run().unwrap_err(),
            CorleoneError::MissingPlatform
        );
        let mut platform = CrowdPlatform::new(WorkerPool::perfect(3), CrowdConfig::default());
        assert_eq!(
            engine.session(&task).platform(&mut platform).try_run().unwrap_err(),
            CorleoneError::MissingOracle
        );
        let _ = gold;
    }

    #[test]
    fn try_run_matches_run_on_success() {
        let (task, gold) = toy();
        let engine = Engine::new(CorleoneConfig::small()).with_seed(9);
        let mut p1 = CrowdPlatform::new(WorkerPool::perfect(3), CrowdConfig::default());
        let via_try = engine
            .session(&task)
            .platform(&mut p1)
            .oracle(&gold)
            .try_run()
            .expect("clean run succeeds");
        let mut p2 = CrowdPlatform::new(WorkerPool::perfect(3), CrowdConfig::default());
        let via_run = engine.session(&task).platform(&mut p2).oracle(&gold).run();
        assert_eq!(via_try.deterministic_json(), via_run.deterministic_json());
    }

    #[test]
    fn session_seed_overrides_engine_seed() {
        let (task, gold) = toy();
        let engine = Engine::new(CorleoneConfig::small()).with_seed(1);
        let run_with = |seed: Option<u64>| {
            let mut platform =
                CrowdPlatform::new(WorkerPool::perfect(3), CrowdConfig::default());
            let mut s = engine.session(&task).platform(&mut platform).oracle(&gold);
            if let Some(v) = seed {
                s = s.seed(v);
            }
            s.run()
        };
        let default_seed = run_with(None);
        let same_engine_seed = run_with(Some(1));
        assert_eq!(
            default_seed.deterministic_json(),
            same_engine_seed.deterministic_json()
        );
    }
}
