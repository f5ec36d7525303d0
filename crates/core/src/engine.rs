//! The Corleone engine (paper §3, Fig. 1): Blocker → (Matcher → Accuracy
//! Estimator → Difficult Pairs' Locator)* until the estimated accuracy
//! stops improving.
//!
//! Iteration `i` trains matcher `Mᵢ` on its region (the whole candidate
//! set for `i = 0`, the difficult pairs located at the end of iteration
//! `i−1` otherwise). Final predictions route each pair to the most recent
//! matcher whose region contains it (§7 step 3). The default stopping
//! policy is the paper's — stop when estimated accuracy no longer improves
//! — with an optional monetary budget ("run until a budget has been
//! exhausted", §3).

// lint:allow-module(D3): perf-timing module — Instant::now feeds only RunReport.perf phase timings, which deterministic_json leaves out; no timing value reaches report bytes or control flow
use crate::blocker::{run_blocker, BlockerReport};
use crate::budget::BudgetPlan;
use crate::cache::{CacheStats, FeatureCache};
use crate::candidates::CandidateSet;
use crate::config::CorleoneConfig;
use crate::env::RunEnv;
use crate::error::CorleoneError;
use crate::estimator::{estimate_accuracy, AccuracyEstimate};
use crate::learner::{run_active_learning, StopReason};
use crate::locator::{locate_difficult_pairs, LocatorReport};
use crate::metrics::{blocking_recall, evaluate, Prf};
use crate::ruleeval::{label_pool, RuleEvalConfig};
use crate::snapshot::RunSnapshot;
use crate::task::{KernelCounters, MatchTask};
use crowd::{CrowdPlatform, FaultStats, Ledger, PairKey, TruthOracle};
use exec::Threads;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::time::Instant;
use store::{Snapshotter, StoreError};

/// Per-iteration record (paper Table 4 rows).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IterationReport {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Size of the region this iteration's matcher was trained on.
    pub region_size: usize,
    /// Active-learning iterations of the matcher.
    pub matcher_al_iterations: usize,
    /// Why the matcher stopped.
    pub matcher_stop: String,
    /// Pairs labeled by the crowd while training the matcher.
    pub matcher_pairs_labeled: u64,
    /// Crowd spend while training the matcher, in cents.
    pub matcher_cost_cents: f64,
    /// Raw per-iteration confidence series (for Fig. 3-style plots).
    pub conf_history: Vec<f64>,
    /// The matcher's five most important features (name, normalized
    /// split importance) — what the learned model actually looks at.
    pub top_features: Vec<(String, f64)>,
    /// The estimator's output for the combined predictions.
    pub estimate: AccuracyEstimate,
    /// True accuracy of the combined predictions, when a gold standard
    /// was supplied (experiments only).
    pub true_prf: Option<Prf>,
    /// The locator's report (absent when the iteration cap or budget
    /// stopped the run first).
    pub locator: Option<LocatorReport>,
}

/// Wall-clock spent in one pipeline phase, summed over the iterations
/// this process ran. Snapshots carry no wall-clock, so a resumed run
/// starts every phase at 0 and bills the candidate-matrix rebuild as its
/// blocker time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseTiming {
    /// Phase name: `blocker`, `matcher`, `estimator`, or `locator`.
    pub phase: String,
    /// Total wall-clock milliseconds spent in the phase.
    pub millis: f64,
}

/// Execution telemetry for one run: thread budget, feature-cache
/// counters, and per-phase wall-clock.
///
/// Everything here depends on the machine and scheduling, never on the
/// matching outcome — [`RunReport::deterministic_json`] leaves this block
/// out so the rest of the report can be compared byte-for-byte across
/// runs, and a telemetry field can come or go without moving those bytes.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PerfReport {
    /// Worker threads the run was given.
    pub threads: usize,
    /// Hit/miss/occupancy counters of the feature cache a stepping-API
    /// caller passed in; all zero for session and service runs, which
    /// carry no cache.
    pub cache: CacheStats,
    /// Per-phase wall-clock, in pipeline order. A resumed run covers only
    /// its own process: blocker is the candidate-matrix rebuild, and the
    /// other phases start at 0.
    pub phases: Vec<PhaseTiming>,
    /// Injected crowd faults and the recovery work they caused during
    /// this run (all zero on a fault-free platform). Unlike the rest of
    /// this block these counters are seed-deterministic at any thread
    /// count; they live here because they describe execution, not the
    /// matching outcome.
    pub faults: FaultStats,
    /// Checkpoint snapshots written, cumulative across a resume chain
    /// (0 when checkpointing is off). Lives in `perf` — not the report
    /// body — so a resumed run stays byte-identical to an uninterrupted
    /// one under [`RunReport::deterministic_json`].
    pub snapshots_written: u64,
    /// The completed-iteration count of the snapshot this run resumed
    /// from (`Some(0)` = resumed right after blocking), or `None` for a
    /// run started from scratch.
    pub resumed_from_iteration: Option<usize>,
    /// Record-analysis build time and feature-kernel counters.
    pub kernels: KernelPerf,
}

/// Telemetry for the precomputed record-analysis layer and the similarity
/// kernels it feeds (see `similarity::analysis`).
///
/// Every feature value is computed through the precomputed kernels;
/// `MatchTask` builds the analysis on first use.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KernelPerf {
    /// Wall-clock to build the task's record-analysis layer, in
    /// milliseconds (0 when another run of the same task already built it).
    pub analysis_build_ms: f64,
    /// Pairs fully vectorized during this run.
    pub pairs_vectorized: u64,
    /// Single-feature evaluations (the blocker's lazy rule path).
    pub single_features: u64,
    /// Memory telemetry of the arena-packed analysis layer.
    pub analysis_memory: AnalysisMemory,
}

/// Resident-byte telemetry of the arena-packed analysis layer (see
/// `similarity::analysis`): one field per slab segment, the dense header
/// array, and their total.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AnalysisMemory {
    /// `u32` id slabs (token/gram/soundex/char-id/offset runs).
    pub id_bytes: u64,
    /// `f64` TF/IDF weight slabs.
    pub weight_bytes: u64,
    /// `i16` narrowed-char slabs.
    pub narrow_bytes: u64,
    /// `char` prefix slabs.
    pub char_bytes: u64,
    /// Collapsed-string slabs.
    pub text_bytes: u64,
    /// Dense row-major header arrays.
    pub header_bytes: u64,
    /// Total resident bytes (sum of the six above).
    pub resident_bytes: u64,
}

impl AnalysisMemory {
    /// Snapshot the byte fields of a built analysis' stats.
    pub fn from_stats(s: &similarity::AnalysisStats) -> AnalysisMemory {
        AnalysisMemory {
            id_bytes: s.id_bytes as u64,
            weight_bytes: s.weight_bytes as u64,
            narrow_bytes: s.narrow_bytes as u64,
            char_bytes: s.char_bytes as u64,
            text_bytes: s.text_bytes as u64,
            header_bytes: s.header_bytes as u64,
            resident_bytes: s.resident_bytes as u64,
        }
    }
}

/// Why a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Termination {
    /// The paper's stopping rule fired: estimated accuracy stopped
    /// improving (or no difficult region remained to iterate on).
    Converged,
    /// The configured iteration cap stopped the run first.
    MaxIterations,
    /// The monetary budget ran out before the stopping rule fired.
    BudgetExhausted,
    /// The run completed, but injected crowd faults exhausted at least
    /// one HIT's retry budget — some requested labels were never
    /// obtained, so the result may be weaker than the estimate suggests.
    /// Inspect `perf.faults` for the damage.
    Degraded,
}

/// Full run record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// What the Blocker did (paper Table 3 row).
    pub blocker: BlockerReport,
    /// Blocking recall vs. gold, when supplied.
    pub blocking_recall: Option<f64>,
    /// Per-iteration records.
    pub iterations: Vec<IterationReport>,
    /// The estimate accompanying the returned matching result.
    pub final_estimate: Option<AccuracyEstimate>,
    /// True accuracy of the returned result, when gold was supplied.
    pub final_true: Option<Prf>,
    /// The predicted matching pairs returned to the user.
    pub predicted_matches: Vec<PairKey>,
    /// Total crowd spend in cents.
    pub total_cost_cents: f64,
    /// Total distinct pairs labeled by the crowd.
    pub total_pairs_labeled: u64,
    /// Why the run ended (see [`Termination`]).
    pub termination: Termination,
    /// Execution telemetry (threads, cache counters, phase wall-clock,
    /// fault counters).
    pub perf: PerfReport,
}

impl RunReport {
    /// Total crowd spend in dollars.
    pub fn total_cost_dollars(&self) -> f64 {
        self.total_cost_cents / 100.0
    }

    /// JSON without the machine-dependent [`PerfReport`]: the report's
    /// other members, in declaration order.
    ///
    /// Two same-seed runs produce byte-identical output from this method
    /// regardless of thread count or cache configuration; plain
    /// `serde_json::to_string` output differs in the `perf` block.
    ///
    /// # Panics
    /// Panics if the report fails to serialize; use
    /// [`Self::try_deterministic_json`] to handle that as an error.
    pub fn deterministic_json(&self) -> String {
        self.try_deterministic_json().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Self::deterministic_json`].
    pub fn try_deterministic_json(&self) -> Result<String, CorleoneError> {
        let mut value = self.to_json_value();
        if let serde::Value::Obj(members) = &mut value {
            members.retain(|(name, _)| name != "perf");
        }
        serde_json::to_string(&value).map_err(|e| CorleoneError::Serialization(e.to_string()))
    }
}

/// The hands-off EM engine.
#[derive(Debug, Clone)]
pub struct Engine {
    pub(crate) cfg: CorleoneConfig,
    pub(crate) seed: u64,
}

impl Engine {
    /// Create an engine with the given configuration.
    pub fn new(cfg: CorleoneConfig) -> Self {
        Engine { cfg, seed: 0x5EED }
    }

    /// Override the engine's RNG seed (sampling, bagging, batch draws).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Fingerprint of everything a checkpoint needs held fixed to resume
    /// safely: the engine configuration, the task's feature schema, its
    /// records and seed pairs (a snapshot's labels belong to its pairs),
    /// and the platform architecture. Two knobs are deliberately excluded:
    /// the RNG seed (a resume continues the snapshot's recorded stream
    /// position, so the seed cannot diverge a resumed run) and the
    /// monetary budget (topping up the budget to continue a
    /// `BudgetExhausted` run is a supported operation).
    ///
    /// Stamped into snapshot envelopes by
    /// [`RunSession`](crate::session::RunSession) and the service layer;
    /// a resume under a different fingerprint refuses with
    /// [`StoreError::FingerprintMismatch`] instead of silently diverging.
    pub fn run_fingerprint(&self, task: &MatchTask) -> Result<String, CorleoneError> {
        let mut cfg = self.cfg;
        cfg.engine.budget_cents = None;
        cfg.engine.budget_split = None;
        let cfg_json = serde_json::to_string(&cfg)
            .map_err(|e| CorleoneError::Serialization(e.to_string()))?;
        let material = format!(
            "{cfg_json}\0{}\0{}\0",
            task.feature_names().join(","),
            std::env::consts::ARCH
        );
        let mut h = store::Fnv64::default();
        h.write(material.as_bytes());
        task.digest_records(&mut h);
        Ok(h.hex())
    }

    /// Execute one full run. All session knobs arrive resolved: the
    /// thread budget, the RNG seed, and the checkpoint/resume plan. The
    /// run carries no feature cache.
    ///
    /// Composed from the stepping API so a driver that interleaves many
    /// runs ([`MatchService`-style](crate::engine::RunState)) exercises
    /// exactly the code path a solo run does.
    #[allow(clippy::too_many_arguments)] // internal; callers go through RunSession
    pub(crate) fn try_run_inner(
        &self,
        task: &MatchTask,
        platform: &mut CrowdPlatform,
        oracle: &dyn TruthOracle,
        gold: Option<&HashSet<PairKey>>,
        threads: Threads,
        seed: u64,
        ckpt: CheckpointPlan,
    ) -> Result<RunReport, CorleoneError> {
        let mut state = self.start_run(task, platform, oracle, gold, threads, None, seed, ckpt)?;
        while !state.is_done() {
            self.step_run(&mut state, task, platform, oracle, gold, threads, None)?;
        }
        Ok(self.finish_run(state, task, platform, gold, threads, None))
    }

    /// Stepping API, part 1 of 3: run everything up to the first
    /// iteration boundary — the record-analysis build, the Blocker (or a
    /// snapshot restore), candidate vectorization, and snapshot 0 — and
    /// return the loop state.
    ///
    /// Drive the returned [`RunState`] with [`Self::step_run`] until it
    /// reports done, then assemble the report with [`Self::finish_run`].
    /// The collaborators (`task`, `platform`, `oracle`, `gold`) and the
    /// execution knobs (`threads`, `cache`) must be the same objects on
    /// every call for one run; `RunState` holds no borrows so a scheduler
    /// can interleave many runs' states over one thread pool.
    #[allow(clippy::too_many_arguments)]
    pub fn start_run(
        &self,
        task: &MatchTask,
        platform: &mut CrowdPlatform,
        oracle: &dyn TruthOracle,
        gold: Option<&HashSet<PairKey>>,
        threads: Threads,
        cache: Option<&FeatureCache>,
        seed: u64,
        ckpt: CheckpointPlan,
    ) -> Result<RunState, CorleoneError> {
        let CheckpointPlan { snapshotter, every, resume } = ckpt;
        let env = RunEnv { threads, cache };
        let resumed_from_iteration = resume.as_ref().map(|s| s.completed_iterations);

        // Build the record-analysis layer up front (a no-op when a prior
        // run of the same task already built it) so every downstream
        // phase — blocking, candidate vectorization, estimator rule
        // evaluation — runs through the precomputed kernels.
        let kernels_start = task.kernel_counters();
        let t0 = Instant::now();
        let analysis_prebuilt = task.analysis.get().is_some();
        task.ensure_analysis(threads);
        let analysis_build_ms = if analysis_prebuilt {
            0.0
        } else {
            t0.elapsed().as_secs_f64() * 1000.0
        };

        // Per-phase cumulative caps when a budget split is configured
        // (§10 budget-allocation extension).
        let plan = match (self.cfg.engine.budget_cents, self.cfg.engine.budget_split) {
            (Some(b), Some(split)) => {
                Some(split.try_plan(b).map_err(CorleoneError::InvalidBudgetSplit)?)
            }
            _ => None,
        };

        // ---- Establish the loop state: run the Blocker (§4), or restore
        // everything a completed snapshot captured and skip straight to
        // the iteration after it.
        let mut rng;
        let ledger_start;
        let fault_start;
        let t_blocker;
        let cand: CandidateSet;
        let blocker_report;
        let predictions: Vec<bool>;
        let known_labels: Vec<Option<bool>>;
        let region: Vec<usize>;
        let iterations: Vec<IterationReport>;
        let best: Option<(AccuracyEstimate, Vec<bool>)>;
        let start_iter;
        let seed_hex;
        let snapshots_written;

        match resume {
            Some(snap) => {
                let snap = *snap;
                check_snapshot(&snap, task)?;
                // The caller's platform is overwritten wholesale: ledger,
                // label cache, worker pool, fault counters, and both RNG
                // stream positions continue exactly where the snapshot
                // left them.
                *platform = CrowdPlatform::import_state(&snap.platform)?;
                rng = StdRng::from_state(store::decode_rng_state(&snap.rng_state)?);
                ledger_start = snap.ledger_start;
                fault_start = snap.fault_start;
                // Vectorization is pure, so rebuilding the feature matrix
                // from the stored pair keys reproduces it bit-for-bit.
                // Billed as blocker time: the rebuild stands in for
                // blocking on this path.
                let t0 = Instant::now();
                cand = CandidateSet::build_with(task, snap.cand_pairs, threads, cache);
                t_blocker = t0.elapsed().as_secs_f64() * 1000.0;
                blocker_report = snap.blocker_report;
                // The best estimate's predictions are the snapshot's
                // predictions (see `RunSnapshot::best`).
                best = snap.best.map(|e| (e, snap.predictions.clone()));
                predictions = snap.predictions;
                known_labels = label_pool(cand.len(), snap.known_labels);
                region = snap.region;
                iterations = snap.iterations;
                start_iter = snap.completed_iterations + 1;
                seed_hex = snap.seed_hex;
                snapshots_written = snap.snapshots_written;
            }
            None => {
                rng = StdRng::seed_from_u64(seed);
                ledger_start = *platform.ledger();
                fault_start = *platform.fault_stats();
                let mut blocker_matcher_cfg = self.cfg.matcher;
                if let Some(p) = &plan {
                    blocker_matcher_cfg.budget_cents_cap =
                        Some(ledger_start.total_cents + p.after_blocking);
                }
                let t0 = Instant::now();
                let blocked = run_blocker(
                    task,
                    platform,
                    oracle,
                    &self.cfg.blocker,
                    &blocker_matcher_cfg,
                    &mut rng,
                    &env,
                );
                t_blocker = t0.elapsed().as_secs_f64() * 1000.0;
                cand = blocked.candidates;
                blocker_report = blocked.report;
                predictions = vec![false; cand.len()];
                known_labels = vec![None; cand.len()];
                region = (0..cand.len()).collect();
                iterations = Vec::new();
                best = None;
                start_iter = 1;
                seed_hex = store::encode_u64(seed);
                snapshots_written = 0;
            }
        }

        let blocking_rec = gold.map(|g| blocking_recall(cand.pairs(), g));

        if cand.is_empty() {
            return Err(CorleoneError::EmptyCandidates);
        }

        let seed_vectors = task.seed_vectors();
        let mut state = RunState {
            rng,
            ledger_start,
            fault_start,
            t_blocker,
            t_matcher: 0.0,
            t_estimator: 0.0,
            t_locator: 0.0,
            cand,
            blocker_report,
            blocking_rec,
            predictions,
            known_labels,
            region,
            iterations,
            best,
            next_iter: start_iter,
            seed_hex,
            snapshots_written,
            resumed_from_iteration,
            seed_vectors,
            plan,
            kernels_start,
            analysis_build_ms,
            termination: Termination::Converged,
            done: false,
            snapshotter,
            every,
        };
        // Snapshot 0: the post-blocking boundary. A resume from here
        // skips the (expensive, crowd-labeled) blocking phase entirely.
        if resumed_from_iteration.is_none() {
            state.checkpoint(platform)?;
        }
        Ok(state)
    }

    fn budget_left(&self, platform: &CrowdPlatform, ledger_start: &Ledger) -> bool {
        self.cfg.engine.budget_cents.is_none_or(|b| {
            platform.ledger().total_cents - ledger_start.total_cents < b
        })
    }

    /// Stepping API, part 2 of 3: run exactly one pipeline iteration —
    /// matcher, estimator, stopping checks, locator, and the
    /// iteration-boundary checkpoint — mutating `st` in place. Calling
    /// it on a finished state is a no-op reporting `finished`.
    ///
    /// A scheduler interleaving many runs calls this with each run's own
    /// state and collaborators; because the state is mutated only here,
    /// the interleaving order across runs cannot affect any single run's
    /// bytes.
    #[allow(clippy::too_many_arguments)]
    pub fn step_run(
        &self,
        st: &mut RunState,
        task: &MatchTask,
        platform: &mut CrowdPlatform,
        oracle: &dyn TruthOracle,
        gold: Option<&HashSet<PairKey>>,
        threads: Threads,
        cache: Option<&FeatureCache>,
    ) -> Result<StepOutcome, CorleoneError> {
        let mut out = StepOutcome { iterated: false, checkpointed: false, finished: false };
        if st.done {
            out.finished = true;
            return Ok(out);
        }
        let env = RunEnv { threads, cache };
        let iter_no = st.next_iter;
        if iter_no > self.cfg.engine.max_iterations || st.region.is_empty() {
            st.done = true;
            out.finished = true;
            return Ok(out);
        }
        if !self.budget_left(platform, &st.ledger_start) {
            st.termination = Termination::BudgetExhausted;
            st.done = true;
            out.finished = true;
            return Ok(out);
        }
        // ---- Matcher (§5) on this iteration's region.
        let sub = st.cand.subset(&st.region);
        let ledger_m = *platform.ledger();
        let mut matcher_cfg = self.cfg.matcher;
        if let Some(budget) = self.cfg.engine.budget_cents {
            matcher_cfg.budget_cents_cap = Some(st.ledger_start.total_cents + budget);
        }
        if let Some(p) = &st.plan {
            matcher_cfg.budget_cents_cap =
                Some(st.ledger_start.total_cents + p.after_matching);
        }
        let t0 = Instant::now();
        let learn = run_active_learning(
            &sub,
            &st.seed_vectors,
            platform,
            oracle,
            &matcher_cfg,
            &mut st.rng,
            env.threads,
        );
        let ledger_m_end = *platform.ledger();
        for (sub_idx, label) in learn.crowd_labels() {
            st.known_labels[st.region[sub_idx]] = Some(label);
        }
        let region_preds = sub.predictions(&learn.forest, env.threads);
        for (j, &global) in st.region.iter().enumerate() {
            st.predictions[global] = region_preds[j];
        }
        st.t_matcher += t0.elapsed().as_secs_f64() * 1000.0;

        // ---- Accuracy Estimator (§6) over the combined predictions.
        // Under a monetary budget, cap the estimator's label budget by
        // what is left, using the observed average cost per labeled
        // pair so far.
        let mut est_cfg = self.cfg.estimator;
        if let Some(budget) = self.cfg.engine.budget_cents {
            let ledger = platform.ledger();
            let spent = ledger.total_cents - st.ledger_start.total_cents;
            let per_label = if ledger.pairs_labeled > 0 {
                (ledger.total_cents / ledger.pairs_labeled as f64).max(0.1)
            } else {
                3.0
            };
            let remaining = (budget - spent).max(0.0);
            est_cfg.max_labels = est_cfg
                .max_labels
                .min((remaining / per_label) as usize)
                .max(est_cfg.probe_batch);
            est_cfg.budget_cents_cap = Some(
                st.ledger_start.total_cents
                    + st.plan.as_ref().map_or(budget, |p| p.after_estimation),
            );
        }
        let t0 = Instant::now();
        let estimate = estimate_accuracy(
            &st.cand,
            &st.predictions,
            &learn.forest,
            &st.known_labels,
            platform,
            oracle,
            &est_cfg,
            &mut st.rng,
            &env,
        );
        st.t_estimator += t0.elapsed().as_secs_f64() * 1000.0;
        // The estimator's uniform sample stays local to it: its labels do
        // not join the shared pool (the platform's label cache still
        // answers a repeated question for free).

        let true_prf = gold.map(|g| evaluate(&predicted_pairs(&st.cand, &st.predictions), g));

        let feature_names = task.feature_names();
        let mut importance: Vec<(String, f64)> = learn
            .forest
            .feature_importance(task.n_features())
            .into_iter()
            .enumerate()
            .map(|(i, v)| (feature_names[i].clone(), v))
            .collect();
        // total_cmp: a NaN importance (zero-variance feature on a
        // degenerate sample) must sort, not panic mid-run.
        importance.sort_by(|a, b| b.1.total_cmp(&a.1));
        importance.truncate(5);

        let mut report = IterationReport {
            iteration: iter_no,
            region_size: st.region.len(),
            matcher_al_iterations: learn.iterations,
            matcher_stop: stop_label(learn.stop),
            matcher_pairs_labeled: ledger_m_end.pairs_labeled - ledger_m.pairs_labeled,
            matcher_cost_cents: ledger_m_end.total_cents - ledger_m.total_cents,
            conf_history: learn.conf_history.clone(),
            top_features: importance,
            estimate: estimate.clone(),
            true_prf,
            locator: None,
        };
        st.next_iter = iter_no + 1;
        out.iterated = true;

        // ---- Continue? (§3: stop when estimated accuracy no longer
        // improves; keep the previous iteration's result.)
        let improved = st.best
            .as_ref()
            .is_none_or(|(b, _)| estimate.f1 > b.f1);
        if improved {
            st.best = Some((estimate.clone(), st.predictions.clone()));
        } else {
            // Roll back to the better previous result and stop.
            if let Some((_, ref snap)) = st.best {
                st.predictions.clone_from(snap);
            }
            st.iterations.push(report);
            st.done = true;
            out.finished = true;
            return Ok(out);
        }
        if iter_no == self.cfg.engine.max_iterations {
            st.termination = Termination::MaxIterations;
            st.iterations.push(report);
            st.done = true;
            out.finished = true;
            return Ok(out);
        }
        if !self.budget_left(platform, &st.ledger_start) {
            st.termination = Termination::BudgetExhausted;
            st.iterations.push(report);
            st.done = true;
            out.finished = true;
            return Ok(out);
        }

        // ---- Difficult Pairs' Locator (§7). Locating is the last
        // phase, so its cap is the whole budget.
        let eval_cfg = RuleEvalConfig {
            batch: self.cfg.blocker.eval_batch,
            p_min: self.cfg.blocker.p_min,
            eps_max: self.cfg.blocker.eps_max,
            confidence: self.cfg.blocker.confidence,
            budget_cents_cap: self
                .cfg
                .engine
                .budget_cents
                .map(|b| st.ledger_start.total_cents + b),
            ..Default::default()
        };
        let t0 = Instant::now();
        let located = locate_difficult_pairs(
            &st.cand,
            &st.region,
            &learn.forest,
            &st.known_labels,
            platform,
            oracle,
            &self.cfg.locator,
            &eval_cfg,
            &mut st.rng,
            &env,
        );
        st.t_locator += t0.elapsed().as_secs_f64() * 1000.0;
        report.locator = Some(located.report.clone());
        st.iterations.push(report);
        match located.difficult {
            Some(next) => st.region = next,
            None => {
                st.done = true;
                out.finished = true;
                return Ok(out);
            }
        }

        // ---- Iteration boundary: the narrowest point of the loop.
        // No phase is mid-flight, so the state closure is complete —
        // checkpoint it.
        if st.every > 0 && iter_no.is_multiple_of(st.every) {
            out.checkpointed = st.checkpoint(platform)?;
        }
        Ok(out)
    }

    /// Stepping API, part 3 of 3: assemble the final [`RunReport`] from a
    /// finished (or deliberately abandoned) state.
    pub fn finish_run(
        &self,
        st: RunState,
        task: &MatchTask,
        platform: &mut CrowdPlatform,
        gold: Option<&HashSet<PairKey>>,
        threads: Threads,
        cache: Option<&FeatureCache>,
    ) -> RunReport {
        let RunState {
            ledger_start,
            fault_start,
            t_blocker,
            t_matcher,
            t_estimator,
            t_locator,
            cand,
            blocker_report,
            blocking_rec,
            mut predictions,
            iterations,
            best,
            snapshots_written,
            resumed_from_iteration,
            kernels_start,
            analysis_build_ms,
            mut termination,
            ..
        } = st;
        let ledger_end = *platform.ledger();
        let final_estimate = best.as_ref().map(|(e, _)| e.clone());
        if let Some((_, snap)) = best {
            predictions = snap;
        }
        let predicted_matches = predicted_pairs(&cand, &predictions);
        let final_true = gold.map(|g| evaluate(&predicted_matches, g));

        // A HIT that exhausted its retry budget means some requested
        // labels never arrived: the run finished, but degraded. This
        // outranks the other labels — a "converged" verdict reached on
        // missing data is not trustworthy.
        let fault_delta = platform.fault_stats().delta(&fault_start);
        if fault_delta.hits_failed > 0 {
            termination = Termination::Degraded;
        }

        let phase = |name: &str, millis: f64| PhaseTiming { phase: name.to_string(), millis };
        RunReport {
            blocker: blocker_report,
            blocking_recall: blocking_rec,
            iterations,
            final_estimate,
            final_true,
            predicted_matches,
            total_cost_cents: ledger_end.total_cents - ledger_start.total_cents,
            total_pairs_labeled: ledger_end.pairs_labeled - ledger_start.pairs_labeled,
            termination,
            perf: PerfReport {
                threads: threads.get(),
                cache: cache.map(FeatureCache::stats).unwrap_or_default(),
                phases: vec![
                    phase("blocker", t_blocker),
                    phase("matcher", t_matcher),
                    phase("estimator", t_estimator),
                    phase("locator", t_locator),
                ],
                faults: fault_delta,
                snapshots_written,
                resumed_from_iteration,
                kernels: {
                    let d = task.kernel_counters().delta(&kernels_start);
                    KernelPerf {
                        analysis_build_ms,
                        pairs_vectorized: d.pairs_vectorized,
                        single_features: d.single_features,
                        analysis_memory: task
                            .analysis
                            .get()
                            .map(|an| AnalysisMemory::from_stats(&an.stats))
                            .unwrap_or_default(),
                    }
                },
            },
        }
    }
}

/// Checkpoint/resume controls for one run, resolved by
/// [`RunSession`](crate::session::RunSession) from its builder settings
/// or built directly by a multi-run driver (the service layer gives each
/// tenant a snapshotter over its own run directory).
pub struct CheckpointPlan {
    /// Where to write snapshots; `None` disables checkpointing.
    pub snapshotter: Option<Snapshotter>,
    /// Write a snapshot every N completed iterations (snapshot 0, right
    /// after blocking, is always written when checkpointing is on).
    pub every: usize,
    /// A decoded snapshot to continue from instead of starting fresh.
    pub resume: Option<Box<RunSnapshot>>,
}

impl CheckpointPlan {
    /// No checkpointing, no resume: a plain in-memory run.
    pub fn none() -> Self {
        CheckpointPlan { snapshotter: None, every: 1, resume: None }
    }
}

/// The complete between-iterations state of one engine run, produced by
/// [`Engine::start_run`] and advanced by [`Engine::step_run`].
///
/// Holds no borrows — collaborators are passed to every call — so a
/// scheduler can own many `RunState`s and interleave their iterations in
/// any order over one shared thread pool. All state a step mutates lives
/// either here or in the run's own collaborators, which is why
/// interleaving cannot change any single run's bytes.
pub struct RunState {
    rng: StdRng,
    ledger_start: Ledger,
    fault_start: FaultStats,
    t_blocker: f64,
    t_matcher: f64,
    t_estimator: f64,
    t_locator: f64,
    cand: CandidateSet,
    blocker_report: BlockerReport,
    blocking_rec: Option<f64>,
    predictions: Vec<bool>,
    /// The run's [`label_pool`] over `cand`.
    known_labels: Vec<Option<bool>>,
    region: Vec<usize>,
    iterations: Vec<IterationReport>,
    best: Option<(AccuracyEstimate, Vec<bool>)>,
    next_iter: usize,
    seed_hex: String,
    snapshots_written: u64,
    resumed_from_iteration: Option<usize>,
    seed_vectors: Vec<(Vec<f64>, bool)>,
    plan: Option<BudgetPlan>,
    kernels_start: KernelCounters,
    analysis_build_ms: f64,
    termination: Termination,
    done: bool,
    snapshotter: Option<Snapshotter>,
    every: usize,
}

impl RunState {
    /// Has the run reached a terminal condition? Once true, only
    /// [`Engine::finish_run`] does anything useful with this state.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Completed pipeline iterations so far (including any restored from
    /// a resumed snapshot).
    pub fn completed_iterations(&self) -> usize {
        self.next_iter - 1
    }

    /// Per-iteration records so far — `last()` carries the most recent
    /// interim accuracy estimate, which is what a progress API streams.
    pub fn iterations(&self) -> &[IterationReport] {
        &self.iterations
    }

    /// Candidate pairs that survived blocking.
    pub fn candidates(&self) -> usize {
        self.cand.len()
    }

    /// Snapshots written so far, cumulative across a resume chain.
    pub fn snapshots_written(&self) -> u64 {
        self.snapshots_written
    }

    /// The iteration count of the snapshot this state resumed from, or
    /// `None` for a fresh start.
    pub fn resumed_from_iteration(&self) -> Option<usize> {
        self.resumed_from_iteration
    }

    /// Write the state closure at the current iteration boundary as
    /// snapshot `completed_iterations()`. Returns `false` when the run
    /// has no snapshotter.
    fn checkpoint(&mut self, platform: &CrowdPlatform) -> Result<bool, StoreError> {
        let Some(sn) = &self.snapshotter else {
            return Ok(false);
        };
        // Boundaries follow an improving iteration (or none at all), so
        // the best predictions are the current ones; the snapshot stores
        // them once.
        debug_assert!(self.best.as_ref().is_none_or(|(_, p)| *p == self.predictions));
        let completed = self.completed_iterations();
        let snap = RunSnapshot {
            seed_hex: self.seed_hex.clone(),
            completed_iterations: completed,
            rng_state: store::encode_rng_state(self.rng.state()),
            ledger_start: self.ledger_start,
            fault_start: self.fault_start,
            cand_pairs: self.cand.pairs().to_vec(),
            n_features: self.cand.n_features(),
            blocker_report: self.blocker_report.clone(),
            predictions: self.predictions.clone(),
            known_labels: self
                .known_labels
                .iter()
                .enumerate()
                .filter_map(|(i, l)| l.map(|l| (i, l)))
                .collect(),
            region: self.region.clone(),
            iterations: self.iterations.clone(),
            best: self.best.as_ref().map(|(e, _)| e.clone()),
            platform: platform.export_state(),
            snapshots_written: self.snapshots_written + 1,
        };
        sn.write(completed as u64, &snap)?;
        self.snapshots_written += 1;
        Ok(true)
    }
}

/// What one [`Engine::step_run`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// A pipeline iteration completed (a new [`IterationReport`] was
    /// recorded).
    pub iterated: bool,
    /// A checkpoint snapshot was written at this iteration boundary.
    pub checkpointed: bool,
    /// The run reached a terminal condition during this step.
    pub finished: bool,
}

/// The pairs predicted to match, in candidate order: ascending and
/// distinct, as generation emits the candidates and resume checks them.
fn predicted_pairs(cand: &CandidateSet, predictions: &[bool]) -> Vec<PairKey> {
    cand.pairs().iter().zip(predictions).filter(|&(_, &p)| p).map(|(&k, _)| k).collect()
}

/// Refuse a snapshot that does not fit `task` or contradicts itself, as
/// a decode error rather than a panic later in the run: every candidate
/// index it holds must lie inside its candidate set, every candidate pair
/// inside the task's tables, and its candidates must be ascending and
/// distinct, as generation emits them.
fn check_snapshot(snap: &RunSnapshot, task: &MatchTask) -> Result<(), CorleoneError> {
    let n = snap.cand_pairs.len();
    let labeled = snap.known_labels.iter().map(|&(i, _)| i);
    let message = if snap.n_features != task.n_features() {
        format!(
            "snapshot captured a task with {} features, this task has {}",
            snap.n_features,
            task.n_features()
        )
    } else if snap.predictions.len() != n {
        format!("snapshot is inconsistent: {} predictions for {n} candidates", snap.predictions.len())
    } else if let Some(i) = labeled.chain(snap.region.iter().copied()).find(|&i| i >= n) {
        format!("snapshot is inconsistent: candidate index {i} of {n} candidates")
    } else if !snap.cand_pairs.is_sorted_by(|a, b| a < b) {
        "snapshot is inconsistent: candidate pairs not ascending and distinct".to_string()
    } else if let Some(p) = snap.cand_pairs.iter().find(|p| {
        p.a as usize >= task.table_a.len() || p.b as usize >= task.table_b.len()
    }) {
        format!("snapshot is inconsistent: candidate pair {p:?} outside the task's tables")
    } else {
        return Ok(());
    };
    Err(CorleoneError::Store(StoreError::Decode { path: String::new(), message }))
}

fn stop_label(stop: StopReason) -> String {
    match stop {
        StopReason::Pattern(d) => format!("{d:?}"),
        StopReason::Exhausted => "Exhausted".to_string(),
        StopReason::MaxIterations => "MaxIterations".to_string(),
        StopReason::Budget => "Budget".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::task_from_parts;
    use crowd::{CrowdConfig, GoldOracle, WorkerPool};
    use similarity::{Attribute, Schema, Table, Value};
    use std::sync::Arc;

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

    #[test]
    fn full_run_matches_well_and_reports() {
        let (task, gold) = toy();
        let mut platform = CrowdPlatform::new(WorkerPool::perfect(5), CrowdConfig::default());
        let engine = Engine::new(CorleoneConfig::small()).with_seed(3);
        let report = engine
            .session(&task)
            .platform(&mut platform)
            .oracle(&gold)
            .gold(gold.matches())
            .run();
        assert!(!report.iterations.is_empty());
        let f1 = report.final_true.expect("gold supplied").f1;
        assert!(f1 > 0.85, "final F1 {f1}");
        assert!(report.total_cost_cents > 0.0);
        assert!(report.total_pairs_labeled > 0);
        assert!(!report.predicted_matches.is_empty());
        // Estimate should be in the ballpark of the truth.
        let est = report
            .final_estimate
            .as_ref()
            .expect("a run with at least one completed iteration always carries a final estimate");
        assert!((est.f1 - f1).abs() < 0.25, "est {} vs true {}", est.f1, f1);
        // Telemetry is populated: phase timings exist and the kernels saw
        // traffic. A session run carries no feature cache.
        assert_eq!(report.perf.phases.len(), 4);
        assert!(report.perf.threads >= 1);
        let k = &report.perf.kernels;
        assert!(k.pairs_vectorized > 0, "the run must have vectorized pairs");
        assert_eq!(report.perf.cache, CacheStats::default());
    }

    #[test]
    fn budget_limits_spend() {
        let (task, gold) = toy();
        let mut platform = CrowdPlatform::new(WorkerPool::perfect(5), CrowdConfig::default());
        let mut cfg = CorleoneConfig::small();
        cfg.engine.budget_cents = Some(50.0);
        let engine = Engine::new(cfg).with_seed(4);
        let report = engine
            .session(&task)
            .platform(&mut platform)
            .oracle(&gold)
            .gold(gold.matches())
            .run();
        // One in-flight phase can overshoot, but not by orders of
        // magnitude.
        assert!(
            report.total_cost_cents < 50.0 + 500.0,
            "spent {}",
            report.total_cost_cents
        );
    }

    #[test]
    fn run_without_gold_has_no_true_metrics() {
        let (task, gold) = toy();
        let mut platform = CrowdPlatform::new(WorkerPool::perfect(5), CrowdConfig::default());
        let engine = Engine::new(CorleoneConfig::small()).with_seed(5);
        let report = engine
            .session(&task)
            .platform(&mut platform)
            .oracle(&gold)
            .run();
        assert!(report.final_true.is_none());
        assert!(report.blocking_recall.is_none());
        assert!(report.final_estimate.is_some());
    }

    #[test]
    fn deterministic_given_seeds() {
        let (task, gold) = toy();
        let run = |seed| {
            let mut platform =
                CrowdPlatform::new(WorkerPool::perfect(5), CrowdConfig::default());
            Engine::new(CorleoneConfig::small())
                .with_seed(seed)
                .session(&task)
                .platform(&mut platform)
                .oracle(&gold)
                .gold(gold.matches())
                .run()
        };
        let r1 = run(7);
        let r2 = run(7);
        assert_eq!(r1.predicted_matches, r2.predicted_matches);
        assert_eq!(r1.total_cost_cents, r2.total_cost_cents);
        assert_eq!(r1.deterministic_json(), r2.deterministic_json());
    }

    #[test]
    fn checkpointed_run_resumes_byte_identically_from_every_snapshot() {
        let (task, gold) = toy();
        let dir = std::env::temp_dir().join(format!("corleone-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Engine::new(CorleoneConfig::small()).with_seed(3);

        let mut p1 = CrowdPlatform::new(WorkerPool::perfect(5), CrowdConfig::default());
        let reference = engine
            .session(&task)
            .platform(&mut p1)
            .oracle(&gold)
            .gold(gold.matches())
            .run();

        // Checkpointing must not perturb the run itself.
        let mut p2 = CrowdPlatform::new(WorkerPool::perfect(5), CrowdConfig::default());
        let checkpointed = engine
            .session(&task)
            .platform(&mut p2)
            .oracle(&gold)
            .gold(gold.matches())
            .checkpoint_dir(&dir)
            .checkpoint_keep(0)
            .run();
        assert_eq!(checkpointed.deterministic_json(), reference.deterministic_json());
        assert!(checkpointed.perf.snapshots_written > 0);
        assert_eq!(checkpointed.perf.resumed_from_iteration, None);

        // Every retained snapshot resumes to the identical final report.
        let snaps = store::Snapshotter::create(&dir).expect("open").list().expect("list");
        assert!(!snaps.is_empty());
        for snap in &snaps {
            let mut p3 = CrowdPlatform::new(WorkerPool::perfect(5), CrowdConfig::default());
            let resumed = engine
                .session(&task)
                .platform(&mut p3)
                .oracle(&gold)
                .gold(gold.matches())
                .resume_from(snap)
                .run();
            assert_eq!(
                resumed.deterministic_json(),
                reference.deterministic_json(),
                "resume from {snap:?} diverged"
            );
            assert!(resumed.perf.resumed_from_iteration.is_some());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn constant_feature_task_survives_importance_sort() {
        // Regression: every record identical → zero-variance features, so
        // the forest's split importances can be 0/0 = NaN. The importance
        // sort used `partial_cmp(..).expect(..)` and panicked mid-run;
        // total_cmp must order NaNs instead.
        let schema = Arc::new(Schema::new(vec![Attribute::text("name")]));
        let rows: Vec<Vec<Value>> = (0..20)
            .map(|_| vec![Value::Text("identical widget".to_string())])
            .collect();
        let a = Table::new("a", schema.clone(), rows.clone());
        let b = Table::new("b", schema, rows);
        let task = task_from_parts(a, b, "same?", [(0, 0), (1, 1)], [(2, 3), (4, 5)]);
        let gold = GoldOracle::from_pairs((0..20).map(|i| (i, i)));
        let mut platform = CrowdPlatform::new(WorkerPool::perfect(3), CrowdConfig::default());
        let report = Engine::new(CorleoneConfig::small())
            .with_seed(8)
            .session(&task)
            .platform(&mut platform)
            .oracle(&gold)
            .run();
        assert!(!report.iterations.is_empty(), "run must complete, not panic");
        for it in &report.iterations {
            assert!(it.top_features.len() <= 5);
        }
    }

    #[test]
    fn termination_is_converged_on_a_clean_run() {
        let (task, gold) = toy();
        let mut platform = CrowdPlatform::new(WorkerPool::perfect(5), CrowdConfig::default());
        let report = Engine::new(CorleoneConfig::small())
            .with_seed(3)
            .session(&task)
            .platform(&mut platform)
            .oracle(&gold)
            .run();
        assert!(
            matches!(report.termination, Termination::Converged | Termination::MaxIterations),
            "clean run ended {:?}",
            report.termination
        );
        assert_eq!(report.perf.faults, crowd::FaultStats::default());
    }

    #[test]
    fn tiny_budget_is_labeled_budget_exhausted() {
        let (task, gold) = toy();
        let mut platform = CrowdPlatform::new(WorkerPool::perfect(5), CrowdConfig::default());
        let mut cfg = CorleoneConfig::small();
        cfg.engine.budget_cents = Some(30.0);
        let report = Engine::new(cfg)
            .with_seed(4)
            .session(&task)
            .platform(&mut platform)
            .oracle(&gold)
            .run();
        assert_eq!(report.termination, Termination::BudgetExhausted);
    }

    #[test]
    fn invalid_budget_split_is_a_typed_error() {
        use crate::budget::BudgetSplit;
        use crate::error::CorleoneError;
        let (task, gold) = toy();
        let mut platform = CrowdPlatform::new(WorkerPool::perfect(5), CrowdConfig::default());
        let mut cfg = CorleoneConfig::small();
        cfg.engine.budget_cents = Some(100.0);
        cfg.engine.budget_split =
            Some(BudgetSplit { blocking: 0.5, matching: 0.5, estimation: 0.5, locating: 0.0 });
        let err = Engine::new(cfg)
            .session(&task)
            .platform(&mut platform)
            .oracle(&gold)
            .try_run()
            .unwrap_err();
        match err {
            CorleoneError::InvalidBudgetSplit(msg) => assert!(msg.contains("sum to 1")),
            other => panic!("expected InvalidBudgetSplit, got {other:?}"),
        }
    }

    #[test]
    fn session_api_runs_are_reproducible() {
        // Successor of the removed `Engine::run` shim-parity test: two
        // independent session-API runs with identical inputs must be
        // byte-identical under the determinism contract.
        let (task, gold) = toy();
        let engine = Engine::new(CorleoneConfig::small()).with_seed(6);
        let mut p1 = CrowdPlatform::new(WorkerPool::perfect(5), CrowdConfig::default());
        let first = engine
            .session(&task)
            .platform(&mut p1)
            .oracle(&gold)
            .gold(gold.matches())
            .run();
        let mut p2 = CrowdPlatform::new(WorkerPool::perfect(5), CrowdConfig::default());
        let second = engine
            .session(&task)
            .platform(&mut p2)
            .oracle(&gold)
            .gold(gold.matches())
            .run();
        assert_eq!(first.deterministic_json(), second.deterministic_json());
    }
}
