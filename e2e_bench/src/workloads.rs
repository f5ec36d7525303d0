//! The workloads and the runs that drive them.
//!
//! Every run goes through the repository's public API only: a solo run is
//! one `RunSession::try_run`, a traced run is the same run driven through
//! the stepping API (`ensure_analysis` → `start_run` → `step_run`×k →
//! `finish_run`) with bench-side spans, and a service run is a
//! `MatchService` that is killed after its tenants' first quanta and
//! restarted on the same checkpoint registry.

use crate::metrics::Samples;
use crate::trace::Recorder;
use corleone::cache::DEFAULT_CACHE_CAPACITY;
use corleone::engine::Termination;
use corleone::{
    plan_blocking_source, run_blocker, CandidateSet, CandidateSource, CheckpointPlan,
    CorleoneConfig, Engine, FeatureCache, MatchTask, PlannedSource, RunEnv, RunReport, RunSnapshot,
    Threads,
};
use crowd::{CrowdPlatform, GoldOracle};
use datagen::{EmDataset, GenConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use service::{MatchService, ServiceConfig, ServiceEvent, TenantSpec};
use std::path::Path;
use std::time::Instant;
use store::Snapshotter;

/// One benchmark workload: a dataset at a scale, run either solo or as
/// tenants of a `MatchService`.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (also recorded in `BENCHMARK.json`).
    pub why: &'static str,
    pub dataset: &'static str,
    pub scale: f64,
    /// Blocking threshold `t_B`.
    pub t_b: u64,
    /// `0`: solo `RunSession` runs. `n > 0`: a service with `n` tenants.
    pub tenants: usize,
    /// Inputs in one round of untraced runs. A measurement runs whole
    /// rounds, so every run of a seed measures the same inputs however
    /// fast the code is. One round takes 12–18 s on a 2-vCPU VM at its
    /// usual speed: one round per 20 s window, with room for a slow VM.
    pub inputs: u64,
}

/// Worker threads of every run. On two threads glibc's second malloc
/// arena made a run's peak RSS swing by ±12% between identical runs.
pub const THREADS: usize = 1;

/// The measured workloads.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "restaurants_scan",
        why: SCAN_WHY,
        dataset: "restaurants",
        scale: 3.0,
        t_b: 30_000,
        tenants: 0,
        inputs: 24,
    },
    Workload {
        name: "restaurants_cache",
        why:
            "Vectorizing a 50k-pair blocker sample through the feature cache takes most of a run; \
              the analysis build and the 176k-pair scan are small.",
        dataset: "restaurants",
        scale: 1.0,
        t_b: 50_000,
        tenants: 0,
        inputs: 24,
    },
    Workload {
        name: "products_learn",
        why: "Long-text products: the analysis build and blocker active learning take most of a \
              run; the matcher sees a tiny candidate set.",
        dataset: "products",
        scale: 0.06,
        t_b: 10_000,
        tenants: 0,
        inputs: 48,
    },
    Workload {
        name: "service_resume",
        why: "Three checkpointing service tenants are killed after blocking and resumed: snapshot \
              reads dominate, and two tenants share one analysis build.",
        dataset: "restaurants",
        scale: 0.1,
        t_b: 100_000,
        tenants: 3,
        inputs: 18,
    },
];

/// Why `restaurants_scan` exists, with the candidate-generation share
/// measured on it (the crate docs say why no larger size is used).
const SCAN_WHY: &str = "Candidate generation over 1.6M pairs: half the inputs take the \
                        Cartesian scan (18% of those runs), half the index join; 10% of run time. \
                        Scan-dominated sizes proved too unsteady to bound.";

/// Small stand-ins for `--quick`: one solo and one two-tenant service
/// workload that each finish in well under a second.
pub const QUICK: [Workload; 2] = [
    Workload {
        name: "restaurants_quick",
        why: "quick solo smoke",
        dataset: "restaurants",
        scale: 0.05,
        t_b: 100_000,
        tenants: 0,
        inputs: 1,
    },
    Workload {
        name: "service_quick",
        why: "quick service smoke",
        dataset: "restaurants",
        scale: 0.05,
        t_b: 100_000,
        tenants: 2,
        inputs: 1,
    },
];

/// Look up a workload (measured or quick) by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS
        .iter()
        .chain(QUICK.iter())
        .find(|w| w.name == name)
}

impl Workload {
    fn config(&self) -> CorleoneConfig {
        let mut cfg = bench::experiment_config();
        cfg.blocker.t_b = self.t_b;
        cfg
    }
}

/// The seeds of one generated input.
#[derive(Debug, Clone, Copy)]
pub struct InputSeeds {
    /// Dataset and crowd seed.
    pub data: u64,
    /// Engine RNG seed.
    pub engine: u64,
}

/// Seeds of input `k` of a run started with `--seed seed`. They derive
/// from a mixed base the way `bench::try_run_corleone` derives run `k`'s
/// from `--seed`, so nearby `--seed` values share no inputs.
pub fn input_seeds(seed: u64, k: u64) -> InputSeeds {
    // SplitMix64 finalizer, truncated so the offsets below cannot wrap.
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    let base = (z ^ (z >> 31)) >> 24;
    InputSeeds {
        data: base + k,
        engine: base + 1000 * k,
    }
}

/// Tenant `t` of a service input: tenants 0 and 1 share tables (so one
/// adopts the other's analysis) under different engine seeds; tenant 2
/// and later get tables of their own.
pub fn tenant_seeds(s: InputSeeds, t: usize) -> InputSeeds {
    InputSeeds {
        data: s.data + (t as u64) / 2,
        engine: s.engine + t as u64,
    }
}

/// A generated task with its gold standard.
struct Input {
    ds: EmDataset,
    task: MatchTask,
    gold: GoldOracle,
}

impl Input {
    fn generate(w: &Workload, data_seed: u64) -> Result<Input, String> {
        let ds = datagen::by_name(
            w.dataset,
            GenConfig {
                scale: w.scale,
                seed: data_seed,
            },
        )
        .ok_or_else(|| format!("unknown dataset {}", w.dataset))?;
        let (task, gold) = bench::make_task(&ds);
        Ok(Input { ds, task, gold })
    }

    /// The simulated crowd: error-free workers at the dataset's price.
    /// Noisy workers make one run's work (active-learning rounds, rules,
    /// candidate-set size) swing by ±40% from input to input, more than
    /// a run of this benchmark can average away.
    fn platform(&self, seed: u64) -> CrowdPlatform {
        bench::make_platform(&self.ds, 0.0, seed)
    }

    fn records(&self) -> usize {
        self.task.table_a.len() + self.task.table_b.len()
    }
}

/// FNV-1a 64 of a report's `deterministic_json`.
pub fn digest(report: &RunReport) -> String {
    store::fingerprint64(report.deterministic_json().as_bytes())
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Output checks every finished run must pass: the reported true
/// accuracy is recomputed here from the predicted pairs and the gold
/// standard, and the run must not have lost crowd labels.
pub fn check_report(report: &RunReport, gold: &GoldOracle) -> Result<(), String> {
    if report.termination == Termination::Degraded {
        return Err("run degraded on a fault-free crowd".into());
    }
    let truth = report.final_true.ok_or("report has no true accuracy")?;
    let predicted = &report.predicted_matches;
    if !predicted.windows(2).all(|p| p[0] < p[1]) {
        return Err("predicted matches are not sorted and unique".into());
    }
    let g = gold.matches();
    let tp = predicted.iter().filter(|p| g.contains(p)).count() as f64;
    let precision = if predicted.is_empty() {
        0.0
    } else {
        tp / predicted.len() as f64
    };
    let recall = if g.is_empty() {
        0.0
    } else {
        tp / g.len() as f64
    };
    let f1 = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-12;
    if !(close(precision, truth.precision) && close(recall, truth.recall) && close(f1, truth.f1)) {
        return Err(format!(
            "reported P/R/F1 {:?} but the predicted pairs give {precision}/{recall}/{f1}",
            truth
        ));
    }
    match report.blocking_recall {
        Some(r) if (0.0..=1.0).contains(&r) => Ok(()),
        other => Err(format!("blocking recall {other:?} outside [0, 1]")),
    }
}

/// One solo `RunSession` run, its set-up and its run timed apart.
pub struct SoloRun {
    pub setup_s: f64,
    pub run_s: f64,
    pub digest: String,
    pub report: RunReport,
}

/// Generate input `s` and run it through `RunSession::try_run`.
pub fn solo_run(w: &Workload, s: InputSeeds) -> Result<SoloRun, String> {
    let t0 = Instant::now();
    let input = Input::generate(w, s.data)?;
    let mut platform = input.platform(s.data);
    let setup_s = secs(t0);
    let engine = Engine::new(w.config()).with_seed(s.engine);
    let t1 = Instant::now();
    let report = engine
        .session(&input.task)
        .platform(&mut platform)
        .oracle(&input.gold)
        .gold(input.gold.matches())
        .threads(THREADS)
        .try_run()
        .map_err(|e| format!("run failed: {e}"))?;
    let run_s = secs(t1);
    check_report(&report, &input.gold)?;
    if report.total_cost_cents != platform.ledger().total_cents {
        return Err("report cost differs from the platform ledger".into());
    }
    Ok(SoloRun {
        setup_s,
        run_s,
        digest: digest(&report),
        report,
    })
}

/// Input `s` driven through the stepping API with spans, then the layer
/// replays and the store probe. Pushes the per-layer samples and returns
/// the run's wall-clock and digest.
pub fn traced_solo_run(
    w: &Workload,
    s: InputSeeds,
    run_id: &str,
    rec: &mut Recorder,
    out: &mut Samples,
    scratch: &Path,
) -> Result<(f64, String), String> {
    let input = Input::generate(w, s.data)?;
    let Input { task, gold, .. } = &input;
    let mut platform = input.platform(s.data);
    let threads = Threads::new(THREADS);
    let engine = Engine::new(w.config()).with_seed(s.engine);
    let cache = FeatureCache::with_capacity(DEFAULT_CACHE_CAPACITY);
    let fail = |e: corleone::CorleoneError| format!("traced run failed: {e}");

    rec.set_run(run_id);
    let t_run = Instant::now();
    let root = rec.enter("run");
    let build = rec.enter("analysis.build");
    task.ensure_analysis(threads);
    rec.exit(build);
    let start = rec.enter("engine.start");
    let started = engine.start_run(
        task,
        &mut platform,
        gold,
        Some(gold.matches()),
        threads,
        Some(&cache),
        s.engine,
        CheckpointPlan::none(),
    );
    rec.exit(start);
    let mut state = started.map_err(fail)?;
    let mut steps = Vec::new();
    loop {
        let step = rec.enter("engine.step");
        let outcome = engine.step_run(
            &mut state,
            task,
            &mut platform,
            gold,
            Some(gold.matches()),
            threads,
            Some(&cache),
        );
        rec.exit(step);
        let outcome = outcome.map_err(fail)?;
        if outcome.iterated {
            steps.push(step);
        }
        if outcome.finished {
            break;
        }
    }
    let finish = rec.enter("engine.finish");
    let report = engine.finish_run(
        state,
        task,
        &mut platform,
        Some(gold.matches()),
        threads,
        Some(&cache),
    );
    rec.exit(finish);
    rec.exit(root);
    let run_s = secs(t_run);
    check_report(&report, gold)?;

    out.push("engine.start_ms", "ms", rec.ms(start));
    for &id in &steps {
        out.push("engine.step_ms", "ms", rec.ms(id));
    }
    out.push("engine.iterations", "count", steps.len() as f64);
    out.push("engine.coverage_frac", "fraction", rec.child_coverage(root));
    let build_s = rec.ms(build) / 1e3;
    out.push("analysis.build_ms", "ms", build_s * 1e3);
    out.push(
        "analysis.records_per_s",
        "1/s",
        input.records() as f64 / build_s,
    );
    let mem = &report.perf.kernels.analysis_memory;
    out.push(
        "analysis.resident_mib",
        "MiB",
        mem.resident_bytes as f64 / (1 << 20) as f64,
    );
    let phase = |name: &str| {
        report
            .perf
            .phases
            .iter()
            .find(|p| p.phase == name)
            .map_or(0.0, |p| p.millis)
    };
    out.push("learner.ms", "ms", phase("matcher"));
    out.push("estimator.ms", "ms", phase("estimator"));
    out.push("locator.ms", "ms", phase("locator"));
    let its = &report.iterations;
    out.push(
        "learner.al_rounds",
        "count",
        its.iter().map(|i| i.matcher_al_iterations).sum::<usize>() as f64,
    );
    out.push(
        "learner.pairs_labeled",
        "count",
        its.iter().map(|i| i.matcher_pairs_labeled).sum::<u64>() as f64,
    );
    out.push(
        "estimator.pairs_labeled",
        "count",
        its.iter().map(|i| i.estimate.pairs_labeled).sum::<u64>() as f64,
    );
    out.push(
        "locator.pairs_labeled",
        "count",
        its.iter()
            .filter_map(|i| i.locator.as_ref())
            .map(|l| l.pairs_labeled)
            .sum::<u64>() as f64,
    );
    let c = report.perf.cache;
    out.push("cache.hits", "count", c.hits as f64);
    out.push("cache.misses", "count", c.misses as f64);
    out.push("cache.hit_frac", "fraction", c.hit_rate());
    let l = platform.ledger();
    out.push("crowd.questions", "count", l.questions_asked as f64);
    out.push("crowd.answers", "count", l.answers_solicited as f64);
    out.push("crowd.hits", "count", l.hits_posted as f64);
    out.push("crowd.label_cache_hits", "count", l.cache_hits as f64);
    out.push(
        "crowd.answers_per_question",
        "ratio",
        l.answers_solicited as f64 / l.questions_asked.max(1) as f64,
    );
    out.push("crowd.hours", "h", l.simulated_secs / 3600.0);
    let truth = report.final_true.map_or(0.0, |t| t.f1);
    let est = report.final_estimate.as_ref().map_or(0.0, |e| e.f1);
    out.push("quality.est_f1_err", "fraction", (est - truth).abs());
    out.push(
        "quality.blocking_recall",
        "fraction",
        report.blocking_recall.unwrap_or(0.0),
    );

    replay_layers(w, &input, s, &report, rec, out)?;
    store_probe(w, &input, s, rec, out, scratch)?;
    Ok((run_s, digest(&report)))
}

/// Replay the blocker, its candidate source and the candidate-set build
/// on their own, outside the traced run, and check each replay
/// reproduces what the run did.
fn replay_layers(
    w: &Workload,
    input: &Input,
    s: InputSeeds,
    report: &RunReport,
    rec: &mut Recorder,
    out: &mut Samples,
) -> Result<(), String> {
    let Input { task, gold, .. } = input;
    let threads = Threads::new(THREADS);
    let cfg = w.config();

    // The engine's RNG is seeded with the engine seed and the blocker is
    // its first consumer, so a fresh RNG and crowd reproduce the run's
    // blocker exactly.
    let mut platform = input.platform(s.data);
    let cache = FeatureCache::with_capacity(DEFAULT_CACHE_CAPACITY);
    let env = RunEnv::with_threads(threads).with_cache(&cache);
    let mut rng = StdRng::seed_from_u64(s.engine);
    let blocker = rec.enter("replay.blocker");
    let blocked = run_blocker(
        task,
        &mut platform,
        gold,
        &cfg.blocker,
        &cfg.matcher,
        &mut rng,
        &env,
    );
    rec.exit(blocker);
    let json = |r: &corleone::BlockerReport| serde_json::to_string(r).map_err(|e| e.to_string());
    if json(&blocked.report)? != json(&report.blocker)? {
        return Err("blocker replay diverged from the run's BlockerReport".into());
    }

    let source = plan_blocking_source(task, &blocked.applied_rules);
    let k0 = task.kernel_counters();
    let generate = rec.enter("replay.source.generate");
    let pairs = source.generate(threads);
    rec.exit(generate);
    let single_features = task.kernel_counters().delta(&k0).single_features;
    if pairs != blocked.candidates.pairs() {
        return Err("candidate source replay produced other pairs".into());
    }

    let n_pairs = pairs.len();
    let k0 = task.kernel_counters();
    let build = rec.enter("replay.candidates.build");
    let rebuilt = CandidateSet::build_with(task, pairs, threads, None);
    rec.exit(build);
    let pairs_vectorized = task.kernel_counters().delta(&k0).pairs_vectorized;
    let same_bits = rebuilt.matrix().len() == blocked.candidates.matrix().len()
        && rebuilt
            .matrix()
            .iter()
            .zip(blocked.candidates.matrix())
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if !same_bits {
        return Err("uncached candidate build differs from the blocker's".into());
    }

    let blocker_ms = rec.ms(blocker);
    let generate_ms = rec.ms(generate);
    let build_ms = rec.ms(build);
    let cartesian = task.cartesian_size() as f64;
    let questions = platform.ledger().questions_asked;
    out.push("blocker.ms", "ms", blocker_ms);
    out.push(
        "blocker.learn_ms",
        "ms",
        blocker_ms - generate_ms - build_ms,
    );
    out.push(
        "blocker.sample_pairs",
        "count",
        blocked.report.sample_size as f64,
    );
    out.push(
        "blocker.rules_applied",
        "count",
        blocked.report.rules_applied.len() as f64,
    );
    out.push("blocker.questions", "count", questions as f64);
    out.push("blocker.cost_usd", "USD", blocked.report.cost_cents / 100.0);
    out.push("source.generate_ms", "ms", generate_ms);
    out.push("source.pairs_per_s", "1/s", cartesian / (generate_ms / 1e3));
    out.push(
        "source.indexed",
        "count",
        matches!(source, PlannedSource::Indexed(_)) as u8 as f64,
    );
    out.push(
        "source.survivor_frac",
        "fraction",
        n_pairs as f64 / cartesian,
    );
    out.push("kernels.single_features", "count", single_features as f64);
    out.push("candidates.build_ms", "ms", build_ms);
    out.push(
        "candidates.pairs_per_s",
        "1/s",
        n_pairs as f64 / (build_ms / 1e3),
    );
    out.push("kernels.pairs_vectorized", "count", pairs_vectorized as f64);
    Ok(())
}

/// Checkpoint input `s` right after blocking (the engine writes snapshot
/// 0 through the store), then time reading it back and writing it again.
///
/// The probe runs without a feature cache, so the snapshot carries no
/// cache dump: on the blocked workloads that dump holds the whole
/// 10k–50k-pair blocker sample, megabytes that take seconds to minutes
/// to read back (a 7 MB snapshot took 9 s, a 56 MB one 4.6 minutes).
fn store_probe(
    w: &Workload,
    input: &Input,
    s: InputSeeds,
    rec: &mut Recorder,
    out: &mut Samples,
    scratch: &Path,
) -> Result<(), String> {
    let Input { task, gold, .. } = input;
    let engine = Engine::new(w.config()).with_seed(s.engine);
    let fingerprint = engine.run_fingerprint(task).map_err(|e| e.to_string())?;
    let dir = scratch.join("store-probe");
    let snapshotter = Snapshotter::create(&dir)
        .map_err(|e| e.to_string())?
        .keep_last(0)
        .with_fingerprint(fingerprint.clone());
    let path = snapshotter.path_for(0);
    let mut platform = input.platform(s.data);
    let probe = rec.enter("store.probe");
    let checkpoint = rec.enter("store.checkpoint");
    let started = engine.start_run(
        task,
        &mut platform,
        gold,
        Some(gold.matches()),
        Threads::new(THREADS),
        None,
        s.engine,
        CheckpointPlan {
            snapshotter: Some(snapshotter),
            every: 1,
            resume: None,
        },
    );
    rec.exit(checkpoint);
    drop(started.map_err(|e| format!("checkpointed start failed: {e}"))?);
    let read = rec.enter("store.read");
    let snap = store::read_snapshot_checked::<RunSnapshot>(&path, Some(&fingerprint));
    rec.exit(read);
    let snap = snap.map_err(|e| e.to_string())?;
    let copy = dir.join("rewrite.json");
    let write = rec.enter("store.write");
    let written = store::write_snapshot_tagged(&copy, &snap, Some(&fingerprint));
    rec.exit(write);
    rec.exit(probe);
    written.map_err(|e| e.to_string())?;
    let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
    if std::fs::read(&copy).map_err(|e| e.to_string())? != bytes {
        return Err("a snapshot read back and rewritten changed bytes".into());
    }
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    let mib = bytes.len() as f64 / (1 << 20) as f64;
    out.push("store.snapshot_mib", "MiB", mib);
    out.push("store.read_ms", "ms", rec.ms(read));
    out.push("store.write_ms", "ms", rec.ms(write));
    out.push("store.read_mib_per_s", "MiB/s", mib / (rec.ms(read) / 1e3));
    Ok(())
}

/// One kill-and-resume service run.
pub struct ServiceRun {
    pub setup_s: f64,
    /// Phase A (submit, one quantum per tenant, drop) plus phase B
    /// (resubmit on the same registry, run to completion).
    pub run_s: f64,
    /// The resubmissions of phase B, which read the snapshots back.
    pub resume_s: f64,
    pub reports: Vec<RunReport>,
    pub digests: Vec<String>,
    pub ticks: u64,
    pub analysis_hits: u64,
    pub tenants_resumed: u64,
    pub registry_bytes: u64,
}

fn tenant_spec(w: &Workload, s: InputSeeds, t: usize) -> Result<(TenantSpec, GoldOracle), String> {
    let ts = tenant_seeds(s, t);
    let input = Input::generate(w, ts.data)?;
    let platform = input.platform(ts.data);
    let Input { task, gold, .. } = input;
    let spec = TenantSpec {
        run_id: format!("tenant{t}"),
        task,
        platform,
        oracle: Box::new(gold.clone()),
        gold: Some(gold.matches().clone()),
        config: w.config(),
        seed: ts.engine,
    };
    Ok((spec, gold))
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            _ => e.metadata().map_or(0, |m| m.len()),
        })
        .sum()
}

/// Run input `s` as a service: phase A admits every tenant and runs one
/// quantum each (analysis, blocker, snapshot 0), then the service is
/// dropped as if killed; phase B opens a new service on the same
/// registry, resubmits, and runs every tenant to completion. With a
/// recorder, phases, submissions and ticks are spans.
pub fn service_run(
    w: &Workload,
    s: InputSeeds,
    scratch: &Path,
    mut rec: Option<&mut Recorder>,
) -> Result<ServiceRun, String> {
    let t0 = Instant::now();
    let mut phase_a = Vec::new();
    let mut phase_b = Vec::new();
    let mut golds = Vec::new();
    for t in 0..w.tenants {
        phase_a.push(tenant_spec(w, s, t)?.0);
        let (spec, gold) = tenant_spec(w, s, t)?;
        phase_b.push(spec);
        golds.push(gold);
    }
    let setup_s = secs(t0);
    let root = scratch.join("registry");
    let cfg = ServiceConfig {
        threads: THREADS,
        checkpoint_root: Some(root.clone()),
        checkpoint_every: 1,
        ..Default::default()
    };
    let err = |e: service::ServiceError| e.to_string();
    let span = |rec: &mut Option<&mut Recorder>, name: &'static str| {
        rec.as_deref_mut().map(|r| r.enter(name))
    };
    let close = |rec: &mut Option<&mut Recorder>, id: Option<usize>| {
        if let (Some(r), Some(id)) = (rec.as_deref_mut(), id) {
            r.exit(id);
        }
    };

    let t_run = Instant::now();
    let rep = span(&mut rec, "service.rep");
    let a = span(&mut rec, "service.phase_a");
    let mut svc = MatchService::new(cfg.clone()).map_err(err)?;
    for spec in phase_a {
        let id = span(&mut rec, "service.submit");
        let admitted = svc.submit(spec);
        close(&mut rec, id);
        admitted.map_err(err)?;
    }
    for _ in 0..w.tenants {
        let id = span(&mut rec, "service.tick");
        svc.tick();
        close(&mut rec, id);
    }
    let mut ticks = svc.service_perf().ticks;
    let mut analysis_hits = svc.service_perf().analysis_cache_hits;
    drop(svc);
    close(&mut rec, a);
    let registry_bytes = dir_bytes(&root);

    let b = span(&mut rec, "service.phase_b");
    let mut svc = MatchService::new(cfg).map_err(err)?;
    let t_resume = Instant::now();
    for spec in phase_b {
        let id = span(&mut rec, "service.resubmit");
        let admitted = svc.submit(spec);
        close(&mut rec, id);
        admitted.map_err(err)?;
    }
    let resume_s = secs(t_resume);
    while svc.has_live_tenants() {
        let id = span(&mut rec, "service.tick");
        svc.tick();
        close(&mut rec, id);
    }
    close(&mut rec, b);
    close(&mut rec, rep);
    let run_s = secs(t_run);

    let perf = svc.service_perf().clone();
    ticks += perf.ticks;
    analysis_hits += perf.analysis_cache_hits;
    for ev in svc.poll_events() {
        match ev {
            ServiceEvent::Failed { run_id, message } => {
                return Err(format!("{run_id} failed: {message}"))
            }
            ServiceEvent::Admitted {
                run_id,
                resuming: false,
                ..
            } => return Err(format!("{run_id} did not resume from its snapshot")),
            _ => {}
        }
    }
    let mut reports = Vec::new();
    let mut digests = Vec::new();
    for (t, gold) in golds.iter().enumerate() {
        let report = svc.take_report(&format!("tenant{t}")).map_err(err)?;
        check_report(&report, gold)?;
        digests.push(digest(&report));
        reports.push(report);
    }
    std::fs::remove_dir_all(&root).map_err(|e| e.to_string())?;
    Ok(ServiceRun {
        setup_s,
        run_s,
        resume_s,
        reports,
        digests,
        ticks,
        analysis_hits,
        tenants_resumed: perf.tenants_resumed,
        registry_bytes,
    })
}

/// Check each tenant of a service run against a solo `RunSession` run of
/// the same spec: the determinism contract says they are byte-identical.
pub fn check_tenants_match_solo(
    w: &Workload,
    s: InputSeeds,
    run: &ServiceRun,
) -> Result<(), String> {
    for (t, tenant_digest) in run.digests.iter().enumerate() {
        let solo = solo_run(w, tenant_seeds(s, t))?;
        if &solo.digest != tenant_digest {
            return Err(format!("tenant{t} differs from its solo run"));
        }
    }
    Ok(())
}
