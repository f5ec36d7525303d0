//! Checkpoint/resume integration tests: the crash-safety contract of the
//! `store` subsystem wired through the whole pipeline.
//!
//! The acceptance bar, from the persistence-layer design: a run
//! interrupted at *any* iteration boundary and resumed from its snapshot
//! must produce a final report **byte-identical**
//! (`RunReport::deterministic_json`) to the uninterrupted run — at any
//! thread count, with and without fault injection. Damaged or
//! incompatible snapshots must surface as typed errors, never panics, and
//! a run that stopped on `BudgetExhausted` must continue to convergence
//! when resumed under a raised budget.

use corleone::error::CorleoneError;
use corleone::task::task_from_parts;
use corleone::{CorleoneConfig, Engine, MatchTask, RunSnapshot, Termination};
use crowd::{CrowdConfig, CrowdPlatform, FaultConfig, GoldOracle, RetryPolicy, WorkerPool};
use datagen::GenConfig;
use std::path::{Path, PathBuf};
use store::StoreError;

fn setup(scale: f64, seed: u64) -> (MatchTask, GoldOracle, f64) {
    let ds = datagen::by_name("restaurants", GenConfig { scale, seed }).unwrap();
    let task = task_from_parts(
        ds.table_a.clone(),
        ds.table_b.clone(),
        &ds.instruction,
        ds.seeds.positive,
        ds.seeds.negative,
    );
    let gold = GoldOracle::from_pairs(ds.gold.iter().copied());
    (task, gold, ds.price_cents)
}

fn platform(price_cents: f64, seed: u64, faults: FaultConfig, error: f64) -> CrowdPlatform {
    CrowdPlatform::with_faults(
        WorkerPool::uniform(25, error),
        CrowdConfig { price_cents, seed, ..Default::default() },
        faults,
        RetryPolicy::default(),
    )
}

/// A fresh, empty scratch directory under the system temp dir.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("corleone-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Run once: reference, then checkpointed (must match), then a resume from
/// every retained snapshot (each must match), all at thread count
/// `threads` with crowd error rate `error`. The platform any resumed
/// session starts with is deliberately a *blank* one — `resume_from` must
/// overwrite it wholesale with the snapshot's platform state. Returns the
/// deepest iteration any resume started from.
fn assert_every_boundary_resumes(
    tag: &str,
    faults: FaultConfig,
    threads: usize,
    error: f64,
) -> usize {
    let (task, gold, price) = setup(0.1, 17);
    let engine = Engine::new(CorleoneConfig::small()).with_seed(17);
    let dir = fresh_dir(tag);

    let mut p_ref = platform(price, 17, faults, error);
    let reference = engine
        .session(&task)
        .platform(&mut p_ref)
        .oracle(&gold)
        .gold(gold.matches())
        .threads(threads)
        .run();

    let mut p_ck = platform(price, 17, faults, error);
    let checkpointed = engine
        .session(&task)
        .platform(&mut p_ck)
        .oracle(&gold)
        .gold(gold.matches())
        .threads(threads)
        .checkpoint_dir(&dir)
        .checkpoint_every(1)
        .checkpoint_keep(0)
        .run();
    assert_eq!(
        checkpointed.deterministic_json(),
        reference.deterministic_json(),
        "checkpointing perturbed the run ({tag}, {threads} threads)"
    );
    assert!(checkpointed.perf.snapshots_written > 0);

    let snaps = store::Snapshotter::create(&dir).expect("open dir").list().expect("list");
    assert!(!snaps.is_empty(), "checkpointed run left no snapshots ({tag})");
    let mut deepest = 0;
    for snap in &snaps {
        let mut p_res = CrowdPlatform::new(WorkerPool::perfect(1), CrowdConfig::default());
        let resumed = engine
            .session(&task)
            .platform(&mut p_res)
            .oracle(&gold)
            .gold(gold.matches())
            .threads(threads)
            .resume_from(snap)
            .run();
        assert_eq!(
            resumed.deterministic_json(),
            reference.deterministic_json(),
            "resume from {snap:?} diverged ({tag}, {threads} threads)"
        );
        let from = resumed.perf.resumed_from_iteration.expect("a resumed run says so");
        deepest = deepest.max(from);
    }
    let _ = std::fs::remove_dir_all(&dir);
    deepest
}

/// The default crowd: accurate enough that restaurants@0.1 converges in
/// one iteration, so these runs checkpoint only snapshot 0.
const CLEAN_ERROR: f64 = 0.05;

/// A noisy crowd keeps the estimate improving for several iterations,
/// so the run crosses real iteration boundaries.
const NOISY_ERROR: f64 = 0.15;

/// HIT expiries and worker abandonments drawn from fault stream `seed`.
fn faults(seed: u64) -> FaultConfig {
    FaultConfig { hit_expiry_prob: 0.10, abandonment_prob: 0.05, seed, ..Default::default() }
}

#[test]
fn clean_run_resumes_byte_identically_one_thread() {
    assert_every_boundary_resumes("clean-t1", FaultConfig::default(), 1, CLEAN_ERROR);
}

#[test]
fn clean_run_resumes_byte_identically_two_threads() {
    assert_every_boundary_resumes("clean-t2", FaultConfig::default(), 2, CLEAN_ERROR);
}

#[test]
fn clean_run_resumes_byte_identically_eight_threads() {
    assert_every_boundary_resumes("clean-t8", FaultConfig::default(), 8, CLEAN_ERROR);
}

#[test]
fn faulty_run_resumes_byte_identically() {
    // Fault injection draws from its own seeded stream whose position is
    // part of the snapshot, so resume must replay the same expiries and
    // abandonments the uninterrupted run saw.
    for threads in [1, 2, 8] {
        let tag = format!("faulty-t{threads}");
        assert_every_boundary_resumes(&tag, faults(17), threads, CLEAN_ERROR);
    }
}

#[test]
fn noisy_run_resumes_mid_loop_byte_identically() {
    // Resuming after iteration k restores the iteration reports, the
    // crowd labels, the next region and the best estimate so far — state
    // snapshot 0 never exercises. Under fault stream 0 the faulty run
    // still iterates twice (under stream 17 it converges after one).
    for (kind, faults) in [("clean", FaultConfig::default()), ("faulty", faults(0))] {
        for threads in [1, 2, 8] {
            let tag = format!("noisy-{kind}-t{threads}");
            let deepest = assert_every_boundary_resumes(&tag, faults, threads, NOISY_ERROR);
            assert!(deepest >= 1, "{tag}: no resume crossed an iteration boundary");
        }
    }
}

/// Write one checkpointed run and return (engine state, latest snapshot
/// path, scratch dir) for the damage tests below.
fn checkpointed_run(tag: &str) -> (MatchTask, GoldOracle, PathBuf, PathBuf) {
    let (task, gold, price) = setup(0.1, 29);
    let dir = fresh_dir(tag);
    let mut p = platform(price, 29, FaultConfig::default(), CLEAN_ERROR);
    Engine::new(CorleoneConfig::small())
        .with_seed(29)
        .session(&task)
        .platform(&mut p)
        .oracle(&gold)
        .gold(gold.matches())
        .checkpoint_dir(&dir)
        .run();
    let latest = store::Snapshotter::create(&dir).expect("open").latest().expect("latest");
    (task, gold, latest, dir)
}

fn try_resume(task: &MatchTask, gold: &GoldOracle, snap: &Path) -> Result<(), CorleoneError> {
    let mut p = CrowdPlatform::new(WorkerPool::perfect(1), CrowdConfig::default());
    Engine::new(CorleoneConfig::small())
        .with_seed(29)
        .session(task)
        .platform(&mut p)
        .oracle(gold)
        .resume_from(snap)
        .try_run()
        .map(|_| ())
}

#[test]
fn corrupted_checksum_is_a_typed_error() {
    let (task, gold, latest, dir) = checkpointed_run("corrupt");
    let text = std::fs::read_to_string(&latest).expect("read snapshot");
    // Change a payload value, the corruption that would otherwise decode
    // into a different run (the checksum covers the payload's bytes as
    // written, so re-formatting fails it too): seed 29 is 0x1d.
    let tampered =
        text.replacen("\"seed_hex\":\"000000000000001d\"", "\"seed_hex\":\"000000000000001e\"", 1);
    assert_ne!(text, tampered, "snapshot layout changed; update the tamper probe");
    std::fs::write(&latest, tampered).expect("write tampered snapshot");
    match try_resume(&task, &gold, &latest) {
        Err(CorleoneError::Store(StoreError::ChecksumMismatch { .. })) => {}
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn schema_version_mismatch_is_a_typed_error() {
    let (task, gold, latest, dir) = checkpointed_run("schema");
    let text = std::fs::read_to_string(&latest).expect("read snapshot");
    let current = format!("\"schema_version\":{}", store::SCHEMA_VERSION);
    // A future version; v4, the last layout whose payload carried a
    // feature-cache image; and v5, the last whose payload carried a
    // serialized forest, wall-clock timings and a second predictions copy.
    for found in [999, 4, 5] {
        let other = text.replacen(&current, &format!("\"schema_version\":{found}"), 1);
        assert_ne!(text, other, "envelope layout changed; update the version probe");
        std::fs::write(&latest, other).expect("write other-version snapshot");
        match try_resume(&task, &gold, &latest) {
            Err(CorleoneError::Store(StoreError::SchemaMismatch { found: f, expected, .. })) => {
                assert_eq!((f, expected), (found, 6));
                assert_eq!(expected, store::SCHEMA_VERSION);
            }
            other => panic!("expected SchemaMismatch for v{found}, got {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_snapshot_is_a_typed_error() {
    let (task, gold, latest, dir) = checkpointed_run("truncate");
    let text = std::fs::read_to_string(&latest).expect("read snapshot");
    std::fs::write(&latest, &text[..text.len() / 2]).expect("truncate snapshot");
    match try_resume(&task, &gold, &latest) {
        Err(CorleoneError::Store(StoreError::Corrupt { .. })) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_snapshot_is_a_typed_error() {
    let (task, gold, _) = setup(0.1, 31);
    let bogus = std::env::temp_dir().join("corleone-resume-no-such-snapshot.json");
    match try_resume(&task, &gold, &bogus) {
        Err(CorleoneError::Store(StoreError::Io { .. })) => {}
        other => panic!("expected Io, got {other:?}"),
    }
}

#[test]
fn snapshot_from_a_different_task_is_a_typed_error() {
    let (_task, gold, latest, dir) = checkpointed_run("othertask");
    // A task with a different schema carries a different run
    // fingerprint; resuming against it must be refused at the envelope,
    // not garbage-matched.
    let ds = datagen::by_name("citations", GenConfig { scale: 0.1, seed: 29 }).unwrap();
    let other = task_from_parts(
        ds.table_a.clone(),
        ds.table_b.clone(),
        &ds.instruction,
        ds.seeds.positive,
        ds.seeds.negative,
    );
    match try_resume(&other, &gold, &latest) {
        Err(CorleoneError::Store(StoreError::FingerprintMismatch { expected, found, .. })) => {
            assert!(found.is_some(), "snapshot was written with a fingerprint");
            assert_ne!(Some(expected), found);
        }
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_of_other_records_is_a_typed_error() {
    let (_task, gold, latest, dir) = checkpointed_run("otherrecords");
    // Same generator, schema and table sizes as the checkpointed seed-29
    // task: its records with the seed-30 seed pairs, and the seed-30
    // records with its seed pairs. The snapshot's labels were bought for
    // other pairs, or under other seed pairs, so the run fingerprint must
    // refuse both.
    let ds = |seed| datagen::by_name("restaurants", GenConfig { scale: 0.1, seed }).unwrap();
    let (own, other) = (ds(29), ds(30));
    assert_eq!(
        (other.table_a.len(), other.table_b.len()),
        (own.table_a.len(), own.table_b.len()),
        "the probes need equal sizes; pick another seed"
    );
    assert_ne!(other.seeds.positive, own.seeds.positive, "the probes need other seed pairs");
    let probes = [
        ("other seed pairs", own.table_a, own.table_b, other.seeds),
        ("other records", other.table_a, other.table_b, own.seeds),
    ];
    for (what, a, b, seeds) in probes {
        let probe = task_from_parts(a, b, &own.instruction, seeds.positive, seeds.negative);
        match try_resume(&probe, &gold, &latest) {
            Err(CorleoneError::Store(StoreError::FingerprintMismatch {
                expected, found, ..
            })) => assert_ne!(Some(expected), found),
            other => panic!("{what}: expected FingerprintMismatch, got {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn inconsistent_snapshot_payload_is_a_decode_error() {
    let (task, gold, latest, dir) = checkpointed_run("inconsistent");
    // Rewritten under the run's own fingerprint and a fresh checksum, a
    // damaged payload passes every envelope check: resume itself must
    // refuse it, before any index reaches the candidate set or a pair
    // the tables.
    let fp = Engine::new(CorleoneConfig::small())
        .with_seed(29)
        .run_fingerprint(&task)
        .expect("fingerprint");
    let snap: RunSnapshot =
        store::read_snapshot_checked(&latest, Some(&fp)).expect("read snapshot");
    let damaged = dir.join("damaged.json");
    let refused = |what: &str, damage: &dyn Fn(&mut RunSnapshot)| {
        let mut bad = snap.clone();
        damage(&mut bad);
        store::write_snapshot_tagged(&damaged, &bad, Some(&fp)).expect("write damaged snapshot");
        match try_resume(&task, &gold, &damaged) {
            Err(CorleoneError::Store(StoreError::Decode { .. })) => {}
            other => panic!("{what}: expected Decode, got {other:?}"),
        }
    };
    refused("a region index equal to |C|", &|s| s.region.push(s.cand_pairs.len()));
    refused("a known_labels index equal to |C|", &|s| {
        s.known_labels.push((s.cand_pairs.len(), true))
    });
    refused("one prediction short", &|s| {
        s.predictions.pop();
    });
    refused("candidate pairs out of order", &|s| s.cand_pairs.swap(0, 1));
    refused("a candidate pair past table B", &|s| {
        s.cand_pairs.last_mut().expect("candidates").b = u32::MAX
    });
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every key of a snapshot payload, in order: exactly the state a
/// resume reads and cannot derive.
const RESUME_STATE_KEYS: [&str; 15] = [
    "seed_hex",
    "completed_iterations",
    "rng_state",
    "ledger_start",
    "fault_start",
    "cand_pairs",
    "n_features",
    "blocker_report",
    "predictions",
    "known_labels",
    "region",
    "iterations",
    "best",
    "platform",
    "snapshots_written",
];

#[test]
fn snapshots_carry_no_analysis_payload_and_resume_byte_identically() {
    use corleone::Threads;

    // The record-analysis layer is derived state: building it must not
    // change what a task serializes to (the cell renders as `null`), so
    // snapshots can never grow an analysis payload.
    let (task, gold, price) = setup(0.1, 53);
    let before = serde_json::to_string(&task).expect("serialize task");
    assert!(before.contains("\"analysis\":null"), "analysis cell must serialize as null");
    task.ensure_analysis(Threads::new(2));
    let after = serde_json::to_string(&task).expect("serialize task with analysis built");
    assert_eq!(before, after, "building the analysis changed the task's serialized form");

    // A checkpointed run (which builds the analysis internally) must write
    // snapshots free of analysis internals, and byte-identical to the
    // snapshots written when the task enters the run with the analysis
    // already built — at a different thread count, since snapshots hold
    // no wall-clock or scheduling-dependent state. The crowd is noisy so
    // an iteration snapshot is compared too, not only snapshot 0.
    let engine = Engine::new(CorleoneConfig::small()).with_seed(53);
    let run_with = |task: &MatchTask, dir: &Path, threads: usize| {
        let mut p = platform(price, 53, FaultConfig::default(), NOISY_ERROR);
        let report = engine
            .session(task)
            .platform(&mut p)
            .oracle(&gold)
            .gold(gold.matches())
            .threads(threads)
            .checkpoint_dir(dir)
            .checkpoint_every(1)
            .checkpoint_keep(0)
            .run();
        let snaps = store::Snapshotter::create(dir).expect("open").list().expect("list");
        assert!(snaps.len() >= 2, "the run must cross an iteration boundary");
        (report, snaps)
    };

    let dir_pre = fresh_dir("analysis-prebuilt");
    let (report_pre, snaps_pre) = run_with(&task, &dir_pre, 1);

    let (cold_task, _, _) = setup(0.1, 53);
    let dir_cold = fresh_dir("analysis-cold");
    let (report_cold, snaps_cold) = run_with(&cold_task, &dir_cold, 8);

    assert_eq!(report_pre.deterministic_json(), report_cold.deterministic_json());
    assert_eq!(snaps_pre.len(), snaps_cold.len());

    for (sp, sc) in snaps_pre.iter().zip(&snaps_cold) {
        let text_pre = std::fs::read_to_string(sp).expect("read snapshot");
        for marker in ["word_ids", "gram_ids", "soundex_codes", "prefix_chars", "tfidf_norm"] {
            assert!(
                !text_pre.contains(marker),
                "snapshot {sp:?} leaked analysis internals ({marker})"
            );
        }
        // Nor anything else a resume does not read: no feature-cache
        // image, no trained model, no wall-clock.
        let envelope: serde::Value = serde_json::from_str(&text_pre).expect("parse snapshot");
        let payload = envelope.get("payload").and_then(|p| p.as_obj()).expect("payload");
        let keys: Vec<&str> = payload.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, RESUME_STATE_KEYS, "snapshot {sp:?} payload layout");
        let text_cold = std::fs::read_to_string(sc).expect("read snapshot");
        assert_eq!(
            text_pre.len(),
            text_cold.len(),
            "prebuilt analysis changed snapshot size ({sp:?} vs {sc:?})"
        );
        assert!(text_pre == text_cold, "snapshot bytes differ ({sp:?} vs {sc:?})");
    }

    // And a resume from the prebuilt-analysis snapshots still reproduces
    // the reference run exactly.
    let mut p_ref = platform(price, 53, FaultConfig::default(), NOISY_ERROR);
    let reference = engine
        .session(&task)
        .platform(&mut p_ref)
        .oracle(&gold)
        .gold(gold.matches())
        .run();
    let mut p_res = CrowdPlatform::new(WorkerPool::perfect(1), CrowdConfig::default());
    let resumed = engine
        .session(&task)
        .platform(&mut p_res)
        .oracle(&gold)
        .gold(gold.matches())
        .resume_from(snaps_pre.last().expect("at least one snapshot"))
        .run();
    assert_eq!(resumed.deterministic_json(), reference.deterministic_json());

    let _ = std::fs::remove_dir_all(&dir_pre);
    let _ = std::fs::remove_dir_all(&dir_cold);
}

#[test]
fn budget_exhausted_run_resumes_under_a_raised_budget_and_converges() {
    let (task, gold, price) = setup(0.1, 41);
    let dir = fresh_dir("budget");

    let mut starved = CorleoneConfig::small();
    starved.engine.budget_cents = Some(400.0);
    let mut p1 = platform(price, 41, FaultConfig::default(), CLEAN_ERROR);
    let exhausted = Engine::new(starved)
        .with_seed(41)
        .session(&task)
        .platform(&mut p1)
        .oracle(&gold)
        .gold(gold.matches())
        .checkpoint_dir(&dir)
        .checkpoint_keep(0)
        .run();
    assert_eq!(
        exhausted.termination,
        Termination::BudgetExhausted,
        "$4 must not cover a scale-0.1 run; raise the starvation margin if this fails"
    );

    // Top up the budget and continue from the last snapshot. The resumed
    // run picks up the spent-so-far ledger from the snapshot, so the new
    // budget must cover the *total* spend, not just the remainder.
    let mut topped_up = CorleoneConfig::small();
    topped_up.engine.budget_cents = None;
    let latest = store::Snapshotter::create(&dir).expect("open").latest().expect("latest");
    let mut p2 = CrowdPlatform::new(WorkerPool::perfect(1), CrowdConfig::default());
    let resumed = Engine::new(topped_up)
        .with_seed(41)
        .session(&task)
        .platform(&mut p2)
        .oracle(&gold)
        .gold(gold.matches())
        .resume_from(&latest)
        .run();
    assert!(
        matches!(resumed.termination, Termination::Converged | Termination::MaxIterations),
        "resumed run still starved: {:?}",
        resumed.termination
    );
    assert!(resumed.final_estimate.is_some(), "converged resume must carry an estimate");
    assert!(
        resumed.total_cost_cents >= exhausted.total_cost_cents,
        "resumed total spend includes the pre-interrupt ledger"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
