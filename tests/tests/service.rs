//! Multi-tenant service integration tests: the determinism contract of
//! the `service` subsystem wired through the whole pipeline.
//!
//! The acceptance bar, from the service design: any tenant's final report
//! must be **byte-identical** (`RunReport::deterministic_json`) to the
//! same task run solo through `RunSession` — at any thread count, under
//! any interleaving with other tenants, with and without fault injection,
//! and across a kill-and-restart of the whole service. Admission control
//! and incompatible-checkpoint resubmissions must surface as typed
//! errors, never panics.

use corleone::task::task_from_parts;
use corleone::{CorleoneConfig, Engine, MatchTask, RunReport};
use crowd::{CrowdConfig, CrowdPlatform, FaultConfig, GoldOracle, RetryPolicy, WorkerPool};
use datagen::GenConfig;
use service::{MatchService, ServiceConfig, ServiceError, ServiceEvent, TenantSpec};
use std::path::PathBuf;
use store::StoreError;

fn setup(name: &str, scale: f64, seed: u64) -> (MatchTask, GoldOracle, f64) {
    let ds = datagen::by_name(name, GenConfig { scale, seed }).unwrap();
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

fn platform(price_cents: f64, seed: u64, faults: FaultConfig) -> CrowdPlatform {
    CrowdPlatform::with_faults(
        WorkerPool::uniform(25, 0.05),
        CrowdConfig { price_cents, seed, ..Default::default() },
        faults,
        RetryPolicy::default(),
    )
}

fn light_faults() -> FaultConfig {
    FaultConfig { hit_expiry_prob: 0.05, abandonment_prob: 0.05, ..Default::default() }
}

/// The mixed tenant population every test submits: two datasets, distinct
/// seeds, and one tenant running under fault injection.
fn tenant_fixtures() -> Vec<(&'static str, &'static str, u64, FaultConfig)> {
    vec![
        ("rest-clean", "restaurants", 17, FaultConfig::default()),
        ("cite-clean", "citations", 23, FaultConfig::default()),
        ("rest-faulty", "restaurants", 31, light_faults()),
    ]
}

/// A tenant spec over dataset-seed `ds_seed` running with RNG seed
/// `run_seed` (kept separate so two tenants can share one table).
fn spec_over(
    run_id: &str,
    dataset: &str,
    ds_seed: u64,
    run_seed: u64,
    faults: FaultConfig,
) -> TenantSpec {
    let (task, gold, price) = setup(dataset, 0.08, ds_seed);
    let matches = gold.matches().clone();
    TenantSpec {
        run_id: run_id.to_string(),
        task,
        platform: platform(price, run_seed, faults),
        oracle: Box::new(gold),
        gold: Some(matches),
        config: CorleoneConfig::small(),
        seed: run_seed,
    }
}

fn spec_for(run_id: &str, dataset: &str, seed: u64, faults: FaultConfig) -> TenantSpec {
    spec_over(run_id, dataset, seed, seed, faults)
}

/// The solo reference: same task, same collaborators, run through
/// `RunSession` with default execution settings.
fn solo_over(dataset: &str, ds_seed: u64, run_seed: u64, faults: FaultConfig) -> RunReport {
    let (task, gold, price) = setup(dataset, 0.08, ds_seed);
    let mut p = platform(price, run_seed, faults);
    Engine::new(CorleoneConfig::small())
        .with_seed(run_seed)
        .session(&task)
        .platform(&mut p)
        .oracle(&gold)
        .gold(gold.matches())
        .run()
}

fn solo_report(dataset: &str, seed: u64, faults: FaultConfig) -> RunReport {
    solo_over(dataset, seed, seed, faults)
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("corleone-service-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn concurrent_tenants_match_solo_runs_at_every_thread_count() {
    let fixtures = tenant_fixtures();
    let references: Vec<String> = fixtures
        .iter()
        .map(|(_, ds, seed, faults)| solo_report(ds, *seed, *faults).deterministic_json())
        .collect();

    for threads in [1usize, 2, 8] {
        let mut svc = MatchService::new(ServiceConfig { threads, ..Default::default() })
            .expect("no checkpoint root to open");
        for (id, ds, seed, faults) in &fixtures {
            svc.submit(spec_for(id, ds, *seed, *faults)).expect("admitted");
        }
        svc.run_all();
        for ((id, ..), want) in fixtures.iter().zip(&references) {
            let got = svc.take_report(id).expect("finished").deterministic_json();
            assert_eq!(
                &got, want,
                "tenant {id} at {threads} threads diverged from its solo run"
            );
        }
    }
}

#[test]
fn killed_service_resumes_every_tenant_byte_identically() {
    let fixtures = tenant_fixtures();
    let references: Vec<String> = fixtures
        .iter()
        .map(|(_, ds, seed, faults)| solo_report(ds, *seed, *faults).deterministic_json())
        .collect();
    let root = fresh_dir("kill-resume");

    // First incarnation: admit everyone, run a few quanta, then "crash"
    // (drop the service mid-flight).
    let cfg = ServiceConfig { checkpoint_root: Some(root.clone()), ..Default::default() };
    let mut first = MatchService::new(cfg.clone()).expect("checkpoint root opens");
    for (id, ds, seed, faults) in &fixtures {
        first.submit(spec_for(id, ds, *seed, *faults)).expect("admitted");
    }
    let idle = first.run_ticks(4);
    assert!(!idle, "the kill must land mid-flight; shrink the tick budget");
    drop(first);

    // Second incarnation over the same checkpoint root: resubmitting the
    // same specs resumes every tenant from its newest snapshot.
    let mut second = MatchService::new(cfg).expect("checkpoint root reopens");
    for (id, ds, seed, faults) in &fixtures {
        second.submit(spec_for(id, ds, *seed, *faults)).expect("readmitted");
    }
    let events = second.poll_events();
    assert!(
        events
            .iter()
            .all(|e| matches!(e, ServiceEvent::Admitted { resuming: true, .. })),
        "every resubmission must announce it is resuming: {events:?}"
    );
    second.run_all();
    assert!(second.service_perf().tenants_resumed >= 1);
    for ((id, ..), want) in fixtures.iter().zip(&references) {
        let got = second.take_report(id).expect("finished").deterministic_json();
        assert_eq!(&got, want, "tenant {id} diverged after kill-and-resume");
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn resubmission_under_a_changed_config_is_a_typed_refusal() {
    let root = fresh_dir("fp-mismatch");
    let cfg = ServiceConfig { checkpoint_root: Some(root.clone()), ..Default::default() };
    let mut svc = MatchService::new(cfg.clone()).expect("checkpoint root opens");
    svc.submit(spec_for("tenant", "restaurants", 17, FaultConfig::default()))
        .expect("admitted");
    svc.run_all();
    drop(svc);

    // Same run id, different engine configuration ⇒ different run
    // fingerprint ⇒ the stamped snapshots refuse to resume.
    let mut changed = spec_for("tenant", "restaurants", 17, FaultConfig::default());
    changed.config.matcher.batch_size += 1;
    let mut svc = MatchService::new(cfg).expect("checkpoint root reopens");
    match svc.submit(changed) {
        Err(ServiceError::Store(StoreError::FingerprintMismatch { expected, found, .. })) => {
            assert!(found.is_some(), "the snapshot carries a fingerprint");
            assert_ne!(Some(expected), found);
        }
        other => panic!("expected FingerprintMismatch, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn durable_service_rejects_unsafe_run_ids_and_creates_nothing() {
    // Run ids become directory names under the checkpoint root, so ids
    // that could escape `<root>/runs/` are refused before any directory
    // is created.
    let root = fresh_dir("bad-ids");
    let cfg = ServiceConfig { checkpoint_root: Some(root.clone()), ..Default::default() };
    let mut svc = MatchService::new(cfg).expect("checkpoint root opens");
    for bad in ["..", "a/b"] {
        match svc.submit(spec_for(bad, "restaurants", 17, FaultConfig::default())) {
            Err(ServiceError::Store(StoreError::InvalidRunId { run_id })) => {
                assert_eq!(run_id, bad)
            }
            other => panic!("expected InvalidRunId for {bad:?}, got {other:?}"),
        }
    }
    assert!(!svc.has_live_tenants());
    let names = |dir: &std::path::Path| -> Vec<String> {
        let entries = std::fs::read_dir(dir).expect("list dir");
        entries.map(|e| e.expect("entry").file_name().to_string_lossy().into_owned()).collect()
    };
    assert_eq!(names(&root), ["runs"], "only <root>/runs exists");
    assert!(names(&root.join("runs")).is_empty(), "no run directory was created");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn same_table_tenants_share_one_analysis_build() {
    let mut svc = MatchService::new(ServiceConfig::default()).expect("no checkpoint root");
    // Same dataset seed (identical tables + vectorizer), different run
    // seeds: the runs differ, the analysis layer is content-identical.
    svc.submit(spec_over("alpha", "restaurants", 17, 17, FaultConfig::default()))
        .expect("admitted");
    svc.submit(spec_over("beta", "restaurants", 17, 99, FaultConfig::default()))
        .expect("admitted");
    // Another dataset seed: other tables, so an analysis of its own.
    svc.submit(spec_over("gamma", "restaurants", 18, 17, FaultConfig::default()))
        .expect("admitted");
    svc.run_all();
    let perf = svc.service_perf();
    assert_eq!(perf.analysis_cache_misses, 2, "the first and the third tenant build");
    assert_eq!(perf.analysis_cache_hits, 1, "second tenant adopts the first's build");
    // Sharing must not leak into run bytes: the adopting tenant still
    // matches its solo run (which builds the analysis itself).
    let beta = svc.take_report("beta").expect("finished").deterministic_json();
    let solo = solo_over("restaurants", 17, 99, FaultConfig::default()).deterministic_json();
    assert_eq!(beta, solo);
}

#[test]
fn queued_tenants_run_after_active_ones_and_still_match_solo() {
    let mut svc = MatchService::new(ServiceConfig { max_active: 1, ..Default::default() })
        .expect("no checkpoint root");
    svc.submit(spec_for("front", "restaurants", 17, FaultConfig::default()))
        .expect("activates");
    svc.submit(spec_for("back", "restaurants", 99, FaultConfig::default()))
        .expect("queues");
    let events = svc.poll_events();
    assert!(matches!(
        events.first(),
        Some(ServiceEvent::Admitted { queued: false, .. })
    ));
    assert!(matches!(
        events.get(1),
        Some(ServiceEvent::Admitted { queued: true, .. })
    ));
    svc.run_all();
    let back = svc.take_report("back").expect("finished").deterministic_json();
    let solo = solo_report("restaurants", 99, FaultConfig::default()).deterministic_json();
    assert_eq!(back, solo, "a queued tenant's bytes must match its solo run");
}
