//! The tentpole guarantee of the execution layer: a run's result is a
//! function of the task and the seed alone — never of the worker-thread
//! count, and never of whether a stepping-API caller passes a feature
//! cache.

use corleone::prelude::*;
use corleone::CheckpointPlan;
use corleone::task::task_from_parts;
use proptest::prelude::*;
use similarity::{Attribute, Schema, Table, Value};
use std::sync::Arc;

fn toy_task() -> (MatchTask, GoldOracle) {
    let schema = Arc::new(Schema::new(vec![
        Attribute::text("name"),
        Attribute::text("city"),
    ]));
    let rows = |prefix: &str, n: usize| -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| {
                vec![
                    Value::Text(format!("{prefix} shop number {i}")),
                    Value::Text(if i % 3 == 0 { "madison" } else { "chicago" }.into()),
                ]
            })
            .collect()
    };
    let a = Table::new("a", schema.clone(), rows("corner", 24));
    let b = Table::new("b", schema, rows("Corner", 24));
    let task = task_from_parts(a, b, "same shop?", [(0, 0), (1, 1)], [(0, 23), (2, 19)]);
    let gold = GoldOracle::from_pairs((0..24).map(|i| (i, i)));
    (task, gold)
}

fn run_json(task: &MatchTask, gold: &GoldOracle, seed: u64, threads: usize) -> String {
    let mut platform = CrowdPlatform::new(WorkerPool::perfect(3), CrowdConfig::default());
    let engine = Engine::new(CorleoneConfig::small());
    engine
        .session(task)
        .platform(&mut platform)
        .oracle(gold)
        .gold(gold.matches())
        .seed(seed)
        .threads(threads)
        .run()
        .deterministic_json()
}

/// The same run driven through the stepping API with a caller-owned
/// feature cache of `capacity` entries.
fn stepped_json(
    task: &MatchTask,
    gold: &GoldOracle,
    seed: u64,
    threads: usize,
    capacity: usize,
) -> String {
    let mut platform = CrowdPlatform::new(WorkerPool::perfect(3), CrowdConfig::default());
    let engine = Engine::new(CorleoneConfig::small());
    let cache = FeatureCache::with_capacity(capacity);
    let (threads, g) = (Threads::new(threads), Some(gold.matches()));
    let mut state = engine
        .start_run(task, &mut platform, gold, g, threads, Some(&cache), seed, CheckpointPlan::none())
        .expect("start");
    while !state.is_done() {
        engine
            .step_run(&mut state, task, &mut platform, gold, g, threads, Some(&cache))
            .expect("step");
    }
    let report = engine.finish_run(state, task, &mut platform, g, threads, Some(&cache));
    assert!(report.perf.cache.misses > 0, "the cache must have been consulted");
    report.deterministic_json()
}

#[test]
fn report_is_byte_identical_at_1_2_and_8_threads() {
    let (task, gold) = toy_task();
    let t1 = run_json(&task, &gold, 7, 1);
    let t2 = run_json(&task, &gold, 7, 2);
    let t8 = run_json(&task, &gold, 7, 8);
    assert_eq!(t1, t2, "2 threads diverged from serial");
    assert_eq!(t1, t8, "8 threads diverged from serial");
}

#[test]
fn cache_configuration_never_changes_results() {
    use corleone::cache::DEFAULT_CACHE_CAPACITY;
    let (task, gold) = toy_task();
    let session = run_json(&task, &gold, 11, 4);
    let cached = stepped_json(&task, &gold, 11, 4, DEFAULT_CACHE_CAPACITY);
    let tiny = stepped_json(&task, &gold, 11, 4, 8); // constant eviction pressure
    assert_eq!(session, cached);
    assert_eq!(session, tiny);
}

/// With a fully zeroed `FaultConfig`, the fault RNG is never drawn: the
/// run's deterministic JSON must be byte-identical to a platform built
/// without the fault layer at all (pay-for-what-you-use).
#[test]
fn zeroed_fault_config_is_byte_identical_to_plain_platform() {
    use crowd::{FaultConfig, RetryPolicy};
    let (task, gold) = toy_task();
    let engine = Engine::new(CorleoneConfig::small());
    let run = |mut platform: CrowdPlatform| {
        engine
            .session(&task)
            .platform(&mut platform)
            .oracle(&gold)
            .gold(gold.matches())
            .seed(13)
            .threads(4)
            .run()
            .deterministic_json()
    };
    let plain = run(CrowdPlatform::new(WorkerPool::uniform(3, 0.1), CrowdConfig::default()));
    let zeroed = run(CrowdPlatform::with_faults(
        WorkerPool::uniform(3, 0.1),
        CrowdConfig::default(),
        FaultConfig::default(),
        RetryPolicy::default(),
    ));
    assert_eq!(plain, zeroed, "disabled fault layer must cost nothing, change nothing");
}

/// With faults *enabled*, the report — including the fault counters,
/// which `deterministic_json` leaves out along with the rest of `perf` — must
/// still be a function of the seeds alone, never of the thread count.
#[test]
fn faulty_run_is_thread_count_invariant() {
    use corleone::engine::RunReport;
    use crowd::{FaultConfig, FaultStats, RetryPolicy};
    let (task, gold) = toy_task();
    let engine = Engine::new(CorleoneConfig::small());
    let faults = FaultConfig {
        hit_expiry_prob: 0.2,
        abandonment_prob: 0.1,
        outage_prob: 0.05,
        seed: 99,
        ..Default::default()
    };
    let run = |threads: usize| -> (String, FaultStats) {
        let mut platform = CrowdPlatform::with_faults(
            WorkerPool::uniform(3, 0.1),
            CrowdConfig::default(),
            faults,
            RetryPolicy::default(),
        );
        let report: RunReport = engine
            .session(&task)
            .platform(&mut platform)
            .oracle(&gold)
            .gold(gold.matches())
            .seed(17)
            .threads(threads)
            .run();
        (report.deterministic_json(), report.perf.faults)
    };
    let (j1, f1) = run(1);
    let (j2, f2) = run(2);
    let (j8, f8) = run(8);
    assert_eq!(j1, j2, "2 threads diverged from serial under faults");
    assert_eq!(j1, j8, "8 threads diverged from serial under faults");
    assert_eq!(f1, f2, "fault counters diverged at 2 threads");
    assert_eq!(f1, f8, "fault counters diverged at 8 threads");
    assert!(f1.any(), "the fault config must actually inject faults");
}

proptest! {
    // Full engine runs are not cheap; a handful of random seeds is plenty
    // to catch a scheduling-dependent code path.
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn any_seed_is_thread_count_invariant(seed in 0u64..1_000_000) {
        let (task, gold) = toy_task();
        let serial = run_json(&task, &gold, seed, 1);
        let parallel = run_json(&task, &gold, seed, 8);
        prop_assert_eq!(serial, parallel);
    }
}
