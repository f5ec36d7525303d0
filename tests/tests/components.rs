//! Cross-crate component integration: blocker ↔ datagen, label-cache reuse
//! across modules, baselines vs. the hands-off pipeline.

use corleone::ruleeval::RuleEvalConfig;
use corleone::task::task_from_parts;
use corleone::{
    locate_difficult_pairs, run_active_learning, run_blocker, CandidateSet, CorleoneConfig,
    LocatorConfig, MatchTask, RunEnv, Threads,
};
use crowd::{CrowdConfig, CrowdPlatform, GoldOracle, WorkerPool};
use datagen::GenConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn citations_setup(scale: f64, seed: u64) -> (MatchTask, GoldOracle, CrowdPlatform) {
    let ds = datagen::citations::generate(GenConfig { scale, seed });
    let task = task_from_parts(
        ds.table_a.clone(),
        ds.table_b.clone(),
        &ds.instruction,
        ds.seeds.positive,
        ds.seeds.negative,
    );
    let gold = GoldOracle::from_pairs(ds.gold.iter().copied());
    let platform = CrowdPlatform::new(
        WorkerPool::uniform(25, 0.05),
        CrowdConfig { price_cents: ds.price_cents, seed, ..Default::default() },
    );
    (task, gold, platform)
}

#[test]
fn blocker_keeps_most_gold_on_citations() {
    let (task, gold, mut platform) = citations_setup(0.03, 21);
    let cfg = CorleoneConfig { ..Default::default() };
    let mut blocker_cfg = cfg.blocker;
    blocker_cfg.t_b = 40_000;
    let mut rng = StdRng::seed_from_u64(21);
    let out = run_blocker(
        &task,
        &mut platform,
        &gold,
        &blocker_cfg,
        &cfg.matcher,
        &mut rng,
        &RunEnv::default(),
    );
    assert!(out.report.triggered);
    assert!(!out.applied_rules.is_empty());
    let recall = corleone::metrics::blocking_recall(out.candidates.pairs(), gold.matches());
    assert!(recall > 0.8, "blocking recall {recall}");
    // Applied rules must agree with the umbrella set: no surviving pair
    // may be covered by any applied rule.
    for (i, &pair) in out.candidates.pairs().iter().enumerate().step_by(97) {
        let x = task.vectorize(pair);
        assert!(
            !out.applied_rules.iter().any(|r| r.matches(&x)),
            "pair {i} survived but is covered by an applied rule"
        );
    }
}

#[test]
fn label_cache_reused_across_modules() {
    // Labels bought during active learning make later rule evaluation
    // cheaper: run the locator twice and check the second pass is free.
    let (task, gold, mut platform) = citations_setup(0.012, 22);
    let cand = CandidateSet::full_cartesian(&task);
    let seeds = task.seed_vectors();
    let mut rng = StdRng::seed_from_u64(22);
    let cfg = CorleoneConfig::small();
    let learn = run_active_learning(
        &cand,
        &seeds,
        &mut platform,
        &gold,
        &cfg.matcher,
        &mut rng,
        Threads::auto(),
    );
    let known = corleone::ruleeval::label_pool(cand.len(), learn.crowd_labels());
    let within: Vec<usize> = (0..cand.len()).collect();
    let run_locator = |platform: &mut CrowdPlatform, rng: &mut StdRng| {
        locate_difficult_pairs(
            &cand,
            &within,
            &learn.forest,
            &known,
            platform,
            &gold,
            &LocatorConfig::default(),
            &RuleEvalConfig::default(),
            rng,
            &RunEnv::default(),
        )
    };
    let mut rng_first = StdRng::seed_from_u64(122);
    let _first = run_locator(&mut platform, &mut rng_first);
    let cents_after_first = platform.ledger().total_cents;
    let mut rng_second = StdRng::seed_from_u64(122);
    let _second = run_locator(&mut platform, &mut rng_second);
    let second_cost = platform.ledger().total_cents - cents_after_first;
    assert_eq!(
        second_cost, 0.0,
        "identical locator pass must be served from the label cache"
    );
}

#[test]
fn corleone_outperforms_baseline1_on_citations() {
    let ds = datagen::citations::generate(GenConfig { scale: 0.02, seed: 23 });
    let task = task_from_parts(
        ds.table_a.clone(),
        ds.table_b.clone(),
        &ds.instruction,
        ds.seeds.positive,
        ds.seeds.negative,
    );
    let gold = GoldOracle::from_pairs(ds.gold.iter().copied());
    let mut platform = CrowdPlatform::new(
        WorkerPool::uniform(25, 0.05),
        CrowdConfig { price_cents: 1.0, seed: 23, ..Default::default() },
    );
    let report = corleone::Engine::new(CorleoneConfig::default())
        .with_seed(23)
        .session(&task)
        .platform(&mut platform)
        .oracle(&gold)
        .gold(gold.matches())
        .run();
    let corleone_f1 = report.final_true.unwrap().f1;
    let b1 = baselines::baseline1::run(
        &task,
        "citations",
        &gold,
        report.total_pairs_labeled as usize,
        23,
    );
    assert!(
        corleone_f1 > b1.prf.f1 - 0.02,
        "corleone {corleone_f1} must not lose to baseline1 {}",
        b1.prf.f1
    );
}

#[test]
fn forest_rules_route_like_forest_on_real_features() {
    // The rule/tree agreement property on *real* similarity vectors
    // (NaNs from missing fields included), across crates.
    let (task, gold, mut platform) = citations_setup(0.012, 24);
    let cand = CandidateSet::full_cartesian(&task);
    let seeds = task.seed_vectors();
    let mut rng = StdRng::seed_from_u64(24);
    let learn = run_active_learning(
        &cand,
        &seeds,
        &mut platform,
        &gold,
        &CorleoneConfig::small().matcher,
        &mut rng,
        Threads::auto(),
    );
    for (ti, tree) in learn.forest.trees().iter().enumerate() {
        let rules = forest::rules::extract_tree_rules(tree, ti);
        for i in (0..cand.len()).step_by(31) {
            let x = cand.row(i);
            let hits: Vec<_> = rules.iter().filter(|r| r.matches(&x)).collect();
            assert_eq!(hits.len(), 1, "tree {ti}, pair {i}");
            assert_eq!(hits[0].label, tree.predict(&x));
        }
    }
}
