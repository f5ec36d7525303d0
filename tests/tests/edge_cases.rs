//! Edge cases and failure injection: extreme crowd noise, minimal tables,
//! skewed-to-degenerate gold standards, and tiny budgets. The system must
//! degrade gracefully — never panic, never spend unboundedly, always
//! return a report.

use corleone::task::task_from_parts;
use corleone::{CorleoneConfig, Engine, MatchTask, Threads};
use crowd::{CrowdConfig, CrowdPlatform, GoldOracle, PairKey, WorkerPool};
use similarity::{Attribute, Schema, Table, Value};
use std::sync::Arc;

fn name_table(name: &str, rows: Vec<String>) -> Table {
    let schema = Arc::new(Schema::new(vec![Attribute::text("name")]));
    Table::new(
        name,
        schema,
        rows.into_iter().map(|s| vec![Value::Text(s)]).collect(),
    )
}

fn shared_schema_tables(n_a: usize, n_b: usize) -> (Table, Table) {
    let schema = Arc::new(Schema::new(vec![Attribute::text("name")]));
    let a = Table::new(
        "a",
        schema.clone(),
        (0..n_a).map(|i| vec![Value::Text(format!("item {i}"))]).collect(),
    );
    let b = Table::new(
        "b",
        schema,
        (0..n_b).map(|i| vec![Value::Text(format!("item {i}"))]).collect(),
    );
    (a, b)
}

#[test]
fn survives_a_nearly_adversarial_crowd() {
    let (a, b) = shared_schema_tables(20, 20);
    let task = task_from_parts(a, b, "same item", [(0, 0), (1, 1)], [(0, 19), (2, 17)]);
    let gold = GoldOracle::from_pairs((0..20).map(|i| (i, i)));
    // 45% error: barely better than coin flips.
    let mut platform = CrowdPlatform::new(
        WorkerPool::uniform(9, 0.45),
        CrowdConfig { price_cents: 1.0, seed: 1, ..Default::default() },
    );
    let report = Engine::new(CorleoneConfig::small())
        .with_seed(1)
        .session(&task)
        .platform(&mut platform)
        .oracle(&gold)
        .gold(gold.matches())
        .run();
    // No panic, a report exists, and spend stayed bounded by the phase caps.
    assert!(report.total_cost_cents > 0.0);
    assert!(report.total_cost_cents < 100_000.0);
    assert!(report.final_estimate.is_some());
}

#[test]
fn single_row_table_a_works() {
    let a = name_table("a", vec!["lonely widget".into()]);
    let b = name_table(
        "b",
        (0..10)
            .map(|i| {
                if i < 2 {
                    format!("lonely widget v{i}")
                } else {
                    format!("other thing {i}")
                }
            })
            .collect(),
    );
    let task = MatchTask::new(
        a,
        b,
        "same?",
        vec![
            (crowd::PairKey::new(0, 0), true),
            (crowd::PairKey::new(0, 1), true),
            (crowd::PairKey::new(0, 5), false),
            (crowd::PairKey::new(0, 7), false),
        ],
    );
    let gold = GoldOracle::from_pairs([(0, 0), (0, 1)]);
    let mut platform = CrowdPlatform::new(WorkerPool::perfect(3), CrowdConfig::default());
    let report = Engine::new(CorleoneConfig::small())
        .with_seed(2)
        .session(&task)
        .platform(&mut platform)
        .oracle(&gold)
        .gold(gold.matches())
        .run();
    assert!(report.final_true.unwrap().recall > 0.4);
}

#[test]
fn gold_with_only_the_seed_matches() {
    // Two real matches in the whole universe (exactly the positive seeds).
    let (a, b) = shared_schema_tables(15, 15);
    let task = task_from_parts(a, b, "same item", [(0, 0), (1, 1)], [(0, 14), (2, 12)]);
    let gold = GoldOracle::from_pairs([(0, 0), (1, 1)]);
    let mut platform = CrowdPlatform::new(WorkerPool::perfect(3), CrowdConfig::default());
    let report = Engine::new(CorleoneConfig::small())
        .with_seed(3)
        .session(&task)
        .platform(&mut platform)
        .oracle(&gold)
        .gold(gold.matches())
        .run();
    // With identical-name negatives that the oracle calls non-matches,
    // whatever is predicted must not crash metrics; recall over 2 golds is
    // well-defined.
    let t = report.final_true.unwrap();
    assert!((0.0..=1.0).contains(&t.precision));
    assert!((0.0..=1.0).contains(&t.recall));
}

#[test]
fn one_cent_budget_stops_almost_immediately() {
    let (a, b) = shared_schema_tables(25, 25);
    let task = task_from_parts(a, b, "same item", [(0, 0), (1, 1)], [(0, 24), (2, 22)]);
    let gold = GoldOracle::from_pairs((0..25).map(|i| (i, i)));
    let mut cfg = CorleoneConfig::small();
    cfg.engine.budget_cents = Some(1.0);
    let mut platform = CrowdPlatform::new(WorkerPool::perfect(3), CrowdConfig::default());
    let report = Engine::new(cfg)
        .with_seed(4)
        .session(&task)
        .platform(&mut platform)
        .oracle(&gold)
        .gold(gold.matches())
        .run();
    // One AL batch (~20 pairs × 2 answers) plus one estimator probe batch
    // is the worst-case in-flight overshoot.
    assert!(
        report.total_cost_cents <= 250.0,
        "spent {} on a 1¢ budget",
        report.total_cost_cents
    );
}

#[test]
fn all_null_attribute_does_not_panic() {
    let schema = Arc::new(Schema::new(vec![
        Attribute::text("name"),
        Attribute::number("price"),
    ]));
    let rows = |n: usize| -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| vec![Value::Text(format!("gizmo {i}")), Value::Null])
            .collect()
    };
    let a = Table::new("a", schema.clone(), rows(12));
    let b = Table::new("b", schema, rows(12));
    let task = task_from_parts(a, b, "same gizmo", [(0, 0), (1, 1)], [(0, 11), (2, 9)]);
    let gold = GoldOracle::from_pairs((0..12).map(|i| (i, i)));
    let mut platform = CrowdPlatform::new(WorkerPool::perfect(3), CrowdConfig::default());
    let report = Engine::new(CorleoneConfig::small())
        .with_seed(5)
        .session(&task)
        .platform(&mut platform)
        .oracle(&gold)
        .gold(gold.matches())
        .run();
    // The price features are all NaN; learning must still work off names.
    assert!(report.final_true.unwrap().f1 > 0.8);
}

#[test]
fn text_in_a_number_column_is_left_unanalyzed() {
    // `Table::new` checks only row arity, so a number-typed column can
    // hold text. The analysis covers exactly the text-typed attributes:
    // the cell is missing, vectorizing the pair returns, and its numeric
    // features are NaN on the analysis path and the string path alike.
    let schema = Arc::new(Schema::new(vec![
        Attribute::text("name"),
        Attribute::number("price"),
    ]));
    let row = || vec![vec![Value::Text("gizmo".into()), Value::Text("12 units".into())]];
    let a = Table::new("a", schema.clone(), row());
    let b = Table::new("b", schema, row());
    let task = task_from_parts(a, b, "same gizmo", [(0, 0), (0, 0)], [(0, 0), (0, 0)]);
    let got = task.vectorize(PairKey::new(0, 0));
    let (ra, rb) = (task.table_a.record(0), task.table_b.record(0));
    let an = task.ensure_analysis(Threads::new(1));
    assert!(an.attr_a(0, 1).is_none() && an.attr_b(0, 1).is_none());
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let want = task.vectorizer.vectorize(ra, rb);
    assert_eq!(bits(&task.vectorizer.vectorize_pre(ra, rb, an)), bits(&want));
    assert_eq!(bits(&got), bits(&want));
    for (def, x) in task.vectorizer.library().defs.iter().zip(&got) {
        if def.attr == 1 {
            assert!(x.is_nan(), "{} = {x}, expected NaN", def.name());
        }
    }
}

#[test]
fn near_duplicate_tables_with_unicode() {
    let a = name_table(
        "a",
        vec![
            "Café Müller".into(),
            "Şehir Lokantası".into(),
            "北京烤鸭店".into(),
            "Außer Haus".into(),
            "Łódź Grill".into(),
            "Smörgåsbord".into(),
            "Taverna Ψαράς".into(),
            "Пельменная".into(),
        ],
    );
    let b = name_table(
        "b",
        vec![
            "Cafe Muller".into(),
            "Sehir Lokantasi".into(),
            "北京烤鸭店 restaurant".into(),
            "Ausser Haus".into(),
            "Lodz Grill".into(),
            "Smorgasbord".into(),
            "Taverna Psaras".into(),
            "Pelmennaya".into(),
        ],
    );
    let task = task_from_parts(a, b, "same place", [(2, 2), (4, 4)], [(0, 5), (1, 7)]);
    let gold = GoldOracle::from_pairs((0..8).map(|i| (i, i)));
    let mut platform = CrowdPlatform::new(WorkerPool::perfect(3), CrowdConfig::default());
    // Must not panic on multi-byte characters anywhere in the pipeline.
    let report = Engine::new(CorleoneConfig::small())
        .with_seed(6)
        .session(&task)
        .platform(&mut platform)
        .oracle(&gold)
        .gold(gold.matches())
        .run();
    assert!(report.final_estimate.is_some());
}

#[test]
fn budget_split_respects_phase_caps() {
    let (a, b) = shared_schema_tables(30, 30);
    let task = task_from_parts(a, b, "same item", [(0, 0), (1, 1)], [(0, 29), (2, 27)]);
    let gold = GoldOracle::from_pairs((0..30).map(|i| (i, i)));
    let mut cfg = CorleoneConfig::small();
    cfg.engine.budget_cents = Some(300.0);
    cfg.engine.budget_split = Some(corleone::BudgetSplit::default());
    let mut platform = CrowdPlatform::new(WorkerPool::perfect(3), CrowdConfig::default());
    let report = Engine::new(cfg)
        .with_seed(9)
        .session(&task)
        .platform(&mut platform)
        .oracle(&gold)
        .gold(gold.matches())
        .run();
    // Matching may not exceed its cumulative cap (65% of $3) by more than
    // one in-flight batch.
    let matcher_spend: f64 = report.iterations.iter().map(|i| i.matcher_cost_cents).sum();
    assert!(
        matcher_spend <= 300.0 * 0.65 + 60.0,
        "matcher spend {matcher_spend} exceeded its allocation"
    );
    assert!(report.total_cost_cents <= 300.0 + 200.0);
}
