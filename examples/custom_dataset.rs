//! The "crowdsourcing for the masses" scenario (paper §1): a journalist
//! wants to match two lists of political donors and can pay the crowd a
//! modest amount, but cannot write code or blocking rules.
//!
//! This example shows the full journey with a *custom* schema (the three
//! built-in datasets are not special): build tables from raw rows, supply
//! the instruction and four examples, set a hard budget, and run.
//!
//! Run with: `cargo run --release --example custom_dataset`

use corleone::task::task_from_parts;
use corleone::{CorleoneConfig, Engine};
use crowd::{CrowdConfig, CrowdPlatform, GoldOracle, WorkerPool};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use similarity::{Attribute, Schema, Table, Value};
use std::sync::Arc;

/// Donor lists: name, employer, city, amount.
fn donor_tables() -> (Table, Table, GoldOracle) {
    let schema = Arc::new(Schema::new(vec![
        Attribute::text("name"),
        Attribute::text("employer"),
        Attribute::text("city"),
        Attribute::number("amount"),
    ]));
    let first = ["Mary", "John", "Ana", "Wei", "Omar", "Sofia", "Liam", "Noah"];
    let last = ["Keller", "Osei", "Tanaka", "Alvarez", "Novak", "Okafor", "Lindqvist", "Haddad"];
    let employers = ["Acme Corp", "City Hospital", "Lakeview School", "Self employed", "Harbor Logistics"];
    let cities = ["Springfield", "Riverton", "Lakewood"];

    let mut rng = StdRng::seed_from_u64(11);
    let mut rows_a = Vec::new();
    for i in 0..60 {
        rows_a.push(vec![
            Value::Text(format!("{} {}", first[i % 8], last[(i / 8) % 8])),
            Value::Text(employers[i % 5].to_string()),
            Value::Text(cities[i % 3].to_string()),
            Value::Number(((i as f64) * 13.0) % 990.0 + 10.0),
        ]);
    }
    // List B: 35 of the 60 donors reappear with formatting quirks, plus
    // 20 fresh donors.
    let mut rows_b = Vec::new();
    let mut gold = Vec::new();
    for (bid, aid) in (0..35usize).enumerate() {
        let a = &rows_a[aid];
        let name = a[0].as_text().unwrap();
        let (f, l) = name.split_once(' ').unwrap();
        let initial: String = f.chars().take(1).collect();
        let quirky = if bid % 2 == 0 {
            format!("{l}, {f}")
        } else {
            format!("{initial}. {l}")
        };
        rows_b.push(vec![
            Value::Text(quirky),
            a[1].clone(),
            a[2].clone(),
            Value::Number(a[3].as_number().unwrap() + rng.gen_range(-0.5..0.5)),
        ]);
        gold.push((aid as u32, bid as u32));
    }
    for i in 0..20 {
        rows_b.push(vec![
            Value::Text(format!("{} {}", first[(i + 3) % 8], last[(i + 5) % 8])),
            Value::Text(employers[(i + 2) % 5].to_string()),
            Value::Text(cities[(i + 1) % 3].to_string()),
            Value::Number(rng.gen_range(10.0..1000.0)),
        ]);
    }
    let a = Table::new("donors_2022", schema.clone(), rows_a);
    let b = Table::new("donors_2023", schema, rows_b);
    (a, b, GoldOracle::from_pairs(gold))
}

fn main() {
    let (table_a, table_b, gold) = donor_tables();
    let task = task_from_parts(
        table_a,
        table_b,
        "These are political donation records; match if they are the same \
         person (names may be abbreviated or reordered).",
        [(0, 0), (1, 1)],
        [(0, 40), (7, 3)],
    );

    let workers = WorkerPool::uniform(30, 0.05);
    let mut platform = CrowdPlatform::new(workers, CrowdConfig { price_cents: 1.0, seed: 3, ..Default::default() });

    // The journalist caps spend at $5 (paper §3: "run until a budget has
    // been exhausted" is a supported mode).
    let mut cfg = CorleoneConfig::small();
    cfg.engine.budget_cents = Some(500.0);
    let report = Engine::new(cfg)
        .with_seed(3)
        .session(&task)
        .platform(&mut platform)
        .oracle(&gold)
        .gold(gold.matches())
        .run();

    println!("donor matches found: {}", report.predicted_matches.len());
    for p in report.predicted_matches.iter().take(8) {
        println!(
            "  {:24} ↔ {}",
            task.table_a.record(p.a).value(0).to_string(),
            task.table_b.record(p.b).value(0),
        );
    }
    if let Some(t) = report.final_true {
        println!(
            "accuracy: P={:.1}% R={:.1}% F1={:.1}%",
            t.precision * 100.0,
            t.recall * 100.0,
            t.f1 * 100.0
        );
    }
    println!(
        "spent ${:.2} of the $5.00 budget ({} pairs labeled)",
        report.total_cost_dollars(),
        report.total_pairs_labeled
    );
}
