//! The blocking-rule sweep against an independent oracle.
//!
//! Both candidate sources evaluate the rules through one sweep over runs
//! of pairs that share the left record, so comparing the two sources no
//! longer checks rule evaluation on its own. Here both are held to the
//! string-path filter: a pair survives iff no rule matches its full
//! string-path feature vector. The sweep's `kernels.single_features`
//! count is held to what a per-pair memo computes: every feature of each
//! rule a pair reaches.

use corleone::prelude::*;
use corleone::source::{CandidateSource, CartesianScan, IndexedJoin};
use forest::{Op, Predicate, Rule};
use proptest::prelude::*;
use similarity::{Attribute, FeatureKind, Schema, Table, Value};
use std::sync::Arc;

/// Overlapping product-style names (duplicates included), so rules keep
/// and block a mix of pairs.
const CORPUS: &[&str] = &[
    "kingston hyperx 4gb memory kit",
    "kingston hyperx 4gb",
    "kingston valueram",
    "corsair vengeance 8gb memory",
    "corsair 8gb",
    "data mining",
    "data  mining",
    "databases",
];

/// Degenerate shapes: empty, whitespace-only, symbol-only, unicode.
const WEIRD: &[&str] = &["", " ", "  !!  ", "héllo wörld", "İstanbul kit", "a a b"];

fn text_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => (0..CORPUS.len()).prop_map(|i| Value::Text(CORPUS[i].to_string())),
        2 => (0..WEIRD.len()).prop_map(|i| Value::Text(WEIRD[i].to_string())),
        1 => Just(Value::Null),
    ]
}

fn number_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => (0..4i32).prop_map(|y| Value::Number(f64::from(2000 + y))),
        1 => Just(Value::Null),
    ]
}

fn rows(max: usize) -> impl Strategy<Value = Vec<Vec<Value>>> {
    prop::collection::vec((text_value(), number_value()).prop_map(|(t, n)| vec![t, n]), 0..max)
}

/// A seedless task (seeds play no part in candidate generation, and
/// skipping `MatchTask::new` lets tables be empty).
fn make_task(rows_a: Vec<Vec<Value>>, rows_b: Vec<Vec<Value>>) -> MatchTask {
    let schema = Arc::new(Schema::new(vec![Attribute::text("name"), Attribute::number("year")]));
    let a = Table::new("a", schema.clone(), rows_a);
    let b = Table::new("b", schema, rows_b);
    let vectorizer = similarity::FeatureVectorizer::fit(&a, &b);
    MatchTask {
        table_a: a,
        table_b: b,
        instruction: String::new(),
        seeds: vec![],
        vectorizer,
        analysis: Default::default(),
    }
}

/// One predicate: `(feature index, Gt?, threshold, nan_satisfies)`, the
/// feature index taken modulo the library size (every kind: set and
/// vector kinds, char kernels, numeric).
type PredSpec = (usize, bool, f64, bool);

fn pred_spec() -> impl Strategy<Value = PredSpec> {
    (0..64usize, prop_oneof![3 => Just(false), 1 => Just(true)], 0.0f64..1.0, any::<bool>())
}

/// A rule of 0–3 arbitrary predicates (a zero-predicate rule blocks
/// every pair it reaches).
fn rule_spec() -> impl Strategy<Value = Vec<PredSpec>> {
    prop::collection::vec(pred_spec(), 0..4)
}

fn rule(predicates: Vec<Predicate>) -> Rule {
    Rule { predicates, label: false, tree: 0, n_pos: 0, n_neg: 0 }
}

fn to_rule(task: &MatchTask, spec: &[PredSpec]) -> Rule {
    let n = task.n_features();
    rule(
        spec.iter()
            .map(|&(f, gt, threshold, nan_satisfies)| Predicate {
                feature: f % n,
                op: if gt { Op::Gt } else { Op::Le },
                threshold,
                nan_satisfies,
            })
            .collect(),
    )
}

fn feature_of(task: &MatchTask, kind: FeatureKind) -> usize {
    task.vectorizer.library().defs.iter().position(|d| d.kind == kind).expect("kind in library")
}

/// The oracle: every pair, row-major, whose string-path vector no rule
/// matches; and the features a per-pair memo computes over all pairs.
fn string_path(task: &MatchTask, rules: &[Rule]) -> (Vec<PairKey>, u64) {
    let mut survivors = Vec::new();
    let mut computed = 0u64;
    for a in 0..task.table_a.len() as u32 {
        for b in 0..task.table_b.len() as u32 {
            let x = task.vectorizer.vectorize(task.table_a.record(a), task.table_b.record(b));
            let mut seen = vec![false; x.len()];
            let mut blocked = false;
            for r in rules {
                for p in &r.predicates {
                    computed += u64::from(!seen[p.feature]);
                    seen[p.feature] = true;
                }
                if r.matches(&x) {
                    blocked = true;
                    break;
                }
            }
            if !blocked {
                survivors.push(PairKey::new(a, b));
            }
        }
    }
    (survivors, computed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both sources keep exactly the string-path survivors at 1/2/8
    /// threads, over mixed rules: an indexable generator (Jaccard ∧
    /// cosine, so the join plans) placed among arbitrary rules, and a
    /// rule re-reading the generator's Jaccard with another threshold.
    /// The scan counts exactly the per-pair memo's features.
    #[test]
    fn both_sources_keep_the_string_path_survivors(
        rows_a in rows(9),
        rows_b in rows(8),
        specs in prop::collection::vec(rule_spec(), 0..3),
        at in 0usize..3,
        t in 0.0f64..0.999,
    ) {
        let task = make_task(rows_a, rows_b);
        let jac = feature_of(&task, FeatureKind::JaccardWords);
        let cos = feature_of(&task, FeatureKind::CosineTfIdf);
        let le = |feature, threshold| {
            Predicate { feature, op: Op::Le, threshold, nan_satisfies: true }
        };
        let mut rules: Vec<Rule> = specs.iter().map(|s| to_rule(&task, s)).collect();
        rules.insert(at.min(rules.len()), rule(vec![le(jac, t), le(cos, 0.5)]));
        rules.push(rule(vec![le(jac, 1.0 - t)]));
        let (want, want_features) = string_path(&task, &rules);

        let scan = CartesianScan::new(&task, rules.clone());
        let join = IndexedJoin::plan(&task, &rules).expect("the generator rule is indexable");
        for threads in [1usize, 2, 8] {
            let before = task.kernel_counters();
            let got = scan.generate(Threads::new(threads));
            let features = task.kernel_counters().delta(&before).single_features;
            prop_assert_eq!(&got, &want, "scan at {} threads", threads);
            prop_assert_eq!(features, want_features, "scan features at {} threads", threads);
            prop_assert_eq!(&join.generate(Threads::new(threads)), &want, "join at {} threads", threads);
        }
    }
}

/// Fixed cases the proptest reaches only by chance: a zero-predicate rule
/// ahead of the others, a rule that blocks nothing, char-kernel and
/// numeric predicates, and `Gt` / `nan_satisfies = false` on a feature
/// another rule also reads.
#[test]
fn fixed_rule_mixes_keep_the_string_path_survivors() {
    let text = |s: &str| Value::Text(s.to_string());
    let rows = |names: &[&str]| -> Vec<Vec<Value>> {
        names
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let year = if i % 3 == 2 { Value::Null } else { Value::Number(2000.0 + i as f64) };
                vec![if n.is_empty() && i % 2 == 1 { Value::Null } else { text(n) }, year]
            })
            .collect()
    };
    let task = make_task(
        rows(&["kingston hyperx 4gb", "corsair 8gb", "", "data mining", "kingston", " "]),
        rows(&["kingston hyperx", "", "corsair vengeance 8gb", "data  mining", "héllo"]),
    );
    let f = |kind| feature_of(&task, kind);
    let pred = |feature, op, threshold, nan_satisfies| Predicate { feature, op, threshold, nan_satisfies };
    let lev = f(FeatureKind::Levenshtein);
    let jw = f(FeatureKind::JaroWinkler);
    let year = f(FeatureKind::NumRelSim);
    let jac = f(FeatureKind::JaccardWords);
    let mixes: Vec<Vec<Rule>> = vec![
        vec![rule(vec![]), rule(vec![pred(jac, Op::Le, 0.5, true)])],
        vec![
            rule(vec![pred(lev, Op::Le, 0.4, false), pred(year, Op::Gt, 0.99, true)]),
            rule(vec![pred(jac, Op::Le, 0.3, true)]),
            rule(vec![pred(jw, Op::Le, 0.8, true), pred(jac, Op::Gt, 0.9, false)]),
        ],
        vec![rule(vec![pred(jac, Op::Le, -1.0, false)]), rule(vec![pred(year, Op::Le, 0.5, true)])],
    ];
    for rules in mixes {
        let (want, want_features) = string_path(&task, &rules);
        for threads in [1usize, 2, 8] {
            let before = task.kernel_counters();
            let got = CartesianScan::new(&task, rules.clone()).generate(Threads::new(threads));
            assert_eq!(got, want, "scan at {threads} threads");
            assert_eq!(task.kernel_counters().delta(&before).single_features, want_features);
            if let Some(join) = IndexedJoin::plan(&task, &rules) {
                assert_eq!(join.generate(Threads::new(threads)), want, "join at {threads} threads");
            }
        }
    }
}
