//! Property-based equivalence of the two candidate sources.
//!
//! The determinism contract for the blocking redesign: [`IndexedJoin`]
//! must produce a candidate list **byte-identical** (same pairs, same
//! row-major order) to [`CartesianScan`] — the equivalence oracle — over
//! arbitrary tables and rules, at any thread count. Tables here include
//! the nasty cases: empty strings, whitespace-only values, nulls,
//! unicode, duplicated rows, and empty tables; and short strings over a
//! small alphabet, so prefixes, substrings, duplicates and
//! punctuation-only values are common.

use corleone::prelude::*;
use corleone::source::{CandidateSource, CartesianScan, IndexedJoin, PlannedSource};
use forest::{Op, Predicate, Rule};
use proptest::prelude::*;
use similarity::{Attribute, FeatureKind, Schema, Table, Value};
use std::sync::Arc;

/// Overlapping product-style names, so joins have non-trivial output.
const CORPUS: &[&str] = &[
    "kingston hyperx 4gb memory kit",
    "kingston hyperx 4gb",
    "kingston valueram",
    "corsair vengeance 8gb memory",
    "corsair 8gb",
    "samsung evo ssd 500",
    "samsung evo",
    "seagate barracuda 2tb drive",
    "data mining",
    "data  mining",
    "databases",
];

/// Degenerate shapes: empty, whitespace-only, symbol-only, unicode.
const WEIRD: &[&str] = &["", " ", "  !!  ", "héllo wörld", "a a b"];

/// A small alphabet: a letter pair, a multibyte letter, a blank and a
/// punctuation mark.
const ALPHABET: &[char] = &['a', 'b', 'é', ' ', '!'];

/// Text values with adversarial shapes for tokenization and analysis.
fn text_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => (0..CORPUS.len()).prop_map(|i| Value::Text(CORPUS[i].to_string())),
        1 => (0..WEIRD.len()).prop_map(|i| Value::Text(WEIRD[i].to_string())),
        2 => prop::collection::vec(0..ALPHABET.len(), 0..6)
            .prop_map(|cs| Value::Text(cs.into_iter().map(|c| ALPHABET[c]).collect())),
        1 => Just(Value::Null),
    ]
}

fn rows(max: usize) -> impl Strategy<Value = Vec<Vec<Value>>> {
    prop::collection::vec(text_value().prop_map(|v| vec![v]), 0..max)
}

/// Build a seedless task directly (seeds are irrelevant to candidate
/// generation, and skipping `MatchTask::new` lets tables be empty).
fn make_task(rows_a: Vec<Vec<Value>>, rows_b: Vec<Vec<Value>>) -> MatchTask {
    let schema = Arc::new(Schema::new(vec![Attribute::text("name")]));
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

/// Indexable feature kinds present in the single-text-attr library.
const INDEXABLE: &[FeatureKind] = &[
    FeatureKind::JaccardWords,
    FeatureKind::Jaccard3Grams,
    FeatureKind::DiceWords,
    FeatureKind::OverlapWords,
    FeatureKind::CosineTfIdf,
    FeatureKind::ExactMatch,
    FeatureKind::Soundex,
    FeatureKind::PrefixSim,
    FeatureKind::Containment,
];

fn feature_of(task: &MatchTask, kind: FeatureKind) -> usize {
    task.vectorizer
        .library()
        .defs
        .iter()
        .position(|d| d.kind == kind)
        .expect("kind present in text library")
}

/// An indexable rule: 1–3 predicates over indexable kinds, each with
/// `nan_satisfies` drawn either way.
fn indexable_rule() -> impl Strategy<Value = Vec<(usize, f64, bool)>> {
    prop::collection::vec((0..INDEXABLE.len(), 0.0f64..0.999, any::<bool>()), 1..4)
}

fn to_rule(task: &MatchTask, spec: &[(usize, f64, bool)]) -> Rule {
    Rule {
        predicates: spec
            .iter()
            .map(|&(ki, t, nan_satisfies)| Predicate {
                feature: feature_of(task, INDEXABLE[ki]),
                op: Op::Le,
                threshold: t,
                nan_satisfies,
            })
            .collect(),
        label: false,
        tree: 0,
        n_pos: 0,
        n_neg: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The tentpole property: indexed == scan, byte-for-byte, at 1/2/8
    /// threads, over arbitrary tables and 1–2 indexable rules.
    #[test]
    fn indexed_join_is_byte_identical_to_scan(
        rows_a in rows(14),
        rows_b in rows(10),
        rule_specs in prop::collection::vec(indexable_rule(), 1..3),
    ) {
        let task = make_task(rows_a, rows_b);
        let rules: Vec<Rule> = rule_specs.iter().map(|s| to_rule(&task, s)).collect();
        let join = IndexedJoin::plan(&task, &rules)
            .expect("all-indexable rules must plan an indexed join");
        let want = CartesianScan::new(&task, rules.clone()).generate(Threads::new(1));
        for threads in [1usize, 2, 8] {
            let got = join.generate(Threads::new(threads));
            prop_assert_eq!(&got, &want, "divergence at {} threads", threads);
        }
        // Row-major order invariant.
        prop_assert!(want.windows(2).all(|w| w[0] < w[1]));
    }

    /// Planner fallback: a rule set containing only unindexable rules
    /// routes to the scan and produces the same survivors either way
    /// (trivially — but the planner must not panic or misroute).
    #[test]
    fn unindexable_rules_fall_back_to_scan(
        rows_a in rows(8),
        rows_b in rows(6),
        threshold in 0.0f64..0.999,
    ) {
        let task = make_task(rows_a, rows_b);
        let lev = feature_of(&task, FeatureKind::Levenshtein);
        let rule = Rule {
            predicates: vec![Predicate {
                feature: lev,
                op: Op::Le,
                threshold,
                nan_satisfies: true,
            }],
            label: false,
            tree: 0,
            n_pos: 0,
            n_neg: 0,
        };
        let planned = corleone::source::plan_blocking_source(&task, std::slice::from_ref(&rule));
        prop_assert!(matches!(planned, PlannedSource::Cartesian(_)));
        let a = planned.generate(Threads::new(2));
        let b = CartesianScan::new(&task, vec![rule]).generate(Threads::new(1));
        prop_assert_eq!(a, b);
    }

    /// The planned source (whatever the planner picks) is itself
    /// thread-count deterministic.
    #[test]
    fn planned_source_is_thread_deterministic(
        rows_a in rows(10),
        rows_b in rows(8),
        spec in indexable_rule(),
    ) {
        let task = make_task(rows_a, rows_b);
        let rules = vec![to_rule(&task, &spec)];
        let planned = corleone::source::plan_blocking_source(&task, &rules);
        let base = planned.generate(Threads::new(1));
        for threads in [2usize, 8] {
            prop_assert_eq!(&planned.generate(Threads::new(threads)), &base);
        }
    }
}
