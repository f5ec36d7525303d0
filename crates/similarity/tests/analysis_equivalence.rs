//! Property tests for the precomputed-analysis kernels: for arbitrary
//! (unicode-ish) inputs, every analysis-path feature must equal the
//! string-based reference **exactly** — `f64::to_bits` equality, NaN
//! included — covering empty strings, missing values, and mixed schemas.
//! This is the executable form of the bit-identity contract documented in
//! `similarity::analysis`.

use proptest::collection::vec;
use proptest::prelude::*;
use similarity::{Attribute, FeatureVectorizer, Schema, Table, Value};
use std::sync::Arc;

fn any_text() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-z0-9 ]{0,24}",
        "[A-Za-z0-9 ,.'!#-]{0,24}",
        Just(String::new()),
        Just("   ".to_string()),
        any::<String>().prop_map(|s| s.chars().take(12).collect()),
    ]
}

fn any_text_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any_text().prop_map(Value::Text),
        any_text().prop_map(Value::Text),
        any_text().prop_map(Value::Text),
        Just(Value::Null),
    ]
}

fn any_num_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-1000i32..1000).prop_map(|n| Value::Number(f64::from(n) / 4.0)),
        Just(Value::Null),
    ]
}

fn tables(rows_a: Vec<(Value, Value)>, rows_b: Vec<(Value, Value)>) -> (Table, Table) {
    let schema = Arc::new(Schema::new(vec![
        Attribute::text("t"),
        Attribute::number("n"),
    ]));
    let to_rows = |rows: Vec<(Value, Value)>| -> Vec<Vec<Value>> {
        rows.into_iter().map(|(t, n)| vec![t, n]).collect()
    };
    (
        Table::new("a", schema.clone(), to_rows(rows_a)),
        Table::new("b", schema, to_rows(rows_b)),
    )
}

fn assert_all_pairs_bitwise(a: &Table, b: &Table) -> Result<(), TestCaseError> {
    assert_all_pairs_bitwise_at(a, b, 1)
}

fn assert_all_pairs_bitwise_at(
    a: &Table,
    b: &Table,
    threads: usize,
) -> Result<(), TestCaseError> {
    let vz = FeatureVectorizer::fit(a, b);
    let an = vz.analyze(a, b, exec::Threads::new(threads));
    for ra in &a.records {
        for rb in &b.records {
            let want = vz.vectorize(ra, rb);
            let got = vz.vectorize_pre(ra, rb, &an);
            prop_assert_eq!(got.len(), want.len());
            for (fi, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "feature {} ({}) diverged on pair ({:?}, {:?}): pre={} ref={}",
                    fi,
                    vz.library().defs[fi].name(),
                    ra.value(0),
                    rb.value(0),
                    g,
                    w
                );
                let single = vz.feature_pre(fi, ra, rb, &an);
                prop_assert_eq!(single.to_bits(), w.to_bits(), "single-feature path diverged");
            }
        }
    }
    Ok(())
}

/// Inputs crafted to stress the char-level kernels: combining marks
/// (dotted vs decomposed 'i̇'), length-changing lowercasing ('İ'),
/// Greek final-sigma context sensitivity, and strings long enough to
/// cross the 64- and 128-char Myers word boundaries.
fn char_heavy_text() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-cA-C]{55,75}",
        "[a-z ]{120,140}",
        "[İIi\u{307}Σσςée\u{301}a]{0,12}",
        "[a-zA-ZΑ-Ωα-ω ]{0,20}",
        Just(String::new()),
        Just("İΣΟΣ ΟΔΟΣ".to_string()),
    ]
}

fn char_heavy_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        char_heavy_text().prop_map(Value::Text),
        char_heavy_text().prop_map(Value::Text),
        char_heavy_text().prop_map(Value::Text),
        Just(Value::Null),
    ]
}

/// Values skewed toward collisions: a tiny alphabet plus a handful of
/// literal strings repeated across rows. This drives the value-dedup
/// path (shared `value_id`s, dedup ranks) and duplicate tokens within
/// one value — the cases where arena segment sharing could go wrong.
fn duplicate_heavy_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        "[ab ]{0,16}".prop_map(Value::Text),
        Just(Value::Text("acme acme acme".into())),
        Just(Value::Text("acme".into())),
        Just(Value::Text(String::new())),
        Just(Value::Null),
        char_heavy_text().prop_map(Value::Text),
    ]
}

proptest! {
    #[test]
    fn analysis_path_is_bit_identical(
        rows_a in vec((any_text_value(), any_num_value()), 1..5),
        rows_b in vec((any_text_value(), any_num_value()), 1..5),
    ) {
        let (a, b) = tables(rows_a, rows_b);
        assert_all_pairs_bitwise(&a, &b)?;
    }

    #[test]
    fn char_kernels_bit_identical_across_threads(
        rows_a in vec((char_heavy_value(), any_num_value()), 1..4),
        rows_b in vec((char_heavy_value(), any_num_value()), 1..4),
    ) {
        let (a, b) = tables(rows_a, rows_b);
        for threads in [1, 2, 8] {
            assert_all_pairs_bitwise_at(&a, &b, threads)?;
        }
    }

    /// The arena build must be deterministic down to slab *offsets*, not
    /// just values: a parallel build with 8 workers must produce byte-for-
    /// byte the same `TableAnalysis` (headers, u32/f64/i16/char/text
    /// slabs) as a serial build, over adversarial unicode, empty,
    /// missing, and duplicate-heavy inputs. Offset identity is what makes
    /// analysis adoption across the service's content-addressed registry
    /// safe regardless of each tenant's thread count.
    #[test]
    fn arena_slabs_identical_across_threads(
        rows_a in vec((duplicate_heavy_value(), any_num_value()), 1..6),
        rows_b in vec((duplicate_heavy_value(), any_num_value()), 1..6),
    ) {
        let (a, b) = tables(rows_a, rows_b);
        let vz = FeatureVectorizer::fit(&a, &b);
        let an1 = vz.analyze(&a, &b, exec::Threads::new(1));
        let an8 = vz.analyze(&a, &b, exec::Threads::new(8));
        prop_assert_eq!(&an1.a, &an8.a);
        prop_assert_eq!(&an1.b, &an8.b);
        prop_assert_eq!(&an1.stats, &an8.stats);
        // And the views read back bit-identically to the string path on
        // both builds.
        assert_all_pairs_bitwise_at(&a, &b, 1)?;
        assert_all_pairs_bitwise_at(&a, &b, 8)?;
    }
}

#[test]
fn edge_cases_are_bit_identical() {
    // Deliberate edges: empty strings, whitespace-only, punctuation-only
    // (normalizes to empty), missing values, single chars, duplicated
    // tokens, and mixed-script text.
    let texts = [
        Value::Text(String::new()),
        Value::Text("   ".into()),
        Value::Text("!!! ---".into()),
        Value::Text("a".into()),
        Value::Text("a a a b".into()),
        Value::Null,
        Value::Text("Kingston HyperX 4GB kit".into()),
        Value::Text("kingston hyperx".into()),
        Value::Text("προϊόν 4gb".into()),
        Value::Text("123 456".into()),
        // Length-changing lowercase and decomposed combining marks.
        Value::Text("İstanbul KIT".into()),
        Value::Text("i\u{307}stanbul kit".into()),
        // Crosses the 64-char Myers word boundary (65 chars, one word of
        // pattern bits plus a carry into the second block).
        Value::Text("a".repeat(65)),
        Value::Text(format!("{}b", "a".repeat(64))),
        // Well past two blocks.
        Value::Text("xy".repeat(70)),
    ];
    let rows: Vec<(Value, Value)> = texts
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let n = if i % 3 == 0 { Value::Null } else { Value::Number(i as f64) };
            (t.clone(), n)
        })
        .collect();
    let (a, b) = tables(rows.clone(), rows);
    assert_all_pairs_bitwise(&a, &b).expect("edge cases must be bit-identical");
}

#[test]
fn multi_thread_analysis_is_bit_identical_to_single() {
    let rows: Vec<(Value, Value)> = (0..40)
        .map(|i| {
            (
                Value::Text(format!("acme widget model {} rev {}", i % 7, i)),
                Value::Number(f64::from(i)),
            )
        })
        .collect();
    let (a, b) = tables(rows.clone(), rows);
    let vz = FeatureVectorizer::fit(&a, &b);
    let an1 = vz.analyze(&a, &b, exec::Threads::new(1));
    let an8 = vz.analyze(&a, &b, exec::Threads::new(8));
    for ra in &a.records {
        for rb in &b.records {
            let v1 = vz.vectorize_pre(ra, rb, &an1);
            let v8 = vz.vectorize_pre(ra, rb, &an8);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&v1), bits(&v8));
        }
    }
}

/// More than `i16::MAX` distinct chars: the tables cannot narrow, so
/// every view's `lower_char_i16` is empty and Smith-Waterman takes its
/// 32-bit path. The short values are built from the chars ranked
/// highest, whose ids do not fit in an `i16`; every feature, the five
/// char kernels included, must still match the string path bit for bit.
#[test]
fn wide_char_pool_takes_the_unnarrowed_path() {
    let wide = |lo: u32, hi: u32| -> String {
        (lo..hi).filter_map(|i| char::from_u32(0x4E00 + i)).collect()
    };
    let short = |lo: u32| Value::Text(format!("{} Ab{}", wide(lo, lo + 4), wide(lo + 2, lo + 7)));
    let rows_a = vec![
        (Value::Text(wide(0, 33_000)), Value::Null),
        (short(32_900), Value::Number(1.0)),
        (short(32_950), Value::Null),
    ];
    let rows_b = vec![
        (short(32_902), Value::Number(2.0)),
        (short(32_990), Value::Null),
        (Value::Text("ab".into()), Value::Null),
    ];
    let (a, b) = tables(rows_a, rows_b);
    let vz = FeatureVectorizer::fit(&a, &b);
    let an = vz.analyze(&a, &b, exec::Threads::new(1));
    assert!(an.stats.distinct_chars > i16::MAX as usize, "{}", an.stats.distinct_chars);
    for (t, n) in [(&an.a, a.len()), (&an.b, b.len())] {
        for r in 0..n as u32 {
            let v = t.attr(r, 0).expect("text cell");
            assert!(v.lower_char_i16().is_empty());
            assert!(!v.lower_char_ids().is_empty());
        }
    }
    assert!(an.attr_a(1, 0).unwrap().raw_char_ids().iter().any(|&c| c > i16::MAX as u32));
    for threads in [1, 8] {
        assert_all_pairs_bitwise_at(&a, &b, threads).expect("wide pool must stay bit-identical");
    }
}
