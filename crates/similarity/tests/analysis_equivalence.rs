//! Property tests for the precomputed-analysis kernels: for arbitrary
//! (unicode-ish) inputs, every analysis-path feature must equal the
//! string-based reference **exactly** — `f64::to_bits` equality, NaN
//! included — covering empty strings, missing values, and mixed schemas.
//! This is the executable form of the bit-identity contract documented in
//! `similarity::analysis`. Every table pair is checked three ways: per
//! pair, as runs (each A record against all of B in one
//! `vectorize_pre_into` call, the shape candidate builds use), and per
//! feature (`feature_run` over a run of one and over the whole run, the
//! shape the blocking-rule sweep uses).

use proptest::collection::vec;
use proptest::prelude::*;
use similarity::jaro::{jaro, jaro_winkler};
use similarity::monge_elkan::{monge_elkan, monge_elkan_sym};
use similarity::{
    Attribute, FeatureKind, FeatureVectorizer, Record, Schema, Table, TaskAnalysis, Value,
};
use std::sync::Arc;

/// Feature `fi` of the one pair `(ra, rb)`: a run of one.
fn feature_of(
    vz: &FeatureVectorizer,
    fi: usize,
    ra: &Record,
    rb: &Record,
    an: &TaskAnalysis,
) -> f64 {
    let mut x = [0.0];
    vz.feature_run(fi, ra, &[rb], an, &mut x);
    x[0]
}

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
    let nf = vz.n_features();
    let all_b: Vec<&Record> = b.records.iter().collect();
    let mut run = vec![0.0; all_b.len() * nf];
    let mut cols = vec![vec![0.0; all_b.len()]; nf];
    for ra in &a.records {
        vz.vectorize_pre_into(ra, &all_b, &an, &mut run);
        for (fi, col) in cols.iter_mut().enumerate() {
            vz.feature_run(fi, ra, &all_b, &an, col);
        }
        for (j, (rb, run_row)) in b.records.iter().zip(run.chunks_exact(nf)).enumerate() {
            let want = vz.vectorize(ra, rb);
            let got = vz.vectorize_pre(ra, rb, &an);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(
                bits(run_row),
                bits(&got),
                "run row diverged from the per-pair path on ({:?}, {:?})",
                ra.value(0),
                rb.value(0)
            );
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
                let single = feature_of(&vz, fi, ra, rb, &an);
                prop_assert_eq!(single.to_bits(), w.to_bits(), "single-feature path diverged");
                prop_assert_eq!(cols[fi][j].to_bits(), w.to_bits(), "feature column diverged");
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

/// Strings for the Jaro symmetry premise: tiny alphabets (many equal
/// chars competing for window slots), repeats, unicode, and lengths on
/// both sides of the kernel's 8-char window-scan/bitset crossover and
/// past the 64-char bitmask word.
fn symmetry_text() -> impl Strategy<Value = String> {
    prop_oneof![
        "[ab]{0,12}",
        "[a-d]{0,11}",
        "[a-c]{5,11}",
        vec(0..4usize, 1..7)
            .prop_map(|ks| ks.iter().map(|&k| ["ab", "ba", "aab", "abb"][k]).collect()),
        "[İIi\u{307}Σσςée\u{301}a]{0,12}",
        "[a-c]{55,75}",
        "[ab ]{60,140}",
        any::<String>().prop_map(|s| s.chars().take(20).collect()),
    ]
}

/// Token soup over a small vocabulary: duplicate tokens within a value,
/// tokens shared across values, near-miss spellings, and token pairs on
/// both sides of Monge-Elkan's 8-char direct/memo cutoff.
fn token_soup() -> impl Strategy<Value = Value> {
    const TOKENS: [&str; 10] =
        ["a", "ab", "ba", "4gb", "kit", "kingston", "kingstom", "hyperx", "hyper", "corsair"];
    let soup = || {
        vec(0..TOKENS.len(), 0..7)
            .prop_map(|ks| Value::Text(ks.iter().map(|&k| TOKENS[k]).collect::<Vec<_>>().join(" ")))
    };
    prop_oneof![soup(), soup(), Just(Value::Null)]
}

/// One text attribute holding `values`, as both tables.
fn one_attr_tables(values: &[Value]) -> (Table, Table) {
    let schema = Arc::new(Schema::new(vec![Attribute::text("t")]));
    let rows: Vec<Vec<Value>> = values.iter().map(|v| vec![v.clone()]).collect();
    (Table::new("a", schema.clone(), rows.clone()), Table::new("b", schema, rows))
}

proptest! {
    /// The premise of the Monge-Elkan run grid: Jaro and Jaro-Winkler
    /// return the same bits with their arguments swapped, in the
    /// reference and in the analysis-path kernels.
    #[test]
    fn jaro_and_jaro_winkler_are_bitwise_symmetric(
        x in symmetry_text(),
        y in symmetry_text(),
    ) {
        prop_assert_eq!(jaro(&x, &y).to_bits(), jaro(&y, &x).to_bits());
        prop_assert_eq!(jaro_winkler(&x, &y).to_bits(), jaro_winkler(&y, &x).to_bits());
        let (a, b) = one_attr_tables(&[Value::Text(x.clone()), Value::Text(y.clone())]);
        let vz = FeatureVectorizer::fit(&a, &b);
        let an = vz.analyze(&a, &b, exec::Threads::new(1));
        for kind in [FeatureKind::Jaro, FeatureKind::JaroWinkler] {
            let fi = vz.library().defs.iter().position(|d| d.kind == kind).unwrap();
            let xy = feature_of(&vz, fi, a.record(0), b.record(1), &an);
            let yx = feature_of(&vz, fi, a.record(1), b.record(0), &an);
            prop_assert_eq!(xy.to_bits(), yx.to_bits(), "{:?} on ({:?}, {:?})", kind, x, y);
        }
    }

    /// Monge-Elkan over duplicate-heavy token soups: the run grid
    /// against the reference's two directed passes, every path.
    #[test]
    fn monge_elkan_token_soups_are_bit_identical(
        values_a in vec(token_soup(), 1..5),
        values_b in vec(token_soup(), 1..5),
    ) {
        let schema = Arc::new(Schema::new(vec![Attribute::text("t")]));
        let rows = |vs: Vec<Value>| vs.into_iter().map(|v| vec![v]).collect();
        let a = Table::new("a", schema.clone(), rows(values_a));
        let b = Table::new("b", schema, rows(values_b));
        assert_all_pairs_bitwise(&a, &b)?;
    }
}

/// The cases the Monge-Elkan run grid treats specially, each checked
/// bitwise against `monge_elkan_sym` in both orientations, per feature
/// and as runs.
#[test]
fn monge_elkan_grid_cases_match_the_reference() {
    // A pair whose two directions differ: every token of the short side
    // is found in the long side, but not the other way round.
    let (short, long) = ("kingston", "kingston hyperx 4gb");
    assert_ne!(monge_elkan(short, long).to_bits(), monge_elkan(long, short).to_bits());
    let texts = [
        // Duplicate tokens on both sides.
        "acme acme widget",
        "widget widget acme gizmo gizmo",
        // One token shared by both sides, the others near misses.
        "kingston hyperx 4gb",
        "kingstom hyper 4gb",
        // Every token of this side is a hit in the next one.
        "hyperx kingston",
        "kit kingston 4gb hyperx corsair",
        short,
        long,
        // No tokens: empty and punctuation-only.
        "",
        "!!! --",
        // Short tokens (direct path) beside long ones (memo path).
        "a b ab",
        "ba a vengeance",
    ];
    let values: Vec<Value> = texts.iter().map(|t| Value::Text(t.to_string())).collect();
    let (a, b) = one_attr_tables(&values);
    let vz = FeatureVectorizer::fit(&a, &b);
    let an = vz.analyze(&a, &b, exec::Threads::new(1));
    let me = vz.library().defs.iter().position(|d| d.kind == FeatureKind::MongeElkan).unwrap();
    let nf = vz.n_features();
    let all_b: Vec<&Record> = b.records.iter().collect();
    let mut run = vec![0.0; all_b.len() * nf];
    for (i, ra) in a.records.iter().enumerate() {
        vz.vectorize_pre_into(ra, &all_b, &an, &mut run);
        for (j, rb) in b.records.iter().enumerate() {
            let want = monge_elkan_sym(texts[i], texts[j]).to_bits();
            let single = feature_of(&vz, me, ra, rb, &an).to_bits();
            assert_eq!(single, want, "feature_run on ({:?}, {:?})", texts[i], texts[j]);
            assert_eq!(run[j * nf + me].to_bits(), want, "run on ({:?}, {:?})", texts[i], texts[j]);
        }
    }
    assert_all_pairs_bitwise(&a, &b).expect("every feature of the Monge-Elkan cases");
}

/// Values for the Monge-Elkan run grid: token soups over a vocabulary of
/// tokens of at most 8 chars and of more than 64 chars, near misses of
/// both, so right tokens repeat across a run and are shared with the left
/// value, with duplicates inside a value; plus empty, punctuation-only and
/// missing values.
fn grid_value() -> impl Strategy<Value = Value> {
    const LONG: &str = "abcdefghijklmnopqrstuvwxyzabcdefghijklmnopqrstuvwxyzabcdefghijklmnopqr";
    const LONG_NEAR: &str =
        "abcdefghijklmnopqrstuvwxyzabcdefghijklmnopqrstuvwxyzabcdefghijklmnopqz";
    const TOKENS: [&str; 9] = ["a", "ab", "4gb", "kit", "kingston", "kingstom", "hyperx", LONG, LONG_NEAR];
    let soup = || {
        vec(0..TOKENS.len(), 1..6)
            .prop_map(|ks| Value::Text(ks.iter().map(|&k| TOKENS[k]).collect::<Vec<_>>().join(" ")))
    };
    prop_oneof![
        4 => soup(),
        1 => Just(Value::Text(String::new())),
        1 => Just(Value::Text("!!! --".into())),
        1 => Just(Value::Null),
    ]
}

/// Every Monge-Elkan value of each A record against all of B must be
/// `monge_elkan_sym`'s bits (NaN where a value is missing) on every path:
/// the run as one `feature_run`, its `vectorize_pre_into` rows, the run
/// cut into pieces ending at `cuts` (as a candidate build cuts a long run
/// across tiles), and each pair as a run of one.
fn check_monge_elkan_runs(a: &Table, b: &Table, cuts: &[usize]) -> Result<(), TestCaseError> {
    let vz = FeatureVectorizer::fit(a, b);
    let an = vz.analyze(a, b, exec::Threads::new(1));
    let me = vz.library().defs.iter().position(|d| d.kind == FeatureKind::MongeElkan).unwrap();
    let nf = vz.n_features();
    let all_b: Vec<&Record> = b.records.iter().collect();
    let mut run = vec![0.0; all_b.len()];
    let mut rows = vec![0.0; all_b.len() * nf];
    let mut pieces = vec![0.0; all_b.len()];
    for ra in &a.records {
        vz.feature_run(me, ra, &all_b, &an, &mut run);
        vz.vectorize_pre_into(ra, &all_b, &an, &mut rows);
        let mut start = 0;
        for &end in cuts.iter().chain([all_b.len()].iter()) {
            vz.feature_run(me, ra, &all_b[start..end], &an, &mut pieces[start..end]);
            start = end;
        }
        for (j, rb) in b.records.iter().enumerate() {
            let want = match (ra.value(0).as_text(), rb.value(0).as_text()) {
                (Some(x), Some(y)) => monge_elkan_sym(x, y),
                _ => f64::NAN,
            };
            let paths = [
                ("run", run[j]),
                ("vector run", rows[j * nf + me]),
                ("pieces", pieces[j]),
                ("run of one", feature_of(&vz, me, ra, rb, &an)),
            ];
            for (path, got) in paths {
                prop_assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{} on a{} b{}: {} vs {}",
                    path,
                    ra.id,
                    rb.id,
                    got,
                    want
                );
            }
        }
    }
    Ok(())
}

proptest! {
    /// The Monge-Elkan run grid over runs of 0, 1 and many right values.
    #[test]
    fn monge_elkan_run_grid_is_bit_identical(
        left in vec(grid_value(), 1..4),
        right in vec(grid_value(), 0..24),
        cut in 0..24usize,
    ) {
        let schema = Arc::new(Schema::new(vec![Attribute::text("t")]));
        let rows = |vs: Vec<Value>| vs.into_iter().map(|v| vec![v]).collect();
        let cut = cut.min(right.len());
        let a = Table::new("a", schema.clone(), rows(left));
        let b = Table::new("b", schema, rows(right));
        check_monge_elkan_runs(&a, &b, &[cut])?;
    }
}

/// Runs whose grid outgrows one chunk: 1,100 right values (longer than a
/// 1,024-row tile, cut in two as the candidate build cuts it), nearly all
/// of their tokens their own, against a left value of 40 distinct tokens;
/// and a left value of 400 distinct tokens against a right value sharing
/// half of them, a pair whose grid alone outgrows a chunk.
#[test]
fn monge_elkan_runs_past_a_tile_and_a_chunk_match_the_reference() {
    let schema = Arc::new(Schema::new(vec![Attribute::text("t")]));
    let text = |t: String| vec![Value::Text(t)];
    let words = |tag: &str, ks: std::ops::Range<usize>| -> String {
        ks.map(|k| format!("{tag}{k}")).collect::<Vec<_>>().join(" ")
    };
    let mut right: Vec<Vec<Value>> = (0..1100)
        .map(|i| text(format!("r{i}x r{i}y r{i}z kingston w{}", i % 50)))
        .collect();
    right[3] = vec![Value::Null];
    right[5] = text(String::new());
    let left = vec![text(words("w", 0..40)), text("kingston hyperx w7".into())];
    let a = Table::new("a", schema.clone(), left);
    let b = Table::new("b", schema.clone(), right);
    check_monge_elkan_runs(&a, &b, &[550]).expect("a long run with a wide grid");

    let a = Table::new("a", schema.clone(), vec![text(words("t", 0..400))]);
    let right = vec![text("t5 kingston".into()), text(words("t", 200..600)), text("t9".into())];
    let b = Table::new("b", schema, right);
    check_monge_elkan_runs(&a, &b, &[1]).expect("a pair whose grid outgrows a chunk");
}

/// Runs built back to back on one thread leave no word or 3-gram marks
/// behind: the left values share ids with each other and with right
/// values only the previous run's left value matched, an attribute is
/// missing on the left in one run and present in the next, and three
/// text attributes mark and clear in turn. Every run row must equal the
/// pair's features as runs of one (`feature_run`) and the string path bit
/// for bit.
#[test]
fn run_marks_leave_nothing_behind() {
    let schema = Arc::new(Schema::new(vec![
        Attribute::text("t1"),
        Attribute::text("t2"),
        Attribute::number("n"),
        Attribute::text("t3"),
    ]));
    let text = |t: &str| Value::Text(t.to_string());
    let row = |t1: Value, t2: Value, t3: Value| vec![t1, t2, Value::Number(1.0), t3];
    let a = Table::new(
        "a",
        schema.clone(),
        vec![
            row(text("alpha beta gamma"), Value::Null, text("red green")),
            row(text("beta gamma delta"), text("one two"), Value::Null),
            row(Value::Null, text("two three"), text("green blue")),
            row(text("alpha"), text("one two three"), text("red")),
            row(text("zeta"), text("four"), text("blue")),
        ],
    );
    let b = Table::new(
        "b",
        schema,
        vec![
            row(text("alpha zeta"), text("one"), text("red")),
            row(text("gamma"), Value::Null, text("green blue red")),
            row(Value::Null, text("three four"), text("")),
            row(text("delta alpha"), text("two"), Value::Null),
            row(text("alphabet"), text("onetwo"), text("greens")),
        ],
    );
    let vz = FeatureVectorizer::fit(&a, &b);
    let an = vz.analyze(&a, &b, exec::Threads::new(1));
    let nf = vz.n_features();
    let all_b: Vec<&Record> = b.records.iter().collect();
    let mut run = vec![0.0; all_b.len() * nf];
    for ra in &a.records {
        vz.vectorize_pre_into(ra, &all_b, &an, &mut run);
        for (rb, got) in b.records.iter().zip(run.chunks_exact(nf)) {
            let want = vz.vectorize(ra, rb);
            for (fi, (g, w)) in got.iter().zip(&want).enumerate() {
                let at = format!("{}, a{} b{}", vz.library().defs[fi].name(), ra.id, rb.id);
                let single = feature_of(&vz, fi, ra, rb, &an);
                assert_eq!(g.to_bits(), single.to_bits(), "{at}: run vs per-pair");
                assert_eq!(g.to_bits(), w.to_bits(), "{at}: run vs string path");
            }
        }
    }
}

/// `feature_run` is the column of `vectorize_pre_into`'s rows that holds
/// its feature, bit for bit: runs of 0, 1, 17 (one past the sixteen
/// Smith-Waterman lanes) and 24 pairs, missing values on either side, a
/// text attribute whose values do not recur (its Smith-Waterman rides
/// the lanes), one whose values recur (its char kernels consult the
/// result cache), and a number attribute.
#[test]
fn feature_run_equals_the_run_column() {
    let schema = Arc::new(Schema::new(vec![
        Attribute::text("name"),
        Attribute::text("city"),
        Attribute::number("n"),
    ]));
    let cities = ["boston", "new york", "boston", "", "chicago"];
    let row = |i: usize| -> Vec<Value> {
        let name = match i % 7 {
            3 => Value::Null,
            _ => Value::Text(format!("kingston hyperx {} kit rev {i}", i * 13 % 29)),
        };
        let city = match i % 5 {
            4 => Value::Null,
            _ => Value::Text(cities[i % cities.len()].to_string()),
        };
        let n = if i % 4 == 1 { Value::Null } else { Value::Number(i as f64) };
        vec![name, city, n]
    };
    let a = Table::new("a", schema.clone(), (0..6).map(row).collect());
    let b = Table::new("b", schema, (2..26).map(row).collect());
    let vz = FeatureVectorizer::fit(&a, &b);
    let an = vz.analyze(&a, &b, exec::Threads::new(1));
    assert!(!an.recurring(0) && an.recurring(1), "name must not recur, city must");
    let nf = vz.n_features();
    let all_b: Vec<&Record> = b.records.iter().collect();
    for ra in &a.records {
        for n in [0, 1, 17, all_b.len()] {
            let bs = &all_b[..n];
            let mut rows = vec![0.0; n * nf];
            vz.vectorize_pre_into(ra, bs, &an, &mut rows);
            let mut col = vec![0.0; n];
            for fi in 0..nf {
                vz.feature_run(fi, ra, bs, &an, &mut col);
                let want: Vec<u64> = rows.chunks_exact(nf).map(|r| r[fi].to_bits()).collect();
                let got: Vec<u64> = col.iter().map(|x| x.to_bits()).collect();
                let def = vz.library().defs[fi].name();
                assert_eq!(got, want, "{def} over {n} pairs from a{}", ra.id);
            }
        }
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

/// Three text attributes per record, each pair seeing different values
/// in each: the work a pair's features share (the word-set intersection,
/// the Jaro score) belongs to one pair of values, and neither a pair nor
/// a run may carry it into the next attribute or the next pair.
#[test]
fn multi_attribute_runs_are_bit_identical() {
    let long = "xy".repeat(40);
    let texts = [
        "kingston hyperx 4gb kit",
        "Kingston HyperX",
        "",
        "a a b",
        "corsair vengeance 8gb ddr3",
        "martha",
        "marhta",
        "kit 4gb kingston",
        &long,
    ];
    let n = texts.len();
    let schema = Arc::new(Schema::new(vec![
        Attribute::text("t1"),
        Attribute::text("t2"),
        Attribute::number("n"),
        Attribute::text("t3"),
    ]));
    let rows = |shift: usize| -> Vec<Vec<Value>> {
        (0..n)
            .map(|i| {
                let t = |k: usize| Value::Text(texts[(i * k + shift) % n].to_string());
                vec![t(1), t(2), Value::Number(i as f64), t(4)]
            })
            .collect()
    };
    let a = Table::new("a", schema.clone(), rows(0));
    let b = Table::new("b", schema, rows(3));
    assert_all_pairs_bitwise(&a, &b).expect("every attribute's features are its own");
}

/// Analyses built one after another on one thread whose values get the
/// same ids but differ in content: nothing computed for one (the char
/// kernels' result cache, the scratch's last-pair slots) may answer for
/// the other.
#[test]
fn consecutive_analyses_share_no_results() {
    let schema = Arc::new(Schema::new(vec![Attribute::text("t")]));
    let table = |name: &str, t: &str| {
        Table::new(name, schema.clone(), vec![vec![Value::Text(t.to_string())]])
    };
    // Each task's two distinct values sort to ids 0 (A) and 1 (B).
    for (x, y) in [
        ("alpha beta", "alpha gamma"),
        ("beta", "gamma"),
        ("alpha beta", "alpha gamma"),
    ] {
        assert_all_pairs_bitwise_at(&table("a", x), &table("b", y), 1)
            .expect("each analysis computes its own results");
    }
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
