//! Feature-vector construction for tuple pairs.
//!
//! [`FeatureVectorizer`] is fitted once per EM task: it builds the feature
//! library for the shared schema and fits one TF/IDF corpus model per text
//! attribute over *both* tables. It can then turn any `(a, b)` record pair
//! into an `f64` feature vector, or — crucial for cheap blocking-rule
//! application over the full Cartesian product (paper §4.3) — compute just
//! a single feature, of one pair or of a run of pairs sharing the left
//! record.
//!
//! Missing values produce `NaN` features; the forest learner handles those
//! with learned missing-value routing (see the `forest` crate).

use crate::analysis::{self, AttrView, TaskAnalysis};
use crate::charkernels;
use crate::cosine::TfIdfModel;
use crate::features::{FeatureDef, FeatureKind, FeatureLibrary};
use crate::record::{Record, Schema, Table, Value};
use crate::{align, edit, exact, jaccard, jaro, monge_elkan, numeric, phonetic};
use serde::{Deserialize, Serialize};

/// Fitted vectorizer for one EM task (one schema, two tables).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeatureVectorizer {
    lib: FeatureLibrary,
    /// TF/IDF model per attribute index (None for numeric attributes).
    tfidf: Vec<Option<TfIdfModel>>,
}

impl FeatureVectorizer {
    /// Fit a vectorizer over the two tables of an EM task.
    ///
    /// # Panics
    /// Panics if the tables do not share a schema.
    pub fn fit(a: &Table, b: &Table) -> Self {
        assert_eq!(
            a.schema, b.schema,
            "tables of an EM task must share a schema"
        );
        let lib = FeatureLibrary::for_schema(&a.schema);
        let needs: Vec<bool> = a
            .schema
            .attrs
            .iter()
            .enumerate()
            .map(|(ai, _)| {
                lib.defs
                    .iter()
                    .any(|d| d.attr == ai && d.kind.needs_corpus())
            })
            .collect();
        let tfidf = needs
            .iter()
            .enumerate()
            .map(|(ai, &needed)| {
                if !needed {
                    return None;
                }
                let docs = a
                    .records
                    .iter()
                    .chain(b.records.iter())
                    .filter_map(|r| r.value(ai).as_text());
                Some(TfIdfModel::fit(docs))
            })
            .collect();
        FeatureVectorizer { lib, tfidf }
    }

    /// The feature library (defines vector layout).
    pub fn library(&self) -> &FeatureLibrary {
        &self.lib
    }

    /// Number of features per vector.
    pub fn n_features(&self) -> usize {
        self.lib.len()
    }

    /// True when `attr` has a fitted TF/IDF corpus model. Without one,
    /// `CosineTfIdf` features of that attribute are always `NaN` — the
    /// blocking planner uses this to decide indexability.
    pub fn has_corpus_model(&self, attr: usize) -> bool {
        self.tfidf.get(attr).is_some_and(|m| m.is_some())
    }

    /// Compute the full feature vector for a record pair.
    pub fn vectorize(&self, a: &Record, b: &Record) -> Vec<f64> {
        self.lib
            .defs
            .iter()
            .enumerate()
            .map(|(fi, _)| self.feature(fi, a, b))
            .collect()
    }

    /// Compute a single feature (by library index) for a record pair.
    /// Returns `NaN` when either value is missing or mistyped.
    pub fn feature(&self, idx: usize, a: &Record, b: &Record) -> f64 {
        let def = &self.lib.defs[idx];
        let va = a.value(def.attr);
        let vb = b.value(def.attr);
        compute_feature(def, va, vb, self.tfidf[def.attr].as_ref())
    }

    /// Build the precomputed analysis layer for a task's two tables (see
    /// [`crate::analysis`]). The result feeds [`Self::vectorize_pre_into`]
    /// and [`Self::feature_run`], whose outputs are bit-identical to the
    /// string-based [`Self::vectorize`] / [`Self::feature`].
    pub fn analyze(&self, a: &Table, b: &Table, threads: exec::Threads) -> TaskAnalysis {
        analysis::analyze_task(a, b, &self.tfidf, threads)
    }

    /// [`Self::vectorize`] through the precomputed analysis, for a single
    /// pair (a run of one, see [`Self::vectorize_pre_into`]).
    pub fn vectorize_pre(&self, a: &Record, b: &Record, an: &TaskAnalysis) -> Vec<f64> {
        let mut out = vec![0.0; self.lib.len()];
        self.vectorize_pre_into(a, &[b], an, &mut out);
        out
    }

    /// Feature vectors of the run of pairs `(a, bs[k])` through the
    /// precomputed analysis, into `out`: row `k` (of
    /// [`Self::n_features`] values) is pair `k`'s [`Self::vectorize`],
    /// bit for bit. Candidate streams arrive grouped by the left record,
    /// so one call covers a whole run of them, attribute by attribute:
    ///
    /// * `a`'s value of the attribute is looked up once, and the
    ///   char-kernel scratch is taken once per run;
    /// * `a`'s word and 3-gram ids are marked once ([`LeftMarks`]), and
    ///   each `b` value counts its own ids against the marks: one word
    ///   count feeds Jaccard, overlap and Dice, and one 3-gram count
    ///   feeds 3-gram Jaccard (integers, so the `*_of` formulas return
    ///   the bits the merge would give);
    /// * a pair's Jaro score feeds both Jaro and Jaro-Winkler (through
    ///   the scratch's last-pair slot), and Levenshtein keeps `a`'s
    ///   pattern table across the run;
    /// * Monge-Elkan computes the Jaro-Winkler grid of `a`'s tokens
    ///   against the run's right tokens once for the run
    ///   ([`charkernels::monge_elkan_run`]), and Smith-Waterman on
    ///   attributes whose values do not recur scores `a` against sixteen
    ///   `b`s per DP sweep ([`charkernels::smith_waterman_run`]); both
    ///   score the whole run after the per-pair loop.
    ///
    /// # Panics
    /// Panics if `out` does not hold `bs.len()` rows.
    pub fn vectorize_pre_into(
        &self,
        a: &Record,
        bs: &[&Record],
        an: &TaskAnalysis,
        out: &mut [f64],
    ) {
        let nf = self.lib.len();
        assert_eq!(out.len(), bs.len() * nf, "one row of n_features per b");
        if nf == 0 {
            return;
        }
        let mut marks = LeftMarks::new(an, &self.lib.defs);
        charkernels::with_scratch(|s| {
            let mut first = 0;
            for group in self.lib.defs.chunk_by(|x, y| x.attr == y.attr) {
                let fis = first..first + group.len();
                first = fis.end;
                self.vectorize_attr_run(a, bs, an, fis, 0..nf, &mut marks, out, s);
            }
        })
    }

    /// Feature `fi` (by library index) of the run of pairs `(a, bs[k])`
    /// through the precomputed analysis, into `out[k]`: the column of
    /// [`Self::vectorize_pre_into`]'s rows that holds `fi`, bit for bit,
    /// through the same body. Blocking-rule evaluation reads features one
    /// at a time, for the pairs of a run no earlier rule blocked. Only the
    /// token pool `fi` counts in is marked: a word-set feature pays for
    /// no 3-gram marks, and a char kernel for none at all.
    ///
    /// # Panics
    /// Panics if `out` does not hold one value per `b`.
    pub fn feature_run(
        &self,
        fi: usize,
        a: &Record,
        bs: &[&Record],
        an: &TaskAnalysis,
        out: &mut [f64],
    ) {
        assert_eq!(out.len(), bs.len(), "one value per b");
        let fis = fi..fi + 1;
        let mut marks = LeftMarks::new(an, &self.lib.defs[fis.clone()]);
        charkernels::with_scratch(|s| {
            self.vectorize_attr_run(a, bs, an, fis.clone(), fis, &mut marks, out, s)
        })
    }

    /// The features `fis` (all of one attribute) of every pair of a run,
    /// into `out`, whose rows hold the features `cols` (a superset of
    /// `fis`): feature `fi` of pair `k` lands at
    /// `k * cols.len() + fi - cols.start`. The body of both
    /// [`Self::vectorize_pre_into`] and [`Self::feature_run`]. `marks` is
    /// clear on entry and on return.
    #[allow(clippy::too_many_arguments)] // hoisted per-run state, private
    fn vectorize_attr_run(
        &self,
        a: &Record,
        bs: &[&Record],
        an: &TaskAnalysis,
        fis: std::ops::Range<usize>,
        cols: std::ops::Range<usize>,
        marks: &mut LeftMarks,
        out: &mut [f64],
        s: &mut charkernels::CharScratch,
    ) {
        let width = cols.len();
        let at = |k: usize, fi: usize| k * width + fi - cols.start;
        let defs = &self.lib.defs[fis.clone()];
        let attr = defs[0].attr;
        let va = an.attr_a(a.id, attr);
        // Kinds scored for the whole run at once, after the per-pair loop.
        let by_run = |kind: FeatureKind| {
            kind == FeatureKind::MongeElkan
                || (kind == FeatureKind::SmithWaterman && !an.recurring(attr))
        };
        if let Some(va) = va {
            marks.mark(va);
        }
        for (k, b) in bs.iter().enumerate() {
            let vb = an.attr_b(b.id, attr);
            // The counts exist iff both values are text; otherwise every
            // text feature is NaN, as on the reference path.
            let sets = match (va, vb) {
                (Some(va), Some(vb)) => Some((va, vb, marks.counts(vb))),
                _ => None,
            };
            for (fi, def) in fis.clone().zip(defs) {
                if by_run(def.kind) {
                    continue;
                }
                out[at(k, fi)] = match (def.kind, sets) {
                    (FeatureKind::NumExact | FeatureKind::NumRelSim, _) => self.feature(fi, a, b),
                    (_, None) => f64::NAN,
                    (FeatureKind::JaccardWords, Some((va, vb, (w, _)))) => {
                        analysis::jaccard_of(w, va.word_ids().len(), vb.word_ids().len())
                    }
                    (FeatureKind::OverlapWords, Some((va, vb, (w, _)))) => {
                        analysis::overlap_of(w, va.word_ids().len(), vb.word_ids().len())
                    }
                    (FeatureKind::DiceWords, Some((va, vb, (w, _)))) => {
                        analysis::dice_of(w, va.word_ids().len(), vb.word_ids().len())
                    }
                    (FeatureKind::Jaccard3Grams, Some((va, vb, (_, g)))) => {
                        analysis::jaccard_of(g, va.gram_ids().len(), vb.gram_ids().len())
                    }
                    (_, Some((va, vb, _))) => self.text_feature(def, va, vb, an, s),
                };
            }
        }
        if let Some(va) = va {
            marks.clear(va);
        }
        if !defs.iter().any(|d| by_run(d.kind)) {
            return;
        }
        // The run kernels score the pairs both of whose values are
        // present; the others keep NaN, as on every path.
        let present: Vec<(usize, AttrView<'_>)> = match va {
            Some(_) => bs
                .iter()
                .enumerate()
                .filter_map(|(k, b)| an.attr_b(b.id, attr).map(|vb| (k, vb)))
                .collect(),
            None => Vec::new(),
        };
        let cx = charkernels::Ctx::new(an, attr);
        for (fi, def) in fis.zip(defs).filter(|(_, d)| by_run(d.kind)) {
            for k in 0..bs.len() {
                out[at(k, fi)] = f64::NAN;
            }
            let Some(va) = va else { continue };
            let put = |k: usize, x: f64| out[at(k, fi)] = x;
            match def.kind {
                FeatureKind::MongeElkan => charkernels::monge_elkan_run(va, &present, cx, s, put),
                _ => charkernels::smith_waterman_run(va, &present, cx, s, put),
            }
        }
    }

    /// One text feature of one pair of values, for the kinds
    /// [`Self::vectorize_attr_run`] neither counts against its left-value
    /// marks nor scores by run: set/vector kernels run allocation-free
    /// over interned ids, and the character-level measures (edit
    /// distance, Jaro/Jaro-Winkler, Smith-Waterman on attributes whose
    /// values recur) over the precomputed char-id material in
    /// [`crate::charkernels`]. Whole-value results are cached only on
    /// attributes whose values recur ([`TaskAnalysis::recurring`]).
    fn text_feature(
        &self,
        def: &FeatureDef,
        ra: AttrView<'_>,
        rb: AttrView<'_>,
        an: &TaskAnalysis,
        s: &mut charkernels::CharScratch,
    ) -> f64 {
        let cx = || charkernels::Ctx::new(an, def.attr);
        match def.kind {
            FeatureKind::CosineTfIdf => {
                if self.tfidf[def.attr].is_some() {
                    analysis::cosine_pre(ra, rb)
                } else {
                    f64::NAN
                }
            }
            FeatureKind::ExactMatch => analysis::exact_pre(ra, rb),
            FeatureKind::Containment => analysis::containment_pre(ra, rb),
            FeatureKind::PrefixSim => analysis::prefix_pre(ra, rb),
            FeatureKind::Soundex => analysis::soundex_pre(ra, rb),
            FeatureKind::Levenshtein => charkernels::levenshtein_pre(ra, rb, cx(), s),
            FeatureKind::Jaro => charkernels::jaro_pre(ra, rb, cx(), s),
            FeatureKind::JaroWinkler => charkernels::jaro_winkler_pre(ra, rb, cx(), s),
            FeatureKind::SmithWaterman => charkernels::smith_waterman_pre(ra, rb, cx(), s),
            FeatureKind::JaccardWords
            | FeatureKind::Jaccard3Grams
            | FeatureKind::OverlapWords
            | FeatureKind::DiceWords
            | FeatureKind::MongeElkan
            | FeatureKind::NumExact
            | FeatureKind::NumRelSim => unreachable!("counted, by run or numeric: {:?}", def.kind),
        }
    }
}

/// A run's left value marked in the task's word and 3-gram pools, one
/// bit per pool id (`distinct_words`/`distinct_grams` bits, pool/8 bytes
/// each), so each right value counts its set intersections in one pass
/// over its own ids. A pool is marked only when a feature of the call
/// counts in it; the other pool's bitset stays empty. The marks are
/// cleared by walking the left ids again, so no stamp counter is needed.
/// They live for one `vectorize_pre_into` or `feature_run` call, a zeroed
/// pool/8-byte allocation each, so no mark can outlive the call that set
/// it (bitsets kept per thread across calls measured no faster).
struct LeftMarks {
    words: Vec<u64>,
    grams: Vec<u64>,
}

impl LeftMarks {
    /// Bitsets for the pools the features `defs` count in.
    fn new(an: &TaskAnalysis, defs: &[FeatureDef]) -> Self {
        let pool = |counted: bool, distinct: usize| {
            if counted {
                vec![0; distinct.div_ceil(64)]
            } else {
                Vec::new()
            }
        };
        let words = defs.iter().any(|d| {
            matches!(
                d.kind,
                FeatureKind::JaccardWords | FeatureKind::OverlapWords | FeatureKind::DiceWords
            )
        });
        let grams = defs.iter().any(|d| d.kind == FeatureKind::Jaccard3Grams);
        LeftMarks {
            words: pool(words, an.stats.distinct_words),
            grams: pool(grams, an.stats.distinct_grams),
        }
    }

    fn mark(&mut self, va: AttrView<'_>) {
        for (bits, ids) in [(&mut self.words, va.word_ids()), (&mut self.grams, va.gram_ids())] {
            if bits.is_empty() {
                continue;
            }
            for &id in ids {
                bits[id as usize / 64] |= 1u64 << (id % 64);
            }
        }
    }

    /// `(|marked words ∩ vb's words|, |marked 3-grams ∩ vb's 3-grams|)`:
    /// the integers `analysis::intersect_count` returns for the marked
    /// value's sets (0 for a pool this call does not mark).
    fn counts(&self, vb: AttrView<'_>) -> (usize, usize) {
        let count = |bits: &[u64], ids: &[u32]| {
            if bits.is_empty() {
                return 0;
            }
            ids.iter().filter(|&&id| bits[id as usize / 64] & (1u64 << (id % 64)) != 0).count()
        };
        (count(&self.words, vb.word_ids()), count(&self.grams, vb.gram_ids()))
    }

    /// Undo [`Self::mark`] for the same value. Only its ids have bits
    /// set, so zeroing their whole words clears exactly those.
    fn clear(&mut self, va: AttrView<'_>) {
        for (bits, ids) in [(&mut self.words, va.word_ids()), (&mut self.grams, va.gram_ids())] {
            if bits.is_empty() {
                continue;
            }
            for &id in ids {
                bits[id as usize / 64] = 0;
            }
        }
    }
}

fn compute_feature(
    def: &FeatureDef,
    va: &Value,
    vb: &Value,
    tfidf: Option<&TfIdfModel>,
) -> f64 {
    match def.kind {
        FeatureKind::NumExact | FeatureKind::NumRelSim => {
            let (Some(x), Some(y)) = (va.as_number(), vb.as_number()) else {
                return f64::NAN;
            };
            match def.kind {
                FeatureKind::NumExact => numeric::num_exact(x, y),
                _ => numeric::num_rel_sim(x, y),
            }
        }
        _ => {
            let (Some(x), Some(y)) = (va.as_text(), vb.as_text()) else {
                return f64::NAN;
            };
            match def.kind {
                FeatureKind::Levenshtein => edit::levenshtein_similarity(x, y),
                FeatureKind::Jaro => jaro::jaro(x, y),
                FeatureKind::JaroWinkler => jaro::jaro_winkler(x, y),
                FeatureKind::JaccardWords => jaccard::jaccard_words(x, y),
                FeatureKind::Jaccard3Grams => jaccard::jaccard_qgrams(x, y, 3),
                FeatureKind::OverlapWords => jaccard::overlap_words(x, y),
                FeatureKind::DiceWords => jaccard::dice_words(x, y),
                FeatureKind::CosineTfIdf => tfidf
                    .map(|m| m.cosine(x, y))
                    .unwrap_or(f64::NAN),
                FeatureKind::MongeElkan => monge_elkan::monge_elkan_sym(x, y),
                FeatureKind::ExactMatch => exact::exact_match(x, y),
                FeatureKind::Containment => exact::containment(x, y),
                FeatureKind::PrefixSim => exact::prefix_similarity(x, y),
                FeatureKind::Soundex => phonetic::soundex_similarity(x, y),
                FeatureKind::SmithWaterman => align::smith_waterman_similarity(x, y),
                FeatureKind::NumExact | FeatureKind::NumRelSim => unreachable!(),
            }
        }
    }
}

/// Convenience: build a pair of tables sharing a schema from raw rows.
/// Useful in tests and examples.
pub fn table_pair(
    schema: Schema,
    name_a: &str,
    rows_a: Vec<Vec<Value>>,
    name_b: &str,
    rows_b: Vec<Vec<Value>>,
) -> (Table, Table) {
    let schema = std::sync::Arc::new(schema);
    (
        Table::new(name_a, schema.clone(), rows_a),
        Table::new(name_b, schema, rows_b),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Attribute;

    fn tables() -> (Table, Table) {
        let schema = Schema::new(vec![
            Attribute::text("title"),
            Attribute::number("pages"),
        ]);
        table_pair(
            schema,
            "a",
            vec![
                vec!["Data Mining".into(), Value::Number(234.0)],
                vec!["Databases".into(), Value::Null],
            ],
            "b",
            vec![
                vec!["Data Mining".into(), Value::Number(234.0)],
                vec!["Data Minning".into(), Value::Number(235.0)],
            ],
        )
    }

    #[test]
    fn vector_has_library_arity() {
        let (a, b) = tables();
        let v = FeatureVectorizer::fit(&a, &b);
        let x = v.vectorize(a.record(0), b.record(0));
        assert_eq!(x.len(), v.n_features());
    }

    #[test]
    fn identical_pair_scores_one_on_similarities() {
        let (a, b) = tables();
        let v = FeatureVectorizer::fit(&a, &b);
        let x = v.vectorize(a.record(0), b.record(0));
        for (i, def) in v.library().defs.iter().enumerate() {
            assert!(
                (x[i] - 1.0).abs() < 1e-9,
                "feature {} should be 1 on an identical pair, got {}",
                def.name(),
                x[i]
            );
        }
    }

    #[test]
    fn missing_value_yields_nan() {
        let (a, b) = tables();
        let v = FeatureVectorizer::fit(&a, &b);
        let x = v.vectorize(a.record(1), b.record(0));
        let pages_idx = v
            .library()
            .defs
            .iter()
            .position(|d| d.name() == "pages_num_rel")
            .unwrap();
        assert!(x[pages_idx].is_nan());
    }

    #[test]
    fn single_feature_matches_full_vector() {
        let (a, b) = tables();
        let v = FeatureVectorizer::fit(&a, &b);
        let full = v.vectorize(a.record(0), b.record(1));
        for (i, &expect) in full.iter().enumerate() {
            let single = v.feature(i, a.record(0), b.record(1));
            assert!(
                (single == expect) || (single.is_nan() && expect.is_nan()),
                "feature {i} mismatch"
            );
        }
    }

    #[test]
    #[should_panic(expected = "share a schema")]
    fn fit_rejects_mismatched_schemas() {
        let (a, _) = tables();
        let other = Table::new(
            "c",
            std::sync::Arc::new(Schema::new(vec![Attribute::text("x")])),
            vec![vec!["v".into()]],
        );
        FeatureVectorizer::fit(&a, &other);
    }

    #[test]
    fn near_duplicate_scores_high_but_not_one() {
        let (a, b) = tables();
        let v = FeatureVectorizer::fit(&a, &b);
        let lev = v
            .library()
            .defs
            .iter()
            .position(|d| d.name() == "title_lev")
            .unwrap();
        let x = v.feature(lev, a.record(0), b.record(1)); // "Data Mining" vs "Data Minning"
        assert!(x > 0.85 && x < 1.0, "{x}");
    }
}
