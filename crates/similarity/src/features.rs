//! The pre-supplied feature library (paper §4.1 step 3, §5.1).
//!
//! Given a [`Schema`], [`FeatureLibrary::for_schema`] enumerates every
//! applicable `(attribute, measure)` combination as a [`FeatureDef`]. Text
//! attributes get the string-similarity measures; numeric attributes get the
//! numeric comparators — "using all features that are appropriate (e.g., no
//! TF/IDF features for numeric attributes)" (§5.1).
//!
//! Each feature carries a relative **unit cost**: the Blocker ranks rules
//! partly by "the cost of computing the features mentioned in R" (§4.3),
//! so cheap rules (exact matches) are preferred over expensive ones
//! (Monge-Elkan) at equal precision and coverage.

use crate::record::{AttrType, Schema};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A similarity measure the library knows how to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FeatureKind {
    /// Normalized Levenshtein similarity ([`crate::edit`]).
    Levenshtein,
    /// Jaro similarity ([`crate::jaro`]).
    Jaro,
    /// Jaro-Winkler similarity ([`crate::jaro`]).
    JaroWinkler,
    /// Jaccard over word tokens ([`crate::jaccard`]).
    JaccardWords,
    /// Jaccard over character 3-grams ([`crate::jaccard`]).
    Jaccard3Grams,
    /// Overlap coefficient over word tokens ([`crate::jaccard`]).
    OverlapWords,
    /// Dice coefficient over word tokens ([`crate::jaccard`]).
    DiceWords,
    /// TF/IDF cosine, fitted per attribute ([`crate::cosine`]).
    CosineTfIdf,
    /// Symmetric Monge-Elkan with Jaro-Winkler inner measure
    /// ([`crate::monge_elkan`]).
    MongeElkan,
    /// Exact match after normalization ([`crate::exact`]).
    ExactMatch,
    /// Substring containment ([`crate::exact`]).
    Containment,
    /// Common-prefix ratio ([`crate::exact`]).
    PrefixSim,
    /// Token-level Soundex overlap ([`crate::phonetic`]).
    Soundex,
    /// Normalized Smith-Waterman local alignment ([`crate::align`]).
    SmithWaterman,
    /// Numeric equality ([`crate::numeric`]).
    NumExact,
    /// Relative numeric similarity ([`crate::numeric`]).
    NumRelSim,
}

impl FeatureKind {
    /// All measures applicable to an attribute of the given type.
    pub fn for_attr_type(ty: AttrType) -> &'static [FeatureKind] {
        match ty {
            AttrType::Text => &[
                FeatureKind::Levenshtein,
                FeatureKind::Jaro,
                FeatureKind::JaroWinkler,
                FeatureKind::JaccardWords,
                FeatureKind::Jaccard3Grams,
                FeatureKind::OverlapWords,
                FeatureKind::DiceWords,
                FeatureKind::CosineTfIdf,
                FeatureKind::MongeElkan,
                FeatureKind::ExactMatch,
                FeatureKind::Containment,
                FeatureKind::PrefixSim,
                FeatureKind::Soundex,
                FeatureKind::SmithWaterman,
            ],
            AttrType::Number => &[FeatureKind::NumExact, FeatureKind::NumRelSim],
        }
    }

    /// Relative unit cost of computing the measure on one pair, in units
    /// of one `ExactMatch`. Calibrated against per-pair timings of the
    /// production (analysis/precomputed) kernels, measured by `bench
    /// --bin blocking_perf --kinds` as the per-dataset ratio to
    /// `ExactMatch`, median over the three synthetic datasets at scale
    /// 1.0. The sweep ran kinds in library order over one shared cache
    /// generation, so these are *marginal* costs within a full pass —
    /// e.g. Jaro-Winkler read Jaro's cached score and priced near the
    /// probe (a full vector still computes Jaro once per pair for both).
    /// The values are part of the rule ranking, so a recalibration moves
    /// run outputs and is its own change. The arena repack (DESIGN.md
    /// §4j) compressed the spread hard: with every segment of a value's
    /// analysis on adjacent cache lines, the set-merge kernels now
    /// cluster just above the header-compare kernels, and only the
    /// per-pair-quadratic char measures
    /// (Smith-Waterman, Monge-Elkan) and the wide 3-gram merges still
    /// stand apart — the old 23× top-to-bottom ratio is now ~15×.
    /// Monge-Elkan's measured cost has since fallen twice: one pass over
    /// the distinct-token grid served both directions, and then one token
    /// grid per run of pairs sharing the left value (DESIGN.md §4h), so a
    /// right token that recurs across the run is scored against the left
    /// tokens once. Jaro's has fallen too: whole values of at most 64
    /// chars match against the left value's table, built once per run
    /// instead of a table per pair; and on attributes whose values recur
    /// every kind reads a pair's value row when the thread has scored the
    /// same two values before. Monge-Elkan's 9.5 and Jaro's 6.0 stay, like
    /// every entry: the table ranks blocking rules, so changing it would
    /// change which rules run, and the run bytes with them; a
    /// recalibration is a change of its own.
    /// `tests::costs_track_measured_kernel_timings` keeps this table
    /// honest against kernel drift.
    pub fn unit_cost(self) -> f64 {
        match self {
            FeatureKind::NumRelSim => 0.4,
            FeatureKind::NumExact => 0.5,
            FeatureKind::ExactMatch | FeatureKind::PrefixSim => 1.0,
            FeatureKind::JaroWinkler => 1.7,
            FeatureKind::DiceWords | FeatureKind::OverlapWords => 2.1,
            FeatureKind::JaccardWords => 2.2,
            FeatureKind::CosineTfIdf | FeatureKind::Soundex => 2.3,
            FeatureKind::Containment => 2.4,
            FeatureKind::Levenshtein => 4.5,
            FeatureKind::Jaccard3Grams => 4.6,
            FeatureKind::Jaro => 6.0,
            FeatureKind::MongeElkan => 9.5,
            FeatureKind::SmithWaterman => 14.5,
        }
    }

    /// True if the measure needs a fitted TF/IDF corpus model.
    pub fn needs_corpus(self) -> bool {
        matches!(self, FeatureKind::CosineTfIdf)
    }

    /// Short lowercase mnemonic used in feature names.
    pub fn mnemonic(self) -> &'static str {
        match self {
            FeatureKind::Levenshtein => "lev",
            FeatureKind::Jaro => "jaro",
            FeatureKind::JaroWinkler => "jw",
            FeatureKind::JaccardWords => "jac_w",
            FeatureKind::Jaccard3Grams => "jac_3g",
            FeatureKind::OverlapWords => "ovl_w",
            FeatureKind::DiceWords => "dice_w",
            FeatureKind::CosineTfIdf => "cos_tfidf",
            FeatureKind::MongeElkan => "me",
            FeatureKind::ExactMatch => "exact",
            FeatureKind::Containment => "contain",
            FeatureKind::PrefixSim => "prefix",
            FeatureKind::Soundex => "sdx",
            FeatureKind::SmithWaterman => "sw",
            FeatureKind::NumExact => "num_exact",
            FeatureKind::NumRelSim => "num_rel",
        }
    }
}

/// One feature: a measure applied to one attribute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureDef {
    /// Index of the attribute in the schema.
    pub attr: usize,
    /// Attribute name (denormalized for display).
    pub attr_name: String,
    /// The similarity measure.
    pub kind: FeatureKind,
}

impl FeatureDef {
    /// Display name, e.g. `"title_jw"`.
    pub fn name(&self) -> String {
        format!("{}_{}", self.attr_name, self.kind.mnemonic())
    }

    /// Relative computation cost (see [`FeatureKind::unit_cost`]).
    pub fn cost(&self) -> f64 {
        self.kind.unit_cost()
    }
}

impl fmt::Display for FeatureDef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// The full feature set generated for a schema.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeatureLibrary {
    /// Features in index order; feature `i` of every vector is `defs[i]`.
    pub defs: Vec<FeatureDef>,
}

impl FeatureLibrary {
    /// Enumerate every applicable feature for the schema.
    pub fn for_schema(schema: &Schema) -> Self {
        let mut defs = Vec::new();
        for (ai, attr) in schema.attrs.iter().enumerate() {
            for &kind in FeatureKind::for_attr_type(attr.ty) {
                defs.push(FeatureDef {
                    attr: ai,
                    attr_name: attr.name.clone(),
                    kind,
                });
            }
        }
        FeatureLibrary { defs }
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// True if the library is empty.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Feature names in index order.
    pub fn names(&self) -> Vec<String> {
        self.defs.iter().map(|d| d.name()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::Attribute;

    #[test]
    fn library_covers_all_attr_measure_pairs() {
        let schema = Schema::new(vec![
            Attribute::text("title"),
            Attribute::number("pages"),
        ]);
        let lib = FeatureLibrary::for_schema(&schema);
        let n_text = FeatureKind::for_attr_type(AttrType::Text).len();
        let n_num = FeatureKind::for_attr_type(AttrType::Number).len();
        assert_eq!(lib.len(), n_text + n_num);
        assert!(lib.names().contains(&"title_jw".to_string()));
        assert!(lib.names().contains(&"pages_num_rel".to_string()));
        assert!(!lib.names().contains(&"pages_jw".to_string()));
    }

    #[test]
    fn costs_are_positive_and_ordered() {
        for ty in [AttrType::Text, AttrType::Number] {
            for &k in FeatureKind::for_attr_type(ty) {
                assert!(k.unit_cost() > 0.0);
            }
        }
        assert!(FeatureKind::MongeElkan.unit_cost() > FeatureKind::ExactMatch.unit_cost());
    }

    /// `unit_cost` claims a relative ordering of kernel costs; this test
    /// measures the production (analysis-path) kernels on a synthetic
    /// workload, one `feature_run` per A record as the blocking-rule
    /// sweep calls them, and checks the ordering for pairs the table separates
    /// widely (≥ 5x claimed ratio). The tolerance band is deliberately
    /// generous — the measured ratio only has to exceed 2x — so the test
    /// catches real miscalibration (a "cheap" kernel that is actually
    /// slower than an "expensive" one) without being flaky under load.
    /// Medians over repeated sweeps absorb scheduling noise.
    #[test]
    fn costs_track_measured_kernel_timings() {
        use crate::record::{Table, Value};
        use crate::vector::FeatureVectorizer;
        use std::sync::Arc;
        use std::time::Instant;

        let schema = Arc::new(Schema::new(vec![Attribute::text("title")]));
        let rows = |tag: &str| -> Vec<Vec<Value>> {
            (0..24)
                .map(|i| {
                    vec![Value::Text(format!(
                        "{tag} acme fastwidget model {} rev {} industrial grade steel {}",
                        i % 7,
                        i,
                        i * 31 % 97
                    ))]
                })
                .collect()
        };
        let a = Table::new("a", schema.clone(), rows("alpha"));
        let b = Table::new("b", schema, rows("beta"));
        let vz = FeatureVectorizer::fit(&a, &b);
        let all_b: Vec<&crate::record::Record> = b.records.iter().collect();
        let mut col = vec![0.0; all_b.len()];

        let mut median_ns = |kind: FeatureKind| -> f64 {
            let idx = vz
                .library()
                .defs
                .iter()
                .position(|d| d.kind == kind)
                .expect("kind in library");
            let mut reps: Vec<f64> = (0..5)
                .map(|_| {
                    // Fresh analysis per rep: its new generation misses
                    // every entry the char kernels' per-thread token table,
                    // left table and value rows hold, so every rep measures
                    // the kernel, not a table lookup.
                    let an = vz.analyze(&a, &b, exec::Threads::new(1));
                    let t0 = Instant::now();
                    let mut sink = 0.0;
                    for ra in &a.records {
                        vz.feature_run(idx, ra, &all_b, &an, &mut col);
                        sink += col.iter().sum::<f64>();
                    }
                    std::hint::black_box(sink);
                    t0.elapsed().as_nanos() as f64 / (a.records.len() * b.records.len()) as f64
                })
                .collect();
            reps.sort_by(|x, y| x.total_cmp(y));
            reps[reps.len() / 2]
        };

        // (expensive, cheap) pairs with a claimed cost ratio ≥ 5x. The
        // arena repack (PR 9) compressed the table, so the surviving
        // wide gaps all involve the quadratic char kernels; in exchange
        // the measured bound is tightened from 2x to 2.5x.
        let pairs = [
            (FeatureKind::MongeElkan, FeatureKind::ExactMatch),
            (FeatureKind::SmithWaterman, FeatureKind::OverlapWords),
            (FeatureKind::SmithWaterman, FeatureKind::CosineTfIdf),
            (FeatureKind::Jaro, FeatureKind::PrefixSim),
        ];
        for (hi, lo) in pairs {
            let claimed = hi.unit_cost() / lo.unit_cost();
            assert!(claimed >= 5.0, "{hi:?}/{lo:?} no longer widely separated; pick new pairs");
            let (t_hi, t_lo) = (median_ns(hi), median_ns(lo));
            assert!(
                t_hi > 2.5 * t_lo,
                "unit_cost says {hi:?} is {claimed:.0}x costlier than {lo:?}, but measured \
                 {t_hi:.0} ns vs {t_lo:.0} ns per pair — recalibrate the cost table"
            );
        }
    }

    #[test]
    fn only_tfidf_needs_corpus() {
        assert!(FeatureKind::CosineTfIdf.needs_corpus());
        assert!(!FeatureKind::Levenshtein.needs_corpus());
    }

    #[test]
    fn names_are_unique() {
        let schema = Schema::new(vec![
            Attribute::text("a"),
            Attribute::text("b"),
            Attribute::number("n"),
        ]);
        let lib = FeatureLibrary::for_schema(&schema);
        let mut names = lib.names();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
