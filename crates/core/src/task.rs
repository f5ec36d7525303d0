//! The hands-off task description: exactly what a Corleone user supplies
//! (paper §3) — two tables, a matching instruction, and four seed examples.

use crowd::PairKey;
use exec::Threads;
use serde::{Deserialize, Serialize};
use similarity::{AttrType, FeatureVectorizer, Record, Table, TaskAnalysis, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Snapshot of the task's feature-kernel counters (see [`AnalysisCell`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelCounters {
    /// Full pair vectorizations requested through [`MatchTask::vectorize`].
    pub pairs_vectorized: u64,
    /// Single-feature evaluations of the blocker's rule sweep: one per
    /// feature of each rule a pair reaches.
    pub single_features: u64,
}

impl KernelCounters {
    /// Counter increments since `start` (for per-run reporting on a task
    /// that may be shared across runs).
    pub fn delta(&self, start: &KernelCounters) -> KernelCounters {
        KernelCounters {
            pairs_vectorized: self.pairs_vectorized - start.pairs_vectorized,
            single_features: self.single_features - start.single_features,
        }
    }
}

/// Lazily-built, never-serialized holder of a task's precomputed
/// [`TaskAnalysis`] plus kernel counters.
///
/// The analysis is **derived state**: it is a pure function of the tables
/// and the fitted vectorizer, so snapshots must not carry it (it is
/// rebuilt on resume, like the feature matrix). The vendored serde derive
/// has no field-skipping, so this type implements `Serialize` as JSON
/// `null` and `Deserialize` as an empty cell by hand.
#[derive(Default)]
pub struct AnalysisCell {
    cell: OnceLock<Arc<TaskAnalysis>>,
    pairs_vectorized: AtomicU64,
    single_features: AtomicU64,
}

impl AnalysisCell {
    /// The built analysis, if any.
    pub fn get(&self) -> Option<&TaskAnalysis> {
        self.cell.get().map(|a| a.as_ref())
    }

    /// Batched counter add for single-feature evaluations: hot loops
    /// count locally and flush one atomic add per work item instead of
    /// contending on the shared counters once per feature.
    pub fn note_single_features(&self, n: u64) {
        self.single_features.fetch_add(n, Ordering::Relaxed);
    }

    /// Install a prebuilt analysis handle (the shared-registry path:
    /// another task with the same content fingerprint already built it).
    /// Returns `false` — and changes nothing — if this cell was already
    /// populated.
    pub fn install(&self, analysis: Arc<TaskAnalysis>) -> bool {
        self.cell.set(analysis).is_ok()
    }

    /// The built analysis as a shareable handle, if any.
    pub fn shared(&self) -> Option<Arc<TaskAnalysis>> {
        self.cell.get().cloned()
    }

    /// Current counter values.
    pub fn counters(&self) -> KernelCounters {
        KernelCounters {
            pairs_vectorized: self.pairs_vectorized.load(Ordering::Relaxed),
            single_features: self.single_features.load(Ordering::Relaxed),
        }
    }
}

impl Clone for AnalysisCell {
    fn clone(&self) -> Self {
        let cell = OnceLock::new();
        if let Some(a) = self.cell.get() {
            let _ = cell.set(Arc::clone(a));
        }
        let c = self.counters();
        AnalysisCell {
            cell,
            pairs_vectorized: AtomicU64::new(c.pairs_vectorized),
            single_features: AtomicU64::new(c.single_features),
        }
    }
}

impl std::fmt::Debug for AnalysisCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisCell")
            .field("built", &self.cell.get().is_some())
            .field("counters", &self.counters())
            .finish()
    }
}

impl serde::Serialize for AnalysisCell {
    fn to_json_value(&self) -> serde::Value {
        serde::Value::Null
    }
}

impl serde::Deserialize for AnalysisCell {
    fn from_json_value(_v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(AnalysisCell::default())
    }
}

/// A hands-off EM task. Constructing one fits the feature vectorizer
/// (feature library + per-attribute TF/IDF corpora) over both tables.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MatchTask {
    /// Table A (conventionally the smaller one).
    pub table_a: Table,
    /// Table B.
    pub table_b: Table,
    /// Short textual instruction to the crowd (§3 item 2).
    pub instruction: String,
    /// The four labeled seed examples (§3 item 3): two positive, two
    /// negative.
    pub seeds: Vec<(PairKey, bool)>,
    /// Fitted vectorizer for this task.
    pub vectorizer: FeatureVectorizer,
    /// Lazily-built record-analysis layer (derived state; serialized as
    /// `null` and rebuilt on demand after deserialization).
    pub analysis: AnalysisCell, // lint:allow(D9): derived cache, recomputed from records on first use after resume; counters are observability-only and never reach report bytes
}

impl MatchTask {
    /// Build a task. Fits the vectorizer over both tables.
    ///
    /// # Panics
    /// Panics if the tables do not share a schema or the seed examples are
    /// not two positive and two negative pairs within the tables.
    pub fn new(
        table_a: Table,
        table_b: Table,
        instruction: impl Into<String>,
        seeds: Vec<(PairKey, bool)>,
    ) -> Self {
        assert_eq!(
            seeds.iter().filter(|(_, l)| *l).count(),
            2,
            "need exactly two positive seed examples"
        );
        assert_eq!(
            seeds.iter().filter(|(_, l)| !*l).count(),
            2,
            "need exactly two negative seed examples"
        );
        for (p, _) in &seeds {
            assert!(
                (p.a as usize) < table_a.len() && (p.b as usize) < table_b.len(),
                "seed pair {p:?} out of range"
            );
        }
        let vectorizer = FeatureVectorizer::fit(&table_a, &table_b);
        MatchTask {
            table_a,
            table_b,
            instruction: instruction.into(),
            seeds,
            vectorizer,
            analysis: AnalysisCell::default(),
        }
    }

    /// Build (once) and return the precomputed record-analysis layer that
    /// [`Self::vectorize`] and [`Self::feature`] compute through. Those
    /// build it single-threaded on first use; call this first to build it
    /// on a wider thread budget.
    pub fn ensure_analysis(&self, threads: Threads) -> &TaskAnalysis {
        self.analysis
            .cell
            .get_or_init(|| {
                Arc::new(self.vectorizer.analyze(&self.table_a, &self.table_b, threads))
            })
            .as_ref()
    }

    /// Current feature-kernel counters (cumulative over the task's life).
    pub fn kernel_counters(&self) -> KernelCounters {
        self.analysis.counters()
    }

    /// Content address of this task's record-analysis layer: a hash of
    /// the schema and both tables' values, in one pass over the records.
    /// [`Self::ensure_analysis`] is a pure function of those (the
    /// vectorizer is fitted from them), so two tasks with equal
    /// fingerprints produce bit-identical [`TaskAnalysis`], and a
    /// cross-tenant registry can hand one build to all of them.
    pub fn analysis_fingerprint(&self) -> String {
        let mut h = store::Fnv64::default();
        let attrs = &self.table_a.schema.attrs;
        h.write(&(attrs.len() as u64).to_le_bytes());
        for attr in attrs {
            h.write(&[match attr.ty {
                AttrType::Text => 1,
                AttrType::Number => 2,
            }]);
            h.write(&(attr.name.len() as u64).to_le_bytes());
            h.write(attr.name.as_bytes());
        }
        self.digest_values(&mut h);
        h.hex()
    }

    /// Feed both tables' values and the seed pairs to `h`, in one pass
    /// over the records.
    pub(crate) fn digest_records(&self, h: &mut store::Fnv64) {
        self.digest_values(h);
        for &(p, label) in &self.seeds {
            h.write(&p.a.to_le_bytes());
            h.write(&p.b.to_le_bytes());
            h.write(&[u8::from(label)]);
        }
    }

    /// Feed both tables' values to `h`. Each value is tagged and each
    /// text length-prefixed, so two different tables never feed the same
    /// bytes.
    fn digest_values(&self, h: &mut store::Fnv64) {
        for table in [&self.table_a, &self.table_b] {
            h.write(&(table.len() as u64).to_le_bytes());
            for value in table.records.iter().flat_map(|r| &r.values) {
                match value {
                    Value::Text(s) => {
                        h.write(&[1]);
                        h.write(&(s.len() as u64).to_le_bytes());
                        h.write(s.as_bytes());
                    }
                    Value::Number(x) => {
                        h.write(&[2]);
                        h.write(&x.to_bits().to_le_bytes());
                    }
                    Value::Null => h.write(&[0]),
                }
            }
        }
    }

    /// Adopt a prebuilt analysis from another task with the same
    /// [`Self::analysis_fingerprint`]. Returns `false` if this task had
    /// already built (or adopted) one.
    pub fn install_analysis(&self, analysis: Arc<TaskAnalysis>) -> bool {
        self.analysis.install(analysis)
    }

    /// This task's analysis as a shareable handle, if built.
    pub fn shared_analysis(&self) -> Option<Arc<TaskAnalysis>> {
        self.analysis.shared()
    }

    /// `|A × B|`.
    pub fn cartesian_size(&self) -> u64 {
        self.table_a.len() as u64 * self.table_b.len() as u64
    }

    /// Number of features per pair vector.
    pub fn n_features(&self) -> usize {
        self.vectorizer.n_features()
    }

    /// Compute the full feature vector of a pair through the precomputed
    /// analysis (built on first use): a run of one pair.
    pub fn vectorize(&self, pair: PairKey) -> Vec<f64> {
        let mut row = vec![0.0; self.n_features()];
        self.vectorize_run_into(&[pair], &mut row);
        row
    }

    /// Feature vectors of a run of pairs that share the left record, into
    /// `out` (one row of [`Self::n_features`] values per pair): the
    /// allocation-free form a candidate matrix is filled through. See
    /// [`similarity::FeatureVectorizer::vectorize_pre_into`] for what a
    /// run shares.
    pub(crate) fn vectorize_run_into(&self, run: &[PairKey], out: &mut [f64]) {
        let Some(first) = run.first() else {
            return;
        };
        debug_assert!(run.iter().all(|p| p.a == first.a), "a run shares its left record");
        let an = self.ensure_analysis(Threads::new(1));
        let a = self.table_a.record(first.a);
        let bs: Vec<&Record> = run.iter().map(|p| self.table_b.record(p.b)).collect();
        self.analysis.pairs_vectorized.fetch_add(run.len() as u64, Ordering::Relaxed);
        self.vectorizer.vectorize_pre_into(a, &bs, an, out);
    }

    /// Feature vectors of the four seed examples, with their labels —
    /// the labeled set every active-learning run starts from.
    pub fn seed_vectors(&self) -> Vec<(Vec<f64>, bool)> {
        self.seeds.iter().map(|&(k, l)| (self.vectorize(k), l)).collect()
    }

    /// Per-feature unit costs (for rule ranking, §4.3).
    pub fn feature_costs(&self) -> Vec<f64> {
        self.vectorizer.library().defs.iter().map(|d| d.cost()).collect()
    }

    /// Feature names (for rule display).
    pub fn feature_names(&self) -> Vec<String> {
        self.vectorizer.library().names()
    }
}

/// Build a [`MatchTask`] from a generated dataset-like bundle. Kept here so
/// examples and benches don't repeat the glue.
pub fn task_from_parts(
    table_a: Table,
    table_b: Table,
    instruction: &str,
    positive: [(u32, u32); 2],
    negative: [(u32, u32); 2],
) -> MatchTask {
    let seeds = positive
        .iter()
        .map(|&(a, b)| (PairKey::new(a, b), true))
        .chain(negative.iter().map(|&(a, b)| (PairKey::new(a, b), false)))
        .collect();
    MatchTask::new(table_a, table_b, instruction, seeds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use similarity::{Attribute, Schema, Value};
    use std::sync::Arc;

    fn tiny_task() -> MatchTask {
        let schema = Arc::new(Schema::new(vec![Attribute::text("name")]));
        let rows_a: Vec<Vec<Value>> =
            (0..6).map(|i| vec![Value::Text(format!("item {i}"))]).collect();
        let rows_b: Vec<Vec<Value>> =
            (0..6).map(|i| vec![Value::Text(format!("item {i}"))]).collect();
        let a = Table::new("a", schema.clone(), rows_a);
        let b = Table::new("b", schema, rows_b);
        task_from_parts(a, b, "match same item", [(0, 0), (1, 1)], [(0, 5), (2, 4)])
    }

    #[test]
    fn task_wiring() {
        let t = tiny_task();
        assert_eq!(t.cartesian_size(), 36);
        assert_eq!(t.seeds.len(), 4);
        assert!(t.n_features() > 0);
        // A fresh task has no analysis; the first vectorize builds it and
        // computes every feature through the precomputed kernels.
        assert!(t.analysis.get().is_none());
        let v = t.vectorize(PairKey::new(0, 0));
        assert!(t.analysis.get().is_some(), "vectorize builds the analysis");
        let k = t.kernel_counters();
        assert_eq!(k.pairs_vectorized, 1);
        assert_eq!(v.len(), t.n_features());
        let string_path = t.vectorizer.feature(0, t.table_a.record(0), t.table_b.record(0));
        assert_eq!(string_path.to_bits(), v[0].to_bits());
        let seeds = t.seed_vectors();
        assert_eq!(seeds.len(), 4);
        let bits = |x: &[f64]| x.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!((bits(&seeds[0].0), seeds[0].1), (bits(&v), true), "seed (0, 0)");
        assert_eq!(t.feature_costs().len(), t.n_features());
        assert_eq!(t.feature_names().len(), t.n_features());
    }

    #[test]
    fn attribute_types_separate_analysis_fingerprints() {
        // The same values under a text and under a number `code` column:
        // only a text column is analyzed, so the two builds differ.
        let task = |ty| {
            let code = Attribute {
                name: "code".into(),
                ty,
            };
            let schema = Arc::new(Schema::new(vec![Attribute::text("name"), code]));
            let rows: Vec<Vec<Value>> = (0..6)
                .map(|i| {
                    vec![
                        Value::Text(format!("item {i}")),
                        Value::Text(format!("c{i}")),
                    ]
                })
                .collect();
            let a = Table::new("a", schema.clone(), rows.clone());
            let b = Table::new("b", schema, rows);
            task_from_parts(a, b, "match same item", [(0, 0), (1, 1)], [(0, 5), (2, 4)])
        };
        let text = task(AttrType::Text).analysis_fingerprint();
        assert_eq!(text, task(AttrType::Text).analysis_fingerprint());
        assert_ne!(text, task(AttrType::Number).analysis_fingerprint());
    }

    #[test]
    #[should_panic(expected = "two positive seed")]
    fn rejects_wrong_seed_balance() {
        let t = tiny_task();
        MatchTask::new(
            t.table_a.clone(),
            t.table_b.clone(),
            "x",
            vec![
                (PairKey::new(0, 0), true),
                (PairKey::new(1, 1), false),
                (PairKey::new(2, 2), false),
                (PairKey::new(3, 3), false),
            ],
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_seed() {
        let t = tiny_task();
        MatchTask::new(
            t.table_a.clone(),
            t.table_b.clone(),
            "x",
            vec![
                (PairKey::new(0, 0), true),
                (PairKey::new(99, 1), true),
                (PairKey::new(2, 2), false),
                (PairKey::new(3, 3), false),
            ],
        );
    }
}
