//! The candidate set `C`: surviving pairs with materialized feature
//! vectors.
//!
//! The blocking threshold `t_B` is chosen so that "we can fit the feature
//! vectors of all these pairs in memory" (§4.1) — this type is that
//! in-memory materialization: a dense row-major matrix parallel to the
//! pair list. Vectorization runs through the shared [`exec`] core since it
//! is the dominant cost when `C` is large, one run of pairs sharing the
//! left record at a time: every candidate stream (`S`, `C`, the
//! Cartesian scan) is row-major. A caller may pass a [`FeatureCache`] to
//! read through pair by pair; engine runs started by a session pass none.

use crate::cache::FeatureCache;
use crate::source::{CandidateSource, CartesianScan};
use crate::task::MatchTask;
use crowd::PairKey;
use exec::Threads;

/// Pairs plus their feature vectors.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    pairs: Vec<PairKey>,
    n_features: usize,
    matrix: Vec<f64>,
}

impl CandidateSet {
    /// Materialize feature vectors for `pairs` using the task's
    /// vectorizer, in parallel on the machine's available parallelism and
    /// without a cache. Engine runs use [`CandidateSet::build_with`].
    pub fn build(task: &MatchTask, pairs: Vec<PairKey>) -> Self {
        Self::build_with(task, pairs, Threads::auto(), None)
    }

    /// Materialize feature vectors for `pairs` with an explicit thread
    /// budget, consulting `cache` (read-through) when given. Builds the
    /// task's record analysis on that budget first if it is missing.
    /// The matrix is allocated once and each row is written in place.
    /// Parallel tasks hold whole runs of pairs sharing the left record
    /// ([`task_ends`]); without a cache, each run inside a task is
    /// vectorized in one call.
    pub fn build_with(
        task: &MatchTask,
        pairs: Vec<PairKey>,
        threads: Threads,
        cache: Option<&FeatureCache>,
    ) -> Self {
        let n_features = task.n_features();
        task.ensure_analysis(threads);
        let mut matrix = vec![0.0; pairs.len() * n_features];
        let ends = task_ends(&pairs);
        let splits: Vec<usize> = ends.iter().map(|&e| e * n_features).collect();
        exec::par_split_at_mut(threads, &mut matrix, &splits, |t, rows| {
            let start = if t == 0 { 0 } else { ends[t - 1] };
            let keys = &pairs[start..ends[t]];
            if let Some(cache) = cache {
                for (&key, row) in keys.iter().zip(rows.chunks_exact_mut(n_features)) {
                    row.copy_from_slice(&cache.get_or_compute(key, || task.vectorize(key)));
                }
                return;
            }
            let mut done = 0;
            for run in keys.chunk_by(|x, y| x.a == y.a) {
                let end = done + run.len();
                task.vectorize_run_into(run, &mut rows[done * n_features..end * n_features]);
                done = end;
            }
        });
        CandidateSet { pairs, n_features, matrix }
    }

    /// Materialize the pairs produced by a [`CandidateSource`]: generate
    /// (deterministic row-major order at any thread count), then
    /// vectorize. The Blocker's sole entry into this type.
    pub fn from_source(
        task: &MatchTask,
        source: &dyn CandidateSource,
        threads: Threads,
        cache: Option<&FeatureCache>,
    ) -> Self {
        Self::build_with(task, source.generate(threads), threads, cache)
    }

    /// All `|A| × |B|` pairs, vectorized. Only sensible when the Cartesian
    /// product is at most `t_B` (the no-blocking path). An empty table on
    /// either side yields an empty set.
    pub fn full_cartesian(task: &MatchTask) -> Self {
        Self::full_cartesian_with(task, Threads::auto(), None)
    }

    /// [`CandidateSet::full_cartesian`] with an explicit thread budget and
    /// optional feature cache.
    pub fn full_cartesian_with(
        task: &MatchTask,
        threads: Threads,
        cache: Option<&FeatureCache>,
    ) -> Self {
        Self::from_source(task, &CartesianScan::new(task, Vec::new()), threads, cache)
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if there are no pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Features per pair.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The feature row of pair `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.matrix[i * self.n_features..(i + 1) * self.n_features]
    }

    /// The full row-major feature matrix (`len × n_features`).
    pub fn matrix(&self) -> &[f64] {
        &self.matrix
    }

    /// The key of pair `i`.
    pub fn pair(&self, i: usize) -> PairKey {
        self.pairs[i]
    }

    /// All pair keys.
    pub fn pairs(&self) -> &[PairKey] {
        &self.pairs
    }

    /// Index of a pair key, if present (linear scan — used only in tests
    /// and small paths).
    pub fn index_of(&self, key: PairKey) -> Option<usize> {
        self.pairs.iter().position(|&p| p == key)
    }

    /// Restrict to a subset of indices, keeping their order.
    pub fn subset(&self, indices: &[usize]) -> CandidateSet {
        let mut pairs = Vec::with_capacity(indices.len());
        let mut matrix = Vec::with_capacity(indices.len() * self.n_features);
        for &i in indices {
            pairs.push(self.pairs[i]);
            matrix.extend_from_slice(self.row(i));
        }
        CandidateSet { pairs, n_features: self.n_features, matrix }
    }
}

/// Row ends of the parallel tasks [`CandidateSet::build_with`] fills:
/// whole runs of pairs sharing the left record, grouped until a task
/// holds at least `ROWS_PER_TASK` rows, so no run shorter than a task is
/// vectorized in two calls. Only a run longer than `MAX_ROWS_PER_TASK`
/// is cut, into near-equal pieces, so a long Cartesian run still spreads
/// over the threads. The split depends on the pair list only, never on
/// the thread budget.
fn task_ends(pairs: &[PairKey]) -> Vec<usize> {
    const ROWS_PER_TASK: usize = 64;
    const MAX_ROWS_PER_TASK: usize = 1024;
    let mut ends = Vec::new();
    let mut open = 0;
    let mut start = 0;
    for run in pairs.chunk_by(|x, y| x.a == y.a) {
        let end = start + run.len();
        if run.len() > MAX_ROWS_PER_TASK {
            if open < start {
                ends.push(start);
            }
            let pieces = run.len().div_ceil(MAX_ROWS_PER_TASK);
            ends.extend((1..=pieces).map(|p| start + run.len() * p / pieces));
            open = end;
        } else if end - open >= ROWS_PER_TASK {
            ends.push(end);
            open = end;
        }
        start = end;
    }
    if open < pairs.len() {
        ends.push(pairs.len());
    }
    ends
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::task_from_parts;
    use similarity::{Attribute, Schema, Table, Value};
    use std::sync::Arc;

    fn task() -> MatchTask {
        let schema = Arc::new(Schema::new(vec![Attribute::text("name")]));
        let rows = |n: usize, tag: &str| -> Vec<Vec<Value>> {
            (0..n)
                .map(|i| vec![Value::Text(format!("{tag} {i}"))])
                .collect()
        };
        let a = Table::new("a", schema.clone(), rows(5, "alpha"));
        let b = Table::new("b", schema, rows(7, "alpha"));
        task_from_parts(a, b, "same?", [(0, 0), (1, 1)], [(0, 6), (2, 5)])
    }

    #[test]
    fn full_cartesian_has_all_pairs() {
        let t = task();
        let c = CandidateSet::full_cartesian(&t);
        assert_eq!(c.len(), 35);
        assert_eq!(c.n_features(), t.n_features());
        assert_eq!(c.pair(0), PairKey::new(0, 0));
        assert_eq!(c.pair(34), PairKey::new(4, 6));
    }

    #[test]
    fn rows_match_direct_vectorization() {
        let t = task();
        let c = CandidateSet::full_cartesian(&t);
        for i in [0usize, 7, 34] {
            let direct = t.vectorize(c.pair(i));
            let row = c.row(i);
            for (x, y) in direct.iter().zip(row) {
                assert!((x == y) || (x.is_nan() && y.is_nan()));
            }
        }
    }

    #[test]
    fn subset_preserves_rows() {
        let t = task();
        let c = CandidateSet::full_cartesian(&t);
        let s = c.subset(&[3, 10, 20]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.pair(1), c.pair(10));
        assert_eq!(s.row(2), c.row(20));
    }

    #[test]
    fn index_of_finds_pairs() {
        let t = task();
        let c = CandidateSet::full_cartesian(&t);
        assert_eq!(c.index_of(PairKey::new(2, 3)), Some(2 * 7 + 3));
        assert_eq!(c.index_of(PairKey::new(9, 9)), None);
    }

    #[test]
    fn build_empty_is_fine() {
        let t = task();
        let c = CandidateSet::build(&t, vec![]);
        assert!(c.is_empty());
    }

    #[test]
    fn full_cartesian_on_empty_tables_is_empty() {
        // Regression: an empty table on either side (seedless tasks can
        // be constructed directly or deserialized) must yield an empty
        // set, never panic on a zero-length matrix.
        let schema = Arc::new(Schema::new(vec![Attribute::text("name")]));
        type Rows = Vec<Vec<Value>>;
        let cases: [(Rows, Rows); 3] = [
            (vec![], vec![vec!["x".into()]]),
            (vec![vec!["x".into()]], vec![]),
            (vec![], vec![]),
        ];
        for (rows_a, rows_b) in cases {
            let a = Table::new("a", schema.clone(), rows_a);
            let b = Table::new("b", schema.clone(), rows_b);
            let vectorizer = similarity::FeatureVectorizer::fit(&a, &b);
            let t = MatchTask {
                table_a: a,
                table_b: b,
                instruction: String::new(),
                seeds: vec![],
                vectorizer,
                analysis: Default::default(),
            };
            let c = CandidateSet::full_cartesian(&t);
            assert!(c.is_empty());
            assert_eq!(c.matrix().len(), 0);
        }
    }

    #[test]
    fn from_source_matches_full_cartesian() {
        let t = task();
        let direct = CandidateSet::full_cartesian(&t);
        let via = CandidateSet::from_source(
            &t,
            &CartesianScan::new(&t, Vec::new()),
            Threads::new(2),
            None,
        );
        assert_eq!(direct.pairs(), via.pairs());
        let bits = |m: &[f64]| m.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(direct.matrix()), bits(via.matrix()));
    }

    #[test]
    fn tasks_hold_whole_runs_and_cut_only_long_ones() {
        let run = |a: u32, n: u32| (0..n).map(move |b| PairKey::new(a, b));
        // A run of a task's size or more is a task of its own.
        let pairs: Vec<PairKey> = (0..3).flat_map(|a| run(a, 94)).collect();
        assert_eq!(task_ends(&pairs), vec![94, 188, 282]);
        // Short runs group until a task holds 64 rows; the tail closes
        // the last task.
        let pairs: Vec<PairKey> = (0..5).flat_map(|a| run(a, 30)).collect();
        assert_eq!(task_ends(&pairs), vec![90, 150]);
        // A long run closes the open task and is cut into near-equal
        // pieces.
        let pairs: Vec<PairKey> = run(0, 10).chain(run(1, 2500)).chain(run(2, 10)).collect();
        assert_eq!(task_ends(&pairs), vec![10, 843, 1676, 2510, 2520]);
        assert!(task_ends(&[]).is_empty());
    }

    #[test]
    fn build_with_cache_vectorizes_each_pair_once() {
        let t = task();
        let cache = FeatureCache::with_capacity(1000);
        let pairs: Vec<PairKey> = (0..5u32)
            .flat_map(|a| (0..7u32).map(move |b| PairKey::new(a, b)))
            .collect();
        let c1 = CandidateSet::build_with(&t, pairs.clone(), Threads::new(2), Some(&cache));
        assert_eq!(cache.stats().misses, 35);
        let c2 = CandidateSet::build_with(&t, pairs, Threads::new(1), Some(&cache));
        assert_eq!(cache.stats().hits, 35, "second build served from cache");
        let bits = |m: &[f64]| m.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(c1.matrix()), bits(c2.matrix()));
    }
}
