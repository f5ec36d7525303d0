//! The candidate set `C`: surviving pairs with materialized feature
//! vectors.
//!
//! The blocking threshold `t_B` is chosen so that "we can fit the feature
//! vectors of all these pairs in memory" (§4.1) — this type is that
//! in-memory materialization. Vectorization runs through the shared
//! [`exec`] core since it is the dominant cost when `C` is large, one run
//! of pairs sharing the left record at a time: every candidate stream
//! (`S`, `C`, the Cartesian scan) lists its pairs in row-major order of
//! `A × B`. A caller may pass a [`FeatureCache`] to read through pair by
//! pair; engine runs started by a session pass none.
//!
//! # Layout
//!
//! The matrix is stored in tiles, the row ranges of the parallel build
//! tasks ([`task_ends`], a function of the pair list alone). A tile of
//! `n` rows holds its `n × n_features` values column-major: feature `f`
//! of the tile's row `r` sits at `f·n + r`, so each feature is one
//! contiguous slice per tile. The scans that run over a whole set again
//! and again read only a few features of each row, and here they read
//! them by column: forest votes ([`CandidateSet::positive_votes`]) go one
//! tree at a time over a tile's rows, from one predicate bitmask per
//! split node, and rule coverage ([`CandidateSet::coverage`]) filters a
//! tile's rows one predicate at a time. Nothing outside this module sees
//! the layout: [`CandidateSet::row`] gathers an owned vector.

use crate::cache::FeatureCache;
use crate::source::{CandidateSource, CartesianScan};
use crate::task::MatchTask;
use crowd::PairKey;
use exec::Threads;
use forest::tree::Node;
use forest::{RandomForest, Rule};

/// Below this many rows a vote scan runs on the calling thread: spawning
/// would cost more than it saves.
const PAR_MIN_ROWS: usize = 8192;

/// Pairs plus their feature vectors.
#[derive(Debug, Clone)]
pub struct CandidateSet {
    pairs: Vec<PairKey>,
    n_features: usize,
    /// Row ends of the tiles: [`task_ends`] of `pairs`.
    tile_ends: Vec<usize>,
    /// The tiles in row order, each column-major.
    matrix: Vec<f64>,
}

/// One tile of a [`CandidateSet`]: rows `start..start + len`, feature `f`
/// of row `start + r` at `cells[f * len + r]`.
#[derive(Clone, Copy)]
struct Tile<'a> {
    start: usize,
    len: usize,
    cells: &'a [f64],
}

impl<'a> Tile<'a> {
    /// Feature `f` of every row of the tile.
    fn col(self, f: usize) -> &'a [f64] {
        &self.cells[f * self.len..(f + 1) * self.len]
    }
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
    /// The matrix is allocated once and each tile is filled by one
    /// parallel task, which holds whole runs of pairs sharing the left
    /// record ([`task_ends`]): without a cache, each run is vectorized in
    /// one call into a row-major buffer, which is then transposed into
    /// the tile's columns.
    pub fn build_with(
        task: &MatchTask,
        pairs: Vec<PairKey>,
        threads: Threads,
        cache: Option<&FeatureCache>,
    ) -> Self {
        let n_features = task.n_features();
        task.ensure_analysis(threads);
        let mut matrix = vec![0.0; pairs.len() * n_features];
        let tile_ends = task_ends(&pairs);
        let splits: Vec<usize> = tile_ends.iter().map(|&e| e * n_features).collect();
        exec::par_split_at_mut(threads, &mut matrix, &splits, |t, cells| {
            let start = if t == 0 { 0 } else { tile_ends[t - 1] };
            let keys = &pairs[start..tile_ends[t]];
            let mut rows = vec![0.0; cells.len()];
            if let Some(cache) = cache {
                for (k, &key) in keys.iter().enumerate() {
                    let row = &mut rows[k * n_features..(k + 1) * n_features];
                    row.copy_from_slice(&cache.get_or_compute(key, || task.vectorize(key)));
                }
            } else {
                let mut done = 0;
                for run in keys.chunk_by(|x, y| x.a == y.a) {
                    let end = done + run.len();
                    task.vectorize_run_into(run, &mut rows[done * n_features..end * n_features]);
                    done = end;
                }
            }
            for (f, col) in cells.chunks_exact_mut(keys.len()).enumerate() {
                for (r, x) in col.iter_mut().enumerate() {
                    *x = rows[r * n_features + f];
                }
            }
        });
        CandidateSet { pairs, n_features, tile_ends, matrix }
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

    /// The feature vector of pair `i`, gathered from its tile's columns.
    pub fn row(&self, i: usize) -> Vec<f64> {
        let tile = self.tile(self.tile_of(i));
        let r = i - tile.start;
        (0..self.n_features).map(|f| tile.col(f)[r]).collect()
    }

    /// The whole feature buffer, `len × n_features` values in the set's
    /// own tiled layout (see the module docs). For comparing the bits of
    /// two sets built from the same pairs, which share a layout; read
    /// features through [`Self::row`] and the scans.
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

    /// Restrict to a subset of indices, keeping their order. The subset
    /// is tiled for its own pair list, so its rows are gathered column by
    /// column.
    pub fn subset(&self, indices: &[usize]) -> CandidateSet {
        let pairs: Vec<PairKey> = indices.iter().map(|&i| self.pairs[i]).collect();
        let nf = self.n_features;
        // Where each chosen row's feature 0 sits, and the stride to its
        // next feature (its tile's row count).
        let mut src: Vec<(usize, usize)> = Vec::with_capacity(indices.len());
        for (tile, rows) in self.stretches(indices) {
            let base = tile.start * nf;
            src.extend(rows.iter().map(|&i| (base + i - tile.start, tile.len)));
        }
        let tile_ends = task_ends(&pairs);
        let mut matrix = vec![0.0; pairs.len() * nf];
        let mut start = 0;
        let mut rest = matrix.as_mut_slice();
        for &end in &tile_ends {
            let (cells, tail) = rest.split_at_mut((end - start) * nf);
            for (f, col) in cells.chunks_exact_mut(end - start).enumerate() {
                for (x, &(at, stride)) in col.iter_mut().zip(&src[start..end]) {
                    *x = self.matrix[at + f * stride];
                }
            }
            rest = tail;
            start = end;
        }
        CandidateSet { pairs, n_features: nf, tile_ends, matrix }
    }

    /// How many of `forest`'s trees vote "matched" for each pair of
    /// `indices`, in the order given: [`RandomForest::positive_votes`] of
    /// each row, in parallel over tiles for large lists. Every tile the
    /// list touches is scored whole, one tree at a time, from one predicate
    /// bitmask per split node ([`TileMasks`]), and the chosen rows' counts
    /// are read off. So a call costs a pass over each tile it touches,
    /// however few of the tile's rows it asks for: a caller that scores a
    /// few scattered rows again and again gathers them first
    /// ([`Self::subset`]), as the learner's monitor set does. A count is an
    /// integer, so the order rows and trees are visited in cannot change
    /// it: an unsorted list is scanned in ascending order and its counts
    /// put back in the given order.
    pub fn positive_votes(
        &self,
        forest: &RandomForest,
        indices: &[usize],
        threads: Threads,
    ) -> Vec<usize> {
        if !indices.is_sorted() {
            let mut order: Vec<(usize, usize)> = indices.iter().copied().zip(0..).collect();
            order.sort_unstable();
            let ascending: Vec<usize> = order.iter().map(|&(i, _)| i).collect();
            let mut votes = vec![0; indices.len()];
            for (&(_, k), v) in order.iter().zip(self.positive_votes(forest, &ascending, threads)) {
                votes[k] = v;
            }
            return votes;
        }
        let stretches = self.stretches(indices);
        let ends: Vec<usize> = stretches
            .iter()
            .scan(0, |end, (_, rows)| {
                *end += rows.len();
                Some(*end)
            })
            .collect();
        let threads = if indices.len() < PAR_MIN_ROWS { Threads::new(1) } else { threads };
        let mut votes = vec![0; indices.len()];
        exec::par_split_at_mut(threads, &mut votes, &ends, |s, out| {
            let (tile, rows) = stretches[s];
            let mut masks = TileMasks::new(tile);
            for tree in forest.trees() {
                masks.add_votes(tree.nodes(), 0, 0);
            }
            for (v, &i) in out.iter_mut().zip(rows) {
                *v = masks.votes[i - tile.start] as usize;
            }
        });
        votes
    }

    /// `forest`'s prediction for every pair, in order: a majority of
    /// [`Self::positive_votes`], `votes / n_trees >= 0.5`, the test
    /// [`RandomForest::predict`] makes (ties are "matched").
    pub fn predictions(&self, forest: &RandomForest, threads: Threads) -> Vec<bool> {
        let all: Vec<usize> = (0..self.len()).collect();
        let n_trees = forest.n_trees() as f64;
        self.positive_votes(forest, &all, threads)
            .into_iter()
            .map(|v| v as f64 / n_trees >= 0.5)
            .collect()
    }

    /// The pairs `rule` covers ([`Rule::matches`] their vectors), among
    /// `within` when given, else among all pairs, in that order. Each
    /// tile's candidate rows are filtered one predicate at a time, each
    /// predicate reading its feature's column; a conjunction keeps the
    /// same rows whatever order its predicates are tested in. A rule
    /// without predicates covers every candidate.
    pub fn coverage(&self, rule: &Rule, within: Option<&[usize]>) -> Vec<usize> {
        let mut covered = Vec::new();
        let mut rows: Vec<usize> = Vec::new();
        let mut filter = |tile: Tile<'_>, rows: &mut Vec<usize>| {
            for p in &rule.predicates {
                let col = tile.col(p.feature);
                rows.retain(|&r| p.holds_value(col[r]));
            }
            covered.extend(rows.iter().map(|&r| tile.start + r));
        };
        match within {
            Some(indices) => {
                for (tile, chosen) in self.stretches(indices) {
                    rows.clear();
                    rows.extend(chosen.iter().map(|&i| i - tile.start));
                    filter(tile, &mut rows);
                }
            }
            None => {
                for t in 0..self.tile_ends.len() {
                    let tile = self.tile(t);
                    rows.clear();
                    rows.extend(0..tile.len);
                    filter(tile, &mut rows);
                }
            }
        }
        covered
    }

    /// Tile `t`.
    fn tile(&self, t: usize) -> Tile<'_> {
        let start = if t == 0 { 0 } else { self.tile_ends[t - 1] };
        let end = self.tile_ends[t];
        let cells = &self.matrix[start * self.n_features..end * self.n_features];
        Tile { start, len: end - start, cells }
    }

    /// The tile holding row `i`.
    fn tile_of(&self, i: usize) -> usize {
        self.tile_ends.partition_point(|&end| end <= i)
    }

    /// `indices` cut into maximal stretches of rows in one tile, each
    /// with its tile: one stretch per tile touched when `indices` ascend.
    fn stretches<'a>(&'a self, indices: &'a [usize]) -> Vec<(Tile<'a>, &'a [usize])> {
        let mut out = Vec::new();
        let mut rest = indices;
        while let Some(&i) = rest.first() {
            let tile = self.tile(self.tile_of(i));
            let rows = tile.start..tile.start + tile.len;
            let (stretch, tail) =
                rest.split_at(rest.iter().take_while(|i| rows.contains(i)).count());
            out.push((tile, stretch));
            rest = tail;
        }
        out
    }
}

/// Forest votes over every row of one tile, counted from predicate
/// bitmasks instead of one tree walk per row. Each split node gets the
/// mask of the rows that reach it: the root's mask is every row, and a
/// split's left child gets its mask ANDed with the rows that go left
/// (`DecisionTree::predict_by`'s routing: NaN goes to `nan_left`,
/// anything else goes left when `v <= threshold`), its right child the
/// rest of its mask. Each row of a positive leaf's mask gets one vote. A
/// row reaches exactly the leaf its walk would, and votes are integers,
/// so the counts equal the walk's at any thread count, for any tree.
///
/// A split node costs one pass over the words of its mask (a word no row
/// of the node sits in is skipped), so a tree costs by its split count,
/// where a walk costs by the length of each row's path. The learners'
/// trees are small (at most 19 nodes on the benchmark's workloads), and
/// there the masks win; a wide, balanced tree of a hundred nodes or more
/// would cost up to about twice its walk (DESIGN §4k).
struct TileMasks<'a> {
    tile: Tile<'a>,
    /// Words per mask: one bit per row of the tile.
    words: usize,
    /// The masks on the current root-to-node path, `words` per level.
    levels: Vec<u64>,
    /// Positive votes per row of the tile.
    votes: Vec<u32>,
}

impl<'a> TileMasks<'a> {
    fn new(tile: Tile<'a>) -> Self {
        let words = tile.len.div_ceil(64);
        let mut levels = vec![!0u64; words];
        if !tile.len.is_multiple_of(64) {
            // No bit past the tile's last row.
            levels[words - 1] = (1u64 << (tile.len % 64)) - 1;
        }
        TileMasks { tile, words, levels, votes: vec![0; tile.len] }
    }

    /// Add the votes of the subtree at `nodes[at]`, whose rows are the mask
    /// at `level`.
    fn add_votes(&mut self, nodes: &[Node], at: usize, level: usize) {
        let w = self.words;
        match nodes[at] {
            Node::Leaf { label: false, .. } => {}
            Node::Leaf { label: true, .. } => {
                for (k, &mask) in self.levels[level * w..(level + 1) * w].iter().enumerate() {
                    let mut bits = mask;
                    while bits != 0 {
                        self.votes[k * 64 + bits.trailing_zeros() as usize] += 1;
                        bits &= bits - 1;
                    }
                }
            }
            Node::Split { feature, threshold, nan_left, left, right } => {
                if self.levels.len() < (level + 2) * w {
                    self.levels.resize((level + 2) * w, 0);
                }
                let col = self.tile.col(feature as usize);
                let (path, below) = self.levels.split_at_mut((level + 1) * w);
                let (mask, child) = (&path[level * w..], &mut below[..w]);
                for (k, (c, &m)) in child.iter_mut().zip(mask).enumerate() {
                    *c = if m == 0 {
                        0
                    } else {
                        let vals = &col[k * 64..col.len().min((k + 1) * 64)];
                        m & goes_left(vals, threshold, nan_left)
                    };
                }
                self.add_votes(nodes, left as usize, level + 1);
                // The left subtree wrote only deeper levels, so the child
                // level still holds the left mask.
                let (path, below) = self.levels.split_at_mut((level + 1) * w);
                for (c, &m) in below[..w].iter_mut().zip(&path[level * w..]) {
                    *c = m & !*c;
                }
                self.add_votes(nodes, right as usize, level + 1);
            }
        }
    }
}

/// Bit `j` set when `vals[j]` (at most 64 values) goes left at a split on
/// `threshold`: the test `DecisionTree::predict_by` makes, NaN by
/// `nan_left`, anything else by `v <= threshold` (not `!(v > threshold)`,
/// which sends NaN left). Eight tests at a time fill a byte each, and one
/// multiply gathers the eight low bits into a byte of the mask: bit 0 of
/// byte `i` lands at bit `56 + i`, and no two partial products overlap.
#[inline]
fn goes_left(vals: &[f64], threshold: f64, nan_left: bool) -> u64 {
    let test = |v: f64| u8::from(v <= threshold) | (u8::from(nan_left) & u8::from(v.is_nan()));
    let mut bits = 0u64;
    let mut eights = vals.chunks_exact(8);
    for (k, eight) in (&mut eights).enumerate() {
        let mut lanes = [0u8; 8];
        for (lane, &v) in lanes.iter_mut().zip(eight) {
            *lane = test(v);
        }
        bits |= (u64::from_le_bytes(lanes).wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * k);
    }
    let done = vals.len() - eights.remainder().len();
    for (j, &v) in eights.remainder().iter().enumerate() {
        bits |= u64::from(test(v)) << (done + j);
    }
    bits
}

/// Row ends of the parallel tasks [`CandidateSet::build_with`] fills, and
/// so of the set's tiles: whole runs of pairs sharing the left record,
/// grouped until a task holds at least `ROWS_PER_TASK` rows, so no run
/// shorter than a task is vectorized in two calls. Only a run longer
/// than `MAX_ROWS_PER_TASK` is cut, into near-equal pieces, so a long
/// Cartesian run still spreads over the threads. The split depends on
/// the pair list only, never on the thread budget.
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
            for (x, y) in direct.iter().zip(&row) {
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
        let c2 = CandidateSet::build_with(&t, pairs.clone(), Threads::new(1), Some(&cache));
        assert_eq!(cache.stats().hits, 35, "second build served from cache");
        let c3 = CandidateSet::build_with(&t, pairs, Threads::new(2), None);
        let bits = |m: &[f64]| m.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(c1.matrix()), bits(c2.matrix()));
        assert_eq!(bits(c1.matrix()), bits(c3.matrix()), "cached and uncached layouts agree");
    }

    /// A text and a number attribute with missing values, so some cells
    /// are NaN, and 1,100 B records, so a run can be longer than a tile.
    fn layout_task() -> MatchTask {
        let schema =
            Arc::new(Schema::new(vec![Attribute::text("name"), Attribute::number("price")]));
        let rows = |n: usize| -> Vec<Vec<Value>> {
            (0..n)
                .map(|i| {
                    let name = if i % 5 == 3 {
                        Value::Null
                    } else {
                        Value::Text(format!("alpha {} item {}", i % 17, i % 3))
                    };
                    let price =
                        if i % 4 == 1 { Value::Null } else { Value::Number((i % 13) as f64) };
                    vec![name, price]
                })
                .collect()
        };
        let a = Table::new("a", schema.clone(), rows(4));
        let b = Table::new("b", schema, rows(1100));
        task_from_parts(a, b, "same?", [(0, 0), (1, 1)], [(0, 5), (2, 7)])
    }

    /// Pair lists whose runs are grouped into tiles (runs of 30), cut
    /// across tiles (runs of 1,100, in two orders of B), or both.
    fn layout_pair_lists() -> Vec<Vec<PairKey>> {
        let run = |a: u32, bs: &mut dyn Iterator<Item = u32>| -> Vec<PairKey> {
            bs.map(|b| PairKey::new(a, b)).collect()
        };
        let grouped: Vec<PairKey> = (0..4).flat_map(|a| run(a, &mut (0..30))).collect();
        let mut mixed = run(0, &mut (0..1100));
        mixed.extend(run(1, &mut (0..10)));
        mixed.extend(run(2, &mut (0..1100).rev()));
        mixed.extend(run(3, &mut (500..540)));
        vec![grouped, mixed, Vec::new()]
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// A forest trained on labels no single feature separates, so its
    /// trees disagree; `n_trees` and `max_depth` shape it (depth 0 gives
    /// one-leaf trees).
    fn layout_forest(rows: &[Vec<f64>], n_trees: usize, max_depth: usize) -> RandomForest {
        use rand::SeedableRng;
        let labels: Vec<bool> = (0..rows.len()).map(|i| (i * 7919) % 5 < 2).collect();
        let ds = forest::Dataset::from_rows(rows, &labels);
        let cfg = forest::ForestConfig {
            n_trees,
            tree: forest::tree::TreeConfig { max_depth, ..Default::default() },
            ..Default::default()
        };
        RandomForest::train_all(&ds, &cfg, &mut rand::rngs::StdRng::seed_from_u64(3))
    }

    /// Index lists over `n` rows: all; all but every 20th (dense, like
    /// the selection pool); every row four times (dense with repeats, and
    /// long enough to split over threads); a sparse ascending stride that
    /// spans tiles; the same stride reversed (unsorted, like the monitor
    /// set); a shuffle with repeats; and none.
    fn index_lists(n: usize) -> Vec<Vec<usize>> {
        let gaps: Vec<usize> = (0..n).filter(|i| i % 20 != 0).collect();
        let repeated: Vec<usize> = (0..n).flat_map(|i| [i; 4]).collect();
        let stride: Vec<usize> = (0..n).step_by(7).collect();
        let reversed: Vec<usize> = stride.iter().rev().copied().collect();
        let shuffled: Vec<usize> = (0..n).map(|i| (i * 7919 + 13) % n.max(1)).take(n / 2).collect();
        vec![(0..n).collect(), gaps, repeated, stride, reversed, shuffled, Vec::new()]
    }

    /// A tree node for [`hand_forest`]: a split `(feature, threshold,
    /// nan_left, left, right)` or a leaf's label.
    enum HandNode {
        Split(usize, f64, bool, usize, usize),
        Leaf(bool),
    }

    /// A forest of hand-written trees, each a node list with the root
    /// first, as `DecisionTree::nodes` holds it. Built from its serialized
    /// form, which is the only way to set a threshold a trained tree never
    /// gets (±∞).
    fn hand_forest(trees: Vec<Vec<HandNode>>) -> RandomForest {
        use serde::{Deserialize, Value};
        let obj = |fields: Vec<(&str, Value)>| {
            Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        let node = |n: &HandNode| match *n {
            HandNode::Split(f, t, nan_left, l, r) => obj(vec![(
                "Split",
                obj(vec![
                    ("feature", Value::Num(f as f64)),
                    ("threshold", Value::Num(t)),
                    ("nan_left", Value::Bool(nan_left)),
                    ("left", Value::Num(l as f64)),
                    ("right", Value::Num(r as f64)),
                ]),
            )]),
            HandNode::Leaf(label) => obj(vec![(
                "Leaf",
                obj(vec![
                    ("label", Value::Bool(label)),
                    ("n_pos", Value::Num(0.0)),
                    ("n_neg", Value::Num(0.0)),
                ]),
            )]),
        };
        let trees = trees
            .iter()
            .map(|t| obj(vec![("nodes", Value::Arr(t.iter().map(node).collect()))]))
            .collect();
        RandomForest::from_json_value(&obj(vec![("trees", Value::Arr(trees))])).expect("forest")
    }

    /// Hand-written trees over `n_features` features: one-leaf trees of
    /// either label; a split on a feature with NaN cells routing NaN each
    /// way; ±∞ thresholds (everything but NaN goes left of +∞, only NaN
    /// and −∞ can go left of −∞); a spine of six splits (13 nodes), and
    /// one of 20 (41 nodes, deeper than any tree the Blocker grows).
    fn hand_trees(n_features: usize, nan_feature: usize) -> RandomForest {
        use HandNode::{Leaf, Split};
        let spine = |splits: usize| -> Vec<HandNode> {
            let mut nodes = Vec::new();
            for k in 0..splits {
                let here = nodes.len();
                let t = 0.1 + 0.8 * (k % 5) as f64 / 5.0;
                nodes.push(Split((k * 3) % n_features, t, k % 2 == 0, here + 1, here + 2));
                nodes.push(Leaf(k % 3 != 1));
            }
            nodes.push(Leaf(true));
            nodes
        };
        let split = |f: usize, t: f64, nan_left: bool, l: bool, r: bool| {
            vec![Split(f, t, nan_left, 1, 2), Leaf(l), Leaf(r)]
        };
        hand_forest(vec![
            vec![Leaf(true)],
            vec![Leaf(false)],
            split(nan_feature, 0.5, true, true, false),
            split(nan_feature, 0.5, false, true, false),
            split(nan_feature, 0.5, false, false, true),
            split(nan_feature, f64::INFINITY, false, false, true),
            split(nan_feature, f64::NEG_INFINITY, true, true, false),
            split(0, f64::NEG_INFINITY, false, false, true),
            spine(6),
            spine(20),
        ])
    }

    #[test]
    fn rows_and_subsets_equal_direct_vectorization_at_any_thread_count() {
        let t = layout_task();
        for pairs in layout_pair_lists() {
            let want: Vec<Vec<f64>> = pairs.iter().map(|&p| t.vectorize(p)).collect();
            let mut first: Option<Vec<u64>> = None;
            for n in [1, 2, 8] {
                let c = CandidateSet::build_with(&t, pairs.clone(), Threads::new(n), None);
                assert_eq!(c.len(), pairs.len());
                assert_eq!(c.matrix().len(), pairs.len() * t.n_features());
                for (i, w) in want.iter().enumerate() {
                    assert_eq!(bits(&c.row(i)), bits(w), "row {i} at {n} threads");
                }
                let m = bits(c.matrix());
                assert_eq!(first.get_or_insert_with(|| m.clone()), &m, "layout at {n} threads");

                // A subset of a subset, in an order that crosses tiles
                // and repeats rows.
                let outer: Vec<usize> = (0..pairs.len()).rev().step_by(3).collect();
                let inner: Vec<usize> = (0..outer.len()).map(|j| (j * 5) % outer.len()).collect();
                let s = c.subset(&outer).subset(&inner);
                assert_eq!(s.len(), inner.len());
                for (j, &k) in inner.iter().enumerate() {
                    assert_eq!(s.pair(j), pairs[outer[k]]);
                    assert_eq!(bits(&s.row(j)), bits(&want[outer[k]]), "subset row {j}");
                }
            }
        }
    }

    #[test]
    fn votes_and_predictions_equal_per_row_forest_calls() {
        let t = layout_task();
        let mut saw_tie = false;
        let mut lists = layout_pair_lists();
        // Tiles of exactly 64 and 128 rows: masks with no partial word.
        lists.push((0..4).flat_map(|a| (0..64).map(move |b| PairKey::new(a, b))).collect());
        lists.push((0..2).flat_map(|a| (0..128).map(move |b| PairKey::new(a, b))).collect());
        for pairs in lists {
            let want: Vec<Vec<f64>> = pairs.iter().map(|&p| t.vectorize(p)).collect();
            let train: Vec<Vec<f64>> = want.iter().step_by(3).cloned().collect();
            if train.is_empty() {
                continue;
            }
            assert!(want.iter().flatten().any(|x| x.is_nan()), "the fixture has NaN cells");
            // The price feature is NaN in a quarter of the rows.
            let price = t.n_features() - 1;
            assert!(want.iter().any(|x| x[price].is_nan()) && want.iter().any(|x| !x[price].is_nan()));
            let forests = [
                layout_forest(&train, 10, 25),
                layout_forest(&train, 2, 25),
                layout_forest(&train, 3, 0),
                hand_trees(t.n_features(), price),
            ];
            for n in [1, 2, 8] {
                let c = CandidateSet::build_with(&t, pairs.clone(), Threads::new(n), None);
                for f in &forests {
                    for idx in index_lists(c.len()) {
                        let got = c.positive_votes(f, &idx, Threads::new(n));
                        let exp: Vec<usize> =
                            idx.iter().map(|&i| f.positive_votes(&want[i])).collect();
                        assert_eq!(got, exp, "votes of {} indices at {n} threads", idx.len());
                    }
                    let preds = c.predictions(f, Threads::new(n));
                    let exp: Vec<bool> = want.iter().map(|x| f.predict(x)).collect();
                    assert_eq!(preds, exp);
                    saw_tie |= f.n_trees() == 2 && want.iter().any(|x| f.positive_votes(x) == 1);
                }
            }
        }
        assert!(saw_tie, "a two-tree forest split its vote on some row");
    }

    #[test]
    fn coverage_equals_the_row_wise_rule_filter() {
        let t = layout_task();
        for pairs in layout_pair_lists() {
            let want: Vec<Vec<f64>> = pairs.iter().map(|&p| t.vectorize(p)).collect();
            let c = CandidateSet::build(&t, pairs);
            // Every root-to-leaf path of a trained forest (NaN routing
            // included), a rule without predicates, and one threshold on
            // each feature, so every column is read.
            let mut rules = Vec::new();
            if !want.is_empty() {
                let train: Vec<Vec<f64>> = want.iter().step_by(3).cloned().collect();
                rules.extend(forest::extract_rules(&layout_forest(&train, 10, 25)));
            }
            let rule = |predicates: Vec<forest::Predicate>| Rule {
                predicates,
                label: false,
                tree: 0,
                n_pos: 0,
                n_neg: 0,
            };
            rules.push(rule(Vec::new()));
            for feature in 0..t.n_features() {
                rules.push(rule(vec![forest::Predicate {
                    feature,
                    op: forest::Op::Le,
                    threshold: 0.5,
                    nan_satisfies: feature % 2 == 0,
                }]));
            }
            for r in &rules {
                let all: Vec<usize> = (0..c.len()).collect();
                let filter = |idx: &[usize]| -> Vec<usize> {
                    idx.iter().copied().filter(|&i| r.matches(&want[i])).collect()
                };
                assert_eq!(c.coverage(r, None), filter(&all), "{r}");
                for idx in index_lists(c.len()) {
                    assert_eq!(c.coverage(r, Some(&idx)), filter(&idx), "{r} within {}", idx.len());
                }
            }
        }
    }
}
