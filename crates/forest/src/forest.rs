//! Random forest: bagged decision trees with vote entropy/confidence.

use crate::data::Dataset;
use crate::tree::{DecisionTree, TreeConfig};
use exec::Threads;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Random-forest hyper-parameters, defaulting to the Weka values the paper
/// uses (§5.1): `k = 10` trees, each trained on a random 60% portion of the
/// training data, `m = log2(n) + 1` random features per node.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ForestConfig {
    /// Number of trees `k`.
    pub n_trees: usize,
    /// Fraction of the training data each tree sees (without replacement).
    pub bagging_fraction: f64,
    /// Candidate features per node; `None` means `log2(n_features) + 1`.
    pub m_features: Option<usize>,
    /// Per-tree induction parameters (depth, min split).
    pub tree: TreeConfig,
}

impl Default for ForestConfig {
    fn default() -> Self {
        ForestConfig {
            n_trees: 10,
            bagging_fraction: 0.6,
            m_features: None,
            tree: TreeConfig::default(),
        }
    }
}

/// Eq. 1's vote entropy at a positive-vote fraction `p`.
fn vote_entropy(p: f64) -> f64 {
    let mut h = 0.0;
    if p > 0.0 {
        h -= p * p.ln();
    }
    if p < 1.0 {
        h -= (1.0 - p) * (1.0 - p).ln();
    }
    h
}

/// A trained random forest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
}

impl RandomForest {
    /// Train a forest on the samples `idx` of `ds`.
    ///
    /// Each tree gets an independent random `bagging_fraction` portion of
    /// `idx`, sampled without replacement (the paper trains "each on a
    /// random portion (typically set at 60%) of the original training
    /// data"). At least one sample is always used.
    ///
    /// # Panics
    /// Panics if `idx` is empty or the config is degenerate.
    pub fn train<R: Rng>(ds: &Dataset, idx: &[usize], cfg: &ForestConfig, rng: &mut R) -> Self {
        assert!(!idx.is_empty(), "cannot train a forest on zero samples");
        assert!(cfg.n_trees > 0, "need at least one tree");
        assert!(
            cfg.bagging_fraction > 0.0 && cfg.bagging_fraction <= 1.0,
            "bagging fraction must be in (0, 1]"
        );
        let mut tree_cfg = cfg.tree;
        tree_cfg.m_features = cfg
            .m_features
            .unwrap_or_else(|| (ds.n_features() as f64).log2() as usize + 1);
        let portion = ((idx.len() as f64 * cfg.bagging_fraction).round() as usize)
            .clamp(1, idx.len());
        let mut pool = idx.to_vec();
        let trees = (0..cfg.n_trees)
            .map(|_| {
                pool.shuffle(rng);
                DecisionTree::train(ds, &pool[..portion], &tree_cfg, rng)
            })
            .collect();
        RandomForest { trees }
    }

    /// Convenience: train on every row of `ds`.
    pub fn train_all<R: Rng>(ds: &Dataset, cfg: &ForestConfig, rng: &mut R) -> Self {
        let idx: Vec<usize> = (0..ds.len()).collect();
        Self::train(ds, &idx, cfg, rng)
    }

    /// [`RandomForest::train`] with the trees trained in parallel.
    ///
    /// Each tree draws a seed *serially* from `rng` and then trains on its
    /// own `StdRng`, so the resulting forest is identical at every thread
    /// count (though not identical to the serial [`RandomForest::train`],
    /// whose trees share one generator stream).
    pub fn train_par(
        ds: &Dataset,
        idx: &[usize],
        cfg: &ForestConfig,
        rng: &mut StdRng,
        threads: Threads,
    ) -> Self {
        assert!(!idx.is_empty(), "cannot train a forest on zero samples");
        assert!(cfg.n_trees > 0, "need at least one tree");
        assert!(
            cfg.bagging_fraction > 0.0 && cfg.bagging_fraction <= 1.0,
            "bagging fraction must be in (0, 1]"
        );
        let mut tree_cfg = cfg.tree;
        tree_cfg.m_features = cfg
            .m_features
            .unwrap_or_else(|| (ds.n_features() as f64).log2() as usize + 1);
        let portion = ((idx.len() as f64 * cfg.bagging_fraction).round() as usize)
            .clamp(1, idx.len());
        let tree_ids: Vec<usize> = (0..cfg.n_trees).collect();
        let trees = exec::par_map_seeded(threads, &tree_ids, rng, |_, tree_rng| {
            let mut pool = idx.to_vec();
            pool.shuffle(tree_rng);
            DecisionTree::train(ds, &pool[..portion], &tree_cfg, tree_rng)
        });
        RandomForest { trees }
    }

    /// Number of trees voting "matched" for `x`.
    pub fn positive_votes(&self, x: &[f64]) -> usize {
        self.trees.iter().filter(|t| t.predict(x)).count()
    }

    /// Fraction of trees voting "matched" for `x` — `P₊(e)` in Eq. 1.
    pub fn positive_fraction(&self, x: &[f64]) -> f64 {
        self.positive_votes(x) as f64 / self.trees.len() as f64
    }

    /// Majority-vote prediction (ties are "matched").
    pub fn predict(&self, x: &[f64]) -> bool {
        self.positive_fraction(x) >= 0.5
    }

    /// Vote entropy of Eq. 1:
    /// `entropy(e) = -[P₊ ln P₊ + P₋ ln P₋]`, with `0 ln 0 = 0`.
    /// Ranges over `[0, ln 2]`; higher means stronger tree disagreement,
    /// i.e. a more informative example for active learning.
    pub fn entropy(&self, x: &[f64]) -> f64 {
        vote_entropy(self.positive_fraction(x))
    }

    /// [`Self::entropy`] of every possible vote count: entry `v` is the
    /// entropy of a row that `v` trees vote "matched" for, the same bits
    /// `entropy` computes. Batch scorers index it by
    /// [`Self::positive_votes`] instead of taking two logarithms per row.
    pub fn entropy_table(&self) -> Vec<f64> {
        let n = self.trees.len();
        (0..=n).map(|v| vote_entropy(v as f64 / n as f64)).collect()
    }

    /// Confidence `conf(e) = 1 − entropy(e)` (paper §5.3).
    pub fn confidence(&self, x: &[f64]) -> f64 {
        1.0 - self.entropy(x)
    }

    /// The component trees.
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Normalized split-based feature importances (summing to 1 unless the
    /// forest is all leaves). `n_features` sizes the output; features the
    /// forest never splits on get 0.
    pub fn feature_importance(&self, n_features: usize) -> Vec<f64> {
        let mut acc = vec![0.0; n_features];
        for t in &self.trees {
            t.accumulate_importance(&mut acc);
        }
        let total: f64 = acc.iter().sum();
        if total > 0.0 {
            for v in acc.iter_mut() {
                *v /= total;
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn separable(n: usize) -> Dataset {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..n {
            let v = i as f64 / n as f64;
            rows.push(vec![v, 1.0 - v]);
            labels.push(v > 0.5);
        }
        Dataset::from_rows(&rows, &labels)
    }

    #[test]
    fn forest_learns_separable_data() {
        let ds = separable(200);
        let mut rng = StdRng::seed_from_u64(42);
        let f = RandomForest::train_all(&ds, &ForestConfig::default(), &mut rng);
        assert_eq!(f.n_trees(), 10);
        let correct = (0..ds.len())
            .filter(|&i| f.predict(ds.row(i)) == ds.label(i))
            .count();
        assert!(correct as f64 / ds.len() as f64 > 0.97);
    }

    #[test]
    fn entropy_zero_on_unanimous_examples() {
        let ds = separable(200);
        let mut rng = StdRng::seed_from_u64(42);
        let f = RandomForest::train_all(&ds, &ForestConfig::default(), &mut rng);
        // Far from the boundary every tree agrees.
        assert_eq!(f.entropy(&[0.99, 0.01]), 0.0);
        assert_eq!(f.confidence(&[0.99, 0.01]), 1.0);
    }

    #[test]
    fn entropy_bounded_by_ln2() {
        let ds = separable(50);
        let mut rng = StdRng::seed_from_u64(1);
        let f = RandomForest::train_all(&ds, &ForestConfig::default(), &mut rng);
        for i in 0..ds.len() {
            let h = f.entropy(ds.row(i));
            assert!((0.0..=std::f64::consts::LN_2 + 1e-12).contains(&h));
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = separable(100);
        let cfg = ForestConfig::default();
        let f1 = RandomForest::train_all(&ds, &cfg, &mut StdRng::seed_from_u64(9));
        let f2 = RandomForest::train_all(&ds, &cfg, &mut StdRng::seed_from_u64(9));
        for i in 0..ds.len() {
            assert_eq!(
                f1.positive_fraction(ds.row(i)),
                f2.positive_fraction(ds.row(i))
            );
        }
    }

    #[test]
    fn single_tree_forest_works() {
        let ds = separable(50);
        let cfg = ForestConfig { n_trees: 1, bagging_fraction: 1.0, ..Default::default() };
        let f = RandomForest::train_all(&ds, &cfg, &mut StdRng::seed_from_u64(3));
        assert_eq!(f.n_trees(), 1);
        assert!(f.predict(&[0.9, 0.1]));
        assert!(!f.predict(&[0.1, 0.9]));
    }

    #[test]
    #[should_panic(expected = "bagging fraction")]
    fn bad_bagging_fraction_panics() {
        let ds = separable(10);
        let cfg = ForestConfig { bagging_fraction: 0.0, ..Default::default() };
        RandomForest::train_all(&ds, &cfg, &mut StdRng::seed_from_u64(0));
    }

    #[test]
    fn train_par_is_thread_count_invariant() {
        let ds = separable(120);
        let cfg = ForestConfig::default();
        let idx: Vec<usize> = (0..ds.len()).collect();
        let forests: Vec<RandomForest> = [1usize, 2, 8]
            .iter()
            .map(|&t| {
                let mut rng = StdRng::seed_from_u64(11);
                RandomForest::train_par(&ds, &idx, &cfg, &mut rng, Threads::new(t))
            })
            .collect();
        for i in 0..ds.len() {
            let p = forests[0].positive_fraction(ds.row(i));
            assert_eq!(p, forests[1].positive_fraction(ds.row(i)));
            assert_eq!(p, forests[2].positive_fraction(ds.row(i)));
        }
    }

    #[test]
    fn tiny_training_set_still_trains() {
        // The four user-supplied seed examples (2 pos, 2 neg) must train.
        let ds = Dataset::from_rows(
            &[vec![1.0], vec![0.9], vec![0.1], vec![0.0]],
            &[true, true, false, false],
        );
        let f = RandomForest::train_all(
            &ds,
            &ForestConfig::default(),
            &mut StdRng::seed_from_u64(5),
        );
        assert!(f.predict(&[0.95]));
        assert!(!f.predict(&[0.05]));
    }
}

#[cfg(test)]
mod importance_tests {
    use super::*;
    use crate::data::Dataset;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn importance_concentrates_on_the_signal_feature() {
        // Feature 1 decides the label; feature 0 is noise-free constant.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..100 {
            let v = i as f64 / 100.0;
            rows.push(vec![0.5, v]);
            labels.push(v > 0.5);
        }
        let ds = Dataset::from_rows(&rows, &labels);
        let cfg = ForestConfig { m_features: Some(2), ..Default::default() };
        let f = RandomForest::train_all(&ds, &cfg, &mut StdRng::seed_from_u64(1));
        let imp = f.feature_importance(2);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[1] > 0.9, "signal feature must dominate: {imp:?}");
    }

    #[test]
    fn importance_of_stump_forest_is_zero() {
        let ds = Dataset::from_rows(&[vec![0.1], vec![0.2]], &[true, true]);
        let f = RandomForest::train_all(
            &ds,
            &ForestConfig::default(),
            &mut StdRng::seed_from_u64(2),
        );
        let imp = f.feature_importance(1);
        assert_eq!(imp, vec![0.0], "pure leaves produce no splits");
    }
}
