//! CART-style decision tree induction with random feature subsets per node.

use crate::data::Dataset;
use crate::split::{best_split, gini};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A node of a [`DecisionTree`], stored in a flat arena.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Node {
    /// Terminal node predicting `label`, with the training class counts
    /// that reached it (used for rule statistics).
    Leaf {
        /// Predicted class.
        label: bool,
        /// Positive training samples that reached the leaf.
        n_pos: u32,
        /// Negative training samples that reached the leaf.
        n_neg: u32,
    },
    /// Internal split: `x[feature] <= threshold` goes to `left`, otherwise
    /// `right`; `NaN` goes to the side recorded in `nan_left`.
    Split {
        /// Feature index.
        feature: u32,
        /// Split threshold.
        threshold: f64,
        /// Whether missing values route left.
        nan_left: bool,
        /// Arena index of the left child.
        left: u32,
        /// Arena index of the right child.
        right: u32,
    },
}

/// Hyper-parameters for single-tree induction.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Do not split nodes with fewer samples than this.
    pub min_samples_split: usize,
    /// Number of random candidate features per node; `0` means all.
    pub m_features: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig { max_depth: 25, min_samples_split: 2, m_features: 0 }
    }
}

/// A trained binary decision tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DecisionTree {
    nodes: Vec<Node>,
}

impl DecisionTree {
    /// Train a tree on the samples `idx` of `ds`.
    ///
    /// # Panics
    /// Panics if `idx` is empty.
    pub fn train<R: Rng>(ds: &Dataset, idx: &[usize], cfg: &TreeConfig, rng: &mut R) -> Self {
        assert!(!idx.is_empty(), "cannot train a tree on zero samples");
        let mut tree = DecisionTree { nodes: Vec::new() };
        let all_features: Vec<usize> = (0..ds.n_features()).collect();
        let mut idx = idx.to_vec();
        tree.build(ds, &mut idx, &all_features, cfg, rng, 0);
        tree
    }

    /// Recursively build the subtree over `idx`, returning its arena index.
    fn build<R: Rng>(
        &mut self,
        ds: &Dataset,
        idx: &mut [usize],
        all_features: &[usize],
        cfg: &TreeConfig,
        rng: &mut R,
        depth: usize,
    ) -> u32 {
        let n_pos = idx.iter().filter(|&&i| ds.label(i)).count();
        let n_neg = idx.len() - n_pos;
        let make_leaf = |nodes: &mut Vec<Node>| -> u32 {
            nodes.push(Node::Leaf {
                // Tie-break toward "not matched": EM universes are skewed
                // negative, so an uninformative leaf should not claim a match.
                label: n_pos > n_neg,
                n_pos: n_pos as u32,
                n_neg: n_neg as u32,
            });
            (nodes.len() - 1) as u32
        };
        if depth >= cfg.max_depth
            || idx.len() < cfg.min_samples_split
            || n_pos == 0
            || n_neg == 0
        {
            return make_leaf(&mut self.nodes);
        }
        // Random feature subset (Breiman-style), resampled at every node.
        let m = if cfg.m_features == 0 || cfg.m_features >= all_features.len() {
            all_features.len()
        } else {
            cfg.m_features
        };
        let chosen: Vec<usize> = {
            let mut pool = all_features.to_vec();
            pool.shuffle(rng);
            pool.truncate(m);
            pool
        };
        let Some(split) = best_split(ds, idx, &chosen) else {
            return make_leaf(&mut self.nodes);
        };
        // Reject splits that do not reduce impurity at all.
        if split.impurity >= gini(n_pos, n_neg) - 1e-12 {
            return make_leaf(&mut self.nodes);
        }
        // Partition in place: left = (v <= t) or (NaN & nan_left).
        let goes_left = |v: f64| {
            if v.is_nan() {
                split.nan_left
            } else {
                v <= split.threshold
            }
        };
        let mid = itertools_partition(idx, |&i| goes_left(ds.row(i)[split.feature]));
        if mid == 0 || mid == idx.len() {
            // Degenerate partition (can happen when NaN routing collapses a
            // side); fall back to a leaf.
            return make_leaf(&mut self.nodes);
        }
        // Reserve our slot before children so the root is index 0.
        self.nodes.push(Node::Leaf { label: false, n_pos: 0, n_neg: 0 });
        let me = (self.nodes.len() - 1) as u32;
        let (l_idx, r_idx) = idx.split_at_mut(mid);
        let left = self.build(ds, l_idx, all_features, cfg, rng, depth + 1);
        let right = self.build(ds, r_idx, all_features, cfg, rng, depth + 1);
        self.nodes[me as usize] = Node::Split {
            feature: split.feature as u32,
            threshold: split.threshold,
            nan_left: split.nan_left,
            left,
            right,
        };
        me
    }

    /// Predict the class of a feature vector.
    pub fn predict(&self, x: &[f64]) -> bool {
        self.predict_by(|f| x[f])
    }

    /// Predict the class of a vector whose feature `f` is `value(f)`:
    /// the walk [`Self::predict`] takes, for callers that do not hold the
    /// vector as one slice (a column-major matrix reads each feature from
    /// its own column). Only the features on the walked path are read.
    #[inline]
    pub fn predict_by(&self, value: impl Fn(usize) -> f64) -> bool {
        let mut cur = 0usize;
        loop {
            match &self.nodes[cur] {
                Node::Leaf { label, .. } => return *label,
                Node::Split { feature, threshold, nan_left, left, right } => {
                    let v = value(*feature as usize);
                    let go_left = if v.is_nan() { *nan_left } else { v <= *threshold };
                    cur = if go_left { *left as usize } else { *right as usize };
                }
            }
        }
    }

    /// The node arena (root at index 0). Exposed for rule extraction.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Accumulate split-based feature importance into `acc` (indexed by
    /// feature): each split adds the number of training samples that
    /// passed through it, so early, high-traffic splits weigh more.
    pub fn accumulate_importance(&self, acc: &mut [f64]) {
        fn samples_below(nodes: &[Node], i: usize) -> u64 {
            match &nodes[i] {
                Node::Leaf { n_pos, n_neg, .. } => u64::from(*n_pos) + u64::from(*n_neg),
                Node::Split { left, right, .. } => {
                    samples_below(nodes, *left as usize) + samples_below(nodes, *right as usize)
                }
            }
        }
        fn rec(nodes: &[Node], i: usize, acc: &mut [f64]) {
            if let Node::Split { feature, left, right, .. } = &nodes[i] {
                acc[*feature as usize] += samples_below(nodes, i) as f64;
                rec(nodes, *left as usize, acc);
                rec(nodes, *right as usize, acc);
            }
        }
        rec(&self.nodes, 0, acc);
    }

    /// Maximum depth of any leaf (root = 0).
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[Node], i: usize) -> usize {
            match &nodes[i] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => {
                    1 + rec(nodes, *left as usize).max(rec(nodes, *right as usize))
                }
            }
        }
        rec(&self.nodes, 0)
    }
}

/// Stable-ish in-place partition: moves elements satisfying `pred` to the
/// front, returns the count. (Order within halves is not specified.)
fn itertools_partition<T, F: FnMut(&T) -> bool>(xs: &mut [T], mut pred: F) -> usize {
    let mut store = 0;
    for i in 0..xs.len() {
        if pred(&xs[i]) {
            xs.swap(store, i);
            store += 1;
        }
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn xor_like() -> Dataset {
        // Two features; positive iff both above 0.5 — needs depth 2.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                let x = i as f64 / 10.0;
                let y = j as f64 / 10.0;
                rows.push(vec![x, y]);
                labels.push(x > 0.5 && y > 0.5);
            }
        }
        Dataset::from_rows(&rows, &labels)
    }

    #[test]
    fn learns_conjunction_perfectly() {
        let ds = xor_like();
        let idx: Vec<usize> = (0..ds.len()).collect();
        let mut rng = StdRng::seed_from_u64(7);
        let t = DecisionTree::train(&ds, &idx, &TreeConfig::default(), &mut rng);
        for i in 0..ds.len() {
            assert_eq!(t.predict(ds.row(i)), ds.label(i), "row {i}");
        }
        assert!(t.depth() >= 2);
    }

    #[test]
    fn pure_input_yields_single_leaf() {
        let ds = Dataset::from_rows(&[vec![0.1], vec![0.9]], &[true, true]);
        let mut rng = StdRng::seed_from_u64(0);
        let t = DecisionTree::train(&ds, &[0, 1], &TreeConfig::default(), &mut rng);
        assert_eq!(t.n_leaves(), 1);
        assert!(t.predict(&[0.5]));
    }

    #[test]
    fn max_depth_respected() {
        let ds = xor_like();
        let idx: Vec<usize> = (0..ds.len()).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = TreeConfig { max_depth: 1, ..TreeConfig::default() };
        let t = DecisionTree::train(&ds, &idx, &cfg, &mut rng);
        assert!(t.depth() <= 1);
    }

    #[test]
    fn nan_at_prediction_follows_learned_routing() {
        // Feature 0 missing for positives at train time → NaN routes to the
        // positive side.
        let ds = Dataset::from_rows(
            &[
                vec![0.1, 0.0],
                vec![0.2, 0.0],
                vec![f64::NAN, 1.0],
                vec![f64::NAN, 1.0],
                vec![0.9, 1.0],
            ],
            &[false, false, true, true, true],
        );
        let mut rng = StdRng::seed_from_u64(2);
        let t = DecisionTree::train(&ds, &[0, 1, 2, 3, 4], &TreeConfig::default(), &mut rng);
        assert!(t.predict(&[f64::NAN, 1.0]));
    }

    #[test]
    fn leaf_tiebreak_is_negative() {
        let ds = Dataset::from_rows(&[vec![0.5], vec![0.5]], &[true, false]);
        let mut rng = StdRng::seed_from_u64(3);
        let t = DecisionTree::train(&ds, &[0, 1], &TreeConfig::default(), &mut rng);
        assert!(!t.predict(&[0.5]));
    }

    #[test]
    #[should_panic(expected = "zero samples")]
    fn empty_training_panics() {
        let ds = Dataset::new(1);
        let mut rng = StdRng::seed_from_u64(0);
        DecisionTree::train(&ds, &[], &TreeConfig::default(), &mut rng);
    }

    #[test]
    fn partition_helper() {
        let mut xs = vec![3, 1, 4, 1, 5, 9, 2, 6];
        let mid = itertools_partition(&mut xs, |&x| x < 4);
        assert_eq!(mid, 4);
        assert!(xs[..mid].iter().all(|&x| x < 4));
        assert!(xs[mid..].iter().all(|&x| x >= 4));
    }
}
