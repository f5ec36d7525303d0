//! Rule extraction from decision trees (paper §4.1 step 4, Fig. 2).
//!
//! Every root→leaf path of a decision tree is a conjunction of threshold
//! predicates. A path ending in a "no" leaf is a **negative rule**: if a
//! pair satisfies it, the tree says the pair does not match — exactly the
//! machine-readable form a blocking rule needs. Paths to "yes" leaves are
//! **positive rules**, used by the Difficult Pairs' Locator (§7).

use crate::forest::RandomForest;
use crate::tree::{DecisionTree, Node};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Comparison operator of a predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// `x[feature] <= threshold` (the left branch of a split).
    Le,
    /// `x[feature] > threshold` (the right branch of a split).
    Gt,
}

/// One threshold predicate of a rule.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Predicate {
    /// Feature index.
    pub feature: usize,
    /// Comparison.
    pub op: Op,
    /// Threshold.
    pub threshold: f64,
    /// Whether a missing (`NaN`) value satisfies the predicate. Mirrors the
    /// NaN routing the split learned at training time, so a rule matches a
    /// vector exactly when the tree would walk down that path.
    pub nan_satisfies: bool,
}

impl Predicate {
    /// Evaluate the predicate on a feature vector.
    #[inline]
    pub fn holds(&self, x: &[f64]) -> bool {
        self.holds_value(x[self.feature])
    }

    /// Evaluate the predicate on `v`, the value of its feature: the test
    /// [`Self::holds`] applies, for callers that scan one feature's
    /// column.
    #[inline]
    pub fn holds_value(&self, v: f64) -> bool {
        if v.is_nan() {
            return self.nan_satisfies;
        }
        match self.op {
            Op::Le => v <= self.threshold,
            Op::Gt => v > self.threshold,
        }
    }
}

/// A conjunctive decision rule extracted from one tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rule {
    /// Predicates, all of which must hold (root-to-leaf order).
    pub predicates: Vec<Predicate>,
    /// Predicted label: `false` = negative rule ("do not match"),
    /// `true` = positive rule ("match").
    pub label: bool,
    /// Index of the tree the rule came from.
    pub tree: usize,
    /// Positive training samples that reached the leaf.
    pub n_pos: u32,
    /// Negative training samples that reached the leaf.
    pub n_neg: u32,
}

impl Rule {
    /// True if the feature vector satisfies every predicate.
    pub fn matches(&self, x: &[f64]) -> bool {
        self.predicates.iter().all(|p| p.holds(x))
    }

    /// Sum of unit costs of the *distinct* features the rule reads —
    /// the "tuple pair cost" of paper §4.3. `costs[f]` is the unit cost of
    /// feature `f` (see `similarity::FeatureKind::unit_cost`).
    pub fn eval_cost(&self, costs: &[f64]) -> f64 {
        let mut seen: Vec<usize> = self.predicates.iter().map(|p| p.feature).collect();
        seen.sort_unstable();
        seen.dedup();
        seen.iter().map(|&f| costs[f]).sum()
    }

    /// The distinct features the rule reads, ascending.
    pub fn features(&self) -> Vec<usize> {
        let mut fs: Vec<usize> = self.predicates.iter().map(|p| p.feature).collect();
        fs.sort_unstable();
        fs.dedup();
        fs
    }

    /// Render with human-readable feature names, e.g.
    /// `"(isbn_exact <= 0.50) and (pages_num_rel <= 0.95) => NO"`.
    pub fn display_with(&self, names: &[String]) -> String {
        let body = self
            .predicates
            .iter()
            .map(|p| {
                let op = match p.op {
                    Op::Le => "<=",
                    Op::Gt => ">",
                };
                format!("({} {} {:.2})", names[p.feature], op, p.threshold)
            })
            .collect::<Vec<_>>()
            .join(" and ");
        let verdict = if self.label { "MATCH" } else { "NO" };
        if body.is_empty() {
            format!("(always) => {verdict}")
        } else {
            format!("{body} => {verdict}")
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = (0..)
            .take(
                self.predicates
                    .iter()
                    .map(|p| p.feature + 1)
                    .max()
                    .unwrap_or(0),
            )
            .map(|i| format!("f{i}"))
            .collect();
        write!(f, "{}", self.display_with(&names))
    }
}

/// Extract every root→leaf rule of a single tree.
pub fn extract_tree_rules(tree: &DecisionTree, tree_idx: usize) -> Vec<Rule> {
    let mut rules = Vec::new();
    let mut path: Vec<Predicate> = Vec::new();
    walk(tree.nodes(), 0, &mut path, &mut rules, tree_idx);
    rules
}

fn walk(
    nodes: &[Node],
    cur: usize,
    path: &mut Vec<Predicate>,
    out: &mut Vec<Rule>,
    tree_idx: usize,
) {
    match &nodes[cur] {
        Node::Leaf { label, n_pos, n_neg } => out.push(Rule {
            predicates: path.clone(),
            label: *label,
            tree: tree_idx,
            n_pos: *n_pos,
            n_neg: *n_neg,
        }),
        Node::Split { feature, threshold, nan_left, left, right } => {
            path.push(Predicate {
                feature: *feature as usize,
                op: Op::Le,
                threshold: *threshold,
                nan_satisfies: *nan_left,
            });
            walk(nodes, *left as usize, path, out, tree_idx);
            path.pop();
            path.push(Predicate {
                feature: *feature as usize,
                op: Op::Gt,
                threshold: *threshold,
                nan_satisfies: !*nan_left,
            });
            walk(nodes, *right as usize, path, out, tree_idx);
            path.pop();
        }
    }
}

/// Extract every rule of every tree in the forest.
pub fn extract_rules(forest: &RandomForest) -> Vec<Rule> {
    forest
        .trees()
        .iter()
        .enumerate()
        .flat_map(|(i, t)| extract_tree_rules(t, i))
        .collect()
}

/// Only the negative ("do not match") rules — candidate blocking and
/// reduction rules.
pub fn negative_rules(forest: &RandomForest) -> Vec<Rule> {
    extract_rules(forest).into_iter().filter(|r| !r.label).collect()
}

/// Only the positive ("match") rules, used by the Locator (§7).
pub fn positive_rules(forest: &RandomForest) -> Vec<Rule> {
    extract_rules(forest).into_iter().filter(|r| r.label).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;
    use crate::forest::ForestConfig;
    use crate::tree::TreeConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn book_forest() -> (Dataset, RandomForest) {
        // Feature 0 = isbn_match, feature 1 = pages_match (Fig. 2 style).
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for isbn in [0.0, 1.0] {
            for pages in [0.0, 1.0] {
                for _ in 0..5 {
                    rows.push(vec![isbn, pages]);
                    labels.push(isbn == 1.0 && pages == 1.0);
                }
            }
        }
        let ds = Dataset::from_rows(&rows, &labels);
        let cfg = ForestConfig {
            n_trees: 2,
            bagging_fraction: 1.0,
            m_features: Some(2),
            tree: TreeConfig::default(),
        };
        let f = RandomForest::train_all(&ds, &cfg, &mut StdRng::seed_from_u64(11));
        (ds, f)
    }

    #[test]
    fn rules_partition_each_tree() {
        let (ds, f) = book_forest();
        for (ti, tree) in f.trees().iter().enumerate() {
            let rules = extract_tree_rules(tree, ti);
            assert_eq!(rules.len(), tree.n_leaves());
            for i in 0..ds.len() {
                let matched: Vec<&Rule> =
                    rules.iter().filter(|r| r.matches(ds.row(i))).collect();
                assert_eq!(matched.len(), 1, "exactly one rule per tree must match");
                assert_eq!(matched[0].label, tree.predict(ds.row(i)));
            }
        }
    }

    #[test]
    fn negative_rules_predict_no() {
        let (_, f) = book_forest();
        let negs = negative_rules(&f);
        assert!(!negs.is_empty());
        assert!(negs.iter().all(|r| !r.label));
        // The Fig. 2 rule: isbn mismatch alone implies non-match.
        let no_isbn = [0.0, 1.0];
        assert!(
            negs.iter().any(|r| r.matches(&no_isbn)),
            "some negative rule must cover an isbn-mismatch pair"
        );
    }

    #[test]
    fn positive_plus_negative_equals_all() {
        let (_, f) = book_forest();
        let all = extract_rules(&f).len();
        assert_eq!(
            positive_rules(&f).len() + negative_rules(&f).len(),
            all
        );
    }

    #[test]
    fn eval_cost_counts_distinct_features() {
        let r = Rule {
            predicates: vec![
                Predicate { feature: 0, op: Op::Le, threshold: 0.5, nan_satisfies: false },
                Predicate { feature: 0, op: Op::Gt, threshold: 0.1, nan_satisfies: false },
                Predicate { feature: 2, op: Op::Le, threshold: 0.9, nan_satisfies: true },
            ],
            label: false,
            tree: 0,
            n_pos: 0,
            n_neg: 3,
        };
        assert_eq!(r.eval_cost(&[5.0, 1.0, 2.0]), 7.0);
        assert_eq!(r.features(), vec![0, 2]);
    }

    #[test]
    fn nan_predicate_semantics() {
        let p = Predicate { feature: 0, op: Op::Le, threshold: 0.5, nan_satisfies: true };
        assert!(p.holds(&[f64::NAN]));
        assert!(p.holds(&[0.4]));
        assert!(!p.holds(&[0.6]));
        let q = Predicate { feature: 0, op: Op::Gt, threshold: 0.5, nan_satisfies: false };
        assert!(!q.holds(&[f64::NAN]));
    }

    #[test]
    fn display_is_readable() {
        let r = Rule {
            predicates: vec![Predicate {
                feature: 0,
                op: Op::Le,
                threshold: 0.5,
                nan_satisfies: false,
            }],
            label: false,
            tree: 0,
            n_pos: 0,
            n_neg: 9,
        };
        let s = r.display_with(&["isbn_exact".to_string()]);
        assert_eq!(s, "(isbn_exact <= 0.50) => NO");
    }

    #[test]
    fn root_leaf_rule_displays() {
        let r = Rule { predicates: vec![], label: true, tree: 0, n_pos: 4, n_neg: 0 };
        assert_eq!(r.to_string(), "(always) => MATCH");
        assert!(r.matches(&[1.0, 2.0]));
    }
}
