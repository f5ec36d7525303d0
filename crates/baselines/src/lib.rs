#![forbid(unsafe_code)]
//! # baselines — the traditional EM solutions Corleone is compared to
//!
//! Paper §9.1 compares Corleone against two developer-driven baselines and
//! §9.2 against developer-written blocking rules:
//!
//! * [`baseline1`]: a developer performs blocking, then trains a random
//!   forest on a *random* sample of labeled pairs of the same size as the
//!   number of pairs Corleone's crowd labeled. On skewed EM data random
//!   samples contain almost no positives, which is why this baseline
//!   collapses (7.6% F1 on Restaurants in the paper).
//! * [`baseline2`]: same, but trained on 20% of the candidate set — an
//!   enormous labeled set (11× what Corleone uses on Products) that makes
//!   it "a very strong baseline".
//! * [`dev_blocker`]: hand-written per-dataset blocking rules, the expert
//!   comparator for the Blocker's recall/reduction trade-off.
//!
//! Baseline training labels come from the gold standard (a developer
//! labeling pairs, assumed noiseless), exactly as a traditional supervised
//! workflow would.

pub mod baseline1;
pub mod baseline2;
pub mod dev_blocker;

use corleone::{CandidateSet, Threads};
use crowd::{GoldOracle, TruthOracle};
use forest::{Dataset, ForestConfig, RandomForest};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Train a random forest on `n_train` uniformly sampled candidate pairs
/// with gold (developer) labels, then predict every candidate. Shared core
/// of both baselines.
pub fn random_training_forest(
    cand: &CandidateSet,
    gold: &GoldOracle,
    n_train: usize,
    seed: u64,
) -> RandomForest {
    assert!(!cand.is_empty(), "candidate set must be non-empty");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..cand.len()).collect();
    idx.shuffle(&mut rng);
    idx.truncate(n_train.clamp(4, cand.len()));
    let mut train = Dataset::new(cand.n_features());
    for &i in &idx {
        train.push(&cand.row(i), gold.true_label(cand.pair(i)));
    }
    // A random sample of a skewed universe may contain a single class;
    // the forest still needs to train (it will then predict that class).
    RandomForest::train_all(&train, &ForestConfig::default(), &mut rng)
}

/// Predict every candidate with a forest.
pub fn predict_all(cand: &CandidateSet, forest: &RandomForest) -> Vec<bool> {
    cand.predictions(forest, Threads::auto())
}

#[cfg(test)]
mod tests {
    use super::*;
    use corleone::task::task_from_parts;
    use corleone::MatchTask;
    use similarity::{Attribute, Schema, Table, Value};
    use std::sync::Arc;

    fn toy() -> (MatchTask, GoldOracle) {
        let schema = Arc::new(Schema::new(vec![Attribute::text("name")]));
        let rows: Vec<Vec<Value>> = (0..20)
            .map(|i| vec![Value::Text(format!("part {i}"))])
            .collect();
        let a = Table::new("a", schema.clone(), rows.clone());
        let b = Table::new("b", schema, rows);
        let task = task_from_parts(a, b, "same", [(0, 0), (1, 1)], [(0, 19), (2, 17)]);
        let gold = GoldOracle::from_pairs((0..20).map(|i| (i, i)));
        (task, gold)
    }

    #[test]
    fn big_training_set_learns_well() {
        let (task, gold) = toy();
        let cand = CandidateSet::full_cartesian(&task);
        let forest = random_training_forest(&cand, &gold, 300, 1);
        let preds = predict_all(&cand, &forest);
        let correct = (0..cand.len())
            .filter(|&i| preds[i] == gold.true_label(cand.pair(i)))
            .count();
        assert!(correct as f64 / cand.len() as f64 > 0.95);
    }

    #[test]
    fn tiny_random_training_set_struggles() {
        let (task, gold) = toy();
        let cand = CandidateSet::full_cartesian(&task);
        // 12 random pairs out of 400 — with 5% positive density most draws
        // see zero or one positive.
        let forest = random_training_forest(&cand, &gold, 12, 2);
        let preds = predict_all(&cand, &forest);
        let tp = (0..cand.len())
            .filter(|&i| preds[i] && gold.true_label(cand.pair(i)))
            .count();
        let recall = tp as f64 / 20.0;
        assert!(recall < 0.9, "random training should underperform, recall {recall}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (task, gold) = toy();
        let cand = CandidateSet::full_cartesian(&task);
        let f1 = random_training_forest(&cand, &gold, 50, 9);
        let f2 = random_training_forest(&cand, &gold, 50, 9);
        assert_eq!(predict_all(&cand, &f1), predict_all(&cand, &f2));
    }
}
