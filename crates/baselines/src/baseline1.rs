//! Baseline 1 (paper §9.1): developer blocking + a random forest trained
//! on a *random* labeled sample of the same size as Corleone's crowd-label
//! budget.

use crate::dev_blocker;
use crate::{predict_all, random_training_forest};
use corleone::metrics::{evaluate, Prf};
use corleone::{CandidateSet, MatchTask};
use crowd::{GoldOracle, PairKey};

/// Result of a baseline run.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// Accuracy against the full gold set (blocking losses included).
    pub prf: Prf,
    /// Number of labeled training pairs used.
    pub n_train: usize,
    /// Size of the candidate set after developer blocking.
    pub candidate_size: usize,
}

/// Run Baseline 1: developer blocking for `dataset_name`, then train on
/// `n_train` random gold-labeled pairs.
pub fn run(
    task: &MatchTask,
    dataset_name: &str,
    gold: &GoldOracle,
    n_train: usize,
    seed: u64,
) -> BaselineResult {
    let kept = dev_blocker::apply(task, dev_blocker::rule_for(dataset_name));
    let cand = CandidateSet::build(task, kept);
    let forest = random_training_forest(&cand, gold, n_train, seed);
    let preds = predict_all(&cand, &forest);
    let predicted: Vec<PairKey> = preds
        .iter()
        .enumerate()
        .filter(|&(_, &p)| p)
        .map(|(i, _)| cand.pair(i))
        .collect();
    BaselineResult {
        prf: evaluate(&predicted, gold.matches()),
        n_train: n_train.min(cand.len()),
        candidate_size: cand.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{restaurants, GenConfig};

    #[test]
    fn baseline1_runs_on_restaurants() {
        let ds = restaurants::generate(GenConfig { scale: 0.15, seed: 3 });
        let task = corleone::task::task_from_parts(
            ds.table_a.clone(),
            ds.table_b.clone(),
            &ds.instruction,
            ds.seeds.positive,
            ds.seeds.negative,
        );
        let gold = GoldOracle::from_pairs(ds.gold.iter().copied());
        let r = run(&task, "restaurants", &gold, 150, 7);
        assert_eq!(r.candidate_size, task.cartesian_size() as usize);
        assert!(r.prf.f1 <= 1.0);
    }
}
