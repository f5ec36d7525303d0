//! Baseline 2 (paper §9.1): like Baseline 1, but trained on a full 20% of
//! the post-blocking candidate set — "a very strong baseline matcher"
//! using up to 11× the labels Corleone consumes.

use crate::baseline1::BaselineResult;
use crate::dev_blocker;
use crate::{predict_all, random_training_forest};
use corleone::metrics::evaluate;
use corleone::{CandidateSet, MatchTask};
use crowd::{GoldOracle, PairKey};

/// Fraction of the candidate set used for training.
pub const TRAIN_FRACTION: f64 = 0.2;

/// Run Baseline 2: developer blocking, then train on 20% of the candidate
/// set with gold labels.
pub fn run(task: &MatchTask, dataset_name: &str, gold: &GoldOracle, seed: u64) -> BaselineResult {
    let kept = dev_blocker::apply(task, dev_blocker::rule_for(dataset_name));
    let cand = CandidateSet::build(task, kept);
    let n_train = ((cand.len() as f64 * TRAIN_FRACTION).round() as usize).max(4);
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
        n_train,
        candidate_size: cand.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::{restaurants, GenConfig};

    #[test]
    fn baseline2_beats_baseline1_on_restaurants() {
        let ds = restaurants::generate(GenConfig { scale: 0.15, seed: 3 });
        let task = corleone::task::task_from_parts(
            ds.table_a.clone(),
            ds.table_b.clone(),
            &ds.instruction,
            ds.seeds.positive,
            ds.seeds.negative,
        );
        let gold = GoldOracle::from_pairs(ds.gold.iter().copied());
        // Single runs are noisy; compare 3-seed averages like the paper's
        // 3-run protocol.
        let avg = |f: &dyn Fn(u64) -> f64| (f(7) + f(8) + f(9)) / 3.0;
        let b2 = avg(&|s| run(&task, "restaurants", &gold, s).prf.f1);
        let b1 = avg(&|s| crate::baseline1::run(&task, "restaurants", &gold, 100, s).prf.f1);
        assert!(
            b2 >= b1 - 0.02,
            "20% training ({b2}) must not lose clearly to 100 random labels ({b1})"
        );
        assert!(b2 > 0.5, "strong baseline should do well: {b2}");
    }
}
