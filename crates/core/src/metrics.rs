//! Matching-quality metrics against a gold standard.

use crowd::PairKey;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Precision / recall / F1 triple.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Prf {
    /// Precision in `[0, 1]`.
    pub precision: f64,
    /// Recall in `[0, 1]`.
    pub recall: f64,
    /// F1 (harmonic mean), 0 when both are 0.
    pub f1: f64,
}

impl Prf {
    /// Build from precision and recall.
    pub fn new(precision: f64, recall: f64) -> Self {
        let f1 = if precision + recall > 0.0 {
            2.0 * precision * recall / (precision + recall)
        } else {
            0.0
        };
        Prf { precision, recall, f1 }
    }

    /// Build from counts: true positives, predicted positives, actual
    /// positives. Empty denominators give 0.
    pub fn from_counts(tp: usize, predicted_pos: usize, actual_pos: usize) -> Self {
        let p = if predicted_pos > 0 { tp as f64 / predicted_pos as f64 } else { 0.0 };
        let r = if actual_pos > 0 { tp as f64 / actual_pos as f64 } else { 0.0 };
        Prf::new(p, r)
    }
}

/// Evaluate predicted matching pairs (distinct) against the gold set.
/// Pairs not predicted are treated as predicted non-matches, so recall is
/// over the *entire* gold set — blocking losses count against recall.
pub fn evaluate(predicted: &[PairKey], gold: &HashSet<PairKey>) -> Prf {
    let tp = predicted.iter().filter(|p| gold.contains(p)).count();
    Prf::from_counts(tp, predicted.len(), gold.len())
}

/// Blocking recall (paper Table 3): the fraction of gold matches retained
/// in the umbrella set (distinct pairs).
pub fn blocking_recall(umbrella: &[PairKey], gold: &HashSet<PairKey>) -> f64 {
    if gold.is_empty() {
        return 1.0;
    }
    umbrella.iter().filter(|p| gold.contains(p)).count() as f64 / gold.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(pairs: &[(u32, u32)]) -> Vec<PairKey> {
        pairs.iter().map(|&(a, b)| PairKey::new(a, b)).collect()
    }

    fn gold(pairs: &[(u32, u32)]) -> HashSet<PairKey> {
        keys(pairs).into_iter().collect()
    }

    #[test]
    fn perfect_prediction() {
        let m = evaluate(&keys(&[(0, 0), (1, 1)]), &gold(&[(0, 0), (1, 1)]));
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.recall, 1.0);
        assert_eq!(m.f1, 1.0);
    }

    #[test]
    fn half_precision_full_recall() {
        let m = evaluate(&keys(&[(0, 0), (1, 1)]), &gold(&[(0, 0)]));
        assert_eq!(m.precision, 0.5);
        assert_eq!(m.recall, 1.0);
        assert!((m.f1 - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_prediction_is_zero() {
        let m = evaluate(&[], &gold(&[(0, 0)]));
        assert_eq!(m.precision, 0.0);
        assert_eq!(m.recall, 0.0);
        assert_eq!(m.f1, 0.0);
    }

    #[test]
    fn from_counts_handles_zero_denominators() {
        let m = Prf::from_counts(0, 0, 0);
        assert_eq!(m.f1, 0.0);
    }

    #[test]
    fn blocking_recall_counts_retained_gold() {
        let gold = gold(&[(0, 0), (1, 1), (2, 2), (3, 3)]);
        let umbrella = keys(&[(0, 0), (1, 1), (2, 2), (9, 9)]);
        assert_eq!(blocking_recall(&umbrella, &gold), 0.75);
        assert_eq!(blocking_recall(&umbrella, &HashSet::new()), 1.0);
    }
}
