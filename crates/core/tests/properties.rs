//! Property-based tests for Corleone's core algorithms: smoothing and
//! stopping invariants, metric identities, and candidate-set operations.

use corleone::metrics::{evaluate, Prf};
use corleone::stopping::{check, peak_index, smooth, StopDecision};
use corleone::StoppingConfig;
use crowd::PairKey;
use proptest::prelude::*;
use std::collections::HashSet;

fn conf_series() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.3f64..=1.0, 1..80)
}

proptest! {
    #[test]
    fn smooth_preserves_length_and_bounds(v in conf_series(), w in 1usize..9) {
        let s = smooth(&v, w);
        prop_assert_eq!(s.len(), v.len());
        let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for &x in &s {
            prop_assert!(x >= lo - 1e-12 && x <= hi + 1e-12);
        }
    }

    #[test]
    fn smooth_constant_series_is_identity(c in 0.0f64..1.0, n in 1usize..50, w in 1usize..9) {
        let v = vec![c; n];
        let s = smooth(&v, w);
        for &x in &s {
            prop_assert!((x - c).abs() < 1e-12);
        }
    }

    #[test]
    fn smoothing_reduces_total_variation(v in conf_series()) {
        let tv = |xs: &[f64]| xs.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>();
        let s = smooth(&v, 5);
        prop_assert!(tv(&s) <= tv(&v) + 1e-9);
    }

    #[test]
    fn peak_index_in_range(v in conf_series()) {
        let cfg = StoppingConfig::default();
        let p = peak_index(&v, &cfg);
        prop_assert!(p < v.len());
    }

    #[test]
    fn check_is_deterministic_and_total(v in conf_series()) {
        let cfg = StoppingConfig::default();
        let d1 = check(&v, &cfg);
        let d2 = check(&v, &cfg);
        prop_assert_eq!(d1, d2);
        // Any decision is one of the four variants (no panic on any input).
        let _ = matches!(
            d1,
            StopDecision::Continue
                | StopDecision::Converged
                | StopDecision::NearAbsolute
                | StopDecision::Degrading
        );
    }

    #[test]
    fn min_iterations_dominates(v in conf_series()) {
        let cfg = StoppingConfig { min_iterations: 1000, ..Default::default() };
        prop_assert_eq!(check(&v, &cfg), StopDecision::Continue);
    }

    #[test]
    fn prf_identities(tp in 0usize..100, fp in 0usize..100, fnn in 0usize..100) {
        let m = Prf::from_counts(tp, tp + fp, tp + fnn);
        prop_assert!((0.0..=1.0).contains(&m.precision));
        prop_assert!((0.0..=1.0).contains(&m.recall));
        prop_assert!((0.0..=1.0).contains(&m.f1));
        // F1 lies between min and max of P and R (harmonic mean property).
        if m.precision > 0.0 && m.recall > 0.0 {
            prop_assert!(m.f1 <= m.precision.max(m.recall) + 1e-12);
            prop_assert!(m.f1 >= m.precision.min(m.recall) - 1e-12);
        }
    }

    #[test]
    fn evaluate_agrees_with_counts(pred in prop::collection::hash_set((0u32..30, 0u32..30), 0..40),
                                   gold in prop::collection::hash_set((0u32..30, 0u32..30), 0..40)) {
        let pred: HashSet<PairKey> = pred.into_iter().map(|(a, b)| PairKey::new(a, b)).collect();
        let gold: HashSet<PairKey> = gold.into_iter().map(|(a, b)| PairKey::new(a, b)).collect();
        let m = evaluate(&pred.iter().copied().collect::<Vec<_>>(), &gold);
        let tp = pred.intersection(&gold).count();
        let expect = Prf::from_counts(tp, pred.len(), gold.len());
        prop_assert_eq!(m, expect);
        // Symmetric corner: disjoint sets give zero F1.
        if tp == 0 {
            prop_assert_eq!(m.f1, 0.0);
        }
    }

    #[test]
    fn perfect_prediction_is_perfect(gold in prop::collection::hash_set((0u32..30, 0u32..30), 1..40)) {
        let gold: HashSet<PairKey> = gold.into_iter().map(|(a, b)| PairKey::new(a, b)).collect();
        let m = evaluate(&gold.iter().copied().collect::<Vec<_>>(), &gold);
        prop_assert_eq!(m.f1, 1.0);
    }
}

mod candidate_props {
    use corleone::task::task_from_parts;
    use corleone::CandidateSet;
    use proptest::prelude::*;
    use similarity::{Attribute, Schema, Table, Value};
    use std::sync::Arc;

    fn toy_candidates() -> CandidateSet {
        let schema = Arc::new(Schema::new(vec![Attribute::text("n")]));
        let rows = |n: usize| -> Vec<Vec<Value>> {
            (0..n).map(|i| vec![Value::Text(format!("v {i}"))]).collect()
        };
        let a = Table::new("a", schema.clone(), rows(6));
        let b = Table::new("b", schema, rows(7));
        let task = task_from_parts(a, b, "x", [(0, 0), (1, 1)], [(0, 6), (2, 4)]);
        CandidateSet::full_cartesian(&task)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn subset_of_subset_composes(idx1 in prop::collection::vec(0usize..42, 1..20)) {
            let c = toy_candidates();
            let s1 = c.subset(&idx1);
            // Taking every other element of the subset must equal direct
            // selection of the composed indices.
            let idx2: Vec<usize> = (0..s1.len()).step_by(2).collect();
            let s2 = s1.subset(&idx2);
            for (j, &i2) in idx2.iter().enumerate() {
                prop_assert_eq!(s2.pair(j), c.pair(idx1[i2]));
                prop_assert_eq!(s2.row(j), c.row(idx1[i2]));
            }
        }

        #[test]
        fn index_of_inverts_pair(i in 0usize..42) {
            let c = toy_candidates();
            prop_assert_eq!(c.index_of(c.pair(i)), Some(i));
        }
    }
}
