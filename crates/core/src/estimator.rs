//! The Accuracy Estimator (paper §6): crowd-based estimation of the
//! matcher's precision and recall to a target error margin.
//!
//! Naive random sampling breaks down on skewed EM universes — estimating
//! recall to ±0.025 needs ~984 *actual positives* in the sample (§6.1),
//! which at a 0.06% positive density means labeling hundreds of thousands
//! of pairs. The estimator instead runs a **probe–eval–reduce** loop
//! (§6.2): sample a little; if the margins are still too wide, consider
//! executing *reduction rules* (crowd-validated negative rules extracted
//! from the matcher's own forest) that shrink the population and raise its
//! positive density; re-optimize after every partial execution, exactly
//! like mid-query re-optimization in an RDBMS.
//!
//! ## Accounting for reduction
//!
//! Reduction rules are assumed (and crowd-verified to be ≥ `P_min`)
//! precise, so examples they remove are *actual negatives*:
//!
//! * recall over the reduced set equals overall recall (no actual
//!   positives are removed);
//! * predicted positives that get removed are *certain false positives*,
//!   so overall precision is the in-set precision scaled by
//!   `pp_active / pp_total`.

use crate::candidates::CandidateSet;
use crate::config::EstimatorConfig;
use crate::env::RunEnv;
use crate::metrics::Prf;
use crate::ruleeval::{
    evaluate_rules_jointly, labeled_as, select_top_rules, RuleEvalConfig, ScoredRule,
};
use crowd::stats::{fpc_margin, required_sample_size, z_for_confidence};
use crowd::{CrowdPlatform, PairKey, TruthOracle};
use forest::{negative_rules, RandomForest};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// The estimator's output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AccuracyEstimate {
    /// Estimated precision over the full candidate set.
    pub precision: f64,
    /// Estimated recall.
    pub recall: f64,
    /// F1 of the two estimates.
    pub f1: f64,
    /// Error margin on precision.
    pub eps_p: f64,
    /// Error margin on recall.
    pub eps_r: f64,
    /// Reduction rules executed (kept by crowd evaluation).
    pub rules_used: usize,
    /// Probe-eval-reduce rounds executed.
    pub rounds: usize,
    /// Uniform sample labels consumed (|X|).
    pub sample_labels: usize,
    /// Pairs labeled by the crowd during estimation (ledger delta).
    pub pairs_labeled: u64,
    /// Crowd spend during estimation, in cents.
    pub cost_cents: f64,
    /// Whether both margins reached `ε_max`.
    pub converged: bool,
}

impl AccuracyEstimate {
    /// The `(P, R, F1)` triple.
    pub fn prf(&self) -> Prf {
        Prf::new(self.precision, self.recall)
    }
}

struct SampleStats {
    n: usize,
    n_pp: usize,
    n_tp: usize,
    n_ap: usize,
}

fn sample_stats(x: &HashMap<usize, bool>, predictions: &[bool]) -> SampleStats {
    let mut s = SampleStats { n: 0, n_pp: 0, n_tp: 0, n_ap: 0 };
    for (&i, &label) in x { // lint:allow(D2): order-free integer counting; no float accumulation, no serialization

        s.n += 1;
        if predictions[i] {
            s.n_pp += 1;
            if label {
                s.n_tp += 1;
            }
        }
        if label {
            s.n_ap += 1;
        }
    }
    s
}

/// Estimate the accuracy of `predictions` over `cand` (paper §6.2).
///
/// * `matcher_forest` — the trained matcher, source of the candidate
///   reduction rules.
/// * `known_labels` — crowd labels already gathered by earlier phases
///   (active learning, rule evaluation). They are *not* mixed into the
///   uniform estimation sample (they were selected non-uniformly) but are
///   used for the rules' precision upper bounds, and make cache hits free.
#[allow(clippy::too_many_arguments)]
pub fn estimate_accuracy(
    cand: &CandidateSet,
    predictions: &[bool],
    matcher_forest: &RandomForest,
    known_labels: &HashMap<usize, bool>,
    platform: &mut CrowdPlatform,
    oracle: &dyn TruthOracle,
    cfg: &EstimatorConfig,
    rng: &mut StdRng,
    env: &RunEnv<'_>,
) -> AccuracyEstimate {
    assert_eq!(predictions.len(), cand.len(), "one prediction per candidate");
    let z = z_for_confidence(cfg.confidence);
    let ledger_start = *platform.ledger();
    let pp_total = predictions.iter().filter(|&&p| p).count();

    // Degenerate matcher: nothing predicted positive ⇒ precision is
    // vacuous and recall is exactly 0 (no sampling needed).
    if pp_total == 0 {
        return AccuracyEstimate {
            precision: 0.0,
            recall: 0.0,
            f1: 0.0,
            eps_p: 0.0,
            eps_r: 0.0,
            rules_used: 0,
            rounds: 0,
            sample_labels: 0,
            pairs_labeled: 0,
            cost_cents: 0.0,
            converged: true,
        };
    }

    // Candidate reduction rules: top-k negative rules of the matcher's
    // forest by precision upper bound (§6.2 step 1) — *not* yet evaluated.
    let known_pos = labeled_as(known_labels, true);
    let mut remaining: Vec<ScoredRule> = select_top_rules(
        negative_rules(matcher_forest),
        cand,
        None,
        &known_pos,
        cfg.k_rules,
        env.threads,
    );

    let mut active: Vec<usize> = (0..cand.len()).collect();
    let mut active_set: HashSet<usize> = active.iter().copied().collect();
    let mut x: HashMap<usize, bool> = HashMap::new();

    let mut rules_used = 0usize;
    let mut rounds = 0usize;
    let mut converged = false;
    let mut final_p = 0.0;
    let mut final_r = 0.0;
    let mut final_eps_p = f64::INFINITY;
    let mut final_eps_r = f64::INFINITY;

    while rounds < cfg.max_rounds {
        rounds += 1;
        if let Some(cap) = cfg.budget_cents_cap {
            if platform.ledger().total_cents >= cap {
                break;
            }
        }

        // --- Probe: extend the uniform sample over the active set.
        let mut unsampled: Vec<usize> = active
            .iter()
            .copied()
            .filter(|i| !x.contains_key(i))
            .collect();
        if !unsampled.is_empty() {
            unsampled.shuffle(rng);
            unsampled.truncate(cfg.probe_batch);
            let keys: Vec<PairKey> = unsampled.iter().map(|&i| cand.pair(i)).collect();
            for (key, label) in platform.label_batch(oracle, &keys, cfg.scheme) {
                // The crowd answers only the pairs it was asked about.
                let pos = keys.iter().position(|&k| k == key).expect("labeled pair was requested");
                x.insert(unsampled[pos], label);
            }
        }

        // --- Estimate with the current sample.
        let pp_active = active.iter().filter(|&&i| predictions[i]).count();
        let s = sample_stats(&x, predictions);
        let scale = pp_active as f64 / pp_total as f64;
        // Margins use Laplace-smoothed proportions: at p̂ ∈ {0, 1} the
        // plain normal margin is 0 and a single lucky sample would
        // "converge" the estimate.
        let (p_in, eps_p_in) = if s.n_pp > 0 {
            let p = s.n_tp as f64 / s.n_pp as f64;
            let p_s = (s.n_tp as f64 + 1.0) / (s.n_pp as f64 + 2.0);
            (p, fpc_margin(p_s, s.n_pp, pp_active, z))
        } else {
            (0.0, f64::INFINITY)
        };
        let (r, eps_r) = if s.n_ap > 0 {
            let r = s.n_tp as f64 / s.n_ap as f64;
            let r_s = (s.n_tp as f64 + 1.0) / (s.n_ap as f64 + 2.0);
            let d_hat = s.n_ap as f64 / s.n as f64;
            let ap_active_est = ((d_hat * active.len() as f64).round() as usize).max(s.n_ap);
            (r, fpc_margin(r_s, s.n_ap, ap_active_est, z))
        } else {
            (0.0, f64::INFINITY)
        };
        final_p = p_in * scale;
        final_eps_p = eps_p_in * scale;
        final_r = r;
        final_eps_r = eps_r;

        if final_eps_p <= cfg.eps_max && final_eps_r <= cfg.eps_max && s.n_pp > 0 && s.n_ap > 0
        {
            converged = true;
            break;
        }
        if x.len() >= active.len() {
            // Sample exhausted the population: estimates are exact.
            converged = true;
            break;
        }
        if x.len() >= cfg.max_labels {
            break;
        }

        // --- Enumerate options: execute the first j of the ranked
        // remaining rules (j = 0 means "just keep sampling"), choosing the
        // cheapest by (rule evaluation labels) + (projected sampling
        // labels) (§6.2 step 2).
        let d_hat = if s.n > 0 && s.n_ap > 0 {
            s.n_ap as f64 / s.n as f64
        } else {
            // No positives observed yet: assume extreme skew.
            1.0 / (active.len() as f64).max(2.0)
        };
        let r_guess = if s.n_ap > 0 { r.clamp(0.1, 0.9) } else { 0.5 };
        let p_guess = if s.n_pp > 0 { p_in.clamp(0.1, 0.9) } else { 0.5 };

        let coverages: Vec<Vec<usize>> = exec::par_map(env.threads, &remaining, |sr| {
            sr.coverage
                .iter()
                .copied()
                .filter(|i| active_set.contains(i))
                .collect()
        });

        let sampling_labels = |active_len: usize, pp_len: usize, ap_est: f64, have: usize| {
            if active_len == 0 {
                return usize::MAX / 4;
            }
            let d = (ap_est / active_len as f64).clamp(1e-9, 1.0);
            let n_ap_needed = required_sample_size(r_guess, ap_est.round().max(1.0) as usize, z, cfg.eps_max);
            let labels_for_recall = (n_ap_needed as f64 / d).ceil() as usize;
            let pp_frac = (pp_len as f64 / active_len as f64).clamp(1e-9, 1.0);
            let n_pp_needed = required_sample_size(p_guess, pp_len.max(1), z, cfg.eps_max);
            let labels_for_precision = (n_pp_needed as f64 / pp_frac).ceil() as usize;
            labels_for_recall
                .max(labels_for_precision)
                .saturating_sub(have)
                .min(active_len)
        };

        let ap_active_est = (d_hat * active.len() as f64).max(1.0);
        let mut best_j = 0usize;
        let mut best_cost =
            sampling_labels(active.len(), pp_active, ap_active_est, x.len()) as f64;
        let mut eval_cost_acc = 0.0;
        let mut removed_union: HashSet<usize> = HashSet::new();
        for j in 1..=remaining.len() {
            let cov = &coverages[j - 1];
            // Cost of evaluating this rule's precision to ε_max.
            eval_cost_acc +=
                required_sample_size(cfg.p_min(), cov.len().max(1), z, cfg.eps_max) as f64;
            removed_union.extend(cov.iter().copied());
            let active_after = active.len().saturating_sub(removed_union.len());
            let pp_after = active
                .iter()
                .filter(|&&i| predictions[i] && !removed_union.contains(&i))
                .count();
            let have_after = x.keys().filter(|i| !removed_union.contains(i)).count(); // lint:allow(D2): order-free count; no floats touched during iteration
            // Assuming precise rules, all actual positives stay.
            let cost = eval_cost_acc
                + sampling_labels(active_after, pp_after, ap_active_est, have_after) as f64;
            if cost < best_cost {
                best_cost = cost;
                best_j = j;
            }
        }

        if best_j == 0 || remaining.is_empty() {
            continue; // keep sampling
        }

        // --- Partially evaluate the selected option: crowd-evaluate the
        // chosen rules, execute the good ones, then re-optimize (§6.2
        // step 3).
        let chosen: Vec<ScoredRule> = remaining
            .drain(..best_j)
            .map(|sr| ScoredRule {
                coverage: sr
                    .coverage
                    .iter()
                    .copied()
                    .filter(|i| active_set.contains(i))
                    .collect(),
                ..sr
            })
            .filter(|sr| !sr.coverage.is_empty())
            .collect();
        let mut eval_pool: HashMap<usize, bool> = known_labels.clone();
        eval_pool.extend(x.iter().map(|(&i, &l)| (i, l))); // lint:allow(D2): order-free map-to-map merge; insertion order does not affect map contents
        let eval_cfg = RuleEvalConfig {
            eps_max: cfg.eps_max,
            confidence: cfg.confidence,
            scheme: cfg.scheme,
            // Rule evaluation is part of the estimation phase: it must
            // honor the same cumulative ledger cap, or it can spend far
            // past the phase budget in a single call.
            budget_cents_cap: cfg.budget_cents_cap,
            ..Default::default()
        };
        let evaluated = evaluate_rules_jointly(
            chosen, cand, platform, oracle, &eval_cfg, rng, &mut eval_pool,
        );
        for er in evaluated.iter().filter(|e| e.kept) {
            rules_used += 1;
            for &i in &er.coverage {
                active_set.remove(&i);
            }
        }
        active.retain(|i| active_set.contains(i));
        // Keep the uniform sample consistent with the reduced population:
        // conditioning a uniform sample on membership stays uniform.
        x.retain(|i, _| active_set.contains(i)); // lint:allow(D2): pure membership predicate; retain outcome is order-independent
        if active.is_empty() {
            break;
        }
    }

    let ledger_end = *platform.ledger();
    AccuracyEstimate {
        precision: final_p,
        recall: final_r,
        f1: Prf::new(final_p, final_r).f1,
        eps_p: final_eps_p,
        eps_r: final_eps_r,
        rules_used,
        rounds,
        sample_labels: x.len(),
        pairs_labeled: ledger_end.pairs_labeled - ledger_start.pairs_labeled,
        cost_cents: ledger_end.total_cents - ledger_start.total_cents,
        converged,
    }
}

impl EstimatorConfig {
    /// Minimum precision for reduction rules (same standard as blocking
    /// rules, §4.2).
    fn p_min(&self) -> f64 {
        0.95
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MatcherConfig;
    use crate::learner::run_active_learning;
    use crate::task::{task_from_parts, MatchTask};
    use crate::CandidateSet;
    use crowd::{CrowdConfig, GoldOracle, WorkerPool};
    use rand::SeedableRng;
    use similarity::{Attribute, Schema, Table, Value};
    use std::sync::Arc;

    /// 40×50 task, diagonal matches; matcher trained by AL.
    fn setup() -> (MatchTask, GoldOracle, CandidateSet, RandomForest, Vec<bool>, HashMap<usize, bool>, CrowdPlatform)
    {
        let schema = Arc::new(Schema::new(vec![Attribute::text("name")]));
        let a_rows: Vec<Vec<Value>> = (0..40)
            .map(|i| vec![Value::Text(format!("gadget model {i}"))])
            .collect();
        let mut b_rows: Vec<Vec<Value>> = (0..40)
            .map(|i| vec![Value::Text(format!("gadget model {i}"))])
            .collect();
        b_rows.extend((0..10).map(|i| vec![Value::Text(format!("doohickey mk {i}"))]));
        let a = Table::new("a", schema.clone(), a_rows);
        let b = Table::new("b", schema, b_rows);
        let task = task_from_parts(a, b, "same?", [(0, 0), (1, 1)], [(0, 45), (2, 47)]);
        let gold = GoldOracle::from_pairs((0..40).map(|i| (i, i)));
        let cand = CandidateSet::full_cartesian(&task);
        let seeds = task.seed_vectors();
        let mut platform = CrowdPlatform::new(WorkerPool::perfect(5), CrowdConfig::default());
        let mut rng = StdRng::seed_from_u64(21);
        let mcfg = MatcherConfig {
            max_iterations: 25,
            stopping: crate::config::StoppingConfig {
                n_converged: 8,
                n_degrade: 6,
                ..Default::default()
            },
            ..Default::default()
        };
        let learn = run_active_learning(
            &cand,
            &seeds,
            &mut platform,
            &gold,
            &mcfg,
            &mut rng,
            exec::Threads::new(2),
        );
        let predictions = cand.predictions(&learn.forest, exec::Threads::new(2));
        let known: HashMap<usize, bool> = learn.crowd_labels().collect();
        (task, gold, cand, learn.forest, predictions, known, platform)
    }

    #[test]
    fn estimate_tracks_true_accuracy() {
        let (_, gold, cand, forest, predictions, known, mut platform) = setup();
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = EstimatorConfig { eps_max: 0.1, ..Default::default() };
        let est = estimate_accuracy(
            &cand,
            &predictions,
            &forest,
            &known,
            &mut platform,
            &gold,
            &cfg,
            &mut rng,
            &RunEnv::default(),
        );
        // True metrics.
        let mut tp = 0;
        let mut pp = 0;
        for (i, &pred) in predictions.iter().enumerate() {
            if pred {
                pp += 1;
                if gold.true_label(cand.pair(i)) {
                    tp += 1;
                }
            }
        }
        let true_p = tp as f64 / pp.max(1) as f64;
        let true_r = tp as f64 / 40.0;
        assert!(
            (est.precision - true_p).abs() <= 0.15,
            "estimated P {} vs true {}",
            est.precision,
            true_p
        );
        assert!(
            (est.recall - true_r).abs() <= 0.15,
            "estimated R {} vs true {}",
            est.recall,
            true_r
        );
        assert!(est.rounds > 0);
        assert!(est.cost_cents > 0.0);
    }

    #[test]
    fn no_positive_predictions_short_circuits() {
        let (_, gold, cand, forest, _, known, mut platform) = setup();
        let predictions = vec![false; cand.len()];
        let mut rng = StdRng::seed_from_u64(6);
        let est = estimate_accuracy(
            &cand,
            &predictions,
            &forest,
            &known,
            &mut platform,
            &gold,
            &EstimatorConfig::default(),
            &mut rng,
            &RunEnv::default(),
        );
        assert!(est.converged);
        assert_eq!(est.recall, 0.0);
        assert_eq!(est.cost_cents, 0.0);
    }

    #[test]
    fn estimator_uses_far_fewer_labels_than_population() {
        let (_, gold, cand, forest, predictions, known, mut platform) = setup();
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = EstimatorConfig { eps_max: 0.1, ..Default::default() };
        let est = estimate_accuracy(
            &cand,
            &predictions,
            &forest,
            &known,
            &mut platform,
            &gold,
            &cfg,
            &mut rng,
            &RunEnv::default(),
        );
        assert!(
            (est.sample_labels as f64) < 0.7 * cand.len() as f64,
            "sampled {} of {}",
            est.sample_labels,
            cand.len()
        );
    }

    #[test]
    fn respects_label_budget() {
        let (_, gold, cand, forest, predictions, known, mut platform) = setup();
        let mut rng = StdRng::seed_from_u64(8);
        let cfg = EstimatorConfig {
            eps_max: 0.001, // unreachable margin
            max_labels: 120,
            max_rounds: 50,
            ..Default::default()
        };
        let est = estimate_accuracy(
            &cand,
            &predictions,
            &forest,
            &known,
            &mut platform,
            &gold,
            &cfg,
            &mut rng,
            &RunEnv::default(),
        );
        // Either the budget stopped the loop, or reduction shrank the
        // population enough for the sample to exhaust it — in both cases
        // the uniform sample stays bounded by budget + one probe batch.
        assert!(
            est.sample_labels <= 120 + cfg.probe_batch,
            "sampled {}",
            est.sample_labels
        );
    }
}
