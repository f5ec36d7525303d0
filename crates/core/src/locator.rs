//! The Difficult Pairs' Locator (paper §7).
//!
//! After an iteration, Corleone "zooms in" on the pairs the current
//! matcher has likely gotten wrong. The idea: extract the *precise*
//! positive and negative rules from the matcher's forest (validated with
//! the crowd to the same `P_min` standard as blocking rules) and remove
//! every pair they cover — those pairs are easy, because a precise rule
//! already decides them. Whatever remains is the difficult set `C′`,
//! which the next iteration trains a dedicated matcher on.

use crate::candidates::CandidateSet;
use crate::config::LocatorConfig;
use crate::env::RunEnv;
use crate::ruleeval::{evaluate_rules_jointly, labeled_as, select_top_rules, RuleEvalConfig};
use crowd::{CrowdPlatform, TruthOracle};
use forest::{negative_rules, positive_rules, RandomForest};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Locator result.
#[derive(Debug, Clone)]
pub struct LocatorOutcome {
    /// Indices (into the candidate set) of the difficult pairs, or `None`
    /// when iteration should stop (difficult set too small, or no
    /// significant reduction happened).
    pub difficult: Option<Vec<usize>>,
    /// Reporting data.
    pub report: LocatorReport,
}

/// What the Locator did.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LocatorReport {
    /// Precise negative rules kept and applied.
    pub negative_rules_used: usize,
    /// Precise positive rules kept and applied.
    pub positive_rules_used: usize,
    /// Size of the difficult set `C′`.
    pub difficult_size: usize,
    /// Size of the input set `C`.
    pub input_size: usize,
    /// Why iteration stops, if it does.
    pub termination: Option<String>,
    /// Pairs labeled by the crowd during locating.
    pub pairs_labeled: u64,
    /// Crowd spend in cents.
    pub cost_cents: f64,
}

/// Run the Locator over the candidate indices `within` of `cand`.
///
/// `known_labels` are crowd labels from earlier phases, reused for rule
/// upper bounds and free cache hits.
#[allow(clippy::too_many_arguments)]
pub fn locate_difficult_pairs(
    cand: &CandidateSet,
    within: &[usize],
    matcher_forest: &RandomForest,
    known_labels: &HashMap<usize, bool>,
    platform: &mut CrowdPlatform,
    oracle: &dyn TruthOracle,
    cfg: &LocatorConfig,
    eval_cfg: &RuleEvalConfig,
    rng: &mut StdRng,
    env: &RunEnv<'_>,
) -> LocatorOutcome {
    let ledger_start = *platform.ledger();
    let known_pos = labeled_as(known_labels, true);
    let known_neg = labeled_as(known_labels, false);

    // 1. Top-k precise negative and positive rules (§7 step 1), each
    //    validated by the crowd like blocking rules.
    let mut label_pool: HashMap<usize, bool> = known_labels.clone();
    let neg_scored = select_top_rules(
        negative_rules(matcher_forest),
        cand,
        Some(within),
        &known_pos,
        cfg.k_rules,
        env.threads,
    );
    let pos_scored = select_top_rules(
        positive_rules(matcher_forest),
        cand,
        Some(within),
        &known_neg,
        cfg.k_rules,
        env.threads,
    );
    let neg_eval = evaluate_rules_jointly(
        neg_scored, cand, platform, oracle, eval_cfg, rng, &mut label_pool,
    );
    let pos_eval = evaluate_rules_jointly(
        pos_scored, cand, platform, oracle, eval_cfg, rng, &mut label_pool,
    );

    // 2. Remove everything covered by a kept rule (§7 step 2).
    let mut covered: HashSet<usize> = HashSet::new();
    let mut n_neg_used = 0usize;
    let mut n_pos_used = 0usize;
    for er in neg_eval.iter().filter(|e| e.kept) {
        n_neg_used += 1;
        covered.extend(er.coverage.iter().copied());
    }
    for er in pos_eval.iter().filter(|e| e.kept) {
        n_pos_used += 1;
        covered.extend(er.coverage.iter().copied());
    }
    let difficult: Vec<usize> = within
        .iter()
        .copied()
        .filter(|i| !covered.contains(i))
        .collect();

    // 3. Termination tests (§7 step 3).
    let termination = if difficult.len() < cfg.min_difficult {
        Some(format!(
            "difficult set too small ({} < {})",
            difficult.len(),
            cfg.min_difficult
        ))
    } else if (difficult.len() as f64) >= cfg.max_keep_ratio * within.len() as f64 {
        Some(format!(
            "no significant reduction ({} of {})",
            difficult.len(),
            within.len()
        ))
    } else {
        None
    };

    let ledger_end = *platform.ledger();
    let report = LocatorReport {
        negative_rules_used: n_neg_used,
        positive_rules_used: n_pos_used,
        difficult_size: difficult.len(),
        input_size: within.len(),
        termination: termination.clone(),
        pairs_labeled: ledger_end.pairs_labeled - ledger_start.pairs_labeled,
        cost_cents: ledger_end.total_cents - ledger_start.total_cents,
    };
    LocatorOutcome {
        difficult: if termination.is_none() { Some(difficult) } else { None },
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MatcherConfig;
    use crate::learner::run_active_learning;
    use crate::task::task_from_parts;
    use crowd::{CrowdConfig, GoldOracle, WorkerPool};
    use rand::SeedableRng;
    use similarity::{Attribute, Schema, Table, Value};
    use std::sync::Arc;

    fn setup() -> (CandidateSet, RandomForest, HashMap<usize, bool>, GoldOracle, CrowdPlatform)
    {
        let schema = Arc::new(Schema::new(vec![Attribute::text("name")]));
        let a_rows: Vec<Vec<Value>> = (0..30)
            .map(|i| vec![Value::Text(format!("thing variant {i}"))])
            .collect();
        let b_rows: Vec<Vec<Value>> = (0..30)
            .map(|i| vec![Value::Text(format!("thing variant {i}"))])
            .collect();
        let a = Table::new("a", schema.clone(), a_rows);
        let b = Table::new("b", schema, b_rows);
        let task = task_from_parts(a, b, "same?", [(0, 0), (1, 1)], [(0, 29), (2, 27)]);
        let gold = GoldOracle::from_pairs((0..30).map(|i| (i, i)));
        let cand = CandidateSet::full_cartesian(&task);
        let seeds = task.seed_vectors();
        let mut platform = CrowdPlatform::new(WorkerPool::perfect(5), CrowdConfig::default());
        let mut rng = StdRng::seed_from_u64(31);
        let mcfg = MatcherConfig {
            max_iterations: 20,
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
        let known: HashMap<usize, bool> = learn.crowd_labels().collect();
        (cand, learn.forest, known, gold, platform)
    }

    #[test]
    fn well_learned_task_terminates_iteration() {
        // On an easy task the forest's precise rules cover nearly
        // everything, so the difficult set falls under min_difficult.
        let (cand, forest, known, gold, mut platform) = setup();
        let within: Vec<usize> = (0..cand.len()).collect();
        let mut rng = StdRng::seed_from_u64(9);
        let out = locate_difficult_pairs(
            &cand,
            &within,
            &forest,
            &known,
            &mut platform,
            &gold,
            &LocatorConfig { min_difficult: 50, ..Default::default() },
            &RuleEvalConfig::default(),
            &mut rng,
            &RunEnv::default(),
        );
        assert!(
            out.report.negative_rules_used + out.report.positive_rules_used > 0,
            "some precise rules must survive"
        );
        assert!(
            out.report.difficult_size < out.report.input_size,
            "rules must cover something"
        );
    }

    #[test]
    fn strict_threshold_forces_termination_reason() {
        let (cand, forest, known, gold, mut platform) = setup();
        let within: Vec<usize> = (0..cand.len()).collect();
        let mut rng = StdRng::seed_from_u64(10);
        // min_difficult larger than the input forces the "too small" exit
        // whenever any reduction happens, or "no significant reduction".
        let out = locate_difficult_pairs(
            &cand,
            &within,
            &forest,
            &known,
            &mut platform,
            &gold,
            &LocatorConfig { min_difficult: cand.len() + 1, ..Default::default() },
            &RuleEvalConfig::default(),
            &mut rng,
            &RunEnv::default(),
        );
        assert!(out.difficult.is_none());
        assert!(out.report.termination.is_some());
    }

    #[test]
    fn difficult_indices_subset_of_within() {
        let (cand, forest, known, gold, mut platform) = setup();
        let within: Vec<usize> = (0..cand.len() / 2).collect();
        let mut rng = StdRng::seed_from_u64(11);
        let out = locate_difficult_pairs(
            &cand,
            &within,
            &forest,
            &known,
            &mut platform,
            &gold,
            &LocatorConfig { min_difficult: 1, max_keep_ratio: 1.1, ..Default::default() },
            &RuleEvalConfig::default(),
            &mut rng,
            &RunEnv::default(),
        );
        if let Some(d) = out.difficult {
            let within_set: HashSet<usize> = within.iter().copied().collect();
            assert!(d.iter().all(|i| within_set.contains(i)));
        }
    }
}
