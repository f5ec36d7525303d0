//! Crowd-based model cleaning — the paper's §10 extension.
//!
//! > "Our work however raises the possibility that crowdsourcing can also
//! > help 'clean' learning models, such as finding and removing 'bad'
//! > positive/negative rules from a random forest."
//!
//! Every prediction a random forest makes is, per tree, the verdict of
//! exactly one root→leaf rule. If the crowd can certify rules (as the
//! Blocker already does), it can also *condemn* them: a rule whose
//! crowd-estimated precision is poor marks a region where its tree is
//! systematically wrong — usually the footprint of noisy training labels.
//!
//! [`clean_forest`] crowd-audits the most suspicious rules (lowest
//! precision upper bound first, among rules with non-trivial coverage)
//! and returns a [`CleanedForest`] in which a tree **abstains** whenever
//! the rule that would decide a pair has been condemned; the remaining
//! trees vote as usual. This is deliberately conservative: cleaning never
//! invents new structure, it only silences regions the crowd showed to be
//! wrong.

use crate::candidates::CandidateSet;
use crate::ruleeval::{evaluate_rules_jointly, RuleEvalConfig, ScoredRule};
use crowd::{CrowdPlatform, TruthOracle};
use forest::{rules::extract_tree_rules, RandomForest, Rule};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Configuration for model cleaning.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CleanerConfig {
    /// Maximum rules to audit (cheapest-first protection of the budget).
    pub k_rules: usize,
    /// Ignore rules covering fewer candidates than this — condemning a
    /// tiny-footprint rule cannot change predictions materially.
    pub min_coverage: usize,
    /// Precision/margin standards for the audit.
    pub eval: RuleEvalConfig,
}

impl Default for CleanerConfig {
    fn default() -> Self {
        CleanerConfig {
            k_rules: 20,
            min_coverage: 10,
            eval: RuleEvalConfig::default(),
        }
    }
}

/// What the cleaner did.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CleaningReport {
    /// Rules audited by the crowd.
    pub rules_audited: usize,
    /// Rules condemned (precision below the standard).
    pub rules_condemned: usize,
    /// Pairs labeled during the audit.
    pub pairs_labeled: u64,
    /// Crowd spend in cents.
    pub cost_cents: f64,
}

/// A forest with crowd-condemned rules disabled.
#[derive(Debug, Clone)]
pub struct CleanedForest {
    forest: RandomForest,
    /// Rules per tree, in [`extract_tree_rules`] order.
    tree_rules: Vec<Vec<Rule>>,
    /// Condemned `(tree, rule index)` pairs.
    condemned: HashSet<(usize, usize)>,
}

impl CleanedForest {
    /// Wrap a forest with no condemned rules (predicts identically).
    pub fn pristine(forest: RandomForest) -> Self {
        let tree_rules = forest
            .trees()
            .iter()
            .enumerate()
            .map(|(ti, t)| extract_tree_rules(t, ti))
            .collect();
        CleanedForest { forest, tree_rules, condemned: HashSet::new() }
    }

    /// Number of condemned rules.
    pub fn n_condemned(&self) -> usize {
        self.condemned.len()
    }

    /// The underlying forest.
    pub fn forest(&self) -> &RandomForest {
        &self.forest
    }

    /// Fraction of *non-abstaining* trees voting positive; `None` when
    /// every tree abstains.
    pub fn positive_fraction(&self, x: &[f64]) -> Option<f64> {
        let mut votes = 0usize;
        let mut pos = 0usize;
        for (ti, rules) in self.tree_rules.iter().enumerate() {
            let ri = rules
                .iter()
                .position(|r| r.matches(x))
                .expect("tree rules partition the feature space");
            if self.condemned.contains(&(ti, ri)) {
                continue;
            }
            votes += 1;
            if rules[ri].label {
                pos += 1;
            }
        }
        (votes > 0).then(|| pos as f64 / votes as f64)
    }

    /// Majority vote over non-abstaining trees; falls back to the raw
    /// forest when every tree abstains.
    pub fn predict(&self, x: &[f64]) -> bool {
        match self.positive_fraction(x) {
            Some(f) => f >= 0.5,
            None => self.forest.predict(x),
        }
    }
}

/// Crowd-audit the forest's most suspicious rules over `cand` and condemn
/// the bad ones (paper §10's "cleaning learning models").
///
/// `known_labels` is a label pool of prior crowd labels, used both to
/// rank suspicion (upper-bound precision) and as free evidence.
#[allow(clippy::too_many_arguments)]
pub fn clean_forest(
    forest: &RandomForest,
    cand: &CandidateSet,
    known_labels: &[Option<bool>],
    platform: &mut CrowdPlatform,
    oracle: &dyn TruthOracle,
    cfg: &CleanerConfig,
    rng: &mut StdRng,
) -> (CleanedForest, CleaningReport) {
    let ledger_start = *platform.ledger();
    let mut cleaned = CleanedForest::pristine(forest.clone());

    // Rank every sufficiently covering rule by upper-bound precision,
    // most suspicious (lowest bound) first.
    struct Suspect {
        tree: usize,
        rule_idx: usize,
        scored: ScoredRule,
    }
    let mut suspects: Vec<Suspect> = Vec::new();
    for (ti, rules) in cleaned.tree_rules.iter().enumerate() {
        for (ri, rule) in rules.iter().enumerate() {
            let coverage = cand.coverage(rule, None);
            if coverage.len() < cfg.min_coverage {
                continue;
            }
            let violations = coverage
                .iter()
                .filter(|&&i| known_labels[i].is_some_and(|l| l != rule.label))
                .count();
            let ub = (coverage.len() - violations) as f64 / coverage.len() as f64;
            suspects.push(Suspect {
                tree: ti,
                rule_idx: ri,
                scored: ScoredRule { rule: rule.clone(), coverage, ub_precision: ub },
            });
        }
    }
    suspects.sort_by(|a, b| a.scored.ub_precision.total_cmp(&b.scored.ub_precision));
    suspects.truncate(cfg.k_rules);

    let mut label_pool = known_labels.to_vec();
    let scored: Vec<ScoredRule> = suspects.iter().map(|s| s.scored.clone()).collect();
    let evaluated = evaluate_rules_jointly(
        scored,
        cand,
        platform,
        oracle,
        &cfg.eval,
        rng,
        &mut label_pool,
    );
    let mut condemned = 0usize;
    for (suspect, eval) in suspects.iter().zip(&evaluated) {
        if !eval.kept {
            cleaned.condemned.insert((suspect.tree, suspect.rule_idx));
            condemned += 1;
        }
    }

    let ledger_end = *platform.ledger();
    let report = CleaningReport {
        rules_audited: evaluated.len(),
        rules_condemned: condemned,
        pairs_labeled: ledger_end.pairs_labeled - ledger_start.pairs_labeled,
        cost_cents: ledger_end.total_cents - ledger_start.total_cents,
    };
    (cleaned, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{task_from_parts, MatchTask};
    use crowd::{CrowdConfig, GoldOracle, WorkerPool};
    use forest::{Dataset, ForestConfig};
    use rand::{Rng, SeedableRng};
    use similarity::{Attribute, Schema, Table, Value};
    use std::sync::Arc;

    fn toy() -> (MatchTask, GoldOracle, CandidateSet) {
        let schema = Arc::new(Schema::new(vec![Attribute::text("name")]));
        let rows: Vec<Vec<Value>> = (0..25)
            .map(|i| vec![Value::Text(format!("sensor unit {i}"))])
            .collect();
        let a = Table::new("a", schema.clone(), rows.clone());
        let b = Table::new("b", schema, rows);
        let task = task_from_parts(a, b, "same?", [(0, 0), (1, 1)], [(0, 24), (2, 20)]);
        let gold = GoldOracle::from_pairs((0..25).map(|i| (i, i)));
        let cand = CandidateSet::full_cartesian(&task);
        (task, gold, cand)
    }

    /// Train a forest on labels with injected noise so some leaves are
    /// systematically wrong.
    fn noisy_forest(cand: &CandidateSet, gold: &GoldOracle, flip: f64, seed: u64) -> RandomForest {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(cand.n_features());
        for i in 0..cand.len() {
            let mut label = gold.true_label(cand.pair(i));
            // Flip positives with the given probability (one-sided noise
            // creates consistently bad "no" regions).
            if label && rng.gen_bool(flip) {
                label = false;
            }
            ds.push(&cand.row(i), label);
        }
        RandomForest::train_all(&ds, &ForestConfig::default(), &mut rng)
    }

    #[test]
    fn pristine_wrapper_predicts_identically() {
        let (_, gold, cand) = toy();
        let forest = noisy_forest(&cand, &gold, 0.0, 1);
        let cleaned = CleanedForest::pristine(forest.clone());
        for i in 0..cand.len() {
            assert_eq!(cleaned.predict(&cand.row(i)), forest.predict(&cand.row(i)));
        }
        assert_eq!(cleaned.n_condemned(), 0);
    }

    #[test]
    fn cleaning_improves_a_model_trained_on_noisy_labels() {
        let (_, gold, cand) = toy();
        let forest = noisy_forest(&cand, &gold, 0.5, 3);
        let accuracy = |predict: &dyn Fn(&[f64]) -> bool| {
            (0..cand.len())
                .filter(|&i| predict(&cand.row(i)) == gold.true_label(cand.pair(i)))
                .count() as f64
                / cand.len() as f64
        };
        let before = accuracy(&|x| forest.predict(x));

        let mut platform = CrowdPlatform::new(WorkerPool::perfect(5), CrowdConfig::default());
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = CleanerConfig {
            min_coverage: 3,
            eval: RuleEvalConfig { p_min: 0.9, ..Default::default() },
            ..Default::default()
        };
        let (cleaned, report) = clean_forest(
            &forest,
            &cand,
            &vec![None; cand.len()],
            &mut platform,
            &gold,
            &cfg,
            &mut rng,
        );
        let after = accuracy(&|x| cleaned.predict(x));
        assert!(report.rules_audited > 0);
        assert!(
            after >= before,
            "cleaning must not hurt: before {before}, after {after}"
        );
        assert!(report.cost_cents > 0.0);
    }

    #[test]
    fn clean_model_stays_untouched() {
        let (_, gold, cand) = toy();
        let forest = noisy_forest(&cand, &gold, 0.0, 5);
        let mut platform = CrowdPlatform::new(WorkerPool::perfect(5), CrowdConfig::default());
        let mut rng = StdRng::seed_from_u64(6);
        let (cleaned, report) = clean_forest(
            &forest,
            &cand,
            &vec![None; cand.len()],
            &mut platform,
            &gold,
            &CleanerConfig { min_coverage: 3, ..Default::default() },
            &mut rng,
        );
        assert_eq!(
            report.rules_condemned, 0,
            "a noise-free model has no bad rules to condemn"
        );
        for i in (0..cand.len()).step_by(7) {
            assert_eq!(cleaned.predict(&cand.row(i)), forest.predict(&cand.row(i)));
        }
    }

    #[test]
    fn abstention_falls_back_to_forest() {
        let (_, gold, cand) = toy();
        let forest = noisy_forest(&cand, &gold, 0.0, 7);
        let mut cleaned = CleanedForest::pristine(forest.clone());
        // Condemn every rule of every tree manually.
        let all: Vec<(usize, usize)> = cleaned
            .tree_rules
            .iter()
            .enumerate()
            .flat_map(|(ti, rs)| (0..rs.len()).map(move |ri| (ti, ri)))
            .collect();
        cleaned.condemned.extend(all);
        let x = cand.row(0);
        assert!(cleaned.positive_fraction(&x).is_none());
        assert_eq!(cleaned.predict(&x), forest.predict(&x));
    }
}
