//! Rule scoring and crowd-based rule evaluation (paper §4.2), shared by
//! the Blocker, the Accuracy Estimator, and the Difficult Pairs' Locator.
//!
//! Selection (§4.2 step 1): candidate rules are ranked by an *upper bound*
//! on their precision — a covered example can only break the rule if the
//! crowd already labeled it with the opposite class — and the top `k` go
//! to evaluation.
//!
//! Evaluation (§4.2 step 2, joint variant): examples are sampled from the
//! union of the undecided rules' coverages so one crowd label feeds every
//! rule covering it; per rule, the estimated precision `P = n_ok/n` with a
//! finite-population margin `ε` decides keep (`P ≥ P_min`, `ε ≤ ε_max`) or
//! drop (`P + ε < P_min`, or `ε ≤ ε_max` with `P < P_min`).

use crate::candidates::CandidateSet;
use crowd::stats::{fpc_margin, z_for_confidence};
use crowd::{CrowdPlatform, PairKey, Scheme, TruthOracle};
use exec::Threads;
use forest::Rule;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A candidate rule with its coverage and precision upper bound.
#[derive(Debug, Clone)]
pub struct ScoredRule {
    /// The rule.
    pub rule: Rule,
    /// Candidate indices the rule covers (predicts its label for).
    pub coverage: Vec<usize>,
    /// Upper bound on `prec(R, S)` from already-known labels (§4.2).
    pub ub_precision: f64,
}

/// Score rules and keep the top `k` by precision upper bound, breaking
/// ties by coverage size (§4.2 step 1). `known_opposite` holds candidate
/// indices already crowd-labeled with the class *opposite* to the rules'
/// prediction (for negative rules: the known positives `T`), ascending
/// and distinct; `within`, when given, is ascending too. Rules with
/// empty coverage and duplicate rules (same predicates and label, from
/// different trees) are discarded.
pub fn select_top_rules(
    rules: Vec<Rule>,
    cand: &CandidateSet,
    within: Option<&[usize]>,
    known_opposite: &[usize],
    k: usize,
    threads: Threads,
) -> Vec<ScoredRule> {
    debug_assert!(known_opposite.windows(2).all(|w| w[0] < w[1]), "known_opposite ascending");
    debug_assert!(within.unwrap_or(&[]).windows(2).all(|w| w[0] < w[1]), "within ascending");
    let mut seen: Vec<(Vec<forest::Predicate>, bool)> = Vec::new();
    let mut unique: Vec<Rule> = Vec::new();
    for rule in rules {
        let sig = (rule.predicates.clone(), rule.label);
        if seen.contains(&sig) {
            continue;
        }
        seen.push(sig);
        unique.push(rule);
    }
    // Coverage scans are the expensive part and independent per rule.
    let mut scored: Vec<ScoredRule> = exec::par_map(threads, &unique, |rule| {
        let coverage = cand.coverage(rule, within);
        if coverage.is_empty() {
            return None;
        }
        // Coverage is ascending: look the few known labels up in it.
        let violations = known_opposite
            .iter()
            .filter(|i| coverage.binary_search(i).is_ok())
            .count();
        let ub_precision = (coverage.len() - violations) as f64 / coverage.len() as f64;
        Some(ScoredRule { rule: rule.clone(), coverage, ub_precision })
    })
    .into_iter()
    .flatten()
    .collect();
    scored.sort_by(|a, b| {
        b.ub_precision
            .total_cmp(&a.ub_precision)
            .then(b.coverage.len().cmp(&a.coverage.len()))
    });
    scored.truncate(k);
    scored
}

/// Parameters for crowd rule evaluation.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RuleEvalConfig {
    /// Examples sampled per round (`b`, §4.2).
    pub batch: usize,
    /// Minimum precision `P_min`.
    pub p_min: f64,
    /// Maximum margin `ε_max`.
    pub eps_max: f64,
    /// Confidence level `δ`.
    pub confidence: f64,
    /// Voting scheme for the labels (rule evaluation is
    /// estimation-sensitive, so the hybrid scheme is the default).
    pub scheme: Scheme,
    /// Absolute ledger cap (cents): stop soliciting labels once
    /// `Ledger.total_cents` reaches it, deciding remaining rules from the
    /// labels in hand. `None` leaves evaluation unbudgeted.
    pub budget_cents_cap: Option<f64>,
}

impl Default for RuleEvalConfig {
    fn default() -> Self {
        RuleEvalConfig {
            batch: 20,
            p_min: 0.95,
            eps_max: 0.05,
            confidence: 0.95,
            scheme: Scheme::Hybrid,
            budget_cents_cap: None,
        }
    }
}

/// A rule after crowd evaluation.
#[derive(Debug, Clone)]
pub struct EvaluatedRule {
    /// The rule.
    pub rule: Rule,
    /// Its coverage (as given at selection time).
    pub coverage: Vec<usize>,
    /// Estimated precision over the coverage.
    pub est_precision: f64,
    /// Error margin of the estimate.
    pub margin: f64,
    /// Labeled examples that informed the estimate.
    pub n_labeled: usize,
    /// Whether the rule passed (`P ≥ P_min` within `ε_max`).
    pub kept: bool,
}

/// Crowd labels keyed by candidate index, in ascending index order: the
/// order-free way to walk a label pool (hash order must not reach
/// snapshots, sampling, or anything else a run's bytes depend on).
pub fn sorted_labels(labels: &HashMap<usize, bool>) -> Vec<(usize, bool)> {
    let mut v: Vec<(usize, bool)> = labels.iter().map(|(&i, &l)| (i, l)).collect(); // lint:allow(D2): this IS the sanctioned collect+sort helper; sorted on the next line
    v.sort_unstable_by_key(|&(i, _)| i);
    v
}

/// The indices `labels` holds with label `label`, ascending.
pub fn labeled_as(labels: &HashMap<usize, bool>, label: bool) -> Vec<usize> {
    sorted_labels(labels).into_iter().filter(|&(_, l)| l == label).map(|(i, _)| i).collect()
}

/// Jointly evaluate rules with the crowd (§4.2 step 2, joint variant).
/// Also returns the pool of labels gathered, keyed by candidate index, so
/// callers can reuse them.
pub fn evaluate_rules_jointly(
    scored: Vec<ScoredRule>,
    cand: &CandidateSet,
    platform: &mut CrowdPlatform,
    oracle: &dyn TruthOracle,
    cfg: &RuleEvalConfig,
    rng: &mut StdRng,
    prior_labels: &mut HashMap<usize, bool>,
) -> Vec<EvaluatedRule> {
    let z = z_for_confidence(cfg.confidence);
    // The pool as a dense per-candidate view (`None` = unlabeled), kept
    // in step with `prior_labels`: the per-round stats and the sampling
    // union read it once per covered index.
    let mut dense: Vec<Option<bool>> = vec![None; cand.len()];
    for (i, l) in sorted_labels(prior_labels) {
        if let Some(d) = dense.get_mut(i) {
            *d = Some(l);
        }
    }

    struct State {
        scored: ScoredRule,
        decided: Option<EvaluatedRule>,
    }
    let mut states: Vec<State> = scored
        .into_iter()
        .map(|s| State { scored: s, decided: None })
        .collect();

    let stats = |s: &ScoredRule, labels: &[Option<bool>]| -> (usize, usize) {
        let mut n = 0;
        let mut ok = 0;
        for &i in &s.coverage {
            if let Some(l) = labels[i] {
                n += 1;
                if l == s.scored_label() {
                    ok += 1;
                }
            }
        }
        (n, ok)
    };

    let mut rounds = 0usize;
    loop {
        rounds += 1;
        // Decide what we can with current labels.
        for st in states.iter_mut().filter(|s| s.decided.is_none()) {
            let (n, ok) = stats(&st.scored, &dense);
            let m = st.scored.coverage.len();
            if n == 0 {
                continue;
            }
            let p = ok as f64 / n as f64;
            // Margin with Laplace-smoothed proportion: at p̂ ∈ {0, 1} the
            // plain normal margin collapses to 0 and would accept/reject a
            // rule after a single label.
            let p_smooth = (ok as f64 + 1.0) / (n as f64 + 2.0);
            let eps = fpc_margin(p_smooth, n, m, z);
            let keep = p >= cfg.p_min && eps <= cfg.eps_max;
            let drop = (p + eps) < cfg.p_min || (eps <= cfg.eps_max && p < cfg.p_min);
            if keep || drop || n >= m {
                st.decided = Some(EvaluatedRule {
                    rule: st.scored.rule.clone(),
                    coverage: st.scored.coverage.clone(),
                    est_precision: p,
                    margin: eps,
                    n_labeled: n,
                    kept: keep || (n >= m && p >= cfg.p_min),
                });
            }
        }
        let undecided_any = states.iter().any(|s| s.decided.is_none());
        // Finalize whatever is still undecided from the labels in hand —
        // used when sampling must stop (coverage exhausted, budget cap,
        // round cap, or a crowd that stopped returning labels).
        let finalize = |states: &mut Vec<State>, labels: &[Option<bool>]| {
            for st in states.iter_mut().filter(|s| s.decided.is_none()) {
                let (n, ok) = stats(&st.scored, labels);
                let p = if n > 0 { ok as f64 / n as f64 } else { 0.0 };
                st.decided = Some(EvaluatedRule {
                    rule: st.scored.rule.clone(),
                    coverage: st.scored.coverage.clone(),
                    est_precision: p,
                    margin: 0.0,
                    n_labeled: n,
                    kept: p >= cfg.p_min && n > 0,
                });
            }
        };
        if !undecided_any {
            break;
        }
        if rounds > 500 {
            finalize(&mut states, &dense);
            break;
        }
        if let Some(cap) = cfg.budget_cents_cap {
            if platform.ledger().total_cents >= cap {
                finalize(&mut states, &dense);
                break;
            }
        }
        // Sample from the union of undecided coverages, unlabeled only.
        let mut union: Vec<usize> = states
            .iter()
            .filter(|s| s.decided.is_none())
            .flat_map(|s| s.scored.coverage.iter().copied())
            .filter(|&i| dense[i].is_none())
            .collect();
        union.sort_unstable();
        union.dedup();
        if union.is_empty() {
            // Exhausted: finalize the stragglers from exact coverage stats.
            finalize(&mut states, &dense);
            break;
        }
        union.shuffle(rng);
        union.truncate(cfg.batch);
        let keys: Vec<PairKey> = union.iter().map(|&i| cand.pair(i)).collect();
        let labeled = platform.label_batch(oracle, &keys, cfg.scheme);
        for (key, label) in labeled {
            // The crowd answers only the pairs it was asked about.
            let pos = keys.iter().position(|&k| k == key).expect("labeled pair was requested");
            prior_labels.insert(union[pos], label);
            dense[union[pos]] = Some(label);
        }
    }

    states
        .into_iter()
        .map(|s| s.decided.expect("all rules decided at loop exit"))
        .collect()
}

impl ScoredRule {
    /// The label a covered example must carry for the rule to be correct.
    fn scored_label(&self) -> bool {
        self.rule.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{task_from_parts, MatchTask};
    use crowd::{CrowdConfig, GoldOracle, WorkerPool};
    use forest::{Op, Predicate};
    use rand::SeedableRng;
    use similarity::{Attribute, Schema, Table, Value};
    use std::sync::Arc;

    /// Task with one text feature set; gold = identical names.
    fn toy() -> (MatchTask, GoldOracle, CandidateSet) {
        let schema = Arc::new(Schema::new(vec![Attribute::text("name")]));
        let a_rows: Vec<Vec<Value>> = (0..12)
            .map(|i| vec![Value::Text(format!("alpha item number {i}"))])
            .collect();
        let b_rows: Vec<Vec<Value>> = (0..12)
            .map(|i| vec![Value::Text(format!("alpha item number {i}"))])
            .collect();
        let a = Table::new("a", schema.clone(), a_rows);
        let b = Table::new("b", schema, b_rows);
        let task = task_from_parts(a, b, "same?", [(0, 0), (1, 1)], [(0, 5), (2, 7)]);
        let gold = GoldOracle::from_pairs((0..12).map(|i| (i, i)));
        let cand = CandidateSet::full_cartesian(&task);
        (task, gold, cand)
    }

    /// A negative rule over the exact-match feature: exact < 0.5 → NO.
    fn exact_rule(task: &MatchTask, label: bool) -> Rule {
        let f = task
            .feature_names()
            .iter()
            .position(|n| n == "name_exact")
            .unwrap();
        let op = if label { Op::Gt } else { Op::Le };
        Rule {
            predicates: vec![Predicate { feature: f, op, threshold: 0.5, nan_satisfies: !label }],
            label,
            tree: 0,
            n_pos: 0,
            n_neg: 0,
        }
    }

    #[test]
    fn coverage_of_counts_correctly() {
        let (task, _, cand) = toy();
        let neg = exact_rule(&task, false);
        let cov = cand.coverage(&neg, None);
        assert_eq!(cov.len(), 144 - 12, "all off-diagonal pairs");
        let within: Vec<usize> = (0..24).collect();
        let cov2 = cand.coverage(&neg, Some(&within));
        assert!(cov2.len() < cov.len());
        assert!(cov2.iter().all(|i| within.contains(i)));
    }

    #[test]
    fn select_top_rules_ranks_by_upper_bound() {
        let (task, _, cand) = toy();
        let good = exact_rule(&task, false); // covers only true negatives
        let bad = Rule {
            predicates: vec![],
            label: false,
            tree: 1,
            n_pos: 0,
            n_neg: 0,
        }; // covers everything incl. positives
        // Crowd has labeled two diagonal pairs positive.
        let mut known_pos = vec![
            cand.index_of(PairKey::new(0, 0)).unwrap(),
            cand.index_of(PairKey::new(1, 1)).unwrap(),
        ];
        known_pos.sort_unstable();
        let top =
            select_top_rules(vec![bad, good.clone()], &cand, None, &known_pos, 2, Threads::new(2));
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].rule, good, "clean rule must rank first");
        assert_eq!(top[0].ub_precision, 1.0);
        assert!(top[1].ub_precision < 1.0);
    }

    #[test]
    fn duplicate_rules_are_collapsed() {
        let (task, _, cand) = toy();
        let r = exact_rule(&task, false);
        let top = select_top_rules(
            vec![r.clone(), r.clone(), r],
            &cand,
            None,
            &[],
            10,
            Threads::new(1),
        );
        assert_eq!(top.len(), 1);
    }

    #[test]
    fn evaluation_keeps_precise_rule_and_drops_imprecise() {
        let (task, gold, cand) = toy();
        let good = exact_rule(&task, false);
        // A negative rule that fires exactly on the matching (diagonal)
        // pairs has precision 0 — it must be dropped decisively.
        let inverted = Rule {
            predicates: vec![Predicate {
                feature: task
                    .feature_names()
                    .iter()
                    .position(|n| n == "name_exact")
                    .unwrap(),
                op: Op::Gt,
                threshold: 0.5,
                nan_satisfies: false,
            }],
            label: false,
            tree: 9,
            n_pos: 0,
            n_neg: 0,
        };
        let scored = select_top_rules(
            vec![good.clone(), inverted],
            &cand,
            None,
            &[],
            2,
            Threads::new(2),
        );
        let mut platform = CrowdPlatform::new(WorkerPool::perfect(5), CrowdConfig::default());
        let mut rng = StdRng::seed_from_u64(3);
        let mut labels = HashMap::new();
        let out = evaluate_rules_jointly(
            scored,
            &cand,
            &mut platform,
            &gold,
            &RuleEvalConfig::default(),
            &mut rng,
            &mut labels,
        );
        let good_eval = out.iter().find(|e| e.rule == good).unwrap();
        assert!(good_eval.kept, "precise rule must be kept");
        assert!(good_eval.est_precision >= 0.95);
        let bad_eval = out.iter().find(|e| e.rule != good).unwrap();
        assert!(!bad_eval.kept, "imprecise rule must be dropped");
        assert!(!labels.is_empty(), "labels pool returned for reuse");
    }

    #[test]
    fn positive_rules_judged_against_positive_labels() {
        let (task, gold, cand) = toy();
        let pos = exact_rule(&task, true); // exact > 0.5 → MATCH, covers diagonal
        let scored = select_top_rules(vec![pos], &cand, None, &[], 1, Threads::new(1));
        assert_eq!(scored[0].coverage.len(), 12);
        let mut platform = CrowdPlatform::new(WorkerPool::perfect(5), CrowdConfig::default());
        let mut rng = StdRng::seed_from_u64(4);
        let mut labels = HashMap::new();
        let out = evaluate_rules_jointly(
            scored,
            &cand,
            &mut platform,
            &gold,
            &RuleEvalConfig::default(),
            &mut rng,
            &mut labels,
        );
        assert!(out[0].kept);
        assert_eq!(out[0].est_precision, 1.0);
    }

    #[test]
    fn evaluation_is_frugal_with_labels() {
        let (task, gold, cand) = toy();
        let good = exact_rule(&task, false);
        let scored = select_top_rules(vec![good], &cand, None, &[], 1, Threads::new(1));
        let mut platform = CrowdPlatform::new(WorkerPool::perfect(5), CrowdConfig::default());
        let mut rng = StdRng::seed_from_u64(5);
        let mut labels = HashMap::new();
        let out = evaluate_rules_jointly(
            scored,
            &cand,
            &mut platform,
            &gold,
            &RuleEvalConfig::default(),
            &mut rng,
            &mut labels,
        );
        // Coverage is 132; deciding at P=1 needs far fewer labels.
        assert!(out[0].n_labeled < 132, "labeled {}", out[0].n_labeled);
        assert!(out[0].kept);
    }
}
