//! The Blocker (paper §4): crowdsourced generation, evaluation, and
//! application of blocking rules.
//!
//! Pipeline: decide whether `|A × B|` exceeds `t_B` → sample `S` (random
//! `t_B/|A|` B-tuples × all of A, plus the four seeds) → crowdsourced
//! active learning on `S` → extract negative rules from the learned forest
//! → select the top `k` by precision upper bound → evaluate them jointly
//! with the crowd → greedily pick a subset to execute (by precision,
//! coverage, and feature cost) → apply the subset to the full Cartesian
//! product in parallel, computing only the features each rule mentions.

use crate::candidates::CandidateSet;
use crate::config::{BlockerConfig, MatcherConfig};
use crate::env::RunEnv;
use crate::learner::{run_active_learning, LearnOutcome};
use crate::ruleeval::{
    evaluate_rules_jointly, labeled_as, select_top_rules, EvaluatedRule, RuleEvalConfig,
};
use crate::source::{plan_blocking_source, CandidateSource, CartesianScan};
use crate::task::MatchTask;
use crowd::{CrowdPlatform, PairKey, TruthOracle};
use forest::{negative_rules, Rule};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// What the Blocker did, for reporting (paper Table 3).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BlockerReport {
    /// Whether blocking was triggered (`|A × B| > t_B`).
    pub triggered: bool,
    /// `|A × B|`.
    pub cartesian: u64,
    /// Size of the sample `S` (0 when not triggered).
    pub sample_size: usize,
    /// Active-learning iterations on `S`.
    pub al_iterations: usize,
    /// Negative rules extracted from the learned forest.
    pub rules_extracted: usize,
    /// Rules sent to crowd evaluation (top `k`).
    pub rules_evaluated: usize,
    /// Rules that passed evaluation.
    pub rules_kept: usize,
    /// Rules actually executed against `A × B`, rendered with feature
    /// names, with their estimated precisions.
    pub rules_applied: Vec<(String, f64)>,
    /// Size of the umbrella set (pairs surviving blocking).
    pub umbrella_size: usize,
    /// Pairs labeled by the crowd during blocking.
    pub pairs_labeled: u64,
    /// Crowd spend during blocking, in cents.
    pub cost_cents: f64,
    /// How the umbrella set was generated (the planner's
    /// [`CandidateSource`] choice): `"cartesian_scan"` or
    /// `"indexed_join[...]"` with the probe list.
    pub source: String,
}

/// Outcome: the candidate set `C` passed to the Matcher, plus the report.
pub struct BlockerOutcome {
    /// The umbrella set with materialized feature vectors.
    pub candidates: CandidateSet,
    /// Reporting data.
    pub report: BlockerReport,
    /// The rule objects that were executed (for audits; empty when
    /// blocking was not triggered).
    pub applied_rules: Vec<Rule>,
}

/// Run the Blocker. `env` carries the run's thread budget and optional
/// feature cache (use `RunEnv::default()` for a standalone call).
pub fn run_blocker(
    task: &MatchTask,
    platform: &mut CrowdPlatform,
    oracle: &dyn TruthOracle,
    cfg: &BlockerConfig,
    matcher_cfg: &MatcherConfig,
    rng: &mut StdRng,
    env: &RunEnv<'_>,
) -> BlockerOutcome {
    let cartesian = task.cartesian_size();
    let ledger_start = *platform.ledger();

    // 1. Decide whether to block (§4.1 step 1). No rules to apply, so
    //    the scan source streams every pair.
    if cartesian <= cfg.t_b {
        let source = CartesianScan::new(task, Vec::new());
        let candidates = CandidateSet::from_source(task, &source, env.threads, env.cache);
        let umbrella_size = candidates.len();
        return BlockerOutcome {
            candidates,
            applied_rules: Vec::new(),
            report: BlockerReport {
                triggered: false,
                cartesian,
                sample_size: 0,
                al_iterations: 0,
                rules_extracted: 0,
                rules_evaluated: 0,
                rules_kept: 0,
                rules_applied: Vec::new(),
                umbrella_size,
                pairs_labeled: 0,
                cost_cents: 0.0,
                source: source.describe(),
            },
        };
    }

    // 2. Sample S (§4.1 step 2).
    let sample =
        CandidateSet::build_with(task, sample_pairs(task, cfg.t_b, rng), env.threads, env.cache);

    // 3. Crowdsourced active learning on S (§4.1 step 3).
    let seed_vectors = task.seed_vectors();
    let learn: LearnOutcome = run_active_learning(
        &sample,
        &seed_vectors,
        platform,
        oracle,
        matcher_cfg,
        rng,
        env.threads,
    );

    // 4. Extract candidate blocking rules (§4.1 step 4) and select top k
    //    by the precision upper bound (§4.2 step 1), with T = examples the
    //    crowd labeled positive during active learning.
    let candidates_rules = negative_rules(&learn.forest);
    let rules_extracted = candidates_rules.len();
    let mut known_pos = learn.crowd_positives.clone();
    known_pos.sort_unstable();
    let scored = select_top_rules(
        candidates_rules,
        &sample,
        None,
        &known_pos,
        cfg.k_rules,
        env.threads,
    );
    let rules_evaluated = scored.len();

    // 5. Crowd evaluation (§4.2 step 2), seeded with the labels gathered
    //    during active learning so they are reused for free.
    let mut label_pool: HashMap<usize, bool> = learn.crowd_labels().collect();
    let eval_cfg = RuleEvalConfig {
        batch: cfg.eval_batch,
        p_min: cfg.p_min,
        eps_max: cfg.eps_max,
        confidence: cfg.confidence,
        ..Default::default()
    };
    let evaluated = evaluate_rules_jointly(
        scored,
        &sample,
        platform,
        oracle,
        &eval_cfg,
        rng,
        &mut label_pool,
    );
    let mut kept: Vec<EvaluatedRule> = evaluated.iter().filter(|e| e.kept).cloned().collect();
    let rules_kept = kept.len();
    if kept.is_empty() {
        // Fallback: without any passing rule blocking would be impossible
        // and the Cartesian product may not fit in memory; execute the
        // single most precise evaluated rule instead.
        if let Some(best) = evaluated
            .iter()
            .max_by(|a, b| a.est_precision.total_cmp(&b.est_precision))
        {
            kept.push(best.clone());
        }
    }

    // 6. Greedy rule-subset selection on S (§4.3): repeatedly pick the
    //    best remaining rule by precision × coverage / cost, apply it to
    //    shrink S, and re-rank, until S is reduced proportionally to t_B.
    //
    //    One guard on top of the paper's ranking: under extreme skew the
    //    sampled precision of a rule covering *everything* (matches
    //    included) is still ≥ 99.9%, so precision alone cannot veto
    //    match-destroying rules. We do know something stronger: the pairs
    //    the crowd already labeled positive. A rule covering a witnessed
    //    positive provably blocks a real match, so such rules are only
    //    applied when no clean rule remains.
    let known_pos = labeled_as(&label_pool, true);
    let costs = task.feature_costs();
    let target = sample.len() as f64 * (cfg.t_b as f64 / cartesian as f64);
    let mut current: Vec<usize> = (0..sample.len()).collect();
    let mut remaining = kept;
    let mut applied: Vec<EvaluatedRule> = Vec::new();
    while current.len() as f64 > target && !remaining.is_empty() {
        // Score every remaining rule on the current residue of S. A rule
        // matches a pair or not whatever else is in S, so its coverage of
        // the residue is its selection-time coverage of all of S
        // (`EvaluatedRule::coverage`) intersected with the residue: one
        // merge of two ascending lists, no rescan of S.
        let scored: Vec<(usize, f64, Vec<usize>)> = remaining
            .iter()
            .enumerate()
            .filter_map(|(i, er)| {
                let cov = intersection(&er.coverage, &current);
                if cov.is_empty() {
                    return None;
                }
                let cov_frac = cov.len() as f64 / current.len() as f64;
                let cost = er.rule.eval_cost(&costs);
                let score = er.est_precision * cov_frac / (1.0 + cost / 10.0);
                Some((i, score, cov))
            })
            .collect();
        if scored.is_empty() {
            break;
        }
        // §4.3's greedy: take the best-ranked rule outright, re-estimate
        // on the residue, repeat until the sample is reduced to the
        // target. Each blocking rule has large coverage, so this selects
        // the 1–3 rules the paper reports rather than piling up many
        // small rules whose recall losses would compound. Rules covering
        // a crowd-witnessed positive are only used as a last resort.
        let pick_best = |rs: &[&(usize, f64, Vec<usize>)]| {
            rs.iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map(|r| (*r).clone())
        };
        let clean: Vec<&(usize, f64, Vec<usize>)> = scored
            .iter()
            .filter(|(_, _, cov)| !intersects(cov, &known_pos))
            .collect();
        let all: Vec<&(usize, f64, Vec<usize>)> = scored.iter().collect();
        let (i, _, cov) = pick_best(&clean)
            .or_else(|| pick_best(&all))
            .expect("non-empty");
        remove_sorted(&mut current, &cov);
        applied.push(remaining.swap_remove(i));
    }

    // 7. Apply the selected rules to A × B in parallel (§4.3). A pair is
    //    blocked as soon as any selected rule fires; each feature is
    //    computed only for the pairs no earlier rule blocked.
    let rules: Vec<Rule> = applied.iter().map(|e| e.rule.clone()).collect();
    let source = plan_blocking_source(task, &rules);
    let candidates = CandidateSet::from_source(task, &source, env.threads, env.cache);
    let umbrella_size = candidates.len();

    let names = task.feature_names();
    let ledger_end = *platform.ledger();
    BlockerOutcome {
        candidates,
        applied_rules: rules,
        report: BlockerReport {
            triggered: true,
            cartesian,
            sample_size: sample.len(),
            al_iterations: learn.iterations,
            rules_extracted,
            rules_evaluated,
            rules_kept,
            rules_applied: applied
                .iter()
                .map(|e| (e.rule.display_with(&names), e.est_precision))
                .collect(),
            umbrella_size,
            pairs_labeled: ledger_end.pairs_labeled - ledger_start.pairs_labeled,
            cost_cents: ledger_end.total_cents - ledger_start.total_cents,
            source: source.describe(),
        },
    }
}

/// The Blocker's sample `S` (§4.1 step 2): `⌈t_B/|A|⌉` random B-tuples ×
/// all of A (A is the smaller table by convention), row-major, so the
/// candidate build meets one run per A record, then each seed pair the
/// sample lacks.
pub fn sample_pairs(task: &MatchTask, t_b: u64, rng: &mut StdRng) -> Vec<PairKey> {
    let n_a = task.table_a.len();
    let n_b_sample = usize::try_from(t_b.div_ceil(n_a.max(1) as u64))
        .unwrap_or(usize::MAX)
        .min(task.table_b.len());
    let mut b_ids: Vec<u32> = (0..task.table_b.len() as u32).collect();
    b_ids.shuffle(rng);
    b_ids.truncate(n_b_sample);
    let mut pairs: Vec<PairKey> = Vec::with_capacity(n_a * n_b_sample + 4);
    for a in 0..n_a as u32 {
        for &b in &b_ids {
            pairs.push(PairKey::new(a, b));
        }
    }
    for &(seed, _) in &task.seeds {
        if !pairs.contains(&seed) {
            pairs.push(seed);
        }
    }
    pairs
}

/// True when the ascending lists `a` and `b` share an element.
fn intersects(a: &[usize], b: &[usize]) -> bool {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// The entries the ascending lists `a` and `b` share, ascending: one
/// merge pass.
fn intersection(a: &[usize], b: &[usize]) -> Vec<usize> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Drop the entries of the ascending list `covered` from the ascending
/// list `current`, keeping its order: one merge pass.
fn remove_sorted(current: &mut Vec<usize>, covered: &[usize]) {
    let mut j = 0;
    current.retain(|&i| {
        while j < covered.len() && covered[j] < i {
            j += 1;
        }
        covered.get(j) != Some(&i)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StoppingConfig;
    use crate::task::task_from_parts;
    use crowd::{CrowdConfig, GoldOracle, WorkerPool};
    use exec::Threads;
    use forest::{Op, Predicate};
    use rand::SeedableRng;
    use similarity::{Attribute, Schema, Table, Value};
    use std::collections::HashSet;
    use std::sync::Arc;

    fn toy_task(n: usize) -> (MatchTask, GoldOracle) {
        let schema = Arc::new(Schema::new(vec![Attribute::text("name")]));
        let a_rows: Vec<Vec<Value>> = (0..n)
            .map(|i| vec![Value::Text(format!("product item {i}"))])
            .collect();
        let b_rows: Vec<Vec<Value>> = (0..n)
            .map(|i| vec![Value::Text(format!("product item {i}"))])
            .collect();
        let a = Table::new("a", schema.clone(), a_rows);
        let b = Table::new("b", schema, b_rows);
        let task = task_from_parts(
            a,
            b,
            "same?",
            [(0, 0), (1, 1)],
            [(0, (n - 1) as u32), (2, (n - 3) as u32)],
        );
        let gold = GoldOracle::from_pairs((0..n as u32).map(|i| (i, i)));
        (task, gold)
    }

    fn small_matcher_cfg() -> MatcherConfig {
        MatcherConfig {
            max_iterations: 25,
            stopping: StoppingConfig { n_converged: 8, n_degrade: 6, ..Default::default() },
            ..Default::default()
        }
    }

    #[test]
    fn small_cartesian_skips_blocking() {
        let (task, gold) = toy_task(10);
        let mut platform = CrowdPlatform::new(WorkerPool::perfect(3), CrowdConfig::default());
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = BlockerConfig { t_b: 1000, ..Default::default() };
        let out = run_blocker(
            &task,
            &mut platform,
            &gold,
            &cfg,
            &small_matcher_cfg(),
            &mut rng,
            &RunEnv::default(),
        );
        assert!(!out.report.triggered);
        assert_eq!(out.candidates.len(), 100);
        assert_eq!(out.report.cost_cents, 0.0);
    }

    #[test]
    fn large_cartesian_triggers_blocking_and_keeps_matches() {
        let (task, gold) = toy_task(40); // cartesian 1600
        let mut platform = CrowdPlatform::new(WorkerPool::perfect(3), CrowdConfig::default());
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = BlockerConfig { t_b: 400, ..Default::default() };
        let out = run_blocker(
            &task,
            &mut platform,
            &gold,
            &cfg,
            &small_matcher_cfg(),
            &mut rng,
            &RunEnv::default(),
        );
        assert!(out.report.triggered);
        assert!(out.report.sample_size >= 400);
        assert!(out.report.rules_extracted > 0);
        assert!(
            out.candidates.len() < 1600,
            "blocking must reduce the Cartesian product"
        );
        // Recall of the umbrella set should be high: the diagonal pairs
        // are trivially similar.
        let umbrella: HashSet<PairKey> = out.candidates.pairs().iter().copied().collect();
        let kept_gold = gold
            .matches()
            .iter()
            .filter(|p| umbrella.contains(p))
            .count();
        assert!(
            kept_gold as f64 / gold.n_matches() as f64 > 0.85,
            "blocking recall too low: {kept_gold}/40"
        );
        assert!(out.report.cost_cents > 0.0);
        assert!(out.report.pairs_labeled > 0);
    }

    #[test]
    fn residue_coverage_is_the_stored_coverage_intersected() {
        let (task, _) = toy_task(30);
        let mut rng = StdRng::seed_from_u64(5);
        let sample = CandidateSet::build(&task, sample_pairs(&task, 300, &mut rng));
        let exact = task.feature_names().iter().position(|n| n == "name_exact").unwrap();
        let rule = |predicates: Vec<Predicate>| Rule {
            predicates,
            label: false,
            tree: 0,
            n_pos: 0,
            n_neg: 0,
        };
        let le = |feature: usize, threshold: f64| Predicate {
            feature,
            op: Op::Le,
            threshold,
            nan_satisfies: true,
        };
        let rules =
            [rule(vec![le(exact, 0.5)]), rule(vec![le(exact, 0.5), le(0, 0.4)]), rule(vec![])];
        let residues: [Vec<usize>; 3] =
            [(0..sample.len()).collect(), (0..sample.len()).step_by(3).collect(), Vec::new()];
        for r in &rules {
            let full = sample.coverage(r, None);
            for residue in &residues {
                assert_eq!(intersection(&full, residue), sample.coverage(r, Some(residue)), "{r}");
            }
        }
        assert_eq!(intersection(&[1, 4, 6, 9], &[0, 4, 5, 9, 10]), [4, 9]);
    }

    #[test]
    fn scan_source_no_rules_returns_all() {
        let (task, _) = toy_task(6);
        let all = CartesianScan::new(&task, Vec::new()).generate(Threads::auto());
        assert_eq!(all.len(), 36);
    }

    #[test]
    fn scan_source_matches_sequential_semantics() {
        let (task, _) = toy_task(8);
        let f = task
            .feature_names()
            .iter()
            .position(|n| n == "name_exact")
            .unwrap();
        let rule = Rule {
            predicates: vec![Predicate {
                feature: f,
                op: Op::Le,
                threshold: 0.5,
                nan_satisfies: true,
            }],
            label: false,
            tree: 0,
            n_pos: 0,
            n_neg: 0,
        };
        let survivors =
            CartesianScan::new(&task, vec![rule.clone()]).generate(Threads::auto());
        // Sequential reference.
        let mut expected = Vec::new();
        for a in 0..8u32 {
            for b in 0..8u32 {
                let pair = PairKey::new(a, b);
                let x = task.vectorize(pair);
                if !rule.matches(&x) {
                    expected.push(pair);
                }
            }
        }
        let mut got = survivors.clone();
        got.sort();
        expected.sort();
        assert_eq!(got, expected);
        assert_eq!(got.len(), 8, "only the diagonal survives an exact-match block");
    }
}
