//! Reproduces the **§9.3 "Effectiveness of Rule Evaluation"** experiment:
//! the *true* precision of the rules Corleone's crowd evaluation keeps, at
//! each step that uses rules (blocking, estimation/reduction, locating),
//! and the average number of rules used.
//!
//! Paper: blocking rules reach 99.9–99.99% precision; rules found in later
//! steps are 97.5–99.99% precise; the locator uses ~11–17 negative and
//! ~9–16 positive rules on Citations/Products.

use bench::{
    dataset, make_platform, make_task, mean, parse_args, render_table, sampled_candidates,
};
use corleone::ruleeval::{
    evaluate_rules_jointly, label_pool, labeled_as, select_top_rules, RuleEvalConfig,
};
use corleone::{run_active_learning, CandidateSet, CorleoneConfig, Threads};
use crowd::TruthOracle;
use exec::lines::Lines;
use forest::{negative_rules, positive_rules, Rule};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

/// True precision of a rule over the candidate subset it covers.
fn true_precision(
    rule: &Rule,
    coverage: &[usize],
    cand: &CandidateSet,
    gold: &dyn TruthOracle,
) -> f64 {
    if coverage.is_empty() {
        return 1.0;
    }
    let ok = coverage
        .iter()
        .filter(|&&i| gold.true_label(cand.pair(i)) == rule.label)
        .count();
    ok as f64 / coverage.len() as f64
}

fn main() -> ExitCode {
    let opts = parse_args();
    let mut out = Lines::stdout();
    out.print(&format!(
        "Rule evaluation quality (§9.3): true precision of kept rules\n(scale {}, {}% crowd error)\n",
        opts.scale,
        opts.error_rate * 100.0
    ));
    let cfg = CorleoneConfig::default();
    let mut rows = Vec::new();
    for name in &opts.datasets {
        let ds = dataset(name, &opts, 0);
        let (task, gold) = make_task(&ds);
        let mut platform = make_platform(&ds, opts.error_rate, opts.seed);
        let mut rng = StdRng::seed_from_u64(opts.seed);

        // Bounded random slice of A×B (same trick as the other §9.3 bins).
        let cand = sampled_candidates(&task, 30_000, &mut rng);
        let seeds = task.seed_vectors();
        let learn =
            run_active_learning(
                &cand,
                &seeds,
                &mut platform,
                &gold,
                &cfg.matcher,
                &mut rng,
                Threads::auto(),
            );
        let known = label_pool(cand.len(), learn.crowd_labels());
        let known_pos = labeled_as(&known, true);
        let known_neg = labeled_as(&known, false);

        let mut audit = |rules: Vec<Rule>, opposite: &[usize]| -> (usize, Vec<f64>) {
            let scored = select_top_rules(
                rules,
                &cand,
                None,
                opposite,
                cfg.blocker.k_rules,
                Threads::auto(),
            );
            let mut pool = known.clone();
            let kept: Vec<_> = evaluate_rules_jointly(
                scored,
                &cand,
                &mut platform,
                &gold,
                &RuleEvalConfig::default(),
                &mut rng,
                &mut pool,
            )
            .into_iter()
            .filter(|e| e.kept)
            .collect();
            let precisions: Vec<f64> = kept
                .iter()
                .map(|e| true_precision(&e.rule, &e.coverage, &cand, &gold))
                .collect();
            (kept.len(), precisions)
        };

        let (n_neg, p_neg) = audit(negative_rules(&learn.forest), &known_pos);
        let (n_pos, p_pos) = audit(positive_rules(&learn.forest), &known_neg);

        let fmt = |ps: &[f64]| {
            if ps.is_empty() {
                "-".to_string()
            } else {
                let lo = ps.iter().cloned().fold(f64::INFINITY, f64::min);
                format!("{:.2}% (min {:.2}%)", mean(ps) * 100.0, lo * 100.0)
            }
        };
        rows.push(vec![
            name.clone(),
            n_neg.to_string(),
            fmt(&p_neg),
            n_pos.to_string(),
            fmt(&p_pos),
        ]);
    }
    out.print(&render_table(
        &["Dataset", "#Neg kept", "Neg precision", "#Pos kept", "Pos precision"],
        &rows
    ));
    out.print("\nPaper: blocking rules 99.9-99.99% precise; later-step rules 97.5-99.99%;");
    out.print("citations avg 11.33 negative + 16.33 positive rules, products 17.33 + 9.33.");
    out.finish()
}
