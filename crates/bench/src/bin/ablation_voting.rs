//! Ablation of the §8.2 voting-scheme design choice: run the Accuracy
//! Estimator under a noisy crowd with each answer-combination scheme and
//! compare estimate error and cost.
//!
//! The paper's claim: `2+1` is too weak for estimation (false positives
//! corrupt the recall denominator), full strong-majority is accurate but
//! needlessly expensive, and the asymmetric hybrid gets strong-majority
//! accuracy at close to `2+1` cost.

use bench::{
    dataset, dollars, gold_prf, make_platform, make_task, mean, parse_args, pct, render_table,
    sampled_candidates,
};
use corleone::{estimate_accuracy, run_active_learning, CorleoneConfig, RunEnv, Threads};
use crowd::Scheme;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

fn main() {
    let mut opts = parse_args();
    if opts.error_rate < 0.12 {
        opts.error_rate = 0.15; // the ablation needs a visibly noisy crowd
    }
    let name = opts.datasets.first().cloned().unwrap_or_else(|| "citations".into());
    println!(
        "Voting-scheme ablation in the estimator on {name} (scale {}, {} runs, {:.0}% crowd error)\n",
        opts.scale,
        opts.runs,
        opts.error_rate * 100.0
    );

    let schemes = [
        ("2+1", Scheme::TwoPlusOne),
        ("strong", Scheme::StrongMajority),
        ("hybrid", Scheme::Hybrid),
    ];
    let mut rows = Vec::new();
    for (label, scheme) in schemes {
        let mut errs = vec![];
        let mut costs = vec![];
        for run in 0..opts.runs {
            let ds = dataset(&name, &opts, run);
            let (task, gold) = make_task(&ds);
            let mut platform = make_platform(&ds, opts.error_rate, opts.seed + run as u64);
            let mut rng = StdRng::seed_from_u64(opts.seed + run as u64);

            // Bounded slice of A×B; train one matcher per run (shared
            // across schemes via identical seeds).
            let cand = sampled_candidates(&task, 20_000, &mut rng);
            let seeds = task.seed_vectors();
            let cfg = CorleoneConfig::default();
            let learn = run_active_learning(
                &cand,
                &seeds,
                &mut platform,
                &gold,
                &cfg.matcher,
                &mut rng,
                Threads::auto(),
            );
            let predictions = cand.predictions(&learn.forest, Threads::auto());
            let known: HashMap<usize, bool> = learn.crowd_labels().collect();

            let mut est_cfg = cfg.estimator;
            est_cfg.scheme = scheme;
            let cents_before = platform.ledger().total_cents;
            let est = estimate_accuracy(
                &cand,
                &predictions,
                &learn.forest,
                &known,
                &mut platform,
                &gold,
                &est_cfg,
                &mut rng,
                &RunEnv::default(),
            );
            // Ground truth over the same population.
            let true_f1 = gold_prf(&cand, 0..predictions.len(), &gold, |i| predictions[i]).f1;
            errs.push((est.f1 - true_f1).abs());
            costs.push(platform.ledger().total_cents - cents_before);
        }
        rows.push(vec![
            label.to_string(),
            pct(mean(&errs)),
            dollars(mean(&costs)),
        ]);
    }
    println!(
        "{}",
        render_table(&["Scheme", "|est F1 - true F1|", "Estimation cost"], &rows)
    );
    println!("\nExpected shape (§8.2): hybrid ≈ strong-majority estimate quality at a");
    println!("cost much closer to 2+1; plain 2+1 drifts under noise.");
}
