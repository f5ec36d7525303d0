//! Ablation of the paper's model choice (§4.1): random forest vs.
//! logistic regression on the *same* crowd-labeled training data.
//!
//! The paper uses forests "because blocking rules can be naturally
//! extracted from them". This experiment quantifies the other side of the
//! ledger: raw matching accuracy. Both models train on exactly the
//! labeled set the forest's active-learning run gathered; the table also
//! counts the machine-readable rules each model offers the Blocker /
//! Estimator / Locator (a linear model offers none — the capability the
//! whole hands-off pipeline is built on).

use bench::{
    dataset, gold_prf, make_platform, make_task, mean, parse_args, pct, render_table,
    sampled_candidates,
};
use corleone::{run_active_learning, CorleoneConfig, Threads};
use exec::lines::Lines;
use forest::{extract_rules, Dataset, LogRegConfig, LogisticRegression};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = parse_args();
    let mut out = Lines::stdout();
    out.print(&format!(
        "Model ablation: random forest vs logistic regression (scale {}, {} runs, {:.0}% error)\n",
        opts.scale,
        opts.runs,
        opts.error_rate * 100.0
    ));
    let mut rows = Vec::new();
    for name in &opts.datasets {
        let mut rf_f1 = vec![];
        let mut lr_f1 = vec![];
        let mut n_rules = vec![];
        for run in 0..opts.runs {
            let ds = dataset(name, &opts, run);
            let (task, gold) = make_task(&ds);
            let mut platform = make_platform(&ds, opts.error_rate, opts.seed + run as u64);
            let mut rng = StdRng::seed_from_u64(opts.seed + run as u64);
            let cand = sampled_candidates(&task, 15_000, &mut rng);
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
            n_rules.push(extract_rules(&learn.forest).len() as f64);

            // Logistic regression on exactly the same labeled data.
            let mut train = Dataset::new(cand.n_features());
            for (x, l) in &seeds {
                train.push(x, *l);
            }
            for (idx, label) in learn.crowd_labels() {
                train.push(&cand.row(idx), label);
            }
            let lr = LogisticRegression::train(&train, &LogRegConfig::default());

            let f1_of = |predict: &dyn Fn(&[f64]) -> bool| {
                gold_prf(&cand, 0..cand.len(), &gold, |i| predict(&cand.row(i))).f1
            };
            rf_f1.push(f1_of(&|x| learn.forest.predict(x)));
            lr_f1.push(f1_of(&|x| lr.predict(x)));
        }
        rows.push(vec![
            name.clone(),
            pct(mean(&rf_f1)),
            pct(mean(&lr_f1)),
            format!("{:.0}", mean(&n_rules)),
            "0".to_string(),
        ]);
    }
    out.print(&render_table(
        &["Dataset", "Forest F1", "LogReg F1", "Forest rules", "LogReg rules"],
        &rows
    ));
    out.print("\nThe forest must be competitive on accuracy while being the only model");
    out.print("that yields the machine-readable rules the Blocker (§4), Estimator (§6),");
    out.print("and Locator (§7) are built on — the paper's §4.1 design argument.");
    out.finish()
}
