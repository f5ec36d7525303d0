//! Demonstrates the §10 extension: using the crowd to *clean a learning
//! model* — find and disable bad rules in a random forest that was
//! trained on noisy labels.
//!
//! A matcher is trained with a deliberately careless protocol (labels
//! from single noisy workers, no voting) so some of its leaves encode
//! systematic mistakes; the cleaner then audits the most suspicious rules
//! with a proper crowd and condemns the bad ones.

use bench::{dataset, gold_prf, make_platform, make_task, mean, parse_args, pct, render_table};
use corleone::{clean_forest, CandidateSet, CleanerConfig};
use crowd::TruthOracle;
use exec::lines::Lines;
use forest::{Dataset, ForestConfig, RandomForest};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = parse_args();
    let mut out = Lines::stdout();
    out.print(&format!(
        "Model cleaning (§10 extension): crowd audits of forest rules (scale {}, {} runs)\n",
        opts.scale, opts.runs
    ));
    let mut rows = Vec::new();
    for name in &opts.datasets {
        let mut before_v = vec![];
        let mut after_v = vec![];
        let mut condemned_v = vec![];
        let mut cost_v = vec![];
        for run in 0..opts.runs {
            let ds = dataset(name, &opts, run);
            let (task, gold) = make_task(&ds);
            let mut rng = StdRng::seed_from_u64(opts.seed + run as u64);
            let mut pairs = Vec::new();
            for a in 0..task.table_a.len() as u32 {
                for b in 0..task.table_b.len() as u32 {
                    pairs.push(crowd::PairKey::new(a, b));
                }
            }
            pairs.shuffle(&mut rng);
            pairs.truncate(8_000);
            let cand = CandidateSet::build(&task, pairs);

            // Careless training: 600 random pairs labeled by single
            // workers with 25% error and no vote aggregation — plus
            // one-sided bias against positives.
            let mut train = Dataset::new(cand.n_features());
            let mut idx: Vec<usize> = (0..cand.len()).collect();
            idx.shuffle(&mut rng);
            // Ensure some positives make it into training.
            let mut chosen: Vec<usize> = idx
                .iter()
                .copied()
                .filter(|&i| gold.true_label(cand.pair(i)))
                .take(40)
                .collect();
            chosen.extend(idx.iter().copied().take(560));
            for &i in &chosen {
                let mut label = gold.true_label(cand.pair(i));
                if rng.gen_bool(0.25) {
                    label = !label;
                }
                train.push(&cand.row(i), label);
            }
            let forest = RandomForest::train_all(&train, &ForestConfig::default(), &mut rng);

            let f1_of = |predict: &dyn Fn(&[f64]) -> bool| {
                gold_prf(&cand, 0..cand.len(), &gold, |i| predict(&cand.row(i))).f1
            };
            let before = f1_of(&|x| forest.predict(x));

            // Clean with a careful crowd (5% error, hybrid voting).
            let mut platform = make_platform(&ds, 0.05, opts.seed + run as u64);
            let (cleaned, report) = clean_forest(
                &forest,
                &cand,
                &vec![None; cand.len()],
                &mut platform,
                &gold,
                &CleanerConfig { min_coverage: 5, ..Default::default() },
                &mut rng,
            );
            let after = f1_of(&|x| cleaned.predict(x));
            before_v.push(before);
            after_v.push(after);
            condemned_v.push(report.rules_condemned as f64);
            cost_v.push(report.cost_cents);
        }
        rows.push(vec![
            name.clone(),
            pct(mean(&before_v)),
            pct(mean(&after_v)),
            format!("{:+.1}", (mean(&after_v) - mean(&before_v)) * 100.0),
            format!("{:.1}", mean(&condemned_v)),
            format!("${:.1}", mean(&cost_v) / 100.0),
        ]);
    }
    out.print(&render_table(
        &["Dataset", "F1 before", "F1 after", "ΔF1", "Rules condemned", "Cost"],
        &rows
    ));
    out.print("\nShape: cleaning condemns rules in noisy models and never hurts a clean");
    out.print("one — the crowd acts as a model debugger, not just a labeler (§10).");
    out.finish()
}
