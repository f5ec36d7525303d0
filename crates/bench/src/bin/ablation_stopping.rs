//! Ablation of the §5.3 stopping-rule design choice: compare the
//! confidence-pattern stopper against fixed-iteration training (too few /
//! far too many iterations).
//!
//! The paper's claim: stopping at the confidence plateau gets peak
//! accuracy; training longer wastes money and — under a noisy crowd —
//! can *decrease* accuracy.

use bench::{
    dataset, dollars, gold_prf, make_platform, make_task, mean, parse_args, pct, render_table,
    sampled_candidates,
};
use corleone::{run_active_learning, CorleoneConfig, StoppingConfig, Threads};
use exec::lines::Lines;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut out = Lines::stdout();
    let mut opts = parse_args();
    if opts.error_rate < 0.12 {
        opts.error_rate = 0.15; // over-training hurts most under noise
    }
    let name = opts.datasets.first().cloned().unwrap_or_else(|| "products".into());
    out.print(&format!(
        "Stopping-rule ablation on {name} (scale {}, {} runs, {:.0}% crowd error)\n",
        opts.scale,
        opts.runs,
        opts.error_rate * 100.0
    ));

    // never_stop pushes min_iterations past max_iterations so only the
    // hard cap ends the loop.
    type Tweak = Box<dyn Fn(&mut corleone::MatcherConfig)>;
    let variants: Vec<(&str, Tweak)> = vec![
        ("paper stopping rules", Box::new(|_m| {})),
        (
            "fixed 5 iterations",
            Box::new(|m| {
                m.max_iterations = 5;
                m.stopping.min_iterations = 99;
            }),
        ),
        (
            "fixed 80 iterations",
            Box::new(|m| {
                m.max_iterations = 80;
                m.stopping = StoppingConfig { min_iterations: 99, ..m.stopping };
                m.stopping.n_converged = 999;
                m.stopping.n_high = 999;
                m.stopping.n_degrade = 999;
            }),
        ),
    ];

    let mut rows = Vec::new();
    for (label, tweak) in &variants {
        let mut f1s = vec![];
        let mut costs = vec![];
        let mut iters = vec![];
        for run in 0..opts.runs {
            let ds = dataset(&name, &opts, run);
            let (task, gold) = make_task(&ds);
            let mut platform = make_platform(&ds, opts.error_rate, opts.seed + run as u64);
            let mut rng = StdRng::seed_from_u64(opts.seed + run as u64);
            let cand = sampled_candidates(&task, 15_000, &mut rng);
            let seeds = task.seed_vectors();
            let mut mcfg = CorleoneConfig::default().matcher;
            tweak(&mut mcfg);
            let cents_before = platform.ledger().total_cents;
            let learn = run_active_learning(
                &cand,
                &seeds,
                &mut platform,
                &gold,
                &mcfg,
                &mut rng,
                Threads::auto(),
            );
            costs.push(platform.ledger().total_cents - cents_before);
            iters.push(learn.iterations as f64);

            let prf = gold_prf(&cand, 0..cand.len(), &gold, |i| learn.forest.predict(&cand.row(i)));
            f1s.push(prf.f1);
        }
        rows.push(vec![
            label.to_string(),
            format!("{:.1}", mean(&iters)),
            pct(mean(&f1s)),
            dollars(mean(&costs)),
        ]);
    }
    out.print(&render_table(&["Variant", "AL iters", "F1", "Training cost"], &rows));
    out.print("\nExpected shape (§5.3): the pattern stopper lands near the 80-iteration");
    out.print("F1 at a fraction of the cost; 5 iterations undertrains; under heavy");
    out.print("noise the long run can even fall below the stopper (degrading pattern).");
    out.finish()
}
