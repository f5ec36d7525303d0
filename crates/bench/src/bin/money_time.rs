//! The §10 money–time trade-off: "paying more per question often gets the
//! crowd to answer faster. How should we manage this money-time
//! trade-off?"
//!
//! Runs the full pipeline on one dataset at several pay rates and prints
//! the (cost, simulated crowd time, F1) frontier.

use bench::{dataset, make_task, mean, parse_args, pct, render_table};
use corleone::Engine;
use crowd::{CrowdConfig, CrowdPlatform, WorkerPool};
use exec::lines::Lines;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = parse_args();
    let mut out = Lines::stdout();
    let name = opts.datasets.first().cloned().unwrap_or_else(|| "restaurants".into());
    out.print(&format!(
        "Money-time trade-off (§10) on {name} (scale {}, {} runs, {:.0}% error)\n",
        opts.scale,
        opts.runs,
        opts.error_rate * 100.0
    ));
    let mut rows = Vec::new();
    for price in [0.5, 1.0, 2.0, 4.0] {
        let mut costs = vec![];
        let mut hours = vec![];
        let mut f1s = vec![];
        for run in 0..opts.runs {
            let ds = dataset(&name, &opts, run);
            let (task, gold) = make_task(&ds);
            let mut rng = StdRng::seed_from_u64(opts.seed + run as u64);
            let pool = if opts.error_rate == 0.0 {
                WorkerPool::perfect(50)
            } else {
                WorkerPool::heterogeneous(50, opts.error_rate, opts.error_rate / 2.0, &mut rng)
            };
            let mut platform = CrowdPlatform::new(
                pool,
                CrowdConfig {
                    price_cents: price,
                    seed: opts.seed + run as u64,
                    ..Default::default()
                },
            );
            let report = Engine::new(bench::experiment_config())
                .with_seed(opts.seed + 1000 * run as u64)
                .session(&task)
                .platform(&mut platform)
                .oracle(&gold)
                .gold(gold.matches())
                .run();
            costs.push(report.total_cost_cents);
            hours.push(platform.ledger().simulated_secs / 3600.0);
            f1s.push(report.final_true.expect("gold").f1);
        }
        rows.push(vec![
            format!("{price}¢"),
            format!("${:.2}", mean(&costs) / 100.0),
            format!("{:.1}h", mean(&hours)),
            pct(mean(&f1s)),
        ]);
    }
    out.print(&render_table(&["Pay/answer", "Total cost", "Crowd time", "F1"], &rows));
    out.print("\nShape: accuracy is flat across pay rates (same labels, same votes);");
    out.print("cost scales linearly with pay while crowd time falls as pay^-0.5 —");
    out.print("the knob trades money for latency, not for quality.");
    out.finish()
}
