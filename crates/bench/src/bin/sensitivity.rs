//! Reproduces the **§9.3 "Sensitivity Analysis"** experiment: vary the
//! simulated crowd's error rate (0%, 10%, 20%) and report F1 and cost.
//!
//! Paper: with a perfect crowd Corleone performs extremely well; at 10%
//! error F1 drops only 2-4% while cost rises up to $20; at 20% error F1
//! dips a further 1-10% (28% on Restaurants) and cost shoots up $250-500.

use bench::{dollars, mean, parse_args, pct, render_table, ExpOptions};
use exec::lines::Lines;
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = parse_args();
    let mut out = Lines::stdout();
    out.print(&format!(
        "Sensitivity to crowd error rate (scale {}, {} runs)\n",
        opts.scale, opts.runs
    ));
    let error_rates = [0.0, 0.10, 0.20];
    let mut rows = Vec::new();
    for name in &opts.datasets {
        let mut cells = vec![name.clone()];
        let mut baseline_f1 = 0.0;
        let mut baseline_cost = 0.0;
        for (ei, &err) in error_rates.iter().enumerate() {
            let run_opts = ExpOptions { error_rate: err, ..opts.clone() };
            let mut f1s = vec![];
            let mut costs = vec![];
            for run in 0..opts.runs {
                let (report, _) = bench::run_corleone(name, &run_opts, run);
                f1s.push(report.final_true.expect("gold").f1);
                costs.push(report.total_cost_cents);
            }
            let f1 = mean(&f1s);
            let cost = mean(&costs);
            if ei == 0 {
                baseline_f1 = f1;
                baseline_cost = cost;
                cells.push(pct(f1));
                cells.push(dollars(cost));
            } else {
                cells.push(format!("{} ({:+.1})", pct(f1), (f1 - baseline_f1) * 100.0));
                cells.push(format!(
                    "{} ({:+.0}%)",
                    dollars(cost),
                    (cost - baseline_cost) / baseline_cost.max(1.0) * 100.0
                ));
            }
        }
        rows.push(cells);
    }
    out.print(&render_table(
        &["Dataset", "F1@0%", "Cost@0%", "F1@10%", "Cost@10%", "F1@20%", "Cost@20%"],
        &rows
    ));
    out.print("\nPaper shape: small error-rate changes barely move F1; 10% error costs a");
    out.print("few percent F1 and modest extra dollars; 20% error hurts F1 noticeably");
    out.print("(worst on the smallest dataset) and drives cost up sharply.");
    out.finish()
}
