//! Reproduces **Table 3**: blocking results — Cartesian product size,
//! umbrella-set size, blocking recall, crowd cost, and pairs labeled —
//! plus the developer-blocker comparison of §9.2.

use baselines::dev_blocker;
use bench::{dollars, make_task, mean, parse_args, pct, render_table, run_corleone};
use corleone::lines::Lines;
use corleone::metrics::blocking_recall;
use crowd::PairKey;
use std::collections::HashSet;
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = parse_args();
    let mut out = Lines::stdout();
    out.print(&format!(
        "Table 3: blocking results (scale {}, {} runs, {}% crowd error)\n",
        opts.scale,
        opts.runs,
        opts.error_rate * 100.0
    ));
    let mut rows = Vec::new();
    for name in &opts.datasets {
        let mut umbrella = vec![];
        let mut recall = vec![];
        let mut cost = vec![];
        let mut pairs = vec![];
        let mut n_rules = vec![];
        let mut cartesian = 0u64;
        let mut triggered = false;
        let mut dev_recall = vec![];
        let mut dev_size = vec![];
        for run in 0..opts.runs {
            let (report, ds) = run_corleone(name, &opts, run);
            cartesian = report.blocker.cartesian;
            triggered = report.blocker.triggered;
            umbrella.push(report.blocker.umbrella_size as f64);
            recall.push(report.blocking_recall.unwrap_or(1.0));
            cost.push(report.blocker.cost_cents);
            pairs.push(report.blocker.pairs_labeled as f64);
            n_rules.push(report.blocker.rules_applied.len() as f64);

            // Developer blocker comparison (§9.2).
            let (task, gold) = make_task(&ds);
            let kept = dev_blocker::apply(&task, dev_blocker::rule_for(name));
            let kept_set: HashSet<PairKey> = kept.iter().copied().collect();
            dev_recall.push(blocking_recall(&kept_set, gold.matches()));
            dev_size.push(kept.len() as f64);
        }
        rows.push(vec![
            name.clone(),
            format!("{:.2}M", cartesian as f64 / 1e6),
            if triggered { format!("{:.1}K", mean(&umbrella) / 1e3) } else { "no blocking".into() },
            pct(mean(&recall)),
            dollars(mean(&cost)),
            format!("{:.0}", mean(&pairs)),
            format!("{:.1}", mean(&n_rules)),
            pct(mean(&dev_recall)),
            format!("{:.1}K", mean(&dev_size) / 1e3),
        ]);
    }
    out.print(&render_table(
        &[
            "Dataset", "Cartesian", "Umbrella", "Recall", "Cost", "#Pairs", "#Rules",
            "Dev-Recall", "Dev-Size",
        ],
        &rows
    ));
    out.print("Paper: restaurants 176.4K / no blocking / 100% / $0 / 0");
    out.print("       citations  168.1M / 38.2K / 99% / $7.2 / 214  (developer: 100% recall, 202.5K pairs)");
    out.print("       products    56.4M / 173.4K / 92% / $22 / 333  (developer: 90% recall)");
    out.print("Shape: blocking triggers only on citations/products; 1-3 rules; high recall at low cost.");
    out.finish()
}
