//! Reproduces **Table 4**: Corleone's performance per iteration —
//! matcher (#pairs, true P/R/F1), estimation (#pairs, estimated P/R/F1),
//! and reduction (#pairs, difficult-set size) for each iteration.

use bench::{parse_args, pct, render_table, run_corleone};
use corleone::lines::Lines;
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = parse_args();
    let mut out = Lines::stdout();
    out.print(&format!(
        "Table 4: per-iteration performance (scale {}, run 0 shown, {}% crowd error)\n",
        opts.scale,
        opts.error_rate * 100.0
    ));
    for name in &opts.datasets {
        let (report, _) = run_corleone(name, &opts, 0);
        out.print(&format!("== {name} =="));
        let mut rows = Vec::new();
        for it in &report.iterations {
            let t = it.true_prf.expect("gold supplied");
            rows.push(vec![
                format!("Iteration {}", it.iteration),
                it.matcher_pairs_labeled.to_string(),
                pct(t.precision),
                pct(t.recall),
                pct(t.f1),
                String::new(),
            ]);
            rows.push(vec![
                format!("Estimation {}", it.iteration),
                it.estimate.pairs_labeled.to_string(),
                pct(it.estimate.precision),
                pct(it.estimate.recall),
                pct(it.estimate.f1),
                format!("(rules {})", it.estimate.rules_used),
            ]);
            if let Some(loc) = &it.locator {
                rows.push(vec![
                    format!("Reduction {}", it.iteration),
                    loc.pairs_labeled.to_string(),
                    String::new(),
                    String::new(),
                    String::new(),
                    format!(
                        "difficult {} of {}{}",
                        loc.difficult_size,
                        loc.input_size,
                        loc.termination
                            .as_ref()
                            .map(|t| format!(" [stop: {t}]"))
                            .unwrap_or_default()
                    ),
                ]);
            }
        }
        out.print(&render_table(&["Phase", "#Pairs", "P", "R", "F1", "Notes"], &rows));
    }
    out.print("Paper: restaurants stops after 1 iteration (difficult set 157 < 200);");
    out.print("       citations/products take 2 iterations, estimated F1 within 0.5-5.4% of true F1.");
    out.finish()
}
