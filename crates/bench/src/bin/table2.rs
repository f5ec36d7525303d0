//! Reproduces **Table 2**: overall performance of Corleone vs. Baseline 1
//! (developer blocking + random training of the same size as Corleone's
//! label budget) vs. Baseline 2 (20% of the candidate set as training),
//! per dataset: P, R, F1, crowd cost, and pairs labeled — averaged over
//! `--runs` independent runs like the paper's three weekly runs.

use baselines::{baseline1, baseline2};
use bench::{dollars, make_task, mean, parse_args, pct, render_table, run_corleone};
use exec::lines::Lines;
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = parse_args();
    let mut out = Lines::stdout();
    out.print(&format!(
        "Table 2: Corleone vs traditional solutions (scale {}, {} runs, {}% crowd error)\n",
        opts.scale,
        opts.runs,
        opts.error_rate * 100.0
    ));
    let mut rows: Vec<Vec<String>> = Vec::new();
    for name in &opts.datasets {
        let mut c_p = vec![];
        let mut c_r = vec![];
        let mut c_f1 = vec![];
        let mut c_cost = vec![];
        let mut c_pairs = vec![];
        let mut b1_p = vec![];
        let mut b1_r = vec![];
        let mut b1_f1 = vec![];
        let mut b2_p = vec![];
        let mut b2_r = vec![];
        let mut b2_f1 = vec![];
        for run in 0..opts.runs {
            let (report, ds) = run_corleone(name, &opts, run);
            let t = report.final_true.expect("gold supplied");
            c_p.push(t.precision);
            c_r.push(t.recall);
            c_f1.push(t.f1);
            c_cost.push(report.total_cost_cents);
            c_pairs.push(report.total_pairs_labeled as f64);

            // Baselines use the same dataset instance and gold labels.
            let (task, gold) = make_task(&ds);
            let n_train = report.total_pairs_labeled as usize;
            let b1 = baseline1::run(&task, name, &gold, n_train, opts.seed + run as u64);
            b1_p.push(b1.prf.precision);
            b1_r.push(b1.prf.recall);
            b1_f1.push(b1.prf.f1);
            let b2 = baseline2::run(&task, name, &gold, opts.seed + run as u64);
            b2_p.push(b2.prf.precision);
            b2_r.push(b2.prf.recall);
            b2_f1.push(b2.prf.f1);
        }
        rows.push(vec![
            name.clone(),
            pct(mean(&c_p)),
            pct(mean(&c_r)),
            pct(mean(&c_f1)),
            dollars(mean(&c_cost)),
            format!("{:.0}", mean(&c_pairs)),
            pct(mean(&b1_p)),
            pct(mean(&b1_r)),
            pct(mean(&b1_f1)),
            pct(mean(&b2_p)),
            pct(mean(&b2_r)),
            pct(mean(&b2_f1)),
        ]);
    }
    out.print(&render_table(
        &[
            "Dataset", "P", "R", "F1", "Cost", "#Pairs", "B1-P", "B1-R", "B1-F1", "B2-P",
            "B2-R", "B2-F1",
        ],
        &rows
    ));
    out.print("Paper (real data, real crowd):");
    out.print("  restaurants  Corleone 97.0/96.1/96.5 $9.2 274   | B1 10.0/6.1/7.6    | B2 99.2/93.8/96.4");
    out.print("  citations    Corleone 89.9/94.3/92.1 $69.5 2082 | B1 90.4/84.3/87.1  | B2 93.0/91.1/92.0");
    out.print("  products     Corleone 91.5/87.4/89.3 $256.8 3205| B1 92.9/26.6/40.5  | B2 95.0/54.8/69.5");
    out.print("Shape to check: Corleone >> B1 everywhere; Corleone ~ B2 on easy sets; Corleone > B2 on products.");
    out.finish()
}
