//! Quick end-to-end smoke run: one Corleone run per dataset at the given
//! scale, printing headline numbers. Not a paper table — a sanity tool.
//!
//! With `--fault-expiry`/`--fault-abandon`/`--fault-outage` the simulated
//! marketplace injects failures; the run then reports its `termination`
//! label and fault counters, or a typed error if it could not complete —
//! never a panic. CI uses this as the fault-injection smoke test.
//!
//! With `--checkpoint-dir` the run writes crash-safe snapshots and the
//! summary line reports how many; with `--resume-from` it continues a
//! previous run and reports the iteration it resumed from. `--emit-json`
//! writes each run's `deterministic_json` next to the summary so CI can
//! diff a resumed run against an uninterrupted reference.

use bench::{dollars, parse_args, pct, try_run_corleone};
use corleone::lines::Lines;
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = parse_args();
    let mut out = Lines::stdout();
    let mut failed = false;
    for name in &opts.datasets {
        let t0 = std::time::Instant::now();
        let (result, ds) = try_run_corleone(name, &opts, 0);
        let stats = ds.stats();
        let report = match result {
            Ok(r) => r,
            Err(e) => {
                // A typed failure is a legitimate outcome under faults;
                // report it and move on.
                out.print(&format!(
                    "{name}: |A|={} |B|={} gold={} | run failed: {e} | {:.1}s",
                    stats.n_a,
                    stats.n_b,
                    stats.n_matches,
                    t0.elapsed().as_secs_f64(),
                ));
                failed = true;
                continue;
            }
        };
        let truth = report
            .final_true
            .map(|t| format!("{}/{}/{}", pct(t.precision), pct(t.recall), pct(t.f1)))
            .unwrap_or_else(|| "-".into());
        let est = report
            .final_estimate
            .as_ref()
            .map(|e| format!("{} (±p {:.3} ±r {:.3})", pct(e.f1), e.eps_p, e.eps_r))
            .unwrap_or_else(|| "-".into());
        let fs = &report.perf.faults;
        let fault_note = if fs.any() {
            format!(
                " | faults: {} expired {} abandoned {} outages, {} reposts {} failed",
                fs.hits_expired, fs.assignments_abandoned, fs.outages, fs.reposts, fs.hits_failed,
            )
        } else {
            String::new()
        };
        let ckpt_note = match (report.perf.snapshots_written, report.perf.resumed_from_iteration) {
            (0, None) => String::new(),
            (n, None) => format!(" | snapshots={n}"),
            (n, Some(it)) => format!(" | snapshots={n} resumed-from-iter={it}"),
        };
        if let Some(dir) = &opts.emit_json {
            if let Err(e) = std::fs::create_dir_all(dir)
                .and_then(|_| std::fs::write(format!("{dir}/{name}.json"), report.deterministic_json()))
            {
                eprintln!("cannot write {dir}/{name}.json: {e}");
                return ExitCode::FAILURE;
            }
        }
        out.print(&format!(
            "{name}: |A|={} |B|={} gold={} | blocked={} umbrella={} recall={} | \
             iters={} | true P/R/F1 = {truth} | est F1 = {est} | \
             cost {} labels {} | termination={:?}{fault_note}{ckpt_note} | {:.1}s",
            stats.n_a,
            stats.n_b,
            stats.n_matches,
            report.blocker.triggered,
            report.blocker.umbrella_size,
            report
                .blocking_recall
                .map(pct)
                .unwrap_or_else(|| "-".into()),
            report.iterations.len(),
            dollars(report.total_cost_cents),
            report.total_pairs_labeled,
            report.termination,
            t0.elapsed().as_secs_f64(),
        ));
    }
    // A typed failure is tolerated when faults were requested — that is
    // the scenario being smoked — but a clean run must always succeed.
    if failed && !opts.fault_config().enabled() {
        return ExitCode::FAILURE;
    }
    out.finish()
}
