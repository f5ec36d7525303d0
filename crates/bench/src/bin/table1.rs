//! Reproduces **Table 1**: dataset statistics (|A|, |B|, # of matches),
//! plus the positive-density skew the estimator discussion (§6.1) relies
//! on.

use bench::{dataset, parse_args, render_table};
use exec::lines::Lines;
use std::process::ExitCode;

fn main() -> ExitCode {
    let opts = parse_args();
    let mut out = Lines::stdout();
    out.print(&format!(
        "Table 1: data sets (scale = {}; paper sizes at --scale 1.0)\n",
        opts.scale
    ));
    let rows: Vec<Vec<String>> = opts
        .datasets
        .iter()
        .map(|name| {
            let ds = dataset(name, &opts, 0);
            let st = ds.stats();
            vec![
                name.clone(),
                st.n_a.to_string(),
                st.n_b.to_string(),
                st.n_matches.to_string(),
                format!("{:.1}M", st.cartesian as f64 / 1e6),
                format!("{:.4}%", st.positive_density * 100.0),
            ]
        })
        .collect();
    out.print(&render_table(
        &["Dataset", "Table A", "Table B", "# Matches", "A x B", "Density"],
        &rows
    ));
    out.print("Paper values (scale 1.0): Restaurants 533/331/112, Citations 2616/64263/5347, Products 2554/22074/1154.");
    out.finish()
}
