//! `gen_dataset` — write a synthetic EM dataset as CSV files for use with
//! `corleone-cli` or external tools.
//!
//! ```text
//! gen_dataset <restaurants|citations|products> [--scale 0.1] [--seed 42] [--out DIR]
//! ```
//!
//! Produces `DIR/a.csv`, `DIR/b.csv`, `DIR/gold.csv` and prints the seed
//! example pairs to pass as `--pos` / `--neg`, through
//! [`exec::lines::Lines`]: a reader that closes the pipe early ends the
//! printing, not the run.

use datagen::{by_name, export, GenConfig};
use exec::lines::Lines;
use std::path::PathBuf;
use std::process::{exit, ExitCode};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(name) = args.first() else {
        eprintln!("usage: gen_dataset <restaurants|citations|products> [--scale f] [--seed n] [--out dir]");
        exit(2);
    };
    let mut scale = 0.1;
    let mut seed = 42u64;
    let mut out = PathBuf::from(format!("./{name}_csv"));
    for flag in args[1..].chunks(2) {
        let Some(value) = flag.get(1) else {
            eprintln!("missing value for {}", flag[0]);
            exit(2);
        };
        let bad = || -> ! {
            eprintln!("bad value for {}: {value:?}", flag[0]);
            exit(2);
        };
        match flag[0].as_str() {
            "--scale" => scale = value.parse().unwrap_or_else(|_| bad()),
            "--seed" => seed = value.parse().unwrap_or_else(|_| bad()),
            "--out" => out = PathBuf::from(value),
            other => {
                eprintln!("unknown flag {other}");
                exit(2);
            }
        }
    }
    let Some(ds) = by_name(name, GenConfig { scale, seed }) else {
        eprintln!("unknown dataset '{name}'");
        exit(2);
    };
    export::write_csv_files(&ds, &out).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", out.display());
        exit(1);
    });
    let st = ds.stats();
    let mut lines = Lines::stdout();
    lines.print(&format!(
        "wrote {}/{{a,b,gold}}.csv  (|A|={}, |B|={}, matches={})",
        out.display(),
        st.n_a,
        st.n_b,
        st.n_matches
    ));
    let p = ds.seeds.positive;
    let n = ds.seeds.negative;
    lines.print("seed flags for corleone-cli:");
    lines.print(&format!("  --pos {}:{},{}:{}", p[0].0, p[0].1, p[1].0, p[1].1));
    lines.print(&format!("  --neg {}:{},{}:{}", n[0].0, n[0].1, n[1].0, n[1].1));
    lines.print(&format!("  --instruction \"{}\"", ds.instruction));
    lines.finish()
}
