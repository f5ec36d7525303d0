//! `corleone-serve` — drive the multi-tenant [`MatchService`] from the
//! command line.
//!
//! Submits one tenant per requested dataset and ticks the service,
//! streaming [`ServiceEvent`]s as JSON lines on stdout. A reader that
//! closes stdout early (`corleone-serve ... | head -1`) ends the printing,
//! not the run: the `--out` reports are still written and the exit code
//! stays 0. With
//! `--max-ticks N` the process stops after N quanta even if tenants are
//! still in flight — the CI smoke uses that to simulate a mid-run kill,
//! then reruns the same command (same `--root`) and asserts every tenant
//! resumed and finished with bytes identical to an uninterrupted run.
//!
//! ```text
//! corleone-serve --root /tmp/reg --out /tmp/reports \
//!     --datasets restaurants,citations,products --scale 0.2 --seed 7
//! ```

use corleone::lines::Lines;
use corleone::{BlockerConfig, CorleoneConfig};
use corleone::task::task_from_parts;
use crowd::{CrowdConfig, CrowdPlatform, FaultConfig, GoldOracle, RetryPolicy, WorkerPool};
use datagen::{EmDataset, GenConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use service::{MatchService, ServiceConfig, TenantSpec};
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Debug)]
struct Options {
    root: Option<PathBuf>,
    out: Option<PathBuf>,
    datasets: Vec<String>,
    scale: f64,
    seed: u64,
    error_rate: f64,
    threads: usize,
    max_active: usize,
    max_ticks: Option<u64>,
    quiet: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            root: None,
            out: None,
            datasets: datagen::DATASET_NAMES.iter().map(|s| s.to_string()).collect(),
            scale: 0.2,
            seed: 42,
            error_rate: 0.0,
            threads: 0,
            max_active: 4,
            max_ticks: None,
            quiet: false,
        }
    }
}

const HELP: &str = "corleone-serve: run the multi-tenant matching service

USAGE: corleone-serve [FLAGS]

  --root DIR        checkpoint root (enables durability/resume): each
                    tenant snapshots into DIR/runs/<run_id>/
  --out DIR         write each finished run's deterministic report JSON
                    to DIR/<run_id>.json
  --datasets CSV    datasets to submit, one tenant each
                    (default: restaurants,citations,products)
  --scale F         dataset scale factor (default 0.2)
  --seed N          base RNG seed (default 42)
  --error-rate F    mean simulated-worker error rate (default 0 = perfect)
  --threads N       worker threads, 0 = auto (default 0)
  --max-active N    tenants driven concurrently (default 4)
  --max-ticks N     stop after N scheduling quanta (simulates a kill);
                    exits 0 with a {\"killed\":...} marker if work remains
  --quiet           suppress per-event JSON lines
  --help            this text

Events stream to stdout as JSON lines; the final line is
{\"service_perf\": ...}.";

/// The options of `argv` (the command line without the program name),
/// or why the line is bad: an unknown flag, a flag without a value, or a
/// value that does not parse. `--help` is handled before this.
fn parse_arg_list(argv: &[String]) -> Result<Options, String> {
    fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        v.parse().map_err(|e| format!("bad {flag} {v:?}: {e}"))
    }
    let mut opts = Options::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        if flag == "--quiet" {
            opts.quiet = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag {
            "--root" => opts.root = Some(PathBuf::from(value)),
            "--out" => opts.out = Some(PathBuf::from(value)),
            "--datasets" => {
                opts.datasets = value.split(',').map(|s| s.trim().to_string()).collect()
            }
            "--scale" => opts.scale = num(flag, value)?,
            "--seed" => opts.seed = num(flag, value)?,
            "--error-rate" => opts.error_rate = num(flag, value)?,
            "--threads" => opts.threads = num(flag, value)?,
            "--max-active" => opts.max_active = num(flag, value)?,
            "--max-ticks" => opts.max_ticks = Some(num(flag, value)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(opts)
}

/// The simulated crowd for one tenant (mirrors the bench harness).
fn make_platform(ds: &EmDataset, error_rate: f64, seed: u64) -> CrowdPlatform {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
    let pool = if error_rate == 0.0 {
        WorkerPool::perfect(50)
    } else {
        WorkerPool::heterogeneous(50, error_rate, error_rate / 2.0, &mut rng)
    };
    CrowdPlatform::with_faults(
        pool,
        CrowdConfig { price_cents: ds.price_cents, seed, ..Default::default() },
        FaultConfig::default(),
        RetryPolicy::default(),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut stdout = Lines::stdout();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        stdout.print(HELP);
        return stdout.finish();
    }
    let opts = match parse_arg_list(&argv) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}; see --help");
            return ExitCode::from(2);
        }
    };

    let mut svc = match MatchService::new(ServiceConfig {
        threads: opts.threads,
        max_active: opts.max_active,
        checkpoint_root: opts.root.clone(),
        ..Default::default()
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot open service: {e}");
            return ExitCode::from(2);
        }
    };

    for (k, name) in opts.datasets.iter().enumerate() {
        let Some(ds) = datagen::by_name(name, GenConfig { scale: opts.scale, seed: opts.seed })
        else {
            eprintln!("unknown dataset {name} (have: {})", datagen::DATASET_NAMES.join(", "));
            return ExitCode::from(2);
        };
        let task = task_from_parts(
            ds.table_a.clone(),
            ds.table_b.clone(),
            &ds.instruction,
            ds.seeds.positive,
            ds.seeds.negative,
        );
        let gold = GoldOracle::from_pairs(ds.gold.iter().copied()); // lint:allow(D2): order-free set-to-set projection; the oracle stores membership only and never iterates in hash order
        let platform = make_platform(&ds, opts.error_rate, opts.seed + k as u64);
        let matches = gold.matches().clone();
        let spec = TenantSpec {
            run_id: name.clone(),
            task,
            platform,
            oracle: Box::new(gold),
            gold: Some(matches),
            config: CorleoneConfig {
                blocker: BlockerConfig { t_b: 100_000, ..Default::default() },
                ..Default::default()
            },
            seed: opts.seed + 1000 * k as u64,
        };
        if let Err(e) = svc.submit(spec) {
            eprintln!("cannot submit {name}: {e}");
            return ExitCode::from(2);
        }
    }

    let interrupted = match opts.max_ticks {
        Some(n) => !svc.run_ticks(n),
        None => {
            svc.run_all();
            false
        }
    };

    for ev in svc.poll_events() {
        if !opts.quiet {
            stdout.print(&serde_json::to_string(&ev).expect("event serializes"));
        }
    }

    let finished: Vec<String> = svc.finished().iter().map(|s| s.to_string()).collect();
    if let Some(dir) = &opts.out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create --out dir: {e}");
            return ExitCode::from(2);
        }
        for id in &finished {
            let report = svc.take_report(id).expect("finished report exists");
            let path = dir.join(format!("{id}.json"));
            if let Err(e) = std::fs::write(&path, report.deterministic_json()) {
                eprintln!("cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }

    let perf = serde_json::to_string(svc.service_perf()).expect("perf serializes");
    stdout.print(&format!("{{\"service_perf\":{perf}}}"));
    if interrupted {
        let done = serde_json::to_string(&finished).expect("list serializes");
        let ticks = opts.max_ticks.unwrap_or(0);
        stdout.print(&format!("{{\"killed\":{{\"ticks\":{ticks},\"finished\":{done}}}}}"));
    }
    stdout.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_list_errors_are_values_not_panics() {
        let line = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        for (flag, bad) in [
            ("--threads", "x"),
            ("--scale", "abc"),
            ("--seed", "-1"),
            ("--error-rate", "p"),
            ("--max-active", "1.5"),
            ("--max-ticks", "many"),
        ] {
            let err = parse_arg_list(&line(&format!("{flag} {bad}"))).unwrap_err();
            assert!(err.starts_with(&format!("bad {flag} \"{bad}\"")), "{err}");
        }
        assert!(parse_arg_list(&line("--nosuch 1")).unwrap_err().contains("unknown flag"));
        assert!(parse_arg_list(&line("--root")).unwrap_err().contains("needs a value"));

        let opts = parse_arg_list(&line(
            "--quiet --datasets restaurants,products --scale 0.08 --seed 7 --threads 2 \
             --max-ticks 4 --root r",
        ))
        .unwrap();
        assert!(opts.quiet);
        assert_eq!(opts.datasets, ["restaurants", "products"]);
        assert_eq!((opts.scale, opts.seed, opts.threads), (0.08, 7, 2));
        assert_eq!((opts.max_ticks, opts.root), (Some(4), Some(PathBuf::from("r"))));
        assert_eq!(parse_arg_list(&[]).unwrap().datasets.len(), datagen::DATASET_NAMES.len());
    }
}
