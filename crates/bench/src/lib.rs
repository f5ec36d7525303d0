#![forbid(unsafe_code)]
//! # bench — the experiment harness that regenerates the paper's tables
//! and figures
//!
//! Each binary under `src/bin/` reproduces one table or figure of the
//! paper's evaluation (§9); this library holds the shared glue: dataset →
//! task conversion, simulated-crowd construction, multi-run averaging, and
//! plain-text table rendering.
//!
//! All binaries accept the same flags:
//!
//! ```text
//! --scale <f>         dataset scale factor (default 0.1; 1.0 = paper sizes)
//! --runs <n>          independent runs to average (default 3, like the paper)
//! --error <f>         mean worker error rate (default 0.05)
//! --seed <n>          base RNG seed (default 42)
//! --datasets a,b      comma-separated subset of restaurants,citations,products
//! --fault-expiry <f>  per-HIT expiry probability (default 0: no faults)
//! --fault-abandon <f> per-assignment abandonment probability (default 0)
//! --fault-outage <f>  per-posting transient-outage probability (default 0)
//! --checkpoint-dir <d>   write crash-safe run snapshots into this directory
//! --checkpoint-every <n> snapshot every n engine iterations (default 1)
//! --checkpoint-keep <n>  retain the last n snapshots, 0 = all (default 3)
//! --resume-from <path>   resume from a snapshot instead of starting fresh
//! --emit-json <d>        write each run's deterministic_json to <d>/<dataset>.json
//! ```

use corleone::error::CorleoneError;
use corleone::metrics::Prf;
use corleone::task::task_from_parts;
use corleone::{BlockerConfig, CandidateSet, CorleoneConfig, Engine, MatchTask, RunReport};
use crowd::{
    CrowdConfig, CrowdPlatform, FaultConfig, GoldOracle, PairKey, RetryPolicy, TruthOracle,
    WorkerPool,
};
use datagen::{EmDataset, GenConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Parsed common command-line options.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Dataset scale factor (1.0 = the paper's table sizes).
    pub scale: f64,
    /// Independent runs to average.
    pub runs: usize,
    /// Mean worker error rate for the simulated crowd.
    pub error_rate: f64,
    /// Base seed.
    pub seed: u64,
    /// Datasets to run.
    pub datasets: Vec<String>,
    /// Per-HIT expiry probability (0 disables fault injection).
    pub fault_expiry: f64,
    /// Per-assignment abandonment probability.
    pub fault_abandon: f64,
    /// Per-posting transient-outage probability.
    pub fault_outage: f64,
    /// Directory to write run snapshots into (`None` disables
    /// checkpointing).
    pub checkpoint_dir: Option<String>,
    /// Snapshot every this many engine iterations.
    pub checkpoint_every: usize,
    /// Retain only the last N snapshots (0 = keep all).
    pub checkpoint_keep: usize,
    /// Snapshot file to resume the (single) run from.
    pub resume_from: Option<String>,
    /// Directory to write each run's `deterministic_json` into
    /// (`<dir>/<dataset>.json`), for byte-level comparisons in CI.
    pub emit_json: Option<String>,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            scale: 0.1,
            runs: 3,
            error_rate: 0.05,
            seed: 42,
            datasets: datagen::DATASET_NAMES.iter().map(|s| s.to_string()).collect(),
            fault_expiry: 0.0,
            fault_abandon: 0.0,
            fault_outage: 0.0,
            checkpoint_dir: None,
            checkpoint_every: 1,
            checkpoint_keep: store::DEFAULT_KEEP_LAST,
            resume_from: None,
            emit_json: None,
        }
    }
}

impl ExpOptions {
    /// The fault configuration the flags describe (all-zero when no
    /// `--fault-*` flag was given, which disables injection entirely).
    pub fn fault_config(&self) -> FaultConfig {
        FaultConfig {
            hit_expiry_prob: self.fault_expiry,
            abandonment_prob: self.fault_abandon,
            outage_prob: self.fault_outage,
            seed: self.seed,
            ..Default::default()
        }
    }
}

/// Parse the common flags from `std::env::args`. `--help` prints the
/// flags and exits 0; a bad line (unknown flag or dataset, missing or
/// malformed value) prints why and exits 2.
pub fn parse_args() -> ExpOptions {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "flags: --scale <f> --runs <n> --error <f> --seed <n> --datasets a,b,c \
             --fault-expiry <f> --fault-abandon <f> --fault-outage <f> \
             --checkpoint-dir <d> --checkpoint-every <n> --checkpoint-keep <n> \
             --resume-from <path> --emit-json <d>"
        );
        std::process::exit(0);
    }
    parse_arg_list(&args).unwrap_or_else(|e| {
        eprintln!("{e}; see --help");
        std::process::exit(2);
    })
}

/// The value `v` given to `flag`, parsed, or why it does not parse.
pub fn flag_value<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e| format!("bad {flag} {v:?}: {e}"))
}

/// The comma-separated dataset names `v`, or the first one outside
/// [`datagen::DATASET_NAMES`].
pub fn dataset_list(v: &str) -> Result<Vec<String>, String> {
    let names: Vec<String> = v.split(',').map(String::from).collect();
    match names.iter().find(|d| !datagen::DATASET_NAMES.contains(&d.as_str())) {
        Some(bad) => {
            Err(format!("unknown dataset {bad} (have: {})", datagen::DATASET_NAMES.join(", ")))
        }
        None => Ok(names),
    }
}

/// The common flags of `args` (the command line without the program
/// name), or why the line is bad: an unknown flag, a flag without a
/// value, a value that does not parse, or a dataset outside
/// [`datagen::DATASET_NAMES`].
pub fn parse_arg_list(args: &[String]) -> Result<ExpOptions, String> {
    let mut opts = ExpOptions::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        if !flag.starts_with("--") {
            return Err(format!("unknown flag {flag}"));
        }
        let v = it.next().ok_or_else(|| format!("missing value for {flag}"))?;
        match flag {
            "--scale" => opts.scale = flag_value(flag, v)?,
            "--runs" => opts.runs = flag_value(flag, v)?,
            "--error" => opts.error_rate = flag_value(flag, v)?,
            "--seed" => opts.seed = flag_value(flag, v)?,
            "--datasets" => opts.datasets = dataset_list(v)?,
            "--fault-expiry" => opts.fault_expiry = flag_value(flag, v)?,
            "--fault-abandon" => opts.fault_abandon = flag_value(flag, v)?,
            "--fault-outage" => opts.fault_outage = flag_value(flag, v)?,
            "--checkpoint-dir" => opts.checkpoint_dir = Some(v.clone()),
            "--checkpoint-every" => opts.checkpoint_every = flag_value(flag, v)?,
            "--checkpoint-keep" => opts.checkpoint_keep = flag_value(flag, v)?,
            "--resume-from" => opts.resume_from = Some(v.clone()),
            "--emit-json" => opts.emit_json = Some(v.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(opts)
}

/// Generate a dataset by name at the options' scale and seed.
pub fn dataset(name: &str, opts: &ExpOptions, run: usize) -> EmDataset {
    datagen::by_name(
        name,
        GenConfig { scale: opts.scale, seed: opts.seed + run as u64 },
    )
    .unwrap_or_else(|| panic!("unknown dataset {name}"))
}

/// Convert a generated dataset into a `MatchTask` + gold oracle.
pub fn make_task(ds: &EmDataset) -> (MatchTask, GoldOracle) {
    let task = task_from_parts(
        ds.table_a.clone(),
        ds.table_b.clone(),
        &ds.instruction,
        ds.seeds.positive,
        ds.seeds.negative,
    );
    let gold = GoldOracle::from_pairs(ds.gold.iter().copied());
    (task, gold)
}

/// A bounded random slice of `A × B`, vectorized: every pair in row-major
/// order, shuffled by `rng`, cut to the first `n`, then every seed pair
/// the cut dropped appended. The bins that learn on a sample use it so a
/// scenario runs in seconds at any dataset scale.
pub fn sampled_candidates(task: &MatchTask, n: usize, rng: &mut StdRng) -> CandidateSet {
    let n_b = task.table_b.len() as u32;
    let mut pairs: Vec<PairKey> = (0..task.table_a.len() as u32)
        .flat_map(|a| (0..n_b).map(move |b| PairKey::new(a, b)))
        .collect();
    pairs.shuffle(rng);
    pairs.truncate(n);
    for &(s, _) in &task.seeds {
        if !pairs.contains(&s) {
            pairs.push(s);
        }
    }
    CandidateSet::build(task, pairs)
}

/// Build the simulated crowd for a dataset: a heterogeneous worker pool
/// around the requested mean error rate, paid the dataset's per-question
/// price.
pub fn make_platform(ds: &EmDataset, error_rate: f64, seed: u64) -> CrowdPlatform {
    make_faulty_platform(ds, error_rate, seed, FaultConfig::default())
}

/// [`make_platform`] with fault injection. A zeroed `faults` is exactly
/// `make_platform` (the fault layer is pay-for-what-you-use).
pub fn make_faulty_platform(
    ds: &EmDataset,
    error_rate: f64,
    seed: u64,
    faults: FaultConfig,
) -> CrowdPlatform {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
    let pool = if error_rate == 0.0 {
        WorkerPool::perfect(50)
    } else {
        WorkerPool::heterogeneous(50, error_rate, error_rate / 2.0, &mut rng)
    };
    CrowdPlatform::with_faults(
        pool,
        CrowdConfig { price_cents: ds.price_cents, seed, ..Default::default() },
        faults,
        RetryPolicy::default(),
    )
}

/// The Corleone configuration used by the experiments: paper parameters
/// with a laptop-scale blocking threshold.
pub fn experiment_config() -> CorleoneConfig {
    CorleoneConfig {
        blocker: BlockerConfig { t_b: 100_000, ..Default::default() },
        ..Default::default()
    }
}

/// Run Corleone once on a dataset and return the report. Honors the
/// options' `--fault-*` flags; panics if the run fails outright (use
/// [`try_run_corleone`] to handle that).
pub fn run_corleone(name: &str, opts: &ExpOptions, run: usize) -> (RunReport, EmDataset) {
    let (result, ds) = try_run_corleone(name, opts, run);
    (result.unwrap_or_else(|e| panic!("run on {name} failed: {e}")), ds)
}

/// Fallible form of [`run_corleone`]: a run that cannot complete (e.g.
/// under injected faults) comes back as `Err` instead of panicking.
pub fn try_run_corleone(
    name: &str,
    opts: &ExpOptions,
    run: usize,
) -> (Result<RunReport, CorleoneError>, EmDataset) {
    let ds = dataset(name, opts, run);
    let (task, gold) = make_task(&ds);
    let mut platform = make_faulty_platform(
        &ds,
        opts.error_rate,
        opts.seed + run as u64,
        opts.fault_config(),
    );
    let engine = Engine::new(experiment_config()).with_seed(opts.seed + 1000 * run as u64);
    let mut session = engine
        .session(&task)
        .platform(&mut platform)
        .oracle(&gold)
        .gold(gold.matches());
    if let Some(dir) = &opts.checkpoint_dir {
        // One subdirectory per (dataset, run) so multi-dataset sweeps
        // don't interleave their snapshot sequences.
        session = session
            .checkpoint_dir(format!("{dir}/{name}-run{run}"))
            .checkpoint_every(opts.checkpoint_every)
            .checkpoint_keep(opts.checkpoint_keep);
    }
    if let Some(path) = &opts.resume_from {
        session = session.resume_from(path);
    }
    let result = session.try_run();
    (result, ds)
}

/// True precision, recall and F1 of `predicted` (by candidate row) on the
/// candidate rows `rows`, against the gold labels of their pairs.
pub fn gold_prf(
    cand: &CandidateSet,
    rows: impl IntoIterator<Item = usize>,
    gold: &dyn TruthOracle,
    predicted: impl Fn(usize) -> bool,
) -> Prf {
    let (mut tp, mut pp, mut ap) = (0, 0, 0);
    for i in rows {
        let (p, a) = (predicted(i), gold.true_label(cand.pair(i)));
        pp += usize::from(p);
        ap += usize::from(a);
        tp += usize::from(p && a);
    }
    Prf::from_counts(tp, pp, ap)
}

/// Mean of a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Render a plain-text table: header row + aligned columns.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let sep = widths
        .iter()
        .map(|w| "-".repeat(*w))
        .collect::<Vec<_>>()
        .join("  ");
    let mut out = String::new();
    out.push_str(&fmt_row(&header));
    out.push('\n');
    out.push_str(&sep);
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Format a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}", x * 100.0)
}

/// Format cents as dollars.
pub fn dollars(cents: f64) -> String {
    format!("${:.1}", cents / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_table_aligns() {
        let t = render_table(
            &["name", "f1"],
            &[
                vec!["restaurants".into(), "96.5".into()],
                vec!["x".into(), "7".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[2].ends_with("96.5"));
    }

    #[test]
    fn helpers() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(pct(0.965), "96.5");
        assert_eq!(dollars(920.0), "$9.2");
    }

    #[test]
    fn arg_list_errors_are_values_not_panics() {
        let line = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let err = parse_arg_list(&line("--datasets restaurants,nosuch")).unwrap_err();
        assert!(err.contains("unknown dataset nosuch"), "{err}");
        let err = parse_arg_list(&line("--scale abc")).unwrap_err();
        assert!(err.starts_with("bad --scale \"abc\""), "{err}");
        assert!(parse_arg_list(&line("--runs")).unwrap_err().contains("missing value"));
        assert!(parse_arg_list(&line("--nosuch 1")).unwrap_err().contains("unknown flag"));

        let opts = parse_arg_list(&line(
            "--datasets citations,products --scale 0.05 --runs 1 --seed 7 --error 0.1 \
             --emit-json out --checkpoint-keep 0",
        ))
        .unwrap();
        assert_eq!(opts.datasets, ["citations", "products"]);
        assert_eq!((opts.scale, opts.runs, opts.seed, opts.error_rate), (0.05, 1, 7, 0.1));
        assert_eq!((opts.emit_json.as_deref(), opts.checkpoint_keep), (Some("out"), 0));
        assert_eq!(parse_arg_list(&[]).unwrap().datasets.len(), datagen::DATASET_NAMES.len());
    }

    #[test]
    fn task_and_platform_glue() {
        let opts = ExpOptions { scale: 0.05, runs: 1, ..Default::default() };
        let ds = dataset("restaurants", &opts, 0);
        let (task, gold) = make_task(&ds);
        assert_eq!(task.table_a.len(), ds.table_a.len());
        assert_eq!(gold.n_matches(), ds.gold.len());
        let platform = make_platform(&ds, 0.05, 1);
        assert_eq!(platform.ledger().total_cents, 0.0);

        // The sample holds every seed, stays within n + |seeds|, and
        // repeats for the same RNG seed.
        let sample = |seed| sampled_candidates(&task, 50, &mut StdRng::seed_from_u64(seed));
        let first = sample(9);
        for &(s, _) in &task.seeds {
            assert!(first.index_of(s).is_some(), "seed pair {s:?} missing");
        }
        assert!(first.len() <= 50 + task.seeds.len());
        assert_eq!(first.pairs(), sample(9).pairs());
    }
}
