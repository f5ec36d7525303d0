//! Blocking hot-path benchmark: record-analysis build, blocking-rule
//! application over `A × B`, and full pair vectorization, on all three
//! synthetic datasets — comparing the string-based reference kernels
//! ("string"), the precomputed-analysis Cartesian scan ("pre"), and the
//! output-sensitive indexed join ("index_probe").
//!
//! Writes `BENCH_blocking.json` (v5: `{schema_version, records}` where
//! each record is `{dataset, scale, phase, wall_ms, pairs_per_sec,
//! analysis_bytes}` — `records_per_sec` in place of `pairs_per_sec` on
//! `analysis_build` records, and `analysis_bytes` the resident bytes of
//! the arena analysis for that dataset × scale) so future PRs have a
//! perf trajectory, and prints a before/after table.
//!
//! Every phase is timed under one repetition policy: it runs up to
//! three times, fewer once its runs have taken two seconds, and
//! `wall_ms` is the median run. One run per phase let the file swing
//! with the load on a shared machine; long phases still run once. The
//! analysis-path vectorize phases (`vectorize_pre`, `vectorize_run`,
//! `char_kernels_pre`, and each kind of `--kinds`) time cold builds:
//! every run gets an analysis of its own, built untimed, whose new
//! generation flushes the per-thread value rows and token table, so no
//! run reads what an earlier phase or run left there.
//!
//! Phases per dataset × scale:
//! * `analysis_build`   — one-time `TableAnalysis` build (rate = records/s)
//! * `rule_apply_string` — rule sweep via the string kernels, pair by
//!   pair (sampled A-rows at large scales; the rate extrapolates)
//! * `rule_apply_pre`   — [`CartesianScan`] over the full `A × B`
//! * `index_probe`      — [`IndexedJoin`] (index build + probe + verify);
//!   the rate is *effective* pairs/s (Cartesian size / wall), so the
//!   speedup over `rule_apply_pre` is read directly off the two rates
//! * `vectorize_string` / `vectorize_pre` — full feature vectors on a
//!   deterministic sample of pairs, one pair at a time
//! * `vectorize_run` — full feature vectors of the Blocker's sample `S`
//!   for `t_B` = the pair-sample size (`corleone::blocker::sample_pairs`:
//!   all of A × a seeded subset of B, row-major), materialized by
//!   `CandidateSet::build_with`: one vectorizer call per run of pairs
//!   sharing the left record, each build task's rows then written into
//!   the set's whole columns
//! * `char_kernels_string` / `char_kernels_pre` — only the five
//!   character-level measures (Levenshtein, Jaro, Jaro-Winkler,
//!   Monge-Elkan, Smith-Waterman) on the same pair sample, isolating the
//!   bit-parallel/scratch kernels from the set/vector ones; the pre side
//!   computes one feature per run of sampled pairs sharing the left
//!   record (`FeatureVectorizer::feature_run`, what the rule sweep calls)
//!
//! Every dataset × scale also asserts (a) the indexed candidate list is
//! byte-identical to the scan's, for the bench rules and, untimed, for a
//! prefix, a containment and a missing-value rule (`index_equivalence=ok`
//! marker),
//! (b) every char-kernel feature value is bit-identical between the two
//! paths on every sampled pair (`char_equivalence=ok` marker), and
//! (c) the *full* feature vector off the arena-packed analysis is
//! bit-identical to the string path on every sampled pair
//! (`arena_equivalence=ok` marker), (d) every row of the run-shaped
//! matrix, read back through the owned `CandidateSet::row`, is
//! bit-identical to the string path's vector of its pair
//! (`run_equivalence=ok` marker), and (e) the string-path rule sweep
//! keeps exactly the scan's survivors on its sampled A-rows
//! (`rule_equivalence=ok` marker); all five markers are grepped by
//! `scripts/ci.sh`.
//!
//! Flags: `--quick` (CI-sized run: every dataset at scale 0.05),
//! `--out PATH`, `--scales a,b` (default `0.3,1`: at scale 3 the
//! citations analysis alone holds about 585 MB), `--datasets a,b`,
//! `--threads N`, `--kinds` (per-kernel ns/pair table, used to
//! calibrate `FeatureKind::unit_cost`), `--defs` (`--kinds` per feature
//! def). A bad command line prints why and exits 2.

use bench::{dataset, dataset_list, flag_value, make_task, render_table, ExpOptions};
use corleone::blocker;
use corleone::source::{CandidateSource, CartesianScan, IndexedJoin};
use corleone::task::{AnalysisCell, MatchTask};
use corleone::CandidateSet;
use crowd::PairKey;
use exec::lines::Lines;
use exec::Threads;
use forest::{Op, Predicate, Rule};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use similarity::{FeatureKind, Record, TaskAnalysis};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

/// Bump when the JSON layout changes. v2 added the envelope object and
/// the `index_probe` phase; v3 added the `char_kernels_string` /
/// `char_kernels_pre` phases and the per-record `analysis_bytes` field;
/// v4 names the `analysis_build` rate `records_per_sec`; v5 adds the
/// `vectorize_run` phase.
const BENCH_SCHEMA_VERSION: u32 = 5;

#[derive(Debug, Clone)]
struct BenchRecord {
    dataset: String,
    scale: f64,
    phase: String,
    wall_ms: f64,
    /// Items per second: records for `analysis_build`, pairs otherwise.
    per_sec: f64,
    /// Resident bytes of the arena-packed analysis for this dataset ×
    /// scale (same value on every phase record of the combination;
    /// backfilled after the analysis builds).
    analysis_bytes: u64,
}

impl Serialize for BenchRecord {
    fn to_json_value(&self) -> serde::Value {
        let rate = if self.phase == "analysis_build" { "records_per_sec" } else { "pairs_per_sec" };
        serde::Value::Obj(vec![
            ("dataset".into(), self.dataset.to_json_value()),
            ("scale".into(), self.scale.to_json_value()),
            ("phase".into(), self.phase.to_json_value()),
            ("wall_ms".into(), self.wall_ms.to_json_value()),
            (rate.into(), self.per_sec.to_json_value()),
            ("analysis_bytes".into(), self.analysis_bytes.to_json_value()),
        ])
    }
}

#[derive(Debug, Serialize)]
struct BenchReport {
    schema_version: u32,
    records: Vec<BenchRecord>,
}

#[derive(Debug)]
struct Args {
    quick: bool,
    kinds: bool,
    defs: bool,
    out: String,
    scales: Vec<f64>,
    datasets: Vec<String>,
    threads: Threads,
}

/// The flags of `args` (the command line without the program name), or
/// why the line is bad: an unknown flag, a flag without a value, a value
/// that does not parse, or a dataset outside [`datagen::DATASET_NAMES`].
fn parse_arg_list(args: &[String]) -> Result<Args, String> {
    let mut opts = Args {
        quick: false,
        kinds: false,
        defs: false,
        out: "BENCH_blocking.json".to_string(),
        scales: vec![0.3, 1.0],
        datasets: datagen::DATASET_NAMES.iter().map(|s| s.to_string()).collect(),
        threads: Threads::auto(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag {
            "--quick" => {
                opts.quick = true;
                opts.scales = vec![0.05];
            }
            "--kinds" => opts.kinds = true,
            "--defs" => {
                opts.kinds = true;
                opts.defs = true;
            }
            "--out" => opts.out = value()?.clone(),
            "--scales" => {
                opts.scales =
                    value()?.split(',').map(|s| flag_value(flag, s)).collect::<Result<_, _>>()?;
            }
            "--datasets" => opts.datasets = dataset_list(value()?)?,
            "--threads" => opts.threads = Threads::new(flag_value(flag, value()?)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(opts)
}

/// First feature index of `kind`, if the library has one.
fn find_kind(task: &MatchTask, kind: FeatureKind) -> Option<usize> {
    task.vectorizer.library().defs.iter().position(|d| d.kind == kind)
}

/// Synthetic blocking rules over cheap features, shaped like the negative
/// rules the Blocker extracts: "not an exact match and low word overlap"
/// plus a low-cosine rule.
fn bench_rules(task: &MatchTask) -> Vec<Rule> {
    let pred = |feature: usize, threshold: f64| Predicate {
        feature,
        op: Op::Le,
        threshold,
        nan_satisfies: true,
    };
    let mut rules = Vec::new();
    if let (Some(exact), Some(jac)) = (
        find_kind(task, FeatureKind::ExactMatch),
        find_kind(task, FeatureKind::JaccardWords),
    ) {
        rules.push(Rule {
            predicates: vec![pred(exact, 0.5), pred(jac, 0.2)],
            label: false,
            tree: 0,
            n_pos: 0,
            n_neg: 1,
        });
    }
    if let Some(cos) = find_kind(task, FeatureKind::CosineTfIdf) {
        rules.push(Rule {
            predicates: vec![pred(cos, 0.1)],
            label: false,
            tree: 0,
            n_pos: 0,
            n_neg: 1,
        });
    }
    assert!(!rules.is_empty(), "dataset has no text features to block on");
    rules
}

/// One-predicate rules the indexed join serves through its prefix,
/// containment and missing-value probes: `prefix <= 0.5`,
/// `containment <= 0.5`, and `dice_w <= 0.5` with `nan_satisfies =
/// false`, each on the first feature of its kind. The index oracle
/// checks them untimed.
fn probe_rules(task: &MatchTask) -> Vec<Rule> {
    let rule = |kind, nan_satisfies| {
        let feature = find_kind(task, kind).expect("a text attribute has every text kind");
        Rule {
            predicates: vec![Predicate { feature, op: Op::Le, threshold: 0.5, nan_satisfies }],
            label: false,
            tree: 0,
            n_pos: 0,
            n_neg: 1,
        }
    };
    vec![
        rule(FeatureKind::PrefixSim, true),
        rule(FeatureKind::Containment, true),
        rule(FeatureKind::DiceWords, false),
    ]
}

/// Reference rule sweep through the string kernels, pair by pair with a
/// per-pair feature memo (what the hot path did before the analysis
/// layer), over a subset of A-rows: the surviving pairs, row-major.
fn rule_sweep_string(
    task: &MatchTask,
    rules: &[Rule],
    rows: &[u32],
    threads: Threads,
) -> Vec<PairKey> {
    let n_b = task.table_b.len() as u32;
    let n_features = task.n_features();
    let survivors: Vec<Vec<PairKey>> = exec::indexed_par_map(threads, rows.len(), |ri| {
        let rec_a = task.table_a.record(rows[ri]);
        let mut memo = vec![f64::NAN; n_features];
        let mut computed = vec![false; n_features];
        let mut kept = Vec::new();
        for b in 0..n_b {
            let rec_b = task.table_b.record(b);
            computed.iter_mut().for_each(|c| *c = false);
            let mut blocked = false;
            'rules: for rule in rules {
                for p in &rule.predicates {
                    if !computed[p.feature] {
                        memo[p.feature] = task.vectorizer.feature(p.feature, rec_a, rec_b);
                        computed[p.feature] = true;
                    }
                }
                if rule.matches(&memo) {
                    blocked = true;
                    break 'rules;
                }
            }
            if !blocked {
                kept.push(PairKey::new(rows[ri], b));
            }
        }
        kept
    });
    survivors.into_iter().flatten().collect()
}

/// Deterministic stride sample of `n` pairs over the Cartesian product.
fn sample_pairs(task: &MatchTask, n: usize) -> Vec<(u32, u32)> {
    let n_a = task.table_a.len() as u64;
    let n_b = task.table_b.len() as u64;
    let total = n_a * n_b;
    let take = (n as u64).min(total);
    let stride = (total / take).max(1);
    (0..take)
        .map(|i| {
            let idx = (i * stride) % total;
            ((idx / n_b) as u32, (idx % n_b) as u32)
        })
        .collect()
}

/// Feature `fi` of a run of sampled pairs sharing the left record, into
/// `col`: through `feature_run` (`pre`), or pair by pair through the
/// string kernels.
fn run_column(
    task: &MatchTask,
    an: &TaskAnalysis,
    fi: usize,
    run: &[(u32, u32)],
    pre: bool,
    col: &mut [f64],
) {
    let ra = task.table_a.record(run[0].0);
    let bs: Vec<&Record> = run.iter().map(|&(_, b)| task.table_b.record(b)).collect();
    if pre {
        task.vectorizer.feature_run(fi, ra, &bs, an, col);
    } else {
        for (x, rb) in col.iter_mut().zip(bs) {
            *x = task.vectorizer.feature(fi, ra, rb);
        }
    }
}

/// Runs of one timed phase: at most `REPS`, and no more once the runs
/// so far have taken `REP_BUDGET_S` seconds.
const REPS: usize = 3;
const REP_BUDGET_S: f64 = 2.0;

/// Run a phase under the repetition policy: the median wall time in ms
/// over its runs, and the last run's output (every run computes the
/// same output).
fn timed<T>(mut phase: impl FnMut() -> T) -> (f64, T) {
    timed_fresh(|| (), |()| phase())
}

/// [`timed`], each run of `phase` on an input of its own from `fresh`,
/// built untimed.
fn timed_fresh<S, T>(mut fresh: impl FnMut() -> S, mut phase: impl FnMut(S) -> T) -> (f64, T) {
    let mut walls = Vec::with_capacity(REPS);
    loop {
        let input = fresh();
        let t0 = Instant::now();
        let out = phase(input);
        walls.push(t0.elapsed().as_secs_f64() * 1000.0);
        if walls.len() == REPS || walls.iter().sum::<f64>() >= REP_BUDGET_S * 1000.0 {
            return (median(&mut walls), out);
        }
    }
}

/// A new analysis of the task's tables: a generation of its own, so the
/// kernels' per-thread tables start cold.
fn fresh_analysis(task: &MatchTask, threads: Threads) -> TaskAnalysis {
    task.vectorizer.analyze(&task.table_a, &task.table_b, threads)
}

/// The median of a non-empty list (the mean of the middle two when its
/// length is even).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

/// Per-kernel ns/pair on both paths (calibration data for
/// `FeatureKind::unit_cost`), the pre path one `feature_run` per run of
/// sampled pairs sharing the left record, on a fresh analysis per kind
/// (the string path ignores `an`). With `all_defs`, times every feature
/// def (per attribute) instead of the first def per kind — the per-def
/// breakdown of a full `vectorize_pre` pass. Returns the table.
fn kind_timings(task: &MatchTask, an: &TaskAnalysis, threads: Threads, all_defs: bool) -> String {
    let pairs = sample_pairs(task, 20_000);
    let runs: Vec<&[(u32, u32)]> = pairs.chunk_by(|x, y| x.0 == y.0).collect();
    let vz = &task.vectorizer;
    let mut rows = Vec::new();
    for def_idx in 0..task.n_features() {
        let def = &vz.library().defs[def_idx];
        // One def per kind: skip repeats on later attributes.
        if !all_defs && vz.library().defs[..def_idx].iter().any(|d| d.kind == def.kind) {
            continue;
        }
        let run = |pre: bool| {
            let fresh = pre.then(|| fresh_analysis(task, threads));
            let an = fresh.as_ref().unwrap_or(an);
            let t0 = Instant::now();
            let sums: Vec<f64> = exec::indexed_par_map(threads, runs.len(), |ri| {
                let mut col = vec![0.0; runs[ri].len()];
                run_column(task, an, def_idx, runs[ri], pre, &mut col);
                col.iter().filter(|x| !x.is_nan()).sum::<f64>()
            });
            let ns = t0.elapsed().as_nanos() as f64 / pairs.len() as f64;
            (ns, sums.iter().sum::<f64>())
        };
        let (ns_string, s1) = run(false);
        let (ns_pre, s2) = run(true);
        assert_eq!(s1.to_bits(), s2.to_bits(), "paths diverged on {}", def.name());
        rows.push(vec![
            if all_defs { def.name() } else { format!("{:?}", def.kind) },
            format!("{:.0}", ns_string),
            format!("{:.0}", ns_pre),
            format!("{:.1}x", ns_string / ns_pre.max(1.0)),
            format!("{:.1}", def.kind.unit_cost()),
        ]);
    }
    render_table(&["kind", "string ns/pair", "pre ns/pair", "speedup", "unit_cost"], &rows)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_arg_list(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let mut out = Lines::stdout();
    let threads = args.threads;
    let vec_sample = if args.quick { 10_000 } else { 100_000 };
    // Cap the (slow) string-path reference sweep; the pre path always
    // runs the full Cartesian product.
    let string_pair_cap: u64 = if args.quick { 200_000 } else { 4_000_000 };

    let mut records: Vec<BenchRecord> = Vec::new();
    let mut table_rows: Vec<Vec<String>> = Vec::new();

    for name in &args.datasets {
        for &scale in &args.scales {
            let opts = ExpOptions { scale, ..Default::default() };
            let ds = dataset(name, &opts, 0);
            let (task, _gold) = make_task(&ds);
            let n_a = task.table_a.len();
            let n_b = task.table_b.len();
            let cartesian = task.cartesian_size();
            let rules = bench_rules(&task);
            eprintln!(
                "[{name} @ {scale}] |A|={n_a} |B|={n_b} cartesian={cartesian} rules={}",
                rules.len()
            );

            let ds_start = records.len();
            let mut push = |phase: &str, wall_ms: f64, items: f64| {
                let rate = items / (wall_ms / 1000.0).max(1e-9);
                records.push(BenchRecord {
                    dataset: name.clone(),
                    scale,
                    phase: phase.to_string(),
                    wall_ms,
                    per_sec: rate,
                    analysis_bytes: 0,
                });
                (wall_ms, rate)
            };

            // String-path rule sweep FIRST (before the analysis exists on
            // this task object it would not matter — the reference sweep
            // calls the string kernels explicitly — but measuring it first
            // keeps cache-warming effects comparable).
            let a_rows: Vec<u32> = {
                let max_rows =
                    ((string_pair_cap / n_b.max(1) as u64).max(1) as usize).min(n_a);
                let stride = (n_a / max_rows).max(1);
                (0..n_a).step_by(stride).take(max_rows).map(|a| a as u32).collect()
            };
            let string_pairs = a_rows.len() as u64 * n_b as u64;
            let (wall, string_survivors) =
                timed(|| rule_sweep_string(&task, &rules, &a_rows, threads));
            let (_, rate_string) = push("rule_apply_string", wall, string_pairs as f64);

            // The analysis build, timed on throw-away builds; the task
            // keeps one more, built untimed.
            let (wall, _) = timed(|| {
                task.vectorizer.analyze(&task.table_a, &task.table_b, threads);
            });
            push("analysis_build", wall, (n_a + n_b) as f64);
            let an = task.ensure_analysis(threads);
            let stats = an.stats;
            let mib = |x: usize| x as f64 / (1024.0 * 1024.0);
            eprintln!(
                "[{name} @ {scale}] analysis: {} values, {} words, {} grams, \
                 {:.1} MiB arena ({:.1} ids + {:.1} weights + {:.1} text + \
                 {:.1} headers)",
                stats.values,
                stats.distinct_words,
                stats.distinct_grams,
                mib(stats.resident_bytes),
                mib(stats.id_bytes),
                mib(stats.weight_bytes),
                mib(stats.text_bytes + stats.char_bytes + stats.narrow_bytes),
                mib(stats.header_bytes)
            );

            // Pre-path rule application over the full Cartesian product.
            let scan = CartesianScan::new(&task, rules.clone());
            let (wall, scan_pairs) = timed(|| scan.generate(threads));
            let survivors = scan_pairs.len();
            let (_, rate_pre) = push("rule_apply_pre", wall, cartesian as f64);
            eprintln!(
                "[{name} @ {scale}] rule application: {:.2}M pairs/s string, {:.2}M pairs/s pre \
                 ({:.1}x), {survivors} survivors",
                rate_string / 1e6,
                rate_pre / 1e6,
                rate_pre / rate_string.max(1.0)
            );
            // The sweep against the pair-by-pair string-path filter on
            // the sampled rows (ascending, so a binary search selects
            // them).
            let scan_on_rows: Vec<PairKey> =
                scan_pairs.iter().filter(|p| a_rows.binary_search(&p.a).is_ok()).copied().collect();
            assert_eq!(
                scan_on_rows, string_survivors,
                "rule sweep diverged from the string path on {name} @ {scale}"
            );
            out.print(&format!(
                "rule_equivalence=ok dataset={name} scale={scale} rows={} survivors={}",
                a_rows.len(),
                string_survivors.len()
            ));

            // Output-sensitive indexed join: index build + probes + full
            // verification, timed end to end. The bench rules are all
            // `Le`/`nan_satisfies` set-similarity predicates, so the
            // planner must find them indexable.
            let join =
                IndexedJoin::plan(&task, &rules).expect("bench rules must plan an indexed join");
            let (wall_idx, idx_pairs) = timed(|| join.generate(threads));
            let (_, rate_idx) = push("index_probe", wall_idx, cartesian as f64);
            assert_eq!(
                scan_pairs, idx_pairs,
                "indexed join diverged from Cartesian scan on {name} @ {scale}"
            );
            for rules in probe_rules(&task).into_iter().map(|r| vec![r]) {
                let join =
                    IndexedJoin::plan(&task, &rules).expect("probe rules plan an indexed join");
                assert_eq!(
                    join.generate(threads),
                    CartesianScan::new(&task, rules.clone()).generate(threads),
                    "{} diverged from Cartesian scan on {name} @ {scale}",
                    join.describe()
                );
            }
            out.print(&format!(
                "index_equivalence=ok dataset={name} scale={scale} candidates={survivors} \
                 speedup={:.1}x",
                rate_idx / rate_pre.max(1.0)
            ));

            // Full vectorization on a deterministic pair sample. Both
            // paths collect the vector's bits per pair (one small Vec per
            // pair on each path, so the timing overhead cancels), which
            // feeds the whole-vector byte-identity assertion below.
            let pairs = sample_pairs(&task, vec_sample);
            // Through the analysis `pre`, or the string path without one.
            let vectorize = |pre: Option<&TaskAnalysis>| -> Vec<Vec<u64>> {
                // Reused per-thread output buffer: the pre phase measures
                // the allocation-free `vectorize_pre_into` hot path.
                thread_local! {
                    static VBUF: std::cell::RefCell<Vec<f64>> =
                        const { std::cell::RefCell::new(Vec::new()) };
                }
                exec::indexed_par_map(threads, pairs.len(), |i| {
                    let (a, b) = pairs[i];
                    let (ra, rb) = (task.table_a.record(a), task.table_b.record(b));
                    if let Some(an) = pre {
                        VBUF.with(|v| {
                            let mut v = v.borrow_mut();
                            v.resize(task.n_features(), 0.0);
                            task.vectorizer.vectorize_pre_into(ra, &[rb], an, &mut v);
                            v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>()
                        })
                    } else {
                        let v = task.vectorizer.vectorize(ra, rb);
                        v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>()
                    }
                })
            };
            let fresh = || fresh_analysis(&task, threads);
            let (wall_s, vbits_s) = timed(|| vectorize(None));
            let (_, vrate_s) = push("vectorize_string", wall_s, pairs.len() as f64);
            let (wall_p, vbits_p) = timed_fresh(fresh, |an| vectorize(Some(&an)));
            let (_, vrate_p) = push("vectorize_pre", wall_p, pairs.len() as f64);
            for (pi, (bs, bp)) in vbits_s.iter().zip(&vbits_p).enumerate() {
                assert_eq!(
                    bs, bp,
                    "arena vectorization diverged on {name} @ {scale}, pair {:?}",
                    pairs[pi]
                );
            }
            out.print(&format!(
                "arena_equivalence=ok dataset={name} scale={scale} features={} pairs={} \
                 speedup={:.1}x",
                task.n_features(),
                pairs.len(),
                vrate_p / vrate_s.max(1.0)
            ));

            // Run-shaped vectorization: the candidate-set build the
            // Blocker runs on `S`, then every row checked bitwise against
            // the string path's vector of its pair.
            let mut rng = StdRng::seed_from_u64(42);
            let run_pairs = blocker::sample_pairs(&task, vec_sample as u64, &mut rng);
            let n_runs = run_pairs.windows(2).filter(|w| w[0].a != w[1].a).count() + 1;
            // A copy of the task per run, holding a fresh analysis.
            let fresh_task = || {
                let t = MatchTask { analysis: AnalysisCell::default(), ..task.clone() };
                t.install_analysis(Arc::new(fresh_analysis(&task, threads)));
                t
            };
            let (wall_r, built) = timed_fresh(fresh_task, |t| {
                CandidateSet::build_with(&t, run_pairs.clone(), threads, None)
            });
            let (_, vrate_r) = push("vectorize_run", wall_r, run_pairs.len() as f64);
            let diverged: Vec<bool> = exec::indexed_par_map(threads, run_pairs.len(), |i| {
                let p = run_pairs[i];
                let (ra, rb) = (task.table_a.record(p.a), task.table_b.record(p.b));
                let want = task.vectorizer.vectorize(ra, rb);
                let got = built.row(i);
                want.iter().zip(&got).any(|(w, g)| w.to_bits() != g.to_bits())
            });
            if let Some(i) = diverged.iter().position(|&d| d) {
                panic!("run vectorization diverged on {name} @ {scale}, pair {:?}", run_pairs[i]);
            }
            out.print(&format!(
                "run_equivalence=ok dataset={name} scale={scale} features={} pairs={} \
                 runs={n_runs} speedup={:.1}x",
                task.n_features(),
                run_pairs.len(),
                vrate_r / vrate_s.max(1.0)
            ));

            // Char-kernel phase: the five character-level measures alone,
            // on the same pair sample, with per-pair per-feature bit
            // equality between the two paths asserted afterwards.
            let char_defs: Vec<usize> = task
                .vectorizer
                .library()
                .defs
                .iter()
                .enumerate()
                .filter(|(_, d)| {
                    matches!(
                        d.kind,
                        FeatureKind::Levenshtein
                            | FeatureKind::Jaro
                            | FeatureKind::JaroWinkler
                            | FeatureKind::MongeElkan
                            | FeatureKind::SmithWaterman
                    )
                })
                .map(|(i, _)| i)
                .collect();
            let runs: Vec<&[(u32, u32)]> = pairs.chunk_by(|x, y| x.0 == y.0).collect();
            // Through the analysis `pre`, or the string path (which
            // ignores the analysis it is handed).
            let char_run = |an: &TaskAnalysis, pre: bool| -> Vec<Vec<u64>> {
                let per_run = exec::indexed_par_map(threads, runs.len(), |ri| {
                    let run = runs[ri];
                    let mut bits = vec![Vec::with_capacity(char_defs.len()); run.len()];
                    let mut col = vec![0.0; run.len()];
                    for &fi in &char_defs {
                        run_column(&task, an, fi, run, pre, &mut col);
                        for (row, x) in bits.iter_mut().zip(&col) {
                            row.push(x.to_bits());
                        }
                    }
                    bits
                });
                per_run.into_iter().flatten().collect()
            };
            let (wall_cs, bits_s) = timed(|| char_run(an, false));
            let (_, crate_s) = push("char_kernels_string", wall_cs, pairs.len() as f64);
            let (wall_cp, bits_p) = timed_fresh(fresh, |an| char_run(&an, true));
            let (_, crate_p) = push("char_kernels_pre", wall_cp, pairs.len() as f64);
            for (pi, (bs, bp)) in bits_s.iter().zip(&bits_p).enumerate() {
                assert_eq!(
                    bs, bp,
                    "char kernels diverged on {name} @ {scale}, pair {:?}",
                    pairs[pi]
                );
            }
            out.print(&format!(
                "char_equivalence=ok dataset={name} scale={scale} features={} pairs={} \
                 speedup={:.1}x",
                char_defs.len(),
                pairs.len(),
                crate_p / crate_s.max(1.0)
            ));

            table_rows.push(vec![
                name.clone(),
                format!("{scale}"),
                format!("{:.2}M", rate_string / 1e6),
                format!("{:.2}M", rate_pre / 1e6),
                format!("{:.2}M", rate_idx / 1e6),
                format!("{:.1}x", rate_idx / rate_pre.max(1.0)),
                format!("{:.0}k", vrate_s / 1e3),
                format!("{:.0}k", vrate_p / 1e3),
                format!("{:.0}k", vrate_r / 1e3),
                format!("{:.0}k", crate_s / 1e3),
                format!("{:.0}k", crate_p / 1e3),
            ]);

            if args.kinds {
                out.print(&kind_timings(&task, an, threads, args.defs));
            }

            let analysis_bytes = stats.resident_bytes as u64;
            for r in &mut records[ds_start..] {
                r.analysis_bytes = analysis_bytes;
            }
        }
    }

    out.print(&render_table(
        &[
            "dataset",
            "scale",
            "rules str p/s",
            "rules pre p/s",
            "index eff p/s",
            "idx speedup",
            "vec str p/s",
            "vec pre p/s",
            "vec run p/s",
            "char str p/s",
            "char pre p/s",
        ],
        &table_rows,
    ));

    let report = BenchReport { schema_version: BENCH_SCHEMA_VERSION, records };
    let json = serde_json::to_string_pretty(&report).expect("serialize bench records");
    std::fs::write(&args.out, json + "\n").expect("write bench json");
    eprintln!("wrote {}", args.out);
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_list_errors_are_values_not_panics() {
        let line = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let err = parse_arg_list(&line("--scales abc")).unwrap_err();
        assert!(err.starts_with("bad --scales \"abc\""), "{err}");
        let err = parse_arg_list(&line("--scales 0.3,x")).unwrap_err();
        assert!(err.starts_with("bad --scales \"x\""), "{err}");
        let err = parse_arg_list(&line("--threads x")).unwrap_err();
        assert!(err.starts_with("bad --threads \"x\""), "{err}");
        let err = parse_arg_list(&line("--datasets restaurants,nosuch")).unwrap_err();
        assert!(err.contains("unknown dataset nosuch"), "{err}");
        assert!(parse_arg_list(&line("--nosuch")).unwrap_err().contains("unknown flag"));
        assert!(parse_arg_list(&line("--out")).unwrap_err().contains("missing value"));

        let args =
            parse_arg_list(&line("--quick --kinds --datasets products --threads 2 --out q.json"))
                .unwrap();
        assert_eq!((args.quick, args.kinds, args.defs), (true, true, false));
        assert_eq!((args.scales, args.datasets), (vec![0.05], vec!["products".to_string()]));
        assert_eq!((args.threads.get(), args.out.as_str()), (2, "q.json"));
        let args = parse_arg_list(&[]).unwrap();
        assert_eq!(args.scales, [0.3, 1.0]);
        assert_eq!(args.datasets.len(), datagen::DATASET_NAMES.len());
    }

    #[test]
    fn phases_report_the_median_run() {
        assert_eq!(median(&mut [5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&mut [4.0, 2.0]), 3.0);
        let mut runs = 0;
        let (_, out) = timed(|| {
            runs += 1;
            runs
        });
        assert_eq!((runs, out), (REPS, REPS), "a fast phase runs REPS times");
        let mut built = 0;
        let (_, out) = timed_fresh(
            || {
                built += 1;
                built
            },
            |input| input,
        );
        assert_eq!((built, out), (REPS, REPS), "each run on an input of its own");
    }
}
