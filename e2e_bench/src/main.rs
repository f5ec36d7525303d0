//! # e2e_bench — end-to-end benchmark of hands-off Corleone runs
//!
//! Drives full hands-off runs (blocker, then matcher, estimator and
//! locator iterations until the stopping rule fires) through the public
//! API, checks their outputs, and reports the numbers a user of the
//! system sees: wall-clock, set-up time, memory, crowd spend and
//! accuracy. A traced mode adds per-layer numbers from bench-side spans.
//!
//! ## Running it
//!
//! ```text
//! # every workload, untraced then traced, each in its own child process;
//! # writes e2e_bench/BENCH_e2e.json
//! cargo run --release -q --manifest-path e2e_bench/Cargo.toml -- --seed 42
//!
//! # one workload in this process; the last stdout line is the JSON result
//! cargo run --release -q --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload restaurants_scan --seed 7 --seconds 20 --trace 0
//!
//! # per-layer numbers, with every span written to DIR/<workload>.json
//! ... --workload restaurants_scan --trace 1 --trace-dir DIR
//!
//! # the smoke used by the integration test: two tiny workloads, one run
//! ... --quick --trace-dir DIR
//! ```
//!
//! Flags: `--workload NAME`, `--seed N` (default 42), `--seconds S`
//! (window for repeating rounds, default 20), `--trace 0|1`,
//! `--trace-dir DIR`, `--quick`. An unknown workload or flag exits with
//! code 2; a failed output check exits with code 1.
//!
//! Every metric prints as `<workload> <metric> <value> <unit> <q1> <q3>
//! <n>`, the value being the median over runs (the mean for `cost_usd`);
//! the last line is `{"correct", "attempted", "failed", "metrics"}` with
//! the values of the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`).
//!
//! ## Runs and inputs
//!
//! Closed loop, one client: each run starts when the previous one ends.
//! Input `k` of a workload is generated from `--seed` and `k` (dataset,
//! crowd and engine seeds; see [`workloads::input_seeds`]), and every run
//! builds a fresh `MatchTask`, because the analysis is cached in the
//! task. Untimed warm-up runs of input 0 come first (for a second: the
//! first runs of a process are slower). Then a round runs inputs
//! `0..inputs` once each; rounds repeat while the next one fits in
//! `--seconds`, and at least one runs. The number of inputs is fixed per
//! workload (one round takes 12–18 s on a 2-vCPU VM), so a seed
//! measures the same inputs however fast the code is, and `f1` and
//! `cost_usd`, taken from the first round, repeat exactly for a seed.
//! A traced run covers the first quarter of the inputs once.
//!
//! The simulated crowd is error-free: with noisy workers a run's amount
//! of work swings too much between inputs to average out over one round.
//! The engine configuration is the experiments'
//! (`bench::experiment_config`) with a per-workload `t_B`.
//!
//! ## Workloads
//!
//! All run on one thread (see [`workloads::THREADS`] for why). Shares of
//! a run are from traced runs on a 2-vCPU VM.
//!
//! * `restaurants_scan` — restaurants@3.0 (1,599 × 993 records), `t_B` =
//!   30k, 24 inputs. Candidate generation over all 1.6M pairs is 10% of
//!   the run time of 54 traced inputs: half of them learn a rule the
//!   planner cannot index and take the Cartesian scan (18% of those
//!   runs), the others take the inverted-index join (about 1 ms). Blocker
//!   learning (~50%) and the analysis build (~34%) take the rest. Sizes
//!   where generation dominates (citations@0.2, `t_B` = 10k: 51% of a
//!   run) take 4 s per input and swing by ±50% between inputs with the
//!   path the learned rule takes, too much for one run to average out.
//! * `restaurants_cache` — restaurants@1.0 (533 × 331), `t_B` = 50k, 24
//!   inputs. Vectorizing the 50k-pair blocker sample through the feature
//!   cache dominates; the analysis and the 176k-pair scan are small.
//! * `products_learn` — products@0.06 (153 × 1,324), `t_B` = 10k, 48
//!   inputs. Long text: the analysis build and blocker active learning
//!   dominate; the matcher sees a tiny candidate set.
//! * `service_resume` — three restaurants@0.1 tenants of a
//!   `MatchService` that checkpoints every iteration, 18 inputs. Two
//!   tenants share tables under different engine seeds (one adopts the
//!   other's analysis), the third has tables of its own. Phase A admits
//!   them and runs one quantum each (analysis, blocker, snapshot 0), then
//!   drops the service as if killed; phase B opens a new service on the
//!   same registry, resubmits (reading each ~1 MB snapshot back, which
//!   is most of the run) and runs to completion.
//!
//! ## End-to-end metrics (`--trace 0`)
//!
//! * `run_s` — wall-clock of `RunSession::try_run`, or of phases A + B.
//! * `setup_s` — dataset generation, `task_from_parts` and crowd set-up
//!   (for the service: every tenant's spec, both phases).
//!
//!   Both times (and the service's `resume_s`) are scaled to a reference
//!   machine speed: a fixed memory-bound loop is timed before every run
//!   (printed as `calibration_ms`), and the run's times are multiplied by
//!   `REFERENCE_CALIBRATION_S` over the loop's time. [`metrics::calibrate`]
//!   has the measurements that show the scaled times track a drifting
//!   machine better than the wall-clock does.
//! * `peak_rss_mib` — `VmHWM` over one run (the mark is reset before
//!   each run through `/proc/self/clear_refs`).
//! * `cost_usd` — crowd spend of a run (summed over tenants); the mean
//!   over inputs, since on `products_learn` the per-input spend is
//!   bimodal and the median jumps between the modes.
//! * `f1` — true F1 of a run's result (one sample per tenant).
//!
//! `BENCHMARK.json` bounds each of them by about three times the largest
//! spread (IQR over median) of its value over ten seeds, measured twice
//! per workload on a shared 2-vCPU VM: `run_s` 0.25 (spreads
//! 0.041–0.073), `setup_s` 0.25 (0.034–0.156), `peak_rss_mib` 0.15
//! (0.001–0.034), `cost_usd` 0.2 (0.037–0.055) and `f1` 0.05
//! (0.000–0.010). `f1` and `cost_usd` repeat exactly for a seed; their
//! spread is between the inputs of different seeds, and bounding them
//! tighter would take more inputs than a run fits.
//!
//! ## Layer → metric map (`--trace 1`)
//!
//! Each traced run is input `k` again, driven through the stepping API
//! with spans, then the blocker, its candidate source and the candidate
//! build are replayed on their own and the store is probed. Arrows name
//! the end-to-end metric and workload each layer metric should move.
//!
//! * `engine.start_ms` (after the analysis is built), `engine.step_ms`,
//!   `engine.iterations`, `engine.coverage_frac` (share of the run inside
//!   engine spans) → `run_s` @ every workload.
//! * `analysis.build_ms`, `analysis.records_per_s` → `run_s` @
//!   `products_learn`, `restaurants_scan`; `analysis.resident_mib` →
//!   `peak_rss_mib` @ `restaurants_scan`.
//! * `blocker.ms`, `blocker.learn_ms` (blocker − generate − build, from
//!   separate replays, so it can dip below 0 on a short blocker),
//!   `blocker.sample_pairs`, `blocker.rules_applied` → `run_s` @
//!   `restaurants_scan`, `restaurants_cache`; `blocker.questions`,
//!   `blocker.cost_usd` → `cost_usd`.
//! * `source.generate_ms`, `source.pairs_per_s`, `source.indexed`,
//!   `source.survivor_frac`, `kernels.single_features` → `run_s` @
//!   `restaurants_scan`.
//! * `candidates.build_ms`, `candidates.pairs_per_s`,
//!   `kernels.pairs_vectorized` → `run_s` @ `restaurants_cache`.
//! * `cache.hits`, `cache.misses`, `cache.hit_frac` → `run_s` and
//!   `peak_rss_mib` @ `restaurants_cache`, `run_s` @ `service_resume`.
//! * `learner.ms`, `learner.al_rounds`, `learner.pairs_labeled`,
//!   `estimator.ms`, `estimator.pairs_labeled`, `locator.ms`,
//!   `locator.pairs_labeled` → `run_s` and `cost_usd` @
//!   `restaurants_cache`, `restaurants_scan`.
//! * `crowd.questions`, `crowd.answers`, `crowd.hits`,
//!   `crowd.label_cache_hits`, `crowd.answers_per_question`,
//!   `crowd.hours` → `cost_usd`.
//! * `quality.est_f1_err`, `quality.blocking_recall` → `f1`.
//! * `store.snapshot_mib`, `store.read_ms`, `store.write_ms`,
//!   `store.read_mib_per_s` (a post-blocking snapshot written by the
//!   engine without a feature cache, read back and rewritten) → `run_s`
//!   @ `service_resume`.
//! * `service.ticks`, `service.analysis_hits`, `service.tenants_resumed`
//!   → `run_s` @ `service_resume` (0 on the solo workloads).
//! * `trace.overhead_frac` — traced wall-clock over the untraced
//!   wall-clock of the same input, minus 1.
//!
//! ## Output checks
//!
//! A run fails the command when: its reported true P/R/F1 differ from
//! the ones recomputed here from its predicted pairs; a repeat of an
//! input (a warm-up run, a later round) differs from its first run in
//! `deterministic_json`; a traced run differs from the untraced run of
//! the same input; a replayed layer differs from the run (blocker
//! report, candidate pairs, feature bits); a snapshot changes bytes when
//! read back and rewritten; a service tenant does not resume, or differs
//! from a solo run of the same spec; or the engine spans cover less than
//! 98% of a traced run.

mod metrics;
mod trace;
mod workloads;

use metrics::Samples;
use serde::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use trace::Recorder;
use workloads::{input_seeds, tenant_seeds, Workload, QUICK, WORKLOADS};

/// End-to-end metrics, reported with `--trace 0`.
const END_TO_END: [&str; 5] = ["run_s", "setup_s", "peak_rss_mib", "cost_usd", "f1"];

/// Per-layer metrics, reported with `--trace 1`.
const PER_LAYER: [&str; 47] = [
    "engine.start_ms",
    "engine.step_ms",
    "engine.iterations",
    "engine.coverage_frac",
    "analysis.build_ms",
    "analysis.records_per_s",
    "analysis.resident_mib",
    "blocker.ms",
    "blocker.learn_ms",
    "blocker.sample_pairs",
    "blocker.rules_applied",
    "blocker.questions",
    "blocker.cost_usd",
    "source.generate_ms",
    "source.pairs_per_s",
    "source.indexed",
    "source.survivor_frac",
    "kernels.single_features",
    "candidates.build_ms",
    "candidates.pairs_per_s",
    "kernels.pairs_vectorized",
    "cache.hits",
    "cache.misses",
    "cache.hit_frac",
    "learner.ms",
    "learner.al_rounds",
    "learner.pairs_labeled",
    "estimator.ms",
    "estimator.pairs_labeled",
    "locator.ms",
    "locator.pairs_labeled",
    "crowd.questions",
    "crowd.answers",
    "crowd.hits",
    "crowd.label_cache_hits",
    "crowd.answers_per_question",
    "crowd.hours",
    "quality.est_f1_err",
    "quality.blocking_recall",
    "store.snapshot_mib",
    "store.read_ms",
    "store.write_ms",
    "store.read_mib_per_s",
    "service.ticks",
    "service.analysis_hits",
    "service.tenants_resumed",
    "trace.overhead_frac",
];

/// Minimum wall-clock of the untimed warm-up runs.
const WARM_UP_SECONDS: f64 = 1.0;

/// A traced pass covers one in this many of a workload's inputs: a
/// traced input also runs untraced, replays three layers and probes the
/// store, about four times the work of an untraced run.
const TRACED_SHARE: u64 = 4;

/// Minimum share of a traced run inside the engine's spans.
const MIN_COVERAGE: f64 = 0.98;

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_dir: Option<PathBuf>,
    quick: bool,
}

fn usage_exit(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: e2e_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--trace-dir DIR] [--quick]"
    );
    std::process::exit(2);
}

fn bad_value(flag: &str, v: &str) -> ! {
    usage_exit(&format!("bad value {v:?} for {flag}"))
}

fn parse_args() -> Options {
    let mut o = Options {
        workload: None,
        seed: 42,
        seconds: 20.0,
        trace: false,
        trace_dir: None,
        quick: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--quick" {
            o.quick = true;
            continue;
        }
        let Some(v) = args.next() else {
            usage_exit(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => o.workload = Some(v.clone()),
            "--seed" => o.seed = v.parse().unwrap_or_else(|_| bad_value(&flag, &v)),
            "--seconds" => {
                o.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 0.0)
                    .unwrap_or_else(|| bad_value(&flag, &v))
            }
            "--trace" => {
                o.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad_value(&flag, &v),
                }
            }
            "--trace-dir" => o.trace_dir = Some(PathBuf::from(&v)),
            _ => usage_exit(&format!("unknown flag {flag}")),
        }
    }
    o
}

fn main() -> ExitCode {
    let o = parse_args();
    match &o.workload {
        Some(name) => match workloads::find(name) {
            Some(w) => run_one(w, &o),
            None => {
                let names: Vec<&str> = WORKLOADS.iter().chain(&QUICK).map(|w| w.name).collect();
                eprintln!(
                    "unknown workload {name:?}; valid workloads: {}",
                    names.join(", ")
                );
                ExitCode::from(2)
            }
        },
        None => run_all(&o),
    }
}

/// What one workload process measured.
struct Tally {
    samples: Samples,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.errors.push(e);
        }
    }
}

/// Removes the workload's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Measure one workload in this process and print its result.
fn run_one(w: &'static Workload, o: &Options) -> ExitCode {
    let scratch = Scratch(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".scratch")
            .join(format!("{}-{}", w.name, std::process::id())),
    );
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("cannot create {}: {e}", scratch.0.display());
        return ExitCode::FAILURE;
    }
    let seconds = if o.quick { 0.0 } else { o.seconds };
    let mut rec = Recorder::new();
    let mut tally = Tally {
        samples: Samples::default(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };
    measure(
        w, o.seed, seconds, o.trace, &scratch.0, &mut rec, &mut tally,
    );
    if let Some(dir) = &o.trace_dir {
        let written = std::fs::create_dir_all(dir).and_then(|_| {
            std::fs::write(dir.join(format!("{}.json", w.name)), rec.to_json(w.name))
        });
        if let Err(e) = written {
            tally.failed += 1;
            tally
                .errors
                .push(format!("cannot write spans to {}: {e}", dir.display()));
        }
    }

    for line in tally.samples.lines(w.name) {
        println!("{line}");
    }
    for e in &tally.errors {
        eprintln!("{}: {e}", w.name);
    }
    let names: &[&str] = if o.trace { &PER_LAYER } else { &END_TO_END };
    let Some(metrics) = tally.samples.values_json(names) else {
        eprintln!("{}: no complete run to report", w.name);
        return ExitCode::FAILURE;
    };
    let correct = tally.errors.is_empty();
    let result = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Num(tally.attempted as f64)),
        ("failed".into(), Value::Num(tally.failed as f64)),
        ("metrics".into(), metrics),
    ]);
    println!(
        "{}",
        serde_json::to_string(&result).expect("a Value tree always serializes")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The warm-up, then whole rounds over inputs `0..w.inputs` until the
/// next round would overrun the window (at least one round). Traced, one
/// pass over the first [`TRACED_SHARE`]th of the inputs instead.
///
/// The set of measured inputs depends only on the seed, never on how
/// fast the code runs: a faster change runs more rounds of the same
/// inputs, so `f1` and `cost_usd` (taken from the first round) repeat
/// exactly for a seed.
fn measure(
    w: &Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scratch: &Path,
    rec: &mut Recorder,
    tally: &mut Tally,
) {
    // expected[k]: the digests every run of input k must reproduce.
    let mut expected: Vec<Option<Vec<String>>> = vec![None; w.inputs as usize];
    match warm_up(w, seed, scratch, WARM_UP_SECONDS.min(seconds)) {
        Ok(d) => expected[0] = Some(d),
        Err(e) => tally.record(Err(format!("warm-up: {e}"))),
    }
    let mut check = |k: u64, digests: Result<Vec<String>, String>| {
        digests.and_then(|d| match &expected[k as usize] {
            Some(first) if *first != d => Err(format!(
                "input {k} gave different deterministic_json on a repeat"
            )),
            Some(_) => Ok(()),
            None => {
                expected[k as usize] = Some(d);
                Ok(())
            }
        })
    };
    if traced {
        for k in 0..w.inputs.div_ceil(TRACED_SHARE) {
            let s = input_seeds(seed, k);
            let digests = traced_rep(w, k, s, scratch, rec, &mut tally.samples);
            tally.record(check(k, digests));
        }
        return;
    }
    let t0 = Instant::now();
    let mut rounds = Vec::new();
    loop {
        let t = Instant::now();
        let first_round = rounds.is_empty();
        for k in 0..w.inputs {
            let digests = rep(
                w,
                input_seeds(seed, k),
                scratch,
                &mut tally.samples,
                first_round,
            )
            .map(|(d, _)| d);
            tally.record(check(k, digests));
        }
        rounds.push(t.elapsed().as_secs_f64());
        if t0.elapsed().as_secs_f64() + metrics::median(&rounds) > seconds {
            break;
        }
    }
}

/// Input 0, untimed and repeated for at least `min_seconds` (the first
/// runs of a process are slower); returns its digests, which every repeat
/// must reproduce. For a service workload it also checks every tenant
/// against a solo run of the same spec.
fn warm_up(
    w: &Workload,
    seed: u64,
    scratch: &Path,
    min_seconds: f64,
) -> Result<Vec<String>, String> {
    let s = input_seeds(seed, 0);
    let t0 = Instant::now();
    let mut first: Option<Vec<String>> = None;
    loop {
        let digests = if w.tenants == 0 {
            vec![workloads::solo_run(w, s)?.digest]
        } else {
            let run = workloads::service_run(w, s, scratch, None)?;
            if first.is_none() {
                workloads::check_tenants_match_solo(w, s, &run)?;
            }
            run.digests
        };
        match &first {
            Some(f) if *f != digests => {
                return Err("input 0 gave different deterministic_json on a repeat".into())
            }
            Some(_) => {}
            None => first = Some(digests),
        }
        if t0.elapsed().as_secs_f64() >= min_seconds {
            return Ok(first.unwrap_or_default());
        }
    }
}

/// One untraced run of input `s`; pushes its times, scaled by the
/// calibration timed just before it (see [`metrics::calibrate`]), its
/// peak RSS, and with `quality` its crowd spend and F1 (which every
/// repeat of the input reproduces, so they are taken once per input).
/// Returns the run's digests and its unscaled wall-clock.
fn rep(
    w: &Workload,
    s: workloads::InputSeeds,
    scratch: &Path,
    out: &mut Samples,
    quality: bool,
) -> Result<(Vec<String>, f64), String> {
    let calibration = metrics::calibrate();
    let scale = metrics::REFERENCE_CALIBRATION_S / calibration;
    out.push("calibration_ms", "ms", calibration * 1e3);
    // Per-run peaks: the process-wide peak would be that of whichever
    // input happened to be largest.
    metrics::reset_peak_rss();
    let (run_s, setup_s, reports, digests) = if w.tenants == 0 {
        let r = workloads::solo_run(w, s)?;
        (r.run_s, r.setup_s, vec![r.report], vec![r.digest])
    } else {
        let r = workloads::service_run(w, s, scratch, None)?;
        out.push("resume_s", "s", r.resume_s * scale);
        out.push(
            "registry_mib",
            "MiB",
            r.registry_bytes as f64 / (1 << 20) as f64,
        );
        (r.run_s, r.setup_s, r.reports, r.digests)
    };
    if let Some(mib) = metrics::peak_rss_mib() {
        out.push("peak_rss_mib", "MiB", mib);
    }
    out.push("run_s", "s", run_s * scale);
    out.push("setup_s", "s", setup_s * scale);
    if quality {
        let cost_cents: f64 = reports.iter().map(|r| r.total_cost_cents).sum();
        out.push("cost_usd", "USD", cost_cents / 100.0);
        for report in &reports {
            out.push("f1", "fraction", report.final_true.map_or(0.0, |t| t.f1));
        }
    }
    Ok((digests, run_s))
}

/// Input `s` untraced, then traced with the layer replays; the two must
/// agree. Pushes the per-layer samples.
fn traced_rep(
    w: &Workload,
    k: u64,
    s: workloads::InputSeeds,
    scratch: &Path,
    rec: &mut Recorder,
    out: &mut Samples,
) -> Result<Vec<String>, String> {
    // Alternate which of the pair runs first, so neither is always the
    // one that finds the allocator and caches warm.
    let mut untraced = Samples::default();
    let first = if k.is_multiple_of(2) {
        Some(rep(w, s, scratch, &mut untraced, false)?)
    } else {
        None
    };
    let (traced_s, traced_digests, solo) = if w.tenants == 0 {
        let run_id = format!("{}/{k}/solo", w.name);
        let (run_s, d) = workloads::traced_solo_run(w, s, &run_id, rec, out, scratch)?;
        out.push("service.ticks", "count", 0.0);
        out.push("service.analysis_hits", "count", 0.0);
        out.push("service.tenants_resumed", "count", 0.0);
        (run_s, vec![d.clone()], d)
    } else {
        rec.set_run(format!("{}/{k}/service", w.name));
        let r = workloads::service_run(w, s, scratch, Some(rec))?;
        out.push("service.ticks", "count", r.ticks as f64);
        out.push("service.analysis_hits", "count", r.analysis_hits as f64);
        out.push("service.tenants_resumed", "count", r.tenants_resumed as f64);
        // The engine layers of a tenant, traced as a solo run of its spec.
        let run_id = format!("{}/{k}/tenant0", w.name);
        let (_, d) = workloads::traced_solo_run(w, tenant_seeds(s, 0), &run_id, rec, out, scratch)?;
        (r.run_s, r.digests, d)
    };
    let (digests, untraced_s) = match first {
        Some(r) => r,
        None => rep(w, s, scratch, &mut untraced, false)?,
    };
    if traced_digests != digests {
        return Err("traced run differs from the untraced run of the same input".into());
    }
    if solo != digests[0] {
        return Err("tenant0 differs from its solo run".into());
    }
    out.push(
        "trace.overhead_frac",
        "fraction",
        traced_s / untraced_s - 1.0,
    );
    let coverage = out
        .get("engine.coverage_frac")
        .and_then(|v| v.last().copied())
        .unwrap_or(0.0);
    if coverage < MIN_COVERAGE {
        return Err(format!(
            "engine spans cover only {:.1}% of a traced run",
            coverage * 100.0
        ));
    }
    Ok(digests)
}

/// The all-workload mode: each workload untraced and traced, each in a
/// child process of its own (so no workload inherits another's heap);
/// writes `BENCH_e2e.json` next to the manifest unless `--quick`.
fn run_all(o: &Options) -> ExitCode {
    let list: &[Workload] = if o.quick { &QUICK } else { &WORKLOADS };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut all_ok = true;
    let mut entries = Vec::new();
    for w in list {
        let mut metrics = Vec::new();
        let mut status = (true, 0.0, 0.0);
        for trace in ["0", "1"] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--seed", &o.seed.to_string()])
                .args(["--seconds", &o.seconds.to_string(), "--trace", trace])
                .stderr(Stdio::inherit());
            if o.quick {
                cmd.arg("--quick");
            }
            if let (Some(dir), "1") = (&o.trace_dir, trace) {
                cmd.arg("--trace-dir").arg(dir);
            }
            let out = match cmd.output() {
                Ok(out) => out,
                Err(e) => {
                    eprintln!("cannot run {}: {e}", exe.display());
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&out.stdout);
            print!("{stdout}");
            all_ok &= out.status.success();
            let last: Value = stdout
                .lines()
                .last()
                .and_then(|l| serde_json::from_str(l).ok())
                .unwrap_or(Value::Null);
            let num = |k: &str| match last.get(k) {
                Some(Value::Num(n)) => *n,
                _ => 0.0,
            };
            status.0 &= out.status.success() && last.get("correct") == Some(&Value::Bool(true));
            status.1 += num("attempted");
            status.2 += num("failed");
            metrics.extend(stdout.lines().filter_map(|l| metric_entry(l, trace)));
        }
        entries.push(Value::Obj(vec![
            ("name".into(), Value::Str(w.name.into())),
            ("why".into(), Value::Str(w.why.into())),
            ("dataset".into(), Value::Str(w.dataset.into())),
            ("scale".into(), Value::Num(w.scale)),
            ("threads".into(), Value::Num(workloads::THREADS as f64)),
            ("t_b".into(), Value::Num(w.t_b as f64)),
            ("tenants".into(), Value::Num(w.tenants as f64)),
            ("inputs".into(), Value::Num(w.inputs as f64)),
            ("correct".into(), Value::Bool(status.0)),
            ("attempted".into(), Value::Num(status.1)),
            ("failed".into(), Value::Num(status.2)),
            ("metrics".into(), Value::Arr(metrics)),
        ]));
    }
    if !o.quick {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_e2e.json");
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let doc = Value::Obj(vec![
            ("schema_version".into(), Value::Num(1.0)),
            ("seed".into(), Value::Num(o.seed as f64)),
            ("seconds".into(), Value::Num(o.seconds)),
            ("nproc".into(), Value::Num(nproc as f64)),
            ("git_rev".into(), Value::Str(git_rev())),
            ("workloads".into(), Value::Arr(entries)),
        ]);
        let json = serde_json::to_string_pretty(&doc).expect("a Value tree always serializes");
        if let Err(e) = std::fs::write(&path, json + "\n") {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Parse a `<workload> <metric> <value> <unit> <q1> <q3> <n>` line.
fn metric_entry(line: &str, trace: &str) -> Option<Value> {
    let f: Vec<&str> = line.split_whitespace().collect();
    let [_, name, value, unit, q1, q3, n] = f.as_slice() else {
        return None;
    };
    let num = |s: &str| s.parse::<f64>().ok().map(Value::Num);
    Some(Value::Obj(vec![
        ("name".into(), Value::Str(name.to_string())),
        ("unit".into(), Value::Str(unit.to_string())),
        ("value".into(), num(value)?),
        ("q1".into(), num(q1)?),
        ("q3".into(), num(q3)?),
        ("n".into(), num(n)?),
        ("trace".into(), num(trace)?),
    ]))
}

/// The checked-out commit, when the benchmark runs inside a git checkout.
fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}
