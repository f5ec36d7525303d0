//! `corleone-cli` — hands-off entity matching from the command line.
//!
//! Exactly the paper's user contract (§3): two CSV tables, a one-line
//! instruction, and four seed pairs. The crowd is either simulated from a
//! gold-pairs CSV (for evaluation) or *you*, answering match questions
//! interactively — which makes the CLI a literal single-worker
//! hands-off-crowdsourcing deployment.
//!
//! ```text
//! corleone-cli --table-a a.csv --table-b b.csv \
//!     --instruction "match if same product" \
//!     --pos 0:0,1:1 --neg 0:5,2:7 \
//!     --gold gold.csv [--error 0.05] [--budget 5.00] [--out report.json]
//!
//! corleone-cli --table-a a.csv --table-b b.csv \
//!     --instruction "match if same person" \
//!     --pos 0:0,1:1 --neg 0:5,2:7 --interactive
//! ```
//!
//! Stdout, interactive questions included, goes through
//! [`exec::lines::Lines`]: a reader that closes the pipe early ends
//! the printing, not the run, and `--out` is still written.

use corleone::{CorleoneConfig, Engine, MatchTask, RunSession};
use crowd::hit::render_question;
use crowd::{CrowdConfig, CrowdPlatform, GoldOracle, PairKey, TruthOracle, WorkerPool};
use exec::lines::Lines;
use similarity::csv::{parse_csv, table_from_csv, table_from_csv_with_schema};
use similarity::Table;
use std::cell::RefCell;
use std::collections::HashSet;
use std::io::{BufRead, StdoutLock};
use std::process::{exit, ExitCode};

struct Args {
    table_a: String,
    table_b: String,
    instruction: String,
    pos: Vec<(u32, u32)>,
    neg: Vec<(u32, u32)>,
    gold: Option<String>,
    interactive: bool,
    error_rate: f64,
    workers: usize,
    price_cents: f64,
    budget_dollars: Option<f64>,
    out: Option<String>,
    seed: u64,
    small: bool,
    checkpoint_dir: Option<String>,
    checkpoint_every: usize,
    checkpoint_keep: usize,
    resume_from: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "corleone-cli — hands-off crowdsourced entity matching

required:
  --table-a <file.csv>       table A (header + rows)
  --table-b <file.csv>       table B (same header)
  --instruction <text>       what 'match' means, shown to the crowd
  --pos a:b,a:b              two matching seed pairs (row indices)
  --neg a:b,a:b              two non-matching seed pairs
and one of:
  --gold <file.csv>          gold matches (a_id,b_id) → simulated crowd
  --interactive              you answer the match questions on stdin

options:
  --error <f>                simulated worker error rate (default 0.05)
  --workers <n>              simulated pool size (default 25)
  --price-cents <f>          pay per answer (default 1.0)
  --budget <dollars>         stop once this much is spent
  --seed <n>                 rng seed (default 42)
  --small                    small-task configuration
  --out <file.json>          write the full run report as JSON
  --checkpoint-dir <dir>     write crash-safe run snapshots into <dir>
  --checkpoint-every <n>     snapshot every n iterations (default 1)
  --checkpoint-keep <n>      retain last n snapshots, 0 = all (default 3)
  --resume-from <snap.json>  continue an interrupted run from a snapshot"
    );
    exit(2)
}

fn parse_pairs(s: &str) -> Vec<(u32, u32)> {
    s.split(',')
        .map(|p| {
            let (a, b) = p.split_once(':').unwrap_or_else(|| {
                eprintln!("bad pair '{p}', expected a:b");
                exit(2)
            });
            (
                a.trim().parse().unwrap_or_else(|_| {
                    eprintln!("bad id '{a}'");
                    exit(2)
                }),
                b.trim().parse().unwrap_or_else(|_| {
                    eprintln!("bad id '{b}'");
                    exit(2)
                }),
            )
        })
        .collect()
}

fn parse_args() -> Args {
    let mut args = Args {
        table_a: String::new(),
        table_b: String::new(),
        instruction: String::new(),
        pos: vec![],
        neg: vec![],
        gold: None,
        interactive: false,
        error_rate: 0.05,
        workers: 25,
        price_cents: 1.0,
        budget_dollars: None,
        out: None,
        seed: 42,
        small: false,
        checkpoint_dir: None,
        checkpoint_every: 1,
        checkpoint_keep: store::DEFAULT_KEEP_LAST,
        resume_from: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let value = |i: usize| -> &str {
            argv.get(i + 1).map(|s| s.as_str()).unwrap_or_else(|| {
                eprintln!("missing value for {}", argv[i]);
                exit(2)
            })
        };
        match argv[i].as_str() {
            "--table-a" => args.table_a = value(i).to_string(),
            "--table-b" => args.table_b = value(i).to_string(),
            "--instruction" => args.instruction = value(i).to_string(),
            "--pos" => args.pos = parse_pairs(value(i)),
            "--neg" => args.neg = parse_pairs(value(i)),
            "--gold" => args.gold = Some(value(i).to_string()),
            "--error" => args.error_rate = value(i).parse().unwrap_or_else(|_| usage()),
            "--workers" => args.workers = value(i).parse().unwrap_or_else(|_| usage()),
            "--price-cents" => args.price_cents = value(i).parse().unwrap_or_else(|_| usage()),
            "--budget" => args.budget_dollars = Some(value(i).parse().unwrap_or_else(|_| usage())),
            "--seed" => args.seed = value(i).parse().unwrap_or_else(|_| usage()),
            "--out" => args.out = Some(value(i).to_string()),
            "--checkpoint-dir" => args.checkpoint_dir = Some(value(i).to_string()),
            "--checkpoint-every" => {
                args.checkpoint_every = value(i).parse().unwrap_or_else(|_| usage())
            }
            "--checkpoint-keep" => {
                args.checkpoint_keep = value(i).parse().unwrap_or_else(|_| usage())
            }
            "--resume-from" => args.resume_from = Some(value(i).to_string()),
            "--interactive" => {
                args.interactive = true;
                i += 1;
                continue;
            }
            "--small" => {
                args.small = true;
                i += 1;
                continue;
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
        i += 2;
    }
    if args.table_a.is_empty()
        || args.table_b.is_empty()
        || args.instruction.is_empty()
        || args.pos.len() != 2
        || args.neg.len() != 2
        || (args.gold.is_none() && !args.interactive)
    {
        usage()
    }
    args
}

/// Thread the `--checkpoint-*` / `--resume-from` flags into a session.
fn apply_checkpointing<'s>(mut session: RunSession<'s>, args: &Args) -> RunSession<'s> {
    if let Some(dir) = &args.checkpoint_dir {
        session = session
            .checkpoint_dir(dir)
            .checkpoint_every(args.checkpoint_every)
            .checkpoint_keep(args.checkpoint_keep);
    }
    if let Some(path) = &args.resume_from {
        session = session.resume_from(path);
    }
    session
}

/// Oracle that asks the human at the terminal, remembering answers.
struct StdinOracle<'o> {
    table_a: Table,
    table_b: Table,
    instruction: String,
    answers: RefCell<std::collections::HashMap<PairKey, bool>>,
    out: &'o RefCell<Lines<StdoutLock<'static>>>,
}

impl TruthOracle for StdinOracle<'_> {
    fn true_label(&self, pair: PairKey) -> bool {
        if let Some(&l) = self.answers.borrow().get(&pair) {
            return l;
        }
        let q = render_question(
            &self.table_a.schema,
            self.table_a.record(pair.a),
            self.table_b.record(pair.b),
            &self.instruction,
        );
        let stdin = std::io::stdin();
        loop {
            self.out.borrow_mut().print(&format!("\n{q}\nyour answer [y/n]:"));
            let mut line = String::new();
            if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
                eprintln!("stdin closed; treating as 'no'");
                self.answers.borrow_mut().insert(pair, false);
                return false;
            }
            match line.trim().to_ascii_lowercase().as_str() {
                "y" | "yes" => {
                    self.answers.borrow_mut().insert(pair, true);
                    return true;
                }
                "n" | "no" => {
                    self.answers.borrow_mut().insert(pair, false);
                    return false;
                }
                _ => self.out.borrow_mut().print("please answer y or n"),
            }
        }
    }
}

fn load_gold(path: &str) -> HashSet<PairKey> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1)
    });
    let records = parse_csv(&text).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        exit(1)
    });
    records
        .iter()
        .filter(|r| !r[0].trim().eq_ignore_ascii_case("a_id")) // optional header
        .map(|r| {
            if r.len() < 2 {
                eprintln!("gold rows need two columns a_id,b_id");
                exit(1)
            }
            PairKey::new(
                r[0].trim().parse().unwrap_or_else(|_| {
                    eprintln!("bad gold id {:?}", r[0]);
                    exit(1)
                }),
                r[1].trim().parse().unwrap_or_else(|_| {
                    eprintln!("bad gold id {:?}", r[1]);
                    exit(1)
                }),
            )
        })
        .collect()
}

fn main() -> ExitCode {
    let args = parse_args();
    let out = RefCell::new(Lines::stdout());
    let read = |p: &str| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("cannot read {p}: {e}");
            exit(1)
        })
    };
    let table_a = table_from_csv("table_a", &read(&args.table_a)).unwrap_or_else(|e| {
        eprintln!("{}: {e}", args.table_a);
        exit(1)
    });
    let table_b =
        table_from_csv_with_schema("table_b", &read(&args.table_b), table_a.schema.clone())
            .unwrap_or_else(|e| {
                eprintln!("{}: {e}", args.table_b);
                exit(1)
            });

    let seeds = args
        .pos
        .iter()
        .map(|&(a, b)| (PairKey::new(a, b), true))
        .chain(args.neg.iter().map(|&(a, b)| (PairKey::new(a, b), false)))
        .collect();
    let task = MatchTask::new(table_a.clone(), table_b.clone(), &args.instruction, seeds);

    let cfg = {
        let mut c = if args.small { CorleoneConfig::small() } else { CorleoneConfig::default() };
        c.engine.budget_cents = args.budget_dollars.map(|d| d * 100.0);
        c
    };
    let engine = Engine::new(cfg).with_seed(args.seed);

    let report = if args.interactive {
        // You are the crowd: one perfect "worker" whose answers come from
        // the terminal (each distinct question is asked once and cached).
        let oracle = StdinOracle {
            table_a,
            table_b,
            instruction: args.instruction.clone(),
            answers: RefCell::new(Default::default()),
            out: &out,
        };
        let mut platform = CrowdPlatform::new(
            WorkerPool::perfect(1),
            CrowdConfig { price_cents: args.price_cents, seed: args.seed, ..Default::default() },
        );
        eprintln!("interactive mode: you will be asked to label pairs.\n");
        let session = engine.session(&task).platform(&mut platform).oracle(&oracle);
        apply_checkpointing(session, &args).try_run()
    } else {
        let gold = load_gold(args.gold.as_deref().expect("checked"));
        let oracle = GoldOracle::new(gold.clone());
        let pool = if args.error_rate == 0.0 {
            WorkerPool::perfect(args.workers)
        } else {
            WorkerPool::uniform(args.workers, args.error_rate)
        };
        let mut platform = CrowdPlatform::new(
            pool,
            CrowdConfig { price_cents: args.price_cents, seed: args.seed, ..Default::default() },
        );
        let session =
            engine.session(&task).platform(&mut platform).oracle(&oracle).gold(&gold);
        apply_checkpointing(session, &args).try_run()
    };

    let report = report.unwrap_or_else(|e| {
        eprintln!("run failed: {e}");
        exit(1)
    });

    let mut out = out.into_inner();
    out.print(&format!("matches: {}", report.predicted_matches.len()));
    for p in report.predicted_matches.iter().take(20) {
        out.print(&format!("  {}:{}", p.a, p.b));
    }
    if report.predicted_matches.len() > 20 {
        out.print(&format!("  … and {} more", report.predicted_matches.len() - 20));
    }
    if let Some(est) = &report.final_estimate {
        out.print(&format!(
            "estimated accuracy: P={:.1}% (±{:.3}) R={:.1}% (±{:.3}) F1={:.1}%",
            est.precision * 100.0,
            est.eps_p,
            est.recall * 100.0,
            est.eps_r,
            est.f1 * 100.0
        ));
    }
    if let Some(t) = report.final_true {
        out.print(&format!(
            "true accuracy (vs gold): P={:.1}% R={:.1}% F1={:.1}%",
            t.precision * 100.0,
            t.recall * 100.0,
            t.f1 * 100.0
        ));
    }
    out.print(&format!(
        "crowd cost: ${:.2}, pairs labeled: {}, termination: {:?}",
        report.total_cost_dollars(),
        report.total_pairs_labeled,
        report.termination
    ));
    if let Some(it) = report.perf.resumed_from_iteration {
        out.print(&format!("resumed from snapshot at iteration {it}"));
    }
    if report.perf.snapshots_written > 0 {
        out.print(&format!(
            "snapshots written: {} (latest in {})",
            report.perf.snapshots_written,
            args.checkpoint_dir.as_deref().unwrap_or("?"),
        ));
    }
    if let Some(path) = args.out {
        let json = serde_json::to_string_pretty(&report).unwrap_or_else(|e| {
            eprintln!("cannot serialize report: {e}");
            exit(1)
        });
        std::fs::write(&path, json).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            exit(1)
        });
        out.print(&format!("full report written to {path}"));
    }
    out.finish()
}
