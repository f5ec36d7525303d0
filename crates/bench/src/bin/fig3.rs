//! Reproduces **Figure 3**: the confidence patterns the §5.3 stopping
//! rules exploit. Runs the crowdsourced active-learning matcher in three
//! regimes (easy task + perfect crowd, normal crowd, very noisy crowd)
//! and prints each run's smoothed monitoring-set confidence series with
//! the detected stopping pattern.

use bench::{make_platform, make_task, parse_args, sampled_candidates};
use corleone::lines::Lines;
use corleone::stopping::smooth;
use corleone::{run_active_learning, MatcherConfig, Threads};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    values
        .iter()
        .map(|&v| {
            let t = if hi > lo { (v - lo) / (hi - lo) } else { 0.5 };
            BARS[((t * 7.0).round() as usize).min(7)]
        })
        .collect()
}

fn main() -> ExitCode {
    let opts = parse_args();
    let mut out = Lines::stdout();
    out.print("Figure 3: confidence patterns driving the stopping rules\n");
    // Crowd noise is the main driver of which pattern fires: clean easy
    // tasks reach near-absolute confidence, moderate noise plateaus
    // (converged), heavy noise peaks then degrades.
    let scenarios = [
        ("perfect crowd, restaurants", "restaurants", 0.0),
        ("15% crowd error, citations", "citations", 0.15),
        ("25% crowd error, products", "products", 0.25),
    ];
    for (label, name, err) in scenarios {
        let ds = datagen::by_name(
            name,
            datagen::GenConfig { scale: opts.scale, seed: opts.seed },
        )
        .unwrap();
        let (task, gold) = make_task(&ds);
        let mut platform = make_platform(&ds, err, opts.seed);
        // Learn over a random slice of the Cartesian product so every
        // scenario runs in seconds regardless of dataset size.
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let cand = sampled_candidates(&task, 20_000, &mut rng);
        let seeds = task.seed_vectors();
        let cfg = MatcherConfig::default();
        let learned = run_active_learning(
            &cand,
            &seeds,
            &mut platform,
            &gold,
            &cfg,
            &mut rng,
            Threads::auto(),
        );
        let smoothed = smooth(&learned.conf_history, cfg.stopping.window);
        out.print(label);
        out.print(&format!("  iterations: {}, stop: {:?}", learned.iterations, learned.stop));
        out.print(&format!("  conf (smoothed): {}", sparkline(&smoothed)));
        let series: Vec<String> = smoothed.iter().map(|v| format!("{v:.3}")).collect();
        out.print(&format!("  series: {}\n", series.join(" ")));
    }
    out.print("Paper Fig. 3: (a) converged confidence plateaus within ±ε for 20");
    out.print("iterations; (b) near-absolute confidence ≥ 1−ε for 3 iterations, or a");
    out.print("peak followed by degradation detected over two 15-iteration windows.");
    out.finish()
}
