//! Crowdsourced active learning (paper §5), shared by the Blocker (which
//! runs it on the sample `S`, §4.1 step 3) and the Matcher (which runs it
//! on the candidate set `C`).
//!
//! Loop: train a random forest on the labeled examples so far → measure
//! its confidence on a held-out monitoring set → check the §5.3 stopping
//! patterns → pick the next batch of informative examples (top-`p` vote
//! entropy, weight-sampled down to `q` for diversity) → have the crowd
//! label them under the `2+1` scheme → repeat.

use crate::candidates::CandidateSet;
use crate::config::MatcherConfig;
use crate::stopping::{check, peak_index, StopDecision};
use crowd::{CrowdPlatform, PairKey, Scheme, TruthOracle};
use exec::Threads;
use forest::{Dataset, RandomForest};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Why the learning loop ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StopReason {
    /// One of the §5.3 confidence patterns fired.
    Pattern(StopDecision),
    /// Every selectable candidate has been labeled.
    Exhausted,
    /// The safety-net iteration cap was reached.
    MaxIterations,
    /// The engine's monetary budget ran out mid-phase.
    Budget,
}

/// Result of an active-learning run.
#[derive(Debug, Clone)]
pub struct LearnOutcome {
    /// The selected classifier (rolled back to the confidence peak when
    /// the run stopped on the degrading pattern).
    pub forest: RandomForest,
    /// AL iterations executed (= forests trained).
    pub iterations: usize,
    /// Why the loop stopped.
    pub stop: StopReason,
    /// Per-iteration monitoring-set confidence (raw, unsmoothed).
    pub conf_history: Vec<f64>,
    /// Candidate indices the crowd labeled positive — the set `T` used for
    /// rule precision upper bounds (§4.2 step 1).
    pub crowd_positives: Vec<usize>,
    /// Candidate indices the crowd labeled negative.
    pub crowd_negatives: Vec<usize>,
    /// Distinct pairs labeled by the crowd during this run.
    pub pairs_labeled: usize,
}

impl LearnOutcome {
    /// Crowd labels gathered during the run as `(candidate index, label)`.
    pub fn crowd_labels(&self) -> impl Iterator<Item = (usize, bool)> + '_ {
        self.crowd_positives
            .iter()
            .map(|&i| (i, true))
            .chain(self.crowd_negatives.iter().map(|&i| (i, false)))
    }
}

/// Compute vote entropies of the given candidate indices, in their order:
/// each row's vote count ([`CandidateSet::positive_votes`], a column scan
/// in parallel for large sets) looked up in the forest's
/// [`RandomForest::entropy_table`].
pub fn entropies(
    forest: &RandomForest,
    cand: &CandidateSet,
    indices: &[usize],
    threads: Threads,
) -> Vec<f64> {
    let table = forest.entropy_table();
    cand.positive_votes(forest, indices, threads).into_iter().map(|v| table[v]).collect()
}

/// Rank an `(index, entropy)` pool for batch selection: highest entropy
/// first, truncated to `pool_size`. Uses `total_cmp`, so a NaN entropy (a
/// degenerate forest can produce one) gets a fixed position in the order
/// instead of panicking the run mid-iteration — the PR 2 comparator
/// incident, memorialized by `constant_feature_task_survives_importance_sort`.
fn rank_pool(pool: &mut Vec<(usize, f64)>, pool_size: usize) {
    pool.sort_unstable_by(|a, b| b.1.total_cmp(&a.1));
    pool.truncate(pool_size);
}

/// Run crowdsourced active learning over `cand`.
///
/// `seed_examples` are the user's four labeled pairs, given as feature
/// vectors (they need not belong to `cand`). Labels for everything else
/// come from the crowd via `platform`.
pub fn run_active_learning(
    cand: &CandidateSet,
    seed_examples: &[(Vec<f64>, bool)],
    platform: &mut CrowdPlatform,
    oracle: &dyn TruthOracle,
    cfg: &MatcherConfig,
    rng: &mut StdRng,
    threads: Threads,
) -> LearnOutcome {
    assert!(!seed_examples.is_empty(), "need initial labeled examples");
    let n_features = cand.n_features();

    // Monitoring set V: a random monitor_fraction of C, set aside (§5.3).
    // At least one pair, at most half of C: a one-pair C has no monitor.
    let mut all: Vec<usize> = (0..cand.len()).collect();
    all.shuffle(rng);
    let n_monitor = ((cand.len() as f64 * cfg.monitor_fraction).round() as usize)
        .max(1.min(cand.len()))
        .min(cand.len() / 2);
    let monitor: Vec<usize> = all[..n_monitor].to_vec();
    // The monitor's rows, gathered once in its order: random rows spread
    // over all of `cand`, scored densely every iteration.
    let monitor_rows = cand.subset(&monitor);
    let monitor_all: Vec<usize> = (0..n_monitor).collect();
    // Candidates out of the selection pool: the monitor set and every
    // pair labeled so far.
    let mut taken = vec![false; cand.len()];
    for &i in &monitor {
        taken[i] = true;
    }

    let mut train = Dataset::new(n_features);
    for (x, l) in seed_examples {
        train.push(x, *l);
    }
    let train_all = |t: &Dataset, rng: &mut StdRng| {
        let idx: Vec<usize> = (0..t.len()).collect();
        RandomForest::train_par(t, &idx, &cfg.forest, rng, threads)
    };

    let mut crowd_positives = Vec::new();
    let mut crowd_negatives = Vec::new();
    let mut pairs_labeled = 0usize;
    let mut conf_history: Vec<f64> = Vec::new();
    let mut snapshots: Vec<RandomForest> = Vec::new();
    let mut stop = StopReason::MaxIterations;

    for _iter in 0..cfg.max_iterations {
        let forest = train_all(&train, rng);
        // Mean confidence over V, summed in the monitor's (random) order.
        let conf = if monitor.is_empty() {
            1.0
        } else {
            let table = forest.entropy_table();
            monitor_rows
                .positive_votes(&forest, &monitor_all, threads)
                .into_iter()
                .map(|v| 1.0 - table[v])
                .sum::<f64>()
                / monitor.len() as f64
        };
        conf_history.push(conf);
        snapshots.push(forest);

        let decision = check(&conf_history, &cfg.stopping);
        if decision.should_stop() {
            stop = StopReason::Pattern(decision);
            break;
        }
        if let Some(cap) = cfg.budget_cents_cap {
            if platform.ledger().total_cents >= cap {
                stop = StopReason::Budget;
                break;
            }
        }

        // Select the next batch: top-p entropy, then entropy-weighted
        // sampling of q for diversity (§5.2).
        let selectable: Vec<usize> = (0..cand.len()).filter(|&i| !taken[i]).collect();
        if selectable.is_empty() {
            stop = StopReason::Exhausted;
            break;
        }
        let forest = snapshots.last().expect("just pushed");
        let ent = entropies(forest, cand, &selectable, threads);
        let mut pool: Vec<(usize, f64)> =
            selectable.iter().copied().zip(ent).collect();
        rank_pool(&mut pool, cfg.pool_size);
        let batch = weighted_sample_without_replacement(&pool, cfg.batch_size, rng);

        let keys: Vec<PairKey> = batch.iter().map(|&i| cand.pair(i)).collect();
        let labeled = platform.label_batch(oracle, &keys, Scheme::TwoPlusOne);
        if labeled.is_empty() {
            stop = StopReason::Exhausted;
            break;
        }
        for (key, label) in labeled {
            // The crowd answers only the pairs it was asked about.
            let pos = keys.iter().position(|&k| k == key).expect("labeled pair was requested");
            let idx = batch[pos];
            if taken[idx] {
                continue;
            }
            taken[idx] = true;
            train.push(&cand.row(idx), label);
            pairs_labeled += 1;
            if label {
                crowd_positives.push(idx);
            } else {
                crowd_negatives.push(idx);
            }
        }
    }

    // Pick the classifier to return: on a degrading stop, roll back to
    // "the last classifier before degrading" — the smoothed-confidence
    // peak (§5.3); otherwise the latest.
    let chosen = match stop {
        StopReason::Pattern(StopDecision::Degrading) => {
            peak_index(&conf_history, &cfg.stopping)
        }
        _ => snapshots.len() - 1,
    };
    LearnOutcome {
        forest: snapshots.swap_remove(chosen),
        iterations: conf_history.len(),
        stop,
        conf_history,
        crowd_positives,
        crowd_negatives,
        pairs_labeled,
    }
}

/// Sample up to `k` items without replacement with probability
/// proportional to weight. Zero-weight items are only chosen after all
/// positive-weight items (uniformly at random).
fn weighted_sample_without_replacement(
    pool: &[(usize, f64)],
    k: usize,
    rng: &mut StdRng,
) -> Vec<usize> {
    let mut remaining: Vec<(usize, f64)> = pool.to_vec();
    let mut out = Vec::with_capacity(k.min(remaining.len()));
    while out.len() < k && !remaining.is_empty() {
        let total: f64 = remaining.iter().map(|(_, w)| *w).sum();
        let pick = if total <= 0.0 {
            rng.gen_range(0..remaining.len())
        } else {
            let mut t = rng.gen_range(0.0..total);
            let mut chosen = remaining.len() - 1;
            for (j, (_, w)) in remaining.iter().enumerate() {
                if t < *w {
                    chosen = j;
                    break;
                }
                t -= *w;
            }
            chosen
        };
        out.push(remaining.swap_remove(pick).0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::task_from_parts;
    use crate::task::MatchTask;
    use crowd::{CrowdConfig, GoldOracle, WorkerPool};
    use rand::SeedableRng;
    use similarity::{Attribute, Schema, Table, Value};
    use std::collections::HashSet;
    use std::sync::Arc;

    /// A task where identical names match: 30 A records, 40 B records,
    /// B[0..30] mirror A with light renaming; gold = diagonal.
    fn toy() -> (MatchTask, GoldOracle) {
        let schema = Arc::new(Schema::new(vec![Attribute::text("name")]));
        let a_rows: Vec<Vec<Value>> = (0..30)
            .map(|i| vec![Value::Text(format!("widget alpha {i}"))])
            .collect();
        let mut b_rows: Vec<Vec<Value>> = (0..30)
            .map(|i| vec![Value::Text(format!("widget alpha {i}"))])
            .collect();
        b_rows.extend((0..10).map(|i| vec![Value::Text(format!("gizmo beta {i}"))]));
        let a = Table::new("a", schema.clone(), a_rows);
        let b = Table::new("b", schema, b_rows);
        let task = task_from_parts(a, b, "same widget", [(0, 0), (1, 1)], [(0, 35), (2, 33)]);
        let gold = GoldOracle::from_pairs((0..30).map(|i| (i, i)));
        (task, gold)
    }

    fn run(cfg: &MatcherConfig, err: f64) -> (LearnOutcome, CandidateSet, GoldOracle) {
        let (task, gold) = toy();
        let cand = CandidateSet::full_cartesian(&task);
        let seeds = task.seed_vectors();
        let pool = if err == 0.0 {
            WorkerPool::perfect(5)
        } else {
            WorkerPool::uniform(5, err)
        };
        let mut platform = CrowdPlatform::new(pool, CrowdConfig::default());
        let mut rng = StdRng::seed_from_u64(77);
        let out = run_active_learning(
            &cand,
            &seeds,
            &mut platform,
            &gold,
            cfg,
            &mut rng,
            Threads::new(2),
        );
        (out, cand, gold)
    }

    fn small_cfg() -> MatcherConfig {
        MatcherConfig {
            max_iterations: 30,
            stopping: crate::config::StoppingConfig {
                n_converged: 8,
                n_degrade: 6,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn learns_the_diagonal() {
        let (out, cand, gold) = run(&small_cfg(), 0.0);
        assert!(out.iterations >= 2);
        let mut tp = 0;
        let mut pp = 0;
        for i in 0..cand.len() {
            if out.forest.predict(&cand.row(i)) {
                pp += 1;
                if gold.true_label(cand.pair(i)) {
                    tp += 1;
                }
            }
        }
        assert!(pp > 0, "must predict some matches");
        let precision = tp as f64 / pp as f64;
        let recall = tp as f64 / 30.0;
        assert!(precision > 0.9, "precision {precision}");
        assert!(recall > 0.9, "recall {recall}");
    }

    #[test]
    fn confidence_history_recorded_each_iteration() {
        let (out, _, _) = run(&small_cfg(), 0.0);
        assert_eq!(out.conf_history.len(), out.iterations);
        assert!(out
            .conf_history
            .iter()
            .all(|&c| (1.0 - std::f64::consts::LN_2 - 1e-9..=1.0).contains(&c)));
    }

    #[test]
    fn crowd_labels_are_tracked() {
        let (out, cand, gold) = run(&small_cfg(), 0.0);
        assert!(out.pairs_labeled > 0);
        assert_eq!(
            out.pairs_labeled,
            out.crowd_positives.len() + out.crowd_negatives.len()
        );
        // With a perfect crowd every tracked positive is a gold match.
        for &i in &out.crowd_positives {
            assert!(gold.true_label(cand.pair(i)));
        }
    }

    #[test]
    fn stops_with_a_reason() {
        let (out, _, _) = run(&small_cfg(), 0.0);
        match out.stop {
            StopReason::Pattern(d) => assert!(d.should_stop()),
            StopReason::Exhausted | StopReason::MaxIterations | StopReason::Budget => {}
        }
    }

    #[test]
    fn noisy_crowd_still_learns() {
        let (out, cand, gold) = run(&small_cfg(), 0.1);
        let mut correct = 0;
        for i in 0..cand.len() {
            if out.forest.predict(&cand.row(i)) == gold.true_label(cand.pair(i)) {
                correct += 1;
            }
        }
        let acc = correct as f64 / cand.len() as f64;
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn weighted_sampling_prefers_heavy_items() {
        let mut rng = StdRng::seed_from_u64(5);
        let pool: Vec<(usize, f64)> =
            (0..10).map(|i| (i, if i == 0 { 100.0 } else { 0.01 })).collect();
        let mut count0 = 0;
        for _ in 0..200 {
            let s = weighted_sample_without_replacement(&pool, 1, &mut rng);
            if s[0] == 0 {
                count0 += 1;
            }
        }
        assert!(count0 > 180, "{count0}");
    }

    #[test]
    fn weighted_sampling_handles_zero_weights() {
        let mut rng = StdRng::seed_from_u64(6);
        let pool: Vec<(usize, f64)> = (0..5).map(|i| (i, 0.0)).collect();
        let s = weighted_sample_without_replacement(&pool, 3, &mut rng);
        assert_eq!(s.len(), 3);
        let distinct: HashSet<usize> = s.iter().copied().collect();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn nan_entropy_pool_ranks_deterministically() {
        // Regression (the D1 rule's provenance, same family as PR 2's
        // constant-feature incident): the entropy ranking used
        // `partial_cmp(..).expect("entropy is finite")` and panicked the
        // whole run if a degenerate forest produced a NaN entropy.
        // `total_cmp` must instead give NaN a fixed place in the order so
        // the pool stays deterministic across runs and thread counts.
        let mut pool: Vec<(usize, f64)> =
            vec![(0, 0.3), (1, f64::NAN), (2, 0.9), (3, f64::NAN), (4, 0.0)];
        rank_pool(&mut pool, 4);
        // total_cmp orders positive NaN above every finite value, so the
        // NaN entries lead (in stable index order), then descending finite.
        let got: Vec<usize> = pool.iter().map(|&(i, _)| i).collect();
        assert_eq!(got, vec![1, 3, 2, 0]);

        // Byte-identical across repeated runs on a fresh clone.
        let mut again: Vec<(usize, f64)> =
            vec![(0, 0.3), (1, f64::NAN), (2, 0.9), (3, f64::NAN), (4, 0.0)];
        rank_pool(&mut again, 4);
        let got_again: Vec<usize> = again.iter().map(|&(i, _)| i).collect();
        assert_eq!(got, got_again);
    }
}
