//! The simulated crowdsourcing platform Corleone talks to.
//!
//! One call matters: [`CrowdPlatform::label_batch`] — "get this batch of
//! pairs labeled under this voting scheme". Behind it sit the worker pool,
//! HIT packing with the §8.3 cache interaction, the vote resolution of
//! §8.2, and a money/label ledger that the experiment tables report.
//!
//! Faithful to the paper, a batch request may return labels for only a
//! *subset* of the requested pairs: HITs always carry 10 questions, and
//! leftover questions that cannot fill a HIT are dropped when the batch
//! already produced labels (cached or fresh). When a batch would otherwise
//! return nothing, one HIT is padded with repeated questions (duplicates
//! are paid for and discarded) so progress is always made.
//!
//! ## Faults and recovery
//!
//! A platform built with [`CrowdPlatform::with_faults`] injects the
//! marketplace failure modes of [`FaultConfig`] — HIT expiry, assignment
//! abandonment, worker no-shows and attrition, transient outages — from a
//! dedicated seeded RNG stream, and recovers per its [`RetryPolicy`]:
//! unresolved questions are repacked and reposted with exponential backoff
//! (charged to `Ledger.simulated_secs`) and optional price escalation.
//! A HIT that exhausts its repost budget surfaces its questions as
//! *unlabeled* (the batch contract already permits subsets) and bumps
//! `FaultStats.hits_failed`. With the default zeroed [`FaultConfig`] the
//! fault RNG is never drawn and the platform behaves exactly like one
//! without the fault layer.

use crate::cache::{LabelCache, Strength};
use crate::fault::{CrowdError, FaultConfig, FaultStats, RetryPolicy};
use crate::hit::{Hit, HIT_SIZE};
use crate::oracle::{PairKey, TruthOracle};
use crate::voting::{resolve, Scheme};
use crate::worker::WorkerPool;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Platform configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrowdConfig {
    /// Price per solicited answer, in cents (the paper pays 1¢ per
    /// question for Restaurants/Citations, 2¢ for Products).
    pub price_cents: f64,
    /// RNG seed for worker selection and error draws.
    pub seed: u64,
    /// Mean seconds a worker takes to answer one question when paid
    /// [`Self::reference_price_cents`]. Models the §10 money–time
    /// trade-off: "paying more per question often gets the crowd to
    /// answer faster".
    pub base_latency_secs: f64,
    /// Price at which `base_latency_secs` applies.
    pub reference_price_cents: f64,
    /// Latency elasticity: latency scales by
    /// `(reference_price / price)^elasticity`. 0 disables the model.
    pub latency_elasticity: f64,
}

impl Default for CrowdConfig {
    fn default() -> Self {
        CrowdConfig {
            price_cents: 1.0,
            seed: 0,
            base_latency_secs: 30.0,
            reference_price_cents: 1.0,
            latency_elasticity: 0.5,
        }
    }
}

/// Running totals of crowd activity and spend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Ledger {
    /// Individual worker answers solicited (each is paid).
    pub answers_solicited: u64,
    /// Question slots sent to the crowd, including padding duplicates.
    /// Slots of an expired HIT are not counted (the HIT never ran).
    pub questions_asked: u64,
    /// HITs posted, including reposts of faulted HITs.
    pub hits_posted: u64,
    /// Distinct pairs labeled by the crowd (excludes cache hits).
    pub pairs_labeled: u64,
    /// Pairs served from the label cache instead of the crowd.
    pub cache_hits: u64,
    /// Total spend in cents.
    pub total_cents: f64,
    /// Simulated wall-clock seconds of crowd work, including retry
    /// backoff and outage delays. HITs posted in one batch run in
    /// parallel across workers; questions within a HIT are answered
    /// sequentially by each assignee.
    pub simulated_secs: f64,
}

/// Complete serializable state of a [`CrowdPlatform`] mid-run, captured by
/// [`CrowdPlatform::export_state`] for checkpointing and restored by
/// [`CrowdPlatform::import_state`].
///
/// The two RNG stream positions travel as hex-string word arrays rather
/// than numbers: the vendored JSON layer routes numbers through `f64`,
/// which cannot represent the full `u64` range of xoshiro state words.
/// Restoring the *positions* (not just the seeds) is what makes a resumed
/// run draw the exact same worker answers and fault events an
/// uninterrupted run would have drawn.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlatformState {
    /// Worker pool, including any attrition that already happened.
    pub workers: WorkerPool,
    /// Platform configuration.
    pub cfg: CrowdConfig,
    /// Every crowd label produced so far.
    pub cache: LabelCache,
    /// Cumulative spend/label/simulated-clock ledger.
    pub ledger: Ledger,
    /// Fault injection configuration.
    pub faults: FaultConfig,
    /// Recovery policy.
    pub retry: RetryPolicy,
    /// Cumulative fault counters.
    pub fault_stats: FaultStats,
    /// Worker-RNG stream position (hex words).
    pub rng_state: [String; 4],
    /// Fault-RNG stream position (hex words).
    pub fault_rng_state: [String; 4],
}

/// Result of driving one HIT to completion or retry exhaustion.
struct HitRun {
    /// Labels produced across all attempts. Questions that exhausted the
    /// repost budget are simply absent (callers requery or give up).
    labeled: Vec<(PairKey, bool)>,
    /// Total simulated duration, including backoff between attempts.
    secs: f64,
}

/// Consecutive zero-progress rounds after which [`CrowdPlatform::try_label_all`]
/// reports the remaining pairs as unlabelable.
const MAX_STALLED_ROUNDS: u32 = 3;

/// The simulated platform: workers + cache + ledger (+ optional faults).
#[derive(Debug, Clone)]
pub struct CrowdPlatform {
    workers: WorkerPool,
    cfg: CrowdConfig,
    cache: LabelCache,
    ledger: Ledger,
    rng: StdRng,
    faults: FaultConfig,
    retry: RetryPolicy,
    fault_rng: StdRng,
    fault_stats: FaultStats,
}

impl CrowdPlatform {
    /// Create a fault-free platform over a worker pool.
    pub fn new(workers: WorkerPool, cfg: CrowdConfig) -> Self {
        Self::with_faults(workers, cfg, FaultConfig::default(), RetryPolicy::default())
    }

    /// Create a platform with fault injection and a recovery policy.
    ///
    /// # Panics
    /// Panics if a fault probability is outside `[0, 1]` (construction-time
    /// misuse, not a runtime fault).
    pub fn with_faults(
        workers: WorkerPool,
        cfg: CrowdConfig,
        faults: FaultConfig,
        retry: RetryPolicy,
    ) -> Self {
        faults.validate();
        let rng = StdRng::seed_from_u64(cfg.seed);
        // Dedicated stream: mixing in a constant decorrelates it from the
        // worker RNG even when both seeds are equal.
        let fault_rng = StdRng::seed_from_u64(faults.seed ^ 0xFA17_1A3E_C7ED_5EED);
        CrowdPlatform {
            workers,
            cfg,
            cache: LabelCache::new(),
            ledger: Ledger::default(),
            rng,
            faults,
            retry,
            fault_rng,
            fault_stats: FaultStats::default(),
        }
    }

    /// The running ledger.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// The label cache (all crowd labels produced so far).
    pub fn cache(&self) -> &LabelCache {
        &self.cache
    }

    /// Fault and recovery counters.
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fault_stats
    }

    /// The worker pool (shrinks under attrition faults).
    pub fn workers(&self) -> &WorkerPool {
        &self.workers
    }

    /// Capture the platform's complete state for a checkpoint: pool,
    /// config, label cache, ledger, fault layer, and — crucially — the
    /// exact positions of both RNG streams.
    pub fn export_state(&self) -> PlatformState {
        PlatformState {
            workers: self.workers.clone(),
            cfg: self.cfg.clone(),
            cache: self.cache.clone(),
            ledger: self.ledger,
            faults: self.faults,
            retry: self.retry,
            fault_stats: self.fault_stats,
            rng_state: store::encode_rng_state(self.rng.state()),
            fault_rng_state: store::encode_rng_state(self.fault_rng.state()),
        }
    }

    /// Reconstruct a platform from an exported state. The result is
    /// behaviorally indistinguishable from the platform at export time:
    /// both RNG streams continue from their recorded positions, so
    /// subsequent worker answers and fault draws match what the original
    /// platform would have produced.
    pub fn import_state(state: &PlatformState) -> Result<Self, store::StoreError> {
        state.faults.validate();
        Ok(CrowdPlatform {
            workers: state.workers.clone(),
            cfg: state.cfg.clone(),
            cache: state.cache.clone(),
            ledger: state.ledger,
            rng: StdRng::from_state(store::decode_rng_state(&state.rng_state)?),
            faults: state.faults,
            retry: state.retry,
            fault_rng: StdRng::from_state(store::decode_rng_state(&state.fault_rng_state)?),
            fault_stats: state.fault_stats,
        })
    }

    /// Label a batch of pairs under `scheme`. Returns `(pair, label)` for
    /// every pair that ended up labeled — possibly a subset of the request
    /// (see module docs; under faults, pairs whose HIT exhausted its
    /// reposts are also missing). Duplicate pairs in the request are
    /// collapsed.
    pub fn label_batch(
        &mut self,
        oracle: &dyn TruthOracle,
        pairs: &[PairKey],
        scheme: Scheme,
    ) -> Vec<(PairKey, bool)> {
        // Deduplicate, preserving request order.
        let mut seen = HashSet::new();
        let pairs: Vec<PairKey> = pairs
            .iter()
            .copied()
            .filter(|p| seen.insert(*p))
            .collect();

        let mut results: Vec<(PairKey, bool)> = Vec::new();
        let mut uncached: Vec<PairKey> = Vec::new();
        let mut cached_pairs = 0u64;
        for &p in &pairs {
            if let Some(hit) = self.cache.lookup(p, scheme) {
                results.push((p, hit.label));
                cached_pairs += 1;
            } else {
                uncached.push(p);
            }
        }
        self.ledger.cache_hits += cached_pairs;

        // Pack full HITs; decide about the leftover afterwards. HITs of
        // one batch run concurrently, so batch latency is the slowest HIT.
        let full = uncached.len() / HIT_SIZE * HIT_SIZE;
        let mut batch_secs = 0.0f64;
        for chunk in uncached[..full].chunks(HIT_SIZE) {
            let hit = Hit::pack(chunk);
            let run = self.run_hit(oracle, &hit, scheme);
            results.extend(run.labeled);
            batch_secs = batch_secs.max(run.secs);
        }
        let leftover = &uncached[full..];
        if !leftover.is_empty() && results.is_empty() {
            // The batch would produce nothing; pad one HIT so the caller
            // always makes progress (duplicate slots are paid, discarded).
            let hit = Hit::pack(leftover);
            let run = self.run_hit(oracle, &hit, scheme);
            results.extend(run.labeled);
            batch_secs = batch_secs.max(run.secs);
        }
        self.ledger.simulated_secs += batch_secs;
        results
    }

    /// Label every requested pair, padding HITs as needed, or report which
    /// pairs could not be labeled. Used where the protocol requires a
    /// complete batch (e.g. the four seed examples).
    ///
    /// Under fault injection, pairs whose HITs keep failing past the
    /// retry budget stall the loop; after [`MAX_STALLED_ROUNDS`] rounds
    /// with zero progress (or an absolute round cap) the call returns
    /// [`CrowdError::Incomplete`] with the labels gathered so far left in
    /// the cache/ledger.
    pub fn try_label_all(
        &mut self,
        oracle: &dyn TruthOracle,
        pairs: &[PairKey],
        scheme: Scheme,
    ) -> Result<Vec<(PairKey, bool)>, CrowdError> {
        let requested = pairs.iter().copied().collect::<HashSet<_>>().len();
        let mut remaining: Vec<PairKey> = pairs.to_vec();
        let mut out = Vec::new();
        let mut stalled = 0u32;
        let mut guard = 0u32;
        while !remaining.is_empty() {
            let before = out.len();
            let got = self.label_batch(oracle, &remaining, scheme);
            let got_keys: HashSet<PairKey> = got.iter().map(|(p, _)| *p).collect();
            out.extend(got.iter().copied());
            remaining.retain(|p| !got_keys.contains(p));
            if remaining.is_empty() {
                break;
            }
            // Force the stragglers through a padded HIT.
            let chunk_len = remaining.len().min(HIT_SIZE);
            let chunk: Vec<PairKey> = remaining[..chunk_len].to_vec();
            let hit = Hit::pack(&chunk);
            let run = self.run_hit(oracle, &hit, scheme);
            self.ledger.simulated_secs += run.secs;
            let fresh_keys: HashSet<PairKey> = run.labeled.iter().map(|(p, _)| *p).collect();
            out.extend(run.labeled.iter().copied());
            remaining.retain(|p| !fresh_keys.contains(p));
            stalled = if out.len() == before { stalled + 1 } else { 0 };
            guard += 1;
            if stalled >= MAX_STALLED_ROUNDS || guard >= 100_000 {
                let mut missing: Vec<PairKey> =
                    remaining.iter().copied().collect::<HashSet<_>>().into_iter().collect();
                missing.sort();
                missing.truncate(32);
                return Err(CrowdError::Incomplete { requested, labeled: out.len(), missing });
            }
        }
        Ok(out)
    }

    /// Panicking wrapper over [`Self::try_label_all`], kept for callers
    /// that treat incomplete labeling as a programming error.
    ///
    /// # Panics
    /// Panics if labeling cannot complete (e.g. persistent injected
    /// faults past the retry budget).
    pub fn label_all(
        &mut self,
        oracle: &dyn TruthOracle,
        pairs: &[PairKey],
        scheme: Scheme,
    ) -> Vec<(PairKey, bool)> {
        self.try_label_all(oracle, pairs, scheme)
            .unwrap_or_else(|e| panic!("label_all failed to converge: {e}"))
    }

    /// Seconds one answer takes at the configured pay rate (the §10
    /// money–time model, without jitter).
    pub fn answer_latency_secs(&self) -> f64 {
        self.answer_latency_secs_at(self.cfg.price_cents)
    }

    /// Seconds one answer takes at an arbitrary pay rate — reposted HITs
    /// with price escalation run faster per the same elasticity model.
    fn answer_latency_secs_at(&self, price_cents: f64) -> f64 {
        if self.cfg.latency_elasticity == 0.0 || self.cfg.base_latency_secs == 0.0 {
            return self.cfg.base_latency_secs;
        }
        let ratio = self.cfg.reference_price_cents / price_cents.max(1e-9);
        self.cfg.base_latency_secs * ratio.powf(self.cfg.latency_elasticity)
    }

    /// Post one HIT and drive it to completion or retry exhaustion:
    /// attempt, then repost unresolved questions with exponential backoff
    /// and optional price escalation until everything resolves or the
    /// repost budget runs out.
    fn run_hit(&mut self, oracle: &dyn TruthOracle, hit: &Hit, scheme: Scheme) -> HitRun {
        let mut price = self.cfg.price_cents;
        let mut questions = hit.questions.clone();
        let mut labeled: Vec<(PairKey, bool)> = Vec::new();
        let mut secs = 0.0f64;
        let mut reposts = 0u32;
        loop {
            let (fresh, unresolved, attempt_secs) =
                self.attempt_hit(oracle, &questions, scheme, price);
            labeled.extend(fresh);
            secs += attempt_secs;
            if unresolved.is_empty() {
                return HitRun { labeled, secs };
            }
            if reposts >= self.retry.max_reposts {
                self.fault_stats.hits_failed += 1;
                return HitRun { labeled, secs };
            }
            let backoff = self.retry.backoff_secs(reposts);
            secs += backoff;
            self.fault_stats.backoff_secs += backoff;
            self.fault_stats.reposts += 1;
            reposts += 1;
            price *= self.retry.price_growth;
            questions = Hit::pack(&unresolved).questions;
        }
    }

    /// One posting attempt of a HIT at the given price. Duplicate slots
    /// (padding) are paid for but only the first resolution of a pair
    /// produces a label. Returns the labels, the distinct questions left
    /// unresolved by injected faults, and the attempt's duration.
    fn attempt_hit(
        &mut self,
        oracle: &dyn TruthOracle,
        questions: &[PairKey],
        scheme: Scheme,
        price: f64,
    ) -> (Vec<(PairKey, bool)>, Vec<PairKey>, f64) {
        self.ledger.hits_posted += 1;
        let per_answer = self.answer_latency_secs_at(price);
        let faulty = self.faults.enabled();
        let mut secs = 0.0f64;

        if faulty {
            if self.faults.outage_prob > 0.0 && self.fault_rng.gen_bool(self.faults.outage_prob)
            {
                // Transient platform outage: posting is delayed, then
                // proceeds normally.
                self.fault_stats.outages += 1;
                secs += self.faults.outage_secs;
            }
            if self.faults.hit_expiry_prob > 0.0
                && self.fault_rng.gen_bool(self.faults.hit_expiry_prob)
            {
                // Nobody picked the HIT up within its lifetime: nothing is
                // answered or paid, and the platform only notices after
                // waiting out the HIT's nominal duration.
                self.fault_stats.hits_expired += 1;
                secs += per_answer * questions.len() as f64;
                let mut unresolved = questions.to_vec();
                unresolved.sort();
                unresolved.dedup();
                return (Vec::new(), unresolved, secs);
            }
            if self.faults.worker_no_show_prob > 0.0
                && self.fault_rng.gen_bool(self.faults.worker_no_show_prob)
            {
                // An assignee never showed; a replacement picks the HIT up
                // one answer-latency later.
                self.fault_stats.worker_no_shows += 1;
                secs += per_answer;
            }
            if self.faults.worker_attrition_prob > 0.0
                && self.fault_rng.gen_bool(self.faults.worker_attrition_prob)
                && self.workers.remove_one()
            {
                self.fault_stats.workers_attrited += 1;
            }
        }

        let mut labeled: Vec<(PairKey, bool)> = Vec::new();
        let mut done: HashSet<PairKey> = HashSet::new();
        let mut max_assignment_answers = 0u32;
        for &q in questions {
            self.ledger.questions_asked += 1;
            if faulty
                && self.faults.abandonment_prob > 0.0
                && self.fault_rng.gen_bool(self.faults.abandonment_prob)
            {
                // The assignee abandons the question mid-flight: the time
                // is spent, the answer is lost, nothing is paid.
                self.fault_stats.assignments_abandoned += 1;
                max_assignment_answers = max_assignment_answers.max(1);
                continue;
            }
            let outcome = resolve(scheme, &self.workers, oracle.true_label(q), &mut self.rng);
            self.ledger.answers_solicited += u64::from(outcome.answers);
            self.ledger.total_cents += f64::from(outcome.answers) * price;
            max_assignment_answers = max_assignment_answers.max(outcome.answers);
            if done.insert(q) {
                let strength = if outcome.strong { Strength::Strong } else { Strength::Weak };
                self.cache.insert(q, outcome.label, strength);
                self.ledger.pairs_labeled += 1;
                labeled.push((q, outcome.label));
            }
        }
        // Assignments run in parallel across workers; each assignee
        // answers the HIT's 10 questions sequentially. The HIT finishes
        // when its most-solicited question's last answer lands.
        secs += per_answer * questions.len() as f64
            + per_answer * f64::from(max_assignment_answers.saturating_sub(1));
        let mut unresolved: Vec<PairKey> = questions
            .iter()
            .copied()
            .filter(|q| !done.contains(q))
            .collect();
        unresolved.sort();
        unresolved.dedup();
        (labeled, unresolved, secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::GoldOracle;

    fn platform(err: f64, seed: u64) -> CrowdPlatform {
        let pool = if err == 0.0 {
            WorkerPool::perfect(5)
        } else {
            WorkerPool::uniform(5, err)
        };
        CrowdPlatform::new(pool, CrowdConfig { price_cents: 1.0, seed, ..Default::default() })
    }

    fn keys(n: u32) -> Vec<PairKey> {
        (0..n).map(|i| PairKey::new(i, i)).collect()
    }

    #[test]
    fn labels_full_batches_exactly() {
        let oracle = GoldOracle::from_pairs([(0, 0), (1, 1)]);
        let mut p = platform(0.0, 1);
        let got = p.label_batch(&oracle, &keys(20), Scheme::TwoPlusOne);
        assert_eq!(got.len(), 20);
        assert!(got.iter().filter(|(_, l)| *l).count() == 2);
        assert_eq!(p.ledger().hits_posted, 2);
        assert_eq!(p.ledger().pairs_labeled, 20);
        // Perfect crowd: 2 answers per question, 1¢ each.
        assert_eq!(p.ledger().total_cents, 40.0);
    }

    #[test]
    fn leftover_dropped_when_batch_produced_labels() {
        let oracle = GoldOracle::from_pairs([]);
        let mut p = platform(0.0, 2);
        let got = p.label_batch(&oracle, &keys(13), Scheme::TwoPlusOne);
        assert_eq!(got.len(), 10, "one full HIT, 3 leftover dropped");
    }

    #[test]
    fn small_batch_padded_not_dropped() {
        let oracle = GoldOracle::from_pairs([]);
        let mut p = platform(0.0, 3);
        let got = p.label_batch(&oracle, &keys(4), Scheme::TwoPlusOne);
        assert_eq!(got.len(), 4, "padded HIT must label all 4 distinct pairs");
        assert_eq!(p.ledger().questions_asked, 10, "padding slots are paid");
        assert_eq!(p.ledger().pairs_labeled, 4);
    }

    #[test]
    fn cache_reused_across_batches() {
        let oracle = GoldOracle::from_pairs([(0, 0)]);
        let mut p = platform(0.0, 4);
        let first = p.label_batch(&oracle, &keys(10), Scheme::TwoPlusOne);
        assert_eq!(first.len(), 10);
        let cents_before = p.ledger().total_cents;
        let second = p.label_batch(&oracle, &keys(10), Scheme::TwoPlusOne);
        assert_eq!(second.len(), 10);
        assert_eq!(p.ledger().total_cents, cents_before, "all from cache");
        assert_eq!(p.ledger().cache_hits, 10, "one per pair served from cache");
    }

    #[test]
    fn paper_packing_rule_15_cached_of_20() {
        // §8.3: k = 15 cached of a 20-example batch (k > 10) → return only
        // the cached 15, ignore the remaining 5.
        let oracle = GoldOracle::from_pairs([]);
        let mut p = platform(0.0, 5);
        let cached: Vec<PairKey> = (0..15).map(|i| PairKey::new(i, i)).collect();
        p.label_all(&oracle, &cached, Scheme::TwoPlusOne);
        let hits_before = p.ledger().hits_posted;
        let batch = keys(20); // 15 cached + 5 new
        let got = p.label_batch(&oracle, &batch, Scheme::TwoPlusOne);
        assert_eq!(got.len(), 15);
        assert_eq!(p.ledger().hits_posted, hits_before, "no new HIT posted");
    }

    #[test]
    fn paper_packing_rule_7_cached_of_20() {
        // §8.3: k = 7 cached (k ≤ 10) → one HIT of 10 fresh questions,
        // return 10 + 7 = 17, drop the other 3.
        let oracle = GoldOracle::from_pairs([]);
        let mut p = platform(0.0, 6);
        let cached: Vec<PairKey> = (0..7).map(|i| PairKey::new(i, i)).collect();
        p.label_all(&oracle, &cached, Scheme::TwoPlusOne);
        let got = p.label_batch(&oracle, &keys(20), Scheme::TwoPlusOne);
        assert_eq!(got.len(), 17);
    }

    #[test]
    fn weak_cache_entry_does_not_serve_strong_request() {
        let oracle = GoldOracle::from_pairs([(0, 0)]);
        let mut p = platform(0.0, 7);
        p.label_all(&oracle, &[PairKey::new(0, 0)], Scheme::TwoPlusOne);
        let labeled_before = p.ledger().pairs_labeled;
        p.label_all(&oracle, &[PairKey::new(0, 0)], Scheme::StrongMajority);
        assert!(p.ledger().pairs_labeled > labeled_before, "must re-ask the crowd");
    }

    #[test]
    fn label_all_labels_everything() {
        let oracle = GoldOracle::from_pairs([]);
        let mut p = platform(0.2, 8);
        let got = p.label_all(&oracle, &keys(37), Scheme::Hybrid);
        let distinct: HashSet<PairKey> = got.iter().map(|(p, _)| *p).collect();
        assert_eq!(distinct.len(), 37);
    }

    #[test]
    fn noisy_crowd_costs_more_than_perfect() {
        let oracle = GoldOracle::from_pairs([(0, 0), (1, 1), (2, 2)]);
        let mut perfect = platform(0.0, 9);
        let mut noisy = platform(0.3, 9);
        perfect.label_batch(&oracle, &keys(30), Scheme::StrongMajority);
        noisy.label_batch(&oracle, &keys(30), Scheme::StrongMajority);
        assert!(noisy.ledger().total_cents > perfect.ledger().total_cents);
    }

    #[test]
    fn duplicates_in_request_collapse() {
        let oracle = GoldOracle::from_pairs([]);
        let mut p = platform(0.0, 10);
        let mut req = keys(10);
        req.extend(keys(10));
        let got = p.label_batch(&oracle, &req, Scheme::TwoPlusOne);
        assert_eq!(got.len(), 10);
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::oracle::GoldOracle;

    fn keys(n: u32) -> Vec<PairKey> {
        (0..n).map(|i| PairKey::new(i, i)).collect()
    }

    fn faulty(faults: FaultConfig, retry: RetryPolicy, seed: u64) -> CrowdPlatform {
        CrowdPlatform::with_faults(
            WorkerPool::perfect(5),
            CrowdConfig { price_cents: 1.0, seed, ..Default::default() },
            faults,
            retry,
        )
    }

    #[test]
    fn zeroed_faults_are_byte_identical_to_plain_platform() {
        let oracle = GoldOracle::from_pairs([(0, 0), (3, 3)]);
        let mut plain = CrowdPlatform::new(
            WorkerPool::uniform(5, 0.2),
            CrowdConfig { price_cents: 1.0, seed: 11, ..Default::default() },
        );
        let mut zeroed = CrowdPlatform::with_faults(
            WorkerPool::uniform(5, 0.2),
            CrowdConfig { price_cents: 1.0, seed: 11, ..Default::default() },
            FaultConfig::default(),
            RetryPolicy::default(),
        );
        let a = plain.label_batch(&oracle, &keys(23), Scheme::Hybrid);
        let b = zeroed.label_batch(&oracle, &keys(23), Scheme::Hybrid);
        assert_eq!(a, b, "labels must not depend on the (disabled) fault layer");
        assert_eq!(plain.ledger(), zeroed.ledger());
        assert_eq!(*zeroed.fault_stats(), FaultStats::default());
    }

    #[test]
    fn certain_expiry_without_retries_labels_nothing_and_pays_nothing() {
        let oracle = GoldOracle::from_pairs([]);
        let mut p = faulty(
            FaultConfig { hit_expiry_prob: 1.0, ..Default::default() },
            RetryPolicy { max_reposts: 0, ..Default::default() },
            1,
        );
        let got = p.label_batch(&oracle, &keys(10), Scheme::TwoPlusOne);
        assert!(got.is_empty());
        assert_eq!(p.ledger().total_cents, 0.0, "expired HITs are not paid");
        assert_eq!(p.fault_stats().hits_expired, 1);
        assert_eq!(p.fault_stats().hits_failed, 1);
        assert_eq!(p.fault_stats().reposts, 0);
        assert!(p.ledger().simulated_secs > 0.0, "the expiry window still passes");
    }

    #[test]
    fn retries_recover_from_expiry_and_charge_backoff() {
        let oracle = GoldOracle::from_pairs([]);
        // ~50% expiry with a generous repost budget: the batch resolves.
        let mut p = faulty(
            FaultConfig { hit_expiry_prob: 0.5, ..Default::default() },
            RetryPolicy { max_reposts: 20, backoff_base_secs: 60.0, ..Default::default() },
            2,
        );
        let got = p.label_batch(&oracle, &keys(10), Scheme::TwoPlusOne);
        assert_eq!(got.len(), 10, "retries must eventually label the batch");
        let s = p.fault_stats();
        assert!(s.hits_expired > 0, "seed 2 must draw at least one expiry");
        assert_eq!(s.reposts, s.hits_expired, "every expiry triggers one repost");
        assert_eq!(s.hits_failed, 0);
        assert!(
            s.backoff_secs >= 60.0 * s.reposts as f64,
            "exponential backoff is charged per repost"
        );
        // And the backoff landed in the ledger's simulated clock.
        let mut clean = faulty(FaultConfig::default(), RetryPolicy::default(), 2);
        clean.label_batch(&oracle, &keys(10), Scheme::TwoPlusOne);
        assert!(p.ledger().simulated_secs > clean.ledger().simulated_secs + s.backoff_secs - 1e-9);
    }

    #[test]
    fn abandonment_loses_answers_but_not_money() {
        let oracle = GoldOracle::from_pairs([]);
        let mut p = faulty(
            FaultConfig { abandonment_prob: 1.0, ..Default::default() },
            RetryPolicy { max_reposts: 2, ..Default::default() },
            3,
        );
        let got = p.label_batch(&oracle, &keys(10), Scheme::TwoPlusOne);
        assert!(got.is_empty(), "every assignment was abandoned");
        assert_eq!(p.ledger().total_cents, 0.0, "abandoned assignments are unpaid");
        assert_eq!(p.fault_stats().assignments_abandoned, 30, "10 slots × 3 attempts");
        assert_eq!(p.fault_stats().hits_failed, 1);
        assert_eq!(p.ledger().pairs_labeled, 0);
    }

    #[test]
    fn partial_abandonment_resolves_via_reposts() {
        let oracle = GoldOracle::from_pairs([]);
        let mut p = faulty(
            FaultConfig { abandonment_prob: 0.3, ..Default::default() },
            RetryPolicy { max_reposts: 30, ..Default::default() },
            4,
        );
        let got = p.label_batch(&oracle, &keys(10), Scheme::TwoPlusOne);
        assert_eq!(got.len(), 10);
        assert!(p.fault_stats().assignments_abandoned > 0);
        assert_eq!(p.fault_stats().hits_failed, 0);
    }

    #[test]
    fn price_escalation_pays_more_on_reposts() {
        let oracle = GoldOracle::from_pairs([]);
        let run = |growth: f64| {
            let mut p = faulty(
                FaultConfig { abandonment_prob: 0.5, ..Default::default() },
                RetryPolicy { max_reposts: 30, price_growth: growth, ..Default::default() },
                5,
            );
            p.label_batch(&oracle, &keys(10), Scheme::TwoPlusOne);
            (p.fault_stats().reposts, p.ledger().total_cents)
        };
        let (reposts_flat, cents_flat) = run(1.0);
        let (reposts_esc, cents_esc) = run(2.0);
        // Same seed → same fault draws → same repost schedule.
        assert_eq!(reposts_flat, reposts_esc);
        assert!(reposts_flat > 0, "seed 5 must trigger reposts");
        assert!(
            cents_esc > cents_flat,
            "escalated reposts must cost more ({cents_esc} vs {cents_flat})"
        );
    }

    #[test]
    fn outages_delay_but_do_not_lose_work() {
        let oracle = GoldOracle::from_pairs([]);
        let mut p = faulty(
            FaultConfig { outage_prob: 1.0, outage_secs: 500.0, ..Default::default() },
            RetryPolicy::default(),
            6,
        );
        let got = p.label_batch(&oracle, &keys(10), Scheme::TwoPlusOne);
        assert_eq!(got.len(), 10);
        assert_eq!(p.fault_stats().outages, 1);
        let mut clean = faulty(FaultConfig::default(), RetryPolicy::default(), 6);
        clean.label_batch(&oracle, &keys(10), Scheme::TwoPlusOne);
        assert!(
            (p.ledger().simulated_secs - clean.ledger().simulated_secs - 500.0).abs() < 1e-9,
            "outage adds exactly its duration"
        );
    }

    #[test]
    fn attrition_shrinks_the_pool_but_never_empties_it() {
        let oracle = GoldOracle::from_pairs([]);
        let mut p = faulty(
            FaultConfig { worker_attrition_prob: 1.0, ..Default::default() },
            RetryPolicy::default(),
            7,
        );
        assert_eq!(p.workers().len(), 5);
        for round in 0..6u32 {
            let ks: Vec<PairKey> = (0..10).map(|i| PairKey::new(100 * round + i, i)).collect();
            p.label_batch(&oracle, &ks, Scheme::TwoPlusOne);
        }
        assert_eq!(p.workers().len(), 2, "attrition floors at two workers");
        assert_eq!(p.fault_stats().workers_attrited, 3);
    }

    #[test]
    fn no_shows_are_counted_and_slow_the_hit() {
        let oracle = GoldOracle::from_pairs([]);
        let mut p = faulty(
            FaultConfig { worker_no_show_prob: 1.0, ..Default::default() },
            RetryPolicy::default(),
            8,
        );
        let got = p.label_batch(&oracle, &keys(10), Scheme::TwoPlusOne);
        assert_eq!(got.len(), 10);
        assert_eq!(p.fault_stats().worker_no_shows, 1);
        let mut clean = faulty(FaultConfig::default(), RetryPolicy::default(), 8);
        clean.label_batch(&oracle, &keys(10), Scheme::TwoPlusOne);
        assert!(p.ledger().simulated_secs > clean.ledger().simulated_secs);
    }

    #[test]
    fn try_label_all_surfaces_incomplete_under_total_failure() {
        let oracle = GoldOracle::from_pairs([]);
        let mut p = faulty(
            FaultConfig { hit_expiry_prob: 1.0, ..Default::default() },
            RetryPolicy { max_reposts: 1, ..Default::default() },
            9,
        );
        let err = p.try_label_all(&oracle, &keys(7), Scheme::TwoPlusOne).unwrap_err();
        match err {
            CrowdError::Incomplete { requested, labeled, missing } => {
                assert_eq!(requested, 7);
                assert_eq!(labeled, 0);
                assert_eq!(missing.len(), 7);
            }
            other => panic!("expected Incomplete, got {other:?}"),
        }
    }

    #[test]
    fn try_label_all_recovers_under_survivable_faults() {
        let oracle = GoldOracle::from_pairs([]);
        let mut p = faulty(
            FaultConfig { hit_expiry_prob: 0.3, abandonment_prob: 0.2, ..Default::default() },
            RetryPolicy::default(),
            10,
        );
        let got = p.try_label_all(&oracle, &keys(25), Scheme::Hybrid).expect("recoverable");
        let distinct: HashSet<PairKey> = got.iter().map(|(k, _)| *k).collect();
        assert_eq!(distinct.len(), 25);
        assert!(p.fault_stats().any(), "faults must actually have fired");
    }

    #[test]
    #[should_panic(expected = "label_all failed to converge")]
    fn label_all_panics_on_unrecoverable_faults() {
        let oracle = GoldOracle::from_pairs([]);
        let mut p = faulty(
            FaultConfig { hit_expiry_prob: 1.0, ..Default::default() },
            RetryPolicy { max_reposts: 0, ..Default::default() },
            11,
        );
        p.label_all(&oracle, &keys(3), Scheme::TwoPlusOne);
    }

    #[test]
    fn exported_state_resumes_the_exact_streams() {
        let oracle = GoldOracle::from_pairs([(2, 2), (7, 7)]);
        let cfg = FaultConfig {
            hit_expiry_prob: 0.2,
            abandonment_prob: 0.15,
            worker_attrition_prob: 0.1,
            ..Default::default()
        };
        // Drive a platform halfway, checkpoint it, then compare the
        // restored copy against the original over the same second half.
        let mut original = CrowdPlatform::with_faults(
            WorkerPool::uniform(5, 0.2),
            CrowdConfig { price_cents: 1.0, seed: 42, ..Default::default() },
            cfg,
            RetryPolicy::default(),
        );
        original.label_batch(&oracle, &keys(20), Scheme::Hybrid);
        let state = original.export_state();

        // Round-trip through actual JSON, as a checkpoint would.
        let json = serde_json::to_string(&state).expect("serialize");
        let back: PlatformState = serde_json::from_str(&json).expect("deserialize");
        let mut restored = CrowdPlatform::import_state(&back).expect("import");

        assert_eq!(restored.ledger(), original.ledger());
        assert_eq!(restored.fault_stats(), original.fault_stats());
        assert_eq!(restored.workers().len(), original.workers().len());

        let second: Vec<PairKey> = (100..140).map(|i| PairKey::new(i, i)).collect();
        let a = original.label_batch(&oracle, &second, Scheme::Hybrid);
        let b = restored.label_batch(&oracle, &second, Scheme::Hybrid);
        assert_eq!(a, b, "restored platform must draw identical answers");
        assert_eq!(original.ledger(), restored.ledger());
        assert_eq!(original.fault_stats(), restored.fault_stats());
    }

    #[test]
    fn fault_draws_are_deterministic_per_seed() {
        let oracle = GoldOracle::from_pairs([]);
        let cfg = FaultConfig {
            hit_expiry_prob: 0.3,
            abandonment_prob: 0.2,
            outage_prob: 0.1,
            ..Default::default()
        };
        let run = || {
            let mut p = faulty(cfg, RetryPolicy::default(), 12);
            let got = p.label_batch(&oracle, &keys(30), Scheme::Hybrid);
            (got, *p.fault_stats(), *p.ledger())
        };
        let (g1, s1, l1) = run();
        let (g2, s2, l2) = run();
        assert_eq!(g1, g2);
        assert_eq!(s1, s2);
        assert_eq!(l1, l2);
    }
}

#[cfg(test)]
mod latency_tests {
    use super::*;
    use crate::oracle::GoldOracle;

    fn platform_at(price: f64) -> CrowdPlatform {
        CrowdPlatform::new(
            WorkerPool::perfect(5),
            CrowdConfig { price_cents: price, seed: 1, ..Default::default() },
        )
    }

    #[test]
    fn paying_more_is_faster() {
        let oracle = GoldOracle::from_pairs([]);
        let keys: Vec<PairKey> = (0..30).map(|i| PairKey::new(i, i)).collect();
        let mut cheap = platform_at(0.5);
        let mut pricey = platform_at(4.0);
        cheap.label_batch(&oracle, &keys, Scheme::TwoPlusOne);
        pricey.label_batch(&oracle, &keys, Scheme::TwoPlusOne);
        assert!(
            pricey.ledger().simulated_secs < cheap.ledger().simulated_secs,
            "4¢ ({:.0}s) must beat 0.5¢ ({:.0}s)",
            pricey.ledger().simulated_secs,
            cheap.ledger().simulated_secs
        );
        assert!(pricey.ledger().total_cents > cheap.ledger().total_cents);
    }

    #[test]
    fn reference_price_latency_is_base() {
        let p = platform_at(1.0);
        assert!((p.answer_latency_secs() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn zero_elasticity_disables_model() {
        let cfg = CrowdConfig { price_cents: 10.0, latency_elasticity: 0.0, ..Default::default() };
        let p = CrowdPlatform::new(WorkerPool::perfect(2), cfg);
        assert!((p.answer_latency_secs() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_hits_do_not_add_up() {
        // 30 questions = 3 HITs in one batch → elapsed ≈ one HIT's time,
        // not three.
        let oracle = GoldOracle::from_pairs([]);
        let keys30: Vec<PairKey> = (0..30).map(|i| PairKey::new(i, i)).collect();
        let keys10: Vec<PairKey> = (100..110).map(|i| PairKey::new(i, i)).collect();
        let mut p30 = platform_at(1.0);
        let mut p10 = platform_at(1.0);
        p30.label_batch(&oracle, &keys30, Scheme::TwoPlusOne);
        p10.label_batch(&oracle, &keys10, Scheme::TwoPlusOne);
        let r = p30.ledger().simulated_secs / p10.ledger().simulated_secs;
        assert!((0.9..1.5).contains(&r), "3 parallel HITs took {r}x one HIT");
    }
}
