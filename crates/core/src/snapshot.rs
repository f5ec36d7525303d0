//! Run-state snapshots: the payload the engine checkpoints through
//! [`store`] at iteration boundaries.
//!
//! A [`RunSnapshot`] is the *full state closure* of a run at the end of an
//! engine iteration — everything needed to continue the run as if it had
//! never stopped, and nothing a resume can derive or never reads:
//!
//! * the labeled pair set and active-learning outputs accumulated so far
//!   (`predictions`, `known_labels`, per-iteration reports, the running
//!   best estimate — its predictions are `predictions` itself, see
//!   [`RunSnapshot::best`]);
//! * the current difficult region (the next iteration's training set —
//!   each iteration trains a fresh matcher on it, so no model is stored);
//! * the surviving candidate set as pair keys (feature vectors are
//!   recomputed deterministically on resume — vectorization is pure);
//! * the crowd platform in full ([`crowd::PlatformState`]): ledger,
//!   label cache, worker pool (including attrition), fault counters, the
//!   simulated clock, and — critically — the exact stream positions of the
//!   worker RNG and the fault RNG;
//! * the engine RNG's stream position;
//! * the run-start ledger/fault baselines that all budget math and fault
//!   deltas are computed against.
//!
//! ## Why RNG stream *positions*, not seeds
//!
//! Re-seeding on resume would restart every random stream from the top:
//! the crowd would answer differently, faults would fire at different
//! times, and the resumed run would diverge from the uninterrupted one.
//! Storing the xoshiro state words lets each stream continue mid-sequence,
//! which is what makes the resumed final report **byte-identical**
//! (`RunReport::deterministic_json`) to an uninterrupted run. The words
//! are hex strings because the vendored JSON layer cannot represent the
//! full `u64` range as numbers (see [`store::encode_rng_state`]).
//!
//! Snapshots are taken only at iteration boundaries — after the locator
//! has chosen the next region — because that is the narrowest point of
//! the engine loop: no phase is mid-flight, so the closure above is
//! complete and small.
//!
//! The payload carries no wall-clock, so a snapshot's bytes are a
//! deterministic function of the run's inputs: two runs of the same task
//! and seed write identical files at any thread count.

use crate::blocker::BlockerReport;
use crate::engine::IterationReport;
use crate::estimator::AccuracyEstimate;
use crowd::platform::PlatformState;
use crowd::{FaultStats, Ledger};
use serde::{Deserialize, Serialize};

/// Serializable state closure of an engine run at an iteration boundary.
/// Written by the engine's checkpoint hook; read back by
/// [`RunSession::resume_from`](crate::session::RunSession::resume_from).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunSnapshot {
    /// The run's RNG seed, hex-encoded (provenance; the resumed run
    /// continues from `rng_state`, it does not re-seed).
    pub seed_hex: String,
    /// Engine iterations fully completed at capture time. Snapshot `0` is
    /// taken right after blocking, before the first iteration.
    pub completed_iterations: usize,
    /// Engine RNG stream position (hex words).
    pub rng_state: [String; 4],
    /// Platform ledger at run start — the baseline all budget arithmetic
    /// subtracts from.
    pub ledger_start: Ledger,
    /// Platform fault counters at run start — the baseline the final
    /// fault delta (and the `Degraded` verdict) is computed against.
    pub fault_start: FaultStats,
    /// Surviving candidate pairs, in candidate-set order. The feature
    /// matrix is rebuilt from these on resume.
    pub cand_pairs: Vec<crowd::PairKey>,
    /// Features per pair, to reject resuming against a different task.
    pub n_features: usize,
    /// The blocker's report (blocking is never re-run on resume).
    pub blocker_report: BlockerReport,
    /// Current combined predictions over the candidate set.
    pub predictions: Vec<bool>,
    /// Crowd-labeled candidate indices, sorted for deterministic bytes.
    pub known_labels: Vec<(usize, bool)>,
    /// The region the next iteration will train on.
    pub region: Vec<usize>,
    /// Per-iteration reports accumulated so far.
    pub iterations: Vec<IterationReport>,
    /// Best estimate seen so far — what the stopping rule compares
    /// against. Its predictions are `predictions`: an iteration snapshot
    /// is written only after an improving iteration, which makes the
    /// current predictions the best ones (`None` only for snapshot 0).
    pub best: Option<AccuracyEstimate>,
    /// Complete crowd platform state (ledger, label cache, worker pool,
    /// fault layer, both RNG stream positions, simulated clock).
    pub platform: PlatformState,
    /// Snapshots written by the run chain up to and including this one.
    pub snapshots_written: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowd::PairKey;

    #[test]
    fn snapshot_round_trips_through_json() {
        let snap = RunSnapshot {
            seed_hex: store::encode_u64(0x5EED),
            completed_iterations: 2,
            rng_state: store::encode_rng_state([u64::MAX, 1, 2, 1 << 60]),
            ledger_start: Ledger::default(),
            fault_start: FaultStats::default(),
            cand_pairs: vec![PairKey::new(1, 2), PairKey::new(3, 4)],
            n_features: 7,
            blocker_report: BlockerReport::default(),
            predictions: vec![true, false],
            known_labels: vec![(0, true)],
            region: vec![1],
            iterations: Vec::new(),
            best: None,
            platform: crowd::CrowdPlatform::new(
                crowd::WorkerPool::perfect(3),
                crowd::CrowdConfig::default(),
            )
            .export_state(),
            snapshots_written: 3,
        };
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: RunSnapshot = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back.completed_iterations, 2);
        assert_eq!(back.rng_state, snap.rng_state);
        assert_eq!(back.cand_pairs, snap.cand_pairs);
        assert_eq!(back.known_labels, snap.known_labels);
        assert_eq!(
            store::decode_rng_state(&back.rng_state).expect("state"),
            [u64::MAX, 1, 2, 1 << 60]
        );
    }
}
