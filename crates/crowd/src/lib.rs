#![forbid(unsafe_code)]
//! # crowd — a simulated crowdsourcing platform for hands-off EM
//!
//! Corleone's defining property is that every step of the EM workflow is
//! executed by a paid, noisy crowd (paper §8). This crate supplies that
//! substrate as a faithful simulation of Amazon Mechanical Turk as the
//! paper uses it:
//!
//! * **Workers** ([`worker`]): the *random worker model* of Ipeirotis et
//!   al. that the paper itself uses for its sensitivity analysis (§9.3) and
//!   parameter tuning (§9.4) — each worker answers a yes/no match question
//!   correctly except with a per-worker error probability.
//! * **Voting schemes** ([`voting`]): the `2+1` majority vote, the *strong
//!   majority* vote (gap ≥ 3 or 7 answers), and the paper's asymmetric
//!   hybrid that escalates to strong majority only when the running
//!   majority is positive, because false positives corrupt recall
//!   estimates far more than false negatives do (§8.2). These are the
//!   only ways answers are combined: the paper sets EM-style
//!   aggregation aside (§8.2) and leaves spam defense to AMT's
//!   qualifications (§9), which the pool's error-rate bounds stand in
//!   for.
//! * **HITs** ([`hit`]): questions are packed 10 to a HIT, priced per
//!   question, and rendered as the side-by-side record comparison of
//!   paper Fig. 4.
//! * **Label cache** ([`cache`]): labels are reused across Corleone's many
//!   crowd touchpoints, with the §8.3 re-packing rules for partially
//!   cached batches.
//! * **Platform** ([`platform`]): ties the above together behind the one
//!   call Corleone makes — "label this batch of pairs under this scheme" —
//!   and keeps the money/label ledger the experiment tables report.
//! * **Faults** ([`fault`]): seeded injection of real-marketplace failure
//!   modes — HIT expiry, assignment abandonment, worker no-shows and
//!   attrition, transient outages — plus the retry policy (backoff,
//!   price escalation) the platform uses to recover from them.
//! * **Statistics** ([`stats`]): normal quantiles (Acklam's inverse CDF —
//!   no stats crate is available offline) and the finite-population
//!   confidence intervals of §4.2 and §6.1.

//! ```
//! use crowd::{CrowdConfig, CrowdPlatform, GoldOracle, PairKey, Scheme, WorkerPool};
//!
//! let oracle = GoldOracle::from_pairs([(0, 0), (1, 1)]);
//! let workers = WorkerPool::uniform(10, 0.1); // 10 workers, 10% error
//! let mut platform = CrowdPlatform::new(workers, CrowdConfig::default());
//!
//! let batch: Vec<PairKey> = (0..10).map(|i| PairKey::new(i, i)).collect();
//! let labels = platform.label_batch(&oracle, &batch, Scheme::Hybrid);
//! assert_eq!(labels.len(), 10);
//! assert!(platform.ledger().total_cents > 0.0);
//! ```

pub mod cache;
pub mod fault;
pub mod hit;
pub mod oracle;
pub mod platform;
pub mod stats;
pub mod voting;
pub mod worker;

pub use cache::{LabelCache, Strength};
pub use fault::{CrowdError, FaultConfig, FaultStats, RetryPolicy};
pub use oracle::{GoldOracle, PairKey, TruthOracle};
pub use platform::{CrowdConfig, CrowdPlatform, Ledger, PlatformState};
pub use voting::Scheme;
pub use worker::WorkerPool;
