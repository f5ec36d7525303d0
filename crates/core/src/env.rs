//! Shared execution resources for one engine run.
//!
//! A [`RunEnv`] bundles the two things every phase of the pipeline needs
//! but no phase should own: the parallelism budget and an optional
//! [`FeatureCache`]. The engine constructs one per run and threads it
//! through the Blocker, Matcher, Accuracy Estimator, and Difficult Pairs'
//! Locator. Session runs carry no cache.

use crate::cache::FeatureCache;
pub use exec::Threads;

/// Per-run execution context: thread budget plus optional feature cache.
#[derive(Debug, Clone, Copy)]
pub struct RunEnv<'c> {
    /// Parallelism budget for every hot loop in this run.
    pub threads: Threads,
    /// Feature-vector cache the candidate-set builds read through, if the
    /// caller supplied one.
    pub cache: Option<&'c FeatureCache>,
}

impl<'c> RunEnv<'c> {
    /// An environment with the given budget and no cache.
    pub fn with_threads(threads: Threads) -> Self {
        RunEnv { threads, cache: None }
    }

    /// Single-threaded, uncached — the conservative default for
    /// standalone phase calls outside an engine run.
    pub fn serial() -> Self {
        RunEnv { threads: Threads::new(1), cache: None }
    }

    /// Attach a feature cache.
    pub fn with_cache(mut self, cache: &'c FeatureCache) -> Self {
        self.cache = Some(cache);
        self
    }
}

impl Default for RunEnv<'_> {
    fn default() -> Self {
        RunEnv { threads: Threads::auto(), cache: None }
    }
}
