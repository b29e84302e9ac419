//! The execution-plan cache, keyed by `(net fingerprint, batch)`.
//!
//! A model is compiled once, when it is registered; what a micro-batch
//! size still costs is lowering — kernel selection, bounds verification,
//! the memory layout — because a lowered plan bakes the batch into its
//! whole-batch GEMM shapes and storage sizes. The cache stores one
//! [`CompiledProgram`] per `(fingerprint, micro-batch size)` pair, so
//! after the first batch of each size the serving path never lowers
//! again: a tail batch of size 3 hits the size-3 entry and only
//! instantiates (fresh buffers + parameter init). Hit/miss counters make
//! "nothing built after warmup" testable.
//!
//! The cache is **bounded**: it holds at most `capacity` entries and
//! evicts the least-recently-used plan when a miss would exceed the
//! bound, so a server fed adversarial shape diversity (every request a
//! new `(fingerprint, batch)` pair — e.g. many sequence buckets × many
//! tail-batch sizes) degrades to re-lowering instead of growing
//! without limit. Evictions are counted; a nonzero
//! [`PlanCache::evictions`] under a steady workload means the capacity
//! is too small for the working set.

use std::sync::Arc;

use latte_runtime::registry::KernelRegistry;
use latte_runtime::trace::ProgramCache;
use latte_runtime::{CompiledProgram, ExecConfig};

use crate::error::ServeError;
use crate::model::Model;

/// Default entry bound of [`PlanCache::new`]: generous for one model's
/// micro-batch sizes, and still enough for a bucket ladder of sequence
/// models times their tail batches.
pub const DEFAULT_PLAN_CAPACITY: usize = 64;

/// A shareable, bounded LRU cache of lowered programs, keyed by
/// `(CompiledNet::fingerprint(), batch)` — the serving-side user of the
/// runtime's [`ProgramCache`].
#[derive(Debug)]
pub struct PlanCache {
    registry: KernelRegistry,
    cfg: ExecConfig,
    programs: ProgramCache<(u64, usize)>,
}

impl PlanCache {
    /// An empty cache lowering with the built-in kernel registry, the
    /// given execution configuration, and the default entry bound
    /// ([`DEFAULT_PLAN_CAPACITY`]).
    pub fn new(cfg: ExecConfig) -> Self {
        Self::with_capacity(cfg, DEFAULT_PLAN_CAPACITY)
    }

    /// An empty cache bounded to at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// When `capacity` is zero (a cache that can hold nothing cannot
    /// serve plans).
    pub fn with_capacity(cfg: ExecConfig, capacity: usize) -> Self {
        PlanCache {
            registry: KernelRegistry::with_builtins(),
            cfg,
            programs: ProgramCache::new(capacity),
        }
    }

    /// Returns the lowered program for `(model, batch)` and whether it
    /// was already cached. On a miss this lowers the model's one
    /// compiled program at `batch` (evicting the least-recently-used
    /// entry if the cache is full) — no net is built, nothing is
    /// compiled or fingerprinted; on a hit it is a map lookup.
    ///
    /// # Errors
    ///
    /// [`ServeError::Compile`] when lowering fails.
    pub fn get(
        &self,
        model: &Model,
        batch: usize,
    ) -> Result<(Arc<CompiledProgram>, bool), ServeError> {
        self.programs.get_or_build(&(model.fingerprint(), batch), || {
            let compiled = model.compiled().at_batch(batch);
            CompiledProgram::lower(compiled, &self.registry, self.cfg).map_err(|e| {
                ServeError::Compile {
                    detail: format!("{} @ batch {batch}: {e}", model.name()),
                }
            })
        })
    }

    /// Cache hits served so far (lookups that found an entry).
    pub fn hits(&self) -> u64 {
        self.programs.hits()
    }

    /// Cache misses so far (lookups that lowered).
    pub fn misses(&self) -> u64 {
        self.programs.misses()
    }

    /// Entries evicted to keep the cache within its capacity.
    pub fn evictions(&self) -> u64 {
        self.programs.evictions()
    }

    /// The maximum number of entries the cache will hold.
    pub fn capacity(&self) -> usize {
        self.programs.capacity()
    }

    /// Distinct `(fingerprint, batch)` entries currently cached.
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.programs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latte_core::dsl::Net;
    use latte_core::OptLevel;
    use latte_nn::layers::{data, fully_connected, softmax_loss};

    fn tiny_model() -> Model {
        Model::new(
            "tiny",
            Box::new(|batch| {
                let mut net = Net::new(batch);
                let x = data(&mut net, "data", vec![3]);
                let head = fully_connected(&mut net, "head", x, 2, 5);
                let label = data(&mut net, "label", vec![1]);
                softmax_loss(&mut net, "loss", head, label);
                net
            }),
            OptLevel::none(),
            vec!["head.value".to_string()],
        )
        .unwrap()
    }

    #[test]
    fn lru_bound_evicts_and_counts() {
        let model = tiny_model();
        let cache = PlanCache::with_capacity(ExecConfig::default(), 2);
        cache.get(&model, 1).unwrap(); // miss
        cache.get(&model, 2).unwrap(); // miss
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 0);

        cache.get(&model, 3).unwrap(); // miss, evicts batch-1 (LRU)
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);

        // Batch 1 was evicted: fetching it again is a miss and evicts
        // batch 2, the now-least-recently-used survivor.
        let (_, hit) = cache.get(&model, 1).unwrap();
        assert!(!hit);
        assert_eq!(cache.evictions(), 2);

        // A hit refreshes recency: batch 3 survives the next eviction.
        let (_, hit) = cache.get(&model, 3).unwrap();
        assert!(hit);
        cache.get(&model, 4).unwrap(); // evicts batch 1, not batch 3
        let (_, hit) = cache.get(&model, 3).unwrap();
        assert!(hit, "recently used entry was evicted");
        assert_eq!(cache.evictions(), 3);
        assert_eq!(cache.misses(), 5);
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn within_capacity_nothing_evicts() {
        let model = tiny_model();
        let cache = PlanCache::new(ExecConfig::default());
        for batch in 1..=4 {
            cache.get(&model, batch).unwrap();
        }
        for batch in 1..=4 {
            let (_, hit) = cache.get(&model, batch).unwrap();
            assert!(hit, "batch {batch} should be cached");
        }
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.capacity(), DEFAULT_PLAN_CAPACITY);
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_is_refused() {
        let _ = PlanCache::with_capacity(ExecConfig::default(), 0);
    }
}
