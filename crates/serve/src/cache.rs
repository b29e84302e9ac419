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
//! "nothing built after warmup" testable. A miss whose net is resident
//! at another batch size lowers from that plan
//! ([`CompiledProgram::at_batch`]) and shares its transfer tables, so a
//! model's plans hold each table once.
//!
//! The cache is **bounded**: it holds at most `capacity` entries and
//! evicts the least-recently-used plan when a miss would exceed the
//! bound, so a server fed adversarial shape diversity (every request a
//! new `(fingerprint, batch)` pair — e.g. many sequence buckets × many
//! tail-batch sizes) degrades to re-lowering instead of growing
//! without limit. Evictions are counted; a nonzero
//! [`PlanCache::evictions`] under a steady workload means the capacity
//! is too small for the working set.
//!
//! The cache is shareable (`&self` throughout): a hit is one lock, one
//! hash lookup and one `Arc::clone`. A miss lowers **outside** the lock,
//! so a slow lowering does not serialize unrelated lookups; when two
//! threads miss the same key at once both lower, the first insert wins,
//! and both get that one plan.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use latte_runtime::registry::KernelRegistry;
use latte_runtime::{CompiledProgram, ExecConfig};

use crate::error::ServeError;
use crate::model::Model;

/// Default entry bound of [`PlanCache::new`]: generous for one model's
/// micro-batch sizes, and still enough for a bucket ladder of sequence
/// models times their tail batches.
pub const DEFAULT_PLAN_CAPACITY: usize = 64;

/// `(CompiledNet::fingerprint(), batch)`: the net, and the one number
/// lowering bakes into a plan.
type Key = (u64, usize);

#[derive(Debug)]
struct Entry {
    program: Arc<CompiledProgram>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Lru {
    entries: HashMap<Key, Entry>,
    /// Advances on every lookup; an entry's recency is the tick of its
    /// last use.
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A shareable, bounded LRU cache of lowered programs, keyed by
/// `(CompiledNet::fingerprint(), batch)`.
#[derive(Debug)]
pub struct PlanCache {
    registry: KernelRegistry,
    cfg: ExecConfig,
    capacity: usize,
    lru: Mutex<Lru>,
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
        assert!(capacity > 0, "plan cache capacity must be nonzero");
        PlanCache {
            registry: KernelRegistry::with_builtins(),
            cfg,
            capacity,
            lru: Mutex::new(Lru::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Lru> {
        // Every update leaves the map and counters valid at every step,
        // so a panic elsewhere while holding the lock poisons nothing.
        self.lru.lock().unwrap_or_else(PoisonError::into_inner)
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
        self.get_or_lower((model.fingerprint(), batch), || self.lower(model, batch))
    }

    fn lower(&self, model: &Model, batch: usize) -> Result<CompiledProgram, ServeError> {
        // The net at another batch size, if resident, lends its tables.
        let sibling = self
            .lock()
            .entries
            .iter()
            .find(|(key, _)| key.0 == model.fingerprint())
            .map(|(_, e)| Arc::clone(&e.program));
        match sibling {
            Some(sibling) => sibling.at_batch(batch, &self.registry),
            None => CompiledProgram::lower(model.compiled().at_batch(batch), &self.registry, self.cfg),
        }
        .map_err(|e| ServeError::Compile {
            detail: format!("{} @ batch {batch}: {e}", model.name()),
        })
    }

    /// The program under `key`, and whether it was already resident. On a
    /// miss `lower` runs unlocked and its result is inserted; a failed
    /// `lower` inserts and counts nothing.
    fn get_or_lower(
        &self,
        key: Key,
        lower: impl FnOnce() -> Result<CompiledProgram, ServeError>,
    ) -> Result<(Arc<CompiledProgram>, bool), ServeError> {
        {
            let mut lru = self.lock();
            lru.tick += 1;
            let tick = lru.tick;
            if let Some(hit) = lru.entries.get_mut(&key) {
                hit.last_used = tick;
                let program = Arc::clone(&hit.program);
                lru.hits += 1;
                return Ok((program, true));
            }
        }
        let lowered = Arc::new(lower()?);
        let mut lru = self.lock();
        lru.tick += 1;
        let tick = lru.tick;
        lru.misses += 1;
        // A concurrent miss may have inserted first: keep its entry so
        // every holder shares one plan.
        if !lru.entries.contains_key(&key) {
            while lru.entries.len() >= self.capacity {
                let victim = lru
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| *k)
                    .expect("a full cache has a least-recently-used entry");
                lru.entries.remove(&victim);
                lru.evictions += 1;
            }
        }
        let entry = lru.entries.entry(key).or_insert(Entry { program: lowered, last_used: tick });
        entry.last_used = tick;
        Ok((Arc::clone(&entry.program), false))
    }

    /// Cache hits served so far (lookups that found an entry).
    pub fn hits(&self) -> u64 {
        self.lock().hits
    }

    /// Cache misses so far (lookups that lowered and inserted; a failed
    /// lowering is not counted).
    pub fn misses(&self) -> u64 {
        self.lock().misses
    }

    /// Entries evicted to keep the cache within its capacity.
    pub fn evictions(&self) -> u64 {
        self.lock().evictions
    }

    /// The maximum number of entries the cache will hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Distinct `(fingerprint, batch)` entries currently cached.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use latte_core::dsl::Net;
    use latte_core::OptLevel;
    use latte_nn::layers::{data, fully_connected, softmax_loss};

    /// A one-layer classifier over `classes` classes: each count is a
    /// different net, hence a different fingerprint.
    fn tiny_model(classes: usize) -> Model {
        Model::new(
            "tiny",
            Box::new(move |batch| {
                let mut net = Net::new(batch);
                let x = data(&mut net, "data", vec![3]);
                let head = fully_connected(&mut net, "head", x, classes, 5);
                let label = data(&mut net, "label", vec![1]);
                softmax_loss(&mut net, "loss", head, label);
                net
            }),
            OptLevel::none(),
            vec!["head.value".to_string()],
        )
        .unwrap()
    }

    /// Looks `(model, batch)` up, counting the lowerings in `builds`.
    fn lookup(cache: &PlanCache, model: &Model, batch: usize, builds: &mut usize) {
        cache
            .get_or_lower((model.fingerprint(), batch), || {
                *builds += 1;
                cache.lower(model, batch)
            })
            .unwrap();
    }

    #[test]
    fn second_lookup_builds_nothing() {
        let cache = PlanCache::new(ExecConfig::default());
        let mut builds = 0;
        lookup(&cache, &tiny_model(2), 4, &mut builds);
        assert_eq!((builds, cache.misses(), cache.hits()), (1, 1, 0));
        // A separately built but identical model has the same key.
        lookup(&cache, &tiny_model(2), 4, &mut builds);
        assert_eq!((builds, cache.misses(), cache.hits()), (1, 1, 1), "a hit must not build");
        let (program, hit) = cache.get(&tiny_model(2), 4).unwrap();
        assert!(hit);
        assert_eq!(program.batch(), 4);
    }

    #[test]
    fn distinct_batches_and_nets_miss_separately() {
        let cache = PlanCache::new(ExecConfig::default());
        let (two, three) = (tiny_model(2), tiny_model(3));
        assert_ne!(two.fingerprint(), three.fingerprint());
        let mut builds = 0;
        lookup(&cache, &two, 4, &mut builds);
        lookup(&cache, &two, 2, &mut builds); // new batch → miss
        lookup(&cache, &three, 4, &mut builds); // new net → miss
        lookup(&cache, &two, 2, &mut builds); // hit
        assert_eq!((builds, cache.misses(), cache.hits()), (3, 3, 1));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn racing_misses_of_one_key_share_the_first_inserted_plan() {
        let cache = PlanCache::with_capacity(ExecConfig::default(), 4);
        let model = tiny_model(2);
        let key = (model.fingerprint(), 2);
        let both_missed = std::sync::Barrier::new(2);
        let lower = || {
            // Neither lowering returns until both lookups have missed.
            both_missed.wait();
            cache.lower(&model, 2)
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| cache.get_or_lower(key, lower).unwrap());
            let b = s.spawn(|| cache.get_or_lower(key, lower).unwrap());
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(Arc::ptr_eq(&a.0, &b.0), "both holders must share one plan");
        assert!(!a.1 && !b.1);
        assert_eq!((cache.len(), cache.misses(), cache.hits()), (1, 2, 0));
        // A failed lowering inserts and counts nothing.
        let failed = cache.get_or_lower((key.0, 9), || {
            Err(ServeError::Compile { detail: "no".to_string() })
        });
        assert!(matches!(failed, Err(ServeError::Compile { .. })));
        assert_eq!((cache.len(), cache.misses()), (1, 2));
    }

    #[test]
    fn lru_bound_evicts_and_counts() {
        let model = tiny_model(2);
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
        let model = tiny_model(2);
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
