//! The JIT cache: lower a network once per key and reuse the program
//! forever after.
//!
//! [`ProgramCache`] is the runtime half of the LazyTensor-style split in
//! [`latte_core::trace`]: a finished [`Trace`](latte_core::Trace) carries
//! a canonical [`TraceKey`](latte_core::TraceKey), and a cache keyed by
//! `(TraceKey, OptLevel)` maps it to a fully lowered
//! [`CompiledProgram`]. The first sighting of a key pays the whole
//! pipeline — synthesis, the optimization passes, kernel lowering,
//! bounds proofs, liveness layout — inside the caller's build closure.
//! Every later sighting is a hash lookup that never calls the closure,
//! which is how tests prove that the second execution of any
//! `(net, shape)` pair compiles nothing. `latte-serve`'s `PlanCache` is
//! the production front-end, keyed by `(fingerprint, batch)`.
//!
//! The cache is bounded: least-recently-used entries are evicted once
//! `capacity` distinct keys are resident, and evictions are counted so
//! serving metrics can observe thrash.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

use crate::exec::CompiledProgram;

struct Entry {
    program: Arc<CompiledProgram>,
    last_used: u64,
}

struct Lru<K> {
    entries: HashMap<K, Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// The workspace's one bounded LRU of lowered programs: `capacity`
/// entries of `Arc<CompiledProgram>` under any hashable key, ordered by
/// a recency tick, with hit/miss/eviction counters. `latte-serve`'s
/// `PlanCache` keys it by `(fingerprint, batch)`; the oracle's trace
/// tests by `(TraceKey, OptLevel)`.
///
/// Shareable (`&self` throughout): a hit is one lock, one hash lookup
/// and one `Arc::clone`. A miss builds **outside** the lock, so slow
/// compiles do not serialize unrelated lookups; when two threads miss
/// the same key at once both build, the first insert wins, and both get
/// that one plan.
pub struct ProgramCache<K> {
    capacity: usize,
    lru: Mutex<Lru<K>>,
}

impl<K> std::fmt::Debug for ProgramCache<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let lru = self.lock();
        f.debug_struct("ProgramCache")
            .field("capacity", &self.capacity)
            .field("entries", &lru.entries.len())
            .field("hits", &lru.hits)
            .field("misses", &lru.misses)
            .field("evictions", &lru.evictions)
            .finish()
    }
}

impl<K> ProgramCache<K> {
    fn lock(&self) -> std::sync::MutexGuard<'_, Lru<K>> {
        // Every update leaves the map and counters valid at every step,
        // so a panic elsewhere while holding the lock poisons nothing.
        self.lru.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// An empty cache holding at most `capacity` programs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (a cache that can hold nothing
    /// cannot serve plans).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "program cache capacity must be nonzero");
        ProgramCache {
            capacity,
            lru: Mutex::new(Lru {
                entries: HashMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// The maximum number of resident programs.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The number of currently resident programs.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// Whether the cache holds no programs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the cache.
    pub fn hits(&self) -> u64 {
        self.lock().hits
    }

    /// Lookups that built (and inserted) a program; a failed build is
    /// not counted.
    pub fn misses(&self) -> u64 {
        self.lock().misses
    }

    /// Entries evicted to stay within the capacity.
    pub fn evictions(&self) -> u64 {
        self.lock().evictions
    }
}

impl<K: Hash + Eq + Clone> ProgramCache<K> {
    /// The program for `key`, and whether it was already resident. On a
    /// miss, `build` runs (unlocked), the least-recently-used entry is
    /// evicted if the cache is full, and the result is inserted.
    ///
    /// # Errors
    ///
    /// Whatever `build` returns; nothing is inserted or counted then.
    pub fn get_or_build<E>(
        &self,
        key: &K,
        build: impl FnOnce() -> Result<CompiledProgram, E>,
    ) -> Result<(Arc<CompiledProgram>, bool), E> {
        {
            let mut lru = self.lock();
            lru.tick += 1;
            let tick = lru.tick;
            if let Some(hit) = lru.entries.get_mut(key) {
                hit.last_used = tick;
                let program = Arc::clone(&hit.program);
                lru.hits += 1;
                return Ok((program, true));
            }
        }
        let built = Arc::new(build()?);
        let mut lru = self.lock();
        lru.tick += 1;
        let tick = lru.tick;
        lru.misses += 1;
        // A concurrent miss may have inserted first: keep its entry so
        // every holder shares one plan.
        if !lru.entries.contains_key(key) {
            while lru.entries.len() >= self.capacity {
                let victim = lru
                    .entries
                    .iter()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| k.clone())
                    .expect("a full cache has a least-recently-used entry");
                lru.entries.remove(&victim);
                lru.evictions += 1;
            }
        }
        let entry = lru
            .entries
            .entry(key.clone())
            .or_insert(Entry { program: built, last_used: tick });
        entry.last_used = tick;
        Ok((Arc::clone(&entry.program), false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecConfig;
    use crate::registry::KernelRegistry;
    use latte_core::dsl::stdlib::weighted_neuron;
    use latte_core::dsl::{Ensemble, Mapping, Net};
    use latte_core::{compile, OptLevel, Trace, TraceKey};
    use latte_tensor::{init, Tensor};

    fn record(batch: usize, width: usize) -> Trace {
        let mut net = Net::new(batch);
        let d = net.add(Ensemble::data("data", vec![width]));
        let fc = net.add(
            Ensemble::new("fc1", vec![3], weighted_neuron())
                .with_field("weights", vec![false], init::xavier(vec![3, width], width, 0))
                .with_field("bias", vec![false], Tensor::zeros(vec![3, 1]))
                .with_param("weights", 1.0)
                .with_param("bias", 2.0),
        );
        net.connect(d, fc, Mapping::all_to_all(vec![width]));
        Trace::from_net(net)
    }

    fn lower(trace: &Trace, opt: &OptLevel) -> Result<CompiledProgram, crate::RuntimeError> {
        let compiled = compile(trace.net(), opt).unwrap();
        CompiledProgram::lower(compiled, &KernelRegistry::with_builtins(), ExecConfig::default())
    }

    type JitCache = ProgramCache<(TraceKey, OptLevel)>;

    /// Looks `trace` up at `opt`, counting the builds in `builds`.
    fn get(cache: &JitCache, trace: &Trace, opt: &OptLevel, builds: &mut usize) -> Arc<CompiledProgram> {
        let (program, _) = cache
            .get_or_build(&(trace.key(), *opt), || {
                *builds += 1;
                lower(trace, opt)
            })
            .unwrap();
        program
    }

    #[test]
    fn second_lookup_builds_nothing() {
        let cache = JitCache::new(8);
        let opt = OptLevel::full();
        let mut builds = 0;
        get(&cache, &record(4, 8), &opt, &mut builds);
        assert_eq!((builds, cache.misses(), cache.hits()), (1, 1, 0));
        // A separately recorded but identical trace has the same key.
        let p = get(&cache, &record(4, 8), &opt, &mut builds);
        assert_eq!((builds, cache.misses(), cache.hits()), (1, 1, 1), "a hit must not build");
        assert_eq!(p.batch(), 4);
    }

    #[test]
    fn distinct_shapes_and_opt_levels_miss_separately() {
        let cache = JitCache::new(8);
        let full = OptLevel::full();
        let none = OptLevel::none();
        let mut builds = 0;
        get(&cache, &record(4, 8), &full, &mut builds);
        get(&cache, &record(2, 8), &full, &mut builds); // new batch → miss
        get(&cache, &record(4, 8), &none, &mut builds); // new opt → miss
        get(&cache, &record(2, 8), &full, &mut builds); // hit
        assert_eq!((builds, cache.misses(), cache.hits()), (3, 3, 1));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn lru_bound_evicts_and_counts() {
        let cache = JitCache::new(2);
        let opt = OptLevel::none();
        let mut builds = 0;
        get(&cache, &record(1, 4), &opt, &mut builds);
        get(&cache, &record(2, 4), &opt, &mut builds);
        get(&cache, &record(1, 4), &opt, &mut builds); // refresh batch-1
        get(&cache, &record(3, 4), &opt, &mut builds); // evicts batch-2
        assert_eq!((cache.len(), cache.evictions(), builds), (2, 1, 3));
        // Batch 1 survived (a hit); the evicted batch 2 rebuilds.
        get(&cache, &record(1, 4), &opt, &mut builds);
        assert_eq!(builds, 3);
        get(&cache, &record(2, 4), &opt, &mut builds);
        assert_eq!((builds, cache.misses()), (4, 4));
    }

    #[test]
    fn racing_misses_of_one_key_share_the_first_inserted_plan() {
        let cache: ProgramCache<u8> = ProgramCache::new(4);
        let both_missed = std::sync::Barrier::new(2);
        let build = || {
            // Neither build returns until both lookups have missed.
            both_missed.wait();
            lower(&record(2, 4), &OptLevel::none())
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| cache.get_or_build(&7, build).unwrap());
            let b = s.spawn(|| cache.get_or_build(&7, build).unwrap());
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(Arc::ptr_eq(&a.0, &b.0), "both holders must share one plan");
        assert!(!a.1 && !b.1);
        assert_eq!((cache.len(), cache.misses(), cache.hits()), (1, 2, 0));
        // A failed build inserts and counts nothing.
        let err: Result<_, &str> = cache.get_or_build(&9, || Err("no"));
        assert_eq!(err.err(), Some("no"));
        assert_eq!((cache.len(), cache.misses()), (1, 2));
    }
}
