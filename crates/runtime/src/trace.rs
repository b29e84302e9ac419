//! The trace-keyed JIT cache: compile a recorded trace once per
//! `(structure, shape, opt level)` and reuse the lowered program forever
//! after.
//!
//! This is the runtime half of the LazyTensor-style split in
//! [`latte_core::trace`]: eager code *records* ops into a
//! [`TraceSession`](latte_core::TraceSession), the finished
//! [`Trace`] carries a canonical [`TraceKey`], and this
//! cache maps `(TraceKey, OptLevel)` to a fully lowered
//! [`CompiledProgram`]. The first sighting of a key pays the whole
//! pipeline — synthesis, the nine optimization passes, kernel lowering,
//! bounds proofs, liveness layout. Every later sighting is a hash lookup;
//! the per-pass counters let tests assert that the second execution of
//! any `(net, shape)` pair runs **zero** compiler passes.
//!
//! The cache is bounded: least-recently-used entries are evicted once
//! `capacity` distinct keys are resident, and evictions are counted so
//! serving metrics can observe thrash.
//!
//! When `LATTE_DUMP_IR=<dir>` is set, each miss also writes the final
//! compiled program to `<dir>/<key.label()>-o<opthash>.txt` — the
//! trace-hash-keyed counterpart of the per-pass snapshots the
//! [`PassManager`](latte_core::PassManager) writes during compilation.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

use latte_core::dsl::Net;
use latte_core::{compile, CompiledNet, OptLevel, Trace, TraceKey};

use crate::error::RuntimeError;
use crate::exec::{CompiledProgram, ExecConfig, Executor};
use crate::pool::WorkerPool;
use crate::registry::KernelRegistry;

/// Observable counters of a [`TraceCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCacheStats {
    /// Lookups served from the cache (no compilation).
    pub hits: usize,
    /// Lookups that compiled and lowered a new program.
    pub misses: usize,
    /// Entries evicted by the LRU bound.
    pub evictions: usize,
    /// Total *enabled* compiler passes run across all misses. Flat across
    /// two identical lookups ⇔ the second one compiled nothing.
    pub passes_run: usize,
}

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
/// a recency tick, with hit/miss/eviction counters. [`TraceCache`] keys
/// it by `(TraceKey, OptLevel)`; `latte-serve`'s `PlanCache` by
/// `(fingerprint, batch)`.
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
    /// Whether a program for `key` is resident (does not touch recency
    /// or counters).
    pub fn contains(&self, key: &K) -> bool {
        self.lock().entries.contains_key(key)
    }

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

/// A bounded, LRU-evicting cache of lowered programs keyed by
/// `(TraceKey, OptLevel)`.
///
/// # Examples
///
/// ```
/// use latte_core::{OptLevel, TraceSession};
/// use latte_core::dsl::{Ensemble, Mapping};
/// use latte_runtime::TraceCache;
/// use latte_tensor::{init, Tensor};
///
/// let record = || {
///     let mut s = TraceSession::new(4);
///     let d = s.add(Ensemble::data("data", vec![8]));
///     let fc = s.add(
///         Ensemble::new("fc1", vec![2], latte_core::dsl::stdlib::weighted_neuron())
///             .with_field("weights", vec![false], init::xavier(vec![2, 8], 8, 0))
///             .with_field("bias", vec![false], Tensor::zeros(vec![2, 1]))
///             .with_param("weights", 1.0)
///             .with_param("bias", 2.0),
///     );
///     s.connect(d, fc, Mapping::all_to_all(vec![8]));
///     s.finish()
/// };
/// let mut cache = TraceCache::new(16);
/// let opt = OptLevel::full();
/// cache.get(&record(), &opt)?;           // miss: compiles
/// cache.get(&record(), &opt)?;           // hit: no passes run
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().misses, 1);
/// # Ok::<(), latte_runtime::RuntimeError>(())
/// ```
pub struct TraceCache {
    registry: KernelRegistry,
    cfg: ExecConfig,
    programs: ProgramCache<(TraceKey, OptLevel)>,
    passes_run: usize,
}

impl std::fmt::Debug for TraceCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCache")
            .field("programs", &self.programs)
            .field("passes_run", &self.passes_run)
            .finish_non_exhaustive()
    }
}

impl TraceCache {
    /// A cache holding at most `capacity` lowered programs, using the
    /// built-in kernel registry and default execution configuration.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self::with_config(capacity, KernelRegistry::with_builtins(), ExecConfig::default())
    }

    /// A cache with an explicit kernel registry and execution
    /// configuration (both are baked into every lowered program).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_config(capacity: usize, registry: KernelRegistry, cfg: ExecConfig) -> Self {
        TraceCache {
            registry,
            cfg,
            programs: ProgramCache::new(capacity),
            passes_run: 0,
        }
    }

    /// The maximum number of resident programs.
    pub fn capacity(&self) -> usize {
        self.programs.capacity()
    }

    /// The number of currently resident programs.
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    /// Whether the cache holds no programs.
    pub fn is_empty(&self) -> bool {
        self.programs.is_empty()
    }

    /// The cache's counters.
    pub fn stats(&self) -> TraceCacheStats {
        TraceCacheStats {
            hits: self.programs.hits() as usize,
            misses: self.programs.misses() as usize,
            evictions: self.programs.evictions() as usize,
            passes_run: self.passes_run,
        }
    }

    /// Whether a program for `(key, opt)` is resident (does not touch
    /// LRU state or counters).
    pub fn contains(&self, key: &TraceKey, opt: &OptLevel) -> bool {
        self.programs.contains(&(*key, *opt))
    }

    /// The lowered program for a finished trace: a cache hit returns the
    /// resident `Arc` and runs no compiler pass; a miss compiles the
    /// trace's recorded net, lowers it, and caches the result.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Compile`] when the recorded net fails compilation;
    /// lowering errors pass through unchanged.
    pub fn get(&mut self, trace: &Trace, opt: &OptLevel) -> Result<Arc<CompiledProgram>, RuntimeError> {
        self.get_with(trace.key(), opt, || trace.net().clone())
    }

    /// Like [`TraceCache::get`], but builds the network lazily: `build`
    /// runs only on a miss, so a hot caller never pays for graph
    /// construction. The caller is responsible for `key` actually
    /// describing `build()`'s output (use
    /// [`structure_hash`](latte_core::structure_hash) / [`Trace`] when in
    /// doubt).
    ///
    /// # Errors
    ///
    /// See [`TraceCache::get`].
    pub fn get_with(
        &mut self,
        key: TraceKey,
        opt: &OptLevel,
        build: impl FnOnce() -> Net,
    ) -> Result<Arc<CompiledProgram>, RuntimeError> {
        let (registry, cfg, passes_run) = (&self.registry, self.cfg, &mut self.passes_run);
        let (program, _) = self.programs.get_or_build(&(key, *opt), || {
            let compiled = compile(&build(), opt).map_err(|e| RuntimeError::Compile {
                detail: e.to_string(),
            })?;
            *passes_run += compiled.stats.passes.iter().filter(|p| p.enabled).count();
            dump_ir(&key, opt, &compiled);
            CompiledProgram::lower(compiled, registry, cfg)
        })?;
        Ok(program)
    }

    /// A warm executor for a finished trace, sharing the cached plan:
    /// compilation happens at most once per key, instantiation only
    /// allocates buffers.
    ///
    /// # Errors
    ///
    /// See [`TraceCache::get`]; instantiation failures pass through.
    pub fn executor(
        &mut self,
        trace: &Trace,
        opt: &OptLevel,
        pool: Arc<WorkerPool>,
    ) -> Result<Executor, RuntimeError> {
        self.get(trace, opt)?.instantiate(pool)
    }
}

/// `LATTE_DUMP_IR=<dir>`: writes the final compiled program of a cache
/// miss, named by the trace key's filesystem-safe label plus an opt-level
/// fingerprint (distinct opt levels of one trace dump side by side).
fn dump_ir(key: &TraceKey, opt: &OptLevel, compiled: &CompiledNet) {
    let Some(dir) = std::env::var_os("LATTE_DUMP_IR") else {
        return;
    };
    let dir = std::path::PathBuf::from(dir);
    let mut h = DefaultHasher::new();
    opt.hash(&mut h);
    let name = format!("{}-o{:08x}.txt", key.label(), h.finish() as u32);
    let mut text = String::from("== buffers ==\n");
    for b in &compiled.buffers {
        text.push_str(&format!("{b}\n"));
    }
    text.push_str(&compiled.pretty());
    let _ = std::fs::create_dir_all(&dir);
    let _ = std::fs::write(dir.join(name), text);
}

#[cfg(test)]
mod tests {
    use super::*;
    use latte_core::dsl::stdlib::weighted_neuron;
    use latte_core::dsl::{Ensemble, Mapping};
    use latte_core::TraceSession;
    use latte_tensor::{init, Tensor};

    fn record(batch: usize, width: usize) -> Trace {
        let mut s = TraceSession::new(batch);
        let d = s.add(Ensemble::data("data", vec![width]));
        let fc = s.add(
            Ensemble::new("fc1", vec![3], weighted_neuron())
                .with_field("weights", vec![false], init::xavier(vec![3, width], width, 0))
                .with_field("bias", vec![false], Tensor::zeros(vec![3, 1]))
                .with_param("weights", 1.0)
                .with_param("bias", 2.0),
        );
        s.connect(d, fc, Mapping::all_to_all(vec![width]));
        s.finish()
    }

    #[test]
    fn second_lookup_runs_zero_passes() {
        let mut cache = TraceCache::new(8);
        let opt = OptLevel::full();
        cache.get(&record(4, 8), &opt).unwrap();
        let after_first = cache.stats();
        assert_eq!(after_first.misses, 1);
        assert!(after_first.passes_run > 0);
        let p = cache.get(&record(4, 8), &opt).unwrap();
        let after_second = cache.stats();
        assert_eq!(after_second.hits, 1);
        assert_eq!(after_second.misses, 1);
        assert_eq!(after_second.passes_run, after_first.passes_run);
        assert_eq!(p.batch(), 4);
    }

    #[test]
    fn distinct_shapes_and_opt_levels_miss_separately() {
        let mut cache = TraceCache::new(8);
        let full = OptLevel::full();
        let none = OptLevel::none();
        cache.get(&record(4, 8), &full).unwrap();
        cache.get(&record(2, 8), &full).unwrap(); // new batch → miss
        cache.get(&record(4, 8), &none).unwrap(); // new opt → miss
        cache.get(&record(2, 8), &full).unwrap(); // hit
        let s = cache.stats();
        assert_eq!((s.misses, s.hits), (3, 1));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn lru_bound_evicts_and_counts() {
        let mut cache = TraceCache::new(2);
        let opt = OptLevel::none();
        cache.get(&record(1, 4), &opt).unwrap();
        cache.get(&record(2, 4), &opt).unwrap();
        cache.get(&record(1, 4), &opt).unwrap(); // refresh batch-1
        cache.get(&record(3, 4), &opt).unwrap(); // evicts batch-2
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.contains(&record(1, 4).key(), &opt));
        assert!(!cache.contains(&record(2, 4).key(), &opt));
        // Re-fetching the evicted shape recompiles.
        cache.get(&record(2, 4), &opt).unwrap();
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn get_with_builds_only_on_miss() {
        let mut cache = TraceCache::new(8);
        let opt = OptLevel::none();
        let t = record(4, 8);
        let key = t.key();
        cache.get(&t, &opt).unwrap();
        let mut built = false;
        cache
            .get_with(key, &opt, || {
                built = true;
                t.net().clone()
            })
            .unwrap();
        assert!(!built, "hit must not build the network");
    }

    #[test]
    fn compile_failure_surfaces_as_compile_error() {
        let mut cache = TraceCache::new(8);
        // A cyclic non-recurrent net cannot compile.
        let mut s = TraceSession::new(1);
        let a = s.add(Ensemble::data("a", vec![1]));
        let b = s.add(Ensemble::activation(
            "b",
            vec![1],
            latte_core::dsl::stdlib::relu_neuron(),
        ));
        s.connect(a, b, Mapping::one_to_one());
        s.connect(b, b, Mapping::one_to_one());
        let err = cache.get(&s.finish(), &OptLevel::none()).unwrap_err();
        assert!(matches!(err, RuntimeError::Compile { .. }), "{err}");
    }
    #[test]
    fn racing_misses_of_one_key_share_the_first_inserted_plan() {
        let cache: ProgramCache<u8> = ProgramCache::new(4);
        let both_missed = std::sync::Barrier::new(2);
        let build = || {
            // Neither build returns until both lookups have missed.
            both_missed.wait();
            let compiled = compile(record(2, 4).net(), &OptLevel::none()).unwrap();
            CompiledProgram::lower(compiled, &KernelRegistry::with_builtins(), ExecConfig::default())
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
