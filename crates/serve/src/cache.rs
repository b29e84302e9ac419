//! The execution-plan cache, keyed by `(net fingerprint, batch)`.
//!
//! A model is compiled once, when it is registered, and lowered once, on
//! the first lookup of its fingerprint: a lowered plan is one item's, so
//! every micro-batch size is that one program at another batch
//! ([`CompiledProgram::at_batch`], a handle that lowers and allocates
//! nothing). The cache keeps one entry per `(fingerprint, micro-batch
//! size)` pair, so the serving path never lowers after warm-up and
//! hit/miss counters make "nothing built after warmup" testable: a tail
//! batch of size 3 hits the size-3 entry and runs on its replica's
//! executor, which instantiates (fresh buffers + parameter init) only
//! if it has not yet held 3 items.
//!
//! Nothing is evicted. Entries are at most the registered models times
//! their micro-batch sizes, every entry of one model shares its one
//! plan, and each replica's one executor, sized to the largest batch
//! seen, holds that plan anyway.
//!
//! The cache is shareable (`&self` throughout): a hit is one lock, one
//! hash lookup and one `Arc::clone`. The first lookup of a model lowers
//! **outside** the lock, so a slow lowering does not serialize unrelated
//! lookups; when two threads make it at once both lower, the first
//! insert wins, and both get that one plan.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use latte_runtime::registry::KernelRegistry;
use latte_runtime::{CompiledProgram, ExecConfig, RuntimeError};

use crate::error::ServeError;
use crate::model::Model;

/// `(CompiledNet::fingerprint(), batch)`: the net, and the size its
/// executors run.
type Key = (u64, usize);

#[derive(Debug, Default)]
struct Books {
    entries: HashMap<Key, Arc<CompiledProgram>>,
    hits: u64,
    misses: u64,
}

/// A shareable cache of lowered programs, keyed by
/// `(CompiledNet::fingerprint(), batch)`.
#[derive(Debug)]
pub struct PlanCache {
    registry: KernelRegistry,
    cfg: ExecConfig,
    books: Mutex<Books>,
}

impl PlanCache {
    /// An empty cache lowering with the built-in kernel registry and the
    /// given execution configuration.
    pub fn new(cfg: ExecConfig) -> Self {
        PlanCache {
            registry: KernelRegistry::with_builtins(),
            cfg,
            books: Mutex::new(Books::default()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Books> {
        // Every update leaves the map and counters valid at every step,
        // so a panic elsewhere while holding the lock poisons nothing.
        self.books.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the program for `(model, batch)` and whether it was
    /// already cached. On a miss this is the model's resident program at
    /// `batch`, or, on the model's first lookup, its one compiled program
    /// lowered — no net is built, nothing is compiled or fingerprinted;
    /// on a hit it is a map lookup.
    ///
    /// # Errors
    ///
    /// [`ServeError::Compile`] when lowering fails or `batch` is 0.
    pub fn get(
        &self,
        model: &Model,
        batch: usize,
    ) -> Result<(Arc<CompiledProgram>, bool), ServeError> {
        self.get_or_lower((model.fingerprint(), batch), || {
            CompiledProgram::lower(model.compiled().clone(), &self.registry, self.cfg)
        })
        .map_err(|e| ServeError::Compile {
            detail: format!("{} @ batch {batch}: {e}", model.name()),
        })
    }

    /// The program under `key`, and whether it was already resident. On a
    /// miss whose fingerprint is resident at another batch that program
    /// is reused; otherwise `lower` runs unlocked. A failed miss inserts
    /// and counts nothing.
    fn get_or_lower(
        &self,
        key: Key,
        lower: impl FnOnce() -> Result<CompiledProgram, RuntimeError>,
    ) -> Result<(Arc<CompiledProgram>, bool), RuntimeError> {
        let resident = {
            let mut books = self.lock();
            if let Some(hit) = books.entries.get(&key) {
                let program = Arc::clone(hit);
                books.hits += 1;
                return Ok((program, true));
            }
            books
                .entries
                .iter()
                .find(|(k, _)| k.0 == key.0)
                .map(|(_, p)| Arc::clone(p))
        };
        let sized = match resident {
            Some(program) => program.at_batch(key.1)?,
            None => lower()?.at_batch(key.1)?,
        };
        let mut books = self.lock();
        books.misses += 1;
        // A concurrent miss may have inserted first: keep its entry so
        // every holder shares one handle.
        let entry = books.entries.entry(key).or_insert_with(|| Arc::new(sized));
        Ok((Arc::clone(entry), false))
    }

    /// Cache hits served so far (lookups that found an entry).
    pub fn hits(&self) -> u64 {
        self.lock().hits
    }

    /// Cache misses so far: lookups that found no entry and built one,
    /// including a racing lookup whose entry lost to an earlier insert. A
    /// failed miss is not counted.
    pub fn misses(&self) -> u64 {
        self.lock().misses
    }

    /// Always 0: the cache evicts nothing. Kept because the repo
    /// benchmark (`benchmark/src/serve.rs`) still reports it.
    pub fn evictions(&self) -> u64 {
        0
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
                lower(cache, model)
            })
            .unwrap();
    }

    fn lower(cache: &PlanCache, model: &Model) -> Result<CompiledProgram, RuntimeError> {
        CompiledProgram::lower(model.compiled().clone(), &cache.registry, cache.cfg)
    }

    #[test]
    fn second_lookup_builds_nothing() {
        let cache = PlanCache::new(ExecConfig::default());
        let mut builds = 0;
        lookup(&cache, &tiny_model(2), 4, &mut builds);
        assert_eq!((builds, cache.misses(), cache.hits()), (1, 1, 0));
        // A separately built but identical model has the same key.
        lookup(&cache, &tiny_model(2), 4, &mut builds);
        assert_eq!(
            (builds, cache.misses(), cache.hits()),
            (1, 1, 1),
            "a hit must not build"
        );
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
        lookup(&cache, &two, 2, &mut builds); // new batch → miss, nothing lowered
        lookup(&cache, &three, 4, &mut builds); // new net → miss, lowered
        lookup(&cache, &two, 2, &mut builds); // hit
        assert_eq!((builds, cache.misses(), cache.hits()), (2, 3, 1));
        assert_eq!(cache.len(), 3);
        let (at4, at2) = (cache.get(&two, 4).unwrap().0, cache.get(&two, 2).unwrap().0);
        assert_eq!((at4.batch(), at2.batch()), (4, 2));
        assert!(std::ptr::eq(at4.plan(), at2.plan()), "one net, one plan");
    }

    #[test]
    fn racing_misses_of_one_key_share_the_first_inserted_plan() {
        let cache = PlanCache::new(ExecConfig::default());
        let model = tiny_model(2);
        let key = (model.fingerprint(), 2);
        let both_missed = std::sync::Barrier::new(2);
        let lower = || {
            // Neither lowering returns until both lookups have missed.
            both_missed.wait();
            lower(&cache, &model)
        };
        let (a, b) = std::thread::scope(|s| {
            let a = s.spawn(|| cache.get_or_lower(key, lower).unwrap());
            let b = s.spawn(|| cache.get_or_lower(key, lower).unwrap());
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(Arc::ptr_eq(&a.0, &b.0), "both holders must share one plan");
        assert!(!a.1 && !b.1);
        assert_eq!((cache.len(), cache.misses(), cache.hits()), (1, 2, 0));
        // A failed lowering, of a net not yet resident, inserts and
        // counts nothing.
        let failed = cache.get_or_lower((key.0 ^ 1, 9), || {
            Err(RuntimeError::Malformed {
                detail: "no".to_string(),
            })
        });
        assert!(matches!(failed, Err(RuntimeError::Malformed { .. })));
        assert_eq!((cache.len(), cache.misses()), (1, 2));
    }
}
