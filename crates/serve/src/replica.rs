//! The batch engine each replica thread runs, plus the fault hooks that
//! let tests kill a replica mid-batch.
//!
//! A replica owns one [`BatchEngine`]: a persistent [`WorkerPool`] plus
//! one warm [`Executor`], sized to the largest micro-batch seen and
//! instantiated from a plan in the shared [`PlanCache`]. A smaller batch
//! runs on the first items of its storages
//! ([`Executor::set_batch`]), so a replica's memory is one executor at
//! its largest batch. The cache is consulted on *every* batch (so hit
//! counters observe the steady state); once the executor has seen the
//! largest batch the steady state is allocation-free too.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use latte_runtime::fault::FaultPlan;
use latte_runtime::pool::WorkerPool;
use latte_runtime::Executor;

use crate::cache::PlanCache;
use crate::error::ServeError;
use crate::model::Model;

/// What a [`ReplicaHooks::on_batch`] observer tells the replica to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchAction {
    /// Run the batch normally.
    Proceed,
    /// Die mid-batch: the replica puts the batch back for a live
    /// replica to retry, starts its own replacement, and exits.
    Crash,
}

/// Test/fault seam invoked by a replica just before it executes a
/// micro-batch.
pub trait ReplicaHooks: Send + Sync {
    /// Called with the replica id, the job's dispatch sequence number,
    /// and the micro-batch size; returning [`BatchAction::Crash`] kills
    /// the replica mid-batch.
    fn on_batch(&self, replica: usize, seq: u64, size: usize) -> BatchAction;
}

/// The default hooks: never crash.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoHooks;

impl ReplicaHooks for NoHooks {
    fn on_batch(&self, _replica: usize, _seq: u64, _size: usize) -> BatchAction {
        BatchAction::Proceed
    }
}

/// A gate hook for tests: blocks every batch until opened, so a test
/// can hold work in flight and observe backpressure deterministically.
#[derive(Debug, Default)]
pub struct GateHooks {
    state: Mutex<bool>,
    cv: Condvar,
}

impl GateHooks {
    /// A closed gate.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens the gate, releasing every blocked and future batch.
    pub fn open(&self) {
        *self.state.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

impl ReplicaHooks for GateHooks {
    fn on_batch(&self, _replica: usize, _seq: u64, _size: usize) -> BatchAction {
        let mut open = self.state.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
        BatchAction::Proceed
    }
}

/// Hooks that replay a [`FaultPlan`] against the serving layer: each
/// replica's batches count as its "iterations", and
/// [`Fault::NodeCrash`](latte_runtime::fault::Fault::NodeCrash) entries
/// kill that replica at that batch ordinal. Replacement replicas get
/// fresh, never-reused ids, so a crash plan for replica 0 does not
/// re-kill its replacement.
#[derive(Debug)]
pub struct FaultHooks {
    plan: FaultPlan,
    ordinals: Mutex<HashMap<usize, usize>>,
}

impl FaultHooks {
    /// Hooks replaying `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultHooks {
            plan,
            ordinals: Mutex::new(HashMap::new()),
        }
    }
}

impl ReplicaHooks for FaultHooks {
    fn on_batch(&self, replica: usize, _seq: u64, _size: usize) -> BatchAction {
        let ordinal = {
            let mut m = self.ordinals.lock().unwrap();
            let slot = m.entry(replica).or_insert(0);
            let o = *slot;
            *slot += 1;
            o
        };
        if self.plan.crashed_by(replica, ordinal) {
            BatchAction::Crash
        } else {
            BatchAction::Proceed
        }
    }
}

/// One replica's execution state: one executor, sized to the largest
/// micro-batch seen, on one worker pool, with the server-wide plan
/// cache.
pub struct BatchEngine {
    model: Arc<Model>,
    cache: Arc<PlanCache>,
    pool: Arc<WorkerPool>,
    /// `None` until the first batch.
    exec: Option<Executor>,
}

impl std::fmt::Debug for BatchEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchEngine")
            .field("model", &self.model.name())
            .field("capacity", &self.exec.as_ref().map(Executor::capacity))
            .finish_non_exhaustive()
    }
}

impl BatchEngine {
    /// A fresh engine for `model`, lowering through `cache` and running
    /// on a new `threads`-wide worker pool.
    pub fn new(model: Arc<Model>, cache: Arc<PlanCache>, threads: usize) -> Self {
        BatchEngine {
            model,
            cache,
            pool: Arc::new(WorkerPool::new(threads)),
            exec: None,
        }
    }

    /// Runs one micro-batch: each element of `items` is one request's
    /// `(ensemble, per_item values)` inputs, landing in that batch slot.
    /// Returns each item's `(output buffer, values)` rows plus whether
    /// the batch size's plan was already cached.
    ///
    /// A batch above the executor's capacity replaces it with one at the
    /// new size, the old one dropped first, so a replica never holds
    /// two; a batch within it runs on the executor as it is.
    ///
    /// # Errors
    ///
    /// [`ServeError::Compile`] on a first-time lowering failure,
    /// [`ServeError::Execution`] for instantiation or buffer-access
    /// failures.
    #[allow(clippy::type_complexity)]
    pub fn run(
        &mut self,
        items: &[Vec<(String, Vec<f32>)>],
    ) -> Result<(Vec<Vec<(String, Vec<f32>)>>, bool), ServeError> {
        let n = items.len();
        let (program, cache_hit) = self.cache.get(&self.model, n)?;
        if self.exec.as_ref().is_none_or(|e| e.capacity() < n) {
            self.exec = None;
            let exec =
                program
                    .instantiate(Arc::clone(&self.pool))
                    .map_err(|e| ServeError::Execution {
                        detail: format!("instantiate @ batch {n}: {e}"),
                    })?;
            self.exec = Some(exec);
        }
        let exec = self
            .exec
            .as_mut()
            .expect("an executor of at least `n` items");
        exec.set_batch(n).map_err(|e| ServeError::Execution {
            detail: format!("batch {n}: {e}"),
        })?;
        for (slot, inputs) in items.iter().enumerate() {
            for (ensemble, data) in inputs {
                exec.set_input_item(ensemble, slot, data)
                    .map_err(|e| ServeError::Execution {
                        detail: format!("input `{ensemble}` slot {slot}: {e}"),
                    })?;
            }
        }
        exec.forward();
        let mut out = Vec::with_capacity(n);
        for slot in 0..n {
            let mut rows = Vec::with_capacity(self.model.outputs().len());
            for name in self.model.outputs() {
                let values = exec
                    .read_item(name, slot)
                    .map_err(|e| ServeError::Execution {
                        detail: format!("output `{name}` slot {slot}: {e}"),
                    })?;
                rows.push((name.clone(), values));
            }
            out.push(rows);
        }
        Ok((out, cache_hit))
    }
}
