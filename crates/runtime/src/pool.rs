//! Persistent worker pool: the threaded execution backbone.
//!
//! The paper's generated code runs its collapsed batch×tile loops on
//! OpenMP's *persistent* thread team with `schedule(static, 1)` — threads
//! are created once per process and every parallel region reuses them.
//! This module is that backbone for the Rust runtime: a [`WorkerPool`] is
//! created **once per [`Executor`](crate::Executor)** (or shared by the
//! executors of one serving replica) and every parallel group and
//! batched GEMM of every iteration broadcasts work to the same
//! long-lived workers. Nothing on
//! the per-iteration path spawns a thread or allocates a scratch buffer.
//!
//! Three kinds of state ride along with the workers:
//!
//! * **Per-worker contexts** ([`WorkerCtx`]) — each worker owns a
//!   [`Gemm`] engine whose packing buffers grow once and are reused, so
//!   engines stop being re-grown when work migrates threads (the old
//!   `thread_local!` arrangement) and need no `RefCell`.
//! * **Lane scratch arenas** — parameter-gradient scratch for the
//!   synchronized reduction, keyed by *lane* (see below), allocated once
//!   and zeroed (never reallocated) per parallel group.
//! * **A global spawn counter** — [`total_threads_spawned`] lets tests
//!   assert that workers are created exactly once per pool.
//!
//! # Determinism: gradient lanes
//!
//! Under the paper's synchronized reduction each batch item's
//! parameter-gradient contribution is accumulated into private scratch
//! and reduced afterwards. Floating-point addition does not reassociate,
//! so *which* contributions share an accumulator — and the order the
//! accumulators are reduced in — must not depend on the thread count, or
//! `threads=4` would (slightly) diverge from `threads=1`. The pool
//! therefore fixes a thread-count-independent structure of
//! [`GRAD_LANES`] **lanes**: item `i` always accumulates into lane
//! `i % lanes`, lanes are distributed statically across however many
//! workers exist (worker `t` owns lanes `t, t+T, ...` — the
//! `schedule(static, 1)` shape), and the final reduction folds lanes into
//! the master buffer in lane order on the caller. Every sum therefore has
//! the same association for any thread count, making threaded execution
//! **bit-identical** to `threads=1`.

use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use latte_tensor::gemm::{Gemm, GemmPool};

/// Number of parameter-gradient accumulation lanes.
///
/// Fixed independently of the worker count so the reduction tree — and
/// therefore every floating-point result — is identical for any
/// `threads`. Also the useful upper bound on workers for groups that
/// accumulate parameter gradients.
pub const GRAD_LANES: usize = 8;

/// OS threads spawned by all pools over the process lifetime.
static THREADS_SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// Total worker OS threads ever spawned by [`WorkerPool`]s in this
/// process. A pool of `t` threads spawns exactly `t - 1` (the caller is
/// worker 0); the count never moves during steady-state execution — the
/// regression test for "no per-iteration thread spawning".
pub fn total_threads_spawned() -> usize {
    THREADS_SPAWNED.load(Ordering::Relaxed)
}

/// Mutable per-worker state, exclusive to one worker during a job.
#[derive(Debug)]
pub struct WorkerCtx {
    /// The worker's GEMM engine. Packing buffers grow to the largest
    /// shape seen and are reused across iterations.
    pub gemm: Gemm,
    /// The executor's per-item working storage (loop variables, buffer
    /// views, element-program columns), grown once and reused.
    pub(crate) scratch: crate::exec::Scratch,
}

/// Type-erased job pointer broadcast to workers. The pointed-to closure
/// outlives the broadcast because [`WorkerPool::run`] does not return
/// until every worker finished it.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize, &mut WorkerCtx) + Sync + 'static));
// SAFETY: the closure is Sync and the pointer is only dereferenced while
// `run` keeps the referent alive.
unsafe impl Send for JobPtr {}

struct State {
    /// Bumped per broadcast; workers run a job exactly once per bump.
    seq: u64,
    job: Option<JobPtr>,
    /// Workers that have not yet finished the current job.
    remaining: usize,
    /// Panic messages collected from workers for the current job.
    panics: Vec<String>,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    work: Condvar,
    done: Condvar,
}

/// One worker's context slot. Each slot is accessed mutably only by its
/// owning worker (the caller for slot 0) while a job runs.
struct CtxCell(UnsafeCell<WorkerCtx>);
// SAFETY: the job protocol hands each slot to exactly one thread.
unsafe impl Sync for CtxCell {}

/// A persistent team of worker threads with per-worker GEMM engines and
/// pool-owned gradient-lane scratch. See the module docs for the
/// determinism and lifecycle story.
///
/// Pools are shareable (`Arc<WorkerPool>`): a serving replica keeps one
/// pool and hands it to every warm per-batch-shape
/// [`Executor`](crate::Executor) it instantiates, so plan-cache hits
/// never spawn threads. Sharing does not relax the exclusive-run
/// protocol — at most one executor may drive a given pool at a time.
pub struct WorkerPool {
    shared: Arc<Shared>,
    ctxs: Arc<Vec<CtxCell>>,
    /// Gradient-lane arenas, one `Vec<f32>` per lane. Behind a mutex so
    /// `lane_scratch` works through a shared reference; the mutex guards
    /// arena *growth* only — workers touch lane contents through raw
    /// spans under the exclusive-run protocol.
    lanes: Mutex<Vec<Vec<f32>>>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Creates a pool driving `threads` workers (clamped to at least 1).
    ///
    /// Worker 0 is the calling thread; `threads - 1` OS threads are
    /// spawned *now* and live until the pool drops — no further spawning
    /// ever happens. A single-threaded pool spawns nothing and
    /// [`WorkerPool::run`] degenerates to a plain call.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                seq: 0,
                job: None,
                remaining: 0,
                panics: Vec::new(),
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let ctxs: Arc<Vec<CtxCell>> = Arc::new(
            (0..threads)
                .map(|_| {
                    CtxCell(UnsafeCell::new(WorkerCtx {
                        gemm: Gemm::new(),
                        scratch: Default::default(),
                    }))
                })
                .collect(),
        );
        let mut handles = Vec::with_capacity(threads.saturating_sub(1));
        for tid in 1..threads {
            let shared = Arc::clone(&shared);
            let ctxs = Arc::clone(&ctxs);
            let handle = std::thread::Builder::new()
                .name(format!("latte-worker-{tid}"))
                .spawn(move || worker_loop(tid, &shared, &ctxs))
                .expect("spawn pool worker");
            THREADS_SPAWNED.fetch_add(1, Ordering::Relaxed);
            handles.push(handle);
        }
        WorkerPool {
            shared,
            ctxs,
            lanes: Mutex::new(Vec::new()),
            handles,
            threads,
        }
    }

    /// The worker count (including the caller as worker 0).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Broadcasts `job` to every worker and returns when all have
    /// finished. The caller participates as worker 0, so a
    /// single-threaded pool runs the job inline with zero synchronization.
    ///
    /// Jobs partition work by `tid` (static interleaving); each
    /// invocation gets exclusive access to its worker's [`WorkerCtx`].
    /// Runs are exclusive: the pool must not be re-entered from inside a
    /// job (executor and trainer drive it behind `&mut self`, which
    /// guarantees this).
    ///
    /// # Panics
    ///
    /// Re-raises the caller's panic, or panics with the collected
    /// messages when worker threads panicked.
    pub fn run(&self, job: &(dyn Fn(usize, &mut WorkerCtx) + Sync)) {
        if self.threads == 1 {
            // SAFETY: exclusive run (no job in flight), slot 0 is ours.
            let ctx = unsafe { &mut *self.ctxs[0].0.get() };
            job(0, ctx);
            return;
        }
        // SAFETY: erasing the closure's lifetime; `run` blocks until all
        // workers finished the job, so the referent outlives every use.
        let erased: JobPtr = unsafe {
            std::mem::transmute::<*const (dyn Fn(usize, &mut WorkerCtx) + Sync), JobPtr>(
                job as *const (dyn Fn(usize, &mut WorkerCtx) + Sync),
            )
        };
        {
            let mut st = self.shared.state.lock().expect("pool state");
            debug_assert!(st.job.is_none(), "pool re-entered while a job is in flight");
            st.job = Some(erased);
            st.seq += 1;
            st.remaining = self.threads - 1;
            st.panics.clear();
        }
        self.shared.work.notify_all();
        // Caller is worker 0. Catch its panic so worker completion is
        // still awaited (the job must not outlive this frame).
        let caller = {
            // SAFETY: slot 0 belongs to the caller during the job.
            let ctx = unsafe { &mut *self.ctxs[0].0.get() };
            catch_unwind(AssertUnwindSafe(|| job(0, ctx)))
        };
        let worker_panics = {
            let mut st = self.shared.state.lock().expect("pool state");
            while st.remaining > 0 {
                st = self.shared.done.wait(st).expect("pool done wait");
            }
            st.job = None;
            std::mem::take(&mut st.panics)
        };
        if let Err(payload) = caller {
            std::panic::resume_unwind(payload);
        }
        assert!(
            worker_panics.is_empty(),
            "worker pool job panicked: {}",
            worker_panics.join("; ")
        );
    }

    /// Runs `f` with worker 0's context on the calling thread, without
    /// waking the team — the serial path for non-parallel groups and for
    /// GEMMs that do not split ([`GemmPool::run_serial`]), using the same
    /// persistent GEMM engine.
    pub(crate) fn with_caller_ctx<R>(&self, f: impl FnOnce(&mut WorkerCtx) -> R) -> R {
        // SAFETY: no job is in flight (runs are exclusive), so slot 0 is
        // exclusively the caller's.
        let ctx = unsafe { &mut *self.ctxs[0].0.get() };
        f(ctx)
    }

    /// Prepares `lanes` (at most [`GRAD_LANES`]) zeroed scratch areas of
    /// `total` elements each and returns their base pointers; unused
    /// entries are null. The backing arenas are pool-owned: they grow
    /// monotonically to the largest request and are *zeroed*, never
    /// reallocated, on reuse, and the call itself allocates nothing
    /// once they have grown.
    ///
    /// The returned pointers stay valid until the next `lane_scratch`
    /// call (which may grow — and thereby reallocate — an arena); each
    /// lane must be written by at most one worker at a time (the
    /// lane-ownership schedule guarantees this), and the exclusive-run
    /// protocol forbids a second executor from calling in while the
    /// lanes are live.
    pub(crate) fn lane_scratch(&self, lanes: usize, total: usize) -> [*mut f32; GRAD_LANES] {
        let mut arenas = self.lanes.lock().expect("pool lane arenas");
        if arenas.len() < lanes {
            arenas.resize_with(lanes, Vec::new);
        }
        let mut out = [std::ptr::null_mut(); GRAD_LANES];
        for (arena, base) in arenas.iter_mut().zip(&mut out).take(lanes) {
            if arena.len() < total {
                arena.resize(total, 0.0);
            }
            arena[..total].fill(0.0);
            *base = arena.as_mut_ptr();
        }
        out
    }
}

// SAFETY: `run` invokes the job once for every `tid` in `0..threads`,
// each with worker `tid`'s own context (and so its own engine), and
// returns only after every invocation finished.
unsafe impl GemmPool for WorkerPool {
    fn threads(&self) -> usize {
        self.threads
    }

    fn run_gemm(&self, job: &(dyn Fn(usize, &mut Gemm) + Sync)) {
        self.run(&|tid, ctx| job(tid, &mut ctx.gemm));
    }

    fn run_serial(&self, job: &mut dyn FnMut(&mut Gemm)) {
        self.with_caller_ctx(|ctx| job(&mut ctx.gemm));
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool state");
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(tid: usize, shared: &Shared, ctxs: &[CtxCell]) {
    let mut last_seq = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool state");
            loop {
                if st.shutdown {
                    return;
                }
                if st.seq != last_seq {
                    if let Some(job) = st.job {
                        last_seq = st.seq;
                        break job;
                    }
                }
                st = shared.work.wait(st).expect("pool work wait");
            }
        };
        // SAFETY: slot `tid` is exclusively this worker's during the job;
        // the job pointer is kept alive by the broadcasting `run` frame.
        let result = catch_unwind(AssertUnwindSafe(|| {
            let ctx = unsafe { &mut *ctxs[tid].0.get() };
            unsafe { (*job.0)(tid, ctx) }
        }));
        let mut st = shared.state.lock().expect("pool state");
        if let Err(payload) = result {
            st.panics
                .push(crate::error::panic_message(payload.as_ref()).to_string());
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn run_invokes_every_worker_exactly_once() {
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        for _ in 0..10 {
            pool.run(&|tid, _ctx| {
                hits[tid].fetch_add(1, Ordering::Relaxed);
            });
        }
        for (tid, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 10, "worker {tid}");
        }
    }

    #[test]
    fn workers_are_spawned_once_per_pool() {
        let before = total_threads_spawned();
        let pool = WorkerPool::new(3);
        assert_eq!(total_threads_spawned(), before + 2);
        for _ in 0..50 {
            pool.run(&|_tid, _ctx| {});
        }
        assert_eq!(
            total_threads_spawned(),
            before + 2,
            "steady-state runs must not spawn threads"
        );
    }

    #[test]
    fn single_threaded_pool_spawns_nothing_and_runs_inline() {
        let before = total_threads_spawned();
        let pool = WorkerPool::new(1);
        assert_eq!(total_threads_spawned(), before);
        let caller = std::thread::current().id();
        pool.run(&|tid, _ctx| {
            assert_eq!(tid, 0);
            assert_eq!(std::thread::current().id(), caller);
        });
    }

    #[test]
    fn worker_panic_propagates_with_message() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|tid, _ctx| {
                if tid == 1 {
                    panic!("lane blew up");
                }
            });
        }));
        let err = result.expect_err("worker panic must propagate");
        let msg = crate::error::panic_message(err.as_ref());
        assert!(msg.contains("lane blew up"), "got: {msg}");
        // The pool survives a panicked job.
        pool.run(&|_tid, _ctx| {});
    }

    #[test]
    fn lane_scratch_is_zeroed_and_reused() {
        let pool = WorkerPool::new(1);
        let lanes = pool.lane_scratch(2, 8);
        assert!(!lanes[0].is_null() && !lanes[1].is_null());
        assert!(lanes[2..].iter().all(|l| l.is_null()));
        // Dirty lane 0.
        unsafe { *lanes[0] = 42.0 };
        let again = pool.lane_scratch(2, 8);
        // Same backing storage (no reallocation), content re-zeroed.
        assert_eq!(again[0], lanes[0]);
        assert_eq!(unsafe { *again[0] }, 0.0);
    }

    #[test]
    fn gemm_pool_runs_with_per_worker_engines() {
        use latte_tensor::gemm::{Gemm, Transpose};
        let pool = WorkerPool::new(3);
        let (m, n, k) = (70, 130, 40);
        let a: Vec<f32> = (0..m * k).map(|i| (i % 13) as f32 - 6.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32 - 3.0).collect();
        let mut c_par = vec![0.0f32; m * n];
        Gemm::compute_parallel(
            &pool,
            Transpose::No,
            Transpose::No,
            m,
            n,
            k,
            &a,
            &b,
            &mut c_par,
        );
        let mut c_ser = vec![0.0f32; m * n];
        Gemm::new().compute(Transpose::No, Transpose::No, m, n, k, &a, &b, &mut c_ser);
        for (i, (x, y)) in c_ser.iter().zip(&c_par).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "elem {i}");
        }
    }
}
