//! The inference server: bounded admission, the size-or-deadline
//! [`Batcher`] and a queue of flushed batches under one lock, and a
//! supervised pool of replica threads executing micro-batches.
//!
//! # Threading model
//!
//! No async runtime and no thread between the caller and the replicas:
//! a `Server` is its `replicas` threads, each owning a [`BatchEngine`]
//! (one executor, sized to the largest batch seen, and a persistent
//! worker pool). One mutex guards the batcher and the job queue. A
//! submitting thread pushes its request into the batcher and, when that
//! fills the batch, queues the job itself. An idle replica waits on the
//! lock's condvar for a job or for the coalescing batch's deadline, and
//! at the deadline flushes that batch itself. While every replica is
//! busy, arriving requests keep coalescing (up to `max_batch`) into the
//! batch the first free replica takes. Responses come back through
//! per-request [`Ticket`] channels, so a slow client only ever delays
//! itself.
//!
//! # Backpressure
//!
//! Admission is a compare-and-swap against `queue_cap`: the number of
//! admitted-but-unfinished requests is strictly bounded, and the
//! overflowing submit gets [`ServeError::Overloaded`] immediately —
//! the queue never grows without bound and the server never panics at
//! a client.
//!
//! # Fault tolerance
//!
//! A replica that panics mid-batch (injected via [`ReplicaHooks`] or a
//! genuine kernel panic) puts its in-flight job back at the front of
//! the queue, bumps the restart counter, starts a replacement replica
//! under a fresh id (ids are never reused), and dies — up to
//! `retry_limit` retries, after which the job's tickets fail with
//! [`ServeError::ReplicaFailed`]. This holds during shutdown's drain
//! too: shutdown waits for the replacement as for any replica.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use latte_runtime::ExecConfig;

use crate::batcher::{shed_expired, Batcher, FlushReason};
use crate::cache::PlanCache;
use crate::error::ServeError;
use crate::model::Model;
use crate::net::WaitGroup;
use crate::replica::{BatchAction, BatchEngine, NoHooks, ReplicaHooks};

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Micro-batch size cap: a batch flushes the moment it holds this
    /// many requests.
    pub max_batch: usize,
    /// Coalescing deadline: a batch flushes this long after its first
    /// request arrived even if not full.
    pub max_delay: Duration,
    /// Admission cap on admitted-but-unfinished requests; submits beyond
    /// it get [`ServeError::Overloaded`].
    pub queue_cap: usize,
    /// Replica threads executing micro-batches.
    pub replicas: usize,
    /// Worker-pool width inside each replica (intra-batch parallelism).
    pub threads: usize,
    /// Crash retries per micro-batch before its requests fail with
    /// [`ServeError::ReplicaFailed`].
    pub retry_limit: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(2),
            queue_cap: 64,
            replicas: 1,
            threads: 1,
            retry_limit: 1,
        }
    }
}

/// A single-sample inference request: one `(ensemble, per_item values)`
/// entry per input the model declares.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// The request's inputs, matched against
    /// [`Model::inputs`](crate::Model::inputs).
    pub inputs: Vec<(String, Vec<f32>)>,
}

/// How a response was produced — the observability half of every reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplyMeta {
    /// The request's submission sequence number.
    pub seq: u64,
    /// Size of the micro-batch this request rode in.
    pub batch_size: usize,
    /// Why that batch flushed.
    pub flush: FlushReason,
    /// Id of the replica that executed it.
    pub replica: usize,
    /// Times this request was re-run after a replica crash.
    pub retried: u32,
    /// Whether the batch's execution plan came from the cache (`false`
    /// exactly when this batch size was looked up for the first time).
    pub cache_hit: bool,
    /// Submit-to-completion latency.
    pub latency: Duration,
}

/// A completed inference: per-output values plus execution metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// One `(buffer, values)` row per output the model declares.
    pub outputs: Vec<(String, Vec<f32>)>,
    /// How the response was produced.
    pub meta: ReplyMeta,
}

/// The client's handle to an in-flight request.
#[derive(Debug)]
pub struct Ticket {
    seq: u64,
    rx: Receiver<Result<Response, ServeError>>,
}

impl Ticket {
    /// The request's submission sequence number.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Blocks until the response (or failure) arrives.
    ///
    /// # Errors
    ///
    /// The serving-side failure, or [`ServeError::Closed`] when the
    /// server shut down with the request unanswered.
    pub fn wait(self) -> Result<Response, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Closed))
    }

    /// Blocks up to `timeout` for the response.
    ///
    /// # Errors
    ///
    /// As [`Ticket::wait`], plus [`ServeError::WaitTimeout`] when the
    /// deadline expires first.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Response, ServeError> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => r,
            Err(RecvTimeoutError::Timeout) => Err(ServeError::WaitTimeout),
            Err(RecvTimeoutError::Disconnected) => Err(ServeError::Closed),
        }
    }
}

latte_runtime::counter_registry! {
    /// The server's counters, bumped along the request path.
    pub(crate) struct ServeStats;
    /// A monotonic snapshot of the server's counters. The order of the
    /// fields is the order of the `Health` frame's counter block
    /// (`serve::net`): a new counter goes at the end.
    pub struct StatsSnapshot;
    /// Requests admitted past admission control.
    submitted: u64,
    /// Requests answered successfully.
    completed: u64,
    /// Submits refused with [`ServeError::Overloaded`].
    rejected: u64,
    /// Requests failed (execution errors or exhausted crash retries).
    failed: u64,
    /// Micro-batches executed to completion.
    batches: u64,
    /// Batches flushed for reaching `max_batch`.
    flush_size: u64,
    /// Batches flushed by the coalescing deadline.
    flush_deadline: u64,
    /// Batches flushed by an explicit drain.
    flush_drain: u64,
    /// Micro-batch re-dispatches after replica crashes.
    retries: u64,
    /// Replica deaths observed (injected or genuine panics).
    crashes: u64,
    /// Replacement replicas spawned by the supervisor.
    restarts: u64,
    /// High-water mark of admitted-but-unfinished requests.
    max_depth: usize,
    /// Requests refused at admission because their client deadline had
    /// already passed — they never occupied a queue slot.
    deadline_rejected: u64,
    /// Admitted requests shed at batch-flush time because their client
    /// deadline passed while they coalesced — counted, answered with
    /// [`ServeError::DeadlineExceeded`], and never executed.
    deadline_shed: u64,
    /// Replies that found their receiver gone (an abandoned
    /// [`Ticket`], a disconnected network client) or refusing to drain
    /// (a full per-connection response queue) and were dropped instead
    /// of leaked.
    replies_dropped: u64,
    /// Network connections accepted by the front-end.
    conn_accepted: u64,
    /// Network connections refused at the max-connection cap or during
    /// handshake (version mismatch, bad first frame).
    conn_rejected: u64,
    /// Network connections closed by a read/write timeout — the
    /// slow-loris defense.
    conn_timeouts: u64,
    /// Frames that arrived with a bad CRC or an undecodable body.
    frames_corrupt: u64,
}

/// Where an admitted request's reply goes. In-process callers get a
/// dedicated unbounded channel behind a [`Ticket`]; network connections
/// share one *bounded* per-connection channel with replies tagged by
/// the client's request id (the response-backpressure seam).
pub(crate) enum ReplySink {
    /// A [`Ticket`]'s private channel.
    Ticket(Sender<Result<Response, ServeError>>),
    /// A tagged, bounded per-connection reply queue.
    Routed {
        /// The client-chosen request id echoed on the reply frame.
        id: u64,
        /// The connection's bounded reply queue.
        tx: mpsc::SyncSender<(u64, Result<Response, ServeError>)>,
    },
}

impl ReplySink {
    /// Delivers a reply, detecting dead or non-draining receivers: an
    /// abandoned [`Ticket`] (dropped or timed out) and a disconnected
    /// client both surface as a send error, a network client that
    /// stopped draining its bounded reply queue as a full queue. In
    /// every such case the reply is dropped — not leaked into a live
    /// slot — and counted in
    /// [`StatsSnapshot::replies_dropped`].
    fn send(&self, stats: &ServeStats, reply: Result<Response, ServeError>) {
        let delivered = match self {
            ReplySink::Ticket(tx) => tx.send(reply).is_ok(),
            ReplySink::Routed { id, tx } => tx.try_send((*id, reply)).is_ok(),
        };
        if !delivered {
            stats.replies_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// One admitted request riding through the batcher and a job.
struct Pending {
    seq: u64,
    inputs: Vec<(String, Vec<f32>)>,
    sink: ReplySink,
    submitted: Instant,
    /// The client-supplied completion deadline, if any: checked at
    /// admission and again at every batch flush.
    deadline: Option<Instant>,
    retried: u32,
}

/// A flushed micro-batch on its way to (or through) a replica.
struct Job {
    seq: u64,
    items: Vec<Pending>,
    flush: FlushReason,
    crashes: u32,
}

/// What admission and the replicas hand each other, under one lock.
struct State {
    /// The micro-batch still coalescing.
    batcher: Batcher<Pending>,
    /// Flushed batches no replica has taken yet; a retried batch goes
    /// to the front.
    jobs: VecDeque<Job>,
    /// The next job's dispatch sequence number.
    next_job: u64,
    /// Set by [`Server::shutdown`] once its drain flush is queued: a
    /// replica that finds `jobs` empty exits.
    stopping: bool,
}

/// Nothing runs under the server's lock that can panic: it only moves
/// requests between the batcher and the job queue and answers shed ones.
const UNPOISONED: &str = "no thread panics while holding the server's lock";

/// State shared by the server handle and every replica.
struct Shared {
    model: Arc<Model>,
    cache: Arc<PlanCache>,
    hooks: Arc<dyn ReplicaHooks>,
    cfg: ServeConfig,
    stats: Arc<ServeStats>,
    depth: AtomicUsize,
    state: Mutex<State>,
    /// Signalled when a job is queued, a batch starts coalescing, or
    /// the server stops.
    work: Condvar,
    /// The next replica's id; ids are never reused.
    next_replica: AtomicUsize,
    /// Live replica threads, for [`Server::shutdown`] to wait on.
    replicas: WaitGroup,
}

/// The running server. [`Server::shutdown`] (or dropping it) drains
/// pending work and waits for every replica thread.
pub struct Server {
    shared: Arc<Shared>,
    next_seq: AtomicU64,
    draining: AtomicBool,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("model", &self.shared.model.name())
            .field("cfg", &self.shared.cfg)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Starts a server for `model` with a private plan cache and no
    /// fault hooks.
    pub fn start(model: Model, cfg: ServeConfig) -> Server {
        let cache = Arc::new(PlanCache::new(ExecConfig {
            threads: cfg.threads,
            ..ExecConfig::default()
        }));
        Self::start_with(Arc::new(model), cfg, cache, Arc::new(NoHooks))
    }

    /// Starts a server with an explicit (possibly shared) plan cache and
    /// replica hooks. Sharing one cache across servers exercises the
    /// hit path end to end: the second server instantiates executors
    /// from already-lowered plans without compiling anything.
    pub fn start_with(
        model: Arc<Model>,
        cfg: ServeConfig,
        cache: Arc<PlanCache>,
        hooks: Arc<dyn ReplicaHooks>,
    ) -> Server {
        let shared = Arc::new(Shared {
            model,
            cache,
            hooks,
            cfg,
            stats: Arc::new(ServeStats::default()),
            depth: AtomicUsize::new(0),
            state: Mutex::new(State {
                batcher: Batcher::new(cfg.max_batch, cfg.max_delay),
                jobs: VecDeque::new(),
                next_job: 0,
                stopping: false,
            }),
            work: Condvar::new(),
            next_replica: AtomicUsize::new(0),
            replicas: WaitGroup::default(),
        });
        for _ in 0..cfg.replicas.max(1) {
            spawn_replica(&shared);
        }
        Server {
            shared,
            next_seq: AtomicU64::new(0),
            draining: AtomicBool::new(false),
        }
    }

    /// Submits one request, returning a [`Ticket`] for its response.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for signature mismatches,
    /// [`ServeError::Overloaded`] when admission control is at capacity,
    /// [`ServeError::Closed`] after shutdown.
    pub fn submit(&self, req: Request) -> Result<Ticket, ServeError> {
        self.submit_with_deadline(req, None)
    }

    /// Submits one request carrying a client completion deadline. A
    /// deadline already in the past is rejected with
    /// [`ServeError::DeadlineExceeded`] *before* the request can occupy
    /// a queue slot; a deadline that expires while the request
    /// coalesces sheds it at flush time — either way the model never
    /// runs for an answer nobody can use.
    ///
    /// # Errors
    ///
    /// As [`Server::submit`], plus [`ServeError::DeadlineExceeded`].
    pub fn submit_with_deadline(
        &self,
        req: Request,
        deadline: Option<Instant>,
    ) -> Result<Ticket, ServeError> {
        let (tx, rx) = mpsc::channel();
        let seq = self.submit_sink(req, deadline, ReplySink::Ticket(tx))?;
        Ok(Ticket { seq, rx })
    }

    /// The shared admission path: deadline check, draining check,
    /// bounded-depth CAS, then the push into the batcher, which queues a
    /// filled batch on this thread. The network front-end calls this
    /// directly with a [`ReplySink::Routed`] sink.
    pub(crate) fn submit_sink(
        &self,
        req: Request,
        deadline: Option<Instant>,
        sink: ReplySink,
    ) -> Result<u64, ServeError> {
        let shared = &*self.shared;
        if let Some(d) = deadline {
            let now = Instant::now();
            if d <= now {
                shared
                    .stats
                    .deadline_rejected
                    .fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::DeadlineExceeded { late_by: now - d });
            }
        }
        if self.draining.load(Ordering::Acquire) {
            return Err(ServeError::Draining);
        }
        shared.model.validate(&req.inputs)?;
        let cap = shared.cfg.queue_cap;
        let mut d = shared.depth.load(Ordering::Relaxed);
        loop {
            if d >= cap {
                shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded {
                    depth: d,
                    capacity: cap,
                });
            }
            match shared
                .depth
                .compare_exchange(d, d + 1, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(current) => d = current,
            }
        }
        shared
            .stats
            .max_depth
            .fetch_max(d as u64 + 1, Ordering::Relaxed);
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let pending = Pending {
            seq,
            inputs: req.inputs,
            sink,
            submitted: Instant::now(),
            deadline,
            retried: 0,
        };
        let mut st = shared.state.lock().expect(UNPOISONED);
        if st.stopping {
            // Admitted past the draining check, but shutdown's drain
            // flush got the lock first: no replica is left to run it.
            drop(st);
            shared.depth.fetch_sub(1, Ordering::AcqRel);
            return Err(ServeError::Closed);
        }
        shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        let starts_a_batch = st.batcher.is_empty();
        if let Some(batch) = st.batcher.push(pending, Instant::now()) {
            shared.queue(&mut st, batch);
        } else if !starts_a_batch {
            return Ok(seq);
        }
        // A queued job, or a new batch whose deadline an idle replica
        // has to watch.
        drop(st);
        shared.work.notify_one();
        Ok(seq)
    }

    /// Forces the currently coalescing partial batch out immediately
    /// ([`FlushReason::Drain`]). The deterministic lever for tests: no
    /// need to wait for a deadline.
    pub fn flush(&self) {
        let mut st = self.shared.state.lock().expect(UNPOISONED);
        if let Some(batch) = st.batcher.drain() {
            self.shared.queue(&mut st, batch);
            drop(st);
            self.shared.work.notify_one();
        }
    }

    /// A snapshot of the server's counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// The shared counter cell (the network front-end feeds its
    /// connection counters into the same snapshot).
    pub(crate) fn stats_cell(&self) -> Arc<ServeStats> {
        Arc::clone(&self.shared.stats)
    }

    /// Admitted-but-unfinished requests right now (the quantity
    /// admission control bounds by `queue_cap`).
    pub fn depth(&self) -> usize {
        self.shared.depth.load(Ordering::Acquire)
    }

    /// Whether the server is draining for shutdown: admission is
    /// stopped ([`ServeError::Draining`]) but already admitted requests
    /// are still being answered.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Gracefully drains and stops the server, deterministically:
    ///
    /// 1. admission flips to [`ServeError::Draining`] (new submits are
    ///    refused, nothing new enters the queue);
    /// 2. the batcher's partial batch is force-flushed (shedding any
    ///    expired requests);
    /// 3. every in-flight and queued micro-batch runs to completion and
    ///    its replies are delivered, retries after a crash included;
    /// 4. every replica has left: its last job answered, its worker pool
    ///    gone.
    ///
    /// Idempotent: later calls (and the eventual drop) return
    /// immediately. A replica wedged by a blocking test hook is
    /// abandoned after 30 s rather than hanging the caller forever.
    pub fn shutdown(&self) {
        if self.draining.swap(true, Ordering::AcqRel) {
            return;
        }
        let shared = &*self.shared;
        {
            let mut st = shared.state.lock().expect(UNPOISONED);
            if let Some(batch) = st.batcher.drain() {
                shared.queue(&mut st, batch);
            }
            st.stopping = true;
        }
        shared.work.notify_all();
        shared.replicas.wait_timeout(Duration::from_secs(30));
    }

    /// The plan cache this server lowers through.
    pub fn cache(&self) -> &Arc<PlanCache> {
        &self.shared.cache
    }

    /// The served model.
    pub fn model(&self) -> &Model {
        &self.shared.model
    }

    /// The configuration the server was started with.
    pub fn config(&self) -> ServeConfig {
        self.shared.cfg
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Shared {
    /// Queues a flushed batch as a job. Flush-time deadline propagation
    /// comes first: requests whose client deadline passed while they
    /// coalesced are shed here — counted, answered, never executed. An
    /// all-expired batch queues nothing at all.
    fn queue(&self, st: &mut State, (items, flush): (Vec<Pending>, FlushReason)) {
        let now = Instant::now();
        let (live, expired) = shed_expired(items, now, |p| p.deadline);
        for p in expired {
            self.depth.fetch_sub(1, Ordering::AcqRel);
            self.stats.deadline_shed.fetch_add(1, Ordering::Relaxed);
            let late_by = now - p.deadline.expect("shed items carry a deadline");
            p.sink
                .send(&self.stats, Err(ServeError::DeadlineExceeded { late_by }));
        }
        if !live.is_empty() {
            st.jobs.push_back(Job {
                seq: st.next_job,
                items: live,
                flush,
                crashes: 0,
            });
            st.next_job += 1;
        }
    }

    /// An idle replica's next job, or `None` once the server is stopping
    /// and no job is left. With no job queued the replica waits for one,
    /// or for the coalescing batch's deadline, and then flushes that
    /// batch itself.
    fn next_job(&self) -> Option<Job> {
        let mut st = self.state.lock().expect(UNPOISONED);
        loop {
            if let Some(job) = st.jobs.pop_front() {
                if !st.batcher.is_empty() {
                    // Hand the coalescing batch's deadline to another
                    // idle replica.
                    self.work.notify_one();
                }
                return Some(job);
            }
            if st.stopping {
                return None;
            }
            let now = Instant::now();
            match st.batcher.deadline() {
                Some(d) if d <= now => {
                    if let Some(batch) = st.batcher.poll(now) {
                        self.queue(&mut st, batch);
                    }
                }
                Some(d) => st = self.work.wait_timeout(st, d - now).expect(UNPOISONED).0,
                None => st = self.work.wait(st).expect(UNPOISONED),
            }
        }
    }

    /// Answers every request of a job with `err`.
    fn fail(&self, items: Vec<Pending>, err: ServeError) {
        for p in items {
            self.depth.fetch_sub(1, Ordering::AcqRel);
            self.stats.failed.fetch_add(1, Ordering::Relaxed);
            p.sink.send(&self.stats, Err(err.clone()));
        }
    }

    /// A replica died running `job`: the job goes back to the front of
    /// the queue (or fails once `retry_limit` retries are used up), and
    /// a replacement replica starts under a fresh id. The counters move
    /// before the job does, so a client woken by its reply observes the
    /// crash in stats; the job is queued before the replacement starts,
    /// so a replacement started during shutdown's drain still finds it.
    fn crashed(self: &Arc<Self>, mut job: Job, detail: String) {
        self.stats.crashes.fetch_add(1, Ordering::Relaxed);
        self.stats.restarts.fetch_add(1, Ordering::Relaxed);
        job.crashes += 1;
        if job.crashes > self.cfg.retry_limit {
            let retries = job.crashes - 1;
            self.fail(job.items, ServeError::ReplicaFailed { detail, retries });
        } else {
            self.stats.retries.fetch_add(1, Ordering::Relaxed);
            for p in &mut job.items {
                p.retried += 1;
            }
            // The retried job gets a fresh dispatch seq and the front of
            // the queue: it has already waited once.
            let mut st = self.state.lock().expect(UNPOISONED);
            job.seq = st.next_job;
            st.next_job += 1;
            st.jobs.push_front(job);
            drop(st);
            self.work.notify_one();
        }
        spawn_replica(self);
    }
}

fn spawn_replica(shared: &Arc<Shared>) {
    let id = shared.next_replica.fetch_add(1, Ordering::Relaxed);
    shared.replicas.add();
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("latte-serve-replica-{id}"))
        .spawn(move || {
            replica_loop(id, &shared);
            shared.replicas.done();
        })
        .expect("spawn replica");
}

/// Runs jobs until the server stops or this replica crashes. The
/// engine, and with it the replica's worker pool, is gone when this
/// returns.
fn replica_loop(id: usize, shared: &Arc<Shared>) {
    let mut engine = BatchEngine::new(
        Arc::clone(&shared.model),
        Arc::clone(&shared.cache),
        shared.cfg.threads.max(1),
    );
    while let Some(job) = shared.next_job() {
        if shared.hooks.on_batch(id, job.seq, job.items.len()) == BatchAction::Crash {
            shared.crashed(job, format!("replica {id} killed mid-batch (injected)"));
            return;
        }
        let inputs: Vec<Vec<(String, Vec<f32>)>> =
            job.items.iter().map(|p| p.inputs.clone()).collect();
        match catch_unwind(AssertUnwindSafe(|| engine.run(&inputs))) {
            Ok(Ok((outputs, cache_hit))) => {
                let n = job.items.len();
                shared.stats.batches.fetch_add(1, Ordering::Relaxed);
                let flush_stat = match job.flush {
                    FlushReason::Size => &shared.stats.flush_size,
                    FlushReason::Deadline => &shared.stats.flush_deadline,
                    FlushReason::Drain => &shared.stats.flush_drain,
                };
                flush_stat.fetch_add(1, Ordering::Relaxed);
                let done = Instant::now();
                for (p, rows) in job.items.into_iter().zip(outputs) {
                    let meta = ReplyMeta {
                        seq: p.seq,
                        batch_size: n,
                        flush: job.flush,
                        replica: id,
                        retried: p.retried,
                        cache_hit,
                        latency: done.duration_since(p.submitted),
                    };
                    // Counters move before the reply: a client woken by
                    // the send must observe its own completion in stats.
                    shared.depth.fetch_sub(1, Ordering::AcqRel);
                    shared.stats.completed.fetch_add(1, Ordering::Relaxed);
                    p.sink.send(
                        &shared.stats,
                        Ok(Response {
                            outputs: rows,
                            meta,
                        }),
                    );
                }
            }
            // Deterministic failure (compile/buffer error): retrying on
            // another replica cannot help, fail the tickets.
            Ok(Err(e)) => shared.fail(job.items, e),
            Err(panic) => {
                let detail = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "replica panicked".into());
                shared.crashed(job, detail);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn err_reply() -> Result<Response, ServeError> {
        Err(ServeError::WaitTimeout)
    }

    #[test]
    fn an_abandoned_ticket_receiver_counts_a_dropped_reply() {
        let stats = ServeStats::default();
        let (tx, rx) = mpsc::channel();
        let sink = ReplySink::Ticket(tx);
        drop(rx);
        sink.send(&stats, err_reply());
        assert_eq!(stats.snapshot().replies_dropped, 1);
    }

    #[test]
    fn a_full_routed_queue_counts_a_dropped_reply_without_blocking() {
        // The per-connection backpressure seam: a client that stops
        // draining its bounded reply queue loses replies (counted),
        // and the replica thread never blocks on it.
        let stats = ServeStats::default();
        let (tx, _rx) = mpsc::sync_channel(1);
        let sink = ReplySink::Routed { id: 7, tx };
        sink.send(&stats, err_reply()); // fills the queue
        sink.send(&stats, err_reply()); // refused: queue full
        assert_eq!(stats.snapshot().replies_dropped, 1);
    }

    #[test]
    fn a_disconnected_routed_queue_counts_a_dropped_reply() {
        let stats = ServeStats::default();
        let (tx, rx) = mpsc::sync_channel::<(u64, Result<Response, ServeError>)>(4);
        let sink = ReplySink::Routed { id: 3, tx };
        drop(rx);
        sink.send(&stats, err_reply());
        assert_eq!(stats.snapshot().replies_dropped, 1);
    }
}
