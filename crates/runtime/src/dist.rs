//! Distributed data-parallel training over a real [`Transport`]: the
//! paper's overlapped ring all-reduce, layer by layer.
//!
//! [`DistTrainer`] owns one replica's [`Executor`] plus a background
//! comm thread driving a [`RingComm`]. Each training step runs forward,
//! then [`Executor::backward_hooked`]: the moment a backward group's
//! gradient-lane fold completes, that group's parameter gradients (its
//! [`GradBucket`]) are handed to the comm thread, which ring-reduces
//! them **while the remaining backward groups still execute** — the
//! paper's comm/compute overlap. After backward, the trainer waits only
//! for whatever communication is still exposed, writes the merged
//! gradients back into the executor's gradient buffers, and lets the
//! caller's ordinary [`crate::solver::Solver`] apply the update — the
//! solver cannot tell distributed training from local training.
//!
//! Determinism: buckets are enqueued in backward-group order on every
//! rank, each bucket's ring fold order is fixed (see [`crate::ring`]),
//! and the merged values are independent of thread timing — so a
//! synchronized run is bit-identical to the serial
//! [`crate::cluster::train_replicated`] oracle, and a world-of-one run
//! is bit-identical to plain single-process training.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

use crate::error::RuntimeError;
use crate::exec::{Executor, GradBucket};
use crate::frame::crc32;
use crate::metrics::FaultMetrics;
use crate::ring::{BucketReport, CommPolicy, RingComm, SyncMode};
use crate::transport::Transport;

/// Fingerprints the compiled program a rank is about to train, for the
/// transport handshake: two processes whose programs
/// ([`latte_core::CompiledNet::fingerprint`]: buffers, parameters and
/// their initial values, every statement of both phases) or batch sizes
/// differ must not average gradients, whatever their binaries think.
/// Folded to the `u32` the handshake carries with the same
/// [`crate::frame::crc32`] as everything else.
pub fn net_fingerprint(exec: &Executor) -> u32 {
    let mut desc = [0u8; 16];
    desc[..8].copy_from_slice(&exec.compiled().fingerprint().to_le_bytes());
    desc[8..].copy_from_slice(&(exec.batch() as u64).to_le_bytes());
    crc32(&desc)
}

/// Runs one thread per endpoint — rank `i` gets `endpoints[i]` — and
/// returns what each `rank_main(rank, endpoint)` returned, in rank
/// order. This is all "in-process data parallelism" needs beyond
/// [`DistTrainer`] itself: hand it a [`crate::transport::channel_group`]
/// and build one trainer per rank inside `rank_main`.
///
/// # Panics
///
/// If a rank's thread panicked (the scope still joins every rank first).
pub fn run_ranks<E: Send, R: Send>(
    endpoints: Vec<E>,
    rank_main: impl Fn(usize, E) -> R + Sync,
) -> Vec<R> {
    let rank_main = &rank_main;
    std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(rank, ep)| scope.spawn(move || rank_main(rank, ep)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("a rank's thread panicked")).collect()
    })
}

struct CommJob {
    step: u32,
    idx: usize,
    data: Vec<f32>,
}

struct CommResult {
    idx: usize,
    data: Vec<f32>,
    report: Result<BucketReport, RuntimeError>,
}

/// One step's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct StepReport {
    /// This replica's loss on its own shard.
    pub loss: f32,
    /// Mode the step's all-reduces ran in.
    pub mode: SyncMode,
    /// Live ranks at the end of the step.
    pub live: usize,
    /// Total communication time across the step's buckets, ms.
    pub comm_ms: f64,
    /// Communication time *not* hidden behind backward (the wait after
    /// backward finished), ms.
    pub exposed_ms: f64,
    /// Backward wall-clock (during which comm overlapped), ms.
    pub backward_ms: f64,
    /// Peers this rank evicted during the step.
    pub evicted: Vec<usize>,
}

/// A distributed data-parallel trainer: one replica of the network, a
/// background comm thread, and layer-by-layer gradient streaming.
pub struct DistTrainer {
    exec: Executor,
    /// Per bucket: each gradient buffer's name and length, in param
    /// order — the bucket's layout, fixed at construction.
    grads: Vec<Vec<(String, usize)>>,
    /// Per bucket: its flat gradient buffer while at rest. The backward
    /// hook fills it from the executor and ships it to the comm thread;
    /// the reduced result comes back in the same allocation, so steady
    /// state moves buffers around and allocates none.
    flat: Vec<Vec<f32>>,
    jobs: Option<mpsc::Sender<CommJob>>,
    results: mpsc::Receiver<CommResult>,
    comm: Option<std::thread::JoinHandle<()>>,
    metrics: Arc<FaultMetrics>,
    rank: usize,
    world: usize,
    live: usize,
    mode: SyncMode,
    step: u32,
    /// The terminal error of the step that broke the ring for this rank;
    /// every later [`DistTrainer::step`] returns it again.
    failed: Option<RuntimeError>,
}

impl DistTrainer {
    /// Wires a replica executor to a transport. The comm thread starts
    /// immediately; training starts at step 0.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidConfig`] for a bad policy.
    pub fn new(
        exec: Executor,
        transport: Box<dyn Transport>,
        policy: CommPolicy,
    ) -> Result<DistTrainer, RuntimeError> {
        let rank = transport.rank();
        let world = transport.world();
        let metrics = Arc::clone(transport.metrics());
        let grads = exec
            .grad_buckets()
            .iter()
            .map(|b| {
                b.params
                    .iter()
                    .map(|&pi| {
                        let name = exec.params()[pi].grad.clone();
                        let len = exec.buffer(&name)?.len();
                        Ok((name, len))
                    })
                    .collect()
            })
            .collect::<Result<Vec<Vec<(String, usize)>>, RuntimeError>>()?;
        let flat = vec![Vec::new(); exec.grad_buckets().len()];
        let mut ring = RingComm::new(transport, policy)?;
        let (jtx, jrx) = mpsc::channel::<CommJob>();
        let (rtx, rrx) = mpsc::channel::<CommResult>();
        let comm = std::thread::Builder::new()
            .name(format!("latte-comm-{rank}"))
            .spawn(move || {
                // Jobs arrive in backward-group order and are reduced
                // FIFO; the loop ends when the trainer drops its sender.
                while let Ok(mut job) = jrx.recv() {
                    let report = ring.allreduce(job.step, job.idx as u16, &mut job.data);
                    let done = rtx
                        .send(CommResult {
                            idx: job.idx,
                            data: job.data,
                            report,
                        })
                        .is_err();
                    if done {
                        break;
                    }
                }
            })
            .map_err(|e| RuntimeError::Transport {
                detail: format!("spawning comm thread: {e}"),
            })?;
        Ok(DistTrainer {
            exec,
            grads,
            flat,
            jobs: Some(jtx),
            results: rrx,
            comm: Some(comm),
            metrics,
            rank,
            world,
            live: world,
            mode: SyncMode::Synchronized,
            step: 0,
            failed: None,
        })
    }

    /// This rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Configured world size.
    pub fn world(&self) -> usize {
        self.world
    }

    /// Live ranks as of the last step.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Mode as of the last step.
    pub fn mode(&self) -> SyncMode {
        self.mode
    }

    /// The replica's executor (read losses, params, buffers).
    pub fn exec(&self) -> &Executor {
        &self.exec
    }

    /// Mutable executor access (e.g. for evaluation between steps).
    pub fn exec_mut(&mut self) -> &mut Executor {
        &mut self.exec
    }

    /// The transport's fault counters.
    pub fn metrics(&self) -> &Arc<FaultMetrics> {
        &self.metrics
    }

    /// The communicator buckets (one per gradient-producing backward
    /// group).
    pub fn buckets(&self) -> &[GradBucket] {
        self.exec.grad_buckets()
    }

    /// Runs one training step on this replica's `batch` shard: forward,
    /// hooked backward with per-bucket gradient streaming, wait for the
    /// exposed remainder of communication, write merged gradients back,
    /// then `apply` (typically `|e| solver.step(e)`).
    ///
    /// # Errors
    ///
    /// Input errors from the executor and terminal
    /// [`RuntimeError::Transport`] failures. A transport failure is
    /// sticky: the ring has no place for this rank any more, so every
    /// later call returns the same error without touching the executor.
    pub fn step(
        &mut self,
        batch: &[(String, Vec<f32>)],
        apply: &mut dyn FnMut(&mut Executor),
    ) -> Result<StepReport, RuntimeError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        for (ensemble, data) in batch {
            self.exec.set_input(ensemble, data)?;
        }
        self.exec.forward();
        let loss = self.exec.loss();

        let step = self.step;
        let t_bwd = Instant::now();
        {
            let grads = &self.grads;
            let flat = &mut self.flat;
            let jobs = &self.jobs;
            let mut hook = |gi: usize, exec: &Executor| {
                for (bi, b) in exec.grad_buckets().iter().enumerate() {
                    if b.group != gi {
                        continue;
                    }
                    let mut data = std::mem::take(&mut flat[bi]);
                    data.clear();
                    for (name, _) in &grads[bi] {
                        data.extend_from_slice(exec.buffer(name).expect("param grad readable"));
                    }
                    if let Some(tx) = jobs.as_ref() {
                        let _ = tx.send(CommJob {
                            step,
                            idx: bi,
                            data,
                        });
                    }
                }
            };
            self.exec.backward_hooked(&mut hook);
        }
        let backward_ms = t_bwd.elapsed().as_secs_f64() * 1e3;

        // Reap every bucket — also after one has failed, so no result of
        // this step is left queued. Only the part of comm that outlives
        // backward is exposed.
        let t_wait = Instant::now();
        let mut comm_ms = 0.0;
        let mut evicted = Vec::new();
        let mut live = self.live;
        let mut mode = self.mode;
        let mut failure = None;
        for _ in 0..self.grads.len() {
            let Ok(res) = self.results.recv() else {
                failure.get_or_insert(RuntimeError::Transport {
                    detail: "comm thread died mid-step".into(),
                });
                break;
            };
            self.flat[res.idx] = res.data;
            match res.report {
                Ok(report) => {
                    comm_ms += report.elapsed_ms;
                    live = report.live;
                    if report.mode == SyncMode::LossyDegraded {
                        mode = SyncMode::LossyDegraded;
                    }
                    evicted.extend(report.evicted);
                }
                Err(e) => {
                    failure.get_or_insert(e);
                }
            }
        }
        if let Some(e) = failure {
            self.failed = Some(e.clone());
            return Err(e);
        }
        let exposed_ms = t_wait.elapsed().as_secs_f64() * 1e3;

        for (grads, data) in self.grads.iter().zip(&self.flat) {
            let mut at = 0;
            for (name, len) in grads {
                self.exec.write_buffer(name, &data[at..at + len])?;
                at += len;
            }
        }
        apply(&mut self.exec);

        self.step += 1;
        self.live = live;
        self.mode = mode;
        if mode == SyncMode::LossyDegraded {
            FaultMetrics::bump(&self.metrics.lossy_steps);
        }
        Ok(StepReport {
            loss,
            mode,
            live,
            comm_ms,
            exposed_ms,
            backward_ms,
            evicted,
        })
    }
}

impl Drop for DistTrainer {
    fn drop(&mut self) {
        // Closing the job channel ends the comm loop; joining it drops
        // the RingComm, whose endpoint says goodbye to the ring.
        self.jobs.take();
        if let Some(h) = self.comm.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{LrPolicy, MomPolicy, Sgd, Solver, SolverParams};
    use crate::transport::{channel_group, Frame, FrameKind, Header, Key, Wire};
    use latte_core::{compile, OptLevel};
    use latte_nn::models::{mlp, ModelConfig};

    /// A rank told it was evicted fails its step once every bucket of
    /// that step has been reaped, and keeps returning the same terminal
    /// error — without consuming the failed step's leftovers as a new
    /// step's results, and without touching the executor again.
    ///
    /// The death news is injected as the frame a peer would send, not
    /// provoked through `FaultyTransport`: a rank whose frames are
    /// dropped or corrupted is evicted by the *others*, never hears of
    /// it, and ends up training solo (see `tests/transport.rs`), so no
    /// fault plan makes this error deterministic.
    #[test]
    fn evicted_rank_keeps_failing_cleanly() {
        let done = std::sync::Barrier::new(2);
        let outcomes = run_ranks(channel_group(2).unwrap(), |rank, ep| {
            if rank == 1 {
                let key = Key { step: 0, bucket: 0, phase: 0, ring_step: 0 };
                let evict_rank_0 = Header::control(FrameKind::Evict, 1, key, 0);
                ep.wire().send(0, Arc::new(Frame::encode(&evict_rank_0, &[]))).unwrap();
                done.wait();
                return None;
            }
            let cfg = ModelConfig {
                batch: 4,
                input_size: 6,
                channel_div: 1,
                classes: 3,
                with_loss: true,
                seed: 7,
            };
            let exec = Executor::new(compile(&mlp(&cfg, &[8]).net, &OptLevel::full()).unwrap())
                .unwrap();
            let mut trainer = DistTrainer::new(exec, Box::new(ep), CommPolicy::default()).unwrap();
            assert!(trainer.buckets().len() > 1, "the scenario needs a multi-bucket step");
            let mut solver = Sgd::new(SolverParams {
                lr_policy: LrPolicy::Fixed { lr: 0.05 },
                mom_policy: MomPolicy::None,
                regu_coef: 0.0,
                max_epoch: 1,
            });
            let batch: crate::data::Batch = vec![
                ("data".into(), (0..4 * 6).map(|i| (i % 5) as f32 * 0.2).collect()),
                ("label".into(), vec![0.0, 1.0, 2.0, 1.0]),
            ];
            let mut applied = 0;
            let mut errors = Vec::new();
            for _ in 0..3 {
                let res = trainer.step(&batch, &mut |e| {
                    applied += 1;
                    solver.step(e);
                });
                errors.push(res.expect_err("an evicted rank's step must fail"));
            }
            // Sticky means *before* any work: not even the inputs are looked at.
            let bogus = vec![("no-such-ensemble".to_string(), vec![0.0])];
            errors.push(trainer.step(&bogus, &mut |_| applied += 1).expect_err("still failed"));
            done.wait();
            Some((errors, applied))
        });
        let (errors, applied) = outcomes[0].as_ref().expect("rank 0 reports");
        assert!(matches!(errors[0], RuntimeError::Transport { .. }), "{}", errors[0]);
        assert!(errors.iter().all(|e| e == &errors[0]), "{errors:?}");
        assert_eq!(*applied, 0, "no update may be applied on a failed step");
    }
}
