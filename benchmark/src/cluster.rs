//! cluster.ring2: two ranks, as threads over `channel_group(2)`, training
//! one MLP data-parallel through `DistTrainer` in synchronized mode.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use latte_core::{compile, OptLevel};
use latte_runtime::cluster::SyncMode;
use latte_runtime::dist::DistTrainer;
use latte_runtime::registry::KernelRegistry;
use latte_runtime::ring::{CommPolicy, RingComm};
use latte_runtime::solver::Solver;
use latte_runtime::transport::{channel_group, ChannelWire, Endpoint};
use latte_runtime::{ExecConfig, Executor};

use crate::layers::{self, SetupStages};
use crate::nets::{self, RING_MLP};
use crate::report::Report;
use crate::trace::{Tracer, ROOT};
use crate::train::solver;
use crate::util::{self, median, median_ms, time_ms, Digest, Rng, Unit};
use crate::Opts;

const WORLD: usize = 2;
/// Per rank; the global batch is `WORLD` times this.
const BATCH: usize = 256;
const POOL: usize = 16;
const WARMUP_STEPS: usize = 32;
const GATE_STEPS: usize = 6;
const EXEC: ExecConfig = ExecConfig {
    threads: 1,
    arena: false,
    gemm_blocking: None,
};

type Batches = Vec<nets::Inputs>;

fn build_executor(batch: usize) -> (Executor, SetupStages) {
    let (net, net_build_ms) = time_ms(|| (RING_MLP.build)(batch));
    let (compiled, compile_ms) =
        time_ms(|| compile(&net, &OptLevel::full()).expect("the ring MLP compiles"));
    // `with_registry` lowers and instantiates in one call.
    let (exec, lower_ms) = time_ms(|| {
        Executor::with_registry(compiled, &KernelRegistry::with_builtins(), EXEC)
            .expect("the ring MLP lowers")
    });
    let stages = SetupStages {
        net_build_ms,
        compile_ms,
        lower_ms,
        instantiate_ms: 0.0,
    };
    (exec, stages)
}

fn build_rank(endpoint: Endpoint<ChannelWire>) -> (DistTrainer, SetupStages) {
    let (exec, stages) = build_executor(BATCH);
    let trainer = DistTrainer::new(exec, Box::new(endpoint), CommPolicy::default())
        .expect("the default comm policy is valid");
    (trainer, stages)
}

fn params(exec: &Executor) -> Vec<Vec<f32>> {
    exec.params()
        .iter()
        .map(|p| exec.read_buffer(&p.value).expect("parameters are readable"))
        .collect()
}

fn params_digest(exec: &Executor) -> u64 {
    let mut d = Digest::default();
    for p in params(exec) {
        d.f32s(&p);
    }
    d.finish()
}

/// Per-rank batch pools and the digest of all of them.
fn seeded_pools(seed: u64) -> (Vec<Batches>, u64) {
    let sig = nets::signature(
        &compile(&(RING_MLP.build)(BATCH), &OptLevel::full()).expect("the ring MLP compiles"),
    );
    let mut digest = Digest::default();
    let pools = (0..WORLD)
        .map(|rank| {
            let mut rng = Rng::new(seed, 6 + rank as u64);
            let (pool, d) = nets::batch_pool(&sig, RING_MLP.classes, BATCH, POOL, &mut rng);
            digest.u64(d);
            pool
        })
        .collect();
    (pools, digest.finish() & 0xffff_ffff_ffff)
}

/// The correctness gate: a few steps on two ranks must leave both
/// ranks' parameters bit-identical, and equal to rounding to one plain
/// executor stepping on the concatenated batches.
fn gate(pools: &[Batches], report: &mut Report) {
    let endpoints = channel_group(WORLD).expect("channel group");
    let ranks: Vec<Vec<Vec<f32>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .enumerate()
            .map(|(rank, ep)| {
                let pool = &pools[rank];
                scope.spawn(move || {
                    let (mut trainer, _) = build_rank(ep);
                    let mut solver = solver();
                    for batch in pool.iter().take(GATE_STEPS) {
                        trainer
                            .step(batch, &mut |e| solver.step(e))
                            .expect("gate step");
                    }
                    params(trainer.exec())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("gate rank"))
            .collect()
    });
    report.check(
        ranks[0] == ranks[1],
        "gate: the two ranks' parameters differ",
    );

    let (mut plain, _) = build_executor(WORLD * BATCH);
    let mut solver = solver();
    for step in 0..GATE_STEPS {
        for (i, (ensemble, _)) in pools[0][step].iter().enumerate() {
            let joined: Vec<f32> = pools
                .iter()
                .flat_map(|pool| pool[step][i].1.iter().copied())
                .collect();
            plain
                .set_input(ensemble, &joined)
                .expect("concatenated batch fits");
        }
        plain.forward();
        plain.backward();
        solver.step(&mut plain);
    }
    let close = params(&plain).iter().zip(&ranks[0]).all(|(a, b)| {
        a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= 1e-5 + 1e-4 * x.abs().max(y.abs()))
    });
    report.check(
        close,
        "gate: two ranks differ from a single worker on the concatenated batch",
    );
}

/// What rank 0 measured in the window.
#[derive(Default)]
struct Rank0 {
    steps: Vec<Unit>,
    backward_ms: Vec<f64>,
    comm_ms: Vec<f64>,
    exposed_ms: Vec<f64>,
    solver_ms: Vec<f64>,
    forward_ms: f64,
    degraded: u64,
    /// Steps before the first one that recorded spans.
    untraced_steps: usize,
}

struct RankOutcome {
    params_digest: u64,
    stages: SetupStages,
    rank0: Rank0,
    tracer: Tracer,
}

/// One rank's life: build, warm up, then step until rank 0 calls time.
/// `limit` is the step index both ranks stop before; rank 0 sets it two
/// steps ahead, which rank 1 cannot have passed because every step
/// waits for the other rank's gradients.
fn rank_main(
    rank: usize,
    (mut trainer, stages): (DistTrainer, SetupStages),
    pool: &Batches,
    opts: &Opts,
    ready: &Barrier,
    limit: &AtomicU64,
) -> RankOutcome {
    let mut solver = solver();
    for batch in pool.iter().cycle().take(WARMUP_STEPS) {
        trainer
            .step(batch, &mut |e| solver.step(e))
            .expect("warm-up step");
    }
    ready.wait();

    let mut tracer = Tracer::new();
    let n_step = tracer.name("step");
    let n_backward = tracer.name("backward");
    let n_comm = tracer.name("comm (all buckets)");
    let n_exposed = tracer.name("exposed");
    let n_solver = tracer.name("solver");
    let traced_from = opts.unrecorded_s();
    let mut m = Rank0::default();
    let start = Instant::now();
    let mut step = 0u64;
    while step < limit.load(Ordering::SeqCst) {
        let batch = &pool[step as usize % pool.len()];
        let t0 = tracer.now();
        let mut solver_span = (0.0, 0.0);
        let rep = trainer
            .step(batch, &mut |e| {
                let s0 = tracer.now();
                solver.step(e);
                solver_span = (s0, tracer.now());
            })
            .expect("synchronized step");
        let t1 = tracer.now();
        if rank == 0 {
            m.steps.push(Unit {
                ms: (t1 - t0) / 1e3,
                done_s: start.elapsed().as_secs_f64(),
            });
            m.backward_ms.push(rep.backward_ms);
            m.comm_ms.push(rep.comm_ms);
            m.exposed_ms.push(rep.exposed_ms);
            m.solver_ms.push((solver_span.1 - solver_span.0) / 1e3);
            if rep.mode != SyncMode::Synchronized || rep.live != WORLD || !rep.loss.is_finite() {
                m.degraded += 1;
            }
            if start.elapsed().as_secs_f64() < traced_from {
                m.untraced_steps += 1;
            } else {
                // The report gives lengths, not positions: backward is
                // placed against the exposed wait, which is placed
                // against the solver; comm (another thread) ends where
                // the exposed wait does.
                let root = tracer.span(
                    n_step,
                    "runtime::dist(set_input+forward+write-back)",
                    0,
                    ROOT,
                    t0,
                    t1,
                );
                let exposed_end = solver_span.0;
                let exposed_start = exposed_end - rep.exposed_ms * 1e3;
                let backward_start = exposed_start - rep.backward_ms * 1e3;
                tracer.span(
                    n_backward,
                    "runtime::exec(backward)",
                    0,
                    root,
                    backward_start,
                    exposed_start,
                );
                tracer.span(
                    n_exposed,
                    "runtime::ring+transport(exposed)",
                    0,
                    root,
                    exposed_start,
                    exposed_end,
                );
                tracer.span(
                    n_comm,
                    "runtime::ring+transport",
                    1,
                    root,
                    exposed_end - rep.comm_ms * 1e3,
                    exposed_end,
                );
                tracer.span(
                    n_solver,
                    "runtime::solver",
                    0,
                    root,
                    solver_span.0,
                    solver_span.1,
                );
            }
            if start.elapsed().as_secs_f64() >= opts.seconds
                && limit.load(Ordering::SeqCst) == u64::MAX
            {
                limit.store(step + 2, Ordering::SeqCst);
            }
        }
        step += 1;
    }
    if rank == 0 {
        // Forward alone, for the closure sum; parameters are not touched.
        m.forward_ms = median_ms(30, || trainer.exec_mut().forward());
    }
    RankOutcome {
        params_digest: params_digest(trainer.exec()),
        stages,
        rank0: m,
        tracer,
    }
}

/// One set-up: a channel group and both ranks, each compiled, lowered
/// and wired to its `DistTrainer`. The ranks are built one after the
/// other on the calling thread; built on two threads the same work
/// takes 3 to 6 ms depending on when the host lends its second vCPU.
fn set_up() -> Vec<(DistTrainer, SetupStages)> {
    channel_group(WORLD)
        .expect("channel group")
        .into_iter()
        .map(build_rank)
        .collect()
}

/// `RingComm::allreduce` on one buffer the size of the largest gradient
/// bucket, two ranks over a channel group; rank 0's median, ms.
fn probe_allreduce(elements: usize) -> f64 {
    const ROUNDS: u32 = 30;
    let endpoints = channel_group(WORLD).expect("channel group");
    std::thread::scope(|scope| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|ep| {
                scope.spawn(move || {
                    let mut ring = RingComm::new(Box::new(ep), CommPolicy::default())
                        .expect("the default comm policy is valid");
                    let mut buf = vec![0.5f32; elements];
                    let times: Vec<f64> = (0..ROUNDS)
                        .map(|round| {
                            time_ms(|| ring.allreduce(round, 0, &mut buf).expect("probe allreduce"))
                                .1
                        })
                        .collect();
                    median(times)
                })
            })
            .collect();
        let times: Vec<f64> = handles
            .into_iter()
            .map(|h| h.join().expect("probe rank"))
            .collect();
        times[0]
    })
}

pub fn run(opts: &Opts, report: &mut Report) {
    let (pools, digest) = seeded_pools(opts.seed);
    report.exact("inputs_digest", digest);
    let (_, gate_ms) = time_ms(|| gate(&pools, report));
    report.info("gate_s", gate_ms / 1e3, "s");

    let ready = Barrier::new(WORLD);
    let limit = AtomicU64::new(u64::MAX);
    let (ranks, first_ms) = time_ms(set_up);
    let outcomes: Vec<RankOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = ranks
            .into_iter()
            .enumerate()
            .map(|(rank, built)| {
                let (pool, ready, limit) = (&pools[rank], &ready, &limit);
                scope.spawn(move || rank_main(rank, built, pool, opts, ready, limit))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread"))
            .collect()
    });

    let same = outcomes
        .iter()
        .all(|o| o.params_digest == outcomes[0].params_digest);
    report.check(same, "the two ranks' parameters differ after the window");
    let m = &outcomes[0].rank0;
    report.attempted += m.steps.len() as u64;
    report.failed += m.degraded;
    let step_ms: Vec<f64> = m.steps.iter().map(|u| u.ms).collect();
    let p50 = median(step_ms.clone());
    // One more rank's executor, to read sizes and the compiler's record
    // from without reaching into the ranks that ran.
    let (exec, _) = build_executor(BATCH);
    let params: usize = exec
        .params()
        .iter()
        .map(|p| exec.read_buffer(&p.value).map_or(0, |v| v.len()))
        .sum();
    // A ring of k ranks sends 2(k-1)/k of the gradient bytes per rank.
    let bytes_per_step = (2 * (WORLD - 1) * params * 4 / WORLD) as u64;
    report.exact("bytes_per_step", bytes_per_step);

    if !opts.traced {
        report.timing(&util::summarize(&m.steps), Some(WORLD * BATCH));
        report.e2e("peak_rss_mb", util::peak_rss_mb());
        crate::report_setups(report, opts, first_ms / 1e3, || time_ms(set_up).1 / 1e3);
        return;
    }

    let mut stages = SetupStages::default();
    for o in &outcomes {
        stages.add(o.stages);
    }
    stages.report(report);
    let compiled = exec.compiled().clone();
    layers::report_compile_stats(&compiled, report);
    report.exact(
        "allocated_elements",
        (WORLD * exec.allocated_elements()) as u64,
    );
    let shapes = layers::gemm_shapes(compiled.forward.iter().chain(&compiled.backward), BATCH);
    let (gemm_ms, ceiling) = layers::probe_gemms(&shapes, report);
    report.layer("gemm_ceiling_pct", ceiling);
    report.layer("gemm_time_share", gemm_ms / p50);
    layers::probe_pool(report);

    // The step's parts, as medians over the calmest tenth of the window
    // (like the end-to-end figures), so that they add up.
    let calm = util::calmest_chunk(&step_ms);
    let over = |v: &[f64]| median(v[calm.clone()].to_vec());
    let p50 = over(&step_ms);
    let backward = over(&m.backward_ms);
    let comm = over(&m.comm_ms);
    let exposed = over(&m.exposed_ms);
    let solver_ms = over(&m.solver_ms);
    report.info("step_ms_p50", p50, "ms");
    report.layer("forward_ms", m.forward_ms);
    report.layer("backward_ms", backward);
    report.layer("solver_ms", solver_ms);
    report.layer("comm_ms", comm);
    report.layer("exposed_ms", exposed);
    report.info(
        "overlap_efficiency",
        (1.0 - exposed / comm).max(0.0),
        "fraction",
    );
    report.layer("bytes_per_step", bytes_per_step as f64);
    let largest_bucket = exec
        .grad_buckets()
        .iter()
        .map(|b| {
            b.params
                .iter()
                .map(|&pi| {
                    exec.read_buffer(&exec.params()[pi].grad)
                        .map_or(0, |v| v.len())
                })
                .sum::<usize>()
        })
        .max()
        .unwrap_or(0);
    report.layer("allreduce_ms", probe_allreduce(largest_bucket));
    report.info("allreduce_probe_elements", largest_bucket as f64, "count");

    let sum = m.forward_ms + backward + exposed + solver_ms;
    if !opts.smoke {
        report.check(
            (sum - p50).abs() <= 0.15 * p50,
            format!(
                "closure: forward_ms + backward_ms + exposed_ms + solver_ms = {sum:.3} ms, \
                 step = {p50:.3} ms"
            ),
        );
    }
    let (reference, traced) = step_ms.split_at(m.untraced_steps);
    let (reference, traced) = (median(reference.to_vec()), median(traced.to_vec()));
    report.layer(
        "trace_overhead_pct",
        100.0 * (traced - reference) / reference,
    );
    report.off_path(&[
        "group_closure",
        "dispatch_us_per_group",
        "server_ms",
        "queue_coalesce_ms",
        "execute_ms",
        "plan_lookup_us",
        "batch_size_mean",
        "wire_ms",
        "encode_us",
        "decode_us",
    ]);
    crate::finish_trace(&outcomes[0].tracer, report, |_| true);
}
