//! The train.* workloads: one executor training one net with SGD +
//! momentum on seeded batches.
//!
//! A step is `set_input` + `forward` + `loss` + `backward` +
//! `Solver::step`, all public calls on `latte_runtime::Executor`.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use latte_baselines::{caffe, spec};
use latte_core::{compile, OptLevel};
use latte_oracle::{diff_against_oracle, Tolerance};
use latte_runtime::pool::WorkerPool;
use latte_runtime::registry::KernelRegistry;
use latte_runtime::solver::{LrPolicy, MomPolicy, Sgd, Solver, SolverParams};
use latte_runtime::{CompiledProgram, ExecConfig, Executor};

use crate::layers::{self, SetupStages};
use crate::nets::{self, Inputs, NetSpec};
use crate::report::{Kind, Report};
use crate::trace::{Tracer, ROOT};
use crate::util::{self, median, time_ms, Rng, Unit};
use crate::Opts;

pub struct TrainWorkload {
    pub spec: NetSpec,
    /// Pinned into `ExecConfig.threads`; `LATTE_THREADS` is not read.
    pub threads: usize,
    /// train.vgg also times the Caffe-style baseline in the traced run.
    pub baseline: bool,
    /// Pin the whole process to one CPU before anything runs.
    ///
    /// train.lenet.t2 does. The reference host lends its second vCPU
    /// only part of the time, so two threads on two cores give a step
    /// time that is bimodal (3.1 or 4.7 ms, sticky for minutes) and can
    /// gate nothing. On one CPU the step time repeats, and what is left
    /// of the two-thread schedule is what this workload is here for:
    /// wake-ups, lane folds and hand-offs against one thread, the
    /// ROADMAP's ">= 1.0x on one core".
    pub one_cpu: bool,
}

pub const BATCH: usize = 8;
/// Distinct seeded batches a run cycles through.
const POOL: usize = 16;
/// Untimed steps before the window; `loss_bits` is read after exactly
/// this many, so it is a function of the seed alone.
const WARMUP_STEPS: usize = 64;
/// Every this-many-th traced step times its kernel groups.
const GROUP_TIMING_EVERY: usize = 16;

pub fn solver() -> Sgd {
    Sgd::new(SolverParams {
        lr_policy: LrPolicy::Fixed { lr: 0.005 },
        mom_policy: MomPolicy::Fixed { mom: 0.9 },
        regu_coef: 0.0,
        max_epoch: 1,
    })
}

/// One cold set-up, net description to ready-to-run executor.
fn set_up(w: &TrainWorkload) -> (Executor, SetupStages) {
    let (net, net_build_ms) = time_ms(|| (w.spec.build)(BATCH));
    let (compiled, compile_ms) =
        time_ms(|| compile(&net, &OptLevel::full()).expect("the workload's net compiles"));
    let cfg = ExecConfig {
        threads: w.threads,
        arena: false,
        gemm_blocking: None,
    };
    let (program, lower_ms) = time_ms(|| {
        CompiledProgram::lower(compiled, &KernelRegistry::with_builtins(), cfg)
            .expect("the workload's net lowers")
    });
    let (exec, instantiate_ms) = time_ms(|| {
        program
            .instantiate(Arc::new(WorkerPool::new(w.threads)))
            .expect("the workload's net instantiates")
    });
    let stages = SetupStages {
        net_build_ms,
        compile_ms,
        lower_ms,
        instantiate_ms,
    };
    (exec, stages)
}

/// The correctness gate: the net at batch 2, compiled at the level the
/// workload runs, against the independent IR interpreter.
fn oracle_gate(w: &TrainWorkload, seed: u64, report: &mut Report) {
    let (_, ms) = time_ms(|| {
        let net = (w.spec.build)(2);
        let sig = nets::signature(&compile(&net, &OptLevel::none()).expect("gate net compiles"));
        let inputs = nets::batch(&sig, w.spec.classes, 2, &mut Rng::new(seed, 1));
        let outcome = diff_against_oracle(
            &net,
            &inputs,
            &[("full".to_string(), OptLevel::full())],
            &Tolerance::default(),
        );
        match outcome {
            Ok(diff) => {
                report.check(
                    diff.is_clean() && diff.elements_compared > 0,
                    format!("oracle gate: {diff}"),
                );
                report.info(
                    "oracle_elements_compared",
                    diff.elements_compared as f64,
                    "count",
                );
            }
            Err(e) => report.check(false, format!("oracle gate did not run: {e}")),
        }
    });
    report.info("oracle_gate_s", ms / 1e3, "s");
}

fn step(exec: &mut Executor, solver: &mut Sgd, batch: &Inputs) -> f32 {
    for (ensemble, values) in batch {
        exec.set_input(ensemble, values)
            .expect("seeded batch fits the net");
    }
    exec.forward();
    let loss = exec.loss();
    exec.backward();
    solver.step(exec);
    loss
}

/// The seeded batches a run cycles through, and their digest.
fn seeded_pool(w: &TrainWorkload, exec: &Executor, seed: u64) -> (Vec<Inputs>, u64) {
    let sig = nets::signature(exec.compiled());
    nets::batch_pool(&sig, w.spec.classes, BATCH, POOL, &mut Rng::new(seed, 2))
}

/// Runs untimed warm-up steps and returns the loss after the last.
fn warm_up(exec: &mut Executor, solver: &mut Sgd, pool: &[Inputs]) -> f32 {
    let mut loss = 0.0;
    for i in 0..WARMUP_STEPS {
        loss = step(exec, solver, &pool[i % pool.len()]);
    }
    loss
}

/// Steps for `seconds`, timing each step.
fn window(
    exec: &mut Executor,
    solver: &mut Sgd,
    pool: &[Inputs],
    seconds: f64,
    report: &mut Report,
) -> Vec<Unit> {
    let mut steps = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let batch = &pool[steps.len() % pool.len()];
        let (loss, ms) = time_ms(|| step(exec, solver, batch));
        steps.push(Unit {
            ms,
            done_s: start.elapsed().as_secs_f64(),
        });
        report.attempted += 1;
        if !loss.is_finite() {
            report.failed += 1;
        }
    }
    steps
}

pub fn run(w: &TrainWorkload, opts: &Opts, report: &mut Report) {
    if w.one_cpu {
        let cpu = util::pin_to_one_cpu();
        report.info("pinned_to_cpu", cpu.map_or(-1.0, |c| c as f64), "cpu");
    }
    oracle_gate(w, opts.seed, report);
    if opts.traced {
        run_traced(w, opts, report);
        return;
    }

    let ((mut exec, _), first_ms) = time_ms(|| set_up(w));

    let (pool, digest) = seeded_pool(w, &exec, opts.seed);
    let mut solver = solver();
    let warm_loss = warm_up(&mut exec, &mut solver, &pool);
    let steps = window(&mut exec, &mut solver, &pool, opts.seconds, report);
    let final_loss = exec.loss();
    report.check(
        final_loss.is_finite(),
        format!("final loss is {final_loss}"),
    );

    report.timing(&util::summarize(&steps), Some(BATCH));
    report.e2e("peak_rss_mb", util::peak_rss_mb());
    drop(exec);
    crate::report_setups(report, opts, first_ms / 1e3, || {
        time_ms(|| set_up(w)).1 / 1e3
    });
    report.info("final_loss", f64::from(final_loss), "loss");
    report.exact("inputs_digest", digest);
    report.exact("loss_bits", u64::from(warm_loss.to_bits()));
}

fn run_traced(w: &TrainWorkload, opts: &Opts, report: &mut Report) {
    let (mut exec, stages) = set_up(w);
    stages.report(report);
    let compiled = exec.compiled().clone();
    layers::report_compile_stats(&compiled, report);
    report.exact("allocated_elements", exec.allocated_elements() as u64);

    let shapes = layers::gemm_shapes(compiled.forward.iter().chain(&compiled.backward), BATCH);
    let (gemm_ms_per_step, ceiling_pct) = layers::probe_gemms(&shapes, report);
    report.layer("gemm_ceiling_pct", ceiling_pct);
    layers::probe_pool(report);

    let (pool, digest) = seeded_pool(w, &exec, opts.seed);
    report.exact("inputs_digest", digest);
    let mut solver = solver();
    let warm_loss = warm_up(&mut exec, &mut solver, &pool);
    report.exact("loss_bits", u64::from(warm_loss.to_bits()));

    // A quarter of the window runs untraced, as the reference the
    // tracing overhead is taken against.
    let reference = window(&mut exec, &mut solver, &pool, opts.unrecorded_s(), report);
    let reference_p50 = median(reference.iter().map(|u| u.ms).collect());

    let classes = layers::group_classes(&compiled);
    let mut tracer = Tracer::new();
    let n_step = tracer.name("step");
    let n_detailed = tracer.name("step (groups timed)");
    let n_set_input = tracer.name("set_input");
    let n_forward = tracer.name("forward");
    let n_backward = tracer.name("backward");
    let n_solver = tracer.name("solver");
    let group_names: BTreeMap<String, u32> = classes
        .keys()
        .map(|g| (g.clone(), tracer.name(g)))
        .collect();

    let mut step_ms = Vec::new();
    let mut forward_ms = Vec::new();
    let mut backward_ms = Vec::new();
    let mut solver_ms = Vec::new();
    let mut group_ms: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut group_closure = Vec::new();
    let mut dispatch_us = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < opts.seconds - opts.unrecorded_s() {
        let i = step_ms.len();
        let detailed = i % GROUP_TIMING_EVERY == 0;
        let batch = &pool[i % pool.len()];
        let t0 = tracer.now();
        for (ensemble, values) in batch {
            exec.set_input(ensemble, values)
                .expect("seeded batch fits the net");
        }
        let t1 = tracer.now();
        let fwd_groups = if detailed {
            exec.forward_timed()
        } else {
            exec.forward();
            Vec::new()
        };
        let t2 = tracer.now();
        let loss = exec.loss();
        let t3 = tracer.now();
        let bwd_groups = if detailed {
            exec.backward_timed()
        } else {
            exec.backward();
            Vec::new()
        };
        let t4 = tracer.now();
        solver.step(&mut exec);
        let t5 = tracer.now();

        let root = tracer.span(
            if detailed { n_detailed } else { n_step },
            "benchmark",
            0,
            ROOT,
            t0,
            t5,
        );
        tracer.span(n_set_input, "runtime::exec", 0, root, t0, t1);
        let fwd = tracer.span(n_forward, "runtime::exec", 0, root, t1, t2);
        let bwd = tracer.span(n_backward, "runtime::exec", 0, root, t3, t4);
        tracer.span(n_solver, "runtime::solver", 0, root, t4, t5);
        if detailed {
            let mut timed = 0.0;
            for (parent, phase_start, phase_end, groups) in
                [(fwd, t1, t2, &fwd_groups), (bwd, t3, t4, &bwd_groups)]
            {
                // Only durations come back; the groups are laid out in
                // order inside the phase, the untimed remainder spread
                // evenly between them.
                let sum_us: f64 = groups.iter().map(|(_, ms)| ms * 1e3).sum();
                let gap =
                    ((phase_end - phase_start - sum_us) / groups.len().max(1) as f64).max(0.0);
                let mut at = phase_start;
                for (name, ms) in groups {
                    let layer = match classes[name] {
                        "gemm" => "kernel:gemm",
                        "extern" => "kernel:extern",
                        _ => "kernel:loop",
                    };
                    tracer.span(group_names[name], layer, 0, parent, at, at + ms * 1e3);
                    at += ms * 1e3 + gap;
                    group_ms.entry(name.clone()).or_default().push(*ms);
                }
                timed += sum_us;
            }
            let phases_us = (t2 - t1) + (t4 - t3);
            let n_groups = (fwd_groups.len() + bwd_groups.len()).max(1) as f64;
            group_closure.push(timed / phases_us);
            dispatch_us.push((phases_us - timed) / n_groups);
        }
        step_ms.push((t5 - t0) / 1e3);
        forward_ms.push((t2 - t1) / 1e3);
        backward_ms.push((t4 - t3) / 1e3);
        solver_ms.push((t5 - t4) / 1e3);
        report.attempted += 1;
        if !loss.is_finite() {
            report.failed += 1;
        }
    }

    let step_p50 = median(step_ms.clone());
    let fwd_p50 = median(forward_ms);
    let bwd_p50 = median(backward_ms);
    let solver_p50 = median(solver_ms);
    report.info("traced_steps", step_ms.len() as f64, "count");
    report.info("step_ms_p50", step_p50, "ms");
    report.layer("forward_ms", fwd_p50);
    report.layer("backward_ms", bwd_p50);
    report.layer("solver_ms", solver_p50);
    report.info("solver_share", solver_p50 / step_p50, "fraction");
    report.layer("gemm_time_share", gemm_ms_per_step / reference_p50);
    report.info("gemm_ms_per_step(computed)", gemm_ms_per_step, "ms");
    report.layer(
        "trace_overhead_pct",
        100.0 * (step_p50 - reference_p50) / reference_p50,
    );

    // Kernel groups: class totals, and the heaviest groups by name (the
    // trace file has all of them).
    let mut by_class: BTreeMap<&str, f64> = BTreeMap::new();
    let mut heaviest: Vec<(String, f64)> = Vec::new();
    for (name, samples) in group_ms {
        let ms = median(samples);
        *by_class.entry(classes[&name]).or_insert(0.0) += ms;
        heaviest.push((name, ms));
    }
    for (class, ms) in &by_class {
        report.push(Kind::Layer, format!("group_ms{{class:{class}}}"), *ms, "ms");
    }
    heaviest.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("timings are never NaN"));
    for (name, ms) in heaviest.iter().take(8) {
        report.push(
            Kind::Layer,
            format!("group_ms{{{name}:{}}}", classes[name]),
            *ms,
            "ms",
        );
    }
    let closure = median(group_closure);
    report.layer("group_closure", closure);
    report.layer("dispatch_us_per_group", median(dispatch_us));
    if !opts.smoke {
        report.check(
            (0.85..=1.15).contains(&closure),
            format!("closure: sum of group_ms is {closure:.3} of forward_ms + backward_ms"),
        );
    }

    if w.baseline {
        baseline_ratio(&mut exec, report);
    }

    report.off_path(&[
        "server_ms",
        "queue_coalesce_ms",
        "execute_ms",
        "plan_lookup_us",
        "batch_size_mean",
        "wire_ms",
        "encode_us",
        "decode_us",
        "comm_ms",
        "exposed_ms",
        "allreduce_ms",
        "bytes_per_step",
    ]);
    let closure = crate::finish_trace(&tracer, report, |root| root.name == n_detailed);
    if !opts.smoke {
        report.check(
            (0.85..=1.15).contains(&closure),
            format!("closure: layer self times are {closure:.3} of step time"),
        );
    }
}

/// Times the Caffe-style baseline of the same conv groups against the
/// executor, paired round-robin so both sides share every load window.
/// Above 1 the executor is the faster one.
fn baseline_ratio(exec: &mut Executor, report: &mut Report) {
    let mut base = caffe::build((3, 32, 32), BATCH, &spec::vgg_prefix_specs(4, 2), 1);
    let mut rng = Rng::new(0, 3);
    let image: Vec<f32> = (0..BATCH * 3 * 32 * 32).map(|_| rng.signed(1.0)).collect();
    base.set_input(&image);
    let mut ours = Vec::new();
    let mut theirs = Vec::new();
    for round in 0..42 {
        let (_, a) = time_ms(|| {
            exec.forward();
            exec.backward();
        });
        let (_, b) = time_ms(|| {
            base.forward();
            base.backward();
        });
        if round >= 2 {
            ours.push(a);
            theirs.push(b);
        }
    }
    let (ours, theirs) = (median(ours), median(theirs));
    report.push(Kind::Layer, "baseline_fwd_bwd_ms", theirs, "ms");
    report.push(Kind::Layer, "baseline_ratio", theirs / ours, "ratio");
}
