//! Per-layer probes shared by the workloads: the pass pipeline's own
//! record, the GEMM shapes a net issues and what the kernel reaches on
//! them, kernel-group classes, and the worker pool's dispatch cost.
//! Everything is read from public IR or timed around a public call.

use std::collections::BTreeMap;

use latte_core::{CompiledNet, Group};
use latte_ir::Stmt;
use latte_runtime::pool::{self, WorkerPool};
use latte_tensor::gemm::{Gemm, Transpose};

use crate::report::{Kind, Report};
use crate::util::median_ms;

/// The timed stages of one cold set-up, in milliseconds.
#[derive(Default, Clone, Copy)]
pub struct SetupStages {
    pub net_build_ms: f64,
    pub compile_ms: f64,
    pub lower_ms: f64,
    pub instantiate_ms: f64,
}

impl SetupStages {
    pub fn add(&mut self, other: SetupStages) {
        self.net_build_ms += other.net_build_ms;
        self.compile_ms += other.compile_ms;
        self.lower_ms += other.lower_ms;
        self.instantiate_ms += other.instantiate_ms;
    }

    pub fn report(&self, report: &mut Report) {
        report.layer("net_build_ms", self.net_build_ms);
        report.layer("compile_ms", self.compile_ms);
        report.layer("lower_ms", self.lower_ms);
        report.layer("instantiate_ms", self.instantiate_ms);
    }
}

/// `core`: what the pass pipeline did, from `CompileStats`.
pub fn report_compile_stats(compiled: &CompiledNet, report: &mut Report) {
    let stats = &compiled.stats;
    for p in &stats.passes {
        report.push(
            Kind::Layer,
            format!("pass_ms{{{}}}", p.name),
            p.wall_micros as f64 / 1e3,
            "ms",
        );
        report.exact(
            format!("pass_stmts_after{{{}}}", p.name),
            p.stmts_after as u64,
        );
    }
    report.exact("gemms_matched", stats.gemms_matched as u64);
    report.exact("fusions", stats.fusions as u64);
    report.exact(
        "groups",
        (compiled.forward.len() + compiled.backward.len()) as u64,
    );
    report.exact("step_groups_shared", stats.step_groups_shared as u64);
}

/// How the runtime will spend a group's time, judged from its IR: a
/// matched GEMM anywhere makes it a `gemm` group, otherwise an extern
/// kernel makes it `extern`, otherwise it is copies and element loops.
pub fn group_class(group: &Group) -> &'static str {
    let mut gemm = false;
    let mut ext = false;
    for stmt in &group.stmts {
        stmt.visit(&mut |s| match s {
            Stmt::Gemm(_) => gemm = true,
            Stmt::Extern(_) => ext = true,
            _ => {}
        });
    }
    if gemm {
        "gemm"
    } else if ext {
        "extern"
    } else {
        "loop"
    }
}

/// `name -> class` for every group of both phases.
pub fn group_classes(compiled: &CompiledNet) -> BTreeMap<String, &'static str> {
    compiled
        .forward
        .iter()
        .chain(&compiled.backward)
        .map(|g| (g.name.clone(), group_class(g)))
        .collect()
}

/// One distinct GEMM the net issues.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct GemmShape {
    pub ta: bool,
    pub tb: bool,
    pub m: usize,
    pub n: usize,
    pub k: usize,
}

impl GemmShape {
    pub fn label(&self) -> String {
        let t = |b: bool| if b { 'T' } else { 'N' };
        format!(
            "{}{}:{}x{}x{}",
            t(self.ta),
            t(self.tb),
            self.m,
            self.n,
            self.k
        )
    }

    fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.k as f64
    }
}

/// Walks `Stmt::Gemm` in the given groups and returns each distinct
/// shape with its calls per pass. A statement runs once per batch item
/// per enclosing-loop iteration — except the fully-connected forms
/// (`m`, `n` or `k` of 1 at the top level of a group), which the runtime
/// hoists into one whole-batch GEMM; those are counted once, at the
/// hoisted shape, so the probe times what actually runs.
pub fn gemm_shapes<'a>(
    groups: impl Iterator<Item = &'a Group>,
    batch: usize,
) -> BTreeMap<GemmShape, usize> {
    fn walk(
        stmt: &Stmt,
        trips: usize,
        top: bool,
        batch: usize,
        out: &mut BTreeMap<GemmShape, usize>,
    ) {
        match stmt {
            Stmt::For(l) => {
                for s in &l.body {
                    walk(s, trips * l.extent, false, batch, out);
                }
            }
            Stmt::Gemm(g) => {
                let hoisted = top && (g.m == 1 || g.n == 1 || g.k == 1);
                let (shape, calls) = if !hoisted {
                    let shape = GemmShape {
                        ta: g.ta,
                        tb: g.tb,
                        m: g.m,
                        n: g.n,
                        k: g.k,
                    };
                    (shape, trips * batch)
                } else if g.m == 1 {
                    (
                        GemmShape {
                            ta: false,
                            tb: g.tb,
                            m: batch,
                            n: g.n,
                            k: g.k,
                        },
                        1,
                    )
                } else if g.n == 1 {
                    (
                        GemmShape {
                            ta: false,
                            tb: !g.ta,
                            m: batch,
                            n: g.m,
                            k: g.k,
                        },
                        1,
                    )
                } else {
                    (
                        GemmShape {
                            ta: true,
                            tb: false,
                            m: g.m,
                            n: g.n,
                            k: batch,
                        },
                        1,
                    )
                };
                *out.entry(shape).or_insert(0) += calls;
            }
            _ => {}
        }
    }
    let mut out = BTreeMap::new();
    for group in groups {
        for stmt in &group.stmts {
            walk(stmt, 1, true, batch, &mut out);
        }
    }
    out
}

/// `tensor::gemm`: times `Gemm::compute` on every shape and on a 512^3
/// reference in the same run. Reports `gemm_gflops{shape}` and
/// `gemm_ceiling_pct{shape}` rows, and returns the computed
/// milliseconds of GEMM per pass (per-shape time x calls) and the
/// time-weighted mean ceiling percentage.
pub fn probe_gemms(shapes: &BTreeMap<GemmShape, usize>, report: &mut Report) -> (f64, f64) {
    let mut engine = Gemm::new();
    let tr = |t: bool| if t { Transpose::Yes } else { Transpose::No };
    let mut time = |s: &GemmShape, reps: usize| {
        let a = vec![0.5f32; s.m * s.k];
        let b = vec![0.25f32; s.k * s.n];
        let mut c = vec![0.0f32; s.m * s.n];
        median_ms(reps, || {
            engine.compute(tr(s.ta), tr(s.tb), s.m, s.n, s.k, &a, &b, &mut c);
            std::hint::black_box(&mut c);
        })
    };
    let reference = GemmShape {
        ta: false,
        tb: false,
        m: 512,
        n: 512,
        k: 512,
    };
    let ceiling_gflops = reference.flops() / (time(&reference, 5) * 1e-3) / 1e9;
    report.push(
        Kind::Layer,
        "gemm_gflops{ceiling:512^3}",
        ceiling_gflops,
        "GFLOP/s",
    );

    let mut total_ms = 0.0;
    let mut weighted_pct = 0.0;
    for (shape, &calls) in shapes {
        let ms = time(shape, 40);
        let gflops = shape.flops() / (ms * 1e-3) / 1e9;
        let pct = 100.0 * gflops / ceiling_gflops;
        let label = shape.label();
        report.push(
            Kind::Layer,
            format!("gemm_gflops{{{label}}}"),
            gflops,
            "GFLOP/s",
        );
        report.push(
            Kind::Layer,
            format!("gemm_ceiling_pct{{{label}}}"),
            pct,
            "%",
        );
        report.exact(format!("gemm_calls{{{label}}}"), calls as u64);
        total_ms += ms * calls as f64;
        weighted_pct += pct * ms * calls as f64;
    }
    let mean_pct = if total_ms > 0.0 {
        weighted_pct / total_ms
    } else {
        0.0
    };
    (total_ms, mean_pct)
}

/// `runtime::pool`: the cost of broadcasting an empty job to a
/// 2-thread pool (one wake-up and one join), in microseconds.
pub fn probe_pool(report: &mut Report) {
    let pool = WorkerPool::new(2);
    let ms = median_ms(2000, || pool.run(&|_, _| {}));
    report.layer("pool_dispatch_us", ms * 1e3);
    drop(pool);
    report.info(
        "total_threads_spawned",
        pool::total_threads_spawned() as f64,
        "count",
    );
}
