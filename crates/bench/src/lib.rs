//! # latte-bench
//!
//! The measurement harness behind the `figures` binary, which regenerates
//! every figure and table of the paper's evaluation (Section 7), and the
//! criterion ablation benches — plus the two models of hardware this
//! host does not have: the Xeon-Phi-like coprocessor of Figure 17
//! ([`accel`]) and the analytic cluster of Figures 18–19
//! ([`cluster_model`]).

#![warn(missing_docs)]

pub mod accel;
pub mod cluster_model;

use std::time::Instant;

use latte_baselines::net::SequentialNet;
use latte_core::{compile, CompiledNet, OptLevel};
use latte_runtime::{ExecConfig, Executor};

/// Which passes a measurement runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// Forward only.
    Forward,
    /// Backward only (after one forward).
    Backward,
    /// Forward + backward.
    Both,
}

/// Measures the median seconds per invocation of `f`, adaptively choosing
/// the iteration count (at least `min_iters`, at least ~0.2 s total).
fn measure(min_iters: usize, mut f: impl FnMut()) -> f64 {
    // Warm up.
    f();
    let mut times = Vec::new();
    let budget = std::time::Duration::from_millis(400);
    let start = Instant::now();
    while times.len() < min_iters || (start.elapsed() < budget && times.len() < 50) {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed().as_secs_f64());
    }
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// Seconds per pass for a Latte executor.
pub fn time_latte(exec: &mut Executor, pass: Pass, min_iters: usize) -> f64 {
    match pass {
        Pass::Forward => measure(min_iters, || exec.forward()),
        Pass::Backward => {
            exec.forward();
            measure(min_iters, || exec.backward())
        }
        Pass::Both => measure(min_iters, || {
            exec.forward();
            exec.backward();
        }),
    }
}

/// Seconds per pass for a baseline network.
pub fn time_baseline(net: &mut SequentialNet, pass: Pass, min_iters: usize) -> f64 {
    match pass {
        Pass::Forward => measure(min_iters, || {
            net.forward();
        }),
        Pass::Backward => {
            net.forward();
            measure(min_iters, || net.backward())
        }
        Pass::Both => measure(min_iters, || {
            net.forward();
            net.backward();
        }),
    }
}

/// Compiles a model at an opt level, panicking with context on failure.
pub fn compile_or_die(net: &latte_core::dsl::Net, opt: &OptLevel, what: &str) -> CompiledNet {
    compile(net, opt).unwrap_or_else(|e| panic!("compiling {what}: {e}"))
}

/// Builds an executor, panicking with context on failure.
pub fn executor_or_die(compiled: CompiledNet, what: &str) -> Executor {
    Executor::new(compiled).unwrap_or_else(|e| panic!("lowering {what}: {e}"))
}

/// Prints the compiler's per-stage instrumentation for one compile — one
/// row per stage with wall time and IR-size deltas (see
/// `CompileStats::passes`), so figure runs show where compile time goes.
/// Also prints the runtime thread count (`LATTE_THREADS`) and every
/// group's parallel/serial schedule decision, so bench output is
/// self-describing.
pub fn print_compile_stats(compiled: &CompiledNet, what: &str) {
    println!("\n-- compile pipeline: {what} --");
    for p in &compiled.stats.passes {
        println!("  {}", p.render());
    }
    println!("  threads: {} (LATTE_THREADS)", ExecConfig::env_threads());
    println!(
        "  schedule decisions: {} parallel, {} serial",
        compiled.stats.groups_parallel, compiled.stats.groups_serial
    );
    for (name, parallel) in &compiled.stats.group_parallel {
        let decision = if *parallel { "parallel" } else { "serial" };
        println!("  group {name:<40} {decision}");
    }
}

/// Deterministic pseudo-random input data.
pub fn seeded(len: usize, seed: u32) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let h = (i as u32).wrapping_mul(2654435761).wrapping_add(seed);
            ((h >> 8) % 1000) as f32 / 500.0 - 1.0
        })
        .collect()
}

/// Formats a ratio as `N.NNx`.
pub fn speedup(base: f64, other: f64) -> String {
    format!("{:.2}x", base / other)
}

/// Prints a simple aligned table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_positive_time() {
        let t = measure(3, || {
            std::hint::black_box((0..1000).sum::<usize>());
        });
        assert!(t > 0.0);
    }

    #[test]
    fn speedup_formats() {
        assert_eq!(speedup(2.0, 1.0), "2.00x");
    }
}
