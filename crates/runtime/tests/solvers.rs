//! Solver convergence: every update rule trains the same small MLP to a
//! fraction of its initial loss.

use latte_core::{compile, OptLevel};
use latte_nn::models::{mlp, ModelConfig};
use latte_runtime::data::MemoryDataSource;
use latte_runtime::solver::{
    solve, AdaDelta, AdaGrad, LrPolicy, MomPolicy, RmsProp, Sgd, Solver, SolverParams,
};
use latte_runtime::Executor;

fn task() -> (Executor, MemoryDataSource) {
    let cfg = ModelConfig {
        batch: 8,
        input_size: 12,
        channel_div: 1,
        classes: 3,
        with_loss: true,
        seed: 4,
    };
    let compiled = compile(&mlp(&cfg, &[16]).net, &OptLevel::full()).unwrap();
    let exec = Executor::new(compiled).unwrap();
    let items: Vec<(Vec<f32>, f32)> = (0..64)
        .map(|i| {
            let class = i % 3;
            let x: Vec<f32> = (0..12)
                .map(|j| {
                    let base = if j % 3 == class { 1.0 } else { 0.1 };
                    base + ((i * 12 + j) % 7) as f32 * 0.01
                })
                .collect();
            (x, class as f32)
        })
        .collect();
    (
        exec,
        MemoryDataSource::try_new("data", "label", items, 8).unwrap(),
    )
}

fn check(solver: &mut dyn Solver, tag: &str) {
    let (mut exec, mut source) = task();
    let report = solve(solver, &mut exec, &mut source).unwrap();
    assert!(
        report.final_loss < report.initial_loss * 0.5,
        "{tag}: {report:?}"
    );
    assert!(report.final_loss.is_finite(), "{tag}: {report:?}");
}

fn params(lr: f32, epochs: usize) -> SolverParams {
    SolverParams {
        lr_policy: LrPolicy::Fixed { lr },
        mom_policy: MomPolicy::Fixed { mom: 0.9 },
        regu_coef: 1e-4,
        max_epoch: epochs,
    }
}

#[test]
fn sgd_converges() {
    check(&mut Sgd::new(params(0.1, 10)), "sgd");
}

#[test]
fn sgd_with_inv_policy_converges() {
    let mut p = params(0.0, 10);
    p.lr_policy = LrPolicy::Inv {
        base: 0.1,
        gamma: 1e-4,
        power: 0.75,
    };
    check(&mut Sgd::new(p), "sgd-inv");
}

#[test]
fn rmsprop_converges() {
    let mut p = params(0.005, 10);
    p.mom_policy = MomPolicy::None;
    check(&mut RmsProp::new(p, 0.9, 1e-6), "rmsprop");
}

#[test]
fn adagrad_converges() {
    let mut p = params(0.05, 10);
    p.mom_policy = MomPolicy::None;
    check(&mut AdaGrad::new(p, 1e-6), "adagrad");
}

#[test]
fn adadelta_converges() {
    let mut p = params(1.0, 25);
    p.mom_policy = MomPolicy::None;
    check(&mut AdaDelta::new(p, 0.95, 1e-6), "adadelta");
}

#[test]
fn solve_report_counts_iterations() {
    let (mut exec, mut source) = task();
    let mut sgd = Sgd::new(params(0.05, 2));
    let report = solve(&mut sgd, &mut exec, &mut source).unwrap();
    // 64 items / batch 8 = 8 iterations per epoch, two epochs.
    assert_eq!(report.iterations, 16);
}
