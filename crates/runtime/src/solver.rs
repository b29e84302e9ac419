//! Solvers: the training-loop coordinators of the paper's Section 2.5.
//!
//! A [`Solver`] owns the update rule; [`SolverParams`] carries the
//! learning-rate and momentum policies (the paper's `LRPolicy.Inv`,
//! `MomPolicy.Fixed`, …) plus weight decay. [`solve`] drives the
//! forward/backward/update loop over a data source, exactly like the
//! paper's `solve(sgd, net)`.

use crate::data::BatchSource;
use crate::error::RuntimeError;
use crate::exec::Executor;
use crate::metrics::FaultMetrics;

/// Learning-rate schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrPolicy {
    /// Constant rate.
    Fixed {
        /// The rate.
        lr: f32,
    },
    /// `lr = base * (1 + gamma * iter)^(-power)` (the paper's
    /// `LRPolicy.Inv(0.01, 0.0001, 0.75)`).
    Inv {
        /// Base rate.
        base: f32,
        /// Decay factor per iteration.
        gamma: f32,
        /// Decay exponent.
        power: f32,
    },
}

impl LrPolicy {
    /// The learning rate at a given iteration.
    pub fn at(&self, iter: usize) -> f32 {
        match *self {
            LrPolicy::Fixed { lr } => lr,
            LrPolicy::Inv { base, gamma, power } => {
                base * (1.0 + gamma * iter as f32).powf(-power)
            }
        }
    }

    /// The same schedule with its rate multiplied by `factor` — how the
    /// supervisor's health policies cut (or fault injection spikes) the
    /// learning rate without knowing which schedule is in use.
    pub fn scaled(self, factor: f32) -> LrPolicy {
        match self {
            LrPolicy::Fixed { lr } => LrPolicy::Fixed { lr: lr * factor },
            LrPolicy::Inv { base, gamma, power } => LrPolicy::Inv {
                base: base * factor,
                gamma,
                power,
            },
        }
    }
}

/// Momentum schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MomPolicy {
    /// No momentum.
    None,
    /// Constant momentum (the paper's `MomPolicy.Fixed(0.9)`).
    Fixed {
        /// The coefficient.
        mom: f32,
    },
}

impl MomPolicy {
    /// The momentum coefficient at a given iteration.
    pub fn at(&self, _iter: usize) -> f32 {
        match *self {
            MomPolicy::None => 0.0,
            MomPolicy::Fixed { mom } => mom,
        }
    }
}

/// Hyper-parameters shared by all solvers (the paper's
/// `SolverParameters`).
#[derive(Debug, Clone, Copy)]
pub struct SolverParams {
    /// Learning-rate policy.
    pub lr_policy: LrPolicy,
    /// Momentum policy.
    pub mom_policy: MomPolicy,
    /// L2 regularization coefficient (the paper's `regu_coef`).
    pub regu_coef: f32,
    /// Training epochs for [`solve`].
    pub max_epoch: usize,
}

impl Default for SolverParams {
    fn default() -> Self {
        SolverParams {
            lr_policy: LrPolicy::Fixed { lr: 0.01 },
            mom_policy: MomPolicy::Fixed { mom: 0.9 },
            regu_coef: 0.0,
            max_epoch: 1,
        }
    }
}

/// A snapshot of a solver's mutable state: the iteration counter plus
/// every per-parameter accumulator, named so a checkpoint written by one
/// solver kind is rejected when restored into another.
///
/// Produced by [`Solver::export_state`], persisted by
/// [`crate::checkpoint::save_checkpoint`], and replayed by
/// [`Solver::import_state`] — the round trip is bit-exact, so a stateful
/// solver (momentum, RMS accumulators) resumes on the identical update
/// trajectory after a restart.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolverState {
    /// Solver kind tag (`"sgd"`, `"rmsprop"`, …); empty for stateless
    /// solvers.
    pub kind: String,
    /// Iterations already applied (drives the LR/momentum schedules).
    pub iter: u64,
    /// Named accumulator groups, each holding one vector per parameter
    /// in executor parameter order.
    pub groups: Vec<(String, Vec<Vec<f32>>)>,
}

/// A parameter-update rule.
///
/// Implementations hold per-parameter state (momentum, squared-gradient
/// accumulators) keyed by parameter order, which is stable for a given
/// executor.
pub trait Solver {
    /// The solver's hyper-parameters.
    fn params(&self) -> &SolverParams;

    /// Mutable access to the hyper-parameters, so supervision policies
    /// can re-tune a running solver (e.g. cut the learning rate after a
    /// divergence spike). Deliberately *not* captured by
    /// [`Solver::export_state`]: a restored checkpoint keeps the
    /// caller's (possibly re-tuned) hyper-parameters.
    fn params_mut(&mut self) -> &mut SolverParams;

    /// Applies one update step to every parameter of the executor, using
    /// the gradients of the last backward pass.
    fn step(&mut self, exec: &mut Executor);

    /// Snapshots the solver's mutable state for checkpointing.
    ///
    /// The default (for stateless update rules) is an empty state.
    fn export_state(&self) -> SolverState {
        SolverState::default()
    }

    /// Restores state captured by [`Solver::export_state`].
    ///
    /// # Errors
    ///
    /// Fails when the state was exported by a different solver kind.
    fn import_state(&mut self, state: &SolverState) -> Result<(), RuntimeError> {
        if state.kind.is_empty() && state.groups.is_empty() {
            Ok(())
        } else {
            Err(RuntimeError::InvalidConfig {
                detail: format!(
                    "this solver is stateless but the checkpoint holds `{}` state",
                    state.kind
                ),
            })
        }
    }
}

fn ensure_state(state: &mut Vec<Vec<f32>>, idx: usize, len: usize) -> &mut Vec<f32> {
    while state.len() <= idx {
        state.push(Vec::new());
    }
    if state[idx].len() != len {
        state[idx] = vec![0.0; len];
    }
    &mut state[idx]
}

/// What each solver below keeps between steps: its iteration counter and
/// `N` named accumulator groups (one vector per parameter, in executor
/// parameter order, sized on first use). The kind tag and the group names
/// are the checkpoint format, so they are fixed per solver.
#[derive(Debug)]
struct Accumulators<const N: usize> {
    kind: &'static str,
    iter: usize,
    names: [&'static str; N],
    groups: [Vec<Vec<f32>>; N],
}

impl<const N: usize> Accumulators<N> {
    fn new(kind: &'static str, names: [&'static str; N]) -> Self {
        Accumulators { kind, iter: 0, names, groups: std::array::from_fn(|_| Vec::new()) }
    }

    /// One update step: calls `update(weights, gradients, rate,
    /// accumulators)` for every parameter of the executor, `rate` being
    /// this iteration's learning rate times the parameter's multiplier,
    /// then advances the iteration counter.
    fn step(
        &mut self,
        params: &SolverParams,
        exec: &mut Executor,
        mut update: impl FnMut(&mut [f32], &[f32], f32, [&mut [f32]; N]),
    ) {
        let lr = params.lr_policy.at(self.iter);
        let groups = &mut self.groups;
        let mut idx = 0;
        exec.for_each_param_mut(|v, g, lr_mult| {
            let acc = groups.each_mut().map(|group| ensure_state(group, idx, v.len()).as_mut_slice());
            idx += 1;
            update(v, g, lr * lr_mult, acc);
        });
        self.iter += 1;
    }

    fn export(&self) -> SolverState {
        SolverState {
            kind: self.kind.into(),
            iter: self.iter as u64,
            groups: self.names.iter().map(|n| n.to_string()).zip(self.groups.iter().cloned()).collect(),
        }
    }

    fn import(&mut self, state: &SolverState) -> Result<(), RuntimeError> {
        let kind = self.kind;
        if state.kind != kind {
            return Err(RuntimeError::InvalidConfig {
                detail: format!(
                    "checkpoint holds `{}` solver state, cannot restore into `{kind}`",
                    state.kind
                ),
            });
        }
        // Every group is found before anything is replaced.
        let mut groups = std::array::from_fn(|_| Vec::new());
        for (group, name) in groups.iter_mut().zip(self.names) {
            let found = state.groups.iter().find(|(n, _)| n == name);
            let (_, saved) = found.ok_or_else(|| RuntimeError::InvalidConfig {
                detail: format!("solver state for `{kind}` lacks the `{name}` group"),
            })?;
            group.clone_from(saved);
        }
        self.iter = state.iter as usize;
        self.groups = groups;
        Ok(())
    }
}

/// Stochastic gradient descent with momentum and weight decay.
#[derive(Debug)]
pub struct Sgd {
    params: SolverParams,
    state: Accumulators<1>,
}

impl Sgd {
    /// Creates an SGD solver.
    pub fn new(params: SolverParams) -> Self {
        Sgd { params, state: Accumulators::new("sgd", ["velocity"]) }
    }
}

impl Solver for Sgd {
    fn params(&self) -> &SolverParams {
        &self.params
    }

    fn params_mut(&mut self) -> &mut SolverParams {
        &mut self.params
    }

    fn step(&mut self, exec: &mut Executor) {
        let mom = self.params.mom_policy.at(self.state.iter);
        let decay = self.params.regu_coef;
        self.state.step(&self.params, exec, |v, g, rate, [vel]| {
            for ((w, &grad), vel) in v.iter_mut().zip(g).zip(vel.iter_mut()) {
                let d = grad + decay * *w;
                let next = mom * *vel - rate * d;
                // Under a zero gradient `mom * vel` decays into the
                // subnormals and sticks there (0.9 · 4·2⁻¹⁴⁹ rounds back
                // to 4·2⁻¹⁴⁹), and every later multiply takes a
                // microcode assist. Such a velocity moves only a weight
                // below 2⁻¹⁰², so flushing it changes no other bit
                // (DESIGN.md §9.2).
                *vel = if next.abs() < f32::MIN_POSITIVE { 0.0 } else { next };
                *w += *vel;
            }
        });
    }

    fn export_state(&self) -> SolverState {
        self.state.export()
    }

    fn import_state(&mut self, state: &SolverState) -> Result<(), RuntimeError> {
        self.state.import(state)
    }
}

/// RMSProp (Tieleman & Hinton): per-weight rates from a running average
/// of squared gradients.
#[derive(Debug)]
pub struct RmsProp {
    params: SolverParams,
    decay: f32,
    eps: f32,
    state: Accumulators<1>,
}

impl RmsProp {
    /// Creates an RMSProp solver with the given squared-gradient decay.
    pub fn new(params: SolverParams, decay: f32, eps: f32) -> Self {
        RmsProp { params, decay, eps, state: Accumulators::new("rmsprop", ["ms"]) }
    }
}

impl Solver for RmsProp {
    fn params(&self) -> &SolverParams {
        &self.params
    }

    fn params_mut(&mut self) -> &mut SolverParams {
        &mut self.params
    }

    fn step(&mut self, exec: &mut Executor) {
        let regu = self.params.regu_coef;
        let (decay, eps) = (self.decay, self.eps);
        self.state.step(&self.params, exec, |v, g, rate, [m]| {
            for ((w, &grad), m) in v.iter_mut().zip(g).zip(m.iter_mut()) {
                let d = grad + regu * *w;
                *m = decay * *m + (1.0 - decay) * d * d;
                *w -= rate * d / (m.sqrt() + eps);
            }
        });
    }

    fn export_state(&self) -> SolverState {
        self.state.export()
    }

    fn import_state(&mut self, state: &SolverState) -> Result<(), RuntimeError> {
        self.state.import(state)
    }
}

/// AdaGrad (Duchi et al.): per-weight rates from the accumulated squared
/// gradient (cited by the paper as an example solving method).
#[derive(Debug)]
pub struct AdaGrad {
    params: SolverParams,
    eps: f32,
    state: Accumulators<1>,
}

impl AdaGrad {
    /// Creates an AdaGrad solver.
    pub fn new(params: SolverParams, eps: f32) -> Self {
        AdaGrad { params, eps, state: Accumulators::new("adagrad", ["acc"]) }
    }
}

impl Solver for AdaGrad {
    fn params(&self) -> &SolverParams {
        &self.params
    }

    fn params_mut(&mut self) -> &mut SolverParams {
        &mut self.params
    }

    fn step(&mut self, exec: &mut Executor) {
        let regu = self.params.regu_coef;
        let eps = self.eps;
        self.state.step(&self.params, exec, |v, g, rate, [a]| {
            for ((w, &grad), a) in v.iter_mut().zip(g).zip(a.iter_mut()) {
                let d = grad + regu * *w;
                *a += d * d;
                *w -= rate * d / (a.sqrt() + eps);
            }
        });
    }

    fn export_state(&self) -> SolverState {
        self.state.export()
    }

    fn import_state(&mut self, state: &SolverState) -> Result<(), RuntimeError> {
        self.state.import(state)
    }
}

/// AdaDelta (Zeiler): parameter updates scaled by the ratio of running
/// RMS of past updates to running RMS of past gradients — no global
/// learning rate needed (the `lr_policy` still multiplies as a trust
/// factor).
#[derive(Debug)]
pub struct AdaDelta {
    params: SolverParams,
    rho: f32,
    eps: f32,
    state: Accumulators<2>,
}

impl AdaDelta {
    /// Creates an AdaDelta solver with decay `rho`.
    pub fn new(params: SolverParams, rho: f32, eps: f32) -> Self {
        AdaDelta { params, rho, eps, state: Accumulators::new("adadelta", ["acc_grad", "acc_update"]) }
    }
}

impl Solver for AdaDelta {
    fn params(&self) -> &SolverParams {
        &self.params
    }

    fn params_mut(&mut self) -> &mut SolverParams {
        &mut self.params
    }

    fn step(&mut self, exec: &mut Executor) {
        let regu = self.params.regu_coef;
        let (rho, eps) = (self.rho, self.eps);
        self.state.step(&self.params, exec, |v, g, rate, [ag, au]| {
            for (((w, &grad), ag), au) in
                v.iter_mut().zip(g).zip(ag.iter_mut()).zip(au.iter_mut())
            {
                let d = grad + regu * *w;
                *ag = rho * *ag + (1.0 - rho) * d * d;
                let update = -((*au + eps).sqrt() / (*ag + eps).sqrt()) * d;
                *au = rho * *au + (1.0 - rho) * update * update;
                *w += rate * update;
            }
        });
    }

    fn export_state(&self) -> SolverState {
        self.state.export()
    }

    fn import_state(&mut self, state: &SolverState) -> Result<(), RuntimeError> {
        self.state.import(state)
    }
}

/// The global L2 norm [`apply_grad_hygiene`] clips parameter gradients
/// to. No run has needed another cap (DESIGN.md §9.2).
const MAX_GRAD_NORM: f32 = 100.0;

/// Gradient hygiene, run between `backward` and [`Solver::step`]: when
/// any parameter-gradient element is NaN/Inf it vetoes the update
/// (clipping cannot repair a NaN), leaving the gradients untouched and
/// returning `true` — skip the step; otherwise it scales the gradients
/// down to a global L2 norm of 100 when they exceed it and returns
/// `false`. Each veto and each clip bumps its `metrics` counter.
pub fn apply_grad_hygiene(exec: &mut Executor, metrics: &FaultMetrics) -> bool {
    let mut sumsq = 0.0f64;
    let mut nonfinite = false;
    exec.for_each_param_grad_mut(|_, g| {
        for &v in g.iter() {
            if v.is_finite() {
                sumsq += f64::from(v) * f64::from(v);
            } else {
                nonfinite = true;
            }
        }
    });
    if nonfinite {
        FaultMetrics::bump(&metrics.grad_nonfinite_trips);
        return true;
    }
    let norm = sumsq.sqrt() as f32;
    if norm > MAX_GRAD_NORM && norm.is_finite() {
        let scale = MAX_GRAD_NORM / norm;
        exec.for_each_param_grad_mut(|_, g| {
            for v in g.iter_mut() {
                *v *= scale;
            }
        });
        FaultMetrics::bump(&metrics.grad_clips);
    }
    false
}

/// Result of a [`solve`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// Mean loss of the first iteration.
    pub initial_loss: f32,
    /// Mean loss of the final iteration.
    pub final_loss: f32,
    /// Total iterations executed.
    pub iterations: usize,
}

/// Trains a network: the paper's `solve(solver, net)`.
///
/// Iterates `solver.params().max_epoch` epochs over the data source,
/// running forward, backward, and the solver's update for each batch.
///
/// # Errors
///
/// Propagates input-feeding and data-source failures.
pub fn solve(
    solver: &mut dyn Solver,
    exec: &mut Executor,
    source: &mut dyn BatchSource,
) -> Result<SolveReport, RuntimeError> {
    let mut initial = None;
    let mut last = 0.0;
    let mut iterations = 0;
    for _ in 0..solver.params().max_epoch {
        source.reset();
        while let Some(batch) = source.next_batch()? {
            for (ensemble, values) in &batch {
                exec.set_input(ensemble, values)?;
            }
            exec.forward();
            let loss = exec.loss();
            if initial.is_none() {
                initial = Some(loss);
            }
            last = loss;
            exec.backward();
            solver.step(exec);
            iterations += 1;
        }
    }
    Ok(SolveReport {
        initial_loss: initial.unwrap_or(0.0),
        final_loss: last,
        iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use latte_core::{compile, OptLevel};
    use latte_nn::models::{mlp, ModelConfig};

    fn build() -> Executor {
        let cfg = ModelConfig {
            batch: 2,
            input_size: 4,
            channel_div: 1,
            classes: 2,
            with_loss: true,
            seed: 5,
        };
        Executor::new(compile(&mlp(&cfg, &[6]).net, &OptLevel::full()).unwrap()).unwrap()
    }

    /// Runs one forward/backward on a fixed batch so gradients exist.
    fn populate_grads(exec: &mut Executor) {
        let input: Vec<f32> = (0..exec.batch() * 4).map(|i| (i % 5) as f32 * 0.3).collect();
        exec.set_input("data", &input).unwrap();
        exec.set_input("label", &vec![0.0; exec.batch()]).unwrap();
        exec.forward();
        exec.backward();
    }

    #[test]
    fn lr_policies_scale_uniformly() {
        let fixed = LrPolicy::Fixed { lr: 0.4 }.scaled(0.5);
        assert_eq!(fixed.at(0), 0.2);
        let inv = LrPolicy::Inv { base: 0.01, gamma: 0.0001, power: 0.75 };
        let cut = inv.scaled(0.1);
        for iter in [0, 100, 10_000] {
            assert!((cut.at(iter) - 0.1 * inv.at(iter)).abs() < 1e-9);
        }
    }

    #[test]
    fn hygiene_vetoes_nonfinite_gradients_untouched() {
        let mut exec = build();
        populate_grads(&mut exec);
        let mut grad_names = Vec::new();
        exec.for_each_param_grad_mut(|name, _| grad_names.push(name.to_string()));
        assert!(!grad_names.is_empty());
        let len = exec.read_buffer(&grad_names[0]).unwrap().len();
        let mut poisoned = vec![1.0; len];
        poisoned[len / 2] = f32::NAN;
        exec.write_buffer(&grad_names[0], &poisoned).unwrap();

        let metrics = FaultMetrics::new();
        assert!(apply_grad_hygiene(&mut exec, &metrics), "a NaN vetoes the step");
        assert_eq!(metrics.snapshot().grad_nonfinite_trips, 1);
        assert_eq!(metrics.snapshot().grad_clips, 0);
        // The veto leaves the gradients as they were.
        let after = exec.read_buffer(&grad_names[0]).unwrap();
        assert!(after[len / 2].is_nan());
        assert_eq!(after[0], 1.0);
    }

    #[test]
    fn hygiene_clips_the_global_norm_to_its_cap() {
        let mut exec = build();
        populate_grads(&mut exec);
        let mut grad_names = Vec::new();
        exec.for_each_param_grad_mut(|name, _| grad_names.push(name.to_string()));
        let len = exec.read_buffer(&grad_names[0]).unwrap().len();
        exec.write_buffer(&grad_names[0], &vec![50.0; len]).unwrap();
        assert!(50.0 * (len as f32).sqrt() > MAX_GRAD_NORM, "the fixture must exceed the cap");

        let metrics = FaultMetrics::new();
        assert!(!apply_grad_hygiene(&mut exec, &metrics));
        assert_eq!(metrics.snapshot().grad_clips, 1);
        // After conditioning, the global norm obeys the cap.
        let mut sumsq = 0.0f64;
        exec.for_each_param_grad_mut(|_, g| {
            for &v in g.iter() {
                sumsq += f64::from(v) * f64::from(v);
            }
        });
        let norm = sumsq.sqrt() as f32;
        assert!(norm <= MAX_GRAD_NORM * (1.0 + 1e-4), "norm {norm} exceeds cap");
    }

    #[test]
    fn hygiene_leaves_healthy_gradients_alone() {
        let mut exec = build();
        populate_grads(&mut exec);
        let before: Vec<Vec<f32>> = {
            let mut v = Vec::new();
            exec.for_each_param_grad_mut(|_, g| v.push(g.to_vec()));
            v
        };
        let metrics = FaultMetrics::new();
        assert!(!apply_grad_hygiene(&mut exec, &metrics));
        let mut after = Vec::new();
        exec.for_each_param_grad_mut(|_, g| after.push(g.to_vec()));
        assert_eq!(before, after);
        assert_eq!(metrics.snapshot().grad_clips, 0);
    }

    #[test]
    fn lr_policies_decay_as_specified() {
        let inv = LrPolicy::Inv {
            base: 0.01,
            gamma: 0.0001,
            power: 0.75,
        };
        assert!((inv.at(0) - 0.01).abs() < 1e-9);
        assert!(inv.at(10_000) < 0.01);
    }

    #[test]
    fn momentum_policy_values() {
        assert_eq!(MomPolicy::None.at(5), 0.0);
        assert_eq!(MomPolicy::Fixed { mom: 0.9 }.at(5), 0.9);
    }

    /// A weight whose gradient has gone exactly zero (a dead unit) must
    /// not leave its velocity circling in the subnormals, where every
    /// multiply of a later step takes a microcode assist: no velocity is
    /// subnormal after any of 2 000 idle steps, and every one ends at
    /// exactly zero.
    #[test]
    fn idle_velocity_reaches_zero_without_going_subnormal() {
        let cfg = ModelConfig {
            batch: 1,
            input_size: 64,
            channel_div: 1,
            classes: 8,
            with_loss: true,
            seed: 5,
        };
        let compiled = compile(&mlp(&cfg, &[256]).net, &OptLevel::full()).unwrap();
        let mut exec = Executor::new(compiled).unwrap();
        let mut sgd = Sgd::new(SolverParams::default());
        let fill = |exec: &mut Executor, g: f32| exec.for_each_param_grad_mut(|_, grad| grad.fill(g));
        fill(&mut exec, 1.0);
        sgd.step(&mut exec);
        assert!(sgd.state.groups[0].iter().flatten().all(|&v| v <= -0.01));
        fill(&mut exec, 0.0);
        for _ in 0..2000 {
            sgd.step(&mut exec);
            assert!(
                !sgd.state.groups[0]
                    .iter()
                    .flatten()
                    .any(|v| v.is_subnormal()),
                "a velocity is subnormal after step {}",
                sgd.state.iter
            );
        }
        assert_eq!(sgd.state.iter, 2001);
        assert!(sgd.state.groups[0].iter().flatten().all(|v| v.to_bits() == 0), "velocity stuck above zero");
    }

    #[test]
    fn ensure_state_sizes_lazily() {
        let mut s = Vec::new();
        ensure_state(&mut s, 2, 4);
        assert_eq!(s.len(), 3);
        assert_eq!(s[2].len(), 4);
    }

    #[test]
    fn solver_state_round_trips_bit_exactly() {
        let mut sgd = Sgd::new(SolverParams::default());
        sgd.state.iter = 7;
        sgd.state.groups[0] = vec![vec![0.25, -0.5], vec![1.0]];
        let state = sgd.export_state();
        assert_eq!(state.kind, "sgd");
        assert_eq!(state.iter, 7);
        let mut fresh = Sgd::new(SolverParams::default());
        fresh.import_state(&state).unwrap();
        assert_eq!(fresh.state.iter, 7);
        assert_eq!(fresh.state.groups, sgd.state.groups);
        assert_eq!(fresh.export_state(), state);

        let mut ad = AdaDelta::new(SolverParams::default(), 0.95, 1e-6);
        ad.state.iter = 3;
        ad.state.groups = [vec![vec![0.125]], vec![vec![0.5]]];
        let state = ad.export_state();
        let mut fresh = AdaDelta::new(SolverParams::default(), 0.95, 1e-6);
        fresh.import_state(&state).unwrap();
        assert_eq!(fresh.export_state(), state);
    }

    #[test]
    fn import_rejects_foreign_solver_state() {
        let sgd = Sgd::new(SolverParams::default());
        let state = sgd.export_state();
        let mut rms = RmsProp::new(SolverParams::default(), 0.9, 1e-8);
        let err = rms.import_state(&state).unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidConfig { .. }));
    }
}
