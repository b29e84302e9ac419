//! The differential harness: every optimization level against the oracle.
//!
//! [`diff_against_oracle`] compiles one network once at
//! [`OptLevel::none`] and executes it with the reference interpreter
//! ([`crate::Interpreter`]), then compiles the *same* network under each
//! requested [`OptLevel`] configuration, runs it through the real
//! executor, and compares every activation, activation-gradient, and
//! parameter-gradient buffer — plus the scalar loss — element by element
//! within a [`Tolerance`] budget. Divergence produces structured
//! [`Mismatch`] records naming the configuration, buffer, flat index, and
//! both values, so a broken pass is not just *detected* but *located*.
//!
//! [`standard_configs`] is the default matrix: each optimization alone,
//! representative combinations, and the full pipeline. When a new pass is
//! added to the compiler, add a configuration exercising it here (see
//! DESIGN.md, "Adding a pass to the differential matrix").
//!
//! ## What is compared
//!
//! Buffers of kind `Value`, `Grad`, and `ParamGrad` that exist in both
//! compilations *and* whose storage-sharing class (the set of buffer
//! names aliased onto the same storage) is identical in both. The class
//! check is what makes buffer-sharing configurations comparable: when the
//! subject disables sharing (or fuses differently), a shared storage in
//! the oracle holds the *last* writer's values while the subject keeps
//! each value live — a semantic difference in observability, not in
//! computation. Parameter gradients and losses are never shared, so the
//! quantities that actually drive training are always compared.

use std::collections::BTreeMap;

use latte_core::dsl::Net;
use latte_core::{compile, CompileError, CompiledNet, OptLevel};
use latte_ir::BufferKind;
use latte_runtime::registry::KernelRegistry;
use latte_runtime::{ExecConfig, Executor, RuntimeError};

use crate::interp::Interpreter;

/// Element-comparison budget for the harness.
///
/// An element passes when `|a - b| <= abs` **or**
/// `|a - b| <= rel * max(|a|, |b|)`. The defaults absorb the
/// floating-point reassociation introduced by tiling, whole-batch GEMM
/// hoisting, and parallel reduction order, while still catching any
/// semantic change (a dropped term, a shifted index, a wrong extent)
/// by many orders of magnitude.
#[derive(Debug, Clone, Copy)]
pub struct Tolerance {
    /// Relative tolerance against `max(|a|, |b|)`.
    pub rel: f32,
    /// Absolute tolerance for values near zero.
    pub abs: f32,
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance { rel: 1e-4, abs: 1e-5 }
    }
}

impl Tolerance {
    fn ok(&self, a: f32, b: f32) -> bool {
        if a == b {
            return true;
        }
        if a.is_nan() || b.is_nan() {
            return false;
        }
        let diff = (a - b).abs();
        diff <= self.abs || diff <= self.rel * a.abs().max(b.abs())
    }
}

/// One diverging element: which configuration, where, and both values.
#[derive(Debug, Clone, PartialEq)]
pub struct Mismatch {
    /// Label of the subject's `OptLevel` configuration.
    pub config: String,
    /// Buffer name (`«loss»` for the scalar loss comparison).
    pub buffer: String,
    /// Flat index into the buffer's full storage.
    pub index: usize,
    /// The reference interpreter's value.
    pub oracle: f32,
    /// The optimized executor's value.
    pub subject: f32,
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] {}[{}]: oracle {} vs subject {} (diff {:e})",
            self.config,
            self.buffer,
            self.index,
            self.oracle,
            self.subject,
            (self.oracle - self.subject).abs()
        )
    }
}

/// Outcome of a differential run across one or more configurations.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Configuration labels that were executed.
    pub configs: Vec<String>,
    /// Total buffers compared across all configurations.
    pub buffers_compared: usize,
    /// Total elements compared across all configurations.
    pub elements_compared: usize,
    /// Every diverging element found.
    pub mismatches: Vec<Mismatch>,
}

impl DiffReport {
    /// Whether every compared element was within tolerance.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

impl std::fmt::Display for DiffReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "differential run over [{}]: {} buffers / {} elements compared, {} mismatches",
            self.configs.join(", "),
            self.buffers_compared,
            self.elements_compared,
            self.mismatches.len()
        )?;
        for m in self.mismatches.iter().take(16) {
            writeln!(f, "  {m}")?;
        }
        if self.mismatches.len() > 16 {
            writeln!(f, "  … and {} more", self.mismatches.len() - 16)?;
        }
        Ok(())
    }
}

/// Harness failure: the network failed to compile or a run failed outright
/// (as opposed to running and producing diverging values).
#[derive(Debug)]
pub enum DiffError {
    /// Compilation of the oracle or a subject configuration failed.
    Compile(CompileError),
    /// Lowering or execution failed.
    Runtime(RuntimeError),
}

impl std::fmt::Display for DiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffError::Compile(e) => write!(f, "compile error: {e}"),
            DiffError::Runtime(e) => write!(f, "runtime error: {e}"),
        }
    }
}

impl std::error::Error for DiffError {}

impl From<CompileError> for DiffError {
    fn from(e: CompileError) -> Self {
        DiffError::Compile(e)
    }
}

impl From<RuntimeError> for DiffError {
    fn from(e: RuntimeError) -> Self {
        DiffError::Runtime(e)
    }
}

/// The default opt-level matrix: each transformation in isolation,
/// meaningful pairings, and the full pipeline.
pub fn standard_configs() -> Vec<(String, OptLevel)> {
    vec![
        ("none".into(), OptLevel::none()),
        ("pattern-match".into(), OptLevel::none().with_pattern_match(true)),
        ("tiling".into(), OptLevel::none().with_tiling(true)),
        (
            "tiling+fusion".into(),
            OptLevel::none().with_tiling(true).with_fusion(true),
        ),
        ("parallel".into(), OptLevel::parallel_only().with_tiling(true)),
        ("vectorize".into(), OptLevel::none().with_vectorize(true)),
        ("full".into(), OptLevel::full()),
        ("full+tile4".into(), OptLevel::full().with_tile_size(4)),
        (
            "full+unshared".into(),
            OptLevel::full().with_shared_buffers(false),
        ),
    ]
}

/// Compiles `net` at [`OptLevel::none`], executes it with the reference
/// interpreter, and differentially tests every `(label, OptLevel)` in
/// `configs` against it.
///
/// `inputs` lists `(data ensemble name, batch-major values)` pairs fed
/// identically to the oracle and every subject before each run.
///
/// # Errors
///
/// Fails when compilation, lowering, or execution errors out; value
/// divergence is *not* an error — it is reported via
/// [`DiffReport::mismatches`].
pub fn diff_against_oracle(
    net: &Net,
    inputs: &[(String, Vec<f32>)],
    configs: &[(String, OptLevel)],
    tol: &Tolerance,
) -> Result<DiffReport, DiffError> {
    let oracle = run_oracle(net, inputs)?;
    let mut report = DiffReport::default();
    for (label, opt) in configs {
        let compiled = compile(net, opt)?;
        let threads = if opt.parallel { 4 } else { 1 };
        compare_subject(&oracle, label, compiled, threads, inputs, tol, &mut report)?;
    }
    Ok(report)
}

/// Differentially tests one *pre-compiled* subject against the oracle for
/// `net`. This is the entry point for harness self-tests that mutate the
/// compiled program (see `latte_core::opt::sabotage`) to prove a broken
/// pass is caught.
///
/// # Errors
///
/// See [`diff_against_oracle`].
pub fn diff_compiled(
    net: &Net,
    label: &str,
    subject: CompiledNet,
    inputs: &[(String, Vec<f32>)],
    tol: &Tolerance,
) -> Result<DiffReport, DiffError> {
    let oracle = run_oracle(net, inputs)?;
    let mut report = DiffReport::default();
    compare_subject(&oracle, label, subject, 1, inputs, tol, &mut report)?;
    Ok(report)
}

/// Compiles and runs the oracle: `OptLevel::none()` through the
/// interpreter, forward then backward.
fn run_oracle(net: &Net, inputs: &[(String, Vec<f32>)]) -> Result<Interpreter, DiffError> {
    let compiled = compile(net, &OptLevel::none())?;
    let mut interp = Interpreter::new(compiled)?;
    for (ensemble, data) in inputs {
        interp.set_input(ensemble, data)?;
    }
    interp.forward()?;
    interp.backward()?;
    Ok(interp)
}

/// Maps every buffer name to its storage-sharing class: the sorted set of
/// names whose declarations resolve to the same storage.
fn alias_classes(net: &CompiledNet) -> BTreeMap<String, Vec<String>> {
    let mut root: BTreeMap<String, String> = BTreeMap::new();
    for decl in &net.buffers {
        let r = match &decl.alias_of {
            None => decl.name.clone(),
            // Declaration order guarantees the target's root is known.
            Some(target) => root.get(target).cloned().unwrap_or_else(|| target.clone()),
        };
        root.insert(decl.name.clone(), r);
    }
    let mut classes: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (name, r) in &root {
        classes.entry(r.clone()).or_default().push(name.clone());
    }
    let mut by_name = BTreeMap::new();
    for members in classes.values() {
        for name in members {
            by_name.insert(name.clone(), members.clone());
        }
    }
    by_name
}

fn compare_subject(
    oracle: &Interpreter,
    label: &str,
    subject: CompiledNet,
    threads: usize,
    inputs: &[(String, Vec<f32>)],
    tol: &Tolerance,
    report: &mut DiffReport,
) -> Result<(), DiffError> {
    let subject_classes = alias_classes(&subject);
    let oracle_classes = alias_classes(oracle.compiled());
    let compared: Vec<String> = oracle
        .compiled()
        .buffers
        .iter()
        .filter(|d| {
            matches!(d.kind, BufferKind::Value | BufferKind::Grad | BufferKind::ParamGrad)
        })
        .map(|d| d.name.clone())
        .collect();

    let mut exec = Executor::with_registry(
        subject,
        &KernelRegistry::with_builtins(),
        ExecConfig {
            threads,
            ..ExecConfig::default()
        },
    )?;
    for (ensemble, data) in inputs {
        exec.set_input(ensemble, data)?;
    }
    exec.forward();
    exec.backward();

    report.configs.push(label.to_string());
    for name in compared {
        // A buffer whose storage-sharing class differs between oracle and
        // subject holds different values by design: it is not compared.
        match (oracle_classes.get(&name), subject_classes.get(&name)) {
            (Some(oc), Some(sc)) if oc == sc => {}
            _ => continue,
        }
        let a = oracle.read_buffer(&name)?;
        let b = exec.read_buffer(&name)?;
        if a.len() != b.len() {
            report.mismatches.push(Mismatch {
                config: label.to_string(),
                buffer: name.clone(),
                index: usize::MAX,
                oracle: a.len() as f32,
                subject: b.len() as f32,
            });
            continue;
        }
        report.buffers_compared += 1;
        report.elements_compared += a.len();
        for (i, (&x, &y)) in a.iter().zip(&b).enumerate() {
            if !tol.ok(x, y) {
                report.mismatches.push(Mismatch {
                    config: label.to_string(),
                    buffer: name.clone(),
                    index: i,
                    oracle: x,
                    subject: y,
                });
            }
        }
    }
    let (lo, ls) = (oracle.loss(), exec.loss());
    report.elements_compared += 1;
    if !tol.ok(lo, ls) {
        report.mismatches.push(Mismatch {
            config: label.to_string(),
            buffer: "«loss»".into(),
            index: 0,
            oracle: lo,
            subject: ls,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_accepts_equal_and_rejects_nan() {
        let tol = Tolerance::default();
        assert!(tol.ok(1.0, 1.0));
        assert!(tol.ok(0.0, 1e-6));
        assert!(!tol.ok(f32::NAN, 1.0));
        assert!(!tol.ok(1.0, 2.0));
    }

    #[test]
    fn standard_matrix_has_at_least_six_configs() {
        let configs = standard_configs();
        assert!(configs.len() >= 6, "matrix shrank to {}", configs.len());
        let labels: std::collections::BTreeSet<_> = configs.iter().map(|(l, _)| l.clone()).collect();
        assert_eq!(labels.len(), configs.len(), "duplicate config labels");
    }
}
