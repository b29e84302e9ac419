//! Golden-IR snapshots: the compiled program text for two small
//! reference nets, at the two extreme optimization levels, checked into
//! `tests/golden/` and diffed on every CI run — and, one stage further
//! down, the *lowered kernel program* the runtime executes for the conv
//! net and for one LSTM step at full optimization (`*.kernels.txt`: what
//! `latte-explain --kernels` prints).
//!
//! A pipeline refactor that accidentally changes *what* the compiler
//! emits — reordered groups, lost annotations, different loop structure —
//! shows up here as a readable text diff even when it computes the same
//! numbers. Regenerate deliberately with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_ir
//! ```

use latte::core::dsl::Net;
use latte::core::{compile, render_program, CompiledNet, OptLevel};
use latte::nn::layers::{
    convolution, data, fully_connected, max_pool, relu, softmax_loss, ConvSpec,
};
use latte::runtime::registry::KernelRegistry;
use latte::runtime::{CompiledProgram, ExecConfig};

/// data[6] → fc4 → relu → fc3 → softmax loss, batch 2.
fn mlp_ref() -> Net {
    let mut net = Net::new(2);
    let x = data(&mut net, "data", vec![6]);
    let fc1 = fully_connected(&mut net, "fc1", x, 4, 21);
    let a1 = relu(&mut net, "a1", fc1);
    let head = fully_connected(&mut net, "head", a1, 3, 22);
    let label = data(&mut net, "label", vec![1]);
    softmax_loss(&mut net, "loss", head, label);
    net
}

/// data[4,4,1] → conv(2 filters, k3) → relu → pool(2,2) → fc3 → softmax
/// loss, batch 2 — exercises staging copies, fusion, and tiling.
fn conv_ref() -> Net {
    let mut net = Net::new(2);
    let x = data(&mut net, "data", vec![4, 4, 1]);
    let conv = convolution(&mut net, "conv", x, ConvSpec::same(2, 3), 23);
    let act = relu(&mut net, "act", conv);
    let pool = max_pool(&mut net, "pool", act, 2, 2);
    let head = fully_connected(&mut net, "head", pool, 3, 24);
    let label = data(&mut net, "label", vec![1]);
    softmax_loss(&mut net, "loss", head, label);
    net
}

/// One LSTM step (input 4, hidden 3) with a 2-way head, batch 2: the
/// gate nonlinearities and their derivatives are the element programs
/// with something to schedule (`g * (1 - v*v)`, `g * (v * (1 - v))`).
fn lstm_step_ref() -> Net {
    let mut step = Net::new(2);
    let x = data(&mut step, "x", vec![4]);
    latte::nn::rnn::lstm(&mut step, "lstm", x, 3, 1);
    let mut net = step.unroll(1);
    let last = net.find("lstm_h@t0").expect("the unrolled step has an output");
    let head = fully_connected(&mut net, "head", last, 2, 5);
    let label = data(&mut net, "label", vec![1]);
    softmax_loss(&mut net, "loss", head, label);
    net
}

/// The lowered kernel program, as `latte-explain --kernels` prints it.
fn render_kernels(net: &CompiledNet) -> String {
    let cfg = ExecConfig {
        threads: 1,
        arena: false,
        gemm_blocking: None,
    };
    CompiledProgram::lower(net.clone(), &KernelRegistry::with_builtins(), cfg)
        .expect("reference net lowers")
        .plan()
        .to_string()
}

/// What `LATTE_DUMP_IR` writes: buffer table, then both phases.
fn render(net: &CompiledNet) -> String {
    render_program(&net.buffers, &net.forward, &net.backward)
}

fn check(name: &str, net: &Net, opt: &OptLevel) {
    check_rendered(name, net, opt, render);
}

fn check_rendered(name: &str, net: &Net, opt: &OptLevel, render: fn(&CompiledNet) -> String) {
    let compiled = compile(net, opt).expect("reference net compiles");
    let actual = render(&compiled);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {}: {e}\n\
             regenerate with UPDATE_GOLDEN=1 cargo test --test golden_ir",
            path.display()
        )
    });
    if expected != actual {
        // Pin the first diverging line so CI logs are readable without
        // downloading artifacts.
        let line = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .map(|i| i + 1)
            .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()) + 1);
        panic!(
            "golden IR mismatch for `{name}` (first difference at line {line}).\n\
             If the change is intentional, regenerate with:\n\
             UPDATE_GOLDEN=1 cargo test --test golden_ir\n\
             and commit the updated snapshot.\n\
             --- expected: {}\n+++ actual (truncated to 40 lines around the diff) ---\n{}",
            path.display(),
            actual
                .lines()
                .skip(line.saturating_sub(20))
                .take(40)
                .collect::<Vec<_>>()
                .join("\n"),
        );
    }
}

#[test]
fn mlp_none_matches_golden() {
    check("mlp-none", &mlp_ref(), &OptLevel::none());
}

#[test]
fn mlp_full_matches_golden() {
    check("mlp-full", &mlp_ref(), &OptLevel::full());
}

#[test]
fn conv_none_matches_golden() {
    check("conv-none", &conv_ref(), &OptLevel::none());
}

#[test]
fn conv_full_matches_golden() {
    check("conv-full", &conv_ref(), &OptLevel::full());
}

#[test]
fn conv_full_kernels_match_golden() {
    check_rendered("conv-full.kernels", &conv_ref(), &OptLevel::full(), render_kernels);
}

#[test]
fn lstm_step_full_kernels_match_golden() {
    check_rendered("lstm-step-full.kernels", &lstm_step_ref(), &OptLevel::full(), render_kernels);
}
