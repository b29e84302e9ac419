//! The differential matrix: every standard `OptLevel` configuration ×
//! every representative network shape, all against the reference
//! interpreter — plus negative controls proving the harness *catches*
//! a miscompiled program.

mod common;

use latte_core::opt::sabotage;
use latte_core::{compile, OptLevel};
use latte_oracle::{diff_against_oracle, diff_compiled, standard_configs, Tolerance};

use common::{classifier_net, conv_net, fc_net, fusion_chain, lstm_net, TestNet};

fn assert_clean(name: &str, t: &TestNet) {
    let configs = standard_configs();
    assert!(configs.len() >= 6);
    let report = diff_against_oracle(&t.net, &t.inputs, &configs, &Tolerance::default())
        .unwrap_or_else(|e| panic!("{name}: harness failed: {e}"));
    assert!(
        report.buffers_compared > 0,
        "{name}: nothing was compared — the harness is vacuous"
    );
    assert!(report.is_clean(), "{name}:\n{report}");
}

#[test]
fn fc_matches_oracle_under_all_configs() {
    assert_clean("fc", &fc_net());
}

#[test]
fn conv_matches_oracle_under_all_configs() {
    assert_clean("conv", &conv_net());
}

#[test]
fn fusion_chain_matches_oracle_under_all_configs() {
    assert_clean("fusion-chain", &fusion_chain());
}

#[test]
fn classifier_matches_oracle_under_all_configs() {
    assert_clean("classifier", &classifier_net());
}

#[test]
fn lstm_matches_oracle_under_all_configs() {
    assert_clean("lstm", &lstm_net(2));
}

/// A GEMM whose reduction depth was corrupted (simulating a bad
/// pattern-match rewrite) must produce mismatch reports.
#[test]
fn sabotaged_gemm_is_caught() {
    let t = fc_net();
    let mut compiled = compile(&t.net, &OptLevel::full()).unwrap();
    assert!(
        sabotage::shrink_gemm_reduction(&mut compiled.forward),
        "expected a matched GEMM to sabotage"
    );
    let report = diff_compiled(
        &t.net,
        "sabotaged-gemm",
        compiled,
        &t.inputs,
        &Tolerance::default(),
    )
    .unwrap();
    assert!(
        !report.is_clean(),
        "harness failed to catch a corrupted GEMM reduction"
    );
    let m = &report.mismatches[0];
    assert_eq!(m.config, "sabotaged-gemm");
    assert!(!m.buffer.is_empty());
}

/// A tiled loop whose trip count was corrupted (simulating an off-by-one
/// in the tiling pass) must produce mismatch reports.
#[test]
fn sabotaged_tiling_is_caught() {
    let t = fusion_chain();
    let opt = OptLevel::none().with_tiling(true).with_fusion(true);
    let mut compiled = compile(&t.net, &opt).unwrap();
    let mutated = sabotage::shrink_first_tiled_loop(&mut compiled.forward)
        || sabotage::shrink_first_loop(&mut compiled.forward);
    assert!(mutated, "expected a loop to sabotage");
    let report = diff_compiled(
        &t.net,
        "sabotaged-tiling",
        compiled,
        &t.inputs,
        &Tolerance::default(),
    )
    .unwrap();
    assert!(
        !report.is_clean(),
        "harness failed to catch a corrupted loop extent"
    );
}

/// The backward pass is covered too: corrupting only backward groups
/// leaves forward values identical and must still be caught via
/// gradient buffers.
#[test]
fn sabotaged_backward_is_caught() {
    let t = classifier_net();
    let mut compiled = compile(&t.net, &OptLevel::full()).unwrap();
    let mutated = sabotage::shrink_gemm_reduction(&mut compiled.backward)
        || sabotage::shrink_first_loop(&mut compiled.backward);
    assert!(mutated, "expected a backward statement to sabotage");
    let report = diff_compiled(
        &t.net,
        "sabotaged-backward",
        compiled,
        &t.inputs,
        &Tolerance::default(),
    )
    .unwrap();
    assert!(
        !report.is_clean(),
        "harness failed to catch a corrupted backward pass"
    );
    assert!(
        report.mismatches.iter().all(|m| m.buffer != "«loss»"),
        "forward loss should be untouched by a backward-only sabotage"
    );
}
