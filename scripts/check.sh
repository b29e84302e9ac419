#!/usr/bin/env bash
# The full local gate, mirroring .github/workflows/ci.yml.
# All dependencies are vendored; the build never touches the network.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

echo "==> cargo fmt --all --check (every workspace member, vendor/ included)"
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --release

echo "==> benchmark/ builds against the crates' public API (its own workspace: a change to ExecConfig, CompiledProgram::lower or Solver breaks it, and only the last step below runs it)"
cargo build --release --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo test -q (tier-1, includes fault-injection end-to-end)"
cargo test -q

echo "==> cargo test --workspace -q (serving suite, oracle fast subset and golden-IR snapshots included)"
cargo test --workspace -q
# Regenerate deliberately with UPDATE_GOLDEN=1 cargo test --test golden_ir.
git diff --exit-code -- tests/golden/ || {
  echo "tests/golden/ has uncommitted changes" >&2
  exit 1
}

echo "==> cargo test --workspace -q with LATTE_THREADS=4 (persistent worker pool)"
LATTE_THREADS=4 cargo test --workspace -q

echo "==> distributed training over loopback TCP (4 real processes)"
cargo test --release --test distributed -q

echo "==> serving over loopback TCP (framed protocol, adversaries, SIGTERM drain; incl. chaos soak)"
LATTE_FAULT_SWEEP=1 cargo test --release -p latte-serve --test net_loopback -q

echo "==> GEMM bit oracle (every kernel the host can run, AVX and portable, to_bits() against gemm_naive; prints one line per kernel)"
cargo test -p latte-tensor --lib gemm::tests::every_kernel_matches_the_naive_loop_bit_for_bit -- --exact --nocapture

echo "==> crc32 throughput gate (table-driven kernel >= 5x the bitwise reference on 1 MiB, paired in one process)"
cargo test --release -p latte-runtime --lib frame::tests::crc32_beats_the_bitwise_reference_fivefold -- --exact --nocapture

echo "==> element-program gate (strip program >= 5x the per-element tree walk on g*(1-v*v) at n=64; dest += x*y within 1.25x of a plain slice loop at 4096 and 64x64; paired in one process)"
cargo test --release -p latte-runtime --lib elem::tests::strip_programs_beat_the_tree_walk_and_keep_up_with_a_slice_loop -- --exact --nocapture

echo "==> pooling gate (2x2 max-pool <= 3.5x and its gradient <= 5x a hand-written loop over 8x16x16 outputs, the outputs as the lanes; paired in one process)"
cargo test --release -p latte-runtime --lib elem::tests::pooling_runs_its_outputs_at_vector_width -- --exact --nocapture

echo "==> narrow GEMM gate (register-row AVX kernel >= 1.8x a hand-written unfused row loop on NT 128x32x144 and >= 3x on 112x5x25, its C bit-identical to gemm_naive; alternating rounds in one process; skipped without AVX2+FMA)"
cargo test --release -p latte-tensor --lib gemm::tests::narrow_kernel_beats_the_portable_loop -- --exact --nocapture

echo "==> replica memory gate (one BatchEngine through micro-batches 1..=8 of LeNet keeps <= 1.1x the bytes of one executor at 8; replies bit-identical to solo batch-1 runs over a stale tail)"
cargo test --release -p latte-serve --test replica_memory -- --nocapture

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> reachability census (every pub item under crates/*/src has a caller outside its own file's tests)"
python3 scripts/census.py
echo "==> field census (every pub field of a pub struct is read outside its own file's tests)"
python3 scripts/census.py --fields
echo "==> variant census (every variant of a pub enum is constructed outside its own file's tests)"
python3 scripts/census.py --variants
echo "==> informational: pub items only test code reaches, variants only tests or a From impl construct (never fails the gate)"
python3 scripts/census.py --tests-only || true
python3 scripts/census.py --variants --tests-only || true

echo "==> cargo doc --workspace --no-deps with RUSTDOCFLAGS=-D warnings (dangling intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> examples smoke run (release)"
for ex in examples/*.rs; do
  name="$(basename "$ex" .rs)"
  echo "   -> $name"
  cargo run --release --quiet --example "$name" >/dev/null
done
echo "==> latte-explain prints every net's lowered plan (plain and --kernels)"
for net in convblock mlp lenet lstm vgg; do
  echo "   -> $net"
  cargo run --release --quiet --bin latte-explain -- "$net" >/dev/null
  cargo run --release --quiet --bin latte-explain -- "$net" --kernels >/dev/null
done

echo "==> repo benchmark smoke (all six workloads, tiny windows, every gate on)"
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --smoke

echo "All checks passed."
