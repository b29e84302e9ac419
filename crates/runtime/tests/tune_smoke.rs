//! Autotuner smoke tests: cold tune → warm reuse with **zero**
//! re-measurements (counter-asserted), cache
//! round-trip through a fresh tuner, and corrupt-cache rejection.

use latte_core::OptLevel;
use latte_nn::models::{mlp, ModelConfig};
use latte_runtime::tune::{TuneError, Tuner};

fn tmp_cache(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("latte_tune_{tag}_{}.cache", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn small_model() -> latte_nn::models::Model {
    let cfg = ModelConfig {
        batch: 2,
        input_size: 24,
        ..ModelConfig::default()
    };
    mlp(&cfg, &[16, 8])
}

#[test]
fn cold_tune_measures_then_warm_reuse_measures_nothing() {
    let path = tmp_cache("warm");
    let model = small_model();
    let opt = OptLevel::full();

    // Cold: a measurement campaign runs and the winner is persisted.
    let mut tuner = Tuner::with_path(&path, 1).expect("open empty cache");
    assert!(tuner.is_empty());
    let (cold_schedule, cold_net) = tuner.tune_net(&model.net, &opt).expect("cold tune");
    let cold = tuner.stats();
    assert_eq!(cold.cache_misses, 1);
    assert_eq!(cold.cache_hits, 0);
    assert!(cold.measurements > 0, "a cold tune must measure candidates");
    assert_eq!(tuner.len(), 1);
    assert!(path.exists(), "winner must be persisted");

    // Warm, same tuner: answered from memory, counter flat.
    let (warm_schedule, _) = tuner.tune_net(&model.net, &opt).expect("warm tune");
    let warm = tuner.stats();
    assert_eq!(warm.cache_hits, 1);
    assert_eq!(warm.cache_misses, 1);
    assert_eq!(
        warm.measurements, cold.measurements,
        "a cache hit must perform zero re-measurements"
    );
    assert_eq!(warm_schedule, cold_schedule);

    // Warm, fresh tuner on the same file (a new process): still zero
    // measurements, and the replayed schedule compiles to the same
    // program.
    let mut fresh = Tuner::with_path(&path, 1).expect("reopen cache");
    assert_eq!(fresh.len(), 1);
    let (replayed, replayed_net) = fresh.tune_net(&model.net, &opt).expect("replay tune");
    let stats = fresh.stats();
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 0);
    assert_eq!(stats.measurements, 0, "on-disk replay must not measure");
    assert_eq!(replayed, cold_schedule);
    assert_eq!(replayed_net.fingerprint(), cold_net.fingerprint());

    let _ = std::fs::remove_file(&path);
}

#[test]
fn tuned_executor_is_bit_identical_to_default() {
    let path = tmp_cache("bits");
    let model = small_model();
    let opt = OptLevel::full();
    let mut tuner = Tuner::with_path(&path, 1).expect("open cache");
    let (schedule, tuned_net) = tuner.tune_net(&model.net, &opt).expect("tune");

    let input: Vec<f32> = (0..2 * 24)
        .map(|i| ((i as u32).wrapping_mul(2654435761) % 1000) as f32 / 500.0 - 1.0)
        .collect();
    let labels = [0.0f32, 1.0];

    let mut tuned = tuner.executor_for(tuned_net, &schedule).expect("tuned executor");
    tuned.set_input("data", &input).expect("data");
    tuned.set_input("label", &labels).expect("label");
    tuned.forward();
    tuned.backward();

    let default_net = latte_core::compile(&model.net, &opt).expect("compile");
    let mut default = latte_runtime::Executor::new(default_net).expect("default executor");
    default.set_input("data", &input).expect("data");
    default.set_input("label", &labels).expect("label");
    default.forward();
    default.backward();

    for buf in ["ip1.value", "ip_out.value", "ip1.g_weights"] {
        let a = tuned.read_buffer(buf).expect("tuned read");
        let b = default.read_buffer(buf).expect("default read");
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{buf}[{i}]");
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn gemm_tuning_caches_per_shape() {
    let path = tmp_cache("gemm");
    let mut tuner = Tuner::with_path(&path, 1).expect("open cache");
    let b1 = tuner.tune_gemm(64, 64, 64).expect("cold gemm tune");
    let cold = tuner.stats();
    assert_eq!(cold.cache_misses, 1);
    assert!(cold.measurements > 0);
    // kc is pinned to the default: tuning never reassociates the k-sum.
    assert_eq!(b1.0, 256);

    let b2 = tuner.tune_gemm(64, 64, 64).expect("warm gemm tune");
    assert_eq!(b1, b2);
    let warm = tuner.stats();
    assert_eq!(warm.cache_hits, 1);
    assert_eq!(warm.measurements, cold.measurements, "warm hit measures nothing");

    // A different shape is a different key.
    let _ = tuner.tune_gemm(32, 96, 16).expect("second shape");
    assert_eq!(tuner.stats().cache_misses, 2);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupt_cache_file_is_rejected() {
    let path = tmp_cache("corrupt");
    let model = small_model();
    let mut tuner = Tuner::with_path(&path, 1).expect("open cache");
    tuner.tune_net(&model.net, &OptLevel::full()).expect("tune");
    drop(tuner);

    // Flip a byte in the persisted file: reopening must refuse, not
    // silently start over with an empty cache.
    let mut bytes = std::fs::read(&path).expect("read cache");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).expect("write corrupted");
    match Tuner::with_path(&path, 1) {
        Err(TuneError::Corrupt { .. }) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }

    // Garbage from byte 0 is rejected too.
    std::fs::write(&path, b"not a tuning cache").expect("write garbage");
    assert!(matches!(Tuner::with_path(&path, 1), Err(TuneError::Corrupt { .. })));
    let _ = std::fs::remove_file(&path);
}
