//! Plan-cache behavior: fingerprints are batch-invariant, tail batches
//! reuse cached plans (nothing built after warmup — the hit counter is
//! asserted, not assumed), and a model's factory is called, and its
//! program lowered, exactly once however many micro-batch sizes it serves.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use latte_core::OptLevel;
use latte_nn::layers::{data, fully_connected, softmax_loss};
use latte_runtime::ExecConfig;
use latte_serve::{BatchEngine, Model, NoHooks, PlanCache, ServeConfig, Server};

const NEVER: Duration = Duration::from_secs(3600);

#[test]
fn fingerprints_are_batch_invariant_and_distinguish_nets() {
    for name in common::NETS {
        let at = |batch: usize| {
            latte_core::compile(&common::factory(name)(batch), &OptLevel::full())
                .expect("compile")
                .fingerprint()
        };
        assert_eq!(at(2), at(5), "{name}: fingerprint must not depend on batch");
    }
    let fingerprints: Vec<u64> = common::NETS
        .iter()
        .map(|n| common::model(n).fingerprint())
        .collect();
    for i in 0..fingerprints.len() {
        for j in i + 1..fingerprints.len() {
            assert_ne!(
                fingerprints[i], fingerprints[j],
                "{} and {} collide",
                common::NETS[i],
                common::NETS[j]
            );
        }
    }
}

#[test]
fn tail_batches_never_recompile_after_warmup() {
    let cache = Arc::new(PlanCache::new(ExecConfig {
        threads: 1,
        arena: false,
        gemm_blocking: None,
    }));
    let server = Server::start_with(
        Arc::new(common::model("classifier")),
        ServeConfig {
            max_batch: 4,
            max_delay: NEVER,
            ..ServeConfig::default()
        },
        Arc::clone(&cache),
        Arc::new(NoHooks),
    );

    // Batch sizes 4,3,4,3,4: two distinct sizes, five batches.
    let sizes = [4usize, 3, 4, 3, 4];
    let mut seed = 0u64;
    let mut first_seen = std::collections::HashSet::new();
    for (round, &size) in sizes.iter().enumerate() {
        let tickets: Vec<_> = (0..size)
            .map(|_| {
                seed += 1;
                server.submit(common::sample("classifier", seed)).expect("submit")
            })
            .collect();
        server.flush(); // no-op for full batches (already size-flushed)
        let expect_hit = !first_seen.insert(size);
        for t in tickets {
            let resp = t.wait_timeout(Duration::from_secs(30)).expect("response");
            assert_eq!(resp.meta.batch_size, size, "round {round}");
            assert_eq!(
                resp.meta.cache_hit, expect_hit,
                "round {round} size {size}: wrong cache path"
            );
        }
    }

    // Two misses (first size-4 and first size-3 batch), hits for the
    // other three batches, and — the serving guarantee — zero
    // recompiles after warmup.
    assert_eq!(cache.misses(), 2);
    assert_eq!(cache.hits(), 3);
    assert_eq!(cache.len(), 2);
    let warm_misses = cache.misses();
    let tickets: Vec<_> = (0..4)
        .map(|i| server.submit(common::sample("classifier", 1000 + i)).expect("submit"))
        .collect();
    for t in tickets {
        assert!(t.wait_timeout(Duration::from_secs(30)).expect("response").meta.cache_hit);
    }
    assert_eq!(cache.misses(), warm_misses, "recompile after warmup");
}

#[test]
fn a_model_calls_its_factory_once_for_all_eight_sizes() {
    let calls = Arc::new(AtomicUsize::new(0));
    let seen = Arc::clone(&calls);
    let model = Model::new(
        "counted",
        Box::new(move |batch| {
            seen.fetch_add(1, Ordering::SeqCst);
            let mut net = latte_core::dsl::Net::new(batch);
            let x = data(&mut net, "data", vec![4]);
            let head = fully_connected(&mut net, "head", x, 3, 5);
            let label = data(&mut net, "label", vec![1]);
            softmax_loss(&mut net, "loss", head, label);
            net
        }),
        OptLevel::full(),
        vec!["head.value".to_string()],
    )
    .expect("registration compiles");
    let cache = PlanCache::new(ExecConfig {
        threads: 1,
        arena: false,
        gemm_blocking: None,
    });
    let mut programs = Vec::new();
    for batch in 1..=8 {
        let (program, hit) = cache.get(&model, batch).expect("warm-up lowers");
        assert!(!hit, "batch {batch} was not cached yet");
        assert_eq!(program.batch(), batch);
        programs.push(program);
    }
    for batch in 1..=8 {
        assert!(cache.get(&model, batch).expect("warm lookup").1, "batch {batch} is cached");
    }
    // One net built, one compile (inside `Model::new`) and one lowering
    // for eight sizes; the cache's own books are what they were.
    assert_eq!(calls.load(Ordering::SeqCst), 1);
    for program in &programs {
        assert!(std::ptr::eq(program.plan(), programs[0].plan()), "one plan for every size");
    }
    assert_eq!(cache.misses(), 8);
    assert_eq!(cache.hits(), 8);
    assert_eq!(cache.len(), 8);
}

/// An empty micro-batch is refused, before and after its model is
/// resident, and the cache neither inserts nor counts it.
#[test]
fn an_empty_batch_is_refused_and_cached_nowhere() {
    let cache = Arc::new(PlanCache::new(ExecConfig { threads: 1, arena: false, gemm_blocking: None }));
    let mut engine = BatchEngine::new(Arc::new(common::model("classifier")), Arc::clone(&cache), 1);
    assert!(engine.run(&[]).is_err(), "a batch of no items must not run");
    assert_eq!((cache.len(), cache.misses()), (0, 0));
    engine.run(&[common::sample("classifier", 1).inputs]).expect("one item runs");
    assert!(engine.run(&[]).is_err(), "nor once the model is resident");
    assert_eq!((cache.len(), cache.misses()), (1, 1));
}

/// The serve half of `executor_correctness.rs::lowering_refuses_the_retired_arena_flag`:
/// a cache configured with the retired flag lowers nothing and says why.
#[test]
fn a_cache_surfaces_the_refused_arena_flag_as_a_compile_error() {
    let arena = true;
    let cache = PlanCache::new(ExecConfig { threads: 1, arena, gemm_blocking: None });
    match cache.get(&common::model("classifier"), 1) {
        Err(latte_serve::ServeError::Compile { detail }) => assert!(detail.contains("arena"), "{detail}"),
        other => panic!("expected a compile error, got {other:?}"),
    }
    assert_eq!((cache.misses(), cache.len()), (0, 0));
}
