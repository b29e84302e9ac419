//! The serving contract: batching is a scheduling decision, never a
//! numerics decision. A sample served in ANY micro-batch — any size
//! 1..=8, plan-cache miss or hit path — returns `head.value` bits
//! identical to the same sample run alone through a plain batch-1
//! `Executor::forward`, for every net in the oracle five-net suite.

mod common;

use std::sync::Arc;
use std::time::Duration;

use latte_runtime::{ExecConfig, Executor};
use latte_serve::{NoHooks, PlanCache, Request, ServeConfig, Server};
use proptest::prelude::*;

/// The case count, overridable by CI (`PROPTEST_CASES=16` for deeper
/// nightly sweeps).
fn proptest_cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn serve_cfg() -> ServeConfig {
    ServeConfig {
        max_batch: 8,
        // Effectively "never": every flush in this test is size-driven
        // or an explicit drain, so batch composition is deterministic.
        max_delay: Duration::from_secs(3600),
        queue_cap: 256,
        replicas: 1,
        threads: 1,
        retry_limit: 1,
    }
}

/// A batch-1 reference executor for one net, reused across samples.
struct Reference {
    exec: Executor,
}

impl Reference {
    fn new(net_name: &str) -> Self {
        let net = common::factory(net_name)(1);
        let compiled =
            latte_core::compile(&net, &latte_core::OptLevel::full()).expect("reference compile");
        Reference {
            exec: Executor::new(compiled).expect("reference executor"),
        }
    }

    fn head(&mut self, req: &Request) -> Vec<f32> {
        for (ensemble, values) in &req.inputs {
            self.exec
                .set_input(ensemble, values)
                .expect("reference input");
        }
        self.exec.forward();
        self.exec
            .read_item("head.value", 0)
            .expect("reference output")
    }
}

/// Serves `size` samples as one micro-batch and checks each response
/// bit-for-bit against the reference, plus the expected cache path.
fn check_batch(
    server: &Server,
    reference: &mut Reference,
    net_name: &str,
    size: usize,
    seed: u64,
    expect_hit: bool,
) -> Result<(), TestCaseError> {
    let reqs: Vec<Request> = (0..size)
        .map(|i| {
            common::sample(
                net_name,
                seed.wrapping_mul(8191).wrapping_add((size * 16 + i) as u64),
            )
        })
        .collect();
    let tickets: Vec<_> = reqs
        .iter()
        .map(|r| server.submit(r.clone()).expect("submit"))
        .collect();
    server.flush();
    for (req, ticket) in reqs.iter().zip(tickets) {
        let resp = ticket
            .wait_timeout(Duration::from_secs(60))
            .map_err(|e| TestCaseError::Fail(format!("{net_name}@{size}: {e}")))?;
        prop_assert_eq!(resp.meta.batch_size, size, "{}@{}", net_name, size);
        prop_assert_eq!(
            resp.meta.cache_hit,
            expect_hit,
            "{}@{}: wrong cache path",
            net_name,
            size
        );
        let expected = reference.head(req);
        let (out_name, got) = &resp.outputs[0];
        prop_assert_eq!(out_name.as_str(), "head.value");
        prop_assert_eq!(got.len(), expected.len());
        for (j, (g, e)) in got.iter().zip(&expected).enumerate() {
            prop_assert_eq!(
                g.to_bits(),
                e.to_bits(),
                "{}@{} head[{}]: served {} vs solo {}",
                net_name,
                size,
                j,
                g,
                e
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases(2)))]

    #[test]
    fn any_micro_batch_is_bit_identical_to_solo_execution(seed in 0u64..1_000_000) {
        for net_name in common::NETS {
            let mut reference = Reference::new(net_name);
            let cache = Arc::new(PlanCache::new(ExecConfig { threads: 1, ..ExecConfig::default() }));

            // Miss path: a fresh cache, so each size lowers its plan.
            let server = Server::start_with(
                Arc::new(common::model(net_name)),
                serve_cfg(),
                Arc::clone(&cache),
                Arc::new(NoHooks),
            );
            for size in 1..=8usize {
                check_batch(&server, &mut reference, net_name, size, seed, false)?;
            }
            drop(server);

            // Hit path: a second server sharing the cache instantiates
            // warm executors from already-lowered plans — no recompiles.
            let misses_after_warmup = cache.misses();
            let server = Server::start_with(
                Arc::new(common::model(net_name)),
                serve_cfg(),
                Arc::clone(&cache),
                Arc::new(NoHooks),
            );
            for size in 1..=8usize {
                check_batch(&server, &mut reference, net_name, size, seed ^ 0x5a5a, true)?;
            }
            prop_assert_eq!(
                cache.misses(),
                misses_after_warmup,
                "{}: hit path recompiled",
                net_name
            );
        }
    }
}
