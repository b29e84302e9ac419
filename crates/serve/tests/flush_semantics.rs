//! Deadline/flush policy and backpressure semantics.
//!
//! Assertions are structural (flush reasons, counters, structured
//! errors) — never on wall-clock durations, so the suite is stable on
//! loaded CI machines.

mod common;

use std::sync::Arc;
use std::time::Duration;

use latte_runtime::ExecConfig;
use latte_serve::{FlushReason, GateHooks, PlanCache, ServeConfig, ServeError, Server};

/// A deadline long enough that it never fires accidentally in tests
/// that only exercise size/drain flushes.
const NEVER: Duration = Duration::from_secs(3600);

#[test]
fn deadline_flush_releases_a_lone_straggler() {
    let server = Server::start(
        common::model("fc"),
        ServeConfig {
            max_batch: 8,
            max_delay: Duration::from_millis(20),
            ..ServeConfig::default()
        },
    );
    let ticket = server.submit(common::sample("fc", 1)).expect("submit");
    let resp = ticket
        .wait_timeout(Duration::from_secs(30))
        .expect("response");
    // One request can never fill max_batch=8: only the deadline (not a
    // size flush, not an explicit drain) can have released it.
    assert_eq!(resp.meta.flush, FlushReason::Deadline);
    assert_eq!(resp.meta.batch_size, 1);
    let stats = server.stats();
    assert_eq!(stats.flush_deadline, 1);
    assert_eq!(stats.flush_size, 0);
    assert_eq!(stats.completed, 1);
}

#[test]
fn size_flush_fires_before_the_deadline_under_a_burst() {
    let server = Server::start(
        common::model("fc"),
        ServeConfig {
            max_batch: 4,
            max_delay: NEVER,
            ..ServeConfig::default()
        },
    );
    let tickets: Vec<_> = (0..4)
        .map(|i| {
            server
                .submit(common::sample("fc", 100 + i))
                .expect("submit")
        })
        .collect();
    // No flush() call and an unreachable deadline: if the size trigger
    // were broken these waits would time out.
    for t in tickets {
        let resp = t.wait_timeout(Duration::from_secs(30)).expect("response");
        assert_eq!(resp.meta.flush, FlushReason::Size);
        assert_eq!(resp.meta.batch_size, 4);
    }
    let stats = server.stats();
    assert_eq!(stats.flush_size, 1);
    assert_eq!(stats.flush_deadline, 0);
}

#[test]
fn manual_flush_drains_a_partial_batch() {
    let server = Server::start(
        common::model("fc"),
        ServeConfig {
            max_batch: 8,
            max_delay: NEVER,
            ..ServeConfig::default()
        },
    );
    let a = server.submit(common::sample("fc", 7)).expect("submit");
    let b = server.submit(common::sample("fc", 8)).expect("submit");
    server.flush();
    for t in [a, b] {
        let resp = t.wait_timeout(Duration::from_secs(30)).expect("response");
        assert_eq!(resp.meta.flush, FlushReason::Drain);
        assert_eq!(resp.meta.batch_size, 2);
    }
    assert_eq!(server.stats().flush_drain, 1);
}

#[test]
fn slow_client_backpressure_bounds_the_queue() {
    // A closed gate wedges the replica, modeling a consumer that stops
    // draining: admitted work piles up against the admission cap.
    let gate = Arc::new(GateHooks::new());
    let cap = 4;
    let server = Server::start_with(
        Arc::new(common::model("fc")),
        ServeConfig {
            max_batch: 1, // every submit becomes a job immediately
            max_delay: NEVER,
            queue_cap: cap,
            replicas: 1,
            threads: 1,
            retry_limit: 1,
        },
        Arc::new(PlanCache::new(ExecConfig {
            threads: 1,
            ..ExecConfig::default()
        })),
        Arc::clone(&gate) as Arc<dyn latte_serve::ReplicaHooks>,
    );

    let tickets: Vec<_> = (0..cap)
        .map(|i| {
            server
                .submit(common::sample("fc", 200 + i as u64))
                .expect("admit")
        })
        .collect();

    // The cap-plus-first submit is refused with structured overload —
    // no unbounded queue, no panic — and depth never exceeded the cap.
    let err = server
        .submit(common::sample("fc", 999))
        .expect_err("over cap");
    assert_eq!(
        err,
        ServeError::Overloaded {
            depth: cap,
            capacity: cap
        }
    );
    assert_eq!(server.stats().rejected, 1);
    assert_eq!(server.stats().max_depth, cap);

    // Releasing the gate drains everything that was admitted...
    gate.open();
    for t in tickets {
        t.wait_timeout(Duration::from_secs(30))
            .expect("drained response");
    }
    // ...and the server accepts new work again.
    let t = server
        .submit(common::sample("fc", 1000))
        .expect("admitted again");
    t.wait_timeout(Duration::from_secs(30))
        .expect("post-overload response");
    let stats = server.stats();
    assert_eq!(stats.completed, cap as u64 + 1);
    assert_eq!(stats.rejected, 1);
}

#[test]
fn bad_requests_are_rejected_before_admission() {
    let server = Server::start(common::model("fc"), ServeConfig::default());
    // Missing label.
    let mut req = common::sample("fc", 3);
    req.inputs.retain(|(n, _)| n != "label");
    assert!(matches!(
        server.submit(req),
        Err(ServeError::BadRequest { .. })
    ));
    // Wrong per-item length.
    let mut req = common::sample("fc", 3);
    req.inputs[0].1.push(0.0);
    assert!(matches!(
        server.submit(req),
        Err(ServeError::BadRequest { .. })
    ));
    // Rejection happens before admission: nothing was admitted.
    assert_eq!(server.stats().submitted, 0);
    assert_eq!(server.stats().max_depth, 0);
}
