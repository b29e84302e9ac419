//! Deadline propagation and reply-sink hygiene at the [`Server`] layer:
//! admission-time rejection, flush-time shedding, abandoned tickets,
//! and the draining state machine — all without a socket in sight.

mod common;

use std::sync::Arc;
use std::time::{Duration, Instant};

use latte_serve::{GateHooks, PlanCache, ServeConfig, ServeError, Server};

fn server_with(cfg: ServeConfig) -> Server {
    Server::start(common::model("fc"), cfg)
}

/// Polls `cond` for up to two seconds — counters move on other threads.
fn wait_for(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(2);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

#[test]
fn a_past_deadline_is_rejected_before_occupying_a_queue_slot() {
    let server = server_with(ServeConfig::default());
    let req = common::sample("fc", 1);
    let err = server
        .submit_with_deadline(req.clone(), Some(Instant::now() - Duration::from_millis(5)))
        .expect_err("a dead-on-arrival request must be refused");
    assert!(matches!(err, ServeError::DeadlineExceeded { late_by } if late_by > Duration::ZERO));
    let stats = server.stats();
    assert_eq!(stats.deadline_rejected, 1);
    // It never occupied a slot: nothing was submitted, depth unmoved.
    assert_eq!(stats.submitted, 0);
    assert_eq!(server.depth(), 0);
    // The server is still perfectly serviceable.
    let t = server
        .submit(req)
        .expect("healthy submit after a rejection");
    server.flush();
    t.wait().expect("healthy request completes");
}

#[test]
fn a_deadline_expiring_during_coalescing_is_shed_at_flush() {
    // A huge max_batch and max_delay so nothing flushes on its own:
    // the test drives the flush explicitly after the deadline passed.
    let server = server_with(ServeConfig {
        max_batch: 64,
        max_delay: Duration::from_secs(60),
        ..ServeConfig::default()
    });
    let live = server.submit(common::sample("fc", 2)).expect("live submit");
    let doomed = server
        .submit_with_deadline(
            common::sample("fc", 3),
            Some(Instant::now() + Duration::from_millis(20)),
        )
        .expect("the deadline is still ahead at admission");
    std::thread::sleep(Duration::from_millis(40));
    server.flush();
    // The expired request is answered with the structured error...
    let err = doomed.wait().expect_err("expired request must not execute");
    assert!(matches!(err, ServeError::DeadlineExceeded { .. }));
    // ...while its batch-mate executes normally.
    let resp = live.wait().expect("live request completes");
    assert_eq!(resp.meta.batch_size, 1, "the shed request left the batch");
    assert!(wait_for(|| {
        let s = server.stats();
        s.deadline_shed == 1 && s.completed == 1
    }));
}

#[test]
fn an_all_expired_batch_executes_nothing() {
    let server = server_with(ServeConfig {
        max_batch: 64,
        max_delay: Duration::from_secs(60),
        ..ServeConfig::default()
    });
    let tickets: Vec<_> = (0..3)
        .map(|i| {
            server
                .submit_with_deadline(
                    common::sample("fc", i),
                    Some(Instant::now() + Duration::from_millis(10)),
                )
                .expect("admitted while the deadline was ahead")
        })
        .collect();
    std::thread::sleep(Duration::from_millis(30));
    server.flush();
    for t in tickets {
        assert!(matches!(t.wait(), Err(ServeError::DeadlineExceeded { .. })));
    }
    let stats = server.stats();
    assert_eq!(stats.deadline_shed, 3);
    assert_eq!(stats.batches, 0, "an all-expired flush must run no batch");
    assert_eq!(server.depth(), 0, "shed requests release their slots");
}

#[test]
fn an_abandoned_ticket_is_detected_and_its_reply_dropped() {
    let gate = Arc::new(GateHooks::new());
    let cache = Arc::new(PlanCache::new(latte_runtime::ExecConfig {
        threads: 1,
        ..latte_runtime::ExecConfig::default()
    }));
    let server = Server::start_with(
        Arc::new(common::model("fc")),
        ServeConfig {
            max_batch: 1,
            ..ServeConfig::default()
        },
        cache,
        gate.clone(),
    );
    let ticket = server.submit(common::sample("fc", 4)).expect("submit");
    // The client walks away while its batch is gated in flight.
    drop(ticket);
    gate.open();
    assert!(
        wait_for(|| {
            let s = server.stats();
            s.completed == 1 && s.replies_dropped == 1
        }),
        "the dead receiver must be detected and counted: {:?}",
        server.stats()
    );
    assert_eq!(server.depth(), 0, "the abandoned request released its slot");
}

#[test]
fn a_timed_out_wait_is_an_abandoned_receiver_too() {
    let gate = Arc::new(GateHooks::new());
    let cache = Arc::new(PlanCache::new(latte_runtime::ExecConfig {
        threads: 1,
        ..latte_runtime::ExecConfig::default()
    }));
    let server = Server::start_with(
        Arc::new(common::model("fc")),
        ServeConfig {
            max_batch: 1,
            ..ServeConfig::default()
        },
        cache,
        gate.clone(),
    );
    let ticket = server.submit(common::sample("fc", 5)).expect("submit");
    assert!(matches!(
        ticket.wait_timeout(Duration::from_millis(20)),
        Err(ServeError::WaitTimeout)
    ));
    // wait_timeout consumed the ticket: its channel is gone.
    gate.open();
    assert!(wait_for(|| server.stats().replies_dropped == 1));
}

#[test]
fn draining_refuses_new_admissions_but_answers_admitted_work() {
    let gate = Arc::new(GateHooks::new());
    let cache = Arc::new(PlanCache::new(latte_runtime::ExecConfig {
        threads: 1,
        ..latte_runtime::ExecConfig::default()
    }));
    let server = Arc::new(Server::start_with(
        Arc::new(common::model("fc")),
        ServeConfig {
            max_batch: 2,
            max_delay: Duration::from_secs(60),
            ..ServeConfig::default()
        },
        cache,
        gate.clone(),
    ));
    // Three admitted requests: one gated pair in flight, one still
    // coalescing when shutdown arrives (the drain must flush it).
    let tickets: Vec<_> = (0..3)
        .map(|i| server.submit(common::sample("fc", i)).expect("submit"))
        .collect();
    let opener = {
        let gate = gate.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            gate.open();
        })
    };
    server.shutdown();
    opener.join().unwrap();
    assert!(server.is_draining());
    // Every admitted request was answered before shutdown returned.
    for t in tickets {
        t.wait().expect("admitted work completes through the drain");
    }
    assert_eq!(server.stats().completed, 3);
    // New work is refused with the structured draining error.
    assert!(matches!(
        server.submit(common::sample("fc", 9)),
        Err(ServeError::Draining)
    ));
    // Idempotent: a second shutdown is a no-op.
    server.shutdown();
}
