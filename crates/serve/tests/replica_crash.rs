//! Replica-crash-mid-batch supervision: in-flight requests are retried
//! on a live replica, the supervisor's restart counter increments, ids
//! are never reused, and exhausted retries surface as structured
//! `ServeError::ReplicaFailed` — while retried results stay
//! bit-identical to solo execution.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use latte_runtime::fault::{Fault, FaultPlan};
use latte_runtime::ExecConfig;
use latte_serve::{
    BatchAction, FaultHooks, GateHooks, PlanCache, ReplicaHooks, Request, ServeConfig, ServeError,
    Server,
};

const NEVER: Duration = Duration::from_secs(3600);

fn cfg(replicas: usize) -> ServeConfig {
    ServeConfig {
        max_batch: 2,
        max_delay: NEVER,
        queue_cap: 64,
        replicas,
        threads: 1,
        retry_limit: 1,
    }
}

fn start(replicas: usize, hooks: Arc<dyn ReplicaHooks>) -> Server {
    Server::start_with(
        Arc::new(common::model("fc")),
        cfg(replicas),
        Arc::new(PlanCache::new(ExecConfig {
            threads: 1,
            ..ExecConfig::default()
        })),
        hooks,
    )
}

fn assert_bit_identical(net: &str, req: &Request, got: &[(String, Vec<f32>)]) {
    let expected = common::reference(net, req);
    assert_eq!(got[0].0, "head.value");
    assert_eq!(got[0].1.len(), expected.len());
    for (g, e) in got[0].1.iter().zip(&expected) {
        assert_eq!(
            g.to_bits(),
            e.to_bits(),
            "retried result diverged from solo run"
        );
    }
}

#[test]
fn crashed_batch_is_retried_once_on_a_replacement_replica() {
    // `runtime::fault` drives the injection: replica 0 dies at its first
    // batch. NodeCrash is persistent, but the replacement gets a fresh,
    // never-reused id (1), which the plan does not name.
    let hooks = Arc::new(FaultHooks::new(FaultPlan::new(vec![Fault::NodeCrash {
        node: 0,
        iter: 0,
    }])));
    let server = start(1, hooks);

    let reqs = [common::sample("fc", 31), common::sample("fc", 32)];
    let tickets: Vec<_> = reqs
        .iter()
        .map(|r| server.submit(r.clone()).expect("submit"))
        .collect();
    for (req, t) in reqs.iter().zip(tickets) {
        let resp = t
            .wait_timeout(Duration::from_secs(30))
            .expect("retried response");
        assert_eq!(resp.meta.retried, 1, "retried exactly once");
        assert_eq!(resp.meta.replica, 1, "served by the replacement replica");
        assert_bit_identical("fc", req, &resp.outputs);
    }
    let stats = server.stats();
    assert_eq!(stats.crashes, 1);
    assert_eq!(stats.restarts, 1, "supervisor restart counter");
    assert_eq!(stats.retries, 1);
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.failed, 0);
}

#[test]
fn exhausted_retries_fail_with_structured_error_and_server_survives() {
    // Both the original replica and its replacement die at their first
    // batch; with retry_limit=1 the job then fails outward.
    let hooks = Arc::new(FaultHooks::new(FaultPlan::new(vec![
        Fault::NodeCrash { node: 0, iter: 0 },
        Fault::NodeCrash { node: 1, iter: 0 },
    ])));
    let server = start(1, hooks);

    let tickets: Vec<_> = (0..2)
        .map(|i| server.submit(common::sample("fc", 40 + i)).expect("submit"))
        .collect();
    for t in tickets {
        match t.wait_timeout(Duration::from_secs(30)) {
            Err(ServeError::ReplicaFailed { retries, .. }) => assert_eq!(retries, 1),
            other => panic!("expected ReplicaFailed, got {other:?}"),
        }
    }
    let stats = server.stats();
    assert_eq!(stats.crashes, 2);
    assert_eq!(stats.restarts, 2);
    assert_eq!(stats.failed, 2);
    assert_eq!(stats.completed, 0);

    // The server is still alive: replica 2 serves the next batch clean.
    let req = common::sample("fc", 50);
    let t = server.submit(req.clone()).expect("submit after failure");
    server.flush();
    let resp = t
        .wait_timeout(Duration::from_secs(30))
        .expect("post-crash response");
    assert_eq!(resp.meta.replica, 2);
    assert_eq!(resp.meta.retried, 0);
    assert_bit_identical("fc", &req, &resp.outputs);
}

/// Crashes whichever replica first picks up a batch, exactly once, and
/// records the victim's id.
#[derive(Debug, Default)]
struct CrashFirst {
    fired: AtomicBool,
    victim: Mutex<Option<usize>>,
}

impl ReplicaHooks for CrashFirst {
    fn on_batch(&self, replica: usize, _seq: u64, _size: usize) -> BatchAction {
        if self.fired.swap(true, Ordering::SeqCst) {
            BatchAction::Proceed
        } else {
            *self.victim.lock().unwrap() = Some(replica);
            BatchAction::Crash
        }
    }
}

#[test]
fn surviving_replica_picks_up_the_retried_batch() {
    let hooks = Arc::new(CrashFirst::default());
    let server = start(2, Arc::clone(&hooks) as Arc<dyn ReplicaHooks>);

    let reqs = [common::sample("fc", 61), common::sample("fc", 62)];
    let tickets: Vec<_> = reqs
        .iter()
        .map(|r| server.submit(r.clone()).expect("submit"))
        .collect();
    let victim = {
        let mut responses = Vec::new();
        for (req, t) in reqs.iter().zip(tickets) {
            let resp = t.wait_timeout(Duration::from_secs(30)).expect("response");
            assert_eq!(resp.meta.retried, 1);
            assert_bit_identical("fc", req, &resp.outputs);
            responses.push(resp);
        }
        let victim = hooks.victim.lock().unwrap().expect("a replica crashed");
        for resp in &responses {
            assert_ne!(
                resp.meta.replica, victim,
                "retried batch must land on a live replica, not the dead one"
            );
        }
        victim
    };
    assert!(victim < 2, "victim was one of the two original replicas");
    let stats = server.stats();
    assert_eq!(stats.crashes, 1);
    assert_eq!(stats.restarts, 1);
    assert_eq!(stats.completed, 2);
}

/// Holds job 0 on a gate, then crashes replica 0 at its next batch.
#[derive(Debug, Default)]
struct GateThenCrash {
    gate: GateHooks,
}

impl ReplicaHooks for GateThenCrash {
    fn on_batch(&self, replica: usize, seq: u64, size: usize) -> BatchAction {
        if seq == 0 {
            self.gate.on_batch(replica, seq, size)
        } else if replica == 0 {
            BatchAction::Crash
        } else {
            BatchAction::Proceed
        }
    }
}

#[test]
fn a_crash_during_the_shutdown_drain_is_retried_not_dropped() {
    // Replica 0 holds job 0 on the gate while job 1 waits in the queue;
    // shutdown starts draining; then the gate opens and replica 0 dies
    // on job 1. The drain must retry job 1 on the replacement.
    let hooks = Arc::new(GateThenCrash::default());
    let server = Arc::new(Server::start_with(
        Arc::new(common::model("fc")),
        ServeConfig {
            max_batch: 1,
            ..cfg(1)
        },
        Arc::new(PlanCache::new(ExecConfig {
            threads: 1,
            ..ExecConfig::default()
        })),
        Arc::clone(&hooks) as Arc<dyn ReplicaHooks>,
    ));
    let reqs = [common::sample("fc", 71), common::sample("fc", 72)];
    let tickets: Vec<_> = reqs
        .iter()
        .map(|r| server.submit(r.clone()).expect("submit"))
        .collect();
    let stopper = {
        let server = Arc::clone(&server);
        std::thread::spawn(move || server.shutdown())
    };
    while !server.is_draining() {
        std::thread::yield_now();
    }
    // Let shutdown reach its wait for the replicas before the crash.
    std::thread::sleep(Duration::from_millis(50));
    hooks.gate.open();
    stopper.join().unwrap();

    for (req, t) in reqs.iter().zip(tickets) {
        let resp = t
            .wait_timeout(Duration::from_secs(30))
            .expect("a drained request is answered, not dropped");
        assert_bit_identical("fc", req, &resp.outputs);
    }
    assert_eq!(server.depth(), 0, "every slot is released");
    let stats = server.stats();
    assert_eq!((stats.crashes, stats.restarts, stats.retries), (1, 1, 1));
}
