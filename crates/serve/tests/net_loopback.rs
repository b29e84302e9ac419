//! Loopback-TCP integration: real sockets against the framed front-end
//! and the `latte-served` binary. Covers the well-behaved path (bit
//! identity with in-process submission), every adversary in the
//! [`Misbehavior`] vocabulary, and the SIGTERM graceful drain.

mod common;

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use latte_serve::loadgen::{misbehaviors, Misbehavior};
use latte_serve::net::{run_adversary, AdversaryOutcome, ServerMsg};
use latte_serve::{Client, NetConfig, NetError, NetFrontend, ServeConfig, Server, WireError};

const PATIENCE: Duration = Duration::from_secs(10);

fn frontend_with(
    net: &str,
    serve_cfg: ServeConfig,
    net_cfg: NetConfig,
) -> (Arc<Server>, NetFrontend) {
    let server = Arc::new(Server::start(common::model(net), serve_cfg));
    let frontend =
        NetFrontend::bind(Arc::clone(&server), "127.0.0.1:0", net_cfg).expect("bind loopback");
    (server, frontend)
}

fn wait_for(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    false
}

#[test]
fn tcp_replies_are_bit_identical_to_in_process_submission() {
    for net in ["fc", "lstm"] {
        let (server, frontend) =
            frontend_with(net, ServeConfig::default(), NetConfig::default());
        let mut client = Client::connect(frontend.addr(), PATIENCE).expect("connect");
        assert_eq!(client.hello().model, net);
        assert_eq!(client.hello().fingerprint, server.model().fingerprint());
        for seed in 0..6u64 {
            let req = common::sample(net, seed);
            let reply = client
                .call(seed, req.inputs.clone(), None)
                .expect("tcp call");
            assert_eq!(reply.id, seed);
            // The same sample through the in-process path...
            let direct = server
                .submit(req.clone())
                .expect("in-process submit")
                .wait()
                .expect("in-process reply");
            assert_eq!(
                reply.outputs, direct.outputs,
                "{net} sample {seed}: wire and in-process replies differ"
            );
            // ...and against the plain batch-1 oracle, bit for bit.
            let oracle = common::reference(net, &req);
            let wire_head = &reply
                .outputs
                .iter()
                .find(|(name, _)| name == "head.value")
                .expect("head.value on the wire")
                .1;
            assert_eq!(wire_head, &oracle, "{net} sample {seed} vs oracle");
        }
        client.bye().expect("polite close");
        frontend.close();
        server.shutdown();
    }
}

#[test]
fn health_frames_report_readiness_and_counters() {
    let (server, frontend) = frontend_with("fc", ServeConfig::default(), NetConfig::default());
    let mut client = Client::connect(frontend.addr(), PATIENCE).expect("connect");
    let h = client.health().expect("health round trip");
    assert!(!h.draining);
    assert_eq!(h.capacity, server.config().queue_cap);
    assert_eq!(h.stats.conn_accepted, 1);
    let req = common::sample("fc", 0);
    client.call(1, req.inputs, None).expect("call");
    let h2 = client.health().expect("health after a request");
    assert_eq!(h2.stats.completed, 1);
    assert_eq!(h2.stats.submitted, 1);
    client.bye().expect("bye");
    frontend.close();
}

#[test]
fn the_connection_cap_refuses_with_a_structured_frame() {
    let (server, frontend) = frontend_with(
        "fc",
        ServeConfig::default(),
        NetConfig {
            max_connections: 1,
            ..NetConfig::default()
        },
    );
    let _first = Client::connect(frontend.addr(), PATIENCE).expect("first connect");
    let second = Client::connect(frontend.addr(), PATIENCE);
    match second {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, WireError::ConnLimit),
        other => panic!("over-cap connect should be refused, got {other:?}"),
    }
    assert!(wait_for(|| server.stats().conn_rejected == 1));
    frontend.close();
}

#[test]
fn a_slow_loris_is_reclaimed_by_the_read_timeout() {
    let (server, frontend) = frontend_with(
        "fc",
        ServeConfig::default(),
        NetConfig {
            read_timeout: Duration::from_millis(150),
            ..NetConfig::default()
        },
    );
    let outcome = run_adversary(frontend.addr(), &Misbehavior::HoldOpen, PATIENCE)
        .expect("hold-open adversary runs");
    assert_eq!(outcome, AdversaryOutcome::Closed);
    assert!(wait_for(|| server.stats().conn_timeouts == 1));
    // The server is unharmed: a well-behaved client still gets served.
    let mut client = Client::connect(frontend.addr(), PATIENCE).expect("connect after loris");
    client
        .call(1, common::sample("fc", 1).inputs, None)
        .expect("call after loris");
    frontend.close();
}

#[test]
fn a_corrupt_frame_draws_a_bad_frame_error_and_a_close() {
    let (server, frontend) = frontend_with("fc", ServeConfig::default(), NetConfig::default());
    let outcome = run_adversary(frontend.addr(), &Misbehavior::CorruptCrc, PATIENCE)
        .expect("corrupt-crc adversary runs");
    assert_eq!(outcome, AdversaryOutcome::Rejected(vec![WireError::BadFrame]));
    assert!(wait_for(|| server.stats().frames_corrupt == 1));
    frontend.close();
}

#[test]
fn a_mid_frame_disconnect_is_cleaned_up() {
    let (server, frontend) = frontend_with("fc", ServeConfig::default(), NetConfig::default());
    let outcome = run_adversary(frontend.addr(), &Misbehavior::MidFrameDisconnect, PATIENCE)
        .expect("mid-frame adversary runs");
    assert_eq!(outcome, AdversaryOutcome::Closed);
    // The truncated connection wound down; service continues.
    let mut client = Client::connect(frontend.addr(), PATIENCE).expect("connect after truncation");
    client
        .call(1, common::sample("fc", 2).inputs, None)
        .expect("call after truncation");
    client.bye().expect("bye");
    // close() proves the wind-down: every thread joined, no leaks.
    frontend.close();
    assert!(server.stats().conn_accepted >= 2);
}

#[test]
fn a_past_deadline_flood_is_fully_rejected_or_shed_and_never_executed() {
    let flood = 16usize;
    let (server, frontend) = frontend_with(
        "fc",
        ServeConfig {
            // A batch bigger than the flood so nothing flushes on size:
            // every expired request must go through admission or shed.
            max_batch: 64,
            max_delay: Duration::from_millis(5),
            ..ServeConfig::default()
        },
        NetConfig::default(),
    );
    let outcome = run_adversary(
        frontend.addr(),
        &Misbehavior::PastDeadlineFlood { requests: flood },
        PATIENCE,
    )
    .expect("flood adversary runs");
    match outcome {
        AdversaryOutcome::Rejected(codes) => {
            assert_eq!(codes.len(), flood);
            assert!(
                codes.iter().all(|c| *c == WireError::DeadlineExceeded),
                "every flooded request draws DeadlineExceeded: {codes:?}"
            );
        }
        other => panic!("flood should be rejected, got {other:?}"),
    }
    let stats = server.stats();
    assert_eq!(
        stats.deadline_rejected + stats.deadline_shed,
        flood as u64,
        "every flooded request is accounted to a deadline counter: {stats:?}"
    );
    assert_eq!(stats.batches, 0, "an expired flood must execute nothing");
    frontend.close();
}

#[test]
fn a_mixed_fleet_of_clients_and_adversaries_coexists() {
    let flood = 8usize;
    let (server, frontend) = frontend_with(
        "fc",
        ServeConfig {
            max_batch: 64,
            max_delay: Duration::from_millis(5),
            ..ServeConfig::default()
        },
        NetConfig {
            read_timeout: Duration::from_millis(200),
            ..NetConfig::default()
        },
    );
    let addr = frontend.addr();
    let adversaries = misbehaviors(6, 0xC0FFEE, flood);
    let floods: u64 = adversaries
        .iter()
        .filter(|m| matches!(m, Misbehavior::PastDeadlineFlood { .. }))
        .count() as u64
        * flood as u64;
    let corrupt: u64 = adversaries
        .iter()
        .filter(|m| matches!(m, Misbehavior::CorruptCrc))
        .count() as u64;
    let mut threads = Vec::new();
    for m in adversaries {
        threads.push(std::thread::spawn(move || {
            run_adversary(addr, &m, PATIENCE).expect("adversary terminates cleanly");
        }));
    }
    let well_behaved = 3usize;
    let per_client = 6u64;
    let mut clients = Vec::new();
    for c in 0..well_behaved as u64 {
        clients.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr, PATIENCE).expect("connect");
            for i in 0..per_client {
                let seed = c * 100 + i;
                let req = common::sample("fc", seed);
                let reply = client
                    .call(seed, req.inputs.clone(), None)
                    .expect("well-behaved call during chaos");
                let oracle = common::reference("fc", &req);
                let head = &reply
                    .outputs
                    .iter()
                    .find(|(n, _)| n == "head.value")
                    .expect("head.value")
                    .1;
                assert_eq!(head, &oracle, "client {c} request {i} diverged");
            }
            client.bye().expect("bye");
        }));
    }
    for t in threads {
        t.join().expect("adversary thread");
    }
    for c in clients {
        c.join().expect("client thread");
    }
    let stats = server.stats();
    assert_eq!(stats.completed, well_behaved as u64 * per_client);
    assert_eq!(stats.deadline_rejected + stats.deadline_shed, floods);
    assert_eq!(stats.frames_corrupt, corrupt);
    frontend.close();
    server.shutdown();
}

#[test]
fn closing_the_frontend_mid_connection_leaks_nothing() {
    let (server, frontend) = frontend_with("fc", ServeConfig::default(), NetConfig::default());
    let mut client = Client::connect(frontend.addr(), PATIENCE).expect("connect");
    client
        .call(1, common::sample("fc", 3).inputs, None)
        .expect("call");
    // Drain order: server first (answers admitted work), then the
    // front-end (flushes reply queues, joins all threads).
    server.shutdown();
    frontend.close();
    // The abandoned client observes EOF, not a hang.
    match client.recv() {
        Err(NetError::Io { .. }) => {}
        other => panic!("expected EOF after close, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// The binary, end to end
// ---------------------------------------------------------------------------

struct Served {
    child: Child,
    addr: std::net::SocketAddr,
    stdout: BufReader<std::process::ChildStdout>,
}

fn spawn_served(extra: &[&str]) -> Served {
    let mut child = Command::new(env!("CARGO_BIN_EXE_latte-served"))
        .args(["--addr", "127.0.0.1:0", "--model", "fc"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn latte-served");
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
    let mut ready = String::new();
    stdout.read_line(&mut ready).expect("ready line");
    let addr = ready
        .split_whitespace()
        .nth(3)
        .expect("address on the ready line")
        .parse()
        .expect("parseable address");
    Served {
        child,
        addr,
        stdout,
    }
}

impl Served {
    fn terminate(mut self) -> String {
        Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("send SIGTERM");
        let status = self.child.wait().expect("latte-served exits");
        assert!(status.success(), "drain must exit 0, got {status:?}");
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).expect("final output");
        rest
    }
}

#[test]
fn the_binary_serves_drains_on_sigterm_and_reports_counters() {
    let served = spawn_served(&["--read-timeout-ms", "300"]);
    // Well-behaved traffic.
    let mut client = Client::connect(served.addr, PATIENCE).expect("connect to binary");
    for seed in 0..4u64 {
        let req = common::sample("fc", seed);
        let reply = client.call(seed, req.inputs.clone(), None).expect("call");
        let oracle = common::reference("fc", &req);
        let head = &reply
            .outputs
            .iter()
            .find(|(n, _)| n == "head.value")
            .expect("head.value")
            .1;
        assert_eq!(head, &oracle, "binary reply diverged from the oracle");
    }
    // Adversaries against the real process, concurrently.
    let addr = served.addr;
    let adversary_threads: Vec<_> = [
        Misbehavior::HoldOpen,
        Misbehavior::MidFrameDisconnect,
        Misbehavior::CorruptCrc,
        Misbehavior::PastDeadlineFlood { requests: 5 },
    ]
    .into_iter()
    .map(|m| {
        std::thread::spawn(move || {
            run_adversary(addr, &m, PATIENCE).expect("adversary vs binary terminates")
        })
    })
    .collect();
    for t in adversary_threads {
        t.join().expect("adversary thread");
    }
    // The first client sat idle through the adversary phase, so the
    // slow-loris reclaim may legitimately have taken it too — probe
    // health over a fresh connection.
    drop(client);
    let mut probe = Client::connect(served.addr, PATIENCE).expect("health reconnect");
    let health = probe.health().expect("health from binary");
    assert!(!health.draining);
    assert_eq!(health.stats.completed, 4);
    assert_eq!(health.stats.frames_corrupt, 1);
    assert!(health.stats.conn_timeouts >= 1, "{:?}", health.stats);
    assert_eq!(
        health.stats.deadline_rejected + health.stats.deadline_shed,
        5
    );
    probe.bye().expect("bye");
    let summary = served.terminate();
    assert!(
        summary.contains("drained cleanly"),
        "missing drain summary: {summary}"
    );
    assert!(summary.contains("frames_corrupt=1"), "{summary}");
}

#[test]
fn sigterm_mid_flight_answers_admitted_work_before_exit() {
    // A long coalescing window: requests sit in the batcher when the
    // signal lands, so the drain path itself must flush and answer them.
    let served = spawn_served(&["--max-batch", "64", "--max-delay-ms", "2000"]);
    let mut client = Client::connect(served.addr, PATIENCE).expect("connect");
    for id in 0..3u64 {
        client
            .send_request(id, common::sample("fc", id).inputs, None)
            .expect("pipelined send");
    }
    // Give the reader a moment to admit all three, then pull the plug.
    std::thread::sleep(Duration::from_millis(200));
    Command::new("kill")
        .args(["-TERM", &served.child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    // All three answers arrive through the drain, long before the 2 s
    // coalescing deadline would have flushed them.
    let mut answered = 0;
    while answered < 3 {
        match client.recv().expect("drained reply") {
            ServerMsg::Reply(_) => answered += 1,
            other => panic!("expected drained replies, got {other:?}"),
        }
    }
    let mut child = served.child;
    let status = child.wait().expect("exit");
    assert!(status.success(), "drain must exit 0, got {status:?}");
}

/// Randomized chaos-client soak, gated behind `LATTE_FAULT_SWEEP=1`
/// (nightly CI, same switch as the transport sweep): seeded adversarial
/// schedules, one per client node, must never
/// hang the front-end, panic it, or perturb a single well-behaved
/// reply — and every flooded past-deadline request must be accounted
/// for by the shedding counters, never executed.
#[test]
fn randomized_chaos_client_soak() {
    if std::env::var("LATTE_FAULT_SWEEP").is_err() {
        return;
    }
    use latte_serve::loadgen::misbehaviors;

    const FLOOD: usize = 8;
    const NODES: u64 = 3;
    const ITERS: usize = 3;
    for seed in 0..4u64 {
        let (server, frontend) = frontend_with(
            "fc",
            ServeConfig::default(),
            NetConfig {
                read_timeout: Duration::from_millis(200),
                ..NetConfig::default()
            },
        );
        let addr = frontend.addr();
        let schedules: Vec<_> = (0..NODES)
            .map(|node| misbehaviors(ITERS, seed ^ node, FLOOD))
            .collect();
        let expected_floods: u64 = schedules
            .iter()
            .flatten()
            .map(|m| match m {
                Misbehavior::PastDeadlineFlood { requests } => *requests as u64,
                _ => 0,
            })
            .sum();
        let adversaries: Vec<_> = schedules
            .into_iter()
            .map(|schedule| {
                std::thread::spawn(move || {
                    for m in &schedule {
                        run_adversary(addr, m, PATIENCE)
                            .unwrap_or_else(|e| panic!("seed {seed}: {m:?} drew {e}"));
                    }
                })
            })
            .collect();
        // A well-behaved client keeps its oracle identity through the
        // whole storm.
        let mut client = Client::connect(addr, PATIENCE).expect("connect amid chaos");
        for i in 0..10u64 {
            let req = common::sample("fc", seed * 100 + i);
            let reply = client
                .call(i, req.inputs.clone(), None)
                .expect("healthy call amid chaos");
            let oracle = common::reference("fc", &req);
            let head = &reply
                .outputs
                .iter()
                .find(|(name, _)| name == "head.value")
                .expect("head.value on the wire")
                .1;
            assert_eq!(head, &oracle, "seed {seed} sample {i}: chaos perturbed a reply");
        }
        for h in adversaries {
            h.join().expect("an adversary thread panicked");
        }
        client.bye().expect("bye");
        server.shutdown();
        frontend.close();
        let stats = server.stats();
        assert_eq!(
            stats.deadline_rejected + stats.deadline_shed,
            expected_floods,
            "seed {seed}: every flooded request must be rejected or shed"
        );
        assert_eq!(server.depth(), 0, "seed {seed}: a request leaked a queue slot");
    }
}
