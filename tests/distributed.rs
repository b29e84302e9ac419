//! Real multi-process distributed training over loopback TCP: four
//! `latte-worker` processes rendezvous, train synchronized (identical
//! final parameter CRCs on every rank), and — with one rank killed
//! mid-run — the survivors evict it and finish in lossy mode.

use std::collections::HashMap;
use std::io::Read;
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Reserves `n` distinct loopback ports by binding and dropping
/// listeners. Racy in principle, fine in practice for CI.
fn free_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind ephemeral"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().unwrap().port())
        .collect()
}

struct WorkerResult {
    exit_code: i32,
    /// Parsed `LATTE_WORKER_RESULT` key=value fields, if printed.
    fields: HashMap<String, String>,
    stderr: String,
}

fn spawn_worker(addrs: &str, rank: usize, extra: &[&str]) -> Child {
    Command::new(env!("CARGO_BIN_EXE_latte-worker"))
        .args([
            "--rank",
            &rank.to_string(),
            "--addrs",
            addrs,
            "--steps",
            "3",
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn latte-worker")
}

fn reap(mut child: Child, rank: usize) -> WorkerResult {
    let deadline = Instant::now() + Duration::from_secs(60);
    let status = loop {
        match child.try_wait().expect("try_wait") {
            Some(s) => break s,
            None if Instant::now() > deadline => {
                let _ = child.kill();
                panic!("worker {rank} hung past the deadline");
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    let mut stdout = String::new();
    let mut stderr = String::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut stdout)
        .unwrap();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    let fields = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with("LATTE_WORKER_RESULT"))
        .map(|l| {
            l.split_whitespace()
                .skip(1)
                .filter_map(|kv| kv.split_once('='))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect()
        })
        .unwrap_or_default();
    WorkerResult {
        exit_code: status.code().unwrap_or(-1),
        fields,
        stderr,
    }
}

fn launch(world: usize, per_rank_extra: impl Fn(usize) -> Vec<String>) -> Vec<WorkerResult> {
    let ports = free_ports(world);
    let addrs = ports
        .iter()
        .map(|p| format!("127.0.0.1:{p}"))
        .collect::<Vec<_>>()
        .join(",");
    let children: Vec<Child> = (0..world)
        .map(|rank| {
            let extra = per_rank_extra(rank);
            let extra_refs: Vec<&str> = extra.iter().map(String::as_str).collect();
            spawn_worker(&addrs, rank, &extra_refs)
        })
        .collect();
    children
        .into_iter()
        .enumerate()
        .map(|(rank, c)| reap(c, rank))
        .collect()
}

#[test]
fn four_processes_train_to_identical_parameters() {
    let results = launch(4, |_| vec![]);
    for (rank, r) in results.iter().enumerate() {
        assert_eq!(r.exit_code, 0, "rank {rank} failed (stderr:\n{})", r.stderr);
        assert_eq!(r.fields.get("mode").map(String::as_str), Some("sync"));
        assert_eq!(r.fields.get("live").map(String::as_str), Some("4"));
        assert_eq!(r.fields.get("steps").map(String::as_str), Some("3"));
    }
    let crcs: Vec<&String> = results
        .iter()
        .map(|r| r.fields.get("param_crc").expect("param_crc printed"))
        .collect();
    assert!(
        crcs.windows(2).all(|w| w[0] == w[1]),
        "synchronized ranks must agree bit-for-bit: {crcs:?}"
    );
}

#[test]
fn killed_process_degrades_survivors_to_lossy() {
    let world = 3;
    let results = launch(world, |rank| {
        let mut extra = vec!["--op-timeout-ms".into(), "500".into()];
        if rank == 2 {
            extra.extend(["--die-at-step".into(), "1".into()]);
        }
        extra
    });
    assert_eq!(results[2].exit_code, 3, "rank 2 must have died on cue");
    for (rank, r) in results.iter().enumerate().take(2) {
        assert_eq!(
            r.exit_code, 0,
            "survivor {rank} failed (stderr:\n{})",
            r.stderr
        );
        assert_eq!(r.fields.get("mode").map(String::as_str), Some("lossy"));
        assert_eq!(r.fields.get("live").map(String::as_str), Some("2"));
        assert_eq!(r.fields.get("steps").map(String::as_str), Some("3"));
        let evicted: u64 = r.fields["peers_evicted"].parse().unwrap();
        let lossy: u64 = r.fields["lossy_steps"].parse().unwrap();
        assert!(evicted >= 1, "survivor {rank} recorded no eviction");
        assert!(lossy >= 1, "survivor {rank} recorded no lossy step");
    }
    let crcs: Vec<&String> = results
        .iter()
        .take(2)
        .map(|r| r.fields.get("param_crc").expect("param_crc printed"))
        .collect();
    assert_eq!(
        crcs[0], crcs[1],
        "survivors share the healed ring and must agree"
    );
}
