//! A server is its replicas: `replicas: R` starts R threads (each
//! replica's worker pool aside), and shutdown leaves none behind. Alone
//! in its test binary, so no other server's threads are counted.

mod common;

use std::time::{Duration, Instant};

use latte_serve::{ServeConfig, Server};

/// Threads of this process whose name starts with `latte-serve-`
/// (Linux: `/proc/self/task/*/comm`).
fn serve_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("latte-serve-"))
        .count()
}

/// Polls `cond` for up to five seconds: a thread names itself once it
/// runs, and exits a moment after it is done.
fn wait_for(mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

#[test]
#[cfg(target_os = "linux")]
fn a_server_with_r_replicas_runs_r_threads() {
    let replicas = 3;
    let server = Server::start(
        common::model("fc"),
        ServeConfig {
            replicas,
            threads: 1,
            ..ServeConfig::default()
        },
    );
    let t = server.submit(common::sample("fc", 1)).expect("submit");
    server.flush();
    t.wait_timeout(Duration::from_secs(30)).expect("response");
    assert!(wait_for(|| serve_threads() >= replicas));
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        serve_threads(),
        replicas,
        "one thread per replica, no other"
    );
    server.shutdown();
    assert!(
        wait_for(|| serve_threads() == 0),
        "shutdown leaves no thread"
    );
}
