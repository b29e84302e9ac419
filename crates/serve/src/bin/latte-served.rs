//! `latte-served` — the standalone inference server.
//!
//! Registers one of the demo-zoo models, starts the batching
//! [`Server`], binds the framed-TCP front-end, and serves until
//! SIGTERM/SIGINT. Shutdown is a graceful drain: admission flips to
//! `Draining`, the coalescing batch is flushed, every admitted request
//! is answered, replicas and connection threads are joined, and a final
//! counter summary is printed — then exit 0.
//!
//! ```text
//! latte-served [--model fc|conv|fusion|classifier|lstm] [--addr HOST:PORT]
//!              [--replicas N] [--threads N] [--max-batch N] [--max-delay-ms N]
//!              [--queue-cap N] [--max-conns N] [--read-timeout-ms N]
//!              [--write-timeout-ms N] [--reply-queue N]
//! ```
//!
//! With `--addr 127.0.0.1:0` the OS picks a port; the chosen address is
//! printed as `latte-served listening on ADDR model=NAME` so a
//! supervisor (or test harness) can parse it.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use latte_serve::{zoo, NetConfig, NetFrontend, ServeConfig, Server};

/// Async-signal-safe shutdown latch: the handler only stores a flag,
/// the main loop polls it. Installed via the raw libc `signal` symbol —
/// no crate dependency needed for two signal numbers.
mod sig {
    use super::{AtomicBool, Ordering};

    pub static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }
}

struct Args {
    model: String,
    addr: String,
    serve: ServeConfig,
    net: NetConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        model: "fc".into(),
        addr: "127.0.0.1:7878".into(),
        serve: ServeConfig::default(),
        net: NetConfig::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--model" => args.model = value("--model")?,
            "--addr" => args.addr = value("--addr")?,
            "--replicas" => args.serve.replicas = parse(&value("--replicas")?)?,
            "--threads" => args.serve.threads = parse(&value("--threads")?)?,
            "--max-batch" => args.serve.max_batch = parse(&value("--max-batch")?)?,
            "--max-delay-ms" => {
                args.serve.max_delay = Duration::from_millis(parse(&value("--max-delay-ms")?)?)
            }
            "--queue-cap" => args.serve.queue_cap = parse(&value("--queue-cap")?)?,
            "--max-conns" => args.net.max_connections = parse(&value("--max-conns")?)?,
            "--read-timeout-ms" => {
                args.net.read_timeout = Duration::from_millis(parse(&value("--read-timeout-ms")?)?)
            }
            "--write-timeout-ms" => {
                args.net.write_timeout =
                    Duration::from_millis(parse(&value("--write-timeout-ms")?)?)
            }
            "--reply-queue" => args.net.reply_queue = parse(&value("--reply-queue")?)?,
            "--help" | "-h" => {
                return Err("usage: latte-served [--model NAME] [--addr HOST:PORT] \
                     [--replicas N] [--threads N] [--max-batch N] [--max-delay-ms N] \
                     [--queue-cap N] [--max-conns N] [--read-timeout-ms N] \
                     [--write-timeout-ms N] [--reply-queue N]"
                    .into())
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    if !zoo::NETS.contains(&args.model.as_str()) {
        return Err(format!(
            "unknown model `{}`; the zoo serves {:?}",
            args.model,
            zoo::NETS
        ));
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad numeric value `{s}`"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("latte-served: {msg}");
            return ExitCode::FAILURE;
        }
    };
    sig::install();

    let model = match zoo::model(&args.model) {
        Ok(m) => m,
        Err(e) => {
            eprintln!(
                "latte-served: model `{}` failed to register: {e}",
                args.model
            );
            return ExitCode::FAILURE;
        }
    };
    let server = Arc::new(Server::start(model, args.serve));
    let frontend = match NetFrontend::bind(Arc::clone(&server), args.addr.as_str(), args.net) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("latte-served: bind {} failed: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    // The parseable ready line; supervisors read the bound port here.
    println!(
        "latte-served listening on {} model={}",
        frontend.addr(),
        args.model
    );

    while !sig::SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(25));
    }

    eprintln!("latte-served: draining");
    // Graceful drain, in order: stop admission + answer every admitted
    // request + join replicas, then flush the reply queues onto the
    // sockets and join every connection thread.
    server.shutdown();
    frontend.close();
    println!("latte-served: drained cleanly {}", server.stats());
    ExitCode::SUCCESS
}
