//! The repo's one benchmark: six named workloads over the whole stack
//! (compiler, trainer, server, cluster), the end-to-end metrics a user
//! of each pays, and a traced run that attributes the time to layers.
//!
//! ```text
//! latte-benchmark run [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace 0|1] [--smoke]
//! latte-benchmark repeat [--runs <n>] [--seed <u64>] [--seconds <s>]
//! ```
//!
//! `run --workload w` measures one workload in this process and prints a
//! table and, as the last line, the result object `BENCHMARK.json`
//! describes. Without `--workload` every workload runs, each in a
//! process of its own so that one's peak RSS is not another's.
//! See `README.md` beside this package for what each number means.

mod cluster;
mod layers;
mod nets;
mod report;
mod serve;
mod trace;
mod train;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use report::{Kind, Report};
use serve::ServeWorkload;
use trace::{Span, Tracer};
use train::TrainWorkload;

/// The workloads; `BENCHMARK.json` and the README say why each is here.
const WORKLOADS: [&str; 6] = [
    "train.vgg",
    "train.lenet.t2",
    "train.lstm",
    "serve.steady",
    "serve.tcp.burst",
    "cluster.ring2",
];

pub struct Opts {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub traced: bool,
    /// Short windows, closure checks off, numbers labelled smoke.
    pub smoke: bool,
}

impl Opts {
    /// Cold set-ups per untraced run; `setup_s` is their median.
    pub fn setups(&self) -> usize {
        if self.smoke {
            3
        } else {
            25
        }
    }

    /// How much of a traced window passes before spans are recorded: its
    /// first quarter, the reference `trace_overhead_pct` is taken
    /// against. An untraced window never records.
    pub fn unrecorded_s(&self) -> f64 {
        if self.traced {
            self.seconds / 4.0
        } else {
            f64::INFINITY
        }
    }

    /// Untimed serving time before the window (train and cluster warm
    /// up by a fixed number of steps instead).
    pub fn warmup_s(&self) -> f64 {
        if self.smoke {
            0.2
        } else {
            1.0
        }
    }
}

/// Reports `setup_s`. `first_s` is the set-up the run measured on;
/// `again` makes one more cold set-up from scratch, tears it down and
/// returns its seconds. The further set-ups run after the window, so
/// that `peak_rss_mb` (read before them) is the footprint of one set-up,
/// and each in a thread of its own, so that it starts on a fresh
/// allocator arena as a new process would, whatever the window left
/// behind (on one warm thread a set-up is a third faster, and how warm
/// depends on the run). They stop at `Opts::setups` or after a second
/// and a half, whichever comes first.
pub fn report_setups(
    report: &mut Report,
    opts: &Opts,
    first_s: f64,
    mut again: impl FnMut() -> f64 + Send,
) {
    let mut setups = vec![first_s];
    let started = std::time::Instant::now();
    while setups.len() < opts.setups()
        && (setups.len() < 5 || started.elapsed().as_secs_f64() < 1.5)
    {
        let seconds = std::thread::scope(|s| s.spawn(&mut again).join());
        setups.push(seconds.expect("a set-up panicked"));
    }
    report.info("setups", setups.len() as f64, "count");
    report.info("first_setup_s", first_s, "s");
    report.e2e("setup_s", util::median(setups));
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Ends a traced run: writes the Chrome-trace file, adds the per-layer
/// self-time rows (over the trees `keep` accepts, per tree) and
/// `layer_closure`, the share of a unit of work's time that child spans
/// attribute to a layer (the rest is the root span's own time), which it
/// returns.
pub fn finish_trace(tracer: &Tracer, report: &mut Report, keep: impl Fn(&Span) -> bool) -> f64 {
    let path = out_dir().join(format!("{}.trace.json", report.workload));
    match tracer.write_chrome(&path) {
        Ok(()) => println!(
            "trace: {} spans, written to {}",
            tracer.spans.len(),
            path.display()
        ),
        Err(e) => report.violation(format!("writing {}: {e}", path.display())),
    }
    let roots: Vec<&Span> = tracer
        .spans
        .iter()
        .filter(|s| s.parent == trace::ROOT && keep(s))
        .collect();
    let total_us: f64 = roots.iter().map(|s| s.end_us - s.start_us).sum();
    let mut root_self_us = 0.0;
    for (layer, us) in tracer.self_times(&keep) {
        report.push(
            Kind::Layer,
            format!("self_ms{{{layer}}}"),
            us / 1e3 / roots.len().max(1) as f64,
            "ms",
        );
        if roots.iter().any(|r| r.layer == layer) {
            root_self_us += us;
        }
    }
    let closure = if total_us > 0.0 {
        1.0 - root_self_us / total_us
    } else {
        0.0
    };
    report.layer("layer_closure", closure);
    closure
}

fn run_workload(name: &str, opts: &Opts) -> Report {
    let mut report = Report::new(name, opts.seed, opts.traced, opts.smoke);
    let r = &mut report;
    match name {
        "train.vgg" => train::run(
            &TrainWorkload {
                spec: nets::VGG,
                threads: 1,
                baseline: true,
                one_cpu: false,
            },
            opts,
            r,
        ),
        "train.lenet.t2" => train::run(
            &TrainWorkload {
                spec: nets::LENET,
                threads: 2,
                baseline: false,
                one_cpu: true,
            },
            opts,
            r,
        ),
        "train.lstm" => train::run(
            &TrainWorkload {
                spec: nets::LSTM,
                threads: 1,
                baseline: false,
                one_cpu: false,
            },
            opts,
            r,
        ),
        "serve.steady" => serve::run(
            &ServeWorkload {
                spec: nets::CLASSIFIER,
                output: "head.value",
                tcp: false,
            },
            opts,
            r,
        ),
        "serve.tcp.burst" => serve::run(
            &ServeWorkload {
                spec: nets::LENET,
                output: "ip2.value",
                tcp: true,
            },
            opts,
            r,
        ),
        "cluster.ring2" => cluster::run(opts, r),
        other => unreachable!("`{other}` passed the workload check"),
    }
    report
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    smoke: bool,
    runs: usize,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        smoke: false,
        runs: 5,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload `{w}`; the workloads are {}",
                        WORKLOADS.join(", ")
                    ));
                }
                out.workload = Some(w.clone());
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                out.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => out.smoke = true,
            "--runs" => {
                out.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if out.runs < 2 {
                    return Err("--runs must be at least 2".into());
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(out)
}

/// Runs one workload in a child process and returns its standard
/// output and whether it exited with 0.
fn child(workload: &str, args: &Args, traced: bool, seed: u64) -> Result<(String, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--trace", if traced { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("running {workload}: {e}"))?;
    Ok((
        String::from_utf8_lossy(&out.stdout).into_owned(),
        out.status.success(),
    ))
}

/// `run` without `--workload`: every workload, one process each; the
/// last line is one JSON object keyed by workload.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut results = Vec::new();
    let mut ok = true;
    for name in WORKLOADS {
        let (stdout, success) = child(name, args, args.traced, args.seed)?;
        let mut lines: Vec<&str> = stdout.lines().collect();
        let json = lines.pop().unwrap_or("null");
        println!("{}\n", lines.join("\n"));
        ok &= success;
        results.push(format!(
            "\"{name}\": {}",
            if success { json } else { "null" }
        ));
    }
    println!("{{{}}}", results.join(", "));
    Ok(ok)
}

/// `repeat`: every workload `runs` times (seeds `seed`, `seed + 1`, ...),
/// untraced, then per metric the median, the quartiles as Python's
/// `statistics.quantiles(n=4)` gives them, and two spreads: quartile
/// distance over median (what a bound is judged against) and range over
/// median. Exact counts must not vary between runs of one seed, so each
/// seed's first run is repeated once to check them.
fn repeat(args: &Args) -> Result<bool, String> {
    let mut ok = true;
    println!(
        "{:<16} {:<16} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "workload", "metric", "q1", "median", "q3", "iqr/med", "range/med"
    );
    for name in WORKLOADS {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut exact_first: BTreeMap<String, f64> = BTreeMap::new();
        // Run `runs` is the repeat of seed `seed`, for the exact counts.
        for run in 0..=args.runs {
            let seed = if run == args.runs {
                args.seed
            } else {
                args.seed + run as u64
            };
            let (stdout, success) = child(name, args, false, seed)?;
            if !success {
                ok = false;
                println!("{name}: run {run} (seed {seed}) failed:\n{stdout}");
                continue;
            }
            for line in stdout.lines() {
                let cols: Vec<&str> = line.split_whitespace().collect();
                let [kind, metric, value, ..] = cols[..] else {
                    continue;
                };
                let Ok(value) = value
                    .trim_start_matches("unresolved(")
                    .trim_end_matches(')')
                    .parse::<f64>()
                else {
                    continue;
                };
                if kind == "e2e" && run < args.runs && metric != "failed_share" {
                    values.entry(metric.to_string()).or_default().push(value);
                } else if kind == "exact" && run == 0 {
                    exact_first.insert(metric.to_string(), value);
                } else if kind == "exact"
                    && run == args.runs
                    && exact_first.get(metric) != Some(&value)
                {
                    ok = false;
                    println!(
                        "{name}: exact count {metric} changed between two runs of seed {seed}"
                    );
                }
            }
        }
        for (metric, v) in values {
            if v.len() < 2 {
                continue;
            }
            let (lo, hi) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            let (q1, med, q3) = util::quartiles(v);
            println!(
                "{name:<16} {metric:<16} {q1:>12.4} {med:>12.4} {q3:>12.4} {:>9.4} {:>9.4}",
                (q3 - q1) / med,
                (hi - lo) / med
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    // The benchmark pins threads, schedules and sentinel modes itself.
    for var in [
        "LATTE_THREADS",
        "LATTE_TUNE",
        "LATTE_TUNE_CACHE",
        "LATTE_SENTINEL_MODE",
        "LATTE_DUMP_IR",
        "LATTE_VERIFY_IR",
    ] {
        std::env::remove_var(var);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.split_first() {
        Some((c, rest)) if c == "run" || c == "repeat" => (c.as_str(), rest),
        _ => {
            eprintln!("usage: latte-benchmark run|repeat [flags]; see benchmark/README.md");
            return ExitCode::from(2);
        }
    };
    let args = match parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (command, &args.workload) {
        ("repeat", _) => repeat(&args),
        ("run", None) => run_all(&args),
        ("run", Some(workload)) => {
            let opts = Opts {
                seed: args.seed,
                seconds: args.seconds.unwrap_or(if args.smoke { 1.0 } else { 10.0 }),
                traced: args.traced,
                smoke: args.smoke,
            };
            let report = run_workload(workload, &opts);
            print!("{}", report.table());
            report.json().map(|json| {
                println!("{json}");
                report.correct()
            })
        }
        _ => unreachable!("the command was checked above"),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(1)
        }
    }
}
