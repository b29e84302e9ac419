//! Cluster harness for the real transport: overlap efficiency of the
//! layer-by-layer streamed ring all-reduce, synchronized step time, and
//! the degraded-mode (post-eviction, lossy) step time, written as
//! machine-readable `BENCH_cluster.json`.
//!
//! Everything runs in-process over the channel transport — real frames,
//! real CRCs, real deadlines — so the numbers measure the communicator,
//! not the kernel of the day. The fault section injects a genuine node
//! crash through `FaultyTransport` and times the survivors before and
//! after the ring heals.
//!
//! Flags: `--smoke` (tiny model, CI-fast), `--out <path>` (default
//! `BENCH_cluster.json`), `--validate <path>` (parse an existing
//! artifact, check its schema, and exit — the CI bench-smoke step).

use std::sync::Arc;

use latte_bench::json::{parse, Json};
use latte_core::{compile, OptLevel};
use latte_nn::models::{mlp, ModelConfig};
use latte_runtime::cluster::SyncMode;
use latte_runtime::data::Batch;
use latte_runtime::dist::{DistStats, DistTrainer};
use latte_runtime::fault::{Fault, FaultPlan, FaultyTransport};
use latte_runtime::ring::CommPolicy;
use latte_runtime::solver::{LrPolicy, MomPolicy, Sgd, Solver, SolverParams};
use latte_runtime::transport::{channel_group, channel_group_with};
use latte_runtime::Executor;

struct Args {
    smoke: bool,
    out: String,
    validate: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        out: "BENCH_cluster.json".to_string(),
        validate: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--out" => args.out = it.next().expect("--out needs a path"),
            "--validate" => args.validate = Some(it.next().expect("--validate needs a path")),
            other => {
                eprintln!("unknown flag {other}; flags: --smoke --out <path> --validate <path>");
                std::process::exit(2);
            }
        }
    }
    args
}

struct Shape {
    batch: usize,
    input: usize,
    classes: usize,
    hidden: Vec<usize>,
}

fn shape(smoke: bool) -> Shape {
    if smoke {
        Shape { batch: 4, input: 6, classes: 3, hidden: vec![8] }
    } else {
        Shape { batch: 256, input: 256, classes: 10, hidden: vec![256, 256] }
    }
}

fn build_executor(sh: &Shape) -> Executor {
    let cfg = ModelConfig {
        batch: sh.batch,
        input_size: sh.input,
        channel_div: 1,
        classes: sh.classes,
        with_loss: true,
        seed: 7,
    };
    Executor::new(compile(&mlp(&cfg, &sh.hidden).net, &OptLevel::full()).expect("compile"))
        .expect("executor")
}

fn solver() -> Sgd {
    Sgd::new(SolverParams {
        lr_policy: LrPolicy::Fixed { lr: 0.05 },
        mom_policy: MomPolicy::Fixed { mom: 0.9 },
        regu_coef: 0.0,
        max_epoch: 1,
    })
}

fn shard(sh: &Shape, step: u32, rank: usize) -> Batch {
    let mut inputs = Vec::with_capacity(sh.batch * sh.input);
    let mut labels = Vec::with_capacity(sh.batch);
    for item in 0..sh.batch {
        let g = 7u64
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((step as u64) << 24)
            .wrapping_add((rank as u64) << 12)
            .wrapping_add(item as u64);
        let class = (g % sh.classes as u64) as usize;
        for j in 0..sh.input {
            let base = if j % sh.classes == class { 1.0 } else { 0.1 };
            inputs.push(base + ((g >> 8).wrapping_add(j as u64) % 7) as f32 * 0.01);
        }
        labels.push(class as f32);
    }
    vec![("data".into(), inputs), ("label".into(), labels)]
}

struct RankOutcome {
    stats: DistStats,
    /// Mean step wall-clock before the first lossy step, ms.
    sync_step_ms: f64,
    /// Mean step wall-clock of the lossy steps, ms (NaN when none ran).
    lossy_step_ms: f64,
}

/// Runs `steps` distributed steps on every rank of `endpoints` and
/// returns the per-rank timing outcomes (ranks whose trainer errored —
/// e.g. the crashed one — are dropped).
fn run_world<W: latte_runtime::transport::Wire>(
    endpoints: Vec<latte_runtime::transport::Endpoint<W>>,
    policy: CommPolicy,
    sh: Arc<Shape>,
    steps: u32,
) -> Vec<RankOutcome> {
    let handles: Vec<_> = endpoints
        .into_iter()
        .enumerate()
        .map(|(rank, ep)| {
            let policy = policy.clone();
            let sh = Arc::clone(&sh);
            std::thread::spawn(move || {
                let exec = build_executor(&sh);
                let mut trainer = DistTrainer::new(exec, Box::new(ep), policy).ok()?;
                let mut solver = solver();
                let mut sync = Vec::new();
                let mut lossy = Vec::new();
                for step in 0..steps {
                    let batch = shard(&sh, step, rank);
                    let t = std::time::Instant::now();
                    match trainer.step(&batch, &mut |e| solver.step(e)) {
                        Ok(rep) => {
                            let ms = t.elapsed().as_secs_f64() * 1e3;
                            if rep.mode == SyncMode::LossyDegraded {
                                lossy.push(ms);
                            } else {
                                sync.push(ms);
                            }
                        }
                        Err(_) => return None,
                    }
                }
                let mean = |v: &[f64]| {
                    if v.is_empty() {
                        f64::NAN
                    } else {
                        v.iter().sum::<f64>() / v.len() as f64
                    }
                };
                Some(RankOutcome {
                    stats: trainer.stats(),
                    sync_step_ms: mean(&sync),
                    lossy_step_ms: mean(&lossy),
                })
            })
        })
        .collect();
    handles
        .into_iter()
        .filter_map(|h| h.join().expect("rank thread panicked"))
        .collect()
}

fn overlap_section(smoke: bool, world: usize, steps: u32) -> Json {
    let sh = Arc::new(shape(smoke));
    let endpoints = channel_group(world).expect("channel group");
    let outs = run_world(endpoints, CommPolicy::default(), sh, steps);
    assert_eq!(outs.len(), world, "a clean run must not lose ranks");
    let agg = outs.iter().fold(DistStats::default(), |mut a, o| {
        a.steps += o.stats.steps;
        a.comm_ms += o.stats.comm_ms;
        a.exposed_ms += o.stats.exposed_ms;
        a.backward_ms += o.stats.backward_ms;
        a
    });
    let sync_ms = outs.iter().map(|o| o.sync_step_ms).sum::<f64>() / outs.len() as f64;
    let eff = {
        let mut s = agg;
        s.steps /= world as u64;
        s.overlap_efficiency()
    };
    println!(
        "overlap: world={world} steps={steps}  comm={:.2}ms exposed={:.2}ms  efficiency={:.3}  step={:.2}ms",
        agg.comm_ms, agg.exposed_ms, eff, sync_ms
    );
    Json::obj([
        ("world", Json::Num(world as f64)),
        ("steps", Json::Num(steps as f64)),
        ("comm_ms", Json::Num(agg.comm_ms)),
        ("exposed_ms", Json::Num(agg.exposed_ms)),
        ("backward_ms", Json::Num(agg.backward_ms)),
        ("overlap_efficiency", Json::Num(eff)),
        ("sync_step_ms", Json::Num(sync_ms)),
    ])
}

fn degraded_section(smoke: bool, world: usize, steps: u32) -> Json {
    let sh = Arc::new(shape(smoke));
    let crash_at = 1u32;
    let plan = FaultPlan::new(vec![Fault::NodeCrash { node: world - 1, iter: crash_at as usize }]);
    let endpoints = channel_group_with(world, |rank, wire| {
        let p = if rank == world - 1 { plan.clone() } else { FaultPlan::none() };
        FaultyTransport::new(rank, p, wire)
    })
    .expect("faulty channel group");
    let policy = CommPolicy {
        op_timeout_ms: 500,
        max_retries: 2,
        lossy_timeout_ms: 150,
        ..CommPolicy::default()
    };
    let outs = run_world(endpoints, policy, sh, steps);
    assert!(
        outs.len() >= world - 1,
        "survivors must finish the degraded run"
    );
    let survivors: Vec<&RankOutcome> =
        outs.iter().filter(|o| o.stats.lossy_steps > 0).collect();
    assert!(!survivors.is_empty(), "the crash must degrade someone");
    let mean = |f: &dyn Fn(&RankOutcome) -> f64| {
        let vals: Vec<f64> = survivors.iter().map(|o| f(o)).filter(|v| v.is_finite()).collect();
        if vals.is_empty() {
            f64::NAN
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    };
    let sync_ms = mean(&|o: &RankOutcome| o.sync_step_ms);
    let lossy_ms = mean(&|o: &RankOutcome| o.lossy_step_ms);
    println!(
        "degraded: world={world} crash_at={crash_at}  sync_step={sync_ms:.2}ms  lossy_step={lossy_ms:.2}ms"
    );
    Json::obj([
        ("world", Json::Num(world as f64)),
        ("steps", Json::Num(steps as f64)),
        ("crash_at_step", Json::Num(crash_at as f64)),
        ("sync_step_ms", Json::Num(sync_ms)),
        ("lossy_step_ms", Json::Num(lossy_ms)),
        (
            "lossy_steps",
            Json::Num(survivors.iter().map(|o| o.stats.lossy_steps).sum::<u64>() as f64),
        ),
    ])
}

/// Schema check for a written artifact. Returns a list of violations.
fn validate_doc(doc: &Json) -> Vec<String> {
    let mut errs = Vec::new();
    if doc.get("schema").and_then(Json::as_str) != Some("latte-cluster/v1") {
        errs.push("missing or wrong `schema` (want \"latte-cluster/v1\")".into());
    }
    match doc.get("overlap") {
        None => errs.push("`overlap` missing".into()),
        Some(o) => {
            for key in ["world", "steps", "comm_ms", "exposed_ms", "overlap_efficiency", "sync_step_ms"] {
                if o.get(key).and_then(Json::as_num).is_none() {
                    errs.push(format!("overlap.{key} missing or not a number"));
                }
            }
            if let Some(eff) = o.get("overlap_efficiency").and_then(Json::as_num) {
                if !(0.0..=1.0).contains(&eff) {
                    errs.push(format!("overlap_efficiency {eff} outside [0, 1]"));
                }
            }
        }
    }
    match doc.get("degraded") {
        None => errs.push("`degraded` missing".into()),
        Some(d) => {
            for key in ["world", "steps", "crash_at_step", "lossy_step_ms", "lossy_steps"] {
                if d.get(key).and_then(Json::as_num).is_none() {
                    errs.push(format!("degraded.{key} missing or not a number"));
                }
            }
        }
    }
    errs
}

fn main() {
    let args = parse_args();

    if let Some(path) = &args.validate {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        let doc = parse(&text).unwrap_or_else(|e| panic!("parsing {path}: {e}"));
        let errs = validate_doc(&doc);
        if errs.is_empty() {
            println!("{path}: schema OK");
            return;
        }
        for e in &errs {
            eprintln!("{path}: {e}");
        }
        std::process::exit(1);
    }

    let (world, steps) = if args.smoke { (4, 4) } else { (4, 12) };
    println!(
        "cluster harness ({} mode), world {world}, {steps} steps",
        if args.smoke { "smoke" } else { "full" }
    );

    let overlap = overlap_section(args.smoke, world, steps);
    let degraded = degraded_section(args.smoke, world, steps);

    let doc = Json::obj([
        ("schema", Json::Str("latte-cluster/v1".into())),
        ("smoke", Json::Bool(args.smoke)),
        ("overlap", overlap),
        ("degraded", degraded),
    ]);
    std::fs::write(&args.out, doc.render())
        .unwrap_or_else(|e| panic!("writing {}: {e}", args.out));
    println!("wrote {}", args.out);
}
