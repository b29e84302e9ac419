//! The serve.* workloads: the dynamic-batching server under an
//! open-loop in-process load (serve.steady) and a closed-loop pipelined
//! TCP load (serve.tcp.burst).

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use latte_core::{compile, OptLevel};
use latte_runtime::registry::KernelRegistry;
use latte_runtime::{CompiledProgram, ExecConfig, Executor};
use latte_serve::net::{decode_server, encode_client, encode_server, ClientMsg, ServerMsg};
use latte_serve::{
    BatchEngine, Client, Model, NetConfig, NetFrontend, PlanCache, Request, ServeConfig, Server,
    StatsSnapshot,
};

use crate::layers::{self, SetupStages};
use crate::nets::{self, Inputs, NetSpec};
use crate::report::{Kind, Report};
use crate::trace::{Tracer, ROOT};
use crate::util::{self, median, median_ms, time_ms, Digest, Rng, Unit};
use crate::Opts;

pub struct ServeWorkload {
    pub spec: NetSpec,
    /// The buffer read back into every reply.
    pub output: &'static str,
    /// Through `NetFrontend` on loopback (closed loop) instead of
    /// in-process `Server::submit` (open loop).
    pub tcp: bool,
}

const CONFIG: ServeConfig = ServeConfig {
    max_batch: 8,
    max_delay: Duration::from_millis(2),
    queue_cap: 2048,
    replicas: 1,
    threads: 1,
    retry_limit: 1,
};
const EXEC: ExecConfig = ExecConfig {
    threads: 1,
    arena: false,
    gemm_blocking: None,
};
/// serve.steady's offered rate, requests per second.
const RATE: f64 = 1000.0;
/// serve.tcp.burst: connections, and requests pipelined per connection.
const CONNECTIONS: usize = 2;
const WINDOW: usize = 8;
/// Distinct seeded payloads a run cycles through.
const PAYLOADS: usize = 512;
/// Every this-many-th reply is kept and checked bit for bit.
const CHECK_EVERY: usize = 64;
const PATIENCE: Duration = Duration::from_secs(10);

struct Fleet {
    server: Arc<Server>,
    front: Option<NetFrontend>,
    clients: Vec<Client>,
}

fn model(w: &ServeWorkload) -> Model {
    Model::new(
        "benchmark",
        Box::new(w.spec.build),
        OptLevel::full(),
        vec![w.output.to_string()],
    )
    .expect("the workload's model registers")
}

/// One cold set-up: start the server, warm the plan of every
/// micro-batch size, and (tcp) bind the front-end and connect.
fn set_up(w: &ServeWorkload, payloads: &[Request]) -> Fleet {
    let server = Arc::new(Server::start(model(w), CONFIG));
    // A deadline flush can split a warm-up batch; go round again until
    // every size has a plan.
    while server.cache().len() < CONFIG.max_batch {
        for size in 1..=CONFIG.max_batch {
            let tickets: Vec<_> = (0..size)
                .map(|i| server.submit(payloads[i].clone()).expect("warm-up submit"))
                .collect();
            server.flush();
            for t in tickets {
                t.wait_timeout(PATIENCE).expect("warm-up reply");
            }
        }
    }
    let (front, clients) = if w.tcp {
        let front = NetFrontend::bind(Arc::clone(&server), "127.0.0.1:0", NetConfig::default())
            .expect("loopback bind");
        let clients = (0..CONNECTIONS)
            .map(|_| Client::connect(front.addr(), PATIENCE).expect("connect and Hello"))
            .collect();
        (Some(front), clients)
    } else {
        (None, Vec::new())
    };
    Fleet {
        server,
        front,
        clients,
    }
}

fn tear_down(fleet: Fleet) {
    for c in fleet.clients {
        let _ = c.bye();
    }
    fleet.server.shutdown();
    if let Some(front) = fleet.front {
        front.close();
    }
}

/// One request as the generator and the collector saw it.
struct Served {
    index: usize,
    /// When it was due (open loop) or sent (closed loop).
    due: Instant,
    sent: Instant,
    admitted: Instant,
    received: Instant,
    /// Submit-to-completion inside the server (`ReplyMeta::latency`).
    server: Duration,
    batch_size: usize,
    /// Kept on every `CHECK_EVERY`-th reply.
    outputs: Option<Inputs>,
    /// Whether a span was recorded for it as it completed (the traced
    /// run leaves the first quarter of its window unrecorded, as the
    /// reference for the tracing overhead).
    live: bool,
}

/// Called on the collecting thread as a request completes.
type Record<'a> = &'a mut (dyn FnMut(&Served) + Send);

struct WindowResult {
    served: Vec<Served>,
    /// Server counters on either side of the window.
    stats: (StatsSnapshot, StatsSnapshot),
    /// Refused, lost or failed requests.
    failed: u64,
    attempted: u64,
    /// When the measured part of the run began.
    began: Instant,
}

/// `rate * seconds` arrival offsets in `[from, from + seconds)`: a Poisson
/// process conditioned on its count (uniform order statistics), so every
/// seed offers exactly the same number of requests.
fn arrivals(from: f64, seconds: f64, rng: &mut Rng) -> Vec<f64> {
    let n = (RATE * seconds).round() as usize;
    let mut at: Vec<f64> = (0..n).map(|_| from + rng.unit() * seconds).collect();
    util::sort(&mut at);
    at
}

/// serve.steady: one generator thread submits on the schedule whatever
/// the server does; one collector thread takes the replies.
fn open_loop(fleet: &Fleet, payloads: &[Request], opts: &Opts, record: Record) -> WindowResult {
    let warm = opts.warmup_s();
    let live_from = warm + opts.unrecorded_s();
    let mut rng = Rng::new(opts.seed, 5);
    let mut schedule = arrivals(0.0, warm, &mut rng);
    schedule.extend(arrivals(warm, opts.seconds, &mut rng));
    let n = schedule.len();
    let (tx, rx) = mpsc::channel();
    let start = Instant::now() + Duration::from_millis(20);
    let server = &fleet.server;
    let before = server.stats();

    std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut attempted = 0u64;
            let mut refused = 0u64;
            for (index, &offset) in schedule.iter().enumerate() {
                let due = start + Duration::from_secs_f64(offset);
                // Sleep to within 150 us of the due time, then spin:
                // `sleep` alone overshoots by a tenth of a millisecond.
                loop {
                    let now = Instant::now();
                    if now >= due {
                        break;
                    }
                    let left = due - now;
                    if left > Duration::from_micros(150) {
                        std::thread::sleep(left - Duration::from_micros(150));
                    } else {
                        std::hint::spin_loop();
                    }
                }
                let sent = Instant::now();
                let measured = offset >= warm;
                attempted += u64::from(measured);
                match server.submit(payloads[index % payloads.len()].clone()) {
                    Ok(ticket) => {
                        let admitted = Instant::now();
                        let live = offset >= live_from;
                        let _ = tx.send((index, measured, live, due, sent, admitted, ticket));
                    }
                    Err(_) if measured => refused += 1,
                    Err(_) => {}
                }
            }
            (attempted, refused)
        });
        let collector = scope.spawn(move || {
            let mut served = Vec::with_capacity(n);
            let mut lost = 0u64;
            for (index, measured, live, due, sent, admitted, ticket) in rx {
                let reply = ticket.wait_timeout(PATIENCE);
                let received = Instant::now();
                match reply {
                    Ok(resp) if measured => {
                        let s = Served {
                            index,
                            due,
                            sent,
                            admitted,
                            received,
                            server: resp.meta.latency,
                            batch_size: resp.meta.batch_size,
                            outputs: index.is_multiple_of(CHECK_EVERY).then_some(resp.outputs),
                            live,
                        };
                        if live {
                            record(&s);
                        }
                        served.push(s);
                    }
                    Ok(_) => {}
                    Err(_) if measured => lost += 1,
                    Err(_) => {}
                }
            }
            (served, lost)
        });
        let (attempted, refused) = generator.join().expect("generator thread");
        let (served, lost) = collector.join().expect("collector thread");
        WindowResult {
            attempted,
            failed: refused + lost,
            began: start + Duration::from_secs_f64(warm),
            stats: (before, server.stats()),
            served,
        }
    })
}

/// serve.tcp.burst: one thread, two connections, each pipelining a
/// window of eight requests and then reading the eight replies; the
/// next window goes out only when this one is in.
fn closed_loop(
    fleet: &mut Fleet,
    payloads: &[Request],
    opts: &Opts,
    record: Record,
) -> WindowResult {
    let live_from = opts.warmup_s() + opts.unrecorded_s();
    let before = fleet.server.stats();
    let mut served = Vec::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut next = 0usize;
    let mut sent_at = vec![Instant::now(); CONNECTIONS * WINDOW];
    let start = Instant::now();
    let mut measure_from = None;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= opts.warmup_s() + opts.seconds {
            break;
        }
        let measured = elapsed >= opts.warmup_s();
        let live = elapsed >= live_from;
        if measured && measure_from.is_none() {
            measure_from = Some(Instant::now());
        }
        let base = next;
        for client in fleet.clients.iter_mut() {
            for _ in 0..WINDOW {
                sent_at[next - base] = Instant::now();
                let inputs = payloads[next % payloads.len()].inputs.clone();
                if client.send_request(next as u64, inputs, None).is_err() {
                    failed += 1;
                }
                next += 1;
            }
        }
        for client in fleet.clients.iter_mut() {
            for _ in 0..WINDOW {
                let reply = client.recv();
                let received = Instant::now();
                if !measured {
                    continue;
                }
                attempted += 1;
                match reply {
                    Ok(ServerMsg::Reply(r))
                        if (r.id as usize) >= base && (r.id as usize) < next =>
                    {
                        let index = r.id as usize;
                        let sent = sent_at[index - base];
                        let s = Served {
                            index,
                            due: sent,
                            sent,
                            admitted: sent,
                            received,
                            server: r.latency,
                            batch_size: r.batch_size,
                            outputs: index.is_multiple_of(CHECK_EVERY).then_some(r.outputs),
                            live,
                        };
                        if live {
                            record(&s);
                        }
                        served.push(s);
                    }
                    _ => failed += 1,
                }
            }
        }
    }
    WindowResult {
        served,
        failed,
        attempted,
        began: measure_from.unwrap_or(start),
        stats: (before, fleet.server.stats()),
    }
}

/// Replays every kept reply's request alone through a batch-1 executor
/// and returns how many differ in any bit.
fn check_kept(w: &ServeWorkload, payloads: &[Request], served: &[Served]) -> (u64, u64) {
    let compiled = compile(&(w.spec.build)(1), &OptLevel::full()).expect("solo net compiles");
    let mut solo = Executor::with_registry(compiled, &KernelRegistry::with_builtins(), EXEC)
        .expect("solo executor");
    let mut checked = 0;
    let mut wrong = 0;
    for s in served {
        let Some(outputs) = &s.outputs else { continue };
        for (ensemble, values) in &payloads[s.index % payloads.len()].inputs {
            solo.set_input(ensemble, values).expect("solo input");
        }
        solo.forward();
        let same = outputs.iter().all(|(name, got)| {
            solo.read_item(name, 0).is_ok_and(|want| {
                want.len() == got.len()
                    && want
                        .iter()
                        .zip(got)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            })
        });
        checked += 1;
        if !same {
            wrong += 1;
        }
    }
    (checked, wrong)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What the client saw beyond the server's own submit-to-completion
/// time: the wire (tcp) or the reply hand-off (in process), ms.
fn beyond_server_ms(s: &Served) -> f64 {
    (ms(s.received - s.sent) - ms(s.server)).max(0.0)
}

/// Records one request's spans: request -> submit / server, the wire
/// (or, in process, generator lag and reply hand-off) being the
/// request span's own time.
fn record_spans(tracer: &mut Tracer, epoch: Instant, tcp: bool, s: &Served) {
    let us = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64() * 1e6;
    // Requests overlap; two tracks (even / odd) keep them readable.
    let track = (s.index % 2) as u32;
    let n_request = tracer.name("request");
    let n_submit = tracer.name("submit");
    let n_server = tracer.name("server");
    let outer = if tcp {
        "serve::net+runtime::frame"
    } else {
        "benchmark"
    };
    let root = tracer.span(n_request, outer, track, ROOT, us(s.due), us(s.received));
    if !tcp {
        tracer.span(
            n_submit,
            "serve::server(admit)",
            track,
            root,
            us(s.sent),
            us(s.admitted),
        );
    }
    // The server's span is known by its length only; over tcp it is
    // centred in the round trip, in process it ends at the hand-off.
    let end = us(s.received)
        - if tcp {
            0.5e3 * beyond_server_ms(s)
        } else {
            0.0
        };
    let start = (end - ms(s.server) * 1e3).max(us(s.admitted));
    tracer.span(
        n_server,
        "serve(queue+coalesce+execute)",
        track,
        root,
        start,
        end,
    );
}

pub fn run(w: &ServeWorkload, opts: &Opts, report: &mut Report) {
    let sig = nets::signature(
        &compile(&(w.spec.build)(1), &OptLevel::full()).expect("the served net compiles"),
    );
    let mut rng = Rng::new(opts.seed, 4);
    let mut digest = Digest::default();
    let payloads: Vec<Request> = (0..PAYLOADS)
        .map(|_| {
            let inputs = nets::sample(&sig, w.spec.classes, &mut rng);
            digest.batch(&inputs);
            Request { inputs }
        })
        .collect();
    report.exact("inputs_digest", digest.finish() & 0xffff_ffff_ffff);

    let (mut fleet, first_ms) = time_ms(|| set_up(w, &payloads));

    let mut tracer = Tracer::new();
    let epoch = Instant::now();
    let tcp = w.tcp;
    let mut record = |s: &Served| record_spans(&mut tracer, epoch, tcp, s);
    let result = if w.tcp {
        closed_loop(&mut fleet, &payloads, opts, &mut record)
    } else {
        open_loop(&fleet, &payloads, opts, &mut record)
    };

    let rss_mb = util::peak_rss_mb();

    let (checked, wrong) = check_kept(w, &payloads, &result.served);
    report.attempted += result.attempted;
    report.failed += result.failed + wrong;
    report.check(checked > 0, "no reply was kept for the bit-identity check");
    if wrong > 0 {
        report.violation(format!(
            "{wrong} of {checked} kept replies differ from a solo batch-1 run"
        ));
    }
    report.info("replies_checked_bitwise", checked as f64, "count");
    let misses = fleet.server.cache().misses();
    report.exact("plan_misses", misses);
    report.check(
        misses == CONFIG.max_batch as u64,
        format!("{misses} plan misses: the window recompiled"),
    );

    let units: Vec<Unit> = result
        .served
        .iter()
        .map(|s| Unit {
            ms: ms(s.received - s.due),
            done_s: s
                .received
                .saturating_duration_since(result.began)
                .as_secs_f64(),
        })
        .collect();
    let mut timing = util::summarize(&units);
    if !w.tcp {
        // An open loop serves what it is offered: a chunk's rate is its
        // arrivals', and only the whole window's says anything.
        timing.per_s = timing.window_per_s;
    }

    if opts.traced {
        traced_layers(w, opts, report, &fleet, &result, &payloads, &tracer);
        tear_down(fleet);
        return;
    }
    tear_down(fleet);
    report.timing(&timing, None);
    if !w.tcp {
        // Open-loop hygiene: a generator that ran late measured its own
        // lateness, not the server. Lag is summarized the way latency
        // is, so one host stall does not void the run.
        let lag: Vec<Unit> = units
            .iter()
            .zip(&result.served)
            .map(|(u, s)| Unit {
                ms: ms(s.sent - s.due),
                done_s: u.done_s,
            })
            .collect();
        let lag = util::summarize(&lag);
        report.info("generator_lag_ms_p99", lag.p99_ms, "ms");
        report.info("window_generator_lag_ms_p99", lag.window_p99_ms, "ms");
        if lag.p99_ms > 0.1 * timing.p50_ms {
            report.mark_unresolved("latency_ms_p50");
            report.mark_unresolved("latency_ms_p99");
        }
    }
    report.e2e("peak_rss_mb", rss_mb);
    crate::report_setups(report, opts, first_ms / 1e3, || {
        let (fleet, ms) = time_ms(|| set_up(w, &payloads));
        tear_down(fleet);
        ms / 1e3
    });
}

/// The traced run's per-layer numbers: the compiler and lowering cost
/// of the eight plans, direct probes of the plan cache, the engine and
/// the codec, and the decomposition of each request's latency.
fn traced_layers(
    w: &ServeWorkload,
    opts: &Opts,
    report: &mut Report,
    fleet: &Fleet,
    result: &WindowResult,
    payloads: &[Request],
    tracer: &Tracer,
) {
    // core / runtime::lower / plan: what set-up pays for the eight
    // plans, stage by stage, around the public calls the plan cache
    // itself makes.
    let mut stages = SetupStages::default();
    let mut allocated = 0;
    let pool = Arc::new(latte_runtime::pool::WorkerPool::new(1));
    for batch in 1..=CONFIG.max_batch {
        let (net, net_build_ms) = time_ms(|| (w.spec.build)(batch));
        let (compiled, compile_ms) =
            time_ms(|| compile(&net, &OptLevel::full()).expect("plan compiles"));
        let full = (batch == CONFIG.max_batch).then(|| compiled.clone());
        let (program, lower_ms) = time_ms(|| {
            CompiledProgram::lower(compiled, &KernelRegistry::with_builtins(), EXEC)
                .expect("plan lowers")
        });
        let (mut exec, instantiate_ms) = time_ms(|| {
            program
                .instantiate(Arc::clone(&pool))
                .expect("plan instantiates")
        });
        allocated += exec.allocated_elements();
        stages.add(SetupStages {
            net_build_ms,
            compile_ms,
            lower_ms,
            instantiate_ms,
        });

        // tensor::gemm and runtime::exec, on the full micro-batch.
        if let Some(compiled) = full {
            layers::report_compile_stats(&compiled, report);
            let shapes = layers::gemm_shapes(compiled.forward.iter(), batch);
            let (gemm_ms, ceiling) = layers::probe_gemms(&shapes, report);
            let forward_ms = median_ms(50, || exec.forward());
            let timed: Vec<f64> = (0..20)
                .map(|_| {
                    let (groups, phase) = time_ms(|| exec.forward_timed());
                    groups.iter().map(|(_, ms)| ms).sum::<f64>() / phase
                })
                .collect();
            let closure = median(timed);
            report.layer("gemm_ceiling_pct", ceiling);
            report.layer("forward_ms", forward_ms);
            report.layer("gemm_time_share", gemm_ms / forward_ms);
            report.layer("group_closure", closure);
            report.layer(
                "dispatch_us_per_group",
                1e3 * forward_ms * (1.0 - closure).max(0.0) / compiled.forward.len() as f64,
            );
        }
    }
    stages.report(report);
    report.exact("allocated_elements", allocated as u64);
    layers::probe_pool(report);

    // serve: direct probes of the plan cache and the batch engine.
    let probe_model = Arc::new(model(w));
    let probe_cache = Arc::new(PlanCache::new(EXEC));
    let mut engine = BatchEngine::new(Arc::clone(&probe_model), Arc::clone(&probe_cache), 1);
    let mut execute_ms = [0.0; CONFIG.max_batch + 1];
    for (batch, slot) in execute_ms.iter_mut().enumerate().skip(1) {
        let items: Vec<_> = payloads[..batch].iter().map(|r| r.inputs.clone()).collect();
        *slot = median_ms(40, || {
            engine.run(&items).expect("engine probe");
        });
        if [1, 4, 8].contains(&batch) {
            report.push(Kind::Layer, format!("execute_ms{{b={batch}}}"), *slot, "ms");
        }
    }
    let lookup_ms = median_ms(2000, || {
        probe_cache
            .get(&probe_model, CONFIG.max_batch)
            .expect("warm lookup");
    });
    report.layer("plan_lookup_us", lookup_ms * 1e3);

    // Per request: server_ms is the reply's own metadata; execute is
    // the probed cost of its batch size; the rest of server_ms is
    // queueing and coalescing. Taken over the calmest tenth of the
    // window, like the end-to-end figures, and as means: the parts are
    // bimodal (over tcp the second connection's batch queues behind the
    // first's, so coalesce is either ~0 or one execute), and medians of
    // bimodal parts do not add up to the median of the whole.
    let rtt: Vec<f64> = result
        .served
        .iter()
        .map(|s| ms(s.received - s.due))
        .collect();
    let served = &result.served[util::calmest_chunk(&rtt)];
    let over = |f: &dyn Fn(&Served) -> f64| util::mean(&served.iter().map(f).collect::<Vec<_>>());
    let execute = over(&|s| execute_ms[s.batch_size]);
    let coalesce = over(&|s| (ms(s.server) - execute_ms[s.batch_size]).max(0.0));
    let beyond = over(&beyond_server_ms);
    report.layer("server_ms", over(&|s| ms(s.server)));
    report.layer("execute_ms", execute);
    report.layer("queue_coalesce_ms", coalesce);
    report.layer("batch_size_mean", over(&|s| s.batch_size as f64));
    report.layer("wire_ms", if w.tcp { beyond } else { 0.0 });
    if !w.tcp {
        report.info("reply_handoff_ms", beyond, "ms");
    }
    let (before, after) = result.stats;
    report.info(
        "flush_size",
        (after.flush_size - before.flush_size) as f64,
        "count",
    );
    report.info(
        "flush_deadline",
        (after.flush_deadline - before.flush_deadline) as f64,
        "count",
    );
    report.info(
        "flush_drain",
        (after.flush_drain - before.flush_drain) as f64,
        "count",
    );
    report.info("max_depth", after.max_depth as f64, "count");
    let cache = fleet.server.cache();
    report.info("cache_hits", cache.hits() as f64, "count");
    report.info("cache_evictions", cache.evictions() as f64, "count");

    // serve::net + runtime::frame: the codec on the real payload.
    let (mut encode_us, mut decode_us) = (0.0, 0.0);
    if w.tcp {
        let request = ClientMsg::Request {
            id: 1,
            budget_us: 0,
            inputs: payloads[0].inputs.clone(),
        };
        encode_us = 1e3
            * median_ms(500, || {
                std::hint::black_box(encode_client(&request));
            });
        let reply = encode_server(&ServerMsg::Reply(latte_serve::NetReply {
            id: 1,
            seq: 1,
            outputs: result
                .served
                .iter()
                .find_map(|s| s.outputs.clone())
                .unwrap_or_default(),
            batch_size: CONFIG.max_batch,
            flush: latte_serve::FlushReason::Size,
            replica: 0,
            retried: 0,
            cache_hit: true,
            latency: Duration::from_millis(1),
        }));
        decode_us = 1e3
            * median_ms(500, || {
                std::hint::black_box(decode_server(&reply).expect("own reply decodes"));
            });
        report.info(
            "request_frame_bytes",
            encode_client(&request).len() as f64,
            "count",
        );
    }
    report.layer("encode_us", encode_us);
    report.layer("decode_us", decode_us);

    // The remainders are clamped at 0, so the sum overshoots the whole
    // exactly when the probed execute cost exceeds what the server
    // reported: that is what this check can catch.
    let whole = over(&|s| ms(s.received - s.due));
    let sum = coalesce + execute + if w.tcp { beyond } else { 0.0 };
    report.info("latency_ms_mean{calmest_chunk}", whole, "ms");
    if !opts.smoke {
        report.check(
            (sum - whole).abs() <= 0.15 * whole,
            format!(
                "closure: queue_coalesce_ms + execute_ms + wire_ms = {sum:.3} ms, \
                 mean latency = {whole:.3} ms"
            ),
        );
    }

    // Overhead of recording spans as requests complete: the window's
    // recorded part against its unrecorded first quarter.
    let half = |live: bool| {
        median(
            result
                .served
                .iter()
                .filter(|s| s.live == live)
                .map(|s| ms(s.received - s.due))
                .collect(),
        )
    };
    report.layer(
        "trace_overhead_pct",
        100.0 * (half(true) - half(false)) / half(false),
    );
    report.off_path(&[
        "backward_ms",
        "solver_ms",
        "comm_ms",
        "exposed_ms",
        "allreduce_ms",
        "bytes_per_step",
    ]);
    crate::finish_trace(tracer, report, |_| true);
}
