//! Dynamic shapes end to end: a warm bucket ladder serves a mixed-length
//! stream in real micro-batches without ever reaching the compiler, and
//! every reply equals a dedicated fixed-length unroll bit for bit.
//!
//! `seq::tests` covers admission and routing but only ever flushes one
//! request at a time. Here `max_delay` is a minute, so batches form by
//! size (or by the explicit tail flush) alone: their composition is a
//! function of the seeded stream, not of the clock.

use std::collections::HashMap;
use std::time::Duration;

use latte_core::dsl::Net;
use latte_core::{compile, OptLevel};
use latte_nn::layers::{data, fully_connected, softmax_loss};
use latte_nn::rnn::lstm;
use latte_runtime::Executor;
use latte_serve::{zoo, FlushReason, SeqRequest, SeqServer, ServeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Longest sequence served: the ladder is 1, 2, 4, 8.
const MAX_LEN: usize = 8;
const MAX_BATCH: usize = 4;
const STREAM: usize = 48;
const WAIT: Duration = Duration::from_secs(60);

/// The oracle: the zoo's LSTM unit and head (same seeds, so the same
/// parameters) unrolled to exactly `len` steps at batch 1 — no bucket,
/// no padding, no mask.
fn solo_unroll(len: usize) -> Executor {
    let mut step = Net::new(1);
    let x = data(&mut step, "x", vec![zoo::SEQ_WIDTH]);
    lstm(&mut step, "lstm", x, 4, 19);
    let mut net = step.unroll(len);
    let last = net
        .find(&format!("lstm_h@t{}", len - 1))
        .expect("last hidden state");
    let head = fully_connected(&mut net, "head", last, 3, 20);
    let label = data(&mut net, "label", vec![1]);
    softmax_loss(&mut net, "loss", head, label);
    Executor::new(compile(&net, &OptLevel::full()).expect("solo compile")).expect("solo executor")
}

fn solo_reply(exec: &mut Executor, req: &SeqRequest) -> Vec<f32> {
    for (t, step) in req.steps.iter().enumerate() {
        exec.set_input(&format!("x@t{t}"), step)
            .expect("solo step input");
    }
    for (name, values) in &req.extra {
        exec.set_input(name, values).expect("solo extra input");
    }
    exec.forward();
    exec.read_item("head.value", 0).expect("solo output")
}

#[test]
fn a_warm_ladder_serves_mixed_lengths_in_micro_batches_without_recompiling() {
    let server = SeqServer::start(
        zoo::seq_model(MAX_LEN).expect("seq model registration"),
        ServeConfig {
            max_batch: MAX_BATCH,
            max_delay: WAIT,
            queue_cap: STREAM,
            ..ServeConfig::default()
        },
    );
    let ladder = server.model().buckets().to_vec();
    assert_eq!(ladder, [1, 2, 4, 8]);

    // Warm every (bucket, batch) pair with exact-length traffic.
    for &bucket in &ladder {
        for size in 1..=MAX_BATCH {
            let tickets: Vec<_> = (0..size)
                .map(|i| {
                    let seed = (size as u64) << 32 | i as u64;
                    server
                        .submit(&zoo::seq_sample(bucket, seed))
                        .expect("warmup submit")
                })
                .collect();
            server.flush();
            for t in tickets {
                let resp = t.wait_timeout(WAIT).expect("warmup response");
                assert_eq!(
                    resp.meta.batch_size, size,
                    "bucket {bucket} warmed at the wrong size"
                );
                assert!(
                    !resp.meta.cache_hit,
                    "bucket {bucket} batch {size} was already lowered"
                );
            }
        }
    }
    let warm_misses = server.cache().misses();
    assert_eq!(warm_misses, (ladder.len() * MAX_BATCH) as u64);
    assert_eq!(
        server.bucket_spills(),
        0,
        "exact-length warmup must not spill"
    );
    let warm_routed = server.routed();

    // The stream: lengths uniform over 1..=MAX_LEN, so most requests pad
    // into a larger bucket.
    let mut rng = StdRng::seed_from_u64(23);
    let stream: Vec<SeqRequest> = (0..STREAM)
        .map(|_| {
            let len = rng.gen_range(1..MAX_LEN + 1);
            zoo::seq_sample(len, rng.gen_range(0..u64::MAX))
        })
        .collect();
    let tickets: Vec<_> = stream
        .iter()
        .map(|req| server.submit(req).expect("stream submit"))
        .collect();
    server.flush();

    let mut solos: HashMap<usize, Executor> = HashMap::new();
    let mut spills = 0u64;
    let mut routed = vec![0u64; ladder.len()];
    let mut batch_sizes = Vec::with_capacity(STREAM);
    for (req, ticket) in stream.iter().zip(tickets) {
        let len = req.steps.len();
        let route = ticket.route();
        assert_eq!((route.len, route.bucket), (len, len.next_power_of_two()));
        spills += route.spilled as u64;
        routed[route.bucket_index] += 1;
        let resp = ticket.wait_timeout(WAIT).expect("stream response");
        assert!(
            resp.meta.cache_hit,
            "len {len} batch {} recompiled",
            resp.meta.batch_size
        );
        assert_ne!(
            resp.meta.flush,
            FlushReason::Deadline,
            "the clock must not shape batches"
        );
        batch_sizes.push(resp.meta.batch_size);

        let want = solo_reply(solos.entry(len).or_insert_with(|| solo_unroll(len)), req);
        let got = &resp.outputs[0].1;
        assert_eq!(got.len(), want.len());
        for (i, (a, b)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "len {len} output[{i}]: served {a} vs solo {b}"
            );
        }
    }

    assert_eq!(
        server.cache().misses(),
        warm_misses,
        "a warm ladder must never recompile"
    );
    let boundary = stream
        .iter()
        .filter(|r| r.steps.len().is_power_of_two())
        .count();
    assert_eq!(spills, (STREAM - boundary) as u64);
    assert!(
        spills > 0 && boundary > 0,
        "the stream must mix boundary and padded lengths"
    );
    assert_eq!(server.bucket_spills(), spills);
    let served: Vec<u64> = server
        .routed()
        .iter()
        .zip(&warm_routed)
        .map(|(a, w)| a - w)
        .collect();
    assert_eq!(served, routed);
    // 48 requests over 4 buckets cannot all ride alone: full batches
    // flushed by size, and the explicit flush carried the tails.
    assert_eq!(batch_sizes.iter().max(), Some(&MAX_BATCH));
    assert!(
        batch_sizes.iter().any(|&b| b < MAX_BATCH),
        "no tail batch was exercised"
    );
}
