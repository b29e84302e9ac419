//! Integration tests for the real communicator: ring all-reduce over the
//! in-process channel transport, fault injection through
//! `FaultyTransport`, ring healing, and the CRC negative control.

use std::sync::Arc;

use latte_runtime::error::RuntimeError;
use latte_runtime::fault::{Fault, FaultPlan, FaultRates, FaultyTransport};
use latte_runtime::metrics::FaultMetricsSnapshot;
use latte_runtime::ring::{reference_allreduce, BucketReport, CommPolicy, RingComm};
use latte_runtime::transport::{channel_group, channel_group_with, Endpoint, Transport, Wire};

/// A deadline policy tuned for loopback tests: fast enough that eviction
/// paths finish in tens of milliseconds, generous enough that healthy
/// exchanges never time out spuriously.
fn fast_policy() -> CommPolicy {
    CommPolicy {
        op_timeout_ms: 400,
        max_retries: 2,
        backoff_base_ms: 1.0,
        backoff_cap_ms: 5.0,
        jitter: 0.1,
        lossy_timeout_ms: 150,
        ..CommPolicy::default()
    }
}

/// A deliberately uneven gradient per rank; length 13 gives ragged
/// chunks for every world size used here.
fn grad_for(rank: usize) -> Vec<f32> {
    (0..13)
        .map(|i| (i as f32 + 1.0) * (rank as f32 + 1.0) + 0.25 * rank as f32)
        .collect()
}

struct RankRun {
    rank: usize,
    /// The gradient after the last successful all-reduce.
    merged: Vec<f32>,
    reports: Vec<Result<BucketReport, RuntimeError>>,
    metrics: FaultMetricsSnapshot,
}

impl RankRun {
    fn last_ok(&self) -> &BucketReport {
        self.reports
            .iter()
            .rev()
            .find_map(|r| r.as_ref().ok())
            .unwrap_or_else(|| panic!("rank {} has no successful bucket", self.rank))
    }
}

/// Runs `steps` all-reduces (step s, bucket 0) on every endpoint in its
/// own thread, each step starting from that rank's pristine gradient.
fn run_ring<W: Wire>(endpoints: Vec<Endpoint<W>>, policy: CommPolicy, steps: u32) -> Vec<RankRun> {
    let handles: Vec<_> = endpoints
        .into_iter()
        .enumerate()
        .map(|(rank, ep)| {
            let policy = policy.clone();
            std::thread::spawn(move || {
                let metrics = Arc::clone(ep.metrics());
                let mut ring = RingComm::new(Box::new(ep), policy).expect("valid policy");
                let grad = grad_for(rank);
                let mut merged = grad.clone();
                let mut reports = Vec::new();
                for s in 0..steps {
                    let mut g = grad.clone();
                    match ring.allreduce(s, 0, &mut g) {
                        Ok(r) => {
                            reports.push(Ok(r));
                            merged = g;
                        }
                        Err(e) => {
                            reports.push(Err(e));
                            break;
                        }
                    }
                }
                RankRun {
                    rank,
                    merged,
                    reports,
                    metrics: metrics.snapshot(),
                }
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("rank thread panicked"))
        .collect()
}

fn reference_over(ranks: &[usize]) -> Vec<f32> {
    let parts: Vec<Vec<f32>> = ranks.iter().map(|&r| grad_for(r)).collect();
    reference_allreduce(&parts)
}

#[test]
fn four_node_channel_allreduce_matches_reference() {
    let endpoints = channel_group(4).unwrap();
    let runs = run_ring(endpoints, fast_policy(), 1);
    let expect = reference_over(&[0, 1, 2, 3]);
    for run in &runs {
        assert_eq!(
            run.merged, expect,
            "rank {} must match the serial rotated fold bit-for-bit",
            run.rank
        );
        let rep = run.last_ok();
        assert_eq!(rep.live, 4);
        assert_eq!(rep.restarts, 0);
        assert!(rep.evicted.is_empty());
    }
    let reduced: u64 = runs.iter().map(|r| r.metrics.bytes_reduced).sum();
    assert!(reduced > 0, "reduce-scatter must account its bytes");
}

#[test]
fn corrupted_transfer_is_retried_then_exact() {
    // Rank 1's first reduce-scatter frame of (step 0, bucket 0) arrives
    // at rank 2 with a flipped payload; the CRC catches it, rank 2
    // requests a resend, and the retry (attempt 1, no fault entry) goes
    // through clean — the merged result must still be exact.
    let plan = FaultPlan::new(vec![Fault::TransferCorrupt {
        node: 1,
        iter: 0,
        layer: 0,
    }]);
    let endpoints = channel_group_with(4, |rank, wire| {
        FaultyTransport::new(
            rank,
            if rank == 1 {
                plan.clone()
            } else {
                FaultPlan::none()
            },
            wire,
        )
    })
    .unwrap();
    let runs = run_ring(endpoints, fast_policy(), 1);
    let expect = reference_over(&[0, 1, 2, 3]);
    for run in &runs {
        assert_eq!(run.merged, expect, "rank {} diverged", run.rank);
        assert!(run.last_ok().evicted.is_empty());
    }
    let corrupted: u64 = runs.iter().map(|r| r.metrics.transfers_corrupted).sum();
    let retries: u64 = runs.iter().map(|r| r.metrics.retries).sum();
    let resends: u64 = runs.iter().map(|r| r.metrics.send_retries).sum();
    assert!(corrupted >= 1, "the flipped frame must be counted");
    assert!(retries >= 1, "the receiver must have retried");
    assert!(resends >= 1, "the sender must have serviced a resend");
}

#[test]
fn corruption_beyond_budget_evicts_the_sender() {
    // Every retry of rank 1's targeted frame is corrupted too, so the
    // receiver's budget (max_retries = 2) runs out and rank 1 is evicted;
    // the survivors heal and finish lossy.
    let plan = FaultPlan::new(vec![
        Fault::TransferCorrupt {
            node: 1,
            iter: 0,
            layer: 0
        };
        4
    ]);
    let endpoints = channel_group_with(4, |rank, wire| {
        FaultyTransport::new(
            rank,
            if rank == 1 {
                plan.clone()
            } else {
                FaultPlan::none()
            },
            wire,
        )
    })
    .unwrap();
    let runs = run_ring(endpoints, fast_policy(), 1);
    let expect = reference_over(&[0, 2, 3]);
    for run in &runs {
        if run.rank == 1 {
            continue; // the evicted rank may finish solo or error out
        }
        assert_eq!(run.merged, expect, "survivor {} diverged", run.rank);
        let rep = run.last_ok();
        assert_eq!(rep.live, 3);
        assert!(rep.restarts >= 1, "healing requires a bucket restart");
    }
    let evicted: u64 = runs.iter().map(|r| r.metrics.peers_evicted).sum();
    assert!(evicted >= 1, "rank 1 must be counted as evicted");
}

#[test]
fn dropped_transfer_times_out_and_resends() {
    let plan = FaultPlan::new(vec![Fault::TransferDrop {
        node: 2,
        iter: 0,
        layer: 0,
    }]);
    let mut policy = fast_policy();
    policy.op_timeout_ms = 150; // make the drop's timeout cheap
    let endpoints = channel_group_with(4, |rank, wire| {
        FaultyTransport::new(
            rank,
            if rank == 2 {
                plan.clone()
            } else {
                FaultPlan::none()
            },
            wire,
        )
    })
    .unwrap();
    let runs = run_ring(endpoints, policy, 1);
    let expect = reference_over(&[0, 1, 2, 3]);
    for run in &runs {
        assert_eq!(run.merged, expect, "rank {} diverged", run.rank);
    }
    let timeouts: u64 = runs.iter().map(|r| r.metrics.timeouts).sum();
    let resends: u64 = runs.iter().map(|r| r.metrics.send_retries).sum();
    assert!(timeouts >= 1, "the dropped frame must time out");
    assert!(resends >= 1, "the resend request must be serviced");
}

#[test]
fn both_ranks_resend_at_once() {
    // Each rank of a pair loses its first frame of the bucket. The first
    // to time out asks for a resend and tells the other it is busy; the
    // busy signal makes the other ask for its own frame at once. Each
    // rank services the other's request on the requester's thread, the
    // frame coming back through its own wire while the requester's
    // request is still in flight. The step must complete, exactly, with
    // nobody evicted.
    let drop_first = |node| Fault::TransferDrop {
        node,
        iter: 0,
        layer: 0,
    };
    let plan = FaultPlan::new(vec![drop_first(0), drop_first(1)]);
    let mut policy = fast_policy();
    policy.op_timeout_ms = 150;
    let endpoints = channel_group_with(2, |rank, wire| {
        FaultyTransport::new(rank, plan.clone(), wire)
    })
    .unwrap();
    let runs = run_ring(endpoints, policy, 1);
    let expect = reference_over(&[0, 1]);
    for run in &runs {
        assert_eq!(run.merged, expect, "rank {} diverged", run.rank);
        assert!(
            run.last_ok().evicted.is_empty(),
            "rank {} evicted someone",
            run.rank
        );
        assert!(
            run.metrics.send_retries >= 1,
            "rank {} must re-send its frame",
            run.rank
        );
    }
    let timeouts: u64 = runs.iter().map(|r| r.metrics.timeouts).sum();
    assert!(timeouts >= 1, "a lost frame must time out");
}

#[test]
fn node_crash_heals_the_ring_to_lossy() {
    let plan = FaultPlan::new(vec![Fault::NodeCrash { node: 3, iter: 0 }]);
    let endpoints = channel_group_with(4, |rank, wire| {
        FaultyTransport::new(
            rank,
            if rank == 3 {
                plan.clone()
            } else {
                FaultPlan::none()
            },
            wire,
        )
    })
    .unwrap();
    let runs = run_ring(endpoints, fast_policy(), 1);
    let expect = reference_over(&[0, 1, 2]);
    for run in runs.iter().filter(|r| r.rank != 3) {
        assert_eq!(run.merged, expect, "survivor {} diverged", run.rank);
        let rep = run.last_ok();
        assert_eq!(rep.live, 3);
        assert_eq!(
            rep.mode,
            latte_runtime::cluster::SyncMode::LossyDegraded,
            "a shrunken ring must degrade"
        );
    }
    let evicted: u64 = runs.iter().map(|r| r.metrics.peers_evicted).sum();
    assert!(evicted >= 1);
}

#[test]
fn two_node_ring_heals_to_solo() {
    let plan = FaultPlan::new(vec![Fault::NodeCrash { node: 1, iter: 0 }]);
    let endpoints = channel_group_with(2, |rank, wire| {
        FaultyTransport::new(
            rank,
            if rank == 1 {
                plan.clone()
            } else {
                FaultPlan::none()
            },
            wire,
        )
    })
    .unwrap();
    let runs = run_ring(endpoints, fast_policy(), 1);
    let survivor = &runs[0];
    // Solo all-reduce is the identity: the gradient comes back untouched.
    assert_eq!(survivor.merged, grad_for(0));
    let rep = survivor.last_ok();
    assert_eq!(rep.live, 1);
    assert_eq!(rep.mode, latte_runtime::cluster::SyncMode::LossyDegraded);
    assert!(rep.evicted.contains(&1));
    assert_eq!(survivor.metrics.peers_evicted, 1);
}

#[test]
fn two_simultaneous_nonadjacent_deaths_heal() {
    // Ranks 1 and 3 of a 4-ring die at once: the survivors 0 and 2 are
    // non-adjacent in the old ring and must re-form a 2-ring.
    let p1 = FaultPlan::new(vec![Fault::NodeCrash { node: 1, iter: 0 }]);
    let p3 = FaultPlan::new(vec![Fault::NodeCrash { node: 3, iter: 0 }]);
    let endpoints = channel_group_with(4, move |rank, wire| {
        let plan = match rank {
            1 => p1.clone(),
            3 => p3.clone(),
            _ => FaultPlan::none(),
        };
        FaultyTransport::new(rank, plan, wire)
    })
    .unwrap();
    let runs = run_ring(endpoints, fast_policy(), 1);
    let expect = reference_over(&[0, 2]);
    for run in runs.iter().filter(|r| r.rank == 0 || r.rank == 2) {
        assert_eq!(run.merged, expect, "survivor {} diverged", run.rank);
        assert_eq!(run.last_ok().live, 2);
    }
}

#[test]
fn mid_reduce_scatter_death_does_not_double_count() {
    // Rank 2 dies after sending exactly one reduce-scatter frame. Its
    // right neighbor has already folded that partial chunk; healing must
    // restart the bucket from pristine gradients, so the survivors'
    // result is *exactly* the mean over {0, 1, 3} — any double-count of
    // the folded partial would break bitwise equality.
    let endpoints = channel_group_with(4, |rank, wire| {
        let ft = FaultyTransport::new(rank, FaultPlan::none(), wire);
        if rank == 2 {
            ft.with_crash_after_sends(1)
        } else {
            ft
        }
    })
    .unwrap();
    let runs = run_ring(endpoints, fast_policy(), 1);
    let expect = reference_over(&[0, 1, 3]);
    for run in runs.iter().filter(|r| r.rank != 2) {
        assert_eq!(
            run.merged, expect,
            "survivor {} must not double-count the partial chunk",
            run.rank
        );
        assert!(run.last_ok().restarts >= 1);
    }
}

#[test]
fn straggler_is_flagged_by_the_ewma_detector() {
    // Rank 1 turns 30x slower from step 4 onward; its neighbor's EWMA
    // (armed after 3 clean receives) must flag it.
    let plan = FaultPlan::new(vec![Fault::Straggler {
        node: 1,
        from_iter: 4,
        to_iter: 100,
        factor: 30.0,
    }]);
    let endpoints = channel_group_with(2, |rank, wire| {
        FaultyTransport::new(
            rank,
            if rank == 1 {
                plan.clone()
            } else {
                FaultPlan::none()
            },
            wire,
        )
        .with_straggle_unit(std::time::Duration::from_millis(1))
    })
    .unwrap();
    let runs = run_ring(endpoints, fast_policy(), 8);
    let flags: u64 = runs.iter().map(|r| r.metrics.stragglers_detected).sum();
    assert!(flags >= 1, "the 30x slowdown must trip the EWMA detector");
    // Slow is not dead: nobody gets evicted for merely straggling.
    assert_eq!(runs.iter().map(|r| r.metrics.peers_evicted).sum::<u64>(), 0);
}

/// Randomized fault sweep, gated behind `LATTE_FAULT_SWEEP=1` (nightly
/// CI): random plans must never panic, deadlock, or leave the metrics
/// inconsistent with the outcome.
#[test]
fn randomized_transport_fault_sweep() {
    if std::env::var("LATTE_FAULT_SWEEP").is_err() {
        return;
    }
    let rates = FaultRates {
        crash: 0.05,
        ..FaultRates::default()
    };
    for seed in 0..6u64 {
        let world = 3 + (seed as usize % 2); // 3 or 4 nodes
        let plan = FaultPlan::random(seed, world, 3, 1, &rates);
        let endpoints = channel_group_with(world, |rank, wire| {
            FaultyTransport::new(rank, plan.clone(), wire)
                .with_straggle_unit(std::time::Duration::from_millis(1))
        })
        .unwrap();
        let runs = run_ring(endpoints, fast_policy(), 3);
        for run in &runs {
            for rep in run.reports.iter().flatten() {
                assert!(
                    rep.live >= 1 && rep.live <= world,
                    "seed {seed}: implausible live count {}",
                    rep.live
                );
                if !rep.evicted.is_empty() {
                    assert_eq!(
                        rep.mode,
                        latte_runtime::cluster::SyncMode::LossyDegraded,
                        "seed {seed}: eviction must degrade the ring"
                    );
                }
                for v in &run.merged {
                    assert!(v.is_finite(), "seed {seed}: non-finite merged gradient");
                }
            }
            let m = &run.metrics;
            if m.peers_evicted > 0 {
                assert!(
                    m.peers_evicted > 0 || m.timeouts > 0 || m.transfers_corrupted > 0,
                    "seed {seed}: evictions need a recorded cause"
                );
            }
        }
    }
}
