//! The adversarial-client vocabulary for reproducible chaos runs.
//!
//! Which clients misbehave, and how, is decided *before* observing any
//! response — a pure function of a seed or of a training-side fault
//! plan — so an adversarial run against the network front-end is exactly
//! reproducible.

use latte_runtime::fault::{FaultPlan, TransferFault};

/// splitmix64: tiny, seedable, and good enough for picking misbehaviors
/// and demo inputs.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One misbehaving client for the adversarial load mode: each variant
/// is a protocol-level attack the network front-end must absorb with a
/// structured error or a shed counter — never a hang, panic, or leaked
/// resource. [`crate::net::run_adversary`] drives one of these against
/// a live front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Misbehavior {
    /// Connect and never write a byte — the slow-loris client. The
    /// front-end's read timeout must reclaim the connection.
    HoldOpen,
    /// Complete the handshake, write a frame's length prefix and part
    /// of its body, then vanish. The front-end must detect the
    /// truncated stream and clean up.
    MidFrameDisconnect,
    /// Send a well-formed request frame with one payload bit flipped,
    /// so the CRC trailer no longer matches. The front-end must answer
    /// with a structured bad-frame error and close.
    CorruptCrc,
    /// Send a burst of requests whose deadline budget is already as
    /// good as spent. Every one must be rejected at admission or shed
    /// at flush — none may execute.
    PastDeadlineFlood {
        /// Requests in the flood.
        requests: usize,
    },
}

/// A seeded mix of `n` misbehaviors: a pure function of `(n, seed,
/// flood)`, so an adversarial run is exactly reproducible. `flood` is
/// the burst size given to every [`Misbehavior::PastDeadlineFlood`].
pub fn misbehaviors(n: usize, seed: u64, flood: usize) -> Vec<Misbehavior> {
    let mut state = seed ^ 0x5a5a_a5a5_0f0f_f0f0;
    (0..n)
        .map(|_| match splitmix64(&mut state) % 4 {
            0 => Misbehavior::HoldOpen,
            1 => Misbehavior::MidFrameDisconnect,
            2 => Misbehavior::CorruptCrc,
            _ => Misbehavior::PastDeadlineFlood { requests: flood },
        })
        .collect()
}

/// Derives an adversarial client schedule from a training-side
/// [`FaultPlan`], reusing the repo's one seeded fault vocabulary for
/// the serving chaos mode: a dropped transfer becomes a mid-frame
/// disconnect, a corrupted transfer a bad-CRC frame, a straggler phase
/// a hold-open slow-loris, and a node crash a past-deadline flood of
/// `flood` requests (the client that died holding a full send queue).
/// Iterations where the plan schedules nothing contribute nothing.
pub fn misbehaviors_from_plan(
    plan: &FaultPlan,
    node: usize,
    iters: usize,
    flood: usize,
) -> Vec<Misbehavior> {
    let mut out = Vec::new();
    for iter in 0..iters {
        for fault in plan.transfer_faults(node, iter, 0) {
            out.push(match fault {
                TransferFault::Dropped => Misbehavior::MidFrameDisconnect,
                TransferFault::Corrupted => Misbehavior::CorruptCrc,
            });
        }
        if plan.straggle_factor(node, iter) > 1.0 {
            out.push(Misbehavior::HoldOpen);
        }
        if plan.crashed_by(node, iter) {
            out.push(Misbehavior::PastDeadlineFlood { requests: flood });
            break; // a crashed node sends nothing further
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use latte_runtime::fault::FaultRates;

    #[test]
    fn misbehavior_mixes_are_seeded_and_cover_every_variant() {
        let a = misbehaviors(64, 9, 5);
        assert_eq!(a, misbehaviors(64, 9, 5), "not reproducible");
        assert_ne!(a, misbehaviors(64, 10, 5), "seed ignored");
        for want in [
            Misbehavior::HoldOpen,
            Misbehavior::MidFrameDisconnect,
            Misbehavior::CorruptCrc,
            Misbehavior::PastDeadlineFlood { requests: 5 },
        ] {
            assert!(a.contains(&want), "64 draws never produced {want:?}");
        }
    }

    #[test]
    fn plan_derived_misbehaviors_are_deterministic_and_stop_at_the_crash() {
        let rates = FaultRates {
            crash: 0.2,
            straggle: 0.3,
            transfer_drop: 0.3,
            transfer_corrupt: 0.3,
            ..FaultRates::default()
        };
        let plan = FaultPlan::random(11, 2, 40, 1, &rates);
        let a = misbehaviors_from_plan(&plan, 0, 40, 8);
        assert_eq!(a, misbehaviors_from_plan(&plan, 0, 40, 8));
        assert!(!a.is_empty(), "a 40-iteration plan at these rates misbehaves");
        // Nothing follows a flood: the crashed client is gone.
        if let Some(pos) = a
            .iter()
            .position(|m| matches!(m, Misbehavior::PastDeadlineFlood { .. }))
        {
            assert_eq!(pos, a.len() - 1);
        }
    }
}
