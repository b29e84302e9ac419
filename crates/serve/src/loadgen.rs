//! The adversarial-client vocabulary for reproducible chaos runs.
//!
//! Which clients misbehave, and how, is decided *before* observing any
//! response — a pure function of a seed — so an adversarial run against
//! the network front-end is exactly reproducible.

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
