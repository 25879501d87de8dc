//! Elastic-membership placement helpers: rendezvous hashing over the
//! member set.
//!
//! Join re-homing needs an owner-of-record function with the *minimal
//! movement* property: when a member is added, the only directories whose
//! owner changes are those now owned by the new member — nothing shuffles
//! between surviving members. Rendezvous (highest-random-weight) hashing
//! gives exactly that: each `(dir, mds)` pair gets a deterministic weight
//! and the owner is the member with the highest weight, so adding a member
//! can only ever *win* pairs, never reorder the rest. The same function
//! drives drain-on-leave (exports go to the rendezvous owner among the
//! remaining members), keeping placement stable across a leave/join cycle.
//!
//! Everything here is pure integer hashing — no RNG streams, no floats —
//! so placement is a deterministic function of the member set.

use mantle_namespace::{MdsId, NodeId};

/// SplitMix64 finalizer: a full-avalanche 64-bit mixer.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The rendezvous weight of placing `dir` on `mds`.
fn weight(dir: NodeId, mds: MdsId) -> u64 {
    mix64((dir.0 as u64) << 32 | (mds as u64 + 1))
}

/// The owner-of-record of `dir` among `members` under rendezvous hashing:
/// the member with the highest `(dir, mds)` weight (ties — probability
/// ~2⁻⁶⁴ — break toward the lower id for determinism).
///
/// # Panics
/// Panics if `members` is empty.
pub fn rendezvous_owner(dir: NodeId, members: &[MdsId]) -> MdsId {
    assert!(!members.is_empty(), "rendezvous over an empty member set");
    let mut best = members[0];
    let mut best_w = weight(dir, best);
    for &m in &members[1..] {
        let w = weight(dir, m);
        if w > best_w {
            best = m;
            best_w = w;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owner_is_a_member() {
        for d in 0..200u32 {
            let owner = rendezvous_owner(NodeId(d), &[0, 2, 5]);
            assert!([0, 2, 5].contains(&owner));
        }
    }

    #[test]
    fn adding_a_member_moves_only_to_the_newcomer() {
        // The minimal-movement property at the hash level: growing the
        // member set never reshuffles dirs between surviving members.
        let before: Vec<MdsId> = vec![0, 1, 2];
        let after: Vec<MdsId> = vec![0, 1, 2, 3];
        let mut moved = 0;
        for d in 0..2_000u32 {
            let a = rendezvous_owner(NodeId(d), &before);
            let b = rendezvous_owner(NodeId(d), &after);
            if a != b {
                assert_eq!(b, 3, "dir {d} moved between survivors");
                moved += 1;
            }
        }
        // Roughly a quarter should land on the newcomer.
        assert!((300..700).contains(&moved), "moved {moved}/2000");
    }

    #[test]
    fn removing_a_member_strands_nothing_on_it() {
        let before: Vec<MdsId> = vec![0, 1, 2, 3];
        let after: Vec<MdsId> = vec![0, 1, 2];
        for d in 0..2_000u32 {
            let a = rendezvous_owner(NodeId(d), &before);
            let b = rendezvous_owner(NodeId(d), &after);
            if a != 3 {
                assert_eq!(a, b, "dir {d} moved although its owner stayed");
            } else {
                assert_ne!(b, 3);
            }
        }
    }

    #[test]
    fn deterministic() {
        for d in [0u32, 7, 999] {
            assert_eq!(
                rendezvous_owner(NodeId(d), &[1, 4]),
                rendezvous_owner(NodeId(d), &[1, 4])
            );
        }
    }
}
