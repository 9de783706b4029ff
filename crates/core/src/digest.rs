//! The delivery digest: one order-sensitive hash per lane of what one
//! source hands one destination in one superstep.
//!
//! Every backend delivers a source's superstep of traffic as one inbox
//! segment, in send order ([`crate::context::ProcTransport::exchange`]),
//! so the digest a sender takes of its buffer and the digest the receiver
//! takes of the segment agree exactly when the traffic arrived intact, in
//! order and in the right superstep. The hardened guard
//! ([`crate::fault`]) carries the sender's digests in its frames; the
//! checker ([`crate::check`]) compares them per (superstep, destination,
//! source). Neither wrapper is in the stack of an unchecked, unhardened run.

use crate::packet::Packet;

const PRIME1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME2: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// Packet lane: one xor-multiply step per packet over its two words. The
/// lane moves hundreds of millions of packets per second, and this fold
/// costs about a third of [`byte_hash`] over the same 16 bytes.
pub(crate) fn pkt_digest(pkts: &[Packet]) -> u64 {
    pkts.iter().fold(PRIME2, |h, p| {
        let (a, b) = p.as_two_u64();
        (h ^ a.rotate_left(1).wrapping_add(b ^ PRIME2)).wrapping_mul(PRIME1)
    })
}

/// Byte lane: an xxhash-style sequential mixing hash, seeded with the
/// length, so it also catches reordered byte-lane records, not just
/// flipped bits.
pub(crate) fn byte_hash(bytes: &[u8]) -> u64 {
    let mut h = PRIME2 ^ (bytes.len() as u64);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let v = u64::from_le_bytes(fixed(c));
        h = (h ^ v.wrapping_mul(PRIME1))
            .rotate_left(27)
            .wrapping_mul(PRIME1)
            .wrapping_add(PRIME2);
    }
    for &b in chunks.remainder() {
        h = (h ^ (b as u64).wrapping_mul(PRIME1))
            .rotate_left(11)
            .wrapping_mul(PRIME2);
    }
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME1);
    h ^ (h >> 32)
}

/// The first `N` bytes of `bytes`: a fixed-width field, for the caller to
/// decode with `from_le_bytes`. Every caller has already checked that the
/// field is there — a `chunks_exact(N)` chunk, or an offset inside a header
/// whose length was compared against the header size — so the copy cannot
/// come up short (a short slice would panic at the index).
pub(crate) fn fixed<const N: usize>(bytes: &[u8]) -> [u8; N] {
    let mut field = [0; N];
    field.copy_from_slice(&bytes[..N]);
    field
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pkt_digest_is_order_content_and_length_sensitive() {
        let (a, b) = (Packet::two_u64(1, 2), Packet::two_u64(3, 4));
        let d = pkt_digest(&[a, b]);
        assert_ne!(d, pkt_digest(&[b, a]), "order");
        assert_ne!(d, pkt_digest(&[a, a]), "content");
        assert_ne!(d, pkt_digest(&[a, Packet::two_u64(3, 5)]), "one bit");
        assert_ne!(d, pkt_digest(&[a]), "length");
        assert_ne!(d, pkt_digest(&[a, b, Packet::ZERO]), "trailing zero");
        assert_ne!(pkt_digest(&[]), pkt_digest(&[Packet::ZERO]), "[] vs [ZERO]");
        assert_ne!(pkt_digest(&[Packet::ZERO]), pkt_digest(&[Packet::ZERO; 2]));
        assert_eq!(d, pkt_digest(&[a, b]), "deterministic");
        // The checker's ledger starts at zero: no empty lane digests to it.
        assert!(pkt_digest(&[]) != 0 && byte_hash(&[]) != 0);
    }
}
