//! Property tests of the payload algebra: slicing, chunking,
//! concatenation and digesting must behave like operations on a real byte
//! string, for both real-byte and synthetic payloads. Every transport and
//! snapshot format in the workspace leans on these laws.

use phi_platform::{Payload, Segment};
use proptest::prelude::*;

/// A payload mixing real and synthetic segments.
fn mixed_payload() -> impl Strategy<Value = Payload> {
    prop::collection::vec(
        prop_oneof![
            prop::collection::vec(any::<u8>(), 0..64).prop_map(Payload::bytes),
            (any::<u64>(), 0u64..10_000).prop_map(|(tag, len)| Payload::synthetic(tag, len)),
        ],
        0..8,
    )
    .prop_map(Payload::concat)
}

/// A payload built from runs of *mergeable* neighbours — contiguous
/// pieces of one synthetic extent, back-to-back real-byte pieces — with
/// zero-length pieces of both kinds in between.
fn mergeable_payload() -> impl Strategy<Value = Payload> {
    let byte_run = prop::collection::vec(prop::collection::vec(any::<u8>(), 0..24), 1..5)
        .prop_map(|pieces| pieces.into_iter().map(Payload::bytes).collect::<Vec<_>>());
    let extent_run = (0u64..3, 0u64..100, prop::collection::vec(0u64..40, 1..5)).prop_map(
        |(tag, start, lens)| {
            let whole = Payload::synthetic(tag, start + lens.iter().sum::<u64>());
            let mut at = start;
            let mut pieces = vec![Payload::synthetic(tag, 0), Payload::bytes(Vec::new())];
            for len in lens {
                pieces.push(whole.slice(at, len));
                at += len;
            }
            pieces
        },
    );
    prop::collection::vec(prop_oneof![byte_run, extent_run], 0..8)
        .prop_map(|runs| Payload::concat(runs.into_iter().flatten()))
}

/// The canonical form as it was first written — fold the segments left
/// to right, merging each into its predecessor where the two are
/// mergeable — on plain owned values.
#[derive(Debug, PartialEq)]
enum Canon {
    Bytes(Vec<u8>),
    Extent(u64, u64, u64),
}

fn reference_canon(p: &Payload) -> Vec<Canon> {
    let mut out: Vec<Canon> = Vec::new();
    for seg in p.segments() {
        if seg.is_empty() {
            continue;
        }
        match (out.last_mut(), seg) {
            (Some(Canon::Extent(t1, o1, l1)), Segment::Synthetic { tag, offset, len })
                if *t1 == *tag && *o1 + *l1 == *offset =>
            {
                *l1 += *len
            }
            (Some(Canon::Bytes(b1)), Segment::Bytes(b2)) => b1.extend_from_slice(b2),
            (_, Segment::Bytes(b)) => out.push(Canon::Bytes(b.to_vec())),
            (_, Segment::Synthetic { tag, offset, len }) => {
                out.push(Canon::Extent(*tag, *offset, *len))
            }
        }
    }
    out
}

/// FNV-1a over a canonical form, segment by segment: what `digest()`
/// computed when it materialised `normalize()` first.
fn reference_digest(canon: &[Canon]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x100000001b3);
        }
    };
    for seg in canon {
        match seg {
            Canon::Bytes(b) => {
                mix(&[0x01]);
                mix(b);
            }
            Canon::Extent(tag, offset, len) => {
                mix(&[0x02]);
                for v in [tag, offset, len] {
                    mix(&v.to_le_bytes());
                }
            }
        }
    }
    h
}

proptest! {
    /// The streaming digest and the run-joining normalize agree with the
    /// pairwise-merge definition they replace, on the segmentations
    /// where merging actually happens.
    #[test]
    fn digest_and_normalize_match_the_pairwise_reference(
        p in prop_oneof![mixed_payload(), mergeable_payload()],
        chunk in 1u64..64,
    ) {
        let canon = reference_canon(&p);
        let want = reference_digest(&canon);
        prop_assert_eq!(p.digest(), want);
        prop_assert_eq!(reference_canon(&p.normalize()), canon);
        prop_assert_eq!(p.normalize().segments().len(), canon.len());
        prop_assert_eq!(Payload::concat(p.chunks(chunk)).digest(), want);
    }

    /// chunks(n) is the `slice(off, n)` loop, segment for segment and
    /// digest for digest.
    #[test]
    fn chunks_equal_the_slice_loop(p in mergeable_payload(), chunk in 1u64..300) {
        let mut want = Vec::new();
        let mut off = 0;
        while off < p.len() {
            let take = chunk.min(p.len() - off);
            want.push(p.slice(off, take));
            off += take;
        }
        let got = p.chunks(chunk);
        prop_assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(&want) {
            prop_assert_eq!(g, w);
            prop_assert_eq!(g.len(), w.len());
            prop_assert_eq!(g.digest(), w.digest());
        }
    }

    /// slice(0, len) is the identity (up to normalization).
    #[test]
    fn full_slice_is_identity(p in mixed_payload()) {
        let s = p.slice(0, p.len());
        prop_assert_eq!(s.len(), p.len());
        prop_assert_eq!(s.digest(), p.digest());
    }

    /// Chunk-and-reassemble preserves length and digest for any chunk size.
    #[test]
    fn chunking_roundtrips(p in mixed_payload(), chunk in 1u64..5000) {
        let again = Payload::concat(p.chunks(chunk));
        prop_assert_eq!(again.len(), p.len());
        prop_assert_eq!(again.digest(), p.digest());
    }

    /// Adjacent slices concatenate to the covering slice.
    #[test]
    fn slice_concat_associates(p in mixed_payload(), cut in any::<prop::sample::Index>()) {
        prop_assume!(!p.is_empty());
        let mid = cut.index(p.len() as usize) as u64;
        let left = p.slice(0, mid);
        let right = p.slice(mid, p.len() - mid);
        let joined = Payload::concat([left, right]);
        prop_assert_eq!(joined.digest(), p.digest());
    }

    /// replace() preserves total length, changes the digest iff the
    /// replacement differs from the original range.
    #[test]
    fn replace_laws(
        data in prop::collection::vec(any::<u8>(), 1..256),
        rep in prop::collection::vec(any::<u8>(), 0..64),
        at in any::<prop::sample::Index>(),
    ) {
        let p = Payload::bytes(data.clone());
        prop_assume!(rep.len() <= data.len());
        let offset = at.index(data.len() - rep.len() + 1) as u64;
        let replaced = p.replace(offset, Payload::bytes(rep.clone()));
        prop_assert_eq!(replaced.len(), p.len());
        let mut expect = data.clone();
        expect[offset as usize..offset as usize + rep.len()].copy_from_slice(&rep);
        prop_assert_eq!(replaced.to_bytes(), expect);
    }

    /// Digest distinguishes different synthetic contents (no trivial
    /// collisions across tag/len).
    #[test]
    fn digest_separates_synthetic(tag1 in any::<u64>(), tag2 in any::<u64>(), len in 1u64..10_000) {
        prop_assume!(tag1 != tag2);
        prop_assert_ne!(
            Payload::synthetic(tag1, len).digest(),
            Payload::synthetic(tag2, len).digest()
        );
    }

    /// normalize() is idempotent and digest-preserving.
    #[test]
    fn normalize_idempotent(p in mixed_payload()) {
        let n1 = p.normalize();
        let n2 = n1.normalize();
        prop_assert_eq!(n1.segments().len(), n2.segments().len());
        prop_assert_eq!(p.digest(), n1.digest());
    }

    /// Synthetic slices track absolute offsets, so re-slicing composes.
    #[test]
    fn synthetic_slice_composes(tag in any::<u64>(), len in 10u64..10_000, a in any::<prop::sample::Index>(), b in any::<prop::sample::Index>()) {
        let p = Payload::synthetic(tag, len);
        let off1 = a.index((len - 1) as usize) as u64;
        let len1 = len - off1;
        let s1 = p.slice(off1, len1);
        prop_assume!(len1 > 1);
        let off2 = b.index((len1 - 1) as usize) as u64;
        let s2 = s1.slice(off2, len1 - off2);
        // Equivalent to one direct slice.
        let direct = p.slice(off1 + off2, len1 - off2);
        prop_assert_eq!(s2.digest(), direct.digest());
        match (s2.segments().first(), direct.segments().first()) {
            (Some(Segment::Synthetic { offset: o1, .. }), Some(Segment::Synthetic { offset: o2, .. })) => {
                prop_assert_eq!(o1, o2);
            }
            _ => prop_assert!(false, "expected synthetic segments"),
        }
    }
}
