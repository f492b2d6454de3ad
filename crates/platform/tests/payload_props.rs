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

/// One step of the digest: the 128-bit product of `h ^ word` and the
/// multiplier, low half xor high half.
fn reference_fold(h: u64, word: u64) -> u64 {
    let product = (h ^ word) as u128 * 0x9e3779b97f4a7c15_u128;
    product as u64 ^ (product >> 64) as u64
}

/// The digest's definition over a materialised canonical form. A run is
/// `0x01`, its bytes zero-padded to the next word boundary *past* its
/// end (so the tail word is there even when it is empty) and read as
/// little-endian words byte by byte, then its length; an extent is
/// `0x02`, tag, offset, length.
fn reference_digest(canon: &[Canon]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for seg in canon {
        match seg {
            Canon::Bytes(b) => {
                h = reference_fold(h, 0x01);
                let mut padded = b.clone();
                padded.resize(b.len() / 8 * 8 + 8, 0);
                for word in padded.chunks(8) {
                    let mut w = 0u64;
                    for (i, &byte) in word.iter().enumerate() {
                        w += (byte as u64) << (8 * i);
                    }
                    h = reference_fold(h, w);
                }
                h = reference_fold(h, b.len() as u64);
            }
            Canon::Extent(tag, offset, len) => {
                for word in [0x02, *tag, *offset, *len] {
                    h = reference_fold(h, word);
                }
            }
        }
    }
    h
}

/// The carry path: wherever one run of real bytes is cut into windows —
/// two at every offset, or one per byte — the digest is that of the
/// whole. Lengths 0–40 put the cut at every residue mod 8, before and
/// after whole words.
#[test]
fn splitting_a_run_anywhere_leaves_the_digest_alone() {
    for len in 0..=40usize {
        let data: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
        let want = reference_digest(&reference_canon(&Payload::bytes(data.clone())));
        assert_eq!(Payload::bytes(data.clone()).digest(), want, "len {len}");
        for cut in 0..=len {
            let (a, b) = data.split_at(cut);
            let split = Payload::concat([Payload::bytes(a), Payload::bytes(b)]);
            assert_eq!(split.digest(), want, "len {len} cut at {cut}");
        }
        let bytewise = Payload::concat(data.iter().map(|&b| Payload::bytes(vec![b])));
        assert_eq!(bytewise.digest(), want, "len {len} one window per byte");
    }
}

/// A run closes with its length: trailing zero bytes, which leave every
/// word's value alone, still change the digest.
#[test]
fn trailing_zero_bytes_change_the_digest() {
    for len in 0..=24usize {
        let data: Vec<u8> = (0..len).map(|i| i as u8 + 1).collect();
        let base = Payload::bytes(data.clone()).digest();
        for zeros in 1..=16 {
            let mut longer = data.clone();
            longer.resize(len + zeros, 0);
            assert_ne!(
                Payload::bytes(longer).digest(),
                base,
                "{len} + {zeros} zeros"
            );
        }
    }
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

    /// Every bit of a run reaches the digest.
    #[test]
    fn any_flipped_bit_changes_the_digest(
        data in prop::collection::vec(any::<u8>(), 1..4097),
        at in any::<prop::sample::Index>(),
    ) {
        let bit = at.index(data.len() * 8);
        let mut flipped = data.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        prop_assert_ne!(Payload::bytes(flipped).digest(), Payload::bytes(data).digest());
    }

    /// Flipping the top bit of two different words changes the digest.
    /// Word-at-a-time FNV (`(h ^ w).wrapping_mul(PRIME)`) does not see
    /// it: bit 63 of a word only ever moves bit 63 of the state, so the
    /// second flip undoes the first.
    #[test]
    fn top_bits_of_two_words_do_not_cancel(
        words in prop::collection::vec(any::<u64>(), 2..64),
        a in any::<prop::sample::Index>(),
        b in any::<prop::sample::Index>(),
    ) {
        let (i, j) = (a.index(words.len()), b.index(words.len()));
        prop_assume!(i != j);
        let mut flipped = words.clone();
        flipped[i] ^= 1 << 63;
        flipped[j] ^= 1 << 63;
        let naive = |ws: &[u64]| ws.iter().fold(0xcbf29ce484222325u64, |h, w| {
            (h ^ w).wrapping_mul(0x100000001b3)
        });
        prop_assert_eq!(naive(&flipped), naive(&words));
        let run = |ws: &[u64]| {
            Payload::bytes(ws.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>())
        };
        prop_assert_ne!(run(&flipped).digest(), run(&words).digest());
    }

    /// Real bytes never pass for a synthetic extent of their length.
    #[test]
    fn a_run_never_equals_an_extent_of_its_length(
        data in prop::collection::vec(any::<u8>(), 1..64),
        tag in any::<u64>(),
        offset in 0u64..1000,
    ) {
        let len = data.len() as u64;
        let extent = Payload::synthetic(tag, offset + len).slice(offset, len);
        prop_assert_ne!(Payload::bytes(data).digest(), extent.digest());
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
