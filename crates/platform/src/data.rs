//! Simulated data payloads.
//!
//! The evaluation of Snapify moves gigabytes (snapshots, COI buffers, local
//! stores). Materializing those as real byte vectors would make the
//! simulation memory-bound for no benefit, so a [`Payload`] represents data
//! either as **real bytes** (used by correctness tests, byte-exact) or as a
//! **synthetic extent** — a `(tag, offset, length)` triple standing for
//! `length` bytes of deterministic content identified by `tag`.
//!
//! Synthetic extents behave like real data for everything the simulation
//! cares about: they can be sliced, concatenated, and digested, and a
//! digest survives *any* re-chunking (transfer pipelines split payloads at
//! buffer granularity) because [`Payload::digest`] hashes the canonical
//! segment stream — contiguous extents merged, runs of real bytes joined —
//! whatever the segmentation. A data-path bug that drops, duplicates, or
//! reorders a chunk therefore changes the digest even for synthetic data.
//!
//! Real bytes are never copied by the payload algebra: a byte segment is
//! a [`ByteWindow`] — a shared buffer plus a range — so [`Payload::slice`],
//! [`Payload::chunks`] and [`Payload::replace`] hand out windows into the
//! buffer they were given, and every stage of a transfer pipeline holds a
//! handle to the same allocation. A window keeps its whole buffer alive;
//! [`Payload::normalize`] is the one place bytes are copied, joining a run
//! of windows into a single exactly-sized buffer.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A range of a shared, immutable byte buffer. Cloning and re-windowing
/// share the allocation; equality is by content.
#[derive(Clone)]
pub struct ByteWindow {
    buf: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl ByteWindow {
    fn whole(buf: Vec<u8>) -> ByteWindow {
        let end = buf.len();
        ByteWindow {
            buf: Arc::new(buf),
            start: 0,
            end,
        }
    }
}

impl Deref for ByteWindow {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.start..self.end]
    }
}

impl PartialEq for ByteWindow {
    fn eq(&self, other: &ByteWindow) -> bool {
        **self == **other
    }
}

impl Eq for ByteWindow {}

impl fmt::Debug for ByteWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// One segment of a payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Segment {
    /// Real bytes (shared, cheap to clone and to re-window).
    Bytes(ByteWindow),
    /// `len` bytes of deterministic synthetic content: the bytes of extent
    /// `tag` starting at `offset`.
    Synthetic {
        /// Content identity (e.g. "buffer 7 of process 3").
        tag: u64,
        /// Starting offset within the tagged content.
        offset: u64,
        /// Extent length in bytes.
        len: u64,
    },
}

impl Segment {
    /// Segment length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Segment::Bytes(b) => b.len() as u64,
            Segment::Synthetic { len, .. } => *len,
        }
    }

    /// Whether the segment is zero-length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `len` bytes of this segment starting at `start` (in range by
    /// the caller's arithmetic).
    fn window(&self, start: u64, len: u64) -> Segment {
        match self {
            Segment::Bytes(b) => {
                let start = b.start + start as usize;
                Segment::Bytes(ByteWindow {
                    buf: Arc::clone(&b.buf),
                    start,
                    end: start + len as usize,
                })
            }
            Segment::Synthetic { tag, offset, .. } => Segment::Synthetic {
                tag: *tag,
                offset: offset + start,
                len,
            },
        }
    }
}

/// A logical byte string: a sequence of segments.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Payload {
    segments: Vec<Segment>,
    /// Sum of the segment lengths, kept as segments come and go.
    len: u64,
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Payload[{} bytes, {} segs]",
            self.len,
            self.segments.len()
        )
    }
}

const DIGEST_SEED: u64 = 0xcbf29ce484222325;
/// An odd 64-bit multiplier (2⁶⁴ / φ).
const DIGEST_MUL: u64 = 0x9e3779b97f4a7c15;

/// One step of [`Payload::digest`]: the 128-bit product of
/// `state ^ word` and [`DIGEST_MUL`], its halves folded together. Every
/// bit of `word` reaches both halves — the low half alone would let
/// bit 63 of two different words cancel.
#[inline]
fn fold(state: u64, word: u64) -> u64 {
    let product = u128::from(state ^ word) * u128::from(DIGEST_MUL);
    product as u64 ^ (product >> 64) as u64
}

/// `bytes` (at most eight) as a little-endian word, zero-padded.
#[inline]
fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// A run of real bytes being digested as little-endian 64-bit words:
/// `word` holds the `len % 8` bytes no full word has claimed yet (its
/// other bytes zero), carried from one window of the run to the next so
/// that where the windows split never shows.
#[derive(Default)]
struct Run {
    word: u64,
    len: u64,
}

impl Run {
    fn absorb(&mut self, mut h: u64, bytes: &[u8]) -> u64 {
        // Top the carried word up, then whole words, then carry the rest.
        let held = (self.len % 8) as usize;
        let (head, rest) = bytes.split_at(bytes.len().min((8 - held) % 8));
        self.word |= le_word(head) << (8 * held);
        self.len += bytes.len() as u64;
        if held + head.len() == 8 {
            h = fold(h, std::mem::take(&mut self.word));
        }
        let mut words = rest.chunks_exact(8);
        for word in &mut words {
            h = fold(h, le_word(word));
        }
        self.word |= le_word(words.remainder());
        h
    }

    /// End the run, if one is open: its tail word (zero-padded), then
    /// its length — a run and the same run plus zero bytes differ.
    fn close(&mut self, h: u64) -> u64 {
        match std::mem::take(self) {
            Run { len: 0, .. } => h,
            Run { word, len } => fold(fold(h, word), len),
        }
    }
}

/// One piece of a payload's canonical segment stream
/// ([`Payload::canonical`]).
enum Canonical<'a> {
    /// A (non-empty) byte window; consecutive ones form one run.
    Bytes(&'a ByteWindow),
    /// A maximal synthetic extent `(tag, offset, len)`.
    Extent((u64, u64, u64)),
}

/// Join a run of byte windows into one: a lone window is returned as the
/// shared handle it already is, several are copied into one buffer sized
/// exactly to their total.
fn join_windows(run: &mut Vec<&ByteWindow>) -> Option<Segment> {
    let joined = match run.as_slice() {
        [] => return None,
        [only] => (*only).clone(),
        many => {
            let mut buf = Vec::with_capacity(many.iter().map(|w| w.len()).sum());
            for w in many {
                buf.extend_from_slice(w);
            }
            ByteWindow::whole(buf)
        }
    };
    run.clear();
    Some(Segment::Bytes(joined))
}

impl Payload {
    /// The empty payload.
    pub fn empty() -> Payload {
        Payload::default()
    }

    /// A payload of real bytes.
    pub fn bytes(data: impl Into<Vec<u8>>) -> Payload {
        let v: Vec<u8> = data.into();
        if v.is_empty() {
            return Payload::empty();
        }
        Payload {
            len: v.len() as u64,
            segments: vec![Segment::Bytes(ByteWindow::whole(v))],
        }
    }

    /// A synthetic payload of `len` bytes tagged `tag` (offset 0).
    pub fn synthetic(tag: u64, len: u64) -> Payload {
        if len == 0 {
            return Payload::empty();
        }
        Payload {
            len,
            segments: vec![Segment::Synthetic {
                tag,
                offset: 0,
                len,
            }],
        }
    }

    /// Total length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the payload is zero-length.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// The segments, in order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Append another payload.
    pub fn append(&mut self, other: Payload) {
        self.len += other.len;
        self.segments.extend(other.segments);
    }

    /// Concatenate payloads.
    pub fn concat<I: IntoIterator<Item = Payload>>(parts: I) -> Payload {
        let mut out = Payload::empty();
        for p in parts {
            out.append(p);
        }
        out
    }

    /// Whether `[offset, offset + len)` lies inside the payload — without
    /// the wrap-around a plain `offset + len` has in a release build.
    fn contains_range(&self, offset: u64, len: u64) -> bool {
        offset.checked_add(len).is_some_and(|end| end <= self.len)
    }

    /// Extract `len` bytes starting at `offset`, as windows into the same
    /// buffers. Panics if out of range.
    pub fn slice(&self, offset: u64, len: u64) -> Payload {
        assert!(
            self.contains_range(offset, len),
            "slice [{offset}, {offset}+{len}) out of range for payload of {} bytes",
            self.len
        );
        let mut segments = Vec::new();
        let mut skip = offset;
        let mut wanted = len;
        for seg in &self.segments {
            if wanted == 0 {
                break;
            }
            let seg_len = seg.len();
            if skip >= seg_len {
                skip -= seg_len;
                continue;
            }
            let take = (seg_len - skip).min(wanted);
            segments.push(seg.window(skip, take));
            skip = 0;
            wanted -= take;
        }
        Payload { segments, len }
    }

    /// Split into chunks of at most `chunk` bytes (transfer granularity):
    /// the payloads `slice(0, chunk)`, `slice(chunk, chunk)`, … in one
    /// pass over the segments.
    pub fn chunks(&self, chunk: u64) -> Vec<Payload> {
        assert!(chunk > 0);
        let mut out = Vec::with_capacity(self.len.div_ceil(chunk) as usize);
        let mut cur = Payload::empty();
        for seg in &self.segments {
            let seg_len = seg.len();
            let mut start = 0;
            while start < seg_len {
                let take = (seg_len - start).min(chunk - cur.len);
                cur.segments.push(seg.window(start, take));
                cur.len += take;
                start += take;
                if cur.len == chunk {
                    out.push(std::mem::take(&mut cur));
                }
            }
        }
        if !cur.is_empty() {
            out.push(cur);
        }
        out
    }

    /// Walk the canonical segment stream — what the payload *is*,
    /// whatever its segmentation: empty segments dropped, adjacent
    /// synthetic extents with the same tag and contiguous offsets merged
    /// into one, byte windows as they come. The one place the merge rule
    /// lives; [`Payload::normalize`] builds this stream and
    /// [`Payload::digest`] hashes it.
    fn canonical<'a>(&'a self, mut visit: impl FnMut(Canonical<'a>)) {
        // The extent still open to merging, if the last non-empty segment
        // was synthetic.
        let mut open: Option<(u64, u64, u64)> = None;
        for seg in &self.segments {
            if seg.is_empty() {
                continue;
            }
            match seg {
                Segment::Bytes(window) => {
                    if let Some(extent) = open.take() {
                        visit(Canonical::Extent(extent));
                    }
                    visit(Canonical::Bytes(window));
                }
                Segment::Synthetic { tag, offset, len } => match &mut open {
                    Some((t, o, l)) if *t == *tag && *o + *l == *offset => *l += *len,
                    _ => {
                        if let Some(extent) = open.replace((*tag, *offset, *len)) {
                            visit(Canonical::Extent(extent));
                        }
                    }
                },
            }
        }
        if let Some(extent) = open {
            visit(Canonical::Extent(extent));
        }
    }

    /// Canonical form: adjacent synthetic extents with the same tag and
    /// contiguous offsets are merged; a run of adjacent real-byte segments
    /// becomes one segment over one exactly-sized buffer (a run of one
    /// keeps the buffer it already shares). Two payloads representing the
    /// same logical byte string normalize to equal values regardless of
    /// how they were chunked.
    pub fn normalize(&self) -> Payload {
        let mut out: Vec<Segment> = Vec::new();
        let mut run: Vec<&ByteWindow> = Vec::new();
        self.canonical(|piece| match piece {
            Canonical::Bytes(window) => run.push(window),
            Canonical::Extent((tag, offset, len)) => {
                out.extend(join_windows(&mut run));
                out.push(Segment::Synthetic { tag, offset, len });
            }
        });
        out.extend(join_windows(&mut run));
        Payload {
            segments: out,
            len: self.len,
        }
    }

    /// Chunking-invariant content digest: a multiply-fold hash ([`fold`])
    /// over the canonical segment stream, hashed as it is walked —
    /// nothing is built first. A run of byte segments is `0x01`, its
    /// bytes as little-endian 64-bit words, its zero-padded tail word
    /// and its length; an extent is `0x02` then `(tag, offset, len)`.
    /// Equal digests ⇒ same logical content, with overwhelming
    /// probability.
    pub fn digest(&self) -> u64 {
        let mut h = DIGEST_SEED;
        let mut run = Run::default();
        self.canonical(|piece| match piece {
            Canonical::Bytes(window) => {
                if run.len == 0 {
                    h = fold(h, 0x01);
                }
                h = run.absorb(h, window);
            }
            Canonical::Extent((tag, offset, len)) => {
                h = run.close(h);
                for word in [0x02, tag, offset, len] {
                    h = fold(h, word);
                }
            }
        });
        run.close(h)
    }

    /// Replace the byte range `[offset, offset + replacement.len())` with
    /// `replacement`, leaving the rest unchanged (an RDMA write into a
    /// registered window). Panics if the range exceeds the payload.
    pub fn replace(&self, offset: u64, replacement: Payload) -> Payload {
        let rep_len = replacement.len;
        assert!(
            self.contains_range(offset, rep_len),
            "replace [{offset}, {offset}+{rep_len}) out of range for payload of {} bytes",
            self.len
        );
        let mut out = self.slice(0, offset);
        out.append(replacement);
        out.append(self.slice(offset + rep_len, self.len - offset - rep_len));
        out
    }

    /// Materialize to real bytes; `None` if any segment is synthetic.
    /// What a decoder calls on bytes it did not write itself.
    pub fn try_bytes(&self) -> Option<Vec<u8>> {
        // Look before allocating: a synthetic payload's length is not
        // backed by memory and may exceed it.
        let real = |seg: &Segment| matches!(seg, Segment::Bytes(_));
        if !self.segments.iter().all(real) {
            return None;
        }
        let mut out = Vec::with_capacity(self.len as usize);
        for seg in &self.segments {
            if let Segment::Bytes(b) = seg {
                out.extend_from_slice(b);
            }
        }
        Some(out)
    }

    /// [`Payload::try_bytes`] for tests and for bytes the caller wrote
    /// itself: panics on synthetic segments.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.try_bytes()
            .expect("cannot materialize synthetic payload to bytes")
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Payload {
        Payload::bytes(v)
    }
}

impl From<&[u8]> for Payload {
    fn from(v: &[u8]) -> Payload {
        Payload::bytes(v.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_roundtrip() {
        let p = Payload::bytes(vec![1, 2, 3, 4]);
        assert_eq!(p.len(), 4);
        assert_eq!(p.to_bytes(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn synthetic_basics() {
        let p = Payload::synthetic(42, 1 << 30);
        assert_eq!(p.len(), 1 << 30);
        assert_eq!(p.try_bytes(), None);
        let mut mixed = Payload::bytes(vec![1, 2]);
        assert_eq!(mixed.try_bytes(), Some(vec![1, 2]));
        mixed.append(Payload::synthetic(42, u64::MAX >> 1));
        assert_eq!(mixed.try_bytes(), None);
    }

    #[test]
    fn empty_edge_cases() {
        assert!(Payload::empty().is_empty());
        assert_eq!(Payload::bytes(Vec::new()).len(), 0);
        assert_eq!(Payload::synthetic(1, 0).len(), 0);
        assert_eq!(Payload::empty().digest(), Payload::empty().digest());
    }

    #[test]
    fn slice_bytes() {
        let p = Payload::bytes(vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(p.slice(2, 3).to_bytes(), vec![2, 3, 4]);
        assert_eq!(p.slice(0, 0).len(), 0);
        assert_eq!(p.slice(6, 0).len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_out_of_range_panics() {
        Payload::bytes(vec![1, 2, 3]).slice(2, 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn slice_range_that_wraps_panics() {
        Payload::bytes(vec![1, 2, 3]).slice(u64::MAX, 2);
    }

    #[test]
    fn slice_spanning_segments() {
        let p = Payload::concat([Payload::bytes(vec![0, 1, 2]), Payload::bytes(vec![3, 4, 5])]);
        assert_eq!(p.slice(1, 4).to_bytes(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn synthetic_slice_tracks_offset() {
        let p = Payload::synthetic(7, 100);
        let s = p.slice(10, 20);
        assert_eq!(
            s.segments(),
            &[Segment::Synthetic {
                tag: 7,
                offset: 10,
                len: 20
            }]
        );
    }

    #[test]
    fn digest_is_chunking_invariant_synthetic() {
        let p = Payload::synthetic(99, 10_000_000);
        let rechunked = Payload::concat(p.chunks(4096));
        let rechunked2 = Payload::concat(p.chunks(777));
        assert_eq!(p.digest(), rechunked.digest());
        assert_eq!(p.digest(), rechunked2.digest());
    }

    #[test]
    fn digest_is_chunking_invariant_bytes() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        let p = Payload::bytes(data);
        let rechunked = Payload::concat(p.chunks(333));
        assert_eq!(p.digest(), rechunked.digest());
    }

    #[test]
    fn digest_detects_dropped_chunk() {
        let p = Payload::synthetic(5, 1000);
        let mut chunks = p.chunks(100);
        chunks.remove(3);
        assert_ne!(p.digest(), Payload::concat(chunks).digest());
    }

    #[test]
    fn digest_detects_reordered_chunks() {
        let p = Payload::synthetic(5, 1000);
        let mut chunks = p.chunks(100);
        chunks.swap(2, 7);
        assert_ne!(p.digest(), Payload::concat(chunks).digest());
    }

    #[test]
    fn digest_detects_duplicated_chunk() {
        let p = Payload::synthetic(5, 1000);
        let mut chunks = p.chunks(100);
        let dup = chunks[4].clone();
        chunks.insert(4, dup);
        assert_ne!(p.digest(), Payload::concat(chunks).digest());
    }

    #[test]
    fn different_tags_have_different_digests() {
        assert_ne!(
            Payload::synthetic(1, 100).digest(),
            Payload::synthetic(2, 100).digest()
        );
    }

    #[test]
    fn bytes_digest_differs_on_content() {
        assert_ne!(
            Payload::bytes(vec![1, 2, 3]).digest(),
            Payload::bytes(vec![1, 2, 4]).digest()
        );
    }

    #[test]
    fn normalize_merges_bytes() {
        let p = Payload::concat([Payload::bytes(vec![1]), Payload::bytes(vec![2, 3])]);
        let n = p.normalize();
        assert_eq!(n.segments().len(), 1);
        assert_eq!(n.to_bytes(), vec![1, 2, 3]);
    }

    #[test]
    fn replace_middle_range() {
        let p = Payload::bytes(vec![0, 1, 2, 3, 4, 5]);
        let r = p.replace(2, Payload::bytes(vec![9, 9]));
        assert_eq!(r.to_bytes(), vec![0, 1, 9, 9, 4, 5]);
    }

    #[test]
    fn replace_whole_and_edges() {
        let p = Payload::bytes(vec![1, 2, 3]);
        assert_eq!(
            p.replace(0, Payload::bytes(vec![7, 8, 9])).to_bytes(),
            vec![7, 8, 9]
        );
        assert_eq!(
            p.replace(0, Payload::bytes(vec![7])).to_bytes(),
            vec![7, 2, 3]
        );
        assert_eq!(
            p.replace(2, Payload::bytes(vec![7])).to_bytes(),
            vec![1, 2, 7]
        );
        assert_eq!(p.replace(3, Payload::empty()).to_bytes(), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn replace_out_of_range_panics() {
        Payload::bytes(vec![1, 2]).replace(1, Payload::bytes(vec![1, 2]));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn replace_range_that_wraps_panics() {
        Payload::bytes(vec![1, 2]).replace(u64::MAX, Payload::bytes(vec![1, 2]));
    }

    /// The buffer behind a one-segment real-byte payload.
    fn buffer(p: &Payload) -> &Arc<Vec<u8>> {
        match p.segments() {
            [Segment::Bytes(w)] => &w.buf,
            other => panic!("expected one byte segment, got {other:?}"),
        }
    }

    #[test]
    fn windows_share_the_parent_allocation() {
        let p = Payload::bytes((0..200u8).collect::<Vec<u8>>());
        let parent = buffer(&p);
        let s = p.slice(10, 100);
        assert!(Arc::ptr_eq(buffer(&s), parent));
        assert!(Arc::ptr_eq(buffer(&s.slice(5, 5)), parent));
        assert_eq!(s.slice(5, 5).to_bytes(), vec![15, 16, 17, 18, 19]);
        for c in p.chunks(100) {
            assert!(Arc::ptr_eq(buffer(&c), parent));
        }
        let r = p.replace(100, Payload::synthetic(1, 56));
        let (head, tail) = (&r.segments()[0], &r.segments()[2]);
        for (seg, range) in [(head, 0..100u8), (tail, 156..200u8)] {
            let Segment::Bytes(w) = seg else {
                panic!("expected bytes, got {seg:?}")
            };
            assert!(Arc::ptr_eq(&w.buf, parent));
            assert_eq!(w.to_vec(), range.collect::<Vec<u8>>());
        }
    }

    #[test]
    fn normalize_joins_a_run_into_one_exact_buffer() {
        let parts: Vec<Payload> = (0..96u8).map(|i| Payload::bytes(vec![i; 256])).collect();
        let n = Payload::concat(parts.clone()).normalize();
        let buf = buffer(&n);
        assert_eq!((buf.len(), buf.capacity()), (96 * 256, 96 * 256));
        assert_eq!(n.to_bytes(), Payload::concat(parts).to_bytes());
        // A run of one is already canonical: same buffer, same window.
        let lone = Payload::bytes(vec![7; 64]).slice(8, 16);
        assert!(Arc::ptr_eq(buffer(&lone.normalize()), buffer(&lone)));
    }

    #[test]
    fn equality_is_by_content_not_by_buffer() {
        let a = Payload::bytes(vec![9, 1, 2, 3, 9]).slice(1, 3);
        let b = Payload::bytes(vec![1, 2, 3]);
        assert!(!Arc::ptr_eq(buffer(&a), buffer(&b)));
        assert_eq!(a, b);
        assert_ne!(a, Payload::bytes(vec![1, 2, 4]));
    }

    #[test]
    fn empty_segments_do_not_split_a_canonical_run() {
        // The public constructors never leave an empty segment behind;
        // the canonical form is defined for them all the same.
        let with_empties = |parts: Vec<Segment>| Payload {
            len: parts.iter().map(Segment::len).sum(),
            segments: parts,
        };
        let empty_bytes = Segment::Bytes(ByteWindow::whole(Vec::new()));
        let empty_extent = Payload::synthetic(5, 10).segments()[0].window(3, 0);
        let extent = Payload::synthetic(5, 10);
        let p = with_empties(vec![
            extent.segments()[0].window(0, 4),
            empty_bytes.clone(),
            extent.segments()[0].window(4, 6),
            Segment::Bytes(ByteWindow::whole(vec![1, 2])),
            empty_extent,
            empty_bytes,
            Segment::Bytes(ByteWindow::whole(vec![3])),
        ]);
        let want = Payload::concat([extent, Payload::bytes(vec![1, 2, 3])]);
        assert_eq!(p.normalize(), want);
        assert_eq!(p.digest(), want.digest());
    }

    #[test]
    fn chunks_cover_exactly() {
        let p = Payload::synthetic(3, 1050);
        let chunks = p.chunks(100);
        assert_eq!(chunks.len(), 11);
        assert_eq!(chunks.iter().map(Payload::len).sum::<u64>(), 1050);
        assert_eq!(chunks.last().unwrap().len(), 50);
    }
}
