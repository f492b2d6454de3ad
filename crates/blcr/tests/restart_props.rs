//! `restart` decodes bytes it did not write: whatever the stream, it
//! returns a typed `BlcrError` or a process whose memory is the captured
//! one — never a panic, and never memory left mapped behind an error.

use blcr_sim::{checkpoint, restart, BlcrConfig, BlcrError};
use phi_platform::{Payload, PlatformParams, SimNode};
use proptest::prelude::*;
use simkernel::Kernel;
use simproc::{PayloadSource, Pid, PidAllocator, SimProcess, VecSink};

/// Where the default configuration's preamble lies: after the 8-byte
/// magic, 96 records of 256 bytes.
const PREAMBLE: std::ops::Range<u64> = 8..8 + 96 * 256;

fn phi() -> SimNode {
    SimNode::phi(&PlatformParams::default(), 0)
}

/// A small image — everything but its preamble is real bytes, so a flip
/// can land in any field — with the offsets where its writes ended, and
/// the digest of the memory it holds.
fn image() -> (Payload, Vec<u64>, u64) {
    Kernel::run_root(|| {
        let node = phi();
        let proc = SimProcess::new(Pid(1), "offload_proc", &node);
        for (name, len) in [("heap", 600), ("stak", 64), ("z", 0)] {
            let content = Payload::bytes((0..len).map(|i| i as u8).collect::<Vec<_>>());
            proc.memory().map_region(name, content).unwrap();
        }
        let mut sink = VecSink::new();
        let stats = checkpoint(&BlcrConfig::default(), &proc, b"pc=42", &mut sink).unwrap();
        let ends = sink
            .chunks
            .iter()
            .scan(0, |end, chunk| {
                *end += chunk.len();
                Some(*end)
            })
            .collect();
        (sink.payload(), ends, stats.image_digest)
    })
}

/// Restart `stream` onto `node`: the digest of what came back, or the
/// error — after checking that an error left the node's memory as it
/// found it.
fn restart_onto(node: &SimNode, stream: Payload) -> Result<u64, BlcrError> {
    let before = node.mem().used();
    let mut src = PayloadSource::new(stream);
    match restart(&BlcrConfig::default(), node, &PidAllocator::new(), &mut src) {
        Ok(restored) => {
            restored.proc.exit();
            Ok(restored.image_digest)
        }
        Err(e) => {
            assert_eq!(node.mem().used(), before, "{e} left memory mapped");
            Err(e)
        }
    }
}

fn restart_bytes(stream: Payload) -> Result<u64, BlcrError> {
    Kernel::run_root(move || restart_onto(&phi(), stream))
}

#[test]
fn an_image_cut_at_any_write_is_an_error() {
    let (image, ends, digest) = image();
    assert_eq!(restart_bytes(image.clone()), Ok(digest));
    Kernel::run_root(move || {
        for &end in std::iter::once(&0).chain(&ends[..ends.len() - 1]) {
            let cut = restart_onto(&phi(), image.slice(0, end));
            assert!(cut.is_err(), "an image cut at {end} restarted");
        }
    });
}

/// A region named twice would be mapped over itself.
#[test]
fn a_region_named_twice_is_a_bad_image() {
    let (image, _, _) = image();
    let tail = image
        .slice(PREAMBLE.end, image.len() - PREAMBLE.end)
        .to_bytes();
    let at = tail.windows(4).position(|w| w == b"stak").unwrap() as u64;
    let twice = image.replace(PREAMBLE.end + at, Payload::bytes(b"heap".to_vec()));
    let err = restart_bytes(twice).unwrap_err();
    assert_eq!(err, BlcrError::BadImage("region 'heap' twice".into()));
}

proptest! {
    #[test]
    fn arbitrary_bytes_are_typed_errors(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
        prefix in 0usize..3,
    ) {
        // Raw noise dies at the magic; behind a valid magic, or a valid
        // magic and preamble, it drives the readers further in.
        let (image, _, _) = image();
        let valid = [0, PREAMBLE.start, PREAMBLE.end][prefix];
        let mut stream = image.slice(0, valid);
        stream.append(Payload::bytes(bytes));
        prop_assert!(restart_bytes(stream).is_err());
    }

    #[test]
    fn a_flipped_byte_is_an_error_or_the_same_memory(
        at in any::<u64>(),
        mask in 1u8..=255,
        field in 0u8..4,
    ) {
        let (image, _, digest) = image();
        let opaque = PREAMBLE.end - PREAMBLE.start;
        // One case in four flips an opaque preamble byte (to a real one);
        // the rest flip a byte of the real fields around the preamble.
        let off = match field {
            0 => PREAMBLE.start + at % opaque,
            _ => match at % (image.len() - opaque) {
                k if k < PREAMBLE.start => k,
                k => k + opaque,
            },
        };
        let old = image.slice(off, 1).try_bytes().map_or(0, |b| b[0]);
        let flipped = image.replace(off, Payload::bytes(vec![old ^ mask]));
        // The name and the runtime state are not in the memory digest: a
        // flip there restarts, with the same memory.
        if let Ok(got) = restart_bytes(flipped) {
            prop_assert_eq!(got, digest);
        }
    }
}
