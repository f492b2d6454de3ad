//! The manifest — the durable snapshot artifact — and its one path
//! through a backend: [`Manifest::write`] on capture commit and pool
//! import, [`Manifest::read`] on restore.

use std::fmt;

use phi_platform::{NodeId, Payload};
use simproc::{ByteSource, IoError, SnapshotStorage};

use crate::ChunkKey;

const MANIFEST_MAGIC: &[u8; 8] = b"SNAPSTO1";

/// The durable snapshot artifact: ordered chunk references plus the
/// final image digest.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Manifest {
    /// Ordered chunk references.
    pub chunks: Vec<ChunkKey>,
    /// Total image length in bytes.
    pub total: u64,
    /// Digest of the whole reassembled image.
    pub image_digest: u64,
}

/// Why the bytes at a snapshot path are not a manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum ManifestError {
    /// The file holds synthetic content, not real bytes.
    Synthetic,
    /// The bytes end inside the field starting at this offset.
    Truncated(usize),
    BadMagic,
    /// The chunk count cannot fit in a file this size.
    ChunkCount(u64),
    /// The chunk lengths sum past `u64::MAX`.
    LengthOverflow,
    /// Bytes left over after the last field.
    Trailing(usize),
    /// The chunk lengths do not add up to the recorded total.
    LengthSum {
        sum: u64,
        total: u64,
    },
}

impl fmt::Display for ManifestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestError::Synthetic => write!(f, "synthetic content where a manifest belongs"),
            ManifestError::Truncated(at) => write!(f, "manifest truncated at byte {at}"),
            ManifestError::BadMagic => write!(f, "bad manifest magic"),
            ManifestError::ChunkCount(n) => {
                write!(f, "manifest chunk count {n} exceeds the file")
            }
            ManifestError::LengthOverflow => write!(f, "manifest chunk lengths overflow u64"),
            ManifestError::Trailing(n) => write!(f, "{n} trailing bytes after manifest"),
            ManifestError::LengthSum { sum, total } => {
                write!(f, "manifest chunk lengths sum to {sum}, not {total}")
            }
        }
    }
}

impl Manifest {
    /// Encode and write the artifact to `path` through `backend`;
    /// returns how many bytes crossed it.
    pub(crate) fn write(
        &self,
        backend: &dyn SnapshotStorage,
        local: NodeId,
        path: &str,
    ) -> Result<u64, IoError> {
        let bytes = self.encode();
        let len = bytes.len() as u64;
        let mut sink = backend.sink(local, path)?;
        sink.write(Payload::bytes(bytes))?;
        sink.close()?;
        Ok(len)
    }

    /// Read the artifact from `src` (the backend's stream of `path`)
    /// and decode it; anything but a manifest is typed corruption.
    pub(crate) fn read(mut src: Box<dyn ByteSource>, path: &str) -> Result<Manifest, IoError> {
        let corrupt = |e: ManifestError| IoError::Other(format!("snapstore {path}: {e}"));
        let mut bytes = Vec::new();
        while let Some(c) = src.read(64 << 10)? {
            let real = c.try_bytes().ok_or(ManifestError::Synthetic);
            bytes.extend_from_slice(&real.map_err(corrupt)?);
        }
        Manifest::decode(&bytes).map_err(corrupt)
    }

    /// Serialize: magic, chunk count, (digest, len) pairs, total length,
    /// image digest — all u64 little-endian.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 8 + self.chunks.len() * 16 + 16);
        out.extend_from_slice(MANIFEST_MAGIC);
        out.extend_from_slice(&(self.chunks.len() as u64).to_le_bytes());
        for (digest, len) in &self.chunks {
            out.extend_from_slice(&digest.to_le_bytes());
            out.extend_from_slice(&len.to_le_bytes());
        }
        out.extend_from_slice(&self.total.to_le_bytes());
        out.extend_from_slice(&self.image_digest.to_le_bytes());
        out
    }

    /// Parse a serialized manifest; rejects anything malformed.
    fn decode(bytes: &[u8]) -> Result<Manifest, ManifestError> {
        let mut off = 0usize;
        let take = |off: &mut usize, n: usize| -> Result<&[u8], ManifestError> {
            let s = bytes
                .get(*off..*off + n)
                .ok_or(ManifestError::Truncated(*off))?;
            *off += n;
            Ok(s)
        };
        let u64_at = |off: &mut usize| -> Result<u64, ManifestError> {
            Ok(u64::from_le_bytes(take(off, 8)?.try_into().unwrap()))
        };
        if take(&mut off, 8)? != MANIFEST_MAGIC {
            return Err(ManifestError::BadMagic);
        }
        let n = u64_at(&mut off)?;
        if n > (bytes.len() as u64) / 16 {
            return Err(ManifestError::ChunkCount(n));
        }
        let mut chunks = Vec::with_capacity(n as usize);
        let mut sum = 0u64;
        for _ in 0..n {
            let digest = u64_at(&mut off)?;
            let len = u64_at(&mut off)?;
            sum = sum.checked_add(len).ok_or(ManifestError::LengthOverflow)?;
            chunks.push((digest, len));
        }
        let total = u64_at(&mut off)?;
        let image_digest = u64_at(&mut off)?;
        if off != bytes.len() {
            return Err(ManifestError::Trailing(bytes.len() - off));
        }
        if sum != total {
            return Err(ManifestError::LengthSum { sum, total });
        }
        Ok(Manifest {
            chunks,
            total,
            image_digest,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::store;
    use crate::DedupConfig;
    use phi_platform::PhiServer;
    use simkernel::Kernel;

    #[test]
    fn corrupt_manifest_is_rejected() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let st = store(&server, DedupConfig::default());
            server
                .host()
                .fs()
                .append("/snap/junk", Payload::bytes(vec![0x5a; 64]))
                .unwrap();
            let err = st.source(NodeId::device(0), "/snap/junk").err().unwrap();
            assert!(err.to_string().contains("bad manifest magic"), "{err}");
        });
    }

    /// A synthetic file at a snapshot path is typed corruption like any
    /// other non-manifest, not a panic in the byte accessor.
    #[test]
    fn synthetic_file_at_a_manifest_path_is_a_typed_error() {
        Kernel::run_root(|| {
            let server = PhiServer::default_server();
            let st = store(&server, DedupConfig::default());
            server
                .host()
                .fs()
                .append("/snap/syn", Payload::synthetic(3, 4096))
                .unwrap();
            let err = st.source(NodeId::device(0), "/snap/syn").err().unwrap();
            assert!(err.to_string().contains("synthetic"), "{err}");
        });
    }

    #[test]
    fn manifest_encoding_round_trips() {
        let m = Manifest {
            chunks: vec![(0xdead, 4096), (0xbeef, 123)],
            total: 4219,
            image_digest: 0x1234_5678,
        };
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
        assert!(Manifest::decode(b"short").is_err());
        let mut trailing = m.encode();
        trailing.push(0);
        assert!(Manifest::decode(&trailing).is_err());
        let mut bad_sum = m.encode();
        let n = bad_sum.len();
        bad_sum[n - 17] ^= 1; // flip a bit in `total`
        assert!(Manifest::decode(&bad_sum).is_err());
    }

    /// 64 bytes, `n = 2` passes the `n > len / 16` guard, and the two
    /// lengths sum past `u64::MAX`.
    #[test]
    fn manifest_length_overflow_is_an_error() {
        let mut bytes = MANIFEST_MAGIC.to_vec();
        for word in [2, 1, u64::MAX, 2, u64::MAX, 0, 0] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
        assert_eq!(bytes.len(), 64);
        let err = Manifest::decode(&bytes).unwrap_err();
        assert_eq!(err, ManifestError::LengthOverflow);
        assert!(err.to_string().contains("overflow"), "{err}");
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn manifest_decode_inverts_encode(
            chunks in prop::collection::vec((any::<u64>(), 0u64..(1 << 40)), 0..32),
            image_digest in any::<u64>(),
        ) {
            let m = Manifest {
                total: chunks.iter().map(|(_, len)| len).sum(),
                chunks,
                image_digest,
            };
            prop_assert_eq!(Manifest::decode(&m.encode()), Ok(m));
        }

        #[test]
        fn manifest_decode_never_panics(
            words in prop::collection::vec(prop_oneof![0u64..4, any::<u64>()], 0..12),
            tail in prop::collection::vec(any::<u8>(), 0..8),
            magic in any::<bool>(),
        ) {
            // Raw noise dies on the magic; a real magic and small words
            // drive the count guard, the length sum and the tail checks.
            let mut bytes = if magic { MANIFEST_MAGIC.to_vec() } else { Vec::new() };
            for w in words {
                bytes.extend_from_slice(&w.to_le_bytes());
            }
            bytes.extend_from_slice(&tail);
            match Manifest::decode(&bytes) {
                // Whatever decodes re-encodes to the bytes it came from.
                Ok(m) => prop_assert_eq!(m.encode(), bytes),
                Err(ManifestError::Truncated(at)) => prop_assert!(at + 8 > bytes.len()),
                Err(ManifestError::BadMagic) => prop_assert!(!bytes.starts_with(MANIFEST_MAGIC)),
                Err(ManifestError::ChunkCount(n)) => prop_assert!(n > bytes.len() as u64 / 16),
                Err(ManifestError::Trailing(n)) => prop_assert!(n > 0 && n < bytes.len()),
                Err(ManifestError::LengthSum { sum, total }) => prop_assert_ne!(sum, total),
                Err(ManifestError::LengthOverflow) => {}
                Err(ManifestError::Synthetic) => prop_assert!(false, "decode sees real bytes only"),
            }
        }
    }
}
