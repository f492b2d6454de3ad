//! Record framing over byte streams.
//!
//! A process image is a self-describing stream: metadata (names, sizes,
//! digests) is written as *real* bytes so the restart side can parse it;
//! everything else passes through as opaque [`Payload`] chunks — region
//! contents, and the preamble, whose records are counted writes of one
//! synthetic extent — possibly synthetic, never materialized. The reader
//! buffers payload chunks and materializes only the byte ranges it must
//! actually parse.

use std::collections::VecDeque;

use phi_platform::Payload;
use simproc::{ByteSink, ByteSource, IoError};

/// Chunk size used when streaming large payloads through a frame.
pub const STREAM_CHUNK: u64 = 4 << 20;

/// Writer half: encodes integers/strings as little-endian real bytes and
/// payloads as length-prefixed chunk streams.
pub struct FrameWriter<'a> {
    sink: &'a mut dyn ByteSink,
}

impl<'a> FrameWriter<'a> {
    /// Wrap a sink.
    pub fn new(sink: &'a mut dyn ByteSink) -> FrameWriter<'a> {
        FrameWriter { sink }
    }

    /// Write raw bytes.
    pub fn write_bytes(&mut self, data: &[u8]) -> Result<(), IoError> {
        self.sink.write(Payload::bytes(data.to_vec()))
    }

    /// Write a `u64`.
    pub fn write_u64(&mut self, v: u64) -> Result<(), IoError> {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Write a length-prefixed string.
    pub fn write_string(&mut self, s: &str) -> Result<(), IoError> {
        self.write_u64(s.len() as u64)?;
        self.write_bytes(s.as_bytes())
    }

    /// Write a length-prefixed payload, chunked at [`STREAM_CHUNK`].
    pub fn write_payload(&mut self, p: &Payload) -> Result<(), IoError> {
        // Each framed payload is a natural dedup boundary: realigning
        // here keeps identical regions chunk-identical across snapshots
        // even when earlier variable-length content shifted the stream.
        self.sink.mark_boundary();
        self.write_u64(p.len())?;
        for chunk in p.chunks(STREAM_CHUNK) {
            self.sink.write(chunk)?;
        }
        Ok(())
    }

    /// Access the underlying sink (e.g. to close it).
    pub fn sink(&mut self) -> &mut dyn ByteSink {
        self.sink
    }
}

/// Reader half: re-assembles the stream from arbitrary source chunkings.
pub struct FrameReader<'a> {
    src: &'a mut dyn ByteSource,
    buffered: VecDeque<Payload>,
    buffered_len: u64,
    read_chunk: u64,
}

impl<'a> FrameReader<'a> {
    /// Wrap a source, reading in [`STREAM_CHUNK`] units.
    pub fn new(src: &'a mut dyn ByteSource) -> FrameReader<'a> {
        Self::with_chunk(src, STREAM_CHUNK)
    }

    /// Wrap a source, reading in `read_chunk`-byte units (the granularity
    /// at which the consumer issues `read(2)` — BLCR restarts read small).
    pub fn with_chunk(src: &'a mut dyn ByteSource, read_chunk: u64) -> FrameReader<'a> {
        assert!(read_chunk > 0);
        FrameReader {
            src,
            buffered: VecDeque::new(),
            buffered_len: 0,
            read_chunk,
        }
    }

    fn fill(&mut self, need: u64) -> Result<(), IoError> {
        while self.buffered_len < need {
            match self.src.read(self.read_chunk)? {
                Some(chunk) => {
                    self.buffered_len += chunk.len();
                    self.buffered.push_back(chunk);
                }
                None => {
                    return Err(IoError::Other(format!(
                        "truncated stream: needed {need} bytes, got {}",
                        self.buffered_len
                    )))
                }
            }
        }
        Ok(())
    }

    fn take(&mut self, n: u64) -> Payload {
        debug_assert!(self.buffered_len >= n);
        let mut out = Payload::empty();
        let mut remaining = n;
        while remaining > 0 {
            let front = self.buffered.pop_front().expect("buffer accounting");
            let flen = front.len();
            if flen <= remaining {
                remaining -= flen;
                self.buffered_len -= flen;
                out.append(front);
            } else {
                out.append(front.slice(0, remaining));
                let rest = front.slice(remaining, flen - remaining);
                self.buffered_len -= remaining;
                remaining = 0;
                self.buffered.push_front(rest);
            }
        }
        out
    }

    /// Read exactly `n` real bytes (metadata parse). Synthetic content
    /// here means the stream lost framing inside a region: an error.
    pub fn read_bytes(&mut self, n: u64) -> Result<Vec<u8>, IoError> {
        self.read_opaque(n)?.try_bytes().ok_or_else(|| {
            IoError::Other(format!("corrupt stream: {n} metadata bytes are synthetic"))
        })
    }

    /// Read exactly `n` bytes without materializing them.
    pub(crate) fn read_opaque(&mut self, n: u64) -> Result<Payload, IoError> {
        self.fill(n)?;
        Ok(self.take(n))
    }

    /// Read a `u64`.
    pub fn read_u64(&mut self) -> Result<u64, IoError> {
        let mut word = [0; 8];
        word.copy_from_slice(&self.read_bytes(8)?);
        Ok(u64::from_le_bytes(word))
    }

    /// Read a length-prefixed string.
    pub fn read_string(&mut self) -> Result<String, IoError> {
        let len = self.read_u64()?;
        let b = self.read_bytes(len)?;
        String::from_utf8(b).map_err(|e| IoError::Other(format!("bad utf8 in stream: {e}")))
    }

    /// Read a length-prefixed payload without materializing it.
    pub fn read_payload(&mut self) -> Result<Payload, IoError> {
        let len = self.read_u64()?;
        self.read_opaque(len)
    }

    /// True if the source (and buffer) are exhausted.
    pub fn at_eof(&mut self) -> Result<bool, IoError> {
        if self.buffered_len > 0 {
            return Ok(false);
        }
        match self.src.read(1)? {
            Some(chunk) => {
                self.buffered_len += chunk.len();
                self.buffered.push_back(chunk);
                Ok(false)
            }
            None => Ok(true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkernel::Kernel;
    use simproc::{PayloadSource, VecSink};

    #[test]
    fn roundtrip_mixed_records() {
        Kernel::run_root(|| {
            let mut sink = VecSink::new();
            {
                let mut w = FrameWriter::new(&mut sink);
                w.write_u64(42).unwrap();
                w.write_string("region-a").unwrap();
                w.write_payload(&Payload::synthetic(7, 10_000_000)).unwrap();
                w.write_string("").unwrap();
                w.write_payload(&Payload::bytes(vec![1, 2, 3])).unwrap();
            }
            let all = sink.payload();
            let mut src = PayloadSource::new(all);
            let mut r = FrameReader::new(&mut src);
            assert_eq!(r.read_u64().unwrap(), 42);
            assert_eq!(r.read_string().unwrap(), "region-a");
            let p = r.read_payload().unwrap();
            assert_eq!(p.len(), 10_000_000);
            assert_eq!(p.digest(), Payload::synthetic(7, 10_000_000).digest());
            assert_eq!(r.read_string().unwrap(), "");
            assert_eq!(r.read_payload().unwrap().to_bytes(), vec![1, 2, 3]);
            assert!(r.at_eof().unwrap());
        });
    }

    #[test]
    fn survives_pathological_rechunking() {
        Kernel::run_root(|| {
            let mut sink = VecSink::new();
            {
                let mut w = FrameWriter::new(&mut sink);
                w.write_string("hello world").unwrap();
                w.write_payload(&Payload::synthetic(1, 5000)).unwrap();
            }
            // Re-chunk the stream at 3 bytes to simulate a transport that
            // fragments aggressively.
            let stream = sink.payload();
            let rechunked = Payload::concat(stream.chunks(3));
            let mut src = PayloadSource::new(rechunked);
            let mut r = FrameReader::new(&mut src);
            assert_eq!(r.read_string().unwrap(), "hello world");
            let p = r.read_payload().unwrap();
            assert_eq!(p.digest(), Payload::synthetic(1, 5000).digest());
        });
    }

    #[test]
    fn truncated_stream_is_an_error() {
        Kernel::run_root(|| {
            let mut sink = VecSink::new();
            {
                let mut w = FrameWriter::new(&mut sink);
                w.write_u64(100).unwrap(); // promises 100 bytes
            }
            let mut src = PayloadSource::new(sink.payload());
            let mut r = FrameReader::new(&mut src);
            let len = r.read_u64().unwrap();
            assert_eq!(len, 100);
            assert!(matches!(r.read_bytes(100), Err(IoError::Other(_))));
        });
    }

    /// A de-synchronised image: the reader expects a length prefix
    /// where a synthetic region's bytes are.
    #[test]
    fn synthetic_bytes_where_metadata_is_expected_are_an_error() {
        Kernel::run_root(|| {
            let mut stream = Payload::bytes(7u64.to_le_bytes().to_vec());
            stream.append(Payload::synthetic(5, 64));
            let mut src = PayloadSource::new(stream);
            let mut r = FrameReader::new(&mut src);
            assert_eq!(r.read_u64().unwrap(), 7);
            let err = r.read_string().unwrap_err();
            assert!(err.to_string().contains("synthetic"), "{err}");
        });
    }

    #[test]
    fn eof_detection() {
        Kernel::run_root(|| {
            let mut src = PayloadSource::new(Payload::empty());
            let mut r = FrameReader::new(&mut src);
            assert!(r.at_eof().unwrap());

            let mut src = PayloadSource::new(Payload::bytes(vec![0; 8]));
            let mut r = FrameReader::new(&mut src);
            assert!(!r.at_eof().unwrap());
            r.read_u64().unwrap();
            assert!(r.at_eof().unwrap());
        });
    }
}
