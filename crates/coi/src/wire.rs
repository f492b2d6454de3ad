//! Tiny binary codec for COI control messages.
//!
//! COI control traffic flows over SCIF message channels, which carry
//! [`Payload`]s; control records are small and always real bytes. This
//! module provides a minimal, dependency-free encoder/decoder (little-
//! endian, length-prefixed) used by [`crate::msgs`].

use phi_platform::Payload;

/// Encoder accumulating into a byte vector.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// New empty encoder.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// Append a tag byte.
    pub fn tag(mut self, t: u8) -> Enc {
        self.buf.push(t);
        self
    }

    /// Append a `u64`.
    pub fn u64(mut self, v: u64) -> Enc {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a `u16`.
    pub fn u16(mut self, v: u16) -> Enc {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Append a bool.
    pub fn boolean(mut self, v: bool) -> Enc {
        self.buf.push(v as u8);
        self
    }

    /// Append a length-prefixed string.
    pub fn string(mut self, s: &str) -> Enc {
        self = self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
        self
    }

    /// Append length-prefixed bytes.
    pub fn bytes(mut self, b: &[u8]) -> Enc {
        self = self.u64(b.len() as u64);
        self.buf.extend_from_slice(b);
        self
    }

    /// Append a length-prefixed list via a per-item closure.
    pub fn list<T>(mut self, items: &[T], mut f: impl FnMut(Enc, &T) -> Enc) -> Enc {
        self = self.u64(items.len() as u64);
        for it in items {
            self = f(self, it);
        }
        self
    }

    /// Finish into a payload.
    pub fn payload(self) -> Payload {
        Payload::bytes(self.buf)
    }

    /// Finish into raw bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Decoder over a byte slice.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Decode failure (malformed control message).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// The real bytes of a received control frame. A frame is always real
/// bytes when a peer of ours encoded it; synthetic content is a
/// malformed message like any other.
pub fn frame_bytes(p: &Payload) -> Result<Vec<u8>, DecodeError> {
    p.try_bytes()
        .ok_or_else(|| DecodeError("synthetic payload in a control frame".into()))
}

impl<'a> Dec<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        // Checked arithmetic: a hostile/corrupt length prefix must not
        // overflow the bounds check.
        let end = self
            .pos
            .checked_add(n)
            .ok_or_else(|| DecodeError(format!("length overflow: {n} at {}", self.pos)))?;
        if end > self.buf.len() {
            return Err(DecodeError(format!(
                "truncated: need {n} at {}, have {}",
                self.pos,
                self.buf.len()
            )));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Read a tag byte.
    pub fn tag(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Read a bool.
    pub fn boolean(&mut self) -> Result<bool, DecodeError> {
        Ok(self.take(1)?[0] != 0)
    }

    /// Read a length-prefixed string.
    pub fn string(&mut self) -> Result<String, DecodeError> {
        let n = self.u64()? as usize;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|e| DecodeError(format!("bad utf8: {e}")))
    }

    /// Read length-prefixed bytes.
    pub fn bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let n = self.u64()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    /// Read a length-prefixed list via a per-item closure.
    pub fn list<T>(
        &mut self,
        mut f: impl FnMut(&mut Dec<'a>) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.u64()? as usize;
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// Whether all bytes were consumed.
    pub fn finished(&self) -> bool {
        self.pos == self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let bytes = Enc::new()
            .tag(7)
            .u64(0xdead_beef_1234)
            .u16(999)
            .boolean(true)
            .string("hello")
            .bytes(&[1, 2, 3])
            .list(&[10u64, 20, 30], |e, v| e.u64(*v))
            .into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.tag().unwrap(), 7);
        assert_eq!(d.u64().unwrap(), 0xdead_beef_1234);
        assert_eq!(d.u16().unwrap(), 999);
        assert!(d.boolean().unwrap());
        assert_eq!(d.string().unwrap(), "hello");
        assert_eq!(d.bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(d.list(|d| d.u64()).unwrap(), vec![10, 20, 30]);
        assert!(d.finished());
    }

    #[test]
    fn truncation_is_an_error() {
        let bytes = Enc::new().u64(5).into_bytes();
        let mut d = Dec::new(&bytes[..4]);
        assert!(d.u64().is_err());
    }

    #[test]
    fn hostile_length_prefix_does_not_overflow() {
        // A corrupt stream claiming a near-u64::MAX string length must be
        // rejected, not overflow the cursor arithmetic.
        let bytes = [0xFFu8; 16];
        let mut d = Dec::new(&bytes);
        assert!(d.string().is_err());
        let mut d = Dec::new(&bytes);
        assert!(d.bytes().is_err());
    }

    #[test]
    fn empty_string_and_bytes() {
        let bytes = Enc::new().string("").bytes(&[]).into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.string().unwrap(), "");
        assert!(d.bytes().unwrap().is_empty());
        assert!(d.finished());
    }
}
