//! Generic length-prefixed binary framing, in the `CLT1` telemetry style.
//!
//! Every compact binary format in the workspace shares one frame shape:
//!
//! ```text
//! [4-byte magic][u32 record count][u32 len | payload]*count
//! ```
//!
//! with all integers little-endian and every `f64` written as the LE bytes of
//! its IEEE-754 bit pattern (`to_bits`), so round-trips are bit-exact —
//! including NaN payloads and signed zeros.  This module is the shared
//! implementation: [`write_binary`](crate::telemetry_io::write_binary) frames
//! telemetry through it and
//! [`decode_binary_record`](crate::telemetry_io::decode_binary_record) reads
//! records with its [`Cursor`], as the model-snapshot codec in `cleo-core`
//! does, so the framing (and its span-exact corruption errors) cannot drift
//! between formats.
//!
//! Errors follow the telemetry convention: [`CleoError::Parse`] with `line` =
//! the 1-based record number (0 = the stream header) and `start..end` = the
//! byte span of the offending token.  Header/framing errors report spans in
//! whole-buffer coordinates; [`Cursor`] errors report spans within the record
//! payload.  Corrupt input of any shape — truncation, bad magic, implausible
//! counts, trailing bytes — is a returned error, never a panic or an
//! attempted huge allocation.

use cleo_common::{CleoError, Result};

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Append a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a `u32`, little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64`, little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as the LE bytes of its bit pattern (bit-exact round-trip).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Start a frame: magic plus the record count.
pub fn frame_header(magic: [u8; 4], count: usize) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&magic);
    put_u32(&mut out, count as u32);
    out
}

/// Append one length-prefixed record whose payload `encode` writes: reserves
/// the `u32` length, runs the encoder, then backpatches the actual length.
pub fn with_record(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let len_at = out.len();
    put_u32(out, 0);
    encode(out);
    let payload_len = (out.len() - len_at - 4) as u32;
    out[len_at..len_at + 4].copy_from_slice(&payload_len.to_le_bytes());
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Validate a frame and return its record payloads in order.
///
/// `what` names the format in error messages (e.g. `"binary telemetry"`,
/// `"model snapshot"`).  Rejects a wrong magic, a record whose length prefix
/// runs past the buffer, and trailing bytes after the final record — each
/// with the exact byte span of the corruption.
pub fn record_payloads<'a>(buf: &'a [u8], magic: [u8; 4], what: &str) -> Result<Vec<&'a [u8]>> {
    if buf.len() < 8 || buf[..4] != magic {
        return Err(CleoError::parse_at(
            0,
            0,
            buf.len().clamp(1, 4),
            format!("bad {what} magic"),
        ));
    }
    let count = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes")) as usize;
    let mut payloads = Vec::new();
    let mut pos = 8usize;
    for record in 1..=count {
        if pos + 4 > buf.len() {
            return Err(CleoError::parse_at(
                record,
                pos,
                buf.len(),
                format!("truncated stream: record {record} of {count} has no length prefix"),
            ));
        }
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let start = pos + 4;
        if start + len > buf.len() {
            return Err(CleoError::parse_at(
                record,
                pos,
                pos + 4,
                format!(
                    "truncated record: length prefix {len} exceeds remaining {} bytes",
                    buf.len() - start
                ),
            ));
        }
        payloads.push(&buf[start..start + len]);
        pos = start + len;
    }
    if pos != buf.len() {
        return Err(CleoError::parse_at(
            0,
            pos,
            buf.len(),
            "trailing bytes after final record",
        ));
    }
    Ok(payloads)
}

/// Little-endian cursor over one record payload, with span-exact errors
/// (`line` = the record number, spans relative to the payload start).
pub struct Cursor<'a> {
    record: usize,
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Cursor over `payload`, reporting errors as record `record` (1-based).
    pub fn new(record: usize, payload: &'a [u8]) -> Self {
        Cursor {
            record,
            buf: payload,
            pos: 0,
        }
    }

    /// A span-exact error at `start..end` within this record's payload.
    pub fn err<T>(&self, start: usize, end: usize, msg: impl Into<String>) -> Result<T> {
        Err(CleoError::parse_at(self.record, start, end, msg))
    }

    /// Current byte offset within the payload.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Take `n` raw bytes; `what` names the field in the truncation error.
    pub fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.pos + n <= self.buf.len() {
            let s = &self.buf[self.pos..self.pos + n];
            self.pos += n;
            Ok(s)
        } else {
            self.err(
                self.pos,
                self.buf.len(),
                format!("truncated record: {n} bytes needed for {what}"),
            )
        }
    }

    /// Read a `u8`.
    pub fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Read an `f64` from its bit pattern (bit-exact).
    pub fn f64(&mut self, what: &str) -> Result<f64> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn string(&mut self, what: &str) -> Result<String> {
        let len = self.u32(what)? as usize;
        let start = self.pos;
        let raw = self.take(len, what)?;
        match std::str::from_utf8(raw) {
            Ok(s) => Ok(s.to_string()),
            Err(_) => self.err(start, start + len, format!("invalid UTF-8 in {what}")),
        }
    }

    /// Read a `0`/`1` flag, rejecting any other value at its exact byte.
    pub fn flag(&mut self, what: &str) -> Result<bool> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            v => self.err(self.pos - 1, self.pos, format!("invalid {what} flag {v}")),
        }
    }

    /// Read a `u32` element count, rejecting counts that could not possibly
    /// fit in the remaining payload (`min_elem_bytes` per element) — a
    /// corrupt count is an error, not a huge allocation request.
    pub fn count(&mut self, min_elem_bytes: usize, what: &str) -> Result<usize> {
        let n = self.u32(what)? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(min_elem_bytes.max(1)) > remaining {
            return self.err(
                self.pos - 4,
                self.pos,
                format!("implausible {what} count {n}"),
            );
        }
        Ok(n)
    }

    /// Assert the payload is fully consumed (a record with trailing bytes is
    /// corrupt — likely a format-version mismatch).
    pub fn finish(&self, what: &str) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(CleoError::parse_at(
                self.record,
                self.pos,
                self.buf.len(),
                format!("trailing bytes after {what} record"),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 4] = *b"TST1";

    fn two_record_frame() -> Vec<u8> {
        let mut out = frame_header(MAGIC, 2);
        with_record(&mut out, |out| {
            put_u64(out, 7);
            put_f64(out, -0.0);
            put_str(out, "alpha");
        });
        with_record(&mut out, |out| {
            put_u8(out, 1);
            put_u32(out, 42);
        });
        out
    }

    #[test]
    fn frame_round_trips_and_is_fully_consumed() {
        let buf = two_record_frame();
        let payloads = record_payloads(&buf, MAGIC, "test frame").unwrap();
        assert_eq!(payloads.len(), 2);
        let mut c = Cursor::new(1, payloads[0]);
        assert_eq!(c.u64("id").unwrap(), 7);
        let z = c.f64("zero").unwrap();
        assert_eq!(z.to_bits(), (-0.0f64).to_bits(), "bit-exact f64");
        assert_eq!(c.string("name").unwrap(), "alpha");
        c.finish("test").unwrap();
        let mut c = Cursor::new(2, payloads[1]);
        assert!(c.flag("flag").unwrap());
        assert_eq!(c.u32("n").unwrap(), 42);
        c.finish("test").unwrap();
    }

    #[test]
    fn bad_magic_truncation_and_trailing_bytes_are_span_exact() {
        let buf = two_record_frame();

        let mut bad = buf.clone();
        bad[0] = b'X';
        let err = record_payloads(&bad, MAGIC, "test frame").unwrap_err();
        assert_eq!(err.parse_span(), Some((0, 0, 4)));
        assert!(err.to_string().contains("bad test frame magic"), "{err}");

        // Truncation mid-record: the length prefix outruns the buffer.
        let err = record_payloads(&buf[..buf.len() - 3], MAGIC, "test frame").unwrap_err();
        let (record, _, _) = err.parse_span().unwrap();
        assert_eq!(record, 2);
        assert!(err.to_string().contains("truncated"), "{err}");

        let mut trailing = buf.clone();
        trailing.push(0xEE);
        let err = record_payloads(&trailing, MAGIC, "test frame").unwrap_err();
        assert_eq!(err.parse_span(), Some((0, buf.len(), buf.len() + 1)));

        // An empty buffer is a magic error, not a panic.
        assert!(record_payloads(&[], MAGIC, "test frame").is_err());
    }

    #[test]
    fn cursor_rejects_bad_flags_implausible_counts_and_short_reads() {
        let mut payload = Vec::new();
        put_u8(&mut payload, 9);
        let mut c = Cursor::new(3, &payload);
        let err = c.flag("fitted").unwrap_err();
        assert_eq!(err.parse_span(), Some((3, 0, 1)));
        assert!(err.to_string().contains("invalid fitted flag 9"));

        let mut payload = Vec::new();
        put_u32(&mut payload, u32::MAX);
        let mut c = Cursor::new(1, &payload);
        let err = c.count(8, "weights").unwrap_err();
        assert!(err.to_string().contains("implausible weights count"));

        let mut c = Cursor::new(1, &[1, 2]);
        let err = c.u64("version").unwrap_err();
        assert!(err.to_string().contains("8 bytes needed for version"));

        let mut c = Cursor::new(1, &[0, 1, 2]);
        c.u8("x").unwrap();
        let err = c.finish("test").unwrap_err();
        assert_eq!(err.parse_span(), Some((1, 1, 3)));
    }
}
