//! SIMD-friendly byte scanning for the telemetry firehose.
//!
//! The streaming NDJSON reader walks gigabytes of line-oriented telemetry, so
//! its inner loops must not inspect bytes one at a time.  [`find_byte`] is a
//! SWAR (SIMD-within-a-register) `memchr`: it scans eight bytes per step with
//! the classic `haszero` bit trick over `u64` words, which LLVM further
//! autovectorises on wide targets — no per-byte branches, no dependencies.
//! [`Lines`] builds on it to split a buffer into `\n`-terminated lines while
//! tracking byte offsets, and the number parsers ([`parse_u64`],
//! [`parse_f64`]) decode ASCII spans in place so the scan loop never
//! allocates.

/// Broadcast a byte into all eight lanes of a `u64`.
#[inline(always)]
const fn broadcast(b: u8) -> u64 {
    u64::from_ne_bytes([b; 8])
}

/// True when any byte of `w` is zero: the classic SWAR `haszero` trick —
/// `(w - 0x0101…) & !w & 0x8080…` sets the high bit of every zero lane.
#[inline(always)]
const fn has_zero_byte(w: u64) -> bool {
    w.wrapping_sub(0x0101_0101_0101_0101) & !w & 0x8080_8080_8080_8080 != 0
}

/// Index of the first occurrence of `needle` in `haystack`, scanning eight
/// bytes per step (word-at-a-time `memchr`).
pub fn find_byte(needle: u8, haystack: &[u8]) -> Option<usize> {
    let pattern = broadcast(needle);
    let mut chunks = haystack.chunks_exact(8);
    let mut offset = 0usize;
    for chunk in chunks.by_ref() {
        // Unaligned little/big-endian-agnostic load: XOR zeroes matching lanes.
        let word = u64::from_ne_bytes(chunk.try_into().expect("8-byte chunk")) ^ pattern;
        if has_zero_byte(word) {
            // A match exists in this word; locate it exactly.
            for (i, &b) in chunk.iter().enumerate() {
                if b == needle {
                    return Some(offset + i);
                }
            }
        }
        offset += 8;
    }
    chunks
        .remainder()
        .iter()
        .position(|&b| b == needle)
        .map(|i| offset + i)
}

/// Iterator over `\n`-separated lines of a buffer, yielding `(line_number,
/// byte_offset, line)` with 1-based line numbers and the line's starting byte
/// offset in the buffer.  The trailing newline is not part of the yielded
/// slice; a final unterminated line is yielded too.
pub struct Lines<'a> {
    buf: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Lines<'a> {
    /// Split `buf` into lines.
    pub fn new(buf: &'a [u8]) -> Self {
        Lines {
            buf,
            pos: 0,
            line: 0,
        }
    }
}

impl<'a> Iterator for Lines<'a> {
    type Item = (usize, usize, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.buf.len() {
            return None;
        }
        let start = self.pos;
        self.line += 1;
        match find_byte(b'\n', &self.buf[start..]) {
            Some(rel) => {
                self.pos = start + rel + 1;
                Some((self.line, start, &self.buf[start..start + rel]))
            }
            None => {
                self.pos = self.buf.len();
                Some((self.line, start, &self.buf[start..]))
            }
        }
    }
}

/// Parse an ASCII decimal unsigned integer.  Rejects empty input, non-digits,
/// and overflow.
pub fn parse_u64(bytes: &[u8]) -> Option<u64> {
    if bytes.is_empty() || bytes.len() > 20 {
        return None;
    }
    let mut v: u64 = 0;
    for &b in bytes {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        v = v.checked_mul(10)?.checked_add(d as u64)?;
    }
    Some(v)
}

/// Parse an ASCII floating-point number (the subset `serde_json` emits:
/// optional sign, digits, optional fraction, optional exponent).  Input must
/// be valid UTF-8 by construction (digits, sign, `.`, `e`), so the str
/// round-trip is free.
pub fn parse_f64(bytes: &[u8]) -> Option<f64> {
    if bytes.is_empty() {
        return None;
    }
    // Fast path: pure integers below 2^53 convert exactly without the general
    // float parser.
    if bytes.len() <= 15 && bytes[0] != b'-' {
        let mut all_digits = true;
        let mut v: u64 = 0;
        for &b in bytes {
            let d = b.wrapping_sub(b'0');
            if d > 9 {
                all_digits = false;
                break;
            }
            v = v * 10 + d as u64;
        }
        if all_digits {
            return Some(v as f64);
        }
    }
    std::str::from_utf8(bytes).ok()?.parse::<f64>().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_byte_matches_naive_search() {
        let hay = b"abcdefghijklmnopqrstuvwxyz0123456789";
        for (i, &b) in hay.iter().enumerate() {
            assert_eq!(find_byte(b, hay), Some(i), "byte {}", b as char);
        }
        assert_eq!(find_byte(b'!', hay), None);
        assert_eq!(find_byte(b'a', b""), None);
        // Matches in every alignment and position, including past the first word.
        for n in 0..64usize {
            let mut v = vec![b'x'; n];
            v.push(b'\n');
            v.extend_from_slice(&[b'y'; 7]);
            assert_eq!(find_byte(b'\n', &v), Some(n), "length {n}");
        }
    }

    #[test]
    fn lines_yield_offsets_and_numbers() {
        let buf = b"alpha\nbeta\n\ngamma";
        let got: Vec<(usize, usize, &[u8])> = Lines::new(buf).collect();
        assert_eq!(
            got,
            vec![
                (1, 0, b"alpha".as_slice()),
                (2, 6, b"beta".as_slice()),
                (3, 11, b"".as_slice()),
                (4, 12, b"gamma".as_slice()),
            ]
        );
        assert_eq!(Lines::new(b"").count(), 0);
        // Trailing newline does not produce a phantom empty line.
        assert_eq!(Lines::new(b"a\n").count(), 1);
    }

    #[test]
    fn parse_u64_rejects_junk() {
        assert_eq!(parse_u64(b"0"), Some(0));
        assert_eq!(parse_u64(b"18446744073709551615"), Some(u64::MAX));
        assert_eq!(parse_u64(b"18446744073709551616"), None);
        assert_eq!(parse_u64(b""), None);
        assert_eq!(parse_u64(b"12a"), None);
        assert_eq!(parse_u64(b"-1"), None);
        assert_eq!(parse_u64(b" 1"), None);
    }

    #[test]
    fn parse_f64_handles_json_number_forms() {
        assert_eq!(parse_f64(b"0"), Some(0.0));
        assert_eq!(parse_f64(b"123456"), Some(123456.0));
        assert_eq!(parse_f64(b"-12.5"), Some(-12.5));
        assert_eq!(parse_f64(b"1.5e300"), Some(1.5e300));
        assert_eq!(
            parse_f64(b"2.2250738585072014e-308"),
            Some(f64::MIN_POSITIVE)
        );
        assert_eq!(parse_f64(b""), None);
        assert_eq!(parse_f64(b"abc"), None);
        // Exact integers stay exact through the fast path.
        assert_eq!(parse_f64(b"9007199254740992"), Some(9007199254740992.0));
    }
}
