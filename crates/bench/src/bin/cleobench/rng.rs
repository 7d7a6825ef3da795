//! The benchmark's own random stream (SplitMix64) and fingerprint hash
//! (FNV-1a): everything drawn from `--seed`, and every pinned fingerprint,
//! comes from here and not from the program under test, so a change to the
//! program's own RNG or hashing (signature hashing is on the serving path)
//! cannot move the inputs or break a pin.

/// A SplitMix64 generator.
pub struct SplitMix(u64);

impl SplitMix {
    /// A stream for `seed`, separated from other streams of the same seed by
    /// `stream`.
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        SplitMix(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// The next 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in (0, 1]: its logarithm is always finite.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            xs.swap(i, j);
        }
    }
}

/// A 64-bit FNV-1a hash over the words and strings written to it.
pub struct Fingerprint(u64);

impl Fingerprint {
    /// An empty fingerprint.
    pub fn new() -> Fingerprint {
        Fingerprint(0xCBF2_9CE4_8422_2325)
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Add one word.
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes());
        self
    }

    /// Add one string (with its length, so adjacent strings cannot run
    /// together).
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
        self
    }

    /// The hash of everything written.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_shuffle_is_a_permutation() {
        let mut a = SplitMix::new(9, 1);
        let mut b = SplitMix::new(9, 1);
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
        let mut c = SplitMix::new(9, 2);
        assert_ne!(SplitMix::new(9, 1).next_u64(), c.next_u64());
        let mut xs: Vec<u32> = (0..500).collect();
        SplitMix::new(4, 0).shuffle(&mut xs);
        assert_ne!(xs, (0..500).collect::<Vec<_>>());
        xs.sort_unstable();
        assert_eq!(xs, (0..500).collect::<Vec<_>>());
        assert!((0..1000).all(|_| {
            let u = a.unit();
            u > 0.0 && u <= 1.0
        }));
    }

    #[test]
    fn fingerprint_tells_order_and_boundaries_apart() {
        let of = |words: &[u64], strings: &[&str]| {
            let mut f = Fingerprint::new();
            words.iter().for_each(|&w| {
                f.write_u64(w);
            });
            strings.iter().for_each(|s| {
                f.write_str(s);
            });
            f.finish()
        };
        assert_eq!(of(&[1, 2], &["ab"]), of(&[1, 2], &["ab"]));
        assert_ne!(of(&[1, 2], &[]), of(&[2, 1], &[]));
        assert_ne!(of(&[], &["ab", "c"]), of(&[], &["a", "bc"]));
        // FNV-1a of the empty input is its offset basis.
        assert_eq!(Fingerprint::new().finish(), 0xCBF2_9CE4_8422_2325);
    }
}
