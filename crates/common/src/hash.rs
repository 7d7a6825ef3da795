//! Stable 64-bit hashing for operator and subgraph signatures.
//!
//! SCOPE annotates every operator with a 64-bit signature computed bottom-up from the
//! signatures of its children, the operator name, and its logical properties
//! (Section 5.1).  Cleo extends the optimizer to compute three additional signatures,
//! one per individual model family.  The hash must be stable across runs and across
//! platforms (unlike `std::collections::hash_map::DefaultHasher`), so we use FNV-1a
//! with explicit combination helpers.

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// A stable, incremental 64-bit hasher (FNV-1a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    /// Create a hasher with the FNV offset basis.
    pub const fn new() -> Self {
        StableHasher { state: FNV_OFFSET }
    }

    /// Feed raw bytes.
    pub const fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        // `while`, not `for`: callers build lookup tables at compile time.
        let mut i = 0;
        while i < bytes.len() {
            self.state ^= bytes[i] as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
            i += 1;
        }
        self
    }

    /// Feed a `u64` (little-endian byte order).
    pub const fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Feed a string.
    pub const fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_bytes(s.as_bytes());
        // Separate fields so that ("ab", "c") differs from ("a", "bc").
        self.write_bytes(&[0xff]);
        self
    }

    /// Finish and return the 64-bit hash.
    pub const fn finish(&self) -> u64 {
        // One final avalanche so that short inputs spread well.
        avalanche(self.state)
    }
}

/// The splitmix64 finalizer: a bijection on `u64` under which every input bit
/// flips every output bit with probability about one half.
pub const fn avalanche(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hash a string to a stable 64-bit value.
pub fn hash_str(s: &str) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(s);
    h.finish()
}

/// Combine an ordered sequence of child hashes with a label — the signature recursion
/// used for operator-subgraph signatures (ordering matters).
pub fn combine_ordered(label: &str, children: &[u64]) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(label);
    for &c in children {
        h.write_u64(c);
    }
    h.finish()
}

/// Combine an unordered multiset of hashes with a label — used for the
/// operator-subgraphApprox signature, which ignores operator ordering underneath the
/// root (Section 4.2).
pub fn combine_unordered(label: &str, children: &[u64]) -> u64 {
    let mut sorted: Vec<u64> = children.to_vec();
    sorted.sort_unstable();
    combine_ordered(label, &sorted)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashing_is_deterministic() {
        assert_eq!(hash_str("HashJoin"), hash_str("HashJoin"));
        assert_ne!(hash_str("HashJoin"), hash_str("MergeJoin"));
    }

    #[test]
    fn field_separation_prevents_concatenation_collisions() {
        let mut a = StableHasher::new();
        a.write_str("ab").write_str("c");
        let mut b = StableHasher::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn ordered_combination_is_order_sensitive() {
        let c1 = hash_str("scan:left");
        let c2 = hash_str("scan:right");
        assert_ne!(
            combine_ordered("join", &[c1, c2]),
            combine_ordered("join", &[c2, c1])
        );
    }

    #[test]
    fn unordered_combination_is_order_insensitive() {
        let c1 = hash_str("filter");
        let c2 = hash_str("project");
        let c3 = hash_str("scan");
        assert_eq!(
            combine_unordered("agg", &[c1, c2, c3]),
            combine_unordered("agg", &[c3, c1, c2])
        );
        assert_ne!(
            combine_unordered("agg", &[c1, c2]),
            combine_unordered("agg", &[c1, c3])
        );
    }

    #[test]
    fn label_changes_hash() {
        let c = [hash_str("x")];
        assert_ne!(combine_ordered("a", &c), combine_ordered("b", &c));
    }

    #[test]
    fn u64_writes_differ_from_equivalent_strings() {
        let mut a = StableHasher::new();
        a.write_u64(1);
        let mut b = StableHasher::new();
        b.write_u64(2);
        assert_ne!(a.finish(), b.finish());
    }
}
