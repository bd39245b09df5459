//! FNV-1a, 64-bit: the workspace's one hash — the VM and JIT memory
//! checksum, the service's cache address, the golden-output pins, and (as a
//! [`std::hash::Hasher`]) the hash maps keyed by small integers.

use std::hash::{BuildHasherDefault, Hasher};

/// The FNV-1a 64-bit offset basis: the hash of no bytes.
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues the FNV-1a 64-bit hash `h` over `bytes`, so a value can be
/// hashed piecewise without first collecting its bytes.
#[inline]
pub fn fnv64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a, 64-bit, of `bytes`.
#[inline]
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_extend(FNV64_OFFSET, bytes)
}

/// FNV-1a, 64-bit, as a [`Hasher`]: a deterministic, unkeyed hash for maps
/// keyed by a few integers the program derives itself, such as ion's
/// `(register, point)` owner keys: an input shapes those only indirectly,
/// through the program it describes, so the keyed SipHash default would
/// buy little for its cost. Use it through [`FnvBuildHasher`].
#[derive(Clone, Copy, Debug)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(FNV64_OFFSET)
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv64_extend(self.0, bytes);
    }
}

/// Builds [`FnvHasher`]s: `HashMap<K, V, FnvBuildHasher>`.
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hasher_matches_the_byte_hash() {
        let mut h = FnvHasher::default();
        h.write_u64(0x0000_0007_0000_002a);
        assert_eq!(h.finish(), fnv64(&0x0000_0007_0000_002au64.to_ne_bytes()));
        assert_eq!(FnvHasher::default().finish(), fnv64(b""));
    }
}
