//! FNV-1a, 64-bit: the workspace's one content hash — the VM and JIT
//! memory checksum, the service's cache address and the golden-output pins.

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
