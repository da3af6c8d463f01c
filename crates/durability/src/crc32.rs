//! CRC-32 (IEEE 802.3, the zlib/gzip polynomial), slicing-by-8.
//!
//! Used to checksum WAL records, replication frames and checkpoint
//! sections. CRC-32 is the right strength here: the threat model is
//! torn writes and bit rot, not adversarial tampering, and a 32-bit
//! check detects every burst error up to 32 bits and all odd-bit-count
//! corruptions.
//!
//! The main loop folds eight input bytes per step through eight lookup
//! tables (Intel's slicing-by-8): table `k` advances a byte's
//! contribution past `k` further zero bytes, so one step XORs eight
//! independent lookups instead of chaining eight dependent ones. The
//! result is the bytewise table algorithm's, bit for bit.

/// `TABLES[0]` is the classic reflected-polynomial byte table;
/// `TABLES[k][i]` is `TABLES[k - 1][i]` pushed through one more zero
/// byte. Built at compile time.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// CRC-32 of `bytes` (initial value `0xFFFF_FFFF`, final XOR, reflected
/// — identical to zlib's `crc32`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The one-byte-per-step table loop slicing-by-8 replaced: the
    /// oracle the fast loop is held to.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for this CRC variant.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn single_bit_flips_are_detected() {
        let base = b"day-end 3 3ff0000000000000 17 0";
        let reference = crc32(base);
        for i in 0..base.len() {
            for bit in 0..8u8 {
                let mut flipped = base.to_vec();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "flip at byte {i} bit {bit} undetected");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Slicing-by-8 equals the bytewise loop on any slice: every
        /// length (so every 0–7 byte tail), at every start offset (so
        /// chunks straddle arbitrary alignments).
        #[test]
        fn slicing_by_8_matches_bytewise(
            bytes in collection::vec(0u8..=255, 0..600),
            offset in 0usize..16,
            tail in 0usize..16,
        ) {
            let start = offset.min(bytes.len());
            let end = bytes.len().saturating_sub(tail).max(start);
            let slice = &bytes[start..end];
            prop_assert_eq!(crc32(slice), crc32_bytewise(slice), "len {} at {}", slice.len(), start);
        }
    }
}
