//! CRC-32 (IEEE 802.3, the zlib/gzip polynomial) — the WAL's record
//! checksum.
//!
//! In-repo on purpose: the workspace is dependency-free, and the WAL needs
//! a stable, well-known checksum whose reference vectors (`"123456789"` →
//! `0xCBF4_3926`) pin the implementation against silent drift. Every ingest
//! chunk is logged before it is mined, so the checksum is on the ingest hot
//! path: [`Crc32::update`] is slicing-by-8 — eight table lookups fold eight
//! input bytes per step, instead of one dependent lookup per byte.

/// Reflected polynomial of CRC-32/IEEE.
const POLY: u32 = 0xEDB8_8320;

/// The slicing-by-8 tables, built at compile time. `TABLES[0]` is the
/// classic byte-at-a-time table; `TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, so eight lookups fold eight bytes at once.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `bytes` in one shot.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
}

/// Incremental CRC-32 hasher, for checksumming a record's header and
/// payload without concatenating them first.
#[derive(Clone, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh hasher.
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Feed bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The checksum of everything fed so far (the hasher stays usable).
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vectors() {
        // The CRC-32/IEEE check value and friends, from the canonical
        // catalogue — any table or polynomial slip fails here.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(4096).collect();
        for split in [0, 1, 7, 100, 4095, 4096] {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), crc32(&data), "split {split}");
        }
    }

    #[test]
    fn slicing_by_8_matches_the_bytewise_definition() {
        // The one-byte-per-step loop straight from the table definition.
        fn bytewise(bytes: &[u8]) -> u32 {
            !bytes.iter().fold(!0u32, |crc, &b| {
                (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize]
            })
        }
        let data: Vec<u8> = (0u32..300)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for start in 0..9 {
            for end in start..data.len() {
                assert_eq!(
                    crc32(&data[start..end]),
                    bytewise(&data[start..end]),
                    "{start}..{end}"
                );
            }
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"butterfly wal record".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip at {byte}:{bit} undetected");
            }
        }
    }
}
