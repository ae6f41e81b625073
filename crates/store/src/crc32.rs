//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) — the guard
//! on every WAL record and snapshot body. No dependencies.
//!
//! Slicing-by-8: eight 256-entry tables, built at compile time by a
//! `const fn`, fold eight input bytes per step with eight independent
//! lookups instead of eight dependent ones. `TABLES[0]` is the classic
//! bytewise table and `TABLES[k][i]` is the CRC of byte `i` followed by
//! `k` zero bytes, so the result is exactly the bytewise CRC — same
//! polynomial, same checksums, same file bytes. A tail shorter than
//! eight bytes takes the bytewise step.
//!
//! [`Crc32`] is the running form, for a body streamed in pieces (the
//! snapshot writer); [`crc32`] is the one-shot form.

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
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
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// Folds `data` into the raw (pre-XOR-out) register `crc`.
fn update(mut crc: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    crc
}

/// A running CRC-32: feeding a body in any split gives the one-shot
/// [`crc32`] of the whole.
#[derive(Debug, Clone, Copy)]
pub struct Crc32(u32);

impl Crc32 {
    /// The CRC of nothing so far.
    pub fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    /// Folds in the next piece of the input.
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        self.0 = update(self.0, data);
    }

    /// The CRC of everything fed so far.
    pub fn finish(&self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

/// CRC-32 of `data` (initial value `0xFFFFFFFF`, final XOR-out).
pub fn crc32(data: &[u8]) -> u32 {
    update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise loop slicing-by-8 replaced: the reference every
    /// differential test below compares against.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        crc ^ 0xFFFF_FFFF
    }

    /// Deterministic pseudo-random bytes (xorshift64).
    fn noise(len: usize, mut seed: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // The classic check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn slicing_by_8_matches_bytewise_at_every_length_and_alignment() {
        let buf = noise(64 + 8, 0x9E37_79B9_7F4A_7C15);
        for offset in 0..8 {
            for len in 0..=64 {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "len {len} at offset {offset}"
                );
            }
        }
    }

    #[test]
    fn slicing_by_8_matches_bytewise_over_one_mebibyte() {
        let buf = noise(1 << 20, 0xD1B5_4A32_D192_ED03);
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
    }

    #[test]
    fn running_crc_matches_one_shot_at_every_split() {
        let buf = noise(200, 7);
        let whole = crc32(&buf);
        for split in 0..=buf.len() {
            let mut running = Crc32::new();
            running.update(&buf[..split]);
            running.update(&buf[split..]);
            assert_eq!(running.finish(), whole, "split at {split}");
        }
    }

    #[test]
    fn single_bit_flip_changes_crc() {
        let data = b"locble wal record".to_vec();
        let base = crc32(&data);
        for i in 0..data.len() {
            for bit in 0..8 {
                let mut corrupted = data.clone();
                corrupted[i] ^= 1 << bit;
                assert_ne!(crc32(&corrupted), base, "flip at byte {i} bit {bit}");
            }
        }
    }
}
