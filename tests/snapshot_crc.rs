//! The snapshot checksum `sisd_data::snap::crc32` folds 16 bytes per
//! round. This suite pins it to the classic one-byte-per-step table loop
//! (IEEE 802.3 CRC32), kept here as its oracle: every length and start
//! offset around the round boundaries, and random lengths up to 64 KiB.

use proptest::prelude::*;
use sisd::data::snap::crc32;

/// The bytewise reflected CRC32 (polynomial 0xEDB88320), one table
/// lookup per byte.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let mut table = [0u32; 256];
    for (i, entry) in table.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *entry = c;
    }
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

fn random_bytes(len: usize, seed: u64) -> Vec<u8> {
    let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
    (0..len)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 24) as u8
        })
        .collect()
}

#[test]
fn check_value_of_the_standard() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
}

#[test]
fn every_short_length_at_every_start_offset_matches_the_oracle() {
    let buf = random_bytes(16 + 130, 7);
    for start in 0..16 {
        for len in 0..=130 {
            let bytes = &buf[start..start + len];
            assert_eq!(
                crc32(bytes),
                crc32_bytewise(bytes),
                "start {start}, length {len}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_buffers_up_to_64_kib_match_the_oracle(
        len in 0usize..(64 << 10) + 1,
        start in 0usize..16,
        seed in any::<u64>(),
    ) {
        let buf = random_bytes(start + len, seed);
        let bytes = &buf[start..];
        prop_assert_eq!(crc32(bytes), crc32_bytewise(bytes));
    }
}
