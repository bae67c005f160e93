//! Golden compressed stream: the LZF encoder's output on a fixed EST input
//! is pinned by length and FNV-1a-64 digest. Every virtual-time figure that
//! ships compressed frames depends on these exact bytes, so any change to
//! the hash, the greedy parse, the in-match seeding or the token encoding
//! shows up here first.

use semplar_compress::{Codec, Lzf};
use semplar_workloads::estgen::{generate, EstGenConfig};

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[test]
fn lzf_stream_on_est_text_is_pinned() {
    let est = generate(1 << 20, 7, &EstGenConfig::default());

    let mut whole = Vec::new();
    Lzf.compress(&est, &mut whole);
    assert_eq!(
        (whole.len(), format!("{:#018x}", fnv1a64(&whole))),
        (559_555, "0xd9836843f3cf67e6".to_string()),
        "whole-input stream changed"
    );

    // The pipeline's shape: independent 256 KiB blocks, concatenated.
    let mut blocks = Vec::new();
    for chunk in est.chunks(256 << 10) {
        Lzf.compress(chunk, &mut blocks);
    }
    assert_eq!(
        (blocks.len(), format!("{:#018x}", fnv1a64(&blocks))),
        (559_900, "0xf171e55348d88c02".to_string()),
        "256 KiB block stream changed"
    );

    // Back-references are relative, so concatenated block streams decode
    // as one stream too.
    for (stream, name) in [(&whole, "whole"), (&blocks, "blocks")] {
        let mut back = Vec::new();
        Lzf.decompress(stream, &mut back).expect("decodes");
        assert!(back == est, "{name} stream round-trips");
    }
}
