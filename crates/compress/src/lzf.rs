//! A fast, byte-oriented LZ77 codec in the LZO/LZF family.
//!
//! The paper compresses 1 MB blocks of nucleotide text with miniLZO (§7.3),
//! chosen because it is "a relatively fast compression algorithm" whose
//! compression time is ~two orders of magnitude below the WAN transmission
//! time of the compressed data. This module implements the same class of
//! codec from scratch:
//!
//! * greedy LZ77 with a 3-byte hash-chain-free match finder,
//! * 8 KiB offset window, match lengths 3..=264,
//! * byte-aligned output (no entropy coding), cheap in both directions —
//!   the regime the paper's feasibility condition
//!   `T_comp + T_comp_xmit + T_decomp < T_uncomp_xmit` assumes.
//!
//! On 1 MiB of `estgen` text (`cargo bench -p semplar-bench --bench micro
//! -- codec`, one core of a shared 2-vCPU Xeon host, throughput in
//! uncompressed bytes, medians of two batches) compression runs at
//! 160–210 MB/s and decompression at 360–520 MB/s. The byte-at-a-time
//! kernels these replaced ran at 140–190 and 220–260 MB/s.
//!
//! ## Kernels
//!
//! EST text parses into mostly 3-byte matches (72 % of about 275 k match
//! tokens per MiB, against about 1.4 k literal runs), so the cost is per
//! token, not per byte:
//!
//! * the encoder hashes and checks a candidate with one 4-byte load each,
//!   and the fourth byte settles the common 3-byte match by a branch;
//! * the decoder writes into zero-filled slack past the end of `dst` with
//!   fixed 8-byte match copies and 32-byte literal copies, then truncates
//!   to the decoded length — on `Err` too. The slack comes from capacity
//!   `dst` already has; the capacity grows only when appending a token's
//!   bytes would grow it, and no further.
//!
//! The straightforward encoder and decoder survive as the `#[cfg(test)]`
//! `reference` module; property tests hold both kernels byte-equal to it,
//! partial output on `Err` included.
//!
//! ## Stream format
//!
//! A sequence of tokens. The control byte `c` encodes:
//!
//! * `c < 0x20`: a literal run of `c + 1` bytes follows (1..=32 literals);
//! * otherwise a back-reference: `len3 = c >> 5` (1..=7). If `len3 == 7` an
//!   extension byte `e` follows and the match length is `9 + e`, else it is
//!   `len3 + 2`. The offset is `((c & 0x1F) << 8 | low) + 1` where `low` is
//!   the byte after the (optional) extension byte; offsets are 1..=8192.

/// Offsets must fit in 13 bits.
const MAX_OFF: usize = 1 << 13;
/// Maximum encodable match length (7 ⇒ extension byte, 9 + 255).
const MAX_LEN: usize = 264;
/// Minimum profitable match length.
const MIN_LEN: usize = 3;
/// Maximum literal-run length per token.
const MAX_LIT: usize = 32;

const HASH_BITS: u32 = 14;
/// Match-finder slots.
const TABLE: usize = 1 << HASH_BITS;
/// An empty match-finder slot.
const EMPTY: u32 = u32::MAX;
/// How far ahead of the write position the decoder zero-fills its output
/// at a time, within the capacity the output already has.
const GROW: usize = 4096;
/// Width of the decoder's fixed-size match copies; a match may scribble up
/// to this many bytes past its end, which later tokens overwrite.
const COPY: usize = 8;

/// Hash of three bytes packed little-endian into the low 24 bits of `v`.
#[inline(always)]
fn hash(v: u32) -> usize {
    ((v & 0x00FF_FFFF).wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
}

/// `src[i..i + 4]` little-endian; the fourth byte reads 0 when the input
/// ends after the third.
#[inline(always)]
fn load4(src: &[u8], i: usize) -> u32 {
    match src.get(i..i + 4) {
        Some(b) => u32::from_le_bytes(b.try_into().expect("4 bytes")),
        None => u32::from_le_bytes([src[i], src[i + 1], src[i + 2], 0]),
    }
}

#[inline(always)]
fn load8(src: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(src[i..i + 8].try_into().expect("8 bytes"))
}

/// Length of the common run of `src[a..]` and `src[b..]` (`a < b`), given
/// that the first `l` bytes already match, capped at `limit`.
#[inline(always)]
fn match_len(src: &[u8], a: usize, b: usize, mut l: usize, limit: usize) -> usize {
    while l + 8 <= limit {
        let x = load8(src, a + l) ^ load8(src, b + l);
        if x != 0 {
            return l + (x.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < limit && src[a + l] == src[b + l] {
        l += 1;
    }
    l
}

#[inline]
fn flush_literals(src: &[u8], dst: &mut Vec<u8>, from: usize, to: usize) {
    for run in src[from..to].chunks(MAX_LIT) {
        dst.push((run.len() - 1) as u8);
        dst.extend_from_slice(run);
    }
}

/// Compress `src`, appending to `dst`. Output for incompressible input is at
/// most `src.len() + src.len()/32 + 1` bytes.
pub fn compress(src: &[u8], dst: &mut Vec<u8>) {
    dst.reserve(src.len() / 2 + 16);
    let n = src.len();
    // Positions are stored as `u32`: past 4 GiB of input a slot no longer
    // names a position within the window, so the tail of such an input is
    // emitted as literals (still a valid stream).
    let mut slots = vec![EMPTY; TABLE];
    let table: &mut [u32; TABLE] = slots.as_mut_slice().try_into().expect("table size");
    let mut i = 0usize;
    let mut lit_start = 0usize;

    while i + MIN_LEN <= n {
        // One load serves the hash and the candidate check; the fourth byte
        // settles the common 3-byte match with a branch, not a compare loop.
        let v = load4(src, i);
        let h = hash(v);
        let cand = table[h] as usize;
        table[h] = i as u32;
        let mut matched = 0usize;
        if cand != EMPTY as usize && i - cand <= MAX_OFF {
            let c = load4(src, cand);
            if (c ^ v) & 0x00FF_FFFF == 0 {
                let limit = (n - i).min(MAX_LEN);
                matched = if c == v && limit > MIN_LEN {
                    match_len(src, cand, i, MIN_LEN + 1, limit)
                } else {
                    MIN_LEN
                };
            }
        }
        if matched >= MIN_LEN {
            flush_literals(src, dst, lit_start, i);
            let off = i - cand - 1; // 0-based on the wire
            if matched <= 8 {
                dst.push((((matched - 2) as u8) << 5) | ((off >> 8) as u8));
            } else {
                dst.push((7u8 << 5) | ((off >> 8) as u8));
                dst.push((matched - 9) as u8);
            }
            dst.push((off & 0xFF) as u8);
            // Seed the hash table inside the match so later data can refer
            // back into it (cheap: every other position).
            let end = i + matched;
            let mut j = i + 1;
            while j + MIN_LEN <= n && j < end {
                table[hash(load4(src, j))] = j as u32;
                j += 2;
            }
            i = end;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    flush_literals(src, dst, lit_start, n);
}

/// Make `dst[at..at + need]` writable; everything in `dst` past `at` is
/// scratch. The capacity grows only when `at + need` exceeds it, and then
/// as appending `need` bytes at `at` would grow it. Up to [`GROW`] bytes of
/// the capacity are zero-filled, so the decoder can write ahead by index
/// and cut back with `truncate`.
#[cold]
#[inline(never)]
fn make_room(dst: &mut Vec<u8>, at: usize, need: usize) {
    if at + need > dst.capacity() {
        dst.truncate(at);
        dst.reserve(need);
    }
    let to = (at + GROW).clamp(at + need, dst.capacity());
    if to > dst.len() {
        dst.resize(to, 0);
    }
}

/// Error returned when a compressed stream is malformed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Corrupt;

impl std::fmt::Display for Corrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "corrupt compressed stream")
    }
}
impl std::error::Error for Corrupt {}

/// Decompress `src`, appending to `dst`. Never panics on malformed input.
/// On `Err`, `dst` holds its old contents followed by the output of every
/// token before the malformed one.
pub fn decompress(src: &[u8], dst: &mut Vec<u8>) -> Result<(), Corrupt> {
    let base = dst.len();
    let mut o = base;
    let mut i = 0usize;
    let result = loop {
        let Some(&c) = src.get(i) else {
            break Ok(());
        };
        i += 1;
        if c < 0x20 {
            let run = c as usize + 1;
            if i + run > src.len() {
                break Err(Corrupt);
            }
            if o + MAX_LIT > dst.len() {
                make_room(dst, o, run);
            }
            if i + MAX_LIT <= src.len() && o + MAX_LIT <= dst.len() {
                dst[o..o + MAX_LIT].copy_from_slice(&src[i..i + MAX_LIT]);
            } else {
                dst[o..o + run].copy_from_slice(&src[i..i + run]);
            }
            i += run;
            o += run;
        } else {
            let mut len = (c >> 5) as usize + 2;
            if len == 9 {
                let Some(&e) = src.get(i) else {
                    break Err(Corrupt);
                };
                i += 1;
                len += e as usize;
            }
            let Some(&low) = src.get(i) else {
                break Err(Corrupt);
            };
            i += 1;
            let off = ((((c & 0x1F) as usize) << 8) | low as usize) + 1;
            if off > o - base {
                break Err(Corrupt);
            }
            if o + len + COPY > dst.len() {
                make_room(dst, o, len);
            }
            let from = o - off;
            // Overlapping copies are the point (e.g. RLE-like matches):
            // each chunk reads only bytes that are already final.
            if off >= COPY && o + len + COPY <= dst.len() {
                let w: [u8; COPY] = dst[from..from + COPY].try_into().expect("chunk");
                dst[o..o + COPY].copy_from_slice(&w);
                let mut k = COPY;
                while k < len {
                    let w: [u8; COPY] = dst[from + k..from + k + COPY].try_into().expect("chunk");
                    dst[o + k..o + k + COPY].copy_from_slice(&w);
                    k += COPY;
                }
            } else if off == 1 {
                let b = dst[from];
                dst[o..o + len].fill(b);
            } else {
                for k in 0..len {
                    dst[o + k] = dst[from + k];
                }
            }
            o += len;
        }
    };
    dst.truncate(o);
    result
}

/// The straightforward codec the fast kernels above must match byte for
/// byte: one hash and slice compare per position, one `push` per output
/// byte.
#[cfg(test)]
mod reference {
    use super::{Corrupt, HASH_BITS, MAX_LEN, MAX_LIT, MAX_OFF, MIN_LEN};

    fn hash3(b: &[u8]) -> usize {
        let v = (b[0] as u32) | ((b[1] as u32) << 8) | ((b[2] as u32) << 16);
        ((v.wrapping_mul(0x9E37_79B1)) >> (32 - HASH_BITS)) as usize
    }

    fn flush_literals(src: &[u8], dst: &mut Vec<u8>, from: usize, to: usize) {
        let mut s = from;
        while s < to {
            let run = (to - s).min(MAX_LIT);
            dst.push((run - 1) as u8);
            dst.extend_from_slice(&src[s..s + run]);
            s += run;
        }
    }

    pub fn compress(src: &[u8], dst: &mut Vec<u8>) {
        let n = src.len();
        let mut table = vec![usize::MAX; 1 << HASH_BITS];
        let mut i = 0usize;
        let mut lit_start = 0usize;
        while i + MIN_LEN <= n {
            let h = hash3(&src[i..]);
            let cand = table[h];
            table[h] = i;
            let mut matched = 0usize;
            if cand != usize::MAX && i - cand <= MAX_OFF && src[cand..cand + 3] == src[i..i + 3] {
                let limit = (n - i).min(MAX_LEN);
                let mut l = 3;
                while l < limit && src[cand + l] == src[i + l] {
                    l += 1;
                }
                matched = l;
            }
            if matched >= MIN_LEN {
                flush_literals(src, dst, lit_start, i);
                let off = i - cand - 1;
                if matched <= 8 {
                    dst.push((((matched - 2) as u8) << 5) | ((off >> 8) as u8));
                } else {
                    dst.push((7u8 << 5) | ((off >> 8) as u8));
                    dst.push((matched - 9) as u8);
                }
                dst.push((off & 0xFF) as u8);
                let end = i + matched;
                let mut j = i + 1;
                while j + MIN_LEN <= n && j < end {
                    table[hash3(&src[j..])] = j;
                    j += 2;
                }
                i = end;
                lit_start = i;
            } else {
                i += 1;
            }
        }
        flush_literals(src, dst, lit_start, n);
    }

    pub fn decompress(src: &[u8], dst: &mut Vec<u8>) -> Result<(), Corrupt> {
        let base = dst.len();
        let mut i = 0usize;
        while i < src.len() {
            let c = src[i];
            i += 1;
            if c < 0x20 {
                let run = c as usize + 1;
                if i + run > src.len() {
                    return Err(Corrupt);
                }
                dst.extend_from_slice(&src[i..i + run]);
                i += run;
            } else {
                let len3 = (c >> 5) as usize;
                let len = if len3 == 7 {
                    let e = *src.get(i).ok_or(Corrupt)? as usize;
                    i += 1;
                    9 + e
                } else {
                    len3 + 2
                };
                let low = *src.get(i).ok_or(Corrupt)? as usize;
                i += 1;
                let off = (((c & 0x1F) as usize) << 8 | low) + 1;
                if off > dst.len() - base {
                    return Err(Corrupt);
                }
                let from = dst.len() - off;
                for i in from..from + len {
                    let b = dst[i];
                    dst.push(b);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let mut c = Vec::new();
        compress(data, &mut c);
        let mut d = Vec::new();
        decompress(&c, &mut d).expect("decompress");
        d
    }

    #[test]
    fn empty_roundtrip() {
        assert_eq!(roundtrip(b""), b"");
    }

    #[test]
    fn short_inputs_roundtrip() {
        for n in 0..20 {
            let data: Vec<u8> = (0..n).map(|i| i as u8).collect();
            assert_eq!(roundtrip(&data), data, "n={n}");
        }
    }

    #[test]
    fn repetitive_input_compresses_hard() {
        let data = vec![b'A'; 100_000];
        let mut c = Vec::new();
        compress(&data, &mut c);
        assert!(
            c.len() < data.len() / 50,
            "only {} -> {}",
            data.len(),
            c.len()
        );
        let mut d = Vec::new();
        decompress(&c, &mut d).unwrap();
        assert_eq!(d, data);
    }

    #[test]
    fn dna_like_text_compresses_meaningfully() {
        // 4-letter alphabet with repeated motifs, like EST data.
        let motif = b"ACGTGGCTAACGGATTACAGCTT";
        let mut data = Vec::new();
        let mut x: u64 = 12345;
        while data.len() < 200_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            if x.is_multiple_of(3) {
                data.extend_from_slice(motif);
            } else {
                for k in 0..16 {
                    data.push(b"ACGT"[((x >> (k * 2)) & 3) as usize]);
                }
            }
        }
        let mut c = Vec::new();
        compress(&data, &mut c);
        let ratio = c.len() as f64 / data.len() as f64;
        assert!(ratio < 0.8, "ratio {ratio}");
        let mut d = Vec::new();
        decompress(&c, &mut d).unwrap();
        assert_eq!(d, data);
    }

    #[test]
    fn incompressible_input_expands_boundedly() {
        let mut x: u64 = 99;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x & 0xFF) as u8
            })
            .collect();
        let mut c = Vec::new();
        compress(&data, &mut c);
        assert!(c.len() <= data.len() + data.len() / 32 + 1);
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn long_matches_use_extension_byte() {
        let mut data = b"0123456789abcdef".repeat(40); // 640 bytes, long matches
        data.extend_from_slice(b"tail");
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn offsets_beyond_window_are_not_used() {
        // A motif, 10 KiB of noise (> 8 KiB window), then the motif again:
        // the second copy cannot reference the first; output must still
        // round-trip.
        let mut data = b"THE-QUICK-BROWN-FOX".to_vec();
        let mut x: u64 = 7;
        for _ in 0..10_240 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            data.push((x >> 32) as u8);
        }
        data.extend_from_slice(b"THE-QUICK-BROWN-FOX");
        assert_eq!(roundtrip(&data), data);
    }

    #[test]
    fn truncated_stream_is_an_error_not_a_panic() {
        let data = b"AAAAAAAAAABBBBBBBBBBAAAAAAAAAA".repeat(10);
        let mut c = Vec::new();
        compress(&data, &mut c);
        for cut in 0..c.len() {
            let mut d = Vec::new();
            let _ = decompress(&c[..cut], &mut d); // must not panic
        }
    }

    #[test]
    fn garbage_streams_never_panic() {
        let mut x: u64 = 3;
        for trial in 0..200 {
            let len = (trial % 64) + 1;
            let garbage: Vec<u8> = (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    (x & 0xFF) as u8
                })
                .collect();
            let mut d = Vec::new();
            let _ = decompress(&garbage, &mut d);
        }
    }

    #[test]
    fn decompress_appends_after_existing_prefix() {
        let mut c = Vec::new();
        compress(b"hello world hello world", &mut c);
        let mut d = b"prefix:".to_vec();
        decompress(&c, &mut d).unwrap();
        assert_eq!(d, b"prefix:hello world hello world");
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn roundtrip_arbitrary(data in proptest::collection::vec(any::<u8>(), 0..4096)) {
                prop_assert_eq!(roundtrip(&data), data);
            }

            #[test]
            fn roundtrip_low_entropy(
                seed in proptest::collection::vec(0u8..4, 1..64),
                reps in 1usize..200,
            ) {
                let alphabet = b"ACGT";
                let unit: Vec<u8> = seed.iter().map(|&s| alphabet[s as usize]).collect();
                let data: Vec<u8> = unit.iter().cycle().take(unit.len() * reps).copied().collect();
                prop_assert_eq!(roundtrip(&data), data);
            }

            #[test]
            fn arbitrary_bytes_never_panic_decoder(
                garbage in proptest::collection::vec(any::<u8>(), 0..512)
            ) {
                let mut d = Vec::new();
                let _ = decompress(&garbage, &mut d);
            }
        }
    }

    /// The kernels against the [`reference`](super::reference) codec.
    mod oracle {
        use super::super::reference;
        use super::*;
        use proptest::prelude::*;

        fn acgt(seed: &[u8], reps: usize, noise: &[u8]) -> Vec<u8> {
            let unit: Vec<u8> = seed.iter().map(|&s| b"ACGT"[s as usize & 3]).collect();
            let mut data: Vec<u8> = unit
                .iter()
                .cycle()
                .take(unit.len() * reps)
                .copied()
                .collect();
            // Sparse point mutations break matches at arbitrary lengths.
            for (k, &b) in noise.iter().enumerate() {
                let at = (k * 7919 + b as usize * 31) % data.len();
                data[at] = b"ACGT"[b as usize & 3];
            }
            data
        }

        fn compress_both(data: &[u8], prefix: &[u8]) -> Vec<u8> {
            let mut fast = prefix.to_vec();
            compress(data, &mut fast);
            let mut slow = prefix.to_vec();
            reference::compress(data, &mut slow);
            assert_eq!(fast, slow, "compressed streams differ");
            fast.split_off(prefix.len())
        }

        /// Same `Result`, same bytes in `dst`, from a non-empty prefix.
        fn decode_matches_reference(stream: &[u8]) {
            let prefix = b"prefix:".to_vec();
            let mut fast = prefix.clone();
            let mut slow = prefix;
            let got = decompress(stream, &mut fast);
            let want = reference::decompress(stream, &mut slow);
            assert_eq!(got, want, "results differ on {stream:?}");
            assert_eq!(fast, slow, "partial output differs on {stream:?}");
        }

        proptest! {
            #[test]
            fn compress_matches_reference_arbitrary(
                data in proptest::collection::vec(any::<u8>(), 0..4096),
                prefix in proptest::collection::vec(any::<u8>(), 0..16),
            ) {
                compress_both(&data, &prefix);
            }

            #[test]
            fn compress_matches_reference_low_entropy(
                seed in proptest::collection::vec(0u8..4, 1..64),
                reps in 1usize..400,
                noise in proptest::collection::vec(any::<u8>(), 0..24),
            ) {
                let data = acgt(&seed, reps, &noise);
                let z = compress_both(&data, b"");
                let mut back = Vec::new();
                decompress(&z, &mut back).unwrap();
                prop_assert!(back == data);
            }

            #[test]
            fn decompress_matches_reference_on_garbage(
                garbage in proptest::collection::vec(any::<u8>(), 0..512)
            ) {
                decode_matches_reference(&garbage);
            }

            #[test]
            fn decompress_matches_reference_on_every_truncation(
                seed in proptest::collection::vec(0u8..4, 1..24),
                reps in 1usize..40,
                noise in proptest::collection::vec(any::<u8>(), 0..8),
            ) {
                let mut data = acgt(&seed, reps, &noise);
                data.extend_from_slice(b"0123456789abcdefghijklmnopqrstuvwxyz");
                let z = compress_both(&data, b"");
                for cut in 0..=z.len() {
                    decode_matches_reference(&z[..cut]);
                }
            }
        }
    }
}
