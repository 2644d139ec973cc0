//! LZSS dictionary coding.
//!
//! The SZ reference implementations run zstd over the Huffman-coded
//! quantization stream; residual structure (runs of identical bins, level
//! periodicity) is removed by dictionary matching. This module implements
//! a classic LZSS with hash-chain match finding that fills the same role:
//!
//! * 64 KiB sliding window,
//! * minimum match length 4, maximum 259 (8-bit length field),
//! * MSB-first flag bits: `0` = literal byte, `1` = (distance, length)
//!   back-reference.
//!
//! The format is framed with the uncompressed length so the decoder can
//! pre-allocate and detect truncation.
//!
//! # Match finding
//!
//! At each position the finder walks the hash chain of the 4 bytes there
//! (at most 64 entries, newest first, stopping at the first one
//! outside the window) and keeps the first longest match. On Huffman
//! output most positions have no match at all, yet the chain is rarely
//! empty: it is full of other 4-byte keys that share the 15-bit hash, and
//! walking it costs a dependent load per entry. A prefilter skips those
//! walks without changing a single output byte:
//!
//! * Positions are grouped in epochs of 64 Ki (`j >> 16`). A bitset per
//!   epoch parity records a wider hash of the 4-byte key at every
//!   inserted position `j`; a set is cleared when insertion enters its
//!   epoch, so it holds the keys of the current epoch and, until then, of
//!   the one two back.
//! * Every position `p ≤ n − 4` is inserted before the search at any
//!   `i > p`, and the window `[i − 65535, i − 1]` lies within epochs
//!   `e − 1` and `e` of `i`. If neither set has the key's bit, no
//!   position in the window starts with the same 4 bytes.
//! * Without such a position the walk can only end with a match shorter
//!   than 4 bytes, which is emitted as a literal — so skipping it is
//!   exact. Bitset collisions only cost an unneeded walk.
//!
//! Inside the walk, a candidate is extended only if its first 4 bytes and
//! the byte at `max(best, 3)` agree; any other candidate is shorter than
//! 4 bytes or no longer than the best so far, so it could not have been
//! chosen. Matches then extend 8 bytes per step.
//!
//! Chain entries are `u32` positions compared by wrapping distance. At
//! each epoch start every `head` entry already out of the window is moved
//! to the window's edge, so every entry a walk can reach lies within
//! three windows of the search position and the wrapped distance is the
//! true one for inputs of any length.

use crate::bits::{BitReader, BitWriter};
use crate::byteio::{ByteReader, ByteWriter};
use crate::scratch::GrowCounter;
use crate::{CodecError, Result};

const WINDOW: usize = 1 << 16;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = MIN_MATCH + 255;
const HASH_BITS: u32 = 15;
const HASH_SIZE: usize = 1 << HASH_BITS;
/// Bounded chain walk; longer chains give better ratios but slow encoding.
const MAX_CHAIN: usize = 64;
const HASH_MUL: u32 = 0x9E37_79B1;
/// log2 of the prefilter bits per window position.
const FILTER_DENSITY: u32 = 5;

#[inline(always)]
fn load4(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(data[at..at + 4].try_into().expect("4-byte slice"))
}

/// Chain bucket of a 4-byte key.
#[inline(always)]
fn hash4(key: u32) -> usize {
    (key.wrapping_mul(HASH_MUL) >> (32 - HASH_BITS)) as usize
}

/// Length of the common prefix of `a` and `b` (`a` at least as long as `b`).
#[inline(always)]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let a = &a[..b.len()];
    let mut l = 0;
    while l + 8 <= b.len() {
        let x = u64::from_le_bytes(a[l..l + 8].try_into().expect("8-byte slice"))
            ^ u64::from_le_bytes(b[l..l + 8].try_into().expect("8-byte slice"));
        if x != 0 {
            return l + (x.trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    while l < b.len() && a[l] == b[l] {
        l += 1;
    }
    l
}

/// Reusable working memory for [`lzss_compress_with`].
///
/// The match finder needs a chain head table (2^15 entries), a chain
/// link table (up to 2^16), two epoch bitsets sized from the input
/// length, and flag/literal/match staging; for repeated compression of
/// similar-sized inputs these dominate the allocator traffic of the
/// lossless stage. A scratch keeps them alive across calls — buffers are
/// cleared, capacity is retained. The decode side
/// ([`lzss_decompress_with`]) reuses the match staging too.
#[derive(Debug, Default)]
pub struct LzScratch {
    head: Vec<u32>,
    prev: Vec<u32>,
    filter: Vec<u64>,
    bits: Vec<u8>,
    literals: Vec<u8>,
    matches: Vec<(u16, u8)>,
    grows: GrowCounter,
}

impl LzScratch {
    /// Fresh, empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Decode-side buffer growth events recorded so far (monotone).
    pub fn grow_events(&self) -> u64 {
        self.grows.get()
    }
}

/// The hash chains plus the epoch prefilter, borrowed from [`LzScratch`]
/// for one call.
struct Chains<'a> {
    /// Newest position per bucket (`u32`, wrapping; see the module docs).
    head: &'a mut [u32],
    /// `prev[j % WINDOW]`: the position `head` held when `j` was
    /// inserted. Never cleared — every read follows the write for it.
    prev: &'a mut [u32],
    /// The two epoch bitsets, interleaved so one load tests both: bit
    /// `f` of the set for even epochs is bit `f % 32` of word `f / 32`,
    /// and the odd-epoch set holds it 32 bits higher.
    filter: &'a mut [u64],
    /// Right shift taking a multiplied key to a bitset index.
    filter_shift: u32,
}

impl<'a> Chains<'a> {
    fn new(scratch: &'a mut LzScratch, n: usize) -> Self {
        let bits = (n.min(WINDOW).next_power_of_two() << FILTER_DENSITY).max(32);
        scratch.head.clear();
        // Out of the window for every search before the first sweep.
        scratch
            .head
            .resize(HASH_SIZE, 0u32.wrapping_sub(WINDOW as u32));
        if scratch.prev.len() < n.min(WINDOW) {
            scratch.prev.resize(n.min(WINDOW), 0);
        }
        scratch.filter.clear();
        scratch.filter.resize(bits / 32, 0);
        Chains {
            head: &mut scratch.head,
            prev: &mut scratch.prev,
            filter: &mut scratch.filter,
            filter_shift: 32 - bits.trailing_zeros(),
        }
    }

    /// Word index and even-epoch bit of `key` in the prefilter.
    #[inline(always)]
    fn filter_bit(&self, key: u32) -> (usize, u64) {
        let f = key.wrapping_mul(HASH_MUL) >> self.filter_shift;
        ((f / 32) as usize, 1 << (f % 32))
    }

    /// Could a position inserted in the current or previous epoch start
    /// with `key`? `false` is exact; `true` may be a collision.
    #[inline(always)]
    fn may_contain(&self, key: u32) -> bool {
        let (w, bit) = self.filter_bit(key);
        self.filter[w] & (bit | bit << 32) != 0
    }

    /// Insert position `j`, whose 4 bytes are `key`. Positions must be
    /// inserted in order, each exactly once.
    #[inline(always)]
    fn insert(&mut self, j: usize, key: u32) {
        if j % WINDOW == 0 && j > 0 {
            self.enter_epoch(j);
        }
        let h = hash4(key);
        self.prev[j % WINDOW] = self.head[h];
        self.head[h] = j as u32;
        let (w, bit) = self.filter_bit(key);
        self.filter[w] |= bit << (32 * (j / WINDOW % 2));
    }

    /// Start epoch `j / WINDOW`: clear its bitset and move every `head`
    /// entry already out of the window to the window's edge.
    #[cold]
    fn enter_epoch(&mut self, j: usize) {
        let keep = if j / WINDOW % 2 == 0 {
            0xFFFF_FFFF_0000_0000
        } else {
            0x0000_0000_FFFF_FFFF
        };
        for w in self.filter.iter_mut() {
            *w &= keep;
        }
        let j = j as u32;
        for h in self.head.iter_mut() {
            // `j - min(j - h, WINDOW)`: branch-free, so the loop vectorizes.
            *h = j.wrapping_sub(j.wrapping_sub(*h).min(WINDOW as u32));
        }
    }

    /// Longest match for position `i` (whose 4 bytes are `key`) as
    /// `(length, distance)`, or length 0 if none reaches [`MIN_MATCH`].
    #[inline(always)]
    fn find(&self, input: &[u8], i: usize, key: u32) -> (usize, usize) {
        let (mut best_len, mut best_dist) = (0, 0);
        if !self.may_contain(key) {
            return (best_len, best_dist);
        }
        let limit = (input.len() - i).min(MAX_MATCH);
        let here = &input[i..i + limit];
        let mut cand = self.head[hash4(key)];
        for _ in 0..MAX_CHAIN {
            let dist = (i as u32).wrapping_sub(cand) as usize;
            if dist >= WINDOW {
                break;
            }
            let c = i - dist;
            let k = best_len.max(MIN_MATCH - 1);
            if input[c + k] == here[k] && load4(input, c) == key {
                let l = MIN_MATCH + common_prefix(&input[c + MIN_MATCH..], &here[MIN_MATCH..]);
                if l > best_len {
                    best_len = l;
                    best_dist = dist;
                    if l == limit {
                        break;
                    }
                }
            }
            cand = self.prev[c % WINDOW];
        }
        (best_len, best_dist)
    }
}

/// Compress `input` with LZSS into `out` (cleared first), staging the
/// match finder in `scratch`. The output starts with a varint of the
/// uncompressed length.
pub fn lzss_compress_with(input: &[u8], scratch: &mut LzScratch, out: &mut Vec<u8>) {
    let mut w = ByteWriter::from_vec(std::mem::take(out));
    w.reserve(input.len() / 2 + 16);
    w.put_varint(input.len() as u64);
    if input.is_empty() {
        *out = w.finish();
        return;
    }

    let mut bits = BitWriter::from_vec(std::mem::take(&mut scratch.bits));
    let mut literals = std::mem::take(&mut scratch.literals);
    let mut matches = std::mem::take(&mut scratch.matches);
    literals.clear();
    matches.clear();

    let n = input.len();
    let mut chains = Chains::new(scratch, n);
    let mut i = 0;
    while i + MIN_MATCH <= n {
        let key = load4(input, i);
        let (len, dist) = chains.find(input, i, key);
        chains.insert(i, key);
        if len >= MIN_MATCH {
            bits.put_bit(true);
            matches.push((dist as u16, (len - MIN_MATCH) as u8));
            // Insert every other covered position that starts 4 bytes.
            for j in i + 1..(i + len).min(n - MIN_MATCH + 1) {
                chains.insert(j, load4(input, j));
            }
            i += len;
        } else {
            bits.put_bit(false);
            literals.push(input[i]);
            i += 1;
        }
    }
    // The last < 4 bytes cannot start a match.
    for &b in &input[i..] {
        bits.put_bit(false);
        literals.push(b);
    }

    let payload = bits.finish();
    w.put_len_prefixed(&payload);
    w.put_len_prefixed(&literals);
    w.put_varint(matches.len() as u64);
    for &(dist, len) in matches.iter() {
        w.put_u16(dist);
        w.put_u8(len);
    }
    *out = w.finish();
    // Recycle the staging buffers.
    scratch.bits = payload;
    scratch.literals = literals;
    scratch.matches = matches;
}

/// Decompress a buffer produced by [`lzss_compress_with`]: the match
/// list is staged in `scratch` and the decoded bytes replace the
/// contents of `out` (cleared, capacity kept).
pub fn lzss_decompress_with(
    input: &[u8],
    scratch: &mut LzScratch,
    out: &mut Vec<u8>,
) -> Result<()> {
    let mut r = ByteReader::new(input);
    let total = r.get_varint()?;
    out.clear();
    if total == 0 {
        return Ok(());
    }
    let flags = r.get_len_prefixed()?;
    let literals = r.get_len_prefixed()?;
    let n_matches = r.get_varint()? as usize;
    if n_matches > input.len() {
        return Err(CodecError::Corrupt("implausible match count"));
    }
    // Bound the claimed size by what the tokens can produce before
    // reserving for it.
    if total > (literals.len() + n_matches * MAX_MATCH) as u64 {
        return Err(CodecError::Corrupt("implausible uncompressed size"));
    }
    let total = total as usize;
    scratch.grows.check(scratch.matches.capacity(), n_matches);
    scratch.matches.clear();
    for _ in 0..n_matches {
        let dist = r.get_u16()?;
        let len = r.get_u8()?;
        scratch.matches.push((dist, len));
    }

    let mut bits = BitReader::new(flags);
    let mut lit_iter = literals.iter();
    let mut match_iter = scratch.matches.iter();
    scratch.grows.check(out.capacity(), total);
    out.reserve(total);
    while out.len() < total {
        if bits.get_bit()? {
            let &(dist, len) = match_iter
                .next()
                .ok_or(CodecError::Corrupt("missing match"))?;
            let (dist, len) = (dist as usize, len as usize + MIN_MATCH);
            if dist == 0 || dist > out.len() {
                return Err(CodecError::Corrupt("match distance out of range"));
            }
            let start = out.len() - dist;
            for k in 0..len {
                let b = out[start + k];
                out.push(b);
            }
        } else {
            let &b = lit_iter
                .next()
                .ok_or(CodecError::Corrupt("missing literal"))?;
            out.push(b);
        }
    }
    if out.len() != total {
        return Err(CodecError::Corrupt("length mismatch after decode"));
    }
    Ok(())
}

/// The match finder before the prefilter, kept verbatim as the oracle
/// that [`lzss_compress_with`] must reproduce byte for byte.
#[cfg(test)]
fn lzss_compress_reference(input: &[u8]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_varint(input.len() as u64);
    if input.is_empty() {
        return w.finish();
    }
    let mut bits = BitWriter::new();
    let mut literals = Vec::new();
    let mut matches: Vec<(u16, u8)> = Vec::new();
    // head[h] = most recent position with hash h; prev[i % WINDOW] = chain.
    let mut head = vec![usize::MAX; HASH_SIZE];
    let mut prev = vec![usize::MAX; WINDOW];

    let n = input.len();
    let mut i = 0;
    while i < n {
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i + MIN_MATCH <= n {
            let h = hash4(load4(input, i));
            let mut cand = head[h];
            let mut chain = 0;
            let limit = (n - i).min(MAX_MATCH);
            while cand != usize::MAX && i - cand < WINDOW && chain < MAX_CHAIN {
                // Quick reject: check the byte just past the current best.
                if best_len == 0 || input[cand + best_len] == input[i + best_len] {
                    let mut l = 0;
                    while l < limit && input[cand + l] == input[i + l] {
                        l += 1;
                    }
                    if l > best_len {
                        best_len = l;
                        best_dist = i - cand;
                        if l == limit {
                            break;
                        }
                    }
                }
                cand = prev[cand % WINDOW];
                chain += 1;
            }
        }

        if best_len >= MIN_MATCH {
            bits.put_bit(true);
            matches.push((best_dist as u16, (best_len - MIN_MATCH) as u8));
            // Insert hash entries for every covered position.
            let end = (i + best_len).min(n.saturating_sub(MIN_MATCH - 1));
            let mut j = i;
            while j < end {
                let h = hash4(load4(input, j));
                prev[j % WINDOW] = head[h];
                head[h] = j;
                j += 1;
            }
            i += best_len;
        } else {
            bits.put_bit(false);
            literals.push(input[i]);
            if i + MIN_MATCH <= n {
                let h = hash4(load4(input, i));
                prev[i % WINDOW] = head[h];
                head[h] = i;
            }
            i += 1;
        }
    }

    w.put_len_prefixed(&bits.finish());
    w.put_len_prefixed(&literals);
    w.put_varint(matches.len() as u64);
    for &(dist, len) in matches.iter() {
        w.put_u16(dist);
        w.put_u8(len);
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift byte source.
    fn random_bytes(len: usize, seed: u32) -> Vec<u8> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect()
    }

    /// Inputs that stress every branch of the match finder: tiny
    /// lengths, long runs (the chain cap and the break at the length
    /// limit), periods inside and beyond the window, dense collisions,
    /// and random data across the epoch boundaries of the prefilter.
    fn oracle_corpus() -> Vec<Vec<u8>> {
        let mut corpus = Vec::new();
        for len in 0..20 {
            corpus.push(vec![0u8; len]);
            corpus.push((0..len).map(|k| b"abcab"[k % 5]).collect());
            corpus.push(random_bytes(len, 7 + len as u32));
        }
        corpus.push(vec![0u8; 300_000]);
        corpus.push((0..100_000).map(|k| (k % 7) as u8).collect());
        let block = random_bytes(70_000, 11);
        corpus.push(block.iter().cycle().take(250_000).copied().collect());
        corpus.push(random_bytes(200_000, 13).iter().map(|b| b & 1).collect());
        let mut sparse = vec![0u8; 200_000];
        let picks = random_bytes(4_000, 17);
        for (k, p) in picks.chunks(2).enumerate() {
            let start = k * 97 + p[0] as usize;
            let run = &mut sparse[start..start + p[1] as usize % 24];
            run.fill(p[1]);
        }
        corpus.push(sparse);
        for len in [65_535, 65_536, 65_537, 131_071, 131_072, 131_073, 400_000] {
            corpus.push(random_bytes(len, len as u32));
        }
        corpus
    }

    #[test]
    fn prefiltered_finder_matches_reference_byte_for_byte() {
        let corpus = oracle_corpus();
        // One scratch shared across every size, in both orders, so stale
        // chains and prefilter bits from a previous call are exercised.
        let mut shared = LzScratch::new();
        let mut out = Vec::new();
        for data in corpus.iter().chain(corpus.iter().rev()) {
            let want = lzss_compress_reference(data);
            lzss_compress_with(data, &mut shared, &mut out);
            assert!(
                out == want,
                "reused scratch diverges on {} bytes",
                data.len()
            );
            assert!(
                pack(data) == want,
                "fresh scratch diverges on {} bytes",
                data.len()
            );
            assert_eq!(unpack(&out).unwrap(), *data);
        }
    }

    fn pack(input: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        lzss_compress_with(input, &mut LzScratch::new(), &mut out);
        out
    }

    fn unpack(input: &[u8]) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        lzss_decompress_with(input, &mut LzScratch::new(), &mut out)?;
        Ok(out)
    }

    fn roundtrip(data: &[u8]) {
        let c = pack(data);
        let d = unpack(&c).unwrap();
        assert_eq!(d, data);
    }

    #[test]
    fn roundtrip_empty() {
        roundtrip(&[]);
    }

    #[test]
    fn roundtrip_short() {
        roundtrip(b"abc");
    }

    #[test]
    fn roundtrip_repetitive() {
        let data: Vec<u8> = b"abcdefgh".iter().cycle().take(10_000).copied().collect();
        let c = pack(&data);
        assert!(
            c.len() < data.len() / 4,
            "repetitive data should compress well, got {} for {}",
            c.len(),
            data.len()
        );
        roundtrip(&data);
    }

    #[test]
    fn roundtrip_incompressible() {
        roundtrip(&random_bytes(4096, 0x12345678));
    }

    #[test]
    fn roundtrip_run_of_zeros() {
        roundtrip(&vec![0u8; 100_000]);
    }

    #[test]
    fn roundtrip_overlapping_match() {
        // "aaaa..." forces overlapping copies (dist 1, long match).
        let mut data = vec![b'x'];
        data.extend(vec![b'a'; 500]);
        roundtrip(&data);
    }

    #[test]
    fn roundtrip_long_mixed() {
        let mut data = Vec::new();
        for i in 0..5000u32 {
            data.extend_from_slice(&(i % 97).to_le_bytes());
        }
        roundtrip(&data);
    }

    #[test]
    fn truncated_stream_errors() {
        let data: Vec<u8> = b"hello world hello world hello world".to_vec();
        let c = pack(&data);
        for cut in 0..c.len() {
            assert!(
                unpack(&c[..cut]).is_err(),
                "truncation at {cut} not detected"
            );
        }
    }

    #[test]
    fn corrupt_distance_rejected() {
        // Hand-build: total=4, flags = [1 match], no literals, 1 match with
        // distance 9 (> produced output).
        let mut w = ByteWriter::new();
        w.put_varint(4);
        let mut bits = BitWriter::new();
        bits.put_bit(true);
        w.put_len_prefixed(&bits.finish());
        w.put_len_prefixed(&[]);
        w.put_varint(1);
        w.put_u16(9);
        w.put_u8(0);
        let buf = w.finish();
        assert!(unpack(&buf).is_err());
    }

    #[test]
    fn oversized_total_rejected_before_allocating() {
        // 10 bytes claiming 2^34 - 1 output bytes from one literal.
        let mut w = ByteWriter::new();
        w.put_varint((1 << 34) - 1);
        w.put_len_prefixed(&[0x00]);
        w.put_len_prefixed(b"a");
        w.put_varint(0);
        let buf = w.finish();
        assert_eq!(buf.len(), 10);
        assert!(unpack(&buf).is_err());
    }
}
