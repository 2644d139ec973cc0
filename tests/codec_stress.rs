//! Stress tests for the shared lossless substrate: large alphabets,
//! window-boundary matches, pathological distributions.

use qoz_suite::codec::huffman::HuffmanScratch;
use qoz_suite::codec::{
    decode_bins_with, encode_bins_with, lossless_compress_with, lossless_decompress_with,
    ByteReader, ByteWriter, EntropyScratch, HuffmanDecoder, HuffmanEncoder,
};

fn pack(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    lossless_compress_with(data, &mut EntropyScratch::new(), &mut out);
    out
}

fn unpack(packed: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    lossless_decompress_with(packed, &mut EntropyScratch::new(), &mut out).unwrap();
    out
}

fn encode(bins: &[u32]) -> Vec<u8> {
    let mut out = Vec::new();
    encode_bins_with(bins, &mut EntropyScratch::new(), &mut out);
    out
}

fn decode(blob: &[u8]) -> Vec<u32> {
    let mut out = Vec::new();
    decode_bins_with(blob, &mut EntropyScratch::new(), &mut out).unwrap();
    out
}

/// Huffman-only roundtrip: build, encode, decode.
fn huffman_roundtrip(symbols: &[u32]) -> (HuffmanEncoder, Vec<u32>) {
    let mut hs = HuffmanScratch::new();
    let enc = HuffmanEncoder::from_symbols_with(symbols, &mut hs).unwrap();
    let mut w = ByteWriter::new();
    enc.encode_with(symbols, &mut Vec::new(), &mut w);
    let buf = w.finish();
    let mut decoded = Vec::new();
    HuffmanDecoder::decode_with(&mut ByteReader::new(&buf), &mut hs, &mut decoded).unwrap();
    (enc, decoded)
}

#[test]
fn huffman_handles_large_alphabet() {
    // ~60k distinct symbols (the full default quantizer code space).
    let symbols: Vec<u32> = (0..60_000u32).flat_map(|s| [s, s]).collect();
    let (enc, decoded) = huffman_roundtrip(&symbols);
    assert_eq!(enc.num_symbols(), 60_000);
    assert_eq!(decoded, symbols);
}

#[test]
fn huffman_extreme_skew_stays_within_max_code_len() {
    // Fibonacci-like frequencies drive naive Huffman depth ~n; the
    // flattening rebuild must cap it at MAX_CODE_LEN.
    let mut symbols = Vec::new();
    let mut f0: u64 = 1;
    let mut f1: u64 = 1;
    for s in 0..48u32 {
        let reps = f0.min(5000); // cap memory but keep the skew shape
        symbols.extend(std::iter::repeat_n(s, reps as usize));
        let f2 = f0.saturating_add(f1);
        f0 = f1;
        f1 = f2;
    }
    let (enc, decoded) = huffman_roundtrip(&symbols);
    for s in 0..48u32 {
        assert!(enc.length_of(s).unwrap() <= qoz_suite::codec::huffman::MAX_CODE_LEN);
    }
    assert_eq!(decoded, symbols);
}

#[test]
fn lzss_match_across_window_boundary_distances() {
    // Repeats separated by close to the 64 KiB window: matches near the
    // maximum distance must round-trip.
    let motif: Vec<u8> = (0..64u8).collect();
    let mut data = motif.clone();
    data.extend(vec![0xEEu8; (1 << 16) - 100]);
    data.extend(&motif); // distance ~65436 from first copy
    assert_eq!(unpack(&pack(&data)), data);
}

#[test]
fn lzss_just_beyond_window_still_correct() {
    let motif: Vec<u8> = (0..64u8).map(|b| b.wrapping_mul(37)).collect();
    let mut data = motif.clone();
    data.extend(vec![0x11u8; (1 << 16) + 50]); // push motif out of window
    data.extend(&motif);
    assert_eq!(unpack(&pack(&data)), data);
}

#[test]
fn bins_with_all_identical_values_compress_hugely() {
    let bins = vec![32768u32; 1_000_000];
    let blob = encode(&bins);
    assert!(blob.len() < 2_000, "constant bins -> {} bytes", blob.len());
    assert_eq!(decode(&blob).len(), 1_000_000);
}

#[test]
fn alternating_bins_roundtrip() {
    let bins: Vec<u32> = (0..100_000)
        .map(|i| if i % 2 == 0 { 32768 } else { 32769 })
        .collect();
    let blob = encode(&bins);
    assert_eq!(decode(&blob), bins);
    // 1 bit/symbol + LZSS on top: far below raw.
    assert!(blob.len() < 100_000 / 4);
}

#[test]
fn empty_and_single_byte_lossless() {
    for data in [vec![], vec![0x42u8]] {
        assert_eq!(unpack(&pack(&data)), data);
    }
}
