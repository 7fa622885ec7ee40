//! Lz compatibility across the encoder change of PR 20.
//!
//! The token format and the decoder did not change; what the encoder
//! *chooses* did (it strides over input that does not match, and keeps
//! its tables across records). Two directions, then:
//!
//! * **Old shards stay readable.** The streams below were produced by the
//!   encoder of the parent commit (`LzCodec::default().encode`, built
//!   from that commit's source) and are committed as bytes; the decoder
//!   must return the originals.
//! * **New shards are readable by the old decoder.** The decoder of the
//!   parent commit is kept here as a reference (matches copied a byte at
//!   a time) and must decode what today's encoder emits.

use drai_io::codec::{Codec, CodecError, LzCodec, MAX_DECODED_BYTES};
use drai_io::varint::read_uvarint;

/// `record` of `shard_bytes_pin.rs`: runs, noise, a rising `u32` series,
/// text.
fn record(i: usize, len: usize) -> Vec<u8> {
    let mut state = (i as u32).wrapping_mul(2_654_435_761) | 1;
    (0..len)
        .map(|j| match i % 4 {
            0 => (j / 37 + i) as u8,
            1 => {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 24) as u8
            }
            2 => ((i * 1000 + j / 4 * 3) as u32).to_le_bytes()[j % 4],
            _ => b"data readiness "[j % 15],
        })
        .collect()
}

/// `(texture, original, stream of the parent's encoder in hex)`.
fn parent_streams() -> Vec<(&'static str, Vec<u8>, &'static str)> {
    vec![
        (
            "runs",
            record(0, 300),
            concat!(
                "0100240101012401010224010103240101042401010524010106240101072401",
                "040808080800"
            ),
        ),
        (
            "noise",
            record(1, 160),
            concat!(
                "a001422fc514801a23f2ce4672b3b65f1acfbdde76ea1150543c50c9322e822a",
                "906dd117e700adce1e1d412c8bc887a0db795adb6f51406a04a2e59bb8ca7956",
                "cdb25bc4a25bd6f6d75ed6e19749d1606b2354131babe95088fd4b7b7ab11b69",
                "c4b98ac25474ad74f8ce6ea4f45c4ac0bfcc5f9372186787c657a969ae1d0568",
                "e8b59b2213beb6ed20e7fab632d0fa284459c2f123dde956951e3d69bfeb2b9c",
                "1ebc00"
            ),
        ),
        (
            "rising_u32",
            record(2, 400),
            concat!(
                "9003d0070000d3070000d6070000d9070000dc070000df070000e2070000e507",
                "0000e8070000eb070000ee070000f1070000f4070000f7070000fa070000fd07",
                "0000000800000308000006080000090800000c0800000f080000120800001508",
                "0000180800001b0800001e0800002108000024080000270800002a0800002d08",
                "0000300800003308000036080000390800003c0800003f080000420800004508",
                "0000480800004b0800004e0800005108000054080000570800005a0800005d08",
                "0000600800006308000066080000690800006c0800006f080000720800007508",
                "0000780800007b0800007e0800008108000084080000870800008a0800008d08",
                "0000900800009308000096080000990800009c0800009f080000a2080000a508",
                "0000a8080000ab080000ae080000b1080000b4080000b7080000ba080000bd08",
                "0000c0080000c3080000c6080000c9080000cc080000cf080000d2080000d508",
                "0000d8080000db080000de080000e1080000e4080000e7080000ea080000ed08",
                "0000f0080000f3080000f6080000f908000000"
            ),
        ),
        (
            "text",
            record(3, 300),
            "0f646174612072656164696e657373209d020f0000",
        ),
        ("empty", Vec::new(), "0000"),
        ("three_bytes", vec![7, 8, 9], "0307080900"),
        ("one_long_run", vec![0xAB; 5000], "01ab8727010000"),
    ]
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn streams_of_the_parent_encoder_decode_to_their_originals() {
    let streams = parent_streams();
    assert!(streams.len() >= 6);
    for (name, original, hex) in streams {
        assert_eq!(
            LzCodec::default().decode(&unhex(hex)).unwrap(),
            original,
            "{name}"
        );
    }
}

/// `LzCodec::decode` as it was at the parent commit.
fn parent_decode(data: &[u8]) -> Result<Vec<u8>, CodecError> {
    let mut out = Vec::with_capacity(data.len() * 2);
    let mut pos = 0;
    loop {
        let (lit_len, n) = read_uvarint(&data[pos..]).ok_or(CodecError::Truncated)?;
        pos += n;
        let lit_len = usize::try_from(lit_len).map_err(|_| CodecError::Corrupt("lit len"))?;
        if out.len().saturating_add(lit_len) > MAX_DECODED_BYTES {
            return Err(CodecError::TooLarge {
                declared: (out.len() + lit_len) as u64,
            });
        }
        if pos + lit_len > data.len() {
            return Err(CodecError::Truncated);
        }
        out.extend_from_slice(&data[pos..pos + lit_len]);
        pos += lit_len;
        let (match_len, n) = read_uvarint(&data[pos..]).ok_or(CodecError::Truncated)?;
        pos += n;
        if match_len == 0 {
            if pos != data.len() {
                return Err(CodecError::Corrupt("trailing bytes after lz terminator"));
            }
            return Ok(out);
        }
        let match_len = usize::try_from(match_len).map_err(|_| CodecError::Corrupt("match len"))?;
        if out.len().saturating_add(match_len) > MAX_DECODED_BYTES {
            return Err(CodecError::TooLarge {
                declared: (out.len() + match_len) as u64,
            });
        }
        let (offset, n) = read_uvarint(&data[pos..]).ok_or(CodecError::Truncated)?;
        pos += n;
        let offset = usize::try_from(offset).map_err(|_| CodecError::Corrupt("offset"))?;
        if offset == 0 || offset > out.len() {
            return Err(CodecError::Corrupt("lz offset out of range"));
        }
        let start = out.len() - offset;
        for i in 0..match_len {
            let b = out[start + i];
            out.push(b);
        }
    }
}

#[test]
fn streams_of_this_encoder_decode_under_the_parent_decoder() {
    let mut originals: Vec<Vec<u8>> = parent_streams().into_iter().map(|(_, o, _)| o).collect();
    // Long enough for the stride to engage (noise), for long matches
    // (text, runs) and for both in one record.
    originals.extend((0..4).map(|i| record(i, 40_000)));
    let mut mixed = record(1, 20_000);
    mixed.extend(record(3, 20_000));
    mixed.extend_from_slice(&record(1, 20_000)[..9_000]);
    originals.push(mixed);
    for (i, original) in originals.iter().enumerate() {
        let stream = LzCodec::default().encode(original);
        assert_eq!(&parent_decode(&stream).unwrap(), original, "record {i}");
        assert_eq!(
            &LzCodec::default().decode(&stream).unwrap(),
            original,
            "record {i}"
        );
    }
}
