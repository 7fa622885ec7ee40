//! `tf.train.Example` messages on the protobuf wire format.
//!
//! The DIII-D-style fusion pipeline shards windowed diagnostic features as
//! TFRecords of `Example` protos. The message schema (from TensorFlow's
//! `feature.proto` / `example.proto`):
//!
//! ```text
//! message BytesList { repeated bytes value = 1; }
//! message FloatList { repeated float value = 1 [packed = true]; }
//! message Int64List { repeated int64 value = 1 [packed = true]; }
//! message Feature {
//!   oneof kind { BytesList bytes_list = 1;
//!                FloatList float_list = 2;
//!                Int64List int64_list = 3; }
//! }
//! message Features { map<string, Feature> feature = 1; }
//! message Example  { Features features = 1; }
//! ```
//!
//! A protobuf `map<k,v>` is encoded as a repeated sub-message with key as
//! field 1 and value as field 2.
//!
//! Who owns which copy: the encoder owns nothing but the output buffer.
//! Every message here is nested inside a length prefix, so the lengths are
//! computed bottom-up first ([`FeatureRef`]'s list, the `Feature`, the map
//! entry, `Features`) and each key, varint and packed float is then
//! written once, in place. [`Example::encode`] runs it over the map it
//! owns; [`Example::encode_into`] over values that stay with the caller.
//! Decoding copies: a decoded [`Example`] owns its values.

use crate::protowire::{
    decode_fields, decode_packed_floats, decode_packed_int64, delimited_len, packed_int64_len,
    write_bytes_field, write_key, write_packed_floats, write_packed_int64, FieldValue, WireType,
};
use crate::{malformed, FormatError};
use drai_io::varint::write_uvarint;
use std::collections::BTreeMap;

/// One feature value in an `Example`.
#[derive(Debug, Clone, PartialEq)]
pub enum Feature {
    /// `BytesList`.
    Bytes(Vec<Vec<u8>>),
    /// `FloatList` (f32 — TensorFlow's float features are single precision).
    Floats(Vec<f32>),
    /// `Int64List`.
    Ints(Vec<i64>),
}

impl Feature {
    /// The same feature with its values borrowed.
    fn borrowed(&self) -> FeatureRef<'_> {
        match self {
            Feature::Bytes(items) => FeatureRef::Bytes(items),
            Feature::Floats(items) => FeatureRef::Floats(items),
            Feature::Ints(items) => FeatureRef::Ints(items),
        }
    }
}

/// A [`Feature`] whose values stay with the caller — what
/// [`Example::encode_into`] takes, so a writer that owns its values
/// elsewhere (fusion's windows) encodes them without a copy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FeatureRef<'a> {
    /// `BytesList`.
    Bytes(&'a [Vec<u8>]),
    /// `FloatList`.
    Floats(&'a [f32]),
    /// `Int64List`.
    Ints(&'a [i64]),
}

impl FeatureRef<'_> {
    /// Bytes of the list message (`BytesList` / `FloatList` /
    /// `Int64List`) inside the `Feature`.
    fn list_len(self) -> usize {
        match self {
            FeatureRef::Bytes(items) => items.iter().map(|b| delimited_len(b.len())).sum(),
            FeatureRef::Floats(items) => delimited_len(items.len() * 4),
            FeatureRef::Ints(items) => delimited_len(packed_int64_len(items)),
        }
    }
}

/// A `tf.train.Example`: named features. `BTreeMap` gives deterministic
/// serialization so content hashes of shards are reproducible.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Example {
    /// Feature map.
    pub features: BTreeMap<String, Feature>,
}

impl Example {
    /// Empty example.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a float-list feature.
    pub fn with_floats(mut self, name: &str, values: Vec<f32>) -> Self {
        self.features.insert(name.into(), Feature::Floats(values));
        self
    }

    /// Insert an int64-list feature.
    pub fn with_ints(mut self, name: &str, values: Vec<i64>) -> Self {
        self.features.insert(name.into(), Feature::Ints(values));
        self
    }

    /// Insert a bytes-list feature.
    pub fn with_bytes(mut self, name: &str, values: Vec<Vec<u8>>) -> Self {
        self.features.insert(name.into(), Feature::Bytes(values));
        self
    }

    /// Serialize to protobuf wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let features = self.features.iter();
        let features = features.map(|(name, f)| (name.as_str(), f.borrowed()));
        let len = features_len(features.clone());
        let mut out = Vec::with_capacity(delimited_len(len));
        write_features(&mut out, len, features);
        out
    }

    /// Append the wire bytes of the example holding `features`, which
    /// stay with the caller. Entries are written in the order given —
    /// ascending by name is the order [`Example::encode`] writes, and
    /// so the reproducible one.
    pub fn encode_into<'a, I>(out: &mut Vec<u8>, features: I)
    where
        I: IntoIterator<Item = (&'a str, FeatureRef<'a>)> + Clone,
    {
        let len = features_len(features.clone().into_iter());
        out.reserve(delimited_len(len));
        write_features(out, len, features.into_iter());
    }

    /// Parse from protobuf wire bytes.
    pub fn decode(data: &[u8]) -> Result<Example, FormatError> {
        let mut example = Example::new();
        for (field, value) in decode_fields(data)? {
            if field != 1 {
                continue; // unknown fields skipped, per proto3 semantics
            }
            let FieldValue::Bytes(features_msg) = value else {
                return Err(malformed("tf.Example", "features not length-delimited"));
            };
            for (f2, v2) in decode_fields(features_msg)? {
                if f2 != 1 {
                    continue;
                }
                let FieldValue::Bytes(entry) = v2 else {
                    return Err(malformed("tf.Example", "map entry not length-delimited"));
                };
                let mut name: Option<String> = None;
                let mut feature: Option<Feature> = None;
                for (f3, v3) in decode_fields(entry)? {
                    match (f3, v3) {
                        (1, FieldValue::Bytes(k)) => {
                            name = Some(
                                std::str::from_utf8(k)
                                    .map_err(|_| malformed("tf.Example", "non-UTF-8 key"))?
                                    .to_string(),
                            );
                        }
                        (2, FieldValue::Bytes(fmsg)) => {
                            feature = Some(decode_feature(fmsg)?);
                        }
                        _ => {}
                    }
                }
                let name = name.ok_or_else(|| malformed("tf.Example", "map entry missing key"))?;
                let feature =
                    feature.ok_or_else(|| malformed("tf.Example", "map entry missing value"))?;
                example.features.insert(name, feature);
            }
        }
        Ok(example)
    }

    /// Access a float feature.
    pub fn floats(&self, name: &str) -> Option<&[f32]> {
        match self.features.get(name) {
            Some(Feature::Floats(v)) => Some(v),
            _ => None,
        }
    }

    /// Access an int64 feature.
    pub fn ints(&self, name: &str) -> Option<&[i64]> {
        match self.features.get(name) {
            Some(Feature::Ints(v)) => Some(v),
            _ => None,
        }
    }

    /// Access a bytes feature.
    pub fn bytes(&self, name: &str) -> Option<&[Vec<u8>]> {
        match self.features.get(name) {
            Some(Feature::Bytes(v)) => Some(v),
            _ => None,
        }
    }
}

/// Bytes of one `Features.feature` map entry: the key field, then the
/// `Feature` around a list message of `list_len` bytes.
fn entry_len(name: &str, list_len: usize) -> usize {
    delimited_len(name.len()) + delimited_len(delimited_len(list_len))
}

/// Bytes of the `Features` message holding `features`.
fn features_len<'a>(features: impl Iterator<Item = (&'a str, FeatureRef<'a>)>) -> usize {
    features
        .map(|(name, f)| delimited_len(entry_len(name, f.list_len())))
        .sum()
}

/// The one encoder: every length is computed before the bytes it
/// prefixes (`len` is [`features_len`] of the same entries), so each
/// value is written once, into `out`.
fn write_features<'a>(
    out: &mut Vec<u8>,
    len: usize,
    features: impl Iterator<Item = (&'a str, FeatureRef<'a>)>,
) {
    let open = |out: &mut Vec<u8>, field: u32, len: usize| {
        write_key(out, field, WireType::LengthDelimited);
        write_uvarint(out, len as u64);
    };
    open(out, 1, len); // Example.features
    for (name, feature) in features {
        let list_len = feature.list_len();
        open(out, 1, entry_len(name, list_len)); // map entry
        write_bytes_field(out, 1, name.as_bytes()); // its key
        open(out, 2, delimited_len(list_len)); // its value, a Feature
        match feature {
            FeatureRef::Bytes(items) => {
                open(out, 1, list_len);
                for item in items {
                    write_bytes_field(out, 1, item);
                }
            }
            FeatureRef::Floats(items) => {
                open(out, 2, list_len);
                write_packed_floats(out, 1, items);
            }
            FeatureRef::Ints(items) => {
                open(out, 3, list_len);
                write_packed_int64(out, 1, items);
            }
        }
    }
}

fn decode_feature(data: &[u8]) -> Result<Feature, FormatError> {
    for (field, value) in decode_fields(data)? {
        let FieldValue::Bytes(list) = value else {
            continue;
        };
        match field {
            1 => {
                // BytesList.
                let mut items = Vec::new();
                for (f, v) in decode_fields(list)? {
                    if f == 1 {
                        if let FieldValue::Bytes(b) = v {
                            items.push(b.to_vec());
                        }
                    }
                }
                return Ok(Feature::Bytes(items));
            }
            2 => {
                // FloatList: packed (field 1, wire 2) or unpacked (fixed32).
                let mut items = Vec::new();
                for (f, v) in decode_fields(list)? {
                    if f != 1 {
                        continue;
                    }
                    match v {
                        FieldValue::Bytes(b) => items.extend(decode_packed_floats(b)?),
                        FieldValue::Fixed32(raw) => {
                            items.push(f32::from_le_bytes(raw.to_le_bytes()))
                        }
                        _ => return Err(malformed("tf.Example", "bad float list")),
                    }
                }
                return Ok(Feature::Floats(items));
            }
            3 => {
                // Int64List: packed or unpacked varints.
                let mut items = Vec::new();
                for (f, v) in decode_fields(list)? {
                    if f != 1 {
                        continue;
                    }
                    match v {
                        FieldValue::Bytes(b) => items.extend(decode_packed_int64(b)?),
                        FieldValue::Varint(x) => items.push(x as i64),
                        _ => return Err(malformed("tf.Example", "bad int64 list")),
                    }
                }
                return Ok(Feature::Ints(items));
            }
            _ => {}
        }
    }
    Err(malformed("tf.Example", "feature with no kind"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_mixed_features() {
        let ex = Example::new()
            .with_floats("signal", vec![1.0, -2.5, 3.25])
            .with_ints("label", vec![1])
            .with_ints("shot_id", vec![176_000])
            .with_bytes("machine", vec![b"d3d".to_vec()]);
        let bytes = ex.encode();
        let back = Example::decode(&bytes).unwrap();
        assert_eq!(back, ex);
        assert_eq!(back.floats("signal").unwrap(), &[1.0, -2.5, 3.25]);
        assert_eq!(back.ints("label").unwrap(), &[1]);
        assert_eq!(back.bytes("machine").unwrap()[0], b"d3d");
        assert_eq!(back.floats("label"), None); // wrong-kind access
        assert_eq!(back.floats("missing"), None);
    }

    #[test]
    fn empty_example() {
        let ex = Example::new();
        let back = Example::decode(&ex.encode()).unwrap();
        assert!(back.features.is_empty());
    }

    #[test]
    fn empty_lists_round_trip() {
        let ex = Example::new()
            .with_floats("f", vec![])
            .with_ints("i", vec![])
            .with_bytes("b", vec![]);
        let back = Example::decode(&ex.encode()).unwrap();
        assert_eq!(back, ex);
    }

    #[test]
    fn deterministic_encoding() {
        let a = Example::new()
            .with_floats("zz", vec![1.0])
            .with_ints("aa", vec![2]);
        let b = Example::new()
            .with_ints("aa", vec![2])
            .with_floats("zz", vec![1.0]);
        assert_eq!(a.encode(), b.encode());
    }

    #[test]
    fn negative_ints_survive() {
        let ex = Example::new().with_ints("deltas", vec![-1, -1000, i64::MIN]);
        let back = Example::decode(&ex.encode()).unwrap();
        assert_eq!(back.ints("deltas").unwrap(), &[-1, -1000, i64::MIN]);
    }

    #[test]
    fn unpacked_floats_accepted() {
        // Some writers emit FloatList values unpacked (one fixed32 per
        // element); the decoder must accept both.
        use crate::protowire::{write_bytes_field, write_key, WireType};
        let mut float_list = Vec::new();
        write_key(&mut float_list, 1, WireType::Fixed32);
        float_list.extend_from_slice(&1.5f32.to_le_bytes());
        write_key(&mut float_list, 1, WireType::Fixed32);
        float_list.extend_from_slice(&2.5f32.to_le_bytes());
        let mut fmsg = Vec::new();
        write_bytes_field(&mut fmsg, 2, &float_list);
        let mut entry = Vec::new();
        write_bytes_field(&mut entry, 1, b"x");
        write_bytes_field(&mut entry, 2, &fmsg);
        let mut features = Vec::new();
        write_bytes_field(&mut features, 1, &entry);
        let mut msg = Vec::new();
        write_bytes_field(&mut msg, 1, &features);
        let ex = Example::decode(&msg).unwrap();
        assert_eq!(ex.floats("x").unwrap(), &[1.5, 2.5]);
    }

    #[test]
    fn garbage_rejected() {
        assert!(Example::decode(&[0x12, 0xFF]).is_err());
    }
}
