//! Property tests for the stage-result cache: key-scheme laws (stability
//! and sensitivity to every keyed dimension) and hit/fresh equivalence.

use drai_cache::{CacheBytes, CacheKey, StageCache};
use drai_core::pipeline::config_fingerprint;
use drai_io::sink::{MemSink, StorageSink};
use drai_telemetry::clock::LogicalClock;
use proptest::prelude::*;
use std::sync::Arc;

fn fp(pairs: &[(String, String)]) -> Vec<u8> {
    config_fingerprint(pairs.iter().map(|(k, v)| (k.as_str(), v.clone())))
}

proptest! {
    /// Same stage, input and config ⇒ same key, every time.
    #[test]
    fn key_is_stable(
        stage in "[a-z]{1,12}",
        input in proptest::collection::vec(any::<u8>(), 0..2048),
        config in proptest::collection::vec(("[a-z]{1,8}", "[a-z0-9]{0,16}"), 0..6),
    ) {
        let f = fp(&config);
        let a = CacheKey::compute(&stage, &input, &f);
        let b = CacheKey::compute(&stage, &input, &f);
        prop_assert_eq!(a.hex(), b.hex());
        prop_assert_eq!(a.blob_name(), b.blob_name());
    }

    /// Perturbing a single input byte changes the key.
    #[test]
    fn key_sensitive_to_single_input_byte(
        stage in "[a-z]{1,12}",
        input in proptest::collection::vec(any::<u8>(), 1..2048),
        pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        let f = fp(&[("k".to_string(), "v".to_string())]);
        let base = CacheKey::compute(&stage, &input, &f);
        let mut mutated = input.clone();
        mutated[pos % input.len()] ^= 1 << bit;
        let other = CacheKey::compute(&stage, &mutated, &f);
        prop_assert_ne!(base.hex(), other.hex());
    }

    /// Perturbing any config field's value changes the key; so does the
    /// stage name and appending/removing a field.
    #[test]
    fn key_sensitive_to_config_and_stage(
        stage in "[a-z]{1,12}",
        input in proptest::collection::vec(any::<u8>(), 0..512),
        config in proptest::collection::vec(("[a-z]{1,8}", "[a-z0-9]{1,16}"), 1..5),
        which in any::<usize>(),
    ) {
        let base = CacheKey::compute(&stage, &input, &fp(&config));

        // Mutate one field's value.
        let idx = which % config.len();
        let mut changed = config.clone();
        changed[idx].1.push('x');
        prop_assert_ne!(
            base.hex(),
            CacheKey::compute(&stage, &input, &fp(&changed)).hex()
        );

        // Drop one field entirely.
        let mut dropped = config.clone();
        dropped.remove(idx);
        prop_assert_ne!(
            base.hex(),
            CacheKey::compute(&stage, &input, &fp(&dropped)).hex()
        );

        // Same input/config under a different stage name.
        let other_stage = format!("{stage}x");
        prop_assert_ne!(
            base.hex(),
            CacheKey::compute(&other_stage, &input, &fp(&config)).hex()
        );
    }

    /// A value served from cache equals the freshly stored one, bitwise,
    /// and its counters replay exactly.
    #[test]
    fn cached_value_round_trips(
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
        records in any::<u64>(),
        bytes in any::<u64>(),
    ) {
        let cache = StageCache::new(Arc::new(MemSink::new()) as Arc<dyn StorageSink>, 64 << 20)
            .with_clock(Arc::new(LogicalClock::new()));
        let key = CacheKey::compute("stage", b"input", &fp(&[]));
        prop_assert!(cache.get(&key).is_none());
        cache.put(&key, &payload, records, bytes).unwrap();
        let hit = cache.get(&key).expect("stored entry must hit");
        prop_assert_eq!(&hit.payload, &payload);
        prop_assert_eq!(hit.records, records);
        prop_assert_eq!(hit.bytes, bytes);
    }

    /// `write_cache_bytes` only appends — what was in the buffer stays
    /// as it was — and what it appends is `to_cache_bytes`.
    #[test]
    fn write_cache_bytes_only_appends(
        raw in proptest::collection::vec(any::<u8>(), 0..1024),
        bits in proptest::collection::vec(any::<u64>(), 0..512),
        prefix in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let floats: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        let mut out = prefix.clone();
        raw.write_cache_bytes(&mut out);
        let (head, tail) = out.split_at(prefix.len());
        prop_assert_eq!(head, &prefix[..], "Vec<u8> touched the bytes before it");
        prop_assert_eq!(tail, &raw.to_cache_bytes()[..]);
        prop_assert_eq!(tail, &raw[..]);

        let mut out = prefix.clone();
        floats.write_cache_bytes(&mut out);
        let (head, tail) = out.split_at(prefix.len());
        prop_assert_eq!(head, &prefix[..], "Vec<f64> touched the bytes before it");
        prop_assert_eq!(tail, &floats.to_cache_bytes()[..]);
        // Length, then the values' bits, little-endian.
        let mut want = (bits.len() as u64).to_le_bytes().to_vec();
        want.extend(bits.iter().flat_map(|b| b.to_le_bytes()));
        prop_assert_eq!(tail, &want[..]);
    }

    /// `Vec<f64>`'s CacheBytes impl is bitwise-exact (NaN bit patterns,
    /// signed zeros and subnormals all survive the round trip).
    #[test]
    fn f64_cache_bytes_bitwise_round_trip(
        bits in proptest::collection::vec(any::<u64>(), 0..512),
    ) {
        let values: Vec<f64> = bits.iter().map(|&b| f64::from_bits(b)).collect();
        let encoded = values.to_cache_bytes();
        let back = Vec::<f64>::from_cache_bytes(&encoded).unwrap();
        let back_bits: Vec<u64> = back.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(back_bits, bits);
    }
}
