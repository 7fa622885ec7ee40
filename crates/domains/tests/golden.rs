//! Golden pins, recorded at the commit before the domain stage graphs
//! were collapsed to one declaration each (ISSUE 12): the content hash
//! of every blob a small climate and a small materials run shard, and
//! the cache keys the cached stages compute for one ensemble member. A
//! refactor of how the pipelines are *declared* must leave
//! all of them unchanged — shard bytes are what downstream training
//! reads, and a moved key would silently turn every cache entry written
//! by an earlier build into a miss.
//!
//! The four `materials/*` pins were re-recorded once (ISSUE 16). The
//! energy statistics used to be merged by a reduction that grouped
//! frames per available CPU, so the stored bytes depended on the host:
//! the old pins were what two CPUs produced and failed under
//! `taskset -c 0`. The statistics now merge in frame order, and the pins
//! are the values every earlier build already produced on one CPU. The
//! climate pins and the cache key did not move, and CI runs this file on
//! one CPU as well so a host-dependent value cannot be pinned again.
//!
//! The fusion and bio pins were recorded at the commit before those two
//! domains moved onto a stage graph and all four `run`s onto one
//! skeleton (ISSUE 17), identically on two CPUs and under
//! `taskset -c 0`. The ten `fusion/*` pins were re-recorded once, when
//! the robust fit's three P² estimates gave way to exact type-7
//! quartiles (fusion normalize declares `method = robust-exact+derivative`
//! since); `fusion/train-00000.shard` was `69903452a9e1523af24a7a0ec6bfd937`
//! before.
//!
//! The cache keys of member 3 moved three times, with the shard digests
//! unmoved: at version 2, when keys began to chain through derivation
//! ids, at version 3, when cached payloads began to carry the stage's
//! report, and at version 4, when climate's normalize and shard reports
//! gained their missing-value and label counts (at 3 and 4 the version
//! word alone moved: the version-2 key formula with its version set to 4
//! gives the pins below).
//! `CACHE_VERSION_HISTORY` ties the version (`DERIVATION_VERSION`, which
//! every derivation id and cache key hashes) to what the cached stages
//! write, so a stage change that moves the bytes without a version bump
//! fails here.

use drai_cache::StageCache;
use drai_core::executor::{ExecutorConfig, StreamingBatchExt};
use drai_core::pipeline::DERIVATION_VERSION;
use drai_domains::bio::{self, BioConfig};
use drai_domains::cached::{self, Member};
use drai_domains::climate::{self, ClimateConfig};
use drai_domains::fusion::{self, FusionConfig};
use drai_domains::materials::{self, MaterialsConfig};
use drai_io::checksum::{content_hash128, hash_hex};
use drai_io::sink::{MemSink, StorageSink};
use drai_provenance::Ledger;
use drai_tensor::LatLonGrid;
use std::sync::Arc;

fn climate_cfg() -> ClimateConfig {
    ClimateConfig {
        src_grid: LatLonGrid::global(12, 24),
        dst_grid: LatLonGrid::global(8, 16),
        timesteps: 6,
        seed: 7,
        shard_bytes: 64 * 1024,
        ..ClimateConfig::default()
    }
}

fn materials_cfg() -> MaterialsConfig {
    MaterialsConfig {
        structures: 6,
        cell_atoms: 2,
        seed: 11,
        ..MaterialsConfig::default()
    }
}

fn fusion_cfg() -> FusionConfig {
    FusionConfig {
        shots: 12,
        shot_seconds: 1.0,
        disruption_fraction: 0.4,
        channel_dropout: 0.15,
        clock_hz: 500.0,
        window_len: 32,
        window_stride: 16,
        seed: 42,
        shard_bytes: 64 * 1024,
        ..FusionConfig::default()
    }
}

fn bio_cfg() -> BioConfig {
    BioConfig {
        patients: 24,
        tile_len: 64,
        missing_fraction: 0.15,
        k: 2,
        seed: 99,
        ..BioConfig::default()
    }
}

/// `"<name> <content hash>"` of every blob under `prefix`, sorted by name.
fn digests(sink: &MemSink, prefix: &str) -> Vec<String> {
    let mut names: Vec<String> = sink
        .list()
        .expect("list")
        .into_iter()
        .filter(|n| n.starts_with(prefix))
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|n| {
            let hash = hash_hex(&content_hash128(&sink.read_file(&n).expect("read")));
            format!("{n} {hash}")
        })
        .collect()
}

#[test]
fn climate_run_shards_match_golden() {
    let sink = Arc::new(MemSink::new());
    climate::run(&climate_cfg(), sink.clone()).expect("climate run");
    assert_eq!(
        digests(&sink, "climate/"),
        &[
            "climate/test-00000.shard aefc3763486c9f28152128cecb097050",
            "climate/test.manifest.json 235423fea62a8546abb9eb70bb854824",
            "climate/train-00000.shard 58a315a91978bb959728c2f6d30665e5",
            "climate/train.manifest.json 9f1cdddc635219c30a84cc4a5beb7aae",
            "climate/val-00000.shard 9d6d2bf624d0d47abd6ef2cd4311a3aa",
            "climate/val.manifest.json 4da2ca721e1bf0e82a02002897ca8965",
        ],
    );
}

#[test]
fn climate_streaming_batch_shards_match_golden() {
    let cfg = climate_cfg();
    let sink = Arc::new(MemSink::new());
    let ledger = Arc::new(Ledger::new());
    let members = (0..2)
        .map(|m| Member(m, climate::member_input(&cfg, m)))
        .collect();
    let (_, stages) = climate::build_batch_pipeline(&cfg, sink.clone(), ledger.clone())
        .run_batch_streaming(members, &ExecutorConfig::default())
        .expect("climate batch");
    assert_eq!(stages.len(), 4, "validate/regrid/normalize/shard");
    // Both members went through the one shared ledger: one record per
    // stage execution each.
    assert_eq!(ledger.len(), 2 * 4);
    assert_eq!(
        digests(&sink, "climate/"),
        &[
            "climate/m0/test-00000.shard aefc3763486c9f28152128cecb097050",
            "climate/m0/test.manifest.json b2022c4a0ce24b8491f8801eb1996da9",
            "climate/m0/train-00000.shard 58a315a91978bb959728c2f6d30665e5",
            "climate/m0/train.manifest.json 78a45996c5ee720450c1ebb387d0e62f",
            "climate/m0/val-00000.shard 9d6d2bf624d0d47abd6ef2cd4311a3aa",
            "climate/m0/val.manifest.json f7e187049eee87b25b5f0505efb1511f",
            "climate/m1/test-00000.shard fcc965f3e4c8266ed0193c95acd28839",
            "climate/m1/test.manifest.json 950919dd74cc9a535088e6e762c418ee",
            "climate/m1/train-00000.shard 330d46577c3d7bd917fe1fd1e960c895",
            "climate/m1/train.manifest.json 1e312969cfbee1d8c8cf523bcb7a94e8",
            "climate/m1/val-00000.shard 0d87ec3d05e0939b9f2f647d4de8cb16",
            "climate/m1/val.manifest.json 392b932dd6b21b2c211ecd51fb68b825",
        ],
    );
}

#[test]
fn materials_run_shards_match_golden() {
    let sink = Arc::new(MemSink::new());
    materials::run(&materials_cfg(), sink.clone()).expect("materials run");
    assert_eq!(
        digests(&sink, "materials/"),
        &[
            "materials/train.bp b92a304b226bdc86ee0e1953cd1dd073",
            "materials/train.jsonl 0f3905e42d097902a6b131bc4a496cc5",
            "materials/val.bp b7e3c3afa81ed42ac62e65e8caa8ea4d",
            "materials/val.jsonl b8aa549d517343b8485eff1337a4629d",
        ],
    );
}

#[test]
fn fusion_run_shards_match_golden() {
    let sink = Arc::new(MemSink::new());
    fusion::run(&fusion_cfg(), sink.clone()).expect("fusion run");
    assert_eq!(
        digests(&sink, "fusion/"),
        &[
            "fusion/test-00000.shard d27a59ad523ea1a00fec1da0b264f2e6",
            "fusion/test-00001.shard a2f89066c47ed68a234f2a389c540ea1",
            "fusion/test.manifest.json 6c0dea13ad46426fa1b003aaa9b9e745",
            "fusion/train-00000.shard a7071a3a859bed8dff00a8f341905d1c",
            "fusion/train-00001.shard b180032bd487f703bd2ea6555847b292",
            "fusion/train-00002.shard 8ddf127df9062987c291ea6a675d7ff8",
            "fusion/train-00003.shard d1fb66bb2e52ca9114390bfdff630938",
            "fusion/train.manifest.json 733b8811870d15f87ab0443e074c6f0c",
            "fusion/val-00000.shard 0f7fc47874ba29a8022ee8f778d437ef",
            "fusion/val.manifest.json fd52692f3e8710c664077062a47614c9",
        ],
    );
}

/// Ciphertext digests: the key context and nonce of a bare run are
/// pinned with the containers.
#[test]
fn bio_run_shards_match_golden() {
    let sink = Arc::new(MemSink::new());
    bio::run(&bio_cfg(), sink.clone()).expect("bio run");
    assert_eq!(
        digests(&sink, "bio/"),
        &[
            "bio/test.h5lite.enc 107631fc9a305ae4ed4474f7ee598ca4",
            "bio/train.h5lite.enc 185c3bfe814248be110e587486a5956d",
            "bio/val.h5lite.enc 740e1c8f4216cf8ae9ab95dc040c432f",
        ],
    );
}

/// Member 3 once through the cached batch pipeline, cold: the names of
/// the cache entries it stored, sorted, and the digest of the shard
/// blobs it wrote (`content_hash128` of its [`digests`] lines).
fn cached_member_3() -> (Vec<String>, String) {
    let cfg = climate_cfg();
    let cache_sink = Arc::new(MemSink::new());
    let cache = Arc::new(StageCache::new(cache_sink.clone(), 64 << 20));
    let sink = Arc::new(MemSink::new());
    let pipeline = cached::build_cached_climate_batch_pipeline(
        &cfg,
        sink.clone(),
        Arc::new(Ledger::new()),
        cache,
    );
    pipeline
        .run_batch_streaming(
            vec![Member(3, climate::member_input(&cfg, 3))],
            &ExecutorConfig::default(),
        )
        .expect("cold pass");
    let mut entries = cache_sink.list().expect("list");
    entries.sort();
    let shards = digests(&sink, "climate/m3/").join("\n");
    (entries, hash_hex(&content_hash128(shards.as_bytes())))
}

/// The keys are read back from the blob names the cached stages stored
/// their entries under, so this pins what the pipeline computes, not a
/// re-derivation of it. Only the regrid key is a content key (of the
/// member's input); normalize is keyed by the regrid key and shard by
/// the normalize key.
///
/// Under version 1 the regrid pin was `8c491f6b09d04558cf6001f60fe710fa`;
/// under version 2 (keys chained through derivation ids, the normalize
/// and shard pins added) the three were `9105c032…`, `47c3912d…` and
/// `7e32b7f4…`; under version 3 `c074ee61…`, `a1f21efa…` and
/// `61513843…`; they were re-recorded for version 4.
#[test]
fn cached_keys_for_member_3_match_golden() {
    let (entries, _) = cached_member_3();
    assert_eq!(
        entries,
        [
            "cache/normalize/c38cb37e858db8a24c9152f95acab3bb.entry",
            "cache/regrid/912b223f4c7a513fcf3096a046bb3898.entry",
            "cache/shard/eb30ba23c9bf0827c07aa3ced601e531.entry",
        ]
    );
}

/// `(version, digest of the shards the cached pipeline writes for member
/// 3)`, one row per version, oldest first; append only. A cached stage
/// whose output moves for an unchanged input and configuration must bump
/// the version — every entry an earlier build stored under the old keys
/// would otherwise be served as the new output, and every id derived
/// from it would name the wrong bytes — and the row it appends records
/// the new digest. Version 2 changed the key scheme and versions 3 and 4
/// the cached payloads only, so their shards are version 1's.
const CACHE_VERSION_HISTORY: &[(u32, &str)] = &[
    (1, "0feae67fafc5ceeea25704f8762bf93f"),
    (2, "0feae67fafc5ceeea25704f8762bf93f"),
    (3, "0feae67fafc5ceeea25704f8762bf93f"),
    (4, "0feae67fafc5ceeea25704f8762bf93f"),
];

#[test]
fn cached_shard_digest_moves_only_with_a_cache_version_bump() {
    for (i, (version, _)) in CACHE_VERSION_HISTORY.iter().enumerate() {
        assert!(
            CACHE_VERSION_HISTORY[..i].iter().all(|(v, _)| v < version),
            "version {version} is listed twice or out of order"
        );
    }
    let (_, shard_digest) = cached_member_3();
    assert_eq!(
        CACHE_VERSION_HISTORY.last(),
        Some(&(DERIVATION_VERSION, shard_digest.as_str())),
        "the cached member-3 shards or the version moved: a stage whose \
         output changes bumps DERIVATION_VERSION and appends a row"
    );
}
