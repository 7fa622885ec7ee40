//! Pins of the climate generator's raw output: the content hash of each
//! `raw/*.nc` file `generate_raw` writes and of the f64 bits of
//! `member_input` for members 0 and 1, on the default configuration and
//! on an odd grid. The shard pins in `golden.rs` cannot see a change in
//! the low bits of a synthesized value: the shard stage casts to f32 and
//! drops them. These pins see every bit, so a rewrite of the synthesis
//! or of the NetCDF writer that reorders one floating-point operation or
//! one random draw fails here. Recorded before the synthesis hoisted its
//! per-row, per-column and per-mode factors out of the cell loop; CI also
//! runs this file on one CPU.

use drai_domains::climate::{self, ClimateConfig};
use drai_io::checksum::{content_hash128, hash_hex};
use drai_io::sink::{MemSink, StorageSink};
use drai_tensor::LatLonGrid;

fn odd_cfg() -> ClimateConfig {
    ClimateConfig {
        src_grid: LatLonGrid::global(7, 13),
        dst_grid: LatLonGrid::global(5, 9),
        timesteps: 3,
        seed: 7,
        ..ClimateConfig::default()
    }
}

/// `(blob, digest)` of every raw file, in the order `generate_raw`
/// names them.
fn raw_digests(cfg: &ClimateConfig) -> Vec<(String, String)> {
    let sink = MemSink::new();
    let names = climate::generate_raw(cfg, &sink).expect("generate_raw");
    names
        .into_iter()
        .map(|n| {
            let hash = hash_hex(&content_hash128(&sink.read_file(&n).expect("read")));
            (n, hash)
        })
        .collect()
}

/// Digest of member `m`'s fields: every value's f64 bits, little-endian,
/// variable after variable.
fn member_digest(cfg: &ClimateConfig, m: usize) -> String {
    let data = climate::member_input(cfg, m);
    let bytes: Vec<u8> = data
        .fields
        .iter()
        .flatten()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    hash_hex(&content_hash128(&bytes))
}

fn pinned(pins: &[(&str, &str)]) -> Vec<(String, String)> {
    pins.iter()
        .map(|&(n, h)| (n.to_string(), h.to_string()))
        .collect()
}

#[test]
fn default_config_raw_files_match_pins() {
    assert_eq!(
        raw_digests(&ClimateConfig::default()),
        pinned(&[
            ("raw/tas.nc", "af1e659c4550771071ac97ea43aabaed"),
            ("raw/psl.nc", "23a27afad4434943ca07bcdce177d838"),
            ("raw/uas.nc", "28b51d5dc0c2cfc8bdca7f73de71394a"),
            ("raw/pr.nc", "e80f133d762f848c7ee895fe1dd9bed4"),
        ])
    );
}

#[test]
fn odd_grid_raw_files_match_pins() {
    assert_eq!(
        raw_digests(&odd_cfg()),
        pinned(&[
            ("raw/tas.nc", "967f12f2711c9d32cb2b661779f0c7cc"),
            ("raw/psl.nc", "5b710ac73ddbacca4836fda6a372e3aa"),
            ("raw/uas.nc", "7e5ce4bde1b5298bf06933d0162733c9"),
            ("raw/pr.nc", "913ab74ca12e0ae062828666e9239579"),
        ])
    );
}

#[test]
fn default_config_member_inputs_match_pins() {
    let cfg = ClimateConfig::default();
    assert_eq!(
        [member_digest(&cfg, 0), member_digest(&cfg, 1)],
        [
            "42cb579d7a33a435eeb6a7d55cff6227",
            "0ba0993eae7946b0ed1ef896e0acd86d"
        ]
    );
}

#[test]
fn odd_grid_member_inputs_match_pins() {
    let cfg = odd_cfg();
    assert_eq!(
        [member_digest(&cfg, 0), member_digest(&cfg, 1)],
        [
            "02f69c9550c6ab7f0017f72d5a1d6aac",
            "25cc0f678909059a29ae2b29c884da2a"
        ]
    );
}
