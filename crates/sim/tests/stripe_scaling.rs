//! ABL-STRIPE: the shape of striped-storage scaling, held in virtual
//! time. Each sweep writes one 32 MiB shard set through the real
//! `ShardWriter` onto a [`SimFs`] and reads the simulator's makespan.
//!
//! Virtual time is a function of the blob names and sizes, never of the
//! host or of the order the writer's threads store the shards in (a
//! file's first OST is a hash of its name), so the makespans are pinned
//! exactly. The record bytes are zeros: under the Raw codec only their
//! sizes move the clocks.
//!
//! What each sweep shows, at the default device (1 GB/s, 0.5 ms per op
//! and OST), for 4 MiB shards of four 1 MiB stripe units each:
//! * **OST count** (stripe over all OSTs): bandwidth grows with the OSTs
//!   until the nine shards' stripe units spread out over them (64 OSTs),
//!   then stays flat — two units still meet on one OST.
//! * **Stripe count** on 64 OSTs: striping a shard over its four units
//!   cuts the makespan; two stripes can be slower than one (two shards'
//!   halves meet on one OST), and more than four change nothing, since a
//!   4 MiB shard has only four units.
//! * **Shard size** on 8 OSTs: small shards pay the per-op latency once
//!   per file, large ones leave OSTs idle; 4 MiB is the sweet spot.

use drai_io::shard::{ShardSpec, ShardWriter};
use drai_sim::{SimConfig, SimFs};

/// 512 records of 64 KiB: a 32 MiB payload.
fn records() -> Vec<Vec<u8>> {
    vec![vec![0u8; 64 * 1024]; 512]
}

/// One sweep point: the files written, the makespan and the bytes
/// stored per second of it.
#[derive(Clone, Copy)]
struct Point {
    files: usize,
    makespan_ms: f64,
    gb_per_s: f64,
}

/// Write [`records`] as `shard_bytes` shards onto a fresh `SimFs` of
/// `config`.
fn write(config: SimConfig, shard_bytes: usize) -> Point {
    let fs = SimFs::new(config).expect("valid sim config");
    let manifest = ShardWriter::new(ShardSpec::new("sweep", shard_bytes), &fs)
        .write_all(records())
        .expect("sim shard write");
    Point {
        files: manifest.shards.len(),
        makespan_ms: fs.makespan() * 1e3,
        gb_per_s: fs.achieved_bandwidth() / 1e9,
    }
}

/// `actual` makespans equal `expected` to the µs printed.
fn assert_makespans(actual: &[(usize, Point)], expected: &[(usize, f64)]) {
    let actual: Vec<(usize, String)> = actual
        .iter()
        .map(|&(x, p)| (x, format!("{:.3}", p.makespan_ms)))
        .collect();
    let expected: Vec<(usize, String)> = expected
        .iter()
        .map(|&(x, ms)| (x, format!("{ms:.3}")))
        .collect();
    assert_eq!(actual, expected, "(sweep value, makespan ms)");
}

#[test]
fn bandwidth_grows_with_the_osts_until_the_shards_spread_out() {
    let points: Vec<(usize, Point)> = [1, 2, 4, 8, 16, 32, 64, 128]
        .into_iter()
        .map(|osts| {
            let config = SimConfig {
                ost_count: osts,
                stripe_count: osts,
                ..SimConfig::default()
            };
            (osts, write(config, 4 << 20))
        })
        .collect();
    assert_makespans(
        &points,
        &[
            (1, 38.559),
            (2, 22.042),
            (4, 13.283),
            (8, 7.154),
            (16, 6.630),
            (32, 4.646),
            (64, 3.097),
            (128, 3.097),
        ],
    );
    let gbps: Vec<String> = points
        .iter()
        .map(|(_, p)| format!("{:.2}", p.gb_per_s))
        .collect();
    assert_eq!(
        gbps,
        ["0.87", "1.52", "2.53", "4.69", "5.06", "7.22", "10.84", "10.84"]
    );
}

#[test]
fn striping_pays_up_to_a_shards_stripe_units_on_many_osts() {
    let points: Vec<(usize, Point)> = [1, 2, 4, 8, 16, 32, 64]
        .into_iter()
        .map(|stripes| {
            let config = SimConfig {
                ost_count: 64,
                stripe_count: stripes,
                ..SimConfig::default()
            };
            (stripes, write(config, 4 << 20))
        })
        .collect();
    assert_makespans(
        &points,
        &[
            (1, 4.629),
            (2, 5.129),
            (4, 3.097),
            (8, 3.097),
            (16, 3.097),
            (32, 3.097),
            (64, 3.097),
        ],
    );
}

#[test]
fn four_mib_shards_balance_latency_against_idle_osts() {
    let points: Vec<(usize, Point)> = [64, 256, 1024, 4096, 16384]
        .into_iter()
        .map(|kib| (kib, write(SimConfig::default(), kib * 1024)))
        .collect();
    let files: Vec<usize> = points.iter().map(|(_, p)| p.files).collect();
    assert_eq!(files, [512, 171, 35, 9, 3]);
    assert_makespans(
        &points,
        &[
            (64, 37.300),
            (256, 15.326),
            (1024, 8.899),
            (4096, 7.154),
            (16384, 9.325),
        ],
    );
    let gbps: Vec<String> = points
        .iter()
        .map(|(_, p)| format!("{:.2}", p.gb_per_s))
        .collect();
    assert_eq!(gbps, ["0.90", "2.19", "3.77", "4.69", "3.60"]);
}
