//! ABL-STRIPE: the shape of striped-storage scaling, held in virtual
//! time. Each sweep writes one 32 MiB shard set through the real
//! `ShardWriter` onto a [`SimFs`] and reads the simulator's makespan.
//!
//! Virtual time is a function of the blob sizes and the order they
//! reach the simulator, never of the host, so the makespans are pinned
//! exactly. The record bytes are zeros: under the Raw codec only their
//! sizes move the clocks. Each sweep runs on a [`pool`] worker whose
//! CPU share is 1, so the writer's `par_map` calls map on that thread
//! and the shards reach the simulator in shard order: round-robin
//! placement, and with it every makespan, is then the same whatever
//! the CPU count.
//!
//! What each sweep shows, at the default device (1 GB/s, 0.5 ms per op
//! and OST):
//! * **OST count** (stripe over all OSTs): bandwidth grows with the OSTs
//!   until a 4 MiB shard's four stripes cover its group, then stays flat
//!   — per-OST contention.
//! * **Stripe count** on 64 OSTs: one stripe per shard is fastest, since
//!   wider stripes put consecutive shards on shared OSTs.
//! * **Shard size** on 8 OSTs: small shards pay the per-op latency once
//!   per file, large ones leave OSTs idle; 4 MiB is the sweet spot.

use drai_io::parallel::{cpu_count, pool};
use drai_io::shard::{ShardSpec, ShardWriter};
use drai_sim::{SimConfig, SimFs};
use parking_lot::Mutex;

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
/// `config`, one shard at a time in shard order (see the module docs).
fn write(config: SimConfig, shard_bytes: usize) -> Point {
    let job = Mutex::new(Some(move || {
        let fs = SimFs::new(config).expect("valid sim config");
        let manifest = ShardWriter::new(ShardSpec::new("sweep", shard_bytes), &fs)
            .write_all(records())
            .expect("sim shard write");
        Point {
            files: manifest.shards.len(),
            makespan_ms: fs.makespan() * 1e3,
            gb_per_s: fs.achieved_bandwidth() / 1e9,
        }
    }));
    let point = Mutex::new(None);
    // `cpu_count` workers hold a share of 1 each; the first to start
    // runs the sweep point, the rest find no job.
    let worker = || {
        let job = job.lock().take();
        if let Some(job) = job {
            let done = job();
            *point.lock() = Some(done);
        }
    };
    pool(cpu_count(), worker, || ());
    let point = point.lock().take();
    point.expect("a pool worker ran the sweep point")
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
fn bandwidth_grows_with_the_osts_until_a_shard_covers_its_group() {
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
            (2, 21.541),
            (4, 13.283),
            (8, 7.154),
            (16, 6.129),
            (32, 6.129),
            (64, 6.129),
            (128, 6.129),
        ],
    );
    let gbps: Vec<String> = points
        .iter()
        .map(|(_, p)| format!("{:.2}", p.gb_per_s))
        .collect();
    assert_eq!(
        gbps,
        ["0.87", "1.56", "2.53", "4.69", "5.48", "5.48", "5.48", "5.48"]
    );
}

#[test]
fn one_stripe_per_shard_is_fastest_on_many_osts() {
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
            (4, 6.129),
            (8, 6.129),
            (16, 6.129),
            (32, 6.129),
            (64, 6.129),
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
            (64, 36.734),
            (256, 15.326),
            (1024, 7.416),
            (4096, 7.154),
            (16384, 10.020),
        ],
    );
    let gbps: Vec<String> = points
        .iter()
        .map(|(_, p)| format!("{:.2}", p.gb_per_s))
        .collect();
    assert_eq!(gbps, ["0.91", "2.19", "4.53", "4.69", "3.35"]);
}
