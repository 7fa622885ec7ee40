//! ABL-SCALE (storage half): simulated stripe-count and OST scaling on
//! the Lustre-like model in `drai-sim`.
//!
//! These results are *virtual-time* — the whole point of the simulator is
//! to show scaling shapes a laptop's single disk cannot exhibit — so they
//! are printed as a table rather than measured by criterion.
//!
//! ```sh
//! cargo run --release -p drai-bench --bin stripe_scaling
//! ```

use drai_bench::records;
use drai_io::shard::{ShardSpec, ShardWriter};
use drai_sim::{SimConfig, SimFs};

fn main() {
    let recs = records(512, 64 * 1024, 7); // 32 MiB payload
    let payload: u64 = recs.iter().map(|r| r.len() as u64).sum();

    println!("simulated striped parallel filesystem (per-OST 1 GB/s, 0.5 ms latency)");
    println!("payload: {} MiB of shard data\n", payload >> 20);

    // Sweep 1: stripe count on a 64-OST system.
    println!("stripe-count sweep (64 OSTs, 4 MiB shards):");
    println!(
        "{:>8} {:>14} {:>16}",
        "stripes", "makespan (ms)", "agg BW (GB/s)"
    );
    let mut baseline = None;
    for stripe_count in [1usize, 2, 4, 8, 16, 32, 64] {
        let fs = SimFs::new(SimConfig {
            ost_count: 64,
            stripe_count,
            ..SimConfig::default()
        })
        .expect("valid sim config");
        ShardWriter::new(ShardSpec::new("sweep", 4 << 20), &fs)
            .write_all(&recs)
            .expect("sim shard write");
        let makespan = fs.makespan();
        let bw = fs.achieved_bandwidth() / 1e9;
        let speedup = baseline.get_or_insert(makespan);
        println!(
            "{stripe_count:>8} {:>14.3} {:>16.2}   ({:.1}x)",
            makespan * 1e3,
            bw,
            *speedup / makespan
        );
    }

    // Sweep 2: OST count at full-width striping (system scaling).
    println!("\nOST-count sweep (stripe over all OSTs):");
    println!(
        "{:>8} {:>14} {:>16}",
        "OSTs", "makespan (ms)", "agg BW (GB/s)"
    );
    for ost_count in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        let fs = SimFs::new(SimConfig {
            ost_count,
            stripe_count: ost_count,
            ..SimConfig::default()
        })
        .expect("valid sim config");
        ShardWriter::new(ShardSpec::new("sweep", 4 << 20), &fs)
            .write_all(&recs)
            .expect("sim shard write");
        println!(
            "{ost_count:>8} {:>14.3} {:>16.2}",
            fs.makespan() * 1e3,
            fs.achieved_bandwidth() / 1e9
        );
    }

    // Sweep 3: shard size vs latency-dominated small files.
    println!("\nshard-size sweep (8 OSTs, stripe 4, latency 0.5 ms/op):");
    println!(
        "{:>12} {:>8} {:>14} {:>16}",
        "shard size", "files", "makespan (ms)", "agg BW (GB/s)"
    );
    for shard_kib in [64usize, 256, 1024, 4096, 16384] {
        let fs = SimFs::new(SimConfig::default()).expect("valid sim config");
        let manifest = ShardWriter::new(ShardSpec::new("sweep", shard_kib * 1024), &fs)
            .write_all(&recs)
            .expect("sim shard write");
        println!(
            "{:>10}Ki {:>8} {:>14.3} {:>16.2}",
            shard_kib,
            manifest.shards.len(),
            fs.makespan() * 1e3,
            fs.achieved_bandwidth() / 1e9
        );
    }

    // Every shard write above ran through the instrumented I/O stack;
    // persist the telemetry snapshot next to the criterion results so
    // `scripts/summarize_bench.py` sweeps both.
    match drai_bench::export_telemetry("telemetry") {
        Ok(paths) => println!("\ntelemetry exported to {}", paths[0].display()),
        Err(e) => eprintln!("\ntelemetry export failed: {e}"),
    }
}
