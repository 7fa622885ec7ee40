//! # drai-sim
//!
//! A simulated striped parallel filesystem, standing in for the
//! leadership-class Lustre/GPFS systems the paper's pipelines target
//! (DESIGN.md substitution table). A laptop's single SSD cannot show the
//! *shape* of parallel-I/O scaling — stripe-count speedup, per-OST
//! contention, the shard-size sweet spot — so `tests/stripe_scaling.rs`
//! pins those shapes on this model instead, while the same
//! `StorageSink` trait lets every other test run on the real filesystem.
//!
//! ## Model
//!
//! A [`SimFs`] has `ost_count` object storage targets. Each file is
//! striped round-robin in `stripe_size` chunks across `stripe_count`
//! consecutive OSTs starting at a per-file offset (Lustre's default
//! layout). The offset is a hash of the file's name, so where a file
//! lands — and with it every clock — does not depend on the order or the
//! thread its write came from. Writing `n` bytes to an OST costs
//!
//! ```text
//! latency + n / bandwidth
//! ```
//!
//! on that OST's private clock; OST clocks only ever move forward, so
//! concurrent writes to one OST serialize (contention) while writes to
//! different OSTs overlap. The simulated completion time of an operation
//! is the max over the OSTs it touched — the standard first-order model
//! of striped I/O.
//!
//! Data is actually stored (it's also a correct [`StorageSink`]), so
//! shard round-trip tests can run against the simulator too.

use drai_io::checksum::fnv1a64;
use drai_io::sink::{validate_name, StorageSink};
use drai_io::IoError;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Simulated filesystem geometry and device model.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of object storage targets.
    pub ost_count: usize,
    /// Stripe unit in bytes.
    pub stripe_size: usize,
    /// OSTs each file stripes across (clamped to `ost_count`).
    pub stripe_count: usize,
    /// Per-OST sequential bandwidth, bytes/second.
    pub ost_bandwidth: f64,
    /// Per-operation, per-OST latency, seconds.
    pub ost_latency: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        // A small Lustre-like system: 8 OSTs of 1 GB/s, 1 MiB stripes,
        // 0.5 ms per-op latency.
        SimConfig {
            ost_count: 8,
            stripe_size: 1 << 20,
            stripe_count: 4,
            ost_bandwidth: 1e9,
            ost_latency: 5e-4,
        }
    }
}

impl SimConfig {
    /// Validate the geometry; the error says which field is wrong.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.ost_count == 0 || self.stripe_size == 0 || self.stripe_count == 0 {
            return Err("ost_count, stripe_size, stripe_count must be positive".to_string());
        }
        let bandwidth_bad = self.ost_bandwidth.is_nan() || self.ost_bandwidth <= 0.0;
        let latency_bad = self.ost_latency.is_nan() || self.ost_latency < 0.0;
        if bandwidth_bad || latency_bad {
            return Err("ost_bandwidth must be positive, ost_latency non-negative".to_string());
        }
        Ok(())
    }
}

#[derive(Debug, Default)]
struct SimState {
    /// Per-OST clock: when that OST becomes free (virtual seconds).
    ost_free_at: Vec<f64>,
    /// Per-OST total bytes written (for balance reports).
    ost_bytes: Vec<u64>,
    /// Per-OST total bytes read.
    ost_read_bytes: Vec<u64>,
    /// Stored blobs.
    files: BTreeMap<String, Arc<[u8]>>,
}

/// The simulated filesystem. Cloning shares state (like an `Arc`).
#[derive(Debug, Clone)]
pub struct SimFs {
    config: SimConfig,
    state: Arc<Mutex<SimState>>,
}

/// Per-OST utilization snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct OstReport {
    /// Bytes written per OST.
    pub bytes_per_ost: Vec<u64>,
    /// Virtual time at which each OST becomes idle.
    pub busy_until: Vec<f64>,
}

impl SimFs {
    /// Create with the given geometry.
    pub fn new(config: SimConfig) -> Result<SimFs, String> {
        config.validate()?;
        let state = SimState {
            ost_free_at: vec![0.0; config.ost_count],
            ost_bytes: vec![0; config.ost_count],
            ost_read_bytes: vec![0; config.ost_count],
            ..SimState::default()
        };
        Ok(SimFs {
            config,
            state: Arc::new(Mutex::new(state)),
        })
    }

    /// Virtual completion time of all issued operations (the makespan):
    /// max over OST clocks.
    pub fn makespan(&self) -> f64 {
        let st = self.state.lock();
        st.ost_free_at.iter().copied().fold(0.0, f64::max)
    }

    /// Aggregate write bandwidth achieved so far: total bytes / makespan.
    pub fn achieved_bandwidth(&self) -> f64 {
        let st = self.state.lock();
        let total: u64 = st.ost_bytes.iter().sum();
        let makespan = st.ost_free_at.iter().copied().fold(0.0, f64::max);
        if makespan > 0.0 {
            total as f64 / makespan
        } else {
            0.0
        }
    }

    /// Per-OST utilization.
    pub fn ost_report(&self) -> OstReport {
        let st = self.state.lock();
        OstReport {
            bytes_per_ost: st.ost_bytes.clone(),
            busy_until: st.ost_free_at.clone(),
        }
    }

    /// Total bytes served by reads so far.
    pub fn total_read_bytes(&self) -> u64 {
        self.state.lock().ost_read_bytes.iter().sum()
    }

    /// The OST the stripes of the file `name` start on: a function of the
    /// name alone.
    fn start_ost(&self, name: &str) -> usize {
        (fnv1a64(name.as_bytes()) % self.config.ost_count as u64) as usize
    }

    /// Simulate moving `len` bytes striped from `start_ost` (the cost
    /// model is symmetric for reads and writes), advancing each touched
    /// OST's clock. `is_read` selects which byte counter to charge.
    fn simulate_transfer(&self, st: &mut SimState, len: usize, start_ost: usize, is_read: bool) {
        let stripe_count = self.config.stripe_count.min(self.config.ost_count);
        // Split the file into stripe_size chunks, distribute round-robin
        // over the file's stripe group, then issue one batched op per OST.
        let mut per_ost_bytes = vec![0u64; stripe_count];
        if len == 0 {
            per_ost_bytes[0] = 0;
        } else {
            let full_chunks = len / self.config.stripe_size;
            let tail = len % self.config.stripe_size;
            for c in 0..full_chunks {
                per_ost_bytes[c % stripe_count] += self.config.stripe_size as u64;
            }
            if tail > 0 {
                per_ost_bytes[full_chunks % stripe_count] += tail as u64;
            }
        }
        for (slot, &bytes) in per_ost_bytes.iter().enumerate() {
            if bytes == 0 && len != 0 {
                continue;
            }
            let ost = (start_ost + slot) % self.config.ost_count;
            let service = self.config.ost_latency + bytes as f64 / self.config.ost_bandwidth;
            st.ost_free_at[ost] += service;
            if is_read {
                st.ost_read_bytes[ost] += bytes;
            } else {
                st.ost_bytes[ost] += bytes;
            }
        }
    }
}

impl StorageSink for SimFs {
    fn write_file(&self, name: &str, data: &[u8]) -> Result<(), IoError> {
        validate_name(name)?;
        let blob = Arc::from(data);
        let start = self.start_ost(name);
        let mut st = self.state.lock();
        self.simulate_transfer(&mut st, data.len(), start, false);
        st.files.insert(name.to_string(), blob);
        Ok(())
    }

    fn read_file(&self, name: &str) -> Result<Arc<[u8]>, IoError> {
        let mut st = self.state.lock();
        let data = st
            .files
            .get(name)
            .cloned()
            .ok_or_else(|| IoError::NotFound {
                blob: name.to_string(),
            })?;
        // Reads hit the same stripe group the file was written to.
        self.simulate_transfer(&mut st, data.len(), self.start_ost(name), true);
        Ok(data)
    }

    fn list(&self) -> Result<Vec<String>, IoError> {
        Ok(self.state.lock().files.keys().cloned().collect())
    }

    fn delete(&self, name: &str) -> Result<(), IoError> {
        self.state.lock().files.remove(name);
        Ok(())
    }

    fn exists(&self, name: &str) -> bool {
        self.state.lock().files.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs(ost_count: usize, stripe_count: usize) -> SimFs {
        SimFs::new(SimConfig {
            ost_count,
            stripe_count,
            stripe_size: 1 << 20,
            ost_bandwidth: 1e9,
            ost_latency: 0.0,
        })
        .unwrap()
    }

    #[test]
    fn sink_round_trip() {
        let fs = fs(4, 2);
        fs.write_file("a/b.shard", &[7u8; 1000]).unwrap();
        assert_eq!(&*fs.read_file("a/b.shard").unwrap(), vec![7u8; 1000]);
        assert!(fs.exists("a/b.shard"));
        assert_eq!(fs.list().unwrap(), vec!["a/b.shard"]);
        fs.delete("a/b.shard").unwrap();
        assert!(!fs.exists("a/b.shard"));
        assert!(fs.read_file("a/b.shard").is_err());
        assert!(fs.write_file("../evil", &[]).is_err());
    }

    #[test]
    fn striping_scales_bandwidth() {
        // One 64 MiB file at stripe_count 1 vs 8 on an 8-OST system:
        // 8-way striping should finish ~8x sooner.
        let data = vec![0u8; 64 << 20];
        let narrow = fs(8, 1);
        narrow.write_file("f", &data).unwrap();
        let wide = fs(8, 8);
        wide.write_file("f", &data).unwrap();
        let speedup = narrow.makespan() / wide.makespan();
        assert!((speedup - 8.0).abs() < 0.01, "speedup {speedup}");
    }

    #[test]
    fn contention_serializes_one_ost() {
        // Two files striped over the same single OST take twice as long
        // as one.
        let single = fs(1, 1);
        let data = vec![0u8; 8 << 20];
        single.write_file("a", &data).unwrap();
        let t1 = single.makespan();
        single.write_file("b", &data).unwrap();
        let t2 = single.makespan();
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn placement_is_a_function_of_the_name() {
        let fs = fs(4, 1);
        let data = vec![0u8; 1 << 20];
        for i in 0..32 {
            fs.write_file(&format!("f{i}"), &data).unwrap();
        }
        let report = fs.ost_report();
        // Every file lands on the OST its name hashes to, whole.
        let mut want = vec![0u64; 4];
        for i in 0..32 {
            want[fs.start_ost(&format!("f{i}"))] += 1 << 20;
        }
        assert_eq!(report.bytes_per_ost, want);
        assert!(want.iter().all(|&b| b > 0), "{want:?}");
        // A read is charged to the OST the write went to.
        fs.read_file("f7").unwrap();
        let reads = fs.state.lock().ost_read_bytes.clone();
        assert_eq!(reads[fs.start_ost("f7")], 1 << 20);
        assert_eq!(reads.iter().sum::<u64>(), 1 << 20);
    }

    /// The same files, written forwards and backwards: the same OSTs
    /// carry the same bytes, and the makespan is the same.
    #[test]
    fn write_order_does_not_move_the_makespan() {
        let files: Vec<(String, usize)> = (0..24)
            .map(|i| (format!("set/train-{i:05}.shard"), (1 + i % 5) << 19))
            .collect();
        let sim = SimConfig {
            ost_count: 8,
            stripe_count: 2,
            ..SimConfig::default()
        };
        let write = |order: &mut dyn Iterator<Item = &(String, usize)>| {
            let fs = SimFs::new(sim.clone()).unwrap();
            for (name, len) in order {
                fs.write_file(name, &vec![0u8; *len]).unwrap();
            }
            (fs.ost_report().bytes_per_ost, fs.makespan())
        };
        let (forward_bytes, forward) = write(&mut files.iter());
        let (backward_bytes, backward) = write(&mut files.iter().rev());
        assert_eq!(forward_bytes, backward_bytes);
        assert!(
            (forward - backward).abs() <= 1e-12 * forward,
            "{forward} vs {backward}"
        );
    }

    #[test]
    fn latency_dominates_small_writes() {
        let fs = SimFs::new(SimConfig {
            ost_count: 4,
            stripe_count: 4,
            stripe_size: 1 << 20,
            ost_bandwidth: 1e9,
            ost_latency: 1e-3,
        })
        .unwrap();
        // A 1 KiB write costs ~latency, not bandwidth.
        fs.write_file("tiny", &[0u8; 1024]).unwrap();
        let t = fs.makespan();
        assert!((t - 1e-3).abs() / 1e-3 < 0.01, "t = {t}");
    }

    #[test]
    fn achieved_bandwidth_reported() {
        let fs = fs(8, 8);
        fs.write_file("f", &vec![0u8; 80 << 20]).unwrap();
        let bw = fs.achieved_bandwidth();
        // 8 OSTs at 1 GB/s, perfectly striped → ~8 GB/s aggregate.
        assert!((bw - 8e9).abs() / 8e9 < 0.01, "bw {bw}");
    }

    #[test]
    fn stripe_count_clamped_to_osts() {
        let fs = fs(2, 16);
        fs.write_file("f", &vec![0u8; 4 << 20]).unwrap();
        let report = fs.ost_report();
        assert_eq!(report.bytes_per_ost.len(), 2);
        assert_eq!(report.bytes_per_ost.iter().sum::<u64>(), 4 << 20);
    }

    #[test]
    fn bad_configs_rejected() {
        for cfg in [
            SimConfig {
                ost_count: 0,
                ..SimConfig::default()
            },
            SimConfig {
                stripe_size: 0,
                ..SimConfig::default()
            },
            SimConfig {
                stripe_count: 0,
                ..SimConfig::default()
            },
            SimConfig {
                ost_bandwidth: 0.0,
                ..SimConfig::default()
            },
            SimConfig {
                ost_latency: -1.0,
                ..SimConfig::default()
            },
        ] {
            assert!(SimFs::new(cfg).is_err());
        }
    }

    #[test]
    fn empty_file_write() {
        let fs = fs(2, 2);
        fs.write_file("empty", &[]).unwrap();
        assert!(fs.read_file("empty").unwrap().is_empty());
    }

    #[test]
    fn reads_charge_virtual_time() {
        let fs = fs(4, 4);
        let data = vec![0u8; 16 << 20];
        fs.write_file("f", &data).unwrap();
        let after_write = fs.makespan();
        assert_eq!(fs.total_read_bytes(), 0);
        let back = fs.read_file("f").unwrap();
        assert_eq!(back.len(), data.len());
        assert!(fs.makespan() > after_write, "read did not advance clocks");
        assert_eq!(fs.total_read_bytes(), data.len() as u64);
        // Symmetric cost model: read takes about as long as the write.
        assert!((fs.makespan() - 2.0 * after_write).abs() / after_write < 0.05);
    }

    #[test]
    fn resilient_client_survives_flaky_osts() {
        use drai_io::fault::{FaultConfig, FaultSink};
        use drai_io::retry::{RetryPolicy, RetrySink, VirtualClock};
        use drai_io::shard::{ShardReader, ShardSpec, ShardWriter};

        let fs = fs(4, 2);
        let clock = VirtualClock::new();
        let policy = RetryPolicy {
            max_attempts: 16,
            ..RetryPolicy::default()
        };
        let sink = RetrySink::with_clock(
            FaultSink::new(fs.clone(), FaultConfig::transient(17, 0.25)),
            policy,
            clock.clone(),
        );
        let records: Vec<Vec<u8>> = (0..40).map(|i| vec![i as u8; 4096]).collect();
        let manifest = ShardWriter::new(ShardSpec::new("flaky", 32 * 1024), &sink)
            .write_all(&records)
            .unwrap();
        assert!(manifest.shards.len() > 1);
        let reader = ShardReader::open("flaky", &sink).unwrap();
        let recovered = reader.read_all_recovering();
        assert!(recovered.damage.is_clean(), "{:?}", recovered.damage);
        assert_eq!(recovered.records, records);
        // The retries cost (virtual) backoff time, and the successful
        // attempts advanced the simulated OST clocks.
        assert!(clock.slept_ns() > 0, "expected injected faults to back off");
        assert!(fs.makespan() > 0.0);
    }

    #[test]
    fn works_as_shard_sink() {
        use drai_io::shard::{ShardReader, ShardSpec, ShardWriter};
        let fs = fs(4, 2);
        let records: Vec<Vec<u8>> = (0..50).map(|i| vec![i as u8; 4096]).collect();
        let manifest = ShardWriter::new(ShardSpec::new("sim", 64 * 1024), &fs)
            .write_all(&records)
            .unwrap();
        assert!(manifest.shards.len() > 1);
        let reader = ShardReader::open("sim", &fs).unwrap();
        assert_eq!(reader.read_all().unwrap(), records);
        assert!(fs.makespan() > 0.0);
    }
}
