//! T1-BIO — Table 1 row 3 / §3.3: the bio archetype's
//! `encode → anonymize → fuse → secure-shard` pattern, with a k-anonymity
//! sweep and isolated encode/encrypt kernels.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use drai_domains::bio::{self, BioConfig};
use drai_formats::h5lite::{AttrValue, H5File};
use drai_io::crypto::{chacha20_xor, derive_key};
use drai_io::sink::MemSink;
use drai_transform::anonymize::{hash_identifier, k_anonymity};
use drai_transform::encode::Alphabet;
use drai_transform::split::{assign, Split};
use std::sync::Arc;
use std::time::Duration;

fn bench_bio(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_bio");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(2));

    // Sequence one-hot encoding (the Enformer step).
    let seq: String = "ACGT".chars().cycle().take(65_536).collect();
    group.throughput(Throughput::Bytes(seq.len() as u64));
    let dna = Alphabet::dna();
    group.bench_function("encode-onehot-64k", |b| b.iter(|| dna.one_hot(&seq)));

    // Identifier hashing throughput.
    let ids: Vec<String> = (0..10_000).map(|i| format!("patient-{i:06}")).collect();
    group.throughput(Throughput::Elements(ids.len() as u64));
    group.bench_function("anonymize-hash-10k", |b| {
        b.iter(|| {
            ids.iter()
                .map(|id| hash_identifier("salt", id))
                .collect::<Vec<_>>()
        })
    });

    // k-anonymity check over quasi-identifier tuples.
    let rows: Vec<Vec<String>> = (0..10_000)
        .map(|i| vec![format!("{}0-{}9", i % 8, i % 8), format!("37{}**", i % 10)])
        .collect();
    group.bench_function("k-anonymity-10k", |b| {
        b.iter(|| k_anonymity(&rows, 5).unwrap())
    });

    // The secure-shard stage's two costs on one split's container: the
    // train split of the repo benchmark's 2 048-patient cohort, built
    // into an h5lite file as the stage builds it, then encrypted.
    let cohort = BioConfig {
        patients: 2048,
        tile_len: 256,
        ..BioConfig::default()
    };
    let pipeline = bio::build_pipeline(&cohort, Arc::new(MemSink::new()), Arc::default());
    let fused = pipeline
        .run(bio::member_input(&cohort, 0).unwrap())
        .unwrap()
        .output
        .fused;
    let train: Vec<_> = fused
        .iter()
        .filter(|(p, _, _)| assign(p, cohort.seed, cohort.fractions).unwrap() == Split::Train)
        .collect();
    let columns = AttrValue::Text(bio::LAB_COLUMNS.join(","));
    let container = || {
        let mut f = H5File::new();
        for (pseudonym, labs, onehot) in &train {
            let labs_path = format!("/patients/{pseudonym}/labs");
            f.put_tensor(&labs_path, labs, labs.len()).unwrap();
            f.set_attr(&labs_path, "columns", columns.clone()).unwrap();
            f.put_tensor(&format!("/patients/{pseudonym}/onehot"), onehot, 64)
                .unwrap();
        }
        f.to_bytes()
    };
    let payload = container();
    group.throughput(Throughput::Bytes(payload.len() as u64));
    group.bench_function("h5lite-build+to_bytes", |b| b.iter(container));

    let key = derive_key("secret", "bench");
    let nonce = [1u8; 12];
    group.bench_function("chacha20_xor", |b| {
        b.iter_batched(
            || payload.clone(),
            |mut data| {
                chacha20_xor(&key, &nonce, 0, &mut data);
                data
            },
            criterion::BatchSize::LargeInput,
        )
    });

    // End-to-end sweep over k.
    for k in [2usize, 5, 10] {
        let config = BioConfig {
            patients: 64,
            tile_len: 256,
            k,
            ..BioConfig::default()
        };
        group.throughput(Throughput::Elements(config.patients as u64));
        group.bench_function(BenchmarkId::new("end-to-end-k", k), |b| {
            b.iter(|| {
                let sink = Arc::new(MemSink::new());
                bio::run(&config, sink).unwrap()
            })
        });
    }

    // Stage breakdown.
    let run = bio::run(
        &BioConfig {
            patients: 64,
            tile_len: 256,
            ..BioConfig::default()
        },
        Arc::new(MemSink::new()),
    )
    .unwrap();
    eprintln!("\n[table1_bio] patients=64 stage breakdown:");
    for s in &run.stages {
        eprintln!(
            "  {:<14} {:>10.3} ms  {:>6} records",
            s.name,
            s.throughput.elapsed.as_secs_f64() * 1e3,
            s.throughput.records
        );
    }
    group.finish();
}

criterion_group!(benches, bench_bio);
criterion_main!(benches);
