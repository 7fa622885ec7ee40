//! T1-MATERIALS — Table 1 row 4 / §3.4: the materials archetype's
//! `parse → normalize → encode → shard` pattern, with a structure-count
//! sweep and the neighbor-search kernel isolated (cell list vs brute
//! force — the O(N) vs O(N²) ablation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use drai_domains::materials::{self, neighbor_pairs, MaterialsConfig};
use drai_formats::xyz::{parse_xyz, write_xyz};
use drai_io::sink::{MemSink, StorageSink};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::Duration;

fn brute_force_pairs(positions: &[[f64; 3]], cutoff: f64) -> Vec<(usize, usize, f64)> {
    let mut out = Vec::new();
    let c2 = cutoff * cutoff;
    for a in 0..positions.len() {
        for b in a + 1..positions.len() {
            let d2: f64 = (0..3)
                .map(|c| (positions[a][c] - positions[b][c]).powi(2))
                .sum();
            if d2 <= c2 {
                out.push((a, b, d2.sqrt()));
            }
        }
    }
    out
}

fn bench_materials(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_materials");
    group.sample_size(10);
    group.warm_up_time(Duration::from_secs(1));
    group.measurement_time(Duration::from_secs(2));

    // Neighbor search: cell list vs brute force, growing N.
    let mut rng = SmallRng::seed_from_u64(3);
    for n in [256usize, 1024, 4096] {
        let side = (n as f64).cbrt() * 2.7;
        let positions: Vec<[f64; 3]> = (0..n)
            .map(|_| {
                [
                    rng.gen::<f64>() * side,
                    rng.gen::<f64>() * side,
                    rng.gen::<f64>() * side,
                ]
            })
            .collect();
        group.throughput(Throughput::Elements(n as u64));
        group.bench_function(BenchmarkId::new("neighbors-celllist", n), |b| {
            b.iter(|| neighbor_pairs(&positions, 3.2))
        });
        if n <= 1024 {
            group.bench_function(BenchmarkId::new("neighbors-bruteforce", n), |b| {
                b.iter(|| brute_force_pairs(&positions, 3.2))
            });
        }
    }

    // XYZ text, both directions, on the file the repo benchmark's
    // `archetypes_table1` workload synthesizes: 1 536 structures of 27
    // atoms with forces.
    let cfg = MaterialsConfig {
        structures: 1536,
        cell_atoms: 3,
        ..MaterialsConfig::default()
    };
    let sink = MemSink::new();
    materials::generate_raw(&cfg, &sink).unwrap();
    let xyz_bytes = sink.read_file("raw/structures.xyz").unwrap();
    let xyz_text = String::from_utf8(xyz_bytes.to_vec()).unwrap();
    let frames = parse_xyz(&xyz_text).unwrap();
    group.throughput(Throughput::Bytes(xyz_text.len() as u64));
    group.bench_function("parse_xyz", |b| b.iter(|| parse_xyz(&xyz_text).unwrap()));
    group.bench_function("write_xyz", |b| b.iter(|| write_xyz(&frames)));

    // End-to-end sweep.
    for structures in [16usize, 48] {
        let config = MaterialsConfig {
            structures,
            cell_atoms: 3,
            ..MaterialsConfig::default()
        };
        group.throughput(Throughput::Elements(structures as u64));
        group.bench_function(BenchmarkId::new("end-to-end", structures), |b| {
            b.iter(|| {
                let sink = Arc::new(MemSink::new());
                materials::run(&config, sink).unwrap()
            })
        });
    }

    // Stage breakdown.
    let run = materials::run(&cfg, Arc::new(MemSink::new())).unwrap();
    eprintln!("\n[table1_materials] structures=1536 stage breakdown:");
    for s in &run.stages {
        eprintln!(
            "  {:<10} {:>10.3} ms  {:>6} records",
            s.name,
            s.throughput.elapsed.as_secs_f64() * 1e3,
            s.throughput.records
        );
    }
    group.finish();
}

criterion_group!(benches, bench_materials);
criterion_main!(benches);
