//! Bio/health archetype end-to-end: synthetic EHR + genomes with embedded
//! PHI, `encode → anonymize → fuse → secure-shard`, then decrypt and read
//! back as the training job inside the enclave would.
//!
//! ```sh
//! cargo run --release --example bio_secure_enclave
//! ```

use drai::domains::bio::{self, BioConfig};
use drai::formats::h5lite::H5File;
use drai::io::sink::{MemSink, StorageSink};
use drai::tensor::Tensor;
use drai::transform::anonymize::scan_for_identifiers;
use drai::transform::split::{assign, Split};
use std::sync::Arc;

fn main() {
    let cfg = BioConfig {
        patients: 96,
        tile_len: 512,
        ..BioConfig::default()
    };
    let sink = Arc::new(MemSink::new());

    // Show the intake audit: raw data trips the PHI scanner.
    bio::generate_raw(&cfg, sink.as_ref()).expect("generate raw EHR+FASTA");
    let raw_csv = sink.read_file("raw/ehr.csv").expect("raw csv");
    let findings = scan_for_identifiers(&String::from_utf8_lossy(
        &raw_csv[..2000.min(raw_csv.len())],
    ));
    println!(
        "intake PHI audit on raw EHR (first 2 KB): {} findings, e.g. {:?}",
        findings.len(),
        findings.first().map(|(k, _)| k)
    );

    let run = bio::run(&cfg, sink.clone()).expect("bio pipeline");
    println!("\nstage metrics:");
    for s in &run.stages {
        println!(
            "  {:<14} [{:<10}] {:>5} records",
            s.name,
            s.kind.to_string(),
            s.throughput.records
        );
    }
    let assessment = run.assess();
    println!(
        "\nreadiness: {} (k-anonymity reached: {:?})",
        assessment.overall, assessment.anonymized
    );

    // The at-rest blobs are ciphertext.
    for name in &run.shard_files {
        let enc = sink.read_file(name).expect("blob");
        let parse_fails = H5File::from_bytes(&enc).is_err();
        println!(
            "  {name}: {} bytes, parses-without-key: {}",
            enc.len(),
            !parse_fails
        );
    }

    // Decrypt the training container with the operator secret.
    // (Recompute the per-split count to rebuild the nonce, as the training
    // job would from its job metadata.)
    // We count by re-deriving the pseudonym split assignment.
    let salt = format!("{}::anon", cfg.secret);
    let train_count = (0..cfg.patients)
        .filter(|p| {
            let pseudonym =
                drai::transform::anonymize::hash_identifier(&salt, &format!("patient-{p:04}"));
            assign(&pseudonym, cfg.seed, cfg.fractions).unwrap() == Split::Train
        })
        .count();
    let f = bio::open_secure_shard(&cfg, sink.as_ref(), "bio", Split::Train, train_count)
        .expect("decrypt train container");
    let patients = f.children("/patients");
    println!("\ndecrypted train container: {} patients", patients.len());
    if let Some(first) = patients.first() {
        let labs: Tensor<f32> = f.tensor(&format!("{first}/labs")).expect("labs");
        let onehot: Tensor<f32> = f.tensor(&format!("{first}/onehot")).expect("onehot");
        println!(
            "  first patient: labs {:?} (z-scored), onehot {:?}",
            labs.shape(),
            onehot.shape()
        );
    }
    println!("provenance events: {}", run.ledger.len());
}
