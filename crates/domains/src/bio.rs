//! Bio/health archetype: `encode → anonymize → fuse → secure-shard`
//! (Table 1 row 3; §3.3; Enformer/C-HER-style multimodal clinical +
//! genomic preprocessing under PHI constraints).
//!
//! Raw data is synthesized as (a) a clinical CSV with direct identifiers
//! (name, MRN, SSN-like field), quasi-identifiers (age, zip), visit dates
//! and lab values with missing entries, and (b) per-patient DNA sequences
//! in FASTA. The pipeline:
//!
//! 1. **ingest** — parse CSV + FASTA, join on patient id, PHI-scan the
//!    free-text field as the intake audit;
//! 2. **anonymize** — hash identifiers (salted), generalize age/zip,
//!    shift dates per patient, verify k-anonymity (suppressing rare
//!    quasi-identifier tuples if needed);
//! 3. **encode+fuse** — impute lab values, z-score them, one-hot the DNA
//!    tiles, fuse into per-patient records;
//! 4. **secure-shard** — write an `h5lite` container per split and
//!    encrypt it with ChaCha20 before it touches storage; verify the
//!    stored bytes scan clean of identifiers.

use crate::{names, DomainError, DomainRun, Member, StageItem, Witness};
use drai_core::assess::key;
use drai_core::dataset::{DatasetManifest, Modality, VariableSpec};
use drai_core::pipeline::{Pipeline, StageCounters};
use drai_core::{readiness::ProcessingStage as S, DomainTemplate, TemplateStep};
use drai_formats::csv::{parse_csv, write_csv, CsvTable};
use drai_formats::fasta::{parse_fasta, write_fasta, FastaRecord};
use drai_formats::h5lite::{AttrValue, H5File};
use drai_io::crypto::{chacha20_xor, derive_key, key_id, Nonce};
use drai_io::sink::{MemSink, StorageSink};
use drai_provenance::Ledger;
use drai_telemetry::Registry;
use drai_tensor::{DType, Tensor};
use drai_transform::anonymize::{
    date_shift_days, generalize_age, generalize_zip, hash_identifier, k_anonymity,
    scan_for_identifiers, shift_dates, suppress_to_k,
};
use drai_transform::encode::Alphabet;
use drai_transform::impute::{impute, Strategy};
use drai_transform::normalize::{Method, Normalizer};
use drai_transform::split::{partition, Fractions, Split};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

/// Lab-value columns in the synthetic EHR.
pub(crate) const LAB_COLUMNS: [&str; 4] = ["glucose", "creatinine", "hemoglobin", "sodium"];

/// Generator + pipeline configuration.
#[derive(Debug, Clone)]
pub struct BioConfig {
    /// Number of synthetic patients.
    pub patients: usize,
    /// DNA tile length per patient (Enformer uses 196,608; tests use small).
    pub tile_len: usize,
    /// Fraction of missing lab values.
    pub missing_fraction: f64,
    /// k for k-anonymity over (age band, zip3).
    pub k: usize,
    /// Operator secret for key derivation (never stored).
    pub secret: String,
    /// RNG seed.
    pub seed: u64,
    /// Split fractions (keyed by patient pseudonym).
    pub fractions: Fractions,
}

impl Default for BioConfig {
    fn default() -> Self {
        BioConfig {
            patients: 64,
            tile_len: 256,
            missing_fraction: 0.08,
            k: 2,
            secret: "demo-enclave-secret".into(),
            seed: 8_439,
            fractions: Fractions::standard(),
        }
    }
}

/// Generate raw clinical CSV + FASTA into `sink` under `raw/`.
pub fn generate_raw(cfg: &BioConfig, sink: &dyn StorageSink) -> Result<(), DomainError> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let first_names = [
        "Jane", "John", "Ada", "Alan", "Grace", "Linus", "Mary", "Omar",
    ];
    let last_names = [
        "Doe", "Smith", "Lovelace", "Turing", "Hopper", "Chen", "Patel", "Kim",
    ];
    let mut rows = Vec::with_capacity(cfg.patients);
    for p in 0..cfg.patients {
        let name = format!(
            "{} {}",
            first_names[rng.gen_range(0..first_names.len())],
            last_names[rng.gen_range(0..last_names.len())]
        );
        let mrn = format!("{:07}", 1_000_000 + p);
        let age = rng.gen_range(18..95);
        let zip = format!("{:05}", 37_800 + rng.gen_range(0..40));
        let visit_day = 19_000 + rng.gen_range(0..1000); // days since epoch
        let mut fields = vec![
            format!("patient-{p:04}"),
            name,
            mrn,
            age.to_string(),
            zip,
            visit_day.to_string(),
        ];
        for (li, _) in LAB_COLUMNS.iter().enumerate() {
            if rng.gen::<f64>() < cfg.missing_fraction {
                fields.push(String::new());
            } else {
                let base = [95.0, 1.0, 14.0, 140.0][li];
                let spread = [20.0, 0.3, 2.0, 4.0][li];
                fields.push(format!(
                    "{:.2}",
                    base + spread * (rng.gen::<f64>() - 0.5) * 2.0
                ));
            }
        }
        rows.push(fields);
    }
    let mut header = vec![
        "patient_id".to_string(),
        "name".to_string(),
        "mrn".to_string(),
        "age".to_string(),
        "zip".to_string(),
        "visit_day".to_string(),
    ];
    header.extend(LAB_COLUMNS.iter().map(|s| s.to_string()));
    let table = CsvTable { header, rows };
    sink.write_file("raw/ehr.csv", write_csv(&table).as_bytes())?;

    // Per-patient DNA tiles.
    let bases = [b'A', b'C', b'G', b'T'];
    let records: Vec<FastaRecord> = (0..cfg.patients)
        .map(|p| {
            let seq: String = (0..cfg.tile_len)
                .map(|_| bases[rng.gen_range(0..4)] as char)
                .collect();
            FastaRecord {
                header: format!("patient-{p:04} synthetic tile"),
                sequence: seq,
            }
        })
        .collect();
    sink.write_file("raw/sequences.fasta", write_fasta(&records, 70).as_bytes())?;
    Ok(())
}

/// One patient mid-pipeline.
#[derive(Debug, Clone)]
pub struct PatientRecord {
    /// Original patient key (dropped at anonymization).
    pub patient_id: String,
    /// Pseudonym (present after anonymization).
    pub pseudonym: String,
    /// Generalized age band.
    pub age_band: String,
    /// Generalized zip.
    pub zip3: String,
    /// Visit day (shifted after anonymization).
    pub visit_day: i64,
    /// Lab values (NaN = missing until imputation).
    pub labs: Vec<f64>,
    /// Raw DNA tile.
    pub sequence: String,
}

/// Artifact between bio pipeline stages.
pub struct BioData {
    /// Patient records.
    pub patients: Vec<PatientRecord>,
    /// Number suppressed by the k-anonymity gate.
    pub suppressed: usize,
    /// Patients with at least one lab value measured, counted by
    /// encode+fuse before it imputes the rest.
    pub labeled: usize,
    /// Fused tensors after encode+fuse: per patient (pseudonym, labs
    /// z-scored, one-hot tile) — what the shard stage stores as is.
    pub fused: Vec<(String, Tensor<f32>, Tensor<f32>)>,
    /// PHI scanner findings at intake (should be > 0 on raw data).
    pub intake_phi_findings: usize,
}

/// Read the raw blobs from `sink`, show each to `witness`, and parse
/// them into the pipeline input: join the EHR table and the FASTA tiles
/// on patient id (a patient with no tile is an error, not an empty
/// tile) and PHI-scan each raw row as the intake audit.
pub(crate) fn ingest(sink: &dyn StorageSink, witness: Witness) -> Result<BioData, DomainError> {
    let csv_bytes = sink.read_file("raw/ehr.csv")?;
    witness("raw/ehr.csv", &csv_bytes);
    let csv_text = String::from_utf8_lossy(&csv_bytes);
    let table = parse_csv(&csv_text)?;
    let fasta_bytes = sink.read_file("raw/sequences.fasta")?;
    witness("raw/sequences.fasta", &fasta_bytes);
    let fasta = parse_fasta(&String::from_utf8_lossy(&fasta_bytes))?;
    // Index the tiles once; on a duplicated id the first record wins.
    let mut tiles: HashMap<&str, &str> = HashMap::with_capacity(fasta.len());
    for record in &fasta {
        tiles.entry(record.id()).or_insert(&record.sequence);
    }

    let missing = |col: &str| DomainError::Config(format!("ehr.csv missing {col}"));
    let numeric = |col: &str| table.numeric_column(col).ok_or_else(|| missing(col));
    let ids = table
        .column("patient_id")
        .ok_or_else(|| missing("patient_id"))?;
    let names = table.column("name").unwrap_or_default();
    let mrns = table.column("mrn").unwrap_or_default();
    let zips = table.column("zip").unwrap_or_default();
    let (ages, days) = (numeric("age")?, numeric("visit_day")?);
    let labs = LAB_COLUMNS
        .iter()
        .map(|col| numeric(col))
        .collect::<Result<Vec<_>, _>>()?;

    let mut intake_phi_findings = 0;
    let mut patients = Vec::with_capacity(ids.len());
    for (i, id) in ids.iter().enumerate() {
        // Intake audit: direct identifiers present in raw rows.
        intake_phi_findings += scan_for_identifiers(&format!(
            "{} MRN {}",
            names.get(i).copied().unwrap_or(""),
            mrns.get(i).copied().unwrap_or("")
        ))
        .len();
        let sequence = tiles.get(id).ok_or_else(|| {
            DomainError::Config(format!("sequences.fasta has no record for patient {id}"))
        })?;
        patients.push(PatientRecord {
            patient_id: id.to_string(),
            pseudonym: String::new(),
            age_band: ages[i].to_string(), // raw age until anonymization
            zip3: zips.get(i).copied().unwrap_or("").to_string(),
            visit_day: days[i] as i64,
            labs: labs.iter().map(|col| col[i]).collect(),
            sequence: sequence.to_string(),
        });
    }
    Ok(BioData {
        patients,
        suppressed: 0,
        labeled: 0,
        fused: vec![],
        intake_phi_findings,
    })
}

/// Stage body: the intake audit ran at [`ingest`]; count what arrived.
fn audit_stage(data: BioData, c: &mut StageCounters) -> Result<BioData, String> {
    c.records = data.patients.len() as u64;
    Ok(data)
}

/// Stage body: hash identifiers, generalize age/zip, shift dates, and
/// enforce k-anonymity over (age band, zip3) by suppressing rare tuples.
/// The rows suppressed and the smallest class left go on record.
fn anonymize_stage(
    cfg: &BioConfig,
    mut data: BioData,
    c: &mut StageCounters,
) -> Result<BioData, String> {
    let salt = format!("{}::anon", cfg.secret);
    for p in &mut data.patients {
        p.pseudonym = hash_identifier(&salt, &p.patient_id);
        let age: f64 = p.age_band.parse().map_err(|_| "bad age".to_string())?;
        p.age_band = generalize_age(age as u32, 10);
        p.zip3 = generalize_zip(&p.zip3);
        let shift = date_shift_days(&salt, &p.patient_id, 180);
        let mut days = [p.visit_day];
        shift_dates(&mut days, shift);
        p.visit_day = days[0];
        p.patient_id = String::new(); // direct identifier dropped
    }
    let mut quasi: Vec<Vec<String>> = data
        .patients
        .iter()
        .map(|p| vec![p.age_band.clone(), p.zip3.clone()])
        .collect();
    let report = k_anonymity(&quasi, cfg.k).map_err(|e| format!("{e}"))?;
    let mut k_reached = report.min_class_size.min(quasi.len());
    let mut suppressed = 0;
    if !report.satisfies(cfg.k) {
        suppressed = suppress_to_k(&mut quasi, cfg.k).map_err(|e| format!("{e}"))?;
        for (p, q) in data.patients.iter_mut().zip(&quasi) {
            p.age_band = q[0].clone();
            p.zip3 = q[1].clone();
        }
        // The suppressed rows, all `*`, are exempt from k — unless every
        // row was suppressed: then they are the one class left.
        quasi.retain(|q| q[0] != "*");
        let left = k_anonymity(&quasi, cfg.k).map_err(|e| format!("{e}"))?;
        k_reached = left.min_class_size.min(data.patients.len());
    }
    data.suppressed = suppressed;
    c.measure("suppressed", suppressed);
    c.measure(key::K_REACHED, k_reached);
    c.records = data.patients.len() as u64;
    Ok(data)
}

/// Stage body: impute and z-score the labs column-wise, one-hot the
/// DNA tiles, fuse into per-patient records. A patient is labeled when
/// at least one of its lab values was measured, not imputed.
fn encode_fuse_stage(mut data: BioData, c: &mut StageCounters) -> Result<BioData, String> {
    let n = data.patients.len();
    let mut measured = vec![false; n];
    for col in 0..LAB_COLUMNS.len() {
        let mut values: Vec<f64> = (data.patients.iter().zip(&mut measured))
            .map(|(p, m)| {
                *m |= !p.labs[col].is_nan();
                p.labs[col]
            })
            .collect();
        impute(&mut values, Strategy::Median).map_err(|e| format!("{e}"))?;
        let norm = Normalizer::fit(Method::ZScore, &values).map_err(|e| format!("{e}"))?;
        for (p, v) in data.patients.iter_mut().zip(&values) {
            p.labs[col] = norm.apply(*v);
        }
    }
    let dna = Alphabet::dna();
    let mut fused = Vec::with_capacity(n);
    let mut bytes = 0u64;
    for p in &data.patients {
        let labs = Tensor::from_fn(&[p.labs.len()], |i| p.labs[i] as f32);
        let onehot = dna.one_hot(&p.sequence);
        bytes += (labs.len() * 4 + onehot.len() * 4) as u64;
        fused.push((p.pseudonym.clone(), labs, onehot));
    }
    data.fused = fused;
    data.labeled = measured.into_iter().filter(|&m| m).count();
    c.records = n as u64;
    c.bytes = bytes;
    Ok(data)
}

/// Key of the dataset sharded under `prefix`. The context names the
/// prefix because two members of one batch are two datasets under one
/// secret, routinely with equal split counts and so equal nonces: they
/// must not share a keystream. (A bare run's context stays `bio-shards`.)
fn shard_key(secret: &str, prefix: &str) -> [u8; 32] {
    derive_key(secret, &format!("{prefix}-shards"))
}

/// Nonce of one split blob: split index + record count, unique per
/// blob within one [`shard_key`].
fn shard_nonce(split: Split, record_count: usize) -> Nonce {
    let mut nonce: Nonce = [0; 12];
    nonce[0] = split.index() as u8;
    nonce[4..12].copy_from_slice(&(record_count as u64).to_le_bytes());
    nonce
}

/// Stage body: one h5lite container per split, ChaCha20-encrypted
/// before it touches storage, under the prefix's key. Each split's time
/// is split three ways, one span each: building the container, ciphering
/// it, storing it (write and vouch).
fn secure_shard_stage(
    cfg: &BioConfig,
    sink: &dyn StorageSink,
    prefix: &str,
    data: BioData,
    c: &mut StageCounters,
) -> Result<BioData, String> {
    let key = shard_key(&cfg.secret, prefix);
    c.measure("key_id", key_id(&key));
    c.measure(key::RECORDS, data.fused.len());
    c.measure(key::LABELED, data.labeled);
    let columns = LAB_COLUMNS.join(",");
    let keyed = data.fused.iter().map(|entry| (&entry.0, entry));
    let parts = partition(keyed, cfg.seed, cfg.fractions).map_err(|e| e.to_string())?;
    let registry = Registry::current();
    let mut total = 0u64;
    crate::write_splits(c, parts, |split, patients, vouch| {
        let mut bytes = registry.time(&names::SECURE_SHARD_BUILD, [], || {
            let mut f = H5File::new();
            // One buffer holds a patient's group path; each dataset
            // name is pushed onto it and cut off again.
            let mut path = String::from("/patients/");
            for (pseudonym, labs, onehot) in &patients {
                path.truncate("/patients/".len());
                path.push_str(pseudonym);
                let group = path.len();
                path.push_str("/labs");
                f.put_tensor(&path, labs, labs.len().max(1))
                    .and_then(|()| f.set_attr(&path, "columns", AttrValue::Text(columns.clone())))
                    .map_err(|e| format!("{e}"))?;
                path.truncate(group);
                path.push_str("/onehot");
                f.put_tensor(&path, onehot, 64)
                    .map_err(|e| format!("{e}"))?;
            }
            Ok::<_, String>(f.to_bytes())
        })?;
        registry.time(&names::SECURE_SHARD_CIPHER, [], || {
            chacha20_xor(&key, &shard_nonce(split, patients.len()), 0, &mut bytes)
        });
        registry.time(&names::SECURE_SHARD_STORE, [], || {
            let name = format!("{prefix}/{}.h5lite.enc", split.name());
            sink.write_file(&name, &bytes).map_err(|e| e.to_string())?;
            total += bytes.len() as u64;
            vouch(&name, &bytes);
            Ok(())
        })
    })?;
    c.records = data.fused.len() as u64;
    c.bytes = total;
    Ok(data)
}

/// The stages of [`stage_graph`], in order.
const STEPS: [TemplateStep; 4] = [
    TemplateStep::new("audit", S::Ingest),
    TemplateStep::new("anonymize", S::Transform),
    TemplateStep::new("encode+fuse", S::Structure),
    TemplateStep::new("secure-shard", S::Shard),
];

/// The bio/health template (§3.3): `encode -> anonymize -> fuse -> secure-shard`.
/// The intake `audit` stands where the pattern starts; encoding is fused with fuse.
pub const TEMPLATE: DomainTemplate = DomainTemplate {
    domain: "bio",
    steps: &STEPS,
    alignment: None,
    requires_anonymization: true,
};

/// The bio stage graph (stages 2–4; ingest is [`ingest`]), declared
/// once for whatever flows through it: a bare [`BioData`] (pipeline
/// `bio`, containers under `bio/`) or a batch [`Member`], one clinic's
/// cohort (pipeline `bio-batch`, containers under `bio/m<member>/`).
/// No stage declares the operator secret, which a record would publish:
/// a key id derived from it stands in.
fn stage_graph<I: StageItem<BioData>>(
    cfg: &BioConfig,
    sink: Arc<dyn StorageSink>,
    ledger: Arc<Ledger>,
) -> Pipeline<I> {
    let cfg_anon = cfg.clone();
    let cfg_shard = cfg.clone();
    let anonymity = [
        (key::K, cfg.k.to_string()),
        ("key_id", key_id(&derive_key(&cfg.secret, "anonymize"))),
    ];
    let shard_config = [("cipher", "chacha20".to_string())]
        .into_iter()
        .chain(crate::split_config(cfg.seed, cfg.fractions));
    let [audit, anon, fuse, secure] = STEPS;

    Pipeline::builder(&I::pipeline_name(TEMPLATE.domain))
        .ledger(ledger)
        .stage(audit.name, audit.kind, |item: I, c| {
            item.try_map(|data| audit_stage(data, c))
        })
        .configured_stage(anon.name, anon.kind, anonymity, move |item: I, c| {
            item.try_map(|data| anonymize_stage(&cfg_anon, data, c))
        })
        .stage(fuse.name, fuse.kind, |item: I, c| {
            item.try_map(|data| encode_fuse_stage(data, c))
        })
        .configured_stage(secure.name, secure.kind, shard_config, move |item: I, c| {
            let prefix = item.shard_prefix(TEMPLATE.domain);
            item.try_map(|data| secure_shard_stage(&cfg_shard, sink.as_ref(), &prefix, data, c))
        })
        .build()
}

/// Build the bio pipeline over one [`BioData`].
pub fn build_pipeline(
    cfg: &BioConfig,
    sink: Arc<dyn StorageSink>,
    ledger: Arc<Ledger>,
) -> Pipeline<BioData> {
    stage_graph(cfg, sink, ledger)
}

/// Build the same pipeline over batch [`Member`]s.
pub fn build_batch_pipeline(
    cfg: &BioConfig,
    sink: Arc<dyn StorageSink>,
    ledger: Arc<Ledger>,
) -> Pipeline<Member<BioData>> {
    stage_graph(cfg, sink, ledger)
}

/// One batch member's input: a member-seeded cohort of `cfg.patients`
/// patients, generated and ingested in a staging [`MemSink`] — a whole
/// cohort, not one patient, because k-anonymity is a property of the set.
pub fn member_input(cfg: &BioConfig, member: usize) -> Result<BioData, DomainError> {
    let member_cfg = BioConfig {
        seed: cfg.seed.wrapping_add(member as u64),
        ..cfg.clone()
    };
    let staging = MemSink::new();
    generate_raw(&member_cfg, &staging)?;
    ingest(&staging, &mut |_, _| {})
}

/// Decrypt and open one secure shard (the consumer side). `prefix` is
/// where the dataset was sharded: `bio` for a [`run`], `bio/m<member>`
/// for a batch member.
pub fn open_secure_shard(
    cfg: &BioConfig,
    sink: &dyn StorageSink,
    prefix: &str,
    split: Split,
    record_count: usize,
) -> Result<H5File, DomainError> {
    // Deciphered in place, so this reader pays for a copy of its own.
    let mut bytes = sink
        .read_file(&format!("{prefix}/{}.h5lite.enc", split.name()))?
        .to_vec();
    chacha20_xor(
        &shard_key(&cfg.secret, prefix),
        &shard_nonce(split, record_count),
        0,
        &mut bytes,
    );
    Ok(H5File::from_bytes(&bytes)?)
}

/// Run the complete bio archetype.
pub fn run(cfg: &BioConfig, sink: Arc<dyn StorageSink>) -> Result<DomainRun, DomainError> {
    crate::run_archetype(
        &TEMPLATE,
        ".enc",
        sink.as_ref(),
        || generate_raw(cfg, sink.as_ref()),
        |(), witness| ingest(sink.as_ref(), witness),
        |ledger| build_pipeline(cfg, sink.clone(), ledger),
        |out| DatasetManifest {
            name: "c-her-synth".into(),
            domain: TEMPLATE.domain.into(),
            modality: Modality::Sequence,
            schema: vec![
                VariableSpec::new("labs", DType::F32, "1", &[LAB_COLUMNS.len()]),
                VariableSpec::new("onehot", DType::F32, "1", &[cfg.tile_len, 4]),
            ],
            records: out.fused.len() as u64,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use drai_core::ReadinessLevel;
    use drai_provenance::ArtifactId;
    use drai_transform::split::assign;

    fn small_cfg() -> BioConfig {
        BioConfig {
            patients: 24,
            tile_len: 64,
            missing_fraction: 0.15,
            k: 2,
            seed: 99,
            ..BioConfig::default()
        }
    }

    #[test]
    fn raw_data_contains_phi() {
        let sink = MemSink::new();
        generate_raw(&small_cfg(), &sink).unwrap();
        let data = ingest(&sink, &mut |_, _| {}).unwrap();
        assert!(
            data.intake_phi_findings > 0,
            "raw EHR should trip the PHI scanner"
        );
        assert_eq!(data.patients.len(), 24);
        assert!(data
            .patients
            .iter()
            .any(|p| p.labs.iter().any(|v| v.is_nan())));
        assert!(data.patients.iter().all(|p| p.sequence.len() == 64));
    }

    #[test]
    fn end_to_end_secure_and_ready() {
        let cfg = small_cfg();
        let sink = Arc::new(MemSink::new());
        let run = run(&cfg, sink.clone()).unwrap();
        let assessment = run.assess();
        assert_eq!(
            assessment.overall,
            ReadinessLevel::FullyAiReady,
            "{:#?}",
            assessment.deficiencies
        );
        assert_eq!(assessment.anonymized, Some(true));
        assert!(!run.shard_files.is_empty());

        // Encrypted blobs must not be parseable h5lite and must not leak
        // names.
        for name in &run.shard_files {
            let enc = sink.read_file(name).unwrap();
            assert!(
                H5File::from_bytes(&enc).is_err(),
                "{name} stored unencrypted!"
            );
            let text = String::from_utf8_lossy(&enc);
            assert!(!text.contains("patient-00"), "{name} leaks patient ids");
        }
    }

    /// The archetype with PHI puts its raw inputs on record like the
    /// others: one `ingest` record whose inputs name both raw blobs by
    /// content, and the ingest span counts both.
    #[test]
    fn run_ledgers_both_raw_inputs() {
        use drai_io::json::Json;
        use drai_telemetry::{Registry, TraceContext};
        let registry = Registry::new();
        let sink = Arc::new(MemSink::new());
        let run = {
            let _scope = TraceContext::root(&registry).attach();
            run(&small_cfg(), sink.clone()).unwrap()
        };
        let raw = ["raw/ehr.csv", "raw/sequences.fasta"].map(|name| sink.read_file(name).unwrap());

        let jsonl = run.ledger.to_jsonl();
        let records = jsonl.lines().map(|line| Json::parse(line).unwrap());
        let ingests: Vec<Json> = records
            .filter(|r| r.get("operation").and_then(Json::as_str) == Some("ingest"))
            .collect();
        assert_eq!(ingests.len(), 1);
        let inputs = ingests[0].get("inputs").and_then(Json::as_arr).unwrap();
        let ids: Vec<_> = inputs
            .iter()
            .map(|i| i.get("id").and_then(Json::as_str))
            .collect();
        let want: Vec<_> = raw.iter().map(|blob| ArtifactId::of(blob)).collect();
        assert_eq!(
            ids,
            want.iter().map(|id| Some(id.digest())).collect::<Vec<_>>()
        );

        let snapshot = registry.snapshot();
        let spans = snapshot.spans_named("domain.bio.ingest");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].items, 2);
        assert_eq!(spans[0].bytes, (raw[0].len() + raw[1].len()) as u64);
    }

    /// `secure-shard`'s time is split per stored blob into three spans
    /// under the stage's: container build, cipher, store.
    #[test]
    fn secure_shard_time_splits_into_build_cipher_and_store() {
        use drai_telemetry::{Registry, TraceContext};
        let registry = Registry::new();
        let sink = Arc::new(MemSink::new());
        let run = {
            let _scope = TraceContext::root(&registry).attach();
            run(&small_cfg(), sink.clone()).unwrap()
        };
        let blobs = run.shard_files.len();
        assert!(blobs >= 2, "{:?}", run.shard_files);
        let snapshot = registry.snapshot();
        let stage = snapshot.spans_named("pipeline.bio.secure-shard");
        assert_eq!(stage.len(), 1);
        let mut parts = 0;
        for part in ["build", "cipher", "store"] {
            let spans = snapshot.spans_named(&format!("domain.bio.secure_shard.{part}"));
            assert_eq!(spans.len(), blobs, "{part}");
            for span in spans {
                assert_eq!(span.parent, Some(stage[0].id), "{part}");
                parts += span.dur_ns;
            }
        }
        assert!(parts <= stage[0].dur_ns);
    }

    /// Records of `fused` that land in the train split — what a
    /// consumer needs to rebuild the train blob's nonce.
    fn train_count(cfg: &BioConfig, data: &BioData) -> usize {
        data.fused
            .iter()
            .filter(|(p, _, _)| assign(p, cfg.seed, cfg.fractions).unwrap() == Split::Train)
            .count()
    }

    #[test]
    fn secure_shard_round_trip() {
        let cfg = small_cfg();
        let sink = Arc::new(MemSink::new());
        generate_raw(&cfg, sink.as_ref()).unwrap();
        let input = ingest(sink.as_ref(), &mut |_, _| {}).unwrap();
        let pipeline = build_pipeline(&cfg, sink.clone(), Arc::new(Ledger::new()));
        let out = pipeline.run(input).unwrap();

        let train_count = train_count(&cfg, &out.output);
        let f = open_secure_shard(&cfg, sink.as_ref(), "bio", Split::Train, train_count).unwrap();
        let patients = f.children("/patients");
        assert_eq!(patients.len(), train_count);
        // Each patient has labs + onehot of the right shapes.
        let first = patients[0];
        let labs: Tensor<f32> = f.tensor(&format!("{first}/labs")).unwrap();
        assert_eq!(labs.shape(), &[LAB_COLUMNS.len()]);
        let onehot: Tensor<f32> = f.tensor(&format!("{first}/onehot")).unwrap();
        assert_eq!(onehot.shape(), &[64, 4]);
        // Wrong secret fails to decrypt to valid h5lite.
        let wrong = BioConfig {
            secret: "wrong".into(),
            ..cfg.clone()
        };
        assert!(
            open_secure_shard(&wrong, sink.as_ref(), "bio", Split::Train, train_count).is_err()
        );
    }

    /// Two members of one batch are two datasets under one secret. The
    /// pseudonyms — and so the split counts and the nonces — are the
    /// same in both, so the keys must differ or the two train blobs
    /// would share a keystream.
    #[test]
    fn batch_members_are_encrypted_under_their_own_keys() {
        let cfg = small_cfg();
        let sink = Arc::new(MemSink::new());
        let ledger = Arc::new(Ledger::new());
        let pipeline = build_batch_pipeline(&cfg, sink.clone(), ledger.clone());
        let mut counts = Vec::new();
        for m in 0..2 {
            let out = pipeline
                .run(Member(m, member_input(&cfg, m).unwrap()))
                .unwrap();
            counts.push(train_count(&cfg, &out.output.1));
        }
        assert_eq!(counts[0], counts[1], "equal train counts, equal nonces");

        let key_id = |prefix: &str| {
            let blob = sink
                .read_file(&format!("{prefix}/train.h5lite.enc"))
                .unwrap();
            let shard = ledger.producer(&ArtifactId::of(&blob)).expect("ledgered");
            shard.params["key_id"].clone()
        };
        assert_ne!(key_id("bio/m0"), key_id("bio/m1"));

        let open = |member: usize, prefix: &str| {
            let f = open_secure_shard(&cfg, sink.as_ref(), prefix, Split::Train, counts[member]);
            f.map(|f| f.children("/patients").len())
        };
        assert_eq!(open(0, "bio/m0").unwrap(), counts[0]);
        assert_eq!(open(1, "bio/m1").unwrap(), counts[1]);
        // Neither blob opens under the other member's key.
        let swap = |from: &str, to: &str| {
            let blob = sink.read_file(&format!("{from}/train.h5lite.enc")).unwrap();
            sink.write_file(&format!("{to}/train.h5lite.enc"), &blob)
                .unwrap();
        };
        swap("bio/m0", "bio/m1");
        assert!(open(1, "bio/m1").is_err(), "m0's blob under m1's key");
    }

    #[test]
    fn patient_without_a_fasta_record_is_an_error() {
        let cfg = small_cfg();
        let sink = MemSink::new();
        generate_raw(&cfg, &sink).unwrap();
        let fasta =
            String::from_utf8(sink.read_file("raw/sequences.fasta").unwrap().to_vec()).unwrap();
        let cut = fasta.find(">patient-0007").unwrap();
        let next = fasta.find(">patient-0008").unwrap();
        let without = format!("{}{}", &fasta[..cut], &fasta[next..]);
        sink.write_file("raw/sequences.fasta", without.as_bytes())
            .unwrap();
        match ingest(&sink, &mut |_, _| {}) {
            Err(DomainError::Config(msg)) => assert!(msg.contains("patient-0007"), "{msg}"),
            other => panic!(
                "expected a config error, got {:?}",
                other.map(|d| d.patients.len())
            ),
        }
    }

    #[test]
    fn anonymization_removes_identifiers_and_enforces_k() {
        let cfg = small_cfg();
        let sink = Arc::new(MemSink::new());
        generate_raw(&cfg, sink.as_ref()).unwrap();
        let input = ingest(sink.as_ref(), &mut |_, _| {}).unwrap();
        let pipeline = build_pipeline(&cfg, sink, Arc::new(Ledger::new()));
        let out = pipeline.run(input).unwrap();
        let patients = &out.output.patients;
        for p in patients {
            assert!(p.patient_id.is_empty(), "direct id survived");
            assert_eq!(p.pseudonym.len(), 32);
            assert!(
                p.age_band.contains('-') || p.age_band == "90+" || p.age_band == "*",
                "age band {:?}",
                p.age_band
            );
            assert!(p.zip3.ends_with("**") || p.zip3 == "*");
        }
        // Surviving quasi-identifiers satisfy k.
        let quasi: Vec<Vec<String>> = patients
            .iter()
            .filter(|p| p.age_band != "*")
            .map(|p| vec![p.age_band.clone(), p.zip3.clone()])
            .collect();
        let report = k_anonymity(&quasi, cfg.k).unwrap();
        assert!(report.satisfies(cfg.k), "{report:?}");
        // Labs imputed and normalized: no NaN.
        assert!(out
            .output
            .fused
            .iter()
            .all(|(_, labs, _)| labs.as_slice().iter().all(|v| v.is_finite())));
    }

    /// The k on record is the smallest class the suppression left: the
    /// suppressed rows are exempt from it, unless they are every row.
    #[test]
    fn suppressed_rows_are_exempt_from_the_k_reached() {
        for (seed, k, suppressed, k_reached, anonymized) in [
            (0, 2, "1", "2", true),
            (1, 5, "12", "6", true),
            // Every row suppressed: one class of 24.
            (0, 5, "24", "24", true),
            // 24 patients cannot be 30-anonymous.
            (0, 30, "24", "24", false),
        ] {
            let cfg = BioConfig {
                k,
                seed,
                ..small_cfg()
            };
            let run = run(&cfg, Arc::new(MemSink::new())).unwrap();
            let records = run.ledger.transformations();
            let anonymize = records.into_iter().find(|t| t.operation == "anonymize");
            let params = anonymize.unwrap().params;
            let case = format!("seed {seed}, k {k}");
            assert_eq!(params["suppressed"], suppressed, "{case}");
            assert_eq!(params[key::K_REACHED], k_reached, "{case}");
            let a = run.assess();
            assert_eq!(a.anonymized, Some(anonymized), "{case}");
            if anonymized {
                assert_eq!(a.overall, ReadinessLevel::FullyAiReady, "{case}");
            } else {
                assert_eq!(a.overall, ReadinessLevel::Cleaned, "{case}");
                let d = a.blocking().unwrap();
                let cell = (d.blocked_level, d.stage);
                assert_eq!(cell, (ReadinessLevel::Labeled, S::Transform), "{case}");
            }
        }
    }

    /// A patient whose every lab value was imputed carries no measured
    /// target: it is written, not labeled.
    #[test]
    fn patients_with_every_lab_imputed_are_unlabeled() {
        let cfg = BioConfig {
            missing_fraction: 0.6,
            ..small_cfg()
        };
        let sink = Arc::new(MemSink::new());
        let run = run(&cfg, sink.clone()).unwrap();
        let raw = ingest(sink.as_ref(), &mut |_, _| {}).unwrap();
        let imputed = (raw.patients.iter())
            .filter(|p| p.labs.iter().all(|v| v.is_nan()))
            .count();
        assert!(imputed > 0);
        let a = run.assess();
        let labels = a.label_coverage.unwrap();
        assert_eq!((labels.count, labels.total), (24 - imputed as u64, 24));
        let d = a.blocking().unwrap();
        let cell = (d.blocked_level, d.stage);
        assert_eq!(cell, (ReadinessLevel::FeatureEngineered, S::Transform));
    }

    #[test]
    fn interval_preservation_across_patients() {
        // Same patient's dates shift by one constant; check via two visits
        // encoded as separate runs of the shift helper.
        let salt = "s::anon";
        let shift = date_shift_days(salt, "patient-0001", 180);
        let mut days = [100i64, 160, 400];
        shift_dates(&mut days, shift);
        assert_eq!(days[1] - days[0], 60);
        assert_eq!(days[2] - days[1], 240);
    }
}
