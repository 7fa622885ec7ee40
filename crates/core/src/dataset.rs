//! Dataset manifests: the evidence a dataset carries about its own
//! preparation.
//!
//! The assessor (see [`crate::assess`]) never trusts a declared readiness
//! level; it derives one from the manifest's recorded evidence. Pipelines
//! update the manifest as stages complete, and provenance records the
//! transitions.

use crate::readiness::ProcessingStage;
use drai_io::json::Json;
use drai_tensor::DType;

/// Data modality (Table 1's "Modality" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modality {
    /// Spatial/temporal grids (climate fields).
    Grid,
    /// Multichannel time series (fusion diagnostics).
    TimeSeries,
    /// Symbol sequences (DNA, protein).
    Sequence,
    /// Rows and columns (EHR).
    Tabular,
    /// Node/edge structures (materials).
    Graph,
    /// Dense images.
    Image,
}

impl Modality {
    /// Stable name for manifests.
    pub const fn name(self) -> &'static str {
        match self {
            Modality::Grid => "grid",
            Modality::TimeSeries => "time-series",
            Modality::Sequence => "sequence",
            Modality::Tabular => "tabular",
            Modality::Graph => "graph",
            Modality::Image => "image",
        }
    }

    /// Parse a manifest name.
    pub fn from_name(s: &str) -> Option<Modality> {
        Some(match s {
            "grid" => Modality::Grid,
            "time-series" => Modality::TimeSeries,
            "sequence" => Modality::Sequence,
            "tabular" => Modality::Tabular,
            "graph" => Modality::Graph,
            "image" => Modality::Image,
            _ => return None,
        })
    }
}

/// One variable/channel/column in the dataset schema.
#[derive(Debug, Clone, PartialEq)]
pub struct VariableSpec {
    /// Variable name.
    pub name: String,
    /// Storage dtype.
    pub dtype: DType,
    /// Physical unit symbol ("K", "A", "1"); empty when unknown — a
    /// readiness deficiency the assessor notices.
    pub unit: String,
    /// Per-sample shape (empty = scalar).
    pub shape: Vec<usize>,
}

impl VariableSpec {
    /// A schema entry.
    pub fn new(name: &str, dtype: DType, unit: &str, shape: &[usize]) -> VariableSpec {
        VariableSpec {
            name: name.to_string(),
            dtype,
            unit: unit.to_string(),
            shape: shape.to_vec(),
        }
    }
}

/// Evidence of what preparation a dataset has undergone.
///
/// Boolean fields are *claims backed by pipeline execution* — the domain
/// pipelines set them as stages complete, and integration tests verify a
/// fresh synthetic dataset walks levels 1→5 as the flags accumulate.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetManifest {
    /// Dataset name.
    pub name: String,
    /// Scientific domain ("climate", "fusion", "bio", "materials", ...).
    pub domain: String,
    /// Primary modality.
    pub modality: Modality,
    /// Variables (empty until a schema is established).
    pub schema: Vec<VariableSpec>,
    /// Total sample/record count.
    pub records: u64,

    // --- Ingest evidence ---
    /// Data is held in a standard, self-describing format.
    pub standard_format: bool,
    /// Ingestion validated (checksums verified, schema checked).
    pub ingest_validated: bool,
    /// Metadata enriched (units, schema, descriptions present).
    pub metadata_enriched: bool,
    /// Ingestion path is parallel/high-throughput.
    pub high_throughput_ingest: bool,
    /// Ingestion runs without manual steps.
    pub ingest_automated: bool,

    // --- Preprocess evidence ---
    /// Initial spatial/temporal alignment or regridding done.
    pub aligned_initial: bool,
    /// Alignment standardized (common grid/clock across sources).
    pub aligned_standardized: bool,
    /// Alignment integrated and automated.
    pub alignment_automated: bool,

    // --- Transform evidence ---
    /// Initial normalization (or anonymization where required) applied.
    pub normalized_initial: bool,
    /// Normalization/anonymization finalized (fitted stats recorded).
    pub normalized_final: bool,
    /// Transform stage automated and audited (provenance captured).
    pub transform_audited: bool,
    /// Dataset contains PHI/PII and therefore requires anonymization.
    pub requires_anonymization: bool,
    /// Anonymization applied and verified (k-anonymity / scan clean).
    pub anonymized: bool,
    /// Fraction of samples with labels, 0..=1.
    pub label_coverage: f64,

    // --- Structure evidence ---
    /// Domain-specific features extracted.
    pub features_extracted: bool,
    /// Feature extraction automated and validated against invariants.
    pub features_validated: bool,

    // --- Shard evidence ---
    /// Train/val/test split assigned.
    pub split_assigned: bool,
    /// Sharded into binary formats with a manifest.
    pub sharded: bool,

    // --- Quality ---
    /// Fraction of missing values after preprocessing, 0..=1.
    pub missing_fraction: f64,
}

impl DatasetManifest {
    /// A new, entirely raw dataset (level 1 evidence only).
    pub fn raw(name: &str, domain: &str, modality: Modality, records: u64) -> DatasetManifest {
        DatasetManifest {
            name: name.to_string(),
            domain: domain.to_string(),
            modality,
            schema: Vec::new(),
            records,
            standard_format: false,
            ingest_validated: false,
            metadata_enriched: false,
            high_throughput_ingest: false,
            ingest_automated: false,
            aligned_initial: false,
            aligned_standardized: false,
            alignment_automated: false,
            normalized_initial: false,
            normalized_final: false,
            transform_audited: false,
            requires_anonymization: false,
            anonymized: false,
            label_coverage: 0.0,
            features_extracted: false,
            features_validated: false,
            split_assigned: false,
            sharded: false,
            missing_fraction: 0.0,
        }
    }

    /// Validate internal consistency (fractions in range, implications
    /// like `normalized_final → normalized_initial` hold).
    pub fn validate(&self) -> Result<(), crate::CoreError> {
        let frac_ok = |f: f64| (0.0..=1.0).contains(&f);
        if !frac_ok(self.label_coverage) {
            return Err(crate::CoreError::InvalidManifest(format!(
                "label_coverage {}",
                self.label_coverage
            )));
        }
        if !frac_ok(self.missing_fraction) {
            return Err(crate::CoreError::InvalidManifest(format!(
                "missing_fraction {}",
                self.missing_fraction
            )));
        }
        let implications = [
            (
                self.normalized_final,
                self.normalized_initial,
                "normalized_final → normalized_initial",
            ),
            (
                self.aligned_standardized,
                self.aligned_initial,
                "aligned_standardized → aligned_initial",
            ),
            (
                self.alignment_automated,
                self.aligned_standardized,
                "alignment_automated → aligned_standardized",
            ),
            (
                self.features_validated,
                self.features_extracted,
                "features_validated → features_extracted",
            ),
            (
                self.ingest_automated,
                self.high_throughput_ingest,
                "ingest_automated → high_throughput_ingest",
            ),
            (
                self.transform_audited,
                self.normalized_final,
                "transform_audited → normalized_final",
            ),
        ];
        for (a, b, what) in implications {
            if a && !b {
                return Err(crate::CoreError::InvalidManifest(format!(
                    "inconsistent evidence: {what}"
                )));
            }
        }
        Ok(())
    }

    /// Which stages have *any* recorded evidence — used by reports.
    pub fn touched_stages(&self) -> Vec<ProcessingStage> {
        let mut out = vec![ProcessingStage::Ingest];
        if self.aligned_initial {
            out.push(ProcessingStage::Preprocess);
        }
        if self.normalized_initial || self.anonymized || self.label_coverage > 0.0 {
            out.push(ProcessingStage::Transform);
        }
        if self.features_extracted {
            out.push(ProcessingStage::Structure);
        }
        if self.split_assigned || self.sharded {
            out.push(ProcessingStage::Shard);
        }
        out
    }

    /// Serialize to JSON (for sidecar files and provenance).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.clone())),
            ("domain", Json::from(self.domain.clone())),
            ("modality", Json::from(self.modality.name())),
            ("records", Json::from(self.records)),
            (
                "schema",
                Json::Arr(
                    self.schema
                        .iter()
                        .map(|v| {
                            Json::obj([
                                ("name", Json::from(v.name.clone())),
                                ("dtype", Json::from(v.dtype.to_string())),
                                ("unit", Json::from(v.unit.clone())),
                                (
                                    "shape",
                                    Json::Arr(v.shape.iter().map(|&d| Json::from(d)).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "evidence",
                Json::obj([
                    ("standard_format", Json::from(self.standard_format)),
                    ("ingest_validated", Json::from(self.ingest_validated)),
                    ("metadata_enriched", Json::from(self.metadata_enriched)),
                    (
                        "high_throughput_ingest",
                        Json::from(self.high_throughput_ingest),
                    ),
                    ("ingest_automated", Json::from(self.ingest_automated)),
                    ("aligned_initial", Json::from(self.aligned_initial)),
                    (
                        "aligned_standardized",
                        Json::from(self.aligned_standardized),
                    ),
                    ("alignment_automated", Json::from(self.alignment_automated)),
                    ("normalized_initial", Json::from(self.normalized_initial)),
                    ("normalized_final", Json::from(self.normalized_final)),
                    ("transform_audited", Json::from(self.transform_audited)),
                    (
                        "requires_anonymization",
                        Json::from(self.requires_anonymization),
                    ),
                    ("anonymized", Json::from(self.anonymized)),
                    ("label_coverage", Json::from(self.label_coverage)),
                    ("features_extracted", Json::from(self.features_extracted)),
                    ("features_validated", Json::from(self.features_validated)),
                    ("split_assigned", Json::from(self.split_assigned)),
                    ("sharded", Json::from(self.sharded)),
                    ("missing_fraction", Json::from(self.missing_fraction)),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_manifest_is_valid_and_minimal() {
        let m = DatasetManifest::raw("cmip-synth", "climate", Modality::Grid, 1000);
        m.validate().unwrap();
        assert_eq!(m.touched_stages(), vec![ProcessingStage::Ingest]);
        assert_eq!(m.records, 1000);
    }

    #[test]
    fn modality_name_round_trip() {
        for m in [
            Modality::Grid,
            Modality::TimeSeries,
            Modality::Sequence,
            Modality::Tabular,
            Modality::Graph,
            Modality::Image,
        ] {
            assert_eq!(Modality::from_name(m.name()), Some(m));
        }
        assert_eq!(Modality::from_name("hologram"), None);
    }

    #[test]
    fn implication_violations_detected() {
        let mut m = DatasetManifest::raw("x", "fusion", Modality::TimeSeries, 10);
        m.normalized_final = true; // without normalized_initial
        assert!(m.validate().is_err());
        m.normalized_initial = true;
        m.validate().unwrap();

        let mut m2 = DatasetManifest::raw("x", "fusion", Modality::TimeSeries, 10);
        m2.alignment_automated = true;
        assert!(m2.validate().is_err());

        let mut m3 = DatasetManifest::raw("x", "bio", Modality::Tabular, 10);
        m3.label_coverage = 1.5;
        assert!(m3.validate().is_err());
        m3.label_coverage = 0.5;
        m3.missing_fraction = -0.1;
        assert!(m3.validate().is_err());
    }

    #[test]
    fn touched_stages_accumulate() {
        let mut m = DatasetManifest::raw("x", "climate", Modality::Grid, 10);
        m.aligned_initial = true;
        m.normalized_initial = true;
        m.features_extracted = true;
        m.sharded = true;
        assert_eq!(m.touched_stages().len(), 5);
    }

    #[test]
    fn json_contains_evidence() {
        let mut m = DatasetManifest::raw("x", "bio", Modality::Sequence, 5);
        m.schema.push(VariableSpec {
            name: "onehot".into(),
            dtype: DType::F32,
            unit: "1".into(),
            shape: vec![196_608, 4],
        });
        m.anonymized = true;
        let j = m.to_json();
        assert_eq!(j.get("name").unwrap().as_str(), Some("x"));
        assert_eq!(
            j.get("evidence")
                .unwrap()
                .get("anonymized")
                .unwrap()
                .as_bool(),
            Some(true)
        );
        let schema = j.get("schema").unwrap().as_arr().unwrap();
        assert_eq!(schema[0].get("dtype").unwrap().as_str(), Some("f32"));
        // Round-trip through text parses cleanly.
        let text = j.to_string_compact();
        assert!(Json::parse(&text).is_ok());
    }
}
