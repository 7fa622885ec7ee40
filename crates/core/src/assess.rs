//! The readiness assessor: derives a dataset's position in the maturity
//! matrix from manifest evidence.
//!
//! Assessment is per-stage: each processing stage earns the highest level
//! whose Table 2 criteria the evidence satisfies, and the dataset's
//! overall level is the minimum across stages *applicable at the next
//! level* — readiness is gated by the weakest stage, mirroring how the
//! paper describes datasets "bottlenecked by domain-specific constraints".

use crate::dataset::DatasetManifest;
use crate::readiness::{MaturityMatrix, ProcessingStage, ReadinessLevel};

/// Why a stage failed to reach the next level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deficiency {
    /// The stage that is holding the dataset back.
    pub stage: ProcessingStage,
    /// The level that could not be reached.
    pub blocked_level: ReadinessLevel,
    /// Human-readable reason.
    pub reason: String,
}

/// Result of assessing a manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct Assessment {
    /// Overall readiness level (minimum over stage gates).
    pub overall: ReadinessLevel,
    /// Level achieved per stage (for stages applicable at `overall`'s
    /// successor; stages beyond the overall level report their own gate).
    pub per_stage: Vec<(ProcessingStage, ReadinessLevel)>,
    /// What blocks promotion to the next level (empty at level 5).
    pub deficiencies: Vec<Deficiency>,
}

impl Assessment {
    /// The first deficiency blocking promotion, if any.
    pub fn blocking(&self) -> Option<&Deficiency> {
        self.deficiencies.first()
    }
}

/// Derives readiness levels from manifests.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReadinessAssessor {
    /// Label coverage required for "comprehensive labeling" (level 4).
    /// Defaults to 0.95.
    pub comprehensive_label_coverage: f64,
    /// Maximum missing fraction tolerated at level ≥ 3. Defaults to 0.05.
    pub max_missing_fraction: f64,
}

impl ReadinessAssessor {
    /// Assessor with the default thresholds.
    pub fn new() -> ReadinessAssessor {
        ReadinessAssessor {
            comprehensive_label_coverage: 0.95,
            max_missing_fraction: 0.05,
        }
    }

    /// Does `manifest` satisfy the criteria of `(level, stage)`?
    ///
    /// N/A cells are vacuously satisfied (a raw dataset is not penalized
    /// for having no shard story — that cell is grey in Table 2).
    pub(crate) fn satisfies(
        &self,
        m: &DatasetManifest,
        level: ReadinessLevel,
        stage: ProcessingStage,
    ) -> Result<(), String> {
        use ProcessingStage as S;
        use ReadinessLevel as L;
        if !MaturityMatrix::applicable(level, stage) {
            return Ok(());
        }
        let need = |ok: bool, what: &str| {
            if ok {
                Ok(())
            } else {
                Err(what.to_string())
            }
        };
        match (level, stage) {
            (L::Raw, S::Ingest) => need(m.records > 0, "no records acquired"),

            (L::Cleaned, S::Ingest) => need(
                m.standard_format && m.ingest_validated,
                "not validated into a standard format",
            ),
            (L::Cleaned, S::Preprocess) => {
                need(m.aligned_initial, "no initial alignment/regridding")
            }

            (L::Labeled, S::Ingest) => need(
                m.metadata_enriched && !m.schema.is_empty(),
                "metadata/schema not enriched",
            ),
            (L::Labeled, S::Preprocess) => {
                need(m.aligned_standardized, "alignment not standardized")?;
                need(
                    m.missing_fraction <= self.max_missing_fraction,
                    "too many missing values after preprocessing",
                )
            }
            (L::Labeled, S::Transform) => {
                need(m.normalized_initial, "no initial normalization")?;
                if m.requires_anonymization {
                    need(m.anonymized, "PHI/PII present but not anonymized")?;
                }
                need(m.label_coverage > 0.0, "no labels at all")
            }

            (L::FeatureEngineered, S::Ingest) => need(
                m.high_throughput_ingest,
                "ingestion not high-throughput/parallel",
            ),
            (L::FeatureEngineered, S::Preprocess) => {
                need(m.aligned_standardized, "alignment not fully standardized")
            }
            (L::FeatureEngineered, S::Transform) => {
                need(m.normalized_final, "normalization not finalized")?;
                need(
                    m.label_coverage >= self.comprehensive_label_coverage,
                    "labeling not comprehensive",
                )
            }
            (L::FeatureEngineered, S::Structure) => {
                need(m.features_extracted, "domain features not extracted")
            }

            (L::FullyAiReady, S::Ingest) => need(m.ingest_automated, "ingestion not automated"),
            (L::FullyAiReady, S::Preprocess) => {
                need(m.alignment_automated, "alignment not integrated/automated")
            }
            (L::FullyAiReady, S::Transform) => {
                need(m.transform_audited, "transform not automated and audited")
            }
            (L::FullyAiReady, S::Structure) => {
                need(m.features_validated, "feature extraction not validated")
            }
            (L::FullyAiReady, S::Shard) => {
                need(m.split_assigned, "train/val/test split not assigned")?;
                need(m.sharded, "not sharded into binary formats")
            }
            // Every remaining (level, stage) pair is an N/A cell, already
            // returned Ok above via the applicability check.
            _ => Ok(()),
        }
    }

    /// Highest level every applicable stage criterion satisfies.
    pub fn assess(&self, m: &DatasetManifest) -> Result<Assessment, crate::CoreError> {
        m.validate()?;
        let mut overall = ReadinessLevel::Raw;
        let mut deficiencies = Vec::new();

        // Walk levels upward; stop at the first level with any deficiency.
        'levels: for level in ReadinessLevel::ALL {
            let mut level_deficiencies = Vec::new();
            for stage in ProcessingStage::ALL {
                if let Err(reason) = self.satisfies(m, level, stage) {
                    level_deficiencies.push(Deficiency {
                        stage,
                        blocked_level: level,
                        reason,
                    });
                }
            }
            if level_deficiencies.is_empty() {
                overall = level;
            } else {
                deficiencies = level_deficiencies;
                break 'levels;
            }
        }

        // Per-stage achieved levels (independent walk per stage).
        let per_stage = ProcessingStage::ALL
            .iter()
            .map(|&stage| {
                let mut achieved = ReadinessLevel::Raw;
                for level in ReadinessLevel::ALL {
                    if self.satisfies(m, level, stage).is_ok() {
                        achieved = level;
                    } else {
                        break;
                    }
                }
                (stage, achieved)
            })
            .collect();

        Ok(Assessment {
            overall,
            per_stage,
            deficiencies,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Modality, VariableSpec};
    use drai_tensor::DType;

    fn manifest_at_level(n: u8) -> DatasetManifest {
        let mut m = DatasetManifest::raw("test", "climate", Modality::Grid, 100);
        if n >= 2 {
            m.standard_format = true;
            m.ingest_validated = true;
            m.aligned_initial = true;
        }
        if n >= 3 {
            m.metadata_enriched = true;
            m.schema.push(VariableSpec {
                name: "tas".into(),
                dtype: DType::F32,
                unit: "K".into(),
                shape: vec![64, 128],
            });
            m.aligned_standardized = true;
            m.normalized_initial = true;
            m.label_coverage = 0.3;
        }
        if n >= 4 {
            m.high_throughput_ingest = true;
            m.normalized_final = true;
            m.label_coverage = 1.0;
            m.features_extracted = true;
        }
        if n >= 5 {
            m.ingest_automated = true;
            m.alignment_automated = true;
            m.transform_audited = true;
            m.features_validated = true;
            m.split_assigned = true;
            m.sharded = true;
        }
        m
    }

    #[test]
    fn ladder_levels_assess_correctly() {
        let assessor = ReadinessAssessor::new();
        for n in 1..=5u8 {
            let m = manifest_at_level(n);
            let a = assessor.assess(&m).unwrap();
            assert_eq!(
                a.overall,
                ReadinessLevel::from_number(n).unwrap(),
                "manifest staged for level {n} assessed as {}",
                a.overall
            );
        }
    }

    #[test]
    fn fully_ready_has_no_deficiencies() {
        let a = ReadinessAssessor::new()
            .assess(&manifest_at_level(5))
            .unwrap();
        assert!(a.deficiencies.is_empty());
        assert!(a.blocking().is_none());
        for (_, l) in &a.per_stage {
            assert_eq!(*l, ReadinessLevel::FullyAiReady);
        }
    }

    #[test]
    fn raw_dataset_blocked_at_cleaned() {
        let a = ReadinessAssessor::new()
            .assess(&manifest_at_level(1))
            .unwrap();
        assert_eq!(a.overall, ReadinessLevel::Raw);
        let b = a.blocking().unwrap();
        assert_eq!(b.blocked_level, ReadinessLevel::Cleaned);
    }

    #[test]
    fn weakest_stage_gates_overall() {
        // Everything at level 5 except sharding.
        let mut m = manifest_at_level(5);
        m.sharded = false;
        let a = ReadinessAssessor::new().assess(&m).unwrap();
        assert_eq!(a.overall, ReadinessLevel::FeatureEngineered);
        let d = a.blocking().unwrap();
        assert_eq!(d.stage, ProcessingStage::Shard);
        assert!(d.reason.contains("sharded"));
        // Other stages still report level 5 individually.
        let ingest = a
            .per_stage
            .iter()
            .find(|(s, _)| *s == ProcessingStage::Ingest)
            .unwrap();
        assert_eq!(ingest.1, ReadinessLevel::FullyAiReady);
    }

    #[test]
    fn anonymization_required_for_phi_data() {
        let mut m = manifest_at_level(3);
        m.domain = "bio".into();
        m.requires_anonymization = true;
        m.anonymized = false;
        let a = ReadinessAssessor::new().assess(&m).unwrap();
        assert_eq!(a.overall, ReadinessLevel::Cleaned);
        assert!(a
            .deficiencies
            .iter()
            .any(|d| d.reason.contains("anonymized")));
        m.anonymized = true;
        let a2 = ReadinessAssessor::new().assess(&m).unwrap();
        assert_eq!(a2.overall, ReadinessLevel::Labeled);
    }

    #[test]
    fn missing_values_block_level3() {
        let mut m = manifest_at_level(3);
        m.missing_fraction = 0.5;
        let a = ReadinessAssessor::new().assess(&m).unwrap();
        assert_eq!(a.overall, ReadinessLevel::Cleaned);
        assert!(a.deficiencies.iter().any(|d| d.reason.contains("missing")));
    }

    #[test]
    fn label_coverage_thresholds() {
        let assessor = ReadinessAssessor::new();
        let mut m = manifest_at_level(4);
        m.label_coverage = 0.5; // below comprehensive threshold
        let a = assessor.assess(&m).unwrap();
        assert_eq!(a.overall, ReadinessLevel::Labeled);
        m.label_coverage = 0.96;
        assert_eq!(
            assessor.assess(&m).unwrap().overall,
            ReadinessLevel::FeatureEngineered
        );
    }

    #[test]
    fn custom_thresholds() {
        let strict = ReadinessAssessor {
            comprehensive_label_coverage: 1.0,
            max_missing_fraction: 0.0,
        };
        let mut m = manifest_at_level(4);
        m.label_coverage = 0.99;
        assert_eq!(strict.assess(&m).unwrap().overall, ReadinessLevel::Labeled);
    }

    #[test]
    fn empty_dataset_not_even_raw_acquisition() {
        let m = DatasetManifest::raw("empty", "climate", Modality::Grid, 0);
        let a = ReadinessAssessor::new().assess(&m).unwrap();
        // Level 1's Ingest cell requires records > 0, so the walk stops
        // immediately; overall stays at the floor.
        assert_eq!(a.overall, ReadinessLevel::Raw);
        assert!(a
            .deficiencies
            .iter()
            .any(|d| d.blocked_level == ReadinessLevel::Raw));
    }

    #[test]
    fn invalid_manifest_rejected() {
        let mut m = manifest_at_level(3);
        m.label_coverage = 2.0;
        assert!(ReadinessAssessor::new().assess(&m).is_err());
    }
}
