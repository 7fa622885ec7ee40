//! Dataset cards — the paper's §5 "Data Quality, Bias, and Fairness"
//! remedy ("Datasheets for Datasets or Data Cards can help identify
//! potential biases"), generated from a manifest + the quality reports a
//! stage measured + the assessment of the run's ledger.

use crate::assess::Assessment;
use crate::dataset::DatasetManifest;
use crate::quality::QualityReport;
use drai_io::json::Json;

/// A generated dataset card.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetCard {
    /// Manifest snapshot.
    pub manifest: DatasetManifest,
    /// Overall + per-stage readiness at generation time.
    pub assessment: Assessment,
    /// Per-variable quality reports a stage measured.
    pub quality: Vec<QualityReport>,
}

impl DatasetCard {
    /// Assemble a card.
    pub fn new(
        manifest: DatasetManifest,
        assessment: Assessment,
        quality: Vec<QualityReport>,
    ) -> DatasetCard {
        DatasetCard {
            manifest,
            assessment,
            quality,
        }
    }

    /// Bias warnings derived from the quality reports (imbalance,
    /// missingness, outlier contamination) and from the assessment
    /// (anonymization, label coverage).
    pub fn warnings(&self) -> Vec<String> {
        let mut out = Vec::new();
        for q in &self.quality {
            if q.imbalance_ratio > 3.0 {
                out.push(format!(
                    "{}: distribution imbalance ratio {:.1} — consider reweighting/resampling",
                    q.name, q.imbalance_ratio
                ));
            }
            if q.missing_fraction > 0.05 {
                out.push(format!(
                    "{}: {:.1}% missing — imputation strategy should be documented",
                    q.name,
                    q.missing_fraction * 100.0
                ));
            }
            if q.outlier_fraction > 0.01 {
                out.push(format!(
                    "{}: {:.2}% gross outliers (|z| > 5) — check sensor glitches",
                    q.name,
                    q.outlier_fraction * 100.0
                ));
            }
        }
        if self.assessment.anonymized == Some(false) {
            out.push("dataset contains PHI/PII but is NOT anonymized — do not release".into());
        }
        match self.assessment.label_coverage {
            Some(labels) if labels.count < labels.total => out.push(format!(
                "label coverage {:.0}% ({labels} records) — consider pseudo-labeling for the remainder",
                labels.fraction() * 100.0
            )),
            None => out.push("no shard stage counted its labeled records".into()),
            Some(_) => {}
        }
        out
    }

    /// Render as Markdown (the human-facing datasheet).
    pub fn to_markdown(&self) -> String {
        let m = &self.manifest;
        let mut md = String::new();
        md.push_str(&format!("# Dataset card: {}\n\n", m.name));
        md.push_str(&format!(
            "- **Domain:** {}\n- **Modality:** {}\n- **Records:** {}\n- **Readiness:** {}\n\n",
            m.domain,
            m.modality.name(),
            m.records,
            self.assessment.overall
        ));
        md.push_str("## Schema\n\n| Variable | dtype | unit | shape |\n|---|---|---|---|\n");
        for v in &m.schema {
            md.push_str(&format!(
                "| {} | {} | {} | {:?} |\n",
                v.name, v.dtype, v.unit, v.shape
            ));
        }
        md.push_str("\n## Readiness per stage\n\n| Stage | Level |\n|---|---|\n");
        for (stage, level) in &self.assessment.per_stage {
            md.push_str(&format!("| {} | {} |\n", stage.label(), level));
        }
        if let Some(d) = self.assessment.blocking() {
            md.push_str(&format!(
                "\n**Blocked from {} by {}:** {}\n",
                d.blocked_level,
                d.stage.label(),
                d.reason
            ));
        }
        md.push_str("\n## Quality\n\n");
        if self.quality.is_empty() {
            md.push_str("No stage measured a quality report.\n");
        } else {
            md.push_str("| Variable | missing | mean | std | outliers | imbalance |\n|---|---|---|---|---|---|\n");
        }
        for q in &self.quality {
            md.push_str(&format!(
                "| {} | {:.2}% | {:.4} | {:.4} | {:.2}% | {:.2} |\n",
                q.name,
                q.missing_fraction * 100.0,
                q.mean,
                q.std,
                q.outlier_fraction * 100.0,
                q.imbalance_ratio
            ));
        }
        let warnings = self.warnings();
        if !warnings.is_empty() {
            md.push_str("\n## Warnings\n\n");
            for w in &warnings {
                md.push_str(&format!("- ⚠ {w}\n"));
            }
        }
        md
    }

    /// Render as JSON (the machine-facing card).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("manifest", self.manifest.to_json()),
            (
                "readiness",
                Json::obj([
                    ("overall", Json::from(self.assessment.overall.to_string())),
                    (
                        "per_stage",
                        Json::Arr(
                            self.assessment
                                .per_stage
                                .iter()
                                .map(|(s, l)| {
                                    Json::obj([
                                        ("stage", Json::from(s.label())),
                                        ("level", Json::from(l.number() as u64)),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ]),
            ),
            (
                "quality",
                Json::Arr(self.quality.iter().map(|q| q.to_json()).collect()),
            ),
            (
                "warnings",
                Json::Arr(self.warnings().into_iter().map(Json::from).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assess::{Deficiency, Ratio};
    use crate::dataset::{Modality, VariableSpec};
    use crate::readiness::{ProcessingStage as S, ReadinessLevel as L};

    fn assessment(label_coverage: Option<Ratio>, anonymized: Option<bool>) -> Assessment {
        Assessment {
            overall: L::Cleaned,
            per_stage: vec![(S::Ingest, L::FullyAiReady), (S::Transform, L::Cleaned)],
            evidence: Vec::new(),
            deficiencies: vec![Deficiency {
                stage: S::Transform,
                blocked_level: L::Labeled,
                reason: "no `normalize` record".into(),
            }],
            label_coverage,
            anonymized,
        }
    }

    fn sample_card() -> DatasetCard {
        let m = DatasetManifest {
            name: "card-test".into(),
            domain: "fusion".into(),
            modality: Modality::TimeSeries,
            schema: vec![VariableSpec::new(
                "ip",
                drai_tensor::DType::F32,
                "MA",
                &[64],
            )],
            records: 500,
        };
        let labels = Ratio {
            count: 300,
            total: 500,
        };
        let good = QualityReport::compute("ip", &(0..100).map(|i| i as f64).collect::<Vec<_>>());
        let mut skewed_vals = vec![0.5; 950];
        skewed_vals.extend((0..50).map(|i| i as f64));
        skewed_vals.push(f64::NAN);
        let skewed = QualityReport::compute("vloop", &skewed_vals);
        DatasetCard::new(m, assessment(Some(labels), None), vec![good, skewed])
    }

    #[test]
    fn warnings_catch_imbalance_and_labels() {
        let card = sample_card();
        let warnings = card.warnings();
        assert!(
            warnings.iter().any(|w| w.contains("imbalance")),
            "{warnings:?}"
        );
        assert!(
            warnings
                .iter()
                .any(|w| w.contains("label coverage 60% (300 of 500")),
            "{warnings:?}"
        );
        let mut unlabeled = sample_card();
        unlabeled.assessment.label_coverage = None;
        assert!(unlabeled
            .warnings()
            .iter()
            .any(|w| w.contains("labeled records")));
    }

    #[test]
    fn phi_warning_when_not_anonymized() {
        let mut card = sample_card();
        card.assessment.anonymized = Some(false);
        assert!(card.warnings().iter().any(|w| w.contains("NOT anonymized")));
        card.assessment.anonymized = Some(true);
        assert!(!card.warnings().iter().any(|w| w.contains("NOT anonymized")));
    }

    #[test]
    fn markdown_contains_sections() {
        let md = sample_card().to_markdown();
        assert!(md.contains("# Dataset card: card-test"));
        assert!(md.contains("## Schema"));
        assert!(md.contains("| ip | f32 | MA |"));
        assert!(md.contains("## Readiness per stage"));
        assert!(md.contains("**Blocked from"));
        assert!(md.contains("## Warnings"));
    }

    #[test]
    fn json_card_parses() {
        let card = sample_card();
        let text = card.to_json().to_string_compact();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(
            parsed
                .get("manifest")
                .unwrap()
                .get("name")
                .unwrap()
                .as_str(),
            Some("card-test")
        );
        assert!(parsed.get("warnings").unwrap().as_arr().unwrap().len() >= 2);
    }

    #[test]
    fn clean_dataset_no_warnings() {
        let mut card = sample_card();
        card.assessment.label_coverage = Some(Ratio {
            count: 10,
            total: 10,
        });
        card.quality = vec![QualityReport::compute(
            "x",
            &(0..100).map(|i| (i % 10) as f64).collect::<Vec<_>>(),
        )];
        assert!(card.warnings().is_empty(), "{:?}", card.warnings());
        card.quality.clear();
        assert!(card
            .to_markdown()
            .contains("No stage measured a quality report."));
    }
}
