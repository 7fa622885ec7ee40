//! The readiness assessor: grades each cell of the paper's Table 2 from
//! what a run put on record — its [`DatasetManifest`], its provenance
//! [`Ledger`] and its domain's [`DomainTemplate`] — never from a declared
//! level or flag.
//!
//! A cell holds when the records its rule reads say so, and it then
//! cites them (sequence number + operation); otherwise a [`Deficiency`]
//! names it. A column whose stage kind the template lacks is N/A for the
//! domain, like the grey cells of Table 2. The overall level is the
//! highest level up to which every applicable cell holds: readiness is
//! gated by the weakest stage, as the paper describes datasets
//! "bottlenecked by domain-specific constraints". DESIGN.md §2 tabulates
//! each cell's rule, the params it reads and its threshold.

use crate::dataset::DatasetManifest;
use crate::readiness::{MaturityMatrix, ProcessingStage, ReadinessLevel};
use crate::templates::DomainTemplate;
use drai_provenance::{Ledger, Transformation};
use std::collections::BTreeSet;
use std::fmt;

/// The record params the assessor reads, by name: a stage declares or
/// measures them (`StageCounters::measure`) under these keys.
pub mod key {
    /// Values found missing (NaN) after preprocessing, by the first stage
    /// after the Preprocess step that visits every value.
    pub const MISSING: &str = "missing";
    /// Values that stage visited.
    pub const VALUES: &str = "values";
    /// Records the shard step wrote.
    pub const RECORDS: &str = "records";
    /// Records the shard step wrote with their target present.
    pub const LABELED: &str = "labeled";
    /// The k an anonymizing step declares.
    pub const K: &str = "k";
    /// The smallest quasi-identifier class that step left.
    pub const K_REACHED: &str = "k_reached";
    /// The seed the shard step partitions records by.
    pub const SEED: &str = "seed";
    /// The train/validation/test fractions it partitions by.
    pub const FRACTIONS: &str = "fractions";
}

/// Share of written records that must carry their target for
/// "comprehensive labeling" (level 4).
const COMPREHENSIVE_LABEL_COVERAGE: f64 = 0.95;
/// Largest share of values missing after preprocessing that level 4
/// ("alignment fully standardized") tolerates.
const MAX_MISSING_FRACTION: f64 = 0.05;

/// The operation of the one record a run writes before its stages: the
/// raw blobs in, the pipeline's input out.
pub const INGEST: &str = "ingest";

/// A ledger record a cell rests on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Citation {
    /// The record's sequence number.
    pub seq: u64,
    /// Its operation.
    pub operation: String,
}

impl fmt::Display for Citation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{} {}", self.seq, self.operation)
    }
}

/// A cell that holds, and the records that show it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evidence {
    /// The cell's level.
    pub level: ReadinessLevel,
    /// The cell's stage.
    pub stage: ProcessingStage,
    /// The records its rule read.
    pub cites: Vec<Citation>,
}

/// A cell that does not hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deficiency {
    /// The cell's stage.
    pub stage: ProcessingStage,
    /// The cell's level.
    pub blocked_level: ReadinessLevel,
    /// Human-readable reason.
    pub reason: String,
}

/// A count out of a total, as a stage measured them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ratio {
    /// The count.
    pub count: u64,
    /// What it is counted out of.
    pub total: u64,
}

impl Ratio {
    /// `count / total`, 0 for an empty total.
    pub fn fraction(self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count as f64 / self.total as f64
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} of {}", self.count, self.total)
    }
}

/// Result of assessing a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Assessment {
    /// Overall readiness level (minimum over stage gates).
    pub overall: ReadinessLevel,
    /// Level achieved per stage, each column walked on its own.
    pub per_stage: Vec<(ProcessingStage, ReadinessLevel)>,
    /// Every applicable cell that holds, level by level.
    pub evidence: Vec<Evidence>,
    /// Every applicable cell that does not hold, level by level: the
    /// first is what blocks the next level (empty at level 5).
    pub deficiencies: Vec<Deficiency>,
    /// Records the shard step wrote with their target present, out of
    /// all it wrote; `None` when no shard record counts them.
    pub label_coverage: Option<Ratio>,
    /// `None` when the domain need not anonymize; otherwise whether its
    /// Transform record reached the k it declares.
    pub anonymized: Option<bool>,
}

impl Assessment {
    /// The first deficiency blocking promotion, if any.
    pub fn blocking(&self) -> Option<&Deficiency> {
        self.deficiencies.first()
    }
}

/// Grade every Table 2 cell of the run that wrote `manifest` and
/// `ledger`, against its domain's `template`.
pub fn assess(
    manifest: &DatasetManifest,
    ledger: &Ledger,
    template: &DomainTemplate,
) -> Assessment {
    let run = Run {
        manifest,
        ledger,
        template,
        records: ledger.transformations(),
    };
    // `None`: N/A; `Some(Err)`: blocked.
    let graded: Vec<(ReadinessLevel, ProcessingStage, Option<Result<_, _>>)> = ReadinessLevel::ALL
        .iter()
        .flat_map(|&level| {
            ProcessingStage::ALL
                .iter()
                .map(move |&stage| (level, stage))
        })
        .map(|(level, stage)| (level, stage, run.grade(level, stage)))
        .collect();
    let holds_up_to = |top: ReadinessLevel, column: Option<ProcessingStage>| {
        graded.iter().all(|(level, stage, grade)| {
            *level > top || column.is_some_and(|c| c != *stage) || !matches!(grade, Some(Err(_)))
        })
    };
    let highest = |column| {
        ReadinessLevel::ALL
            .into_iter()
            .take_while(|&level| holds_up_to(level, column))
            .last()
            .unwrap_or(ReadinessLevel::Raw)
    };
    let mut evidence = Vec::new();
    let mut deficiencies = Vec::new();
    for (level, stage, grade) in graded.iter().cloned() {
        match grade {
            Some(Ok(cites)) => evidence.push(Evidence {
                level,
                stage,
                cites,
            }),
            Some(Err(reason)) => deficiencies.push(Deficiency {
                stage,
                blocked_level: level,
                reason,
            }),
            None => {}
        }
    }
    Assessment {
        overall: highest(None),
        per_stage: (ProcessingStage::ALL.iter())
            .map(|&stage| (stage, highest(Some(stage))))
            .collect(),
        evidence,
        deficiencies,
        label_coverage: run.labels().ok().map(|(ratio, _)| ratio),
        anonymized: template
            .requires_anonymization
            .then(|| run.anonymized().is_ok()),
    }
}

/// What one cell's rule finds: the records it cites, or why it fails.
type Grade = Result<Vec<Citation>, String>;

/// One run's evidence, read the way the cell rules read it.
struct Run<'a> {
    manifest: &'a DatasetManifest,
    ledger: &'a Ledger,
    template: &'a DomainTemplate,
    /// The ledger's records, in `seq` order.
    records: Vec<Transformation>,
}

fn cite(t: &Transformation) -> Citation {
    Citation {
        seq: t.seq,
        operation: t.operation.clone(),
    }
}

fn need(ok: bool, reason: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(reason())
    }
}

/// `t`'s param `key`, parsed.
fn param<T: std::str::FromStr>(t: &Transformation, key: &str) -> Result<T, String> {
    let value = t
        .params
        .get(key)
        .ok_or_else(|| format!("`{}` has no `{key}` on record", t.operation))?;
    value
        .parse()
        .map_err(|_| format!("`{}` has `{key}` = {value:?}", t.operation))
}

/// `t`'s params `count` and `total` as a ratio.
fn ratio(t: &Transformation, count: &str, total: &str) -> Result<Ratio, String> {
    Ok(Ratio {
        count: param(t, count)?,
        total: param(t, total)?,
    })
}

impl Run<'_> {
    /// The first record of operation `op`.
    fn record(&self, op: &str) -> Result<&Transformation, String> {
        let found = self.records.iter().find(|t| t.operation == op);
        found.ok_or_else(|| format!("no `{op}` record"))
    }

    /// The record of the template's step of kind `stage`.
    fn step(&self, stage: ProcessingStage) -> Result<&Transformation, String> {
        match self.template.step(stage) {
            Some(op) => self.record(op),
            None => Err(format!("{} has no {stage} step", self.template.domain)),
        }
    }

    /// The shard record's label count, and the record.
    fn labels(&self) -> Result<(Ratio, &Transformation), String> {
        let shard = self.step(ProcessingStage::Shard)?;
        Ok((ratio(shard, key::LABELED, key::RECORDS)?, shard))
    }

    /// The Transform record, when it reached the k it declares.
    fn anonymized(&self) -> Result<&Transformation, String> {
        let t = self.step(ProcessingStage::Transform)?;
        let (k, reached): (u64, u64) = (param(t, key::K)?, param(t, key::K_REACHED)?);
        need(reached >= k, || {
            format!("`{}` reached k = {reached}, below its k = {k}", t.operation)
        })?;
        Ok(t)
    }

    /// Operations in `seq` order are `ingest` and then the template's
    /// steps: nothing ran by hand between, and nothing was skipped.
    fn automated(&self) -> Result<(), String> {
        let ops: Vec<&str> = self.records.iter().map(|t| t.operation.as_str()).collect();
        let steps = self.template.steps.iter().map(|s| s.name);
        let expected: Vec<&str> = std::iter::once(INGEST).chain(steps).collect();
        need(ops == expected, || {
            format!("operations {ops:?} are not the template's {expected:?}")
        })
    }

    /// Every blob the shard step wrote descends from `t`, and its roots
    /// are exactly the `ingest` record's inputs.
    fn audited(&self, t: &Transformation) -> Result<(), String> {
        let shard = self.step(ProcessingStage::Shard)?;
        let raw: BTreeSet<&str> = (self.record(INGEST)?.inputs.iter())
            .map(|a| a.id.digest())
            .collect();
        let blobs: Vec<_> = shard
            .outputs
            .iter()
            .filter(|a| !a.name.is_empty())
            .collect();
        need(!blobs.is_empty(), || {
            format!("`{}` wrote no blob", shard.operation)
        })?;
        for blob in blobs {
            let lineage = self.ledger.lineage(&blob.id).map_err(|e| e.to_string())?;
            need(lineage.iter().any(|l| l.seq == t.seq), || {
                format!("{} does not descend from `{}`", blob.name, t.operation)
            })?;
            let roots = self.ledger.roots(&blob.id).map_err(|e| e.to_string())?;
            let roots: BTreeSet<&str> = roots.iter().map(|a| a.id.digest()).collect();
            need(roots == raw, || {
                format!("{} does not trace back to the ingested blobs", blob.name)
            })?;
        }
        Ok(())
    }

    /// `None` for an N/A cell: grey in Table 2, or of a stage kind the
    /// template lacks.
    fn grade(&self, level: ReadinessLevel, stage: ProcessingStage) -> Option<Grade> {
        let applicable = MaturityMatrix::applicable(level, stage);
        (applicable && self.template.step(stage).is_some()).then(|| self.rule(level, stage))
    }

    /// The rule of cell `(level, stage)`, which DESIGN.md §2 states.
    fn rule(&self, level: ReadinessLevel, stage: ProcessingStage) -> Grade {
        use ProcessingStage as S;
        use ReadinessLevel as L;
        let own = self.step(stage);
        match (level, stage) {
            (L::Raw, S::Ingest) => {
                let ingest = self.record(INGEST)?;
                need(self.manifest.records > 0, || "no records acquired".into())?;
                Ok(vec![cite(ingest)])
            }
            (L::Cleaned, S::Ingest | S::Preprocess) | (L::FeatureEngineered, S::Structure) => {
                Ok(vec![cite(own?)])
            }
            (L::Labeled, S::Ingest) => {
                let own = own?;
                let schema = &self.manifest.schema;
                need(!schema.is_empty(), || "the schema lists no variable".into())?;
                if let Some(v) = schema.iter().find(|v| v.unit.is_empty()) {
                    return Err(format!("variable `{}` has no unit", v.name));
                }
                Ok(vec![cite(own)])
            }
            (L::Labeled, S::Preprocess) => {
                let own = own?;
                let target = (self.template.alignment)
                    .ok_or_else(|| format!("{} names no alignment param", self.template.domain))?;
                param::<String>(own, target)?;
                Ok(vec![cite(own)])
            }
            (L::Labeled, S::Transform) => {
                let own = match self.template.requires_anonymization {
                    true => self.anonymized()?,
                    false => own?,
                };
                let (labels, shard) = self.labels()?;
                need(labels.count > 0, || {
                    "no record written with its target".into()
                })?;
                Ok(vec![cite(own), cite(shard)])
            }
            (L::FeatureEngineered, S::Ingest) => {
                let ingest = self.record(INGEST)?;
                let reads = self
                    .records
                    .iter()
                    .filter(|t| t.operation == INGEST)
                    .count();
                need(reads == 1 && ingest.seq == 0, || {
                    format!("the raw blobs are ingested by {reads} records, not one first")
                })?;
                for w in self.records.windows(2) {
                    let handed = w[0].outputs.first().map(|a| &a.id);
                    let read: Vec<_> = w[1].inputs.iter().map(|a| &a.id).collect();
                    need(read.len() == 1 && handed == Some(read[0]), || {
                        format!(
                            "`{}` does not read `{}`'s output",
                            w[1].operation, w[0].operation
                        )
                    })?;
                }
                Ok(vec![cite(ingest)])
            }
            (L::FeatureEngineered, S::Preprocess) => {
                let own = own?;
                let counter = (self.records.iter())
                    .find(|t| t.seq > own.seq && t.params.contains_key(key::MISSING))
                    .ok_or_else(|| {
                        "no stage counted missing values after preprocessing".to_string()
                    })?;
                let missing = ratio(counter, key::MISSING, key::VALUES)?;
                need(missing.fraction() <= MAX_MISSING_FRACTION, || {
                    format!("{missing} values missing after preprocessing (at most 5%)")
                })?;
                Ok(vec![cite(counter)])
            }
            (L::FeatureEngineered, S::Transform) => {
                let own = own?;
                let (labels, shard) = self.labels()?;
                need(labels.fraction() >= COMPREHENSIVE_LABEL_COVERAGE, || {
                    format!("{labels} records written with their target (at least 95%)")
                })?;
                Ok(vec![cite(own), cite(shard)])
            }
            (L::FullyAiReady, S::Ingest | S::Preprocess) => {
                let own = own?;
                self.automated()?;
                Ok(vec![cite(own)])
            }
            (L::FullyAiReady, S::Transform | S::Structure) => {
                let own = own?;
                self.automated()?;
                self.audited(own)?;
                Ok(vec![cite(own)])
            }
            (L::FullyAiReady, S::Shard) => {
                let own = own?;
                param::<String>(own, key::SEED)?;
                param::<String>(own, key::FRACTIONS)?;
                let (labels, _) = self.labels()?;
                need(labels.total > 0, || {
                    format!("`{}` wrote no record", own.operation)
                })?;
                need(own.outputs.iter().any(|a| !a.name.is_empty()), || {
                    format!("`{}` wrote no blob", own.operation)
                })?;
                Ok(vec![cite(own)])
            }
            // Grey in Table 2: `grade` never asks.
            _ => Err(format!("{level} / {stage} is not a Table 2 cell")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Modality, VariableSpec};
    use crate::templates::TemplateStep;
    use drai_provenance::Artifact;
    use drai_tensor::DType;
    use ProcessingStage as S;
    use ReadinessLevel as L;

    /// A five-step template: every Table 2 column applies.
    fn template() -> DomainTemplate {
        const STEPS: [TemplateStep; 5] = [
            TemplateStep::new("load", S::Ingest),
            TemplateStep::new("align", S::Preprocess),
            TemplateStep::new("anonymize", S::Transform),
            TemplateStep::new("features", S::Structure),
            TemplateStep::new("shard", S::Shard),
        ];
        DomainTemplate {
            domain: "demo",
            steps: &STEPS,
            alignment: Some("clock_hz"),
            requires_anonymization: true,
        }
    }

    fn manifest() -> DatasetManifest {
        DatasetManifest {
            name: "demo".into(),
            domain: "demo".into(),
            modality: Modality::Tabular,
            schema: vec![VariableSpec::new("x", DType::F64, "K", &[])],
            records: 100,
        }
    }

    type Params = Vec<(&'static str, &'static str)>;

    /// A ledger as a run writes it: `ingest` over one raw blob, then each
    /// step's record reading its predecessor's output, with `params`
    /// (operation → params) on record; the shard step also writes a blob.
    fn ledger(ops: &[&str], params: &[(&str, Params)]) -> Ledger {
        let ledger = Ledger::new();
        let raw = Artifact::new("raw/x.csv", b"raw");
        let mut id = [0u8; 16];
        ledger.record(INGEST, [], vec![raw], vec![Artifact::derived(&id)]);
        for (i, op) in ops.iter().enumerate() {
            let input = Artifact::derived(&id);
            id[0] = i as u8 + 1;
            let mut outputs = vec![Artifact::derived(&id)];
            if *op == "shard" {
                outputs.push(Artifact::new("demo/train-00000.shard", b"shard"));
            }
            let p = params.iter().find(|(o, _)| o == op).map(|(_, p)| p.clone());
            let p = p.unwrap_or_default().into_iter();
            let p = p.map(|(k, v)| (k.to_string(), v.to_string()));
            ledger.record(op, p, vec![input], outputs);
        }
        ledger
    }

    fn clean_params() -> Vec<(&'static str, Params)> {
        vec![
            ("align", vec![("clock_hz", "1000")]),
            ("anonymize", vec![(key::K, "2"), (key::K_REACHED, "3")]),
            ("features", vec![(key::MISSING, "1"), (key::VALUES, "100")]),
            (
                "shard",
                vec![
                    (key::SEED, "7"),
                    (key::FRACTIONS, "0.8/0.1/0.1"),
                    (key::RECORDS, "100"),
                    (key::LABELED, "100"),
                ],
            ),
        ]
    }

    const OPS: [&str; 5] = ["load", "align", "anonymize", "features", "shard"];

    fn assess_with(ops: &[&str], params: &[(&str, Params)]) -> Assessment {
        assess(&manifest(), &ledger(ops, params), &template())
    }

    /// `a` stops below `level` (or at the floor), and a deficiency names
    /// `(level, stage)`.
    fn blocked_at(a: &Assessment, level: ReadinessLevel, stage: ProcessingStage) {
        assert!(a.overall < level || a.overall == L::Raw, "{a:#?}");
        assert!(
            (a.deficiencies.iter()).any(|d| (d.blocked_level, d.stage) == (level, stage)),
            "{level} / {stage} not named: {:#?}",
            a.deficiencies
        );
    }

    #[test]
    fn a_clean_run_cites_a_record_in_every_cell() {
        let a = assess_with(&OPS, &clean_params());
        assert_eq!(a.overall, L::FullyAiReady, "{:#?}", a.deficiencies);
        assert!(a.deficiencies.is_empty() && a.blocking().is_none());
        assert_eq!(a.evidence.len(), MaturityMatrix::applicable_cell_count());
        assert!(a.evidence.iter().all(|e| !e.cites.is_empty()));
        for (_, level) in &a.per_stage {
            assert_eq!(*level, L::FullyAiReady);
        }
        assert_eq!(
            a.label_coverage,
            Some(Ratio {
                count: 100,
                total: 100
            })
        );
        assert_eq!(a.anonymized, Some(true));
        let shard = (a.evidence.iter()).find(|e| (e.level, e.stage) == (L::FullyAiReady, S::Shard));
        assert_eq!(shard.unwrap().cites[0].to_string(), "#5 shard");
    }

    #[test]
    fn a_kind_the_template_lacks_is_not_applicable() {
        let mut t = template();
        let steps = t.steps.iter().copied().filter(|s| s.kind != S::Structure);
        t.steps = steps.collect::<Vec<_>>().leak();
        let ops = ["load", "align", "anonymize", "shard"];
        // With no `features` step, `anonymize` is the first stage after
        // `align` to visit every value.
        let mut params = clean_params();
        let (_, anonymize) = params.iter_mut().find(|(o, _)| *o == "anonymize").unwrap();
        anonymize.extend([(key::MISSING, "0"), (key::VALUES, "9")]);
        let a = assess(&manifest(), &ledger(&ops, &params), &t);
        assert_eq!(a.overall, L::FullyAiReady, "{:#?}", a.deficiencies);
        assert!(a.evidence.iter().all(|e| e.stage != S::Structure));
        assert_eq!(
            a.evidence.len(),
            MaturityMatrix::applicable_cell_count() - 2
        );
    }

    #[test]
    fn each_stage_record_missing_names_its_first_cell() {
        for (dropped, cell) in [
            ("load", (L::Cleaned, S::Ingest)),
            ("align", (L::Cleaned, S::Preprocess)),
            ("anonymize", (L::Labeled, S::Transform)),
            ("features", (L::FeatureEngineered, S::Structure)),
            ("shard", (L::FullyAiReady, S::Shard)),
        ] {
            let ops: Vec<&str> = OPS.into_iter().filter(|op| *op != dropped).collect();
            blocked_at(&assess_with(&ops, &clean_params()), cell.0, cell.1);
        }
        // Without the `ingest` record nothing was acquired.
        let ledger = ledger(&OPS, &clean_params());
        let cut = Ledger::new();
        for t in ledger.transformations().into_iter().skip(1) {
            cut.record(&t.operation, t.params, t.inputs, t.outputs);
        }
        let a = assess(&manifest(), &cut, &template());
        blocked_at(&a, L::Raw, S::Ingest);
        assert_eq!(a.overall, L::Raw);
    }

    #[test]
    fn measured_counts_gate_their_cells() {
        let with = |op: &'static str, k: &'static str, v: &'static str| {
            let mut params = clean_params();
            let (_, p) = params.iter_mut().find(|(o, _)| *o == op).unwrap();
            p.retain(|(key, _)| *key != k);
            p.push((k, v));
            assess_with(&OPS, &params)
        };
        // Missing values after preprocessing: 5% passes, 6% does not.
        assert_eq!(with("features", key::MISSING, "5").overall, L::FullyAiReady);
        let a = with("features", key::MISSING, "6");
        blocked_at(&a, L::FeatureEngineered, S::Preprocess);
        assert_eq!(a.overall, L::Labeled);
        // Labels: none blocks level 3, 94% blocks level 4.
        let a = with("shard", key::LABELED, "0");
        blocked_at(&a, L::Labeled, S::Transform);
        assert_eq!(a.label_coverage.map(Ratio::fraction), Some(0.0));
        blocked_at(
            &with("shard", key::LABELED, "94"),
            L::FeatureEngineered,
            S::Transform,
        );
        assert_eq!(with("shard", key::LABELED, "95").overall, L::FullyAiReady);
        // k not reached: not anonymized.
        let a = with("anonymize", key::K_REACHED, "1");
        blocked_at(&a, L::Labeled, S::Transform);
        assert_eq!(a.anonymized, Some(false));
        // A Preprocess record that measures but declares no clock.
        let mut params = clean_params();
        params[0].1 = vec![(key::MISSING, "0"), (key::VALUES, "9")];
        blocked_at(&assess_with(&OPS, &params), L::Labeled, S::Preprocess);
        // A param that does not parse is no count.
        blocked_at(
            &with("shard", key::RECORDS, "many"),
            L::Labeled,
            S::Transform,
        );
    }

    #[test]
    fn structure_rules_fail_on_their_ledger_edits() {
        // Raw blobs read twice: ingestion is not one pass.
        let ledger = ledger(&OPS, &clean_params());
        let records = ledger.transformations();
        let twice = Ledger::new();
        for t in records.iter().take(1).chain(&records) {
            let (op, params) = (&t.operation, t.params.clone());
            twice.record(op, params, t.inputs.clone(), t.outputs.clone());
        }
        let a = assess(&manifest(), &twice, &template());
        blocked_at(&a, L::FeatureEngineered, S::Ingest);
        // A stage that re-reads the raw blob, not its predecessor's output.
        let reread = Ledger::new();
        for t in &records {
            let inputs = match t.operation.as_str() {
                "features" => records[0].inputs.clone(),
                _ => t.inputs.clone(),
            };
            reread.record(&t.operation, t.params.clone(), inputs, t.outputs.clone());
        }
        let a = assess(&manifest(), &reread, &template());
        blocked_at(&a, L::FeatureEngineered, S::Ingest);
        // Steps out of the template's order: not automated.
        let ops = ["load", "anonymize", "align", "features", "shard"];
        blocked_at(
            &assess_with(&ops, &clean_params()),
            L::FullyAiReady,
            S::Ingest,
        );
        // A schema without units, and an empty dataset.
        let mut m = manifest();
        m.schema[0].unit.clear();
        let a = assess(&m, &ledger, &template());
        blocked_at(&a, L::Labeled, S::Ingest);
        m.records = 0;
        let a = assess(&m, &ledger, &template());
        assert_eq!(a.overall, L::Raw);
        assert_eq!(a.blocking().unwrap().blocked_level, L::Raw);
    }
}
