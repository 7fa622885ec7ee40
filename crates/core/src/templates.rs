//! Domain preprocessing templates — the paper's closing call:
//! "developing standardized domain-specific preprocessing templates for
//! wider adoption" (§6).
//!
//! A [`DomainTemplate`] is the declarative form of a Table 1 row: the
//! stage graph's steps in order (each named by the operation its ledger
//! record carries, with its processing-stage kind), the target storage
//! format, and whether the domain must anonymize. The readiness assessor
//! reads a run's ledger against it (`crate::assess`): a run is automated
//! when its records' operations are the template's steps, and a stage
//! kind the template lacks is N/A for the domain.

use crate::readiness::ProcessingStage;

/// A named step in a template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemplateStep {
    /// The operation the step's ledger record carries: the stage name in
    /// the domain's stage graph ("regrid", "anonymize", ...).
    pub name: &'static str,
    /// Which processing stage it belongs to.
    pub kind: ProcessingStage,
}

/// A domain's preprocessing template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainTemplate {
    /// Domain name ("climate", ...).
    pub domain: &'static str,
    /// Canonical pattern string as written in the paper.
    pub pattern: &'static str,
    /// The stage graph's steps, in order.
    pub steps: Vec<TemplateStep>,
    /// The param the Preprocess step declares the grid or clock it
    /// aligns to under; `None` when the template has no Preprocess step.
    pub alignment: Option<&'static str>,
    /// Target storage format for the shard stage.
    pub shard_format: &'static str,
    /// PHI/PII handling required (bio/health): the Transform step must
    /// reach the k it declares.
    pub requires_anonymization: bool,
}

/// Steps from `(operation, kind)` pairs.
fn steps(list: [(&'static str, ProcessingStage); 4]) -> Vec<TemplateStep> {
    list.into_iter()
        .map(|(name, kind)| TemplateStep { name, kind })
        .collect()
}

impl DomainTemplate {
    /// The climate template (§3.1): download → regrid → normalize → shard.
    /// The download is the run's `ingest`; `validate` checks its shape.
    pub fn climate() -> DomainTemplate {
        use ProcessingStage as S;
        DomainTemplate {
            domain: "climate",
            pattern: "download -> regrid -> normalize -> shard",
            steps: steps([
                ("validate", S::Ingest),
                ("regrid", S::Preprocess),
                ("normalize", S::Transform),
                ("shard", S::Shard),
            ]),
            alignment: Some("dst_grid"),
            shard_format: "npz",
            requires_anonymization: false,
        }
    }

    /// The fusion template (§3.2): extract → align → normalize → shard.
    pub fn fusion() -> DomainTemplate {
        use ProcessingStage as S;
        DomainTemplate {
            domain: "fusion",
            pattern: "extract -> align -> normalize -> shard",
            steps: steps([
                ("extract", S::Ingest),
                ("align", S::Preprocess),
                ("normalize", S::Transform),
                ("shard", S::Shard),
            ]),
            alignment: Some("clock_hz"),
            shard_format: "tfrecord",
            requires_anonymization: false,
        }
    }

    /// The bio/health template (§3.3): encode → anonymize → fuse →
    /// secure-shard. The intake `audit` stands where the paper's pattern
    /// starts, and encoding is fused with the fuse step.
    pub fn bio() -> DomainTemplate {
        use ProcessingStage as S;
        DomainTemplate {
            domain: "bio",
            pattern: "encode -> anonymize -> fuse -> secure-shard",
            steps: steps([
                ("audit", S::Ingest),
                ("anonymize", S::Transform),
                ("encode+fuse", S::Structure),
                ("secure-shard", S::Shard),
            ]),
            alignment: None,
            shard_format: "h5lite+chacha20",
            requires_anonymization: true,
        }
    }

    /// The materials template (§3.4): parse → normalize → encode → shard.
    pub fn materials() -> DomainTemplate {
        use ProcessingStage as S;
        DomainTemplate {
            domain: "materials",
            pattern: "parse -> normalize -> encode -> shard",
            steps: steps([
                ("parse", S::Ingest),
                ("normalize", S::Transform),
                ("encode", S::Structure),
                ("shard", S::Shard),
            ]),
            alignment: None,
            shard_format: "bp+jsonl",
            requires_anonymization: false,
        }
    }

    /// All four Table 1 templates.
    pub fn all() -> Vec<DomainTemplate> {
        vec![
            Self::climate(),
            Self::fusion(),
            Self::bio(),
            Self::materials(),
        ]
    }

    /// The template of `domain`, if it is one of the four.
    pub fn named(domain: &str) -> Option<DomainTemplate> {
        Self::all().into_iter().find(|t| t.domain == domain)
    }

    /// The step of processing-stage `kind`, `None` when the domain has
    /// none (that Table 2 column is N/A for it).
    pub fn step(&self, kind: ProcessingStage) -> Option<&'static str> {
        self.steps.iter().find(|s| s.kind == kind).map(|s| s.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ProcessingStage as S;

    #[test]
    fn four_templates_cover_table1() {
        let all = DomainTemplate::all();
        assert_eq!(all.len(), 4);
        let domains: Vec<&str> = all.iter().map(|t| t.domain).collect();
        assert_eq!(domains, vec!["climate", "fusion", "bio", "materials"]);
        for t in &all {
            // Every template ends in a shard step, per the abstracted
            // pattern, and its kinds run in canonical order.
            assert_eq!(t.steps.last().unwrap().kind, S::Shard, "{}", t.domain);
            assert!(t.pattern.contains("shard"));
            assert!(t.steps.windows(2).all(|w| w[0].kind < w[1].kind));
            assert_eq!(DomainTemplate::named(t.domain).as_ref(), Some(t));
        }
        assert_eq!(DomainTemplate::named("astronomy"), None);
        // Only bio requires anonymization.
        assert!(DomainTemplate::bio().requires_anonymization);
        assert!(!DomainTemplate::climate().requires_anonymization);
    }

    #[test]
    fn a_kind_the_template_lacks_has_no_step() {
        assert_eq!(
            DomainTemplate::climate().step(S::Preprocess),
            Some("regrid")
        );
        assert_eq!(DomainTemplate::climate().step(S::Structure), None);
        assert_eq!(DomainTemplate::bio().step(S::Preprocess), None);
        assert_eq!(DomainTemplate::bio().step(S::Transform), Some("anonymize"));
    }
}
