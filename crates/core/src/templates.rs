//! Domain preprocessing templates — the paper's closing call:
//! "developing standardized domain-specific preprocessing templates for
//! wider adoption" (§6).
//!
//! A [`DomainTemplate`] is the declarative form of a Table 1 row: the
//! stage graph's steps in order, each named by the operation its ledger
//! record carries, and whether the domain must anonymize. Each domain
//! declares its own beside the stage graph built from it (drai-domains).
//! The assessor (`crate::assess`) reads a run's ledger against it: the
//! run is automated when its operations are the template's steps, and a
//! stage kind the template lacks is N/A for the domain.

use crate::readiness::ProcessingStage;

/// A named step in a template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemplateStep {
    /// The operation the step's ledger record carries: the stage name in
    /// the domain's stage graph ("regrid", "anonymize", ...).
    pub name: &'static str,
    /// Which processing stage it belongs to.
    pub kind: ProcessingStage,
}

impl TemplateStep {
    /// The step whose record carries operation `name`, of kind `kind`.
    pub const fn new(name: &'static str, kind: ProcessingStage) -> TemplateStep {
        TemplateStep { name, kind }
    }
}

/// A domain's preprocessing template.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainTemplate {
    /// Domain name ("climate", ...).
    pub domain: &'static str,
    /// The stage graph's steps, in order.
    pub steps: &'static [TemplateStep],
    /// The param the Preprocess step declares the grid or clock it
    /// aligns to under; `None` when the template has no Preprocess step.
    pub alignment: Option<&'static str>,
    /// PHI/PII handling required (bio/health): the Transform step must
    /// reach the k it declares.
    pub requires_anonymization: bool,
}

impl DomainTemplate {
    /// The step of processing-stage `kind`, `None` when the domain has
    /// none (that Table 2 column is N/A for it).
    pub fn step(&self, kind: ProcessingStage) -> Option<&'static str> {
        self.steps.iter().find(|s| s.kind == kind).map(|s| s.name)
    }
}
