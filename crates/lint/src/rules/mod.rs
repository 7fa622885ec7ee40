//! The rule set. Each rule is a module with a `RULE` id and one entry
//! point, listed with it in [`crate::RULES`]: `check_file` for a
//! single-file rule, a workspace pass for a cross-file or manifest rule.

pub mod crate_graph;
pub mod error_context;
pub mod no_panic;
pub mod no_wallclock;
pub mod telemetry_names;
