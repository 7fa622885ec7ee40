//! # drai — Data Readiness for Scientific AI at Scale
//!
//! Facade crate re-exporting the complete DRAI workspace: the readiness
//! framework (`core`), the numeric substrate (`tensor`), scientific
//! container formats (`formats`), the parallel shard/I-O engine (`io`),
//! preprocessing kernels (`transform`), provenance capture (`provenance`),
//! the simulated parallel filesystem (`sim`), runtime metrics
//! (`telemetry`), the content-addressed stage-result cache (`cache`),
//! the four domain archetypes (`domains`), and the multi-tenant job
//! scheduler (`sched`) that runs them as a shared service.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system
//! inventory and experiment index.
//!
//! ```
//! use drai::core::{assess, ReadinessLevel};
//! use drai::domains::ARCHETYPES;
//! use drai::io::sink::MemSink;
//! use std::sync::Arc;
//!
//! for archetype in &ARCHETYPES {
//!     let run = (archetype.run)(7, 1, Arc::new(MemSink::new())).unwrap();
//!     // Graded from the records the run wrote, against the template its
//!     // stage graph is built from.
//!     let grade = assess(&run.manifest, &run.ledger, archetype.template);
//!     assert_eq!(grade.overall, ReadinessLevel::FullyAiReady);
//!     assert_eq!(grade, run.assess());
//! }
//! ```

pub use drai_cache as cache;
pub use drai_core as core;
pub use drai_domains as domains;
pub use drai_formats as formats;
pub use drai_io as io;
pub use drai_provenance as provenance;
pub use drai_sched as sched;
pub use drai_sim as sim;
pub use drai_telemetry as telemetry;
pub use drai_tensor as tensor;
pub use drai_transform as transform;
