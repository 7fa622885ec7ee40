//! The metric and span names this crate writes (`drai_telemetry::Name`).
//! Holes are the pipeline name, then the stage name.

use drai_telemetry::{Counter, Gauge, Histogram, Name, Span};

pub(crate) const RUN: Name<Span, 1> = Name::declare("pipeline.{}.run");
pub(crate) const RUN_STREAMING: Name<Span, 1> = Name::declare("pipeline.{}.run_streaming");
pub(crate) const STAGE: Name<Span, 2> = Name::declare("pipeline.{}.{}");
pub(crate) const STAGE_RECORDS: Name<Counter, 2> = Name::declare("pipeline.{}.{}.records");
pub(crate) const STAGE_BYTES: Name<Counter, 2> = Name::declare("pipeline.{}.{}.bytes");
pub(crate) const STAGE_RETRIES: Name<Counter, 2> = Name::declare("pipeline.{}.{}.retries");
/// A batch's stage wall time: what the sequential run's stage span
/// records on drop under the same name.
pub(crate) const STAGE_NS: Name<Histogram, 2> = Name::declare("pipeline.{}.{}.ns");
pub(crate) const STAGE_ITEM_NS: Name<Histogram, 2> = Name::declare("pipeline.{}.{}.item_ns");

pub(crate) const QUEUE_DEPTH: Name<Gauge> = Name::declare("executor.queue_depth");
pub(crate) const STALL_NS: Name<Histogram> = Name::declare("executor.stall_ns");
pub(crate) const INFLIGHT: Name<Gauge, 2> = Name::declare("executor.{}.{}.inflight");
pub(crate) const ITEMS_COMPLETED: Name<Counter> = Name::declare("executor.items_completed");
