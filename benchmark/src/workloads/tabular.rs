//! `tabular_fig1`: the paper's Figure 1 pipeline on one in-memory
//! table. drai-transform does most of the work and drai-io's shard
//! writer the rest; no formats, cache, executor or scheduler — where an
//! impute/normalize kernel or a shard-writer copy fix must show.

use super::{digest_outputs, err};
use crate::clock;
use crate::gen::{self, Digest};
use crate::harness::{Iteration, Workload};
use crate::trace::Recorder;
use drai_core::pipeline::{Pipeline, StageCounters};
use drai_core::ProcessingStage as S;
use drai_io::shard::{ShardSpec, ShardWriter};
use drai_io::sink::MemSink;
use drai_transform::features::rolling_mean;
use drai_transform::impute::{impute, Strategy};
use drai_transform::label::threshold_labels;
use drai_transform::normalize::{ColumnNormalizer, Method};
use drai_transform::split::{assign, Fractions};
use std::hint::black_box;
use std::sync::Arc;

/// Rows of the table.
pub const ROWS: usize = 400_000;
/// f64 columns per row.
pub const COLS: usize = 16;
/// Share of NaN cells.
pub const MISSING: f64 = 0.05;
/// Target shard size.
pub const SHARD_BYTES: usize = 4 << 20;
/// Window of the rolling-mean feature.
const ROLLING_WIDTH: usize = 9;
/// Label threshold on the z-scored first column.
const LABEL_THETA: f64 = 1.5;
/// Seed of the split assignment (a pipeline setting, not an input).
const SPLIT_SEED: u64 = 7;

/// The set-up workload: the raw table.
pub struct Tabular {
    raw: Vec<f64>,
}

impl Tabular {
    /// Generate the table.
    pub fn setup(seed: u64) -> Tabular {
        Tabular {
            raw: gen::tabular(ROWS, COLS, MISSING, seed),
        }
    }
}

/// impute → normalize → label → features → split → shard, each stage
/// one call into its layer wrapped in a span; gathers and the
/// row→bytes conversion are the benchmark's own glue.
fn build_pipeline(rec: &Arc<Recorder>, sink: &Arc<MemSink>) -> Pipeline<Vec<f64>> {
    let (r1, r2, r3, r4, r5, r6) = (
        rec.clone(),
        rec.clone(),
        rec.clone(),
        rec.clone(),
        rec.clone(),
        rec.clone(),
    );
    let sink = sink.clone();
    Pipeline::builder("fig1")
        .stage("clean", S::Preprocess, move |mut data: Vec<f64>, c| {
            r1.scope("transform.impute_s", || impute(&mut data, Strategy::Median))
                .map_err(err)?;
            c.bytes = (data.len() * 8) as u64;
            Ok(data)
        })
        .stage(
            "normalize",
            S::Transform,
            move |mut data: Vec<f64>, c: &mut StageCounters| {
                r2.scope("transform.normalize_cols_s", || {
                    ColumnNormalizer::fit(Method::ZScore, &data, COLS)?.apply(&mut data)
                })
                .map_err(err)?;
                c.bytes = (data.len() * 8) as u64;
                Ok(data)
            },
        )
        .stage("label", S::Transform, move |data: Vec<f64>, c| {
            let col0: Vec<f64> = r3.scope("bench.glue_s", || {
                data.iter().step_by(COLS).copied().collect()
            });
            let labels = r3.scope("transform.label_s", || threshold_labels(&col0, LABEL_THETA));
            c.records = black_box(labels).len() as u64;
            Ok(data)
        })
        .stage("features", S::Structure, move |data: Vec<f64>, c| {
            for ci in 0..COLS {
                let col: Vec<f64> = r4.scope("bench.glue_s", || {
                    data.iter().skip(ci).step_by(COLS).copied().collect()
                });
                let feature = r4
                    .scope("transform.features_s", || rolling_mean(&col, ROLLING_WIDTH))
                    .map_err(err)?;
                black_box(feature);
            }
            c.records = COLS as u64;
            Ok(data)
        })
        .stage("split", S::Structure, move |data: Vec<f64>, c| {
            let fractions = Fractions::standard();
            let rows = data.len() / COLS;
            r5.scope("transform.split_s", || {
                for r in 0..rows {
                    black_box(assign(&format!("row-{r}"), SPLIT_SEED, fractions)?);
                }
                Ok::<(), drai_transform::TransformError>(())
            })
            .map_err(err)?;
            c.records = rows as u64;
            Ok(data)
        })
        .stage("shard", S::Shard, move |data: Vec<f64>, c| {
            let bytes: Vec<u8> = r6.scope("bench.glue_s", || {
                let mut bytes = Vec::with_capacity(data.len() * 8);
                for v in &data {
                    bytes.extend_from_slice(&v.to_le_bytes());
                }
                bytes
            });
            let manifest = r6
                .scope("io.shard_write_s", || {
                    ShardWriter::new(ShardSpec::new("fig1", SHARD_BYTES), sink.as_ref())
                        .write_all(bytes.chunks_exact(COLS * 8))
                })
                .map_err(err)?;
            c.records = manifest.total_records;
            c.bytes = manifest.payload_bytes;
            Ok(data)
        })
        .build()
}

impl Workload for Tabular {
    fn bytes_per_iteration(&self) -> u64 {
        (self.raw.len() * 8) as u64
    }

    fn constants(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("rows", ROWS as f64),
            ("cols", COLS as f64),
            ("missing_share", MISSING),
            ("shard_bytes", SHARD_BYTES as f64),
        ]
    }

    fn iterate(&mut self, rec: &Arc<Recorder>) -> Result<Iteration, String> {
        let input = self.raw.clone();
        let sink = Arc::new(MemSink::new());
        let pipeline = build_pipeline(rec, &sink);

        let (run, wall_s) = clock::time(|| rec.scope("iteration", || pipeline.run(input)));
        let run = run.map_err(err)?;

        let mut digest = Digest::new();
        digest_outputs(sink.as_ref(), "", &mut digest)?;
        let sharded = run.stage("shard").map_or(0, |s| s.throughput.records);
        Ok(Iteration {
            wall_s,
            digest: digest.finish(),
            attempted: 1,
            failed: u64::from(sharded != ROWS as u64),
            values: Vec::new(),
        })
    }
}
