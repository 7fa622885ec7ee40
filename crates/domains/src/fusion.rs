//! Fusion archetype: `extract → align → normalize → shard`
//! (Table 1 row 2; §3.2; the DIII-D disruption-prediction pattern).
//!
//! Raw data is a synthetic MDSplus-like **shot store**: per-shot trees of
//! multirate diagnostic signals (plasma current, coil voltages, density,
//! temperature) with realistic pathologies — independent clocks, channel
//! drop-outs, noise bursts, and a disruption event in a configurable
//! fraction of shots (signals collapse after t_disrupt). The pipeline:
//!
//! 1. **extract** — pull channels from the shot store, drop dead channels;
//! 2. **align** — resample every channel onto a common clock and slice
//!    into fixed windows (windows crossing gaps are dropped);
//! 3. **normalize** — per-channel robust scaling (sensor glitches make
//!    plain z-scores fragile) + derivative features;
//! 4. **shard** — windows become `tf.train.Example`s in TFRecord shards,
//!    split by *shot* key so no shot straddles splits.

use crate::{DomainError, DomainRun, Member, StageItem};
use drai_core::assess::key;
use drai_core::dataset::{DatasetManifest, Modality, VariableSpec};
use drai_core::pipeline::{Pipeline, StageCounters};
use drai_core::{readiness::ProcessingStage as S, DomainTemplate, TemplateStep};
use drai_formats::example::{Example, FeatureRef};
use drai_formats::tfrecord;
use drai_io::parallel::par_map;
use drai_io::sink::StorageSink;
use drai_provenance::Ledger;
use drai_tensor::DType;
use drai_transform::align::{align_channels, Channel, Clock};
use drai_transform::features::derivative;
use drai_transform::normalize::{ColumnNormalizer, Method, Normalizer};
use drai_transform::split::{partition, Fractions};
use drai_transform::TransformError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Diagnostic channels in the synthetic shot store.
pub const CHANNELS: [(&str, f64, &str); 4] = [
    // (name, sample rate Hz, unit)
    ("ip", 10_000.0, "MA"),    // plasma current
    ("vloop", 5_000.0, "1"),   // loop voltage (arb)
    ("ne", 1_000.0, "1"),      // line-averaged density (arb)
    ("te_core", 250.0, "keV"), // core temperature
];

/// Generator + pipeline configuration.
#[derive(Debug, Clone)]
pub struct FusionConfig {
    /// Number of shots to synthesize.
    pub shots: usize,
    /// Shot duration in seconds.
    pub shot_seconds: f64,
    /// Fraction of shots that disrupt.
    pub disruption_fraction: f64,
    /// Probability a channel is dead in a given shot (sparse data).
    pub channel_dropout: f64,
    /// Common clock rate for alignment (Hz).
    pub clock_hz: f64,
    /// Window length in ticks.
    pub window_len: usize,
    /// Window stride in ticks.
    pub window_stride: usize,
    /// RNG seed.
    pub seed: u64,
    /// Target shard payload bytes.
    pub shard_bytes: usize,
    /// Split fractions (keyed by shot).
    pub fractions: Fractions,
}

impl Default for FusionConfig {
    fn default() -> Self {
        FusionConfig {
            shots: 32,
            shot_seconds: 2.0,
            disruption_fraction: 0.3,
            channel_dropout: 0.1,
            clock_hz: 1_000.0,
            window_len: 64,
            window_stride: 32,
            seed: 176_042,
            shard_bytes: 4 << 20,
            fractions: Fractions::standard(),
        }
    }
}

/// One synthesized shot.
#[derive(Debug, Clone)]
pub struct Shot {
    /// Shot number (MDSplus-style id).
    pub id: u64,
    /// Live channels (dead ones absent — the sparse-data pathology).
    pub channels: Vec<Channel>,
    /// Disruption time in seconds, if the shot disrupted.
    pub t_disrupt: Option<f64>,
}

/// The MDSplus-like shot store: generates and serves shots.
pub struct ShotStore {
    shots: Vec<Shot>,
}

impl ShotStore {
    /// Synthesize a store.
    pub fn generate(cfg: &FusionConfig) -> ShotStore {
        let shots = (0..cfg.shots)
            .map(|s| {
                let mut rng =
                    SmallRng::seed_from_u64(cfg.seed ^ (s as u64).wrapping_mul(0x9E37_79B9));
                let id = 170_000 + s as u64;
                let disrupts = rng.gen::<f64>() < cfg.disruption_fraction;
                // Disruptions occur after ramp-up (≥ 0.3 s when the shot is
                // long enough, else past 40% of the shot) and before the
                // programmed end.
                let t_lo = 0.3f64.min(cfg.shot_seconds * 0.4);
                let t_hi = cfg.shot_seconds * 0.95;
                let t_disrupt = if disrupts && t_hi > t_lo {
                    Some(rng.gen_range(t_lo..t_hi))
                } else {
                    None
                };
                let mut channels = Vec::new();
                for (name, rate, _unit) in CHANNELS {
                    if rng.gen::<f64>() < cfg.channel_dropout {
                        continue; // dead channel this shot
                    }
                    let n = (cfg.shot_seconds * rate) as usize;
                    // Each channel's clock starts with a small random skew.
                    let skew = rng.gen_range(0.0..0.5 / rate);
                    let times: Vec<f64> = (0..n).map(|i| skew + i as f64 / rate).collect();
                    let values: Vec<f64> = times
                        .iter()
                        .map(|&t| {
                            let ramp = (t / 0.3).min(1.0); // current ramp-up
                            let base = match name {
                                "ip" => 1.2 * ramp,
                                "vloop" => 1.5 - ramp,
                                "ne" => 3.0 * ramp + 0.4 * (t * 7.0).sin(),
                                _ => 2.5 * ramp + 0.3 * (t * 3.0).cos(),
                            };
                            let mut v = base + 0.05 * (rng.gen::<f64>() - 0.5);
                            if let Some(td) = t_disrupt {
                                if t >= td {
                                    // Collapse with a fast decay after the
                                    // disruption.
                                    v *= (-(t - td) / 0.01).exp();
                                }
                            }
                            v
                        })
                        .collect();
                    channels.push(Channel {
                        name: name.to_string(),
                        times,
                        values,
                    });
                }
                Shot {
                    id,
                    channels,
                    t_disrupt,
                }
            })
            .collect();
        ShotStore { shots }
    }

    /// All shots.
    pub fn shots(&self) -> &[Shot] {
        &self.shots
    }
}

/// One training window after alignment and normalization.
#[derive(Debug, Clone)]
pub struct WindowSample {
    /// Originating shot.
    pub shot_id: u64,
    /// Flattened `[window_len, nfeatures]` values (channels + their
    /// derivatives).
    pub features: Vec<f32>,
    /// 1 when the window's shot disrupts within `horizon` after the
    /// window end (the DIII-D disruption-prediction label).
    pub label: i64,
}

/// One shot's aligned matrix: (shot_id, t_disrupt, matrix, ntime).
type AlignedShot = (u64, Option<f64>, Vec<f64>, usize);

/// Artifact flowing between fusion pipeline stages.
pub struct FusionData {
    shots: Vec<Shot>,
    aligned: Vec<AlignedShot>,
    /// Final windows.
    pub windows: Vec<WindowSample>,
    /// Fitted per-channel normalizers.
    pub normalizers: Vec<Normalizer>,
}

/// Disruption-label horizon in seconds: windows ending within this span
/// before t_disrupt are positive.
pub(crate) const LABEL_HORIZON_S: f64 = 0.25;

/// Stage body: drop shots with fewer than 2 live channels (cannot align
/// a useful feature matrix from one signal).
fn extract_stage(mut data: FusionData, c: &mut StageCounters) -> Result<FusionData, String> {
    data.shots.retain(|s| s.channels.len() >= 2);
    let samples: usize = data
        .shots
        .iter()
        .flat_map(|s| s.channels.iter().map(|ch| ch.values.len()))
        .sum();
    c.records = data.shots.len() as u64;
    c.bytes = (samples * 16) as u64;
    Ok(data)
}

/// Stage body: resample every shot's channels onto the common clock.
fn align_stage(
    cfg: &FusionConfig,
    mut data: FusionData,
    c: &mut StageCounters,
) -> Result<FusionData, String> {
    let aligned = par_map(&data.shots, |shot| {
        let t_end = shot
            .channels
            .iter()
            .filter_map(|ch| ch.times.last().copied())
            .fold(f64::INFINITY, f64::min);
        let t_start = shot
            .channels
            .iter()
            .filter_map(|ch| ch.times.first().copied())
            .fold(f64::NEG_INFINITY, f64::max);
        let clock = Clock::covering(t_start, t_end, cfg.clock_hz)
            .map_err(|e| format!("shot {}: {e}", shot.id))?;
        let (matrix, _names) =
            align_channels(&shot.channels, &clock).map_err(|e| format!("shot {}: {e}", shot.id))?;
        Ok((shot.id, shot.t_disrupt, matrix, clock.len))
    });
    data.aligned = aligned.into_iter().collect::<Result<_, String>>()?;
    c.records = data.aligned.len() as u64;
    c.bytes = data
        .aligned
        .iter()
        .map(|(_, _, m, _)| (m.len() * 8) as u64)
        .sum();
    Ok(data)
}

/// Stage body: per-shot, per-channel robust scaling, derivative
/// features, fixed windows and disruption labels. Align produced
/// matrices with ncols = live channels (they vary with dropout), so
/// each shot is normalized and windowed on its own columns — one
/// [`par_map`] item per shot, its windows concatenated in shot order.
/// The first shot's normalizers are the ones kept. The aligned values
/// left missing, out of all of them, go on record.
fn normalize_stage(
    cfg: &FusionConfig,
    mut data: FusionData,
    c: &mut StageCounters,
) -> Result<FusionData, String> {
    if cfg.window_len == 0 || cfg.window_stride == 0 {
        let msg = "window_len, stride must be positive";
        return Err(TransformError::InvalidInput(msg.into()).to_string());
    }
    let values: usize = data.aligned.iter().map(|(_, _, m, _)| m.len()).sum();
    // The aligned matrices are this stage's to consume: each is
    // normalized in place and dropped once its windows are cut.
    let shots = par_map(std::mem::take(&mut data.aligned), |shot| {
        normalize_shot(cfg, shot)
    });
    let mut windows = Vec::new();
    let mut missing = 0;
    for shot in shots {
        let (normalizers, shot_windows, shot_missing) = shot?;
        if data.normalizers.is_empty() {
            data.normalizers = normalizers;
        }
        windows.extend(shot_windows);
        missing += shot_missing;
    }
    c.measure("windows", windows.len());
    c.measure(key::MISSING, missing);
    c.measure(key::VALUES, values);
    c.records = windows.len() as u64;
    c.bytes = windows.iter().map(|w| (w.features.len() * 4) as u64).sum();
    data.windows = windows;
    Ok(data)
}

/// [`normalize_stage`] on one aligned shot: its fitted normalizers, its
/// windows and its aligned values missing (none of them for a shot with
/// no channels).
fn normalize_shot(
    cfg: &FusionConfig,
    (shot_id, t_disrupt, mut matrix, ntime): AlignedShot,
) -> Result<(Vec<Normalizer>, Vec<WindowSample>, u64), String> {
    let nch = matrix.len().checked_div(ntime).unwrap_or(0);
    if nch == 0 {
        return Ok((Vec::new(), Vec::new(), 0));
    }
    // Per-shot, per-channel robust normalization by exact quartiles.
    let in_shot = |e: TransformError| format!("shot {shot_id}: {e}");
    let fitted = ColumnNormalizer::fit(Method::Robust, &matrix, nch).map_err(in_shot)?;
    fitted.apply(&mut matrix).map_err(in_shot)?;
    // Derivative features per channel (the DIII-D "derivative-based
    // features"): a feature row is the channels, then their
    // derivatives, converted to f32 once per tick — where the missing
    // values (NaN passes through normalization) are counted.
    let dt = 1.0 / cfg.clock_hz;
    let nfeat = nch * 2;
    let mut rows = vec![0.0f32; ntime * nfeat];
    let mut missing = 0u64;
    for (row, values) in rows.chunks_exact_mut(nfeat).zip(matrix.chunks_exact(nch)) {
        for (dst, &x) in row.iter_mut().zip(values) {
            *dst = x as f32;
            missing += u64::from(x.is_nan());
        }
    }
    for ch in 0..nch {
        let col: Vec<f64> = matrix.chunks_exact(nch).map(|row| row[ch]).collect();
        let deriv = derivative(&col, dt).map_err(|e| format!("{e}"))?;
        for (row, &d) in rows.chunks_exact_mut(nfeat).zip(&deriv) {
            row[nch + ch] = d as f32;
        }
    }
    // Fixed windows: each is a copy of its rows. A window with a NaN
    // in it is dropped; the label clock runs on each window's own
    // index, so a dropped window moves no later window's end.
    let mut windows = Vec::new();
    for (index, window) in rows
        .windows(cfg.window_len * nfeat)
        .step_by(cfg.window_stride * nfeat)
        .enumerate()
    {
        if window.iter().any(|v| v.is_nan()) {
            continue;
        }
        // Window end time on the common clock.
        let end_tick = index * cfg.window_stride + cfg.window_len;
        let t_end = end_tick as f64 / cfg.clock_hz;
        let label = match t_disrupt {
            Some(td) => {
                if t_end > td {
                    continue; // post-disruption data is unusable
                }
                (td - t_end <= LABEL_HORIZON_S) as i64
            }
            None => 0,
        };
        windows.push(WindowSample {
            shot_id,
            features: window.to_vec(),
            label,
        });
    }
    Ok((fitted.columns().to_vec(), windows, missing))
}

/// Stage body: windows become TFRecord-framed `tf.train.Example`s,
/// split by *shot* key so no shot straddles splits. A window is labeled
/// when its disruption label is 0 or 1.
fn shard_stage(
    cfg: &FusionConfig,
    sink: &dyn StorageSink,
    prefix: &str,
    data: FusionData,
    c: &mut StageCounters,
) -> Result<FusionData, String> {
    let records: Vec<(String, Vec<u8>)> = par_map(&data.windows, |w| {
        let (label, shot_id) = ([w.label], [w.shot_id as i64]);
        let features = [
            ("features", FeatureRef::Floats(&w.features)),
            ("label", FeatureRef::Ints(&label)),
            ("shot_id", FeatureRef::Ints(&shot_id)),
        ];
        let mut example = Vec::new();
        Example::encode_into(&mut example, features);
        let mut framed = Vec::with_capacity(example.len() + 16);
        tfrecord::write_record(&mut framed, &example);
        (format!("shot-{}", w.shot_id), framed)
    });
    c.records = data.windows.len() as u64;
    c.bytes = records.iter().map(|(_, rec)| rec.len() as u64).sum();
    let labeled = data.windows.iter().filter(|w| (0..=1).contains(&w.label));
    c.measure(key::RECORDS, records.len());
    c.measure(key::LABELED, labeled.count());
    let parts = partition(records, cfg.seed, cfg.fractions).map_err(|e| e.to_string())?;
    let write = crate::record_shards(sink, prefix, cfg.shard_bytes);
    crate::write_splits(c, parts, write)?;
    Ok(data)
}

/// The stages of [`stage_graph`], in order.
const STEPS: [TemplateStep; 4] = [
    TemplateStep::new("extract", S::Ingest),
    TemplateStep::new("align", S::Preprocess),
    TemplateStep::new("normalize", S::Transform),
    TemplateStep::new("shard", S::Shard),
];

/// The fusion template (§3.2): `extract -> align -> normalize -> shard`.
pub const TEMPLATE: DomainTemplate = DomainTemplate {
    domain: "fusion",
    steps: &STEPS,
    alignment: Some("clock_hz"),
    requires_anonymization: false,
};

/// The fusion stage graph, declared once for whatever flows through
/// it: a bare [`FusionData`] (pipeline `fusion`, shards under `fusion/`)
/// or a batch [`Member`] (`fusion-batch`, `fusion/m<member>/`).
fn stage_graph<I: StageItem<FusionData>>(
    cfg: &FusionConfig,
    sink: Arc<dyn StorageSink>,
    ledger: Arc<Ledger>,
) -> Pipeline<I> {
    let cfg_align = cfg.clone();
    let cfg_norm = cfg.clone();
    let cfg_shard = cfg.clone();
    // No raw blob names the in-memory shot store: extract declares what
    // generated it.
    let store = [
        ("shots", cfg.shots.to_string()),
        ("shot_seconds", cfg.shot_seconds.to_string()),
        ("disruption_fraction", cfg.disruption_fraction.to_string()),
        ("channel_dropout", cfg.channel_dropout.to_string()),
        ("store_seed", cfg.seed.to_string()),
    ];
    let clock_hz = ("clock_hz", cfg.clock_hz.to_string());
    let windows = [
        ("method", "robust-exact+derivative".to_string()),
        clock_hz.clone(),
        ("window_len", cfg.window_len.to_string()),
        ("window_stride", cfg.window_stride.to_string()),
    ];
    let shard_config = [("shard_bytes", cfg.shard_bytes.to_string())]
        .into_iter()
        .chain(crate::split_config(cfg.seed, cfg.fractions));
    let [extract, align, norm, shard] = STEPS;

    Pipeline::builder(&I::pipeline_name(TEMPLATE.domain))
        .ledger(ledger)
        .configured_stage(extract.name, extract.kind, store, |item: I, c| {
            item.try_map(|data| extract_stage(data, c))
        })
        .configured_stage(align.name, align.kind, [clock_hz], move |item: I, c| {
            item.try_map(|data| align_stage(&cfg_align, data, c))
        })
        .configured_stage(norm.name, norm.kind, windows, move |item: I, c| {
            item.try_map(|data| normalize_stage(&cfg_norm, data, c))
        })
        .configured_stage(shard.name, shard.kind, shard_config, move |item: I, c| {
            let prefix = item.shard_prefix(TEMPLATE.domain);
            item.try_map(|data| shard_stage(&cfg_shard, sink.as_ref(), &prefix, data, c))
        })
        .build()
}

/// Build the fusion pipeline over one [`FusionData`].
pub fn build_pipeline(
    cfg: &FusionConfig,
    sink: Arc<dyn StorageSink>,
    ledger: Arc<Ledger>,
) -> Pipeline<FusionData> {
    stage_graph(cfg, sink, ledger)
}

/// Build the same pipeline over batch [`Member`]s.
pub fn build_batch_pipeline(
    cfg: &FusionConfig,
    sink: Arc<dyn StorageSink>,
    ledger: Arc<Ledger>,
) -> Pipeline<Member<FusionData>> {
    stage_graph(cfg, sink, ledger)
}

/// Move the shots out of the store into the pipeline's input artifact.
pub(crate) fn ingest(store: ShotStore) -> FusionData {
    FusionData {
        shots: store.shots,
        aligned: vec![],
        windows: vec![],
        normalizers: vec![],
    }
}

/// One batch member's input: a member-seeded campaign of `cfg.shots`
/// shots — not one shot, because the shot-keyed split is a property of
/// the set.
pub fn member_input(cfg: &FusionConfig, member: usize) -> FusionData {
    ingest(ShotStore::generate(&FusionConfig {
        seed: cfg.seed.wrapping_add(member as u64),
        ..cfg.clone()
    }))
}

/// Run the complete fusion archetype.
pub fn run(cfg: &FusionConfig, sink: Arc<dyn StorageSink>) -> Result<DomainRun, DomainError> {
    crate::run_archetype(
        &TEMPLATE,
        ".shard",
        sink.as_ref(),
        || Ok(ShotStore::generate(cfg)),
        |store, _| Ok(ingest(store)),
        |ledger| build_pipeline(cfg, sink.clone(), ledger),
        |out| DatasetManifest {
            name: "diii-d-synth".into(),
            domain: TEMPLATE.domain.into(),
            modality: Modality::TimeSeries,
            schema: CHANNELS
                .iter()
                .map(|(name, _, unit)| VariableSpec::new(name, DType::F32, unit, &[cfg.window_len]))
                .collect(),
            records: out.windows.len() as u64,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use drai_core::ReadinessLevel;
    use drai_io::shard::ShardReader;
    use drai_io::sink::MemSink;

    fn small_cfg() -> FusionConfig {
        FusionConfig {
            shots: 12,
            shot_seconds: 1.0,
            disruption_fraction: 0.4,
            channel_dropout: 0.15,
            clock_hz: 500.0,
            window_len: 32,
            window_stride: 16,
            seed: 42,
            shard_bytes: 256 * 1024,
            ..FusionConfig::default()
        }
    }

    #[test]
    fn shot_store_has_pathologies() {
        let cfg = FusionConfig {
            shots: 60,
            ..small_cfg()
        };
        let store = ShotStore::generate(&cfg);
        assert_eq!(store.shots().len(), 60);
        let disrupted = store
            .shots()
            .iter()
            .filter(|s| s.t_disrupt.is_some())
            .count();
        assert!(disrupted > 10 && disrupted < 40, "disrupted {disrupted}");
        let dead_channels: usize = store
            .shots()
            .iter()
            .map(|s| CHANNELS.len() - s.channels.len())
            .sum();
        assert!(dead_channels > 0, "dropout never fired");
        // Multirate: channels differ in length.
        let shot = store
            .shots()
            .iter()
            .find(|s| s.channels.len() >= 3)
            .unwrap();
        let lens: Vec<usize> = shot.channels.iter().map(|c| c.values.len()).collect();
        assert!(lens.windows(2).any(|w| w[0] != w[1]), "{lens:?}");
        assert!(store.shots().iter().any(|s| s.id == 170_000));
        assert_eq!(store.shots().len(), 60);
    }

    #[test]
    fn end_to_end_produces_tfrecords() {
        let cfg = small_cfg();
        let sink = Arc::new(MemSink::new());
        let run = run(&cfg, sink.clone()).unwrap();
        assert_eq!(
            run.stages.iter().map(|s| s.kind).collect::<Vec<_>>(),
            vec![S::Ingest, S::Preprocess, S::Transform, S::Shard]
        );
        let assessment = run.assess();
        assert_eq!(assessment.overall, ReadinessLevel::FullyAiReady);
        assert!(!run.shard_files.is_empty());

        // Decode a shard: every record is a TFRecord-framed Example with
        // the right feature width.
        let reader = ShardReader::open("fusion/train", sink.as_ref()).unwrap();
        let records = reader.read_all().unwrap();
        assert!(!records.is_empty());
        let frames = tfrecord::read_records(&records[0]).unwrap();
        let ex = Example::decode(&frames[0]).unwrap();
        let feats = ex.floats("features").unwrap();
        assert_eq!(feats.len() % cfg.window_len, 0);
        let label = ex.ints("label").unwrap()[0];
        assert!(label == 0 || label == 1);
        assert!(ex.ints("shot_id").unwrap()[0] >= 170_000);
    }

    #[test]
    fn shot_level_split_integrity() {
        let cfg = FusionConfig {
            shots: 30,
            ..small_cfg()
        };
        let sink = Arc::new(MemSink::new());
        run(&cfg, sink.clone()).unwrap();
        // Gather shot ids per split; intersection must be empty.
        let mut split_shots: Vec<std::collections::BTreeSet<i64>> = vec![Default::default(); 3];
        for (idx, split) in ["train", "val", "test"].iter().enumerate() {
            let prefix = format!("fusion/{split}");
            if let Ok(reader) = ShardReader::open(&prefix, sink.as_ref()) {
                for records in
                    (0..reader.manifest().shards.len()).map(|i| reader.read_shard(i).unwrap())
                {
                    for rec in records {
                        for frame in tfrecord::read_records(&rec).unwrap() {
                            let ex = Example::decode(&frame).unwrap();
                            split_shots[idx].insert(ex.ints("shot_id").unwrap()[0]);
                        }
                    }
                }
            }
        }
        for a in 0..3 {
            for b in a + 1..3 {
                assert!(
                    split_shots[a].is_disjoint(&split_shots[b]),
                    "shots leak between splits {a} and {b}"
                );
            }
        }
    }

    #[test]
    fn disruption_labels_present_and_causal() {
        let cfg = FusionConfig {
            shots: 40,
            disruption_fraction: 0.8,
            ..small_cfg()
        };
        let store = ShotStore::generate(&cfg);
        let sink = Arc::new(MemSink::new());
        let ledger = Arc::new(Ledger::new());
        let pipeline = build_pipeline(&cfg, sink, ledger);
        let out = pipeline.run(member_input(&cfg, 0)).unwrap();
        let windows = &out.output.windows;
        assert!(!windows.is_empty());
        let positives = windows.iter().filter(|w| w.label == 1).count();
        assert!(positives > 0, "no positive disruption windows generated");
        // No window from a disrupted shot extends past its disruption.
        for w in windows {
            let shot = store.shots().iter().find(|s| s.id == w.shot_id).unwrap();
            if shot.t_disrupt.is_some() {
                // Post-disruption windows were skipped; feature values of
                // kept windows are finite.
                assert!(w.features.iter().all(|v| v.is_finite()));
            }
        }
    }

    /// Type-7 quantile `p` of a sorted, NaN-free, finite column.
    fn sorted_quantile(sorted: &[f64], p: f64) -> f64 {
        let h = p * (sorted.len() - 1) as f64;
        let (lo, frac) = (h.floor() as usize, h - h.floor());
        match sorted.get(lo + 1) {
            Some(&hi) if frac > 0.0 && hi != sorted[lo] => sorted[lo] + (hi - sorted[lo]) * frac,
            _ => sorted[lo],
        }
    }

    #[test]
    fn kept_normalizers_are_the_exact_quartiles_of_shot_0() {
        let cfg = small_cfg();
        let mut c = StageCounters::default();
        let data = extract_stage(member_input(&cfg, 0), &mut c).unwrap();
        let data = align_stage(&cfg, data, &mut c).unwrap();
        let (_, _, matrix, ntime) = &data.aligned[0];
        let nch = matrix.len() / ntime;
        let pipeline = build_pipeline(&cfg, Arc::new(MemSink::new()), Arc::new(Ledger::new()));
        let kept = pipeline
            .run(member_input(&cfg, 0))
            .unwrap()
            .output
            .normalizers;
        assert_eq!(kept.len(), nch);
        for (ch, normalizer) in kept.iter().enumerate() {
            let mut column: Vec<f64> = matrix
                .chunks_exact(nch)
                .map(|row| row[ch])
                .filter(|v| !v.is_nan())
                .collect();
            column.sort_by(f64::total_cmp);
            let median = sorted_quantile(&column, 0.5);
            let iqr = sorted_quantile(&column, 0.75) - sorted_quantile(&column, 0.25);
            assert_eq!(normalizer.method(), Method::Robust);
            assert_eq!(
                normalizer.offset.to_bits(),
                median.to_bits(),
                "channel {ch}"
            );
            assert_eq!(normalizer.scale.to_bits(), iqr.to_bits(), "channel {ch}");
        }
    }

    #[test]
    fn a_dropped_window_does_not_shift_the_label_clock() {
        // 40 ticks at 1 kHz, two channels, ten windows of 4 ticks. Window
        // 0 holds a NaN; the shot disrupts at 39.5 ms, inside window 9,
        // which ends at 40 ms and must be cut.
        let cfg = FusionConfig {
            clock_hz: 1_000.0,
            window_len: 4,
            window_stride: 4,
            ..small_cfg()
        };
        let mut matrix: Vec<f64> = (0..40).flat_map(|t| [t as f64, (t * t) as f64]).collect();
        matrix[2] = f64::NAN; // channel 0 at tick 1
        let (normalizers, windows, missing) =
            normalize_shot(&cfg, (170_000, Some(0.0395), matrix, 40)).unwrap();
        assert_eq!(missing, 1);
        // Windows 1 to 8: the last one starts at tick 32.
        assert_eq!(windows.len(), 8);
        let tick_32 = normalizers[0].apply(32.0) as f32;
        assert_eq!(windows[7].features[0], tick_32);
        assert!(windows.iter().all(|w| w.label == 1));
    }
}
