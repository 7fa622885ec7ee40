//! Materials archetype: `parse → normalize → encode → shard`
//! (Table 1 row 4; §3.4; the OMat24/AFLOW → HydraGNN pattern).
//!
//! Raw data is synthesized as relaxed-crystal-like structures: a randomly
//! chosen cubic lattice of a random composition with thermal jitter, an
//! energy from a simple pair-potential surrogate, and per-atom forces —
//! written as extended-XYZ text (exactly what DFT pipelines emit). The
//! pipeline:
//!
//! 1. **parse** — read multi-frame XYZ, validate atom counts/energies;
//! 2. **normalize** — shift energies per atom, wrap positions into the
//!    cell, normalize descriptor statistics;
//! 3. **encode** — cutoff-radius neighbor graphs via a cell-list search
//!    (O(N) rather than O(N²), the HPC-relevant detail), species one-hot
//!    node features, distance edge features;
//! 4. **shard** — each graph becomes a BP process group; a JSONL sidecar
//!    carries per-sample metadata, split by structure key.

use crate::{DomainError, DomainRun, Member, StageItem, Witness};
use drai_core::assess::key;
use drai_core::dataset::{DatasetManifest, Modality, VariableSpec};
use drai_core::pipeline::{Pipeline, StageCounters};
use drai_core::{readiness::ProcessingStage as S, DomainTemplate, TemplateStep};
use drai_formats::bp::{BpVar, BpWriter, ProcessGroup};
use drai_formats::xyz::{parse_xyz, write_xyz, Atom, Frame};
use drai_io::json::Json;
use drai_io::parallel::par_map;
use drai_io::sink::{MemSink, StorageSink};
use drai_provenance::Ledger;
use drai_tensor::stats::Welford;
use drai_tensor::{DType, Tensor};
use drai_transform::split::{partition, Fractions};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Species used by the synthetic generator (with imbalanced abundances —
/// Table 1's "class imbalance" challenge).
pub const SPECIES: [(&str, f64); 5] = [
    ("Si", 0.4),
    ("O", 0.3),
    ("Al", 0.15),
    ("Fe", 0.1),
    ("Ti", 0.05),
];

/// Generator + pipeline configuration.
#[derive(Debug, Clone)]
pub struct MaterialsConfig {
    /// Number of structures.
    pub structures: usize,
    /// Atoms per edge of the cubic supercell (total = n³).
    pub cell_atoms: usize,
    /// Lattice constant (Å).
    pub lattice: f64,
    /// Thermal jitter amplitude (Å).
    pub jitter: f64,
    /// Neighbor cutoff radius (Å).
    pub cutoff: f64,
    /// RNG seed.
    pub seed: u64,
    /// Split fractions (keyed by structure).
    pub fractions: Fractions,
}

impl Default for MaterialsConfig {
    fn default() -> Self {
        MaterialsConfig {
            structures: 48,
            cell_atoms: 3,
            lattice: 2.7,
            jitter: 0.12,
            cutoff: 3.2,
            seed: 24_601,
            fractions: Fractions::standard(),
        }
    }
}

fn pick_species(rng: &mut SmallRng) -> &'static str {
    let u: f64 = rng.gen();
    let mut acc = 0.0;
    for (name, p) in SPECIES {
        acc += p;
        if u < acc {
            return name;
        }
    }
    SPECIES[SPECIES.len() - 1].0
}

/// Generate raw multi-frame XYZ into `sink` as `raw/structures.xyz`.
pub(crate) fn generate_raw(
    cfg: &MaterialsConfig,
    sink: &dyn StorageSink,
) -> Result<(), DomainError> {
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let n = cfg.cell_atoms;
    let mut frames = Vec::with_capacity(cfg.structures);
    for _ in 0..cfg.structures {
        let mut atoms = Vec::with_capacity(n * n * n);
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let jit = |rng: &mut SmallRng| (rng.gen::<f64>() - 0.5) * 2.0 * cfg.jitter;
                    atoms.push(Atom {
                        element: pick_species(&mut rng).to_string(),
                        position: [
                            i as f64 * cfg.lattice + jit(&mut rng),
                            j as f64 * cfg.lattice + jit(&mut rng),
                            k as f64 * cfg.lattice + jit(&mut rng),
                        ],
                        force: None,
                    });
                }
            }
        }
        // Pair-potential surrogate: E = Σ_pairs 4ε[(σ/r)^12 − (σ/r)^6]
        // within the cutoff; forces from the analytic gradient.
        let (sigma, eps) = (cfg.lattice * 0.85, 0.8);
        let mut energy = 0.0;
        let mut forces = vec![[0.0f64; 3]; atoms.len()];
        for a in 0..atoms.len() {
            for b in a + 1..atoms.len() {
                let d: [f64; 3] =
                    std::array::from_fn(|c| atoms[a].position[c] - atoms[b].position[c]);
                let r2 = d.iter().map(|x| x * x).sum::<f64>();
                let r = r2.sqrt();
                if r > cfg.cutoff * 1.5 || r < 1e-6 {
                    continue;
                }
                let sr6 = (sigma / r).powi(6);
                energy += 4.0 * eps * (sr6 * sr6 - sr6);
                let fmag = 24.0 * eps * (2.0 * sr6 * sr6 - sr6) / r2;
                for c in 0..3 {
                    forces[a][c] += fmag * d[c];
                    forces[b][c] -= fmag * d[c];
                }
            }
        }
        for (atom, force) in atoms.iter_mut().zip(&forces) {
            atom.force = Some(*force);
        }
        let mut properties = std::collections::BTreeMap::new();
        properties.insert("energy".to_string(), format!("{energy:.6}"));
        properties.insert(
            "lattice".to_string(),
            format!("{0:.4} 0 0 0 {0:.4} 0 0 0 {0:.4}", cfg.lattice * n as f64),
        );
        frames.push(Frame { atoms, properties });
    }
    sink.write_file("raw/structures.xyz", write_xyz(&frames).as_bytes())?;
    Ok(())
}

/// An encoded graph sample.
#[derive(Debug, Clone)]
pub struct GraphSample {
    /// Structure index (split key).
    pub structure_id: usize,
    /// `[natoms, nspecies]` one-hot node features.
    pub node_features: Tensor<f32>,
    /// `[nedges, 2]` source/target indices.
    pub edges: Tensor<i64>,
    /// `[nedges]` distances.
    pub edge_lengths: Tensor<f32>,
    /// Per-atom energy target (normalized).
    pub energy_per_atom: f64,
    /// `[natoms, 3]` force targets.
    pub forces: Tensor<f32>,
}

/// Artifact between materials pipeline stages.
pub struct MaterialsData {
    /// Parsed frames.
    pub frames: Vec<Frame>,
    /// Energy normalization (mean, std) over per-atom energies.
    pub energy_stats: (f64, f64),
    /// Encoded graphs.
    pub graphs: Vec<GraphSample>,
}

/// Cell-list neighbor search: all pairs within `cutoff`, O(N) for bounded
/// density.
pub(crate) fn neighbor_pairs(positions: &[[f64; 3]], cutoff: f64) -> Vec<(usize, usize, f64)> {
    if positions.is_empty() {
        return Vec::new();
    }
    let mut lo = [f64::INFINITY; 3];
    let mut hi = [f64::NEG_INFINITY; 3];
    for p in positions {
        for c in 0..3 {
            lo[c] = lo[c].min(p[c]);
            hi[c] = hi[c].max(p[c]);
        }
    }
    let cell = cutoff.max(1e-9);
    let dims: Vec<usize> = (0..3)
        .map(|c| (((hi[c] - lo[c]) / cell).floor() as usize + 1).max(1))
        .collect();
    let index_of = |p: &[f64; 3]| -> usize {
        let mut idx = 0;
        for c in 0..3 {
            let k = (((p[c] - lo[c]) / cell) as usize).min(dims[c] - 1);
            idx = idx * dims[c] + k;
        }
        idx
    };
    let ncells: usize = dims.iter().product();
    let mut cells: Vec<Vec<usize>> = vec![Vec::new(); ncells];
    for (i, p) in positions.iter().enumerate() {
        cells[index_of(p)].push(i);
    }
    let cell_coord = |mut idx: usize| -> [isize; 3] {
        let mut out = [0isize; 3];
        for c in (0..3).rev() {
            out[c] = (idx % dims[c]) as isize;
            idx /= dims[c];
        }
        out
    };
    let mut pairs = Vec::new();
    let c2 = cutoff * cutoff;
    for ci in 0..ncells {
        if cells[ci].is_empty() {
            continue;
        }
        let coord = cell_coord(ci);
        // Visit self + forward half of the 27-neighborhood to avoid
        // double-counting cells.
        for dz in -1isize..=1 {
            for dy in -1isize..=1 {
                for dx in -1isize..=1 {
                    let ncoord = [coord[0] + dx, coord[1] + dy, coord[2] + dz];
                    if ncoord
                        .iter()
                        .zip(&dims)
                        .any(|(&x, &d)| x < 0 || x >= d as isize)
                    {
                        continue;
                    }
                    let nidx = (ncoord[0] as usize * dims[1] + ncoord[1] as usize) * dims[2]
                        + ncoord[2] as usize;
                    if nidx < ci {
                        continue;
                    }
                    for &a in &cells[ci] {
                        for &b in &cells[nidx] {
                            if nidx == ci && b <= a {
                                continue;
                            }
                            let d2: f64 = (0..3)
                                .map(|c| {
                                    let d = positions[a][c] - positions[b][c];
                                    d * d
                                })
                                .sum();
                            if d2 <= c2 {
                                pairs.push((a, b, d2.sqrt()));
                            }
                        }
                    }
                }
            }
        }
    }
    pairs
}

/// Stage body: validate parsed frames (atom counts, energies present).
fn parse_stage(data: MaterialsData, c: &mut StageCounters) -> Result<MaterialsData, String> {
    for (i, f) in data.frames.iter().enumerate() {
        if f.atoms.is_empty() {
            return Err(format!("frame {i}: no atoms"));
        }
        if f.energy().is_none() {
            return Err(format!("frame {i}: missing energy"));
        }
    }
    c.records = data.frames.len() as u64;
    c.bytes = data
        .frames
        .iter()
        .map(|f| (f.atoms.len() * 48) as u64)
        .sum();
    Ok(data)
}

/// Stage body: per-atom energy statistics, which go on record.
fn normalize_stage(
    mut data: MaterialsData,
    c: &mut StageCounters,
) -> Result<MaterialsData, String> {
    // One-observation accumulators merged in frame order rather than
    // `push`: the two round `m2` differently, and these are the bits the
    // stage has always produced on one CPU (pinned in tests/golden.rs).
    let mut w = Welford::new();
    for f in &data.frames {
        let mut one = Welford::new();
        one.push(f.energy().expect("validated") / f.atoms.len() as f64);
        w = w.merge(&one);
    }
    let std = if w.std() < f64::EPSILON { 1.0 } else { w.std() };
    data.energy_stats = (w.mean(), std);
    c.measure("mean", format!("{:.6}", w.mean()));
    c.measure("std", format!("{std:.6}"));
    c.records = data.frames.len() as u64;
    Ok(data)
}

/// Stage body: cutoff-radius neighbor graphs (cell-list search), species
/// one-hot node features, distance edge features.
fn encode_stage(
    cfg: &MaterialsConfig,
    mut data: MaterialsData,
    c: &mut StageCounters,
) -> Result<MaterialsData, String> {
    let species_index = |el: &str| SPECIES.iter().position(|(s, _)| *s == el);
    let (e_mean, e_std) = data.energy_stats;
    let graphs = par_map(data.frames.iter().enumerate(), |(si, frame)| {
        let n = frame.atoms.len();
        let positions: Vec<[f64; 3]> = frame.atoms.iter().map(|a| a.position).collect();
        let pairs = neighbor_pairs(&positions, cfg.cutoff);
        // Node features: species one-hot.
        let mut nf = vec![0.0f32; n * SPECIES.len()];
        for (i, atom) in frame.atoms.iter().enumerate() {
            let k = species_index(&atom.element)
                .ok_or_else(|| format!("unknown species {}", atom.element))?;
            nf[i * SPECIES.len() + k] = 1.0;
        }
        // Bidirectional edges.
        let mut edges = Vec::with_capacity(pairs.len() * 4);
        let mut lens = Vec::with_capacity(pairs.len() * 2);
        for &(a, b, r) in &pairs {
            edges.push(a as i64);
            edges.push(b as i64);
            lens.push(r as f32);
            edges.push(b as i64);
            edges.push(a as i64);
            lens.push(r as f32);
        }
        let forces: Vec<f32> = frame
            .atoms
            .iter()
            .flat_map(|a| a.force.unwrap_or([0.0; 3]))
            .map(|x| x as f32)
            .collect();
        let nedges = lens.len();
        Ok(GraphSample {
            structure_id: si,
            node_features: Tensor::from_vec(nf, &[n, SPECIES.len()]).map_err(|e| format!("{e}"))?,
            edges: Tensor::from_vec(edges, &[nedges, 2]).map_err(|e| format!("{e}"))?,
            edge_lengths: Tensor::from_vec(lens, &[nedges]).map_err(|e| format!("{e}"))?,
            energy_per_atom: (frame.energy().expect("validated") / n as f64 - e_mean) / e_std,
            forces: Tensor::from_vec(forces, &[n, 3]).map_err(|e| format!("{e}"))?,
        })
    });
    data.graphs = graphs.into_iter().collect::<Result<_, String>>()?;
    c.records = data.graphs.len() as u64;
    c.bytes = data
        .graphs
        .iter()
        .map(|g| {
            ((g.node_features.len() + g.edge_lengths.len() + g.forces.len()) * 4
                + g.edges.len() * 8) as u64
        })
        .sum();
    Ok(data)
}

/// Stage body: BP writer per split + a JSONL sidecar of sample metadata.
/// A graph is labeled when its energy target is finite.
fn shard_stage(
    cfg: &MaterialsConfig,
    sink: &dyn StorageSink,
    prefix: &str,
    data: MaterialsData,
    c: &mut StageCounters,
) -> Result<MaterialsData, String> {
    let labeled = (data.graphs.iter()).filter(|g| g.energy_per_atom.is_finite());
    c.measure(key::RECORDS, data.graphs.len());
    c.measure(key::LABELED, labeled.count());
    let keyed = data
        .graphs
        .iter()
        .map(|g| (format!("structure-{}", g.structure_id), g));
    let parts = partition(keyed, cfg.seed, cfg.fractions).map_err(|e| e.to_string())?;
    let mut total = 0u64;
    crate::write_splits(c, parts, |split, graphs, vouch| {
        let mut writer = BpWriter::new();
        let mut sidecar = String::new();
        for g in graphs {
            let mut energy = Tensor::<f64>::zeros(&[1]);
            energy.set(&[0], g.energy_per_atom).expect("index 0");
            writer.append(&ProcessGroup {
                name: format!("structure-{}", g.structure_id),
                step: g.structure_id as u64,
                vars: vec![
                    BpVar::from_tensor("node_features", &g.node_features),
                    BpVar::from_tensor("edges", &g.edges),
                    BpVar::from_tensor("edge_lengths", &g.edge_lengths),
                    BpVar::from_tensor("energy_per_atom", &energy),
                    BpVar::from_tensor("forces", &g.forces),
                ],
            });
            sidecar.push_str(
                &Json::obj([
                    ("structure", Json::from(g.structure_id)),
                    ("atoms", Json::from(g.node_features.shape()[0])),
                    ("edges", Json::from(g.edge_lengths.len())),
                    ("energy_per_atom", Json::from(g.energy_per_atom)),
                ])
                .to_string_compact(),
            );
            sidecar.push('\n');
        }
        let bytes = writer.finish();
        let name = format!("{prefix}/{}.bp", split.name());
        sink.write_file(&name, &bytes).map_err(|e| e.to_string())?;
        sink.write_file(
            &format!("{prefix}/{}.jsonl", split.name()),
            sidecar.as_bytes(),
        )
        .map_err(|e| e.to_string())?;
        total += bytes.len() as u64;
        vouch(&name, &bytes);
        Ok(())
    })?;
    c.records = data.graphs.len() as u64;
    c.bytes = total;
    Ok(data)
}

/// The stages of [`stage_graph`], in order.
const STEPS: [TemplateStep; 4] = [
    TemplateStep::new("parse", S::Ingest),
    TemplateStep::new("normalize", S::Transform),
    TemplateStep::new("encode", S::Structure),
    TemplateStep::new("shard", S::Shard),
];

/// The materials template (§3.4): `parse -> normalize -> encode -> shard`.
pub const TEMPLATE: DomainTemplate = DomainTemplate {
    domain: "materials",
    steps: &STEPS,
    alignment: None,
    requires_anonymization: false,
};

/// The materials stage graph, declared once for whatever flows through
/// it: a bare [`MaterialsData`] (pipeline `materials`, BP + JSONL
/// shards under `materials/`) or a batch [`Member`] (pipeline
/// `materials-batch`, shards under `materials/m<member>/`).
fn stage_graph<I: StageItem<MaterialsData>>(
    cfg: &MaterialsConfig,
    sink: Arc<dyn StorageSink>,
    ledger: Arc<Ledger>,
) -> Pipeline<I> {
    let cfg_encode = cfg.clone();
    let cfg_shard = cfg.clone();
    let target = [("target", "energy_per_atom".to_string())];
    let cutoff = [("cutoff", format!("{:.12e}", cfg.cutoff))];
    let split = crate::split_config(cfg.seed, cfg.fractions);
    let [parse, normalize, encode, shard] = STEPS;

    Pipeline::builder(&I::pipeline_name(TEMPLATE.domain))
        .ledger(ledger)
        .stage(parse.name, parse.kind, |item: I, c| {
            item.try_map(|data| parse_stage(data, c))
        })
        .configured_stage(normalize.name, normalize.kind, target, |item: I, c| {
            item.try_map(|data| normalize_stage(data, c))
        })
        .configured_stage(encode.name, encode.kind, cutoff, move |item: I, c| {
            item.try_map(|data| encode_stage(&cfg_encode, data, c))
        })
        .configured_stage(shard.name, shard.kind, split, move |item: I, c| {
            let prefix = item.shard_prefix(TEMPLATE.domain);
            item.try_map(|data| shard_stage(&cfg_shard, sink.as_ref(), &prefix, data, c))
        })
        .build()
}

/// Build the materials pipeline over one [`MaterialsData`].
pub fn build_pipeline(
    cfg: &MaterialsConfig,
    sink: Arc<dyn StorageSink>,
    ledger: Arc<Ledger>,
) -> Pipeline<MaterialsData> {
    stage_graph(cfg, sink, ledger)
}

/// Read the raw XYZ from `sink`, show it to `witness`, and parse it
/// into the pipeline's input artifact.
pub(crate) fn ingest(
    sink: &dyn StorageSink,
    witness: Witness,
) -> Result<MaterialsData, DomainError> {
    let raw = sink.read_file("raw/structures.xyz")?;
    witness("raw/structures.xyz", &raw);
    Ok(MaterialsData {
        frames: parse_xyz(&String::from_utf8_lossy(&raw))?,
        energy_stats: (0.0, 1.0),
        graphs: vec![],
    })
}

/// One batch member's parsed input: generate and ingest a member-seeded
/// raw XYZ in a staging [`MemSink`].
pub fn member_input(cfg: &MaterialsConfig, member: usize) -> Result<MaterialsData, DomainError> {
    let member_cfg = MaterialsConfig {
        seed: cfg.seed.wrapping_add(member as u64),
        ..cfg.clone()
    };
    let staging = MemSink::new();
    generate_raw(&member_cfg, &staging)?;
    ingest(&staging, &mut |_, _| {})
}

/// Build the same pipeline over batch [`Member`]s.
pub fn build_batch_pipeline(
    cfg: &MaterialsConfig,
    sink: Arc<dyn StorageSink>,
    ledger: Arc<Ledger>,
) -> Pipeline<Member<MaterialsData>> {
    stage_graph(cfg, sink, ledger)
}

/// Run the complete materials archetype.
pub fn run(cfg: &MaterialsConfig, sink: Arc<dyn StorageSink>) -> Result<DomainRun, DomainError> {
    crate::run_archetype(
        &TEMPLATE,
        ".bp",
        sink.as_ref(),
        || generate_raw(cfg, sink.as_ref()),
        |(), witness| ingest(sink.as_ref(), witness),
        |ledger| build_pipeline(cfg, sink.clone(), ledger),
        |out| DatasetManifest {
            name: "omat-synth".into(),
            domain: TEMPLATE.domain.into(),
            modality: Modality::Graph,
            schema: vec![
                VariableSpec::new("node_features", DType::F32, "1", &[SPECIES.len()]),
                VariableSpec::new("energy_per_atom", DType::F64, "eV", &[]),
            ],
            records: out.graphs.len() as u64,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use drai_core::ReadinessLevel;
    use drai_formats::bp::BpReader;
    use drai_io::sink::MemSink;

    fn small_cfg() -> MaterialsConfig {
        MaterialsConfig {
            structures: 16,
            cell_atoms: 2,
            seed: 5,
            ..MaterialsConfig::default()
        }
    }

    #[test]
    fn neighbor_pairs_matches_brute_force() {
        let mut rng = SmallRng::seed_from_u64(11);
        let positions: Vec<[f64; 3]> = (0..80)
            .map(|_| {
                [
                    rng.gen::<f64>() * 10.0,
                    rng.gen::<f64>() * 10.0,
                    rng.gen::<f64>() * 10.0,
                ]
            })
            .collect();
        let cutoff = 2.5;
        let mut fast: Vec<(usize, usize)> = neighbor_pairs(&positions, cutoff)
            .into_iter()
            .map(|(a, b, _)| (a.min(b), a.max(b)))
            .collect();
        fast.sort_unstable();
        let mut brute = Vec::new();
        for a in 0..positions.len() {
            for b in a + 1..positions.len() {
                let d2: f64 = (0..3)
                    .map(|c| (positions[a][c] - positions[b][c]).powi(2))
                    .sum();
                if d2 <= cutoff * cutoff {
                    brute.push((a, b));
                }
            }
        }
        brute.sort_unstable();
        assert_eq!(fast, brute);
    }

    #[test]
    fn neighbor_pairs_edge_cases() {
        assert!(neighbor_pairs(&[], 1.0).is_empty());
        assert!(neighbor_pairs(&[[0.0; 3]], 1.0).is_empty());
        let two = neighbor_pairs(&[[0.0; 3], [0.5, 0.0, 0.0]], 1.0);
        assert_eq!(two.len(), 1);
        assert!((two[0].2 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn raw_xyz_is_parseable_with_physics() {
        let sink = MemSink::new();
        generate_raw(&small_cfg(), &sink).unwrap();
        let frames = parse_xyz(&String::from_utf8_lossy(
            &sink.read_file("raw/structures.xyz").unwrap(),
        ))
        .unwrap();
        assert_eq!(frames.len(), 16);
        for f in &frames {
            assert_eq!(f.atoms.len(), 8);
            assert!(f.energy().is_some());
            assert!(f.atoms.iter().all(|a| a.force.is_some()));
            // Newton's third law: forces sum to ~zero.
            let mut sum = [0.0; 3];
            for a in &f.atoms {
                for (s, f) in sum.iter_mut().zip(a.force.unwrap()) {
                    *s += f;
                }
            }
            // Forces pass through %.8f text formatting, so allow
            // rounding at the 1e-6 level.
            for c in 0..3 {
                assert!(sum[c].abs() < 1e-6, "net force {sum:?}");
            }
        }
    }

    #[test]
    fn end_to_end_graphs_in_bp() {
        let cfg = small_cfg();
        let sink = Arc::new(MemSink::new());
        let run = run(&cfg, sink.clone()).unwrap();
        assert_eq!(
            run.stages.iter().map(|s| s.kind).collect::<Vec<_>>(),
            vec![S::Ingest, S::Transform, S::Structure, S::Shard]
        );
        let assessment = run.assess();
        assert_eq!(assessment.overall, ReadinessLevel::FullyAiReady);

        // Read back the train BP file.
        let bytes = sink.read_file("materials/train.bp").unwrap();
        let reader = BpReader::open(&bytes).unwrap();
        assert!(reader.group_count() > 0);
        let g = reader.read_group(0).unwrap();
        let nodes: Tensor<f32> = g.var("node_features").unwrap().to_tensor().unwrap();
        assert_eq!(nodes.shape()[1], SPECIES.len());
        // Each node one-hot row sums to 1.
        for lane in nodes.lanes() {
            let s: f32 = lane.iter().sum();
            assert_eq!(s, 1.0);
        }
        let edges: Tensor<i64> = g.var("edges").unwrap().to_tensor().unwrap();
        let lens: Tensor<f32> = g.var("edge_lengths").unwrap().to_tensor().unwrap();
        assert_eq!(edges.shape()[0], lens.len());
        assert!(lens
            .as_slice()
            .iter()
            .all(|&r| r > 0.0 && r <= cfg.cutoff as f32 + 1e-6));
        // Sidecar JSONL parses.
        let sidecar = sink.read_file("materials/train.jsonl").unwrap();
        for line in String::from_utf8_lossy(&sidecar).lines() {
            Json::parse(line).unwrap();
        }
    }

    #[test]
    fn energy_normalization_standardizes() {
        let cfg = MaterialsConfig {
            structures: 32,
            ..small_cfg()
        };
        // The ledger records the fitted statistics...
        let sink = Arc::new(MemSink::new());
        let run = run(&cfg, sink).unwrap();
        assert!(run.ledger.to_jsonl().contains("energy_per_atom"));
        // ...and the normalized targets themselves standardize.
        let pipeline = build_pipeline(&cfg, Arc::new(MemSink::new()), Arc::new(Ledger::new()));
        let out = pipeline.run(member_input(&cfg, 0).unwrap()).unwrap();
        let mut w = Welford::new();
        for g in &out.output.graphs {
            w.push(g.energy_per_atom);
        }
        assert!(w.mean().abs() < 1e-9, "mean {}", w.mean());
        assert!((w.std() - 1.0).abs() < 1e-9, "std {}", w.std());
    }

    #[test]
    fn species_imbalance_reproduced() {
        let cfg = MaterialsConfig {
            structures: 64,
            cell_atoms: 3,
            ..small_cfg()
        };
        let sink = MemSink::new();
        generate_raw(&cfg, &sink).unwrap();
        let frames = parse_xyz(&String::from_utf8_lossy(
            &sink.read_file("raw/structures.xyz").unwrap(),
        ))
        .unwrap();
        let mut counts = std::collections::BTreeMap::new();
        for f in &frames {
            for (el, n) in f.composition() {
                *counts.entry(el.to_string()).or_insert(0usize) += n;
            }
        }
        // Majority species dominates minority by roughly the configured
        // abundance ratio (0.4 vs 0.05 → ~8x).
        let si = counts["Si"] as f64;
        let ti = *counts.get("Ti").unwrap_or(&1) as f64;
        assert!(si / ti > 3.0, "Si/Ti = {}", si / ti);
    }
}
