//! Caching for the domain pipelines: decorators that route the
//! expensive stages of [`crate::climate`] / [`crate::materials`]
//! pipelines through a [`drai_cache::StageCache`], so a re-run over
//! unchanged inputs replays memoized results instead of recomputing
//! (the "incremental reprocessing" need of §4 — pipelines are rerun
//! every time normalization choices or grid targets change). The stage
//! graphs themselves are declared once, in the domain modules; nothing
//! here restates them.
//!
//! The [`drai_cache::CacheBytes`] impls here are the canonical binary
//! encodings of the inter-stage artifacts. They are exact (f64/f32 bits
//! round-trip via [`ByteWriter`]/[`ByteReader`]), so a cached stage
//! output is byte-identical to a fresh one — asserted by the coherence
//! tests and required for stable provenance digests.

use crate::climate::{self, ClimateConfig, ClimateData};
use crate::materials::{GraphSample, MaterialsData};
use crate::StageItem;
use drai_cache::bytes::{ByteReader, ByteWriter};
use drai_cache::{CacheBytes, CachedPipelineExt, StageCache};
use drai_core::pipeline::{Pipeline, StageReport};
use drai_formats::xyz::{Atom, Frame};
use drai_io::sink::StorageSink;
use drai_provenance::Ledger;
use drai_tensor::{Element, LatLonGrid, Tensor};
use drai_transform::normalize::{Method, Normalizer};
use std::collections::BTreeMap;
use std::sync::Arc;

pub use crate::Member;

fn method_tag(m: Method) -> u8 {
    match m {
        Method::ZScore => 0,
        Method::MinMax => 1,
        Method::Robust => 2,
    }
}

fn method_from_tag(tag: u8) -> Result<Method, String> {
    match tag {
        0 => Ok(Method::ZScore),
        1 => Ok(Method::MinMax),
        2 => Ok(Method::Robust),
        t => Err(format!("unknown normalizer method tag {t}")),
    }
}

impl CacheBytes for ClimateData {
    fn write_cache_bytes(&self, w: &mut ByteWriter) {
        // Room for everything first: the entry buffer this appends to
        // must not move a field stack it already holds.
        w.reserve(
            self.fields.iter().map(|f| f.len() * 8 + 8).sum::<usize>()
                + self.normalizers.len() * 17
                + 40,
        );
        w.put_u64(self.grid.nlat() as u64);
        w.put_u64(self.grid.nlon() as u64);
        w.put_u64(self.timesteps as u64);
        w.put_u64(self.fields.len() as u64);
        for f in &self.fields {
            w.put_f64_slice(f);
        }
        w.put_u64(self.normalizers.len() as u64);
        for n in &self.normalizers {
            w.put_u8(method_tag(n.method()));
            w.put_f64(n.offset);
            w.put_f64(n.scale);
        }
    }

    fn from_cache_bytes(data: &[u8]) -> Result<ClimateData, String> {
        let mut r = ByteReader::new(data);
        let nlat = r.u64()? as usize;
        let nlon = r.u64()? as usize;
        let timesteps = r.u64()? as usize;
        // A digest-valid entry of a drifted schema must be an `Err`
        // (recompute and overwrite), so the shape is checked here, before
        // `LatLonGrid::global` can assert on it.
        if nlat == 0 || nlon == 0 {
            return Err(format!("empty grid {nlat}x{nlon}"));
        }
        let expect = nlat
            .checked_mul(nlon)
            .and_then(|ncells| ncells.checked_mul(timesteps))
            .ok_or_else(|| format!("{timesteps} timesteps of {nlat}x{nlon} cells overflow"))?;
        let nfields = r.u64()? as usize;
        let mut fields = Vec::with_capacity(nfields.min(1024));
        for vi in 0..nfields {
            let field = r.f64_vec()?;
            if field.len() != expect {
                return Err(format!(
                    "variable {vi}: {} values, expected {expect}",
                    field.len()
                ));
            }
            fields.push(field);
        }
        let nnorm = r.u64()? as usize;
        let mut normalizers = Vec::with_capacity(nnorm.min(1024));
        for _ in 0..nnorm {
            let method = method_from_tag(r.u8()?)?;
            let offset = r.f64()?;
            let scale = r.f64()?;
            normalizers.push(Normalizer::from_parts(method, offset, scale));
        }
        r.expect_end()?;
        Ok(ClimateData {
            fields,
            grid: LatLonGrid::global(nlat, nlon),
            timesteps,
            normalizers,
        })
    }
}

/// A tensor: its rank, its shape, then its elements as `le` lays each
/// out, length-prefixed.
fn put_tensor<T: Element, const N: usize>(w: &mut ByteWriter, t: &Tensor<T>, le: fn(T) -> [u8; N]) {
    w.put_u64(t.shape().len() as u64);
    for &d in t.shape() {
        w.put_u64(d as u64);
    }
    w.put_u64((t.len() * N) as u64);
    w.put_each(t.as_slice(), le);
}

fn tensor_shape(r: &mut ByteReader) -> Result<Vec<usize>, String> {
    let rank = r.u64()? as usize;
    if rank > 16 {
        return Err(format!("implausible tensor rank {rank}"));
    }
    let mut shape = Vec::with_capacity(rank);
    for _ in 0..rank {
        shape.push(r.u64()? as usize);
    }
    Ok(shape)
}

fn read_tensor_f32(r: &mut ByteReader) -> Result<Tensor<f32>, String> {
    let shape = tensor_shape(r)?;
    let raw = r.bytes()?;
    if raw.len() % 4 != 0 {
        return Err(format!("f32 tensor payload of {} bytes", raw.len()));
    }
    let vals: Vec<f32> = raw
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    Tensor::from_vec(vals, &shape).map_err(|e| format!("{e}"))
}

fn read_tensor_i64(r: &mut ByteReader) -> Result<Tensor<i64>, String> {
    let shape = tensor_shape(r)?;
    let raw = r.bytes()?;
    if raw.len() % 8 != 0 {
        return Err(format!("i64 tensor payload of {} bytes", raw.len()));
    }
    let vals: Vec<i64> = raw
        .chunks_exact(8)
        .map(|c| i64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect();
    Tensor::from_vec(vals, &shape).map_err(|e| format!("{e}"))
}

impl CacheBytes for MaterialsData {
    fn write_cache_bytes(&self, w: &mut ByteWriter) {
        w.put_u64(self.frames.len() as u64);
        for frame in &self.frames {
            w.put_u64(frame.atoms.len() as u64);
            for atom in &frame.atoms {
                w.put_str(&atom.element);
                for &p in &atom.position {
                    w.put_f64(p);
                }
                match atom.force {
                    Some(f) => {
                        w.put_u8(1);
                        for &x in &f {
                            w.put_f64(x);
                        }
                    }
                    None => w.put_u8(0),
                }
            }
            w.put_u64(frame.properties.len() as u64);
            for (k, v) in &frame.properties {
                w.put_str(k);
                w.put_str(v);
            }
        }
        w.put_f64(self.energy_stats.0);
        w.put_f64(self.energy_stats.1);
        w.put_u64(self.graphs.len() as u64);
        for g in &self.graphs {
            w.put_u64(g.structure_id as u64);
            put_tensor(w, &g.node_features, f32::to_le_bytes);
            put_tensor(w, &g.edges, i64::to_le_bytes);
            put_tensor(w, &g.edge_lengths, f32::to_le_bytes);
            w.put_f64(g.energy_per_atom);
            put_tensor(w, &g.forces, f32::to_le_bytes);
        }
    }

    fn from_cache_bytes(data: &[u8]) -> Result<MaterialsData, String> {
        let mut r = ByteReader::new(data);
        let nframes = r.u64()? as usize;
        let mut frames = Vec::with_capacity(nframes.min(4096));
        for _ in 0..nframes {
            let natoms = r.u64()? as usize;
            let mut atoms = Vec::with_capacity(natoms.min(65_536));
            for _ in 0..natoms {
                let element = r.str()?.to_string();
                let position = [r.f64()?, r.f64()?, r.f64()?];
                let force = match r.u8()? {
                    0 => None,
                    1 => Some([r.f64()?, r.f64()?, r.f64()?]),
                    t => return Err(format!("bad force flag {t}")),
                };
                atoms.push(Atom {
                    element,
                    position,
                    force,
                });
            }
            let nprops = r.u64()? as usize;
            let mut properties = BTreeMap::new();
            for _ in 0..nprops {
                let k = r.str()?.to_string();
                let v = r.str()?.to_string();
                properties.insert(k, v);
            }
            frames.push(Frame { atoms, properties });
        }
        let energy_stats = (r.f64()?, r.f64()?);
        let ngraphs = r.u64()? as usize;
        let mut graphs = Vec::with_capacity(ngraphs.min(4096));
        for _ in 0..ngraphs {
            let structure_id = r.u64()? as usize;
            let node_features = read_tensor_f32(&mut r)?;
            let edges = read_tensor_i64(&mut r)?;
            let edge_lengths = read_tensor_f32(&mut r)?;
            let energy_per_atom = r.f64()?;
            let forces = read_tensor_f32(&mut r)?;
            graphs.push(GraphSample {
                structure_id,
                node_features,
                edges,
                edge_lengths,
                energy_per_atom,
                forces,
            });
        }
        r.expect_end()?;
        Ok(MaterialsData {
            frames,
            energy_stats,
            graphs,
        })
    }
}

/// A batch member is cached as its member id followed by the inner
/// artifact's canonical bytes, so each member keys its own cache
/// entries (identical fields under different member ids never collide).
impl<T: CacheBytes> CacheBytes for Member<T> {
    fn write_cache_bytes(&self, w: &mut ByteWriter) {
        w.put_u64(self.0 as u64);
        w.put_framed(|w| self.1.write_cache_bytes(w));
    }

    fn from_cache_bytes(data: &[u8]) -> Result<Member<T>, String> {
        let mut r = ByteReader::new(data);
        let member = r.u64()? as usize;
        let inner = r.bytes()?;
        r.expect_end()?;
        Ok(Member(member, T::from_cache_bytes(inner)?))
    }
}

/// Route a climate pipeline's regrid, normalize and shard stages
/// through `cache`, whatever item it runs over.
///
/// The shard stage's hit path additionally checks that every blob the
/// entry's report names as `written` still exists in `sink` — a cache
/// entry one of whose shards was deleted is rejected and recomputed,
/// not trusted. The names are the item's own (`climate/` for a run,
/// `climate/m<member>/` for a member), so no other item's shards vouch
/// for an entry.
pub fn with_climate_cache<I>(
    pipeline: Pipeline<I>,
    sink: Arc<dyn StorageSink>,
    cache: Arc<StageCache>,
) -> Pipeline<I>
where
    I: StageItem<ClimateData> + CacheBytes + Send + Sync + 'static,
{
    pipeline
        .cached("regrid", cache.clone())
        .cached("normalize", cache.clone())
        .cached_with_check("shard", cache, move |report: &StageReport| {
            report.written.iter().all(|blob| sink.exists(&blob.name))
        })
}

/// [`climate::build_pipeline`] under [`with_climate_cache`].
pub fn build_cached_climate_pipeline(
    cfg: &ClimateConfig,
    sink: Arc<dyn StorageSink>,
    ledger: Arc<Ledger>,
    cache: Arc<StageCache>,
) -> Pipeline<ClimateData> {
    let pipeline = climate::build_pipeline(cfg, sink.clone(), ledger);
    with_climate_cache(pipeline, sink, cache)
}

/// [`climate::build_batch_pipeline`] under [`with_climate_cache`].
pub fn build_cached_climate_batch_pipeline(
    cfg: &ClimateConfig,
    sink: Arc<dyn StorageSink>,
    ledger: Arc<Ledger>,
    cache: Arc<StageCache>,
) -> Pipeline<Member<ClimateData>> {
    let pipeline = climate::build_batch_pipeline(cfg, sink.clone(), ledger);
    with_climate_cache(pipeline, sink, cache)
}

/// Route a materials pipeline's normalize and encode stages through
/// `cache`. The shard stage stays uncached: its output is the external
/// BP/JSONL blobs, which must be (re)written every run.
pub fn with_materials_cache<I>(pipeline: Pipeline<I>, cache: Arc<StageCache>) -> Pipeline<I>
where
    I: StageItem<MaterialsData> + CacheBytes + Send + Sync + 'static,
{
    pipeline
        .cached("normalize", cache.clone())
        .cached("encode", cache)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materials::{self, MaterialsConfig};
    use drai_io::checksum::content_hash128;
    use drai_io::sink::MemSink;
    use drai_telemetry::clock::LogicalClock;
    use drai_telemetry::{Registry, TraceContext};
    use proptest::prelude::*;

    fn climate_cfg() -> ClimateConfig {
        ClimateConfig {
            src_grid: LatLonGrid::global(12, 24),
            dst_grid: LatLonGrid::global(8, 16),
            timesteps: 6,
            seed: 7,
            shard_bytes: 64 * 1024,
            ..ClimateConfig::default()
        }
    }

    fn materials_cfg() -> MaterialsConfig {
        MaterialsConfig {
            structures: 6,
            cell_atoms: 2,
            seed: 11,
            ..MaterialsConfig::default()
        }
    }

    fn test_cache(sink: &Arc<MemSink>) -> Arc<StageCache> {
        Arc::new(
            StageCache::new(sink.clone() as Arc<dyn StorageSink>, 64 << 20)
                .with_clock(Arc::new(LogicalClock::new())),
        )
    }

    /// A climate input that went through the raw NetCDF files.
    fn climate_input(cfg: &ClimateConfig) -> ClimateData {
        let raw_sink = MemSink::new();
        let names = climate::generate_raw(cfg, &raw_sink).expect("generate");
        climate::ingest(cfg, &names, &raw_sink, &mut |_, _| {}).expect("ingest")
    }

    #[test]
    fn climate_data_round_trips_exactly() {
        let cfg = climate_cfg();
        let mut data = climate_input(&cfg);
        data.normalizers = vec![
            Normalizer::from_parts(Method::ZScore, 1.5, 2.0),
            Normalizer::from_parts(Method::Robust, -0.25, 4.0),
        ];
        let bytes = data.to_cache_bytes();
        let back = ClimateData::from_cache_bytes(&bytes).expect("decode");
        assert_eq!(back.to_cache_bytes(), bytes);
        assert_eq!(back.fields, data.fields);
        assert_eq!(back.grid.shape(), data.grid.shape());
        assert_eq!(back.normalizers, data.normalizers);
    }

    #[test]
    fn materials_data_round_trips_exactly() {
        let cfg = materials_cfg();
        let data = materials::member_input(&cfg, 0).expect("member input");
        let bytes = data.to_cache_bytes();
        let back = MaterialsData::from_cache_bytes(&bytes).expect("decode");
        assert_eq!(back.to_cache_bytes(), bytes);
        assert_eq!(back.frames.len(), data.frames.len());
        assert_eq!(
            back.frames[0].atoms[0].position,
            data.frames[0].atoms[0].position
        );
    }

    #[test]
    fn cached_climate_shard_hit_accepted_when_blobs_exist() {
        let cfg = climate_cfg();
        let input = climate_input(&cfg);
        let cache_sink = Arc::new(MemSink::new());
        let cache = test_cache(&cache_sink);
        // One shared output sink: warm pass sees the cold pass's shards.
        let sink: Arc<dyn StorageSink> = Arc::new(MemSink::new());
        let cold_reg = Registry::new();
        run_in_registry(&cold_reg, || {
            let ledger = Arc::new(Ledger::new());
            let p = build_cached_climate_pipeline(&cfg, sink.clone(), ledger, cache.clone());
            p.run(input.clone()).expect("cold run");
        });
        let warm_reg = Registry::new();
        let ((), snapshot) = run_in_registry(&warm_reg, || {
            let ledger = Arc::new(Ledger::new());
            let p = build_cached_climate_pipeline(&cfg, sink.clone(), ledger, cache.clone());
            p.run(input.clone()).expect("warm run");
        });
        assert_eq!(
            snapshot.counters.get("cache.hits").copied().unwrap_or(0),
            3,
            "all three cached stages hit on warm pass: {:?}",
            snapshot.counters
        );
        // Accepted shard hit ⇒ the warm pass never writes to the output
        // sink (only cache reads happen, no cache or shard writes).
        assert_eq!(
            snapshot
                .counters
                .get("io.sink.files_written")
                .copied()
                .unwrap_or(0),
            0,
            "warm pass must be read-only: {:?}",
            snapshot.counters
        );
    }

    /// Regression: the single-run shard check used to accept any
    /// `climate/**.shard`, so once an ensemble had sharded under
    /// `climate/m0/` a single run's entry was served although its own
    /// `climate/*.shard` blobs were gone.
    #[test]
    fn cached_shard_hit_is_not_vouched_for_by_another_items_shards() {
        let cfg = climate_cfg();
        let input = climate::member_input(&cfg, 0);
        let cache = test_cache(&Arc::new(MemSink::new()));
        let sink: Arc<dyn StorageSink> = Arc::new(MemSink::new());
        let single = |sink: &Arc<dyn StorageSink>| {
            build_cached_climate_pipeline(
                &cfg,
                sink.clone(),
                Arc::new(Ledger::new()),
                cache.clone(),
            )
        };
        single(&sink).run(input.clone()).expect("cold single run");
        for name in sink.list().expect("list") {
            sink.delete(&name).expect("delete single-run output");
        }
        build_cached_climate_batch_pipeline(
            &cfg,
            sink.clone(),
            Arc::new(Ledger::new()),
            cache.clone(),
        )
        .run(Member(0, input.clone()))
        .expect("member run");
        assert!(sink.exists("climate/m0/train-00000.shard"));
        assert!(!sink.exists("climate/train-00000.shard"));

        single(&sink).run(input).expect("warm single run");
        assert!(
            sink.exists("climate/train-00000.shard"),
            "the single run's shards must be rewritten: {:?}",
            sink.list()
        );
    }

    /// Regression: the shard hit was accepted while any `.shard` blob
    /// sat under the item's prefix, so a warm run with one shard deleted
    /// succeeded with that shard still missing, and its ledger named a
    /// blob that no longer existed.
    #[test]
    fn cached_shard_hit_with_a_shard_gone_rewrites_it() {
        let cfg = ClimateConfig {
            timesteps: 24,
            shard_bytes: 4 * 1024,
            ..climate_cfg()
        };
        let input = climate_input(&cfg);
        let cache = test_cache(&Arc::new(MemSink::new()));
        let sink: Arc<dyn StorageSink> = Arc::new(MemSink::new());
        let run = || {
            let ledger = Arc::new(Ledger::new());
            build_cached_climate_pipeline(&cfg, sink.clone(), ledger.clone(), cache.clone())
                .run(input.clone())
                .expect("run");
            ledger
        };
        run();
        assert_eq!(sink.list().expect("list").len(), 27);
        let gone = "climate/test-00000.shard";
        let original = sink.read_file(gone).expect("the cold run wrote it");
        sink.delete(gone).expect("delete");

        let ledger = run();
        let back = sink.read_file(gone).expect("the warm run must rewrite it");
        assert_eq!(back[..], original[..]);
        let shard = (ledger.transformations().into_iter())
            .find(|t| t.operation == "shard")
            .expect("a shard record");
        assert!(!shard.outputs.is_empty());
        for out in shard.outputs.iter().filter(|a| a.name.ends_with(".shard")) {
            assert!(
                sink.exists(&out.name),
                "the ledger names {} but it is gone",
                out.name
            );
        }
    }

    #[test]
    fn config_change_invalidates_climate_regrid() {
        let cfg_a = climate_cfg();
        let cfg_b = ClimateConfig {
            dst_grid: LatLonGrid::global(6, 12),
            ..climate_cfg()
        };
        let fingerprints = |cfg: &ClimateConfig| {
            let sink = Arc::new(MemSink::new());
            let graph = climate::build_pipeline(cfg, sink, Arc::new(Ledger::new()));
            ["regrid", "normalize", "shard"]
                .map(|stage| graph.fingerprint(stage).map(<[u8]>::to_vec))
        };
        let [regrid_a, normalize_a, shard_a] = fingerprints(&cfg_a);
        let [regrid_b, normalize_b, shard_b] = fingerprints(&cfg_b);
        assert_ne!(regrid_a, regrid_b);
        assert_eq!((normalize_a, shard_a), (normalize_b, shard_b));
    }

    fn run_in_registry<R>(reg: &Registry, f: impl FnOnce() -> R) -> (R, drai_telemetry::Snapshot) {
        let ctx = TraceContext::root(reg);
        let r = ctx.scope(f);
        (r, reg.snapshot())
    }

    #[test]
    fn member_tagged_climate_data_round_trips_exactly() {
        let cfg = climate_cfg();
        let data = Member(7, climate_input(&cfg));
        let bytes = data.to_cache_bytes();
        let back = Member::<ClimateData>::from_cache_bytes(&bytes).expect("decode");
        assert_eq!(back.0, 7);
        assert_eq!(back.to_cache_bytes(), bytes);
        assert_eq!(back.1.fields, data.1.fields);
        // Tagging changes the encoding, so identical fields under a
        // different member id key different cache entries.
        assert_ne!(Member(8, climate_input(&cfg)).to_cache_bytes(), bytes);
    }

    /// `write_cache_bytes` appends `to_cache_bytes` behind whatever the
    /// buffer holds and leaves that alone.
    fn assert_only_appends<T: CacheBytes>(what: &str, value: &T) {
        let prefix = b"bytes that were there before".to_vec();
        let mut out = prefix.clone();
        ByteWriter::append_to(&mut out, |w| value.write_cache_bytes(w));
        let (head, tail) = out.split_at(prefix.len());
        assert_eq!(head, &prefix[..], "{what} touched the bytes before it");
        assert!(
            tail == value.to_cache_bytes(),
            "{what}: appended bytes differ"
        );
    }

    /// `Member` only appends, and frames as it did when the inner
    /// artifact was serialized into a buffer of its own and copied:
    /// id ‖ len ‖ inner.
    fn assert_member_framing<T: CacheBytes>(what: &str, member: &Member<T>) {
        assert_only_appends(what, member);
        let inner = member.1.to_cache_bytes();
        let mut w = ByteWriter::with_capacity(inner.len() + 16);
        w.put_u64(member.0 as u64);
        w.put_bytes(&inner);
        assert!(
            member.to_cache_bytes() == w.finish(),
            "{what}: framing moved"
        );
    }

    #[test]
    fn write_cache_bytes_only_appends_and_member_framing_is_unchanged() {
        let mut climate = climate_input(&climate_cfg());
        climate.normalizers = vec![Normalizer::from_parts(Method::MinMax, 0.5, 3.0)];
        let materials = materials::member_input(&materials_cfg(), 0).expect("member input");
        assert_only_appends("ClimateData", &climate);
        assert_only_appends("MaterialsData", &materials);
        assert_member_framing("Member<ClimateData>", &Member(3, climate));
        assert_member_framing("Member<MaterialsData>", &Member(usize::MAX, materials));
        assert_member_framing("Member<Vec<f64>>", &Member(1, vec![0.5f64, f64::NAN, -0.0]));
        assert_member_framing("Member of nothing", &Member(2, Vec::<u8>::new()));
        // A member of a member frames the same way, one level down.
        let nested = Member(7, Member(0, vec![1u8, 2, 3]));
        assert_member_framing("Member<Vec<u8>>", &nested.1);
        assert_member_framing("Member<Member<Vec<u8>>>", &nested);
        let back =
            Member::<Member<Vec<u8>>>::from_cache_bytes(&nested.to_cache_bytes()).expect("decode");
        assert_eq!((back.0, back.1 .0, back.1 .1), (7, 0, vec![1u8, 2, 3]));
    }

    /// Well-framed `ClimateData` bytes with no fields and no normalizers.
    fn climate_header(nlat: u64, nlon: u64, timesteps: u64) -> ByteWriter {
        let mut w = ByteWriter::new();
        w.put_u64(nlat);
        w.put_u64(nlon);
        w.put_u64(timesteps);
        w
    }

    #[test]
    fn climate_data_of_an_impossible_shape_is_an_error_not_a_panic() {
        let empty = |nlat, nlon, timesteps| {
            let mut w = climate_header(nlat, nlon, timesteps);
            w.put_u64(0);
            w.put_u64(0);
            w.finish()
        };
        assert!(ClimateData::from_cache_bytes(&empty(8, 16, 6)).is_ok());
        for (nlat, nlon, timesteps) in [
            (0, 16, 6),
            (8, 0, 6),
            (0, 0, 0),
            (u64::MAX / 2, 4, 1),
            (1 << 40, 1 << 20, 1 << 10),
        ] {
            let err = ClimateData::from_cache_bytes(&empty(nlat, nlon, timesteps))
                .err()
                .unwrap_or_else(|| panic!("{nlat}x{nlon}x{timesteps} decoded"));
            assert!(err.contains("grid") || err.contains("overflow"), "{err}");
        }
        // A field that does not cover timesteps × cells.
        let mut w = climate_header(2, 2, 3);
        w.put_u64(1);
        w.put_f64_slice(&[0.0; 11]);
        w.put_u64(0);
        let err = ClimateData::from_cache_bytes(&w.finish())
            .err()
            .expect("short field");
        assert!(err.contains("11 values, expected 12"), "{err}");
    }

    /// Regression: a digest-valid entry whose payload is well-framed
    /// `ClimateData` with an empty grid used to panic the stage
    /// (`LatLonGrid::global` asserts) instead of being recomputed.
    #[test]
    fn planted_entry_of_an_empty_grid_is_recomputed_and_overwritten() {
        use drai_cache::CacheKey;
        use drai_core::executor::{ExecutorConfig, StreamingBatchExt};

        let cfg = climate_cfg();
        let input = climate::member_input(&cfg, 0);
        let empty_grid = {
            let mut w = climate_header(0, cfg.dst_grid.nlon() as u64, cfg.timesteps as u64);
            w.put_u64(0);
            w.put_u64(0);
            w.finish()
        };
        // A stored payload is the stage's report — regrid's is empty: two
        // zero counts, nothing measured or written — then its output.
        let no_report = [0u8; 16];
        let planted = |output: &[u8]| [&no_report[..], output].concat();
        let output_of = |payload: &[u8]| {
            assert_eq!(payload[..no_report.len()], no_report[..]);
            payload[no_report.len()..].to_vec()
        };
        let sink = Arc::new(MemSink::new());
        let graph = climate::build_pipeline(&cfg, sink, Arc::new(Ledger::new()));
        let fp = graph.fingerprint("regrid").expect("regrid is declared");
        let counted = |snapshot: &drai_telemetry::Snapshot, name: &str| {
            snapshot.counters.get(name).copied().unwrap_or(0)
        };

        // `run`: the entry sits under the key the regrid stage computes
        // (validate hands its input on unchanged).
        let cache = test_cache(&Arc::new(MemSink::new()));
        let sink: Arc<dyn StorageSink> = Arc::new(MemSink::new());
        let key = CacheKey::compute("regrid", &input.to_cache_bytes(), fp);
        cache.put(&key, &planted(&empty_grid), 0, 0).expect("plant");
        let p = build_cached_climate_pipeline(
            &cfg,
            sink.clone(),
            Arc::new(Ledger::new()),
            cache.clone(),
        );
        let (output, first) = run_in_registry(&Registry::new(), || {
            p.run(input.clone()).expect("run over the planted entry")
        });
        assert_eq!(output.output.grid.shape(), cfg.dst_grid.shape());
        // Hit (the digest holds), rejected by the decoder, recomputed;
        // normalize and shard have no entry yet.
        assert_eq!(counted(&first, "cache.hits"), 1, "{:?}", first.counters);
        assert_eq!(counted(&first, "cache.misses"), 2, "{:?}", first.counters);
        assert_eq!(counted(&first, "cache.quarantined"), 0);
        let stored = cache.get(&key).expect("overwritten entry");
        let regridded =
            ClimateData::from_cache_bytes(&output_of(&stored.payload)).expect("now decodes");
        assert_eq!(regridded.grid.shape(), cfg.dst_grid.shape());
        let ((), second) = run_in_registry(&Registry::new(), || {
            p.run(input.clone()).expect("warm run");
        });
        assert_eq!(counted(&second, "cache.hits"), 3, "{:?}", second.counters);
        assert_eq!(counted(&second, "cache.misses"), 0);

        // `run_batch_streaming`: the same under a member's key.
        let cache = test_cache(&Arc::new(MemSink::new()));
        let sink: Arc<dyn StorageSink> = Arc::new(MemSink::new());
        let member = Member(1, climate::member_input(&cfg, 1));
        let key = CacheKey::compute("regrid", &member.to_cache_bytes(), fp);
        let planted = planted(&Member(1, empty_grid.clone()).to_cache_bytes());
        cache.put(&key, &planted, 0, 0).expect("plant");
        let p = build_cached_climate_batch_pipeline(
            &cfg,
            sink.clone(),
            Arc::new(Ledger::new()),
            cache.clone(),
        );
        let exec = ExecutorConfig::default();
        let (outputs, first) = run_in_registry(&Registry::new(), || {
            p.run_batch_streaming(vec![member.clone()], &exec)
                .expect("streaming run over the planted entry")
                .0
        });
        assert_eq!(outputs.len(), 1);
        assert_eq!(counted(&first, "cache.hits"), 1, "{:?}", first.counters);
        assert_eq!(counted(&first, "cache.misses"), 2, "{:?}", first.counters);
        let stored = cache.get(&key).expect("overwritten entry");
        let regridded = Member::<ClimateData>::from_cache_bytes(&output_of(&stored.payload))
            .expect("now decodes");
        assert_eq!(regridded.0, 1);
        assert_eq!(regridded.1.grid.shape(), cfg.dst_grid.shape());
        let (_, second) = run_in_registry(&Registry::new(), || {
            p.run_batch_streaming(vec![member.clone()], &exec)
                .expect("warm streaming run");
        });
        assert_eq!(counted(&second, "cache.hits"), 3, "{:?}", second.counters);
        assert_eq!(counted(&second, "cache.misses"), 0);
    }

    /// Whether the digest a cached stage keys `value` by, streamed from
    /// its description, is `content_hash128` of the bytes it stores, and
    /// the counting run counts them.
    fn streams_its_bytes<T: CacheBytes>(value: &T) -> bool {
        let bytes = value.to_cache_bytes();
        ByteWriter::digest(|w| value.write_cache_bytes(w)) == content_hash128(&bytes)
            && ByteWriter::count(|w| value.write_cache_bytes(w)) == bytes.len() as u64
    }

    proptest! {
        /// Climate artifacts and members of them, with and without
        /// normalizers, at lengths across the hash's 32-byte strides:
        /// field stacks of every small length move the stream by words,
        /// and 17-byte normalizer records move it off the word.
        #[test]
        fn climate_digests_stream_the_stored_bytes(
            shape in (1usize..4, 1usize..4, 0usize..3),
            nfields in 0usize..3,
            bits in prop::collection::vec(any::<u64>(), 0..40),
            norms in prop::collection::vec((0u8..3, any::<u64>(), any::<u64>()), 0..4),
            member in 0usize..1 << 20,
        ) {
            let (nlat, nlon, timesteps) = shape;
            let cells = nlat * nlon * timesteps;
            let value = |i: usize| f64::from_bits(bits.get(i).copied().unwrap_or(i as u64));
            let data = ClimateData {
                fields: (0..nfields)
                    .map(|f| (0..cells).map(|i| value(f * cells + i)).collect())
                    .collect(),
                grid: LatLonGrid::global(nlat, nlon),
                timesteps,
                normalizers: norms
                    .iter()
                    .map(|&(m, offset, scale)| {
                        let method = method_from_tag(m).expect("a known tag");
                        Normalizer::from_parts(method, f64::from_bits(offset), f64::from_bits(scale))
                    })
                    .collect(),
            };
            let bare = ClimateData {
                normalizers: Vec::new(),
                ..data.clone()
            };
            prop_assert!(streams_its_bytes(&data));
            prop_assert!(streams_its_bytes(&bare));
            prop_assert!(streams_its_bytes(&Member(member, data)));
        }
    }

    #[test]
    fn materials_digests_stream_the_stored_bytes() {
        for structures in [1, 2, 5] {
            let cfg = MaterialsConfig {
                structures,
                ..materials_cfg()
            };
            let input = || materials::member_input(&cfg, 0).expect("member input");
            let pipeline =
                materials::build_pipeline(&cfg, Arc::new(MemSink::new()), Arc::new(Ledger::new()));
            let encoded = pipeline.run(input()).expect("materials run").output;
            assert!(!encoded.graphs.is_empty(), "the tensors are described too");
            for data in [input(), encoded] {
                assert!(streams_its_bytes(&data), "{structures} structures");
                assert!(streams_its_bytes(&Member(structures, data)));
            }
        }
    }

    /// A warm run whose shard entry is gone: regrid and normalize hit,
    /// normalize's output is decoded for the shard function, and the
    /// output and the shards are bitwise the cold run's.
    #[test]
    fn a_warm_run_missing_its_shard_entry_matches_the_cold_run() {
        let cfg = climate_cfg();
        let input = climate_input(&cfg);
        let cache = test_cache(&Arc::new(MemSink::new()));
        let run = |sink: &Arc<MemSink>| {
            let p = build_cached_climate_pipeline(
                &cfg,
                sink.clone(),
                Arc::new(Ledger::new()),
                cache.clone(),
            );
            run_in_registry(&Registry::new(), || p.run(input.clone()).expect("run"))
        };
        let shards = |sink: &MemSink| -> Vec<(String, Vec<u8>)> {
            let names = sink.list().expect("list");
            names
                .into_iter()
                .map(|n| (n.clone(), sink.read_file(&n).expect("read").to_vec()))
                .collect()
        };
        let cold_sink = Arc::new(MemSink::new());
        let (cold, _) = run(&cold_sink);
        let names = cache.sink().list().expect("list");
        let shard_entry = names.iter().find(|n| n.starts_with("cache/shard/"));
        cache
            .sink()
            .delete(shard_entry.expect("a shard entry"))
            .expect("delete");

        let warm_sink = Arc::new(MemSink::new());
        let (warm, snapshot) = run(&warm_sink);
        assert_eq!(
            snapshot.counters["cache.hits"], 2,
            "{:?}",
            snapshot.counters
        );
        assert_eq!(
            snapshot.counters["cache.misses"], 1,
            "{:?}",
            snapshot.counters
        );
        assert!(warm.output.to_cache_bytes() == cold.output.to_cache_bytes());
        assert!(shards(&warm_sink) == shards(&cold_sink), "shards differ");
    }

    #[test]
    fn cached_batch_pipeline_warm_streaming_hits_every_cached_stage() {
        use drai_core::executor::{ExecutorConfig, StreamingBatchExt};

        let cfg = climate_cfg();
        let members = 3usize;
        let items = |n: usize| -> Vec<Member<ClimateData>> {
            (0..n)
                .map(|m| Member(m, climate::member_input(&cfg, m)))
                .collect()
        };
        let cache_sink = Arc::new(MemSink::new());
        let cache = test_cache(&cache_sink);
        // One shared output sink so the warm pass's shard hits pass the
        // external blob check.
        let sink: Arc<dyn StorageSink> = Arc::new(MemSink::new());
        let exec = ExecutorConfig::default();

        let cold_reg = Registry::new();
        let ((), cold) = run_in_registry(&cold_reg, || {
            let p = build_cached_climate_batch_pipeline(
                &cfg,
                sink.clone(),
                Arc::new(Ledger::new()),
                cache.clone(),
            );
            p.run_batch_streaming(items(members), &exec).expect("cold");
        });
        assert_eq!(
            cold.counters.get("cache.misses").copied().unwrap_or(0),
            3 * members as u64,
            "cold pass misses all three cached stages per member: {:?}",
            cold.counters
        );

        let warm_reg = Registry::new();
        let ((), warm) = run_in_registry(&warm_reg, || {
            let p = build_cached_climate_batch_pipeline(
                &cfg,
                sink.clone(),
                Arc::new(Ledger::new()),
                cache.clone(),
            );
            p.run_batch_streaming(items(members), &exec).expect("warm");
        });
        assert_eq!(
            warm.counters.get("cache.hits").copied().unwrap_or(0),
            3 * members as u64,
            "warm pass hits all three cached stages per member: {:?}",
            warm.counters
        );
        assert_eq!(
            warm.counters.get("cache.misses").copied().unwrap_or(0),
            0,
            "no warm probe falls through to its stage function: {:?}",
            warm.counters
        );
    }
}
