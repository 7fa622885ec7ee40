//! Dataset manifests: what a run says about the dataset it produced —
//! name, domain, modality, schema and record count. How the dataset was
//! prepared is read from the run's provenance ledger (see
//! [`crate::assess`]), never declared here.

use crate::CoreError;
use drai_io::json::Json;
use drai_tensor::DType;

/// Data modality (Table 1's "Modality" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modality {
    /// Spatial/temporal grids (climate fields).
    Grid,
    /// Multichannel time series (fusion diagnostics).
    TimeSeries,
    /// Symbol sequences (DNA, protein).
    Sequence,
    /// Rows and columns (EHR).
    Tabular,
    /// Node/edge structures (materials).
    Graph,
    /// Dense images.
    Image,
}

impl Modality {
    /// Stable name for manifests.
    pub const fn name(self) -> &'static str {
        match self {
            Modality::Grid => "grid",
            Modality::TimeSeries => "time-series",
            Modality::Sequence => "sequence",
            Modality::Tabular => "tabular",
            Modality::Graph => "graph",
            Modality::Image => "image",
        }
    }

    /// Parse a manifest name.
    pub fn from_name(s: &str) -> Option<Modality> {
        Some(match s {
            "grid" => Modality::Grid,
            "time-series" => Modality::TimeSeries,
            "sequence" => Modality::Sequence,
            "tabular" => Modality::Tabular,
            "graph" => Modality::Graph,
            "image" => Modality::Image,
            _ => return None,
        })
    }
}

/// One variable/channel/column in the dataset schema.
#[derive(Debug, Clone, PartialEq)]
pub struct VariableSpec {
    /// Variable name.
    pub name: String,
    /// Storage dtype.
    pub dtype: DType,
    /// Physical unit symbol ("K", "A", "1"); empty when unknown — a
    /// readiness deficiency the assessor notices.
    pub unit: String,
    /// Per-sample shape (empty = scalar).
    pub shape: Vec<usize>,
}

impl VariableSpec {
    /// A schema entry.
    pub fn new(name: &str, dtype: DType, unit: &str, shape: &[usize]) -> VariableSpec {
        VariableSpec {
            name: name.to_string(),
            dtype,
            unit: unit.to_string(),
            shape: shape.to_vec(),
        }
    }
}

/// What a run says about the dataset it produced: names, modality,
/// schema and record count. What preparation the dataset underwent is
/// not a claim here: the assessor (see [`crate::assess`]) reads it from
/// the run's provenance ledger.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetManifest {
    /// Dataset name.
    pub name: String,
    /// Scientific domain ("climate", "fusion", "bio", "materials", ...).
    pub domain: String,
    /// Primary modality.
    pub modality: Modality,
    /// Variables (empty until a schema is established).
    pub schema: Vec<VariableSpec>,
    /// Total sample/record count.
    pub records: u64,
}

impl DatasetManifest {
    /// Serialize to JSON (for sidecar files and provenance).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.clone())),
            ("domain", Json::from(self.domain.clone())),
            ("modality", Json::from(self.modality.name())),
            ("records", Json::from(self.records)),
            (
                "schema",
                Json::Arr(
                    self.schema
                        .iter()
                        .map(|v| {
                            Json::obj([
                                ("name", Json::from(v.name.clone())),
                                ("dtype", Json::from(v.dtype.to_string())),
                                ("unit", Json::from(v.unit.clone())),
                                (
                                    "shape",
                                    Json::Arr(v.shape.iter().map(|&d| Json::from(d)).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Parse what [`to_json`](Self::to_json) writes. Every key it writes
    /// is required: a manifest missing one, or holding it as the wrong
    /// type, is refused with the key named — never read as a default.
    pub fn from_json(v: &Json) -> Result<DatasetManifest, CoreError> {
        fn get<'a, T>(
            obj: &'a Json,
            key: &str,
            as_t: fn(&'a Json) -> Option<T>,
        ) -> Result<T, CoreError> {
            obj.get(key).and_then(as_t).ok_or_else(|| {
                CoreError::InvalidManifest(format!("`{key}` is missing or of the wrong type"))
            })
        }
        let unknown =
            |what: &str, name: &str| CoreError::InvalidManifest(format!("unknown {what} {name:?}"));
        let modality = get(v, "modality", Json::as_str)?;
        let mut m = DatasetManifest {
            name: get(v, "name", Json::as_str)?.to_string(),
            domain: get(v, "domain", Json::as_str)?.to_string(),
            modality: Modality::from_name(modality).ok_or_else(|| unknown("modality", modality))?,
            schema: Vec::new(),
            records: get(v, "records", Json::as_u64)?,
        };
        for var in get(v, "schema", Json::as_arr)? {
            let dtype = get(var, "dtype", Json::as_str)?;
            let shape = get(var, "shape", Json::as_arr)?
                .iter()
                .map(|d| d.as_u64().and_then(|d| usize::try_from(d).ok()))
                .collect::<Option<Vec<usize>>>()
                .ok_or_else(|| CoreError::InvalidManifest("`shape` holds a non-size".into()))?;
            m.schema.push(VariableSpec {
                name: get(var, "name", Json::as_str)?.to_string(),
                dtype: DType::from_name(dtype).ok_or_else(|| unknown("dtype", dtype))?,
                unit: get(var, "unit", Json::as_str)?.to_string(),
                shape,
            });
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modality_name_round_trip() {
        for m in [
            Modality::Grid,
            Modality::TimeSeries,
            Modality::Sequence,
            Modality::Tabular,
            Modality::Graph,
            Modality::Image,
        ] {
            assert_eq!(Modality::from_name(m.name()), Some(m));
        }
        assert_eq!(Modality::from_name("hologram"), None);
    }

    #[test]
    fn json_round_trips_and_refuses_a_missing_key_by_name() {
        let m = DatasetManifest {
            name: "x".into(),
            domain: "bio".into(),
            modality: Modality::Sequence,
            schema: vec![VariableSpec::new("onehot", DType::F32, "1", &[196_608, 4])],
            records: 5,
        };
        let j = m.to_json();
        assert_eq!(j.get("name").unwrap().as_str(), Some("x"));
        let schema = j.get("schema").unwrap().as_arr().unwrap();
        assert_eq!(schema[0].get("dtype").unwrap().as_str(), Some("f32"));
        // Round-trip through text parses back to the same manifest.
        let text = j.to_string_compact();
        let back = DatasetManifest::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, m);
        // A key that is not there is refused by name, not read as 0.
        let text = text.replace(",\"records\":5", "");
        match DatasetManifest::from_json(&Json::parse(&text).unwrap()) {
            Err(CoreError::InvalidManifest(msg)) => assert!(msg.contains("`records`"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }
}
