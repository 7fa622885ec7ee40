//! Data-quality reporting — the paper's "Data Quality, Bias, and
//! Fairness" cross-cutting challenge, operationalized as a per-variable
//! report that dataset cards list.

use drai_io::json::Json;
use drai_tensor::stats::{Histogram, Welford};

/// Quality metrics for one variable.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityReport {
    /// Variable name.
    pub name: String,
    /// Observations examined.
    pub count: u64,
    /// Fraction missing (NaN).
    pub missing_fraction: f64,
    /// Mean of finite values.
    pub mean: f64,
    /// Population standard deviation of finite values.
    pub std: f64,
    /// Minimum finite value.
    pub min: f64,
    /// Maximum finite value.
    pub max: f64,
    /// Fraction of finite values with |z| > 5 (gross outliers).
    pub outlier_fraction: f64,
    /// Histogram imbalance ratio (1.0 = uniform across support).
    pub imbalance_ratio: f64,
}

impl QualityReport {
    /// Compute a report over raw values.
    pub fn compute(name: &str, values: &[f64]) -> QualityReport {
        let mut w = Welford::new();
        w.extend(values);
        let total = values.len() as u64;
        let missing_fraction = if total == 0 {
            0.0
        } else {
            w.nan_count() as f64 / total as f64
        };
        let (mean, std) = (w.mean(), w.std());

        let mut outliers = 0u64;
        if std > 0.0 {
            for &v in values {
                if !v.is_nan() && ((v - mean) / std).abs() > 5.0 {
                    outliers += 1;
                }
            }
        }
        let outlier_fraction = if w.count() == 0 {
            0.0
        } else {
            outliers as f64 / w.count() as f64
        };

        let imbalance_ratio = if w.count() > 0 && w.max() > w.min() {
            let mut h =
                Histogram::new(w.min(), w.max() + f64::EPSILON * w.max().abs().max(1.0), 16);
            for &v in values {
                h.push(v);
            }
            h.imbalance_ratio()
        } else {
            1.0
        };

        QualityReport {
            name: name.to_string(),
            count: total,
            missing_fraction,
            mean,
            std,
            min: w.min(),
            max: w.max(),
            outlier_fraction,
            imbalance_ratio,
        }
    }

    /// Serialize for dataset cards / provenance.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::from(self.name.clone())),
            ("count", Json::from(self.count)),
            ("missing_fraction", Json::from(self.missing_fraction)),
            ("mean", Json::from(self.mean)),
            ("std", Json::from(self.std)),
            ("min", Json::from(self.min)),
            ("max", Json::from(self.max)),
            ("outlier_fraction", Json::from(self.outlier_fraction)),
            ("imbalance_ratio", Json::from(self.imbalance_ratio)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_gaussianish_data() {
        let values: Vec<f64> = (0..10_000)
            .map(|i| {
                // Sum of sines ≈ bounded, symmetric.
                (i as f64 * 0.1).sin() + (i as f64 * 0.013).sin()
            })
            .collect();
        let r = QualityReport::compute("x", &values);
        assert_eq!(r.count, 10_000);
        assert_eq!(r.missing_fraction, 0.0);
        assert!(r.mean.abs() < 0.1);
        assert_eq!(r.outlier_fraction, 0.0);
    }

    #[test]
    fn missing_and_outliers_detected() {
        let mut values: Vec<f64> = (0..1000).map(|i| (i % 10) as f64).collect();
        values[5] = f64::NAN;
        values[6] = f64::NAN;
        values[100] = 1e6; // gross outlier
        let r = QualityReport::compute("y", &values);
        assert!((r.missing_fraction - 0.002).abs() < 1e-12);
        assert!(r.outlier_fraction > 0.0);
    }

    #[test]
    fn imbalance_detected() {
        // 95% of mass in one narrow region.
        let mut values = vec![0.5; 950];
        values.extend((0..50).map(|i| i as f64));
        let r = QualityReport::compute("z", &values);
        assert!(r.imbalance_ratio > 3.0, "imbalance {}", r.imbalance_ratio);
    }

    #[test]
    fn constant_and_empty_inputs() {
        let r = QualityReport::compute("c", &[7.0; 10]);
        assert_eq!(r.std, 0.0);
        assert_eq!(r.imbalance_ratio, 1.0);
        assert_eq!(r.outlier_fraction, 0.0);
        let e = QualityReport::compute("e", &[]);
        assert_eq!(e.count, 0);
        assert_eq!(e.missing_fraction, 0.0);
    }

    #[test]
    fn json_round_trips() {
        let r = QualityReport::compute("v", &[1.0, 2.0, f64::NAN]);
        let text = r.to_json().to_string_compact();
        let parsed = drai_io::json::Json::parse(&text).unwrap();
        assert_eq!(parsed.get("name").unwrap().as_str(), Some("v"));
        assert_eq!(parsed.get("count").unwrap().as_u64(), Some(3));
    }
}
