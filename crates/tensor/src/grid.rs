//! Regular latitude–longitude grid descriptors for the climate archetype.
//!
//! Regridding (ClimaX/Pangu-Weather style "interpolate spatial grids") needs
//! the geometry of both source and target grids: cell-center coordinates,
//! cell bounds, and spherical cell areas (for conservative remapping).

/// A regular (equally spaced) global latitude–longitude grid.
///
/// Latitude cell centers run from south to north, longitude centers from 0°
/// eastward; both are uniformly spaced and cover the full globe, matching
/// the layout of typical reanalysis products after standardization.
#[derive(Debug, Clone, PartialEq)]
pub struct LatLonGrid {
    nlat: usize,
    nlon: usize,
}

impl LatLonGrid {
    /// A global grid with `nlat × nlon` cells.
    pub fn global(nlat: usize, nlon: usize) -> Self {
        assert!(nlat > 0 && nlon > 0, "grid must be non-empty");
        LatLonGrid { nlat, nlon }
    }

    /// Number of latitude rows.
    pub fn nlat(&self) -> usize {
        self.nlat
    }

    /// Number of longitude columns.
    pub fn nlon(&self) -> usize {
        self.nlon
    }

    /// Total number of cells.
    pub fn ncells(&self) -> usize {
        self.nlat * self.nlon
    }

    /// Shape `[nlat, nlon]` for tensor construction.
    pub fn shape(&self) -> [usize; 2] {
        [self.nlat, self.nlon]
    }

    /// Latitude spacing in degrees.
    pub fn dlat(&self) -> f64 {
        180.0 / self.nlat as f64
    }

    /// Longitude spacing in degrees.
    pub fn dlon(&self) -> f64 {
        360.0 / self.nlon as f64
    }

    /// Latitude of the center of row `i` (degrees, -90..90, south→north).
    pub fn lat_center(&self, i: usize) -> f64 {
        -90.0 + (i as f64 + 0.5) * self.dlat()
    }

    /// Longitude of the center of column `j` (degrees, 0..360 eastward).
    pub fn lon_center(&self, j: usize) -> f64 {
        (j as f64 + 0.5) * self.dlon()
    }

    /// Latitude bounds `[south, north]` of row `i` in degrees.
    pub fn lat_bounds(&self, i: usize) -> (f64, f64) {
        let s = -90.0 + i as f64 * self.dlat();
        (s, s + self.dlat())
    }

    /// Longitude bounds `[west, east]` of column `j` in degrees.
    pub fn lon_bounds(&self, j: usize) -> (f64, f64) {
        let w = j as f64 * self.dlon();
        (w, w + self.dlon())
    }

    /// Area of cell `(i, j)` on the unit sphere (steradians).
    ///
    /// `A = Δλ · (sin φ_n − sin φ_s)`: constant in longitude, shrinking
    /// toward the poles — the weighting that conservative regridding and
    /// area-weighted statistics must respect.
    pub(crate) fn cell_area(&self, i: usize, _j: usize) -> f64 {
        let (s, n) = self.lat_bounds(i);
        let dlon_rad = self.dlon().to_radians();
        dlon_rad * (n.to_radians().sin() - s.to_radians().sin())
    }

    /// Area-weighted mean of a field laid out `[nlat, nlon]` row-major.
    /// NaN cells are excluded along with their weight.
    pub fn area_weighted_mean(&self, field: &[f64]) -> Option<f64> {
        assert_eq!(field.len(), self.ncells(), "field/grid size mismatch");
        let mut num = 0.0;
        let mut den = 0.0;
        for i in 0..self.nlat {
            let a = self.cell_area(i, 0);
            for j in 0..self.nlon {
                let v = field[i * self.nlon + j];
                if v.is_nan() {
                    continue;
                }
                num += a * v;
                den += a;
            }
        }
        if den == 0.0 {
            None
        } else {
            Some(num / den)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn centers_and_bounds() {
        let g = LatLonGrid::global(4, 8);
        assert_eq!(g.dlat(), 45.0);
        assert_eq!(g.dlon(), 45.0);
        assert_eq!(g.lat_center(0), -67.5);
        assert_eq!(g.lat_center(3), 67.5);
        assert_eq!(g.lon_center(0), 22.5);
        assert_eq!(g.lat_bounds(0), (-90.0, -45.0));
        assert_eq!(g.lon_bounds(7), (315.0, 360.0));
    }

    #[test]
    fn cell_areas_sum_to_the_sphere() {
        for (nlat, nlon) in [(4, 8), (32, 64), (90, 180)] {
            let g = LatLonGrid::global(nlat, nlon);
            let area: f64 = (0..nlat).map(|i| g.cell_area(i, 0) * nlon as f64).sum();
            assert!(
                (area - 4.0 * std::f64::consts::PI).abs() < 1e-9,
                "{nlat}x{nlon}: {area}"
            );
        }
    }

    #[test]
    fn polar_cells_smaller_than_equatorial() {
        let g = LatLonGrid::global(16, 32);
        assert!(g.cell_area(0, 0) < g.cell_area(8, 0));
        assert!((g.cell_area(0, 0) - g.cell_area(15, 0)).abs() < 1e-15);
    }

    #[test]
    fn area_weighted_mean_constant_field() {
        let g = LatLonGrid::global(8, 16);
        let field = vec![3.5; g.ncells()];
        let m = g.area_weighted_mean(&field).unwrap();
        assert!((m - 3.5).abs() < 1e-12);
    }

    #[test]
    fn area_weighted_mean_skips_nan() {
        let g = LatLonGrid::global(2, 2);
        let mut field = vec![1.0; 4];
        field[3] = f64::NAN;
        let m = g.area_weighted_mean(&field).unwrap();
        assert!((m - 1.0).abs() < 1e-12);
        let all_nan = vec![f64::NAN; 4];
        assert_eq!(g.area_weighted_mean(&all_nan), None);
    }

    #[test]
    fn area_weighting_differs_from_plain_mean() {
        // Field = 1 at poles, 0 at equator rows: plain mean 0.5,
        // area-weighted mean < 0.5 because polar cells are smaller.
        let g = LatLonGrid::global(4, 4);
        let mut field = vec![0.0; 16];
        for j in 0..4 {
            field[j] = 1.0; // southernmost row
            field[12 + j] = 1.0; // northernmost row
        }
        let m = g.area_weighted_mean(&field).unwrap();
        assert!(m < 0.5, "weighted mean {m}");
    }
}
