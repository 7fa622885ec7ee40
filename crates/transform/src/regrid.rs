//! Spatial regridding for lat-lon fields — the climate archetype's
//! signature transform (`download → regrid → normalize → shard`).
//!
//! Two schemes, matching what real pipelines use:
//!
//! * [`bilinear`] — smooth interpolation of cell-center values; the choice
//!   for state fields (temperature, pressure) in ClimaX/Pangu-Weather.
//! * [`conservative`] — first-order area-weighted remapping that exactly
//!   preserves the global area integral; required for flux-like fields
//!   (precipitation) where physical conservation matters (§2.2's "adherence
//!   to physical constraints").
//!
//! Which source cells feed a target cell, and with what weight, depends
//! on the two grids alone. A [`RegridPlan`] works that geometry out once
//! and [`RegridPlan::apply_into`] remaps any number of fields with it;
//! the two free functions build a plan and apply it to one field.

use crate::TransformError;
use drai_tensor::LatLonGrid;

fn shape_mismatch(what: &str, expected: usize, got: usize) -> TransformError {
    TransformError::ShapeMismatch {
        expected: format!("{expected} {what}"),
        got: format!("{got}"),
    }
}

/// The remapping a [`RegridPlan`] applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// See [`bilinear`].
    Bilinear,
    /// See [`conservative`].
    Conservative,
}

/// The two neighbours of a target coordinate along one axis and their
/// weights: the interpolated value is `at(i0)·(1−t) + at(i1)·t`.
#[derive(Debug, Clone, Copy)]
struct Lerp {
    i0: usize,
    i1: usize,
    t: f64,
    one_minus_t: f64,
}

/// For each target index along one axis, the source indices overlapping
/// it with their 1-D overlap weights, stored as one run after another.
#[derive(Debug, Clone)]
struct Overlaps {
    /// Run `k` is `taps[starts[k]..starts[k + 1]]`.
    starts: Vec<usize>,
    taps: Vec<(usize, f64)>,
}

impl Overlaps {
    /// `ntargets` runs; `overlap(k, taps)` appends run `k`'s taps.
    fn build(ntargets: usize, mut overlap: impl FnMut(usize, &mut Vec<(usize, f64)>)) -> Overlaps {
        let mut starts = Vec::with_capacity(ntargets + 1);
        let mut taps = Vec::new();
        for k in 0..ntargets {
            starts.push(taps.len());
            overlap(k, &mut taps);
        }
        starts.push(taps.len());
        Overlaps { starts, taps }
    }

    fn run(&self, k: usize) -> &[(usize, f64)] {
        &self.taps[self.starts[k]..self.starts[k + 1]]
    }
}

#[derive(Debug, Clone)]
enum Weights {
    /// Row entries index the start of a source row (`i · nlon`), column
    /// entries a column.
    Bilinear { rows: Vec<Lerp>, cols: Vec<Lerp> },
    /// Row taps carry the start of a source row and its sin-latitude
    /// overlap, column taps a column and its longitude overlap; the
    /// spherical area element factorizes as dλ · d(sin φ).
    Conservative { rows: Overlaps, cols: Overlaps },
}

/// The geometry of remapping one grid onto another under one [`Scheme`],
/// computed once and applied to as many fields as share the grids.
///
/// Applying a plan evaluates the same expressions in the same order as
/// the per-call form did, so results are bit-identical however many
/// fields a plan serves.
#[derive(Debug, Clone)]
pub struct RegridPlan {
    src_cells: usize,
    dst_nlon: usize,
    dst_cells: usize,
    weights: Weights,
}

impl RegridPlan {
    /// Work out the geometry of `scheme` from `src_grid` onto `dst_grid`.
    pub fn new(src_grid: &LatLonGrid, dst_grid: &LatLonGrid, scheme: Scheme) -> RegridPlan {
        let weights = match scheme {
            Scheme::Bilinear => bilinear_weights(src_grid, dst_grid),
            Scheme::Conservative => conservative_weights(src_grid, dst_grid),
        };
        RegridPlan {
            src_cells: src_grid.ncells(),
            dst_nlon: dst_grid.nlon(),
            dst_cells: dst_grid.ncells(),
            weights,
        }
    }

    /// Remap `field` (row-major on the source grid) into `out` (row-major
    /// on the target grid). Either slice having the wrong length is a
    /// [`TransformError::ShapeMismatch`].
    pub fn apply_into(&self, field: &[f64], out: &mut [f64]) -> Result<(), TransformError> {
        if field.len() != self.src_cells {
            return Err(shape_mismatch("source cells", self.src_cells, field.len()));
        }
        if out.len() != self.dst_cells {
            return Err(shape_mismatch("target cells", self.dst_cells, out.len()));
        }
        let out_rows = out.chunks_exact_mut(self.dst_nlon);
        match &self.weights {
            Weights::Bilinear { rows, cols } => {
                for (row, out_row) in rows.iter().zip(out_rows) {
                    for (col, o) in cols.iter().zip(out_row) {
                        let v00 = field[row.i0 + col.i0];
                        let v01 = field[row.i0 + col.i1];
                        let v10 = field[row.i1 + col.i0];
                        let v11 = field[row.i1 + col.i1];
                        let top = v00 * col.one_minus_t + v01 * col.t;
                        let bot = v10 * col.one_minus_t + v11 * col.t;
                        *o = top * row.one_minus_t + bot * row.t;
                    }
                }
            }
            Weights::Conservative { rows, cols } => {
                for (di, out_row) in out_rows.enumerate() {
                    let row = rows.run(di);
                    for (dj, o) in out_row.iter_mut().enumerate() {
                        let col = cols.run(dj);
                        let mut num = 0.0;
                        let mut den = 0.0;
                        for &(r, wi) in row {
                            for &(sj, wj) in col {
                                let w = wi * wj;
                                num += w * field[r + sj];
                                den += w;
                            }
                        }
                        // A NaN among the overlapped cells makes `num` NaN;
                        // only then is the cell summed again with the
                        // missing cells and their area left out.
                        if num.is_nan() {
                            (num, den) = sum_present(field, row, col);
                        }
                        *o = if den > 0.0 { num / den } else { f64::NAN };
                    }
                }
            }
        }
        Ok(())
    }
}

/// One target cell's weighted sum and total weight over the source cells
/// that are not NaN.
#[cold]
fn sum_present(field: &[f64], row: &[(usize, f64)], col: &[(usize, f64)]) -> (f64, f64) {
    let mut num = 0.0;
    let mut den = 0.0;
    for &(r, wi) in row {
        for &(sj, wj) in col {
            let v = field[r + sj];
            if v.is_nan() {
                continue;
            }
            let w = wi * wj;
            num += w * v;
            den += w;
        }
    }
    (num, den)
}

fn bilinear_weights(src_grid: &LatLonGrid, dst_grid: &LatLonGrid) -> Weights {
    let (snlat, snlon) = (src_grid.nlat() as isize, src_grid.nlon() as isize);
    let rows = (0..dst_grid.nlat())
        .map(|di| {
            // Fractional row index in source cell-center space.
            let fi = (dst_grid.lat_center(di) + 90.0) / src_grid.dlat() - 0.5;
            let i0 = fi.floor();
            let ti = fi - i0;
            let i0 = i0 as isize;
            // Latitude clamps at the poles.
            Lerp {
                i0: i0.clamp(0, snlat - 1) as usize * snlon as usize,
                i1: (i0 + 1).clamp(0, snlat - 1) as usize * snlon as usize,
                t: ti,
                one_minus_t: 1.0 - ti,
            }
        })
        .collect();
    let cols = (0..dst_grid.nlon())
        .map(|dj| {
            let fj = dst_grid.lon_center(dj) / src_grid.dlon() - 0.5;
            let j0 = fj.floor();
            let tj = fj - j0;
            let j0 = j0 as isize;
            // Periodic wrap in longitude.
            Lerp {
                i0: j0.rem_euclid(snlon) as usize,
                i1: (j0 + 1).rem_euclid(snlon) as usize,
                t: tj,
                one_minus_t: 1.0 - tj,
            }
        })
        .collect();
    Weights::Bilinear { rows, cols }
}

fn conservative_weights(src_grid: &LatLonGrid, dst_grid: &LatLonGrid) -> Weights {
    let (snlat, snlon) = (src_grid.nlat(), src_grid.nlon());
    // Latitude overlaps give sin-weighted fractions, longitude overlaps
    // plain length fractions.
    let rows = Overlaps::build(dst_grid.nlat(), |di, taps| {
        let (ds, dn) = dst_grid.lat_bounds(di);
        // Source rows possibly overlapping.
        let first = (((ds + 90.0) / src_grid.dlat()).floor() as isize).max(0) as usize;
        let last = ((((dn + 90.0) / src_grid.dlat()).ceil() as isize).min(snlat as isize)) as usize;
        for si in first..last {
            let (ss, sn) = src_grid.lat_bounds(si);
            let lo = ds.max(ss);
            let hi = dn.min(sn);
            if hi > lo {
                taps.push((si * snlon, hi.to_radians().sin() - lo.to_radians().sin()));
            }
        }
    });
    let cols = Overlaps::build(dst_grid.nlon(), |dj, taps| {
        let (dw, de) = dst_grid.lon_bounds(dj);
        let first = ((dw / src_grid.dlon()).floor() as isize).max(0) as usize;
        let last = (((de / src_grid.dlon()).ceil() as isize).min(snlon as isize)) as usize;
        for sj in first..last {
            let (sw, se) = src_grid.lon_bounds(sj);
            let lo = dw.max(sw);
            let hi = de.min(se);
            if hi > lo {
                taps.push((sj, hi - lo));
            }
        }
    });
    Weights::Conservative { rows, cols }
}

fn remap(
    src_grid: &LatLonGrid,
    src: &[f64],
    dst_grid: &LatLonGrid,
    scheme: Scheme,
) -> Result<Vec<f64>, TransformError> {
    let mut out = vec![0.0; dst_grid.ncells()];
    RegridPlan::new(src_grid, dst_grid, scheme).apply_into(src, &mut out)?;
    Ok(out)
}

/// Bilinear interpolation from `src` grid to `dst` grid.
///
/// Longitude wraps periodically; latitude clamps at the poles. NaN source
/// cells poison only the destination cells that interpolate from them.
pub fn bilinear(
    src_grid: &LatLonGrid,
    src: &[f64],
    dst_grid: &LatLonGrid,
) -> Result<Vec<f64>, TransformError> {
    remap(src_grid, src, dst_grid, Scheme::Bilinear)
}

/// First-order conservative remapping.
///
/// Each destination cell's value is the area-weighted average of the
/// source cells overlapping it, so the global area-weighted integral is
/// preserved exactly (up to floating point). NaN source cells are treated
/// as missing: they contribute no area, and a destination cell whose
/// overlap is entirely missing becomes NaN.
pub fn conservative(
    src_grid: &LatLonGrid,
    src: &[f64],
    dst_grid: &LatLonGrid,
) -> Result<Vec<f64>, TransformError> {
    remap(src_grid, src, dst_grid, Scheme::Conservative)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `bilinear` and `conservative` as they were before `RegridPlan`:
    /// the geometry worked out again for every cell of every call. The
    /// plan is held to these bit for bit.
    mod per_call {
        use super::super::*;

        fn check_field(grid: &LatLonGrid, field: &[f64]) -> Result<(), TransformError> {
            if field.len() != grid.ncells() {
                return Err(TransformError::ShapeMismatch {
                    expected: format!("{} cells ({}x{})", grid.ncells(), grid.nlat(), grid.nlon()),
                    got: format!("{}", field.len()),
                });
            }
            Ok(())
        }

        pub fn bilinear(
            src_grid: &LatLonGrid,
            src: &[f64],
            dst_grid: &LatLonGrid,
        ) -> Result<Vec<f64>, TransformError> {
            check_field(src_grid, src)?;
            let (snlat, snlon) = (src_grid.nlat(), src_grid.nlon());
            let mut out = Vec::with_capacity(dst_grid.ncells());
            for di in 0..dst_grid.nlat() {
                let lat = dst_grid.lat_center(di);
                // Fractional row index in source cell-center space.
                let fi = (lat + 90.0) / src_grid.dlat() - 0.5;
                let i0 = fi.floor();
                let ti = fi - i0;
                let i0 = i0 as isize;
                let (i0c, i1c) = (
                    i0.clamp(0, snlat as isize - 1) as usize,
                    (i0 + 1).clamp(0, snlat as isize - 1) as usize,
                );
                for dj in 0..dst_grid.nlon() {
                    let lon = dst_grid.lon_center(dj);
                    let fj = lon / src_grid.dlon() - 0.5;
                    let j0 = fj.floor();
                    let tj = fj - j0;
                    let j0 = j0 as isize;
                    // Periodic wrap in longitude.
                    let j0w = j0.rem_euclid(snlon as isize) as usize;
                    let j1w = (j0 + 1).rem_euclid(snlon as isize) as usize;

                    let v00 = src[i0c * snlon + j0w];
                    let v01 = src[i0c * snlon + j1w];
                    let v10 = src[i1c * snlon + j0w];
                    let v11 = src[i1c * snlon + j1w];
                    let top = v00 * (1.0 - tj) + v01 * tj;
                    let bot = v10 * (1.0 - tj) + v11 * tj;
                    out.push(top * (1.0 - ti) + bot * ti);
                }
            }
            Ok(out)
        }

        pub fn conservative(
            src_grid: &LatLonGrid,
            src: &[f64],
            dst_grid: &LatLonGrid,
        ) -> Result<Vec<f64>, TransformError> {
            check_field(src_grid, src)?;
            let (snlat, snlon) = (src_grid.nlat(), src_grid.nlon());
            let mut out = Vec::with_capacity(dst_grid.ncells());

            // Precompute 1D overlaps: lat overlaps give sin-weighted fractions,
            // lon overlaps plain length fractions (the spherical area element
            // factorizes as dλ · d(sin φ)).
            let lat_overlaps: Vec<Vec<(usize, f64)>> = (0..dst_grid.nlat())
                .map(|di| {
                    let (ds, dn) = dst_grid.lat_bounds(di);
                    let mut row = Vec::new();
                    // Source rows possibly overlapping.
                    let first = (((ds + 90.0) / src_grid.dlat()).floor() as isize).max(0) as usize;
                    let last = ((((dn + 90.0) / src_grid.dlat()).ceil() as isize)
                        .min(snlat as isize)) as usize;
                    for si in first..last {
                        let (ss, sn) = src_grid.lat_bounds(si);
                        let lo = ds.max(ss);
                        let hi = dn.min(sn);
                        if hi > lo {
                            let w = hi.to_radians().sin() - lo.to_radians().sin();
                            row.push((si, w));
                        }
                    }
                    row
                })
                .collect();

            let lon_overlaps: Vec<Vec<(usize, f64)>> = (0..dst_grid.nlon())
                .map(|dj| {
                    let (dw, de) = dst_grid.lon_bounds(dj);
                    let mut row = Vec::new();
                    let first = ((dw / src_grid.dlon()).floor() as isize).max(0) as usize;
                    let last =
                        (((de / src_grid.dlon()).ceil() as isize).min(snlon as isize)) as usize;
                    for sj in first..last {
                        let (sw, se) = src_grid.lon_bounds(sj);
                        let lo = dw.max(sw);
                        let hi = de.min(se);
                        if hi > lo {
                            row.push((sj, hi - lo));
                        }
                    }
                    row
                })
                .collect();

            for lat_row in &lat_overlaps {
                for lon_row in &lon_overlaps {
                    let mut num = 0.0;
                    let mut den = 0.0;
                    for &(si, wi) in lat_row {
                        for &(sj, wj) in lon_row {
                            let v = src[si * snlon + sj];
                            if v.is_nan() {
                                continue;
                            }
                            let w = wi * wj;
                            num += w * v;
                            den += w;
                        }
                    }
                    out.push(if den > 0.0 { num / den } else { f64::NAN });
                }
            }
            Ok(out)
        }
    }

    /// Bit patterns, with every NaN mapped to one: Rust leaves the sign
    /// and payload of an arithmetic NaN unspecified, and where an input
    /// NaN meets one born of `inf − inf` the survivor depends on the
    /// operand order the optimizer picked for that copy of the loop.
    fn bits(values: &[f64]) -> Vec<u64> {
        values
            .iter()
            .map(|v| if v.is_nan() { f64::NAN } else { *v }.to_bits())
            .collect()
    }

    /// Field values: a smooth body, NaNs to poison or skip, zeros of both
    /// signs and both infinities.
    fn cell() -> impl Strategy<Value = f64> {
        prop_oneof![
            12 => -1e6f64..1e6,
            2 => Just(f64::NAN),
            1 => Just(0.0),
            1 => Just(-0.0),
            1 => Just(f64::INFINITY),
            1 => Just(f64::NEG_INFINITY),
        ]
    }

    /// Cuts `n` cells for each of `count` fields out of `pool`, cycling.
    fn fields_from(pool: &[f64], n: usize, count: usize) -> Vec<Vec<f64>> {
        (0..count)
            .map(|f| (0..n).map(|k| pool[(f * 131 + k) % pool.len()]).collect())
            .collect()
    }

    fn assert_plan_matches_per_call(src: &LatLonGrid, dst: &LatLonGrid, fields: &[Vec<f64>]) {
        let schemes: [(Scheme, PerCall); 2] = [
            (Scheme::Bilinear, per_call::bilinear),
            (Scheme::Conservative, per_call::conservative),
        ];
        for (scheme, reference) in schemes {
            // One plan serves every field; the output buffer is reused, so
            // nothing of the previous field may survive in it.
            let plan = RegridPlan::new(src, dst, scheme);
            let mut out = vec![f64::NAN; dst.ncells()];
            for field in fields {
                let want = reference(src, field, dst).unwrap();
                plan.apply_into(field, &mut out).unwrap();
                assert_eq!(bits(&out), bits(&want), "{scheme:?} plan");
                let one_shot = match scheme {
                    Scheme::Bilinear => bilinear(src, field, dst),
                    Scheme::Conservative => conservative(src, field, dst),
                };
                assert_eq!(bits(&one_shot.unwrap()), bits(&want), "{scheme:?} one-shot");
            }
        }
    }

    type PerCall = fn(&LatLonGrid, &[f64], &LatLonGrid) -> Result<Vec<f64>, TransformError>;

    proptest! {
        #[test]
        fn plan_equals_per_call_bit_for_bit(
            src_shape in (1usize..20, 1usize..40),
            dst_shape in (1usize..20, 1usize..40),
            pool in proptest::collection::vec(cell(), 1..400),
            nfields in 1usize..5) {
            let src = LatLonGrid::global(src_shape.0, src_shape.1);
            let dst = LatLonGrid::global(dst_shape.0, dst_shape.1);
            assert_plan_matches_per_call(&src, &dst, &fields_from(&pool, src.ncells(), nfields));
        }
    }

    #[test]
    fn plan_equals_per_call_on_named_grid_pairs() {
        // Coarsening, refinement, a non-multiple pair, one-row and
        // one-column grids, and the benchmark's own pair.
        let pairs = [
            ((24, 48), (8, 16)),
            ((8, 16), (24, 48)),
            ((18, 36), (7, 13)),
            ((7, 13), (18, 36)),
            ((1, 12), (5, 9)),
            ((6, 1), (1, 1)),
            ((1, 1), (4, 7)),
            ((96, 192), (64, 128)),
        ];
        for ((snlat, snlon), (dnlat, dnlon)) in pairs {
            let src = LatLonGrid::global(snlat, snlon);
            let dst = LatLonGrid::global(dnlat, dnlon);
            let smooth = smooth_field(&src);
            let mut holed = smooth.clone();
            for v in holed.iter_mut().step_by(5) {
                *v = f64::NAN;
            }
            let all_nan = vec![f64::NAN; src.ncells()];
            // Many fields through one plan, clean and holed alternating.
            let mut fields = vec![smooth, holed, all_nan];
            for f in 0..6 {
                let shifted = fields[f % 2].iter().map(|v| v * 1.5 + f as f64).collect();
                fields.push(shifted);
            }
            assert_plan_matches_per_call(&src, &dst, &fields);
        }
    }

    #[test]
    fn plan_rejects_wrong_lengths_without_panicking() {
        let src = LatLonGrid::global(4, 8);
        let dst = LatLonGrid::global(3, 5);
        for scheme in [Scheme::Bilinear, Scheme::Conservative] {
            let plan = RegridPlan::new(&src, &dst, scheme);
            let mut out = vec![0.0; 15];
            for bad in [0, 31, 33] {
                assert!(matches!(
                    plan.apply_into(&vec![1.0; bad], &mut out),
                    Err(TransformError::ShapeMismatch { .. })
                ));
            }
            for bad in [0, 14, 16] {
                assert!(matches!(
                    plan.apply_into(&[1.0; 32], &mut vec![0.0; bad]),
                    Err(TransformError::ShapeMismatch { .. })
                ));
            }
            plan.apply_into(&[1.0; 32], &mut out).unwrap();
        }
    }

    fn smooth_field(grid: &LatLonGrid) -> Vec<f64> {
        (0..grid.nlat())
            .flat_map(|i| {
                (0..grid.nlon()).map(move |j| (i as f64 * 0.3).sin() + (j as f64 * 0.2).cos())
            })
            .collect()
    }

    #[test]
    fn bilinear_preserves_constant() {
        let src = LatLonGrid::global(16, 32);
        let dst = LatLonGrid::global(11, 23);
        let field = vec![42.0; src.ncells()];
        let out = bilinear(&src, &field, &dst).unwrap();
        assert!(out.iter().all(|&v| (v - 42.0).abs() < 1e-12));
    }

    #[test]
    fn bilinear_identity_on_same_grid() {
        let g = LatLonGrid::global(8, 16);
        let field = smooth_field(&g);
        let out = bilinear(&g, &field, &g).unwrap();
        for (a, b) in out.iter().zip(&field) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn bilinear_downsample_reasonable() {
        // Smooth field downsampled then upsampled should roughly match.
        let fine = LatLonGrid::global(32, 64);
        let coarse = LatLonGrid::global(16, 32);
        let field: Vec<f64> = (0..fine.ncells())
            .map(|k| {
                let i = k / 64;
                let j = k % 64;
                (i as f64 / 32.0 * std::f64::consts::PI).sin()
                    * (j as f64 / 64.0 * 2.0 * std::f64::consts::PI).cos()
            })
            .collect();
        let down = bilinear(&fine, &field, &coarse).unwrap();
        let up = bilinear(&coarse, &down, &fine).unwrap();
        let rms: f64 = (field
            .iter()
            .zip(&up)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / field.len() as f64)
            .sqrt();
        assert!(rms < 0.05, "round-trip rms {rms}");
    }

    #[test]
    fn conservative_preserves_global_integral() {
        let src = LatLonGrid::global(24, 48);
        let dst = LatLonGrid::global(8, 16); // exact 3x coarsening
        let field = smooth_field(&src);
        let out = conservative(&src, &field, &dst).unwrap();
        let src_mean = src.area_weighted_mean(&field).unwrap();
        let dst_mean = dst.area_weighted_mean(&out).unwrap();
        assert!(
            (src_mean - dst_mean).abs() < 1e-10,
            "integral drift: {src_mean} vs {dst_mean}"
        );
    }

    #[test]
    fn conservative_nonmultiple_grids_still_conserve() {
        let src = LatLonGrid::global(18, 36);
        let dst = LatLonGrid::global(7, 13);
        let field = smooth_field(&src);
        let out = conservative(&src, &field, &dst).unwrap();
        let src_mean = src.area_weighted_mean(&field).unwrap();
        let dst_mean = dst.area_weighted_mean(&out).unwrap();
        assert!(
            (src_mean - dst_mean).abs() < 1e-9,
            "integral drift: {src_mean} vs {dst_mean}"
        );
    }

    #[test]
    fn conservative_constant_field() {
        let src = LatLonGrid::global(10, 20);
        let dst = LatLonGrid::global(3, 7);
        let field = vec![7.5; src.ncells()];
        let out = conservative(&src, &field, &dst).unwrap();
        assert!(out.iter().all(|&v| (v - 7.5).abs() < 1e-12));
    }

    #[test]
    fn conservative_handles_missing() {
        let src = LatLonGrid::global(4, 4);
        let dst = LatLonGrid::global(2, 2);
        let mut field = vec![1.0; 16];
        // Poison one source cell; its destination cell still averages the
        // remaining overlap.
        field[0] = f64::NAN;
        let out = conservative(&src, &field, &dst).unwrap();
        assert!(out.iter().all(|v| !v.is_nan()));
        assert!((out[0] - 1.0).abs() < 1e-12);
        // All-NaN source → NaN destination.
        let all_nan = vec![f64::NAN; 16];
        let out2 = conservative(&src, &all_nan, &dst).unwrap();
        assert!(out2.iter().all(|v| v.is_nan()));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let src = LatLonGrid::global(4, 4);
        let dst = LatLonGrid::global(2, 2);
        assert!(bilinear(&src, &[1.0; 5], &dst).is_err());
        assert!(conservative(&src, &[1.0; 5], &dst).is_err());
    }

    #[test]
    fn bilinear_wraps_longitude() {
        // Field with a sharp feature at the dateline; interpolating near
        // lon=0 must see both sides.
        let src = LatLonGrid::global(4, 8);
        let mut field = vec![0.0; src.ncells()];
        for i in 0..4 {
            field[i * 8] = 1.0; // first column
            field[i * 8 + 7] = 1.0; // last column
        }
        // Destination with twice the lon resolution: cells between the
        // last and first source columns should interpolate to 1.0.
        let dst = LatLonGrid::global(4, 16);
        let out = bilinear(&src, &field, &dst).unwrap();
        // dst lon index 0 has center 11.25°, between src centers 337.5°
        // (j=7) and 22.5° (j=0) — both 1.0.
        assert!((out[0] - 1.0).abs() < 1e-12, "wrap failed: {}", out[0]);
    }
}
