"""Measurement grids, interpolation, synthetic generation and CSV I/O."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import femupdate as fu
from femupdate.errors import OutOfDomainError, ParseError
from femupdate.measurement import Interpolator

E0 = 200000.0


def make_problem(nx=10, ny=4, defect=True):
    mesh = fu.build_coupon_mesh(100, 20, 2, nx, ny)
    pmap = fu.partition_longitudinal(mesh, 2)
    if defect:
        pmap = fu.stamp_defect_patches(pmap, mesh, [fu.DefectSpec((30, 5), (70, 15))])
    bcs = fu.BoundaryConditions("xmin", "xmax", 0.1)
    values = np.full(pmap.patch_count, E0)
    if defect:
        values[-1] = 0.3 * E0
    return fu.ForwardModel(mesh, pmap, 0.3, bcs), values


class TestMeasurementGrid:
    def test_points_row_major(self):
        grid = fu.MeasurementGrid((1.0, 2.0), (0.5, 1.0), (3, 2))
        pts = grid.points()
        assert pts.shape == (6, 2)
        assert_allclose(pts[:3, 1], 2.0)  # first row shares y
        assert_allclose(pts[:3, 0], [1.0, 1.5, 2.0])
        assert_allclose(pts[3:, 1], 3.0)

    def test_invalid_spacing(self):
        with pytest.raises(ValueError):
            fu.MeasurementGrid((0, 0), (0.0, 1.0), (2, 2))

    def test_grid_for_footprint_counts(self):
        grid = fu.grid_for_footprint((100, 20), counts=(40, 10))
        assert grid.counts == (40, 10)
        pts = grid.points()
        assert pts[:, 0].min() > 0 and pts[:, 0].max() < 100
        assert pts[:, 1].min() > 0 and pts[:, 1].max() < 20

    def test_grid_for_footprint_spacing(self):
        grid = fu.grid_for_footprint((100, 20), spacing=(2.5, 2.0))
        assert grid.spacing == (2.5, 2.0)
        # default margin is one grid spacing (the finer axis)
        assert grid.origin == (2.0, 2.0)

    def test_exactly_one_of_spacing_counts(self):
        with pytest.raises(ValueError, match="exactly one"):
            fu.grid_for_footprint((100, 20))
        with pytest.raises(ValueError, match="exactly one"):
            fu.grid_for_footprint((100, 20), spacing=(1, 1), counts=(5, 5))


class TestInterpolation:
    def test_constant_field_exact(self):
        model, _ = make_problem(defect=False)
        grid = fu.grid_for_footprint((100, 20), counts=(9, 5), margin=2.5)
        pts = model.surface_points
        field = fu.StrainField(pts, np.full(len(pts), 1e-3), np.zeros(len(pts)), np.zeros(len(pts)))
        exx, eyy, exy = fu.interpolate_fe_to_grid(field, grid)
        assert_allclose(exx, 1e-3, rtol=0, atol=1e-18)

    def test_linear_field_within_one_percent(self):
        model, _ = make_problem(nx=20, ny=8, defect=False)
        pts = model.surface_points
        a = 2e-5
        field = fu.StrainField(pts, a * pts[:, 0], np.zeros(len(pts)), np.zeros(len(pts)))
        grid = fu.grid_for_footprint((100, 20), spacing=(5.0, 2.5), margin=5.0)
        exx, _, _ = fu.interpolate_fe_to_grid(field, grid)
        expected = a * grid.points()[:, 0]
        assert np.abs(exx - expected).max() < 0.01 * np.abs(expected).max()

    def test_coincident_point_returns_sample(self):
        samples = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [0.4, 0.7]])
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        interp = Interpolator(samples, np.array([[0.4, 0.7], [1.0, 1.0]]))
        out = interp(values)
        assert out[0] == 5.0
        assert out[1] == 4.0

    def test_out_of_domain_lists_points(self):
        samples = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(OutOfDomainError, match=r"\(2, 0.5\)"):
            Interpolator(samples, np.array([[0.5, 0.5], [2.0, 0.5]]))

    def test_grid_beyond_footprint_rejected(self):
        model, _ = make_problem()
        pts = model.surface_points
        field = fu.StrainField(pts, np.zeros(len(pts)), np.zeros(len(pts)), np.zeros(len(pts)))
        grid = fu.MeasurementGrid((90.0, 5.0), (2.0, 2.0), (10, 3))  # runs past x = 100
        with pytest.raises(OutOfDomainError):
            fu.interpolate_fe_to_grid(field, grid)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_convex_combination(self, data):
        rng_seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(rng_seed)
        n = data.draw(st.integers(4, 30))
        samples = rng.uniform(0, 10, size=(n, 2))
        values = rng.uniform(-5, 5, size=n)
        lo, hi = samples.min(axis=0), samples.max(axis=0)
        targets = lo + rng.uniform(0, 1, size=(8, 2)) * (hi - lo)
        out = Interpolator(samples, targets)(values)
        assert np.all(out >= values.min() - 1e-12)
        assert np.all(out <= values.max() + 1e-12)

    def test_transpose_is_adjoint(self):
        rng = np.random.default_rng(8)
        samples = rng.uniform(0, 10, size=(25, 2))
        targets = np.vstack([samples[3], 2.0 + rng.uniform(0, 6, size=(11, 2))])  # one coincident
        interp = Interpolator(samples, targets)
        a = rng.normal(size=25)
        b = rng.normal(size=12)
        back = interp.transpose(b)
        assert back.shape == (25,)
        assert float(interp(a) @ b) == pytest.approx(float(a @ back), rel=1e-13)


class TestGenerateSynthetic:
    def test_zero_noise_equals_clean_field(self):
        model, truth = make_problem()
        grid = fu.grid_for_footprint((100, 20), counts=(12, 5))
        field = fu.generate_synthetic(model, truth, grid, noise_sigma=0.0)
        rebuilt = fu.ForwardModel(model.mesh, model.patch_map, 0.3, model.bcs)
        clean = fu.interpolate_fe_to_grid(rebuilt.strain_field(truth), grid)
        assert np.array_equal(field.exx, clean[0])
        assert np.array_equal(field.eyy, clean[1])
        assert np.array_equal(field.exy, clean[2])

    def test_same_seed_bitwise_identical(self):
        model, truth = make_problem()
        grid = fu.grid_for_footprint((100, 20), counts=(12, 5))
        a = fu.generate_synthetic(model, truth, grid, 0.02, rng_seed=77)
        b = fu.generate_synthetic(model, truth, grid, 0.02, rng_seed=77)
        assert np.array_equal(a.exx, b.exx)
        assert np.array_equal(a.eyy, b.eyy)
        assert np.array_equal(a.exy, b.exy)

    def test_noise_level_statistics(self):
        """Sample std of (noisy - clean)/RMS is within 15% of noise_sigma."""
        model, truth = make_problem()
        grid = fu.grid_for_footprint((100, 20), counts=(100, 100), margin=2.3)
        assert grid.n_points == 10_000
        clean = fu.generate_synthetic(model, truth, grid, 0.0)
        noisy = fu.generate_synthetic(model, truth, grid, 0.01, rng_seed=4)
        for name in ("exx", "eyy", "exy"):
            c = getattr(clean, name)
            n = getattr(noisy, name)
            rms = np.sqrt(np.mean(c**2))
            ratio = np.std(n - c) / rms
            assert 0.0085 < ratio < 0.0115, f"{name}: {ratio}"

    def test_negative_noise_rejected(self):
        model, truth = make_problem()
        grid = fu.grid_for_footprint((100, 20), counts=(5, 3))
        with pytest.raises(ValueError):
            fu.generate_synthetic(model, truth, grid, -0.1)


class TestMeasurementCsv:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "x_mm,y_mm,exx,eyy,exy\n"
            "1,1,1e-3,2e-3,3e-3\n"
            "2,1,1e-3,2e-3,3e-3\n"
            "1,2,1e-3,2e-3,3e-3\n"
            "2,2,1e-3,2e-3,3e-3\n"
        )
        field = fu.load_measurement_csv(path)
        assert field.grid.counts == (2, 2)
        assert field.grid.n_points == 4
        assert field.load_step == 0

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x_mm,y_mm,eyy,exy\n1,1,0,0\n")
        with pytest.raises(ParseError, match="'exx'"):
            fu.load_measurement_csv(path)

    def test_malformed_row_line_number(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x_mm,y_mm,exx,eyy,exy\n1,1,0,0,0\n2,1,0,0\n")
        with pytest.raises(ParseError, match="line 3"):
            fu.load_measurement_csv(path)

    def test_nan_strain_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x_mm,y_mm,exx,eyy,exy\n1,1,nan,0,0\n")
        with pytest.raises(ParseError, match="non-finite"):
            fu.load_measurement_csv(path)

    def test_irregular_grid_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "x_mm,y_mm,exx,eyy,exy\n"
            "1,1,0,0,0\n"
            "2.0001,1,0,0,0\n"
            "1,2,0,0,0\n"
            "2,2,0,0,0\n"
        )
        with pytest.raises(ParseError, match="regular grid"):
            fu.load_measurement_csv(path)

    def test_round_trip_lossless(self, tmp_path):
        model, truth = make_problem()
        grid = fu.grid_for_footprint((100, 20), counts=(12, 5))
        field = fu.generate_synthetic(model, truth, grid, 0.01, rng_seed=13)
        path = tmp_path / "m.csv"
        fu.write_measurement_csv(field, path)
        loaded = fu.load_measurement_csv(path)
        assert np.array_equal(loaded.exx, field.exx)
        assert np.array_equal(loaded.eyy, field.eyy)
        assert np.array_equal(loaded.exy, field.exy)
        assert loaded.noise_sigma == field.noise_sigma
        assert loaded.rng_seed == 13
        assert loaded.grid.counts == field.grid.counts
        assert abs(loaded.grid.origin[0] - field.grid.origin[0]) < 1e-9
        # reconstructed grid points match to well below the 1e-9 mm contract
        assert np.abs(loaded.grid.points() - field.grid.points()).max() < 1e-12 * 100

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(ParseError, match="header"):
            fu.load_measurement_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x_mm,y_mm,exx,eyy,exy\n")
        with pytest.raises(ParseError, match="no data rows"):
            fu.load_measurement_csv(path)


class TestInverseCrimeZero:
    def test_noiseless_cost_against_same_truth_is_zero(self):
        model, truth = make_problem()
        grid = fu.grid_for_footprint((100, 20), counts=(12, 5))
        field = fu.generate_synthetic(model, truth, grid, 0.0)
        context = fu.CostContext(model.mesh, model.patch_map, model.bcs, 0.3, [field])
        assert fu.evaluate_cost(truth, context) < 1e-20
