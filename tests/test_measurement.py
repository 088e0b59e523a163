"""Measurement grids, interpolation, synthetic generation and CSV I/O."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import femupdate as fu
from femupdate.config import load_config
from femupdate.errors import DataError, OutOfDomainError, ParseError
from femupdate.measurement import IDW_NEIGHBORS, Interpolator, nearest_samples
from test_acceptance import coupon_config_2d, coupon_config_3d

E0 = 200000.0


def make_problem(nx=10, ny=4, defect=True):
    mesh = fu.build_coupon_mesh(100, 20, 2, nx, ny)
    pmap = fu.partition_longitudinal(mesh, 2)
    if defect:
        pmap = fu.stamp_defect_patches(pmap, mesh, [fu.DefectSpec((30, 5), (70, 15))])
    bcs = fu.BoundaryConditions("xmin", 0.1)
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

    @pytest.mark.parametrize(
        "origin, spacing",
        [((np.nan, 5.0), (10.0, 5.0)), ((0.0, np.inf), (10.0, 5.0)), ((0.0, 0.0), (np.nan, 5.0)), ((0.0, 0.0), (1.0, np.inf))],
    )
    def test_non_finite_origin_or_spacing(self, origin, spacing):
        with pytest.raises(ValueError, match="finite"):
            fu.MeasurementGrid(origin, spacing, (3, 2))

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError, match=r"^grid counts must be >= 1, got \(3, 0\)$"):
            fu.MeasurementGrid((0, 0), (1, 1), (3, 0))

    def test_grid_for_footprint_margin_leaving_no_points(self):
        """A margin wider than half the footprint leaves no grid points."""
        with pytest.raises(ValueError, match=r"^margin 6 and spacing \(1.0, 1.0\) leave no grid points$"):
            fu.grid_for_footprint((10, 10), spacing=(1, 1), margin=6)

    def test_grid_for_footprint_infinite_spacing(self):
        with pytest.raises(ValueError, match="finite"):
            fu.grid_for_footprint((100, 20), spacing=(np.inf, 5))

    def test_non_integral_counts_rejected(self):
        with pytest.raises(ValueError, match="counts"):
            fu.MeasurementGrid((0, 0), (1, 1), (2.7, 3))

    def test_grid_for_footprint_non_integral_counts_rejected(self):
        with pytest.raises(ValueError, match="counts"):
            fu.grid_for_footprint((100, 20), counts=(12.5, 5))

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
        exx = Interpolator(pts, grid.points())(np.full(len(pts), 1e-3))
        assert_allclose(exx, 1e-3, rtol=0, atol=1e-18)

    def test_linear_field_within_one_percent(self):
        model, _ = make_problem(nx=20, ny=8, defect=False)
        pts = model.surface_points
        a = 2e-5
        grid = fu.grid_for_footprint((100, 20), spacing=(5.0, 2.5), margin=5.0)
        exx = Interpolator(pts, grid.points())(a * pts[:, 0])
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

    def test_nan_target_is_outside(self):
        samples = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(OutOfDomainError, match=r"\(nan, 0.5\)"):
            Interpolator(samples, np.array([[0.5, 0.5], [np.nan, 0.5]]))

    def test_grid_beyond_footprint_rejected(self):
        model, _ = make_problem()
        grid = fu.MeasurementGrid((90.0, 5.0), (2.0, 2.0), (10, 3))  # runs past x = 100
        with pytest.raises(OutOfDomainError):
            Interpolator(model.surface_points, grid.points())

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
        back = interp.matrix.T @ b
        assert back.shape == (25,)
        assert float(interp(a) @ b) == pytest.approx(float(a @ back), rel=1e-13)


def brute_force_nearest(samples, targets, k):
    """All target-sample distances, sorted by (distance, sample index)."""
    dist = np.sqrt(((targets[:, None, :] - samples[None, :, :]) ** 2).sum(axis=2))
    index = np.broadcast_to(np.arange(samples.shape[0]), dist.shape)
    order = np.lexsort((index, dist), axis=1)[:, :k]
    return np.take_along_axis(dist, order, axis=1), order


class TestNearestSamples:
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 40),
        cloud=st.sampled_from(["uniform", "lattice", "duplicates", "line"]),
    )
    def test_matches_brute_force(self, seed, n, cloud):
        """Random clouds, repeated points, exact ties on a lattice and fewer
        samples than IDW_NEIGHBORS: the same neighbours, in the same order."""
        rng = np.random.default_rng(seed)
        if cloud == "uniform":
            samples = rng.uniform(-3.0, 7.0, size=(n, 2))
        elif cloud == "lattice":  # integer coordinates: many exactly equal distances
            samples = rng.integers(0, 4, size=(n, 2)).astype(float)
        elif cloud == "duplicates":
            samples = rng.uniform(0.0, 2.0, size=(3, 2))[rng.integers(0, 3, n)]
        else:
            samples = np.column_stack([rng.uniform(0.0, 5.0, n), np.full(n, 1.5)])
        lo, hi = samples.min(axis=0), samples.max(axis=0)
        targets = lo + rng.uniform(0.0, 1.0, size=(25, 2)) * (hi - lo)
        if cloud == "lattice":
            targets = np.round(2.0 * targets) / 2.0  # lattice points and midpoints
        targets = np.vstack([targets, samples[:5]])  # some targets on samples
        k = min(IDW_NEIGHBORS, n)
        dist, idx = nearest_samples(samples, targets, k)
        want_dist, want_idx = brute_force_nearest(samples, targets, k)
        assert np.array_equal(idx, want_idx)
        assert_allclose(dist, want_dist, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("make_config", [coupon_config_2d, coupon_config_3d], ids=["2d", "3d"])
    def test_matches_kdtree_on_coupon_models(self, make_config):
        """The benchmark and acceptance coupons (the same geometries and
        grids): the neighbour sets of scipy's k-d tree, and the brute-force
        neighbours in their (distance, index) order, which fixes the IDW
        summation order and so the bits of M."""
        from scipy.spatial import cKDTree

        config = load_config(make_config("out"))
        mesh = config.build_mesh()
        model = fu.ForwardModel(mesh, config.build_patch_map(mesh), 0.3, config.build_bcs())
        targets = config.build_grid().points()
        dist, idx = nearest_samples(model.surface_points, targets, IDW_NEIGHBORS)
        tree_dist, tree_idx = cKDTree(model.surface_points).query(targets, k=IDW_NEIGHBORS)
        assert np.array_equal(np.sort(idx, axis=1), np.sort(tree_idx, axis=1))
        assert_allclose(dist, tree_dist, rtol=1e-15, atol=0)
        want_dist, want_idx = brute_force_nearest(model.surface_points, targets, IDW_NEIGHBORS)
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(dist, want_dist)

    @pytest.mark.parametrize(
        "target, shown",
        [((0.5, -0.25), r"\(0.5, -0.25\)"), ((np.nan, 0.5), r"\(nan, 0.5\)")],
        ids=["below", "nan"],
    )
    def test_target_outside_box_rejected(self, target, shown):
        """A target below the sample box, or with a NaN coordinate, gets no
        neighbours: the error lists it."""
        samples = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        with pytest.raises(OutOfDomainError, match=shown):
            nearest_samples(samples, np.array([[0.5, 0.5], target]), 2)

    @pytest.mark.parametrize("k", [0, 6, 7])
    def test_k_out_of_range_rejected(self, k):
        samples = np.arange(10.0).reshape(5, 2)
        with pytest.raises(ValueError, match=rf"k must be in \[1, n_samples = 5\], got {k}"):
            nearest_samples(samples, samples[:2], k)

    def test_crowded_cloud_rejected_before_its_table(self):
        """4,000 samples on 3 distinct points would need a table of ~700
        entries per sample (22 MB): refused before it is allocated."""
        rng = np.random.default_rng(3)
        samples = rng.uniform(0.0, 2.0, size=(3, 2))[rng.integers(0, 3, 4000)]
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"4000 samples crowd into few of \d+ cells"):
                nearest_samples(samples, samples[:5], IDW_NEIGHBORS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


class TestGridStrainOperator:
    @pytest.mark.parametrize("dimension", [2, 3])
    def test_matches_sampling_then_interpolation(self, dimension):
        """M @ u against the two-step path: sample strains, interpolate each."""
        if dimension == 2:
            model, values = make_problem()
        else:
            mesh = fu.build_coupon_mesh(100, 20, 8, 10, 4, 2)
            pmap = fu.stamp_defect_patches(
                fu.partition_longitudinal(mesh, 2), mesh, [fu.DefectSpec((40, 5, 0), (60, 15, 4))]
            )
            model = fu.ForwardModel(mesh, pmap, 0.3, fu.BoundaryConditions("xmin", 0.1))
            values = np.array([E0, E0, 0.25 * E0])
        grid = fu.grid_for_footprint((100, 20), counts=(12, 5))
        u = model.solve_displacement(values)
        m = fu.grid_strain_operator(model, grid)
        assert m.shape == (3 * grid.n_points, u.size)
        interp = Interpolator(model.surface_points, grid.points())
        two_step = np.concatenate([interp(c) for c in model.sample_strains(u)])
        assert np.abs(m @ u - two_step).max() <= 1e-13 * np.abs(two_step).max()


class TestGenerateSynthetic:
    def test_zero_noise_equals_clean_field(self):
        model, truth = make_problem()
        grid = fu.grid_for_footprint((100, 20), counts=(12, 5))
        field = fu.generate_synthetic(model, truth, grid, noise_sigma=0.0)
        rebuilt = fu.ForwardModel(model.mesh, model.patch_map, 0.3, model.bcs)
        clean = fu.grid_strain_operator(rebuilt, grid) @ rebuilt.solve_displacement(truth)
        assert np.array_equal(np.concatenate([field.exx, field.eyy, field.exy]), clean)

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

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_noise_rejected(self, sigma):
        model, truth = make_problem()
        grid = fu.grid_for_footprint((100, 20), counts=(5, 3))
        with pytest.raises(ValueError, match="^noise_sigma must be finite and >= 0, got"):
            fu.generate_synthetic(model, truth, grid, sigma)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf, -0.1])
    def test_field_rejects_invalid_noise(self, sigma):
        grid = fu.grid_for_footprint((100, 20), counts=(5, 3))
        zeros = np.zeros(grid.n_points)
        with pytest.raises(ValueError, match="^noise_sigma must be finite and >= 0, got"):
            fu.ExperimentalField(0, grid, zeros, zeros, zeros, noise_sigma=sigma)

    @pytest.mark.parametrize("exy, message", [
        (np.zeros(14), r"^exy must have 15 entries, got \(14,\)$"),
        (np.where(np.arange(15) == 7, np.nan, 0.0), "^exy contains non-finite values$"),
    ], ids=["wrong-length", "non-finite"])
    def test_field_rejects_bad_strains(self, exy, message):
        grid = fu.grid_for_footprint((100, 20), counts=(5, 3))
        zeros = np.zeros(grid.n_points)
        with pytest.raises(ValueError, match=message):
            fu.ExperimentalField(0, grid, zeros, zeros, exy)


class TestMeasurementCsv:
    def test_minimal_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "# note: a free-form comment before the header\n"
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

    def test_reordered_columns_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x_mm,y_mm,eyy,exx,exy\n1,1,0,0,0\n")
        with pytest.raises(ParseError, match="line 1: header must be 'x_mm,y_mm,exx,eyy,exy', got 'x_mm,y_mm,eyy,exx,exy'"):
            fu.load_measurement_csv(path)

    def test_malformed_row_line_number(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x_mm,y_mm,exx,eyy,exy\n1,1,0,0,0\n2,1,0,0\n")
        with pytest.raises(ParseError, match="line 3"):
            fu.load_measurement_csv(path)

    def test_comment_after_header_line_number(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x_mm,y_mm,exx,eyy,exy\n1,1,0,0,0\n# noise_sigma=0.01\n2,1,0,0,0\n")
        with pytest.raises(ParseError, match="^line 3: comment after header is not allowed$") as exc:
            fu.load_measurement_csv(path)
        assert exc.value.line_number == 3

    def test_rows_not_forming_a_grid_line_number(self, tmp_path):
        """Three points in the first row and five in all: no whole number
        of rows; the error names the last data line."""
        path = tmp_path / "m.csv"
        path.write_text("x_mm,y_mm,exx,eyy,exy\n1,1,0,0,0\n2,1,0,0,0\n3,1,0,0,0\n1,2,0,0,0\n2,2,0,0,0\n")
        with pytest.raises(ParseError, match="^line 6: 5 rows do not form a grid with row length 3$") as exc:
            fu.load_measurement_csv(path)
        assert exc.value.line_number == 6

    def test_nan_strain_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x_mm,y_mm,exx,eyy,exy\n1,1,nan,0,0\n")
        with pytest.raises(ParseError, match="non-finite"):
            fu.load_measurement_csv(path)

    def test_non_utf8_line_number(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"x_mm,y_mm,exx,eyy,exy\r\n1,1,0,0,0\r\n# caf\xe9\r\n2,1,0,0,0\r\n")
        with pytest.raises(ParseError, match="line 3: line is not UTF-8 text"):
            fu.load_measurement_csv(path)

    def test_byte_order_mark_accepted(self, tmp_path):
        model, truth = make_problem()
        field = fu.generate_synthetic(model, truth, fu.grid_for_footprint((100, 20), counts=(12, 5)), 0.01,
                                      rng_seed=13)
        plain = tmp_path / "plain.csv"
        fu.write_measurement_csv(field, plain)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        a, b = fu.load_measurement_csv(plain), fu.load_measurement_csv(bom)
        for name in ("exx", "eyy", "exy"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert (a.load_step, a.noise_sigma, a.rng_seed) == (b.load_step, b.noise_sigma, b.rng_seed)
        assert a.grid == b.grid
        with pytest.raises(ParseError, match="line 3: line is not UTF-8 text"):  # still checked after a mark
            bom.write_bytes(b"\xef\xbb\xbfx_mm,y_mm,exx,eyy,exy\n1,1,0,0,0\n# caf\xe9\n")
            fu.load_measurement_csv(bom)

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

    def test_overflowing_spacing_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("x_mm,y_mm,exx,eyy,exy\n-1e308,0,0,0,0\n1e308,0,0,0,0\n")
        with pytest.raises(ParseError, match="line 2: .* at a finite spacing"):
            fu.load_measurement_csv(path)

    @pytest.mark.parametrize("sigma", ["-1", "nan", "inf", "-inf"])
    def test_invalid_noise_sigma_line_number(self, tmp_path, sigma):
        path = tmp_path / "m.csv"
        path.write_text(f"# load_step=0\n# noise_sigma={sigma}\nx_mm,y_mm,exx,eyy,exy\n1,1,0,0,0\n")
        with pytest.raises(ParseError, match="line 2: noise_sigma must be finite and >= 0") as exc:
            fu.load_measurement_csv(path)
        assert exc.value.line_number == 2


# Tokens that break one value of a data row: non-numeric, non-finite or
# overflowing to infinity.
BAD_TOKENS = ["", "x", "1e", "--1", "0x10", "nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-1e400"]


@st.composite
def measurement_csv(draw):
    """The text of a measurement CSV: a regular grid written as the writer
    writes it, then at most a few edits (malformed or non-finite values,
    moved, dropped or repeated points, extra or broken lines)."""
    gx, gy = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    x0, y0 = draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))
    dx, dy = draw(st.floats(1e-3, 1e2)), draw(st.floats(1e-3, 1e2))
    strain = st.floats(allow_nan=False, allow_infinity=False)
    rows = [[x0 + i * dx, y0 + j * dy, draw(strain), draw(strain), draw(strain)]
            for j in range(gy) for i in range(gx)]
    lines = [f"{a:.17g},{b:.17g},{c:.17g},{d:.17g},{e:.17g}" for a, b, c, d, e in rows]
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["token", "fields", "move", "drop", "repeat", "swap", "junk"]))
        n = draw(st.integers(0, len(lines) - 1)) if lines else 0
        if not lines and edit != "junk":
            continue
        if edit == "token":  # one value replaced
            parts = lines[n].split(",")
            parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(BAD_TOKENS))
            lines[n] = ",".join(parts)
        elif edit == "fields":  # a value too few or too many
            parts = lines[n].split(",")
            lines[n] = ",".join(parts[:-1] if draw(st.booleans()) else parts + ["0"])
        elif edit == "move":  # a point off the grid, by as little as a rounding error
            parts = lines[n].split(",")
            axis = draw(st.integers(0, 1))
            delta = draw(st.sampled_from([1e-12, 1e-9, 2e-9, 1e-3, -0.5, 10.0]))
            try:
                parts[axis] = repr(float(parts[axis]) + delta)
            except (ValueError, IndexError):  # a token or field edit got there first
                continue
            lines[n] = ",".join(parts)
        elif edit == "drop":
            del lines[n]
        elif edit == "repeat":
            lines.insert(n, lines[n])
        elif edit == "swap":
            m = draw(st.integers(0, len(lines) - 1))
            lines[n], lines[m] = lines[m], lines[n]
        else:  # a line no row or comment parses as
            lines.insert(n, draw(st.sampled_from(["1;2;3;4;5", "1,2,3,4,5,6", ",,,,", "x_mm,y_mm,exx,eyy,exy",
                                                  "# noise_sigma=0.01", "1 2 3 4 5"])))
    meta = draw(st.sampled_from([[], ["# load_step=2", "# noise_sigma=0.01", "# rng_seed=5"],
                                 ["# noise_sigma=-1"], ["# load_step=two"], ["# rng_seed=none"]]))
    return "\n".join(meta + ["x_mm,y_mm,exx,eyy,exy"] + lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=measurement_csv(), garble=st.one_of(st.none(), st.integers(0, 10**6)))
def test_fuzzed_csv_round_trips_or_raises_data_error(tmp_path_factory, text, garble):
    """A measurement file either loads, to a grid within 1e-9 mm of its
    points and its strains, and then writes back to a file that loads to
    the same field, or raises DataError (ParseError is one). ``garble``
    places a byte that is not UTF-8 in the file."""
    path = tmp_path_factory.getbasetemp() / "fuzzed.csv"
    data = text.encode("utf-8")
    if garble is not None:
        at = garble % (len(data) + 1)
        data = data[:at] + b"\xff" + data[at:]
    path.write_bytes(data)
    try:
        field = fu.load_measurement_csv(path)
    except DataError:
        return
    rows = np.array([[float(v) for v in line.split(",")] for line in text.splitlines()
                     if line.strip() and not line.startswith(("#", "x_mm"))])
    assert np.abs(field.grid.points() - rows[:, :2]).max() <= 1e-9  # the format's grid tolerance
    assert np.array_equal(np.column_stack([field.exx, field.eyy, field.exy]), rows[:, 2:])
    fu.write_measurement_csv(field, path)
    again = fu.load_measurement_csv(path)
    for name in ("exx", "eyy", "exy"):
        assert np.array_equal(getattr(again, name), getattr(field, name))
    assert (again.load_step, again.noise_sigma, again.rng_seed) == (field.load_step, field.noise_sigma, field.rng_seed)
    assert again.grid.counts == field.grid.counts
    assert np.abs(again.grid.points() - field.grid.points()).max() <= 1e-9


class TestInverseCrimeZero:
    def test_noiseless_cost_against_same_truth_is_zero(self):
        model, truth = make_problem()
        grid = fu.grid_for_footprint((100, 20), counts=(12, 5))
        field = fu.generate_synthetic(model, truth, grid, 0.0)
        context = fu.CostContext(model, field)
        assert context.cost(truth) < 1e-20
