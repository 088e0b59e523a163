"""Mesh construction, sectioning and defect stamping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import femupdate as fu
from femupdate._shape import gauss_points, strain_displacement
from femupdate.errors import DegenerateElementError


class TestBuildCouponMesh:
    def test_2x2_quad_counts(self):
        mesh = fu.build_coupon_mesh(100, 20, 2, 2, 2)
        assert mesh.n_nodes == 9
        assert mesh.n_elements == 4
        assert mesh.dimension == 2
        assert mesh.thickness == 2.0

    def test_unit_hex_counts(self):
        mesh = fu.build_coupon_mesh(100, 20, 2, 1, 1, 1)
        assert mesh.n_nodes == 8
        assert mesh.n_elements == 1
        assert mesh.dimension == 3
        assert mesh.elements.shape == (1, 8)

    def test_40x10_counts(self):
        mesh = fu.build_coupon_mesh(100, 20, 2, 40, 10)
        assert mesh.n_nodes == 451
        assert mesh.n_elements == 400

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(length_mm=0.0, width_mm=20, thickness_mm=2, nx=2, ny=2),
            dict(length_mm=100, width_mm=-1, thickness_mm=2, nx=2, ny=2),
            dict(length_mm=100, width_mm=20, thickness_mm=0, nx=2, ny=2),
            dict(length_mm=np.inf, width_mm=20, thickness_mm=2, nx=4, ny=2),
            dict(length_mm=100, width_mm=20, thickness_mm=2, nx=0, ny=2),
            dict(length_mm=100, width_mm=20, thickness_mm=2, nx=2, ny=2, nz=0),
        ],
    )
    def test_invalid_arguments(self, kwargs):
        with pytest.raises(ValueError):
            fu.build_coupon_mesh(**kwargs)

    @pytest.mark.parametrize("divisions, name", [((4.5, 2), "nx"), ((4, 2, 2.5), "nz")], ids=["nx", "nz"])
    def test_non_integral_division_named(self, divisions, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            fu.build_coupon_mesh(100, 20, 2, *divisions)

    def test_structured_counts_3d(self):
        mesh = fu.build_coupon_mesh(30, 10, 6, 3, 2, 2)
        assert mesh.n_nodes == 4 * 3 * 3
        assert mesh.n_elements == 12

    def test_element_node_ids_distinct_and_in_range(self):
        mesh = fu.build_coupon_mesh(10, 5, 1, 4, 3, 2)
        for conn in mesh.elements:
            assert len(set(conn.tolist())) == len(conn)
        assert mesh.elements.max() < mesh.n_nodes
        assert mesh.elements.min() >= 0

    @pytest.mark.parametrize("node, message", [
        (6, "^element connectivity references out-of-range node ids$"),
        (-1, "^element connectivity references out-of-range node ids$"),
        (1, "^element 1 repeats a node id$"),
    ], ids=["past-the-end", "negative", "repeated"])
    def test_bad_connectivity_rejected(self, node, message):
        """Element 1 of a 2 x 1 QUAD4 strip, nodes (1, 2, 5, 4), with its
        third node replaced by ``node``: past the 6 nodes, negative, or its
        own first node."""
        mesh = fu.build_coupon_mesh(10, 5, 1, 2, 1)
        elements = mesh.elements.copy()
        elements[1, 2] = node
        with pytest.raises(ValueError, match=message):
            fu.Mesh(2, mesh.nodes, elements, mesh.thickness, mesh.divisions, mesh.extent)

    def test_nodes_are_immutable(self):
        mesh = fu.build_coupon_mesh(10, 5, 1, 2, 2)
        with pytest.raises(ValueError):
            mesh.nodes[0, 0] = 1.0

    @settings(max_examples=20, deadline=None)
    @given(
        nx=st.integers(1, 6),
        ny=st.integers(1, 5),
        nz=st.one_of(st.none(), st.integers(1, 4)),
        length=st.floats(1.0, 500.0),
        width=st.floats(1.0, 100.0),
        thickness=st.floats(0.1, 50.0),
    )
    def test_volume_matches_box(self, nx, ny, nz, length, width, thickness):
        mesh = fu.build_coupon_mesh(length, width, thickness, nx, ny, nz)
        coords = mesh.nodes[mesh.elements]
        volumes = sum(strain_displacement(coords, gp)[1] for gp in gauss_points(mesh.dimension))
        total = (volumes * mesh.thickness if mesh.dimension == 2 else volumes).sum()
        expected = length * width * thickness
        assert total == pytest.approx(expected, rel=1e-12)


class TestPartitionLongitudinal:
    def test_one_column_per_section(self):
        mesh = fu.build_coupon_mesh(90, 10, 1, 9, 2)
        pmap = fu.partition_longitudinal(mesh, 9)
        assert pmap.patch_count == 9
        # each column of elements is its own patch
        centroids = mesh.element_centroids()
        for e in range(mesh.n_elements):
            assert pmap.patch_of_element[e] == int(centroids[e, 0] // 10)

    def test_nine_sections_on_40_columns(self):
        mesh = fu.build_coupon_mesh(100, 20, 2, 40, 10)
        pmap = fu.partition_longitudinal(mesh, 9)
        assert pmap.patch_count == 9
        counts = np.bincount(pmap.patch_of_element, minlength=9)
        assert np.all(counts > 0)

    def test_single_section_degenerate(self):
        mesh = fu.build_coupon_mesh(100, 20, 2, 5, 3)
        pmap = fu.partition_longitudinal(mesh, 1)
        assert pmap.patch_count == 1
        assert np.all(pmap.patch_of_element == 0)

    def test_too_many_sections_rejected(self):
        mesh = fu.build_coupon_mesh(100, 20, 2, 5, 3)
        with pytest.raises(ValueError, match="n_sections"):
            fu.partition_longitudinal(mesh, 6)

    @settings(max_examples=20, deadline=None)
    @given(nx=st.integers(1, 12), ny=st.integers(1, 4), data=st.data())
    def test_partition_property(self, nx, ny, data):
        n_sections = data.draw(st.integers(1, nx))
        mesh = fu.build_coupon_mesh(100, 20, 2, nx, ny)
        pmap = fu.partition_longitudinal(mesh, n_sections)
        counts = np.bincount(pmap.patch_of_element, minlength=pmap.patch_count)
        assert counts.sum() == mesh.n_elements  # union covers every element once
        assert np.all(counts > 0)


class TestStampDefectPatches:
    @pytest.fixture
    def mesh(self):
        return fu.build_coupon_mesh(100, 20, 2, 40, 10)

    @pytest.fixture
    def sections(self, mesh):
        return fu.partition_longitudinal(mesh, 9)

    def test_two_disjoint_defects(self, mesh, sections):
        defects = [fu.DefectSpec((20, 6), (32, 14)), fu.DefectSpec((60, 4), (72, 12))]
        pmap = fu.stamp_defect_patches(sections, mesh, defects)
        assert pmap.patch_count == 11
        counts = np.bincount(pmap.patch_of_element, minlength=11)
        assert np.all(counts > 0)
        assert counts.sum() == mesh.n_elements

    def test_empty_defect_list_is_identity(self, mesh, sections):
        assert fu.stamp_defect_patches(sections, mesh, []) is sections

    def test_whole_domain_box_empties_sections(self, mesh, sections):
        with pytest.raises(ValueError, match="empty"):
            fu.stamp_defect_patches(sections, mesh, [fu.DefectSpec((0, 0), (100, 20))])

    def test_box_without_centroid_names_index(self, mesh, sections):
        # a sliver between element centroids catches nothing
        bad = fu.DefectSpec((2.6, 0.0), (3.6, 20.0))
        ok = fu.DefectSpec((20, 6), (32, 14))
        with pytest.raises(ValueError, match="defect 1"):
            fu.stamp_defect_patches(sections, mesh, [ok, bad])

    def test_overlapping_defects_last_wins(self, mesh, sections):
        d0 = fu.DefectSpec((20, 6), (32, 14))
        d1 = fu.DefectSpec((26, 4), (40, 12))
        pmap = fu.stamp_defect_patches(sections, mesh, [d0, d1])
        centroids = mesh.element_centroids()
        overlap = d0.contains(centroids) & d1.contains(centroids)
        assert overlap.any()
        assert np.all(pmap.patch_of_element[overlap] == 10)  # later defect owns the overlap

    def test_stamping_is_deterministic(self, mesh, sections):
        defects = [fu.DefectSpec((20, 6), (32, 14)), fu.DefectSpec((60, 4), (72, 12))]
        a = fu.stamp_defect_patches(sections, mesh, defects)
        b = fu.stamp_defect_patches(sections, mesh, defects)
        assert np.array_equal(a.patch_of_element, b.patch_of_element)
        assert a.patch_count == b.patch_count

    def test_3d_defect_box(self):
        mesh = fu.build_coupon_mesh(100, 20, 8, 10, 4, 4)
        sections = fu.partition_longitudinal(mesh, 2)
        pmap = fu.stamp_defect_patches(sections, mesh, [fu.DefectSpec((40, 5, 0), (60, 15, 4))])
        assert pmap.patch_count == 3
        centroids = mesh.element_centroids()
        inside = pmap.patch_of_element == 2
        assert np.all(centroids[inside, 2] <= 4.0)

    def test_dimension_mismatch_rejected(self, mesh, sections):
        with pytest.raises(ValueError):
            fu.stamp_defect_patches(sections, mesh, [fu.DefectSpec((0, 0, 0), (10, 10, 10))])


class TestDefectSpec:
    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError, match="box_min < box_max"):
            fu.DefectSpec((5, 5), (5, 10))

    def test_four_coordinates_per_corner_rejected(self):
        with pytest.raises(ValueError, match="^defect box must have 2 or 3 coordinates per corner$"):
            fu.DefectSpec((0, 0, 0, 0), (1, 1, 1, 1))

    def test_contains_is_closed(self):
        spec = fu.DefectSpec((0, 0), (1, 1))
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5], [1.0001, 0.5]])
        assert spec.contains(pts).tolist() == [True, True, True, False]


class TestPatchMap:
    def test_empty_patch_rejected(self):
        with pytest.raises(ValueError, match="patch 1"):
            fu.PatchMap(np.array([0, 0, 2, 2]), 3)

    def test_zero_patch_count_rejected(self):
        with pytest.raises(ValueError, match="^patch_count must be >= 1$"):
            fu.PatchMap(np.zeros(3, int), 0)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            fu.PatchMap(np.array([0, 3]), 3)

    def test_elements_of_patch(self):
        pmap = fu.PatchMap(np.array([0, 1, 0, 1]), 2)
        assert np.flatnonzero(pmap.patch_of_element == 1).tolist() == [1, 3]


class TestFaceSelection:
    def test_face_node_counts(self):
        mesh = fu.build_coupon_mesh(100, 20, 8, 4, 3, 2)
        assert mesh.face_nodes("xmin").size == 4 * 3
        assert mesh.face_nodes("zmax").size == 5 * 4
        np.testing.assert_allclose(mesh.nodes[mesh.face_nodes("xmax"), 0], 100.0)

    def test_unknown_face(self):
        mesh = fu.build_coupon_mesh(100, 20, 2, 2, 2)
        with pytest.raises(ValueError, match="face"):
            mesh.face_nodes("top")
        with pytest.raises(ValueError, match="2D mesh"):
            mesh.face_nodes("zmin")


class TestJacobianCheck:
    def test_first_degenerate_element_named(self):
        """The model build checks the Jacobians once per distinct element
        shape and still names the first element that fails."""
        mesh = fu.build_coupon_mesh(100, 20, 8, 6, 3, 2)
        elements = mesh.elements.copy()
        for e in (20, 7, 33):
            elements[e] = elements[e][[4, 5, 6, 7, 0, 1, 2, 3]]  # top and bottom swapped
        bad = fu.Mesh(3, mesh.nodes, elements, None, mesh.divisions, mesh.extent)
        with pytest.raises(DegenerateElementError, match=r"element 7$"):
            fu.ForwardModel(bad, fu.partition_longitudinal(bad, 1), 0.3, fu.BoundaryConditions("xmin", 0.1))
